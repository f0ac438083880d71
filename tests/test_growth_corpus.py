"""The zigzag corpora of ``tests/zigzag_corpus.py``: the growth, still and
edge lines, the maps the benchmark's growth zigzags build, the zone walk
of every still stretch of the still and edge corpora, and where the
instants of every still stretch of the three lie.

The growth inputs are those of ``perfbench/workloads.py``, read without
changing it; the growth line pins the outputs that the benchmark times.
"""

import collections
import itertools
import math
from pathlib import Path

import pytest

import cechstrat
import conftest
import zigzag_corpus
from cechstrat import SimplicialMap, cech_complex, entrance_map, evaluate, paths, strat

WORKLOADS = zigzag_corpus.load(
    "growth_corpus_workloads", Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py")

#: the growth line of ``tests/zigzag_corpus.py``, the same on both backends
GROWTH_LINE = ("growth: sha256 2243d9360696d57f82e1b1b1f61dce9cd0b9f4ea74ba40492cadf69ffc7c8755, "
               "162 built, 0 zero-width intervals, 0 refused [], mislabelled instants [], "
               "labels taken but absent [], zones absent []")

#: the still and edge lines of ``tests/zigzag_corpus.py``
LINES = {
    "still": ("still: sha256 eb017c15289a30607be6940044fd0dd413916a0a50a5a00c7fcf1c9953a24b93, "
              "1200 built, 485 zero-width intervals, 0 refused [], mislabelled instants [], "
              "labels taken but absent [], zones absent []"),
    "edge": ("edge: sha256 26c577e1ee52034e7ed63a9b88102ae81dcc5878268e632735d586d7a6a54074, "
             "2000 built, 936 zero-width intervals, 0 refused [], mislabelled instants [], "
             "labels taken but absent [], zones absent []"),
}


def growth_inputs():
    """The configurations of perfbench's growth workload, seeds 1-3."""
    for seed in (1, 2, 3):
        raw = WORKLOADS.make_inputs("growth_zigzag", seed)
        for rnd in WORKLOADS.decode_inputs("growth_zigzag", raw):
            yield from rnd


def corpus(name: str):
    """The paths of one corpus of ``tests/zigzag_corpus.py``, in turn."""
    return dict(zigzag_corpus.corpora(cechstrat, conftest, WORKLOADS))[name]


def test_growth_zigzags_are_pinned():
    assert zigzag_corpus.summary(cechstrat, "growth", corpus("growth")) == GROWTH_LINE


@pytest.mark.parametrize("name", sorted(LINES))
def test_still_and_edge_zigzags_are_pinned(name):
    assert zigzag_corpus.summary(cechstrat, name, corpus(name)) == LINES[name]


@pytest.mark.parametrize("name", sorted(LINES))
def test_each_crossing_is_the_first_float_of_its_zone(name):
    """The zone walk of every still stretch, both ways: the float before a
    crossing reads a different zone than the crossing, and each piece
    reads one zone at its first float and at its last.  The radius is
    monotone in the floats of a segment, so the zone is constant on each
    piece."""
    crossings = 0
    for path in corpus(name):
        for scan, pieces in zigzag_corpus.still_stretches(cechstrat, path):
            zones = [tuple(zigzag_corpus.zone_at(cechstrat, scan, path, t) for t in piece)
                     for piece in pieces]
            assert all(first == last for first, last in zones)
            assert all(before != after for (_, before), (after, _) in zip(zones, zones[1:]))
            crossings += len(pieces) - 1
    assert crossings > 10_000


@pytest.mark.parametrize("name", sorted(LINES))
def test_the_walk_keeps_the_zone_of_each_piece(name):
    """The zone that ``paths._zone_at`` reads off a stretch's record, from
    any of its segments, is the zone of the radius that ``evaluate`` reads
    at each breakpoint of the stretch, at each crossing and at the float
    before each crossing."""
    reads = 0
    for path in corpus(name):
        bp, first = path.breakpoints, 0
        for shared, run in itertools.groupby(path._still):
            last = first + len(list(run))
            if shared is not None:
                scan = cechstrat.cech.subset_radii(shared[0])
                crossings = paths._stretch_walk(path, first)[0]
                times = [*bp[first:last + 1], *crossings,
                         *(math.nextafter(t, -math.inf) for t in crossings)]
                for seg in {first, last - 1}:
                    for t in times:
                        assert paths._zone_at(path, seg, t) == \
                            zigzag_corpus.zone_at(cechstrat, scan, path, t)
                    reads += len(times)
            first = last
    assert reads > 10_000


#: per corpus, how many instants of its still stretches lie at a mark of
#: the stretch's record, at a crossing and at the float before a crossing
INSTANT_PLACES = {"growth": (714, 0, 0), "still": (12_614, 396, 400),
                  "edge": (6_931, 583, 592)}


@pytest.mark.parametrize("name", sorted(INSTANT_PLACES))
def test_each_still_instant_lies_at_a_mark_or_beside_a_crossing(name):
    """Every instant that ``transitions`` reports on a still stretch lies at
    a mark of the stretch's record (``paths._stretch_walk``), or, a lone
    crossing into or out of a longer stay inside a band, at the crossing
    or at the float before it."""
    places = [0, 0, 0]
    for path in corpus(name):
        bp, first = path.breakpoints, 0
        instants = cechstrat.transitions(path, zigzag_corpus.RESOLUTION)
        for shared, run in itertools.groupby(path._still):
            last = first + len(list(run))
            if shared is not None:
                crossings, _, marks = paths._stretch_walk(path, first)
                before = {math.nextafter(t, -math.inf) for t in crossings}
                for t, _ in instants:
                    if bp[first] <= t <= bp[last]:
                        place = [t in marks, t in crossings, t in before]
                        assert any(place), (name, t)
                        places[place.index(True)] += 1
            first = last
    assert tuple(places) == INSTANT_PLACES[name]


def test_a_still_map_is_its_snap_and_one_checked_renaming(monkeypatch):
    """A growth op composes nothing: each still entrance map builds its
    local map, and one renaming from t_from into x(t_to) only where the
    complex at tau, the float beside t_to, is not the one at t_from; it
    reads the end's safe ball once (in the local map), and the
    configuration's pairwise gap is computed once per op, in its first
    map."""
    counts = collections.Counter()
    per_map, renamed = [], []

    def count(module, name):
        fn = getattr(module, name)

        def counted(*args):
            counts[name] += 1
            return fn(*args)

        monkeypatch.setattr(module, name, counted)

    for module, name in ((paths, "compose"), (paths, "local_map"), (strat, "tilde_r"),
                         (strat, "r1")):
        count(module, name)
    post_init = SimplicialMap.__post_init__

    def counted_post_init(self):
        counts["SimplicialMap"] += 1
        post_init(self)

    def counted_entrance_map(path, t_from, t_to):
        before = counts.copy()
        m = entrance_map(path, t_from, t_to)
        per_map.append(counts - before)
        tau = math.nextafter(t_to, t_from)
        renamed.append(cech_complex(evaluate(path, t_from)) is not cech_complex(evaluate(path, tau)))
        assert m.source is cech_complex(evaluate(path, t_from))
        return m

    monkeypatch.setattr(SimplicialMap, "__post_init__", counted_post_init)
    monkeypatch.setattr(paths, "entrance_map", counted_entrance_map)
    instants, firsts = 0, set()
    for cfg in growth_inputs():
        conftest.clear_package_caches()
        firsts.add(len(per_map))
        instants += len(WORKLOADS.op_growth(cfg).times)
    # two maps into each instant; the op's one configuration has one scan,
    # which keeps the gap from its first map
    assert instants and len(per_map) == 2 * instants
    assert [c.pop("r1", 0) for c in per_map] == [int(k in firsts) for k in range(len(per_map))]
    assert all(c == collections.Counter(SimplicialMap=1 + r, local_map=1, tilde_r=1)
               for c, r in zip(per_map, renamed))
    assert 0 < sum(renamed) < len(renamed)
    assert counts["compose"] == 0
