"""The benchmark's growth zigzags: their digest, and the maps they build.

The inputs are those of ``perfbench/workloads.py``, read without changing
it; the digest line is the growth line of ``tests/zigzag_corpus.py``,
which pins the outputs that the benchmark times.
"""

import collections
from pathlib import Path

import cechstrat
import conftest
import zigzag_corpus
from cechstrat import SimplicialMap, entrance_map, paths, strat

WORKLOADS = zigzag_corpus.load(
    "growth_corpus_workloads", Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py")

#: the growth line of ``tests/zigzag_corpus.py``, the same on both backends
GROWTH_LINE = ("growth: sha256 2243d9360696d57f82e1b1b1f61dce9cd0b9f4ea74ba40492cadf69ffc7c8755, "
               "162 built, 0 zero-width intervals, 0 refused [], mislabelled instants [], "
               "labels taken but absent []")


def growth_inputs():
    """The configurations of perfbench's growth workload, seeds 1-3."""
    for seed in (1, 2, 3):
        raw = WORKLOADS.make_inputs("growth_zigzag", seed)
        for rnd in WORKLOADS.decode_inputs("growth_zigzag", raw):
            yield from rnd


def test_growth_zigzags_are_pinned():
    (name, growth), *_ = zigzag_corpus.corpora(cechstrat, conftest, WORKLOADS)
    assert name == "growth"
    assert zigzag_corpus.summary(cechstrat, name, growth) == GROWTH_LINE


def test_a_still_map_is_its_snap_and_one_checked_renaming(monkeypatch):
    """A growth op composes nothing: each still entrance map builds its
    local map and one renaming from t_from into x(t_to), reads the end's
    safe ball twice (itself and in the local map), and each instant's
    separation is computed once for its four reads."""
    counts = collections.Counter()
    per_map = []

    def count(module, name):
        fn = getattr(module, name)

        def counted(*args):
            counts[name] += 1
            return fn(*args)

        monkeypatch.setattr(module, name, counted)

    for module, name in ((paths, "compose"), (paths, "local_map"), (paths, "tilde_r"),
                         (strat, "tilde_r"), (strat, "r1")):
        count(module, name)
    post_init = SimplicialMap.__post_init__

    def counted_post_init(self):
        counts["SimplicialMap"] += 1
        post_init(self)

    def counted_entrance_map(path, t_from, t_to):
        before = counts.copy()
        m = entrance_map(path, t_from, t_to)
        per_map.append(counts - before)
        return m

    monkeypatch.setattr(SimplicialMap, "__post_init__", counted_post_init)
    monkeypatch.setattr(paths, "entrance_map", counted_entrance_map)
    instants = 0
    for cfg in growth_inputs():
        conftest.clear_package_caches()
        instants += len(WORKLOADS.op_growth(cfg).times)
    # two maps into each instant, in turn: the first computes its
    # separation, and the second reads it from the scan
    assert instants and len(per_map) == 2 * instants
    assert [c.pop("r1", 0) for c in per_map] == [1, 0] * instants
    assert all(c == collections.Counter(SimplicialMap=2, local_map=1, tilde_r=2)
               for c in per_map)
    assert counts["compose"] == 0
