"""Digests of the zigzags of four seeded path corpora, one line per corpus.

Run from the root of a checkout:

    PYTHONPATH=src python3 tests/zigzag_corpus.py [ROOT]

ROOT, this checkout by default, is the checkout whose library
(``ROOT/src``), path generators (``ROOT/tests/conftest.py``) and benchmark
inputs (``ROOT/perfbench/workloads.py``) are read, so two checkouts can be
compared line by line.  Each line gives the sha256 of the JSON list of
every zigzag's JSON, or its refusal as ``{"refused": message}``, in turn;
the number of zigzags built and of intervals no wider than two final
brackets; the refusals, grouped by message with the numbers taken out;
the instants whose label is not the label at their own time, as
(zigzag index, time); the zigzags whose path takes, at some t = k/64, a
label that the zigzag lacks, as (zigzag index, first such t); and, with
no sampling, the still-stretch pieces (:func:`still_stretches`) that lie
outside every instant's extent (``Instant.lo`` to ``Instant.hi``) and
whose zone's label the zigzag lacks, as (zigzag index, the piece's first
float).  A piece inside an instant's extent is passed within that
instant, so its label need not appear.  The corpora, all at resolution
0.01:

- growth: the benchmark's growth inputs of seeds 1-3, as
  ``cech_path(cfg, 0.9)``, both ways (162 zigzags);
- still: 600 ``random_still_path``s of seed 7, both ways;
- edge: 500 ``random_edge_path``s each of seeds 1 and 2, both ways;
- moving: 300 ``random_moving_path``s of seed 11.

This is a script, not a test module: pytest does not collect it.  It
takes about 37-39 s on the pure kernels (Python 3.11, two x86-64 cores),
about 30 s of it the moving corpus.
"""

from __future__ import annotations

import collections
import hashlib
import importlib.util
import itertools
import json
import math
import random
import re
import sys
from pathlib import Path

RESOLUTION = 0.01

#: the labels a path takes are read at t = k/SAMPLES, k = 0..SAMPLES
SAMPLES = 64


def load(name: str, file: Path):
    spec = importlib.util.spec_from_file_location(name, file)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def corpora(cechstrat, conftest, workloads):
    """(name, paths) for each corpus, the paths in turn."""

    def both_ways(paths):
        for p in paths:
            yield p
            yield cechstrat.paths.reversed_path(p)

    def drawn(make, seed, count):
        rng = random.Random(seed)
        return (make(rng) for _ in range(count))

    def growth():
        for seed in (1, 2, 3):
            raw = workloads.make_inputs("growth_zigzag", seed)
            for rnd in workloads.decode_inputs("growth_zigzag", raw):
                yield from (cechstrat.cech_path(cfg, workloads.GROWTH_T_MAX) for cfg in rnd)

    def edge():
        for seed in (1, 2):
            yield from drawn(conftest.random_edge_path, seed, 500)

    return (("growth", both_ways(growth())),
            ("still", both_ways(drawn(conftest.random_still_path, 7, 600))),
            ("edge", both_ways(edge())),
            ("moving", drawn(conftest.random_moving_path, 11, 300)))


def still_stretches(cechstrat, path):
    """Per still stretch of ``path``, its scan and its pieces in time order:
    (first float, last float) pairs, each from a time at which the zone of
    the radius changes (the crossings of the stretch's record,
    ``paths._stretch_walk``), or the stretch's start, to the float before
    the next, or the stretch's end."""
    bp, first = path.breakpoints, 0
    for shared, run in itertools.groupby(path._still):
        last = first + len(list(run))
        if shared is not None:
            starts = [bp[first], *cechstrat.paths._stretch_walk(path, first)[0]]
            ends = [*(math.nextafter(t, -math.inf) for t in starts[1:]), bp[last]]
            yield cechstrat.cech.subset_radii(shared[0]), list(zip(starts, ends))
        first = last


def zone_at(cechstrat, scan, path, t: float):
    """The zone in ``scan`` of the radius that ``evaluate`` reads at t."""
    paths = cechstrat.paths
    return cechstrat.cech.read_scan(scan, paths._radius_at(path, *paths._place(path, t)))


def zones_absent(cechstrat, path, labels) -> list[float]:
    """The first floats of the still-stretch pieces of ``path`` whose
    zone's label is not in ``labels`` and that no instant's extent holds."""
    missing = [(a, b) for scan, pieces in still_stretches(cechstrat, path) for a, b in pieces
               if cechstrat.strat._zone_label(scan, zone_at(cechstrat, scan, path, a)) not in labels]
    extents = [(e.lo, e.hi) for e in cechstrat.transitions(path, RESOLUTION)] if missing else []
    return [a for a, b in missing if not any(lo <= a and b <= hi for lo, hi in extents)]


def summary(cechstrat, name: str, paths) -> str:
    point_width = 2.0 * cechstrat.paths._BRACKET_FLOOR
    out, refusals, mislabelled, absent, zones = [], collections.Counter(), [], [], []
    built = points = 0
    for i, path in enumerate(paths):
        try:
            z = cechstrat.zigzag(path, RESOLUTION)
        except (ValueError, RuntimeError) as err:
            message = f"{type(err).__name__}: {err}"
            out.append({"refused": message})
            refusals[re.sub(r"-?\d+(\.\d+)?(e[-+]?\d+)?", "#", message)] += 1
            continue
        out.append(z.to_json_dict())
        built += 1
        bounds = (0.0, *z.times, 1.0)
        points += sum(b - a <= point_width for a, b in zip(bounds, bounds[1:]))
        mislabelled += [(i, t) for t, label in zip(z.times, z.transition_classes)
                        if cechstrat.stratum_label(cechstrat.evaluate(path, t)) != label]
        labels = z.interval_classes + z.transition_classes
        absent += [(i, t) for t in (k / SAMPLES for k in range(SAMPLES + 1))
                   if cechstrat.stratum_label(cechstrat.evaluate(path, t)) not in labels][:1]
        zones += [(i, a) for a in zones_absent(cechstrat, path, labels)]
    digest = hashlib.sha256(json.dumps(out, sort_keys=True).encode()).hexdigest()
    refused = "; ".join(f"{n} x {message}" for message, n in sorted(refusals.items()))
    return (f"{name}: sha256 {digest}, {built} built, {points} zero-width intervals, "
            f"{sum(refusals.values())} refused [{refused}], mislabelled instants {mislabelled}, "
            f"labels taken but absent {absent}, zones absent {zones}")


def main(argv: list[str]) -> None:
    root = Path(argv[1] if len(argv) > 1 else Path(__file__).resolve().parents[1]).resolve()
    sys.path.insert(0, str(root / "src"))
    import cechstrat

    if Path(cechstrat.__file__).resolve().parent != root / "src" / "cechstrat":
        raise SystemExit(f"cechstrat was imported from {cechstrat.__file__}, not {root / 'src'}")
    conftest = load("zigzag_corpus_conftest", root / "tests" / "conftest.py")
    workloads = load("zigzag_corpus_workloads", root / "perfbench" / "workloads.py")
    print(f"kernels: {cechstrat._kernels.BACKEND}", flush=True)
    for name, paths in corpora(cechstrat, conftest, workloads):
        print(summary(cechstrat, name, paths), flush=True)


if __name__ == "__main__":
    main(sys.argv)
