"""Seeded inputs, operations and oracles of the benchmark's two workloads.

A growth op's cost is set mostly by its point count and its number of
critical radii, and both vary widely from one random configuration to the
next.  So the inputs are a stratified sample of the generator: every slot
fixes a cell (points, critical radii), and the seed draws the geometry
within it.  The slots are the cells at evenly spaced quantiles of the
generator's measured distribution of cells, so the slots match the
generator's mix.  ``python3 perfbench/workloads.py N`` (from the root, with
``PYTHONPATH=src``) draws ``N`` unstratified configurations, prints the
share of each cell and the slots that follow from them.

Every call into the library goes through an attribute of the ``cechstrat``
package, never a name imported into this module, so the traced run's
wrappers see every call.
"""

from __future__ import annotations

import collections
import json
import random
import sys

import cechstrat

# growth_zigzag: the criterion-6 generator.  It draws 2-5 points uniformly
# in the unit square and keeps the configuration when its critical radii,
# merged within RADIUS_MERGE, are at least MIN_GAP apart.  A cell is
# (points, distinct nonzero critical radii).
MIN_GAP = 1e-3
#: critical radii closer than this are one radius, as in ``cech_filtration``
RADIUS_MERGE = 1e-9
GROWTH_T_MAX = 0.9
RESOLUTION = 0.01
ORACLE_RADIUS = GROWTH_T_MAX / (1.0 - GROWTH_T_MAX)
#: 27 cells at the quantiles (i + 1/2) / 27 of 4,000 draws (seed 1)
GROWTH_SLOTS = ((2, 1),) * 9 + ((3, 3),) * 6 + ((3, 4),) * 2 + ((4, 6),) * 3 + (
    (4, 7), (4, 7), (4, 8), (4, 8), (5, 10), (5, 12), (5, 14))

#: slots per round; the traced run runs the first round
ROUND_SIZE = 9

ENUM_N = 5
ENUM_CLASSES_PER_N = (1, 2, 5, 20, 180)
ENUM_COVER_EDGES = 547


def _merged(radii):
    out = []
    for r in sorted(radii):
        if not out or r > out[-1] + RADIUS_MERGE:
            out.append(r)
    return out


def draw_growth(rng: random.Random, n: int):
    """One draw of the criterion-6 generator with ``n`` points: the
    configuration and its cell, or None when the generator rejects it.

    Radii within ``RADIUS_MERGE`` are merged before the gap test: the pure
    kernels can return one ball's radius as two values a few ulps apart,
    which would otherwise reject a configuration the compiled kernels keep.
    """
    pts = tuple((rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(n))
    try:
        cfg = cechstrat.PointConfig(2, pts)
    except ValueError:
        return None
    radii = _merged({0.0} | {r for _, r in cechstrat.cech.subset_radii(cfg)})
    if any(b - a < MIN_GAP for a, b in zip(radii, radii[1:])):
        return None
    return cfg, (n, len(radii) - 1)


def draw_cell(rng: random.Random, cell):
    """Draws from the generator, with the cell's point count, until a
    configuration falls in ``cell``."""
    while True:
        drawn = draw_growth(rng, cell[0])
        if drawn is not None and drawn[1] == cell:
            return drawn[0]


def measure_mix(n_draws: int, seed: int = 1) -> collections.Counter:
    """Cells of ``n_draws`` unstratified configurations of the generator."""
    rng = random.Random(seed)
    cells = collections.Counter()
    while sum(cells.values()) < n_draws:
        drawn = draw_growth(rng, rng.randint(2, 5))
        if drawn is not None:
            cells[drawn[1]] += 1
    return cells


def quantile_cells(counts, n: int) -> list:
    """The cells at the quantiles (i + 1/2) / n of ``counts``, cells in sorted order."""
    cells = sorted(counts)
    total = sum(counts.values())
    out, below, j = [], counts[cells[0]], 0
    for i in range(n):
        while below <= (i + 0.5) / n * total:
            j += 1
            below += counts[cells[j]]
        out.append(cells[j])
    return out


def make_inputs(workload: str, seed: int) -> bytes:
    """Serialized inputs of one workload: the same seed gives the same bytes.

    Round ``r`` of ``n`` takes every ``n``-th slot, so each round is a
    sample of the whole mix; the first round starts in the middle of each
    stretch of ``n`` slots, so the traced round holds the middle cells.
    """
    rng = random.Random(seed)
    if workload == "enumerate_poset":
        rounds = [[{"n_max": ENUM_N}]]
    elif workload == "growth_zigzag":
        n = len(GROWTH_SLOTS) // ROUND_SIZE
        rounds = [[draw_cell(rng, cell).to_json_dict() for cell in GROWTH_SLOTS[(r + n // 2) % n::n]]
                  for r in range(n)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    data = {"workload": workload, "seed": seed, "rounds": rounds}
    return json.dumps(data, sort_keys=True).encode()


def decode_inputs(workload: str, raw: bytes) -> list[list]:
    data = json.loads(raw)
    if data["workload"] != workload:
        raise ValueError(f"inputs are for {data['workload']!r}, not {workload!r}")
    decode = {
        "growth_zigzag": cechstrat.PointConfig.from_json_dict,
        "enumerate_poset": lambda d: int(d["n_max"]),
    }[workload]
    return [[decode(item) for item in rnd] for rnd in data["rounds"]]


def _dump(data) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def _track_json(z, chain) -> str:
    """The output of ``cechstrat track --as-filtration`` for this zigzag."""
    data = z.to_json_dict()
    data["filtration"] = None if chain is None else {
        "classes": [c.to_json_dict() for c in chain.classes],
        "maps": [m.to_json_dict() for m in chain.maps],
    }
    return _dump(data)


# Operations: the timed part.  Each returns what its oracle needs.

def op_growth(cfg):
    return cechstrat.zigzag(cechstrat.cech_path(cfg, GROWTH_T_MAX), RESOLUTION)


def op_enumerate(n_max):
    universe = cechstrat.enumerate_classes(n_max)
    diagram = cechstrat.hasse(universe)
    return universe, diagram, cechstrat.export_dot(diagram), _dump(universe.to_json_dict())


# Outputs: the text a user would get, compared byte for byte across
# backends and between the traced and the untraced run.

def render_growth(z) -> str:
    return _track_json(z, cechstrat.as_filtration(z))


def render_enumerate(result) -> str:
    return result[2] + result[3]


# Oracles: untimed.  Each raises AssertionError saying what is wrong.

def check_growth(cfg, z) -> None:
    filt = cechstrat.cech_filtration(cfg)
    expected = [cechstrat.canonical_form(c).key
                for c, r in zip(filt.complexes, filt.critical_radii) if r < ORACLE_RADIUS]
    got = [lbl.cls.key for lbl in z.interval_classes]
    if got != expected:
        raise AssertionError(f"{len(got)} interval classes differ from the filtration's {len(expected)}")
    if cechstrat.as_filtration(z) is None:
        raise AssertionError("a growth-path zigzag does not read as a filtration")


def check_enumerate(n_max, result) -> None:
    universe, diagram, _, _ = result
    per_n = [sum(c.n_vertices == n for c in universe.classes) for n in range(1, n_max + 1)]
    if tuple(per_n) != ENUM_CLASSES_PER_N[:n_max]:
        raise AssertionError(f"classes per vertex count {per_n}")
    if n_max == ENUM_N and len(diagram.cover_edges) != ENUM_COVER_EDGES:
        raise AssertionError(f"{len(diagram.cover_edges)} cover edges, expected {ENUM_COVER_EDGES}")


#: workload -> (operation, render, oracle)
OPS = {
    "growth_zigzag": (op_growth, render_growth, check_growth),
    "enumerate_poset": (op_enumerate, render_enumerate, check_enumerate),
}


if __name__ == "__main__":
    n_draws = int(sys.argv[1])
    counts = measure_mix(n_draws)
    for cell in sorted(counts):
        print(cell, counts[cell], f"{counts[cell] / n_draws:.4f}")
    print("slots:", quantile_cells(counts, len(GROWTH_SLOTS)))
