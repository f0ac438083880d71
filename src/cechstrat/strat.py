"""Stratum labels and the neighborhood radii that make them continuous.

For a configuration-radius pair x, every point within ``safe_radius(x)``
in the sup-norm has a Cech complex that dominates the complex at x, and
:func:`local_map` constructs the witnessing vertex-surjective simplicial
map by snapping each perturbed point to the configuration point whose
small ball contains it.  Labels carry a degeneracy refinement (which
subsets sit exactly at their critical radius) so that boundary strata can
be split off; :func:`frontier_check` probes closure relations between two
strata by Monte Carlo sampling.
"""

from __future__ import annotations

import math
import random
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import Literal

from ._bits import vertices_of
from .cech import Scan, Zone, cech_complex, read_scan, subset_radii
from .complexes import IsoClass, SimplicialMap, canonical_form, is_simplicial
from .geometry import PointConfig, RanPoint, _check_radius, sup_distance
from .scposet import dominates

Case = Literal["generic", "boundary"]


def r1(config: PointConfig) -> float:
    """Smallest pairwise distance; +inf for singletons (empty minimum)."""
    pts = config.points
    if len(pts) < 2:
        return math.inf
    return min(
        math.dist(pts[i], pts[j])
        for i in range(len(pts))
        for j in range(i + 1, len(pts))
    )


def r2(config: PointConfig, r: float) -> float:
    """Twice the smallest absolute radius slack over multi-point subsets.

    Perturbations smaller than half this value cannot create or destroy a
    simplex among the configuration points.  Zero at a critical radius.
    """
    if len(config) < 2:
        raise ValueError("r2 requires at least two points")
    r = _check_radius(r)
    scan = subset_radii(config)
    return scan.slacks(r, read_scan(scan, r))[0]


def r2_prime(config: PointConfig, r: float) -> float:
    """Like :func:`r2` but ignoring subsets already at their critical radius.

    +inf when every multi-point subset is critical (empty minimum).
    """
    if len(config) < 2:
        raise ValueError("r2_prime requires at least two points")
    r = _check_radius(r)
    scan = subset_radii(config)
    return scan.slacks(r, read_scan(scan, r))[1]


@dataclass(frozen=True)
class SafeBall:
    """Sup-norm ball around ``center`` inside which every stratum label
    dominates the center's label.  ``safe_radius`` is a quarter of the
    underlying separation value ``r_tilde``."""

    center: RanPoint
    r_tilde: float
    case: Case

    def __post_init__(self):
        if not (self.safe_radius > 0.0):
            raise ValueError("safe radius must be positive")

    @property
    def safe_radius(self) -> float:
        return self.r_tilde / 4.0


def tilde_r(x: RanPoint) -> SafeBall:
    """Separation radius of a configuration-radius pair.

    The smaller of the pairwise gap and :func:`r2_prime`, the simplex slack
    with critical subsets exempted.  The case is "boundary" when some
    subset is exactly critical; otherwise it is "generic" and the slack
    equals :func:`r2`.  Singletons admit any perturbation radius, so they
    get 4*r (or 1 when r = 0) as a convention.

    The separation and case depend on the configuration and the radius
    alone, so the configuration's cached scan keeps them for the last
    radius read: a zigzag reads each instant's four times in a row, once
    for each of its two entrance maps and their local maps.  The ball is
    built around ``x`` itself: equal points, which share a scan, can differ
    in the sign of a zero.
    """
    config, r = x.config, x.radius
    if len(config) == 1:
        rt = 4.0 * r if r > 0.0 else 1.0
        return SafeBall(x, rt, "generic")
    scan = subset_radii(config)
    if scan.separation is None or scan.separation[0] != r:
        zone = read_scan(scan, r)
        case: Case = "boundary" if zone.lo < zone.hi else "generic"
        scan.separation = (r, min(r1(config), scan.slacks(r, zone)[1]), case)
    return SafeBall(x, *scan.separation[1:])


def local_map(source: RanPoint, target: RanPoint) -> SimplicialMap:
    """Vertex-surjective simplicial map from the source complex onto the
    target complex, defined whenever the source lies strictly inside the
    target's safe ball.

    Each source point falls in exactly one of the disjoint open balls of
    radius ``r_tilde/4`` around the target points and is mapped there.
    Raises when the points are too far apart (the caller must subdivide).
    """
    safe = tilde_r(target).safe_radius
    dist = sup_distance(source, target)
    if not (dist < safe):
        raise ValueError(
            f"sup distance {dist} is not strictly inside the safe radius "
            f"{safe}; subdivide the step"
        )
    tgt_pts = target.config.points
    vertex_map = []
    for q in source.config.points:
        hits = [i for i, p in enumerate(tgt_pts) if math.dist(q, p) < safe]
        if len(hits) != 1:
            raise RuntimeError(
                f"point {q} lies in {len(hits)} of the disjoint snap balls; "
                "safe-ball construction violated"
            )
        vertex_map.append(hits[0])
    m = SimplicialMap(
        cech_complex(source),
        cech_complex(target),
        tuple(vertex_map),
    )
    if not is_simplicial(m):
        raise RuntimeError("local map failed simpliciality validation")
    if not m.is_vertex_surjective():
        raise RuntimeError("local map failed vertex-surjectivity validation")
    return m


@dataclass(frozen=True)
class StratumLabel:
    """Refined stratum label: the complex class plus which multi-point
    subsets sit exactly at their critical radius.

    The coarse label is ``cls`` alone; the whole-configuration refinement
    is recoverable via :attr:`whole_config_degenerate`.
    """

    cls: IsoClass
    degenerate_subsets: tuple[tuple[int, ...], ...]

    @property
    def degenerate(self) -> bool:
        return bool(self.degenerate_subsets)

    @property
    def whole_config_degenerate(self) -> bool:
        n = self.cls.n_vertices
        return tuple(range(n)) in self.degenerate_subsets

    def to_json_dict(self) -> dict:
        return {
            "class": self.cls.canonical.to_json_dict(),
            "key": self.cls.key_hex,
            "degenerate": self.degenerate,
            "degenerate_subsets": [list(s) for s in self.degenerate_subsets],
        }


def stratum_label(x: RanPoint) -> StratumLabel:
    """Class of the Cech complex at x plus the degeneracy refinement.

    Both depend on the radius only through its zone among the critical
    radii (:func:`~cechstrat.cech.read_scan`), so the label is built once
    per zone and kept on the configuration's cached scan: later radii in
    the zone cost a reading of the scan and a dictionary lookup.
    """
    scan = subset_radii(x.config)
    return _zone_label(scan, read_scan(scan, x.radius))


def _zone_label(scan: Scan, zone: Zone) -> StratumLabel:
    """The label of every radius in ``zone`` of an uncapped ``scan``: the
    class of the Cech complex of the zone's spanned prefix ``hi``
    (:meth:`~cechstrat.cech.Scan.complex`, shared with
    :func:`~cechstrat.cech.cech_complex`) and the zone's critical subsets,
    which also read ``lo``: one label per zone, one complex per prefix."""
    label = scan.labels.get(zone)
    if label is None:
        degenerate = sorted(map(vertices_of, scan.critical_masks(zone)), key=lambda t: (len(t), t))
        label = scan.labels[zone] = StratumLabel(canonical_form(scan.complex(zone.hi)),
                                                 tuple(degenerate))
    return label


# --------------------------------------------------------------------------
# Monte-Carlo frontier checking

#: sup-radius of the first probe ball around a candidate, in parameter units
_PROBE_RADIUS = 0.05
#: shrinking probe balls around a boundary candidate, each a quarter of the last
_LEVELS = 8
#: family points sampled per probe ball
_PROBES_PER_LEVEL = 60


@dataclass(frozen=True)
class ParametricFamily:
    """Sampling window into the space of configuration-radius pairs.

    ``realize`` maps a parameter vector from the box [lower, upper] to a
    RanPoint; ``anchors`` are parameter points always tried as boundary
    witness candidates (random sampling almost surely misses measure-zero
    boundary strata).  Probe steps in parameter space are taken at the
    probe radius, assuming roughly unit Lipschitz realization per
    coordinate.
    """

    lower: tuple[float, ...]
    upper: tuple[float, ...]
    realize: Callable[[tuple[float, ...]], RanPoint]
    anchors: tuple[tuple[float, ...], ...] = ()

    def sample(self, rng: random.Random) -> tuple[float, ...]:
        return tuple(rng.uniform(lo, hi) for lo, hi in zip(self.lower, self.upper))

    def clip(self, theta: Sequence[float]) -> tuple[float, ...]:
        return tuple(
            min(max(t, lo), hi) for t, lo, hi in zip(theta, self.lower, self.upper)
        )


@dataclass(frozen=True)
class FrontierReport:
    """Outcome of a sampled frontier-condition check for a stratum pair."""

    label_a: StratumLabel
    label_b: StratumLabel
    verdict: Literal["violated", "satisfied-at-budget", "inconclusive"]
    refined: bool
    samples_a: int
    samples_b: int
    boundary_witness: RanPoint | None = None
    interior_witness: RanPoint | None = None
    note: str = ""
    params: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        witnesses = {}
        if self.boundary_witness is not None:
            witnesses["boundary"] = self.boundary_witness.to_json_dict()
        if self.interior_witness is not None:
            witnesses["interior"] = self.interior_witness.to_json_dict()
        return {
            "pair": [self.label_a.to_json_dict(), self.label_b.to_json_dict()],
            "verdict": self.verdict,
            "refined": self.refined,
            "samples": {"a": self.samples_a, "b": self.samples_b},
            "witnesses": witnesses,
            "note": self.note,
            "params": dict(self.params),
        }


def _label_matches(label: StratumLabel, ref: StratumLabel, refined: bool) -> bool:
    if label.cls.key != ref.cls.key:
        return False
    return label.degenerate == ref.degenerate if refined else True


def _probe_near(family: ParametricFamily, theta: tuple[float, ...], center: RanPoint,
                radius: float, rng: random.Random) -> list[StratumLabel]:
    """Labels of family points sampled within the sup-ball around ``center``."""
    out = []
    for _ in range(_PROBES_PER_LEVEL):
        cand = family.clip(tuple(t + rng.uniform(-radius, radius) for t in theta))
        try:
            y = family.realize(cand)
        except ValueError:
            continue
        if sup_distance(y, center) < radius:
            out.append(stratum_label(y))
    return out


def frontier_check(
    family: ParametricFamily,
    label_a: StratumLabel,
    label_b: StratumLabel,
    n_samples: int = 2000,
    refined: bool = False,
    seed: int = 0,
) -> FrontierReport:
    """Monte-Carlo check of the frontier condition for a stratum pair.

    Looks for (i) a boundary witness: a stratum-b point whose ``_LEVELS``
    shrinking sup-balls, from ``_PROBE_RADIUS`` down by quarters, all
    contain stratum-a points, i.e. evidence it lies in the closure of
    stratum a; and (ii) an interior witness: a stratum-b point whose probe
    ball of radius ``_PROBE_RADIUS`` contains no stratum-a point.  Both
    found means the closure of stratum a meets stratum b without containing
    it: verdict "violated".  Sampling that cannot populate the strata at
    all yields "inconclusive" rather than a pass; ``n_samples`` must be at
    least 1.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    rng = random.Random(seed)
    params = {
        "n_samples": n_samples,
        "probe_radius": _PROBE_RADIUS,
        "levels": _LEVELS,
        "probes_per_level": _PROBES_PER_LEVEL,
        "seed": seed,
    }

    def report(verdict, note="", boundary=None, interior=None, na=0, nb=0):
        return FrontierReport(
            label_a, label_b, verdict, refined, na, nb,
            boundary_witness=boundary, interior_witness=interior,
            note=note, params=params,
        )

    if _label_matches(label_a, label_b, refined):
        return report("satisfied-at-budget", note="identical labels: condition is trivial")

    if label_a.cls.key != label_b.cls.key:
        if dominates(label_a.cls.canonical, label_b.cls.canonical) is None:
            return report(
                "satisfied-at-budget",
                note="stratum b is not below stratum a: condition is vacuous",
            )

    samples: list[tuple[tuple[float, ...], RanPoint, StratumLabel]] = []
    for _ in range(n_samples):
        theta = family.sample(rng)
        try:
            point = family.realize(theta)
        except ValueError:
            continue
        samples.append((theta, point, stratum_label(point)))
    a_hits = [s for s in samples if _label_matches(s[2], label_a, refined)]
    b_hits = [s for s in samples if _label_matches(s[2], label_b, refined)]
    if not a_hits or not b_hits:
        return report(
            "inconclusive",
            note="sampling budget exhausted without populating both strata",
            na=len(a_hits), nb=len(b_hits),
        )

    # Boundary candidates: anchors first, then raw b-samples.  Probing is
    # centered on the candidate's own parameters, so candidates must be
    # family points; boundary strata have measure zero, which is what the
    # anchors are for (uniform sampling almost surely misses them).
    candidates: list[tuple[tuple[float, ...], RanPoint]] = []
    for theta in family.anchors:
        try:
            point = family.realize(theta)
        except ValueError:
            continue
        if _label_matches(stratum_label(point), label_b, refined):
            candidates.append((theta, point))
    for theta, point, _ in b_hits[:40]:
        candidates.append((theta, point))

    boundary_witness = None
    for theta, z in candidates:
        ok = True
        for k in range(_LEVELS):
            rho = _PROBE_RADIUS * (4.0 ** (-k))
            found = any(
                _label_matches(lbl, label_a, refined)
                for lbl in _probe_near(family, theta, z, rho, rng)
            )
            if not found:
                ok = False
                break
        if ok:
            boundary_witness = z
            break

    interior_witness = None
    for theta, z, _ in b_hits:
        labels = _probe_near(family, theta, z, _PROBE_RADIUS, rng)
        if len(labels) < _PROBES_PER_LEVEL // 2:
            continue
        if not any(_label_matches(lbl, label_a, refined) for lbl in labels):
            interior_witness = z
            break

    if boundary_witness is not None and interior_witness is not None:
        return report(
            "violated",
            note="closure of stratum a meets stratum b without containing it",
            boundary=boundary_witness, interior=interior_witness,
            na=len(a_hits), nb=len(b_hits),
        )
    if boundary_witness is None:
        note = "no stratum-b point adjacent to stratum a was found"
    else:
        note = "every probed stratum-b point had stratum-a points nearby"
    return report(
        "satisfied-at-budget", note=note,
        boundary=boundary_witness, interior=interior_witness,
        na=len(a_hits), nb=len(b_hits),
    )


def two_point_line_family() -> ParametricFamily:
    """Configurations {0, x} on the line with a free radius.

    The standard demonstration family: the two-point stratum accumulates
    on the edge stratum at the critical radius x/2, where the coarse
    labeling fails the frontier condition.
    """

    def realize(theta: tuple[float, ...]) -> RanPoint:
        x, r = theta
        return RanPoint(PointConfig(1, ((0.0,), (x,))), r)

    return ParametricFamily(
        lower=(0.7, 0.2),
        upper=(1.3, 0.9),
        realize=realize,
        anchors=((1.0, 0.5), (1.0, 0.6)),
    )
