"""Piecewise-linear paths of point configurations and their zigzags.

A path is a bundle of labeled tracks over shared breakpoints plus a
piecewise-linear radius.  Tracks may merge (and must then stay merged to
the end of the segment), so the induced configuration path is well
defined.  Transition instants are located by scanning and bisection; each
instant gets entrance maps from both neighboring intervals, assembling a
zigzag of vertex-surjective simplicial maps.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from dataclasses import dataclass, field

from .cech import Filtration, cech_complex
from .complexes import (
    IsoClass,
    SimplicialComplex,
    SimplicialMap,
    compose,
    identity_map,
    is_simplicial,
)
from .geometry import _MAX_DIM, DELTA_PT, PointConfig, RanPoint
from .scposet import dominates
from .strat import StratumLabel, local_map, stratum_label

_BRACKET_FLOOR = 1e-13

#: evenly spaced label checks that ``entrance_map`` makes on its stretch
_CONSTANCY_SAMPLES = 32

#: radius interpolation error of ``cech_path`` on each full step before ``t_max``
_CECH_PATH_TOL = 1e-6


@dataclass(frozen=True)
class PLPath:
    """Track bundle: k piecewise-linear maps [0,1] -> R^dim (1 <= dim <= 16)
    over shared breakpoints, plus a piecewise-linear nonnegative radius.

    Tracks that come within the dedupe tolerance inside a segment must
    remain within it until the segment ends (merges are allowed anywhere,
    splits only at breakpoints), keeping the configuration path and its
    track-to-vertex assignment well defined.

    Construction converts and checks each waypoint in one pass per track
    and collects in one set the segments where some track moves.  A
    waypoint that is the same object as the one before it reuses that
    conversion, so a still track (as ``cech_path`` builds them) is checked
    once and holds one tuple.  A run of segments where no track moves is a
    still stretch: its configuration and track assignment are built once
    and shared by every evaluation on it; only the radius varies.
    """

    dim: int
    breakpoints: tuple[float, ...]
    tracks: tuple[tuple[tuple[float, ...], ...], ...]
    radius: tuple[float, ...]
    #: per segment, the configuration and track assignment shared along its
    #: still stretch, or None on a segment where some track moves
    _still: tuple[tuple[PointConfig, tuple[int, ...]] | None, ...] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 1 <= self.dim <= _MAX_DIM:
            raise ValueError(f"dim must be in 1..{_MAX_DIM}, got {self.dim}")
        bp = tuple(map(float, self.breakpoints))
        radius = tuple(map(float, self.radius))
        for what, values in (("breakpoint", bp), ("radius", radius)):
            for v in values:
                if not math.isfinite(v):
                    raise ValueError(f"{what} {v} is not finite")
        if len(bp) < 2 or bp[0] != 0.0 or bp[-1] != 1.0:
            raise ValueError("breakpoints must run from 0.0 to 1.0")
        if any(a >= b for a, b in zip(bp, bp[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        if not self.tracks:
            raise ValueError("at least one track is required")
        tracks, moves = [], set()
        for tr in self.tracks:
            waypoints, last = [], None
            for p in tr:
                if not waypoints or p is not last:
                    q, last = tuple(map(float, p)), p
                    if len(q) != self.dim:
                        raise ValueError(f"waypoint {q} does not have dimension {self.dim}")
                    if not all(map(math.isfinite, q)):
                        raise ValueError(f"waypoint {q} is not finite")
                    if waypoints and q != waypoints[-1]:
                        moves.add(len(waypoints) - 1)
                waypoints.append(q)
            if len(waypoints) != len(bp):
                raise ValueError("each track needs one waypoint per breakpoint")
            tracks.append(tuple(waypoints))
        if len(radius) != len(bp):
            raise ValueError("radius needs one value per breakpoint")
        if any(r < 0.0 for r in radius):
            raise ValueError("radius must be nonnegative")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "tracks", tuple(tracks))
        object.__setattr__(self, "radius", radius)
        self._check_merge_persistence(sorted(moves))
        still: list[tuple[PointConfig, tuple[int, ...]] | None] = []
        for seg in range(len(bp) - 1):
            if seg in moves:
                still.append(None)
            elif not still or still[-1] is None:
                # the interpolation formula turns a -0.0 coordinate into +0.0
                still.append(_dedupe(self.dim, [tuple(c + 0.0 for c in tr[seg])
                                                for tr in self.tracks]))
            else:
                still.append(still[-1])
        object.__setattr__(self, "_still", tuple(still))

    def _check_merge_persistence(self, moving: list[int]):
        """One sweep over each pair's offsets, one offset per breakpoint,
        on the segments where some track moves (``moving``, in order).

        A segment is rejected when both its ends keep the pair farther
        apart than ``DELTA_PT`` but the distance dips within it inside:
        the distance is convex along the segment, so it is least at the
        projection parameter u when u lies in (0, 1).  A segment whose
        offset does not change keeps a constant distance, so its ends
        decide it (``denom == 0.0``); every segment where neither track of
        the pair moves is one, so one set for all tracks is exact.  The
        first violation in (segment, pair) order is reported.
        """
        touches = []
        for i, j in itertools.combinations(range(len(self.tracks)), 2):
            ti, tj = self.tracks[i], self.tracks[j]
            for seg in moving:
                a = tuple(map(operator.sub, ti[seg], tj[seg]))
                b = tuple(map(operator.sub, ti[seg + 1], tj[seg + 1]))
                diff = tuple(map(operator.sub, b, a))
                denom = sum(map(operator.mul, diff, diff))
                if denom == 0.0 or math.hypot(*a) <= DELTA_PT or math.hypot(*b) <= DELTA_PT:
                    continue
                u = -sum(map(operator.mul, a, diff)) / denom
                if not 0.0 < u < 1.0:
                    continue
                if math.hypot(*(aa + u * x for aa, x in zip(a, diff))) <= DELTA_PT:
                    touches.append((seg, i, j))
                    break
        if touches:
            seg, i, j = min(touches)
            raise ValueError(
                f"tracks {i} and {j} touch inside segment {seg} but "
                "separate before its end; merges must persist and "
                "splits are only allowed at breakpoints"
            )

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "breakpoints": list(self.breakpoints),
            "tracks": [[list(p) for p in tr] for tr in self.tracks],
            "radius": list(self.radius),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "PLPath":
        return cls(int(data["dim"]), data["breakpoints"], data["tracks"], data["radius"])


def _evaluate_tracks(path: PLPath, t: float) -> tuple[RanPoint, tuple[int, ...]]:
    """Configuration at time t plus the track -> vertex assignment.

    On a still stretch both are the ones built with the path; elsewhere
    the tracks are interpolated and coincident ones merged.
    """
    if not (0.0 <= t <= 1.0):
        raise ValueError(f"path parameter {t} outside [0, 1]")
    bp = path.breakpoints
    seg = min(bisect.bisect_right(bp, t), len(bp) - 1) - 1
    u = (t - bp[seg]) / (bp[seg + 1] - bp[seg])
    radius = path.radius[seg] + u * (path.radius[seg + 1] - path.radius[seg])
    shared = path._still[seg]
    if shared is None:
        config, assignment = _dedupe(path.dim, [
            tuple(aa + u * (bb - aa) for aa, bb in zip(tr[seg], tr[seg + 1]))
            for tr in path.tracks])
    else:
        config, assignment = shared
    return RanPoint(config, max(radius, 0.0)), assignment


def _dedupe(dim: int, positions: list[tuple[float, ...]]) -> tuple[PointConfig, tuple[int, ...]]:
    """Configuration of the track positions, coincident tracks merged by
    union-find, plus the track -> vertex assignment."""
    parent = list(range(len(positions)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(positions)):
        for j in range(i + 1, len(positions)):
            if math.dist(positions[i], positions[j]) <= DELTA_PT:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[max(ri, rj)] = min(ri, rj)
    vertex_of_root: dict[int, int] = {}
    points = []
    assignment = []
    for i in range(len(positions)):
        root = find(i)
        if root not in vertex_of_root:
            vertex_of_root[root] = len(points)
            points.append(positions[root])
        assignment.append(vertex_of_root[root])
    return PointConfig(dim, tuple(points)), tuple(assignment)


def evaluate(path: PLPath, t: float) -> RanPoint:
    """Configuration-radius pair at time t, coincident tracks merged."""
    return _evaluate_tracks(path, t)[0]


def _lower_label(a: StratumLabel, b: StratumLabel):
    """The label dominated by the other, preferring degenerate refinements
    on class ties; None when the two are incomparable."""
    if a.cls.key == b.cls.key:
        if a.degenerate and not b.degenerate:
            return a
        if b.degenerate and not a.degenerate:
            return b
        return a
    # distinct classes never dominate each other both ways: see as_filtration
    if dominates(a.cls.canonical, b.cls.canonical) is not None:
        return b
    if dominates(b.cls.canonical, a.cls.canonical) is not None:
        return a
    return None


def _resolve(label_fn, lo, hi, l_lo, l_hi):
    """Transition events inside a bracket with differing endpoint labels.

    Bisects toward the boundary; a label distinct from both endpoints
    splits the bracket (sub-resolution stratum), otherwise the jump point
    is taken on the side whose label is dominated by the other (the
    entrance-path convention: the instant carries the lower label).
    """
    while hi - lo > _BRACKET_FLOOR:
        mid = 0.5 * (lo + hi)
        if not (lo < mid < hi):
            break
        l_mid = label_fn(mid)
        if l_mid == l_lo:
            lo = mid
        elif l_mid == l_hi:
            hi = mid
        else:
            return _resolve(label_fn, lo, mid, l_lo, l_mid) + _resolve(
                label_fn, mid, hi, l_mid, l_hi
            )
    low = _lower_label(l_lo, l_hi)
    if low is None:
        raise ValueError(
            "transition between incomparable labels: the instant label "
            "dominates neither side"
        )
    return [(lo, l_lo) if low is l_lo else (hi, l_hi)]


def transitions(path: PLPath, resolution: float,
                max_dim: int | None = None) -> list[tuple[float, StratumLabel]]:
    """Instants where the refined stratum label changes, with the label at
    each instant.

    Scans at steps of at most ``resolution`` (label excursions narrower
    than a step between equal labels can be missed), then bisects each
    change down to a bracket of ``_BRACKET_FLOOR``, so that the instant
    lands inside the tolerance band of a degenerate label.  Events closer
    than ``resolution * 1e-3`` are merged into one.  Every reported
    transition is real: the labels on its two sides differ.  A resolution
    below ``_BRACKET_FLOOR`` is refused: a grid step finer than the final
    bracket cannot localise a transition any better.
    """
    if not resolution > 0.0:
        raise ValueError("resolution must be positive")
    if resolution < _BRACKET_FLOOR:
        raise ValueError(f"resolution must be at least {_BRACKET_FLOOR}, "
                         "the width of the bisection's final bracket")

    def label_fn(t: float) -> StratumLabel:
        return stratum_label(evaluate(path, t), max_dim)

    steps = max(1, math.ceil(1.0 / resolution))
    target = resolution * 1e-3
    events: list[tuple[float, StratumLabel]] = []
    t0, l0 = 0.0, label_fn(0.0)
    for k in range(1, steps + 1):
        t1 = k / steps
        l1 = label_fn(t1)
        if l0 != l1:
            events.extend(_resolve(label_fn, t0, t1, l0, l1))
        t0, l0 = t1, l1

    # collapse event clusters inside the localization width: equal labels
    # average out; a dominated neighbor absorbs the higher one (stacked
    # tolerance-band crossings count as one instant at the lowest stratum)
    merged: list[tuple[float, StratumLabel]] = []
    for t, lbl in events:
        if merged and t - merged[-1][0] <= target:
            t0, l0 = merged[-1]
            if l0 == lbl:
                mid = 0.5 * (t0 + t)
                if label_fn(mid) == lbl:
                    merged[-1] = (mid, lbl)
                    continue
            else:
                low = _lower_label(l0, lbl)
                if low is lbl:
                    merged[-1] = (t, lbl)
                    continue
                if low is l0:
                    continue
        merged.append((t, lbl))
    return merged


def _renaming_map(path: PLPath, t_from: float, t_to: float, max_dim) -> SimplicialMap:
    """Vertex renaming induced by following the tracks along a stretch with
    constant label."""
    rp_a, asn_a = _evaluate_tracks(path, t_from)
    rp_b, asn_b = _evaluate_tracks(path, t_to)
    n_a = len(rp_a.config)
    vmap: list[int | None] = [None] * n_a
    for track, v in enumerate(asn_a):
        w = asn_b[track]
        if vmap[v] is None:
            vmap[v] = w
        elif vmap[v] != w:
            raise ValueError(
                f"tracks split between t={t_from} and t={t_to}; label constancy violated"
            )
    if any(v is None for v in vmap):
        raise ValueError("some vertex lost all its tracks; label constancy violated")
    m = SimplicialMap(
        cech_complex(rp_a, max_dim),
        cech_complex(rp_b, max_dim),
        tuple(vmap),  # type: ignore[arg-type]
    )
    if not m.is_vertex_surjective():
        raise ValueError("renaming map is not onto; label constancy violated")
    if not is_simplicial(m):
        raise ValueError("renaming map is not simplicial; label constancy violated")
    return m


def entrance_map(path: PLPath, t_from: float, t_to: float,
                 max_dim: int | None = None) -> SimplicialMap:
    """Simplicial map induced by traversing the path from t_from to t_to.

    Requires the refined label to be constant on the half-open stretch
    [t_from, t_to), spot-checked at ``_CONSTANCY_SAMPLES`` evenly spaced
    times; the label may drop at t_to.
    Built as the track renaming from t_from to tau composed with
    :func:`~cechstrat.strat.local_map` from x(tau) onto x(t_to), where tau
    is the first of t_to - (t_to - t_from)/2^k, k = 1, 2, ..., that lies
    inside the safe ball of x(t_to) (``local_map`` raises ``ValueError``
    until then).  Works in either time direction.
    """
    if not (0.0 <= t_from <= 1.0 and 0.0 <= t_to <= 1.0):
        raise ValueError("path parameters must lie in [0, 1]")
    if t_from == t_to:
        return identity_map(cech_complex(evaluate(path, t_from), max_dim))
    samples = [t_from + (t_to - t_from) * k / _CONSTANCY_SAMPLES
               for k in range(1, _CONSTANCY_SAMPLES)]
    labels = [stratum_label(evaluate(path, t), max_dim) for t in samples]
    l_from = stratum_label(evaluate(path, t_from), max_dim)
    for t, label in zip(samples, labels):
        if label != l_from:
            raise ValueError(
                f"label is not constant on [{t_from}, {t_to}): changes near t={t}"
            )
    end = evaluate(path, t_to)
    h = t_to - t_from
    for _ in range(80):
        h *= 0.5
        tau = t_to - h
        if tau == t_to:
            break
        try:
            snap = local_map(evaluate(path, tau), end, max_dim)
        except ValueError:  # x(tau) is not inside the safe ball yet
            continue
        return compose(_renaming_map(path, t_from, tau, max_dim), snap)
    raise ValueError(
        "terminal stretch cannot fit inside the safe ball at the requested resolution"
    )


@dataclass(frozen=True)
class ZigzagDiagram:
    """Alternating intervals and transition instants along a path.

    For transition k the stored pair of maps points from the two
    neighboring interval complexes into the instant complex; every stored
    map is simplicial and vertex-surjective, so each interval class
    dominates the adjacent transition class.
    """

    times: tuple[float, ...]
    interval_classes: tuple[StratumLabel, ...]
    transition_classes: tuple[StratumLabel, ...]
    maps: tuple[tuple[SimplicialMap, SimplicialMap], ...]

    def __post_init__(self):
        q = len(self.times)
        if len(self.transition_classes) != q or len(self.maps) != q:
            raise ValueError("one transition class and map pair per instant")
        if len(self.interval_classes) != q + 1:
            raise ValueError("need one more interval class than instants")
        for left, right in self.maps:
            for m in (left, right):
                if not is_simplicial(m) or not m.is_vertex_surjective():
                    raise ValueError("zigzag maps must be simplicial and vertex-surjective")

    def to_json_dict(self) -> dict:
        return {
            "times": list(self.times),
            "interval_classes": [lbl.to_json_dict() for lbl in self.interval_classes],
            "transition_classes": [lbl.to_json_dict() for lbl in self.transition_classes],
            "maps": [
                {"left": left.to_json_dict(), "right": right.to_json_dict()}
                for left, right in self.maps
            ],
        }


def zigzag(path: PLPath, resolution: float, max_dim: int | None = None) -> ZigzagDiagram:
    """Zigzag of simplicial maps along a path.

    Interval classes are sampled at interval midpoints; each transition
    instant receives entrance maps from both sides.  A transition at an
    endpoint of the path degenerates its outer interval to the instant
    itself (identity map).
    """
    events = transitions(path, resolution, max_dim)
    times = [t for t, _ in events]
    bounds = [0.0] + times + [1.0]
    interval_classes: list[StratumLabel] = []
    mids: list[float | None] = []
    for a, b in zip(bounds, bounds[1:]):
        if b - a > 2.0 * _BRACKET_FLOOR:
            mid = 0.5 * (a + b)
            mids.append(mid)
            interval_classes.append(stratum_label(evaluate(path, mid), max_dim))
        else:
            mids.append(None)
            # zero-width outer interval: the instant is the whole interval
            idx = len(interval_classes)
            lbl = events[idx][1] if idx < len(events) else events[-1][1]
            interval_classes.append(lbl)
    map_pairs = []
    for k, (t_star, _) in enumerate(events):
        # a zero-width outer interval enters its instant by the identity
        left, right = (entrance_map(path, t_star if mid is None else mid, t_star, max_dim)
                       for mid in mids[k:k + 2])
        map_pairs.append((left, right))
    return ZigzagDiagram(
        tuple(times),
        tuple(interval_classes),
        tuple(lbl for _, lbl in events),
        tuple(map_pairs),
    )


@dataclass(frozen=True)
class ChainFiltration:
    """Totally ordered class sequence with vertex-bijective connecting maps."""

    classes: tuple[IsoClass, ...]
    maps: tuple[SimplicialMap, ...]


def as_filtration(z: ZigzagDiagram) -> ChainFiltration | None:
    """Reads a zigzag as a filtration of one complex when possible.

    Succeeds when every interval and transition class has the same vertex
    count (no merges) and the classes are pairwise comparable; the chain
    runs from the most dominant class downward with vertex-bijective
    witnesses.  Returns None otherwise.

    With equal vertex counts a witness is a vertex bijection, so it is
    injective on simplices: a class dominates only classes with strictly
    more simplices, and a witness between equal counts would be an
    isomorphism.  So the chain, if there is one, is the distinct classes
    by simplex count, and one witness per consecutive pair proves it; the
    other pairs follow by transitivity.
    """
    classes = {lbl.cls.key: lbl.cls for lbl in z.interval_classes + z.transition_classes}
    if len({cls.n_vertices for cls in classes.values()}) != 1:
        return None
    chain = sorted(classes.values(), key=lambda c: len(c.canonical.masks))
    maps = []
    for hi, lo in zip(chain, chain[1:]):
        witness = dominates(hi.canonical, lo.canonical)
        if witness is None:
            return None
        maps.append(witness)
    return ChainFiltration(tuple(chain), tuple(maps))


def cech_path(config: PointConfig, t_max: float) -> PLPath:
    """Stationary-configuration path whose radius grows like t/(1-t).

    With u = (1-t)^(-1/2) the radius is u^2 - 1, and its chord between u_a
    and u_b lies above it by at most (u_b - u_a)^2, reached at
    u = sqrt(u_a * u_b).  The breakpoints sit at u = 1 + k*sqrt(tol)
    (tol = ``_CECH_PATH_TOL``, 1e-6) below ``t_max`` (< 1), then at
    ``t_max``: the interpolation error is exactly tol on every full step
    and less on the last one.  The radius is held after ``t_max``, so the
    label sequence up to ``t_max`` matches the filtration of the
    configuration below radius ``t_max/(1-t_max)``.
    """
    if not (0.0 < t_max < 1.0):
        raise ValueError("t_max must lie strictly between 0 and 1")
    step = math.sqrt(_CECH_PATH_TOL)
    steps = math.ceil(((1.0 - t_max) ** -0.5 - 1.0) / step) + 1
    ts = [t for t in (1.0 - (1.0 + k * step) ** -2 for k in range(steps)) if t < t_max]
    ts.append(t_max)
    radii = [t / (1.0 - t) for t in ts]
    ts.append(1.0)
    radii.append(radii[-1])
    tracks = tuple((p,) * len(ts) for p in config.points)
    return PLPath(config.dim, tuple(ts), tracks, tuple(radii))


def reversed_path(path: PLPath) -> PLPath:
    """The same path traversed backwards."""
    bp = tuple(1.0 - t for t in reversed(path.breakpoints))
    tracks = tuple(tuple(reversed(tr)) for tr in path.tracks)
    return PLPath(path.dim, bp, tracks, tuple(reversed(path.radius)))
