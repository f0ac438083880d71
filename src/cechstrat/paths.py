"""Piecewise-linear paths of point configurations and their zigzags.

A path is a bundle of labeled tracks over shared breakpoints plus a
piecewise-linear radius.  Tracks may merge (and must then stay merged to
the end of the segment), so the induced configuration path is well
defined.  On a still stretch, where no track moves, the label is a
function of the zone of the radius in the configuration's one scan, so
its transitions are found exactly, whatever the resolution: the zone
changes at the first float at which the radius that :func:`evaluate`
reads passes an edge of the tolerance band of a scan radius, and a
passage through a band is one instant, at the time the radius meets the
critical radius, found by one division.  Where tracks move, transitions are
located on a grid of steps at most the resolution and by bisection.  Each
instant gets entrance maps from both neighboring intervals, assembling a
zigzag of vertex-surjective simplicial maps.  An entrance map is certified,
then stepped: the label is checked once on the whole interval up to the
instant, then the tracks are followed to the float beside the instant and
one local map snaps them onto it, refusing where that float lies outside
the instant's safe ball.  Each still stretch has one record, made once
per path by one walk over its segments: its zone-edge crossings, the zone
of each piece between them and the marks where an instant may lie.  Its
transitions are read off the record, and so is the certification of its
maps: every zone read on the stretch is one bisection of the crossings.
The map is the renaming by the stretch's one track assignment, from the
complex at the start into the instant's: the local map itself where the
float beside the instant spans what the start spans, else checked once.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from dataclasses import dataclass, field

from . import _json
from .cech import Zone, cech_complex, read_scan, subset_radii
from .complexes import (
    IsoClass,
    SimplicialMap,
    compose,
    identity_map,
    is_simplicial,
)
from .geometry import _MAX_DIM, DELTA_PT, PointConfig, RanPoint
from .scposet import dominates
from .strat import StratumLabel, _zone_label, local_map, stratum_label

_BRACKET_FLOOR = 1e-13

#: an interval no wider than this, two final brackets, is just the instant
#: that bounds it
_POINT_WIDTH = 2.0 * _BRACKET_FLOOR

#: evenly spaced label checks that ``entrance_map`` makes where tracks move
_CONSTANCY_SAMPLES = 32

_INCOMPARABLE = ("transition between incomparable labels: the instant label "
                 "dominates neither side")

#: on a still stretch, zone edge crossings closer in time than this, with
#: the radius inside a tolerance band between them, are one instant; a
#: radius that changes by at least 2e-4 per unit time passes a band in less
_INSTANT_WIDTH = 1e-5

#: the largest ``t_max`` of a growth path, a radius of 9,999: near t = 1
#: one float step of time spans about 1.1e-16 (1 + r)^2 of radius, 1.1e-8
#: here, and radii closer than that share a time
_CECH_PATH_T_MAX = 1.0 - 1e-4


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
    conversion, so a track that stands still as one object holds one
    tuple.  A run of segments where no track moves is a still stretch: its
    configuration and track assignment are built once, from the gaps
    between moving segments, and shared by every evaluation on it; only
    the radius varies.  Construction scans no configuration: a stretch's
    record of the times at which the zone of the radius in its scan
    changes, and of where an instant may lie, is walked by the first
    reader that needs it.
    """

    dim: int
    breakpoints: tuple[float, ...]
    tracks: tuple[tuple[tuple[float, ...], ...], ...]
    radius: tuple[float, ...]
    #: per segment, the configuration and track assignment shared along its
    #: still stretch, or None on a segment where some track moves
    _still: tuple[tuple[PointConfig, tuple[int, ...]] | None, ...] = field(
        init=False, repr=False, compare=False)
    #: per segment of a still stretch, the stretch's one record: the times
    #: at which its zone changes, the zone of each piece between them and
    #: the marks where an instant may lie (:func:`_stretch_walk`), walked by
    #: the first reader and kept for every segment of the stretch
    _walks: dict[int, tuple[list[float], list[Zone], list[float]]] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 1 <= self.dim <= _MAX_DIM:
            raise ValueError(f"dim must be in 1..{_MAX_DIM}, got {self.dim}")
        bp = tuple(map(float, self.breakpoints))
        radius = tuple(map(float, self.radius))
        for what, values in (("breakpoint", bp), ("radius", radius)):
            if not all(map(math.isfinite, values)):
                v = next(v for v in values if not math.isfinite(v))
                raise ValueError(f"{what} {v} is not finite")
        if len(bp) < 2 or bp[0] != 0.0 or bp[-1] != 1.0:
            raise ValueError("breakpoints must run from 0.0 to 1.0")
        if not all(map(operator.lt, bp, bp[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        if not self.tracks:
            raise ValueError("at least one track is required")

        def waypoint(p) -> tuple[float, ...]:
            q = tuple(map(float, p))
            if len(q) != self.dim:
                raise ValueError(f"waypoint {q} does not have dimension {self.dim}")
            if not all(map(math.isfinite, q)):
                raise ValueError(f"waypoint {q} is not finite")
            return q

        tracks, moves = [], set()
        for tr in self.tracks:
            waypoints, last = [], None
            for p in tr:
                if not waypoints or p is not last:
                    q, last = waypoint(p), p
                    if waypoints and q != waypoints[-1]:
                        moves.add(len(waypoints) - 1)
                waypoints.append(q)
            if len(waypoints) != len(bp):
                raise ValueError("each track needs one waypoint per breakpoint")
            tracks.append(tuple(waypoints))
        if len(radius) != len(bp):
            raise ValueError("radius needs one value per breakpoint")
        if min(radius) < 0.0:
            raise ValueError("radius must be nonnegative")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "tracks", tuple(tracks))
        object.__setattr__(self, "radius", radius)
        moving = sorted(moves)
        self._check_merge_persistence(moving)
        # the gaps between moving segments are the still stretches
        n_seg = len(bp) - 1
        still: list[tuple[PointConfig, tuple[int, ...]] | None] = [None] * n_seg
        first = 0
        for seg in (*moving, n_seg):
            if seg > first:
                # the interpolation formula turns a -0.0 coordinate into +0.0
                shared = _dedupe(self.dim, [tuple(c + 0.0 for c in tr[first]) for tr in tracks])
                still[first:seg] = itertools.repeat(shared, seg - first)
            first = seg + 1
        object.__setattr__(self, "_still", tuple(still))
        object.__setattr__(self, "_walks", {})

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
        fmt = "path JSON"
        dim, breakpoints, tracks, radius = _json.fields(
            data, fmt, "dim", "breakpoints", "tracks", "radius")
        for track in _json.array(tracks, fmt, '"tracks"'):
            for waypoint in _json.array(track, fmt, "a track"):
                _json.numbers(waypoint, fmt, "a waypoint")
        return cls(_json.integer(dim, fmt, '"dim"'), _json.numbers(breakpoints, fmt, '"breakpoints"'),
                   tracks, _json.numbers(radius, fmt, '"radius"'))


def _place(path: PLPath, t: float) -> tuple[int, float]:
    """The segment that time t lies in and the fraction u of it before t."""
    if not (0.0 <= t <= 1.0):
        raise ValueError(f"path parameter {t} outside [0, 1]")
    bp = path.breakpoints
    seg = min(bisect.bisect_right(bp, t), len(bp) - 1) - 1
    return seg, (t - bp[seg]) / (bp[seg + 1] - bp[seg])


def _lerp(u: float, a: float, b: float) -> float:
    """The value a fraction u of the way from a to b.  u == 1 reads b
    itself, which interpolation can miss by an ulp; + 0.0 turns -0.0 into
    +0.0, as interpolation does."""
    return b + 0.0 if u == 1.0 else a + u * (b - a)


def _radius_at(path: PLPath, seg: int, u: float) -> float:
    """The radius a fraction u into segment ``seg`` (:func:`_place`): the
    radius of :func:`evaluate`, which still-stretch zone reads take without
    building a configuration."""
    return max(_lerp(u, path.radius[seg], path.radius[seg + 1]), 0.0)


def _evaluate_tracks(path: PLPath, t: float) -> tuple[RanPoint, tuple[int, ...]]:
    """Configuration at time t plus the track -> vertex assignment.

    On a still stretch both are the ones built with the path; elsewhere
    the tracks are interpolated and coincident ones merged.
    """
    seg, u = _place(path, t)
    shared = path._still[seg]
    if shared is None:
        positions = [tuple(_lerp(u, a, b) for a, b in zip(tr[seg], tr[seg + 1]))
                     for tr in path.tracks]
        config, assignment = _dedupe(path.dim, positions)
    else:
        config, assignment = shared
    return RanPoint(config, _radius_at(path, seg, u)), assignment


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
    # distinct classes never dominate each other both ways: by the rules in
    # dominates, that takes equal vertex and simplex counts, so an isomorphism
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
        raise ValueError(_INCOMPARABLE)
    return [(lo, l_lo) if low is l_lo else (hi, l_hi)]


class Instant(tuple):
    """A transition as the pair (t, label), which also keeps the instant's
    extent [``lo``, ``hi``]: on a still stretch the crossings it joins and
    its time t, elsewhere t alone."""

    lo: float
    hi: float

    def __new__(cls, t: float, label: StratumLabel, lo: float, hi: float):
        instant = super().__new__(cls, (t, label))
        instant.lo, instant.hi = lo, hi
        return instant


def transitions(path: PLPath, resolution: float) -> list[Instant]:
    """Instants where the refined stratum label changes, with the label at
    each instant, as :class:`Instant` pairs.

    On a still stretch the instants are exact and the resolution plays no
    part (see :func:`_still_events`).  Where tracks move, labels are taken
    at steps of at most ``resolution`` (label excursions narrower than a
    step between equal labels can be missed there), then each change is
    bisected down to a bracket of ``_BRACKET_FLOOR``, so that the instant
    lands inside the tolerance band of a degenerate label; events closer
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
    steps = max(1, math.ceil(1.0 / resolution))
    bp = path.breakpoints
    events: list[Instant] = []
    first = 0
    # a run of segments sharing one configuration is a still stretch
    for shared, run in itertools.groupby(path._still):
        last = first + len(list(run))
        if shared is None:
            events.extend(Instant(t, label, t, t) for t, label in
                          _grid_events(path, bp[first], bp[last], steps, resolution * 1e-3))
        else:
            events.extend(_still_events(path, first, last))
        first = last
    return events


def _grid_events(path: PLPath, t_start: float, t_end: float, steps: int,
                 target: float) -> list[tuple[float, StratumLabel]]:
    """Transitions in [t_start, t_end] from labels at t_start, the times
    k/steps between and t_end, each change bisected, clusters merged."""

    def label_fn(t: float) -> StratumLabel:
        return stratum_label(evaluate(path, t))

    def grid():
        k = math.floor(t_start * steps) + 1
        while (t := k / steps) < t_end:
            if t > t_start:
                yield t
            k += 1
        yield t_end

    events: list[tuple[float, StratumLabel]] = []
    t0, l0 = t_start, label_fn(t_start)
    for t1 in grid():
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


def _stretch_walk(path: PLPath, seg: int) -> tuple[list[float], list[Zone], list[float]]:
    """The record of the whole still stretch that holds segment ``seg``,
    made by its first reader in one walk over the stretch's segments and
    kept on the path for each of them: its crossings, the times, ascending,
    at which the zone of the radius changes; the zone of each piece they
    cut the stretch into, one more than the crossings; and its marks, the
    times, ascending, at which :func:`_still_events` may put an instant.

    A segment crosses the band edges of the scan (its ``lower`` and
    ``upper``) between the zones of its two end radii, each read by
    :func:`~cechstrat.cech.read_scan`: a lower edge l is passed where the
    radius is at least l, an upper edge u where it is above u, so a radius
    in zone (lo, hi) has passed lo upper and hi lower edges.  Each crossing
    is the first float of the segment at which the radius that
    :func:`evaluate` reads is past the edge (:func:`_first_past`), so the
    zone is constant from one crossing up to the float before the next, and
    each piece's zone is read once, at its first float: the stretch's first
    breakpoint or a crossing.

    The marks are the stretch's end, each breakpoint where the radius turns
    between rising, falling and holding (the first segment counts as
    turned), and each time at which the radius meets a scan radius, found
    by one division: a rising segment meets the scan radii above its start
    radius up to and including its end radius, a falling one those below
    it down to and including its end radius, and a turned one its start
    radius too, so a scan radius met where the radius turns is met twice.
    """
    walk = path._walks.get(seg)
    if walk is None:
        still, shared = path._still, path._still[seg]
        first, last = seg, seg + 1
        while first > 0 and still[first - 1] is shared:
            first -= 1
        while last < len(still) and still[last] is shared:
            last += 1
        scan = subset_radii(shared[0])
        lower, upper, radii = scan.lower, scan.upper, scan.radii
        bp, radius = path.breakpoints, path.radius
        left, right = bisect.bisect_left, bisect.bisect_right
        # the zone at each breakpoint: the upper and the lower edges passed
        passed = [read_scan(scan, r) for r in radius[first:last + 1]]
        crossings, marks, before = [], [bp[last]], None
        for s, ((u0, l0), (u1, l1)) in enumerate(zip(passed, passed[1:]), first):
            r0, r1, t0, t1 = radius[s], radius[s + 1], bp[s], bp[s + 1]
            trend = (r0 < r1) - (r0 > r1)
            turned, before = trend != before, trend
            if turned:
                marks.append(t0)
            # the end radius is always met, the start radius where the trend turned
            if trend > 0:
                met = radii[(left if turned else right)(radii, r0):right(radii, r1)]
            elif trend < 0:
                met = radii[left(radii, r1):(right if turned else left)(radii, r0)]
            else:
                met = ()
            marks += (t1 if v == r1 else min(t0 + (v - r0) / (r1 - r0) * (t1 - t0), t1)
                      for v in met)
            # the nearest float on the end's side of each edge crossed, once
            if u0 < u1 or l0 < l1:
                values = {*lower[l0:l1], *(math.nextafter(u, math.inf) for u in upper[u0:u1])}
            elif u0 > u1 or l0 > l1:
                values = {*(math.nextafter(v, -math.inf) for v in lower[l1:l0]), *upper[u1:u0]}
            else:
                continue
            crossings += sorted({_first_past(t0, t1, r0, r1, v) for v in values})
        zones = [read_scan(scan, _radius_at(path, *_place(path, t)))
                 for t in (bp[first], *crossings)]
        walk = crossings, zones, sorted(marks)
        path._walks.update(dict.fromkeys(range(first, last), walk))
    return walk


def _first_past(t0: float, t1: float, r0: float, r1: float, value: float) -> float:
    """The first float of (t0, t1] at which the radius of the segment from
    (t0, r0) to (t1, r1), as :func:`evaluate` reads it, is at least
    ``value`` on a rise, or at most ``value`` on a fall: a gallop by
    doubling steps from where the line meets ``value``, strictly inside the
    segment, until a step leaves the bracket it has found, then bisection."""
    rises = r0 < r1
    lo, hi = t0, t1
    t = t0 + (value - r0) / (r1 - r0) * (t1 - t0)
    t = min(max(t, math.nextafter(t0, t1)), math.nextafter(t1, t0))
    step = math.ulp(t)
    while lo < t < hi:
        r = max(_lerp((t - t0) / (t1 - t0), r0, r1), 0.0)
        if r >= value if rises else r <= value:
            hi, t = t, t - step
        else:
            lo, t = t, t + step
        step *= 2.0
        if not lo < t < hi:
            # the step left the bracket: bisect it from here on
            t, step = 0.5 * (lo + hi), 0.0
    return hi


def _zone_at(path: PLPath, seg: int, t: float) -> Zone:
    """The zone of the radius at time t on the still stretch that holds
    segment ``seg``: that of the piece of its record (:func:`_stretch_walk`)
    that holds t, by one bisection of its crossings, which is the zone that
    :func:`~cechstrat.cech.read_scan` reads at t."""
    crossings, zones, _ = _stretch_walk(path, seg)
    return zones[bisect.bisect_right(crossings, t)]


def _still_events(path: PLPath, first: int, last: int) -> list[Instant]:
    """Exact transitions of the still stretch over breakpoints first..last.

    Everything is read off the stretch's one record (:func:`_stretch_walk`,
    kept on the path for its entrance maps).  The label is a function of
    the zone of the radius in the stretch's one scan, so it can change only
    at a crossing of the record: the first float at which the radius that
    :func:`evaluate` reads passes an edge of a tolerance band
    (:func:`~cechstrat.cech.read_scan`).  The crossings cut the stretch
    into pieces of one zone each, which the record keeps, so the zone at
    any time of the stretch is one bisection of them (:func:`_zone_at`).
    Crossings less than ``_INSTANT_WIDTH`` apart with the radius inside a
    tolerance band between them, such as the way in and out of the band
    of a radius the path passes, make one instant, which takes in a
    stretch end as near whose piece is inside a band; a longer stay inside
    a band is an interval between two instants.

    Only the instants and the piece between each two are labelled, each
    side by the zone of its piece.  The record's marks are where an
    instant may lie: where the radius meets a scan radius, by division,
    where it turns between rising, falling and holding, and the stretch's
    end.  An instant lies at the mark inside it with the lowest label; a
    lone crossing into or out of a longer stay has none, and its instant
    lies on the side of the lower label: at the crossing, or at the float
    before it.  Each instant is compared with both sides by
    :func:`_lower_label`: it carries the lower label, incomparable
    neighbours are an error, and an instant whose sides carry its own
    label is no transition.
    """
    bp = path.breakpoints
    scan = subset_radii(path._still[first][0])
    crossings, _, marks = _stretch_walk(path, first)

    def zone(t: float):
        return _zone_at(path, first, t)

    spans: list[list[float]] = []
    for t in crossings:
        if spans and _joined(zone, spans[-1][1], t):
            spans[-1][1] = t
        else:
            spans.append([t, t])
    if spans and _joined(zone, bp[first], spans[0][0]):
        spans[0][0] = bp[first]
    if spans and _joined(zone, spans[-1][1], bp[last]):
        spans[-1][1] = bp[last]
    bounds = (bp[first], *(x for span in spans for x in span), bp[last])
    sides = [_zone_label(scan, zone(u)) if v - u > _POINT_WIDTH else None
             for u, v in zip(bounds[::2], bounds[1::2])]
    events = []
    for k, (lo, hi) in enumerate(spans):
        candidates = {}  # one mark per zone
        for t in marks[bisect.bisect_left(marks, lo):bisect.bisect_right(marks, hi)]:
            candidates.setdefault(zone(t), t)
        if not candidates:
            # a lone crossing, with an interval on each side (a span at a
            # stretch end holds the end): the instant lies on the side of
            # the lower label, at the span's last crossing or at the float
            # before its first
            low = _lower_label(sides[k], sides[k + 1])
            if low is None:
                raise ValueError(_INCOMPARABLE)
            t = math.nextafter(lo, -math.inf) if low is sides[k] else hi
            candidates[zone(t)] = t
        t_star = low = None
        # a tie of classes keeps the first: the most critical subsets go first
        for z, t in sorted(candidates.items(), key=lambda item: item[0].lo - item[0].hi):
            label = _zone_label(scan, z)
            lower = label if low is None else _lower_label(low, label)
            if lower is None:
                raise ValueError(_INCOMPARABLE)
            if lower is label:
                t_star, low = t, label
        if sides[k] is not None:
            low = _lower_label(sides[k], low)
        if low is not None and sides[k + 1] is not None:
            low = _lower_label(low, sides[k + 1])
        if low is None:
            raise ValueError(_INCOMPARABLE)
        if any(side is not None and side != low for side in sides[k:k + 2]):
            events.append(Instant(t_star, low, min(lo, t_star), max(hi, t_star)))
    return events


def _joined(zone, u: float, v: float) -> bool:
    """Whether u and v, two crossings or a crossing and a stretch end or an
    instant, with no crossing between them, are one instant of a still
    stretch whose zone at a time ``zone`` reads: at most ``_INSTANT_WIDTH``
    apart with the radius inside a tolerance band between them, or too
    close for an interval (see :func:`zigzag`).  The zone is constant
    from the earlier of the two up to the later (:func:`_stretch_walk`),
    and is read at the earlier."""
    if abs(v - u) <= _POINT_WIDTH:
        return True
    if abs(v - u) > _INSTANT_WIDTH:
        return False
    z = zone(min(u, v))
    return z.lo < z.hi


def _renaming_map(path: PLPath, t_from: float, t_to: float) -> SimplicialMap:
    """Vertex renaming induced by following the tracks along a stretch with
    constant label: each vertex at t_from goes where its tracks are at
    t_to (on a still stretch, the identity of its one track assignment).
    The map must be vertex-surjective and simplicial."""
    rp_a, asn_a = _evaluate_tracks(path, t_from)
    rp_b, asn_b = _evaluate_tracks(path, t_to)
    vmap: list[int | None] = [None] * len(rp_a.config)
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
    return _checked_renaming(cech_complex(rp_a), cech_complex(rp_b), vmap)


def _checked_renaming(source, target, vmap) -> SimplicialMap:
    """The renaming ``vmap`` from ``source`` onto ``target``, checked
    vertex-surjective and simplicial."""
    m = SimplicialMap(source, target, tuple(vmap))
    if not m.is_vertex_surjective():
        raise ValueError("renaming map is not onto; label constancy violated")
    if not is_simplicial(m):
        raise ValueError("renaming map is not simplicial; label constancy violated")
    return m


def _still_run(path: PLPath, t_from: float, t_to: float) -> tuple[int, int] | None:
    """The breakpoints first and last of the shortest run of breakpoints
    around t_from and t_to when both lie on one still stretch, else None."""
    lo, hi = min(t_from, t_to), max(t_from, t_to)
    bp = path.breakpoints
    i, j = bisect.bisect_right(bp, lo), bisect.bisect_left(bp, hi)
    shared = path._still[i - 1]
    if shared is None or path._still[j - 1] is not shared:
        return None
    return i - 1, j


def entrance_map(path: PLPath, t_from: float, t_to: float) -> SimplicialMap:
    """Simplicial map induced by traversing the path from t_from to t_to.

    Certify, then step.  The refined label must be constant on [t_from,
    t_to); it may drop at t_to.  On a still stretch this is certified
    exactly, from the stretch's one record (:func:`_stretch_walk`): the
    label is a function of the zone of the radius, which changes only at
    the record's crossings, the first floats at which the radius that
    :func:`evaluate` reads passes a zone edge, so the zone must be the one
    at t_from up to the instant that t_to lies in, and may change only
    inside that instant: the crossings that :func:`transitions` joins into
    one (see :func:`_left_early`).  Where tracks move, the label is
    spot-checked at ``_CONSTANCY_SAMPLES`` evenly spaced times of [t_from,
    t_to).

    The step is the track renaming from t_from to tau, the float beside
    t_to on the side of t_from (:func:`_renaming_map`), composed with
    :func:`~cechstrat.strat.local_map` from x(tau) onto x(t_to), which
    refuses where x(tau) lies outside the safe ball of x(t_to).  On a
    still stretch the configuration does not move and the local map snaps
    each point onto itself: the map is the identity of the stretch's one
    track assignment from the complex at t_from into the one at t_to.
    Where the complex at tau is the one at t_from, the cached complex of
    the same spanned prefix, that is the snap, already checked; otherwise
    the renaming is checked once.  The zone at t_from, which gives its
    complex, is read off the record (:func:`_zone_at`).  Works in either time
    direction.
    """
    if not (0.0 <= t_from <= 1.0 and 0.0 <= t_to <= 1.0):
        raise ValueError("path parameters must lie in [0, 1]")
    if t_from == t_to:
        return identity_map(cech_complex(evaluate(path, t_from)))
    run = _still_run(path, t_from, t_to)
    if run is None:
        x_from = evaluate(path, t_from)
        checks = [t_from + (t_to - t_from) * k / _CONSTANCY_SAMPLES
                  for k in range(1, _CONSTANCY_SAMPLES)]
        labels = [stratum_label(evaluate(path, t)) for t in checks]
        # labelled after the checks, so that its scan is still cached for the renaming
        l_from = stratum_label(x_from)
        change = next((t for t, label in zip(checks, labels) if label != l_from), None)
    else:
        # the zone at t_from, read once for the certification and the map
        start = _zone_at(path, run[0], t_from)
        change = _left_early(path, run[0], start, t_from, t_to)
    if change is not None:
        raise ValueError(f"label is not constant on [{t_from}, {t_to}): changes near t={change}")
    tau = math.nextafter(t_to, t_from)
    snap = local_map(evaluate(path, tau), evaluate(path, t_to))
    if run is None:
        return compose(_renaming_map(path, t_from, tau), snap)
    # one configuration: the snap takes each point onto itself, so the map
    # runs from t_from straight into x(t_to), and is the snap itself where
    # x(tau) spans what x(t_from) spans
    source = subset_radii(path._still[run[0]][0]).complex(start.hi)
    if snap.source is source:
        return snap
    return _checked_renaming(source, snap.target, snap.vertex_map)


def _left_early(path: PLPath, seg: int, start: Zone, t_from: float,
                t_to: float) -> float | None:
    """Where the still path through segment ``seg`` leaves ``start``, the
    zone of its radius at t_from, before the instant that t_to lies in, or
    None if it does not.

    The zone changes only at the crossings of the stretch's one record
    (:func:`_stretch_walk`), and is constant from each up to the float
    before the next, as the record keeps it (:func:`_zone_at`).  Taken from
    t_from on, the crossings strictly between t_from and t_to, two
    bisections of the record's crossings, keep the zone at t_from up to
    the first, which leaves it.  From there on the zone may change only
    inside the instant that t_to lies in: every two crossings in turn, and
    the last one and t_to, must be one instant by :func:`_joined`, the
    rule by which :func:`transitions` joins them, each piece read at the
    earlier of its two ends.
    """
    crossings = _stretch_walk(path, seg)[0]
    lo, hi = sorted((t_from, t_to))
    met = crossings[bisect.bisect_right(crossings, lo):bisect.bisect_left(crossings, hi)]
    chain = [*(reversed(met) if t_to < t_from else met), t_to]
    left = None
    for u, v in zip(chain, chain[1:]):
        # the zone of the piece between u and v, constant from the earlier
        zone = _zone_at(path, seg, min(u, v))
        if left is None and zone == start:
            continue
        left = u if left is None else left
        if not _joined(lambda t: zone, u, v):
            return left
    return None


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


def zigzag(path: PLPath, resolution: float) -> ZigzagDiagram:
    """Zigzag of simplicial maps along a path.

    Each interval is read at one sample time: its class is the label
    there, and its maps are the entrance maps from there into the instants
    on both sides.  Inner intervals are sampled in the middle of the gap
    between their instants' extents (:class:`Instant`), which on a still
    stretch hold the crossings each instant joins, so that the sample lies
    outside both; the first is sampled at t = 0 and the last at t = 1, the
    path's ends, which lie outside the tolerance band of the adjacent
    instant however close to the end it is.  An interval no wider than
    ``_POINT_WIDTH`` between the times that bound it, such as the outer
    interval of a transition at an end of the path, is just an instant: it
    is read at the instant that closes it, the last interval at the one
    that opens it, and enters that instant by the identity.
    """
    events = transitions(path, resolution)
    times = [t for t, _ in events]
    bounds = [0.0, *times, 1.0]
    # each gap runs from the extent of the instant before to the next one's
    gaps = [0.0, *(x for e in events for x in (e.lo, e.hi)), 1.0]
    samples = []
    for k, (a, b) in enumerate(zip(bounds, bounds[1:])):
        if b - a <= _POINT_WIDTH:
            samples.append(b if k < len(events) else a)
        else:
            samples.append(0.0 if k == 0 else 1.0 if k == len(events)
                           else 0.5 * (gaps[2 * k] + gaps[2 * k + 1]))
    return ZigzagDiagram(
        tuple(times),
        tuple(stratum_label(evaluate(path, t)) for t in samples),
        tuple(lbl for _, lbl in events),
        tuple((entrance_map(path, samples[k], t_star), entrance_map(path, samples[k + 1], t_star))
              for k, t_star in enumerate(times)),
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
    """Stationary-configuration path that reads the configuration as its
    filtration: up to ``t_max`` it has the labels, instants and entrance
    maps of the radius t/(1-t), and after it the radius is held.

    On a still path the label is a function of the radius's zone in the
    configuration's one scan, which is constant between two consecutive
    edges of the scan's tolerance bands (its ``lower`` and ``upper``, see
    :func:`~cechstrat.cech.read_scan`).  So a breakpoint sits at
    t = v/(1+v), with radius exactly v, for each band edge and scan radius
    v in (0, t_max/(1-t_max)), between those at 0 and ``t_max``.  Between
    breakpoints the radius is linear, not t/(1-t), but each chord stays in
    one zone, and each instant is the time v/(1+v) of its scan radius.  A
    breakpoint whose time, or one minus it, rounds onto the previous one's
    or onto ``t_max``'s is dropped, so that
    :func:`reversed_path` builds.  The scan is the one the path's zigzag
    reads, so it refuses what that refuses, such as more than
    ``UNCAPPED_POINTS`` points.  ``t_max`` is at most ``_CECH_PATH_T_MAX``.
    """
    if not (0.0 < t_max <= _CECH_PATH_T_MAX):
        raise ValueError(f"t_max must lie in (0, {_CECH_PATH_T_MAX}], got {t_max}")
    scan = subset_radii(config)
    top = t_max / (1.0 - t_max)
    ts, radii = [0.0], [0.0]
    for v in sorted({*scan.radii, *scan.lower, *scan.upper}):
        t = v / (1.0 + v)
        if 0.0 < v < top and 1.0 - ts[-1] > 1.0 - t > 1.0 - t_max:
            ts.append(t)
            radii.append(v)
    tracks = tuple((p,) * (len(ts) + 2) for p in config.points)
    return PLPath(config.dim, (*ts, t_max, 1.0), tracks, (*radii, top, top))


def reversed_path(path: PLPath) -> PLPath:
    """The same path traversed backwards."""
    bp = tuple(1.0 - t for t in reversed(path.breakpoints))
    tracks = tuple(tuple(reversed(tr)) for tr in path.tracks)
    return PLPath(path.dim, bp, tracks, tuple(reversed(path.radius)))
