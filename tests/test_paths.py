import bisect
import gc
import hashlib
import itertools
import json
import math
import operator
import random
import tracemalloc
from fractions import Fraction

import pytest

from cechstrat import (
    PLPath,
    PointConfig,
    RanPoint,
    ZigzagDiagram,
    as_filtration,
    canonical_form,
    cech_filtration,
    cech_path,
    compose,
    dominates,
    entrance_map,
    evaluate,
    identity_map,
    is_simplicial,
    local_map,
    stratum_label,
    tilde_r,
    transitions,
    zigzag,
)
from cechstrat import paths
from cechstrat.cech import cech_complex, read_scan, subset_radii
from cechstrat.geometry import DELTA_PT, EPS_GEO
from cechstrat.paths import (
    _CECH_PATH_T_MAX,
    _CONSTANCY_SAMPLES,
    _dedupe,
    _evaluate_tracks,
    _first_past,
    _renaming_map,
    _still_run,
    _stretch_walk,
    _zone_at,
    reversed_path,
)

from conftest import (
    clear_package_caches, random_edge_path, random_moving_path, random_still_path,
)

SQRT3 = math.sqrt(3.0)


def reference_merge_check(tracks, dim):
    """The segment-by-segment merge check that ``PLPath`` replaced: the
    message of the first violation, or None."""
    k = len(tracks)
    for seg in range(len(tracks[0]) - 1):
        for i in range(k):
            for j in range(i + 1, k):
                a = [tracks[i][seg][c] - tracks[j][seg][c] for c in range(dim)]
                b = [tracks[i][seg + 1][c] - tracks[j][seg + 1][c] for c in range(dim)]
                d_start = math.hypot(*a)
                d_end = math.hypot(*b)
                if d_start <= DELTA_PT or d_end <= DELTA_PT:
                    continue
                diff = [bb - aa for aa, bb in zip(a, b)]
                denom = sum(x * x for x in diff)
                d_min = min(d_start, d_end)
                if denom > 0.0:
                    u = -sum(x * y for x, y in zip(a, diff)) / denom
                    if 0.0 < u < 1.0:
                        mid = [aa + u * x for aa, x in zip(a, diff)]
                        d_min = min(d_min, math.hypot(*mid))
                if d_min <= DELTA_PT:
                    return (
                        f"tracks {i} and {j} touch inside segment {seg} but "
                        "separate before its end; merges must persist and "
                        "splits are only allowed at breakpoints"
                    )
    return None


def reference_plpath(dim, breakpoints, tracks, radius):
    """Breakpoints, tracks, radius and still-stretch configurations as the
    construction that ``PLPath`` replaced made them: every waypoint
    converted, then checked, then one moving set per track."""
    if not 1 <= dim <= 16:
        raise ValueError(f"dim must be in 1..16, got {dim}")
    bp = tuple(float(t) for t in breakpoints)
    tracks = tuple(tuple(tuple(float(c) for c in p) for p in tr) for tr in tracks)
    radius = tuple(float(r) for r in radius)
    for what, values in (("breakpoint", bp), ("radius", radius)):
        for v in values:
            if not math.isfinite(v):
                raise ValueError(f"{what} {v} is not finite")
    if len(bp) < 2 or bp[0] != 0.0 or bp[-1] != 1.0:
        raise ValueError("breakpoints must run from 0.0 to 1.0")
    if any(a >= b for a, b in zip(bp, bp[1:])):
        raise ValueError("breakpoints must be strictly increasing")
    if not tracks:
        raise ValueError("at least one track is required")
    for tr in tracks:
        if len(tr) != len(bp):
            raise ValueError("each track needs one waypoint per breakpoint")
        for p in tr:
            if len(p) != dim:
                raise ValueError(f"waypoint {p} does not have dimension {dim}")
            if not all(map(math.isfinite, p)):
                raise ValueError(f"waypoint {p} is not finite")
    if len(radius) != len(bp):
        raise ValueError("radius needs one value per breakpoint")
    if any(r < 0.0 for r in radius):
        raise ValueError("radius must be nonnegative")
    moving = [{seg for seg, (p, q) in enumerate(zip(tr, tr[1:])) if p != q} for tr in tracks]
    message = reference_merge_check(tracks, dim)
    if message is not None:
        raise ValueError(message)
    moves = set().union(*moving)
    still = []
    for seg in range(len(bp) - 1):
        if seg in moves:
            still.append(None)
        elif not still or still[-1] is None:
            still.append(_dedupe(dim, [tuple(c + 0.0 for c in tr[seg]) for tr in tracks]))
        else:
            still.append(still[-1])
    return bp, tracks, radius, tuple(still)


def exact(value):
    """Nested floats as hex strings, so that signed zeros differ."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, PointConfig):
        return value.dim, exact(value.points)
    if isinstance(value, (tuple, list)):
        return [exact(v) for v in value]
    return value


def plpath_fields(dim, breakpoints, tracks, radius):
    p = PLPath(dim, breakpoints, tracks, radius)
    return p.breakpoints, p.tracks, p.radius, p._still


def construction(dim, breakpoints, tracks, radius, build):
    """What ``build`` makes of the arguments, exactly, or its exception."""
    try:
        return exact(build(dim, breakpoints, tracks, radius))
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)


def mixed_shape_tracks(rng, dim, k, n_bp):
    """Grid tracks in the shapes ``PLPath`` is handed: tuples or lists, int
    and -0.0 coordinates, a waypoint repeated as one object or as an equal
    but distinct one, objects shared between tracks, and still runs
    between moving segments."""
    pool, tracks = [], []
    for _ in range(k):
        tr = []
        for _ in range(n_bp):
            roll = rng.random()
            if tr and roll < 0.3:
                tr.append(tr[-1])
            elif tr and roll < 0.45:
                tr.append(type(tr[-1])(-c if c == 0 and rng.random() < 0.5 else c
                                       for c in tr[-1]))
            elif pool and roll < 0.55:
                tr.append(rng.choice(pool))
            else:
                coords = [rng.choice((rng.randint(-2, 2), rng.randint(-4, 4) * 0.5, -0.0))
                          for _ in range(dim)]
                tr.append(tuple(coords) if rng.random() < 0.5 else coords)
        pool.extend(tr)
        tracks.append(tuple(tr) if rng.random() < 0.5 else tr)
    return tuple(tracks) if rng.random() < 0.5 else tracks


def single_faults(rng, dim, breakpoints, tracks, radius):
    """(name, arguments) pairs, each the valid arguments with one fault."""
    n_bp = len(breakpoints)

    def with_track(i, tr):
        return dim, breakpoints, [*tracks[:i], tr, *tracks[i + 1:]], radius

    i = rng.randrange(len(tracks))
    tr = list(tracks[i])
    wrong = tr[:]
    wrong[rng.randrange(n_bp)] = (0.5,) * (dim + rng.choice((-1, 1)) if dim > 1 else 2)
    yield "wrong dimension", with_track(i, wrong)
    for bad in (math.nan, math.inf, -math.inf):
        obj = tuple(bad if c == dim - 1 else 0.25 for c in range(dim))
        for where in (0, n_bp // 2, n_bp - 1):
            run = tr[:]
            for k in range(max(0, where - 1), min(n_bp, where + 2)):
                run[k] = obj
            yield f"{bad} at waypoint {where}", with_track(i, run)
    text = tr[:]
    text[rng.randrange(n_bp)] = ("x",) * dim
    yield "coordinate that does not convert", with_track(i, text)
    yield "short track", with_track(i, tr[:-1])
    yield "radius of the wrong length", (dim, breakpoints, tracks, radius[:-1])
    yield "radius of the wrong length", (dim, breakpoints, tracks, (*radius, 0.0))
    negative = list(radius)
    negative[rng.randrange(n_bp)] = -0.5
    yield "negative radius", (dim, breakpoints, tracks, negative)


def construction_error(dim, breakpoints, tracks, radius):
    try:
        PLPath(dim, breakpoints, tracks, radius)
    except ValueError as exc:
        return str(exc)
    return None


def random_grid_tracks(rng, dim, k, n_bp):
    """Tracks on a coarse grid, so touches, merges and splits all occur;
    some tracks copy another one shifted, so pairs translate together, and
    some waypoints sit just off the grid, so passing tracks come closest
    at about DELTA_PT."""
    nudges = (0.0, 0.0, 0.0, 0.5 * DELTA_PT, 2.0 * DELTA_PT)
    tracks = []
    for _ in range(k):
        if tracks and rng.random() < 0.25:
            shift = tuple(rng.choice((0.0, 0.5, 0.1 * DELTA_PT)) for _ in range(dim))
            base = rng.choice(tracks)
            tracks.append(tuple(tuple(c + s for c, s in zip(p, shift)) for p in base))
        else:
            tracks.append(tuple(
                tuple(rng.randint(-2, 2) * 0.5 + rng.choice(nudges) for _ in range(dim))
                for _ in range(n_bp)
            ))
    return tuple(tracks)


def reference_evaluate_tracks(path, t):
    """Every track interpolated and coincident ones merged at each call:
    the definition that the still stretches built with a path reproduce."""
    if not (0.0 <= t <= 1.0):
        raise ValueError(f"path parameter {t} outside [0, 1]")
    bp = path.breakpoints
    seg = min(bisect.bisect_right(bp, t), len(bp) - 1) - 1
    u = (t - bp[seg]) / (bp[seg + 1] - bp[seg])
    positions = []
    for tr in path.tracks:
        a, b = tr[seg], tr[seg + 1]
        if u == 1.0:  # the segment's end, as given
            positions.append(tuple(bb + 0.0 for bb in b))
        else:
            positions.append(tuple(aa + u * (bb - aa) for aa, bb in zip(a, b)))
    if u == 1.0:
        radius = path.radius[seg + 1] + 0.0
    else:
        radius = path.radius[seg] + u * (path.radius[seg + 1] - path.radius[seg])
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
    vertex_of_root = {}
    points = []
    assignment = []
    for i in range(len(positions)):
        root = find(i)
        if root not in vertex_of_root:
            vertex_of_root[root] = len(points)
            points.append(positions[root])
        assignment.append(vertex_of_root[root])
    return RanPoint(PointConfig(path.dim, tuple(points)), max(radius, 0.0)), tuple(assignment)


def with_still_runs(rng, tracks):
    """The tracks, each made to stand still on random runs of segments:
    a still run repeats its first waypoint, at times with its zero
    coordinates negated, so that still segments start at -0.0."""
    out = []
    for tr in tracks:
        tr = list(tr)
        for _ in range(rng.randint(0, 2)):
            start = rng.randrange(len(tr) - 1)
            for k in range(start + 1, min(len(tr), start + 1 + rng.randint(1, 3))):
                flip = rng.random() < 0.5
                tr[k] = tuple(-c if flip and c == 0.0 else c for c in tr[start])
        out.append(tuple(tr))
    return tuple(out)


def bits(x):
    """A configuration-radius pair as exact floats, signed zeros told apart."""
    return x.config.dim, [[c.hex() for c in p] for p in x.config.points], x.radius.hex()


def ramp_path():
    """Two fixed points on the line, radius running 0 to 1."""
    return PLPath(1, (0.0, 1.0), (((0.0,), (0.0,)), ((1.0,), (1.0,))), (0.0, 1.0))


def merge_path():
    """Second track moves onto the first by t = 1, radius 0."""
    return PLPath(1, (0.0, 1.0), (((0.0,), (0.0,)), ((1.0,), (0.0,))), (0.0, 0.0))


def constant_path():
    return PLPath(1, (0.0, 1.0), (((0.0,), (0.0,)), ((1.0,), (1.0,))), (0.2, 0.2))


def creeping_path():
    """Two points on the line whose second track moves by one ulp, radius 0.2."""
    return PLPath(1, (0.0, 1.0), (((0.0,), (0.0,)), ((1.0,), (math.nextafter(1.0, 2.0),))),
                  (0.2, 0.2))


def narrow_excursion_path():
    """Two fixed points whose radius rises past the edge's 0.5 and falls
    back within a stretch of 0.004, narrower than a grid step of 0.01."""
    return PLPath(1, (0.0, 0.503, 0.505, 0.507, 1.0), (((0.0,),) * 5, ((1.0,),) * 5),
                  (0.3, 0.3, 0.7, 0.3, 0.3))


def inner_excursion_path():
    """Two fixed points whose radius dips below the edge's band at t = 0.9
    and comes back over it by t = 0.95, before falling onto 0.5 at t = 1."""
    return PLPath(1, (0.0, 0.9, 0.95, 1.0), (((0.0,),) * 4, ((1.0,),) * 4),
                  (0.7, 0.5 - 1e-8, 0.5 + 1e-6, 0.5))


#: sha256 of the zigzag JSON (resolution 0.01, keys sorted) of
#: ``inner_excursion_path()`` and of its reversal
INNER_EXCURSION_ZIGZAG_SHA256 = [
    "0a57d886ad8ebaae23a2e392ce29ba8a352d98e77c5cb977f86ff686022445c1",
    "407bdd458d34af65fd4ca4e158c10d2443b2a708edfed83289a571f729b7ba41",
]


def zigzag_sha256(path):
    z = zigzag(path, 0.01)
    return hashlib.sha256(json.dumps(z.to_json_dict(), sort_keys=True).encode()).hexdigest()


def triangle_config():
    return PointConfig(2, ((0.0, 0.0), (1.0, 0.0), (0.5, SQRT3 / 2)))


def classes_in_time_order(z):
    """The distinct classes of a zigzag, each where it first appears."""
    labels = (z.interval_classes[0],
              *itertools.chain.from_iterable(zip(z.transition_classes, z.interval_classes[1:])))
    return list({lbl.cls.key: lbl.cls for lbl in labels}.values())


def reference_as_filtration(z):
    """``as_filtration``'s contract taken pair by pair: the distinct classes
    of the zigzag, all on one vertex count and pairwise comparable, ordered
    by how many others each dominates, with the first witness between
    neighbours; None otherwise."""
    classes = classes_in_time_order(z)
    if len({c.n_vertices for c in classes}) != 1:
        return None
    above = {(a.key, b.key): dominates(a.canonical, b.canonical) is not None
             for a, b in itertools.permutations(classes, 2)}
    if any(not above[a.key, b.key] and not above[b.key, a.key]
           for a, b in itertools.combinations(classes, 2)):
        return None
    chain = sorted(classes, key=lambda c: sum(above[c.key, o.key] for o in classes if o is not c),
                   reverse=True)
    return chain, [dominates(hi.canonical, lo.canonical) for hi, lo in zip(chain, chain[1:])]


def reference_approaches(start, r, end):
    """The band rule of ``reference_entrance_map``: radius ``r`` differs
    from the start only by subsets critical at the end, and loses no
    simplex."""
    scan = subset_radii(start.config)
    a, b, window = (read_scan(scan, x) for x in (start.radius, r, end.radius))
    return b.hi >= a.hi and all(
        window.lo <= min(i, j) and max(i, j) <= window.hi for i, j in zip(a, b) if i != j)


def reference_switches(flags: bytes) -> list[int]:
    """Positions k >= 1 where ``flags[k]`` differs from ``flags[k - 1]``."""
    out, k = [], 0
    while (k := flags.find(b"\0" if flags[k] else b"\1", k)) > 0:
        out.append(k)
    return out


def reference_inner_bends(path, first, last):
    """The interior breakpoints strictly between first and last where the
    radius changes between rising, falling and holding, ascending: the
    bend index that ``PLPath`` kept before the stretch's walk found its
    turns segment by segment."""
    radius = path.radius
    rises = bytes(map(operator.lt, radius, radius[1:]))
    falls = bytes(map(operator.gt, radius, radius[1:]))
    bends = sorted({*reference_switches(rises), *reference_switches(falls)})
    return tuple(bends[bisect.bisect_right(bends, first):bisect.bisect_left(bends, last)])


def reference_meets(bp, radius, j, value):
    """The time at which the radius meets ``value`` on the segment ending
    at breakpoint j, or at breakpoint j itself."""
    if radius[j] == value:
        return bp[j]
    u = (value - radius[j - 1]) / (radius[j] - radius[j - 1])
    return min(bp[j - 1] + u * (bp[j] - bp[j - 1]), bp[j])


def reference_crossings(path, first, last, values):
    """The run bisection that the marks of a stretch's walk replaced: the
    stretch splits at its bends into runs where the radius rises, falls or
    holds, and a rising or falling run meets the values between its end
    radii, each on the segment found by bisection."""
    bp, radius = path.breakpoints, path.radius
    cuts = (first, *reference_inner_bends(path, first, last), last)
    times = []
    for a, b in zip(cuts, cuts[1:]):
        ra, rb = radius[a], radius[b]
        low, high = min(ra, rb), max(ra, rb)
        met = values[bisect.bisect_left(values, low):bisect.bisect_right(values, high)]
        if ra < rb:
            for value in met:
                j = bisect.bisect_left(radius, value, a, b + 1)
                times.append(reference_meets(bp, radius, j, value))
        elif ra > rb:
            for value in reversed(met):
                j = bisect.bisect_left(radius, -value, a, b + 1, key=operator.neg)
                times.append(reference_meets(bp, radius, j, value))
    return times


def reference_zone_changes(path, first, last):
    """Every float of the still stretch over breakpoints first..last whose
    zone, in the radius that ``evaluate`` reads, differs from the zone of
    the float before it: each segment bisected wherever its two ends read
    different zones.  The radius is monotone along a segment, so a part
    whose ends read one zone reads it throughout."""
    scan = subset_radii(path._still[first][0])

    def zone(t):
        return read_scan(scan, evaluate(path, t).radius)

    def changes(a, za, b, zb):
        mid = 0.5 * (a + b)
        if not a < mid < b:
            return [b]
        zm = zone(mid)
        return [*(changes(a, za, mid, zm) if zm != za else ()),
                *(changes(mid, zm, b, zb) if zm != zb else ())]

    bp, out = path.breakpoints, []
    for a, b in zip(bp[first:last], bp[first + 1:last + 1]):
        za, zb = zone(a), zone(b)
        if za != zb:
            out += changes(a, za, b, zb)
    return out


def reference_entrance_map(path, t_from, t_to):
    """The halving search that ``entrance_map`` replaced: tau runs through
    t_to - (t_to - t_from)/2^k, skipping bends outside the safe ball, until
    ``local_map`` takes x(tau); a still stretch is certified on [t_from,
    tau] only."""
    if not (0.0 <= t_from <= 1.0 and 0.0 <= t_to <= 1.0):
        raise ValueError("path parameters must lie in [0, 1]")
    if t_from == t_to:
        return identity_map(cech_complex(evaluate(path, t_from)))
    run = _still_run(path, t_from, t_to)
    bends = None if run is None else reference_inner_bends(path, *run)
    samples = [] if bends is not None else [t_from + (t_to - t_from) * k / _CONSTANCY_SAMPLES
                                            for k in range(1, _CONSTANCY_SAMPLES)]
    labels = [stratum_label(evaluate(path, t)) for t in samples]
    x_from = evaluate(path, t_from)
    l_from = stratum_label(x_from)
    for t, label in zip(samples, labels):
        if label != l_from:
            raise ValueError(f"label is not constant on [{t_from}, {t_to}): changes near t={t}")
    end = evaluate(path, t_to)
    safe = tilde_r(end).safe_radius if bends else math.inf
    bp, radius = path.breakpoints, path.radius
    h = t_to - t_from
    for _ in range(80):
        h *= 0.5
        tau = t_to - h
        if tau == t_to:
            break
        if any(abs(bp[k] - t_to) < abs(h) and abs(radius[k] - end.radius) >= safe
               for k in bends or ()):
            continue
        x_tau = evaluate(path, tau)
        try:
            snap = local_map(x_tau, end)
        except ValueError:
            continue
        if bends is not None:
            seen = [(x_tau.radius, tau)] + [(radius[k], bp[k]) for k in bends
                                            if abs(bp[k] - t_from) < abs(tau - t_from)]
            for r, t in dict.fromkeys((min(seen), max(seen))):
                if r != x_from.radius and stratum_label(evaluate(path, t)) != l_from \
                        and not reference_approaches(x_from, r, end):
                    raise ValueError(
                        f"label is not constant on [{t_from}, {t_to}): changes near t={t}")
        return compose(_renaming_map(path, t_from, tau), snap)
    raise ValueError("terminal stretch cannot fit inside the safe ball")


def map_or_refusal(build, path, t_from, t_to):
    """The map ``build`` returns, or the message it raises with the time
    it names cut off."""
    try:
        return build(path, t_from, t_to)
    except ValueError as err:
        return str(err).split(" near t=")[0]


def uniform_still_path(rng):
    """2-5 fixed points in the plane under a uniformly random radius
    polyline."""
    while True:
        try:
            cfg = PointConfig(2, tuple((rng.uniform(0, 1), rng.uniform(0, 1))
                                       for _ in range(rng.randint(2, 5))))
            break
        except ValueError:
            continue
    n_bp = rng.randint(2, 6)
    bp = (0.0, *sorted(rng.uniform(0.01, 0.99) for _ in range(n_bp - 2)), 1.0)
    return PLPath(2, bp, tuple((q,) * n_bp for q in cfg.points),
                  tuple(rng.uniform(0.0, 0.8) for _ in bp))


class TestPLPathValidation:
    def test_breakpoints_must_span_unit_interval(self):
        with pytest.raises(ValueError):
            PLPath(1, (0.0, 0.5), (((0.0,), (0.0,)),), (0.0, 0.0))

    def test_breakpoints_strictly_increasing(self):
        with pytest.raises(ValueError):
            PLPath(1, (0.0, 0.5, 0.5, 1.0), (((0.0,),) * 4,), (0.0,) * 4)

    def test_radius_nonnegative(self):
        with pytest.raises(ValueError):
            PLPath(1, (0.0, 1.0), (((0.0,), (0.0,)),), (0.1, -0.1))

    def test_waypoint_counts(self):
        with pytest.raises(ValueError):
            PLPath(1, (0.0, 1.0), (((0.0,),),), (0.0, 0.0))

    def test_split_inside_segment_rejected(self):
        # tracks meet at the segment midpoint and separate again
        with pytest.raises(ValueError, match="split"):
            PLPath(
                1,
                (0.0, 1.0),
                (((0.0,), (1.0,)), ((1.0,), (0.0,))),
                (0.0, 0.0),
            )

    def test_split_at_breakpoint_allowed(self):
        p = PLPath(
            1,
            (0.0, 0.5, 1.0),
            (((0.0,), (0.0,), (0.0,)), ((1.0,), (0.0,), (1.0,))),
            (0.0, 0.0, 0.0),
        )
        assert len(evaluate(p, 0.5).config) == 1
        assert len(evaluate(p, 0.75).config) == 2

    @pytest.mark.parametrize("breakpoints", [(0.0, math.nan, 1.0), (0.0, math.inf, 1.0)])
    def test_non_finite_breakpoint_rejected(self, breakpoints):
        with pytest.raises(ValueError, match="breakpoint .* is not finite"):
            PLPath(1, breakpoints, (((0.0,),) * 3,), (0.0,) * 3)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_radius_rejected(self, bad):
        with pytest.raises(ValueError, match="radius .* is not finite"):
            PLPath(1, (0.0, 1.0), (((0.0,), (0.0,)),), (0.0, bad))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_waypoint_rejected(self, bad):
        with pytest.raises(ValueError, match="waypoint .* is not finite"):
            PLPath(2, (0.0, 1.0), (((0.0, 0.0), (0.0, 0.0)), ((1.0, 0.0), (1.0, bad))),
                   (0.0, 0.0))

    def test_non_finite_json_rejected(self):
        # json.loads accepts NaN and Infinity, as a path file for `track` may carry
        blob = '{"dim": 1, "breakpoints": [0.0, 1.0], "tracks": [[[0.0], [NaN]]], ' \
               '"radius": [0.0, Infinity]}'
        with pytest.raises(ValueError, match="is not finite"):
            PLPath.from_json_dict(json.loads(blob))

    def test_translating_pair_allowed(self):
        # a pair moving together keeps its distance, closer or farther than
        # DELTA_PT; the close pair is one vertex all along
        for gap in (2.0 ** -45, 0.25):
            p = PLPath(
                1,
                (0.0, 0.5, 1.0),
                (((0.5,), (1.0,), (0.0,)), ((0.5 + gap,), (1.0 + gap,), (gap,))),
                (0.0, 0.0, 0.0),
            )
            assert len(evaluate(p, 0.3).config) == (1 if gap < DELTA_PT else 2)

    def test_touch_and_split_inside_segment_reports_first(self):
        # tracks 1 and 2 cross inside segment 0; every pair, 0 and 1 among
        # them, crosses inside segment 1
        tracks = (
            ((0.0,), (0.0,), (2.0,)),
            ((1.0,), (1.0,), (0.0,)),
            ((3.0,), (0.5,), (0.5,)),
        )
        with pytest.raises(ValueError) as err:
            PLPath(1, (0.0, 0.5, 1.0), tracks, (0.0, 0.0, 0.0))
        assert str(err.value).startswith("tracks 1 and 2 touch inside segment 0 but")
        assert str(err.value) == reference_merge_check(tracks, 1)

    def test_merge_check_matches_reference(self):
        rng = random.Random(2024)
        raised = 0
        for _ in range(3000):
            dim = rng.randint(1, 2)
            n_bp = rng.randint(2, 5)
            bp = (0.0,) + tuple(sorted(rng.sample(range(1, 20), n_bp - 2))) + (20,)
            bp = tuple(t / 20 for t in bp)
            tracks = random_grid_tracks(rng, dim, rng.randint(2, 4), n_bp)
            expected = reference_merge_check(tracks, dim)
            assert construction_error(dim, bp, tracks, (0.0,) * n_bp) == expected
            raised += expected is not None
        # the sample exercises both outcomes
        assert 300 < raised < 2700


    def test_merge_check_matches_reference_with_still_runs(self):
        rng = random.Random(2025)
        raised = 0
        for _ in range(3000):
            dim = rng.randint(1, 2)
            n_bp = rng.randint(2, 6)
            bp = (0.0,) + tuple(sorted(rng.sample(range(1, 20), n_bp - 2))) + (20,)
            bp = tuple(t / 20 for t in bp)
            tracks = with_still_runs(rng, random_grid_tracks(rng, dim, rng.randint(2, 4), n_bp))
            expected = reference_merge_check(tracks, dim)
            assert construction_error(dim, bp, tracks, (0.0,) * n_bp) == expected
            raised += expected is not None
        assert 300 < raised < 2700

    @pytest.mark.parametrize("dim", [0, 17])
    def test_dim_out_of_range_rejected(self, dim):
        with pytest.raises(ValueError, match=f"dim must be in 1..16, got {dim}"):
            PLPath(dim, (0.0, 1.0), (((0.0,) * dim,) * 2,), (0.0, 0.0))
        blob = {"dim": dim, "breakpoints": [0.0, 1.0], "tracks": [[[0.0] * dim] * 2],
                "radius": [0.0, 0.0]}
        with pytest.raises(ValueError, match=f"dim must be in 1..16, got {dim}"):
            PLPath.from_json_dict(blob)


class TestConstruction:
    """One pass per track builds what the converting construction built."""

    def test_matches_reference(self):
        rng = random.Random(909)
        built = faults = 0
        for _ in range(1500):
            dim = rng.randint(1, 3)
            n_bp = rng.randint(2, 7)
            bp = (0, *(t / 40 for t in sorted(rng.sample(range(1, 40), n_bp - 2))), 1)
            tracks = mixed_shape_tracks(rng, dim, rng.randint(1, 4), n_bp)
            radius = [rng.choice((0, 0.25, -0.0, rng.uniform(0, 1))) for _ in bp]
            want = construction(dim, bp, tracks, radius, reference_plpath)
            assert construction(dim, bp, tracks, radius, plpath_fields) == want
            if isinstance(want, tuple):  # the merge check refused the tracks
                continue
            built += 1
            for name, args in single_faults(rng, dim, bp, tracks, radius):
                want = construction(*args, reference_plpath)
                assert isinstance(want, tuple), name
                assert construction(*args, plpath_fields) == want, name
                faults += 1
        # the sample exercises both outcomes of the merge check
        assert 900 < built < 1400 and faults > 15000

    def test_still_track_holds_one_waypoint(self):
        cfg = PointConfig(2, ((0.0, 0.0), (1.0, 0.1), (0.4, 0.9), (0.2, 0.45), (0.85, 0.7)))
        p = cech_path(cfg, 0.9)
        for path in (p, reversed_path(p)):
            assert len(path.breakpoints) > 30
            for tr in path.tracks:
                assert len(set(map(id, tr))) == 1
        q = PLPath.from_json_dict(p.to_json_dict())
        assert q == p and hash(q) == hash(p)
        clear_package_caches()
        blob = json.dumps(zigzag(p, 0.01).to_json_dict(), sort_keys=True)
        clear_package_caches()
        assert json.dumps(zigzag(q, 0.01).to_json_dict(), sort_keys=True) == blob


class TestStillSegments:
    """A segment no track moves on reads its configuration from the path."""

    def test_matches_reference(self):
        rng = random.Random(77)
        paths = 0
        while paths < 400:
            dim = rng.randint(1, 2)
            n_bp = rng.randint(2, 7)
            bp = (0.0,) + tuple(sorted(rng.sample(range(1, 40), n_bp - 2))) + (40,)
            bp = tuple(t / 40 for t in bp)
            tracks = with_still_runs(rng, random_grid_tracks(rng, dim, rng.randint(1, 4), n_bp))
            radius = tuple(rng.choice((0.0, 0.25, 0.5, rng.uniform(0, 1))) for _ in bp)
            try:
                path = PLPath(dim, bp, tracks, radius)
            except ValueError:
                continue
            paths += 1
            for t in (*bp, *(rng.random() for _ in range(6)), 0.5 * (bp[0] + bp[1])):
                got, want = _evaluate_tracks(path, t), reference_evaluate_tracks(path, t)
                assert bits(got[0]) == bits(want[0]) and got[1] == want[1], (path, t)

    def test_negative_zero_waypoints_read_as_positive_zero(self):
        p = PLPath(2, (0.0, 0.5, 1.0),
                   (((-0.0, 1.0), (-0.0, 1.0), (0.0, 1.0)), ((1.0, -0.0),) * 3),
                   (0.1, 0.2, 0.3))
        for t in (0.0, 0.25, 0.5, 0.75, 1.0):
            x = evaluate(p, t)
            assert [[c.hex() for c in q] for q in x.config.points] == \
                [["0x0.0p+0", "0x1.0000000000000p+0"], ["0x1.0000000000000p+0", "0x0.0p+0"]]
            assert bits(x) == bits(reference_evaluate_tracks(p, t)[0])

    def test_still_stretch_after_a_merge(self):
        # track 1 reaches track 0 at t = 0.5, and both stand still from there
        p = PLPath(1, (0.0, 0.5, 0.75, 1.0),
                   (((0.0,),) * 4, ((1.0,), (0.0,), (0.0,), (0.0,)), ((3.0,),) * 4),
                   (0.2, 0.4, 0.4, 0.6))
        for t in (0.25, 0.5, 0.6, 0.75, 0.9, 1.0):
            got, want = _evaluate_tracks(p, t), reference_evaluate_tracks(p, t)
            assert bits(got[0]) == bits(want[0]) and got[1] == want[1]
        assert _evaluate_tracks(p, 0.6)[1] == (0, 0, 1)
        # one configuration serves the whole still stretch
        assert evaluate(p, 0.5).config is evaluate(p, 0.75).config is evaluate(p, 1.0).config
        assert evaluate(p, 0.25).config is not evaluate(p, 0.3).config

    def test_path_equality_ignores_the_shared_configurations(self):
        p = cech_path(triangle_config(), 0.5)
        q = PLPath.from_json_dict(json.loads(json.dumps(p.to_json_dict())))
        assert p == q and hash(p) == hash(q)
        assert "_still" not in repr(p)


class TestEvaluate:
    def test_breakpoint_values(self):
        p = ramp_path()
        x = evaluate(p, 0.0)
        assert x.config.points == ((0.0,), (1.0,)) and x.radius == 0.0
        y = evaluate(p, 1.0)
        assert y.radius == 1.0

    def test_a_segment_end_reads_its_own_values(self):
        # 0.2 + 1.0 * (0.9 - 0.2) is 0.8999999999999999: at u = 1 the radius
        # and a moving track take their end values, not the interpolation
        p = PLPath(1, (0.0, 1.0), (((0.2,), (0.9,)),), (0.2, 0.9))
        x = evaluate(p, 1.0)
        assert x.config.points == ((0.9,),) and x.radius == 0.9
        still = PLPath(1, (0.0, 1.0), (((0.0,), (0.0,)),), (0.2, 0.9))
        assert evaluate(still, 1.0).radius == 0.9
        # one float below the inner breakpoint 0.94, u rounds to 1 too
        inner = PLPath(1, (0.0, 0.31, 0.94, 1.0), (((0.0,), (0.2,), (0.9,), (0.9,)),),
                       (0.0, 0.2, 0.9, 0.9))
        t = math.nextafter(0.94, 0.0)
        assert (t - 0.31) / (0.94 - 0.31) == 1.0
        y = evaluate(inner, t)
        assert y.config.points == ((0.9,),) and y.radius == 0.9
        for path, t in ((p, 1.0), (still, 1.0), (inner, t)):
            assert bits(evaluate(path, t)) == bits(reference_evaluate_tracks(path, t)[0])

    def test_merge_at_endpoint(self):
        x = evaluate(merge_path(), 1.0)
        assert x.config.points == ((0.0,),)

    def test_linear_interpolation(self):
        p = merge_path()
        x = evaluate(p, 0.5)
        assert x.config.points == ((0.0,), (0.5,))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            evaluate(ramp_path(), 1.5)


class TestTransitions:
    def test_constant_path_has_none(self):
        assert transitions(constant_path(), 0.01) == []

    def test_radius_ramp_single_transition(self, named_classes):
        events = transitions(ramp_path(), 0.01)
        assert len(events) == 1
        t_star, lbl = events[0]
        assert t_star == pytest.approx(0.5, abs=1e-5)
        assert lbl.cls.key == named_classes["edge"].key
        assert lbl.degenerate
        before = stratum_label(evaluate(ramp_path(), t_star - 1e-3))
        after = stratum_label(evaluate(ramp_path(), t_star + 1e-3))
        assert before.cls.key == named_classes["two_points"].key
        assert after.cls.key == named_classes["edge"].key

    def test_triangle_growth_path_instants(self):
        # radius t/(1-t) crosses 0.5 at t = 1/3 and 1/sqrt(3) at
        # t = 1/(1+sqrt(3))
        path = cech_path(triangle_config(), 0.9)
        events = transitions(path, 0.01)
        assert len(events) == 2
        assert events[0][0] == pytest.approx(1.0 / 3.0, abs=1e-5)
        assert events[1][0] == pytest.approx(1.0 / (1.0 + SQRT3), abs=1e-5)

    def test_merge_transition_at_endpoint(self, named_classes):
        events = transitions(merge_path(), 0.01)
        assert len(events) == 1
        t_star, lbl = events[0]
        assert t_star == pytest.approx(1.0, abs=1e-6)
        assert lbl.cls.key == named_classes["point"].key

    def test_a_dominated_instant_absorbs_the_next(self, named_classes):
        # the radius falls from 0.6 to 0.4 within 1e-4 while a third point
        # creeps: the filled triangle loses its 2-simplex and the edge (0, 2)
        # near 0.5005, then the edge (0, 1) at 0.5, about 2.5e-7 later, inside
        # the merge width of 1e-5; the first instant's triangle lies below
        # the second's path, so the one instant keeps it
        p = PLPath(1, (0.0, 0.5, 0.5 + 1e-4, 1.0),
                   (((0.0,),) * 4, ((1.0,),) * 4,
                    ((1.001,), (1.001,), (1.0011,), (1.0011,))),
                   (0.6, 0.6, 0.4, 0.4))
        [(t_star, lbl)] = transitions(p, 0.01)
        assert 0.5 < t_star < 0.5 + 1e-4
        assert lbl.cls.key == named_classes["filled3"].key
        after = stratum_label(evaluate(p, 1.0))
        assert after.cls.key == named_classes["edge_plus_point"].key

    def test_resolution_validation(self):
        with pytest.raises(ValueError):
            transitions(ramp_path(), 0.0)

    @pytest.mark.parametrize("build", [transitions, zigzag])
    @pytest.mark.parametrize("fine", [5e-324, 9.9e-14])
    def test_resolution_below_the_bracket_floor_is_refused(self, build, fine, monkeypatch):
        # refused before any label is made; 1/5e-324 would overflow a float
        def no_label(*args):
            raise AssertionError("a label was made")

        monkeypatch.setattr("cechstrat.paths.stratum_label", no_label)
        with pytest.raises(ValueError, match="^resolution must be at least 1e-13, "):
            build(ramp_path(), fine)

    @pytest.mark.parametrize("build", [transitions, zigzag])
    @pytest.mark.parametrize("bad", [math.nan, -math.inf, -0.0])
    def test_resolution_must_be_positive(self, build, bad):
        with pytest.raises(ValueError, match="^resolution must be positive$"):
            build(ramp_path(), bad)

    def test_infinite_resolution_is_one_step(self):
        assert transitions(ramp_path(), math.inf) == transitions(ramp_path(), 1.0)

    def test_memory_does_not_grow_with_the_grid(self):
        # the 10,001 grid times and their labels are walked, not stored; the
        # second track creeps by one ulp, so the path moves (a still path
        # has no grid) but takes only two configurations, whose scans and
        # labels stay cached
        p = creeping_path()
        assert all(shared is None for shared in p._still)

        def walk_peak(resolution):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            assert transitions(p, resolution) == []
            return tracemalloc.get_traced_memory()[1] - before

        # CPython keeps up to 2,000 freed tuples of each small size for
        # reuse, and a full collection empties those lists; the first walk
        # (4,001 steps) refills them under tracing, so that the two measured
        # walks read only what a walk itself holds, whatever ran before
        gc.collect()
        tracemalloc.start()
        try:
            walk_peak(2.5e-4)
            coarse, fine = walk_peak(1e-3), walk_peak(1e-4)
        finally:
            tracemalloc.stop()
        assert fine < 100_000
        assert fine - coarse < 8 * 9_000  # less than one pointer per extra step


def critical_still_path(rng):
    """2-4 fixed points in the unit square under a radius polyline of 2-6
    breakpoints, each radius a critical radius of the configuration, one
    within 1e-10..1e-6 of it, or anywhere below 1.2 times the largest."""
    while True:
        try:
            cfg = PointConfig(2, tuple((rng.random(), rng.random())
                                       for _ in range(rng.randint(2, 4))))
            break
        except ValueError:
            continue
    criticals = subset_radii(cfg).radii

    def radius():
        u = rng.random()
        if u < 0.35:
            return rng.choice(criticals)
        if u < 0.5:
            return rng.choice(criticals) + rng.choice((-1, 1)) * rng.choice(
                (1e-10, 5e-10, 2e-9, 1e-6))
        return rng.uniform(0.0, 1.2 * criticals[-1])

    n_bp = rng.randint(2, 6)
    bp = (0.0, *sorted(rng.uniform(0.01, 0.99) for _ in range(n_bp - 2)), 1.0)
    return PLPath(2, bp, tuple((q,) * n_bp for q in cfg.points), tuple(radius() for _ in bp))


#: the instant at t = 0.25, where the radius rises through the edge's 0.5,
#: lies between t = 0 and the end at 0.5 again; the bend at 0.6 is past
#: the edge's band, so the end's band does not reach back over it
OVERSHOOT_PATH = PLPath(1, (0.0, 0.5, 1.0), (((0.0,),) * 3, ((1.0,),) * 3), (0.4, 0.6, 0.5))


class TestEntranceMap:
    def test_an_overshoot_past_the_band_is_not_constant(self):
        p = OVERSHOOT_PATH
        assert [t for t, _ in transitions(p, 0.01)] == [0.25, 1.0]
        for path, t_from, t_to, near in ((p, 0.0, 1.0, 0.25), (reversed_path(p), 1.0, 0.0, 0.75)):
            with pytest.raises(ValueError, match="not constant") as err:
                entrance_map(path, t_from, t_to)
            # where the radius enters the edge's band on its way up
            assert float(str(err.value).split("near t=")[1]) == pytest.approx(near)
        # from inside the band of the end, the end is entered
        assert entrance_map(p, 0.9, 1.0).vertex_map == (0, 1)

    def test_critical_still_paths_refuse_across_an_instant(self):
        # an instant strictly between the ends: one at t_from may carry the
        # label of the interval that follows it
        rng = random.Random(5)
        refused = 0
        for _ in range(150):
            p = critical_still_path(rng)
            instants = [t for t, _ in transitions(p, 0.01)]
            for _ in range(4):
                t_from, t_to = (rng.choice(instants) if instants and rng.random() < 0.5
                                else rng.random() for _ in range(2))
                lo, hi = sorted((t_from, t_to))
                if not any(lo < t < hi for t in instants):
                    continue
                with pytest.raises(ValueError, match="not constant"):
                    entrance_map(p, t_from, t_to)
                refused += 1
        assert refused >= 200

    def test_constant_label_renaming(self):
        p = constant_path()
        m = entrance_map(p, 0.1, 0.9)
        assert m.vertex_map == (0, 1)
        assert is_simplicial(m) and m.is_vertex_surjective()

    def test_merge_sends_both_to_one(self):
        m = entrance_map(merge_path(), 0.0, 1.0)
        assert m.vertex_map == (0, 0)
        assert m.target.n_vertices == 1

    def test_ramp_onto_edge(self, named_classes):
        p = PLPath(1, (0.0, 1.0), (((0.0,), (0.0,)), ((1.0,), (1.0,))), (0.4, 0.5))
        m = entrance_map(p, 0.0, 1.0)
        assert m.vertex_map == (0, 1)
        assert canonical_form(m.source).key == named_classes["two_points"].key
        assert canonical_form(m.target).key == named_classes["edge"].key
        assert is_simplicial(m) and m.is_vertex_surjective()

    def test_concatenation_functoriality(self):
        p = constant_path()
        whole = entrance_map(p, 0.1, 0.8)
        first = entrance_map(p, 0.1, 0.4)
        second = entrance_map(p, 0.4, 0.8)
        assert compose(first, second) == whole

    def test_constancy_violation_detected(self):
        with pytest.raises(ValueError, match="constant"):
            entrance_map(ramp_path(), 0.1, 0.9)

    def test_reverse_direction(self, named_classes):
        p = ramp_path()
        m = entrance_map(p, 0.75, 0.5)  # backwards into the instant
        assert canonical_form(m.source).key == named_classes["edge"].key
        assert canonical_form(m.target).key == named_classes["edge"].key

    def test_an_excursion_inside_the_safe_ball_is_not_constant(self):
        # the pair is critical at t = 1, so the safe ball there reaches
        # back to t = 0.5, past both bends of the dip below its band
        p = inner_excursion_path()
        assert [round(t, 6) for t, _ in transitions(p, 0.01)] == [
            0.9, 0.900446, 0.900545, 0.99995]
        for path, t_from, t_to, near in ((p, 0.0, 1.0, 0.9), (reversed_path(p), 1.0, 0.0, 0.1)):
            with pytest.raises(ValueError, match="not constant") as err:
                entrance_map(path, t_from, t_to)
            assert float(str(err.value).split("near t=")[1]) == pytest.approx(near)
        # the zigzag enters each instant from its neighbouring intervals
        # only, and those maps exist
        assert [zigzag_sha256(path) for path in (p, reversed_path(p))] == \
            INNER_EXCURSION_ZIGZAG_SHA256

    def test_one_local_map_per_map(self, monkeypatch):
        spans, snaps = [], []

        def counted_entrance_map(path, t_from, t_to):
            spans.append((t_from, t_to))
            return entrance_map(path, t_from, t_to)

        def counted_local_map(source, target):
            snaps.append(target)
            return local_map(source, target)

        monkeypatch.setattr(paths, "entrance_map", counted_entrance_map)
        monkeypatch.setattr(paths, "local_map", counted_local_map)
        zigzag(cech_path(triangle_config(), 0.9), 0.01)
        # two instants, each entered from both sides: no map is an identity
        assert len(spans) == 4 and all(t_from != t_to for t_from, t_to in spans)
        assert len(snaps) == len(spans)

    def test_the_local_map_is_taken_at_the_float_beside_the_instant(self, monkeypatch):
        spans, sources = [], []

        def counted_entrance_map(path, t_from, t_to):
            spans.append((path, t_from, t_to))
            return entrance_map(path, t_from, t_to)

        def counted_local_map(source, target):
            sources.append(source)
            return local_map(source, target)

        monkeypatch.setattr(paths, "entrance_map", counted_entrance_map)
        monkeypatch.setattr(paths, "local_map", counted_local_map)
        still = cech_path(triangle_config(), 0.9)
        moving = random_moving_path(random.Random(11))
        for path in (still, moving):
            zigzag(path, 0.01)
        # each instant entered from both sides: both time directions, on
        # a still growth path and on a moving one
        assert {(path, t_to < t_from) for path, t_from, t_to in spans} == {
            (still, False), (still, True), (moving, False), (moving, True)}
        assert len(sources) == len(spans)
        for (path, t_from, t_to), source in zip(spans, sources):
            assert source == evaluate(path, math.nextafter(t_to, t_from))

    def test_a_map_across_one_float_builds(self):
        p = cech_path(triangle_config(), 0.9)
        (t_star, _), *_ = transitions(p, 0.01)
        for t_from, t_to in ((0.1, math.nextafter(0.1, 1.0)),
                             (math.nextafter(t_star, 0.0), t_star)):
            m = entrance_map(p, t_from, t_to)
            assert m.source == m.target and m.vertex_map == (0, 1, 2)

    def test_a_still_map_reads_its_stretch_once(self, monkeypatch):
        """One run and one zone at t_from per still map, shared by the
        certification and the renaming, and read off the stretch's walk:
        the maps scan no radius."""
        spans, runs, zones, read = [], [], [], []

        def counted_entrance_map(path, t_from, t_to):
            spans.append((t_from, t_to))
            runs.clear()
            zones.clear()
            read.clear()
            m = entrance_map(path, t_from, t_to)
            assert len(runs) == 1
            assert zones.count(t_from) == 1
            assert read == []
            return m

        def counted_still_run(*args):
            runs.append(args)
            return _still_run(*args)

        def counted_zone_at(path, seg, t):
            zones.append(t)
            return _zone_at(path, seg, t)

        def counted_read_scan(scan, r):
            read.append(r)
            return read_scan(scan, r)

        monkeypatch.setattr(paths, "entrance_map", counted_entrance_map)
        monkeypatch.setattr(paths, "_still_run", counted_still_run)
        monkeypatch.setattr(paths, "_zone_at", counted_zone_at)
        monkeypatch.setattr(paths, "read_scan", counted_read_scan)
        zigzag(cech_path(triangle_config(), 0.9), 0.01)
        assert len(spans) == 4

    def test_one_walk_per_stretch(self, monkeypatch):
        searched = []

        def counted_first_past(*args):
            searched.append(args)
            return _first_past(*args)

        monkeypatch.setattr(paths, "_first_past", counted_first_past)
        path = cech_path(triangle_config(), 0.9)
        z = zigzag(path, 0.01)
        # the stretch's one walk searches each edge it crosses once (edges
        # crossed at one float give one zone change): the four maps read
        # the record that the transitions made
        assert len(z.maps) == 2
        assert len(set(searched)) == len(searched) >= len(path._walks[0][0]) == 5

    def test_a_map_from_mid_stretch_walks_the_whole_stretch(self):
        """The first reader of a stretch's walk may start past its first
        segment: the walk still covers the stretch, is kept for each of
        its segments, and is the one that ``transitions`` makes."""

        def still_path():
            tracks = tuple((p,) * 5 for p in triangle_config().points)
            return PLPath(2, (0.0, 0.25, 0.5, 0.75, 1.0), tracks, (0.1, 0.2, 0.3, 0.4, 0.6))

        walked = still_path()
        (t_to, _), *_ = transitions(walked, 0.01)
        path = still_path()
        assert not path._walks
        m = entrance_map(path, 0.6, t_to)  # from segment 2, into segment 3
        walk = path._walks[2]
        assert path._walks == dict.fromkeys(range(4), walk)
        assert all(w is walk for w in path._walks.values())
        assert walk == walked._walks[0]
        assert m == entrance_map(walked, 0.6, t_to)

    def test_bisected_crossings_match_the_run_walk(self):
        """The crossings between two times, two bisections of the
        crossings of their stretch's record, are the zone changes of the
        reference bisection on ``evaluate`` between them."""
        rng = random.Random(35)

        def growth_path(rng):
            return cech_path(random_plane_config(rng, 2, 5), 0.9)

        compared = met = 0
        for make in (uniform_still_path, critical_still_path, growth_path):
            for _ in range(60):
                forward = make(rng)
                for p in (forward, reversed_path(forward)):
                    changes = reference_zone_changes(p, 0, len(p.breakpoints) - 1)
                    instants = [t for t, _ in transitions(p, 0.01)]
                    for t_from, t_to in itertools.permutations(
                            rng.sample([rng.random(), rng.random(), *instants], 2)):
                        run = _still_run(p, t_from, t_to)
                        lo, hi = sorted((t_from, t_to))
                        crossings = _stretch_walk(p, run[0])[0]
                        got = crossings[bisect.bisect_right(crossings, lo):
                                        bisect.bisect_left(crossings, hi)]
                        assert [t.hex() for t in got] == [
                            t.hex() for t in changes if lo < t < hi]
                        compared += 1
                        met += len(got)
        assert compared >= 700 and met >= 1_000

    def test_a_jump_within_one_ulp_is_refused_in_bounded_time(self, monkeypatch):
        # the second track jumps from 1 to 10 within one ulp of time: the
        # midpoint of 0.5 and t1 rounds back to 0.5, outside the safe ball
        t1 = math.nextafter(0.5, 1.0)
        p = PLPath(1, (0.0, 0.5, t1, 1.0), (((0.0,),) * 4, ((1.0,), (1.0,), (10.0,), (10.0,))),
                   (0.1,) * 4)
        calls = []

        def bounded(*args):
            calls.append(args)
            assert len(calls) <= 200, "entrance_map does not stop"
            return evaluate(*args)

        monkeypatch.setattr(paths, "evaluate", bounded)
        with pytest.raises(ValueError, match="safe ball"):
            entrance_map(p, 0.25, t1)

    def test_still_maps_match_the_reference(self):
        rng = random.Random(6066)
        tally = {"map": 0, "refused": 0, "mended": 0}
        for _ in range(300):
            p = uniform_still_path(rng)
            instants = [t for t, _ in transitions(p, 0.01)]
            for t_from, t_to in itertools.permutations(
                    rng.sample([rng.random(), rng.random(), *instants], 2)):
                got = map_or_refusal(entrance_map, p, t_from, t_to)
                expected = map_or_refusal(reference_entrance_map, p, t_from, t_to)
                if got != expected:
                    # the reference certified [t_from, tau] only, and mapped
                    # across an instant inside the safe ball of x(t_to)
                    assert got == f"label is not constant on [{t_from}, {t_to}): changes"
                    assert any(min(t_from, t_to) <= t <= max(t_from, t_to) and t != t_to
                               for t in instants)
                    tally["mended"] += 1
                tally["refused" if isinstance(got, str) else "map"] += 1
        assert tally["map"] >= 150 and tally["refused"] >= 300 and tally["mended"] >= 1

    def test_moving_maps_match_the_reference(self):
        rng = random.Random(11)
        tally = {"map": 0, "refused": 0}
        for _ in range(150):
            p = random_moving_path(rng)
            for t_from, t_to in itertools.permutations((rng.random(), rng.random())):
                got = map_or_refusal(entrance_map, p, t_from, t_to)
                assert got == map_or_refusal(reference_entrance_map, p, t_from, t_to)
                tally["refused" if isinstance(got, str) else "map"] += 1
        assert tally["map"] >= 100 and tally["refused"] >= 100


class TestZigzag:
    def test_constant_path(self):
        z = zigzag(constant_path(), 0.01)
        assert z.times == ()
        assert len(z.interval_classes) == 1
        assert z.maps == ()

    def test_radius_ramp_structure(self, named_classes):
        z = zigzag(ramp_path(), 0.01)
        assert len(z.times) == 1
        assert [lbl.cls.key for lbl in z.interval_classes] == [
            named_classes["two_points"].key,
            named_classes["edge"].key,
        ]
        assert z.transition_classes[0].cls.key == named_classes["edge"].key
        left, right = z.maps[0]
        assert left.vertex_map == (0, 1)
        # right map comes from inside the edge stratum: identity renaming
        assert right.vertex_map == (0, 1)
        assert right.source.simplex_set == right.target.simplex_set

    def test_growth_times_are_the_same_on_every_backend(self):
        # radii bit-equal across backends give equal transition times: the
        # instant is the time v/(1+v) of the scan radius v, one division
        cfg = PointConfig(2, ((0.7748417797458663, 0.1685230873018202),
                              (0.3919152606639159, 0.023123830219864083),
                              (0.7729798597694224, 0.38282264820311507),
                              (0.2247346192298202, 0.7185251345569895)))
        v = 0.20480091734182007  # the edge {0, 1}
        assert subset_radii(cfg).radii[1] == v
        assert zigzag(cech_path(cfg, 0.9), 0.01).times[1] == v / (1.0 + v) == 0.16998735176403834

    def test_triangle_growth_two_transitions(self, named_classes):
        z = zigzag(cech_path(triangle_config(), 0.9), 0.01)
        keys = [lbl.cls.key for lbl in z.interval_classes]
        assert keys == [
            named_classes["discrete3"].key,
            named_classes["cycle3"].key,
            named_classes["filled3"].key,
        ]
        tkeys = [lbl.cls.key for lbl in z.transition_classes]
        assert tkeys == [named_classes["cycle3"].key, named_classes["filled3"].key]

    def test_all_maps_validate(self):
        z = zigzag(cech_path(triangle_config(), 0.9), 0.01)
        for (left, right), tlbl in zip(z.maps, z.transition_classes):
            for m in (left, right):
                assert is_simplicial(m) and m.is_vertex_surjective()
                assert canonical_form(m.target).key == tlbl.cls.key

    def test_side_classes_dominate_transition(self):
        z = zigzag(ramp_path(), 0.01)
        for k, tlbl in enumerate(z.transition_classes):
            for side in (z.interval_classes[k], z.interval_classes[k + 1]):
                assert dominates(side.cls.canonical, tlbl.cls.canonical) is not None

    def test_reversal_reflects_times_and_classes(self):
        p = ramp_path()
        z = zigzag(p, 0.01)
        zr = zigzag(reversed_path(p), 0.01)
        assert len(z.times) == len(zr.times)
        for t, tr in zip(z.times, reversed(zr.times)):
            assert tr == pytest.approx(1.0 - t, abs=1e-5)
        assert [l.cls.key for l in zr.interval_classes] == [
            l.cls.key for l in reversed(z.interval_classes)
        ]

    def test_merge_at_endpoint_zero_width_interval(self, named_classes):
        z = zigzag(merge_path(), 0.01)
        assert len(z.times) == 1
        assert z.interval_classes[-1].cls.key == named_classes["point"].key
        left, right = z.maps[0]
        assert left.vertex_map == (0, 0)
        assert right.vertex_map == (0,)  # identity at the merged endpoint

    @pytest.mark.parametrize("radius, t_star, side", [((0.5, 1e5), 0.0, 0), ((1e5, 0.5), 1.0, 1)])
    def test_transition_at_an_end_enters_by_the_identity(self, named_classes, radius, t_star,
                                                         side):
        # the edge appears at the critical radius 0.5 itself, so the outer
        # interval on that side has zero width
        p = PLPath(1, (0.0, 1.0), (((0.0,), (0.0,)), ((1.0,), (1.0,))), radius)
        z = zigzag(p, 0.01)
        assert z.times == (t_star,)
        outer = z.maps[0][side]
        assert outer == entrance_map(p, t_star, t_star)
        assert outer.source == outer.target and outer.vertex_map == (0, 1)
        assert z.interval_classes[side] == z.transition_classes[0] == stratum_label(
            evaluate(p, t_star))
        assert all(lbl.cls.key == named_classes["edge"].key for lbl in z.interval_classes)

    @pytest.mark.parametrize("radius", [(0.5 + 1.5e-9, 0.3), (0.3, 0.5 + 1.5e-9)])
    def test_an_outer_interval_is_read_at_the_path_end(self, named_classes, radius):
        # the instant, where the radius leaves the edge's band, lies 7.5e-9
        # from an end: the midpoint of the outer interval is inside the band
        p = PLPath(1, (0.0, 1.0), (((0.0,),) * 2, ((1.0,),) * 2), radius)
        z = zigzag(p, 0.01)
        assert len(z.times) == 1 and min(z.times[0], 1.0 - z.times[0]) < 1e-8
        outer = z.interval_classes[0 if radius[0] > radius[1] else 1]
        assert outer.cls.key == named_classes["edge"].key and not outer.degenerate
        assert z.transition_classes[0].degenerate

    def test_critical_still_path_classes_are_the_labels(self):
        rng = random.Random(1)
        tally = {"zigzag": 0, "refused": 0}
        for _ in range(150):
            p = critical_still_path(rng)
            try:
                z = zigzag(p, 0.01)
            except ValueError:
                tally["refused"] += 1
                continue
            tally["zigzag"] += 1
            bounds = (0.0, *z.times, 1.0)
            for k, (a, b) in enumerate(zip(bounds, bounds[1:])):
                if b - a <= 2.0 * paths._BRACKET_FLOOR:
                    continue
                adjacent = z.transition_classes[max(k - 1, 0):k + 1]
                samples = [a + (b - a) * j / 8 for j in range(1, 8)]
                samples += [0.0] if k == 0 else []
                samples += [1.0] if k == len(z.times) else []
                for t in samples:
                    label = stratum_label(evaluate(p, t))
                    if label not in adjacent:
                        assert label == z.interval_classes[k], (k, t)
        assert tally["zigzag"] >= 120

    def test_start_at_critical_radius(self, named_classes):
        # the degenerate stratum occupies a tolerance-band sliver at t = 0;
        # the zigzag exits it immediately
        p = PLPath(1, (0.0, 1.0), (((0.0,), (0.0,)), ((1.0,), (1.0,))), (0.5, 0.9))
        z = zigzag(p, 0.01)
        assert len(z.times) == 1
        assert z.times[0] < 1e-6
        assert z.interval_classes[0].degenerate
        assert all(lbl.cls.key == named_classes["edge"].key for lbl in z.interval_classes)
        for left, right in z.maps:
            assert is_simplicial(left) and is_simplicial(right)

    def test_oscillating_radius_alternates(self, named_classes):
        p = PLPath(
            1,
            (0.0, 0.25, 0.5, 0.75, 1.0),
            (((0.0,),) * 5, ((1.0,),) * 5),
            (0.3, 0.7, 0.3, 0.7, 0.3),
        )
        z = zigzag(p, 0.01)
        assert [round(t, 6) for t in z.times] == [0.125, 0.375, 0.625, 0.875]
        assert [lbl.cls.key for lbl in z.interval_classes] == [
            named_classes[k].key
            for k in ("two_points", "edge", "two_points", "edge", "two_points")
        ]
        assert all(lbl.degenerate for lbl in z.transition_classes)
        # both classes appear, totally ordered: still reads as a filtration
        chain = as_filtration(z)
        assert chain is not None
        assert [c.key for c in chain.classes] == [
            named_classes["two_points"].key,
            named_classes["edge"].key,
        ]


def reference_still_instants(path):
    """(time, critical radius) where the radius polyline of a still path
    crosses each distinct critical radius of its configuration, in time
    order: the definition the exact transitions reproduce."""
    criticals = cech_filtration(evaluate(path, 0.0).config).critical_radii[1:]
    bp, radius = path.breakpoints, path.radius
    out = []
    for seg in range(len(bp) - 1):
        ra, rb = radius[seg], radius[seg + 1]
        crossed = sorted((rho for rho in criticals if min(ra, rb) < rho < max(ra, rb)),
                         reverse=rb < ra)
        out += [(bp[seg] + (rho - ra) / (rb - ra) * (bp[seg + 1] - bp[seg]), rho)
                for rho in crossed]
    return out


class TestStillStretches:
    """Where no track moves, the instants come from the one scan and the
    radius polyline, whatever the resolution."""

    def test_narrow_excursion_is_found(self, named_classes):
        p = narrow_excursion_path()
        events = transitions(p, 0.01)
        assert [round(t, 9) for t, _ in events] == [0.504, 0.506]
        assert all(lbl.cls.key == named_classes["edge"].key and lbl.degenerate
                   for _, lbl in events)
        with pytest.raises(ValueError, match="not constant"):
            entrance_map(p, 0.0, 1.0)
        z = zigzag(p, 0.01)
        assert [lbl.cls.key for lbl in z.interval_classes] == [
            named_classes[k].key for k in ("two_points", "edge", "two_points")]

    @pytest.mark.parametrize("radius", [
        # grazes the edge's band without reaching 0.5
        (0.3, 0.5 - 5e-10, 0.3),
        # turns at the critical radius itself
        (0.3, 0.5, 0.3),
    ])
    def test_a_turn_inside_a_band_is_one_instant(self, named_classes, radius):
        p = PLPath(1, (0.0, 0.5, 1.0), (((0.0,),) * 3, ((1.0,),) * 3), radius)
        for path in (p, reversed_path(p)):
            z = zigzag(path, 0.5)
            assert z.times == (0.5,)
            assert [lbl.cls.key for lbl in z.interval_classes] == [named_classes["two_points"].key] * 2
            assert z.transition_classes[0].cls.key == named_classes["edge"].key
            assert z.transition_classes[0].degenerate

    @pytest.mark.parametrize("peak", [1.5e-9, 2e-9])
    def test_a_peak_just_past_a_band_is_a_short_interval(self, named_classes, peak):
        # the radius leaves the band of 0.5 for a few 1e-9 of time: an
        # entrance map from there starts inside the band of its instant
        p = PLPath(1, (0.0, 0.5, 1.0), (((0.0,),) * 3, ((1.0,),) * 3), (0.3, 0.5 + peak, 0.3))
        for path in (p, reversed_path(p)):
            z = zigzag(path, 0.01)
            assert z.times == pytest.approx((0.5 - peak * 2.5, 0.5 + peak * 2.5), abs=1e-15)
            assert [(lbl.cls.key, lbl.degenerate) for lbl in z.interval_classes] == [
                (named_classes[k].key, False) for k in ("two_points", "edge", "two_points")]
            assert all(lbl.cls.key == named_classes["edge"].key and lbl.degenerate
                       for lbl in z.transition_classes)

    @pytest.mark.parametrize("radius", [
        # holds on the critical radius
        (0.3, 0.5, 0.5, 0.7),
        # crosses 0.5 three times without leaving its band
        (0.3, 0.5 + 5e-10, 0.5 - 5e-10, 0.7),
    ])
    def test_a_stay_inside_a_band_is_an_interval(self, named_classes, radius):
        p = PLPath(1, (0.0, 0.25, 0.75, 1.0), (((0.0,),) * 4, ((1.0,),) * 4), radius)
        for path, classes in ((p, ("two_points", "edge", "edge")),
                              (reversed_path(p), ("edge", "edge", "two_points"))):
            z = zigzag(path, 0.01)
            assert z.times == pytest.approx((0.25, 0.75), abs=1e-8)
            assert [(lbl.cls.key, lbl.degenerate) for lbl in z.interval_classes] == [
                (named_classes[classes[0]].key, False), (named_classes["edge"].key, True),
                (named_classes[classes[2]].key, False)]
            assert all(lbl.degenerate for lbl in z.transition_classes)

    def test_instants_match_the_radius_polyline(self):
        rng = random.Random(31)
        instants = 0
        for _ in range(40):
            while True:
                try:
                    cfg = PointConfig(2, tuple((rng.uniform(0, 1), rng.uniform(0, 1))
                                               for _ in range(rng.randint(2, 5))))
                    break
                except ValueError:
                    continue
            n_bp = rng.randint(3, 8)
            bp = (0.0, *sorted(rng.uniform(0.01, 0.99) for _ in range(n_bp - 2)), 1.0)
            radius = tuple(rng.uniform(0.0, 0.8) for _ in bp)
            forward = PLPath(2, bp, tuple((q,) * n_bp for q in cfg.points), radius)
            criticals = cech_filtration(cfg).critical_radii[1:]
            for path in (forward, reversed_path(forward)):
                expected = reference_still_instants(path)
                z = zigzag(path, 0.01)
                assert len(z.times) == len(expected)
                instants += len(expected)
                for t, (t_ref, rho) in zip(z.times, expected):
                    assert abs(evaluate(path, t).radius - rho) <= EPS_GEO
                    assert t == pytest.approx(t_ref, abs=1e-9)
                bounds = [0.0, *(t for t, _ in expected), 1.0]
                for (a, b), lbl in zip(zip(bounds, bounds[1:]), z.interval_classes):
                    # the interval's label, wherever the radius is clear of
                    # every critical radius
                    for t in (a + u * (b - a) for u in (0.001, 0.25, 0.5, 0.75, 0.999)):
                        x = evaluate(path, t)
                        if all(abs(x.radius - rho) > 1e-8 for rho in criticals):
                            assert stratum_label(x) == lbl
        assert instants > 100

    def test_a_radius_an_ulp_off_a_band_edge_reads_one_zone(self, named_classes):
        # the equilateral triangle's edges have radii 0.5 and, rounded, one
        # ulp below; as the radius falls past their bands, "spanned" and
        # "critical" must change at the same radius or the label is not
        # constant between the instants
        tri = PointConfig(2, ((0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3) / 2)))
        p = PLPath(2, (0.0, 1.0), tuple((q, q) for q in tri.points), (0.500000002, 0.499999997))
        z = zigzag(p, 0.01)
        assert [(lbl.cls.key, lbl.degenerate) for lbl in z.interval_classes] == [
            (named_classes["cycle3"].key, False), (named_classes["cycle3"].key, True),
            (named_classes["discrete3"].key, False)]
        # radii wandering within a few EPS_GEO of the edge radii and the circumradius
        rng = random.Random(5)
        for _ in range(100):
            edge = rng.choice([0.5, 0.49999999999999994, 1 / math.sqrt(3)])
            n_bp = rng.randint(2, 4)
            bp = (0.0, *sorted(rng.uniform(0.01, 0.99) for _ in range(n_bp - 2)), 1.0)
            radius = tuple(edge + rng.uniform(-4e-9, 4e-9) for _ in bp)
            zigzag(PLPath(2, bp, tuple((q,) * n_bp for q in tri.points), radius), 0.01)


class TestCrossingWalk:
    """The marks of a still stretch's record against the run bisection
    that the walk replaced."""

    def test_matches_the_run_bisection(self):
        rng = random.Random(7)
        met = turns = 0
        for _ in range(200):
            forward = random_still_path(rng)
            radii = subset_radii(forward._still[0][0]).radii
            for path in (forward, reversed_path(forward)):
                bp, last = path.breakpoints, len(path.breakpoints) - 1
                meets = reference_crossings(path, 0, last, radii)
                inner = reference_inner_bends(path, 0, last)
                marks = _stretch_walk(path, 0)[2]
                assert [t.hex() for t in marks] == [
                    t.hex() for t in sorted((*meets, bp[0], bp[last], *(bp[s] for s in inner)))]
                met += len(meets)
                turns += len(inner)
        assert met > 5_000 and turns > 1_000


class TestMovingTracks:
    def test_approaching_points_in_plane(self, named_classes):
        # second point slides from (1,0) to (0.4,0) at radius 0.3: the edge
        # forms when the gap 1 - 0.6 t reaches 0.6, at t = 2/3
        p = PLPath(
            2,
            (0.0, 1.0),
            ((((0.0, 0.0)), (0.0, 0.0)), ((1.0, 0.0), (0.4, 0.0))),
            (0.3, 0.3),
        )
        z = zigzag(p, 0.01)
        assert len(z.times) == 1
        assert z.times[0] == pytest.approx(2.0 / 3.0, abs=1e-5)
        assert [lbl.cls.key for lbl in z.interval_classes] == [
            named_classes["two_points"].key,
            named_classes["edge"].key,
        ]
        assert z.transition_classes[0].degenerate

    def test_rigid_rotation_has_no_transitions(self):
        # rotating an equilateral triangle rigidly keeps every label fixed
        import math as m

        steps = 8
        bps = tuple(k / steps for k in range(steps + 1))
        base = [(0.0, 0.0), (1.0, 0.0), (0.5, SQRT3 / 2)]
        cx, cy = 0.5, SQRT3 / 6

        def rot(p, ang):
            x, y = p[0] - cx, p[1] - cy
            return (
                cx + x * m.cos(ang) - y * m.sin(ang),
                cy + x * m.sin(ang) + y * m.cos(ang),
            )

        tracks = tuple(
            tuple(rot(p, 0.9 * t) for t in bps) for p in base
        )
        p = PLPath(2, bps, tracks, (0.55,) * len(bps))
        assert transitions(p, 0.02) == []

    def test_flyby_gains_and_loses_an_edge(self, named_classes):
        # a third point passes near a fixed pair: its gap to (0.6, 0) is
        # sqrt(0.36 + (2 - 4t)^2), below the critical 0.7 for |2 - 4t| <=
        # sqrt(0.13): edge+point -> path -> edge+point
        p = PLPath(
            2,
            (0.0, 1.0),
            (
                ((0.0, 0.0), (0.0, 0.0)),
                ((0.6, 0.0), (0.6, 0.0)),
                ((1.2, 2.0), (1.2, -2.0)),
            ),
            (0.35, 0.35),
        )
        z = zigzag(p, 0.01)
        keys = [lbl.cls.key for lbl in z.interval_classes]
        assert keys == [
            named_classes["edge_plus_point"].key,
            named_classes["path3"].key,
            named_classes["edge_plus_point"].key,
        ]
        assert len(z.times) == 2
        half_width = math.sqrt(0.13) / 4.0
        assert z.times[0] == pytest.approx(0.5 - half_width, abs=1e-5)
        assert z.times[1] == pytest.approx(0.5 + half_width, abs=1e-5)


@pytest.fixture(scope="module")
def seed_11_moving_paths():
    """The 300 seed-11 ``random_moving_path``s, in turn."""
    rng = random.Random(11)
    return [random_moving_path(rng) for _ in range(300)]


#: a point that dips from 1.0 to 0.4 and back within 0.004 of time, beside
#: a point at 0.0 under radius 0.3: at t = 0.505 alone the pair is the
#: critical edge
NARROW_EXCURSION = PLPath(1, (0.0, 0.503, 0.505, 0.507, 1.0),
                          (((0.0,),) * 5, ((1.0,), (1.0,), (0.4,), (1.0,), (1.0,))), (0.3,) * 5)


#: the path of ``TestTransitions::test_a_dominated_instant_absorbs_the_next``:
#: the filled triangle loses its 2-simplex and the edge (0, 2), then the
#: path on three vertices, taken on about [0.5000497, 0.5000500], loses
#: the edge (0, 1), two instants within the merge width of 1e-5
CLOSE_INSTANTS = PLPath(1, (0.0, 0.5, 0.5 + 1e-4, 1.0),
                        (((0.0,),) * 4, ((1.0,),) * 4, ((1.001,), (1.001,), (1.0011,), (1.0011,))),
                        (0.6, 0.6, 0.4, 0.4))


class TestMovingExcursions:
    """Moving paths whose label leaves and comes back between two label
    checks of the transition grid, regression cases for certified events
    on moving stretches: ``zigzag`` refuses the seed-11 paths "label is
    not constant", reads the narrow excursion as one interval, and merges
    the close instants into one that drops the path on three vertices."""

    @pytest.mark.xfail(strict=True, raises=ValueError,
                       reason="label is not constant: the grid misses a stratum")
    @pytest.mark.parametrize("index", [1, 33, 90, 197, 227, 243])
    def test_a_seed_11_path_gives_a_zigzag(self, seed_11_moving_paths, index):
        path = seed_11_moving_paths[index]
        zigzag(path, 0.01)
        assert not mislabelled_instant(path)

    def test_the_narrow_excursion_touches_the_edge(self, named_classes):
        assert stratum_label(evaluate(NARROW_EXCURSION, 0.505)).cls.key == named_classes["edge"].key
        for t in (0.0, 0.504, 0.506, 1.0):
            label = stratum_label(evaluate(NARROW_EXCURSION, t))
            assert label.cls.key == named_classes["two_points"].key

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="no instant: the grid steps over the excursion")
    def test_an_excursion_narrower_than_a_grid_step_is_in_the_zigzag(self):
        z = zigzag(NARROW_EXCURSION, 0.01)
        assert stratum_label(evaluate(NARROW_EXCURSION, 0.505)) in z.transition_classes

    def test_the_close_instants_pass_the_path_on_three_vertices(self, named_classes):
        label = stratum_label(evaluate(CLOSE_INSTANTS, 0.50004985))
        assert (label.cls.key, label.degenerate) == (named_classes["path3"].key, False)

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="the merge of two instants within its width keeps the lower label")
    def test_two_instants_within_the_merge_width_keep_every_label(self):
        z = zigzag(CLOSE_INSTANTS, 0.01)
        labels = z.interval_classes + z.transition_classes
        for t in (*(k / 64 for k in range(65)), 0.50004985):
            assert stratum_label(evaluate(CLOSE_INSTANTS, t)) in labels


class TestAsFiltration:
    def test_triangle_chain(self, named_classes):
        z = zigzag(cech_path(triangle_config(), 0.9), 0.01)
        chain = as_filtration(z)
        assert chain is not None
        assert [c.key for c in chain.classes] == [
            named_classes["discrete3"].key,
            named_classes["cycle3"].key,
            named_classes["filled3"].key,
        ]
        for m in chain.maps:
            assert is_simplicial(m) and m.is_vertex_surjective()
            assert len(set(m.vertex_map)) == m.source.n_vertices

    def test_merge_path_yields_none(self):
        assert as_filtration(zigzag(merge_path(), 0.01)) is None

    def test_radius_ramp_chain(self, named_classes):
        chain = as_filtration(zigzag(ramp_path(), 0.01))
        assert chain is not None
        assert [c.key for c in chain.classes] == [
            named_classes["two_points"].key,
            named_classes["edge"].key,
        ]

    def test_reversed_growth_path_reads_as_the_same_chain(self):
        # the shrinking path meets the filled triangle first and the
        # discrete one last, so its classes first appear against the chain
        path = cech_path(triangle_config(), 0.9)
        forward = as_filtration(zigzag(path, 0.01))
        backward = as_filtration(zigzag(reversed_path(path), 0.01))
        assert backward is not None
        assert [c.key for c in backward.classes] == [c.key for c in forward.classes]
        assert len(backward.classes) == 3

    def test_matches_the_pairwise_definition_on_moving_paths(self):
        rng = random.Random(11)
        tally = {"chain": 0, "reordered": 0, "none": 0}
        for _ in range(40):
            try:
                z = zigzag(random_moving_path(rng), 0.01)
            except ValueError:  # the transition grid missed a stratum
                continue
            got, expected = as_filtration(z), reference_as_filtration(z)
            if expected is None:
                assert got is None
                tally["none"] += 1
                continue
            assert got is not None
            assert list(got.classes) == expected[0]
            assert list(got.maps) == expected[1]
            tally["chain"] += 1
            tally["reordered"] += classes_in_time_order(z) != list(got.classes)
        assert tally["chain"] >= 30 and tally["reordered"] >= 10 and tally["none"] >= 1


#: the chord error of the reference growth path on each full step
CHORD_TOL = 1e-6


def on_u_grid(k: int) -> float:
    """Time of the reference growth path's k-th breakpoint."""
    return 1.0 - (1.0 + k * math.sqrt(CHORD_TOL)) ** -2


def chord_path(config: PointConfig, t_max: float) -> PLPath:
    """The reference growth path, as ``cech_path`` built it before its
    breakpoints sat on the scan: the chords of t/(1-t) between the times
    ``on_u_grid`` below ``t_max``, then ``t_max``, then the radius held.

    With u = (1-t)^(-1/2) the radius is u^2 - 1, and its chord between u_a
    and u_b lies above it by at most (u_b - u_a)^2, so the grid step
    sqrt(``CHORD_TOL``) in u keeps every chord within ``CHORD_TOL``.
    """
    steps = math.ceil(((1.0 - t_max) ** -0.5 - 1.0) / math.sqrt(CHORD_TOL)) + 1
    ts = [on_u_grid(k) for k in range(steps)]
    while ts[-1] >= t_max:
        ts.pop()
    ts.append(t_max)
    radii = [t / (1.0 - t) for t in ts]
    ts.append(1.0)
    radii.append(radii[-1])
    return PLPath(config.dim, tuple(ts), tuple((p,) * len(ts) for p in config.points),
                  tuple(radii))


def chord_error(t_a, r_a, t_b, r_b) -> Fraction:
    """Exact height of the radius chord over t/(1-t) at u* = sqrt(u_a * u_b),
    u = (1-t)^(-1/2), where the chord is highest above the curve.

    The float time of u* is off by a rounding error, but the height is
    stationary there, so that error does not show in the result.
    """
    t_star = 1.0 - math.sqrt((1.0 - t_a) * (1.0 - t_b))
    ta, tb, ra, rb, ts = map(Fraction, (t_a, t_b, r_a, r_b, t_star))
    return ra + (ts - ta) / (tb - ta) * (rb - ra) - ts / (1 - ts)


#: three times on the u-grid, and one ulp to either side of each
GRID_T_MAX = [t for k in (1, 500, 2162)
              for t in (math.nextafter(on_u_grid(k), 0.0), on_u_grid(k),
                        math.nextafter(on_u_grid(k), 1.0))]


def random_plane_config(rng, n_min: int, n_max: int, side: float = 1.0) -> PointConfig:
    while True:
        pts = tuple((rng.uniform(0, side), rng.uniform(0, side))
                    for _ in range(rng.randint(n_min, n_max)))
        try:
            return PointConfig(2, pts)
        except ValueError:
            continue


def zigzag_outcome(z):
    """Everything a zigzag says but its times: classes, maps and whether
    it reads as a chain."""
    return (z.interval_classes, z.transition_classes,
            [(left.to_json_dict(), right.to_json_dict()) for left, right in z.maps],
            as_filtration(z) is None)


class TestCechPath:
    # The first two tests pin the reference chord path that
    # test_matches_the_chord_path compares with: its breakpoints, bit for
    # bit, and its chord error, the bound on how far its instants may lie
    # from those of the curve.
    @pytest.mark.parametrize("t_max", [1e-6, 0.1, 0.5, 0.9, 0.99] + GRID_T_MAX)
    def test_chord_error_is_the_tolerance_on_every_full_step(self, t_max):
        p = chord_path(PointConfig(1, ((0.0,), (1.0,))), t_max)
        bp, radius = p.breakpoints, p.radius
        assert all(a < b for a, b in zip(bp, bp[1:]))
        assert bp[-2:] == (t_max, 1.0)
        assert radius[-2] == radius[-1] == t_max / (1.0 - t_max)
        # the last segment holds the radius; the one before it ends at t_max
        for seg in range(len(bp) - 2):
            error = chord_error(bp[seg], radius[seg], bp[seg + 1], radius[seg + 1])
            assert error <= CHORD_TOL * (1 + 1e-8)
            if seg < len(bp) - 3:
                assert error >= CHORD_TOL * (1 - 1e-8)

    @pytest.mark.parametrize("t_max", [1e-6, 0.1, 0.5, 0.9, 0.99, _CECH_PATH_T_MAX] + GRID_T_MAX)
    def test_breakpoints_are_the_grid_times_below_t_max(self, t_max):
        step = math.sqrt(CHORD_TOL)
        grid = (1.0 - (1.0 + k * step) ** -2 for k in itertools.count())
        expected = list(itertools.takewhile(lambda t: t < t_max, grid)) + [t_max, 1.0]
        p = chord_path(PointConfig(1, ((0.0,), (1.0,))), t_max)
        assert list(map(float.hex, p.breakpoints)) == list(map(float.hex, expected))

    @pytest.mark.parametrize("t_max", [1e-6, 0.1, 0.35, 0.5, 0.9, 0.99, _CECH_PATH_T_MAX])
    def test_breakpoints_are_the_zone_edges_and_scan_radii_below_t_max(self, t_max):
        scan = subset_radii(triangle_config())
        top = t_max / (1.0 - t_max)
        values = {v for v in (*scan.radii, *scan.lower, *scan.upper) if v < top}
        p = cech_path(triangle_config(), t_max)
        assert (p.breakpoints[0], *p.breakpoints[-2:]) == (0.0, t_max, 1.0)
        assert (p.radius[0], *p.radius[-2:]) == (0.0, top, top)
        # one breakpoint per time, at one of the radii of that time (the
        # edges 0.49999999999999994 and 0.5 share the time 1/3)
        inner = list(zip(p.breakpoints, p.radius))[1:-2]
        assert all(v in values and t == v / (1.0 + v) for t, v in inner)
        assert {t for t, _ in inner} == {v / (1.0 + v) for v in values}

    def test_chords_stay_in_the_zone_of_the_curve(self):
        # between breakpoints the radius is not t/(1-t), but its zone is
        cfg = triangle_config()
        p, scan = cech_path(cfg, 0.9), subset_radii(cfg)
        bp = p.breakpoints
        rng = random.Random(1)
        # a midpoint of two neighbouring floats rounds onto a breakpoint,
        # where the radius is its value v and the float t/(1-t) only near it
        times = [*(rng.uniform(0, 0.9) for _ in range(300)),
                 *(t for a, b in zip(bp, bp[1:-1]) if a < (t := 0.5 * (a + b)) < b)]
        assert len(times) > 305
        for t in times:
            assert read_scan(scan, evaluate(p, t).radius) == read_scan(scan, t / (1.0 - t))

    def test_breakpoint_count_is_at_most_three_per_subset_and_three(self):
        rng = random.Random(4)
        for _ in range(30):
            cfg = random_plane_config(rng, 1, 8)
            for t_max in (0.5, 0.9, _CECH_PATH_T_MAX):
                assert len(cech_path(cfg, t_max).breakpoints) <= 3 * len(subset_radii(cfg)) + 3

    def test_each_still_instant_is_the_time_of_a_scan_radius(self):
        rng = random.Random(5)
        for _ in range(40):
            cfg = random_plane_config(rng, 2, 6)
            times = {v / (1.0 + v) for v in subset_radii(cfg).radii}
            path = cech_path(cfg, 0.9)
            forward = zigzag(path, 0.01).times
            assert forward and set(forward) <= times
            assert set(zigzag(reversed_path(path), 0.01).times) <= {1.0 - t for t in times}

    def test_every_growth_path_reverses(self):
        # at radii in the thousands, the times of a band's edges round onto
        # each other and breakpoints are dropped; the reversed times stay apart
        rng = random.Random(6)
        dropped = 0
        for side in (1.0, 100.0, 3000.0, 9000.0):
            for _ in range(10):
                cfg = random_plane_config(rng, 1, 6, side)
                scan = subset_radii(cfg)
                for t_max in (1e-6, 0.5, 0.9, 0.99, _CECH_PATH_T_MAX):
                    p = cech_path(cfg, t_max)
                    q = reversed_path(p)
                    assert q.breakpoints == tuple(1.0 - t for t in reversed(p.breakpoints))
                    top = t_max / (1.0 - t_max)
                    values = {v for v in (*scan.radii, *scan.lower, *scan.upper) if 0.0 < v < top}
                    dropped += len(values) + 3 - len(p.breakpoints)
        assert dropped > 50

    def test_matches_the_chord_path(self):
        # the chords of t/(1-t) lie at most 1e-6 above the curve, so their
        # instants are those of the curve to within 1e-6, and so are the
        # classes and maps
        rng = random.Random(6066)
        for _ in range(40):
            cfg = random_plane_config(rng, 2, 6)
            exact, chords = cech_path(cfg, 0.9), chord_path(cfg, 0.9)
            for a, b in ((exact, chords), (reversed_path(exact), reversed_path(chords))):
                za, zb = zigzag(a, 0.01), zigzag(b, 0.01)
                assert zigzag_outcome(za) == zigzag_outcome(zb)
                assert all(abs(s - t) <= 1e-6 for s, t in zip(za.times, zb.times))

    def test_radius_endpoint(self):
        p = cech_path(PointConfig(1, ((0.0,), (1.0,))), 0.5)
        assert evaluate(p, 1.0).radius == pytest.approx(1.0)

    def test_constant_after_t_max(self):
        p = cech_path(triangle_config(), 0.9)
        top = 0.9 / (1.0 - 0.9)
        assert evaluate(p, 0.95).radius == pytest.approx(top)
        assert evaluate(p, 1.0).radius == pytest.approx(top)

    def test_zigzag_classes_match_filtration(self):
        rng = random.Random(107)
        for _ in range(8):
            while True:
                pts = [(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(rng.randint(2, 4))]
                try:
                    cfg = PointConfig(2, tuple(pts))
                    break
                except ValueError:
                    continue
            z = zigzag(cech_path(cfg, 0.9), 0.01)
            filt = cech_filtration(cfg)
            expected = [
                canonical_form(c).key
                for c, r in zip(filt.complexes, filt.critical_radii)
                if r < 9.0
            ]
            assert [lbl.cls.key for lbl in z.interval_classes] == expected

    def test_singleton_constant_labels(self):
        p = cech_path(PointConfig(1, ((0.0,),)), 0.9)
        assert transitions(p, 0.05) == []

    def test_more_than_eight_points_are_refused_at_build_time(self):
        # the scan refuses them, as the zigzag would
        cfg = PointConfig(1, tuple((float(i),) for i in range(9)))
        with pytest.raises(ValueError, match="configurations with more than 8 points require "
                                             "max_dim; labels, safe balls, maps and paths take "
                                             "at most 8 points"):
            cech_path(cfg, 0.9)

    def test_t_max_validation(self):
        with pytest.raises(ValueError):
            cech_path(triangle_config(), 1.0)

    @pytest.mark.parametrize("t_max", [math.nextafter(_CECH_PATH_T_MAX, 1.0), 1.0 - 1e-6,
                                       1.0 - 1e-12, math.nextafter(1.0, 0.0), math.nan])
    def test_t_max_near_one_is_refused_before_building(self, t_max):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="t_max must lie in"):
                cech_path(triangle_config(), t_max)
            assert tracemalloc.get_traced_memory()[1] < 1 << 20
        finally:
            tracemalloc.stop()

    def test_t_max_bound_is_accepted(self):
        p = cech_path(PointConfig(1, ((0.0,), (1.0,))), _CECH_PATH_T_MAX)
        # the edge's band: its lower edge, its radius, its upper edge
        assert p.radius[1:4] == (0.5 - EPS_GEO, 0.5, 0.5 + EPS_GEO)
        assert len(p.breakpoints) == 6
        assert p.breakpoints[-2:] == (_CECH_PATH_T_MAX, 1.0)

    def test_a_far_pair_keeps_its_instant_near_one(self, named_classes):
        # at radius 5,000 one float step of time spans about 2.8e-9 of
        # radius: the band's upper edge shares the time of the radius and
        # is dropped, and the instant keeps the radius's own time
        p = cech_path(PointConfig(1, ((0.0,), (10_000.0,))), _CECH_PATH_T_MAX)
        assert len(p.breakpoints) == 5
        keys = [named_classes["two_points"].key, named_classes["edge"].key]
        for path, t_star, order in ((p, 5000.0 / 5001.0, keys),
                                    (reversed_path(p), 1.0 - 5000.0 / 5001.0, keys[::-1])):
            z = zigzag(path, 0.01)
            assert z.times == (t_star,)
            assert [lbl.cls.key for lbl in z.interval_classes] == order
            assert z.transition_classes[0].cls.key == named_classes["edge"].key

    def test_a_farther_pair_keeps_its_instant_near_one(self, named_classes):
        # at radius 9,500 the radius and its band's upper edge share the time
        # of the lower edge, 0.9998947479212714, which now reads inside the
        # band: the instant lies there, and the reversed path's at its mirror
        p = cech_path(PointConfig(1, ((0.0,), (19_000.0,))), _CECH_PATH_T_MAX)
        assert p.radius[1] == 9_500.0 - EPS_GEO
        keys = [named_classes["two_points"].key, named_classes["edge"].key]
        t_star = 0.9998947479212714
        for path, times, order in ((p, [t_star], keys),
                                   (reversed_path(p), [pytest.approx(1.0 - t_star, abs=1e-16)],
                                    keys[::-1])):
            z = zigzag(path, 0.01)
            assert list(z.times) == times
            assert [lbl.cls.key for lbl in z.interval_classes] == order
            assert not mislabelled_instant(path)
            assert as_filtration(z) is not None


#: four points whose edge {0, 1} (radius 0.23103591968551312) and triangle
#: {0, 1, 2} (0.2310359211438846) lie 1.46e-9 apart, between EPS_GEO and
#: twice it, so their tolerance bands join
JOINED_BANDS_POINTS = ((0.6364549266476008, 0.5289672515273726),
                       (0.7853245249885238, 0.09153356806262636),
                       (0.8357410465596304, 0.5046703993825288),
                       (0.37355883488139496, 0.37856632158282255))


#: the radii of the edge {0, 1} and the triangle {0, 1, 2} of
#: ``JOINED_BANDS_POINTS``, whose tolerance bands join
JOINED_RADII = (0.23103591968551312, 0.2310359211438846)


def mislabelled_instant(path):
    """Whether some instant of the path carries a label other than the one
    at its own time."""
    return any(stratum_label(evaluate(path, t)) != label for t, label in transitions(path, 0.01))


def joined_bands_path(rng):
    """``JOINED_BANDS_POINTS`` under a radius polyline of 2-7 breakpoints,
    each radius a scan radius, one of ``JOINED_RADII`` or anywhere in
    [0.22, 0.24]."""
    radii = subset_radii(PointConfig(2, JOINED_BANDS_POINTS)).radii
    n_bp = rng.randint(2, 7)
    bp = (0.0, *sorted(rng.uniform(0.01, 0.99) for _ in range(n_bp - 2)), 1.0)
    radius = []
    for _ in bp:
        u = rng.random()
        radius.append(rng.choice(radii) if u < 1 / 3 else rng.choice(JOINED_RADII) if u < 2 / 3
                      else rng.uniform(0.22, 0.24))
    return PLPath(2, bp, tuple((q,) * n_bp for q in JOINED_BANDS_POINTS), tuple(radius))


class TestJoinedBands:
    """``transitions`` makes two joined bands one instant, and
    ``entrance_map`` enters the whole of it, though at the instant's own
    radius the edge has left its band."""

    def test_still_path(self):
        bp = (0.0, 0.13182368595274965, 0.13532627007813086, 0.4300904986156574,
              0.71744484344972, 1.0)
        radius = (0.23103591968551312, 0.043592415272924775, 0.239538428565162,
                  0.07588776262411388, 0.25096652038002143, 0.1925864001471168)
        p = PLPath(2, bp, tuple((q,) * len(bp) for q in JOINED_BANDS_POINTS), radius)
        zigzag(p, 0.01)
        assert not mislabelled_instant(p)

    def test_growth_path(self):
        cfg = PointConfig(2, JOINED_BANDS_POINTS)
        p = cech_path(cfg, 0.9)
        z = zigzag(p, 0.01)
        assert not mislabelled_instant(p)
        assert as_filtration(z) is not None
        # the edge's stage, 1.46e-9 of radius wide, lies inside the joined instant
        filt = cech_filtration(cfg)
        assert [lbl.cls.key for lbl in z.interval_classes] == [
            canonical_form(c).key for c, r in zip(filt.complexes, filt.critical_radii)
            if r != JOINED_RADII[0]]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_every_well_labelled_path_gives_a_zigzag(self, seed):
        # a path with a mislabelled instant is the band-edge defect below
        rng = random.Random(seed)
        built = 0
        for _ in range(200):
            p = joined_bands_path(rng)
            if not mislabelled_instant(p):
                zigzag(p, 0.01)
                built += 1
        assert built >= 150


class TestBandEdgeInstant:
    """The float 0.499999999 is the lower edge of the band of the edge at
    0.5, and reads inside it, as 0.500000001, the upper edge, does: a
    radius that falls from one edge to the other and holds there never
    leaves the band, so the path has no instant."""

    def test_each_instant_carries_the_label_at_its_time(self, named_classes):
        p = PLPath(1, (0.0, 0.5, 1.0), (((0.0,),) * 3, ((1.0,),) * 3),
                   (0.500000001, 0.499999999, 0.499999999))
        z = zigzag(p, 0.01)
        for t, label in zip(z.times, z.transition_classes):
            assert stratum_label(evaluate(p, t)) == label
        assert z.times == ()
        (label,) = z.interval_classes
        assert (label.cls.key, label.degenerate_subsets) == (named_classes["edge"].key, ((0, 1),))
        assert all(stratum_label(evaluate(p, k / 8)) == label for k in range(9))


class TestBandEdgeTurn:
    """The float 0.250000001 is the upper edge of the band of the edge at
    0.25, and reads inside it, so where the radius turns on it at t = 0.3
    the label stays the critical edge: the one instant is where the radius
    leaves the band on its way up to 0.35."""

    def test_a_turn_on_an_upper_band_edge_gives_a_zigzag(self, named_classes):
        p = PLPath(1, (0.0, 0.3, 0.6, 1.0), (((0.0,),) * 4, ((0.5,),) * 4),
                   (0.25, 0.250000001, 0.25, 0.35))
        z = zigzag(p, 0.01)
        assert not mislabelled_instant(p)
        edge = named_classes["edge"].key
        assert [(lbl.cls.key, lbl.degenerate) for lbl in z.interval_classes] == [
            (edge, True), (edge, False)]
        assert [(lbl.cls.key, lbl.degenerate) for lbl in z.transition_classes] == [(edge, True)]
        assert z.times == (pytest.approx(0.6, abs=1e-7),)


class TestEdgeSample:
    """Still paths whose radii sit within a few floats of band edges
    (``random_edge_path``): each zigzag builds with every instant carrying
    the label at its own time, or refuses a label change, the defect of
    ``TestBandEdgeStart``."""

    def test_each_zigzag_keeps_its_labels_or_refuses_a_change(self):
        rng = random.Random(3)
        built = 0
        for _ in range(150):
            p = random_edge_path(rng)
            for path in (p, reversed_path(p)):
                try:
                    z = zigzag(path, 0.01)
                except ValueError as err:
                    assert "label is not constant" in str(err)
                    continue
                built += 1
                for t, label in zip(z.times, z.transition_classes):
                    assert stratum_label(evaluate(path, t)) == label
        assert built >= 280


#: two points whose edge has radius 0.22669704995408105, under a radius
#: that starts and ends one float below its band's lower edge,
#: 0.22669704895408105, and meets its upper edge at the middle breakpoint
BAND_EDGE_START_POINTS = ((0.5477395937666295, 0.5991663878565746),
                          (0.49081791510267037, 0.14935961564253886))
BAND_EDGE_START_RADIUS = (0.22669704895408102, 0.22669705095408105, 0.22669704895408102)


class TestBandEdgeStart:
    """The radius enters the edge's band at t = 6.9e-9, just after the path
    starts outside it, and leaves it as near the end.  It rises one float
    per about 7e-9 of time, and ``evaluate`` rounds the interpolated radius
    to nearest, so the radius reads inside the band from about half the
    time at which the line meets the band's edge.  The walk puts the
    entry at the first float that reads inside, so the piece before it,
    from t = 0, reads outside the band throughout: the start is not joined
    to the entry, and the start's interval keeps its own label."""

    @pytest.mark.parametrize("bp", [(0.0, 0.5, 1.0), (0.0, 0.7216525306622434, 1.0)],
                             ids=["silent", "refused"])
    def test_the_radius_enters_the_band_at_the_entry_crossing(self, bp):
        p = PLPath(2, bp, tuple((q,) * 3 for q in BAND_EDGE_START_POINTS), BAND_EDGE_START_RADIUS)
        scan = subset_radii(p._still[0][0])
        entry = _stretch_walk(p, 0)[0][0]

        def critical(t):
            zone = read_scan(scan, evaluate(p, t).radius)
            return zone.lo < zone.hi

        assert critical(entry)
        assert not critical(math.nextafter(entry, 0.0))

    @pytest.mark.parametrize("bp", [(0.0, 0.5, 1.0), (0.0, 0.7216525306622434, 1.0)],
                             ids=["silent", "refused"])
    def test_every_label_the_path_takes_is_in_its_zigzag(self, bp):
        p = PLPath(2, bp, tuple((q,) * 3 for q in BAND_EDGE_START_POINTS), BAND_EDGE_START_RADIUS)
        z = zigzag(p, 0.01)
        taken = [stratum_label(evaluate(p, t)) for t in (0.0, 0.25, 0.5, 0.75, 1.0)]
        assert all(label in z.interval_classes + z.transition_classes for label in taken)
        assert not mislabelled_instant(p)


#: ``random_edge_path(random.Random(2))``'s 113th path: three still points
#: under a radius that turns at breakpoint 0.5625428044691156, one float
#: below the lower edge of the band of the scan radius 0.2395420650716699
ULP_STRESS_PATH = PLPath(
    2,
    (0.0, 0.04583636083717619, 0.5275754376194999, 0.5625428044691156, 0.8499096137797444, 1.0),
    tuple((q,) * 6 for q in ((0.6902265974218249, 0.8821248856398787),
                             (0.7555037840384126, 0.7006777594285737),
                             (0.7633702190735085, 0.22165821603285885))),
    (0.0709159582027368, 0.23954206607166992, 0.2395420650716698, 0.23954206407166986,
     0.33225224267494163, 0.2395420640716698))


class TestUlpStressRefusal:
    """A case of the ulp-stress corpus: the midpoint of two instants'
    times, 0.5625428055336585, lies inside the later instant's span
    [0.5625428044691158, 0.5625428106683662], so a map from an interval
    read there into the earlier instant, at 0.5625428034985761, finds the
    zone changing on the way.  The interval is read in the middle of the
    gap between the instants' extents instead."""

    def test_the_zigzag_builds(self):
        zigzag(ULP_STRESS_PATH, 0.01)
        assert not mislabelled_instant(ULP_STRESS_PATH)


#: two ``random_edge_path(random.Random(1))`` draws, as (points,
#: breakpoints, radius) and whether the zigzag runs the draw reversed: on
#: each the radius moves a few floats over a segment, where exact division
#: places the crossing of a zone edge about 1e-2 of time away from where
#: ``evaluate``'s rounded radius passes it
SILENT_MISSES = {
    "draw-5": (((0.16859429703830597, 0.22693734602687232),
                (0.012301584858619652, 0.1995163674624073)),
               (0.0, 0.23753260550175428, 0.5134962299238842, 0.576238911645179,
                0.9434180405029041, 1.0),
               (0.07933996677462658, 0.07933996877462651, 0.07933996877462657,
                0.049382301960136314, 0.07933996677462651, 0.07933996677462657), False),
    "draw-488-reversed": (((0.5865767424388845, 0.24356792530951366),
                           (0.5253328227525731, 0.23469440786275442),
                           (0.9930968840653501, 0.45173083707951733)),
                          (0.0, 0.0635335980029121, 0.4012700607849576, 0.8869098979869618, 1.0),
                          (0.030941706331776772, 0.03094170633177676, 0.18091629257022535,
                           0.2578313551168851, 0.2578313551168851), True),
}


class TestSilentMiss:
    """Zigzags that once built but missed a label the path takes.  Draw 5
    takes the non-critical edge on about [0.48, 0.5135], and draw 488
    reversed the three isolated points on about [0.937, 0.947].  Exact
    division put the edge crossing of draw 488 reversed at 0.9576, while
    ``evaluate`` rounds the radius and meets the edge near 0.947, so both
    sides of the crossing read alike and no instant was reported.  The
    walk now puts each crossing at the first float that ``evaluate`` reads
    past the edge."""

    def test_the_cases_are_the_generators_draws(self):
        rng = random.Random(1)
        draws = [random_edge_path(rng) for _ in range(488)]
        for (points, bp, radius, _), p in zip(SILENT_MISSES.values(), (draws[4], draws[487])):
            assert (tuple(tr[0] for tr in p.tracks), p.breakpoints, p.radius) == (points, bp, radius)

    @pytest.mark.parametrize("case", sorted(SILENT_MISSES))
    def test_every_label_the_path_takes_is_in_its_zigzag(self, case):
        points, bp, radius, backwards = SILENT_MISSES[case]
        p = PLPath(2, bp, tuple((q,) * len(bp) for q in points), radius)
        p = reversed_path(p) if backwards else p
        z = zigzag(p, 0.01)
        labels = z.interval_classes + z.transition_classes
        assert all(stratum_label(evaluate(p, k / 64)) in labels for k in range(65))


class TestJsonRoundTrips:
    def test_path_round_trip(self):
        p = cech_path(triangle_config(), 0.5)
        blob = json.dumps(p.to_json_dict(), sort_keys=True)
        assert PLPath.from_json_dict(json.loads(blob)) == p

    def test_zigzag_json_shape(self):
        z = zigzag(ramp_path(), 0.01)
        data = json.loads(json.dumps(z.to_json_dict(), sort_keys=True))
        assert len(data["times"]) == 1
        assert len(data["interval_classes"]) == 2
        assert len(data["maps"]) == 1
        assert data["maps"][0]["left"]["vertex_map"] == [0, 1]
