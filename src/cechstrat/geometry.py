"""Metric primitives on finite point sets in Euclidean space.

Hausdorff and min-pair distances, the sup-norm on (configuration, radius)
pairs, minimum enclosing balls, and the signed radius slack that decides
whether the closed balls around a subset have a common point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import _json, _kernels
# the largest ambient dimension and the most points :func:`meb` takes: the
# compiled kernels' fixed buffers, whose limits both kernels keep
from ._kernels._pure import _MAX_DIM
from ._kernels._pure import _MAX_POINTS as _MAX_MEB_POINTS

#: absolute tolerance for geometric comparisons (ball membership, zero slack)
EPS_GEO = 1e-9
#: two points closer than this are considered the same element of a configuration
DELTA_PT = 1e-9


@dataclass(frozen=True)
class PointConfig:
    """Nonempty finite set of pairwise-distinct points in R^dim, 1 <= dim <= 16.

    Points closer than ``DELTA_PT`` would collapse as a set, so such
    configurations are rejected at construction.
    """

    dim: int
    points: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        if not 1 <= self.dim <= _MAX_DIM:
            raise ValueError(f"dim must be in 1..{_MAX_DIM}, got {self.dim}")
        pts = tuple(tuple(float(c) for c in p) for p in self.points)
        object.__setattr__(self, "points", pts)
        if not pts:
            raise ValueError("a point configuration is nonempty")
        for p in pts:
            if len(p) != self.dim:
                raise ValueError(f"point {p} does not have dimension {self.dim}")
            if not all(math.isfinite(c) for c in p):
                raise ValueError(f"point {p} has a non-finite coordinate")
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                if math.dist(pts[i], pts[j]) <= DELTA_PT:
                    raise ValueError(
                        f"points {pts[i]} and {pts[j]} are within the dedupe tolerance {DELTA_PT}"
                    )

    def __len__(self) -> int:
        return len(self.points)

    def subset(self, vertices) -> "PointConfig":
        return PointConfig(self.dim, tuple(self.points[i] for i in vertices))

    def to_json_dict(self) -> dict:
        return {"dim": self.dim, "points": [list(p) for p in self.points]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "PointConfig":
        fmt = "point-configuration JSON"
        dim, points = _json.fields(data, fmt, "dim", "points")
        return cls(_json.integer(dim, fmt, '"dim"'),
                   tuple(tuple(_json.numbers(p, fmt, "a point"))
                         for p in _json.array(points, fmt, '"points"')))


def _check_radius(r: float) -> float:
    """``r`` as a float; raises unless ``r >= 0`` (so +inf passes and NaN
    does not)."""
    r = float(r)
    if not r >= 0.0:
        raise ValueError(f"radius must be >= 0, got {r}")
    return r


@dataclass(frozen=True)
class RanPoint:
    """A configuration together with a finite nonnegative radius."""

    config: PointConfig
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "radius", _check_radius(self.radius))
        if not math.isfinite(self.radius):
            raise ValueError(f"radius must be finite, got {self.radius}")

    def to_json_dict(self) -> dict:
        return {"config": self.config.to_json_dict(), "radius": self.radius}

    @classmethod
    def from_json_dict(cls, data: dict) -> "RanPoint":
        fmt = "Ran-point JSON"
        config, radius = _json.fields(data, fmt, "config", "radius")
        return cls(PointConfig.from_json_dict(config), _json.number(radius, fmt, '"radius"'))


@dataclass(frozen=True)
class Ball:
    """Closed ball; openness is decided by the consuming predicate."""

    center: tuple[float, ...]
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        object.__setattr__(self, "radius", float(self.radius))
        if not (self.radius >= 0.0):
            raise ValueError(f"ball radius must be >= 0, got {self.radius}")


def _check_dims(a: PointConfig, b: PointConfig):
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")


def _directed(p: PointConfig, q: PointConfig) -> float:
    return max(min(math.dist(x, y) for y in q.points) for x in p.points)


def hausdorff(p: PointConfig, q: PointConfig) -> float:
    """Hausdorff distance: the larger of the two directed max-min distances.

    Exactly 0.0 for equal points, as ``math.dist(a, a)`` is.
    """
    _check_dims(p, q)
    if p.points == q.points:
        return 0.0
    return max(_directed(p, q), _directed(q, p))


def set_distance(x: PointConfig, y) -> float:
    """Smallest pairwise distance between two sets.

    ``y`` may be a configuration or a :class:`Ball`, the latter standing for
    the (generically one-point) intersection it represents, i.e. its center.
    Always bounded above by the Hausdorff distance.
    """
    y_points = (y.center,) if isinstance(y, Ball) else y.points
    if isinstance(y, PointConfig):
        _check_dims(x, y)
    elif len(y_points[0]) != x.dim:
        raise ValueError(f"dimension mismatch: {x.dim} vs {len(y_points[0])}")
    return min(math.dist(a, b) for a in x.points for b in y_points)


def sup_distance(a: RanPoint, b: RanPoint) -> float:
    """Sup-norm distance: max of Hausdorff distance and radius difference."""
    return max(hausdorff(a.config, b.config), abs(a.radius - b.radius))


def meb(p: PointConfig) -> Ball:
    """The unique smallest closed ball containing the configuration
    (at most 64 points)."""
    if len(p) > _MAX_MEB_POINTS:
        raise ValueError(f"meb takes at most {_MAX_MEB_POINTS} points, got {len(p)}")
    center, radius = _kernels.meb(p.points)
    return Ball(center, max(radius, 0.0))


def cech_set(p: PointConfig) -> Ball:
    """Ball intersection at the first radius where it becomes nonempty.

    In Euclidean space that intersection is generically the single point
    at the enclosing-ball center, so the enclosing ball itself carries both
    the witness point and the critical radius.
    """
    return meb(p)


def cech_radius(p: PointConfig, r: float) -> float:
    """Signed slack of radius ``r`` against the critical radius of ``p``.

    Positive exactly when the closed r-balls around ``p`` share an open
    set, zero when they meet in a degenerate intersection, negative when
    the intersection is empty.
    """
    return _check_radius(r) - meb(p).radius


def cech_radius_set_distance(p: PointConfig, r: float) -> float:
    """Variant of :func:`cech_radius` reading the offset as a min-pair distance.

    Measures ``r`` against the smallest distance from ``p`` to the critical
    intersection point instead of the critical radius.  The two readings
    agree whenever all points of ``p`` lie on the boundary of its enclosing
    ball and differ otherwise (e.g. obtuse triangles); the critical-radius
    reading is the default because it keeps the sign characterization of
    :func:`cech_radius` valid.
    """
    return _check_radius(r) - set_distance(p, meb(p))
