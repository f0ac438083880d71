"""Cech complexes and filtrations of Euclidean point configurations.

A subset spans a simplex at radius r exactly when its minimum enclosing
ball has radius at most r (closed balls, so boundary contact counts).
This module alone compares subset radii with r, under the one absolute
tolerance ``EPS_GEO``.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

from . import _kernels
from ._bits import proper_submasks
from .complexes import SimplicialComplex
from .geometry import EPS_GEO, PointConfig, RanPoint

#: above this many points a dimension cap becomes mandatory (2^n subsets)
UNCAPPED_POINTS = 8


def _subset_size_cap(n_points: int, max_dim: int | None) -> int:
    if max_dim is None:
        if n_points > UNCAPPED_POINTS:
            raise ValueError(
                f"configurations with more than {UNCAPPED_POINTS} points require max_dim"
            )
        return n_points
    if max_dim < 0:
        raise ValueError("max_dim must be >= 0")
    return min(n_points, max_dim + 1)


#: scans kept, by configuration; a growth path needs one, an entrance map on a
#: moving path 33 (its 31 samples and both ends).  An uncapped scan (at most
#: 8 points) holds 247 entries, about 29 kB, so 32 of them take under 1 MB;
#: the largest scan (16 points, max_dim 15) holds 65,519 entries, about
#: 7.6 MB, so 32 of those take about 243 MB.
_SCAN_CACHE_SIZE = 32


@functools.lru_cache(maxsize=_SCAN_CACHE_SIZE)
def _scan(points: tuple[tuple[float, ...], ...], size_cap: int) -> tuple[tuple[int, float], ...]:
    return tuple(_kernels.subset_meb_radii(points, size_cap))


def subset_radii(config: PointConfig, max_dim: int | None = None) -> tuple[tuple[int, float], ...]:
    """(mask, critical radius) for every subset of 2..max_dim+1 points.

    The scan is cached by value, keyed on the points and the subset size
    cap, so every reader of an equal configuration shares one immutable
    tuple and the kernel scans it once.
    """
    return _scan(config.points, _subset_size_cap(len(config), max_dim))


class ScanReading(NamedTuple):
    """What :func:`read_scan` finds."""

    masks: set[int]
    critical: list[int]
    r2: float
    r2_prime: float


def read_scan(n_points: int, scan: Sequence[tuple[int, float]], r: float) -> ScanReading:
    """Read a :func:`subset_radii` scan of ``n_points`` points at radius ``r``.

    A subset spans a simplex when its radius is at most ``r + EPS_GEO`` and
    is critical when its radius lies within ``EPS_GEO`` of ``r``.  Gives the Cech
    complex's masks (singletons included, and downward closed explicitly
    against last-ulp rounding of the scan), the critical masks in scan
    order, and twice the smallest slack |r - radius| over all subsets
    (``r2``) and over the non-critical ones (``r2_prime``), +inf if none.
    """
    masks = {1 << i for i in range(n_points)}
    for mask, radius in scan:
        if radius <= r + EPS_GEO:
            masks.add(mask)
            masks.update(proper_submasks(mask))
    slack = {mask: abs(r - radius) for mask, radius in scan}
    critical = [mask for mask, s in slack.items() if s <= EPS_GEO]
    noncritical = [s for s in slack.values() if s > EPS_GEO]
    return ScanReading(masks, critical, 2.0 * min(slack.values(), default=math.inf),
                       2.0 * min(noncritical, default=math.inf))


def cech_complex(x: RanPoint, max_dim: int | None = None) -> SimplicialComplex:
    """Cech complex of a configuration at its radius.

    Vertex i is the i-th configuration point; a subset is a simplex when
    its enclosing-ball radius is at most ``radius + EPS_GEO``.
    """
    n = len(x.config)
    reading = read_scan(n, subset_radii(x.config, max_dim), x.radius)
    return SimplicialComplex.from_masks(n, reading.masks)


@dataclass(frozen=True)
class Filtration:
    """Nested Cech complexes of one configuration, one per radius interval.

    ``critical_radii[i]`` opens the half-open interval on which
    ``complexes[i]`` is the Cech complex (closed on the left: a simplex is
    present at exactly its critical radius).
    """

    config: PointConfig
    critical_radii: tuple[float, ...]
    complexes: tuple[SimplicialComplex, ...]

    def __post_init__(self):
        if len(self.critical_radii) != len(self.complexes):
            raise ValueError("one complex per critical radius required")
        for a, b in zip(self.complexes, self.complexes[1:]):
            if not set(a.masks) <= set(b.masks):
                raise ValueError("filtration complexes must be nested")

    def complex_at(self, r: float) -> SimplicialComplex:
        idx = 0
        for i, c in enumerate(self.critical_radii):
            if c <= r:
                idx = i
            else:
                break
        return self.complexes[idx]

    def to_json_dict(self) -> dict:
        return {
            "points": self.config.to_json_dict(),
            "critical_radii": list(self.critical_radii),
            "complexes": [c.to_json_dict() for c in self.complexes],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Filtration":
        return cls(
            PointConfig.from_json_dict(data["points"]),
            tuple(float(r) for r in data["critical_radii"]),
            tuple(SimplicialComplex.from_json_dict(c) for c in data["complexes"]),
        )


def cech_filtration(config: PointConfig, max_dim: int | None = None) -> Filtration:
    """All Cech complexes of a configuration, indexed by critical radius.

    Critical radii are the distinct subset enclosing-ball radii (0 included
    for the vertices), deduplicated within ``EPS_GEO``; each stored complex is
    evaluated at the midpoint of its interval.
    """
    scan = subset_radii(config, max_dim)
    radii = sorted({0.0} | {max(r, 0.0) for _, r in scan})
    criticals: list[float] = []
    for r in radii:
        if not criticals or r > criticals[-1] + EPS_GEO:
            criticals.append(r)
    n = len(config)
    complexes = []
    for i, c in enumerate(criticals):
        mid = 0.5 * (c + criticals[i + 1]) if i + 1 < len(criticals) else c + 0.5
        complexes.append(SimplicialComplex.from_masks(n, read_scan(n, scan, mid).masks))
    return Filtration(config, tuple(criticals), tuple(complexes))


__all__ = [
    "Filtration",
    "cech_complex",
    "cech_filtration",
    "subset_radii",
    "UNCAPPED_POINTS",
]
