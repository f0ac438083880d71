"""Cech complexes and filtrations of Euclidean point configurations.

A subset spans a simplex at radius r exactly when its minimum enclosing
ball has radius at most r (closed balls, so boundary contact counts).
This module alone compares subset radii with r, under the one absolute
tolerance ``EPS_GEO``.
"""

from __future__ import annotations

import bisect
import functools
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

from . import _json, _kernels
from ._bits import close_down, family_of, members
from ._kernels._pure import MAX_SUBSET_VERTICES
from .complexes import SimplicialComplex
from .geometry import EPS_GEO, PointConfig, RanPoint, _check_radius

#: above this many points a dimension cap becomes mandatory (2^n subsets)
UNCAPPED_POINTS = 8


def _subset_size_cap(n_points: int, max_dim: int | None) -> int:
    if n_points > MAX_SUBSET_VERTICES:  # refused here, so both backends say the same
        raise ValueError(f"subset scan limited to {MAX_SUBSET_VERTICES} points, got {n_points}")
    if max_dim is None:
        if n_points > UNCAPPED_POINTS:
            raise ValueError(
                f"configurations with more than {UNCAPPED_POINTS} points require max_dim; "
                f"labels, safe balls, maps and paths take at most {UNCAPPED_POINTS} points"
            )
        return n_points
    if max_dim < 0:
        raise ValueError("max_dim must be >= 0")
    return min(n_points, max_dim + 1)


#: scans kept, by configuration, each with the complexes, labels and
#: separation read from it; a still stretch needs one whatever it does,
#: an entrance map where tracks move 33 (its 31 samples and both ends, read
#: so that the start is still cached for the renaming).  Measured with
#: tracemalloc on the compiled backend, 8 random points in R^7 (three
#: seeds): an uncapped scan (at most 8 points) holds 247 entries, 26-31 kB
#: with its radius order and band edges, and at most 248 prefix
#: complexes, 2 * 247 + 1 zone labels and one separation, 0.62-0.87 MB
#: with every complex built and a label read in every zone, so 32 of
#: them take about 28 MB; a perfbench growth zigzag (seed 1) builds at
#: most 15 complexes and 29 labels.  The largest scan (16 points, max_dim
#: 15) holds 65,519 entries, about 13.1 MB with its band edges (8.9 MB
#: without), so 32 of those take about 420 MB, plus every complex read
#: from them.
_SCAN_CACHE_SIZE = 32


class Zone(NamedTuple):
    """Where a radius sits among a scan's sorted radii, as :func:`read_scan`
    finds it.  The critical subsets, hence the stratum label, depend on the
    radius only through its zone, and the Cech complex only through ``hi``."""

    #: subsets whose band [radius - EPS_GEO, radius + EPS_GEO] holds r: the
    #: run [lo, hi) of the radius order; all before ``hi`` (radius - EPS_GEO
    #: at most r) span
    lo: int
    hi: int


class Scan(tuple):
    """(mask, critical radius) for every scanned subset of ``n_points``
    points, in kernel order.

    ``masks`` and ``radii`` list the same subsets by ascending radius (ties
    in kernel order), and ``lower`` and ``upper`` their band edges
    (:func:`_band_edges`), so that :func:`read_scan` can place a radius
    among them by bisection.  The scan is the one cache entry of its
    configuration: it keeps its band edges, the Cech complex of each
    spanned prefix (:meth:`complex`), in ``labels`` the stratum label of
    each zone (filled by :func:`cechstrat.strat.stratum_label`) and in
    ``separation`` the radius that :func:`cechstrat.strat.tilde_r` read
    last with its separation and case, and all go when the scan leaves the
    cache.
    """

    masks: tuple[int, ...]
    radii: tuple[float, ...]
    lower: tuple[float, ...]
    upper: tuple[float, ...]
    n_points: int
    labels: dict
    separation: tuple | None

    def __new__(cls, entries, n_points: int):
        scan = super().__new__(cls, entries)
        ranked = sorted(scan, key=operator.itemgetter(1))
        scan.masks, scan.radii = tuple(zip(*ranked)) or ((), ())
        scan.lower, scan.upper = _band_edges(scan.radii)
        scan.n_points = n_points
        scan.labels = {}
        scan.separation = None
        scan._complexes = {}
        return scan

    def complex(self, hi: int) -> SimplicialComplex:
        """The Cech complex where the first ``hi`` subsets by radius span,
        built and validated once: every radius whose zone ends at ``hi``,
        the critical zone (lo, hi) and the zone (hi, hi) after it alike,
        gets the same object."""
        c = self._complexes.get(hi)
        if c is None:
            c = self._complexes[hi] = SimplicialComplex(self.n_points, self.complex_masks(hi))
        return c

    def complex_masks(self, hi: int) -> list[int]:
        """The Cech complex's masks where the first ``hi`` subsets by radius
        span (a zone's ``hi``), ascending: the singletons, those subsets and
        their faces (closed downward explicitly against last-ulp rounding of
        the scan)."""
        n = self.n_points
        spanned = family_of(n, [*(1 << i for i in range(n)), *self.masks[:hi]])
        return members(close_down(n, spanned))

    def critical_masks(self, zone: Zone) -> tuple[int, ...]:
        """The subsets at their critical radius in ``zone``, by radius."""
        return self.masks[zone.lo:zone.hi]

    def slacks(self, r: float, zone: Zone) -> tuple[float, float]:
        """Twice the smallest slack |r - radius| over all subsets (``r2``)
        and over the non-critical ones (``r2_prime``), +inf if none, for
        ``r`` in ``zone``.

        The slack falls toward r and rises beyond it, so the nearest
        radius on either side holds each minimum: around the first radius
        at least r for ``r2``, around the critical run for ``r2_prime``.
        """
        radii = self.radii

        def least(below: int, above: int) -> float:
            return 2.0 * min(r - radii[below] if below >= 0 else math.inf,
                             radii[above] - r if above < len(radii) else math.inf)

        nearest = bisect.bisect_left(radii, r, zone.lo, zone.hi)
        return least(nearest - 1, nearest), least(zone.lo - 1, zone.hi)


@functools.lru_cache(maxsize=_SCAN_CACHE_SIZE)
def _scan(points: tuple[tuple[float, ...], ...], size_cap: int) -> Scan:
    return Scan(_kernels.subset_meb_radii(points, size_cap), len(points))


def subset_radii(config: PointConfig, max_dim: int | None = None) -> Scan:
    """(mask, critical radius) for every subset of 2..max_dim+1 points.

    More than 16 points are refused, on either kernel backend with the same
    message, and more than ``UNCAPPED_POINTS`` without ``max_dim``.  The
    scan is cached by value, keyed on the points and the subset size
    cap, so every reader of an equal configuration shares one immutable
    tuple, kept with its radius order, complexes and labels, and the
    kernel scans it once.
    """
    return _scan(config.points, _subset_size_cap(len(config), max_dim))


def _band_edges(radii: Sequence[float]) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The lower and upper edges, radius - EPS_GEO and radius + EPS_GEO, of
    the tolerance band of each of the ascending ``radii``: two ascending
    tuples, since rounding keeps the order."""
    return tuple(r - EPS_GEO for r in radii), tuple(r + EPS_GEO for r in radii)


def _read_band(lower: Sequence[float], upper: Sequence[float], r: float) -> Zone:
    """The zone of radius ``r`` among radii with band edges ``lower`` and
    ``upper`` (:func:`_band_edges`): the run [lo, hi) with lower <= r <=
    upper, everything before ``hi`` having lower <= r."""
    lo = bisect.bisect_left(upper, r)
    return Zone(lo, bisect.bisect_right(lower, r, lo))


def read_scan(scan: Scan, r: float) -> Zone:
    """The zone of radius ``r`` in a :func:`subset_radii` scan.

    A subset spans a simplex when ``r`` is at least its radius minus
    EPS_GEO, and is critical when ``r`` is also at most its radius plus
    EPS_GEO: both ends of the closed band are the floats that
    :func:`zone_edges` lists, so the zone changes exactly where ``r``
    passes one of them, and a critical subset spans.  The edges rise with
    the radius, so two bisections of the scan's kept edges find the
    critical run [lo, hi), and the spanned subsets are the prefix before
    ``hi``; :meth:`Filtration.complex_at` reads its stages by the same
    rule.
    """
    return _read_band(scan.lower, scan.upper, r)


def zone_edges(scan: Scan) -> list[float]:
    """The radii at which the zone of a radius in ``scan`` changes,
    ascending: a subset becomes spanned and critical at its radius minus
    ``EPS_GEO`` and stops being critical past its radius plus ``EPS_GEO``.

    These rounded floats are the band edges that :func:`read_scan` compares
    a radius with, so each edge reads inside the band it bounds: the lower
    edge of the band of 0.5 is the float 0.499999999, which reads as
    critical although 0.5 - 0.499999999 is 1.0000000272e-9.  The list is
    the scan's ``lower`` and ``upper`` merged, sorted afresh per call."""
    return sorted(scan.lower + scan.upper)


def cech_complex(x: RanPoint, max_dim: int | None = None) -> SimplicialComplex:
    """Cech complex of a configuration at its radius.

    Vertex i is the i-th configuration point; a subset is a simplex when
    ``radius`` is at least its enclosing-ball radius minus ``EPS_GEO``.
    ``max_dim`` caps the simplex dimension; it is required above
    ``UNCAPPED_POINTS`` points.  The complex depends on the radius only
    through the spanned prefix of its zone (:func:`read_scan`), so the
    cached scan builds and validates it once per prefix (:meth:`Scan.complex`):
    every radius spanning the same subsets gets the same object.
    """
    scan = subset_radii(x.config, max_dim)
    return scan.complex(read_scan(scan, x.radius).hi)


@dataclass(frozen=True)
class Filtration:
    """Nested Cech complexes of one configuration, one per radius interval.

    ``critical_radii[i]`` opens the half-open interval on which
    ``complexes[i]`` is the Cech complex (closed on the left: a simplex is
    present at exactly its critical radius).  The first stage opens at 0.
    """

    config: PointConfig
    critical_radii: tuple[float, ...]
    complexes: tuple[SimplicialComplex, ...]
    #: the band edges of the critical radii (:func:`_band_edges`)
    _band: tuple[tuple[float, ...], tuple[float, ...]] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.critical_radii) != len(self.complexes):
            raise ValueError("one complex per critical radius required")
        radii = self.critical_radii
        if not radii or radii[0] != 0.0 or not all(map(operator.lt, radii, radii[1:])):
            raise ValueError("critical radii must rise strictly from 0")
        object.__setattr__(self, "_band", _band_edges(radii))
        for c in self.complexes:
            if c.n_vertices != len(self.config):
                raise ValueError(f"a complex has {c.n_vertices} vertices for "
                                 f"{len(self.config)} points")
        for a, b in zip(self.complexes, self.complexes[1:]):
            if a.family & ~b.family:
                raise ValueError("filtration complexes must be nested")

    def complex_at(self, r: float) -> SimplicialComplex:
        """The stored complex at radius ``r >= 0``: that of the last stage
        whose critical radius minus EPS_GEO is at most ``r``, the rule by
        which :func:`read_scan` spans a subset, so that the stage agrees
        with :func:`cech_complex` inside the tolerance band too."""
        return self.complexes[_read_band(*self._band, _check_radius(r)).hi - 1]

    def to_json_dict(self) -> dict:
        return {
            "points": self.config.to_json_dict(),
            "critical_radii": list(self.critical_radii),
            "complexes": [c.to_json_dict() for c in self.complexes],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Filtration":
        fmt = "filtration JSON"
        points, radii, complexes = _json.fields(data, fmt, "points", "critical_radii", "complexes")
        return cls(
            PointConfig.from_json_dict(points),
            tuple(map(float, _json.numbers(radii, fmt, '"critical_radii"'))),
            tuple(map(SimplicialComplex.from_json_dict, _json.array(complexes, fmt, '"complexes"'))),
        )


def cech_filtration(config: PointConfig, max_dim: int | None = None) -> Filtration:
    """All Cech complexes of a configuration, indexed by critical radius.

    The first stage opens at 0, and each later one at the first subset
    radius that the previous stage's opening radius does not span
    (:func:`read_scan`), so radii within ``EPS_GEO`` of a stage's opening
    fall in that stage.  Each stored complex is the Cech complex at the
    midpoint of its interval, shared with :func:`cech_complex` through the
    cached scan.
    """
    scan = subset_radii(config, max_dim)
    criticals = [0.0]
    while (hi := read_scan(scan, criticals[-1]).hi) < len(scan.radii):
        criticals.append(scan.radii[hi])
    complexes = []
    for i, c in enumerate(criticals):
        mid = 0.5 * (c + criticals[i + 1]) if i + 1 < len(criticals) else c + 0.5
        complexes.append(scan.complex(read_scan(scan, mid).hi))
    return Filtration(config, tuple(criticals), tuple(complexes))


__all__ = [
    "Filtration",
    "cech_complex",
    "cech_filtration",
    "subset_radii",
    "UNCAPPED_POINTS",
]
