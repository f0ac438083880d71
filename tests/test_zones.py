"""Labels read by zone match the labels read from the whole scan.

``read_scan`` places a radius among a configuration's sorted critical
radii by bisection, and ``stratum_label`` builds one label per zone.  The
references below read every subset of the scan at each radius, which is
the definition; every reading must agree with them bit for bit.
"""

import bisect
import math
import random
from types import SimpleNamespace

import pytest

from cechstrat import (
    Filtration,
    PointConfig,
    RanPoint,
    SimplicialComplex,
    canonical_form,
    cech_complex,
    cech_filtration,
    r1,
    r2,
    r2_prime,
    stratum_label,
    tilde_r,
)
from cechstrat import _kernels, cech, paths, strat
from cechstrat._bits import vertices_of
from cechstrat.geometry import EPS_GEO
from cechstrat.strat import SafeBall, StratumLabel, _zone_label

from conftest import clear_package_caches, float_steps


def proper_submasks(mask):
    """Nonempty proper submasks of ``mask``."""
    sub = (mask - 1) & mask
    while sub:
        yield sub
        sub = (sub - 1) & mask


def reference_read_scan(n_points, scan, r):
    """Masks, critical masks and both slacks, from one pass over the scan.

    A subset spans when r is at least its band's lower edge, radius -
    EPS_GEO, and is critical when r is also at most its upper edge, radius
    + EPS_GEO: the band edges that the scan keeps, so a critical subset
    spans at every ulp."""
    masks = {1 << i for i in range(n_points)}
    for mask, radius in scan:
        if radius - EPS_GEO <= r:
            masks.add(mask)
            masks.update(proper_submasks(mask))
    slack = {mask: abs(r - radius) for mask, radius in scan}
    critical = [mask for mask, radius in scan if radius - EPS_GEO <= r <= radius + EPS_GEO]
    noncritical = [s for mask, s in slack.items() if mask not in critical]
    return (masks, critical, 2.0 * min(slack.values(), default=math.inf),
            2.0 * min(noncritical, default=math.inf))


def reference_reading(config, r, max_dim=None):
    return reference_read_scan(len(config), cech.subset_radii(config, max_dim), r)


def reference_stratum_label(x):
    masks, critical, _, _ = reference_reading(x.config, x.radius)
    cls = canonical_form(SimplicialComplex(len(x.config), masks))
    degenerate = sorted(map(vertices_of, critical), key=lambda t: (len(t), t))
    return StratumLabel(cls, tuple(degenerate))


def reference_tilde_r(x):
    config, r = x.config, x.radius
    if len(config) == 1:
        rt = 4.0 * r if r > 0.0 else 1.0
        return SafeBall(x, rt, "generic")
    _, critical, _, slack_prime = reference_reading(config, r)
    rt = min(r1(config), slack_prime)
    return SafeBall(x, rt, "boundary" if critical else "generic")


def reference_cech_filtration(config):
    scan = cech.subset_radii(config)
    radii = sorted({0.0} | {max(r, 0.0) for _, r in scan})
    criticals = []
    for r in radii:
        if not criticals or r > criticals[-1] + EPS_GEO:
            criticals.append(r)
    n = len(config)
    complexes = []
    for i, c in enumerate(criticals):
        mid = 0.5 * (c + criticals[i + 1]) if i + 1 < len(criticals) else c + 0.5
        complexes.append(SimplicialComplex(n, reference_read_scan(n, scan, mid)[0]))
    return Filtration(config, tuple(criticals), tuple(complexes))


def same_float(a, b):
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def random_tied_config(rng):
    """2-6 points in 1-3 dimensions on a coarse grid, so that subset radii
    repeat exactly (equal edges, congruent triangles).  On the finest grid,
    of step 2^-28 (about 3.7e-9), radii are a few EPS_GEO, fine enough in
    floating point that a radius and a probe can lie exactly EPS_GEO apart."""
    while True:
        dim = rng.randint(1, 3)
        step = rng.choice((0.25, 0.5, 1.0, 2.0 ** -28))
        pts = tuple(tuple(step * rng.randint(0, 4) for _ in range(dim))
                    for _ in range(rng.randint(2, 6)))
        try:
            return PointConfig(dim, pts)
        except ValueError:  # two points on one grid node
            continue


def probe_radii(config):
    """0, every critical radius c, c +- EPS_GEO, one ulp either side of
    each of those, and the midpoints between consecutive critical radii."""
    criticals = sorted({r for _, r in cech.subset_radii(config)})
    radii = {0.0}
    for c in criticals:
        for base in (c - EPS_GEO, c, c + EPS_GEO):
            radii.update((base, math.nextafter(base, -math.inf), math.nextafter(base, math.inf)))
    radii.update(0.5 * (a + b) for a, b in zip(criticals, criticals[1:]))
    return sorted(r for r in radii if r >= 0.0)


@pytest.fixture(params=sorted(_kernels.backends))
def backend(request, monkeypatch):
    """Runs the test on one kernel backend, every cache empty before and after."""
    clear_package_caches()
    monkeypatch.setattr(cech._kernels, "subset_meb_radii",
                        _kernels.backends[request.param].subset_meb_radii)
    yield request.param
    clear_package_caches()


def test_scan_keeps_radius_order():
    rng = random.Random(3)
    for _ in range(50):
        scan = cech.subset_radii(random_tied_config(rng))
        ranked = sorted(scan, key=lambda entry: entry[1])
        assert scan.masks == tuple(m for m, _ in ranked)
        assert scan.radii == tuple(r for _, r in ranked)


def test_zone_labels_match_reference(backend):
    rng = random.Random(8)
    readings = ties = on_the_edge = 0
    for _ in range(300):
        config = random_tied_config(rng)
        scan = cech.subset_radii(config)
        ties += len(scan.radii) > len(set(scan.radii))
        max_dim = rng.choice((None, None, 1))
        for r in probe_radii(config):
            x = RanPoint(config, r)
            if max_dim is None:
                assert stratum_label(x) == reference_stratum_label(x), (config, r)
            else:  # a capped complex is read from the Cech layer only
                masks, critical, _, _ = reference_reading(config, r, max_dim)
                capped = cech.subset_radii(config, max_dim)
                assert cech_complex(x, max_dim).masks == tuple(sorted(masks)), (config, r)
                assert sorted(capped.critical_masks(cech.read_scan(capped, r))) == \
                    sorted(critical), (config, r)
            readings += 1
            on_the_edge += any(abs(radius - r) == EPS_GEO for radius in scan.radii)
    assert ties > 150  # most configurations repeat a radius
    assert readings > 10_000
    assert on_the_edge > 20  # the tolerance's closed ends are probed


def test_readings_match_reference(backend):
    rng = random.Random(9)
    for _ in range(150):
        config = random_tied_config(rng)
        for r in probe_radii(config):
            x = RanPoint(config, r)
            masks, _, slack, slack_prime = reference_reading(config, r)
            assert same_float(r2(config, r), slack)
            assert same_float(r2_prime(config, r), slack_prime)
            assert tilde_r(x) == reference_tilde_r(x)
            assert cech_complex(x) == SimplicialComplex(len(config), masks)
        assert cech_filtration(config) == reference_cech_filtration(config)


def merged_criticals(config):
    """The critical radii by the merge that preceded reading them through
    ``read_scan``: 0 and the distinct subset radii, each kept when it
    exceeds the last kept one plus EPS_GEO."""
    criticals = []
    for r in sorted({0.0} | {max(r, 0.0) for _, r in cech.subset_radii(config)}):
        if not criticals or r > criticals[-1] + EPS_GEO:
            criticals.append(r)
    return tuple(criticals)


def near_tied_config(rng):
    """A grid-tied configuration moved by up to 2e-9 per coordinate, so that
    tied radii split by about EPS_GEO."""
    while True:
        config = random_tied_config(rng)
        try:
            return PointConfig(config.dim, tuple(tuple(c + rng.uniform(-2e-9, 2e-9) for c in p)
                                                 for p in config.points))
        except ValueError:
            continue


def tiny_config(rng):
    """2-6 random points at a scale of 1e-9 to 1e-7, where every radius is
    a few EPS_GEO."""
    while True:
        scale = 10.0 ** rng.uniform(-9, -7)
        try:
            return PointConfig(2, tuple((scale * rng.random(), scale * rng.random())
                                        for _ in range(rng.randint(2, 6))))
        except ValueError:
            continue


@pytest.mark.parametrize("draw", [
    lambda rng: PointConfig(2, tuple((rng.random(), rng.random()) for _ in range(rng.randint(1, 6)))),
    random_tied_config,
    near_tied_config,
    tiny_config,
], ids=["random", "grid-tied", "near-tied", "tiny-scale"])
def test_filtration_stages_open_where_the_merge_put_them(draw):
    rng = random.Random(12)
    merged = 0
    for _ in range(250):
        config = draw(rng)
        criticals = cech_filtration(config).critical_radii
        assert criticals == merged_criticals(config), config
        merged += len(criticals) < len({0.0, *cech.subset_radii(config).radii})
    # some draws put distinct radii in one stage (at random, an obtuse
    # triangle's radius and its longest edge's, a few ulps apart)
    assert merged > 0


def test_radius_exactly_eps_geo_above_is_critical():
    # the random probes meet |radius - r| == EPS_GEO only with r below the
    # radius; a pair radius this small makes c + EPS_GEO exact
    c = 3.0 * 2.0 ** -32
    config = PointConfig(1, ((0.0,), (2.0 * c,)))
    assert cech.subset_radii(config).radii == (c,)
    r = c + EPS_GEO
    assert r - c == EPS_GEO
    x = RanPoint(config, r)
    assert stratum_label(x) == reference_stratum_label(x)
    assert stratum_label(x).degenerate_subsets == ((0, 1),)
    assert not stratum_label(RanPoint(config, math.nextafter(r, 1.0))).degenerate


def test_spanned_and_critical_read_one_band_edge():
    # two edge radii of the equilateral triangle round to 0.49999999999999994,
    # whose band's lower edge is the float 0.4999999989999999: there both
    # edges read as spanned and critical, though they lie just over EPS_GEO
    # above it, and one float below it as neither
    config = PointConfig(2, ((0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3) / 2)))
    scan = cech.subset_radii(config)
    r = 0.4999999989999999
    assert scan.radii[:2] == (0.49999999999999994,) * 2
    assert scan.radii[0] - EPS_GEO == r and scan.radii[0] - r > EPS_GEO
    assert tuple(cech.read_scan(scan, r)) == (0, 2)
    assert cech_complex(RanPoint(config, r)).masks == (1, 2, 4, 5, 6)
    below = math.nextafter(r, 0.0)
    assert tuple(cech.read_scan(scan, below)) == (0, 0)
    assert cech_complex(RanPoint(config, below)).masks == (1, 2, 4)


CONFIG_DRAWS = [
    lambda rng: PointConfig(2, tuple((rng.random(), rng.random()) for _ in range(rng.randint(2, 6)))),
    random_tied_config,
    near_tied_config,
    tiny_config,
]
CONFIG_DRAW_IDS = ["random", "grid-tied", "near-tied", "tiny-scale"]


@pytest.mark.parametrize("draw", CONFIG_DRAWS, ids=CONFIG_DRAW_IDS)
def test_each_zone_edge_reads_inside_its_band(draw):
    # the band edges that the scan keeps are where ``read_scan`` changes zone
    rng = random.Random(13)
    for _ in range(200):
        scan = cech.subset_radii(draw(rng))
        lower = [radius - EPS_GEO for radius in scan.radii]
        upper = [radius + EPS_GEO for radius in scan.radii]
        assert (scan.lower, scan.upper) == (tuple(lower), tuple(upper))
        for i, (lo_edge, hi_edge) in enumerate(zip(lower, upper)):
            for edge in (lo_edge, hi_edge):
                zone = cech.read_scan(scan, edge)
                assert zone.lo <= i < zone.hi, (scan, edge)  # critical, hence spanned
            assert i < cech.read_scan(scan, math.nextafter(hi_edge, math.inf)).lo
            assert i >= cech.read_scan(scan, math.nextafter(lo_edge, -math.inf)).hi


def offset_read_radii(radii, r):
    """The zone of ``r`` by the offset radius - r against +-EPS_GEO, the
    reading before zones were read against their band edges."""

    def offset(radius):
        return radius - r

    lo = bisect.bisect_left(radii, -EPS_GEO, key=offset)
    return cech.Zone(lo, bisect.bisect_right(radii, EPS_GEO, lo, key=offset))


@pytest.mark.parametrize("draw", CONFIG_DRAWS, ids=CONFIG_DRAW_IDS)
def test_band_edges_and_offsets_differ_only_at_the_edges(draw):
    # the two readings round radius -+ EPS_GEO and radius - r, each by at
    # most a float at the scale of the radius or r, whichever is larger, so
    # they can differ only that near an edge; most probes that differ lie
    # exactly on an edge's float
    rng = random.Random(14)
    differ = on_an_edge = 0
    for _ in range(200):
        config = draw(rng)
        scan = cech.subset_radii(config)
        bands = [(radius, edge) for radius in scan.radii
                 for edge in (radius - EPS_GEO, radius + EPS_GEO)]
        probes = set(probe_radii(config))
        for _, edge in bands:
            probes.update(float_steps(edge, k) for k in range(-6, 7))
        for r in probes:
            if r < 0.0 or cech.read_scan(scan, r) == offset_read_radii(scan.radii, r):
                continue
            differ += 1
            on_an_edge += any(r == edge for _, edge in bands)
            assert any(abs(r - edge) <= 2 * math.ulp(max(r, radius)) for radius, edge in bands), \
                (config, r)
    assert differ > 1000 and on_an_edge > 1000


def key_read_radii(radii, r):
    """The zone of ``r`` by bisecting ``radii`` with the band edges taken
    as keys, radius -+ EPS_GEO computed at each step: the reading before
    the scan kept its band edges."""
    lo = bisect.bisect_left(radii, r, key=lambda radius: radius + EPS_GEO)
    return cech.Zone(lo, bisect.bisect_right(radii, r, lo, key=lambda radius: radius - EPS_GEO))


def edge_probes(radii):
    """Every band edge of ``radii`` and the float on either side of it,
    those at least 0."""
    return [r for radius in radii for edge in (radius - EPS_GEO, radius + EPS_GEO)
            for r in (math.nextafter(edge, -math.inf), edge, math.nextafter(edge, math.inf))
            if r >= 0.0]


class TestKeptOnTheScan:
    """The scan keeps its band edges and the configuration's pairwise gap,
    so a growth zigzag computes the gap once; the separation is computed
    afresh for each map."""

    def test_one_separation_per_map(self, monkeypatch):
        clear_package_caches()
        gaps, separations = [], []

        def counted_r1(config):
            gaps.append(config)
            return r1(config)

        def counted_slacks(scan, r, zone):
            separations.append(r)
            return slacks(scan, r, zone)

        slacks = cech.Scan.slacks
        monkeypatch.setattr(strat, "r1", counted_r1)
        monkeypatch.setattr(cech.Scan, "slacks", counted_slacks)
        triangle = PointConfig(2, ((0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3) / 2)))
        z = paths.zigzag(paths.cech_path(triangle, 0.9), 0.01)
        # two instants, each entered from both sides: 4 maps, 4 safe balls
        # read, one separation per map and one gap for the configuration
        assert len(z.times) == 2 and len(separations) == 4 and gaps == [triangle]

    def test_one_pairwise_gap_per_scan(self, monkeypatch):
        calls = []

        def counted_r1(config):
            calls.append(config)
            return r1(config)

        monkeypatch.setattr(strat, "r1", counted_r1)
        rng = random.Random(44)
        instants = []
        for _ in range(30):
            config = PointConfig(2, tuple((rng.random(), rng.random())
                                          for _ in range(rng.randint(2, 6))))
            clear_package_caches()
            calls.clear()
            z = paths.zigzag(paths.cech_path(config, 0.9), 0.01)
            instants.append(len(z.times))
            assert calls == [config], len(z.times)
        assert min(instants) >= 1 and max(instants) >= 8

    @pytest.mark.parametrize("draw", CONFIG_DRAWS, ids=CONFIG_DRAW_IDS)
    def test_kept_band_reads_like_the_key_bisection(self, draw):
        rng = random.Random(15)
        for _ in range(100):
            config = draw(rng)
            scan = cech.subset_radii(config)
            assert scan.lower == tuple(radius - EPS_GEO for radius in scan.radii)
            assert scan.upper == tuple(radius + EPS_GEO for radius in scan.radii)
            for r in edge_probes(scan.radii):
                assert cech.read_scan(scan, r) == key_read_radii(scan.radii, r), (config, r)
            filtration = cech_filtration(config)
            radii = filtration.critical_radii
            for r in edge_probes(radii):
                stage = filtration.complexes[key_read_radii(radii, r).hi - 1]
                assert filtration.complex_at(r) is stage, (config, r)


def test_zone_is_the_label_cache_key():
    # every radius strictly between two neighbouring critical radii shares one label
    config = PointConfig(2, ((0.0, 0.0), (1.0, 0.0), (0.5, 0.8), (2.0, 0.5)))
    criticals = sorted({r for _, r in cech.subset_radii(config)})
    for a, b in zip(criticals, criticals[1:]):
        labels = {id(stratum_label(RanPoint(config, a + (b - a) * k / 10))) for k in range(1, 10)}
        assert len(labels) == 1


def test_infinite_radius_is_refused_and_its_zone_reads_like_the_reference():
    # a RanPoint's radius is finite; the scan readings below it still take inf
    config = PointConfig(2, ((0.0, 0.0), (1.0, 0.0), (0.5, 0.8)))
    with pytest.raises(ValueError, match="radius must be finite, got inf"):
        RanPoint(config, math.inf)
    zone = cech.read_scan(cech.subset_radii(config), math.inf)
    assert _zone_label(cech.subset_radii(config), zone) == \
        reference_stratum_label(SimpleNamespace(config=config, radius=math.inf))
    assert same_float(r2(config, math.inf), reference_reading(config, math.inf)[2])
    assert same_float(r2_prime(config, math.inf), reference_reading(config, math.inf)[3])
