"""One subset scan per distinct configuration, shared by value.

Every Cech reader goes through ``cech.subset_radii``, whose scans are kept
in one bounded cache keyed on the points and the subset size cap.  The
``scan_calls`` fixture records the kernel scans that actually run.
"""

import ast
import functools
import inspect
import json
import random

import pytest

from cechstrat import (
    PLPath,
    PointConfig,
    RanPoint,
    SimplicialComplex,
    canonical_form,
    cech_complex,
    cech_filtration,
    cech_path,
    dominates,
    entrance_map,
    local_map,
    stratum_label,
    transitions,
    zigzag,
)
from cechstrat import _kernels, cech, complexes

from conftest import clear_package_caches, package_modules, random_moving_path


def five_points():
    return PointConfig(2, ((0.0, 0.0), (1.0, 0.1), (0.4, 0.9), (0.2, 0.45), (0.85, 0.7)))


def flyby_path():
    """A third point passes a fixed pair: edge+point -> path -> edge+point."""
    return PLPath(
        2,
        (0.0, 1.0),
        (((0.0, 0.0), (0.0, 0.0)), ((0.6, 0.0), (0.6, 0.0)), ((1.2, 2.0), (1.2, -2.0))),
        (0.35, 0.35),
    )


def assert_no_rescan(calls):
    assert calls, "the call under test ran no scan at all"
    assert len(calls) == len(set(calls)), "a configuration was scanned twice"


class TestOneScanPerConfiguration:
    def test_growth_zigzag_scans_once(self, scan_calls):
        z = zigzag(cech_path(five_points(), 0.9), 0.01)
        assert len(z.times) >= 4
        assert len(scan_calls) == 1

    def test_entrance_maps_on_moving_path(self, scan_calls):
        p = flyby_path()
        times = [t for t, _ in transitions(p, 0.01)]
        assert len(times) == 2
        for t_from, t_to in ((0.1, times[0]), (0.5, times[0]), (0.5, times[1]),
                             (0.9, times[1]), (0.3, 0.4)):
            scan_calls.clear()
            entrance_map(p, t_from, t_to)
            assert_no_rescan(scan_calls)

    def test_entrance_maps_on_random_moving_paths(self, scan_calls):
        # the entrance maps a zigzag builds, from each interval's midpoint
        # to its transitions, each on a cold cache
        rng = random.Random(11)
        stretches = zigzags = 0
        while zigzags < 4:
            p = random_moving_path(rng)
            try:
                bounds = [0.0, *zigzag(p, 0.01).times, 1.0]
            except ValueError:
                # the transition grid can miss a narrow stratum, and the
                # constancy check then refuses the path (ROADMAP item 5)
                continue
            zigzags += 1
            for k, t_star in enumerate(bounds[1:-1]):
                for a, b in ((bounds[k], t_star), (t_star, bounds[k + 2])):
                    if b - a > 1e-12:
                        scan_calls.clear()
                        entrance_map(p, 0.5 * (a + b), t_star)
                        assert_no_rescan(scan_calls)
                        stretches += 1
        assert stretches >= 20

    def test_local_map_scans_target_once(self, scan_calls):
        target = RanPoint(five_points(), 0.3)
        pts = tuple((x + 1e-4, y - 2e-4) for x, y in five_points().points)
        source = RanPoint(PointConfig(2, pts), 0.3 + 1e-4)
        local_map(source, target)
        assert_no_rescan(scan_calls)
        assert len(scan_calls) == 2

    def test_equal_configurations_share_one_scan(self, scan_calls):
        pts = ((0.0, 0.0), (1.0, 0.0), (0.5, 0.8))
        a, b = PointConfig(2, pts), PointConfig(2, pts)
        assert a is not b
        la = stratum_label(RanPoint(a, 0.45))
        lb = stratum_label(RanPoint(b, 0.45))
        assert la == lb
        assert len(scan_calls) == 1

    def test_signed_zeros_share_one_scan(self, scan_calls):
        plus = PointConfig(2, ((0.0, 0.0), (1.0, 0.0), (0.5, 0.8)))
        minus = PointConfig(2, ((-0.0, 0.0), (1.0, -0.0), (0.5, 0.8)))
        scan = cech.subset_radii(minus)
        assert cech.subset_radii(plus) is scan
        assert len(scan_calls) == 1
        assert list(scan) == _kernels.subset_meb_radii(plus.points, 3)


class TestCachedScan:
    def test_subset_radii_is_the_kernel_scan_as_a_tuple(self):
        cfg = five_points()
        for max_dim, cap in ((None, 5), (1, 2), (2, 3)):
            scan = cech.subset_radii(cfg, max_dim)
            assert isinstance(scan, tuple)
            assert all(isinstance(entry, tuple) for entry in scan)
            assert list(scan) == _kernels.subset_meb_radii(cfg.points, cap)

    def test_size_cap_is_part_of_the_key(self, scan_calls):
        cfg = five_points()
        assert len(cech.subset_radii(cfg, 1)) == 10
        assert len(cech.subset_radii(cfg)) == 26
        assert len(scan_calls) == 2

    def test_warm_output_matches_cold(self):
        def render():
            growth = zigzag(cech_path(five_points(), 0.9), 0.01)
            moving = zigzag(flyby_path(), 0.01)
            filtration = cech_filtration(five_points())
            labels = [stratum_label(RanPoint(five_points(), r)) for r in (0.0, 0.3, 0.5, 2.0)]
            return json.dumps([growth.to_json_dict(), moving.to_json_dict(),
                               filtration.to_json_dict(), [lbl.to_json_dict() for lbl in labels]],
                              sort_keys=True)

        cech._scan.cache_clear()
        cold = render()
        hits = cech._scan.cache_info().hits
        warm = render()
        assert cech._scan.cache_info().hits > hits
        cech._scan.cache_clear()
        assert render() == warm == cold


class TestWorkCount:
    """A growth zigzag builds its one configuration once and one complex per
    radius zone, not one per evaluation and label."""

    def test_growth_zigzag_constructions(self, scan_calls, monkeypatch):
        clear_package_caches()
        built = {PointConfig: 0, SimplicialComplex: 0}
        for cls in built:
            def counting(self, *args, _cls=cls, _init=cls.__init__, **kwargs):
                built[_cls] += 1
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting)
        z = zigzag(cech_path(five_points(), 0.9), 0.01)
        assert len(z.times) >= 4
        assert len(scan_calls) == 1
        # one configuration per evaluation and one complex per label would
        # be 1,607 and 1,555 here
        assert built[PointConfig] <= 50
        assert built[SimplicialComplex] <= 250


class TestOneComplexPerZone:
    """A configuration's Cech complex is built once per spanned prefix of
    the radius's zone (its ``hi``), kept on the cached scan and shared by
    ``cech_complex``, ``stratum_label`` and ``cech_filtration``."""

    def test_radii_in_one_zone_share_one_complex(self, monkeypatch):
        clear_package_caches()
        built = count_complexes(monkeypatch)
        cfg = five_points()
        scan = cech.subset_radii(cfg)
        radii = sorted(set(scan.radii))
        probes = [0.0] + [0.5 * (a + b) for a, b in zip(radii, radii[1:])] + radii
        seen, zones = {}, set()
        for r in probes:
            for offset in (0.0, 1e-12):  # well inside EPS_GEO: the same zone
                zone = cech.read_scan(scan, r + offset)
                zones.add(zone)
                c = cech_complex(RanPoint(cfg, r + offset))
                assert seen.setdefault(zone.hi, c) is c
                assert c is scan.complex(zone.hi)
        # a critical zone (lo, hi) and the zone (hi, hi) after it share one
        assert len(zones) > len(seen) == len({id(c) for c in seen.values()}) >= 12
        assert len(built) == len(seen)
        for hi, c in seen.items():
            assert c == SimplicialComplex(5, scan.complex_masks(hi))

    def test_stratum_label_fills_the_complex_cache(self, monkeypatch):
        clear_package_caches()
        built = count_complexes(monkeypatch)
        x = RanPoint(five_points(), 0.3)
        label = stratum_label(x)
        assert len(built) == 1 + complexes._iso_class.cache_info().misses
        c = cech_complex(x)
        assert len(built) == 1 + complexes._iso_class.cache_info().misses
        assert c is built[0]
        assert canonical_form(c) == label.cls

    def test_filtration_shares_the_complexes(self):
        clear_package_caches()
        cfg = five_points()
        filt = cech_filtration(cfg)
        for i, r in enumerate(filt.critical_radii[1:]):
            assert cech_complex(RanPoint(cfg, r - 1e-6)) is filt.complexes[i]

    def test_growth_zigzag_builds_only_zone_complexes_and_classes(self, monkeypatch):
        clear_package_caches()
        built = count_complexes(monkeypatch)
        cfg = five_points()
        z = zigzag(cech_path(cfg, 0.9), 0.01)
        scan = cech.subset_radii(cfg)
        prefixes = {id(scan.complex(zone.hi)) for zone in scan.labels}
        assert len(z.times) >= 4 and len(scan.labels) > len(prefixes)
        assert len(built) == len(prefixes) + complexes._iso_class.cache_info().misses
        assert prefixes <= {id(c) for c in built}

    def test_complexes_and_labels_leave_with_their_scan(self):
        clear_package_caches()
        x = RanPoint(five_points(), 0.3)
        label, c = stratum_label(x), cech_complex(x)
        assert stratum_label(x) is label and cech_complex(x) is c
        cech._scan.cache_clear()
        assert stratum_label(x) is not label and cech_complex(x) is not c
        assert stratum_label(x) == label and cech_complex(x) == c


def count_complexes(monkeypatch) -> list:
    """Every ``SimplicialComplex`` built from here on, in order."""
    built = []
    init = SimplicialComplex.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(SimplicialComplex, "__init__", counting)
    return built


def is_functools_cache(node, module) -> bool:
    """Whether an expression names ``functools.lru_cache``/``functools.cache``."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        return getattr(module, node.value.id, None) is functools and node.attr in ("lru_cache", "cache")
    if isinstance(node, ast.Name):
        return getattr(module, node.id, None) in (functools.lru_cache, functools.cache)
    return False


def test_only_the_scan_cache_is_keyed_on_a_configuration():
    # a configuration's complexes and labels live on its cached scan (keyed
    # on the points), so that emptying the scan cache empties them too
    keyed = set()
    for module in package_modules():
        try:
            tree = ast.parse(inspect.getsource(module))
        except (OSError, TypeError):  # compiled extension: no Python source
            continue
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and \
                    any(is_functools_cache(dec, module) for dec in node.decorator_list):
                args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
                annotations = {ast.unparse(a.annotation) for a in args if a.annotation}
                if any(name in text for text in annotations for name in ("PointConfig", "RanPoint")):
                    keyed.add(f"{module.__name__}.{node.name}")
    assert keyed <= {"cechstrat.cech._scan"}


def test_no_cache_is_keyed_on_a_complex():
    # a complex's order invariants are properties cached on the complex, so
    # no lookup hashes it
    keyed = set()
    for module in package_modules():
        try:
            tree = ast.parse(inspect.getsource(module))
        except (OSError, TypeError):  # compiled extension: no Python source
            continue
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and \
                    any(is_functools_cache(dec, module) for dec in node.decorator_list):
                args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
                if any(a.annotation and "SimplicialComplex" in ast.unparse(a.annotation)
                       for a in args):
                    keyed.add(f"{module.__name__}.{node.name}")
    assert keyed == set()


class TestCacheGuard:
    """Every cache in the package is bounded and can be emptied from its module,
    which is how a fresh process, and a per-operation reset, sees it."""

    def test_every_cache_is_a_bounded_module_level_lru_cache(self):
        clear_package_caches()  # filled below by what this test runs, not by earlier tests
        found = {}
        for module in package_modules():
            try:
                tree = ast.parse(inspect.getsource(module))
            except (OSError, TypeError):  # compiled extension: no Python source
                continue
            top_level = {id(node) for node in tree.body}
            decorators = set()
            for node in ast.walk(tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    for dec in node.decorator_list:
                        if is_functools_cache(dec, module):
                            assert id(node) in top_level, \
                                f"{module.__name__}.{node.name}: cache below module level"
                            decorators.update((id(dec), id(getattr(dec, "func", dec))))
                            found[f"{module.__name__}.{node.name}"] = getattr(module, node.name)
            for node in ast.walk(tree):
                if is_functools_cache(node, module) and id(node) not in decorators:
                    pytest.fail(f"{module.__name__}: cache made outside a module-level "
                                f"decorator at line {node.lineno}")
            visible = {f"{module.__name__}.{name}" for name, value in vars(module).items()
                       if callable(getattr(value, "cache_clear", None))
                       and getattr(value, "__module__", None) == module.__name__}
            assert visible == {k for k in found if k.rsplit(".", 1)[0] == module.__name__}
        assert "cechstrat.cech._scan" in found
        label = stratum_label(RanPoint(five_points(), 0.3))
        c = label.cls.canonical
        dominates(c, c)
        # the pure search plans, which ``dominates`` leaves empty on compiled
        # and a search between equal vertex counts does not fill
        _kernels.backends["pure"].surjection_witness(c.n_vertices, 1, c.masks, (1,))
        for name, cached in found.items():
            info = cached.cache_info()
            assert isinstance(info.maxsize, int) and info.maxsize > 0, name
            assert info.currsize > 0, \
                f"{name} was not filled by labelling a configuration and comparing its class"
            cached.cache_clear()
            assert cached.cache_info().currsize == 0, name
