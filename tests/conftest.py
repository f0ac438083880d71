import importlib
import math
import os
import pkgutil
import random
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

import cechstrat
from cechstrat import (
    IsoClass, PLPath, PointConfig, SimplicialComplex, _kernels, canonical_form, cech,
    make_complex,
)

# A bare `pytest` in a checkout finds the package through pyproject's
# `pythonpath`; the interpreters the CLI tests start find it through this.
SRC = str(Path(__file__).resolve().parents[1] / "src")
if SRC not in os.environ.get("PYTHONPATH", "").split(os.pathsep):
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))

settings.register_profile(
    "ci",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


def named_complexes() -> dict[str, SimplicialComplex]:
    """The eight complexes on at most three vertices, by shape name."""
    return {
        "point": make_complex(1, []),
        "two_points": make_complex(2, []),
        "edge": make_complex(2, [{0, 1}]),
        "discrete3": make_complex(3, []),
        "edge_plus_point": make_complex(3, [{0, 1}]),
        "path3": make_complex(3, [{0, 1}, {1, 2}]),
        "cycle3": make_complex(3, [{0, 1}, {1, 2}, {0, 2}]),
        "filled3": make_complex(3, [{0, 1, 2}]),
    }


@pytest.fixture(scope="session")
def named():
    return named_complexes()


@pytest.fixture(scope="session")
def named_classes(named) -> dict[str, IsoClass]:
    return {name: canonical_form(c) for name, c in named.items()}


def fig2_complexes():
    """Six-vertex complex collapsing onto a four-vertex one, and the latter
    included into a filled enrichment: the standard domination example."""
    c = make_complex(6, [{0, 1}, {1, 2}, {2, 3}, {1, 3}, {3, 4}, {4, 5}])
    d = make_complex(4, [{0, 1}, {0, 2}, {1, 2}, {2, 3}])
    e = make_complex(4, [{0, 1, 2}, {2, 3}, {0, 3}])
    return c, d, e


FIG2_MAP_C_TO_D = (0, 0, 1, 2, 3, 3)


def random_complex(rng: random.Random, n_max: int = 5) -> SimplicialComplex:
    n = rng.randint(1, n_max)
    generators = []
    for mask in range(1, 1 << n):
        if mask.bit_count() >= 2 and rng.random() < 1.8 / mask.bit_count() ** 2:
            generators.append([v for v in range(n) if mask >> v & 1])
    return make_complex(n, generators)


def random_moving_path(rng):
    """2-4 tracks and a radius, each piecewise linear over 2-4 breakpoints."""
    while True:
        bps = [0.0] + sorted(rng.uniform(0.05, 0.95) for _ in range(rng.randint(0, 2))) + [1.0]
        tracks = tuple(tuple((rng.uniform(0, 1), rng.uniform(0, 1)) for _ in bps)
                       for _ in range(rng.randint(2, 4)))
        try:
            return PLPath(2, tuple(bps), tracks, tuple(rng.uniform(0.05, 0.5) for _ in bps))
        except ValueError:  # tracks touch inside a segment
            continue


def random_still_path(rng):
    """2-5 fixed points in the unit square under a radius polyline of 2-12
    breakpoints: a quarter of the radii hold the one before, a quarter sit
    exactly on a scan radius or a band edge, the rest lie anywhere below
    1.2 times the largest scan radius."""
    while True:
        try:
            cfg = PointConfig(2, tuple((rng.random(), rng.random())
                                       for _ in range(rng.randint(2, 5))))
            break
        except ValueError:
            continue
    scan = cech.subset_radii(cfg)
    marked = (*scan.radii, *sorted(scan.lower + scan.upper))
    n_bp = rng.randint(2, 12)
    bp = (0.0, *sorted(rng.uniform(0.01, 0.99) for _ in range(n_bp - 2)), 1.0)
    radius = []
    for _ in bp:
        u = rng.random()
        if u < 0.25 and radius:
            radius.append(radius[-1])
        elif u < 0.5:
            radius.append(rng.choice(marked))
        else:
            radius.append(rng.uniform(0.0, 1.2 * scan.radii[-1]))
    return PLPath(2, bp, tuple((q,) * n_bp for q in cfg.points), tuple(radius))


def float_steps(x: float, k: int) -> float:
    """``x`` moved by ``k`` floats, up for k > 0 and down for k < 0."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


def random_edge_path(rng):
    """2-4 fixed points in the unit square under a radius polyline of 2-6
    breakpoints, each radius within a few floats of a band edge: a fifth
    of the radii hold the one before, half are a scan radius or a band
    edge moved by -3..3 floats, the rest lie anywhere below 1.2 times the
    largest scan radius."""
    while True:
        try:
            cfg = PointConfig(2, tuple((rng.random(), rng.random())
                                       for _ in range(rng.randint(2, 4))))
            break
        except ValueError:
            continue
    scan = cech.subset_radii(cfg)
    marked = (*scan.radii, *sorted(scan.lower + scan.upper))
    n_bp = rng.randint(2, 6)
    bp = (0.0, *sorted(rng.uniform(0.01, 0.99) for _ in range(n_bp - 2)), 1.0)
    radius = []
    for _ in bp:
        u = rng.random()
        if u < 0.2 and radius:
            radius.append(radius[-1])
        elif u < 0.7:
            radius.append(max(float_steps(rng.choice(marked), rng.randint(-3, 3)), 0.0))
        else:
            radius.append(rng.uniform(0.0, 1.2 * scan.radii[-1]))
    return PLPath(2, bp, tuple((q,) * n_bp for q in cfg.points), tuple(radius))


def package_modules():
    """Every module of the package, the compiled kernels included when built."""
    for info in pkgutil.walk_packages(cechstrat.__path__, "cechstrat."):
        if not info.name.endswith("__main__"):
            yield importlib.import_module(info.name)


def clear_package_caches():
    """Empties every cache in the package, as a fresh process would see it."""
    for module in package_modules():
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


class ScanCalls(list):
    """Recorded scan arguments; ``clear`` also empties the scan cache, so
    that each reader after it starts cold."""

    def clear(self):
        super().clear()
        cech._scan.cache_clear()


@pytest.fixture
def scan_calls(monkeypatch):
    """Arguments of every subset scan the kernels run during the test,
    which starts with an empty scan cache."""
    calls = ScanCalls()
    calls.clear()
    scan = cech._kernels.subset_meb_radii

    def counting(*args):
        calls.append(args)
        return scan(*args)

    monkeypatch.setattr(cech._kernels, "subset_meb_radii", counting)
    return calls


def pytest_terminal_summary(terminalreporter):
    """Names the kernel backend the tests ran on: the compiled-only kernel
    tests skip without the extension, so the counts differ by backend."""
    terminalreporter.write_line(f"cechstrat kernels: {_kernels.BACKEND} "
                                f"(importable: {', '.join(sorted(_kernels.backends))})")
