"""Per-layer counters and self times, taken from outside the library.

Each traced function is replaced, in every namespace of the package that
binds it (``from ... import`` copies included), by a wrapper that counts
calls and records its span.  A span's self time is its duration minus the
spans nested inside it.  Classes are traced through ``__init__``.
"""

from __future__ import annotations

import sys
import time

#: module -> public functions and classes traced in it; metric names drop
#: the module's leading underscore (``kernels.subset_meb_radii.calls``)
LAYERS = {
    "_kernels": ("subset_meb_radii", "canonical_masks", "surjection_witness"),
    "complexes": ("SimplicialComplex", "canonical_form", "is_simplicial"),
    "geometry": ("PointConfig", "sup_distance"),
    "cech": ("cech_complex", "subset_radii"),
    "scposet": ("dominates", "enumerate_classes", "hasse", "export_dot"),
    "strat": ("stratum_label", "tilde_r", "local_map"),
    "paths": ("PLPath", "evaluate", "transitions", "entrance_map"),
}

#: spans whose call count is not reported (one call per op)
_NO_CALLS = {"scposet.enumerate_classes", "scposet.hasse", "scposet.export_dot",
             "paths.transitions"}

#: counters that must not read zero on a workload that runs the layer
EXERCISED = {
    "growth_zigzag": (
        "kernels.subset_meb_radii.calls", "kernels.canonical_masks.calls",
        "kernels.surjection_witness.calls", "complexes.SimplicialComplex.calls",
        "complexes.canonical_form.calls", "complexes.is_simplicial.calls",
        "geometry.PointConfig.calls", "geometry.sup_distance.calls",
        "cech.cech_complex.calls", "cech.subset_radii.calls", "scposet.dominates.calls",
        "strat.stratum_label.calls", "strat.tilde_r.calls", "strat.local_map.calls",
        "paths.PLPath.calls", "paths.evaluate.calls", "paths.entrance_map.calls",
        "paths.transitions_found",
    ),
    "enumerate_poset": (
        "kernels.canonical_masks.calls", "kernels.surjection_witness.calls",
        "complexes.SimplicialComplex.calls", "complexes.canonical_form.calls",
        "scposet.dominates.calls",
    ),
}


def _layer(module: str) -> str:
    return module.lstrip("_")


def count_names() -> list[str]:
    """Counter metric names, the same on every backend."""
    names = []
    for module, attrs in LAYERS.items():
        for attr in attrs:
            if f"{_layer(module)}.{attr}" not in _NO_CALLS:
                names.append(f"{_layer(module)}.{attr}.calls")
    names += [
        "kernels.subset_meb_radii.subsets", "kernels.subset_meb_radii.repeat_ratio",
        "kernels.surjection_witness.found_ratio", "complexes.canonical_form.hit_ratio",
        "strat.scans_per_label", "paths.transitions_found", "paths.labels_per_transition",
    ]
    return names


def time_names() -> list[str]:
    """Self-time metric names, before the backend suffix."""
    return [f"{_layer(m)}.{a}.self_s" for m, attrs in LAYERS.items() for a in attrs]


class Tracer:
    """Counts and times calls into the package once :meth:`install` ran."""

    def __init__(self):
        self.enabled = False
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.subsets = 0
        self.scanned: set = set()
        self.repeats = 0
        self.found = 0
        self.transitions_found = 0
        self._stack: list[float] = []

    def _wrap(self, name: str, fn, observe=None):
        self.calls[name] = 0
        self.self_s[name] = 0.0
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                nested = stack.pop()
                self.calls[name] += 1
                self.self_s[name] += dt - nested
                if stack:
                    stack[-1] += dt
            if observe is not None:
                observe(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _observe_scan(self, args, result):
        self.subsets += len(result)
        key = (tuple(map(tuple, args[0])), args[1])
        if key in self.scanned:
            self.repeats += 1
        else:
            self.scanned.add(key)

    def _observe_witness(self, args, result):
        self.found += result is not None

    def _observe_transitions(self, args, result):
        self.transitions_found += len(result)

    def install(self, extra_namespaces=()) -> None:
        """Wrap every traced name in the package and in ``extra_namespaces``.

        The kernel backends themselves are left alone, so that calls the
        pure kernels make among themselves are not counted.
        """
        observers = {
            "kernels.subset_meb_radii": self._observe_scan,
            "kernels.surjection_witness": self._observe_witness,
            "paths.transitions": self._observe_transitions,
        }
        replace = {}
        for module, attrs in LAYERS.items():
            mod = sys.modules[f"cechstrat.{module}"]
            for attr in attrs:
                name = f"{_layer(module)}.{attr}"
                obj = getattr(mod, attr)
                if isinstance(obj, type):
                    obj.__init__ = self._wrap(name, obj.__init__)
                else:
                    replace[id(obj)] = self._wrap(name, obj, observers.get(name))
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if (n == "cechstrat" or n.startswith("cechstrat."))
                      and not n.startswith("cechstrat._kernels.")]
        namespaces += list(extra_namespaces)
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if id(value) in replace:
                    setattr(ns, attr, replace[id(value)])

    def counts(self) -> dict[str, float]:
        c = self.calls
        scans = c["kernels.subset_meb_radii"]
        labels = c["strat.stratum_label"]
        out = {f"{name}.calls": n for name, n in c.items() if name not in _NO_CALLS}
        out.update({
            "kernels.subset_meb_radii.subsets": self.subsets,
            "kernels.subset_meb_radii.repeat_ratio": _ratio(self.repeats, scans),
            "kernels.surjection_witness.found_ratio":
                _ratio(self.found, c["kernels.surjection_witness"]),
            "complexes.canonical_form.hit_ratio":
                1.0 - _ratio(c["kernels.canonical_masks"], c["complexes.canonical_form"])
                if c["complexes.canonical_form"] else 0.0,
            "strat.scans_per_label": _ratio(scans, labels),
            "paths.transitions_found": self.transitions_found,
            "paths.labels_per_transition": _ratio(labels, self.transitions_found),
        })
        return out

    def times(self) -> dict[str, float]:
        return {f"{name}.self_s": s for name, s in self.self_s.items()}


def _ratio(a: int, b: int) -> float:
    return a / b if b else 0.0

