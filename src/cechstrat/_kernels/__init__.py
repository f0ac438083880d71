"""Kernel backend selection.

The compiled extension is preferred when importable; set
``CECHSTRAT_KERNELS=pure`` (or ``=compiled``) to force a backend at import
time.  Both backends expose the same four operations with identical
semantics and deterministic results.  The canonical labeling is the pure
one on both: it relabels up to five vertices in one wide-integer pass and
prunes from six, where the compiled kernel tries the n! relabelings one
by one, so it is the faster on enumeration's five-vertex classes and from
six vertices on, and the slower by microseconds on smaller or sparser
complexes.  The compiled ``canonical_masks`` stays the reference the
tests compare with.

The enclosing-ball kernels take a point list whose points share the
first one's dimension, refused here before either backend reads it: the
compiled kernel would read past a shorter point.
"""

from __future__ import annotations

import os

from . import _pure

backends = {"pure": _pure}
try:
    from . import _ckernels

    backends["compiled"] = _ckernels
except ImportError:
    _ckernels = None

_choice = os.environ.get("CECHSTRAT_KERNELS", "auto").strip().lower() or "auto"
if _choice == "auto":
    _active = backends.get("compiled", _pure)
elif _choice in backends:
    _active = backends[_choice]
else:
    raise ImportError(
        f"CECHSTRAT_KERNELS={_choice!r} not available; known backends: {sorted(backends)}"
    )

BACKEND = "compiled" if _active is not _pure else "pure"


def _check_even(points) -> None:
    """Refuse points of different dimensions."""
    dims = {len(p) for p in points}
    if len(dims) > 1:
        raise ValueError(f"every point needs the first one's dimension, got dimensions "
                         f"{sorted(dims)}")


def meb(points):
    """The active backend's ``meb``, on points of one dimension."""
    _check_even(points)
    return _active.meb(points)


def subset_meb_radii(points, max_size):
    """The active backend's ``subset_meb_radii``, on points of one dimension."""
    _check_even(points)
    return _active.subset_meb_radii(points, max_size)


canonical_masks = _pure.canonical_masks
surjection_witness = _active.surjection_witness
