"""Kernel backend selection.

The compiled extension is preferred when present; CHROMARANK_KERNELS=pure
forces the fallback and CHROMARANK_KERNELS=c insists on the extension.
Both backends expose the same functions with identical results, and
grow every subgroup span by the one pure Dimino step, extend_span.
"""

import os

from . import _kernels_py

_choice = os.environ.get("CHROMARANK_KERNELS", "auto").strip().lower()

if _choice in ("", "auto"):
    try:
        from . import _kernels_c as _impl  # type: ignore[attr-defined]
    except ImportError:
        from . import _kernels_py as _impl
elif _choice == "c":
    from . import _kernels_c as _impl  # type: ignore[attr-defined]
elif _choice == "pure":
    from . import _kernels_py as _impl
else:
    raise ImportError(f"unknown CHROMARANK_KERNELS value: {_choice!r}")

BACKEND = _impl.BACKEND

compose = _impl.compose
inverse = _impl.inverse
conjugate = _impl.conjugate
commutes = _impl.commutes
element_order = _impl.element_order
close_group = _impl.close_group
conjugacy_orbit = _impl.conjugacy_orbit
tuple_orbit = _impl.tuple_orbit
centralizer_filter = _impl.centralizer_filter
normalizer_filter = _impl.normalizer_filter
# Both backends: its products are already one itemgetter call each.
extend_span = _kernels_py._extend_span
