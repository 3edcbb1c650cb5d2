"""Kernel backends for the compiled runtime.

``numpy`` is the reference every plan can fall back to; ``numba`` (``@njit``
flat loops) is used when numba is importable.  :func:`resolve_backend` is
the one place a backend name is checked and turned into a
:class:`~repro.runtime.backends.base.Backend`.  See ``README.md`` §Backends
for the selection/fallback contract.
"""

from repro.runtime.backends.base import REFERENCE, Backend, NativeKernel
from repro.runtime.backends.numba_backend import NUMBA_AVAILABLE, NumbaBackend

__all__ = [
    "Backend",
    "NativeKernel",
    "NUMBA_AVAILABLE",
    "NumbaBackend",
    "REFERENCE",
    "resolve_backend",
]

#: the names ``backend=`` accepts
BACKEND_NAMES = ("numpy", "numba", "auto")

_NUMBA = NumbaBackend()


def resolve_backend(name: str) -> Backend:
    """The backend that runs for ``name``.

    ``"numba"`` and ``"auto"`` resolve to numba when it is importable and to
    the reference otherwise — callers can tell from ``.name`` and the plan
    stats.  Any other name raises :class:`ValueError`.
    """
    if name not in BACKEND_NAMES:
        raise ValueError(
            f"unknown backend {name!r}; expected one of {BACKEND_NAMES}")
    if name != "numpy" and NUMBA_AVAILABLE:
        return _NUMBA
    return REFERENCE
