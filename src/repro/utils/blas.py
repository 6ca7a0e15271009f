"""numpy's OpenBLAS thread count, read and set through ctypes.

Serving process workers share the host's cores: K shard processes each
running an OpenBLAS pool of one thread per core oversubscribe the machine,
so a shard worker sets its own pool to its share of the cores
(:mod:`repro.serve.transport`).

The library is reached through numpy's own extension module: a symbol
looked up on that module's handle resolves in the libraries it links, so
this finds the OpenBLAS that numpy's GEMMs run on (numpy's bundled build
or a system one) without listing every loaded library.  The symbol names
are the ones the benchmark harness reads the thread count by.  Another
OpenBLAS in the process (scipy bundles its own) is left alone: no serving
GEMM runs on it, and restarting its pool cost a freshly forked worker
about 5 ms on a 2-core VM.  Without an OpenBLAS under numpy nothing is
found and nothing is set.
"""

from __future__ import annotations

import ctypes

try:
    from numpy._core import _multiarray_umath
except ImportError:  # numpy 1.x
    from numpy.core import _multiarray_umath

__all__ = ["blas_threads", "set_blas_threads"]

# numpy's bundled 64-bit-integer build, then a system one.
_SYMBOLS = ("scipy_openblas_{}64_", "openblas_{}64_", "openblas_{}")


def _numpy_openblas(name: str):
    """The OpenBLAS function ``name`` as numpy links it, or ``None``."""
    lib = ctypes.CDLL(_multiarray_umath.__file__)
    for spelling in _SYMBOLS:
        symbol = getattr(lib, spelling.format(name), None)
        if symbol is not None:
            return symbol
    return None


def blas_threads() -> int | None:
    """Threads numpy's OpenBLAS will use, or ``None`` without one."""
    getter = _numpy_openblas("get_num_threads")
    if getter is None:
        return None
    getter.restype = ctypes.c_int
    return int(getter())


def set_blas_threads(count: int) -> bool:
    """Set numpy's OpenBLAS thread count; ``False`` without one."""
    setter = _numpy_openblas("set_num_threads")
    if setter is None:
        return False
    setter.argtypes = [ctypes.c_int]
    setter(max(1, int(count)))
    return True
