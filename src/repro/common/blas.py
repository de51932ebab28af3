"""Read and cap the thread count of the OpenBLAS build numpy has loaded.

A process-mode serving worker is one of N processes, one per core, so a
second BLAS thread inside it has no core of its own.  In the related-entity
build it does worse than nothing: the randomized SVD alternates
multi-threaded LAPACK QR calls with single-threaded numpy passes, and
OpenBLAS's idle thread spin-waits through the latter, burning CPU the
serving fleet needs.

numpy exposes no thread-count API, so this module finds the OpenBLAS
shared library in the process's memory map and calls its exported
setter through ``ctypes``.  The wheel's symbol names vary with the build
(``scipy_openblas`` prefixes, ``64_`` suffixes for 64-bit integer
interfaces); the first one exported wins.  Where the thread pool has not
started yet, the pool is sized down first so that the setter starts no
thread it will never use (:func:`_presize_pool`).  On a build without
OpenBLAS, or a platform without ``/proc/self/maps``, both functions do
nothing.

The setter is process-global and unsafe while another thread is inside a
BLAS call: call :func:`set_blas_threads` only where the process has one
thread, such as a freshly forked worker before its first BLAS call.
"""

from __future__ import annotations

import ctypes
import os

import numpy as np  # noqa: F401  (maps the OpenBLAS library this module looks for)

_SETTERS = (
    "scipy_openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "openblas_set_num_threads",
)
_GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def _openblas_path() -> str | None:
    """Path of the OpenBLAS shared library mapped into this process, if any."""
    try:
        with open("/proc/self/maps") as maps:
            for line in maps:
                fields = line.split(maxsplit=5)
                if len(fields) < 6:
                    continue
                path = fields[5].rstrip("\n")
                name = os.path.basename(path)
                if "openblas" in name and ".so" in name:
                    return path
    except OSError:
        return None
    return None


def _library() -> ctypes.CDLL | None:
    path = _openblas_path()
    if path is None:
        return None
    try:
        return ctypes.CDLL(path)
    except OSError:
        return None


def _first(library: ctypes.CDLL | None, names: tuple[str, ...]):
    """The first of ``names`` that ``library`` exports, or ``None``."""
    if library is None:
        return None
    for name in names:
        function = getattr(library, name, None)
        if function is not None:
            return function
    return None


def _presize_pool(library: ctypes.CDLL, count: int) -> None:
    """Size a not-yet-started thread pool to ``count`` threads.

    The setter starts OpenBLAS's pool if it is not running, as in every
    freshly forked child (OpenBLAS stops its pool before a fork), and
    sizes it from the thread count read at load, one per CPU.  Threads
    beyond ``count`` then never get work, yet each spin-waits ~0.13 s of
    CPU before it sleeps, while the worker is loading its bundle.
    Lowering the library's pool size first, as ``OPENBLAS_NUM_THREADS``
    would have at load, starts none.  A build that does not export these
    variables keeps that one-off spin.
    """
    try:
        started = ctypes.c_int.in_dll(library, "blas_server_avail")
        pool_size = ctypes.c_int.in_dll(library, "blas_num_threads")
    except ValueError:
        return
    if not started.value and pool_size.value > count:
        pool_size.value = count


def set_blas_threads(count: int) -> bool:
    """Cap OpenBLAS at ``count`` threads; ``False`` (and no change) if no setter."""
    if count < 1:
        raise ValueError(f"BLAS thread count must be at least 1, got {count}")
    library = _library()
    setter = _first(library, _SETTERS)
    if setter is None:
        return False
    setter.argtypes = [ctypes.c_int]
    setter.restype = None
    _presize_pool(library, count)
    setter(count)
    return True


def blas_threads() -> int | None:
    """OpenBLAS's current thread count, or ``None`` if it cannot be read."""
    getter = _first(_library(), _GETTERS)
    if getter is None:
        return None
    getter.argtypes = []
    getter.restype = ctypes.c_int
    return int(getter())
