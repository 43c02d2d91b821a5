"""One BLAS thread for the scan engine.

Every scan point is a small Lindblad problem (d^2 <= 576 in every preset),
where a BLAS thread pool only contends with itself and with the scan's
worker processes, and where its thread count changes the last bits of the
results. NumPy and SciPy each bundle their own OpenBLAS; both are found
among the shared objects this process has loaded and set through their
exported thread-count functions. With no such library (MKL, a BLAS without
these exports, a C library without dl_iterate_phdr) one warning is logged
and the scan runs with whatever threading the BLAS has.
"""

from __future__ import annotations

import ctypes
import logging
import os

logger = logging.getLogger(__name__)

# (get, set) thread-count exports: NumPy's ILP64 build, SciPy's LP64 build,
# and a plain OpenBLAS.
_EXPORTS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)

_found: tuple | None = None   # this process's (get, set) pairs, once resolved


class _PhdrInfo(ctypes.Structure):
    # the leading fields of struct dl_phdr_info (<link.h>)
    _fields_ = [("addr", ctypes.c_void_p), ("name", ctypes.c_char_p)]


_PHDR_CALLBACK = ctypes.CFUNCTYPE(ctypes.c_int, ctypes.POINTER(_PhdrInfo),
                                  ctypes.c_size_t, ctypes.c_void_p)


def _loaded_openblas() -> list[str]:
    """Paths of the loaded shared objects whose file name names OpenBLAS,
    from the dynamic linker's list (dl_iterate_phdr)."""
    try:
        iterate = ctypes.CDLL(None).dl_iterate_phdr
    except (OSError, AttributeError, TypeError):   # no dl_iterate_phdr here
        return []
    iterate.restype = ctypes.c_int
    iterate.argtypes = [_PHDR_CALLBACK, ctypes.c_void_p]
    names = []

    def visit(info, _size, _data):
        names.append(info.contents.name)
        return 0

    callback = _PHDR_CALLBACK(visit)
    iterate(callback, None)
    paths = (os.fsdecode(name) for name in names if name)
    return sorted(p for p in paths if "openblas" in os.path.basename(p).lower())


def _setters() -> list[tuple]:
    """The (get, set) functions of every loaded OpenBLAS, one pair each."""
    pairs = []
    for path in _loaded_openblas():
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:
            continue
        for get_name, set_name in _EXPORTS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
                get.restype, get.argtypes = ctypes.c_int, []
                set_.restype, set_.argtypes = None, [ctypes.c_int]
                pairs.append((get, set_))
                break
    return pairs


def _libraries() -> tuple:
    """This process's setters, resolved on first use; warns once if none."""
    global _found
    if _found is None:
        _found = tuple(_setters())
        if not _found:
            logger.warning("no OpenBLAS thread-count setter found; the scan "
                           "runs with the BLAS library's own threading")
    return _found


def pin() -> list[tuple]:
    """Set every loaded OpenBLAS to one thread. Returns what `restore`
    needs to give back the previous counts; empty when nothing was found."""
    previous = []
    for get, set_ in _libraries():
        previous.append((set_, get()))
        set_(1)
    return previous


def restore(previous: list[tuple]) -> None:
    """Give back the thread counts that `pin` replaced."""
    for set_, count in previous:
        set_(count)
