"""The compiled loops of ``_kernel.c``, built and loaded on first use, and
the BLAS and LAPACK routines the sparse LU factor calls from them."""

from __future__ import annotations

import os
import platform
from pathlib import Path

import numpy as np

from .errors import IncprocError

# the command that builds ``_kernel.c``; no contraction to fused
# multiply-adds (gcc's default on aarch64), so each weight rounds as the
# scalar definition does
_CC = ("cc", "-O2", "-ffp-contract=off", "-shared", "-fPIC")
# the routines incproc_lu_factor and incproc_lu_solve call, in the order they take them
_LAPACK = (("cython_blas", "dgemm"), ("cython_blas", "dtrsm"),
           ("cython_lapack", "dgetrf"), ("cython_lapack", "dlaswp"))
_library = None
_routines = None


def _address(a: np.ndarray) -> int:
    """The address of the first element of the contiguous array ``a``."""
    return a.ctypes.data


def _compiled():
    """The library built from ``_kernel.c``, built and loaded on first use,
    with the argument types of its eight functions set: the event loop
    ``incproc_slice``, the channel steps ``incproc_channels``, the path
    replay ``incproc_trace``, the state-space layer ``incproc_counts``,
    ``incproc_rank_many`` and ``incproc_assemble``, and the LU
    ``incproc_lu_factor`` and ``incproc_lu_solve``.

    The build is cached in ``$XDG_CACHE_HOME/incproc``, else
    ``~/.cache/incproc``, under a hash of the source and the command. It is
    compiled to a temporary file that is then renamed into place, so
    processes that load at once each find a whole file or none. Where that
    directory cannot be written, or there is no home directory, it is built
    in a temporary directory of this process, removed once loaded. Raises
    ``IncprocError``, naming the command, if the build fails.
    """
    global _library
    if _library is None:
        import ctypes
        import hashlib
        import shutil
        import subprocess
        import tempfile
        source = Path(__file__).with_name("_kernel.c")
        tag = hashlib.sha256(source.read_bytes() + " ".join(
            (*_CC, platform.machine())).encode()).hexdigest()[:16]
        own = tmp = None
        try:
            cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "incproc"
            lib = cache / f"kernel-{tag}.so"
            if not lib.exists():
                cache.mkdir(parents=True, exist_ok=True)
                fd, tmp = tempfile.mkstemp(".so", dir=cache)
        except (OSError, RuntimeError):     # no home directory, or none that can be written
            own = tempfile.mkdtemp(prefix="incproc-")
            lib = Path(own) / "kernel.so"
            fd, tmp = tempfile.mkstemp(".so", dir=own)
        if tmp is not None:
            os.close(fd)
            command = [*_CC, "-o", tmp, str(source)]
            try:
                built = subprocess.run(command, capture_output=True, text=True)
                failure = built.stderr.strip() if built.returncode else None
            except OSError as exc:
                failure = str(exc)
            if failure is not None:
                os.unlink(tmp)
                if own:
                    shutil.rmtree(own)
                raise IncprocError(f"cannot build the compiled kernels with "
                                   f"`{' '.join(command)}`: {failure}")
            os.replace(tmp, lib)
        library = ctypes.CDLL(str(lib))
        if own:
            shutil.rmtree(own)
        i64, real, flag, ptr = ctypes.c_int64, ctypes.c_double, ctypes.c_int, ctypes.c_void_p
        library.incproc_slice.argtypes = [ptr, ptr, ptr, i64, real, flag, real, flag, ptr, ptr,
                                          ptr, ptr, ptr, i64, ptr, ptr, i64, real, ptr, ptr,
                                          ptr, ptr]
        library.incproc_channels.argtypes = [ptr, ptr, ctypes.c_uint8, ptr, ptr, ptr, ptr,
                                             ptr, ptr, ptr, ptr, ptr, i64]
        library.incproc_trace.argtypes = [ptr, ptr, ptr, i64, real, i64, i64, ptr, ptr, ptr,
                                          ptr, ptr, ptr]
        library.incproc_lu_factor.argtypes = [i64, ptr, ptr, ptr, ptr, ptr, ptr, ptr, ptr, ptr,
                                              ptr, ptr, ptr, ptr, i64, ptr, ptr, ptr, ptr]
        library.incproc_lu_solve.argtypes = [i64, ptr, ptr, ptr, ptr, ptr, i64, i64, ptr, ptr,
                                             flag, ptr]
        library.incproc_counts.argtypes = [i64, i64, i64, ptr]
        library.incproc_rank_many.argtypes = [i64, i64, ptr, ptr, i64, ptr]
        library.incproc_assemble.argtypes = [i64, i64, ptr, ptr, i64, ptr, ptr, ptr, i64, i64,
                                             real, flag, ptr, ptr, ptr, ptr, ptr, ptr]
        for function in (library.incproc_slice, library.incproc_channels, library.incproc_trace,
                         library.incproc_rank_many, library.incproc_assemble,
                         library.incproc_lu_factor):
            function.restype = i64
        library.incproc_counts.restype = library.incproc_lu_solve.restype = None
        _library = library
    return _library


def _lapack() -> int:
    """The address of a table of the entry points of ``dgemm``, ``dtrsm``,
    ``dgetrf`` and ``dlaswp``: scipy's own BLAS and LAPACK, which
    ``scipy.linalg.cython_blas`` and ``cython_lapack`` export as capsules.
    Read on the first call, so importing incproc imports neither module."""
    import ctypes
    global _routines
    if _routines is None:
        import importlib
        api = ctypes.pythonapi
        name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(("PyCapsule_GetName", api))
        pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
            ("PyCapsule_GetPointer", api))
        capsules = [importlib.import_module(f"scipy.linalg.{module}").__pyx_capi__[routine]
                    for module, routine in _LAPACK]
        _routines = (ctypes.c_void_p * len(capsules))(
            *(pointer(capsule, name(capsule)) for capsule in capsules))
    return ctypes.addressof(_routines)
