"""Which BLAS numpy uses, and how many threads it runs."""

from __future__ import annotations

import ctypes
import os
from pathlib import Path

import numpy as np

# Thread-count queries of the OpenBLAS builds numpy wheels ship and of a
# system OpenBLAS.
_QUERIES = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def describe() -> tuple[str, int]:
    """``(vendor and version, threads in effect)``.

    The thread count comes from the loaded library when it answers;
    otherwise it is the limit set in the environment, or 1 when none is.
    """
    info = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    vendor = f"{info.get('name', 'unknown')} {info.get('version', '')}".strip()
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else ():
        handle = ctypes.CDLL(str(lib))
        for symbol in _QUERIES:
            query = getattr(handle, symbol, None)
            if query is not None:
                query.restype = ctypes.c_int
                query.argtypes = []
                return vendor, int(query())
    return vendor, int(os.environ.get("OPENBLAS_NUM_THREADS", "1"))
