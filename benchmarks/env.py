"""Process environment for the benchmark: BLAS thread pinning, the source
tree to import from, and the description recorded with every result.

Nothing here imports numpy at module level, because the BLAS thread count
only takes effect if it is set before numpy loads OpenBLAS.
"""

import os
import platform
import sys
from pathlib import Path

# One BLAS thread: the traffic comes from one process and one caller, and the
# machine has 2 cores shared with other tenants, so a single pinned thread
# gives the steadiest figures.  It never exceeds nproc.
BLAS_THREADS = 1
_BLAS_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)

ROOT = Path(__file__).resolve().parent.parent


class MissingSourceError(RuntimeError):
    """The checkout has no ``src/dvpt`` package to benchmark."""


def pin_blas_threads():
    pinned = all(os.environ.get(var) == str(BLAS_THREADS) for var in _BLAS_VARS)
    if "numpy" in sys.modules and not pinned:
        raise RuntimeError("BLAS threads must be pinned before numpy is imported")
    for var in _BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)


def use_source_tree(root=ROOT):
    """Import ``dvpt`` from ``<root>/src``, never from an installed copy."""
    src = Path(root) / "src"
    if not (src / "dvpt" / "__init__.py").is_file():
        raise MissingSourceError(f"no dvpt package under {src}")
    sys.path.insert(0, str(src))
    import dvpt

    if Path(dvpt.__file__).resolve().parent != (src / "dvpt").resolve():
        raise MissingSourceError(f"dvpt imported from {dvpt.__file__}, not {src}")


def nproc():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def describe():
    """Software and thread settings recorded in every result."""
    import numpy
    import scipy

    def blas(module):
        info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"

    return {
        "nproc": nproc(),
        "blas_threads": BLAS_THREADS,
        "blas_env": {var: os.environ.get(var) for var in _BLAS_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "machine": platform.machine(),
    }
