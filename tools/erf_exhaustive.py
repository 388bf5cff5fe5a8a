"""Compare dvpt's float32 erf with scipy.special.erf on every float32.

    python3 tools/erf_exhaustive.py

Enumerates all 2**32 float32 bit patterns (both zeros, subnormals, both
infinities and every NaN payload of either sign) in blocks, and counts the
inputs whose result differs from scipy's in any bit.  Prints the first few
mismatching inputs, the count per range of |x|, the total, the wall time and
the numpy and scipy versions, and exits 1 if any result differs.  Takes
several minutes on one core; scipy is the oracle, so it must be installed.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from scipy.special import erf as scipy_erf  # noqa: E402

from dvpt.tensor import erf  # noqa: E402

BLOCK = 1 << 22  # bit patterns per block: 16 MiB per float32 array
SHOWN = 8  # mismatching inputs printed


def mismatches(start, stop):
    """Bit patterns in [start, stop) whose dvpt erf differs from scipy's."""
    x = np.arange(start, stop, dtype=np.uint64).astype(np.uint32).view(np.float32)
    with np.errstate(all="ignore"):  # scipy's own cast of signalling NaNs
        ref = scipy_erf(x)
    ours = erf(x, np.empty_like(x))
    return x.view(np.uint32)[ours.view(np.uint32) != ref.view(np.uint32)]


def main():
    start = time.perf_counter()
    found = []
    for first in range(0, 1 << 32, BLOCK):
        found.append(mismatches(first, first + BLOCK))
    bad = np.concatenate(found)
    wall = time.perf_counter() - start
    magnitude = np.abs(bad.view(np.float32))
    for bits in bad[:SHOWN]:
        x = np.uint32(bits).view(np.float32)
        print(f"mismatch: x={x!r} bits=0x{int(bits):08x}")
    print(f"|x| <= 1: {np.count_nonzero(magnitude <= 1)}  |x| > 1: "
          f"{np.count_nonzero(magnitude > 1)}  NaN: {np.count_nonzero(np.isnan(magnitude))}")
    print(f"{bad.size} of {1 << 32} float32 inputs differ from scipy.special.erf "
          f"in {wall:.0f} s (numpy {np.__version__}, scipy {scipy.__version__})")
    return 1 if bad.size else 0


if __name__ == "__main__":
    sys.exit(main())
