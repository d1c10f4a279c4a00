#!/usr/bin/env python3
"""Check hyquant's float32 erf (the one inside GELU) against
scipy.special.erf on every float32 input.

All 2^32 bit patterns are run in chunks of 2^24, in order, through both
functions; each chunk goes through hyquant's erf in GELU's block size. Two
results match when their bits are equal or both are NaN. On the first
mismatch the script prints the input's bit pattern and both results and
exits 1; otherwise it prints the number of inputs checked and the wall time
and exits 0. scipy is the reference here, so it must be installed; hyquant
itself does not need it. A full sweep holds about 250 MB and takes a few
minutes on one core.

Usage: python scripts/check_erf.py
"""

import sys
import time

import numpy as np
from scipy.special import erf as scipy_erf

from hyquant.tensor import _GELU_BLOCK, _erf

CHUNK = 1 << 24
CHUNKS = (1 << 32) // CHUNK


def first_mismatch(chunk: int, erf=_erf) -> int | None:
    """The first bit pattern of the chunk where erf and scipy's disagree."""
    bits = np.arange(CHUNK, dtype=np.uint32) + np.uint32(chunk * CHUNK)
    y = bits.view(np.float32)
    got = np.empty_like(y)
    for s in range(0, CHUNK, _GELU_BLOCK):
        erf(y[s:s + _GELU_BLOCK], got[s:s + _GELU_BLOCK])
    want = scipy_erf(y)
    bad = want.view(np.uint32) != got.view(np.uint32)
    bad &= ~(np.isnan(want) & np.isnan(got))
    hits = np.flatnonzero(bad)
    return int(bits[hits[0]]) if hits.size else None


def main(erf=_erf) -> int:
    start = time.perf_counter()
    for chunk in range(CHUNKS):
        bad = first_mismatch(chunk, erf)
        if bad is not None:
            y = np.array([bad], dtype=np.uint32).view(np.float32)
            got = np.empty_like(y)
            erf(y, got)
            print(f"mismatch at bit pattern 0x{bad:08x} (y = {y[0]!r}): "
                  f"erf {got[0]!r}, scipy {scipy_erf(y)[0]!r}")
            return 1
    print(f"0 mismatches in {CHUNKS * CHUNK} float32 inputs "
          f"({time.perf_counter() - start:.0f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
