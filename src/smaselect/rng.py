"""Counter-based random streams.

Every stochastic routine in the package draws from a Philox generator keyed
by ``(seed, stream id)``.  Streams are independent and addressable, so work
can be split across any number of workers without changing a single bit of
the output: the content of stream ``(seed, k)`` never depends on which
thread produced it or in what order.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import DimensionMismatch

# Rows of a Monte-Carlo draw matrix are generated in fixed-size blocks, one
# stream per block.  The block size is part of the output format: changing it
# changes the draws.
BLOCK_ROWS = 512


def is_integer(value) -> bool:
    """True for an integer that is not a bool: the one type check of a seed,
    a stream id or a count."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_real(value) -> bool:
    """True for a real number that is not a bool (NaN and infinities included)."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def is_number(value) -> bool:
    """True for a finite real number that is not a bool."""
    return is_real(value) and math.isfinite(value)


def is_seed(value, bits: int = 64) -> bool:
    """True for an integer, not a bool, in ``[0, 2**bits)``: a seed, or with
    ``bits=32`` a stream id.  Nothing else is a key word, so no two
    arguments can alias one stream."""
    return is_integer(value) and 0 <= value < 1 << bits


def stream(seed: int, major: int, minor: int = 0) -> np.random.Generator:
    """Return the generator for stream ``(seed, major, minor)``.

    ``seed`` fills the first word of the Philox key; ``major`` and
    ``minor`` must fit in 32 bits each and are packed into the second.
    Anything else raises ``DimensionMismatch``.
    """
    if not is_seed(seed):
        raise DimensionMismatch(f"seed must be an integer in [0, 2**64), got {seed!r}")
    if not (is_seed(major, 32) and is_seed(minor, 32)):
        raise DimensionMismatch(
            f"stream ids must be integers in [0, 2**32), got {major!r}, {minor!r}"
        )
    key = np.array(
        [np.uint64(seed), (np.uint64(major) << np.uint64(32)) | np.uint64(minor)],
        dtype=np.uint64,
    )
    return np.random.Generator(np.random.Philox(key=key))


def block_bounds(n_rows: int) -> list[tuple[int, int, int]]:
    """Split ``n_rows`` into the canonical blocks: (block id, start, stop)."""
    out = []
    for b, start in enumerate(range(0, n_rows, BLOCK_ROWS)):
        out.append((b, start, min(start + BLOCK_ROWS, n_rows)))
    return out
