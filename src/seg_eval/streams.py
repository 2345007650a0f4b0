"""Counter-based random streams and the package's one bounded draw.

A stream is Philox keyed by two 64-bit words, a seed and a stream
number, and started at counter 0, so its draws depend on nothing but
that key. Every draw is taken from the raw 32-bit words of a bare,
re-keyed ``np.random.Philox``, which numpy keeps fixed across releases
(NEP 19), by numpy's own bounded method (Lemire's multiply-and-reject),
so it equals what ``Generator.integers`` draws; no ``Generator`` is
built.
"""

from __future__ import annotations

import numpy as np

__all__ = ["rekey", "words", "below", "below_rows"]


def rekey(bits: np.random.Philox, seed: int, stream: int
          ) -> np.random.Philox:
    """Restart ``bits`` on the stream (seed, stream): counter 0, key
    words ``seed mod 2**64`` and ``stream`` (in [0, 2**64)), nothing
    buffered, as ``Philox(key=seed % 2**64 + (stream << 64))``."""
    bits.state = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, np.uint64),
                  "key": np.array((seed & (2**64 - 1), stream), np.uint64)},
        "buffer": np.zeros(4, np.uint64), "buffer_pos": 4,
        "has_uint32": 0, "uinteger": 0}
    return bits


def words(bits: np.random.Philox):
    """The 32-bit words of ``bits``' stream, in the order numpy's
    ``next_uint32`` takes them: the low half of each 64-bit output
    first."""
    while True:
        for w in bits.random_raw(32).tolist():
            yield w & 0xFFFFFFFF
            yield w >> 32


def below(words, n: int) -> int:
    """What ``integers(0, n)`` draws, for 1 <= n <= 2**32, taken from
    ``words``: a word w is kept iff ``(w*n) mod 2**32 >= (2**32 - n) mod
    n`` and gives ``(w*n) >> 32``; a rejected one is replaced by the
    next. n = 1 takes no word."""
    if n == 1:
        return 0
    m = next(words) * n
    if m & 0xFFFFFFFF < n:     # numpy's shortcut: the threshold is < n
        threshold = ((1 << 32) - n) % n
        while m & 0xFFFFFFFF < threshold:
            m = next(words) * n
    return m >> 32


def below_rows(bits: np.random.Philox, seed: int, first: int, n: int,
               out: np.ndarray) -> np.ndarray:
    """Fill row i of the (B, k) ``out`` with k draws below n (1 <= n <=
    2**32) from stream (seed, first + i), by :func:`below`'s rule
    applied to the row's first k words at once. Return a flag per row
    that had a rejected word; only an unflagged row is what
    :func:`below` draws."""
    rows, k = out.shape
    raw = np.empty((rows, (k + 1) // 2), np.uint64)
    for i in range(rows):
        raw[i] = rekey(bits, seed, first + i).random_raw(raw.shape[1])
    w = np.stack((raw & 0xFFFFFFFF, raw >> 32), axis=2).reshape(rows, -1)
    m = w[:, :k] * np.uint64(n)
    out[:] = m >> 32
    return ((m & 0xFFFFFFFF) < ((1 << 32) - n) % n).any(axis=1)
