"""Counter-based random streams.

A stream is Philox keyed by two 64-bit words, a seed and a stream
number, and started at counter 0, so its draws depend on nothing but
that key. One generator re-keyed per stream draws exactly what a new
``Generator(Philox(key=...))`` per stream would, at a fraction of the
cost of building one.
"""

from __future__ import annotations

import numpy as np

__all__ = ["philox", "rekey"]


def philox() -> np.random.Generator:
    """A Philox generator to be re-keyed with :func:`rekey`."""
    return np.random.Generator(np.random.Philox(key=0))


def rekey(rng: np.random.Generator, seed: int, stream: int
          ) -> np.random.Generator:
    """Restart ``rng``, made by :func:`philox`, on the stream (seed,
    stream): counter 0, key words ``seed mod 2**64`` and ``stream`` (in
    [0, 2**64)), nothing buffered. It then draws what
    ``Generator(Philox(key=seed % 2**64 + (stream << 64)))`` draws."""
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, np.uint64),
                  "key": np.array((seed & (2**64 - 1), stream), np.uint64)},
        "buffer": np.zeros(4, np.uint64), "buffer_pos": 4,
        "has_uint32": 0, "uinteger": 0}
    return rng
