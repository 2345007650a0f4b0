"""One Philox generator re-keyed per stream draws what a new generator
per stream draws, whatever the re-keyed one drew before."""

import numpy as np
import pytest

from seg_eval.streams import philox, rekey


def fresh(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(key=(seed & (2**64 - 1)) + (stream << 64)))


def draws(rng: np.random.Generator) -> list:
    """32-bit, 64-bit and float draws, in the mix synth and rank use."""
    return [rng.integers(0, 6, 5).tolist(), rng.integers(0, 110, 3).tolist(),
            rng.integers(0, 2**40, 2).tolist(), rng.random(2).tolist(),
            rng.integers(3, 41, dtype=np.int32).tolist()]


# (seed, stream): replicate streams start at 1; label-2 blobs are keyed
# from 2**32 up; seeds are taken modulo 2**64, negative ones too
KEYS = [(0, 0), (0, 1), (7, 3), (12345, 2000), (-1, 5), (2**64 + 9, 1),
        (2**63, 2**32), (1000, 2**32 + 17), (3, 2**64 - 1)]


@pytest.mark.parametrize("seed, stream", KEYS)
def test_a_rekeyed_generator_draws_what_a_new_one_draws(seed, stream):
    assert draws(rekey(philox(), seed, stream)) == draws(fresh(seed, stream))


def test_rekeying_one_generator_across_many_streams():
    rng = philox()
    for seed, stream in KEYS + KEYS[::-1]:
        assert draws(rekey(rng, seed, stream)) == draws(fresh(seed, stream))


@pytest.mark.parametrize("n", [1, 3, 7])
def test_a_rekey_after_an_odd_number_of_32_bit_draws(n):
    # an odd number of 32-bit draws leaves half of a 64-bit word
    # buffered; the re-key must drop it
    rng = rekey(philox(), 5, 1)
    rng.integers(0, 6, n, dtype=np.int32)
    assert rng.bit_generator.state["has_uint32"] == 1
    assert draws(rekey(rng, 5, 2**32 + 1)) == draws(fresh(5, 2**32 + 1))
    assert rng.bit_generator.state["state"]["key"].tolist() == [5, 2**32 + 1]
