"""The package's random streams and its one bounded draw.

One Philox bit generator re-keyed per stream draws what a new one per
stream draws, whatever the re-keyed one drew before. ``below`` and
``below_rows`` take their draws from the raw words by numpy's bounded
method, so the corpora and the bootstrap do not depend on numpy's
sampling code but must still match ``Generator.integers``, which the
tests here use as the reference; a numpy release that changed its
bounded draw fails here first. Nothing in ``src/`` builds a
``Generator``.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import seg_eval
from seg_eval.streams import below, below_rows, rekey, words


def fresh(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(key=(seed & (2**64 - 1)) + (stream << 64)))


def rekeyed(bits: np.random.Philox, seed: int, stream: int
            ) -> np.random.Generator:
    """A test-local ``Generator`` over ``bits`` re-keyed to the stream."""
    return np.random.Generator(rekey(bits, seed, stream))


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
    assert (draws(rekeyed(np.random.Philox(key=0), seed, stream))
            == draws(fresh(seed, stream)))


def test_rekeying_one_generator_across_many_streams():
    bits = np.random.Philox(key=0)
    for seed, stream in KEYS + KEYS[::-1]:
        assert draws(rekeyed(bits, seed, stream)) == draws(fresh(seed, stream))


@pytest.mark.parametrize("n", [1, 3, 7])
def test_a_rekey_after_an_odd_number_of_32_bit_draws(n):
    # an odd number of 32-bit draws leaves half of a 64-bit word
    # buffered; the re-key must drop it
    bits = np.random.Philox(key=0)
    rekeyed(bits, 5, 1).integers(0, 6, n, dtype=np.int32)
    assert bits.state["has_uint32"] == 1
    assert draws(rekeyed(bits, 5, 2**32 + 1)) == draws(fresh(5, 2**32 + 1))
    assert bits.state["state"]["key"].tolist() == [5, 2**32 + 1]


def counted(stream, taken: list):
    """``stream``'s words, appending each one to ``taken`` as it goes."""
    for w in stream:
        taken.append(w)
        yield w


def check_rows(seed: int, first: int, rows: int, n: int, k: int
               ) -> np.ndarray:
    """Draw ``rows`` rows of k draws below n with ``below_rows`` and
    check each against ``below`` and ``Generator.integers`` on its own
    stream, including the next k draws, where a redraw would start;
    return the flags."""
    out = np.empty((rows, k), np.int64)
    flagged = below_rows(np.random.Philox(key=0), seed, first, n, out)
    assert flagged.shape == (rows,)
    for i in range(rows):
        taken = []
        stream = counted(words(rekey(np.random.Philox(key=0), seed,
                                     first + i)), taken)
        row = [below(stream, n) for _ in range(k)]
        # a row is flagged iff one of its first k words was rejected
        assert flagged[i] == (len(taken) > k), (seed, first + i)
        numpy_rng = fresh(seed, first + i)
        assert row == numpy_rng.integers(0, n, k).tolist()
        if not flagged[i]:
            assert out[i].tolist() == row
        assert ([below(stream, n) for _ in range(k)]
                == numpy_rng.integers(0, n, k).tolist())
    return flagged


class TestBoundedDraws:
    """``below`` and ``below_rows`` draw what ``Generator.integers``
    draws from the same stream."""

    # 1 takes no word; just above 2**31 about half the words are
    # rejected, at 3 * 2**30 a quarter; 2**32 takes each word as it is
    BOUNDS = (1, 6, 7, 40, 2**31 + 1, 3 * 2**30, 2**32 - 1, 2**32)

    def test_sequences_agree_with_numpy(self):
        pick = np.random.default_rng(31)
        ours, theirs = np.random.Philox(key=0), np.random.Philox(key=0)
        halves = set()
        for seq in range(300):
            key = (1 << 32) + seq      # the label-2 blobs' key range
            stream = words(rekey(ours, seq - 150, key))
            numpy_rng = rekeyed(theirs, seq - 150, key)
            for n in pick.choice(self.BOUNDS, 50).tolist():
                assert below(stream, n) == numpy_rng.integers(0, n), (seq, n)
            # numpy may hold the high half of a word here: the next
            # word agrees either way
            halves.add(theirs.state["has_uint32"])
            assert next(stream) == numpy_rng.integers(0, 2**32)
        assert halves == {0, 1}

    def test_a_bound_of_one_takes_no_word(self):
        first = next(words(rekey(np.random.Philox(key=0), 3, 2**32 + 5)))
        stream = words(rekey(np.random.Philox(key=0), 3, 2**32 + 5))
        assert [below(stream, 1) for _ in range(5)] == [0] * 5
        assert next(stream) == first

    def test_rejection_redraws(self):
        # 50 draws below 2**31 + 1 reject about as many words as they take
        taken = []
        stream = counted(words(rekey(np.random.Philox(key=0), 0, 2**32)),
                         taken)
        drawn = [below(stream, 2**31 + 1) for _ in range(50)]
        assert len(taken) > 60
        numpy_rng = fresh(0, 2**32)
        assert drawn == [numpy_rng.integers(0, 2**31 + 1) for _ in range(50)]

    @pytest.mark.parametrize("n", [2, 7, 110])
    def test_rows_of_subject_draws_agree_with_numpy(self, n):
        # n draws below n, as a bootstrap replicate of n subjects makes
        for seed, stream in KEYS:
            flagged = check_rows(seed, stream, min(3, 2**64 - stream), n, n)
            assert not flagged.any()

    @pytest.mark.parametrize("n", [2**31 + 1, 3 * 2**30])
    def test_rows_with_frequent_rejection(self, n):
        flagged = check_rows(-5, 1, 64, n, 3)
        assert flagged.any() and not flagged.all()


# no Generator, no legacy or seeding helper, nothing of numpy.random but
# the bare bit generator
BANNED = {"Generator", "default_rng", "RandomState"}


def random_uses(source: str) -> list[str]:
    """What ``source`` uses of numpy's random sampling API, by AST, so
    that docstrings and comments may still name it."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            inside = ast.unparse(node.value) in ("np.random", "numpy.random")
            if node.attr in BANNED or (inside and node.attr != "Philox"):
                found.append(ast.unparse(node))
        elif isinstance(node, ast.Name) and node.id in BANNED:
            found.append(node.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                full = (f"{node.module}.{alias.name}"
                        if isinstance(node, ast.ImportFrom) else alias.name)
                if alias.name in BANNED or (full.startswith("numpy.random")
                                            and full != "numpy.random.Philox"):
                    found.append(full)
    return found


def test_the_scan_finds_generator_uses():
    assert random_uses("rng = np.random.Generator(np.random.Philox(key=0))"
                       ) == ["np.random.Generator"]
    assert random_uses("from numpy.random import default_rng") \
        == ["numpy.random.default_rng"]
    assert random_uses("x = rng.bit_generator.random_raw(4)\n"
                       "y = np.random.random()") == ["np.random.random"]
    assert random_uses('"""np.random.Generator is not used."""\n'
                       "bits = np.random.Philox(key=0)") == []


def test_src_builds_no_generator():
    sources = sorted(Path(seg_eval.__file__).parent.glob("*.py"))
    assert len(sources) > 10
    for path in sources:
        assert random_uses(path.read_text(encoding="utf-8")) == [], path.name
