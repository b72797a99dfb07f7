"""Sub-block splitting tests (Property 3)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.ec.subblock import DEFAULT_WORD_BYTES, word_slice


def split(block, p):
    """HMBR's (upper, lower) sub-blocks of ``block`` at split ratio ``p``."""
    return word_slice(block, 0.0, p), word_slice(block, p, 1.0)


def test_split_counts_basic():
    block = np.zeros(100 * DEFAULT_WORD_BYTES, dtype=np.uint8)
    for p, upper_words in ((0.0, 0), (1.0, 100), (0.25, 25)):
        upper, lower = split(block, p)
        assert upper.nbytes == upper_words * DEFAULT_WORD_BYTES
        assert lower.nbytes == (100 - upper_words) * DEFAULT_WORD_BYTES


@given(
    st.integers(min_value=1, max_value=64),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
def test_split_join_roundtrip_property(n_words, p):
    rng = np.random.default_rng(42)
    block = rng.integers(0, 256, size=n_words * DEFAULT_WORD_BYTES, dtype=np.uint8)
    upper, lower = split(block, p)
    assert np.array_equal(np.concatenate([upper, lower]), block)
    # word alignment: each part's byte length divisible by the word size
    assert upper.nbytes % DEFAULT_WORD_BYTES == 0
    assert lower.nbytes % DEFAULT_WORD_BYTES == 0


def test_split_returns_views():
    block = np.arange(64, dtype=np.uint8)
    upper, lower = split(block, 0.5)
    assert upper.base is block and lower.base is block


def test_split_unaligned_rejected():
    with pytest.raises(ValueError):
        split(np.zeros(13, dtype=np.uint8), 0.5)


def test_word_slice_partition_exact():
    """Adjacent ranges sharing a boundary fraction partition the buffer."""
    block = np.arange(80, dtype=np.uint8)
    for p in (0.0, 0.1, 1 / 3, 0.5, 0.77, 1.0):
        a = word_slice(block, 0.0, p)
        b = word_slice(block, p, 1.0)
        assert np.array_equal(np.concatenate([a, b]), block)


def test_word_slice_clamps_and_validates():
    block = np.arange(16, dtype=np.uint8)
    assert word_slice(block, -0.5, 2.0).size == 16
    with pytest.raises(ValueError):
        word_slice(block, 0.8, 0.2)
    with pytest.raises(ValueError):
        word_slice(np.zeros(9, dtype=np.uint8), 0, 1)


def test_word_slice_uint16_buffers():
    block = np.arange(32, dtype=np.uint16)  # 64 bytes = 8 words
    half = word_slice(block, 0.0, 0.5)
    assert half.size == 16
    assert half.dtype == np.uint16
