"""Reed-Solomon codec tests (encode / decode / repair matrices)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ec.rs import RSCode, get_code
from repro.gf.field import GF
from repro.gf.matrix import gf_matmul


def make_stripe(code, length=256, seed=0):
    rng = np.random.default_rng(seed)
    data = rng.integers(0, code.field.size, size=(code.k, length)).astype(code.field.dtype)
    return data, code.encode_stripe(data)


def test_encode_shapes():
    code = RSCode(6, 3)
    data, stripe = make_stripe(code)
    assert stripe.shape == (9, 256)
    assert np.array_equal(stripe[:6], data)


def test_parity_is_linear_combination_of_data():
    code = RSCode(4, 2)
    data, stripe = make_stripe(code)
    expect = gf_matmul(code.generator[4:], data, code.field)
    assert np.array_equal(stripe[4:], expect)


@pytest.mark.parametrize("construction", ["cauchy", "vandermonde"])
@pytest.mark.parametrize("k,m", [(3, 2), (6, 3), (10, 4)])
def test_decode_every_m_erasure_pattern_samples(construction, k, m):
    code = RSCode(k, m, construction=construction)
    data, stripe = make_stripe(code, seed=k * 31 + m)
    rng = np.random.default_rng(1)
    for _ in range(10):
        dead = sorted(rng.choice(k + m, size=m, replace=False).tolist())
        avail = {i: stripe[i] for i in range(k + m) if i not in dead}
        repaired = code.decode(avail, dead)
        for d in dead:
            assert np.array_equal(repaired[d], stripe[d])


def test_decode_stripe_reconstructs_everything():
    code = RSCode(5, 3)
    _, stripe = make_stripe(code)
    avail = {i: stripe[i] for i in (1, 2, 4, 6, 7)}
    full = code.decode_stripe(avail)
    assert np.array_equal(full, stripe)


def test_decode_needs_k_blocks():
    code = RSCode(4, 2)
    _, stripe = make_stripe(code)
    with pytest.raises(ValueError):
        code.decode({0: stripe[0], 1: stripe[1], 2: stripe[2]}, [5])


def test_repair_matrix_identity_rows_for_survivor_data():
    """Repairing a parity block from the k data blocks = re-encoding."""
    code = RSCode(4, 2)
    r = code.repair_matrix([0, 1, 2, 3], [4])
    assert np.array_equal(r, code.generator[4:5])


def test_repair_matrix_applied_manually():
    code = RSCode(6, 3)
    _, stripe = make_stripe(code)
    survivors = [0, 2, 3, 5, 6, 8]
    failed = [1, 4, 7]
    r = code.repair_matrix(survivors, failed)
    assert r.shape == (3, 6)
    out = gf_matmul(np.asarray(r), stripe[survivors], code.field)
    assert np.array_equal(out, stripe[failed])


def test_repair_matrix_validation():
    code = RSCode(4, 2)
    with pytest.raises(ValueError):
        code.repair_matrix([0, 1, 2], [5])  # too few survivors
    with pytest.raises(ValueError):
        code.repair_matrix([0, 1, 2, 5], [5])  # overlap
    with pytest.raises(ValueError):
        code.repair_matrix([0, 1, 2, 9], [5])  # out of range


def test_repair_matrix_cached():
    code = RSCode(4, 2)
    a = code.repair_matrix([0, 1, 2, 3], [4, 5])
    b = code.repair_matrix([0, 1, 2, 3], [4, 5])
    assert a is b
    assert not a.flags.writeable


def test_repair_matrix_cache_is_a_bounded_lru():
    """Regression: the memo on a ``get_code``-shared code grew by one entry
    per erasure pattern for the life of the process."""
    from itertools import combinations, islice

    from repro.ec.rs import REPAIR_CACHE_CAPACITY

    code = RSCode(8, 4)
    patterns = [
        (surv, (lost,))
        for surv in combinations(range(12), 8)
        for lost in sorted(set(range(12)) - set(surv))
    ]
    assert len(patterns) > 1000
    for surv, failed in islice(patterns, 1000):
        r = code.repair_matrix(surv, failed)
        assert np.array_equal(r, code.derive_repair_matrix(surv, failed))
        assert not r.flags.writeable
    assert len(code._repair_cache) == REPAIR_CACHE_CAPACITY
    # least-recently-used goes first: a re-touched old entry outlives newer ones
    oldest, second = list(code._repair_cache)[:2]
    kept = code.repair_matrix(*oldest)
    code.repair_matrix(*patterns[1000])
    assert code.repair_matrix(*oldest) is kept
    assert second not in code._repair_cache


def test_code_parameter_validation():
    with pytest.raises(ValueError):
        RSCode(0, 2)
    with pytest.raises(ValueError):
        RSCode(4, 0)
    with pytest.raises(ValueError):
        RSCode(250, 10)
    with pytest.raises(ValueError):
        RSCode(4, 2, construction="nonsense")


def test_get_code_cache():
    assert get_code(6, 3) is get_code(6, 3)
    assert get_code(6, 3) is not get_code(6, 4)


def test_gf16_codec_roundtrip():
    code = RSCode(8, 4, GF(16))
    data, stripe = make_stripe(code, length=64)
    avail = {i: stripe[i] for i in range(4, 12)}
    repaired = code.decode(avail, [0, 1, 2, 3])
    for i in range(4):
        assert np.array_equal(repaired[i], stripe[i])


@settings(max_examples=20, deadline=None)
@given(
    st.integers(min_value=2, max_value=10),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_any_k_of_n_decode_property(k, m, seed):
    """MDS property end-to-end: any k blocks reconstruct the stripe."""
    code = get_code(k, m)
    rng = np.random.default_rng(seed)
    data = rng.integers(0, 256, size=(k, 64), dtype=np.uint8)
    stripe = code.encode_stripe(data)
    keep = sorted(rng.choice(k + m, size=k, replace=False).tolist())
    avail = {i: stripe[i] for i in keep}
    full = code.decode_stripe(avail)
    assert np.array_equal(full, stripe)


def test_zero_length_blocks():
    code = RSCode(3, 2)
    data = np.zeros((3, 0), dtype=np.uint8)
    stripe = code.encode_stripe(data)
    assert stripe.shape == (5, 0)
