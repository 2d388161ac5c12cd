"""One-entry value caches: weight tables and the state of a symbol at a point."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncdomain import cp_maps, selftest, weights
from ncdomain.berezin import (
    berezin_kernel,
    berezin_transform_kernel,
    berezin_transform_resolvent,
)
from ncdomain.cp_maps import defect_sequence, membership, sample_member
from ncdomain.defaults import DIM_CAP_ENV
from ncdomain.fock_model import build_model
from ncdomain.series import PositiveRegularFunction
from ncdomain.weights import weights_direct
from ncdomain.words import DimensionCapError, word_count

SYMBOLS = (
    (1, {"1": 0.5}),
    (2, {"1": 0.25, "2": 0.5, "12": 0.125}),
    (2, {"1": 0.375, "2": 0.25}),
)
SCALES = (0.1, 0.2, 3.0)  # the last point lies outside every domain here
OPS = ("weights", "defects", "member", "kernel", "resolvent")


CACHES = (weights._direct_values, cp_maps._cached_point)


def _clear():
    for cache in CACHES:
        cache.cache_clear()


@pytest.fixture(autouse=True)
def _empty_caches():
    _clear()
    yield
    _clear()


def _point(n, k):
    """Fresh arrays, equal by value for equal (n, k)."""
    rng = np.random.default_rng([n, k])
    return [SCALES[k] * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
            for _ in range(n)]


def _run(op, sym, m, N, k, tol):
    """One library call on new objects equal by value to earlier ones."""
    n, coeffs = SYMBOLS[sym]
    f = PositiveRegularFunction(n, coeffs)
    x = _point(n, k)
    dim = word_count(n, N)
    g = np.diag(np.arange(1.0, dim + 1)) + np.eye(dim, k=1)
    try:
        if op == "weights":
            return weights_direct(f, m, N).values
        if op == "defects":
            seq = defect_sequence(f, m, x)
            return seq.deltas, seq.min_eigenvalues
        if op == "member":
            return membership(f, m, x, tol)
        if op == "kernel":
            return berezin_transform_kernel(f, m, x, g, N, tol=tol)
        return berezin_transform_resolvent(f, m, x, g, N, tol=tol)
    except ValueError as exc:
        return str(exc)


def _same(a, b):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(map(_same, a, b))
    return a == b


@settings(deadline=None, max_examples=40)
@given(st.lists(
    st.tuples(st.sampled_from(OPS), st.integers(0, 2), st.integers(1, 3),
              st.integers(0, 3), st.integers(0, 2), st.sampled_from([1e-9, 0.5])),
    min_size=2, max_size=10,
))
def test_interleaved_calls_match_uncached(calls):
    # equal symbols built anew, several m, N, tol and points, in any order:
    # every cached result equals the one computed from empty caches
    _clear()
    cached = [_run(*c) for c in calls]
    for c, got in zip(calls, cached):
        _clear()
        assert _same(got, _run(*c)), c


def test_repeated_call_shares_the_table():
    f = PositiveRegularFunction(*SYMBOLS[1])
    first = weights_direct(f, 2, 3)
    second = weights_direct(PositiveRegularFunction(*SYMBOLS[1]), 2, 3)
    assert second.values is first.values
    assert second.index is not first.index  # lazy word lists are never shared
    assert weights_direct(f, 1, 3).values is not first.values
    with pytest.raises(ValueError):
        first.values[0] = 2.0


def test_point_state_is_read_only():
    f = PositiveRegularFunction(*SYMBOLS[2])
    x = _point(2, 0)
    seq = defect_sequence(f, 2, x)
    assert defect_sequence(f, 2, _point(2, 0)) is seq
    with pytest.raises(ValueError):
        seq.deltas[1][0, 0] = 0.0


def test_in_place_change_of_a_matrix_is_seen():
    f = PositiveRegularFunction(1, {"1": 1.0})
    x = [np.array([[0.5]], dtype=complex)]
    g = np.eye(4)
    assert membership(f, 1, x).member
    before = berezin_transform_kernel(f, 1, x, g, 3)
    x[0][0, 0] = 2.0  # the tuple the caller holds, changed in place
    assert not membership(f, 1, x).member
    with pytest.raises(ValueError, match="outside the order-1 domain"):
        berezin_transform_kernel(f, 1, x, g, 3)
    x[0][0, 0] = 0.25
    after = berezin_transform_resolvent(f, 1, x, g, 3)
    assert not np.allclose(before, after)
    _clear()
    assert np.array_equal(after, berezin_transform_resolvent(f, 1, x, g, 3))


def test_tolerance_is_judged_on_every_call():
    # Delta_1 = -1.25 at [[1.5]] on the disc: admitted by tol 1.25 only
    f = PositiveRegularFunction(1, {"1": 1.0})
    x = [np.array([[1.5]])]
    berezin_kernel(f, 1, x, 2, tol=1.25)
    with pytest.raises(ValueError, match="outside the order-1 domain"):
        berezin_kernel(f, 1, x, 2, tol=1.0)
    assert membership(f, 1, x, tol=1.25).member
    assert not membership(f, 1, x, tol=1.0).member
    berezin_kernel(f, 1, x, 2, tol=1.25)


def test_cached_table_still_respects_a_lowered_cap(monkeypatch):
    f = PositiveRegularFunction(*SYMBOLS[1])
    x = _point(2, 0)
    weights_direct(f, 2, 4)
    berezin_kernel(f, 2, x, 4)
    monkeypatch.setenv(DIM_CAP_ENV, "10")  # depth 4 over two letters has 31 words
    with pytest.raises(DimensionCapError):
        weights_direct(f, 2, 4)
    with pytest.raises(DimensionCapError):
        build_model(f, 2, 4)
    with pytest.raises(DimensionCapError):
        berezin_kernel(f, 2, x, 4)


def test_bad_arguments_still_raise_after_a_cached_success():
    f = PositiveRegularFunction(*SYMBOLS[1])
    x = _point(2, 0)
    assert membership(f, 2, x).member
    weights_direct(f, 2, 3)
    for bad in ([x[0]], x + [x[0]]):
        with pytest.raises(ValueError, match="applied to a"):
            membership(f, 2, bad)
        with pytest.raises(ValueError, match="applied to a"):
            berezin_transform_resolvent(f, 2, bad, np.eye(15), 3)
    with pytest.raises(ValueError, match="m must be >= 1"):
        defect_sequence(f, 0, x)
    with pytest.raises(ValueError, match="N must be >= 0"):
        weights_direct(f, 2, -1)
    with pytest.raises(TypeError):
        weights_direct(f, 2.0, 3)  # equal to the cached m = 2, but not an int


def test_each_cache_holds_one_entry():
    assert [cache.cache_info().maxsize for cache in CACHES] == [1, 1]


def test_point_sequence_sums_weights_and_support_once():
    f = PositiveRegularFunction(2, {"1": 0.5, "2": 0.25, "12": 0.125})
    m, N = 2, 3
    x = sample_member(f, m, 3, np.random.default_rng(5))
    assert membership(f, m, x).member
    model = build_model(f, m, N)
    g = np.eye(model.index.dim)
    kv = berezin_transform_kernel(f, m, x, g, N)
    rv = berezin_transform_resolvent(f, m, x, g, N)
    assert np.max(np.abs(kv - rv)) < 1e-12
    assert [cache.cache_info().misses for cache in CACHES] == [1, 1]


def test_determinism_check_sums_its_table_twice():
    # each fingerprint empties the cache, and with it the counts, first: the
    # counts left are the second fingerprint's, one sum and no read
    result = selftest.check_determinism(selftest.FAST, 0)
    assert result.passed
    info = weights._direct_values.cache_info()
    assert (info.misses, info.hits) == (1, 0)
