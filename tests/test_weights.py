"""Weight tables: direct factorization sums against the series oracle."""

import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncdomain import weights
from ncdomain.defaults import ORACLE_REL_TOL
from ncdomain.fock_model import build_model, grade_row_diagonal
from ncdomain.series import FreeSeries, PositiveRegularFunction, unit_ball_symbol
from ncdomain.weights import (
    binomial_constant,
    oracle_gap,
    weights_direct,
    weights_oracle,
)
from ncdomain.words import enumerate_words


def _reference_weights(f, m, N):
    """Per-word factorization sum with math.fsum, word by word (the old path)."""
    words = [w for k in range(N + 1) for w in product(range(1, f.n + 1), repeat=k)]
    coeff = dict(f.items())
    counts = {(): {0: 1.0}}
    for w in words[1:]:
        per_j = {}
        for g, a in coeff.items():
            if len(g) <= len(w) and w[: len(g)] == g:
                for j, v in counts[w[len(g):]].items():
                    per_j.setdefault(j + 1, []).append(a * v)
        counts[w] = {j: math.fsum(t) for j, t in sorted(per_j.items())}
    values = {(): 1.0}
    for w in words[1:]:
        values[w] = math.fsum(
            binomial_constant(j, m) * v for j, v in sorted(counts[w].items())
        )
    return values


def _power_sum_oracle(f, m, N):
    """sum_{j=0..N} C(j+m-1, m-1) f^j by N truncated series products.

    The literal small-N oracle (the library oracle before it solved
    (1 - f)^m B = 1).  It reads `binomial_constant` through the module at
    call time, so it shares any fault of the binomials with direct.
    """
    fs = f.as_series(degree=N)
    acc = FreeSeries.constant(1.0, f.n, N)
    power = FreeSeries.constant(1.0, f.n, N)
    for j in range(1, N + 1):
        power = power * fs
        acc = acc + weights.binomial_constant(j, m) * power
    return np.concatenate([acc.grade(k)[:, 0, 0].real for k in range(N + 1)])


@st.composite
def symbols(draw):
    """Symbols with n <= 3, degree <= 3 and non-dyadic coefficients k / 97."""
    n = draw(st.integers(1, 3))
    degree = draw(st.integers(1, 3))
    coeff = st.integers(1, 96).map(lambda k: k / 97)
    coeffs = {(i,): draw(coeff) for i in range(1, n + 1)}
    for k in range(2, degree + 1):
        for w in product(range(1, n + 1), repeat=k):
            if draw(st.booleans()):
                coeffs[w] = draw(coeff)
    return PositiveRegularFunction(n, coeffs)


def test_binomial_constants():
    assert binomial_constant(0, 3) == 1
    assert binomial_constant(2, 1) == 1
    assert binomial_constant(2, 2) == 3
    assert binomial_constant(3, 2) == 4
    assert binomial_constant(2, 3) == 6


def test_single_variable_order_two_weights():
    # f = Z, m = 2: b_k = k + 1
    f = unit_ball_symbol(1)
    table = weights_direct(f, 2, 5)
    for k in range(6):
        assert table[(1,) * k] == pytest.approx(float(k + 1), abs=1e-14)


def test_omega_symbol_weight():
    # f = Z1 + Z2 + Z1 Z2, m = 1: the word 12 factors twice
    w = PositiveRegularFunction(2, {"1": 1.0, "2": 1.0, "12": 1.0})
    table = weights_direct(w, 1, 2)
    assert table["12"] == pytest.approx(2.0)
    assert table["21"] == pytest.approx(1.0)
    assert table["1"] == pytest.approx(1.0)
    assert table[""] == pytest.approx(1.0)


def test_weights_strictly_positive():
    f = PositiveRegularFunction(2, {"1": 0.25, "2": 0.5, "22": 0.75})
    table = weights_direct(f, 3, 4)
    assert all(v > 0 for _, v in table.items())


def test_weight_chain_inequality():
    # prepending a letter picks up at least its linear coefficient
    f = PositiveRegularFunction(2, {"1": 0.5, "2": 0.25, "12": 1.0})
    table = weights_direct(f, 2, 4)
    for word, b in table.items():
        if len(word) == 4:
            continue
        for i in (1, 2):
            assert table[(i,) + word] >= f.coefficient((i,)) * b - 1e-14


@settings(deadline=None, max_examples=60)
@given(f=symbols(), m=st.integers(1, 3), N=st.integers(0, 5))
def test_direct_matches_per_word_reference(f, m, N):
    table = weights_direct(f, m, N)
    ref = _reference_weights(f, m, N)
    assert len(table) == len(ref)
    for word, value in table.items():
        assert abs(value - ref[word]) <= 1e-14 * ref[word]


@settings(deadline=None, max_examples=40)
@given(f=symbols(), m=st.integers(1, 3), N=st.integers(1, 5))
def test_weight_chain_property(f, m, N):
    # b_{iw} >= a_i b_w: the splittings of iw include i followed by those of w
    table = weights_direct(f, m, N)
    for word, b in table.items():
        if len(word) < N:
            for i in range(1, f.n + 1):
                assert table[(i,) + word] >= f.coefficient((i,)) * b * (1 - 1e-14)


def test_direct_matches_oracle():
    f = PositiveRegularFunction(2, {"1": 0.5, "2": 1.5, "21": 0.125, "112": 1.0})
    for m in (1, 2, 3):
        direct = weights_direct(f, m, 4)
        oracle = weights_oracle(f, m, 4)
        for word, value in direct.items():
            assert value == pytest.approx(oracle[word], rel=1e-13)


def test_weights_do_not_depend_on_truncation():
    f = PositiveRegularFunction(1, {"1": 1.0, "11": 0.5})
    shallow = weights_direct(f, 2, 3)
    deep = weights_direct(f, 2, 6)
    for word, value in shallow.items():
        assert deep[word] == value


def test_weights_grow_with_order():
    # more binomial mass at higher m
    f = unit_ball_symbol(2)
    one = weights_direct(f, 1, 3)
    two = weights_direct(f, 2, 3)
    for word, value in one.items():
        if len(word) == 0:
            assert two[word] == value
        else:
            assert two[word] > value


def test_aligned_values_follow_index_order():
    f = unit_ball_symbol(2)
    table = weights_direct(f, 1, 2)
    index = enumerate_words(2, 2)
    aligned = table.aligned_values(index)
    assert len(aligned) == index.dim
    assert aligned[0] == table[""]
    assert aligned[index.index_of("12")] == table["12"]


def test_aligned_values_contract():
    f = unit_ball_symbol(2)
    table = weights_direct(f, 2, 3)
    aligned = table.aligned_values(enumerate_words(2, 2))
    assert np.shares_memory(aligned, table.values)
    assert aligned.tolist() == table.values[: aligned.size].tolist()
    assert not aligned.flags.writeable
    with pytest.raises(ValueError):
        aligned[0] = 2.0
    with pytest.raises(KeyError):
        table.aligned_values(enumerate_words(2, 4))
    with pytest.raises(ValueError):
        table.aligned_values(enumerate_words(3, 2))


def test_hot_path_leaves_words_unbuilt():
    # the model, both tables and the grade-row gather use index arithmetic only
    f = PositiveRegularFunction(2, {"1": 0.5, "2": 0.25, "12": 0.125})
    model = build_model(f, 2, 4)
    for k in range(5):
        grade_row_diagonal(model, k)
    tables = [model, weights_direct(f, 2, 4), weights_oracle(f, 2, 4)]
    assert all(t.index._words is None for t in tables)


def test_getitem_accepts_strings():
    f = unit_ball_symbol(1)
    table = weights_direct(f, 2, 3)
    assert table["11"] == table[(1, 1)]
    with pytest.raises(KeyError):
        _ = table["1111"]


def test_unknown_interior_weight_raises():
    f = unit_ball_symbol(2)
    table = weights_direct(f, 1, 2)
    with pytest.raises(KeyError):
        _ = table["121"]


@settings(deadline=None, max_examples=60)
@given(f=symbols(), m=st.integers(1, 4), N=st.integers(0, 7))
def test_oracle_matches_power_sum_and_direct(f, m, N):
    oracle = weights_oracle(f, m, N)
    want = _power_sum_oracle(f, m, N)
    assert np.all(np.abs(oracle.values - want) <= 1e-13 * want)
    assert oracle_gap(weights_direct(f, m, N), oracle) <= ORACLE_REL_TOL


@settings(deadline=None, max_examples=40)
@given(f=symbols(), m=st.integers(1, 4), N=st.integers(0, 5))
def test_oracle_inverts_one_minus_f(f, m, N):
    # X (1 - f)^m = 1, each word within roundoff of |X| (1 + f)^m
    def series(values):
        return FreeSeries(f.n, N, dict(zip(enumerate_words(f.n, N).words, values)))

    x = weights_oracle(f, m, N).values
    one = FreeSeries.constant(1.0, f.n, N)
    fs = f.as_series(degree=N)
    prod, scale = series(x), series(np.abs(x))
    for _ in range(m):
        prod, scale = prod * (one - fs), scale * (one + fs)
    for k in range(N + 1):
        residual = prod.grade(k) - one.grade(k)
        assert np.all(np.abs(residual) <= 1e-13 * scale.grade(k).real)


@pytest.fixture
def empty_memo():
    weights._direct_values.cache_clear()
    yield
    weights._direct_values.cache_clear()


def test_oracle_never_calls_binomial_constant(monkeypatch):
    def refuse(k, m):
        raise AssertionError("the oracle must not use the binomials")

    monkeypatch.setattr(weights, "binomial_constant", refuse)
    f = PositiveRegularFunction(2, {"1": 0.5, "2": 0.25, "12": 0.125})
    assert weights_oracle(f, 3, 5).values[0] == 1.0


def test_oracle_catches_a_wrong_binomial(monkeypatch, empty_memo):
    # C(2+m-1, m-1) off by one: the power sum shares the fault, the oracle does not
    real = weights.binomial_constant
    monkeypatch.setattr(weights, "binomial_constant",
                        lambda k, m: real(k, m) + (k == 2))
    f, m, N = unit_ball_symbol(2), 2, 4
    direct = weights_direct(f, m, N)
    assert oracle_gap(direct, weights_oracle(f, m, N)) > ORACLE_REL_TOL
    assert np.max(np.abs(direct.values - _power_sum_oracle(f, m, N))) == 0.0


def test_oracle_checks_before_allocating(monkeypatch):
    monkeypatch.setattr(np, "zeros", lambda *a, **k: pytest.fail("allocated"))
    f = unit_ball_symbol(2)
    with pytest.raises(ValueError):
        weights_oracle(f, 0, 3)
    with pytest.raises(ValueError):
        weights_oracle(f, 1, -1)
    with pytest.raises(ValueError, match="cap"):
        weights_oracle(f, 1, 200)
