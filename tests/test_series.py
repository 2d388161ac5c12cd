"""Free series arithmetic, composition, evaluation, and symbols."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncdomain.series import (
    CompositionError,
    FreeSeries,
    PositiveRegularFunction,
    RegularityError,
    ShapeMismatchError,
    compose,
    evaluate,
    multiply,
    rescale_symbol,
    unit_ball_symbol,
)
from ncdomain.words import DimensionCapError


def test_series_normalizes_keys_and_prunes_zeros():
    s = FreeSeries(2, 2, {"1": 1.0, (2,): 0.0, "12": 2.0})
    assert s.support() == [(1,), (1, 2)]
    assert s.coeff("2").shape == (1, 1)
    assert s.coeff("2")[0, 0] == 0.0


def test_series_rejects_words_beyond_degree():
    with pytest.raises(ValueError):
        FreeSeries(1, 0, {"1": 1.0})


def test_series_addition_and_scaling():
    s = FreeSeries(1, 2, {"1": 1.0})
    t = FreeSeries(1, 2, {"1": 2.0, "11": 1.0})
    total = s + t
    assert total.coeff("1")[0, 0] == 3.0
    assert (2.0 * s).coeff("1")[0, 0] == 2.0
    assert not (s - s).items()


def test_series_shape_mismatch():
    s = FreeSeries(1, 1, {"1": 1.0})
    t = FreeSeries(1, 1, {"1": np.eye(2)}, coeff_dim=2)
    with pytest.raises(ShapeMismatchError):
        _ = s + t


def test_multiply_polynomials():
    # (1 + z)(1 - z) = 1 - z^2
    one_plus = FreeSeries(1, 2, {"": 1.0, "1": 1.0})
    one_minus = FreeSeries(1, 2, {"": 1.0, "1": -1.0})
    prod = multiply(one_plus, one_minus)
    assert prod.coeff("")[0, 0] == 1.0
    assert prod.coeff("1")[0, 0] == 0.0
    assert prod.coeff("11")[0, 0] == -1.0


def test_multiply_respects_word_order():
    a = FreeSeries(2, 2, {"1": 1.0})
    b = FreeSeries(2, 2, {"2": 1.0})
    assert multiply(a, b).support() == [(1, 2)]
    assert multiply(b, a).support() == [(2, 1)]


def test_truncated_drops_high_words():
    s = FreeSeries(1, 3, {"1": 1.0, "111": 5.0})
    t = s.truncated(2)
    assert t.degree == 2
    assert t.support() == [(1,)]


def test_truncated_can_raise_declared_degree():
    s = FreeSeries(1, 1, {"1": 1.0})
    assert s.truncated(4).degree == 4


def test_compose_linear_rescale():
    outer = FreeSeries(1, 2, {"11": 1.0})
    inner = FreeSeries(1, 2, {"1": 2.0})
    comp = compose(outer, [inner])
    assert comp.coeff("11")[0, 0] == pytest.approx(4.0)


def test_compose_truncates_at_min_inner_degree():
    outer = FreeSeries(1, 2, {"1": 1.0, "11": 1.0})
    inner = FreeSeries(1, 1, {"1": 1.0})
    comp = compose(outer, [inner])
    assert comp.degree == 1
    assert comp.support() == [(1,)]


def test_compose_requires_zero_constant_inner():
    outer = FreeSeries(1, 1, {"1": 1.0})
    inner = FreeSeries(1, 1, {"": 1.0, "1": 1.0})
    with pytest.raises(CompositionError):
        compose(outer, [inner])


def test_compose_mixes_generators():
    # F(w1, w2) = w1 w2 with w1 = Z2, w2 = Z1 gives Z2 Z1
    outer = FreeSeries(2, 2, {"12": 1.0})
    inner = [FreeSeries(2, 2, {"2": 1.0}), FreeSeries(2, 2, {"1": 1.0})]
    comp = compose(outer, inner)
    assert comp.support() == [(2, 1)]


def test_evaluate_matches_horner_by_hand():
    s = FreeSeries(2, 2, {"": 1.0, "1": 2.0, "21": 1.0})
    x1 = np.array([[0.0, 1.0], [0.0, 0.0]])
    x2 = np.array([[0.0, 0.0], [1.0, 0.0]])
    got = evaluate(s, [x1, x2])
    want = np.eye(2) + 2.0 * x1 + x2 @ x1
    assert np.allclose(got, want)


def test_evaluate_matrix_coefficients_use_kron():
    s = FreeSeries(1, 1, {"1": np.array([[0.0, 1.0], [0.0, 0.0]])}, coeff_dim=2)
    x = np.array([[3.0]])
    got = evaluate(s, [x])
    assert got.shape == (2, 2)
    assert got[0, 1] == pytest.approx(3.0)


def test_symbol_validation_messages():
    with pytest.raises(RegularityError, match="constant term must vanish"):
        PositiveRegularFunction(1, {"": 0.1, "1": 1.0})
    with pytest.raises(RegularityError, match="strictly positive"):
        PositiveRegularFunction(2, {"1": 1.0})
    with pytest.raises(RegularityError, match="nonnegative"):
        PositiveRegularFunction(1, {"1": 1.0, "11": -0.5})
    with pytest.raises(RegularityError, match="real"):
        PositiveRegularFunction(1, {"1": 1.0 + 1.0j})


def test_symbol_accepts_omega_example():
    w = PositiveRegularFunction(2, {"1": 1.0, "2": 1.0, "12": 1.0})
    assert w.coefficient("12") == 1.0
    assert w.min_linear_coefficient == 1.0
    assert w.degree == 2


def test_unit_ball_symbol():
    f = unit_ball_symbol(3)
    assert f.support() == [(1,), (2,), (3,)]
    assert all(f.coefficient((i,)) == 1.0 for i in range(1, 4))


def test_rescale_symbol_example():
    f = PositiveRegularFunction(2, {"1": 1.0, "2": 1.0, "12": 1.0})
    g = rescale_symbol(f, [2.0, 3.0])
    assert g.coefficient("1") == pytest.approx(1.0 / 4.0)
    assert g.coefficient("2") == pytest.approx(1.0 / 9.0)
    assert g.coefficient("12") == pytest.approx(1.0 / 36.0)


def test_series_degree_is_bounded_by_the_cap():
    with pytest.raises(DimensionCapError):
        FreeSeries(2, 16, {"1": 1.0})
    with pytest.raises(DimensionCapError):
        FreeSeries(2, 2, {"1": 1.0}).truncated(16)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0, float("-inf"))])
def test_non_finite_coefficients_are_rejected(bad):
    with pytest.raises(ValueError, match="not finite"):
        FreeSeries(2, 2, {"12": bad})
    with pytest.raises(RegularityError, match="not finite"):
        PositiveRegularFunction(2, {"1": 1.0, "2": 1.0, "21": bad})


# -- the dict-of-words product the graded arrays replaced, kept as an oracle --


def _ref_multiply(left: dict, right: dict, degree: int, scalar: bool) -> dict:
    acc = {}
    for u, a in sorted(left.items(), key=lambda kv: (len(kv[0]), kv[0])):
        for v, b in sorted(right.items(), key=lambda kv: (len(kv[0]), kv[0])):
            if len(u) + len(v) <= degree:
                term = complex(a[0, 0]) * complex(b[0, 0]) if scalar else a @ b
                acc[u + v] = acc[u + v] + term if u + v in acc else term
    return {w: np.asarray(c, dtype=complex).reshape(a.shape) for w, c in acc.items()}


def _ref_compose(outer: FreeSeries, inner: list) -> dict:
    degree = min(s.degree for s in inner)
    e = inner[0].coeff_dim
    memo = {(): {(): np.eye(e, dtype=complex)}}
    for beta, _ in outer.items():  # phi_beta = phi_{beta_0} phi_{beta[1:]}
        for j in range(len(beta) - 1, -1, -1):
            if beta[j:] not in memo:
                memo[beta[j:]] = _ref_multiply(
                    dict(inner[beta[j] - 1].items()), memo[beta[j + 1:]], degree, e == 1
                )
    acc = {}
    for beta, c in outer.items():
        if len(beta) <= degree:
            for alpha, a in sorted(memo[beta].items(), key=lambda kv: (len(kv[0]), kv[0])):
                acc[alpha] = acc[alpha] + np.kron(a, c) if alpha in acc else np.kron(a, c)
    return acc


def _assert_matches(got: FreeSeries, want: dict, exact: bool):
    words = set(want) | set(got.support())
    scale = max((np.max(np.abs(c)) for c in want.values()), default=1.0)
    for w in words:
        ref = want.get(w, np.zeros((got.coeff_dim,) * 2))
        if exact:
            assert np.array_equal(got.coeff(w), ref), w
        else:
            assert np.max(np.abs(got.coeff(w) - ref)) <= 1e-13 * scale, w


def _random_series(rng, n, degree, e, real, constant=True):
    coeffs = {}
    for k in range(0 if constant else 1, degree + 1):
        for num in range(n**k):
            if rng.random() < 0.6:
                word = tuple(num // n ** (k - 1 - j) % n + 1 for j in range(k))
                # spread magnitudes, so that summation order shows in the bits
                c = rng.uniform(-1.0, 1.0, (e, e)) * 10.0 ** rng.integers(-4, 5)
                coeffs[word] = c if real else c + 1j * rng.uniform(-1.0, 1.0, (e, e))
    return FreeSeries(n, degree, coeffs, e)


# (n, degree, degree, (e, real), seed): real scalar series must match bit for bit
series_cases = st.tuples(
    st.integers(1, 3), st.integers(0, 4), st.integers(0, 4),
    st.sampled_from([(1, True), (1, True), (1, False), (2, True), (2, False)]),
    st.integers(0, 2**32 - 1),
)


@settings(deadline=None, max_examples=60)
@given(series_cases)
def test_multiply_matches_dict_product(case):
    n, d1, d2, (e, real), seed = case
    rng = np.random.default_rng(seed)
    a = _random_series(rng, n, d1, e, real)
    b = _random_series(rng, n, d2, e, real)
    want = _ref_multiply(dict(a.items()), dict(b.items()), min(d1, d2), e == 1)
    _assert_matches(multiply(a, b), want, exact=real and e == 1)


@settings(deadline=None, max_examples=40)
@given(series_cases)
def test_compose_matches_dict_composition(case):
    n, d_out, d_in, (e, real), seed = case
    rng = np.random.default_rng(seed)
    p = int(rng.integers(1, 3))
    outer = _random_series(rng, p, d_out, e, real)
    inner = [_random_series(rng, n, d_in, e, real, constant=False) for _ in range(p)]
    _assert_matches(compose(outer, inner), _ref_compose(outer, inner), exact=real and e == 1)
