"""Defect sequences, membership, spectral radius, the vN gap, and sampling.

The sampler bisects a matrix polynomial along the ray; the oracle it is
held to is the plain bisection on full `membership` verdicts.
"""

import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncdomain import berezin, cp_maps
from ncdomain.cp_maps import (
    OperatorTuple,
    agler_consistency,
    defect_sequence,
    membership,
    monomial_product,
    sample_member,
    sample_nilpotent_member,
    spectral_radius_estimate,
    von_neumann_gap,
)
from ncdomain.linalg import operator_norm
from ncdomain.series import PositiveRegularFunction, unit_ball_symbol
from ncdomain.words import enumerate_words, word_products


def test_operator_tuple_normalizes_scalars():
    t = OperatorTuple([np.array(0.5), np.array([[1.0]])])
    assert t.n == 2
    assert t.dim == 1
    assert t.mats[0].shape == (1, 1)


def test_operator_tuple_rejects_mixed_dims():
    with pytest.raises(ValueError):
        OperatorTuple([np.eye(2), np.eye(3)])


def test_monomial_product_order():
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    b = np.array([[1.0, 0.0], [0.0, 2.0]])
    t = OperatorTuple([a, b])
    assert np.allclose(monomial_product(t, "12"), a @ b)
    assert np.allclose(monomial_product(t, "21"), b @ a)
    assert np.allclose(monomial_product(t, ""), np.eye(2))


def test_defect_sequence_scalar_example():
    # f = Z, m = 2 at X = 0.5: deltas 1, 0.75, 0.5625
    f = unit_ball_symbol(1)
    seq = defect_sequence(f, 2, [np.array([[0.5]])])
    values = [d[0, 0].real for d in seq.deltas]
    assert values == pytest.approx([1.0, 0.75, 0.5625])
    assert seq.min_eigenvalues == pytest.approx([0.75, 0.5625])


def test_membership_inside_and_outside():
    f = unit_ball_symbol(1)
    inside = membership(f, 1, [np.array([[0.5]])])
    assert inside.member
    assert inside.row_norm == pytest.approx(0.25)
    outside = membership(f, 1, [np.array([[1.2]])])
    assert not outside.member
    assert outside.min_eigenvalues[0] == pytest.approx(-0.44)
    assert not outside.bound_ok


def test_membership_row_bound_scaling():
    # small linear coefficients stretch the admissible row norm
    f = PositiveRegularFunction(1, {"1": 0.25})
    verdict = membership(f, 1, [np.array([[1.5]])])
    assert verdict.member
    assert verdict.row_norm_bound == pytest.approx(4.0)


def test_spectral_radius_scalar():
    f = unit_ball_symbol(1)
    est = spectral_radius_estimate(f, [np.array([[0.5]])], kmax=8)
    assert est.final == pytest.approx(0.5)
    assert not est.overflowed


def test_spectral_radius_ignores_zero_component():
    f = unit_ball_symbol(2)
    t = [np.array([[0.7]]), np.array([[0.0]])]
    est = spectral_radius_estimate(f, t, kmax=10)
    assert est.final == pytest.approx(0.7)


def test_spectral_radius_scale_covariance_linear_symbol():
    f = PositiveRegularFunction(2, {"1": 1.0, "2": 1.0})
    rng = np.random.default_rng(11)
    t = [rng.standard_normal((3, 3)) for _ in range(2)]
    base = spectral_radius_estimate(f, t, kmax=6)
    scaled = spectral_radius_estimate(f, [0.5 * x for x in t], kmax=6)
    for a, b in zip(base.values, scaled.values):
        assert b == pytest.approx(0.5 * a)


def test_spectral_radius_nilpotent_hits_zero():
    f = unit_ball_symbol(1)
    t = [np.array([[0.0, 1.0], [0.0, 0.0]])]
    est = spectral_radius_estimate(f, t, kmax=10)
    assert est.values[-1] == 0.0


def test_agler_consistency_random_tuple():
    rng = np.random.default_rng(2)
    t = [
        (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))) / 4.0
        for _ in range(2)
    ]
    for m in (1, 2, 3):
        assert agler_consistency(m, t) < 1e-13


def test_von_neumann_scalar_example():
    # H = Z at X = 0.5: |X| = 0.5 against the shift norm 1
    f = unit_ball_symbol(1)
    gap = von_neumann_gap(f, 1, [np.array([[0.5]])], [((1,), (), 1.0)], N=4)
    assert gap.lhs == pytest.approx(0.5)
    assert gap.rhs == pytest.approx(1.0)


def test_von_neumann_rejects_non_member():
    f = unit_ball_symbol(1)
    with pytest.raises(ValueError, match="member"):
        von_neumann_gap(f, 1, [np.array([[1.5]])], [((1,), (), 1.0)], N=3)


def test_von_neumann_random_members():
    f = PositiveRegularFunction(2, {"1": 1.0, "2": 0.5, "12": 0.25})
    rng = np.random.default_rng(7)
    for _ in range(5):
        x = sample_member(f, 2, 3, rng)
        terms = [
            ((1,), (2,), np.array([[1.0, 0.5], [0.0, 1.0]])),
            ((), (1, 2), np.array([[0.0, 1.0], [1.0, 0.0]])),
        ]
        gap = von_neumann_gap(f, 2, x, terms, N=5)
        assert gap.lhs <= gap.rhs + 1e-9


def test_sample_member_is_member():
    f = PositiveRegularFunction(2, {"1": 0.5, "2": 1.0, "21": 0.75})
    rng = np.random.default_rng(3)
    x = sample_member(f, 2, 4, rng)
    assert membership(f, 2, x).member


def test_sample_nilpotent_member_structure():
    f = unit_ball_symbol(2)
    rng = np.random.default_rng(4)
    x = sample_nilpotent_member(f, 1, 4, rng)
    assert membership(f, 1, x).member
    for mat in x.mats:
        assert np.allclose(np.tril(mat), 0.0)
    # strictly upper triangular 4x4 products of length 4 vanish
    word = (1, 2, 1, 2)
    assert np.allclose(monomial_product(x, word), 0.0)


def _oracle_scale_into_domain(f, m, base, tol):
    """Bisection on full membership verdicts at each scaled tuple."""
    lo, hi = 0.0, 1.0
    for _ in range(60):
        if not membership(f, m, base.scaled(hi), tol=tol).member:
            break
        lo = hi
        hi *= 2.0
    else:
        raise RuntimeError("could not bracket the domain boundary")
    for _ in range(20):
        mid = 0.5 * (lo + hi)
        if membership(f, m, base.scaled(mid), tol=tol).member:
            lo = mid
        else:
            hi = mid
    return base.scaled(0.9 * (lo if lo > 0 else hi))


@st.composite
def symbols(draw, max_degree=3, max_n=3):
    """A symbol over n <= max_n letters of degree <= max_degree, dyadic or not."""
    n = draw(st.integers(1, max_n))
    degree = draw(st.integers(1, max_degree))
    if draw(st.booleans()):
        coeff = st.integers(1, 64).map(lambda k: k / 64)
    else:
        coeff = st.floats(0.05, 2.0)
    coeffs = {(i,): draw(coeff) for i in range(1, n + 1)}
    for length in range(2, degree + 1):
        words = st.tuples(*[st.integers(1, n)] * length)
        for w in draw(st.lists(words, min_size=1, max_size=3)):
            coeffs[w] = draw(coeff)
    return PositiveRegularFunction(n, coeffs)


@settings(deadline=None, max_examples=40)
@given(
    f=symbols(),
    m=st.integers(1, 3),
    d=st.integers(2, 8),
    seed=st.integers(0, 2**32 - 1),
    nilpotent=st.booleans(),
)
def test_samplers_match_membership_bisection(f, m, d, seed, nilpotent):
    sampler = sample_nilpotent_member if nilpotent else sample_member
    x = sampler(f, m, d, np.random.default_rng(seed))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cp_maps, "_scale_into_domain", _oracle_scale_into_domain)
        expected = sampler(f, m, d, np.random.default_rng(seed))
    assert all(np.array_equal(a, b) for a, b in zip(x.mats, expected.mats))


@settings(deadline=None, max_examples=40)
@given(
    f=symbols(),
    m=st.integers(1, 3),
    d=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    t=st.floats(0.0, 1.0),
)
def test_ray_defects_match_defect_sequence(f, m, d, seed, t):
    rng = np.random.default_rng(seed)
    raw = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for _ in range(f.n)]
    base = OperatorTuple(raw).scaled(1.0 / (2.0 * math.sqrt(f.n * d)))
    polys = cp_maps._ray_defects(f, m, base)
    deltas = defect_sequence(f, m, base.scaled(math.sqrt(t))).deltas
    for k in range(1, m + 1):
        value = cp_maps._horner(polys[k - 1], t)
        scale = max(1.0, float(np.max(np.abs(deltas[k]))))
        assert np.max(np.abs(value - deltas[k])) <= 1e-12 * scale


@pytest.mark.parametrize("n, N, d", list(product((1, 2, 3), (0, 1, 3, 5), (1, 2, 4))))
def test_graded_monomials_match_word_products(n, N, d):
    rng = np.random.default_rng([n, N, d])
    t = OperatorTuple(
        [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for _ in range(n)]
    )
    words = enumerate_words(n, N).words
    expected = word_products(words, t.mats, np.matmul, {(): np.eye(d, dtype=complex)})
    assert np.array_equal(cp_maps._graded_monomials(t, N), np.array(expected))


def test_hot_path_skips_membership_and_word_lists(monkeypatch):
    calls = {"membership": 0, "defect_sequence": 0}
    passed = []
    for name in calls:
        real = getattr(cp_maps, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(cp_maps, name, counted)
    real_products = cp_maps.word_products

    def recorded(words, *args):
        words = list(words)
        passed.append(len(words))
        return real_products(words, *args)

    monkeypatch.setattr(cp_maps, "word_products", recorded)
    f = PositiveRegularFunction(2, {"1": 0.5, "2": 1.0, "21": 0.75, "122": 0.25})
    rng = np.random.default_rng(5)
    sample_member(f, 3, 4, rng)
    sample_nilpotent_member(f, 2, 4, rng)
    assert calls == {"membership": 0, "defect_sequence": 0}
    kernel = berezin.berezin_kernel(f, 1, sample_member(f, 1, 3, rng), 4)
    assert 0 < max(passed) <= len(f.items())
    assert kernel.index._words is None


@pytest.mark.parametrize("a", [1e12, 1e14])
def test_sample_member_finds_a_tiny_boundary(a):
    # the boundary radius lies below 2^-20, under the first bisection
    f = PositiveRegularFunction(1, {(1,): a})
    x = sample_member(f, 1, 3, np.random.default_rng(0))
    assert membership(f, 1, x).member


@pytest.mark.parametrize("m, d", [(1, 2), (1, 3), (2, 4)])
def test_sample_nilpotent_member_finds_a_tiny_boundary(m, d):
    f = PositiveRegularFunction(2, {(1,): 1e13, (2,): 1.0})
    x = sample_nilpotent_member(f, m, d, np.random.default_rng(0))
    assert membership(f, m, x).member


def test_scale_into_domain_gives_up_without_a_member():
    f = PositiveRegularFunction(1, {(1,): 1e60})
    with pytest.raises(RuntimeError, match="no member"):
        cp_maps._scale_into_domain(f, 1, OperatorTuple([np.eye(2)]), 1e-10)


@pytest.mark.parametrize("n, d, k", [(2, 2, 1), (1, 1, 2)],
                         ids=["ball-one-matrix", "disc-two-matrices"])
def test_library_rejects_a_tuple_of_the_wrong_size(n, d, k):
    f = unit_ball_symbol(n)
    x = [0.5 * np.eye(d)] * k
    g = np.eye(enumerate_words(n, 2).dim)
    calls = [
        lambda: membership(f, 1, x),
        lambda: defect_sequence(f, 1, x),
        lambda: spectral_radius_estimate(f, x),
        lambda: von_neumann_gap(f, 1, x, [((), (), 1.0)], N=2),
        lambda: berezin.berezin_kernel(f, 1, x, 2),
        lambda: berezin.berezin_transform_resolvent(f, 1, x, g, 2),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=f"symbol over n={n} applied to a {k}-tuple"):
            call()


def _phi_per_word(items, t, y):
    """sum a_w X_w Y X_w^* over (word, a_w) items, one word at a time."""
    out = np.zeros_like(y)
    for w, a in items:
        xw = monomial_product(t, w)
        out += a * (xw @ y @ xw.conj().T)
    return out


def _random_tuple(n, d, seed, scale=1.0, nilpotent=False):
    rng = np.random.default_rng(seed)
    mats = [scale * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
            for _ in range(n)]
    return OperatorTuple([np.triu(a, k=1) for a in mats] if nilpotent else mats)


@settings(deadline=None, max_examples=60)
@given(f=symbols(max_n=4), d=st.integers(1, 8), seed=st.integers(0, 2**32 - 2))
def test_phi_matches_the_per_word_sum_bit_for_bit(f, d, seed):
    t = _random_tuple(f.n, d, seed)
    y = _random_tuple(1, d, seed + 1)[0]
    items = f.items()
    support = cp_maps._support(f, t)
    assert np.array_equal(cp_maps._phi(support, y), _phi_per_word(items, t, y))
    for j in range(1, f.degree + 1):
        part = slice(*np.searchsorted(support[0], [j, j + 1]))
        assert np.array_equal(cp_maps._phi(support, y, part),
                              _phi_per_word(items[part], t, y))


def _radius_per_iterate(f, t, kmax):
    """r_k = ||Phi^k(I)||^(1/2k) with one `operator_norm` per iterate."""
    y = np.eye(t.dim, dtype=complex)
    values = []
    overflowed = False
    for k in range(1, kmax + 1):
        y = _phi_per_word(f.items(), t, y)
        norm = operator_norm(y) if np.all(np.isfinite(y)) else float("inf")
        if not np.isfinite(norm):
            overflowed = True
            values.append(float("inf"))
            break
        values.append(norm ** (1.0 / (2.0 * k)) if norm > 0 else 0.0)
        if norm == 0.0:
            break
    return tuple(values), overflowed


@settings(deadline=None, max_examples=60)
@given(
    f=symbols(max_n=4),
    d=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([1e-3, 0.2, 1.0, 1e60, 1e150]),
    nilpotent=st.booleans(),
    kmax=st.integers(1, 12),
)
def test_spectral_radius_matches_per_iterate_norms(f, d, seed, scale, nilpotent, kmax):
    t = _random_tuple(f.n, d, seed, scale, nilpotent)
    est = spectral_radius_estimate(f, t, kmax=kmax)
    with np.errstate(all="ignore"):
        values, overflowed = _radius_per_iterate(f, t, kmax)
    assert est.values == values
    assert est.overflowed == overflowed
    assert est.final == values[-1]


def test_spectral_radius_stops_at_the_first_non_finite_iterate():
    f = unit_ball_symbol(2)
    t = [np.array([[1e100]]), np.array([[1.0]])]
    est = spectral_radius_estimate(f, t, kmax=12)  # no RuntimeWarning escapes
    # Phi(I) = 1e200 + 1 is finite; Phi^2(I) overflows
    assert est.values[0] == pytest.approx(1e100)
    assert est.values[1:] == (float("inf"),)
    assert est.overflowed


def test_resolvent_builds_the_support_once(monkeypatch):
    calls = []
    real = cp_maps.word_products
    monkeypatch.setattr(cp_maps, "word_products",
                        lambda *args: calls.append(args) or real(*args))
    f = PositiveRegularFunction(2, {"1": 0.5, "2": 1.0, "21": 0.75, "122": 0.25})
    x = sample_member(f, 2, 3, np.random.default_rng(7))
    calls.clear()
    g = np.eye(enumerate_words(2, 4).dim)
    berezin.berezin_transform_resolvent(f, 2, x, g, 4)
    assert len(calls) == 1
