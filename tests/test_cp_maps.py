"""Defect sequences, membership, spectral radius, the vN gap, and sampling.

The sampler bisects a matrix polynomial along the ray; the oracles it is
held to are the plain bisection on full `membership` verdicts and the
per-k path: one coefficient list, one Horner pass and one eigensolve per
defect at each probe.
"""

import math
import sys
from functools import reduce
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
from ncdomain.linalg import hermitian_part, min_eigenvalue, operator_norm
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


def test_von_neumann_rejects_an_empty_expression():
    f = unit_ball_symbol(1)
    with pytest.raises(ValueError, match="at least one term"):
        von_neumann_gap(f, 1, [np.array([[0.5]])], [], N=3)


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


def _bisect_ray(inside):
    """The sampler's stop rule on a verdict s -> bool: double [0, 1] until
    hi is outside, then halve until lo > 0 and hi - lo <= 2^-7 lo, giving
    up when no member shows up above 2^-80; returns 0.9 lo."""
    lo, hi = 0.0, 1.0
    for _ in range(60):
        if not inside(hi):
            break
        lo = hi
        hi *= 2.0
    else:
        raise RuntimeError("could not bracket the domain boundary")
    while lo == 0.0 or hi - lo > lo / 128:
        if lo == 0.0 and hi <= 2.0**-80:
            raise RuntimeError("found no member on the ray near the origin")
        mid = 0.5 * (lo + hi)
        if inside(mid):
            lo = mid
        else:
            hi = mid
    return 0.9 * lo


def _oracle_scale_into_domain(f, m, base, tol):
    """Bisection on full membership verdicts at each scaled tuple."""
    return base.scaled(_bisect_ray(lambda s: membership(f, m, base.scaled(s), tol=tol).member))


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
    d=st.integers(2, 8),
    seed=st.integers(0, 2**32 - 1),
    nilpotent=st.booleans(),
)
def test_sample_sits_in_a_relative_bracket_of_the_boundary(f, m, d, seed, nilpotent):
    # lo = sample / 0.9 is a member and hi <= lo (1 + 2^-7) is not, so on
    # the starlike domain lo (1 + 2^-6) is not a member either
    sampler = sample_nilpotent_member if nilpotent else sample_member
    x = sampler(f, m, d, np.random.default_rng(seed))
    lo = x.scaled(1.0 / cp_maps._SAFETY)
    assert membership(f, m, lo).member
    assert not membership(f, m, lo.scaled(1.0 + 2.0**-6)).member


def _per_k_ray_defects(f, m, base):
    """Delta_1..Delta_m along the ray as one coefficient list per k, built
    one coefficient of Delta_{k-1} and one support grade at a time."""
    support = cp_maps._support(f, base)
    lengths = support[0]
    parts = [(j, slice(*np.searchsorted(lengths, [j, j + 1]))) for j in np.unique(lengths)]
    prev = np.eye(base.dim, dtype=complex)[None]
    out = []
    for _ in range(m):
        out.append(np.pad(prev, ((0, lengths[-1]), (0, 0), (0, 0))))
        for p, c in enumerate(prev):
            for j, part in parts:
                out[-1][p + j] -= cp_maps._phi(support, c, part)
        prev = out[-1]
    return out


def _horner(coeffs, t):
    """sum_p t^p coeffs[p]."""
    return reduce(lambda acc, c: c + t * acc, coeffs[-2::-1], coeffs[-1])


def _per_k_scale_into_domain(f, m, base, tol):
    """The sampler's bisection with one Horner pass and one `min_eigenvalue`
    per k at each probe, stopping at the first k below -tol."""
    defects = _per_k_ray_defects(f, m, base)

    def inside(s):
        return all(min_eigenvalue(_horner(c, s * s)) >= -tol for c in defects)

    return base.scaled(_bisect_ray(inside))


def _sample_or_error(sampler, f, m, d, seed):
    try:
        return [a.copy() for a in sampler(f, m, d, np.random.default_rng(seed)).mats]
    except RuntimeError as exc:
        return str(exc)


@settings(deadline=None, max_examples=60)
@given(
    f=symbols(),
    m=st.integers(1, 3),
    d=st.integers(2, 8),
    seed=st.integers(0, 2**32 - 1),
    nilpotent=st.booleans(),
    e=st.integers(-18, 8),
)
def test_samplers_match_the_per_k_oracle_bit_for_bit(f, m, d, seed, nilpotent, e):
    # bases scaled by 10^e move the boundary far out (bracket doublings)
    # or far in (many halvings before the first member)
    sampler = sample_nilpotent_member if nilpotent else sample_member
    draw = cp_maps._gaussian_tuple
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cp_maps, "_gaussian_tuple",
                   lambda n, dim, rng: [10.0**e * a for a in draw(n, dim, rng)])
        got = _sample_or_error(sampler, f, m, d, seed)
        mp.setattr(cp_maps, "_scale_into_domain", _per_k_scale_into_domain)
        want = _sample_or_error(sampler, f, m, d, seed)
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
    else:
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


@settings(deadline=None, max_examples=40)
@given(
    f=symbols(),
    m=st.integers(1, 3),
    d=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    nilpotent=st.booleans(),
)
def test_ray_coefficients_are_the_per_k_polynomials(f, m, d, seed, nilpotent):
    base = _random_tuple(f.n, d, seed, nilpotent=nilpotent)
    coeffs = cp_maps._ray_coefficients(cp_maps._support(f, base), m)
    polys = _per_k_ray_defects(f, m, base)
    assert coeffs.shape == (m * f.degree + 1, m, d, d)
    for k, poly in enumerate(polys):
        padded = np.zeros_like(coeffs[:, k])
        padded[: len(poly)] = poly
        assert np.array_equal(coeffs[:, k], hermitian_part(padded))


def _count_calls(monkeypatch, module, name, record):
    real = getattr(module, name)

    def counted(*args, **kwargs):
        record[name] = record.get(name, 0) + 1
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def _counted_sample(monkeypatch, f, m, base):
    record = {}
    with monkeypatch.context() as mp:
        for name in ("_support", "_phi", "_ray_inside"):
            _count_calls(mp, cp_maps, name, record)
        _count_calls(mp, np.linalg, "eigvalsh", record)
        cp_maps._scale_into_domain(f, m, base, 1e-10)
    return record


def test_each_probe_is_one_eigensolve(monkeypatch):
    # Delta_k = (1 - 2.25 t)^k I: the same verdicts, so the same 9 probes
    # (s = 1 is outside, s = 1/2 inside, then 7 halvings of [1/2, 1]) at
    # every m
    ray = OperatorTuple([1.5 * np.eye(3)])
    for m in (1, 3):
        record = _counted_sample(monkeypatch, unit_ball_symbol(1), m, ray)
        assert record == {"_support": 1, "_phi": m, "_ray_inside": 9, "eigvalsh": 9}
    f = PositiveRegularFunction(2, {"1": 0.5, "2": 1.0, "21": 0.75, "122": 0.25})
    record = _counted_sample(monkeypatch, f, 3, _random_tuple(2, 4, 8))
    assert record["_support"] == 1
    assert record["_phi"] == 3 * 3  # one per k and support grade
    assert record["eigvalsh"] == record["_ray_inside"] >= 9


def test_sampler_probes_a_far_boundary_without_overflow():
    # the boundary radius is near 1e17, so t^9 would overflow at the far
    # end of the bracket; the top coefficients of Delta_3 vanish on a
    # nilpotent 4x4 base, so powers of t would give inf * 0 = NaN there
    f = PositiveRegularFunction(2, {"1": 0.5, "2": 1.0, "21": 0.75, "122": 0.25})
    base = _random_tuple(2, 4, 0, scale=3e-18, nilpotent=True)
    probed = []
    real = cp_maps._ray_inside
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cp_maps, "_ray_inside",
                   lambda c, t, *args: probed.append(t) or real(c, t, *args))
        x = cp_maps._scale_into_domain(f, 3, base, 1e-10)
    assert 9 * math.log10(max(probed)) > math.log10(sys.float_info.max)
    want = _per_k_scale_into_domain(f, 3, base, 1e-10)
    assert all(np.array_equal(a, b) for a, b in zip(x.mats, want.mats))
    assert membership(f, 3, x).member


@pytest.mark.parametrize("sampler", [sample_member, sample_nilpotent_member])
@pytest.mark.parametrize("m, dim, error, match", [
    (0, 3, ValueError, "m must be >= 1"),
    (-1, 3, ValueError, "m must be >= 1"),
    (1.5, 3, TypeError, None),
    (2, 0, ValueError, "dim must be >= 1"),
    (2, -2, ValueError, "dim must be >= 1"),
])
def test_samplers_check_m_and_dim_before_drawing(sampler, m, dim, error, match):
    rng = np.random.default_rng(9)
    state = rng.bit_generator.state
    with pytest.raises(error, match=match):
        sampler(unit_ball_symbol(2), m, dim, rng)
    assert rng.bit_generator.state == state


def test_nilpotent_sampler_still_needs_two_dimensions():
    with pytest.raises(ValueError, match="need dim >= 2"):
        sample_nilpotent_member(unit_ball_symbol(2), 1, 1, np.random.default_rng(0))


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
    polys = cp_maps._ray_coefficients(cp_maps._support(f, base), m)
    deltas = defect_sequence(f, m, base.scaled(math.sqrt(t))).deltas
    for k in range(1, m + 1):
        value = cp_maps._ray_at(polys, t)[k - 1]
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
    # the boundary radius lies below 2^-20: the bisection halves [0, 1]
    # more than twenty times before it meets its first member
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
    stack = np.array(_random_tuple(3, d, seed + 2).mats)
    for j in range(1, f.degree + 1):
        part = slice(*np.searchsorted(support[0], [j, j + 1]))
        assert np.array_equal(cp_maps._phi(support, y, part),
                              _phi_per_word(items[part], t, y))
        mapped = cp_maps._phi(support, stack, part)
        assert all(np.array_equal(mapped[i], cp_maps._phi(support, stack[i], part))
                   for i in range(len(stack)))


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


def test_membership_reads_an_overflow_as_minus_inf():
    # Phi(I) overflows at [[1e200]] (warnings are errors under the suite)
    v = membership(unit_ball_symbol(1), 2, [np.array([[1e200]])])
    assert v.min_eigenvalues == (-math.inf, -math.inf)
    assert v.row_norm == math.inf
    assert not v.member and not v.bound_ok


def test_agler_consistency_reads_an_overflow_as_inf():
    # both sides overflow at [[1e200]]; their gap is inf, not NaN, and no
    # RuntimeWarning escapes (warnings are errors under the suite)
    assert agler_consistency(1, [np.array([[1e200]])]) == math.inf
    assert agler_consistency(2, [np.array([[0.5]])]) < 1e-15


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
