"""Berezin transform: kernel form against resolvent form.

The two implementations share nothing past the weight table: one builds
the kernel column by column from monomial adjoints, the other solves a
block triangular system against right-multiplication operators by
forward substitution.  A dense Kronecker solve is the small-N oracle for
the latter, on right shifts built a second way: the reversed symbol's
model conjugated by word reversal.
"""

import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncdomain.berezin import (
    berezin_kernel,
    berezin_transform_kernel,
    berezin_transform_resolvent,
)
from ncdomain.cp_maps import (
    _point_state,
    _radius_estimate,
    _support,
    membership,
    monomial_product,
    sample_member,
    sample_nilpotent_member,
)
from ncdomain.fock_model import _pair_entries, build_model, model_monomial
from ncdomain.series import PositiveRegularFunction, unit_ball_symbol


def test_kernel_reproduces_identity_on_vacuum_state():
    # at X = 0 only the vacuum block survives and the transform is g[0,0]
    f = unit_ball_symbol(2)
    k = berezin_kernel(f, 1, [np.zeros((2, 2)), np.zeros((2, 2))], 3)
    model = build_model(f, 1, 3)
    g = np.diag(np.arange(model.index.dim, dtype=float))
    out = k.transform(g)
    assert np.allclose(out, g[0, 0] * np.eye(2))


def test_transform_of_identity_contracts_at_members():
    f = PositiveRegularFunction(2, {"1": 1.0, "2": 1.0, "12": 1.0})
    rng = np.random.default_rng(8)
    x = [0.1 * rng.standard_normal((3, 3)) for _ in range(2)]
    assert membership(f, 2, x).member
    dim = build_model(f, 2, 4).index.dim
    out = berezin_transform_kernel(f, 2, x, np.eye(dim), 4)
    eigs = np.linalg.eigvalsh((out + out.conj().T) / 2.0)
    assert eigs.min() > -1e-12
    assert eigs.max() <= 1.0 + 1e-12


def test_moment_reproduction_nilpotent_jordan_cell():
    # T strictly upper: words up to N - order + 1 reproduce exactly
    f = unit_ball_symbol(1)
    t = [np.array([[0.0, 0.8], [0.0, 0.0]])]
    N = 5
    model = build_model(f, 1, N)
    kernel = berezin_kernel(f, 1, t, N)
    for alpha, beta in [((1,), (1,)), ((1,), ()), ((), ()), ((1,) * 4, (1,))]:
        g = model_monomial(model, alpha) @ model_monomial(model, beta).conj().T
        got = kernel.transform(g)
        want = monomial_product(t, alpha) @ monomial_product(t, beta).conj().T
        assert np.max(np.abs(got - want)) < 1e-12


def test_moment_reproduction_random_nilpotent():
    f = PositiveRegularFunction(2, {"1": 0.5, "2": 0.5, "21": 0.25})
    rng = np.random.default_rng(12)
    t = sample_nilpotent_member(f, 2, 3, rng)
    N = 6
    model = build_model(f, 2, N)
    kernel = berezin_kernel(f, 2, t, N)
    budget = N - 3 + 1
    for alpha, beta in [((1, 2), (2,)), ((2, 1, 1), (1, 2)), ((), (1,) * budget)]:
        g = model_monomial(model, alpha) @ model_monomial(model, beta).conj().T
        got = kernel.transform(g)
        want = monomial_product(t, alpha) @ monomial_product(t, beta).conj().T
        assert np.max(np.abs(got - want)) < 1e-10


def test_szego_family_classical_values():
    # n = 1, f = Z, m = 1 at lambda: the classical disc formulas hold
    # up to the geometric tail |lambda|^(2N + 2)
    f = unit_ball_symbol(1)
    N = 30
    model = build_model(f, 1, N)
    s = model_monomial(model, (1,))
    for lam in (0.8, -0.8, 0.5j, 0.6 * np.exp(1j)):
        kernel = berezin_kernel(f, 1, [np.array([[lam]])], N)
        tail = abs(lam) ** (2 * N + 2)
        got_i = kernel.transform(np.eye(model.index.dim))[0, 0]
        assert abs(got_i - 1.0) <= tail + 1e-12
        got_s = kernel.transform(s @ s.conj().T)[0, 0]
        assert abs(got_s - abs(lam) ** 2) <= tail + 1e-12


def test_forms_agree_on_random_tuples():
    f = PositiveRegularFunction(2, {"1": 1.0, "2": 0.5, "12": 0.25})
    rng = np.random.default_rng(21)
    dim = build_model(f, 2, 4).index.dim
    for _ in range(3):
        x = [
            0.12 * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
            for _ in range(2)
        ]
        h = rng.standard_normal((dim, dim))
        g = h + h.T
        kv = berezin_transform_kernel(f, 2, x, g, 4)
        rv = berezin_transform_resolvent(f, 2, x, g, 4)
        assert np.max(np.abs(kv - rv)) < 1e-10


def test_forms_agree_single_variable_deep():
    f = unit_ball_symbol(1)
    x = [np.array([[0.55, 0.3], [0.0, -0.2]])]
    dim = build_model(f, 1, 8).index.dim
    g = np.eye(dim)
    kv = berezin_transform_kernel(f, 1, x, g, 8)
    rv, diag = berezin_transform_resolvent(f, 1, x, g, 8, with_diagnostics=True)
    assert np.max(np.abs(kv - rv)) < 1e-10
    assert _radius_estimate(_support(f, x)).final < 1.0
    assert diag.growth_estimate >= 1.0


@st.composite
def transform_cases(draw):
    """(f, m, N, T, g): T strictly upper triangular d x d inside the domain,
    g a random Hermitian plus V_alpha V_beta^* with |beta| < d."""
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 2))
    N = draw(st.integers(1, 4))
    d = draw(st.sampled_from([3, 4]))
    coeff = st.integers(1, 96).map(lambda k: k / 97)
    coeffs = {(i,): draw(coeff) for i in range(1, n + 1)}
    for w in product(range(1, n + 1), repeat=2):
        if draw(st.booleans()):
            coeffs[w] = draw(coeff)
    f = PositiveRegularFunction(n, coeffs)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t = sample_nilpotent_member(f, m, d, rng)
    word = lambda most: st.lists(st.integers(1, n), max_size=most).map(tuple)  # noqa: E731
    alpha = draw(word(N))
    beta = draw(word(min(N, d - 1)))
    model = build_model(f, m, N)
    shape = (model.index.dim,) * 2
    h = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    g = h + h.conj().T + model_monomial(model, alpha) @ model_monomial(model, beta).T
    return f, m, N, t, g


@settings(deadline=None, max_examples=40)
@given(case=transform_cases())
def test_kernel_form_equals_resolvent_form(case):
    f, m, N, t, g = case
    kv = berezin_transform_kernel(f, m, t, g, N)
    rv = berezin_transform_resolvent(f, m, t, g, N)
    assert np.max(np.abs(kv - rv)) <= 1e-10
    assert np.max(np.abs(kv)) > 0


def _right_creation_operators(f, m, N):
    """Dense Lam_i e_w = sqrt(b_w / b_{wi}) e_{wi}, from the reversed symbol.

    Its weights satisfy b~_{w~} = b_w, so conjugating its left shifts by
    the word-reversal permutation gives the right shifts of f.
    """
    reversed_f = PositiveRegularFunction(f.n, {w[::-1]: a for w, a in f.items()})
    model = build_model(reversed_f, m, N)
    words = list(model.index.words)
    perm = [words.index(w[::-1]) for w in words]
    return tuple(model_monomial(model, (i,))[np.ix_(perm, perm)] for i in range(1, f.n + 1))


def _dense_resolvent_transform(f, m, x, g, N):
    # B = I - sum_w a_w Lam_{w~} (x) T_w^*, solved densely m times
    lams = _right_creation_operators(f, m, N)
    dim, d = lams[0].shape[0], x[0].shape[0]
    b_mat = np.eye(dim * d, dtype=complex)
    for word, a in f.items():
        lam = np.eye(dim)
        for i in word[::-1]:
            lam = lam @ lams[i - 1]
        b_mat -= a * np.kron(lam, monomial_product(x, word).conj().T)
    r = np.zeros((dim * d, d), dtype=complex)
    r[:d] = np.eye(d)
    for _ in range(m):
        r = np.linalg.solve(b_mat, r)
    delta_sq = _point_state(f, m, x).deltas[m]
    return r.conj().T @ np.kron(g, delta_sq) @ r


@pytest.mark.parametrize("N", [1, 2, 3])
@pytest.mark.parametrize("m", [1, 2])
def test_resolvent_matches_dense_oracle(m, N):
    f = PositiveRegularFunction(2, {"1": 1.0, "2": 0.5, "12": 0.25, "211": 0.125})
    rng = np.random.default_rng(10 * m + N)
    x = [
        0.15 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        for _ in range(2)
    ]
    assert membership(f, m, x).member
    dim = build_model(f, m, N).index.dim
    h = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    g = h + h.conj().T
    want = _dense_resolvent_transform(f, m, x, g, N)
    got = berezin_transform_resolvent(f, m, x, g, N)
    assert np.max(np.abs(got - want)) < 1e-12


def test_resolvent_rejects_large_radius():
    f = unit_ball_symbol(1)
    with pytest.raises(ValueError, match="outside the order-1 domain"):
        berezin_transform_resolvent(f, 1, [np.array([[1.2]])], np.eye(4), 3)


def test_forms_agree_at_a_member_whose_radius_estimate_reads_one():
    # the 13 x 13 shift is a member of the disc with joint spectral radius 0,
    # but ||S^12 S^12*||^(1/24) = 1: membership alone admits it
    f, x = unit_ball_symbol(1), [np.eye(13, k=1)]
    assert membership(f, 1, x).member
    assert _radius_estimate(_support(f, x)).final == 1.0
    rng = np.random.default_rng(13)
    h = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    g = h + h.conj().T
    kv = berezin_transform_kernel(f, 1, x, g, 8)
    rv = berezin_transform_resolvent(f, 1, x, g, 8)
    assert np.max(np.abs(kv - rv)) < 1e-12


def test_kernel_admits_what_membership_admits_at_a_loose_tolerance():
    # on the disc [[1.5]] has Delta_1 = -1.25, a member at tol = 1.25
    f, x = unit_ball_symbol(1), [np.array([[1.5]])]
    assert membership(f, 1, x, tol=1.25).member
    kernel = berezin_kernel(f, 1, x, 3, tol=1.25)
    assert np.array_equal(kernel.transform(np.eye(kernel.dim)), np.zeros((1, 1)))


@pytest.mark.parametrize("form", ["kernel", "resolvent"])
def test_forms_refuse_an_overflowing_tuple_without_a_warning(form):
    # Phi(I) overflows at [[1e200]]; the defect reads -inf (warnings are errors)
    f, x = unit_ball_symbol(1), [np.array([[1e200]])]
    with pytest.raises(ValueError, match="outside the order-1 domain"):
        if form == "kernel":
            berezin_kernel(f, 1, x, 3)
        else:
            berezin_transform_resolvent(f, 1, x, np.eye(4), 3)


def test_kernel_rejects_non_psd_defect():
    # outside the domain the defect has a negative eigenvalue
    f = unit_ball_symbol(1)
    with pytest.raises(ValueError):
        berezin_kernel(f, 1, [np.array([[1.2]])], 3)


def test_resolvent_rejects_non_member():
    # nilpotent, so the radius estimate is 0, but the defect has eigenvalue -3
    f = unit_ball_symbol(2)
    x = [np.array([[0.0, 2.0], [0.0, 0.0]]), np.zeros((2, 2))]
    dim = build_model(f, 1, 3).index.dim
    with pytest.raises(ValueError, match="outside the order-1 domain"):
        berezin_transform_resolvent(f, 1, x, np.eye(dim), 3)


# On the disc at m = 2: [[2.0]] has Delta_1 = -3 but Delta_2 = 9; the Jordan
# block has spectral radius estimate 0.948 and min eigenvalues -0.184
# (Delta_1) and -0.097 (Delta_2), so at tol = 0.1 only Delta_1 fails.
NON_MEMBERS = [([[2.0]], 1e-9), ([[0.8, 0.5], [0.0, 0.8]], 0.1)]


@pytest.mark.parametrize("x, tol", NON_MEMBERS, ids=["scalar", "jordan"])
def test_kernel_form_checks_every_defect(x, tol):
    f, x = unit_ball_symbol(1), [np.array(x)]
    assert not membership(f, 2, x, tol=tol).member
    with pytest.raises(ValueError, match="worst defect eigenvalue -"):
        berezin_kernel(f, 2, x, 4, tol=tol)


def test_resolvent_form_checks_every_defect():
    f, (x, tol) = unit_ball_symbol(1), NON_MEMBERS[1]
    x = [np.array(x)]
    assert not membership(f, 2, x, tol=tol).member
    with pytest.raises(ValueError, match="worst defect eigenvalue -1.84"):
        berezin_transform_resolvent(f, 2, x, np.eye(5), 4, tol=tol)


def test_right_creation_commutes_with_left():
    f = PositiveRegularFunction(2, {"1": 1.0, "2": 0.5, "21": 0.125})
    model = build_model(f, 1, 4)
    rights = _right_creation_operators(f, 1, 4)
    for i in (1, 2):
        for j in (1, 2):
            left = model_monomial(model, (i,))
            right = rights[j - 1]
            assert np.max(np.abs(left @ right - right @ left)) < 1e-12


FORMS = (berezin_transform_kernel, berezin_transform_resolvent)


@st.composite
def word_observable_cases(draw):
    """(f, m, N, T, alpha, beta): T a d x d member, d <= 4, and words of
    length up to N + 1, so some pairs reach past the truncation."""
    n, m, N = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(0, 5))
    coeff = st.integers(1, 96).map(lambda k: k / 97)
    coeffs = {(i,): draw(coeff) for i in range(1, n + 1)}
    if draw(st.booleans()):
        coeffs[tuple(draw(st.lists(st.integers(1, n), min_size=2, max_size=3)))] = draw(coeff)
    f = PositiveRegularFunction(n, coeffs)
    t = sample_member(f, m, draw(st.integers(1, 4)),
                      np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    word = st.lists(st.integers(1, n), max_size=N + 1).map(tuple)
    return f, m, N, t, draw(word), draw(word)


@settings(deadline=None, max_examples=40)
@given(case=word_observable_cases())
def test_word_observable_entries_match_the_dense_pair_in_both_forms(case):
    f, m, N, t, alpha, beta = case
    model = build_model(f, m, N)
    entries = _pair_entries(model, alpha, beta)
    dense = model_monomial(model, alpha) @ model_monomial(model, beta).T
    for form in FORMS:
        want = form(f, m, t, dense, N)
        got = form(f, m, t, entries, N)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


def test_unit_pair_entries_transform_as_the_identity():
    f = PositiveRegularFunction(2, {"1": 0.5, "2": 0.5, "12": 0.125})
    t = sample_member(f, 2, 3, np.random.default_rng(4))
    model = build_model(f, 2, 4)
    entries = _pair_entries(model, (), ())
    dim = model.index.dim
    assert np.array_equal(entries.rows, np.arange(dim))
    assert np.array_equal(entries.cols, np.arange(dim))
    assert np.array_equal(entries.values, np.ones(dim))
    for form in FORMS:
        want = form(f, 2, t, np.eye(dim), 4)
        assert np.max(np.abs(form(f, 2, t, entries, 4) - want)) <= 1e-12


@pytest.mark.parametrize("alpha, beta", [((1,) * 5, ()), ((2,), (1, 2) * 3)])
def test_pair_longer_than_the_depth_transforms_to_zero(alpha, beta):
    f = unit_ball_symbol(2)
    t = sample_member(f, 1, 3, np.random.default_rng(9))
    entries = _pair_entries(build_model(f, 1, 4), alpha, beta)
    assert entries.rows.size == entries.cols.size == entries.values.size == 0
    for form in FORMS:
        assert np.array_equal(form(f, 1, t, entries, 4), np.zeros((3, 3)))


@pytest.mark.parametrize("form", FORMS, ids=["kernel", "resolvent"])
def test_word_observable_forms_reject_non_members_and_wrong_sizes(form):
    f = unit_ball_symbol(2)
    entries = _pair_entries(build_model(f, 1, 3), (1,), (1,))
    # nilpotent, but the defect has eigenvalue -3
    outside = [np.array([[0.0, 2.0], [0.0, 0.0]]), np.zeros((2, 2))]
    with pytest.raises(ValueError, match="outside the order-1 domain"):
        form(f, 1, outside, entries, 3)
    inside = [0.1 * np.eye(2), np.zeros((2, 2))]
    with pytest.raises(ValueError, match="the 15-dimensional truncated Fock space"):
        form(f, 1, inside, _pair_entries(build_model(f, 1, 2), (1,), (1,)), 3)


def test_word_observable_transform_allocates_no_dense_matrix():
    # n = 2, N = 10: dim 2047, where the dense complex g alone takes 67 MB
    f = PositiveRegularFunction(2, {"1": 0.5, "2": 0.5, "21": 0.25})
    t = sample_member(f, 2, 2, np.random.default_rng(3))
    N = 10
    dense_bytes = 16 * build_model(f, 2, N).index.dim ** 2
    tracemalloc.start()
    try:
        entries = _pair_entries(build_model(f, 2, N), (1,), (2, 1))
        kv, rv = (form(f, 2, t, entries, N) for form in FORMS)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.max(np.abs(kv - rv)) < 1e-10
    assert peak < dense_bytes / 50
