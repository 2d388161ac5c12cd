"""Truncated weighted-shift models on Fock space."""

import tracemalloc
from functools import reduce
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncdomain import cp_maps, defaults, fock_model
from ncdomain.fock_model import (
    _hereditary_sum,
    _pair_entries,
    _scatter_diagonal,
    _scatter_terms,
    _series_sum,
    build_model,
    defect_diagonal,
    grade_row_diagonal,
    hardy_norm_estimate,
    model_defect,
    model_monomial,
    symbol_row_diagonal,
)
from ncdomain.linalg import kron, operator_norm
from ncdomain.words import DimensionCapError
from ncdomain.series import FreeSeries, PositiveRegularFunction, unit_ball_symbol
from ncdomain.weights import binomial_constant, weights_direct


def test_free_shift_is_unweighted():
    # f = Z1 + Z2, m = 1: all weights are 1, so V_i are plain shifts
    model = build_model(unit_ball_symbol(2), 1, 2)
    v1 = model_monomial(model, (1,))
    e0 = np.zeros(model.index.dim)
    e0[0] = 1.0
    out = v1 @ e0
    assert out[model.index.index_of("1")] == pytest.approx(1.0)
    assert np.count_nonzero(out) == 1


def test_single_variable_weighted_shift_entries():
    # b_k = k + 1 gives V e_k = sqrt((k+1)/(k+2)) e_{k+1}
    model = build_model(unit_ball_symbol(1), 2, 4)
    v = model_monomial(model, (1,))
    for k in range(4):
        col = v[:, k]
        assert col[k + 1] == pytest.approx(np.sqrt((k + 1.0) / (k + 2.0)))
        assert np.count_nonzero(col) == 1
    # the top grade is annihilated
    assert np.count_nonzero(v[:, 4]) == 0


def test_creation_rejects_bad_generator():
    model = build_model(unit_ball_symbol(2), 1, 2)
    with pytest.raises(ValueError):
        model_monomial(model, (0,))
    with pytest.raises(ValueError):
        model_monomial(model, (3,))


def test_model_monomial_matches_products():
    f = PositiveRegularFunction(2, {"1": 0.5, "2": 1.0, "12": 0.25})
    model = build_model(f, 2, 3)
    v1, v2 = model_monomial(model, (1,)), model_monomial(model, (2,))
    assert np.allclose(model_monomial(model, "12"), v1 @ v2)
    assert np.allclose(model_monomial(model, "211"), v2 @ v1 @ v1)
    assert np.allclose(model_monomial(model, ""), np.eye(model.index.dim))


def _creation_product(model, word):
    """Dense V_w as the product of the dense single-letter shifts."""
    eye = np.eye(model.index.dim)
    return reduce(np.matmul, (model_monomial(model, (i,)) for i in word), eye)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_monomial_map_matches_creation_products(n, N):
    # V_w read off the weight table, sqrt(b_u / b_{wu}), against the
    # telescoping product of the single-letter shifts
    coeffs = {(i,): 1.0 / (i + 1) for i in range(1, n + 1)}
    coeffs.update({(1, n): 0.125, (n, 1, 1): 0.0625})
    model = build_model(PositiveRegularFunction(n, coeffs), 2, N)
    for k in range(N + 1):
        for word in product(range(1, n + 1), repeat=k):
            got = model_monomial(model, word)
            np.testing.assert_allclose(
                got, _creation_product(model, word), rtol=1e-15, atol=0
            )


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_monomial_pair_equals_dense_product(n, N):
    coeffs = {(i,): 1.0 / (i + 1) for i in range(1, n + 1)}
    coeffs.update({(1, n): 0.125, (n, 1, 1): 0.0625})
    model = build_model(PositiveRegularFunction(n, coeffs), 2, N)
    words = [w for k in range(3) for w in product(range(1, n + 1), repeat=k)]
    for alpha, beta in product(words, repeat=2):
        # a real GEMM: each entry has at most one nonzero term, so it is exact
        want = model_monomial(model, alpha) @ model_monomial(model, beta).T
        assert want.dtype == np.float64
        pair = _pair_entries(model, alpha, beta)
        got = np.zeros_like(want)
        got[pair.rows, pair.cols] = pair.values
        assert got.tobytes() == want.tobytes()


@st.composite
def monomial_cases(draw):
    """A model with n <= 3, N <= 5 and a word with |w| <= N."""
    n, N = draw(st.integers(1, 3)), draw(st.integers(0, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    symbol = {(i,): float(rng.uniform(0.1, 1.0)) for i in range(1, n + 1)}
    symbol[tuple(rng.integers(1, n + 1, size=2))] = float(rng.uniform(0.0, 0.5))
    model = build_model(PositiveRegularFunction(n, symbol), draw(st.integers(1, 3)), N)
    return model, tuple(draw(st.lists(st.integers(1, n), max_size=N)))


@settings(deadline=None, max_examples=60)
@given(case=monomial_cases())
def test_model_monomial_is_the_real_part_of_the_complex_pair(case):
    model, word = case
    v = model_monomial(model, word)
    assert v.dtype == np.float64
    assert v.astype(complex).tobytes() == _dense_pair(model, word, ()).tobytes()


def test_observables_series_and_defect_stay_complex(monkeypatch):
    model = build_model(unit_ball_symbol(2), 2, 3)
    series = FreeSeries(2, 2, {"1": 0.5, "21": 0.25})
    assert _series_sum(series, model).at(0.5).dtype == np.complex128
    assert model_defect(model).dtype == np.complex128
    real = _hereditary_sum(model, [((1,), (2,), np.ones((1, 1)))], "a real pair")
    assert real.at().dtype == np.float64
    # the von Neumann model side casts even real coefficients to complex
    sides = []
    monkeypatch.setattr(cp_maps, "_hereditary_sum",
                        lambda *a: sides.append(_hereditary_sum(*a)) or sides[-1])
    cp_maps.von_neumann_gap(unit_ball_symbol(2), 2, [np.zeros((1, 1))] * 2,
                            [((1,), (2,), 0.5)], N=3)
    assert [s.at().dtype for s in sides] == [np.complex128]


def test_dense_allocations_check_physical_memory(monkeypatch):
    model = build_model(unit_ball_symbol(2), 1, 3)  # dim 15
    series = FreeSeries(2, 1, {"1": 1.0}, coeff_dim=2)
    monkeypatch.setattr(defaults, "physical_memory", lambda: 16 * 30**2 - 1)
    model_monomial(model, "1")
    with pytest.raises(DimensionCapError, match=f"{16 * 30**2} bytes"):
        _series_sum(series, model)  # (dim * e)^2 entries, e = 2
    model_defect(model)
    monkeypatch.setattr(defaults, "physical_memory", lambda: 16 * 15**2 - 1)
    with pytest.raises(DimensionCapError, match=f"complex128 matrix needs {16 * 15**2} bytes"):
        model_defect(model)
    # V_w is real: 8 bytes an entry
    monkeypatch.setattr(defaults, "physical_memory", lambda: 8 * 15**2)
    model_monomial(model, (1,))
    monkeypatch.setattr(defaults, "physical_memory", lambda: 8 * 15**2 - 1)
    with pytest.raises(DimensionCapError, match="float64 matrix needs 1800 bytes"):
        model_monomial(model, (1,))


def test_build_model_enforces_the_basis_cap(monkeypatch):
    monkeypatch.setenv("NCDOMAIN_DIM_CAP", "100")
    with pytest.raises(DimensionCapError, match="127 words"):
        build_model(unit_ball_symbol(2), 1, 6)


def test_apply_phi_matches_dense_sum():
    # Phi on a diagonal is the diagonal scatter; the dense sum stays diagonal
    f = PositiveRegularFunction(2, {"1": 0.5, "2": 0.25, "21": 0.125})
    model = build_model(f, 1, 3)
    rng = np.random.default_rng(5)
    y = rng.standard_normal(model.index.dim)
    want = np.zeros((model.index.dim, model.index.dim), dtype=complex)
    for word, a in f.items():
        vw = model_monomial(model, word)
        want += a * (vw @ np.diag(y) @ vw.conj().T)
    got = _scatter_diagonal(_scatter_terms(model, f.items()), y)
    assert np.max(np.abs(np.diag(got) - want)) < 1e-14


def test_defect_is_vacuum_projection():
    f = PositiveRegularFunction(2, {"1": 1.0, "2": 1.0, "12": 1.0})
    for m in (1, 2, 3):
        model = build_model(f, m, 3)
        defect = model_defect(model)
        want = np.zeros((model.index.dim, model.index.dim))
        want[0, 0] = 1.0
        assert np.max(np.abs(defect - want)) < 1e-12


@st.composite
def domains(draw):
    """(f, m, N) with n <= 3, degree <= 3, m <= 3 and N <= 5."""
    n = draw(st.integers(1, 3))
    coeff = st.integers(1, 96).map(lambda k: k / 97)
    coeffs = {(i,): draw(coeff) for i in range(1, n + 1)}
    for k in range(2, draw(st.integers(1, 3)) + 1):
        for w in product(range(1, n + 1), repeat=k):
            if draw(st.booleans()):
                coeffs[w] = draw(coeff)
    return PositiveRegularFunction(n, coeffs), draw(st.integers(1, 3)), draw(st.integers(0, 5))


@settings(deadline=None, max_examples=60)
@given(case=domains())
def test_defect_diagonal_is_vacuum(case):
    f, m, N = case
    got = defect_diagonal(build_model(f, m, N))
    want = np.zeros(got.size)
    want[0] = 1.0
    assert np.max(np.abs(got - want)) <= 1e-10


def test_row_and_grade_diagonals():
    f = PositiveRegularFunction(1, {"1": 1.0, "11": 0.5})
    model = build_model(f, 2, 4)
    row = symbol_row_diagonal(model)
    assert row.shape == (model.index.dim,)
    assert np.max(row) <= 1.0 + 1e-12
    for k in range(1, 5):
        grade = grade_row_diagonal(model, k)
        assert np.max(grade) <= binomial_constant(k, 2) + 1e-12


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_grade_row_diagonal_matches_dense_sum(n, m):
    coeffs = {(i,): 1.0 / (i + 1) for i in range(1, n + 1)}
    coeffs.update({(1, 1): 0.25, (n, 1): 0.125, (1, n, n): 0.0625})
    model = build_model(PositiveRegularFunction(n, coeffs), m, 4 if n < 3 else 3)
    for k in range(model.N + 1):
        want = np.zeros((model.index.dim, model.index.dim), dtype=complex)
        for i in model.index.grade(k):
            vw = model_monomial(model, model.index.words[i])
            want += model[model.index.words[i]] * (vw @ vw.conj().T)
        got = grade_row_diagonal(model, k)
        assert np.array_equal(want, np.diag(np.diag(want)))
        np.testing.assert_allclose(got, np.diag(want).real, rtol=1e-13, atol=0)


def test_evaluate_on_model_is_creation():
    model = build_model(unit_ball_symbol(2), 1, 2)
    z1 = FreeSeries(2, 1, {"1": 1.0})
    assert np.allclose(_series_sum(z1, model).at(), model_monomial(model, (1,)))
    half = _series_sum(z1, model).at(0.5)
    assert np.allclose(half, 0.5 * model_monomial(model, (1,)))


@pytest.mark.parametrize("e", [1, 2])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_evaluate_on_model_matches_per_word_sum(n, e):
    # one scatter per grade pair against sum_w r^|w| V_w (x) C_w, word by word
    f = PositiveRegularFunction(n, {(i,): 1.0 / (i + 1) for i in range(1, n + 1)})
    model = build_model(f, 2, 3)
    rng = np.random.default_rng(10 * n + e)
    coeffs = {}
    for k in range(4):
        for word in product(range(1, n + 1), repeat=k):
            if rng.random() < 0.7:
                coeffs[word] = (rng.standard_normal((e, e))
                                + 1j * rng.standard_normal((e, e)))
    series = FreeSeries(n, 3, coeffs, coeff_dim=e)
    r = 0.75
    want = sum(
        r ** len(word) * np.kron(_creation_product(model, word), c)
        for word, c in coeffs.items()
    )
    got = _series_sum(series, model).at(r)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def _scatter_oracle(series, model, r):
    """sum_w r^|w| V_w (x) C_w by the former scatter, one per grade pair (k, L).

    For |w| = k and |u| = L the entry at (wu, u) is r^k sqrt(b_u / b_{wu})
    C_w; the pairs of one grade pair fill grade L + k as an (n^k, n^L) grid.
    """
    n, e, b, index = model.f.n, series.coeff_dim, model.values, model.index
    dim = index.dim
    out = np.zeros((dim * e, dim * e), dtype=complex)
    view = out.reshape(dim, e, dim, e)
    for k, c in series._nonzero_grades():
        scale = r**k
        for length in range(model.N - k + 1):
            grade = index.grade(length + k)
            rows = np.arange(grade.start, grade.stop).reshape(n**k, n**length)
            cols = np.arange(index.offset(length), index.offset(length + 1))
            w = np.sqrt(b[cols] / b[rows])
            if e == 1:
                out[rows, cols] += (scale * c[:, 0, :]) * w
            else:
                view[rows, :, cols, :] += (scale * w)[..., None, None] * c[:, None]
    return out


@st.composite
def planned_cases(draw, top_at_three=3):
    """A symbol, a series of degree <= N and a nondecreasing grid in [0, 1).

    N <= 4, and N <= top_at_three over three letters.  Coefficients mix
    complex values, negative reals (whose products with r = 0 are -0.0)
    and zeros inside nonzero grades."""
    n = draw(st.integers(1, 3))
    N = draw(st.integers(0, 4 if n < 3 else top_at_three))
    e = draw(st.sampled_from([1, 2]))
    m = draw(st.integers(1, 3))
    degree = draw(st.integers(0, N))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    symbol = {(i,): float(rng.uniform(0.1, 1.0)) for i in range(1, n + 1)}
    symbol[tuple(rng.integers(1, n + 1, size=2))] = float(rng.uniform(0.0, 0.5))
    coeffs = {}
    for k in range(degree + 1):
        for word in product(range(1, n + 1), repeat=k):
            kind = rng.integers(4)
            if kind == 0:
                coeffs[word] = rng.standard_normal((e, e)) + 1j * rng.standard_normal((e, e))
            elif kind == 1:
                coeffs[word] = -float(rng.integers(1, 4)) * np.eye(e)
            elif kind == 2:
                coeffs[word] = np.zeros((e, e))
    grid = sorted([0.0] + [float(v) for v in rng.uniform(0.0, 1.0, size=draw(st.integers(0, 3)))])
    f = PositiveRegularFunction(n, symbol)
    return f, m, N, FreeSeries(n, degree, coeffs, coeff_dim=e), grid


@settings(deadline=None, max_examples=60)
@given(case=planned_cases())
def test_plan_matches_the_per_grade_pair_scatter_bit_for_bit(case):
    f, m, N, series, grid = case
    model = build_model(f, m, N)
    for r in grid + [1.0]:
        got, want = _series_sum(series, model).at(r), _scatter_oracle(series, model, r)
        assert np.array_equal(got, want)
        assert got.tobytes() == want.tobytes()  # signed zeros too
    want = [operator_norm(_scatter_oracle(series, model, r)) for r in grid]
    assert hardy_norm_estimate(series, f, m, N, grid) == want


@settings(deadline=None, max_examples=60)
@given(case=planned_cases(top_at_three=4), shared=st.booleans())
def test_depth_n_plan_is_the_leading_block_of_the_next_depth(case, shared):
    # P_N chi(rV_{N+1}) P_N = chi(rV_N) on the first dim_N e basis vectors,
    # bit for bit: the reason Hardy norms cannot decrease with N
    f, m, N, series, _ = case
    deep = build_model(f, m, N + 1)
    model = build_model(f, m, N, deep if shared else None)
    assert np.shares_memory(model.values, deep.values) == shared
    size = model.index.dim * series.coeff_dim
    low, high = fock_model._series_sum(series, model), fock_model._series_sum(series, deep)
    for r in (0.0, 0.3, 0.9):
        want = np.ascontiguousarray(high.at(r)[:size, :size])
        assert low.at(r).tobytes() == want.tobytes()


def test_at_returns_a_fresh_matrix_at_every_radius():
    # a caller that keeps the matrices of two radii sees both
    f = PositiveRegularFunction(2, {"1": 1.0, "2": 0.5, "21": 0.25})
    model = build_model(f, 2, 3)
    s = FreeSeries(2, 2, {"1": 1.0, "12": -2.0, "22": 0.5j}, coeff_dim=2)
    chi = _series_sum(s, model)
    low, high = chi.at(0.3), chi.at(0.9)
    assert not np.shares_memory(low, high)
    assert low.tobytes() == _scatter_oracle(s, model, 0.3).tobytes()
    assert high.tobytes() == _scatter_oracle(s, model, 0.9).tobytes()
    pair = _hereditary_sum(model, [((1,), (2,), np.ones((1, 1)))], "a pair")
    assert not np.shares_memory(pair.at(), pair.at())


def _dense_pair(model, alpha, beta):
    """V_alpha V_beta^* by the former scatter from the two target arrays."""
    b = model.values
    t_a, t_b = fock_model._targets(model, alpha), fock_model._targets(model, beta)
    out = np.zeros((model.index.dim, model.index.dim), dtype=complex)
    k = min(t_a.size, t_b.size)
    t_a, t_b = t_a[:k], t_b[:k]
    out[t_a, t_b] = np.sqrt(b[:k] / b[t_a]) * np.sqrt(b[:k] / b[t_b])
    return out


def _dense_hereditary(model, terms):
    """sum_t V_alpha V_beta^* (x) C by the former dense sum, one kron per term."""
    size = model.index.dim * terms[0][2].shape[0]
    out = np.zeros((size, size), dtype=complex)
    for alpha, beta, c in terms:
        out += kron(_dense_pair(model, alpha, beta), c)
    return out


@st.composite
def hereditary_cases(draw):
    """A model with n <= 3, N <= 4 and 1 to 4 terms (alpha, beta, C), e in {1, 2}.

    A drawn term may be followed by (alpha s, beta s), whose entries land
    on those of (alpha, beta); coefficients mix complex values, negative
    reals and zeros."""
    n = draw(st.integers(1, 3))
    N = draw(st.integers(0, 4))
    e = draw(st.sampled_from([1, 2]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    symbol = {(i,): float(rng.uniform(0.1, 1.0)) for i in range(1, n + 1)}
    symbol[tuple(rng.integers(1, n + 1, size=2))] = float(rng.uniform(0.0, 0.5))
    word = st.lists(st.integers(1, n), max_size=N).map(tuple)

    def coefficient():
        kind = draw(st.integers(0, 2))
        if kind == 0:
            return rng.standard_normal((e, e)) + 1j * rng.standard_normal((e, e))
        if kind == 1:
            return -float(rng.integers(1, 4)) * np.eye(e, dtype=complex)
        return np.zeros((e, e), dtype=complex)

    count = draw(st.integers(1, 4))
    terms = []
    while len(terms) < count:
        alpha, beta = draw(word), draw(word)
        terms.append((alpha, beta, coefficient()))
        shift = tuple(draw(st.lists(st.integers(1, n), max_size=N - max(len(alpha), len(beta)))))
        if shift and len(terms) < count:
            terms.append((alpha + shift, beta + shift, coefficient()))
    model = build_model(PositiveRegularFunction(n, symbol), draw(st.integers(1, 3)), N)
    return model, terms


@settings(deadline=None, max_examples=80)
@given(case=hereditary_cases())
def test_hereditary_sum_matches_the_dense_kron_sum_bit_for_bit(case):
    model, terms = case
    got = _hereditary_sum(model, terms, "a hereditary expression").at()
    want = _dense_hereditary(model, terms)
    assert got.tobytes() == want.tobytes()
    for alpha, beta, _ in terms:
        pair = model_monomial(model, alpha) @ model_monomial(model, beta).T
        assert pair.astype(complex).tobytes() == _dense_pair(model, alpha, beta).tobytes()


def test_hardy_norm_plans_once_over_the_grid(monkeypatch):
    plans, tables = [], []
    real_plan, real_weights = fock_model._series_sum, fock_model.weights_direct
    monkeypatch.setattr(fock_model, "_series_sum",
                        lambda *a: plans.append(a) or real_plan(*a))
    monkeypatch.setattr(fock_model, "weights_direct",
                        lambda *a: tables.append(a) or real_weights(*a))
    f = PositiveRegularFunction(2, {"1": 1.0, "2": 0.5, "21": 0.25})
    s = FreeSeries(2, 2, {"1": 1.0, "12": -2.0, "22": 0.5j}, coeff_dim=1)
    norms = hardy_norm_estimate(s, f, 2, 4, [0.0, 0.2, 0.4, 0.6, 0.8])
    assert len(norms) == 5
    assert len(plans) == 1 and len(tables) == 1


def test_hardy_norm_refuses_the_dense_matrix_before_allocating(monkeypatch):
    # n = 2, N = 8, e = 2: dim 511, a 1022 x 1022 complex matrix of 16.7 MB
    f = unit_ball_symbol(2)
    s = FreeSeries(2, 2, {"1": 1.0, "21": 0.5}, coeff_dim=2)
    need = 16 * 1022**2
    monkeypatch.setattr(defaults, "physical_memory", lambda: need - 1)

    def unplanned(self):
        raise AssertionError("the plan was built before the memory check")

    monkeypatch.setattr(FreeSeries, "_nonzero_grades", unplanned)
    weights_direct(f, 1, 8)  # the table may be allocated; the matrix may not
    tracemalloc.start()
    try:
        with pytest.raises(DimensionCapError, match=f"as a dense 1022 x 1022 complex128 "
                                                    f"matrix needs {need} bytes"):
            hardy_norm_estimate(s, f, 1, 8, [0.0, 0.5])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < need // 100


def test_evaluate_on_model_requires_depth():
    model = build_model(unit_ball_symbol(1), 1, 2)
    s = FreeSeries(1, 3, {"111": 1.0})
    with pytest.raises(ValueError):
        _series_sum(s, model)


def test_model_norms_monotone_in_depth():
    # the depth-N model is a compression of the depth-(N+1) model
    f = PositiveRegularFunction(2, {"1": 1.0, "2": 0.5, "21": 0.25})
    s = FreeSeries(2, 2, {"1": 1.0, "12": -2.0, "22": 0.5j})
    norms = []
    for depth in (2, 3, 4):
        model = build_model(f, 2, depth)
        norms.append(np.linalg.norm(_series_sum(s, model).at(), 2))
    assert norms[0] <= norms[1] + 1e-12
    assert norms[1] <= norms[2] + 1e-12


def test_hardy_norm_constant_series():
    f = unit_ball_symbol(1)
    s = FreeSeries(1, 1, {"": 3.0})
    norms = hardy_norm_estimate(s, f, 1, 3, [0.0, 0.5, 0.9])
    assert all(v == pytest.approx(3.0) for v in norms)


def test_hardy_norm_monotone_in_radius():
    f = PositiveRegularFunction(2, {"1": 1.0, "2": 1.0, "12": 0.5})
    s = FreeSeries(2, 2, {"1": 1.0, "21": 1.0})
    norms = hardy_norm_estimate(s, f, 1, 4, [0.0, 0.25, 0.5, 0.75])
    assert all(a <= b + 1e-12 for a, b in zip(norms, norms[1:]))


def test_hardy_norm_rejects_bad_grid():
    f = unit_ball_symbol(1)
    s = FreeSeries(1, 1, {"1": 1.0})
    with pytest.raises(ValueError):
        hardy_norm_estimate(s, f, 1, 2, [0.5, 0.25])
    with pytest.raises(ValueError):
        hardy_norm_estimate(s, f, 1, 2, [0.0, 1.0])


@pytest.mark.parametrize("grid", [[float("nan"), 0.5], [0.0, float("nan")]],
                         ids=["nan-first", "nan-last"])
def test_hardy_norm_rejects_nan_radius(grid):
    f = unit_ball_symbol(1)
    s = FreeSeries(1, 1, {"1": 1.0})
    with pytest.raises(ValueError, match="r_grid"):
        hardy_norm_estimate(s, f, 1, 2, grid)


def test_weight_table_reuse():
    f = unit_ball_symbol(1)
    table = weights_direct(f, 2, 4)
    assert build_model(f, 2, 4, weight_table=table) is table
    wrong = weights_direct(f, 1, 4)
    with pytest.raises(ValueError):
        build_model(f, 2, 4, weight_table=wrong)
    with pytest.raises(ValueError, match="covers N=4"):
        build_model(f, 2, 5, weight_table=table)
    # a deeper table is cut to the read-only prefix of its values
    prefix = build_model(f, 2, 2, weight_table=table)
    assert (prefix.N, prefix.index.dim) == (2, 3)
    assert np.shares_memory(prefix.values, table.values)
    assert prefix.values.tolist() == [1.0, 2.0, 3.0] and not prefix.values.flags.writeable


def test_hardy_norm_cuts_a_given_deeper_table():
    f = PositiveRegularFunction(2, {"1": 0.3, "2": 0.7, "12": 0.1})
    s = FreeSeries(2, 2, {"": 0.5, "1": 1.0, "21": -0.25})
    grid = [0.0, 0.5, 0.9]
    deep = weights_direct(f, 2, 5)
    assert hardy_norm_estimate(s, f, 2, 3, grid, deep) == hardy_norm_estimate(s, f, 2, 3, grid)
    with pytest.raises(ValueError, match="different domain"):
        hardy_norm_estimate(s, f, 1, 3, grid, deep)
