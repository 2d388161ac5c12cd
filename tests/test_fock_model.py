"""Truncated weighted-shift models on Fock space."""

from functools import reduce
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncdomain import fock_model
from ncdomain.fock_model import (
    _scatter_diagonal,
    _scatter_terms,
    build_model,
    defect_diagonal,
    evaluate_on_model,
    grade_row_diagonal,
    hardy_norm_estimate,
    model_defect,
    model_monomial,
    monomial_pair,
    symbol_row_diagonal,
)
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
        want = model_monomial(model, alpha) @ model_monomial(model, beta).conj().T
        assert np.array_equal(monomial_pair(model, alpha, beta), want)


def test_dense_allocations_check_physical_memory(monkeypatch):
    model = build_model(unit_ball_symbol(2), 1, 3)  # dim 15
    series = FreeSeries(2, 1, {"1": 1.0}, coeff_dim=2)
    monkeypatch.setattr(fock_model, "physical_memory", lambda: 16 * 30**2 - 1)
    monomial_pair(model, "1", "2")
    model_monomial(model, "1")
    with pytest.raises(DimensionCapError, match=f"{16 * 30**2} bytes"):
        evaluate_on_model(series, model)  # (dim * e)^2 entries, e = 2
    model_defect(model)
    monkeypatch.setattr(fock_model, "physical_memory", lambda: 16 * 15**2 - 1)
    with pytest.raises(DimensionCapError, match=f"{16 * 15**2} bytes"):
        monomial_pair(model, "1", "2")
    with pytest.raises(DimensionCapError, match=f"{16 * 15**2} bytes"):
        model_defect(model)
    with pytest.raises(DimensionCapError, match="physical memory"):
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
            vw = model_monomial(model, model.index.letters_of(i))
            want += model[model.index.letters_of(i)] * (vw @ vw.conj().T)
        got = grade_row_diagonal(model, k)
        assert np.array_equal(want, np.diag(np.diag(want)))
        np.testing.assert_allclose(got, np.diag(want).real, rtol=1e-13, atol=0)


def test_evaluate_on_model_is_creation():
    model = build_model(unit_ball_symbol(2), 1, 2)
    z1 = FreeSeries(2, 1, {"1": 1.0})
    assert np.allclose(evaluate_on_model(z1, model), model_monomial(model, (1,)))
    half = evaluate_on_model(z1, model, r=0.5)
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
    got = evaluate_on_model(series, model, r=r)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_evaluate_on_model_requires_depth():
    model = build_model(unit_ball_symbol(1), 1, 2)
    s = FreeSeries(1, 3, {"111": 1.0})
    with pytest.raises(ValueError):
        evaluate_on_model(s, model)


def test_model_norms_monotone_in_depth():
    # the depth-N model is a compression of the depth-(N+1) model
    f = PositiveRegularFunction(2, {"1": 1.0, "2": 0.5, "21": 0.25})
    s = FreeSeries(2, 2, {"1": 1.0, "12": -2.0, "22": 0.5j})
    norms = []
    for depth in (2, 3, 4):
        model = build_model(f, 2, depth)
        norms.append(np.linalg.norm(evaluate_on_model(s, model), 2))
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
