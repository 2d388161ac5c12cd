"""Truncated weighted creation operators on the full Fock space.

Given a positive regular symbol f, an order m, and a truncation depth N,
the model consists of n operators V_1..V_n on the span of the words of
length <= N:

    V_i e_w = sqrt(b_w / b_{iw}) e_{iw}   for |w| < N,
    V_i e_w = 0                           for |w| = N,

with b the weight table of (f, m).  The weights fix every V_i, so the
model *is* the depth-N `WeightTable`: `build_model` returns one, and the
functions here read f, m, N, its word index and its ``values`` off it.
The ratios telescope, so the product V_w sends e_u to
sqrt(b_u / b_{wu}) e_{wu}, and in the graded-lex index it sends grade L
onto one contiguous run of grade L + |w| (`WordIndex.shift_block`); the
targets of V_w are those runs.  Every dense model element is one
`_ModelSum`, sum_t r^k_t V_alpha_t V_beta_t^* (x) C_t held as parts,
whose `at(r)` returns a fresh matrix once `defaults.require_bytes` admits
its (dim e)^2 entries.  The weights are real, so a dense model element
is real exactly when its coefficients are: float64 at 8 (dim e)^2 bytes,
else complex128 at 16 (dim e)^2.  A series is one complex part per
nonzero grade (`_series_sum`: `hardy_norm_estimate`,
`rigidity.map_image_check`), a list of (alpha, beta, C) terms one part
per term (`_hereditary_sum`: the model side of
`cp_maps.von_neumann_gap`, complex), and `model_monomial` the real
one-term sum V_w V_unit^*.  Each term's part is built from its entry set
(`_pair_entries`): V_alpha V_beta^* has at most dim nonzeros, (alpha u,
beta u, s_u) for the first basis vectors u.  That O(dim) entry set is
the one word observable of the package: the Berezin forms contract it
directly, so it needs no memory check.  Distinct columns of V_w land in
distinct rows, so the completely positive map Y -> sum_w a_w V_w Y V_w^*
sends diagonal matrices to diagonal matrices and acts on a diagonal as a
sum of scaled index scatters, and the grade-row sum over |w| = k of
b_w V_w V_w^* is a gather: its diagonal at u is b_{u[:k]} b_{u[k:]} / b_u.

The defining property of the truncation: applying (id - Phi_f)^m to the
identity yields exactly the rank-one projection onto the vacuum vector,
up to floating-point roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .defaults import require_bytes
from .linalg import operator_norm
from .series import FreeSeries, PositiveRegularFunction
from .weights import WeightTable, _require_order, binomial_constant, weights_direct
from .words import Letters, WordIndex, _as_letters


def _targets(model: WeightTable, word: Letters) -> np.ndarray:
    """Index of wu for the u with |u| <= N - |w|: the first basis vectors, or none."""
    runs = [model.index.shift_block(word, k) for k in range(model.N - len(word) + 1)]
    return np.concatenate([np.arange(0)] + [np.arange(s.start, s.stop) for s in runs])


def _require_dense(size: int, dtype, what: str) -> None:
    """Refuse a (size, size) matrix of dtype that exceeds physical memory."""
    dtype = np.dtype(dtype)
    require_bytes(dtype.itemsize * size**2, f"{what} as a dense {size} x {size} {dtype} matrix")


def build_model(
    f: PositiveRegularFunction,
    m: int,
    N: int,
    weight_table: WeightTable | None = None,
) -> WeightTable:
    """The depth-N model of (f, m): its weight table, which fixes every V_w.

    Weights come from the direct factorization sum unless a precomputed
    table is supplied (it must cover depth N for the same f and m); a
    deeper table is cut to its depth-N prefix.
    """
    m = _require_order(m)
    if weight_table is None:
        return weights_direct(f, m, N)
    if weight_table.N < N:
        raise ValueError(f"weight table covers N={weight_table.N}, model needs {N}")
    if weight_table.m != m or weight_table.f != f:
        raise ValueError("weight table was built for a different domain")
    if weight_table.N == N:
        return weight_table
    index = WordIndex(f.n, N)
    return WeightTable(f, m, index, weight_table.values[: index.dim])


def _pair_values(b: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """s_u = sqrt(b_u / b_rows) sqrt(b_u / b_cols), u the first rows.shape[-1]
    basis vectors: the entries of V_alpha V_beta^* at rows alpha u, cols beta u."""
    u = b[: rows.shape[-1]]
    return np.sqrt(u / b[rows]) * np.sqrt(u / b[cols])


@dataclass(frozen=True, slots=True)
class _PairEntries:
    """The nonzero entries of V_alpha V_beta^* on a model of dimension dim:
    values[p] at (rows[p], cols[p]), no position twice."""

    dim: int
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray


def _pair_entries(model: WeightTable, alpha: Letters, beta: Letters) -> _PairEntries:
    """V_alpha V_beta^* as its at most dim entries (alpha u, beta u, s_u),
    over the u with |u| <= N - max(|alpha|, |beta|); none past depth N."""
    t_a, t_b = _targets(model, alpha), _targets(model, beta)
    q = min(t_a.size, t_b.size)
    rows, cols = t_a[:q], t_b[:q]
    return _PairEntries(model.index.dim, rows, cols, _pair_values(model.values, rows, cols))


class _ModelSum:
    """sum_t r^k_t V_alpha_t V_beta_t^* (x) C_t on one model, dense at any r.

    V_alpha V_beta^* sends e_{beta u} to s_u e_{alpha u} for the first
    basis vectors u (`_pair_values`), and k = |alpha| + |beta|.  A part
    holds terms of one k as flat indices in the (dim e)^2 matrix, no entry
    twice, with s and the coefficients aligned to them.  s is real, so the
    matrix has the dtype of the coefficients: real exactly when they are.
    """

    __slots__ = ("size", "e", "dtype", "parts")

    def __init__(self, model: WeightTable, e: int, dtype, what: str):
        self.size, self.e, self.dtype = model.index.dim * e, e, dtype
        _require_dense(self.size, dtype, what)  # once, before any part is built
        self.parts = []

    def add(self, k: int, rows: np.ndarray, cols: np.ndarray, s: np.ndarray,
            c: np.ndarray) -> None:
        """The part sum_p r^k V_{alpha_p} V_{beta_p}^* (x) c[p], s from
        `_pair_values`; cols may be one (Q,) row shared by every p."""
        size, e = self.size, self.e
        if e == 1:
            self.parts.append((k, rows * size + cols, c[:, 0, :], s))
        else:
            # entry (alpha u, p; beta u, q) of the matrix, as (P, Q, e, e)
            p = np.arange(e)
            flat = ((rows * e)[..., None, None] + p[:, None]) * size
            flat = flat + (cols * e)[..., None, None] + p
            self.parts.append((k, flat, c[:, None], s[..., None, None]))

    def at(self, r: float = 1.0) -> np.ndarray:
        """A fresh dense matrix at r, the parts added in order, each in the
        arithmetic order of a per-word sum: (r^k c) s for e = 1, (r^k s) c
        for e > 1.  Adding onto 0.0 turns a -0.0 product into 0.0."""
        out = np.zeros((self.size, self.size), dtype=self.dtype)
        flat = out.reshape(-1)
        for k, target, c, s in self.parts:
            scale = r**k
            flat[target] += (scale * c) * s if self.e == 1 else (scale * s) * c
        return out


def _series_sum(series: FreeSeries, model: WeightTable) -> _ModelSum:
    """sum_w r^|w| V_w (x) C_w: one part per nonzero grade k, beta the unit.

    For |w| = k the pairs (wu, u) with |u| = L fill an (n^k, n^L) grid of
    grade L + k; over L = 0..N - k they form an (n^k, dim_{N-k}) grid,
    with u running over the first dim_{N-k} basis vectors.
    """
    if series.n != model.f.n:
        raise ValueError(
            f"series over {series.n} letters on a model with {model.f.n} generators"
        )
    if series.degree > model.N:
        raise ValueError(f"series degree {series.degree} exceeds model depth {model.N}")
    n, index = model.f.n, model.index
    out = _ModelSum(model, series.coeff_dim, complex, "a series evaluated on the model")
    for k, c in series._nonzero_grades():
        top = model.N - k
        rows = np.hstack([
            np.arange(index.offset(L + k), index.offset(L + k + 1)).reshape(n**k, n**L)
            for L in range(top + 1)
        ])
        cols = np.arange(index.offset(top + 1))
        out.add(k, rows, cols, _pair_values(model.values, rows, cols), c)
    return out


def _hereditary_sum(model: WeightTable, terms, what: str) -> _ModelSum:
    """sum_t V_alpha_t V_beta_t^* (x) C_t, one part per term, for (alpha,
    beta, C) with letter tuples and (e, e) coefficients of one shape; the
    matrix takes the common dtype of the coefficients."""
    dtype = np.result_type(*(c for _, _, c in terms))
    out = _ModelSum(model, terms[0][2].shape[0], dtype, what)
    for alpha, beta, c in terms:
        p = _pair_entries(model, alpha, beta)
        out.add(len(alpha) + len(beta), p.rows[None], p.cols[None], p.values[None], c[None])
    return out


def model_monomial(model: WeightTable, word) -> np.ndarray:
    """Dense real matrix of the product V_w (empty word gives the identity).

    V_w is a weighted shift with real weights, so it is float64 at
    8 dim^2 bytes.
    """
    term = (_as_letters(word, model.f.n), (), np.ones((1, 1)))
    return _hereditary_sum(model, [term], "the model operator V_w").at()


def _scatter_terms(
    model: WeightTable, terms: Iterable[tuple[Letters, float]]
) -> list[tuple[np.ndarray, np.ndarray]]:
    """(index of wu, c_w b_u / b_{wu}) over the u that V_w keeps, per term.

    V_w diag(y) V_w^* is diagonal, with c_w (b_u / b_{wu}) y_u at wu.
    """
    out = []
    for word, c in terms:
        t = _targets(model, word)
        out.append((t, c * model.values[: t.size] / model.values[t]))
    return out


def _scatter_diagonal(terms: list, y: np.ndarray) -> np.ndarray:
    """Diagonal of sum c_w V_w diag(y) V_w^* over `_scatter_terms` output."""
    out = np.zeros(y.size)
    for t, scale in terms:
        # V_w is injective on its columns, so no target repeats within a word
        out[t] += scale * y[: t.size]
    return out


def defect_diagonal(model: WeightTable) -> np.ndarray:
    """Diagonal of (id - Phi_f)^m applied to the identity."""
    terms = _scatter_terms(model, model.f.items())
    y = np.ones(model.index.dim)
    for _ in range(model.m):
        y = y - _scatter_diagonal(terms, y)
    return y


def vacuum_gap(defect: np.ndarray) -> float:
    """Largest entrywise gap of a defect diagonal to the vacuum projection."""
    vacuum = np.zeros(defect.size)
    vacuum[0] = 1.0
    return float(np.max(np.abs(defect - vacuum)))


def model_defect(model: WeightTable) -> np.ndarray:
    """(id - Phi_f)^m applied to the identity, as a dense diagonal matrix.

    On the truncation this equals the rank-one projection onto the
    vacuum basis vector exactly, which the tests assert entrywise.  The
    diagonal is real, but the matrix stays complex128: a float64 one was
    measured slower to build at dim 511 and up, and `defect_diagonal` is
    the real, cheap form.
    """
    _require_dense(model.index.dim, complex, "the model defect")
    return np.diag(defect_diagonal(model).astype(complex))


def _radial_grid(r_grid: Sequence[float]) -> list[float]:
    """The radii as floats, checked nonempty, nondecreasing and in [0, 1)."""
    grid = [float(r) for r in r_grid]
    if not grid:
        raise ValueError("must be nonempty")
    for a, b in zip(grid, grid[1:]):
        if b < a:
            raise ValueError("must be nondecreasing")
    if not all(0.0 <= r < 1.0 for r in grid):
        raise ValueError("values must lie in [0, 1)")
    return grid


def hardy_norm_estimate(
    series: FreeSeries,
    f: PositiveRegularFunction,
    m: int,
    N: int,
    r_grid: Sequence[float],
    weight_table: WeightTable | None = None,
) -> list[float]:
    """Norms of the series evaluated at the scaled model, r by r.

    Each value is a lower bound for the supremum norm of the series over
    the domain of (f, m); the sequence is nondecreasing in r and in N.
    The grid must be nondecreasing inside [0, 1).  One `_series_sum`
    serves every r.  The model is `build_model(f, m, N,
    weight_table)`, so a table of depth >= N is cut, not summed again.
    """
    try:
        grid = _radial_grid(r_grid)
    except ValueError as exc:
        raise ValueError(f"r_grid: {exc}") from None
    chi = _series_sum(series, build_model(f, m, N, weight_table))
    return [operator_norm(chi.at(r)) for r in grid]


def symbol_row_diagonal(model: WeightTable) -> np.ndarray:
    """Diagonal of sum over support words of a_w V_w V_w^*."""
    return _scatter_diagonal(_scatter_terms(model, model.f.items()), np.ones(model.index.dim))


def grade_row_diagonal(model: WeightTable, k: int) -> np.ndarray:
    """Diagonal of sum over |w| = k of b_w V_w V_w^*.

    V_w V_w^* e_u is (b_{u[k:]} / b_u) e_u if w = u[:k], else 0.  The
    norm is bounded by the binomial constant C(k+m-1, m-1).
    """
    if not 0 <= k <= model.N:
        raise ValueError(f"grade {k} outside 0..{model.N}")
    index, b = model.index, model.values
    out = np.zeros(index.dim)
    for length in range(k, model.N + 1):
        prefix, suffix = index.split(length, k)
        u = slice(index.offset(length), index.offset(length + 1))
        out[u] = b[prefix] * b[suffix] / b[u]
    return out


def bound_excesses(model: WeightTable) -> tuple[float, float]:
    """Excess of the row sum over 1 and largest excess of a grade row sum.

    The row sum is sum over support words of a_w V_w V_w^*, bounded by
    the identity; the grade-k row sum is bounded by C(k+m-1, m-1).
    """
    row = float(np.max(symbol_row_diagonal(model))) - 1.0
    grade = -np.inf
    for k in range(1, model.N + 1):
        top = float(np.max(grade_row_diagonal(model, k)))
        grade = max(grade, top - binomial_constant(k, model.m))
    return row, grade
