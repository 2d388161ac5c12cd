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
targets of V_w are those runs.  Dense matrices are allocated only after
checking their 16 (dim e)^2 bytes against physical memory:
`monomial_pair` scatters V_alpha V_beta^* from two target arrays, and
`model_monomial` is V_w V_unit^*.  A series sum_w r^|w| V_w (x) C_w
is planned on the model once (`_SeriesPlan`: flat targets and aligned
factors per grade, one dense buffer), and that one plan serves
`evaluate_on_model`, `hardy_norm_estimate` at every radius and the
model images of `rigidity.map_image_check`.  Distinct
columns of V_w land in distinct rows, so the completely positive map
Y -> sum_w a_w V_w Y V_w^* sends diagonal matrices to diagonal matrices
and acts on a diagonal as a sum of scaled index scatters, and the
grade-row sum over |w| = k of b_w V_w V_w^* is a gather: its diagonal
at u is b_{u[:k]} b_{u[k:]} / b_u.

The defining property of the truncation: applying (id - Phi_f)^m to the
identity yields exactly the rank-one projection onto the vacuum vector,
up to floating-point roundoff.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .defaults import physical_memory
from .linalg import operator_norm
from .series import FreeSeries, PositiveRegularFunction
from .weights import WeightTable, binomial_constant, weights_direct
from .words import DimensionCapError, Letters, WordIndex, _as_letters


def _targets(model: WeightTable, word: Letters) -> np.ndarray:
    """Index of wu for the u with |u| <= N - |w|: the first basis vectors, or none."""
    runs = [model.index.shift_block(word, k) for k in range(model.N - len(word) + 1)]
    return np.concatenate([np.arange(0)] + [np.arange(s.start, s.stop) for s in runs])


def _dense_zeros(size: int, what: str) -> np.ndarray:
    """A complex (size, size) zero matrix, refused if it exceeds physical memory."""
    need = 16 * size * size
    have = physical_memory()
    if need > have:
        raise DimensionCapError(
            f"{what} needs a dense {size} x {size} complex matrix of {need} "
            f"bytes, more than the {have} bytes of physical memory"
        )
    return np.zeros((size, size), dtype=complex)


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
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
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


def model_monomial(model: WeightTable, word) -> np.ndarray:
    """Dense matrix of the product V_w (empty word gives the identity)."""
    return monomial_pair(model, word, ())


def monomial_pair(model: WeightTable, alpha, beta) -> np.ndarray:
    """Dense V_alpha V_beta^*, one scatter from the two target arrays.

    For each basis vector e_u kept by both, V_beta^* sends e_{beta u} to
    sqrt(b_u / b_{beta u}) e_u and V_alpha sends that on to
    sqrt(b_u / b_{alpha u}) e_{alpha u}; the weights are real, and every
    other column is zero.  The kept u are the first min(|t_alpha|,
    |t_beta|) basis vectors.
    """
    n, b = model.f.n, model.values
    t_a = _targets(model, _as_letters(alpha, n))
    t_b = _targets(model, _as_letters(beta, n))
    out = _dense_zeros(model.index.dim, "the model operator V_alpha V_beta^*")
    k = min(t_a.size, t_b.size)
    t_a, t_b = t_a[:k], t_b[:k]
    out[t_a, t_b] = np.sqrt(b[:k] / b[t_a]) * np.sqrt(b[:k] / b[t_b])
    return out


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
    vacuum basis vector exactly, which the tests assert entrywise.
    """
    out = _dense_zeros(model.index.dim, "the model defect")
    np.fill_diagonal(out, defect_diagonal(model))
    return out


class _SeriesPlan:
    """sum_w r^|w| V_w (x) C_w for one series on one model, at any r.

    For |w| = k and |u| = L the entry at (wu, u) is r^k sqrt(b_u / b_{wu})
    C_w; over L = 0..N - k the pairs (wu, u) of one grade k form an
    (n^k, dim_{N-k}) grid, with u running over the first dim_{N-k} basis
    vectors.  The plan holds, per nonzero grade, the flat indices of
    those entries in the (dim e)^2 matrix with the coefficient and weight
    factors aligned to them, and one dense buffer, so each r is one
    multiply and one scatter per grade.  No entry is reached twice, and
    every r writes the same entries, so the buffer is refilled in place.
    """

    __slots__ = ("e", "out", "grades")

    def __init__(self, series: FreeSeries, model: WeightTable):
        if series.n != model.f.n:
            raise ValueError(
                f"series over {series.n} letters on a model with {model.f.n} generators"
            )
        if series.degree > model.N:
            raise ValueError(
                f"series degree {series.degree} exceeds model depth {model.N}"
            )
        n, e, b, index = model.f.n, series.coeff_dim, model.values, model.index
        size = index.dim * e
        self.e = e
        self.out = _dense_zeros(size, "a series evaluated on the model")
        self.grades = []
        for k, c in series._nonzero_grades():
            top = model.N - k
            rows = np.hstack([
                np.arange(index.offset(L + k), index.offset(L + k + 1)).reshape(n**k, n**L)
                for L in range(top + 1)
            ])
            cols = np.arange(index.offset(top + 1))
            w = np.sqrt(b[cols] / b[rows])
            if e == 1:
                self.grades.append((k, rows * size + cols, c[:, 0, :], w))
            else:
                # entry (wu, p; u, q) of the matrix, as (n^k, dim_{N-k}, e, e)
                p = np.arange(e)
                flat = ((rows * e)[..., None, None] + p[:, None]) * size
                flat = flat + (cols * e)[:, None, None] + p
                self.grades.append((k, flat, c[:, None], w[..., None, None]))

    def at(self, r: float) -> np.ndarray:
        """The buffer filled at r, in the arithmetic order of a per-word sum:
        (r^k c) w for e = 1, (r^k w) c for e > 1."""
        flat = self.out.reshape(-1)
        for k, target, c, w in self.grades:
            scale = r**k
            vals = (scale * c) * w if self.e == 1 else (scale * w) * c
            vals += 0.0  # -0.0 reads 0.0, as a sum onto the zero matrix gives
            flat[target] = vals
        return self.out


def evaluate_on_model(
    series: FreeSeries, model: WeightTable, r: float = 1.0
) -> np.ndarray:
    """sum_w r^|w| V_w (x) C_w as a dense matrix on C^dim (x) C^e.

    One `_SeriesPlan`, filled once: each grade of the series is one
    scatter.  No entry is reached twice, so the result does not depend
    on the order.
    """
    return _SeriesPlan(series, model).at(r)


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
    The grid must be nondecreasing inside [0, 1).  One plan and one
    dense buffer serve every r.  The model is `build_model(f, m, N,
    weight_table)`, so a table of depth >= N is cut, not summed again.
    """
    grid = [float(r) for r in r_grid]
    if not grid:
        raise ValueError("r_grid must be nonempty")
    for a, b in zip(grid, grid[1:]):
        if b < a:
            raise ValueError("r_grid must be nondecreasing")
    if not all(0.0 <= r < 1.0 for r in grid):
        raise ValueError("r_grid values must lie in [0, 1)")
    plan = _SeriesPlan(series, build_model(f, m, N, weight_table))
    return [operator_norm(plan.at(r)) for r in grid]


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
