"""Truncated weighted creation operators on the full Fock space.

Given a positive regular symbol f, an order m, and a truncation depth N,
the model consists of n operators V_1..V_n on the span of the words of
length <= N:

    V_i e_w = sqrt(b_w / b_{iw}) e_{iw}   for |w| < N,
    V_i e_w = 0                           for |w| = N,

with b the weight table of (f, m).  The ratios telescope, so the product
V_w sends e_u to sqrt(b_u / b_{wu}) e_{wu}, and in the graded-lex index
it sends grade L onto one contiguous run of grade L + |w|
(`WordIndex.shift_block`).  Every shift is read off that grading: the
column map (target row per column, weight) of V_w is closed form, and
dense matrices are allocated only after checking their 16 (dim e)^2
bytes against physical memory.  Distinct columns of V_w land in distinct
rows, so the completely positive map Y -> sum_w a_w V_w Y V_w^* sends
diagonal matrices to diagonal matrices and acts on a diagonal as a sum
of scaled index scatters, and the grade-row sum over |w| = k of
b_w V_w V_w^* is a gather: its diagonal at u is b_{u[:k]} b_{u[k:]} / b_u.

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
from .weights import WeightTable, weights_direct
from .words import DimensionCapError, Letters, WordIndex, _as_letters, enumerate_words

ColumnMap = tuple[np.ndarray, np.ndarray]  # (target row per column or -1, weight)


class TruncatedModel:
    """The n-tuple of weighted creation operators truncated at depth N."""

    def __init__(
        self,
        f: PositiveRegularFunction,
        m: int,
        N: int,
        index: WordIndex,
        weights: WeightTable,
    ):
        self.f = f
        self.m = m
        self.N = N
        self.index = index
        self.weights = weights
        self.b = weights.aligned_values(index)
        self._dense: dict[int, np.ndarray] = {}

    @property
    def n(self) -> int:
        return self.f.n

    @property
    def dim(self) -> int:
        return self.index.dim

    def creation(self, i: int) -> np.ndarray:
        """Dense matrix of V_i (1-based index); cached."""
        if not 1 <= i <= self.n:
            raise ValueError(f"generator index {i} outside 1..{self.n}")
        mat = self._dense.get(i)
        if mat is None:
            mat = map_to_dense(self.monomial_map((i,)), self.dim)
            self._dense[i] = mat
        return mat

    @property
    def V(self) -> tuple[np.ndarray, ...]:
        """The dense tuple (V_1, .., V_n)."""
        return tuple(self.creation(i) for i in range(1, self.n + 1))

    def _targets(self, word: Letters) -> np.ndarray:
        """Index of wu for the u with |u| <= N - |w|: the first basis vectors, or none."""
        runs = [self.index.shift_block(word, k) for k in range(self.N - len(word) + 1)]
        return np.concatenate([np.arange(0)] + [np.arange(s.start, s.stop) for s in runs])

    def monomial_map(self, word) -> ColumnMap:
        """Column map of V_w: e_u goes to sqrt(b_u / b_{wu}) e_{wu}, or to 0."""
        hit = self._targets(_as_letters(word, self.n))
        t = np.full(self.dim, -1, dtype=np.int64)
        w = np.zeros(self.dim)
        t[: hit.size] = hit
        w[: hit.size] = np.sqrt(self.b[: hit.size] / self.b[hit])
        return t, w


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


def map_to_dense(column_map: ColumnMap, dim: int) -> np.ndarray:
    t, w = column_map
    mat = _dense_zeros(dim, "a model operator")
    cols = np.nonzero(t >= 0)[0]
    mat[t[cols], cols] = w[cols]
    return mat


def build_model(
    f: PositiveRegularFunction,
    m: int,
    N: int,
    weight_table: WeightTable | None = None,
) -> TruncatedModel:
    """Construct the depth-N model of (f, m).

    Weights come from the direct factorization sum unless a precomputed
    table is supplied (it must cover depth N for the same f and m).
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    index = enumerate_words(f.n, N)
    if weight_table is None:
        weight_table = weights_direct(f, m, N)
    else:
        if weight_table.N < N:
            raise ValueError(
                f"weight table covers N={weight_table.N}, model needs {N}"
            )
        if weight_table.m != m or weight_table.f != f:
            raise ValueError("weight table was built for a different domain")
    return TruncatedModel(f, m, N, index, weight_table)


def model_monomial(model: TruncatedModel, word) -> np.ndarray:
    """Dense matrix of the product V_w (empty word gives the identity)."""
    return map_to_dense(model.monomial_map(word), model.dim)


def monomial_pair(model: TruncatedModel, alpha, beta) -> np.ndarray:
    """Dense V_alpha V_beta^*, one scatter of the two column maps.

    For each basis vector e_u kept by both, V_beta^* sends e_{beta u} to
    w_beta(u) e_u and V_alpha sends that on to w_alpha(u) e_{alpha u}; the
    weights are real, and every other column is zero.
    """
    t_a, w_a = model.monomial_map(alpha)
    t_b, w_b = model.monomial_map(beta)
    out = _dense_zeros(model.dim, "the observable V_alpha V_beta^*")
    u = np.nonzero((t_a >= 0) & (t_b >= 0))[0]
    out[t_a[u], t_b[u]] = w_a[u] * w_b[u]
    return out


def _scatter_terms(
    model: TruncatedModel, terms: Iterable[tuple[Letters, float]]
) -> list[tuple[np.ndarray, np.ndarray]]:
    """(index of wu, c_w b_u / b_{wu}) over the u that V_w keeps, per term.

    V_w diag(y) V_w^* is diagonal, with c_w (b_u / b_{wu}) y_u at wu.
    """
    out = []
    for word, c in terms:
        t = model._targets(word)
        out.append((t, c * model.b[: t.size] / model.b[t]))
    return out


def _scatter_diagonal(terms: list, y: np.ndarray) -> np.ndarray:
    """Diagonal of sum c_w V_w diag(y) V_w^* over `_scatter_terms` output."""
    out = np.zeros(y.size)
    for t, scale in terms:
        # V_w is injective on its columns, so no target repeats within a word
        out[t] += scale * y[: t.size]
    return out


def defect_diagonal(model: TruncatedModel) -> np.ndarray:
    """Diagonal of (id - Phi_f)^m applied to the identity."""
    terms = _scatter_terms(model, model.f.items())
    y = np.ones(model.dim)
    for _ in range(model.m):
        y = y - _scatter_diagonal(terms, y)
    return y


def model_defect(model: TruncatedModel) -> np.ndarray:
    """(id - Phi_f)^m applied to the identity, as a dense diagonal matrix.

    On the truncation this equals the rank-one projection onto the
    vacuum basis vector exactly, which the tests assert entrywise.
    """
    out = _dense_zeros(model.dim, "the model defect")
    np.fill_diagonal(out, defect_diagonal(model))
    return out


def evaluate_on_model(
    series: FreeSeries, model: TruncatedModel, r: float = 1.0
) -> np.ndarray:
    """sum_w r^|w| V_w (x) C_w as a dense matrix on C^dim (x) C^e.

    For |w| = k and |u| = L the entry at (wu, u) is r^k sqrt(b_u / b_{wu})
    C_w, and the pairs (wu, u) of one grade pair (k, L) fill grade L + k
    as an (n^k, n^L) grid, so each grade pair is one scatter.  No entry
    is reached twice, so the result does not depend on the order.
    """
    if series.n != model.n:
        raise ValueError(
            f"series over {series.n} letters on a model with {model.n} generators"
        )
    if series.degree > model.N:
        raise ValueError(
            f"series degree {series.degree} exceeds model depth {model.N}"
        )
    n, e, dim, b = model.n, series.coeff_dim, model.dim, model.b
    index = model.index
    out = _dense_zeros(dim * e, "a series evaluated on the model")
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


def hardy_norm_estimate(
    series: FreeSeries,
    f: PositiveRegularFunction,
    m: int,
    N: int,
    r_grid: Sequence[float],
) -> list[float]:
    """Norms of the series evaluated at the scaled model, r by r.

    Each value is a lower bound for the supremum norm of the series over
    the domain of (f, m); the sequence is nondecreasing in r and in N.
    The grid must be nondecreasing inside [0, 1).
    """
    grid = [float(r) for r in r_grid]
    if not grid:
        raise ValueError("r_grid must be nonempty")
    for a, b in zip(grid, grid[1:]):
        if b < a:
            raise ValueError("r_grid must be nondecreasing")
    if not all(0.0 <= r < 1.0 for r in grid):
        raise ValueError("r_grid values must lie in [0, 1)")
    model = build_model(f, m, N)
    return [operator_norm(evaluate_on_model(series, model, r)) for r in grid]


def symbol_row_diagonal(model: TruncatedModel) -> np.ndarray:
    """Diagonal of sum over support words of a_w V_w V_w^*."""
    return _scatter_diagonal(_scatter_terms(model, model.f.items()), np.ones(model.dim))


def grade_row_diagonal(model: TruncatedModel, k: int) -> np.ndarray:
    """Diagonal of sum over |w| = k of b_w V_w V_w^*.

    V_w V_w^* e_u is (b_{u[k:]} / b_u) e_u if w = u[:k], else 0.  The
    norm is bounded by the binomial constant C(k+m-1, m-1).
    """
    if not 0 <= k <= model.N:
        raise ValueError(f"grade {k} outside 0..{model.N}")
    index, b = model.index, model.b
    out = np.zeros(model.dim)
    for length in range(k, model.N + 1):
        prefix, suffix = index.split(length, k)
        u = slice(index.offset(length), index.offset(length + 1))
        out[u] = b[prefix] * b[suffix] / b[u]
    return out
