"""Truncated weighted creation operators on the full Fock space.

Given a positive regular symbol f, an order m, and a truncation depth N,
the model consists of n operators V_1..V_n on the span of the words of
length <= N:

    V_i e_w = sqrt(b_w / b_{iw}) e_{iw}   for |w| < N,
    V_i e_w = 0                           for |w| = N,

with b the weight table of (f, m).  Every V_i has at most one nonzero
entry per column, and so does any product V_w; the module keeps that
column-map form alongside dense matrices, which it allocates only after
checking their 16 (dim e)^2 bytes against physical memory.  Distinct
columns of V_w land in distinct rows, so the completely positive map
Y -> sum_w a_w V_w Y V_w^* sends diagonal matrices to diagonal matrices
and acts on a diagonal as a sum of scaled index scatters.

V_i sends w to iw, the word with first letter i and suffix w, so the
shifts come from the prefix/suffix arithmetic of `WordIndex`, and the
grade-row sum over |w| = k of b_w V_w V_w^* is a gather with no column
maps: its diagonal at u is b_{u[:k]} b_{u[k:]} / b_u.

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
from .words import (
    DimensionCapError,
    Letters,
    WordIndex,
    _as_letters,
    enumerate_words,
    word_products,
)

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
        dim = index.dim
        self.b = b = weights.aligned_values(index)
        targets = np.full((f.n, dim), -1, dtype=np.int64)
        for length in range(1, N + 1):
            # V_i sends w to the word iw, whose first letter is i and rest w
            first, rest = index.split(length, 1)
            targets[first - 1, rest] = index.grade(length)
        hit = targets >= 0
        wvals = np.zeros((f.n, dim), dtype=float)
        wvals[hit] = np.sqrt((b / b[targets])[hit])
        self._shifts: list[ColumnMap] = list(zip(targets, wvals))
        self._maps: dict[Letters, ColumnMap] = {
            (): (np.arange(dim, dtype=np.int64), np.ones(dim))
        }
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
            mat = map_to_dense(self._shifts[i - 1], self.dim)
            self._dense[i] = mat
        return mat

    @property
    def V(self) -> tuple[np.ndarray, ...]:
        """The dense tuple (V_1, .., V_n)."""
        return tuple(self.creation(i) for i in range(1, self.n + 1))

    def monomial_map(self, word) -> ColumnMap:
        """Column map of the product V_w, memoized over suffixes."""
        letters = _as_letters(word, self.n)
        return word_products([letters], self._shifts, _compose_maps, self._maps)[0]


def _compose_maps(left: ColumnMap, right: ColumnMap) -> ColumnMap:
    """Column map of the product A B from the column maps of A and B."""
    t_left, w_left = left
    t_right, w_right = right
    t = np.where(t_right >= 0, t_left[t_right], -1)
    w = np.where(t >= 0, w_right * w_left[np.clip(t_right, 0, None)], 0.0)
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


def _scatter_diagonal(
    model: TruncatedModel, terms: Iterable[tuple[Letters, float]], y: np.ndarray
) -> np.ndarray:
    """Diagonal of sum c_w V_w diag(y) V_w^* over the (word, c_w) terms."""
    out = np.zeros(model.dim)
    for word, c in terms:
        t, w = model.monomial_map(word)
        cols = np.nonzero(t >= 0)[0]
        # V_w is injective on its columns, so no target repeats within a word
        out[t[cols]] += c * w[cols] ** 2 * y[cols]
    return out


def defect_diagonal(model: TruncatedModel) -> np.ndarray:
    """Diagonal of (id - Phi_f)^m applied to the identity."""
    y = np.ones(model.dim)
    for _ in range(model.m):
        y = y - _scatter_diagonal(model, model.f.items(), y)
    return y


def model_defect(model: TruncatedModel) -> np.ndarray:
    """(id - Phi_f)^m applied to the identity, as a dense diagonal matrix.

    On the truncation this equals the rank-one projection onto the
    vacuum basis vector exactly, which the tests assert entrywise.
    """
    return np.diag(defect_diagonal(model).astype(complex))


def evaluate_on_model(
    series: FreeSeries, model: TruncatedModel, r: float = 1.0
) -> np.ndarray:
    """sum_w r^|w| V_w (x) C_w as a dense matrix on C^dim (x) C^e.

    Accumulation runs grade by grade in lexicographic order, so results
    are reproducible bit-for-bit.
    """
    if series.n != model.n:
        raise ValueError(
            f"series over {series.n} letters on a model with {model.n} generators"
        )
    if series.degree > model.N:
        raise ValueError(
            f"series degree {series.degree} exceeds model depth {model.N}"
        )
    e = series.coeff_dim
    dim = model.dim
    out = _dense_zeros(dim * e, "a series evaluated on the model")
    view = out.reshape(dim, e, dim, e)
    for word, c in series.items():
        t, w = model.monomial_map(word)
        cols = np.nonzero(t >= 0)[0]
        if cols.size == 0:
            continue
        scale = r ** len(word)
        if e == 1:
            out[t[cols], cols] += scale * complex(c[0, 0]) * w[cols]
        else:
            view[t[cols], :, cols, :] += (
                scale * w[cols][:, None, None] * c[None, :, :]
            )
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
    return _scatter_diagonal(model, model.f.items(), np.ones(model.dim))


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
