"""Weights attached to words by a positive regular symbol and an order m.

For f = sum_w a_w Z_w the weight of a word w is

    b_w = sum_{j=1..|w|} C(j+m-1, m-1) *
          sum over splittings w = g_1 .. g_j into nonempty words
          of a_{g_1} .. a_{g_j},

with b of the unit equal to 1.  These are exactly the word coefficients
of the formal inverse power (1 - f)^(-m), which is how the independent
oracle computes them: it solves (1 - f)^m B = 1.  The weights define
the weighted shifts of the truncated model, so a depth-N `WeightTable`
is the depth-N model (`fock_model.build_model` returns one).  They are
strictly positive because every letter of the alphabet carries a
strictly positive coefficient.

Two implementations are provided on purpose.  `weights_direct` sums over
factorizations of each word into support words of f, peeled off the
front, so factors with zero coefficient never appear.  In graded-lex
order the words of length L that start with a support word g form one
contiguous block of the index, whose suffixes are grade L - |g| in
order, so the sum is one vector add per (grade, support word).
`weights_oracle` solves (1 - f)^m B = 1 by m right inversions of
(1 - f), grade by grade, peeling support words off the back of each
word in the row order of `series.multiply`; it uses no binomial
coefficient, so it checks the binomials of `weights_direct` too.  The
two share only the coefficient lookup and the base-n row convention,
and the test suite demands relative agreement to 1e-12.

`weights_direct` remembers its last values array
(`functools.lru_cache(maxsize=1)` on `_direct_values`): a call with the
(f, m, N) of the previous call, f equal by value, shares its read-only
values array instead of summing again, and a call that raises keeps the
old entry.  `weights_oracle` is never memoized, so the oracle check
stays genuine.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache

import numpy as np

from .series import PositiveRegularFunction
from .words import Letters, WordIndex, word_num


def binomial_constant(k: int, m: int) -> int:
    """C(k + m - 1, m - 1), the grade-k norm constant of order m.

    Exact for all arguments (arbitrary-precision integers).
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    return math.comb(k + m - 1, m - 1)


class WeightTable:
    """Weights b_w for all words of length <= N, one array in `WordIndex` order.

    ``values`` is read-only; ``index`` is the word index of depth N.  The
    table is also the depth-N model of (f, m): V_w e_u is
    sqrt(b_u / b_{wu}) e_{wu}.
    """

    __slots__ = ("f", "m", "N", "index", "values")

    def __init__(self, f: PositiveRegularFunction, m: int, index: WordIndex, values):
        values.flags.writeable = False
        self.f, self.m, self.N = f, m, index.max_length
        self.index, self.values = index, values

    def __getitem__(self, word) -> float:
        return float(self.values[self.index.index_of(word)])

    def items(self) -> list[tuple[Letters, float]]:
        return list(zip(self.index.words, self.values.tolist()))

    def __len__(self) -> int:
        return self.index.dim

    def aligned_values(self, index: WordIndex) -> np.ndarray:
        """Weights in the order of a word index: a read-only prefix of ``values``."""
        if index.n != self.f.n:
            raise ValueError(f"index over n={index.n} letters, table over n={self.f.n}")
        if index.max_length > self.N:
            raise KeyError(
                f"index of depth {index.max_length} outside table bound N={self.N}"
            )
        return self.values[: index.dim]


def weights_direct(f: PositiveRegularFunction, m: int, N: int) -> WeightTable:
    """Weights by direct summation over support-word factorizations.

    m, N and the basis cap are checked on every call, before the cache
    lookup, and every call gets its own table and word index.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if N < 0:
        raise ValueError(f"N must be >= 0, got {N}")
    m, N = operator.index(m), operator.index(N)
    index = WordIndex(f.n, N)  # the basis cap is checked before any lookup
    return WeightTable(f, m, index, _direct_values(f, m, N))


@lru_cache(maxsize=1)
def _direct_values(f: PositiveRegularFunction, m: int, N: int) -> np.ndarray:
    """The sum behind `weights_direct`, cached for the last (f, m, N).

    Row j of c[L] holds, for every word of grade L, the sum over its
    splittings into j support words of the coefficient products.  The
    words of grade L that start with g (|g| = k) are the columns
    num(g) n^(L-k) onward, n^(L-k) of them, and their suffixes are grade
    L - k in order, so peeling g adds a_g c[L-k] into rows 1.. of that
    block.  Grade L of the table is sum_j C(j+m-1, m-1) c[L][j].  A grade
    is read only by the next f.degree grades, so older ones are dropped
    (for n = 1, c would otherwise hold N^2 / 2 numbers).
    """
    n = f.n
    support = [(len(g), word_num(g, n), a) for g, a in f.items()]
    binom = np.array([float(binomial_constant(j, m)) for j in range(N + 1)])
    c = [np.ones((1, 1))]
    values = [np.ones(1)]
    for length in range(1, N + 1):
        grade = np.zeros((length + 1, n**length))
        for k, num, a in support:
            if k > length:
                break
            rest = n ** (length - k)
            grade[1 : length - k + 2, num * rest : (num + 1) * rest] += a * c[length - k]
        values.append((binom[: length + 1, None] * grade).sum(axis=0))
        c.append(grade)
        if length >= f.degree:
            c[length - f.degree] = None
    return np.concatenate(values)


def oracle_gap(direct: WeightTable, oracle: WeightTable) -> float:
    """Largest relative difference of a table to its oracle, word by word."""
    return float(np.max(np.abs(direct.values - oracle.values) / oracle.values))


def weights_oracle(f: PositiveRegularFunction, m: int, N: int) -> WeightTable:
    """Weights as word coefficients of (1 - f)^(-m), truncated at N.

    Solves (1 - f)^m B = 1 by m right inversions: X_0 = 1 and
    X_j (1 - f) = X_{j-1}, that is X_j = X_{j-1} + X_j f, so B = X_m.
    Grade K of X_j f adds X_j[K - k] (x) f_k for each nonzero grade k of
    ``f.as_series()``, in the row order of `series.multiply`: the word uv
    with |v| = k sits at row num(u) n^k + num(v), so support words come
    off the back of each word.  Grade K of X_j reads only lower grades
    of X_j and grade K of X_{j-1}, so each inversion updates one array in
    place, grade by grade from the unit up.  No binomial coefficient is
    used.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if N < 0:
        raise ValueError(f"N must be >= 0, got {N}")
    m, N = operator.index(m), operator.index(N)
    index = WordIndex(f.n, N)  # the basis cap is checked before any allocation
    support = [(k, g[:, 0, 0].real) for k, g in f.as_series()._nonzero_grades()]
    start = [index.offset(K) for K in range(N + 2)]
    x = np.zeros(index.dim)
    x[0] = 1.0
    for _ in range(m):
        for K in range(1, N + 1):
            for k, a in support:
                if k > K:
                    break
                # row num(u) n^k + num(v) of grade K is the word uv
                block = x[start[K] : start[K + 1]].reshape(-1, a.size)
                block += x[start[K - k] : start[K - k + 1], None] * a
    return WeightTable(f, m, index, x)
