"""Weights attached to words by a positive regular symbol and an order m.

For f = sum_w a_w Z_w the weight of a word w is

    b_w = sum_{j=1..|w|} C(j+m-1, m-1) *
          sum over splittings w = g_1 .. g_j into nonempty words
          of a_{g_1} .. a_{g_j},

with b of the unit equal to 1.  These are exactly the word coefficients
of the formal inverse power (1 - f)^(-m), which is how the independent
oracle computes them.  The weights define the weighted shifts of the
truncated model: they are strictly positive because every letter of the
alphabet carries a strictly positive coefficient.

Two implementations are provided on purpose.  `weights_direct` sums over
factorizations of each word into support words of f (zero-coefficient
factors pruned, per-word terms combined with compensated summation in
graded order).  `weights_oracle` accumulates the truncated powers f^j
with binomial prefactors.  They share nothing but the coefficient lookup,
and the test suite demands relative agreement to 1e-12.
"""

from __future__ import annotations

import math

import numpy as np

from .series import FreeSeries, PositiveRegularFunction
from .words import Letters, WordIndex, _as_letters, enumerate_words


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
    """Weights b_w for all words of length <= N, keyed by word."""

    __slots__ = ("f", "m", "N", "_values")

    def __init__(self, f: PositiveRegularFunction, m: int, N: int, values: dict):
        self.f = f
        self.m = m
        self.N = N
        self._values = values

    def __getitem__(self, word) -> float:
        letters = _as_letters(word, self.f.n)
        try:
            return self._values[letters]
        except KeyError:
            raise KeyError(
                f"word of length {len(letters)} outside table bound N={self.N}"
            ) from None

    def items(self) -> list[tuple[Letters, float]]:
        return sorted(self._values.items(), key=lambda kv: (len(kv[0]), kv[0]))

    def __len__(self) -> int:
        return len(self._values)

    def aligned_values(self, index: WordIndex) -> list[float]:
        """Weights in the order of a word index (index words must be covered)."""
        return [self._values[w] for w in index.words]


def weights_direct(f: PositiveRegularFunction, m: int, N: int) -> WeightTable:
    """Weights by direct summation over support-word factorizations.

    Splittings are enumerated by peeling support words of f off the
    front, so factors with zero coefficient never appear.  For each word
    the contributions are grouped by factor count j, each group summed
    with math.fsum, then combined with the exact binomial constants.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if N < 0:
        raise ValueError(f"N must be >= 0, got {N}")
    index = enumerate_words(f.n, N)
    support = f.support()
    coeff = dict(f.items())
    # counts[w][j] = sum over splittings of w into j support words of the
    # coefficient product; suffixes are strictly shorter, so the graded
    # enumeration order of the index makes this a single forward pass.
    counts: dict[Letters, dict[int, float]] = {(): {0: 1.0}}
    for w in index.words[1:]:
        per_j: dict[int, list[float]] = {}
        for g in support:
            k = len(g)
            if k <= len(w) and w[:k] == g:
                a = coeff[g]
                for j, v in counts[w[k:]].items():
                    per_j.setdefault(j + 1, []).append(a * v)
        counts[w] = {j: math.fsum(terms) for j, terms in sorted(per_j.items())}
    values: dict[Letters, float] = {(): 1.0}
    for w in index.words[1:]:
        values[w] = math.fsum(
            binomial_constant(j, m) * v for j, v in sorted(counts[w].items())
        )
    return WeightTable(f, m, N, values)


def weights_oracle(f: PositiveRegularFunction, m: int, N: int) -> WeightTable:
    """Weights as word coefficients of (1 - f)^(-m), truncated at N.

    Accumulates sum_{j=0..N} C(j+m-1, m-1) f^j by repeated truncated
    series multiplication; powers beyond N cannot contribute because f
    has zero constant term.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if N < 0:
        raise ValueError(f"N must be >= 0, got {N}")
    index = enumerate_words(f.n, N)
    fs = f.as_series(degree=N)
    acc = FreeSeries.constant(1.0, f.n, N)
    power = FreeSeries.constant(1.0, f.n, N)
    for j in range(1, N + 1):
        power = power * fs
        acc = acc + binomial_constant(j, m) * power
    grades = [acc.grade(k)[:, 0, 0].real for k in range(N + 1)]
    return WeightTable(f, m, N, dict(zip(index.words, np.concatenate(grades).tolist())))
