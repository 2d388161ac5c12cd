"""Truncated free power series and positive regular symbols.

A free power series over n noncommuting indeterminates is stored grade
by grade: the coefficients of the words of length k form one (n^k, e, e)
complex array in base-n (`WordIndex`) order, so arithmetic is array
arithmetic; word_count(n, degree) is bounded by the basis cap.  Only the
public constructor checks words and finite coefficients.  Every series
carries an explicit truncation degree: arithmetic truncates to the
smaller degree of its operands, and composition with zero-constant-term
arguments is exact up to the common truncation, so no hidden tails ever
enter a computation.

Evaluation sends a series F = sum_w Z_w C_w to sum_w X_w (x) C_w for an
n-tuple X of square matrices (`linalg.as_tuple`), with the operator
factor first in every tensor product.  All accumulations run in graded order (grade by grade,
lexicographic within a grade) so identical inputs reproduce results
bit-for-bit.
"""

from __future__ import annotations

import cmath
from typing import Mapping, Sequence

import numpy as np

from .linalg import as_tuple, kron
from .words import (
    Letters,
    _as_letters,
    capped_word_count,
    grade_letters,
    word_num,
    word_products,
    word_text,
)


class ShapeMismatchError(ValueError):
    """Operands disagree on letter count or coefficient dimension."""


class CompositionError(ValueError):
    """Composition argument violates the zero-constant-term requirement."""


class RegularityError(ValueError):
    """A symbol fails positivity/regularity validation."""


def _grade_key(item: tuple[Letters, object]) -> tuple[int, Letters]:
    return (len(item[0]), item[0])


def _zero_grades(n: int, degree: int, e: int) -> list[np.ndarray]:
    """Zero coefficient arrays for grades 0..degree, refused above the cap."""
    capped_word_count(n, degree, "series")
    return [np.zeros((n**k, e, e), dtype=complex) for k in range(degree + 1)]


def _coefficient(value, e: int, letters: Letters) -> np.ndarray:
    """A user-supplied coefficient as a finite (e, e) complex matrix."""
    mat = np.asarray(value, dtype=complex)
    if not np.all(np.isfinite(mat)):
        raise ValueError(f"coefficient for word {word_text(letters)!r} is not finite")
    if mat.ndim == 0:
        mat = mat.reshape(1, 1) * np.eye(e)
    if mat.shape != (e, e):
        raise ShapeMismatchError(
            f"coefficient for word {word_text(letters)!r} has shape "
            f"{mat.shape}, expected ({e}, {e})"
        )
    return mat


class FreeSeries:
    """A degree-truncated free power series with (e x e) matrix coefficients.

    Row num(u) of grade len(u) holds the coefficient of the word u.
    """

    __slots__ = ("n", "degree", "coeff_dim", "_grades")

    def __init__(
        self,
        n: int,
        degree: int,
        coeffs: Mapping | None = None,
        coeff_dim: int = 1,
    ):
        if n < 1:
            raise ValueError(f"need at least one generator, got n={n}")
        if degree < 0:
            raise ValueError(f"degree must be >= 0, got {degree}")
        if coeff_dim < 1:
            raise ValueError(f"coeff_dim must be >= 1, got {coeff_dim}")
        grades = _zero_grades(n, degree, coeff_dim)
        for key, value in (coeffs or {}).items():
            letters = _as_letters(key, n)
            if len(letters) > degree:
                raise ValueError(
                    f"word of length {len(letters)} exceeds degree {degree}"
                )
            mat = _coefficient(value, coeff_dim, letters)
            grades[len(letters)][word_num(letters, n)] += mat
        self.n, self.degree, self.coeff_dim, self._grades = n, degree, coeff_dim, grades

    # -- constructors ------------------------------------------------

    @classmethod
    def _from_grades(cls, n: int, e: int, grades: list[np.ndarray]) -> "FreeSeries":
        """Wrap grade arrays the package built itself, without validation."""
        out = cls.__new__(cls)
        out.n, out.degree, out.coeff_dim, out._grades = n, len(grades) - 1, e, grades
        return out

    @classmethod
    def constant(cls, value, n: int, degree: int, coeff_dim: int = 1) -> "FreeSeries":
        mat = np.asarray(value, dtype=complex)
        e = coeff_dim if mat.ndim == 0 else max(coeff_dim, mat.shape[0])
        grades = _zero_grades(n, degree, e)
        grades[0][0] = _coefficient(mat, e, ())
        return cls._from_grades(n, e, grades)

    # -- access ------------------------------------------------------

    def coeff(self, word) -> np.ndarray:
        letters = _as_letters(word, self.n)
        if len(letters) > self.degree:
            return np.zeros((self.coeff_dim, self.coeff_dim), dtype=complex)
        return self._grades[len(letters)][word_num(letters, self.n)].copy()

    def grade(self, k: int) -> np.ndarray:
        """Coefficients of all words of length k, shape (n^k, e, e); a copy."""
        if not 0 <= k <= self.degree:
            raise ValueError(f"grade {k} outside 0..{self.degree}")
        return self._grades[k].copy()

    def grade_items(self, k: int) -> list[tuple[Letters, np.ndarray]]:
        """Nonzero (word, coefficient) pairs of length k in lexicographic order."""
        if not 0 <= k <= self.degree:
            return []
        g = self._grades[k]
        nums = np.flatnonzero(g.reshape(len(g), -1).any(axis=1))
        return list(zip(grade_letters(self.n, k, nums), g[nums]))

    def items(self) -> list[tuple[Letters, np.ndarray]]:
        """Nonzero (word, coefficient) pairs in graded-lex order."""
        return [item for k in range(self.degree + 1) for item in self.grade_items(k)]

    def support(self) -> list[Letters]:
        return [w for w, _ in self.items()]

    def _nonzero_grades(self) -> list[tuple[int, np.ndarray]]:
        return [(k, g) for k, g in enumerate(self._grades) if g.any()]

    # -- arithmetic ----------------------------------------------------

    def _check_compatible(self, other: "FreeSeries") -> None:
        if self.n != other.n:
            raise ShapeMismatchError(
                f"series over n={self.n} and n={other.n} generators"
            )
        if self.coeff_dim != other.coeff_dim:
            raise ShapeMismatchError(
                f"coefficient dimensions {self.coeff_dim} and {other.coeff_dim}"
            )

    def __add__(self, other: "FreeSeries") -> "FreeSeries":
        self._check_compatible(other)
        grades = [a + b for a, b in zip(self._grades, other._grades)]
        return FreeSeries._from_grades(self.n, self.coeff_dim, grades)

    def __neg__(self) -> "FreeSeries":
        return self.scale(-1.0)

    def __sub__(self, other: "FreeSeries") -> "FreeSeries":
        return self + (-other)

    def scale(self, scalar: complex) -> "FreeSeries":
        grades = [scalar * g for g in self._grades]
        return FreeSeries._from_grades(self.n, self.coeff_dim, grades)

    def __rmul__(self, scalar) -> "FreeSeries":
        return self.scale(complex(scalar))

    def __mul__(self, other) -> "FreeSeries":
        if isinstance(other, FreeSeries):
            return multiply(self, other)
        return self.scale(complex(other))

    def truncated(self, degree: int) -> "FreeSeries":
        grades = _zero_grades(self.n, degree, self.coeff_dim)
        kept = min(degree, self.degree) + 1
        grades[:kept] = self._grades[:kept]
        return FreeSeries._from_grades(self.n, self.coeff_dim, grades)


def multiply(left: FreeSeries, right: FreeSeries) -> FreeSeries:
    """Product with (FG)_w = sum over splittings w = u v of F_u G_v.

    Truncates to the smaller of the operand degrees.  Grade pairs are
    taken in ascending |u|, so every coefficient sums its splittings in
    ascending length of the left factor.
    """
    left._check_compatible(right)
    degree = min(left.degree, right.degree)
    e = left.coeff_dim
    grades = _zero_grades(left.n, degree, e)
    right_grades = right._nonzero_grades()
    for ku, a in left._nonzero_grades():
        for kv, b in right_grades:
            if ku + kv > degree:
                break
            # row num(u) * n^kv + num(v) of grade ku + kv is the word uv
            term = a[:, None] * b[None, :] if e == 1 else a[:, None] @ b[None, :]
            grades[ku + kv] += term.reshape(-1, e, e)
    return FreeSeries._from_grades(left.n, e, grades)


def compose(outer: FreeSeries, inner: Sequence[FreeSeries]) -> FreeSeries:
    """Substitute the tuple ``inner`` for the generators of ``outer``.

    Every inner series must have zero constant term; then the monomials
    of ``outer`` of length k contribute only in degrees >= k, and the
    result is exact up to the common truncation degree of the inner
    tuple.  Coefficients combine as kron(inner-product coefficient,
    outer coefficient), operator factor first.
    """
    inner = list(inner)
    if len(inner) != outer.n:
        raise ShapeMismatchError(
            f"outer series has {outer.n} letters but {len(inner)} arguments given"
        )
    if not inner:
        raise ShapeMismatchError("composition needs at least one inner series")
    n = inner[0].n
    e_in = inner[0].coeff_dim
    for j, phi in enumerate(inner, start=1):
        if phi.n != n or phi.coeff_dim != e_in:
            raise ShapeMismatchError(
                f"inner series {j} has (n={phi.n}, e={phi.coeff_dim}), "
                f"expected (n={n}, e={e_in})"
            )
        if phi._grades[0].any():
            raise CompositionError(
                f"inner series {j} has a nonzero constant term"
            )
    degree = min(phi.degree for phi in inner)
    e_out = e_in * outer.coeff_dim
    grades = _zero_grades(n, degree, e_out)
    terms = [item for k in range(degree + 1) for item in outer.grade_items(k)]
    unit = {(): FreeSeries.constant(np.eye(e_in), n, degree, e_in)}
    products = word_products([beta for beta, _ in terms], inner, multiply, unit)
    for (_, c), phi_beta in zip(terms, products):
        for k, a in phi_beta._nonzero_grades():
            # batched kron(a_w, c): entry (i e_o + p, j e_o + q) is a_ij c_pq
            term = a[:, :, None, :, None] * c[None, None, :, None, :]
            grades[k] += term.reshape(-1, e_out, e_out)
    return FreeSeries._from_grades(n, e_out, grades)


def evaluate(series: FreeSeries, point) -> np.ndarray:
    """Evaluate sum_w X_w (x) C_w at an n-tuple of square matrices.

    The point is read by `linalg.as_tuple`; only its arity is checked
    here.  The result acts on C^d (x) C^e with the operator factor first.
    Terms are accumulated grade by grade in lexicographic order.
    """
    mats = as_tuple(point)
    if len(mats) != series.n:
        raise ShapeMismatchError(
            f"series over {series.n} letters evaluated at a {len(mats)}-tuple"
        )
    d = mats.shape[-1]
    e = series.coeff_dim
    out = np.zeros((d * e, d * e), dtype=complex)
    items = series.items()
    unit = {(): np.eye(d, dtype=complex)}
    monomials = word_products([w for w, _ in items], mats, np.matmul, unit)
    for (_, c), x_w in zip(items, monomials):
        if e == 1:
            out += complex(c[0, 0]) * x_w
        else:
            out += kron(x_w, c)
    return out


def nested_evaluation_gap(
    outer: FreeSeries,
    inner: Sequence[FreeSeries],
    composed: FreeSeries,
    x: Sequence[np.ndarray],
) -> float:
    """Gap between ``composed`` and nested evaluation of outer at inner, at x.

    The entrywise gap of evaluate(composed, x) to evaluate(outer,
    [evaluate(s, x) for s in inner]), relative to the larger of 1 and the
    largest entry of the nested value.
    """
    lhs = evaluate(composed, x)
    rhs = evaluate(outer, [evaluate(s, x) for s in inner])
    scale = max(1.0, float(np.max(np.abs(rhs))))
    return float(np.max(np.abs(lhs - rhs))) / scale


class PositiveRegularFunction:
    """A symbol f = sum_w a_w Z_w defining an operator domain.

    Coefficients are real with a_empty = 0, a_w >= 0 everywhere, and
    every degree-one coefficient strictly positive.  Validation failures
    raise RegularityError naming the offending coefficient.
    """

    __slots__ = ("n", "degree", "_coeffs")

    def __init__(self, n: int, coeffs: Mapping):
        if n < 1:
            raise ValueError(f"need at least one generator, got n={n}")
        store: dict[Letters, float] = {}
        for key, value in coeffs.items():
            letters = _as_letters(key, n)
            cval = complex(value)
            if not cmath.isfinite(cval):
                raise RegularityError(
                    f"coefficient of word {word_text(letters)!r} is not finite"
                )
            if cval.imag != 0:
                raise RegularityError(
                    f"coefficient of word {word_text(letters)!r} must be real"
                )
            a = float(cval.real)
            if not letters:
                if a != 0.0:
                    raise RegularityError("constant term must vanish")
                continue
            if a < 0.0:
                raise RegularityError(
                    f"coefficient of word {word_text(letters)!r} must be "
                    f"nonnegative, got {a}"
                )
            if a != 0.0:
                store[letters] = store.get(letters, 0.0) + a
        for i in range(1, n + 1):
            if store.get((i,), 0.0) <= 0.0:
                raise RegularityError(
                    f"linear coefficient of generator {i} must be strictly positive"
                )
        self.n = n
        self._coeffs = store
        self.degree = max(len(w) for w in store)

    def coefficient(self, word) -> float:
        return self._coeffs.get(_as_letters(word, self.n), 0.0)

    def items(self) -> list[tuple[Letters, float]]:
        return sorted(self._coeffs.items(), key=_grade_key)

    def support(self) -> list[Letters]:
        return [w for w, _ in self.items()]

    @property
    def min_linear_coefficient(self) -> float:
        return min(self._coeffs[(i,)] for i in range(1, self.n + 1))

    def as_series(self, degree: int | None = None) -> FreeSeries:
        """The symbol as a scalar series truncated at ``degree`` (default: its own).

        The coefficients were checked on construction, so they are
        written straight into the grades.
        """
        deg = self.degree if degree is None else degree
        if deg < 0:
            raise ValueError(f"degree must be >= 0, got {deg}")
        grades = _zero_grades(self.n, deg, 1)
        for w, a in self._coeffs.items():
            if len(w) <= deg:
                grades[len(w)][word_num(w, self.n)] = a
        return FreeSeries._from_grades(self.n, 1, grades)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PositiveRegularFunction)
            and self.n == other.n
            and self._coeffs == other._coeffs
        )

    def __hash__(self) -> int:
        return hash((self.n, tuple(sorted(self._coeffs.items()))))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        terms = " + ".join(
            f"{a:g}*Z[{word_text(w)}]" for w, a in self.items()
        )
        return f"PositiveRegularFunction(n={self.n}, {terms})"


def unit_ball_symbol(n: int) -> PositiveRegularFunction:
    """The symbol Z_1 + .. + Z_n whose domain is the closed operator ball."""
    return PositiveRegularFunction(n, {(i,): 1.0 for i in range(1, n + 1)})


def rescale_symbol(
    f: PositiveRegularFunction, scales: Sequence[float]
) -> PositiveRegularFunction:
    """Coefficient rescaling a_w -> a_w / prod(c_i^2 over letters of w).

    This is the symbol whose domain the coordinate scaling
    X -> (c_1 X_1, .., c_n X_n) maps onto the domain of f.
    """
    c = [float(x) for x in scales]
    if len(c) != f.n:
        raise ShapeMismatchError(f"expected {f.n} scales, got {len(c)}")
    if any(x <= 0 for x in c):
        raise ValueError("scales must be strictly positive")
    out = {}
    for w, a in f.items():
        factor = 1.0
        for i in w:
            factor *= c[i - 1] * c[i - 1]
        out[w] = a / factor
    return PositiveRegularFunction(f.n, out)
