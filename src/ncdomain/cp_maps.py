"""Completely positive maps attached to a symbol, and membership tests.

For a symbol f = sum_w a_w Z_w and an n-tuple X of operators on C^d, the
basic object is

    Phi_{f,X}(Y) = sum over |w| >= 1 of a_w X_w Y X_w^*.

An n-tuple belongs to the order-m domain of f when the iterated defects
(id - Phi)^k (I) stay positive semidefinite for k = 1..m.  Everything
here is a finite-dimensional numerical test: defects are symmetrized
before their spectra are read off, and verdicts always carry the
eigenvalue tolerance they were judged against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .defaults import EIGENVALUE_TOL
from .fock_model import TruncatedModel, build_model, monomial_pair
from .linalg import hermitian_eigenvalues, hermitian_part, min_eigenvalue, operator_norm
from .series import PositiveRegularFunction, unit_ball_symbol
from .words import Letters, _as_letters, enumerate_words, word_products


class OperatorTuple:
    """An n-tuple of square matrices acting on a common C^d."""

    __slots__ = ("mats",)

    def __init__(self, mats: Sequence[np.ndarray]):
        fixed = []
        for x in mats:
            a = np.asarray(x, dtype=complex)
            if a.ndim == 0:
                a = a.reshape(1, 1)
            if a.ndim != 2 or a.shape[0] != a.shape[1]:
                raise ValueError("tuple entries must be square matrices")
            fixed.append(a)
        if not fixed:
            raise ValueError("tuple must have at least one entry")
        d = fixed[0].shape[0]
        if any(a.shape[0] != d for a in fixed):
            raise ValueError("tuple entries act on different spaces")
        self.mats = tuple(fixed)

    @property
    def n(self) -> int:
        return len(self.mats)

    @property
    def dim(self) -> int:
        return self.mats[0].shape[0]

    def scaled(self, s: complex) -> "OperatorTuple":
        return OperatorTuple([s * a for a in self.mats])

    def __iter__(self):
        return iter(self.mats)

    def __len__(self) -> int:
        return len(self.mats)

    def __getitem__(self, i: int) -> np.ndarray:
        return self.mats[i]


def as_operator_tuple(x) -> OperatorTuple:
    if isinstance(x, OperatorTuple):
        return x
    if isinstance(x, TruncatedModel):
        return OperatorTuple(x.V)
    return OperatorTuple(list(x))


def monomial_product(x: OperatorTuple | Sequence[np.ndarray], word) -> np.ndarray:
    """X_w = X_{i1} .. X_{ik} for w = (i1, .., ik); identity for the unit."""
    t = as_operator_tuple(x)
    return _monomials(t, [_as_letters(word, t.n)])[0]


def _monomials(t: OperatorTuple, words) -> list[np.ndarray]:
    """X_w for each word, built over shared suffixes."""
    unit = {(): np.eye(t.dim, dtype=complex)}
    return word_products(words, t.mats, np.matmul, unit)


def _support_monomials(
    f: PositiveRegularFunction, t: OperatorTuple
) -> list[tuple[Letters, float, np.ndarray]]:
    items = f.items()
    monos = _monomials(t, [w for w, _ in items])
    return [(w, a, xw) for (w, a), xw in zip(items, monos)]


def _phi(monos: list[tuple[Letters, float, np.ndarray]], y: np.ndarray) -> np.ndarray:
    """sum a_w X_w Y X_w^* over precomputed support monomials."""
    out = np.zeros_like(y)
    for _, a, xw in monos:
        out += a * (xw @ y @ xw.conj().T)
    return out


def apply_phi(
    f: PositiveRegularFunction, x, y: np.ndarray
) -> np.ndarray:
    """Phi_{f,X}(Y) = sum a_w X_w Y X_w^* over the support of f."""
    t = as_operator_tuple(x)
    if t.n != f.n:
        raise ValueError(f"symbol over n={f.n} applied to a {t.n}-tuple")
    y = np.asarray(y, dtype=complex)
    if y.shape != (t.dim, t.dim):
        raise ValueError(f"argument must be {t.dim} x {t.dim}, got {y.shape}")
    return _phi(_support_monomials(f, t), y)


@dataclass(frozen=True)
class DefectSequence:
    """Iterated defects Delta_k = (id - Phi)^k (I) for k = 0..m."""

    deltas: tuple[np.ndarray, ...]
    min_eigenvalues: tuple[float, ...]  # for k = 1..m

    @property
    def order(self) -> int:
        return len(self.deltas) - 1


def defect_sequence(f: PositiveRegularFunction, m: int, x) -> DefectSequence:
    """Compute Delta_0 = I, Delta_k = Delta_{k-1} - Phi(Delta_{k-1}).

    Each iterate is Hermitian-symmetrized before use so roundoff cannot
    leak non-Hermitian parts into the spectra.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    t = as_operator_tuple(x)
    monos = _support_monomials(f, t)
    deltas = [np.eye(t.dim, dtype=complex)]
    mins = []
    for _ in range(m):
        nxt = hermitian_part(deltas[-1] - _phi(monos, deltas[-1]))
        deltas.append(nxt)
        mins.append(min_eigenvalue(nxt))
    return DefectSequence(tuple(deltas), tuple(mins))


@dataclass(frozen=True)
class MembershipVerdict:
    """Outcome of the order-m positivity test for a tuple.

    ``member`` is decided purely by the defect spectra: all minimum
    eigenvalues >= -tolerance.  The row-sum norm check is reported
    alongside (membership implies it, so a failed bound with a member
    verdict signals numerical trouble).
    """

    member: bool
    min_eigenvalues: tuple[float, ...]
    tolerance: float
    row_norm: float
    row_norm_bound: float
    bound_ok: bool


def membership(
    f: PositiveRegularFunction, m: int, x, tol: float = EIGENVALUE_TOL
) -> MembershipVerdict:
    """Decide whether X lies in the order-m domain of f, within tol."""
    t = as_operator_tuple(x)
    seq = defect_sequence(f, m, t)
    member = all(v >= -tol for v in seq.min_eigenvalues)
    row = operator_norm(sum(a @ a.conj().T for a in t.mats))
    bound = 1.0 / f.min_linear_coefficient
    return MembershipVerdict(
        member=member,
        min_eigenvalues=seq.min_eigenvalues,
        tolerance=tol,
        row_norm=row,
        row_norm_bound=bound,
        bound_ok=row <= bound + tol,
    )


def require_member(
    f: PositiveRegularFunction, m: int, t: OperatorTuple, tol: float
) -> None:
    """Raise ValueError unless T passes the order-m membership test."""
    verdict = membership(f, m, t, tol=tol)
    if not verdict.member:
        raise ValueError(
            f"tuple lies outside the order-{m} domain: not a member within "
            f"tolerance; worst defect eigenvalue {min(verdict.min_eigenvalues):.3e}"
        )


@dataclass(frozen=True)
class SpectralRadiusEstimate:
    """Iterates r_k = ||Phi^k(I)||^(1/2k) and the last computed value."""

    values: tuple[float, ...]
    final: float
    overflowed: bool


def spectral_radius_estimate(
    f: PositiveRegularFunction, x, kmax: int = 12
) -> SpectralRadiusEstimate:
    """Estimate the joint spectral radius of X relative to f.

    No extrapolation is applied: the caller sees the raw sequence.
    Overflow is reported, not raised.
    """
    if kmax < 1:
        raise ValueError(f"kmax must be >= 1, got {kmax}")
    t = as_operator_tuple(x)
    monos = _support_monomials(f, t)
    y = np.eye(t.dim, dtype=complex)
    values = []
    overflowed = False
    for k in range(1, kmax + 1):
        y = _phi(monos, y)
        norm = operator_norm(y) if np.all(np.isfinite(y)) else float("inf")
        if not np.isfinite(norm):
            overflowed = True
            values.append(float("inf"))
            break
        values.append(norm ** (1.0 / (2.0 * k)) if norm > 0 else 0.0)
        if norm == 0.0:
            break
    return SpectralRadiusEstimate(tuple(values), values[-1], overflowed)


@dataclass(frozen=True)
class PurityDiagnostics:
    """Decay of ||Phi^k(I)|| plus the numerical rank of I - Phi(I)."""

    norms: tuple[float, ...]
    monotone: bool
    defect_rank: int


def purity_diagnostics(
    f: PositiveRegularFunction, x, kmax: int = 12, tol: float = EIGENVALUE_TOL
) -> PurityDiagnostics:
    """Report whether Phi^k(I) decays to zero (purity of the tuple).

    For tuples with Phi(I) <= I the norm sequence is nonincreasing; the
    flag records whether that held within tol.  The rank counts the
    eigenvalues of I - Phi(I) above tol.
    """
    t = as_operator_tuple(x)
    monos = _support_monomials(f, t)
    y = np.eye(t.dim, dtype=complex)
    norms = []
    prev = 1.0
    monotone = True
    for _ in range(kmax):
        y = _phi(monos, y)
        norm = operator_norm(y)
        if norm > prev + tol:
            monotone = False
        norms.append(norm)
        prev = norm
        if norm == 0.0:
            break
    eye = np.eye(t.dim, dtype=complex)
    first_defect = hermitian_part(eye - _phi(monos, eye))
    rank = int(np.sum(hermitian_eigenvalues(first_defect) > tol))
    return PurityDiagnostics(tuple(norms), monotone, rank)


def agler_consistency(m: int, x) -> float:
    """Deviation between two expansions of the order-m defect for the ball.

    For the symbol q = Z_1 + .. + Z_n,

        (id - Phi_q)^m (I) = sum_{k=0..m} (-1)^k C(m, k) sum_{|w|=k} X_w X_w^*

    holds identically; the return value is the maximum entrywise gap
    between the iterated and the binomial-expanded sides.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    t = as_operator_tuple(x)
    d = t.dim
    linear = _support_monomials(unit_ball_symbol(t.n), t)
    iterated = np.eye(d, dtype=complex)
    for _ in range(m):
        iterated = iterated - _phi(linear, iterated)

    index = enumerate_words(t.n, m)
    monos = _monomials(t, index.words)
    expanded = np.zeros((d, d), dtype=complex)
    for k in range(m + 1):
        grade = np.zeros((d, d), dtype=complex)
        for pos in index.grade(k):
            grade += monos[pos] @ monos[pos].conj().T
        expanded += ((-1) ** k) * math.comb(m, k) * grade
    return float(np.max(np.abs(iterated - expanded)))


@dataclass(frozen=True)
class VonNeumannGap:
    """Norm of a hereditary expression at X vs. at the universal model."""

    lhs: float
    rhs: float


def von_neumann_gap(
    f: PositiveRegularFunction,
    m: int,
    x,
    terms: Sequence[tuple],
    N: int,
    tol: float = EIGENVALUE_TOL,
) -> VonNeumannGap:
    """Compare ||sum X_a X_b^* (x) C|| against the same expression at V.

    ``terms`` is a sequence of (alpha, beta, C) with words alpha, beta of
    length <= N and a common square coefficient C (scalars allowed).  X
    must be a member of the order-m domain of f within tol; then the
    left-hand norm never exceeds the model norm beyond roundoff.
    """
    t = as_operator_tuple(x)
    require_member(f, m, t, tol)
    model = build_model(f, m, N)
    parsed = []
    e = None
    for alpha, beta, c in terms:
        a = _as_letters(alpha, f.n)
        b = _as_letters(beta, f.n)
        if len(a) > N or len(b) > N:
            raise ValueError(
                f"hereditary word length exceeds model depth N={N}"
            )
        cm = np.asarray(c, dtype=complex)
        if cm.ndim == 0:
            cm = cm.reshape(1, 1)
        if e is None:
            e = cm.shape[0]
        if cm.shape != (e, e):
            raise ValueError("hereditary coefficients must share one shape")
        parsed.append((a, b, cm))
    lhs_sum = np.zeros((t.dim * e, t.dim * e), dtype=complex)
    rhs_sum = np.zeros((model.dim * e, model.dim * e), dtype=complex)
    for a, b, cm in parsed:
        xa = monomial_product(t, a) @ monomial_product(t, b).conj().T
        va = monomial_pair(model, a, b)
        lhs_sum += np.kron(xa, cm)
        rhs_sum += np.kron(va, cm)
    return VonNeumannGap(operator_norm(lhs_sum), operator_norm(rhs_sum))


_BISECT_ITERS = 20  # halvings of the bracket around the boundary
_SAFETY = 0.9  # fraction of the boundary radius a sample is pulled to


def _scale_into_domain(
    f: PositiveRegularFunction,
    m: int,
    base: OperatorTuple,
    tol: float,
) -> OperatorTuple:
    """Bisect the ray through base for the boundary, then pull inside.

    Along a ray from the origin membership flips once for the starlike
    domains this package works with, so bisection is justified.
    """
    lo, hi = 0.0, 1.0
    for _ in range(60):
        if not membership(f, m, base.scaled(hi), tol=tol).member:
            break
        lo = hi
        hi *= 2.0
    else:
        raise RuntimeError("could not bracket the domain boundary")
    for _ in range(_BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        if membership(f, m, base.scaled(mid), tol=tol).member:
            lo = mid
        else:
            hi = mid
    return base.scaled(_SAFETY * (lo if lo > 0 else hi))


def sample_member(
    f: PositiveRegularFunction,
    m: int,
    dim: int,
    rng: np.random.Generator,
    tol: float = EIGENVALUE_TOL,
) -> OperatorTuple:
    """Draw a random tuple and scale it into the order-m domain of f.

    A random direction is bisected along its ray to locate the boundary,
    then pulled inside to 0.9 of the boundary radius.
    """
    raw = [
        rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        for _ in range(f.n)
    ]
    base = OperatorTuple(raw)
    return _scale_into_domain(f, m, base, tol)


def sample_nilpotent_member(
    f: PositiveRegularFunction,
    m: int,
    dim: int,
    rng: np.random.Generator,
    tol: float = EIGENVALUE_TOL,
) -> OperatorTuple:
    """Like `sample_member` but strictly upper triangular (jointly nilpotent).

    Products of dim or more factors vanish, so the sampled tuple has
    nilpotency order at most dim.
    """
    raw = []
    for _ in range(f.n):
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        raw.append(np.triu(a, k=1))
    base = OperatorTuple(raw)
    if all(np.max(np.abs(a)) == 0 for a in base.mats):
        raise ValueError("nilpotent sample degenerated to zero; need dim >= 2")
    return _scale_into_domain(f, m, base, tol)
