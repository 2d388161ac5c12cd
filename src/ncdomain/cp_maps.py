"""Completely positive maps attached to a symbol, and membership tests.

For a symbol f = sum_w a_w Z_w and an n-tuple X of operators on C^d, the
basic object is

    Phi_{f,X}(Y) = sum over |w| >= 1 of a_w X_w Y X_w^*.

An n-tuple belongs to the order-m domain of f when the iterated defects
(id - Phi)^k (I) stay positive semidefinite for k = 1..m.  Everything
here is a finite-dimensional numerical test: defects are symmetrized
before their spectra are read off, and verdicts always carry the
eigenvalue tolerance they were judged against.

The support of f at X is three arrays in `f.items()` order (`_support`):
word lengths, coefficients a_w and the stacked monomials X_w.  One Phi
step (`_phi`) forms every a_w X_w Y X_w^* in one batched product and adds
them in support order, bit-identical to a word-by-word sum; the defects,
the radius estimate, the Agler check and the sampler's ray polynomials
all run on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Sequence

import numpy as np

from .defaults import EIGENVALUE_TOL
from .fock_model import build_model, monomial_pair
from .linalg import hermitian_part, min_eigenvalue, operator_norm
from .series import PositiveRegularFunction, unit_ball_symbol
from .words import _as_letters, enumerate_words, word_products

Support = tuple[np.ndarray, np.ndarray, np.ndarray]  # |w| (s,), a_w (s,), X_w (s, d, d)


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
    return OperatorTuple(list(x))


def monomial_product(x: OperatorTuple | Sequence[np.ndarray], word) -> np.ndarray:
    """X_w = X_{i1} .. X_{ik} for w = (i1, .., ik); identity for the unit."""
    t = as_operator_tuple(x)
    unit = {(): np.eye(t.dim, dtype=complex)}
    return word_products([_as_letters(word, t.n)], t.mats, np.matmul, unit)[0]


def _support(f: PositiveRegularFunction, x) -> Support:
    """f's support at X in `f.items()` order; the one check that X has f.n entries.

    X_w comes from `word_products`, one product per suffix, so sparse
    high-degree symbols stay cheap."""
    t = as_operator_tuple(x)
    if t.n != f.n:
        raise ValueError(f"symbol over n={f.n} applied to a {t.n}-tuple")
    words, coeffs = zip(*f.items())
    monos = word_products(words, t.mats, np.matmul, {(): np.eye(t.dim, dtype=complex)})
    return np.array([len(w) for w in words]), np.array(coeffs), np.array(monos)


def _graded_monomials(t: OperatorTuple, N: int) -> np.ndarray:
    """X_w for every |w| <= N in `WordIndex` order, one batched matmul per grade.

    Grade k + 1 is X_i times grade k for each letter i, the product order
    of `word_products`, so the entries agree with it bit for bit.
    """
    d, mats = t.dim, np.array(t.mats)
    grades = [np.eye(d, dtype=complex)[None]]
    for _ in range(N):
        grades.append(np.matmul(mats[:, None], grades[-1][None]).reshape(-1, d, d))
    return np.concatenate(grades)


def _phi(support: Support, y: np.ndarray, part: slice = slice(None)) -> np.ndarray:
    """sum a_w X_w Y X_w^* over the support words in ``part``: the terms come
    from one batched product and are added in support order, so the result
    is bit-identical to a word-by-word sum."""
    a, x = support[1][part], support[2][part]
    terms = a[:, None, None] * (x @ y @ x.conj().swapaxes(1, 2))
    return reduce(np.add, terms, np.zeros_like(y))


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
    return _defect_sequence(_support(f, x), m)


def _defect_sequence(support: Support, m: int) -> DefectSequence:
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    deltas = [np.eye(support[2].shape[-1], dtype=complex)]
    mins = []
    for _ in range(m):
        nxt = hermitian_part(deltas[-1] - _phi(support, deltas[-1]))
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


def require_defects(min_eigenvalues: Sequence[float], m: int, tol: float) -> None:
    """Raise ValueError unless every defect eigenvalue passes the `membership` rule."""
    if not all(v >= -tol for v in min_eigenvalues):
        raise ValueError(
            f"tuple lies outside the order-{m} domain: not a member within "
            f"tolerance; worst defect eigenvalue {min(min_eigenvalues):.3e}"
        )


def require_member(
    f: PositiveRegularFunction, m: int, t: OperatorTuple, tol: float
) -> None:
    """Raise ValueError unless T passes the order-m membership test."""
    require_defects(defect_sequence(f, m, t).min_eigenvalues, m, tol)


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
    with np.errstate(over="ignore", invalid="ignore"):
        support = _support(f, x)
    return _spectral_radius_estimate(support, kmax)


def _spectral_radius_estimate(support: Support, kmax: int) -> SpectralRadiusEstimate:
    """Phi steps up to the first non-finite or zero iterate, then one batched SVD."""
    if kmax < 1:
        raise ValueError(f"kmax must be >= 1, got {kmax}")
    d = support[2].shape[-1]
    iterates, y = [], np.eye(d, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        while len(iterates) < kmax and y.any():
            y = _phi(support, y)
            if not np.all(np.isfinite(y)):
                break
            iterates.append(y)
        norms = np.linalg.svd(np.reshape(iterates, (-1, d, d)), compute_uv=False)[:, 0]
    norms = norms.tolist()
    if not np.all(np.isfinite(y)):  # the last step overflowed
        norms.append(math.inf)
    values = []
    for k, norm in enumerate(norms, start=1):
        values.append(norm ** (1.0 / (2.0 * k)) if norm > 0 else 0.0)
        if math.isinf(norm):
            break
    return SpectralRadiusEstimate(tuple(values), values[-1], math.isinf(values[-1]))


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
    linear = _support(unit_ball_symbol(t.n), t)
    iterated = np.eye(d, dtype=complex)
    for _ in range(m):
        iterated = iterated - _phi(linear, iterated)

    index = enumerate_words(t.n, m)
    monos = _graded_monomials(t, m)
    expanded = np.zeros((d, d), dtype=complex)
    for k in range(m + 1):
        block = monos[index.offset(k) : index.offset(k + 1)]
        terms = block @ block.conj().swapaxes(1, 2)
        grade = reduce(np.add, terms, np.zeros((d, d), dtype=complex))
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
    rhs_sum = np.zeros((model.index.dim * e, model.index.dim * e), dtype=complex)
    for a, b, cm in parsed:
        xa = monomial_product(t, a) @ monomial_product(t, b).conj().T
        va = monomial_pair(model, a, b)
        lhs_sum += np.kron(xa, cm)
        rhs_sum += np.kron(va, cm)
    return VonNeumannGap(operator_norm(lhs_sum), operator_norm(rhs_sum))


_BISECT_ITERS = 20  # halvings of the bracket around the boundary
_SAFETY = 0.9  # fraction of the boundary radius a sample is pulled to


def _ray_defects(
    f: PositiveRegularFunction, m: int, base: OperatorTuple
) -> list[np.ndarray]:
    """Delta_1..Delta_m at sX as matrix polynomials in t = s^2.

    Phi_{sX} = sum_j t^j Phi_j, with Phi_j the part of Phi_{f,X} from the
    support words of length j, so Delta_k has degree at most k deg f.
    Entry k - 1 stacks the coefficients of Delta_k, constant term first.
    """
    support = _support(f, base)
    lengths = support[0]
    parts = [(j, slice(*np.searchsorted(lengths, [j, j + 1]))) for j in np.unique(lengths)]
    prev = np.eye(base.dim, dtype=complex)[None]
    out = []
    for _ in range(m):
        out.append(np.pad(prev, ((0, lengths[-1]), (0, 0), (0, 0))))
        for p, c in enumerate(prev):
            for j, part in parts:
                out[-1][p + j] -= _phi(support, c, part)
        prev = out[-1]
    return out


def _horner(coeffs: np.ndarray, t: float) -> np.ndarray:
    """sum_p t^p coeffs[p]."""
    return reduce(lambda acc, c: c + t * acc, coeffs[-2::-1], coeffs[-1])


def _scale_into_domain(
    f: PositiveRegularFunction,
    m: int,
    base: OperatorTuple,
    tol: float,
) -> OperatorTuple:
    """Bisect the ray through base for the boundary, then pull inside.

    Along a ray from the origin membership flips once for the starlike
    domains this package works with, so bisection is justified.  Each
    step reads the `membership` verdict at sX off `_ray_defects`, built
    once per ray, stopping at the first k below -tol.  A boundary radius
    under 2^-20 is found by up to 60 further halvings, then bisected.
    """
    defects = _ray_defects(f, m, base)

    def inside(s: float) -> bool:
        return all(min_eigenvalue(_horner(c, s * s)) >= -tol for c in defects)

    def bisect(lo: float, hi: float, steps: int) -> tuple[float, float]:
        for _ in range(steps):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if inside(mid) else (lo, mid)
        return lo, hi

    lo, hi = 0.0, 1.0
    for _ in range(60):
        if not inside(hi):
            break
        lo, hi = hi, 2.0 * hi
    else:
        raise RuntimeError("could not bracket the domain boundary")
    lo, hi = bisect(lo, hi, _BISECT_ITERS)
    if lo == 0.0:
        for _ in range(60):
            lo, hi = bisect(lo, hi, 1)
            if lo > 0.0:
                break
        else:
            raise RuntimeError("found no member on the ray near the origin")
        lo, hi = bisect(lo, hi, _BISECT_ITERS)
    return base.scaled(_SAFETY * lo)


def _gaussian_tuple(n: int, dim: int, rng: np.random.Generator) -> list[np.ndarray]:
    """n complex Gaussian dim x dim matrices, real parts drawn first."""
    return [
        rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        for _ in range(n)
    ]


def sample_member(
    f: PositiveRegularFunction,
    m: int,
    dim: int,
    rng: np.random.Generator,
    tol: float = EIGENVALUE_TOL,
) -> OperatorTuple:
    """Draw a random tuple and scale it into the order-m domain of f.

    A random direction is bisected along its ray to locate the boundary,
    then pulled inside to 0.9 of the boundary radius.  The defects along
    the ray form one matrix polynomial per k, so no step calls
    `membership`.
    """
    base = OperatorTuple(_gaussian_tuple(f.n, dim, rng))
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
    base = OperatorTuple([np.triu(a, k=1) for a in _gaussian_tuple(f.n, dim, rng)])
    if all(np.max(np.abs(a)) == 0 for a in base.mats):
        raise ValueError("nilpotent sample degenerated to zero; need dim >= 2")
    return _scale_into_domain(f, m, base, tol)
