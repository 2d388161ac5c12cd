"""Completely positive maps attached to a symbol, and membership tests.

For a symbol f = sum_w a_w Z_w and an n-tuple X of operators on C^d,
read as one complex (n, d, d) array (`linalg.as_tuple`, the form the
samplers return), the basic object is

    Phi_{f,X}(Y) = sum over |w| >= 1 of a_w X_w Y X_w^*.

An n-tuple belongs to the order-m domain of f when the iterated defects
(id - Phi)^k (I) stay positive semidefinite for k = 1..m.  Everything
here is a finite-dimensional numerical test: defects are symmetrized
before their spectra are read off, and verdicts always carry the
eigenvalue tolerance they were judged against.

The support of f at X is three arrays in `f.items()` order (`_support`):
word lengths, coefficients a_w and the stacked monomials X_w.  One Phi
step (`_phi`) maps one Y or a stack of them: it forms every a_w X_w Y X_w^*
in one batched product and adds them in support order, bit-identical to a
word-by-word sum; the defects, the radius estimate, the Agler check and
the sampler's ray polynomials all run on it.

The sampler bisects a ray sX for the domain boundary until the bracket
[lo, hi] has hi - lo <= 2^-7 lo, and returns 0.9 lo X.  Along the ray
the defects Delta_1..Delta_m are matrix polynomials in t = s^2, built once
per ray as one Hermitian (P, m, d, d) stack of coefficients
(`_ray_coefficients`, one Phi step per k and support grade); each probe
of the bisection is one in-place Horner pass over that stack and one
eigensolve of the m defects it gives (`_ray_inside`).

The support and the defects of (f, m, X), with the root of Delta_m once
a Berezin form asks for it, are one `PointState`, which
`_point_state` returns.  The last one is cached by value
(`functools.lru_cache(maxsize=1)` on `_cached_point`, keyed by f, m, d
and the bytes of X), so `membership`, `von_neumann_gap` and both Berezin
forms at one point build it once; its arrays are read-only and shared.
The layers that need a member call `PointState.require_member`, which
raises on the tuples `membership` calls non-members.  The order m passes
one gate, `weights._require_order`.  The model side of `von_neumann_gap`
is one `fock_model._hereditary_sum`.

Overflow has one policy, kept in `linalg`: the support, the Phi step, the
defect recursion, `membership`, `agler_consistency`, the sampler's
bisection and the grade blocks of `rigidity` run with numpy's overflow and
invalid-value warnings off (`_nonfinite_ok`), and their non-finite results
are read as verdicts instead: a non-finite defect has least eigenvalue
-inf (`least_eigenvalues`; a probe reads it as outside), a non-finite row
sum has norm inf (`operator_norm`), a non-finite Agler gap is inf, and the
radius estimate stops at the first non-finite iterate.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Sequence

import numpy as np

from .defaults import EIGENVALUE_TOL
from .fock_model import _hereditary_sum, build_model
from .linalg import (
    _gaussian_tuple, _nonfinite_ok, as_tuple, hermitian_part, kron, least_eigenvalues,
    operator_norm, psd_root,
)
from .series import PositiveRegularFunction, unit_ball_symbol
from .weights import _require_order
from .words import WordIndex, _as_letters, word_products

Support = tuple[np.ndarray, np.ndarray, np.ndarray]  # |w| (s,), a_w (s,), X_w (s, d, d)


def monomial_product(x, word) -> np.ndarray:
    """X_w = X_{i1} .. X_{ik} for w = (i1, .., ik); identity for the unit."""
    t = as_tuple(x)
    unit = {(): np.eye(t.shape[-1], dtype=complex)}
    return word_products([_as_letters(word, len(t))], t, np.matmul, unit)[0]


def _require_arity(f: PositiveRegularFunction, t: np.ndarray) -> None:
    if len(t) != f.n:
        raise ValueError(f"symbol over n={f.n} applied to a {len(t)}-tuple")


@_nonfinite_ok
def _support(f: PositiveRegularFunction, x) -> Support:
    """f's support at X in `f.items()` order.

    X_w comes from `word_products`, one product per suffix, so sparse
    high-degree symbols stay cheap."""
    t = as_tuple(x)
    _require_arity(f, t)
    words, coeffs = zip(*f.items())
    monos = word_products(words, t, np.matmul, {(): np.eye(t.shape[-1], dtype=complex)})
    return np.array([len(w) for w in words]), np.array(coeffs), np.array(monos)


def _graded_monomials(t: np.ndarray, N: int) -> np.ndarray:
    """X_w for every |w| <= N in `WordIndex` order, one batched matmul per grade.

    Grade k + 1 is X_i times grade k for each letter i, the product order
    of `word_products`, so the entries agree with it bit for bit.
    """
    d = t.shape[-1]
    grades = [np.eye(d, dtype=complex)[None]]
    for _ in range(N):
        grades.append(np.matmul(t[:, None], grades[-1][None]).reshape(-1, d, d))
    return np.concatenate(grades)


@_nonfinite_ok
def _phi(support: Support, y: np.ndarray, part: slice = slice(None)) -> np.ndarray:
    """sum a_w X_w Y X_w^* over the support words in ``part``, for one Y of
    shape (d, d) or each Y of a (P, d, d) stack: the terms come from one
    batched product and are added in support order, so every result is
    bit-identical to a word-by-word sum."""
    a, x = support[1][part], support[2][part]
    x = x.reshape(len(x), *(1,) * (y.ndim - 2), *x.shape[1:])  # word axis before Y's stack axis
    terms = a.reshape(x.shape[:-2] + (1, 1)) * (x @ y @ x.conj().swapaxes(-1, -2))
    return reduce(np.add, terms, np.zeros_like(y))


class PointState:
    """The support of f at one tuple X and its defects for order m.

    ``support`` is `_support` at X; ``deltas`` are Delta_0 = I and
    Delta_k = Delta_{k-1} - Phi(Delta_{k-1}) for k = 1..m, each
    Hermitian-symmetrized so roundoff cannot leak non-Hermitian parts into
    the spectra; ``min_eigenvalues`` are their least eigenvalues for
    k = 1..m from one `least_eigenvalues` call, -inf for a non-finite
    Delta_k.  `root` gives (root, clipped) of Delta_m from `psd_root`,
    computed on first request.  Every array is read-only.
    """

    __slots__ = ("support", "deltas", "min_eigenvalues", "_root")

    @_nonfinite_ok
    def __init__(self, support: Support, m: int):
        deltas = [np.eye(support[2].shape[-1], dtype=complex)]
        for _ in range(m):
            deltas.append(hermitian_part(deltas[-1] - _phi(support, deltas[-1])))
        for a in (*support, *deltas):
            a.setflags(write=False)
        self.support, self.deltas, self._root = support, tuple(deltas), None
        self.min_eigenvalues = tuple(least_eigenvalues(deltas[1:]).tolist())

    @property
    def order(self) -> int:
        return len(self.deltas) - 1

    def require_member(self, tol: float) -> None:
        """Raise ValueError unless every Delta_k passes the `membership` rule."""
        if not all(v >= -tol for v in self.min_eigenvalues):
            raise ValueError(
                f"tuple lies outside the order-{self.order} domain: not a member "
                f"within tolerance; worst defect eigenvalue "
                f"{min(self.min_eigenvalues):.3e}"
            )

    def root(self) -> tuple[np.ndarray, np.ndarray]:
        if self._root is None:
            self._root = psd_root(self.deltas[-1])
            for a in self._root:
                a.setflags(write=False)
        return self._root


def _point_state(f: PositiveRegularFunction, m: int, x) -> PointState:
    """The `PointState` of f at X for order m, cached for the last key.

    The key is f, m, d and the bytes of X, so an equal symbol built anew
    hits and a matrix changed in place misses.  The arity of X and m are
    checked on every call, before the lookup.
    """
    t = as_tuple(x)
    _require_arity(f, t)
    m = _require_order(m)
    return _cached_point(f, m, t.shape[-1], t.tobytes())


@lru_cache(maxsize=1)
def _cached_point(f: PositiveRegularFunction, m: int, d: int, data: bytes) -> PointState:
    """X rebuilt from its bytes, so the arguments are exactly the key."""
    x = np.frombuffer(data, complex).reshape(-1, d, d)
    return PointState(_support(f, x), m)


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


@_nonfinite_ok
def membership(
    f: PositiveRegularFunction, m: int, x, tol: float = EIGENVALUE_TOL
) -> MembershipVerdict:
    """Decide whether X lies in the order-m domain of f, within tol."""
    t = as_tuple(x)
    state = _point_state(f, m, t)
    member = all(v >= -tol for v in state.min_eigenvalues)
    row = operator_norm(sum(a @ a.conj().T for a in t))
    bound = 1.0 / f.min_linear_coefficient
    return MembershipVerdict(
        member=member,
        min_eigenvalues=state.min_eigenvalues,
        tolerance=tol,
        row_norm=row,
        row_norm_bound=bound,
        bound_ok=row <= bound + tol,
    )


@dataclass(frozen=True)
class SpectralRadiusEstimate:
    """Iterates r_k = ||Phi^k(I)||^(1/2k) and the last computed value."""

    values: tuple[float, ...]
    final: float
    overflowed: bool


_RADIUS_STEPS = 12  # Phi steps of a radius estimate unless the caller says


def _radius_estimate(support: Support, kmax: int = _RADIUS_STEPS) -> SpectralRadiusEstimate:
    """Estimate the joint spectral radius of X relative to f from f's
    support at X, such as the one a `PointState` holds.

    Phi steps run up to the first non-finite or zero iterate, then one
    batched SVD gives every norm.  No extrapolation is applied: the
    caller sees the raw sequence.  Overflow is reported, not raised.
    """
    d = support[2].shape[-1]
    iterates, y = [], np.eye(d, dtype=complex)
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


@_nonfinite_ok
def agler_consistency(m: int, x) -> float:
    """Deviation between two expansions of the order-m defect for the ball.

    For the symbol q = Z_1 + .. + Z_n,

        (id - Phi_q)^m (I) = sum_{k=0..m} (-1)^k C(m, k) sum_{|w|=k} X_w X_w^*

    holds identically; the return value is the maximum entrywise gap
    between the iterated and the binomial-expanded sides.  A non-finite
    gap reads inf.
    """
    m = _require_order(m)
    t = as_tuple(x)
    n, d = t.shape[:2]
    linear = _support(unit_ball_symbol(n), t)
    iterated = np.eye(d, dtype=complex)
    for _ in range(m):
        iterated = iterated - _phi(linear, iterated)

    index = WordIndex(n, m)
    monos = _graded_monomials(t, m)
    expanded = np.zeros((d, d), dtype=complex)
    for k in range(m + 1):
        block = monos[index.offset(k) : index.offset(k + 1)]
        terms = block @ block.conj().swapaxes(1, 2)
        grade = reduce(np.add, terms, np.zeros((d, d), dtype=complex))
        expanded += ((-1) ** k) * math.comb(m, k) * grade
    gap = np.abs(iterated - expanded)
    return float(np.max(gap)) if np.isfinite(gap).all() else math.inf


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

    ``terms`` is a nonempty sequence of (alpha, beta, C) with words alpha,
    beta of length <= N and a common square coefficient C (scalars
    allowed).  X must be a member of the order-m domain of f within tol;
    then the left-hand norm never exceeds the model norm beyond roundoff.
    """
    parsed = []
    for i, (alpha, beta, c) in enumerate(terms, start=1):
        a = _as_letters(alpha, f.n)
        b = _as_letters(beta, f.n)
        if len(a) > N or len(b) > N:
            raise ValueError(f"hereditary word length exceeds model depth N={N}")
        cm = np.asarray(c, dtype=complex)
        if cm.ndim == 0:
            cm = cm.reshape(1, 1)
        if cm.ndim != 2 or cm.shape[0] != cm.shape[1]:
            raise ValueError(
                f"hereditary term {i} has a non-square coefficient of shape {cm.shape}"
            )
        if not np.isfinite(cm).all():
            raise ValueError(f"hereditary term {i} has a non-finite coefficient")
        if parsed and cm.shape != parsed[0][2].shape:
            raise ValueError(f"hereditary term {i}: coefficients must share one shape")
        parsed.append((a, b, cm))
    if not parsed:
        raise ValueError("hereditary expression needs at least one term")
    e = parsed[0][2].shape[0]
    t = as_tuple(x)
    _point_state(f, m, t).require_member(tol)
    model = build_model(f, m, N)
    rhs = _hereditary_sum(model, parsed, "the model side of a hereditary expression")
    d = t.shape[-1]
    lhs_sum = np.zeros((d * e, d * e), dtype=complex)
    for a, b, cm in parsed:
        xa = monomial_product(t, a) @ monomial_product(t, b).conj().T
        lhs_sum += kron(xa, cm)
    return VonNeumannGap(operator_norm(lhs_sum), operator_norm(rhs.at()))


_BRACKET = 2.0**-7  # the bisection stops once hi - lo <= _BRACKET * lo
_REACH = 2.0**-80  # a ray with no member at s = 2^-1, .., 2^-80 raises
_SAFETY = 0.9  # fraction of the bracket's inner end a sample is pulled to


def _ray_coefficients(support: Support, m: int) -> np.ndarray:
    """Delta_1..Delta_m at sX as matrix polynomials in t = s^2.

    Phi_{sX} = sum_j t^j Phi_j, with Phi_j the part of Phi_{f,X} from the
    support words of length j, so Delta_k has degree at most k deg f.
    Entry [p, k - 1] of the (m deg f + 1, m, d, d) stack is the Hermitian
    part of the t^p coefficient of Delta_k, zero above its degree.  One
    Phi step per k and grade maps every coefficient of Delta_{k-1}; the
    grades run from the top down, so each coefficient takes its terms in
    the order of a loop over single coefficients.
    """
    lengths, d = support[0].tolist(), support[2].shape[-1]
    top = lengths[-1]
    grades = [(j, slice(bisect_left(lengths, j), bisect_right(lengths, j)))
              for j in sorted(set(lengths))]
    out = np.zeros((m * top + 1, m, d, d), dtype=complex)
    prev = np.eye(d, dtype=complex)[None]
    for k in range(m):
        size = len(prev)
        out[:size, k] = prev
        for j, part in reversed(grades):
            out[j : j + size, k] -= _phi(support, prev, part)
        prev = out[: size + top, k]
    return hermitian_part(out)


def _ray_at(coeffs: np.ndarray, t: float) -> np.ndarray:
    """Delta_1..Delta_m at t = s^2 from `_ray_coefficients`: one in-place
    Horner pass over the stack, never a power of t."""
    acc = coeffs[-1].copy()
    for c in coeffs[-2::-1]:
        acc *= t
        acc += c
    return acc


def _ray_inside(coeffs: np.ndarray, t: float, tol: float) -> bool:
    """The `membership` verdict at t = s^2: every least eigenvalue of the m
    defects >= -tol, from one `least_eigenvalues` call on the stack, so a
    non-finite defect reads as outside."""
    return bool(least_eigenvalues(_ray_at(coeffs, t)).min() >= -tol)


@_nonfinite_ok
def _scale_into_domain(
    f: PositiveRegularFunction,
    m: int,
    base: np.ndarray,
    tol: float,
) -> np.ndarray:
    """Bisect the ray through base for the boundary, then pull inside.

    Along a ray from the origin membership flips once for the starlike
    domains this package works with, so bisection is justified.  The
    support at the base and the ray coefficients are built once; each
    probe is one `_ray_inside`, the `membership` verdict at sX.  The
    bracket [lo, hi] doubles from [0, 1] until hi is outside, then one
    loop halves it until lo > 0 and hi - lo <= 2^-7 lo; a ray with no
    member down to 2^-80 raises.  The sample is 0.9 lo X, between
    0.9 / (1 + 2^-7) and 0.9 of the boundary radius.
    """
    coeffs = _ray_coefficients(_support(f, base), m)

    def inside(s: float) -> bool:
        return _ray_inside(coeffs, s * s, tol)

    lo, hi = 0.0, 1.0
    for _ in range(60):
        if not inside(hi):
            break
        lo, hi = hi, 2.0 * hi
    else:
        raise RuntimeError("could not bracket the domain boundary")
    while hi - lo > _BRACKET * lo:
        if hi <= _REACH:
            raise RuntimeError("found no member on the ray near the origin")
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if inside(mid) else (lo, mid)
    return _SAFETY * lo * base


def _require_sample(m, dim) -> int:
    """The `membership` gate on m, and dim >= 1, checked before any draw."""
    if operator.index(dim) < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    return _require_order(m)


def sample_member(
    f: PositiveRegularFunction,
    m: int,
    dim: int,
    rng: np.random.Generator,
    tol: float = EIGENVALUE_TOL,
) -> np.ndarray:
    """Draw a random (n, dim, dim) tuple and scale it into the order-m domain of f.

    A random direction is bisected along its ray to within 2^-7 of the
    boundary radius, then pulled inside to between 0.893 and 0.9 of that
    radius (`_scale_into_domain`).  The m defects along
    the ray form one stack of matrix polynomials, so no step calls
    `membership` and each probe is one eigensolve.  m and dim are checked
    before anything is drawn from rng.
    """
    m = _require_sample(m, dim)
    return _scale_into_domain(f, m, _gaussian_tuple(f.n, dim, rng), tol)


def sample_nilpotent_member(
    f: PositiveRegularFunction,
    m: int,
    dim: int,
    rng: np.random.Generator,
    tol: float = EIGENVALUE_TOL,
) -> np.ndarray:
    """Like `sample_member` but strictly upper triangular (jointly nilpotent).

    Products of dim or more factors vanish, so the sampled tuple has
    nilpotency order at most dim.
    """
    m = _require_sample(m, dim)
    base = np.triu(_gaussian_tuple(f.n, dim, rng), k=1)
    if not base.any():
        raise ValueError("nilpotent sample degenerated to zero; need dim >= 2")
    return _scale_into_domain(f, m, base, tol)
