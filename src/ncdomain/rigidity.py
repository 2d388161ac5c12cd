"""Rigidity tests for maps between noncommutative domains.

Three computational angles on the same theme:

  * linear candidates [X]U, U an invertible matrix that `_candidate`
    returns with its checked inverse, certified in both directions at a
    finite model depth (`check_linear_biholomorphism`).  With
    X_j = sum_i U_ij V_i on the depth-N model,
    X_w = sum_{|v|=|w|} U^(x)|w|[v, w] V_v, so Phi_{g,X} keeps
    grade-block-diagonal matrices grade-block-diagonal.
    In the coordinates Z_L = D_L Y_L D_L, D_L = diag(sqrt(b_u) : |u| = L),
    one step is Z_J -> sum_k M_k (x) Z_{J-k} with
    M_k = U^(x)k diag(a_w : |w| = k) U^(x)k*, free of the weights.  The
    defects start from Z_L = diag(b_u) (Y = I) and are read as minimum
    eigenvalues of D_L^-1 Z_L D_L^-1, grade by grade,
  * invariance of the nilpotent part under a free polynomial map, on
    the scaled depth-N model and nilpotent samples (`map_image_check`);
    the model images come from one `fock_model._series_sum` per map,
  * the iteration probe (`cartan_iteration_probe`): a map tangent to
    the identity with any genuine higher-order term, composed with
    itself, drifts away from the identity and eventually violates the
    domain's row bound.  The degree-k coefficients of the iterate F^N
    are polynomials in N of degree <= k - 1, so the first |x| iterates
    (x the witness word) fix the witness column of every iterate in
    Newton form, col(N) = sum_j C(N - 1, j) D_j with D_j the j-th forward
    difference at N = 1.  The first N over the bound is then found on
    that polynomial, by bisection between the turning points of the
    squared drift, at a cost that does not grow with the budget.

Certificates at depth N are necessary conditions.  A failure disproves
the candidate; a pass is reported as consistency at that depth, never
as a proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import groupby
from typing import Sequence

import numpy as np

from .cp_maps import MembershipVerdict, membership, sample_nilpotent_member
from .defaults import EIGENVALUE_TOL, require_bytes
from .fock_model import _series_sum, build_model
from .linalg import _nonfinite_ok, hermitian_part, kron, least_eigenvalues
from .series import FreeSeries, PositiveRegularFunction, compose, evaluate
from .weights import weights_direct
from .words import Letters, grade_letters


def _candidate(u) -> tuple[np.ndarray, np.ndarray]:
    """An invertible n x n matrix U, acting on tuples by row
    multiplication, as (U, U^-1) once both pass the inverse check."""
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"candidate must be a square matrix, got {u.shape}")
    if not np.isfinite(u).all():
        raise ValueError("candidate matrix has a non-finite entry")
    try:
        inv = np.linalg.inv(u)
    except np.linalg.LinAlgError as exc:
        raise ValueError("candidate matrix is singular") from exc
    cond = float(np.linalg.cond(u, 2))
    if not np.isfinite(cond):
        raise ValueError("candidate matrix is singular")
    gap = float(np.max(np.abs(u @ inv - np.eye(u.shape[0]))))
    if gap > 1e-10 * cond:
        raise ValueError(
            f"inverse check failed: residual {gap:.3e} at condition {cond:.3e}"
        )
    return u, inv


@dataclass(frozen=True)
class BiholoCertificate:
    """Two-directional depth-N membership evidence for a linear candidate.

    ``forward`` checks [V^(f)]U against the (g, l) domain, ``backward``
    checks [V^(g)]U^(-1) against the (f, m) domain.  ``passed`` means
    consistency with a linear biholomorphism at this depth; any failed
    direction is a disproof.
    """

    forward_member: bool
    backward_member: bool
    forward_eigenvalues: tuple[float, ...]
    backward_eigenvalues: tuple[float, ...]
    N: int
    tol: float

    @property
    def passed(self) -> bool:
        return self.forward_member and self.backward_member


# n^N x n^N complex arrays alive at once on the top grade: the Z blocks of
# every grade with the symbol blocks, the Kronecker term or the rescaled
# block, two temporaries of `hermitian_part` and the eigensolver's copy
_TOP_BLOCKS = 6


@_nonfinite_ok
def _grade_block_minima(
    f: PositiveRegularFunction,
    m: int,
    g: PositiveRegularFunction,
    l: int,
    u: np.ndarray,
    N: int,
) -> np.ndarray:
    """Minimum eigenvalue of Delta_k = (id - Phi_g)^k (I) at [V]U, grade by grade.

    V is the depth-N model of (f, m).  Entry (k - 1, L) is the minimum
    eigenvalue of the grade-L block of Delta_k, k = 1..l, L = 0..N.  The
    step Z_J -> Z_J - sum_k M_k (x) Z_{J-k} reads only lower grades, so
    it runs from the top grade down in place, and block L is the same at
    every depth N >= L.  A block that overflows reads -inf.
    """
    n = f.n
    require_bytes(_TOP_BLOCKS * 16 * n ** (2 * N), f"the linear certificate at n={n}, N={N} "
                  f"({_TOP_BLOCKS} top grade blocks of {n**N} x {n**N} complex128)")
    table = weights_direct(f, m, N)
    grades = [table.values[table.index.offset(L) : table.index.offset(L + 1)]
              for L in range(N + 1)]
    # M_k = U^(x)k diag(a_w : |w| = k) U^(x)k* from its support columns,
    # column w of U^(x)k being U[:, w_1] (x) .. (x) U[:, w_k]
    blocks = {}
    for k, group in groupby(g.items(), key=lambda e: len(e[0])):
        if k > N:
            break
        words, a = zip(*group)
        cols = np.array([
            reduce(lambda x, y: np.multiply.outer(x, y).ravel(), [u[:, i - 1] for i in w])
            for w in words
        ]).T
        blocks[k] = (cols * np.array(a)) @ cols.conj().T
    z = [np.diag(b).astype(complex) for b in grades]  # Y = I
    out = np.empty((l, N + 1))
    for step in range(l):
        for J in range(N, -1, -1):
            for k, mk in blocks.items():
                if k > J:
                    break
                z[J] -= kron(mk, z[J - k])
            z[J] = hermitian_part(z[J])
            root = np.sqrt(grades[J])
            out[step, J] = least_eigenvalues(z[J] / np.outer(root, root))
    return out


def check_linear_biholomorphism(
    f: PositiveRegularFunction,
    m: int,
    g: PositiveRegularFunction,
    l: int,
    u,
    N: int,
    tol: float = EIGENVALUE_TOL,
) -> BiholoCertificate:
    """Certify the candidate X -> [X]U between the (f, m) and (g, l) domains.

    Each direction runs the order-l (order-m) defects of the image of
    the model on its grade blocks (`_grade_block_minima`); the per-k
    eigenvalue is the minimum over grades, as in `membership`.
    """
    if f.n != g.n:
        raise ValueError(
            f"domains must share the generator count, got {f.n} and {g.n}"
        )
    u, inv = _candidate(u)
    if len(u) != f.n:
        raise ValueError(f"candidate is {len(u)} x {len(u)}, domains have n={f.n}")
    forward = _grade_block_minima(f, m, g, l, u, N).min(axis=1)
    backward = _grade_block_minima(g, l, f, m, inv, N).min(axis=1)
    return BiholoCertificate(
        forward_member=bool(np.all(forward >= -tol)),
        backward_member=bool(np.all(backward >= -tol)),
        forward_eigenvalues=tuple(forward.tolist()),
        backward_eigenvalues=tuple(backward.tolist()),
        N=N,
        tol=tol,
    )


def _validate_map_tuple(
    maps: Sequence[FreeSeries], n_in: int, count: int
) -> tuple[FreeSeries, ...]:
    fixed = tuple(maps)
    if len(fixed) != count:
        raise ValueError(f"map needs {count} components, got {len(fixed)}")
    for s in fixed:
        if not isinstance(s, FreeSeries):
            raise ValueError("map components must be free series")
        if s.n != n_in:
            raise ValueError(
                f"map component over {s.n} letters, expected {n_in}"
            )
        if s.coeff_dim != 1:
            raise ValueError("map components must have scalar coefficients")
        if np.any(s.coeff(()) != 0):
            raise ValueError("map components must have zero constant term")
    return fixed


@dataclass(frozen=True)
class MapImageReport:
    """Membership of the images of nilpotent (f, m)-members in the (g, l) domain.

    ``model_verdicts`` holds one verdict per r in ``r_values`` for the
    scaled depth-N model, ``sample_verdicts`` one per nilpotent sample.
    """

    r_values: tuple[float, ...]
    model_verdicts: tuple[MembershipVerdict, ...]
    sample_verdicts: tuple[MembershipVerdict, ...]

    @property
    def passed(self) -> bool:
        return all(v.member for v in self.model_verdicts + self.sample_verdicts)


def map_image_check(
    maps: Sequence[FreeSeries],
    f: PositiveRegularFunction,
    m: int,
    g: PositiveRegularFunction,
    l: int,
    N: int,
    tol: float = EIGENVALUE_TOL,
    r_grid: Sequence[float] = (0.25, 0.5, 0.75, 1.0),
    rng: np.random.Generator | None = None,
) -> MapImageReport:
    """Check that the map sends nilpotent (f, m)-members into the (g, l) domain.

    The maps are g.n series over f's letters.  For each r in the grid the
    tuple (phi_1(rV), .., phi_n(rV)) is formed on the depth-N model of
    (f, m), a nilpotent member, and run through the order-l membership
    test for g; each map is one `fock_model._series_sum` on the model,
    read at every r.  Five random strictly upper triangular members
    of size N + 1 follow.  Words longer than N vanish on all of these, so
    the maps are truncated to degree N without loss.
    """
    if N < 1:
        raise ValueError(f"model depth must be >= 1, got {N}")
    maps = tuple(s.truncated(N) for s in _validate_map_tuple(maps, f.n, g.n))
    grid = tuple(float(r) for r in r_grid)
    if not grid or not all(0.0 <= r <= 1.0 for r in grid):
        raise ValueError(f"r_grid must be nonempty, with values in [0, 1], got {grid}")
    model = build_model(f, m, N)
    sums = [_series_sum(s, model) for s in maps]
    model_verdicts = tuple(
        membership(g, l, [chi.at(r) for chi in sums], tol=tol) for r in grid
    )
    rng = np.random.default_rng(0) if rng is None else rng
    samples = (sample_nilpotent_member(f, m, N + 1, rng, tol=tol) for _ in range(5))
    sample_verdicts = tuple(
        membership(g, l, [evaluate(s, x) for s in maps], tol=tol) for x in samples
    )
    return MapImageReport(grid, model_verdicts, sample_verdicts)


@dataclass(frozen=True)
class ProbeResult:
    """Outcome of the self-composition probe.

    ``status`` is "violation" when some iterate moved the witness basis
    vector further than the domain's row bound allows, then
    ``first_violation`` holds the iteration count; "identity-consistent"
    when every nonlinear coefficient is below tolerance; "inconclusive"
    when the iteration budget ran out first.
    """

    status: str
    first_violation: int | None
    witness_word: Letters | None
    drift: float
    bound: float
    iterations_run: int


def _witness_word(
    maps: Sequence[FreeSeries], p: int, tol: float
) -> tuple[Letters | None, float]:
    """Lowest-degree word with the largest combined nonlinear coefficient."""
    for k in range(2, p + 1):
        seen = sum(np.abs(s.grade(k)[:, 0, 0]) ** 2 for s in maps)
        best = int(np.argmax(seen))  # the first maximum: lexicographically least
        if seen[best] > 0 and np.sqrt(seen[best]) >= tol:
            return grade_letters(maps[0].n, k, [best])[0], float(np.sqrt(seen[best]))
    return None, 0.0


def _witness_differences(
    maps: Sequence[FreeSeries],
    f: PositiveRegularFunction,
    m: int,
    witness: Letters,
) -> np.ndarray:
    """Newton forward differences of the witness column over F^1..F^k.

    On the model, row x of sum_w c_w V_w is nonzero only at the words u
    with wu = x, where it holds c_w times the weight of V_w at e_u.  The
    linear prefix reads the identity for every iterate, so the moving
    entries of the witness column are those with |w| >= 2, one per
    component and prefix.  They are coefficients of degree <= k = |x|,
    hence polynomials of degree <= k - 1 in N, fixed by F^1..F^k and by
    the k-jets alone.  Returns the differences D_0..D_{k-1} of those
    entries as rows.  A difference of order >= 2 within the rounding of
    the iterates is set to zero, so that C(N - 1, j) does not grow
    rounding into drift.
    """
    k = len(witness)
    jets = tuple(
        FreeSeries(f.n, k, {(i,): 1.0, **{
            w: c for w, c in s.truncated(k).items() if len(w) > 1
        }})
        for i, s in enumerate(maps, start=1)
    )
    # V_{x[:j]} sends e_{x[j:]} to sqrt(b_{x[j:]} / b_x) e_x
    b = weights_direct(f, m, k)
    splits = [(witness[:j], np.sqrt(b[witness[j:]] / b[witness])) for j in range(2, k + 1)]
    cols = []
    iterate = jets
    for step in range(k):
        if step:
            iterate = tuple(compose(s, iterate) for s in jets)
        cols.append([np.conj(s.coeff(w)[0, 0]) * weight for s in iterate for w, weight in splits])
    cols = np.array(cols)
    diffs = np.array([np.diff(cols, n=j, axis=0)[0] for j in range(k)])
    scale = np.max(np.abs(cols), axis=0)
    for j in range(2, k):
        diffs[j][np.abs(diffs[j]) <= 2.0**j * 8 * np.finfo(float).eps * scale] = 0
    return diffs


def _drift(diffs: np.ndarray, counts) -> np.ndarray:
    """Witness drift of the iterates F^N for the given counts N >= 1.

    col(N) = sum_j C(N - 1, j) D_j, evaluated in floating point.
    """
    t = np.asarray(counts, dtype=float) - 1.0
    binom = np.ones_like(t)
    col = np.zeros(t.shape + diffs.shape[1:], dtype=complex)
    for j, d in enumerate(diffs):
        if j:
            binom = binom * (t - (j - 1)) / j
        col = col + binom[..., None] * d
    return np.sqrt(np.sum(np.abs(col) ** 2, axis=-1))


def _first_violation(diffs: np.ndarray, bound: float, n_iter: int) -> int | None:
    """The first N in 1..n_iter with drift(N) > bound, or None.

    drift(N)^2 is a polynomial in N; between consecutive real parts of
    the roots of its derivative it is monotone, so each such run of
    integers holds at most one crossing, found by bisection on the
    Newton-form drift.  Nothing here grows with n_iter.
    """
    basis = [np.polynomial.Polynomial([1.0])]
    for j in range(1, len(diffs)):
        basis.append(basis[-1] * np.polynomial.Polynomial([-(j - 1), 1.0]) / j)
    coeffs = np.zeros((len(diffs), diffs.shape[1]), dtype=complex)
    for b, d in zip(basis, diffs):
        coeffs[: len(b.coef)] += np.outer(b.coef, d)
    square = sum(np.convolve(c, c.conj()).real for c in coeffs.T)
    turns = np.polynomial.Polynomial(square).deriv().roots().real + 1.0  # t = N - 1
    inner = [math.floor(v) for v in turns if 1 < v < n_iter]
    edges = sorted({1, n_iter, *inner, *(v + 1 for v in inner)})

    def over(count: int) -> bool:
        return bool(_drift(diffs, [count])[0] > bound)

    if over(1):
        return 1
    for lo, hi in zip(edges, edges[1:]):
        if not over(hi):
            continue
        while hi - lo > 1:  # over(lo) is False, over(hi) is True
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if over(mid) else (mid, hi)
        return hi
    return None


def cartan_iteration_probe(
    maps: Sequence[FreeSeries],
    f: PositiveRegularFunction,
    m: int,
    p: int,
    n_iter: int = 10_000,
    tol: float = EIGENVALUE_TOL,
) -> ProbeResult:
    """Follow a tangent-to-identity map under self-composition.

    Each component must be Z_i plus terms of degree >= 2 (checked; linear
    parts within 1e-12 of the identity are taken as the identity).  The
    iterates F^N, truncated at degree p, are read on the depth-p model,
    whose basis vector at the witness word x sees the motion: the
    adjoint of the lowest nontrivial coefficient word pulls back to the
    vacuum with a factor growing in N.  That witness column depends on
    the coefficients of degree <= |x| only, which are polynomials in N of
    degree <= |x| - 1; so F^1..F^|x| fix its Newton form
    col(N) = sum_j C(N - 1, j) D_j for every N, and the probe composes
    |x| - 1 times whatever the budget.  It flags the first N <= n_iter
    where the drift |col(N) - col_identity| exceeds the row bound
    1 / min linear coefficient (plus tol); if the nonlinear part is below
    tol it reports identity consistency instead.
    """
    if p < 2:
        raise ValueError(f"probe degree must be >= 2, got {p}")
    if not 1 <= n_iter <= 2**53:
        # iteration counts are evaluated as floats, exact up to 2**53
        raise ValueError(f"iteration budget must lie in 1..2**53, got {n_iter}")
    maps = _validate_map_tuple(maps, f.n, f.n)
    for i, s in enumerate(maps, start=1):
        for j in range(1, f.n + 1):
            want = 1.0 if j == i else 0.0
            got = complex(s.coeff((j,))[0, 0])
            if abs(got - want) > 1e-12:
                raise ValueError(
                    f"component {i} is not tangent to the identity: "
                    f"linear coefficient at generator {j} is {got}"
                )
    maps = tuple(s.truncated(p) for s in maps)
    witness, _ = _witness_word(maps, p, tol)
    bound = 1.0 / f.min_linear_coefficient + tol
    if witness is None:
        return ProbeResult(
            status="identity-consistent",
            first_violation=None,
            witness_word=None,
            drift=0.0,
            bound=bound,
            iterations_run=0,
        )
    diffs = _witness_differences(maps, f, m, witness)
    first = _first_violation(diffs, bound, n_iter)
    last = n_iter if first is None else first
    return ProbeResult(
        status="inconclusive" if first is None else "violation",
        first_violation=first,
        witness_word=witness,
        drift=float(_drift(diffs, [last])[0]),
        bound=bound,
        iterations_run=last,
    )

