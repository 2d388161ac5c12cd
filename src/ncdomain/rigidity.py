"""Rigidity tests for maps between noncommutative domains.

Three computational angles on the same theme:

  * linear candidates [X]U, certified in both directions at a finite
    model depth (`check_linear_biholomorphism`),
  * invariance of the nilpotent part under a free polynomial map
    (`nilpotent_image_check`),
  * the iteration probe (`cartan_iteration_probe`): a map tangent to
    the identity with any genuine higher-order term, composed with
    itself, drifts away from the identity linearly in the iteration
    count and eventually violates the domain's row bound.

Certificates at depth N are necessary conditions.  A failure disproves
the candidate; a pass is reported as consistency at that depth, never
as a proof.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .cp_maps import MembershipVerdict, OperatorTuple, as_operator_tuple, membership
from .defaults import EIGENVALUE_TOL
from .fock_model import build_model, evaluate_on_model
from .series import FreeSeries, PositiveRegularFunction, compose, evaluate
from .words import Letters, grade_letters


class LinearMapCandidate:
    """An invertible n x n matrix acting on tuples by row multiplication."""

    __slots__ = ("matrix", "inverse", "condition")

    def __init__(self, matrix):
        u = np.asarray(matrix, dtype=complex)
        if u.ndim != 2 or u.shape[0] != u.shape[1]:
            raise ValueError(f"candidate must be a square matrix, got {u.shape}")
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
        self.matrix = u
        self.inverse = inv
        self.condition = cond

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def apply_row(x, u) -> OperatorTuple:
    """Row action [X]U: component j is sum_i U[i, j] X_i."""
    t = as_operator_tuple(x)
    mat = u.matrix if isinstance(u, LinearMapCandidate) else np.asarray(u, dtype=complex)
    if mat.shape != (t.n, t.n):
        raise ValueError(
            f"row action needs a {t.n} x {t.n} matrix, got {mat.shape}"
        )
    out = []
    for j in range(t.n):
        comp = np.zeros((t.dim, t.dim), dtype=complex)
        for i in range(t.n):
            c = mat[i, j]
            if c != 0:
                comp += c * t.mats[i]
        out.append(comp)
    return OperatorTuple(out)


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


def check_linear_biholomorphism(
    f: PositiveRegularFunction,
    m: int,
    g: PositiveRegularFunction,
    l: int,
    u,
    N: int,
    tol: float = EIGENVALUE_TOL,
) -> BiholoCertificate:
    """Certify the candidate X -> [X]U between the (f, m) and (g, l) domains."""
    if f.n != g.n:
        raise ValueError(
            f"domains must share the generator count, got {f.n} and {g.n}"
        )
    cand = u if isinstance(u, LinearMapCandidate) else LinearMapCandidate(u)
    if cand.n != f.n:
        raise ValueError(f"candidate is {cand.n} x {cand.n}, domains have n={f.n}")
    model_f = build_model(f, m, N)
    forward = membership(g, l, apply_row(model_f.V, cand.matrix), tol=tol)
    model_g = build_model(g, l, N)
    backward = membership(f, m, apply_row(model_g.V, cand.inverse), tol=tol)
    return BiholoCertificate(
        forward_member=forward.member,
        backward_member=backward.member,
        forward_eigenvalues=forward.min_eigenvalues,
        backward_eigenvalues=backward.min_eigenvalues,
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
class NilpotentImageReport:
    """Membership evidence for images of nilpotent domain members."""

    model_verdict: MembershipVerdict
    sample_verdicts: tuple[MembershipVerdict, ...]

    @property
    def passed(self) -> bool:
        return self.model_verdict.member and all(
            v.member for v in self.sample_verdicts
        )


def nilpotent_image_check(
    maps: Sequence[FreeSeries],
    f: PositiveRegularFunction,
    m: int,
    g: PositiveRegularFunction,
    l: int,
    p: int,
    tol: float = EIGENVALUE_TOL,
    rng: np.random.Generator | None = None,
) -> NilpotentImageReport:
    """Check that the map sends nilpotent (f, m)-members into the (g, l) domain.

    The depth-p truncated model is itself a nilpotent member and is
    checked first; five random strictly upper triangular members
    of matching nilpotency order follow.  Monomials of degree above p
    vanish on all of these, so the maps are truncated to degree p
    without loss.
    """
    from .cp_maps import sample_nilpotent_member

    if p < 1:
        raise ValueError(f"nilpotency depth must be >= 1, got {p}")
    maps = _validate_map_tuple(maps, f.n, g.n)
    # degree-p normalization is exact here: higher monomials vanish on
    # nilpotents of order p + 1
    maps = tuple(s.truncated(p) for s in maps)
    model = build_model(f, m, p)
    model_images = [evaluate_on_model(s, model) for s in maps]
    model_verdict = membership(g, l, model_images, tol=tol)
    rng = np.random.default_rng(0) if rng is None else rng
    sample_verdicts = []
    for _ in range(5):
        x = sample_nilpotent_member(f, m, p + 1, rng, tol=tol)
        images = [evaluate(s, x.mats) for s in maps]
        sample_verdicts.append(membership(g, l, images, tol=tol))
    return NilpotentImageReport(model_verdict, tuple(sample_verdicts))


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


def cartan_iteration_probe(
    maps: Sequence[FreeSeries],
    f: PositiveRegularFunction,
    m: int,
    p: int,
    n_iter: int = 10_000,
    tol: float = EIGENVALUE_TOL,
) -> ProbeResult:
    """Compose a tangent-to-identity map with itself and watch the drift.

    Each component must be Z_i plus terms of degree >= 2 (checked).  The
    iterates F^N are formed by exact composition truncated at degree p
    and evaluated on the depth-p model, whose top-grade basis vectors
    witness the motion: the adjoint of the lowest nontrivial coefficient
    word pulls back to the vacuum with a factor growing linearly in N.
    The probe flags the first N where that drift exceeds the row bound
    1 / min linear coefficient (plus tol); if the nonlinear part is
    below tol it reports identity consistency instead.
    """
    if p < 2:
        raise ValueError(f"probe degree must be >= 2, got {p}")
    if n_iter < 1:
        raise ValueError(f"iteration budget must be >= 1, got {n_iter}")
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
    # common declared degree keeps the composition truncation at p
    maps = tuple(s.truncated(p) for s in maps)
    witness, _ = _witness_word(maps, p, tol)
    if witness is None:
        return ProbeResult(
            status="identity-consistent",
            first_violation=None,
            witness_word=None,
            drift=0.0,
            bound=1.0 / f.min_linear_coefficient + tol,
            iterations_run=0,
        )
    model = build_model(f, m, p)
    idx0 = model.index.index_of(witness)
    bound = 1.0 / f.min_linear_coefficient + tol
    base_cols = [v.conj().T[:, idx0] for v in model.V]
    current = maps
    drift = 0.0
    for n in range(1, n_iter + 1):
        drift_sq = 0.0
        for s, base in zip(current, base_cols):
            col = evaluate_on_model(s, model).conj().T[:, idx0]
            drift_sq += float(np.sum(np.abs(col - base) ** 2))
        drift = float(np.sqrt(drift_sq))
        if drift > bound:
            return ProbeResult(
                status="violation",
                first_violation=n,
                witness_word=witness,
                drift=drift,
                bound=bound,
                iterations_run=n,
            )
        if n < n_iter:
            current = tuple(compose(s, current) for s in maps)
    return ProbeResult(
        status="inconclusive",
        first_violation=None,
        witness_word=witness,
        drift=drift,
        bound=bound,
        iterations_run=n_iter,
    )


@dataclass(frozen=True)
class GeneratorImageReport:
    """Membership of mapped, radially scaled model generators."""

    r_values: tuple[float, ...]
    verdicts: tuple[MembershipVerdict, ...]

    @property
    def passed(self) -> bool:
        return all(v.member for v in self.verdicts)


def check_generator_images(
    f: PositiveRegularFunction,
    m: int,
    g: PositiveRegularFunction,
    l: int,
    maps: Sequence[FreeSeries],
    N: int,
    tol: float = EIGENVALUE_TOL,
    r_grid: Sequence[float] = (0.25, 0.5, 0.75, 1.0),
) -> GeneratorImageReport:
    """Evaluate the maps at the scaled (g, l) model and test (f, m) membership.

    For each r in the grid the tuple (phi_1(rV), .., phi_n(rV)) is
    formed on the depth-N model of (g, l) and run through the order-m
    membership test for f.  Maps must be polynomials of degree <= N
    over g's letters.
    """
    maps = _validate_map_tuple(maps, g.n, f.n)
    for s in maps:
        if s.degree > N:
            raise ValueError(
                f"map degree {s.degree} exceeds model depth N={N}"
            )
    grid = tuple(float(r) for r in r_grid)
    if not grid:
        raise ValueError("r_grid must be nonempty")
    for r in grid:
        if not 0.0 <= r <= 1.0:
            raise ValueError(f"r_grid values must lie in [0, 1], got {r}")
    model = build_model(g, l, N)
    verdicts = []
    for r in grid:
        images = [evaluate_on_model(s, model, r=r) for s in maps]
        verdicts.append(membership(f, m, images, tol=tol))
    return GeneratorImageReport(grid, tuple(verdicts))
