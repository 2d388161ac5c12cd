"""Berezin kernel and transform for truncated noncommutative domains.

The transform of a Fock-space operator g at a domain member T is
computed in two independent forms:

  kernel form     K^* (g (x) I) K with the explicit kernel
                  K h = sum_w sqrt(b_w) e_w (x) Delta T_w^* h,
  resolvent form  a sandwich of g (x) Delta^2 between inverse powers of
                  I - sum_w a_w Lam_{w~} (x) T_w^*, where the Lam_i are
                  the weighted right creation operators of the depth-N
                  truncation.

Lam_{w~} sends e_u to sqrt(b_u / b_{uw}) e_{uw}, and the words uw for u
of one grade are every n^|w|-th index of a higher grade
(`WordIndex.shift_block` with ``right=True``), so the right shifts come
from the index arithmetic and f's own weight table.  On the common
truncation both forms are the same finite sum, so their agreement is a
genuine cross-check of two different code paths (monomial adjoints
versus forward substitution on right shifts).  Tensor factors are
ordered Fock slot first, coefficient space second, throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .cp_maps import (
    OperatorTuple,
    _monomials,
    _support_monomials,
    as_operator_tuple,
    defect_sequence,
    require_member,
    spectral_radius_estimate,
)
from .defaults import EIGENVALUE_TOL
from .linalg import psd_root
from .series import FreeSeries, PositiveRegularFunction, evaluate
from .weights import weights_direct
from .words import WordIndex, enumerate_words


class BerezinKernel:
    """The kernel K: C^d -> F_N (x) C^d attached to (f, m, T, N).

    ``blocks[v]`` is the d x d block of K at the Fock basis vector with
    index v, namely sqrt(b_v) Delta T_v^*; ``matrix`` stacks the blocks
    in Fock-major order.
    """

    __slots__ = ("f", "m", "tuple", "N", "index", "blocks", "delta_root", "delta_sq")

    def __init__(
        self,
        f: PositiveRegularFunction,
        m: int,
        operator_tuple: OperatorTuple,
        N: int,
        index: WordIndex,
        blocks: np.ndarray,
        delta_root: np.ndarray,
        delta_sq: np.ndarray,
    ):
        self.f = f
        self.m = m
        self.tuple = operator_tuple
        self.N = N
        self.index = index
        self.blocks = blocks
        self.delta_root = delta_root
        self.delta_sq = delta_sq

    @property
    def dim(self) -> int:
        return self.index.dim

    @property
    def space_dim(self) -> int:
        return self.tuple.dim

    @property
    def matrix(self) -> np.ndarray:
        d = self.space_dim
        return self.blocks.reshape(self.dim * d, d)

    def gram(self) -> np.ndarray:
        """K^* K, the transform of the identity."""
        return np.einsum("vab,vac->bc", self.blocks.conj(), self.blocks)

    def transform(self, g: np.ndarray) -> np.ndarray:
        """K^* (g (x) I_d) K without forming the Kronecker product."""
        g = np.asarray(g, dtype=complex)
        if g.shape != (self.dim, self.dim):
            raise ValueError(
                f"g must be {self.dim} x {self.dim} on the truncated Fock "
                f"space, got {g.shape}"
            )
        mixed = np.tensordot(g, self.blocks, axes=([1], [0]))
        return np.einsum("vab,vac->bc", self.blocks.conj(), mixed)


def _defect_root(
    f: PositiveRegularFunction, m: int, t: OperatorTuple, tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """(Delta, Delta^2) from the order-m defect; ValueError off the domain."""
    defect = defect_sequence(f, m, t).deltas[m]
    try:
        return psd_root(defect, tol)
    except ValueError as exc:
        raise ValueError(
            f"tuple lies outside the order-{m} domain: {exc}"
        ) from exc


def berezin_kernel(
    f: PositiveRegularFunction,
    m: int,
    t,
    N: int,
    tol: float = EIGENVALUE_TOL,
) -> BerezinKernel:
    """Build the depth-N Berezin kernel at the tuple T.

    The defect (id - Phi)^m(I) must be PSD within tol; its principal
    square root enters every block.  Eigenvalues in (-tol, 0) are
    clipped to zero so boundary tuples stay admissible.
    """
    t = as_operator_tuple(t)
    if t.n != f.n:
        raise ValueError(f"symbol over n={f.n} applied to a {t.n}-tuple")
    index = enumerate_words(f.n, N)
    root, clipped = _defect_root(f, m, t, tol)
    b = weights_direct(f, m, N).aligned_values(index)
    adjoints = np.array(_monomials(t, index.words)).conj().swapaxes(1, 2)
    blocks = np.sqrt(b)[:, None, None] * (root @ adjoints)
    return BerezinKernel(f, m, t, N, index, blocks, root, clipped)


def berezin_transform_kernel(
    f: PositiveRegularFunction,
    m: int,
    t,
    g: np.ndarray,
    N: int,
    tol: float = EIGENVALUE_TOL,
) -> np.ndarray:
    """Transform of g at T in kernel form: K^* (g (x) I) K."""
    return berezin_kernel(f, m, t, N, tol=tol).transform(g)


@dataclass(frozen=True)
class ResolventDiagnostics:
    """Growth and spectral-radius evidence for a resolvent solve."""

    growth_estimate: float  # largest |entry| of R; >= 1, its vacuum block is I_d
    radius_estimate: float


def berezin_transform_resolvent(
    f: PositiveRegularFunction,
    m: int,
    t,
    g: np.ndarray,
    N: int,
    tol: float = EIGENVALUE_TOL,
    with_diagnostics: bool = False,
):
    """Transform of g at T in resolvent form.

    The right shifts raise word length, so (I - sum_w a_w Lam_{w~} (x)
    T_w^*)^m R = e_unit (x) I_d is unit block-lower-triangular and is
    solved by forward substitution, grade by grade: grade L of R, moved
    by Lam_{w~}, adds into a strided slice of grade L + |w|.
    R^* (g (x) Delta^2) R is then compressed back to the coefficient
    space.  Requires T in the domain with estimated joint spectral radius
    below 1.
    """
    t = as_operator_tuple(t)
    if t.n != f.n:
        raise ValueError(f"symbol over n={f.n} applied to a {t.n}-tuple")
    radius = spectral_radius_estimate(f, t)
    if radius.overflowed or radius.final >= 1.0:
        raise ValueError(
            "resolvent form needs joint spectral radius < 1; estimate "
            f"{radius.final:.6f}"
        )
    index = enumerate_words(f.n, N)
    dim = index.dim
    d = t.dim
    g = np.asarray(g, dtype=complex)
    if g.shape != (dim, dim):
        raise ValueError(
            f"g must be {dim} x {dim} on the truncated Fock space, got {g.shape}"
        )
    _, delta_sq = _defect_root(f, m, t, tol)
    b = weights_direct(f, m, N).aligned_values(index)
    support = [(w, a, t_w.conj().T) for w, a, t_w in _support_monomials(f, t)]
    steps = []
    for length in range(N + 1):
        src = slice(index.offset(length), index.offset(length + 1))
        for word, a, t_adj in support:
            if length + len(word) <= N:
                dst = index.shift_block(word, length, right=True)
                scale = a * np.sqrt(b[src] / b[dst])
                steps.append((src, dst, scale[:, None, None], t_adj))
    r = np.zeros((dim, d, d), dtype=complex)
    r[0] = np.eye(d)
    for _ in range(m):
        for src, dst, scale, t_adj in steps:
            r[dst] += scale * (t_adj @ r[src])
    growth = float(np.max(np.abs(r)))
    if not np.isfinite(growth) or growth > 1e14:
        raise ValueError(
            f"resolvent solve is unstable; growth estimate {growth:.3e}"
        )
    mixed = np.tensordot(g, r, axes=([1], [0]))
    mixed = np.einsum("ab,vbc->vac", delta_sq, mixed)
    out = np.einsum("vab,vac->bc", r.conj(), mixed)
    if with_diagnostics:
        return out, ResolventDiagnostics(growth, radius.final)
    return out


def radial_berezin(
    f: PositiveRegularFunction,
    m: int,
    t,
    series: FreeSeries,
    r_grid: Sequence[float],
    tol: float = EIGENVALUE_TOL,
) -> list[np.ndarray]:
    """Evaluate a scalar-coefficient series at rT over a radial grid.

    The grid realizes the radial limit r -> 1 as data; convergence is
    left to the caller to inspect.
    """
    t = as_operator_tuple(t)
    if series.coeff_dim != 1:
        raise ValueError("radial evaluation needs scalar coefficients")
    require_member(f, m, t, tol)
    out = []
    for r in r_grid:
        r = float(r)
        if not 0.0 <= r <= 1.0:
            raise ValueError(f"radial grid values must lie in [0, 1], got {r}")
        out.append(evaluate(series, [r * x for x in t.mats]))
    return out
