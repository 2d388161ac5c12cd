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
versus forward substitution on right shifts).  Both admit a tuple by
the `membership` rule alone.  Tensor factors are ordered Fock slot
first, coefficient space second, throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cp_maps import (
    OperatorTuple,
    Support,
    _defect_sequence,
    _graded_monomials,
    _support,
    as_operator_tuple,
    require_defects,
)
from .defaults import EIGENVALUE_TOL
from .linalg import psd_root
from .series import PositiveRegularFunction
from .weights import weights_direct
from .words import WordIndex


@dataclass(eq=False, slots=True)
class BerezinKernel:
    """The kernel K: C^d -> F_N (x) C^d attached to (f, m, T, N).

    ``blocks[v]`` is the d x d block of K at the Fock basis vector with
    index v, namely sqrt(b_v) Delta T_v^*.
    """

    f: PositiveRegularFunction
    m: int
    tuple: OperatorTuple
    N: int
    index: WordIndex
    blocks: np.ndarray

    @property
    def dim(self) -> int:
        return self.index.dim

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


def _defect_root(support: Support, m: int, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """(Delta, Delta^2) from the order-m defect; ValueError off the domain.

    Every Delta_k, k = 1..m, must pass the `membership` rule, not Delta_m
    alone."""
    seq = _defect_sequence(support, m)
    require_defects(seq.min_eigenvalues, m, tol)
    return psd_root(seq.deltas[m], tol)


def berezin_kernel(
    f: PositiveRegularFunction,
    m: int,
    t,
    N: int,
    tol: float = EIGENVALUE_TOL,
) -> BerezinKernel:
    """Build the depth-N Berezin kernel at the tuple T.

    The defect (id - Phi)^m(I) must be PSD within tol; its principal
    square root enters every block.  Eigenvalues in [-tol, 0) are
    clipped to zero so boundary tuples stay admissible.  The monomials
    T_w come grade by grade from `_graded_monomials`, one batched matmul
    per grade, so the word list of the index is never built.
    """
    t = as_operator_tuple(t)
    root, _ = _defect_root(_support(f, t), m, tol)
    table = weights_direct(f, m, N)
    adjoints = _graded_monomials(t, N).conj().swapaxes(1, 2)
    blocks = np.sqrt(table.values)[:, None, None] * (root @ adjoints)
    return BerezinKernel(f, m, t, N, table.index, blocks)


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
    """Growth evidence for a resolvent solve."""

    growth_estimate: float  # largest |entry| of R; >= 1, its vacuum block is I_d


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
    space.  Admits exactly the members the kernel form admits: the
    substitution is unit triangular, so it is finite for every T, and
    only its growth is checked.  The defect and the right shifts share
    one support.
    """
    t = as_operator_tuple(t)
    support = _support(f, t)
    table = weights_direct(f, m, N)
    index, b = table.index, table.values
    dim, d = index.dim, t.dim
    g = np.asarray(g, dtype=complex)
    if g.shape != (dim, dim):
        raise ValueError(
            f"g must be {dim} x {dim} on the truncated Fock space, got {g.shape}"
        )
    _, delta_sq = _defect_root(support, m, tol)
    terms = list(zip(f.support(), support[1], support[2].conj().swapaxes(1, 2)))
    steps = []
    for length in range(N + 1):
        src = slice(index.offset(length), index.offset(length + 1))
        for word, a, t_adj in terms:
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
        return out, ResolventDiagnostics(growth)
    return out
