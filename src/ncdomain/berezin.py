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

Both forms read the weight table (`weights_direct`) and the support,
defects and defect root at T (`cp_maps._point_state`) from one-deep
memos keyed by value, so at one point `membership`, `build_model` and
the first form pay for them and the second form reads them; what the
memos hold is read-only and shared.  Each form ends in the same two
GEMMs (`_sandwich`): g against the (dim, d^2) blocks, then the sum over
the Fock slot and one coefficient slot.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cp_maps import (
    OperatorTuple,
    PointState,
    _graded_monomials,
    _point_state,
    as_operator_tuple,
    require_defects,
)
from .defaults import EIGENVALUE_TOL
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

    def _columns(self) -> np.ndarray:
        """K as a (dim d) x d matrix, rows (v, a)."""
        return self.blocks.reshape(-1, self.blocks.shape[-1])

    def gram(self) -> np.ndarray:
        """K^* K, the transform of the identity."""
        k = self._columns()
        return k.conj().T @ k

    def transform(self, g: np.ndarray) -> np.ndarray:
        """K^* (g (x) I_d) K without forming the Kronecker product."""
        g = np.asarray(g, dtype=complex)
        if g.shape != (self.dim, self.dim):
            raise ValueError(
                f"g must be {self.dim} x {self.dim} on the truncated Fock "
                f"space, got {g.shape}"
            )
        return _sandwich(self._columns().conj(), g, self.blocks)


def _sandwich(left_bar: np.ndarray, g: np.ndarray, right: np.ndarray) -> np.ndarray:
    """sum_{v,u} left_v^* g[v, u] right_u, two GEMMs.

    ``right`` is (dim, d, d) and ``left_bar`` the entrywise conjugate of
    the left factor as a (dim d) x d matrix, rows (v, a), so a caller
    that owns it conjugates in place.  g acts on the Fock slot of right
    as one (dim, dim) by (dim, d^2) product, and the Fock and first
    coefficient slots are then summed in one (d, dim d) by (dim d, d)
    product.
    """
    dim, d = right.shape[0], right.shape[-1]
    mixed = (g @ right.reshape(dim, d * d)).reshape(dim * d, d)
    return left_bar.T @ mixed


def _defect_root(state: PointState, m: int, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """(Delta, Delta^2) from the order-m defect; ValueError off the domain.

    Every Delta_k, k = 1..m, must pass the `membership` rule, not Delta_m
    alone."""
    require_defects(state.defects.min_eigenvalues, m, tol)
    return state.root()


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
    root, _ = _defect_root(_point_state(f, m, t), m, tol)
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
    state = _point_state(f, m, t)
    table = weights_direct(f, m, N)
    index, b = table.index, table.values
    dim, d = index.dim, t.dim
    g = np.asarray(g, dtype=complex)
    if g.shape != (dim, dim):
        raise ValueError(
            f"g must be {dim} x {dim} on the truncated Fock space, got {g.shape}"
        )
    _, delta_sq = _defect_root(state, m, tol)
    _, coeffs, monos = state.support
    terms = list(zip(f.support(), coeffs, monos.conj().swapaxes(1, 2)))
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
    left = (delta_sq @ r).reshape(dim * d, d)
    out = _sandwich(np.conjugate(left, out=left), g, r)
    if with_diagnostics:
        return out, ResolventDiagnostics(growth)
    return out
