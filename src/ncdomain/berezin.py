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
defects and defect root at T (the `cp_maps.PointState` of
`_point_state`) from caches that hold the last key by value, so at one
point `membership`, `build_model` and the first form pay for them and
the second form reads them; what the caches hold is read-only and
shared.  Each form admits T through `PointState.require_member`.

Both forms read the observable g in either of two forms and end in the
same contraction for each:

  dense       a (dim, dim) array (`berezin --g FILE`):
              two GEMMs (`_sandwich`), g against the (dim, d^2) blocks,
              then the sum over the Fock slot and one coefficient slot;
  entry set   the at most dim entries (alpha u, beta u, s_u) of a word
              observable V_alpha V_beta^* (`fock_model._pair_entries`):
              sum_u s_u L[alpha u]^* R[beta u] over the gathered blocks,
              one GEMM (`_entry_sandwich`), with L = R the kernel blocks
              in the kernel form and L = Delta^2 R, R in the resolvent
              form, so no dim x dim array is formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cp_maps import _graded_monomials, _point_state
from .defaults import EIGENVALUE_TOL
from .fock_model import _PairEntries
from .linalg import as_tuple
from .series import PositiveRegularFunction
from .weights import weights_direct
from .words import WordIndex


@dataclass(eq=False, slots=True)
class BerezinKernel:
    """The kernel K: C^d -> F_N (x) C^d attached to (f, m, T, N).

    ``blocks[v]`` is the d x d block of K at the Fock basis vector with
    index v, namely sqrt(b_v) Delta T_v^*.
    """

    index: WordIndex
    blocks: np.ndarray

    @property
    def dim(self) -> int:
        return self.index.dim

    def transform(self, g) -> np.ndarray:
        """K^* (g (x) I_d) K without forming the Kronecker product, for g
        dense or an entry set (`fock_model._pair_entries`)."""
        g = _observable(g, self.dim)
        blocks = self.blocks
        if isinstance(g, _PairEntries):
            return _entry_sandwich(blocks[g.rows], g.values, blocks[g.cols])
        columns = blocks.reshape(-1, blocks.shape[-1])  # K, rows (v, a)
        return _sandwich(columns.conj(), g, blocks)


def _observable(g, dim: int):
    """g as an entry set or a dense complex array, either on dim basis vectors."""
    if isinstance(g, _PairEntries):
        if g.dim != dim:
            raise ValueError(
                f"g must act on the {dim}-dimensional truncated Fock space, "
                f"got the entries of a {g.dim}-dimensional model"
            )
        return g
    g = np.asarray(g, dtype=complex)
    if g.shape != (dim, dim):
        raise ValueError(
            f"g must be {dim} x {dim} on the truncated Fock space, got {g.shape}"
        )
    return g


def _entry_sandwich(left: np.ndarray, s: np.ndarray, right: np.ndarray) -> np.ndarray:
    """sum_p s[p] left[p]^* right[p] over (P, d, d) stacks, one GEMM: the
    sandwich of an observable whose entries s sit at the rows and columns
    that gathered left and right."""
    d = right.shape[-1]
    return left.reshape(-1, d).conj().T @ (s[:, None, None] * right).reshape(-1, d)


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
    t = as_tuple(t)
    state = _point_state(f, m, t)
    state.require_member(tol)
    root, _ = state.root()
    table = weights_direct(f, m, N)
    adjoints = _graded_monomials(t, N).conj().swapaxes(1, 2)
    blocks = np.sqrt(table.values)[:, None, None] * (root @ adjoints)
    return BerezinKernel(table.index, blocks)


def berezin_transform_kernel(
    f: PositiveRegularFunction,
    m: int,
    t,
    g,
    N: int,
    tol: float = EIGENVALUE_TOL,
) -> np.ndarray:
    """Transform of g at T in kernel form: K^* (g (x) I) K, g dense or an
    entry set (`BerezinKernel.transform`)."""
    return berezin_kernel(f, m, t, N, tol=tol).transform(g)


@dataclass(frozen=True)
class ResolventDiagnostics:
    """Growth evidence for a resolvent solve."""

    growth_estimate: float  # largest |entry| of R; >= 1, its vacuum block is I_d


def berezin_transform_resolvent(
    f: PositiveRegularFunction,
    m: int,
    t,
    g,
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
    one support.  g is dense or an entry set, as in the kernel form.
    """
    t = as_tuple(t)
    state = _point_state(f, m, t)
    table = weights_direct(f, m, N)
    index, b = table.index, table.values
    dim, d = index.dim, t.shape[-1]
    g = _observable(g, dim)
    state.require_member(tol)
    _, delta_sq = state.root()
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
    if isinstance(g, _PairEntries):
        out = _entry_sandwich(delta_sq @ r[g.rows], g.values, r[g.cols])
    else:
        left = (delta_sq @ r).reshape(dim * d, d)
        out = _sandwich(np.conjugate(left, out=left), g, r)
    if with_diagnostics:
        return out, ResolventDiagnostics(growth)
    return out
