"""Small linear-algebra helpers with a fixed numerical policy.

An operator tuple is one complex (n, d, d) array: `as_tuple` is the one
check that n square matrices act on a common C^d, and every layer that
takes a tuple calls it.  Operator norms are largest singular values, and
Hermitian spectra are read here alone, on the input as given.  The
overflow policy lives here too (`_nonfinite_ok`): a matrix with a
non-finite entry has norm inf and least eigenvalue -inf.  Any clipping of
slightly negative eigenvalues happens against an explicit tolerance,
never silently.
"""

from __future__ import annotations

import math
from functools import wraps

import numpy as np


def _nonfinite_ok(func):
    """Run func with numpy's overflow and invalid-value warnings off; each
    call enters its own context, so nested calls restore the caller's state."""

    @wraps(func)
    def quiet(*args, **kwargs):
        with np.errstate(over="ignore", invalid="ignore"):
            return func(*args, **kwargs)

    return quiet


def as_tuple(x) -> np.ndarray:
    """An n-tuple of square matrices on one C^d as a complex (n, d, d) array.

    A 0-d entry reads as 1 x 1, and an (n, d, d) complex array is
    returned as it is, without a copy.  Raises ValueError for an empty
    tuple, a non-square entry or entries of different sizes.
    """
    if not (isinstance(x, np.ndarray) and x.ndim == 3):
        x = [np.reshape(a, (1, 1)) if np.ndim(a) == 0 else a for a in x]
    shapes = {np.shape(a) for a in x}
    if any(len(s) != 2 or s[0] != s[1] for s in shapes):
        raise ValueError("tuple entries must be square matrices")
    if not shapes:
        raise ValueError("tuple must have at least one entry")
    if len(shapes) > 1:
        raise ValueError("tuple entries act on different spaces")
    return np.asarray(x, dtype=complex)


def _gaussian_tuple(n: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """n complex Gaussian dim x dim matrices as one (n, dim, dim) array,
    real parts drawn first."""
    return np.array([
        rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        for _ in range(n)
    ])


def operator_norm(a: np.ndarray) -> float:
    """Largest singular value of ``a``; inf when ``a`` has a non-finite entry."""
    a = np.asarray(a)
    if a.size == 0:
        return 0.0
    if not np.isfinite(a).all():
        return math.inf
    return float(np.linalg.svd(a, compute_uv=False)[0])


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron`` of two 2-D arrays as one broadcast product, bit for bit:
    entry (i p, j q) is a[i, j] * b[p, q], a the left operand."""
    (ra, ca), (rb, cb) = a.shape, b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(ra * rb, ca * cb)


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """(a + a*) / 2, of one matrix or of each in a stack."""
    a = np.asarray(a, dtype=complex)
    return (a + a.conj().swapaxes(-1, -2)) / 2.0


def least_eigenvalues(h: np.ndarray) -> np.ndarray:
    """Least eigenvalue of a Hermitian matrix, or of each in a stack, from one
    `eigvalsh` call on the input as given; a matrix with a non-finite entry,
    which LAPACK may read as positive, enters it as zeros and reads -inf."""
    h = np.asarray(h)
    finite = np.isfinite(h).all(axis=(-2, -1))
    if finite.all():
        return np.linalg.eigvalsh(h)[..., 0]
    least = np.linalg.eigvalsh(np.where(finite[..., None, None], h, 0))[..., 0]
    return np.where(finite, least, -math.inf)


def psd_root(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Principal square root of a nearly-PSD Hermitian matrix, read as given.

    Returns ``(root, clipped)``: the root of ``a`` with every negative
    eigenvalue clipped to zero, and the PSD matrix actually rooted, each
    symmetrized.  Whether the clipping is admissible is for the caller to
    judge against an explicit tolerance (for a defect, `membership`'s
    rule via `cp_maps.PointState.require_member`).
    """
    eigs, vecs = np.linalg.eigh(a)
    clipped_eigs = np.clip(eigs, 0.0, None)
    root = (vecs * np.sqrt(clipped_eigs)) @ vecs.conj().T
    clipped = (vecs * clipped_eigs) @ vecs.conj().T
    return hermitian_part(root), hermitian_part(clipped)
