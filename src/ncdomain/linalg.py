"""Small linear-algebra helpers with a fixed numerical policy.

Operator norms are largest singular values; spectra of Hermitian matrices
go through the symmetric eigensolver after explicit symmetrization, and a
matrix with a non-finite entry has least eigenvalue -inf.  Any
clipping of slightly negative eigenvalues happens against an explicit
tolerance, never silently.
"""

from __future__ import annotations

import math

import numpy as np


def operator_norm(a: np.ndarray) -> float:
    """Largest singular value of ``a``."""
    a = np.asarray(a)
    if a.size == 0:
        return 0.0
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


def min_eigenvalue(a: np.ndarray) -> float:
    """Smallest eigenvalue of the Hermitian part of ``a``; -inf when ``a``
    has a non-finite entry, which LAPACK may read as positive."""
    if not np.isfinite(a).all():
        return -math.inf
    return float(np.linalg.eigvalsh(hermitian_part(a))[0])


def psd_root(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Principal square root of a nearly-PSD Hermitian matrix.

    Returns ``(root, clipped)``: the root of the Hermitian part with every
    negative eigenvalue clipped to zero, and the PSD matrix actually
    rooted.  Whether the clipping is admissible is for the caller to
    judge against an explicit tolerance (for a defect, `membership`'s
    rule via `cp_maps.require_defects`).
    """
    eigs, vecs = np.linalg.eigh(hermitian_part(a))
    clipped_eigs = np.clip(eigs, 0.0, None)
    root = (vecs * np.sqrt(clipped_eigs)) @ vecs.conj().T
    clipped = (vecs * clipped_eigs) @ vecs.conj().T
    return hermitian_part(root), hermitian_part(clipped)
