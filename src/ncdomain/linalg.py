"""Small linear-algebra helpers with a fixed numerical policy.

Operator norms are largest singular values; spectra of Hermitian matrices
go through the symmetric eigensolver after explicit symmetrization.  Any
clipping of slightly negative eigenvalues happens against an explicit
tolerance, never silently.
"""

from __future__ import annotations

import numpy as np


def operator_norm(a: np.ndarray) -> float:
    """Largest singular value of ``a``."""
    a = np.asarray(a)
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """(a + a*) / 2."""
    a = np.asarray(a, dtype=complex)
    return (a + a.conj().T) / 2.0


def min_eigenvalue(a: np.ndarray) -> float:
    """Smallest eigenvalue of the Hermitian part of ``a``."""
    return float(np.linalg.eigvalsh(hermitian_part(a))[0])


def psd_root(a: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Principal square root of a nearly-PSD Hermitian matrix.

    Eigenvalues in [-tol, 0) are clipped to zero; an eigenvalue below
    -tol raises ValueError, the rule `membership` judges defects by.  Returns ``(root, clipped)`` where
    ``clipped`` is the PSD matrix actually rooted.
    """
    sym = hermitian_part(a)
    eigs, vecs = np.linalg.eigh(sym)
    if eigs[0] < -tol:
        raise ValueError(
            f"matrix is not positive semidefinite within tolerance: "
            f"minimum eigenvalue {eigs[0]:.3e} vs -{tol:.1e}"
        )
    eigs = np.clip(eigs, 0.0, None)
    root = (vecs * np.sqrt(eigs)) @ vecs.conj().T
    clipped = (vecs * eigs) @ vecs.conj().T
    return hermitian_part(root), hermitian_part(clipped)
