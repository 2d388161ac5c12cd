"""Numerical tolerances and size limits shared across the package.

Every judged quantity (membership verdicts, oracle comparisons, report
check lines) refers back to one of the names below, so the defaults live
in a single place.  Commands and library calls accept explicit overrides.
"""

from __future__ import annotations

import os

# Minimum-eigenvalue slack when deciding positive semidefiniteness of
# defect operators (membership verdicts, certificates).
EIGENVALUE_TOL = 1e-9

# Relative agreement demanded between the two independent weight
# computations (factorization sum vs. geometric-series accumulation).
ORACLE_REL_TOL = 1e-12

# Agreement between the kernel form and the resolvent form of the
# Berezin transform.
FORM_AGREEMENT_TOL = 1e-6

# Entrywise slack for operator identities that hold exactly on the
# truncated model (rank-one defect, row and grade norm bounds).
ENTRYWISE_TOL = 1e-10

# Refuse to enumerate truncated Fock bases larger than this.
DEFAULT_DIM_CAP = 50_000

# Environment variable that overrides the basis cap.
DIM_CAP_ENV = "NCDOMAIN_DIM_CAP"


def physical_memory() -> int:
    """Bytes of physical memory; dense matrices larger than this are refused."""
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def dim_cap() -> int:
    """Active basis cap: the environment override if set, else the default."""
    raw = os.environ.get(DIM_CAP_ENV)
    if raw is None:
        return DEFAULT_DIM_CAP
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"{DIM_CAP_ENV} must be an integer, got {raw!r}") from exc
    if value <= 0:
        raise ValueError(f"{DIM_CAP_ENV} must be positive, got {value}")
    return value
