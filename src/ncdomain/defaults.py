"""Numerical tolerances, size limits and the check record of the package.

Every judged quantity (membership verdicts, oracle comparisons, report
check lines) refers back to one of the names below, so the defaults live
in a single place.  Commands and library calls accept explicit overrides.
Each judged quantity is reported as one `CheckResult`; it lives in this
leaf module so that a CLI command can report checks without loading the
selftest battery.  So do both size limits, the basis cap `dim_cap` and
the memory gate `require_bytes`; each raises `DimensionCapError`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

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


@dataclass(frozen=True)
class CheckResult:
    """One verified quantity: its value, the tolerance, and the verdict."""

    name: str
    value: float
    tol: float
    passed: bool
    detail: str = ""

    @classmethod
    def at_most(cls, name: str, value, tol: float, detail: str = "") -> "CheckResult":
        """The check that passes when value <= tol."""
        return cls(name, value, tol, bool(value <= tol), detail)


class DimensionCapError(ValueError):
    """Raised when a requested basis exceeds the cap, or a dense array memory."""


def physical_memory() -> int:
    """Bytes of physical memory; dense arrays larger than this are refused."""
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def require_bytes(need: int, what: str) -> None:
    """Refuse, before it is allocated, a dense `what` of need bytes that
    exceeds physical memory."""
    have = physical_memory()
    if need > have:
        raise DimensionCapError(
            f"{what} needs {need} bytes, more than the {have} bytes of physical memory"
        )


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
