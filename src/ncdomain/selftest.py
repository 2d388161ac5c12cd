"""Self-contained verification suite over randomized grids.

Each check exercises one contract of the package: agreement of the two
weight computations, exactness of the model defect, norm bounds, moment
reproduction of the Berezin transform in both forms, the von Neumann
inequality, Hardy-norm monotonicity, composition coherence, the
rigidity certificates, and the Agler expansion identity.  Checks draw
their randomness from generators seeded per check, so a rerun with the
same seed reproduces every number exactly.

Two profiles ship: "full" runs the complete grids, "fast" trims sizes
and depths for quick smoke runs (with tolerances that remain honest at
the reduced depths).

`CheckResult` is the one check record of the package: every criterion
returns one, and the CLI reports carry them too.  The identities a CLI
command also judges are measured by one function each, which both call:
`weights.oracle_gap`, `fock_model.vacuum_gap`, `fock_model.bound_excesses`
and `series.nested_evaluation_gap`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import product

import numpy as np

from .berezin import (
    berezin_kernel,
    berezin_transform_kernel,
    berezin_transform_resolvent,
)
from .cp_maps import (
    OperatorTuple,
    _gaussian_tuple,
    agler_consistency,
    monomial_product,
    sample_member,
    sample_nilpotent_member,
    von_neumann_gap,
)
from .defaults import (
    EIGENVALUE_TOL,
    ENTRYWISE_TOL,
    FORM_AGREEMENT_TOL,
    ORACLE_REL_TOL,
)
from .fock_model import (
    bound_excesses,
    build_model,
    defect_diagonal,
    hardy_norm_estimate,
    monomial_pair,
    vacuum_gap,
)
from .rigidity import cartan_iteration_probe, check_linear_biholomorphism
from .series import (
    FreeSeries,
    PositiveRegularFunction,
    compose,
    nested_evaluation_gap,
    rescale_symbol,
    unit_ball_symbol,
)
from .weights import _direct_values, oracle_gap, weights_direct, weights_oracle
from .words import word_count, word_text


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


@dataclass(frozen=True)
class SelftestProfile:
    """Grid sizes and depths for one run of the suite."""

    name: str
    grid_ns: tuple[int, ...]
    grid_ms: tuple[int, ...]
    grid_depth: int
    grid_symbols: int
    moment_depth: int
    moment_radius: float
    moment_nilpotent_trials: int
    agreement_trials: int
    vn_trials: int
    hardy_polys: int
    composition_trials: int
    rescale_trials: int
    symmetry_trials: int
    agler_trials: int


FULL = SelftestProfile(
    name="full",
    grid_ns=(1, 2, 3),
    grid_ms=(1, 2, 3),
    grid_depth=6,
    grid_symbols=5,
    moment_depth=30,
    moment_radius=0.8,
    moment_nilpotent_trials=10,
    agreement_trials=50,
    vn_trials=100,
    hardy_polys=20,
    composition_trials=100,
    rescale_trials=20,
    symmetry_trials=20,
    agler_trials=50,
)

FAST = SelftestProfile(
    name="fast",
    grid_ns=(1, 2),
    grid_ms=(1, 2),
    grid_depth=4,
    grid_symbols=2,
    moment_depth=10,
    moment_radius=0.5,
    moment_nilpotent_trials=3,
    agreement_trials=8,
    vn_trials=15,
    hardy_polys=5,
    composition_trials=20,
    rescale_trials=5,
    symmetry_trials=5,
    agler_trials=10,
)

PROFILES = {"full": FULL, "fast": FAST}

# iteration budget of the probe check, the same in both profiles
_PROBE_BUDGET = 10_000


def _rng(seed: int, offset: int) -> np.random.Generator:
    return np.random.default_rng([seed, offset])


def random_symbol(
    n: int, degree: int, rng: np.random.Generator, density: float = 0.35
) -> PositiveRegularFunction:
    """Random positive symbol with dyadic-rational coefficients.

    Dyadic values keep every downstream identity reproducible: the
    coefficients are exact binary floats, so reruns with the same seed
    agree bit for bit.
    """
    coeffs: dict = {}
    for i in range(1, n + 1):
        coeffs[(i,)] = float(rng.integers(1, 9)) / 8.0
    for k in range(2, degree + 1):
        for word in product(range(1, n + 1), repeat=k):
            if rng.random() < density:
                coeffs[word] = float(rng.integers(1, 17)) / 16.0
    return PositiveRegularFunction(n, coeffs)


def random_polynomial(
    n: int,
    degree: int,
    rng: np.random.Generator,
    coeff_dim: int = 1,
    density: float = 0.5,
    zero_constant: bool = False,
) -> FreeSeries:
    coeffs: dict = {}
    for k in range(0 if not zero_constant else 1, degree + 1):
        for word in product(range(1, n + 1), repeat=k):
            if rng.random() >= density:
                continue
            re = rng.integers(-8, 9, size=(coeff_dim, coeff_dim))
            im = rng.integers(-8, 9, size=(coeff_dim, coeff_dim))
            mat = (re + 1j * im) / 8.0
            coeffs[word] = mat
    if not coeffs:
        # keep the polynomial nonzero so norms have something to see
        length = 1 if (zero_constant or degree >= 1) else 0
        word = tuple(int(rng.integers(1, n + 1)) for _ in range(length))
        coeffs[word] = np.eye(coeff_dim)
    return FreeSeries(n, degree, coeffs, coeff_dim)


def _random_word(n: int, max_len: int, rng: np.random.Generator) -> tuple[int, ...]:
    k = int(rng.integers(0, max_len + 1))
    return tuple(int(rng.integers(1, n + 1)) for _ in range(k))


def _random_tuple(n: int, d: int, rng: np.random.Generator) -> OperatorTuple:
    return OperatorTuple([a / (2.0 * np.sqrt(d)) for a in _gaussian_tuple(n, d, rng)])


def _grid_symbols(profile: SelftestProfile, rng: np.random.Generator):
    """(f, m) over the grid: grid_symbols random symbols of degree 3 per (n, m)."""
    for n in profile.grid_ns:
        for m in profile.grid_ms:
            for _ in range(profile.grid_symbols):
                yield random_symbol(n, 3, rng), m


def _grid_models(profile: SelftestProfile, rng: np.random.Generator):
    """The models of depth 1..grid_depth of each grid symbol, cut from one table."""
    for f, m in _grid_symbols(profile, rng):
        table = weights_direct(f, m, profile.grid_depth)
        for N in range(1, profile.grid_depth + 1):
            yield build_model(f, m, N, weight_table=table)


def check_weight_oracle_equivalence(
    profile: SelftestProfile, seed: int
) -> CheckResult:
    """Factorization sums against series coefficients of (1-f)^(-m)."""
    # a table per depth, so every cell is summed on its own against the oracle
    gaps = [
        oracle_gap(weights_direct(f, m, N), weights_oracle(f, m, N))
        for f, m in _grid_symbols(profile, _rng(seed, 1))
        for N in range(1, profile.grid_depth + 1)
    ]
    return CheckResult.at_most(
        "weight_oracle_equivalence", max(gaps), ORACLE_REL_TOL,
        f"{len(gaps)} (symbol, m, N) cells, relative error",
    )


def check_rank_one_defect(profile: SelftestProfile, seed: int) -> CheckResult:
    """(id - Phi)^m(I) on the model equals the vacuum projection."""
    # off the diagonal the defect is exactly zero
    models = _grid_models(profile, _rng(seed, 2))
    gaps = [vacuum_gap(defect_diagonal(model)) for model in models]
    return CheckResult.at_most(
        "rank_one_defect", max(gaps), ENTRYWISE_TOL,
        f"{len(gaps)} models, entrywise gap to the vacuum projection",
    )


def check_row_grade_bounds(profile: SelftestProfile, seed: int) -> CheckResult:
    """Row contraction and per-grade norm bounds on the model."""
    models = _grid_models(profile, _rng(seed, 3))
    excesses = [max(bound_excesses(model)) for model in models]
    return CheckResult.at_most(
        "row_grade_bounds", max(excesses), ENTRYWISE_TOL,
        f"{len(excesses)} models, largest bound excess",
    )


def check_moment_nilpotent(profile: SelftestProfile, seed: int) -> CheckResult:
    """Kernel-form transform reproduces T_alpha T_beta^* exactly.

    For a tuple of nilpotency order nu the reconstruction sum closes at
    depth nu - 1, so words with max(|alpha|, |beta|) <= N - nu + 1 keep
    the whole sum inside the truncation and the identity is exact.
    """
    rng = _rng(seed, 4)
    N = profile.grid_depth
    worst = 0.0
    for _ in range(profile.moment_nilpotent_trials):
        n = int(rng.integers(1, 3))
        m = int(rng.integers(1, 3))
        d = int(rng.integers(3, min(N, 4) + 1))
        f = random_symbol(n, 2, rng)
        t = sample_nilpotent_member(f, m, d, rng)
        model = build_model(f, m, N)
        kernel = berezin_kernel(f, m, t, N)
        budget = N - d + 1
        for _ in range(4):
            alpha = _random_word(n, budget, rng)
            beta = _random_word(n, budget, rng)
            g = monomial_pair(model, alpha, beta)
            got = kernel.transform(g)
            want = monomial_product(t, alpha) @ monomial_product(t, beta).conj().T
            worst = max(worst, float(np.max(np.abs(got - want))))
    return CheckResult.at_most(
        "moment_nilpotent", worst, ENTRYWISE_TOL,
        f"{profile.moment_nilpotent_trials} nilpotent tuples, depth {N}",
    )


def check_moment_radial(profile: SelftestProfile, seed: int) -> CheckResult:
    """Single-variable family against the classical disc formulas.

    At a scalar point lam the transform of the identity is 1 and the
    transform of (shift)(shift)^* is |lam|^2, both up to the geometric
    tail |lam|^(2 depth + 2).
    """
    r = profile.moment_radius
    depth = profile.moment_depth
    f = unit_ball_symbol(1)
    model = build_model(f, 1, depth)
    g_shift = monomial_pair(model, (1,), (1,))
    g_eye = np.eye(model.index.dim, dtype=complex)
    worst = 0.0
    for lam in (r, -r, 0.5 * r, r * (1 + 1j) / np.sqrt(2.0)):
        t = [np.array([[lam]], dtype=complex)]
        kernel = berezin_kernel(f, 1, t, depth)
        got_eye = complex(kernel.transform(g_eye)[0, 0])
        got_shift = complex(kernel.transform(g_shift)[0, 0])
        worst = max(worst, abs(got_eye - 1.0))
        worst = max(worst, abs(got_shift - abs(lam) ** 2))
    return CheckResult.at_most(
        "moment_radial", worst, FORM_AGREEMENT_TOL,
        f"radius {r}, depth {depth}, classical cross-check",
    )


def check_form_agreement(profile: SelftestProfile, seed: int) -> CheckResult:
    """Kernel and resolvent Berezin forms on random sampled members."""
    rng = _rng(seed, 6)
    N = profile.grid_depth
    worst = 0.0
    for _ in range(profile.agreement_trials):
        n = int(rng.integers(1, 3))
        m = int(rng.integers(1, 3))
        d = int(rng.integers(2, 5))
        f = random_symbol(n, 2, rng)
        t = sample_member(f, m, d, rng)
        dim = word_count(n, N)
        h = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        g = (h + h.conj().T) / 2.0
        kv = berezin_transform_kernel(f, m, t, g, N)
        rv = berezin_transform_resolvent(f, m, t, g, N)
        worst = max(worst, float(np.max(np.abs(kv - rv))))
    return CheckResult.at_most(
        "form_agreement", worst, FORM_AGREEMENT_TOL,
        f"{profile.agreement_trials} sampled members at 0.893 to 0.9 of the boundary",
    )


def check_von_neumann(profile: SelftestProfile, seed: int) -> CheckResult:
    """Hereditary expressions at members never beat the model norm."""
    rng = _rng(seed, 7)
    N = profile.grid_depth
    worst = -np.inf
    for _ in range(profile.vn_trials):
        n = int(rng.integers(1, 3))
        m = int(rng.integers(1, 3))
        d = int(rng.integers(2, 4))
        f = random_symbol(n, 2, rng)
        x = sample_member(f, m, d, rng)
        e = 1 if rng.random() < 0.7 else 2
        terms = []
        for _ in range(int(rng.integers(1, 4))):
            alpha = _random_word(n, 2, rng)
            beta = _random_word(n, 2, rng)
            c = (
                rng.integers(-8, 9, size=(e, e)) + 1j * rng.integers(-8, 9, size=(e, e))
            ) / 8.0
            terms.append((alpha, beta, c))
        gap = von_neumann_gap(f, m, x, terms, N)
        worst = max(worst, gap.lhs - gap.rhs)
    return CheckResult.at_most(
        "von_neumann", worst, EIGENVALUE_TOL,
        f"{profile.vn_trials} (member, hereditary) pairs at depth {N}",
    )


def check_hardy_monotonicity(profile: SelftestProfile, seed: int) -> CheckResult:
    """Norms at the scaled model grow with both the radius and the depth."""
    rng = _rng(seed, 8)
    grid = (0.0, 0.3, 0.6, 0.9)
    worst = -np.inf
    for n in (1, 2):
        for m in (1, 2):
            for base_depth in (2, 3):
                for _ in range(profile.hardy_polys):
                    f = random_symbol(n, 2, rng)
                    deg = int(rng.integers(0, base_depth + 1))
                    poly = random_polynomial(n, deg, rng)
                    # one table per polynomial; depth base_depth is its prefix
                    table = weights_direct(f, m, base_depth + 1)
                    lo = hardy_norm_estimate(poly, f, m, base_depth, grid, table)
                    hi = hardy_norm_estimate(poly, f, m, base_depth + 1, grid, table)
                    for a, b in zip(lo, lo[1:]):
                        worst = max(worst, a - b)
                    for a, b in zip(hi, hi[1:]):
                        worst = max(worst, a - b)
                    for a, b in zip(lo, hi):
                        worst = max(worst, a - b)
    return CheckResult.at_most(
        "hardy_monotonicity", worst, ENTRYWISE_TOL,
        "largest decrease across the r-grid and depth step",
    )


def check_composition_coherence(profile: SelftestProfile, seed: int) -> CheckResult:
    """compose-then-evaluate equals evaluate-then-substitute."""
    rng = _rng(seed, 9)
    worst = 0.0
    for _ in range(profile.composition_trials):
        n = int(rng.integers(1, 3))
        p = int(rng.integers(1, 3))
        deg_outer = int(rng.integers(1, 4))
        deg_inner = int(rng.integers(1, 4))
        full_degree = deg_outer * deg_inner
        e_out = 1 if rng.random() < 0.8 else 2
        outer = random_polynomial(p, deg_outer, rng, coeff_dim=e_out)
        inner = [
            random_polynomial(n, deg_inner, rng, zero_constant=True).truncated(
                full_degree
            )
            for _ in range(p)
        ]
        d = int(rng.integers(1, 4))
        x = [a / 2.0 for a in _gaussian_tuple(n, d, rng)]
        gap = nested_evaluation_gap(outer, inner, compose(outer, inner), x)
        worst = max(worst, gap)
    return CheckResult.at_most(
        "composition_coherence", worst, ENTRYWISE_TOL,
        f"{profile.composition_trials} random cases, relative error",
    )


def check_rescaling_certificates(profile: SelftestProfile, seed: int) -> CheckResult:
    """diag(c) certifies f against its rescaled symbol, both directions."""
    rng = _rng(seed, 10)
    failures = 0
    for _ in range(profile.rescale_trials):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 3))
        f = random_symbol(n, 2, rng)
        c = [float(rng.integers(2, 9)) / 4.0 for _ in range(n)]
        g = rescale_symbol(f, c)
        cert = check_linear_biholomorphism(f, m, g, m, np.diag(c), N=4)
        if not cert.passed:
            failures += 1
    return CheckResult.at_most(
        "rescaling_certificates", float(failures), 0.0,
        f"{profile.rescale_trials} random (symbol, scaling) pairs",
    )


def check_fixed_failure_eigenvalue(
    profile: SelftestProfile, seed: int
) -> CheckResult:
    """Doubling the ball generators fails with defect eigenvalue -3."""
    f = unit_ball_symbol(2)
    cert = check_linear_biholomorphism(f, 1, f, 1, 2.0 * np.eye(2), N=4)
    gap = abs(cert.forward_eigenvalues[0] + 3.0)
    passed = (not cert.forward_member) and gap <= EIGENVALUE_TOL
    return CheckResult(
        name="fixed_failure_eigenvalue",
        value=gap,
        tol=EIGENVALUE_TOL,
        passed=passed,
        detail="U = 2I on the two-generator ball symbol",
    )


def check_iteration_probe(profile: SelftestProfile, seed: int) -> CheckResult:
    """The probe flags z + z^2 at N = 2 and z + 1e-3 z^2 within budget."""
    f = unit_ball_symbol(1)
    big = cartan_iteration_probe(
        [FreeSeries(1, 2, {(1,): 1.0, (1, 1): 1.0})], f, 1, p=2,
        n_iter=_PROBE_BUDGET,
    )
    small = cartan_iteration_probe(
        [FreeSeries(1, 2, {(1,): 1.0, (1, 1): 1e-3})], f, 1, p=2,
        n_iter=_PROBE_BUDGET,
    )
    deviation = 0.0
    if big.status != "violation" or big.first_violation != 2:
        deviation += 1.0
    if small.status != "violation" or small.first_violation is None:
        deviation += 1.0
    elif small.first_violation > _PROBE_BUDGET + 1:
        deviation += float(small.first_violation - _PROBE_BUDGET - 1)
    return CheckResult.at_most(
        "iteration_probe", deviation, 0.0,
        f"quadratic term flagged at N={big.first_violation}, "
        f"small term at N={small.first_violation}",
    )


def check_certificate_symmetry(profile: SelftestProfile, seed: int) -> CheckResult:
    """Swapping domains and inverting U never flips a certificate."""
    rng = _rng(seed, 13)
    inconsistent = 0
    passes = 0
    for _ in range(profile.symmetry_trials):
        n = 2
        m = int(rng.integers(1, 3))
        l = int(rng.integers(1, 3))
        f = random_symbol(n, 2, rng)
        if rng.random() < 0.5:
            c = [float(rng.integers(2, 9)) / 4.0 for _ in range(n)]
            g = rescale_symbol(f, c)
            u = np.diag(np.asarray(c, dtype=complex))
            l = m
        else:
            g = random_symbol(n, 2, rng)
            u = np.zeros((n, n), dtype=complex)
            while abs(np.linalg.det(u)) < 0.1:
                u = (
                    rng.integers(-4, 5, size=(n, n))
                    + 1j * rng.integers(-4, 5, size=(n, n))
                ) / 4.0
        one = check_linear_biholomorphism(f, m, g, l, u, N=3)
        two = check_linear_biholomorphism(g, l, f, m, np.linalg.inv(u), N=3)
        if one.passed != two.passed:
            inconsistent += 1
        if one.passed:
            passes += 1
    return CheckResult.at_most(
        "certificate_symmetry", float(inconsistent), 0.0,
        f"{profile.symmetry_trials} candidates, {passes} passing",
    )


def check_agler_identity(profile: SelftestProfile, seed: int) -> CheckResult:
    """Iterated ball defect equals its binomial expansion."""
    rng = _rng(seed, 14)
    worst = 0.0
    for _ in range(profile.agler_trials):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        d = int(rng.integers(1, 4))
        x = _random_tuple(n, d, rng)
        worst = max(worst, agler_consistency(m, x))
    return CheckResult.at_most(
        "agler_identity", worst, 1e-12,
        f"{profile.agler_trials} random tuples, n <= 3, m <= 3",
    )


def _fingerprint(seed: int) -> str:
    _direct_values.cache_clear()  # so a second fingerprint sums its table anew
    rng = _rng(seed, 15)
    f = random_symbol(2, 3, rng)
    table = weights_direct(f, 2, 4)
    defect = defect_diagonal(table)
    payload = {
        "weights": [[word_text(w), repr(v)] for w, v in table.items()],
        "defect_trace": repr(float(np.sum(defect))),
        "defect_norm": repr(float(np.max(np.abs(defect)))),
    }
    return json.dumps(payload, sort_keys=True)


def check_determinism(profile: SelftestProfile, seed: int) -> CheckResult:
    """Recomputing a fingerprint with the same seed matches byte for byte."""
    mismatch = 0.0 if _fingerprint(seed) == _fingerprint(seed) else 1.0
    return CheckResult.at_most(
        "determinism", mismatch, 0.0,
        "weights + defect fingerprint, serialized twice",
    )


CHECKS = (
    check_weight_oracle_equivalence,
    check_rank_one_defect,
    check_row_grade_bounds,
    check_moment_nilpotent,
    check_moment_radial,
    check_form_agreement,
    check_von_neumann,
    check_hardy_monotonicity,
    check_composition_coherence,
    check_rescaling_certificates,
    check_fixed_failure_eigenvalue,
    check_iteration_probe,
    check_certificate_symmetry,
    check_agler_identity,
    check_determinism,
)


@dataclass(frozen=True)
class SelftestReport:
    """All check results of one run, with the profile and seed used."""

    profile: str
    seed: int
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def run_selftest(profile: SelftestProfile | str = FULL, seed: int = 0) -> SelftestReport:
    """Run every check of the suite and collect the results."""
    if isinstance(profile, str):
        try:
            profile = PROFILES[profile]
        except KeyError:
            raise ValueError(
                f"unknown profile {profile!r}; choose from {sorted(PROFILES)}"
            ) from None
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    results = [fn(profile, seed) for fn in CHECKS]
    return SelftestReport(profile.name, seed, tuple(results))
