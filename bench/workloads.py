"""Seeded job streams for the four workloads, and the checks that judge them.

Input generation uses numpy only; the jobs call `ncdomain` through the
namespace `load_api` builds after its (timed) import.  Every job runs its
cross-check at the tolerance shipped in `ncdomain.defaults` and returns
the list of checks it failed.

A workload yields *cycles*: fixed lists of job sizes whose inputs
(coefficients, tuples, observables) are drawn fresh per cycle from
``(seed, workload, cycle)``.  A cycle holds the workload's size mix
once, and support patterns are fixed per size, so runs that complete
whole cycles do the same work whatever the seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np


@dataclass
class Job:
    kind: str
    sizes: dict
    data: dict = field(default_factory=dict)


def load_api() -> SimpleNamespace:
    """Import ncdomain (the cost a CLI user pays) and collect its entry points."""
    import ncdomain
    from ncdomain import cli, defaults, fock_model

    return SimpleNamespace(
        nc=ncdomain,
        defaults=defaults,
        symbol_row_diagonal=fock_model.symbol_row_diagonal,
        grade_row_diagonal=fock_model.grade_row_diagonal,
        cli_main=cli.main,
    )


# -- input generation -------------------------------------------------------


def _rng(seed: int, tag: int, *rest: int) -> np.random.Generator:
    return np.random.default_rng([seed, tag, *rest])


def _word(rng, n: int, length: int) -> tuple[int, ...]:
    return tuple(int(x) + 1 for x in rng.integers(0, n, size=length))


SUPPORT_TAG = 9


def _support(n: int, k: int, slot: int, count: int = 2) -> list[tuple[int, ...]]:
    """``count`` distinct words of length k (fewer if the alphabet has fewer).

    The words come from a stream fixed by (n, k, slot), not by the seed:
    a job's cost depends on its support pattern, so fixing the pattern per
    slot keeps the cost of a cycle the same for every seed.  The seed
    draws the coefficient values.
    """
    rng = np.random.default_rng([SUPPORT_TAG, n, k, slot])
    words: set = set()
    while len(words) < min(count, n**k):
        words.add(_word(rng, n, k))
    return sorted(words)


def dyadic_symbol(rng, n: int, degree: int, slot: int) -> dict:
    """Coefficients of a positive regular symbol, exact binary fractions.

    Every generator gets a linear coefficient in {1/8, .., 1}; each degree
    2..degree gets the slot's support words with coefficients in
    {1/16, .., 1/2}.
    """
    coeffs = {(i,): float(rng.integers(1, 9)) / 8.0 for i in range(1, n + 1)}
    for k in range(2, degree + 1):
        for w in _support(n, k, slot):
            coeffs[w] = float(rng.integers(1, 9)) / 16.0
    return coeffs


def word_count(n: int, N: int) -> int:
    return N + 1 if n == 1 else (n ** (N + 1) - 1) // (n - 1)


def _complex(rng, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _hermitian(rng, dim: int) -> np.ndarray:
    a = _complex(rng, (dim, dim)) / math.sqrt(dim)
    return (a + a.conj().T) / 2.0


def _series_coeffs(rng, n: int, degree: int, e: int, slot: int) -> dict:
    """Zero-constant-term series: every linear word plus the slot's higher words."""
    coeffs = {(i,): _complex(rng, (e, e)) / 2.0 for i in range(1, n + 1)}
    for k in range(2, degree + 1):
        for w in _support(n, k, slot):
            coeffs[w] = _complex(rng, (e, e)) / 4.0
    return coeffs


def _phi_norm(coeffs: dict, mats: list[np.ndarray]) -> float:
    """||sum_w a_w X_w X_w^*||, the size of Phi_{f,X}(I)."""
    d = mats[0].shape[0]
    total = np.zeros((d, d), dtype=complex)
    for w, a in coeffs.items():
        xw = np.eye(d, dtype=complex)
        for i in w:
            xw = xw @ mats[i - 1]
        total += a * (xw @ xw.conj().T)
    return float(np.linalg.norm(total, 2))


def nilpotent_tuple(rng, coeffs: dict, n: int, m: int, d: int, inside: bool):
    """A strictly upper triangular d x d tuple inside or outside the domain.

    Inside: scaled until s = ||Phi(I)|| <= (2^(1/m) - 1) / 2, which makes
    every defect (id - Phi)^k(I) >= (2 - (1 + s)^k) I positive for k <= m.
    Outside: scaled so ||sum X_i X_i^*|| is four times the row bound
    1 / min_i a_i that every member satisfies.  Both have joint spectral
    radius 0.
    """
    mats = [np.triu(_complex(rng, (d, d)), k=1) for _ in range(n)]
    if inside:
        target = (2.0 ** (1.0 / m) - 1.0) / 2.0
        scale = 1.0
        while _phi_norm(coeffs, [scale * x for x in mats]) > target:
            scale /= 2.0
        return [scale * x for x in mats]
    row = float(np.linalg.norm(sum(x @ x.conj().T for x in mats), 2))
    bound = 1.0 / min(coeffs[(i,)] for i in range(1, n + 1))
    return [x * math.sqrt(4.0 * bound / row) for x in mats]


# -- workloads ---------------------------------------------------------------


class Workload:
    """A job stream: warm-up jobs, cycles, and the runner for one job."""

    tag = 0
    # cycles run in the traced pass; fixed so its counts repeat exactly
    trace_cycles = 1
    # Fewest whole cycles in an untraced run, whatever --seconds says:
    # enough that the heaviest job class outnumbers the ten or so jobs
    # beyond the tail percentile, so job_tail_s stays inside that class.
    min_cycles = 12

    def warmup(self, seed: int) -> list[Job]:
        raise NotImplementedError

    def cycle(self, seed: int, index: int) -> list[Job]:
        raise NotImplementedError

    def run(self, api, tr, job: Job) -> list[str]:
        raise NotImplementedError

    def known_defect(self, job: Job, fails: list[str]) -> str | None:
        """The documented ROADMAP defect that ``fails`` is exactly, if any."""
        return None

    def close(self) -> None:
        """Release anything the workload created (files, directories)."""


class Audit(Workload):
    """weights + model: enumerate, both weight tables, model, defect, bounds.

    Each group audits one fresh degree-3 symbol at consecutive depths;
    the (n, N) ladder spans dim 31 to 1093.  A cycle runs every group at
    m = 1, 2 and 3, in seeded order; the three runs of a group share its
    support pattern.  Of the 27 jobs, 12 take under 40 ms and 9 over
    140 ms, so the median (the 14th) falls among the dim 341 and 364
    jobs, away from both edges.  With three dim-1023 jobs a cycle, four
    cycles are enough for `min_cycles`.  The ladder stops below dim 2047:
    there the dense defect (67 MB a matrix) swung with host memory
    traffic by up to 50% between runs.
    """

    tag = 1
    trace_cycles = 2
    min_cycles = 4
    GROUPS = ((2, (4, 5, 6)), (2, (8, 9)), (3, (5, 6)), (4, (3, 4)))

    def _jobs(self, rng, groups) -> list[Job]:
        jobs = []
        for n, depths, m, slot in groups:
            coeffs = dyadic_symbol(rng, n, 3, slot)
            for N in depths:
                sizes = {"n": n, "m": m, "N": N, "dim": word_count(n, N),
                         "support": len(coeffs)}
                jobs.append(Job("audit", sizes, {"coeffs": coeffs}))
        return jobs

    def warmup(self, seed):
        groups = [(2, (4, 5), 2, 100), (4, (3,), 2, 101)]
        return self._jobs(_rng(seed, self.tag, 1), groups)

    def cycle(self, seed, index):
        rng = _rng(seed, self.tag, 0, index)
        groups = [
            (n, depths, m, g)
            for g, (n, depths) in enumerate(self.GROUPS)
            for m in (1, 2, 3)
        ]
        return self._jobs(rng, [groups[i] for i in rng.permutation(len(groups))])

    def run(self, api, tr, job):
        nc, tol = api.nc, api.defaults
        s = job.sizes
        n, m, N, dim = s["n"], s["m"], s["N"], s["dim"]
        f = nc.PositiveRegularFunction(n, job.data["coeffs"])
        fails = []
        index = tr.call("words.enumerate_words", nc.enumerate_words, n, N, attrs=s)
        if index.dim != dim:
            fails.append(f"index dim {index.dim} != {dim}")
        direct = tr.call("weights.weights_direct", nc.weights_direct, f, m, N, attrs=s)
        oracle = tr.call("weights.weights_oracle", nc.weights_oracle, f, m, N, attrs=s)
        a = np.asarray(direct.aligned_values(index))
        b = np.asarray(oracle.aligned_values(index))
        rel = float(np.max(np.abs(a - b) / np.abs(b)))
        if not rel <= tol.ORACLE_REL_TOL:
            fails.append(f"oracle relative gap {rel:.3e}")
        model = tr.call("fock_model.build_model", nc.build_model, f, m, N,
                        weight_table=direct, attrs=s)
        defect = tr.call(
            "fock_model.model_defect", nc.model_defect, model, attrs=s, alloc=True,
            counts=lambda r: {"bytes_computed": 16 * r.shape[0] ** 2 * m},
        )
        defect[0, 0] -= 1.0
        gap = float(np.max(np.abs(defect)))
        del defect
        if not gap <= tol.ENTRYWISE_TOL:
            fails.append(f"defect gap to the vacuum projection {gap:.3e}")
        row = tr.call("fock_model.symbol_row_diagonal", api.symbol_row_diagonal,
                      model, attrs=s)
        excess = float(np.max(row)) - 1.0
        if not excess <= tol.ENTRYWISE_TOL:
            fails.append(f"row contraction excess {excess:.3e}")
        for k in range(1, N + 1):
            diag = tr.call("fock_model.grade_row_diagonal", api.grade_row_diagonal,
                           model, k, attrs=s)
            excess = float(np.max(diag)) - math.comb(k + m - 1, m - 1)
            if not excess <= tol.ENTRYWISE_TOL:
                fails.append(f"grade {k} bound excess {excess:.3e}")
        return fails


class Point(Workload):
    """member + berezin --form both: sample, decide, transform two ways.

    Sizes: (n, N) with dim 31 to 364 crossed with d in {2, 4, 8}, leaving
    out dim * d above 1500 (the dense resolvent is O((dim d)^3)).
    """

    tag = 2
    trace_cycles = 6
    SHAPES = ((2, 4), (2, 5), (4, 3), (3, 4), (2, 6), (3, 5))
    DS = (2, 4, 8)

    def _job(self, rng, n, N, d, m, slot) -> Job:
        dim = word_count(n, N)
        coeffs = dyadic_symbol(rng, n, 2, slot)
        sizes = {"n": n, "m": m, "N": N, "dim": dim, "d": d, "support": len(coeffs)}
        data = {
            "coeffs": coeffs,
            "sample_seed": int(rng.integers(2**32)),
            "g": _hermitian(rng, dim),
            "alpha": _word(rng, n, int(rng.integers(0, 3))),
            "beta": _word(rng, n, int(rng.integers(0, 3))),
        }
        return Job("point", sizes, data)

    def warmup(self, seed):
        rng = _rng(seed, self.tag, 1)
        return [self._job(rng, 2, 4, d, 2, 100 + d) for d in self.DS]

    def cycle(self, seed, index):
        rng = _rng(seed, self.tag, 0, index)
        sizes = [
            (n, N, d)
            for n, N in self.SHAPES
            for d in self.DS
            if word_count(n, N) * d <= 1500
        ]
        jobs = [
            self._job(rng, n, N, d, (k + index) % 2 + 1, k)
            for k, (n, N, d) in enumerate(sizes)
        ]
        return [jobs[i] for i in rng.permutation(len(jobs))]

    def run(self, api, tr, job):
        nc, tol = api.nc, api.defaults
        s = job.sizes
        n, m, N, d, dim = s["n"], s["m"], s["N"], s["d"], s["dim"]
        f = nc.PositiveRegularFunction(n, job.data["coeffs"])
        rng = np.random.default_rng(job.data["sample_seed"])
        fails = []
        x = tr.call("cp_maps.sample_member", nc.sample_member, f, m, d, rng, attrs=s)
        verdict = tr.call("cp_maps.membership", nc.membership, f, m, x, attrs=s)
        if not verdict.member:
            fails.append("sampled tuple is not a member")
        model = tr.call("fock_model.build_model", nc.build_model, f, m, N, attrs=s)
        va = tr.call("fock_model.model_monomial", nc.model_monomial, model,
                     job.data["alpha"], attrs=s)
        vb = tr.call("fock_model.model_monomial", nc.model_monomial, model,
                     job.data["beta"], attrs=s)
        p = va @ vb.conj().T
        g = job.data["g"] + p + p.conj().T
        kv = tr.call("berezin.berezin_transform_kernel", nc.berezin_transform_kernel,
                     f, m, x, g, N, attrs=s)
        rv = tr.call(
            "berezin.berezin_transform_resolvent", nc.berezin_transform_resolvent,
            f, m, x, g, N, attrs=s, alloc=True,
            counts=lambda r: {"bytes_computed": 16 * (dim * d) ** 2},
        )
        gap = float(np.max(np.abs(kv - rv)))
        if not gap <= tol.FORM_AGREEMENT_TOL:
            fails.append(f"kernel/resolvent gap {gap:.3e}")
        return fails


class Maps(Workload):
    """Function theory and rigidity: compose, Hardy norms, certificates, probes.

    A cycle is 16 jobs with fixed sizes, so its median falls between two
    jobs of the ~6 ms cluster (degree-6 compositions, N = 5 certificates)
    rather than between the ~2 ms and ~6 ms clusters.  Python-bound work
    swings most with host load, so a run has at least 50 cycles.
    """

    tag = 3
    trace_cycles = 12
    min_cycles = 50
    # (outer degree, inner degree, coefficient dim e, tuple dim d)
    COMPOSE = ((2, 2, 1, 2), (3, 2, 1, 4), (3, 3, 1, 2),
               (2, 2, 2, 4), (3, 2, 2, 2), (3, 3, 2, 4))
    HARDY = ((3, 1, 1), (4, 2, 2))  # (N, e, m)
    CERTS = ((4, 1), (5, 2), (6, 1))  # (N, m) of the rescaling
    PROBE_C = (1e-2, 1e-3)

    def _jobs(self, rng, compose, hardy, certs, probe_c) -> list[Job]:
        jobs = []
        for j, (do, di, e, d) in enumerate(compose):
            n = 2
            full_degree = do * di
            data = {
                "outer": _series_coeffs(rng, n, do, e, 10 * j),
                "outer_degree": do,
                "inner": [_series_coeffs(rng, n, di, e, 10 * j + i) for i in (1, 2)],
                "inner_degree": full_degree,
                "e": e,
                "point": [_complex(rng, (d, d)) / (2.0 * d) for _ in range(n)],
            }
            sizes = {"n": n, "N": full_degree, "d": d, "e": e,
                     "support": len(data["outer"])}
            jobs.append(Job("compose", sizes, data))
        for j, (N, e, m) in enumerate(hardy):
            n = 2
            coeffs = dyadic_symbol(rng, n, 2, 60 + j)
            data = {"coeffs": coeffs, "series": _series_coeffs(rng, n, 3, e, 65 + j),
                    "e": e}
            sizes = {"n": n, "m": m, "N": N, "dim": word_count(n, N), "e": e,
                     "support": len(coeffs)}
            jobs.append(Job("hardy", sizes, data))
        for N, m in certs:
            coeffs = dyadic_symbol(rng, 2, 2, 70)
            scales = [float(rng.choice([0.5, 0.75, 1.25, 1.5, 2.0])) for _ in range(2)]
            target = {
                w: a / math.prod(scales[i - 1] ** 2 for i in w) for w, a in coeffs.items()
            }
            sizes = {"n": 2, "m": m, "N": N, "dim": word_count(2, N),
                     "support": len(coeffs)}
            jobs.append(Job("rescale", sizes, {"coeffs": coeffs, "target": target,
                                               "scales": scales}))
            sizes = {"n": 2, "m": 1, "N": N, "dim": word_count(2, N), "support": 2}
            jobs.append(Job("ball2", sizes))
        for c in probe_c:
            sizes = {"n": 2, "m": 1, "N": 2, "dim": word_count(2, 2), "support": 2}
            jobs.append(Job("probe", sizes, {"c": c, "component": int(rng.integers(1, 3))}))
        return jobs

    def warmup(self, seed):
        rng = _rng(seed, self.tag, 1)
        return self._jobs(rng, self.COMPOSE[:1], self.HARDY[:1], self.CERTS[:1],
                          self.PROBE_C[:1])

    def cycle(self, seed, index):
        rng = _rng(seed, self.tag, 0, index)
        jobs = self._jobs(rng, self.COMPOSE, self.HARDY, self.CERTS, self.PROBE_C)
        return [jobs[i] for i in rng.permutation(len(jobs))]

    def library(self, rng) -> list[Job]:
        """One job of each kind, two compositions: the `cli` cycle's library share."""
        return self._jobs(rng, self.COMPOSE[1::4], self.HARDY[1:], self.CERTS[1:2],
                          self.PROBE_C[:1])

    def run(self, api, tr, job):
        return getattr(self, f"_run_{job.kind}")(api, tr, job)

    def _run_compose(self, api, tr, job):
        nc, tol = api.nc, api.defaults
        s, data = job.sizes, job.data
        n, e = s["n"], data["e"]
        outer = nc.FreeSeries(n, data["outer_degree"], data["outer"], e)
        inner = [nc.FreeSeries(n, data["inner_degree"], c, e) for c in data["inner"]]
        out = tr.call("series.compose", nc.compose, outer, inner, attrs=s,
                      counts=lambda r: {"terms_out": len(r.support())})
        x = data["point"]
        lhs = tr.call("series.evaluate", nc.evaluate, out, x, attrs=s)
        y = [tr.call("series.evaluate", nc.evaluate, c, x, attrs=s) for c in inner]
        rhs = tr.call("series.evaluate", nc.evaluate, outer, y, attrs=s)
        rel = float(np.max(np.abs(lhs - rhs))) / max(1.0, float(np.max(np.abs(rhs))))
        return [] if rel <= tol.ENTRYWISE_TOL else [f"nested evaluation gap {rel:.3e}"]

    def _run_hardy(self, api, tr, job):
        nc, tol = api.nc, api.defaults
        s, data = job.sizes, job.data
        n, m, N = s["n"], s["m"], s["N"]
        f = nc.PositiveRegularFunction(n, data["coeffs"])
        series = nc.FreeSeries(n, 3, data["series"], data["e"])
        radii = [0.0, 0.3, 0.6, 0.9]
        lo = tr.call("fock_model.hardy_norm_estimate", nc.hardy_norm_estimate,
                     series, f, m, N, radii, attrs=s)
        hi = tr.call("fock_model.hardy_norm_estimate", nc.hardy_norm_estimate,
                     series, f, m, N + 1, radii, attrs={**s, "N": N + 1,
                                                        "dim": word_count(n, N + 1)})
        fails = []
        slack = tol.ENTRYWISE_TOL
        for norms, depth in ((lo, N), (hi, N + 1)):
            if any(b < a - slack * max(1.0, a) for a, b in zip(norms, norms[1:])):
                fails.append(f"Hardy norms decrease in r at N={depth}: {norms}")
        if any(b < a - slack * max(1.0, a) for a, b in zip(lo, hi)):
            fails.append(f"Hardy norms decrease from N={N} to N={N + 1}")
        return fails

    def _run_rescale(self, api, tr, job):
        nc = api.nc
        s, data = job.sizes, job.data
        f = nc.PositiveRegularFunction(2, data["coeffs"])
        g = nc.PositiveRegularFunction(2, data["target"])
        cert = tr.call("rigidity.check_linear_biholomorphism",
                       nc.check_linear_biholomorphism, f, s["m"], g, s["m"],
                       np.diag(data["scales"]), s["N"], attrs=s)
        return [] if cert.passed else [f"rescaling by {data['scales']} failed"]

    def _run_ball2(self, api, tr, job):
        nc, tol = api.nc, api.defaults
        s = job.sizes
        ball = nc.unit_ball_symbol(2)
        cert = tr.call("rigidity.check_linear_biholomorphism",
                       nc.check_linear_biholomorphism, ball, 1, ball, 1,
                       2.0 * np.eye(2), s["N"], attrs=s)
        low = min(cert.forward_eigenvalues)
        if cert.passed or not abs(low + 3.0) <= tol.EIGENVALUE_TOL:
            return [f"2I on the ball: passed={cert.passed}, eigenvalue {low}"]
        return []

    def _run_probe(self, api, tr, job):
        nc = api.nc
        s, c, i = job.sizes, job.data["c"], job.data["component"]
        maps = [nc.FreeSeries(2, 2, {(j,): 1.0}) for j in (1, 2)]
        maps[i - 1] = nc.FreeSeries(2, 2, {(i,): 1.0, (i, i): c})
        result = tr.call("rigidity.cartan_iteration_probe", nc.cartan_iteration_probe,
                         maps, nc.unit_ball_symbol(2), 1, 2, attrs=s,
                         counts=lambda r: {"iterations": r.iterations_run})
        want = round(1.0 / c) + 1
        if result.status != "violation" or result.first_violation != want:
            return [f"probe c={c}: {result.status} at {result.first_violation}, "
                    f"expected violation at {want}"]
        return []


# ROADMAP open item 4: `berezin --form resolvent` falls back to the raw
# defect outside the domain and exits 0 where the kernel form exits 2.
# In the library, berezin_transform_resolvent returns a value there where
# berezin_transform_kernel raises ValueError.
RESOLVENT_NONMEMBER = "ROADMAP item 4: berezin --form resolvent exits 0 on a non-member"
RESOLVENT_RETURNED = "resolvent form returned a value on a non-member"


@dataclass
class Invocation:
    name: str
    argv: list
    expect: int
    known_defect: str | None = None  # the documented defect if it exits 0 instead
    sizes: dict = field(default_factory=dict)


class Cli(Workload):
    """Every subcommand in process through ncdomain.cli.main, JSON to a file.

    Configs and input files are written once from the seed; each cycle
    runs every invocation once, and each report body must equal the body
    of the same invocation in the warm-up.  Each cycle also runs the
    library calls behind `compose`, `norm`, `biholo` and `probe-cartan`
    (`Maps.library`, inputs fresh per cycle) and both Berezin forms on a
    tuple outside the domain, so the `series`, `rigidity` and resolvent
    rejection spans are traced on this workload.
    """

    tag = 4
    trace_cycles = 2

    def __init__(self, workdir: Path):
        self.dir = Path(tempfile.mkdtemp(prefix="cli-", dir=workdir))
        self.invocations: list[Invocation] = []
        self.bodies: dict[str, bytes] = {}
        self.maps = Maps()

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def _write(self, name: str, payload) -> str:
        path = self.dir / name
        path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
        return str(path)

    def prepare(self, seed: int) -> None:
        """Write configs and input files; input generation, not timed."""
        rng = _rng(seed, self.tag, 0)
        enc = lambda z: [float(z.real), float(z.imag)]  # noqa: E731
        mat = lambda a: [[enc(z) for z in row] for row in a]  # noqa: E731
        key = lambda w: "".join(map(str, w))  # noqa: E731

        def config(name, n, m, N, coeffs):
            sym = {"n": n, "coeffs": {key(w): a for w, a in coeffs.items()}}
            return self._write(name, {"n": n, "m": m, "N": N, "symbol": sym,
                                      "seed": int(rng.integers(1000))})

        def series(name, n, degree, coeffs):
            return self._write(name, {"n": n, "degree": degree, "coeff_dim": 1,
                                      "coeffs": {key(w): enc(c[0, 0])
                                                 for w, c in coeffs.items()}})

        big = dyadic_symbol(rng, 2, 3, 80)
        small = dyadic_symbol(rng, 2, 2, 81)
        ball = {(1,): 1.0, (2,): 1.0}
        cfg_big = config("big.json", 2, 2, 8, big)
        cfg_small = config("small.json", 2, 2, 5, small)
        cfg_ball = config("ball.json", 2, 1, 4, ball)
        scales = [float(rng.choice([0.5, 0.75, 1.25, 1.5, 2.0])) for _ in range(2)]
        target = {w: a / math.prod(scales[i - 1] ** 2 for i in w)
                  for w, a in small.items()}
        cfg_target = config("target.json", 2, 2, 4, target)
        inside = self._write("inside.json", {"matrices": [
            mat(x) for x in nilpotent_tuple(rng, small, 2, 2, 4, inside=True)]})
        inside2 = self._write("inside2.json", {"matrices": [
            mat(x) for x in nilpotent_tuple(rng, big, 2, 2, 2, inside=True)]})
        outside = self._write("outside.json", {"matrices": [
            mat(x) for x in nilpotent_tuple(rng, small, 2, 2, 4, inside=False)]})
        diag = self._write("scale.json", {"matrix": mat(np.diag(scales).astype(complex))})
        twice = self._write("twice.json", {"matrix": mat(2.0 * np.eye(2, dtype=complex))})
        hardy = series("hardy.json", 2, 3, _series_coeffs(rng, 2, 3, 1, 82))
        outer = series("outer.json", 2, 3, _series_coeffs(rng, 2, 3, 1, 83))
        inner = [series(f"inner{i}.json", 2, 2, _series_coeffs(rng, 2, 2, 1, 83 + i))
                 for i in (1, 2)]
        c = 1e-2
        probe = [series("probe1.json", 2, 2, {(1,): np.eye(1), (1, 1): c * np.eye(1)}),
                 series("probe2.json", 2, 2, {(2,): np.eye(1)})]
        words = [key(_word(rng, 2, k)) for k in (1, 2, 1, 2)]
        sz = lambda n, m, N, d=None: {"n": n, "m": m, "N": N,  # noqa: E731
                                      "dim": word_count(n, N), "d": d}
        berezin = ["berezin", "--config", cfg_small, "--tuple", inside,
                   "--alpha", words[0], "--beta", words[1]]
        self.invocations = [
            Invocation("weights", ["weights", "--config", cfg_big], 0, sizes=sz(2, 2, 8)),
            Invocation("model", ["model", "--config", cfg_big], 0, sizes=sz(2, 2, 8)),
            Invocation("member_in", ["member", "--config", cfg_small, "--tuple", inside],
                       0, sizes=sz(2, 2, 5, 4)),
            Invocation("member_out", ["member", "--config", cfg_small, "--tuple", outside],
                       1, sizes=sz(2, 2, 5, 4)),
            Invocation("norm", ["norm", "--config", cfg_small, "--series", hardy],
                       0, sizes=sz(2, 2, 5)),
            Invocation("compose", ["compose", "--outer", outer, "--inner", *inner],
                       0, sizes={"n": 2, "N": 2}),
            Invocation("berezin_kernel", berezin + ["--form", "kernel"], 0,
                       sizes=sz(2, 2, 5, 4)),
            Invocation("berezin_resolvent", berezin + ["--form", "resolvent"], 0,
                       sizes=sz(2, 2, 5, 4)),
            Invocation("berezin_both", berezin + ["--form", "both"], 0,
                       sizes=sz(2, 2, 5, 4)),
            Invocation("berezin_both_511",
                       ["berezin", "--config", cfg_big, "--tuple", inside2,
                        "--alpha", words[2], "--beta", words[3], "--form", "both"],
                       0, sizes=sz(2, 2, 8, 2)),
            Invocation("berezin_out_kernel",
                       ["berezin", "--config", cfg_small, "--tuple", outside,
                        "--form", "kernel"], 2, sizes=sz(2, 2, 5, 4)),
            Invocation("berezin_out_resolvent",
                       ["berezin", "--config", cfg_small, "--tuple", outside,
                        "--form", "resolvent"], 2, known_defect=RESOLVENT_NONMEMBER,
                       sizes=sz(2, 2, 5, 4)),
            Invocation("biholo_pass",
                       ["biholo", "--config", cfg_small, "--target-config", cfg_target,
                        "--map", diag], 0, sizes=sz(2, 2, 5)),
            Invocation("biholo_fail",
                       ["biholo", "--config", cfg_ball, "--target-config", cfg_ball,
                        "--map", twice], 1, sizes=sz(2, 1, 4)),
            Invocation("probe_cartan",
                       ["probe-cartan", "--config", cfg_ball, "--maps", *probe,
                        "--order", "2"], 1, sizes=sz(2, 1, 2)),
            Invocation("selftest",
                       ["selftest", "--profile", "fast", "--seed",
                        str(int(rng.integers(1000)))], 0),
            Invocation("usage_error", ["member", "--config", cfg_small, "--bogus"], 64),
        ]

    def _library(self, rng) -> list[Job]:
        n, m, N, d = 2, 2, 5, 4
        coeffs = dyadic_symbol(rng, n, 2, 81)
        dim = word_count(n, N)
        data = {"coeffs": coeffs, "g": _hermitian(rng, dim),
                "x": nilpotent_tuple(rng, coeffs, n, m, d, inside=False)}
        sizes = {"n": n, "m": m, "N": N, "dim": dim, "d": d, "support": len(coeffs)}
        return self.maps.library(rng) + [Job("outside", sizes, data)]

    def warmup(self, seed):
        if not self.invocations:
            self.prepare(seed)
        return ([Job("warmup", inv.sizes, {"inv": inv}) for inv in self.invocations]
                + self._library(_rng(seed, self.tag, 2)))

    def cycle(self, seed, index):
        if not self.invocations:
            self.prepare(seed)
        return ([Job("cli", inv.sizes, {"inv": inv}) for inv in self.invocations]
                + self._library(_rng(seed, self.tag, 1, index)))

    def run(self, api, tr, job):
        if job.kind == "outside":
            return self._run_outside(api, tr, job)
        if job.kind not in ("cli", "warmup"):
            return self.maps.run(api, tr, job)
        inv: Invocation = job.data["inv"]
        out = self.dir / "report.json"
        out.unlink(missing_ok=True)
        err = io.StringIO()
        subcommand = inv.argv[0]
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = tr.call(f"cli.{subcommand}", api.cli_main,
                           inv.argv + ["--format", "json", "--out", str(out)],
                           attrs={**inv.sizes, "invocation": inv.name})
        if out.exists():
            body = json.dumps(json.loads(out.read_text())["report"],
                              sort_keys=True).encode()
        else:
            body = err.getvalue().encode()
        fails = []
        if code != inv.expect:
            fails.append(f"{inv.name}: exit {code}, documented {inv.expect}")
        if job.kind == "warmup":
            self.bodies[inv.name] = body
        elif body != self.bodies.get(inv.name):
            fails.append(f"{inv.name}: report body differs from the warm-up body")
        return fails

    def _run_outside(self, api, tr, job):
        """Membership says no, and both Berezin forms must raise ValueError."""
        nc = api.nc
        s, data = job.sizes, job.data
        f = nc.PositiveRegularFunction(s["n"], data["coeffs"])
        fails = []
        verdict = tr.call("cp_maps.membership", nc.membership, f, s["m"], data["x"],
                          attrs=s)
        if verdict.member:
            fails.append("tuple built outside the domain is a member")
        for name, fn in (("kernel", nc.berezin_transform_kernel),
                         ("resolvent", nc.berezin_transform_resolvent)):
            try:
                tr.call(f"berezin.berezin_transform_{name}", fn, f, s["m"], data["x"],
                        data["g"], s["N"], attrs=s)
            except ValueError:
                continue
            fails.append(RESOLVENT_RETURNED if name == "resolvent"
                         else f"{name} form returned a value on a non-member")
        return fails

    def known_defect(self, job: Job, fails: list[str]) -> str | None:
        if job.kind == "outside":
            return RESOLVENT_NONMEMBER if fails == [RESOLVENT_RETURNED] else None
        inv = job.data.get("inv")
        if inv is not None and fails == [f"{inv.name}: exit 0, documented {inv.expect}"]:
            return inv.known_defect
        return None


def make(name: str, workdir: Path) -> Workload:
    if name == "cli":
        return Cli(workdir)
    return {"audit": Audit, "point": Point, "maps": Maps}[name]()
