"""Command line entry point.

Subcommands wrap the library operations one to one: ``weights`` prints
the weight table with its oracle cross-check, ``model`` builds and
audits a truncated model, ``member`` decides domain membership of an
operator tuple, ``norm`` evaluates Hardy norms on a radial grid,
``compose`` composes free series, ``berezin`` evaluates the transform
in one or both forms, ``biholo`` and ``probe-cartan`` run the rigidity
certificates, and ``selftest`` runs the verification suite.

Reports are deterministic: the same invocation with the same seed
produces a byte-identical body (wall time lives outside it).  Every
judged numeric carries the tolerance it was judged against.  Exit
codes: 0 on success (for verdict commands: verdict holds), 1 when a
check or verdict fails, 2 on computation errors, 64 on usage errors.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .berezin import berezin_transform_kernel, berezin_transform_resolvent
from .cp_maps import membership
from .defaults import (
    EIGENVALUE_TOL,
    ENTRYWISE_TOL,
    FORM_AGREEMENT_TOL,
    ORACLE_REL_TOL,
    dim_cap,
)
from .fock_model import (
    build_model,
    defect_diagonal,
    grade_row_diagonal,
    hardy_norm_estimate,
    model_monomial,
    symbol_row_diagonal,
)
from .io import (
    FormatError,
    _read_json,
    _require_int,
    load_matrix,
    load_series,
    load_symbol,
    load_tuple,
    save_series,
    symbol_from_mapping,
)
from .rigidity import cartan_iteration_probe, check_linear_biholomorphism
from .selftest import run_selftest
from .series import FreeSeries, PositiveRegularFunction, compose, evaluate
from .weights import binomial_constant, weights_direct, weights_oracle
from .words import parse_word, word_count

TOLERANCE_DEFAULTS = {
    "eigenvalue": EIGENVALUE_TOL,
    "oracle": ORACLE_REL_TOL,
    "form_agreement": FORM_AGREEMENT_TOL,
    "entrywise": ENTRYWISE_TOL,
}

_USAGE = """\
usage: ncdomain <subcommand> [options]

subcommands:
  weights       weight table of a domain, with independent cross-check
  model         build a truncated model and audit its defect and bounds
  member        decide membership of an operator tuple (exit 0/1)
  norm          Hardy norms of a series over a radial grid
  compose       compose free series and verify by evaluation
  berezin       Berezin transform at a tuple, kernel and resolvent forms
  biholo        certify a linear map between two domains (exit 0/1)
  probe-cartan  iterate a tangent-to-identity map and watch for drift
  selftest      run the verification suite (--profile full|fast)

common options: --config FILE, --depth/-N INT, --tol FLOAT, --seed INT,
                --out FILE, --format {text,json}
run `ncdomain <subcommand> --help` for details.
"""


@dataclass(frozen=True)
class DomainConfig:
    """Validated parameters of one domain: symbol, order, depth, seeds."""

    n: int
    m: int
    depth: int
    symbol: PositiveRegularFunction
    tolerances: dict
    seed: int


def parse_config(path) -> DomainConfig:
    """Read and validate a domain config file.

    The file is a JSON object with fields n, m, N, symbol (inline
    {"n", "coeffs"} or {"file": relative path}), and optional
    tolerances and seed.  Symbol validation reports the violated
    regularity condition by name.
    """
    data = _read_json(path)
    n = _require_int(data, "n", path)
    m = _require_int(data, "m", path)
    key = "N" if "N" in data else "depth"
    if key not in data:
        raise FormatError(f"{path}: missing field 'N'")
    depth = _require_int(data, key, path)
    if n < 1:
        raise FormatError(f"{path}: n must be >= 1, got {n}")
    if m < 1:
        raise FormatError(f"{path}: m must be >= 1, got {m}")
    if depth < 1:
        raise FormatError(f"{path}: N must be >= 1, got {depth}")
    dim = word_count(n, depth)
    if dim > dim_cap():
        raise FormatError(
            f"{path}: truncation dimension {dim} exceeds the cap {dim_cap()}"
        )
    raw = data.get("symbol")
    if not isinstance(raw, dict):
        raise FormatError(f"{path}: missing or malformed field 'symbol'")
    if "file" in raw:
        f = load_symbol(Path(path).parent / raw["file"])
    else:
        f = symbol_from_mapping(raw, where=f"{path}: symbol")
    if f.n != n:
        raise FormatError(f"{path}: symbol has n={f.n} but the config says n={n}")
    tolerances = dict(TOLERANCE_DEFAULTS)
    given = data.get("tolerances") or {}
    if not isinstance(given, dict):
        raise FormatError(f"{path}: field 'tolerances' must be an object")
    for name, value in given.items():
        if name not in TOLERANCE_DEFAULTS:
            raise FormatError(
                f"{path}: unknown tolerance {name!r}; "
                f"known: {sorted(TOLERANCE_DEFAULTS)}"
            )
        if type(value) not in (int, float) or not 0 < value <= sys.float_info.max:
            raise FormatError(f"{path}: tolerance {name!r} must be finite and > 0")
        tolerances[name] = float(value)
    seed = _require_int(data, "seed", path) if "seed" in data else 0
    if seed < 0:
        raise FormatError(f"{path}: seed must be nonnegative, got {seed}")
    return DomainConfig(n, m, depth, f, tolerances, seed)


def _load_config(ns) -> DomainConfig:
    cfg = parse_config(ns.config)
    if getattr(ns, "depth", None) is not None:
        if ns.depth < 1:
            raise ValueError(f"--depth must be >= 1, got {ns.depth}")
        dim = word_count(cfg.n, ns.depth)
        if dim > dim_cap():
            raise ValueError(
                f"truncation dimension {dim} exceeds the cap {dim_cap()}"
            )
        cfg = replace(cfg, depth=ns.depth)
    if ns.seed is not None:
        if ns.seed < 0:
            raise ValueError(f"--seed must be nonnegative, got {ns.seed}")
        cfg = replace(cfg, seed=ns.seed)
    return cfg


def _jsonable(x):
    """Convert numerics recursively into JSON-stable values.

    Complex numbers become [re, im] pairs; arrays become nested lists.
    Floats keep full repr precision, so serialization is reproducible.
    """
    if x is None or isinstance(x, (bool, int, float, str)):
        return x
    if isinstance(x, complex):
        return [x.real, x.imag]
    if isinstance(x, np.generic):
        return _jsonable(x.item())
    if isinstance(x, np.ndarray):
        return _jsonable(x.tolist())
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    raise TypeError(f"cannot serialize {type(x).__name__}")


def _digest(inputs: dict) -> str:
    blob = json.dumps(_jsonable(inputs), sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass
class Report:
    """Accumulates the results and judged checks of one subcommand."""

    command: str
    inputs: dict
    seed: int
    results: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)

    def add_check(
        self, name: str, value, tol: float, passed: bool, detail: str = ""
    ) -> None:
        self.checks.append(
            {
                "name": name,
                "value": _jsonable(value),
                "tol": tol,
                "passed": bool(passed),
                "detail": detail,
            }
        )

    @property
    def all_passed(self) -> bool:
        return all(c["passed"] for c in self.checks)

    def body(self) -> dict:
        return {
            "command": self.command,
            "inputs_digest": _digest(self.inputs),
            "seed": self.seed,
            "results": _jsonable(self.results),
            "checks": self.checks,
        }


def _render(value) -> str:
    if isinstance(value, str):
        return value
    text = json.dumps(_jsonable(value))
    if len(text) > 160:
        text = text[:157] + "..."
    return text


def _human_lines(body: dict) -> list[str]:
    lines = [f"ncdomain {body['command']}"]
    lines.append(f"  inputs: sha256:{body['inputs_digest'][:16]}")
    lines.append(f"  seed: {body['seed']}")
    for key, value in body["results"].items():
        if isinstance(value, dict):
            lines.append(f"  {key}:")
            for sub, item in value.items():
                lines.append(f"    {sub if sub else '(unit)'}: {_render(item)}")
        else:
            lines.append(f"  {key}: {_render(value)}")
    for c in body["checks"]:
        flag = "PASS" if c["passed"] else "FAIL"
        line = (
            f"  check {c['name']}: value={_render(c['value'])} "
            f"tol={_render(c['tol'])} {flag}"
        )
        if c["detail"]:
            line += f"  ({c['detail']})"
        lines.append(line)
    return lines


def _write_output(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _emit(body: dict, wall: float, fmt: str, out: str | None) -> None:
    if fmt == "json":
        payload = {"report": body, "wall_time_s": wall}
        _write_output(json.dumps(payload, indent=2, sort_keys=True) + "\n", out)
        for line in _human_lines(body):
            print(line, file=sys.stderr)
    else:
        lines = _human_lines(body)
        lines.append(f"  wall_time_s: {wall:.3f}")
        _write_output("\n".join(lines) + "\n", out)


def _finish(report: Report, ns, start: float, exit_code: int | None = None) -> int:
    wall = time.perf_counter() - start
    _emit(report.body(), wall, ns.format, ns.out)
    if exit_code is not None:
        return exit_code
    return 0 if report.all_passed else 1


def _parser(name: str, description: str, config: bool = True):
    p = argparse.ArgumentParser(prog=f"ncdomain {name}", description=description)
    if config:
        p.add_argument("--config", required=True, help="domain config file (JSON)")
        p.add_argument(
            "-N", "--depth", type=int, default=None,
            help="override the truncation depth from the config",
        )
    p.add_argument(
        "--tol", type=float, default=None,
        help="override the tolerance for this command's checks",
    )
    p.add_argument("--seed", type=int, default=None, help="override the random seed")
    p.add_argument("--out", default=None, help="write the report to this file")
    p.add_argument(
        "--format", choices=("text", "json"), default="text", help="report format"
    )
    return p


def _config_inputs(cfg: DomainConfig) -> dict:
    return {
        "n": cfg.n,
        "m": cfg.m,
        "N": cfg.depth,
        "symbol": {
            "".join(map(str, w)): v for w, v in cfg.symbol.items()
        },
        "tolerances": cfg.tolerances,
        "seed": cfg.seed,
    }


def _cmd_weights(rest) -> int:
    p = _parser("weights", "Weight table of the domain with oracle cross-check.")
    ns = p.parse_args(rest)
    start = time.perf_counter()
    cfg = _load_config(ns)
    tol = ns.tol if ns.tol is not None else cfg.tolerances["oracle"]
    direct = weights_direct(cfg.symbol, cfg.m, cfg.depth)
    oracle = weights_oracle(cfg.symbol, cfg.m, cfg.depth)
    table = {}
    rel = 0.0
    for word, value in direct.items():
        table["".join(map(str, word))] = value
        ref = oracle[word]
        rel = max(rel, abs(value - ref) / abs(ref))
    report = Report("weights", _config_inputs(cfg), cfg.seed)
    report.results["dim"] = len(direct)
    report.results["table"] = table
    report.add_check(
        "oracle_agreement", rel, tol, rel <= tol,
        "largest relative difference against the series oracle",
    )
    return _finish(report, ns, start)


def _cmd_model(rest) -> int:
    p = _parser("model", "Build a truncated model and audit defect and norm bounds.")
    ns = p.parse_args(rest)
    start = time.perf_counter()
    cfg = _load_config(ns)
    tol = ns.tol if ns.tol is not None else cfg.tolerances["entrywise"]
    model = build_model(cfg.symbol, cfg.m, cfg.depth)
    defect = defect_diagonal(model)
    vacuum = np.zeros(model.dim)
    vacuum[0] = 1.0
    defect_gap = float(np.max(np.abs(defect - vacuum)))
    row_excess = float(np.max(symbol_row_diagonal(model))) - 1.0
    grade_excess = -np.inf
    for k in range(1, cfg.depth + 1):
        top = float(np.max(grade_row_diagonal(model, k)))
        grade_excess = max(grade_excess, top - binomial_constant(k, cfg.m))
    report = Report("model", _config_inputs(cfg), cfg.seed)
    report.results["dim"] = model.dim
    report.results["defect_rank"] = int(np.count_nonzero(np.abs(defect) > 1e-8))
    report.add_check(
        "defect_rank_one", defect_gap, tol, defect_gap <= tol,
        "entrywise gap between the m-fold defect and the vacuum projection",
    )
    report.add_check(
        "row_contraction", row_excess, tol, row_excess <= tol,
        "excess of sum a_w V_w V_w^* over the identity",
    )
    report.add_check(
        "grade_bounds", grade_excess, tol, grade_excess <= tol,
        "largest excess of a grade row sum over its binomial bound",
    )
    return _finish(report, ns, start)


def _cmd_member(rest) -> int:
    p = _parser("member", "Decide membership of an operator tuple in the domain.")
    p.add_argument("--tuple", required=True, dest="tuple_path",
                   help="operator tuple file")
    ns = p.parse_args(rest)
    start = time.perf_counter()
    cfg = _load_config(ns)
    tol = ns.tol if ns.tol is not None else cfg.tolerances["eigenvalue"]
    mats = load_tuple(ns.tuple_path)
    verdict = membership(cfg.symbol, cfg.m, mats, tol=tol)
    inputs = _config_inputs(cfg)
    inputs["tuple"] = mats
    report = Report("member", inputs, cfg.seed)
    report.results["member"] = verdict.member
    report.results["row_norm"] = verdict.row_norm
    report.results["row_norm_bound"] = verdict.row_norm_bound
    for k, value in enumerate(verdict.min_eigenvalues, start=1):
        report.add_check(
            f"defect_level_{k}", value, tol, value >= -tol,
            "min eigenvalue of (id - Phi)^k(I)",
        )
    report.add_check(
        "row_bound", verdict.row_norm - verdict.row_norm_bound, tol,
        verdict.bound_ok, "excess of the row norm over 1 / min_i a_i",
    )
    return _finish(report, ns, start, exit_code=0 if verdict.member else 1)


def _cmd_norm(rest) -> int:
    p = _parser("norm", "Hardy norms of a series at the scaled model.")
    p.add_argument("--series", required=True, help="free series file")
    p.add_argument(
        "--radii", default="0.0,0.3,0.6,0.9",
        help="comma-separated nondecreasing radii in [0, 1)",
    )
    ns = p.parse_args(rest)
    start = time.perf_counter()
    cfg = _load_config(ns)
    tol = ns.tol if ns.tol is not None else cfg.tolerances["entrywise"]
    series = load_series(ns.series)
    grid = [float(s) for s in ns.radii.split(",")]
    norms = hardy_norm_estimate(series, cfg.symbol, cfg.m, cfg.depth, grid)
    inputs = _config_inputs(cfg)
    inputs["series"] = {"".join(map(str, w)): c for w, c in series.items()}
    inputs["radii"] = grid
    report = Report("norm", inputs, cfg.seed)
    report.results["radii"] = grid
    report.results["norms"] = norms
    worst = max(
        (a - b for a, b in zip(norms, norms[1:])), default=0.0
    )
    report.add_check(
        "monotone_in_r", worst, tol, worst <= tol,
        "largest decrease between consecutive radii",
    )
    return _finish(report, ns, start)


def _series_inputs(series: FreeSeries) -> dict:
    # mirror the series file format, so reports embed reusable payloads
    coeffs = {}
    for word, mat in series.items():
        key = "".join(map(str, word))
        coeffs[key] = mat[0, 0] if series.coeff_dim == 1 else mat
    return {
        "n": series.n,
        "degree": series.degree,
        "coeff_dim": series.coeff_dim,
        "coeffs": coeffs,
    }


def _cmd_compose(rest) -> int:
    p = _parser("compose", "Compose free series and verify by evaluation.",
                config=False)
    p.add_argument("--outer", required=True, help="outer series file")
    p.add_argument("--inner", required=True, nargs="+",
                   help="inner series files, one per outer generator")
    p.add_argument("--save", default=None, help="write the composition here")
    ns = p.parse_args(rest)
    start = time.perf_counter()
    tol = ns.tol if ns.tol is not None else ENTRYWISE_TOL
    seed = ns.seed if ns.seed is not None else 0
    if seed < 0:
        raise ValueError(f"--seed must be nonnegative, got {seed}")
    outer = load_series(ns.outer)
    inner = [load_series(path) for path in ns.inner]
    composed = compose(outer, inner)
    if ns.save:
        save_series(composed, ns.save)
    # verification: lift the inner degrees until the truncation is exact,
    # then composition must commute with evaluation at a random tuple
    full_degree = max(1, outer.degree * max((s.degree for s in inner), default=1))
    exact = compose(outer, [s.truncated(full_degree) for s in inner])
    rng = np.random.default_rng([seed, 97])
    d = 2
    n = exact.n
    x = [
        (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / 2.0
        for _ in range(n)
    ]
    lhs = evaluate(exact, x)
    rhs = evaluate(outer, [evaluate(s, x) for s in inner])
    scale = max(1.0, float(np.max(np.abs(rhs))))
    rel = float(np.max(np.abs(lhs - rhs))) / scale
    inputs = {
        "outer": _series_inputs(outer),
        "inner": [_series_inputs(s) for s in inner],
        "seed": seed,
    }
    report = Report("compose", inputs, seed)
    report.results["series"] = _series_inputs(composed)
    report.add_check(
        "nested_evaluation", rel, tol, rel <= tol,
        "relative gap to nested evaluation at a random tuple",
    )
    return _finish(report, ns, start)


def _cmd_berezin(rest) -> int:
    p = _parser("berezin", "Berezin transform of an observable at a tuple.")
    p.add_argument("--tuple", required=True, dest="tuple_path",
                   help="operator tuple file")
    p.add_argument("--g", default=None,
                   help="observable matrix file (defaults to V_alpha V_beta^*)")
    p.add_argument("--alpha", default="", help="left word for the observable")
    p.add_argument("--beta", default="", help="right word for the observable")
    p.add_argument("--form", choices=("kernel", "resolvent", "both"),
                   default="both")
    ns = p.parse_args(rest)
    start = time.perf_counter()
    cfg = _load_config(ns)
    tol = ns.tol if ns.tol is not None else cfg.tolerances["form_agreement"]
    eig_tol = cfg.tolerances["eigenvalue"]
    mats = load_tuple(ns.tuple_path)
    model = build_model(cfg.symbol, cfg.m, cfg.depth)
    if ns.g is not None:
        g = load_matrix(ns.g)
        g_label = ns.g
    else:
        alpha = parse_word(ns.alpha, cfg.n)
        beta = parse_word(ns.beta, cfg.n)
        g = model_monomial(model, alpha) @ model_monomial(model, beta).conj().T
        g_label = f"V_{ns.alpha or 'unit'} V_{ns.beta or 'unit'}^*"
    inputs = _config_inputs(cfg)
    inputs["tuple"] = mats
    inputs["g"] = g
    inputs["form"] = ns.form
    report = Report("berezin", inputs, cfg.seed)
    report.results["observable"] = g_label
    kv = rv = None
    if ns.form in ("kernel", "both"):
        kv = berezin_transform_kernel(
            cfg.symbol, cfg.m, mats, g, cfg.depth, tol=eig_tol
        )
        report.results["kernel"] = kv
    if ns.form in ("resolvent", "both"):
        rv, diag = berezin_transform_resolvent(
            cfg.symbol, cfg.m, mats, g, cfg.depth, tol=eig_tol,
            with_diagnostics=True,
        )
        report.results["resolvent"] = rv
        report.results["growth_estimate"] = diag.growth_estimate
        report.results["radius_estimate"] = diag.radius_estimate
    if ns.form == "both":
        gap = float(np.max(np.abs(kv - rv)))
        report.add_check(
            "form_agreement", gap, tol, gap <= tol,
            "entrywise gap between the kernel and resolvent forms",
        )
    return _finish(report, ns, start)


def _cmd_biholo(rest) -> int:
    p = _parser("biholo", "Certify a linear map between two domains.")
    p.add_argument("--target-config", required=True, dest="target_config",
                   help="config of the codomain")
    p.add_argument("--map", required=True, dest="map_path",
                   help="matrix file for the candidate U")
    ns = p.parse_args(rest)
    start = time.perf_counter()
    cfg = _load_config(ns)
    target = parse_config(ns.target_config)
    tol = ns.tol if ns.tol is not None else cfg.tolerances["eigenvalue"]
    u = load_matrix(ns.map_path)
    cert = check_linear_biholomorphism(
        cfg.symbol, cfg.m, target.symbol, target.m, u, cfg.depth, tol=tol
    )
    inputs = _config_inputs(cfg)
    inputs["target"] = _config_inputs(target)
    inputs["map"] = u
    report = Report("biholo", inputs, cfg.seed)
    report.results["forward_member"] = cert.forward_member
    report.results["backward_member"] = cert.backward_member
    fwd = min(cert.forward_eigenvalues)
    bwd = min(cert.backward_eigenvalues)
    report.add_check(
        "forward", fwd, tol, cert.forward_member,
        "min defect eigenvalue of the image model in the codomain",
    )
    report.add_check(
        "backward", bwd, tol, cert.backward_member,
        "min defect eigenvalue of the inverse image in the domain",
    )
    return _finish(report, ns, start, exit_code=0 if cert.passed else 1)


def _cmd_probe_cartan(rest) -> int:
    p = _parser("probe-cartan",
                "Iterate a tangent-to-identity map and watch for drift.")
    p.add_argument("--maps", required=True, nargs="+",
                   help="series files, one component per generator")
    p.add_argument("--order", type=int, default=None,
                   help="jet truncation degree (default: largest map degree)")
    p.add_argument("--iterations", type=int, default=10_000,
                   help="iteration budget")
    ns = p.parse_args(rest)
    start = time.perf_counter()
    cfg = _load_config(ns)
    tol = ns.tol if ns.tol is not None else cfg.tolerances["eigenvalue"]
    maps = [load_series(path) for path in ns.maps]
    order = ns.order
    if order is None:
        order = max(2, max(s.degree for s in maps))
    result = cartan_iteration_probe(
        maps, cfg.symbol, cfg.m, order, n_iter=ns.iterations, tol=tol
    )
    inputs = _config_inputs(cfg)
    inputs["maps"] = [_series_inputs(s) for s in maps]
    inputs["order"] = order
    inputs["iterations"] = ns.iterations
    report = Report("probe-cartan", inputs, cfg.seed)
    report.results["status"] = result.status
    report.results["first_violation"] = result.first_violation
    report.results["witness_word"] = (
        "".join(map(str, result.witness_word))
        if result.witness_word is not None
        else None
    )
    report.results["iterations_run"] = result.iterations_run
    report.add_check(
        "identity_consistency", result.drift - result.bound, tol,
        result.status != "violation",
        "drift of the witness vector minus the row bound (negative is safe)",
    )
    exit_code = 1 if result.status == "violation" else 0
    return _finish(report, ns, start, exit_code=exit_code)


def _cmd_selftest(rest) -> int:
    p = _parser("selftest", "Run the verification suite.", config=False)
    p.add_argument("--profile", choices=("full", "fast"), default="full")
    ns = p.parse_args(rest)
    start = time.perf_counter()
    seed = ns.seed if ns.seed is not None else 0
    outcome = run_selftest(ns.profile, seed)
    report = Report("selftest", {"profile": ns.profile, "seed": seed}, seed)
    report.results["profile"] = outcome.profile
    report.results["passed"] = outcome.passed
    for c in outcome.checks:
        report.add_check(c.name, c.value, c.tol, c.passed, c.detail)
    return _finish(report, ns, start, exit_code=0 if outcome.passed else 1)


_HANDLERS = {
    "weights": _cmd_weights,
    "model": _cmd_model,
    "member": _cmd_member,
    "norm": _cmd_norm,
    "compose": _cmd_compose,
    "berezin": _cmd_berezin,
    "biholo": _cmd_biholo,
    "probe-cartan": _cmd_probe_cartan,
    "selftest": _cmd_selftest,
}


def main(argv=None) -> int:
    args = list(sys.argv[1:]) if argv is None else list(argv)
    if not args:
        print(_USAGE, file=sys.stderr, end="")
        return 64
    if args[0] in ("-h", "--help"):
        print(_USAGE, end="")
        return 0
    handler = _HANDLERS.get(args[0])
    if handler is None:
        print(f"ncdomain: unknown subcommand {args[0]!r}", file=sys.stderr)
        print(_USAGE, file=sys.stderr, end="")
        return 64
    try:
        return handler(args[1:])
    except SystemExit as exc:
        # argparse exits: 0 for --help, usage errors otherwise
        return 0 if exc.code in (None, 0) else 64
    except (ValueError, KeyError, OSError, RuntimeError,
            np.linalg.LinAlgError) as exc:
        print(f"ncdomain {args[0]}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
