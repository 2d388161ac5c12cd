"""Command line entry point.

Subcommands wrap the library operations one to one; `COMMANDS` lists
them with one description each, which both the top-level usage and
the subcommand's ``--help`` print.

Every subcommand runs through one skeleton, `_run`, driven by its row
in `COMMANDS`: it builds the parser from the common flags and the
command's own (each command registers only the flags it reads), loads
the config with the ``--depth`` override, resolves the tolerance, and
hands ``(ns, cfg, tol, report)`` to the handler.  Only `compose` and
`selftest` draw random numbers, so only they take ``--seed`` and only
their reports carry a seed; a config's ``seed`` key is checked (an
integer >= 0) and then dropped.
Input values pass one gate whether they come from a config file or a
flag: `_check_depth` (>= 1, basis under the cap), `_check_seed` (>= 0) and
`_check_tolerance` (finite and > 0).  Every input file, the config and
its symbol included, is read through its layout in `io._fields`.

Each handler imports the layers it runs when it is called, so a process
running one subcommand loads only those layers; at module level this
file loads only what `_run` needs (`defaults`, `io` and `words`).

Reports are deterministic: the same inputs (and seed, where one is
taken) produce a byte-identical body (wall time lives outside it).
Every judged numeric is a `defaults.CheckResult`, the package's one
check record, and carries the tolerance it was judged against; where
selftest judges the same identity, both call one measuring function.
Exit codes: 0 on success (for verdict commands: verdict holds), 1 when
a check fails (for `member`: when the tuple is not a member), 2 on
computation errors and rejected input values, 64 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

from .defaults import (
    EIGENVALUE_TOL,
    ENTRYWISE_TOL,
    FORM_AGREEMENT_TOL,
    ORACLE_REL_TOL,
    CheckResult,
)
from .io import (
    FormatError,
    _fields,
    _read_json,
    load_matrix,
    load_series,
    load_symbol,
    load_tuple,
    save_series,
    series_payload,
    symbol_from_mapping,
)
from .series import PositiveRegularFunction
from .words import capped_word_count, parse_word, word_text

TOLERANCE_DEFAULTS = {
    "eigenvalue": EIGENVALUE_TOL,
    "oracle": ORACLE_REL_TOL,
    "form_agreement": FORM_AGREEMENT_TOL,
    "entrywise": ENTRYWISE_TOL,
}


@dataclass(frozen=True)
class DomainConfig:
    """Validated parameters of one domain: symbol, order, depth, tolerances.

    A config file's ``seed`` key is validated so that existing configs
    load, but it is not kept: no command reads it.
    """

    n: int
    m: int
    depth: int
    symbol: PositiveRegularFunction
    tolerances: dict


def _check_depth(n: int, depth: int, where: str) -> int:
    if depth < 1:
        raise FormatError(f"{where} must be >= 1, got {depth}")
    capped_word_count(n, depth, where)
    return depth


def _check_seed(seed: int, where: str) -> int:
    if seed < 0:
        raise FormatError(f"{where} must be nonnegative, got {seed}")
    return seed


def _check_tolerance(value, where: str) -> float:
    if type(value) not in (int, float) or not 0 < value <= sys.float_info.max:
        raise FormatError(f"{where} must be finite and > 0, got {value!r}")
    return float(value)


def parse_config(path) -> DomainConfig:
    """Read and validate a domain config file.

    The file is a JSON object with fields n, m, N, symbol (inline
    {"n", "coeffs"} or {"file": path relative to the config}), and
    optional tolerances and seed; `io._fields` refuses any other field at
    every level.  Symbol validation names the violated regularity condition.
    """
    data = _fields(_read_json(path), path, {"n": int, "m": int, "N": int, "symbol": dict},
                   {"tolerances": dict, "seed": int})
    n, m, depth, raw = data["n"], data["m"], data["N"], data["symbol"]
    for key in ("n", "m"):
        if data[key] < 1:
            raise FormatError(f"{path}: {key} must be >= 1, got {data[key]}")
    _check_depth(n, depth, f"{path}: N")
    if "file" in raw:
        _fields(raw, f"{path}: symbol", {"file": str})
        f = load_symbol(Path(path).parent / raw["file"])
    else:
        f = symbol_from_mapping(raw, where=f"{path}: symbol")
    if f.n != n:
        raise FormatError(f"{path}: symbol has n={f.n} but the config says n={n}")
    tolerances = dict(TOLERANCE_DEFAULTS)
    for name, value in data.get("tolerances", {}).items():
        if name not in TOLERANCE_DEFAULTS:
            raise FormatError(
                f"{path}: unknown tolerance {name!r}; "
                f"known: {sorted(TOLERANCE_DEFAULTS)}"
            )
        tolerances[name] = _check_tolerance(value, f"{path}: tolerance {name!r}")
    if "seed" in data:
        _check_seed(data["seed"], f"{path}: seed")
    return DomainConfig(n, m, depth, f, tolerances)


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


def _array_entry(x) -> dict:
    """An input array in the digest: its shape and the sha256 of its bytes.

    The bytes are those of the C-ordered little-endian complex128 array,
    hashed in place (a copy only where the layout or dtype differs), so
    any memory layout of the same values hashes alike.
    """
    import hashlib

    if not isinstance(x, np.ndarray):
        raise TypeError(f"cannot digest {type(x).__name__}")
    data = np.ascontiguousarray(x, dtype="<c16")
    return {"shape": list(x.shape), "sha256": hashlib.sha256(data).hexdigest()}


def _digest(inputs: dict) -> str:
    """sha256 of the sorted-keys JSON of the inputs, arrays by `_array_entry`."""
    import hashlib

    blob = json.dumps(inputs, sort_keys=True, default=_array_entry)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass
class Report:
    """Accumulates the results and judged checks of one subcommand."""

    command: str
    inputs: dict
    seed: int | None
    results: dict = field(default_factory=dict)
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def body(self) -> dict:
        seed = {} if self.seed is None else {"seed": self.seed}
        checks = [
            {"name": c.name, "value": _jsonable(c.value), "tol": c.tol,
             "passed": bool(c.passed), "detail": c.detail}
            for c in self.checks
        ]
        return {
            "command": self.command,
            "inputs_digest": _digest(self.inputs),
            **seed,
            "results": _jsonable(self.results),
            "checks": checks,
        }


def _render(value) -> str:
    if isinstance(value, str):
        return value
    if type(value) is float and math.isfinite(value):
        return repr(value)  # the text json.dumps writes, without its encoder
    text = json.dumps(_jsonable(value))
    if len(text) > 160:
        text = text[:157] + "..."
    return text


def _human_lines(body: dict) -> list[str]:
    lines = [f"ncdomain {body['command']}"]
    lines.append(f"  inputs: sha256:{body['inputs_digest'][:16]}")
    if "seed" in body:
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


def _config_inputs(cfg: DomainConfig) -> dict:
    return {
        "n": cfg.n,
        "m": cfg.m,
        "N": cfg.depth,
        "symbol": {word_text(w): v for w, v in cfg.symbol.items()},
        "tolerances": cfg.tolerances,
    }


def _cmd_weights(ns, cfg: DomainConfig, tol: float, report: Report):
    from .weights import oracle_gap, weights_direct, weights_oracle

    direct = weights_direct(cfg.symbol, cfg.m, cfg.depth)
    oracle = weights_oracle(cfg.symbol, cfg.m, cfg.depth)
    report.results["dim"] = len(direct)
    report.results["table"] = {word_text(w): v for w, v in direct.items()}
    report.checks.append(CheckResult.at_most(
        "oracle_agreement", oracle_gap(direct, oracle), tol,
        "largest relative difference against the series oracle",
    ))


def _cmd_model(ns, cfg: DomainConfig, tol: float, report: Report):
    from .fock_model import bound_excesses, build_model, defect_diagonal, vacuum_gap

    model = build_model(cfg.symbol, cfg.m, cfg.depth)
    defect = defect_diagonal(model)
    row_excess, grade_excess = bound_excesses(model)
    report.results["dim"] = model.index.dim
    report.results["defect_rank"] = int(np.count_nonzero(np.abs(defect) > 1e-8))
    report.checks += [
        CheckResult.at_most(
            "defect_rank_one", vacuum_gap(defect), tol,
            "entrywise gap between the m-fold defect and the vacuum projection",
        ),
        CheckResult.at_most(
            "row_contraction", row_excess, tol,
            "excess of sum a_w V_w V_w^* over the identity",
        ),
        CheckResult.at_most(
            "grade_bounds", grade_excess, tol,
            "largest excess of a grade row sum over its binomial bound",
        ),
    ]


def _cmd_member(ns, cfg: DomainConfig, tol: float, report: Report) -> int:
    from .cp_maps import membership

    mats = load_tuple(ns.tuple_path)
    verdict = membership(cfg.symbol, cfg.m, mats, tol=tol)
    report.inputs["tuple"] = mats
    report.results["member"] = verdict.member
    report.results["row_norm"] = verdict.row_norm
    report.results["row_norm_bound"] = verdict.row_norm_bound
    for k, value in enumerate(verdict.min_eigenvalues, start=1):
        report.checks.append(CheckResult(
            f"defect_level_{k}", value, tol, value >= -tol,
            "min eigenvalue of (id - Phi)^k(I)",
        ))
    report.checks.append(CheckResult(
        "row_bound", verdict.row_norm - verdict.row_norm_bound, tol,
        verdict.bound_ok, "excess of the row norm over 1 / min_i a_i",
    ))
    # the exit follows the membership verdict, not the row bound
    return 0 if verdict.member else 1


def _cmd_norm(ns, cfg: DomainConfig, tol: float, report: Report):
    from .fock_model import _radial_grid, hardy_norm_estimate

    series = load_series(ns.series)
    try:
        grid = _radial_grid([float(s) for s in ns.radii.split(",")])
    except ValueError as exc:
        raise ValueError(f"--radii: {exc}") from None
    norms = hardy_norm_estimate(series, cfg.symbol, cfg.m, cfg.depth, grid)
    report.inputs["series"] = {word_text(w): c for w, c in series.items()}
    report.inputs["radii"] = grid
    report.results["radii"] = grid
    report.results["norms"] = norms
    worst = max(
        (a - b for a, b in zip(norms, norms[1:])), default=0.0
    )
    report.checks.append(CheckResult.at_most(
        "monotone_in_r", worst, tol, "largest decrease between consecutive radii"
    ))


def _cmd_compose(ns, cfg: None, tol: float, report: Report):
    from .linalg import _gaussian_tuple
    from .series import compose, nested_evaluation_gap

    outer = load_series(ns.outer)
    inner = [load_series(path) for path in ns.inner]
    composed = compose(outer, inner)
    if ns.save:
        save_series(composed, ns.save)
    # verification at a strictly upper triangular (D+1) x (D+1) tuple, D the
    # composed degree: every word longer than D vanishes there, so nested
    # evaluation must reproduce the truncated composition itself
    rng = np.random.default_rng([report.seed, 97])
    d = composed.degree + 1
    x = np.triu(_gaussian_tuple(composed.n, d, rng), k=1) / 2.0
    # the report embeds the series file payloads, so they can be reused
    report.inputs["outer"] = series_payload(outer)
    report.inputs["inner"] = [series_payload(s) for s in inner]
    report.results["series"] = series_payload(composed)
    report.checks.append(CheckResult.at_most(
        "nested_evaluation", nested_evaluation_gap(outer, inner, composed, x), tol,
        "relative gap to nested evaluation at a random nilpotent tuple",
    ))


def _cmd_berezin(ns, cfg: DomainConfig, tol: float, report: Report):
    from .berezin import berezin_transform_kernel, berezin_transform_resolvent
    from .cp_maps import _point_state, _radius_estimate
    from .fock_model import _pair_entries, build_model

    eig_tol = cfg.tolerances["eigenvalue"]
    mats = load_tuple(ns.tuple_path)
    report.inputs["tuple"] = mats
    if ns.g is not None:
        g = load_matrix(ns.g)
        report.inputs["g"] = g  # its bytes are in inputs_digest, its path is not
        g_label = "matrix file"
    else:
        alpha = parse_word(ns.alpha, cfg.n)
        beta = parse_word(ns.beta, cfg.n)
        # the at most dim entries of V_alpha V_beta^*, digested by its words
        g = _pair_entries(build_model(cfg.symbol, cfg.m, cfg.depth), alpha, beta)
        report.inputs["g"] = {"alpha": word_text(alpha), "beta": word_text(beta)}
        g_label = f"V_{ns.alpha or 'unit'} V_{ns.beta or 'unit'}^*"
    report.inputs["form"] = ns.form
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
        # the support the resolvent form just read, from the point cache
        state = _point_state(cfg.symbol, cfg.m, mats)
        report.results["radius_estimate"] = _radius_estimate(state.support).final
    if ns.form == "both":
        report.checks.append(CheckResult.at_most(
            "form_agreement", float(np.max(np.abs(kv - rv))), tol,
            "entrywise gap between the kernel and resolvent forms",
        ))


def _cmd_biholo(ns, cfg: DomainConfig, tol: float, report: Report):
    from .rigidity import check_linear_biholomorphism

    target = parse_config(ns.target_config)
    u = load_matrix(ns.map_path)
    cert = check_linear_biholomorphism(
        cfg.symbol, cfg.m, target.symbol, target.m, u, cfg.depth, tol=tol
    )
    report.inputs["target"] = _config_inputs(target)
    report.inputs["map"] = u
    report.results["forward_member"] = cert.forward_member
    report.results["backward_member"] = cert.backward_member
    report.checks += [
        CheckResult(
            "forward", min(cert.forward_eigenvalues), tol, cert.forward_member,
            "min defect eigenvalue of the image model in the codomain",
        ),
        CheckResult(
            "backward", min(cert.backward_eigenvalues), tol, cert.backward_member,
            "min defect eigenvalue of the inverse image in the domain",
        ),
    ]


def _cmd_probe_cartan(ns, cfg: DomainConfig, tol: float, report: Report):
    from .rigidity import cartan_iteration_probe

    maps = [load_series(path) for path in ns.maps]
    order = ns.order
    if order is None:
        order = max(2, max(s.degree for s in maps))
    result = cartan_iteration_probe(
        maps, cfg.symbol, cfg.m, order, n_iter=ns.iterations, tol=tol
    )
    report.inputs["maps"] = [series_payload(s) for s in maps]
    report.inputs["order"] = order
    report.inputs["iterations"] = ns.iterations
    report.results["status"] = result.status
    report.results["first_violation"] = result.first_violation
    report.results["witness_word"] = (
        word_text(result.witness_word) if result.witness_word is not None else None
    )
    report.results["iterations_run"] = result.iterations_run
    report.checks.append(CheckResult(
        "identity_consistency", result.drift - result.bound, tol,
        result.status != "violation",
        "drift of the witness vector minus the row bound (negative is safe)",
    ))


def _cmd_selftest(ns, cfg: None, tol: None, report: Report):
    from .selftest import run_selftest

    outcome = run_selftest(ns.profile, report.seed)
    report.inputs["profile"] = ns.profile
    report.results["profile"] = outcome.profile
    report.results["passed"] = outcome.passed
    report.checks += outcome.checks


def _flag(*names: str, **options) -> tuple:
    return names, options


_TUPLE = _flag("--tuple", required=True, dest="tuple_path", help="operator tuple file")
_SEED = _flag("--seed", type=int, default=0, help="random seed")


@dataclass(frozen=True)
class Command:
    """A subcommand's handler, the tolerance that ``--tol`` overrides (None:
    no ``--tol``), its description, whether it reads a domain config, its
    own flags, and the pairs of its flags (by dest) that may not be given
    together."""

    handler: Callable
    tolerance: str | None
    description: str
    config: bool = True
    flags: tuple = ()
    conflicts: tuple = ()


COMMANDS = {
    "weights": Command(_cmd_weights, "oracle",
                       "weight table of a domain, with independent cross-check"),
    "model": Command(_cmd_model, "entrywise",
                     "build a truncated model and audit its defect and bounds"),
    "member": Command(_cmd_member, "eigenvalue",
                      "decide membership of an operator tuple (exit 0/1)",
                      flags=(_TUPLE,)),
    "norm": Command(
        _cmd_norm, "entrywise", "Hardy norms of a series over a radial grid",
        flags=(
            _flag("--series", required=True, help="free series file"),
            _flag("--radii", default="0.0,0.3,0.6,0.9",
                  help="comma-separated nondecreasing radii in [0, 1)"),
        ),
    ),
    "compose": Command(
        _cmd_compose, "entrywise", "compose free series and verify by evaluation",
        config=False,
        flags=(
            _flag("--outer", required=True, help="outer series file"),
            _flag("--inner", required=True, nargs="+",
                  help="inner series files, one per outer generator"),
            _flag("--save", default=None, help="write the composition here"),
            _SEED,
        ),
    ),
    "berezin": Command(
        _cmd_berezin, "form_agreement",
        "Berezin transform at a tuple, kernel and resolvent forms",
        flags=(
            _TUPLE,
            _flag("--g", default=None,
                  help="observable matrix file (defaults to V_alpha V_beta^*)"),
            _flag("--alpha", default="", help="left word for the observable"),
            _flag("--beta", default="", help="right word for the observable"),
            _flag("--form", choices=("kernel", "resolvent", "both"), default="both"),
        ),
        # an observable is a matrix file or a word pair, never both
        conflicts=(("g", "alpha"), ("g", "beta")),
    ),
    "biholo": Command(
        _cmd_biholo, "eigenvalue", "certify a linear map between two domains (exit 0/1)",
        flags=(
            _flag("--target-config", required=True, dest="target_config",
                  help="config of the codomain"),
            _flag("--map", required=True, dest="map_path",
                  help="matrix file for the candidate U"),
        ),
    ),
    "probe-cartan": Command(
        _cmd_probe_cartan, "eigenvalue",
        "iterate a tangent-to-identity map and watch for drift",
        flags=(
            _flag("--maps", required=True, nargs="+",
                  help="series files, one component per generator"),
            _flag("--order", type=int, default=None,
                  help="jet truncation degree (default: largest map degree)"),
            _flag("--iterations", type=int, default=10_000, help="iteration budget"),
        ),
    ),
    "selftest": Command(
        _cmd_selftest, None, "run the verification suite (--profile full|fast)",
        config=False,
        flags=(_flag("--profile", choices=("full", "fast"), default="full"), _SEED),
    ),
}

_USAGE = "\n".join(
    ["usage: ncdomain <subcommand> [options]", "", "subcommands:"]
    + [f"  {name:<14}{cmd.description}" for name, cmd in COMMANDS.items()]
) + """

common options: --config FILE, --depth/-N INT (not compose, selftest),
  --tol FLOAT (finite, > 0; not selftest), --seed INT (compose, selftest),
  --out FILE, --format {text,json}
run `ncdomain <subcommand> --help` for details.
"""


def _run(name: str, command: Command, argv) -> int:
    """Parse, gate and load the inputs, run the handler, emit the report."""
    p = argparse.ArgumentParser(prog=f"ncdomain {name}", description=command.description)
    if command.config:
        p.add_argument("--config", required=True, help="domain config file (JSON)")
        p.add_argument("-N", "--depth", type=int, default=None,
                       help="override the truncation depth from the config")
    if command.tolerance is not None:
        p.add_argument("--tol", type=float, default=None,
                       help="override the tolerance for this command's checks")
    p.add_argument("--out", default=None, help="write the report to this file")
    p.add_argument("--format", choices=("text", "json"), default="text",
                   help="report format")
    for names, options in command.flags:
        p.add_argument(*names, **options)
    ns = p.parse_args(argv)
    # an argparse mutually exclusive group cannot hold a pair of flags on
    # one side, so the pairs are checked here, with the same usage error
    for first, second in command.conflicts:
        if all(getattr(ns, d) != p.get_default(d) for d in (first, second)):
            p.error(f"argument --{second}: not allowed with argument --{first}")
    start = time.perf_counter()
    seed = getattr(ns, "seed", None)
    if seed is not None:
        _check_seed(seed, "--seed")
    cfg = None
    tolerances = TOLERANCE_DEFAULTS
    if command.config:
        cfg = parse_config(ns.config)
        if ns.depth is not None:
            cfg = replace(cfg, depth=_check_depth(cfg.n, ns.depth, "--depth"))
        tolerances = cfg.tolerances
    tol = None
    if command.tolerance is not None:
        tol = tolerances[command.tolerance]
        if ns.tol is not None:
            tol = _check_tolerance(ns.tol, "--tol")
    inputs = _config_inputs(cfg) if cfg is not None else {"seed": seed}
    report = Report(name, inputs, seed)
    code = command.handler(ns, cfg, tol, report)
    _emit(report.body(), time.perf_counter() - start, ns.format, ns.out)
    if code is not None:
        return code
    return 0 if report.all_passed else 1


def main(argv=None) -> int:
    args = list(sys.argv[1:]) if argv is None else list(argv)
    if not args:
        print(_USAGE, file=sys.stderr, end="")
        return 64
    if args[0] in ("-h", "--help"):
        print(_USAGE, end="")
        return 0
    command = COMMANDS.get(args[0])
    if command is None:
        print(f"ncdomain: unknown subcommand {args[0]!r}", file=sys.stderr)
        print(_USAGE, file=sys.stderr, end="")
        return 64
    try:
        return _run(args[0], command, args[1:])
    except SystemExit as exc:
        # argparse exits: 0 for --help, usage errors otherwise
        return 0 if exc.code in (None, 0) else 64
    except (ValueError, KeyError, OSError, RuntimeError,
            np.linalg.LinAlgError) as exc:
        print(f"ncdomain {args[0]}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
