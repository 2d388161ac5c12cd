"""Subcommand dispatch, exit codes, and report determinism."""

import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

import hashlib

import numpy as np
import pytest

from ncdomain import FreeSeries, cli, compose, cp_maps, defaults, fock_model, rigidity, series
from ncdomain.cli import COMMANDS, _digest, main, parse_config
from ncdomain.io import FormatError, load_series


def write_config(tmp_path, name="config.json", n=1, m=2, depth=5, coeffs=None,
                 extra=None):
    coeffs = coeffs if coeffs is not None else {"1": 1.0}
    data = {"n": n, "m": m, "N": depth, "symbol": {"n": n, "coeffs": coeffs}}
    if extra:
        data.update(extra)
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


def write_tuple(tmp_path, mats, name="tuple.json"):
    path = tmp_path / name
    path.write_text(json.dumps({"matrices": mats}))
    return path


def test_no_subcommand_is_usage_error(capsys):
    assert main([]) == 64
    assert "usage" in capsys.readouterr().err


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 64
    err = capsys.readouterr().err
    assert "unknown subcommand" in err


def test_missing_required_flag_is_usage_error(capsys):
    assert main(["weights"]) == 64


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert main(["weights", "--help"]) == 0


def test_parse_config_validates_symbol(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(
        {"n": 1, "m": 1, "N": 3, "symbol": {"n": 1, "coeffs": {"": 0.1, "1": 1.0}}}
    ))
    with pytest.raises(ValueError, match="constant term must vanish"):
        parse_config(path)


def test_parse_config_rejects_unknown_tolerance(tmp_path):
    path = write_config(tmp_path, extra={"tolerances": {"bogus": 1e-3}})
    with pytest.raises(ValueError, match="unknown tolerance"):
        parse_config(path)


def test_unknown_config_field_exits_two_listing_the_known_ones(tmp_path, capsys):
    # a misspelled field would otherwise leave the default tolerances in force
    path = write_config(tmp_path, extra={"tolerence": {"eigenvalue": 1e-3}})
    message = (f"{path}: unknown field 'tolerence'; "
               "known: ['n', 'm', 'N', 'symbol', 'tolerances', 'seed']")
    with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
        parse_config(path)
    assert main(["model", "--config", str(path)]) == 2
    assert message in capsys.readouterr().err


def test_parse_config_reads_overrides(tmp_path):
    path = write_config(
        tmp_path, extra={"seed": 3, "tolerances": {"eigenvalue": 1e-7}}
    )
    cfg = parse_config(path)
    assert not hasattr(cfg, "seed")  # validated, then dropped: no command reads it
    assert cfg.tolerances["eigenvalue"] == 1e-7
    assert cfg.tolerances["oracle"] == 1e-12


@pytest.mark.parametrize("extra", [
    {"seed": 3.7},
    {"seed": True},
    {"seed": "3"},
    {"seed": -1},
    {"tolerances": {"entrywise": True}},
    {"tolerances": {"eigenvalue": float("inf")}},
    {"tolerances": {"eigenvalue": float("nan")}},
    {"tolerances": {"eigenvalue": "1e-9"}},
    {"tolerances": {"eigenvalue": 0}},
    {"tolerances": {"eigenvalue": -1e-9}},
    {"tolerances": {"eigenvalue": 10**400}},
    {"tolerances": [1e-9]},
    {"tolerances": []},
    {"tolerances": None},
    {"tolerances": 0},
    {"tolerances": ""},
    {"tolerances": False},
], ids=["seed-float", "seed-bool", "seed-string", "seed-negative",
        "tol-bool", "tol-infinity", "tol-nan", "tol-string", "tol-zero",
        "tol-negative", "tol-beyond-float", "tol-not-object", "tols-empty-list",
        "tols-null", "tols-zero", "tols-empty-string", "tols-false"])
def test_parse_config_rejects_bad_seed_and_tolerances(tmp_path, capsys, extra):
    # the 2-ball non-member would exit 0 (member) or 1 if the value were coerced
    path = write_config(tmp_path, n=2, m=1, depth=3,
                        coeffs={"1": 1.0, "2": 1.0}, extra=extra)
    with pytest.raises(FormatError):
        parse_config(path)
    point = write_tuple(tmp_path, [[[0.0, 5.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]])
    assert main(["member", "--config", str(path), "--tuple", str(point)]) == 2
    err = capsys.readouterr().err
    if not isinstance(extra.get("tolerances", {}), dict):
        assert f"{path}: field 'tolerances' must be an object" in err


@pytest.mark.parametrize("symbol, message", [
    ({"file": 5}, "symbol: field 'file' must be a string"),
    ({"file": ["sym.json"]}, "symbol: field 'file' must be a string"),
    ({"n": 1, "coeffs": {"1": -1.0}},
     "symbol: coefficient of word '1' must be nonnegative"),
    ({"file": "s2.json", "n": 1, "coeffs": {"1": 0.5}},
     "symbol: unknown field 'n'; known: ['file']"),
], ids=["file-int", "file-list", "inline-negative", "file-and-inline"])
def test_malformed_symbol_exits_two_naming_the_config(tmp_path, capsys, symbol, message):
    (tmp_path / "s2.json").write_text(json.dumps({"n": 1, "coeffs": {"1": 1.0}}))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n": 1, "m": 1, "N": 3, "symbol": symbol}))
    with pytest.raises(FormatError, match=f"^{re.escape(f'{path}: {message}')}"):
        parse_config(path)
    assert main(["model", "--config", str(path)]) == 2
    assert f"{path}: {message}" in capsys.readouterr().err


def test_parse_config_symbol_file_reference(tmp_path):
    (tmp_path / "sym.json").write_text(
        json.dumps({"n": 2, "coeffs": {"1": 1.0, "2": 1.0}})
    )
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(
        {"n": 2, "m": 1, "N": 2, "symbol": {"file": "sym.json"}}
    ))
    cfg = parse_config(path)
    assert cfg.symbol.n == 2


def test_weights_reports_the_shift_table(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "report.json"
    code = main(["weights", "--config", str(cfg), "--format", "json",
                 "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    table = payload["report"]["results"]["table"]
    assert [table[k] for k in ("", "1", "11", "111", "1111", "11111")] == [
        1.0, 2.0, 3.0, 4.0, 5.0, 6.0,
    ]
    checks = payload["report"]["checks"]
    assert checks[0]["name"] == "oracle_agreement"
    assert checks[0]["passed"] is True
    assert "tol" in checks[0]


def test_weights_bad_config_exits_two(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(
        {"n": 1, "m": 1, "N": 3, "symbol": {"n": 1, "coeffs": {"": 0.1, "1": 1.0}}}
    ))
    assert main(["weights", "--config", str(path)]) == 2
    assert "constant term must vanish" in capsys.readouterr().err


def test_config_without_n_key_exits_two(tmp_path, capsys):
    path = tmp_path / "depth.json"
    path.write_text(json.dumps(
        {"n": 1, "m": 1, "depth": 3, "symbol": {"n": 1, "coeffs": {"1": 1.0}}}
    ))
    assert main(["weights", "--config", str(path)]) == 2
    assert "missing field 'N'" in capsys.readouterr().err


def test_member_refuses_a_stray_tuple_field(tmp_path, capsys):
    cfg = write_config(tmp_path, m=1, depth=4)
    point = tmp_path / "tuple.json"
    point.write_text(json.dumps({"matrices": [[[0.5]]], "matrix": [[[9.0]]]}))
    assert main(["member", "--config", str(cfg), "--tuple", str(point)]) == 2
    assert (f"{point}: unknown field 'matrix'; known: ['matrices']"
            in capsys.readouterr().err)


def test_member_verdict_exit_codes(tmp_path, capsys):
    cfg = write_config(tmp_path, m=1, depth=4)
    good = write_tuple(tmp_path, [[[0.5]]], "good.json")
    bad = write_tuple(tmp_path, [[[1.2]]], "bad.json")
    assert main(["member", "--config", str(cfg), "--tuple", str(good)]) == 0
    assert main(["member", "--config", str(cfg), "--tuple", str(bad)]) == 1
    assert main(["member", "--config", str(cfg),
                 "--tuple", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()


def test_member_overflow_is_a_non_member_without_a_warning(tmp_path, capsys, recwarn):
    # Phi(I) overflows at [[1e200]]: the defect reads -inf and the row norm
    # inf, not NaN
    cfg = write_config(tmp_path, m=1, depth=4)
    point = write_tuple(tmp_path, [[[1e200]]])
    out = tmp_path / "r.json"
    assert main(["member", "--config", str(cfg), "--tuple", str(point),
                 "--format", "json", "--out", str(out)]) == 1
    assert len(recwarn) == 0
    results = json.loads(out.read_text())["report"]["results"]
    assert results["row_norm"] == float("inf")
    capsys.readouterr()


@pytest.mark.parametrize("n, mats", [
    (2, [[[0.5]]]),
    (1, [[[0.5]], [[3.0]]]),
], ids=["ball-one-matrix", "disc-two-matrices"])
def test_member_rejects_a_tuple_of_the_wrong_size(tmp_path, capsys, n, mats):
    coeffs = {str(i): 1.0 for i in range(1, n + 1)}
    cfg = write_config(tmp_path, n=n, m=1, depth=3, coeffs=coeffs)
    point = write_tuple(tmp_path, mats)
    assert main(["member", "--config", str(cfg), "--tuple", str(point)]) == 2
    assert f"symbol over n={n} applied to a {len(mats)}-tuple" in capsys.readouterr().err


def test_member_report_carries_tolerances(tmp_path, capsys):
    cfg = write_config(tmp_path, m=2, depth=4)
    good = write_tuple(tmp_path, [[[0.5]]])
    out = tmp_path / "r.json"
    main(["member", "--config", str(cfg), "--tuple", str(good),
          "--format", "json", "--out", str(out)])
    payload = json.loads(out.read_text())
    checks = payload["report"]["checks"]
    assert all("tol" in c and "value" in c and "passed" in c for c in checks)
    names = [c["name"] for c in checks]
    assert "defect_level_1" in names and "defect_level_2" in names
    capsys.readouterr()


def test_depth_flag_overrides_config(tmp_path, capsys):
    cfg = write_config(tmp_path, depth=5)
    out = tmp_path / "r.json"
    main(["weights", "--config", str(cfg), "-N", "2", "--format", "json",
          "--out", str(out)])
    payload = json.loads(out.read_text())
    assert payload["report"]["results"]["dim"] == 3
    capsys.readouterr()


def test_norm_reports_monotone_values(tmp_path, capsys):
    cfg = write_config(tmp_path, m=1, depth=4)
    series = tmp_path / "s.json"
    series.write_text(json.dumps({
        "n": 1, "degree": 2, "coeff_dim": 1,
        "coeffs": {"1": 1.0, "11": 0.5},
    }))
    out = tmp_path / "r.json"
    code = main(["norm", "--config", str(cfg), "--series", str(series),
                 "--radii", "0.0,0.5,0.9", "--format", "json",
                 "--out", str(out)])
    assert code == 0
    norms = json.loads(out.read_text())["report"]["results"]["norms"]
    assert norms[0] <= norms[1] <= norms[2]
    capsys.readouterr()


README_ROWS = re.findall(
    r"^\| `([^`]*)` \|",
    (Path(__file__).parents[1] / "README.md").read_text(),
    re.MULTILINE,
)


def write_series(tmp_path, name, coeffs, n=2, degree=2):
    (tmp_path / name).write_text(json.dumps(
        {"n": n, "degree": degree, "coeff_dim": 1, "coeffs": coeffs}
    ))


@pytest.fixture
def readme_files(tmp_path, monkeypatch):
    """The files the README command table names, on the 2-ball (m = 1)."""
    ball = {"1": 1.0, "2": 1.0}
    for name in ("c.json", "src.json"):
        write_config(tmp_path, name, n=2, m=1, depth=3, coeffs=ball)
    write_config(tmp_path, "dst.json", n=2, m=1, depth=3,
                 coeffs={"1": 0.25, "2": 0.25})
    zero = [[0.0, 0.0], [0.0, 0.0]]
    write_tuple(tmp_path, [[[0.0, 0.5], [0.0, 0.0]], zero], "x.json")
    # a non-member: defect eigenvalue -24
    write_tuple(tmp_path, [[[0.0, 5.0], [0.0, 0.0]], zero], "far.json")
    write_series(tmp_path, "s.json", {"1": 1.0, "21": 0.5})
    write_series(tmp_path, "F.json", {"12": 1.0})
    write_series(tmp_path, "g1.json", {"1": 1.0, "2": 0.5})
    write_series(tmp_path, "g2.json", {"2": 1.0})
    write_series(tmp_path, "m1.json", {"1": 1.0, "11": 1.0})
    write_series(tmp_path, "m2.json", {"2": 1.0})
    (tmp_path / "u.json").write_text(json.dumps({"matrix": [[2.0, 0.0], [0.0, 2.0]]}))
    monkeypatch.chdir(tmp_path)


def test_readme_table_lists_every_subcommand():
    assert [row.split()[0] for row in README_ROWS] == list(COMMANDS)


@pytest.mark.parametrize("row", README_ROWS, ids=lambda row: row.split()[0])
def test_readme_example_runs(readme_files, capsys, row):
    argv = shlex.split(row)
    if argv[0] == "selftest":
        pytest.skip("the full battery runs in test_acceptance.py")
    # m1 = Z1 + Z1^2 is no automorphism, so the probe row reports a violation
    assert main(argv) == (1 if argv[0] == "probe-cartan" else 0)
    capsys.readouterr()


@pytest.mark.parametrize("value", ["inf", "nan", "-1", "0", "1e309"])
@pytest.mark.parametrize("row", [r for r in README_ROWS if not r.startswith("selftest")],
                         ids=lambda row: row.split()[0])
def test_bad_tol_exits_two(readme_files, capsys, row, value):
    argv = shlex.split(row)
    if argv[0] == "member":  # the non-member, which --tol=inf would call a member
        argv[argv.index("x.json")] = "far.json"
    assert main(argv + [f"--tol={value}"]) == 2
    assert "--tol must be finite and > 0" in capsys.readouterr().err


BAD_RADII = {
    "": "could not convert string to float",
    "0.2,,0.3": "could not convert string to float",
    "0.2,x": "could not convert string to float",
    "0.5,0.3": "must be nondecreasing",
    "1.5": "values must lie in [0, 1)",
    "inf": "values must lie in [0, 1)",
    "0.2,nan": "values must lie in [0, 1)",
}


@pytest.mark.parametrize("radii", list(BAD_RADII))
def test_bad_radii_exit_two_naming_the_flag(readme_files, capsys, radii):
    argv = shlex.split(next(r for r in README_ROWS if r.startswith("norm")))
    assert main(argv + ["--radii", radii]) == 2
    err = capsys.readouterr().err
    assert f"ncdomain norm: error: --radii: {BAD_RADII[radii]}" in err
    assert "r_grid" not in err


@pytest.mark.parametrize("budget", ["0", "-3", str(10**400)])
def test_probe_cartan_rejects_empty_budget(readme_files, capsys, budget):
    assert main(["probe-cartan", "--config", "c.json", "--maps", "m1.json",
                 "m2.json", f"--iterations={budget}"]) == 2
    assert "iteration budget" in capsys.readouterr().err


def test_config_seed_leaves_weights_body_unchanged(tmp_path, capsys):
    # weights draws no random numbers, so the config seed must not enter its report
    bodies = []
    for seed in (1, 2):
        cfg = write_config(tmp_path, f"c{seed}.json", extra={"seed": seed})
        out = tmp_path / f"r{seed}.json"
        assert main(["weights", "--config", str(cfg), "--format", "json",
                     "--out", str(out)]) == 0
        bodies.append(json.dumps(json.loads(out.read_text())["report"], sort_keys=True))
    assert bodies[0] == bodies[1]
    assert '"seed"' not in bodies[0]
    capsys.readouterr()


@pytest.mark.parametrize("row", README_ROWS, ids=lambda row: row.split()[0])
def test_only_seeded_commands_take_seed(readme_files, capsys, row):
    argv = shlex.split(row)
    if argv[0] == "selftest":
        argv = ["selftest", "--profile", "fast"]
    seeded = argv[0] in ("compose", "selftest")
    assert main(argv + ["--seed", "4"]) == (0 if seeded else 64)
    capsys.readouterr()


def test_selftest_takes_no_tol(capsys):
    assert main(["selftest", "--profile", "fast", "--tol", "1e-3"]) == 64
    capsys.readouterr()


def test_import_does_not_load_scipy():
    code = (
        "import sys, ncdomain, ncdomain.cli; "
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_compose_saves_series(tmp_path, capsys):
    outer = tmp_path / "outer.json"
    outer.write_text(json.dumps({
        "n": 1, "degree": 2, "coeff_dim": 1, "coeffs": {"11": 1.0},
    }))
    inner = tmp_path / "inner.json"
    inner.write_text(json.dumps({
        "n": 1, "degree": 2, "coeff_dim": 1, "coeffs": {"1": 2.0},
    }))
    saved = tmp_path / "composed.json"
    code = main(["compose", "--outer", str(outer), "--inner", str(inner),
                 "--save", str(saved)])
    assert code == 0
    data = json.loads(saved.read_text())
    assert data["coeffs"]["11"] == [4.0, 0.0]
    # the package reads back what it writes
    cfg = write_config(tmp_path)
    assert main(["norm", "--config", str(cfg), "--series", str(saved)]) == 0
    back = load_series(saved)
    want = compose(load_series(outer), [load_series(inner)])
    assert (back.n, back.degree, back.coeff_dim) == (want.n, want.degree, want.coeff_dim)
    assert ([(w, c.tolist()) for w, c in back.items()]
            == [(w, c.tolist()) for w, c in want.items()])
    capsys.readouterr()


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("where", ["linear", "nonlinear", "series"])
def test_non_finite_coefficient_exits_two(readme_files, tmp_path, capsys, where, value):
    # 0 * NaN in a dense grade would spread NaN into words that hold zero
    bad = float(value.replace("Infinity", "inf"))
    if where == "series":
        write_series(tmp_path, "s.json", {"1": 1.0, "21": bad})
        runs = [["compose", "--outer", "s.json", "--inner", "g1.json", "g2.json"],
                ["norm", "--config", "c.json", "--series", "s.json", "--radii", "0.5"]]
    else:
        key = "1" if where == "linear" else "12"
        coeffs = {"1": 1.0, "2": 1.0, "12": 0.5, key: bad}
        write_config(tmp_path, "c.json", n=2, m=1, depth=3, coeffs=coeffs)
        runs = [["weights", "--config", "c.json"], ["model", "--config", "c.json"]]
    for argv in runs:
        assert main(argv) == 2
        assert "is not finite" in capsys.readouterr().err


@pytest.mark.parametrize("coeff_dim", [0, -1])
def test_norm_refuses_a_series_below_coeff_dim_one(tmp_path, capsys, coeff_dim):
    # checked before the coefficient is decoded against shape (coeff_dim, coeff_dim)
    series = tmp_path / "s.json"
    series.write_text(json.dumps({"n": 1, "degree": 1, "coeff_dim": coeff_dim,
                                  "coeffs": {"1": [[1.0]]}}))
    cfg = write_config(tmp_path)
    assert main(["norm", "--config", str(cfg), "--series", str(series)]) == 2
    assert f"coeff_dim must be >= 1, got {coeff_dim}" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", "[0.5, NaN]",
                                   "1" + "0" * 400],
                         ids=["nan", "inf", "-inf", "nan-pair", "int-beyond-float"])
@pytest.mark.parametrize("run, entry", [
    ("member --config c.json --tuple bad.json", "matrices[0][0][1]"),
    ("berezin --config c.json --tuple bad.json --alpha 1 --beta 1", "matrices[0][0][1]"),
    ("berezin --config c.json --tuple x.json --g bad.json", "matrix[0][1]"),
    ("biholo --config src.json --target-config dst.json --map bad.json", "matrix[0][1]"),
], ids=["member", "berezin-tuple", "berezin-g", "biholo-map"])
def test_non_finite_matrix_entry_exits_two(readme_files, capsys, run, entry, value):
    # json reads NaN and Infinity; a NaN tuple would otherwise be judged a non-member
    rows = f"[[0.0, {value}], [0.0, 0.0]]"
    text = (f'{{"matrix": {rows}}}' if entry.startswith("matrix[")
            else f'{{"matrices": [{rows}, [[0.0, 0.0], [0.0, 0.0]]]}}')
    Path("bad.json").write_text(text)
    assert main(shlex.split(run)) == 2
    assert f"bad.json: {entry} is not finite" in capsys.readouterr().err


def _render_by_json(value):
    """The report renderer as it was: json.dumps for every non-string value."""
    if isinstance(value, str):
        return value
    text = json.dumps(cli._jsonable(value))
    return text[:157] + "..." if len(text) > 160 else text


def test_human_lines_render_like_json(monkeypatch):
    values = [-0.0, 5e-324, 1e300, 1 / 3, float("nan"), float("inf"), float("-inf"),
              True, False, 7, -2**70, "text", None, np.float64(0.1), [0.25, 1e-7]]
    body = {"command": "weights", "inputs_digest": "0" * 64,
            "results": {"table": {str(k): v for k, v in enumerate(values)},
                        **{f"r{k}": v for k, v in enumerate(values)}},
            "checks": [{"name": "c", "value": v, "tol": 1e-12, "passed": True,
                        "detail": ""} for v in values]}
    lines = cli._human_lines(body)
    monkeypatch.setattr(cli, "_render", _render_by_json)
    assert lines == cli._human_lines(body)


def _compose_report(tmp_path, capsys, degree, coeffs):
    for name in ("outer.json", "g1.json", "g2.json"):
        write_series(tmp_path, name, coeffs, degree=degree)
    out = tmp_path / "r.json"
    code = main(["compose", "--outer", str(tmp_path / "outer.json"), "--inner",
                 str(tmp_path / "g1.json"), str(tmp_path / "g2.json"),
                 "--format", "json", "--out", str(out)])
    capsys.readouterr()
    check = json.loads(out.read_text())["report"]["checks"]
    return code, check


def test_compose_checks_deep_pairs_without_lifting(tmp_path, capsys):
    # the degree-16 lift of two degree-4 inner series needs 131,071 words
    coeffs = {"1": 0.5, "2": -0.25, "12": 0.5, "221": 0.25, "1212": 0.125}
    code, checks = _compose_report(tmp_path, capsys, 4, coeffs)
    assert code == 0
    assert [c["name"] for c in checks] == ["nested_evaluation"]


def test_compose_check_sees_top_grade_error(tmp_path, capsys, monkeypatch):
    def off_by_top_word(outer, inner):
        composed = compose(outer, inner)
        top = (2,) * composed.degree
        return composed + FreeSeries(composed.n, composed.degree, {top: 1e-3})

    monkeypatch.setattr(series, "compose", off_by_top_word)
    code, checks = _compose_report(tmp_path, capsys, 2, {"1": 1.0, "21": 0.5})
    assert code == 1
    assert not checks[0]["passed"]


def test_berezin_forms_agree_in_report(tmp_path, capsys):
    cfg = write_config(tmp_path, m=1, depth=6)
    point = write_tuple(tmp_path, [[[0.5]]])
    out = tmp_path / "r.json"
    code = main(["berezin", "--config", str(cfg), "--tuple", str(point),
                 "--alpha", "1", "--beta", "1", "--format", "json",
                 "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    check = payload["report"]["checks"][0]
    assert check["name"] == "form_agreement"
    assert check["passed"] is True
    capsys.readouterr()


def test_berezin_builds_the_model_only_for_word_observables(tmp_path, capsys, monkeypatch):
    calls = []
    real = fock_model.build_model
    monkeypatch.setattr(fock_model, "build_model", lambda *a: calls.append(a) or real(*a))
    cfg = write_config(tmp_path, m=1, depth=3)
    point = write_tuple(tmp_path, [[[0.5]]])
    g = tmp_path / "g.json"
    g.write_text(json.dumps({"matrix": np.eye(4).tolist()}))
    base = ["berezin", "--config", str(cfg), "--tuple", str(point)]
    assert main(base + ["--g", str(g)]) == 0
    assert calls == []
    assert main(base + ["--alpha", "1", "--beta", "1"]) == 0
    assert len(calls) == 1
    capsys.readouterr()


@pytest.mark.parametrize("words", [["--alpha", "1", "--beta", "1"],
                                   ["--alpha", "1"], ["--beta", "1"]])
def test_berezin_matrix_file_and_words_is_usage_error(tmp_path, capsys, words):
    # the matrix file would win and the words would be dropped without notice
    cfg = write_config(tmp_path, m=1, depth=3)
    point = write_tuple(tmp_path, [[[0.5]]])
    g = tmp_path / "g.json"
    g.write_text(json.dumps({"matrix": np.eye(4).tolist()}))
    out = tmp_path / "r.json"
    assert main(["berezin", "--config", str(cfg), "--tuple", str(point),
                 "--g", str(g), "--out", str(out)] + words) == 64
    assert "not allowed with argument --g" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("form", ["kernel", "resolvent", "both"])
def test_berezin_outside_domain_exits_two(tmp_path, capsys, form):
    # the scalar fails the radius bound; the nilpotent pair has radius 0
    # but a defect eigenvalue of -3
    disc = write_config(tmp_path, "disc.json", m=1, depth=4)
    ball = write_config(tmp_path, "ball.json", n=2, m=1, depth=4,
                        coeffs={"1": 1.0, "2": 1.0})
    for cfg, mats in [(disc, [[[1.2]]]),
                      (ball, [[[0.0, 2.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]])]:
        point = write_tuple(tmp_path, mats)
        assert main(["berezin", "--config", str(cfg), "--tuple", str(point),
                     "--form", form]) == 2
    capsys.readouterr()


def test_berezin_kernel_rejects_a_failed_lower_defect(tmp_path, capsys):
    # on the disc at m = 2, [[2.0]] has Delta_2 = 9 >= 0 but Delta_1 = -3
    cfg = write_config(tmp_path, m=2, depth=4)
    point = write_tuple(tmp_path, [[[2.0]]])
    assert main(["berezin", "--config", str(cfg), "--tuple", str(point),
                 "--form", "kernel"]) == 2
    assert "worst defect eigenvalue -3.000e+00" in capsys.readouterr().err


def test_berezin_resolvent_overflow_exits_two(tmp_path, capsys, recwarn):
    # Phi(I) overflows at [[1e200]]; the defect gate refuses it, no warning
    cfg = write_config(tmp_path, m=1, depth=4)
    point = write_tuple(tmp_path, [[[1e200]]])
    assert main(["berezin", "--config", str(cfg), "--tuple", str(point),
                 "--form", "resolvent"]) == 2
    assert "outside the order-1 domain" in capsys.readouterr().err
    assert len(recwarn) == 0


def test_berezin_both_forms_at_the_13_by_13_shift(tmp_path, capsys):
    # a disc member whose 12-step radius estimate reads 1
    cfg = write_config(tmp_path, m=1, depth=8)
    point = write_tuple(tmp_path, [np.eye(13, k=1).tolist()])
    out = tmp_path / "r.json"
    assert main(["berezin", "--config", str(cfg), "--tuple", str(point),
                 "--alpha", "1", "--beta", "1", "--form", "both",
                 "--format", "json", "--out", str(out)]) == 0
    report = json.loads(out.read_text())["report"]
    assert report["results"]["radius_estimate"] == 1.0
    agreement = [c for c in report["checks"] if c["name"] == "form_agreement"]
    assert agreement[0]["value"] <= 1e-12
    capsys.readouterr()


def test_berezin_both_builds_the_support_once(tmp_path, capsys, monkeypatch):
    # the report's radius estimate reads the support the resolvent form built
    calls = []
    real = cp_maps._support
    monkeypatch.setattr(cp_maps, "_support", lambda *a: calls.append(a) or real(*a))
    cp_maps._cached_point.cache_clear()
    cfg = write_config(tmp_path, n=2, m=1, depth=3, coeffs={"1": 1.0, "2": 1.0})
    point = write_tuple(tmp_path, [[[0.0, 0.5], [0.0, 0.0]], [[0.0, 0.0], [0.25, 0.0]]])
    out = tmp_path / "r.json"
    assert main(["berezin", "--config", str(cfg), "--tuple", str(point),
                 "--alpha", "1", "--beta", "2", "--form", "both",
                 "--format", "json", "--out", str(out)]) == 0
    assert len(calls) == 1
    mats = [np.array(x, dtype=complex) for x in json.loads(point.read_text())["matrices"]]
    report = json.loads(out.read_text())["report"]
    assert report["results"]["radius_estimate"] == cp_maps._radius_estimate(
        cp_maps._support(parse_config(cfg).symbol, mats)).final
    capsys.readouterr()


def test_berezin_g_body_does_not_depend_on_the_file_path(tmp_path, capsys):
    cfg = write_config(tmp_path, m=1, depth=3)
    point = write_tuple(tmp_path, [[[0.5]]])
    bodies = []
    for name in ("g.json", "copy-of-g.json"):
        (tmp_path / name).write_text(json.dumps({"matrix": np.eye(4).tolist()}))
        out = tmp_path / f"{name}.report"
        assert main(["berezin", "--config", str(cfg), "--tuple", str(point),
                     "--g", str(tmp_path / name), "--format", "json",
                     "--out", str(out)]) == 0
        bodies.append(json.dumps(json.loads(out.read_text())["report"]))
    assert bodies[0] == bodies[1]
    capsys.readouterr()


def test_biholo_verdict_exit_codes(tmp_path, capsys):
    ball = write_config(tmp_path, "ball.json", n=2, m=1, depth=3,
                        coeffs={"1": 1.0, "2": 1.0})
    scaled = write_config(tmp_path, "scaled.json", n=2, m=1, depth=3,
                          coeffs={"1": 0.25, "2": 0.25})
    umap = tmp_path / "u.json"
    umap.write_text(json.dumps({"matrix": [[2.0, 0.0], [0.0, 2.0]]}))
    code = main(["biholo", "--config", str(ball), "--target-config",
                 str(scaled), "--map", str(umap)])
    assert code == 0
    code = main(["biholo", "--config", str(ball), "--target-config",
                 str(ball), "--map", str(umap)])
    assert code == 1
    capsys.readouterr()


def test_biholo_reads_an_overflowing_image_as_minus_inf(tmp_path, capsys):
    ball = write_config(tmp_path, "ball.json", n=2, m=1, depth=3,
                        coeffs={"1": 1.0, "2": 1.0})
    target = write_config(tmp_path, "target.json", n=2, m=1, depth=3,
                          coeffs={"1": 1.0, "2": 1.0, "12": 0.5})
    umap = tmp_path / "u.json"
    umap.write_text(json.dumps({"matrix": [[1e78, 0.0], [0.0, 1e78]]}))
    out = tmp_path / "r.json"
    code = main(["biholo", "--config", str(ball), "--target-config", str(target),
                 "--map", str(umap), "--format", "json", "--out", str(out)])
    assert code == 1
    checks = {c["name"]: c for c in json.loads(out.read_text())["report"]["checks"]}
    assert checks["forward"]["value"] == -np.inf
    assert not checks["forward"]["passed"]
    assert checks["backward"]["passed"]
    assert "Warning" not in capsys.readouterr().err


def test_biholo_reports_a_finite_eigenvalue_near_overflow(tmp_path, capsys):
    # the image's least defect eigenvalue is near -1.18e308, finite; a second
    # symmetrization of its Hermitian grade blocks would overflow a + a* and
    # report NaN, which strict JSON parsers refuse
    source = write_config(tmp_path, "source.json", n=2, m=1, depth=1,
                          coeffs={"1": 0.125, "2": 0.125})
    ball = write_config(tmp_path, "ball.json", n=2, m=1, depth=1,
                        coeffs={"1": 1.0, "2": 1.0})
    c = 10.0**153.3755
    umap = tmp_path / "u.json"
    umap.write_text(json.dumps({"matrix": [[c, c], [0.0, c]]}))
    out = tmp_path / "r.json"
    code = main(["biholo", "--config", str(source), "--target-config", str(ball),
                 "--map", str(umap), "--format", "json", "--out", str(out)])
    assert code == 1

    def refuse(constant):
        raise ValueError(f"report holds {constant}")

    report = json.loads(out.read_text(), parse_constant=refuse)["report"]
    forward = next(c for c in report["checks"] if c["name"] == "forward")
    assert np.isfinite(forward["value"]) and forward["value"] < -1e308
    assert not forward["passed"]
    capsys.readouterr()


def test_probe_cartan_flags_quadratic(tmp_path, capsys):
    cfg = write_config(tmp_path, m=1, depth=3)
    fmap = tmp_path / "map.json"
    fmap.write_text(json.dumps({
        "n": 1, "degree": 2, "coeff_dim": 1, "coeffs": {"1": 1.0, "11": 1.0},
    }))
    out = tmp_path / "r.json"
    code = main(["probe-cartan", "--config", str(cfg), "--maps", str(fmap),
                 "--format", "json", "--out", str(out)])
    assert code == 1
    results = json.loads(out.read_text())["report"]["results"]
    assert results["status"] == "violation"
    assert results["first_violation"] == 2
    capsys.readouterr()


def test_selftest_fast_profile_passes(tmp_path, capsys):
    out = tmp_path / "r.json"
    code = main(["selftest", "--profile", "fast", "--seed", "5",
                 "--format", "json", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["report"]["results"]["passed"] is True
    assert len(payload["report"]["checks"]) == 15
    capsys.readouterr()


def test_report_bodies_are_deterministic(tmp_path, capsys):
    cfg = write_config(tmp_path, m=2, depth=4)
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    main(["weights", "--config", str(cfg), "--format", "json",
          "--out", str(first)])
    main(["weights", "--config", str(cfg), "--format", "json",
          "--out", str(second)])
    a = json.loads(first.read_text())
    b = json.loads(second.read_text())
    assert json.dumps(a["report"], sort_keys=True) == json.dumps(
        b["report"], sort_keys=True
    )
    capsys.readouterr()


def test_text_format_mentions_tolerance(tmp_path, capsys):
    cfg = write_config(tmp_path)
    code = main(["weights", "--config", str(cfg)])
    assert code == 0
    out = capsys.readouterr().out
    assert "tol=" in out
    assert "PASS" in out


def test_digest_hashes_array_values_not_layout():
    a = (np.arange(12.0) + 1j).reshape(3, 4)
    fortran = np.asfortranarray(a)
    wide = np.zeros((3, 8), dtype=complex)
    wide[:, ::2] = a
    strided = wide[:, ::2]
    big_endian = a.astype(">c16")
    assert not fortran.flags.c_contiguous and not strided.flags.c_contiguous
    assert big_endian.tobytes() != a.tobytes()
    digests = {_digest({"g": x, "form": "both"}) for x in (a, fortran, strided, big_endian)}
    assert len(digests) == 1
    # an entry of another dtype holding the same values hashes alike
    assert _digest({"g": a.real}) == _digest({"g": a.real.astype(complex)})


def test_digest_changes_with_one_entry_and_with_shape():
    a = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    b = a.copy()
    b[1, 0] += 1e-15
    assert _digest({"g": a}) != _digest({"g": b})
    assert _digest({"g": a}) != _digest({"g": a.reshape(1, 4)})
    assert _digest({"tuple": [a]}) != _digest({"tuple": [a.T]})


def test_digest_of_array_free_inputs_is_their_json_hash():
    inputs = {"n": 2, "symbol": {"1": 0.5, "12": 0.25}, "radii": [0.0, 0.5],
              "maps": [{"coeffs": {"1": [1.0, 0.0]}}], "form": "both"}
    blob = json.dumps(inputs, sort_keys=True).encode("utf-8")
    assert _digest(inputs) == hashlib.sha256(blob).hexdigest()


@pytest.mark.parametrize("row", [r for r in README_ROWS if r.split()[0] in ("berezin", "norm")],
                         ids=lambda row: row.split()[0])
def test_dense_matrix_over_physical_memory_exits_two(readme_files, capsys, monkeypatch, row):
    monkeypatch.setattr(defaults, "physical_memory", lambda: 1000)
    if row.split()[0] == "berezin":
        # the V_alpha V_beta^* observable is its entries, never a dense matrix
        assert main(shlex.split(row)) == 0
        assert "check form_agreement: value=" in capsys.readouterr().out
        return
    assert main(shlex.split(row)) == 2
    err = capsys.readouterr().err
    assert "bytes, more than the 1000 bytes of physical memory" in err
    assert f"{16 * 15**2} bytes" in err  # dim 15: the 2-ball at depth 3


def test_linear_certificate_over_physical_memory_exits_two(readme_files, capsys, monkeypatch):
    # the 2-ball at depth 3: top grade blocks of 8 x 8
    need = rigidity._TOP_BLOCKS * 16 * 8**2
    monkeypatch.setattr(defaults, "physical_memory", lambda: need - 1)
    row = next(r for r in README_ROWS if r.split()[0] == "biholo")
    assert main(shlex.split(row)) == 2
    err = capsys.readouterr().err
    assert f"needs {need} bytes" in err
    assert "8 x 8 complex128" in err
    assert f"more than the {need - 1} bytes of physical memory" in err
