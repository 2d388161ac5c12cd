"""One check record and one measurement per identity, shared by CLI and selftest.

The inline formulas below are the measurements as the CLI and selftest
each wrote them before they shared a function; they stay here as
oracles for `oracle_gap`, `vacuum_gap`, `bound_excesses` and
`nested_evaluation_gap`.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncdomain import cli, selftest, weights
from ncdomain.cp_maps import _gaussian_tuple
from ncdomain.fock_model import (
    bound_excesses,
    build_model,
    defect_diagonal,
    grade_row_diagonal,
    symbol_row_diagonal,
    vacuum_gap,
)
from ncdomain.selftest import CheckResult, random_polynomial, random_symbol
from ncdomain.series import compose, evaluate, nested_evaluation_gap
from ncdomain.weights import (
    binomial_constant,
    oracle_gap,
    weights_direct,
    WeightTable,
    weights_oracle,
)


def _oracle_gap_selftest(direct, oracle):
    b = oracle.values
    return float(np.max(np.abs(direct.values - b) / b))


def _vacuum_gap_cli(defect):
    vacuum = np.zeros(defect.size)
    vacuum[0] = 1.0
    return float(np.max(np.abs(defect - vacuum)))


def _vacuum_gap_selftest(defect):
    return float(max(abs(defect[0] - 1.0), np.max(np.abs(defect[1:]))))


def _bound_excesses_cli(model, m, N):
    row_excess = float(np.max(symbol_row_diagonal(model))) - 1.0
    grade_excess = -np.inf
    for k in range(1, N + 1):
        top = float(np.max(grade_row_diagonal(model, k)))
        grade_excess = max(grade_excess, top - binomial_constant(k, m))
    return row_excess, grade_excess


def _nested_gap_inline(outer, inner, composed, x):
    lhs = evaluate(composed, x)
    substituted = [evaluate(s, x) for s in inner]
    rhs = evaluate(outer, substituted)
    scale = max(1.0, float(np.max(np.abs(rhs))))
    return float(np.max(np.abs(lhs - rhs))) / scale


def test_at_most_passes_exactly_up_to_the_tolerance():
    assert CheckResult.at_most("x", 1.0, 1.0).passed is True
    assert CheckResult.at_most("x", np.nextafter(1.0, 2.0), 1.0).passed is False
    assert CheckResult.at_most("x", np.float64(0.5), 1.0).passed is True
    assert CheckResult.at_most("x", float("nan"), 1.0).passed is False
    assert CheckResult.at_most("x", 0.0, 0.0, "d") == CheckResult("x", 0.0, 0.0, True, "d")


def test_report_body_writes_each_check_as_five_keys():
    check = CheckResult("c", np.float64(0.5), 1.0, np.bool_(True), "d")
    body = cli.Report("weights", {}, None, checks=[check]).body()
    assert body["checks"] == [
        {"name": "c", "value": 0.5, "tol": 1.0, "passed": True, "detail": "d"}
    ]
    assert type(body["checks"][0]["passed"]) is bool
    json.dumps(body)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 3),
    m=st.integers(1, 3),
    N=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_shared_measurements_match_the_inline_formulas(n, m, N, seed):
    rng = np.random.default_rng(seed)
    f = random_symbol(n, 3, rng)
    direct, oracle = weights_direct(f, m, N), weights_oracle(f, m, N)
    assert oracle_gap(direct, oracle) == _oracle_gap_selftest(direct, oracle)
    doubled = WeightTable(f, m, direct.index, 2.0 * direct.values)
    assert oracle_gap(doubled, oracle) == _oracle_gap_selftest(doubled, oracle)

    model = build_model(f, m, N)
    defect = defect_diagonal(model)
    shifted = defect - np.eye(1, defect.size)[0] / 8.0  # the vacuum entry sets the gap
    for d in (defect, shifted):
        assert vacuum_gap(d) == _vacuum_gap_cli(d) == _vacuum_gap_selftest(d)
    assert bound_excesses(model) == _bound_excesses_cli(model, m, N)

    p = int(rng.integers(1, 3))
    e = int(rng.integers(1, 3))
    outer = random_polynomial(p, int(rng.integers(1, 4)), rng, coeff_dim=e)
    inner = [random_polynomial(n, 2, rng, zero_constant=True) for _ in range(p)]
    composed = compose(outer, inner)
    x = [a / 2.0 for a in _gaussian_tuple(n, int(rng.integers(1, 4)), rng)]
    gap = nested_evaluation_gap(outer, inner, composed, x)
    assert gap == _nested_gap_inline(outer, inner, composed, x)


@pytest.mark.parametrize(
    "check, tables",
    [
        (selftest.check_weight_oracle_equivalence, 32),  # one table per (f, m, N)
        (selftest.check_rank_one_defect, 8),  # one table per (f, m)
        (selftest.check_row_grade_bounds, 8),
        # one table per polynomial (40); two draw the symbol of the one
        # before, which the one-deep memo serves
        (selftest.check_hardy_monotonicity, 38),
    ],
)
def test_grid_checks_sum_one_table_per_symbol(monkeypatch, check, tables):
    real = weights._direct_values
    calls = []
    monkeypatch.setattr(weights, "_direct_values", lambda *a: calls.append(a) or real(*a))
    weights._VALUES.clear()
    assert check(selftest.FAST, 0).passed
    assert len(calls) == tables


def _report(tmp_path, argv):
    out = tmp_path / "report.json"
    code = cli.main(argv + ["--format", "json", "--out", str(out)])
    assert code == 0
    return json.loads(out.read_text())["report"]


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_cli_check_values_are_the_shared_measurements(tmp_path, capsys):
    n, m, N = 2, 2, 4
    coeffs = {"1": 0.3, "2": 0.7, "12": 0.1, "221": 0.05}  # not dyadic: gaps are not 0
    config = _write(tmp_path, "c.json", {"n": n, "m": m, "N": N,
                                         "symbol": {"n": n, "coeffs": coeffs}})
    f = cli.parse_config(config).symbol

    body = _report(tmp_path, ["weights", "--config", config])
    want = oracle_gap(weights_direct(f, m, N), weights_oracle(f, m, N))
    assert [c["value"] for c in body["checks"]] == [want]

    body = _report(tmp_path, ["model", "--config", config])
    model = build_model(f, m, N)
    want = [vacuum_gap(defect_diagonal(model)), *bound_excesses(model)]
    assert [c["value"] for c in body["checks"]] == want

    def series(name, coeffs):
        return _write(tmp_path, name, {"n": 2, "degree": 2, "coeff_dim": 1,
                                       "coeffs": coeffs})

    paths = [series("F.json", {"": 0.5, "1": 1.0, "12": -0.75}),
             series("g1.json", {"1": 1.0, "21": 0.5}),
             series("g2.json", {"2": 0.25, "11": 1.0})]
    body = _report(tmp_path, ["compose", "--outer", paths[0], "--inner", *paths[1:],
                              "--seed", "7"])
    outer, *inner = [cli.load_series(p) for p in paths]
    composed = compose(outer, inner)
    rng = np.random.default_rng([7, 97])
    d = composed.degree + 1
    x = [np.triu(a, k=1) / 2.0 for a in _gaussian_tuple(2, d, rng)]
    want = nested_evaluation_gap(outer, inner, composed, x)
    assert [c["value"] for c in body["checks"]] == [want]
    capsys.readouterr()


def test_selftest_body_checks_are_the_run_selftest_records(tmp_path, capsys):
    body = _report(tmp_path, ["selftest", "--profile", "fast", "--seed", "3"])
    outcome = selftest.run_selftest("fast", 3)
    assert body["checks"] == [
        {"name": c.name, "value": c.value, "tol": c.tol, "passed": c.passed,
         "detail": c.detail}
        for c in outcome.checks
    ]
    capsys.readouterr()
