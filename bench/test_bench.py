"""Tests of the benchmark itself: seeded inputs and the printed metric names.

Run from the repository root with ``python -m pytest bench``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

import run
import workloads

SPEC = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return a == b


def _jobs_equal(xs, ys) -> bool:
    return len(xs) == len(ys) and all(
        x.kind == y.kind and x.sizes == y.sizes and _same(x.data, y.data)
        for x, y in zip(xs, ys)
    )


@pytest.mark.parametrize("name", ["audit", "point", "maps"])
def test_library_inputs_repeat_for_a_seed(name, tmp_path):
    first = workloads.make(name, tmp_path)
    second = workloads.make(name, tmp_path)
    for cycle in (0, 1):
        assert _jobs_equal(first.cycle(5, cycle), second.cycle(5, cycle))
    assert _jobs_equal(first.warmup(5), second.warmup(5))
    assert not _jobs_equal(first.cycle(5, 0), second.cycle(6, 0))


def test_cli_inputs_repeat_for_a_seed(tmp_path):
    def inputs(seed):
        wl = workloads.make("cli", tmp_path)
        try:
            wl.prepare(seed)
            files = {p.name: p.read_bytes() for p in sorted(wl.dir.iterdir())}
            library = [job for job in wl.cycle(seed, 1) if job.kind != "cli"]
            return files, library
        finally:
            wl.close()

    files, library = inputs(5)
    again_files, again_library = inputs(5)
    other_files, other_library = inputs(6)
    assert files == again_files and _jobs_equal(library, again_library)
    assert files != other_files and not _jobs_equal(library, other_library)


def _last_json(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_every_end_to_end_metric_is_printed(capsys, monkeypatch):
    monkeypatch.setattr(workloads.Point, "min_cycles", 1)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    assert run.main(["--workload", "point", "--seed", "3", "--seconds", "0.2",
                     "--trace", "0"]) == 0
    result = _last_json(capsys)
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_every_per_layer_metric_is_printed(capsys, monkeypatch):
    monkeypatch.setattr(workloads.Cli, "trace_cycles", 1)
    assert run.main(["--workload", "cli", "--seed", "3", "--trace", "1"]) == 0
    result = _last_json(capsys)
    assert result["correct"]
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    # the cli cycle's library share, traced once (the untraced pass records nothing)
    assert metrics["series.compose.calls"] == 2
    assert metrics["series.compose.terms_out"] > 0
    assert metrics["rigidity.cartan_iteration_probe.iterations"] == 101
    assert metrics["fock_model.hardy_norm_estimate.calls"] == 2
    assert metrics["rigidity.check_linear_biholomorphism.calls"] == 2
    # one call, on a non-member: 1 while ROADMAP item 4 stands, 0 once it is fixed
    assert metrics["berezin.berezin_transform_resolvent.calls"] == 1
    assert metrics["berezin.berezin_transform_resolvent.accept_ratio"] in (0.0, 1.0)


def test_refuses_a_tree_without_sources(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "audit", "--seed", "1"]) != 0
    assert capsys.readouterr().out == ""


def test_tail_percentile_leaves_ten_jobs_beyond():
    for count in (20, 33, 77, 100, 480):
        q = run.tail_percentile(count)
        rank = -(-q * count // 100)
        assert count - rank >= 10
        assert q == 99 or count - -(-(q + 1) * count // 100) < 10
