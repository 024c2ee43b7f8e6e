"""Tests of the benchmark itself, on tiny inputs.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

import run

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = {
    "desk-train": {"config": {"train.epochs": "1"}},
    "session-stream": {
        "classes": 10,
        "per_class": 8,
        "config": {"train.epochs": "1", "plan.sessions": "1"},
    },
    # 60 base samples in 96 dimensions: the base gram matrix is rank-deficient
    "ridge-wide": {"dim": 96, "classes": 30, "base_classes": 10, "base_shots": 6,
                   "test_per_class": 3},
}


def bench(capsys, workload: str, trace: int = 0, sizes: dict | None = None):
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0.1", "--trace", str(trace)]
    assert run.main(argv, sizes=sizes or TINY[workload]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_tiny_run_prints_every_end_to_end_metric(capsys, workload):
    result, table = bench(capsys, workload)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    printed = {line.split()[0]: line.split() for line in table if line.startswith("  ")}
    units = {**expected, "session_p50_ms": "ms", "classify_clips_per_s": "clips/s",
             "pd": "fraction", "failed_ratio": "fraction", "setup_wall_s": "s",
             "protocol_wall_s": "s"}
    if workload != "desk-train":
        units["session_tail_ms"] = "ms"
    if workload == "ridge-wide":
        units.update(solve_p50_ms="ms", lambda_cv_s="s", state_roundtrip_ms="ms")
    assert set(printed) - {"fingerprints"} == set(units)
    for name, unit in units.items():
        assert printed[name][2] == unit and printed[name][3].startswith("n=")


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_traced_run_emits_every_per_layer_metric(capsys, workload):
    result, _ = bench(capsys, workload, trace=1)
    assert result["correct"]
    expected = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_traced_desk_run_counts_training_ops(capsys):
    result, _ = bench(capsys, "desk-train", trace=1)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["autodiff.backward.calls"] == 1  # one epoch
    assert metrics["encoder.encoder_forward.calls"] == 25  # 5-way 5-shot base episode
    assert metrics["autodiff.op_calls.train"] > 0
    # every frozen forward runs the same ops
    assert metrics["autodiff.op_calls.frozen"] % metrics["encoder.extract_embedding.calls"] == 0
    # spans and the protocol run are timed on the same clock
    assert 0 < metrics["share.evaluate"] < 1 and 0 < metrics["share.base_session"] < 1


def test_injected_solver_failure_is_counted_and_run_completes(capsys):
    # lam = 0 on a rank-deficient gram matrix: select_lambda_cv raises SolverError
    result, table = bench(capsys, "ridge-wide", sizes={**TINY["ridge-wide"], "lam_grid": (0.0,)})
    assert not result["correct"]
    assert result["failed"] >= 1
    assert any("SolverError" in line for line in table)
    assert set(result["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}


def test_unreadable_output_is_counted(capsys, monkeypatch):
    from ffcac import encoder

    monkeypatch.setattr(encoder, "save_params",
                        lambda path, params, dtype="f32": Path(path).write_bytes(b"junk"))
    result, table = bench(capsys, "desk-train")
    assert not result["correct"] and result["failed"] >= 1
    assert any("WeightsFormatError" in line for line in table)


def test_exits_nonzero_without_program_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk-train", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert run.tail([1.0, 2.0, 3.0]) == ("max", 3.0)
    assert run.tail(list(range(1, 57)))[0] == "p75"
    assert run.tail(list(range(1, 151))) == ("p90", 135.0)
    assert run.tail(list(range(1, 1001)))[0] == "p99"


def test_self_time_excludes_child_spans():
    import tracing

    def child():
        time.sleep(0.02)

    def parent():
        mod.child()
        time.sleep(0.01)

    mod = types.SimpleNamespace(child=child, parent=parent)
    tracer = tracing.Tracer()
    tracer.span(mod, "parent", "parent")
    tracer.span(mod, "child", "child")
    tracer.recording = True
    mod.parent()
    tracer.restore()
    spans = {s[1]: s for s in tracer.spans}
    assert spans["child"][4] == spans["parent"][0]
    parent_dur = spans["parent"][3] - spans["parent"][2]
    child_dur = spans["child"][3] - spans["child"][2]
    assert spans["parent"][6] == pytest.approx(parent_dur - child_dur)
    assert tracing.under(tracer.spans, "parent") == {spans["child"][0]}
    assert mod.parent is parent


def test_missing_wrap_point_raises():
    import tracing

    with pytest.raises(AttributeError):
        tracing.Tracer().span(types.SimpleNamespace(), "gone", "gone")


def test_probe_clock_leaves_out_the_probe():
    import probe

    sampler = probe.Sampler()
    with sampler.window():
        start = sampler.clock()
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
        took = sampler.clock() - start
    assert len(sampler.ratios) >= 5
    assert took == pytest.approx(0.2 - sampler.probe_s, abs=0.01)
    assert sampler.speed() > 0
