import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_record.py"
spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)

MACHINE = {"nproc": 2, "python": "3.11.7"}


def _run_file(out, workload, seed, trace, metrics, machine=MACHINE):
    detail = {
        "workload": workload, "seed": seed, "trace": trace, "seconds": 30.0,
        "machine": {**machine, "seed": seed},
        "metrics": {k: {"value": v, "unit": "s", "n": 3, "gated": k == "protocol_run_s"}
                    for k, v in metrics.items()},
        "failures": [],
    }
    (out / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(detail))


def test_fold_summarizes_each_metric_over_seeds(tmp_path):
    for seed, value in zip((2, 3, 4, 5), (0.5, 0.7, 0.6, 0.9)):
        _run_file(tmp_path, "ridge-wide", seed, 0, {"protocol_run_s": value, "aa": 0.96})
    _run_file(tmp_path, "ridge-wide", 2, 1, {"classifiers.predict.ms": 300.0})
    _run_file(tmp_path, "desk-train", 2, 0, {"protocol_run_s": 1.9})
    (tmp_path / "ridge-wide-seed2-spans.jsonl").write_text("")
    record = bench_record.fold(tmp_path, "abc1234")
    assert record["rev"] == "abc1234" and record["machine"] == MACHINE
    ridge = record["workloads"]["ridge-wide"]
    assert ridge["end_to_end"]["seeds"] == [2, 3, 4, 5]
    run_s = ridge["end_to_end"]["metrics"]["protocol_run_s"]
    assert run_s["median"] == pytest.approx(0.65) and run_s["n"] == 4 and run_s["gated"]
    assert run_s["q1"] == pytest.approx(0.575) and run_s["q3"] == pytest.approx(0.75)
    assert ridge["end_to_end"]["metrics"]["aa"]["q1"] == pytest.approx(0.96)
    assert ridge["per_layer"]["metrics"]["classifiers.predict.ms"]["median"] == 300.0
    desk = record["workloads"]["desk-train"]
    assert "per_layer" not in desk and desk["end_to_end"]["metrics"]["protocol_run_s"]["n"] == 1


def test_fold_rejects_mixed_machines_and_empty_dirs(tmp_path):
    with pytest.raises(SystemExit):
        bench_record.fold(tmp_path, "abc1234")
    _run_file(tmp_path, "ridge-wide", 2, 0, {"protocol_run_s": 0.5})
    _run_file(tmp_path, "ridge-wide", 3, 0, {"protocol_run_s": 0.5}, {**MACHINE, "nproc": 4})
    with pytest.raises(SystemExit, match="machine"):
        bench_record.fold(tmp_path, "abc1234")
