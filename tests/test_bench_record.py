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


def _record(rev, metrics, n=10):
    """A folded record of one workload over n seeds: metric -> (median, q1, q3)."""
    summaries = {name: {"unit": "s", "gated": True, "median": m, "q1": q1, "q3": q3, "n": n}
                 for name, (m, q1, q3) in metrics.items()}
    section = {"seeds": list(range(n)), "seconds": 30.0, "metrics": summaries}
    return {"rev": rev, "machine": MACHINE,
            "workloads": {"desk-train": {"end_to_end": section, "per_layer": section}}}


def test_diff_gives_each_gated_end_to_end_metric_a_verdict(capsys):
    old = _record("old", {"protocol_run_s": (1.0, 0.98, 1.02), "setup_s": (1.0, 0.8, 1.1),
                          "aa": (0.9, 0.89, 0.91), "peak_rss_mb": (100.0, 99.5, 100.5),
                          "protocol_wall_s": (1.0, 0.98, 1.02)})
    new = _record("new", {"protocol_run_s": (1.3, 1.28, 1.32), "setup_s": (1.0, 0.8, 1.1),
                          "aa": (0.95, 0.94, 0.96), "peak_rss_mb": (100.5, 100.0, 101.0),
                          "protocol_wall_s": (2.0, 1.98, 2.02)})
    bench_record.diff(old, new)
    lines = capsys.readouterr().out.splitlines()[1:]
    assert [line.split()[6] for line in lines[:4]] == ["-"] * 4  # no per-seed values: no wins
    rows = [line.split()[1:2] + line.split()[7:] for line in lines]
    # BENCHMARK.json bounds: run and setup times 25%, aa 6%, peak RSS 2% of the old median
    assert rows[:5] == [
        ["protocol_run_s", "worse"],  # +30%
        ["setup_s", "unresolved"],  # the old IQR is 30% of its median
        ["aa", "better"],  # +0.05 against an old IQR of 0.02
        ["peak_rss_mb", "same"],  # +0.5%, within the old IQR
        ["protocol_wall_s"],  # not gated
    ]
    assert rows[5:] == [[name] for name in ("protocol_run_s", "setup_s", "aa", "peak_rss_mb",
                                            "protocol_wall_s")]  # per-layer rows are not judged


@pytest.mark.parametrize("n_old, n_new", [(3, 3), (3, 10), (10, 3)])
def test_diff_calls_no_gain_better_from_fewer_than_ten_seeds(capsys, n_old, n_new):
    old = _record("old", {"protocol_run_s": (1.0, 0.99, 1.01), "setup_s": (1.0, 0.99, 1.01),
                          "aa": (0.9, 0.89, 0.91)}, n=n_old)
    new = _record("new", {"protocol_run_s": (0.9, 0.89, 0.91), "setup_s": (1.3, 1.29, 1.31),
                          "aa": (0.9, 0.89, 0.91)}, n=n_new)
    bench_record.diff(old, new)
    rows = [line.split()[1:2] + line.split()[7:] for line in capsys.readouterr().out.splitlines()[1:4]]
    assert rows == [
        ["protocol_run_s", "unresolved"],  # -10% against an old IQR of 0.02: better at n >= 10
        ["setup_s", "worse"],  # worse and same keep their rules
        ["aa", "same"],
    ]


def _folded(tmp_path, rev, run_s):
    """A record folded from one ridge-wide run file per seed 1..n, with the
    given protocol_run_s values and a fixed aa."""
    out = tmp_path / rev
    out.mkdir()
    for seed, value in enumerate(run_s, start=1):
        _run_file(out, "ridge-wide", seed, 0, {"protocol_run_s": value, "aa": 0.9})
    return bench_record.fold(out, rev)


@pytest.mark.parametrize("won, expected", [(10, "better"), (9, "better"), (8, "unresolved")])
def test_diff_counts_the_seeds_the_new_side_wins(tmp_path, capsys, won, expected):
    parent = [0.42, 0.41, 0.43, 0.42, 0.41, 0.42, 0.43, 0.42, 0.41, 0.42]
    change = [p - 0.04 if k < won else p + 0.01 for k, p in enumerate(parent)]
    old, new = _folded(tmp_path, "old", parent), _folded(tmp_path, "new", change)
    assert old["workloads"]["ridge-wide"]["end_to_end"]["metrics"]["protocol_run_s"][
        "by_seed"] == {str(s): v for s, v in enumerate(parent, start=1)}
    bench_record.diff(old, new)
    rows = [line.split()[1:2] + line.split()[6:] for line in capsys.readouterr().out.splitlines()[1:]]
    # the median gains 0.04 s against an old IQR under 0.01 s whatever the wins
    assert rows == [["protocol_run_s", f"{won}/10", expected], ["aa", "0/10", "same"]]
    stripped = json.loads(json.dumps(old))
    for summary in stripped["workloads"]["ridge-wide"]["end_to_end"]["metrics"].values():
        del summary["by_seed"]  # a record written before per-seed values
    bench_record.diff(stripped, new)
    rows = [line.split()[1:2] + line.split()[6:] for line in capsys.readouterr().out.splitlines()[1:]]
    assert rows == [["protocol_run_s", "-", "better"], ["aa", "-", "same"]]
