#!/usr/bin/env python3
"""Fold one checkout's benchmark results into a committed BENCH_<rev>.json.

    python3 scripts/bench_record.py CHECKOUT/.perfbench_out [--rev REV] [--out DIR]
    python3 scripts/bench_record.py --diff BENCH_<old>.json BENCH_<new>.json

The first form reads every ``<workload>-seed<n>-trace<t>.json`` that
``perfbench/run.py`` wrote into the directory, one run per workload, seed
and trace setting, and writes ``BENCH_<rev>.json`` into ``--out``
(default: the current directory). The file holds the machine facts, the
git revision (default: the short HEAD of the checkout that holds the
directory) and, for each workload, the seeds and the median, quartiles and
n over those seeds of every end-to-end metric (``--trace 0`` runs) and,
where traced runs exist, of every per-layer metric (``--trace 1``). The
runs must share their machine facts. The second form prints, per workload
and metric, both medians, their ratio and the old file's interquartile
range; each end-to-end metric that the repo's BENCHMARK.json gates also
gets a verdict under that file's ``better`` and ``bound`` (see ``verdict``).
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

RUN_FILE = re.compile(r"(?P<workload>.+)-seed(?P<seed>\d+)-trace(?P<trace>[01])\.json")
SECTIONS = {"0": "end_to_end", "1": "per_layer"}
BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MIN_SEEDS_FOR_GAIN = 10  # fewer seeds than this cannot show a gain


def summary(values: list[float]) -> dict:
    """Median, inclusive quartiles and count of one metric over seeds."""
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def git_rev(checkout: Path) -> str:
    proc = subprocess.run(["git", "-C", str(checkout), "rev-parse", "--short", "HEAD"],
                          capture_output=True, text=True, check=True)
    return proc.stdout.strip()


def fold_seeds(by_seed: dict[int, dict]) -> dict:
    seeds = sorted(by_seed)
    first = by_seed[seeds[0]]
    metrics = {name: {"unit": meta["unit"], "gated": meta["gated"],
                      **summary([by_seed[s]["metrics"][name]["value"] for s in seeds])}
               for name, meta in first["metrics"].items()}
    return {"seeds": seeds, "seconds": first["seconds"], "metrics": metrics}


def fold(out_dir: Path, rev: str) -> dict:
    runs: dict[str, dict[str, dict[int, dict]]] = {}
    for path in sorted(out_dir.glob("*-seed*-trace*.json")):
        m = RUN_FILE.fullmatch(path.name)
        if m:
            by_seed = runs.setdefault(m["workload"], {}).setdefault(SECTIONS[m["trace"]], {})
            by_seed[int(m["seed"])] = json.loads(path.read_text("utf-8"))
    if not any("end_to_end" in sections for sections in runs.values()):
        raise SystemExit(f"error: no <workload>-seed<n>-trace0.json files in {out_dir}")
    machines = {json.dumps({k: v for k, v in run["machine"].items() if k != "seed"}, sort_keys=True)
                for sections in runs.values() for by_seed in sections.values()
                for run in by_seed.values()}
    if len(machines) != 1:
        raise SystemExit(f"error: the runs in {out_dir} disagree on the machine facts")
    workloads = {workload: {section: fold_seeds(by_seed) for section, by_seed in sorted(sections.items())}
                 for workload, sections in sorted(runs.items())}
    return {"rev": rev, "machine": json.loads(machines.pop()), "workloads": workloads}


def verdict(a: dict, b: dict, better: str, bound: float) -> str:
    """Old summary ``a`` against new summary ``b`` of one gated metric:
    ``worse`` if the new median is worse by more than ``bound`` times the
    old median, else ``unresolved`` if the old IQR exceeds that much, else
    ``better`` if the median improves by more than the old IQR (but
    ``unresolved`` when either side has fewer than ``MIN_SEEDS_FOR_GAIN``
    seeds, whose quartiles sit too close to tell a gain from drift), else
    ``same``."""
    gain = b["median"] - a["median"] if better == "higher" else a["median"] - b["median"]
    allowed = bound * abs(a["median"])
    iqr = a["q3"] - a["q1"]
    if -gain > allowed:
        return "worse"
    if iqr > allowed:
        return "unresolved"
    if gain <= iqr:
        return "same"
    return "better" if min(a["n"], b["n"]) >= MIN_SEEDS_FOR_GAIN else "unresolved"


def diff(old: dict, new: dict) -> None:
    gates = {m["name"]: m for m in json.loads(BENCHMARK.read_text("utf-8"))["end_to_end"]}
    print(f"{'workload':16s} {'metric':40s} {old['rev']:>12s} {new['rev']:>12s} "
          f"{'new/old':>8s} {'old IQR':>10s} verdict")
    for workload, sections in old["workloads"].items():
        for section, base in sections.items():
            other = new["workloads"].get(workload, {}).get(section, {}).get("metrics", {})
            for name, a in base["metrics"].items():
                b = other.get(name)
                if b is None:
                    continue
                ratio = f"{b['median'] / a['median']:.3f}" if a["median"] else "-"
                gate = gates.get(name) if section == "end_to_end" else None
                judged = verdict(a, b, gate["better"], gate["bound"]) if gate else ""
                print(f"{workload:16s} {name:40s} {a['median']:12.5g} {b['median']:12.5g} "
                      f"{ratio:>8s} {a['q3'] - a['q1']:10.3g} {judged}".rstrip())


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("results", nargs="?", help="a .perfbench_out directory")
    p.add_argument("--rev", help="revision to record (default: the checkout's short HEAD)")
    p.add_argument("--out", default=".", help="directory for BENCH_<rev>.json")
    p.add_argument("--diff", nargs=2, metavar=("OLD", "NEW"), help="compare two BENCH files")
    args = p.parse_args(argv)
    if args.diff:
        old, new = (json.loads(Path(f).read_text("utf-8")) for f in args.diff)
        diff(old, new)
        return 0
    if not args.results:
        p.error("give a .perfbench_out directory or --diff OLD NEW")
    out_dir = Path(args.results).resolve()
    rev = args.rev or git_rev(out_dir.parent)
    record = fold(out_dir, rev)
    target = Path(args.out) / f"BENCH_{rev}.json"
    target.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
