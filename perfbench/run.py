#!/usr/bin/env python3
"""ffcac benchmark: one workload, one closed-loop client, one BLAS thread.

    python3 perfbench/run.py --workload desk-train --seed 1 --seconds 30 --trace 0

Run it from anywhere inside a checkout; it imports ffcac from the
checkout's ``src/`` and exits with code 2 when that is missing. Workloads
(see workloads.py): desk-train, session-stream, ridge-wide.

Set-up is timed in two parts: importing ffcac in a fresh interpreter
(nine times) and generating the workload's inputs (five times);
``setup_s`` is the sum of the two medians. Then protocol runs follow one
another, each starting when the previous one has returned, while the
elapsed time plus half the median run time stays within ``--seconds``.
Every output is checked; a raised FfcacError or a failed check counts as a
failed operation and does not stop the benchmark.

The host's speed drifts by up to half within seconds, so every timing is
taken while a host-speed probe runs and is scaled to the probe's reference
speed (probe.py): ``setup_s`` and ``protocol_run_s`` read the seconds the
work takes at that speed. ``setup_wall_s`` and ``protocol_wall_s`` are the
same medians unscaled (the wall clock less the probe's own time), recorded
but not gated.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end metrics of BENCHMARK.json. With ``--trace
1`` untraced and traced protocol runs alternate, and the metrics are the
per-layer metrics of BENCHMARK.json from the traced runs, as means per
protocol run. The lines above it print every metric with its unit and
sample count, including the end-to-end metrics that are recorded but not
gated (see ``GATED``), the output fingerprints and the machine facts. The
same goes to ``.perfbench_out/<workload>-seed<n>-trace<t>.json``; a traced
run also writes its spans there as JSONL.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("desk-train", "session-stream", "ridge-wide")
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_REPEATS = 9
INPUT_REPEATS = 5
TAIL_LADDER = (99, 90, 75, 50)  # tail percentiles, highest first
TRAIN_FORWARD = ("encoder.encoder_forward", "encoder.fuse", "classifiers.cosine_loss")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# statistics


def median(xs) -> float:
    return float(statistics.median(xs)) if xs else 0.0


def percentile(xs, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(xs)
    rank = max(1, -(-len(ordered) * p // 100))
    return float(ordered[int(rank) - 1])


def tail(xs) -> tuple[str, float]:
    """The highest percentile of the ladder with at least ten samples beyond
    it; the maximum when there are too few samples for any."""
    for p in TAIL_LADDER:
        if len(xs) * (100 - p) / 100 >= 10:
            return f"p{p}", percentile(xs, p)
    return "max", float(max(xs)) if xs else 0.0


# ---------------------------------------------------------------------------
# machine facts


def blas_facts() -> dict:
    """OpenBLAS build and live thread count of numpy's and scipy's copies."""
    import numpy
    import scipy

    facts = {}
    site = Path(numpy.__file__).resolve().parent.parent
    for pkg, mod in (("numpy", numpy), ("scipy", scipy)):
        info = {}
        try:
            blas = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            info["name"], info["version"] = blas.get("name"), blas.get("version")
        except (KeyError, TypeError):
            pass
        for lib in glob.glob(str(site / f"{pkg}.libs" / "lib*openblas*.so*")):
            try:
                handle = ctypes.CDLL(lib)
            except OSError:
                continue
            for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads"):
                fn = getattr(handle, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    info["threads"] = fn()
                    break
        facts[pkg] = info
    return facts


def machine_facts(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_facts(),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# metrics


# Gated in BENCHMARK.json; the other end-to-end metrics are printed and
# recorded but not gated. A gated metric is measured on every workload and
# must spread less than its bound over ten seeds. On desk-train, with one
# ~0.1 s incremental session and two evaluations per 10 s protocol run,
# session_p50_ms and classify_clips_per_s spread 17-27% over ten seeds on a
# shared 2-core host, against 5-11% on the other two workloads; pd and
# failed_ratio are 0 when all is well. Each protocol_run_s contains the
# others' work. The wall-clock figures spread with the host's speed.
GATED = ("setup_s", "protocol_run_s", "aa", "peak_rss_mb")
# end-to-end metrics reported on some workloads only
ONLY_ON = {
    "session_tail_ms": ("session-stream", "ridge-wide"),
    "solve_p50_ms": ("ridge-wide",),
    "lambda_cv_s": ("ridge-wide",),
    "state_roundtrip_ms": ("ridge-wide",),
}


def end_to_end(workload: str, rec, setup: tuple, protocol: tuple, rss_mb: float) -> dict:
    """The workload's end-to-end metrics: name -> (value, unit, sample count).

    ``setup`` and ``protocol`` each give the reference-speed figure and the
    wall-clock figure: set-up seconds, and the protocol runs' seconds.
    """
    s = rec.samples
    setup_s, setup_wall_s = setup
    protocol_s, protocol_wall = protocol
    tail_p, tail_ms = tail(s["session_ms"])
    clips, eval_s = sum(s["clips"]), sum(s["eval_s"])
    metrics = {
        "setup_s": (setup_s, "s", f"{IMPORT_REPEATS} imports, {INPUT_REPEATS} input sets"),
        "setup_wall_s": (setup_wall_s, "s", f"{IMPORT_REPEATS} imports, {INPUT_REPEATS} input sets"),
        "protocol_run_s": (median(protocol_s), "s", len(protocol_s)),
        "protocol_wall_s": (median(protocol_wall), "s", len(protocol_wall)),
        "session_p50_ms": (median(s["session_ms"]), "ms", len(s["session_ms"])),
        "session_tail_ms": (tail_ms, "ms", f"{len(s['session_ms'])} ({tail_p})"),
        "classify_clips_per_s": (clips / eval_s if eval_s else 0.0, "clips/s",
                                 f"{int(clips)} clips"),
        "solve_p50_ms": (median(s["solve_ms"]), "ms", len(s["solve_ms"])),
        "lambda_cv_s": (median(s["lambda_cv_s"]), "s", len(s["lambda_cv_s"])),
        "state_roundtrip_ms": (median(s["roundtrip_ms"]), "ms", len(s["roundtrip_ms"])),
        "aa": (median(s["aa"]), "fraction", len(s["aa"])),
        "pd": (median(s["pd"]), "fraction", len(s["pd"])),
        "failed_ratio": (rec.failed / max(rec.attempted, 1), "fraction",
                         f"{rec.attempted} operations"),
        "peak_rss_mb": (rss_mb, "MB", 1),
    }
    return {k: v for k, v in metrics.items() if workload in ONLY_ON.get(k, WORKLOAD_NAMES)}


# span name -> statistics reported per protocol run: calls, inclusive ms,
# and bytes returned
PER_LAYER_SPANS = {
    "audio.load_wav": ("calls", "ms"),
    "audio.log_mel_spectrogram": ("calls", "ms"),
    "audio.mel_filterbank": ("calls",),
    "audio.patch_split": ("ms",),
    "autodiff.backward": ("calls", "ms"),
    "autodiff.sgd_step": ("ms",),
    "encoder.extract_embedding": ("calls", "ms"),
    "encoder.fuse": ("ms",),
    "encoder.params_checksum": ("calls", "ms"),
    "classifiers.cosine_loss": ("ms",),
    "classifiers.select_lambda_cv": ("ms",),
    "classifiers.fit_base": ("calls", "ms"),
    "classifiers.solve_weights": ("calls", "ms"),
    "classifiers.update_incremental": ("ms",),
    "classifiers.predict": ("calls", "ms"),
    "weights_io.serialize_container": ("ms", "bytes"),
    "weights_io.parse_container": ("ms",),
    "sessions.run_base_session": ("ms",),
    "sessions.run_incremental_session": ("ms",),
    "sessions.evaluate": ("ms",),
    "config.load_config": ("ms",),
    "cli.main": ("ms",),
}
PER_LAYER_OPS = ("matmul", "slice_axis", "concat", "softmax", "layer_norm", "gelu")
UNITS = {"calls": "count", "ms": "ms", "bytes": "bytes"}


def span_table(spans) -> dict:
    """name -> [calls, total s, self s, info sum]."""
    table = defaultdict(lambda: [0, 0.0, 0.0, 0.0])
    for s in spans:
        row = table[s[1]]
        row[0] += 1
        row[1] += s[3] - s[2]
        row[2] += s[6]
        row[3] += s[7]
    return table


def per_layer(tracer, run_ids, protocol_s, wall_s, untraced_s) -> dict:
    """Per-layer metrics: name -> (value, unit, sample count).

    ``protocol_s`` and ``wall_s`` are the traced runs' reference-speed and
    wall seconds, ``untraced_s`` the untraced runs' median reference-speed
    seconds. Spans are timed on the same clock as ``wall_s`` (the wall clock
    less the probe's time), so shares are of ``wall_s``.
    """
    import tracing

    n = len(run_ids)
    runs = f"{n} traced runs"
    spans = tracer.spans_of(run_ids)
    table = span_table(spans)
    metrics = {}
    for name, stats in PER_LAYER_SPANS.items():
        calls, total, _, info = table[name]
        values = {"calls": calls, "ms": total * 1e3, "bytes": info}
        for stat in stats:
            metrics[f"{name}.{stat}"] = (values[stat] / n, UNITS[stat], runs)
    for op in PER_LAYER_OPS:
        calls, seconds = tracer.leaves[f"autodiff.{op}"]
        metrics[f"autodiff.{op}.calls"] = (calls / n, "count", runs)
        metrics[f"autodiff.{op}.ms"] = (seconds * 1e3 / n, "ms", runs)
    metrics["autodiff.op_calls.train"] = (tracer.scope_calls["train"] / n, "count", runs)
    metrics["autodiff.op_calls.frozen"] = (tracer.scope_calls["frozen"] / n, "count", runs)

    base = tracing.under(spans, "sessions.run_base_session")
    frozen = tracing.under(spans, "encoder.extract_embedding")
    training = [s for s in spans if s[0] in base and s[0] not in frozen]
    fwd = [s for s in training if s[1] == "encoder.encoder_forward"]
    metrics["encoder.encoder_forward.calls"] = (len(fwd) / n, "count", runs)
    metrics["encoder.encoder_forward.ms"] = (sum(s[6] for s in fwd) * 1e3 / n, "ms", runs)
    embeds, embed_s, _, _ = table["encoder.extract_embedding"]
    patches, _, _, distinct = table["sessions.ClipPipeline.patches"]
    frontend = table["audio.log_mel_spectrogram"][0]
    metrics["encoder.extract_embedding.clips_per_s"] = (
        embeds / embed_s if embed_s else 0.0, "clips/s", runs)
    metrics["sessions.patch_cache.hit_ratio"] = (
        1 - frontend / patches if patches else 0.0, "ratio", runs)
    metrics["sessions.embeds_per_clip"] = (embeds / distinct if distinct else 0.0, "ratio", runs)

    total_s = sum(wall_s)
    forward_s = sum(s[3] - s[2] for s in training if s[1] in TRAIN_FORWARD)
    for share, seconds in (("base_session", table["sessions.run_base_session"][1]),
                           ("forward", forward_s),
                           ("backward", table["autodiff.backward"][1]),
                           ("evaluate", table["sessions.evaluate"][1])):
        metrics[f"share.{share}"] = (seconds / total_s if total_s else 0.0, "fraction", runs)
    metrics["trace.overhead_s"] = (median(protocol_s) - untraced_s, "s", runs)
    return metrics


def layer_detail(tracer, run_ids) -> dict:
    """Every traced name: calls, inclusive and self ms per protocol run."""
    n = len(run_ids)
    out = {name: {"calls": c / n, "ms": t * 1e3 / n, "self_ms": st * 1e3 / n}
           for name, (c, t, st, _) in sorted(span_table(tracer.spans_of(run_ids)).items())}
    for name, (c, t) in sorted(tracer.leaves.items()):
        out[name] = {"calls": c / n, "ms": t * 1e3 / n, "self_ms": t * 1e3 / n}
    return out


# ---------------------------------------------------------------------------
# measurement loop and entry point


def measure(wl, tracer, rec, seconds: float, traced: bool):
    """Closed loop of protocol runs until the time budget is spent.

    Each protocol run is timed while the host-speed probe runs, and its time
    is scaled to the probe's reference speed (see probe.py); the wall time
    is recorded beside it. A traced benchmark alternates untraced and traced
    protocol runs, so the tracing overhead compares runs made under the same
    machine conditions. Returns the run ids, reference-speed seconds and
    wall seconds of each kind, untraced first.
    """
    import probe
    import workloads
    from ffcac.errors import FfcacError

    sampler = probe.Sampler()
    rec.clock = tracer.clock = sampler.clock
    runs = {False: ([], [], []), True: ([], [], [])}
    durations = []
    started = time.perf_counter()
    least = 2 if traced else 1
    while (len(durations) < least
           or (time.perf_counter() - started) + 0.5 * median(durations) < seconds):
        full = traced and len(durations) % 2 == 1
        tracer.restore()
        workloads.install(tracer, full)
        tracer.run_id += 1
        run_ids, protocol_s, wall_s = runs[full]
        run_ids.append(tracer.run_id)
        t = time.perf_counter()
        rec.attempted += 1
        try:
            with sampler.window():
                elapsed = wl.iterate(tracer, rec)
            protocol_s.append(elapsed * sampler.speed())
            wall_s.append(elapsed)
        except (FfcacError, workloads.CheckFailed, workloads.IterationFailed) as e:
            rec.fail("run", e)
        durations.append(time.perf_counter() - t)
    tracer.restore()
    return runs[False], runs[True]


def import_seconds() -> tuple[float, float]:
    """Time to import the program in a fresh interpreter, at the probe's
    reference speed and on the wall clock. The probe imports numpy, so
    numpy is imported before the clock starts."""
    code = "\n".join((
        f"import sys; sys.path[:0] = [{str(SRC)!r}, {str(HERE)!r}]; import probe",
        "sampler = probe.Sampler()",
        "with sampler.window():",
        "    t = sampler.clock(); import ffcac.cli; took = sampler.clock() - t",
        "print(took * sampler.speed(), took)",
    ))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, timeout=120)
    ref_s, wall_s = proc.stdout.strip().splitlines()[-1].split()
    return float(ref_s), float(wall_s)


def main(argv=None, sizes: dict | None = None) -> int:
    """Run one workload; ``sizes`` overrides its input sizes (tests)."""
    args = parse_args(argv)
    if not (SRC / "ffcac" / "__init__.py").is_file():
        print(f"error: no ffcac sources under {SRC}", file=sys.stderr)
        return 2
    for path in (str(SRC), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import ffcac
    import probe
    import tracing
    import workloads

    if not Path(ffcac.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported ffcac from {ffcac.__file__}, not {SRC}", file=sys.stderr)
        return 2

    work = OUT / "work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    wl = workloads.make(args.workload, args.seed, sizes)
    import_times, import_wall = zip(*(import_seconds() for _ in range(IMPORT_REPEATS)))
    sampler = probe.Sampler()
    input_times, input_wall = [], []
    for k in range(INPUT_REPEATS):  # the last set of inputs is the one used
        with sampler.window():
            t = sampler.clock()
            wl.setup(work / f"setup{k}")
            took = sampler.clock() - t
        input_times.append(took * sampler.speed())
        input_wall.append(took)
        if k:
            shutil.rmtree(work / f"setup{k - 1}")
    setup_s = median(import_times) + median(input_times)
    setup_wall_s = median(import_wall) + median(input_wall)

    tracer = tracing.Tracer()
    rec = workloads.Recorder()
    (_, plain_s, plain_wall), (traced_ids, traced_s, traced_wall) = measure(
        wl, tracer, rec, args.seconds, bool(args.trace))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.trace:
        metrics = per_layer(tracer, traced_ids, traced_s, traced_wall, median(plain_s))
        shown = metrics
    else:
        shown = end_to_end(args.workload, rec, (setup_s, setup_wall_s),
                           (plain_s, plain_wall), rss_mb)
        metrics = {k: shown[k] for k in GATED}
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "machine": machine_facts(args.seed),
        "metrics": {k: {"value": v, "unit": u, "n": n, "gated": k in metrics}
                    for k, (v, u, n) in shown.items()},
        "fingerprints": sorted(set(rec.fingerprints)),
        "setup": {"import_s": import_times, "import_wall_s": import_wall,
                  "inputs_s": input_times, "inputs_wall_s": input_wall},
        "protocol_run_s": {"untraced": plain_s, "traced": traced_s},
        "protocol_wall_s": {"untraced": plain_wall, "traced": traced_wall},
        "failures": rec.failures[:20],
    }
    if args.trace:
        detail["layers"] = layer_detail(tracer, traced_ids)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(detail, indent=2) + "\n", encoding="utf-8")
    if args.trace:
        tracer.write_jsonl(OUT / f"{args.workload}-seed{args.seed}-spans.jsonl")
    shutil.rmtree(work, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  protocol runs "
          f"{len(plain_s)} untraced, {len(traced_s)} traced")
    print("machine " + json.dumps(detail["machine"], sort_keys=True))
    for name, m in detail["metrics"].items():
        note = "" if m["gated"] else "  (recorded, not gated)"
        print(f"  {name:40s} {m['value']:14.6g} {m['unit']:9s} n={m['n']}{note}")
    print(f"  fingerprints {' '.join(detail['fingerprints'])}")
    for line in detail["failures"]:
        print(f"  failure: {line}")
    print(json.dumps({
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    for var in BLAS_ENV:  # single-threaded BLAS baseline; recorded in the result
        os.environ[var] = "1"
    os.environ.pop("FFCAC_THREADS", None)  # keep run.threads = 1 from the config
    sys.exit(main())
