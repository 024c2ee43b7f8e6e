"""Command-line interface.

Subcommands: synth-data, run, ablate, count-complexity, report.
Exit codes: 0 ok, 2 config or out of memory, 3 IO, 4 numeric, 5 protocol violation.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import errno
import json
import os
import stat
import sys
from pathlib import Path

from . import classifiers as cls
from . import encoder as enc
from . import sessions
from .audio import ClipRef, FrontendConfig, SynthConfig, synth_class_waveform, write_manifest, write_wav
from .config import ExperimentConfig, ast_base_config, fits_int64, load_config, validate_config
from .errors import ConfigError, FfcacError, IngestionError
from .weights_io import read_text


# synth-data flag -> the synth.* field it sets
_SYNTH_FLAGS = {"num_classes": "--classes", "clips_per_class": "--per-class",
                "train_per_class": "--train-fraction", "noise_amplitude": "--noise"}


def cmd_synth_data(args) -> int:
    frontend = FrontendConfig()
    fraction = args.train_fraction
    if not 0.0 <= fraction <= 1.0:  # also rejects nan
        raise ConfigError(f"--train-fraction must be in [0, 1], got {fraction}")
    for flag, count in (("--classes", args.classes), ("--per-class", args.per_class)):
        if not fits_int64(count):  # as the synth.* keys; round() below needs a float-sized count
            raise ConfigError(f"{flag} must fit in 64 bits, got {count}")
    if not (args.seed >= 0 and fits_int64(args.seed)):  # run.seed's rule
        raise ConfigError(f"--seed: must be >= 0 and fit in 64 bits, got {args.seed}")
    cfg = SynthConfig(num_classes=args.classes, clips_per_class=args.per_class,
                      train_per_class=min(max(1, round(fraction * args.per_class)), args.per_class - 1),
                      noise_amplitude=args.noise)
    bad = cfg.problems(frontend.sample_rate_hz)
    if bad:
        raise ConfigError("invalid synth-data options:\n  " + "\n  ".join(
            f"{_SYNTH_FLAGS.get(name, 'synth.' + name)}: {why}" for name, why in bad))
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise IngestionError(f"cannot create output dir {out}: {e}") from e
    rows = []
    for k, ref in enumerate(sessions.synthetic_dataset(cfg, args.seed)):
        name = f"{ref.label}_{k % cfg.clips_per_class:03d}.wav"  # refs run class by class
        samples = synth_class_waveform(ref.synth_class, ref.synth_seed, cfg, frontend)
        try:
            write_wav(out / name, samples, frontend.sample_rate_hz)
        except OSError as e:
            raise IngestionError(f"cannot write {out / name}: {e}") from e
        rows.append(ClipRef(label=ref.label, split=ref.split, path=name))
    try:
        write_manifest(out / "manifest.csv", rows)
    except OSError as e:
        raise IngestionError(f"cannot write manifest: {e}") from e
    print(f"wrote {len(rows)} clips for {args.classes} classes to {out}")
    return 0


@contextlib.contextmanager
def _outputs_to(out: Path):
    """An OSError inside as the IngestionError that names ``out``."""
    try:
        yield
    except OSError as e:
        raise IngestionError(f"cannot write outputs to {out}: {e}") from e


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    if args.threads is not None:
        cfg = dataclasses.replace(cfg, run=dataclasses.replace(cfg.run, threads=args.threads))
        validate_config(cfg)
    out = Path(args.out)
    with _outputs_to(out):  # before training, so an unusable --out costs none
        out.mkdir(parents=True, exist_ok=True)
    (report,), params, (state,) = sessions.run_repeated(cfg)
    with _outputs_to(out):
        json_text = sessions.report_to_json(report, cfg)
        (out / "report.json").write_text(json_text, encoding="utf-8")
        (out / "report.csv").write_text(sessions.json_report_to_csv(json_text), encoding="utf-8")
        enc.save_params(out / "mee.weights", params)
        cls.save_state(out / "classifier.weights", state)
    accs = " ".join(f"{a:.4f}" for a in report.mean_accuracies)
    print(f"sessions: {len(report.mean_accuracies)}  mean A_m: {accs}")
    print(f"AA {report.mean_aa:.4f} +/- {report.std_aa:.4f}   "
          f"PD {report.mean_pd:.4f} +/- {report.std_pd:.4f}")
    print(f"outputs in {args.out}")
    return 0


def _check_table_path(path: str) -> None:
    """Raise, before any training, the error that writing the table to
    ``path`` would end with when its directory is missing or ``path`` is a
    directory."""
    try:
        parent = os.stat(os.path.dirname(path) or ".")
        code = (errno.ENOTDIR if not stat.S_ISDIR(parent.st_mode)
                else errno.EISDIR if os.path.isdir(path) else 0)
    except OSError as e:
        code = e.errno
    if code:
        raise IngestionError(f"cannot write {path}: {OSError(code, os.strerror(code), path)}")


def cmd_ablate(args) -> int:
    cfg = load_config(args.config)
    fusions = [False, True] if args.fusion == "both" else [args.fusion == "on"]
    kinds = ["pbc", "rrc"] if args.classifier == "both" else [args.classifier]
    if args.out:
        _check_table_path(args.out)
    classifiers = [dataclasses.replace(cfg.classifier, kind=kind) for kind in kinds]
    for classifier in classifiers:  # each row under the config's rules, before any training
        validate_config(dataclasses.replace(cfg, classifier=classifier))
    reports = {}
    for use_fusion in fusions:  # one extractor per seed, scored by every classifier row
        case = dataclasses.replace(cfg, encoder=dataclasses.replace(cfg.encoder, use_fusion=use_fusion))
        for kind, report in zip(kinds, sessions.run_repeated(case, classifiers)[0]):
            reports[kind, use_fusion] = report
    header = ["fusion", "classifier"] + [f"A_{m}" for m in range(cfg.plan.sessions + 1)] + ["AA", "PD"]
    lines = [",".join(header)]
    for kind in kinds:
        for use_fusion in fusions:
            report = reports[kind, use_fusion]
            values = report.mean_accuracies + [report.mean_aa, report.mean_pd]
            lines.append(",".join(["on" if use_fusion else "off", kind] + [f"{v:.4f}" for v in values]))
    table = "\n".join(lines) + "\n"
    print(table, end="")
    if args.out:
        try:
            Path(args.out).write_text(table, encoding="utf-8")
        except OSError as e:
            raise IngestionError(f"cannot write {args.out}: {e}") from e
    return 0


def cmd_count_complexity(args) -> int:
    if args.preset == "ast-base":
        enc_cfg = ast_base_config()
        num_classes = args.num_classes if args.num_classes is not None else 100
    else:
        cfg = load_config(args.config) if args.config else ExperimentConfig()
        enc_cfg = cfg.encoder_config()
        num_classes = args.num_classes if args.num_classes is not None else (
            cfg.synth.num_classes if cfg.data.source == "synth"
            else cfg.plan.base_classes + cfg.plan.sessions * cfg.plan.inc_classes
        )
    report = enc.count_params_macs(enc_cfg, num_classes)
    if args.json:
        print(json.dumps(dataclasses.asdict(report), indent=2))
    else:
        print(f"parameters: {report.num_params} "
              f"(extractor {report.num_params_extractor}, classifier {report.num_params_classifier})")
        print(f"macs per clip: {report.macs}")
    return 0


def cmd_report(args) -> int:
    csv_text = sessions.json_report_to_csv(read_text(args.json_path))
    if args.csv:
        try:
            Path(args.csv).write_text(csv_text, encoding="utf-8")
        except OSError as e:
            raise IngestionError(f"cannot write {args.csv}: {e}") from e
    else:
        print(csv_text, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ffcac",
        description="Fully few-shot class-incremental audio classification lab",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth-data", help="emit synthetic WAV clips + manifest")
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--per-class", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--noise", type=float, default=0.02)
    p.add_argument("--train-fraction", type=float, default=0.6)
    p.set_defaults(fn=cmd_synth_data)

    p = sub.add_parser("run", help="run the full session protocol")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--threads", type=int, default=None,
                   help="parallel runs; overrides run.threads in the config")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("ablate", help="fusion x classifier ablation grid")
    p.add_argument("--config", required=True)
    p.add_argument("--fusion", choices=["on", "off", "both"], default="both")
    p.add_argument("--classifier", choices=["rrc", "pbc", "both"], default="both")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_ablate)

    p = sub.add_parser("count-complexity", help="parameter and MAC census")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--config", default=None)
    source.add_argument("--preset", choices=["ast-base"], default=None)
    p.add_argument("--num-classes", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_count_complexity)

    p = sub.add_parser("report", help="re-render a report JSON as CSV")
    p.add_argument("json_path")
    p.add_argument("--csv", default=None)
    p.set_defaults(fn=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except FfcacError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.exit_code
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except MemoryError as e:  # a config whose arrays cannot be allocated, as a plan the inputs cannot fill
        print(f"error: out of memory: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
