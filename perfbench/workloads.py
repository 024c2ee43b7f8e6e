"""The benchmark's three workloads and the layer wrap points of its trace.

Each workload makes its inputs from the workload seed, runs one closed-loop
client (the next protocol run starts when the previous one has returned)
and checks the program's outputs. Timing samples, operation counts and
failures go into a ``Recorder``.

* desk-train: ``ffcac run`` on the acceptance desk geometry of
  configs/desk.cfg (10 synthetic classes, 5-way 5-shot base session plus
  one 5-way 5-shot session, 100 epochs). About 96% of it is the base-session
  finetune, so it stresses autodiff and encoder training.
* session-stream: ``ffcac run`` on a WAV manifest written by ``ffcac
  synth-data``: a few base epochs, then many 5-way 5-shot sessions, each
  scored on the growing union test set. It stresses the frozen-extractor
  path: WAV load, log-mel, extract_embedding and evaluate.
* ridge-wide: the ridge classifier's learning memory at the ast-base width,
  D = 768, driven only through public ``classifiers`` functions on
  class-clustered embeddings. Only here do classifiers and weights_io
  dominate; the other two run them at D = 32.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from ffcac import audio, autodiff, cli, config, sessions, weights_io
from ffcac import classifiers as cls
from ffcac import encoder as enc
from ffcac.errors import FfcacError

ROOT = Path(__file__).resolve().parent.parent
DESK_CONFIG = ROOT / "configs" / "desk.cfg"
EQUIVALENCE_TOL = 1e-8  # acceptance bound on |W_incremental - W_batch|

AUTODIFF_OPS = (
    "add", "sub", "mul", "div", "scale", "relu", "gelu", "exp", "log", "power",
    "matmul", "transpose", "reshape", "concat", "slice_axis", "sum_", "mean",
    "softmax", "layer_norm",
)


class CheckFailed(Exception):
    """An output of the program is wrong."""


class IterationFailed(Exception):
    """An operation failed; the rest of this protocol run is skipped."""


def check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


class Recorder:
    """Timing samples, attempted and failed operations, result fingerprints.

    Timings are taken with ``clock``, which the benchmark sets to a clock
    that leaves out the host-speed probe's own time (see probe.py).
    """

    def __init__(self):
        self.clock = time.perf_counter
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.fingerprints: list[str] = []

    def fail(self, kind: str, err: BaseException) -> None:
        self.failed += 1
        self.failures.append(f"{kind}: {type(err).__name__}: {err}")

    def attempt(self, kind: str, fn, *args):
        """Run one counted operation; an FfcacError or failed check ends the
        protocol run, which the caller counts as failed too."""
        self.attempted += 1
        try:
            return fn(*args)
        except (FfcacError, CheckFailed) as e:
            self.fail(kind, e)
            raise IterationFailed(kind) from e

    def verify(self, kind: str, ok: bool, what: str) -> None:
        """Fail the operation just attempted when its output check fails."""
        if not ok:
            self.fail(kind, CheckFailed(what))
            raise IterationFailed(kind)

    def timed(self, kind: str, sample: str, scale: float, fn, *args):
        start = self.clock()
        result = self.attempt(kind, fn, *args)
        self.samples[sample].append((self.clock() - start) * scale)
        return result


def _quiet(fn, *args):
    """Call ``fn`` with its stdout and stderr captured; return (result, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        result = fn(*args)
    return result, err.getvalue()


def _residual_ok(state: cls.RidgeState, w: np.ndarray) -> bool:
    system = state.gram + state.lam * np.eye(state.dim)
    residual = np.max(np.abs(system @ w - state.cross))
    return residual <= cls.RESIDUAL_RTOL * (1.0 + np.max(np.abs(state.cross), initial=0.0))


def _roundtrip(path: Path, state: cls.RidgeState) -> cls.RidgeState:
    cls.save_state(path, state)
    return cls.load_state(path)


# ---------------------------------------------------------------------------
# desk-train and session-stream: one seed through `ffcac run`


class ProtocolWorkload:
    """``ffcac run`` with repeats = 1 on a config the benchmark writes.

    Every protocol run in one benchmark run uses the same config, so every
    ``report.json`` must have the same bytes.
    """

    defaults: dict = {"config": {}}

    def __init__(self, seed: int, sizes: dict | None = None):
        self.seed = seed
        self.sizes = {**self.defaults, **(sizes or {})}
        self.cfg_path: Path | None = None
        self.out: Path | None = None

    def _inputs(self, dest: Path) -> dict[str, str]:
        """Write any input files into ``dest``; return extra config keys."""
        return {}

    def setup(self, dest: Path) -> None:
        dest.mkdir(parents=True, exist_ok=True)
        flat = config.load_config(DESK_CONFIG).to_flat_dict()
        flat["run.seed"] = str(self.seed)
        flat["run.repeats"] = "1"
        if "run.threads" in flat:
            flat["run.threads"] = "1"
        flat.update(self.sizes["config"])
        flat.update(self._inputs(dest))
        self.cfg_path = dest / "bench.cfg"
        self.cfg_path.write_text("".join(f"{k} = {v}\n" for k, v in flat.items()),
                                 encoding="utf-8")
        self.out = dest / "out"

    def iterate(self, tracer, rec: Recorder) -> float:
        argv = ["run", "--config", str(self.cfg_path), "--out", str(self.out)]
        mark = len(tracer.spans)
        tracer.recording = True
        try:
            start = rec.clock()
            rc, err = _quiet(cli.main, argv)
            elapsed = rec.clock() - start
        finally:
            tracer.recording = False
        spans = tracer.spans[mark:]
        for s in spans:
            if s[1] == "sessions.run_incremental_session":
                rec.attempted += 1
                if not s[8]:
                    rec.fail("session", CheckFailed("incremental session raised"))
        check(rc == 0, f"ffcac run exited {rc}: {err.strip()}")
        self._check_outputs(rec)
        for s in spans:
            if s[1] == "sessions.run_incremental_session":
                rec.samples["session_ms"].append((s[3] - s[2]) * 1e3)
            elif s[1] == "sessions.evaluate":
                rec.samples["eval_s"].append(s[3] - s[2])
                rec.samples["clips"].append(s[7])
        return elapsed

    def _check_outputs(self, rec: Recorder) -> None:
        report = (self.out / "report.json").read_bytes()
        csv = (self.out / "report.csv").read_text(encoding="utf-8")
        check(sessions.json_report_to_csv(report.decode("utf-8")) == csv,
              "report.csv differs from json_report_to_csv(report.json)")
        cfg = config.load_config(self.cfg_path)
        enc.load_params(self.out / "mee.weights", cfg.encoder_config())
        state = cls.load_state(self.out / "classifier.weights")
        check(_residual_ok(state, cls.solve_weights(state)),
              "classifier.weights solves outside the residual bound")
        run = json.loads(report)["runs"][0]
        rec.samples["aa"].append(run["aa"])
        rec.samples["pd"].append(run["pd"])
        rec.fingerprints.append(hashlib.sha256(report).hexdigest())


class SessionStream(ProtocolWorkload):
    defaults = {
        "classes": 45,
        "per_class": 20,
        "config": {
            "train.epochs": "5",
            "plan.base_classes": "5",
            "plan.inc_classes": "5",
            "plan.sessions": "8",
            "plan.shots": "5",
        },
    }

    def _inputs(self, dest: Path) -> dict[str, str]:
        wavs = dest / "wavs"
        argv = ["synth-data", "--classes", str(self.sizes["classes"]),
                "--per-class", str(self.sizes["per_class"]),
                "--out", str(wavs), "--seed", str(self.seed)]
        rc, err = _quiet(cli.main, argv)
        check(rc == 0, f"ffcac synth-data exited {rc}: {err.strip()}")
        return {"data.source": "manifest", "data.manifest": str(wavs / "manifest.csv")}


# ---------------------------------------------------------------------------
# ridge-wide: the learning memory at D = 768


class RidgeWide:
    """λ-CV and fit_base on a wide base episode, then many sessions of
    update_incremental, a save_state/load_state round trip, solve_weights
    and per-row predict over the union test set."""

    defaults = {
        "dim": 768,
        "classes": 100,
        "base_classes": 20,
        "base_shots": 10,
        "ways": 5,
        "shots": 5,
        "test_per_class": 5,
        # within-class noise std against unit-variance class means; at 2.5 λ-CV
        # picks the same λ for every seed tried, so accuracy varies little
        "spread": 2.5,
        "lam_grid": (1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0, 1000.0),
        "folds": 5,
    }

    def __init__(self, seed: int, sizes: dict | None = None):
        self.seed = seed
        self.sizes = {**self.defaults, **(sizes or {})}

    def setup(self, dest: Path) -> None:
        z = self.sizes
        dest.mkdir(parents=True, exist_ok=True)
        self.path = dest / "state.weights"
        rng = np.random.default_rng(self.seed)
        means = rng.normal(size=(z["classes"], z["dim"]))
        self.labels = [f"class{c:03d}" for c in range(z["classes"])]
        self.train, self.test = [], []
        for c in range(z["classes"]):
            shots = z["base_shots"] if c < z["base_classes"] else z["shots"]
            self.train.append(means[c] + z["spread"] * rng.normal(size=(shots, z["dim"])))
            self.test.append(means[c] + z["spread"] * rng.normal(size=(z["test_per_class"], z["dim"])))
        bounds = [0, z["base_classes"]]
        while bounds[-1] + z["ways"] <= z["classes"]:
            bounds.append(bounds[-1] + z["ways"])
        self.sessions = [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]

    def _episode(self, classes: range) -> tuple[np.ndarray, np.ndarray]:
        e = np.vstack([self.train[c] for c in classes])
        y = np.zeros((e.shape[0], len(classes)))
        row = 0
        for j, c in enumerate(classes):
            y[row : row + len(self.train[c]), j] = 1.0
            row += len(self.train[c])
        return e, y

    def _query(self, w: np.ndarray, state: cls.RidgeState, upto: int, rec: Recorder) -> float:
        correct = total = 0
        start = rec.clock()
        for c in range(self.sessions[upto][-1] + 1):
            for row in self.test[c]:
                label, _ = cls.predict(w, state.registry, row)
                correct += label == self.labels[c]
                total += 1
        rec.samples["eval_s"].append(rec.clock() - start)
        rec.samples["clips"].append(total)
        return correct / total

    def iterate(self, tracer, rec: Recorder) -> float:
        tracer.recording = True
        try:
            return self._protocol(tracer, rec)
        finally:
            tracer.recording = False

    def _protocol(self, tracer, rec: Recorder) -> float:
        z = self.sizes
        start = rec.clock()
        checking = 0.0
        base = self.sessions[0]
        e0, y0 = self._episode(base)
        labels0 = [self.labels[c] for c in base]
        lam = rec.timed("lambda_cv", "lambda_cv_s", 1.0, cls.select_lambda_cv,
                        e0, y0, z["lam_grid"], z["folds"], self.seed)
        state = rec.attempt("fit_base", cls.fit_base, e0, y0, lam, labels0)
        accuracies = [self._query(cls.solve_weights(state), state, 0, rec)]
        for m in range(1, len(self.sessions)):
            e, y = self._episode(self.sessions[m])
            new = [self.labels[c] for c in self.sessions[m]]
            t0 = rec.clock()
            state = rec.attempt("update", cls.update_incremental, state, e, y, new)
            t1 = rec.clock()
            loaded = rec.attempt("roundtrip", _roundtrip, self.path, state)
            t2 = rec.clock()
            with tracer.paused():
                rec.verify("roundtrip", cls.state_checksum(loaded) == cls.state_checksum(state),
                           "reloaded state has another checksum")
            t3 = rec.clock()
            w = rec.attempt("solve", cls.solve_weights, loaded)
            t4 = rec.clock()
            checking += t3 - t2
            rec.samples["session_ms"].append((t1 - t0 + t4 - t3) * 1e3)
            rec.samples["roundtrip_ms"].append((t2 - t1) * 1e3)
            rec.samples["solve_ms"].append((t4 - t3) * 1e3)
            state = loaded
            accuracies.append(self._query(w, state, m, rec))
        elapsed = rec.clock() - start - checking
        with tracer.paused():
            rec.attempt("equivalence", self._check_batch, state, w)
            rec.fingerprints.append(cls.state_checksum(state))
        rec.samples["aa"].append(sessions.compute_aa(accuracies))
        rec.samples["pd"].append(sessions.compute_pd(accuracies))
        return elapsed

    def _check_batch(self, state: cls.RidgeState, w: np.ndarray) -> None:
        """Incremental W after the last disk round trip equals a batch refit
        on the union of all sessions."""
        every = range(self.sessions[-1][-1] + 1)
        e, y = self._episode(every)
        batch = cls.fit_base(e, y, state.lam, [self.labels[c] for c in every])
        gap = float(np.max(np.abs(w - cls.solve_weights(batch))))
        check(gap <= EQUIVALENCE_TOL, f"|W_incremental - W_batch| = {gap:.3e} > {EQUIVALENCE_TOL}")


WORKLOADS = {
    "desk-train": ProtocolWorkload,
    "session-stream": SessionStream,
    "ridge-wide": RidgeWide,
}


def make(name: str, seed: int, sizes: dict | None = None):
    return WORKLOADS[name](seed, sizes)


# ---------------------------------------------------------------------------
# trace wrap points


def install(tracer, full: bool) -> None:
    """Wrap the layer entry points. The untraced run wraps only the two
    spans its end-to-end metrics need; the traced run wraps every layer."""
    tracer.span(sessions, "run_incremental_session", "sessions.run_incremental_session")
    tracer.span(sessions, "evaluate", "sessions.evaluate", info=lambda a, r: r.total)
    if not full:
        return
    # audio: sessions imports these by name
    tracer.span(sessions, "load_wav", "audio.load_wav")
    tracer.span(sessions, "synth_class_waveform", "audio.synth_class_waveform")
    tracer.span(sessions, "log_mel_spectrogram", "audio.log_mel_spectrogram")
    tracer.span(audio, "mel_filterbank", "audio.mel_filterbank")
    tracer.span(sessions, "patch_split", "audio.patch_split")
    # autodiff: called through the module, also by Tensor's operators
    tracer.span(autodiff, "backward", "autodiff.backward")
    tracer.span(autodiff, "sgd_step", "autodiff.sgd_step")
    for op in AUTODIFF_OPS:
        tracer.leaf(autodiff, op, f"autodiff.{op}")
    # encoder
    tracer.span(enc, "encoder_forward", "encoder.encoder_forward")
    tracer.span(enc, "fuse", "encoder.fuse")
    tracer.span(enc, "extract_embedding", "encoder.extract_embedding", scope="frozen")
    tracer.span(enc, "params_checksum", "encoder.params_checksum")
    # classifiers
    tracer.span(cls, "cosine_loss", "classifiers.cosine_loss")
    tracer.span(cls, "select_lambda_cv", "classifiers.select_lambda_cv")
    tracer.span(cls, "fit_base", "classifiers.fit_base")
    tracer.span(cls, "solve_weights", "classifiers.solve_weights")
    tracer.span(cls, "update_incremental", "classifiers.update_incremental")
    tracer.span(cls, "predict", "classifiers.predict")
    # weights_io
    tracer.span(weights_io, "serialize_container", "weights_io.serialize_container",
                info=lambda a, r: len(r))
    tracer.span(weights_io, "parse_container", "weights_io.parse_container")
    # sessions
    tracer.span(sessions, "run_base_session", "sessions.run_base_session", scope="train")
    seen: set = set()

    def new_clip(args, result) -> int:
        key = (tracer.run_id, args[1])
        if key in seen:
            return 0
        seen.add(key)
        return 1

    tracer.span(sessions.ClipPipeline, "patches", "sessions.ClipPipeline.patches", info=new_clip)
    # config and cli: cli imports load_config by name
    tracer.span(cli, "load_config", "config.load_config")
    tracer.span(cli, "main", "cli.main")
