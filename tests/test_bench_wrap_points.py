"""The benchmark's trace (perfbench/) times the frontend and the
classifier by replacing module attributes that ``sessions`` and
``classifiers`` look up by name. A refactor that calls them some other way
would leave those spans empty without any error, so this checks that each
wrap point still records its span."""

import importlib
from pathlib import Path

import numpy as np
import pytest

from ffcac import audio, sessions
from ffcac import classifiers as cls
from ffcac.audio import SynthConfig
from ffcac.config import ClassifierConfig, ExperimentConfig, PlanConfig, TrainConfig

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _installed(monkeypatch):
    """perfbench's tracer with every wrap point installed (not recording)."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracing").Tracer()
    try:
        importlib.import_module("workloads").install(tracer, full=True)  # raises if one is gone
    except BaseException:
        tracer.restore()
        raise
    return tracer


def test_frontend_wrap_points_record_one_span_per_stage(tmp_path, monkeypatch):
    cfg = ExperimentConfig()
    wav = tmp_path / "clip.wav"
    audio.write_wav(wav, audio.synth_class_waveform(1, 5, cfg.synth, cfg.frontend),
                    cfg.frontend.sample_rate_hz)
    pipeline = sessions.ClipPipeline(cfg)

    tracer = _installed(monkeypatch)
    try:
        tracer.recording = True
        pipeline.patches(sessions.ClipRef(label="a", split="train", synth_class=0, synth_seed=3))
        pipeline.patches(sessions.ClipRef(label="b", split="train", path=str(wav)))
        tracer.recording = False
    finally:
        tracer.restore()

    names = [span[1] for span in tracer.spans]
    assert names.count("sessions.ClipPipeline.patches") == 2
    assert names.count("audio.synth_class_waveform") == 1
    assert names.count("audio.load_wav") == 1
    assert names.count("audio.log_mel_spectrogram") == 2
    assert names.count("audio.patch_split") == 2
    assert sessions.load_wav is audio.load_wav  # restore() put the originals back


def test_classifier_wrap_points_record_every_update(monkeypatch):
    cfg = ExperimentConfig(
        train=TrainConfig(epochs=1),
        classifier=ClassifierConfig(kind="rrc", lam="cv", cv_folds=2),
        plan=PlanConfig(base_classes=2, inc_classes=2, sessions=2, shots=2),
        synth=SynthConfig(num_classes=6, clips_per_class=3, train_per_class=2),
    )
    plan, pipeline = sessions.build_plan(cfg), sessions.ClipPipeline(cfg)
    original = cls.update_incremental

    tracer = _installed(monkeypatch)
    try:
        tracer.recording = True
        sessions.run_single(cfg, cfg.run.seed, plan, pipeline)
        names = [span[1] for span in tracer.spans]
        del tracer.spans[:]
        cls.fit_base(np.eye(3), np.eye(3), 0.1)
        tracer.recording = False
    finally:
        tracer.restore()

    # the base fit is the update of an empty memory, then one per session
    assert names.count("classifiers.update_incremental") == 1 + cfg.plan.sessions
    assert names.count("classifiers.select_lambda_cv") == 1
    assert names.count("classifiers.fit_base") == 0
    assert names.count("sessions.run_incremental_session") == cfg.plan.sessions
    fit_names = [span[1] for span in tracer.spans]
    assert fit_names.count("classifiers.fit_base") == 1
    assert fit_names.count("classifiers.update_incremental") == 1
    assert cls.update_incremental is original  # restore() put the original back


def test_training_wrap_points_record_one_span_each_per_epoch(monkeypatch):
    """perfbench reads the base session's forward, backward and SGD time
    from these spans, outside the frozen embeddings that follow training."""
    cfg = ExperimentConfig(train=TrainConfig(epochs=2))  # configs/desk.cfg geometry
    plan, pipeline = sessions.build_plan(cfg), sessions.ClipPipeline(cfg)
    episode = sessions.sample_episode(plan, 0, cfg.run.seed)

    tracer = _installed(monkeypatch)
    try:
        tracer.recording = True
        sessions.run_base_session(episode, pipeline, cfg, cfg.run.seed)
        tracer.recording = False
    finally:
        tracer.restore()

    tracing = importlib.import_module("tracing")
    base = tracing.under(tracer.spans, "sessions.run_base_session")
    frozen = tracing.under(tracer.spans, "encoder.extract_embedding")
    training = [s[1] for s in tracer.spans if s[0] in base and s[0] not in frozen]
    for name in ("encoder.encoder_forward", "encoder.fuse", "classifiers.cosine_loss",
                 "autodiff.backward", "autodiff.sgd_step"):
        assert training.count(name) == cfg.train.epochs, name


def test_ridge_wide_protocol_runs_through_the_public_classifier_calls(tmp_path, monkeypatch):
    """The ridge-wide workload drives ``classifiers`` directly (it passes a
    state's ``registry`` to ``predict``); one small protocol run must fail
    no operation."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    bench = workloads.make("ridge-wide", 3, {"dim": 16, "classes": 12, "base_classes": 4,
                                             "base_shots": 5})
    bench.setup(tmp_path)
    rec = workloads.Recorder()
    bench.iterate(importlib.import_module("tracing").Tracer(), rec)
    assert rec.failed == 0, rec.failures
    assert rec.attempted > 0 and len(rec.samples["aa"]) == 1


# perfbench's tiny sizes for the two workloads that run `ffcac run`
_TINY_PROTOCOLS = {
    "desk-train": {"config": {"train.epochs": "1"}},
    "session-stream": {"classes": 10, "per_class": 8,
                       "config": {"train.epochs": "1", "plan.sessions": "1"}},
}


@pytest.mark.parametrize("name", sorted(_TINY_PROTOCOLS))
def test_protocol_workload_runs_and_checks_its_outputs(name, tmp_path, monkeypatch):
    """desk-train and session-stream check the outputs of `ffcac run`
    (report.csv against the report renderer, both weight files reloaded);
    one small protocol run must fail no operation."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    bench = workloads.make(name, 3, _TINY_PROTOCOLS[name])
    bench.setup(tmp_path)
    tracer, rec = importlib.import_module("tracing").Tracer(), workloads.Recorder()
    try:
        workloads.install(tracer, full=False)
        bench.iterate(tracer, rec)
    finally:
        tracer.restore()
    assert rec.failed == 0, rec.failures
    assert rec.attempted > 0 and len(rec.samples["aa"]) == 1
