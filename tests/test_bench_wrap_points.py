"""The benchmark's trace (perfbench/) times the frontend by replacing
module attributes that ``sessions`` looks up by name. A refactor that
calls the frontend some other way would leave those spans empty without
any error, so this checks that each wrap point still records its span."""

import importlib
from pathlib import Path

from ffcac import audio, sessions
from ffcac.config import ExperimentConfig

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_frontend_wrap_points_record_one_span_per_stage(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    workloads = importlib.import_module("workloads")
    cfg = ExperimentConfig()
    wav = tmp_path / "clip.wav"
    audio.write_wav(wav, audio.synth_class_waveform(1, 5, cfg.synth, cfg.frontend),
                    cfg.frontend.sample_rate_hz)
    pipeline = sessions.ClipPipeline(cfg)

    tracer = tracing.Tracer()
    try:
        workloads.install(tracer, full=True)  # raises if a wrap point is gone
        tracer.recording = True
        pipeline.patches(sessions.ClipRef(label="a", synth_class=0, synth_seed=3))
        pipeline.patches(sessions.ClipRef(label="b", path=str(wav)))
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
