"""Experiment configuration.

Config files are flat UTF-8 ``section.key = value`` lines ('#' comments).
Unknown keys are rejected and every offending key is reported at once.
Defaults are the method's published operating point: 25/15 ms frames,
128 mel bins, lr 0.001, weight decay 0.0005, 100 epochs, logit scale 16,
5-way 5-shot episodes, 100 repeated runs.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

from .audio import FrontendConfig, SynthConfig, patch_counts
from .encoder import EncoderConfig
from .errors import ConfigError
from .weights_io import read_text


@dataclass(frozen=True)
class PatchConfig:
    s_f: int = 16
    s_t: int = 16
    stride: int = 16


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.001
    weight_decay: float = 0.0005
    epochs: int = 100
    eta: float = 16.0  # cosine-softmax logit scale


@dataclass(frozen=True)
class ClassifierConfig:
    kind: str = "rrc"  # rrc | pbc
    lam: str = "cv"  # "cv" or a nonnegative float literal
    lam_grid: tuple = (1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0, 1000.0)
    cv_folds: int = 5

    def fixed_lam(self) -> float | None:
        return None if self.lam == "cv" else float(self.lam)


@dataclass(frozen=True)
class PlanConfig:
    base_classes: int = 5
    inc_classes: int = 5
    sessions: int = 1  # incremental session count M
    shots: int = 5  # K, per class per session


@dataclass(frozen=True)
class DataConfig:
    source: str = "synth"  # synth | manifest
    manifest: str = ""


@dataclass(frozen=True)
class RunConfig:
    seed: int = 7
    repeats: int = 100
    threads: int = 1


@dataclass(frozen=True)
class ExperimentConfig:
    frontend: FrontendConfig = field(default_factory=FrontendConfig)
    patch: PatchConfig = field(default_factory=PatchConfig)
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    classifier: ClassifierConfig = field(default_factory=ClassifierConfig)
    plan: PlanConfig = field(default_factory=PlanConfig)
    synth: SynthConfig = field(default_factory=SynthConfig)
    data: DataConfig = field(default_factory=DataConfig)
    run: RunConfig = field(default_factory=RunConfig)

    def lms_frames(self) -> int:
        return 1 + (self.frontend.clip_samples - self.frontend.frame_len) // self.frontend.frame_shift

    def encoder_config(self) -> EncoderConfig:
        """Full encoder config with the patch-budget fields derived from
        the frontend geometry (fixed clip length -> fixed patch count)."""
        grid = patch_counts(
            self.frontend.mel_bins, self.lms_frames(),
            self.patch.s_f, self.patch.s_t, self.patch.stride,
        )
        return dataclasses.replace(self.encoder, z_max=grid.z, patch_dim=self.patch.s_f * self.patch.s_t)

    def to_flat_dict(self) -> dict[str, str]:
        out: dict[str, str] = {}
        for key, (section_name, f) in _KEYS.items():
            value = getattr(getattr(self, section_name), f.name)
            if isinstance(value, tuple):
                out[key] = ",".join(repr(v) for v in value)
            elif isinstance(value, bool):
                out[key] = "true" if value else "false"
            else:
                out[key] = str(value)
        return out


# dataclass field -> config-file spelling, where they differ
_FIELD_ALIASES = {("classifier", "lam"): "classifier.lambda"}
# fields that encoder_config() derives from the frontend and patch keys
_DERIVED = {("encoder", "z_max"), ("encoder", "patch_dim")}

# config key -> (section, field), in file and report order
_KEYS: dict[str, tuple[str, dataclasses.Field]] = {
    _FIELD_ALIASES.get((section.name, f.name), f"{section.name}.{f.name}"): (section.name, f)
    for section in dataclasses.fields(ExperimentConfig)
    for f in dataclasses.fields(section.default_factory)
    if (section.name, f.name) not in _DERIVED
}

_TRUE = {"true", "on", "yes", "1"}
_FALSE = {"false", "off", "no", "0"}


def _finite(raw: str) -> float:
    v = float(raw)  # may raise ValueError
    if not math.isfinite(v):
        raise ValueError(f"must be finite, got {raw!r}")
    return v


def fits_int64(v: int) -> bool:
    return -2**63 <= v < 2**63


def _parse_value(key: str, raw: str, f: dataclasses.Field):
    # f.type is the annotation's text: every config module postpones annotations
    if key == "classifier.lambda":
        if raw == "cv":
            return "cv"
        v = _finite(raw)
        if v < 0:
            raise ValueError("lambda must be >= 0 or 'cv'")
        return repr(v)  # stored as str; fixed_lam() parses it back
    if f.type == "int":
        v = int(raw)
        if not fits_int64(v):
            raise ValueError(f"must fit in 64 bits, got {raw!r}")
        return v
    if f.type == "float":
        return _finite(raw)
    if f.type == "bool":
        low = raw.lower()
        if low in _TRUE:
            return True
        if low in _FALSE:
            return False
        raise ValueError(f"not a boolean: {raw!r}")
    if f.type == "tuple":
        return tuple(_finite(x) for x in raw.split(",") if x.strip())
    return raw


def parse_config_text(text: str) -> ExperimentConfig:
    """Parse flat key=value lines over the defaults."""
    base = ExperimentConfig()
    overrides: dict[str, dict[str, object]] = {}
    problems: list[str] = []
    set_on: dict[str, int] = {}  # key -> line setting it
    for ln, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            problems.append(f"line {ln}: expected key = value, got {stripped!r}")
            continue
        key, _, raw = stripped.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in _KEYS:
            problems.append(f"line {ln}: unknown key {key!r}")
            continue
        first = set_on.setdefault(key, ln)
        if first != ln:
            problems.append(f"line {ln}: {key} is already set on line {first}")
            continue
        section_name, f = _KEYS[key]
        try:
            value = _parse_value(key, raw, f)
        except ValueError as e:
            problems.append(f"line {ln}: bad value for {key}: {e}")
            continue
        overrides.setdefault(section_name, {})[f.name] = value
    if problems:
        raise ConfigError("invalid config:\n  " + "\n  ".join(problems))
    cfg = dataclasses.replace(base, **{
        name: dataclasses.replace(getattr(base, name), **values) for name, values in overrides.items()
    })
    validate_config(cfg)
    return cfg


def load_config(path) -> ExperimentConfig:
    return parse_config_text(read_text(path))


def validate_config(cfg: ExperimentConfig) -> None:
    """Range checks across every section; all offenders reported at once."""
    bad: list[str] = []

    def check(ok: bool, key: str, why: str):
        if not ok:
            bad.append(f"{key}: {why}")

    fe = cfg.frontend
    check(fe.sample_rate_hz > 0, "frontend.sample_rate_hz", "must be positive")
    check(fe.frame_ms > 0 and fe.shift_ms > 0, "frontend.frame_ms/shift_ms", "must be positive")
    check(fe.mel_bins >= 1, "frontend.mel_bins", "must be >= 1")
    check(0 <= fe.fmin_hz < fe.fmax_hz <= fe.sample_rate_hz / 2, "frontend.fmin_hz/fmax_hz",
          "need 0 <= fmin < fmax <= nyquist")
    check(fe.log_floor > 0, "frontend.log_floor", "must be positive")
    # frame, shift and clip lengths in samples are read only once they are finite
    spans_ms = (fe.frame_ms, fe.shift_ms, 1000.0 * fe.clip_seconds)
    finite = all(math.isfinite(ms * max(fe.sample_rate_hz, 1)) for ms in spans_ms)
    check(finite, "frontend.frame_ms/shift_ms/clip_seconds", "too long to count in samples")
    frames = 0
    if fe.sample_rate_hz > 0 and finite:
        check(fe.frame_len >= 1 and fe.frame_shift >= 1, "frontend.frame_ms/shift_ms",
              "must each span at least one sample")
        check(fe.fft_size >= fe.frame_len, "frontend.fft_size", f"must be >= frame length {fe.frame_len}")
        check(fe.clip_samples >= fe.frame_len, "frontend.clip_seconds",
              "clip must be at least one frame long")
        if 1 <= fe.frame_len <= fe.clip_samples and fe.frame_shift >= 1:
            frames = cfg.lms_frames()

    pa = cfg.patch
    check(pa.stride >= 1, "patch.stride", "must be >= 1")
    check(1 <= pa.s_f <= fe.mel_bins, "patch.s_f", f"must be in [1, {fe.mel_bins}]")
    check(1 <= pa.s_t <= max(frames, 1), "patch.s_t", f"must be in [1, {frames}]")

    bad += [f"encoder.{name}: {why}" for name, why in cfg.encoder.problems()]

    tr = cfg.train
    check(tr.learning_rate > 0, "train.learning_rate", "must be > 0")
    check(tr.weight_decay >= 0, "train.weight_decay", "must be >= 0")
    check(tr.epochs >= 0, "train.epochs", "must be >= 0")
    check(tr.eta > 0, "train.eta", "must be > 0")

    cl = cfg.classifier
    check(cl.kind in ("rrc", "pbc"), "classifier.kind", "must be rrc or pbc")
    check(len(cl.lam_grid) > 0, "classifier.lam_grid", "must be nonempty")
    check(all(g >= 0 for g in cl.lam_grid), "classifier.lam_grid", "entries must be >= 0")
    check(cl.cv_folds >= 2, "classifier.cv_folds", "must be >= 2")

    pl = cfg.plan
    check(pl.base_classes >= 1, "plan.base_classes", "must be >= 1")
    check(pl.inc_classes >= 1 or pl.sessions == 0, "plan.inc_classes", "must be >= 1")
    check(pl.sessions >= 0, "plan.sessions", "must be >= 0")
    check(pl.shots >= 1, "plan.shots", "must be >= 1")

    bad += [f"synth.{name}: {why}" for name, why in cfg.synth.problems(fe.sample_rate_hz)]

    da = cfg.data
    check(da.source in ("synth", "manifest"), "data.source", "must be synth or manifest")
    if da.source == "manifest":
        check(bool(da.manifest), "data.manifest", "required when data.source = manifest")

    ru = cfg.run
    check(ru.seed >= 0, "run.seed", "must be >= 0")
    check(ru.repeats >= 1, "run.repeats", "must be >= 1")
    check(ru.threads >= 1, "run.threads", "must be >= 1")

    if bad:
        raise ConfigError("invalid config:\n  " + "\n  ".join(bad))


def ast_base_config() -> EncoderConfig:
    """Full-scale encoder preset mirroring a base-size audio spectrogram
    transformer: 12 blocks, width 768, 12 heads, MLP 3072, 16x16 patches
    at stride 10 over a 128 x 1024 spectrogram (1212 patches). The fusion
    MLP stays narrow so its overhead is <1% of the encoder."""
    return EncoderConfig(
        blocks=12,
        dim=768,
        heads=12,
        mlp_hidden=3072,
        fusion_hidden=64,
        z_max=patch_counts(128, 1024, 16, 16, 10).z,
        patch_dim=256,
        use_fusion=True,
    )
