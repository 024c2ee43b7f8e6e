import argparse
import hashlib
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffcac import classifiers as cls
from ffcac import cli, sessions
from ffcac import encoder as enc
from ffcac import weights_io as wio
from ffcac.audio import FrontendConfig, SynthConfig, load_wav, read_manifest, synth_class_waveform
from ffcac.config import ExperimentConfig, ast_base_config, load_config, parse_config_text
from ffcac.errors import ConfigError, IngestionError

TOY_CONFIG = """\
# desk-scale settings for fast CLI runs
train.epochs = 2
run.repeats = 2
run.seed = 7
classifier.lambda = 0.1
synth.num_classes = 10
synth.clips_per_class = 12
synth.train_per_class = 7
"""


@pytest.fixture
def toy_config(tmp_path):
    path = tmp_path / "toy.cfg"
    path.write_text(TOY_CONFIG)
    return path


def _dir_digest(root):
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file():
            h.update(p.name.encode())
            h.update(p.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# synth-data


def test_synth_data_counts_and_manifest(tmp_path, capsys):
    out = tmp_path / "data"
    rc = cli.main(["synth-data", "--classes", "4", "--per-class", "6",
                   "--out", str(out), "--seed", "3"])
    assert rc == 0
    wavs = sorted(out.glob("*.wav"))
    assert len(wavs) == 24
    rows = read_manifest(out / "manifest.csv")
    assert len(rows) == 24
    assert {r.label for r in rows} == {f"class{c:02d}" for c in range(4)}
    assert {r.split for r in rows} == {"train", "test"}


def test_synth_data_rerun_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert cli.main(["synth-data", "--classes", "3", "--per-class", "4",
                         "--out", str(out), "--seed", "9"]) == 0
    assert _dir_digest(a) == _dir_digest(b)


def test_synth_data_writes_the_synthetic_dataset(tmp_path):
    """One manifest row per clip of sessions.synthetic_dataset, in order,
    with its label and split; each WAV holds that clip rounded to 16
    bits."""
    out = tmp_path / "data"
    assert cli.main(["synth-data", "--classes", "3", "--per-class", "5", "--out", str(out),
                     "--seed", "11", "--train-fraction", "0.4"]) == 0
    synth, frontend = SynthConfig(num_classes=3, clips_per_class=5, train_per_class=2), FrontendConfig()
    refs = sessions.synthetic_dataset(synth, 11)
    rows = read_manifest(out / "manifest.csv")
    assert [(r.label, r.split) for r in rows] == [(ref.label, ref.split) for ref in refs]
    for row, ref in zip(rows, refs, strict=True):
        clip = synth_class_waveform(ref.synth_class, ref.synth_seed, synth, frontend)
        expected = np.clip(np.rint(clip * 32768), -32768, 32767) / 32768
        assert np.array_equal(load_wav(out / row.path), expected)


def test_synth_data_zero_classes_is_config_error(tmp_path, capsys):
    rc = cli.main(["synth-data", "--classes", "0", "--per-class", "4",
                   "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [
    ("--noise", "nan"), ("--noise", "inf"), ("--noise", "-0.1"),
    ("--train-fraction", "nan"), ("--train-fraction", "inf"), ("--train-fraction", "1.5"),
])
def test_synth_data_rejects_bad_noise_and_train_fraction(flag, value, tmp_path, capsys):
    out = tmp_path / "x"
    rc = cli.main(["synth-data", "--classes", "2", "--per-class", "4", "--out", str(out), flag, value])
    assert rc == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# run


def test_run_emits_reports_and_weights(toy_config, tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(toy_config), "--out", str(out)]) == 0
    doc = json.loads((out / "report.json").read_text())
    assert doc["sessions"] == 2  # base + one incremental
    assert len(doc["aggregate"]["mean_accuracies"]) == 2
    assert len(doc["runs"]) == 2
    csv_lines = (out / "report.csv").read_text().splitlines()
    assert csv_lines[0] == "run,A_0,A_1,AA,PD"
    assert len(csv_lines) == 1 + 2 + 2  # header + runs + mean/std
    # weights readable under the config used for the run
    cfg = load_config(toy_config)
    params = enc.load_params(out / "mee.weights", cfg.encoder_config())
    assert params["patch_embed.weight"].shape == (256, cfg.encoder.dim)


def test_pbc_run_writes_a_memory_at_infinite_lam(tmp_path):
    out = tmp_path / "out"
    one_run = TOY_CONFIG.replace("run.repeats = 2", "run.repeats = 1")
    for kind in ("rrc", "pbc"):
        path = tmp_path / f"{kind}.cfg"
        path.write_text(one_run + f"classifier.kind = {kind}\n")
        assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 0
        lam = cls.load_state(out / "classifier.weights").lam  # each run writes its own memory
        assert (lam == np.inf) == (kind == "pbc")
    assert json.loads((out / "report.json").read_text())["config"]["classifier.kind"] == "pbc"


def test_run_byte_identical_reports(toy_config, tmp_path):
    outs = [tmp_path / "r1", tmp_path / "r2"]
    for out in outs:
        assert cli.main(["run", "--config", str(toy_config), "--out", str(out)]) == 0
    a = (outs[0] / "report.json").read_bytes()
    b = (outs[1] / "report.json").read_bytes()
    assert a == b
    assert (outs[0] / "report.csv").read_bytes() == (outs[1] / "report.csv").read_bytes()


def test_run_missing_config_is_io_error(tmp_path, capsys):
    rc = cli.main(["run", "--config", str(tmp_path / "ghost.cfg"), "--out", str(tmp_path / "o")])
    assert rc == 3


def test_run_bad_config_lists_every_key(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("train.epochs = -3\nrun.repeats = 0\nnosuch.key = 1\n")
    rc = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "nosuch.key" in err
    # both range violations reported in the same pass once the key is known
    path.write_text("train.epochs = -3\nrun.repeats = 0\n")
    rc = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 2 and "train.epochs" in err and "run.repeats" in err


def test_removed_relambda_key_is_rejected_as_unknown(tmp_path, capsys):
    # per-session λ re-selection is gone: λ is chosen once, on the base session
    path = tmp_path / "relambda.cfg"
    path.write_text(TOY_CONFIG + "classifier.relambda_each_session = false\n")
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "unknown key 'classifier.relambda_each_session'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("line", [
    "classifier.lambda = nan",
    "classifier.lambda = inf",
    "classifier.lam_grid = 1,inf",
    "classifier.lam_grid = nan",
    "frontend.frame_ms = nan",
    "frontend.shift_ms = inf",
    "frontend.clip_seconds = nan",
    "frontend.sample_rate_hz = 0",
    "frontend.frame_ms = 0.01",  # rounds to a zero-sample frame
    "frontend.frame_ms = 1e308",
    "frontend.sample_rate_hz = " + "9" * 400,
    "run.seed = -1",
])
def test_run_rejects_out_of_range_value_without_traceback(line, tmp_path, capsys):
    with pytest.raises(ConfigError):
        parse_config_text(line + "\n")
    path = tmp_path / "bad.cfg"
    # the copy leaves out the keys the cases set: a key set twice is a config error of its own
    path.write_text(TOY_CONFIG.replace("classifier.lambda = 0.1\n", "").replace("run.seed = 7\n", "")
                    + line + "\n")
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert line.split(" =")[0] in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_config_key_set_twice_names_both_lines():
    with pytest.raises(ConfigError, match="line 3: train.epochs is already set on line 1"):
        parse_config_text("train.epochs = 1\n# then\ntrain.epochs = 7\n")


_READERS = {
    "config": load_config,
    "manifest": read_manifest,
    "wav": load_wav,
    "container": wio.load_container,
    "ridge state": cls.load_state,
    "extractor": lambda path: enc.load_params(path, enc.EncoderConfig()),
    "report": lambda path: cli.cmd_report(argparse.Namespace(json_path=path, csv=None)),
}


@pytest.mark.parametrize("reader", list(_READERS))
def test_an_unopenable_input_is_an_ingestion_error(tmp_path, reader):
    read = _READERS[reader]
    with pytest.raises(IngestionError, match="ghost: no such file"):
        read(tmp_path / "ghost")
    with pytest.raises(IngestionError, match="cannot open"):
        read(tmp_path)  # a directory


def test_crlf_config_and_manifest_read_as_their_lf_text(tmp_path):
    config = tmp_path / "crlf.cfg"
    config.write_bytes(TOY_CONFIG.replace("\n", "\r\n").encode())
    assert load_config(config) == parse_config_text(TOY_CONFIG)
    manifest = tmp_path / "crlf.csv"
    for name in ("a.wav", "b.wav"):
        (tmp_path / name).touch()
    manifest.write_bytes(b"path,label,split\r\na.wav,cat,train\r\n\r\nb.wav,dog,test\r\n")
    assert [(r.path, r.label, r.split) for r in read_manifest(manifest)] \
        == [(str(tmp_path / "a.wav"), "cat", "train"), (str(tmp_path / "b.wav"), "dog", "test")]


def test_run_undecodable_config_is_io_error(tmp_path, capsys):
    path = tmp_path / "latin1.cfg"
    path.write_bytes(TOY_CONFIG.encode() + b"# caf\xe9\n")
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 3
    assert "UTF-8" in capsys.readouterr().err


_CONFIG_VALUES = st.one_of(
    st.text(max_size=12),
    st.integers().map(str),
    st.floats().map(repr),
    st.sampled_from(["nan", "inf", "-inf", "0", "0.01", "1e308", "9" * 400, "1,inf",
                     "cv", "rrc", "pbc", "true", "off", ","]),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(
    st.tuples(st.sampled_from(sorted(ExperimentConfig().to_flat_dict())), _CONFIG_VALUES)
    .map(lambda kv: f"{kv[0]} = {kv[1]}"),
    st.text(max_size=30),
), max_size=4))
def test_random_config_text_parses_or_raises_config_error(lines):
    """Known keys with random values, mixed with random lines: the parser
    returns a config or raises only ConfigError."""
    try:
        parse_config_text("\n".join(lines))
    except ConfigError:
        pass


def test_run_numeric_failure_exit_code(tmp_path, capsys):
    # lam = 0 with far fewer samples than dimensions: singular normal equations
    path = tmp_path / "sing.cfg"
    path.write_text(TOY_CONFIG.replace("classifier.lambda = 0.1", "classifier.lambda = 0")
                    .replace("train.epochs = 2", "train.epochs = 0"))
    rc = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 4
    assert "lam" in capsys.readouterr().err


@pytest.mark.parametrize("corrupt", ["manifest", "wav"])
def test_run_on_corrupt_manifest_data_is_io_error(corrupt, tmp_path, capsys):
    data = tmp_path / "data"
    assert cli.main(["synth-data", "--classes", "10", "--per-class", "8",
                     "--out", str(data), "--seed", "5", "--train-fraction", "0.75"]) == 0
    if corrupt == "manifest":
        (data / "manifest.csv").write_bytes((data / "manifest.csv").read_bytes() + b"\xff\n")
    else:  # every fmt chunk size past the end of its file
        for wav in data.glob("*.wav"):
            blob = wav.read_bytes()
            wav.write_bytes(blob[:16] + b"\xff" + blob[17:])
    cfg_path = tmp_path / "manifest.cfg"
    cfg_path.write_text(f"data.source = manifest\ndata.manifest = {data / 'manifest.csv'}\n"
                        "train.epochs = 1\nrun.repeats = 1\nclassifier.lambda = 0.1\n")
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 3
    assert "error:" in capsys.readouterr().err


def test_run_on_manifest_with_overlong_field_is_io_error(tmp_path, capsys):
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("path,label,split\n" + "x" * 200_000 + ",a,train\n")
    cfg_path = tmp_path / "manifest.cfg"
    cfg_path.write_text(f"data.source = manifest\ndata.manifest = {manifest}\n")
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 3
    assert "field larger than field limit" in capsys.readouterr().err


def test_run_on_manifest_data(tmp_path, capsys):
    data = tmp_path / "data"
    assert cli.main(["synth-data", "--classes", "10", "--per-class", "8",
                     "--out", str(data), "--seed", "5", "--train-fraction", "0.75"]) == 0
    cfg_path = tmp_path / "manifest.cfg"
    cfg_path.write_text(
        "data.source = manifest\n"
        f"data.manifest = {data / 'manifest.csv'}\n"
        "train.epochs = 1\nrun.repeats = 1\nclassifier.lambda = 0.1\n"
    )
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    doc = json.loads((out / "report.json").read_text())
    assert doc["sessions"] == 2


# ---------------------------------------------------------------------------
# count-complexity


def test_count_complexity_json(toy_config, capsys):
    assert cli.main(["count-complexity", "--config", str(toy_config), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    cfg = parse_config_text(TOY_CONFIG)
    expected = enc.count_params_macs(cfg.encoder_config(), cfg.synth.num_classes)
    assert doc["num_params"] == expected.num_params
    assert doc["macs"] == expected.macs
    assert list(doc) == ["num_params", "num_params_extractor", "num_params_classifier", "macs"]


def test_count_complexity_preset_and_config_are_exclusive(tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["count-complexity", "--preset", "ast-base", "--config", str(tmp_path / "none.cfg")])
    assert exit_info.value.code == 2  # the config-error code
    assert "not allowed with argument" in capsys.readouterr().err


def test_count_complexity_full_scale_preset(capsys):
    assert cli.main(["count-complexity", "--preset", "ast-base", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["num_params"] == enc.count_params_macs(ast_base_config(), 100).num_params
    assert abs(doc["num_params"] - 86.84e6) / 86.84e6 <= 0.05


# ---------------------------------------------------------------------------
# ablate


def test_default_config_is_the_fusion_rrc_case():
    # the best ablation cell is exactly what `run` uses out of the box
    cfg = ExperimentConfig()
    assert cfg.encoder.use_fusion is True
    assert cfg.classifier.kind == "rrc"


def test_ablate_emits_four_rows(toy_config, tmp_path, capsys):
    fast = tmp_path / "fast.cfg"
    fast.write_text(TOY_CONFIG.replace("run.repeats = 2", "run.repeats = 1")
                    .replace("train.epochs = 2", "train.epochs = 1"))
    table_path = tmp_path / "ablation.csv"
    assert cli.main(["ablate", "--config", str(fast), "--out", str(table_path)]) == 0
    lines = table_path.read_text().splitlines()
    assert len(lines) == 5  # header + 2x2 grid
    assert lines[0].startswith("fusion,classifier,A_0")
    cases = {tuple(l.split(",")[:2]) for l in lines[1:]}
    assert cases == {("off", "pbc"), ("on", "pbc"), ("off", "rrc"), ("on", "rrc")}


# ---------------------------------------------------------------------------
# report re-render


def test_report_rerender_matches_run_csv(toy_config, tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(toy_config), "--out", str(out)]) == 0
    rendered = tmp_path / "rendered.csv"
    assert cli.main(["report", str(out / "report.json"), "--csv", str(rendered)]) == 0
    assert rendered.read_bytes() == (out / "report.csv").read_bytes()


def test_report_missing_file(tmp_path):
    assert cli.main(["report", str(tmp_path / "none.json")]) == 3


@pytest.mark.parametrize("blob", [b"\xff\xfe{}", b"not json", b'{"runs": []}', b"[1,2]"],
                         ids=["not-utf8", "not-json", "no-aggregate", "not-an-object"])
def test_report_on_malformed_file_is_io_error(blob, tmp_path, capsys):
    path = tmp_path / "report.json"
    path.write_bytes(blob)
    assert cli.main(["report", str(path)]) == 3
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# every subcommand on malformed input


def _write(path, data: bytes):
    path.write_bytes(data)
    return str(path)


def _manifest(d, rows: bytes, *clips: str) -> str:
    """A manifest with ``rows`` under its header; each of ``clips`` is made
    as an empty file beside it."""
    for name in clips:
        _write(d / name, b"")
    return _write(d / "m.csv", b"path,label,split\n" + rows)


def _linked_manifest(d, link) -> str:
    """A manifest listing one WAV as train and a link to it as test."""
    _write(d / "a.wav", b"")
    link(d / "a.wav", d / "b.wav")
    return _manifest(d, b"a.wav,cat,train\nb.wav,cat,test\n")


def _run_on(d, manifest) -> list[str]:
    """``ffcac run`` argv for a config that reads ``manifest``."""
    return ["run", "--config", _write(d / "c.cfg", f"data.source = manifest\ndata.manifest = {manifest}\n"
                                      .encode()), "--out", str(d / "o")]


# one training clip listed again under the test split and under another label
_LISTED_TWICE = (b"class00_000.wav,class00,train\n"
                 b"class00_000.wav,class00,test\nclass00_000.wav,class01,train\n")

# one label past the classifier container's 65,535-byte limit
_LONG_LABEL = b"a.wav,a,train\nb.wav," + b"x" * 70_000 + b",train\n"

# a clip, then the manifest's own directory
_LISTS_ITS_DIRECTORY = b"a.wav,cat,train\n.,cat,test\n"

# subcommand -> (argv builder over a tmp dir, documented exit code)
MALFORMED = {
    "run-unknown-key": (lambda d: ["run", "--config", _write(d / "c.cfg", b"no.such = 1\n"),
                                   "--out", str(d / "o")], 2),
    "run-not-utf8": (lambda d: ["run", "--config", _write(d / "c.cfg", b"\xff = 1\n"),
                                "--out", str(d / "o")], 3),
    "run-key-set-twice": (lambda d: ["run", "--config", _write(
        d / "c.cfg", b"train.epochs = 1\ntrain.epochs = 7\n"), "--out", str(d / "o")], 2),
    "run-manifest-label-too-long": (lambda d: _run_on(d, _manifest(d, _LONG_LABEL, "a.wav")),
                                    3, "m.csv:3: label longer than 65535 UTF-8 bytes"),
    "run-manifest-label-whitespace": (lambda d: _run_on(d, _manifest(d, b"a.wav,c0,train\nb.wav, c0,train\n",
                                                                     "a.wav", "b.wav")),
                                      3, "m.csv:3: label ' c0' has leading or trailing whitespace"),
    "run-manifest-lists-a-clip-twice": (lambda d: _run_on(d, _manifest(d, _LISTED_TWICE, "class00_000.wav")),
                                        3, "already listed on line 2"),
    "run-manifest-lists-a-clip-through-a-symlink": (lambda d: _run_on(d, _linked_manifest(d, os.symlink)),
                                                    3, "already listed on line 2"),
    "run-manifest-lists-a-clip-through-a-hard-link": (lambda d: _run_on(d, _linked_manifest(d, os.link)),
                                                      3, "already listed on line 2"),
    "run-manifest-lists-a-missing-clip": (lambda d: _run_on(d, _manifest(d, b"a.wav,cat,train\n")),
                                          3, "m.csv:2: cannot read clip 'a.wav'"),
    "run-manifest-lists-a-nul-byte-path": (lambda d: _run_on(d, _manifest(d, b"a\0b.wav,cat,train\n")),
                                           3, "m.csv:2: cannot read clip"),
    "run-manifest-lists-a-directory": (lambda d: _run_on(d, _manifest(d, _LISTS_ITS_DIRECTORY, "a.wav")),
                                       3, "m.csv:3: '.' is not a regular file"),
    "run-missing-manifest": (lambda d: _run_on(d, d / "none.csv"), 3),
    "run-manifest-path-with-a-nul-byte": (lambda d: _run_on(d, f"{d}/m\0.csv"), 3, "cannot open"),
    "ablate-bad-value": (lambda d: ["ablate", "--config", _write(d / "c.cfg", b"train.epochs = x\n")], 2),
    "ablate-missing-config": (lambda d: ["ablate", "--config", str(d / "none.cfg")], 3),
    "synth-data-no-classes": (lambda d: ["synth-data", "--classes", "0", "--per-class", "4",
                                         "--out", str(d / "o")], 2),
    "synth-data-one-clip": (lambda d: ["synth-data", "--classes", "2", "--per-class", "1",
                                       "--out", str(d / "o")], 2),
    "synth-data-nan-noise": (lambda d: ["synth-data", "--classes", "2", "--per-class", "4",
                                        "--out", str(d / "o"), "--noise", "nan"], 2),
    "synth-data-huge-count": (lambda d: ["synth-data", "--classes", "1", "--per-class",
                                         "1" + "0" * 400, "--out", str(d / "o")], 2),
    "synth-data-negative-seed": (lambda d: ["synth-data", "--classes", "2", "--per-class", "3",
                                            "--out", str(d / "o"), "--seed", "-1"],
                                 2, "--seed: must be >= 0"),
    "count-complexity-bad-encoder": (lambda d: ["count-complexity", "--config", _write(
        d / "c.cfg", b"encoder.heads = 3\n")], 2),
    "count-complexity-missing-config": (lambda d: ["count-complexity", "--config", str(d / "none.cfg")], 3),
    "report-not-json": (lambda d: ["report", _write(d / "r.json", b"{")], 3),
    "report-wrong-types": (lambda d: ["report", _write(
        d / "r.json", b'{"aggregate": {"mean_accuracies": 1}, "runs": [{"seed": 1}]}')], 3),
    "report-huge-integer": (lambda d: ["report", _write(
        d / "r.json", b'{"aggregate": {"mean_accuracies": [], "std_accuracies": [], "mean_aa": 1'
        + b"0" * 400 + b', "std_aa": 0, "mean_pd": 0, "std_pd": 0}, "runs": []}')], 3),
    # 26 folds for 25 base clips, 5 per class: as any fold count above 5, a config error
    "run-too-many-folds": (lambda d: ["run", "--config", _write(d / "c.cfg", b"classifier.cv_folds = 26\n"
                                      b"train.epochs = 1\nrun.repeats = 1\n"), "--out", str(d / "o")], 2),
    # the loss stays finite, the embeddings overflow: the base session names the learning rate
    "run-non-finite-embeddings": (lambda d: ["run", "--config", _write(
        d / "c.cfg", b"train.learning_rate = 1e36\ntrain.epochs = 2\nrun.repeats = 1\n"),
        "--out", str(d / "o")], 4, "embeddings are not finite", "train.learning_rate"),
    # a 3.47 EiB filterbank: refused by the allocator, so nothing is allocated
    "run-unallocatable-frontend": (lambda d: ["run", "--config", _write(
        d / "c.cfg", b"frontend.fft_size = 1000000000000000000\nrun.repeats = 1\n"),
        "--out", str(d / "o")], 2, "out of memory"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_every_subcommand_exits_with_its_documented_code(case, tmp_path, capsys):
    argv_for, code, *message = MALFORMED[case]
    assert cli.main(argv_for(tmp_path)) == code
    err = capsys.readouterr().err
    assert "error:" in err and all(m in err for m in message)


# ---------------------------------------------------------------------------
# threads


@pytest.mark.parametrize("threads", ["0", "-4"])
def test_threads_flag_is_validated_like_the_config_key(threads, toy_config, tmp_path, capsys):
    rc = cli.main(["run", "--config", str(toy_config), "--out", str(tmp_path / "o"),
                   "--threads", threads])
    assert rc == 2
    assert "run.threads" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
