import os
import re
import struct
import subprocess
import sys
import wave
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffcac.audio import (
    ClipRef,
    FrontendConfig,
    _frontend_tables,
    SynthConfig,
    fit_to_length,
    load_wav,
    log_mel_spectrogram,
    mel_filterbank,
    patch_counts,
    patch_split,
    read_manifest,
    synth_class_waveform,
    write_manifest,
    write_wav,
)
from ffcac.errors import ConfigError, DimensionError, IngestionError

from tests.helpers import enumerate_patch_count, load_wav_reference, reassemble_patches

CFG = FrontendConfig()


# ---------------------------------------------------------------------------
# WAV io


def test_silence_round_trip(tmp_path):
    path = tmp_path / "silence.wav"
    write_wav(path, np.zeros(16000), 16000)
    samples = load_wav(path)
    assert samples.shape == (16000,) and samples.dtype == np.float64
    assert np.all(samples == 0.0)


def test_full_scale_square_wave_pcm_scaling(tmp_path):
    square = np.where(np.arange(1600) % 2 == 0, 1.0, -1.0)
    path = tmp_path / "square.wav"
    write_wav(path, square, 16000)
    # +1.0 clips to the largest positive 16-bit code, -1.0 is exact
    assert np.allclose(np.unique(load_wav(path)), [-1.0, 32767 / 32768])


def test_pcm_scaling_is_exact_for_every_16_bit_value(tmp_path):
    ints = np.arange(-32768, 32768, dtype="<i2")
    path = tmp_path / "every.wav"
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(16000)
        wf.writeframes(ints.tobytes())
    assert load_wav(path).tobytes() == (ints.astype(np.float64) / 32768).tobytes()


def test_stereo_rejected(tmp_path):
    path = tmp_path / "stereo.wav"
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(2)
        wf.setsampwidth(2)
        wf.setframerate(16000)
        wf.writeframes(b"\x00\x00" * 2000)
    with pytest.raises(IngestionError, match="mono"):
        load_wav(path)


def test_wrong_sample_rate_rejected(tmp_path):
    path = tmp_path / "slow.wav"
    write_wav(path, np.zeros(8000), 8000)
    with pytest.raises(IngestionError, match="sample rate"):
        load_wav(path, expected_rate_hz=16000)


def test_wrong_sample_width_rejected(tmp_path):
    path = tmp_path / "w8.wav"
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(1)
        wf.setframerate(16000)
        wf.writeframes(b"\x00" * 2000)
    with pytest.raises(IngestionError, match="16-bit"):
        load_wav(path)


def test_missing_file_rejected(tmp_path):
    with pytest.raises(IngestionError, match="no such file"):
        load_wav(tmp_path / "ghost.wav")


def test_garbage_file_rejected(tmp_path):
    path = tmp_path / "junk.wav"
    path.write_bytes(b"not a riff file at all")
    with pytest.raises(IngestionError):
        load_wav(path)


def _short_wav_bytes(tmp_path) -> bytes:
    path = tmp_path / "short.wav"
    write_wav(path, np.sin(np.arange(100) / 5.0) * 0.5, 16000)
    return path.read_bytes()


@pytest.mark.parametrize("offset, value", [
    (16, 0xFF),  # fmt chunk size past the end of the file: wave's chunk seek fails
    (4, 0x7F),  # RIFF size that cuts the data chunk inside a sample
])
def test_corrupt_header_rejected(tmp_path, offset, value):
    data = bytearray(_short_wav_bytes(tmp_path))
    data[offset] = value
    path = tmp_path / "bad.wav"
    path.write_bytes(bytes(data))
    with pytest.raises(IngestionError):
        load_wav(path)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_mutated_header_loads_or_raises_ingestion_error(tmp_path_factory, data):
    """Random bytes written over the first 60 bytes of a valid WAV, with an
    optional truncation: load_wav returns samples or raises only
    IngestionError."""
    base = tmp_path_factory.getbasetemp()
    blob = bytearray(_short_wav_bytes(base))
    for _ in range(data.draw(st.integers(1, 4))):
        blob[data.draw(st.integers(0, 59))] = data.draw(st.integers(0, 255))
    if data.draw(st.booleans()):
        blob = blob[: data.draw(st.integers(0, len(blob)))]
    path = base / "mutated.wav"
    path.write_bytes(bytes(blob))
    try:
        samples = load_wav(path)
    except IngestionError:
        return
    assert samples.ndim == 1 and samples.size > 0


def _riff(*chunks, riff_size=None) -> bytes:
    """A RIFF WAVE file of (chunk id, payload) pairs, each padded to even length."""
    body = b"WAVE" + b"".join(name + struct.pack("<I", len(data)) + data + b"\0" * (len(data) % 2)
                              for name, data in chunks)
    return b"RIFF" + struct.pack("<I", len(body) if riff_size is None else riff_size) + body


def _fmt(channels=1, rate=16000, bits=16, tag=1, extra=b""):
    block = channels * ((bits + 7) // 8)
    return b"fmt ", struct.pack("<HHIIHH", tag, channels, rate, rate * block, block, bits) + extra


_PCM = (np.sin(np.arange(64) / 3.0) * 12000).astype("<i2").tobytes()


def test_chunk_past_the_end_of_the_riff_chunk_rejected_by_name(tmp_path):
    path = tmp_path / "overrun.wav"
    path.write_bytes(_riff((b"LIST", b"info"), _fmt(), (b"data", _PCM), riff_size=12))
    with pytest.raises(IngestionError, match="chunk b'LIST' runs past the end of the RIFF chunk"):
        load_wav(path)


@pytest.fixture(scope="module")
def wav_fixtures(tmp_path_factory):
    """name -> bytes: the WAVs the tests above write, and chunk layouts
    that take each turn of the RIFF walk."""
    base = tmp_path_factory.mktemp("wav_fixtures")

    def wave_written(name, channels, width, rate, frames):
        with wave.open(str(base / name), "wb") as wf:
            wf.setnchannels(channels)
            wf.setsampwidth(width)
            wf.setframerate(rate)
            wf.writeframes(frames)
        return (base / name).read_bytes()

    def written(name, samples, rate=16000):
        write_wav(base / name, samples, rate)
        return (base / name).read_bytes()

    return {
        "silence": written("silence.wav", np.zeros(16000)),
        "square": written("square.wav", np.where(np.arange(1600) % 2 == 0, 1.0, -1.0)),
        "every": wave_written("every.wav", 1, 2, 16000, np.arange(-32768, 32768, dtype="<i2").tobytes()),
        "stereo": wave_written("stereo.wav", 2, 2, 16000, b"\x00\x00" * 2000),
        "slow": written("slow.wav", np.zeros(8000), 8000),
        "8-bit": wave_written("w8.wav", 1, 1, 16000, b"\x00" * 2000),
        "garbage": b"not a riff file at all",
        "short": _short_wav_bytes(base),
        "odd-chunk-before-fmt": _riff((b"LIST", b"odd"), _fmt(), (b"data", _PCM)),
        "fmt-with-extension": _riff(_fmt(extra=b"\0\0"), (b"data", _PCM)),
        "two-fmt-chunks": _riff(_fmt(rate=8000), _fmt(), (b"data", _PCM)),
        "data-before-fmt": _riff((b"data", _PCM), _fmt(), (b"data", _PCM)),
        "12-bit": _riff(_fmt(bits=12), (b"data", _PCM)),
        "24-bit": _riff(_fmt(bits=24), (b"data", _PCM)),
        "extensible": _riff(_fmt(tag=0xFFFE, extra=b"\x16\0" + bytes(22)), (b"data", _PCM)),
        "odd-data": _riff(_fmt(), (b"data", _PCM + b"\x01")),
        "empty-data": _riff(_fmt(), (b"data", b"")),
        "chunk-after-data": _riff(_fmt(), (b"data", _PCM), (b"LIST", b"tail")),
        "riff-past-the-file": _riff(_fmt(), (b"data", _PCM), riff_size=1 << 20),
        "riff-too-short": _riff(_fmt(), (b"data", _PCM), riff_size=3),
    }


def _loaded(load, path):
    """The samples' bytes, or None where ``load`` raises IngestionError."""
    try:
        return load(path).tobytes()
    except IngestionError:
        return None


def test_load_wav_matches_the_wave_module_reader_on_every_fixture(wav_fixtures, tmp_path):
    loaded = {}
    for name, blob in wav_fixtures.items():
        path = tmp_path / f"{name}.wav"
        path.write_bytes(blob)
        loaded[name] = _loaded(load_wav, path)
        assert loaded[name] == _loaded(load_wav_reference, path), name
    assert {name for name, samples in loaded.items() if samples is not None} == {
        "silence", "square", "every", "short", "odd-chunk-before-fmt", "fmt-with-extension",
        "two-fmt-chunks", "12-bit", "odd-data", "chunk-after-data", "riff-past-the-file"}


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_load_wav_matches_the_wave_module_reader_on_mutated_headers(wav_fixtures, tmp_path_factory, data):
    """Up to four bytes of a fixture's first 80 overwritten, at random or
    nudged by one or two, with an optional truncation: load_wav loads the
    reference's samples wherever the reference loads, and raises
    IngestionError wherever it refuses."""
    blob = bytearray(wav_fixtures[data.draw(st.sampled_from(sorted(wav_fixtures)))])
    for _ in range(data.draw(st.integers(0, 4))):
        at = data.draw(st.integers(0, min(len(blob), 80) - 1))
        nudged = st.sampled_from([(blob[at] + d) % 256 for d in (-2, -1, 1, 2)])
        blob[at] = data.draw(st.integers(0, 255) | nudged)
    if data.draw(st.booleans()):
        blob = blob[: data.draw(st.integers(0, len(blob)))]
    path = tmp_path_factory.getbasetemp() / "mutated-fixture.wav"
    path.write_bytes(bytes(blob))
    assert _loaded(load_wav, path) == _loaded(load_wav_reference, path)


# ---------------------------------------------------------------------------
# log mel spectrogram


def test_frame_count_one_second_clip():
    # 16000 samples, 400-sample frames, 240-sample shift
    lms = log_mel_spectrogram(np.zeros(16000), CFG)
    assert lms.shape == (128, 1 + (16000 - 400) // 240) == (128, 66)


def test_silence_hits_log_floor():
    lms = log_mel_spectrogram(np.zeros(16000), CFG)
    assert np.allclose(lms, np.log(CFG.log_floor))


def test_too_short_clip_rejected():
    with pytest.raises(IngestionError, match="shorter"):
        log_mel_spectrogram(np.zeros(399), CFG)


def test_pure_tone_argmax_bin_constant_and_contains_tone():
    t = np.arange(16000) / 16000
    lms = log_mel_spectrogram(0.8 * np.sin(2 * np.pi * 1000.0 * t), CFG)
    argmax = lms.argmax(axis=0)
    assert np.all(argmax == argmax[0])
    # independent filterbank oracle: the winning filter must respond at 1 kHz
    fb = mel_filterbank(CFG)
    freqs = np.arange(CFG.fft_size // 2 + 1) * CFG.sample_rate_hz / CFG.fft_size
    k = np.argmin(np.abs(freqs - 1000.0))
    responding = np.flatnonzero(fb[:, k] > 0)
    assert argmax[0] in responding


def test_frontend_tables_built_once_per_config_and_read_only():
    window, filterbank, bands = _frontend_tables(CFG)
    again = _frontend_tables(FrontendConfig())  # an equal config, another object
    assert again[0] is window and again[1] is filterbank and again[2] is bands
    assert np.array_equal(filterbank, mel_filterbank(CFG))
    for table in (window, filterbank, *(table for _, _, table in bands)):
        with pytest.raises(ValueError):
            table[0] = 1.0


# 1000 filters over 129 FFT bins: some groups of 16 weight no bin at all
SPARSE = FrontendConfig(frame_ms=15.0, fft_size=256, mel_bins=1000)


@pytest.mark.parametrize("cfg, sizes", [
    (CFG, [16] * 8),
    (FrontendConfig(frame_ms=10.0, fft_size=256, mel_bins=40), [16, 16, 8]),
    (FrontendConfig(mel_bins=100), [16] * 5 + [20]),  # a remainder of 4 joins the last group
    (FrontendConfig(mel_bins=12), [12]),
    (FrontendConfig(fft_size=1024, mel_bins=64), [16] * 4),
    (SPARSE, [16] * 62 + [8]),
], ids=["default", "40-mel-bins", "100-mel-bins", "12-mel-bins", "fft-1024", "1000-mel-bins"])
def test_frontend_bands_scatter_back_to_the_filterbank(cfg, sizes):
    """Each band covers the next consecutive filters, holds every nonzero
    weight of them inside its bin slice, and is a contiguous read-only
    copy: scattered back, the bands give filterbank.T exactly."""
    _, filterbank, bands = _frontend_tables(cfg)
    assert [f.stop - f.start for f, _, _ in bands] == sizes
    assert [f.start for f, _, _ in bands] == list(np.cumsum([0] + sizes[:-1]))
    scattered = np.zeros_like(filterbank.T)
    for filters, bins, table in bands:
        outside = filterbank[filters].copy()
        outside[:, bins] = 0.0
        assert not outside.any()
        assert table.flags.c_contiguous and not table.flags.writeable
        scattered[bins, filters] = table
    assert np.array_equal(scattered, filterbank.T)
    assert (cfg is SPARSE) == any(bins.stop == bins.start for _, bins, _ in bands)


def test_translation_by_one_frame_shift_moves_columns():
    rng = np.random.default_rng(0)
    x = rng.normal(size=16000) * 0.1
    base = log_mel_spectrogram(x, CFG)
    delayed = log_mel_spectrogram(np.concatenate([np.zeros(240), x]), CFG)
    s_t = base.shape[1]
    assert np.max(np.abs(delayed[:, 1:s_t] - base[:, : s_t - 1])) <= 1e-9


def test_all_entries_finite_on_random_input():
    rng = np.random.default_rng(1)
    lms = log_mel_spectrogram(rng.uniform(-1, 1, 8000), CFG)
    assert np.all(np.isfinite(lms))


def _log_mel_reference(samples, cfg):
    """The textbook frontend: window each frame, FFT, power, mel, log."""
    frames = np.lib.stride_tricks.sliding_window_view(samples, cfg.frame_len)[:: cfg.frame_shift]
    window, filterbank, _ = _frontend_tables(cfg)
    spectrum = np.fft.rfft(frames * window, n=cfg.fft_size, axis=1)
    powers = spectrum.real**2 + spectrum.imag**2
    return np.log(powers @ filterbank.T + cfg.log_floor).T


# The mel product is banded (see log_mel_spectrogram); the reference is the
# dense product. These geometries hold bit for bit on numpy's bundled OpenBLAS.
ORACLE_CONFIGS = {
    "default": (CFG, 16000),
    "ragged-tail": (CFG, 16123),  # 123 samples after the last frame
    "fft-equals-frame": (FrontendConfig(frame_ms=32.0, fft_size=512), 16000),
    "odd-frame": (FrontendConfig(frame_ms=24.9375), 12345),  # 399-sample frames
    "shift-past-frame": (FrontendConfig(frame_ms=10.0, shift_ms=15.0, fft_size=256, mel_bins=40), 9000),
    "64-mel-bins": (FrontendConfig(mel_bins=64), 16000),
    "10ms-shift-2s": (FrontendConfig(shift_ms=10.0), 32000),
}
LAYOUTS = ("float64", "float32", "strided", "reversed")
PINNED_FRAMES = range(10, 201)  # clip lengths, in frames, pinned at the default geometry


def _oracle_samples(n, layout):
    x = np.random.default_rng(7).uniform(-1.0, 1.0, 2 * n)
    samples = {"float64": x[:n], "float32": x[:n].astype(np.float32),
               "strided": x[::2], "reversed": x[: n - 1 : -1]}[layout]
    assert samples.size == n
    return samples


def _samples_for_frames(frames):
    return CFG.frame_len + (frames - 1) * CFG.frame_shift


def _differs(samples, cfg) -> bool:
    return log_mel_spectrogram(samples, cfg).tobytes() != _log_mel_reference(samples, cfg).tobytes()


def _length_mismatches() -> list[str]:
    """Each clip length of PINNED_FRAMES at which the default geometry's
    log mel differs in any bit from the dense reference."""
    x = _oracle_samples(_samples_for_frames(PINNED_FRAMES[-1]), "float64")
    return [f"{frames}-frames" for frames in PINNED_FRAMES if _differs(x[: _samples_for_frames(frames)], CFG)]


def _oracle_mismatches() -> list[str]:
    """Every pinned case that differs in any bit from the dense reference:
    each ORACLE_CONFIGS entry in each layout, and each pinned clip length."""
    return [f"{name}-{layout}" for name, (cfg, n) in ORACLE_CONFIGS.items() for layout in LAYOUTS
            if _differs(_oracle_samples(n, layout), cfg)] + _length_mismatches()


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("name", sorted(ORACLE_CONFIGS))
def test_log_mel_matches_the_textbook_formula_bit_for_bit(name, layout):
    cfg, n = ORACLE_CONFIGS[name]
    samples = _oracle_samples(n, layout)
    lms = log_mel_spectrogram(samples, cfg)
    expected = _log_mel_reference(samples, cfg)
    assert lms.shape == expected.shape == (cfg.mel_bins, 1 + (n - cfg.frame_len) // cfg.frame_shift)
    assert lms.dtype == np.float64
    assert lms.tobytes() == expected.tobytes()


def test_log_mel_matches_the_textbook_formula_at_every_clip_length_from_10_frames():
    assert _length_mismatches() == []


@pytest.mark.parametrize("threads", ["1", "2"])
def test_log_mel_oracle_holds_under_each_blas_thread_count(threads):
    """The pinned cases in a child process whose OpenBLAS runs ``threads``
    threads (two need a host with two cores, as tests/test_golden.py)."""
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
           "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root)])}
    code = "from tests.test_audio import _oracle_mismatches; print(_oracle_mismatches())"
    proc = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


# Where OpenBLAS evaluates the dense reference along another path than the
# banded product, the two differ in the last bits of the mel power. No
# shipped config, golden config or benchmark workload uses these geometries.
LOOSE_CONFIGS = {
    "fft-1024": (FrontendConfig(fft_size=1024), 16000),
    "12-mel-bins": (FrontendConfig(mel_bins=12), 16000),
    "20-mel-bins": (FrontendConfig(mel_bins=20), 16000),
    "100-mel-bins": (FrontendConfig(mel_bins=100), 16000),
    "5-frames": (CFG, _samples_for_frames(5)),
    "9-frames": (CFG, _samples_for_frames(9)),
    "64-mel-bins-18-frames": (FrontendConfig(mel_bins=64), _samples_for_frames(18)),
    "1000-mel-bins": (SPARSE, 16000),  # its empty bands must write zeros
}


@pytest.mark.parametrize("name", sorted(LOOSE_CONFIGS))
def test_log_mel_within_32_eps_of_the_textbook_formula_elsewhere(name):
    """32 machine epsilons on the log: the mel powers agree to about 32
    eps relative (the widest gap seen is 8 eps, over fft sizes 256-1024,
    1-259 mel bins and clips of 1-66 frames)."""
    cfg, n = LOOSE_CONFIGS[name]
    samples = _oracle_samples(n, "float64")
    lms, expected = log_mel_spectrogram(samples, cfg), _log_mel_reference(samples, cfg)
    assert lms.shape == expected.shape
    assert np.max(np.abs(lms - expected)) <= 32 * np.finfo(np.float64).eps


def test_log_mel_calls_share_no_memory():
    x = np.random.default_rng(8).uniform(-1.0, 1.0, 16000)
    first, second = log_mel_spectrogram(x, CFG), log_mel_spectrogram(x, CFG)
    assert np.array_equal(first, second) and not np.shares_memory(first, second)


def test_fft_shorter_than_the_frame_rejected():
    # 400-sample frames: rfft(n=256) would crop every frame
    with pytest.raises(ConfigError, match=r"frontend\.fft_size: must be >= frame length 400"):
        log_mel_spectrogram(np.zeros(16000), FrontendConfig(fft_size=256))


def test_fit_to_length_pads_and_crops():
    samples = np.ones(100)
    padded = fit_to_length(samples, 200)
    assert padded.shape == (200,) and padded.sum() == 100
    cropped = fit_to_length(samples, 50)
    assert cropped.shape == (50,) and np.all(cropped == 1.0)


# ---------------------------------------------------------------------------
# patch splitting


def test_single_patch_when_sizes_match():
    lms = np.arange(12.0).reshape(3, 4)
    patches = patch_split(lms, 3, 4, 2)
    assert patches.shape == (1, 12)
    assert np.array_equal(patches[0], lms.ravel())


def test_overlapping_patch_count_case():
    grid = patch_counts(128, 106, 16, 16, 10)
    assert (grid.rows, grid.cols, grid.z) == (12, 10, 120)


def test_non_overlapping_patch_count_case():
    grid = patch_counts(128, 160, 16, 16, 16)
    assert (grid.rows, grid.cols, grid.z) == (8, 10, 80)


def test_patch_larger_than_spectrum_rejected():
    lms = np.zeros((8, 8))
    with pytest.raises(DimensionError):
        patch_split(lms, 9, 8, 1)
    with pytest.raises(DimensionError):
        patch_split(lms, 8, 8, 0)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 64), st.integers(1, 64),
    st.integers(1, 64), st.integers(1, 64), st.integers(1, 12),
)
def test_patch_count_matches_enumeration(big_f, big_t, s_f, s_t, d):
    if s_f > big_f or s_t > big_t:
        with pytest.raises(DimensionError):
            patch_counts(big_f, big_t, s_f, s_t, d)
        return
    grid = patch_counts(big_f, big_t, s_f, s_t, d)
    assert grid.z == enumerate_patch_count(big_f, big_t, s_f, s_t, d)


def test_patch_order_is_frequency_major():
    patches = patch_split(np.arange(16.0).reshape(4, 4), 2, 2, 2)
    # patch 0 is top-left, patch 1 moves along time, patch 2 drops in frequency
    assert np.array_equal(patches[0], [0, 1, 4, 5])
    assert np.array_equal(patches[1], [2, 3, 6, 7])
    assert np.array_equal(patches[2], [8, 9, 12, 13])


def _patch_split_reference(data, s_f, s_t, d):
    """Frequency-major double loop over the patch origins."""
    rows = (data.shape[0] - s_f) // d + 1
    cols = (data.shape[1] - s_t) // d + 1
    return np.array([data[i * d : i * d + s_f, j * d : j * d + s_t].ravel()
                     for i in range(rows) for j in range(cols)])


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 24), st.integers(1, 24), st.integers(1, 8), st.integers(1, 8),
       st.integers(1, 8), st.integers(0, 2**31 - 1), st.booleans())
def test_patch_split_matches_double_loop(big_f, big_t, s_f, s_t, d, seed, transposed):
    # strides below the patch size make the patches overlap; a transposed
    # input is the (S_f, S_t) transpose of every other row of a (2 * S_t, S_f) array
    s_f, s_t = min(s_f, big_f), min(s_t, big_t)
    rng = np.random.default_rng(seed)
    if transposed:
        data = rng.normal(size=(2 * big_t, big_f))[::2].T
        assert data.strides == (8, 16 * big_f)
    else:
        data = rng.normal(size=(big_f, big_t))
    patches = patch_split(data, s_f, s_t, d)
    expected = _patch_split_reference(data, s_f, s_t, d)
    assert patches.shape == (patch_counts(big_f, big_t, s_f, s_t, d).z, s_f * s_t) == expected.shape
    assert patches.dtype == np.float64 and patches.flags.writeable and patches.flags.c_contiguous
    assert not np.shares_memory(patches, data)
    assert np.array_equal(patches, expected)


def test_nonoverlapping_reassembly_is_exact():
    # d = s_f = s_t: tiles cover the cropped spectrogram exactly once
    rng = np.random.default_rng(2)
    lms = rng.normal(size=(20, 14))
    grid = patch_counts(20, 14, 5, 5, 5)
    assert (grid.rows, grid.cols) == (4, 2)
    rebuilt = reassemble_patches(patch_split(lms, 5, 5, 5), grid.rows, grid.cols, 5, 5)
    assert np.array_equal(rebuilt, lms[:20, :10])


# ---------------------------------------------------------------------------
# synthetic classes


def test_synth_deterministic():
    cfg = SynthConfig()
    a = synth_class_waveform(3, 99, cfg, CFG)
    b = synth_class_waveform(3, 99, cfg, CFG)
    assert np.array_equal(a, b)


def test_synth_instances_differ():
    cfg = SynthConfig()
    a = synth_class_waveform(3, 1, cfg, CFG)
    b = synth_class_waveform(3, 2, cfg, CFG)
    assert not np.array_equal(a, b)


def test_synth_amplitude_bounded():
    cfg = SynthConfig()
    for c in range(cfg.num_classes):
        assert np.max(np.abs(synth_class_waveform(c, 5, cfg, CFG))) <= 1.0


def test_synth_disjoint_dominant_mel_bins_without_noise():
    cfg = SynthConfig(noise_amplitude=0.0)
    bins = []
    for c in range(cfg.num_classes):
        lms = log_mel_spectrogram(synth_class_waveform(c, 0, cfg, CFG), CFG)
        bins.append(int(np.argmax(lms.mean(axis=1))))
    assert len(set(bins)) == cfg.num_classes


def test_synth_clip_takes_rate_and_length_from_the_frontend():
    frontend = FrontendConfig(sample_rate_hz=8000, fmax_hz=4000.0, clip_seconds=0.5)
    cfg = SynthConfig(max_freq_hz=3000.0)
    samples = synth_class_waveform(2, 7, cfg, frontend)
    assert samples.size == frontend.clip_samples == 4000
    # the strongest spectral peak is the fundamental (within its 1% jitter)
    # only if the clip is laid out at the frontend's 8 kHz
    peak_hz = np.argmax(np.abs(np.fft.rfft(samples))) * 8000 / samples.size
    assert abs(peak_hz - cfg.fundamental(2)) <= 0.011 * cfg.fundamental(2) + 2.0


def test_synth_class_out_of_range():
    with pytest.raises(ConfigError):
        synth_class_waveform(10, 0, SynthConfig(num_classes=10), CFG)


# ---------------------------------------------------------------------------
# manifests


def test_manifest_round_trip(tmp_path):
    for name in ("a.wav", "b.wav"):
        (tmp_path / name).touch()
    refs = [
        ClipRef("cat", "train", path="a.wav"),
        ClipRef("dog", "test", path="b.wav"),
    ]
    path = tmp_path / "manifest.csv"
    write_manifest(path, refs)
    # written relative to the manifest's directory, read back resolved against it
    assert read_manifest(path) == [
        ClipRef("cat", "train", path=str(tmp_path / "a.wav")),
        ClipRef("dog", "test", path=str(tmp_path / "b.wav")),
    ]
    raw = path.read_bytes()
    assert raw.startswith(b"path,label,split\n")
    assert b"\r" not in raw  # LF line endings


def test_manifest_bad_header(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("file,cls,part\na.wav,cat,train\n")
    with pytest.raises(IngestionError, match="header"):
        read_manifest(path)


def test_manifest_bad_split(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("path,label,split\na.wav,cat,validation\n")
    with pytest.raises(IngestionError, match="split"):
        read_manifest(path)


def test_manifest_undecodable_utf8(tmp_path):
    path = tmp_path / "m.csv"
    path.write_bytes(b"path,label,split\na.wav,\xff\xfe,train\n")
    with pytest.raises(IngestionError, match="UTF-8"):
        read_manifest(path)


@pytest.mark.parametrize("again", ["a.wav,cat,test", "./a.wav,dog,train", "sub/../a.wav,cat,train",
                                   "{tmp}/a.wav,cat,test", "../{dir}/a.wav,dog,train"])
def test_manifest_path_listed_twice_rejected(tmp_path, again):
    # one clip under two labels or in both splits would leak train into test;
    # paths are compared once resolved against the manifest's directory
    for name in ("a.wav", "b.wav"):
        (tmp_path / name).touch()
    path = tmp_path / "m.csv"
    again = again.format(tmp=tmp_path, dir=tmp_path.name)
    path.write_text(f"path,label,split\na.wav,cat,train\nb.wav,cat,test\n{again}\n")
    with pytest.raises(IngestionError, match=r"m\.csv:4: .* already listed on line 2"):
        read_manifest(path)


@pytest.mark.parametrize("again", ["b.wav", "linked/a.wav", "linked/b.wav"])
def test_manifest_clip_reached_through_a_symlink_rejected(tmp_path, again):
    # the duplicate check compares the (device, inode) pair of each clip
    write_wav(tmp_path / "a.wav", np.zeros(160), 16000)
    os.symlink("a.wav", tmp_path / "b.wav")
    os.symlink(".", tmp_path / "linked")
    path = tmp_path / "m.csv"
    path.write_text(f"path,label,split\na.wav,cat,train\n{again},cat,test\n")
    with pytest.raises(IngestionError, match=rf"m\.csv:3: '{again}' is already listed on line 2"):
        read_manifest(path)


def test_manifest_clip_reached_through_a_hard_link_rejected(tmp_path):
    # a hard link is another directory entry for the same inode; a copy is another file
    write_wav(tmp_path / "a.wav", np.zeros(160), 16000)
    os.link(tmp_path / "a.wav", tmp_path / "c.wav")
    (tmp_path / "d.wav").write_bytes((tmp_path / "a.wav").read_bytes())
    path = tmp_path / "m.csv"
    path.write_text("path,label,split\na.wav,cat,train\nc.wav,cat,test\n")
    with pytest.raises(IngestionError, match=r"m\.csv:3: 'c.wav' is already listed on line 2"):
        read_manifest(path)
    path.write_text("path,label,split\na.wav,cat,train\nd.wav,cat,test\n")
    assert [r.path for r in read_manifest(path)] == [str(tmp_path / "a.wav"), str(tmp_path / "d.wav")]


# listed clip -> why read_manifest refuses it
_UNREADABLE = {"ghost.wav": "cannot read clip", "a\0b.wav": "cannot read clip",
               "folder.wav": "'folder.wav' is not a regular file"}


@pytest.mark.parametrize("clip", list(_UNREADABLE))
def test_manifest_clip_that_cannot_be_read_rejected(tmp_path, clip):
    # every listed clip is looked up when the manifest is read, so a missing
    # one, or a directory, is named with its line before any audio loads
    (tmp_path / "a.wav").touch()
    (tmp_path / "folder.wav").mkdir()
    path = tmp_path / "m.csv"
    path.write_text(f"path,label,split\na.wav,cat,train\n{clip},cat,test\n")
    with pytest.raises(IngestionError, match=r"m\.csv:3: " + re.escape(_UNREADABLE[clip])):
        read_manifest(path)


def test_manifest_label_too_long_for_the_container_rejected(tmp_path):
    (tmp_path / "a.wav").touch()
    path = tmp_path / "m.csv"
    fits = "é" * (65_535 // 2)  # 65,534 UTF-8 bytes
    path.write_text(f"path,label,split\na.wav,{fits},train\nb.wav,{fits}é,test\n", encoding="utf-8")
    with pytest.raises(IngestionError, match=r"m\.csv:3: label longer than 65535 UTF-8 bytes"):
        read_manifest(path)


def test_manifest_error_names_the_physical_line_after_a_quoted_newline(tmp_path):
    # the second record spans lines 3-4, so the bad split is on line 5, not record 4
    for name in ("a.wav", "b\nc.wav"):
        (tmp_path / name).touch()
    path = tmp_path / "m.csv"
    path.write_text('path,label,split\na.wav,c0,train\n"b\nc.wav",c0,train\nd.wav,c1,bogus\n')
    with pytest.raises(IngestionError, match=r"m\.csv:5: split must be train or test"):
        read_manifest(path)


@pytest.mark.parametrize("label", [" c0", "c0 ", "c0\t", "\u00a0c0"])
def test_manifest_label_with_surrounding_whitespace_rejected(tmp_path, label):
    # read verbatim, ' c0' would load as a second class beside 'c0'
    for name in ("a.wav", "b.wav"):
        (tmp_path / name).touch()
    path = tmp_path / "m.csv"
    path.write_text(f"path,label,split\na.wav,c0,train\nb.wav,{label},train\n", encoding="utf-8")
    with pytest.raises(IngestionError, match=r"m\.csv:3: label .* has leading or trailing whitespace"):
        read_manifest(path)
