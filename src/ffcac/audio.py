"""Audio frontend: WAV ingestion, log mel spectrograms, patch splitting,
synthetic class waveforms for desk-scale experiments, and the clip records
that manifests and synthetic datasets list.

All functions are pure and deterministic; randomness enters only through
explicit seeds.
"""

from __future__ import annotations

import csv
import functools
import io
import math
import os
import stat
import struct
import wave
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ConfigError, DimensionError, IngestionError
from .weights_io import MAX_TEXT_BYTES, open_input, read_text

PCM_FULL_SCALE = 32768.0  # 16-bit two's complement


@dataclass(frozen=True)
class FrontendConfig:
    """Spectrogram settings. Frame geometry is in milliseconds."""

    sample_rate_hz: int = 16000
    frame_ms: float = 25.0
    shift_ms: float = 15.0
    mel_bins: int = 128
    fft_size: int = 512
    fmin_hz: float = 0.0
    fmax_hz: float = 8000.0
    log_floor: float = 1e-10
    clip_seconds: float = 1.0

    @property
    def frame_len(self) -> int:
        return int(round(self.frame_ms * self.sample_rate_hz / 1000.0))

    @property
    def frame_shift(self) -> int:
        return int(round(self.shift_ms * self.sample_rate_hz / 1000.0))

    @property
    def clip_samples(self) -> int:
        return int(round(self.clip_seconds * self.sample_rate_hz))


@dataclass(frozen=True)
class PatchGrid:
    rows: int
    cols: int

    @property
    def z(self) -> int:
        return self.rows * self.cols


# ---------------------------------------------------------------------------
# WAV files


def load_wav(path, expected_rate_hz: int = 16000) -> np.ndarray:
    """Read a mono 16-bit PCM RIFF file at ``expected_rate_hz``: its (n,)
    float64 samples, scaled by 1/32768.

    One walk over the RIFF chunks, with the rules of Python's ``wave``
    reader: chunks are padded to even length, the last ``fmt `` chunk
    before the first ``data`` chunk describes it, a chunk skipped past the
    end of the RIFF chunk is refused, and the samples run to the end of the
    data chunk, of the RIFF chunk or of the file, whichever comes first."""
    path = Path(path)
    with open_input(path) as fh:
        head = fh.read(12)
        riff, size, wave_id = struct.unpack("<4sI4s", head) if len(head) == 12 else (b"", 0, b"")
        if riff != b"RIFF" or size < 4 or wave_id != b"WAVE":
            raise IngestionError(f"{path}: not a readable PCM WAV file (no RIFF WAVE header)")
        blob = head + fh.read(size - 4)  # the RIFF chunk, cut short where the file ends
    riff_end, pos, fmt = 8 + size, 12, None
    while True:
        if pos + 8 > len(blob):
            raise IngestionError(f"{path}: not a readable PCM WAV file (no data chunk)")
        name, size = struct.unpack_from("<4sI", blob, pos)
        pos += 8
        if name == b"data":
            break
        if name == b"fmt ":
            if size < 16 or pos + 16 > len(blob):
                raise IngestionError(f"{path}: not a readable PCM WAV file (short fmt chunk)")
            tag, channels, rate, _, _, bits = struct.unpack_from("<HHIIHH", blob, pos)
            if tag != 1 or channels == 0 or bits == 0:  # 1: WAVE_FORMAT_PCM
                raise IngestionError(f"{path}: not a readable PCM WAV file "
                                     f"(format {tag}, {channels} channels, {bits} bits)")
            fmt = channels, (bits + 7) // 8, rate
        pos += size + (size & 1)
        if pos > riff_end:
            raise IngestionError(f"{path}: chunk {name!r} runs past the end of the RIFF chunk")
    if fmt is None:
        raise IngestionError(f"{path}: not a readable PCM WAV file (data chunk before fmt chunk)")
    channels, width, rate = fmt
    if channels != 1:
        raise IngestionError(f"{path}: expected mono, got {channels} channels")
    if width != 2:
        raise IngestionError(f"{path}: expected 16-bit samples, got {8 * width}-bit")
    if rate != expected_rate_hz:
        raise IngestionError(f"{path}: sample rate {rate} Hz, expected {expected_rate_hz} Hz")
    nbytes = min(size - size % 2, len(blob) - pos)  # whole samples of the chunk, as far as present
    if nbytes % 2:
        raise IngestionError(f"{path}: data chunk ends inside a sample")
    if nbytes == 0:
        raise IngestionError(f"{path}: contains no samples")
    # one pass; exact, since 1/32768 is a power of two
    return np.multiply(np.frombuffer(blob, "<i2", nbytes // 2, pos), 1.0 / PCM_FULL_SCALE)


def write_wav(path, samples: np.ndarray, rate_hz: int) -> None:
    ints = np.clip(np.rint(samples * PCM_FULL_SCALE), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(rate_hz)
        wf.writeframes(ints.tobytes())


# ---------------------------------------------------------------------------
# log mel spectrogram


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(cfg: FrontendConfig) -> np.ndarray:
    """Triangular mel filters (peak 1.0), shape (mel_bins, fft_size//2 + 1)."""
    n_bins = cfg.fft_size // 2 + 1
    freqs = np.arange(n_bins) * cfg.sample_rate_hz / cfg.fft_size
    edges = mel_to_hz(np.linspace(hz_to_mel(cfg.fmin_hz), hz_to_mel(cfg.fmax_hz), cfg.mel_bins + 2))
    lo, ctr, hi = edges[:-2, None], edges[1:-1, None], edges[2:, None]
    rising = (freqs[None, :] - lo) / np.maximum(ctr - lo, 1e-12)
    falling = (hi - freqs[None, :]) / np.maximum(hi - ctr, 1e-12)
    return np.maximum(0.0, np.minimum(rising, falling))


MEL_GROUP = 16  # consecutive mel filters per banded product (see log_mel_spectrogram)


@functools.lru_cache(maxsize=8)
def _frontend_tables(cfg: FrontendConfig) -> tuple[np.ndarray, np.ndarray, tuple]:
    """Periodic Hann window, mel filterbank and filterbank bands of one
    config, built once and shared as read-only arrays.

    A band is ``(filters, bins, table)``: the filters of one group of
    MEL_GROUP consecutive filters (a remainder under MEL_GROUP // 2 joins
    the last group) weight no FFT bin outside the slice ``bins``, and
    ``table`` is the contiguous ``filterbank[filters, bins].T``."""
    n = cfg.frame_len
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)
    filterbank = mel_filterbank(cfg)
    starts = list(range(0, cfg.mel_bins, MEL_GROUP))
    if len(starts) > 1 and cfg.mel_bins - starts[-1] < MEL_GROUP // 2:
        del starts[-1]
    bands = []
    for a, b in zip(starts, starts[1:] + [cfg.mel_bins]):
        used = np.flatnonzero(filterbank[a:b].any(axis=0))
        bins = slice(int(used[0]), int(used[-1]) + 1) if used.size else slice(0, 0)
        bands.append((slice(a, b), bins, np.ascontiguousarray(filterbank[a:b, bins].T)))
    for table in (window, filterbank, *(table for _, _, table in bands)):
        table.flags.writeable = False
    return window, filterbank, tuple(bands)


def log_mel_spectrogram(samples: np.ndarray, cfg: FrontendConfig) -> np.ndarray:
    """(S_f, S_t) array of ln(mel power + log_floor) over Hann-windowed
    frames. It is a view: the transpose of a fresh (S_t, S_f) array, so
    it is Fortran-ordered, not C-ordered.

    Frames lie fully inside the signal: S_t = 1 + (len - frame_len) // shift.
    The mel power is one BLAS product per band of ``_frontend_tables``,
    over only the FFT bins its filters weight. The bins it skips add exact
    zeros, since the powers of finite samples are finite and >= 0.

    On numpy's bundled OpenBLAS (x86-64), under one thread or two, the
    result equals the textbook sliding-window, rfft(n=fft_size), power,
    dense ``powers @ filterbank.T`` and log steps bit for bit on the
    shipped frontend (128 mel bins, fft_size 512) at every clip length
    from 10 to 200 frames (1 s is 66), and on the other geometries that
    tests/test_audio.py pins
    (64 mel bins, a 10 ms shift, 40 mel bins at fft_size 256, ...): there
    each output of the dense and of the banded products is one in-order
    FMA chain. Where OpenBLAS runs the dense product along another path,
    the two differ in the last bits, by at most 8 machine epsilons seen on
    the log: at fft_size 1024, with fewer than 16 mel bins and with some
    other counts (e.g. 20, 65 or 100), and on clips under 10 frames (19 at
    64 mel bins).
    """
    n = samples.size
    frame_len, shift, fft_size = cfg.frame_len, cfg.frame_shift, cfg.fft_size
    if n < frame_len:
        raise IngestionError(f"clip of {n} samples shorter than one {frame_len}-sample frame")
    if fft_size < frame_len:  # rfft would crop every frame
        raise ConfigError(f"frontend.fft_size: must be >= frame length {frame_len}")
    step = samples.strides[0]
    frames = as_strided(samples, (1 + (n - frame_len) // shift, frame_len), (shift * step, step),
                        writeable=False)
    window, _, bands = _frontend_tables(cfg)
    # the windowed frames, zero-padded in place to the FFT length
    padded = np.empty((frames.shape[0], fft_size))
    np.multiply(frames, window, out=padded[:, :frame_len])
    padded[:, frame_len:] = 0.0
    parts = np.fft.rfft(padded, axis=1).view(np.float64)  # (re, im) pairs
    np.square(parts, out=parts)
    powers = np.add(parts[:, 0::2], parts[:, 1::2])
    mel = np.empty((frames.shape[0], cfg.mel_bins))  # fresh per call: threads share a pipeline
    for filters, bins, table in bands:
        np.matmul(powers[:, bins], table, out=mel[:, filters])
    mel += cfg.log_floor
    return np.log(mel, out=mel).T


def fit_to_length(samples: np.ndarray, num_samples: int) -> np.ndarray:
    """Center-crop or zero-pad so every clip yields the same frame count."""
    n = samples.size
    if n == num_samples:
        return samples
    if n > num_samples:
        start = (n - num_samples) // 2
        return samples[start : start + num_samples].copy()
    left = (num_samples - n) // 2
    out = np.zeros(num_samples)
    out[left : left + n] = samples
    return out


# ---------------------------------------------------------------------------
# patch splitting


def patch_counts(big_f: int, big_t: int, s_f: int, s_t: int, d: int) -> PatchGrid:
    """Patch grid at stride d: rows*cols sub-spectra of size s_f x s_t."""
    if d < 1:
        raise DimensionError(f"stride must be >= 1, got {d}")
    if s_f > big_f or s_t > big_t:
        raise DimensionError(f"patch {s_f}x{s_t} larger than spectrum {big_f}x{big_t}")
    if s_f < 1 or s_t < 1:
        raise DimensionError(f"patch extents must be positive, got {s_f}x{s_t}")
    rows = (big_f - s_f) // d + 1
    cols = (big_t - s_t) // d + 1
    return PatchGrid(rows=rows, cols=cols)


def patch_split(lms: np.ndarray, s_f: int, s_t: int, d: int) -> np.ndarray:
    """Every s_f x s_t window of the (S_f, S_t) spectrogram at stride d, as
    a fresh (Z, s_f * s_t) matrix: rows in frequency-major, then time order,
    each window flattened row-major."""
    grid = patch_counts(*lms.shape, s_f, s_t, d)
    row, col = lms.strides  # any layout, e.g. the transposed view log_mel_spectrogram returns
    windows = as_strided(lms, (grid.rows, grid.cols, s_f, s_t), (d * row, d * col, row, col),
                         writeable=False)
    return np.array(windows, dtype=np.float64, order="C").reshape(grid.z, s_f * s_t)


# ---------------------------------------------------------------------------
# synthetic classes


HARMONIC_AMPS = (1.0, 0.45, 0.2)  # relative amplitudes of harmonics 1, 2, 3
SYNTH_PEAK = 0.9  # every synthetic clip is scaled to this absolute peak


@dataclass(frozen=True)
class SynthConfig:
    """The ``synth.*`` keys. Class c is a harmonic stack on a fundamental
    geometrically spaced between base_freq_hz and max_freq_hz, so distinct
    classes occupy disjoint mel bands; each class has clips_per_class
    clips, the first train_per_class of them in the train split."""

    num_classes: int = 10
    clips_per_class: int = 25
    train_per_class: int = 15
    base_freq_hz: float = 220.0
    max_freq_hz: float = 4000.0
    noise_amplitude: float = 0.02

    def problems(self, sample_rate_hz: int) -> list[tuple[str, str]]:
        """Every range violation as a (field, why) pair."""
        checks = (
            (self.num_classes >= 1, "num_classes", "must be >= 1"),
            (self.clips_per_class >= 2, "clips_per_class", "must be >= 2 (train + test)"),
            (1 <= self.train_per_class < self.clips_per_class, "train_per_class",
             "must leave at least one test clip"),
            (0 < self.base_freq_hz < self.max_freq_hz <= sample_rate_hz / 2, "base_freq_hz/max_freq_hz",
             "need 0 < base < max <= nyquist"),
            (0 <= self.noise_amplitude < math.inf, "noise_amplitude", "must be finite and >= 0"),
        )
        return [(name, why) for ok, name, why in checks if not ok]

    def fundamental(self, class_id: int) -> float:
        if self.num_classes == 1:
            return self.base_freq_hz
        ratio = self.max_freq_hz / self.base_freq_hz
        return self.base_freq_hz * ratio ** (class_id / (self.num_classes - 1))


def synth_class_waveform(class_id: int, instance_seed: int, cfg: SynthConfig,
                         frontend: FrontendConfig) -> np.ndarray:
    """Deterministic per (class_id, instance_seed) harmonic-plus-noise clip
    of ``frontend.clip_samples`` samples at the frontend's rate."""
    if not 0 <= class_id < cfg.num_classes:
        raise ConfigError(f"class_id {class_id} out of range for {cfg.num_classes} classes")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((class_id, instance_seed))))
    rate = frontend.sample_rate_hz
    n = frontend.clip_samples
    t = np.arange(n) / rate
    f0 = cfg.fundamental(class_id) * (1.0 + 0.01 * rng.uniform(-1.0, 1.0))
    x = np.zeros(n)
    for k, amp in enumerate(HARMONIC_AMPS, start=1):
        freq = k * f0
        if freq >= 0.475 * rate:  # keep clear of Nyquist
            continue
        jitter = 1.0 + 0.1 * rng.uniform(-1.0, 1.0)
        x += amp * jitter * np.sin(2.0 * np.pi * freq * t + rng.uniform(0.0, 2.0 * np.pi))
    if cfg.noise_amplitude > 0:
        x += cfg.noise_amplitude * rng.standard_normal(n)
    top = np.max(np.abs(x))
    if top > 0:
        x *= SYNTH_PEAK / top
    return x


# ---------------------------------------------------------------------------
# clip records and manifests

MANIFEST_HEADER = ["path", "label", "split"]
VALID_SPLITS = ("train", "test")


@dataclass(frozen=True)
class ClipRef:
    """One clip of a dataset, in the train or test split: a WAV on disk or
    a synthesizable (class, seed)."""

    label: str
    split: str  # train | test
    path: str | None = None
    synth_class: int | None = None
    synth_seed: int | None = None


def read_manifest(path) -> list[ClipRef]:
    """The clips of a ``path,label,split`` CSV, each path resolved against
    the manifest's directory. Every clip must be a regular file when the
    manifest is read; one listed twice, under any spelling of its path,
    through a symbolic link or a hard link, raises IngestionError. A
    byte-identical copy is another file and passes. A label with leading
    or trailing whitespace is refused, not stripped. Errors name the
    physical line on which the record starts."""
    path = Path(path)
    reader = csv.reader(io.StringIO(read_text(path), newline=""))
    table, start = [], 1  # (physical line the record starts on, its fields)
    try:
        for row in reader:  # a quoted field may span lines
            table.append((start, row))
            start = reader.line_num + 1
    except csv.Error as e:  # e.g. a field past csv.field_size_limit()
        raise IngestionError(f"{path}: not a readable CSV manifest ({e})") from e
    if not table:
        raise IngestionError(f"{path}: empty manifest")
    header = table[0][1]
    if header != MANIFEST_HEADER:
        raise IngestionError(f"{path}: header must be {','.join(MANIFEST_HEADER)}, got {','.join(header)}")
    refs = []
    listed: dict[tuple[int, int], int] = {}  # (device, inode) of the clip -> line listing it
    for ln, row in table[1:]:
        if not row:
            continue
        if len(row) != 3:
            raise IngestionError(f"{path}:{ln}: expected 3 fields, got {len(row)}")
        p, label, split = row
        if split not in VALID_SPLITS:
            raise IngestionError(f"{path}:{ln}: split must be train or test, got {split!r}")
        if label != label.strip():  # ' c0' would load as a class beside 'c0'
            raise IngestionError(f"{path}:{ln}: label {label!r} has leading or trailing whitespace")
        if len(label.encode("utf-8")) > MAX_TEXT_BYTES:  # the classifier container's limit
            raise IngestionError(f"{path}:{ln}: label longer than {MAX_TEXT_BYTES} UTF-8 bytes")
        clip = os.path.normpath(os.path.join(path.parent, p))
        try:
            st = os.stat(clip)
        except (OSError, ValueError) as e:  # missing, unreadable, or a NUL byte in the path
            reason = e.strerror if isinstance(e, OSError) else e
            raise IngestionError(f"{path}:{ln}: cannot read clip {p!r} ({reason})") from None
        if not stat.S_ISREG(st.st_mode):  # a directory fails later; a FIFO would block in open
            raise IngestionError(f"{path}:{ln}: {p!r} is not a regular file")
        first = listed.setdefault((st.st_dev, st.st_ino), ln)
        if first != ln:
            raise IngestionError(f"{path}:{ln}: {p!r} is already listed on line {first}")
        refs.append(ClipRef(label=label, split=split, path=clip))
    return refs


def write_manifest(path, refs) -> None:
    """Each ref's path, which is relative to the manifest's directory, with
    its label and split."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(MANIFEST_HEADER)
        for r in refs:
            writer.writerow([r.path, r.label, r.split])
