"""Shared test oracles, kept independent of the code paths they check."""

from __future__ import annotations

import math
import wave
from pathlib import Path

import numpy as np

from ffcac import autodiff as ad
from ffcac import encoder as enc
from ffcac.audio import PCM_FULL_SCALE
from ffcac.autodiff import Tensor
from ffcac.errors import IngestionError
from ffcac.weights_io import open_input


def rel_err(analytic, numeric, floor: float = 1e-2) -> float:
    """Max |a - n| / max(|a|, |n|, floor); the floor keeps near-zero
    gradients from inflating the ratio."""
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
    return float(np.max(np.abs(a - n) / denom))


def central_diff(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function of one array."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        xp = x.copy()
        xp[idx] += h
        xm = x.copy()
        xm[idx] -= h
        g[idx] = (f(xp) - f(xm)) / (2.0 * h)
    return g


def leaves(params: dict) -> dict:
    """A ``requires_grad`` leaf tensor per array, sharing its memory, as a
    training step wraps the parameters."""
    return {name: Tensor(a, requires_grad=True) for name, a in params.items()}


def grad_check(make_loss, params, h: float = 1e-5, floor: float = 1e-2,
               max_coords_per_tensor: int | None = None,
               rng: np.random.Generator | None = None) -> float:
    """Worst relative error between backward() gradients and central
    differences, perturbing parameter values in place.

    ``make_loss`` must rebuild the graph from the current parameter values
    on every call. With ``max_coords_per_tensor`` set, a random coordinate
    subset of each tensor is probed (every tensor is still touched).
    """
    loss = make_loss()
    for p in params:
        p.grad = None
    ad.backward(loss)
    analytic = [p.grad if p.grad is not None else np.zeros_like(p.values) for p in params]

    worst = 0.0
    for p, a in zip(params, analytic):
        flat = p.values.reshape(-1)
        coords = np.arange(flat.size)
        if max_coords_per_tensor is not None and flat.size > max_coords_per_tensor:
            assert rng is not None
            coords = rng.choice(flat.size, size=max_coords_per_tensor, replace=False)
        for i in coords:
            orig = flat[i]
            flat[i] = orig + h
            fp = make_loss().values.item()
            flat[i] = orig - h
            fm = make_loss().values.item()
            flat[i] = orig
            numeric = (fp - fm) / (2.0 * h)
            worst = max(worst, rel_err(a.reshape(-1)[i], numeric, floor))
    return worst


def load_wav_reference(path, expected_rate_hz: int = 16000) -> np.ndarray:
    """``audio.load_wav`` as it read WAVs through the standard ``wave``
    module: mono 16-bit PCM at ``expected_rate_hz``, scaled by 1/32768."""
    path = Path(path)
    try:
        with open_input(path) as fh, wave.open(fh, "rb") as wf:
            channels = wf.getnchannels()
            width = wf.getsampwidth()
            rate = wf.getframerate()
            raw = wf.readframes(wf.getnframes())
    except (wave.Error, EOFError, RuntimeError) as e:  # RuntimeError: a chunk seek out of range
        raise IngestionError(f"{path}: not a readable PCM WAV file ({e!r})") from e
    if channels != 1:
        raise IngestionError(f"{path}: expected mono, got {channels} channels")
    if width != 2:
        raise IngestionError(f"{path}: expected 16-bit samples, got {8 * width}-bit")
    if rate != expected_rate_hz:
        raise IngestionError(f"{path}: sample rate {rate} Hz, expected {expected_rate_hz} Hz")
    if len(raw) % 2:
        raise IngestionError(f"{path}: data chunk ends inside a sample")
    samples = np.multiply(np.frombuffer(raw, dtype="<i2"), 1.0 / PCM_FULL_SCALE)
    if samples.size == 0:
        raise IngestionError(f"{path}: contains no samples")
    return samples


def enumerate_patch_count(big_f: int, big_t: int, s_f: int, s_t: int, d: int) -> int:
    """Count valid patch origins by exhaustive enumeration."""
    rows = sum(1 for i in range(0, big_f + 1, d) if i + s_f <= big_f)
    cols = sum(1 for j in range(0, big_t + 1, d) if j + s_t <= big_t)
    return rows * cols


def reassemble_patches(patches: np.ndarray, rows: int, cols: int, s_f: int, s_t: int) -> np.ndarray:
    """Rebuild the cropped spectrogram from non-overlapping patches laid
    out frequency-major."""
    out = np.zeros((rows * s_f, cols * s_t))
    k = 0
    for i in range(rows):
        for j in range(cols):
            out[i * s_f : (i + 1) * s_f, j * s_t : (j + 1) * s_t] = patches[k].reshape(s_f, s_t)
            k += 1
    return out


def lstsq_weights(E: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Independent least-squares oracle (orthogonal factorization via SVD)."""
    w, *_ = np.linalg.lstsq(E, Y, rcond=None)
    return w


# ---------------------------------------------------------------------------
# the extractor as a composite of tape ops: the oracle for encoder.py's
# hand-written layer backward, which must match its gradients bit for bit


def _tape_affine_norm(x, params, prefix: str):
    return (ad.layer_norm(x, axis=-1, eps=enc.LN_EPS) * params[f"{prefix}.gain"]
            + params[f"{prefix}.bias"])


def _tape_attention(h, params, block: str, cfg, batch: int):
    tokens = h.shape[0] // batch
    dh = cfg.dim // cfg.heads

    def project(x, name: str):
        return ad.matmul(x, params[f"{block}.attn.w{name}"]) + params[f"{block}.attn.b{name}"]

    def split_heads(x, axes):
        x = ad.transpose(ad.reshape(x, (batch, tokens, cfg.heads, dh)), axes)
        return ad.reshape(x, (batch * cfg.heads,) + x.shape[2:])

    q = split_heads(project(h, "q"), (0, 2, 1, 3))  # (B*H, T, dh)
    k_t = split_heads(project(h, "k"), (0, 2, 3, 1))  # (B*H, dh, T)
    v = split_heads(project(h, "v"), (0, 2, 1, 3))
    scores = ad.scale(ad.matmul(q, k_t), 1.0 / math.sqrt(dh))
    heads = ad.matmul(ad.softmax(scores, axis=-1), v)  # (B*H, T, dh)
    merged = ad.transpose(ad.reshape(heads, (batch, cfg.heads, tokens, dh)), (0, 2, 1, 3))
    return project(ad.reshape(merged, (batch * tokens, cfg.dim)), "o")


def _tape_feed_forward(h, params, block: str):
    hidden = ad.gelu(ad.matmul(h, params[f"{block}.ffn.w1"]) + params[f"{block}.ffn.b1"])
    return ad.matmul(hidden, params[f"{block}.ffn.w2"]) + params[f"{block}.ffn.b2"]


def tape_encoder_forward(patches: np.ndarray, params, cfg) -> list:
    """Per-block (B, D) pooled features of a (B, Z, P) batch, built op by op
    on the tape (the patch matrix included)."""
    mat = np.asarray(patches)
    batch, z, pd = mat.shape
    t, d = z + 1, cfg.dim
    x = ad.matmul(Tensor(mat.reshape(batch * z, pd)), params["patch_embed.weight"]) \
        + params["patch_embed.bias"]
    cls_rows = ad.reshape(params["cls_token"], (1, 1, d)) + np.zeros((batch, 1, d))
    tokens = ad.concat([cls_rows, ad.reshape(x, (batch, z, d))], axis=1)
    tokens = ad.reshape(tokens + ad.slice_axis(params["pos_table"], 0, 0, t), (batch * t, d))

    feats = []
    for i in range(cfg.blocks):
        block = f"block{i}"
        attended = tokens + _tape_attention(_tape_affine_norm(tokens, params, f"{block}.ln1"),
                                            params, block, cfg, batch)
        tokens = attended + _tape_feed_forward(_tape_affine_norm(attended, params, f"{block}.ln2"),
                                               params, block)
        tapped = _tape_affine_norm(tokens, params, f"{block}.feature_norm")
        pooled = ad.mean(ad.reshape(tapped, (batch, t, d)), axis=1)
        feats.append(pooled)
    return feats


def tape_embed(patches: np.ndarray, params, cfg):
    """``encoder.embed`` built on ``tape_encoder_forward``."""
    feats = tape_encoder_forward(patches, params, cfg)
    if not cfg.use_fusion:
        return feats[-1]
    stack = ad.concat([ad.reshape(f, f.shape[:-1] + (1, cfg.dim)) for f in feats], axis=-2)
    return enc.fuse(stack, params)[0]
