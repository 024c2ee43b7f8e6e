"""Multi-level embedding extractor.

A patch sequence is linearly embedded, a class token is prepended, learned
positions are added, and the tokens run through pre-norm transformer blocks
(attention + feed-forward, both with residual paths). Every block's output
is tapped: each tap is layer-normed, affine-scaled, and mean-pooled over
token positions into one feature vector per block. A small MLP + softmax
turns the concatenated block features into convex fusion weights, and the
final embedding is the weighted sum of the block features.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import weights_io
from .autodiff import Tensor
from .errors import ConfigError, DimensionError, WeightsFormatError, WeightsShapeError

PARAM_INIT_POS_STD = 0.02
LN_EPS = 1e-5


@dataclass(frozen=True)
class EncoderConfig:
    """Extractor geometry. z_max and patch_dim follow from the frontend and
    patch settings (``ExperimentConfig.encoder_config``); the rest are the
    ``encoder.*`` config keys."""

    blocks: int = 2
    dim: int = 32
    heads: int = 4
    mlp_hidden: int = 64
    fusion_hidden: int = 32
    z_max: int = 32
    patch_dim: int = 256
    use_fusion: bool = True

    def problems(self) -> list[tuple[str, str]]:
        """Every range violation as a (field, why) pair."""
        bad = [(name, "must be >= 1")
               for name in ("blocks", "dim", "heads", "mlp_hidden", "fusion_hidden", "z_max", "patch_dim")
               if getattr(self, name) < 1]
        if self.heads < 1 or self.dim % self.heads:
            bad.append(("dim", f"must be divisible by encoder.heads ({self.heads})"))
        return bad

    def validate(self) -> None:
        bad = self.problems()
        if bad:
            raise ConfigError("invalid encoder config:\n  "
                              + "\n  ".join(f"encoder.{name}: {why}" for name, why in bad))


# One name -> array map in param_shapes order: the container order, the
# order training hands the arrays to the optimizer, and the census order.
MeeParams = dict[str, np.ndarray]


def param_shapes(cfg: EncoderConfig) -> list[tuple[str, tuple[int, ...]]]:
    """Canonical (name, shape) list; the single source for init, container
    validation, and parameter counting."""
    d, h = cfg.dim, cfg.mlp_hidden
    shapes: list[tuple[str, tuple[int, ...]]] = [
        ("patch_embed.weight", (cfg.patch_dim, d)),
        ("patch_embed.bias", (d,)),
        ("cls_token", (d,)),
        ("pos_table", (cfg.z_max + 1, d)),
    ]
    for i in range(cfg.blocks):
        prefix = f"block{i}"
        shapes += [
            (f"{prefix}.ln1.gain", (d,)),
            (f"{prefix}.ln1.bias", (d,)),
            (f"{prefix}.attn.wq", (d, d)),
            (f"{prefix}.attn.bq", (d,)),
            (f"{prefix}.attn.wk", (d, d)),
            (f"{prefix}.attn.bk", (d,)),
            (f"{prefix}.attn.wv", (d, d)),
            (f"{prefix}.attn.bv", (d,)),
            (f"{prefix}.attn.wo", (d, d)),
            (f"{prefix}.attn.bo", (d,)),
            (f"{prefix}.ln2.gain", (d,)),
            (f"{prefix}.ln2.bias", (d,)),
            (f"{prefix}.ffn.w1", (d, h)),
            (f"{prefix}.ffn.b1", (h,)),
            (f"{prefix}.ffn.w2", (h, d)),
            (f"{prefix}.ffn.b2", (d,)),
            (f"{prefix}.feature_norm.gain", (d,)),
            (f"{prefix}.feature_norm.bias", (d,)),
        ]
    if cfg.use_fusion:
        shapes += [
            ("fusion.w1", (cfg.blocks * d, cfg.fusion_hidden)),
            ("fusion.b1", (cfg.fusion_hidden,)),
            ("fusion.w2", (cfg.fusion_hidden, cfg.blocks)),
            ("fusion.b2", (cfg.blocks,)),
        ]
    return shapes


def _init_array(name: str, shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    if name.endswith(".gain"):
        return np.ones(shape)
    if name.endswith((".bias", ".b1", ".b2", ".bq", ".bk", ".bv", ".bo")):
        return np.zeros(shape)
    if name in ("cls_token", "pos_table"):
        return rng.normal(0.0, PARAM_INIT_POS_STD, shape)
    return rng.normal(0.0, 1.0 / math.sqrt(shape[0]), shape)


def init_mee_params(cfg: EncoderConfig, seed: int) -> MeeParams:
    cfg.validate()
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, 0xC0DE))))
    return {name: _init_array(name, shape, rng) for name, shape in param_shapes(cfg)}


# ---------------------------------------------------------------------------
# forward passes
#
# The patch embedding and the blocks run on plain arrays, one function per
# layer, as one tape node whose backward is the matching hand-written
# functions. They evaluate the expressions of the tape ops they replace and
# sum three gradient contributions in the tape's order, so the gradients
# equal the op-by-op tape's bit for bit (tests/helpers.py keeps that tape).


def _affine_norm(x: np.ndarray, p: dict, prefix: str):
    n, inv = ad.layer_norm_forward(x, -1, LN_EPS)
    out = n * p[f"{prefix}.gain"]
    out += p[f"{prefix}.bias"]
    return out, (n, inv)


def _affine_norm_backward(g: np.ndarray, cache, p: dict, prefix: str, grads: dict) -> np.ndarray:
    n, inv = cache
    grads[f"{prefix}.gain"] = ad.sum_axis(g * n, 0)
    grads[f"{prefix}.bias"] = ad.sum_axis(g, 0)
    return ad.layer_norm_backward(g * p[f"{prefix}.gain"], n, inv, -1)


def _linear(x: np.ndarray, p: dict, w: str, b: str) -> np.ndarray:
    out = x @ p[w]
    out += p[b]
    return out


def _linear_backward(g: np.ndarray, x: np.ndarray, p: dict, w: str, b: str, grads: dict) -> np.ndarray:
    """Gradients of ``x @ p[w] + p[b]``; returns the input's."""
    grads[w] = x.T @ g
    grads[b] = ad.sum_axis(g, 0)
    return g @ p[w].T


def _attention(h: np.ndarray, p: dict, block: str, cfg: EncoderConfig, batch: int):
    """Multi-head self-attention over ``batch`` clips of T tokens each.

    ``h`` is (B*T, D). Heads are split by reshape and transpose so every
    head of every clip runs in one batched product over (B*H, T, dh).
    """
    tokens = h.shape[0] // batch
    dh = cfg.dim // cfg.heads

    def split_heads(name: str, axes) -> np.ndarray:
        x = _linear(h, p, f"{block}.attn.w{name}", f"{block}.attn.b{name}")
        x = x.reshape(batch, tokens, cfg.heads, dh).transpose(axes)
        return x.reshape((batch * cfg.heads,) + x.shape[2:])

    q = split_heads("q", (0, 2, 1, 3))  # (B*H, T, dh)
    k_t = split_heads("k", (0, 2, 3, 1))  # (B*H, dh, T)
    v = split_heads("v", (0, 2, 1, 3))
    scores = q @ k_t
    scores *= 1.0 / math.sqrt(dh)
    probs = ad.softmax_forward(scores, 2)
    heads = probs @ v  # (B*H, T, dh)
    merged = heads.reshape(batch, cfg.heads, tokens, dh).transpose(0, 2, 1, 3)
    merged = merged.reshape(batch * tokens, cfg.dim)
    out = _linear(merged, p, f"{block}.attn.wo", f"{block}.attn.bo")
    return out, (h, q, k_t, v, probs, merged)


def _attention_backward(g: np.ndarray, cache, p: dict, block: str, cfg: EncoderConfig,
                        batch: int, grads: dict) -> np.ndarray:
    h, q, k_t, v, probs, merged = cache
    tokens = h.shape[0] // batch
    dh = cfg.dim // cfg.heads
    attn = f"{block}.attn"

    def merge_heads(g_split: np.ndarray, axes) -> np.ndarray:
        g_split = g_split.reshape((batch, cfg.heads) + g_split.shape[1:]).transpose(axes)
        return g_split.reshape(batch * tokens, cfg.dim)

    g = _linear_backward(g, merged, p, f"{attn}.wo", f"{attn}.bo", grads)
    g_heads = g.reshape(batch, tokens, cfg.heads, dh).transpose(0, 2, 1, 3)
    g_heads = g_heads.reshape(batch * cfg.heads, tokens, dh)
    g_probs = g_heads @ v.transpose(0, 2, 1)
    g_v = probs.transpose(0, 2, 1) @ g_heads
    g_scores = ad.softmax_backward(g_probs, probs, 2)
    g_scores *= 1.0 / math.sqrt(dh)
    g_q = g_scores @ k_t.transpose(0, 2, 1)
    g_k_t = q.transpose(0, 2, 1) @ g_scores
    # the tape's order: (q + k) + v
    g_h = _linear_backward(merge_heads(g_q, (0, 2, 1, 3)), h, p, f"{attn}.wq", f"{attn}.bq", grads)
    g_h += _linear_backward(merge_heads(g_k_t, (0, 3, 1, 2)), h, p, f"{attn}.wk", f"{attn}.bk", grads)
    g_h += _linear_backward(merge_heads(g_v, (0, 2, 1, 3)), h, p, f"{attn}.wv", f"{attn}.bv", grads)
    return g_h


def _feed_forward(h: np.ndarray, p: dict, block: str):
    pre = _linear(h, p, f"{block}.ffn.w1", f"{block}.ffn.b1")
    hidden, t = ad.gelu_forward(pre)
    return _linear(hidden, p, f"{block}.ffn.w2", f"{block}.ffn.b2"), (h, pre, t, hidden)


def _feed_forward_backward(g: np.ndarray, cache, p: dict, block: str, grads: dict) -> np.ndarray:
    h, pre, t, hidden = cache
    g = _linear_backward(g, hidden, p, f"{block}.ffn.w2", f"{block}.ffn.b2", grads)
    g = ad.gelu_backward(g, pre, t)
    return _linear_backward(g, h, p, f"{block}.ffn.w1", f"{block}.ffn.b1", grads)


def _block(x: np.ndarray, p: dict, block: str, cfg: EncoderConfig, batch: int, tap: bool, caches):
    """One pre-norm block on (B*T, D) tokens: its output tokens and, if
    ``tap``, its pooled (B, D) feature (else None). Appends the layer
    caches its backward reads to ``caches`` unless that is None; then each
    is freed as the next layer runs, so a forward-only pass holds one
    layer's intermediates at a time."""

    def layer(fn, *args):
        out, cache = fn(*args)
        if caches is not None:
            caches.append(cache)
        return out

    attended = layer(_attention, layer(_affine_norm, x, p, f"{block}.ln1"), p, block, cfg, batch)
    attended += x
    y = layer(_feed_forward, layer(_affine_norm, attended, p, f"{block}.ln2"), p, block)
    y += attended
    if not tap:
        return y, None
    tapped = layer(_affine_norm, y, p, f"{block}.feature_norm")
    return y, tapped.reshape(batch, -1, cfg.dim).mean(axis=1)


def _block_backward(g_pooled, g_next, caches, p: dict, block: str,
                    cfg: EncoderConfig, batch: int, grads: dict):
    """Gradient of the block input as (residual path, ln1 path), from the
    gradient of the pooled feature (None for an untapped block) and the
    next block's input gradient in that form (None for the last block)."""
    ln1, attn, ln2, ffn = caches[:4]
    if g_pooled is None:  # the tape's order: residual + ln1
        g_y = g_next[0] + g_next[1]
    else:
        tokens = ln1[0].shape[0] // batch
        g = np.broadcast_to(np.expand_dims(g_pooled, 1) / tokens, (batch, tokens, cfg.dim)).copy()
        g_y = _affine_norm_backward(g.reshape(-1, cfg.dim), caches[4], p, f"{block}.feature_norm", grads)
        if g_next is not None:  # the tape's order: (tap + residual) + ln1
            g_y += g_next[0]
            g_y += g_next[1]
    g_h2 = _feed_forward_backward(g_y, ffn, p, block, grads)
    g_attended = _affine_norm_backward(g_h2, ln2, p, f"{block}.ln2", grads)
    g_attended += g_y
    g_h1 = _attention_backward(g_attended, attn, p, block, cfg, batch, grads)
    return g_attended, _affine_norm_backward(g_h1, ln1, p, f"{block}.ln1", grads)


def encoder_forward(patches: np.ndarray, params, cfg: EncoderConfig) -> Tensor:
    """Run the block stack on a (B, Z, P) batch of equally long clips;
    return the (B, L, D) pooled features of every block, or the (B, 1, D)
    features of the last block when fusion is off.

    Affine maps run as one 2-D product over all B*T tokens. The stack is
    one tape node whose parents are the extractor parameters it read: all
    but ``fusion.*`` and the feature norms of untapped blocks. An array in
    ``params`` is a constant, so the node is recorded only when one of
    these is a tensor that requires a gradient.
    """
    mat = np.asarray(patches)
    if mat.ndim != 3:
        raise DimensionError(f"expected a (B, Z, P) batch, got shape {mat.shape}")
    batch, z, pd = mat.shape
    if z > cfg.z_max:
        raise DimensionError(f"{z} patches exceed positional table length {cfg.z_max}")
    if pd != cfg.patch_dim:
        raise DimensionError(f"patch dim {pd} != configured {cfg.patch_dim}")
    t, d = z + 1, cfg.dim
    tensors = {name: ad._as_tensor(v) for name, v in params.items()}
    p = {name: tensor.values for name, tensor in tensors.items()}
    flat = mat.reshape(batch * z, pd)
    x = _linear(flat, p, "patch_embed.weight", "patch_embed.bias")
    # one class token per clip: broadcast it over the batch by adding zeros
    cls_rows = p["cls_token"].reshape(1, 1, d) + np.zeros((batch, 1, d))
    x = np.concatenate([cls_rows, x.reshape(batch, z, d)], axis=1) + p["pos_table"][:t]
    x = x.reshape(batch * t, d)

    first_tap = 0 if cfg.use_fusion else cfg.blocks - 1
    skipped = ("fusion.",) + tuple(f"block{i}.feature_norm." for i in range(first_tap))
    names = [name for name in params if not name.startswith(skipped)]
    # the layer caches serve only the backward of a node that will be recorded
    recorded = any(tensors[name].requires_grad for name in names)
    caches = [[] if recorded else None for _ in range(cfg.blocks)]  # one list per block
    feats = []
    for i in range(cfg.blocks):
        x, pooled = _block(x, p, f"block{i}", cfg, batch, i >= first_tap, caches[i])
        feats.append(pooled)
    stack = np.stack(feats[first_tap:], axis=1)  # (B, L or 1, D)

    def backward(g_stack):
        grads: dict[str, np.ndarray] = {}
        g_x = None
        for i in reversed(range(cfg.blocks)):
            # the stack holds blocks first_tap..L-1, so block i is column i - L
            g_pooled = g_stack[:, i - cfg.blocks] if i >= first_tap else None
            g_x = _block_backward(g_pooled, g_x, caches[i], p, f"block{i}", cfg, batch, grads)
        g = (g_x[0] + g_x[1]).reshape(batch, t, d)
        grads["pos_table"] = np.zeros(p["pos_table"].shape)
        grads["pos_table"][:t] = ad.sum_axis(g, 0)
        grads["cls_token"] = g[:, 0].sum(axis=0)
        g = g[:, 1:].reshape(batch * z, d)
        grads["patch_embed.weight"] = flat.T @ g
        grads["patch_embed.bias"] = ad.sum_axis(g, 0)
        return tuple(grads[name] for name in names)

    return ad.record(stack, [tensors[n] for n in names], backward)


def fuse(stack: Tensor, params) -> tuple[Tensor, Tensor]:
    """Convex combination of block features, weighted by an MLP + softmax
    over the concatenated features of encoder_forward's (B, L, D) stack:
    the (B, D) embedding and its (B, L) weights."""
    batch, n_blocks, dim = stack.shape
    eprime = ad.reshape(stack, (batch, n_blocks * dim))
    hidden = ad.relu(ad.matmul(eprime, params["fusion.w1"]) + params["fusion.b1"])
    logits = ad.matmul(hidden, params["fusion.w2"]) + params["fusion.b2"]
    weights = ad.softmax(logits, axis=1)  # (B, L)
    e = ad.matmul(ad.reshape(weights, (batch, 1, n_blocks)), stack)  # (B, 1, D)
    return ad.reshape(e, (batch, dim)), weights


def embed(patches: np.ndarray, params, cfg: EncoderConfig) -> Tensor:
    """The extractor's (B, D) embedding of a (B, Z, P) batch: fused block
    features, or the last block's features when fusion is off."""
    stack = encoder_forward(patches, params, cfg)
    if cfg.use_fusion:
        return fuse(stack, params)[0]
    return ad.reshape(stack, (stack.shape[0], cfg.dim))


def extract_embedding(patches, params: MeeParams, cfg: EncoderConfig) -> np.ndarray:
    """The (B, D) embedding of a (B, Z, P) batch of patch matrices, as an array."""
    return embed(patches, params, cfg).values.copy()


# ---------------------------------------------------------------------------
# serialization


def save_params(path, params: MeeParams, dtype: str = "f32") -> None:
    weights_io.save_container(path, list(params.items()), dtype=dtype)


def load_params(path, cfg: EncoderConfig) -> MeeParams:
    """Read a weight container and validate it against the config.

    Missing, unexpected, and wrongly-shaped tensors are all reported in one
    error so a mismatched config is diagnosable in a single pass. The map
    is built in param_shapes order, whatever order the container lists its
    tensors in. A tensor holding NaN or inf is refused by name. The
    arrays are read-only: a loaded extractor is frozen.
    """
    tensors, _ = weights_io.load_container(path)
    expected = dict(param_shapes(cfg))
    missing = [n for n in expected if n not in tensors]
    unexpected = [n for n in tensors if n not in expected]
    bad_shape = [
        f"{n} (container {tensors[n].shape}, config {expected[n]})"
        for n in expected
        if n in tensors and tensors[n].shape != expected[n]
    ]
    problems = []
    if missing:
        problems.append("missing: " + ", ".join(missing))
    if unexpected:
        problems.append("unexpected: " + ", ".join(unexpected))
    if bad_shape:
        problems.append("shape mismatch: " + "; ".join(bad_shape))
    if problems:
        raise WeightsShapeError("weight container does not fit config — " + " | ".join(problems))
    non_finite = [n for n in expected if not np.isfinite(tensors[n]).all()]
    if non_finite:
        raise WeightsFormatError("weight container holds non-finite values in: "
                                 + ", ".join(non_finite))
    for n in expected:
        tensors[n].flags.writeable = False
    return {n: tensors[n] for n in expected}


def params_checksum(params: MeeParams) -> str:
    """The extractor's digest at full f64 precision."""
    return weights_io.container_digest(list(params.items()), dtype="f64")


# ---------------------------------------------------------------------------
# complexity accounting


@dataclass(frozen=True)
class ComplexityReport:
    num_params: int  # extractor + classifier
    num_params_extractor: int
    num_params_classifier: int
    macs: int


def count_params_macs(cfg: EncoderConfig, num_classes: int) -> ComplexityReport:
    """Exact parameter census plus an analytic multiply-accumulate count
    for one clip forward pass at the configured patch budget.

    MACs cover the affine maps and matrix products: patch embedding, the
    q/k/v/output projections, attention score and value products, the
    feed-forward maps, the layer-norm affines (one MAC per element), the
    fusion MLP and weighted sum, and the classifier scores. Softmax, GELU,
    and pooling adds are not counted.
    """
    cfg.validate()
    if num_classes < 0:
        raise ConfigError(f"num_classes must be >= 0, got {num_classes}")
    n_extract = 0
    for _, shape in param_shapes(cfg):
        n_extract += int(np.prod(shape))
    n_classifier = cfg.dim * num_classes

    z = cfg.z_max
    t = z + 1
    d, h = cfg.dim, cfg.mlp_hidden
    per_block = (
        4 * t * d * d  # q, k, v, output projections
        + 2 * t * t * d  # attention scores + weighted values (all heads)
        + t * d * h + t * h * d  # feed-forward
        + 2 * t * d  # block layer-norm affines
        + t * d  # feature-norm affine
    )
    macs = z * cfg.patch_dim * d + cfg.blocks * per_block
    if cfg.use_fusion:
        macs += cfg.blocks * d * cfg.fusion_hidden + cfg.fusion_hidden * cfg.blocks + cfg.blocks * d
    macs += d * num_classes
    return ComplexityReport(
        num_params=n_extract + n_classifier,
        num_params_extractor=n_extract,
        num_params_classifier=n_classifier,
        macs=macs,
    )
