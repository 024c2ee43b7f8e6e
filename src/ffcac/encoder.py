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

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import weights_io
from .autodiff import Tensor
from .errors import ConfigError, DimensionError, WeightsShapeError

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


# One name -> tensor map in param_shapes order: the container order, the
# order training hands the tensors to the optimizer, and the census order.
MeeParams = dict[str, Tensor]


@dataclass
class EmbeddingOutput:
    """Embedding plus the fusion weights that produced it."""

    e: Tensor  # (D,)
    fusion_weights: Tensor | None = None  # (L,), convex


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


def _init_tensor(name: str, shape: tuple[int, ...], rng: np.random.Generator) -> Tensor:
    if name.endswith(".gain"):
        values = np.ones(shape)
    elif name.endswith((".bias", ".b1", ".b2", ".bq", ".bk", ".bv", ".bo")):
        values = np.zeros(shape)
    elif name in ("cls_token", "pos_table"):
        values = rng.normal(0.0, PARAM_INIT_POS_STD, shape)
    else:
        fan_in = shape[0]
        values = rng.normal(0.0, 1.0 / math.sqrt(fan_in), shape)
    return Tensor(values, requires_grad=True)


def init_mee_params(cfg: EncoderConfig, seed: int) -> MeeParams:
    cfg.validate()
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, 0xC0DE))))
    return {name: _init_tensor(name, shape, rng) for name, shape in param_shapes(cfg)}


# ---------------------------------------------------------------------------
# forward passes


def _affine_norm(x: Tensor, params: MeeParams, prefix: str) -> Tensor:
    return ad.layer_norm(x, axis=-1, eps=LN_EPS) * params[f"{prefix}.gain"] + params[f"{prefix}.bias"]


def _attention(h: Tensor, params: MeeParams, block: str, cfg: EncoderConfig, batch: int) -> Tensor:
    """Multi-head self-attention over ``batch`` clips of T tokens each.

    ``h`` is (B*T, D). Heads are split by reshape and transpose so every
    head of every clip runs in one batched product over (B*H, T, dh).
    """
    tokens = h.shape[0] // batch
    dh = cfg.dim // cfg.heads

    def project(x: Tensor, name: str) -> Tensor:
        return ad.matmul(x, params[f"{block}.attn.w{name}"]) + params[f"{block}.attn.b{name}"]

    def split_heads(x: Tensor, axes) -> Tensor:
        x = ad.transpose(ad.reshape(x, (batch, tokens, cfg.heads, dh)), axes)
        return ad.reshape(x, (batch * cfg.heads,) + x.shape[2:])

    q = split_heads(project(h, "q"), (0, 2, 1, 3))  # (B*H, T, dh)
    k_t = split_heads(project(h, "k"), (0, 2, 3, 1))  # (B*H, dh, T)
    v = split_heads(project(h, "v"), (0, 2, 1, 3))
    scores = ad.scale(ad.matmul(q, k_t), 1.0 / math.sqrt(dh))
    heads = ad.matmul(ad.softmax(scores, axis=-1), v)  # (B*H, T, dh)
    merged = ad.transpose(ad.reshape(heads, (batch, cfg.heads, tokens, dh)), (0, 2, 1, 3))
    return project(ad.reshape(merged, (batch * tokens, cfg.dim)), "o")


def _feed_forward(h: Tensor, params: MeeParams, block: str) -> Tensor:
    hidden = ad.gelu(ad.matmul(h, params[f"{block}.ffn.w1"]) + params[f"{block}.ffn.b1"])
    return ad.matmul(hidden, params[f"{block}.ffn.w2"]) + params[f"{block}.ffn.b2"]


def encoder_forward(patches: np.ndarray, params: MeeParams, cfg: EncoderConfig) -> list[Tensor]:
    """Run the block stack; return the per-block pooled feature vectors.

    ``patches`` is one clip's (Z, P) patch matrix, giving (D,) features, or
    a (B, Z, P) batch of equally long clips, giving (B, D) features. Affine
    maps run as one 2-D product over all B*T tokens.
    """
    mat = np.asarray(patches)
    single = mat.ndim == 2
    if single:
        mat = mat[None]
    if mat.ndim != 3:
        raise DimensionError(f"expected a (Z, P) clip or a (B, Z, P) batch, got shape {mat.shape}")
    batch, z, pd = mat.shape
    if z > cfg.z_max:
        raise DimensionError(f"{z} patches exceed positional table length {cfg.z_max}")
    if pd != cfg.patch_dim:
        raise DimensionError(f"patch dim {pd} != configured {cfg.patch_dim}")
    t, d = z + 1, cfg.dim
    x = ad.matmul(Tensor(mat.reshape(batch * z, pd)), params["patch_embed.weight"]) \
        + params["patch_embed.bias"]
    # one class token per clip: broadcast it over the batch by adding zeros
    cls_rows = ad.reshape(params["cls_token"], (1, 1, d)) + np.zeros((batch, 1, d))
    tokens = ad.concat([cls_rows, ad.reshape(x, (batch, z, d))], axis=1)
    tokens = ad.reshape(tokens + ad.slice_axis(params["pos_table"], 0, 0, t), (batch * t, d))

    feats = []
    for i in range(cfg.blocks):
        block = f"block{i}"
        attended = tokens + _attention(_affine_norm(tokens, params, f"{block}.ln1"),
                                       params, block, cfg, batch)
        tokens = attended + _feed_forward(_affine_norm(attended, params, f"{block}.ln2"), params, block)
        tapped = _affine_norm(tokens, params, f"{block}.feature_norm")
        pooled = ad.mean(ad.reshape(tapped, (batch, t, d)), axis=1)
        feats.append(ad.reshape(pooled, (d,)) if single else pooled)
    return feats


def fuse(block_features: list[Tensor], params: MeeParams) -> EmbeddingOutput:
    """Convex combination of block features, weighted by an MLP + softmax
    over the concatenated features.

    Features are (D,) for one clip or (B, D) for a batch; the outputs keep
    the same leading batch axis, or none.
    """
    lead = block_features[0].shape[:-1]  # () for one clip, (B,) for a batch
    batch = lead[0] if lead else 1
    n_blocks, dim = len(block_features), block_features[0].shape[-1]
    stack = ad.concat([ad.reshape(f, (batch, 1, dim)) for f in block_features], axis=1)
    eprime = ad.reshape(stack, (batch, n_blocks * dim))
    hidden = ad.relu(ad.matmul(eprime, params["fusion.w1"]) + params["fusion.b1"])
    logits = ad.matmul(hidden, params["fusion.w2"]) + params["fusion.b2"]
    weights = ad.softmax(logits, axis=1)  # (B, L)
    e = ad.matmul(ad.reshape(weights, (batch, 1, n_blocks)), stack)  # (B, 1, D)
    return EmbeddingOutput(
        e=ad.reshape(e, lead + (dim,)),
        fusion_weights=ad.reshape(weights, lead + (n_blocks,)),
    )


def embed(patches: np.ndarray, params: MeeParams, cfg: EncoderConfig) -> Tensor:
    """The extractor's embedding: fused block features, or the last block's
    features when fusion is off. (D,) for one clip, (B, D) for a batch."""
    feats = encoder_forward(patches, params, cfg)
    return fuse(feats, params).e if cfg.use_fusion else feats[-1]


def extract_embedding(patches, params: MeeParams, cfg: EncoderConfig) -> np.ndarray:
    """Forward-only embedding of a pre-split (Z, P) patch matrix, giving
    (D,), or of a (B, Z, P) batch, giving (B, D)."""
    with ad.no_grad():
        return embed(patches, params, cfg).values.copy()


# ---------------------------------------------------------------------------
# serialization


def serialize_params(params: MeeParams, dtype: str = "f32") -> bytes:
    return weights_io.serialize_container(
        [(name, t.values) for name, t in params.items()], dtype=dtype
    )


def save_params(path, params: MeeParams, dtype: str = "f32") -> None:
    Path(path).write_bytes(serialize_params(params, dtype))


def load_params(path, cfg: EncoderConfig) -> MeeParams:
    """Read a weight container and validate it against the config.

    Missing, unexpected, and wrongly-shaped tensors are all reported in one
    error so a mismatched config is diagnosable in a single pass. The map
    is built in param_shapes order, whatever order the container lists its
    tensors in.
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
    return {n: Tensor(tensors[n], requires_grad=True) for n in expected}


def params_checksum(params: MeeParams, dtype: str = "f32") -> str:
    return hashlib.sha256(serialize_params(params, dtype)).hexdigest()


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
