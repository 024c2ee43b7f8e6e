import dataclasses
import hashlib
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffcac import autodiff as ad
from ffcac import classifiers as cls
from ffcac import encoder as enc
from ffcac import sessions
from ffcac import weights_io as wio
from ffcac.autodiff import Tensor
from ffcac.config import ExperimentConfig, ast_base_config
from ffcac.errors import DimensionError, WeightsFormatError, WeightsShapeError

from tests.helpers import grad_check, leaves, tape_embed

TINY = enc.EncoderConfig(blocks=2, dim=8, heads=2, mlp_hidden=12, fusion_hidden=8,
                         z_max=6, patch_dim=10)


def _zero_mixing_params(cfg: enc.EncoderConfig, seed: int = 0) -> enc.MeeParams:
    """Random embedding/positions, but all attention and feed-forward
    weights and biases zeroed: every block is an exact identity."""
    params = enc.init_mee_params(cfg, seed)
    for name, a in params.items():
        if ".attn." in name or ".ffn." in name:
            a[...] = 0.0
    return params


def _np_layer_norm(x, eps=1e-5):
    mu = x.mean(axis=1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps)


def test_identity_blocks_pool_layer_normed_embedded_tokens():
    cfg = enc.EncoderConfig(blocks=1, dim=8, heads=2, mlp_hidden=12, fusion_hidden=8,
                            z_max=6, patch_dim=10)
    params = _zero_mixing_params(cfg, seed=3)
    rng = np.random.default_rng(5)
    patches = rng.normal(size=(4, 10))
    stack = enc.encoder_forward(patches[None], params, cfg)

    # independent trace of the residual path
    embedded = patches @ params["patch_embed.weight"] + params["patch_embed.bias"]
    tokens = np.vstack([params["cls_token"], embedded]) + params["pos_table"][:5]
    expected = _np_layer_norm(tokens).mean(axis=0)
    assert stack.shape == (1, 1, cfg.dim)
    assert np.allclose(stack.values[0][0], expected, atol=1e-12)


def test_patch_permutation_invariance_without_positions():
    params = enc.init_mee_params(TINY, seed=1)
    params["pos_table"][...] = 0.0
    rng = np.random.default_rng(7)
    patches = rng.normal(size=(5, 10))
    base = enc.encoder_forward(patches[None], params, TINY).values
    perm = enc.encoder_forward(patches[::-1].copy()[None], params, TINY).values
    assert np.allclose(base, perm, atol=1e-12)


def test_forward_deterministic():
    params = enc.init_mee_params(TINY, seed=2)
    rng = np.random.default_rng(9)
    patches = rng.normal(size=(6, 10))
    one = enc.extract_embedding(patches[None], params, TINY)
    two = enc.extract_embedding(patches[None], params, TINY)
    assert np.array_equal(one, two)


def test_batched_forward_equals_per_clip_calls():
    params = enc.init_mee_params(TINY, seed=12)
    rng = np.random.default_rng(29)
    batch = rng.normal(size=(4, 6, 10))
    stack = enc.encoder_forward(batch, params, TINY)
    embedded = enc.extract_embedding(batch, params, TINY)
    assert stack.shape == (4, TINY.blocks, TINY.dim)
    assert embedded.shape == (4, TINY.dim)
    for i, clip in enumerate(batch):
        one = enc.encoder_forward(clip[None], params, TINY).values[0]
        assert np.max(np.abs(stack.values[i] - one)) <= 1e-12
        assert np.max(np.abs(embedded[i] - enc.extract_embedding(clip[None], params, TINY)[0])) <= 1e-12


def test_batched_fuse_keeps_the_batch_axis():
    params = enc.init_mee_params(TINY, seed=13)
    rng = np.random.default_rng(31)
    stack = Tensor(rng.normal(size=(3, TINY.blocks, TINY.dim)))
    out = enc.fuse(stack, params)
    assert out[0].shape == (3, TINY.dim)
    assert out[1].shape == (3, TINY.blocks)
    for i in range(3):
        one = enc.fuse(Tensor(stack.values[i][None]), params)
        assert np.max(np.abs(out[0].values[i] - one[0].values[0])) <= 1e-12


def _desk_episode() -> tuple[enc.EncoderConfig, np.ndarray]:
    """The extractor geometry and (B, Z, P) base-episode patches of
    configs/desk.cfg (the defaults, run seed 100)."""
    cfg = ExperimentConfig()
    plan, pipeline = sessions.build_plan(cfg), sessions.ClipPipeline(cfg)
    episode = sessions.sample_episode(plan, 0, 100)
    return cfg.encoder_config(), np.stack([pipeline.patches(ref) for ref in episode.pairs])


def _loss_gradients(embed, patches, params, cfg):
    """Embedding values and the gradient of every extractor, fusion and
    head tensor (zeros where backward leaves none) under the cosine loss."""
    e = embed(patches, params, cfg)
    rows = ad.reshape(e, (-1, cfg.dim))
    head = Tensor(cls.init_cosine_head(3, cfg.dim, seed=5), requires_grad=True)
    tensors = list(params.values()) + [head]
    for t in tensors:
        t.grad = None
    ad.backward(cls.cosine_loss(rows, np.arange(rows.shape[0]) % 3, head, 16.0))
    return e.values, [np.zeros_like(t.values) if t.grad is None else t.grad for t in tensors]


def test_backward_releases_the_record():
    params = leaves(enc.init_mee_params(TINY, seed=18))
    patches = np.random.default_rng(38).normal(size=(4, 6, TINY.patch_dim))
    head = Tensor(cls.init_cosine_head(2, TINY.dim, seed=5), requires_grad=True)
    loss = cls.cosine_loss(enc.embed(patches, params, TINY), np.arange(4) % 2, head, 16.0)
    record, stack = {}, [loss]
    while stack:
        node = stack.pop()
        if id(node) not in record:
            record[id(node)] = node
            stack.extend(node._parents)
    swept = [node for node in record.values() if node._parents]
    assert len(swept) > 10  # the extractor node, the fusion MLP and the loss
    ad.backward(loss)
    assert all(node._parents == () and node._backward is None for node in swept)
    assert all(t.grad is not None for t in params.values())


@pytest.mark.parametrize("fusion", [True, False])
@pytest.mark.parametrize("geometry", ["tiny", "desk"])
@pytest.mark.parametrize("batched", [True, False])
def test_layer_backward_matches_the_tape_bit_for_bit(geometry, fusion, batched):
    if geometry == "desk":
        cfg, patches = _desk_episode()
    else:
        cfg, patches = TINY, np.random.default_rng(37).normal(size=(5, 6, TINY.patch_dim))
    cfg = dataclasses.replace(cfg, use_fusion=fusion)
    if not batched:  # a batch of one
        patches = patches[2:3]
    params = leaves(enc.init_mee_params(cfg, seed=17))
    tape_e, tape_grads = _loss_gradients(tape_embed, patches, params, cfg)
    e, grads = _loss_gradients(enc.embed, patches, params, cfg)
    assert np.array_equal(e, tape_e)
    assert np.array_equal(enc.extract_embedding(patches, params, cfg), e)
    names = list(params) + ["head"]
    unequal = [n for n, g, tg in zip(names, grads, tape_grads) if not np.array_equal(g, tg)]
    assert unequal == []


@pytest.mark.parametrize("transposed", [False, True])
def test_linear_and_norm_gradients_match_the_textbook_sums(transposed):
    """The bias and gain gradients are ones-vector products over the token
    rows; they match numpy's sums over the same rows."""
    rng = np.random.default_rng(41)
    x, g = (rng.normal(size=(825, 32)) for _ in range(2))
    if transposed:  # non-contiguous rows
        x, g = (np.ascontiguousarray(a.T).T for a in (x, g))
    p = {"w": rng.normal(size=(32, 16)), "n.gain": rng.normal(size=32)}
    grads = {}
    g_out = g[:, :16]
    enc._linear_backward(g_out, x, p, "w", "b", grads)
    np.testing.assert_allclose(grads["b"], g_out.sum(axis=0), rtol=1e-12)
    n, inv = ad.layer_norm_forward(x, -1, enc.LN_EPS)
    enc._affine_norm_backward(g, (n, inv), p, "n", grads)
    np.testing.assert_allclose(grads["n.gain"], (g * n).sum(axis=0), rtol=1e-12)
    np.testing.assert_allclose(grads["n.bias"], g.sum(axis=0), rtol=1e-12)


def test_fusion_off_leaves_the_untapped_feature_norms_without_a_gradient():
    cfg, patches = _desk_episode()
    cfg = dataclasses.replace(cfg, use_fusion=False)
    params = leaves(enc.init_mee_params(cfg, seed=17))
    _loss_gradients(enc.embed, patches, params, cfg)
    last = f"block{cfg.blocks - 1}.feature_norm"
    assert params[f"{last}.gain"].grad is not None and params[f"{last}.bias"].grad is not None
    untapped = [f"block{i}.feature_norm.{part}" for i in range(cfg.blocks - 1) for part in ("gain", "bias")]
    assert untapped and all(params[name].grad is None for name in untapped)


def test_a_single_clip_matrix_is_not_a_batch():
    params = enc.init_mee_params(TINY, seed=2)
    with pytest.raises(DimensionError, match=r"\(B, Z, P\) batch, got shape \(3, 10\)"):
        enc.encoder_forward(np.zeros((3, 10)), params, TINY)


def test_too_many_patches_rejected():
    params = enc.init_mee_params(TINY, seed=2)
    with pytest.raises(DimensionError, match="positional"):
        enc.encoder_forward(np.zeros((1, 7, 10)), params, TINY)
    with pytest.raises(DimensionError, match="patch dim"):
        enc.encoder_forward(np.zeros((1, 3, 11)), params, TINY)
    with pytest.raises(DimensionError, match="batch"):
        enc.encoder_forward(np.zeros((1, 2, 3, 10)), params, TINY)


def test_init_matches_declared_shapes():
    params = enc.init_mee_params(TINY, seed=0)
    declared = dict(enc.param_shapes(TINY))
    actual = {name: a.shape for name, a in params.items()}
    assert actual == declared


# ---------------------------------------------------------------------------
# fusion


def _constant_logit_params(cfg, logits):
    """Fusion MLP that ignores its input: weights zero, output bias = logits."""
    params = enc.init_mee_params(cfg, seed=0)
    params["fusion.w1"][...] = 0.0
    params["fusion.b1"][...] = 0.0
    params["fusion.w2"][...] = 0.0
    params["fusion.b2"][...] = np.asarray(logits)
    return params


def test_fuse_hand_case():
    cfg = enc.EncoderConfig(blocks=2, dim=2, heads=1, mlp_hidden=4, fusion_hidden=4,
                            z_max=4, patch_dim=4)
    params = _constant_logit_params(cfg, [np.log(3.0), 0.0])
    out = enc.fuse(Tensor([[[1.0, 0.0], [0.0, 1.0]]]), params)
    assert np.allclose(out[1].values[0], [0.75, 0.25], atol=1e-12)
    assert np.allclose(out[0].values[0], [0.75, 0.25], atol=1e-12)


def test_fuse_uniform_logits_takes_mean():
    cfg = enc.EncoderConfig(blocks=3, dim=4, heads=1, mlp_hidden=4, fusion_hidden=4,
                            z_max=4, patch_dim=4)
    params = _constant_logit_params(cfg, [0.7, 0.7, 0.7])
    rng = np.random.default_rng(11)
    stack = Tensor(rng.normal(size=(1, 3, 4)))
    out = enc.fuse(stack, params)
    assert np.allclose(out[0].values[0], stack.values[0].mean(axis=0))


def test_fuse_single_block_ignores_mlp():
    cfg = enc.EncoderConfig(blocks=1, dim=4, heads=1, mlp_hidden=4, fusion_hidden=4,
                            z_max=4, patch_dim=4)
    params = enc.init_mee_params(cfg, seed=4)  # arbitrary MLP weights
    feat = np.array([1.0, -2.0, 3.0, 0.5])
    out = enc.fuse(Tensor(feat[None, None]), params)
    assert np.allclose(out[1].values[0], [1.0])
    assert np.allclose(out[0].values[0], feat)


def test_fusion_logit_shift_invariance():
    cfg = enc.EncoderConfig(blocks=2, dim=4, heads=1, mlp_hidden=4, fusion_hidden=4,
                            z_max=4, patch_dim=4)
    rng = np.random.default_rng(13)
    params = enc.init_mee_params(cfg, seed=5)
    stack = Tensor(rng.normal(size=(1, 2, 4)))
    base = enc.fuse(stack, params)[0].values
    params["fusion.b2"] += 17.3  # uniform additive shift of all logits
    shifted = enc.fuse(stack, params)[0].values
    assert np.allclose(base, shifted, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_fusion_weights_convex_for_arbitrary_mlps(seed):
    cfg = enc.EncoderConfig(blocks=3, dim=5, heads=1, mlp_hidden=7, fusion_hidden=6,
                            z_max=4, patch_dim=4)
    rng = np.random.default_rng(seed)
    params = enc.init_mee_params(cfg, seed=int(rng.integers(0, 2**31)))
    for a in (params["fusion.w1"], params["fusion.b1"], params["fusion.w2"], params["fusion.b2"]):
        a[...] = rng.normal(scale=3.0, size=a.shape)
    stack = rng.normal(size=(3, 5))
    out = enc.fuse(Tensor(stack[None]), params)
    w = out[1].values[0]
    assert np.all(w >= 0.0)
    assert abs(w.sum() - 1.0) <= 1e-12
    assert np.all(out[0].values[0] >= stack.min(axis=0) - 1e-12)
    assert np.all(out[0].values[0] <= stack.max(axis=0) + 1e-12)


# ---------------------------------------------------------------------------
# serialization


def test_save_load_round_trip_f32_idempotent(tmp_path):
    params = enc.init_mee_params(TINY, seed=7)
    p1 = tmp_path / "a.weights"
    enc.save_params(p1, params)
    loaded = enc.load_params(p1, TINY)
    p2 = tmp_path / "b.weights"
    enc.save_params(p2, loaded)
    assert p1.read_bytes() == p2.read_bytes()
    # forward outputs identical at container precision
    rng = np.random.default_rng(19)
    patches = rng.normal(size=(4, 10))
    again = enc.load_params(p2, TINY)
    a = enc.extract_embedding(patches[None], loaded, TINY)
    b = enc.extract_embedding(patches[None], again, TINY)
    assert np.array_equal(a, b)


def test_loaded_extractor_is_frozen(tmp_path):
    path = tmp_path / "mee.weights"
    enc.save_params(path, enc.init_mee_params(TINY, seed=8))
    loaded = enc.load_params(path, TINY)
    assert list(loaded) == [name for name, _ in enc.param_shapes(TINY)]
    assert all(type(a) is np.ndarray and a.dtype == np.float64 for a in loaded.values())
    assert not any(a.flags.writeable for a in loaded.values())
    with pytest.raises(ValueError, match="read-only"):
        loaded["block0.ln1.gain"][0] = 2.0
    before = enc.params_checksum(loaded)
    patches = np.random.default_rng(20).normal(size=(2, 4, TINY.patch_dim))
    enc.extract_embedding(patches, loaded, TINY)
    assert enc.params_checksum(loaded) == before
    assert enc.embed(patches, loaded, TINY)._parents == ()


def test_save_load_f64_is_exact(tmp_path):
    params = enc.init_mee_params(TINY, seed=8)
    path = tmp_path / "full.weights"
    enc.save_params(path, params, dtype="f64")
    loaded = enc.load_params(path, TINY)
    for a, b in zip(params.values(), loaded.values()):
        assert np.array_equal(a, b)


def test_load_reorders_a_reversed_container_to_param_shapes_order(tmp_path):
    params = enc.init_mee_params(TINY, seed=12)
    canonical = wio.serialize_container(list(params.items()))
    path = tmp_path / "reversed.weights"
    path.write_bytes(wio.serialize_container(list(reversed(params.items()))))
    assert path.read_bytes() != canonical
    loaded = enc.load_params(path, TINY)
    assert list(loaded) == [name for name, _ in enc.param_shapes(TINY)]
    assert wio.serialize_container(list(loaded.items())) == canonical
    f32_rounded = {n: a.astype(np.float32).astype(np.float64) for n, a in params.items()}
    assert enc.params_checksum(loaded) == enc.params_checksum(f32_rounded)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_weights_rejected_by_name(tmp_path, bad):
    params = enc.init_mee_params(TINY, seed=9)
    params["block0.ln1.gain"][3] = bad
    path = tmp_path / "bad.weights"
    enc.save_params(path, params)
    with pytest.raises(WeightsFormatError, match=r"non-finite values in: block0\.ln1\.gain$"):
        enc.load_params(path, TINY)


def test_bad_magic_rejected(tmp_path):
    params = enc.init_mee_params(TINY, seed=9)
    path = tmp_path / "bad.weights"
    enc.save_params(path, params)
    data = bytearray(path.read_bytes())
    data[:5] = b"WRONG"
    path.write_bytes(bytes(data))
    with pytest.raises(WeightsFormatError, match="magic"):
        enc.load_params(path, TINY)


def test_truncated_container_rejected(tmp_path):
    params = enc.init_mee_params(TINY, seed=9)
    path = tmp_path / "cut.weights"
    enc.save_params(path, params)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(WeightsFormatError, match="truncated"):
        enc.load_params(path, TINY)


def test_overflowing_extents_rejected():
    # one f64 tensor of 2^32 x 2^32 elements: the element count overflows int64
    name = b"g"
    data = (wio.MAGIC + struct.pack("<I", 1) + struct.pack("<H", len(name)) + name
            + struct.pack("<B", 2) + struct.pack("<2Q", 2**32, 2**32) + struct.pack("<B", 1)
            + struct.pack("<I", 0))
    with pytest.raises(WeightsFormatError):
        wio.parse_container(data)


@pytest.mark.parametrize("dtype, tag, code", [("f32", 0, "<f4"), ("f64", 1, "<f8")])
def test_zero_size_and_0d_tensors_match_the_hand_built_layout(dtype, tag, code, tmp_path):
    empty, scalar = np.zeros((0, 3)), np.array(2.5)
    tensors = [("e", empty), ("s", scalar)]
    data = wio.serialize_container(tensors, labels=["k"], dtype=dtype)
    expected = (wio.MAGIC + struct.pack("<I", 2)
                + struct.pack("<H", 1) + b"e" + struct.pack("<B", 2) + struct.pack("<2Q", 0, 3)
                + struct.pack("<B", tag) + empty.astype(code).tobytes()
                # a 0-d value is stored as one element of rank 1
                + struct.pack("<H", 1) + b"s" + struct.pack("<B", 1) + struct.pack("<Q", 1)
                + struct.pack("<B", tag) + scalar.astype(code).tobytes()
                + struct.pack("<I", 1) + struct.pack("<H", 1) + b"k")
    assert data == expected
    # the writer and the digest see the same bytes, part by part
    wio.save_container(tmp_path / "c.weights", tensors, labels=["k"], dtype=dtype)
    assert (tmp_path / "c.weights").read_bytes() == expected
    digest = wio.container_digest(tensors, labels=["k"], dtype=dtype)
    assert digest == hashlib.sha256(expected).hexdigest()
    parsed, labels = wio.parse_container(data)
    assert parsed["e"].shape == (0, 3) and parsed["e"].dtype == np.float64
    assert parsed["s"].shape == (1,) and parsed["s"][0] == 2.5
    assert parsed["s"].flags.writeable and labels == ["k"]


def test_block_count_mismatch_lists_missing_names(tmp_path):
    params = enc.init_mee_params(TINY, seed=10)  # 2 blocks
    path = tmp_path / "two.weights"
    enc.save_params(path, params)
    three = enc.EncoderConfig(blocks=3, dim=8, heads=2, mlp_hidden=12, fusion_hidden=8,
                              z_max=6, patch_dim=10)
    with pytest.raises(WeightsShapeError, match="block2.attn.wq"):
        enc.load_params(path, three)


def test_unwritable_params_leave_the_saved_file_unchanged(tmp_path):
    path = tmp_path / "mee.weights"
    params = enc.init_mee_params(TINY, seed=11)
    enc.save_params(path, params)
    saved = path.read_bytes()
    overlong = {**params, "x" * (wio.MAX_TEXT_BYTES + 1): np.ones(1)}
    with pytest.raises(WeightsFormatError, match="exceeds 65535"):
        enc.save_params(path, overlong)
    with pytest.raises(WeightsFormatError, match="label 0 is not a string"):
        wio.save_container(path, [], labels=[0])  # the writer save_params shares
    assert path.read_bytes() == saved


def test_checksum_tracks_values():
    params = enc.init_mee_params(TINY, seed=11)
    before = enc.params_checksum(params)
    assert before == enc.params_checksum(params)
    params["block0.attn.wq"][0, 0] += 1.0
    assert enc.params_checksum(params) != before


# ---------------------------------------------------------------------------
# complexity accounting


def test_affine_param_closed_form():
    cfg = enc.EncoderConfig(blocks=1, dim=4, heads=1, mlp_hidden=3, fusion_hidden=2,
                            z_max=2, patch_dim=5)
    shapes = dict(enc.param_shapes(cfg))
    assert int(np.prod(shapes["patch_embed.weight"])) + int(np.prod(shapes["patch_embed.bias"])) \
        == 5 * 4 + 4


def test_toy_param_census_matches_hand_count():
    cfg = enc.EncoderConfig(blocks=2, dim=32, heads=4, mlp_hidden=64, fusion_hidden=32,
                            z_max=32, patch_dim=256)
    report = enc.count_params_macs(cfg, num_classes=10)
    # hand count, written out term by term
    patch_embed = 256 * 32 + 32
    cls_token = 32
    positions = (32 + 1) * 32
    per_block = (
        4 * (32 * 32 + 32)        # attention projections
        + 32 * 64 + 64            # ffn in
        + 64 * 32 + 32            # ffn out
        + 2 * (32 + 32)           # two block layer norms
        + 32 + 32                 # feature-norm affine
    )
    fusion = (2 * 32) * 32 + 32 + 32 * 2 + 2
    classifier = 32 * 10
    expected = patch_embed + cls_token + positions + 2 * per_block + fusion + classifier
    assert report.num_params == expected
    assert report.num_params_extractor == expected - classifier


def test_param_census_equals_serialized_elements():
    params = enc.init_mee_params(TINY, seed=12)
    report = enc.count_params_macs(TINY, num_classes=0)
    stored, _ = wio.parse_container(wio.serialize_container(list(params.items())))
    assert report.num_params_extractor == sum(v.size for v in stored.values())


def test_full_scale_param_census_near_reference_budget():
    report = enc.count_params_macs(ast_base_config(), num_classes=100)
    assert abs(report.num_params - 86.84e6) / 86.84e6 <= 0.05


def test_complexity_monotonic_in_depth():
    shallow = enc.count_params_macs(TINY, num_classes=5)
    deeper_cfg = enc.EncoderConfig(blocks=4, dim=8, heads=2, mlp_hidden=12, fusion_hidden=8,
                                   z_max=6, patch_dim=10)
    deeper = enc.count_params_macs(deeper_cfg, num_classes=5)
    assert deeper.num_params > shallow.num_params
    assert deeper.macs > shallow.macs


def test_fusion_off_excludes_fusion_params():
    bare = enc.EncoderConfig(blocks=2, dim=8, heads=2, mlp_hidden=12, fusion_hidden=8,
                             z_max=6, patch_dim=10, use_fusion=False)
    with_fusion = enc.count_params_macs(TINY, 0).num_params
    without = enc.count_params_macs(bare, 0).num_params
    assert with_fusion - without == (2 * 8) * 8 + 8 + 8 * 2 + 2


# ---------------------------------------------------------------------------
# end-to-end gradients


def test_end_to_end_gradient_through_loss():
    cfg = enc.EncoderConfig(blocks=2, dim=16, heads=2, mlp_hidden=32, fusion_hidden=16,
                            z_max=6, patch_dim=64)
    rng = np.random.default_rng(23)
    params = leaves(enc.init_mee_params(cfg, seed=21))
    head = Tensor(cls.init_cosine_head(3, cfg.dim, seed=22), requires_grad=True)
    clips = [rng.normal(size=(5, 64)) for _ in range(3)]
    labels = np.array([0, 1, 2])
    tensors = list(params.values()) + [head]

    def make_loss():
        rows = [enc.fuse(enc.encoder_forward(c[None], params, cfg), params)[0] for c in clips]
        return cls.cosine_loss(ad.concat(rows, axis=0), labels, head, 16.0)

    err = grad_check(make_loss, tensors, max_coords_per_tensor=4, rng=rng)
    assert err <= 1e-4, f"rel err {err}"
