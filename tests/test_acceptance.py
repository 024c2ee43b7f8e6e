"""Acceptance suite.

Each test implements one release criterion at its stated tolerance and
prints one PASS/FAIL line. The heavy end-to-end desk run executes once
(module-scoped fixture) and feeds the accuracy, degradation, and
freezing-invariant criteria.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from ffcac import autodiff as ad
from ffcac import classifiers as cls
from ffcac import cli
from ffcac import encoder as enc
from ffcac import sessions
from ffcac.audio import SynthConfig, fit_to_length, log_mel_spectrogram, patch_counts
from ffcac.autodiff import Tensor
from ffcac.config import (
    ClassifierConfig,
    ExperimentConfig,
    RunConfig,
    TrainConfig,
    ast_base_config,
)

from tests.helpers import enumerate_patch_count, grad_check, leaves, lstsq_weights


@contextmanager
def criterion(name: str):
    try:
        yield
    except BaseException:
        print(f"[ACCEPTANCE] {name}: FAIL")
        raise
    print(f"[ACCEPTANCE] {name}: PASS")


# ---------------------------------------------------------------------------
# closed-form classifier criteria


def test_incremental_batch_equivalence():
    """50 randomized trials, D <= 64, 3 sessions, lam in {0, 0.1, 10}:
    sequential updates match a batch refit to 1e-8, in under 10 s."""
    with criterion("incremental/batch equivalence"):
        start = time.monotonic()
        rng = np.random.default_rng(20240601)
        lams = [0.0, 0.1, 10.0]
        worst = 0.0
        for trial in range(50):
            lam = lams[trial % 3]
            d = int(rng.integers(2, 65))
            # lam = 0 needs a full-rank base gram matrix
            n0 = d + int(rng.integers(1, 6)) if lam == 0.0 else int(rng.integers(2, 12))
            sizes = [n0] + [int(rng.integers(1, 12)) for _ in range(2)]
            classes = [int(rng.integers(1, 6)) for _ in range(3)]
            blocks = []
            for n, c in zip(sizes, classes):
                e = rng.normal(size=(n, d)) * rng.uniform(0.2, 5.0)
                y = np.eye(c)[rng.integers(0, c, size=n)]
                blocks.append((e, y))
            offsets = np.cumsum([0] + classes)
            state = cls.fit_base(blocks[0][0], blocks[0][1], lam,
                                 labels=list(range(classes[0])))
            for s in (1, 2):
                new_labels = list(range(offsets[s], offsets[s + 1]))
                state = cls.update_incremental(state, blocks[s][0], blocks[s][1], new_labels)
            w_seq = cls.solve_weights(state)

            all_e = np.vstack([e for e, _ in blocks])
            all_y = np.zeros((all_e.shape[0], offsets[-1]))
            row = 0
            for s, (e, y) in enumerate(blocks):
                all_y[row : row + e.shape[0], offsets[s] : offsets[s + 1]] = y
                row += e.shape[0]
            w_batch = cls.solve_weights(
                cls.fit_base(all_e, all_y, lam, labels=list(range(offsets[-1]))))
            worst = max(worst, float(np.max(np.abs(w_seq - w_batch))))
        elapsed = time.monotonic() - start
        assert worst <= 1e-8, f"max |W_seq - W_batch| = {worst:.3e}"
        assert elapsed < 10.0, f"took {elapsed:.1f} s"


def test_normal_equation_residual_bound():
    """Every solve satisfies ||(G+lam I)W - C||_inf <= 1e-8 (1+||C||_inf)."""
    with criterion("normal-equation residual bound"):
        rng = np.random.default_rng(20240602)
        for _ in range(60):
            d = int(rng.integers(2, 64))
            n = int(rng.integers(d, 2 * d + 4))
            c = int(rng.integers(1, 8))
            lam = float(rng.choice([0.0, 1e-3, 0.1, 10.0, 1e3]))
            e = rng.normal(size=(n, d)) * rng.uniform(0.05, 20.0)
            if lam == 0.0 and np.linalg.matrix_rank(e) < d:
                continue
            y = np.eye(c)[rng.integers(0, c, size=n)]
            state = cls.fit_base(e, y, lam)
            w = cls.solve_weights(state)
            residual = np.max(np.abs((state.gram + lam * np.eye(d)) @ w - state.cross))
            assert residual <= 1e-8 * (1.0 + np.max(np.abs(state.cross))), \
                f"residual {residual:.3e} at d={d}, lam={lam}"


def test_unregularized_full_rank_matches_lstsq_oracle():
    """lam = 0 with full-column-rank E reproduces the pseudo-inverse
    solution from an independent orthogonal-factorization solver."""
    with criterion("lam=0 matches least-squares oracle"):
        rng = np.random.default_rng(20240603)
        for _ in range(20):
            d = int(rng.integers(2, 40))
            n = d + int(rng.integers(2, 30))
            c = int(rng.integers(1, 6))
            e = rng.normal(size=(n, d))
            y = np.eye(c)[rng.integers(0, c, size=n)]
            w = cls.solve_weights(cls.fit_base(e, y, 0.0))
            assert np.max(np.abs(w - lstsq_weights(e, y))) <= 1e-8


# ---------------------------------------------------------------------------
# gradients through the full extractor


def test_gradient_correctness_through_toy_extractor():
    """Analytic gradients of the scaled cosine-softmax loss through the
    full toy extractor (L=2, D=16) match central differences at 1e-4 over
    20 random parameter draws, in under 60 s."""
    with criterion("end-to-end gradient correctness"):
        start = time.monotonic()
        cfg = enc.EncoderConfig(blocks=2, dim=16, heads=2, mlp_hidden=32,
                                fusion_hidden=16, z_max=6, patch_dim=64)
        worst = 0.0
        for draw in range(20):
            rng = np.random.default_rng(9000 + draw)
            params = leaves(enc.init_mee_params(cfg, seed=1000 + draw))
            head = Tensor(cls.init_cosine_head(3, cfg.dim, seed=2000 + draw), requires_grad=True)
            clips = [rng.normal(size=(int(rng.integers(2, 7)), 64)) for _ in range(3)]
            labels = np.array([0, 1, 2])
            tensors = list(params.values()) + [head]

            def make_loss():
                rows = [enc.fuse(enc.encoder_forward(c[None], params, cfg), params)[0]
                        for c in clips]
                return cls.cosine_loss(ad.concat(rows, axis=0), labels, head, 16.0)

            err = grad_check(make_loss, tensors, max_coords_per_tensor=3, rng=rng)
            worst = max(worst, err)
        elapsed = time.monotonic() - start
        assert worst <= 1e-4, f"worst rel err {worst:.3e}"
        assert elapsed < 60.0, f"took {elapsed:.1f} s"


def test_batched_gradient_correctness_through_toy_extractor():
    """The same criterion for the batched path used in training: one
    (B, Z, P) forward of equally long clips, gradients at 1e-4 against
    central differences over 5 random parameter draws."""
    with criterion("batched end-to-end gradient correctness"):
        cfg = enc.EncoderConfig(blocks=2, dim=16, heads=2, mlp_hidden=32,
                                fusion_hidden=16, z_max=6, patch_dim=64)
        worst = 0.0
        for draw in range(5):
            rng = np.random.default_rng(9500 + draw)
            params = leaves(enc.init_mee_params(cfg, seed=1500 + draw))
            head = Tensor(cls.init_cosine_head(3, cfg.dim, seed=2500 + draw), requires_grad=True)
            batch = rng.normal(size=(3, int(rng.integers(2, 7)), 64))
            labels = np.array([0, 1, 2])
            tensors = list(params.values()) + [head]

            def make_loss():
                e = enc.fuse(enc.encoder_forward(batch, params, cfg), params)[0]
                return cls.cosine_loss(e, labels, head, 16.0)

            worst = max(worst, grad_check(make_loss, tensors, max_coords_per_tensor=3, rng=rng))
        assert worst <= 1e-4, f"worst rel err {worst:.3e}"


# ---------------------------------------------------------------------------
# patch counting


def test_patch_count_oracle():
    """The closed-form patch count equals exhaustive origin enumeration on
    100 random configurations plus the two worked cases."""
    with criterion("patch-count oracle"):
        assert patch_counts(128, 106, 16, 16, 10).z == 120
        assert patch_counts(128, 160, 16, 16, 16).z == 80
        rng = np.random.default_rng(20240604)
        for _ in range(100):
            big_f = int(rng.integers(1, 200))
            big_t = int(rng.integers(1, 200))
            s_f = int(rng.integers(1, big_f + 1))
            s_t = int(rng.integers(1, big_t + 1))
            d = int(rng.integers(1, 24))
            grid = patch_counts(big_f, big_t, s_f, s_t, d)
            assert grid.z == enumerate_patch_count(big_f, big_t, s_f, s_t, d)


# ---------------------------------------------------------------------------
# metric arithmetic


def test_metric_arithmetic_published_rows():
    """AA/PD over three published per-session accuracy rows round to the
    published two-decimal values."""
    with criterion("metric arithmetic"):
        cases = [
            ([94.50, 76.85, 62.10, 55.51, 52.98, 48.56, 48.33, 46.37, 46.93, 57.36],
             58.95, 37.14),
            ([80.78, 83.02, 74.23, 70.85, 70.25, 62.77, 59.90, 66.79, 59.86, 58.07],
             68.65, 22.71),
            ([55.50, 40.85, 39.97, 34.60, 27.04, 28.95, 24.96, 27.23, 26.03, 27.55],
             33.27, 27.95),
        ]
        for accs, aa, pd in cases:
            assert round(sessions.compute_aa(accs), 2) == aa
            assert round(sessions.compute_pd(accs), 2) == pd


# ---------------------------------------------------------------------------
# parameter census


def test_parameter_census():
    """Full-scale preset lands within 5% of the 86.84M reference budget;
    the toy config matches a hand count exactly."""
    with criterion("parameter census"):
        full = enc.count_params_macs(ast_base_config(), num_classes=100)
        assert abs(full.num_params - 86.84e6) / 86.84e6 <= 0.05, full.num_params

        toy = enc.EncoderConfig(blocks=2, dim=32, heads=4, mlp_hidden=64,
                                fusion_hidden=32, z_max=32, patch_dim=256)
        report = enc.count_params_macs(toy, num_classes=10)
        hand = (
            256 * 32 + 32          # patch embedding
            + 32                   # class token
            + 33 * 32              # positions (patches + class slot)
            + 2 * (
                4 * (32 * 32 + 32)     # attention projections
                + (32 * 64 + 64)       # ffn in
                + (64 * 32 + 32)       # ffn out
                + 2 * (32 + 32)        # block layer norms
                + (32 + 32)            # feature-norm affine
            )
            + (64 * 32 + 32)       # fusion hidden layer (input 2*32)
            + (32 * 2 + 2)         # fusion output layer
            + 32 * 10              # classifier columns
        )
        assert report.num_params == hand, (report.num_params, hand)


# ---------------------------------------------------------------------------
# end-to-end desk run (shared by three criteria)

DESK_SEEDS = 10


def desk_config() -> ExperimentConfig:
    return ExperimentConfig(
        train=TrainConfig(epochs=100),
        classifier=ClassifierConfig(lam="cv"),
        synth=SynthConfig(num_classes=10, clips_per_class=25, train_per_class=15),
        run=RunConfig(seed=100, repeats=DESK_SEEDS),
    )


@pytest.fixture(scope="module")
def desk_run():
    cfg = desk_config()
    plan = sessions.build_plan(cfg)
    pipeline = sessions.ClipPipeline(cfg)
    start = time.monotonic()
    finals, firsts, pds, freezing_ok = [], [], [], []
    for r in range(DESK_SEEDS):
        run_seed = cfg.run.seed + r
        base = sessions.run_base_session(sessions.sample_episode(plan, 0, run_seed),
                                         pipeline, cfg, run_seed)
        embedded = pipeline.embed_batch(sessions.union_test_refs(plan, 1), base.params)
        a0 = sessions.evaluate(base.classifier, plan, 0, embedded).accuracy
        before = enc.params_checksum(base.params)
        episode = sessions.sample_episode(plan, 1, run_seed)
        state = sessions.run_incremental_session(base.params, base.classifier, episode, pipeline)
        freezing_ok.append(enc.params_checksum(base.params) == before)
        a1 = sessions.evaluate(state, plan, 1, embedded).accuracy
        firsts.append(a0)
        finals.append(a1)
        pds.append(a0 - a1)
    elapsed = time.monotonic() - start
    return {
        "cfg": cfg,
        "plan": plan,
        "pipeline": pipeline,
        "firsts": firsts,
        "finals": finals,
        "pds": pds,
        "freezing_ok": freezing_ok,
        "elapsed": elapsed,
    }


def _ncm_oracle_accuracy(run) -> float:
    """Nearest-class-mean on raw log-mel statistics (mean over time per
    mel bin), trained on the same shots the model sees."""
    cfg, plan, pipeline = run["cfg"], run["plan"], run["pipeline"]

    def stat(ref):
        w = fit_to_length(pipeline.waveform(ref), cfg.frontend.clip_samples)
        return log_mel_spectrogram(w, cfg.frontend).mean(axis=1)

    shots = {}
    for m in (0, 1):
        for ref in sessions.sample_episode(plan, m, cfg.run.seed).pairs:
            shots.setdefault(ref.label, []).append(stat(ref))
    labels = sorted(shots)
    means = np.stack([np.mean(shots[l], axis=0) for l in labels])
    correct = total = 0
    for label in plan.labels_through(1):
        for ref in plan.test_items[label]:
            v = stat(ref)
            pred = labels[int(np.argmin(np.linalg.norm(means - v, axis=1)))]
            correct += int(pred == ref.label)
            total += 1
    return correct / total


def test_end_to_end_desk_run(desk_run):
    """10 synthetic classes, 5-way 5-shot base + one 5-way 5-shot
    incremental session, 100 training epochs: mean accuracy over all 10
    classes >= 0.80 across 10 seeds and mean PD <= 0.15, faster than
    5 minutes. The raw-spectrogram nearest-class-mean oracle must itself
    clear 0.80, certifying the set is separable enough for the bar."""
    with criterion("end-to-end desk run"):
        oracle = _ncm_oracle_accuracy(desk_run)
        assert oracle > 0.80, f"NCM oracle accuracy {oracle:.3f}"
        mean_final = float(np.mean(desk_run["finals"]))
        mean_pd = float(np.mean(desk_run["pds"]))
        assert mean_final >= 0.80, f"mean 10-class accuracy {mean_final:.3f}"
        assert mean_pd <= 0.15, f"mean PD {mean_pd:.3f}"
        assert desk_run["elapsed"] < 300.0, f"took {desk_run['elapsed']:.0f} s"


def test_freezing_invariant(desk_run):
    """Serialized extractor checksum identical before and after every
    incremental session of the end-to-end run."""
    with criterion("freezing invariant"):
        assert all(desk_run["freezing_ok"])


# ---------------------------------------------------------------------------
# CLI determinism


def test_run_determinism_byte_identical(tmp_path):
    """Two `run` executions with the same config and seed emit
    byte-identical report JSON."""
    with criterion("run determinism"):
        cfg_path = tmp_path / "det.cfg"
        cfg_path.write_text(
            "train.epochs = 2\nrun.repeats = 2\nrun.seed = 11\n"
            "classifier.lambda = 0.1\n"
            "synth.clips_per_class = 12\nsynth.train_per_class = 7\n"
        )
        outs = [tmp_path / "one", tmp_path / "two"]
        for out in outs:
            assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert (outs[0] / "report.json").read_bytes() == (outs[1] / "report.json").read_bytes()
