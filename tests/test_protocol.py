import dataclasses
import gc
import json
import sys
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest

from ffcac import classifiers as cls
from ffcac import encoder as enc
from ffcac import sessions
from ffcac import weights_io as wio
from ffcac.audio import SynthConfig
from ffcac.config import (ClassifierConfig, ExperimentConfig, PlanConfig, RunConfig, TrainConfig,
                          ast_base_config, load_config)
from ffcac.errors import PlanError, ProtocolViolationError, SamplingError, UsageError


DESK_CFG = Path(__file__).resolve().parent.parent / "configs" / "desk.cfg"


def desk_config(**kw) -> ExperimentConfig:
    """Small-but-real config: 10 synthetic classes, 5-way 5-shot, M=1."""
    cfg = ExperimentConfig(
        train=TrainConfig(epochs=kw.pop("epochs", 3)),
        classifier=ClassifierConfig(lam=kw.pop("lam", "0.1")),
        run=RunConfig(seed=kw.pop("seed", 7), repeats=kw.pop("repeats", 1)),
        synth=SynthConfig(clips_per_class=kw.pop("clips_per_class", 12),
                          train_per_class=kw.pop("train_per_class", 7)),
        plan=PlanConfig(**kw.pop("plan", {})),
        **kw,
    )
    return cfg


def tiny_items(num_classes=10, clips=12, train=7, seed=7):
    synth = SynthConfig(num_classes=num_classes, clips_per_class=clips, train_per_class=train)
    return sessions.synthetic_dataset(synth, seed)


# ---------------------------------------------------------------------------
# splits


def test_make_splits_disjoint_sessions():
    plan = sessions.make_splits(tiny_items(), PlanConfig(), seed=3)
    y0, y1 = map(set, plan.session_labels)
    assert len(y0) == 5 and len(y1) == 5
    assert y0.isdisjoint(y1)


def test_make_splits_deterministic():
    a = sessions.make_splits(tiny_items(), PlanConfig(), seed=3)
    b = sessions.make_splits(tiny_items(), PlanConfig(), seed=3)
    assert a.session_labels == b.session_labels
    assert a.train_items == b.train_items


def test_make_splits_insufficient_classes():
    with pytest.raises(PlanError, match="13"):
        sessions.make_splits(tiny_items(), PlanConfig(base_classes=8), seed=3)


def test_make_splits_insufficient_shots():
    with pytest.raises(PlanError, match="train items"):
        sessions.make_splits(tiny_items(train=3), PlanConfig(), seed=3)


def test_make_splits_requires_test_items():
    items = [r for r in tiny_items() if not (r.split == "test" and r.label == "class04")]
    with pytest.raises(PlanError, match="class04"):
        sessions.make_splits(items, PlanConfig(), seed=3)


# ---------------------------------------------------------------------------
# episodes


def test_episode_shape_five_way_five_shot():
    plan = sessions.make_splits(tiny_items(), PlanConfig(), seed=3)
    ep = sessions.sample_episode(plan, 0, seed=11)
    assert len(ep.pairs) == 25
    per_class = {}
    for ref in ep.pairs:
        per_class[ref.label] = per_class.get(ref.label, 0) + 1
    assert set(per_class.values()) == {5}
    assert set(per_class) == set(plan.session_labels[0])
    assert ep.labels == plan.session_labels[0]
    assert ([ep.labels.index(ref.label) for ref in ep.pairs] == ep.targets.tolist()
            == [i for i in range(5) for _ in range(5)])
    assert len(set(ep.pairs)) == 25  # without replacement


def test_episode_single_item_classes():
    items = tiny_items(num_classes=3, clips=2, train=1)
    plan = sessions.make_splits(items, PlanConfig(base_classes=3, inc_classes=0, sessions=0, shots=1),
                                seed=5)
    ep = sessions.sample_episode(plan, 0, seed=1)
    assert sorted(r.label for r in ep.pairs) == ["class00", "class01", "class02"]


def test_episode_deterministic():
    plan = sessions.make_splits(tiny_items(), PlanConfig(), seed=3)
    a = sessions.sample_episode(plan, 1, seed=42)
    b = sessions.sample_episode(plan, 1, seed=42)
    assert a.pairs == b.pairs


def test_episode_underfilled_class():
    plan = sessions.make_splits(tiny_items(), PlanConfig(), seed=3)
    plan.train_items[plan.session_labels[0][0]] = plan.train_items[plan.session_labels[0][0]][:2]
    with pytest.raises(SamplingError):
        sessions.sample_episode(plan, 0, seed=1)


# ---------------------------------------------------------------------------
# base session


def test_base_session_epochs_zero_still_fits_classifier():
    cfg = desk_config(epochs=0)
    plan = sessions.build_plan(cfg)
    pipe = sessions.ClipPipeline(cfg)
    out = sessions.run_base_session(sessions.sample_episode(plan, 0, 7), pipe, cfg, 7)
    assert out.epoch_losses == []
    assert len(out.classifier.registry) == 5


def test_base_session_loss_descends_on_separable_data():
    finals, firsts = [], []
    for seed in (1, 2, 3):
        cfg = desk_config(epochs=25, seed=seed)
        plan = sessions.build_plan(cfg)
        pipe = sessions.ClipPipeline(cfg)
        out = sessions.run_base_session(sessions.sample_episode(plan, 0, seed), pipe, cfg, seed)
        firsts.append(out.epoch_losses[0])
        finals.append(out.epoch_losses[-1])
    assert np.mean(finals) < np.mean(firsts)


def test_base_session_deterministic():
    cfg = desk_config(epochs=2)
    plan = sessions.build_plan(cfg)
    states = []
    for _ in range(2):
        pipe = sessions.ClipPipeline(cfg)
        out = sessions.run_base_session(sessions.sample_episode(plan, 0, 7), pipe, cfg, 7)
        states.append(out)
    assert cls.state_checksum(states[0].classifier) == cls.state_checksum(states[1].classifier)
    assert enc.params_checksum(states[0].params) == enc.params_checksum(states[1].params)


def test_base_session_freezes_the_extractor():
    plan, pipe, base = _trained(desk_config(epochs=1))
    _, _, untrained = _trained(desk_config(epochs=0))
    assert list(base.params) == [name for name, _ in enc.param_shapes(pipe.enc_cfg)]
    assert all(type(a) is np.ndarray and a.dtype == np.float64 for a in base.params.values())
    assert not any(a.flags.writeable for a in base.params.values())
    assert not any(a.flags.writeable for a in untrained.params.values())
    assert all(not np.array_equal(a, untrained.params[name]) for name, a in base.params.items())
    before = enc.params_checksum(base.params)
    patches = np.stack([pipe.patches(ref) for ref in sessions.union_test_refs(plan, 1)[:3]])
    enc.extract_embedding(patches, base.params, pipe.enc_cfg)
    assert enc.params_checksum(base.params) == before
    assert enc.embed(patches, base.params, pipe.enc_cfg)._parents == ()


def test_frozen_embedding_on_another_thread_leaves_training_unchanged():
    """Frozen passes record nothing because the extractor's arrays are
    constants, so they cannot change a run training on another thread."""
    cfg = desk_config(epochs=3)
    plan = sessions.build_plan(cfg)
    episode = sessions.sample_episode(plan, 0, cfg.run.seed)
    solo = sessions.run_base_session(episode, sessions.ClipPipeline(cfg), cfg, cfg.run.seed)
    frozen_pipe, refs = sessions.ClipPipeline(cfg), sessions.union_test_refs(plan, 1)[:8]
    expected = frozen_pipe.embed_batch(refs, solo.params)
    stop, passes = threading.Event(), []

    def embed_until_stopped():
        while not stop.is_set():
            passes.append(np.array_equal(frozen_pipe.embed_batch(refs, solo.params), expected))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    worker = threading.Thread(target=embed_until_stopped)
    try:
        worker.start()
        trained = sessions.run_base_session(episode, sessions.ClipPipeline(cfg), cfg, cfg.run.seed)
    finally:
        stop.set()
        worker.join(timeout=60)
        sys.setswitchinterval(interval)
    assert not worker.is_alive() and passes and all(passes)
    for name, a in solo.params.items():
        assert np.array_equal(trained.params[name], a), name


def test_base_session_cv_lambda_comes_from_grid():
    cfg = desk_config(epochs=0, lam="cv")
    plan = sessions.build_plan(cfg)
    pipe = sessions.ClipPipeline(cfg)
    out = sessions.run_base_session(sessions.sample_episode(plan, 0, 7), pipe, cfg, 7)
    assert out.classifier.lam in cfg.classifier.lam_grid


# ---------------------------------------------------------------------------
# incremental sessions


def _trained(cfg):
    plan = sessions.build_plan(cfg)
    pipe = sessions.ClipPipeline(cfg)
    base = sessions.run_base_session(sessions.sample_episode(plan, 0, cfg.run.seed), pipe, cfg, cfg.run.seed)
    return plan, pipe, base


def test_incremental_preserves_extractor_checksum():
    cfg = desk_config(epochs=1)
    plan, pipe, base = _trained(cfg)
    before = enc.params_checksum(base.params)
    ep = sessions.sample_episode(plan, 1, cfg.run.seed)
    sessions.run_incremental_session(base.params, base.classifier, ep, pipe)
    assert enc.params_checksum(base.params) == before


def test_incremental_session_catches_a_change_below_f32_resolution(monkeypatch):
    """The base session leaves the extractor read-only, so even a write too
    small to change its f32 container raises, and leaves every bit as it was."""
    cfg = desk_config(epochs=1)
    plan, pipe, base = _trained(cfg)
    gain = base.params["block0.ln1.gain"]
    embed_batch = pipe.embed_batch

    def nudging(refs, params):
        gain[...] *= 1.0 + 1e-9  # the f32 rounding of every weight stays the same
        return embed_batch(refs, params)

    before = wio.container_digest(list(base.params.items()), dtype="f32")
    before_f64 = enc.params_checksum(base.params)
    monkeypatch.setattr(pipe, "embed_batch", nudging)
    ep = sessions.sample_episode(plan, 1, cfg.run.seed)
    with pytest.raises(ValueError, match="read-only"):
        sessions.run_incremental_session(base.params, base.classifier, ep, pipe)
    assert wio.container_digest(list(base.params.items()), dtype="f32") == before
    assert enc.params_checksum(base.params) == before_f64


def test_incremental_grows_registry_by_session_ways():
    cfg = desk_config(epochs=1)
    plan, pipe, base = _trained(cfg)
    ep = sessions.sample_episode(plan, 1, cfg.run.seed)
    updated = sessions.run_incremental_session(base.params, base.classifier, ep, pipe)
    assert len(updated.registry) == len(base.classifier.registry) + 5
    # original indices unchanged
    for label in base.classifier.registry:
        assert updated.registry.index(label) == base.classifier.registry.index(label)


def test_incremental_label_collision_rejected():
    cfg = desk_config(epochs=1)
    plan, pipe, base = _trained(cfg)
    ep0 = sessions.sample_episode(plan, 0, cfg.run.seed)
    with pytest.raises(ProtocolViolationError):
        sessions.run_incremental_session(base.params, base.classifier, ep0, pipe)


def test_incremental_equals_batch_refit_on_same_embeddings():
    cfg = desk_config(epochs=1, lam="0.5")
    plan, pipe, base = _trained(cfg)
    ep1 = sessions.sample_episode(plan, 1, cfg.run.seed)
    updated = sessions.run_incremental_session(base.params, base.classifier, ep1, pipe)

    ep0 = sessions.sample_episode(plan, 0, cfg.run.seed)
    all_labels = list(base.classifier.registry) + ep1.labels
    e_all, rows = [], []
    for ref in list(ep0.pairs) + list(ep1.pairs):
        e_all.append(enc.extract_embedding(pipe.patches(ref)[None], base.params, pipe.enc_cfg)[0])
        rows.append(all_labels.index(ref.label))
    y_all = np.eye(len(all_labels))[rows]
    batch = cls.fit_base(np.stack(e_all), y_all, updated.lam, labels=all_labels)
    assert np.max(np.abs(cls.solve_weights(updated) - cls.solve_weights(batch))) <= 1e-8


def test_embed_batch_across_chunks_equals_per_clip_embedding():
    pipe = sessions.ClipPipeline(desk_config())
    params = enc.init_mee_params(pipe.enc_cfg, seed=3)
    refs = tiny_items(clips=13)[: sessions.EMBED_CHUNK + 1]
    assert len(refs) == sessions.EMBED_CHUNK + 1
    batched = pipe.embed_batch(refs, params)
    one_by_one = np.stack([enc.extract_embedding(pipe.patches(ref)[None], params, pipe.enc_cfg)[0]
                           for ref in refs])
    assert batched.shape == one_by_one.shape
    assert np.max(np.abs(batched - one_by_one)) <= 1e-12


def test_frozen_chunk_keeps_the_attention_scores_within_the_budget():
    # T = 33 tokens and 4 heads: 34,848 bytes of scores per clip, so the cap binds
    for enc_cfg in (ExperimentConfig().encoder_config(), load_config(DESK_CFG).encoder_config()):
        assert (enc_cfg.z_max + 1, enc_cfg.heads) == (33, 4)
        assert sessions.embed_chunk(enc_cfg) == sessions.EMBED_CHUNK == 64
    # ast-base: T = 1213 and 12 heads, ~141 MB of scores per clip
    ast = ast_base_config()
    per_clip = ast.heads * (ast.z_max + 1) ** 2 * 8
    assert per_clip <= sessions.SCORE_BUDGET < 2 * per_clip
    assert sessions.embed_chunk(ast) == 1
    # one clip past the budget still runs, one clip per pass
    assert sessions.embed_chunk(dataclasses.replace(ast, heads=24)) == 1


def test_base_session_embeds_the_batch_it_trained_on_in_embed_batch_chunks(monkeypatch):
    """The base session runs each clip's frontend once, and its frozen
    embeddings are embed_batch's bit for bit, here across seven chunks."""
    monkeypatch.setattr(sessions, "EMBED_CHUNK", 4)
    cfg = desk_config(epochs=1)
    plan, pipe = sessions.build_plan(cfg), sessions.ClipPipeline(cfg)
    episode = sessions.sample_episode(plan, 0, cfg.run.seed)
    fetched, chunks = [], []
    patches, extract = sessions.ClipPipeline.patches, enc.extract_embedding

    def fetching(self, ref):
        fetched.append(ref)
        return patches(self, ref)

    def chunking(batch, params, enc_cfg):
        chunks.append(len(batch))
        return extract(batch, params, enc_cfg)

    monkeypatch.setattr(sessions.ClipPipeline, "patches", fetching)
    monkeypatch.setattr(enc, "extract_embedding", chunking)
    base = sessions.run_base_session(episode, pipe, cfg, cfg.run.seed)
    assert fetched == episode.pairs and chunks == [4] * 6 + [1]
    expected = cls.update_incremental(cls.RidgeState.empty(pipe.enc_cfg.dim, base.classifier.lam),
                                      pipe.embed_batch(episode.pairs, base.params),
                                      np.eye(len(episode.labels))[episode.targets], episode.labels)
    assert np.array_equal(base.classifier.gram, expected.gram)
    assert np.array_equal(base.classifier.cross, expected.cross)


# ---------------------------------------------------------------------------
# evaluation and metrics


def _hand_plan():
    """Session 0: classes a, b; session 1: class c. Test refs in plan order:
    a0 a1 b0 | c0 c1."""
    test = {label: [sessions.ClipRef(label=label, split="test", synth_seed=i) for i in range(n)]
            for label, n in (("a", 2), ("b", 1), ("c", 2))}
    return sessions.SessionPlan(session_labels=[["a", "b"], ["c"]], shots=1,
                                train_items={}, test_items=test)


def test_evaluate_scores_hand_made_embeddings():
    plan = _hand_plan()
    assert [r.label for r in sessions.union_test_refs(plan, 1)] == ["a", "a", "b", "c", "c"]
    # the prototype baseline, the memory at lam = inf: a = e0, b = e1
    protos = cls.update_incremental(cls.RidgeState.empty(3, np.inf), np.eye(3)[:2], np.eye(2), ["a", "b"])
    # rows: a0 right, a1 wrong (-> b), b0 right, c0 (-> c once registered), c1 wrong (-> a)
    embedded = np.array([[1.0, 0.1, 0.0], [0.2, 1.0, 0.0], [0.0, 1.0, 0.3],
                         [0.0, 0.2, 1.0], [1.0, 0.0, 0.5]])
    r0 = sessions.evaluate(protos, plan, 0, embedded)
    assert (r0.correct, r0.total, r0.accuracy) == (2, 3, 2 / 3)
    with pytest.raises(ProtocolViolationError, match="test class 'c' not yet registered"):
        sessions.evaluate(protos, plan, 1, embedded)
    grown = cls.update_incremental(protos, np.array([[0.0, 0.0, 1.0]]), np.ones((1, 1)), ["c"])
    r1 = sessions.evaluate(grown, plan, 1, embedded)
    assert (r1.correct, r1.total, r1.accuracy) == (3, 5, 0.6)
    # the ridge classifier goes through the same interface
    ridge = cls.fit_base(np.eye(3), np.eye(3), 1e-3, ["a", "b", "c"])
    assert sessions.evaluate(ridge, plan, 1, embedded).correct == 3
    with pytest.raises(UsageError, match="embedded test rows"):
        sessions.evaluate(grown, plan, 1, embedded[:4])


def test_evaluate_covers_union_of_test_sets():
    cfg = desk_config(epochs=0)
    plan, pipe, base = _trained(cfg)
    embedded = pipe.embed_batch(sessions.union_test_refs(plan, 1), base.params)
    r0 = sessions.evaluate(base.classifier, plan, 0, embedded)
    assert r0.total == sum(len(plan.test_items[l]) for l in plan.session_labels[0])
    ep1 = sessions.sample_episode(plan, 1, cfg.run.seed)
    updated = sessions.run_incremental_session(base.params, base.classifier, ep1, pipe)
    r1 = sessions.evaluate(updated, plan, 1, embedded)
    assert r1.total == sum(len(plan.test_items[l]) for l in plan.labels_through(1))


def test_evaluate_unregistered_class_rejected():
    cfg = desk_config(epochs=0)
    plan, pipe, base = _trained(cfg)
    embedded = pipe.embed_batch(sessions.union_test_refs(plan, 1), base.params)
    with pytest.raises(ProtocolViolationError):
        sessions.evaluate(base.classifier, plan, 1, embedded)


def test_run_single_embeds_each_distinct_clip_once(monkeypatch):
    cfg = desk_config(epochs=1, clips_per_class=25, train_per_class=15)  # configs/desk.cfg
    plan = sessions.build_plan(cfg)
    pipe = sessions.ClipPipeline(cfg)
    seen = []
    extract = enc.extract_embedding

    def counting(patches, params, enc_cfg):
        seen.extend(clip.tobytes() for clip in np.asarray(patches).reshape(-1, *patches.shape[-2:]))
        return extract(patches, params, enc_cfg)

    monkeypatch.setattr(enc, "extract_embedding", counting)
    sessions.run_single(cfg, cfg.run.seed, plan, pipe)
    clips = {ref for m in range(2) for ref in sessions.sample_episode(plan, m, cfg.run.seed).pairs}
    clips.update(sessions.union_test_refs(plan, 1))
    assert len(clips) == 150  # 50 episode clips + 100 test clips
    assert len(seen) == len(set(seen)) == len(clips)


def _count_frontend(monkeypatch):
    """Call counts of ClipPipeline.patches and of the log-mel stage, and a
    weak reference to each patch matrix handed out."""
    counts, made = {"patches": 0, "log_mel": 0}, []
    patches, log_mel = sessions.ClipPipeline.patches, sessions.log_mel_spectrogram

    def counting_patches(self, ref):
        counts["patches"] += 1
        out = patches(self, ref)
        made.append(weakref.ref(out))
        return out

    def counting_log_mel(samples, frontend):
        counts["log_mel"] += 1
        return log_mel(samples, frontend)

    monkeypatch.setattr(sessions.ClipPipeline, "patches", counting_patches)
    monkeypatch.setattr(sessions, "log_mel_spectrogram", counting_log_mel)
    return counts, made


def test_one_run_makes_each_clips_patches_once_and_keeps_none(monkeypatch):
    cfg = desk_config(epochs=1, clips_per_class=25, train_per_class=15)  # configs/desk.cfg
    counts, made = _count_frontend(monkeypatch)
    extract, held = enc.extract_embedding, []  # patch matrices alive at each frozen forward

    def watching(batch, params, enc_cfg):
        gc.collect()
        held.append(sum(ref() is not None for ref in made))
        return extract(batch, params, enc_cfg)

    monkeypatch.setattr(enc, "extract_embedding", watching)
    sessions.run_repeated(cfg)
    assert counts == {"patches": 150, "log_mel": 150}  # 50 episode clips + 100 test clips
    assert held and max(held) == 0


def test_repeated_runs_make_each_clips_patches_once(monkeypatch):
    cfg = desk_config(epochs=1, repeats=2)
    counts, _ = _count_frontend(monkeypatch)
    sessions.run_repeated(cfg)
    plan = sessions.build_plan(cfg)
    clips = set(sessions.union_test_refs(plan, plan.num_incremental))
    for seed in (cfg.run.seed, cfg.run.seed + 1):
        for m in range(plan.num_incremental + 1):
            clips.update(sessions.sample_episode(plan, m, seed).pairs)
    assert counts["log_mel"] == len(clips) < counts["patches"]


def test_aa_permutation_invariant_pd_endpoints_only():
    rng = np.random.default_rng(43)
    accs = rng.uniform(size=8).tolist()
    shuffled = accs[:1] + list(rng.permutation(accs[1:-1])) + accs[-1:]
    assert sessions.compute_aa(shuffled) == pytest.approx(sessions.compute_aa(accs), abs=1e-15)
    assert sessions.compute_pd(shuffled) == sessions.compute_pd(accs)


def test_metric_arithmetic():
    assert sessions.compute_aa([1.0, 0.5]) == 0.75
    assert sessions.compute_pd([1.0, 0.5]) == 0.5
    assert sessions.compute_aa([0.4] * 7) == pytest.approx(0.4, abs=1e-12)
    assert sessions.compute_pd([0.4] * 7) == 0.0
    with pytest.raises(UsageError):
        sessions.compute_aa([])
    with pytest.raises(UsageError):
        sessions.compute_pd([])


def test_metric_published_rows():
    rows = {
        (58.95, 37.14): [94.50, 76.85, 62.10, 55.51, 52.98, 48.56, 48.33, 46.37, 46.93, 57.36],
        (68.65, 22.71): [80.78, 83.02, 74.23, 70.85, 70.25, 62.77, 59.90, 66.79, 59.86, 58.07],
        (33.27, 27.95): [55.50, 40.85, 39.97, 34.60, 27.04, 28.95, 24.96, 27.23, 26.03, 27.55],
    }
    for (aa, pd), accs in rows.items():
        assert round(sessions.compute_aa(accs), 2) == aa
        assert round(sessions.compute_pd(accs), 2) == pd


# ---------------------------------------------------------------------------
# repeated runs


def test_aggregate_single_run_identity():
    run = sessions.RunReport(seed=1, accuracies=[0.9, 0.8], aa=0.85, pd=0.1)
    agg = sessions.aggregate_runs([run])
    assert agg.mean_accuracies == [0.9, 0.8]
    assert agg.std_accuracies == [0.0, 0.0]
    assert agg.mean_aa == 0.85 and agg.std_aa == 0.0


def test_aggregate_identical_runs_zero_std():
    run = sessions.RunReport(seed=1, accuracies=[0.9, 0.8], aa=0.85, pd=0.1)
    agg = sessions.aggregate_runs([run, dataclasses.replace(run, seed=2)])
    assert agg.std_accuracies == [0.0, 0.0]
    assert agg.std_aa == 0.0 and agg.std_pd == 0.0


def test_default_repeat_count_is_one_hundred():
    assert ExperimentConfig().run.repeats == 100


def test_run_repeated_aggregates_and_reports():
    cfg = desk_config(epochs=1, repeats=2)
    report, _ = sessions.run_repeated(cfg)
    assert len(report.runs) == 2
    assert [r.seed for r in report.runs] == [7, 8]
    for run in report.runs:
        assert len(run.accuracies) == 2
        assert run.aa == pytest.approx(np.mean(run.accuracies))
        assert run.pd == run.accuracies[0] - run.accuracies[-1]
        assert all(0.0 <= a <= 1.0 for a in run.accuracies)


def test_run_repeated_threads_match_serial():
    cfg = desk_config(epochs=1, repeats=2)
    serial, _ = sessions.run_repeated(cfg)
    threaded, _ = sessions.run_repeated(
        dataclasses.replace(cfg, run=dataclasses.replace(cfg.run, threads=2)))
    assert serial.mean_accuracies == threaded.mean_accuracies
    assert [r.accuracies for r in serial.runs] == [r.accuracies for r in threaded.runs]


def test_run_repeated_releases_each_runs_artifacts(monkeypatch):
    run_single = sessions.run_single
    extractors = []  # weak references to each run's extractor arrays
    released = []  # at the start of run r: are run r - 2's arrays gone?

    def tracking(cfg, run_seed, plan, pipeline):
        if len(extractors) >= 2:
            released.append(all(ref() is None for ref in extractors[-2]))
        report, base = run_single(cfg, run_seed, plan, pipeline)
        extractors.append([weakref.ref(a) for a in base.params.values()])
        return report, base

    monkeypatch.setattr(sessions, "run_single", tracking)
    report, last = sessions.run_repeated(desk_config(epochs=1, repeats=4))
    assert len(report.runs) == 4 and released == [True, True]
    assert all(ref() is not None for ref in extractors[-1])  # the last run's are returned


def test_report_json_deterministic_and_csv_consistent():
    cfg = desk_config(epochs=1, repeats=2)
    report, _ = sessions.run_repeated(cfg)
    j1 = sessions.report_to_json(report, cfg)
    j2 = sessions.report_to_json(sessions.run_repeated(cfg)[0], cfg)
    assert j1 == j2
    csv_text = sessions.json_report_to_csv(j1)
    # header, one row per run, then the mean and std rows, at 6 decimals
    lines = csv_text.splitlines()
    assert lines[0] == "run,A_0,A_1,AA,PD"
    assert [line.split(",")[0] for line in lines[1:]] == ["0", "1", "mean", "std"]
    expected = [run.accuracies + [run.aa, run.pd] for run in report.runs] + [
        report.mean_accuracies + [report.mean_aa, report.mean_pd],
        report.std_accuracies + [report.std_aa, report.std_pd],
    ]
    for line, values in zip(lines[1:], expected, strict=True):
        assert line.split(",")[1:] == [f"{v:.6f}" for v in values]


def test_report_to_json_layout():
    """Keys in the order sessions, config, aggregate, runs; each report's
    fields in dataclass order; floats at 6 places; the seed an int."""
    run = sessions.RunReport(seed=3, accuracies=[0.12345678, 1.0], aa=0.56172839, pd=-0.87654321)
    report = sessions.ExperimentReport(runs=[run], mean_accuracies=[0.12345678, 1.0],
                                       std_accuracies=[0.0, 0.25], mean_aa=0.56172839, std_aa=0.5,
                                       mean_pd=-0.87654321, std_pd=0.125)
    cfg = ExperimentConfig()
    config = json.dumps(cfg.to_flat_dict(), indent=2).replace("\n", "\n  ")
    assert sessions.report_to_json(report, cfg) == f"""{{
  "sessions": 2,
  "config": {config},
  "aggregate": {{
    "mean_accuracies": [
      0.123457,
      1.0
    ],
    "std_accuracies": [
      0.0,
      0.25
    ],
    "mean_aa": 0.561728,
    "std_aa": 0.5,
    "mean_pd": -0.876543,
    "std_pd": 0.125
  }},
  "runs": [
    {{
      "seed": 3,
      "accuracies": [
        0.123457,
        1.0
      ],
      "aa": 0.561728,
      "pd": -0.876543
    }}
  ]
}}
"""
