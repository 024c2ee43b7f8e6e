"""Session protocol: class splits, episodic sampling, base-session
finetuning, incremental classifier updates with a frozen extractor,
cumulative evaluation, and repeated-run aggregation.

Session 0 finetunes the extractor on one few-shot episode and fits the
classifier from the resulting embeddings. Sessions 1..M freeze the
extractor, extract embeddings for a new episode of unseen classes, and
update the classifier analytically. After session m the model is scored
on the union of the test sets of sessions 0..m; since the extractor is
frozen, every test clip is embedded once, right after session 0, and each
session scores its rows of that matrix.
"""

from __future__ import annotations

import concurrent.futures
import json
from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from . import classifiers as cls
from . import encoder as enc
from .audio import (
    ClipRef,
    SynthConfig,
    fit_to_length,
    load_wav,
    log_mel_spectrogram,
    patch_split,
    read_manifest,
    synth_class_waveform,
)
from .config import ExperimentConfig, PlanConfig
from .errors import (
    DivergenceError,
    FfcacError,
    IngestionError,
    PlanError,
    ProtocolViolationError,
    SamplingError,
    UsageError,
)

# sub-stream tags for seed derivation (SeedSequence entropy tuples)
_TAG_PLAN = 11
_TAG_INIT = 23
_TAG_EPISODE = 37
_TAG_HEAD = 53

# clips per frozen-extractor forward pass: batching amortizes the per-op
# overhead up to EMBED_CHUNK clips, and a chunk holds no more clips than
# keep its f64 (B, H, T, T) attention scores within SCORE_BUDGET bytes
EMBED_CHUNK = 64
SCORE_BUDGET = 256 * 2**20


def _rng(*entropy) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


# ---------------------------------------------------------------------------
# synthetic datasets


def synthetic_dataset(synth: SynthConfig, seed: int) -> list[ClipRef]:
    """Synthesizable clips, class by class, the first train_per_class of
    each class in the train split; ``ffcac synth-data`` writes them as WAVs."""
    refs = []
    for c in range(synth.num_classes):
        label = f"class{c:02d}"
        for i in range(synth.clips_per_class):
            inst = int(_rng(seed, c, i).integers(0, 2**31 - 1))
            split = "train" if i < synth.train_per_class else "test"
            refs.append(ClipRef(label=label, split=split, synth_class=c, synth_seed=inst))
    return refs


# ---------------------------------------------------------------------------
# session plans and episodes


@dataclass
class SessionPlan:
    session_labels: list[list[str]]  # disjoint label sets Y_0..Y_M
    shots: int  # K, per class in every session
    train_items: dict[str, list[ClipRef]]
    test_items: dict[str, list[ClipRef]]

    @property
    def num_incremental(self) -> int:
        return len(self.session_labels) - 1

    def labels_through(self, m: int) -> list[str]:
        out: list[str] = []
        for s in self.session_labels[: m + 1]:
            out.extend(s)
        return out


def make_splits(refs: list[ClipRef], plan_cfg: PlanConfig, seed: int) -> SessionPlan:
    """Deterministically assign classes to sessions and index the clips.

    Labels are shuffled once (seeded) and dealt out: the first
    ``base_classes`` go to session 0, then ``inc_classes`` per incremental
    session. Train/test membership follows the clips' splits.
    """
    train_items: dict[str, list[ClipRef]] = {}
    test_items: dict[str, list[ClipRef]] = {}
    for ref in refs:
        bucket = train_items if ref.split == "train" else test_items
        bucket.setdefault(ref.label, []).append(ref)
    labels = sorted(set(train_items) | set(test_items))
    needed = plan_cfg.base_classes + plan_cfg.sessions * plan_cfg.inc_classes
    if len(labels) < needed:
        raise PlanError(
            f"plan needs {needed} classes ({plan_cfg.base_classes} base + "
            f"{plan_cfg.sessions} x {plan_cfg.inc_classes}), dataset has {len(labels)}"
        )
    order = list(labels)
    _rng(seed, _TAG_PLAN).shuffle(order)
    session_labels = [sorted(order[: plan_cfg.base_classes])]
    at = plan_cfg.base_classes
    for _ in range(plan_cfg.sessions):
        session_labels.append(sorted(order[at : at + plan_cfg.inc_classes]))
        at += plan_cfg.inc_classes

    short = []
    for sess in session_labels:
        for label in sess:
            n_train = len(train_items.get(label, ()))
            n_test = len(test_items.get(label, ()))
            if n_train < plan_cfg.shots:
                short.append(f"{label}: {n_train} train items < {plan_cfg.shots} shots")
            if n_test < 1:
                short.append(f"{label}: no test items")
    if short:
        raise PlanError("plan infeasible — " + "; ".join(short))
    return SessionPlan(
        session_labels=session_labels,
        shots=plan_cfg.shots,
        train_items=train_items,
        test_items=test_items,
    )


@dataclass
class Episode:
    labels: list[str]  # the session's classes, in the order of their columns
    pairs: list[ClipRef]  # exactly N_m * K refs, grouped by class in label order
    targets: np.ndarray  # each pair's column: 0 (K times), 1 (K times), ...


def sample_episode(plan: SessionPlan, m: int, seed: int) -> Episode:
    """K training clips per class of session m, without replacement."""
    if not 0 <= m < len(plan.session_labels):
        raise UsageError(f"session {m} outside plan with {len(plan.session_labels)} sessions")
    k = plan.shots
    rng = _rng(seed, _TAG_EPISODE, m)
    pairs: list[ClipRef] = []
    for label in plan.session_labels[m]:
        pool = plan.train_items.get(label, [])
        if len(pool) < k:
            raise SamplingError(f"class {label} has {len(pool)} train items, episode needs {k}")
        chosen = rng.choice(len(pool), size=k, replace=False)
        pairs.extend(pool[i] for i in sorted(chosen))
    labels = plan.session_labels[m]
    return Episode(labels=labels, pairs=pairs, targets=np.repeat(np.arange(len(labels)), k))


# ---------------------------------------------------------------------------
# clip -> patches -> embedding pipeline


def embed_chunk(enc_cfg: enc.EncoderConfig) -> int:
    """Clips per frozen forward: as many as keep the attention scores of
    T = z_max + 1 tokens within SCORE_BUDGET, at least 1, at most
    EMBED_CHUNK."""
    t = enc_cfg.z_max + 1
    return max(1, min(EMBED_CHUNK, SCORE_BUDGET // (enc_cfg.heads * t * t * 8)))


def embed_chunks(n: int, chunk, params: enc.MeeParams, enc_cfg: enc.EncoderConfig) -> np.ndarray:
    """(n, D) frozen embeddings of n clips, ``embed_chunk`` clips per
    forward pass; ``chunk(i, j)`` gives clips i..j-1's (j - i, Z, P)
    patch matrices."""
    step = embed_chunk(enc_cfg)
    out = [enc.extract_embedding(chunk(i, min(i + step, n)), params, enc_cfg) for i in range(0, n, step)]
    return np.concatenate(out) if out else np.zeros((0, enc_cfg.dim))


class ClipPipeline:
    """The deterministic clip -> log-mel -> patch-matrix stage, and frozen
    embeddings a chunk at a time.

    A clip's patch matrix is kept only when ``cfg.run.repeats > 1``: then
    every later run reads the same union test set and episodes that
    overlap, so it skips the frontend. One run reads each clip once (the
    base session embeds the batch it trained on), so it keeps none, and the
    patches of a large evaluation live one chunk at a time."""

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        self.enc_cfg = cfg.encoder_config()
        self._keep = cfg.run.repeats > 1
        self._patches: dict[ClipRef, np.ndarray] = {}

    def waveform(self, ref: ClipRef) -> np.ndarray:
        if ref.path is not None:
            return load_wav(ref.path, expected_rate_hz=self.cfg.frontend.sample_rate_hz)
        return synth_class_waveform(ref.synth_class, ref.synth_seed, self.cfg.synth, self.cfg.frontend)

    def patches(self, ref: ClipRef) -> np.ndarray:
        cached = self._patches.get(ref)
        if cached is None:
            samples = fit_to_length(self.waveform(ref), self.cfg.frontend.clip_samples)
            lms = log_mel_spectrogram(samples, self.cfg.frontend)
            cached = patch_split(lms, self.cfg.patch.s_f, self.cfg.patch.s_t, self.cfg.patch.stride)
            if self._keep:
                self._patches[ref] = cached
        return cached

    def embed_batch(self, refs, params: enc.MeeParams) -> np.ndarray:
        """(len(refs), D) embeddings through ``embed_chunks``. Each chunk's
        patch matrices are made just before its pass and copied into one
        buffer that every chunk reuses: a fresh stack per chunk made the
        allocator return memory to the system and fault it in again
        (~17,000 page faults per session-stream run against ~7,000)."""
        refs, e = list(refs), self.enc_cfg
        buf = np.empty((min(embed_chunk(e), len(refs)), e.z_max, e.patch_dim))

        def fill(i, j):
            for k, ref in enumerate(refs[i:j]):
                buf[k] = self.patches(ref)
            return buf[: j - i]

        return embed_chunks(len(refs), fill, params, e)


# ---------------------------------------------------------------------------
# base and incremental sessions


@dataclass
class BaseSessionResult:
    params: enc.MeeParams
    classifier: cls.RidgeState
    epoch_losses: list[float]


def run_base_session(episode: Episode, pipeline: ClipPipeline, cfg: ExperimentConfig,
                     seed: int) -> BaseSessionResult:
    """Finetune the extractor on the base episode under the scaled
    cosine-softmax loss, then update an empty ridge memory with the final
    embeddings, as every later session updates the current one. Its λ is
    inf for pbc (the prototype limit), else the fixed or the CV λ. Each
    epoch wraps the parameter arrays in fresh leaf tensors, which no later
    step reads. After the last step every extractor array is made
    read-only, so the extractor it returns is frozen: a write into it
    raises ValueError."""
    enc_cfg = pipeline.enc_cfg
    labels = episode.labels

    params = enc.init_mee_params(enc_cfg, int(_rng(seed, _TAG_INIT).integers(0, 2**31 - 1)))
    head = cls.init_cosine_head(len(labels), enc_cfg.dim,
                                int(_rng(seed, _TAG_HEAD).integers(0, 2**31 - 1)))
    arrays = [*params.values(), head]
    batch = np.stack([pipeline.patches(ref) for ref in episode.pairs])  # (B, Z, P)

    losses: list[float] = []
    for epoch in range(cfg.train.epochs):
        # one graph per epoch: the whole episode runs as one batch
        step = [ad.Tensor(a, requires_grad=True) for a in arrays]  # the head's is last
        loss = cls.cosine_loss(enc.embed(batch, dict(zip(params, step)), enc_cfg),
                               episode.targets, step[-1], cfg.train.eta)
        # the last epoch's leaves are freed only now: freeing their gradients
        # before the forward made a desk training run take ~1.4x the page
        # faults, as the allocator returned memory the forward then refetched
        leaves = step
        value = loss.values.item()
        if not np.isfinite(value):
            raise DivergenceError(f"non-finite training loss at epoch {epoch}")
        losses.append(value)
        ad.backward(loss)
        ad.sgd_step(arrays, [t.grad for t in leaves],
                    cfg.train.learning_rate, cfg.train.weight_decay)
    for a in params.values():
        a.flags.writeable = False

    # the frozen embeddings of the batch it trained on, chunked as embed_batch's
    embeddings = embed_chunks(len(batch), lambda i, j: batch[i:j], params, enc_cfg)
    if not np.isfinite(embeddings).all():  # a finite loss does not rule out overflowed weights
        raise DivergenceError("base-session embeddings are not finite after training at "
                              f"train.learning_rate = {cfg.train.learning_rate}")
    onehot = np.eye(len(labels))[episode.targets]
    lam = np.inf if cfg.classifier.kind == "pbc" else cfg.classifier.fixed_lam()
    if lam is None:
        lam = cls.select_lambda_cv(embeddings, onehot, cfg.classifier.lam_grid,
                                   cfg.classifier.cv_folds, seed)
    classifier = cls.update_incremental(cls.RidgeState.empty(embeddings.shape[1], lam),
                                        embeddings, onehot, labels)
    return BaseSessionResult(params=params, classifier=classifier, epoch_losses=losses)


def run_incremental_session(params: enc.MeeParams, classifier, episode: Episode,
                            pipeline: ClipPipeline):
    """Frozen-extractor session: embed the episode, update the classifier
    analytically under the base session's λ. The extractor's arrays are
    read-only (``run_base_session``, ``load_params``), so nothing here can
    write into them."""
    embeddings = pipeline.embed_batch(episode.pairs, params)
    onehot = np.eye(len(episode.labels))[episode.targets]
    return cls.update_incremental(classifier, embeddings, onehot, episode.labels)


# ---------------------------------------------------------------------------
# evaluation and metrics


@dataclass
class EvalResult:
    accuracy: float
    correct: int
    total: int


def union_test_refs(plan: SessionPlan, m: int) -> list[ClipRef]:
    """The union of the test sets of sessions 0..m, in session and label
    order; so the refs through m are a prefix of the refs through M > m."""
    refs: list[ClipRef] = []
    for label in plan.labels_through(m):
        refs.extend(plan.test_items[label])
    return refs


def evaluate(classifier, plan: SessionPlan, m: int, embedded: np.ndarray) -> EvalResult:
    """Accuracy over the union of the test sets of sessions 0..m.

    ``embedded`` holds the frozen-extractor embeddings of
    ``union_test_refs(plan, M)`` for some M >= m, in that order; its first
    rows are the test set through m, scored in one ``predict`` call.
    """
    for label in plan.labels_through(m):
        if label not in classifier.registry:
            raise ProtocolViolationError(f"test class {label!r} not yet registered")
    refs = union_test_refs(plan, m)
    if not refs:
        raise UsageError("no test items to evaluate")
    if embedded.shape[0] < len(refs):
        raise UsageError(f"{embedded.shape[0]} embedded test rows, session {m} needs {len(refs)}")
    predicted, _ = cls.predict(cls.solve_weights(classifier), classifier.registry, embedded[: len(refs)])
    truth = np.array([ref.label for ref in refs], dtype=object)
    correct = int(np.sum(predicted == truth))
    return EvalResult(accuracy=correct / len(refs), correct=correct, total=len(refs))


def compute_aa(accuracies) -> float:
    """Mean accuracy over sessions."""
    accuracies = list(accuracies)
    if not accuracies:
        raise UsageError("compute_aa of empty accuracy list")
    return float(np.mean(accuracies))


def compute_pd(accuracies) -> float:
    """Accuracy drop from the first to the last session."""
    accuracies = list(accuracies)
    if not accuracies:
        raise UsageError("compute_pd of empty accuracy list")
    return accuracies[0] - accuracies[-1]


# ---------------------------------------------------------------------------
# repeated runs


@dataclass
class RunReport:
    seed: int
    accuracies: list[float]  # A_0..A_M
    aa: float
    pd: float


@dataclass
class ExperimentReport:
    runs: list[RunReport]
    mean_accuracies: list[float]
    std_accuracies: list[float]
    mean_aa: float
    std_aa: float
    mean_pd: float
    std_pd: float


def aggregate_runs(runs: list[RunReport]) -> ExperimentReport:
    if not runs:
        raise UsageError("no runs to aggregate")
    acc = np.array([r.accuracies for r in runs])
    aas = np.array([r.aa for r in runs])
    pds = np.array([r.pd for r in runs])
    return ExperimentReport(
        runs=runs,
        mean_accuracies=acc.mean(axis=0).tolist(),
        std_accuracies=acc.std(axis=0).tolist(),
        mean_aa=float(aas.mean()),
        std_aa=float(aas.std()),
        mean_pd=float(pds.mean()),
        std_pd=float(pds.std()),
    )


def build_plan(cfg: ExperimentConfig) -> SessionPlan:
    if cfg.data.source == "manifest":
        refs = read_manifest(cfg.data.manifest)
    else:
        refs = synthetic_dataset(cfg.synth, cfg.run.seed)
    return make_splits(refs, cfg.plan, cfg.run.seed)


def run_single(cfg: ExperimentConfig, run_seed: int, plan: SessionPlan,
               pipeline: ClipPipeline) -> tuple[RunReport, BaseSessionResult]:
    base_episode = sample_episode(plan, 0, run_seed)
    base = run_base_session(base_episode, pipeline, cfg, run_seed)
    # the extractor is frozen from here on: embed every test clip once
    embedded = pipeline.embed_batch(union_test_refs(plan, plan.num_incremental), base.params)
    classifier = base.classifier
    accuracies = [evaluate(classifier, plan, 0, embedded).accuracy]
    for m in range(1, plan.num_incremental + 1):
        episode = sample_episode(plan, m, run_seed)
        classifier = run_incremental_session(base.params, classifier, episode, pipeline)
        accuracies.append(evaluate(classifier, plan, m, embedded).accuracy)
    report = RunReport(seed=run_seed, accuracies=accuracies,
                       aa=compute_aa(accuracies), pd=compute_pd(accuracies))
    base.classifier = classifier  # final state after all sessions
    return report, base


def run_repeated(cfg: ExperimentConfig) -> tuple[ExperimentReport, BaseSessionResult]:
    """``cfg.run.repeats`` independent runs (seed = base_seed + r),
    aggregated, plus the last run's BaseSessionResult so callers can
    persist the trained artifacts. Each run owns its arrays, so runs on
    separate threads cannot touch each other's extractor."""
    plan = build_plan(cfg)
    pipeline = ClipPipeline(cfg)

    def one(r: int):
        try:
            return run_single(cfg, cfg.run.seed + r, plan, pipeline)
        except FfcacError as e:
            raise type(e)(f"run {r}: {e}") from e

    reports = []
    with concurrent.futures.ThreadPoolExecutor(max_workers=cfg.run.threads) as pool:
        # lazy: a failed serial run stops the rest, and each run's artifacts
        # are released as the next returns, so only the last run's are kept
        for report, last in (pool.map if cfg.run.threads > 1 else map)(one, range(cfg.run.repeats)):
            reports.append(report)
    return aggregate_runs(reports), last


# ---------------------------------------------------------------------------
# report rendering


def _round6(value):
    """Every float in a nested list or dict rounded to 6 places; ints and
    other values as they are."""
    if isinstance(value, dict):
        return {k: _round6(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_round6(v) for v in value]
    return round(float(value), 6) if isinstance(value, float) else value


def report_to_json(report: ExperimentReport, cfg: ExperimentConfig) -> str:
    """Deterministic JSON: fractions at 6 decimal places, keys in the
    dataclasses' field order, no timestamps."""
    aggregate = _round6(asdict(report))
    runs = aggregate.pop("runs")
    doc = {
        "sessions": len(report.mean_accuracies),
        "config": cfg.to_flat_dict(),
        "aggregate": aggregate,
        "runs": runs,
    }
    return json.dumps(doc, indent=2) + "\n"


def json_report_to_csv(json_text: str) -> str:
    """Per-session table of a ``report_to_json`` document: one row per run
    plus mean and std rows. Anything else raises IngestionError."""

    def fmt(tag, accs, aa, pd):
        return ",".join([tag] + [f"{a:.6f}" for a in accs] + [f"{aa:.6f}", f"{pd:.6f}"])

    try:
        doc = json.loads(json_text)
        agg = doc["aggregate"]
        header = ["run"] + [f"A_{m}" for m in range(len(agg["mean_accuracies"]))] + ["AA", "PD"]
        lines = [",".join(header)]
        for i, run in enumerate(doc["runs"]):
            lines.append(fmt(str(i), run["accuracies"], run["aa"], run["pd"]))
        lines.append(fmt("mean", agg["mean_accuracies"], agg["mean_aa"], agg["mean_pd"]))
        lines.append(fmt("std", agg["std_accuracies"], agg["std_aa"], agg["std_pd"]))
    # ValueError covers bad JSON; OverflowError an int too large for :.6f
    except (ValueError, KeyError, TypeError, RecursionError, OverflowError) as e:
        raise IngestionError(f"not an ffcac report: {type(e).__name__}: {e}") from e
    return "\n".join(lines) + "\n"
