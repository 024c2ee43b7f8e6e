import concurrent.futures
import hashlib
import itertools
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from ffcac import autodiff as ad
from ffcac import classifiers as cls
from ffcac import weights_io as wio
from ffcac.autodiff import Tensor
from ffcac.errors import (
    NumericError,
    ProtocolViolationError,
    SolverError,
    StratificationError,
    UsageError,
    WeightsFormatError,
    WeightsShapeError,
)

from tests.helpers import grad_check, lstsq_weights


# ---------------------------------------------------------------------------
# cosine-softmax loss


def test_equal_cosines_give_log_n():
    # embedding orthogonal to every weight row -> all cosines 0 -> uniform
    w = np.zeros((5, 8))
    w[:, :5] = np.eye(5)
    head = Tensor(w, requires_grad=True)
    e = np.zeros((1, 8))
    e[0, 7] = 1.0
    loss = cls.cosine_loss(Tensor(e), [2], head, 16.0)
    assert abs(loss.values.item() - np.log(5.0)) <= 1e-12


def test_confident_two_class_loss():
    w = np.array([[1.0, 0.0], [0.0, 1.0]])
    head = Tensor(w, requires_grad=True)
    e = np.array([[2.5, 0.0]])  # cos with true row = 1, other = 0
    loss = cls.cosine_loss(Tensor(e), [0], head, 16.0)
    assert abs(loss.values.item() - np.log(1.0 + np.exp(-16.0))) <= 1e-12


def test_array_head_and_embeddings_are_constants():
    rng = np.random.default_rng(2)
    head, e, labels = cls.init_cosine_head(4, 6, seed=1), rng.normal(size=(3, 6)), [0, 1, 3]
    expected = cls.cosine_loss(Tensor(e), labels, Tensor(head), 16.0)
    for pair in ((e, head), (Tensor(e), head), (e, Tensor(head))):
        loss = cls.cosine_loss(pair[0], labels, pair[1], 16.0)
        assert loss.values == expected.values and not loss.requires_grad


def test_loss_scale_invariant_in_embeddings():
    rng = np.random.default_rng(0)
    head = Tensor(cls.init_cosine_head(4, 6, seed=1))
    e = rng.normal(size=(3, 6))
    labels = [0, 1, 3]
    a = cls.cosine_loss(Tensor(e), labels, head, 16.0).values.item()
    b = cls.cosine_loss(Tensor(5.0 * e), labels, head, 16.0).values.item()
    assert abs(a - b) <= 1e-12


def test_zero_norm_embedding_rejected():
    head = Tensor(cls.init_cosine_head(3, 4, seed=2))
    with pytest.raises(NumericError, match="zero-norm"):
        cls.cosine_loss(Tensor(np.zeros((1, 4))), [0], head, 16.0)


def test_zero_norm_weight_row_rejected():
    head = Tensor(np.zeros((2, 4)), requires_grad=True)
    with pytest.raises(NumericError, match="zero-norm"):
        cls.cosine_loss(Tensor(np.ones((1, 4))), [0], head, 16.0)


@pytest.mark.parametrize("eta", [0.0, -16.0])
def test_cosine_loss_refuses_a_nonpositive_scale(eta):
    head = Tensor(cls.init_cosine_head(3, 4, seed=2))
    with pytest.raises(UsageError, match="cosine head scale must be > 0"):
        cls.cosine_loss(Tensor(np.ones((1, 4))), [0], head, eta)


def test_cosine_loss_gradients():
    rng = np.random.default_rng(3)
    head = Tensor(cls.init_cosine_head(4, 6, seed=4), requires_grad=True)
    e = Tensor(rng.normal(size=(5, 6)), requires_grad=True)
    labels = np.array([0, 1, 2, 3, 1])

    err = grad_check(lambda: cls.cosine_loss(e, labels, head, 16.0), [e, head])
    assert err <= 1e-4, f"rel err {err}"


# ---------------------------------------------------------------------------
# ridge fit


def test_fit_base_hand_case_lam_zero():
    state = cls.fit_base(2.0 * np.eye(2), np.eye(2), 0.0)
    assert np.allclose(cls.solve_weights(state), 0.5 * np.eye(2), atol=1e-12)


def test_fit_base_hand_case_lam_one():
    state = cls.fit_base(2.0 * np.eye(2), np.eye(2), 1.0)
    assert np.allclose(cls.solve_weights(state), 0.4 * np.eye(2), atol=1e-12)


def test_fit_base_orthonormal_collapses_to_crossmatrix():
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    y = np.eye(6)[rng.integers(0, 6, size=6)]
    state = cls.fit_base(q, y, 0.0)
    assert np.allclose(cls.solve_weights(state), q.T @ y, atol=1e-10)


def test_fit_base_singular_requires_lam():
    E = np.ones((2, 5))  # rank 1, lam 0 -> singular normal equations
    with pytest.raises(SolverError, match="lam > 0"):
        cls.fit_base(E, np.eye(2), 0.0)


def test_fit_base_rejects_bad_inputs():
    with pytest.raises(UsageError):
        cls.fit_base(np.zeros((0, 3)), np.zeros((0, 2)), 1.0)
    with pytest.raises(UsageError):
        cls.fit_base(np.eye(2), np.eye(2), -1.0)


@pytest.mark.parametrize("lam", [np.nan])  # inf is the prototype limit: see below
def test_non_finite_lam_rejected(lam):
    rng = np.random.default_rng(4)
    E, Y = rng.normal(size=(20, 6)), np.eye(4)[np.arange(20) % 4]
    with pytest.raises(UsageError, match="finite"):
        cls.fit_base(E, Y, lam)
    with pytest.raises(UsageError, match="finite"):
        cls.select_lambda_cv(E, Y, [1.0, lam], k_folds=5, seed=0)
    # a state built around fit_base: the NaN residual fails the bound
    state = cls.RidgeState(gram=E.T @ E, cross=E.T @ Y, lam=lam, registry=tuple(range(4)))
    with np.errstate(invalid="ignore"), pytest.raises(SolverError, match="residual"):
        cls.solve_weights(state)


@pytest.mark.parametrize("dim", [6, 40])  # both fold system sides
def test_cv_rejects_non_finite_embeddings(dim):
    rng = np.random.default_rng(5)
    E, Y = rng.normal(size=(20, dim)), np.eye(4)[np.arange(20) % 4]
    E[3, 2] = np.nan
    with pytest.raises(NumericError, match="embeddings are not finite"):
        cls.select_lambda_cv(E, Y, [1.0, 10.0], k_folds=5, seed=0)


def test_lam_zero_full_rank_matches_lstsq_oracle():
    rng = np.random.default_rng(7)
    E = rng.normal(size=(30, 8))
    y = np.eye(4)[rng.integers(0, 4, size=30)]
    state = cls.fit_base(E, y, 0.0)
    assert np.max(np.abs(cls.solve_weights(state) - lstsq_weights(E, y))) <= 1e-8


# ---------------------------------------------------------------------------
# incremental updates


def test_update_rejects_duplicate_label():
    state = cls.fit_base(np.eye(2), np.eye(2), 0.1, labels=["a", "b"])
    with pytest.raises(ProtocolViolationError, match="already registered"):
        cls.update_incremental(state, np.eye(2), np.eye(2), ["b", "c"])


def _ridge_ab():
    return cls.fit_base(np.eye(2), np.eye(2), 0.1, labels=["a", "b"])


def _prototypes(dim, e, y, labels):
    """The prototype baseline: the memory at lam = inf, where W = C (class sums)."""
    return cls.update_incremental(cls.RidgeState.empty(dim, np.inf), e, y, labels)


def _prototypes_ab():
    return _prototypes(2, np.eye(2), np.eye(2), ["a", "b"])


# every way classes enter, given labels it cannot take: (maker of a
# classifier holding a and b, or None for the base fit; the new labels;
# the error message)
_REPEATED_LABELS = {
    "ridge-update-registered": (_ridge_ab, ["b", "c"], "labels already registered: ['b']"),
    "ridge-update-twice": (_ridge_ab, ["c", "c"], "duplicate labels within one session: ['c', 'c']"),
    "prototypes-update-registered": (_prototypes_ab, ["c", "a"], "labels already registered: ['a']"),
    "prototypes-update-twice": (_prototypes_ab, ["c", "c"],
                                "duplicate labels within one session: ['c', 'c']"),
    "fit-base-twice": (None, ["a", "a"], "duplicate labels within one session: ['a', 'a']"),
}


@pytest.mark.parametrize("case", sorted(_REPEATED_LABELS))
def test_repeated_label_rejected(case):
    before, labels, message = _REPEATED_LABELS[case]
    classifier = before and before()
    with pytest.raises(ProtocolViolationError, match=re.escape(message)):
        if classifier is None:
            cls.fit_base(np.eye(2), np.eye(2), 0.1, labels)
        else:
            cls.update_incremental(classifier, np.eye(2), np.eye(2), labels)
    assert classifier is None or classifier.registry == ("a", "b")  # left as it was


def test_update_with_empty_session_grows_registry_only():
    state = cls.fit_base(np.eye(2), np.eye(2), 0.1, labels=["a", "b"])
    grown = cls.update_incremental(state, np.zeros((0, 2)), np.zeros((0, 1)), ["c"])
    assert grown.registry == ("a", "b", "c")
    assert np.array_equal(grown.gram, state.gram)
    assert np.array_equal(grown.cross[:, :2], state.cross)
    assert np.all(grown.cross[:, 2] == 0.0)


# sessions no classifier can take: (embeddings, targets, labels) for a
# memory of width 4
_MALFORMED_SESSIONS = [
    ("width-2-rows-read-as-width-4", np.ones((6, 2)), np.ones((3, 1)), ["x"]),
    ("fewer-targets-than-rows", np.ones((3, 4)), np.ones((2, 1)), ["x"]),
    ("one-dimensional-embeddings", np.ones(4), np.ones((1, 1)), ["x"]),
    ("one-dimensional-targets", np.ones((3, 4)), np.ones(3), ["x"]),
    ("more-labels-than-columns", np.ones((4, 4)), np.eye(2)[[0, 1, 0, 1]], ["x", "y", "z"]),
    ("fewer-labels-than-columns", np.ones((3, 4)), np.eye(3), ["x", "y"]),
    ("width-5-rows", np.ones((3, 5)), np.ones((3, 1)), ["x"]),
    ("nan-embedding", np.array([[np.nan, 1.0, 2.0, 3.0]]), np.ones((1, 1)), ["x"]),
    ("inf-embedding", np.array([[1.0, -np.inf, 2.0, 3.0]]), np.ones((1, 1)), ["x"]),
    ("nan-target", np.ones((1, 4)), np.full((1, 1), np.nan), ["x"]),
]

# the update of a ridge memory, of the prototype memory (lam = inf) and the base fit
_SESSION_TARGETS = {
    "RidgeState.update": lambda e, y, labels: cls.update_incremental(cls.fit_base(
        np.eye(4), np.eye(4), 0.1, list("abcd")), e, y, labels),
    "Prototypes.update": lambda e, y, labels: cls.update_incremental(_prototypes(
        4, np.eye(4), np.eye(4), list("abcd")), e, y, labels),
    "fit_base": lambda e, y, labels: cls.fit_base(e, y, 0.1, labels),
}


@pytest.mark.parametrize("target, e, y, labels", [
    pytest.param(target, e, y, labels, id=f"{target}-{name}")
    for target in _SESSION_TARGETS for name, e, y, labels in _MALFORMED_SESSIONS
    if not (target == "fit_base" and name == "width-5-rows")  # a valid base session
])
def test_malformed_session_rejected(target, e, y, labels):
    # a non-finite session is a numeric failure, the others are misuse
    finite = np.isfinite(e).all() and np.isfinite(y).all()
    with pytest.raises(UsageError if finite else NumericError, match=None if finite else "not finite"):
        _SESSION_TARGETS[target](e, y, labels)


def test_one_dimensional_hand_case():
    state = cls.fit_base(np.array([[2.0]]), np.array([[1.0]]), 0.0, labels=["a"])
    state = cls.update_incremental(state, np.array([[1.0]]), np.array([[1.0]]), ["b"])
    assert np.allclose(state.gram, [[5.0]])
    assert np.allclose(cls.solve_weights(state), [[2.0 / 5.0, 1.0 / 5.0]], atol=1e-12)


def test_two_sessions_equal_concatenated_batch_fit():
    rng = np.random.default_rng(11)
    d = 6
    e0, e1 = rng.normal(size=(8, d)), rng.normal(size=(7, d))
    y0 = np.eye(3)[rng.integers(0, 3, size=8)]
    y1 = np.eye(2)[rng.integers(0, 2, size=7)]
    lam = 0.1
    seq = cls.update_incremental(cls.fit_base(e0, y0, lam), e1, y1, [3, 4])
    batch_y = np.zeros((15, 5))
    batch_y[:8, :3] = y0
    batch_y[8:, 3:] = y1
    batch = cls.fit_base(np.vstack([e0, e1]), batch_y, lam, labels=[0, 1, 2, 3, 4])
    assert np.max(np.abs(cls.solve_weights(seq) - cls.solve_weights(batch))) <= 1e-8


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 12), st.integers(1, 4))
def test_incremental_batch_equivalence_property(seed, dim, n_sessions):
    rng = np.random.default_rng(seed)
    lam = float(rng.choice([0.1, 1.0, 10.0]))
    blocks = []
    labels_per_session = []
    label_at = 0
    for _ in range(n_sessions + 1):
        n = int(rng.integers(2, 8))
        classes = int(rng.integers(1, 4))
        e = rng.normal(size=(n, dim))
        y = np.eye(classes)[rng.integers(0, classes, size=n)]
        blocks.append((e, y))
        labels_per_session.append(list(range(label_at, label_at + classes)))
        label_at += classes
    state = cls.fit_base(blocks[0][0], blocks[0][1], lam, labels=labels_per_session[0])
    for (e, y), labels in zip(blocks[1:], labels_per_session[1:]):
        state = cls.update_incremental(state, e, y, labels)
    all_e = np.vstack([e for e, _ in blocks])
    all_y = np.zeros((all_e.shape[0], label_at))
    row = 0
    for (e, y), labels in zip(blocks, labels_per_session):
        all_y[row : row + e.shape[0], labels[0] : labels[0] + len(labels)] = y
        row += e.shape[0]
    batch = cls.fit_base(all_e, all_y, lam, labels=list(range(label_at)))
    assert np.max(np.abs(cls.solve_weights(state) - cls.solve_weights(batch))) <= 1e-8


def test_gram_stays_symmetric_psd_over_updates():
    rng = np.random.default_rng(13)
    state = cls.fit_base(rng.normal(size=(5, 6)), np.eye(2)[rng.integers(0, 2, 5)], 1.0,
                         labels=["s0a", "s0b"])
    for m in range(5):
        e = rng.normal(size=(4, 6))
        y = np.eye(1)[np.zeros(4, dtype=int)]
        state = cls.update_incremental(state, e, y, [f"s{m + 1}"])
        assert np.max(np.abs(state.gram - state.gram.T)) <= 1e-10
        eigs = np.linalg.eigvalsh(state.gram)
        assert eigs.min() >= -1e-9 * np.trace(state.gram)


# ---------------------------------------------------------------------------
# solving and prediction


def test_huge_lam_shrinks_weights():
    rng = np.random.default_rng(17)
    e = rng.normal(size=(10, 4))
    y = np.eye(2)[rng.integers(0, 2, 10)]
    state = cls.fit_base(e, y, 1e12)
    w = cls.solve_weights(state)
    assert np.max(np.abs(w)) <= np.max(np.abs(state.cross)) / 1e12 * (1 + 1e-9)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_normal_equation_residual_bound(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 20))
    n = int(rng.integers(d, 3 * d + 1))
    classes = int(rng.integers(1, 5))
    e = rng.normal(size=(n, d)) * rng.uniform(0.1, 10)
    y = np.eye(classes)[rng.integers(0, classes, n)]
    lam = float(rng.choice([0.0, 0.1, 10.0]))
    if lam == 0.0 and np.linalg.matrix_rank(e) < d:
        return
    state = cls.fit_base(e, y, lam)
    w = cls.solve_weights(state)
    system = state.gram + lam * np.eye(d)
    residual = np.max(np.abs(system @ w - state.cross))
    assert residual <= 1e-8 * (1.0 + np.max(np.abs(state.cross)))


def _flaky_factor(monkeypatch, failures):
    """Make the first ``failures`` calls of the Cholesky seam raise
    LinAlgError; returns a copy of the system each call was handed."""
    real, seen = cls._cholesky_solve, []

    def flaky(a, rhs):
        seen.append(np.array(a))
        if len(seen) <= failures:
            raise np.linalg.LinAlgError("forced failure")
        return real(a, rhs)

    monkeypatch.setattr(cls, "_cholesky_solve", flaky)
    return seen


def _state(lam, dim=12, rows=40, seed=61):
    rng = np.random.default_rng(seed)
    e, y = rng.normal(size=(rows, dim)), np.eye(3)[np.arange(rows) % 3]
    return cls.RidgeState(gram=e.T @ e, cross=e.T @ y, lam=lam, registry=tuple(range(3)))


def _cv_data(dim, rows=36, seed=61):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(rows, dim)), np.eye(3)[np.arange(rows) % 3]


# each Cholesky path at lam and width factor k: the session solve on 40k
# rows and lam-CV, whose 2 folds train on 18k rows, so D = 30k factors the
# 18k x 18k kernel and D = 12k the gram. k = 1 gives orders 12 and 18,
# numpy's side of NUMPY_MAX_ORDER; k = 6 gives 72 and 108, scipy's side.
_SOLVES = {
    "solve_weights": lambda lam, k: cls.solve_weights(_state(lam, 12 * k, 40 * k)),
    "cv-n<D": lambda lam, k: cls.select_lambda_cv(*_cv_data(30 * k, 36 * k), [lam, 10.0], k_folds=2, seed=0),
    "cv-n>=D": lambda lam, k: cls.select_lambda_cv(*_cv_data(12 * k, 36 * k), [lam, 10.0], k_folds=2, seed=0),
}
_ORDERS = {"solve_weights": 12, "cv-n<D": 18, "cv-n>=D": 12}


def test_solve_retries_once_with_jitter(monkeypatch):
    lam = 0.1
    for (solve, order), k in itertools.product(_ORDERS.items(), (1, 6)):
        size = order * k
        assert (size <= cls.NUMPY_MAX_ORDER) == (k == 1)  # each library's side of the limit
        clean = _flaky_factor(monkeypatch, failures=0)
        expected = _SOLVES[solve](lam, k)
        monkeypatch.undo()
        seen = _flaky_factor(monkeypatch, failures=1)
        result = _SOLVES[solve](lam, k)
        monkeypatch.undo()
        assert len(seen) == len(clean) + 1
        first, retry = seen[0], seen[1]
        assert first.shape == (size, size)
        off_diagonal = ~np.eye(size, dtype=bool)
        assert np.array_equal(retry[off_diagonal], first[off_diagonal])
        jitter = 1e-10 * (np.trace(first) - size * lam) / size
        assert np.allclose(np.diag(retry) - np.diag(first), jitter, rtol=1e-4, atol=0.0)
        if solve != "solve_weights":
            assert result == expected  # the retried fold picks the same lam
            continue
        state = _state(lam, size, 40 * k)
        jitter = 1e-10 * np.trace(state.gram) / state.dim
        assert np.array_equal(np.diag(retry), np.diag(state.gram) + lam + jitter)
        residual = np.max(np.abs((state.gram + lam * np.eye(state.dim)) @ result - state.cross))
        assert residual <= cls.RESIDUAL_RTOL * (1.0 + np.max(np.abs(state.cross)))
        assert np.allclose(result, cls.solve_weights(_state(lam + jitter, size, 40 * k)), rtol=0.0, atol=1e-14)


def test_solve_fails_when_jitter_does_not_help(monkeypatch):
    for solve, k in itertools.product(_SOLVES.values(), (1, 6)):
        _flaky_factor(monkeypatch, failures=2)
        with pytest.raises(SolverError, match="even after jitter"):
            solve(0.1, k)
        _flaky_factor(monkeypatch, failures=1)
        with pytest.raises(SolverError, match="singular at lam = 0"):
            solve(0.0, k)
        monkeypatch.undo()


def _shifted_copy(gram, *shifts):
    system = gram.copy(order="F")
    for s in shifts:
        system.flat[:: len(system) + 1] += s
    return system


def _f_ordered_solve(gram, cross, *shifts):
    """The solve as it was written before the contiguous copy: cho_solve of
    cho_factor on a Fortran-ordered copy of gram + s*I for each shift."""
    system = _shifted_copy(gram, *shifts)
    return scipy.linalg.cho_solve(scipy.linalg.cho_factor(system, lower=True), cross)


def _numpy_solve(gram, cross, *shifts):
    """numpy's Cholesky factor L of the same copy, then L Z = C and L^T W = Z."""
    low = np.linalg.cholesky(_shifted_copy(gram, *shifts))
    return np.linalg.solve(low.T, np.linalg.solve(low, cross))


@pytest.mark.parametrize("dim", [32, 768])
@pytest.mark.parametrize("retry", [False, True], ids=["first-try", "jitter-retry"])
def test_solve_weights_matches_the_f_ordered_copy_bit_for_bit(tmp_path, monkeypatch, dim, retry):
    oracle = _numpy_solve if dim <= cls.NUMPY_MAX_ORDER else _f_ordered_solve
    rng = np.random.default_rng(71)
    e, y = rng.normal(size=(dim // 2 + 40, dim)), np.eye(10)[np.arange(dim // 2 + 40) % 10]
    state = cls.fit_base(e, y, 0.5, labels=[f"c{k}" for k in range(10)])
    path = tmp_path / "clf.weights"
    cls.save_state(path, state)
    for memory in (cls.RidgeState(state.gram, state.cross, state.lam, state.registry),
                   cls.load_state(path)):
        shifts = (memory.lam, 1e-10 * np.trace(memory.gram) / memory.dim) if retry else (memory.lam,)
        expected = oracle(memory.gram, memory.cross, *shifts)
        if retry:
            _flaky_factor(monkeypatch, failures=1)
        assert np.array_equal(cls.solve_weights(memory), expected)
        monkeypatch.undo()


_CHILD_SOLVE = """import sys
import numpy as np
from ffcac import classifiers as cls
e = np.random.default_rng(0).normal(size=(100, {order}))
cls.fit_base(e, np.eye(2)[np.arange(100) % 2], 0.5)
print("scipy" in sys.modules)
"""


@pytest.mark.parametrize("order", [64, 65])
def test_only_a_solve_wider_than_the_limit_loads_scipy(order):
    # a child interpreter: this module has imported scipy itself
    src = str(Path(cls.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _CHILD_SOLVE.format(order=order)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str(order > cls.NUMPY_MAX_ORDER)


def test_empty_memory_solves_to_no_columns_that_predict_refuses(tmp_path):
    empty = cls.RidgeState.empty(2, 0.1)
    saved = cls.load_state(_saved_state(tmp_path, GOOD_GRAM, np.zeros((2, 0)), [0.1], []))
    for memory in (empty, saved, cls.RidgeState.empty(2, np.inf)):
        weights = cls.solve_weights(memory)
        assert weights.shape == (2, 0)
        for query in (np.ones(2), np.ones((3, 2))):
            with pytest.raises(ProtocolViolationError, match="no classes registered"):
                cls.predict(weights, (), query)


def test_solve_cache_stable():
    state = cls.fit_base(np.eye(3) * 2.0, np.eye(3), 0.5)
    w1 = cls.solve_weights(state)
    w2 = cls.solve_weights(state)
    assert w1 is w2


def test_predict_picks_matching_column():
    w = np.eye(3)
    registry = ("a", "b", "c")
    label, scores = cls.predict(w, registry, np.array([0.0, 1.0, 0.0]))
    assert label == "b"
    assert scores.shape == (3,)


def test_predict_scale_invariant():
    rng = np.random.default_rng(19)
    w = rng.normal(size=(6, 4))
    registry = tuple("abcd")
    e = rng.normal(size=6)
    l1, s1 = cls.predict(w, registry, e)
    l5, s5 = cls.predict(w, registry, 5.0 * e)
    assert l1 == l5
    assert np.allclose(s1, s5, atol=1e-15)


def test_predict_tie_breaks_to_lowest_index():
    w = np.stack([np.array([1.0, 0.0]), np.array([1.0, 0.0])], axis=1)  # identical columns
    registry = ("first", "second")
    label, _ = cls.predict(w, registry, np.array([2.0, 0.0]))
    assert label == "first"


def test_predict_rejects_zero_embedding():
    registry = ("a",)
    with pytest.raises(NumericError):
        cls.predict(np.ones((3, 1)), registry, np.zeros(3))


def test_predict_matrix_matches_row_by_row_calls():
    # integer entries keep every dot product exact, so the duplicated
    # columns 1 and 4 tie exactly in both the matrix and the one-row call
    rng = np.random.default_rng(41)
    w = rng.integers(-3, 4, size=(6, 5)).astype(float)
    w[:, 2] = 0.0  # zero-norm column: scores 0
    w[:, 4] = w[:, 1]
    registry = ("a", "b", "c", "d", "e")
    rows = rng.integers(1, 4, size=(12, 6)) * rng.choice([-1.0, 1.0], size=(12, 6))
    e = np.vstack([rows, w[:, 1], 2.0 * w[:, 1]])
    labels, scores = cls.predict(w, registry, e)
    assert labels.shape == (len(e),) and scores.shape == (len(e), 5)
    assert np.all(scores[:, 2] == 0.0)
    assert np.array_equal(scores[:, 1], scores[:, 4])
    assert list(labels[-2:]) == ["b", "b"]  # tie between b and e: lowest index
    for row, label, row_scores in zip(e, labels, scores):
        one_label, one_scores = cls.predict(w, registry, row)
        assert one_label == label
        assert np.max(np.abs(one_scores - row_scores)) <= 1e-12


def test_predict_matrix_rejects_a_zero_row():
    registry = ("a", "b")
    e = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    with pytest.raises(NumericError):
        cls.predict(np.eye(3)[:, :2], registry, e)


def test_predict_rejects_higher_rank_queries():
    with pytest.raises(UsageError):
        cls.predict(np.eye(3), tuple("abc"), np.ones((2, 2, 3)))


def _norm_cosine_scores(W, e):
    """The np.linalg.norm formula cosine_scores replaced, as an oracle."""
    rows = np.atleast_2d(e)
    col_norms = np.linalg.norm(W, axis=0)
    scores = (rows @ W) / (np.linalg.norm(rows, axis=1)[:, None]
                           * np.where(col_norms > 0.0, col_norms, 1.0))
    scores = np.where(col_norms > 0.0, scores, 0.0)
    return scores if e.ndim == 2 else scores[0]


@pytest.mark.parametrize("order", ["C", "F"])  # solve_weights returns F-ordered W
def test_cosine_scores_match_norm_formula(order):
    rng = np.random.default_rng(43)
    w = np.asarray(rng.normal(size=(768, 100)), order=order)
    w[:, 7] = 0.0
    for e in (rng.normal(size=768), rng.normal(size=(9, 768))):
        scores, oracle = cls.cosine_scores(w, e), _norm_cosine_scores(w, e)
        assert scores.shape == oracle.shape
        assert np.max(np.abs(scores - oracle)) <= 1e-15
        assert np.array_equal(np.argmax(scores, axis=-1), np.argmax(oracle, axis=-1))
        assert np.all(scores[..., 7] == 0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_predict_rejects_a_non_finite_row(bad):
    registry = ("a", "b", "c")
    with pytest.raises(NumericError):
        cls.predict(np.eye(3), registry, np.array([bad, 1.0, 0.0]))
    with pytest.raises(NumericError):
        cls.predict(np.eye(3), registry, np.array([[1.0, 0.0, 0.0], [bad, 1.0, 0.0]]))


# ---------------------------------------------------------------------------
# read-only weights and the column-norm memo


def _read_only(w):
    w = np.array(w, order="F")  # owns its data, like a solve_weights result
    w.flags.writeable = False
    return w


def _queries(rng, dim):
    return rng.normal(size=dim), rng.normal(size=(7, dim))


def test_solve_weights_returns_read_only_weights():
    state = cls.fit_base(np.eye(3) * 2.0, np.eye(3), 0.5)
    w = cls.solve_weights(state)
    assert not w.flags.writeable
    with pytest.raises(ValueError):
        w[0, 0] = 1.0
    assert np.allclose(cls.solve_weights(state), np.eye(3) / 2.25, atol=1e-12)


def test_read_only_weights_score_like_a_writeable_copy():
    rng = np.random.default_rng(47)
    e = rng.normal(size=(30, 12))
    y = np.zeros((30, 5))
    y[np.arange(30), np.arange(30) % 4] = 1.0  # class 4 has no samples: a zero column
    solved = cls.solve_weights(cls.fit_base(e, y, 0.1))
    assert np.all(solved[:, 4] == 0.0)
    built = rng.normal(size=(12, 5))
    built[:, 2] = 0.0
    for w in (solved, _read_only(built)):
        for q in _queries(rng, 12):
            fresh = cls.cosine_scores(np.copy(w), q)
            assert np.array_equal(cls.cosine_scores(w, q), fresh)  # fills the memo
            assert np.array_equal(cls.cosine_scores(w, q), fresh)  # reads it


def test_writeable_weights_are_scored_on_their_current_values():
    rng = np.random.default_rng(53)
    w = rng.normal(size=(8, 4))
    view = w[:, :]
    view.flags.writeable = False  # read-only, but its owner can still change
    for q in _queries(rng, 8):
        for scored in (w, view):
            before = cls.cosine_scores(scored, q)
            w[:, 0] *= 3.0
            w[:, 1] = 0.0
            after = cls.cosine_scores(scored, q)
            assert not np.array_equal(before, after)
            assert np.all(after[..., 1] == 0.0)
            assert np.array_equal(after, cls.cosine_scores(np.copy(w), q))
            w[:] = rng.normal(size=w.shape)


def test_column_norm_memo_never_serves_stale_norms():
    rng = np.random.default_rng(59)
    a, b = _read_only(rng.normal(size=(10, 6))), _read_only(5.0 * rng.normal(size=(10, 6)))
    row, rows = _queries(rng, 10)
    for _ in range(3):  # alternate two read-only weight matrices
        for w in (a, b):
            assert np.array_equal(cls.cosine_scores(w, row), cls.cosine_scores(np.copy(w), row))
            assert np.array_equal(cls.cosine_scores(w, rows), cls.cosine_scores(np.copy(w), rows))
    for scale in (2.0, 0.5, 7.0):  # free the scored W; the next may reuse its memory
        del a
        a = _read_only(scale * rng.normal(size=(10, 6)))
        assert np.array_equal(cls.cosine_scores(a, rows), cls.cosine_scores(np.copy(a), rows))


def test_column_norm_memo_is_shared_safely_by_threads():
    # run.threads scores independent runs' weights on one memo at once
    rng = np.random.default_rng(67)
    ws = [_read_only((k + 1.0) * rng.normal(size=(16, 5))) for k in range(4)]
    rows = rng.normal(size=(3, 16))
    expected = [cls.cosine_scores(np.copy(w), rows) for w in ws]

    def score(k):
        return all(np.array_equal(cls.cosine_scores(ws[k], rows), expected[k]) for _ in range(300))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(score, k % len(ws)) for k in range(8)]
            assert all(f.result(timeout=60) for f in futures)
    finally:
        sys.setswitchinterval(interval)


def _einsum_scores(W, e):
    """One-row cosine scores as written before the one-row path: the same
    einsum norms, an array-wide finiteness test and the dead-column mask."""
    e_norms = np.sqrt(np.einsum("...j,...j->...", e, e))
    assert ((e_norms > 0.0) & (e_norms < np.inf)).all()
    col_norms = np.sqrt(np.einsum("ij,ij->j", W, W))
    live = col_norms > 0.0
    scores = (e @ W) / (e_norms[..., None] * np.where(live, col_norms, 1.0))
    scores[..., ~live] = 0.0
    return scores


@pytest.mark.parametrize("weights", ["read-only", "read-only-dead-column", "writeable",
                                     "writeable-underflowing-column"])
def test_one_row_scores_match_the_einsum_formula_bit_for_bit(weights):
    rng = np.random.default_rng(73)
    e = rng.normal(size=(60, 96))
    y = np.zeros((60, 6))
    live = 5 if weights == "read-only-dead-column" else 6  # class 5 may have no samples
    y[np.arange(60), np.arange(60) % live] = 1.0
    w = cls.solve_weights(cls.fit_base(e, y, 0.1, labels=list("abcdef")))
    assert np.any(np.all(w == 0.0, axis=0)) == (live == 5)
    if weights.startswith("writeable"):
        w = np.copy(w)
    if weights == "writeable-underflowing-column":
        w[:, 3] = 1e-170  # its squares underflow: a zero norm, but a nonzero product
    for row in rng.normal(size=(5, 96)):
        expected = _einsum_scores(w, row)
        for _ in range(2):  # the first call fills the column-norm memo, the second reads it
            assert np.array_equal(cls.cosine_scores(w, row), expected)
            label, scores = cls.predict(w, tuple("abcdef"), row)
            assert np.array_equal(scores, expected)
            assert label == "abcdef"[int(np.argmax(expected))]


# ---------------------------------------------------------------------------
# cross-validation


def _separable_data(rng, n_classes=3, per_class=10, dim=6, margin=25.0):
    e = np.concatenate(
        [margin * np.eye(dim)[c] + rng.normal(size=(per_class, dim)) for c in range(n_classes)]
    )
    labels = np.repeat(np.arange(n_classes), per_class)
    return e, np.eye(n_classes)[labels]


def test_cv_single_grid_value():
    rng = np.random.default_rng(23)
    e, y = _separable_data(rng)
    assert cls.select_lambda_cv(e, y, [0.37], k_folds=5, seed=0) == 0.37


def test_cv_separable_prefers_smallest_lam():
    rng = np.random.default_rng(29)
    e, y = _separable_data(rng)
    lam = cls.select_lambda_cv(e, y, [1e-3, 1e-2, 1e-1, 1.0, 10.0], k_folds=5, seed=1)
    assert lam == 1e-3  # every lam reaches accuracy 1.0; ties break small


def test_cv_deterministic():
    rng = np.random.default_rng(31)
    e = rng.normal(size=(20, 5))
    y = np.eye(4)[rng.integers(0, 4, 20)]
    counts = y.sum(axis=0)
    if counts.min() < 2:  # ensure stratifiable
        y[: 4 * 2] = np.tile(np.eye(4), (2, 1))
    g = [1e-2, 1.0, 100.0]
    a = cls.select_lambda_cv(e, y, g, k_folds=2, seed=9)
    b = cls.select_lambda_cv(e, y, g, k_folds=2, seed=9)
    assert a == b


def test_cv_rejects_underfilled_class():
    e = np.eye(4)
    y = np.array([[1, 0], [1, 0], [1, 0], [0, 1]], dtype=float)
    for k_folds in (3, 5):  # 5 > n = 4: too many folds is the same error
        with pytest.raises(StratificationError):
            cls.select_lambda_cv(e, y, [0.1], k_folds=k_folds, seed=0)


def test_cv_rejects_no_samples():
    with pytest.raises(UsageError, match="n >= 1"):
        cls.select_lambda_cv(np.zeros((0, 4)), np.zeros((0, 2)), [0.1], k_folds=2, seed=0)


def test_cv_rejects_empty_grid():
    with pytest.raises(UsageError):
        cls.select_lambda_cv(np.eye(4), np.eye(4), [], k_folds=2, seed=0)


def test_cv_rejects_negative_lam():
    with pytest.raises(UsageError):
        cls.select_lambda_cv(np.eye(4), np.eye(2)[[0, 0, 1, 1]], [-1.0, 1.0], k_folds=2, seed=0)


def test_cv_rejects_an_infinite_lam():
    # inf is a valid memory (the prototype baseline) but not a CV candidate
    with pytest.raises(UsageError, match="finite"):
        cls.select_lambda_cv(np.eye(4), np.eye(2)[[0, 0, 1, 1]], [1.0, np.inf], k_folds=2, seed=0)


def _clustered_data(rng, n_classes, per_class, dim, spread):
    means = rng.normal(size=(n_classes, dim))
    e = np.concatenate([m + spread * rng.normal(size=(per_class, dim)) for m in means])
    return e, np.eye(n_classes)[np.repeat(np.arange(n_classes), per_class)]


def _cv_oracle(E, Y, grid, k_folds, seed):
    """The per-(fold, lam) CV that select_lambda_cv replaced: fit_base (a
    D x D gram), solve_weights and predict for every pair. Returns the
    picked lam and the weights in the order the folds and lams are scored."""
    grid = sorted(grid)
    labels = np.argmax(Y, axis=1)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, 0xCF))))
    fold_of = cls._stratified_folds(labels, k_folds, rng)
    weights = {}
    best_lam, best_acc = grid[0], -1.0
    for lam in grid:
        correct = total = 0
        for fold in range(k_folds):
            train = fold_of != fold
            state = cls.fit_base(E[train], Y[train], lam)
            weights[fold, lam] = cls.solve_weights(state)
            pred, _ = cls.predict(weights[fold, lam], state.registry, E[~train])
            correct += int(np.sum(pred == labels[~train]))
            total += len(pred)
        if correct / total > best_acc:
            best_lam, best_acc = lam, correct / total
    return best_lam, [weights[fold, lam] for fold in range(k_folds) for lam in grid]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize(
    "n_classes, per_class, dim, k_folds",
    [(4, 6, 40, 3), (5, 10, 200, 5), (4, 10, 6, 5)],
    ids=["n<D", "n<D-wide", "n>=D"],
)
def test_cv_matches_per_fold_fit_oracle(monkeypatch, seed, n_classes, per_class, dim, k_folds):
    rng = np.random.default_rng(100 + seed)
    e, y = _clustered_data(rng, n_classes, per_class, dim, spread=1.5)
    grid = [1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0, 1000.0]
    oracle_lam, oracle_weights = _cv_oracle(e, y, grid, k_folds, seed)
    scored = []
    real_predict = cls.predict

    def spy(w, registry, rows):
        scored.append(w)
        return real_predict(w, registry, rows)

    monkeypatch.setattr(cls, "predict", spy)
    assert cls.select_lambda_cv(e, y, grid, k_folds, seed) == oracle_lam
    assert len(scored) == len(oracle_weights)
    for w, oracle in zip(scored, oracle_weights):
        assert w.shape == oracle.shape
        assert np.max(np.abs(w - oracle)) <= 1e-8


def test_cv_lam_zero_needs_full_column_rank():
    rng = np.random.default_rng(47)
    wide = _clustered_data(rng, 3, 5, 20, spread=1.0)  # 10 training rows per fold, D = 20
    with pytest.raises(SolverError, match="singular at lam = 0"):
        cls.select_lambda_cv(*wide, [0.0, 1.0], k_folds=3, seed=0)
    tall = _clustered_data(rng, 3, 10, 4, spread=1.0)  # 20 training rows, D = 4
    assert cls.select_lambda_cv(*tall, [0.0], k_folds=3, seed=0) == 0.0


@pytest.mark.parametrize("dim", [20, 4], ids=["n<D", "n>=D"])
def test_cv_checks_the_residual_bound(monkeypatch, dim):
    e, y = _clustered_data(np.random.default_rng(53), 3, 10, dim, spread=1.0)
    monkeypatch.setattr(cls, "RESIDUAL_RTOL", 0.0)
    with pytest.raises(SolverError, match="residual"):
        cls.select_lambda_cv(e, y, [0.1], k_folds=3, seed=0)


# ---------------------------------------------------------------------------
# the prototype baseline: the memory at lam = inf


def test_prototype_single_sample_is_itself():
    e = np.array([[1.0, 2.0], [3.0, 4.0]])
    protos = _prototypes(2, e, np.eye(2), ["a", "b"])
    assert np.array_equal(cls.solve_weights(protos), e.T)


def test_prototype_mean():
    e = np.array([[1.0, 0.0], [0.0, 1.0]])
    protos = _prototypes(2, e, np.ones((2, 1)), ["only"])
    assert np.array_equal(cls.solve_weights(protos), 2 * np.array([[0.5], [0.5]]))  # n times the mean


def test_prototype_empty_class_scores_zero():
    # a class with no samples gets a zero column, as at every finite lam
    protos = _prototypes(2, np.eye(2), np.array([[1.0, 0.0], [1.0, 0.0]]), ["a", "b"])
    assert np.all(cls.solve_weights(protos)[:, 1] == 0.0)
    for q in (np.array([0.5, 1.0]), np.array([[0.5, 1.0], [1.0, -1.0]])):
        label, scores = cls.predict(cls.solve_weights(protos), protos.registry, q)
        assert np.all(scores[..., 1] == 0.0)
        assert np.all(np.asarray(label) == "a")


def test_prototype_predict_scale_invariant():
    rng = np.random.default_rng(37)
    protos = _prototypes(4, rng.normal(size=(6, 4)), np.eye(3)[rng.integers(0, 3, 6)], range(3))
    e = rng.normal(size=4)
    w = cls.solve_weights(protos)
    assert w.shape == (4, 3)
    assert cls.predict(w, protos.registry, e)[0] == cls.predict(w, protos.registry, 9.0 * e)[0]


def test_prototype_update_appends():
    protos = _prototypes(2, np.eye(2), np.eye(2), ["a", "b"])
    grown = cls.update_incremental(protos, np.array([[2.0, 2.0]]), np.ones((1, 1)), ["c"])
    assert grown.registry == ("a", "b", "c")
    # old columns untouched
    assert np.array_equal(cls.solve_weights(grown)[:, :2], cls.solve_weights(protos))
    assert protos.registry == ("a", "b")  # the old classifier is untouched


def _two_sessions(rng, dim):
    """A 4-class base session of 20 rows and a 2-class session of 6 rows."""
    return ((rng.normal(size=(20, dim)), np.eye(4)[np.arange(20) % 4], list("abcd")),
            (rng.normal(size=(6, dim)), np.eye(2)[np.arange(6) % 2], ["e", "f"]))


def test_inf_lam_scores_as_cosine_against_the_class_means():
    rng = np.random.default_rng(59)
    sessions = _two_sessions(rng, 8)
    state = cls.update_incremental(_prototypes(8, *sessions[0]), *sessions[1])
    means = np.hstack([(y.T @ e / y.sum(axis=0)[:, None]).T for e, y, _ in sessions])
    for q in _queries(rng, 8):
        scores, oracle = cls.cosine_scores(cls.solve_weights(state), q), _norm_cosine_scores(means, q)
        assert np.max(np.abs(scores - oracle)) <= 1e-15
        assert np.array_equal(np.argmax(scores, axis=-1), np.argmax(oracle, axis=-1))


def test_ridge_scores_approach_the_inf_scores_as_lam_grows():
    rng = np.random.default_rng(61)
    base, session = _two_sessions(rng, 8)
    state = cls.update_incremental(_prototypes(8, *base), *session)
    queries = rng.normal(size=(50, 8))
    limit = cls.cosine_scores(cls.solve_weights(state), queries)
    top = np.linalg.eigvalsh(state.gram)[-1]
    gaps = [np.max(np.abs(cls.cosine_scores(cls.solve_weights(cls.RidgeState(
                state.gram, state.cross, k * top, state.registry)), queries) - limit))
            for k in (1e2, 1e4, 1e6, 1e8)]
    assert all(later < earlier / 10 for earlier, later in zip(gaps, gaps[1:])), gaps  # O(1/lam)


def test_inf_memory_reloaded_and_updated_matches_the_in_process_weights(tmp_path):
    rng = np.random.default_rng(67)
    base, session = _two_sessions(rng, 8)
    state = _prototypes(8, *base)
    path = tmp_path / "classifier.weights"
    cls.save_state(path, state)
    loaded = cls.load_state(path)
    assert loaded.lam == np.inf and cls.state_checksum(loaded) == cls.state_checksum(state)
    in_process = cls.update_incremental(state, *session)
    reloaded = cls.update_incremental(loaded, *session)
    assert np.array_equal(cls.solve_weights(reloaded), cls.solve_weights(in_process))
    assert reloaded.registry == in_process.registry == tuple("abcdef")


def test_ridge_interface_is_solve_and_update_incremental():
    """The memory is read and grown only through the module functions."""
    assert not hasattr(cls.RidgeState, "weights") and not hasattr(cls.RidgeState, "update")
    rng = np.random.default_rng(43)
    state = cls.fit_base(rng.normal(size=(6, 3)), np.eye(2)[[0, 1, 0, 1, 0, 1]], 0.5, ["a", "b"])
    assert cls.solve_weights(state) is cls.solve_weights(state)  # cached on the state
    e, y = rng.normal(size=(2, 3)), np.eye(1)[[0, 0]]
    grown = cls.update_incremental(state, e, y, ["c"])
    assert grown.registry == ("a", "b", "c") and state.registry == ("a", "b")
    assert np.array_equal(grown.gram, state.gram + e.T @ e)


# ---------------------------------------------------------------------------
# serialization


def _state_bytes(state) -> bytes:
    """The ridge container built here from its layout: gram, cross and
    lambda in f64, then the labels."""
    tensors = [("gram", state.gram), ("cross", state.cross), ("lambda", [state.lam])]
    return wio.serialize_container(tensors, labels=state.registry, dtype="f64")


def test_state_round_trip(tmp_path):
    rng = np.random.default_rng(41)
    state = cls.fit_base(rng.normal(size=(9, 5)), np.eye(3)[rng.integers(0, 3, 9)], 0.25,
                         labels=["a", "b", "c"])
    path = tmp_path / "clf.weights"
    cls.save_state(path, state)
    # saving and hashing go piece by piece, yet see the container bytes
    data = _state_bytes(state)
    assert path.read_bytes() == data
    assert cls.state_checksum(state) == hashlib.sha256(data).hexdigest()
    loaded = cls.load_state(path)
    (from_file, file_labels), (from_bytes, byte_labels) = (
        wio.load_container(path), wio.parse_container(path.read_bytes()))
    assert file_labels == byte_labels == ["a", "b", "c"]
    assert from_file.keys() == from_bytes.keys()
    assert all(np.array_equal(from_file[k], from_bytes[k]) for k in from_bytes)
    assert np.array_equal(loaded.gram, state.gram)
    assert np.array_equal(loaded.cross, state.cross)
    assert loaded.lam == state.lam
    assert loaded.registry == ("a", "b", "c")
    assert np.allclose(cls.solve_weights(loaded), cls.solve_weights(state), atol=1e-15)


def _saved_state(tmp_path, gram, cross, lam, labels):
    path = tmp_path / "bad.weights"
    tensors = [("gram", np.asarray(gram, dtype=float)), ("cross", np.asarray(cross, dtype=float)),
               ("lambda", np.asarray(lam, dtype=float))]
    path.write_bytes(wio.serialize_container(tensors, labels=labels, dtype="f64"))
    return path


GOOD_GRAM = [[2.0, 0.5], [0.5, 1.0]]
GOOD_CROSS = [[1.0, 0.0], [0.0, 1.0]]


@pytest.mark.parametrize(
    "gram, cross, lam, error, match",
    [
        (GOOD_GRAM, GOOD_CROSS, [-1.0], WeightsFormatError, "lambda"),
        (GOOD_GRAM, GOOD_CROSS, [np.nan], WeightsFormatError, "lambda"),
        (GOOD_GRAM, GOOD_CROSS, [0.1, 0.2], WeightsShapeError, "lambda"),
        (GOOD_GRAM, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [0.1], WeightsShapeError, "cross"),
        (GOOD_GRAM, [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]], [0.1], WeightsShapeError, "cross"),
        ([[2.0, 0.5, 0.0], [0.5, 1.0, 0.0]], GOOD_CROSS, [0.1], WeightsShapeError, "square"),
        ([[2.0, 0.5], [0.4, 1.0]], GOOD_CROSS, [0.1], WeightsFormatError, "symmetric"),
        ([[2.0, np.nan], [np.nan, 1.0]], GOOD_CROSS, [0.1], WeightsFormatError, "non-finite"),
        (GOOD_GRAM, [[1.0, np.inf], [0.0, 1.0]], [0.1], WeightsFormatError, "non-finite"),
    ],
    ids=["negative-lambda", "nan-lambda", "two-lambdas", "cross-columns",
         "cross-rows", "non-square-gram", "asymmetric-gram", "nan-gram", "inf-cross"],
)
def test_load_state_rejects_inconsistent_memory(tmp_path, gram, cross, lam, error, match):
    path = _saved_state(tmp_path, gram, cross, lam, ["a", "b"])
    with pytest.raises(error, match=match):
        cls.load_state(path)


_BLOCK = cls._SYMMETRY_BLOCK


@pytest.mark.parametrize("dim", [_BLOCK - 1, _BLOCK, _BLOCK + 1, 300])
def test_load_state_checks_every_block_for_symmetry(tmp_path, dim):
    rng = np.random.default_rng(79)
    e = rng.normal(size=(dim + 5, dim))
    gram, cross = e.T @ e, e.T @ np.ones((dim + 5, 1))
    assert cls.load_state(_saved_state(tmp_path, gram, cross, [0.1], ["a"])).dim == dim
    # one off-diagonal element in the first block, in a block far from the
    # diagonal and in the last (partial) block, on either side of the diagonal
    for row, col in ((2, 1), (dim - 1, 0), (dim - 1, dim - 2)):
        for r, c in ((row, col), (col, row)):
            flipped = gram.copy()
            flipped.view(np.uint64)[r, c] ^= 1  # the lowest mantissa bit
            path = _saved_state(tmp_path, flipped, cross, [0.1], ["a"])
            with pytest.raises(WeightsFormatError, match="symmetric"):
                cls.load_state(path)


def test_load_state_rejects_missing_tensor(tmp_path):
    path = tmp_path / "nolambda.weights"
    tensors = [("gram", np.asarray(GOOD_GRAM)), ("cross", np.asarray(GOOD_CROSS))]
    path.write_bytes(wio.serialize_container(tensors, labels=["a", "b"], dtype="f64"))
    with pytest.raises(WeightsShapeError, match="lambda"):
        cls.load_state(path)


def test_load_state_rejects_repeated_labels(tmp_path):
    path = _saved_state(tmp_path, GOOD_GRAM, GOOD_CROSS, [0.1], ["a", "a"])
    with pytest.raises(WeightsFormatError, match="labels repeat"):
        cls.load_state(path)


def test_load_state_rejects_undecodable_label(tmp_path):
    path = _saved_state(tmp_path, GOOD_GRAM, GOOD_CROSS, [0.1], ["a", "é"])
    data = path.read_bytes()
    path.write_bytes(data[:-1] + b"\xff")  # the second byte of "é"
    with pytest.raises(WeightsFormatError, match="UTF-8"):
        cls.load_state(path)


def test_overlong_text_is_a_format_error_and_save_keeps_the_old_file(tmp_path):
    limit = "x" * wio.MAX_TEXT_BYTES
    assert wio.parse_container(wio.serialize_container([(limit, np.ones(1))], labels=[limit]))
    for tensors, labels in (([(limit + "x", np.ones(1))], ()), ([], ["é" * 32_768])):
        with pytest.raises(WeightsFormatError, match="exceeds 65535"):
            wio.container_parts(tensors, labels)
    path = tmp_path / "clf.weights"
    cls.save_state(path, cls.fit_base(np.eye(2), np.eye(2), 0.1, labels=["a", "b"]))
    saved = path.read_bytes()
    with pytest.raises(WeightsFormatError, match="label of 70000 UTF-8 bytes"):
        cls.save_state(path, cls.fit_base(np.eye(2), np.eye(2), 0.1, labels=["a", "b" * 70_000]))
    assert path.read_bytes() == saved


def test_non_string_labels_are_refused_and_save_keeps_the_old_file(tmp_path):
    """The label table stores text, so a state labelled 0, 1, 2 (fit_base's
    default) would reload as '0', '1', '2': saving and hashing refuse it."""
    path = tmp_path / "clf.weights"
    named = cls.fit_base(np.eye(3), np.eye(3), 0.1, labels=["0", "1", "2"])
    numbered = cls.fit_base(np.eye(3), np.eye(3), 0.1)
    assert numbered.registry == (0, 1, 2)
    cls.save_state(path, named)
    saved = path.read_bytes()
    with pytest.raises(WeightsFormatError, match="label 0 is not a string"):
        cls.save_state(path, numbered)
    assert path.read_bytes() == saved
    assert cls.state_checksum(named) == hashlib.sha256(saved).hexdigest()
    with pytest.raises(WeightsFormatError, match="label 0 is not a string"):
        cls.state_checksum(numbered)
    with pytest.raises(WeightsFormatError, match="label b'a' is not a string"):
        wio.container_parts([], labels=["a", b"a"])


_FUZZ_STATE = _state_bytes(cls.fit_base(
    np.random.default_rng(59).normal(size=(8, 2)), np.eye(3)[[0, 1, 2, 0, 1, 2, 0, 1]], 0.25,
    labels=["a", "b", "é"],
))


@settings(max_examples=300, deadline=None)
@given(
    edits=st.lists(st.tuples(st.integers(0, len(_FUZZ_STATE) - 1), st.integers(0, 255)),
                   max_size=4),
    cut=st.none() | st.integers(0, len(_FUZZ_STATE)),
)
def test_load_state_fuzzed_container_raises_only_weights_errors(tmp_path_factory, edits, cut):
    # mutated or truncated ridge containers load into a state or fail typed
    data = bytearray(_FUZZ_STATE)
    for pos, value in edits:
        data[pos] = value
    path = tmp_path_factory.mktemp("fuzz") / "clf.weights"
    path.write_bytes(bytes(data[:cut]))
    try:
        state = cls.load_state(path)
    except (WeightsFormatError, WeightsShapeError):
        return
    assert state.cross.shape == (state.dim, len(state.registry))


def test_load_state_accepts_a_consistent_memory(tmp_path):
    loaded = cls.load_state(_saved_state(tmp_path, GOOD_GRAM, GOOD_CROSS, [0.0], ["a", "b"]))
    assert loaded.lam == 0.0 and loaded.registry == ("a", "b")
