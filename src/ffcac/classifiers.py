"""Classifiers.

RidgeState is the classifier and the whole learning memory. Its weights
come from the closed form W = (G + lam*I)^(-1) C, with G and C
accumulated across sessions, so each incremental session is an analytic
update (no retraining) that matches a batch refit on the union of all
sessions. The prototype baseline is the same memory at lam = inf, the
limit of lam*W: there W = C, whose column j is n_j times the mean
embedding of class j, and a cosine score ignores a column's scale.

``registry`` is the tuple of labels in column order, ``weights()`` the
(D, N) columns that ``predict`` scores by cosine, and ``update(E, Y,
labels)`` the session update that returns a new memory with the new labels
appended. ``update`` is the only way classes enter: the base session is the
update of ``RidgeState.empty(...)``, a memory with no classes.

CosineHead exists only to finetune the extractor in the base session:
scaled cosine-softmax cross entropy, differentiable through the autodiff
graph, discarded once the extractor is frozen.
"""

from __future__ import annotations

import hashlib
import weakref
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from . import autodiff as ad
from . import weights_io
from .autodiff import Tensor
from .errors import (
    NumericError,
    ProtocolViolationError,
    SolverError,
    StratificationError,
    UsageError,
    WeightsFormatError,
    WeightsShapeError,
)

RESIDUAL_RTOL = 1e-8  # solve residual bound: ||(G+lam I)W - C||_inf <= rtol*(1+||C||_inf)
_SYMMETRY_BLOCK = 128  # rows per slab of the loaded gram's symmetry check
_SINGULAR_AT_ZERO = (
    "gram matrix is singular at lam = 0; use lam > 0 (required whenever E^T E is singular)"
)


# ---------------------------------------------------------------------------
# cosine-softmax training head


@dataclass
class CosineHead:
    weight: Tensor  # (num_classes, D)
    eta: float  # logit scale

    def __post_init__(self):
        if self.eta <= 0:
            raise UsageError(f"cosine head scale must be > 0, got {self.eta}")


def init_cosine_head(num_classes: int, dim: int, eta: float, seed: int) -> CosineHead:
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, 0xA0))))
    w = rng.normal(0.0, 1.0 / np.sqrt(dim), (num_classes, dim))
    return CosineHead(weight=Tensor(w, requires_grad=True), eta=float(eta))


def _row_normalize(t: Tensor) -> Tensor:
    sq = ad.sum_(t * t, axis=1, keepdims=True)
    norms = np.sqrt(sq.values)
    if np.any(norms <= 0.0):
        raise NumericError("zero-norm row: cosine similarity undefined")
    return t / ad.power(sq, 0.5)


def cosine_loss(e_batch: Tensor, labels, head: CosineHead) -> Tensor:
    """Mean over the batch of -log softmax(eta * cos(e, W_y)) at the true
    class. Differentiable w.r.t. both the embeddings and the head."""
    labels = np.asarray(labels, dtype=np.int64)
    n, num_classes = e_batch.shape[0], head.weight.shape[0]
    if labels.shape != (n,):
        raise UsageError(f"expected {n} labels, got shape {labels.shape}")
    if labels.min() < 0 or labels.max() >= num_classes:
        raise UsageError("label index outside head range")
    cos = ad.matmul(_row_normalize(e_batch), ad.transpose(_row_normalize(head.weight)))
    probs = ad.softmax(ad.scale(cos, head.eta), axis=1)
    onehot = np.zeros((n, num_classes))
    onehot[np.arange(n), labels] = 1.0
    picked = ad.sum_(Tensor(onehot) * ad.log(probs))
    return ad.scale(picked, -1.0 / n)


# ---------------------------------------------------------------------------
# ridge regression classifier


@dataclass
class RidgeState:
    """The entire incremental-learning memory: gram = sum E^T E,
    cross = sum E^T Y (one column per registered class), and lam in
    [0, inf]; lam = inf is the prototype baseline."""

    gram: np.ndarray  # (D, D)
    cross: np.ndarray  # (D, N_total)
    lam: float
    registry: tuple  # the N_total labels, in column order
    _weights: np.ndarray | None = field(default=None, repr=False)

    @classmethod
    def empty(cls, dim: int, lam: float) -> "RidgeState":
        """The memory before the base session: no classes, a zero gram (a
        read-only broadcast, which the first update only reads)."""
        if not lam >= 0.0:  # NaN fails too
            raise UsageError(f"ridge lam must be >= 0, finite or inf, got {lam}")
        return cls(gram=np.broadcast_to(0.0, (dim, dim)), cross=np.zeros((dim, 0)),
                   lam=float(lam), registry=())

    @property
    def dim(self) -> int:
        return self.gram.shape[0]

    def weights(self) -> np.ndarray:
        """(D, N) columns scored by cosine: the ridge solution, or the
        class sums at lam = inf."""
        return solve_weights(self)

    def update(self, E_m: np.ndarray, Y_m: np.ndarray, new_labels) -> "RidgeState":
        return update_incremental(self, E_m, Y_m, new_labels)


def _session(E, Y, labels, dim, registered=()):
    """Check one session: E (n, D) embeddings, Y (n, N) one-hot targets and
    N new labels, none of them in ``registered`` or given twice; returned
    as float64 arrays and a tuple. ``labels`` None names the columns
    0..N-1; ``dim`` None accepts any width."""
    E = np.asarray(E, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    if E.ndim != 2 or Y.ndim != 2 or E.shape[0] != Y.shape[0]:
        raise UsageError(f"embeddings {E.shape} and targets {Y.shape} disagree")
    if dim is not None and E.shape[1] != dim:
        raise UsageError(f"embeddings of width {E.shape[1]} for a classifier of width {dim}")
    labels = list(range(Y.shape[1]) if labels is None else labels)
    if len(labels) != Y.shape[1]:
        raise UsageError(f"{len(labels)} labels for {Y.shape[1]} target columns")
    dup = [l for l in labels if l in registered]
    if dup:
        raise ProtocolViolationError(f"labels already registered: {dup}")
    if len(set(labels)) != len(labels):
        raise ProtocolViolationError(f"duplicate labels within one session: {labels}")
    return E, Y, tuple(labels)


def fit_base(E: np.ndarray, Y: np.ndarray, lam: float, labels=None) -> RidgeState:
    """The base session: the update of an empty memory, solved once to fail
    fast on a singular system. ``labels`` defaults to 0..N-1."""
    E = np.asarray(E, dtype=np.float64)
    if E.ndim != 2 or E.shape[0] < 1:
        raise UsageError(f"need at least one training sample, got embeddings {E.shape}")
    state = update_incremental(RidgeState.empty(E.shape[1], lam), E, Y, labels)
    solve_weights(state)
    return state


def update_incremental(state: RidgeState, E_m: np.ndarray, Y_m: np.ndarray, new_labels) -> RidgeState:
    """Analytic session update: append the new labels, accumulate
    E_m^T E_m into the gram and append E_m^T Y_m as their cross columns.
    Returns a new state; the cached weights are invalidated."""
    E_m, Y_m, new_labels = _session(E_m, Y_m, new_labels, state.dim, state.registry)
    gram = E_m.T @ E_m
    gram += state.gram
    return RidgeState(
        gram=gram,
        cross=np.hstack([state.cross, E_m.T @ Y_m]),
        lam=state.lam,
        registry=state.registry + new_labels,
    )


def solve_weights(state: RidgeState) -> np.ndarray:
    """Solve (gram + lam*I) W = cross (see ``_solve_shifted``); cache W on
    the state. At lam = inf, W is a copy of cross: the limit of lam*W,
    which scores by cosine as the class means do.

    A solved W always satisfies the residual bound
    ||(G+lam I)W - C||_inf <= 1e-8 * (1 + ||C||_inf). W is read-only: it is
    the cached solution, and ``cosine_scores`` memoizes its column norms.
    """
    if state._weights is not None:
        return state._weights
    gram, lam = state.gram, state.lam
    if lam == np.inf:
        w = state.cross.copy()
    else:
        w = _solve_shifted(gram, state.cross, lam)
        _check_residual(gram @ w + lam * w - state.cross, state.cross, lam)
    w.flags.writeable = False
    state._weights = w
    return w


def _solve_shifted(system: np.ndarray, rhs: np.ndarray, lam: float) -> np.ndarray:
    """Solve (system + lam*I) X = rhs by Cholesky for a symmetric system.

    If the factorization fails, retries once with a diagonal jitter of
    1e-10 * trace(system)/n, then raises SolverError.
    """
    for retry in (False, True):
        shifts = (lam, 1e-10 * np.trace(system) / len(system)) if retry else (lam,)
        try:
            factor = scipy.linalg.cho_factor(
                _shifted(system, *shifts), lower=True, overwrite_a=True, check_finite=False
            )
            return scipy.linalg.cho_solve(factor, rhs, check_finite=False)
        except np.linalg.LinAlgError:
            # with lam > 0 the system is PD in exact arithmetic, so a failure
            # is numerical: retry once with a tiny diagonal jitter
            if lam <= 0.0:
                raise SolverError(_SINGULAR_AT_ZERO) from None
    raise SolverError(
        f"gram + lam*I is not positive definite at lam = {lam} even after jitter; increase lam"
    )


def _check_residual(residual: np.ndarray, cross: np.ndarray, lam: float) -> None:
    """Raise SolverError unless ||residual||_inf <= RESIDUAL_RTOL*(1 + ||cross||_inf).
    A NaN residual fails; an empty one (no classes) passes."""
    worst = np.max(np.abs(residual), initial=0.0)
    bound = RESIDUAL_RTOL * (1.0 + np.max(np.abs(cross), initial=0.0))
    if not worst <= bound:
        raise SolverError(
            f"normal-equation residual {worst:.3e} exceeds bound {bound:.3e} at lam = {lam}; "
            "system too ill-conditioned, increase lam"
        )


def _shifted(system: np.ndarray, *shifts: float) -> np.ndarray:
    """system + s*I for each shift s in turn, as a Fortran-ordered copy that
    cho_factor factors in place (no eye(n) temporary, no second copy).

    ``system`` must be exactly symmetric, as every caller's is (syrk
    products, sums of them, or a gram that passed ``_check_state``): the
    Fortran-ordered copy of its transpose is then the same matrix, made by
    one contiguous copy instead of a transposing one."""
    shifted = system.T.copy(order="F")
    for s in shifts:
        shifted.flat[:: len(shifted) + 1] += s
    return shifted


# (weakref to the last read-only W scored, its column denominators, its
# zero-norm column mask or None); replaced as one tuple, never mutated
_norm_memo: tuple = (None, None, None)


def _column_norms(W: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """(denominators, dead) for W's columns: the column norms with 1.0 in
    place of a zero norm, and the mask of zero-norm columns, None when no
    column has a zero norm.

    Memoizes one W: a read-only array that owns its data (the cached
    ``solve_weights`` result) cannot change, so scoring it again reuses
    its norms. A writeable W is recomputed on every call.
    """
    global _norm_memo
    ref, denom, dead = _norm_memo
    if ref is not None and ref() is W:
        return denom, dead
    # einsum sums the squares without the (D, N) temporaries of np.linalg.norm
    col_norms = np.sqrt(np.einsum("ij,ij->j", W, W))
    live = col_norms > 0.0
    denom, dead = np.where(live, col_norms, 1.0), None if live.all() else ~live
    if not W.flags.writeable and W.base is None:
        _norm_memo = (weakref.ref(W), denom, dead)
    return denom, dead


def cosine_scores(W: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Cosine between each query embedding and every weight column; zero-norm
    columns score 0. ``e`` is one (D,) row, giving (N,) scores, or an (n, D)
    matrix, giving (n, N). A query row of zero, infinite or NaN norm raises
    NumericError."""
    e = np.asarray(e, dtype=np.float64)
    if e.ndim not in (1, 2):
        raise UsageError(f"expected a (D,) row or an (n, D) matrix, got shape {e.shape}")
    W = np.asarray(W)
    e_norms = np.sqrt(np.einsum("...j,...j->...", e, e))
    if e.ndim == 1:  # one query: a scalar norm, tested without array passes
        finite = 0.0 < e_norms < np.inf  # NaN fails both
    else:
        e_norms = e_norms[:, None]
        finite = ((e_norms > 0.0) & (e_norms < np.inf)).all()
    if not finite:
        raise NumericError("zero or non-finite embedding: cosine scores undefined")
    denom, dead = _column_norms(W)
    scores = (e @ W) / (e_norms * denom)
    if dead is not None:
        scores[..., dead] = 0.0
    return scores


def predict(W: np.ndarray, registry: tuple, e: np.ndarray):
    """Argmax cosine class (ties -> lowest column) plus the scores;
    ``registry`` holds the label of each column of W.

    One (D,) row gives (label, (N,) scores); an (n, D) matrix gives an (n,)
    object array of labels and (n, N) scores.
    """
    scores = cosine_scores(W, e)
    if scores.shape[-1] == 0:
        raise ProtocolViolationError("no classes registered")
    best = scores.argmax(axis=-1)
    if scores.ndim == 1:
        return registry[best], scores
    return np.array(registry, dtype=object)[best], scores


def _stratified_folds(labels: np.ndarray, k_folds: int, rng: np.random.Generator) -> np.ndarray:
    """Assign each sample a fold id, dealing each class round-robin."""
    fold_of = np.empty(len(labels), dtype=np.int64)
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        if len(idx) < k_folds:
            raise StratificationError(
                f"class {cls} has {len(idx)} samples, fewer than {k_folds} folds"
            )
        rng.shuffle(idx)
        fold_of[idx] = np.arange(len(idx)) % k_folds
    return fold_of


def select_lambda_cv(E: np.ndarray, Y: np.ndarray, grid, k_folds: int, seed: int) -> float:
    """Pick lam from the grid by stratified k-fold held-out accuracy.

    Each fold builds one small system and factors it once per lam (see
    ``_fold_weights``); no D x D gram is built when a fold has fewer
    training rows than dimensions. Ties break toward the smaller lam;
    deterministic for a fixed seed.
    """
    grid = sorted(float(g) for g in grid)
    if not grid:
        raise UsageError("empty lam grid")
    bad = [g for g in grid if not 0.0 <= g < np.inf]
    if bad:
        raise UsageError(f"ridge lam must be finite and >= 0, got {bad[0]}")
    E, Y, columns = _session(E, Y, None, None)
    labels = np.argmax(Y, axis=1)
    if not 2 <= k_folds <= len(labels):
        raise UsageError(f"need 2 <= k_folds <= n, got k_folds={k_folds}, n={len(labels)}")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, 0xCF))))
    fold_of = _stratified_folds(labels, k_folds, rng)

    correct = np.zeros(len(grid), dtype=np.int64)
    for fold in range(k_folds):
        train = fold_of != fold
        held_out, truth = E[~train], labels[~train]
        for i, w in enumerate(_fold_weights(E[train], Y[train], grid)):
            pred, _ = predict(w, columns, held_out)
            correct[i] += np.sum(pred == truth)
    return grid[int(np.argmax(correct))]  # first maximum: the smaller lam


def _fold_weights(E: np.ndarray, Y: np.ndarray, grid):
    """Yield the ridge weights W = (E^T E + lam I)^(-1) E^T Y for each lam.

    The smaller of E E^T (n x n) and E^T E (D x D) is built once and
    factored once per lam by ``_solve_shifted``, with the session solve's
    jitter retry. With n < D the push-through identity
    (E^T E + lam I)^(-1) E^T Y = E^T (E E^T + lam I)^(-1) Y gives W. Each W
    must meet solve_weights' residual bound, evaluated as
    ||E^T (E W - Y) + lam W||_inf without the gram. At lam = 0 with n < D
    the gram is singular in exact arithmetic, so that lam is rejected as
    solve_weights rejects it.
    """
    cross = E.T @ Y
    kernel = E.shape[0] < E.shape[1]
    system = E @ E.T if kernel else E.T @ E
    rhs = Y if kernel else cross
    for lam in grid:
        if kernel and lam == 0.0:  # singular even where E E^T is regular
            raise SolverError(_SINGULAR_AT_ZERO)
        w = _solve_shifted(system, rhs, lam)
        if kernel:
            w = E.T @ w
        _check_residual(E.T @ (E @ w - Y) + lam * w, cross, lam)
        yield w


# ---------------------------------------------------------------------------
# serialization


def state_parts(state: RidgeState) -> list:
    """Ridge state in the weight-container format (f64: the accumulated
    matrices are the learning memory and must survive round trips at the
    tolerances of the incremental/batch equivalence), as buffers that view
    the gram and cross; ``b"".join`` gives the container bytes."""
    tensors = [
        ("gram", state.gram),
        ("cross", state.cross),
        ("lambda", np.array([state.lam])),
    ]
    return weights_io.container_parts(tensors, labels=state.registry, dtype="f64")


def save_state(path, state: RidgeState) -> None:
    parts = state_parts(state)  # before the open: a bad state leaves the file as it was
    with open(path, "wb") as fh:
        fh.writelines(parts)


def load_state(path) -> RidgeState:
    tensors, labels = weights_io.load_container(path)
    for required in ("gram", "cross", "lambda"):
        if required not in tensors:
            raise WeightsShapeError(f"classifier container missing tensor {required!r}")
    gram, cross, lam = tensors["gram"], tensors["cross"], tensors["lambda"]
    _check_state(gram, cross, lam, labels)
    return RidgeState(gram=gram, cross=cross, lam=float(lam[0]), registry=tuple(labels))


def _check_state(gram: np.ndarray, cross: np.ndarray, lam: np.ndarray, labels) -> None:
    """Reject a loaded learning memory that cannot be a ridge state, in
    O(D^2) passes: gram square, symmetric and finite; cross of D rows and
    one column per label, finite; lambda one value >= 0, finite or inf; no
    label twice."""
    if gram.ndim != 2 or gram.shape[0] != gram.shape[1]:
        raise WeightsShapeError(f"classifier gram must be square, got shape {gram.shape}")
    d = gram.shape[0]
    if cross.shape != (d, len(labels)):
        raise WeightsShapeError(
            f"classifier cross has shape {cross.shape}, expected ({d}, {len(labels)}) "
            f"for D = {d} and {len(labels)} labels"
        )
    if lam.shape != (1,):
        raise WeightsShapeError(f"classifier lambda must hold one value, got shape {lam.shape}")
    if not (np.isfinite(gram).all() and np.isfinite(cross).all()):
        raise WeightsFormatError("classifier gram or cross holds non-finite values")
    # exact: E^T E and sums of such products are symmetric to the bit. One
    # slab of rows against the matching slab of columns, from the diagonal
    # on, reads each pair once and never walks down whole columns.
    for i in range(0, d, _SYMMETRY_BLOCK):
        j = i + _SYMMETRY_BLOCK
        if not np.array_equal(gram[i:j, i:], gram[i:, i:j].T):
            raise WeightsFormatError("classifier gram is not symmetric")
    if not lam[0] >= 0.0:  # NaN fails too
        raise WeightsFormatError(f"classifier lambda must be >= 0, finite or inf, got {lam[0]}")
    if len(set(labels)) != len(labels):
        raise WeightsFormatError(f"classifier labels repeat: {labels}")


def state_checksum(state: RidgeState) -> str:
    digest = hashlib.sha256()
    for part in state_parts(state):
        digest.update(part)
    return digest.hexdigest()
