"""Mini-batch SGD training with validation-based model selection.

Plain SGD keeps the hand-derived gradients auditable; the learning rate
decays multiplicatively per epoch and gradients are clipped at a global
norm to guard against hinge-induced spikes. After every epoch the model is
scored on a validation set (mAP or recall@K, from the relevant items' ranks,
counted in the similarity matrix), and each epoch that beats every earlier
one is handed to the caller, who saves it.

`fit` trains the caller's model in place: `train_epoch` steps its parameter
vector. `bnl_loss` hands each batch's gradient over as its factors (a
weight's gradient is dZᵀX, see fusion.GradFactors). When a bound on the
gradient's norm proves that the step cannot clip, the step is formed one
array at a time in a scratch array the size of the largest weight, so the
gradient vector is never formed; the arrays that fit in a part of that
scratch step on every CPU (fusion.run_tasks), as `bnl_loss`'s heads run
their forward passes, and the parameters come out the same bits whatever
the CPU count. Otherwise the gradient is formed into one vector, allocated
at most once per epoch, and clipped, scaled and subtracted in place, on
the caller. Both paths step the parameters bit-identically. The bits hold
whatever the CPU count with BLAS at one thread: the fallback's
np.linalg.norm is a BLAS reduction, which rounds by the number of BLAS
threads, and OpenBLAS starts one per CPU by default. `fit` keeps no copy of
the best epoch; it calls `on_best` while the model holds it. A run whose
steps never clip therefore holds one parameter-sized vector, the model's.
"""

from __future__ import annotations

import math
import re
from collections.abc import Callable
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, MetricError, TrainingError
# `rank_many` is unused here but stays importable from this module: the
# benchmark's tracer (perfbench/tracer.py) wraps it by name.
from .evaluation import (
    JudgmentSet,
    ap_from_ranks,
    rank_many,  # noqa: F401
    relevant_ranks,
    similarity_matrix,
)
from . import fusion
from .fusion import (
    FeatureBundle,
    GradFactors,
    LaffModel,
    form_gradient,
    named_parameters,
    run_tasks,
)
from .negation import Margins, Triplet, bnl_loss

_RECALL_RE = re.compile(r"^recall@(\d+)$")


@dataclass
class TrainConfig:
    epochs: int = 20
    batch_size: int = 32
    learning_rate: float = 0.1
    lr_decay: float = 0.99
    seed: int = 0
    margins: Margins = field(default_factory=Margins)
    validation_metric: str = "mAP"
    clip_norm: float = 5.0

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 2:
            raise ConfigError(f"batch_size must be >= 2, got {self.batch_size}")
        # `not x >= 0` rather than `x < 0`, so that NaN is refused too.
        if not self.learning_rate >= 0:
            raise ConfigError(f"learning_rate must be >= 0, got {self.learning_rate}")
        if not (0 < self.lr_decay <= 1):
            raise ConfigError(f"lr_decay must be in (0, 1], got {self.lr_decay}")
        if not self.clip_norm > 0:
            raise ConfigError(f"clip_norm must be > 0, got {self.clip_norm}")
        if self.validation_metric != "mAP" and not _RECALL_RE.match(self.validation_metric):
            raise ConfigError(
                f"validation_metric must be 'mAP' or 'recall@K', got {self.validation_metric!r}"
            )


@dataclass
class ValidationSet:
    """Query bundles, the corpus to rank, and the ground-truth judgments."""

    queries: list[FeatureBundle]
    corpus: list[FeatureBundle]
    judgments: JudgmentSet

    def __post_init__(self):
        if not self.queries or not self.corpus:
            raise ConfigError("validation set needs queries and a corpus")


@dataclass
class EpochStats:
    train_loss: float
    validation_score: float


@dataclass
class TrainReport:
    epochs: list[EpochStats]
    best_epoch: int  # 1-based; argmax of validation score (first on ties)
    best_score: float


def _sgd_step(params: np.ndarray, grad: np.ndarray, lr: float, max_norm: float) -> bool:
    """params -= lr * grad, with grad first scaled down to norm max_norm if
    it is longer, computed in grad's own memory. Returns False, leaving
    params untouched, when grad has a non-finite element.

    The products run in the order of params -= lr * (grad * (max_norm /
    norm)), so the step is bit-identical to that expression. An infinite
    norm of finite elements (an overflow) gives the clip factor 0.
    """
    norm = float(np.linalg.norm(grad))
    # A finite norm proves every element finite; only otherwise scan them.
    if not math.isfinite(norm) and not np.all(np.isfinite(grad)):
        return False
    if norm > max_norm:
        grad *= max_norm / norm
    grad *= lr
    params -= grad
    return True


# _cannot_clip proves, from a gradient's factors alone, that _sgd_step would
# not clip it. Let u = 2^-53 and γ(k) = k·u/(1 - k·u). Take one weight term
# (dz, x) of shapes (n, d) and (n, m), its exact gradient G = dzᵀx, and
# S = Σ_r ‖dz_r‖·‖x_r‖ over the rows r, which bounds both ‖G‖_F and
# ‖|dz|ᵀ|x|‖_F.
#  - The formed Ĝ = fl(dzᵀx), in any summation order, has
#    |Ĝ - G| ≤ γ(n)·|dz|ᵀ|x|, so ‖Ĝ‖² ≤ ‖G‖² + (2γ(n) + γ(n)²)·S².
#  - ‖G‖² = Σ_rs P_rs·K_rs with the Gram matrices P = dz·dzᵀ and K = x·xᵀ.
#    Their computed forms have |fl(P) - P| ≤ γ(d)·|dz||dz|ᵀ and
#    |fl(K) - K| ≤ γ(m)·|x||x|ᵀ, and Σ_rs (|dz||dz|ᵀ)_rs·(|x||x|ᵀ)_rs ≤ S²
#    by Cauchy-Schwarz, so T = fl(Σ_rs fl(P)_rs·fl(K)_rs) has
#    ‖G‖² ≤ T + (γ(d) + γ(m) + γ(n²) + their products)·S².
#  So ‖Ĝ‖² ≤ T + c·S² with c = 2·(n² + 2n + d + m)·u: twice the first-order
# terms, which covers the products while k·u < 0.01 for every k above
# (any array that fits in memory), and S's own rounding, since S is computed
# from the Gram diagonals, fl(Σ_r sqrt(P_rr·K_rr)), with S² to within
# (d + m + 2n + 4)·u. A bias or attention gradient v enters the vector as
# it is, and ‖v‖² ≤ fl(v·v)·(1 + 2γ(d)). math.fsum adds the terms to within
# u. np.linalg.norm of the formed vector of N entries is
# fl(sqrt(fl(ĝ·ĝ))) ≤ sqrt(‖ĝ‖²·(1 + γ(N)))·(1 + u). Hence if
# fsum·(1 + ρ) ≤ max_norm², where ρ = 2·(N + 8)·u covers γ(N), 2γ(d) (N
# is more than 3d), these roundings and those of the comparison itself,
# then the norm is at most max_norm and _sgd_step would not clip.
# The γ bounds leave out underflow, which adds at most 2^-1074 per
# operation. With every Gram diagonal at most 2^400, no factor entry
# exceeds 2^200 and no product or sum overflows, so those additions,
# magnified at most 2^400·n·√(d·m) times over fewer than 2^60 operations,
# stay far below the 2^-500 that the bound adds. A non-finite factor makes
# a Gram diagonal or the sum non-finite, so a finite bound also proves
# every formed entry finite.
_U = 2.0**-53
_GRAM_LIMIT = 2.0**400


def _cannot_clip(factors: GradFactors, max_norm: float, n_params: int) -> bool:
    """True only if the gradient that factors stand for, once formed into a
    vector, has finite entries and a norm of at most max_norm, so that
    _sgd_step would step it unclipped; see the derivation above."""
    grams = {}  # x·xᵀ once per input table, which the heads share
    squares = []
    for term in factors.terms:
        if not isinstance(term, tuple):
            squares.append(float(np.dot(term, term)))
            continue
        dz, x = term
        if id(x) not in grams:
            grams[id(x)] = x @ x.T
        xx, zz = grams[id(x)], dz @ dz.T
        if not (zz.diagonal().max() <= _GRAM_LIMIT and xx.diagonal().max() <= _GRAM_LIMIT):
            return False
        n, d = dz.shape
        s = float(np.sqrt(zz.diagonal() * xx.diagonal()).sum())
        c = 2.0 * (n * n + 2 * n + d + x.shape[1]) * _U
        squares.append(float(np.dot(zz.ravel(), xx.ravel())) + c * s * s)
    total = math.fsum(squares)
    bound = total * (1.0 + 2.0 * (n_params + 8) * _U) + 2.0**-500
    return math.isfinite(total) and bound <= max_norm * max_norm


def _unclipped_step(model: LaffModel, factors: GradFactors, lr: float, scratch: np.ndarray) -> None:
    """model.params -= lr * the gradient that factors stand for, one array at
    a time: each array's gradient is formed in scratch, scaled there and
    subtracted, as _sgd_step does with a gradient that it does not clip.

    The arrays go largest first. Those larger than a 1/WORKERS part of
    scratch step on the caller, in the whole of it; run_tasks spreads the
    rest over the CPUs, each worker stepping in its own part. So the step
    needs no more scratch than a loop over the arrays, each array sees the
    same operations on any thread, and the parameters do not depend on the
    CPU count. A failure raises the error of the first array, in that order,
    that fails.
    """
    arrays = sorted(
        zip(factors.terms, (param for _, param in named_parameters(model.heads))),
        key=lambda pair: -pair[1].size,
    )
    part = scratch.size // fusion.WORKERS
    large = sum(param.size > part for _, param in arrays)

    def step(term, param: np.ndarray, into: np.ndarray) -> None:
        out = form_gradient(term, into[: param.size].reshape(param.shape))
        out *= lr
        param -= out

    for term, param in arrays[:large]:
        step(term, param, scratch)
    rest = arrays[large:]
    run_tasks(len(rest), lambda i, worker: step(*rest[i], scratch[worker * part :]))


def train_epoch(
    model: LaffModel,
    dataset: list[Triplet],
    cfg: TrainConfig,
    epoch_index: int,
) -> float:
    """One SGD pass over a seeded shuffle of the dataset, stepping
    model.params in place.

    Returns the pair-weighted mean batch loss. Trailing batches of fewer
    than 2 triplets are skipped (no negative to mine). A non-finite loss
    or gradient aborts with the offending batch named.
    """
    if not dataset:
        raise ValueError("empty training dataset")
    rng = np.random.default_rng([cfg.seed, epoch_index])
    order = rng.permutation(len(dataset))
    lr = cfg.learning_rate * cfg.lr_decay**epoch_index
    params = model.params
    largest = max(p.size for _, p in named_parameters(model.heads))
    # The scratch of unclipped steps or, once a step may clip, the formed
    # gradient, whose first entries then serve as the scratch.
    buffer = np.empty(0)
    total = 0.0
    count = 0
    for batch_no, start in enumerate(range(0, len(order), cfg.batch_size)):
        indices = order[start : start + cfg.batch_size]
        if len(indices) < 2:
            continue
        batch = [dataset[i] for i in indices]
        loss, factors = bnl_loss(model, batch, cfg.margins, factored=True)
        stepped = bool(np.isfinite(loss))
        if stepped and _cannot_clip(factors, cfg.clip_norm, params.size):
            if buffer.size < largest:
                buffer = np.empty(largest)
            _unclipped_step(model, factors, lr, buffer)
        elif stepped:
            if buffer.size < params.size:
                buffer = None  # free the scratch before allocating its successor
                buffer = np.empty_like(params)
            stepped = _sgd_step(params, factors.to_vector(model, buffer), lr, cfg.clip_norm)
        if not stepped:
            ids = [t.caption.item_id for t in batch]
            raise TrainingError(
                f"non-finite loss in epoch {epoch_index}, batch {batch_no} (captions {ids})"
            )
        total += loss * len(batch)
        count += len(batch)
    if count == 0:
        raise ValueError("dataset yielded no batch of size >= 2")
    # NaN propagates through min and max, so both are finite exactly when
    # every parameter is, and neither allocates or can overflow.
    if not (math.isfinite(params.min()) and math.isfinite(params.max())):
        raise TrainingError(f"non-finite parameters after epoch {epoch_index}")
    return total / count


def evaluate_validation(model: LaffModel, val: ValidationSet, metric: str = "mAP") -> float:
    """Mean retrieval score of the model on a validation set.

    Scores each judged query from the ranks of its relevant items, counted
    in the similarity matrix (relevant_ranks), so the corpus is never
    sorted; the ranks, errors and scores are those of ranking the whole
    corpus per query (rank_many) and scoring the rankings. A query id listed
    twice is scored twice, both times on its last row.
    """
    match = _RECALL_RE.match(metric)
    if metric != "mAP" and not match:
        raise ConfigError(f"unknown validation metric {metric!r}")
    query_ids = [query.item_id for query in val.queries]
    last_row = {qid: row for row, qid in enumerate(query_ids)}
    targets = []
    for qid in query_ids:
        labels = val.judgments.judgments.get(qid, {})
        relevant = [item for item, rel in labels.items() if rel == 1]
        if relevant:
            targets.append((last_row[qid], relevant))
    sims = similarity_matrix(model, val.queries, val.corpus)
    ranked = relevant_ranks(sims, query_ids, [item.item_id for item in val.corpus], targets)
    if not targets:
        raise MetricError("no validation query has relevant judgments")
    if match:
        k = int(match.group(1))
        scores = [sum(r <= k for r in ranks) / len(rel) for ranks, (_, rel) in zip(ranked, targets)]
    else:
        scores = [ap_from_ranks(ranks, len(rel)) for ranks, (_, rel) in zip(ranked, targets)]
    return sum(scores) / len(scores)


def fit(
    model: LaffModel,
    train_set: list[Triplet],
    validation: ValidationSet,
    cfg: TrainConfig,
    on_best: Callable[[LaffModel], object],
    log_file=None,
) -> tuple[LaffModel, TrainReport]:
    """Train for cfg.epochs epochs, handing each new best epoch to on_best.

    Steps model.params in place and returns the same model, after the last
    epoch, with the report. After each epoch whose validation score beats
    every earlier one, fit calls on_best(model) while model.params holds
    that epoch; a caller that keeps the model beyond the call copies it
    (model.with_vector(model.params)) or saves it. So when a later epoch
    raises, the caller has already seen the best finished epoch. A caller
    that needs the untrained model copies it first. log_file, when given,
    is the path of a file that receives one `epoch\tloss\tval_score` line
    per epoch.
    """
    log = nullcontext() if log_file is None else open(log_file, "w", encoding="utf-8", newline="\n")
    with log:
        stats: list[EpochStats] = []
        best_epoch = 0
        best_score = -np.inf
        for epoch in range(1, cfg.epochs + 1):
            # A module global, looked up per call, so that it can be wrapped.
            loss = train_epoch(model, train_set, cfg, epoch - 1)
            score = evaluate_validation(model, validation, cfg.validation_metric)
            stats.append(EpochStats(loss, score))
            if log_file is not None:
                log.write(f"{epoch}\t{loss:.6f}\t{score:.6f}\n")
            if score > best_score:
                best_score = score
                best_epoch = epoch
                on_best(model)
        return model, TrainReport(stats, best_epoch, float(best_score))
