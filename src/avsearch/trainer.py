"""Mini-batch SGD training with validation-based model selection.

Plain SGD keeps the hand-derived gradients auditable; the learning rate
decays multiplicatively per epoch and gradients are clipped at a global
norm to guard against hinge-induced spikes. After every epoch the model is
scored on a validation set (mAP or recall@K, from the relevant items' ranks,
counted in the similarity matrix), and each epoch that beats every earlier
one is handed to the caller, who saves it.

`fit` trains the caller's model in place: `train_epoch` steps its parameter
vector. `bnl_loss` hands each batch's gradient over as its factors (a
weight's gradient is dZᵀX, see fusion.GradFactors), and the gradient is
never formed as a vector. Its norm, over all parameters, comes from small
Gram matrices of the factors; then each array's step is formed in a scratch
array the size of the largest weight, allocated once per epoch, clipped,
scaled and subtracted. The arrays that fit in a part of that scratch step on
every CPU (fusion.run_tasks), as `bnl_loss`'s heads run their forward
passes, and the parameters come out the same bits whatever the CPU and BLAS
thread counts. `fit` keeps no copy of the best epoch; it calls `on_best`
while the model holds it, so a run holds one parameter-sized vector, the
model's.
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


def _scaled(a: np.ndarray) -> tuple[np.ndarray, int]:
    """(a·2^-k, 2k) for the k that brings a's largest magnitude into
    [0.5, 1): an exact scaling, after which no Gram or square of a
    overflows or underflows unless a's norm does. NaNs, which pass every
    product and sum without a floating-point flag, when a is not finite."""
    peak = float(np.maximum(a.max(), -a.min()))  # NaN if an entry is NaN
    if not math.isfinite(peak):
        return np.full_like(a, math.nan), 0
    k = math.frexp(peak)[1]
    return np.ldexp(a, -k), 2 * k


def _grad_norm(factors: GradFactors) -> float:
    """The Frobenius norm over all arrays of the gradient that factors stand
    for, unformed: ‖dzᵀx‖² = Σ (dz·dzᵀ)∘(x·xᵀ) for a weight's (dz, x) and
    Σ v² for a bias or attention gradient v, of _scaled arrays, added by
    math.fsum at their common power of two. BLAS forms only the Grams, which
    round alike on any number of BLAS threads, and NumPy's pairwise sums do
    the rest, so the norm's bits do not depend on the thread counts. NaN
    when a factor is not finite; inf when the norm of finite factors
    overflows."""
    grams = {}  # the scaled x·xᵀ once per input table, which the heads share
    squares = []  # (s, e): a term's square is s·2^e
    for term in factors.terms:
        if isinstance(term, tuple):
            dz, x = term
            if id(x) not in grams:
                xs, ex = _scaled(x)
                grams[id(x)] = xs @ xs.T, ex
            (xx, ex), (zs, ez) = grams[id(x)], _scaled(dz)
            squares.append((float(np.sum((zs @ zs.T) * xx)), ex + ez))
        else:
            v, e = _scaled(term)
            squares.append((float(np.sum(v * v)), e))
    top = max((e for s, e in squares if s != 0), default=0)
    total = math.fsum(math.ldexp(s, e - top) for s, e in squares)
    try:  # rounding can take the sum, exactly ≥ 0, below 0; NaN passes
        return math.ldexp(math.sqrt(0.0 if total < 0 else total), top // 2)
    except OverflowError:
        return math.inf


def _step(model: LaffModel, factors: GradFactors, lr: float, scale: float, scratch: np.ndarray) -> None:
    """model.params -= lr * (scale * the gradient that factors stand for),
    one array at a time, each formed in scratch, scaled there (not by a
    scale of 1, as x·1 is x) and subtracted. The arrays go largest first:
    those larger than a 1/WORKERS part of scratch step on the caller, in the
    whole of it, and run_tasks spreads the rest over the CPUs, each worker
    in its own part. So the step needs no more scratch than a loop over the
    arrays, each array sees the same operations on any thread, and the
    parameters do not depend on the CPU count. A failure raises the error of
    the first array, in that order, that fails."""
    arrays = sorted(
        zip(factors.terms, (param for _, param in named_parameters(model.heads))),
        key=lambda pair: -pair[1].size,
    )
    part = scratch.size // fusion.WORKERS
    large = sum(param.size > part for _, param in arrays)

    def step(term, param: np.ndarray, into: np.ndarray) -> None:
        out = form_gradient(term, into[: param.size].reshape(param.shape))
        if scale != 1.0:
            out *= scale
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
    scratch = np.empty(0)  # allocated at the first step, then kept for the epoch
    total = 0.0
    count = 0
    for batch_no, start in enumerate(range(0, len(order), cfg.batch_size)):
        indices = order[start : start + cfg.batch_size]
        if len(indices) < 2:
            continue
        batch = [dataset[i] for i in indices]
        loss, factors = bnl_loss(model, batch, cfg.margins, factored=True)
        norm = _grad_norm(factors) if np.isfinite(loss) else math.nan
        if math.isnan(norm):
            ids = [t.caption.item_id for t in batch]
            raise TrainingError(
                f"non-finite loss in epoch {epoch_index}, batch {batch_no} (captions {ids})"
            )
        if scratch.size < largest:
            scratch = np.empty(largest)
        # An infinite norm of finite factors (an overflow) gives the clip factor 0.
        _step(model, factors, lr, cfg.clip_norm / norm if norm > cfg.clip_norm else 1.0, scratch)
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
