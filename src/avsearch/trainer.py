"""Mini-batch SGD training with validation-based model selection.

Plain SGD keeps the hand-derived gradients auditable; the learning rate
decays multiplicatively per epoch and gradients are clipped at a global
norm to guard against hinge-induced spikes. After every epoch the model is
scored on a validation set (mAP or recall@K) and the best-scoring epoch's
parameters are retained.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, MetricError, TrainingError
from .evaluation import JudgmentSet, average_precision, rank_many
from .fusion import FeatureBundle, LaffModel
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
        if self.learning_rate < 0:
            raise ConfigError(f"learning_rate must be >= 0, got {self.learning_rate}")
        if not (0 < self.lr_decay <= 1):
            raise ConfigError(f"lr_decay must be in (0, 1], got {self.lr_decay}")
        if self.clip_norm <= 0:
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
    best_model: LaffModel


def _clip(grad: np.ndarray, max_norm: float) -> np.ndarray:
    norm = float(np.linalg.norm(grad))
    if norm > max_norm:
        return grad * (max_norm / norm)
    return grad


def train_epoch(
    model: LaffModel,
    dataset: list[Triplet],
    cfg: TrainConfig,
    epoch_index: int,
) -> tuple[LaffModel, float]:
    """One SGD pass over a seeded shuffle of the dataset.

    Returns the updated model and the pair-weighted mean batch loss. The
    model passed in is left as it was: the steps update a copy of it in
    place. Trailing batches of fewer than 2 triplets are skipped (no
    negative to mine). A non-finite loss aborts with the offending batch
    named.
    """
    if not dataset:
        raise ValueError("empty training dataset")
    rng = np.random.default_rng([cfg.seed, epoch_index])
    order = rng.permutation(len(dataset))
    lr = cfg.learning_rate * cfg.lr_decay**epoch_index
    model = LaffModel(model.heads)
    params = model.params
    total = 0.0
    count = 0
    for batch_no, start in enumerate(range(0, len(order), cfg.batch_size)):
        indices = order[start : start + cfg.batch_size]
        if len(indices) < 2:
            continue
        batch = [dataset[i] for i in indices]
        loss, grad = bnl_loss(model, batch, cfg.margins)
        if not np.isfinite(loss) or not np.all(np.isfinite(grad)):
            ids = [t.caption.item_id for t in batch]
            raise TrainingError(
                f"non-finite loss in epoch {epoch_index}, batch {batch_no} (captions {ids})"
            )
        params -= lr * _clip(grad, cfg.clip_norm)
        total += loss * len(batch)
        count += len(batch)
    if count == 0:
        raise ValueError("dataset yielded no batch of size >= 2")
    if not np.all(np.isfinite(params)):
        raise TrainingError(f"non-finite parameters after epoch {epoch_index}")
    return model, total / count


def _recall_at_k(entry, labels: dict[str, int], k: int) -> float:
    relevant = {i for i, rel in labels.items() if rel == 1}
    if not relevant:
        raise MetricError("recall undefined: no relevant items")
    hits = sum(1 for item, _ in entry[:k] if item in relevant)
    return hits / len(relevant)


def evaluate_validation(model: LaffModel, val: ValidationSet, metric: str = "mAP") -> float:
    """Mean retrieval score of the model on a validation set."""
    match = _RECALL_RE.match(metric)
    if metric != "mAP" and not match:
        raise ConfigError(f"unknown validation metric {metric!r}")
    entries = rank_many(model, val.queries, val.corpus, top_k=len(val.corpus))
    scores = []
    for query in val.queries:
        labels = val.judgments.judgments.get(query.item_id)
        if labels is None or not any(rel == 1 for rel in labels.values()):
            continue
        entry = entries[query.item_id]
        if match:
            scores.append(_recall_at_k(entry, labels, int(match.group(1))))
        else:
            scores.append(average_precision(entry, labels))
    if not scores:
        raise MetricError("no validation query has relevant judgments")
    return sum(scores) / len(scores)


def fit(
    model: LaffModel,
    train_set: list[Triplet],
    validation: ValidationSet,
    cfg: TrainConfig,
    log_file=None,
) -> tuple[LaffModel, TrainReport]:
    """Train for cfg.epochs epochs, keeping the best-validation checkpoint.

    log_file, when given, receives one `epoch\tloss\tval_score` line per
    epoch (a path or an open text handle).
    """
    close = False
    if isinstance(log_file, (str, bytes)) or hasattr(log_file, "__fspath__"):
        log_file = open(log_file, "w", encoding="utf-8", newline="\n")
        close = True
    try:
        stats: list[EpochStats] = []
        best_epoch = 0
        best_score = -np.inf
        best_vec = model.to_vector()
        for epoch in range(1, cfg.epochs + 1):
            model, loss = train_epoch(model, train_set, cfg, epoch - 1)
            score = evaluate_validation(model, validation, cfg.validation_metric)
            stats.append(EpochStats(loss, score))
            if log_file is not None:
                log_file.write(f"{epoch}\t{loss:.6f}\t{score:.6f}\n")
            if score > best_score:
                best_score = score
                best_epoch = epoch
                best_vec = model.to_vector()
        best_model = model.with_vector(best_vec)
        return model, TrainReport(stats, best_epoch, float(best_score), best_model)
    finally:
        if close:
            log_file.close()
