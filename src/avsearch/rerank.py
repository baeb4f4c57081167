"""Frame-level re-scoring of a top-ranked list.

Each listed video gets a fine-grained score: the maximum cosine between its
frames and the query vector. The new relevance score is a weighted linear
fusion of that frame score (default weight 0.6) and the min-max normalized
original score (default weight 0.4), and the list is re-sorted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .evaluation import RunEntry, _minmax
from .numeric import cosine_sim


@dataclass
class FrameFeatures:
    """Per-frame vectors of one video, all in a single feature space."""

    item_id: str
    frames: np.ndarray  # (n_frames, dim)

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=np.float64)
        if self.frames.ndim != 2:
            raise DimensionError(
                f"frames of {self.item_id!r} must be 2-D, got shape {self.frames.shape}"
            )
        if self.frames.shape[0] < 1:
            raise DimensionError(f"video {self.item_id!r} has zero frames")

    @property
    def frame_count(self) -> int:
        return self.frames.shape[0]


def frame_query_score(frames: FrameFeatures, query_vec: np.ndarray) -> float:
    """Max over frames of the frame-query cosine similarity."""
    return max(cosine_sim(frame, query_vec) for frame in frames.frames)


def rerank(
    entry: RunEntry,
    frame_store: dict[str, FrameFeatures],
    query_vec: np.ndarray,
    w_new: float = 0.6,
    w_old: float = 0.4,
    normalize_original: bool = True,
) -> RunEntry:
    """Re-score and re-sort one ranked list; the item set is unchanged.

    new = w_new * frame_query_score + w_old * normalized(original).
    The sort is stable, so (w_new, w_old) = (0, 1) reproduces the input
    ordering exactly.
    """
    if w_new < 0 or w_old < 0 or w_new + w_old <= 0:
        raise ValueError(f"weights must be nonnegative with positive sum, got ({w_new}, {w_old})")
    if not entry:
        return []
    missing = [item for item, _ in entry if item not in frame_store]
    if missing:
        raise KeyError(f"no frame features for items: {missing}")
    originals = [score for _, score in entry]
    base = _minmax(originals) if normalize_original else originals
    rescored = [
        (item, w_new * frame_query_score(frame_store[item], query_vec) + w_old * b)
        for (item, _), b in zip(entry, base)
    ]
    return sorted(rescored, key=lambda pair: -pair[1])
