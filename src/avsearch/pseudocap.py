"""Pseudo-caption selection for unlabeled videos.

Per-frame candidate captions are deduplicated (exact match after whitespace
normalization and lowercasing, keeping the earliest frame's instance),
ranked by a caller-supplied caption score, and truncated to the top k
(default 3). The scorer is injected — typically a lookup into a trained
model's text-to-video similarities, computed for all kept candidates at
once — so this module never touches feature extraction.

Candidate manifests are TAB-separated `video_id\tframe_index\tcaption`
lines; selections are written as `video_id\trank\tscore\tcaption`. In
both, each video id and caption must pass `featio.check_fields`, and a
caption of only whitespace, which has no words, is refused as empty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError, FormatError
from .featio import atomic_open, check_fields, read_fields


@dataclass
class CaptionCandidate:
    frame_index: int
    text: str


@dataclass
class CandidateSet:
    """All frame-level caption candidates of one video."""

    video_id: str
    candidates: list[CaptionCandidate]

    def __post_init__(self):
        if not self.candidates:
            raise FormatError(f"video {self.video_id!r} has no caption candidates")


def normalize_caption(text: str) -> str:
    """Whitespace-normalized lowercase form used for duplicate detection."""
    return " ".join(text.lower().split())


def kept_candidates(cands: CandidateSet) -> list[CaptionCandidate]:
    """One candidate per normalized caption: the instance with the lowest
    frame index (the first in file order on a tie), in first-seen order."""
    kept: dict[str, CaptionCandidate] = {}
    for cand in cands.candidates:
        key = normalize_caption(cand.text)
        prev = kept.get(key)
        if prev is None or cand.frame_index < prev.frame_index:
            kept[key] = cand
    return list(kept.values())


def select_pseudo_captions(
    cands: CandidateSet, score, k: int = 3
) -> list[tuple[str, float]]:
    """Dedupe, score, and keep the top-k captions.

    score maps a kept caption string to a scalar; a non-finite score raises
    FormatError naming `video_id#frame_index`. The result is sorted by score
    descending with ties resolved by the kept instance's frame index, and
    holds min(k, distinct count) entries.
    """
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    scored = [(cand, float(score(cand.text))) for cand in kept_candidates(cands)]
    for cand, s in scored:
        if not math.isfinite(s):
            raise FormatError(
                f"non-finite caption score {s} for {cands.video_id}#{cand.frame_index}"
            )
    scored.sort(key=lambda pair: (-pair[1], pair[0].frame_index))
    return [(cand.text, s) for cand, s in scored[:k]]


def read_candidates(path) -> list[CandidateSet]:
    """Parse a candidate manifest, grouping rows by video in file order."""
    groups: dict[str, list[CaptionCandidate]] = {}
    lines = read_fields(path, "\t", (3,), skip_blank=True)
    for lineno, (video_id, frame_str, caption) in lines:
        _check_row(f"{path}:{lineno}", video_id, caption)
        try:
            frame_index = int(frame_str)
        except ValueError:
            raise FormatError(
                f"{path}:{lineno}: frame index must be an integer, got {frame_str!r}"
            ) from None
        groups.setdefault(video_id, []).append(CaptionCandidate(frame_index, caption))
    return [CandidateSet(vid, cands) for vid, cands in groups.items()]


def write_selection(path, rows: dict[str, list[tuple[str, float]]]) -> None:
    """Write selections as `video_id\trank\tscore\tcaption` lines. A video id
    or caption that is empty or holds a TAB or line break, or a caption of
    only whitespace, is a FormatError, raised inside atomic_open, so
    whatever was at path stays."""
    with atomic_open(path, "w", encoding="utf-8", newline="\n") as fh:
        for video_id, selected in rows.items():
            for rank, (caption, score) in enumerate(selected, start=1):
                _check_row(path, video_id, caption)
                fh.write(f"{video_id}\t{rank}\t{score:.6f}\t{caption}\n")


def _check_row(where: str, video_id: str, caption: str) -> None:
    """`check_fields` on both fields; a caption of only whitespace is empty
    too, as it normalizes to no words."""
    check_fields(where, [video_id, caption], ("video id", "caption"))
    if caption.isspace():
        raise FormatError(f"{where}: empty caption")
