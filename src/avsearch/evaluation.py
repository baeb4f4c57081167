"""Corpus ranking, TREC-style run/qrels files, AP and inferred AP, late fusion.

Run files are line-oriented: `query_id Q0 item_id rank score run_tag` with
single spaces, ranks from 1, scores printed with 6 decimals. Qrels lines are
`query_id 0 item_id rel` with binary relevance; an optional first line
`#complete` or `#sampled` sets the completeness flag (default complete).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter

import numpy as np

from .errors import FormatError, MetricError
from .featio import atomic_open, read_fields
from .fusion import FeatureBundle, LaffModel, fused_matrix
from .numeric import unit_rows

INF_AP_EPS = 1e-5

RunEntry = list[tuple[str, float]]


@dataclass
class RankedRun:
    """Per-query ordered (item_id, score) lists plus the run tag."""

    entries: dict[str, RunEntry]
    run_tag: str = "avsearch"

    def __post_init__(self):
        for qid, entry in self.entries.items():
            seen = set()
            prev = np.inf
            for item_id, score in entry:
                if item_id in seen:
                    raise FormatError(f"query {qid!r}: duplicate item {item_id!r}")
                seen.add(item_id)
                if not math.isfinite(score):
                    raise FormatError(
                        f"query {qid!r}: non-finite score {score} at item {item_id!r}"
                    )
                if score > prev:
                    raise FormatError(
                        f"query {qid!r}: scores increase at item {item_id!r}"
                    )
                prev = score

    @property
    def query_ids(self) -> tuple[str, ...]:
        return tuple(self.entries)


@dataclass
class JudgmentSet:
    """Binary relevance labels per query; complete=False marks a sampled pool."""

    judgments: dict[str, dict[str, int]]
    complete: bool = True

    def __post_init__(self):
        for qid, labels in self.judgments.items():
            for item_id, rel in labels.items():
                if rel not in (0, 1):
                    raise FormatError(
                        f"query {qid!r}, item {item_id!r}: relevance must be 0/1, got {rel}"
                    )


# ---------------------------------------------------------------------------
# Ranking
# ---------------------------------------------------------------------------


def rank_many(
    model: LaffModel,
    queries: list[FeatureBundle],
    corpus: list[FeatureBundle],
    top_k: int,
) -> dict[str, RunEntry]:
    """Rank the corpus for every query and keep the top_k of each.

    Items come in descending score, ties by ascending item_id (Python string
    order), so -0.0 ties with 0.0 and a query whose scores are all equal
    lists the corpus in id order. A non-finite similarity, as one NaN
    feature value gives, raises FormatError naming the query and the item:
    sorting would put NaN last and silently drop the item from every list.
    """
    if not corpus:
        raise ValueError("empty corpus")
    if top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")
    vid = fused_matrix(model, corpus, "video")  # per head (n, d)
    txt = fused_matrix(model, queries, "text")  # per head (m, d)

    sims = np.zeros((len(queries), len(corpus)))
    for hv, ht in zip(vid, txt):
        sims += np.clip(unit_rows(ht)[0] @ unit_rows(hv)[0].T, -1.0, 1.0)
    sims /= model.h
    return rank_scores(
        sims, [q.item_id for q in queries], [b.item_id for b in corpus], top_k
    )


def rank_scores(
    sims: np.ndarray, query_ids: list[str], item_ids: list[str], top_k: int
) -> dict[str, RunEntry]:
    """The top_k (item_id, score) of each row of a (queries, items) matrix.

    Order and the non-finite rule are `rank_many`'s. The columns are put in
    id order once, so a stable sort of a row on -score breaks ties by id.
    Only the items scoring at least the top_k-th largest score are sorted:
    that keeps every tie at the cut, in id order. When top_k >= n that
    score is the row's minimum, so every item is sorted, -0.0 included.
    """
    n = len(item_ids)
    by_id = np.array(sorted(range(n), key=item_ids.__getitem__), dtype=np.intp)
    ids_by_id = np.array(item_ids, dtype=object)[by_id]
    cut = max(n - top_k, 0)
    out: dict[str, RunEntry] = {}
    for qid, row in zip(query_ids, sims):
        s = row[by_id]
        finite = np.isfinite(s)
        if not finite.all():
            j = int(np.argmin(finite))
            raise FormatError(
                f"query {qid!r}: non-finite similarity {s[j]} at item {ids_by_id[j]!r}"
            )
        kept = np.flatnonzero(s >= np.partition(s, cut)[cut])
        order = kept[np.argsort(-s[kept], kind="stable")[:top_k]]
        out[qid] = list(zip(ids_by_id[order].tolist(), s[order].tolist()))
    return out


def rank(
    model: LaffModel, query: FeatureBundle, corpus: list[FeatureBundle], top_k: int
) -> RunEntry:
    """Rank the corpus for one query."""
    return rank_many(model, [query], corpus, top_k)[query.item_id]


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def average_precision(entry: RunEntry, judgments: dict[str, int]) -> float:
    """AP = (1/R) sum over relevant hits at rank k of (hits through k)/k.

    R counts every judged-relevant item, retrieved or not; unjudged items
    count as nonrelevant (only meaningful on fully judged queries).
    """
    total_relevant = sum(1 for rel in judgments.values() if rel == 1)
    if total_relevant == 0:
        raise MetricError("average precision undefined: no relevant items")
    hits = 0
    acc = 0.0
    for k, (item_id, _) in enumerate(entry, start=1):
        if judgments.get(item_id, 0) == 1:
            hits += 1
            acc += hits / k
    return acc / total_relevant


def inf_ap(entry: RunEntry, judgments: dict[str, int]) -> float:
    """Inferred AP under a uniformly sampled judgment pool.

    For a judged-relevant item at rank k, expected precision is estimated as
    1/k + ((k-1)/k) * (d/(k-1)) * ((r + eps)/(r + n + 2 eps)) where d, r, n
    count judged / judged-relevant / judged-nonrelevant items above rank k
    (the rank-1 term is exactly 1). The sum is divided by the number of
    judged-relevant items. Collapses to AP when the pool is complete.
    """
    total_relevant = sum(1 for rel in judgments.values() if rel == 1)
    if total_relevant == 0:
        raise MetricError("inferred AP undefined: no judged-relevant items")
    acc = 0.0
    judged_above = 0
    relevant_above = 0
    for k, (item_id, _) in enumerate(entry, start=1):
        rel = judgments.get(item_id)
        if rel == 1:
            if k == 1:
                acc += 1.0
            else:
                d = judged_above
                r = relevant_above
                n = d - r
                est = (d / (k - 1)) * ((r + INF_AP_EPS) / (r + n + 2 * INF_AP_EPS))
                acc += 1.0 / k + ((k - 1) / k) * est
        if rel is not None:
            judged_above += 1
            if rel == 1:
                relevant_above += 1
    return acc / total_relevant


def mean_metric(
    run: RankedRun, judgments: JudgmentSet, metric
) -> tuple[float, dict[str, float]]:
    """Apply a per-query metric over run queries with judgments; mean + per-query."""
    per_query: dict[str, float] = {}
    for qid, entry in run.entries.items():
        labels = judgments.judgments.get(qid)
        if labels is None:
            continue
        per_query[qid] = metric(entry, labels)
    if not per_query:
        raise MetricError("no run query has judgments")
    return sum(per_query.values()) / len(per_query), per_query


# ---------------------------------------------------------------------------
# Late fusion
# ---------------------------------------------------------------------------


def _minmax(scores: list[float]) -> list[float]:
    lo = min(scores)
    hi = max(scores)
    if hi == lo:
        return [0.5] * len(scores)
    return [(s - lo) / (hi - lo) for s in scores]


def late_fuse(
    runs: list[RankedRun],
    weights: list[float],
    run_tag: str = "fusion",
    normalize: bool = True,
) -> RankedRun:
    """Weighted sum of per-run scores, min-max normalized per run and query.

    Items missing from a run contribute that run's minimum normalized score
    for the query. Raw "average fusion" across uncalibrated score ranges is
    meaningless, hence the normalization (disable with normalize=False).
    """
    if not runs:
        raise ValueError("no runs to fuse")
    if len(weights) != len(runs):
        raise ValueError(f"{len(runs)} runs but {len(weights)} weights")
    if any(w < 0 for w in weights):
        raise ValueError("weights must be nonnegative")
    if sum(weights) <= 0:
        raise ValueError("weights must sum to > 0")
    qids = set(runs[0].entries)
    for i, run in enumerate(runs[1:], start=1):
        if set(run.entries) != qids:
            raise ValueError(
                f"run {run.run_tag!r} (index {i}) covers different query ids"
            )

    fused: dict[str, RunEntry] = {}
    for qid in runs[0].entries:
        # Items keep first-appearance order so ties resolve stably.
        order: list[str] = []
        totals: dict[str, float] = {}
        per_run_scores: list[dict[str, float]] = []
        fills: list[float] = []
        for run in runs:
            entry = run.entries[qid]
            raw = [s for _, s in entry]
            norm = _minmax(raw) if normalize else raw
            scored = {item: ns for (item, _), ns in zip(entry, norm)}
            per_run_scores.append(scored)
            fills.append(min(norm) if norm else 0.0)
            for item, _ in entry:
                if item not in totals:
                    totals[item] = 0.0
                    order.append(item)
        for w, scored, fill in zip(weights, per_run_scores, fills):
            for item in order:
                totals[item] += w * scored.get(item, fill)
        ranked = sorted(order, key=lambda item: -totals[item])
        fused[qid] = [(item, totals[item]) for item in ranked]
    return RankedRun(fused, run_tag)


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------


def _check_ids(where, field: str, ids) -> None:
    """Reject an empty id or one holding whitespace, as its line would not
    read back; the error, at `where`, names the first in sorted order."""
    bad = sorted(value for value in ids if value.split() != [value])
    if bad:
        raise FormatError(f"{where}: {field} {bad[0]!r} is empty or contains whitespace")


def write_run(path, run: RankedRun) -> None:
    """Write a run file; a failed write leaves `path` as it was (`atomic_open`).

    The run tag, query ids and item ids must be non-empty and hold no
    whitespace; each distinct one is checked once. Each query's lines go
    out in one write, which pays for those checks."""
    with atomic_open(path, "w", encoding="utf-8", newline="\n") as fh:
        _check_ids(path, "run tag", [run.run_tag])
        _check_ids(path, "query id", run.entries)
        items = chain.from_iterable(map(itemgetter(0), e) for e in run.entries.values())
        _check_ids(path, "item id", set(items))
        for qid, entry in run.entries.items():
            fh.write("".join([
                f"{qid} Q0 {item_id} {rank_pos} {score:.6f} {run.run_tag}\n"
                for rank_pos, (item_id, score) in enumerate(entry, start=1)
            ]))


def read_run(path) -> RankedRun:
    """Read a run file; each distinct id and the tag are checked as in `write_run`.

    Every entry that lists an item holds the same str object for its id.
    """
    entries: dict[str, RunEntry] = {}
    run_tag: str | None = None
    current: str | None = None
    expected_rank = 0
    # Each item id checked so far, mapped to the one str object that every
    # entry listing it shares.
    checked: dict[str, str] = {}
    for lineno, (qid, q0, item_id, rank_str, score_str, tag) in read_fields(path, " ", (6,)):
        if q0 != "Q0":
            raise FormatError(f"{path}:{lineno}: second field must be Q0, got {q0!r}")
        try:
            rank_pos = int(rank_str)
            score = float(score_str)
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: {exc}") from None
        if tag != run_tag:
            if run_tag is not None:
                raise FormatError(f"{path}:{lineno}: run tag changes from {run_tag!r} to {tag!r}")
            _check_ids(f"{path}:{lineno}", "run tag", [tag])
            run_tag = tag
        if qid != current:
            if qid in entries:
                raise FormatError(
                    f"{path}:{lineno}: query {qid!r} reappears after another query"
                )
            _check_ids(f"{path}:{lineno}", "query id", [qid])
            entries[qid] = entry = []
            current = qid
            expected_rank = 1
        if rank_pos != expected_rank:
            raise FormatError(f"{path}:{lineno}: rank {rank_pos}, expected {expected_rank}")
        expected_rank += 1
        canonical = checked.get(item_id)
        if canonical is None:
            _check_ids(f"{path}:{lineno}", "item id", [item_id])
            checked[item_id] = canonical = item_id
        entry.append((canonical, score))
    if run_tag is None:
        raise FormatError(f"{path}: empty run file")
    try:
        return RankedRun(entries, run_tag)
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from None


def write_qrels(path, judgments: JudgmentSet) -> None:
    """Write a qrels file; ids are checked as in `write_run`."""
    with atomic_open(path, "w", encoding="utf-8", newline="\n") as fh:
        _check_ids(path, "query id", judgments.judgments)
        _check_ids(path, "item id", set(chain.from_iterable(judgments.judgments.values())))
        fh.write("#complete\n" if judgments.complete else "#sampled\n")
        for qid, labels in judgments.judgments.items():
            for item_id, rel in labels.items():
                fh.write(f"{qid} 0 {item_id} {rel}\n")


def read_qrels(path) -> JudgmentSet:
    """Read a qrels file; each distinct id is checked as in `write_qrels`."""
    judgments: dict[str, dict[str, int]] = {}
    complete = True
    checked: set[str] = set()  # query and item ids already checked
    for lineno, fields in read_fields(path, " ", (4,), header=("#complete", "#sampled")):
        if len(fields) == 1:  # the optional header, on line 1 only
            complete = fields[0] == "#complete"
            continue
        qid, _, item_id, rel_str = fields
        for field, value in (("query id", qid), ("item id", item_id)):
            if value not in checked:
                _check_ids(f"{path}:{lineno}", field, [value])
                checked.add(value)
        if rel_str not in ("0", "1"):
            raise FormatError(f"{path}:{lineno}: relevance must be 0 or 1, got {rel_str!r}")
        labels = judgments.setdefault(qid, {})
        if item_id in labels:
            raise FormatError(f"{path}:{lineno}: duplicate judgment for {item_id!r}")
        labels[item_id] = int(rel_str)
    return JudgmentSet(judgments, complete)
