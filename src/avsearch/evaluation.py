"""Corpus ranking, TREC-style run/qrels files, AP and inferred AP, late fusion.

Ranking yields one row per query, `(query id, item ids, scores)` as lists
(`ranked_rows`); `rank_scores` and `rank_many` collect the rows into
`(item_id, score)` lists, and `search` streams them into its run file
through `write_rows`, the one run writer. Code that needs only where the
relevant items land (validation, the nearest-latent oracle) counts their
ranks with `relevant_ranks` instead of sorting each row, and scores them
with `ap_from_ranks`, the AP formula that `average_precision` also ends in.

Run files are line-oriented: `query_id Q0 item_id rank score run_tag` with
single spaces, ranks from 1, scores printed with 6 decimals. Qrels lines are
`query_id 0 item_id rel` with binary relevance; an optional first line
`#complete` or `#sampled` sets the completeness flag (default complete).
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
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
# One query's ranking: (query id, item ids, scores), best first.
RankedRow = tuple[str, list[str], list[float]]


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


def similarity_matrix(
    model: LaffModel, queries: list[FeatureBundle], corpus: list[FeatureBundle]
) -> np.ndarray:
    """The (queries, corpus) similarities: per head, the cosine of the fused
    embeddings clipped to [-1, 1]; then the mean over heads."""
    vid = fused_matrix(model, corpus, "video")  # per head (n, d)
    txt = fused_matrix(model, queries, "text")  # per head (m, d)
    sims = np.zeros((len(queries), len(corpus)))
    for hv, ht in zip(vid, txt):
        sims += np.clip(unit_rows(ht)[0] @ unit_rows(hv)[0].T, -1.0, 1.0)
    sims /= model.h
    return sims


def rank_rows(
    model: LaffModel,
    queries: list[FeatureBundle],
    corpus: list[FeatureBundle],
    top_k: int,
) -> Iterator[RankedRow]:
    """Rank the corpus for every query and keep the top_k of each, as the
    rows of `ranked_rows`.

    Items come in descending score, ties by ascending item_id (Python string
    order), so -0.0 ties with 0.0 and a query whose scores are all equal
    lists the corpus in id order. A non-finite similarity, as one NaN
    feature value gives, raises FormatError naming the query and the item:
    sorting would put NaN last and silently drop the item from every list.
    Every error is raised at the call, before the first row is taken.
    """
    if not corpus:
        raise ValueError("empty corpus")
    if top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")
    return ranked_rows(
        similarity_matrix(model, queries, corpus),
        [q.item_id for q in queries],
        [b.item_id for b in corpus],
        top_k,
    )


def rank_many(
    model: LaffModel,
    queries: list[FeatureBundle],
    corpus: list[FeatureBundle],
    top_k: int,
) -> dict[str, RunEntry]:
    """`rank_rows` as (item_id, score) lists by query id."""
    rows = rank_rows(model, queries, corpus, top_k)
    return {qid: list(zip(ids, scores)) for qid, ids, scores in rows}


def ranked_rows(
    sims: np.ndarray, query_ids: list[str], item_ids: list[str], top_k: int
) -> Iterator[RankedRow]:
    """(query id, item ids, scores) of the top_k items of each row of a
    (queries, items) matrix, one row at a time.

    Order and the non-finite rule are `rank_rows`'. The item ids must be
    distinct. Both are checked at the call, for the whole matrix, so a
    caller that writes the rows as they come has nothing to undo. The
    columns are put in id order once, so a stable sort of a row on -score
    breaks ties by id. Only the items scoring at least the top_k-th largest
    score are sorted: that keeps every tie at the cut, in id order. When
    top_k >= n that score is the row's minimum, so every item is sorted,
    -0.0 included. So each row lists distinct ids, by non-increasing
    finite scores.
    """
    return _top_k_rows(sims, query_ids, *_id_order(sims, query_ids, item_ids), top_k)


def _id_order(sims, query_ids, item_ids) -> tuple[np.ndarray, np.ndarray]:
    """(the column indices of sims in item-id order, the ids in that order),
    after refusing duplicate item ids and then non-finite similarities in
    the rows of query_ids, as `ranked_rows` documents."""
    n = len(item_ids)
    by_id = np.array(sorted(range(n), key=item_ids.__getitem__), dtype=np.intp)
    ids_by_id = np.array(item_ids, dtype=object)[by_id]
    if len(set(item_ids)) < n:
        same = np.flatnonzero(ids_by_id[1:] == ids_by_id[:-1])
        raise ValueError(f"duplicate item id {ids_by_id[same[0]]!r}")
    finite = np.isfinite(sims[: len(query_ids)]).all(axis=1)
    if not finite.all():
        q = int(np.argmin(finite))
        s = sims[q, by_id]
        j = int(np.argmin(np.isfinite(s)))
        raise FormatError(
            f"query {query_ids[q]!r}: non-finite similarity {s[j]} at item {ids_by_id[j]!r}"
        )
    return by_id, ids_by_id


def _top_k_rows(sims, query_ids, by_id, ids_by_id, top_k) -> Iterator[RankedRow]:
    cut = max(len(by_id) - top_k, 0)
    for qid, row in zip(query_ids, sims):
        s = row[by_id]
        kept = np.flatnonzero(s >= np.partition(s, cut)[cut])
        order = kept[np.argsort(-s[kept], kind="stable")[:top_k]]
        yield qid, ids_by_id[order].tolist(), s[order].tolist()


def rank_scores(
    sims: np.ndarray, query_ids: list[str], item_ids: list[str], top_k: int
) -> dict[str, RunEntry]:
    """`ranked_rows` as (item_id, score) lists by query id."""
    rows = ranked_rows(sims, query_ids, item_ids, top_k)
    return {qid: list(zip(ids, scores)) for qid, ids, scores in rows}


def rank(
    model: LaffModel, query: FeatureBundle, corpus: list[FeatureBundle], top_k: int
) -> RunEntry:
    """Rank the corpus for one query."""
    return rank_many(model, [query], corpus, top_k)[query.item_id]


def relevant_ranks(
    sims: np.ndarray, query_ids: list[str], item_ids: list[str], targets
) -> list[list[int]]:
    """For each (row, relevant item ids) of targets, the ascending 1-based
    ranks that `ranked_rows` gives, in that row of sims, to those of the ids
    that label its columns; ids that label none are left out.

    The ranks are counted, not sorted: in a row s, item j ranks
    1 + #(s > s_j) + #(s == s_j and id < id_j), which is `ranked_rows`'
    order, -0.0 tying with 0.0. The matrix and the ids are checked at the
    call as in `ranked_rows`, with its errors.
    """
    by_id, ids_by_id = _id_order(sims, query_ids, item_ids)
    position = {item: p for p, item in enumerate(ids_by_id.tolist())}
    out = []
    for row, relevant in targets:
        s = sims[row, by_id]
        ranks = []
        for item in relevant:
            p = position.get(item)
            if p is not None:
                v = s[p]
                ranks.append(1 + int(np.count_nonzero(s > v) + np.count_nonzero(s[:p] == v)))
        out.append(sorted(ranks))
    return out


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def ap_from_ranks(ranks: list[int], total_relevant: int) -> float:
    """AP = (1/R) sum over relevant hits at rank k of (hits through k)/k,
    from the ascending ranks of the retrieved relevant items and R."""
    acc = 0.0
    for hits, k in enumerate(ranks, start=1):
        acc += hits / k
    return acc / total_relevant


def average_precision(entry: RunEntry, judgments: dict[str, int]) -> float:
    """AP = (1/R) sum over relevant hits at rank k of (hits through k)/k.

    R counts every judged-relevant item, retrieved or not; unjudged items
    count as nonrelevant (only meaningful on fully judged queries). The
    scan stops at the last judged-relevant item.
    """
    total_relevant = sum(1 for rel in judgments.values() if rel == 1)
    if total_relevant == 0:
        raise MetricError("average precision undefined: no relevant items")
    ranks = []
    for k, (item_id, _) in enumerate(entry, start=1):
        if judgments.get(item_id, 0) == 1:
            ranks.append(k)
            if len(ranks) == total_relevant:
                break
    return ap_from_ranks(ranks, total_relevant)


def inf_ap(entry: RunEntry, judgments: dict[str, int]) -> float:
    """Inferred AP under a uniformly sampled judgment pool.

    For a judged-relevant item at rank k, expected precision is estimated as
    1/k + ((k-1)/k) * (d/(k-1)) * ((r + eps)/(r + n + 2 eps)) where d, r, n
    count judged / judged-relevant / judged-nonrelevant items above rank k
    (the rank-1 term is exactly 1). The sum is divided by the number of
    judged-relevant items. Collapses to AP when the pool is complete. The
    scan stops at the last judged-relevant item.
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
                if relevant_above == total_relevant:
                    break
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
    """Write a run file through `write_rows`."""
    write_rows(
        path,
        (
            (qid, list(map(itemgetter(0), entry)), list(map(itemgetter(1), entry)))
            for qid, entry in run.entries.items()
        ),
        run.run_tag,
    )


def write_rows(path, rows: Iterable[RankedRow], run_tag: str) -> None:
    """Write a run file from (query id, item ids, scores) rows, as they come.

    Each query's lines are one `%` format, whose template repeats
    `{qid} Q0 %s {rank} %.6f {run_tag}` and whose arguments are the item
    ids and scores, interleaved. After the last row, `_check_ids` checks
    the run tag, the query ids and the listed item ids, in that order. A
    failed write or check leaves `path` as it was (`atomic_open`). The rows
    are written as given: ordering, finite scores and distinct ids are the
    caller's to guarantee (`RankedRun`, `ranked_rows`).
    """
    tail = " " + run_tag.replace("%", "%%") + "\n"
    fields: list[str] = []  # fields[r - 1] == "%s {r} %.6f"
    query_ids = []
    listed: set[str] = set()
    with atomic_open(path, "w", encoding="utf-8", newline="\n") as fh:
        for qid, ids, scores in rows:
            query_ids.append(qid)
            n = len(ids)
            if not n:
                continue
            fields.extend(f"%s {r} %.6f" for r in range(len(fields) + 1, n + 1))
            head = qid.replace("%", "%%") + " Q0 "
            values = [None] * (2 * n)
            values[::2] = ids
            values[1::2] = scores
            fh.write((head + (tail + head).join(fields[:n]) + tail) % tuple(values))
            listed.update(ids)
        _check_ids(path, "run tag", [run_tag])
        _check_ids(path, "query id", query_ids)
        _check_ids(path, "item id", listed)


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
