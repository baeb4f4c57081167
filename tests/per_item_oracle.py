"""Per-item reference implementations of the batched fusion, loss, ranking
and post-search code.

Item-at-a-time branch forward/backward, `bnl_loss`, `fused_matrix`, the
per-frame rerank loop, per-pair pseudo-caption scoring and the per-triplet
`gap_in_window_fraction`. They run one bundle, one frame and one pair at a
time through `linear_tanh`, the scalar cosine `cosine_sim` and its VJP
`cosine_sim_vjp`, so tests can compare the batched path against an
independent oracle. Both scalar formulas live only here: in `src/`,
`numeric.cosine_sim` is `row_cosines` on one row, and the one cosine VJP is
`numeric.cosine_rows_vjp`, which `similarity_with_grad` and `bnl_loss`
call. `read_features` decodes a feature file record by record into a dict
of vectors, then refuses the first record holding a non-finite value, and
`group_frame_features` restacks its frame records item by item, as the
references for the columnar decoder and the one-sort grouping. `rank_scores`
sorts each query in Python on the key (-score, item_id), as the reference
for `evaluation.ranked_rows`, which `batched_rank_scores` and
`batched_rank` collect into the same lists for the tests that compare
them; `relevant_ranks` reads ranks off its lists,
as the reference for the counted ranks, and `write_run` writes each line of a run
with its own f-string, as the reference for `evaluation.write_rows`, and `read_run` reads one over
`read_fields` and then checks every query through `RankedRun`, as the
reference for the streamed `evaluation.read_run`.
`late_fuse` keeps per-run score lists and the item order beside its totals,
as the reference for `evaluation.late_fuse`.
`average_precision`, `inf_ap` and `recall_at_k` scan a whole ranked list,
as the references for the metrics that stop at the last relevant item or
count ranks. `train_epoch` adds each batch's gradient into a new zeroed
vector, clips it by `vector_norm`, the norm of the formed vector, and
updates with one expression, as the reference for the trainer's in-place
step, whose norm comes from the gradient's factors. `negation_sites` asks
two predicates of each token, `_is_auxiliary` and `_is_verb`, as the
reference for the sites that `negation.negation_sites`
reads off `coarse_tags`. `init_model` walks heads, branches and spaces in
three explicit loops, as the reference for `fusion.init_model`, which draws
the 2-D arrays of `named_parameters`.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter

import numpy as np

from avsearch.errors import DegenerateSimilarityWarning, DimensionError, FormatError
from avsearch.featio import FEATURE_MAGIC, FORMAT_VERSION, _read_name, _Reader, atomic_open
from avsearch.featio import check_tokens, read_fields

from avsearch.evaluation import INF_AP_EPS, RankedRun, RunEntry, _minmax, ranked_rows
from avsearch.evaluation import rank_many as batched_rank_many
from avsearch.fusion import BranchGrads, FeatureBundle, LaffBranchParams, LaffModel, param_count
from avsearch.fusion import fused_matrix as batched_fused_matrix
from avsearch.negation import bnl_loss as batched_bnl_loss
from avsearch.negation import (
    AUXILIARIES,
    ING_NOUNS,
    NOUN_MARKERS,
    BnlBreakdown,
    Caption,
    Margins,
    Triplet,
    _bcl_grads,
    bcl_text_anchor,
    bcl_video_anchor,
)
from avsearch.numeric import as_vector, linear_tanh, softmax, unit_rows
from avsearch.pseudocap import normalize_caption


def cosine_sim(u, v) -> float:
    """u.v / (|u||v|), clipped to [-1, 1].

    A zero-norm operand yields 0.0 and a DegenerateSimilarityWarning; zero
    embeddings can transiently occur during training and must not abort it.
    """
    u = as_vector(u, "u")
    v = as_vector(v, "v")
    if u.shape != v.shape:
        raise DimensionError(f"length mismatch: {u.shape[0]} vs {v.shape[0]}")
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        warnings.warn(
            "cosine similarity of a zero vector; returning 0.0",
            DegenerateSimilarityWarning,
            stacklevel=2,
        )
        return 0.0
    c = float(u @ v) / (nu * nv)
    # Explicit comparisons so a NaN propagates instead of being clamped.
    if c > 1.0:
        return 1.0
    if c < -1.0:
        return -1.0
    return c


def cosine_sim_vjp(u, v, upstream: float) -> tuple[np.ndarray, np.ndarray]:
    """Gradients (du, dv) of upstream * cosine_sim(u, v).

    Defined as zero on a zero-norm operand, matching the forward convention.
    """
    u = as_vector(u, "u")
    v = as_vector(v, "v")
    if u.shape != v.shape:
        raise DimensionError(f"length mismatch: {u.shape[0]} vs {v.shape[0]}")
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        return np.zeros_like(u), np.zeros_like(v)
    c = float(u @ v) / (nu * nv)
    du = upstream * (v / (nu * nv) - c * u / (nu * nu))
    dv = upstream * (u / (nu * nv) - c * v / (nv * nv))
    return du, dv


@dataclass
class ItemState:
    spaces: tuple[str, ...]
    inputs: list[np.ndarray]
    transformed: np.ndarray  # (k, d)
    weights: np.ndarray  # (k,)
    fused: np.ndarray  # (d,)


def item_forward(branch: LaffBranchParams, bundle: FeatureBundle) -> ItemState:
    if set(bundle.features) != set(branch.transforms):
        raise ValueError(f"bundle {bundle.item_id!r} does not match branch spaces")
    spaces = branch.spaces
    inputs = [bundle.features[name] for name in spaces]
    transformed = np.stack(
        [linear_tanh(branch.transforms[name], f) for name, f in zip(spaces, inputs)]
    )
    weights = softmax(transformed @ branch.attention)
    return ItemState(spaces, inputs, transformed, weights, weights @ transformed)


def item_backward(branch: LaffBranchParams, state: ItemState, d_fused: np.ndarray) -> BranchGrads:
    e = state.transformed
    a = state.weights
    d_a = e @ d_fused
    ds = a * (d_a - float(a @ d_a))
    d_attention = e.T @ ds
    d_e = np.outer(a, d_fused) + np.outer(ds, branch.attention)
    d_weight, d_bias, d_inputs = {}, {}, {}
    for i, name in enumerate(state.spaces):
        dz = d_e[i] * (1.0 - e[i] * e[i])
        d_weight[name] = np.outer(dz, state.inputs[i])
        d_bias[name] = dz
        d_inputs[name] = branch.transforms[name].weight.T @ dz
    return BranchGrads(d_weight, d_bias, d_attention, d_inputs)


def zeros_like(model: LaffModel) -> LaffModel:
    """A model of the same structure with every parameter +0.0."""
    return model.on_vector(np.zeros(model.n_params()))


def add_grads(branch: LaffBranchParams, grads: BranchGrads) -> None:
    """Add a branch's parameter gradients into branch, the same branch of a
    gradient model (see zeros_like)."""
    for name, d_weight in grads.d_weight.items():
        p = branch.transforms[name]
        p.weight += d_weight
        p.bias += grads.d_bias[name]
    branch.attention += grads.d_attention


def init_model(video_dims, text_dims, d: int, heads: int, seed: int) -> LaffModel:
    """Zero biases and attention vectors; each weight drawn in place from
    U(-1/sqrt(d_in), 1/sqrt(d_in)), head by head, the video branch then the
    text branch, spaces in sorted order."""
    zeros = np.zeros(param_count(video_dims, text_dims, d, heads))
    model = LaffModel.from_params(zeros, video_dims, text_dims, d, heads)
    rng = np.random.default_rng(seed)
    for head in model.heads:
        for branch in (head.video, head.text):
            for name in branch.spaces:
                weight = branch.transforms[name].weight
                bound = 1.0 / np.sqrt(weight.shape[1])
                rng.random(out=weight)
                weight *= 2.0 * bound
                weight -= bound
    return model


def fused_matrix(model: LaffModel, bundles, branch: str) -> list[np.ndarray]:
    out = []
    for head in model.heads:
        bp = head.video if branch == "video" else head.text
        out.append(np.stack([item_forward(bp, b).fused for b in bundles]))
    return out


def bnl_loss(model: LaffModel, batch: list[Triplet], m: Margins):
    """(loss, flat gradient, breakdown), one item and one pair at a time."""
    n = len(batch)
    grad = zeros_like(model)
    h = model.h
    inv_h = 1.0 / h
    inv_n = 1.0 / n

    video_states = [[item_forward(head.video, t.video) for t in batch] for head in model.heads]
    text_states = [
        [item_forward(head.text, t.caption_features) for t in batch] for head in model.heads
    ]
    neg_states = [
        [item_forward(head.text, t.negated_features) if t.has_negated else None for t in batch]
        for head in model.heads
    ]

    sim = np.zeros((n, n))
    for hi in range(h):
        for vi in range(n):
            for qi in range(n):
                sim[vi, qi] += cosine_sim(video_states[hi][vi].fused, text_states[hi][qi].fused)
    sim *= inv_h

    s_vneg = np.zeros(n)
    s_ttneg = np.zeros(n)
    for b, t in enumerate(batch):
        if not t.has_negated:
            continue
        for hi in range(h):
            s_vneg[b] += cosine_sim(video_states[hi][b].fused, neg_states[hi][b].fused)
            s_ttneg[b] += cosine_sim(text_states[hi][b].fused, neg_states[hi][b].fused)
    s_vneg *= inv_h
    s_ttneg *= inv_h

    if not all(np.all(np.isfinite(x)) for x in (sim, s_vneg, s_ttneg)):
        return float("nan"), grad.params, BnlBreakdown([], [], [], [])

    d_vid = [np.zeros((n, model.d)) for _ in range(h)]
    d_txt = [np.zeros((n, model.d)) for _ in range(h)]
    d_neg = [np.zeros((n, model.d)) for _ in range(h)]

    def add_cross(vi: int, qi: int, upstream: float) -> None:
        for hi in range(h):
            dv, dt = cosine_sim_vjp(
                video_states[hi][vi].fused, text_states[hi][qi].fused, upstream * inv_h
            )
            d_vid[hi][vi] += dv
            d_txt[hi][qi] += dt

    breakdown = BnlBreakdown([], [], [], [])
    loss = 0.0
    for b, t in enumerate(batch):
        column = sim[:, b].copy()
        column[b] = -np.inf
        hardest = int(np.argmax(column))
        s_pos = sim[b, b]
        primary = max(0.0, m.m0 + sim[hardest, b] - s_pos)
        loss += primary
        if primary > 0.0:
            add_cross(hardest, b, inv_n)
            add_cross(b, b, -inv_n)

        va = ta = 0.0
        if t.has_negated:
            va = bcl_video_anchor(s_pos, s_vneg[b], m)
            ta = bcl_text_anchor(s_pos, s_ttneg[b], m)
            loss += m.lambda1 * (va + ta)
            scale = inv_n * m.lambda1
            g_pos, g_neg = _bcl_grads(m.m1, m.m2, s_pos, s_vneg[b])
            if g_pos != 0.0:
                add_cross(b, b, scale * g_pos)
            if g_neg != 0.0:
                for hi in range(h):
                    dv, dn = cosine_sim_vjp(
                        video_states[hi][b].fused, neg_states[hi][b].fused, scale * g_neg * inv_h
                    )
                    d_vid[hi][b] += dv
                    d_neg[hi][b] += dn
            g_qx, g_qq = _bcl_grads(m.m3, m.m4, s_pos, s_ttneg[b])
            if g_qx != 0.0:
                add_cross(b, b, scale * g_qx)
            if g_qq != 0.0:
                for hi in range(h):
                    dt, dn = cosine_sim_vjp(
                        text_states[hi][b].fused, neg_states[hi][b].fused, scale * g_qq * inv_h
                    )
                    d_txt[hi][b] += dt
                    d_neg[hi][b] += dn

        breakdown.primary.append(primary)
        breakdown.video_anchor.append(va)
        breakdown.text_anchor.append(ta)
        breakdown.hardest.append(hardest)

    loss *= inv_n

    for hi, (head, grad_head) in enumerate(zip(model.heads, grad.heads)):
        for b in range(n):
            if np.any(d_vid[hi][b]):
                add_grads(grad_head.video, item_backward(head.video, video_states[hi][b], d_vid[hi][b]))
            if np.any(d_txt[hi][b]):
                add_grads(grad_head.text, item_backward(head.text, text_states[hi][b], d_txt[hi][b]))
            if neg_states[hi][b] is not None and np.any(d_neg[hi][b]):
                add_grads(grad_head.text, item_backward(head.text, neg_states[hi][b], d_neg[hi][b]))

    return float(loss), grad.params, breakdown


def batched_rank_scores(sims, query_ids, item_ids, top_k):
    """`evaluation.ranked_rows` as (item_id, score) lists by query id."""
    rows = ranked_rows(sims, query_ids, item_ids, top_k)
    return {qid: list(zip(ids, scores)) for qid, ids, scores in rows}


def batched_rank(model: LaffModel, query: FeatureBundle, corpus, top_k):
    """`evaluation.rank_many` for one query: its (item_id, score) list."""
    return batched_rank_many(model, [query], corpus, top_k)[query.item_id]


def rank_scores(sims, query_ids, item_ids, top_k):
    """One Python sort per query on the key (-score, item_id)."""
    out = {}
    for qi, qid in enumerate(query_ids):
        order = sorted(range(len(item_ids)), key=lambda i: (-sims[qi, i], item_ids[i]))
        out[qid] = [(item_ids[i], float(sims[qi, i])) for i in order[:top_k]]
    return out


def relevant_ranks(sims, query_ids, item_ids, targets):
    """For each (row, relevant ids), the ascending positions of those ids in
    that row's full `rank_scores` list."""
    out = []
    for row, relevant in targets:
        entry = rank_scores(sims[row : row + 1], [query_ids[row]], item_ids, len(item_ids))
        rank_of = {item: k for k, (item, _) in enumerate(entry[query_ids[row]], start=1)}
        out.append(sorted(rank_of[item] for item in relevant if item in rank_of))
    return out


def average_precision(entry, judgments) -> float:
    """AP over the whole list, one hit at a time."""
    total_relevant = sum(1 for rel in judgments.values() if rel == 1)
    hits = 0
    acc = 0.0
    for k, (item_id, _) in enumerate(entry, start=1):
        if judgments.get(item_id, 0) == 1:
            hits += 1
            acc += hits / k
    return acc / total_relevant


def inf_ap(entry, judgments) -> float:
    """Inferred AP over the whole list, with `evaluation.inf_ap`'s estimator."""
    total_relevant = sum(1 for rel in judgments.values() if rel == 1)
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


def recall_at_k(entry, labels, k: int) -> float:
    """The share of the relevant items that the first k entries list."""
    relevant = {i for i, rel in labels.items() if rel == 1}
    hits = sum(1 for item, _ in entry[:k] if item in relevant)
    return hits / len(relevant)


def rank_many(model: LaffModel, queries, corpus, top_k):
    """Batched similarities (the same float64 values as `rank_many`), sorted
    per query by `rank_scores`."""
    vid = batched_fused_matrix(model, corpus, "video")
    txt = batched_fused_matrix(model, queries, "text")
    sims = np.zeros((len(queries), len(corpus)))
    for hv, ht in zip(vid, txt):
        sims += np.clip(unit_rows(ht)[0] @ unit_rows(hv)[0].T, -1.0, 1.0)
    sims /= model.h
    return rank_scores(sims, [q.item_id for q in queries], [b.item_id for b in corpus], top_k)


def write_run(path, run) -> None:
    """One f-string per line, the ids checked before the first line is
    written: the reference for `evaluation.write_rows`."""
    with atomic_open(path, "w", encoding="utf-8", newline="\n") as fh:
        check_tokens(path, "run tag", [run.run_tag])
        check_tokens(path, "query id", run.entries)
        items = chain.from_iterable(map(itemgetter(0), e) for e in run.entries.values())
        check_tokens(path, "item id", set(items))
        for qid, entry in run.entries.items():
            fh.write("".join([
                f"{qid} Q0 {item_id} {rank_pos} {score:.6f} {run.run_tag}\n"
                for rank_pos, (item_id, score) in enumerate(entry, start=1)
            ]))


def read_run(path) -> RankedRun:
    """Line by line over `read_fields`, then every query through
    `RankedRun`'s check: the reference for `evaluation.read_run`. Each
    distinct id and the tag are checked as in `write_run`, and every entry
    that lists an item holds the same str object for its id."""
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
            check_tokens(f"{path}:{lineno}", "run tag", [tag])
            run_tag = tag
        if qid != current:
            if qid in entries:
                raise FormatError(
                    f"{path}:{lineno}: query {qid!r} reappears after another query"
                )
            check_tokens(f"{path}:{lineno}", "query id", [qid])
            entries[qid] = entry = []
            current = qid
            expected_rank = 1
        if rank_pos != expected_rank:
            raise FormatError(f"{path}:{lineno}: rank {rank_pos}, expected {expected_rank}")
        expected_rank += 1
        canonical = checked.get(item_id)
        if canonical is None:
            check_tokens(f"{path}:{lineno}", "item id", [item_id])
            checked[item_id] = canonical = item_id
        entry.append((canonical, score))
    if run_tag is None:
        raise FormatError(f"{path}: empty run file")
    try:
        return RankedRun(entries, run_tag)
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from None


def late_fuse(runs, weights, run_tag="fusion", normalize=True):
    """Each run's normalized scores and fill kept in lists, the items'
    first-appearance order in its own list, and the weighted sums added
    after all runs are read: the reference for `evaluation.late_fuse`,
    which keeps only one running total per item. The argument checks are
    left out."""
    fused = {}
    for qid in runs[0].entries:
        order = []
        totals = {}
        per_run_scores = []
        fills = []
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


def pair_similarity(model: LaffModel, video: FeatureBundle, text: FeatureBundle) -> float:
    """Mean over heads of the scalar cosine of one video's and one text's
    fused embeddings."""
    total = 0.0
    for head in model.heads:
        v = item_forward(head.video, video).fused
        total += cosine_sim(v, item_forward(head.text, text).fused)
    return total / model.h


def caption_scores(model: LaffModel, candidate_sets, videos, caps) -> dict[str, dict[str, float]]:
    """Per video, one pair_similarity call per distinct caption (its lowest
    frame's instance), keyed by caption text."""
    out = {}
    for cands in candidate_sets:
        by_text = {}
        for cand in sorted(cands.candidates, key=lambda c: c.frame_index):
            by_text.setdefault(normalize_caption(cand.text), cand)
        video = videos[cands.video_id]
        out[cands.video_id] = {
            cand.text: pair_similarity(model, video, caps[f"{cands.video_id}#{cand.frame_index}"])
            for cand in by_text.values()
        }
    return out


def frame_query_score(frames, query_vec) -> float:
    """Max over frames of the scalar frame-query cosine, one frame at a time."""
    return max(cosine_sim(frame, query_vec) for frame in frames.frames)


def rerank(entry, frame_store, query_vec, w_new=0.6, w_old=0.4, normalize_original=True):
    originals = [score for _, score in entry]
    base = _minmax(originals) if normalize_original else originals
    rescored = [
        (item, w_new * frame_query_score(frame_store[item], query_vec) + w_old * b)
        for (item, _), b in zip(entry, base)
    ]
    return sorted(rescored, key=lambda pair: -pair[1])


def gap_in_window_fraction(model: LaffModel, triplets, m: Margins) -> tuple[float, list[float]]:
    """(fraction of negated triplets whose gap lies in [m1, m2], the gaps),
    one pair_similarity call per pair."""
    gaps = [
        pair_similarity(model, t.video, t.caption_features)
        - pair_similarity(model, t.video, t.negated_features)
        for t in triplets
        if t.has_negated
    ]
    return sum(m.m1 <= gap <= m.m2 for gap in gaps) / len(gaps), gaps


def vector_norm(grad: np.ndarray) -> float:
    """np.linalg.norm of grad scaled by the power of two that brings its
    largest magnitude into [0.5, 1), scaled back: exact scalings, so the norm
    is finite wherever it is representable, although grad's squares may
    overflow or underflow. inf when it is not representable."""
    peak = float(np.max(np.abs(grad)))
    if not 0 < peak < np.inf:
        return float(np.linalg.norm(grad))
    k = math.frexp(peak)[1]
    with np.errstate(over="ignore"):
        return float(np.ldexp(np.linalg.norm(np.ldexp(grad, -k)), k))


def clip(grad: np.ndarray, max_norm: float) -> np.ndarray:
    """grad scaled to norm max_norm if it is longer, as a new array."""
    norm = vector_norm(grad)
    if norm > max_norm:
        return grad * (max_norm / norm)
    return grad


def sgd_step(params: np.ndarray, grad: np.ndarray, lr: float, max_norm: float) -> None:
    params -= lr * clip(grad, max_norm)


def train_epoch(model: LaffModel, dataset, cfg, epoch_index: int) -> float:
    """trainer.train_epoch with the batched loss, but each batch's gradient
    added into a new zeroed vector, which like add_grads into zeros_like
    turns a -0.0 entry into +0.0, and stepped by sgd_step on model.params."""
    rng = np.random.default_rng([cfg.seed, epoch_index])
    order = rng.permutation(len(dataset))
    lr = cfg.learning_rate * cfg.lr_decay**epoch_index
    total = 0.0
    count = 0
    for start in range(0, len(order), cfg.batch_size):
        indices = order[start : start + cfg.batch_size]
        if len(indices) < 2:
            continue
        batch = [dataset[i] for i in indices]
        loss, fresh = batched_bnl_loss(model, batch, cfg.margins)
        grad = zeros_like(model).params
        grad += fresh
        if not np.isfinite(loss) or not np.all(np.isfinite(grad)):
            raise ValueError("non-finite loss or gradient")
        sgd_step(model.params, grad, lr, cfg.clip_norm)
        total += loss * len(batch)
        count += len(batch)
    return total / count


def read_features(path, keep=None) -> tuple[str, dict[str, np.ndarray]]:
    """Read one feature space record by record, each vector its own array."""
    with open(path, "rb") as fh:
        reader = _Reader(fh, path)
        magic = reader.read(4, "magic")
        if magic != FEATURE_MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r}, expected {FEATURE_MAGIC!r}")
        version = reader.unpack("<B", "version")
        if version != FORMAT_VERSION:
            raise FormatError(f"{path}: unsupported version {version}")
        dim = reader.unpack("<I", "dim")
        if dim < 1:
            raise FormatError(f"{path}: dim must be >= 1, got {dim}")
        count = reader.unpack("<Q", "count")
        space_name = _read_name(reader, "space name")
        reader.need(count * (2 + 4 * dim), f"{count} records of {dim} values")
        features: dict[str, np.ndarray] = {}
        skipped: set[str] = set()
        for i in range(count):
            item_id = _read_name(reader, f"record {i} id")
            what = f"record {i} ({item_id!r}) values"
            if item_id in features or item_id in skipped:
                raise FormatError(f"{path}: duplicate record id {item_id!r}")
            if keep is not None and item_id not in keep:
                reader.need(4 * dim, what)
                fh.seek(4 * dim, os.SEEK_CUR)
                reader.offset += 4 * dim
                skipped.add(item_id)
                continue
            raw = reader.read(4 * dim, what)
            features[item_id] = np.frombuffer(raw, dtype="<f4").astype(np.float64)
        reader.expect_eof()
    for item_id, vec in features.items():
        for value in vec:
            if not np.isfinite(value):
                raise FormatError(f"{path}: non-finite value {value} in record {item_id!r}")
    return space_name, features


def group_frame_features(features: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Group `item_id#frame_index` records item by item, each item's frames
    sorted by index and stacked into a new array."""
    grouped: dict[str, list[tuple[int, str]]] = {}
    for rec_id in features:
        item_id, sep, frame_str = rec_id.rpartition("#")
        if not sep:
            raise FormatError(
                f"frame record id {rec_id!r} is not of the form item_id#frame_index"
            )
        try:
            frame_index = int(frame_str)
        except ValueError:
            raise FormatError(
                f"frame record id {rec_id!r} has non-integer frame index"
            ) from None
        grouped.setdefault(item_id, []).append((frame_index, rec_id))
    out = {}
    for item_id, frames in grouped.items():
        frames.sort(key=lambda frame: frame[0])
        for (index, first), (next_index, second) in zip(frames, frames[1:]):
            if index == next_index:
                raise FormatError(
                    f"frame records {first!r} and {second!r} both hold"
                    f" frame {index} of {item_id!r}"
                )
        out[item_id] = np.stack([features[rec_id] for _, rec_id in frames])
    return out


def _is_verb(caption: Caption, i: int) -> bool:
    if caption.pos_tags is not None:
        return caption.pos_tags[i] == "VERB"
    tok = caption.tokens[i].lower()
    # -ed marks a verb only after three letters or more: `parked`, not `red`.
    ed_verb = tok.endswith("ed") and len(tok) - len("ed") >= 3
    if not (tok.endswith("ing") or ed_verb) or tok in AUXILIARIES:
        return False
    if i > 0 and _is_auxiliary(caption, i - 1):
        return True  # `is building`
    # `the building`, `in the evening`, `something`
    return tok not in ING_NOUNS and (i == 0 or caption.tokens[i - 1].lower() not in NOUN_MARKERS)


def _is_auxiliary(caption: Caption, i: int) -> bool:
    if caption.pos_tags is not None:
        return caption.pos_tags[i] == "AUX"
    return caption.tokens[i].lower() in AUXILIARIES


def negation_sites(caption: Caption) -> list[int]:
    """Candidate insertion indices: after each auxiliary, before each verb.

    Untagged tokens are matched in any case, as in detect_negation: `Was`
    is an auxiliary as `was` is."""
    sites = set()
    for i in range(len(caption.tokens)):
        if _is_auxiliary(caption, i):
            sites.add(i + 1)
        elif _is_verb(caption, i):
            sites.add(i)
    return sorted(sites)
