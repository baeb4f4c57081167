"""Per-item reference implementations of the batched fusion, loss and
post-search code.

Item-at-a-time branch forward/backward, `bnl_loss`, `fused_matrix`, the
per-frame rerank loop and per-pair pseudo-caption scoring. They run one
bundle, one frame and one pair at a time through `linear_tanh`, the scalar
cosine and its VJP, so tests can compare the batched path against an
independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from avsearch.evaluation import _minmax
from avsearch.fusion import BranchGrads, FeatureBundle, LaffBranchParams, LaffModel, add_grads
from avsearch.negation import (
    BnlBreakdown,
    Margins,
    Triplet,
    _bcl_grads,
    bcl_text_anchor,
    bcl_video_anchor,
)
from avsearch.numeric import cosine_sim, cosine_sim_vjp, linear_tanh, softmax
from avsearch.pseudocap import normalize_caption


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


def fused_matrix(model: LaffModel, bundles, branch: str) -> list[np.ndarray]:
    out = []
    for head in model.heads:
        bp = head.video if branch == "video" else head.text
        out.append(np.stack([item_forward(bp, b).fused for b in bundles]))
    return out


def bnl_loss(model: LaffModel, batch: list[Triplet], m: Margins):
    """(loss, flat gradient, breakdown), one item and one pair at a time."""
    n = len(batch)
    grad = model.zeros_like()
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
