"""Negation-aware training: negated-description construction, negative-cue
detection, and the bidirectionally constrained batch loss.

A training triplet couples a video with one of its captions and, when the
caption is negatable, an automatically negated copy of that caption. The
batch loss combines a hardest-negative hinge with two bounded losses that
keep the similarity gap between a caption and its negated version inside a
margin window, from both the video anchor and the text anchor.

The batch loss is computed in matrix form on the batched fusion engine:
one cosine GEMM per head for the batch similarity matrix, column-wise
hardest-negative mining (`hardest_negatives`), and one upstream matrix
pulled back through a single backward pass per branch.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateSimilarityWarning
from .fusion import (
    FeatureBundle,
    LaffModel,
    add_grads,
    batch_backward,
    batch_forward,
    branch_tables,
    distinct_bundles,
    similarity,
)
from .numeric import unit_rows

# Tokens that mark a query or caption as negated. The "non" prefix test
# additionally catches hyphenated and fused forms ("non-kitchen", "nonstop").
NEGATION_CUES = frozenset(
    {"no", "not", "none", "never", "nobody", "nothing", "nowhere", "without", "n't"}
)

AUXILIARIES = frozenset(
    {
        "is", "are", "was", "were", "am", "be", "been", "being",
        "do", "does", "did", "has", "have", "had",
        "can", "could", "will", "would", "shall", "should", "may", "might", "must",
    }
)

COARSE_TAGS = frozenset({"VERB", "AUX", "NOUN", "ADJ", "OTHER"})


class AlreadyNegatedError(ValueError):
    """Input caption already carries a negation cue."""


@dataclass
class Caption:
    """A tokenized sentence, optionally with coarse part-of-speech tags."""

    item_id: str
    tokens: list[str]
    pos_tags: list[str] | None = None

    def __post_init__(self):
        if not self.tokens:
            raise ValueError(f"caption {self.item_id!r} has no tokens")
        if self.pos_tags is not None:
            if len(self.pos_tags) != len(self.tokens):
                raise ValueError(
                    f"caption {self.item_id!r}: {len(self.pos_tags)} tags"
                    f" for {len(self.tokens)} tokens"
                )
            bad = sorted(set(self.pos_tags) - COARSE_TAGS)
            if bad:
                raise ValueError(f"caption {self.item_id!r}: unknown tags {bad}")

    @property
    def text(self) -> str:
        return " ".join(self.tokens)


@dataclass
class Margins:
    """Margins of the bounded losses plus the auxiliary weight.

    m1 < m2 bound the video-anchored gap, m3 < m4 the text-anchored gap
    (both strictly inside (0, 2)); m0 is the primary hinge margin and
    lambda1 weights the two auxiliary terms.
    """

    m0: float = 0.2
    m1: float = 0.2
    m2: float = 1.0
    m3: float = 0.2
    m4: float = 1.0
    lambda1: float = 0.1

    def __post_init__(self):
        if not (0.0 < self.m1 < self.m2 < 2.0):
            raise ConfigError(f"need 0 < m1 < m2 < 2, got m1={self.m1}, m2={self.m2}")
        if not (0.0 < self.m3 < self.m4 < 2.0):
            raise ConfigError(f"need 0 < m3 < m4 < 2, got m3={self.m3}, m4={self.m4}")
        if self.m0 < 0.0:
            raise ConfigError(f"m0 must be >= 0, got {self.m0}")
        if self.lambda1 < 0.0:
            raise ConfigError(f"lambda1 must be >= 0, got {self.lambda1}")


@dataclass
class Triplet:
    """A video, one of its captions, and optionally the negated caption."""

    video: FeatureBundle
    caption: Caption
    caption_features: FeatureBundle
    negated: Caption | None = None
    negated_features: FeatureBundle | None = None

    def __post_init__(self):
        if (self.negated is None) != (self.negated_features is None):
            raise ValueError(
                "negated caption and negated features must be given together"
            )

    @property
    def has_negated(self) -> bool:
        return self.negated is not None


# ---------------------------------------------------------------------------
# Text operations
# ---------------------------------------------------------------------------


def detect_negation(caption: Caption) -> tuple[bool, list[int]]:
    """True plus ascending cue positions if any token is a negation cue."""
    positions = [
        i
        for i, tok in enumerate(caption.tokens)
        if tok in NEGATION_CUES or tok.startswith("non")
    ]
    return bool(positions), positions


def _is_verb(caption: Caption, i: int) -> bool:
    if caption.pos_tags is not None:
        return caption.pos_tags[i] == "VERB"
    tok = caption.tokens[i]
    return (tok.endswith("ing") or tok.endswith("ed")) and tok not in AUXILIARIES


def _is_auxiliary(caption: Caption, i: int) -> bool:
    if caption.pos_tags is not None:
        return caption.pos_tags[i] == "AUX"
    return caption.tokens[i] in AUXILIARIES


def negation_sites(caption: Caption) -> list[int]:
    """Candidate insertion indices: after each auxiliary, before each verb."""
    sites = set()
    for i in range(len(caption.tokens)):
        if _is_auxiliary(caption, i):
            sites.add(i + 1)
        elif _is_verb(caption, i):
            sites.add(i)
    return sorted(sites)


def negate_caption(caption: Caption, rng_seed, cue: str = "not") -> Caption | None:
    """Insert a negation cue at a uniformly drawn candidate site.

    Returns None when the caption has no auxiliary or identified verb
    (not negatable). A caption that already carries a cue is rejected.
    Deleting the inserted token restores the original token sequence.
    """
    has, _ = detect_negation(caption)
    if has:
        raise AlreadyNegatedError(
            f"caption {caption.item_id!r} already contains a negation cue"
        )
    sites = negation_sites(caption)
    if not sites:
        return None
    rng = (
        rng_seed
        if isinstance(rng_seed, np.random.Generator)
        else np.random.default_rng(rng_seed)
    )
    site = sites[int(rng.integers(len(sites)))]
    tokens = caption.tokens[:site] + [cue] + caption.tokens[site:]
    tags = None
    if caption.pos_tags is not None:
        tags = caption.pos_tags[:site] + ["OTHER"] + caption.pos_tags[site:]
    return Caption(caption.item_id, tokens, tags)


# ---------------------------------------------------------------------------
# Loss terms
# ---------------------------------------------------------------------------


def _bcl(lower, upper, s_hi, s_lo):
    """max(0, lower + s_lo - s_hi) + max(0, -upper - s_lo + s_hi), elementwise.

    fmax keeps Python max's handling of a NaN argument (the zero wins).
    """
    return np.fmax(0.0, lower + s_lo - s_hi) + np.fmax(0.0, -upper - s_lo + s_hi)


def bcl_video_anchor(s_pos: float, s_neg: float, m: Margins) -> float:
    """Video-anchored bounded loss; zero iff s_pos - s_neg lies in [m1, m2]."""
    return float(_bcl(m.m1, m.m2, s_pos, s_neg))


def bcl_text_anchor(s_qx: float, s_qq: float, m: Margins) -> float:
    """Text-anchored bounded loss; zero iff s_qx - s_qq lies in [m3, m4]."""
    return float(_bcl(m.m3, m.m4, s_qx, s_qq))


def _bcl_grads(lower, upper, s_hi, s_lo):
    """(d/ds_hi, d/ds_lo) of _bcl, elementwise.

    Subgradient 0 exactly at the hinge points, so the deadzone [lower, upper]
    has an exactly zero gradient. At most one hinge is active, as lower < upper.
    """
    below = np.greater(lower + s_lo - s_hi, 0.0) * 1.0
    above = np.greater(-upper - s_lo + s_hi, 0.0) * 1.0
    return above - below, below - above


def hardest_negatives(sim: np.ndarray) -> np.ndarray:
    """Per query column q, the video row other than q with the highest
    similarity; ties break to the lowest index.

    sim rows are videos and columns queries, and query q's positive video is
    row q, so there are at least as many rows as columns.
    """
    sim = np.asarray(sim, dtype=np.float64)
    if sim.ndim != 2:
        raise ValueError(f"similarity matrix must be 2-D, got shape {sim.shape}")
    n_videos, n_queries = sim.shape
    if n_videos < 2:
        raise ValueError("hardest negative needs at least two videos")
    if n_queries > n_videos:
        raise ValueError(f"{n_queries} queries but only {n_videos} positive videos")
    masked = sim.copy()
    cols = np.arange(n_queries)
    masked[cols, cols] = -np.inf
    return np.argmax(masked, axis=0)


@dataclass
class BnlBreakdown:
    """Per-pair terms of the batch loss, for inspection and oracle tests."""

    primary: list[float]
    video_anchor: list[float]
    text_anchor: list[float]
    hardest: list[int]


def _cosine_rows_vjp(a, na, b, nb, g):
    """Gradients w.r.t. the raw rows of sum_i g_i cos(a_i, b_i), given the
    unit rows a, b, their norms and the (unclipped) cosine's upstream g."""
    c = np.sum(a * b, axis=1, keepdims=True)
    g = g[:, None]
    return g * (b - c * a) / na[:, None], g * (a - c * b) / nb[:, None]


def bnl_loss(
    model: LaffModel,
    batch: list[Triplet],
    m: Margins,
    with_breakdown: bool = False,
):
    """Mean batch loss and its gradient w.r.t. the flat model parameters.

    Per pair (q, x+): a hinge against the hardest in-batch negative video,
    plus lambda1 times the two bounded losses whenever the negated caption
    exists. The hardest-negative choice is held fixed during
    differentiation.

    Everything runs in matrix form. Per head, each branch embeds the whole
    batch at once (the text branch takes the captions followed by the
    negated captions), and the (videos x captions) cosine matrix is one GEMM
    of row-normalised embeddings. The loss's derivative w.r.t. that matrix
    is one upstream matrix G, plus per-row upstreams for the two negation
    similarities, and the cosine VJPs are applied to all of them at once.
    A zero-norm embedding has cosine 0 and contributes no gradient.
    """
    n = len(batch)
    if n < 2:
        raise ValueError(f"batch of {n}: hardest-negative mining needs >= 2 videos")
    grad = model.zeros_like()
    inv_h = 1.0 / model.h
    inv_n = 1.0 / n
    rows = np.arange(n)
    neg = np.array([b for b, t in enumerate(batch) if t.has_negated], dtype=np.intp)
    # A video paired with several of its captions is embedded once, so its
    # similarities tie exactly and mining breaks the tie to the lowest index.
    videos, video_of = distinct_bundles([t.video for t in batch])
    video_tables = branch_tables(model.heads[0].video, videos)
    text_tables = branch_tables(
        model.heads[0].text,
        [t.caption_features for t in batch] + [batch[b].negated_features for b in neg],
    )

    # Forward: sim rows = videos, columns = captions; s_vneg = s(x+, q-) and
    # s_ttneg = s(q, q-) over the negated triplets, in `neg` order.
    heads = []
    sim = np.zeros((n, n))
    s_vneg = np.zeros(neg.size)
    s_ttneg = np.zeros(neg.size)
    degenerate = False
    for head in model.heads:
        vstate = batch_forward(head.video, video_tables)
        tstate = batch_forward(head.text, text_tables)
        v, nv, zv = unit_rows(vstate.fused)
        t, nt, zt = unit_rows(tstate.fused)
        degenerate = degenerate or bool(zv.any() or zt.any())
        cross = v @ t[:n].T
        sim += np.clip(cross, -1.0, 1.0)[video_of]
        s_vneg += np.clip(np.sum(v[video_of[neg]] * t[n:], axis=1), -1.0, 1.0)
        s_ttneg += np.clip(np.sum(t[neg] * t[n:], axis=1), -1.0, 1.0)
        heads.append((vstate, tstate, v, nv, zv, t, nt, zt, cross))
    if degenerate:
        warnings.warn(
            "cosine similarity of a zero vector; returning 0.0",
            DegenerateSimilarityWarning,
            stacklevel=2,
        )
    sim *= inv_h
    s_vneg *= inv_h
    s_ttneg *= inv_h

    # Hinges built on max(0, .) would silently swallow a NaN similarity;
    # surface it as a non-finite loss so the trainer can abort with the batch.
    if not (
        np.all(np.isfinite(sim))
        and np.all(np.isfinite(s_vneg))
        and np.all(np.isfinite(s_ttneg))
    ):
        nan = float("nan")
        if with_breakdown:
            return nan, grad.params, BnlBreakdown([], [], [], [])
        return nan, grad.params

    hardest = hardest_negatives(sim)
    s_pos = sim[rows, rows]
    primary = np.maximum(0.0, m.m0 + sim[hardest, rows] - s_pos)
    video_anchor = np.zeros(n)
    text_anchor = np.zeros(n)
    video_anchor[neg] = _bcl(m.m1, m.m2, s_pos[neg], s_vneg)
    text_anchor[neg] = _bcl(m.m3, m.m4, s_pos[neg], s_ttneg)
    loss = float(np.sum(primary + m.lambda1 * (video_anchor + text_anchor))) * inv_n

    # Upstreams: G = dL/d(sim), g_vneg = dL/d(s_vneg), g_ttneg = dL/d(s_ttneg).
    active = primary > 0.0
    upstream = np.zeros((n, n))
    upstream[hardest[active], rows[active]] = inv_n
    diag = -inv_n * active
    scale = inv_n * m.lambda1
    g_pos, g_vneg = _bcl_grads(m.m1, m.m2, s_pos[neg], s_vneg)
    g_qx, g_ttneg = _bcl_grads(m.m3, m.m4, s_pos[neg], s_ttneg)
    diag[neg] += scale * (g_pos + g_qx)
    upstream[rows, rows] += diag
    upstream *= inv_h
    g_vneg *= scale * inv_h
    g_ttneg *= scale * inv_h

    # Cosine VJPs on the fused embeddings, then one backward pass per branch.
    # Rows of the upstream matrix are summed onto their distinct video.
    video_upstream = np.zeros((len(videos), n))
    np.add.at(video_upstream, video_of, upstream)
    for hi, (vstate, tstate, v, nv, zv, t, nt, zt, cross) in enumerate(heads):
        weighted = video_upstream * cross
        d_vid = (video_upstream @ t[:n] - weighted.sum(axis=1)[:, None] * v) / nv[:, None]
        d_txt = np.zeros_like(t)
        d_txt[:n] = video_upstream.T @ v - weighted.sum(axis=0)[:, None] * t[:n]
        d_txt[:n] /= nt[:n, None]
        vneg = video_of[neg]
        dv, dn = _cosine_rows_vjp(v[vneg], nv[vneg], t[n:], nt[n:], g_vneg)
        np.add.at(d_vid, vneg, dv)
        d_txt[n:] += dn
        dq, dn = _cosine_rows_vjp(t[neg], nt[neg], t[n:], nt[n:], g_ttneg)
        d_txt[neg] += dq
        d_txt[n:] += dn
        d_vid[zv] = 0.0
        d_txt[zt] = 0.0
        head = model.heads[hi]
        add_grads(grad.heads[hi].video, batch_backward(head.video, vstate, d_vid)[0])
        add_grads(grad.heads[hi].text, batch_backward(head.text, tstate, d_txt)[0])

    if with_breakdown:
        breakdown = BnlBreakdown(
            primary.tolist(), video_anchor.tolist(), text_anchor.tolist(), hardest.tolist()
        )
        return loss, grad.params, breakdown
    return loss, grad.params


def gap_in_window_fraction(model: LaffModel, triplets, m: Margins) -> float:
    """Fraction of negated triplets whose gap s(x+,q) - s(x+,q-) lies in [m1, m2]."""
    negated = [t for t in triplets if t.has_negated]
    if not negated:
        raise ValueError("no negated triplets in dataset")
    hits = 0
    for t in negated:
        gap = similarity(model, t.video, t.caption_features) - similarity(
            model, t.video, t.negated_features
        )
        if m.m1 <= gap <= m.m2:
            hits += 1
    return hits / len(negated)
