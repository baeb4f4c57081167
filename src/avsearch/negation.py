"""Negation-aware training: negated-description construction, negative-cue
detection, and the bidirectionally constrained batch loss.

A training triplet couples a video with one of its captions and, when the
caption is negatable, an automatically negated copy of that caption: a cue
inserted at a site that `negation_sites` reads off `coarse_tags`, the
caption's own part-of-speech tags or, untagged, ones guessed from its
tokens. The batch loss combines a hardest-negative hinge with two bounded losses that
keep the similarity gap between a caption and its negated version inside a
margin window, from both the video anchor and the text anchor.

The batch loss is computed in matrix form on the batched fusion engine:
the heads' forward passes (`fusion.head_forwards`), one cosine GEMM per
head for the batch similarity matrix, column-wise hardest-negative mining
(`hardest_negatives`), and one upstream matrix pulled back through a single
backward pass per branch. The cross matrix's cosine VJP is written inline,
as matrix products; the two negation similarities use
`numeric.cosine_rows_vjp`, the one cosine VJP, which
`fusion.similarity_with_grad` calls too (the scalar one is kept only in the
tests' per-item oracle). The gradient comes back as a flat vector, or, for
the trainer, as its factors (GradFactors), which it steps from one weight
at a time.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateSimilarityWarning, DimensionError, FormatError, MetricError
from .featio import check_tokens
from .fusion import (
    FeatureBundle,
    GradFactors,
    LaffModel,
    batch_backward,
    distinct_bundles,
    head_forwards,
    pair_similarities,
)
from .numeric import cosine_rows_vjp

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

# An untagged -ing or -ed token right after one of these words (a
# determiner, a possessive or a preposition) is a noun or an adjective:
# `into the building`, `his painting`, `a used car`.
NOUN_MARKERS = frozenset(
    {
        "a", "an", "the", "this", "that", "these", "those", "each", "every", "another",
        "my", "your", "his", "her", "its", "our", "their",
        "in", "on", "at", "into", "onto", "with", "of", "from", "under", "over",
        "near", "behind", "across", "inside", "beside", "above", "below", "around",
    }
)

# -ing nouns and pronouns: verbs only right after an auxiliary.
ING_NOUNS = frozenset(
    {
        "something", "nothing", "anything", "everything", "thing", "king", "ring",
        "wing", "string", "morning", "evening", "wedding", "building", "ceiling",
        "clothing", "sibling", "pudding",
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
            raise FormatError(f"caption {self.item_id!r} has no tokens")
        # A caption file joins tokens with spaces and splits them on whitespace.
        check_tokens(f"caption {self.item_id!r}", "token", self.tokens)
        if self.pos_tags is not None:
            if len(self.pos_tags) != len(self.tokens):
                raise FormatError(
                    f"caption {self.item_id!r}: {len(self.pos_tags)} tags"
                    f" for {len(self.tokens)} tokens"
                )
            bad = sorted(set(self.pos_tags) - COARSE_TAGS)
            if bad:
                raise FormatError(f"caption {self.item_id!r}: unknown tags {bad}")

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
        if not self.m0 >= 0.0:  # rather than m0 < 0, so that NaN is refused too
            raise ConfigError(f"m0 must be >= 0, got {self.m0}")
        if not self.lambda1 >= 0.0:
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
            raise ConfigError(
                "negated caption and negated features must be given together"
            )

    @property
    def has_negated(self) -> bool:
        return self.negated is not None


# ---------------------------------------------------------------------------
# Text operations
# ---------------------------------------------------------------------------


def detect_negation(caption: Caption) -> tuple[bool, list[int]]:
    """True plus ascending cue positions if any token is a negation cue, in
    any case: `Not` is a cue as `not` is."""
    positions = [
        i
        for i, tok in enumerate(map(str.lower, caption.tokens))
        if tok in NEGATION_CUES or tok.startswith("non")
    ]
    return bool(positions), positions


def coarse_tags(caption: Caption) -> list[str]:
    """The caption's own tags or, for an untagged caption, tags guessed in
    any case: AUX for an auxiliary (`Was` as `was`); VERB for any other
    token ending in -ing, or in -ed after at least three characters
    (`parked`, not `red` or `bed`), that follows an auxiliary (`is
    building`) or that neither follows a NOUN_MARKERS word (`the building`)
    nor is one of ING_NOUNS (`something`); and OTHER for the rest."""
    if caption.pos_tags is not None:
        return caption.pos_tags
    tokens = [tok.lower() for tok in caption.tokens]
    return [
        "AUX" if tok in AUXILIARIES
        else "VERB" if (tok.endswith("ing") or tok.endswith("ed") and len(tok) >= 5)
        and (prev in AUXILIARIES or prev not in NOUN_MARKERS and tok not in ING_NOUNS)
        else "OTHER"
        for prev, tok in zip([""] + tokens, tokens)
    ]


def negation_sites(caption: Caption) -> list[int]:
    """Candidate insertion indices, from coarse_tags: after each auxiliary
    (i + 1), before each verb (i)."""
    tags = coarse_tags(caption)
    return sorted({i + (tag == "AUX") for i, tag in enumerate(tags) if tag in ("AUX", "VERB")})


def negate_caption(caption: Caption, rng_seed, cue: str = "not") -> Caption | None:
    """Insert a negation cue at a uniformly drawn candidate site.

    Returns None when the caption has no auxiliary or identified verb
    (not negatable). A caption that already carries a cue is rejected, and
    so, before that, is a cue that is not one token (see Caption).
    Deleting the inserted token restores the original token sequence.
    """
    check_tokens(f"caption {caption.item_id!r}", "negation cue", [cue])
    has, _ = detect_negation(caption)
    if has:
        raise AlreadyNegatedError(
            f"caption {caption.item_id!r} already contains a negation cue"
        )
    sites = negation_sites(caption)
    if not sites:
        return None
    rng = np.random.default_rng(rng_seed)  # a Generator comes back as it is
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
        raise DimensionError(f"similarity matrix must be 2-D, got shape {sim.shape}")
    n_videos, n_queries = sim.shape
    if n_videos < 2:
        raise DimensionError("hardest negative needs at least two videos")
    if n_queries > n_videos:
        raise DimensionError(f"{n_queries} queries but only {n_videos} positive videos")
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


def bnl_loss(
    model: LaffModel,
    batch: list[Triplet],
    m: Margins,
    with_breakdown: bool = False,
    factored: bool = False,
):
    """Mean batch loss and its gradient w.r.t. the flat model parameters.

    The gradient is a new vector, all zeros with a non-finite loss. With
    factored it is returned unformed, as a GradFactors, which holds no
    parameter-sized array (None with a non-finite loss).

    Per pair (q, x+): a hinge against the hardest in-batch negative video,
    plus lambda1 times the two bounded losses whenever the negated caption
    exists. The hardest-negative choice is held fixed during
    differentiation.

    Everything runs in matrix form. Per head, each branch embeds the whole
    batch at once (the text branch takes the captions followed by the
    negated captions), and the (videos x captions) cosine matrix is one GEMM
    of row-normalised embeddings; the heads' forward passes (head_forwards)
    run on the CPUs' workers, and a failed one raises the serial loop's error.
    The loss's derivative w.r.t. that matrix is one upstream matrix G, plus
    per-row upstreams for the two negation similarities, and the cosine VJPs
    are applied to all of them at once. A zero-norm embedding has cosine 0
    and contributes no gradient.
    """
    n = len(batch)
    if n < 2:
        raise ConfigError(f"batch of {n}: hardest-negative mining needs >= 2 videos")
    inv_h = 1.0 / model.h
    inv_n = 1.0 / n
    rows = np.arange(n)
    neg = np.array([b for b, t in enumerate(batch) if t.has_negated], dtype=np.intp)
    # A video paired with several of its captions is embedded once, so its
    # similarities tie exactly and mining breaks the tie to the lowest index.
    videos, video_of = distinct_bundles([t.video for t in batch])
    texts = [t.caption_features for t in batch] + [batch[b].negated_features for b in neg]

    # Forward: head_forwards, then each head's cosine GEMM, summed in head
    # order. sim rows = videos, columns = captions; s_vneg = s(x+, q-) and
    # s_ttneg = s(q, q-) over the negated triplets, in `neg` order.
    heads = head_forwards(model, videos, texts)
    crosses = []
    sim = np.zeros((n, n))
    s_vneg = np.zeros(neg.size)
    s_ttneg = np.zeros(neg.size)
    degenerate = False
    for _, _, v, _, zv, t, _, zt in heads:
        degenerate = degenerate or bool(zv.any() or zt.any())
        crosses.append(v @ t[:n].T)
        sim += np.clip(crosses[-1], -1.0, 1.0)[video_of]
        s_vneg += np.clip(np.sum(v[video_of[neg]] * t[n:], axis=1), -1.0, 1.0)
        s_ttneg += np.clip(np.sum(t[neg] * t[n:], axis=1), -1.0, 1.0)
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
        grad = None if factored else np.zeros(model.n_params())
        if with_breakdown:
            return nan, grad, BnlBreakdown([], [], [], [])
        return nan, grad

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

    # Cosine VJPs on the fused embeddings, then one backward pass per branch,
    # in the order of the parameters. Rows of the upstream matrix are summed
    # onto their distinct video.
    terms = []
    video_upstream = np.zeros((len(videos), n))
    np.add.at(video_upstream, video_of, upstream)
    for head, (vstate, tstate, v, nv, zv, t, nt, zt), cross in zip(model.heads, heads, crosses):
        weighted = video_upstream * cross
        d_vid = (video_upstream @ t[:n] - weighted.sum(axis=1)[:, None] * v) / nv[:, None]
        d_txt = np.zeros_like(t)
        d_txt[:n] = video_upstream.T @ v - weighted.sum(axis=0)[:, None] * t[:n]
        d_txt[:n] /= nt[:n, None]
        vneg = video_of[neg]
        dv, dn = cosine_rows_vjp(v[vneg], nv[vneg], t[n:], nt[n:], g_vneg)
        np.add.at(d_vid, vneg, dv)
        d_txt[n:] += dn
        dq, dn = cosine_rows_vjp(t[neg], nt[neg], t[n:], nt[n:], g_ttneg)
        d_txt[neg] += dq
        d_txt[n:] += dn
        d_vid[zv] = 0.0
        d_txt[zt] = 0.0
        terms += batch_backward(head.video, vstate, d_vid)
        terms += batch_backward(head.text, tstate, d_txt)
    grad = GradFactors(terms)
    if not factored:
        grad = grad.to_vector(model)

    if with_breakdown:
        breakdown = BnlBreakdown(
            primary.tolist(), video_anchor.tolist(), text_anchor.tolist(), hardest.tolist()
        )
        return loss, grad, breakdown
    return loss, grad


def gap_in_window_fraction(model: LaffModel, triplets, m: Margins) -> float:
    """Fraction of negated triplets whose gap s(x+,q) - s(x+,q-) lies in [m1, m2]."""
    negated = [t for t in triplets if t.has_negated]
    if not negated:
        raise MetricError("no negated triplets in dataset")
    videos = [t.video for t in negated]
    gap = pair_similarities(model, videos, [t.caption_features for t in negated])
    gap -= pair_similarities(model, videos, [t.negated_features for t in negated])
    return int(np.count_nonzero((m.m1 <= gap) & (gap <= m.m2))) / len(negated)
