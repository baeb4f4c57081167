"""Attentional feature fusion and cross-modal similarity.

A fusion branch maps k per-space feature vectors into one d-dimensional
embedding: each feature is passed through its own linear+tanh transform,
attention scores u . e_i are softmaxed into convex weights, and the fused
vector is the weighted sum of the transformed features. A head pairs a
video branch with a text branch; the cross-modal similarity of a video and
a sentence is the mean over heads of the cosine between their fused
embeddings.

All numerics are batched. The inputs of n items are per-space (n, d_in)
float64 tables, stacked from the bundles' vectors; float32 vectors, as
decoded from a feature file, are widened in that copy. A branch runs one
GEMM per space, E_i = tanh(X_i W_iᵀ + b_i), then a row-wise softmax over
the k spaces. Its backward pass leaves each weight gradient dZ_iᵀ X_i as
its two factors, the (n, d) pre-activation gradients and the input table
the forward pass already holds (GradFactors); form_gradient forms one such
product where its caller wants it: in a flat gradient vector or, in the
trainer, in a scratch array that steps one weight. The per-item functions
laff_forward, laff_vjp, similarity and similarity_with_grad call
batch_forward (and batch_backward) on one-row tables, and corpus embedding
runs in fixed-size row blocks, one head at a time on each block's tables.
Many (video, text) pairs are scored together by pair_similarities, which
embeds each distinct bundle once.

Iteration over feature spaces is always in sorted space-name order so that
results are reproducible regardless of how bundles were assembled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BundleMismatchError, DimensionError
from .numeric import (
    LinearTanhParams,
    as_features,
    as_vector,
    cosine_sim,
    cosine_sim_vjp,
    row_cosines,
)


@dataclass
class FeatureBundle:
    """Named per-space feature vectors for one item (video, frame or sentence).

    A 1-D float32 or float64 ndarray is kept as given, without a copy, so a
    bundle can hold row views of a decoded float32 feature table; anything
    else becomes a float64 vector. The code that computes on bundles
    (branch_tables) widens them to float64 in the table it builds anyway.
    """

    item_id: str
    features: dict[str, np.ndarray]

    def __post_init__(self):
        self.features = {
            name: as_features(vec, 1, f"feature {name!r}")
            for name, vec in self.features.items()
        }

    @property
    def spaces(self) -> tuple[str, ...]:
        return tuple(sorted(self.features))


@dataclass
class LaffBranchParams:
    """One fusion branch: a linear+tanh transform per space plus an attention vector.

    All transforms share the output dimension d == len(attention).
    """

    transforms: dict[str, LinearTanhParams]
    attention: np.ndarray

    def __post_init__(self):
        self.attention = as_vector(self.attention, "attention")
        if not self.transforms:
            raise DimensionError("a branch needs at least one feature space")
        d = self.attention.shape[0]
        for name, p in self.transforms.items():
            if p.out_dim != d:
                raise DimensionError(
                    f"transform {name!r} maps to {p.out_dim} dims, expected {d}"
                )

    @property
    def d(self) -> int:
        return self.attention.shape[0]

    @property
    def spaces(self) -> tuple[str, ...]:
        return tuple(sorted(self.transforms))

    @property
    def in_dims(self) -> dict[str, int]:
        return {name: self.transforms[name].in_dim for name in self.spaces}


@dataclass
class LaffHead:
    """A paired video branch and text branch sharing the embedding dimension."""

    video: LaffBranchParams
    text: LaffBranchParams

    def __post_init__(self):
        if self.video.d != self.text.d:
            raise DimensionError(
                f"video branch d={self.video.d} differs from text branch d={self.text.d}"
            )

    @property
    def d(self) -> int:
        return self.video.d


def param_count(video_dims: dict[str, int], text_dims: dict[str, int], d: int, heads: int) -> int:
    """Length of the flat parameter vector of a model of this structure."""
    if d < 1 or heads < 1:
        raise DimensionError(f"d and heads must be >= 1, got d={d}, heads={heads}")
    return heads * d * sum(sum(dims.values()) + len(dims) + 1 for dims in (video_dims, text_dims))


def _heads_on(params: np.ndarray, video_dims, text_dims, d: int, heads: int) -> list[LaffHead]:
    """Heads whose every parameter is a view into the flat vector params.

    This is the canonical parameter order: head by head, the video branch
    then the text branch; within a branch, W (d, d_in) then b (d,) of each
    space in sorted name order, then the attention vector u (d,).
    """
    pos = 0

    def take(*shape) -> np.ndarray:
        nonlocal pos
        start, pos = pos, pos + math.prod(shape)
        return params[start:pos].reshape(shape)

    def branch(dims: dict[str, int]) -> LaffBranchParams:
        transforms = {}
        for name in sorted(dims):
            weight = take(d, dims[name])
            transforms[name] = LinearTanhParams(weight, take(d))
        return LaffBranchParams(transforms, take(d))

    return [LaffHead(branch(video_dims), branch(text_dims)) for _ in range(heads)]


def named_parameters(heads: list[LaffHead]):
    """Yield (place, array) for every weight, bias and attention vector of
    heads, in the canonical order of _heads_on. place names the array, as in
    "head 0, video branch, space 'clip' W" or "head 1, text branch, attention u"."""
    for i, head in enumerate(heads):
        for what, branch in (("video", head.video), ("text", head.text)):
            for name in branch.spaces:
                p = branch.transforms[name]
                yield f"head {i}, {what} branch, space {name!r} W", p.weight
                yield f"head {i}, {what} branch, space {name!r} b", p.bias
            yield f"head {i}, {what} branch, attention u", branch.attention


def check_layout(heads: list[LaffHead]) -> None:
    """Refuse, with a DimensionError, heads whose arrays are not in the
    places and shapes of the canonical layout of heads[0]'s structure. A
    LaffModel's arrays always are; a replaced array of another shape is not."""
    first = heads[0]
    structure = (first.video.in_dims, first.text.in_dims, first.d, len(heads))
    # A zero-strided stand-in for the parameter vector: the layout's views, in no memory.
    layout = _heads_on(np.broadcast_to(0.0, (param_count(*structure),)), *structure)
    # Each branch ends with its attention vector, so heads with other
    # feature spaces differ in a place before either sequence ends.
    for (place, array), (want, like) in zip(named_parameters(heads), named_parameters(layout)):
        if (place, array.shape) != (want, like.shape):
            raise DimensionError(
                f"{place} has shape {array.shape}, the layout needs {want} {like.shape}"
            )


def _assign(dst: list[LaffHead], src: list[LaffHead]) -> None:
    """Copy every parameter of src into the same parameter of dst."""
    for (_, into), (_, source) in zip(named_parameters(dst), named_parameters(src)):
        into[...] = source


@dataclass
class LaffModel:
    """h paired fusion branches; similarity is the mean cosine over heads.

    All parameters live in one flat float64 vector, `params`, in the order
    of _heads_on: every weight, bias and attention vector of `heads` is a
    view into it, so writing into `params` updates the model in place.
    Constructing a model from heads copies their arrays into a vector of its
    own; from_params builds one on a given vector without copying it.
    """

    heads: list[LaffHead]
    params: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.heads:
            raise DimensionError("a model needs at least one head")
        first = self.heads[0]
        for i, head in enumerate(self.heads):
            if head.d != first.d:
                raise DimensionError(f"head {i} has d={head.d}, expected {first.d}")
            if head.video.in_dims != first.video.in_dims:
                raise DimensionError(f"head {i} has different video spaces or input dims")
            if head.text.in_dims != first.text.in_dims:
                raise DimensionError(f"head {i} has different text spaces or input dims")
        given = self.heads
        structure = (self.video_dims(), self.text_dims(), self.d, self.h)
        self.params = np.empty(param_count(*structure))
        self.heads = _heads_on(self.params, *structure)
        _assign(self.heads, given)

    @classmethod
    def from_params(cls, params, video_dims, text_dims, d: int, heads: int) -> "LaffModel":
        """The only constructor that does not copy: a model of the given
        structure whose every weight, bias and attention vector is a view into
        params, a writable, contiguous float64 array of shape (n,), n =
        param_count(video_dims, text_dims, d, heads); else a DimensionError."""
        ok = isinstance(params, np.ndarray) and params.dtype == np.float64
        if not (ok and params.flags.carray):  # C-contiguous, aligned and writable
            raise DimensionError("parameter buffer must be a writable, contiguous float64 array")
        n = param_count(video_dims, text_dims, d, heads)
        if params.shape != (n,):
            raise DimensionError(f"parameter buffer has shape {params.shape}, model needs ({n},)")
        model = cls.__new__(cls)
        model.heads = _heads_on(params, video_dims, text_dims, d, heads)
        model.params = params
        return model

    @property
    def h(self) -> int:
        return len(self.heads)

    @property
    def d(self) -> int:
        return self.heads[0].d

    @property
    def video_spaces(self) -> tuple[str, ...]:
        return self.heads[0].video.spaces

    @property
    def text_spaces(self) -> tuple[str, ...]:
        return self.heads[0].text.spaces

    def video_dims(self) -> dict[str, int]:
        return self.heads[0].video.in_dims

    def text_dims(self) -> dict[str, int]:
        return self.heads[0].text.in_dims

    def to_vector(self) -> np.ndarray:
        """A copy of all parameters in the canonical order (see _heads_on).

        Reads the head objects' arrays, not `params`, as checkpoint_save
        does, so that a model whose heads had a transform or attention
        vector replaced (as perfbench's aligned checkpoint does) gives what
        was set.
        """
        return LaffModel(self.heads).params

    def with_vector(self, vec) -> "LaffModel":
        """A model of identical structure on a float64 copy of vec (any array-like)."""
        return self.on_vector(np.array(vec, dtype=np.float64))

    def on_vector(self, vec: np.ndarray) -> "LaffModel":
        """A model of identical structure built on vec without copying it, as
        from_params. Gradients are formed into such a model (GradFactors.to_vector)."""
        return LaffModel.from_params(vec, self.video_dims(), self.text_dims(), self.d, self.h)

    def n_params(self) -> int:
        return self.params.shape[0]


def init_model(
    video_dims: dict[str, int],
    text_dims: dict[str, int],
    d: int = 512,
    heads: int = 2,
    seed: int = 0,
) -> LaffModel:
    """Initialize a model: W ~ U(-1/sqrt(d_in), 1/sqrt(d_in)), b = 0, u = 0.

    Zero attention vectors start every branch at uniform attention, the
    unbiased prior. Heads draw independent weights, in the canonical order.
    Each weight is drawn in place, as rng.uniform(-bound, bound, size=shape)
    computes it (-bound + 2·bound·x from the same stream), with no copy.
    """
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


# ---------------------------------------------------------------------------
# Batched forward / backward through one branch
# ---------------------------------------------------------------------------

# Items embedded per block by fused_matrix and feature_importance, so that
# peak memory does not grow with the number of items.
BLOCK_ROWS = 256


@dataclass
class BranchState:
    """Cached forward pass of one branch on n items."""

    inputs: list[np.ndarray]  # per space in sorted order, (n, d_in)
    transformed: np.ndarray  # (n, k, d); transformed[:, i] = E_i for space i
    weights: np.ndarray  # (n, k) convex attention weights
    fused: np.ndarray  # (n, d)


@dataclass
class BranchGrads:
    """What laff_vjp returns: gradients w.r.t. one branch's parameters and
    its input features."""

    d_weight: dict[str, np.ndarray]
    d_bias: dict[str, np.ndarray]
    d_attention: np.ndarray
    d_inputs: dict[str, np.ndarray] = field(default_factory=dict)


@dataclass
class GradFactors:
    """A gradient w.r.t. a model's flat parameter vector, kept as the factors
    that the backward pass computes.

    terms holds one entry per array of named_parameters, in that order. For
    a weight W it is the pair (dz, x) of the (n, d) pre-activation
    gradients and the (n, d_in) input table, whose product dzᵀx is W's
    gradient; the heads share the input tables. For a bias b or an
    attention vector u it is the (d,) gradient itself.
    """

    terms: list

    def to_vector(self, model: LaffModel, out: np.ndarray | None = None) -> np.ndarray:
        """The formed gradient in model's parameter order, written into out
        (a vector as LaffModel.on_vector takes it, every entry overwritten)
        or into a new vector."""
        if out is None:
            out = np.empty(model.n_params())
        for term, (_, view) in zip(self.terms, named_parameters(model.on_vector(out).heads)):
            form_gradient(term, view)
        return out


def form_gradient(term, out: np.ndarray) -> np.ndarray:
    """Write the gradient of one GradFactors term into out, an array of its
    parameter's shape, and return out: dzᵀx for a weight's (dz, x), else a
    copy of the bias or attention gradient."""
    if isinstance(term, tuple):
        dz, x = term
        return np.matmul(dz.T, x, out=out)
    out[...] = term
    return out


def _check_bundle(branch: LaffBranchParams, bundle: FeatureBundle) -> None:
    have = set(bundle.features)
    want = set(branch.transforms)
    if have != want:
        missing = sorted(want - have)
        extra = sorted(have - want)
        raise BundleMismatchError(
            f"bundle {bundle.item_id!r} does not match branch spaces"
            f" (missing={missing}, extra={extra})"
        )


def branch_tables(branch: LaffBranchParams, bundles) -> list[np.ndarray]:
    """Per-space (n, d_in) float64 input tables of a nonempty bundle list, in
    sorted space order; stacking widens float32 vectors exactly. Every bundle
    must carry exactly the branch's spaces."""
    for bundle in bundles:
        _check_bundle(branch, bundle)
    tables = []
    for name in branch.spaces:
        try:
            tables.append(
                np.stack([bundle.features[name] for bundle in bundles], dtype=np.float64)
            )
        except ValueError:
            raise DimensionError(
                f"feature {name!r} has different lengths across bundles"
            ) from None
    return tables


def batch_forward(branch: LaffBranchParams, tables: list[np.ndarray]) -> BranchState:
    """Run one branch on n items: E_i = tanh(X_i W_iᵀ + b_i) per space, a
    row-wise softmax of the scores E_i u over the k spaces, and the
    attention-weighted sum of the E_i."""
    spaces = branch.spaces
    if len(tables) != len(spaces):
        raise DimensionError(f"{len(tables)} input tables for {len(spaces)} spaces")
    n = tables[0].shape[0]
    transformed = np.empty((n, len(spaces), branch.d))
    for i, (name, x) in enumerate(zip(spaces, tables)):
        p = branch.transforms[name]
        if x.shape != (n, p.in_dim):
            raise DimensionError(
                f"input table {x.shape} for space {name!r} does not match"
                f" {n} rows of weight columns {p.in_dim}"
            )
        np.tanh(x @ p.weight.T + p.bias, out=transformed[:, i])
    # Stacked per-item products (not one flattened GEMM) keep each item's
    # scores and fused vector bit-identical whatever the batch size.
    scores = transformed @ branch.attention
    weights = np.exp(scores - scores.max(axis=1, keepdims=True))
    weights /= weights.sum(axis=1, keepdims=True)
    fused = (weights[:, None, :] @ transformed)[:, 0]
    return BranchState(tables, transformed, weights, fused)


def batch_backward(branch: LaffBranchParams, state: BranchState, d_fused: np.ndarray) -> list:
    """Backprop d_fused = dL/d(fused), (n, d), through the weighted sum,
    the softmax attention and each linear+tanh.

    Each transformed feature receives both the direct a_i * d_fused path and
    the attention-score path through the softmax coupling. Returns the
    branch's GradFactors terms, in the order of named_parameters: for each
    space, (dZ_i, X_i), whose product dZ_iᵀ X_i is W_i's gradient summed
    over the n items, and b_i's gradient, the sum of dZ_i's rows; then u's
    gradient. The input gradients are dZ_i W_i.
    """
    d_fused = np.asarray(d_fused, dtype=np.float64)
    if d_fused.shape != state.fused.shape:
        raise DimensionError(
            f"d_fused shape {d_fused.shape} does not match fused {state.fused.shape}"
        )
    e = state.transformed
    a = state.weights
    d_a = (e @ d_fused[:, :, None])[:, :, 0]
    # softmax jacobian: ds_j = a_j (dA_j - sum_i a_i dA_i)
    ds = a * (d_a - (a[:, None, :] @ d_a[:, :, None])[:, 0])
    terms = []
    for i, x in enumerate(state.inputs):
        dz = (a[:, i, None] * d_fused + ds[:, i, None] * branch.attention) * (
            1.0 - e[:, i] * e[:, i]
        )
        terms += [(dz, x), dz.sum(axis=0)]
    terms.append(np.matmul(ds.reshape(-1), e.reshape(-1, e.shape[2])))
    return terms


def laff_forward(
    branch: LaffBranchParams, bundle: FeatureBundle
) -> tuple[np.ndarray, np.ndarray]:
    """(fused vector, attention weights) for one bundle.

    Weights are positive and sum to 1; the fused vector is their convex
    combination of the transformed features.
    """
    state = batch_forward(branch, branch_tables(branch, [bundle]))
    return state.fused[0], state.weights[0]


def laff_vjp(
    branch: LaffBranchParams, bundle: FeatureBundle, upstream: np.ndarray
) -> BranchGrads:
    """Gradients of a scalar loss w.r.t. branch parameters and input features,
    given upstream = dL/d(fused)."""
    upstream = as_vector(upstream, "d_fused")
    state = batch_forward(branch, branch_tables(branch, [bundle]))
    terms = batch_backward(branch, state, upstream[None, :])
    weights = {name: branch.transforms[name].weight for name in branch.spaces}
    factors = dict(zip(weights, terms[0:-1:2]))
    return BranchGrads(
        {name: form_gradient(factors[name], np.empty_like(w)) for name, w in weights.items()},
        dict(zip(weights, terms[1:-1:2])),
        terms[-1],
        {name: (factors[name][0] @ w)[0] for name, w in weights.items()},
    )


# ---------------------------------------------------------------------------
# Cross-modal similarity
# ---------------------------------------------------------------------------


def similarity(model: LaffModel, video: FeatureBundle, text: FeatureBundle) -> float:
    """Mean over heads of the cosine between fused video and text embeddings."""
    return float(pair_similarities(model, [video], [text])[0])


def pair_similarities(model: LaffModel, videos, texts) -> np.ndarray:
    """similarity() of every (videos[i], texts[i]) pair.

    Each distinct video and text is embedded once, by fused_matrix, and the
    per-head cosines are row cosines of the gathered embeddings, so pairs
    sharing identical features score exactly alike.
    """
    videos, video_of = distinct_bundles(videos)
    texts, text_of = distinct_bundles(texts)
    total = np.zeros(video_of.size)
    for v, t in zip(fused_matrix(model, videos, "video"), fused_matrix(model, texts, "text")):
        total += row_cosines(v[video_of], t[text_of])
    return total / model.h


def text_text_similarity(model: LaffModel, q1: FeatureBundle, q2: FeatureBundle) -> float:
    """Mean over heads of the cosine between two sentences' fused embeddings,
    using each head's text branch for both."""
    tables = branch_tables(model.heads[0].text, [q1, q2])
    total = 0.0
    for head in model.heads:
        fused = batch_forward(head.text, tables).fused
        total += cosine_sim(fused[0], fused[1])
    return total / model.h


def similarity_with_grad(
    model: LaffModel, video: FeatureBundle, text: FeatureBundle
) -> tuple[float, np.ndarray]:
    """similarity() plus its gradient w.r.t. the flat model parameter vector."""
    terms = []
    video_tables = branch_tables(model.heads[0].video, [video])
    text_tables = branch_tables(model.heads[0].text, [text])
    total = 0.0
    inv_h = 1.0 / model.h
    for head in model.heads:
        vstate = batch_forward(head.video, video_tables)
        tstate = batch_forward(head.text, text_tables)
        total += cosine_sim(vstate.fused[0], tstate.fused[0])
        dv, dt = cosine_sim_vjp(vstate.fused[0], tstate.fused[0], inv_h)
        terms += batch_backward(head.video, vstate, dv[None, :])
        terms += batch_backward(head.text, tstate, dt[None, :])
    return total * inv_h, GradFactors(terms).to_vector(model)


def _head_branches(model: LaffModel, branch: str) -> list[LaffBranchParams]:
    if branch not in ("video", "text"):
        raise ValueError(f"branch must be 'video' or 'text', got {branch!r}")
    return [head.video if branch == "video" else head.text for head in model.heads]


def _branch_blocks(branch: LaffBranchParams, bundles: list):
    """Yield (first row, per-space input tables) over blocks of BLOCK_ROWS
    bundles. The heads share the tables; a caller runs one head on them at a
    time, so only one head's BranchState is alive."""
    for start in range(0, len(bundles), BLOCK_ROWS):
        yield start, branch_tables(branch, bundles[start : start + BLOCK_ROWS])


def fused_matrix(model: LaffModel, bundles, branch: str) -> list[np.ndarray]:
    """Per-head (n, d) matrices of fused embeddings for a list of bundles.

    branch is "video" or "text". Used for corpus-wide ranking, where
    embedding every item once per head beats re-running per query.
    """
    branches = _head_branches(model, branch)
    bundles = list(bundles)
    out = [np.empty((len(bundles), model.d)) for _ in branches]
    for start, tables in _branch_blocks(branches[0], bundles):
        for mat, bp in zip(out, branches):
            mat[start : start + BLOCK_ROWS] = batch_forward(bp, tables).fused
    return out


def distinct_bundles(bundles) -> tuple[list[FeatureBundle], np.ndarray]:
    """(the bundles of distinct feature content, in first-seen order; for
    each input bundle, the index of its distinct bundle).

    A GEMM can round two identical input rows differently, depending on
    where they sit in the block, and so break an exact tie; code that needs
    such ties embeds each distinct content once. Content is compared as
    float64, so equal values match whatever their storage dtype. A bundle
    object listed again is matched by identity, without re-reading its
    features.
    """
    bundles = list(bundles)  # keeps every object alive, so ids stay unique
    slots: dict[tuple, int] = {}
    by_object: dict[int, int] = {}
    distinct: list[FeatureBundle] = []
    index = []
    for bundle in bundles:
        slot = by_object.get(id(bundle))
        if slot is None:
            key = tuple(
                (name, vec.astype(np.float64, copy=False).tobytes())
                for name, vec in sorted(bundle.features.items())
            )
            slot = slots.setdefault(key, len(distinct))
            if slot == len(distinct):
                distinct.append(bundle)
            by_object[id(bundle)] = slot
        index.append(slot)
    return distinct, np.array(index, dtype=np.intp)


def feature_importance(
    model: LaffModel, dataset, branch: str
) -> list[tuple[str, float]]:
    """Mean attention weight per feature space over all items and heads.

    Returns (space_name, mean_weight) sorted by weight descending (ties by
    name); the means sum to 1. High-weight spaces are the ones worth keeping
    when trimming the feature set.
    """
    branches = _head_branches(model, branch)
    dataset = list(dataset)
    if not dataset:
        raise ValueError("feature_importance needs a nonempty dataset")
    spaces = branches[0].spaces
    acc = np.zeros(len(spaces))
    for _, tables in _branch_blocks(branches[0], dataset):
        for bp in branches:
            acc += batch_forward(bp, tables).weights.sum(axis=0)
    means = acc / (len(dataset) * model.h)
    ranked = sorted(zip(spaces, means), key=lambda kv: (-kv[1], kv[0]))
    return [(name, float(w)) for name, w in ranked]
