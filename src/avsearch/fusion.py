"""Attentional feature fusion and cross-modal similarity.

A fusion branch maps k per-space feature vectors into one d-dimensional
embedding: each feature is passed through its own linear+tanh transform,
attention scores u . e_i are softmaxed into convex weights, and the fused
vector is the weighted sum of the transformed features. A head pairs a
video branch with a text branch; the cross-modal similarity of a video and
a sentence is the mean over heads of the cosine between their fused
embeddings.

All numerics are batched. The inputs of n items are per-space (n, d_in)
tables; a branch runs one GEMM per space, E_i = tanh(X_i W_iᵀ + b_i), then
a row-wise softmax over the k spaces, and its backward pass forms weight
gradients as dZ_iᵀ X_i. The per-item functions (similarity, laff_forward,
laff_vjp, ...) are n=1 calls into the same path, and corpus embedding runs
in fixed-size row blocks.

Iteration over feature spaces is always in sorted space-name order so that
results are reproducible regardless of how bundles were assembled.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BundleMismatchError, DimensionError
from .numeric import LinearTanhParams, as_vector, cosine_sim, cosine_sim_vjp


@dataclass
class FeatureBundle:
    """Named per-space feature vectors for one item (video, frame or sentence)."""

    item_id: str
    features: dict[str, np.ndarray]

    def __post_init__(self):
        self.features = {
            name: as_vector(vec, f"feature {name!r}")
            for name, vec in self.features.items()
        }

    @classmethod
    def from_pairs(cls, item_id: str, pairs) -> "FeatureBundle":
        """Build from (space_name, vector) pairs, rejecting duplicate names."""
        features: dict[str, np.ndarray] = {}
        for name, vec in pairs:
            if name in features:
                raise BundleMismatchError(f"duplicate feature space {name!r}")
            features[name] = vec
        return cls(item_id, features)

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
    def k(self) -> int:
        return len(self.transforms)


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


@dataclass
class LaffModel:
    """h paired fusion branches; similarity is the mean cosine over heads."""

    heads: list[LaffHead]

    def __post_init__(self):
        if not self.heads:
            raise DimensionError("a model needs at least one head")
        first = self.heads[0]
        for i, head in enumerate(self.heads):
            if head.d != first.d:
                raise DimensionError(f"head {i} has d={head.d}, expected {first.d}")
            if head.video.spaces != first.video.spaces:
                raise DimensionError(f"head {i} has different video spaces")
            if head.text.spaces != first.text.spaces:
                raise DimensionError(f"head {i} has different text spaces")

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
        return {s: self.heads[0].video.transforms[s].in_dim for s in self.video_spaces}

    def text_dims(self) -> dict[str, int]:
        return {s: self.heads[0].text.transforms[s].in_dim for s in self.text_spaces}

    def to_vector(self) -> np.ndarray:
        """Flatten all parameters in a fixed order (heads, video/text, sorted spaces)."""
        chunks = []
        for head in self.heads:
            for branch in (head.video, head.text):
                for name in branch.spaces:
                    p = branch.transforms[name]
                    chunks.append(p.weight.ravel())
                    chunks.append(p.bias)
                chunks.append(branch.attention)
        return np.concatenate(chunks)

    def with_vector(self, vec: np.ndarray) -> "LaffModel":
        """Rebuild a model of identical structure from a flat parameter vector."""
        vec = as_vector(vec, "parameter vector")
        pos = 0

        def take(n: int) -> np.ndarray:
            nonlocal pos
            out = vec[pos : pos + n]
            if out.shape[0] != n:
                raise DimensionError("parameter vector too short for model structure")
            pos += n
            return out.copy()

        heads = []
        for head in self.heads:
            branches = []
            for branch in (head.video, head.text):
                transforms = {}
                for name in branch.spaces:
                    p = branch.transforms[name]
                    w = take(p.out_dim * p.in_dim).reshape(p.out_dim, p.in_dim)
                    b = take(p.out_dim)
                    transforms[name] = LinearTanhParams(w, b)
                u = take(branch.d)
                branches.append(LaffBranchParams(transforms, u))
            heads.append(LaffHead(branches[0], branches[1]))
        if pos != vec.shape[0]:
            raise DimensionError(
                f"parameter vector has {vec.shape[0]} entries, model needs {pos}"
            )
        return LaffModel(heads)

    def n_params(self) -> int:
        return self.to_vector().shape[0]


def init_model(
    video_dims: dict[str, int],
    text_dims: dict[str, int],
    d: int = 512,
    heads: int = 2,
    seed: int = 0,
) -> LaffModel:
    """Initialize a model: W ~ U(-1/sqrt(d_in), 1/sqrt(d_in)), b = 0, u = 0.

    Zero attention vectors start every branch at uniform attention, the
    unbiased prior. Heads draw independent weights.
    """
    if d < 1 or heads < 1:
        raise DimensionError(f"d and heads must be >= 1, got d={d}, heads={heads}")
    rng = np.random.default_rng(seed)

    def branch(dims: dict[str, int]) -> LaffBranchParams:
        transforms = {}
        for name in sorted(dims):
            d_in = dims[name]
            bound = 1.0 / np.sqrt(d_in)
            w = rng.uniform(-bound, bound, size=(d, d_in))
            transforms[name] = LinearTanhParams(w, np.zeros(d))
        return LaffBranchParams(transforms, np.zeros(d))

    return LaffModel([LaffHead(branch(video_dims), branch(text_dims)) for _ in range(heads)])


# ---------------------------------------------------------------------------
# Batched forward / backward through one branch
# ---------------------------------------------------------------------------

# Items embedded per block by fused_matrix and feature_importance, so that
# peak memory does not grow with the number of items.
BLOCK_ROWS = 256


@dataclass
class BranchState:
    """Cached forward pass of one branch on n items (leading n axis dropped
    by the per-item branch_forward)."""

    spaces: tuple[str, ...]
    inputs: list[np.ndarray]  # per space, (n, d_in)
    transformed: np.ndarray  # (n, k, d); transformed[:, i] = E_i for space i
    weights: np.ndarray  # (n, k) convex attention weights
    fused: np.ndarray  # (n, d)


@dataclass
class BranchGrads:
    """Gradients w.r.t. one branch's parameters (summed over items) and,
    from laff_vjp only, its input features."""

    d_weight: dict[str, np.ndarray]
    d_bias: dict[str, np.ndarray]
    d_attention: np.ndarray
    d_inputs: dict[str, np.ndarray] = field(default_factory=dict)


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
    """Per-space (n, d_in) input tables of a nonempty bundle list, in sorted
    space order. Every bundle must carry exactly the branch's spaces."""
    for bundle in bundles:
        _check_bundle(branch, bundle)
    tables = []
    for name in branch.spaces:
        try:
            tables.append(np.stack([bundle.features[name] for bundle in bundles]))
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
    return BranchState(spaces, tables, transformed, weights, fused)


def batch_backward(
    branch: LaffBranchParams, state: BranchState, d_fused: np.ndarray
) -> tuple[BranchGrads, list[np.ndarray]]:
    """Backprop d_fused = dL/d(fused), (n, d), through the weighted sum,
    the softmax attention and each linear+tanh.

    Each transformed feature receives both the direct a_i * d_fused path and
    the attention-score path through the softmax coupling. Parameter
    gradients are summed over the n items: dW_i = dZ_iᵀ X_i and
    db_i = sum of dZ_i's rows. Also returns the per-space (n, d)
    pre-activation gradients dZ_i; the input gradients are dZ_i W_i.
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
    d_attention = ds.reshape(-1) @ e.reshape(-1, e.shape[2])
    d_weight: dict[str, np.ndarray] = {}
    d_bias: dict[str, np.ndarray] = {}
    d_z = []
    for i, (name, x) in enumerate(zip(state.spaces, state.inputs)):
        dz = (a[:, i, None] * d_fused + ds[:, i, None] * branch.attention) * (
            1.0 - e[:, i] * e[:, i]
        )
        d_weight[name] = dz.T @ x
        d_bias[name] = dz.sum(axis=0)
        d_z.append(dz)
    return BranchGrads(d_weight, d_bias, d_attention), d_z


def branch_forward(branch: LaffBranchParams, bundle: FeatureBundle) -> BranchState:
    """Run one branch on one bundle; the state's arrays drop the item axis."""
    s = batch_forward(branch, branch_tables(branch, [bundle]))
    return BranchState(
        s.spaces, [x[0] for x in s.inputs], s.transformed[0], s.weights[0], s.fused[0]
    )


def laff_forward(
    branch: LaffBranchParams, bundle: FeatureBundle
) -> tuple[np.ndarray, np.ndarray]:
    """(fused vector, attention weights) for one bundle.

    Weights are positive and sum to 1; the fused vector is their convex
    combination of the transformed features.
    """
    state = branch_forward(branch, bundle)
    return state.fused, state.weights


def laff_vjp(
    branch: LaffBranchParams, bundle: FeatureBundle, upstream: np.ndarray
) -> BranchGrads:
    """Gradients of a scalar loss w.r.t. branch parameters and input features,
    given upstream = dL/d(fused)."""
    upstream = as_vector(upstream, "d_fused")
    state = batch_forward(branch, branch_tables(branch, [bundle]))
    grads, d_z = batch_backward(branch, state, upstream[None, :])
    grads.d_inputs = {
        name: (dz @ branch.transforms[name].weight)[0]
        for name, dz in zip(branch.spaces, d_z)
    }
    return grads


# ---------------------------------------------------------------------------
# Cross-modal similarity
# ---------------------------------------------------------------------------


def similarity(model: LaffModel, video: FeatureBundle, text: FeatureBundle) -> float:
    """Mean over heads of the cosine between fused video and text embeddings."""
    video_tables = branch_tables(model.heads[0].video, [video])
    text_tables = branch_tables(model.heads[0].text, [text])
    total = 0.0
    for head in model.heads:
        v = batch_forward(head.video, video_tables).fused[0]
        t = batch_forward(head.text, text_tables).fused[0]
        total += cosine_sim(v, t)
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


class ParamLayout:
    """Slice map into a model's flat parameter vector, for gradient accumulation."""

    def __init__(self, model: LaffModel):
        self.size = 0
        self._wb: dict[tuple[int, str, str], tuple[slice, slice]] = {}
        self._u: dict[tuple[int, str], slice] = {}
        pos = 0
        for hi, head in enumerate(model.heads):
            for bname, branch in (("video", head.video), ("text", head.text)):
                for sname in branch.spaces:
                    p = branch.transforms[sname]
                    w_slice = slice(pos, pos + p.out_dim * p.in_dim)
                    pos = w_slice.stop
                    b_slice = slice(pos, pos + p.out_dim)
                    pos = b_slice.stop
                    self._wb[(hi, bname, sname)] = (w_slice, b_slice)
                u_slice = slice(pos, pos + branch.d)
                pos = u_slice.stop
                self._u[(hi, bname)] = u_slice
        self.size = pos

    def zeros(self) -> np.ndarray:
        return np.zeros(self.size)

    def add_branch_grads(
        self, vec: np.ndarray, head_index: int, branch_name: str, grads: BranchGrads
    ) -> None:
        for sname, dw in grads.d_weight.items():
            w_slice, b_slice = self._wb[(head_index, branch_name, sname)]
            vec[w_slice] += dw.ravel()
            vec[b_slice] += grads.d_bias[sname]
        vec[self._u[(head_index, branch_name)]] += grads.d_attention


def similarity_with_grad(
    model: LaffModel, video: FeatureBundle, text: FeatureBundle
) -> tuple[float, np.ndarray]:
    """similarity() plus its gradient w.r.t. the flat model parameter vector."""
    layout = ParamLayout(model)
    grad = layout.zeros()
    video_tables = branch_tables(model.heads[0].video, [video])
    text_tables = branch_tables(model.heads[0].text, [text])
    total = 0.0
    inv_h = 1.0 / model.h
    for hi, head in enumerate(model.heads):
        vstate = batch_forward(head.video, video_tables)
        tstate = batch_forward(head.text, text_tables)
        total += cosine_sim(vstate.fused[0], tstate.fused[0])
        dv, dt = cosine_sim_vjp(vstate.fused[0], tstate.fused[0], inv_h)
        vgrads, _ = batch_backward(head.video, vstate, dv[None, :])
        tgrads, _ = batch_backward(head.text, tstate, dt[None, :])
        layout.add_branch_grads(grad, hi, "video", vgrads)
        layout.add_branch_grads(grad, hi, "text", tgrads)
    return total * inv_h, grad


def _head_branches(model: LaffModel, branch: str) -> list[LaffBranchParams]:
    if branch not in ("video", "text"):
        raise ValueError(f"branch must be 'video' or 'text', got {branch!r}")
    return [head.video if branch == "video" else head.text for head in model.heads]


def _branch_blocks(branches: list[LaffBranchParams], bundles: list):
    """Yield (first row, per-head BranchState) over blocks of BLOCK_ROWS bundles."""
    for start in range(0, len(bundles), BLOCK_ROWS):
        tables = branch_tables(branches[0], bundles[start : start + BLOCK_ROWS])
        yield start, [batch_forward(bp, tables) for bp in branches]


def fused_matrix(model: LaffModel, bundles, branch: str) -> list[np.ndarray]:
    """Per-head (n, d) matrices of fused embeddings for a list of bundles.

    branch is "video" or "text". Used for corpus-wide ranking, where
    embedding every item once per head beats re-running per query.
    """
    branches = _head_branches(model, branch)
    bundles = list(bundles)
    out = [np.empty((len(bundles), model.d)) for _ in branches]
    for start, states in _branch_blocks(branches, bundles):
        for mat, state in zip(out, states):
            mat[start : start + state.fused.shape[0]] = state.fused
    return out


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
    for _, states in _branch_blocks(branches, dataset):
        for state in states:
            acc += state.weights.sum(axis=0)
    means = acc / (len(dataset) * model.h)
    ranked = sorted(zip(spaces, means), key=lambda kv: (-kv[1], kv[0]))
    return [(name, float(w)) for name, w in ranked]
