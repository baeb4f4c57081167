"""The batched fusion engine and matrix-form loss against per-item oracles.

`per_item_oracle` keeps the item-at-a-time implementations; the batched
code must agree with them to 1e-12 relative, and pick exactly the same
hardest negatives.
"""

import warnings

import numpy as np
import pytest

import per_item_oracle as oracle
from avsearch.errors import DegenerateSimilarityWarning
from avsearch.fusion import BLOCK_ROWS, FeatureBundle, fused_matrix, init_model, laff_vjp
from avsearch.negation import Margins, Triplet, bnl_loss

from conftest import random_bundle, randomized_model
from test_negation import make_batch

RTOL = 1e-12
MARGINS = Margins(m0=0.3, m1=0.2, m2=1.0, m3=0.25, m4=0.9, lambda1=0.5)


def assert_matches_oracle(model, batch, m):
    loss, grad, breakdown = bnl_loss(model, batch, m, with_breakdown=True)
    ref_loss, ref_grad, ref_breakdown = oracle.bnl_loss(model, batch, m)
    np.testing.assert_allclose(loss, ref_loss, rtol=RTOL, atol=0.0)
    np.testing.assert_allclose(grad, ref_grad, rtol=RTOL, atol=RTOL * np.abs(ref_grad).max())
    assert breakdown.hardest == ref_breakdown.hardest
    for name in ("primary", "video_anchor", "text_anchor"):
        np.testing.assert_allclose(
            getattr(breakdown, name), getattr(ref_breakdown, name), rtol=RTOL, atol=RTOL
        )
    return loss, grad, breakdown


def paper_like_model(seed):
    return randomized_model({"a": 7, "b": 5, "c": 3}, {"t": 6, "u": 4}, d=8, heads=2, seed=seed)


class TestBnlLossOracle:
    @pytest.mark.parametrize(
        "negated",
        [[False] * 6, [True] * 6, [True, False, True, True, False, False]],
        ids=["none", "all", "mixed"],
    )
    def test_negation_mixes(self, rng, negated):
        model = paper_like_model(20)
        loss, grad, _ = assert_matches_oracle(model, make_batch(rng, model, 6, negated), MARGINS)
        assert loss > 0.0 and np.any(grad)

    def test_lambda_zero(self, rng):
        model = paper_like_model(21)
        batch = make_batch(rng, model, 5, [True, False, True, False, True])
        assert_matches_oracle(model, batch, Margins(m0=0.3, lambda1=0.0))

    @pytest.mark.parametrize("dim,d,n", [(306, 34, 6), (330, 15, 5), (64, 18, 6), (119, 3, 7)])
    def test_identical_videos_mine_lowest_negative(self, dim, d, n):
        # One video paired with n captions: every negative ties with the
        # positive, so mining must pick the lowest other index. At these
        # shapes a GEMM can round identical input rows differently, so each
        # distinct video must be embedded once for the tie to hold.
        rng = np.random.default_rng(dim)
        model = randomized_model({"a": dim}, {"t": 5}, d=d, heads=1, seed=dim, scale=0.1)
        batch = make_batch(rng, model, n, [b % 2 == 0 for b in range(n)])
        video = batch[0].video.features
        batch = [
            Triplet(
                FeatureBundle(f"v{b}", {name: vec.copy() for name, vec in video.items()}),
                t.caption,
                t.caption_features,
                t.negated,
                t.negated_features,
            )
            for b, t in enumerate(batch)
        ]
        _, _, breakdown = assert_matches_oracle(model, batch, MARGINS)
        assert breakdown.hardest == [1] + [0] * (n - 1)

    def test_zero_norm_embedding_warns_and_contributes_nothing(self, rng):
        # Zero biases and an all-zero input give tanh(0) = 0 in every space;
        # the oracle's scalar cosine VJP is zero for such a pair.
        model = init_model({"a": 4, "b": 3}, {"t": 5}, d=6, heads=2, seed=24)
        batch = make_batch(rng, model, 4, [True, False, True, False])
        zero_video = FeatureBundle("vz", {"a": np.zeros(4), "b": np.zeros(3)})
        batch[1] = Triplet(zero_video, batch[1].caption, batch[1].caption_features)
        with pytest.warns(DegenerateSimilarityWarning):
            bnl_loss(model, batch, MARGINS)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateSimilarityWarning)
            _, grad, _ = assert_matches_oracle(model, batch, MARGINS)
        assert np.all(np.isfinite(grad)) and np.any(grad)

    def test_nan_feature_gives_nan_loss_and_zero_gradient(self, rng):
        model = paper_like_model(25)
        batch = make_batch(rng, model, 4, [True, False, True, False])
        batch[2].caption_features.features["t"][1] = np.nan
        loss, grad, breakdown = bnl_loss(model, batch, MARGINS, with_breakdown=True)
        ref_loss, ref_grad, _ = oracle.bnl_loss(model, batch, MARGINS)
        assert np.isnan(loss) and np.isnan(ref_loss)
        assert not grad.any() and not ref_grad.any()
        assert breakdown.hardest == []

    def test_random_batches(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            model = paper_like_model(100 + seed)
            n = int(rng.integers(2, 9))
            negated = [bool(rng.integers(2)) for _ in range(n)]
            assert_matches_oracle(model, make_batch(rng, model, n, negated), MARGINS)


class TestFusedMatrixOracle:
    def test_matches_per_item_across_blocks(self, rng):
        model = paper_like_model(30)
        bundles = [random_bundle(f"v{i}", model.video_dims(), rng) for i in range(BLOCK_ROWS + 7)]
        got = fused_matrix(model, bundles, "video")
        want = oracle.fused_matrix(model, bundles, "video")
        for g, w in zip(got, want):
            np.testing.assert_allclose(g, w, rtol=RTOL, atol=RTOL)

    def test_text_branch(self, rng):
        model = paper_like_model(31)
        bundles = [random_bundle(f"q{i}", model.text_dims(), rng) for i in range(9)]
        want = oracle.fused_matrix(model, bundles, "text")
        for g, w in zip(fused_matrix(model, bundles, "text"), want):
            np.testing.assert_allclose(g, w, rtol=RTOL, atol=RTOL)


class TestLaffVjpOracle:
    def test_input_gradients_from_dz_w(self, rng):
        model = paper_like_model(32)
        for head in model.heads:
            for branch, dims in ((head.video, model.video_dims()), (head.text, model.text_dims())):
                bundle = random_bundle("x", dims, rng)
                upstream = rng.normal(size=model.d)
                got = laff_vjp(branch, bundle, upstream)
                want = oracle.item_backward(branch, oracle.item_forward(branch, bundle), upstream)
                for name in branch.spaces:
                    for grads in ("d_inputs", "d_weight", "d_bias"):
                        np.testing.assert_allclose(
                            getattr(got, grads)[name],
                            getattr(want, grads)[name],
                            rtol=RTOL,
                            atol=RTOL,
                        )
                np.testing.assert_allclose(got.d_attention, want.d_attention, rtol=RTOL, atol=RTOL)
