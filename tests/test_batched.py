"""The batched fusion engine, matrix-form loss and post-search stages
against per-item oracles.

`per_item_oracle` keeps the item-at-a-time implementations; the batched
code must agree with them to 1e-12 relative, pick exactly the same hardest
negatives, and rerank bit-identically.
"""

import tracemalloc
import warnings

import numpy as np
import pytest

import per_item_oracle as oracle
from avsearch.cli import _caption_scores
from avsearch.errors import DegenerateSimilarityWarning
from avsearch.evaluation import rank_many, rank_scores
from avsearch.fusion import (
    BLOCK_ROWS,
    FeatureBundle,
    fused_matrix,
    init_model,
    laff_vjp,
    pair_similarities,
    similarity,
)
from avsearch.negation import Margins, Triplet, bnl_loss
from avsearch.numeric import cosine_sim, row_cosines
from avsearch.pseudocap import CandidateSet, CaptionCandidate, select_pseudo_captions
from avsearch.rerank import FrameFeatures, frame_scores, rerank

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

    def test_holds_one_block_and_one_heads_state(self, rng):
        # Beyond its output, fused_matrix holds a block's input tables (two
        # while the next block is stacked) and one head's forward pass, whose
        # transformed features, (BLOCK_ROWS, 3, 128) float64, dominate. Two
        # heads' states, or a block's states kept while the next block is
        # embedded, exceed the bound.
        dims = {"a": 64, "b": 48, "c": 40}
        model = init_model(dims, {"t": 8}, d=128, heads=2, seed=0)
        bundles = [
            FeatureBundle(f"v{i}", {k: rng.random(n, np.float32) for k, n in dims.items()})
            for i in range(2 * BLOCK_ROWS)
        ]
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            out = fused_matrix(model, bundles, "video")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        tables = BLOCK_ROWS * sum(dims.values()) * 8
        transformed = BLOCK_ROWS * len(dims) * model.d * 8
        assert peak < sum(m.nbytes for m in out) + tables + 2 * transformed

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


def as_hex(entries):
    """Entries with scores as float.hex, so -0.0 and 0.0 compare unequal."""
    return {qid: [(item, score.hex()) for item, score in e] for qid, e in entries.items()}


def assert_ranks_like_oracle(sims, query_ids, item_ids, top_k):
    got = rank_scores(sims, query_ids, item_ids, top_k)
    want = oracle.rank_scores(sims, query_ids, item_ids, top_k)
    assert got == want
    assert as_hex(got) == as_hex(want)
    return got


def tied_scores(rng, m, n):
    """Scores on a 0.1 grid, so every row has long runs of exact ties."""
    return np.round(rng.uniform(-1.0, 1.0, (m, n)), 1)


class TestRankManyOracle:
    def test_ties_straddle_top_k(self):
        ids = ["e", "b", "f", "a", "d", "c", "g", "h"]
        sims = np.array([[0.5, 0.5, 0.9, 0.5, 0.1, 0.5, 0.5, -0.2]])
        got = assert_ranks_like_oracle(sims, ["q"], ids, top_k=3)
        assert [item for item, _ in got["q"]] == ["f", "a", "b"]

    def test_every_cut_through_long_ties(self, rng):
        n = 200
        ids = [f"v{i:03d}" for i in rng.permutation(n)]
        sims = tied_scores(rng, 3, n)
        for top_k in range(1, n + 1, 7):
            assert_ranks_like_oracle(sims, ["q0", "q1", "q2"], ids, top_k)

    def test_signed_zeros(self, rng):
        n = 60
        ids = [f"v{i:02d}" for i in rng.permutation(n)]
        sims = np.where(rng.random((2, n)) < 0.5, -0.0, 0.0)
        sims[:, ::5] = 0.25
        sims[1, ::7] = -0.25
        for top_k in (30, n, n + 5):  # a cut, then every item kept
            got = assert_ranks_like_oracle(sims, ["q0", "q1"], ids, top_k)
            assert any(np.signbit(score) for _, score in got["q0"])

    def test_corpus_not_in_id_order(self, rng):
        n = 300
        ids = [f"item{i}" for i in rng.permutation(n)]  # "item10" < "item9"
        sims = tied_scores(rng, 5, n)
        assert_ranks_like_oracle(sims, [f"q{i}" for i in range(5)], ids, top_k=50)

    @pytest.mark.parametrize("extra", [0, 5], ids=["equal_n", "above_n"])
    def test_top_k_at_or_above_n(self, rng, extra):
        n = 40
        ids = [f"v{i:02d}" for i in rng.permutation(n)]
        got = assert_ranks_like_oracle(tied_scores(rng, 2, n), ["q0", "q1"], ids, n + extra)
        assert all(len(e) == n for e in got.values())

    def test_constant_row(self, rng):
        n = 50
        ids = [f"v{i:02d}" for i in rng.permutation(n)]
        sims = np.vstack([np.full(n, 0.25), tied_scores(rng, 1, n)[0]])
        got = assert_ranks_like_oracle(sims, ["flat", "q"], ids, top_k=20)
        assert [item for item, _ in got["flat"]] == sorted(ids)[:20]

    def test_single_query_through_the_model(self, rng):
        model = paper_like_model(33)
        corpus = [random_bundle(f"v{i}", model.video_dims(), rng) for i in rng.permutation(40)]
        query = [random_bundle("q", model.text_dims(), rng)]
        got = rank_many(model, query, corpus, top_k=15)
        want = oracle.rank_many(model, query, corpus, top_k=15)
        assert got == want and as_hex(got) == as_hex(want)

    def test_many_queries_with_duplicate_videos(self, rng):
        # Identical features under different ids: their scores can tie exactly.
        model = paper_like_model(34)
        corpus = [random_bundle(f"v{i}", model.video_dims(), rng) for i in rng.permutation(30)]
        corpus += [FeatureBundle(f"w{i}", b.features) for i, b in enumerate(corpus[:10])]
        queries = [random_bundle(f"q{i}", model.text_dims(), rng) for i in range(6)]
        for top_k in (1, 12, len(corpus)):
            got = rank_many(model, queries, corpus, top_k)
            want = oracle.rank_many(model, queries, corpus, top_k)
            assert got == want and as_hex(got) == as_hex(want)


def ragged_store(rng, counts, dim):
    return {
        f"i{j}": FrameFeatures(f"i{j}", rng.normal(size=(c, dim))) for j, c in enumerate(counts)
    }


def entry_of(rng, store):
    scores = np.sort(rng.uniform(-1, 1, len(store)))[::-1]
    return [(item, float(s)) for item, s in zip(store, scores)]


class TestRowCosines:
    def test_bit_identical_to_scalar_cosine(self, rng):
        for dim in (1, 7, 128, 513):
            a = rng.normal(size=(9, dim)) * rng.uniform(0.01, 100, size=(9, 1))
            b = rng.normal(size=(9, dim))
            a[3] = 0.0
            b[5] = 0.0
            b[6] = 2.5 * a[6]  # cosine 1 up to rounding, clipped
            b[7] = -a[7]
            with pytest.warns(DegenerateSimilarityWarning):
                got = row_cosines(a, b)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DegenerateSimilarityWarning)
                want = [cosine_sim(u, v) for u, v in zip(a, b)]
                want_vec = [cosine_sim(u, b[0]) for u in a]
                got_vec = row_cosines(a, b[0])
            assert got.tolist() == want
            assert got_vec.tolist() == want_vec

    def test_nan_row_kept(self):
        got = row_cosines(np.array([[np.nan, 0.0], [1.0, 0.0]]), np.array([1.0, 0.0]))
        assert np.isnan(got[0]) and got[1] == 1.0


class TestRerankOracle:
    @pytest.mark.parametrize("dim", [2, 5, 128])
    def test_ragged_frame_counts_bit_identical(self, rng, dim):
        store = ragged_store(rng, [1, 7, 3, 1, 12, 2, 64, 5], dim)
        entry = entry_of(rng, store)
        q = rng.normal(size=dim)
        for normalize in (True, False):
            got = rerank(entry, store, q, normalize_original=normalize)
            assert got == oracle.rerank(entry, store, q, normalize_original=normalize)
        videos = list(store.values())
        assert frame_scores(videos, q).tolist() == [oracle.frame_query_score(v, q) for v in videos]

    def test_zero_norm_frame(self, rng):
        store = ragged_store(rng, [3, 1, 4], 6)
        store["i0"].frames[1] = 0.0
        store["i1"].frames[0] = 0.0  # the video's only frame: its score is 0.0
        entry = entry_of(rng, store)
        q = rng.normal(size=6)
        with pytest.warns(DegenerateSimilarityWarning):
            got = rerank(entry, store, q)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateSimilarityWarning)
            assert got == oracle.rerank(entry, store, q)
        with pytest.warns(DegenerateSimilarityWarning):
            assert frame_scores([store["i1"]], q).tolist() == [0.0]

    def test_zero_query(self, rng):
        store = ragged_store(rng, [2, 5, 1], 4)
        entry = entry_of(rng, store)
        with pytest.warns(DegenerateSimilarityWarning):
            got = rerank(entry, store, np.zeros(4), w_new=1.0, w_old=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateSimilarityWarning)
            assert got == oracle.rerank(entry, store, np.zeros(4), w_new=1.0, w_old=0.0)
        assert [s for _, s in got] == [0.0, 0.0, 0.0]

    def test_cosines_at_plus_and_minus_one(self, rng):
        # Frames parallel or antiparallel to the query: the raw cosine lands
        # within rounding of +-1, on either side, and is clipped.
        q = rng.normal(size=9)
        scales = [3.7, -0.3, 1e-3, -250.0, 0.77, -1.0, 1.0, 2.0]
        store = {f"i{j}": FrameFeatures(f"i{j}", [s * q]) for j, s in enumerate(scales)}
        entry = entry_of(rng, store)
        got = rerank(entry, store, q, w_new=1.0, w_old=0.0)
        assert got == oracle.rerank(entry, store, q, w_new=1.0, w_old=0.0)
        scores = frame_scores(list(store.values()), q)
        assert scores.max() == 1.0 and scores.min() == -1.0


def pseudocap_inputs(rng, model, n_videos, n_cands):
    videos = {f"v{i}": random_bundle(f"v{i}", model.video_dims(), rng) for i in range(n_videos)}
    caps = {}
    sets = []
    for vid in videos:
        cands = []
        for f in range(n_cands):
            text = f"caption {int(rng.integers(n_cands))}"
            if rng.random() < 0.3:
                text = text.upper()
            cands.append(CaptionCandidate(f, text))
            caps[f"{vid}#{f}"] = random_bundle(f"{vid}#{f}", model.text_dims(), rng)
        order = rng.permutation(n_cands)
        sets.append(CandidateSet(vid, [cands[i] for i in order]))
    return sets, videos, caps


class TestPseudocapOracle:
    def test_pair_similarities_match_similarity(self, rng):
        model = paper_like_model(40)
        videos = [random_bundle(f"v{i}", model.video_dims(), rng) for i in range(5)]
        texts = [random_bundle(f"q{i}", model.text_dims(), rng) for i in range(BLOCK_ROWS + 9)]
        pair_videos = [videos[i % 5] for i in range(len(texts))]
        got = pair_similarities(model, pair_videos, texts)
        want = [oracle.pair_similarity(model, v, t) for v, t in zip(pair_videos, texts)]
        np.testing.assert_allclose(got, want, rtol=RTOL, atol=RTOL)
        per_pair = [similarity(model, v, t) for v, t in zip(pair_videos, texts)]
        np.testing.assert_allclose(got, per_pair, rtol=RTOL, atol=RTOL)

    def test_caption_scores_match_per_pair_scoring(self, rng):
        model = paper_like_model(41)
        sets, videos, caps = pseudocap_inputs(rng, model, 6, 10)
        got = _caption_scores(model, sets, videos, caps)
        want = oracle.caption_scores(model, sets, videos, caps)
        assert {v: sorted(s) for v, s in got.items()} == {v: sorted(s) for v, s in want.items()}
        for vid, scores in want.items():
            for text, score in scores.items():
                np.testing.assert_allclose(got[vid][text], score, rtol=RTOL, atol=RTOL)

    @pytest.mark.parametrize("dim,d,n", [(64, 15, 7), (119, 3, 9), (306, 34, 6)])
    def test_identical_caption_features_tie_by_frame(self, dim, d, n):
        # Two distinct captions with identical features must score exactly
        # alike. At these shapes a GEMM can round identical input rows
        # differently, so each distinct caption content is embedded once.
        rng = np.random.default_rng(dim)
        model = randomized_model({"a": 5}, {"t": dim}, d=d, heads=2, seed=dim, scale=0.1)
        video = random_bundle("v", model.video_dims(), rng)
        caps = {f"v#{f}": random_bundle(f"v#{f}", model.text_dims(), rng) for f in range(n)}
        caps[f"v#{n - 1}"] = FeatureBundle(f"v#{n - 1}", {"t": caps["v#0"].features["t"].copy()})
        cands = CandidateSet("v", [CaptionCandidate(f, f"text {f}") for f in reversed(range(n))])
        scores = _caption_scores(model, [cands], {"v": video}, caps)["v"]
        assert scores["text 0"] == scores[f"text {n - 1}"]
        ranked = [t for t, _ in select_pseudo_captions(cands, scores.__getitem__, k=n)]
        first = ranked.index("text 0")
        assert ranked[first + 1] == f"text {n - 1}"
