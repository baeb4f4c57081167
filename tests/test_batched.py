"""The batched fusion engine, matrix-form loss and post-search stages
against per-item oracles.

`per_item_oracle` keeps the item-at-a-time implementations; the batched
code must agree with them to 1e-12 relative, pick exactly the same hardest
negatives, and rerank bit-identically.
"""

import os
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest

import per_item_oracle as oracle
from per_item_oracle import batched_rank_scores as rank_scores
from avsearch import fusion
from avsearch.cli import _caption_scores
from avsearch.errors import BundleMismatchError, DegenerateSimilarityWarning
from avsearch.evaluation import rank_many, similarity_matrix
from avsearch.fusion import (
    BLOCK_ROWS,
    BranchState,
    FeatureBundle,
    batch_forward,
    branch_tables,
    feature_importance,
    fused_matrix,
    init_model,
    laff_vjp,
    pair_similarities,
    similarity,
)
from avsearch.negation import Margins, Triplet, bnl_loss
from avsearch.numeric import row_cosines
from avsearch.pseudocap import CandidateSet, CaptionCandidate, kept_candidates, select_pseudo_captions
from avsearch.rerank import FrameFeatures, frame_scores, rerank

from conftest import assert_all_joined, random_bundle, randomized_model
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


def embed_with(monkeypatch, workers, model, bundles, branch):
    monkeypatch.setattr(fusion, "WORKERS", workers)
    return fused_matrix(model, bundles, branch)


def raised_with(monkeypatch, workers, model, bundles, expected):
    with pytest.raises(expected) as exc:
        embed_with(monkeypatch, workers, model, bundles, "video")
    return str(exc.value)


class TestFusedMatrixThreads:
    """fused_matrix's blocks on helper threads: the same bits, the serial
    loop's errors, every thread joined and one block's memory per worker."""

    @pytest.mark.parametrize("branch", ["video", "text"])
    @pytest.mark.parametrize("n", [4 * 8 + 5, 4 * 8 + 1])
    def test_equals_the_single_worker_output(self, monkeypatch, rng, started_threads, branch, n):
        monkeypatch.setattr(fusion, "BLOCK_ROWS", 8)
        model = paper_like_model(33)
        dims = model.video_dims() if branch == "video" else model.text_dims()
        bundles = [random_bundle(f"i{i}", dims, rng) for i in range(n)]
        want = embed_with(monkeypatch, 1, model, bundles, branch)
        assert not started_threads
        got = embed_with(monkeypatch, 3, model, bundles, branch)
        assert len(started_threads) == 1  # 5 blocks: two workers
        assert_all_joined(started_threads)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("n", [0, 1, 256, 257, 769])
    def test_consume_gets_each_blocks_state_once_per_head_in_order(
        self, monkeypatch, rng, started_threads, workers, n
    ):
        model = randomized_model({"a": 3, "b": 2}, {"t": 2}, d=4, heads=2, seed=42)
        bundles = [random_bundle(f"v{i}", model.video_dims(), rng) for i in range(n)]
        kept = embed_with(monkeypatch, 1, model, bundles, "video")
        monkeypatch.setattr(fusion, "WORKERS", workers)
        calls = []  # list.append is atomic, so helpers may share the list

        def consume(rows, head, state):
            calls.append((rows, head, threading.get_ident(), state))

        assert fused_matrix(model, bundles, "video", consume) is None
        by_block = {}
        for rows, head, ident, state in calls:
            by_block.setdefault(rows.start, []).append((rows, head, ident, state))
        assert sorted(by_block) == list(range(0, n, BLOCK_ROWS))
        covered = np.zeros(n, dtype=int)
        for block in by_block.values():
            assert [head for _, head, _, _ in block] == list(range(model.h))
            assert len({ident for _, _, ident, _ in block}) == 1  # the worker that embedded it
            rows = block[0][0]
            covered[rows] += 1
            for _, head, _, state in block:
                assert isinstance(state, BranchState)
                assert state.fused.tobytes() == kept[head][rows].tobytes()
        assert (covered == 1).all()
        blocks = -(-n // BLOCK_ROWS)
        assert len(started_threads) == max(min(workers, blocks // 2) - 1, 0)
        assert_all_joined(started_threads)

    def test_stress_every_block_once(self, monkeypatch, rng, started_threads):
        monkeypatch.setattr(fusion, "BLOCK_ROWS", 3)
        model = paper_like_model(34)
        bundles = [random_bundle(f"v{i}", model.video_dims(), rng) for i in range(100)]
        taken = []
        real_tables = fusion.branch_tables

        def recording_tables(branch, block):
            taken.append(block[0].item_id)
            return real_tables(branch, block)

        monkeypatch.setattr(fusion, "branch_tables", recording_tables)
        want = embed_with(monkeypatch, 1, model, bundles, "video")
        serial_taken = sorted(taken)
        taken.clear()
        result = {}

        def call():
            try:
                result["out"] = embed_with(monkeypatch, 8, model, bundles, "video")
            except Exception as exc:  # reported below, on the test's thread
                result["error"] = exc

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            caller = threading.Thread(target=call)
            caller.start()
            caller.join(timeout=60)
            assert not caller.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert "error" not in result
        assert len(started_threads) == 7  # 34 blocks: eight workers
        assert_all_joined(started_threads)
        assert sorted(taken) == serial_taken  # no block lost or run twice
        for g, w in zip(result["out"], want):
            assert g.tobytes() == w.tobytes()

    def test_missing_space_in_a_late_block_raises_the_serial_error(
        self, monkeypatch, rng, started_threads
    ):
        monkeypatch.setattr(fusion, "BLOCK_ROWS", 4)
        model = paper_like_model(35)
        bundles = [random_bundle(f"v{i}", model.video_dims(), rng) for i in range(48)]
        del bundles[37].features["b"]  # block 9 of 12
        del bundles[45].features["a"]  # block 11, which a serial loop never reaches
        want = raised_with(monkeypatch, 1, model, bundles, BundleMismatchError)
        assert "'v37'" in want
        got = raised_with(monkeypatch, 4, model, bundles, BundleMismatchError)
        assert got == want
        assert len(started_threads) == 3
        assert_all_joined(started_threads)

    def test_memory_error_in_one_block_reaches_the_caller(self, monkeypatch, rng, started_threads):
        # 16 blocks of 4 rows; block 2 fails at once, every other block takes
        # 50 ms. The four workers stop taking blocks after the failure, so
        # far fewer than 16 are started.
        monkeypatch.setattr(fusion, "BLOCK_ROWS", 4)
        model = paper_like_model(36)
        bundles = [random_bundle(f"v{i}", model.video_dims(), rng) for i in range(64)]
        taken = []
        real_tables = fusion.branch_tables

        def tables(branch, block):
            taken.append(block[0].item_id)
            if block[0] is bundles[8]:
                raise MemoryError("Unable to allocate the block")
            time.sleep(0.05)
            return real_tables(branch, block)

        monkeypatch.setattr(fusion, "branch_tables", tables)
        assert raised_with(monkeypatch, 4, model, bundles, MemoryError) == (
            "Unable to allocate the block"
        )
        assert len(started_threads) == 3
        assert_all_joined(started_threads)
        assert "v8" in taken and len(taken) <= 10

    def test_the_earliest_failed_block_wins(self, monkeypatch, rng, started_threads):
        # Block 3 fails at once, block 2 only after 200 ms, while blocks 0
        # and 1 take 50 ms each: both fail, and the caller sees block 2's
        # error, the one the serial loop raises.
        monkeypatch.setattr(fusion, "BLOCK_ROWS", 4)
        model = paper_like_model(37)
        bundles = [random_bundle(f"v{i}", model.video_dims(), rng) for i in range(32)]
        real_tables = fusion.branch_tables

        def tables(branch, block):
            index = int(block[0].item_id[1:]) // 4
            if index == 2:
                time.sleep(0.2)
            if index in (2, 3):
                raise MemoryError(f"block {index}")
            time.sleep(0.05)
            return real_tables(branch, block)

        monkeypatch.setattr(fusion, "branch_tables", tables)
        assert raised_with(monkeypatch, 4, model, bundles, MemoryError) == "block 2"
        assert_all_joined(started_threads)

    def test_holds_one_block_per_worker(self, monkeypatch, rng, started_threads):
        # The helper-path twin of test_holds_one_block_and_one_heads_state:
        # each of the three workers holds one block's tables and one head's
        # forward pass.
        workers = 3
        monkeypatch.setattr(fusion, "WORKERS", workers)
        dims = {"a": 64, "b": 48, "c": 40}
        model = init_model(dims, {"t": 8}, d=128, heads=2, seed=0)
        bundles = [
            FeatureBundle(f"v{i}", {k: rng.random(n, np.float32) for k, n in dims.items()})
            for i in range(2 * workers * BLOCK_ROWS)
        ]
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            out = fused_matrix(model, bundles, "video")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(started_threads) == workers - 1
        tables = BLOCK_ROWS * sum(dims.values()) * 8
        transformed = BLOCK_ROWS * len(dims) * model.d * 8
        assert peak < sum(m.nbytes for m in out) + workers * (tables + 2 * transformed)

    def test_no_thread_to_spare_leaves_the_blocks_to_the_caller(self, monkeypatch, rng):
        class Unstartable(threading.Thread):
            def start(self):
                raise RuntimeError("can't start new thread")

        monkeypatch.setattr(fusion, "BLOCK_ROWS", 8)
        model = paper_like_model(38)
        bundles = [random_bundle(f"v{i}", model.video_dims(), rng) for i in range(40)]
        want = embed_with(monkeypatch, 1, model, bundles, "video")
        monkeypatch.setattr(fusion, "Thread", Unstartable)
        got = embed_with(monkeypatch, 4, model, bundles, "video")
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()

    def test_importing_starts_no_thread(self):
        code = (
            "import threading, avsearch, avsearch.cli, avsearch.fusion;"
            "assert threading.active_count() == 1, threading.enumerate()"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)

    @pytest.mark.parametrize("workers, n, per_worker", [(1, 6, 1), (4, 3, 2)])
    def test_one_worker_runs_the_tasks_in_order_on_the_caller(
        self, monkeypatch, started_threads, workers, n, per_worker
    ):
        # One worker, from WORKERS 1 or too few tasks to share: no helper
        # starts, and the caller stops at the failed task and raises its error.
        monkeypatch.setattr(fusion, "WORKERS", workers)
        ran = []

        def task(i, worker):
            ran.append((i, worker, threading.get_ident()))
            if i == 1:
                raise KeyError(f"task {i}")

        with pytest.raises(KeyError) as exc:
            fusion.run_tasks(n, task, per_worker)
        assert exc.value.args == ("task 1",)
        assert ran == [(0, 0, threading.get_ident()), (1, 0, threading.get_ident())]
        assert not started_threads

    def test_helpers_keep_the_callers_errstate(self, monkeypatch, started_threads):
        # Four 100 ms tasks on two workers: the helper takes some of them,
        # and sees the caller's np.errstate, as a serial loop would.
        monkeypatch.setattr(fusion, "WORKERS", 2)
        seen = []

        def task(i, worker):
            time.sleep(0.1)
            seen.append((worker, np.geterr()["over"]))

        with np.errstate(over="raise"):
            fusion.run_tasks(4, task)
        assert len(started_threads) == 1
        assert_all_joined(started_threads)
        assert {worker for worker, _ in seen} == {0, 1}
        assert [over for _, over in seen] == ["raise"] * 4


class TestBlockedSimilarity:
    """similarity_matrix adds each corpus block's similarities inside the
    fused_matrix walk. The full-matrix formula of per_item_oracle gives the
    same bits, on one worker or two, except in a one-row last block
    (n = 1 mod BLOCK_ROWS, n > 1): NumPy takes that block's product through
    GEMV, and on OpenBLAS 0.3.31 it differs from the full GEMM's last column
    by up to 1.1e-16."""

    def assert_full_matrix_bits(self, monkeypatch, model, queries, corpus):
        want = oracle.similarity_matrix(model, queries, corpus)
        n = len(corpus)
        body = n - 1 if n % BLOCK_ROWS == 1 and n > 1 else n
        for workers in (1, 2):
            monkeypatch.setattr(fusion, "WORKERS", workers)
            got = similarity_matrix(model, queries, corpus)
            assert got.shape == want.shape
            assert got[:, :body].tobytes() == want[:, :body].tobytes()
            np.testing.assert_allclose(got[:, body:], want[:, body:], rtol=0, atol=2.3e-16)

    @pytest.mark.parametrize("n", [1, 255, 256, 257, 513, 769])
    def test_equals_the_full_matrix_formula(self, monkeypatch, rng, n):
        model = paper_like_model(40)
        queries = [random_bundle(f"q{i}", model.text_dims(), rng) for i in range(7)]
        corpus = [random_bundle(f"v{i}", model.video_dims(), rng) for i in range(n)]
        self.assert_full_matrix_bits(monkeypatch, model, queries, corpus)

    def test_benchmark_shape(self, monkeypatch, rng):
        # The search workload's 500 queries over 4000 videos at d=512, h=2,
        # on narrow feature spaces: 15 full blocks and one of 160 rows.
        model = randomized_model({"a": 6, "b": 4}, {"t": 5}, d=512, heads=2, seed=41)
        queries = [random_bundle(f"q{i}", model.text_dims(), rng) for i in range(500)]
        corpus = [random_bundle(f"v{i}", model.video_dims(), rng) for i in range(4000)]
        self.assert_full_matrix_bits(monkeypatch, model, queries, corpus)

    def test_no_corpus_sized_matrix(self, rng):
        # The full-matrix formula holds two heads' (n, d) fused rows and
        # their unit copies; the walk holds a few blocks' states and tables.
        dims = {"a": 16, "b": 8}
        model = init_model(dims, {"t": 8}, d=64, heads=2, seed=0)
        queries = [random_bundle(f"q{i}", model.text_dims(), rng) for i in range(2)]
        corpus = [random_bundle(f"v{i}", dims, rng) for i in range(16 * BLOCK_ROWS)]
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            sims = similarity_matrix(model, queries, corpus)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < sims.nbytes + len(corpus) * model.d * 8


class TestFeatureImportanceThreads:
    """feature_importance on the block walk's workers: the serial loop's sums,
    bit for bit, and its errors, with every helper joined."""

    def test_equals_the_serial_sums_for_any_worker_count(self, monkeypatch, rng, started_threads):
        monkeypatch.setattr(fusion, "BLOCK_ROWS", 8)
        model = paper_like_model(39)
        bundles = [random_bundle(f"v{i}", model.video_dims(), rng) for i in range(8 * 8 + 3)]
        # The serial loop: block by block, head by head, into one total.
        acc = np.zeros(len(model.video_spaces))
        for start in range(0, len(bundles), 8):
            tables = branch_tables(model.heads[0].video, bundles[start : start + 8])
            for head in model.heads:
                acc += batch_forward(head.video, tables).weights.sum(axis=0)
        means = acc / (len(bundles) * model.h)
        ranked = sorted(zip(model.video_spaces, means), key=lambda kv: (-kv[1], kv[0]))
        want = [(name, float(w)) for name, w in ranked]
        for workers in (1, 2, 4):  # 9 blocks: up to four workers
            monkeypatch.setattr(fusion, "WORKERS", workers)
            started_threads.clear()
            assert feature_importance(model, bundles, "video") == want
            assert len(started_threads) == workers - 1
            assert_all_joined(started_threads)

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_the_earliest_failed_block_wins(self, monkeypatch, rng, started_threads, workers):
        # Block 3 fails at once, block 2 only after 200 ms, while blocks 0
        # and 1 take 50 ms each: the caller sees block 2's error, the one
        # the serial loop raises.
        monkeypatch.setattr(fusion, "BLOCK_ROWS", 4)
        model = paper_like_model(40)
        bundles = [random_bundle(f"v{i}", model.video_dims(), rng) for i in range(32)]
        real_tables = fusion.branch_tables

        def tables(branch, block):
            index = int(block[0].item_id[1:]) // 4
            if index == 2:
                time.sleep(0.2)
            if index in (2, 3):
                raise MemoryError(f"block {index}")
            time.sleep(0.05)
            return real_tables(branch, block)

        monkeypatch.setattr(fusion, "branch_tables", tables)
        monkeypatch.setattr(fusion, "WORKERS", workers)
        with pytest.raises(MemoryError, match="^block 2$"):
            feature_importance(model, bundles, "video")
        assert len(started_threads) == workers - 1
        assert_all_joined(started_threads)

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
                want = [oracle.cosine_sim(u, v) for u, v in zip(a, b)]
                want_vec = [oracle.cosine_sim(u, b[0]) for u in a]
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
        got = _caption_scores(model, {c.video_id: kept_candidates(c) for c in sets}, videos, caps)
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
        scores = _caption_scores(model, {"v": kept_candidates(cands)}, {"v": video}, caps)["v"]
        assert scores["text 0"] == scores[f"text {n - 1}"]
        ranked = [t for t, _ in select_pseudo_captions(cands, scores.__getitem__, k=n)]
        first = ranked.index("text 0")
        assert ranked[first + 1] == f"text {n - 1}"
