"""Features stay at the file's float32 precision in memory.

Feature containers keep a float32 (or float64) array as given, and the code
that computes on features widens them to float64 in the copy it makes
anyway. Widening float32 to float64 is exact, so float32 storage must give
bit-identical numbers to float64 storage of the same values, at half the
resident bytes.
"""

import tracemalloc

import numpy as np
import pytest

from avsearch.featio import write_features
from avsearch.fusion import FeatureBundle, distinct_bundles, fused_matrix, pair_similarities
from avsearch.manifest import load_feature_bundles
from avsearch.negation import Triplet, bnl_loss
from avsearch.rerank import FrameFeatures, frame_scores

from test_batched import MARGINS, paper_like_model
from test_negation import make_batch


def bits(x) -> list[int]:
    """The exact bit patterns of float64 values, so -0.0 != 0.0 and NaNs compare."""
    return np.asarray(x, dtype=np.float64).view(np.int64).ravel().tolist()


def narrowed(bundle: FeatureBundle) -> FeatureBundle:
    """The bundle's values rounded to float32, stored as float32."""
    return FeatureBundle(bundle.item_id, {n: v.astype(np.float32) for n, v in bundle.features.items()})


def widened(bundle: FeatureBundle) -> FeatureBundle:
    """The same values as bundle, stored as float64."""
    return FeatureBundle(bundle.item_id, {n: v.astype(np.float64) for n, v in bundle.features.items()})


def stored(batch: list[Triplet], store) -> list[Triplet]:
    """The batch with every bundle rounded to float32, then passed to store."""
    def convert(bundle):
        return None if bundle is None else store(narrowed(bundle))

    return [
        Triplet(
            convert(t.video), t.caption, convert(t.caption_features), t.negated, convert(t.negated_features)
        )
        for t in batch
    ]


def random_bundles(rng, dims: dict[str, int], n: int) -> list[FeatureBundle]:
    """n float32 bundles of the given space dims."""
    return [
        narrowed(FeatureBundle(f"i{i}", {name: rng.normal(size=k) for name, k in dims.items()}))
        for i in range(n)
    ]


class TestStorageDtype:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bundle_keeps_its_dtype_without_a_copy(self, dtype):
        vec = np.arange(4, dtype=dtype)
        assert FeatureBundle("v", {"a": vec}).features["a"] is vec

    @pytest.mark.parametrize("value", [[1, 2, 3], [0.5, 1.5], np.arange(3), np.arange(3, dtype=np.float16)])
    def test_bundle_turns_other_input_into_float64(self, value):
        got = FeatureBundle("v", {"a": value}).features["a"]
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, np.asarray(value, dtype=np.float64))

    def test_bundle_rejects_a_2d_float32_array(self):
        with pytest.raises(ValueError, match="must be 1-D"):
            FeatureBundle("v", {"a": np.zeros((2, 2), dtype=np.float32)})

    def test_frames_keep_float32_without_a_copy(self):
        table = np.arange(12, dtype=np.float32).reshape(4, 3)
        frames = FrameFeatures("v", table[1:3])
        assert frames.frames.dtype == np.float32
        assert np.shares_memory(frames.frames, table)

    @pytest.mark.parametrize("value", [[[1, 2], [3, 4]], np.ones((2, 2), dtype=np.int32)])
    def test_frames_turn_other_input_into_float64(self, value):
        frames = FrameFeatures("v", value).frames
        assert frames.dtype == np.float64
        np.testing.assert_array_equal(frames, np.asarray(value, dtype=np.float64))

    def test_frames_reject_a_1d_float32_array(self):
        with pytest.raises(ValueError, match="frames of 'v' must be 2-D"):
            FrameFeatures("v", np.zeros(3, dtype=np.float32))

    def test_loaded_bundles_are_float32_rows_of_one_table(self, tmp_path, rng):
        p = tmp_path / "a.feat"
        write_features(p, "a", {f"v{i}": rng.normal(size=5) for i in range(4)})
        _, bundles = load_feature_bundles([p])
        vecs = [bundle.features["a"] for bundle in bundles.values()]
        assert all(vec.dtype == np.float32 for vec in vecs)
        assert all(np.shares_memory(vec, vecs[0].base) for vec in vecs)


class TestSameNumbersFromEitherStorage:
    def test_fused_matrix(self, rng):
        model = paper_like_model(30)
        for branch, dims in (("video", model.video_dims()), ("text", model.text_dims())):
            bundles = random_bundles(rng, dims, 40)
            got = fused_matrix(model, bundles, branch)
            want = fused_matrix(model, [widened(b) for b in bundles], branch)
            assert [bits(m) for m in got] == [bits(m) for m in want]

    def test_pair_similarities(self, rng):
        model = paper_like_model(31)
        batch = make_batch(rng, model, 8, [False] * 8)
        small, wide = stored(batch, lambda b: b), stored(batch, widened)
        got = pair_similarities(model, [t.video for t in small], [t.caption_features for t in small])
        want = pair_similarities(model, [t.video for t in wide], [t.caption_features for t in wide])
        assert bits(got) == bits(want)

    def test_bnl_loss_and_gradient(self, rng):
        model = paper_like_model(32)
        batch = make_batch(rng, model, 6, [True, False, True, True, False, False])
        small, wide = stored(batch, lambda b: b), stored(batch, widened)
        got_loss, got_grad = bnl_loss(model, small, MARGINS)
        want_loss, want_grad = bnl_loss(model, wide, MARGINS)
        assert float(got_loss).hex() == float(want_loss).hex()
        assert bits(got_grad) == bits(want_grad)

    def test_frame_scores(self, rng):
        table = rng.normal(size=(30, 7)).astype(np.float32)
        query = rng.normal(size=7).astype(np.float32)
        bounds = [(0, 4), (4, 5), (5, 19), (19, 30)]
        got = frame_scores([FrameFeatures(f"v{a}", table[a:b]) for a, b in bounds], query)
        wide = table.astype(np.float64)
        want = frame_scores([FrameFeatures(f"v{a}", wide[a:b]) for a, b in bounds], query.astype(np.float64))
        assert bits(got) == bits(want)


class TestDistinctBundles:
    def test_equal_values_dedupe_across_storage_dtypes(self, rng):
        first, other = random_bundles(rng, {"x": 6, "y": 3}, 2)
        distinct, index = distinct_bundles([first, widened(first), other, widened(other)])
        assert len(distinct) == 2 and distinct[0] is first and distinct[1] is other
        assert index.tolist() == [0, 0, 1, 1]


def test_loaded_features_hold_about_their_float32_bytes(tmp_path, rng):
    # A 2000 x 1024 space is 8.2 MB at float32 and 16.4 MB at float64; the
    # ids, index and bundle objects add well under a quarter of the former.
    n, dim = 2000, 1024
    p = tmp_path / "big.feat"
    write_features(p, "big", {f"video{i:05d}": row for i, row in enumerate(rng.normal(size=(n, dim)))})
    tracemalloc.start()
    try:
        _, bundles = load_feature_bundles([p])
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(bundles) == n
    assert held <= 1.25 * n * dim * 4
