import math

import numpy as np
import pytest

from per_item_oracle import cosine_sim
from avsearch.errors import ConfigError, DimensionError, FormatError
from avsearch.rerank import FrameFeatures, frame_query_score, rerank


def frames_with_cosines(item_id, cosines):
    """Unit frame vectors in 2-D whose cosine against [1, 0] is exactly c."""
    rows = [[c, math.sqrt(1.0 - c * c)] for c in cosines]
    return FrameFeatures(item_id, np.array(rows))


QUERY = np.array([1.0, 0.0])


class TestFrameQueryScore:
    def test_single_matching_frame(self):
        f = FrameFeatures("v", np.array([[0.3, 0.4]]))
        assert frame_query_score(f, np.array([0.3, 0.4])) == 1.0

    def test_max_pooling(self):
        f = frames_with_cosines("v", [0.2, 0.9, -0.1])
        assert frame_query_score(f, QUERY) == pytest.approx(0.9, abs=1e-12)

    def test_matches_explicit_loop(self, rng):
        frames = FrameFeatures("v", rng.normal(size=(10, 6)))
        q = rng.normal(size=6)
        expected = max(cosine_sim(frames.frames[i], q) for i in range(10))
        assert frame_query_score(frames, q) == expected

    def test_zero_frames_rejected(self):
        with pytest.raises(DimensionError):
            FrameFeatures("v", np.zeros((0, 4)))

    def test_dim_mismatch(self):
        f = FrameFeatures("v", np.zeros((2, 3)) + 1.0)
        with pytest.raises(DimensionError):
            frame_query_score(f, np.ones(4))

    @pytest.mark.parametrize(
        "rows", [[[1.0, 0.0], [np.nan, 0.0]], [[np.nan, 0.0], [1.0, 0.0]]],
        ids=["nan-last", "nan-first"],
    )
    def test_nan_frame_rejected_in_either_order(self, rows):
        # A max over frames would keep or drop the NaN depending on its position.
        f = FrameFeatures("vid7", np.array(rows))
        with pytest.raises(FormatError, match="vid7"):
            frame_query_score(f, QUERY)
        entry = [("A", 1.0), ("vid7", 0.5)]
        store = {"A": frames_with_cosines("A", [0.3]), "vid7": f}
        with pytest.raises(FormatError, match="vid7"):
            rerank(entry, store, QUERY)


def hand_case():
    """Original scores 10/5/0 normalize to 1/.5/0; frame cosines .1/.9/.8."""
    entry = [("A", 10.0), ("B", 5.0), ("C", 0.0)]
    store = {
        "A": frames_with_cosines("A", [0.1]),
        "B": frames_with_cosines("B", [0.9]),
        "C": frames_with_cosines("C", [0.8]),
    }
    return entry, store


class TestRerank:
    def test_old_only_preserves_ordering_exactly(self, rng):
        scores = np.sort(rng.uniform(-1, 1, 8))[::-1]
        entry = [(f"i{j}", float(s)) for j, s in enumerate(scores)]
        store = {f"i{j}": FrameFeatures(f"i{j}", rng.normal(size=(3, 4))) for j in range(8)}
        out = rerank(entry, store, rng.normal(size=4), w_new=0.0, w_old=1.0)
        assert [i for i, _ in out] == [i for i, _ in entry]

    def test_new_only_matches_bruteforce_frame_ordering(self, rng):
        entry = [(f"i{j}", float(s)) for j, s in enumerate(np.sort(rng.uniform(0, 1, 10))[::-1])]
        store = {f"i{j}": FrameFeatures(f"i{j}", rng.normal(size=(4, 5))) for j in range(10)}
        q = rng.normal(size=5)
        out = rerank(entry, store, q, w_new=1.0, w_old=0.0)
        frame_scores = {
            item: max(cosine_sim(f, q) for f in store[item].frames) for item, _ in entry
        }
        expected = sorted(entry, key=lambda pair: -frame_scores[pair[0]])
        assert [i for i, _ in out] == [i for i, _ in expected]

    def test_hand_computed_fusion(self):
        # A: .6*.1 + .4*1.0 = .46; B: .6*.9 + .4*.5 = .74; C: .6*.8 + .4*0 = .48
        entry, store = hand_case()
        out = rerank(entry, store, QUERY, w_new=0.6, w_old=0.4)
        assert [i for i, _ in out] == ["B", "C", "A"]
        scores = dict(out)
        assert scores["A"] == pytest.approx(0.46, abs=1e-12)
        assert scores["B"] == pytest.approx(0.74, abs=1e-12)
        assert scores["C"] == pytest.approx(0.48, abs=1e-12)

    def test_finite_originals_whose_range_overflows_normalize_to_0_and_1(self):
        # 1e308 - (-1e308) overflows; the old min-max step gave a inf/inf = nan.
        entry = [("a", 1e308), ("m", 0.0), ("b", -1e308)]
        store = {item: frames_with_cosines(item, [0.5]) for item, _ in entry}
        out = rerank(entry, store, QUERY, w_new=0.6, w_old=0.4)
        assert [i for i, _ in out] == ["a", "m", "b"]
        assert [s for _, s in out] == pytest.approx([0.7, 0.5, 0.3], abs=1e-12)

    def test_item_set_preserved(self, rng):
        entry = [(f"i{j}", float(s)) for j, s in enumerate(np.sort(rng.uniform(0, 1, 6))[::-1])]
        store = {f"i{j}": FrameFeatures(f"i{j}", rng.normal(size=(2, 3))) for j in range(6)}
        out = rerank(entry, store, rng.normal(size=3))
        assert sorted(i for i, _ in out) == sorted(i for i, _ in entry)

    def test_missing_frames_rejected(self):
        entry, store = hand_case()
        del store["B"]
        with pytest.raises(ConfigError, match=r"^no frame features for items: \['B'\]$"):
            rerank(entry, store, QUERY)

    def test_idempotent_when_frame_scores_equal_normalized_originals(self):
        # Frame cosines equal the normalized original scores, so rescoring
        # any number of times yields the same ordering.
        entry = [("A", 1.0), ("B", 0.5), ("C", 0.0)]
        store = {
            "A": frames_with_cosines("A", [1.0]),
            "B": frames_with_cosines("B", [0.5]),
            "C": frames_with_cosines("C", [0.0]),
        }
        once = rerank(entry, store, QUERY)
        twice = rerank(once, store, QUERY)
        assert [i for i, _ in once] == [i for i, _ in twice] == ["A", "B", "C"]

    def test_raising_frame_score_never_lowers_rank(self, rng):
        entry = [(f"i{j}", float(s)) for j, s in enumerate(np.sort(rng.uniform(0, 1, 5))[::-1])]
        base_cos = [0.1, 0.3, 0.2, 0.4, 0.0]
        store = {f"i{j}": frames_with_cosines(f"i{j}", [base_cos[j]]) for j in range(5)}
        before = [i for i, _ in rerank(entry, store, QUERY)]
        store["i2"] = frames_with_cosines("i2", [0.95])
        after = [i for i, _ in rerank(entry, store, QUERY)]
        assert after.index("i2") <= before.index("i2")

    @pytest.mark.parametrize("bad", [-0.1, math.nan, math.inf, -math.inf])
    def test_weight_validation(self, bad):
        entry, store = hand_case()
        with pytest.raises(ValueError, match=f"weight {bad} is not finite"):
            rerank(entry, store, QUERY, w_new=bad, w_old=0.5)
        with pytest.raises(ValueError, match=f"weight {bad} is not finite"):
            rerank(entry, store, QUERY, w_new=0.4, w_old=bad)
        with pytest.raises(ValueError):
            rerank(entry, store, QUERY, w_new=0.0, w_old=0.0)
        with pytest.raises(ValueError, match=r"weights \[1e\+308, 1e\+308\] sum to inf"):
            rerank(entry, store, QUERY, w_new=1e308, w_old=1e308)

    def test_no_normalize_uses_raw_originals(self):
        entry, store = hand_case()
        out = rerank(entry, store, QUERY, w_new=0.0, w_old=1.0, normalize_original=False)
        assert dict(out)["A"] == pytest.approx(10.0)

    def test_empty_entry(self):
        assert rerank([], {}, QUERY) == []
