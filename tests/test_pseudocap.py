import numpy as np
import pytest

from avsearch.errors import FormatError
from avsearch.pseudocap import (
    CandidateSet,
    CaptionCandidate,
    kept_candidates,
    normalize_caption,
    read_candidates,
    select_pseudo_captions,
    write_selection,
)


def bruteforce_select(cands, score, k):
    """Independent oracle: dedupe by normalized text keeping the lowest frame
    index, then sort by (-score, frame) and take k."""
    best = {}
    for c in cands.candidates:
        key = normalize_caption(c.text)
        if key not in best or c.frame_index < best[key].frame_index:
            best[key] = c
    ranked = sorted(best.values(), key=lambda c: (-score(c.text), c.frame_index))
    return [(c.text, score(c.text)) for c in ranked[:k]]


def make_set(rows):
    return CandidateSet("v", [CaptionCandidate(f, t) for f, t in rows])


class TestSelect:
    def test_identical_captions_collapse(self):
        cs = make_set([(i, "a dog runs") for i in range(5)])
        out = select_pseudo_captions(cs, lambda t: 0.7, k=3)
        assert out == [("a dog runs", 0.7)]

    def test_truncation_floor(self):
        cs = make_set([(0, "one"), (1, "two")])
        out = select_pseudo_captions(cs, lambda t: float(len(t)), k=3)
        assert len(out) == 2

    def test_matches_bruteforce_sort_take_three(self):
        rng = np.random.default_rng(7)
        texts = [f"caption number {i}" for i in range(6)]
        scores = {t: float(rng.uniform()) for t in texts}
        cs = make_set(list(enumerate(texts)))
        out = select_pseudo_captions(cs, lambda t: scores[t], k=3)
        assert out == bruteforce_select(cs, lambda t: scores[t], 3)

    def test_dedup_keeps_earliest_frame(self):
        cs = make_set([(4, "A  Dog runs"), (1, "a dog RUNS"), (9, "other")])
        seen = []

        def score(text):
            seen.append(text)
            return 1.0 if "dog" in text.lower() else 0.5

        out = select_pseudo_captions(cs, score, k=2)
        assert out[0][0] == "a dog RUNS"  # frame 1 instance kept verbatim
        assert out[1][0] == "other"

    def test_score_ties_resolved_by_frame_index(self):
        cs = make_set([(5, "bb"), (2, "aa"), (7, "cc")])
        out = select_pseudo_captions(cs, lambda t: 1.0, k=3)
        assert [t for t, _ in out] == ["aa", "bb", "cc"]

    def test_prefix_property(self):
        rng = np.random.default_rng(11)
        cs = make_set([(i, f"text {i}") for i in range(8)])
        scores = {f"text {i}": float(rng.uniform()) for i in range(8)}
        by_k = [select_pseudo_captions(cs, lambda t: scores[t], k=k) for k in range(1, 6)]
        for smaller, larger in zip(by_k, by_k[1:]):
            assert larger[: len(smaller)] == smaller

    def test_permutation_only_changes_nothing(self):
        rng = np.random.default_rng(13)
        rows = [(i, f"text {i}") for i in range(10)]
        scores = {f"text {i}": float(rng.uniform()) for i in range(10)}
        base = select_pseudo_captions(make_set(rows), lambda t: scores[t], k=4)
        for seed in range(5):
            shuffled = list(rows)
            np.random.default_rng(seed).shuffle(shuffled)
            out = select_pseudo_captions(make_set(shuffled), lambda t: scores[t], k=4)
            assert out == base

    def test_output_invariants(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            n = int(rng.integers(1, 12))
            rows = [(int(rng.integers(0, 20)), f"t{int(rng.integers(0, 6))}") for _ in range(n)]
            cs = make_set(rows)
            out = select_pseudo_captions(cs, lambda t: float(rng.uniform()), k=3)
            texts = [normalize_caption(t) for t, _ in out]
            assert len(texts) == len(set(texts))
            assert len(out) <= 3
            assert all(a >= b for (_, a), (_, b) in zip(out, out[1:]))

    def test_kept_candidates_lowest_frame_first_seen_order(self):
        cs = make_set([(4, "A  Dog"), (3, "cat"), (1, "a dog"), (3, "CAT"), (0, "bird")])
        kept = kept_candidates(cs)
        assert [(c.frame_index, c.text) for c in kept] == [(1, "a dog"), (3, "cat"), (0, "bird")]

    def test_non_finite_score_rejected(self):
        # Sorting a NaN key misorders the rest: 0.9 would rank third.
        cs = make_set([(0, "a"), (1, "b"), (2, "c"), (3, "d")])
        scores = {"a": 0.2, "b": float("nan"), "c": 0.9, "d": 0.5}
        with pytest.raises(FormatError, match="v#1"):
            select_pseudo_captions(cs, scores.__getitem__, k=3)
        scores["b"] = float("-inf")
        with pytest.raises(FormatError, match="v#1"):
            select_pseudo_captions(cs, scores.__getitem__, k=3)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            CandidateSet("v", [])
        cs = make_set([(0, "x")])
        with pytest.raises(ValueError):
            select_pseudo_captions(cs, lambda t: 0.0, k=0)


class TestManifestIO:
    def test_read_groups_by_video(self, tmp_path):
        p = tmp_path / "cands.tsv"
        p.write_text("v1\t0\ta dog\nv2\t0\ta cat\nv1\t3\tanother dog\n")
        sets = read_candidates(p)
        assert [s.video_id for s in sets] == ["v1", "v2"]
        assert [c.frame_index for c in sets[0].candidates] == [0, 3]

    def test_bad_field_count(self, tmp_path):
        p = tmp_path / "cands.tsv"
        p.write_text("v1\t0\n")
        with pytest.raises(FormatError, match=r"cands\.tsv:1"):
            read_candidates(p)

    def test_bad_frame_index(self, tmp_path):
        p = tmp_path / "cands.tsv"
        p.write_text("v1\tzero\tcap\n")
        with pytest.raises(FormatError, match="integer"):
            read_candidates(p)

    def test_write_selection_format(self, tmp_path):
        p = tmp_path / "out.tsv"
        write_selection(p, {"v1": [("best cap", 0.91), ("next", 0.5)]})
        lines = p.read_text().splitlines()
        assert lines[0] == "v1\t1\t0.910000\tbest cap"
        assert lines[1] == "v1\t2\t0.500000\tnext"
