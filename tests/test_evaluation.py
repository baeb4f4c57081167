from itertools import chain

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import per_item_oracle as oracle

from avsearch.errors import FormatError, MetricError
from avsearch.evaluation import (
    INF_AP_EPS,
    JudgmentSet,
    RankedRun,
    average_precision,
    inf_ap,
    late_fuse,
    mean_metric,
    rank,
    rank_many,
    rank_scores,
    read_qrels,
    relevant_ranks,
    read_run,
    write_qrels,
    write_run,
)
from avsearch.fusion import FeatureBundle, similarity

from conftest import mutated, random_bundle, randomized_model, typed_outcome


def bruteforce_ap(entry, judgments):
    """Independent AP: enumerate ranks, count precision at every relevant hit."""
    relevant = {i for i, r in judgments.items() if r == 1}
    if not relevant:
        raise MetricError("no relevant")
    acc = 0.0
    for k in range(1, len(entry) + 1):
        item = entry[k - 1][0]
        if item in relevant:
            top_k_items = {e[0] for e in entry[:k]}
            acc += len(top_k_items & relevant) / k
    return acc / len(relevant)


def random_run_and_judgments(rng, n_items=None, judged_fraction=1.0):
    n = n_items or int(rng.integers(1, 21))
    items = [f"i{j}" for j in range(n)]
    scores = np.sort(rng.uniform(-1, 1, n))[::-1]
    entry = list(zip(items, scores.tolist()))
    labels = {}
    for item in items:
        if rng.random() < judged_fraction:
            labels[item] = int(rng.random() < 0.4)
    # A few judged items the run never retrieved.
    for j in range(int(rng.integers(0, 3))):
        labels[f"extra{j}"] = int(rng.random() < 0.5)
    return entry, labels


class TestRank:
    def test_corpus_of_one(self, rng):
        model = randomized_model({"a": 3}, {"t": 2}, d=4, heads=1, seed=0)
        corpus = [random_bundle("only", {"a": 3}, rng)]
        entry = rank(model, random_bundle("q", {"t": 2}, rng), corpus, top_k=5)
        assert [i for i, _ in entry] == ["only"]

    def test_full_depth_is_permutation(self, rng):
        model = randomized_model({"a": 3}, {"t": 2}, d=4, heads=2, seed=1)
        corpus = [random_bundle(f"v{i}", {"a": 3}, rng) for i in range(10)]
        entry = rank(model, random_bundle("q", {"t": 2}, rng), corpus, top_k=10)
        assert sorted(i for i, _ in entry) == sorted(b.item_id for b in corpus)

    def test_matches_bruteforce_similarity_sort(self, rng):
        model = randomized_model({"a": 4, "b": 2}, {"t": 3}, d=5, heads=2, seed=2)
        corpus = [random_bundle(f"v{i:02d}", {"a": 4, "b": 2}, rng) for i in range(50)]
        query = random_bundle("q", {"t": 3}, rng)
        entry = rank(model, query, corpus, top_k=50)
        sims = [(similarity(model, b, query), b.item_id) for b in corpus]
        expected = [i for s, i in sorted(sims, key=lambda si: (-si[0], si[1]))]
        assert [i for i, _ in entry] == expected
        for (item, score), (exp_s, exp_i) in zip(
            entry, sorted(sims, key=lambda si: (-si[0], si[1]))
        ):
            assert score == pytest.approx(exp_s, abs=1e-12)

    def test_truncation_and_errors(self, rng):
        model = randomized_model({"a": 3}, {"t": 2}, d=4, heads=1, seed=3)
        corpus = [random_bundle(f"v{i}", {"a": 3}, rng) for i in range(6)]
        q = random_bundle("q", {"t": 2}, rng)
        assert len(rank(model, q, corpus, top_k=3)) == 3
        with pytest.raises(ValueError, match="corpus"):
            rank(model, q, [], top_k=3)
        with pytest.raises(ValueError, match="top_k"):
            rank(model, q, corpus, top_k=0)

    def test_tie_break_by_item_id(self):
        # Identical corpus vectors give identical scores; order must be by id.
        model = randomized_model({"a": 3}, {"t": 2}, d=4, heads=1, seed=4)
        rng = np.random.default_rng(0)
        vec = rng.normal(size=3)
        corpus = [
            random_bundle("zz", {"a": 3}, rng),
        ]
        from avsearch.fusion import FeatureBundle

        corpus = [FeatureBundle("zz", {"a": vec}), FeatureBundle("aa", {"a": vec})]
        entry = rank(model, random_bundle("q", {"t": 2}, rng), corpus, top_k=2)
        assert [i for i, _ in entry] == ["aa", "zz"]


    def test_nan_feature_rejected_naming_query_and_item(self, rng):
        # Sorting would put the NaN last and drop "bad" from every list.
        model = randomized_model({"a": 3}, {"t": 2}, d=4, heads=2, seed=5)
        corpus = [random_bundle(f"v{i}", {"a": 3}, rng) for i in range(5)]
        corpus.insert(2, FeatureBundle("bad", {"a": np.array([0.1, np.nan, 0.3])}))
        queries = [random_bundle(f"q{i}", {"t": 2}, rng) for i in range(3)]
        with pytest.raises(FormatError, match=r"query 'q0': non-finite similarity nan at item 'bad'"):
            rank_many(model, queries, corpus, top_k=2)

    def test_infinite_score_rejected(self):
        sims = np.array([[0.1, 0.2, 0.3], [0.1, -np.inf, 0.3]])
        with pytest.raises(FormatError, match=r"query 'q1': non-finite similarity -inf at item 'b'"):
            rank_scores(sims, ["q0", "q1"], ["c", "b", "a"], top_k=3)


# Few distinct values, so rows tie often, -0.0 and 0.0 among them.
TIED_SCORES = st.sampled_from([-1.0, -0.25, -0.0, 0.0, 0.25, 1.0])
# Ids whose Python string order is not their length or column order.
ITEM_IDS = ["b", "a", "ab", "B", "a0", "aa", "10", "9"]


@st.composite
def tied_rankings(draw):
    """(sims, query ids, item ids, targets) with ties across ids, repeated
    query ids, and relevant ids that label no column."""
    n = draw(st.integers(1, len(ITEM_IDS)))
    m = draw(st.integers(1, 4))
    item_ids = draw(st.permutations(ITEM_IDS))[:n]
    sims = np.array(
        draw(st.lists(st.lists(TIED_SCORES, min_size=n, max_size=n), min_size=m, max_size=m))
    )
    query_ids = draw(st.lists(st.sampled_from(["q0", "q1"]), min_size=m, max_size=m))
    relevant = st.lists(st.sampled_from(item_ids + ["gone", "zz"]), unique=True)
    targets = draw(st.lists(st.tuples(st.integers(0, m - 1), relevant), max_size=6))
    return sims, query_ids, item_ids, targets


class TestRelevantRanks:
    @given(case=tied_rankings())
    def test_counted_ranks_are_positions_in_the_sorted_lists(self, case):
        assert relevant_ranks(*case) == oracle.relevant_ranks(*case)

    def test_constant_row_ranks_by_id(self):
        sims = np.array([[0.5, 0.5, 0.5, 0.5]])
        ranks = relevant_ranks(sims, ["q"], ["c", "a", "d", "b"], [(0, ["d", "a", "b"])])
        assert ranks == [[1, 2, 4]]

    def test_signed_zeros_tie(self):
        sims = np.array([[-0.0, 0.0, 0.0, -0.0]])
        ranks = relevant_ranks(sims, ["q"], ["d", "c", "b", "a"], [(0, ["d", "a"]), (0, ["b"])])
        assert ranks == [[1, 4], [2]]

    @pytest.mark.parametrize(
        "sims, item_ids",
        [
            (np.array([[0.1, np.nan, 0.3], [0.1, 0.2, -np.inf]]), ["c", "b", "a"]),
            (np.array([[0.1, 0.2, 0.3], [np.inf, 0.2, np.nan]]), ["c", "b", "a"]),
            (np.array([[0.1, 0.2, np.nan]]), ["a", "b", "a"]),
        ],
    )
    def test_errors_are_ranked_rows_errors(self, sims, item_ids):
        query_ids = [f"q{i}" for i in range(len(sims))]
        with pytest.raises((FormatError, ValueError)) as want:
            rank_scores(sims, query_ids, item_ids, len(item_ids))
        with pytest.raises(type(want.value)) as got:
            relevant_ranks(sims, query_ids, item_ids, [(0, ["a"])])
        assert str(got.value) == str(want.value)


class TestAveragePrecision:
    def test_single_relevant_at_rank_one(self):
        assert average_precision([("a", 1.0)], {"a": 1}) == 1.0

    def test_hand_case_ranks_one_and_three(self):
        entry = [("a", 0.9), ("b", 0.5), ("c", 0.3)]
        labels = {"a": 1, "b": 0, "c": 1}
        assert average_precision(entry, labels) == pytest.approx(5 / 6, abs=1e-12)
        assert average_precision(entry, labels) == pytest.approx(0.8333, abs=1e-4)

    def test_all_retrieved_irrelevant(self):
        entry = [("a", 0.9), ("b", 0.5)]
        assert average_precision(entry, {"a": 0, "b": 0, "missing": 1}) == 0.0

    def test_no_relevant_rejected(self):
        with pytest.raises(MetricError):
            average_precision([("a", 1.0)], {"a": 0})

    def test_matches_bruteforce_on_random_runs(self, rng):
        for _ in range(200):
            entry, labels = random_run_and_judgments(rng)
            if not any(r == 1 for r in labels.values()):
                continue
            assert average_precision(entry, labels) == bruteforce_ap(entry, labels)

    def test_bounded_and_append_monotone(self, rng):
        for _ in range(100):
            entry, labels = random_run_and_judgments(rng)
            labels["i0"] = 1
            ap1 = average_precision(entry, labels)
            assert 0.0 <= ap1 <= 1.0
            labels2 = dict(labels)
            labels2["tail"] = 0
            ap2 = average_precision(entry + [("tail", -2.0)], labels2)
            assert ap2 <= ap1 + 1e-15


class TestScanStopsAtLastRelevant:
    @staticmethod
    def entry(items):
        """The (item, score) pairs of items, then an error if read further."""
        def past_the_end():
            raise AssertionError("scanned past the last relevant item")
            yield
        return chain(((item, 1.0 - k / 10) for k, item in enumerate(items)), past_the_end())

    def test_average_precision(self):
        labels = {"r": 1, "s": 1, "b": 0}
        assert average_precision(self.entry(["a", "r", "b", "s"]), labels) == (1 / 2 + 2 / 4) / 2

    def test_inf_ap(self):
        labels = {"r": 1, "s": 1, "b": 0}
        want = oracle.inf_ap([(i, 0.0) for i in ["a", "r", "b", "s", "t"]], labels)
        assert inf_ap(self.entry(["a", "r", "b", "s"]), labels) == want

    @pytest.mark.parametrize("judged_fraction", [1.0, 0.5])
    def test_bit_identical_to_the_full_scan(self, rng, judged_fraction):
        for _ in range(300):
            entry, labels = random_run_and_judgments(rng, judged_fraction=judged_fraction)
            if not any(r == 1 for r in labels.values()):
                continue
            for metric, full_scan in ((average_precision, oracle.average_precision),
                                      (inf_ap, oracle.inf_ap)):
                assert metric(entry, labels).hex() == full_scan(entry, labels).hex()


class TestInfAp:
    def test_complete_pool_matches_ap(self, rng):
        for _ in range(200):
            entry, labels = random_run_and_judgments(rng, judged_fraction=1.0)
            if not any(r == 1 for r in labels.values()):
                continue
            ap = average_precision(entry, labels)
            iap = inf_ap(entry, labels)
            assert iap == pytest.approx(ap, abs=1e-3)

    def test_relevant_at_rank_one_only(self):
        assert inf_ap([("a", 1.0), ("b", 0.5)], {"a": 1}) == 1.0

    def test_hand_estimator_case(self):
        # Relevant at rank 3; above it one judged-relevant and one unjudged.
        entry = [("r1", 0.9), ("u", 0.5), ("r2", 0.3)]
        labels = {"r1": 1, "r2": 1}
        expected_p_at_3 = 1 / 3 + (2 / 3) * (1 / 2) * (
            (1 + INF_AP_EPS) / (1 + 2 * INF_AP_EPS)
        )
        # Total: rank-1 term is exactly 1, rank-3 term is the estimator; R_s=2.
        expected = (1.0 + expected_p_at_3) / 2
        assert expected_p_at_3 == pytest.approx(0.6667, abs=1e-4)
        assert inf_ap(entry, labels) == pytest.approx(expected, abs=1e-12)

    def test_no_judged_relevant_rejected(self):
        with pytest.raises(MetricError):
            inf_ap([("a", 1.0)], {"a": 0})

    def test_unjudged_items_do_not_count_as_judged(self):
        # Two unjudged above a relevant at rank 3: d = 0, so the estimator
        # only keeps the 1/k floor.
        entry = [("u1", 0.9), ("u2", 0.5), ("r", 0.3)]
        assert inf_ap(entry, {"r": 1}) == pytest.approx(1 / 3, abs=1e-12)


class TestMeanMetric:
    def test_mean_over_judged_queries(self):
        run = RankedRun(
            {"q1": [("a", 1.0)], "q2": [("b", 1.0), ("a", 0.5)], "q9": [("z", 1.0)]},
            "t",
        )
        js = JudgmentSet({"q1": {"a": 1}, "q2": {"a": 1, "b": 0}})
        mean, per = mean_metric(run, js, average_precision)
        assert per == {"q1": 1.0, "q2": 0.5}
        assert mean == pytest.approx(0.75)

    def test_no_overlap_rejected(self):
        run = RankedRun({"q1": [("a", 1.0)]}, "t")
        with pytest.raises(MetricError):
            mean_metric(run, JudgmentSet({"other": {"a": 1}}), average_precision)


class TestLateFuse:
    def test_identical_runs_keep_ordering(self):
        entries = {"q": [("a", 0.9), ("b", 0.5), ("c", 0.1)]}
        r1 = RankedRun(dict(entries), "r1")
        r2 = RankedRun(dict(entries), "r2")
        fused = late_fuse([r1, r2], [0.5, 0.5])
        assert [i for i, _ in fused.entries["q"]] == ["a", "b", "c"]

    def test_zero_weight_run_ignored(self):
        r1 = RankedRun({"q": [("a", 0.9), ("b", 0.5), ("c", 0.1)]}, "r1")
        r2 = RankedRun({"q": [("c", 0.9), ("b", 0.5), ("a", 0.1)]}, "r2")
        fused = late_fuse([r1, r2], [1.0, 0.0])
        assert [i for i, _ in fused.entries["q"]] == ["a", "b", "c"]

    def test_hand_computed_fusion(self):
        # Run 1 scores (q): a=4, b=2, c=0 -> normalized 1, .5, 0
        # Run 2 scores (q): b=9, c=6, a=3 -> normalized 1, .5, 0
        # weights (0.6, 0.4): a = .6*1+.4*0 = .6; b = .6*.5+.4*1 = .7; c = .4*.5 = .2
        r1 = RankedRun({"q": [("a", 4.0), ("b", 2.0), ("c", 0.0)]}, "r1")
        r2 = RankedRun({"q": [("b", 9.0), ("c", 6.0), ("a", 3.0)]}, "r2")
        fused = late_fuse([r1, r2], [0.6, 0.4])
        assert fused.entries["q"][0] == ("b", pytest.approx(0.7))
        assert fused.entries["q"][1] == ("a", pytest.approx(0.6))
        assert fused.entries["q"][2] == ("c", pytest.approx(0.2))

    def test_missing_items_get_minimum(self):
        r1 = RankedRun({"q": [("a", 1.0), ("b", 0.0)]}, "r1")
        r2 = RankedRun({"q": [("c", 1.0), ("b", 0.0)]}, "r2")
        fused = late_fuse([r1, r2], [1.0, 1.0])
        scores = dict(fused.entries["q"])
        # a: 1 + fill(0) = 1; c: fill(0) + 1 = 1; b: 0 + 0 = 0
        assert scores["a"] == pytest.approx(1.0)
        assert scores["c"] == pytest.approx(1.0)
        assert scores["b"] == pytest.approx(0.0)

    def test_single_run_identity_ordering(self, rng):
        entry = [(f"i{j}", float(s)) for j, s in enumerate(np.sort(rng.uniform(0, 1, 8))[::-1])]
        run = RankedRun({"q": entry}, "r")
        fused = late_fuse([run], [1.0])
        assert [i for i, _ in fused.entries["q"]] == [i for i, _ in entry]

    def test_query_mismatch_rejected(self):
        r1 = RankedRun({"q1": [("a", 1.0)]}, "r1")
        r2 = RankedRun({"q2": [("a", 1.0)]}, "r2")
        with pytest.raises(ValueError, match="query"):
            late_fuse([r1, r2], [0.5, 0.5])

    def test_weight_validation(self):
        r = RankedRun({"q": [("a", 1.0)]}, "r")
        with pytest.raises(ValueError):
            late_fuse([r], [-1.0])
        with pytest.raises(ValueError):
            late_fuse([r], [0.0])
        with pytest.raises(ValueError):
            late_fuse([r, r], [1.0])


class TestRunFiles:
    def test_roundtrip_byte_identical(self, tmp_path):
        run = RankedRun(
            {"q2": [("b", 0.75), ("a", 0.5)], "q1": [("c", 1.0)]},
            "mytag",
        )
        p1 = tmp_path / "run1.txt"
        p2 = tmp_path / "run2.txt"
        write_run(p1, run)
        write_run(p2, read_run(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_failed_write_keeps_the_old_file(self, tmp_path):
        p = tmp_path / "run.txt"
        p.write_text("old run\n")
        run = RankedRun({"q1": [("a", 0.5)]}, "t")
        run.entries["q2"] = [("b", object())]  # fails to format after q1's line
        with pytest.raises(TypeError):
            write_run(p, run)
        assert p.read_text() == "old run\n"
        assert [f.name for f in tmp_path.iterdir()] == ["run.txt"]

    def test_failed_write_leaves_no_file(self, tmp_path):
        run = RankedRun({"q1": [("a", 0.5)]}, "t")
        run.entries["q2"] = [("b", object())]
        with pytest.raises(TypeError):
            write_run(tmp_path / "run.txt", run)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "run, named",
        [
            (RankedRun({"q1": [("a", 0.5), ("b 1", 0.4)]}, "t"), "item id 'b 1'"),
            (RankedRun({"q1": [("a", 0.5)], "q2": [("a\tb", 0.4)]}, "t"), "item id 'a\\tb'"),
            (RankedRun({"q1": [("", 0.5)]}, "t"), "item id ''"),
            (RankedRun({"q 1": [("a", 0.5)]}, "t"), "query id 'q 1'"),
            (RankedRun({"": [("a", 0.5)]}, "t"), "query id ''"),
            (RankedRun({"q1": [("a", 0.5)]}, "a b"), "run tag 'a b'"),
            (RankedRun({"q1": [("a", 0.5)]}, ""), "run tag ''"),
        ],
    )
    def test_ids_that_would_not_read_back_rejected(self, tmp_path, run, named):
        p = tmp_path / "run.txt"
        p.write_text("old run\n")
        with pytest.raises(FormatError) as exc:
            write_run(p, run)
        assert named in str(exc.value)
        assert p.read_text() == "old run\n"
        assert [f.name for f in tmp_path.iterdir()] == ["run.txt"]

    def test_five_field_line_rejected_with_lineno(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("q1 Q0 a 1 0.500000 t\nq1 Q0 b 2 0.400000\n")
        with pytest.raises(FormatError, match=r"bad\.txt:2"):
            read_run(p)

    def test_score_six_decimals(self, tmp_path):
        run = RankedRun({"q": [("a", 0.123456789), ("b", -0.987654321)]}, "t")
        p = tmp_path / "run.txt"
        write_run(p, run)
        text = p.read_text()
        assert "0.123457" in text and "-0.987654" in text
        reread = read_run(p)
        for (i1, s1), (i2, s2) in zip(run.entries["q"], reread.entries["q"]):
            assert i1 == i2
            assert abs(s1 - s2) <= 1e-6

    def test_rank_sequence_enforced(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("q1 Q0 a 1 0.500000 t\nq1 Q0 b 3 0.400000 t\n")
        with pytest.raises(FormatError, match="rank 3, expected 2"):
            read_run(p)

    def test_q0_and_tag_enforced(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("q1 X0 a 1 0.500000 t\n")
        with pytest.raises(FormatError, match="Q0"):
            read_run(p)
        p.write_text("q1 Q0 a 1 0.500000 t\nq2 Q0 a 1 0.400000 other\n")
        with pytest.raises(FormatError, match="tag"):
            read_run(p)

    def test_non_contiguous_query_rejected(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text(
            "q1 Q0 a 1 0.500000 t\nq2 Q0 a 1 0.400000 t\nq1 Q0 b 2 0.300000 t\n"
        )
        with pytest.raises(FormatError, match="reappears"):
            read_run(p)

    def test_increasing_scores_rejected(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("q1 Q0 a 1 0.100000 t\nq1 Q0 b 2 0.900000 t\n")
        with pytest.raises(FormatError):
            read_run(p)

    @pytest.mark.parametrize(
        "text, where, named",
        [
            ("q1 Q0 a 1 0.5 t\nq1 Q0  2 0.4 t\n", 2, "item id ''"),
            ("q1 Q0 a 1 0.5 t\nq1 Q0 b\tc 2 0.4 t\n", 2, "item id 'b\\tc'"),
            ("q1 Q0 a\u00a0 1 0.5 t\n", 1, "item id 'a\\xa0'"),
            ("q1 Q0 a 1 0.5 t\n Q0 a 1 0.4 t\n", 2, "query id ''"),
            ("q1 Q0 a 1 0.5 t\nq\t2 Q0 a 1 0.4 t\n", 2, "query id 'q\\t2'"),
            ("q1 Q0 a 1 0.5 t\u00a0x\n", 1, "run tag 't\\xa0x'"),
            ("q1 Q0 a 1 0.5 \n", 1, "run tag ''"),
        ],
    )
    def test_ids_the_writer_refuses_rejected_at_line(self, tmp_path, text, where, named):
        p = tmp_path / "bad.txt"
        p.write_text(text, encoding="utf-8")
        with pytest.raises(FormatError) as exc:
            read_run(p)
        assert str(exc.value) == f"{p}:{where}: {named} is empty or contains whitespace"


class TestQrelsFiles:
    def test_roundtrip_with_flags(self, tmp_path):
        js = JudgmentSet({"q1": {"a": 1, "b": 0}, "q2": {"c": 1}}, complete=False)
        p = tmp_path / "qrels.txt"
        write_qrels(p, js)
        reread = read_qrels(p)
        assert reread.complete is False
        assert reread.judgments == js.judgments
        assert p.read_text().startswith("#sampled\n")

    def test_default_complete_without_header(self, tmp_path):
        p = tmp_path / "qrels.txt"
        p.write_text("q1 0 a 1\n")
        assert read_qrels(p).complete is True

    def test_bad_relevance_rejected(self, tmp_path):
        p = tmp_path / "qrels.txt"
        p.write_text("q1 0 a 2\n")
        with pytest.raises(FormatError, match=r"qrels\.txt:1"):
            read_qrels(p)

    def test_bad_field_count_rejected(self, tmp_path):
        p = tmp_path / "qrels.txt"
        p.write_text("q1 0 a\n")
        with pytest.raises(FormatError, match="4"):
            read_qrels(p)

    def test_header_only_on_line_one(self, tmp_path):
        p = tmp_path / "qrels.txt"
        p.write_text("q1 0 a 1\n#sampled\n")
        with pytest.raises(FormatError, match=r"qrels\.txt:2: expected 4"):
            read_qrels(p)

    @pytest.mark.parametrize(
        "judgments, named",
        [
            ({"q1": {"a": 1}, "q2": {"b c": 0}}, "item id 'b c'"),
            ({"q1": {"a\n": 1}}, "item id 'a\\n'"),
            ({"q\t1": {"a": 1}}, "query id 'q\\t1'"),
            ({"": {"a": 1}}, "query id ''"),
        ],
    )
    def test_ids_that_would_not_read_back_rejected(self, tmp_path, judgments, named):
        p = tmp_path / "qrels.txt"
        p.write_text("old qrels\n")
        with pytest.raises(FormatError) as exc:
            write_qrels(p, JudgmentSet(judgments))
        assert named in str(exc.value)
        assert p.read_text() == "old qrels\n"
        assert [f.name for f in tmp_path.iterdir()] == ["qrels.txt"]

    @pytest.mark.parametrize(
        "text, where, named",
        [
            ("q1 0 a 1\nq1 0  0\n", 2, "item id ''"),
            ("#sampled\nq1 0 a\u00a0b 1\n", 2, "item id 'a\\xa0b'"),
            (" 0 a 1\n", 1, "query id ''"),
            ("q1 0 a 1\nq\t2 0 a 1\n", 2, "query id 'q\\t2'"),
        ],
    )
    def test_ids_the_writer_refuses_rejected_at_line(self, tmp_path, text, where, named):
        p = tmp_path / "qrels.txt"
        p.write_text(text, encoding="utf-8")
        with pytest.raises(FormatError) as exc:
            read_qrels(p)
        assert str(exc.value) == f"{p}:{where}: {named} is empty or contains whitespace"


class TestRankedRunInvariants:
    def test_duplicate_item_rejected(self):
        with pytest.raises(FormatError, match="duplicate"):
            RankedRun({"q": [("a", 1.0), ("a", 0.5)]}, "t")

    def test_increasing_scores_rejected(self):
        with pytest.raises(FormatError, match="increase"):
            RankedRun({"q": [("a", 0.1), ("b", 0.9)]}, "t")

    @pytest.mark.parametrize(
        "entry",
        [
            # NaN compares false both ways, so the non-increasing check alone
            # lets [0.5, nan, 0.9] through.
            [("a", 0.5), ("b", float("nan")), ("c", 0.9)],
            [("b", float("inf")), ("c", 0.5)],
            [("a", 0.5), ("b", float("-inf"))],
        ],
    )
    def test_non_finite_score_rejected(self, entry):
        with pytest.raises(FormatError, match=r"query 'q': non-finite .* item 'b'"):
            RankedRun({"q": entry}, "t")

    def test_nan_score_line_rejected_with_path(self, tmp_path):
        p = tmp_path / "nan.txt"
        p.write_text("q1 Q0 a 1 0.500000 t\nq1 Q0 b 2 nan t\nq1 Q0 c 3 0.900000 t\n")
        with pytest.raises(FormatError, match=r"nan\.txt: .*non-finite.*'b'"):
            read_run(p)


# Ids of one to three letters, some shared between queries.
IDS = st.text("abQ0", min_size=1, max_size=3)


@st.composite
def run_files(draw) -> tuple[bytes, RankedRun]:
    """The bytes of a valid run file, and the run it holds."""
    queries = draw(st.lists(IDS, min_size=1, max_size=3, unique=True))
    entries = {}
    for qid in queries:
        items = draw(st.lists(IDS, min_size=1, max_size=4, unique=True))
        micros = st.lists(st.integers(-10**6, 10**6), min_size=len(items), max_size=len(items))
        scores = sorted(draw(micros), reverse=True)
        entries[qid] = [(item, score / 1e6) for item, score in zip(items, scores)]
    lines = [
        f"{qid} Q0 {item} {rank} {score:.6f} t\n"
        for qid, entry in entries.items()
        for rank, (item, score) in enumerate(entry, start=1)
    ]
    return "".join(lines).encode(), RankedRun(entries, "t")


@st.composite
def qrels_files(draw) -> tuple[bytes, JudgmentSet]:
    """The bytes of a valid qrels file, and the judgments it holds."""
    judgments = draw(st.dictionaries(IDS, st.dictionaries(IDS, st.integers(0, 1), min_size=1), max_size=3))
    header = draw(st.sampled_from(["", "#complete\n", "#sampled\n"]))
    lines = [f"{qid} 0 {item} {rel}\n" for qid, labels in judgments.items() for item, rel in labels.items()]
    return (header + "".join(lines)).encode(), JudgmentSet(judgments, header != "#sampled\n")


class TestTextReaderFuzzing:
    @pytest.mark.parametrize("read", [read_run, read_qrels])
    @given(raw=st.binary(max_size=200))
    def test_arbitrary_bytes(self, tmp_path_factory, read, raw):
        p = tmp_path_factory.getbasetemp() / "fuzz_arbitrary.txt"
        p.write_bytes(raw)
        typed_outcome(read, p)

    @given(data=run_files())
    def test_valid_run_files_read_back(self, tmp_path_factory, data):
        raw, run = data
        p = tmp_path_factory.getbasetemp() / "fuzz_valid.run"
        p.write_bytes(raw)
        assert read_run(p) == run

    @given(data=qrels_files())
    def test_valid_qrels_files_read_back(self, tmp_path_factory, data):
        raw, judgments = data
        p = tmp_path_factory.getbasetemp() / "fuzz_valid.qrels"
        p.write_bytes(raw)
        assert read_qrels(p) == judgments

    @given(raw=mutated(run_files()))
    def test_mutated_run_files(self, tmp_path_factory, raw):
        p = tmp_path_factory.getbasetemp() / "fuzz_mutated.run"
        p.write_bytes(raw)
        typed_outcome(read_run, p)

    @given(raw=mutated(qrels_files()))
    def test_mutated_qrels_files(self, tmp_path_factory, raw):
        p = tmp_path_factory.getbasetemp() / "fuzz_mutated.qrels"
        p.write_bytes(raw)
        typed_outcome(read_qrels, p)


class TestReadRunInterning:
    def test_a_shared_item_is_one_object(self, tmp_path):
        p = tmp_path / "run.txt"
        p.write_text("q1 Q0 video12 1 0.5 t\nq1 Q0 b 2 0.4 t\nq2 Q0 video12 1 0.9 t\n")
        run = read_run(p)
        assert run.entries == {"q1": [("video12", 0.5), ("b", 0.4)], "q2": [("video12", 0.9)]}
        assert run.entries["q1"][0][0] is run.entries["q2"][0][0]
