"""The run writer (`write_rows`) and search's streamed run, against the
per-line f-string writer and per-query Python sort of `per_item_oracle`."""

import hashlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import per_item_oracle as oracle
from per_item_oracle import batched_rank_scores as rank_scores
from avsearch import evaluation
from avsearch.cli import main
from avsearch.errors import FormatError
from avsearch.evaluation import (
    RankedRun,
    rank_many,
    rank_rows,
    ranked_rows,
    similarity_matrix,
    write_rows,
    write_run,
)
from avsearch.featio import checkpoint_save, write_features
from avsearch.fusion import FeatureBundle

from conftest import random_bundle, randomized_model


def run_cli(*argv):
    return main([str(a) for a in argv])


def outcome(write, path, *args):
    """The bytes a writer leaves at `path` (None for no file), and its error
    with `path` written as PATH."""
    try:
        write(path, *args)
        error = None
    except FormatError as exc:
        error = str(exc).replace(str(path), "PATH")
    return (path.read_bytes() if path.exists() else None), error


# Ids that a `%` template would misread if they were part of it, ids outside
# ASCII, and ids that `check_tokens` refuses, so that the errors compare too.
# Every character str.split() splits on is in Cc, Zs, Zl or Zp; surrogates
# (Cs) do not encode as UTF-8.
UNWRITABLE = ("Cs", "Cc", "Zs", "Zl", "Zp")
valid_ids = st.one_of(
    st.sampled_from(["%", "%%", "%s", "%(x)s", "%.6f", "{}", "{0}", "é", "日本"]),
    st.text(st.characters(blacklist_categories=UNWRITABLE), min_size=1, max_size=4),
)
any_ids = st.one_of(valid_ids, st.sampled_from(["", "a b", "a\xa0b", "x\ty", "\n"]))
# Python floats, NumPy float64 and ints, with signed zeros, huge values and
# halves of the sixth decimal (k / 128 is exact in binary, so 0.0078125
# rounds to even at %.6f).
scores = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
    st.integers(-(10**20), 10**20),
    st.integers(-4000, 4000).map(lambda k: k / 128),
    st.sampled_from([0.0, -0.0, np.float64(-0.0), 1e300, -1e300, 0.0078125, 5e-7, True]),
)


@st.composite
def runs(draw, ids=valid_ids) -> RankedRun:
    entries = {}
    for qid in draw(st.lists(ids, max_size=4, unique=True)):
        items = draw(st.lists(ids, max_size=8, unique=True))
        drawn = draw(st.lists(scores, min_size=len(items), max_size=len(items)))
        # Sorted by exact value: float() would tie an int with the float it
        # rounds to, and RankedRun then sees the larger int as an increase.
        entries[qid] = list(zip(items, sorted(drawn, key=Fraction, reverse=True)))
    return RankedRun(entries, draw(ids))


class TestWriterMatchesThePerLineOracle:
    @given(run=runs())
    def test_same_bytes(self, tmp_path_factory, run):
        base = tmp_path_factory.mktemp("w")
        write_run(base / "got.run", run)
        oracle.write_run(base / "want.run", run)
        assert (base / "got.run").read_bytes() == (base / "want.run").read_bytes()

    @given(run=runs(any_ids))
    def test_same_bytes_or_same_error(self, tmp_path_factory, run):
        base = tmp_path_factory.mktemp("w")
        got = outcome(write_run, base / "got.run", run)
        want = outcome(oracle.write_run, base / "want.run", run)
        assert got == want
        assert sorted(f.name for f in base.iterdir()) == (
            [] if want[0] is None else ["got.run", "want.run"]
        )

    def test_hand_case(self, tmp_path):
        run = RankedRun(
            {"%s": [("%%", 1e300), ("é", 0.0078125), ("{}", np.float64(-0.0)), ("x", -3)],
             "empty": [], "q2": [("%s", 0.5)]},
            "t%d",
        )
        p = tmp_path / "r.run"
        write_run(p, run)
        assert p.read_text(encoding="utf-8") == (
            f"%s Q0 %% 1 {1e300:.6f} t%d\n"
            "%s Q0 é 2 0.007812 t%d\n"
            "%s Q0 {} 3 -0.000000 t%d\n"
            "%s Q0 x 4 -3.000000 t%d\n"
            "q2 Q0 %s 1 0.500000 t%d\n"
        )

    def test_rows_longer_than_any_before(self, tmp_path):
        # The per-rank fields are cached and extended as longer rows come.
        run = RankedRun({f"q{n}": [(f"i{k}", -k) for k in range(n)] for n in (2, 5, 1, 9)}, "t")
        got, want = tmp_path / "got.run", tmp_path / "want.run"
        write_run(got, run)
        oracle.write_run(want, run)
        assert got.read_bytes() == want.read_bytes()

    def test_rows_that_fail_keep_the_old_file(self, tmp_path):
        p = tmp_path / "r.run"
        p.write_text("old run\n")

        def rows():
            yield "q1", [0], [0.5]
            raise FormatError("late failure")

        with pytest.raises(FormatError, match="late failure"):
            write_rows(p, ["a"], rows(), "t")
        assert p.read_text() == "old run\n"
        assert [f.name for f in tmp_path.iterdir()] == ["r.run"]


def near(x, ulps=4):
    """x and the floats within ulps steps of it on either side."""
    out = [x]
    up = down = x
    for _ in range(ulps):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        out += [float(up), float(down)]
    return out


# Scores where the digits of rint(score * 1e6) and %.6f could part: the
# largest score the digits print (9.9999995 rounds up to 10.000000), halves
# of the sixth decimal that binary holds exactly, products within a few 1e-9
# of a half, signed zeros, negatives that print -0.000000, subnormals, huge
# values and NumPy and Python ints.
EDGE_SCORES = (
    near(9.9999995) + near(-9.9999995) + near(0.0000005) + near(-0.0000005)
    + [sign * k / 128 for k in range(1, 1281, 3) for sign in (1, -1)]
    + [(k + 0.5 + delta) / 1e6 for k in (0, 7, 123456, 9999998)
       for delta in (-1e-8, -4.5e-9, -4e-9, -3e-9, 0.0, 3e-9, 4e-9, 4.5e-9, 1e-8)]
    + [0.0, -0.0, np.float64(-0.0), -1e-7, -4.99e-7, -1e-300, 5e-324, -5e-324, 2.2e-308]
    + [1e300, -1e300, 1e7, 12.3456785, np.int64(7), np.int64(-3), 10**20, -(10**20) + 1, True, 3]
)


def as_rows(run: RankedRun, unlisted=()):
    """The (ids, rows) of run as `ranked_rows` gives them: positions into a
    shuffled id list that also holds the unlisted ids, and float64 scores."""
    listed = list(dict.fromkeys(item for entry in run.entries.values() for item, _ in entry))
    ids = listed + list(unlisted)
    ids = [ids[i] for i in np.random.default_rng(len(ids)).permutation(len(ids))]
    at = {item: p for p, item in enumerate(ids)}
    rows = [
        (qid, np.array([at[item] for item, _ in entry], dtype=np.intp),
         np.array([score for _, score in entry], dtype=np.float64))
        for qid, entry in run.entries.items()
    ]
    return ids, rows


class TestRowsMatchThePerLineOracle:
    """write_rows on `ranked_rows`' rows (positions, float64 scores) against
    the per-line f-string writer on the same run."""

    def assert_same(self, tmp_path, run, unlisted=()):
        got = outcome(write_rows, tmp_path / "got.run", *as_rows(run, unlisted), run.run_tag)
        want = outcome(oracle.write_run, tmp_path / "want.run", run)
        assert got == want
        return got

    @pytest.mark.parametrize("query", range(8))
    def test_edge_scores(self, tmp_path, query):
        # One query per score, so the scores need not be in order.
        scores = EDGE_SCORES[query::8]
        run = RankedRun({f"q{i}": [("v", s)] for i, s in enumerate(scores)}, "t")
        data, error = self.assert_same(tmp_path, run)
        assert error is None and len(data.splitlines()) == len(scores)

    def test_scores_near_halves_of_the_sixth_decimal(self, tmp_path):
        rng = np.random.default_rng(7)
        # Half of the scores are fl((k + 0.5) / 1e6), whose product with 1e6
        # is mostly the half-integer itself: there rint's ties to even and
        # %.6f's exact value can part.
        k = rng.integers(-9_999_999, 9_999_999, 4000)
        delta = np.where(rng.random(k.size) < 0.5, 0.0, rng.uniform(-2e-8, 2e-8, k.size))
        scores = sorted(((k + 0.5 + delta) / 1e6).tolist(), reverse=True)
        run = RankedRun({"q": [(f"v{i}", s) for i, s in enumerate(scores)]}, "t")
        assert self.assert_same(tmp_path, run)[1] is None

    def test_ids_that_a_template_or_padding_could_misread(self, tmp_path):
        ids = ["%s", "%%", "%(x)s", "{}", "é", "日本", "𝒳", "a\x00b", "\x00", "x" * 300]
        run = RankedRun(
            {"запрос": [(item, 1.0 - i / 8) for i, item in enumerate(ids)],
             "q\x00": [(item, 0.5) for item in reversed(ids)], "empty": []},
            "τag",
        )
        data, error = self.assert_same(tmp_path, run)
        assert error is None and "a\x00b".encode() in data

    def test_an_unlisted_id_with_whitespace_is_not_checked(self, tmp_path):
        run = RankedRun({"q": [("a", 0.5), ("b", 0.25)]}, "t")
        assert self.assert_same(tmp_path, run, unlisted=["not listed", "", "x\ty"])[1] is None

    @pytest.mark.parametrize(
        "tag, qid, item, named",
        [("a b", "q r", "v w", "run tag"), ("t", "q r", "v w", "query id"),
         ("t", "q", "v w", "item id"), ("t\t", "q", "v", "run tag"),
         ("t", "q\t", "v", "query id"), ("t", "q", "v\t", "item id")],
    )
    def test_checks_in_order_with_their_messages(self, tmp_path, tag, qid, item, named):
        run = RankedRun({qid: [(item, 0.5)], "q2": []}, tag)
        data, error = self.assert_same(tmp_path, run)
        assert data is None and f": {named} " in error
        assert sorted(f.name for f in tmp_path.iterdir()) == []


def tied_scores(rng, m, n):
    """Scores on a 0.1 grid, so every row has long runs of exact ties."""
    return np.round(rng.uniform(-1.0, 1.0, (m, n)), 1)


def signed_zeros(rng, m, n):
    sims = np.where(rng.random((m, n)) < 0.5, -0.0, 0.0)
    sims[:, ::5] = 0.25
    sims[-1, ::7] = -0.25
    return sims


class TestStreamedRunMatchesTheTupleRun:
    """The rows that search streams into its file give the bytes that the
    per-item (item_id, score) run gave, written line by line."""

    def assert_same_file(self, tmp_path, sims, query_ids, item_ids, top_k):
        streamed, tuples, reference = (tmp_path / n for n in ("s.run", "t.run", "o.run"))
        write_rows(streamed, *ranked_rows(sims, query_ids, item_ids, top_k), "tag")
        write_run(tuples, RankedRun(rank_scores(sims, query_ids, item_ids, top_k), "tag"))
        oracle.write_run(
            reference, RankedRun(oracle.rank_scores(sims, query_ids, item_ids, top_k), "tag")
        )
        assert streamed.read_bytes() == tuples.read_bytes() == reference.read_bytes()

    def test_ties_straddle_top_k(self, tmp_path):
        ids = ["e", "b", "f", "a", "d", "c", "g", "h"]
        sims = np.array([[0.5, 0.5, 0.9, 0.5, 0.1, 0.5, 0.5, -0.2]])
        self.assert_same_file(tmp_path, sims, ["q"], ids, top_k=3)

    def test_every_cut_through_long_ties(self, tmp_path, rng):
        n = 120
        ids = [f"v{i:03d}" for i in rng.permutation(n)]
        sims = tied_scores(rng, 3, n)
        for top_k in range(1, n + 1, 11):
            self.assert_same_file(tmp_path, sims, ["q0", "q1", "q2"], ids, top_k)

    @pytest.mark.parametrize("top_k", [30, 60, 65])  # a cut, then every item kept
    def test_signed_zeros(self, tmp_path, rng, top_k):
        ids = [f"v{i:02d}" for i in rng.permutation(60)]
        self.assert_same_file(tmp_path, signed_zeros(rng, 2, 60), ["q0", "q1"], ids, top_k)

    @pytest.mark.parametrize("extra", [0, 5], ids=["equal_n", "above_n"])
    def test_top_k_at_or_above_n(self, tmp_path, rng, extra):
        ids = [f"v{i:02d}" for i in rng.permutation(40)]
        self.assert_same_file(tmp_path, tied_scores(rng, 2, 40), ["q0", "q1"], ids, 40 + extra)

    def test_through_the_model(self, tmp_path, rng):
        model = randomized_model({"a": 3, "b": 2}, {"t": 4}, d=4, heads=2, seed=5)
        corpus = [random_bundle(f"v{i}", model.video_dims(), rng) for i in rng.permutation(30)]
        corpus += [FeatureBundle(f"w{i}", b.features) for i, b in enumerate(corpus[:10])]
        queries = [random_bundle(f"q{i}", model.text_dims(), rng) for i in range(6)]
        for top_k in (1, 12, len(corpus)):
            streamed, tuples = tmp_path / "s.run", tmp_path / "t.run"
            write_rows(streamed, *rank_rows(model, queries, corpus, top_k), "tag")
            oracle.write_run(tuples, RankedRun(rank_many(model, queries, corpus, top_k), "tag"))
            assert streamed.read_bytes() == tuples.read_bytes()


class TestRankingErrorsComeFirst:
    def test_nan_in_a_late_query_raised_before_the_first_row(self):
        sims = np.array([[0.1, 0.2, 0.3], [0.3, 0.2, 0.1], [0.1, np.nan, np.inf]])
        with pytest.raises(FormatError, match=r"^query 'q2': non-finite similarity nan at item 'b'$"):
            ranked_rows(sims, ["q0", "q1", "q2"], ["a", "b", "c"], top_k=2)

    def test_duplicate_item_id_refused(self):
        with pytest.raises(ValueError, match=r"^duplicate item id 'b'$"):
            ranked_rows(np.zeros((1, 4)), ["q"], ["b", "a", "c", "b"], top_k=2)

    def search_with_a_late_nan(self, tmp_path, monkeypatch, out, tag):
        model = randomized_model({"vis": 3}, {"txt": 2}, d=4, heads=1, seed=8)
        checkpoint_save(model, tmp_path / "m.ckpt")
        write_features(tmp_path / "v.feat", "vis", {f"v{i}": np.full(3, i + 1.0) for i in range(3)})
        write_features(tmp_path / "q.feat", "txt", {f"q{i}": np.full(2, i + 1.0) for i in range(4)})

        def late_nan(*args):
            sims = similarity_matrix(*args)
            sims[3, 1] = np.nan
            return sims

        monkeypatch.setattr(evaluation, "similarity_matrix", late_nan)
        return run_cli(
            "search", "--checkpoint", tmp_path / "m.ckpt", "--video-feats", tmp_path / "v.feat",
            "--query-feats", tmp_path / "q.feat", "--out", out, "--run-tag", tag,
        )

    def test_search_nan_in_a_late_query_wins_over_a_bad_run_tag(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "run.txt"
        out.write_text("old run\n")
        assert self.search_with_a_late_nan(tmp_path, monkeypatch, out, "a b") == 1
        assert capsys.readouterr().err == "error: query 'q3': non-finite similarity nan at item 'v1'\n"
        assert out.read_text() == "old run\n"
        assert sorted(f.name for f in tmp_path.iterdir()) == ["m.ckpt", "q.feat", "run.txt", "v.feat"]

    def test_search_nan_in_a_late_query_wins_over_an_unwritable_out(self, tmp_path, monkeypatch, capsys):
        # The ranking is checked before the run file is opened.
        out = tmp_path / "missing" / "run.txt"
        assert self.search_with_a_late_nan(tmp_path, monkeypatch, out, "t") == 1
        assert capsys.readouterr().err == "error: query 'q3': non-finite similarity nan at item 'v1'\n"


class TestSearchRun:
    def write_inputs(self, tmp_path, video_ids=None):
        model = randomized_model({"vis": 3, "aud": 2}, {"txt": 4}, d=4, heads=2, seed=21)
        checkpoint_save(model, tmp_path / "m.ckpt")
        rng = np.random.default_rng(21)
        video_ids = video_ids or [f"v{i}" for i in range(12)]
        for name, dim in (("vis", 3), ("aud", 2)):
            write_features(tmp_path / f"{name}.feat", name, {v: rng.normal(size=dim) for v in video_ids})
        write_features(tmp_path / "q.feat", "txt", {f"q{i}": rng.normal(size=4) for i in range(5)})

    def search(self, tmp_path, top_k):
        return run_cli(
            "search", "--checkpoint", tmp_path / "m.ckpt",
            "--video-feats", tmp_path / "vis.feat", tmp_path / "aud.feat",
            "--query-feats", tmp_path / "q.feat", "--out", tmp_path / "run.txt",
            "--top-k", top_k, "--run-tag", "gold",
        )

    def test_golden_sha256(self, tmp_path):
        # The run file that the per-item ranking and per-line writer wrote
        # for these inputs.
        self.write_inputs(tmp_path)
        assert self.search(tmp_path, 8) == 0
        digest = hashlib.sha256((tmp_path / "run.txt").read_bytes()).hexdigest()
        assert digest == "b2d9e08f4260fd9c384ced946e0a5c9e7b5d33cb6623aeed57e0b31a0b2e1090"

    def test_an_unlisted_id_with_whitespace_is_not_checked(self, tmp_path):
        # Only the ids a run lists must read back; the corpus may hold others.
        ids = [f"v{i}" for i in range(12)]
        self.write_inputs(tmp_path, ids)
        assert self.search(tmp_path, 1) == 0
        before = (tmp_path / "run.txt").read_bytes()
        unlisted = sorted(set(ids) - {line.split()[2] for line in before.decode().splitlines()})
        ids[ids.index(unlisted[0])] = "not listed"
        self.write_inputs(tmp_path, ids)
        assert self.search(tmp_path, 1) == 0
        assert (tmp_path / "run.txt").read_bytes() == before
