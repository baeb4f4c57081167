import string
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import per_item_oracle as oracle
from avsearch import fusion
from avsearch.errors import ConfigError
from avsearch.fusion import init_model, pair_similarities, similarity, text_text_similarity
from avsearch.synth import synth_dataset
from avsearch.negation import (
    AUXILIARIES,
    AlreadyNegatedError,
    COARSE_TAGS,
    Caption,
    Margins,
    Triplet,
    bcl_text_anchor,
    bcl_video_anchor,
    bnl_loss,
    coarse_tags,
    detect_negation,
    gap_in_window_fraction,
    negate_caption,
    negation_sites,
)
from avsearch.numeric import grad_check

from conftest import assert_all_joined, random_bundle, randomized_model
from test_acceptance import ACCEPT_SPACES, _load_split

SUBJECTS = ["man", "woman", "dog", "cat", "robot"]
VERBS_ING = ["running", "cooking", "dancing", "reading"]
PLACES = ["park", "beach", "street", "forest"]


def random_negatable_caption(item_id: str, rng) -> Caption:
    subj = SUBJECTS[int(rng.integers(len(SUBJECTS)))]
    verb = VERBS_ING[int(rng.integers(len(VERBS_ING)))]
    place = PLACES[int(rng.integers(len(PLACES)))]
    form = int(rng.integers(3))
    if form == 0:
        tokens = ["a", subj, "is", verb, "in", "the", place]
    elif form == 1:
        tokens = ["the", subj, verb, "near", "the", place]
    else:
        tokens = ["two", subj + "s", "are", verb, "and", "jumping"]
    return Caption(item_id, tokens)


class TestDetectNegation:
    def test_non_prefixed_query(self):
        c = Caption("q", "a man is holding a knife in a non-kitchen location".split())
        has, positions = detect_negation(c)
        assert has is True
        assert positions == [c.tokens.index("non-kitchen")]

    def test_plain_sentence(self):
        assert detect_negation(Caption("q", ["a", "dog", "runs"])) == (False, [])

    def test_lexicon_member_at_start(self):
        assert detect_negation(Caption("q", ["nobody", "is", "dancing"])) == (True, [0])

    def test_multiple_cues_ascending(self):
        c = Caption("q", ["no", "dog", "is", "nonplussed", "without", "food"])
        has, positions = detect_negation(c)
        assert has and positions == [0, 3, 4]

    def test_contracted_cue(self):
        assert detect_negation(Caption("q", ["it", "is", "n't", "here"]))[0] is True

    def test_cue_in_any_case(self):
        assert detect_negation(Caption("q", "A man is Not running".split())) == (True, [3])
        assert detect_negation(Caption("q", ["NOBODY", "is", "Non-stop"])) == (True, [0, 2])


class TestCaption:
    @pytest.mark.parametrize("token", ["", "a\tb", "do not", " x", "x\n", "a\x1fb"])
    def test_token_that_would_not_read_back_rejected(self, token):
        with pytest.raises(ValueError) as exc:
            Caption("c1", ["a", token, "is", "running"])
        assert str(exc.value) == (
            f"caption 'c1': token {token!r} is empty or contains whitespace"
        )

    def test_tokens_without_whitespace_accepted(self):
        assert Caption("c1", ["a", "non-stop", "man's", "day"]).text == "a non-stop man's day"


class TestNegateCaption:
    def test_insertion_after_auxiliary(self):
        c = Caption("q", "a man is holding a knife".split())
        out = negate_caption(c, 0)
        assert out.tokens == "a man is not holding a knife".split()

    def test_no_site_returns_none(self):
        assert negate_caption(Caption("q", "sunset over the sea".split()), 0) is None

    def test_tagged_verb_site(self):
        c = Caption("q", ["people", "dance", "outside"], ["NOUN", "VERB", "OTHER"])
        out = negate_caption(c, 0)
        assert out.tokens == ["people", "not", "dance", "outside"]
        assert out.pos_tags == ["NOUN", "OTHER", "VERB", "OTHER"]

    def test_already_negated_rejected(self):
        with pytest.raises(AlreadyNegatedError):
            negate_caption(Caption("q", "a man is not holding a knife".split()), 0)

    def test_capitalised_cue_rejected(self):
        # Not `A man is Not not running`.
        with pytest.raises(AlreadyNegatedError):
            negate_caption(Caption("q", "A man is Not running".split()), 0)

    def test_auxiliary_in_any_case(self):
        assert negate_caption(Caption("q", "A dog Was seen".split()), 0).text == "A dog Was not seen"

    @given(
        tokens=st.lists(
            st.sampled_from(sorted(AUXILIARIES) + ["seen", "jumped", "running", "dog"])
            | st.text(string.ascii_letters, min_size=1, max_size=6),
            min_size=1,
            max_size=8,
        ),
        data=st.data(),
    )
    def test_untagged_sites_blind_to_case(self, tokens, data):
        recased = []
        for tok in tokens:
            ups = data.draw(st.lists(st.booleans(), min_size=len(tok), max_size=len(tok)))
            recased.append("".join(c.upper() if up else c.lower() for c, up in zip(tok, ups)))
        assert negation_sites(Caption("q", recased)) == negation_sites(Caption("q", tokens))

    def test_sites_after_aux_and_before_verb(self):
        c = Caption("q", ["the", "dog", "was", "seen", "chasing", "a", "ball"])
        # after "was" -> 3; before "seen" -> 3; before "chasing" -> 4
        assert negation_sites(c) == [3, 4]

    def test_uniform_choice_over_sites(self):
        c = Caption("q", ["the", "dog", "was", "seen", "chasing", "a", "ball"])
        seen = set()
        for seed in range(40):
            out = negate_caption(c, seed)
            seen.add(tuple(out.tokens))
        assert seen == {
            tuple("the dog was not seen chasing a ball".split()),
            tuple("the dog was seen not chasing a ball".split()),
        }

    @pytest.mark.parametrize("cue", ["", "do not", "no\tpe", " not"])
    def test_cue_that_is_not_one_token_rejected_first(self, cue):
        # Checked before the caption's own cue: a caption file could not
        # hold the negated caption as written.
        for text in ("a man is running", "a man is not running"):
            with pytest.raises(ValueError) as exc:
                negate_caption(Caption("c1", text.split()), 0, cue=cue)
            assert not isinstance(exc.value, AlreadyNegatedError)
            assert str(exc.value) == (
                f"caption 'c1': negation cue {cue!r} is empty or contains whitespace"
            )

    def test_custom_cue(self):
        out = negate_caption(Caption("q", ["he", "is", "cooking"]), 0, cue="never")
        assert "never" in out.tokens

    def test_roundtrip_restores_original(self):
        rng = np.random.default_rng(99)
        checked = 0
        for i in range(300):
            c = random_negatable_caption(f"c{i}", rng)
            out = negate_caption(c, rng)
            assert out is not None
            restored = list(out.tokens)
            restored.remove("not")
            assert restored == c.tokens
            assert detect_negation(out)[0] is True
            checked += 1
        assert checked == 300


@st.composite
def captions(draw) -> Caption:
    """A caption, tagged or not, of auxiliaries, words ending in -ing or -ed
    (-ing nouns among them), words that mark a noun, and other words (some
    of them negation cues), each in mixed case."""
    words = st.sampled_from(sorted(AUXILIARIES) + [
        "seen", "jumped", "running", "ed", "ing", "dog", "the", "his", "into", "building", "something",
    ])
    tokens = []
    for word in draw(st.lists(words | st.text("abdeginorst", min_size=1, max_size=6),
                              min_size=1, max_size=8)):
        ups = draw(st.lists(st.booleans(), min_size=len(word), max_size=len(word)))
        tokens.append("".join(c.upper() if up else c for c, up in zip(word, ups)))
    tags = draw(st.none() | st.lists(
        st.sampled_from(sorted(COARSE_TAGS)), min_size=len(tokens), max_size=len(tokens)
    ))
    return Caption("c", tokens, tags)


class TestSitesMatchTheOracle:
    """negation_sites reads one list of tags; the oracle asks two predicates
    of each token. Both must give the same sites, and so the same negation."""

    @given(caption=captions())
    def test_sites_and_negated_caption_match_the_oracle(self, caption):
        sites = oracle.negation_sites(caption)
        assert negation_sites(caption) == sites
        if detect_negation(caption)[0]:
            with pytest.raises(AlreadyNegatedError):
                negate_caption(caption, 7)
            return
        got = negate_caption(caption, 7)
        if not sites:
            assert got is None
            return
        site = sites[int(np.random.default_rng(7).integers(len(sites)))]
        assert got.tokens == caption.tokens[:site] + ["not"] + caption.tokens[site:]
        if caption.pos_tags is None:
            assert got.pos_tags is None
        else:
            assert got.pos_tags == caption.pos_tags[:site] + ["OTHER"] + caption.pos_tags[site:]

    def test_coarse_tags_of_an_untagged_caption(self):
        # `Being` ends in -ing, but is an auxiliary. `Red` and `ed` end in
        # -ed, but with fewer than three letters before it.
        caption = Caption("c", "A dog Was SEEN running and Red is ed Being".split())
        assert coarse_tags(caption) == [
            "OTHER", "OTHER", "AUX", "OTHER", "VERB", "OTHER", "OTHER", "AUX", "OTHER", "AUX"
        ]
        tagged = Caption("c", ["dogs", "run"], ["NOUN", "VERB"])
        assert coarse_tags(tagged) == ["NOUN", "VERB"]

    def test_short_ed_words_are_no_verbs(self):
        # `parked` has three letters or more before its -ed; `red`, `bed`
        # and `used` do not, so the cue can only go before `parked`.
        caption = Caption("q", "a red car parked near the bed".split())
        assert negation_sites(caption) == [3]
        assert negate_caption(caption, 0).text == "a red car not parked near the bed"
        assert coarse_tags(Caption("q", ["used", "Tired", "bED"])) == ["OTHER", "VERB", "OTHER"]


    @pytest.mark.parametrize("text, sites", [
        ("a man walks into the building", []),
        ("a man is doing something", [3]),
        ("people dance in the evening", []),
        ("a king with a ring", []),
        ("they are building a house", [2]),
        ("the dog running near the park", [2]),
    ])
    def test_ing_nouns_are_no_verbs(self, text, sites):
        # An -ing or -ed token after a determiner, possessive or preposition
        # is not a verb, and an -ing noun is one only after an auxiliary.
        caption = Caption("q", text.split())
        assert negation_sites(caption) == sites == oracle.negation_sites(caption)


class TestMargins:
    def test_defaults_valid(self):
        Margins()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"m1": 0.0},
            {"m1": 0.9, "m2": 0.5},
            {"m2": 2.0, "m1": 1.9},
            {"m3": -0.1},
            {"m4": 2.5, "m3": 0.5},
            {"m0": -0.01},
            {"lambda1": -1.0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            Margins(**kwargs)


class TestBclTerms:
    M = Margins(m1=0.2, m2=0.8, m3=0.2, m4=0.8)
    # Dyadic margins make the hinge arguments exactly zero at the boundary.
    DYADIC = Margins(m1=0.25, m2=0.75, m3=0.25, m4=0.75)

    def test_video_anchor_lower_hinge(self):
        assert bcl_video_anchor(0.5, 0.4, self.M) == pytest.approx(0.1, abs=1e-12)

    def test_video_anchor_zero_at_lower_boundary(self):
        assert bcl_video_anchor(0.75, 0.5, self.DYADIC) == 0.0  # gap exactly m1

    def test_video_anchor_upper_hinge(self):
        assert bcl_video_anchor(0.9, -0.3, self.M) == pytest.approx(0.4, abs=1e-12)

    def test_text_anchor_lower_hinge(self):
        assert bcl_text_anchor(0.6, 0.5, self.M) == pytest.approx(0.1, abs=1e-12)

    def test_text_anchor_zero_at_upper_boundary(self):
        assert bcl_text_anchor(0.75, 0.0, self.DYADIC) == 0.0  # gap exactly m4

    def test_text_anchor_upper_hinge(self):
        # gap = 1.0 against m4 = 0.8 leaves 0.2 on the upper hinge
        assert bcl_text_anchor(0.7, -0.3, self.M) == pytest.approx(0.2, abs=1e-12)

    def test_nonnegative_and_deadzone(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            s_pos, s_neg = rng.uniform(-1, 1, 2)
            v = bcl_video_anchor(s_pos, s_neg, self.M)
            assert v >= 0.0
            gap = s_pos - s_neg
            if self.M.m1 < gap < self.M.m2:
                assert v == 0.0

    def test_deadzone_gradient_exactly_zero(self):
        from avsearch.negation import _bcl_grads

        rng = np.random.default_rng(1)
        for _ in range(200):
            s_pos, s_neg = rng.uniform(-1, 1, 2)
            gap = s_pos - s_neg
            if self.M.m1 <= gap <= self.M.m2:
                assert _bcl_grads(self.M.m1, self.M.m2, s_pos, s_neg) == (0.0, 0.0)

    def test_monotone_in_s_pos(self):
        # First hinge active: raising s_pos reduces the loss; second hinge
        # active: raising s_pos increases it.
        m = self.M
        assert bcl_video_anchor(0.3, 0.4, m) > bcl_video_anchor(0.4, 0.4, m)
        assert bcl_video_anchor(0.9, -0.3, m) < bcl_video_anchor(0.95, -0.3, m)


def make_batch(rng, model, size, negated_mask):
    vdims = model.video_dims()
    tdims = model.text_dims()
    batch = []
    for i in range(size):
        neg_cap = neg_feat = None
        if negated_mask[i]:
            neg_cap = Caption(f"c{i}n", ["a", "dog", "is", "not", "running"])
            neg_feat = random_bundle(f"n{i}", tdims, rng)
        batch.append(
            Triplet(
                random_bundle(f"v{i}", vdims, rng),
                Caption(f"c{i}", ["a", "dog", "is", "running"]),
                random_bundle(f"q{i}", tdims, rng),
                neg_cap,
                neg_feat,
            )
        )
    return batch


class TestBnlLoss:
    def test_batch_of_one_rejected(self, rng):
        model = randomized_model({"a": 3}, {"t": 2}, d=4, heads=1, seed=0)
        batch = make_batch(rng, model, 1, [False])
        with pytest.raises(ValueError, match="batch"):
            bnl_loss(model, batch, Margins())

    def test_lambda_zero_reduces_to_hardest_negative_triplet_loss(self, rng):
        model = randomized_model({"a": 4, "b": 2}, {"t": 3}, d=5, heads=2, seed=1)
        m = Margins(lambda1=0.0)
        batch = make_batch(rng, model, 4, [True, False, True, False])
        loss, _ = bnl_loss(model, batch, m)
        # Oracle: recompute with plain similarity calls and explicit mining.
        sims = np.array(
            [[similarity(model, bv.video, bq.caption_features) for bq in batch] for bv in batch]
        )
        expected = 0.0
        for b in range(len(batch)):
            column = sims[:, b].copy()
            column[b] = -np.inf
            hardest = float(column.max())
            expected += max(0.0, m.m0 + hardest - sims[b, b])
        expected /= len(batch)
        assert loss == pytest.approx(expected, abs=1e-12)

    def test_saturated_hinge_is_zero(self):
        # Two pairs with s(x+,q)=1 and s(x#,q)=-1 under m0=0.2: both hinges
        # are saturated, and with lambda1=0 the whole loss vanishes.
        from avsearch.fusion import FeatureBundle, LaffBranchParams, LaffHead, LaffModel
        from avsearch.numeric import LinearTanhParams

        pv = LinearTanhParams(np.array([[5.0, 0.0], [0.0, 5.0]]), np.zeros(2))
        pt = LinearTanhParams(np.array([[5.0, 0.0], [0.0, 5.0]]), np.zeros(2))
        model = LaffModel(
            [LaffHead(LaffBranchParams({"v": pv}, np.zeros(2)), LaffBranchParams({"t": pt}, np.zeros(2)))]
        )
        e1 = np.array([1.0, 0.0])
        e2 = np.array([-1.0, 0.0])
        batch = [
            Triplet(FeatureBundle("v0", {"v": e1}), Caption("c0", ["running"]), FeatureBundle("q0", {"t": e1})),
            Triplet(FeatureBundle("v1", {"v": e2}), Caption("c1", ["walking"]), FeatureBundle("q1", {"t": e2})),
        ]
        loss, grad = bnl_loss(model, batch, Margins(m0=0.2, lambda1=0.0))
        assert loss == 0.0
        assert not grad.any()

    def test_matches_term_by_term_recomputation(self, rng):
        model = randomized_model({"a": 4}, {"t": 3, "u": 2}, d=5, heads=2, seed=3)
        m = Margins(m0=0.3, m1=0.2, m2=1.0, m3=0.25, m4=0.9, lambda1=0.15)
        batch = make_batch(rng, model, 5, [True, True, False, True, False])
        loss, _, breakdown = bnl_loss(model, batch, m, with_breakdown=True)

        sims = np.array(
            [[similarity(model, bv.video, bq.caption_features) for bq in batch] for bv in batch]
        )
        expected = 0.0
        for b, t in enumerate(batch):
            column = sims[:, b].copy()
            column[b] = -np.inf
            hardest = int(np.argmax(column))
            assert breakdown.hardest[b] == hardest
            term = max(0.0, m.m0 + sims[hardest, b] - sims[b, b])
            assert breakdown.primary[b] == pytest.approx(term, abs=1e-12)
            if t.has_negated:
                s_pos = sims[b, b]
                s_vneg = similarity(model, t.video, t.negated_features)
                s_ttneg = text_text_similarity(model, t.caption_features, t.negated_features)
                va = bcl_video_anchor(s_pos, s_vneg, m)
                ta = bcl_text_anchor(s_pos, s_ttneg, m)
                assert breakdown.video_anchor[b] == pytest.approx(va, abs=1e-12)
                assert breakdown.text_anchor[b] == pytest.approx(ta, abs=1e-12)
                term += m.lambda1 * (va + ta)
            expected += term
        expected /= len(batch)
        assert loss == pytest.approx(expected, abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        for seed in range(15):
            rng = np.random.default_rng(seed)
            model = randomized_model({"a": 3}, {"t": 3}, d=4, heads=2, seed=seed + 100)
            m = Margins(m0=0.3, lambda1=0.2)
            negated = [bool(rng.integers(2)) for _ in range(3)]
            batch = make_batch(rng, model, 3, negated)
            loss, grad = bnl_loss(model, batch, m)

            def fun(x):
                return bnl_loss(model.with_vector(x), batch, m)[0]

            assert grad_check(fun, lambda _: grad, model.to_vector()) < 1e-4

    def test_loss_nonnegative(self, rng):
        model = randomized_model({"a": 3}, {"t": 2}, d=4, heads=1, seed=4)
        for _ in range(20):
            batch = make_batch(rng, model, 3, [True, False, True])
            loss, _ = bnl_loss(model, batch, Margins())
            assert loss >= 0.0


class TestBnlLossOnWorkers:
    """bnl_loss's head forwards on run_tasks' workers: the serial loop's bits
    and errors, with every helper joined."""

    @staticmethod
    def three_heads(rng):
        model = randomized_model({"a": 7, "b": 5}, {"t": 6, "u": 4}, d=8, heads=3, seed=42)
        return model, make_batch(rng, model, 6, [b % 3 != 0 for b in range(6)])

    def test_equals_the_single_worker_result(self, rng, monkeypatch, started_threads):
        model, batch = self.three_heads(rng)
        results = []
        for workers in (1, 2, 3, 4):
            monkeypatch.setattr(fusion, "WORKERS", workers)
            started_threads.clear()
            results.append(bnl_loss(model, batch, Margins()))
            assert len(started_threads) == min(workers, model.h) - 1
            assert_all_joined(started_threads)
        (want_loss, want_grad), *others = results
        for loss, grad in others:
            assert loss == want_loss
            assert grad.tobytes() == want_grad.tobytes()

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_the_earliest_failed_head_wins(self, rng, monkeypatch, started_threads, workers):
        # Head 2's text pass fails at once, head 1's only after 200 ms: the
        # caller sees head 1's error, the one the serial loop raises.
        model, batch = self.three_heads(rng)
        heads = {id(head.text): i for i, head in enumerate(model.heads)}
        real_forward = fusion.batch_forward

        def forward(branch, tables):
            i = heads.get(id(branch))
            if i == 1:
                time.sleep(0.2)
            if i in (1, 2):
                raise MemoryError(f"head {i}")
            return real_forward(branch, tables)

        monkeypatch.setattr(fusion, "batch_forward", forward)
        monkeypatch.setattr(fusion, "WORKERS", workers)
        with pytest.raises(MemoryError, match="^head 1$"):
            bnl_loss(model, batch, Margins())
        assert len(started_threads) == workers - 1
        assert_all_joined(started_threads)


class TestBnlLossNonFinite:
    def test_nonfinite_similarity_gives_zero_gradient(self, rng):
        model = randomized_model({"a": 3}, {"t": 2}, d=4, heads=1, seed=31)
        batch = make_batch(rng, model, 3, [True, False, True])
        batch[1].video.features["a"][0] = np.nan
        loss, grad = bnl_loss(model, batch, Margins())
        assert np.isnan(loss) and grad.shape == (model.n_params(),)
        assert not np.signbit(grad).any() and not grad.any()


class TestGapFraction:
    def test_counts_only_negated(self, rng):
        model = randomized_model({"a": 3}, {"t": 2}, d=4, heads=1, seed=5)
        batch = make_batch(rng, model, 4, [True, False, True, False])
        frac = gap_in_window_fraction(model, batch, Margins())
        hits = 0
        for t in batch:
            if not t.has_negated:
                continue
            gap = similarity(model, t.video, t.caption_features) - similarity(
                model, t.video, t.negated_features
            )
            hits += Margins().m1 <= gap <= Margins().m2
        assert frac == pytest.approx(hits / 2)

    def test_no_negated_rejected(self, rng):
        model = randomized_model({"a": 3}, {"t": 2}, d=4, heads=1, seed=6)
        batch = make_batch(rng, model, 2, [False, False])
        with pytest.raises(ValueError):
            gap_in_window_fraction(model, batch, Margins())

    def assert_matches_oracle(self, model, triplets, m):
        want, want_gaps = oracle.gap_in_window_fraction(model, triplets, m)
        negated = [t for t in triplets if t.has_negated]
        videos = [t.video for t in negated]
        gaps = pair_similarities(model, videos, [t.caption_features for t in negated])
        gaps -= pair_similarities(model, videos, [t.negated_features for t in negated])
        np.testing.assert_allclose(gaps, want_gaps, rtol=0.0, atol=1e-12)
        assert gap_in_window_fraction(model, triplets, m) == want

    def test_matches_per_triplet_oracle(self, rng):
        model = randomized_model({"a": 7, "b": 5}, {"t": 6, "u": 4}, d=8, heads=2, seed=33)
        batch = make_batch(rng, model, 40, [b % 3 != 0 for b in range(40)])
        # A window around the median gap holds about a third of the gaps.
        self.assert_matches_oracle(model, batch, Margins(m1=0.01, m2=0.3))

    def test_matches_oracle_on_acceptance_data(self, tmp_path):
        manifests = synth_dataset(
            tmp_path, seed=0, n_videos=200, n_captions_per=2, latent_dim=8,
            negate_fraction=0.5, **ACCEPT_SPACES,
        )
        train_data, triplets, _ = _load_split(manifests)
        margins = Margins(m0=0.2, m1=0.2, m2=1.0, m3=0.2, m4=1.0, lambda1=0.1)
        for model in (
            init_model(train_data.video_dims, train_data.text_dims, d=16, heads=2, seed=0),
            randomized_model(train_data.video_dims, train_data.text_dims, d=16, heads=2, seed=1),
        ):
            self.assert_matches_oracle(model, triplets, margins)
