import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import per_item_oracle as oracle
from avsearch import trainer
from avsearch.errors import ConfigError, DimensionError, FormatError, MetricError, TrainingError
from avsearch.evaluation import JudgmentSet, average_precision, rank_many, rank_scores
from avsearch.featio import checkpoint_load, checkpoint_save
from avsearch.fusion import (
    FeatureBundle,
    GradFactors,
    form_gradient,
    init_model,
    named_parameters,
)
from avsearch.manifest import build_triplets, load_dataset, load_manifest
from avsearch.negation import Caption, Margins, Triplet, hardest_negatives
from avsearch.numeric import LinearTanhParams
from avsearch.synth import SpaceSpec, synth_dataset
from avsearch.trainer import (
    TrainConfig,
    ValidationSet,
    _cannot_clip,
    _sgd_step,
    evaluate_validation,
    fit,
    train_epoch,
)

from conftest import randomized_model
from test_evaluation import ITEM_IDS, tied_rankings
from test_negation import make_batch


def toy_triplets(rng, n=6, vdim=6, tdim=5):
    """Separable toy: video and caption features share a latent vector."""
    pv = rng.normal(size=(vdim, 3))
    pt = rng.normal(size=(tdim, 3))
    triplets = []
    for i in range(n):
        z = rng.normal(size=3)
        video = FeatureBundle(f"v{i}", {"vis": pv @ z})
        text = FeatureBundle(f"q{i}", {"txt": pt @ z})
        triplets.append(Triplet(video, Caption(f"c{i}", ["a", "dog", "is", "running"]), text))
    return triplets


class TestHardestNegative:
    def test_two_by_two(self):
        sim = np.array([[0.9, 0.1], [0.2, 0.8]])
        assert hardest_negatives(sim).tolist() == [1, 0]

    def test_argmax_by_inspection(self):
        sim = np.array([[0.9], [0.1], [0.8]])
        assert hardest_negatives(sim).tolist() == [2]

    def test_tie_breaks_to_lowest_index(self):
        sim = np.array([[0.5, 0.4], [0.3, 0.9], [0.3, 0.4]])
        assert hardest_negatives(sim).tolist() == [1, 0]

    def test_batch_of_one_rejected(self):
        with pytest.raises(ValueError, match="two videos"):
            hardest_negatives(np.array([[0.5]]))

    def test_non_2d_rejected(self):
        with pytest.raises(ValueError, match="2-D"):
            hardest_negatives(np.array([0.5, 0.3]))

    def test_query_without_positive_row_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            hardest_negatives(np.zeros((2, 3)))


class TestTrainConfig:
    def test_defaults_valid(self):
        TrainConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epochs": 0},
            {"batch_size": 1},
            {"learning_rate": -0.1},
            {"lr_decay": 0.0},
            {"clip_norm": 0.0},
            {"validation_metric": "ndcg"},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            TrainConfig(**kwargs)

    def test_recall_metric_accepted(self):
        TrainConfig(validation_metric="recall@10")


class TestTrainEpoch:
    def test_zero_learning_rate_leaves_params_bitwise(self, rng):
        triplets = toy_triplets(rng)
        model = init_model({"vis": 6}, {"txt": 5}, d=4, heads=1, seed=0)
        before = model.to_vector().copy()
        cfg = TrainConfig(learning_rate=0.0, batch_size=3, epochs=1)
        train_epoch(model, triplets, cfg, 0)
        np.testing.assert_array_equal(model.to_vector(), before)

    def test_steps_the_given_model_in_place(self, rng):
        triplets = toy_triplets(rng)
        model = init_model({"vis": 6}, {"txt": 5}, d=4, heads=1, seed=0)
        params = model.params
        before = params.copy()
        train_epoch(model, triplets, TrainConfig(learning_rate=0.5, batch_size=3), 0)
        assert model.params is params
        assert not np.array_equal(params, before)

    def test_deterministic_given_seed(self, rng):
        triplets = toy_triplets(rng)
        cfg = TrainConfig(learning_rate=0.05, batch_size=3, seed=11)
        losses1, losses2 = [], []
        for losses in (losses1, losses2):
            model = init_model({"vis": 6}, {"txt": 5}, d=4, heads=1, seed=0)
            for e in range(3):
                losses.append(train_epoch(model, triplets, cfg, e))
        assert losses1 == losses2

    def test_loss_nonincreasing_on_repeated_separable_batch(self, rng):
        # One fixed batch, small lr: full-batch subgradient descent on the
        # separable toy must not increase the loss across 50 steps.
        triplets = toy_triplets(rng, n=4)
        model = init_model({"vis": 6}, {"txt": 5}, d=8, heads=1, seed=1)
        cfg = TrainConfig(learning_rate=0.02, batch_size=4, seed=0, lr_decay=1.0)
        losses = []
        for _ in range(50):
            losses.append(train_epoch(model, triplets, cfg, 0))  # same shuffle seed
        for a, b in zip(losses, losses[1:]):
            assert b <= a + 1e-9

    def test_nonfinite_loss_aborts_with_batch_id(self, rng):
        triplets = toy_triplets(rng, n=4)
        triplets[2].video.features["vis"][0] = np.nan
        model = init_model({"vis": 6}, {"txt": 5}, d=4, heads=1, seed=0)
        cfg = TrainConfig(batch_size=4)
        with pytest.raises(TrainingError, match="batch 0"):
            train_epoch(model, triplets, cfg, 0)

    def test_empty_dataset_rejected(self):
        model = init_model({"vis": 6}, {"txt": 5}, d=4, heads=1, seed=0)
        with pytest.raises(ValueError):
            train_epoch(model, [], TrainConfig(), 0)


def zero_step_loss(model):
    """A stand-in for trainer.bnl_loss whose every batch has loss 0 and a
    zero gradient, given as one-row factors, so that an epoch leaves the
    parameters as they are."""
    terms = [
        (np.zeros((1, p.shape[0])), np.zeros((1, p.shape[1]))) if p.ndim == 2 else np.zeros(p.shape)
        for _, p in named_parameters(model.heads)
    ]
    factors = GradFactors(terms)
    return lambda *args, **kwargs: (0.0, factors)


class TestEpochEndCheck:
    """The finiteness check of the parameters after each epoch."""

    def test_allocates_no_parameter_sized_array(self, rng, monkeypatch):
        # 32 * (256 * (32 + 1) + 1 + 32 + 1 + 1) = 271456 float64; a boolean
        # mask of them would be 271 kB. The largest weight, the scratch of
        # the zero steps, is 8 kB; the per-array bookkeeping of the 516
        # arrays' steps brings the peak to about 71 kB.
        model = init_model({f"s{i:03d}": 32 for i in range(256)}, {"t": 32}, d=32, heads=1)
        monkeypatch.setattr(trainer, "bnl_loss", zero_step_loss(model))
        triplets = toy_triplets(rng, n=4)
        cfg = TrainConfig(batch_size=4)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            train_epoch(model, triplets, cfg, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert model.params.size == 271456
        assert peak < model.params.size // 2

    def test_huge_finite_parameters_pass_without_a_warning(self, rng, monkeypatch):
        model = init_model({"vis": 6}, {"txt": 5}, d=4, heads=2, seed=0)
        model.params[::2] = np.finfo(np.float64).max
        model.params[1::2] = -np.finfo(np.float64).max
        monkeypatch.setattr(trainer, "bnl_loss", zero_step_loss(model))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert train_epoch(model, toy_triplets(rng, n=4), TrainConfig(batch_size=4), 0) == 0.0

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [0, 17, -1])
    def test_non_finite_parameter_aborts(self, rng, monkeypatch, value, where):
        model = init_model({"vis": 6}, {"txt": 5}, d=4, heads=2, seed=0)
        model.params[where] = value
        monkeypatch.setattr(trainer, "bnl_loss", zero_step_loss(model))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TrainingError, match="non-finite parameters after epoch 3"):
                train_epoch(model, toy_triplets(rng, n=4), TrainConfig(batch_size=4), 3)


class TestSgdStep:
    """The in-place step against per_item_oracle's assembly into a new
    zeroed gradient per batch, compared bit for bit."""

    @staticmethod
    def run_epochs(step, clip_norm):
        rng = np.random.default_rng(7)
        model = randomized_model({"a": 7, "b": 5}, {"t": 6, "u": 4}, d=8, heads=2, seed=40)
        model.params[::5] = -0.0  # signed zeros must step exactly as in the oracle
        triplets = make_batch(rng, model, 11, [b % 3 != 0 for b in range(11)])
        cfg = TrainConfig(batch_size=4, learning_rate=0.3, clip_norm=clip_norm, seed=3)
        losses = [step(model, triplets, cfg, epoch) for epoch in range(2)]
        return model.params, losses

    def test_two_epochs_match_oracle(self):
        results = {}
        # Gradient norms here are O(1): 1e-3 clips every batch, 1e9 none.
        for clip_norm in (1e-3, 1e9):
            params, losses = self.run_epochs(train_epoch, clip_norm)
            want_params, want_losses = self.run_epochs(oracle.train_epoch, clip_norm)
            assert losses == want_losses
            np.testing.assert_array_equal(params.view(np.int64), want_params.view(np.int64))
            results[clip_norm] = params
        assert not np.array_equal(results[1e-3], results[1e9])

    def test_overflowing_norm_steps_as_oracle(self, rng):
        # Finite elements whose squared norm overflows: the clip factor is
        # clip / inf = 0, as in the one-expression step.
        params = rng.normal(size=50)
        params[::4] = -0.0
        grad = rng.normal(size=50) * 1e300
        want = params.copy()
        with np.errstate(over="ignore"):
            assert np.all(np.isfinite(grad)) and np.isinf(np.linalg.norm(grad))
            oracle.sgd_step(want, grad.copy(), 0.1, 5.0)
            assert _sgd_step(params, grad, 0.1, 5.0)
        np.testing.assert_array_equal(params.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_nonfinite_element_refused(self, rng, bad):
        params = rng.normal(size=20)
        before = params.copy()
        grad = rng.normal(size=20)
        grad[7] = bad
        assert not _sgd_step(params, grad, 0.1, 5.0)
        np.testing.assert_array_equal(params, before)

    @pytest.mark.parametrize("poison", [
        lambda terms: terms[0][0].__setitem__((0, 1), np.inf),  # W's factor dz
        lambda terms: terms[1].__setitem__(3, np.inf),  # b's gradient
    ], ids=["weight-factor", "bias"])
    def test_inf_gradient_with_finite_loss_aborts_with_batch_id(self, rng, monkeypatch, poison):
        calls = []
        real_bnl_loss = trainer.bnl_loss

        def inf_on_second_batch(model, batch, m, factored):
            loss, factors = real_bnl_loss(model, batch, m, factored=factored)
            calls.append(loss)
            if len(calls) == 2:
                poison(factors.terms)
            return loss, factors

        monkeypatch.setattr(trainer, "bnl_loss", inf_on_second_batch)
        model = init_model({"vis": 6}, {"txt": 5}, d=4, heads=1, seed=0)
        # BLAS may flag an invalid operation while forming the poisoned product.
        with pytest.raises(TrainingError, match="epoch 0, batch 1"), np.errstate(invalid="ignore"):
            train_epoch(model, toy_triplets(rng, n=8), TrainConfig(batch_size=3), 0)
        assert np.isfinite(calls[1])


def spy_sgd_step(monkeypatch) -> list:
    """Patch trainer._sgd_step to record its calls (the steps that may clip)."""
    calls = []
    real = trainer._sgd_step

    def recorded(*args):
        calls.append(args[3])
        return real(*args)

    monkeypatch.setattr(trainer, "_sgd_step", recorded)
    return calls


@st.composite
def factor_terms(draw) -> list:
    """GradFactors terms of one or two weights, each with its bias, and
    maybe an attention vector, at one drawn scale. A weight's gradient may
    nearly cancel (a row of dz repeated negated, up to a small change,
    against the same row of x), so that the Gram sum is all rounding."""
    scale = 2.0 ** draw(st.integers(-560, 220))
    values = st.floats(-4.0, 4.0, allow_subnormal=False)
    terms = []
    for _ in range(draw(st.integers(1, 2))):
        n, d, m = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(1, 5))
        dz = np.array(draw(st.lists(values, min_size=n * d, max_size=n * d))).reshape(n, d)
        x = np.array(draw(st.lists(values, min_size=n * m, max_size=n * m))).reshape(n, m)
        if draw(st.booleans()):
            dz = np.vstack([dz, -dz * (1.0 + draw(st.sampled_from([1e-15, 1e-12, 1e-9])))])
            x = np.vstack([x, x])
        terms += [(dz * scale, x), dz.sum(axis=0) * scale]
    if draw(st.booleans()):
        terms.append(np.array(draw(st.lists(values, min_size=1, max_size=4))) * scale)
    return terms


class TestFactoredStep:
    """train_epoch steps straight from bnl_loss's factors when the step
    provably cannot clip, and forms the gradient for _sgd_step otherwise."""

    @staticmethod
    def one_batch(clip_at):
        """A model, its training set of one batch and a config whose
        clip_norm is clip_at(norm of that batch's formed gradient)."""
        rng = np.random.default_rng(7)
        model = randomized_model({"a": 7, "b": 5}, {"t": 6, "u": 4}, d=8, heads=2, seed=40)
        model.params[::5] = -0.0
        triplets = make_batch(rng, model, 6, [b % 3 != 0 for b in range(6)])
        cfg = TrainConfig(batch_size=6, learning_rate=0.3, seed=3)
        order = np.random.default_rng([cfg.seed, 0]).permutation(len(triplets))
        _, grad = trainer.bnl_loss(model, [triplets[i] for i in order], cfg.margins)
        cfg.clip_norm = clip_at(float(np.linalg.norm(grad)))
        return model, triplets, cfg

    @pytest.mark.parametrize("clip_at, may_clip", [
        (lambda norm: norm, True),
        (lambda norm: np.nextafter(norm, 0.0), True),
        (lambda norm: np.nextafter(norm, np.inf), True),
        (lambda norm: norm * (1 - 1e-9), True),
        (lambda norm: norm * (1 + 1e-9), False),
    ], ids=["norm", "below", "above", "1-1e-9", "1+1e-9"])
    def test_clip_norm_at_the_gradient_norm_steps_as_oracle(self, monkeypatch, clip_at, may_clip):
        model, triplets, cfg = self.one_batch(clip_at)
        want = model.with_vector(model.params)
        want_loss = oracle.train_epoch(want, triplets, cfg, 0)
        calls = spy_sgd_step(monkeypatch)
        assert train_epoch(model, triplets, cfg, 0) == want_loss
        np.testing.assert_array_equal(model.params.view(np.int64), want.params.view(np.int64))
        # Only the factored path steps without _sgd_step; a clip_norm a
        # rounding away from the norm is left to the formed vector.
        assert calls == ([cfg.clip_norm] if may_clip else [])

    def test_unclipped_epoch_allocates_less_than_the_parameters(self, rng, monkeypatch):
        # 256 * (3 * (1024 + 1) + 1 + 768 + 1 + 256 + 1 + 1) = 1050368
        # float64, 8.4 MB; the largest weight, the scratch, is 2.1 MB.
        model = init_model({"a": 1024, "b": 1024, "c": 1024}, {"t": 768, "u": 256}, d=256, heads=1)
        triplets = make_batch(rng, model, 8, [b % 2 == 0 for b in range(8)])
        cfg = TrainConfig(batch_size=4, clip_norm=1e9)
        calls = spy_sgd_step(monkeypatch)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            train_epoch(model, triplets, cfg, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert calls == []
        assert model.params.nbytes == 1050368 * 8
        assert peak < model.params.nbytes

    @given(terms=factor_terms(), offset=st.sampled_from([-1e-3, -1e-9, 0.0, 1e-13, 1e-9, 1e-6]),
           ulps=st.integers(-2, 2))
    def test_cannot_clip_is_never_wrong(self, terms, offset, ulps):
        grad = np.concatenate([form_gradient(t, np.empty((t[0].shape[1], t[1].shape[1])))
                               if isinstance(t, tuple) else t for t in terms], axis=None)
        norm = float(np.linalg.norm(grad))
        max_norm = norm * (1 + offset)
        for _ in range(abs(ulps)):
            max_norm = np.nextafter(max_norm, np.inf if ulps > 0 else 0.0)
        if max_norm > 0 and _cannot_clip(GradFactors(terms), max_norm, grad.size):
            assert np.all(np.isfinite(grad))
            assert float(np.linalg.norm(grad)) <= max_norm


def make_validation(triplets) -> ValidationSet:
    queries = [t.caption_features for t in triplets]
    corpus = [t.video for t in triplets]
    judgments = JudgmentSet(
        {t.caption_features.item_id: {t.video.item_id: 1} for t in triplets}
    )
    return ValidationSet(queries, corpus, judgments)


def discard(model):
    """An on_best that keeps nothing."""


def best_copies():
    """An on_best that keeps a copy of each model it is given, and that list."""
    best = []
    return best, lambda m: best.append(m.with_vector(m.params))


class TestFit:
    def test_given_model_stepped_in_place(self, rng):
        triplets = toy_triplets(rng)
        model = init_model({"vis": 6}, {"txt": 5}, d=4, heads=1, seed=0)
        params = model.params
        before = params.copy()
        cfg = TrainConfig(epochs=2, batch_size=3, learning_rate=0.5)
        given = []
        trained, report = fit(model, triplets, make_validation(triplets), cfg, given.append)
        assert trained is model and trained.params is params
        assert not np.array_equal(params, before)
        np.testing.assert_array_equal(model.to_vector(), params)
        assert given and all(m is model for m in given)

    @pytest.mark.parametrize("replace, place", [
        (lambda head: setattr(head.video, "attention", np.ones(4)),
         "head 0, video branch, attention u"),
        (lambda head: head.text.transforms.update(txt=LinearTanhParams(np.ones((4, 5)), np.zeros(4))),
         "head 0, text branch, space 'txt' W"),
    ], ids=["attention", "transform"])
    def test_replaced_head_array_refused(self, rng, tmp_path, replace, place):
        # Training params in place would step a vector the forward pass no
        # longer reads.
        triplets = toy_triplets(rng)
        model = init_model({"vis": 6}, {"txt": 5}, d=4, heads=1, seed=0)
        replace(model.heads[0])
        before = model.params.copy()
        log = tmp_path / "train.log"
        given = []
        with pytest.raises(DimensionError, match=f"{place} is not a view into params"):
            fit(model, triplets, make_validation(triplets), TrainConfig(epochs=1, batch_size=3),
                given.append, log_file=log)
        np.testing.assert_array_equal(model.params, before)
        assert not log.exists()
        assert given == []

    def test_peak_memory_is_two_parameter_vectors(self, rng, tmp_path):
        # The parameter vector dominates: 256 * (3072 + 768 + 4) = 984064
        # float64, 7.9 MB. fit holds the model's vector and, in each epoch,
        # the 6.3 MB scratch of unclipped steps or, once a step may clip
        # (one of these four does), the formed gradient in its place, plus
        # the features and small per-batch temporaries; the checkpoint that
        # on_best saves writes the model's arrays without copying them.
        tracemalloc.start()
        try:
            triplets = toy_triplets(rng, n=8, vdim=3072, tdim=768)
            validation = make_validation(triplets)
            model = init_model({"vis": 3072}, {"txt": 768}, d=256, heads=1, seed=0)
            feature_bytes = sum(
                vec.nbytes
                for t in triplets
                for bundle in (t.video, t.caption_features)
                for vec in bundle.features.values()
            )
            ckpt = tmp_path / "best.ckpt"
            tracemalloc.reset_peak()
            trained, report = fit(
                model, triplets, validation, TrainConfig(epochs=2, batch_size=4),
                lambda m: checkpoint_save(m, ckpt),
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        vector = model.params.nbytes
        assert vector == 984064 * 8
        assert peak < 2.5 * vector + feature_bytes
        assert trained is model
        assert checkpoint_load(ckpt).n_params() == 984064

    def test_single_epoch_best_is_one(self, rng):
        triplets = toy_triplets(rng)
        model = init_model({"vis": 6}, {"txt": 5}, d=4, heads=1, seed=0)
        cfg = TrainConfig(epochs=1, batch_size=3)
        _, report = fit(model, triplets, make_validation(triplets), cfg, discard)
        assert report.best_epoch == 1
        assert len(report.epochs) == 1

    def test_best_epoch_is_validation_argmax(self, rng, monkeypatch):
        scores = iter([0.3, 0.5, 0.4])
        monkeypatch.setattr(
            "avsearch.trainer.evaluate_validation", lambda *a, **k: next(scores)
        )
        triplets = toy_triplets(rng)
        model = init_model({"vis": 6}, {"txt": 5}, d=4, heads=1, seed=0)
        cfg = TrainConfig(epochs=3, batch_size=3)
        _, report = fit(model, triplets, make_validation(triplets), cfg, discard)
        assert report.best_epoch == 2
        assert report.best_score == 0.5
        assert [e.validation_score for e in report.epochs] == [0.3, 0.5, 0.4]

    def test_on_best_sees_each_improving_epoch_as_it_ends(self, rng, monkeypatch):
        scores = iter([0.3, 0.5, 0.4])
        monkeypatch.setattr(
            "avsearch.trainer.evaluate_validation", lambda *a, **k: next(scores)
        )
        epoch_ends = []
        real_epoch = trainer.train_epoch

        def recorded_epoch(model, *args):
            loss = real_epoch(model, *args)
            epoch_ends.append(model.params.copy())
            return loss

        monkeypatch.setattr(trainer, "train_epoch", recorded_epoch)
        triplets = toy_triplets(rng)
        model = init_model({"vis": 6}, {"txt": 5}, d=4, heads=1, seed=0)
        calls = []
        fit(model, triplets, make_validation(triplets), TrainConfig(epochs=3, batch_size=3),
            lambda m: calls.append((len(epoch_ends), m.params.copy())))
        assert [epoch for epoch, _ in calls] == [1, 2]
        for epoch, params in calls:
            np.testing.assert_array_equal(params, epoch_ends[epoch - 1])
        assert not np.array_equal(epoch_ends[1], epoch_ends[2])

    def test_identical_seeds_identical_reports(self, rng):
        triplets = toy_triplets(rng)
        val = make_validation(triplets)

        def run():
            model = init_model({"vis": 6}, {"txt": 5}, d=4, heads=2, seed=3)
            best, on_best = best_copies()
            _, report = fit(model, triplets, val, TrainConfig(epochs=3, batch_size=3, seed=7),
                            on_best)
            return (
                [(e.train_loss, e.validation_score) for e in report.epochs],
                report.best_epoch,
                best[-1].to_vector(),
            )

        stats1, best1, vec1 = run()
        stats2, best2, vec2 = run()
        assert stats1 == stats2 and best1 == best2
        np.testing.assert_array_equal(vec1, vec2)

    def test_parameters_stay_finite(self, rng):
        triplets = toy_triplets(rng)
        model = init_model({"vis": 6}, {"txt": 5}, d=4, heads=1, seed=0)
        cfg = TrainConfig(epochs=5, batch_size=3, learning_rate=0.5)
        best, on_best = best_copies()
        trained, report = fit(model, triplets, make_validation(triplets), cfg, on_best)
        assert np.all(np.isfinite(trained.to_vector()))
        assert np.all(np.isfinite(best[-1].to_vector()))

    def test_log_file_lines(self, rng, tmp_path):
        triplets = toy_triplets(rng)
        model = init_model({"vis": 6}, {"txt": 5}, d=4, heads=1, seed=0)
        log = tmp_path / "train.log"
        cfg = TrainConfig(epochs=2, batch_size=3)
        _, report = fit(model, triplets, make_validation(triplets), cfg, discard, log_file=log)
        lines = log.read_text().splitlines()
        assert len(lines) == 2
        epoch, loss, score = lines[0].split("\t")
        assert epoch == "1"
        assert float(loss) == pytest.approx(report.epochs[0].train_loss, abs=1e-6)
        assert float(score) == pytest.approx(report.epochs[0].validation_score, abs=1e-6)

    def test_separable_synth_reaches_high_map(self, tmp_path):
        # Small-scale version of the training acceptance bar.
        manifests = synth_dataset(
            tmp_path,
            seed=4,
            n_videos=40,
            n_captions_per=2,
            latent_dim=4,
            video_spaces=[SpaceSpec("visa", 12, 0.01), SpaceSpec("visb", 8, 0.01)],
            text_spaces=[SpaceSpec("txta", 10, 0.01), SpaceSpec("txtb", 8, 0.01)],
        )
        train_data = load_dataset(load_manifest(manifests["train"]))
        val_data = load_dataset(load_manifest(manifests["val"]))
        triplets = build_triplets(train_data)
        validation = ValidationSet(
            [val_data.text_bundles[cid] for _, cid, _ in val_data.pairs],
            list(val_data.video_bundles.values()),
            val_data.qrels,
        )
        model = init_model(train_data.video_dims, train_data.text_dims, d=12, heads=2, seed=0)
        cfg = TrainConfig(
            epochs=12, batch_size=8, learning_rate=0.4,
            margins=Margins(lambda1=0.0), seed=0,
        )
        _, report = fit(model, triplets, validation, cfg, discard)
        assert report.best_score >= 0.9


def scored_by_sorting(entries, val: ValidationSet, metric: str) -> float:
    """evaluate_validation as it was before it counted ranks: each judged
    query's whole-corpus ranking, by query id, scored by average_precision
    or recall@K."""
    match = trainer._RECALL_RE.match(metric)
    scores = []
    for query in val.queries:
        labels = val.judgments.judgments.get(query.item_id)
        if labels is None or not any(rel == 1 for rel in labels.values()):
            continue
        entry = entries[query.item_id]
        if match:
            scores.append(oracle.recall_at_k(entry, labels, int(match.group(1))))
        else:
            scores.append(average_precision(entry, labels))
    if not scores:
        raise MetricError("no validation query has relevant judgments")
    return sum(scores) / len(scores)


def outcome(score):
    """score(), as its hex digits, or the type and text of what it raised."""
    try:
        return score().hex()
    except (ConfigError, FormatError, MetricError, ValueError) as exc:
        return type(exc), str(exc)


VALIDATION_METRICS = ["mAP", "recall@1", "recall@2", "recall@100"]


class TestEvaluateValidation:
    @given(case=tied_rankings(), data=st.data())
    def test_counting_equals_sorting_on_tied_scores(self, case, data):
        # Rows with ties and signed zeros, repeated query ids, and qrels
        # with several relevant ids, ids missing from the corpus, or none.
        sims, query_ids, item_ids, _ = case
        labels = st.dictionaries(st.sampled_from(ITEM_IDS + ["gone"]), st.integers(0, 1))
        judgments = data.draw(
            st.dictionaries(st.sampled_from(sorted(set(query_ids))), labels)
        )
        metric = data.draw(st.sampled_from(VALIDATION_METRICS))
        blank = {"x": np.zeros(1)}
        val = ValidationSet(
            [FeatureBundle(q, blank) for q in query_ids],
            [FeatureBundle(i, blank) for i in item_ids],
            JudgmentSet(judgments),
        )
        entries = rank_scores(sims, query_ids, item_ids, len(item_ids))
        with mock.patch.object(trainer, "similarity_matrix", lambda *args: sims):
            got = outcome(lambda: evaluate_validation(None, val, metric))
        assert got == outcome(lambda: scored_by_sorting(entries, val, metric))

    @pytest.mark.parametrize("metric", VALIDATION_METRICS)
    @pytest.mark.parametrize("constant", [False, True])
    def test_counting_equals_rank_many(self, rng, metric, constant):
        model = randomized_model({"vis": 6}, {"txt": 5}, d=4, heads=2, seed=3)
        if constant:  # every similarity 0: all rows tie
            model.params[:] = 0.0
        triplets = toy_triplets(rng, n=7)
        val = make_validation(triplets)
        # A query listed twice, a video twice under two ids, a query with
        # three relevant videos, one of them not in the corpus.
        val.queries.append(val.queries[2])
        val.corpus.append(FeatureBundle("v9", val.corpus[0].features))
        val.judgments.judgments["q4"] = {"v4": 1, "v9": 1, "v5": 0, "gone": 1}
        entries = rank_many(model, val.queries, val.corpus, len(val.corpus))
        assert evaluate_validation(model, val, metric).hex() == scored_by_sorting(
            entries, val, metric
        ).hex()

    @pytest.mark.parametrize("fault", ["nan feature", "duplicate video id"])
    def test_errors_are_rank_many_errors(self, rng, fault):
        model = randomized_model({"vis": 6}, {"txt": 5}, d=4, heads=1, seed=3)
        val = make_validation(toy_triplets(rng, n=4))
        if fault == "nan feature":
            val.corpus[2] = FeatureBundle("v2", {"vis": np.full(6, np.nan)})
        else:
            val.corpus[3] = FeatureBundle("v1", val.corpus[3].features)
        with pytest.raises((FormatError, ValueError)) as want:
            rank_many(model, val.queries, val.corpus, len(val.corpus))
        with pytest.raises(type(want.value)) as got:
            evaluate_validation(model, val)
        assert str(got.value) == str(want.value)

    def test_recall_at_k(self, rng):
        triplets = toy_triplets(rng, n=5)
        val = make_validation(triplets)
        model = init_model({"vis": 6}, {"txt": 5}, d=4, heads=1, seed=0)
        r_all = evaluate_validation(model, val, "recall@5")
        assert r_all == 1.0  # every relevant video is within the top-5 of 5
        r1 = evaluate_validation(model, val, "recall@1")
        assert 0.0 <= r1 <= 1.0

    def test_unjudged_queries_skipped(self, rng):
        triplets = toy_triplets(rng, n=3)
        val = make_validation(triplets)
        val.judgments.judgments.pop(triplets[0].caption_features.item_id)
        model = init_model({"vis": 6}, {"txt": 5}, d=4, heads=1, seed=0)
        evaluate_validation(model, val, "mAP")  # two queries remain
