import math
import sys
import threading
import time
import tracemalloc
import warnings
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import per_item_oracle as oracle
from per_item_oracle import batched_rank_scores as rank_scores
from avsearch import fusion, trainer
from avsearch.errors import ConfigError, FormatError, MetricError, TrainingError
from avsearch.evaluation import JudgmentSet, average_precision, rank_many
from avsearch.featio import checkpoint_load, checkpoint_save
from avsearch.fusion import (
    FeatureBundle,
    GradFactors,
    init_model,
    named_parameters,
    similarity,
)
from avsearch.manifest import build_triplets, load_dataset, load_manifest
from avsearch.negation import Caption, Margins, Triplet, hardest_negatives
from avsearch.numeric import LinearTanhParams
from avsearch.synth import SpaceSpec, synth_dataset
from avsearch.trainer import (
    TrainConfig,
    ValidationSet,
    _grad_norm,
    _step,
    evaluate_validation,
    fit,
    train_epoch,
)

from conftest import assert_all_joined, randomized_model
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

    def test_trailing_batch_of_one_skipped(self, rng, monkeypatch):
        sizes = []
        loss = trainer.bnl_loss

        def spy(model, batch, margins, factored=False):
            sizes.append(len(batch))
            return loss(model, batch, margins, factored=factored)

        monkeypatch.setattr(trainer, "bnl_loss", spy)
        model = init_model({"vis": 6}, {"txt": 5}, d=4, heads=1, seed=0)
        train_epoch(model, toy_triplets(rng, n=5), TrainConfig(batch_size=2), 0)
        assert sizes == [2, 2]

    def test_dataset_of_one_triplet_rejected(self, rng):
        model = init_model({"vis": 6}, {"txt": 5}, d=4, heads=1, seed=0)
        with pytest.raises(ValueError, match="dataset yielded no batch of size >= 2"):
            train_epoch(model, toy_triplets(rng, n=1), TrainConfig(batch_size=2), 0)


def filled_step_loss(model, value):
    """A stand-in for trainer.bnl_loss whose every batch has loss 0 and a
    gradient whose every entry is value, given as one-row factors (the
    weights' x a row of ones); a value of 0 leaves the parameters as they
    are."""
    terms = [
        (np.full((1, p.shape[0]), value), np.ones((1, p.shape[1]))) if p.ndim == 2
        else np.full(p.shape, value)
        for _, p in named_parameters(model.heads)
    ]
    return lambda *args, **kwargs: (0.0, GradFactors(terms))


class TestEpochEndCheck:
    """The finiteness check of the parameters after each epoch."""

    def test_allocates_no_parameter_sized_array(self, rng, monkeypatch):
        # 32 * (256 * (32 + 1) + 1 + 32 + 1 + 1) = 271456 float64; a boolean
        # mask of them would be 271 kB. The largest weight, the scratch of
        # the zero steps, is 8 kB; the per-array bookkeeping of the 516
        # arrays' steps brings the peak to about 71 kB.
        model = init_model({f"s{i:03d}": 32 for i in range(256)}, {"t": 32}, d=32, heads=1)
        monkeypatch.setattr(trainer, "bnl_loss", filled_step_loss(model, 0.0))
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
        monkeypatch.setattr(trainer, "bnl_loss", filled_step_loss(model, 0.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert train_epoch(model, toy_triplets(rng, n=4), TrainConfig(batch_size=4), 0) == 0.0

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [0, 17, -1])
    def test_non_finite_parameter_aborts(self, rng, monkeypatch, value, where):
        model = init_model({"vis": 6}, {"txt": 5}, d=4, heads=2, seed=0)
        model.params[where] = value
        monkeypatch.setattr(trainer, "bnl_loss", filled_step_loss(model, 0.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TrainingError, match="non-finite parameters after epoch 3"):
                train_epoch(model, toy_triplets(rng, n=4), TrainConfig(batch_size=4), 3)


class TestSgdStep:
    """The in-place step against per_item_oracle's assembly into a new
    zeroed gradient per batch, clipped by the formed vector's norm."""

    # The trainer takes its clip factor from the Gram norm, the oracle from
    # the formed vector's: the two norms differ by a few ulps, and so do the
    # parameters of a clipped step.
    CLIPPED_RTOL = 1e-12

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
        # Gradient norms here are O(1): 1e-3 clips every batch, 1e9 none.
        params, losses = self.run_epochs(train_epoch, 1e9)
        want_params, want_losses = self.run_epochs(oracle.train_epoch, 1e9)
        assert losses == want_losses
        np.testing.assert_array_equal(params.view(np.int64), want_params.view(np.int64))
        clipped, clipped_losses = self.run_epochs(train_epoch, 1e-3)
        want_clipped, want_clipped_losses = self.run_epochs(oracle.train_epoch, 1e-3)
        np.testing.assert_allclose(clipped_losses, want_clipped_losses, rtol=self.CLIPPED_RTOL)
        np.testing.assert_allclose(clipped, want_clipped, rtol=self.CLIPPED_RTOL)
        assert not np.allclose(clipped, params)

    def test_overflowing_square_clips_as_oracle(self, rng, monkeypatch):
        # Finite entries whose squared norm overflows although the norm
        # (about 1e301) does not: the step is clipped to clip_norm.
        model = init_model({"vis": 6}, {"txt": 5}, d=4, heads=1, seed=0)
        model.params[::4] = -0.0
        loss = filled_step_loss(model, 1e300)
        grad = loss()[1].to_vector(model)
        want = model.params.copy()
        with np.errstate(over="ignore"):
            assert np.isinf(np.sum(grad * grad))
        oracle.sgd_step(want, grad, 0.1, 5.0)
        monkeypatch.setattr(trainer, "bnl_loss", loss)
        before = model.params.copy()
        train_epoch(model, toy_triplets(rng, n=2), TrainConfig(batch_size=2, learning_rate=0.1), 0)
        np.testing.assert_allclose(model.params, want, rtol=self.CLIPPED_RTOL)
        assert np.linalg.norm(before - model.params) == pytest.approx(0.1 * 5.0, rel=1e-12)

    def test_overflowing_norm_steps_by_zero_as_oracle(self, rng, monkeypatch):
        # Finite entries whose norm overflows: the clip factor is
        # clip / inf = 0, as in the one-expression step, signed zeros and all.
        model = init_model({"vis": 6}, {"txt": 5}, d=4, heads=1, seed=0)
        model.params[::4] = -0.0
        loss = filled_step_loss(model, -1e308)
        grad = loss()[1].to_vector(model)
        want = model.params.copy()
        assert np.all(np.isfinite(grad)) and oracle.vector_norm(grad) == np.inf
        oracle.sgd_step(want, grad, 0.1, 5.0)
        monkeypatch.setattr(trainer, "bnl_loss", loss)
        assert _grad_norm(loss()[1]) == np.inf
        train_epoch(model, toy_triplets(rng, n=2), TrainConfig(batch_size=2, learning_rate=0.1), 0)
        np.testing.assert_array_equal(model.params.view(np.int64), want.view(np.int64))

    def test_overflowing_formed_gradient_refused(self, rng, monkeypatch):
        # Finite one-row factors whose product, a formed weight gradient's
        # entry, is 1e400: refused with the batch named, as the oracle
        # refuses a non-finite gradient, before any parameter changes, and
        # with no floating-point warning on the way.
        model = init_model({"vis": 6}, {"txt": 5}, d=4, heads=1, seed=0)
        loss = filled_step_loss(model, 0.5)
        dz, x = loss()[1].terms[0]
        dz[...] = x[...] = 1e200
        monkeypatch.setattr(trainer, "bnl_loss", loss)
        before = model.params.copy()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _grad_norm(loss()[1]) == np.inf
            with pytest.raises(TrainingError, match="epoch 0, batch 0"):
                train_epoch(model, toy_triplets(rng, n=2), TrainConfig(batch_size=2), 0)
        np.testing.assert_array_equal(model.params, before)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("where", [0, 1, -1], ids=["weight-dz", "weight-x", "attention"])
    def test_nonfinite_element_refused(self, rng, monkeypatch, bad, where):
        # Refused with the batch named, before any parameter changes, and
        # with no floating-point warning on the way.
        model = init_model({"vis": 6}, {"txt": 5}, d=4, heads=1, seed=0)
        loss = filled_step_loss(model, 0.5)
        terms = loss()[1].terms
        if where == -1:
            terms[-1][2] = bad
        else:
            terms[0][where][0, 1] = bad
        monkeypatch.setattr(trainer, "bnl_loss", loss)
        before = model.params.copy()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isnan(_grad_norm(GradFactors(terms)))
            with pytest.raises(TrainingError, match="epoch 0, batch 0"):
                train_epoch(model, toy_triplets(rng, n=2), TrainConfig(batch_size=2), 0)
        np.testing.assert_array_equal(model.params, before)

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
        with pytest.raises(TrainingError, match="epoch 0, batch 1"):
            train_epoch(model, toy_triplets(rng, n=8), TrainConfig(batch_size=3), 0)
        assert np.isfinite(calls[1])


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


def exact_square_and_bound(terms) -> tuple[Fraction, Fraction]:
    """The exact squared norm of the gradient that terms stand for, and
    Σ c·u·S² over the terms, the bound on the Gram norm's error in it: for
    a weight's (dz, x) of shapes (n, d) and (n, m), S = Σ_r ‖dz_r‖·‖x_r‖ and
    c = 2·(n² + d + m + 4), which covers the Grams' rounding (d and m), the
    sum of their n² products, and the fsum, square root and comparison (4);
    for a vector v, S = ‖v‖ and c = 2·(len(v) + 4)."""
    u = Fraction(2) ** -53
    square = Fraction(0)
    bound = Fraction(0)
    for term in terms:
        if isinstance(term, tuple):
            dz, x = term
            fz = [[Fraction(float(a)) for a in row] for row in dz]
            fx = [[Fraction(float(a)) for a in row] for row in x]
            for i in range(dz.shape[1]):
                for j in range(x.shape[1]):
                    square += sum(rz[i] * rx[j] for rz, rx in zip(fz, fx)) ** 2
            s = sum(math.hypot(*rz) * math.hypot(*rx) for rz, rx in zip(dz, x))
            c = 2 * (dz.shape[0] ** 2 + dz.shape[1] + x.shape[1] + 4)
        else:
            square += sum(Fraction(float(a)) ** 2 for a in term)
            s = math.hypot(*term)
            c = 2 * (term.size + 4)
        bound += c * u * Fraction(s) ** 2
    return square, bound


class TestFactoredStep:
    """train_epoch steps straight from bnl_loss's factors and clips by the
    Gram norm, _grad_norm, the Frobenius norm of the gradient over all
    parameters. An unclipped step is bit for bit the formed vector's; a
    clipped one differs from a clip by the formed vector's norm only by the
    few ulps between the two norms."""

    @staticmethod
    def one_batch(clip_at):
        """A model, its training set of one batch and a config whose
        clip_norm is clip_at(the trainer's norm of that batch's gradient)."""
        rng = np.random.default_rng(7)
        model = randomized_model({"a": 7, "b": 5}, {"t": 6, "u": 4}, d=8, heads=2, seed=40)
        model.params[::5] = -0.0
        triplets = make_batch(rng, model, 6, [b % 3 != 0 for b in range(6)])
        cfg = TrainConfig(batch_size=6, learning_rate=0.3, seed=3)
        order = np.random.default_rng([cfg.seed, 0]).permutation(len(triplets))
        _, factors = trainer.bnl_loss(model, [triplets[i] for i in order], cfg.margins, factored=True)
        cfg.clip_norm = clip_at(_grad_norm(factors))
        return model, triplets, cfg

    @pytest.mark.parametrize("clip_at, clips", [
        (lambda norm: norm, False),
        (lambda norm: np.nextafter(norm, 0.0), True),
        (lambda norm: np.nextafter(norm, np.inf), False),
        (lambda norm: norm * (1 - 1e-9), True),
        (lambda norm: norm * (1 + 1e-9), False),
    ], ids=["norm", "below", "above", "1-1e-9", "1+1e-9"])
    def test_clip_norm_at_the_gradient_norm_steps_as_oracle(self, clip_at, clips):
        model, triplets, cfg = self.one_batch(clip_at)
        want = model.with_vector(model.params)
        unclipped = model.with_vector(model.params)
        want_loss = oracle.train_epoch(want, triplets, cfg, 0)
        oracle.train_epoch(unclipped, triplets, replace(cfg, clip_norm=np.inf), 0)
        assert train_epoch(model, triplets, cfg, 0) == want_loss
        if clips:
            np.testing.assert_allclose(model.params, want.params, rtol=TestSgdStep.CLIPPED_RTOL)
            assert not np.array_equal(model.params, unclipped.params)
        else:
            np.testing.assert_array_equal(model.params.view(np.int64), unclipped.params.view(np.int64))

    @pytest.mark.parametrize("clip_norm", [1e9, 1e-3])
    def test_epoch_allocates_less_than_the_parameters(self, rng, monkeypatch, clip_norm):
        # 256 * (3 * (1024 + 1) + 1 + 768 + 1 + 256 + 1 + 1) = 1050368
        # float64, 8.4 MB; the largest weight, the scratch, is 2.1 MB. No
        # gradient vector is formed, whether the steps clip (1e-3) or not.
        model = init_model({"a": 1024, "b": 1024, "c": 1024}, {"t": 768, "u": 256}, d=256, heads=1)
        triplets = make_batch(rng, model, 8, [b % 2 == 0 for b in range(8)])
        cfg = TrainConfig(batch_size=4, clip_norm=clip_norm)
        scales = []
        real_step = trainer._step

        def step(model, factors, lr, scale, scratch):
            scales.append(scale)
            real_step(model, factors, lr, scale, scratch)

        monkeypatch.setattr(trainer, "_step", step)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            train_epoch(model, triplets, cfg, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        if clip_norm < 1:
            assert len(scales) == 2 and all(scale < 1.0 for scale in scales)
        else:
            assert scales == [1.0, 1.0]
        assert model.params.nbytes == 1050368 * 8
        assert peak < model.params.nbytes

    @given(terms=factor_terms(), poison=st.sampled_from([None, np.inf, -np.inf, np.nan]),
           where=st.integers(0, 10**6))
    def test_gram_norm_is_the_gradient_norm(self, terms, poison, where):
        # Compared with the exact norm in rational arithmetic: |norm² - ‖G‖²|
        # is at most Σ c·u·S² (exact_square_and_bound). The Grams see no
        # underflow, as every factor is scaled to a largest magnitude in
        # [0.5, 1) first, so the bound needs no absolute term at any scale.
        if poison is not None:
            arrays = [a for t in terms for a in (t if isinstance(t, tuple) else (t,))]
            array = arrays[where % len(arrays)]
            array.flat[where % array.size] = poison
        norm = _grad_norm(GradFactors(terms))
        if poison is not None:
            assert math.isnan(norm)
            return
        assert math.isfinite(norm)
        square, bound = exact_square_and_bound(terms)
        assert abs(Fraction(norm) ** 2 - square) <= bound


class TestStepOnWorkers:
    """_step's arrays on run_tasks' workers, in parts of one
    largest-array scratch: the serial loop's bits and errors, with every
    helper joined."""

    @staticmethod
    def factored(rng, model=None):
        """A model and one batch's gradient factors. By default, weights of 8
        x 48, 30, 20, 12 and 8 entries: the larger ones step on the caller,
        and more of them as the scratch's parts shrink. The loss runs with
        one worker, so that it starts no thread."""
        if model is None:
            model = randomized_model(
                {"a": 48, "b": 20, "c": 8}, {"t": 30, "u": 12}, d=8, heads=2, seed=43
            )
        batch = make_batch(rng, model, 6, [b % 2 == 0 for b in range(6)])
        with mock.patch.object(fusion, "WORKERS", 1):
            _, factors = trainer.bnl_loss(model, batch, Margins(), factored=True)
        return model, factors

    @staticmethod
    def scratch(model) -> np.ndarray:
        return np.empty(max(p.size for _, p in named_parameters(model.heads)))

    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    @pytest.mark.parametrize("clip_norm", [np.inf, 1e-3], ids=["unclipped", "clipped"])
    def test_steps_as_the_formed_vector(self, rng, monkeypatch, started_threads, workers, clip_norm):
        # Each formed gradient waits 5 ms before it is scaled, so that two
        # workers that shared scratch memory would overwrite each other's.
        model, factors = self.factored(rng)
        scale = min(clip_norm / _grad_norm(factors), 1.0)
        grad = factors.to_vector(model)
        grad *= scale
        want = model.params - grad * 0.3
        real_form = trainer.form_gradient

        def slow_form(term, out):
            real_form(term, out)
            time.sleep(0.005)
            return out

        monkeypatch.setattr(trainer, "form_gradient", slow_form)
        monkeypatch.setattr(fusion, "WORKERS", workers)
        _step(model, factors, 0.3, scale, self.scratch(model))
        assert model.params.tobytes() == want.tobytes()
        assert len(started_threads) == workers - 1
        assert_all_joined(started_threads)

    def test_stress_more_workers_than_cpus(self, rng, monkeypatch, started_threads):
        # Eight workers, a switch interval of 1 us, and arrays of 8 x 64
        # down to 8 entries: every array but the largest steps in one of
        # eight 64-entry parts, and a part written by two workers, or an
        # array stepped twice or not at all, would change the bits.
        model, factors = self.factored(rng, randomized_model(
            {"a": 64, "b": 8, "c": 6, "d": 5, "e": 4}, {"t": 7, "u": 3}, d=8, heads=2, seed=44
        ))
        want = model.params - factors.to_vector(model) * 0.3
        monkeypatch.setattr(fusion, "WORKERS", 8)
        result = {}

        def call():
            try:
                _step(model, factors, 0.3, 1.0, self.scratch(model))
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
        assert len(started_threads) == 7
        assert_all_joined(started_threads)
        assert model.params.tobytes() == want.tobytes()

    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    def test_the_first_failed_array_wins(self, rng, monkeypatch, started_threads, workers):
        # Arrays go largest first; the ninth and tenth (head 0's and head 1's
        # 8 x 8 weight) fit in a part of the scratch for any worker count
        # here. The tenth fails at once, the ninth only after 200 ms: the
        # caller sees the ninth's error, the one the serial loop raises.
        model, factors = self.factored(rng)
        sizes = [p.size for _, p in named_parameters(model.heads)]
        order = sorted(range(len(sizes)), key=lambda i: -sizes[i])
        rank = {id(factors.terms[i]): r for r, i in enumerate(order)}
        assert sizes[order[8]] == sizes[order[9]] == 8 * 8
        real_form = trainer.form_gradient

        def form(term, out):
            r = rank[id(term)]
            if r == 8:
                time.sleep(0.2)
            if r in (8, 9):
                raise MemoryError(f"array {r}")
            return real_form(term, out)

        monkeypatch.setattr(trainer, "form_gradient", form)
        monkeypatch.setattr(fusion, "WORKERS", workers)
        with pytest.raises(MemoryError, match="^array 8$"):
            _step(model, factors, 0.3, 1.0, self.scratch(model))
        assert len(started_threads) == workers - 1
        assert_all_joined(started_threads)


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

    def test_assigned_model_trains(self, rng, tmp_path):
        # Assignment writes into params, so fit steps what the forward reads.
        triplets = toy_triplets(rng)
        model = init_model({"vis": 6}, {"txt": 5}, d=4, heads=1, seed=0)
        head = model.heads[0]
        head.text.transforms["txt"] = LinearTanhParams(rng.normal(size=(4, 5)), rng.normal(size=4))
        head.video.attention = rng.normal(size=4).astype(np.float32)
        assigned = model.params.copy()
        log = tmp_path / "train.log"
        trained, report = fit(model, triplets, make_validation(triplets),
                              TrainConfig(epochs=2, batch_size=3), discard, log_file=log)
        assert trained is model and len(report.epochs) == 2
        assert len(log.read_text().splitlines()) == 2
        assert not np.array_equal(model.params, assigned)
        for place, array in named_parameters(model.heads):
            assert np.shares_memory(array, model.params), place
        # The trained model scores like one built afresh on its vector.
        video, text = triplets[0].video, triplets[0].caption_features
        rebuilt = model.with_vector(model.params)
        assert similarity(model, video, text) == similarity(rebuilt, video, text)

    def test_peak_memory_is_two_parameter_vectors(self, rng, tmp_path):
        # The parameter vector dominates: 256 * (3072 + 768 + 4) = 984064
        # float64, 7.9 MB. fit holds the model's vector and, in each epoch,
        # the 6.3 MB scratch of the steps, plus the features and small
        # per-batch temporaries; the checkpoint that on_best saves writes the
        # model's arrays without copying them.
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
