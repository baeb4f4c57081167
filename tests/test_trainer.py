import tracemalloc

import numpy as np
import pytest

import per_item_oracle as oracle
from avsearch import trainer
from avsearch.errors import ConfigError, DimensionError, TrainingError
from avsearch.evaluation import JudgmentSet
from avsearch.featio import checkpoint_load, checkpoint_save
from avsearch.fusion import FeatureBundle, init_model
from avsearch.manifest import build_triplets, load_dataset, load_manifest
from avsearch.negation import Caption, Margins, Triplet, hardest_negatives
from avsearch.numeric import LinearTanhParams
from avsearch.synth import SpaceSpec, synth_dataset
from avsearch.trainer import (
    TrainConfig,
    ValidationSet,
    _sgd_step,
    evaluate_validation,
    fit,
    train_epoch,
)

from conftest import randomized_model
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

    def test_inf_gradient_with_finite_loss_aborts_with_batch_id(self, rng, monkeypatch):
        calls = []
        real_bnl_loss = trainer.bnl_loss

        def inf_on_second_batch(model, batch, m, out):
            loss, grad = real_bnl_loss(model, batch, m, out=out)
            calls.append(loss)
            if len(calls) == 2:
                grad[3] = np.inf
            return loss, grad

        monkeypatch.setattr(trainer, "bnl_loss", inf_on_second_batch)
        model = init_model({"vis": 6}, {"txt": 5}, d=4, heads=1, seed=0)
        with pytest.raises(TrainingError, match="epoch 0, batch 1"):
            train_epoch(model, toy_triplets(rng, n=8), TrainConfig(batch_size=3), 0)
        assert np.isfinite(calls[1])


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
        # float64, 7.9 MB. fit holds the model's vector and one gradient,
        # plus the features and small per-batch temporaries; the checkpoint
        # that on_best saves writes the model's arrays without copying them.
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


class TestEvaluateValidation:
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
