import numpy as np
import pytest

from avsearch.errors import ConfigError, TrainingError
from avsearch.evaluation import JudgmentSet
from avsearch.fusion import FeatureBundle, init_model
from avsearch.manifest import build_triplets, load_dataset, load_manifest
from avsearch.negation import Caption, Margins, Triplet, hardest_negatives
from avsearch.synth import SpaceSpec, synth_dataset
from avsearch.trainer import (
    TrainConfig,
    ValidationSet,
    evaluate_validation,
    fit,
    train_epoch,
)


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
        updated, _ = train_epoch(model, triplets, cfg, 0)
        np.testing.assert_array_equal(updated.to_vector(), before)

    def test_input_model_left_unchanged(self, rng):
        triplets = toy_triplets(rng)
        model = init_model({"vis": 6}, {"txt": 5}, d=4, heads=1, seed=0)
        before = model.to_vector()
        cfg = TrainConfig(learning_rate=0.5, batch_size=3, epochs=1)
        updated, _ = train_epoch(model, triplets, cfg, 0)
        np.testing.assert_array_equal(model.to_vector(), before)
        assert not np.array_equal(updated.to_vector(), before)

    def test_deterministic_given_seed(self, rng):
        triplets = toy_triplets(rng)
        cfg = TrainConfig(learning_rate=0.05, batch_size=3, seed=11)
        losses1, losses2 = [], []
        for losses in (losses1, losses2):
            model = init_model({"vis": 6}, {"txt": 5}, d=4, heads=1, seed=0)
            for e in range(3):
                model, loss = train_epoch(model, triplets, cfg, e)
                losses.append(loss)
        assert losses1 == losses2

    def test_loss_nonincreasing_on_repeated_separable_batch(self, rng):
        # One fixed batch, small lr: full-batch subgradient descent on the
        # separable toy must not increase the loss across 50 steps.
        triplets = toy_triplets(rng, n=4)
        model = init_model({"vis": 6}, {"txt": 5}, d=8, heads=1, seed=1)
        cfg = TrainConfig(learning_rate=0.02, batch_size=4, seed=0, lr_decay=1.0)
        losses = []
        for _ in range(50):
            model, loss = train_epoch(model, triplets, cfg, 0)  # same shuffle seed
            losses.append(loss)
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


def make_validation(triplets) -> ValidationSet:
    queries = [t.caption_features for t in triplets]
    corpus = [t.video for t in triplets]
    judgments = JudgmentSet(
        {t.caption_features.item_id: {t.video.item_id: 1} for t in triplets}
    )
    return ValidationSet(queries, corpus, judgments)


class TestFit:
    def test_single_epoch_best_is_one(self, rng):
        triplets = toy_triplets(rng)
        model = init_model({"vis": 6}, {"txt": 5}, d=4, heads=1, seed=0)
        cfg = TrainConfig(epochs=1, batch_size=3)
        _, report = fit(model, triplets, make_validation(triplets), cfg)
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
        _, report = fit(model, triplets, make_validation(triplets), cfg)
        assert report.best_epoch == 2
        assert report.best_score == 0.5
        assert [e.validation_score for e in report.epochs] == [0.3, 0.5, 0.4]

    def test_identical_seeds_identical_reports(self, rng):
        triplets = toy_triplets(rng)
        val = make_validation(triplets)

        def run():
            model = init_model({"vis": 6}, {"txt": 5}, d=4, heads=2, seed=3)
            _, report = fit(model, triplets, val, TrainConfig(epochs=3, batch_size=3, seed=7))
            return (
                [(e.train_loss, e.validation_score) for e in report.epochs],
                report.best_epoch,
                report.best_model.to_vector(),
            )

        stats1, best1, vec1 = run()
        stats2, best2, vec2 = run()
        assert stats1 == stats2 and best1 == best2
        np.testing.assert_array_equal(vec1, vec2)

    def test_parameters_stay_finite(self, rng):
        triplets = toy_triplets(rng)
        model = init_model({"vis": 6}, {"txt": 5}, d=4, heads=1, seed=0)
        cfg = TrainConfig(epochs=5, batch_size=3, learning_rate=0.5)
        trained, report = fit(model, triplets, make_validation(triplets), cfg)
        assert np.all(np.isfinite(trained.to_vector()))
        assert np.all(np.isfinite(report.best_model.to_vector()))

    def test_log_file_lines(self, rng, tmp_path):
        triplets = toy_triplets(rng)
        model = init_model({"vis": 6}, {"txt": 5}, d=4, heads=1, seed=0)
        log = tmp_path / "train.log"
        cfg = TrainConfig(epochs=2, batch_size=3)
        _, report = fit(model, triplets, make_validation(triplets), cfg, log_file=log)
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
        _, report = fit(model, triplets, validation, cfg)
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
