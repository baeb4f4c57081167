import json

import numpy as np
import pytest

from avsearch import cli, fusion, manifest, trainer
from avsearch.cli import main
from avsearch.errors import TrainingError
from avsearch.evaluation import read_run
from avsearch.featio import checkpoint_load, checkpoint_save, write_features
from avsearch.fusion import init_model

from conftest import (
    assert_all_joined,
    huge_d_checkpoint,
    randomized_model,
    write_unchecked_features,
)


def run_cli(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def no_file_reads(monkeypatch):
    """Make reading a run or a feature file through the CLI fail the test."""

    def refuse(path, *args):
        raise AssertionError(f"{path} was read")

    monkeypatch.setattr(cli, "read_run", refuse)
    monkeypatch.setattr(cli, "read_features", refuse)


def synth_args(out, seed=0, n_videos=12, negate=0.0, noise=0.02):
    return [
        "synth", "--out", out, "--seed", seed,
        "--n-videos", n_videos, "--n-captions-per", 2, "--latent-dim", 4,
        "--video-space", f"visa:10:{noise}", "--video-space", f"visb:6:{noise}",
        "--text-space", f"txta:8:{noise}", "--text-space", f"txtb:6:{noise}",
        "--negate-fraction", negate,
    ]


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    assert run_cli(*synth_args(out)) == 0
    return out


@pytest.fixture(scope="module")
def trained(tmp_path_factory, synth_dir):
    out = tmp_path_factory.mktemp("train")
    cfg = out / "cfg.ini"
    cfg.write_text(
        "[model]\nd = 8\nheads = 2\n"
        "[train]\nepochs = 3\nbatch_size = 6\nlearning_rate = 0.4\n"
    )
    ckpt = out / "model.ckpt"
    log = out / "train.log"
    code = run_cli(
        "train",
        "--train-manifest", synth_dir / "manifest_train.json",
        "--val-manifest", synth_dir / "manifest_val.json",
        "--config", cfg, "--out", ckpt, "--log", log,
    )
    assert code == 0
    return out


class TestArgHandling:
    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("eval", "--bogus")
        assert exc.value.code == 2

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("frobnicate")
        assert exc.value.code == 2

    def test_missing_file_exits_1(self, capsys):
        assert run_cli("eval", "--run", "/nonexistent/run", "--qrels", "/nonexistent/q") == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("spec, message", [
        ("a:b", "space spec must be name:dim:noise_sigma, got 'a:b'"),
        ("a:x:0.1", "invalid literal for int() with base 10: 'x'"),
    ])
    def test_bad_space_spec_exits_2(self, tmp_path, capsys, spec, message):
        with pytest.raises(SystemExit) as exc:
            run_cli("synth", "--out", tmp_path / "data", "--video-space", spec)
        assert exc.value.code == 2
        assert f"argument --video-space: {message}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_non_utf8_run_exits_1_naming_the_file(self, tmp_path, capsys):
        run = tmp_path / "run.txt"
        run.write_bytes(b"q1 Q0 a 1 0.900000 t\nq1 Q0 \xff 2 0.500000 t\n")
        qrels = tmp_path / "qrels.txt"
        qrels.write_text("q1 0 a 1\n")
        assert run_cli("eval", "--run", run, "--qrels", qrels) == 1
        err = capsys.readouterr().err
        assert f"error: {run}:2: invalid UTF-8" in err

    def test_id_the_writer_refuses_exits_1_naming_the_line(self, tmp_path, capsys):
        run = tmp_path / "run.txt"
        run.write_text("q1 Q0 a 1 0.900000 t\nq1 Q0  2 0.500000 t\n")
        qrels = tmp_path / "qrels.txt"
        qrels.write_text("q1 0 a 1\n")
        bad_qrels = tmp_path / "bad_qrels.txt"
        bad_qrels.write_text("q1 0 a 1\nq1 0 b\tc 0\n")
        out = tmp_path / "fused.txt"
        assert run_cli("eval", "--run", run, "--qrels", qrels) == 1
        assert f"error: {run}:2: item id ''" in capsys.readouterr().err
        assert run_cli("fuse", "--runs", run, "--weights", 1.0, "--out", out) == 1
        assert f"error: {run}:2: item id ''" in capsys.readouterr().err
        assert not out.exists()
        run.write_text("q1 Q0 a 1 0.900000 t\n")
        assert run_cli("eval", "--run", run, "--qrels", bad_qrels) == 1
        assert f"error: {bad_qrels}:2: item id 'b\\tc'" in capsys.readouterr().err


class TestSynthAndTrain:
    def test_synth_writes_manifests(self, synth_dir, capsys):
        assert (synth_dir / "manifest_train.json").exists()
        assert (synth_dir / "manifest_val.json").exists()

    def test_train_writes_checkpoint_and_log(self, trained):
        ckpt = checkpoint_load(trained / "model.ckpt")
        assert ckpt.d == 8 and ckpt.h == 2
        lines = (trained / "train.log").read_text().splitlines()
        assert len(lines) == 3
        assert all(len(line.split("\t")) == 3 for line in lines)

    def test_train_prints_best_epoch(self, trained, synth_dir, tmp_path, capsys):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[model]\nd = 8\n[train]\nepochs = 2\nbatch_size = 6\n")
        assert run_cli(
            "train",
            "--train-manifest", synth_dir / "manifest_train.json",
            "--val-manifest", synth_dir / "manifest_val.json",
            "--config", cfg, "--out", tmp_path / "m.ckpt",
        ) == 0
        out = capsys.readouterr().out
        assert "best_epoch\t" in out and "best_mAP\t" in out

    def test_train_decodes_each_feature_file_once(self, synth_dir, tmp_path, monkeypatch):
        # The train and val manifests of a synthetic dataset name the same
        # feature files.
        reads = []
        real = manifest.read_features

        def spy(path, keep=None):
            reads.append(path)
            return real(path, keep)

        monkeypatch.setattr(manifest, "read_features", spy)
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[model]\nd = 8\n[train]\nepochs = 1\nbatch_size = 6\n")
        assert run_cli(
            "train",
            "--train-manifest", synth_dir / "manifest_train.json",
            "--val-manifest", synth_dir / "manifest_val.json",
            "--config", cfg, "--out", tmp_path / "m.ckpt",
        ) == 0
        assert sorted(p.name for p in reads) == sorted(p.name for p in synth_dir.glob("*.feat"))
        assert len(reads) == 4

    def test_train_deterministic_checkpoints(self, synth_dir, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[model]\nd = 8\n[train]\nepochs = 2\nbatch_size = 6\n")
        outs = []
        for name in ("a.ckpt", "b.ckpt"):
            assert run_cli(
                "train",
                "--train-manifest", synth_dir / "manifest_train.json",
                "--val-manifest", synth_dir / "manifest_val.json",
                "--config", cfg, "--out", tmp_path / name,
            ) == 0
            outs.append((tmp_path / name).read_bytes())
        assert outs[0] == outs[1]

    def test_training_does_not_depend_on_the_worker_count(
        self, tmp_path, monkeypatch, started_threads
    ):
        # The loss's two heads run on two workers. A step's 8 x 12 weight
        # steps on the caller, and its 8 x 6, 8 x 5, 8 x 3 and 8 x 2 ones in
        # parts of the 8 x 12 scratch, fewer of them as more workers shrink
        # the parts.
        data = tmp_path / "data"
        assert run_cli(
            "synth", "--out", data, "--n-videos", 16, "--latent-dim", 2,
            "--negate-fraction", 0.5,
            "--video-space", "visa:12:0.1", "--video-space", "visb:5:0.1",
            "--video-space", "visc:3:0.1",
            "--text-space", "txta:6:0.1", "--text-space", "txtb:2:0.1",
        ) == 0
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(
            "[model]\nd = 8\nheads = 2\n"
            "[train]\nepochs = 2\nbatch_size = 6\nlearning_rate = 0.4\n"
        )
        outputs = []
        for workers in (1, 2, 4):
            monkeypatch.setattr(fusion, "WORKERS", workers)
            ckpt, log = tmp_path / f"{workers}.ckpt", tmp_path / f"{workers}.log"
            assert run_cli(
                "train",
                "--train-manifest", data / "manifest_train.json",
                "--val-manifest", data / "manifest_val.json",
                "--config", cfg, "--out", ckpt, "--log", log,
            ) == 0
            assert bool(started_threads) == (workers > 1)
            outputs.append((ckpt.read_bytes(), log.read_bytes()))
        assert_all_joined(started_threads)
        assert outputs[0] == outputs[1] == outputs[2]

    def test_failure_in_a_later_epoch_leaves_the_best_finished_epoch(
        self, synth_dir, tmp_path, monkeypatch, capsys
    ):
        scores = iter([0.2, 0.4])
        monkeypatch.setattr(trainer, "evaluate_validation", lambda *a, **k: next(scores))
        epoch_ends = []
        real_epoch = trainer.train_epoch

        def failing_third_epoch(model, dataset, cfg, epoch_index):
            if epoch_index == 2:
                raise TrainingError("non-finite loss in epoch 2, batch 0 (captions [])")
            loss = real_epoch(model, dataset, cfg, epoch_index)
            epoch_ends.append(model.params.copy())
            return loss

        monkeypatch.setattr(trainer, "train_epoch", failing_third_epoch)
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[model]\nd = 8\n[train]\nepochs = 3\nbatch_size = 6\n")
        ckpt = tmp_path / "m.ckpt"
        assert run_cli(
            "train",
            "--train-manifest", synth_dir / "manifest_train.json",
            "--val-manifest", synth_dir / "manifest_val.json",
            "--config", cfg, "--out", ckpt, "--log", tmp_path / "train.log",
        ) == 1
        assert "epoch 2, batch 0" in capsys.readouterr().err
        np.testing.assert_array_equal(checkpoint_load(ckpt).params, epoch_ends[1])
        assert not np.array_equal(epoch_ends[0], epoch_ends[1])
        assert len((tmp_path / "train.log").read_text().splitlines()) == 2
        assert sorted(f.name for f in tmp_path.iterdir()) == ["cfg.ini", "m.ckpt", "train.log"]

    @pytest.mark.parametrize("exc, detail", [
        (MemoryError("Unable to allocate 38.1 MiB for an array with shape (4987904,)"),
         ": Unable to allocate 38.1 MiB for an array with shape (4987904,)"),
        (MemoryError(), ""),
    ], ids=["numpy", "bare"])
    def test_out_of_memory_exits_1(self, synth_dir, tmp_path, monkeypatch, capsys, exc, detail):
        def exhausted(*args):
            raise exc

        monkeypatch.setattr(trainer, "train_epoch", exhausted)
        ckpt = tmp_path / "m.ckpt"
        assert run_cli(
            "train",
            "--train-manifest", synth_dir / "manifest_train.json",
            "--val-manifest", synth_dir / "manifest_val.json",
            "--out", ckpt,
        ) == 1
        assert capsys.readouterr().err == f"error: out of memory in train{detail}\n"
        assert not ckpt.exists()

    def test_validation_manifest_without_qrels_exits_1(self, synth_dir, tmp_path, capsys):
        raw = json.loads((synth_dir / "manifest_val.json").read_text())
        del raw["qrels"]
        val = tmp_path / "val.json"
        val.write_text(json.dumps({
            key: [str(synth_dir / p) for p in value] if isinstance(value, list) else str(synth_dir / value)
            for key, value in raw.items()
        }))
        out = tmp_path / "model.ckpt"
        assert run_cli(
            "train", "--train-manifest", synth_dir / "manifest_train.json",
            "--val-manifest", val, "--out", out,
        ) == 1
        assert capsys.readouterr().err == f"error: {val}: validation manifest has no qrels\n"
        assert not out.exists()

    def test_finetune_from_checkpoint(self, trained, synth_dir, tmp_path):
        assert run_cli(
            "train",
            "--train-manifest", synth_dir / "manifest_train.json",
            "--val-manifest", synth_dir / "manifest_val.json",
            "--init-checkpoint", trained / "model.ckpt",
            "--out", tmp_path / "m2.ckpt",
        ) == 0
        assert (tmp_path / "m2.ckpt").exists()


class TestSearchEvalPipeline:
    def search(self, synth_dir, trained, out, tag="mytag"):
        return run_cli(
            "search", "--checkpoint", trained / "model.ckpt",
            "--video-feats", synth_dir / "video_visa.feat", synth_dir / "video_visb.feat",
            "--query-feats", synth_dir / "text_txta.feat", synth_dir / "text_txtb.feat",
            "--out", out, "--top-k", 12, "--run-tag", tag,
        )

    def test_corrupt_checkpoint_header_exits_1(self, synth_dir, tmp_path, capsys):
        ckpt = tmp_path / "huge.ckpt"
        huge_d_checkpoint(ckpt)
        code = run_cli(
            "search", "--checkpoint", ckpt,
            "--video-feats", synth_dir / "video_visa.feat",
            "--query-feats", synth_dir / "text_txta.feat",
            "--out", tmp_path / "run.txt",
        )
        assert code == 1
        assert "truncated while reading parameters" in capsys.readouterr().err

    def test_nan_video_feature_exits_1_naming_the_video(self, tmp_path, capsys):
        model = randomized_model({"vis": 3}, {"txt": 2}, d=4, heads=1, seed=8)
        ckpt = tmp_path / "m.ckpt"
        checkpoint_save(model, ckpt)
        write_unchecked_features(tmp_path / "v.feat", "vis", {
            "v1": np.array([1.0, 0.0, 0.5]), "v2": np.array([0.0, 1.0, 0.5]),
            "vnan": np.array([0.2, np.nan, 0.1]),
        })
        write_features(tmp_path / "q.feat", "txt", {"q1": np.array([0.3, 0.7])})
        out = tmp_path / "run.txt"
        code = run_cli(
            "search", "--checkpoint", ckpt, "--video-feats", tmp_path / "v.feat",
            "--query-feats", tmp_path / "q.feat", "--out", out, "--top-k", 2,
        )
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {tmp_path / 'v.feat'}: non-finite value nan in record 'vnan'\n"
        )
        assert not out.exists()

    def test_nan_checkpoint_parameter_exits_1_naming_the_checkpoint(self, tmp_path, capsys):
        model = init_model({"vis": 3}, {"txt": 2}, d=4, heads=1, seed=0)
        model.params[13] = np.nan  # the video branch's bias b[1]: W (4, 3) comes first
        ckpt = tmp_path / "nan.ckpt"
        checkpoint_save(model, ckpt)
        write_features(tmp_path / "v.feat", "vis", {
            f"v{i}": np.array([1.0, 0.5 * i, 0.2]) for i in range(5)
        })
        write_features(tmp_path / "q.feat", "txt", {
            "q0": np.array([0.3, 0.7]), "q1": np.array([0.9, 0.1]),
        })
        out = tmp_path / "run.txt"
        code = run_cli(
            "search", "--checkpoint", ckpt, "--video-feats", tmp_path / "v.feat",
            "--query-feats", tmp_path / "q.feat", "--out", out,
        )
        assert code == 1
        err = capsys.readouterr().err
        assert f"{ckpt}: non-finite parameter nan at head 0, video branch, space 'vis' b[1]" in err
        assert not out.exists()

    def unreadable_id_search(self, tmp_path, item_id="v1", tag="t"):
        model = randomized_model({"vis": 3}, {"txt": 2}, d=4, heads=1, seed=8)
        checkpoint_save(model, tmp_path / "m.ckpt")
        write_features(tmp_path / "v.feat", "vis", {
            item_id: np.array([1.0, 0.0, 0.5]), "v2": np.array([0.0, 1.0, 0.5]),
        })
        write_features(tmp_path / "q.feat", "txt", {"q1": np.array([0.3, 0.7])})
        return run_cli(
            "search", "--checkpoint", tmp_path / "m.ckpt", "--video-feats", tmp_path / "v.feat",
            "--query-feats", tmp_path / "q.feat", "--out", tmp_path / "run.txt",
            "--run-tag", tag,
        )

    def test_feature_dim_other_than_the_checkpoints_exits_1(self, tmp_path, capsys):
        checkpoint_save(randomized_model({"vis": 3}, {"txt": 2}, d=4, heads=1, seed=8), tmp_path / "m.ckpt")
        write_features(tmp_path / "v.feat", "vis", {"v1": np.ones(4), "v2": np.zeros(4)})
        write_features(tmp_path / "q.feat", "txt", {"q1": np.array([0.3, 0.7])})
        out = tmp_path / "run.txt"
        assert run_cli(
            "search", "--checkpoint", tmp_path / "m.ckpt", "--video-feats", tmp_path / "v.feat",
            "--query-feats", tmp_path / "q.feat", "--out", out,
        ) == 1
        assert capsys.readouterr().err == (
            "error: input table (2, 4) for space 'vis' does not match 2 rows of weight columns 3\n"
        )
        assert not out.exists()

    def test_no_query_in_every_text_space_exits_1(self, tmp_path, capsys):
        checkpoint_save(
            randomized_model({"vis": 3}, {"ta": 2, "tb": 2}, d=4, heads=1, seed=8), tmp_path / "m.ckpt"
        )
        write_features(tmp_path / "v.feat", "vis", {"v1": np.ones(3)})
        write_features(tmp_path / "ta.feat", "ta", {"q1": np.ones(2)})
        write_features(tmp_path / "tb.feat", "tb", {"q2": np.ones(2)})
        out = tmp_path / "run.txt"
        assert run_cli(
            "search", "--checkpoint", tmp_path / "m.ckpt", "--video-feats", tmp_path / "v.feat",
            "--query-feats", tmp_path / "ta.feat", tmp_path / "tb.feat", "--out", out,
        ) == 1
        assert capsys.readouterr().err == "error: no query has features in every text space\n"
        assert not out.exists()

    def test_item_id_with_space_exits_1_and_writes_no_run(self, tmp_path, capsys):
        # Its line would have 7 fields, which read_run (and eval) reject.
        assert self.unreadable_id_search(tmp_path, item_id="a 1") == 1
        assert "item id 'a 1'" in capsys.readouterr().err
        assert not (tmp_path / "run.txt").exists()

    def test_run_tag_with_space_exits_1(self, tmp_path, capsys):
        assert self.unreadable_id_search(tmp_path, tag="a b") == 1
        assert "run tag 'a b'" in capsys.readouterr().err
        assert not (tmp_path / "run.txt").exists()

    def test_search_writes_valid_run(self, synth_dir, trained, tmp_path):
        out = tmp_path / "run.txt"
        assert self.search(synth_dir, trained, out) == 0
        run = read_run(out)
        assert run.run_tag == "mytag"
        assert len(run.entries) == 24  # all captions act as queries
        assert all(len(e) == 12 for e in run.entries.values())

    def test_run_does_not_depend_on_the_worker_count(
        self, synth_dir, trained, tmp_path, monkeypatch, started_threads
    ):
        # 2-row blocks: the 12 videos make 6 blocks and the 24 queries 12.
        monkeypatch.setattr(fusion, "BLOCK_ROWS", 2)
        runs = []
        for workers in (1, 4):
            monkeypatch.setattr(fusion, "WORKERS", workers)
            out = tmp_path / f"run{workers}.txt"
            assert self.search(synth_dir, trained, out) == 0
            runs.append(out.read_bytes())
        assert len(started_threads) == 2 + 3  # videos: 3 workers; queries: 4
        assert_all_joined(started_threads)
        assert runs[0] == runs[1]

    def test_end_to_end_determinism(self, synth_dir, trained, tmp_path, capsys):
        r1 = tmp_path / "r1.txt"
        r2 = tmp_path / "r2.txt"
        assert self.search(synth_dir, trained, r1) == 0
        assert self.search(synth_dir, trained, r2) == 0
        assert r1.read_bytes() == r2.read_bytes()
        capsys.readouterr()
        assert run_cli("eval", "--run", r1, "--qrels", synth_dir / "qrels_val.txt") == 0
        out1 = capsys.readouterr().out
        assert run_cli("eval", "--run", r2, "--qrels", synth_dir / "qrels_val.txt") == 0
        out2 = capsys.readouterr().out
        assert out1 == out2 and "mAP\t" in out1

    def test_eval_prints_hand_ap(self, tmp_path, capsys):
        run = tmp_path / "run.txt"
        run.write_text(
            "q1 Q0 a 1 0.900000 t\nq1 Q0 b 2 0.500000 t\nq1 Q0 c 3 0.300000 t\n"
        )
        qrels = tmp_path / "qrels.txt"
        qrels.write_text("q1 0 a 1\nq1 0 b 0\nq1 0 c 1\n")
        assert run_cli("eval", "--run", run, "--qrels", qrels) == 0
        out = capsys.readouterr().out
        assert "mAP\t0.8333" in out
        assert "infAP\t" in out

    def test_eval_per_query(self, tmp_path, capsys):
        run = tmp_path / "run.txt"
        run.write_text("q1 Q0 a 1 0.900000 t\n")
        qrels = tmp_path / "qrels.txt"
        qrels.write_text("q1 0 a 1\n")
        assert run_cli("eval", "--run", run, "--qrels", qrels, "--per-query") == 0
        out = capsys.readouterr().out
        assert "AP\tq1\t1.0000" in out


class TestFuse:
    def test_single_run_identity(self, tmp_path):
        src = tmp_path / "in.txt"
        src.write_text(
            "q1 Q0 a 1 0.900000 t\nq1 Q0 b 2 0.500000 t\nq1 Q0 c 3 0.300000 t\n"
        )
        out = tmp_path / "out.txt"
        assert run_cli("fuse", "--runs", src, "--weights", 1.0, "--out", out) == 0
        fused = read_run(out)
        assert [i for i, _ in fused.entries["q1"]] == ["a", "b", "c"]
        assert fused.run_tag == "fusion"

    def test_finite_scores_whose_range_overflows(self, tmp_path):
        src = tmp_path / "in.txt"
        src.write_text("q1 Q0 a 1 1e308 t\nq1 Q0 b 2 0 t\nq1 Q0 c 3 -1e308 t\n")
        out = tmp_path / "out.txt"
        assert run_cli("fuse", "--runs", src, src, "--weights", 1.0, 1.0, "--out", out) == 0
        assert read_run(out).entries["q1"] == [("a", 2.0), ("b", 1.0), ("c", 0.0)]

    def test_weight_count_mismatch(self, tmp_path, capsys, monkeypatch):
        # Refused before any run is read.
        src = tmp_path / "in.txt"
        src.write_text("q1 Q0 a 1 0.900000 t\n")
        reads = []
        real_read_run = cli.read_run

        def counted(path):
            reads.append(path)
            return real_read_run(path)

        monkeypatch.setattr(cli, "read_run", counted)
        assert run_cli("fuse", "--runs", src, "--weights", 1.0, 0.5,
                       "--out", tmp_path / "o.txt") == 1
        assert capsys.readouterr().err == "error: 1 runs but 2 weights\n"
        assert reads == []
        assert not (tmp_path / "o.txt").exists()

    @pytest.mark.parametrize("weights, message", [
        (["nan", 1], "weight nan is not finite and nonnegative"),
        ([1e308, 1e308], "weights [1e+308, 1e+308] sum to inf, which is not finite"),
    ])
    def test_bad_weights_exit_1_before_any_run_is_read(self, tmp_path, capsys, no_file_reads, weights, message):
        out = tmp_path / "o.txt"
        assert run_cli("fuse", "--runs", tmp_path / "a.txt", tmp_path / "b.txt",
                       "--weights", *weights, "--out", out) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


class TestRerankCli:
    def write_inputs(self, tmp_path):
        run = tmp_path / "run.txt"
        run.write_text(
            "q Q0 A 1 10.000000 t\nq Q0 B 2 5.000000 t\nq Q0 C 3 0.000000 t\n"
        )
        frames = tmp_path / "frames.feat"

        def unit(c):
            return np.array([c, np.sqrt(1 - c * c)])

        write_features(frames, "fr", {"A#0": unit(0.1), "B#0": unit(0.9), "C#0": unit(0.8)})
        qf = tmp_path / "qf.feat"
        write_features(qf, "fr", {"q": np.array([1.0, 0.0])})
        return run, frames, qf

    def test_hand_case_through_cli(self, tmp_path):
        run, frames, qf = self.write_inputs(tmp_path)
        out = tmp_path / "out.txt"
        assert run_cli(
            "rerank", "--run", run, "--frames", frames, "--query-feats", qf,
            "--out", out, "--w-new", 0.6, "--w-old", 0.4,
        ) == 0
        result = read_run(out)
        assert [i for i, _ in result.entries["q"]] == ["B", "C", "A"]
        scores = dict(result.entries["q"])
        assert scores["B"] == pytest.approx(0.74, abs=1e-6)
        assert result.run_tag == "t-re"

    def test_old_only_preserves_ordering(self, tmp_path):
        run, frames, qf = self.write_inputs(tmp_path)
        out = tmp_path / "out.txt"
        assert run_cli(
            "rerank", "--run", run, "--frames", frames, "--query-feats", qf,
            "--out", out, "--w-new", 0, "--w-old", 1,
        ) == 0
        assert [i for i, _ in read_run(out).entries["q"]] == ["A", "B", "C"]

    def test_negation_routing_uses_alt_features(self, tmp_path, capsys):
        run, frames, qf = self.write_inputs(tmp_path)
        # Alternate features: reversed frame scores flip the (1,0) ordering.
        alt_frames = tmp_path / "alt_frames.feat"

        def unit(c):
            return np.array([c, np.sqrt(1 - c * c)])

        write_features(alt_frames, "fr", {"A#0": unit(0.9), "B#0": unit(0.2), "C#0": unit(0.1)})
        alt_qf = tmp_path / "alt_qf.feat"
        write_features(alt_qf, "fr", {"q": np.array([1.0, 0.0])})
        tokens = tmp_path / "tokens.tsv"
        tokens.write_text("q\ta man is not cooking\n")
        out = tmp_path / "out.txt"
        assert run_cli(
            "rerank", "--run", run, "--frames", frames, "--query-feats", qf,
            "--query-tokens", tokens, "--alt-frames", alt_frames,
            "--alt-query-feats", alt_qf,
            "--out", out, "--w-new", 1, "--w-old", 0,
        ) == 0
        assert [i for i, _ in read_run(out).entries["q"]] == ["A", "B", "C"]
        assert "alternate features for 1 queries" in capsys.readouterr().out

    def test_mixed_routing_keeps_run_order(self, tmp_path, capsys):
        # A routed query before a plain one: each is scored with its own
        # store, and the written run keeps the input's query order.
        _, frames, _ = self.write_inputs(tmp_path)
        run = tmp_path / "mixed.txt"
        run.write_text("".join(
            f"{q} Q0 {item} {rank} {score:.6f} t\n"
            for q in ("neg", "pos")
            for rank, (item, score) in enumerate([("A", 10), ("B", 5), ("C", 0)], 1)
        ))

        def unit(c):
            return np.array([c, np.sqrt(1 - c * c)])

        alt_frames = tmp_path / "alt_frames.feat"
        write_features(alt_frames, "fr", {"A#0": unit(0.9), "B#0": unit(0.2), "C#0": unit(0.1)})
        qf, alt_qf = tmp_path / "qf2.feat", tmp_path / "alt_qf2.feat"
        for path in (qf, alt_qf):
            write_features(path, "fr", {"neg": np.array([1.0, 0.0]), "pos": np.array([1.0, 0.0])})
        tokens = tmp_path / "tokens.tsv"
        tokens.write_text("neg\ta man is not cooking\npos\ta man is cooking\n")
        out = tmp_path / "out.txt"
        assert run_cli(
            "rerank", "--run", run, "--frames", frames, "--query-feats", qf,
            "--query-tokens", tokens, "--alt-frames", alt_frames,
            "--alt-query-feats", alt_qf,
            "--out", out, "--w-new", 1, "--w-old", 0,
        ) == 0
        result = read_run(out)
        assert list(result.entries) == ["neg", "pos"]
        assert [i for i, _ in result.entries["neg"]] == ["A", "B", "C"]
        assert [i for i, _ in result.entries["pos"]] == ["B", "C", "A"]
        assert "alternate features for 1 queries" in capsys.readouterr().out

    def test_nan_frame_exits_1_naming_the_video(self, tmp_path, capsys):
        run, _, qf = self.write_inputs(tmp_path)
        frames = tmp_path / "nan_frames.feat"
        write_unchecked_features(frames, "fr", {
            "A#0": np.array([1.0, 0.0]), "B#0": np.array([0.0, 1.0]),
            "B#1": np.array([np.nan, 0.0]), "C#0": np.array([0.5, 0.5]),
        })
        assert run_cli(
            "rerank", "--run", run, "--frames", frames, "--query-feats", qf,
            "--out", tmp_path / "o.txt",
        ) == 1
        # Refused as the frame file is read, so the error names the record.
        assert capsys.readouterr().err == f"error: {frames}: non-finite value nan in record 'B#1'\n"
        assert not (tmp_path / "o.txt").exists()

    def test_run_item_without_frames_exits_1(self, tmp_path, capsys):
        run, _, qf = self.write_inputs(tmp_path)
        frames = tmp_path / "some_frames.feat"
        write_features(frames, "fr", {"B#0": np.array([0.0, 1.0])})
        out = tmp_path / "o.txt"
        assert run_cli(
            "rerank", "--run", run, "--frames", frames, "--query-feats", qf, "--out", out,
        ) == 1
        assert capsys.readouterr().err == "error: no frame features for items: ['A', 'C']\n"
        assert not out.exists()

    def test_partial_routing_flags_rejected(self, tmp_path):
        run, frames, qf = self.write_inputs(tmp_path)
        assert run_cli(
            "rerank", "--run", run, "--frames", frames, "--query-feats", qf,
            "--query-tokens", tmp_path / "tokens.tsv",
            "--out", tmp_path / "o.txt",
        ) == 1

    @pytest.mark.parametrize("tokens, alt_ids, message", [
        ("other\ta man is cooking\n", ["q"], "no query tokens for query 'q'"),
        ("q\ta man is not cooking\n", ["other"], "no query feature vector for query 'q'"),
    ], ids=["no-tokens", "no-routed-vector"])
    def test_routed_query_without_its_inputs_exits_1(self, tmp_path, capsys, tokens, alt_ids, message):
        run, frames, qf = self.write_inputs(tmp_path)
        (tmp_path / "tokens.tsv").write_text(tokens)
        write_features(tmp_path / "alt_qf.feat", "fr", {i: np.array([1.0, 0.0]) for i in alt_ids})
        out = tmp_path / "o.txt"
        assert run_cli(
            "rerank", "--run", run, "--frames", frames, "--query-feats", qf,
            "--query-tokens", tmp_path / "tokens.tsv", "--alt-frames", frames,
            "--alt-query-feats", tmp_path / "alt_qf.feat", "--out", out,
        ) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("weights, message", [
        (["--w-new", "nan"], "weight nan is not finite and nonnegative"),
        (["--w-old", "-1"], "weight -1.0 is not finite and nonnegative"),
        (["--w-new", 1e308, "--w-old", 1e308], "weights [1e+308, 1e+308] sum to inf, which is not finite"),
    ])
    def test_bad_weights_exit_1_before_any_file_is_read(self, tmp_path, capsys, no_file_reads, weights, message):
        out = tmp_path / "o.txt"
        assert run_cli(
            "rerank", "--run", tmp_path / "run.txt", "--frames", tmp_path / "frames.feat",
            "--query-feats", tmp_path / "qf.feat", "--out", out, *weights,
        ) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


class TestNegateCli:
    def test_exports_negated_lines(self, tmp_path, capsys):
        caps = tmp_path / "caps.tsv"
        caps.write_text(
            "c1\tA man is holding a knife\n"
            "c2\tsunset over the sea\n"
            "c3\tnobody is dancing\n"
        )
        out = tmp_path / "neg.tsv"
        assert run_cli("negate", "--captions", caps, "--out", out, "--seed", 0) == 0
        lines = out.read_text().splitlines()
        assert lines == ["c1\ta man is holding a knife\ta man is not holding a knife"]
        err = capsys.readouterr().err
        assert "1 already-negated" in err and "1 without an insertion site" in err


    @pytest.mark.parametrize("cue", ["", "do not", "no\tpe"])
    def test_cue_that_is_not_one_token_exits_1_and_writes_nothing(self, tmp_path, capsys, cue):
        caps = tmp_path / "caps.tsv"
        caps.write_text("c1\ta man is running\n")
        out = tmp_path / "neg.tsv"
        assert run_cli("negate", "--captions", caps, "--out", out, "--cue", cue) == 1
        err = capsys.readouterr().err
        assert f"caption 'c1': negation cue {cue!r} is empty or contains whitespace" in err
        assert sorted(f.name for f in tmp_path.iterdir()) == ["caps.tsv"]


class TestPseudocapCli:
    def test_selects_top_k(self, tmp_path):
        model = randomized_model({"vis": 4}, {"txt": 3}, d=5, heads=1, seed=21)
        ckpt = tmp_path / "m.ckpt"
        checkpoint_save(model, ckpt)
        rng = np.random.default_rng(3)
        write_features(tmp_path / "v.feat", "vis", {"v1": rng.normal(size=4)})
        cap_feats = {f"v1#{i}": rng.normal(size=3) for i in range(4)}
        write_features(tmp_path / "c.feat", "txt", cap_feats)
        cands = tmp_path / "cands.tsv"
        cands.write_text(
            "v1\t0\ta dog runs\nv1\t1\ta cat sits\nv1\t2\tA DOG RUNS\nv1\t3\ta bird flies\n"
        )
        out = tmp_path / "sel.tsv"
        assert run_cli(
            "pseudocap", "--candidates", cands, "--checkpoint", ckpt,
            "--video-feats", tmp_path / "v.feat",
            "--caption-feats", tmp_path / "c.feat",
            "--out", out, "--k", 2,
        ) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        ranks = [line.split("\t")[1] for line in lines]
        assert ranks == ["1", "2"]
        texts = [line.split("\t")[3] for line in lines]
        assert "A DOG RUNS" not in texts  # duplicate collapsed onto frame 0

    @pytest.mark.parametrize("video_ids, caption_ids, message", [
        (["v2"], ["v1#0", "v1#1", "v1#3"], "no video features for 'v1'"),
        (["v1"], ["v1#0", "v1#1"], "no caption features for v1#3"),
    ], ids=["no-video", "no-caption"])
    def test_missing_record_exits_1(self, tmp_path, capsys, video_ids, caption_ids, message):
        checkpoint_save(randomized_model({"vis": 4}, {"txt": 3}, d=5, heads=1, seed=21), tmp_path / "m.ckpt")
        write_features(tmp_path / "v.feat", "vis", {i: np.ones(4) for i in video_ids})
        write_features(tmp_path / "c.feat", "txt", {i: np.ones(3) for i in caption_ids})
        cands = tmp_path / "cands.tsv"
        cands.write_text("v1\t0\ta dog runs\nv1\t1\ta cat sits\nv1\t2\tA DOG RUNS\nv1\t3\ta bird flies\n")
        out = tmp_path / "sel.tsv"
        assert run_cli(
            "pseudocap", "--candidates", cands, "--checkpoint", tmp_path / "m.ckpt",
            "--video-feats", tmp_path / "v.feat", "--caption-feats", tmp_path / "c.feat",
            "--out", out,
        ) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


class TestFeatRank:
    def test_prints_sorted_weights(self, synth_dir, trained, capsys):
        assert run_cli(
            "feat-rank", "--checkpoint", trained / "model.ckpt",
            "--manifest", synth_dir / "manifest_train.json",
            "--branch", "video",
        ) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        names = {line.split("\t")[0] for line in lines}
        assert names == {"visa", "visb"}
        weights = [float(line.split("\t")[1]) for line in lines]
        assert weights == sorted(weights, reverse=True)
        assert sum(weights) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("branch, other", [("video", "text"), ("text", "video")])
    def test_reads_only_the_ranked_branch(
        self, synth_dir, trained, tmp_path, capsys, branch, other
    ):
        # The other modality's files, the captions, pairs and qrels are missing.
        full = json.loads((synth_dir / "manifest_train.json").read_text())
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({
            f"{branch}_features": [str(synth_dir / p) for p in full[f"{branch}_features"]],
            f"{other}_features": [str(tmp_path / "missing.feat")],
            "captions": "missing.tsv", "pairs": "missing.tsv", "qrels": "missing.txt",
        }))
        args = ["feat-rank", "--checkpoint", trained / "model.ckpt", "--branch", branch]
        assert run_cli(*args, "--manifest", manifest) == 0
        got = capsys.readouterr().out
        assert run_cli(*args, "--manifest", synth_dir / "manifest_train.json") == 0
        assert got == capsys.readouterr().out and len(got.splitlines()) == 2

    def test_manifest_without_a_complete_bundle_exits_1(self, tmp_path, capsys):
        checkpoint_save(
            randomized_model({"visa": 3, "visb": 2}, {"txt": 2}, d=4, heads=1, seed=5), tmp_path / "m.ckpt"
        )
        write_features(tmp_path / "a.feat", "visa", {"v1": np.ones(3)})
        write_features(tmp_path / "b.feat", "visb", {"v2": np.ones(2)})
        manifest = tmp_path / "m.json"
        manifest.write_text('{"video_features": ["a.feat", "b.feat"]}')
        assert run_cli(
            "feat-rank", "--checkpoint", tmp_path / "m.ckpt", "--manifest", manifest, "--branch", "video",
        ) == 1
        assert capsys.readouterr().err == "error: manifest has no complete video bundles\n"
