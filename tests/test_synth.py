import hashlib
from pathlib import Path

import numpy as np
import pytest

import per_item_oracle as oracle
from avsearch import synth
from avsearch.errors import ConfigError
from avsearch.manifest import load_dataset, load_manifest, read_pairs
from avsearch.negation import detect_negation, negation_sites
from avsearch.synth import SpaceSpec, nearest_latent_map, synth_dataset

VIDEO_SPACES = [SpaceSpec("visa", 12, 0.0), SpaceSpec("visb", 8, 0.0)]
TEXT_SPACES = [SpaceSpec("txta", 10, 0.0), SpaceSpec("txtb", 8, 0.0)]


def generate(tmp_path, seed=0, n_videos=30, n_captions=2, noise=0.0, negate=0.0):
    vs = [SpaceSpec(s.name, s.dim, noise) for s in VIDEO_SPACES]
    ts = [SpaceSpec(s.name, s.dim, noise) for s in TEXT_SPACES]
    return synth_dataset(
        tmp_path,
        seed=seed,
        n_videos=n_videos,
        n_captions_per=n_captions,
        latent_dim=4,
        video_spaces=vs,
        text_spaces=ts,
        negate_fraction=negate,
    )


def dir_snapshot(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


class TestSynthDataset:
    def test_zero_noise_oracle_is_perfect(self, tmp_path):
        generate(tmp_path / "d")
        assert nearest_latent_map(tmp_path / "d", "val") == 1.0
        assert nearest_latent_map(tmp_path / "d", "train") == 1.0

    def test_same_seed_byte_identical(self, tmp_path):
        generate(tmp_path / "a", seed=5, noise=0.1, negate=0.5)
        generate(tmp_path / "b", seed=5, noise=0.1, negate=0.5)
        snap_a = dir_snapshot(tmp_path / "a")
        snap_b = dir_snapshot(tmp_path / "b")
        assert set(snap_a) == set(snap_b)
        for name in snap_a:
            assert snap_a[name] == snap_b[name], f"{name} differs"

    def test_different_seed_differs(self, tmp_path):
        generate(tmp_path / "a", seed=1)
        generate(tmp_path / "b", seed=2)
        assert dir_snapshot(tmp_path / "a") != dir_snapshot(tmp_path / "b")

    def test_split_sizes(self, tmp_path):
        manifests = generate(tmp_path, n_videos=10, n_captions=3)
        train = load_dataset(load_manifest(manifests["train"]))
        val = load_dataset(load_manifest(manifests["val"]))
        assert len(train.pairs) == 20
        assert len(val.pairs) == 10
        assert len(train.video_bundles) == 10
        assert train.qrels is not None and val.qrels is not None

    def test_captions_are_negatable(self, tmp_path):
        manifests = generate(tmp_path, n_videos=12)
        data = load_dataset(load_manifest(manifests["train"]))
        for _, cid, _ in data.pairs:
            assert negation_sites(data.captions[cid])

    def test_negate_fraction(self, tmp_path):
        manifests = generate(tmp_path, n_videos=20, negate=0.5)
        pairs = read_pairs(load_manifest(manifests["train"]).pairs)
        negated = [p for p in pairs if p[2] is not None]
        assert len(negated) == 10
        data = load_dataset(load_manifest(manifests["train"]))
        for _, cid, nid in negated:
            assert detect_negation(data.captions[nid])[0]
            restored = list(data.captions[nid].tokens)
            restored.remove("not")
            assert restored == data.captions[cid].tokens

    def test_negated_latent_is_rotated_original(self, tmp_path):
        # Negated caption features derive from R z (R a fixed seeded
        # rotation): with zero noise the latent recovered from the negated
        # features is exactly R times the original caption's latent.
        manifests = generate(tmp_path, n_videos=8, negate=1.0)
        data = load_dataset(load_manifest(manifests["train"]))
        rotation = np.load(tmp_path / "meta" / "neg_rotation.npy")
        np.testing.assert_allclose(rotation @ rotation.T, np.eye(4), atol=1e-12)
        for _, cid, nid in data.pairs:
            for spec in TEXT_SPACES:
                proj = np.load(tmp_path / "meta" / f"proj_text_{spec.name}.npy")
                z_orig, *_ = np.linalg.lstsq(
                    proj, data.text_bundles[cid].features[spec.name], rcond=None
                )
                z_neg, *_ = np.linalg.lstsq(
                    proj, data.text_bundles[nid].features[spec.name], rcond=None
                )
                np.testing.assert_allclose(z_neg, rotation @ z_orig, atol=1e-5)

    def test_noise_degrades_oracle_only_mildly(self, tmp_path):
        generate(tmp_path / "n", noise=0.05, n_videos=50)
        assert nearest_latent_map(tmp_path / "n", "val") >= 0.95

    @pytest.mark.parametrize("seed", [1, 2])
    def test_oracle_ranks_like_the_per_query_sort(self, tmp_path, monkeypatch, seed):
        # Three spaces per modality, not in name order, and enough noise
        # that the map is below 1.
        synth_dataset(
            tmp_path, seed=seed, n_videos=40, n_captions_per=3, latent_dim=4,
            video_spaces=[SpaceSpec("b", 10, 0.8), SpaceSpec("a", 8, 0.8), SpaceSpec("c", 6, 1.0)],
            text_spaces=[SpaceSpec("z", 9, 0.8), SpaceSpec("y", 7, 0.9), SpaceSpec("x", 5, 0.7)],
        )
        got = [nearest_latent_map(tmp_path, split) for split in ("val", "train")]
        monkeypatch.setattr(synth, "relevant_ranks", oracle.relevant_ranks)
        want = [nearest_latent_map(tmp_path, split) for split in ("val", "train")]
        assert [g.hex() for g in got] == [w.hex() for w in want]
        assert all(g < 1.0 for g in got)

    def test_oracle_keeps_same_named_video_and_text_spaces_apart(self, tmp_path):
        # Each modality's projection is looked up under its own name.
        synth_dataset(tmp_path, 0, 30, 2, 4, [SpaceSpec("a", 12, 0.0)], [SpaceSpec("a", 10, 0.0)])
        assert nearest_latent_map(tmp_path, "val") == 1.0

    def test_oracle_baseline_at_full_scale(self, tmp_path):
        # 200 videos, latent 8, noise 0.1: the model-free baseline computed
        # before any training.
        synth_dataset(
            tmp_path,
            seed=0,
            n_videos=200,
            n_captions_per=2,
            latent_dim=8,
            video_spaces=[SpaceSpec("visa", 32, 0.1), SpaceSpec("visb", 16, 0.1)],
            text_spaces=[SpaceSpec("txta", 24, 0.1), SpaceSpec("txtb", 16, 0.1)],
        )
        assert nearest_latent_map(tmp_path, "val") >= 0.95

    def test_validation_errors(self, tmp_path):
        with pytest.raises(ConfigError, match="latent"):
            synth_dataset(tmp_path, 0, 5, 2, 1, VIDEO_SPACES, TEXT_SPACES)
        with pytest.raises(ConfigError, match="below latent_dim"):
            synth_dataset(
                tmp_path, 0, 5, 2, 4, [SpaceSpec("v", 2, 0.0)], TEXT_SPACES
            )
        with pytest.raises(ConfigError, match="negate_fraction"):
            generate(tmp_path, negate=1.5)

    @pytest.mark.parametrize("noise", [-0.1, float("nan"), float("inf"), -float("inf")])
    def test_bad_noise_is_refused_before_anything_is_written(self, tmp_path, noise):
        # The last space's noise: the draws and writes of the others come first.
        texts = [TEXT_SPACES[0], SpaceSpec("txtb", 8, noise)]
        with pytest.raises(ConfigError) as exc:
            synth_dataset(tmp_path, 0, 5, 2, 4, VIDEO_SPACES, texts)
        assert str(exc.value) == f"space 'txtb' noise must be finite and >= 0, got {noise}"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("videos, texts, message", [
        ([VIDEO_SPACES[0], SpaceSpec("visa", 8, 0.0)], TEXT_SPACES,
         "video space 'visa' is given more than once"),
        (VIDEO_SPACES, [*TEXT_SPACES, TEXT_SPACES[1]], "text space 'txtb' is given more than once"),
        ([VIDEO_SPACES[0], SpaceSpec("vis/b", 8, 0.0)], TEXT_SPACES,
         "video space 'vis/b' holds a path separator"),
    ], ids=["repeated-video", "repeated-text", "separator"])
    def test_bad_space_name_is_refused_before_anything_is_written(
        self, tmp_path, videos, texts, message
    ):
        # The space name is part of its feature and projection files' names.
        with pytest.raises(ConfigError) as exc:
            synth_dataset(tmp_path, 0, 5, 2, 4, videos, texts)
        assert str(exc.value) == message
        assert list(tmp_path.iterdir()) == []

    def test_single_caption_has_no_val_split(self, tmp_path):
        manifests = generate(tmp_path, n_captions=1)
        assert "val" not in manifests
        assert "train" in manifests


# sha256 of the synth outputs that no BLAS call computes, for generate(seed=7,
# n_videos=30, n_captions=3, noise=0.1, negate=0.5). The feature files and
# meta/neg_rotation.npy go through a GEMM or a QR, whose last bits may differ
# between machines, so they are left out.
GOLDEN_SHA256 = {
    "captions.tsv": "4270f3c032949888c93160d05fe61ae0f828ffe05ac98a5def255072d16ac1d3",
    "manifest_train.json": "6bfe9323a4c803eaea5e679ba08955df8b0fb3b1aa058e1d673e4b94d095156c",
    "manifest_val.json": "9c78a64aa0ce64b955bdd101fcfb0f54cf1080802968d3bb35c1be4b55f3b38e",
    "meta/latents.npy": "9a9e0922a83ba3cad5dddef1156255bf7ad0546a4d5a286ec39730a283a6f5dd",
    "meta/proj_text_txta.npy": "b4463a0b29c4abb9eb0687d9729636cecd0f4f3a2c500238e58bd87091b0dd84",
    "meta/proj_text_txtb.npy": "0f63cae35fcde15110cccb80f618cc0a0ea7c852f32ce9ba8f1fdd6df805ac10",
    "meta/proj_video_visa.npy": "52a42cbc615ea3309acdf8fe1558793f38c08e062fcbc91c3b94f99976f19c76",
    "meta/proj_video_visb.npy": "956ec6e824e826dc477e0a29c06f2f2925353c9bf2855bfb69b33bd1008bf494",
    "pairs_train.tsv": "69e5bb37c1b56f6f5c1a85277e0cd7ff839d1c153873484f934953deb71ea346",
    "pairs_val.tsv": "70fc7035bdc4af09e11af36b29660904a287049cbbafa122fc4a580e79af86d2",
    "qrels_train.txt": "37deb801a999cb318c486dd0b9d2c3b9d6155fba3dcff74525a19915ccb91a0e",
    "qrels_val.txt": "971c12ea14096734f6fb53a0161fb5a56a7447d62cf784496a3c5b29d7063059",
}


def test_outputs_without_blas_match_their_golden_sha256(tmp_path):
    generate(tmp_path / "d", seed=7, n_videos=30, n_captions=3, noise=0.1, negate=0.5)
    snap = dir_snapshot(tmp_path / "d")
    assert sorted(snap) == sorted([
        *GOLDEN_SHA256, "meta/neg_rotation.npy",
        "text_txta.feat", "text_txtb.feat", "video_visa.feat", "video_visb.feat",
    ])
    got = {name: hashlib.sha256(snap[name]).hexdigest() for name in GOLDEN_SHA256}
    assert got == GOLDEN_SHA256
