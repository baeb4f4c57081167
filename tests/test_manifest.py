import numpy as np
import pytest

from avsearch.config import Settings, load_settings
from avsearch.errors import ConfigError, FormatError
from avsearch.featio import write_features
from avsearch.manifest import (
    DatasetManifest,
    build_triplets,
    load_dataset,
    load_feature_bundles,
    load_manifest,
    read_captions,
    read_pairs,
    write_captions,
    write_manifest,
    write_pairs,
)
from avsearch.negation import Caption, Margins
from avsearch.trainer import TrainConfig


def small_dataset(tmp_path, rng, negated=False):
    va = {f"v{i}": rng.normal(size=4) for i in range(3)}
    vb = {f"v{i}": rng.normal(size=2) for i in range(3)}
    caps = {}
    texts = {}
    pairs = []
    for i in range(3):
        cid = f"v{i}c0"
        caps[cid] = rng.normal(size=3)
        texts[cid] = Caption(cid, ["a", "dog", "is", "running"])
        neg_id = None
        if negated and i == 0:
            neg_id = f"{cid}~neg"
            caps[neg_id] = rng.normal(size=3)
            texts[neg_id] = Caption(neg_id, ["a", "dog", "is", "not", "running"])
        pairs.append((f"v{i}", cid, neg_id))
    write_features(tmp_path / "va.feat", "wsl", va)
    write_features(tmp_path / "vb.feat", "clip", vb)
    write_features(tmp_path / "t.feat", "bow", caps)
    write_captions(tmp_path / "captions.tsv", texts)
    write_pairs(tmp_path / "pairs.tsv", pairs)
    manifest = DatasetManifest(
        video_features=[tmp_path / "va.feat", tmp_path / "vb.feat"],
        text_features=[tmp_path / "t.feat"],
        pairs=tmp_path / "pairs.tsv",
        captions=tmp_path / "captions.tsv",
    )
    write_manifest(tmp_path / "manifest.json", manifest)
    return tmp_path / "manifest.json"


class TestManifest:
    def test_roundtrip(self, tmp_path, rng):
        path = small_dataset(tmp_path, rng)
        manifest = load_manifest(path)
        assert len(manifest.video_features) == 2
        assert manifest.qrels is None
        assert manifest.captions.name == "captions.tsv"

    def test_relative_paths_resolve_against_manifest_dir(self, tmp_path, rng):
        path = small_dataset(tmp_path, rng)
        manifest = load_manifest(path)
        assert all(p.exists() for p in manifest.video_features)

    def test_unknown_keys_rejected(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text('{"video_features": [], "text_features": ["t"], "bogus": 1}')
        with pytest.raises(FormatError, match="bogus"):
            load_manifest(p)

    def test_invalid_json_rejected(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text("{nope")
        with pytest.raises(FormatError, match="JSON"):
            load_manifest(p)

    def test_non_utf8_rejected_naming_the_file(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_bytes(b'{\n"video_features": ["\xff.feat"]}\n')
        with pytest.raises(FormatError, match=r"m\.json:2: invalid UTF-8"):
            load_manifest(p)

    def test_no_features_rejected(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text('{"video_features": [], "text_features": []}')
        with pytest.raises(FormatError):
            load_manifest(p)


class TestCaptionsAndPairs:
    def test_captions_roundtrip_with_tags(self, tmp_path):
        caps = {
            "c1": Caption("c1", ["a", "dog", "runs"], ["OTHER", "NOUN", "VERB"]),
            "c2": Caption("c2", ["hello", "world"]),
        }
        p = tmp_path / "caps.tsv"
        write_captions(p, caps)
        reread = read_captions(p)
        assert reread["c1"].pos_tags == ["OTHER", "NOUN", "VERB"]
        assert reread["c2"].tokens == ["hello", "world"]
        assert reread["c2"].pos_tags is None

    def test_captions_lowercased(self, tmp_path):
        p = tmp_path / "caps.tsv"
        p.write_text("c1\tA Man IS Running\n")
        assert read_captions(p)["c1"].tokens == ["a", "man", "is", "running"]

    def test_caption_errors_located(self, tmp_path):
        p = tmp_path / "caps.tsv"
        p.write_text("c1\tok caption\nc1\tduplicate\n")
        with pytest.raises(FormatError, match=r"caps\.tsv:2"):
            read_captions(p)
        p.write_text("c1\ttoo\tmany\tfields\n")
        with pytest.raises(FormatError, match=r"caps\.tsv:1"):
            read_captions(p)
        p.write_text("c1\tbad tags\tNOUN\n")  # tag count mismatch
        with pytest.raises(FormatError):
            read_captions(p)

    def test_pairs_roundtrip(self, tmp_path):
        rows = [("v1", "c1", None), ("v2", "c2", "c2n")]
        p = tmp_path / "pairs.tsv"
        write_pairs(p, rows)
        assert read_pairs(p) == rows

    def test_pairs_bad_field_count(self, tmp_path):
        p = tmp_path / "pairs.tsv"
        p.write_text("v1\n")
        with pytest.raises(FormatError, match=r"pairs\.tsv:1"):
            read_pairs(p)


class TestLoadDataset:
    def test_bundles_cover_all_spaces(self, tmp_path, rng):
        data = load_dataset(load_manifest(small_dataset(tmp_path, rng)))
        assert set(data.video_bundles) == {"v0", "v1", "v2"}
        assert data.video_bundles["v0"].spaces == ("clip", "wsl")
        assert data.video_dims == {"wsl": 4, "clip": 2}
        assert data.text_dims == {"bow": 3}

    def test_space_subset_selection(self, tmp_path, rng):
        data = load_dataset(load_manifest(small_dataset(tmp_path, rng)), video_spaces=["clip"])
        assert data.video_bundles["v0"].spaces == ("clip",)
        with pytest.raises(ConfigError, match="not in manifest"):
            load_dataset(load_manifest(tmp_path / "manifest.json"), video_spaces=["nope"])

    def test_build_triplets(self, tmp_path, rng):
        data = load_dataset(load_manifest(small_dataset(tmp_path, rng, negated=True)))
        triplets = build_triplets(data)
        assert len(triplets) == 3
        assert triplets[0].has_negated
        assert not triplets[1].has_negated
        assert triplets[0].negated.tokens == ["a", "dog", "is", "not", "running"]

    def test_unresolvable_ids_rejected(self, tmp_path, rng):
        path = small_dataset(tmp_path, rng)
        write_pairs(tmp_path / "pairs.tsv", [("ghost", "v0c0", None)])
        data = load_dataset(load_manifest(path))
        with pytest.raises(ConfigError, match="ghost"):
            build_triplets(data)

    def test_incomplete_bundle_not_built(self, tmp_path, rng):
        path = small_dataset(tmp_path, rng)
        # v3 exists in one video space only: no complete bundle.
        write_features(
            tmp_path / "va.feat", "wsl", {f"v{i}": rng.normal(size=4) for i in range(4)}
        )
        data = load_dataset(load_manifest(path))
        assert "v3" not in data.video_bundles

    def test_duplicate_space_rejected(self, tmp_path, rng):
        path = small_dataset(tmp_path, rng)
        manifest = load_manifest(path)
        manifest.video_features.append(manifest.video_features[0])
        with pytest.raises(ConfigError, match="more than one"):
            load_dataset(manifest)

    def test_load_feature_bundles_helper(self, tmp_path, rng):
        small_dataset(tmp_path, rng)
        dims, bundles = load_feature_bundles([tmp_path / "va.feat", tmp_path / "vb.feat"])
        assert dims == {"wsl": 4, "clip": 2}
        assert set(bundles) == {"v0", "v1", "v2"}

    def test_load_feature_bundles_ids_subset(self, tmp_path, rng):
        small_dataset(tmp_path, rng)
        paths = [tmp_path / "va.feat", tmp_path / "vb.feat"]
        _, full = load_feature_bundles(paths)
        dims, bundles = load_feature_bundles(paths, ids=["v2", "v0", "v9"])
        assert dims == {"wsl": 4, "clip": 2}
        assert list(bundles) == ["v0", "v2"]
        for item_id, bundle in bundles.items():
            for name, vec in bundle.features.items():
                np.testing.assert_array_equal(vec, full[item_id].features[name])


class TestConfig:
    def test_defaults(self):
        s = load_settings(None)
        assert s.d == 512 and s.heads == 2
        assert s.train.validation_metric == "mAP"
        assert s.video_spaces is None

    def test_full_override(self, tmp_path):
        p = tmp_path / "cfg.ini"
        p.write_text(
            "[model]\nd = 16\nheads = 3\nseed = 7\n"
            "[margins]\nm0 = 0.3\nm1 = 0.1\nm2 = 0.9\nlambda1 = 0.2\n"
            "[train]\nepochs = 5\nbatch_size = 8\nlearning_rate = 0.5\n"
            "validation_metric = recall@10\n"
            "[features]\nvideo_spaces = clip, wsl\ntext_spaces = bow\n"
        )
        s = load_settings(p)
        assert (s.d, s.heads, s.model_seed) == (16, 3, 7)
        assert s.train.margins.m0 == 0.3 and s.train.margins.m2 == 0.9
        assert s.train.epochs == 5 and s.train.validation_metric == "recall@10"
        assert s.video_spaces == ["clip", "wsl"]
        assert s.text_spaces == ["bow"]

    def test_every_key_loads_as_the_dataclasses_built_directly(self, tmp_path):
        p = tmp_path / "cfg.ini"
        p.write_text(
            "[model]\nd = 16\nheads = 3\nseed = 7\n"
            "[margins]\nm0 = 0.3\nm1 = 0.1\nm2 = 0.9\nm3 = 0.25\nm4 = 1.5\nlambda1 = 0.4\n"
            "[train]\nepochs = 5\nbatch_size = 8\nlearning_rate = 0.5\nlr_decay = 0.9\n"
            "seed = 11\nvalidation_metric = recall@10\nclip_norm = 2.5\n"
            "[features]\nvideo_spaces = clip, wsl\ntext_spaces = bow\n"
        )
        margins = Margins(m0=0.3, m1=0.1, m2=0.9, m3=0.25, m4=1.5, lambda1=0.4)
        train = TrainConfig(
            epochs=5, batch_size=8, learning_rate=0.5, lr_decay=0.9, seed=11,
            margins=margins, validation_metric="recall@10", clip_norm=2.5,
        )
        expected = Settings(16, 3, 7, train, ["clip", "wsl"], ["bow"])
        loaded = load_settings(p)
        assert loaded == expected
        assert type(loaded.train.epochs) is int and type(loaded.train.margins.m0) is float
        # Every value differs from its default, so no key was skipped.
        defaults = Settings()
        for got, default in ((loaded, defaults), (train, defaults.train), (margins, Margins())):
            for name, value in vars(got).items():
                assert value != vars(default)[name], name

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[margins]\nm0 = abc\n", "[margins] m0 = 'abc' is not a valid float"),
            ("[train]\nlearning_rate = abc\n", "[train] learning_rate = 'abc' is not a valid float"),
            ("[train]\nepochs = 1.5\n", "[train] epochs = '1.5' is not a valid int"),
            ("[model]\nheads = 1.5\n", "[model] heads = '1.5' is not a valid int"),
        ],
    )
    def test_bad_value_names_the_type_of_the_default(self, tmp_path, text, message):
        p = tmp_path / "cfg.ini"
        p.write_text(text)
        with pytest.raises(ConfigError) as exc:
            load_settings(p)
        assert str(exc.value) == f"{p}: {message}"

    def test_unknown_section_and_key_rejected(self, tmp_path):
        p = tmp_path / "cfg.ini"
        p.write_text("[model]\nd = 16\n[extra]\nx = 1\n")
        with pytest.raises(ConfigError, match="extra"):
            load_settings(p)
        p.write_text("[model]\ndd = 16\n")
        with pytest.raises(ConfigError, match="dd"):
            load_settings(p)

    def test_default_section_rejected(self, tmp_path):
        # configparser would copy [DEFAULT] keys into every section, so a
        # seed there would set both the model seed and the training seed.
        p = tmp_path / "cfg.ini"
        p.write_text("[DEFAULT]\nseed = 1\n[model]\nd = 16\n[train]\nepochs = 2\n")
        with pytest.raises(ConfigError) as exc:
            load_settings(p)
        assert str(exc.value) == f"{p}: unknown section [DEFAULT]"

    def test_bad_value_types_rejected(self, tmp_path):
        p = tmp_path / "cfg.ini"
        p.write_text("[model]\nd = big\n")
        with pytest.raises(ConfigError, match="d"):
            load_settings(p)

    def test_non_utf8_rejected_naming_the_file(self, tmp_path):
        p = tmp_path / "cfg.ini"
        p.write_bytes(b"[model]\nd = 16\n# caf\xe9\n")
        with pytest.raises(ConfigError, match=r"cfg\.ini:3: invalid UTF-8"):
            load_settings(p)

    def test_margin_invariants_enforced(self, tmp_path):
        p = tmp_path / "cfg.ini"
        p.write_text("[margins]\nm1 = 1.5\nm2 = 0.5\n")
        with pytest.raises(ConfigError):
            load_settings(p)
