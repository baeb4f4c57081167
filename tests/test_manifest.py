import json
import os
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from avsearch import manifest as manifest_module
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
from avsearch.negation import COARSE_TAGS, Caption, Margins
from avsearch.trainer import TrainConfig

from conftest import mutated, typed_outcome


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


# write_manifest's output for each case, recorded before it took its keys
# from DatasetManifest's fields. A case names the feature lists and optional
# keys that its manifest, m/manifest.json, holds; each path is relative to
# the manifest's directory, and None and empty lists are left out.
MANIFEST_PATHS = {
    "video": ["f/v1.feat", "f/v2.feat"],
    "text": ["m/t.feat"],
    "pairs": "m/pairs.tsv",
    "captions": "c/caps.tsv",
    "qrels": "m/sub/qrels.txt",
}
WRITTEN_MANIFESTS = {
    "video": '{\n  "video_features": [\n    "../f/v1.feat",\n    "../f/v2.feat"\n  ]\n}\n',
    "video+pairs": '{\n  "pairs": "pairs.tsv",\n  "video_features": [\n    "../f/v1.feat",\n    "../f/v2.feat"\n  ]\n}\n',
    "video+captions": '{\n  "captions": "../c/caps.tsv",\n  "video_features": [\n    "../f/v1.feat",\n    "../f/v2.feat"\n  ]\n}\n',
    "video+qrels": '{\n  "qrels": "sub/qrels.txt",\n  "video_features": [\n    "../f/v1.feat",\n    "../f/v2.feat"\n  ]\n}\n',
    "video+pairs+captions": '{\n  "captions": "../c/caps.tsv",\n  "pairs": "pairs.tsv",\n  "video_features": [\n    "../f/v1.feat",\n    "../f/v2.feat"\n  ]\n}\n',
    "video+pairs+qrels": '{\n  "pairs": "pairs.tsv",\n  "qrels": "sub/qrels.txt",\n  "video_features": [\n    "../f/v1.feat",\n    "../f/v2.feat"\n  ]\n}\n',
    "video+captions+qrels": '{\n  "captions": "../c/caps.tsv",\n  "qrels": "sub/qrels.txt",\n  "video_features": [\n    "../f/v1.feat",\n    "../f/v2.feat"\n  ]\n}\n',
    "video+pairs+captions+qrels": '{\n  "captions": "../c/caps.tsv",\n  "pairs": "pairs.tsv",\n  "qrels": "sub/qrels.txt",\n  "video_features": [\n    "../f/v1.feat",\n    "../f/v2.feat"\n  ]\n}\n',
    "text": '{\n  "text_features": [\n    "t.feat"\n  ]\n}\n',
    "text+pairs": '{\n  "pairs": "pairs.tsv",\n  "text_features": [\n    "t.feat"\n  ]\n}\n',
    "text+captions": '{\n  "captions": "../c/caps.tsv",\n  "text_features": [\n    "t.feat"\n  ]\n}\n',
    "text+qrels": '{\n  "qrels": "sub/qrels.txt",\n  "text_features": [\n    "t.feat"\n  ]\n}\n',
    "text+pairs+captions": '{\n  "captions": "../c/caps.tsv",\n  "pairs": "pairs.tsv",\n  "text_features": [\n    "t.feat"\n  ]\n}\n',
    "text+pairs+qrels": '{\n  "pairs": "pairs.tsv",\n  "qrels": "sub/qrels.txt",\n  "text_features": [\n    "t.feat"\n  ]\n}\n',
    "text+captions+qrels": '{\n  "captions": "../c/caps.tsv",\n  "qrels": "sub/qrels.txt",\n  "text_features": [\n    "t.feat"\n  ]\n}\n',
    "text+pairs+captions+qrels": '{\n  "captions": "../c/caps.tsv",\n  "pairs": "pairs.tsv",\n  "qrels": "sub/qrels.txt",\n  "text_features": [\n    "t.feat"\n  ]\n}\n',
    "video+text": '{\n  "text_features": [\n    "t.feat"\n  ],\n  "video_features": [\n    "../f/v1.feat",\n    "../f/v2.feat"\n  ]\n}\n',
    "video+text+pairs": '{\n  "pairs": "pairs.tsv",\n  "text_features": [\n    "t.feat"\n  ],\n  "video_features": [\n    "../f/v1.feat",\n    "../f/v2.feat"\n  ]\n}\n',
    "video+text+captions": '{\n  "captions": "../c/caps.tsv",\n  "text_features": [\n    "t.feat"\n  ],\n  "video_features": [\n    "../f/v1.feat",\n    "../f/v2.feat"\n  ]\n}\n',
    "video+text+qrels": '{\n  "qrels": "sub/qrels.txt",\n  "text_features": [\n    "t.feat"\n  ],\n  "video_features": [\n    "../f/v1.feat",\n    "../f/v2.feat"\n  ]\n}\n',
    "video+text+pairs+captions": '{\n  "captions": "../c/caps.tsv",\n  "pairs": "pairs.tsv",\n  "text_features": [\n    "t.feat"\n  ],\n  "video_features": [\n    "../f/v1.feat",\n    "../f/v2.feat"\n  ]\n}\n',
    "video+text+pairs+qrels": '{\n  "pairs": "pairs.tsv",\n  "qrels": "sub/qrels.txt",\n  "text_features": [\n    "t.feat"\n  ],\n  "video_features": [\n    "../f/v1.feat",\n    "../f/v2.feat"\n  ]\n}\n',
    "video+text+captions+qrels": '{\n  "captions": "../c/caps.tsv",\n  "qrels": "sub/qrels.txt",\n  "text_features": [\n    "t.feat"\n  ],\n  "video_features": [\n    "../f/v1.feat",\n    "../f/v2.feat"\n  ]\n}\n',
    "video+text+pairs+captions+qrels": '{\n  "captions": "../c/caps.tsv",\n  "pairs": "pairs.tsv",\n  "qrels": "sub/qrels.txt",\n  "text_features": [\n    "t.feat"\n  ],\n  "video_features": [\n    "../f/v1.feat",\n    "../f/v2.feat"\n  ]\n}\n',
}


def spelled(manifest: DatasetManifest) -> dict:
    """Each field of a manifest with its paths normalized, so that
    m/../f/v1.feat and f/v1.feat compare equal."""
    return {
        key: [os.path.normpath(p) for p in value] if isinstance(value, list)
        else value and os.path.normpath(value)
        for key, value in vars(manifest).items()
    }


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

    @pytest.mark.parametrize("case", WRITTEN_MANIFESTS)
    def test_write_then_load_round_trips_with_the_recorded_bytes(self, tmp_path, case):
        parts = case.split("+")
        (tmp_path / "m").mkdir()

        def at(key):
            value = MANIFEST_PATHS[key]
            return [tmp_path / p for p in value] if isinstance(value, list) else tmp_path / value

        manifest = DatasetManifest(
            video_features=at("video") if "video" in parts else [],
            text_features=at("text") if "text" in parts else [],
            **{key: at(key) for key in ("pairs", "captions", "qrels") if key in parts},
        )
        path = tmp_path / "m" / "manifest.json"
        write_manifest(path, manifest)
        assert path.read_bytes() == WRITTEN_MANIFESTS[case].encode()
        loaded = load_manifest(path)
        assert spelled(loaded) == spelled(manifest)
        write_manifest(path, loaded)
        assert path.read_bytes() == WRITTEN_MANIFESTS[case].encode()

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

    @pytest.mark.parametrize("text, message", [
        ("[" * 100_000, "invalid JSON: maximum recursion depth"),
        pytest.param(
            '{"video_features": ' + "1" * 5000 + "}", "invalid JSON: Exceeds the limit",
            marks=pytest.mark.skipif(
                not hasattr(sys, "get_int_max_str_digits"), reason="no integer digit limit"
            ),
        ),
        ('{"video_features": ["a\\u0000.feat"]}', "video_features holds 'a\\x00.feat', which is not a file path"),
        ('{"video_features": ["v"], "qrels": "\\ud800"}', "qrels holds '\\ud800', which is not a file path"),
    ], ids=["deep-nesting", "long-integer", "nul-in-path", "lone-surrogate"])
    def test_unparseable_json_and_bad_paths_rejected(self, tmp_path, text, message):
        p = tmp_path / "m.json"
        p.write_text(text)
        with pytest.raises(FormatError) as exc:
            load_manifest(p)
        assert str(exc.value).startswith(f"{p}: {message}")

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

    @pytest.mark.parametrize("text, message", [
        ('{"video_features": "v.feat"}', "video_features must be a list of paths"),
        ('{"video_features": null}', "video_features must be a list of paths"),
        ('{"video_features": ["v"], "text_features": [1]}', "text_features must be a list of paths"),
        ('{"video_features": ["v"], "pairs": 3}', "pairs must be a path string"),
        ('{"video_features": ["v"], "qrels": ["q"]}', "qrels must be a path string"),
    ])
    def test_value_of_the_wrong_type_rejected_naming_the_key(self, tmp_path, text, message):
        p = tmp_path / "m.json"
        p.write_text(text)
        with pytest.raises(FormatError) as exc:
            load_manifest(p)
        assert str(exc.value) == f"{p}: {message}"

    @pytest.mark.parametrize("raw, first", [
        ({"bogus": 1, "video_features": 1}, "unknown manifest keys ['bogus']"),
        ({"qrels": 1, "captions": 1, "pairs": 1, "text_features": 1, "video_features": 1},
         "video_features must be a list of paths"),
        ({"qrels": 1, "captions": 1, "pairs": 1, "text_features": 1},
         "text_features must be a list of paths"),
        ({"qrels": 1, "captions": 1, "pairs": 1}, "pairs must be a path string"),
        ({"qrels": 1, "captions": 1}, "captions must be a path string"),
        ({"qrels": "\ud800", "video_features": []}, "qrels holds '\\ud800', which is not a file path"),
        ({"qrels": "q"}, "manifest names no feature files"),
    ])
    def test_keys_checked_in_field_order(self, tmp_path, raw, first):
        p = tmp_path / "m.json"
        p.write_text(json.dumps(raw))
        with pytest.raises(FormatError) as exc:
            load_manifest(p)
        assert str(exc.value) == f"{p}: {first}"


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

    def test_blank_lines_skipped(self, tmp_path):
        caps = tmp_path / "caps.tsv"
        caps.write_text("\nc1\ta dog\n\n\nc2\ta cat\n\n")
        assert {k: c.tokens for k, c in read_captions(caps).items()} == {
            "c1": ["a", "dog"], "c2": ["a", "cat"]
        }
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("\nv1\tc1\n\nv2\tc2\tc2n\n\n")
        assert read_pairs(pairs) == [("v1", "c1", None), ("v2", "c2", "c2n")]
        caps.write_text("c1\ta dog\n\nc1\tagain\n")  # a skipped line still counts
        with pytest.raises(FormatError, match=r"caps\.tsv:3: duplicate caption id"):
            read_captions(caps)

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

    @pytest.mark.parametrize("text, lineno, field", [
        ("\t\n", 1, "video id"),
        ("v1\tc1\n\tc2\n", 2, "video id"),
        ("v1\t\n", 1, "caption id"),
        ("v1\t\tc1n\n", 1, "caption id"),
        ("v1\tc1\t\n", 1, "negated caption id"),
    ])
    def test_pairs_empty_id_located(self, tmp_path, text, lineno, field):
        p = tmp_path / "pairs.tsv"
        p.write_text(text)
        with pytest.raises(FormatError) as exc:
            read_pairs(p)
        assert str(exc.value) == f"{p}:{lineno}: empty {field}"

    def test_captions_empty_id_located(self, tmp_path):
        p = tmp_path / "caps.tsv"
        p.write_text("c1\tok caption\n\thello world\n")
        with pytest.raises(FormatError) as exc:
            read_captions(p)
        assert str(exc.value) == f"{p}:2: empty caption id"

    @pytest.mark.parametrize("row, field", [
        (("", "c1", None), "video id"),
        (("v1", "", None), "caption id"),
        (("v1", "c1", ""), "negated caption id"),
    ])
    def test_write_pairs_refuses_empty_id(self, tmp_path, row, field):
        p = tmp_path / "pairs.tsv"
        with pytest.raises(FormatError) as exc:
            write_pairs(p, [("v0", "c0", None), row])
        assert str(exc.value) == f"{p}: empty {field}"
        assert list(tmp_path.iterdir()) == []

    def test_write_captions_refuses_empty_id(self, tmp_path):
        p = tmp_path / "caps.tsv"
        with pytest.raises(FormatError) as exc:
            write_captions(p, {"c0": Caption("c0", ["a"]), "": Caption("", ["hello", "world"])})
        assert str(exc.value) == f"{p}: empty caption id"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("row, field, value", [
        (("v\t1", "c1", None), "video id", "v\t1"),  # read back as ('v', '1', 'c1')
        (("v1", "c\n1", None), "caption id", "c\n1"),
        (("v1", "c1", "n\r1"), "negated caption id", "n\r1"),
    ])
    def test_write_pairs_refuses_an_id_that_would_not_read_back(self, tmp_path, row, field, value):
        p = tmp_path / "pairs.tsv"
        p.write_text("old\n")
        with pytest.raises(FormatError) as exc:
            write_pairs(p, [("v0", "c0", None), row])
        assert str(exc.value) == f"{p}: {field} {value!r} holds a TAB or line break"
        assert p.read_text() == "old\n"
        assert [f.name for f in tmp_path.iterdir()] == ["pairs.tsv"]

    @pytest.mark.parametrize("item_id", ["c\t2", "c\n2", "c\r2", "\r"])
    def test_write_captions_refuses_an_id_that_would_not_read_back(self, tmp_path, item_id):
        p = tmp_path / "caps.tsv"
        p.write_text("old\n")
        caps = {"c0": Caption("c0", ["a"]), item_id: Caption(item_id, ["hello", "world"])}
        with pytest.raises(FormatError) as exc:
            write_captions(p, caps)
        assert str(exc.value) == f"{p}: caption id {item_id!r} holds a TAB or line break"
        assert p.read_text() == "old\n"
        assert [f.name for f in tmp_path.iterdir()] == ["caps.tsv"]

    def test_ids_with_other_characters_round_trip(self, tmp_path):
        # Spaces and other line-break-like characters read back: only TAB,
        # \n and \r end a field or a line in these files.
        rows = [("v 1", "c\x0b1", None), ("v\x852", "c\u20282", "n 2")]
        write_pairs(tmp_path / "pairs.tsv", rows)
        assert read_pairs(tmp_path / "pairs.tsv") == rows


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

    @pytest.mark.parametrize("pair, dropped, message", [
        (("v0", "ghost", None), None, "pair references unknown caption id 'ghost'"),
        (("v0", "v0c0", None), "v0c0", "no caption text for id 'v0c0'"),
        (("v0", "v0c0", "ghost"), None, "pair references unknown negated id 'ghost'"),
        (("v0", "v0c0", "v0c0~neg"), "v0c0~neg", "no caption text for negated id 'v0c0~neg'"),
    ], ids=["caption-id", "caption-text", "negated-id", "negated-text"])
    def test_unresolvable_captions_rejected(self, tmp_path, rng, pair, dropped, message):
        data = load_dataset(load_manifest(small_dataset(tmp_path, rng, negated=True)))
        data.pairs = [pair]
        data.captions.pop(dropped, None)
        with pytest.raises(ConfigError) as exc:
            build_triplets(data)
        assert str(exc.value) == message

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


class TestSharedDecode:
    @staticmethod
    def spy_reads(monkeypatch) -> list:
        """The paths that read_features is called with, in order."""
        reads = []
        real = manifest_module.read_features

        def spy(path, keep=None):
            reads.append(path.name)
            return real(path, keep)

        monkeypatch.setattr(manifest_module, "read_features", spy)
        return reads

    def test_datasets_sharing_files_decode_each_once(self, tmp_path, rng, monkeypatch):
        path = small_dataset(tmp_path, rng)
        write_pairs(tmp_path / "pairs_val.tsv", [("v1", "v1c0", None)])
        other = load_manifest(path)
        other.pairs = tmp_path / "pairs_val.tsv"
        write_manifest(tmp_path / "manifest_val.json", other)
        reads = self.spy_reads(monkeypatch)
        decoded = {}
        train = load_dataset(load_manifest(path), decoded=decoded)
        val = load_dataset(load_manifest(tmp_path / "manifest_val.json"), ["clip"], None, decoded)
        assert reads == ["va.feat", "vb.feat", "t.feat"]
        assert val.pairs == [("v1", "v1c0", None)] and val.video_dims == {"clip": 2}
        # Each dataset has bundles of its own, on the same decoded rows.
        for item_id, bundle in val.video_bundles.items():
            same = train.video_bundles[item_id]
            assert bundle is not same
            assert bundle.features["clip"].base is same.features["clip"].base

    def test_path_spellings_of_one_file_share_a_decode(self, tmp_path, rng, monkeypatch):
        small_dataset(tmp_path, rng)
        reads = self.spy_reads(monkeypatch)
        decoded = {}
        load_feature_bundles([tmp_path / "va.feat"], decoded=decoded)
        load_feature_bundles([tmp_path / "sub" / ".." / "va.feat"], decoded=decoded)
        assert reads == ["va.feat"]

    def test_ids_and_decoded_refused_together(self, tmp_path, rng):
        small_dataset(tmp_path, rng)
        with pytest.raises(ValueError, match="cannot be given together"):
            load_feature_bundles([tmp_path / "va.feat"], ids=["v0"], decoded={})


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

    @pytest.mark.parametrize("section, key", [
        ("train", "learning_rate"), ("train", "clip_norm"), ("margins", "m0"), ("margins", "lambda1"),
    ])
    def test_nan_rejected(self, tmp_path, section, key):
        p = tmp_path / "cfg.ini"
        p.write_text(f"[{section}]\n{key} = nan\n")
        with pytest.raises(ConfigError, match=f"{key} must be .* got nan"):
            load_settings(p)

    @pytest.mark.parametrize("key, value", [("d", -3), ("d", 0), ("heads", 0), ("heads", -1)])
    def test_model_sizes_below_one_rejected_naming_the_key(self, tmp_path, key, value):
        p = tmp_path / "cfg.ini"
        p.write_text(f"[model]\n{key} = {value}\n")
        with pytest.raises(ConfigError) as exc:
            load_settings(p)
        assert str(exc.value) == f"{p}: [model] {key} must be >= 1, got {value}"

    def test_margin_invariants_enforced(self, tmp_path):
        p = tmp_path / "cfg.ini"
        p.write_text("[margins]\nm1 = 1.5\nm2 = 0.5\n")
        with pytest.raises(ConfigError):
            load_settings(p)


# ---------------------------------------------------------------------------
# Fuzzing: only the package's own error types may escape a reader
# ---------------------------------------------------------------------------

IDS = st.text("ab#1", min_size=1, max_size=3)
WORDS = st.text("abXY", min_size=1, max_size=4)


@st.composite
def caption_files(draw) -> tuple[bytes, dict[str, Caption]]:
    """The bytes of a valid caption file, and the captions it holds."""
    lines, captions = [], {}
    for cid in draw(st.lists(IDS, max_size=4, unique=True)):
        words = draw(st.lists(WORDS, min_size=1, max_size=3))
        tags = draw(st.none() | st.lists(
            st.sampled_from(sorted(COARSE_TAGS)), min_size=len(words), max_size=len(words)
        ))
        lines.append(f"{cid}\t{' '.join(words)}" + ("" if tags is None else "\t" + " ".join(tags)))
        captions[cid] = Caption(cid, [w.lower() for w in words], tags)
    return "".join(line + "\n" for line in lines).encode(), captions


@st.composite
def pair_files(draw) -> tuple[bytes, list]:
    """The bytes of a valid pairing file, and the rows it holds."""
    pairs = draw(st.lists(st.tuples(IDS, IDS, st.none() | IDS), max_size=4))
    lines = ["\t".join(p for p in pair if p is not None) + "\n" for pair in pairs]
    return "".join(lines).encode(), pairs


@st.composite
def manifest_files(draw) -> tuple[bytes, dict]:
    """The bytes of a valid manifest, and its fields as relative paths."""
    paths = st.text("ab./", min_size=1, max_size=4)
    fields = {
        "video_features": draw(st.lists(paths, min_size=1, max_size=2)),
        "text_features": draw(st.lists(paths, max_size=2)),
    }
    for key in ("pairs", "captions", "qrels"):
        value = draw(st.none() | paths)
        if value is not None:
            fields[key] = value
    return json.dumps(fields).encode(), fields


@st.composite
def settings_files(draw) -> tuple[bytes, Settings]:
    """The bytes of a valid config file, and the settings it holds."""
    d, heads, seed = draw(st.tuples(st.integers(1, 64), st.integers(1, 4), st.integers(0, 99)))
    m1 = draw(st.floats(0.05, 0.9))
    margins = Margins(m0=draw(st.floats(0, 1)), m1=m1, m2=draw(st.floats(1.0, 1.9)),
                      lambda1=draw(st.floats(0, 1)))
    train = TrainConfig(
        epochs=draw(st.integers(1, 50)), batch_size=draw(st.integers(2, 64)),
        learning_rate=draw(st.floats(0, 2)), clip_norm=draw(st.floats(0.1, 10)),
        validation_metric=draw(st.sampled_from(["mAP", "recall@5"])), margins=margins,
    )
    spaces = draw(st.none() | st.lists(st.text("ab", min_size=1, max_size=2), min_size=1, max_size=2))
    text = (
        f"[model]\nd = {d}\nheads = {heads}\nseed = {seed}\n"
        f"[margins]\nm0 = {margins.m0!r}\nm1 = {margins.m1!r}\nm2 = {margins.m2!r}\n"
        f"lambda1 = {margins.lambda1!r}\n"
        f"[train]\nepochs = {train.epochs}\nbatch_size = {train.batch_size}\n"
        f"learning_rate = {train.learning_rate!r}\nclip_norm = {train.clip_norm!r}\n"
        f"validation_metric = {train.validation_metric}\n"
    )
    if spaces is not None:
        text += f"[features]\nvideo_spaces = {', '.join(spaces)}\n"
    return text.encode(), Settings(d, heads, seed, train, spaces)


class TestReaderFuzzing:
    """Arbitrary, valid and mutated inputs: a valid file reads back as
    written, and on any other input only avsearch.errors types escape."""

    @pytest.mark.parametrize("read", [read_captions, read_pairs, load_manifest, load_settings])
    @given(raw=st.binary(max_size=200))
    def test_arbitrary_bytes(self, tmp_path_factory, read, raw):
        p = tmp_path_factory.getbasetemp() / "fuzz_arbitrary.txt"
        p.write_bytes(raw)
        typed_outcome(read, p)

    @given(data=caption_files())
    def test_valid_caption_files_read_back(self, tmp_path_factory, data):
        raw, captions = data
        p = tmp_path_factory.getbasetemp() / "fuzz_valid.captions"
        p.write_bytes(raw)
        assert read_captions(p) == captions

    @given(data=pair_files())
    def test_valid_pair_files_read_back(self, tmp_path_factory, data):
        raw, pairs = data
        p = tmp_path_factory.getbasetemp() / "fuzz_valid.pairs"
        p.write_bytes(raw)
        assert read_pairs(p) == pairs

    @given(data=manifest_files())
    def test_valid_manifests_read_back(self, tmp_path_factory, data):
        raw, fields = data
        p = tmp_path_factory.getbasetemp() / "fuzz_valid.json"
        p.write_bytes(raw)
        base = p.parent
        assert load_manifest(p) == DatasetManifest(
            video_features=[base / v for v in fields["video_features"]],
            text_features=[base / t for t in fields["text_features"]],
            **{k: base / fields[k] for k in ("pairs", "captions", "qrels") if k in fields},
        )

    @given(data=settings_files())
    def test_valid_settings_read_back(self, tmp_path_factory, data):
        raw, settings = data
        p = tmp_path_factory.getbasetemp() / "fuzz_valid.ini"
        p.write_bytes(raw)
        assert load_settings(p) == settings

    @pytest.mark.parametrize("read, files", [
        (read_captions, caption_files()),
        (read_pairs, pair_files()),
        (load_manifest, manifest_files()),
        (load_settings, settings_files()),
    ], ids=["captions", "pairs", "manifest", "settings"])
    @given(data=st.data())
    def test_mutated_files(self, tmp_path_factory, read, files, data):
        p = tmp_path_factory.getbasetemp() / "fuzz_mutated.txt"
        p.write_bytes(data.draw(mutated(files)))
        typed_outcome(read, p)
