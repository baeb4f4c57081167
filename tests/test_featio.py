import hashlib
import struct

import numpy as np
import pytest

from avsearch.errors import DimensionError, FormatError
from avsearch.featio import (
    checkpoint_load,
    checkpoint_save,
    group_frame_features,
    read_features,
    write_features,
)
from avsearch.fusion import init_model, similarity

from conftest import huge_d_checkpoint, random_bundle, randomized_model


class TestFeatureFiles:
    def test_empty_file_roundtrip(self, tmp_path):
        p = tmp_path / "empty.feat"
        write_features(p, "clip", {})
        name, feats = read_features(p)
        assert name == "clip"
        assert feats == {}

    def test_single_record_roundtrip_bit_identical(self, tmp_path, rng):
        p1 = tmp_path / "one.feat"
        p2 = tmp_path / "one2.feat"
        vec = rng.normal(size=5).astype(np.float32).astype(np.float64)
        write_features(p1, "clip", {"v1": vec})
        name, feats = read_features(p1)
        np.testing.assert_array_equal(feats["v1"], vec)
        write_features(p2, name, feats)
        assert p1.read_bytes() == p2.read_bytes()

    def test_multi_record_order_preserved(self, tmp_path, rng):
        p = tmp_path / "many.feat"
        data = {f"v{i}": rng.normal(size=3) for i in (3, 1, 2)}
        write_features(p, "s", data)
        _, feats = read_features(p)
        assert list(feats) == ["v3", "v1", "v2"]

    def test_float32_precision_on_disk(self, tmp_path):
        p = tmp_path / "f32.feat"
        write_features(p, "s", {"v": np.array([0.1, 0.2])})
        _, feats = read_features(p)
        np.testing.assert_array_equal(
            feats["v"], np.array([0.1, 0.2], dtype=np.float32).astype(np.float64)
        )
        assert feats["v"].dtype == np.float64

    def test_truncated_record_reports_offset(self, tmp_path, rng):
        p = tmp_path / "trunc.feat"
        write_features(p, "s", {"v1": rng.normal(size=4), "v2": rng.normal(size=4)})
        raw = p.read_bytes()
        # Drop the second record entirely while the header still says count=2.
        p.write_bytes(raw[: len(raw) - (2 + 2 + 16)])
        with pytest.raises(FormatError, match="byte offset"):
            read_features(p)

    def test_truncated_mid_values(self, tmp_path, rng):
        p = tmp_path / "trunc2.feat"
        write_features(p, "s", {"v1": rng.normal(size=4)})
        raw = p.read_bytes()
        p.write_bytes(raw[:-3])
        with pytest.raises(FormatError, match="truncated"):
            read_features(p)

    def test_bad_magic(self, tmp_path, rng):
        p = tmp_path / "bad.feat"
        write_features(p, "s", {"v1": rng.normal(size=2)})
        raw = bytearray(p.read_bytes())
        raw[0:4] = b"XXXX"
        p.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="magic"):
            read_features(p)

    def test_bad_version(self, tmp_path, rng):
        p = tmp_path / "bad.feat"
        write_features(p, "s", {"v1": rng.normal(size=2)})
        raw = bytearray(p.read_bytes())
        raw[4] = 99
        p.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="version"):
            read_features(p)

    def test_trailing_garbage_rejected(self, tmp_path, rng):
        p = tmp_path / "bad.feat"
        write_features(p, "s", {"v1": rng.normal(size=2)})
        p.write_bytes(p.read_bytes() + b"\x00")
        with pytest.raises(FormatError, match="trailing"):
            read_features(p)

    def test_dim_mismatch_on_write(self, tmp_path, rng):
        with pytest.raises(DimensionError):
            write_features(
                tmp_path / "x.feat",
                "s",
                {"a": rng.normal(size=3), "b": rng.normal(size=4)},
            )

    def test_zero_dim_header_rejected(self, tmp_path):
        p = tmp_path / "bad.feat"
        p.write_bytes(b"AVSF" + struct.pack("<B", 1) + struct.pack("<I", 0)
                      + struct.pack("<Q", 0) + struct.pack("<H", 1) + b"s")
        with pytest.raises(FormatError, match="dim"):
            read_features(p)

    def test_duplicate_id_rejected(self, tmp_path):
        p = tmp_path / "bad.feat"
        body = b""
        for _ in range(2):
            body += struct.pack("<H", 2) + b"v1" + struct.pack("<f", 1.0)
        header = (b"AVSF" + struct.pack("<B", 1) + struct.pack("<I", 1)
                  + struct.pack("<Q", 2) + struct.pack("<H", 1) + b"s")
        p.write_bytes(header + body)
        with pytest.raises(FormatError, match="duplicate"):
            read_features(p)

    def test_keep_decodes_only_the_listed_records(self, tmp_path, rng):
        p = tmp_path / "many.feat"
        data = {f"v{i}": rng.normal(size=3) for i in (3, 1, 2, 0)}
        write_features(p, "s", data)
        _, full = read_features(p)
        name, kept = read_features(p, keep={"v2", "v3", "absent"})
        assert name == "s"
        assert list(kept) == ["v3", "v2"]
        for item_id, vec in kept.items():
            np.testing.assert_array_equal(vec, full[item_id])

    def test_keep_still_rejects_truncation_in_a_skipped_record(self, tmp_path, rng):
        p = tmp_path / "trunc.feat"
        write_features(p, "s", {"v1": rng.normal(size=4), "v2": rng.normal(size=4)})
        p.write_bytes(p.read_bytes()[:-3])
        with pytest.raises(FormatError, match="truncated"):
            read_features(p, keep={"v1"})

    def test_keep_still_rejects_a_duplicate_skipped_id(self, tmp_path):
        p = tmp_path / "bad.feat"
        body = b""
        for item_id in (b"v1", b"v2", b"v1"):
            body += struct.pack("<H", 2) + item_id + struct.pack("<f", 1.0)
        header = (b"AVSF" + struct.pack("<B", 1) + struct.pack("<I", 1)
                  + struct.pack("<Q", 3) + struct.pack("<H", 1) + b"s")
        p.write_bytes(header + body)
        with pytest.raises(FormatError, match="duplicate"):
            read_features(p, keep={"v2"})

    def test_huge_dim_in_header_rejected_before_allocating(self, tmp_path):
        p = tmp_path / "huge.feat"
        header = (b"AVSF" + struct.pack("<B", 1) + struct.pack("<I", 2**32 - 1)
                  + struct.pack("<Q", 1) + struct.pack("<H", 1) + b"s")
        p.write_bytes(header + struct.pack("<H", 2) + b"v1" + struct.pack("<f", 1.0))
        with pytest.raises(FormatError, match="1 records of 4294967295 values"):
            read_features(p)


class TestCheckpoints:
    def make_model(self, seed=0):
        return randomized_model({"wsl": 5, "clip": 3}, {"bow": 4, "clip": 2}, d=6, heads=2, seed=seed)

    def test_similarity_bit_identical_after_roundtrip(self, tmp_path, rng):
        model = self.make_model()
        p = tmp_path / "model.ckpt"
        checkpoint_save(model, p)
        loaded = checkpoint_load(p)
        video = random_bundle("v", {"wsl": 5, "clip": 3}, rng)
        text = random_bundle("q", {"bow": 4, "clip": 2}, rng)
        assert similarity(loaded, video, text) == similarity(model, video, text)
        np.testing.assert_array_equal(loaded.to_vector(), model.to_vector())

    def test_flipped_magic_rejected(self, tmp_path):
        p = tmp_path / "model.ckpt"
        checkpoint_save(self.make_model(), p)
        raw = bytearray(p.read_bytes())
        raw[0] ^= 0xFF
        p.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="magic"):
            checkpoint_load(p)

    def test_deterministic_bytes(self, tmp_path):
        p1 = tmp_path / "a.ckpt"
        p2 = tmp_path / "b.ckpt"
        checkpoint_save(self.make_model(seed=42), p1)
        checkpoint_save(self.make_model(seed=42), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncation_rejected(self, tmp_path):
        p = tmp_path / "model.ckpt"
        checkpoint_save(self.make_model(), p)
        raw = p.read_bytes()
        p.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(FormatError, match="truncated"):
            checkpoint_load(p)

    def test_trailing_bytes_rejected(self, tmp_path):
        p = tmp_path / "model.ckpt"
        checkpoint_save(self.make_model(), p)
        p.write_bytes(p.read_bytes() + b"junk")
        with pytest.raises(FormatError, match="trailing"):
            checkpoint_load(p)

    def test_huge_d_in_header_rejected_before_allocating(self, tmp_path):
        p = tmp_path / "model.ckpt"
        huge_d_checkpoint(p)
        with pytest.raises(FormatError, match="truncated while reading parameters"):
            checkpoint_load(p)

    def test_golden_bytes(self, tmp_path):
        # sha256 of files written by earlier versions: the byte layout and
        # init_model's draw order must not change.
        vdims, tdims = {"vb": 5, "va": 3}, {"tx": 4, "ta": 2}
        for model, digest in (
            (init_model(vdims, tdims, d=4, heads=2, seed=7),
             "fe184d5f5845824916db50ff6abf4214fd667147c4d2cb9c6fcab82172793a1a"),
            (randomized_model(vdims, tdims, d=4, heads=2, seed=3),
             "6a71d29270ca922fb96773f93daf5fe12deed3a69b11b02dc9e63117b61ba14e"),
        ):
            p = tmp_path / "model.ckpt"
            checkpoint_save(model, p)
            assert hashlib.sha256(p.read_bytes()).hexdigest() == digest

    def test_version_mismatch(self, tmp_path):
        p = tmp_path / "model.ckpt"
        checkpoint_save(self.make_model(), p)
        raw = bytearray(p.read_bytes())
        raw[4] = 9
        p.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="version"):
            checkpoint_load(p)


class TestFrameGrouping:
    def test_groups_and_sorts_by_frame(self, rng):
        feats = {
            "v1#2": rng.normal(size=3),
            "v1#0": rng.normal(size=3),
            "v2#1": rng.normal(size=3),
        }
        grouped = group_frame_features(feats)
        assert set(grouped) == {"v1", "v2"}
        np.testing.assert_array_equal(grouped["v1"][0], feats["v1#0"])
        np.testing.assert_array_equal(grouped["v1"][1], feats["v1#2"])
        assert grouped["v2"].shape == (1, 3)

    def test_id_with_hash_in_item(self, rng):
        grouped = group_frame_features({"shot#1#5": rng.normal(size=2)})
        assert set(grouped) == {"shot#1"}

    def test_duplicate_frame_index_rejected(self, rng):
        feats = {rec_id: rng.normal(size=2) for rec_id in ("v#1", "v#0", "v#01")}
        with pytest.raises(FormatError, match=r"'v#1'.*'v#01'"):
            group_frame_features(feats)

    def test_bad_ids_rejected(self, rng):
        with pytest.raises(FormatError):
            group_frame_features({"noframe": rng.normal(size=2)})
        with pytest.raises(FormatError):
            group_frame_features({"v#x": rng.normal(size=2)})
