import builtins
import errno
import hashlib
import os
import stat
import struct

import numpy as np
import pytest

from avsearch import featio
from avsearch.cli import main as cli_main
from avsearch.errors import DimensionError, FormatError
from avsearch.evaluation import JudgmentSet, read_qrels, read_run, write_qrels
from avsearch.featio import (
    checkpoint_load,
    checkpoint_save,
    group_frame_features,
    read_features,
    write_features,
)
from avsearch.fusion import init_model, similarity
from avsearch.manifest import (
    DatasetManifest,
    read_captions,
    read_pairs,
    write_captions,
    write_manifest,
    write_pairs,
)
from avsearch.negation import Caption
from avsearch.pseudocap import read_candidates, write_selection

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

    def test_failed_save_keeps_the_old_file(self, tmp_path, monkeypatch):
        p = tmp_path / "model.ckpt"
        checkpoint_save(self.make_model(seed=1), p)
        before = p.read_bytes()
        model = self.make_model(seed=2)

        def fail():
            raise RuntimeError("disk full")

        monkeypatch.setattr(model, "to_vector", fail)  # after the header is written
        with pytest.raises(RuntimeError, match="disk full"):
            checkpoint_save(model, p)
        assert p.read_bytes() == before
        assert [f.name for f in tmp_path.iterdir()] == ["model.ckpt"]
        with pytest.raises(RuntimeError):
            checkpoint_save(model, tmp_path / "new.ckpt")
        assert [f.name for f in tmp_path.iterdir()] == ["model.ckpt"]

    def test_save_replaces_with_umask_permissions(self, tmp_path):
        p = tmp_path / "model.ckpt"
        p.write_bytes(b"stale")
        checkpoint_save(self.make_model(), p)
        checkpoint_load(p)
        umask = os.umask(0)
        os.umask(umask)
        assert stat.S_IMODE(p.stat().st_mode) == 0o666 & ~umask
        assert [f.name for f in tmp_path.iterdir()] == ["model.ckpt"]

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


class _DiskFullFile:
    """A file whose first write stores half of its data and then fails.

    Reading lines passes through: `featio.open` also opens the text files
    that `featio.read_fields` reads."""

    def __init__(self, fh):
        self._fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._fh.close()

    def __iter__(self):
        return iter(self._fh)

    def write(self, data):
        self._fh.write(data[: len(data) // 2])
        self._fh.flush()
        raise OSError(errno.ENOSPC, "No space left on device")


def _negate_cli(path):
    captions = path.parent / "captions.tsv"
    captions.write_text("c1\ta man is holding a knife\n", encoding="utf-8")
    assert cli_main(["negate", "--captions", str(captions), "--out", str(path)]) == 1
    captions.unlink()


WRITERS = {
    "write_features": lambda p: write_features(p, "s", {"a": np.ones(3), "b": np.zeros(3)}),
    "write_manifest": lambda p: write_manifest(p, DatasetManifest([p.parent / "v.feat"], [])),
    "write_captions": lambda p: write_captions(p, {"c1": Caption("c1", ["a", "dog"])}),
    "write_pairs": lambda p: write_pairs(p, [("v1", "c1", None), ("v1", "c2", "c2n")]),
    "write_qrels": lambda p: write_qrels(p, JudgmentSet({"q1": {"v1": 1}})),
    "write_selection": lambda p: write_selection(p, {"v1": [("a dog", 0.5)]}),
    "negate": _negate_cli,
}


class TestAtomicWriters:
    @pytest.mark.parametrize("writer", sorted(WRITERS))
    def test_failed_write_keeps_the_old_file(self, tmp_path, monkeypatch, writer):
        # Every file the writer opens fails halfway through its first write.
        def failing_open(*args, **kwargs):
            return _DiskFullFile(builtins.open(*args, **kwargs))

        monkeypatch.setattr(featio, "open", failing_open, raising=False)
        p = tmp_path / "out.txt"
        p.write_bytes(b"old contents\n")
        try:
            WRITERS[writer](p)
        except OSError as exc:
            assert exc.errno == errno.ENOSPC
        assert p.read_bytes() == b"old contents\n"
        assert [f.name for f in tmp_path.iterdir()] == ["out.txt"]


# Per line format: its reader, valid lines, and a line holding an invalid
# UTF-8 byte, which comes right after them.
TEXT_READERS = {
    "run": (read_run, b"q1 Q0 a 1 0.500000 t\n", b"q1 Q0 \xff 2 0.400000 t\n"),
    "qrels": (read_qrels, b"#complete\nq1 0 a 1\n", b"q1 0 b\xe9 0\n"),
    "captions": (read_captions, b"c1\ta dog\n\n", b"c2\ta \xc3\x28 cat\n"),
    # Text mode also ends a line at \r\n or a lone \r.
    "pairs": (read_pairs, b"v1\tc1\rv1\tc2\r\n", b"v2\tc\xff3\r\n"),
    "candidates": (read_candidates, b"v1\t0\ta dog\n", b"v1\t1\ta \x80 dog\n"),
    # The bad byte lies well past the reader's first decoded block.
    "long_pairs": (read_pairs, b"".join(b"v%d\tc%d\n" % (i, i) for i in range(5000)), b"v\xff\tc\n"),
}


class TestTextLines:
    @pytest.mark.parametrize("fmt", sorted(TEXT_READERS))
    def test_invalid_utf8_names_file_and_line(self, tmp_path, fmt):
        reader, good, bad = TEXT_READERS[fmt]
        p = tmp_path / f"{fmt}.txt"
        p.write_bytes(good + bad)
        line = len(good.decode().splitlines()) + 1
        with pytest.raises(FormatError, match=rf"{fmt}\.txt:{line}: invalid UTF-8"):
            reader(p)
