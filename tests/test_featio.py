import builtins
import errno
import hashlib
import os
import stat
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import per_item_oracle as oracle
from avsearch import featio
from avsearch.cli import main as cli_main
from avsearch.errors import DimensionError, FormatError
from avsearch.evaluation import JudgmentSet, RankedRun, read_qrels, read_run, write_qrels, write_run
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
from avsearch.numeric import LinearTanhParams
from avsearch.pseudocap import read_candidates, write_selection

from conftest import huge_d_checkpoint, mutated, random_bundle, randomized_model, typed_outcome


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
        assert feats["v"].dtype == np.float32

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

        # The parameters are written after the header.
        monkeypatch.setattr("avsearch.featio.named_parameters", lambda heads: fail())
        with pytest.raises(RuntimeError, match="disk full"):
            checkpoint_save(model, p)
        assert p.read_bytes() == before
        assert [f.name for f in tmp_path.iterdir()] == ["model.ckpt"]
        with pytest.raises(RuntimeError):
            checkpoint_save(model, tmp_path / "new.ckpt")
        assert [f.name for f in tmp_path.iterdir()] == ["model.ckpt"]

    def test_replaced_head_array_saved_as_set(self, tmp_path):
        # The save reads the head arrays, not params, as to_vector does.
        model = self.make_model()
        head = model.heads[1]
        head.video.transforms["wsl"] = LinearTanhParams(np.full((6, 5), 0.25), np.arange(6.0))
        head.text.attention = np.linspace(-1, 1, 6, dtype=np.float32)
        p = tmp_path / "model.ckpt"
        checkpoint_save(model, p)
        np.testing.assert_array_equal(checkpoint_load(p).params, model.to_vector())
        header = len(p.read_bytes()) - 8 * model.n_params()
        assert p.read_bytes()[header:] == model.to_vector().astype("<f8").tobytes()

    @pytest.mark.parametrize("replace, message", [
        (lambda head: setattr(head.text, "attention", np.ones(5)),
         r"head 1, text branch, attention u has shape \(5,\), the layout needs"
         r" head 1, text branch, attention u \(6,\)"),
        (lambda head: head.video.transforms.update(wsl=LinearTanhParams(np.ones((6, 4)), np.ones(6))),
         r"head 1, video branch, space 'wsl' W has shape \(6, 4\)"),
        (lambda head: head.video.transforms.pop("clip"),
         r"head 1, video branch, space 'wsl' W has shape \(6, 5\), the layout needs"
         r" head 1, video branch, space 'clip' W \(6, 3\)"),
    ], ids=["attention", "transform", "space"])
    def test_head_array_of_another_shape_refused(self, tmp_path, replace, message):
        # Written array by array, it would leave a file that does not load.
        model = self.make_model()
        replace(model.heads[1])
        with pytest.raises(DimensionError, match=message):
            checkpoint_save(model, tmp_path / "model.ckpt")
        assert list(tmp_path.iterdir()) == []

    def test_save_replaces_with_umask_permissions(self, tmp_path):
        p = tmp_path / "model.ckpt"
        p.write_bytes(b"stale")
        checkpoint_save(self.make_model(), p)
        checkpoint_load(p)
        umask = os.umask(0)
        os.umask(umask)
        assert stat.S_IMODE(p.stat().st_mode) == 0o666 & ~umask
        assert [f.name for f in tmp_path.iterdir()] == ["model.ckpt"]

    @pytest.mark.parametrize("index, value, place", [
        # Per head: video clip W (6, 3), b, wsl W (6, 5), b, u; then text bow
        # W (6, 4), b, clip W (6, 2), b, u. One head holds 120 parameters.
        (0, np.nan, "head 0, video branch, space 'clip' W[0, 0]"),
        (19, np.inf, "head 0, video branch, space 'clip' b[1]"),
        (35, -np.inf, "head 0, video branch, space 'wsl' W[2, 1]"),
        (62, np.nan, "head 0, video branch, attention u[2]"),
        (93, np.nan, "head 0, text branch, space 'bow' b[3]"),
        (239, np.inf, "head 1, text branch, attention u[5]"),
    ])
    def test_non_finite_parameter_named_by_place(self, tmp_path, index, value, place):
        model = self.make_model()
        model.params[index] = value
        p = tmp_path / "model.ckpt"
        checkpoint_save(model, p)
        with pytest.raises(FormatError) as exc:
            checkpoint_load(p)
        assert str(exc.value) == f"{p}: non-finite parameter {value} at {place}"

    def test_first_non_finite_parameter_reported(self, tmp_path):
        model = self.make_model()
        model.params[[93, 200]] = [np.inf, np.nan]
        p = tmp_path / "model.ckpt"
        checkpoint_save(model, p)
        with pytest.raises(FormatError, match=r"inf at head 0, text branch, space 'bow' b\[3\]$"):
            checkpoint_load(p)

    def test_finite_parameters_whose_sum_overflows_load(self, tmp_path):
        model = self.make_model()
        half = model.n_params() // 2
        model.params[:half] = 1e308
        model.params[half:] = -1e308
        with np.errstate(all="ignore"):  # the halves overflow, +inf + -inf is nan
            assert np.isnan(model.params.sum())
        p = tmp_path / "model.ckpt"
        checkpoint_save(model, p)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loaded = checkpoint_load(p)
        np.testing.assert_array_equal(loaded.params, model.params)

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

    def interleaved_frames(self, rng) -> dict[str, np.ndarray]:
        """Frames of three items, interleaved and out of order, with `#`
        inside an item id and 1- and 2-digit frame indices."""
        order = [("shot#1", 12), ("v2", 3), ("shot#1", 0), ("v10", 11), ("v2", 10),
                 ("shot#1", 9), ("v10", 1), ("v2", 0), ("shot#1", 10), ("v10", 2)]
        return {f"{item}#{frame}": rng.normal(size=4) for item, frame in order}

    def test_interleaved_frames_match_the_restack_oracle(self, tmp_path, rng):
        p = tmp_path / "frames.feat"
        write_features(p, "fr", self.interleaved_frames(rng))
        want = oracle.group_frame_features(oracle.read_features(p)[1])
        got = group_frame_features(read_features(p)[1])
        assert list(got) == list(want) == ["shot#1", "v2", "v10"]
        for item_id in want:
            np.testing.assert_array_equal(got[item_id], want[item_id])
        # Reordered once: every item is a slice of the same new table.
        bases = {id(arr.base) for arr in got.values()}
        assert len(bases) == 1 and None not in bases

    def test_frame_indices_past_int64_sort_like_the_oracle(self, rng):
        feats = {f"v#{f}": rng.normal(size=2) for f in (10**30, 5, -(10**20), 7)}
        want = oracle.group_frame_features(feats)
        got = group_frame_features(feats)
        np.testing.assert_array_equal(got["v"], want["v"])
        clash = {f"v#{10**21}": np.ones(2), "v#1_000_000_000_000_000_000_000": np.ones(2)}
        with pytest.raises(FormatError) as want:
            oracle.group_frame_features(clash)
        with pytest.raises(FormatError) as got:
            group_frame_features(clash)
        assert str(got.value) == str(want.value)

    def test_grouped_file_is_sliced_without_a_copy(self, tmp_path, rng):
        p = tmp_path / "frames.feat"
        write_features(p, "fr", {f"v{i}#{f}": rng.normal(size=3) for i in range(3) for f in range(12)})
        _, table = read_features(p)
        grouped = group_frame_features(table)
        assert [arr.shape for arr in grouped.values()] == [(12, 3)] * 3
        assert all(np.shares_memory(arr, table.rows) for arr in grouped.values())

    def test_rerank_cli_writes_the_run_the_oracle_path_writes(self, tmp_path, rng, monkeypatch):
        frames = tmp_path / "frames.feat"
        write_features(frames, "fr", self.interleaved_frames(rng))
        queries = tmp_path / "queries.feat"
        write_features(queries, "fr", {"q1": rng.normal(size=4), "q2": rng.normal(size=4)})
        run = tmp_path / "base.run"
        items = ["v10", "shot#1", "v2"]
        write_run(run, RankedRun({q: [(i, 1.0 - 0.1 * k) for k, i in enumerate(items)] for q in ("q1", "q2")}, "t"))

        def rerank_run(out):
            argv = ["rerank", "--run", run, "--frames", frames, "--query-feats", queries, "--out", out]
            assert cli_main([str(a) for a in argv]) == 0
            return out.read_bytes()

        columnar = rerank_run(tmp_path / "columnar.run")
        monkeypatch.setattr("avsearch.cli.read_features", oracle.read_features)
        monkeypatch.setattr("avsearch.cli.group_frame_features", oracle.group_frame_features)
        assert rerank_run(tmp_path / "oracle.run") == columnar

    def test_bad_ids_rejected(self, rng):
        with pytest.raises(FormatError):
            group_frame_features({"noframe": rng.normal(size=2)})
        with pytest.raises(FormatError):
            group_frame_features({"v#x": rng.normal(size=2)})


def feat_bytes(records, dim=3, count=None, name=b"s", magic=b"AVSF", version=1) -> bytes:
    """A feature file of (raw id, values) records, with the header as given."""
    count = len(records) if count is None else count
    header = magic + struct.pack("<BIQH", version, dim, count, len(name)) + name
    return header + b"".join(
        struct.pack("<H", len(rec_id)) + rec_id + np.asarray(vals, dtype="<f4").tobytes()
        for rec_id, vals in records
    )


# Three records whose ids are long enough that a file cut inside the middle
# or last record still passes the header's minimum-size check, so the cut is
# found by the per-record reads.
RECORDS = [(bytes([c]) * n, np.arange(3) + k) for k, (c, n) in enumerate(((97, 40), (98, 50), (99, 60)))]
VALID = feat_bytes(RECORDS)


def record_offset(i: int) -> int:
    """Byte offset of record i's id length in VALID."""
    return len(VALID) - sum(2 + len(rec_id) + 12 for rec_id, _ in RECORDS[i:])


def cut(i: int, part: str) -> bytes:
    """VALID cut one byte into record i's id length, id or values."""
    start = record_offset(i)
    inside = {"id length": 1, "id": 2 + 1, "values": 2 + len(RECORDS[i][0]) + 5}[part]
    return VALID[: start + inside]


CORRUPT = {
    "bad magic": feat_bytes(RECORDS, magic=b"AVSX"),
    "bad version": feat_bytes(RECORDS, version=2),
    "dim 0": feat_bytes([], dim=0),
    "header larger than file": feat_bytes(RECORDS, count=4),
    "empty file": b"",
    "truncated header": VALID[:11],
    "truncated space name length": VALID[:18],
    "truncated space name": VALID[:19],
    **{f"truncated in record {i} {part}": cut(i, part)
       for i in (0, 1, 2) for part in ("id length", "id", "values")},
    "duplicate id": feat_bytes(RECORDS + [RECORDS[1]]),
    "invalid UTF-8 in space name": feat_bytes(RECORDS, name=b"s\xff"),
    "invalid UTF-8 in first id": feat_bytes([(b"\xc3\x28", [0, 1, 2])] + RECORDS),
    "invalid UTF-8 in last id": feat_bytes(RECORDS + [(b"ok\xe9", [0, 1, 2])]),
    "trailing bytes": VALID + b"\x00",
    "record past the count": feat_bytes(RECORDS, count=2),
}
# Decode every record, none, or only the middle (duplicated) one.
KEEPS = {"all": None, "none": set(), "middle": {"b" * 50, "absent"}}


def outcome(read, path, keep):
    """What a reader makes of a file: the error, or the space, ids and values."""
    try:
        name, features = read(path, keep)
    except FormatError as exc:
        return type(exc), str(exc)
    return name, list(features), [features[i] for i in features]


def assert_same_outcome(path, keep):
    """read_features fails as the per-record oracle does, with the same
    message, or returns the same ids and values. Any error other than a
    FormatError escapes and fails the test."""
    want = outcome(oracle.read_features, path, keep)
    got = outcome(read_features, path, keep)
    assert got[:2] == want[:2]
    if len(want) == 3:
        for got_row, want_row in zip(got[2], want[2]):
            np.testing.assert_array_equal(got_row, want_row)


class TestColumnarDecoder:
    @pytest.mark.parametrize("keep", sorted(KEEPS))
    @pytest.mark.parametrize("case", sorted(CORRUPT))
    def test_errors_match_the_per_record_oracle(self, tmp_path, case, keep):
        p = tmp_path / "bad.feat"
        p.write_bytes(CORRUPT[case])
        with pytest.raises(FormatError) as want:
            oracle.read_features(p, KEEPS[keep])
        with pytest.raises(FormatError) as got:
            read_features(p, KEEPS[keep])
        assert str(got.value) == str(want.value)

    def test_cuts_are_found_by_the_record_reads(self, tmp_path):
        p = tmp_path / "bad.feat"
        for i, part in ((1, "id length"), (2, "id"), (0, "values")):
            p.write_bytes(cut(i, part))
            with pytest.raises(FormatError, match=f"truncated while reading record {i}"):
                read_features(p)

    @pytest.mark.parametrize("keep", sorted(KEEPS))
    def test_values_match_the_per_record_oracle(self, tmp_path, keep):
        p = tmp_path / "good.feat"
        p.write_bytes(VALID)
        assert_same_outcome(p, KEEPS[keep])

    def test_rows_are_views_of_one_table(self, tmp_path, rng):
        p = tmp_path / "t.feat"
        write_features(p, "s", {f"v{i}": rng.normal(size=4) for i in range(5)})
        _, table = read_features(p)
        assert table.ids == [f"v{i}" for i in range(5)]
        assert table.rows.shape == (5, 4) and table.rows.dtype == np.float32
        assert all(np.shares_memory(table[i], table.rows) for i in table)
        assert "v3" in table and "v9" not in table and len(table) == 5

    @pytest.mark.parametrize("every", [None, 3])
    def test_refilled_buffer_decodes_like_the_oracle(self, tmp_path, monkeypatch, rng, every):
        # With no staging beyond the longest record, a 1 MB file refills the
        # buffer about 15 times, cutting runs and records at buffer ends.
        monkeypatch.setattr(featio, "_STAGING_BYTES", 0)
        p = tmp_path / "big.feat"
        ids = [f"v{i}#{f}" for i in range(60) for f in range(64)]
        write_features(p, "f", dict(zip(ids, rng.normal(size=(len(ids), 64)))))
        keep = None if every is None else set(ids[::every])
        assert_same_outcome(p, keep)
        raw = p.read_bytes()
        for size in (len(raw) // 2, len(raw) - 100):
            p.write_bytes(raw[:size])
            assert_same_outcome(p, keep)


class TestNonFiniteValues:
    def write(self, p, bad: dict, n=5, dim=3):
        """Records v0..v{n-1}; bad maps a record's index to the value put
        in its column 1."""
        vecs = {f"v{i}": np.arange(float(dim)) + i for i in range(n)}
        for i, value in bad.items():
            vecs[f"v{i}"][1] = value
        write_features(p, "s", vecs)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("bad", [0, 2, 4], ids=["first", "middle", "last"])
    def test_refused_naming_the_file_and_the_record(self, tmp_path, bad, value):
        p = tmp_path / "f.feat"
        self.write(p, {bad: value})
        with pytest.raises(FormatError) as exc:
            read_features(p)
        assert str(exc.value) == f"{p}: non-finite value {np.float32(value)} in record 'v{bad}'"

    def test_the_first_bad_record_is_named(self, tmp_path):
        p = tmp_path / "f.feat"
        self.write(p, {3: np.inf, 1: np.nan})
        with pytest.raises(FormatError, match=r"non-finite value nan in record 'v1'$"):
            read_features(p)

    @pytest.mark.parametrize("bad", [{13: np.nan}, {13: np.nan, 31: -np.inf, 59: np.nan}])
    def test_the_first_bad_record_across_refills(self, tmp_path, monkeypatch, bad):
        # With no staging beyond the longest record, the buffer is refilled
        # after each 16 KiB record, so nearly every record is its own block.
        monkeypatch.setattr(featio, "_STAGING_BYTES", 0)
        p = tmp_path / "f.feat"
        self.write(p, bad, n=60, dim=4096)
        with pytest.raises(FormatError, match=r"non-finite value nan in record 'v13'$"):
            read_features(p)

    def test_a_skipped_record_is_not_checked(self, tmp_path):
        p = tmp_path / "f.feat"
        self.write(p, {2: np.nan})
        _, table = read_features(p, keep={"v1", "v3"})
        assert table.ids == ["v1", "v3"]
        np.testing.assert_array_equal(table["v3"], [3.0, 4.0, 5.0])
        with pytest.raises(FormatError, match=r"in record 'v2'$"):
            read_features(p, keep={"v1", "v2"})

    def test_a_malformed_file_is_reported_as_such_first(self, tmp_path):
        p = tmp_path / "f.feat"
        self.write(p, {0: np.nan})
        p.write_bytes(p.read_bytes() + b"\x00")
        with pytest.raises(FormatError, match="trailing data"):
            read_features(p)


@st.composite
def feature_files(draw, finite=True) -> tuple[bytes, list[str]]:
    """The bytes of a well-formed feature file, and its ids; with finite,
    every value is finite, so the file is valid."""
    dim = draw(st.integers(1, 4))
    ids = draw(st.lists(st.text(max_size=5), max_size=6, unique=True))
    floats = st.floats(width=32, allow_nan=not finite, allow_infinity=not finite)
    values = draw(st.lists(floats, min_size=dim * len(ids), max_size=dim * len(ids)))
    records = [(i.encode(), values[k * dim: (k + 1) * dim]) for k, i in enumerate(ids)]
    return feat_bytes(records, dim=dim, name=draw(st.text(max_size=3)).encode()), ids


def keeps(ids):
    return st.one_of(st.none(), st.sets(st.sampled_from(ids + ["absent"])))


class TestReaderFuzzing:
    @given(raw=st.binary(max_size=200), keep=keeps(["", "a"]))
    def test_arbitrary_bytes(self, tmp_path_factory, raw, keep):
        p = tmp_path_factory.getbasetemp() / "fuzz_arbitrary.feat"
        p.write_bytes(raw)
        assert_same_outcome(p, keep)

    @given(raw=st.binary(max_size=120), keep=keeps(["", "a"]))
    def test_arbitrary_bytes_after_a_valid_header(self, tmp_path_factory, raw, keep):
        p = tmp_path_factory.getbasetemp() / "fuzz_header.feat"
        p.write_bytes(feat_bytes([], dim=1)[:9] + raw)
        assert_same_outcome(p, keep)

    @given(data=st.data())
    def test_valid_files_match_the_oracle(self, tmp_path_factory, data):
        raw, ids = data.draw(feature_files())
        p = tmp_path_factory.getbasetemp() / "fuzz_valid.feat"
        p.write_bytes(raw)
        keep = data.draw(keeps(ids))
        _, features = read_features(p, keep)
        assert list(features) == [i for i in ids if keep is None or i in keep]
        assert_same_outcome(p, keep)

    @given(data=st.data())
    def test_non_finite_values_match_the_oracle(self, tmp_path_factory, data):
        raw, ids = data.draw(feature_files(finite=False))
        p = tmp_path_factory.getbasetemp() / "fuzz_non_finite.feat"
        p.write_bytes(raw)
        assert_same_outcome(p, data.draw(keeps(ids)))

    @given(raw=mutated(feature_files(finite=False)), keep=keeps(["", "a", "b"]))
    def test_mutated_files(self, tmp_path_factory, raw, keep):
        p = tmp_path_factory.getbasetemp() / "fuzz_mutated.feat"
        p.write_bytes(raw)
        assert_same_outcome(p, keep)


def checkpoint_bytes(h: int, d: int, video_dims, text_dims, params) -> bytes:
    """A checkpoint file of the given structure and parameter vector."""
    spaces = b"".join(
        struct.pack("<H", len(dims))
        + b"".join(struct.pack("<H", len(n)) + n + struct.pack("<I", k) for n, k in dims.items())
        for dims in (video_dims, text_dims)
    )
    head = b"AVSC" + struct.pack("<BII", 1, h, d)
    return head + spaces + np.asarray(params, dtype="<f8").tobytes()


@st.composite
def checkpoint_files(draw) -> tuple[bytes, list[float]]:
    """The bytes of a valid checkpoint, and its parameter vector."""
    h, d = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    names = st.binary(min_size=1, max_size=3).filter(lambda b: b.isascii())
    dims = st.dictionaries(names, st.integers(1, 3), min_size=1, max_size=2)
    video_dims, text_dims = draw(dims), draw(dims)
    n = h * d * sum(sum(s.values()) + len(s) + 1 for s in (video_dims, text_dims))
    params = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=n, max_size=n))
    return checkpoint_bytes(h, d, video_dims, text_dims, params), params


class TestCheckpointFuzzing:
    @given(raw=st.binary(max_size=200))
    def test_arbitrary_bytes(self, tmp_path_factory, raw):
        p = tmp_path_factory.getbasetemp() / "fuzz_arbitrary.ckpt"
        p.write_bytes(raw)
        typed_outcome(checkpoint_load, p)

    @given(raw=st.binary(max_size=120))
    def test_arbitrary_bytes_after_a_valid_header(self, tmp_path_factory, raw):
        p = tmp_path_factory.getbasetemp() / "fuzz_header.ckpt"
        p.write_bytes(b"AVSC" + struct.pack("<BII", 1, 1, 2) + raw)
        typed_outcome(checkpoint_load, p)

    @given(data=checkpoint_files())
    def test_valid_files_load(self, tmp_path_factory, data):
        raw, params = data
        p = tmp_path_factory.getbasetemp() / "fuzz_valid.ckpt"
        p.write_bytes(raw)
        got = checkpoint_load(p).params
        assert got.view(np.int64).tolist() == np.array(params).view(np.int64).tolist()

    @given(raw=mutated(checkpoint_files()))
    def test_mutated_files(self, tmp_path_factory, raw):
        p = tmp_path_factory.getbasetemp() / "fuzz_mutated.ckpt"
        p.write_bytes(raw)
        typed_outcome(checkpoint_load, p)


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
