"""Binary feature files and model checkpoints.

Feature file layout (all integers little-endian):

    magic   4 bytes  "AVSF"
    version u8       1
    dim     u32
    count   u64
    name    u16 length + UTF-8 space name
    records count times: u16 id length, UTF-8 id, dim float32 values

Values are stored as 32-bit floats and widened to 64-bit on load. Frame
features reuse the same container with ids of the form `item_id#frame_index`.

Checkpoints (magic "AVSC") store h, d and both space lists with their input
dims, then the model's flat parameter vector (`LaffModel.params`, in the
canonical order of `fusion._heads_on`) as little-endian float64, so a
reloaded model reproduces similarities bit-identically.

Readers check the sizes a header claims against the bytes left in the file
before allocating anything, so a corrupt header is a FormatError rather
than an attempt to allocate gigabytes.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from .errors import DimensionError, FormatError
from .fusion import LaffModel, param_count

FEATURE_MAGIC = b"AVSF"
CHECKPOINT_MAGIC = b"AVSC"
FORMAT_VERSION = 1


class _Reader:
    """Tracks the byte offset so parse errors can point at it."""

    def __init__(self, fh, path):
        self.fh = fh
        self.path = path
        self.offset = 0
        self._size = None

    def read(self, n: int, what: str) -> bytes:
        data = self.fh.read(n)
        if len(data) != n:
            raise FormatError(
                f"{self.path}: truncated while reading {what}"
                f" at byte offset {self.offset} (wanted {n} bytes, got {len(data)})"
            )
        self.offset += n
        return data

    def need(self, n: int, what: str) -> None:
        """Fail unless at least n more bytes remain, without reading them."""
        if self._size is None:
            self._size = os.fstat(self.fh.fileno()).st_size
        left = self._size - self.offset
        if n > left:
            raise FormatError(
                f"{self.path}: truncated while reading {what}"
                f" at byte offset {self.offset} (wanted {n} bytes, got {left})"
            )

    def read_array(self, n: int, what: str) -> np.ndarray:
        """Read n little-endian float64 values straight into a new array,
        checking first that the file holds them."""
        self.need(8 * n, what)
        out = np.empty(n, dtype="<f8")
        got = self.fh.readinto(memoryview(out).cast("B"))
        if got != out.nbytes:
            raise FormatError(
                f"{self.path}: truncated while reading {what}"
                f" at byte offset {self.offset} (wanted {out.nbytes} bytes, got {got})"
            )
        self.offset += got
        return out

    def skip(self, n: int, what: str) -> None:
        """Move past n bytes without reading them."""
        self.need(n, what)
        self.fh.seek(n, os.SEEK_CUR)
        self.offset += n

    def unpack(self, fmt: str, what: str):
        values = struct.unpack(fmt, self.read(struct.calcsize(fmt), what))
        return values[0] if len(values) == 1 else values

    def expect_eof(self) -> None:
        extra = self.fh.read(1)
        if extra:
            raise FormatError(
                f"{self.path}: trailing data at byte offset {self.offset}"
            )


def _read_name(reader: _Reader, what: str) -> str:
    length = reader.unpack("<H", f"{what} length")
    raw = reader.read(length, what)
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{reader.path}: invalid UTF-8 in {what}: {exc}") from None


def _pack_name(name: str) -> bytes:
    raw = name.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise FormatError(f"name too long ({len(raw)} bytes): {name[:40]!r}...")
    return struct.pack("<H", len(raw)) + raw


def write_features(path, space_name: str, features: dict[str, np.ndarray]) -> None:
    """Write one feature space; record order follows dict insertion order."""
    items = list(features.items())
    if items:
        dim = int(np.asarray(items[0][1]).shape[0])
    else:
        dim = 1
    for item_id, vec in items:
        vec = np.asarray(vec)
        if vec.ndim != 1 or vec.shape[0] != dim:
            raise DimensionError(
                f"feature {item_id!r} has shape {vec.shape}, expected ({dim},)"
            )
    with open(path, "wb") as fh:
        fh.write(FEATURE_MAGIC)
        fh.write(struct.pack("<B", FORMAT_VERSION))
        fh.write(struct.pack("<I", dim))
        fh.write(struct.pack("<Q", len(items)))
        fh.write(_pack_name(space_name))
        for item_id, vec in items:
            fh.write(_pack_name(item_id))
            fh.write(np.asarray(vec, dtype="<f4").tobytes())


def read_features(path, keep=None) -> tuple[str, dict[str, np.ndarray]]:
    """Read one feature space; vectors come back as float64.

    With keep (a set of ids), only those records are decoded; the values
    of the others are skipped unread, though their ids are still checked
    for duplicates."""
    with open(path, "rb") as fh:
        reader = _Reader(fh, path)
        magic = reader.read(4, "magic")
        if magic != FEATURE_MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r}, expected {FEATURE_MAGIC!r}")
        version = reader.unpack("<B", "version")
        if version != FORMAT_VERSION:
            raise FormatError(f"{path}: unsupported version {version}")
        dim = reader.unpack("<I", "dim")
        if dim < 1:
            raise FormatError(f"{path}: dim must be >= 1, got {dim}")
        count = reader.unpack("<Q", "count")
        space_name = _read_name(reader, "space name")
        # Each record holds at least a u16 id length and dim float32 values.
        reader.need(count * (2 + 4 * dim), f"{count} records of {dim} values")
        features: dict[str, np.ndarray] = {}
        skipped: set[str] = set()
        for i in range(count):
            item_id = _read_name(reader, f"record {i} id")
            what = f"record {i} ({item_id!r}) values"
            if item_id in features or item_id in skipped:
                raise FormatError(f"{path}: duplicate record id {item_id!r}")
            if keep is not None and item_id not in keep:
                reader.skip(4 * dim, what)
                skipped.add(item_id)
                continue
            raw = reader.read(4 * dim, what)
            features[item_id] = np.frombuffer(raw, dtype="<f4").astype(np.float64)
        reader.expect_eof()
    return space_name, features


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def checkpoint_save(model: LaffModel, path) -> None:
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<B", FORMAT_VERSION))
        fh.write(struct.pack("<II", model.h, model.d))
        for dims in (model.video_dims(), model.text_dims()):
            fh.write(struct.pack("<H", len(dims)))
            for name in sorted(dims):
                fh.write(_pack_name(name))
                fh.write(struct.pack("<I", dims[name]))
        fh.write(model.to_vector().astype("<f8", copy=False))


def checkpoint_load(path) -> LaffModel:
    with open(path, "rb") as fh:
        reader = _Reader(fh, path)
        magic = reader.read(4, "magic")
        if magic != CHECKPOINT_MAGIC:
            raise FormatError(
                f"{path}: bad magic {magic!r}, expected {CHECKPOINT_MAGIC!r}"
            )
        version = reader.unpack("<B", "version")
        if version != FORMAT_VERSION:
            raise FormatError(f"{path}: unsupported version {version}")
        h, d = reader.unpack("<II", "h and d")
        if h < 1 or d < 1:
            raise FormatError(f"{path}: corrupt header (h={h}, d={d})")
        space_dims: list[dict[str, int]] = []
        for what in ("video", "text"):
            n_spaces = reader.unpack("<H", f"{what} space count")
            if n_spaces < 1:
                raise FormatError(f"{path}: no {what} spaces")
            dims: dict[str, int] = {}
            for _ in range(n_spaces):
                name = _read_name(reader, f"{what} space name")
                dim = reader.unpack("<I", f"{what} space {name!r} dim")
                if dim < 1 or name in dims:
                    raise FormatError(f"{path}: corrupt {what} space table")
                dims[name] = dim
            space_dims.append(dims)
        video_dims, text_dims = space_dims
        params = reader.read_array(param_count(video_dims, text_dims, d, h), "parameters")
        reader.expect_eof()
    return LaffModel.from_params(params, video_dims, text_dims, d, h)


def group_frame_features(features: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Group `item_id#frame_index` records into per-item (n, dim) arrays,
    ordered by frame index. Two records of the same frame (`v#1`, `v#01`)
    are rejected."""
    grouped: dict[str, list[tuple[int, str]]] = {}
    for rec_id in features:
        item_id, sep, frame_str = rec_id.rpartition("#")
        if not sep:
            raise FormatError(
                f"frame record id {rec_id!r} is not of the form item_id#frame_index"
            )
        try:
            frame_index = int(frame_str)
        except ValueError:
            raise FormatError(
                f"frame record id {rec_id!r} has non-integer frame index"
            ) from None
        grouped.setdefault(item_id, []).append((frame_index, rec_id))
    out = {}
    for item_id, frames in grouped.items():
        frames.sort(key=lambda frame: frame[0])
        for (index, first), (next_index, second) in zip(frames, frames[1:]):
            if index == next_index:
                raise FormatError(
                    f"frame records {first!r} and {second!r} both hold"
                    f" frame {index} of {item_id!r}"
                )
        out[item_id] = np.stack([features[rec_id] for _, rec_id in frames])
    return out
