"""Binary feature files and model checkpoints.

Feature file layout (all integers little-endian):

    magic   4 bytes  "AVSF"
    version u8       1
    dim     u32
    count   u64
    name    u16 length + UTF-8 space name
    records count times: u16 id length, UTF-8 id, dim float32 values

Values are stored as 32-bit floats and stay 32-bit in memory; code that
computes on them widens them to 64-bit in the copy it makes anyway (see
`fusion.branch_tables`). Frame features reuse the same container with ids
of the form `item_id#frame_index`.

`read_features` decodes column-wise, through one staging buffer of about
1 MiB plus the longest possible record, so the file's bytes are never all
in memory at once. One Python pass over the buffer unpacks each id's length, decodes
the id and checks it for duplicates and against `keep`. Before each refill,
the kept values in the buffer are copied into one (n, dim) float32 table,
through one strided view per run of equally spaced records, and checked
for NaN and infinite values while they are in cache. The result, a
`FeatureTable`, maps each id to a view of its row of that table.

Checkpoints (magic "AVSC") store h, d and both space lists with their input
dims, then the model's parameters in the canonical order of
`fusion._heads_on` as little-endian float64, written from its flat vector
`params` in one call, so a reloaded model reproduces similarities
bit-identically. A NaN or infinite parameter is a FormatError that names
its head, branch and array.

Readers check the sizes a header claims against the bytes left in the file
before allocating anything, so a corrupt header is a FormatError rather
than an attempt to allocate gigabytes.

Every file the package writes, except the training log that `fit` appends
to epoch by epoch, goes through `atomic_open`, so a failed write never
leaves a truncated file under the final name.

The line-oriented text formats (run, qrels, caption, pairing and
candidate files) are all read through `read_fields`, which splits each
line into its fields, checks their count and reports invalid UTF-8 as a
FormatError at `path:line`; each reader adds only its own format's checks.
The TAB-separated ones (caption, pairing, candidate and selection files)
refuse an empty field or one holding a TAB or line break (`check_fields`),
the space-separated ones an empty token or one holding whitespace
(`check_tokens`). Both binary readers start with `_Reader.expect_header`.
"""

from __future__ import annotations

import math
import os
import struct
from collections.abc import Mapping
from contextlib import contextmanager

import numpy as np

from .errors import DimensionError, FormatError
from .fusion import LaffModel, named_parameters, param_count

FEATURE_MAGIC = b"AVSF"
CHECKPOINT_MAGIC = b"AVSC"
FORMAT_VERSION = 1
# Bytes of a feature file read into memory at a time, besides one record.
_STAGING_BYTES = 1 << 20


@contextmanager
def atomic_open(path, mode: str = "wb", **kwargs):
    """Open a new file next to `path`; rename it onto `path` once the block ends.

    If the block raises, the new file is removed and whatever was at `path`
    is left untouched. The rename is atomic, but there is no fsync: this
    guards against a failed or interrupted writer, not against power loss.
    """
    path = os.fspath(path)
    head, tail = os.path.split(path)
    temp = os.path.join(head, f".{tail}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, mode, **kwargs) as fh:
            yield fh
        os.replace(temp, path)
    except BaseException:
        os.unlink(temp)
        raise


def _truncated(path, what: str, offset: int, wanted: int, got: int) -> FormatError:
    return FormatError(
        f"{path}: truncated while reading {what}"
        f" at byte offset {offset} (wanted {wanted} bytes, got {got})"
    )


class _Reader:
    """Tracks the byte offset so parse errors can point at it."""

    def __init__(self, fh, path):
        self.fh = fh
        self.path = path
        self.offset = 0
        self.size = os.fstat(fh.fileno()).st_size

    def read(self, n: int, what: str) -> bytes:
        data = self.fh.read(n)
        if len(data) != n:
            raise _truncated(self.path, what, self.offset, n, len(data))
        self.offset += n
        return data

    def need(self, n: int, what: str) -> None:
        """Fail unless at least n more bytes remain, without reading them."""
        left = self.size - self.offset
        if n > left:
            raise _truncated(self.path, what, self.offset, n, left)

    def read_array(self, n: int, what: str) -> np.ndarray:
        """Read n little-endian float64 values straight into a new array,
        checking first that the file holds them."""
        self.need(8 * n, what)
        out = np.empty(n, dtype="<f8")
        got = self.fh.readinto(memoryview(out).cast("B"))
        if got != out.nbytes:
            raise _truncated(self.path, what, self.offset, out.nbytes, got)
        self.offset += got
        return out

    def unpack(self, fmt: str, what: str):
        values = struct.unpack(fmt, self.read(struct.calcsize(fmt), what))
        return values[0] if len(values) == 1 else values

    def expect_header(self, magic: bytes) -> None:
        """Read the 4-byte magic and the u8 version, and refuse any other
        magic than `magic` or any version but FORMAT_VERSION."""
        got = self.read(4, "magic")
        if got != magic:
            raise FormatError(f"{self.path}: bad magic {got!r}, expected {magic!r}")
        version = self.unpack("<B", "version")
        if version != FORMAT_VERSION:
            raise FormatError(f"{self.path}: unsupported version {version}")

    def expect_eof(self) -> None:
        extra = self.fh.read(1)
        if extra:
            raise FormatError(
                f"{self.path}: trailing data at byte offset {self.offset}"
            )


def read_fields(path, sep: str, counts: tuple[int, ...], skip_blank=False, header=()):
    """Yield (lineno, fields) for each line of a UTF-8 text file, split on sep.

    The field count must be in counts, except that line 1 may instead be
    one of the header strings. A blank line is skipped if skip_blank, else
    rejected. Invalid UTF-8 is a FormatError naming its line.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                line = line.rstrip("\n")
                if not line:
                    if skip_blank:
                        continue
                    raise FormatError(f"{path}:{lineno}: empty line")
                fields = line.split(sep)
                if len(fields) not in counts and not (lineno == 1 and line in header):
                    kind = "space" if sep == " " else "TAB"
                    raise FormatError(
                        f"{path}:{lineno}: expected {' or '.join(map(str, counts))}"
                        f" {kind}-separated fields, got {len(fields)}"
                    )
                yield lineno, fields
        except UnicodeDecodeError:
            raise FormatError(utf8_error(path)) from None


def check_fields(where: str, fields, names) -> None:
    """A FormatError at `where` naming the first of fields that is empty or
    holds a TAB or line break. A line without an id would fail later, under
    another name, and one with a TAB or line break in an id would read back
    as other fields or lines."""
    for value, name in zip(fields, names):
        if not value:
            raise FormatError(f"{where}: empty {name}")
        if "\t" in value or "\n" in value or "\r" in value:
            raise FormatError(f"{where}: {name} {value!r} holds a TAB or line break")


def check_tokens(where, field: str, values) -> None:
    """Reject an empty value or one holding whitespace, as a line split on
    whitespace would not read it back; the error, at `where`, names the
    first in sorted order."""
    bad = sorted(value for value in values if value.split() != [value])
    if bad:
        raise FormatError(f"{where}: {field} {bad[0]!r} is empty or contains whitespace")


def utf8_error(path) -> str:
    """`path:line: invalid UTF-8 ...` for a text file that does not decode,
    found by decoding the whole file again (only on the error path)."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # Text mode ends a line at \n, \r\n or a lone \r.
        head = data[: exc.start].decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
        lineno = head.count("\n") + 1
        return f"{path}:{lineno}: invalid UTF-8 at byte offset {exc.start} ({exc.reason})"
    return f"{path}: invalid UTF-8"


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


def _float32_record(path, item_id: str, vec) -> np.ndarray:
    """vec as the file's little-endian float32 values. A NaN or infinite
    value, or a finite one beyond float32's range (which the cast makes
    infinite), is a FormatError naming the record: read_features refuses it.
    The caller ignores floating-point overflow."""
    values = np.asarray(vec, dtype="<f4")
    # The sum of squares is finite only if every value is; it can also
    # overflow on large finite values, which the exact test then lets pass.
    if math.isfinite(values.dot(values)) or np.isfinite(values).all():
        return values
    value = np.asarray(vec)[np.flatnonzero(~np.isfinite(values))[0]]
    if np.isfinite(value):
        raise FormatError(f"{path}: value {value} in record {item_id!r} overflows float32")
    raise FormatError(f"{path}: non-finite value {value} in record {item_id!r}")


def write_features(path, space_name: str, features: Mapping[str, np.ndarray]) -> None:
    """Write one feature space; record order follows dict insertion order.

    A vector shaped unlike the first, or a value read_features would refuse
    (_float32_record), is raised inside atomic_open: whatever was at path stays.
    """
    items = list(features.items())  # a list, not the view: see ROADMAP item 0 (peak RSS)
    if items:
        dim = int(np.asarray(items[0][1]).shape[0])
    else:
        dim = 1
    with atomic_open(path) as fh, np.errstate(over="ignore"):
        fh.write(FEATURE_MAGIC)
        fh.write(struct.pack("<B", FORMAT_VERSION))
        fh.write(struct.pack("<I", dim))
        fh.write(struct.pack("<Q", len(items)))
        fh.write(_pack_name(space_name))
        for item_id, vec in items:
            vec = np.asarray(vec)
            if vec.ndim != 1 or vec.shape[0] != dim:
                raise DimensionError(
                    f"feature {item_id!r} has shape {vec.shape}, expected ({dim},)"
                )
            fh.write(_pack_name(item_id))
            fh.write(_float32_record(path, item_id, vec).tobytes())


class FeatureTable(Mapping):
    """The decoded records of one feature file, as a read-only mapping.

    `rows` is one (n, dim) float32 table, the file's own precision, and
    `ids[i]` labels `rows[i]`, in record order; looking an id up returns a
    view of its row.
    """

    def __init__(self, index: dict[str, int], rows: np.ndarray):
        self._index = index
        self.ids = list(index)
        self.rows = rows

    def __getitem__(self, item_id: str) -> np.ndarray:
        return self.rows[self._index[item_id]]

    def __contains__(self, item_id) -> bool:
        return item_id in self._index

    def __iter__(self):
        return iter(self.ids)

    def __len__(self) -> int:
        return len(self.ids)


def _copy_records(rows: np.ndarray, row: int, buf: bytearray, starts: list[int]) -> bool:
    """Copy the float32 records at byte positions `starts` of `buf` into
    `rows[row:]`, through one strided view per run of equally spaced records.
    Return whether every copied value is finite, checked while the rows are
    in cache."""
    if not starts:
        return True
    dim = rows.shape[1]
    steps = np.diff(starts)
    # A new run starts at each record whose spacing to the next one changes.
    bounds = [0, *(np.flatnonzero(np.diff(steps)) + 1).tolist(), len(starts)]
    for a, b in zip(bounds, bounds[1:]):
        stride = starts[a + 1] - starts[a] if b - a > 1 else 4 * dim
        rows[row + a : row + b] = np.ndarray(
            (b - a, dim), "<f4", buffer=buf, offset=starts[a], strides=(stride, 4)
        )
    return bool(np.isfinite(rows[row : row + len(starts)]).all())


def read_features(path, keep=None) -> tuple[str, FeatureTable]:
    """Read one feature space; vectors come back as float32 rows of one table.

    With keep (a set of ids), only those records are decoded; the values
    of the others are skipped unread, though their ids are still checked
    for duplicates. Once the whole file has passed those checks, a decoded
    record that holds a NaN or an infinity is a FormatError naming the
    first such record."""
    with open(path, "rb") as fh:
        reader = _Reader(fh, path)
        reader.expect_header(FEATURE_MAGIC)
        dim = reader.unpack("<I", "dim")
        if dim < 1:
            raise FormatError(f"{path}: dim must be >= 1, got {dim}")
        count = reader.unpack("<Q", "count")
        space_name = _read_name(reader, "space name")
        # Each record holds at least a u16 id length and dim float32 values.
        reader.need(count * (2 + 4 * dim), f"{count} records of {dim} values")
        width = 4 * dim
        longest = 2 + 0xFFFF + width
        # With keep, at most len(keep) rows are filled; the pages of the
        # rest of a large table are never touched, so never made resident.
        rows = np.empty((count if keep is None else min(count, len(keep)), dim), np.float32)
        index: dict[str, int] = {}
        skipped: set[str] = set()
        # buf[:end] holds the file from byte offset base; the next record
        # starts at buf[p]. Kept records' values wait at buf[starts] until
        # the buffer is refilled.
        base = reader.offset
        buf = bytearray(min(_STAGING_BYTES + longest, reader.size - base))
        p = end = 0
        starts: list[int] = []
        finite = True
        for i in range(count):
            if end - p < longest and base + end < reader.size:
                finite &= _copy_records(rows, len(index) - len(starts), buf, starts)
                starts = []
                buf[: end - p] = buf[p:end]
                base, end, p = base + p, end - p, 0
                end += fh.readinto(memoryview(buf)[end:])
            if end - p < 2:
                raise _truncated(path, f"record {i} id length", base + p, 2, end - p)
            n = buf[p] | buf[p + 1] << 8
            p += 2
            if end - p < n:
                raise _truncated(path, f"record {i} id", base + p, n, end - p)
            try:
                item_id = buf[p : p + n].decode("utf-8")
            except UnicodeDecodeError as exc:
                raise FormatError(f"{path}: invalid UTF-8 in record {i} id: {exc}") from None
            p += n
            if item_id in index or item_id in skipped:
                raise FormatError(f"{path}: duplicate record id {item_id!r}")
            if end - p < width:
                raise _truncated(path, f"record {i} ({item_id!r}) values", base + p, width, end - p)
            if keep is None or item_id in keep:
                index[item_id] = len(index)
                starts.append(p)
            else:
                skipped.add(item_id)
            p += width
        finite &= _copy_records(rows, len(index) - len(starts), buf, starts)
        if p < end or fh.read(1):
            raise FormatError(f"{path}: trailing data at byte offset {base + p}")
    table = FeatureTable(index, rows[: len(index)])
    if not finite:
        bad = int(np.argmin(np.isfinite(table.rows).all(axis=1)))
        value = table.rows[bad][~np.isfinite(table.rows[bad])][0]
        raise FormatError(f"{path}: non-finite value {value} in record {table.ids[bad]!r}")
    return space_name, table


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def checkpoint_save(model: LaffModel, path) -> None:
    with atomic_open(path) as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<B", FORMAT_VERSION))
        fh.write(struct.pack("<II", model.h, model.d))
        for dims in (model.video_dims(), model.text_dims()):
            fh.write(struct.pack("<H", len(dims)))
            for name in sorted(dims):
                fh.write(_pack_name(name))
                fh.write(struct.pack("<I", dims[name]))
        fh.write(model.params.astype("<f8", copy=False))


def checkpoint_load(path) -> LaffModel:
    with open(path, "rb") as fh:
        reader = _Reader(fh, path)
        reader.expect_header(CHECKPOINT_MAGIC)
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
    model = LaffModel(params, video_dims, text_dims, d, h)
    # A finite sum proves every value finite; only otherwise scan them. The
    # sum of finite values may overflow, and inf + -inf is nan: no warning.
    with np.errstate(over="ignore", invalid="ignore"):
        total = params.sum()
    if not math.isfinite(total):
        for place, array in named_parameters(model.heads):
            bad = np.flatnonzero(~np.isfinite(array))
            if bad.size:
                at = ", ".join(map(str, np.unravel_index(bad[0], array.shape)))
                raise FormatError(
                    f"{path}: non-finite parameter {array.flat[bad[0]]} at {place}[{at}]"
                )
    return model


def group_frame_features(features: Mapping[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Group `item_id#frame_index` records into per-item (n, dim) arrays,
    ordered by frame index, with items in the order of their first record.
    Two records of the same frame (`v#1`, `v#01`) are rejected.

    Every array is a slice of one table. For a FeatureTable whose records
    are already grouped and in frame order, that is the table itself;
    otherwise it is one reordered copy of it.
    """
    if not features:
        return {}
    ids = list(features)
    items: dict[str, int] = {}
    codes, frames = [], []
    for rec_id in ids:
        item_id, sep, frame_str = rec_id.rpartition("#")
        if not sep:
            raise FormatError(
                f"frame record id {rec_id!r} is not of the form item_id#frame_index"
            )
        try:
            frames.append(int(frame_str))
        except ValueError:
            raise FormatError(
                f"frame record id {rec_id!r} has non-integer frame index"
            ) from None
        codes.append(items.setdefault(item_id, len(items)))
    if isinstance(features, FeatureTable):
        table = features.rows
    else:
        table = np.stack([features[rec_id] for rec_id in ids])
    try:
        keys = np.array(frames, dtype=np.int64)
    except OverflowError:  # frame indices past int64 sort by rank
        keys = np.unique(np.array(frames, dtype=object), return_inverse=True)[1]
    order = np.lexsort((keys, codes))
    codes, keys = np.asarray(codes)[order], keys[order]
    same_item = codes[1:] == codes[:-1]
    clash = np.flatnonzero(same_item & (keys[1:] == keys[:-1]))
    if clash.size:
        first, second = ids[order[clash[0]]], ids[order[clash[0] + 1]]
        raise FormatError(
            f"frame records {first!r} and {second!r} both hold"
            f" frame {frames[order[clash[0]]]} of {first.rpartition('#')[0]!r}"
        )
    if (np.diff(order) != 1).any():
        table = table[order]
    bounds = [0, *(np.flatnonzero(~same_item) + 1).tolist(), len(ids)]
    return {item_id: table[a:b] for item_id, a, b in zip(items, bounds, bounds[1:])}
