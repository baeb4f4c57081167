"""Dataset manifests and the text sidecar files they reference.

A manifest is a JSON object naming per-modality feature files, a caption
file, a pairing file, and optionally a qrels file; relative paths resolve
against the manifest's directory. Its keys are the fields of
`DatasetManifest`, the one place they are written: a field without a
default holds a list of paths, and any other field one optional path.
`write_manifest` writes each path relative to the manifest and leaves out
None and empty lists. Caption files are TAB-separated
`item_id\ttext[\ttags]` lines (tokens lowercased on read, tags
space-separated); pairing files are `video_id\tcaption_id` with an optional
third column naming the negated caption. Both are read through
`featio.read_fields`; an id that `featio.check_fields` refuses is a
FormatError, on reading at `path:line` and on writing.

`load_feature_bundles` is the one feature loader: `load_dataset` calls it
once per modality, and the CLI and the synthetic-data oracle call it for
just the files they need. Both take a `decoded` dict that carries decoded
files from one call to the next, so that manifests sharing a file (as
`train` and `val` of a synthetic dataset do) decode it once.
"""

from __future__ import annotations

import json
import os
from dataclasses import MISSING, Field, dataclass, fields
from pathlib import Path

from .errors import ConfigError, FormatError
from .evaluation import JudgmentSet, read_qrels
from .featio import FeatureTable, atomic_open, check_fields, read_features, read_fields, utf8_error
from .fusion import FeatureBundle
from .negation import Caption, Triplet

@dataclass
class DatasetManifest:
    video_features: list[Path]
    text_features: list[Path]
    pairs: Path | None = None
    captions: Path | None = None
    qrels: Path | None = None


def load_manifest(path) -> DatasetManifest:
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError:
        raise FormatError(utf8_error(path)) from None
    except (ValueError, RecursionError) as exc:
        # Besides a JSONDecodeError: an integer of more digits than Python
        # converts, or arrays nested deeper than the recursion limit.
        raise FormatError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise FormatError(f"{path}: manifest must be a JSON object")
    unknown = sorted(set(raw) - {f.name for f in fields(DatasetManifest)})
    if unknown:
        raise FormatError(f"{path}: unknown manifest keys {unknown}")
    base = path.parent

    def resolve(key: str, value: str) -> Path:
        try:
            ok = b"\0" not in os.fsencode(value)
        except UnicodeEncodeError:  # a lone surrogate, from a JSON escape
            ok = False
        if not ok:
            raise FormatError(f"{path}: {key} holds {value!r}, which is not a file path")
        return base / value

    def read(field: Field):
        key = field.name
        if field.default is MISSING:
            value = raw.get(key, [])
            if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
                raise FormatError(f"{path}: {key} must be a list of paths")
            return [resolve(key, v) for v in value]
        value = raw.get(key)
        if value is None:
            return None
        if not isinstance(value, str):
            raise FormatError(f"{path}: {key} must be a path string")
        return resolve(key, value)

    manifest = DatasetManifest(**{f.name: read(f) for f in fields(DatasetManifest)})
    if not manifest.video_features and not manifest.text_features:
        raise FormatError(f"{path}: manifest names no feature files")
    return manifest


def write_manifest(path, manifest: DatasetManifest) -> None:
    path = Path(path)
    base = path.parent
    payload = {}
    for field in fields(DatasetManifest):
        value = getattr(manifest, field.name)
        if field.default is MISSING:
            value = [os.path.relpath(p, base) for p in value]
        elif value is not None:
            value = os.path.relpath(value, base)
        if value not in (None, []):
            payload[field.name] = value
    with atomic_open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Caption and pairing files
# ---------------------------------------------------------------------------


_PAIR_FIELDS = ("video id", "caption id", "negated caption id")


def read_captions(path) -> dict[str, Caption]:
    captions: dict[str, Caption] = {}
    for lineno, fields in read_fields(path, "\t", (2, 3), skip_blank=True):
        item_id, text = fields[0], fields[1]
        check_fields(f"{path}:{lineno}", [item_id], ["caption id"])
        if item_id in captions:
            raise FormatError(f"{path}:{lineno}: duplicate caption id {item_id!r}")
        tags = fields[2].split() if len(fields) == 3 else None
        try:
            captions[item_id] = Caption(item_id, text.lower().split(), tags)
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: {exc}") from None
    return captions


def write_captions(path, captions: dict[str, Caption]) -> None:
    with atomic_open(path, "w", encoding="utf-8", newline="\n") as fh:
        for caption in captions.values():
            check_fields(path, [caption.item_id], ["caption id"])
            line = f"{caption.item_id}\t{caption.text}"
            if caption.pos_tags is not None:
                line += "\t" + " ".join(caption.pos_tags)
            fh.write(line + "\n")


def read_pairs(path) -> list[tuple[str, str, str | None]]:
    pairs = []
    for lineno, fields in read_fields(path, "\t", (2, 3), skip_blank=True):
        check_fields(f"{path}:{lineno}", fields, _PAIR_FIELDS)
        pairs.append((fields[0], fields[1], fields[2] if len(fields) == 3 else None))
    return pairs


def write_pairs(path, pairs: list[tuple[str, str, str | None]]) -> None:
    with atomic_open(path, "w", encoding="utf-8", newline="\n") as fh:
        for video_id, caption_id, negated_id in pairs:
            fields = [video_id, caption_id] + ([] if negated_id is None else [negated_id])
            check_fields(path, fields, _PAIR_FIELDS)
            fh.write("\t".join(fields) + "\n")


# ---------------------------------------------------------------------------
# Full dataset loading
# ---------------------------------------------------------------------------


@dataclass
class LoadedDataset:
    video_dims: dict[str, int]
    text_dims: dict[str, int]
    video_bundles: dict[str, FeatureBundle]
    text_bundles: dict[str, FeatureBundle]
    captions: dict[str, Caption]
    pairs: list[tuple[str, str, str | None]]
    qrels: JudgmentSet | None


def load_feature_bundles(
    paths, subset=None, what: str = "feature", ids=None, decoded=None
) -> tuple[dict[str, int], dict[str, FeatureBundle]]:
    """Load one modality's feature files into (dims per space, bundles by item id).

    Each file holds one space, and no space may come from two files. With
    subset, only those spaces are kept, in that order, and each must be
    present. Bundles cover the ids present in every kept space, in the
    record order of the alphabetically first space. With ids, only those
    records are decoded; the rest of each file is skipped. decoded, when
    given, maps each file's resolved path to what read_features returned
    for it: a file found there is not read again, and one read is added.
    Its tables are whole files, so it cannot be combined with ids.
    """
    if ids is not None and decoded is not None:
        raise ValueError("ids and decoded cannot be given together")
    keep = None if ids is None else set(ids)
    decoded = {} if decoded is None else decoded
    spaces: dict[str, FeatureTable] = {}
    for path in map(Path, paths):
        key = path.resolve()
        if key not in decoded:
            decoded[key] = read_features(path, keep)
        name, features = decoded[key]
        if name in spaces:
            raise ConfigError(f"{what} space {name!r} appears in more than one file")
        spaces[name] = features
    if subset is not None:
        missing = sorted(set(subset) - set(spaces))
        if missing:
            raise ConfigError(f"requested {what} spaces not in manifest: {missing}")
        spaces = {name: spaces[name] for name in subset}
    dims = {n: len(next(iter(f.values()))) for n, f in spaces.items() if f}
    if not spaces:
        return dims, {}
    names = sorted(spaces)
    common = set(spaces[names[0]]).intersection(*map(spaces.get, names[1:]))
    bundles = {
        item_id: FeatureBundle(item_id, {name: spaces[name][item_id] for name in names})
        for item_id in spaces[names[0]]
        if item_id in common
    }
    return dims, bundles


def load_dataset(
    manifest: DatasetManifest,
    video_spaces: list[str] | None = None,
    text_spaces: list[str] | None = None,
    decoded: dict | None = None,
) -> LoadedDataset:
    """Load every file a manifest references and assemble feature bundles.

    Bundles are built for ids present in every space of their modality;
    pair rows referencing other ids fail later, by name, in build_triplets.
    decoded is passed on to load_feature_bundles, so datasets loaded with
    one dict share the decoded tables of the files they share.
    """
    video_dims, video_bundles = load_feature_bundles(
        manifest.video_features, video_spaces, "video", decoded=decoded
    )
    text_dims, text_bundles = load_feature_bundles(
        manifest.text_features, text_spaces, "text", decoded=decoded
    )
    return LoadedDataset(
        video_dims,
        text_dims,
        video_bundles,
        text_bundles,
        captions=read_captions(manifest.captions) if manifest.captions else {},
        pairs=read_pairs(manifest.pairs) if manifest.pairs else [],
        qrels=read_qrels(manifest.qrels) if manifest.qrels else None,
    )


def build_triplets(data: LoadedDataset) -> list[Triplet]:
    """Turn pairing rows into training triplets, resolving every id."""
    triplets = []
    for video_id, caption_id, negated_id in data.pairs:
        video = data.video_bundles.get(video_id)
        if video is None:
            raise ConfigError(f"pair references unknown video id {video_id!r}")
        text = data.text_bundles.get(caption_id)
        if text is None:
            raise ConfigError(f"pair references unknown caption id {caption_id!r}")
        caption = data.captions.get(caption_id)
        if caption is None:
            raise ConfigError(f"no caption text for id {caption_id!r}")
        negated = None
        negated_features = None
        if negated_id is not None:
            negated_features = data.text_bundles.get(negated_id)
            if negated_features is None:
                raise ConfigError(f"pair references unknown negated id {negated_id!r}")
            negated = data.captions.get(negated_id)
            if negated is None:
                raise ConfigError(f"no caption text for negated id {negated_id!r}")
        triplets.append(Triplet(video, caption, text, negated, negated_features))
    return triplets
