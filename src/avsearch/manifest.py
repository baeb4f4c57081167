"""Dataset manifests and the text sidecar files they reference.

A manifest is a JSON object naming per-modality feature files, a caption
file, a pairing file, and optionally a qrels file; relative paths resolve
against the manifest's directory. Caption files are TAB-separated
`item_id\ttext[\ttags]` lines (tokens lowercased on read, tags
space-separated); pairing files are `video_id\tcaption_id` with an optional
third column naming the negated caption.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError, FormatError
from .evaluation import JudgmentSet, read_qrels
from .featio import read_features
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
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise FormatError(f"{path}: manifest must be a JSON object")
    known = {"video_features", "text_features", "pairs", "captions", "qrels"}
    unknown = sorted(set(raw) - known)
    if unknown:
        raise FormatError(f"{path}: unknown manifest keys {unknown}")
    base = path.parent

    def resolve(p) -> Path:
        return base / p

    def path_list(key: str) -> list[Path]:
        value = raw.get(key, [])
        if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
            raise FormatError(f"{path}: {key} must be a list of paths")
        return [resolve(v) for v in value]

    def optional(key: str) -> Path | None:
        value = raw.get(key)
        if value is None:
            return None
        if not isinstance(value, str):
            raise FormatError(f"{path}: {key} must be a path string")
        return resolve(value)

    manifest = DatasetManifest(
        video_features=path_list("video_features"),
        text_features=path_list("text_features"),
        pairs=optional("pairs"),
        captions=optional("captions"),
        qrels=optional("qrels"),
    )
    if not manifest.video_features and not manifest.text_features:
        raise FormatError(f"{path}: manifest names no feature files")
    return manifest


def write_manifest(path, manifest: DatasetManifest) -> None:
    path = Path(path)
    base = path.parent

    def rel(p: Path | None):
        return None if p is None else os.path.relpath(p, base)

    payload = {
        "video_features": [rel(p) for p in manifest.video_features],
        "text_features": [rel(p) for p in manifest.text_features],
        "pairs": rel(manifest.pairs),
        "captions": rel(manifest.captions),
        "qrels": rel(manifest.qrels),
    }
    payload = {k: v for k, v in payload.items() if v not in (None, [])}
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


# ---------------------------------------------------------------------------
# Caption and pairing files
# ---------------------------------------------------------------------------


def read_captions(path) -> dict[str, Caption]:
    captions: dict[str, Caption] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) not in (2, 3):
                raise FormatError(
                    f"{path}:{lineno}: expected 2 or 3 TAB-separated fields,"
                    f" got {len(fields)}"
                )
            item_id, text = fields[0], fields[1]
            if item_id in captions:
                raise FormatError(f"{path}:{lineno}: duplicate caption id {item_id!r}")
            tokens = text.lower().split()
            if not tokens:
                raise FormatError(f"{path}:{lineno}: caption {item_id!r} is empty")
            tags = fields[2].split() if len(fields) == 3 else None
            try:
                captions[item_id] = Caption(item_id, tokens, tags)
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: {exc}") from None
    return captions


def write_captions(path, captions: dict[str, Caption]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for caption in captions.values():
            line = f"{caption.item_id}\t{caption.text}"
            if caption.pos_tags is not None:
                line += "\t" + " ".join(caption.pos_tags)
            fh.write(line + "\n")


def read_pairs(path) -> list[tuple[str, str, str | None]]:
    pairs: list[tuple[str, str, str | None]] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) not in (2, 3):
                raise FormatError(
                    f"{path}:{lineno}: expected 2 or 3 TAB-separated fields,"
                    f" got {len(fields)}"
                )
            negated = fields[2] if len(fields) == 3 else None
            pairs.append((fields[0], fields[1], negated))
    return pairs


def write_pairs(path, pairs: list[tuple[str, str, str | None]]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for video_id, caption_id, negated_id in pairs:
            if negated_id is None:
                fh.write(f"{video_id}\t{caption_id}\n")
            else:
                fh.write(f"{video_id}\t{caption_id}\t{negated_id}\n")


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


def _load_spaces(paths: list[Path], subset, what: str, ids=None):
    keep = None if ids is None else set(ids)
    loaded = [read_features(path, keep) for path in paths]
    spaces: dict[str, dict] = {}
    for (name, features), path in zip(loaded, paths):
        if name in spaces:
            raise ConfigError(f"{what} space {name!r} appears in more than one file")
        spaces[name] = features
    if subset is not None:
        missing = sorted(set(subset) - set(spaces))
        if missing:
            raise ConfigError(f"requested {what} spaces not in manifest: {missing}")
        spaces = {name: spaces[name] for name in subset}
    return spaces


def _bundle_up(spaces: dict[str, dict]) -> dict[str, FeatureBundle]:
    if not spaces:
        return {}
    names = sorted(spaces)
    common = set(spaces[names[0]])
    for name in names[1:]:
        common &= set(spaces[name])
    # Keep the first space's record order for reproducible iteration.
    ordered = [i for i in spaces[names[0]] if i in common]
    return {
        item_id: FeatureBundle(item_id, {name: spaces[name][item_id] for name in names})
        for item_id in ordered
    }


def load_feature_bundles(
    paths, subset=None, what: str = "feature", ids=None
) -> tuple[dict[str, int], dict[str, FeatureBundle]]:
    """Load standalone feature files into (dims per space, bundles by item id).

    Bundles cover the ids present in every loaded space. With ids, only
    those records are decoded; the rest of each file is skipped.
    """
    spaces = _load_spaces([Path(p) for p in paths], subset, what, ids)
    dims = {n: len(next(iter(f.values()))) for n, f in spaces.items() if f}
    return dims, _bundle_up(spaces)


def load_dataset(
    manifest: DatasetManifest,
    video_spaces: list[str] | None = None,
    text_spaces: list[str] | None = None,
) -> LoadedDataset:
    """Load every file a manifest references and assemble feature bundles.

    Bundles are built for ids present in every space of their modality;
    pair rows referencing other ids fail later, by name, in build_triplets.
    """
    vspaces = _load_spaces(manifest.video_features, video_spaces, "video")
    tspaces = _load_spaces(manifest.text_features, text_spaces, "text")
    video_dims = {n: len(next(iter(f.values()))) for n, f in vspaces.items() if f}
    text_dims = {n: len(next(iter(f.values()))) for n, f in tspaces.items() if f}
    captions = read_captions(manifest.captions) if manifest.captions else {}
    pairs = read_pairs(manifest.pairs) if manifest.pairs else []
    qrels = read_qrels(manifest.qrels) if manifest.qrels else None
    return LoadedDataset(
        video_dims=video_dims,
        text_dims=text_dims,
        video_bundles=_bundle_up(vspaces),
        text_bundles=_bundle_up(tspaces),
        captions=captions,
        pairs=pairs,
        qrels=qrels,
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
