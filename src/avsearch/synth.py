"""Synthetic retrieval datasets with a known ground truth.

Every video gets a latent vector z ~ N(0, I); each feature space is a fixed
random projection of z plus Gaussian noise, and each caption's text
features derive from its video's z (negated captions derive from -z).
Captions are templated token strings that always contain an auxiliary or
an -ing verb, so the negation machinery applies to them.

The generator writes a self-contained directory: feature files, caption,
pairing and qrels files, train/val manifests (the last caption of each
video is held out for validation), and the latents/projections as .npy
sidecars under meta/ so the nearest-latent oracle can be computed without
any model. Identical seeds produce byte-identical output.
"""

from __future__ import annotations

from functools import reduce
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import ConfigError
from .evaluation import JudgmentSet, ap_from_ranks, relevant_ranks, write_qrels
from .featio import write_features
from .manifest import (
    DatasetManifest,
    load_feature_bundles,
    load_manifest,
    read_pairs,
    write_captions,
    write_manifest,
    write_pairs,
)
from .negation import Caption, negate_caption

SUBJECTS = ["man", "woman", "dog", "cat", "robot", "child", "bird", "horse"]
VERBS = ["running", "jumping", "dancing", "cooking", "swimming", "reading", "singing", "walking"]
PLACES = ["park", "kitchen", "street", "beach", "forest", "office", "garden", "station"]


class SpaceSpec(NamedTuple):
    """One synthetic feature space: name, dimensionality, noise level."""

    name: str
    dim: int
    noise_sigma: float


def _template_caption(item_id: str, rng: np.random.Generator) -> Caption:
    subj = SUBJECTS[int(rng.integers(len(SUBJECTS)))]
    verb = VERBS[int(rng.integers(len(VERBS)))]
    place = PLACES[int(rng.integers(len(PLACES)))]
    if rng.random() < 0.5:
        tokens = ["a", subj, "is", verb, "in", "the", place]
    else:
        tokens = ["the", subj, verb, "near", "the", place]
    return Caption(item_id, tokens)


def _negation_rotation(latent_dim: int, rng: np.random.Generator) -> np.ndarray:
    """Fixed orthogonal map sending a caption's latent to its negation's.

    A plain sign flip (-z) would make negated features exactly the negation
    of the original's; with odd activations and zero-initialized biases that
    puts training on a symmetric manifold where cos(t, t-) is pinned at -1
    and its gradient vanishes. A random rotation avoids the pathology.
    """
    m = rng.standard_normal((latent_dim, latent_dim))
    q, r = np.linalg.qr(m)
    return q * np.sign(np.diag(r))


def synth_dataset(
    out_dir,
    seed: int,
    n_videos: int,
    n_captions_per: int,
    latent_dim: int,
    video_spaces: list[SpaceSpec],
    text_spaces: list[SpaceSpec],
    negate_fraction: float = 0.0,
) -> dict[str, Path]:
    """Generate a dataset; returns the paths of the train and val manifests.

    With n_captions_per >= 2 the last caption of each video becomes a
    validation query; negate_fraction of the training captions additionally
    get a negated copy, named in the caption's training pair, whose features
    derive from the rotated latent. Random draws come in this order: latents,
    rotation, projections, captions, negated subset and cue sites, noise.
    """
    if latent_dim < 2:
        raise ConfigError(f"latent_dim must be >= 2, got {latent_dim}")
    if n_videos < 1 or n_captions_per < 1:
        raise ConfigError("need at least one video and one caption per video")
    if not video_spaces or not text_spaces:
        raise ConfigError("need at least one video space and one text space")
    for spec in [*video_spaces, *text_spaces]:
        if spec.dim < latent_dim:
            raise ConfigError(
                f"space {spec.name!r} dim {spec.dim} is below latent_dim {latent_dim}"
            )
        if not 0.0 <= spec.noise_sigma < np.inf:  # not `< 0`: NaN and inf are refused too
            raise ConfigError(
                f"space {spec.name!r} noise must be finite and >= 0, got {spec.noise_sigma}"
            )
    if not (0.0 <= negate_fraction <= 1.0):
        raise ConfigError(f"negate_fraction must be in [0, 1], got {negate_fraction}")

    out = Path(out_dir)
    (out / "meta").mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)

    video_ids = [f"v{i:04d}" for i in range(n_videos)]
    latents = rng.standard_normal((n_videos, latent_dim))
    np.save(out / "meta" / "latents.npy", latents)
    neg_rotation = _negation_rotation(latent_dim, rng)
    np.save(out / "meta" / "neg_rotation.npy", neg_rotation)

    projections: dict[tuple[str, str], np.ndarray] = {}
    for modality, specs in (("video", video_spaces), ("text", text_spaces)):
        for spec in specs:
            p = rng.standard_normal((spec.dim, latent_dim)) / np.sqrt(latent_dim)
            projections[(modality, spec.name)] = p
            np.save(out / "meta" / f"proj_{modality}_{spec.name}.npy", p)

    # Captions: last one per video is validation; a seeded subset of the
    # training captions gets a negated copy, named in its training row.
    captions: dict[str, Caption] = {}
    train_rows: list[tuple[str, str, str | None]] = []
    val_rows: list[tuple[str, str, str | None]] = []
    caption_latents: dict[str, np.ndarray] = {}
    for vi, video_id in enumerate(video_ids):
        for ci in range(n_captions_per):
            cap_id = f"{video_id}c{ci}"
            captions[cap_id] = _template_caption(cap_id, rng)
            caption_latents[cap_id] = latents[vi]
            is_val = n_captions_per >= 2 and ci == n_captions_per - 1
            if is_val:
                val_rows.append((video_id, cap_id, None))
            else:
                train_rows.append((video_id, cap_id, None))

    n_negated = round(negate_fraction * len(train_rows))
    negate_idx = sorted(
        rng.choice(len(train_rows), size=n_negated, replace=False).tolist()
    )
    for idx in negate_idx:
        video_id, cap_id, _ = train_rows[idx]
        neg = negate_caption(captions[cap_id], rng)
        if neg is None:  # templates always carry an aux or -ing verb
            continue
        neg_id = f"{cap_id}~neg"
        captions[neg_id] = Caption(neg_id, neg.tokens)
        caption_latents[neg_id] = neg_rotation @ caption_latents[cap_id]
        train_rows[idx] = (video_id, cap_id, neg_id)

    feature_paths: dict[str, list[Path]] = {}
    for modality, specs, ids, z in (
        ("video", video_spaces, video_ids, latents),
        ("text", text_spaces, list(captions), np.stack(list(caption_latents.values()))),
    ):
        feature_paths[modality] = []
        for spec in specs:
            p = projections[(modality, spec.name)]
            values = z @ p.T + spec.noise_sigma * rng.standard_normal(
                (len(ids), spec.dim)
            )
            path = out / f"{modality}_{spec.name}.feat"
            write_features(path, spec.name, dict(zip(ids, values)))
            feature_paths[modality].append(path)

    captions_path = out / "captions.tsv"
    write_captions(captions_path, captions)

    manifests: dict[str, Path] = {}
    for split, rows in (("train", train_rows), ("val", val_rows)):
        if not rows:
            continue
        pairs_path = out / f"pairs_{split}.tsv"
        write_pairs(pairs_path, rows)
        qrels_path = out / f"qrels_{split}.txt"
        write_qrels(
            qrels_path,
            JudgmentSet({cid: {vid: 1} for vid, cid, _ in rows}, complete=True),
        )
        manifest_path = out / f"manifest_{split}.json"
        write_manifest(
            manifest_path,
            DatasetManifest(
                video_features=feature_paths["video"],
                text_features=feature_paths["text"],
                pairs=pairs_path,
                captions=captions_path,
                qrels=qrels_path,
            ),
        )
        manifests[split] = manifest_path
    return manifests


# ---------------------------------------------------------------------------
# Nearest-latent oracle
# ---------------------------------------------------------------------------


def _estimate_latents(meta: Path, modality: str, paths: list[Path]) -> dict[str, np.ndarray]:
    """Least-squares latent estimates from noisy features, through each
    space's stored projection, averaged over spaces (summed in file order),
    for the ids present in every space."""
    dims, bundles = load_feature_bundles(paths)
    z_hat = []
    for name in dims:
        proj = np.load(meta / f"proj_{modality}_{name}.npy")
        rows = np.stack([b.features[name] for b in bundles.values()], dtype=np.float64)
        z_hat.append(np.linalg.lstsq(proj, rows.T, rcond=None)[0])  # (latent, n)
    mean = reduce(np.add, z_hat) / len(z_hat)
    return dict(zip(bundles, np.ascontiguousarray(mean.T)))


def nearest_latent_map(out_dir, split: str = "val") -> float:
    """Mean AP of ranking videos by cosine of least-squares latent estimates.

    This is the generator's model-free baseline: it sees only the noisy
    feature files and the stored projections, never the true latents.
    """
    out = Path(out_dir)
    manifest = load_manifest(out / f"manifest_{split}.json")
    video_z = _estimate_latents(out / "meta", "video", manifest.video_features)
    text_z = _estimate_latents(out / "meta", "text", manifest.text_features)
    pairs = read_pairs(manifest.pairs)

    video_ids = sorted(video_z)
    vmat = np.stack([video_z[i] for i in video_ids])
    vnorm = np.linalg.norm(vmat, axis=1)
    vnorm[vnorm == 0.0] = 1.0
    query_ids = list(dict.fromkeys(caption_id for _, caption_id, _ in pairs))
    sims = []
    for caption_id in query_ids:
        q = text_z[caption_id]
        qn = np.linalg.norm(q) or 1.0
        sims.append((vmat @ q) / (vnorm * qn))
    row = {caption_id: i for i, caption_id in enumerate(query_ids)}
    targets = [(row[c], [v]) for v, c, _ in pairs]
    ranks = relevant_ranks(np.stack(sims), query_ids, video_ids, targets)
    scores = [ap_from_ranks(r, 1) for r in ranks]
    return sum(scores) / len(scores)
