"""Command-line surface: train / eval / search / rerank / negate / pseudocap /
fuse / synth / feat-rank.

Every subcommand is deterministic given its inputs and seed flags. Unknown
flags exit with status 2 (argparse usage text); runtime failures print a
diagnostic to stderr and exit with status 1.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .config import load_settings
from .errors import ConfigError, TrainingError
# `rank_many` and `similarity` are unused here but stay importable from this
# module: the benchmark's tracer (perfbench/tracer.py) wraps them by name.
from .evaluation import (
    RankedRun,
    average_precision,
    check_weights,
    inf_ap,
    late_fuse,
    mean_metric,
    rank_many,  # noqa: F401
    rank_rows,
    read_qrels,
    read_run,
    write_rows,
    write_run,
)
from .featio import (
    atomic_open,
    checkpoint_load,
    checkpoint_save,
    group_frame_features,
    read_features,
)
from .fusion import feature_importance, init_model, pair_similarities, similarity  # noqa: F401
from .manifest import (
    build_triplets,
    load_dataset,
    load_feature_bundles,
    load_manifest,
    read_captions,
)
from .negation import AlreadyNegatedError, detect_negation, negate_caption
from .pseudocap import kept_candidates, read_candidates, select_pseudo_captions, write_selection
from .rerank import FrameFeatures, rerank
from .synth import SpaceSpec, synth_dataset
from .trainer import ValidationSet, fit

import numpy as np


def _cmd_train(args) -> int:
    settings = load_settings(args.config)
    if args.init_checkpoint:
        model = checkpoint_load(args.init_checkpoint)
        video_spaces = list(model.video_spaces)
        text_spaces = list(model.text_spaces)
    else:
        model = None
        video_spaces = settings.video_spaces
        text_spaces = settings.text_spaces

    # Files that both manifests name are decoded once; each dataset builds
    # its own bundles on the shared tables. Dropping the dict afterwards
    # frees the tables of spaces that neither dataset keeps.
    decoded = {}
    train_manifest = load_manifest(args.train_manifest)
    train_data = load_dataset(train_manifest, video_spaces, text_spaces, decoded)
    triplets = build_triplets(train_data)
    val_data = load_dataset(load_manifest(args.val_manifest), video_spaces, text_spaces, decoded)
    del decoded
    if val_data.qrels is None:
        raise ConfigError(f"{args.val_manifest}: validation manifest has no qrels")
    val_queries = [
        val_data.text_bundles[cid]
        for _, cid, _ in val_data.pairs
        if cid in val_data.text_bundles
    ]
    validation = ValidationSet(
        queries=val_queries,
        corpus=list(val_data.video_bundles.values()),
        judgments=val_data.qrels,
    )
    if model is None:
        model = init_model(
            train_data.video_dims,
            train_data.text_dims,
            d=settings.d,
            heads=settings.heads,
            seed=settings.model_seed,
        )
    # Each new best epoch replaces --out as it happens, so a run that fails
    # later leaves its best finished epoch there.
    _, report = fit(
        model, triplets, validation, settings.train,
        lambda best: checkpoint_save(best, args.out), log_file=args.log,
    )
    print(f"best_epoch\t{report.best_epoch}")
    print(f"best_{settings.train.validation_metric}\t{report.best_score:.4f}")
    print(f"checkpoint\t{args.out}")
    return 0


def _cmd_eval(args) -> int:
    run = read_run(args.run)
    qrels = read_qrels(args.qrels)
    mean_ap, per_ap = mean_metric(run, qrels, average_precision)
    mean_iap, per_iap = mean_metric(run, qrels, inf_ap)
    if args.per_query:
        for qid in per_ap:
            print(f"AP\t{qid}\t{per_ap[qid]:.4f}")
            print(f"infAP\t{qid}\t{per_iap[qid]:.4f}")
    print(f"mAP\t{mean_ap:.4f}")
    print(f"infAP\t{mean_iap:.4f}")
    return 0


def _cmd_search(args) -> int:
    model = checkpoint_load(args.checkpoint)
    _, corpus = load_feature_bundles(args.video_feats, list(model.video_spaces), "video")
    _, queries = load_feature_bundles(args.query_feats, list(model.text_spaces), "text")
    if not queries:
        raise ConfigError("no query has features in every text space")
    # rank_rows raises any ranking error before the first row, and its rows
    # are what `RankedRun` checks for (ordered, finite, distinct ids), so
    # they stream into the file with no per-item tuples.
    ids, rows = rank_rows(model, list(queries.values()), list(corpus.values()), args.top_k)
    write_rows(args.out, ids, rows, args.run_tag)
    print(f"ranked {len(queries)} queries over {len(corpus)} videos -> {args.out}")
    return 0


def _cmd_rerank(args) -> int:
    # Checked before any file is read; rerank() checks them again.
    check_weights([args.w_new, args.w_old])
    run = read_run(args.run)
    routing = [args.query_tokens, args.alt_frames, args.alt_query_feats]
    if any(routing) and not all(routing):
        raise ConfigError(
            "--query-tokens, --alt-frames and --alt-query-feats must be given together"
        )

    def load_frame_store(path):
        _, features = read_features(path)
        return {
            item: FrameFeatures(item, arr)
            for item, arr in group_frame_features(features).items()
        }

    # Route every query first, then rerank the queries of one frame store
    # at a time, so only one frame table is in memory at once.
    _, query_vecs = read_features(args.query_feats)
    sources = [(args.frames, query_vecs)]
    route = dict.fromkeys(run.entries, 0)
    if args.query_tokens:
        captions = read_captions(args.query_tokens)
        _, alt_vecs = read_features(args.alt_query_feats)
        sources.append((args.alt_frames, alt_vecs))
        for qid in run.entries:
            caption = captions.get(qid)
            if caption is None:
                raise ConfigError(f"no query tokens for query {qid!r}")
            route[qid] = int(detect_negation(caption)[0])
    for qid, source in route.items():
        if qid not in sources[source][1]:
            raise ConfigError(f"no query feature vector for query {qid!r}")

    entries = dict.fromkeys(run.entries)
    for source, (frames_path, vecs) in enumerate(sources):
        store = load_frame_store(frames_path)
        for qid, entry in run.entries.items():
            if route[qid] == source:
                entries[qid] = rerank(
                    entry,
                    store,
                    vecs[qid],
                    w_new=args.w_new,
                    w_old=args.w_old,
                    normalize_original=not args.no_normalize,
                )
        del store
    tag = args.run_tag or f"{run.run_tag}-re"
    write_run(args.out, RankedRun(entries, tag))
    if args.query_tokens:
        routed = sum(route.values())
        print(f"negation routing used the alternate features for {routed} queries")
    print(f"reranked {len(entries)} queries -> {args.out}")
    return 0


def _cmd_negate(args) -> int:
    captions = read_captions(args.captions)
    rng = np.random.default_rng(args.seed)
    written = 0
    skipped_cue = 0
    skipped_flat = 0
    with atomic_open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        for caption in captions.values():
            try:
                negated = negate_caption(caption, rng, cue=args.cue)
            except AlreadyNegatedError:
                skipped_cue += 1
                continue
            if negated is None:
                skipped_flat += 1
                continue
            fh.write(f"{caption.item_id}\t{caption.text}\t{negated.text}\n")
            written += 1
    print(
        f"negated {written} captions; skipped {skipped_cue} already-negated,"
        f" {skipped_flat} without an insertion site",
        file=sys.stderr,
    )
    return 0


def _caption_scores(model, kept, videos, caps) -> dict[str, dict[str, float]]:
    """Model similarity of each kept candidate caption (kept maps a video id
    to its kept_candidates; features keyed `video_id#frame_index`) to its
    video, by video id and caption text, from one batched pair_similarities
    call."""
    pairs = []
    for vid, cands in kept.items():
        if vid not in videos:
            raise ConfigError(f"no video features for {vid!r}")
        for cand in cands:
            key = f"{vid}#{cand.frame_index}"
            if key not in caps:
                raise ConfigError(f"no caption features for {key}")
            pairs.append((vid, cand.text, key))
    sims = pair_similarities(
        model, [videos[vid] for vid, _, _ in pairs], [caps[key] for _, _, key in pairs]
    )
    scores: dict[str, dict[str, float]] = {vid: {} for vid in kept}
    for (vid, text, _), sim in zip(pairs, sims.tolist()):
        scores[vid][text] = sim
    return scores


def _cmd_pseudocap(args) -> int:
    model = checkpoint_load(args.checkpoint)
    candidate_sets = read_candidates(args.candidates)
    # Each set is deduped once here, and only the records that get scored
    # are decoded: the listed videos and their kept captions, not every item
    # in the feature files.
    kept = {cands.video_id: kept_candidates(cands) for cands in candidate_sets}
    caption_ids = [f"{vid}#{cand.frame_index}" for vid, cands in kept.items() for cand in cands]
    _, videos = load_feature_bundles(
        args.video_feats, list(model.video_spaces), "video", list(kept)
    )
    _, caps = load_feature_bundles(
        args.caption_feats, list(model.text_spaces), "text", caption_ids
    )
    scores = _caption_scores(model, kept, videos, caps)
    selections = {
        cands.video_id: select_pseudo_captions(
            cands, scores[cands.video_id].__getitem__, k=args.k
        )
        for cands in candidate_sets
    }
    write_selection(args.out, selections)
    print(f"selected pseudo captions for {len(selections)} videos -> {args.out}")
    return 0


def _cmd_fuse(args) -> int:
    # Checked, with their count, before any run is read; late_fuse() checks
    # them again.
    check_weights(args.weights, len(args.runs))
    runs = [read_run(p) for p in args.runs]
    fused = late_fuse(runs, args.weights, run_tag=args.run_tag, normalize=not args.no_normalize)
    write_run(args.out, fused)
    print(f"fused {len(runs)} runs over {len(fused.entries)} queries -> {args.out}")
    return 0


def _parse_space(raw: str) -> SpaceSpec:
    parts = raw.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"space spec must be name:dim:noise_sigma, got {raw!r}"
        )
    try:
        return SpaceSpec(parts[0], int(parts[1]), float(parts[2]))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _cmd_synth(args) -> int:
    manifests = synth_dataset(
        args.out,
        seed=args.seed,
        n_videos=args.n_videos,
        n_captions_per=args.n_captions_per,
        latent_dim=args.latent_dim,
        video_spaces=args.video_space,
        text_spaces=args.text_space,
        negate_fraction=args.negate_fraction,
    )
    for split, path in manifests.items():
        print(f"{split}\t{path}")
    return 0


def _cmd_feat_rank(args) -> int:
    model = checkpoint_load(args.checkpoint)
    manifest = load_manifest(args.manifest)
    video = args.branch == "video"
    _, bundles = load_feature_bundles(
        manifest.video_features if video else manifest.text_features,
        list(model.video_spaces if video else model.text_spaces),
        args.branch,
    )
    if not bundles:
        raise ConfigError(f"manifest has no complete {args.branch} bundles")
    for name, weight in feature_importance(model, bundles.values(), args.branch):
        print(f"{name}\t{weight:.6f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="avsearch",
        description="Text-to-video retrieval on precomputed features.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a fusion model on a dataset manifest")
    p.add_argument("--train-manifest", required=True)
    p.add_argument("--val-manifest", required=True)
    p.add_argument(
        "--out", required=True,
        help="best-epoch checkpoint, rewritten after each epoch that improves validation",
    )
    p.add_argument("--config", help="INI config ([model]/[margins]/[train]/[features])")
    p.add_argument("--init-checkpoint", help="warm-start from an existing checkpoint")
    p.add_argument("--log", help="write per-epoch `epoch\\tloss\\tval_score` lines here")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="score a run file against qrels (mAP and infAP)")
    p.add_argument("--run", required=True)
    p.add_argument("--qrels", required=True)
    p.add_argument("--per-query", action="store_true")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("search", help="rank a video corpus for query feature bundles")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--video-feats", nargs="+", required=True)
    p.add_argument("--query-feats", nargs="+", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--top-k", type=int, default=5000)
    p.add_argument("--run-tag", default="avsearch")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("rerank", help="frame-level re-scoring of a run")
    p.add_argument("--run", required=True)
    p.add_argument("--frames", required=True, help="feature file with item_id#frame ids")
    p.add_argument("--query-feats", required=True, help="per-query vectors, same space")
    p.add_argument("--out", required=True)
    p.add_argument("--w-new", type=float, default=0.6)
    p.add_argument("--w-old", type=float, default=0.4)
    p.add_argument("--no-normalize", action="store_true")
    p.add_argument("--query-tokens", help="caption file; negated queries use alt features")
    p.add_argument("--alt-frames")
    p.add_argument("--alt-query-feats")
    p.add_argument("--run-tag")
    p.set_defaults(func=_cmd_rerank)

    p = sub.add_parser("negate", help="batch-construct negated captions")
    p.add_argument("--captions", required=True)
    p.add_argument("--out", required=True, help="lines: item_id\\toriginal\\tnegated")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cue", default="not")
    p.set_defaults(func=_cmd_negate)

    p = sub.add_parser("pseudocap", help="select pseudo captions per video")
    p.add_argument("--candidates", required=True, help="video_id\\tframe\\tcaption lines")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--video-feats", nargs="+", required=True)
    p.add_argument("--caption-feats", nargs="+", required=True,
                   help="text features keyed video_id#frame_index")
    p.add_argument("--out", required=True)
    p.add_argument("--k", type=int, default=3)
    p.set_defaults(func=_cmd_pseudocap)

    p = sub.add_parser("fuse", help="late-fuse runs with weights")
    p.add_argument("--runs", nargs="+", required=True)
    p.add_argument("--weights", nargs="+", type=float, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--run-tag", default="fusion")
    p.add_argument("--no-normalize", action="store_true")
    p.set_defaults(func=_cmd_fuse)

    p = sub.add_parser("synth", help="generate a synthetic dataset with ground truth")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-videos", type=int, default=200)
    p.add_argument("--n-captions-per", type=int, default=2)
    p.add_argument("--latent-dim", type=int, default=8)
    p.add_argument("--video-space", type=_parse_space, action="append", required=True,
                   metavar="NAME:DIM:SIGMA")
    p.add_argument("--text-space", type=_parse_space, action="append", required=True,
                   metavar="NAME:DIM:SIGMA")
    p.add_argument("--negate-fraction", type=float, default=0.0)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("feat-rank", help="rank feature spaces by mean attention weight")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--branch", choices=("video", "text"), default="video")
    p.set_defaults(func=_cmd_feat_rank)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, TrainingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # NumPy's MemoryError says which allocation failed; a bare one says nothing.
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory in {args.command}{detail}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
