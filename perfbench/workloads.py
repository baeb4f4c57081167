"""The three workloads: inputs made from a seed, CLI passes, output checks.

Every workload runs at the paper's shapes: video spaces of 2048/1024/512
dims, text spaces of 768/512 dims, d=512, h=2. A workload's `setup` writes
its inputs through `avsearch synth` and the package's file writers;
`run_pass` calls the CLI subcommands once each; `check` compares what they
wrote with the float64 references in `reference.py` and returns one
message per failed stage.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from avsearch.evaluation import JudgmentSet, RankedRun, read_run, write_qrels, write_run
from avsearch.featio import checkpoint_save, read_features, write_features
from avsearch.fusion import init_model
from avsearch.manifest import read_captions, write_captions
from avsearch.negation import negate_caption
from avsearch.numeric import LinearTanhParams
from avsearch.synth import nearest_latent_map

from . import reference as ref

VIDEO_SPACES = {"vid2048": 2048, "vid1024": 1024, "vid512": 512}
TEXT_SPACES = {"txt768": 768, "txt512": 512}
D = 512
HEADS = 2
LATENT = 16


def synth_argv(out: Path, seed: int, n_videos: int, sigma: float, negate: float) -> list:
    spaces = [
        arg
        for flag, dims in (("--video-space", VIDEO_SPACES), ("--text-space", TEXT_SPACES))
        for name, dim in dims.items()
        for arg in (flag, f"{name}:{dim}:{sigma}")
    ]
    return [
        "--out", out, "--seed", seed, "--n-videos", n_videos, "--n-captions-per", 2,
        "--latent-dim", LATENT, "--negate-fraction", negate, *spaces,
    ]


def aligned_checkpoint(meta: Path, out: Path, seed: int) -> None:
    """Untrained-but-informative model: each transform undoes its space's
    synthetic projection and maps the latent estimate through a per-head
    random matrix, so video and text branches embed the same latent alike.
    Small random biases and attention vectors keep every parameter in play,
    so the output checks would see a bias or attention bug."""
    model = init_model(VIDEO_SPACES, TEXT_SPACES, d=D, heads=HEADS, seed=seed)
    rng = np.random.default_rng([seed, 11])
    for head in model.heads:
        mix = rng.standard_normal((D, LATENT)) / np.sqrt(LATENT)
        for modality, branch in (("video", head.video), ("text", head.text)):
            for name in branch.spaces:
                proj = np.load(meta / f"proj_{modality}_{name}.npy")
                bias = 0.1 * rng.standard_normal(D)
                branch.transforms[name] = LinearTanhParams(mix @ np.linalg.pinv(proj), bias)
            branch.attention = rng.standard_normal(D) / np.sqrt(D)
    checkpoint_save(model, out)


def feature_inputs(paths, keep: list[str] | None = None) -> tuple[list[str], dict]:
    """Ids and per-space float32 matrices of feature files with shared ids."""
    ids = None
    inputs = {}
    for path in paths:
        name, file_ids, rows = ref.read_feature_matrix(path)
        if keep is not None:
            index = {item: i for i, item in enumerate(file_ids)}
            rows = rows[[index[item] for item in keep]]
            file_ids = keep
        if ids is not None and file_ids != ids:
            raise ValueError(f"{path}: ids differ from the other spaces")
        ids = file_ids
        inputs[name] = rows
    return ids, inputs


def eval_map(result) -> float:
    return float(result.field("mAP"))


def check_eval(result, run: RankedRun, relevant: dict[str, set[str]]) -> str | None:
    """The printed mAP must match a recomputation from the run file (4 decimals)."""
    want = ref.mean_ap({q: [i for i, _ in e] for q, e in run.entries.items()}, relevant)
    got = eval_map(result)
    if abs(got - want) > 6e-5:
        return f"eval: printed mAP {got} but the run scores {want:.6f}"
    return None


def read_back(path, stage: str) -> tuple[RankedRun | None, str | None]:
    try:
        return read_run(path), None
    except ValueError as exc:
        return None, f"{stage}: run file does not read back: {exc}"


class Workload:
    """Shared state: the work directory, the seed and the data directory.

    `measures(results)` maps each of a pass's figures to (numerator,
    denominator, unit); a run reports sum(numerators) / sum(denominators)
    over its passes. THROUGHPUT and QUALITY name the figures behind the
    end-to-end `throughput_per_s` and `mAP`.
    """

    name = ""

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed
        self.data = work / "data"

    def prepare(self) -> None:
        """Build the references the checks need (after setup, untimed)."""

    @staticmethod
    def fresh(*paths: Path) -> None:
        """Remove a previous pass's outputs, so a check never reads them."""
        for path in paths:
            path.unlink(missing_ok=True)

    def info(self) -> dict:
        """Facts about the inputs that the summary prints (not metrics)."""
        return {}


class Train(Workload):
    """`avsearch train`, B=32, 2 epochs, validation mAP after each epoch."""

    name = "train"
    THROUGHPUT, QUALITY = "train_triplets_per_s", "val_mAP"
    N_VIDEOS = 300
    EPOCHS = 2

    def setup(self, runner) -> None:
        runner.stage("synth", synth_argv(self.data, self.seed, self.N_VIDEOS, 1.0, 0.5))
        self.config = self.work / "train.ini"
        self.config.write_text(
            f"[model]\nd = {D}\nheads = {HEADS}\nseed = {self.seed}\n"
            f"[train]\nepochs = {self.EPOCHS}\nbatch_size = 32\nseed = {self.seed}\n"
            "validation_metric = mAP\n"
        )
        lines = (self.data / "pairs_train.tsv").read_text(encoding="utf-8").splitlines()
        self.triplets = sum(1 for line in lines if line)

    def prepare(self) -> None:
        self.oracle_map = nearest_latent_map(self.data, "val")
        pairs = (self.data / "pairs_val.tsv").read_text(encoding="utf-8").splitlines()
        rows = [line.split("\t") for line in pairs]
        self.relevant = {caption: video for video, caption in rows}
        self.video_ids, self.videos = feature_inputs(sorted(self.data.glob("video_*.feat")))
        _, self.queries = feature_inputs(
            sorted(self.data.glob("text_*.feat")), keep=list(self.relevant)
        )

    def run_pass(self, runner) -> dict:
        self.ckpt = self.work / "model.ckpt"
        self.log = self.work / "train.log"
        self.fresh(self.ckpt, self.log)
        argv = [
            "--train-manifest", self.data / "manifest_train.json",
            "--val-manifest", self.data / "manifest_val.json",
            "--config", self.config, "--out", self.ckpt, "--log", self.log,
        ]
        return {"train": runner.stage("train", argv)}

    def check(self, results) -> list[str]:
        train = results["train"]
        if not train.ok:
            return []
        rows = [line.split("\t") for line in self.log.read_text(encoding="utf-8").splitlines()]
        values = [float(v) for row in rows for v in row[1:]]
        if len(rows) != self.EPOCHS or not np.all(np.isfinite(values)):
            return [f"train: log has {len(rows)} epochs or a non-finite value"]
        self.val_map = max(float(row[2]) for row in rows)
        if abs(float(train.field("best_mAP")) - self.val_map) > 6e-5:
            return ["train: printed best_mAP is not the best logged epoch"]
        # The saved checkpoint must score the reported validation mAP.
        sims = ref.similarity_matrix(ref.read_checkpoint(self.ckpt), self.videos, self.queries)
        ids = np.array(self.video_ids)
        target = np.array([self.video_ids.index(v) for v in self.relevant.values()])
        s = sims[np.arange(len(target)), target][:, None]
        ranks = 1 + np.sum(sims > s, axis=1) + np.sum((sims == s) & (ids < ids[target][:, None]), axis=1)
        want = float(np.mean(1.0 / ranks))
        if abs(want - self.val_map) > 1e-3:
            return [f"train: checkpoint scores val mAP {want:.6f}, train reported {self.val_map:.6f}"]
        return []

    def measures(self, results) -> dict:
        return {
            "train_triplets_per_s": (self.triplets * self.EPOCHS, results["train"].seconds, "1/s"),
            "val_mAP": (self.val_map, 1, "mAP"),
        }

    def info(self) -> dict:
        return {"nearest_latent_oracle_mAP": round(self.oracle_map, 6), "triplets": self.triplets}


class Search(Workload):
    """`avsearch search --top-k 1000` over 4000 videos, then `avsearch eval`."""

    name = "search"
    THROUGHPUT, QUALITY = "search_qps", "search_mAP"
    N_VIDEOS = 4000
    N_QUERIES = 500
    TOP_K = 1000
    # Noise at which the aligned checkpoint's mAP sits near 0.75, not 1.
    SIGMA = 5.0

    def setup(self, runner) -> None:
        runner.stage("synth", synth_argv(self.data, self.seed, self.N_VIDEOS, self.SIGMA, 0.0))
        rng = np.random.default_rng([self.seed, 1])
        picks = np.sort(rng.choice(self.N_VIDEOS, self.N_QUERIES, replace=False))
        self.query_ids = [f"v{i:04d}c1" for i in picks]  # validation captions
        self.query_feats = []
        for name in TEXT_SPACES:
            space, feats = read_features(self.data / f"text_{name}.feat")
            path = self.work / f"query_{name}.feat"
            write_features(path, space, {q: feats[q] for q in self.query_ids})
            self.query_feats.append(path)
        self.video_feats = [self.data / f"video_{name}.feat" for name in VIDEO_SPACES]
        self.ckpt = self.work / "aligned.ckpt"
        aligned_checkpoint(self.data / "meta", self.ckpt, self.seed)

    def prepare(self) -> None:
        video_ids, videos = feature_inputs(self.video_feats)
        _, queries = feature_inputs(self.query_feats, keep=self.query_ids)
        self.index = {v: i for i, v in enumerate(video_ids)}
        self.ref_sims = ref.similarity_matrix(ref.read_checkpoint(self.ckpt), videos, queries)
        self.relevant = {q: {q[:-2]} for q in self.query_ids}

    def run_pass(self, runner) -> dict:
        self.run_path = self.work / "search.run"
        self.fresh(self.run_path)
        search = runner.stage("search", [
            "--checkpoint", self.ckpt, "--video-feats", *self.video_feats,
            "--query-feats", *self.query_feats, "--top-k", self.TOP_K,
            "--out", self.run_path, "--run-tag", "bench",
        ])
        ev = runner.stage("eval", ["--run", self.run_path, "--qrels", self.data / "qrels_val.txt"])
        return {"search": search, "eval": ev}

    def check(self, results) -> list[str]:
        if not results["search"].ok:
            return []
        run, error = read_back(self.run_path, "search")
        if error:
            return [error]
        if sorted(run.entries) != sorted(self.query_ids):
            return ["search: the run does not cover exactly the queries"]
        failures = []
        for qi, qid in enumerate(self.query_ids):
            error = ref.check_ranking(
                f"search {qid}", run.entries[qid], self.ref_sims[qi], self.index, self.TOP_K
            )
            if error:
                failures.append(error)
                break
        if results["eval"].ok:
            failures += filter(None, [check_eval(results["eval"], run, self.relevant)])
        return failures

    def measures(self, results) -> dict:
        return {
            "search_qps": (self.N_QUERIES, results["search"].seconds, "1/s"),
            "eval_s": (results["eval"].seconds, 1, "s"),
            "search_mAP": (eval_map(results["eval"]), 1, "mAP"),
        }


SUBJECTS = ["man", "woman", "dog", "cat", "robot", "child", "bird", "horse"]
ACTIONS = ["running", "jumping", "dancing", "cooking", "swimming", "reading"]
PLACES = ["park", "kitchen", "street", "beach", "forest", "office"]


def _sentence(rng) -> str:
    return (
        f"a {SUBJECTS[rng.integers(len(SUBJECTS))]} is {ACTIONS[rng.integers(len(ACTIONS))]}"
        f" in the {PLACES[rng.integers(len(PLACES))]}"
    )


class PostSearch(Workload):
    """Frame rerank with negation routing, late fusion, eval, pseudo-captions."""

    name = "postsearch"
    # Pseudocap, not rerank, is the throughput: rerank's per-frame Python
    # loop swings most with the speed of a shared host (on a 2-vCPU VM, a
    # run-to-run spread of 0.23 against 0.13 for pseudocap). Rerank still
    # dominates `pipeline_s`, and `rerank_qps` is printed in the summary.
    THROUGHPUT, QUALITY = "pseudocap_videos_per_s", "rerank_mAP"
    N_VIDEOS = 1000
    N_QUERIES = 100
    N_RELEVANT = 5
    FRAMES = 64
    FRAME_DIM = 128
    DEPTH = 100  # reranked prefix of the top-1000 base run
    N_PSEUDO = 100
    CANDIDATES = 12
    DISTINCT = 6  # candidate sentences per video, before duplicates
    BASE_NOISE = 0.3
    FRAME_NOISE = 0.6
    QUERY_NOISE = 0.3

    def setup(self, runner) -> None:
        runner.stage("synth", synth_argv(self.data, self.seed, self.N_VIDEOS, 1.0, 0.0))
        rng = np.random.default_rng([self.seed, 2])
        z = np.load(self.data / "meta" / "latents.npy")
        ids = [f"v{i:04d}" for i in range(self.N_VIDEOS)]
        picks = np.sort(rng.choice(self.N_VIDEOS, self.N_QUERIES, replace=False))
        qids = self.query_ids = [f"{ids[i]}c1" for i in picks]

        # Relevant: the videos whose latents are nearest the query's.
        unit = z / np.linalg.norm(z, axis=1, keepdims=True)
        cos = unit[picks] @ unit.T
        nearest = np.argsort(-cos, axis=1, kind="stable")[:, : self.N_RELEVANT]
        self.relevant = {q: {ids[j] for j in row} for q, row in zip(qids, nearest)}
        self.qrels = self.work / "qrels.txt"
        write_qrels(self.qrels, JudgmentSet(
            {q: dict.fromkeys(sorted(rel), 1) for q, rel in self.relevant.items()}
        ))

        # Base run: latent cosine plus noise, all 1000 videos; its top 100 is reranked.
        base = cos + self.BASE_NOISE * rng.standard_normal(cos.shape)
        id_array = np.array(ids)
        full = {}
        for q, row in zip(qids, base):
            order = np.lexsort((id_array, -row))
            full[q] = [(ids[j], float(row[j])) for j in order]
        self.base_run = self.work / "base.run"
        self.top_run = self.work / "base_top.run"
        write_run(self.base_run, RankedRun(full, "base"))
        write_run(self.top_run, RankedRun({q: e[: self.DEPTH] for q, e in full.items()}, "base"))

        # Frame and query vectors in a plain and an alternate ("negated") space.
        self.frames, self.query_vecs, self.frame_files, self.query_files = {}, {}, {}, {}
        for key in ("plain", "alt"):
            proj = rng.standard_normal((self.FRAME_DIM, LATENT)) / np.sqrt(LATENT)
            noise = rng.standard_normal((self.N_VIDEOS, self.FRAMES, self.FRAME_DIM))
            frames = ((z @ proj.T)[:, None, :] + self.FRAME_NOISE * noise).astype(np.float32)
            queries = z[picks] @ proj.T
            queries += self.QUERY_NOISE * rng.standard_normal(queries.shape)
            self.frames[key] = frames
            self.query_vecs[key] = queries.astype(np.float32)
            self.frame_files[key] = self.work / f"frames_{key}.feat"
            self.query_files[key] = self.work / f"queries_{key}.feat"
            write_features(self.frame_files[key], f"frames_{key}", {
                f"{ids[i]}#{f}": frames[i, f]
                for i in range(self.N_VIDEOS) for f in range(self.FRAMES)
            })
            write_features(self.query_files[key], f"frames_{key}", dict(zip(qids, self.query_vecs[key])))

        # About half the queries carry a negation cue and route to "alt".
        captions = read_captions(self.data / "captions.tsv")
        cued = set(rng.choice(qids, self.N_QUERIES // 2, replace=False).tolist())
        tokens = {}
        for q in qids:
            negated = negate_caption(captions[q], rng) if q in cued else None
            tokens[q] = negated or captions[q]
        self.routed = {q for q in qids if tokens[q] is not captions[q]}
        self.query_tokens = self.work / "query_tokens.tsv"
        write_captions(self.query_tokens, tokens)

        # Pseudo-caption candidates (with duplicates) and their text features.
        meta = self.data / "meta"
        projs = {n: np.load(meta / f"proj_text_{n}.npy") for n in TEXT_SPACES}
        cap_feats = {n: {} for n in TEXT_SPACES}
        rows = []
        for i in range(self.N_PSEUDO):
            pool = [_sentence(rng) for _ in range(self.DISTINCT)]
            for f in range(self.CANDIDATES):
                text = pool[rng.integers(self.DISTINCT)]
                if rng.random() < 0.3:  # a variant that normalizes to the same caption
                    text = text.capitalize().replace(" is ", "  is ")
                rows.append(f"{ids[i]}\t{f}\t{text}\n")
                w = rng.random()
                latent = w * z[i] + np.sqrt(1 - w * w) * rng.standard_normal(LATENT)
                for n, p in projs.items():
                    cap_feats[n][f"{ids[i]}#{f}"] = p @ latent + rng.standard_normal(p.shape[0])
        self.candidates = self.work / "candidates.tsv"
        self.candidates.write_text("".join(rows), encoding="utf-8")
        self.caption_files = [self.work / f"captions_{n}.feat" for n in TEXT_SPACES]
        for path, (n, feats) in zip(self.caption_files, cap_feats.items()):
            write_features(path, n, feats)
        self.video_feats = [self.data / f"video_{name}.feat" for name in VIDEO_SPACES]
        self.ckpt = self.work / "aligned.ckpt"
        aligned_checkpoint(meta, self.ckpt, self.seed)

    def prepare(self) -> None:
        self.base_top = read_run(self.top_run).entries
        self.base_full = read_run(self.base_run).entries
        self.sample = self.query_ids[:: max(1, self.N_QUERIES // 20)]
        self.video_index = {f"v{i:04d}": i for i in range(self.N_VIDEOS)}

        # Reference pseudo-caption scores of each video's kept candidates.
        kept: dict[str, dict[str, tuple[int, str]]] = {}
        for line in self.candidates.read_text(encoding="utf-8").splitlines():
            vid, frame, text = line.split("\t")
            # The earliest frame's instance of each case- and space-folded caption.
            kept.setdefault(vid, {}).setdefault(" ".join(text.lower().split()), (int(frame), text))
        video_ids = sorted(kept)
        _, videos = feature_inputs(self.video_feats, keep=video_ids)
        cap_ids, caps = feature_inputs(self.caption_files)
        heads = ref.read_checkpoint(self.ckpt)
        owner = np.array([video_ids.index(c.rpartition("#")[0]) for c in cap_ids])
        score = 0.0
        for head in heads:
            v = ref.unit_rows(ref.fused(head["video"], videos))
            c = ref.unit_rows(ref.fused(head["text"], caps))
            score = score + np.clip(np.sum(v[owner] * c, axis=1), -1.0, 1.0)
        score = dict(zip(cap_ids, score / len(heads)))
        self.pseudo_ref = {
            vid: {text: score[f"{vid}#{frame}"] for frame, text in kept[vid].values()}
            for vid in video_ids
        }

    def run_pass(self, runner) -> dict:
        self.reranked = self.work / "reranked.run"
        self.fused = self.work / "fused.run"
        self.selection = self.work / "pseudo.tsv"
        self.fresh(self.reranked, self.fused, self.selection)
        return {
            "rerank": runner.stage("rerank", [
                "--run", self.top_run, "--frames", self.frame_files["plain"],
                "--query-feats", self.query_files["plain"], "--out", self.reranked,
                "--query-tokens", self.query_tokens, "--alt-frames", self.frame_files["alt"],
                "--alt-query-feats", self.query_files["alt"], "--run-tag", "rerank",
            ]),
            "fuse": runner.stage("fuse", [
                "--runs", self.base_run, self.reranked, "--weights", 0.5, 0.5,
                "--out", self.fused, "--run-tag", "fused",
            ]),
            "eval": runner.stage("eval", ["--run", self.reranked, "--qrels", self.qrels]),
            "pseudocap": runner.stage("pseudocap", [
                "--candidates", self.candidates, "--checkpoint", self.ckpt,
                "--video-feats", *self.video_feats, "--caption-feats", *self.caption_files,
                "--out", self.selection, "--k", 3,
            ]),
        }

    def _expected_rerank(self, qid: str) -> dict[str, float]:
        key = "alt" if qid in self.routed else "plain"
        qvec = self.query_vecs[key][self.query_ids.index(qid)].astype(np.float64)
        entry = self.base_top[qid]
        frames = self.frames[key][[self.video_index[v] for v, _ in entry]].astype(np.float64)
        cos = frames @ qvec / (np.linalg.norm(frames, axis=2) * np.linalg.norm(qvec))
        frame_score = np.clip(cos, -1.0, 1.0).max(axis=1)
        return dict(zip([v for v, _ in entry], 0.6 * frame_score + 0.4 * _minmax([s for _, s in entry])))

    def _expected_fuse(self, qid: str, reranked: dict) -> dict[str, float]:
        base = dict(zip([v for v, _ in self.base_full[qid]], _minmax([s for _, s in self.base_full[qid]])))
        new = dict(zip([v for v, _ in reranked[qid]], _minmax([s for _, s in reranked[qid]])))
        fill = min(new.values())
        return {v: 0.5 * b + 0.5 * new.get(v, fill) for v, b in base.items()}

    def check(self, results) -> list[str]:
        failures = []
        reranked = None
        if results["rerank"].ok:
            run, error = read_back(self.reranked, "rerank")
            if error:
                failures.append(error)
            elif sorted(run.entries) != sorted(self.query_ids):
                failures.append("rerank: the run does not cover exactly the queries")
            else:
                reranked = run
                errors = (
                    ref.check_scored(f"rerank {q}", run.entries[q], self._expected_rerank(q), self.DEPTH)
                    for q in self.sample
                )
                failures += [e for e in errors if e][:1]
        if results["fuse"].ok and reranked is not None:
            run, error = read_back(self.fused, "fuse")
            if error:
                failures.append(error)
            else:
                errors = (
                    ref.check_scored(
                        f"fuse {q}", run.entries.get(q, []),
                        self._expected_fuse(q, reranked.entries), self.N_VIDEOS,
                    )
                    for q in self.sample
                )
                failures += [e for e in errors if e][:1]
        if results["eval"].ok and reranked is not None:
            failures += filter(None, [check_eval(results["eval"], reranked, self.relevant)])
        if results["pseudocap"].ok:
            failures += filter(None, [self._check_pseudocap()])
        return failures

    def _check_pseudocap(self) -> str | None:
        selected: dict[str, list[tuple[str, float]]] = {}
        for line in self.selection.read_text(encoding="utf-8").splitlines():
            vid, _, score, text = line.split("\t")
            selected.setdefault(vid, []).append((text, float(score)))
        if sorted(selected) != sorted(self.pseudo_ref):
            return "pseudocap: selections do not cover exactly the candidate videos"
        for vid, expected in self.pseudo_ref.items():
            error = ref.check_scored(f"pseudocap {vid}", selected[vid], expected, 3)
            if error:
                return error
        return None

    def measures(self, results) -> dict:
        return {
            "rerank_qps": (self.N_QUERIES, results["rerank"].seconds, "1/s"),
            "rerank_mAP": (eval_map(results["eval"]), 1, "mAP"),
            "fuse_s": (results["fuse"].seconds, 1, "s"),
            "pseudocap_videos_per_s": (self.N_PSEUDO, results["pseudocap"].seconds, "1/s"),
        }

    def info(self) -> dict:
        return {"queries_routed_to_alt": len(self.routed)}


def _minmax(scores: list[float]) -> np.ndarray:
    s = np.asarray(scores, dtype=np.float64)
    lo, hi = s.min(), s.max()
    return np.full(s.shape, 0.5) if hi == lo else (s - lo) / (hi - lo)


WORKLOADS = {w.name: w for w in (Train, Search, PostSearch)}
