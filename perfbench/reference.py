"""Independent float64 references used to check the program's outputs.

Nothing here calls into `avsearch`: the feature files and checkpoints are
decoded with `struct`/NumPy from their documented layouts, and the fused
similarity is recomputed as batched matrix products. A bug in the program's
readers or numerics therefore shows up as a mismatch instead of being
reproduced by the check.
"""

from __future__ import annotations

import struct

import numpy as np

# Scores in run and selection files carry 6 decimals.
FILE_TOL = 1e-6


def read_feature_matrix(path) -> tuple[str, list[str], np.ndarray]:
    """(space name, ids, float32 (n, dim) matrix) of a `.feat` file."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != b"AVSF" or data[4] != 1:
        raise ValueError(f"{path}: not a version-1 feature file")
    dim, count = struct.unpack_from("<IQ", data, 5)
    pos = 17
    (name_len,) = struct.unpack_from("<H", data, pos)
    name = data[pos + 2 : pos + 2 + name_len].decode("utf-8")
    pos += 2 + name_len
    ids = []
    rows = np.empty((count, dim), dtype=np.float32)
    for i in range(count):
        (id_len,) = struct.unpack_from("<H", data, pos)
        ids.append(data[pos + 2 : pos + 2 + id_len].decode("utf-8"))
        pos += 2 + id_len
        rows[i] = np.frombuffer(data, dtype="<f4", count=dim, offset=pos)
        pos += 4 * dim
    if pos != len(data):
        raise ValueError(f"{path}: {len(data) - pos} trailing bytes")
    return name, ids, rows


def read_checkpoint(path) -> list[dict]:
    """Per head: {"video"|"text": (sorted [(space, W, b)], u)} from a checkpoint."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != b"AVSC" or data[4] != 1:
        raise ValueError(f"{path}: not a version-1 checkpoint")
    h, d = struct.unpack_from("<II", data, 5)
    pos = 13
    tables = []
    for _ in range(2):
        (n_spaces,) = struct.unpack_from("<H", data, pos)
        pos += 2
        dims = {}
        for _ in range(n_spaces):
            (name_len,) = struct.unpack_from("<H", data, pos)
            name = data[pos + 2 : pos + 2 + name_len].decode("utf-8")
            pos += 2 + name_len
            (dims[name],) = struct.unpack_from("<I", data, pos)
            pos += 4
        tables.append(dims)
    params = np.frombuffer(data, dtype="<f8", offset=pos)
    cursor = 0

    def take(n):
        nonlocal cursor
        out = params[cursor : cursor + n]
        cursor += n
        return out

    heads = []
    for _ in range(h):
        head = {}
        for branch, dims in zip(("video", "text"), tables):
            transforms = []
            for name in sorted(dims):
                w = take(d * dims[name]).reshape(d, dims[name])
                transforms.append((name, w, take(d)))
            head[branch] = (transforms, take(d))
        heads.append(head)
    if cursor != params.shape[0]:
        raise ValueError(f"{path}: parameter count does not match its header")
    return heads


def fused(branch, inputs: dict[str, np.ndarray]) -> np.ndarray:
    """(n, d) fused embeddings of one branch for per-space (n, dim) inputs."""
    transforms, u = branch
    e = np.stack([np.tanh(inputs[name].astype(np.float64) @ w.T + b) for name, w, b in transforms])
    scores = e @ u  # (k, n)
    scores -= scores.max(axis=0)
    a = np.exp(scores)
    a /= a.sum(axis=0)
    return np.einsum("kn,knd->nd", a, e)


def unit_rows(mat: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(mat, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return mat / norms


def similarity_matrix(heads, videos: dict, texts: dict) -> np.ndarray:
    """(n_text, n_video) mean-over-heads cosine of fused embeddings."""
    sims = 0.0
    for head in heads:
        v = unit_rows(fused(head["video"], videos))
        t = unit_rows(fused(head["text"], texts))
        sims = sims + np.clip(t @ v.T, -1.0, 1.0)
    return sims / len(heads)


def mean_ap(ranked: dict[str, list[str]], relevant: dict[str, set[str]]) -> float:
    """Mean AP over the ranked queries that have relevant items."""
    aps = []
    for qid, items in ranked.items():
        rel = relevant.get(qid)
        if not rel:
            continue
        hits = 0
        acc = 0.0
        for k, item in enumerate(items, start=1):
            if item in rel:
                hits += 1
                acc += hits / k
        aps.append(acc / len(rel))
    return sum(aps) / len(aps)


def check_ranking(
    label: str, listed: list[tuple[str, float]], ref_scores: np.ndarray,
    index: dict[str, int], top_k: int,
) -> str | None:
    """Verify one ranked list against reference scores of every candidate.

    `index` maps item ids to positions in `ref_scores`. The listed scores
    must match the reference to file precision, the list must hold exactly
    the `top_k` best candidates, and two items may only appear out of
    reference order when their reference scores are within FILE_TOL.
    """
    if len(listed) != min(top_k, len(index)):
        return f"{label}: {len(listed)} items listed, expected {min(top_k, len(index))}"
    try:
        pos = np.array([index[item] for item, _ in listed])
    except KeyError as exc:
        return f"{label}: unexpected item {exc}"
    ref = ref_scores[pos]
    worst = float(np.max(np.abs(np.array([s for _, s in listed]) - ref)))
    if worst > FILE_TOL:
        return f"{label}: a score differs from the reference by {worst:.3g}"
    if np.any(np.diff(ref) > FILE_TOL):
        return f"{label}: items out of reference order"
    rest = np.delete(ref_scores, pos)
    if rest.size and rest.max() > ref.min() + FILE_TOL:
        return f"{label}: an unlisted item outscores the listed top {top_k}"
    return None


def check_scored(
    label: str, listed: list[tuple[str, float]], expected: dict[str, float], top_k: int
) -> str | None:
    """check_ranking for reference scores given as an {item: score} dict."""
    index = {item: i for i, item in enumerate(expected)}
    return check_ranking(label, listed, np.fromiter(expected.values(), float), index, top_k)
