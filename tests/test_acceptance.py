"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Training-based criteria use fixed seeds throughout and finish in
seconds on a laptop.
"""

import struct
import time
from contextlib import contextmanager

import numpy as np
import pytest

from avsearch.errors import DimensionError, FormatError
from avsearch.evaluation import (
    JudgmentSet,
    RankedRun,
    average_precision,
    inf_ap,
    read_qrels,
    read_run,
    write_qrels,
    write_run,
)
from avsearch.featio import checkpoint_load, checkpoint_save, read_features, write_features
from avsearch.fusion import (
    FeatureBundle,
    feature_importance,
    init_model,
    laff_forward,
    laff_vjp,
    similarity,
    similarity_with_grad,
    text_text_similarity,
)
from avsearch.manifest import build_triplets, load_dataset, load_manifest
from avsearch.negation import (
    Caption,
    Margins,
    Triplet,
    bcl_text_anchor,
    bcl_video_anchor,
    bnl_loss,
    detect_negation,
    gap_in_window_fraction,
    negate_caption,
    _bcl_grads,
)
from avsearch.numeric import LinearTanhParams, grad_check, linear_tanh, linear_tanh_vjp
from avsearch.pseudocap import CandidateSet, CaptionCandidate, normalize_caption, select_pseudo_captions
from avsearch.rerank import FrameFeatures, frame_query_score, rerank
from avsearch.synth import SpaceSpec, nearest_latent_map, synth_dataset
from avsearch.trainer import TrainConfig, ValidationSet, fit

from conftest import random_bundle, randomized_model


@contextmanager
def criterion(label: str):
    try:
        yield
    except BaseException:
        print(f"\n[FAIL] {label}")
        raise
    print(f"\n[PASS] {label}")


KINK_DELTA = 5e-4  # redraw margin around hinge/argmax non-differentiabilities

# Central differences of an O(1) function carry ~1e-16/(2h) = 5e-12 rounding
# noise; against the checker's 1e-8 denominator floor that is 5e-4 of "error"
# on a correct near-zero component. Instances whose analytic gradient has a
# nonzero component below this threshold are redrawn: the check is not
# informative there. Exact zeros are kept (their finite difference is exact).
TINY_COMPONENT = 1e-7


def _fd_informative(grad: np.ndarray) -> bool:
    nonzero = np.abs(grad[grad != 0.0])
    return nonzero.size == 0 or float(nonzero.min()) >= TINY_COMPONENT


# ---------------------------------------------------------------------------
# 1. Gradient suite
# ---------------------------------------------------------------------------


def _check_linear_tanh(seed):
    for attempt in range(100):
        rng = np.random.default_rng((seed, attempt))
        d = int(rng.integers(1, 17))
        d_in = int(rng.integers(1, 17))
        w = rng.normal(scale=0.4, size=(d, d_in))
        b = rng.normal(scale=0.4, size=d)
        f = rng.normal(scale=0.5, size=d_in)
        upstream = rng.normal(size=d)
        x0 = np.concatenate([w.ravel(), b, f])

        def unpack(x):
            return (
                LinearTanhParams(x[: d * d_in].reshape(d, d_in), x[d * d_in : d * d_in + d]),
                x[d * d_in + d :],
            )

        def fun(x):
            p, fi = unpack(x)
            return float(upstream @ linear_tanh(p, fi))

        def grad(x):
            p, fi = unpack(x)
            dw, db, df = linear_tanh_vjp(p, fi, upstream)
            return np.concatenate([dw.ravel(), db, df])

        if not _fd_informative(grad(x0)):
            continue
        return grad_check(fun, grad, x0, h=1e-5)
    raise RuntimeError(f"no informative linear_tanh instance for seed {seed}")


def _random_branch(rng, k, d, max_in=8):
    from avsearch.fusion import LaffBranchParams

    dims = {f"s{i}": int(rng.integers(1, max_in + 1)) for i in range(k)}
    transforms = {
        n: LinearTanhParams(rng.normal(scale=0.4, size=(d, di)), rng.normal(scale=0.4, size=d))
        for n, di in dims.items()
    }
    return LaffBranchParams(transforms, rng.normal(scale=0.8, size=d)), dims


def _check_laff(seed, attempt=0):
    if attempt >= 100:
        raise RuntimeError(f"no informative laff instance for seed {seed}")
    rng = np.random.default_rng((seed, attempt))
    k = int(rng.integers(1, 5))
    d = int(rng.integers(2, 17))
    branch, dims = _random_branch(rng, k, d)
    bundle = random_bundle("x", dims, rng)
    upstream = rng.normal(size=d)
    spaces = branch.spaces

    def pack(br, bu):
        parts = []
        for s in spaces:
            parts.append(br.transforms[s].weight.ravel())
            parts.append(br.transforms[s].bias)
        parts.append(br.attention)
        for s in spaces:
            parts.append(bu.features[s])
        return np.concatenate(parts)

    def unpack(x):
        from avsearch.fusion import LaffBranchParams

        pos = 0
        transforms = {}
        for s in spaces:
            p = branch.transforms[s]
            w = x[pos : pos + p.out_dim * p.in_dim].reshape(p.out_dim, p.in_dim)
            pos += p.out_dim * p.in_dim
            b = x[pos : pos + p.out_dim]
            pos += p.out_dim
            transforms[s] = LinearTanhParams(w, b)
        u = x[pos : pos + d]
        pos += d
        feats = {}
        for s in spaces:
            n = bundle.features[s].shape[0]
            feats[s] = x[pos : pos + n]
            pos += n
        return LaffBranchParams(transforms, u), FeatureBundle("x", feats)

    def fun(x):
        br, bu = unpack(x)
        fused, _ = laff_forward(br, bu)
        return float(upstream @ fused)

    grads = laff_vjp(branch, bundle, upstream)
    parts = []
    for s in spaces:
        parts.append(grads.d_weight[s].ravel())
        parts.append(grads.d_bias[s])
    parts.append(grads.d_attention)
    for s in spaces:
        parts.append(grads.d_inputs[s])
    flat = np.concatenate(parts)
    if not _fd_informative(flat):
        return _check_laff(seed, attempt + 1)
    return grad_check(fun, lambda _: flat, pack(branch, bundle), h=1e-5)


def _check_similarity(seed):
    for attempt in range(100):
        rng = np.random.default_rng((seed, attempt))
        h = int(rng.integers(1, 4))
        d = int(rng.integers(2, 7))
        vdims = {f"v{i}": int(rng.integers(1, 5)) for i in range(int(rng.integers(1, 3)))}
        tdims = {f"t{i}": int(rng.integers(1, 5)) for i in range(int(rng.integers(1, 3)))}
        model = randomized_model(vdims, tdims, d=d, heads=h, seed=seed + 1000 * attempt)
        video = random_bundle("v", vdims, rng)
        text = random_bundle("q", tdims, rng)
        _, grad = similarity_with_grad(model, video, text)
        if not _fd_informative(grad):
            continue

        def fun(x):
            return similarity(model.with_vector(x), video, text)

        return grad_check(fun, lambda _: grad, model.to_vector(), h=1e-5)
    raise RuntimeError(f"no informative similarity instance for seed {seed}")


def _check_bcl(seed):
    rng = np.random.default_rng(seed)
    m = Margins(m0=0.2, m1=0.2, m2=1.0, m3=0.2, m4=1.0, lambda1=0.1)
    while True:
        s_hi, s_lo = rng.uniform(-1, 1, 2)
        args = (m.m1 + s_lo - s_hi, -m.m2 - s_lo + s_hi, m.m3 + s_lo - s_hi, -m.m4 - s_lo + s_hi)
        if all(abs(a) > KINK_DELTA for a in args):
            break

    def fun_v(x):
        return bcl_video_anchor(float(x[0]), float(x[1]), m)

    def grad_v(x):
        g = _bcl_grads(m.m1, m.m2, float(x[0]), float(x[1]))
        return np.array(g)

    def fun_t(x):
        return bcl_text_anchor(float(x[0]), float(x[1]), m)

    def grad_t(x):
        g = _bcl_grads(m.m3, m.m4, float(x[0]), float(x[1]))
        return np.array(g)

    x0 = np.array([s_hi, s_lo])
    return max(grad_check(fun_v, grad_v, x0, h=1e-5), grad_check(fun_t, grad_t, x0, h=1e-5))


def _bnl_instance_is_safe(model, batch, m, delta=KINK_DELTA):
    n = len(batch)
    sims = np.array(
        [[similarity(model, bv.video, bq.caption_features) for bq in batch] for bv in batch]
    )
    for b, t in enumerate(batch):
        column = np.delete(sims[:, b], b)
        top = np.sort(column)[::-1]
        if len(top) >= 2 and top[0] - top[1] < delta:
            return False
        if abs(m.m0 + top[0] - sims[b, b]) < delta:
            return False
        if t.has_negated:
            s_pos = sims[b, b]
            s_vneg = similarity(model, t.video, t.negated_features)
            s_tt = text_text_similarity(model, t.caption_features, t.negated_features)
            hinge_args = (
                m.m1 + s_vneg - s_pos,
                -m.m2 - s_vneg + s_pos,
                m.m3 + s_tt - s_pos,
                -m.m4 - s_tt + s_pos,
            )
            if any(abs(a) < delta for a in hinge_args):
                return False
    return True


def _check_bnl(seed):
    m = Margins(m0=0.3, m1=0.2, m2=1.0, m3=0.2, m4=1.0, lambda1=0.2)
    attempt = 0
    while True:
        rng = np.random.default_rng((seed, attempt))
        h = int(rng.integers(1, 3))
        d = int(rng.integers(2, 7))
        vdims = {"a": int(rng.integers(2, 6))}
        tdims = {"t": int(rng.integers(2, 6))}
        model = randomized_model(vdims, tdims, d=d, heads=h, seed=seed + attempt)
        n = int(rng.integers(2, 4))
        batch = []
        for i in range(n):
            has_neg = bool(rng.integers(2))
            batch.append(
                Triplet(
                    random_bundle(f"v{i}", vdims, rng),
                    Caption(f"c{i}", ["a", "dog", "is", "running"]),
                    random_bundle(f"q{i}", tdims, rng),
                    Caption(f"c{i}n", ["a", "dog", "is", "not", "running"]) if has_neg else None,
                    random_bundle(f"n{i}", tdims, rng) if has_neg else None,
                )
            )
        if _bnl_instance_is_safe(model, batch, m):
            _, grad = bnl_loss(model, batch, m)
            if _fd_informative(grad):
                break
        attempt += 1

    def fun(x):
        return bnl_loss(model.with_vector(x), batch, m)[0]

    return grad_check(fun, lambda _: grad, model.to_vector(), h=1e-5)


def test_criterion_1_gradient_suite():
    with criterion("criterion 1: gradient suite (rel err < 1e-4, 100 instances/op, < 60 s)"):
        start = time.time()
        for name, check in (
            ("linear_tanh", _check_linear_tanh),
            ("laff", _check_laff),
            ("similarity", _check_similarity),
            ("bcl", _check_bcl),
            ("bnl", _check_bnl),
        ):
            worst = max(check(seed) for seed in range(100))
            assert worst < 1e-4, f"{name}: worst rel err {worst:.2e}"
        elapsed = time.time() - start
        assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 2. Convexity suite
# ---------------------------------------------------------------------------


def test_criterion_2_convexity():
    with criterion("criterion 2: 1000 fusion calls, weights positive, sum within 1e-12"):
        for seed in range(1000):
            rng = np.random.default_rng(seed)
            k = int(rng.integers(1, 5))
            d = int(rng.integers(2, 17))
            branch, dims = _random_branch(rng, k, d)
            _, weights = laff_forward(branch, random_bundle("x", dims, rng))
            assert np.all(weights > 0)
            assert abs(float(weights.sum()) - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# 3 & 4. Synthetic training suites
# ---------------------------------------------------------------------------

ACCEPT_SPACES = dict(
    video_spaces=[SpaceSpec("visa", 32, 0.05), SpaceSpec("visb", 16, 0.05)],
    text_spaces=[SpaceSpec("txta", 24, 0.05), SpaceSpec("txtb", 16, 0.05)],
)


def _load_split(manifests):
    train_data = load_dataset(load_manifest(manifests["train"]))
    val_data = load_dataset(load_manifest(manifests["val"]))
    triplets = build_triplets(train_data)
    validation = ValidationSet(
        [val_data.text_bundles[cid] for _, cid, _ in val_data.pairs],
        list(val_data.video_bundles.values()),
        val_data.qrels,
    )
    return train_data, triplets, validation


def test_criterion_3_synthetic_retrieval(tmp_path):
    with criterion("criterion 3: oracle >= 0.95, trained validation mAP >= 0.90, < 5 min"):
        start = time.time()
        manifests = synth_dataset(
            tmp_path, seed=0, n_videos=200, n_captions_per=2, latent_dim=8, **ACCEPT_SPACES
        )
        oracle = nearest_latent_map(tmp_path, "val")
        assert oracle >= 0.95, f"nearest-latent oracle mAP {oracle:.4f}"
        train_data, triplets, validation = _load_split(manifests)
        model = init_model(train_data.video_dims, train_data.text_dims, d=16, heads=2, seed=0)
        cfg = TrainConfig(
            epochs=20, batch_size=32, learning_rate=0.5,
            margins=Margins(lambda1=0.0), seed=0,
        )
        _, report = fit(model, triplets, validation, cfg, lambda m: None)
        assert report.best_score >= 0.90, f"best validation mAP {report.best_score:.4f}"
        elapsed = time.time() - start
        assert elapsed < 300.0, f"retrieval suite took {elapsed:.1f}s"


def test_criterion_4_negation_suite(tmp_path):
    with criterion(
        "criterion 4: gap in [m1, m2] for >= 80% of negated triplets at best epoch,"
        " above untrained"
    ):
        manifests = synth_dataset(
            tmp_path, seed=0, n_videos=200, n_captions_per=2, latent_dim=8,
            negate_fraction=0.5, **ACCEPT_SPACES,
        )
        train_data, triplets, validation = _load_split(manifests)
        n_negated = sum(t.has_negated for t in triplets)
        assert n_negated == round(0.5 * len(triplets))
        margins = Margins(m0=0.2, m1=0.2, m2=1.0, m3=0.2, m4=1.0, lambda1=0.1)
        model = init_model(train_data.video_dims, train_data.text_dims, d=16, heads=2, seed=0)
        untrained = gap_in_window_fraction(model, triplets, margins)
        cfg = TrainConfig(epochs=25, batch_size=8, learning_rate=0.3, margins=margins, seed=0)
        best = []
        fit(model, triplets, validation, cfg, lambda m: best.append(m.with_vector(m.params)))
        trained_frac = gap_in_window_fraction(best[-1], triplets, margins)
        assert trained_frac >= 0.80, f"fraction in window {trained_frac:.3f}"
        assert trained_frac > untrained, (
            f"trained {trained_frac:.3f} not above untrained {untrained:.3f}"
        )


# ---------------------------------------------------------------------------
# 5. Metric oracle
# ---------------------------------------------------------------------------


def _bruteforce_ap(entry, judgments):
    relevant = {i for i, r in judgments.items() if r == 1}
    acc = 0.0
    for k in range(1, len(entry) + 1):
        if entry[k - 1][0] in relevant:
            acc += len({e[0] for e in entry[:k]} & relevant) / k
    return acc / len(relevant)


def test_criterion_5_metric_oracle():
    with criterion("criterion 5: infAP == AP within 1e-3 on 500 complete runs; AP == brute force"):
        rng = np.random.default_rng(0)
        checked = 0
        while checked < 500:
            n = int(rng.integers(1, 21))
            items = [f"i{j}" for j in range(n)]
            scores = np.sort(rng.uniform(-1, 1, n))[::-1]
            entry = list(zip(items, scores.tolist()))
            labels = {item: int(rng.random() < 0.4) for item in items}
            for j in range(int(rng.integers(0, 3))):
                labels[f"unretrieved{j}"] = int(rng.random() < 0.5)
            if not any(labels.values()):
                continue
            ap = average_precision(entry, labels)
            assert ap == _bruteforce_ap(entry, labels)
            assert abs(inf_ap(entry, labels) - ap) < 1e-3
            checked += 1


# ---------------------------------------------------------------------------
# 6. Rerank
# ---------------------------------------------------------------------------


def test_criterion_6_rerank():
    with criterion("criterion 6: rerank weight extremes and 0.6/0.4 hand case"):
        rng = np.random.default_rng(1)
        entry = [(f"i{j}", float(s)) for j, s in enumerate(np.sort(rng.uniform(0, 1, 20))[::-1])]
        store = {f"i{j}": FrameFeatures(f"i{j}", rng.normal(size=(5, 6))) for j in range(20)}
        q = rng.normal(size=6)

        out = rerank(entry, store, q, w_new=0.0, w_old=1.0)
        assert [i for i, _ in out] == [i for i, _ in entry]

        out = rerank(entry, store, q, w_new=1.0, w_old=0.0)
        frame_order = sorted(entry, key=lambda p: -frame_query_score(store[p[0]], q))
        assert [i for i, _ in out] == [i for i, _ in frame_order]

        def unit(c):
            return np.array([c, np.sqrt(1 - c * c)])

        hand_entry = [("A", 10.0), ("B", 5.0), ("C", 0.0)]
        hand_store = {
            "A": FrameFeatures("A", unit(0.1)[None, :]),
            "B": FrameFeatures("B", unit(0.9)[None, :]),
            "C": FrameFeatures("C", unit(0.8)[None, :]),
        }
        out = rerank(hand_entry, hand_store, np.array([1.0, 0.0]), w_new=0.6, w_old=0.4)
        assert [i for i, _ in out] == ["B", "C", "A"]
        assert dict(out)["B"] == pytest.approx(0.6 * 0.9 + 0.4 * 0.5, abs=1e-12)
        assert dict(out)["A"] == pytest.approx(0.6 * 0.1 + 0.4 * 1.0, abs=1e-12)
        assert dict(out)["C"] == pytest.approx(0.6 * 0.8 + 0.4 * 0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# 7. Pseudo-caption
# ---------------------------------------------------------------------------


def test_criterion_7_pseudo_caption():
    with criterion("criterion 7: selection matches brute force on 1000 candidate sets; k=3"):
        import inspect

        assert inspect.signature(select_pseudo_captions).parameters["k"].default == 3
        rng = np.random.default_rng(2)
        for _ in range(1000):
            n = int(rng.integers(1, 15))
            cands = CandidateSet(
                "v",
                [
                    CaptionCandidate(int(rng.integers(0, 30)), f"caption {int(rng.integers(0, 8))}")
                    for _ in range(n)
                ],
            )
            score_table = {}

            def score(text):
                key = normalize_caption(text)
                if key not in score_table:
                    score_table[key] = float(rng.uniform())
                return score_table[key]

            got = select_pseudo_captions(cands, score)
            best = {}
            for c in cands.candidates:
                key = normalize_caption(c.text)
                if key not in best or c.frame_index < best[key].frame_index:
                    best[key] = c
            ranked = sorted(best.values(), key=lambda c: (-score(c.text), c.frame_index))
            expected = [(c.text, score(c.text)) for c in ranked[:3]]
            assert got == expected


# ---------------------------------------------------------------------------
# 8. Negation text ops
# ---------------------------------------------------------------------------


def test_criterion_8_negation_text_ops():
    with criterion("criterion 8: 1000-caption negate/delete round-trip; knife example"):
        fig2 = Caption("fig2", "a man is holding a knife".split())
        out = negate_caption(fig2, 0)
        assert out.tokens == "a man is not holding a knife".split()

        subjects = ["man", "woman", "dog", "cat", "robot", "bird"]
        verbs = ["running", "cooking", "dancing", "reading", "painted", "jumping"]
        places = ["park", "beach", "street", "forest", "office"]
        rng = np.random.default_rng(3)
        failures = 0
        produced = 0
        for i in range(1000):
            s = subjects[int(rng.integers(len(subjects)))]
            v = verbs[int(rng.integers(len(verbs)))]
            p = places[int(rng.integers(len(places)))]
            form = int(rng.integers(3))
            if form == 0:
                tokens = ["a", s, "is", v, "in", "the", p]
            elif form == 1:
                tokens = ["the", s, v, "near", "the", p]
            else:
                tokens = ["two", s + "s", "were", "seen", v, "at", "the", p]
            negated = negate_caption(Caption(f"c{i}", tokens), rng)
            if negated is None:
                failures += 1
                continue
            produced += 1
            restored = list(negated.tokens)
            restored.remove("not")
            if restored != tokens or not detect_negation(negated)[0]:
                failures += 1
        assert failures == 0
        assert produced == 1000


# ---------------------------------------------------------------------------
# 9. Formats
# ---------------------------------------------------------------------------


def test_criterion_9_formats(tmp_path):
    with criterion("criterion 9: bit-exact round-trips; corrupt files rejected with location"):
        rng = np.random.default_rng(4)

        feat = tmp_path / "a.feat"
        feat2 = tmp_path / "b.feat"
        data = {f"v{i}": rng.normal(size=6) for i in range(5)}
        write_features(feat, "clip", data)
        name, loaded = read_features(feat)
        write_features(feat2, name, loaded)
        assert feat.read_bytes() == feat2.read_bytes()

        ckpt = tmp_path / "m.ckpt"
        ckpt2 = tmp_path / "m2.ckpt"
        model = randomized_model({"a": 4}, {"t": 3}, d=5, heads=2, seed=5)
        checkpoint_save(model, ckpt)
        checkpoint_save(checkpoint_load(ckpt), ckpt2)
        assert ckpt.read_bytes() == ckpt2.read_bytes()

        runp = tmp_path / "run.txt"
        runp2 = tmp_path / "run2.txt"
        run = RankedRun({"q1": [("a", 0.9), ("b", 0.1)], "q2": [("c", 0.5)]}, "tag")
        write_run(runp, run)
        write_run(runp2, read_run(runp))
        assert runp.read_bytes() == runp2.read_bytes()

        qrelsp = tmp_path / "q.txt"
        qrelsp2 = tmp_path / "q2.txt"
        write_qrels(qrelsp, JudgmentSet({"q1": {"a": 1, "b": 0}}, complete=False))
        write_qrels(qrelsp2, read_qrels(qrelsp))
        assert qrelsp.read_bytes() == qrelsp2.read_bytes()

        # Corrupt suite: bad magic, truncation, dim mismatch; errors located.
        bad = tmp_path / "bad.feat"
        raw = bytearray(feat.read_bytes())
        raw[0:4] = b"ZZZZ"
        bad.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="magic"):
            read_features(bad)

        bad.write_bytes(feat.read_bytes()[:-5])
        with pytest.raises(FormatError, match="byte offset"):
            read_features(bad)

        raw = bytearray(feat.read_bytes())
        raw[5:9] = struct.pack("<I", 7)  # header dim no longer matches records
        bad.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            read_features(bad)

        with pytest.raises(DimensionError):
            write_features(tmp_path / "x.feat", "s", {"a": np.zeros(3), "b": np.zeros(4)})

        badc = tmp_path / "bad.ckpt"
        badc.write_bytes(ckpt.read_bytes()[: len(ckpt.read_bytes()) - 9])
        with pytest.raises(FormatError, match="truncated"):
            checkpoint_load(badc)


# ---------------------------------------------------------------------------
# 10. Feature selection
# ---------------------------------------------------------------------------


def test_criterion_10_feature_selection(tmp_path):
    with criterion("criterion 10: attention ranks the clean space above the pure-noise space"):
        manifests = synth_dataset(
            tmp_path, seed=0, n_videos=150, n_captions_per=2, latent_dim=8,
            video_spaces=[SpaceSpec("clean", 24, 0.02), SpaceSpec("static", 24, 50.0)],
            text_spaces=[SpaceSpec("txta", 16, 0.02)],
        )
        train_data, triplets, validation = _load_split(manifests)
        model = init_model(train_data.video_dims, train_data.text_dims, d=16, heads=2, seed=0)
        cfg = TrainConfig(
            epochs=15, batch_size=16, learning_rate=0.5,
            margins=Margins(lambda1=0.0), seed=0,
        )
        best = []
        fit(model, triplets, validation, cfg, lambda m: best.append(m.with_vector(m.params)))
        ranked = feature_importance(best[-1], list(train_data.video_bundles.values()), "video")
        assert ranked[0][0] == "clean", f"ranking was {ranked}"
        assert ranked[0][1] > ranked[1][1]
