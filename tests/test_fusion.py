import math
import operator

import numpy as np
import pytest

from avsearch.errors import BundleMismatchError, DegenerateSimilarityWarning, DimensionError
from avsearch.fusion import (
    FeatureBundle,
    LaffBranchParams,
    LaffHead,
    LaffModel,
    branch_tables,
    feature_importance,
    init_model,
    laff_forward,
    laff_vjp,
    named_parameters,
    param_count,
    similarity,
    similarity_with_grad,
    text_text_similarity,
)
from avsearch.numeric import LinearTanhParams, grad_check, linear_tanh, softmax

import per_item_oracle as oracle
from conftest import random_bundle, randomized_model


def make_branch(dims: dict[str, int], d: int, rng, attention_scale=0.5) -> LaffBranchParams:
    transforms = {
        name: LinearTanhParams(rng.normal(scale=0.5, size=(d, d_in)), rng.normal(scale=0.5, size=d))
        for name, d_in in dims.items()
    }
    return LaffBranchParams(transforms, rng.normal(scale=attention_scale, size=d))


def constant_branch(dims: dict[str, int], d: int, bias) -> LaffBranchParams:
    """A branch whose fused output is tanh(bias) regardless of the input."""
    transforms = {
        name: LinearTanhParams(np.zeros((d, d_in)), np.asarray(bias, dtype=float))
        for name, d_in in dims.items()
    }
    return LaffBranchParams(transforms, np.zeros(d))


class TestLaffForward:
    def test_single_space_passthrough(self, rng):
        branch = make_branch({"a": 4}, 3, rng)
        bundle = random_bundle("x", {"a": 4}, rng)
        fused, weights = laff_forward(branch, bundle)
        np.testing.assert_array_equal(weights, [1.0])
        np.testing.assert_array_equal(fused, linear_tanh(branch.transforms["a"], bundle.features["a"]))

    def test_zero_attention_is_uniform(self, rng):
        branch = make_branch({"a": 4, "b": 2, "c": 3}, 5, rng)
        branch.attention[:] = 0.0
        _, weights = laff_forward(branch, random_bundle("x", {"a": 4, "b": 2, "c": 3}, rng))
        np.testing.assert_allclose(weights, [1 / 3] * 3, atol=1e-15)

    def test_hand_set_two_space_case(self):
        # d=1, k=2: e_a = tanh(0.5), e_b = tanh(-0.25), u = [2.0].
        pa = LinearTanhParams([[1.0]], [0.0])
        pb = LinearTanhParams([[0.5]], [0.0])
        branch = LaffBranchParams({"a": pa, "b": pb}, np.array([2.0]))
        bundle = FeatureBundle("x", {"a": np.array([0.5]), "b": np.array([-0.5])})
        e_a = math.tanh(0.5)
        e_b = math.tanh(-0.25)
        w = softmax([2.0 * e_a, 2.0 * e_b])
        expected = w[0] * e_a + w[1] * e_b
        fused, weights = laff_forward(branch, bundle)
        np.testing.assert_allclose(weights, w, atol=1e-15)
        assert fused[0] == pytest.approx(expected, abs=1e-15)

    def test_bundle_mismatch(self, rng):
        branch = make_branch({"a": 4, "b": 2}, 3, rng)
        with pytest.raises(BundleMismatchError, match="missing"):
            laff_forward(branch, random_bundle("x", {"a": 4}, rng))
        with pytest.raises(BundleMismatchError, match="extra"):
            laff_forward(branch, random_bundle("x", {"a": 4, "b": 2, "z": 3}, rng))

    def test_lengths_that_differ_across_bundles_rejected_naming_the_space(self, rng):
        branch = make_branch({"a": 4, "b": 2}, 3, rng)
        bundles = [random_bundle("x", {"a": 4, "b": 2}, rng), random_bundle("y", {"a": 4, "b": 3}, rng)]
        with pytest.raises(DimensionError) as exc:
            branch_tables(branch, bundles)
        assert str(exc.value) == "feature 'b' has different lengths across bundles"

    def test_weights_convex(self, rng):
        for _ in range(100):
            dims = {"a": 3, "b": 5, "c": 2}
            branch = make_branch(dims, 4, rng, attention_scale=2.0)
            _, weights = laff_forward(branch, random_bundle("x", dims, rng))
            assert np.all(weights > 0)
            assert abs(weights.sum() - 1.0) <= 1e-12

    def test_fused_in_convex_hull_of_transformed(self, rng):
        # Direct hull membership: find nonnegative lambdas summing to 1 that
        # reproduce the fused vector (nnls on the augmented system).
        from scipy.optimize import nnls

        for _ in range(20):
            k = int(rng.integers(1, 4))
            d = int(rng.integers(1, 4))
            dims = {f"s{i}": int(rng.integers(1, 4)) for i in range(k)}
            branch = make_branch(dims, d, rng, attention_scale=2.0)
            bundle = random_bundle("x", dims, rng)
            fused, _ = laff_forward(branch, bundle)
            e = np.stack(
                [linear_tanh(branch.transforms[s], bundle.features[s]) for s in branch.spaces]
            )
            a_mat = np.vstack([e.T, np.ones(k)])
            target = np.concatenate([fused, [1.0]])
            _, residual = nnls(a_mat, target)
            assert residual < 1e-9

    def test_slot_permutation_equivariance(self, rng):
        dims = {"zeta": 3, "alpha": 4, "mid": 2}
        branch = make_branch(dims, 4, rng)
        bundle = random_bundle("x", dims, rng)
        # Same parameters and features, assembled in a different order.
        names = ["mid", "zeta", "alpha"]
        branch2 = LaffBranchParams(
            {n: branch.transforms[n] for n in names}, branch.attention
        )
        bundle2 = FeatureBundle("x", {n: bundle.features[n] for n in names})
        f1, w1 = laff_forward(branch, bundle)
        f2, w2 = laff_forward(branch2, bundle2)
        np.testing.assert_array_equal(f1, f2)
        np.testing.assert_array_equal(w1, w2)


class TestLaffVjp:
    def test_zero_upstream(self, rng):
        dims = {"a": 3, "b": 2}
        branch = make_branch(dims, 4, rng)
        grads = laff_vjp(branch, random_bundle("x", dims, rng), np.zeros(4))
        assert not grads.d_attention.any()
        for name in dims:
            assert not grads.d_weight[name].any()
            assert not grads.d_bias[name].any()
            assert not grads.d_inputs[name].any()

    @staticmethod
    def _flat_check(branch, bundle, upstream, h=1e-5):
        """Finite-difference oracle over every parameter and input jointly."""
        spaces = branch.spaces
        sizes = []
        for s in spaces:
            p = branch.transforms[s]
            sizes.append(("w", s, p.weight.shape))
            sizes.append(("b", s, p.bias.shape))
        sizes.append(("u", None, branch.attention.shape))
        for s in spaces:
            sizes.append(("f", s, bundle.features[s].shape))

        def pack(br, bu):
            parts = []
            for kind, s, _ in sizes:
                if kind == "w":
                    parts.append(br.transforms[s].weight.ravel())
                elif kind == "b":
                    parts.append(br.transforms[s].bias)
                elif kind == "u":
                    parts.append(br.attention)
                else:
                    parts.append(bu.features[s])
            return np.concatenate(parts)

        def unpack(x):
            pos = 0
            transforms = {}
            feats = {}
            attention = None
            for kind, s, shape in sizes:
                n = int(np.prod(shape))
                chunk = x[pos : pos + n].reshape(shape)
                pos += n
                if kind == "w":
                    w = chunk
                elif kind == "b":
                    transforms[s] = LinearTanhParams(w, chunk)
                elif kind == "u":
                    attention = chunk
                else:
                    feats[s] = chunk
            return LaffBranchParams(transforms, attention), FeatureBundle("x", feats)

        x0 = pack(branch, bundle)

        def fun(x):
            br, bu = unpack(x)
            fused, _ = laff_forward(br, bu)
            return float(upstream @ fused)

        grads = laff_vjp(branch, bundle, upstream)
        # Flatten in pack order: w,b interleaved per space, then u, then inputs.
        parts = []
        for s in spaces:
            parts.append(grads.d_weight[s].ravel())
            parts.append(grads.d_bias[s])
        parts.append(grads.d_attention)
        for s in spaces:
            parts.append(grads.d_inputs[s])
        flat_grad = np.concatenate(parts)
        return grad_check(fun, lambda _: flat_grad, x0, h=h)

    def test_uniform_attention_still_couples_through_scores(self, rng):
        # u = 0 gives uniform weights, yet the score path must still be
        # present in the gradient; the FD oracle catches a missing term.
        dims = {"a": 3, "b": 3}
        branch = make_branch(dims, 4, rng)
        branch.attention[:] = 0.0
        bundle = random_bundle("x", dims, rng)
        assert self._flat_check(branch, bundle, rng.normal(size=4)) < 1e-5

    def test_random_instance_seed1(self):
        rng = np.random.default_rng(1)
        dims = {"a": 4, "b": 2, "c": 3}
        branch = make_branch(dims, 5, rng, attention_scale=1.0)
        bundle = random_bundle("x", dims, rng)
        assert self._flat_check(branch, bundle, rng.normal(size=5)) < 1e-5

    def test_100_random_seeds(self):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            k = int(rng.integers(1, 5))
            d = int(rng.integers(2, 9))
            dims = {f"s{i}": int(rng.integers(1, 7)) for i in range(k)}
            branch = make_branch(dims, d, rng, attention_scale=1.0)
            bundle = random_bundle("x", dims, rng)
            assert self._flat_check(branch, bundle, rng.normal(size=d)) < 1e-5


class TestSimilarity:
    def test_identical_constant_branches_give_one(self, rng):
        bias = rng.normal(size=3)
        head = LaffHead(
            constant_branch({"v": 4}, 3, bias), constant_branch({"t": 2}, 3, bias)
        )
        model = LaffModel([head])
        s = similarity(model, random_bundle("v1", {"v": 4}, rng), random_bundle("q1", {"t": 2}, rng))
        assert s == pytest.approx(1.0, abs=1e-12)

    def test_mean_of_heads(self, rng):
        # Head 1: identical constant outputs (cos 1); head 2: orthogonal (cos 0).
        b1 = np.array([0.7, 0.7])
        head1 = LaffHead(constant_branch({"v": 4}, 2, b1), constant_branch({"t": 2}, 2, b1))
        head2 = LaffHead(
            constant_branch({"v": 4}, 2, [0.9, 0.0]),
            constant_branch({"t": 2}, 2, [0.0, 0.9]),
        )
        model = LaffModel([head1, head2])
        s = similarity(model, random_bundle("v1", {"v": 4}, rng), random_bundle("q1", {"t": 2}, rng))
        assert s == pytest.approx(0.5, abs=1e-12)

    def test_matches_per_head_loop(self):
        from per_item_oracle import cosine_sim

        rng = np.random.default_rng(2)
        vdims, tdims = {"a": 5, "b": 3}, {"t": 4, "u": 2}
        model = randomized_model(vdims, tdims, d=6, heads=3, seed=2)
        video = random_bundle("v", vdims, rng)
        text = random_bundle("q", tdims, rng)
        expected = 0.0
        for head in model.heads:
            expected += cosine_sim(
                laff_forward(head.video, video)[0], laff_forward(head.text, text)[0]
            )
        expected /= model.h
        assert similarity(model, video, text) == pytest.approx(expected, abs=1e-15)

    def test_in_unit_range(self, rng):
        vdims, tdims = {"a": 5}, {"t": 4}
        model = randomized_model(vdims, tdims, d=4, heads=2, seed=3)
        for _ in range(50):
            s = similarity(model, random_bundle("v", vdims, rng), random_bundle("q", tdims, rng))
            assert -1.0 <= s <= 1.0

    def test_cosine_level_scale_invariance(self, rng):
        # Scaling both fused vectors of every head by the same positive
        # constant leaves each head's cosine, hence the mean, unchanged.
        from per_item_oracle import cosine_sim

        vdims, tdims = {"a": 4}, {"t": 3}
        model = randomized_model(vdims, tdims, d=5, heads=2, seed=4)
        video = random_bundle("v", vdims, rng)
        text = random_bundle("q", tdims, rng)
        scaled_mean = 0.0
        for head in model.heads:
            v = laff_forward(head.video, video)[0]
            t = laff_forward(head.text, text)[0]
            scaled_mean += cosine_sim(3.7 * v, 3.7 * t)
        scaled_mean /= model.h
        assert similarity(model, video, text) == pytest.approx(scaled_mean, abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            vdims = {"a": 3, "b": 2}
            tdims = {"t": 3}
            model = randomized_model(vdims, tdims, d=4, heads=2, seed=seed)
            video = random_bundle("v", vdims, rng)
            text = random_bundle("q", tdims, rng)
            _, grad = similarity_with_grad(model, video, text)

            def fun(x):
                return similarity(model.with_vector(x), video, text)

            assert grad_check(fun, lambda _: grad, model.to_vector()) < 1e-5

    @pytest.mark.parametrize("heads", [1, 2, 3])
    def test_gradient_value_is_similarity_bit_for_bit(self, heads):
        rng = np.random.default_rng(heads)
        vdims, tdims = {"a": 3, "b": 2}, {"t": 4}
        model = randomized_model(vdims, tdims, d=5, heads=heads, seed=heads)
        for _ in range(20):
            video = random_bundle("v", vdims, rng)
            text = random_bundle("q", tdims, rng)
            value, _ = similarity_with_grad(model, video, text)
            assert value.hex() == similarity(model, video, text).hex()

    def test_zero_text_embedding_gives_its_head_no_gradient(self, rng):
        vdims, tdims = {"a": 3, "b": 2}, {"t": 4, "u": 2}
        model = randomized_model(vdims, tdims, d=4, heads=2, seed=8)
        for p in model.heads[1].text.transforms.values():
            p.weight, p.bias = np.zeros_like(p.weight), np.zeros_like(p.bias)
        video = random_bundle("v", vdims, rng)
        text = random_bundle("q", tdims, rng)
        with pytest.warns(DegenerateSimilarityWarning) as record:
            _, grad = similarity_with_grad(model, video, text)
        assert len(record) == 1
        head0, head1 = model.on_vector(grad).heads
        assert all(g.any() for _, g in named_parameters([head0]))
        assert not any(g.any() for _, g in named_parameters([head1]))


class TestTextTextSimilarity:
    def test_same_sentence_is_one(self, rng):
        model = randomized_model({"a": 3}, {"t": 4}, d=5, heads=2, seed=5)
        q = random_bundle("q", {"t": 4}, rng)
        assert text_text_similarity(model, q, q) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_construction_is_zero(self, rng):
        # One head whose text branch saturates two different inputs onto
        # orthogonal axes: transform is linear in the lone feature value.
        p = LinearTanhParams(np.array([[5.0], [0.0]]), np.zeros(2))
        p2 = LinearTanhParams(np.array([[0.0], [5.0]]), np.zeros(2))
        # Craft per-sentence spaces is not possible (shared params), so use
        # inputs that land on different axes through one transform instead.
        pt = LinearTanhParams(np.array([[5.0, 0.0], [0.0, 5.0]]), np.zeros(2))
        branch_t = LaffBranchParams({"t": pt}, np.zeros(2))
        branch_v = constant_branch({"v": 2}, 2, [0.5, 0.5])
        model = LaffModel([LaffHead(branch_v, branch_t)])
        q1 = FeatureBundle("q1", {"t": np.array([1.0, 0.0])})
        q2 = FeatureBundle("q2", {"t": np.array([0.0, 1.0])})
        assert text_text_similarity(model, q1, q2) == pytest.approx(0.0, abs=1e-12)

    def test_matches_per_head_loop(self):
        from per_item_oracle import cosine_sim

        rng = np.random.default_rng(6)
        tdims = {"t": 4, "u": 3}
        model = randomized_model({"a": 3}, tdims, d=5, heads=3, seed=6)
        q1 = random_bundle("q1", tdims, rng)
        q2 = random_bundle("q2", tdims, rng)
        expected = np.mean(
            [
                cosine_sim(
                    laff_forward(h.text, q1)[0], laff_forward(h.text, q2)[0]
                )
                for h in model.heads
            ]
        )
        assert text_text_similarity(model, q1, q2) == pytest.approx(float(expected), abs=1e-15)


class TestFeatureImportance:
    def test_single_space(self, rng):
        model = randomized_model({"a": 3}, {"t": 2}, d=4, heads=2, seed=7)
        bundles = [random_bundle(f"v{i}", {"a": 3}, rng) for i in range(5)]
        assert feature_importance(model, bundles, "video") == [("a", 1.0)]

    def test_zero_attention_uniform(self, rng):
        vdims = {"a": 3, "b": 2, "c": 4}
        model = init_model(vdims, {"t": 2}, d=4, heads=2, seed=8)  # u = 0 at init
        bundles = [random_bundle(f"v{i}", vdims, rng) for i in range(4)]
        ranked = feature_importance(model, bundles, "video")
        for _, w in ranked:
            assert w == pytest.approx(1 / 3, abs=1e-12)

    def test_matches_bruteforce_accumulation(self, rng):
        vdims = {"a": 3, "b": 5}
        model = randomized_model(vdims, {"t": 2}, d=4, heads=3, seed=9)
        bundles = [random_bundle(f"v{i}", vdims, rng) for i in range(6)]
        acc = {name: 0.0 for name in model.video_spaces}
        for b in bundles:
            for head in model.heads:
                _, w = laff_forward(head.video, b)
                for name, wi in zip(head.video.spaces, w):
                    acc[name] += wi
        total = len(bundles) * model.h
        expected = sorted(
            ((n, v / total) for n, v in acc.items()), key=lambda kv: (-kv[1], kv[0])
        )
        got = feature_importance(model, bundles, "video")
        assert [n for n, _ in got] == [n for n, _ in expected]
        for (_, a), (_, b2) in zip(got, expected):
            assert a == pytest.approx(b2, abs=1e-12)

    def test_means_sum_to_one(self, rng):
        vdims = {"a": 3, "b": 5, "c": 2}
        model = randomized_model(vdims, {"t": 2}, d=4, heads=2, seed=10)
        bundles = [random_bundle(f"v{i}", vdims, rng) for i in range(7)]
        total = sum(w for _, w in feature_importance(model, bundles, "video"))
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_empty_dataset_rejected(self):
        model = randomized_model({"a": 3}, {"t": 2}, d=4, heads=1, seed=11)
        with pytest.raises(ValueError, match="nonempty"):
            feature_importance(model, [], "video")

    def test_bad_branch_name(self, rng):
        model = randomized_model({"a": 3}, {"t": 2}, d=4, heads=1, seed=12)
        with pytest.raises(ValueError, match="branch"):
            feature_importance(model, [random_bundle("v", {"a": 3}, rng)], "frames")


class TestModelStructure:
    def test_vector_roundtrip(self):
        model = randomized_model({"a": 3, "b": 2}, {"t": 4}, d=5, heads=2, seed=13)
        vec = model.to_vector()
        rebuilt = model.with_vector(vec)
        np.testing.assert_array_equal(rebuilt.to_vector(), vec)

    def test_with_vector_length_checked(self):
        model = randomized_model({"a": 3}, {"t": 2}, d=4, heads=1, seed=14)
        with pytest.raises(DimensionError):
            model.with_vector(np.zeros(model.n_params() + 1))
        with pytest.raises(DimensionError):
            model.with_vector(np.zeros(model.n_params() - 1))

    def test_vectors_in_and_out_are_copies(self):
        model = randomized_model({"a": 3, "b": 2}, {"t": 4}, d=5, heads=2, seed=16)
        before = model.to_vector()
        vec = model.to_vector()
        rebuilt = model.with_vector(vec)
        vec[:] = 7.0
        model.to_vector()[:] = 8.0
        rebuilt.to_vector()[:] = 9.0
        for m in (model, rebuilt):
            np.testing.assert_array_equal(m.to_vector(), before)
            np.testing.assert_array_equal(m.params, before)

    def test_parameters_are_views_of_one_buffer(self):
        model = randomized_model({"a": 3, "b": 2}, {"t": 4}, d=5, heads=2, seed=17)
        copy = LaffModel(model.heads)
        for m in (model, copy):
            for head in m.heads:
                for branch in (head.video, head.text):
                    assert np.shares_memory(branch.attention, m.params)
                    for p in branch.transforms.values():
                        assert np.shares_memory(p.weight, m.params)
                        assert np.shares_memory(p.bias, m.params)
        assert not np.shares_memory(model.params, copy.params)
        np.testing.assert_array_equal(copy.params, model.to_vector())
        model.params[:] = 0.0
        assert not model.heads[1].text.transforms["t"].weight.any()
        assert copy.params.any()

    @pytest.mark.parametrize(
        "make",
        [
            lambda n: np.zeros(n, dtype=np.float32),
            lambda n: np.frombuffer(bytes(8 * n)),
            lambda n: np.zeros(2 * n)[::2],
            lambda n: np.zeros((1, n)),
            lambda n: np.zeros(n + 1),
            lambda n: np.zeros(n - 1),
            lambda n: list(np.zeros(n)),
        ],
        ids=["float32", "read-only", "strided", "2-D", "long", "short", "list"],
    )
    def test_from_params_refuses_what_it_cannot_view(self, make):
        vdims, tdims = {"a": 3, "b": 2}, {"t": 4}
        n = param_count(vdims, tdims, 5, 2)
        with pytest.raises(DimensionError):
            LaffModel.from_params(make(n), vdims, tdims, 5, 2)
        LaffModel.from_params(np.zeros(n), vdims, tdims, 5, 2)

    def test_checkpoint_load_builds_on_the_vector_it_read(self, tmp_path, monkeypatch):
        from avsearch import featio

        model = randomized_model({"a": 3, "b": 2}, {"t": 4}, d=5, heads=2, seed=19)
        featio.checkpoint_save(model, tmp_path / "m.ckpt")
        read = []
        real = featio._Reader.read_array

        def spy(self, *args):
            read.append(real(self, *args))
            return read[-1]

        monkeypatch.setattr(featio._Reader, "read_array", spy)
        loaded = featio.checkpoint_load(tmp_path / "m.ckpt")
        assert len(read) == 1 and loaded.params is read[0]
        np.testing.assert_array_equal(loaded.params, model.params)

    @pytest.mark.parametrize("convert", [list, lambda v: v.astype(np.float32), np.asarray])
    def test_with_vector_copies_any_vector(self, convert):
        model = randomized_model({"a": 3, "b": 2}, {"t": 4}, d=5, heads=2, seed=20)
        vec = convert(model.to_vector())
        rebuilt = model.with_vector(vec)
        assert rebuilt.params.dtype == np.float64
        np.testing.assert_array_equal(rebuilt.params, np.asarray(vec, dtype=np.float64))
        if isinstance(vec, np.ndarray):
            assert not np.shares_memory(rebuilt.params, vec)

    def test_init_bounds_and_zeros(self):
        model = init_model({"a": 9}, {"t": 4}, d=6, heads=2, seed=15)
        for head in model.heads:
            for branch in (head.video, head.text):
                assert not branch.attention.any()
                for name, p in branch.transforms.items():
                    assert not p.bias.any()
                    bound = 1.0 / math.sqrt(p.in_dim)
                    assert np.all(np.abs(p.weight) <= bound)

    @pytest.mark.parametrize("seed", [0, 7])
    def test_init_draws_each_weight_as_one_uniform_call(self, seed):
        # Odd shapes: the in-place draw must take the same stream, in the
        # same order, and round as rng.uniform(-bound, bound, size) does.
        video, text = {"b": 13, "a": 7, "c": 1}, {"t": 5, "s": 11}
        model = init_model(video, text, d=3, heads=2, seed=seed)
        rng = np.random.default_rng(seed)
        want = LaffModel.from_params(np.zeros(model.n_params()), video, text, d=3, heads=2)
        for head in want.heads:
            for branch in (head.video, head.text):
                for name in branch.spaces:
                    weight = branch.transforms[name].weight
                    bound = 1.0 / np.sqrt(weight.shape[1])
                    weight[...] = rng.uniform(-bound, bound, size=weight.shape)
        assert model.params.tobytes() == want.params.tobytes()

    @pytest.mark.parametrize("seed", [0, 11])
    def test_init_equals_the_explicit_triple_loop(self, seed):
        video, text = {"b": 13, "a": 7, "c": 1}, {"t": 5, "s": 11}
        got = init_model(video, text, d=3, heads=3, seed=seed)
        want = oracle.init_model(video, text, d=3, heads=3, seed=seed)
        assert got.params.tobytes() == want.params.tobytes()

    def test_mismatched_heads_rejected(self, rng):
        h1 = LaffHead(make_branch({"a": 3}, 4, rng), make_branch({"t": 2}, 4, rng))
        h2 = LaffHead(make_branch({"a": 3}, 5, rng), make_branch({"t": 2}, 5, rng))
        with pytest.raises(DimensionError):
            LaffModel([h1, h2])

    def test_branch_dim_consistency_enforced(self, rng):
        with pytest.raises(DimensionError):
            LaffHead(make_branch({"a": 3}, 4, rng), make_branch({"t": 2}, 3, rng))
        with pytest.raises(DimensionError):
            LaffBranchParams(
                {"a": LinearTanhParams(np.zeros((3, 2)), np.zeros(3))}, np.zeros(4)
            )


def delete_space_a(branch):
    del branch.transforms["a"]


def assert_views_of_params(model):
    for place, array in named_parameters(model.heads):
        assert np.shares_memory(array, model.params), place


class TestAssignment:
    """Assigning a branch's transform or attention vector writes into the
    arrays already there, so a model's arrays stay views of its params."""

    def make_model(self):
        return randomized_model({"a": 3, "b": 2}, {"t": 4}, d=5, heads=2, seed=21)

    def test_assignment_writes_into_params(self, rng):
        model = self.make_model()
        params = model.params
        before = params.copy()
        weight, bias = rng.normal(size=(5, 2)), rng.normal(size=5)
        attention = rng.normal(size=5).astype(np.float32)
        other_bias = rng.normal(size=5)
        model.heads[1].video.transforms["b"] = LinearTanhParams(weight, bias)
        model.heads[0].text.attention = attention
        model.heads[0].video.transforms["a"].bias = other_bias
        assert model.params is params
        assert_views_of_params(model)
        rebuilt = model.with_vector(params)
        p = rebuilt.heads[1].video.transforms["b"]
        np.testing.assert_array_equal(p.weight, weight)
        np.testing.assert_array_equal(p.bias, bias)
        np.testing.assert_array_equal(rebuilt.heads[0].text.attention, attention)
        np.testing.assert_array_equal(rebuilt.heads[0].video.transforms["a"].bias, other_bias)
        # Nothing else moved.
        assigned = weight.size + bias.size + attention.size + other_bias.size
        assert np.count_nonzero(params != before) == assigned

    def test_assignment_to_a_branch_outside_a_model(self, rng):
        branch = make_branch({"a": 3, "b": 2}, 4, rng)
        weight, attention = branch.transforms["a"].weight, branch.attention
        branch.transforms["a"] = LinearTanhParams(np.ones((4, 3)), np.zeros(4))
        branch.attention = [1.0, 2.0, 3.0, 4.0]
        assert branch.transforms["a"].weight is weight and branch.attention is attention
        assert (weight == 1.0).all() and attention.tolist() == [1.0, 2.0, 3.0, 4.0]

    @pytest.mark.parametrize("assign, error", [
        (lambda b: setattr(b, "attention", np.ones(4)), DimensionError),
        (lambda b: b.transforms.__setitem__("a", LinearTanhParams(np.ones((5, 4)), np.ones(5))),
         DimensionError),
        (lambda b: b.transforms.__setitem__("c", LinearTanhParams(np.ones((5, 3)), np.ones(5))),
         DimensionError),
        (lambda b: b.transforms.pop("a"), AttributeError),
        (delete_space_a, AttributeError),
        (lambda b: b.transforms.update(a=LinearTanhParams(np.ones((5, 3)), np.ones(5))),
         AttributeError),
        (lambda b: setattr(b.transforms["a"], "weight", np.ones((5, 2))), DimensionError),
        (lambda b: setattr(b, "transforms", {}), AttributeError),
    ], ids=["attention shape", "transform shape", "unknown space", "pop", "del", "update",
            "weight shape", "rebind"])
    def test_refused_assignment_leaves_params(self, assign, error):
        model = self.make_model()
        before = model.params.tobytes()
        with pytest.raises(error):
            assign(model.heads[1].video)
        assert model.params.tobytes() == before
        assert model.heads[1].video.spaces == ("a", "b")
        assert_views_of_params(model)

    @pytest.mark.parametrize("rebind, error", [
        (lambda m, b: setattr(m.heads[0], "video", b), AttributeError),
        (lambda m, b: operator.setitem(m.heads, 0, LaffHead(b, m.heads[0].text)), TypeError),
        (lambda m, b: setattr(m, "heads", (LaffHead(b, m.heads[0].text),)), AttributeError),
        (lambda m, b: setattr(m, "params", m.params.copy()), AttributeError),
    ], ids=["branch", "head", "heads", "params"])
    def test_model_structure_cannot_be_rebound(self, rng, rebind, error):
        model = self.make_model()
        params = model.params
        with pytest.raises(error):
            rebind(model, make_branch({"a": 3, "b": 2}, 5, rng))
        assert model.params is params
        assert_views_of_params(model)
