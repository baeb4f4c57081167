import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from per_item_oracle import cosine_sim as oracle_cosine_sim
from per_item_oracle import cosine_sim_vjp
from avsearch.errors import DegenerateSimilarityWarning, DimensionError
from avsearch.numeric import (
    GradientCheckError,
    LinearTanhParams,
    cosine_sim,
    grad_check,
    linear_tanh,
    linear_tanh_vjp,
    softmax,
)

finite_floats = st.floats(-100, 100, allow_nan=False, allow_infinity=False)


@st.composite
def cosine_operands(draw):
    """Two vectors of one length (0 to 6) and one dtype (float32 or
    float64): all zeros, or entries that are zeros of either sign, NaN,
    infinities or any other float of that width."""
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    n = draw(st.integers(0, 6))
    elements = st.one_of(
        st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]),
        st.floats(width=np.finfo(dtype).bits),
    )
    vector = st.one_of(st.just(np.zeros(n, dtype)), arrays(dtype, n, elements=elements))
    return draw(vector), draw(vector)


class TestLinearTanh:
    def test_zero_params_give_zero_output(self):
        p = LinearTanhParams(np.zeros((3, 2)), np.zeros(3))
        np.testing.assert_array_equal(linear_tanh(p, [1.5, -2.0]), np.zeros(3))

    def test_identity_on_zero_input(self):
        p = LinearTanhParams(np.eye(4), np.zeros(4))
        np.testing.assert_array_equal(linear_tanh(p, np.zeros(4)), np.zeros(4))

    def test_hand_evaluated_scalar(self):
        # tanh(1 * 0.5 + 0.5) = tanh(1.0)
        p = LinearTanhParams([[1.0]], [0.5])
        out = linear_tanh(p, [0.5])
        assert out[0] == pytest.approx(math.tanh(1.0), abs=1e-12)
        assert out[0] == pytest.approx(0.761594, abs=1e-6)

    def test_shape_mismatch(self):
        p = LinearTanhParams(np.zeros((3, 2)), np.zeros(3))
        with pytest.raises(DimensionError):
            linear_tanh(p, np.zeros(3))

    def test_invalid_params(self):
        with pytest.raises(DimensionError):
            LinearTanhParams(np.zeros((3, 2)), np.zeros(2))
        with pytest.raises(DimensionError):
            LinearTanhParams(np.zeros((0, 2)), np.zeros(0))

    def test_output_strictly_inside_unit_interval(self, rng):
        # float64 tanh saturates to exactly +-1 beyond |z| ~ 19; test the
        # representable range.
        for _ in range(50):
            p = LinearTanhParams(rng.normal(size=(4, 3)), rng.normal(size=4))
            out = linear_tanh(p, rng.normal(size=3))
            assert np.all(out > -1.0) and np.all(out < 1.0)


class TestLinearTanhVjp:
    def test_zero_upstream_gives_zero_grads(self, rng):
        p = LinearTanhParams(rng.normal(size=(3, 2)), rng.normal(size=3))
        dw, db, df = linear_tanh_vjp(p, rng.normal(size=2), np.zeros(3))
        assert not dw.any() and not db.any() and not df.any()

    def test_hand_chain_rule(self):
        # W=0, b=0, f=1: e=0, tanh'(0)=1, so dW = upstream * f, db = upstream, df = 0.
        p = LinearTanhParams([[0.0]], [0.0])
        dw, db, df = linear_tanh_vjp(p, [1.0], [1.0])
        np.testing.assert_array_equal(dw, [[1.0]])
        np.testing.assert_array_equal(db, [1.0])
        np.testing.assert_array_equal(df, [0.0])

    def test_upstream_shape_mismatch(self, rng):
        p = LinearTanhParams(rng.normal(size=(3, 2)), rng.normal(size=3))
        with pytest.raises(DimensionError):
            linear_tanh_vjp(p, rng.normal(size=2), np.zeros(2))

    def test_matches_finite_differences_on_100_instances(self):
        # Invariant: rel err < 1e-6 at h = 1e-5, checked for W, b and f jointly.
        # Moderate scales keep tanh away from saturation, where near-zero
        # gradients would drown the finite difference in rounding noise.
        for seed in range(100):
            rng = np.random.default_rng(seed)
            d = int(rng.integers(1, 6))
            d_in = int(rng.integers(1, 6))
            w = rng.normal(scale=0.5, size=(d, d_in))
            b = rng.normal(scale=0.5, size=d)
            f = rng.normal(scale=0.5, size=d_in)
            upstream = rng.normal(size=d)
            x0 = np.concatenate([w.ravel(), b, f])

            def unpack(x):
                wi = x[: d * d_in].reshape(d, d_in)
                bi = x[d * d_in : d * d_in + d]
                fi = x[d * d_in + d :]
                return LinearTanhParams(wi, bi), fi

            def fun(x):
                p, fi = unpack(x)
                return float(upstream @ linear_tanh(p, fi))

            def grad(x):
                p, fi = unpack(x)
                dw, db, df = linear_tanh_vjp(p, fi, upstream)
                return np.concatenate([dw.ravel(), db, df])

            assert grad_check(fun, grad, x0, h=1e-5) < 1e-6


class TestSoftmax:
    def test_symmetric_pair(self):
        np.testing.assert_allclose(softmax([0.0, 0.0]), [0.5, 0.5], atol=1e-15)

    def test_singleton_is_one(self):
        for x in (-50.0, 0.0, 3.7, 80.0):
            np.testing.assert_array_equal(softmax([x]), [1.0])

    def test_hand_evaluated_log_ratios(self):
        out = softmax([math.log(1.0), math.log(3.0)])
        np.testing.assert_allclose(out, [0.25, 0.75], atol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(DimensionError):
            softmax([])

    @given(arrays(np.float64, st.integers(1, 8), elements=finite_floats))
    def test_sums_to_one_and_positive(self, scores):
        out = softmax(scores)
        assert np.all(out > 0)
        assert abs(out.sum() - 1.0) <= 1e-12

    @given(
        arrays(np.float64, st.integers(1, 8), elements=finite_floats),
        st.floats(-50, 50, allow_nan=False),
    )
    def test_shift_invariance(self, scores, c):
        np.testing.assert_allclose(softmax(scores), softmax(scores + c), atol=1e-12)


class TestCosineSim:
    def test_self_similarity_is_one(self, rng):
        u = rng.normal(size=5)
        assert cosine_sim(u, u) == 1.0

    def test_orthogonal_is_zero(self):
        assert cosine_sim([1.0, 0.0], [0.0, 2.0]) == 0.0

    def test_hand_evaluated(self):
        assert cosine_sim([1.0, 0.0], [1.0, 1.0]) == pytest.approx(1 / math.sqrt(2), abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            cosine_sim([1.0, 0.0], [1.0])

    def test_zero_vector_flagged(self):
        with pytest.warns(DegenerateSimilarityWarning):
            assert cosine_sim([0.0, 0.0], [1.0, 2.0]) == 0.0

    @given(
        arrays(np.float64, 4, elements=st.floats(-10, 10, allow_nan=False)),
        arrays(np.float64, 4, elements=st.floats(-10, 10, allow_nan=False)),
    )
    def test_symmetry(self, u, v):
        # Subnormal entries can underflow the squared norm to zero; stay in
        # the non-degenerate regime.
        if np.linalg.norm(u) < 1e-6 or np.linalg.norm(v) < 1e-6:
            return
        assert cosine_sim(u, v) == cosine_sim(v, u)

    @given(
        arrays(np.float64, 3, elements=st.floats(-10, 10, allow_nan=False)),
        arrays(np.float64, 3, elements=st.floats(-10, 10, allow_nan=False)),
        st.floats(0.01, 100.0),
    )
    def test_positive_scale_invariance(self, u, v, c):
        if np.linalg.norm(u) < 1e-6 or np.linalg.norm(v) < 1e-6:
            return
        assert cosine_sim(c * u, v) == pytest.approx(cosine_sim(u, v), abs=1e-9)

    @given(cosine_operands())
    def test_matches_scalar_oracle(self, operands):
        # The one-row call of row_cosines against the scalar formula: the
        # same bits, and warnings of the same categories.
        def outcome(cosine):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                value = cosine(*operands)
            return type(value), struct.pack("<d", value), [w.category for w in caught]

        assert outcome(cosine_sim) == outcome(oracle_cosine_sim)

    def test_bounded(self, rng):
        for _ in range(100):
            u = rng.normal(size=6)
            v = rng.normal(size=6)
            assert -1.0 <= cosine_sim(u, v) <= 1.0

    def test_vjp_matches_finite_differences_on_100_instances(self):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 6))
            x0 = rng.normal(size=2 * n)

            def fun(x):
                return cosine_sim(x[:n], x[n:])

            def grad(x):
                du, dv = cosine_sim_vjp(x[:n], x[n:], 1.0)
                return np.concatenate([du, dv])

            assert grad_check(fun, grad, x0, h=1e-5) < 1e-6


class TestGradCheck:
    def test_quadratic(self):
        err = grad_check(lambda x: float(x[0] ** 2), lambda x: np.array([2 * x[0]]), np.array([3.0]))
        assert err < 1e-9

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            grad_check(lambda x: float("nan"), lambda x: np.zeros(1), np.array([1.0]))

    def test_tolerance_raises(self):
        with pytest.raises(GradientCheckError):
            grad_check(
                lambda x: float(x[0] ** 2),
                lambda x: np.array([5.0]),  # wrong on purpose
                np.array([3.0]),
                tol=1e-4,
            )

    def test_accepts_matrix_shaped_params(self):
        x0 = np.array([[1.0, 2.0], [3.0, 4.0]])
        err = grad_check(lambda x: float((x**2).sum()), lambda x: 2 * x, x0)
        assert err < 1e-8

    def test_bad_h(self):
        with pytest.raises(ValueError):
            grad_check(lambda x: 0.0, lambda x: np.zeros(1), np.zeros(1), h=0.0)
