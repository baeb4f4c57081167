"""Dense float64 primitives: linear+tanh layer, softmax, cosine similarity
(row by row, and one pair as a one-row call), the vector-Jacobian products
of linear+tanh and of the row cosines, and a central finite-difference
gradient checker.

Everything here is a pure function over numpy float64 arrays. Vectors are
1-D arrays, matrices are 2-D row-major arrays. Feature files store 32-bit
floats, and features stay 32-bit in memory (`as_features`); they are
widened to 64-bit wherever they are computed on, so gradient checks have
enough headroom.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSimilarityWarning, DimensionError


def as_vector(x, name: str = "vector") -> np.ndarray:
    """Coerce to a 1-D float64 array, rejecting anything else."""
    return as_features(np.asarray(x, dtype=np.float64), 1, name)


def as_features(x, ndim: int, name: str) -> np.ndarray:
    """Coerce feature values to an ndim-D array, rejecting anything else.

    A float32 or float64 ndarray is returned as given, without a copy, so
    features keep the precision they were stored at; anything else becomes
    float64. Code that computes on features widens them to float64 itself.
    """
    if not (isinstance(x, np.ndarray) and x.dtype in (np.float32, np.float64)):
        x = np.asarray(x, dtype=np.float64)
    if x.ndim != ndim:
        raise DimensionError(f"{name} must be {ndim}-D, got shape {x.shape}")
    return x


@dataclass
class LinearTanhParams:
    """Weights of one fully connected layer followed by tanh.

    weight has shape (d, d_in), bias has shape (d,). Assigning either after
    construction writes into the array already there, and another shape is
    a DimensionError, so arrays that view a model's `params` stay views.
    """

    weight: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "weight", np.asarray(self.weight, dtype=np.float64))
        object.__setattr__(self, "bias", np.asarray(self.bias, dtype=np.float64))
        if self.weight.ndim != 2:
            raise DimensionError(f"weight must be 2-D, got shape {self.weight.shape}")
        if self.bias.ndim != 1:
            raise DimensionError(f"bias must be 1-D, got shape {self.bias.shape}")
        d, d_in = self.weight.shape
        if d < 1 or d_in < 1:
            raise DimensionError(f"weight dims must be >= 1, got {self.weight.shape}")
        if self.bias.shape[0] != d:
            raise DimensionError(
                f"bias length {self.bias.shape[0]} does not match weight rows {d}"
            )

    def __setattr__(self, name: str, value) -> None:
        held = self.__dict__.get(name)
        if held is None:  # the first assignment, by __init__
            return object.__setattr__(self, name, value)
        value = np.asarray(value, dtype=np.float64)
        if value.shape != held.shape:
            raise DimensionError(f"{name} has shape {held.shape}, got {value.shape}")
        held[...] = value

    @property
    def out_dim(self) -> int:
        return self.weight.shape[0]

    @property
    def in_dim(self) -> int:
        return self.weight.shape[1]


def linear_tanh(params: LinearTanhParams, f: np.ndarray) -> np.ndarray:
    """tanh(W f + b). Every output component is strictly inside (-1, 1)."""
    f = as_vector(f, "input")
    if f.shape[0] != params.in_dim:
        raise DimensionError(
            f"input length {f.shape[0]} does not match weight columns {params.in_dim}"
        )
    return np.tanh(params.weight @ f + params.bias)


def linear_tanh_vjp(
    params: LinearTanhParams, f: np.ndarray, upstream: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients (dW, db, df) of a scalar loss given upstream = dL/d(output).

    The tanh chain rule uses 1 - e^2 with e the forward output.
    """
    f = as_vector(f, "input")
    e = linear_tanh(params, f)
    upstream = as_vector(upstream, "upstream")
    if upstream.shape != e.shape:
        raise DimensionError(
            f"upstream shape {upstream.shape} does not match output shape {e.shape}"
        )
    dz = upstream * (1.0 - e * e)
    d_weight = np.outer(dz, f)
    d_bias = dz
    d_input = params.weight.T @ dz
    return d_weight, d_bias, d_input


def softmax(scores) -> np.ndarray:
    """Numerically stable softmax of a nonempty score vector.

    Outputs are positive and sum to 1 (max-subtraction keeps exp in range).
    """
    s = as_vector(scores, "scores")
    if s.size == 0:
        raise DimensionError("softmax of an empty vector is undefined")
    z = np.exp(s - s.max())
    return z / z.sum()


def cosine_sim(u, v) -> float:
    """u.v / (|u||v|): `row_cosines` of the one-row table u against v,
    under its rules (clipped to [-1, 1] with NaN kept, 0.0 and a
    DegenerateSimilarityWarning for a zero-norm operand).
    """
    u = as_vector(u, "u")
    v = as_vector(v, "v")
    if u.shape != v.shape:
        raise DimensionError(f"length mismatch: {u.shape[0]} vs {v.shape[0]}")
    return float(row_cosines(u[None], v)[0])


def row_cosines(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The cosine a_i.b_i / (|a_i||b_i|) of each row of the (n, dim) table a
    with the same row of b, or with b itself when b is a vector, clipped to
    [-1, 1] with NaN kept. A zero-norm operand yields 0.0 and one
    DegenerateSimilarityWarning per call: zero embeddings can transiently
    occur during training and must not abort it.

    Dot products and norms are stacked per-row products, so each entry
    rounds like a one-pair `u @ v` over `np.linalg.norm`s (a GEMV, `einsum`
    or `norm(axis=1)` does not), and does not depend on the other rows.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim not in (1, 2):
        raise DimensionError(
            f"need a 2-D table and a 1-D or 2-D operand, got {a.shape} and {b.shape}"
        )
    if b.shape[-1] != a.shape[1] or (b.ndim == 2 and b.shape[0] != a.shape[0]):
        raise DimensionError(f"shape mismatch: {a.shape} vs {b.shape}")
    na = np.sqrt((a[:, None, :] @ a[:, :, None])[:, 0, 0])
    nb = np.sqrt((b[..., None, :] @ b[..., :, None])[..., 0, 0])
    zero = (na == 0.0) | (nb == 0.0)
    rows = slice(None)
    if zero.any():
        warnings.warn(
            "cosine similarity of a zero vector; returning 0.0",
            DegenerateSimilarityWarning,
            stacklevel=2,
        )
        # A zero-norm pair takes no dot product, which could be 0 * inf
        # (NaN, and a RuntimeWarning).
        rows = ~zero
    a, na = a[rows], na[rows]
    if b.ndim == 2:
        b, nb = b[rows], nb[rows]
    dots = (a[:, None, :] @ b[..., :, None])[:, 0, 0]
    c = np.zeros(len(zero))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        c[rows] = dots / (na * nb)
    # np.clip keeps NaN.
    return np.clip(c, -1.0, 1.0)


def unit_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(x with rows scaled to unit norm, row norms, zero-norm row mask).

    A zero row stays zero and its norm is reported as 1.0, so dividing by
    the norms is always safe; a NaN row stays NaN.
    """
    norms = np.linalg.norm(x, axis=1)
    zero = norms == 0.0
    norms[zero] = 1.0
    return x / norms[:, None], norms, zero


def cosine_rows_vjp(a, na, b, nb, g):
    """Gradients w.r.t. the raw rows of sum_i g_i cos(a_i, b_i), given the
    unit rows a, b, their norms and the (unclipped) cosine's upstream g."""
    c = np.sum(a * b, axis=1, keepdims=True)
    g = g[:, None]
    return g * (b - c * a) / na[:, None], g * (a - c * b) / nb[:, None]


class GradientCheckError(AssertionError):
    """Raised by grad_check when a tolerance is given and exceeded."""


def grad_check(f, grad, x, h: float = 1e-5, tol: float | None = None) -> float:
    """Compare an analytic gradient against central finite differences.

    f maps an array (any shape) to a finite scalar; grad maps the same array
    to the analytic gradient of matching shape. Each component i is checked
    against (f(x + h e_i) - f(x - h e_i)) / 2h; the returned value is the
    maximum relative error with denominator max(|analytic|, |numeric|, 1e-8).
    If tol is given and exceeded, GradientCheckError is raised.
    """
    if h <= 0:
        raise ValueError(f"h must be positive, got {h}")
    x = np.asarray(x, dtype=np.float64)
    analytic = np.asarray(grad(x), dtype=np.float64)
    if analytic.shape != x.shape:
        raise DimensionError(
            f"analytic gradient shape {analytic.shape} does not match x {x.shape}"
        )
    flat = x.ravel()
    numeric = np.empty_like(flat)
    for i in range(flat.size):
        xp = flat.copy()
        xp[i] += h
        xm = flat.copy()
        xm[i] -= h
        fp = float(f(xp.reshape(x.shape)))
        fm = float(f(xm.reshape(x.shape)))
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise ValueError(f"f is non-finite near component {i}")
        numeric[i] = (fp - fm) / (2.0 * h)
    a = analytic.ravel()
    denom = np.maximum(np.maximum(np.abs(a), np.abs(numeric)), 1e-8)
    err = float(np.max(np.abs(a - numeric) / denom)) if flat.size else 0.0
    if tol is not None and err > tol:
        raise GradientCheckError(f"max relative error {err:.3e} exceeds tol {tol:.3e}")
    return err
