import struct

import numpy as np
import pytest
from hypothesis import settings

from avsearch.featio import checkpoint_save
from avsearch.fusion import FeatureBundle, LaffModel, init_model

# CI runs `pytest --hypothesis-profile=ci`: the same examples on every run,
# and no deadline, since a slow runner is not a failing test.
settings.register_profile("ci", derandomize=True, max_examples=100, deadline=None)


def randomized_model(
    video_dims: dict[str, int],
    text_dims: dict[str, int],
    d: int,
    heads: int,
    seed: int,
    scale: float = 0.5,
) -> LaffModel:
    """A model with every parameter (incl. biases and attention) randomized,
    so attention weights and gradients are non-trivial."""
    model = init_model(video_dims, text_dims, d=d, heads=heads, seed=seed)
    rng = np.random.default_rng(seed + 1)
    return model.with_vector(rng.normal(0.0, scale, model.n_params()))


def huge_d_checkpoint(path) -> None:
    """Write a valid checkpoint, then make its header claim h=1, d=2**31."""
    checkpoint_save(randomized_model({"v": 3}, {"t": 2}, d=4, heads=1, seed=0), path)
    raw = bytearray(path.read_bytes())
    raw[5:13] = struct.pack("<II", 1, 2**31)
    path.write_bytes(bytes(raw))


def random_bundle(item_id: str, dims: dict[str, int], rng) -> FeatureBundle:
    return FeatureBundle(item_id, {name: rng.normal(size=dim) for name, dim in dims.items()})


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
