import struct
import threading

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from avsearch import errors, fusion
from avsearch.featio import checkpoint_save
from avsearch.fusion import FeatureBundle, LaffModel, init_model

# CI runs `pytest --hypothesis-profile=ci`: the same examples on every run,
# and no deadline, since a slow runner is not a failing test.
settings.register_profile("ci", derandomize=True, max_examples=100, deadline=None)

# The package's own error types: the only exceptions a reader may raise on
# malformed input.
AVSEARCH_ERRORS = tuple(
    cls for cls in vars(errors).values()
    if isinstance(cls, type) and issubclass(cls, Exception) and not issubclass(cls, Warning)
)


def typed_outcome(read, path):
    """read(path), or None when it raises one of the package's own error
    types; any other exception escapes and fails the test."""
    try:
        return read(path)
    except AVSEARCH_ERRORS:
        return None


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


def feat_bytes(records, dim=3, count=None, name=b"s", magic=b"AVSF", version=1) -> bytes:
    """A feature file of (raw id, values) records, with the header as given;
    the values are cast to float32 unchecked."""
    count = len(records) if count is None else count
    header = magic + struct.pack("<BIQH", version, dim, count, len(name)) + name
    return header + b"".join(
        struct.pack("<H", len(rec_id)) + rec_id + np.asarray(vals, dtype="<f4").tobytes()
        for rec_id, vals in records
    )


def write_unchecked_features(path, space_name: str, features: dict) -> None:
    """Write a feature file laid out as write_features lays it out, but
    with its values unchecked, so that it can hold the NaN and infinite
    values that write_features refuses and read_features must catch."""
    records = [(item_id.encode(), vec) for item_id, vec in features.items()]
    path.write_bytes(feat_bytes(records, dim=len(records[0][1]), name=space_name.encode()))


def random_bundle(item_id: str, dims: dict[str, int], rng) -> FeatureBundle:
    return FeatureBundle(item_id, {name: rng.normal(size=dim) for name, dim in dims.items()})


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def started_threads(monkeypatch):
    """The list of threads that fusion starts while the test runs."""
    started = []

    class Recorded(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(fusion, "Thread", Recorded)
    return started


def assert_all_joined(threads) -> None:
    """No thread is alive: none was left running by the call, and joining
    each (with a timeout) finds it finished."""
    running = [thread for thread in threads if thread.is_alive()]
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    assert not running


@st.composite
def mutated(draw, files) -> bytes:
    """Bytes of a valid file, cut, extended or with some bytes overwritten;
    files draws (bytes, anything)."""
    raw, _ = draw(files)
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(raw)))
        kind = draw(st.sampled_from(["cut", "extend", "overwrite"]))
        if kind == "cut":
            raw = raw[:at]
        elif kind == "extend":
            raw = raw[:at] + draw(st.binary(min_size=1, max_size=8)) + raw[at:]
        elif at < len(raw):
            raw = raw[:at] + bytes([draw(st.integers(0, 255))]) + raw[at + 1:]
    return raw
