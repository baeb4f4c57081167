"""Every error that src/ raises on a bad input is typed: a ConfigError,
DimensionError, FormatError or MetricError, each a ValueError, with the
message it always had."""

import numpy as np
import pytest

from avsearch.errors import ConfigError, DimensionError, FormatError, MetricError
from avsearch.fusion import feature_importance, fused_matrix
from avsearch.manifest import load_feature_bundles
from avsearch.negation import Caption, Margins, Triplet, bnl_loss, gap_in_window_fraction, hardest_negatives
from avsearch.numeric import grad_check
from avsearch.pseudocap import CandidateSet, CaptionCandidate, select_pseudo_captions
from avsearch.trainer import TrainConfig, train_epoch

from conftest import randomized_model
from test_negation import make_batch


@pytest.mark.parametrize(
    "call, kind, message",
    [
        (lambda m, b: fused_matrix(m, b, "audio"), ConfigError,
         "branch must be 'video' or 'text', got 'audio'"),
        (lambda m, b: feature_importance(m, [], "video"), ConfigError,
         "feature_importance needs a nonempty dataset"),
        (lambda m, b: load_feature_bundles([], ids=["v0"], decoded={}), ConfigError,
         "ids and decoded cannot be given together"),
        (lambda m, b: Caption("c", []), FormatError, "caption 'c' has no tokens"),
        (lambda m, b: Caption("c", ["a", "dog"], ["NOUN"]), FormatError,
         "caption 'c': 1 tags for 2 tokens"),
        (lambda m, b: Caption("c", ["a"], ["NOUN?"]), FormatError,
         "caption 'c': unknown tags ['NOUN?']"),
        (lambda m, b: Triplet(b[0].video, b[0].caption, b[0].caption_features, Caption("n", ["not"])),
         ConfigError,
         "negated caption and negated features must be given together"),
        (lambda m, b: hardest_negatives(np.zeros(3)), DimensionError,
         "similarity matrix must be 2-D, got shape (3,)"),
        (lambda m, b: hardest_negatives(np.zeros((1, 1))), DimensionError,
         "hardest negative needs at least two videos"),
        (lambda m, b: hardest_negatives(np.zeros((2, 3))), DimensionError,
         "3 queries but only 2 positive videos"),
        (lambda m, b: bnl_loss(m, b[:1], Margins()), ConfigError,
         "batch of 1: hardest-negative mining needs >= 2 videos"),
        (lambda m, b: gap_in_window_fraction(m, b, Margins()), MetricError,
         "no negated triplets in dataset"),
        (lambda m, b: grad_check(np.sum, np.ones_like, np.zeros(2), h=0.0), ConfigError,
         "h must be positive, got 0.0"),
        (lambda m, b: grad_check(lambda x: np.nan, np.ones_like, np.zeros(2)), MetricError,
         "f is non-finite near component 0"),
        (lambda m, b: CandidateSet("v", []), FormatError, "video 'v' has no caption candidates"),
        (lambda m, b: select_pseudo_captions(CandidateSet("v", [CaptionCandidate(0, "a")]), len, k=0),
         ConfigError, "k must be >= 1, got 0"),
        (lambda m, b: train_epoch(m, [], TrainConfig(), 0), ConfigError, "empty training dataset"),
        (lambda m, b: train_epoch(m, b[:1], TrainConfig(), 0), ConfigError,
         "dataset yielded no batch of size >= 2"),
    ],
)
def test_typed_with_their_messages(rng, call, kind, message):
    model = randomized_model({"a": 3}, {"t": 2}, d=4, heads=1, seed=0)
    batch = make_batch(rng, model, 2, [False, False])
    with pytest.raises(kind) as exc:
        call(model, batch)
    assert isinstance(exc.value, ValueError) and str(exc.value) == message
