"""Text-to-video retrieval on precomputed features.

Attentional multi-feature fusion into a common embedding space, trained
with a hardest-negative ranking loss extended by bidirectionally bounded
negation terms; plus frame-level reranking, pseudo-caption selection, and
TREC-style evaluation (AP / inferred AP), all driven by binary feature
files and a small CLI.
"""

__version__ = "0.1.0"
