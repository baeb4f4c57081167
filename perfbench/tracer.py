"""In-memory spans around the program's public functions.

The tracer patches functions where their callers look them up: `trainer`
binds `bnl_loss` with `from .negation import bnl_loss`, so the span for
`negation.bnl_loss` wraps `avsearch.trainer.bnl_loss`. Methods are patched
on the class. Patches are removed again when the traced region ends, so an
untraced pass runs the program's own functions.

Each span keeps its name, start and end, the span that was open when it
started (its parent) and the identifier of the pass it belongs to. Calls
made from the `manifest` thread pool take the main thread's open span as
their parent.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter


@dataclass
class Span:
    id: int
    parent: int | None
    run: str
    name: str
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _mb(path) -> float:
    return os.path.getsize(path) / 1e6


def _run_lines(run) -> int:
    return sum(len(entry) for entry in run.entries.values())


# (module, attribute, span name, counts(args, result) -> dict)
SITES = [
    ("avsearch.cli", "synth_dataset", "synth.synth_dataset", None),
    ("avsearch.synth", "write_features", "featio.write_features",
     lambda a, r: {"mb": _mb(a[0])}),
    ("avsearch.cli", "fit", "trainer.fit", None),
    ("avsearch.trainer", "train_epoch", "trainer.train_epoch", None),
    ("avsearch.trainer", "evaluate_validation", "trainer.evaluate_validation", None),
    ("avsearch.trainer", "bnl_loss", "negation.bnl_loss", lambda a, r: {"pairs": len(a[1])}),
    ("avsearch.trainer", "rank_many", "evaluation.rank_many", None),
    ("avsearch.cli", "rank_many", "evaluation.rank_many", None),
    ("avsearch.evaluation", "fused_matrix", "fusion.fused_matrix",
     lambda a, r: {"items": len(a[1]), "rows": len(a[1]) * a[0].h}),
    ("avsearch.cli", "load_dataset", "manifest.load_dataset", None),
    ("avsearch.cli", "build_triplets", "manifest.build_triplets", None),
    ("avsearch.cli", "load_feature_bundles", "manifest.load_feature_bundles", None),
    ("avsearch.manifest", "read_features", "featio.read_features",
     lambda a, r: {"mb": _mb(a[0])}),
    ("avsearch.cli", "read_features", "featio.read_features",
     lambda a, r: {"mb": _mb(a[0])}),
    ("avsearch.manifest", "read_qrels", "evaluation.read_qrels", None),
    ("avsearch.cli", "read_qrels", "evaluation.read_qrels", None),
    ("avsearch.cli", "checkpoint_load", "featio.checkpoint_load", None),
    ("avsearch.cli", "checkpoint_save", "featio.checkpoint_save", None),
    ("avsearch.cli", "write_run", "evaluation.write_run", lambda a, r: {"lines": _run_lines(a[1])}),
    ("avsearch.cli", "read_run", "evaluation.read_run", lambda a, r: {"lines": _run_lines(r)}),
    ("avsearch.cli", "mean_metric", "evaluation.mean_metric", None),
    ("avsearch.cli", "late_fuse", "evaluation.late_fuse", None),
    ("avsearch.cli", "group_frame_features", "featio.group_frame_features", None),
    ("avsearch.cli", "detect_negation", "negation.detect_negation", None),
    ("avsearch.cli", "rerank", "rerank.rerank",
     lambda a, r: {"videos": len(a[0]), "frames": sum(a[1][i].frame_count for i, _ in a[0])}),
    ("avsearch.cli", "similarity", "fusion.similarity", None),
    ("avsearch.cli", "select_pseudo_captions", "pseudocap.select_pseudo_captions", None),
    ("avsearch.fusion", "LaffModel.with_vector", "fusion.LaffModel.with_vector", None),
    ("avsearch.fusion", "LaffModel.to_vector", "fusion.LaffModel.to_vector", None),
]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.run = "setup"
        self.active = False
        self._ids = itertools.count(1)
        self._main = threading.main_thread()
        self._main_stack: list[Span] = []
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        if threading.current_thread() is self._main:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str):
        """Record one span while patched; yields its counts dict to fill."""
        if not self.active:
            yield {}
            return
        stack = self._stack()
        outer = stack or self._main_stack
        span = Span(next(self._ids), outer[-1].id if outer else None, self.run, name, perf_counter())
        stack.append(span)
        try:
            yield span.counts
        finally:
            span.end = perf_counter()
            stack.pop()
            self.spans.append(span)

    def _wrap(self, fn, name: str, counts):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as extra:
                result = fn(*args, **kwargs)
                if counts is not None:
                    extra.update(counts(args, result))
            return result

        return traced

    @contextmanager
    def patched(self):
        """Wrap every site in SITES for the duration of the block."""
        undo = []
        try:
            for module_name, attr, name, counts in SITES:
                owner = importlib.import_module(module_name)
                *outer, leaf = attr.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = owner.__dict__[leaf]
                setattr(owner, leaf, self._wrap(original, name, counts))
                undo.append((owner, leaf, original))
            self.active = True
            yield self
        finally:
            self.active = False
            for owner, leaf, original in reversed(undo):
                setattr(owner, leaf, original)


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start = max(start, cursor)
        end = min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def summarize(spans: list[Span]) -> dict[str, dict]:
    """Per span name: busy seconds `s`, `self_s`, `calls` and summed counts."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out: dict[str, dict] = {}
    for span in spans:
        entry = out.setdefault(span.name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        entry["s"] += span.seconds
        entry["self_s"] += span.seconds - _covered(children.get(span.id, []), span.start, span.end)
        entry["calls"] += 1
        for key, value in span.counts.items():
            entry[key] = entry.get(key, 0) + value
    return out
