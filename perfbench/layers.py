"""Per-layer metrics from the spans of a traced run.

`.s` is busy time summed over a span name's calls, `.self_s` the same minus
the time its child spans cover. Counts (`.calls`, `.pairs`, `.rows`,
`.lines`, `.frames`) are exact and repeat from run to run; `.mb` is
computed from file sizes, not measured. Every workload reports every
metric, 0 where the layer is not used.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import asdict

from .tracer import summarize

CLI_STAGES = ("synth", "train", "search", "eval", "rerank", "fuse", "pseudocap")

# (span name, summary field); the unit follows from the field.
SPAN_FIELDS = [
    ("negation.bnl_loss", "s"),
    ("negation.bnl_loss", "calls"),
    ("negation.bnl_loss", "pairs"),
    ("fusion.LaffModel.with_vector", "s"),
    ("fusion.LaffModel.to_vector", "s"),
    ("trainer.train_epoch", "self_s"),
    ("trainer.evaluate_validation", "self_s"),
    ("manifest.load_dataset", "self_s"),
    ("fusion.fused_matrix", "s"),
    ("fusion.fused_matrix", "rows"),
    ("evaluation.rank_many", "self_s"),
    ("evaluation.write_run", "s"),
    ("evaluation.write_run", "lines"),
    ("evaluation.read_run", "s"),
    ("evaluation.read_run", "lines"),
    ("evaluation.read_qrels", "s"),
    ("evaluation.mean_metric", "s"),
    ("evaluation.late_fuse", "s"),
    ("featio.read_features", "s"),
    ("featio.read_features", "mb"),
    ("featio.group_frame_features", "s"),
    ("rerank.rerank", "s"),
    ("rerank.rerank", "frames"),
    ("negation.detect_negation", "calls"),
    ("fusion.similarity", "s"),
    ("fusion.similarity", "calls"),
    ("pseudocap.select_pseudo_captions", "self_s"),
    ("manifest.load_feature_bundles", "self_s"),
    ("featio.checkpoint_load", "s"),
    ("featio.checkpoint_save", "s"),
    ("synth.synth_dataset", "s"),
    ("featio.write_features", "s"),
    *((f"cli.{stage}", "s") for stage in CLI_STAGES),
]
FIELD_UNITS = {"s": "s", "self_s": "s", "mb": "MB"}  # anything else is a count

# Derived metrics: (name, unit). The first five are the ROADMAP baselines.
DERIVED = [
    ("negation.bnl_loss.b32_ms", "ms"),
    ("fusion.fused_matrix.s_per_1k_items", "s"),
    ("featio.read_features.mb_per_s", "MB/s"),
    ("rerank.rerank.ms_per_video", "ms"),
    ("fusion.similarity.ms_per_call", "ms"),
    ("pseudocap.similarity_calls_per_video", "count"),
    ("trace.overhead_frac", "frac"),
]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(spans, untraced: list[dict], traced: dict) -> dict:
    """{metric: (value, unit, samples)} over a traced set-up and one traced pass."""
    summary = summarize(spans)

    def get(name: str, field: str) -> float:
        return summary.get(name, {}).get(field, 0)

    metrics = {
        f"{span}.{field}": (get(span, field), FIELD_UNITS.get(field, "count"), 1)
        for span, field in SPAN_FIELDS
    }
    batch_ms = [1e3 * s.seconds for s in spans if s.name == "negation.bnl_loss" and s.counts["pairs"] == 32]
    derived = {
        "negation.bnl_loss.b32_ms": statistics.median(batch_ms) if batch_ms else 0.0,
        "fusion.fused_matrix.s_per_1k_items": 1e3 * _ratio(get("fusion.fused_matrix", "s"), get("fusion.fused_matrix", "items")),
        "featio.read_features.mb_per_s": _ratio(get("featio.read_features", "mb"), get("featio.read_features", "s")),
        "rerank.rerank.ms_per_video": 1e3 * _ratio(get("rerank.rerank", "s"), get("rerank.rerank", "videos")),
        "fusion.similarity.ms_per_call": 1e3 * _ratio(get("fusion.similarity", "s"), get("fusion.similarity", "calls")),
        "pseudocap.similarity_calls_per_video": _ratio(get("fusion.similarity", "calls"), get("pseudocap.select_pseudo_captions", "calls")),
        "trace.overhead_frac": _ratio(_stage_total(traced), _untraced_total(untraced)) - 1.0,
    }
    samples = {"negation.bnl_loss.b32_ms": len(batch_ms)}
    for name, unit in DERIVED:
        metrics[name] = (derived[name], unit, samples.get(name, 1))
    return metrics


def _stage_total(results: dict) -> float:
    return sum(r.seconds for r in results.values())


def _untraced_total(passes: list[dict]) -> float:
    return statistics.mean(_stage_total(p) for p in passes)


def print_report(spans, untraced: list[dict], traced: dict) -> None:
    """Top spans by self time, and traced against untraced stage times."""
    summary = summarize([s for s in spans if s.run != "setup"])
    total = _stage_total(traced)
    ranked = sorted(summary.items(), key=lambda kv: -kv[1]["self_s"])
    for name, entry in ranked[:6]:
        print(f"self   {name:<36} {entry['self_s']:>9.3f} s  {entry['self_s'] / total:6.1%} of traced stages")
    for stage, result in traced.items():
        plain = statistics.mean(p[stage].seconds for p in untraced)
        print(f"cli    {stage:<10} untraced {plain:8.3f} s  traced {result.seconds:8.3f} s")


def write_spans(path, spans, env: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"env": env}) + "\n")
        for span in spans:
            fh.write(json.dumps(asdict(span)) + "\n")
