"""Per-layer metrics derived from the spans of one traced set-up and pass.

Stats: ``s`` is inclusive seconds summed over calls, ``self_s`` excludes the
time of traced callees, ``fwd_s``/``bwd_s`` are inclusive seconds of a
layer's forward/backward, ``ms``/``ms_p50`` the median milliseconds per call.
Counts (``windows``, ``pairs``, ``samples``, ``thresholds``, ``gflop``) are
computed from argument shapes and repeat exactly for a given seed.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

_MIB = float(1 << 20)


class _ByName:
    def __init__(self, tracer):
        own = tracer.self_times()
        self.total = defaultdict(float)
        self.own = defaultdict(float)
        self.durations = defaultdict(list)
        self.counts = defaultdict(lambda: defaultdict(int))
        self.peak = defaultdict(int)
        self.under = defaultdict(float)  # (name, parent name) -> inclusive s
        for span, s_own in zip(tracer.spans, own):
            dur = span.t1 - span.t0
            self.total[span.name] += dur
            self.own[span.name] += s_own
            self.durations[span.name].append(dur)
            for key, value in span.counts.items():
                if key == "peak_alloc_bytes":
                    self.peak[span.name] = max(self.peak[span.name], value)
                else:
                    self.counts[span.name][key] += value
            parent = tracer.spans[span.parent].name if span.parent >= 0 else ""
            self.under[span.name, parent] += dur

    def ms_p50(self, name) -> float:
        calls = self.durations.get(name)
        return 1e3 * statistics.median(calls) if calls else 0.0


def layer_metrics(tracer, overhead_frac: float) -> dict[str, float]:
    b = _ByName(tracer)
    m: dict[str, float] = {}
    conv_fwd = b.counts["nn.Conv1d.fwd"]["flop"]
    conv_bwd = b.counts["nn.Conv1d.bwd"]["flop"]
    for layer in ("Conv1d", "BatchNorm1d", "Linear"):
        m[f"nn.{layer}.fwd_s"] = b.total[f"nn.{layer}.fwd"]
        m[f"nn.{layer}.bwd_s"] = b.total[f"nn.{layer}.bwd"]
    m["nn.Conv1d.gflop"] = (conv_fwd + conv_bwd) / 1e9
    m["nn.Conv1d.fwd_gflops"] = (conv_fwd / 1e9 / m["nn.Conv1d.fwd_s"]
                                 if m["nn.Conv1d.fwd_s"] else 0.0)
    m["nn.ResidualBlock.self_s"] = (b.own["nn.ResidualBlock.fwd"]
                                    + b.own["nn.ResidualBlock.bwd"])

    for fn in ("forward_signal", "backward_signal", "forward_report",
               "backward_report", "hash_reports", "encode_signal_batch"):
        m[f"encoder.{fn}.s"] = b.total[f"encoder.{fn}"]
    m["encoder.encode_signal_batch.windows"] = b.counts["encoder.encode_signal_batch"]["windows"]
    m["encoder.encode_signal_batch.peak_alloc_mb"] = b.peak["encoder.encode_signal_batch"] / _MIB
    m["training.finetune.refresh_s"] = (
        b.under["encoder.encode_signal_batch", "training.finetune"]
        + b.under["losses.compute_medoid", "training.finetune"])

    m["losses.compute_medoid.s"] = b.total["losses.compute_medoid"]
    m["losses.compute_medoid.pairs"] = b.counts["losses.compute_medoid"]["pairs"]
    m["losses.compute_medoid.peak_alloc_mb"] = b.peak["losses.compute_medoid"] / _MIB
    for fn in ("contrastive_loss_grad", "prototype_loss_grad", "repulsion_loss_grad",
               "center_loss_grad", "prototype_prob"):
        m[f"losses.{fn}.s"] = b.total[f"losses.{fn}"]

    m["training.pretrain.self_s"] = b.own["training.pretrain"]
    m["training.finetune.self_s"] = b.own["training.finetune"]

    m["authsys.score_batch.s"] = b.total["authsys.score_batch"]
    m["authsys.score_batch.windows"] = b.counts["authsys.score_batch"]["windows"]
    m["authsys.authenticate.ms_p50"] = b.ms_p50("authsys.authenticate")
    m["authsys.calibrate_threshold.s"] = b.total["authsys.calibrate_threshold"]
    m["authsys.load_registry.ms"] = b.ms_p50("authsys.load_registry")
    m["authsys.save_registry.ms"] = b.ms_p50("authsys.save_registry")

    m["metrics.oscr.s"] = b.total["metrics.oscr"]
    for key in ("samples", "thresholds", "threshold_samples"):
        m[f"metrics.oscr.{key}"] = b.counts["metrics.oscr"][key]
    for fn in ("closed_set_accuracy", "format_curve", "write_embeddings_csv"):
        m[f"metrics.{fn}.s"] = b.total[f"metrics.{fn}"]

    for fn in ("read_record", "detect_r_peaks", "segment_beats", "synth_ecg",
               "write_record"):
        m[f"signals.{fn}.ms_p50"] = b.ms_p50(f"signals.{fn}")

    m["pipeline.load_corpus.s"] = b.total["pipeline.load_corpus"]
    m["pipeline.evaluate.self_s"] = b.own["pipeline.evaluate"]
    m["pipeline.make_pretrain_pairs.s"] = b.total["pipeline.make_pretrain_pairs"]
    for command in ("synth", "pretrain", "finetune", "eval", "auth"):
        m[f"cli.{command}.self_s"] = b.own[f"cli.{command}"]
    m["trace.overhead_frac"] = overhead_frac
    return m


def stage_accounting(tracer) -> list[tuple[str, float, float]]:
    """(stage, traced wall s, summed self s of the spans under it) per CLI stage.

    Self times along the stage's call tree add back up to its wall time, so
    the two columns differ only by float rounding."""
    own = tracer.self_times()
    children = defaultdict(list)
    for i, span in enumerate(tracer.spans):
        children[span.parent].append(i)
    rows = defaultdict(lambda: [0.0, 0.0])
    for i, span in enumerate(tracer.spans):
        if not span.name.startswith("cli."):
            continue
        stack, acc = [i], 0.0
        while stack:
            j = stack.pop()
            acc += own[j]
            stack += children[j]
        rows[span.name][0] += span.t1 - span.t0
        rows[span.name][1] += acc
    return [(name, wall, acc) for name, (wall, acc) in sorted(rows.items())]
