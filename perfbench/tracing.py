"""In-memory span tracer that wraps ecgauth from the outside.

Every traced function is replaced at *every* module attribute bound to it, so
``from .encoder import encode_signal_batch`` copies inside ``training``,
``authsys`` and ``pipeline`` are caught too. Layer classes get their
``forward``/``backward`` methods wrapped on the class. Spans are kept in a
list with parent links and written out once, when the benchmark ends.
"""

from __future__ import annotations

import functools
import json
import time
import tracemalloc
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    parent: int
    t0: float
    t1: float = 0.0
    counts: dict = field(default_factory=dict)


# --- exact work counters: (args, kwargs, result) -> {count name: value} ----

def _conv_fwd(args, kwargs, out):
    layer, x, y = args[0], args[3], out[0]
    b, c, _ = x.shape
    return {"flop": 2 * b * layer.c_out * c * layer.kernel * y.shape[2]}


def _conv_bwd(args, kwargs, dx):
    layer, cache = args[0], args[3]
    b, ck, l_out = cache[0].shape
    # weight gradient and input gradient: two GEMMs of the forward's size
    return {"flop": 2 * 2 * b * layer.c_out * ck * l_out}


def _windows(args, kwargs, result):
    return {"windows": len(args[1])}


def _medoid_pairs(args, kwargs, result):
    n, d = args[0].shape[0], result.size
    return {"pairs": n * n * d}


def _oscr_work(args, kwargs, curve):
    n, t = len(args[0]), int(curve.thresholds.size)
    return {"samples": n, "thresholds": t, "threshold_samples": n * t}


def _batched(args, kwargs):
    # tracemalloc start/stop would dominate a batch-1 call, so only
    # batches are measured
    return len(args[1]) > 1


def _always(args, kwargs):
    return True


# (module, function, counter, record peak allocation for these arguments)
FUNCTIONS = [
    ("signals", "synth_ecg", None, None),
    ("signals", "write_record", None, None),
    ("signals", "read_record", None, None),
    ("signals", "detect_r_peaks", None, None),
    ("signals", "segment_beats", None, None),
    ("encoder", "encode_signal_batch", _windows, _batched),
    ("encoder", "hash_reports", None, None),
    ("encoder", "save_checkpoint", None, None),
    ("encoder", "load_checkpoint", None, None),
    ("losses", "compute_medoid", _medoid_pairs, _always),
    ("losses", "contrastive_loss_grad", None, None),
    ("losses", "center_loss_grad", None, None),
    ("losses", "prototype_loss_grad", None, None),
    ("losses", "repulsion_loss_grad", None, None),
    ("losses", "prototype_prob", None, None),
    ("training", "pretrain", None, None),
    ("training", "finetune", None, None),
    ("authsys", "enroll", None, None),
    ("authsys", "score_batch", _windows, None),
    ("authsys", "authenticate", None, None),
    ("authsys", "authenticate_batch", None, None),
    ("authsys", "calibrate_threshold", None, None),
    ("authsys", "save_registry", None, None),
    ("authsys", "load_registry", None, None),
    ("metrics", "oscr", _oscr_work, None),
    ("metrics", "closed_set_accuracy", None, None),
    ("metrics", "format_curve", None, None),
    ("metrics", "write_embeddings_csv", None, None),
    ("pipeline", "write_corpus", None, None),
    ("pipeline", "load_corpus", None, None),
    ("pipeline", "make_pretrain_pairs", None, None),
    ("pipeline", "evaluate", None, None),
]

# (module, class, method, span name, counter)
METHODS = [
    ("nn", "Conv1d", "forward", "nn.Conv1d.fwd", _conv_fwd),
    ("nn", "Conv1d", "backward", "nn.Conv1d.bwd", _conv_bwd),
    ("nn", "BatchNorm1d", "forward", "nn.BatchNorm1d.fwd", None),
    ("nn", "BatchNorm1d", "backward", "nn.BatchNorm1d.bwd", None),
    ("nn", "Linear", "forward", "nn.Linear.fwd", None),
    ("nn", "Linear", "backward", "nn.Linear.bwd", None),
    ("nn", "ResidualBlock", "forward", "nn.ResidualBlock.fwd", None),
    ("nn", "ResidualBlock", "backward", "nn.ResidualBlock.bwd", None),
    ("encoder", "DualEncoder", "forward_signal", "encoder.forward_signal", None),
    ("encoder", "DualEncoder", "backward_signal", "encoder.backward_signal", None),
    ("encoder", "DualEncoder", "forward_report", "encoder.forward_report", None),
    ("encoder", "DualEncoder", "backward_report", "encoder.backward_report", None),
]

MODULES = ("cli", "pipeline", "training", "authsys", "encoder", "losses",
           "metrics", "signals", "nn")


class Tracer:
    """Records spans around ecgauth calls while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------

    def call(self, name, fn, args, kwargs, counter=None, alloc=None):
        """Run ``fn`` inside a span; counts and peak allocation go on the span."""
        span = Span(name, self._stack[-1] if self._stack else -1, 0.0)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        own_alloc = (alloc is not None and alloc(args, kwargs)
                     and not tracemalloc.is_tracing())
        if own_alloc:
            tracemalloc.start()
        span.t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.t1 = time.perf_counter()
            if own_alloc:
                span.counts["peak_alloc_bytes"] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            self._stack.pop()
        if counter is not None:
            span.counts.update(counter(args, kwargs, result))
        return result

    def _wrapper(self, name, fn, counter, alloc):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, counter, alloc)
        return traced

    # -- patching ------------------------------------------------------

    def install(self, package) -> None:
        """Wrap every listed function at every ecgauth name bound to it."""
        modules = [getattr(package, m) for m in MODULES] + [package]
        for mod_name, fn_name, counter, alloc in FUNCTIONS:
            fn = getattr(getattr(package, mod_name), fn_name)
            traced = self._wrapper(f"{mod_name}.{fn_name}", fn, counter, alloc)
            bound = 0
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, attr, traced)
                        bound += 1
            if bound == 0:
                raise RuntimeError(f"{mod_name}.{fn_name} is bound nowhere")
        for mod_name, cls_name, method, span_name, counter in METHODS:
            cls = getattr(getattr(package, mod_name), cls_name)
            self._patch(cls, method,
                        self._wrapper(span_name, vars(cls)[method], counter, None))

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis ------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [s.t1 - s.t0 for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.t1 - s.t0
        return own

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "parent": s.parent, "name": s.name,
                                     "t0": s.t0, "t1": s.t1, "counts": s.counts})
                         + "\n")
