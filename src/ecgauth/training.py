"""Contrastive pretraining and the identity-geometry fine-tuning loop.

Pretraining aligns beat-segment and report projections with the symmetric
contrastive objective over shuffled mini-batches. Fine-tuning drops the
report branch and the contrastive heads: it copies the signal encoder
alone, starts one prototype per class at the medoid of its embeddings, and
jointly updates every signal-encoder weight and the prototypes under the
prototype loss. The paper's other terms, a self-constraint pull toward
per-epoch medoid centers and a reciprocal-point repulsion, were removed: on
the train-hard tier neither moved an open-set metric beyond the seed spread.
With one term and Adam, a loss weight would cancel, so there is none; the
no-fine-tuning baseline is ``epochs = 0``. Each stage takes its own
config (``PretrainConfig``, ``FinetuneConfig``) and the run seed, updates
by Adam, and is bit-reproducible for a fixed seed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .encoder import (
    EncoderConfig,
    ModelParams,
    build_model,
    encode_signal_batch,
    fold_signal_encoder,
    hash_reports,
    init_params,
)
from .errors import ConfigurationError, InputError, ParameterError, StateError
from .losses import compute_medoid, contrastive_loss_grad, prototype_loss_grad

# Adam's moment decay rates and the offset of its step denominator
_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8


def _check_schedule(cfg, min_batch: int) -> None:
    if cfg.batch_size < min_batch:
        raise ParameterError(f"batch_size must be >= {min_batch}")
    if cfg.epochs < 0:
        raise ParameterError("epochs must be >= 0")
    if not cfg.learning_rate > 0:
        raise ParameterError("learning_rate must be positive")


@dataclass(frozen=True)
class PretrainConfig:
    """Signal-report pretraining: Adam on the contrastive loss at temperature tau.

    batch_size must be >= 2: the contrastive loss needs in-batch negatives.
    """

    batch_size: int = 32
    epochs: int = 20
    learning_rate: float = 1e-3
    tau: float = 0.07

    def __post_init__(self):
        _check_schedule(self, min_batch=2)
        if not self.tau > 0:
            raise ParameterError("temperature tau must be positive")


@dataclass(frozen=True)
class FinetuneConfig:
    """Fine-tuning: Adam on the prototype loss.

    epochs = 0 keeps the given weights and the medoid prototypes.
    """

    batch_size: int = 32
    epochs: int = 30
    learning_rate: float = 5e-4

    def __post_init__(self):
        _check_schedule(self, min_batch=1)


@dataclass
class EpochStats:
    epoch: int
    losses: dict[str, float]
    seconds: float


@dataclass
class TrainReport:
    """Line-oriented training log: per-epoch loss components and wall time."""

    stage: str
    epochs: list[EpochStats] = field(default_factory=list)
    final_checksum: str = ""

    def to_lines(self) -> list[str]:
        lines = [f"stage={self.stage}"]
        for es in self.epochs:
            parts = " ".join(f"{k}={v:.6f}" for k, v in es.losses.items())
            lines.append(f"epoch {es.epoch} {parts} seconds={es.seconds:.3f}")
        lines.append(f"checksum={self.final_checksum}")
        return lines


# ----------------------------------------------------------------------
# optimizer

class _Adam:
    def __init__(self, lr):
        self.lr = lr
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.t = 0

    def step(self, tensors: dict[str, np.ndarray], grads: dict[str, np.ndarray]):
        self.t += 1
        c1 = 1.0 - _ADAM_BETA1 ** self.t
        c2 = 1.0 - _ADAM_BETA2 ** self.t
        for key in sorted(grads):
            g = grads[key]
            m = self.m.setdefault(key, np.zeros_like(g))
            v = self.v.setdefault(key, np.zeros_like(g))
            # m = b1*m + (1-b1)*g; v = b2*v + (1-b2)*g*g;
            # tensor -= lr * (m/c1) / (sqrt(v/c2) + eps), in that order of
            # operations, through two scratch arrays
            scratch = (1.0 - _ADAM_BETA1) * g
            m *= _ADAM_BETA1
            m += scratch
            np.multiply(1.0 - _ADAM_BETA2, g, out=scratch)
            scratch *= g
            v *= _ADAM_BETA2
            v += scratch
            step = m / c1
            step *= self.lr
            np.divide(v, c2, out=scratch)
            np.sqrt(scratch, out=scratch)
            scratch += _ADAM_EPS
            step /= scratch
            tensors[key] -= step


def _check_epoch_losses(losses: dict[str, float], stage: str):
    if not all(np.isfinite(v) for v in losses.values()):
        raise StateError(f"{stage} diverged: non-finite epoch loss {losses}")


# ----------------------------------------------------------------------
# pretraining

def pretrain(pairs, cfg: PretrainConfig, seed: int,
             encoder_config: EncoderConfig | None = None):
    """Contrastively align (beat segment, report text) pairs.

    Initializes fresh encoder parameters from ``seed`` and minimizes the
    symmetric contrastive loss over shuffled mini-batches; a trailing batch
    of size 1 is dropped (no negatives). Returns (ModelParams, TrainReport).
    """
    pairs = list(pairs)
    if len(pairs) < 2:
        raise InputError("pretraining needs at least 2 (segment, report) pairs")
    windows = np.stack([seg.window for seg, _ in pairs])
    hashed = hash_reports([text for _, text in pairs])

    mp = init_params(encoder_config or EncoderConfig(), windows.shape[1], seed)
    model = build_model(mp)
    opt = _Adam(cfg.learning_rate)
    rng = np.random.default_rng(seed)
    report = TrainReport(stage="pretrain")

    n = len(pairs)
    for epoch in range(cfg.epochs):
        t0 = time.perf_counter()
        perm = rng.permutation(n)
        total, seen = 0.0, 0
        for start in range(0, n, cfg.batch_size):
            idx = perm[start : start + cfg.batch_size]
            if idx.size < 2:
                continue
            zs, sig_tape = model.forward_signal(mp, windows[idx], project=True)
            zr, rep_tape = model.forward_report(mp, hashed[idx])
            loss, dzs, dzr = contrastive_loss_grad(zs, zr, cfg.tau)
            grads = model.backward_signal(mp, dzs, sig_tape)
            grads.update(model.backward_report(mp, dzr, rep_tape))
            # free the activations before the next batch's forward pass
            del sig_tape, rep_tape
            opt.step(mp.params, grads)
            total += loss * idx.size
            seen += idx.size
        losses = {"contrastive": total / seen}
        _check_epoch_losses(losses, "pretrain")
        report.epochs.append(EpochStats(epoch, losses, time.perf_counter() - t0))
    report.final_checksum = mp.checksum()
    return mp, report


# ----------------------------------------------------------------------
# fine-tuning

def _group_by_class(labeled):
    """-> (windows (n, L), class ids sorted, per-sample class index)."""
    labeled = list(labeled)
    if not labeled:
        raise InputError("no labeled segments")
    windows = np.stack([seg.window for seg, _ in labeled])
    ids = np.array([int(sid) for _, sid in labeled])
    class_ids = sorted(set(ids.tolist()))
    counts = {cid: int((ids == cid).sum()) for cid in class_ids}
    thin = [cid for cid, c in counts.items() if c < 2]
    if thin:
        raise ConfigurationError(
            f"every identity needs >= 2 segments; got fewer for {thin}"
        )
    index_of = {cid: k for k, cid in enumerate(class_ids)}
    return windows, class_ids, np.array([index_of[i] for i in ids])


def _class_medoids(mp: ModelParams, windows, class_idx, n_classes) -> np.ndarray:
    emb = encode_signal_batch(fold_signal_encoder(mp), windows)
    return np.stack([
        compute_medoid(emb[class_idx == k]) for k in range(n_classes)
    ])


def finetune(labeled, params: ModelParams, cfg: FinetuneConfig, seed: int):
    """Train the signal encoder and one prototype per identity on labeled data.

    Works on a copy of ``params``' signal encoder; the pretraining heads
    are left behind. Prototypes start at the class medoids of the initial
    embeddings (the one medoid pass); each mini-batch then applies the
    prototype loss and updates every signal-encoder weight together with
    the prototypes. Returns (signal-encoder ModelParams, sorted class ids,
    prototypes as an (n_ids, embed_dim) matrix in id order, TrainReport).
    """
    windows, class_ids, class_idx = _group_by_class(labeled)
    n, n_classes = windows.shape[0], len(class_ids)

    mp = params.signal_encoder()
    model = build_model(mp)
    rng = np.random.default_rng(seed)

    protos = _class_medoids(mp, windows, class_idx, n_classes)
    # discarded; without it every epoch shuffle, and so every artifact, changes
    rng.normal(0.0, 0.1, size=protos.shape)

    opt = _Adam(cfg.learning_rate)
    report = TrainReport(stage="finetune")

    for epoch in range(cfg.epochs):
        t0 = time.perf_counter()
        perm = rng.permutation(n)
        total, seen = 0.0, 0
        for start in range(0, n, cfg.batch_size):
            idx = perm[start : start + cfg.batch_size]
            feats, tape = model.forward_signal(mp, windows[idx])
            l_proto, d_feats, d_protos = prototype_loss_grad(
                feats, class_idx[idx], protos)
            grads = model.backward_signal(mp, d_feats, tape)
            del tape  # free the activations before the next batch's forward pass
            grads["geom.protos"] = d_protos
            opt.step({**mp.params, "geom.protos": protos}, grads)
            total += l_proto * idx.size
            seen += idx.size
        losses = {"proto": total / seen}
        _check_epoch_losses(losses, "finetune")
        report.epochs.append(EpochStats(epoch, losses, time.perf_counter() - t0))

    report.final_checksum = mp.checksum()
    return mp, class_ids, protos, report
