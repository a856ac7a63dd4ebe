"""Identity registry: enrollment, thresholded authentication, persistence.

A registry holds exactly what authentication reads: the fine-tuned signal
encoder (no pretraining heads), the sorted enrolled ids, one prototype per
id, an operating threshold, and the sampling rate its beats were recorded
at. Authentication embeds a beat segment, scores it with the distance
softmax over the enrolled prototypes, and accepts the argmax identity iff
the winning probability clears the threshold. Registries persist in the
same container format as encoder checkpoints, with the signal encoder's
tensors, the prototype matrix as the one extra tensor, and the ids,
threshold and sampling rate in metadata.

A registry folds its encoder's batch norms into the convs once, when it is
constructed (``encoder.fold_signal_encoder``), and every score runs that
folded copy. The fold is derived from the weights: it is not saved, and it
is not part of the digest, the repr or equality. It is cast to float32:
the stored weights, prototypes and threshold stay float64, the embeddings
come back as float64, and the threshold is calibrated on the same float32
scores that authentication and evaluation compute. The creation metadata
records whether the threshold was calibrated or fell back to 0.5
(``threshold_source``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .encoder import (
    FoldedEncoder,
    ModelParams,
    build_model,
    encode_signal_batch,
    fold_signal_encoder,
    load_container,
    save_container,
    tensor_mismatch,
)
from .errors import CheckpointFormatError, InputError, ParameterError, ShapeError
from .losses import prototype_prob
from .training import FinetuneConfig, finetune

logger = logging.getLogger("ecgauth.authsys")

_FALLBACK_THRESHOLD = 0.5
_ACCEPT_RATE = 0.95
# the distance softmax can emit exactly 1.0 (single class); the threshold
# itself must stay inside the open interval (0, 1)
_THRESHOLD_MARGIN = 1e-9
# the one tensor a registry container holds besides the encoder's
_PROTOTYPES = "registry.prototypes"
# the dtype every score is computed in: float32 halves the inference
# convs' bytes, and the threshold is calibrated at it too
_SCORE_DTYPE = np.float32


@dataclass
class Decision:
    """Outcome of authenticating one beat segment."""

    accepted: bool
    predicted_id: int
    max_prob: float


@dataclass
class Registry:
    """Enrolled identities: the signal encoder's weights, sorted ids, their
    prototypes (row k belongs to ids[k]), the acceptance threshold, and the
    sampling rate ``fs`` (Hz) of the records the encoder was trained on.
    ``encoder`` is ``params`` folded for inference at float32, derived at
    construction (so also by ``dataclasses.replace``)."""

    params: ModelParams
    ids: list[int]
    prototypes: np.ndarray
    threshold: float
    fs: float
    metadata: dict = field(default_factory=dict)
    encoder: FoldedEncoder = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.ids = [int(i) for i in self.ids]
        self.prototypes = np.asarray(self.prototypes, dtype=np.float64)
        self.threshold = float(self.threshold)
        self.fs = float(self.fs)
        problem = tensor_mismatch(self.params, build_model(self.params).signal_shapes())
        if problem:
            raise ShapeError(
                f"registry params must be exactly the signal encoder's tensors "
                f"({problem}); re-run `ecgauth finetune` to rebuild the registry")
        if not self.ids:
            raise InputError("registry needs at least one enrolled identity")
        if self.ids != sorted(set(self.ids)):
            raise InputError("registry ids must be distinct and sorted")
        shape = (len(self.ids), self.params.config.embed_dim)
        if self.prototypes.shape != shape:
            raise ShapeError(f"prototypes must have shape {shape}, "
                             f"got {self.prototypes.shape}")
        if not np.all(np.isfinite(self.prototypes)):
            raise InputError("prototypes must be finite")
        if not 0.0 < self.threshold < 1.0:
            raise ParameterError("threshold must lie strictly inside (0, 1)")
        if not (math.isfinite(self.fs) and self.fs > 0):
            raise ParameterError(f"sampling rate must be positive and finite, "
                                 f"got {self.fs}")
        self.encoder = fold_signal_encoder(self.params, _SCORE_DTYPE)

    def digest(self) -> str:
        """SHA-256 over signal-encoder tensors, ids, prototypes, threshold,
        sampling rate, and metadata."""
        h = hashlib.sha256()
        h.update(self.params.checksum().encode())
        h.update(json.dumps(self.ids).encode())
        h.update(np.ascontiguousarray(self.prototypes, dtype="<f8").tobytes())
        h.update(repr(self.threshold).encode())
        h.update(repr(self.fs).encode())
        h.update(json.dumps(self.metadata, sort_keys=True).encode())
        return h.hexdigest()


def _config_digest(cfg: FinetuneConfig, seed: int, params: ModelParams) -> str:
    doc = {
        "train": dataclasses.asdict(cfg),
        "seed": seed,
        "encoder": dataclasses.asdict(params.config),
        "input_length": params.input_length,
    }
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def enroll(labeled, params: ModelParams, cfg: FinetuneConfig, seed: int,
           fs: float, validation) -> Registry:
    """Fine-tune on labeled segments and package a calibrated registry.

    ``fs`` is the sampling rate of the records the segments were cut from.
    The threshold is calibrated on ``validation`` (sequence of
    (BeatSegment, id)), and the metadata's ``threshold_source`` says
    whether it fell back. Deterministic for fixed data, cfg and seed.
    """
    tuned, ids, prototypes, _ = finetune(labeled, params, cfg, seed)
    metadata = {"seed": seed, "config_digest": _config_digest(cfg, seed, params)}
    # the threshold does not change a score, so the draft's is a placeholder
    draft = Registry(params=tuned, ids=ids, prototypes=prototypes,
                     threshold=_FALLBACK_THRESHOLD, fs=fs, metadata=metadata)
    threshold, source = calibrate_threshold(draft, validation)
    return dataclasses.replace(draft, threshold=threshold,
                               metadata={**metadata, "threshold_source": source})


def score_embeddings(registry: Registry, emb: np.ndarray):
    """(max probability, predicted id) for a (batch, embed_dim) embedding array."""
    probs = prototype_prob(emb, registry.prototypes)
    best = probs.argmax(axis=1)
    ids = registry.ids
    return probs[np.arange(len(best)), best], np.array([ids[b] for b in best])


def score_batch(registry: Registry, windows: np.ndarray):
    """(max probability, predicted id) for a (batch, length) window array."""
    return score_embeddings(registry, encode_signal_batch(registry.encoder, windows))


def authenticate(registry: Registry, segment) -> Decision:
    """Score one beat segment against the enrolled prototypes.

    Accepts the argmax identity iff its probability is >= the registry
    threshold. Pure in (registry, segment): the one-segment case of
    ``authenticate_batch``.
    """
    return authenticate_batch(registry, [segment])[0]


def authenticate_batch(registry: Registry, segments) -> list[Decision]:
    """One Decision per BeatSegment, computed with a single batched forward pass."""
    probs, preds = score_batch(registry, np.stack([s.window for s in segments]))
    return [
        Decision(accepted=float(p) >= registry.threshold,
                 predicted_id=int(c), max_prob=float(p))
        for p, c in zip(probs, preds)
    ]


def calibrate_threshold(registry: Registry, validation) -> tuple[float, str]:
    """(threshold, source): the largest threshold keeping >= 95% of
    validation correctly accepted, and ``"calibrated"``.

    Candidates are the scores of correctly classified validation samples;
    the result is clamped strictly inside (0, 1). Returns (0.5,
    ``"fallback"``) when no threshold attains the rate (e.g. too many
    misclassifications).
    """
    validation = list(validation)
    if not validation:
        raise InputError("threshold calibration needs validation samples")
    windows = np.stack([seg.window for seg, _ in validation])
    truth = np.array([int(sid) for _, sid in validation])
    probs, preds = score_batch(registry, windows)
    correct = preds == truth
    n = len(validation)
    for cand in np.unique(probs[correct])[::-1]:
        if (correct & (probs >= cand)).sum() / n >= _ACCEPT_RATE:
            return (float(min(max(cand, _THRESHOLD_MARGIN),
                              1.0 - _THRESHOLD_MARGIN)), "calibrated")
    logger.warning("no threshold keeps %.0f%% of %d validation samples "
                   "correctly accepted; falling back to %s",
                   100 * _ACCEPT_RATE, n, _FALLBACK_THRESHOLD)
    return _FALLBACK_THRESHOLD, "fallback"


def save_registry(registry: Registry, path) -> None:
    """Persist a registry as a 'registry' container (deterministic bytes)."""
    metadata = {
        "ids": registry.ids,
        "threshold": registry.threshold,
        "fs": registry.fs,
        "creation": registry.metadata,
    }
    save_container(path, "registry", registry.params,
                   {_PROTOTYPES: registry.prototypes}, metadata)


def load_registry(path) -> Registry:
    """Read a registry container back, bit-exact, with distinct failure modes.

    The container must hold exactly the signal encoder's tensors, one extra
    tensor, a finite (len(ids), embed_dim) prototype matrix, and a positive
    finite sampling rate ``fs``; anything else is a CheckpointFormatError.
    A registry written with the pretraining heads names them as surplus.
    """
    mp, extras, metadata = load_container(path, "registry")
    if set(extras) != {_PROTOTYPES}:
        missing = sorted({_PROTOTYPES} - set(extras))
        surplus = sorted(set(extras) - {_PROTOTYPES})
        raise CheckpointFormatError(
            f"{path}: a registry holds exactly the tensor {_PROTOTYPES!r} "
            f"besides the encoder (missing={missing}, surplus={surplus})")
    try:
        return Registry(params=mp, ids=metadata["ids"],
                        prototypes=extras[_PROTOTYPES],
                        threshold=metadata["threshold"],
                        fs=metadata["fs"],
                        metadata=metadata.get("creation", {}))
    except (KeyError, TypeError, ValueError, InputError, ParameterError) as exc:
        raise CheckpointFormatError(f"{path}: invalid registry section ({exc})") from exc
