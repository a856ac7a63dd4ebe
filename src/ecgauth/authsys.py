"""Identity registry: enrollment, thresholded authentication, persistence.

A registry packages the fine-tuned encoder, one ClassGeometry per enrolled
identity, and an operating threshold. Authentication embeds a beat segment,
scores it with the distance softmax over the enrolled prototypes, and accepts
the argmax identity iff the winning probability clears the threshold.
Registries persist in the same container format as encoder checkpoints, with
the geometry stacked into extra tensors and the threshold in metadata.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
from dataclasses import dataclass, field

import numpy as np

from .encoder import ModelParams, encode_signal_batch, load_container, save_container
from .errors import CheckpointFormatError, InputError, ParameterError
from .losses import ClassGeometry, prototype_prob
from .training import FinetuneConfig, finetune

logger = logging.getLogger("ecgauth.authsys")

_FALLBACK_THRESHOLD = 0.5
_ACCEPT_RATE = 0.95
# the distance softmax can emit exactly 1.0 (single class); the threshold
# itself must stay inside the open interval (0, 1)
_THRESHOLD_MARGIN = 1e-9


@dataclass
class Decision:
    """Outcome of authenticating one beat segment."""

    accepted: bool
    predicted_id: int
    max_prob: float


@dataclass
class Registry:
    """Enrolled identities: encoder weights, per-identity geometry, threshold."""

    params: ModelParams
    geometry: dict[int, ClassGeometry]
    threshold: float
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.threshold = float(self.threshold)
        if len(self.geometry) < 1:
            raise InputError("registry needs at least one enrolled identity")
        if not 0.0 < self.threshold < 1.0:
            raise ParameterError("threshold must lie strictly inside (0, 1)")
        self.geometry = {int(k): v for k, v in self.geometry.items()}

    @property
    def ids(self) -> list[int]:
        return sorted(self.geometry)

    def prototypes(self) -> np.ndarray:
        """Prototype matrix with rows in sorted-id order."""
        return np.stack([self.geometry[i].prototype for i in self.ids])

    def digest(self) -> str:
        """SHA-256 over encoder tensors, geometry, threshold, and metadata."""
        h = hashlib.sha256()
        h.update(self.params.checksum().encode())
        for cid in self.ids:
            g = self.geometry[cid]
            h.update(str(cid).encode())
            for arr in (g.center, g.prototype, g.reciprocal):
                h.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
            h.update(repr(g.margin).encode())
        h.update(repr(self.threshold).encode())
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
           validation=None) -> Registry:
    """Fine-tune on labeled segments and package a calibrated registry.

    The threshold is calibrated on ``validation`` (sequence of
    (BeatSegment, id)) when given, otherwise on the enrollment segments
    themselves. Deterministic for fixed data, cfg and seed.
    """
    tuned, geometry, _ = finetune(labeled, params, cfg, seed)
    registry = Registry(
        params=tuned,
        geometry=geometry,
        threshold=_FALLBACK_THRESHOLD,
        metadata={"seed": seed,
                  "config_digest": _config_digest(cfg, seed, params)},
    )
    registry.threshold = calibrate_threshold(
        registry, validation if validation is not None else labeled
    )
    return registry


def score_embeddings(registry: Registry, emb: np.ndarray):
    """(max probability, predicted id) for a (batch, embed_dim) embedding array."""
    probs = prototype_prob(emb, registry.prototypes())
    best = probs.argmax(axis=1)
    ids = registry.ids
    return probs[np.arange(len(best)), best], np.array([ids[b] for b in best])


def score_batch(registry: Registry, windows: np.ndarray):
    """(max probability, predicted id) for a (batch, length) window array."""
    return score_embeddings(registry, encode_signal_batch(registry.params, windows))


def authenticate(registry: Registry, segment) -> Decision:
    """Score one beat segment against the enrolled prototypes.

    Accepts the argmax identity iff its probability is >= the registry
    threshold. Pure in (registry, segment).
    """
    window = segment.window if hasattr(segment, "window") else np.asarray(segment)
    prob, pred = score_batch(registry, window[None, :])
    prob, pred = float(prob[0]), int(pred[0])
    return Decision(accepted=prob >= registry.threshold,
                    predicted_id=pred, max_prob=prob)


def authenticate_batch(registry: Registry, segments) -> list[Decision]:
    """One Decision per segment, computed with a single batched forward pass."""
    windows = np.stack([
        s.window if hasattr(s, "window") else np.asarray(s) for s in segments
    ])
    probs, preds = score_batch(registry, windows)
    return [
        Decision(accepted=float(p) >= registry.threshold,
                 predicted_id=int(c), max_prob=float(p))
        for p, c in zip(probs, preds)
    ]


def calibrate_threshold(registry: Registry, validation) -> float:
    """Largest threshold keeping >= 95% of validation correctly accepted.

    Candidates are the scores of correctly classified validation samples;
    the result is clamped strictly inside (0, 1). Falls back to 0.5 when no
    threshold attains the rate (e.g. too many misclassifications).
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
            return float(min(max(cand, _THRESHOLD_MARGIN),
                             1.0 - _THRESHOLD_MARGIN))
    logger.warning("no threshold keeps %.0f%% of %d validation samples "
                   "correctly accepted; falling back to %s",
                   100 * _ACCEPT_RATE, n, _FALLBACK_THRESHOLD)
    return _FALLBACK_THRESHOLD


def save_registry(registry: Registry, path) -> None:
    """Persist a registry as a 'registry' container (deterministic bytes)."""
    g = registry.geometry
    ids = registry.ids
    extras = {
        "registry.centers": np.stack([g[i].center for i in ids]),
        "registry.prototypes": np.stack([g[i].prototype for i in ids]),
        "registry.reciprocals": np.stack([g[i].reciprocal for i in ids]),
        "registry.margins": np.array([g[i].margin for i in ids]),
    }
    metadata = {
        "ids": ids,
        "threshold": registry.threshold,
        "creation": registry.metadata,
    }
    save_container(path, "registry", registry.params, extras, metadata)


def load_registry(path) -> Registry:
    """Read a registry container back, bit-exact, with distinct failure modes."""
    mp, extras, metadata = load_container(path, "registry")
    try:
        ids = [int(i) for i in metadata["ids"]]
        threshold = float(metadata["threshold"])
        centers = extras["registry.centers"]
        protos = extras["registry.prototypes"]
        recips = extras["registry.reciprocals"]
        margins = extras["registry.margins"]
        if not (len(ids) == centers.shape[0] == protos.shape[0]
                == recips.shape[0] == margins.shape[0]):
            raise KeyError("geometry tensor row counts disagree with id list")
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointFormatError(f"{path}: invalid registry section ({exc})") from exc
    geometry = {
        cid: ClassGeometry(center=centers[k], prototype=protos[k],
                           reciprocal=recips[k], margin=float(margins[k]))
        for k, cid in enumerate(ids)
    }
    return Registry(params=mp, geometry=geometry, threshold=threshold,
                    metadata=metadata.get("creation", {}))
