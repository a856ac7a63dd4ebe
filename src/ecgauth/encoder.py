"""Dual-branch encoder: residual 1-D conv net for beats, hashed linear map for reports.

The signal branch is an initial stride-2 convolution followed by ``n_blocks``
residual blocks (each downsampling by 2), global average pooling, and a linear
embedding layer. The report branch hashes the text into a fixed 512-bin
bag-of-tokens vector and applies a trainable linear map to the embedding
width. Both branches have a projection head (linear-ReLU-linear, then L2
normalization) used for contrastive alignment.

Checkpoints are a single-file container: an 8-byte magic, a JSON header
(format version, encoder configuration, tensor manifest), the tensors as
little-endian float64 in manifest order, and a SHA-256 digest of everything
before it. Registries reuse the container with one extra tensor (the
prototype matrix) and a metadata section.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import re
from dataclasses import dataclass, field

import numpy as np

from . import nn
from .atomic import atomic_open
from .errors import (
    CheckpointChecksumError,
    CheckpointFormatError,
    CheckpointTruncatedError,
    CheckpointVersionError,
    InputError,
    ParameterError,
    ShapeError,
)

#: Dimension of the hashed bag-of-tokens report vector.
REPORT_HASH_DIM = 512

_MAGIC = b"ECGAUTH1"
_FORMAT_VERSION = 1


@dataclass(frozen=True)
class EncoderConfig:
    """Architecture hyperparameters for the dual encoder."""

    n_blocks: int = 4
    channels: tuple[int, ...] = (16, 32, 64, 128)
    kernel_size: int = 7
    embed_dim: int = 128
    proj_dim: int = 64

    def __post_init__(self):
        object.__setattr__(self, "channels", tuple(int(c) for c in self.channels))
        if self.n_blocks < 1:
            raise ParameterError("n_blocks must be >= 1")
        if len(self.channels) != self.n_blocks:
            raise ParameterError("channels must list one width per block")
        if any(c < 1 for c in self.channels):
            raise ParameterError("channel widths must be positive")
        if self.kernel_size < 1 or self.kernel_size % 2 == 0:
            raise ParameterError("kernel_size must be odd and >= 1")
        if self.embed_dim < 1 or self.proj_dim < 1:
            raise ParameterError("embed_dim and proj_dim must be positive")


@dataclass
class ModelParams:
    """All tensors of the dual encoder plus the configuration that shaped them.

    ``params`` holds the trainable tensors (signal branch, report linear map,
    both projection heads) keyed by dotted layer name; ``buffers`` holds the
    non-trainable batch-norm running statistics.
    """

    config: EncoderConfig
    input_length: int
    params: dict[str, np.ndarray] = field(default_factory=dict)
    buffers: dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def parameter_count(self) -> int:
        return int(sum(v.size for v in self.params.values()))

    def copy(self) -> "ModelParams":
        return ModelParams(
            config=self.config,
            input_length=self.input_length,
            params={k: v.copy() for k, v in self.params.items()},
            buffers={k: v.copy() for k, v in self.buffers.items()},
        )

    def checksum(self) -> str:
        """SHA-256 over all tensors in manifest order (params, then buffers)."""
        h = hashlib.sha256()
        for key in sorted(self.params):
            h.update(np.ascontiguousarray(self.params[key], dtype="<f8").tobytes())
        for key in sorted(self.buffers):
            h.update(np.ascontiguousarray(self.buffers[key], dtype="<f8").tobytes())
        return h.hexdigest()


class DualEncoder:
    """Layer graph for one (config, input_length) pair.

    ``forward_signal``/``forward_report`` return their output together with
    a tape of the intermediate activations needed for reverse-mode
    differentiation; the matching ``backward_*`` call takes that tape and
    returns per-tensor gradients. The model itself holds no per-call state.
    """

    def __init__(self, config: EncoderConfig, input_length: int):
        input_length = int(input_length)
        if input_length < 2 or input_length % 2:
            raise ParameterError("input_length must be even and >= 2")
        self.config = config
        self.input_length = input_length

        k = config.kernel_size
        layers = [
            nn.Conv1d("stem.conv", 1, config.channels[0], k, stride=2),
            nn.BatchNorm1d("stem.bn", config.channels[0]),
            nn.ReLU(),
        ]
        c_in = config.channels[0]
        for i, c_out in enumerate(config.channels):
            layers.append(nn.ResidualBlock(f"block{i}", c_in, c_out, k))
            c_in = c_out
        layers.append(nn.GlobalAvgPool())
        layers.append(nn.Linear("embed", c_in, config.embed_dim))
        self.signal_chain = nn.Chain(layers)

        d, p = config.embed_dim, config.proj_dim
        self.signal_proj = nn.Chain([
            nn.Linear("proj_s.fc1", d, d), nn.ReLU(),
            nn.Linear("proj_s.fc2", d, p), nn.L2Normalize(),
        ])
        self.report_linear = nn.Chain([nn.Linear("f_r.linear", REPORT_HASH_DIM, d)])
        self.report_proj = nn.Chain([
            nn.Linear("proj_r.fc1", d, d), nn.ReLU(),
            nn.Linear("proj_r.fc2", d, p), nn.L2Normalize(),
        ])

    # ------------------------------------------------------------------
    # initialization

    def init_params(self, seed: int) -> ModelParams:
        """Allocate parameters with uniform fan-in scaling from a fixed seed.

        Weights draw from U(-1/sqrt(fan_in), 1/sqrt(fan_in)) in construction
        order; biases start at zero, batch-norm at identity, running
        statistics at mean 0 / variance 1. Bit-reproducible per seed.
        """
        params, buffers = self._init_tensors(np.random.default_rng(seed))
        return ModelParams(
            config=self.config,
            input_length=self.input_length,
            params=params,
            buffers=buffers,
        )

    def tensor_shapes(self) -> dict[str, tuple[int, ...]]:
        """The shape of every parameter and buffer; draws no random numbers."""
        params, buffers = self._init_tensors(_NoDraws())
        return {k: v.shape for k, v in {**params, **buffers}.items()}

    def _init_tensors(self, rng):
        params: dict[str, np.ndarray] = {}
        buffers: dict[str, np.ndarray] = {}
        for chain in (self.signal_chain, self.signal_proj,
                      self.report_linear, self.report_proj):
            chain.init(params, buffers, rng)
        return params, buffers

    # ------------------------------------------------------------------
    # signal branch

    def _check_batch(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2:
            raise ShapeError("expected a (batch, length) array of segments")
        if x.shape[1] != self.input_length:
            raise ShapeError(
                f"segment length {x.shape[1]} does not match configured "
                f"input length {self.input_length}"
            )
        return x

    def forward_signal(self, mp: ModelParams, x: np.ndarray, train: bool = True,
                       project: bool = False):
        """Embed (and optionally project) a batch of segments -> (output, tape)."""
        x = self._check_batch(x)
        h, tape = self.signal_chain.forward(mp.params, mp.buffers, x[:, None, :], train)
        proj_tape = None
        if project:
            h, proj_tape = self.signal_proj.forward(mp.params, mp.buffers, h, train)
        return h, (tape, proj_tape)

    def backward_signal(self, mp: ModelParams, d_out: np.ndarray,
                        tape) -> dict[str, np.ndarray]:
        """Gradients of a scalar loss w.r.t. signal-branch tensors.

        ``d_out`` is the loss gradient at the output of the forward pass that
        returned ``tape`` (projected or embedding space, matching that call).
        """
        chain_tape, proj_tape = tape
        grads: dict[str, np.ndarray] = {}
        d = np.asarray(d_out, dtype=np.float64)
        if proj_tape is not None:
            d = self.signal_proj.backward(mp.params, d, proj_tape, grads)
        self.signal_chain.backward(mp.params, d, chain_tape, grads)
        return grads

    # ------------------------------------------------------------------
    # report branch

    def forward_report(self, mp: ModelParams, hashed: np.ndarray, train: bool = True,
                       project: bool = False):
        """Embed (and optionally project) hashed report vectors -> (output, tape)."""
        hashed = np.asarray(hashed, dtype=np.float64)
        if hashed.ndim != 2 or hashed.shape[1] != REPORT_HASH_DIM:
            raise ShapeError(f"hashed reports must be (batch, {REPORT_HASH_DIM})")
        h, tape = self.report_linear.forward(mp.params, mp.buffers, hashed, train)
        proj_tape = None
        if project:
            h, proj_tape = self.report_proj.forward(mp.params, mp.buffers, h, train)
        return h, (tape, proj_tape)

    def backward_report(self, mp: ModelParams, d_out: np.ndarray,
                        tape) -> dict[str, np.ndarray]:
        chain_tape, proj_tape = tape
        grads: dict[str, np.ndarray] = {}
        d = np.asarray(d_out, dtype=np.float64)
        if proj_tape is not None:
            d = self.report_proj.backward(mp.params, d, proj_tape, grads)
        self.report_linear.backward(mp.params, d, chain_tape, grads)
        return grads


class _NoDraws:
    """Stands in for the init RNG where only tensor shapes are wanted: each
    draw is a zero-byte broadcast view of the requested shape."""

    @staticmethod
    def uniform(low, high, size):
        return np.broadcast_to(0.0, size)


def build_model(mp: ModelParams) -> DualEncoder:
    """The layer graph matching a parameter set.

    The graph holds no per-call state, so one instance per (config,
    input_length) is built and shared; single-beat inference would
    otherwise spend a few percent of each call rebuilding it.
    """
    return _layer_graph(mp.config, mp.input_length)


@functools.lru_cache(maxsize=8)
def _layer_graph(config: EncoderConfig, input_length: int) -> DualEncoder:
    return DualEncoder(config, input_length)


def init_params(config: EncoderConfig, input_length: int, seed: int) -> ModelParams:
    """Initialize fresh parameters for the given architecture and seed."""
    return DualEncoder(config, input_length).init_params(seed)


# ----------------------------------------------------------------------
# pure inference helpers

# Windows per pass through the conv trunk. For the default encoder on
# 500-sample windows, block 0's im2col columns take 112 KB per window:
# 28.7 MB at 256 windows, against a 2 MiB L2 cache per core. Chunks of 8 to
# 32 windows ran equally fast, and 256-window chunks 1.5x slower per window.
# 32 is also the training batch size, so inference allocates nothing larger
# than a training step does.
_ENCODE_CHUNK = 32


def encode_signal_batch(mp: ModelParams, x: np.ndarray) -> np.ndarray:
    """Inference-mode embeddings for a (batch, length) array of windows.

    Runs the signal chain's layers one at a time with the same ``forward``
    code as training (``train=False``) but keeps no tape: each layer's
    backward cache is dropped as soon as its output exists. The chain runs
    ``_ENCODE_CHUNK`` windows at a time, so its activations stay
    cache-sized. In eval mode every layer is per-window, so a window's
    embedding does not depend on the chunk size or on the other windows in
    the batch, and it matches the taped ``forward_signal`` exactly.
    """
    model = build_model(mp)
    x = model._check_batch(x)
    out = []
    # an empty batch still makes one pass, so it keeps its (0, embed_dim) shape
    for start in range(0, max(x.shape[0], 1), _ENCODE_CHUNK):
        h = x[start : start + _ENCODE_CHUNK, None, :]
        for layer in model.signal_chain.layers:
            h = layer.forward(mp.params, mp.buffers, h, False)[0]
        out.append(h)
    return np.concatenate(out, axis=0)


def encode_signal(mp: ModelParams, segment) -> np.ndarray:
    """Inference-mode embedding of one beat segment (pure per-sample map)."""
    window = segment.window if hasattr(segment, "window") else np.asarray(segment)
    return encode_signal_batch(mp, window[None, :])[0]


def tokenize_report(text: str) -> list[str]:
    """Lowercase tokens: maximal runs of [a-z0-9]; punctuation separates."""
    return re.findall(r"[a-z0-9]+", text.lower())


def hash_report(text: str) -> np.ndarray:
    """Hashed bag-of-tokens vector: blake2b-64(token) mod 512, counts, L2-normalized.

    The hash is fixed and platform-stable (little-endian 8-byte blake2b
    digest), so equal texts produce bit-equal vectors everywhere.
    """
    tokens = tokenize_report(text)
    if not tokens:
        raise InputError("report text has no tokens")
    v = np.zeros(REPORT_HASH_DIM)
    for tok in tokens:
        digest = hashlib.blake2b(tok.encode("utf-8"), digest_size=8).digest()
        v[int.from_bytes(digest, "little") % REPORT_HASH_DIM] += 1.0
    return v / np.sqrt((v * v).sum())


def hash_reports(texts) -> np.ndarray:
    return np.stack([hash_report(t) for t in texts])


def encode_report(mp: ModelParams, text: str) -> np.ndarray:
    """Inference-mode embedding of one report text."""
    out, _ = build_model(mp).forward_report(mp, hash_report(text)[None, :], train=False)
    return out[0]


def project(mp: ModelParams, embedding: np.ndarray, head: str) -> np.ndarray:
    """Apply a projection head ('signal' or 'report') to embeddings.

    Accepts a single embedding or a batch; outputs are unit-norm rows.
    """
    if head not in ("signal", "report"):
        raise InputError("head must be 'signal' or 'report'")
    e = np.asarray(embedding, dtype=np.float64)
    single = e.ndim == 1
    if single:
        e = e[None, :]
    if e.shape[1] != mp.config.embed_dim:
        raise ShapeError(f"embedding width must be {mp.config.embed_dim}")
    model = build_model(mp)
    chain = model.signal_proj if head == "signal" else model.report_proj
    out, _ = chain.forward(mp.params, mp.buffers, e, False)
    return out[0] if single else out


# ----------------------------------------------------------------------
# checkpoint container

def _manifest_for(mp: ModelParams, extra_tensors: dict[str, np.ndarray]):
    manifest = []
    for key in sorted(mp.params):
        manifest.append({"name": key, "shape": list(mp.params[key].shape), "group": "param"})
    for key in sorted(mp.buffers):
        manifest.append({"name": key, "shape": list(mp.buffers[key].shape), "group": "buffer"})
    for key in sorted(extra_tensors):
        manifest.append({"name": key, "shape": list(extra_tensors[key].shape), "group": "extra"})
    return manifest


def save_container(path, kind: str, mp: ModelParams,
                   extra_tensors: dict[str, np.ndarray] | None = None,
                   metadata: dict | None = None) -> None:
    """Write a checkpoint/registry container (deterministic bytes)."""
    extra_tensors = extra_tensors or {}
    header = {
        "format_version": _FORMAT_VERSION,
        "kind": kind,
        "encoder": dataclasses.asdict(mp.config),
        "input_length": mp.input_length,
        "manifest": _manifest_for(mp, extra_tensors),
        "metadata": metadata or {},
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    blob = bytearray()
    blob += _MAGIC
    blob += len(header_bytes).to_bytes(8, "little")
    blob += header_bytes
    groups = {"param": mp.params, "buffer": mp.buffers, "extra": extra_tensors}
    for entry in header["manifest"]:
        tensor = groups[entry["group"]][entry["name"]]
        blob += np.ascontiguousarray(tensor, dtype="<f8").tobytes()
    blob += hashlib.sha256(bytes(blob)).digest()
    with atomic_open(path, "wb") as fh:
        fh.write(bytes(blob))


def load_container(path, expected_kind: str):
    """Read a container, verifying magic, version, sizes, and checksum.

    Returns:
        (ModelParams, extra_tensors, metadata)

    Raises:
        CheckpointVersionError: unknown magic or format version.
        CheckpointTruncatedError: file ends before declared content.
        CheckpointChecksumError: stored digest does not match content.
        CheckpointFormatError: structural problems (manifest, kind, shapes).
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < len(_MAGIC) + 8:
        raise CheckpointTruncatedError(f"{path}: file shorter than container preamble")
    if raw[: len(_MAGIC)] != _MAGIC:
        raise CheckpointVersionError(f"{path}: not a recognized container (bad magic)")
    header_len = int.from_bytes(raw[len(_MAGIC) : len(_MAGIC) + 8], "little")
    body_start = len(_MAGIC) + 8
    if len(raw) < body_start + header_len:
        raise CheckpointTruncatedError(f"{path}: truncated header")
    try:
        header = json.loads(raw[body_start : body_start + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointFormatError(f"{path}: unreadable header ({exc})") from exc
    version = header.get("format_version")
    if version != _FORMAT_VERSION:
        raise CheckpointVersionError(
            f"{path}: format version {version!r} is not supported (expected {_FORMAT_VERSION})"
        )
    kind = header.get("kind")
    if kind != expected_kind:
        raise CheckpointFormatError(f"{path}: container kind {kind!r}, expected {expected_kind!r}")

    try:
        manifest = header["manifest"]
        payload = sum(int(np.prod(e["shape"], dtype=np.int64)) for e in manifest) * 8
        section = header["encoder"]
        if set(section) != {f.name for f in dataclasses.fields(EncoderConfig)}:
            raise CheckpointFormatError(
                f"{path}: encoder header keys {sorted(section)} do not match "
                "the encoder configuration fields")
        config = EncoderConfig(**section)
        input_length = int(header["input_length"])
    except (KeyError, TypeError, ValueError, ParameterError) as exc:
        raise CheckpointFormatError(f"{path}: invalid header structure ({exc})") from exc

    total = body_start + header_len + payload + 32
    if len(raw) < total:
        raise CheckpointTruncatedError(
            f"{path}: expected {total} bytes, found {len(raw)}"
        )
    if len(raw) > total:
        raise CheckpointFormatError(f"{path}: {len(raw) - total} trailing bytes")
    if hashlib.sha256(raw[:-32]).digest() != raw[-32:]:
        raise CheckpointChecksumError(f"{path}: content does not match stored digest")

    params: dict[str, np.ndarray] = {}
    buffers: dict[str, np.ndarray] = {}
    extra: dict[str, np.ndarray] = {}
    groups = {"param": params, "buffer": buffers, "extra": extra}
    offset = body_start + header_len
    for entry in manifest:
        shape = tuple(int(s) for s in entry["shape"])
        size = int(np.prod(shape, dtype=np.int64)) * 8
        tensor = np.frombuffer(raw, dtype="<f8", count=size // 8, offset=offset)
        groups[entry["group"]][entry["name"]] = tensor.reshape(shape).astype(np.float64)
        offset += size

    mp = ModelParams(config=config, input_length=input_length, params=params, buffers=buffers)
    _validate_shapes(mp, path)
    return mp, extra, header.get("metadata", {})


def _validate_shapes(mp: ModelParams, path):
    """Reject containers whose tensors do not fit the declared architecture."""
    try:
        ref_shapes = _layer_graph(mp.config, mp.input_length).tensor_shapes()
    except ParameterError as exc:
        raise CheckpointFormatError(f"{path}: invalid architecture ({exc})") from exc
    got_shapes = {k: v.shape for k, v in mp.params.items()}
    got_shapes.update({k: v.shape for k, v in mp.buffers.items()})
    if ref_shapes != got_shapes:
        missing = sorted(set(ref_shapes) - set(got_shapes))
        surplus = sorted(set(got_shapes) - set(ref_shapes))
        mismatched = sorted(
            k for k in set(ref_shapes) & set(got_shapes) if ref_shapes[k] != got_shapes[k]
        )
        raise CheckpointFormatError(
            f"{path}: tensor manifest does not match the declared architecture "
            f"(missing={missing}, surplus={surplus}, mismatched={mismatched})"
        )


def save_checkpoint(mp: ModelParams, path, metadata: dict | None = None) -> None:
    """Write encoder parameters as a 'checkpoint' container."""
    save_container(path, "checkpoint", mp, metadata=metadata)


def load_checkpoint(path) -> ModelParams:
    """Read a 'checkpoint' container back into ModelParams."""
    mp, _, _ = load_container(path, "checkpoint")
    return mp
