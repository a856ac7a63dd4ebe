"""Dual-branch encoder: residual 1-D conv net for beats, hashed linear map for reports.

The signal encoder is an initial stride-2 convolution followed by
``n_blocks`` residual blocks (each downsampling by 2), global average
pooling, and a linear embedding layer. Authentication embeds beats with it
alone. The pretraining heads exist only for contrastive alignment: a
projection head on the signal embedding, and the report branch, which
hashes the text into a fixed 512-bin bag-of-tokens vector, maps it to the
embedding width and projects it. Both projection heads are
linear-ReLU-linear, then L2 normalization. The layer graph
(``DualEncoder.signal_chain``) is the one place that names the signal
encoder's tensors.

Both entry points hand the conv trunk a ``(1, batch, length)`` array: its
activations are channel-major (``nn``). A training step runs each conv as
one GEMM over the whole batch. Inference runs a folded copy of the signal
encoder (``fold_signal_encoder``): each batch norm's running statistics are
folded into the conv before it, and ``encode_signal_batch`` runs the result
through the training layers' forward code, one GEMM per window and one
32-window chunk at a time, with no tape. A window's embedding is
bit-identical whatever batch or chunk it comes in, and it differs from the
unfolded eval-mode graph by rounding only. The folded tensors are derived,
never saved.

Checkpoints are a single-file container: an 8-byte magic, a JSON header
(format version, encoder configuration, tensor manifest), the tensors as
little-endian float64 in manifest order, and a SHA-256 digest of everything
before it. A checkpoint holds the whole graph. Registries reuse the
container with the signal encoder's tensors only, one extra tensor (the
prototype matrix) and a metadata section.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
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

#: (parameter shapes, buffer shapes), each keyed by dotted tensor name.
TensorShapes = tuple[dict[str, tuple[int, ...]], dict[str, tuple[int, ...]]]

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
    """Encoder tensors plus the configuration that shaped them.

    ``params`` holds the trainable tensors keyed by dotted layer name;
    ``buffers`` holds the non-trainable batch-norm running statistics.
    Initialization and pretraining carry the whole graph (signal encoder and
    pretraining heads); fine-tuning and registries carry the signal encoder
    alone (``signal_encoder``).
    """

    config: EncoderConfig
    input_length: int
    params: dict[str, np.ndarray] = field(default_factory=dict)
    buffers: dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def parameter_count(self) -> int:
        return int(sum(v.size for v in self.params.values()))

    def signal_encoder(self) -> "ModelParams":
        """An independent copy of the signal encoder's tensors alone, as the
        layer graph names them: what fine-tuning trains and a registry
        stores."""
        params, buffers = _layer_graph(self.config, self.input_length).signal_shapes()
        return ModelParams(
            config=self.config,
            input_length=self.input_length,
            params={k: v.copy() for k, v in self.params.items() if k in params},
            buffers={k: v.copy() for k, v in self.buffers.items() if k in buffers},
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

    ``signal_chain`` is the signal encoder; ``signal_proj`` and
    ``report_chain`` (report linear map plus its projection head) are the
    pretraining heads. ``forward_signal``/``forward_report`` run in
    training mode and return their output together with a tape of the
    intermediate activations needed for reverse-mode differentiation; the
    matching ``backward_*`` call takes that tape and returns per-tensor
    gradients. ``conv_norms`` and ``folded_layers`` are the signal chain as
    inference runs it (``fold_signal_encoder``, ``encode_signal_batch``).
    The model itself holds no per-call state.
    """

    def __init__(self, config: EncoderConfig, input_length: int):
        input_length = int(input_length)
        if input_length < 2 or input_length % 2:
            raise ParameterError("input_length must be even and >= 2")
        self.config = config
        self.input_length = input_length

        k = config.kernel_size
        stem = nn.Conv1d("stem.conv", 1, config.channels[0], k, stride=2)
        stem_bn = nn.BatchNorm1d("stem.bn", config.channels[0])
        relu, pool = nn.ReLU(), nn.GlobalAvgPool()
        blocks = []
        c_in = config.channels[0]
        for i, c_out in enumerate(config.channels):
            blocks.append(nn.ResidualBlock(f"block{i}", c_in, c_out, k))
            c_in = c_out
        self.embed = nn.Linear("embed", c_in, config.embed_dim)
        self.signal_chain = nn.Chain([stem, stem_bn, relu, *blocks, pool, self.embed])
        # inference: the signal chain with each batch norm folded into the
        # conv before it (fold_signal_encoder)
        self.conv_norms = [(stem, stem_bn)] + [pair for b in blocks for pair in b.conv_norms]
        self.folded_layers = [stem, relu, *blocks, pool, self.embed]

        d, p = config.embed_dim, config.proj_dim
        self.signal_proj = nn.Chain([
            nn.Linear("proj_s.fc1", d, d), nn.ReLU(),
            nn.Linear("proj_s.fc2", d, p), nn.L2Normalize(),
        ])
        self.report_chain = nn.Chain([
            nn.Linear("f_r.linear", REPORT_HASH_DIM, d),
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
        params, buffers = _init_tensors(self._chains(), np.random.default_rng(seed))
        return ModelParams(
            config=self.config,
            input_length=self.input_length,
            params=params,
            buffers=buffers,
        )

    def tensor_shapes(self) -> TensorShapes:
        """(parameter shapes, buffer shapes) of the whole graph (a
        checkpoint's tensors); draws no random numbers."""
        return _shapes(self._chains())

    def signal_shapes(self) -> TensorShapes:
        """(parameter shapes, buffer shapes) of the signal encoder (a
        registry's tensors); draws no random numbers."""
        return _shapes([self.signal_chain])

    def _chains(self):
        # construction order, which is also the initialization draw order
        return [self.signal_chain, self.signal_proj, self.report_chain]

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

    def forward_signal(self, mp: ModelParams, x: np.ndarray, project: bool = False):
        """Embed (and optionally project) a batch of segments in training
        mode -> (output, tape)."""
        x = self._check_batch(x)
        h, tape = self.signal_chain.forward(mp.params, mp.buffers, x[None, :, :], True)
        proj_tape = None
        if project:
            h, proj_tape = self.signal_proj.forward(mp.params, mp.buffers, h, True)
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
    # report branch (pretraining only)

    def forward_report(self, mp: ModelParams, hashed: np.ndarray):
        """Project hashed report vectors onto the unit sphere, in training
        mode -> (output, tape)."""
        hashed = np.asarray(hashed, dtype=np.float64)
        if hashed.ndim != 2 or hashed.shape[1] != REPORT_HASH_DIM:
            raise ShapeError(f"hashed reports must be (batch, {REPORT_HASH_DIM})")
        return self.report_chain.forward(mp.params, mp.buffers, hashed, True)

    def backward_report(self, mp: ModelParams, d_out: np.ndarray,
                        tape) -> dict[str, np.ndarray]:
        """Gradients of a scalar loss w.r.t. report-branch tensors, given the
        loss gradient at the projected output."""
        grads: dict[str, np.ndarray] = {}
        self.report_chain.backward(mp.params, np.asarray(d_out, dtype=np.float64),
                                   tape, grads)
        return grads


def _init_tensors(chains, rng):
    params: dict[str, np.ndarray] = {}
    buffers: dict[str, np.ndarray] = {}
    for chain in chains:
        chain.init(params, buffers, rng)
    return params, buffers


def _shapes(chains) -> TensorShapes:
    params, buffers = _init_tensors(chains, _NoDraws())
    return ({k: v.shape for k, v in params.items()},
            {k: v.shape for k, v in buffers.items()})


class _NoDraws:
    """Stands in for the init RNG where only tensor shapes are wanted: each
    draw is a zero-byte broadcast view of the requested shape."""

    @staticmethod
    def uniform(low, high, size):
        return np.broadcast_to(0.0, size)


def tensor_mismatch(mp: ModelParams, shapes: TensorShapes) -> str:
    """'' when ``mp`` holds exactly the named parameters and buffers, each
    in its own group, at these shapes; otherwise each wrong group's
    missing, surplus and mismatched names."""
    problems = []
    for group, tensors, want in (("params", mp.params, shapes[0]),
                                 ("buffers", mp.buffers, shapes[1])):
        got = {k: v.shape for k, v in tensors.items()}
        if got == want:
            continue
        missing = sorted(set(want) - set(got))
        surplus = sorted(set(got) - set(want))
        mismatched = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        problems.append(f"{group}: missing={missing}, surplus={surplus}, "
                        f"mismatched={mismatched}")
    return "; ".join(problems)


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


@dataclass(frozen=True, eq=False)
class FoldedEncoder:
    """The signal encoder as inference runs it (``fold_signal_encoder``).

    ``tensors`` holds each conv's folded weight and bias and the ``embed``
    layer's, under the layer graph's names; no batch-norm tensor is left.
    """

    config: EncoderConfig
    input_length: int
    tensors: dict[str, np.ndarray]


def fold_signal_encoder(mp: ModelParams) -> FoldedEncoder:
    """Fold each batch norm of the signal encoder into the conv before it.

    With sigma = sqrt(running_var + eps), the conv weight becomes
    W * gamma / sigma and its bias (b - running_mean) * gamma / sigma + beta,
    per output channel, so a conv followed by an eval-mode batch norm is one
    conv. Pure: the result shares no array with ``mp``.
    """
    model = build_model(mp)
    p, buf = mp.params, mp.buffers
    tensors = {k: p[k].copy() for k in (f"{model.embed.name}.weight",
                                        f"{model.embed.name}.bias")}
    for conv, bn in model.conv_norms:
        sigma = np.sqrt(buf[f"{bn.name}.running_var"] + nn._BN_EPS)
        scale = p[f"{bn.name}.gamma"] / sigma
        mean = buf[f"{bn.name}.running_mean"]
        tensors[f"{conv.name}.weight"] = p[f"{conv.name}.weight"] * scale[:, None, None]
        tensors[f"{conv.name}.bias"] = (p[f"{conv.name}.bias"] - mean) * scale + p[f"{bn.name}.beta"]
    return FoldedEncoder(config=mp.config, input_length=mp.input_length, tensors=tensors)


def encode_signal_batch(enc: FoldedEncoder, x: np.ndarray) -> np.ndarray:
    """Embeddings for a (batch, length) array of windows: the one inference
    path.

    Runs the folded signal encoder through the same ``forward`` code as
    training (``train=False``), with ``ResidualBlock.infer`` wiring each
    block, and keeps no tape. It runs ``_ENCODE_CHUNK`` windows at a time,
    so its activations stay cache-sized. Every layer is per-window, so a
    window's embedding does not depend on the chunk size or on the other
    windows in the batch.
    """
    model = _layer_graph(enc.config, enc.input_length)
    x = model._check_batch(x)
    tensors = enc.tensors
    out = []
    # an empty batch still makes one pass, so it keeps its (0, embed_dim) shape
    for start in range(0, max(x.shape[0], 1), _ENCODE_CHUNK):
        h = x[None, start : start + _ENCODE_CHUNK, :]
        for layer in model.folded_layers:
            if isinstance(layer, nn.ResidualBlock):
                h = layer.infer(tensors, h)
            else:
                h = layer.forward(tensors, None, h, False)[0]
        out.append(h)
    return np.concatenate(out, axis=0)


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


def _manifest_entries(path, manifest) -> list[tuple[str, str, tuple[int, ...], int]]:
    """(group, name, shape, element count) per manifest entry, each field
    checked once; a malformed entry is a CheckpointFormatError naming it."""
    if not isinstance(manifest, list):
        raise CheckpointFormatError(f"{path}: manifest is not a list")
    entries = []
    for k, entry in enumerate(manifest):
        if not isinstance(entry, dict) or not isinstance(entry.get("name"), str):
            raise CheckpointFormatError(f"{path}: manifest entry {k} has no tensor name")
        name, group, shape = entry["name"], entry.get("group"), entry.get("shape")
        if group not in ("param", "buffer", "extra"):
            raise CheckpointFormatError(
                f"{path}: manifest entry {name!r} has group {group!r}, expected "
                "'param', 'buffer' or 'extra'")
        # bool is an int subclass; JSON true/false is no dimension
        if not isinstance(shape, list) or not all(type(d) is int and d >= 0 for d in shape):
            raise CheckpointFormatError(
                f"{path}: manifest entry {name!r} has shape {shape!r}; dimensions "
                "must be non-negative integers")
        entries.append((group, name, tuple(shape), math.prod(shape)))
    return entries


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
    """Read a container, verifying magic, version, sizes, checksum, and
    that the declared architecture builds. Which tensors it must hold is
    the caller's check (``load_checkpoint``, ``authsys.load_registry``).

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
        entries = _manifest_entries(path, header["manifest"])
        section = header["encoder"]
        if set(section) != {f.name for f in dataclasses.fields(EncoderConfig)}:
            raise CheckpointFormatError(
                f"{path}: encoder header keys {sorted(section)} do not match "
                "the encoder configuration fields")
        config = EncoderConfig(**section)
        input_length = int(header["input_length"])
        _layer_graph(config, input_length)
    except (KeyError, TypeError, ValueError, ParameterError) as exc:
        raise CheckpointFormatError(f"{path}: invalid header structure ({exc})") from exc

    total = body_start + header_len + 8 * sum(count for *_, count in entries) + 32
    if len(raw) < total:
        raise CheckpointTruncatedError(
            f"{path}: expected {total} bytes, found {len(raw)}"
        )
    if len(raw) > total:
        raise CheckpointFormatError(f"{path}: {len(raw) - total} trailing bytes")
    if hashlib.sha256(memoryview(raw)[:-32]).digest() != raw[-32:]:
        raise CheckpointChecksumError(f"{path}: content does not match stored digest")

    params: dict[str, np.ndarray] = {}
    buffers: dict[str, np.ndarray] = {}
    extra: dict[str, np.ndarray] = {}
    groups = {"param": params, "buffer": buffers, "extra": extra}
    offset = body_start + header_len
    for group, name, shape, count in entries:
        tensor = np.frombuffer(raw, dtype="<f8", count=count, offset=offset)
        groups[group][name] = tensor.reshape(shape).astype(np.float64)
        offset += 8 * count

    mp = ModelParams(config=config, input_length=input_length, params=params, buffers=buffers)
    return mp, extra, header.get("metadata", {})


def save_checkpoint(mp: ModelParams, path, metadata: dict | None = None) -> None:
    """Write encoder parameters as a 'checkpoint' container."""
    save_container(path, "checkpoint", mp, metadata=metadata)


def load_checkpoint(path) -> ModelParams:
    """Read a 'checkpoint' container back into ModelParams.

    The container must hold exactly the whole graph's tensors at their
    declared shapes; anything else is a CheckpointFormatError.
    """
    mp, _, _ = load_container(path, "checkpoint")
    problem = tensor_mismatch(mp, build_model(mp).tensor_shapes())
    if problem:
        raise CheckpointFormatError(
            f"{path}: tensor manifest does not match the declared architecture "
            f"({problem})")
    return mp
