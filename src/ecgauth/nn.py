"""Minimal float64 layer primitives with explicit reverse-mode backward passes.

Each layer is a stateless object: ``forward`` returns the output plus a cache
of the intermediate activations that ``backward`` needs; a chain of layers
keeps the per-layer caches as a tape and replays them in reverse. Parameters
and non-trainable buffers (batch-norm running statistics) live in plain
``dict[str, np.ndarray]`` keyed by dotted layer names.

Convolutional activations are channel-major, ``(channels, batch, length)``,
up to ``GlobalAvgPool``, which hands ``Linear`` row vectors ``(batch,
width)``. In training each conv is one GEMM over the whole batch, and its
weight gradient is one more, with no operand copied. At inference
(``train=False``) each conv runs one GEMM per window on that window's own
columns, as ``Linear`` runs one matrix-vector product per row: BLAS rounds
a product differently for different widths, and a scored window must not
depend on the batch it came in.

Batch norm runs in training only, on batch statistics. Inference has no
batch norm: ``encoder.fold_signal_encoder`` folds each one's running
statistics into the conv before it, and the folded tensors run through the
same ``Conv1d``, ``ReLU``, ``GlobalAvgPool`` and ``Linear`` forward code
(``train=False``), with ``ResidualBlock.infer`` wiring a block.

To save allocations, some layers write their result over an array they were
handed: batch norm over the convolution output it normalizes, ReLU over its
input, a backward pass over the gradient it received. Each does so only
where the array was freshly made by the layer before it and no cache holds
it; the comment at each such write names the array.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError, StateError

_BN_EPS = 1e-5
_BN_MOMENTUM = 0.1
_NORM_FLOOR = 1e-12


class Conv1d:
    """1-D convolution with odd kernel, half padding, and integer stride."""

    def __init__(self, name: str, c_in: int, c_out: int, kernel: int, stride: int = 1):
        if kernel < 1 or kernel % 2 == 0:
            raise ShapeError("conv kernel must be odd and >= 1")
        self.name = name
        self.c_in, self.c_out = int(c_in), int(c_out)
        self.kernel, self.stride = int(kernel), int(stride)
        self.pad = kernel // 2

    def init(self, params, buffers, rng):
        bound = 1.0 / np.sqrt(self.c_in * self.kernel)
        params[f"{self.name}.weight"] = rng.uniform(
            -bound, bound, (self.c_out, self.c_in, self.kernel)
        )
        params[f"{self.name}.bias"] = np.zeros(self.c_out)

    def forward(self, params, buffers, x, train):
        c, b, length = x.shape
        if c != self.c_in:
            raise ShapeError(f"{self.name}: expected {self.c_in} channels, got {c}")
        k, s, p = self.kernel, self.stride, self.pad
        l_out = (length + 2 * p - k) // s + 1
        xp = np.zeros((c, b, length + 2 * p))
        xp[:, :, p : p + length] = x
        w = params[f"{self.name}.weight"].reshape(self.c_out, c * k)
        # im2col in one copy: tap j of a taps view of xp is xp[:, :, j::s];
        # the copy is C-contiguous, as the matmuls expect
        sc, sb, sl = xp.strides
        if train:
            # one GEMM over the whole batch on (c*k, b*l_out) columns
            taps = np.ndarray((c, k, b, l_out), xp.dtype, xp, 0, (sc, sl, sb, s * sl))
            cols = np.ascontiguousarray(taps).reshape(c * k, b, l_out)
            y = (w @ cols.reshape(c * k, b * l_out)).reshape(self.c_out, b, l_out)
        else:
            # one GEMM per window, written into that window's slice of y
            taps = np.ndarray((b, c, k, l_out), xp.dtype, xp, 0, (sb, sc, sl, s * sl))
            cols = np.ascontiguousarray(taps).reshape(b, c * k, l_out)
            y = np.empty((self.c_out, b, l_out))
            np.matmul(w, cols, out=y.transpose(1, 0, 2))
        y += params[f"{self.name}.bias"][:, None, None]
        return y, (cols, (c, b, length))

    def backward(self, params, dy, cache, grads):
        cols, (c, b, length) = cache
        k, s, p = self.kernel, self.stride, self.pad
        l_out = dy.shape[2]
        w = params[f"{self.name}.weight"].reshape(self.c_out, c * k)
        dy2 = dy.reshape(self.c_out, b * l_out)
        # BLAS reads the transposed columns in place: no operand is copied
        _accum(grads, f"{self.name}.weight",
               (dy2 @ cols.reshape(c * k, b * l_out).T).reshape(self.c_out, c, k))
        _accum(grads, f"{self.name}.bias", dy2.sum(axis=1))
        dcols = (w.T @ dy2).reshape(c, k, b, l_out)
        # col2im: output t of tap j read x[j - p + s*t]; reads of the zero
        # padding get no gradient, so only the t that land inside x are added
        dx = np.zeros((c, b, length))
        for j in range(k):
            t0 = max(0, -((j - p) // s))
            t1 = min(l_out, (length - 1 - j + p) // s + 1)
            if t1 > t0:
                start = j - p + s * t0
                dx[:, :, start : start + s * (t1 - t0) : s] += dcols[:, j, :, t0:t1]
        return dx


class BatchNorm1d:
    """Per-channel batch normalization over (batch, length).

    Uses population batch statistics and updates running averages with
    momentum 0.1; epsilon is 1e-5. It runs in training only: inference folds
    the running averages into the conv before it, and ``forward`` with
    ``train=False`` raises ``StateError``. The input is always a
    convolution's fresh output, which no cache holds, so ``forward`` writes
    its result over it.
    """

    def __init__(self, name: str, channels: int):
        self.name = name
        self.channels = int(channels)

    def init(self, params, buffers, rng):
        params[f"{self.name}.gamma"] = np.ones(self.channels)
        params[f"{self.name}.beta"] = np.zeros(self.channels)
        buffers[f"{self.name}.running_mean"] = np.zeros(self.channels)
        buffers[f"{self.name}.running_var"] = np.ones(self.channels)

    def forward(self, params, buffers, x, train):
        if not train:
            raise StateError(f"{self.name}: batch norm runs in training only; "
                             "inference folds it into the conv before it")
        c = x.shape[0]
        n = x.size // c
        gamma = params[f"{self.name}.gamma"][:, None]
        beta = params[f"{self.name}.beta"][:, None]
        # one row per channel, so each reduction runs along a contiguous axis
        rows = x.reshape(c, n)
        mu = rows.mean(axis=1)
        xhat = rows - mu[:, None]
        # the mean squared deviation, as x.var computes it; x is scratch now
        var = np.square(xhat, out=rows).sum(axis=1) / n
        rm, rv = f"{self.name}.running_mean", f"{self.name}.running_var"
        buffers[rm] = (1.0 - _BN_MOMENTUM) * buffers[rm] + _BN_MOMENTUM * mu
        buffers[rv] = (1.0 - _BN_MOMENTUM) * buffers[rv] + _BN_MOMENTUM * var
        invstd = 1.0 / np.sqrt(var + _BN_EPS)
        xhat *= invstd[:, None]
        np.multiply(gamma, xhat, out=rows)
        rows += beta
        return rows.reshape(x.shape), (xhat, invstd)

    def backward(self, params, dy, cache, grads):
        xhat, invstd = cache
        shape, (c, n) = dy.shape, xhat.shape
        # dy is left intact: a residual block hands the same dy to two layers
        dy = dy.reshape(c, n)
        scratch = dy * xhat
        s_dy_xhat = scratch.sum(axis=1)
        s_dy = dy.sum(axis=1)
        _accum(grads, f"{self.name}.gamma", s_dy_xhat)
        _accum(grads, f"{self.name}.beta", s_dy)
        # (gamma * invstd / n) * (n * dy - sum(dy) - xhat * sum(dy * xhat)),
        # written over a fresh n * dy
        dx = dy * n
        dx -= s_dy[:, None]
        dx -= np.multiply(xhat, s_dy_xhat[:, None], out=scratch)
        dx *= (params[f"{self.name}.gamma"] * invstd / n)[:, None]
        return dx.reshape(shape)


class ReLU:
    """Elementwise max(x, 0); the subgradient at 0 is taken as 0."""

    def init(self, params, buffers, rng):
        pass

    def forward(self, params, buffers, x, train):
        # x is the fresh output of a batch norm, conv or linear layer
        mask = x > 0
        x *= mask
        return x, mask

    def backward(self, params, dy, cache, grads):
        # dy is the fresh input gradient of the layer after this one
        dy *= cache
        return dy


class Linear:
    """Affine map on row vectors: y = x W^T + b."""

    def __init__(self, name: str, n_in: int, n_out: int):
        self.name = name
        self.n_in, self.n_out = int(n_in), int(n_out)

    def init(self, params, buffers, rng):
        bound = 1.0 / np.sqrt(self.n_in)
        params[f"{self.name}.weight"] = rng.uniform(-bound, bound, (self.n_out, self.n_in))
        params[f"{self.name}.bias"] = np.zeros(self.n_out)

    def forward(self, params, buffers, x, train):
        if x.shape[1] != self.n_in:
            raise ShapeError(f"{self.name}: expected width {self.n_in}, got {x.shape[1]}")
        w = params[f"{self.name}.weight"]
        if train:
            y = x @ w.T
        else:
            # one matrix-vector product per row: BLAS rounds a GEMM
            # differently for different row counts, and a scored window must
            # not depend on the batch it came in
            y = np.empty((x.shape[0], self.n_out))
            for row, out in zip(x, y):
                np.matmul(w, row, out=out)
        y += params[f"{self.name}.bias"]
        return y, x

    def backward(self, params, dy, cache, grads):
        _accum(grads, f"{self.name}.weight", dy.T @ cache)
        _accum(grads, f"{self.name}.bias", dy.sum(axis=0))
        return dy @ params[f"{self.name}.weight"]


class GlobalAvgPool:
    """Mean over the length axis, back to row vectors: (C, B, L) -> (B, C)."""

    def init(self, params, buffers, rng):
        pass

    def forward(self, params, buffers, x, train):
        return np.ascontiguousarray(x.mean(axis=2).T), (x.shape[2],)

    def backward(self, params, dy, cache, grads):
        (length,) = cache
        return np.repeat(dy.T[:, :, None] / length, length, axis=2)


class L2Normalize:
    """Row-wise x / max(||x||, 1e-12); output rows are unit norm."""

    def init(self, params, buffers, rng):
        pass

    def forward(self, params, buffers, x, train):
        norms = np.sqrt((x * x).sum(axis=1))
        floored = norms < _NORM_FLOOR
        safe = np.maximum(norms, _NORM_FLOOR)
        y = x / safe[:, None]
        return y, (y, safe, floored)

    def backward(self, params, dy, cache, grads):
        y, safe, floored = cache
        dx = (dy - y * (y * dy).sum(axis=1, keepdims=True)) / safe[:, None]
        if floored.any():
            dx[floored] = dy[floored] / _NORM_FLOOR
        return dx


class ResidualBlock:
    """conv-norm-ReLU-conv-norm plus a 1x1 stride-2 projection skip, then ReLU.

    The first convolution and the skip both downsample by stride 2.
    ``conv_norms`` pairs each convolution with the batch norm after it, as
    inference folds them.
    """

    def __init__(self, name: str, c_in: int, c_out: int, kernel: int):
        self.name = name
        self.conv1 = Conv1d(f"{name}.conv1", c_in, c_out, kernel, stride=2)
        self.bn1 = BatchNorm1d(f"{name}.bn1", c_out)
        self.relu = ReLU()
        self.conv2 = Conv1d(f"{name}.conv2", c_out, c_out, kernel, stride=1)
        self.bn2 = BatchNorm1d(f"{name}.bn2", c_out)
        self.skip_conv = Conv1d(f"{name}.skip", c_in, c_out, 1, stride=2)
        self.skip_bn = BatchNorm1d(f"{name}.skip_bn", c_out)
        self.conv_norms = ((self.conv1, self.bn1), (self.conv2, self.bn2),
                           (self.skip_conv, self.skip_bn))

    def init(self, params, buffers, rng):
        for layer in (self.conv1, self.bn1, self.conv2, self.bn2,
                      self.skip_conv, self.skip_bn):
            layer.init(params, buffers, rng)

    def forward(self, params, buffers, x, train):
        h, c1 = self.conv1.forward(params, buffers, x, train)
        h, c2 = self.bn1.forward(params, buffers, h, train)
        h, c3 = self.relu.forward(params, buffers, h, train)
        h, c4 = self.conv2.forward(params, buffers, h, train)
        h, c5 = self.bn2.forward(params, buffers, h, train)
        s, c6 = self.skip_conv.forward(params, buffers, x, train)
        s, c7 = self.skip_bn.forward(params, buffers, s, train)
        h += s  # h is bn2's fresh output; no cache holds it
        mask = h > 0
        h *= mask
        return h, (c1, c2, c3, c4, c5, c6, c7, mask)

    def infer(self, tensors, x):
        """``forward`` at inference, on ``tensors`` whose convs carry the
        batch norm after them folded in: no batch norm, and no cache."""
        h = self.conv1.forward(tensors, None, x, False)[0]
        h = self.relu.forward(tensors, None, h, False)[0]
        h = self.conv2.forward(tensors, None, h, False)[0]
        h += self.skip_conv.forward(tensors, None, x, False)[0]
        mask = h > 0
        h *= mask
        return h

    def backward(self, params, dy, cache, grads):
        c1, c2, c3, c4, c5, c6, c7, mask = cache
        dy *= mask  # dy is the fresh input gradient of the layer after this block
        ds = self.skip_bn.backward(params, dy, c7, grads)
        dx_skip = self.skip_conv.backward(params, ds, c6, grads)
        dh = self.bn2.backward(params, dy, c5, grads)
        dh = self.conv2.backward(params, dh, c4, grads)
        dh = self.relu.backward(params, dh, c3, grads)
        dh = self.bn1.backward(params, dh, c2, grads)
        dx_main = self.conv1.backward(params, dh, c1, grads)
        dx_main += dx_skip
        return dx_main


class Chain:
    """A sequential stack of layers sharing one parameter dict."""

    def __init__(self, layers):
        self.layers = list(layers)

    def init(self, params, buffers, rng):
        for layer in self.layers:
            layer.init(params, buffers, rng)

    def forward(self, params, buffers, x, train):
        tape = []
        for layer in self.layers:
            x, cache = layer.forward(params, buffers, x, train)
            tape.append(cache)
        return x, tape

    def backward(self, params, dy, tape, grads):
        for layer, cache in zip(reversed(self.layers), reversed(tape)):
            dy = layer.backward(params, dy, cache, grads)
        return dy


def _accum(grads: dict, key: str, value: np.ndarray):
    if key in grads:
        grads[key] += value
    else:
        grads[key] = value
