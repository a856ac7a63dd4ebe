"""Minimal float64 layer primitives with explicit reverse-mode backward passes.

Each layer is a stateless object: ``forward`` returns the output plus a cache
of the intermediate activations that ``backward`` needs; a chain of layers
keeps the per-layer caches as a tape and replays them in reverse. Parameters
and non-trainable buffers (batch-norm running statistics) live in plain
``dict[str, np.ndarray]`` keyed by dotted layer names.

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
        b, c, length = x.shape
        if c != self.c_in:
            raise ShapeError(f"{self.name}: expected {self.c_in} channels, got {c}")
        k, s, p = self.kernel, self.stride, self.pad
        l_out = (length + 2 * p - k) // s + 1
        xp = np.zeros((b, c, length + 2 * p))
        xp[:, :, p : p + length] = x
        # im2col in one copy: tap j of this (b, c, k, l_out) view of xp is
        # xp[:, :, j::s]; the copy is C-contiguous, as the matmuls expect
        sb, sc, sl = xp.strides
        taps = np.ndarray((b, c, k, l_out), xp.dtype, xp, 0, (sb, sc, sl, s * sl))
        cols = np.ascontiguousarray(taps).reshape(b, c * k, l_out)
        w = params[f"{self.name}.weight"].reshape(self.c_out, c * k)
        y = np.matmul(w, cols)
        y += params[f"{self.name}.bias"][:, None]
        return y, (cols, (b, c, length))

    def backward(self, params, dy, cache, grads):
        cols, (b, c, length) = cache
        k, s, p = self.kernel, self.stride, self.pad
        l_out = dy.shape[2]
        w = params[f"{self.name}.weight"].reshape(self.c_out, c * k)
        _accum(grads, f"{self.name}.weight",
               np.tensordot(dy, cols, axes=([0, 2], [0, 2])).reshape(self.c_out, c, k))
        _accum(grads, f"{self.name}.bias", dy.sum(axis=(0, 2)))
        dcols = np.matmul(w.T, dy).reshape(b, c, k, l_out)
        # col2im: output t of tap j read x[j - p + s*t]; reads of the zero
        # padding get no gradient, so only the t that land inside x are added
        dx = np.zeros((b, c, length))
        for j in range(k):
            t0 = max(0, -((j - p) // s))
            t1 = min(l_out, (length - 1 - j + p) // s + 1)
            if t1 > t0:
                start = j - p + s * t0
                dx[:, :, start : start + s * (t1 - t0) : s] += dcols[:, :, j, t0:t1]
        return dx


class BatchNorm1d:
    """Per-channel batch normalization over (batch, length).

    Training mode uses population batch statistics and updates running
    averages with momentum 0.1; inference mode applies the stored averages.
    Epsilon is 1e-5. The input is always a convolution's fresh output, which
    no cache holds, so ``forward`` writes its result over it. Inference mode
    keeps no backward cache, and ``backward`` on it raises ``StateError``.
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
        gamma = params[f"{self.name}.gamma"][:, None]
        beta = params[f"{self.name}.beta"][:, None]
        if not train:
            mu = buffers[f"{self.name}.running_mean"]
            var = buffers[f"{self.name}.running_var"]
            x -= mu[:, None]
            x *= (1.0 / np.sqrt(var + _BN_EPS))[:, None]
            x *= gamma
            x += beta
            return x, None
        mu = x.mean(axis=(0, 2))
        xhat = x - mu[:, None]
        # the mean squared deviation, as x.var computes it; x is scratch now
        var = np.square(xhat, out=x).sum(axis=(0, 2)) / (x.shape[0] * x.shape[2])
        rm, rv = f"{self.name}.running_mean", f"{self.name}.running_var"
        buffers[rm] = (1.0 - _BN_MOMENTUM) * buffers[rm] + _BN_MOMENTUM * mu
        buffers[rv] = (1.0 - _BN_MOMENTUM) * buffers[rv] + _BN_MOMENTUM * var
        invstd = 1.0 / np.sqrt(var + _BN_EPS)
        xhat *= invstd[:, None]
        np.multiply(gamma, xhat, out=x)
        x += beta
        return x, (xhat, invstd)

    def backward(self, params, dy, cache, grads):
        if cache is None:
            raise StateError(f"{self.name}: backward through an inference-mode "
                             "batch norm, which keeps no backward cache")
        xhat, invstd = cache
        gamma = params[f"{self.name}.gamma"]
        # dy is left intact: a residual block hands the same dy to two layers
        scratch = dy * xhat
        _accum(grads, f"{self.name}.gamma", scratch.sum(axis=(0, 2)))
        _accum(grads, f"{self.name}.beta", dy.sum(axis=(0, 2)))
        dxhat = dy * gamma[:, None]
        n = dy.shape[0] * dy.shape[2]
        s1 = dxhat.sum(axis=(0, 2), keepdims=True)
        s2 = np.multiply(dxhat, xhat, out=scratch).sum(axis=(0, 2), keepdims=True)
        # (invstd / n) * (n * dxhat - s1 - xhat * s2), written over dxhat
        dxhat *= n
        dxhat -= s1
        dxhat -= np.multiply(xhat, s2, out=scratch)
        dxhat *= invstd[:, None] / n
        return dxhat


class ReLU:
    """Elementwise max(x, 0); the subgradient at 0 is taken as 0."""

    def init(self, params, buffers, rng):
        pass

    def forward(self, params, buffers, x, train):
        # x is the fresh output of a batch norm or linear layer
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
    """Mean over the length axis: (B, C, L) -> (B, C)."""

    def init(self, params, buffers, rng):
        pass

    def forward(self, params, buffers, x, train):
        return x.mean(axis=2), (x.shape[2],)

    def backward(self, params, dy, cache, grads):
        (length,) = cache
        return np.repeat(dy[:, :, None], length, axis=2) / length


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
