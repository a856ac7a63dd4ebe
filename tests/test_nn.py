"""In-place layer kernels against the allocating formulas they replaced.

Each reference below is the straightforward expression of a kernel: a new
array per operation and a zero-padded buffer for the conv scatter. The
layers write into arrays they own instead, but must keep every operation
and its order, so results are compared as raw bytes, which also tells
+0.0 from -0.0.
"""

import numpy as np
import pytest

from ecgauth import nn
from ecgauth.errors import StateError
from ecgauth.training import _Adam

EPS, MOMENTUM = 1e-5, 0.1


def same_bytes(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# ----------------------------------------------------------------------
# references

def ref_bn_forward(gamma, beta, rmean, rvar, x):
    mu = x.mean(axis=(0, 2))
    var = x.var(axis=(0, 2))
    rmean = (1.0 - MOMENTUM) * rmean + MOMENTUM * mu
    rvar = (1.0 - MOMENTUM) * rvar + MOMENTUM * var
    invstd = 1.0 / np.sqrt(var + EPS)
    xhat = (x - mu[:, None]) * invstd[:, None]
    return gamma[:, None] * xhat + beta[:, None], xhat, invstd, rmean, rvar


def ref_bn_backward(gamma, dy, xhat, invstd):
    dgamma = (dy * xhat).sum(axis=(0, 2))
    dbeta = dy.sum(axis=(0, 2))
    dxhat = dy * gamma[:, None]
    n = dy.shape[0] * dy.shape[2]
    s1 = dxhat.sum(axis=(0, 2), keepdims=True)
    s2 = (dxhat * xhat).sum(axis=(0, 2), keepdims=True)
    return (invstd[:, None] / n) * (n * dxhat - s1 - xhat * s2), dgamma, dbeta


def ref_conv_backward(weight, dy, cols, length, stride):
    c_out, c, k = weight.shape
    b, l_out, p = dy.shape[0], dy.shape[2], k // 2
    dw = np.tensordot(dy, cols, axes=([0, 2], [0, 2])).reshape(c_out, c, k)
    dcols = np.matmul(weight.reshape(c_out, c * k).T, dy).reshape(b, c, k, l_out)
    dxp = np.zeros((b, c, length + 2 * p))
    for j in range(k):
        dxp[:, :, j : j + stride * l_out : stride] += dcols[:, :, j, :]
    return dxp[:, :, p : p + length], dw, dy.sum(axis=(0, 2))


def ref_adam_step(state, tensors, grads, lr, b1, b2, eps):
    state["t"] += 1
    c1 = 1.0 - b1 ** state["t"]
    c2 = 1.0 - b2 ** state["t"]
    for key in sorted(grads):
        g = grads[key]
        m = state["m"].setdefault(key, np.zeros_like(g))
        v = state["v"].setdefault(key, np.zeros_like(g))
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        tensors[key] -= lr * (m / c1) / (np.sqrt(v / c2) + eps)


def with_zeros(rng, shape):
    """Normal values with some +0.0 and some -0.0."""
    x = rng.normal(size=shape)
    x.reshape(-1)[::7] = 0.0
    x.reshape(-1)[3::11] = -0.0
    return x


def awkward(rng, shape):
    """A (batch, channels, length) array with signed zeros and a constant
    first channel, whose batch variance is exactly zero."""
    x = with_zeros(rng, shape)
    x[:, 0, :] = 1.5
    return x


# ----------------------------------------------------------------------
# batch norm

def _bn(channels, rng):
    bn = nn.BatchNorm1d("bn", channels)
    params, buffers = {}, {}
    bn.init(params, buffers, rng)
    params["bn.gamma"] = rng.normal(size=channels)
    params["bn.beta"] = rng.normal(size=channels)
    buffers["bn.running_mean"] = rng.normal(size=channels)
    buffers["bn.running_var"] = rng.uniform(0.5, 2.0, size=channels)
    return bn, params, buffers


@pytest.mark.parametrize("shape", [(1, 3, 1), (4, 5, 9), (32, 16, 125)])
def test_batch_norm_train_matches_reference(shape):
    rng = np.random.default_rng(shape[2])
    bn, params, buffers = _bn(shape[1], rng)
    x = awkward(rng, shape)
    dy = awkward(rng, shape)
    want_y, want_xhat, want_invstd, want_rm, want_rv = ref_bn_forward(
        params["bn.gamma"], params["bn.beta"], buffers["bn.running_mean"],
        buffers["bn.running_var"], x)
    want_dx, want_dg, want_db = ref_bn_backward(params["bn.gamma"], dy,
                                                want_xhat, want_invstd)

    y, cache = bn.forward(params, buffers, x.copy(), True)
    assert same_bytes(y, want_y)
    assert same_bytes(cache[0], want_xhat)
    assert same_bytes(buffers["bn.running_mean"], want_rm)
    assert same_bytes(buffers["bn.running_var"], want_rv)
    grads = {}
    dy_before = dy.copy()
    dx = bn.backward(params, dy, cache, grads)
    assert same_bytes(dy, dy_before)  # a residual block reuses dy
    assert same_bytes(dx, want_dx)
    assert same_bytes(grads["bn.gamma"], want_dg)
    assert same_bytes(grads["bn.beta"], want_db)


def test_batch_norm_runs_in_training_only():
    """Inference folds batch norm into the conv before it, so an eval-mode
    call is a mistake; it leaves input and running statistics alone."""
    rng = np.random.default_rng(1)
    bn, params, buffers = _bn(4, rng)
    x = rng.normal(size=(2, 4, 5))
    x_before = x.copy()
    before = {k: v.copy() for k, v in buffers.items()}
    with pytest.raises(StateError, match="training only"):
        bn.forward(params, buffers, x, False)
    assert same_bytes(x, x_before)
    assert all(same_bytes(buffers[k], before[k]) for k in before)


# ----------------------------------------------------------------------
# ReLU and the residual block's closing ReLU

def test_relu_matches_reference():
    rng = np.random.default_rng(2)
    x = awkward(rng, (4, 3, 10))
    dy = awkward(rng, x.shape)
    relu = nn.ReLU()
    y, mask = relu.forward({}, {}, x.copy(), True)
    assert same_bytes(y, x * (x > 0))  # negative inputs give -0.0
    assert same_bytes(relu.backward({}, dy.copy(), mask, {}), dy * (x > 0))


def test_residual_block_matches_reference():
    rng = np.random.default_rng(3)
    block = nn.ResidualBlock("b", 3, 4, 5)
    params, buffers = {}, {}
    block.init(params, buffers, rng)
    for key in params:
        params[key] = rng.normal(size=params[key].shape)
    x = awkward(rng, (2, 3, 21))
    dy = awkward(rng, (2, 4, 11))

    def conv_fwd(conv, inp):
        return conv.forward(params, buffers, inp, True)

    def bn_fwd(bn, inp):
        return ref_bn_forward(params[f"{bn.name}.gamma"], params[f"{bn.name}.beta"],
                              buffers[f"{bn.name}.running_mean"],
                              buffers[f"{bn.name}.running_var"], inp)

    ref_buffers = {}
    h1, cc1 = conv_fwd(block.conv1, x)
    a1, xh1, is1, *ref_buffers["bn1"] = bn_fwd(block.bn1, h1)
    r1 = a1 * (a1 > 0)
    h2, cc2 = conv_fwd(block.conv2, r1)
    a2, xh2, is2, *ref_buffers["bn2"] = bn_fwd(block.bn2, h2)
    hs, cc3 = conv_fwd(block.skip_conv, x)
    a3, xh3, is3, *ref_buffers["skip_bn"] = bn_fwd(block.skip_bn, hs)
    pre = a2 + a3
    want_y = pre * (pre > 0)

    def conv_bwd(conv, d, cache):
        dx, dw, db = ref_conv_backward(params[f"{conv.name}.weight"], d,
                                       cache[0], cache[1][2], conv.stride)
        want_grads[f"{conv.name}.weight"] = dw
        want_grads[f"{conv.name}.bias"] = db
        return dx

    def bn_bwd(bn, d, xhat, invstd):
        dx, dg, db = ref_bn_backward(params[f"{bn.name}.gamma"], d, xhat, invstd)
        want_grads[f"{bn.name}.gamma"] = dg
        want_grads[f"{bn.name}.beta"] = db
        return dx

    want_grads = {}
    d = dy * (pre > 0)
    dx_skip = conv_bwd(block.skip_conv, bn_bwd(block.skip_bn, d, xh3, is3), cc3)
    dh = conv_bwd(block.conv2, bn_bwd(block.bn2, d, xh2, is2), cc2)
    dh = dh * (a1 > 0)
    want_dx = conv_bwd(block.conv1, bn_bwd(block.bn1, dh, xh1, is1), cc1) + dx_skip

    got_buffers = {k: v.copy() for k, v in buffers.items()}
    y, cache = block.forward(params, got_buffers, x, True)
    assert same_bytes(y, want_y)
    for name, (rm, rv) in ref_buffers.items():
        assert same_bytes(got_buffers[f"b.{name}.running_mean"], rm)
        assert same_bytes(got_buffers[f"b.{name}.running_var"], rv)
    grads = {}
    assert same_bytes(block.backward(params, dy, cache, grads), want_dx)
    assert grads.keys() == want_grads.keys()
    for key in grads:
        assert same_bytes(grads[key], want_grads[key]), key


def test_residual_block_infer_is_forward_without_batch_norm():
    """On folded tensors a block is conv-ReLU-conv plus the skip conv, then
    ReLU, through the conv's own forward; nothing else touches the values."""
    rng = np.random.default_rng(4)
    block = nn.ResidualBlock("b", 3, 4, 5)
    tensors = {}
    block.init(tensors, {}, rng)
    tensors = {k: rng.normal(size=v.shape) for k, v in tensors.items()
               if not k.endswith((".gamma", ".beta"))}
    x = awkward(rng, (2, 3, 21))

    def conv(c, inp):
        return c.forward(tensors, None, inp, False)[0]

    r1 = conv(block.conv1, x)
    r1 = r1 * (r1 > 0)
    pre = conv(block.conv2, r1) + conv(block.skip_conv, x)
    x_before = x.copy()
    assert same_bytes(block.infer(tensors, x), pre * (pre > 0))
    assert same_bytes(x, x_before)


# ----------------------------------------------------------------------
# convolution

@pytest.mark.parametrize("kernel,stride", [(1, 1), (1, 2), (3, 1), (7, 2)])
@pytest.mark.parametrize("length", [1, 3, 9, 31])
def test_conv_backward_matches_padded_scatter(kernel, stride, length):
    rng = np.random.default_rng(kernel * 100 + stride * 10 + length)
    conv = nn.Conv1d("c", 3, 5, kernel, stride=stride)
    params = {}
    conv.init(params, {}, rng)
    params["c.bias"] = rng.normal(size=5)
    x = awkward(rng, (2, 3, length))
    y, cache = conv.forward(params, {}, x, True)
    dy = awkward(rng, y.shape)
    want_dx, want_dw, want_db = ref_conv_backward(params["c.weight"], dy,
                                                  cache[0], length, stride)
    grads = {}
    dx = conv.backward(params, dy, cache, grads)
    assert dx.flags.c_contiguous
    assert same_bytes(dx, np.ascontiguousarray(want_dx))
    assert same_bytes(grads["c.weight"], want_dw)
    assert same_bytes(grads["c.bias"], want_db)


# ----------------------------------------------------------------------
# Adam

def test_adam_steps_match_reference():
    rng = np.random.default_rng(4)
    shapes = {"a": (7,), "b": (3, 4, 5), "c": (1,)}
    lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8
    got = {k: rng.normal(size=s) for k, s in shapes.items()}
    want = {k: v.copy() for k, v in got.items()}
    opt = _Adam(lr)
    state = {"t": 0, "m": {}, "v": {}}
    for _ in range(5):
        grads = {k: with_zeros(rng, s) for k, s in shapes.items()}
        kept = {k: g.copy() for k, g in grads.items()}
        opt.step(got, grads)
        ref_adam_step(state, want, kept, lr, b1, b2, eps)
        assert all(same_bytes(grads[k], kept[k]) for k in grads)
        for key in shapes:
            assert same_bytes(got[key], want[key]), key
            assert same_bytes(opt.m[key], state["m"][key])
            assert same_bytes(opt.v[key], state["v"][key])
