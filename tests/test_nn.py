"""In-place layer kernels against the allocating formulas they replaced.

Each reference below is the straightforward expression of a kernel on
channel-major (channels, batch, length) activations: a new array per
operation and a zero-padded buffer for the conv scatter. The layers write
into arrays they own instead, but must keep every operation and its order,
so results are compared as raw bytes, which also tells +0.0 from -0.0.
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

def per_channel(v):
    return v[:, None, None]


def ref_bn_forward(gamma, beta, rmean, rvar, x):
    mu = x.mean(axis=(1, 2))
    var = x.var(axis=(1, 2))
    rmean = (1.0 - MOMENTUM) * rmean + MOMENTUM * mu
    rvar = (1.0 - MOMENTUM) * rvar + MOMENTUM * var
    invstd = 1.0 / np.sqrt(var + EPS)
    xhat = (x - per_channel(mu)) * per_channel(invstd)
    return per_channel(gamma) * xhat + per_channel(beta), xhat, invstd, rmean, rvar


def ref_bn_backward(gamma, dy, xhat, invstd):
    """dx = (gamma * invstd / n) * (n * dy - sum(dy) - xhat * sum(dy * xhat))."""
    dgamma = (dy * xhat).sum(axis=(1, 2))
    dbeta = dy.sum(axis=(1, 2))
    n = dy.shape[1] * dy.shape[2]
    dx = (per_channel(gamma * invstd / n)
          * (n * dy - per_channel(dbeta) - xhat * per_channel(dgamma)))
    return dx, dgamma, dbeta


def ref_conv_backward(weight, dy, cols, length, stride):
    c_out, c, k = weight.shape
    b, l_out, p = dy.shape[1], dy.shape[2], k // 2
    dy2 = dy.reshape(c_out, b * l_out)
    dw = (dy2 @ cols.reshape(c * k, b * l_out).T).reshape(c_out, c, k)
    dcols = (weight.reshape(c_out, c * k).T @ dy2).reshape(c, k, b, l_out)
    dxp = np.zeros((c, b, length + 2 * p))
    for j in range(k):
        dxp[:, :, j : j + stride * l_out : stride] += dcols[:, j]
    return dxp[:, :, p : p + length], dw, dy.sum(axis=(1, 2))


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
    """A (channels, batch, length) array with signed zeros and a constant
    first channel, whose batch variance is exactly zero."""
    x = with_zeros(rng, shape)
    x[0] = 1.5
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


@pytest.mark.parametrize("shape", [(3, 1, 1), (5, 4, 9), (16, 32, 125)])
def test_batch_norm_train_matches_reference(shape):
    rng = np.random.default_rng(shape[2])
    bn, params, buffers = _bn(shape[0], rng)
    x = awkward(rng, shape)
    dy = awkward(rng, shape)
    want_y, want_xhat, want_invstd, want_rm, want_rv = ref_bn_forward(
        params["bn.gamma"], params["bn.beta"], buffers["bn.running_mean"],
        buffers["bn.running_var"], x)
    want_dx, want_dg, want_db = ref_bn_backward(params["bn.gamma"], dy,
                                                want_xhat, want_invstd)

    y, cache = bn.forward(params, buffers, x.copy(), True)
    assert same_bytes(y, want_y)
    assert same_bytes(cache[0].reshape(shape), want_xhat)
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
    x = rng.normal(size=(4, 2, 5))
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
    x = awkward(rng, (3, 2, 21))
    dy = awkward(rng, (4, 2, 11))

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
    x = awkward(rng, (3, 2, 21))

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
    x = awkward(rng, (3, 2, length))
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


# (c_in, c_out, kernel, stride, input length): the default encoder's conv
# shapes on 500-sample windows, so every product is a real BLAS GEMM
ENCODER_CONVS = [(1, 16, 7, 2, 500), (16, 16, 7, 2, 250), (16, 16, 1, 2, 250),
                 (32, 32, 7, 1, 63), (64, 128, 7, 2, 32), (128, 128, 7, 1, 16)]


def _conv(c_in, c_out, kernel, stride, rng):
    conv = nn.Conv1d("c", c_in, c_out, kernel, stride=stride)
    params = {}
    conv.init(params, {}, rng)
    params["c.bias"] = rng.normal(size=c_out)
    return conv, params


@pytest.mark.parametrize("batch", [1, 33])
@pytest.mark.parametrize("c_in,c_out,kernel,stride,length", ENCODER_CONVS)
def test_eval_conv_is_one_gemm_per_window(c_in, c_out, kernel, stride, length, batch):
    """Inference multiplies each window's own im2col columns, so a window's
    output does not depend on the batch it came in."""
    rng = np.random.default_rng(c_in * kernel + batch)
    conv, params = _conv(c_in, c_out, kernel, stride, rng)
    x = rng.normal(size=(c_in, batch, length))
    y, (cols, _) = conv.forward(params, None, x, False)
    w = params["c.weight"].reshape(c_out, -1)
    for i in range(batch):
        want = np.matmul(w, np.ascontiguousarray(cols[i])) + params["c.bias"][:, None]
        assert same_bytes(y[:, i], want), i


@pytest.mark.parametrize("batch", [2, 17, 33])
def test_train_conv_matches_eval_conv_to_rounding(batch):
    """Training runs one GEMM over the whole batch, which rounds unlike the
    per-window GEMMs of inference. Measured over the default encoder's 13
    convs at batches 1-33: at most 1.7e-15 of the largest output (7.8
    float64 epsilons). The bound, 1e-14, is about 45 epsilons."""
    rng = np.random.default_rng(batch)
    for c_in, c_out, kernel, stride, length in ENCODER_CONVS:
        conv, params = _conv(c_in, c_out, kernel, stride, rng)
        x = rng.normal(size=(c_in, batch, length))
        y_train = conv.forward(params, None, x, True)[0]
        y_eval = conv.forward(params, None, x, False)[0]
        assert np.abs(y_train - y_eval).max() <= 1e-14 * np.abs(y_eval).max()


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
