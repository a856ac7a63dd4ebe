"""Dual encoder: forward/backward correctness, hashing, checkpoints."""

import numpy as np
import pytest

from ecgauth import encoder as encoder_module
from ecgauth import nn
from ecgauth.encoder import (
    REPORT_HASH_DIM,
    DualEncoder,
    EncoderConfig,
    build_model,
    encode_signal_batch,
    fold_signal_encoder,
    hash_report,
    hash_reports,
    init_params,
    load_checkpoint,
    load_container,
    save_checkpoint,
    save_container,
    tokenize_report,
)
from ecgauth.errors import (
    CheckpointChecksumError,
    CheckpointFormatError,
    CheckpointTruncatedError,
    CheckpointVersionError,
    InputError,
    ParameterError,
    ShapeError,
)

SMALL = EncoderConfig(n_blocks=1, channels=(4,), kernel_size=3,
                      embed_dim=8, proj_dim=4)
LEN = 32


def small_params(seed=0):
    return init_params(SMALL, LEN, seed=seed)


# ----------------------------------------------------------------------
# initialization and determinism

def test_init_deterministic_per_seed():
    assert small_params(0).checksum() == small_params(0).checksum()
    assert small_params(0).checksum() != small_params(1).checksum()


def test_params_copy_is_independent():
    """The signal-encoder copy holds exactly the graph's signal tensors,
    in arrays of its own."""
    mp = small_params()
    cp = mp.signal_encoder()
    params, buffers = build_model(mp).signal_shapes()
    assert (cp.params.keys(), cp.buffers.keys()) == (params.keys(), buffers.keys())
    assert not any(k.startswith(("f_r.", "proj_")) for k in cp.params)
    before = mp.checksum()
    cp.params["embed.weight"][0, 0] += 1.0
    cp.buffers["stem.bn.running_mean"][0] += 1.0
    assert mp.checksum() == before


def test_config_validation():
    with pytest.raises(ParameterError):
        EncoderConfig(n_blocks=2, channels=(8,))
    with pytest.raises(ParameterError):
        EncoderConfig(embed_dim=0)
    with pytest.raises(ParameterError):
        init_params(SMALL, 33, seed=0)  # odd window length
    with pytest.raises(ParameterError):
        init_params(SMALL, 0, seed=0)


# ----------------------------------------------------------------------
# forward properties

def test_zero_input_zero_embedding():
    """At init in eval mode the embedding of a zero window is exactly zero."""
    mp = small_params()
    emb = encode_signal_batch(fold_signal_encoder(mp), np.zeros((2, LEN)))
    assert np.array_equal(emb, np.zeros_like(emb))


def test_shape_errors():
    mp = small_params()
    model = build_model(mp)
    with pytest.raises(ShapeError):
        model.forward_signal(mp, np.zeros((2, LEN + 2)))
    with pytest.raises(ShapeError):
        model.forward_signal(mp, np.zeros(LEN))
    with pytest.raises(ShapeError):
        encode_signal_batch(fold_signal_encoder(mp), np.zeros((2, LEN + 2)))


def test_single_matches_batch():
    enc = fold_signal_encoder(small_params(3))
    rng = np.random.default_rng(0)
    x = rng.normal(size=(5, LEN))
    batch = encode_signal_batch(enc, x)
    for i in range(5):
        assert np.array_equal(encode_signal_batch(enc, x[i : i + 1])[0], batch[i])


def test_chunked_batch_matches_per_row():
    """Batches larger than the internal chunk stay consistent row-wise."""
    enc = fold_signal_encoder(small_params(4))
    rng = np.random.default_rng(1)
    x = rng.normal(size=(300, LEN))  # spans ten trunk chunks, the last partial
    batch = encode_signal_batch(enc, x)
    assert batch.shape == (300, SMALL.embed_dim)
    for i in (0, 31, 32, 299):
        assert np.array_equal(encode_signal_batch(enc, x[i : i + 1])[0], batch[i])


def _full_width_params():
    """The default architecture on short windows, so that every conv and the
    embed layer are real BLAS GEMMs at a test-sized cost, with batch-norm
    state a fold has to carry: gamma != 1, beta != 0, conv bias != 0, and
    running statistics from three training-mode forward passes."""
    mp = init_params(EncoderConfig(), 64, seed=5).signal_encoder()
    rng = np.random.default_rng(6)
    for key, value in mp.params.items():
        if key.endswith(".gamma"):
            value[:] = rng.uniform(0.5, 1.5, value.shape)
        elif key.endswith((".beta", ".bias")):
            value[:] = rng.normal(scale=0.1, size=value.shape)
    model = build_model(mp)
    for _ in range(3):
        model.forward_signal(mp, rng.normal(size=(16, 64)))
    return mp


def _unfolded_encoding(mp, x):
    """The reference: the signal encoder in eval mode without folding, each
    conv's output normalized with its batch norm's running statistics."""
    p, buf = mp.params, mp.buffers

    def conv_bn(conv, bn, h):
        y = conv.forward(p, None, h, False)[0]
        xhat = ((y - buf[f"{bn.name}.running_mean"][:, None, None])
                / np.sqrt(buf[f"{bn.name}.running_var"] + nn._BN_EPS)[:, None, None])
        return (p[f"{bn.name}.gamma"][:, None, None] * xhat
                + p[f"{bn.name}.beta"][:, None, None])

    stem, stem_bn, _, *blocks, _, _ = build_model(mp).signal_chain.layers
    h = np.maximum(conv_bn(stem, stem_bn, x[None, :, :]), 0.0)
    for b in blocks:
        main = conv_bn(b.conv2, b.bn2, np.maximum(conv_bn(b.conv1, b.bn1, h), 0.0))
        h = np.maximum(main + conv_bn(b.skip_conv, b.skip_bn, h), 0.0)
    return h.mean(axis=2).T @ p["embed.weight"].T + p["embed.bias"]


@pytest.mark.parametrize("chunk", [1, 7, 32, 300])
def test_encoding_does_not_depend_on_trunk_chunk_size(chunk, monkeypatch):
    enc = fold_signal_encoder(_full_width_params())
    x = np.random.default_rng(2).normal(size=(300, 64))
    want = encode_signal_batch(enc, x)
    monkeypatch.setattr(encoder_module, "_ENCODE_CHUNK", chunk)
    assert np.array_equal(encode_signal_batch(enc, x), want)


def test_folded_encoding_matches_unfolded_reference():
    """Folding changes rounding only. Measured on these inputs: at most
    5.9e-16 of the largest embedding value (2.8e-16 absolute). The bound,
    1e-14, is about 45 float64 epsilons."""
    mp = _full_width_params()
    before = mp.checksum()
    enc = fold_signal_encoder(mp)
    assert mp.checksum() == before
    assert not any(np.shares_memory(f, t) for f in enc.tensors.values()
                   for t in (*mp.params.values(), *mp.buffers.values()))
    assert not any(k.endswith((".gamma", ".beta")) for k in enc.tensors)
    for n in (1, 31, 33, 300):  # one partial chunk, around a boundary, many
        x = np.random.default_rng(n).normal(size=(n, 64))
        want = _unfolded_encoding(mp, x)
        got = encode_signal_batch(enc, x)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max(), n


def test_layer_graph_is_shared_per_architecture():
    assert build_model(small_params(0)) is build_model(small_params(1))
    other = init_params(SMALL, 2 * LEN, seed=0)
    assert build_model(other) is not build_model(small_params(0))


@pytest.mark.parametrize("kernel,stride", [(1, 1), (1, 2), (3, 1), (7, 2)])
def test_conv_columns_are_contiguous_shifted_taps(kernel, stride):
    """im2col column block j is the padded input at offset j, every
    stride-th sample, laid out C-contiguous as in a per-tap copy loop:
    (channel, tap, window, t) in training, for one GEMM over the batch, and
    (window, channel, tap, t) at inference, for one GEMM per window."""
    conv = nn.Conv1d("c", 3, 5, kernel, stride=stride)
    params = {}
    conv.init(params, {}, np.random.default_rng(0))
    params["c.bias"] += 0.5
    x = np.random.default_rng(1).normal(size=(3, 2, 11))
    w = params["c.weight"].reshape(5, -1)
    pad = kernel // 2
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad)))
    l_out = (11 - 1) // stride + 1
    taps = np.stack([xp[:, :, j : j + stride * l_out : stride]
                     for j in range(kernel)], axis=1)  # (c, k, b, l_out)

    y, (cols, _) = conv.forward(params, {}, x, True)
    want_cols = taps.reshape(3 * kernel, 2, l_out)
    assert cols.flags.c_contiguous
    assert np.array_equal(cols, want_cols)
    want = (w @ want_cols.reshape(3 * kernel, -1)).reshape(5, 2, l_out)
    assert np.array_equal(y, want + params["c.bias"][:, None, None])

    y, (cols, _) = conv.forward(params, {}, x, False)
    want_cols = taps.transpose(2, 0, 1, 3).reshape(2, 3 * kernel, l_out)
    assert cols.flags.c_contiguous
    assert np.array_equal(cols, want_cols)
    want = np.matmul(w, want_cols) + params["c.bias"][:, None]
    assert np.array_equal(y, want.transpose(1, 0, 2))


def test_projection_is_unit_norm():
    mp = small_params(5)
    model = build_model(mp)
    rng = np.random.default_rng(2)
    z, _ = model.forward_signal(mp, rng.normal(size=(4, LEN)), project=True)
    assert np.allclose(np.linalg.norm(z, axis=1), 1.0, atol=1e-12)
    zr, _ = model.forward_report(mp, hash_reports(["qrs width 0.08", "sdnn"]))
    assert np.allclose(np.linalg.norm(zr, axis=1), 1.0, atol=1e-12)


# ----------------------------------------------------------------------
# gradient checks (small network, central differences)

def _loss_and_grads_signal(model, mp, x, probe):
    out, tape = model.forward_signal(mp, x, project=True)
    loss = float((probe * out).sum())
    grads = model.backward_signal(mp, probe, tape)
    return loss, grads


def test_signal_branch_gradients_match_finite_differences():
    mp = small_params(7)
    model = build_model(mp)
    rng = np.random.default_rng(3)
    x = rng.normal(size=(3, LEN))
    probe = rng.normal(size=(3, SMALL.proj_dim))
    _, grads = _loss_and_grads_signal(model, mp, x, probe)

    h = 1e-5
    for name, tensor in mp.params.items():
        if name not in grads:  # report-branch weights see no signal grad
            continue
        flat = tensor.reshape(-1)
        for idx in rng.choice(flat.size, size=min(3, flat.size), replace=False):
            orig = flat[idx]
            flat[idx] = orig + h
            up, _ = _loss_and_grads_signal(model, mp, x, probe)
            flat[idx] = orig - h
            down, _ = _loss_and_grads_signal(model, mp, x, probe)
            flat[idx] = orig
            fd = (up - down) / (2 * h)
            an = grads[name].reshape(-1)[idx]
            rel = abs(an - fd) / max(abs(an), abs(fd), 1e-8)
            # conv biases feeding a batch norm have a true gradient of zero;
            # relative error is meaningless there, so allow a tiny absolute slack
            assert rel <= 1e-4 or abs(an - fd) <= 1e-8, (name, idx, an, fd)


def test_report_branch_gradients_match_finite_differences():
    mp = small_params(8)
    model = build_model(mp)
    rng = np.random.default_rng(4)
    hashed = hash_reports(["rr intervals are 0.8", "qrs width is 0.1",
                           "sdnn is 0.02"])
    probe = rng.normal(size=(3, SMALL.proj_dim))

    def run():
        out, _ = model.forward_report(mp, hashed)
        return float((probe * out).sum())

    _, tape = model.forward_report(mp, hashed)
    grads = model.backward_report(mp, probe, tape)
    h = 1e-5
    worst = 0.0
    for name in ("f_r.linear.weight", "proj_r.fc1.weight", "proj_r.fc2.bias"):
        flat = mp.params[name].reshape(-1)
        for idx in rng.choice(flat.size, size=3, replace=False):
            orig = flat[idx]
            flat[idx] = orig + h
            up = run()
            flat[idx] = orig - h
            down = run()
            flat[idx] = orig
            fd = (up - down) / (2 * h)
            an = grads[name].reshape(-1)[idx]
            worst = max(worst, abs(an - fd) / max(abs(an), abs(fd), 1e-8))
    assert worst <= 1e-4


# ----------------------------------------------------------------------
# report hashing

def test_tokenize_lowercases_and_splits_punctuation():
    assert tokenize_report("QRS Width is 0.080 seconds.") == [
        "qrs", "width", "is", "0", "080", "seconds"
    ]


def test_hash_report_deterministic_unit_norm():
    v = hash_report("RR Intervals between successive peaks are: 1.000.")
    w = hash_report("RR Intervals between successive peaks are: 1.000.")
    assert np.array_equal(v, w)
    assert v.shape == (REPORT_HASH_DIM,)
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
    assert not np.array_equal(v, hash_report("completely different text"))


def test_hash_report_empty_rejected():
    with pytest.raises(InputError):
        hash_report("")
    with pytest.raises(InputError):
        hash_report("!!! ...")  # no alphanumeric tokens


# ----------------------------------------------------------------------
# checkpoint container

def test_checkpoint_round_trip(tmp_path):
    mp = small_params(9)
    path = tmp_path / "enc.ckpt"
    save_checkpoint(mp, path, metadata={"stage": "pretrain", "seed": 9})
    back = load_checkpoint(path)
    assert back.checksum() == mp.checksum()
    assert back.config == mp.config
    assert back.input_length == mp.input_length


def test_checkpoint_bytes_stable(tmp_path):
    mp = small_params(10)
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(mp, a)
    save_checkpoint(mp, b)
    assert a.read_bytes() == b.read_bytes()


def test_checkpoint_corruption_errors_are_distinct(tmp_path):
    mp = small_params(11)
    path = tmp_path / "enc.ckpt"
    save_checkpoint(mp, path)
    good = path.read_bytes()

    # wrong magic -> version error
    path.write_bytes(b"NOTMAGIC" + good[8:])
    with pytest.raises(CheckpointVersionError):
        load_checkpoint(path)

    # truncated tail -> truncation error
    path.write_bytes(good[:-40])
    with pytest.raises(CheckpointTruncatedError):
        load_checkpoint(path)

    # flipped tensor byte -> checksum error
    raw = bytearray(good)
    raw[len(raw) - 100] ^= 0x01
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointChecksumError):
        load_checkpoint(path)

    # trailing junk -> format error
    path.write_bytes(good + b"extra")
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(path)


@pytest.mark.parametrize("damage", [
    lambda mp: mp.params.update({"embed.bias": np.zeros(mp.config.embed_dim + 1)}),
    lambda mp: mp.buffers.pop("stem.bn.running_var"),
    lambda mp: mp.params.update({"extra.weight": np.zeros(3)}),
], ids=["wrong-shape", "missing", "surplus"])
def test_tensor_manifest_must_match_architecture(tmp_path, damage):
    mp = small_params(14)
    damage(mp)
    path = tmp_path / "bad.ckpt"
    save_checkpoint(mp, path)
    with pytest.raises(CheckpointFormatError, match="declared architecture"):
        load_checkpoint(path)


def test_loading_draws_no_random_numbers(tmp_path, monkeypatch):
    mp = small_params(15)
    path = tmp_path / "enc.ckpt"
    save_checkpoint(mp, path)

    def no_draws(*args, **kwargs):
        raise AssertionError("loading a checkpoint created a random generator")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    assert load_checkpoint(path).checksum() == mp.checksum()


def test_container_kind_mismatch(tmp_path):
    mp = small_params(12)
    path = tmp_path / "thing.bin"
    save_container(path, "registry", mp, extra_tensors={}, metadata={})
    with pytest.raises(CheckpointFormatError):
        load_container(path, expected_kind="encoder")


def test_container_extra_tensors_round_trip(tmp_path):
    mp = small_params(13)
    extra = {"registry.centers": np.arange(12.0).reshape(3, 4)}
    meta = {"ids": [1, 2, 3], "threshold": 0.75}
    path = tmp_path / "reg.bin"
    save_container(path, "registry", mp, extra_tensors=extra, metadata=meta)
    back_mp, back_extra, back_meta = load_container(path, expected_kind="registry")
    assert back_mp.checksum() == mp.checksum()
    assert np.array_equal(back_extra["registry.centers"], extra["registry.centers"])
    assert back_meta == meta
