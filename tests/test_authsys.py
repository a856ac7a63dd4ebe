"""Enrollment, authentication decisions, calibration, registry persistence."""

import dataclasses
import logging
from types import SimpleNamespace

import numpy as np
import pytest

import ecgauth.authsys as authsys
from ecgauth.authsys import (
    authenticate,
    authenticate_batch,
    calibrate_threshold,
    enroll,
    load_registry,
    save_registry,
    score_batch,
    score_embeddings,
)
from ecgauth.encoder import (
    EncoderConfig,
    build_model,
    encode_signal_batch,
    fold_signal_encoder,
    init_params,
    load_container,
    save_checkpoint,
    save_container,
)
from ecgauth.errors import (
    CheckpointChecksumError,
    CheckpointFormatError,
    InputError,
    ParameterError,
    ShapeError,
)
from ecgauth.signals import IdentityMorphology, segment_beats, synth_ecg
from ecgauth.training import FinetuneConfig

SMALL_ENC = EncoderConfig(channels=(4,), kernel_size=3,
                          embed_dim=8, proj_dim=4)
HALF = 64


def _labeled_segments(n_ids=3, n_beats=12, seed=0):
    out = []
    for sid in range(1, n_ids + 1):
        rng = np.random.default_rng([seed, sid])
        morph = IdentityMorphology.random(rng)
        rec = synth_ecg(morph, n_beats=n_beats, fs=250.0,
                        seed=seed * 1000 + sid, subject_id=sid)
        segs = segment_beats(rec, rec.ground_truth_peaks, half_window=HALF)
        out.extend((seg, sid) for seg in segs)
    return out


@pytest.fixture(scope="module")
def labeled():
    return _labeled_segments()


@pytest.fixture(scope="module")
def registry(labeled):
    params = init_params(SMALL_ENC, 2 * HALF, seed=21)
    cfg = FinetuneConfig(batch_size=8, epochs=2, learning_rate=5e-4)
    return enroll(labeled, params, cfg, 21, 250.0, validation=labeled)


@pytest.fixture(scope="module")
def calibrated(labeled):
    """A registry whose threshold came from calibration, not the fallback:
    the `registry` fixture's two epochs leave too many validation beats
    misclassified for the 95% rule."""
    params = init_params(SMALL_ENC, 2 * HALF, seed=21)
    cfg = FinetuneConfig(batch_size=8, epochs=30, learning_rate=1e-3)
    reg = enroll(labeled, params, cfg, 21, 250.0, validation=labeled)
    assert reg.metadata["threshold_source"] == "calibrated"
    return reg


# ----------------------------------------------------------------------
# enrollment and decisions

def test_enroll_is_deterministic(labeled, registry):
    params = init_params(SMALL_ENC, 2 * HALF, seed=21)
    cfg = FinetuneConfig(batch_size=8, epochs=2, learning_rate=5e-4)
    again = enroll(labeled, params, cfg, 21, 250.0, validation=labeled)
    assert again.digest() == registry.digest()
    assert again.ids == [1, 2, 3]
    assert 0.0 < again.threshold < 1.0


def test_decision_respects_threshold(labeled, calibrated):
    decisions = [authenticate(calibrated, seg) for seg, _ in labeled[::7]]
    for dec in decisions:
        assert dec.accepted == (dec.max_prob >= calibrated.threshold)
        assert dec.predicted_id in calibrated.ids
        assert 0.0 < dec.max_prob <= 1.0
    assert any(dec.accepted for dec in decisions)


def test_batch_matches_single_decisions(labeled, calibrated):
    segs = [seg for seg, _ in labeled[:10]]
    batch = authenticate_batch(calibrated, segs)
    for seg, dec in zip(segs, batch):
        single = authenticate(calibrated, seg)
        assert (dec.accepted, dec.predicted_id) == (single.accepted,
                                                    single.predicted_id)
        assert dec.max_prob == single.max_prob


def test_threshold_splits_accept_and_reject(labeled, calibrated):
    seg = labeled[0][0]
    prob = authenticate(calibrated, seg).max_prob
    lenient = dataclasses.replace(calibrated, threshold=prob / 2)
    assert authenticate(lenient, seg).accepted
    stricter = dataclasses.replace(calibrated,
                                   threshold=min(prob * 1.0001, 1 - 1e-12))
    assert stricter.threshold > prob
    assert not authenticate(stricter, seg).accepted


def test_registry_scores_at_float32(labeled, registry):
    """The registry's fold is float32 while its stored weights and
    prototypes stay float64, and scores come back as float64."""
    assert {t.dtype for t in registry.encoder.tensors.values()} == {np.dtype(np.float32)}
    tensors = (*registry.params.params.values(), *registry.params.buffers.values())
    assert {t.dtype for t in tensors} == {np.dtype(np.float64)}
    assert registry.prototypes.dtype == np.float64
    probs, _ = score_batch(registry, np.stack([seg.window for seg, _ in labeled[:5]]))
    assert probs.dtype == np.float64


def test_score_batch_chunks_large_batches(labeled, registry):
    windows = np.stack([labeled[i % len(labeled)][0].window
                        for i in range(301)])
    probs, preds = score_batch(registry, windows)
    assert probs.shape == (301,) and preds.shape == (301,)
    one = authenticate(registry, labeled[300 % len(labeled)][0])
    assert float(probs[300]) == one.max_prob
    assert int(preds[300]) == one.predicted_id


def test_registry_fold_follows_its_params(labeled, registry):
    """Replacing the weights refolds them: the registry scores like a fresh
    fold of the new weights, not like the old fold."""
    other = registry.params.signal_encoder()
    for key, value in other.buffers.items():
        value *= 4.0 if key.endswith("running_var") else 0.5
    swapped = dataclasses.replace(registry, params=other)
    windows = np.stack([seg.window for seg, _ in labeled[:20]])
    probs, preds = score_batch(swapped, windows)
    want_probs, want_preds = score_embeddings(
        registry, encode_signal_batch(fold_signal_encoder(other, registry.encoder.dtype),
                                      windows))
    assert np.array_equal(probs, want_probs)
    assert np.array_equal(preds, want_preds)
    assert not np.array_equal(probs, score_batch(registry, windows)[0])


def test_registry_validation(registry):
    def variant(**change):
        return dataclasses.replace(registry, **change)

    protos = registry.prototypes
    with pytest.raises(InputError):
        variant(ids=[], prototypes=protos[:0])
    with pytest.raises(InputError):
        variant(ids=[2, 1, 3])  # not sorted
    with pytest.raises(ShapeError):
        variant(prototypes=protos[0])  # wrong rank
    with pytest.raises(ShapeError):
        variant(prototypes=protos[:, :4])  # narrower than the encoder
    with pytest.raises(ShapeError):
        variant(prototypes=protos[:2])  # fewer rows than ids
    bad = protos.copy()
    bad[1, 2] = np.nan
    with pytest.raises(InputError):
        variant(prototypes=bad)
    with pytest.raises(ParameterError):
        variant(threshold=1.0)
    for fs in (0.0, -250.0, float("nan"), float("inf")):
        with pytest.raises(ParameterError):
            variant(fs=fs)
    # the whole pretraining graph is not a registry's encoder
    with pytest.raises(ShapeError, match=r"surplus=\['f_r\.linear\.bias'"):
        variant(params=init_params(SMALL_ENC, 2 * HALF, seed=21))


# ----------------------------------------------------------------------
# threshold calibration (scores injected through a stub)

def _stub_validation(n):
    return [(SimpleNamespace(window=np.zeros(4)), 1) for _ in range(n)]


def _patch_scores(monkeypatch, probs, preds):
    def fake(reg, windows):
        return np.asarray(probs, dtype=np.float64), np.asarray(preds)
    monkeypatch.setattr(authsys, "score_batch", fake)


def _enroll_on_stub_validation(labeled):
    params = init_params(SMALL_ENC, 2 * HALF, seed=21)
    cfg = FinetuneConfig(batch_size=8, epochs=1, learning_rate=5e-4)
    return enroll(labeled, params, cfg, 21, 250.0, validation=_stub_validation(20))


def test_calibration_picks_95th_percentile_score(monkeypatch, registry, caplog):
    probs = np.linspace(0.99, 0.80, 20)  # unique, descending
    _patch_scores(monkeypatch, probs, np.ones(20, dtype=int))
    with caplog.at_level(logging.WARNING, logger="ecgauth.authsys"):
        delta, source = calibrate_threshold(registry, _stub_validation(20))
    assert not caplog.records  # only the fallback warns
    # 19 of 20 (95%) must clear the threshold: the 19th-highest score wins
    assert delta == pytest.approx(sorted(probs)[1])
    assert source == "calibrated"


def test_enroll_records_a_calibrated_threshold(monkeypatch, labeled, tmp_path):
    probs = np.linspace(0.99, 0.80, 20)
    _patch_scores(monkeypatch, probs, np.ones(20, dtype=int))
    reg = _enroll_on_stub_validation(labeled)
    assert reg.threshold == pytest.approx(sorted(probs)[1])
    assert reg.metadata["threshold_source"] == "calibrated"
    save_registry(reg, tmp_path / "ids.reg")
    assert load_registry(tmp_path / "ids.reg").metadata == reg.metadata


def test_calibration_falls_back_when_everything_is_wrong(monkeypatch, registry,
                                                        labeled, caplog):
    probs = np.linspace(0.99, 0.80, 20)
    _patch_scores(monkeypatch, probs, np.full(20, 2, dtype=int))  # truth is 1
    with caplog.at_level(logging.WARNING, logger="ecgauth.authsys"):
        assert calibrate_threshold(registry, _stub_validation(20)) == (0.5, "fallback")
    assert [r.levelno for r in caplog.records] == [logging.WARNING]
    assert "falling back to 0.5" in caplog.text
    # the registry records the fallback, not only the log
    reg = _enroll_on_stub_validation(labeled)
    assert reg.threshold == 0.5
    assert reg.metadata["threshold_source"] == "fallback"


def test_calibration_clamps_saturated_scores(monkeypatch, registry):
    _patch_scores(monkeypatch, np.ones(20), np.ones(20, dtype=int))
    delta, source = calibrate_threshold(registry, _stub_validation(20))
    assert delta == 1.0 - 1e-9
    assert source == "calibrated"


def test_calibration_requires_samples(registry):
    with pytest.raises(InputError):
        calibrate_threshold(registry, [])


def test_calibration_rate_counts_only_correct(monkeypatch, registry):
    # two misclassified samples leave 18/20 = 90% < 95% at any candidate
    probs = np.linspace(0.99, 0.80, 20)
    preds = np.ones(20, dtype=int)
    preds[:2] = 2
    _patch_scores(monkeypatch, probs, preds)
    assert calibrate_threshold(registry, _stub_validation(20)) == (0.5, "fallback")


# ----------------------------------------------------------------------
# persistence

def test_registry_round_trip(tmp_path, registry, labeled):
    path = tmp_path / "ids.reg"
    save_registry(registry, path)
    back = load_registry(path)
    assert back.digest() == registry.digest()
    assert back.threshold == registry.threshold
    assert back.ids == registry.ids
    assert back.fs == registry.fs == 250.0
    seg = labeled[0][0]
    a, b = authenticate(registry, seg), authenticate(back, seg)
    assert (a.accepted, a.predicted_id, a.max_prob) == (
        b.accepted, b.predicted_id, b.max_prob)


def test_registry_bytes_stable(tmp_path, registry):
    a, b = tmp_path / "a.reg", tmp_path / "b.reg"
    save_registry(registry, a)
    save_registry(registry, b)
    assert a.read_bytes() == b.read_bytes()


def test_registry_rejects_other_containers(tmp_path, registry):
    path = tmp_path / "enc.ckpt"
    save_checkpoint(registry.params, path)
    with pytest.raises(CheckpointFormatError):
        load_registry(path)


def test_registry_detects_corruption(tmp_path, registry):
    path = tmp_path / "ids.reg"
    save_registry(registry, path)
    raw = bytearray(path.read_bytes())
    raw[len(raw) - 80] ^= 0x04
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointChecksumError):
        load_registry(path)


def test_registry_holds_only_what_authentication_reads(tmp_path, registry):
    path = tmp_path / "ids.reg"
    save_registry(registry, path)
    mp, extras, metadata = load_container(path, "registry")
    # the signal encoder alone: no report branch, no projection heads
    params, buffers = build_model(mp).signal_shapes()
    assert (set(mp.params), set(mp.buffers)) == (set(params), set(buffers))
    names = set(mp.params) | set(mp.buffers)
    assert not any(k.startswith(("f_r.", "proj_s.", "proj_r.")) for k in names)
    assert set(extras) == {"registry.prototypes"}
    assert extras["registry.prototypes"].tobytes() == registry.prototypes.tobytes()
    assert set(metadata) == {"ids", "threshold", "fs", "creation"}


def test_registry_saves_weights_not_their_fold(tmp_path, registry):
    """The folded encoder is derived on load, not stored: the container
    holds the trained weights and batch-norm state, and the fold stays out
    of the digest and the repr."""
    path = tmp_path / "ids.reg"
    save_registry(registry, path)
    mp, _, _ = load_container(path, "registry")
    assert mp.checksum() == registry.params.checksum()
    folded = registry.encoder.tensors
    assert not np.array_equal(mp.params["stem.conv.weight"], folded["stem.conv.weight"])
    back = load_registry(path)
    assert back.encoder.tensors.keys() == folded.keys()
    assert all(np.array_equal(back.encoder.tensors[k], folded[k]) for k in folded)
    assert "encoder=" not in repr(registry)


def test_registry_missing_geometry_tensor(tmp_path, registry):
    path = tmp_path / "bad.reg"
    save_container(path, "registry", registry.params, {},
                   {"ids": registry.ids, "threshold": registry.threshold,
                    "fs": registry.fs, "creation": registry.metadata})
    with pytest.raises(CheckpointFormatError,
                       match=r"missing=\['registry.prototypes'\]"):
        load_registry(path)
