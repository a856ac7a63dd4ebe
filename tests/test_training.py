"""Training loops: reproducibility, loss descent, prototype rules."""

import numpy as np
import pytest

from ecgauth import training
from ecgauth.encoder import EncoderConfig, encode_signal_batch, init_params
from ecgauth.errors import ConfigurationError, InputError, ParameterError
from ecgauth.losses import compute_medoid
from ecgauth.signals import IdentityMorphology, segment_beats, synth_ecg
from ecgauth.training import FinetuneConfig, PretrainConfig, finetune, pretrain

SMALL_ENC = EncoderConfig(n_blocks=1, channels=(4,), kernel_size=3,
                          embed_dim=8, proj_dim=4)
HALF = 64  # 128-sample windows keep these loops fast


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


def _pairs(labeled):
    texts = {
        1: "rr intervals are steady near 0.8 seconds",
        2: "qrs width is 0.09 seconds with high variability",
        3: "heart rate around 90 with short rr intervals",
    }
    return [(seg, texts[sid]) for seg, sid in labeled]


@pytest.fixture(scope="module")
def labeled():
    return _labeled_segments()


# ----------------------------------------------------------------------
# config validation

def test_train_config_validation():
    # pretraining's contrastive loss needs in-batch negatives
    for stage, min_batch in ((PretrainConfig, 2), (FinetuneConfig, 1)):
        for bad in (dict(batch_size=min_batch - 1), dict(epochs=-1),
                    dict(learning_rate=0.0)):
            with pytest.raises(ParameterError):
                stage(**bad)
        stage(batch_size=min_batch, epochs=0)  # bounds are valid
    assert PretrainConfig() == PretrainConfig(32, 20, 1e-3, 0.07)
    assert FinetuneConfig() == FinetuneConfig(32, 30, 5e-4, 1.0)


# ----------------------------------------------------------------------
# pretraining

def test_pretrain_reduces_contrastive_loss(labeled):
    cfg = PretrainConfig(batch_size=8, epochs=4, learning_rate=1e-3)
    _, report = pretrain(_pairs(labeled), cfg, 1, encoder_config=SMALL_ENC)
    first = report.epochs[0].losses["contrastive"]
    last = report.epochs[-1].losses["contrastive"]
    assert last < first
    assert report.stage == "pretrain"
    assert len(report.epochs) == 4


def test_pretrain_is_deterministic(labeled):
    cfg = PretrainConfig(batch_size=8, epochs=2)
    mp_a, rep_a = pretrain(_pairs(labeled), cfg, 5, encoder_config=SMALL_ENC)
    mp_b, rep_b = pretrain(_pairs(labeled), cfg, 5, encoder_config=SMALL_ENC)
    assert mp_a.checksum() == mp_b.checksum()
    assert [e.losses for e in rep_a.epochs] == [e.losses for e in rep_b.epochs]


def test_pretrain_zero_epochs_returns_fresh_init(labeled):
    pairs = _pairs(labeled)
    cfg = PretrainConfig(batch_size=8, epochs=0)
    mp, report = pretrain(pairs, cfg, 9, encoder_config=SMALL_ENC)
    window_len = pairs[0][0].window.size
    assert mp.checksum() == init_params(SMALL_ENC, window_len, seed=9).checksum()
    assert report.epochs == []


def test_pretrain_input_validation(labeled):
    pairs = _pairs(labeled)
    with pytest.raises(ParameterError):
        PretrainConfig(batch_size=1)
    with pytest.raises(InputError):
        pretrain(pairs[:1], PretrainConfig(), 0, encoder_config=SMALL_ENC)


def test_pretrain_report_lines(labeled):
    cfg = PretrainConfig(batch_size=8, epochs=1)
    _, report = pretrain(_pairs(labeled), cfg, 2, encoder_config=SMALL_ENC)
    lines = report.to_lines()
    assert lines[0] == "stage=pretrain"
    assert lines[1].startswith("epoch 0 contrastive=")
    assert lines[-1].startswith("checksum=")


# ----------------------------------------------------------------------
# fine-tuning

def _init_mp(labeled, seed=3):
    window_len = labeled[0][0].window.size
    return init_params(SMALL_ENC, window_len, seed=seed)


def test_finetune_total_is_weighted_sum_of_parts(labeled):
    cfg = FinetuneConfig(batch_size=8, epochs=2, beta=0.7)
    _, _, _, report = finetune(labeled, _init_mp(labeled), cfg, 16)
    for epoch in report.epochs:
        parts = epoch.losses
        assert set(parts) == {"proto", "total"}
        assert parts["total"] == pytest.approx(0.7 * parts["proto"], rel=1e-12)


def test_finetune_reduces_total_loss(labeled):
    cfg = FinetuneConfig(batch_size=8, epochs=5, learning_rate=5e-4)
    _, _, _, report = finetune(labeled, _init_mp(labeled), cfg, 4)
    assert report.epochs[-1].losses["total"] < report.epochs[0].losses["total"]
    assert report.stage == "finetune"


def test_finetune_is_deterministic(labeled):
    cfg = FinetuneConfig(batch_size=8, epochs=2)
    mp = _init_mp(labeled)
    mp_a, ids_a, protos_a, _ = finetune(labeled, mp, cfg, 6)
    mp_b, ids_b, protos_b, _ = finetune(labeled, mp, cfg, 6)
    assert mp_a.checksum() == mp_b.checksum()
    assert ids_a == ids_b == [1, 2, 3]
    assert protos_a.tobytes() == protos_b.tobytes()


def test_finetune_only_updates_signal_branch(labeled):
    cfg = FinetuneConfig(batch_size=8, epochs=1)
    mp = _init_mp(labeled)
    before = {k: v.copy() for k, v in mp.params.items()}
    after, _, _, _ = finetune(labeled, mp, cfg, 7)
    for key in before:
        frozen = not key.startswith(("stem.", "block", "embed."))
        unchanged = np.array_equal(before[key], after.params[key])
        assert unchanged == frozen, key
    # the input is never mutated
    assert all(np.array_equal(before[k], mp.params[k]) for k in before)


def test_finetune_zero_beta_still_runs(labeled):
    """With no objective the weights and the medoid prototypes stay put;
    only the BatchNorm running statistics move."""
    mp = _init_mp(labeled)
    cfg = FinetuneConfig(batch_size=8, epochs=1, beta=0.0)
    tuned, ids, protos, report = finetune(labeled, mp, cfg, 12)
    _, _, medoids, _ = finetune(labeled, mp, FinetuneConfig(epochs=0), 12)
    assert report.epochs[0].losses == {"proto": 0.0, "total": 0.0}
    assert ids == [1, 2, 3]
    assert protos.tobytes() == medoids.tobytes()
    assert all(np.array_equal(tuned.params[k], mp.params[k]) for k in mp.params)
    assert any(not np.array_equal(tuned.buffers[k], mp.buffers[k])
               for k in mp.buffers)


def test_finetune_rejects_thin_classes(labeled):
    thin = labeled + [(labeled[0][0], 99)]  # one lone segment for id 99
    with pytest.raises(ConfigurationError):
        finetune(thin, _init_mp(labeled), FinetuneConfig(), 0)
    with pytest.raises(InputError):
        finetune([], _init_mp(labeled), FinetuneConfig(), 0)


def test_finetune_zero_epochs_starts_geometry_at_medoids(labeled):
    mp = _init_mp(labeled)
    cfg = FinetuneConfig(batch_size=8, epochs=0)
    tuned, ids, protos, report = finetune(labeled, mp, cfg, 17)
    assert report.epochs == []
    assert tuned.checksum() == mp.checksum()
    assert protos.shape == (len(ids), SMALL_ENC.embed_dim)
    for k, cid in enumerate(ids):
        windows = np.stack([seg.window for seg, sid in labeled if sid == cid])
        assert np.array_equal(protos[k],
                              compute_medoid(encode_signal_batch(mp, windows)))


@pytest.mark.parametrize("epochs", [0, 1, 3])
def test_finetune_refreshes_medoids_once_per_distinct_weights(labeled, epochs,
                                                              monkeypatch):
    """Exactly one medoid pass per call, whatever the epoch count: on the
    initial weights, to seed the prototypes. No loss reads per-epoch
    centers, so no epoch refreshes them."""
    calls = []
    original = training._class_medoids

    def counting(*args):
        calls.append(args[0].checksum())
        return original(*args)

    monkeypatch.setattr(training, "_class_medoids", counting)
    cfg = FinetuneConfig(batch_size=8, epochs=epochs)
    mp = _init_mp(labeled)
    finetune(labeled, mp, cfg, 18)
    assert calls == [mp.checksum()]
