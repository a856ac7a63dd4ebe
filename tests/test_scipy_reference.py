"""The R-peak detector's numpy filter and peak picker against scipy.signal.

ecgauth does not need scipy at run time. These tests use it as the reference
the detector reproduces, and are skipped where it is not installed.
"""

import numpy as np
import pytest

scipy_signal = pytest.importorskip("scipy.signal")

from ecgauth import pipeline, signals  # noqa: E402
from ecgauth.signals import IdentityMorphology, detect_r_peaks, synth_ecg  # noqa: E402

SAMPLING_RATES = [100.0, 250.0, 360.0, 500.0, 1000.0]

# Largest |numpy - scipy| / max|scipy| measured over the cases below: 1.1e-14
# at 100 Hz, 2.2e-13 at 250 Hz, 1.7e-12 at 500 Hz, 2.0e-11 at 1000 Hz. It
# grows with fs because the direct-form coefficients lose precision as the
# band narrows against fs; at 1000 Hz scipy's recursion itself is about 1e-11
# off the same filter run in extended precision.
FILTER_REL_TOL = 1e-10


def _scipy_bandpass(x, fs):
    b, a = scipy_signal.butter(2, [5.0, 15.0], btype="band", fs=fs)
    return scipy_signal.filtfilt(b, a, x)


def _scipy_find_peaks(x, distance):
    return scipy_signal.find_peaks(x, distance=distance)[0]


@pytest.mark.parametrize("fs", SAMPLING_RATES)
def test_bandpass_coefficients_bit_equal_to_butter(fs):
    b, a, _ = signals._bandpass_design(fs)
    b_ref, a_ref = scipy_signal.butter(2, [5.0, 15.0], btype="band", fs=fs)
    assert b.tobytes() == b_ref.tobytes()
    assert a.tobytes() == a_ref.tobytes()


@pytest.mark.parametrize("fs", SAMPLING_RATES)
@pytest.mark.parametrize("seconds", [1.0, 12.0, 100.0])
def test_bandpass_matches_filtfilt(fs, seconds):
    """From a 1 s record (at 1000 Hz shorter than the impulse response,
    about 3.3k samples) up to 100 s, on an ECG riding on a 5 mV offset, a
    random walk and white noise."""
    rng = np.random.default_rng([int(fs), int(seconds)])
    n = int(fs * seconds)
    morph = IdentityMorphology.random(rng)
    ecg = synth_ecg(morph, n_beats=int(seconds), fs=fs, seed=1).samples
    ecg = np.resize(ecg, n) + 5.0
    for x in (ecg, rng.normal(size=n).cumsum() * 0.05 + 3.0, rng.normal(size=n)):
        ref = _scipy_bandpass(x, fs)
        err = np.abs(signals._bandpass(x, fs) - ref).max()
        assert err <= FILTER_REL_TOL * np.abs(ref).max()


def test_find_peaks_matches_scipy_on_plateaus_and_ties():
    """Integer values from small ranges make plateaus (flat maxima, some
    touching either end) and equal heights a distance apart; every other
    distance is not an integer."""
    rng = np.random.default_rng(20)
    for trial in range(2000):
        x = rng.integers(0, rng.integers(1, 8), rng.integers(1, 300)).astype(np.float64)
        if trial % 3 == 0:
            x += rng.normal(0.0, 1.0, x.size)
        d = float(rng.integers(1, 40)) if trial % 2 else float(rng.uniform(1.0, 40.0))
        got = signals._find_peaks(x, d)
        assert np.array_equal(got, _scipy_find_peaks(x, d)), (x.tolist(), d)


def test_detector_matches_scipy_backed_detector_on_train_hard_corpus(monkeypatch):
    """The train-hard corpus (noise and heart-rate jitter doubled): every
    record's detections equal those of the same detector with scipy's
    filtfilt and find_peaks swapped in."""
    cfg = pipeline.RunConfig(
        seed=2,
        corpus=pipeline.CorpusSpec(n_enrolled=5, n_open=10, beats_per_identity=80,
                                   noise_scale=2.0, jitter_scale=2.0),
        open_ratios=(1, 2),
    )
    ids = pipeline.enrolled_ids(cfg.corpus) + pipeline.open_ids(cfg.corpus)
    records = [pipeline.synth_identity(cfg, sid) for sid in ids]
    ours = [detect_r_peaks(rec) for rec in records]
    monkeypatch.setattr(signals, "_bandpass", _scipy_bandpass)
    monkeypatch.setattr(signals, "_find_peaks", _scipy_find_peaks)
    for rec, got in zip(records, ours):
        assert got.size >= 75
        assert np.array_equal(got, detect_r_peaks(rec))
