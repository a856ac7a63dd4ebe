"""Synthesis, detection, fiducials, reports, segmentation, record files."""

import numpy as np
import pytest

from ecgauth.errors import InputError, ParameterError, RecordParseError
from ecgauth.signals import (
    REPORT_MAX_PEAKS,
    BeatSegment,
    EcgRecord,
    FiducialFeatures,
    IdentityMorphology,
    detect_r_peaks,
    extract_fiducials,
    read_record,
    render_report,
    segment_beats,
    synth_ecg,
    write_record,
)


def canonical_morph(noise=0.0, jitter=0.0):
    """A mid-range identity from the generator's morphology family."""
    rw = 0.025
    return IdentityMorphology(
        amplitudes_mv=np.array([0.12, -0.37, 1.0, -0.44, 0.30]),
        widths_s=np.array([0.028, 0.27 * rw, rw, 0.27 * rw, 0.060]),
        offsets_s=np.array([-0.20, -0.89 * rw, 0.0, 0.89 * rw, 0.28]),
        mean_hr_bpm=72.0,
        hr_jitter_bpm=jitter,
        noise_std_mv=noise,
    )


# ----------------------------------------------------------------------
# synth_ecg

def test_synth_deterministic():
    m = canonical_morph(noise=0.03, jitter=1.0)
    a = synth_ecg(m, n_beats=12, fs=250.0, seed=9)
    b = synth_ecg(m, n_beats=12, fs=250.0, seed=9)
    assert np.array_equal(a.samples, b.samples)
    assert np.array_equal(a.ground_truth_peaks, b.ground_truth_peaks)


def test_synth_beat_count_and_duration():
    rec = synth_ecg(canonical_morph(), n_beats=10, fs=500.0, seed=0)
    assert rec.ground_truth_peaks.size == 10
    # 10 beats at 60/72 s spacing, jitter-free
    expected = 10 * 60.0 / 72.0
    assert rec.samples.size / rec.fs == pytest.approx(expected, rel=0.2)


def test_synth_noise_free_beats_align():
    rec = synth_ecg(canonical_morph(), n_beats=6, fs=250.0, seed=1)
    peaks = rec.ground_truth_peaks
    half = 40
    windows = np.stack([rec.samples[p - half : p + half] for p in peaks[1:-1]])
    assert np.allclose(windows, windows[0], atol=1e-9)


def test_synth_rejects_bad_morphology():
    m = canonical_morph()
    m.widths_s[2] = -0.01
    with pytest.raises(ParameterError):
        synth_ecg(m, n_beats=5, fs=250.0, seed=0)
    with pytest.raises(ParameterError):
        synth_ecg(canonical_morph(), n_beats=0, fs=250.0, seed=0)
    with pytest.raises(ParameterError):
        synth_ecg(canonical_morph(), n_beats=5, fs=50.0, seed=0)


def test_random_morphology_within_declared_family():
    rng = np.random.default_rng(4)
    for _ in range(50):
        m = IdentityMorphology.random(rng)
        assert (m.widths_s > 0).all()
        assert 30.0 <= m.mean_hr_bpm <= 200.0
        assert m.noise_std_mv >= 0
        # synthesizable without validation errors
        synth_ecg(m, n_beats=2, fs=250.0, seed=0)


# ----------------------------------------------------------------------
# detect_r_peaks

def test_detect_all_zero_signal_is_empty():
    rec = EcgRecord(samples=np.zeros(1250), fs=250.0, subject_id=0)
    assert detect_r_peaks(rec).size == 0


def test_detect_single_beat():
    rec = synth_ecg(canonical_morph(), n_beats=1, fs=250.0, seed=2)
    det = detect_r_peaks(rec)
    assert det.size == 1
    assert abs(det[0] - rec.ground_truth_peaks[0]) <= 0.010 * rec.fs


def test_detect_matches_ground_truth_with_noise():
    m = canonical_morph(noise=0.05, jitter=1.5)
    rec = synth_ecg(m, n_beats=40, fs=250.0, seed=5)
    det = detect_r_peaks(rec)
    truth = rec.ground_truth_peaks
    tol = round(0.010 * rec.fs)
    matched = sum(np.abs(det - t).min() <= tol for t in truth)
    assert matched / truth.size >= 0.99
    assert det.size <= truth.size + 1
    assert (np.diff(det) > 0).all()


def test_detect_refractory_blocks_double_fires():
    rec = synth_ecg(canonical_morph(noise=0.04), n_beats=30, fs=500.0, seed=6)
    det = detect_r_peaks(rec)
    assert (np.diff(det) >= 0.2 * rec.fs).all()


# ----------------------------------------------------------------------
# extract_fiducials

def test_fiducials_uniform_spacing():
    rec = EcgRecord(samples=np.zeros(2000), fs=500.0, subject_id=0)
    f = extract_fiducials(rec, np.array([100, 600, 1100]))
    assert np.allclose(f.rr_intervals_s, [1.0, 1.0])
    assert f.sdnn_s == 0.0
    assert f.rmssd_s == 0.0
    assert not f.degenerate


def test_fiducials_rmssd_hand_value():
    # RR sequence 0.8, 1.0, 0.8 -> successive diffs 0.2, -0.2
    rec = EcgRecord(samples=np.zeros(4000), fs=1000.0, subject_id=0)
    f = extract_fiducials(rec, np.array([0, 800, 1800, 2600]))
    assert np.allclose(f.rr_intervals_s, [0.8, 1.0, 0.8])
    assert f.rmssd_s == pytest.approx(np.sqrt((0.04 + 0.04) / 2), abs=1e-12)
    # population std of [0.8, 1.0, 0.8]
    assert f.sdnn_s == pytest.approx(np.std([0.8, 1.0, 0.8]), abs=1e-12)


def test_fiducials_degenerate_single_peak():
    rec = synth_ecg(canonical_morph(), n_beats=1, fs=250.0, seed=3)
    f = extract_fiducials(rec, detect_r_peaks(rec))
    assert f.degenerate
    assert f.rr_intervals_s.size == 0
    assert f.sdnn_s == 0.0 and f.rmssd_s == 0.0


def test_fiducials_rejects_bad_peaks():
    rec = EcgRecord(samples=np.zeros(1000), fs=250.0, subject_id=0)
    with pytest.raises(InputError):
        extract_fiducials(rec, np.array([50, 40]))
    with pytest.raises(InputError):
        extract_fiducials(rec, np.array([50, 5000]))


def test_qrs_width_tracks_generator_parameter():
    """Measured QRS width stays within +-20% of 2x the R-bump width.

    The onset/offset rule quantizes to sample indices, so the random-draw
    property is checked at 500 Hz where a one-sample error is small
    relative to the narrowest family QRS; the canonical identity is also
    checked at the pipeline's own 250 Hz.
    """
    for fs in (250.0, 500.0, 1000.0):
        rec = synth_ecg(canonical_morph(), n_beats=30, fs=fs, seed=3)
        f = extract_fiducials(rec, detect_r_peaks(rec))
        nominal = 2.0 * canonical_morph().widths_s[2]
        assert abs(f.avg_qrs_width_s - nominal) / nominal <= 0.20

    rng = np.random.default_rng(7)
    for i in range(20):
        m = IdentityMorphology.random(rng)
        m.noise_std_mv = 0.0
        m.hr_jitter_bpm = 0.0
        rec = synth_ecg(m, n_beats=20, fs=500.0, seed=50 + i)
        f = extract_fiducials(rec, detect_r_peaks(rec))
        nominal = 2.0 * m.widths_s[2]
        assert abs(f.avg_qrs_width_s - nominal) / nominal <= 0.20


# ----------------------------------------------------------------------
# reports

GOLDEN_REPORTS = [
    (
        FiducialFeatures([100, 600], [1.0], 0.08, 0.0, 0.0),
        "The R-wave Peak Positions of the ECG signal are located at: 100, 600. "
        "RR Intervals between successive peaks are: 1.000. Average QRS Width "
        "is 0.080 seconds. Standard Deviation of NN Intervals is 0.000. Root "
        "Mean Square of Successive Differences is 0.000.",
    ),
    (
        FiducialFeatures([250, 500, 745, 1020, 1260], [1.0, 0.98, 1.1, 0.96],
                         0.0925, 0.0587345, 0.1274999),
        "The R-wave Peak Positions of the ECG signal are located at: 250, "
        "500, 745, 1020, 1260. RR Intervals between successive peaks are: "
        "1.000, 0.980, 1.100, 0.960. Average QRS Width is 0.092 seconds. "
        "Standard Deviation of NN Intervals is 0.059. Root Mean Square of "
        "Successive Differences is 0.127.",
    ),
    (
        FiducialFeatures(list(range(50, 50 + 12 * 180, 180)), [0.72] * 11,
                         0.104, 0.0, 0.0),
        "The R-wave Peak Positions of the ECG signal are located at: 50, 230, "
        "410, 590, 770, 950, 1130, 1310, 1490, 1670, .... RR Intervals "
        "between successive peaks are: 0.720, 0.720, 0.720, 0.720, 0.720, "
        "0.720, 0.720, 0.720, 0.720, 0.720, 0.720. Average QRS Width is "
        "0.104 seconds. Standard Deviation of NN Intervals is 0.000. Root "
        "Mean Square of Successive Differences is 0.000.",
    ),
    (
        FiducialFeatures([422], [], 0.0615, 0.0, 0.0, degenerate=True),
        "The R-wave Peak Positions of the ECG signal are located at: 422. "
        "RR Intervals between successive peaks are: . Average QRS Width is "
        "0.061 seconds. Standard Deviation of NN Intervals is 0.000. Root "
        "Mean Square of Successive Differences is 0.000.",
    ),
    (
        FiducialFeatures([10, 280, 560], [1.08, 1.12], 0.0665, 0.02, 0.0282843),
        "The R-wave Peak Positions of the ECG signal are located at: 10, 280, "
        "560. RR Intervals between successive peaks are: 1.080, 1.120. "
        "Average QRS Width is 0.067 seconds. Standard Deviation of NN "
        "Intervals is 0.020. Root Mean Square of Successive Differences is "
        "0.028.",
    ),
]


@pytest.mark.parametrize("features,expected", GOLDEN_REPORTS)
def test_report_golden_strings(features, expected):
    assert render_report(features) == expected


def test_report_truncates_at_ten_peaks():
    f = FiducialFeatures(list(range(0, 3000, 200)), [0.8] * 14, 0.08, 0.01, 0.01)
    text = render_report(f)
    shown = ", ".join(str(p) for p in range(0, 200 * REPORT_MAX_PEAKS, 200))
    assert f"located at: {shown}, .... RR Intervals" in text


# ----------------------------------------------------------------------
# segmentation

def test_segment_windows_are_standardized():
    rec = synth_ecg(canonical_morph(noise=0.03), n_beats=20, fs=250.0, seed=8)
    segs = segment_beats(rec, detect_r_peaks(rec), half_window=100)
    assert all(s.window.size == 200 for s in segs)
    for s in segs:
        assert s.window.mean() == pytest.approx(0.0, abs=1e-12)
        assert s.window.std() == pytest.approx(1.0, rel=1e-9)


def test_segment_drops_boundary_beats():
    rec = synth_ecg(canonical_morph(), n_beats=10, fs=250.0, seed=9)
    peaks = detect_r_peaks(rec)
    segs = segment_beats(rec, peaks, half_window=150)
    kept = {s.r_index for s in segs}
    for p in peaks:
        inside = p - 150 >= 0 and p + 150 <= rec.samples.size
        assert (int(p) in kept) == inside
    assert all(s.subject_id == rec.subject_id for s in segs)


def test_segment_beat_count_near_requested():
    rec = synth_ecg(canonical_morph(noise=0.02), n_beats=60, fs=250.0, seed=10)
    segs = segment_beats(rec, detect_r_peaks(rec), half_window=250)
    assert 57 <= len(segs) <= 60


def _segment_per_beat(record, peaks, half_window):
    """Reference: one window at a time, as a plain loop over the peaks."""
    out = []
    for p in peaks:
        lo, hi = int(p) - half_window, int(p) + half_window
        if lo < 0 or hi > record.samples.size:
            continue
        w = record.samples[lo:hi].astype(np.float64)
        w = (w - w.mean()) / np.sqrt(max(float(w.var()), 1e-8))
        out.append((w, int(p)))
    return out


@pytest.mark.parametrize("half_window", [1, 100, 250])
def test_segment_matches_per_beat_reference(half_window):
    rec = synth_ecg(canonical_morph(noise=0.03, jitter=1.0), n_beats=30,
                    fs=250.0, seed=15, subject_id=7)
    peaks = detect_r_peaks(rec)
    # a nearly flat 2-sample window, whose variance is under the 1e-8 floor
    rec.samples[peaks[3] - 2 : peaks[3] + 2] = 0.25 + 1e-5 * np.arange(4)
    segs = segment_beats(rec, peaks, half_window)
    want = _segment_per_beat(rec, peaks, half_window)
    assert len(segs) == len(want)
    for seg, (w, r) in zip(segs, want):
        assert seg.window.tobytes() == w.tobytes()
        assert seg.r_index == r and seg.subject_id == 7


def test_segment_without_whole_windows_is_empty():
    rec = synth_ecg(canonical_morph(), n_beats=3, fs=250.0, seed=16)
    assert segment_beats(rec, detect_r_peaks(rec), rec.samples.size) == []
    assert segment_beats(rec, np.empty(0, dtype=np.int64), 10) == []


def test_segment_invalid_inputs():
    rec = synth_ecg(canonical_morph(), n_beats=5, fs=250.0, seed=11)
    peaks = detect_r_peaks(rec)
    with pytest.raises(ParameterError):
        segment_beats(rec, peaks, half_window=0)
    with pytest.raises(InputError):
        BeatSegment(window=np.zeros(7), r_index=0, subject_id=0)
    with pytest.raises(InputError):
        BeatSegment(window=np.array([np.nan, 0.0]), r_index=0, subject_id=0)


# ----------------------------------------------------------------------
# record files

def test_record_file_round_trip(tmp_path):
    rec = synth_ecg(canonical_morph(noise=0.03, jitter=1.0), n_beats=8,
                    fs=250.0, seed=12, subject_id=42)
    path = tmp_path / "rec.ecg"
    write_record(rec, path)
    back = read_record(path)
    assert np.array_equal(back.samples, rec.samples)
    assert back.fs == rec.fs
    assert back.subject_id == 42
    # the text format carries only samples; generator truth is not persisted
    assert back.ground_truth_peaks is None
    assert np.array_equal(detect_r_peaks(back), detect_r_peaks(rec))


def test_record_file_is_byte_stable(tmp_path):
    rec = synth_ecg(canonical_morph(), n_beats=5, fs=250.0, seed=13)
    a, b = tmp_path / "a.ecg", tmp_path / "b.ecg"
    write_record(rec, a)
    write_record(rec, b)
    assert a.read_bytes() == b.read_bytes()
    # the per-sample reference: each value's shortest round-trip repr
    lines = [f"fs={rec.fs!r},subject={rec.subject_id}"]
    lines += [repr(float(v)) for v in rec.samples]
    assert a.read_text(encoding="ascii") == "\n".join(lines) + "\n"


def test_read_record_matches_per_line_reference(tmp_path):
    rec = synth_ecg(canonical_morph(noise=0.03), n_beats=6, fs=250.0, seed=17)
    path = tmp_path / "rec.ecg"
    write_record(rec, path)
    # float() spellings a hand-written record may use
    extra = [" 1.5 ", "-0", "1e-3", "+2.", "1_000.25", "\t-3.25e+01\r"]
    path.write_text(path.read_text(encoding="ascii") + "\n".join(extra) + "\n",
                    encoding="ascii")
    lines = path.read_text(encoding="ascii").split("\n")[1:-1]
    want = np.empty(len(lines))
    for i, line in enumerate(lines):
        want[i] = float(line)
    assert read_record(path).samples.tobytes() == want.tobytes()


@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_read_record_reports_the_bad_line(tmp_path, where):
    rec = synth_ecg(canonical_morph(), n_beats=3, fs=250.0, seed=18)
    path = tmp_path / "rec.ecg"
    write_record(rec, path)
    lines = path.read_text(encoding="ascii").splitlines()
    index = {"first": 1, "middle": len(lines) // 2, "last": len(lines) - 1}[where]
    lines[index] = "1.0.0"
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    with pytest.raises(RecordParseError, match=f":{index + 1}: invalid sample value '1.0.0'"):
        read_record(path)


def test_read_record_rejects_corruption(tmp_path):
    rec = synth_ecg(canonical_morph(), n_beats=5, fs=250.0, seed=14)
    path = tmp_path / "rec.ecg"
    write_record(rec, path)

    lines = path.read_text(encoding="ascii").splitlines()
    lines[3] = "0.1x2"
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    with pytest.raises(RecordParseError, match=":4:"):
        read_record(path)

    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0xFF  # non-ASCII byte mid-file
    path.write_bytes(bytes(raw))
    with pytest.raises(RecordParseError):
        read_record(path)

    path.write_bytes(b"junk")
    with pytest.raises(RecordParseError):
        read_record(path)
