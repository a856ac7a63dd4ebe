"""Synthetic ECG generation, R-peak detection, fiducial features, and beat windows.

A record is a single-lead voltage trace in millivolts at a fixed sampling
rate. Synthetic identities are parameterized as five Gaussian bumps per beat
(P, Q, R, S, T waves), repeated at a jittered RR spacing with additive white
noise; the generator keeps exact ground-truth R positions, which downstream
tests use as a detection oracle.

Record file format, the one ``ecgauth auth`` ingests: a one-line header
``fs=<Hz>,subject=<id>`` followed by one sample (mV, decimal) per line. Parse
failures report 1-based line numbers. The synthesized corpus is not stored in
this format: ``pipeline.write_corpus`` writes raw float64 files checked by
SHA-256.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.signal import butter, filtfilt, find_peaks

from .atomic import atomic_open
from .errors import InputError, ParameterError, RecordParseError

#: Wave order used by all five-element morphology arrays.
WAVE_NAMES = ("P", "Q", "R", "S", "T")

#: Index of the R wave within the morphology arrays.
R_WAVE = 2

# Gaussian bumps are evaluated within +/- this many standard deviations of
# their center; contributions outside are below 2e-8 of the amplitude.
_BUMP_EXTENT_SIGMAS = 6.0

# Seconds of flat margin before the first beat and after the last R peak.
# The tail is longer so the final T wave is never clipped.
_LEAD_S = 0.6
_TAIL_S = 1.0

_REPORT_TEMPLATE = (
    "The R-wave Peak Positions of the ECG signal are located at: {peaks}. "
    "RR Intervals between successive peaks are: {rr}. "
    "Average QRS Width is {qrs} seconds. "
    "Standard Deviation of NN Intervals is {sdnn}. "
    "Root Mean Square of Successive Differences is {rmssd}."
)

#: Peak positions beyond this count render as a trailing ellipsis.
REPORT_MAX_PEAKS = 10


@dataclass
class EcgRecord:
    """A single-lead ECG trace.

    Attributes:
        samples: voltage samples in millivolts, float64.
        fs: sampling rate in Hz.
        subject_id: integer identity label of the record's source.
        ground_truth_peaks: exact R-peak sample indices when the record is
            synthetic; None for ingested recordings.
    """

    samples: np.ndarray
    fs: float
    subject_id: int
    ground_truth_peaks: np.ndarray | None = None

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1 or self.samples.size == 0:
            raise InputError("record samples must be a non-empty 1-D array")
        if not np.isfinite(self.samples).all():
            raise InputError("record samples must be finite")
        self.fs = float(self.fs)
        if self.fs <= 0:
            raise ParameterError(f"sampling rate must be positive, got {self.fs}")
        self.subject_id = int(self.subject_id)
        if self.ground_truth_peaks is not None:
            peaks = np.asarray(self.ground_truth_peaks, dtype=np.int64)
            _validate_peaks(peaks, self.samples.size)
            self.ground_truth_peaks = peaks


@dataclass
class IdentityMorphology:
    """Per-identity beat shape and rhythm parameters.

    The five-element arrays follow :data:`WAVE_NAMES` order. Widths are
    Gaussian standard deviations in seconds; offsets are bump centers relative
    to the R peak, so the R offset must be exactly zero (the generator's
    ground-truth peaks are the R bump centers).
    """

    amplitudes_mv: np.ndarray
    widths_s: np.ndarray
    offsets_s: np.ndarray
    mean_hr_bpm: float
    hr_jitter_bpm: float
    noise_std_mv: float

    def __post_init__(self):
        self.amplitudes_mv = np.asarray(self.amplitudes_mv, dtype=np.float64)
        self.widths_s = np.asarray(self.widths_s, dtype=np.float64)
        self.offsets_s = np.asarray(self.offsets_s, dtype=np.float64)
        self.mean_hr_bpm = float(self.mean_hr_bpm)
        self.hr_jitter_bpm = float(self.hr_jitter_bpm)
        self.noise_std_mv = float(self.noise_std_mv)
        self.validate()

    def validate(self) -> None:
        """Re-check the invariants (fields are mutable; synth re-validates)."""
        for name in ("amplitudes_mv", "widths_s", "offsets_s"):
            if getattr(self, name).shape != (5,):
                raise ParameterError(f"{name} must have shape (5,)")
        if not (self.widths_s > 0).all():
            raise ParameterError("bump widths must be positive")
        if self.offsets_s[R_WAVE] != 0.0:
            raise ParameterError("the R bump offset must be 0")
        if not 30.0 <= self.mean_hr_bpm <= 200.0:
            raise ParameterError("mean heart rate must lie in [30, 200] bpm")
        if self.hr_jitter_bpm < 0 or self.noise_std_mv < 0:
            raise ParameterError("jitter and noise levels must be non-negative")

    @classmethod
    def random(cls, rng: np.random.Generator) -> "IdentityMorphology":
        """Draw a plausible identity from the generator's morphology family.

        Q and S are sampled as narrow troughs roughly one R-width away from
        the R center and steep relative to the R flanks, so the QRS complex
        has well-defined onset/offset slopes on both sides.
        """
        r_amp = rng.uniform(0.8, 1.5)
        r_width = rng.uniform(0.015, 0.028)
        q_amp = -r_amp * rng.uniform(0.32, 0.42)
        s_amp = -r_amp * rng.uniform(0.38, 0.50)
        q_width = r_width * rng.uniform(0.22, 0.32)
        s_width = r_width * rng.uniform(0.22, 0.32)
        q_off = -r_width * rng.uniform(0.82, 0.96)
        s_off = r_width * rng.uniform(0.82, 0.96)
        p_amp = rng.uniform(0.04, 0.22)
        p_width = rng.uniform(0.018, 0.040)
        p_off = rng.uniform(-0.28, -0.14)
        t_amp = rng.uniform(0.10, 0.50)
        t_width = rng.uniform(0.040, 0.090)
        t_off = rng.uniform(0.20, 0.36)
        return cls(
            amplitudes_mv=np.array([p_amp, q_amp, r_amp, s_amp, t_amp]),
            widths_s=np.array([p_width, q_width, r_width, s_width, t_width]),
            offsets_s=np.array([p_off, q_off, 0.0, s_off, t_off]),
            mean_hr_bpm=rng.uniform(50.0, 105.0),
            hr_jitter_bpm=rng.uniform(0.6, 1.8),
            noise_std_mv=rng.uniform(0.020, 0.040),
        )


@dataclass
class FiducialFeatures:
    """Fiducial measurements extracted from one record's R peaks."""

    r_peaks: np.ndarray
    rr_intervals_s: np.ndarray
    avg_qrs_width_s: float
    sdnn_s: float
    rmssd_s: float
    degenerate: bool = False

    def __post_init__(self):
        self.r_peaks = np.asarray(self.r_peaks, dtype=np.int64)
        self.rr_intervals_s = np.asarray(self.rr_intervals_s, dtype=np.float64)


@dataclass
class BeatSegment:
    """One standardized beat window centered on an R peak."""

    window: np.ndarray
    r_index: int
    subject_id: int

    def __post_init__(self):
        self.window = np.asarray(self.window, dtype=np.float64)
        if self.window.ndim != 1 or self.window.size < 2 or self.window.size % 2:
            raise InputError("segment window must be 1-D with even length >= 2")
        if not np.isfinite(self.window).all():
            raise InputError("segment window must be finite")
        self.r_index = int(self.r_index)
        if self.r_index < 0:
            raise InputError("r_index must be non-negative")
        self.subject_id = int(self.subject_id)


def _validate_peaks(peaks: np.ndarray, n_samples: int):
    if peaks.ndim != 1:
        raise InputError("peak indices must be a 1-D array")
    if peaks.size == 0:
        return
    if peaks.min() < 0 or peaks.max() >= n_samples:
        raise InputError("peak index out of record range")
    if peaks.size > 1 and not (np.diff(peaks) > 0).all():
        raise InputError("peak indices must be strictly increasing")


def synth_ecg(
    morph: IdentityMorphology,
    n_beats: int,
    fs: float,
    seed: int,
    subject_id: int = 0,
) -> EcgRecord:
    """Generate one synthetic record for an identity.

    Beat times are laid out at the morphology's mean heart rate with Gaussian
    per-interval jitter, then snapped to the sample grid so that a jitter-free
    and noise-free record has bit-identical beats. Each beat is the sum of the
    five Gaussian bumps; white noise is added on top.

    Args:
        morph: identity parameters.
        n_beats: number of beats to place (>= 1).
        fs: sampling rate in Hz (>= 100).
        seed: generator seed; the record is a deterministic function of
            (morph, n_beats, fs, seed).
        subject_id: identity label stored on the record.

    Returns:
        EcgRecord with exact ground_truth_peaks.
    """
    morph.validate()
    n_beats = int(n_beats)
    if n_beats < 1:
        raise ParameterError("n_beats must be >= 1")
    fs = float(fs)
    if fs < 100.0:
        raise ParameterError("sampling rate must be >= 100 Hz for synthesis")

    rng = np.random.default_rng(seed)
    if n_beats > 1:
        hr = morph.mean_hr_bpm + rng.normal(0.0, morph.hr_jitter_bpm, n_beats - 1)
        hr = np.clip(hr, 30.0, 200.0)
        intervals = 60.0 / hr
    else:
        intervals = np.empty(0)
    beat_times = _LEAD_S + np.concatenate([[0.0], np.cumsum(intervals)])
    peaks = np.rint(beat_times * fs).astype(np.int64)
    n = int(peaks[-1] + round(_TAIL_S * fs)) + 1

    x = np.zeros(n)
    for amp, width, off in zip(morph.amplitudes_mv, morph.widths_s, morph.offsets_s):
        # Integer window offsets and bump values are computed once per bump so
        # every beat receives the identical contribution (beats differ only
        # through jittered spacing, noise, and record-edge clipping).
        rel0 = math.ceil((off - _BUMP_EXTENT_SIGMAS * width) * fs)
        rel1 = math.floor((off + _BUMP_EXTENT_SIGMAS * width) * fs)
        rel = np.arange(rel0, rel1 + 1)
        values = amp * np.exp(-((rel / fs - off) ** 2) / (2.0 * width * width))
        for p in peaks:
            idx = p + rel
            inside = (idx >= 0) & (idx < n)
            x[idx[inside]] += values[inside]
    if morph.noise_std_mv > 0:
        x += rng.normal(0.0, morph.noise_std_mv, n)

    return EcgRecord(samples=x, fs=fs, subject_id=subject_id, ground_truth_peaks=peaks)


@functools.lru_cache(maxsize=8)
def _bandpass_coefficients(fs: float) -> tuple[np.ndarray, np.ndarray]:
    # 5-15 Hz passband isolates QRS energy from P/T waves and baseline drift.
    # Every caller shares the cached arrays, so they are read-only.
    b, a = butter(2, [5.0, 15.0], btype="band", fs=fs)
    b.setflags(write=False)
    a.setflags(write=False)
    return b, a


def _bandpass(x: np.ndarray, fs: float) -> np.ndarray:
    b, a = _bandpass_coefficients(fs)
    return filtfilt(b, a, x)


def detect_r_peaks(record: EcgRecord) -> np.ndarray:
    """Locate R peaks via derivative, squaring, and moving-window integration.

    An adaptive signal/noise threshold with a 200 ms refractory period selects
    candidate energy peaks; each accepted candidate is refined to the raw
    signal's local maximum within +/- 50 ms. The result is strictly increasing
    with gaps of at least 200 ms.

    Args:
        record: input trace; must cover at least one second.

    Returns:
        int64 array of R sample indices (possibly empty).
    """
    x = record.samples
    fs = record.fs
    n = x.size
    if n < fs:
        raise InputError("R-peak detection needs at least 1 s of signal")

    band = _bandpass(x, fs)
    deriv = np.diff(band, prepend=band[:1])
    energy = deriv * deriv
    win = max(1, int(round(0.15 * fs)))
    integ = np.convolve(energy, np.full(win, 1.0 / win), mode="same")
    if integ.max() <= 0.0:
        return np.empty(0, dtype=np.int64)

    refractory = max(1, int(round(0.2 * fs)))
    cands, _ = find_peaks(integ, distance=refractory)
    if cands.size == 0:
        return np.empty(0, dtype=np.int64)

    # Running signal/noise estimates in the style of classic QRS detectors:
    # seeded from the candidate height distribution, updated per decision.
    spki = float(integ[cands].max())
    npki = float(np.median(integ[cands]))
    accepted = []
    for c in cands:
        thr = npki + 0.25 * (spki - npki)
        if integ[c] >= thr:
            accepted.append(int(c))
            spki = 0.125 * float(integ[c]) + 0.875 * spki
        else:
            npki = 0.125 * float(integ[c]) + 0.875 * npki

    # Refine each acceptance to the raw local maximum within +/- 50 ms.
    half = max(1, int(round(0.05 * fs)))
    refined = []
    for c in accepted:
        lo = max(0, c - half)
        hi = min(n, c + half + 1)
        refined.append(lo + int(np.argmax(x[lo:hi])))

    # Refinement can pull neighbours together; re-enforce the refractory gap,
    # keeping the taller raw peak (earlier index on ties).
    out: list[int] = []
    for p in refined:
        if out and p - out[-1] < refractory:
            if x[p] > x[out[-1]]:
                out[-1] = p
        elif not out or p != out[-1]:
            out.append(p)
    return np.asarray(out, dtype=np.int64)


def _qrs_width_at(diff: np.ndarray, peak: int, fs: float) -> float | None:
    """Width of the high-slope region around one peak, in seconds.

    Within +/- 100 ms of the peak, finds the maximum squared single-step
    difference on each side, then walks outward from each flank maximum to
    the first element whose squared difference is below 5% of the per-beat
    maximum. A sign change between consecutive differences counts as a
    crossing too: the underlying slope passes through zero there (the dips
    just outside the Q and S troughs), even when no sampled value lands
    below the threshold.
    """
    w = max(1, int(round(0.1 * fs)))
    # diff[i] is the slope between samples i and i+1.
    a = max(0, peak - w)
    b = min(diff.size, peak + w)
    if a >= peak or peak >= b:
        return None
    seg = diff[a:b]
    m = float(np.max(seg * seg))
    if m <= 0.0:
        return None
    thr = 0.05 * m

    left = int(a + np.argmax(diff[a:peak] ** 2))
    onset = a
    for j in range(left, a - 1, -1):
        if diff[j] * diff[j] < thr or (j < left and diff[j] * diff[j + 1] < 0):
            onset = j + 1
            break
    right = int(peak + np.argmax(diff[peak:b] ** 2))
    offset = b
    for j in range(right, b):
        if diff[j] * diff[j] < thr or (j > right and diff[j] * diff[j - 1] < 0):
            offset = j
            break
    return max(0, offset - onset) / fs


def extract_fiducials(record: EcgRecord, peaks: np.ndarray) -> FiducialFeatures:
    """Compute RR statistics and the average QRS width for given R peaks.

    RR intervals are successive peak gaps in seconds; SDNN is their population
    standard deviation and RMSSD the root mean square of successive RR
    differences. With fewer than two peaks the variability statistics are zero
    and the result is flagged degenerate.

    Args:
        record: source trace.
        peaks: strictly increasing R indices within the record.

    Returns:
        FiducialFeatures for the record.
    """
    peaks = np.asarray(peaks, dtype=np.int64)
    _validate_peaks(peaks, record.samples.size)

    rr = np.diff(peaks) / record.fs
    sdnn = float(rr.std()) if rr.size else 0.0
    rmssd = float(np.sqrt(np.mean(np.diff(rr) ** 2))) if rr.size >= 2 else 0.0

    diff = np.diff(record.samples)
    widths = [w for p in peaks if (w := _qrs_width_at(diff, int(p), record.fs)) is not None]
    avg_qrs = float(np.mean(widths)) if widths else 0.0

    return FiducialFeatures(
        r_peaks=peaks,
        rr_intervals_s=rr,
        avg_qrs_width_s=avg_qrs,
        sdnn_s=sdnn,
        rmssd_s=rmssd,
        degenerate=peaks.size < 2,
    )


def render_report(features: FiducialFeatures) -> str:
    """Render the fixed five-sentence textual report for a record.

    Peak positions are comma-separated integers, capped at the first
    :data:`REPORT_MAX_PEAKS` followed by ``...``; RR intervals and all
    second-valued quantities use three decimal places. The template is
    byte-stable: equal features render to equal strings.
    """
    positions = [str(int(p)) for p in features.r_peaks[:REPORT_MAX_PEAKS]]
    if features.r_peaks.size > REPORT_MAX_PEAKS:
        positions.append("...")
    return _REPORT_TEMPLATE.format(
        peaks=", ".join(positions),
        rr=", ".join(f"{v:.3f}" for v in features.rr_intervals_s),
        qrs=f"{features.avg_qrs_width_s:.3f}",
        sdnn=f"{features.sdnn_s:.3f}",
        rmssd=f"{features.rmssd_s:.3f}",
    )


def segment_beats(
    record: EcgRecord, peaks: np.ndarray, half_window: int
) -> list[BeatSegment]:
    """Cut standardized windows of 2*half_window samples around R peaks.

    Each kept window spans [peak - half_window, peak + half_window) and is
    standardized to zero mean and unit standard deviation with a variance
    floor of 1e-8 (a constant window standardizes to all zeros). Peaks whose
    window would cross a record boundary are dropped.
    """
    half_window = int(half_window)
    if half_window < 1:
        raise ParameterError("half_window must be >= 1")
    peaks = np.asarray(peaks, dtype=np.int64)
    _validate_peaks(peaks, record.samples.size)

    n = record.samples.size
    kept = peaks[(peaks >= half_window) & (peaks + half_window <= n)]
    # one (beats, 2*half_window) gather; each row reduces exactly as a lone
    # 1-D window would, so the windows are bit-equal to per-beat ones
    w = record.samples[kept[:, None] + np.arange(-half_window, half_window)]
    w = (w - w.mean(axis=1, keepdims=True)) / np.sqrt(
        np.maximum(w.var(axis=1), 1e-8))[:, None]
    return [BeatSegment(window=row, r_index=int(p), subject_id=record.subject_id)
            for row, p in zip(w, kept)]


def write_record(record: EcgRecord, path) -> None:
    """Write a record in the text ingestion format (header plus one mV/line)."""
    lines = [f"fs={record.fs!r},subject={record.subject_id}"]
    lines.extend(map(repr, record.samples.tolist()))
    with atomic_open(path, encoding="ascii") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")


def read_record(path) -> EcgRecord:
    """Read a record from the text ingestion format.

    Raises:
        RecordParseError: malformed header or sample line, with the 1-based
            line number of the offending line.
    """
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = fh.read().split("\n")
    except UnicodeDecodeError:
        raise RecordParseError(path, 1, "not an ASCII text record") from None
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise RecordParseError(path, 1, "empty record file")

    header = lines[0]
    if not header.startswith("fs=") or ",subject=" not in header:
        raise RecordParseError(path, 1, f"malformed header {header!r}")
    fs_text, _, subject_text = header[3:].partition(",subject=")
    try:
        fs = float(fs_text)
        subject = int(subject_text)
    except ValueError:
        raise RecordParseError(path, 1, f"malformed header {header!r}") from None
    if fs <= 0:
        raise RecordParseError(path, 1, f"sampling rate must be positive, got {fs_text}")

    try:
        samples = np.fromiter(map(float, lines[1:]), np.float64, len(lines) - 1)
    except ValueError:
        # find the first bad line again, one at a time, for its line number
        for i, line in enumerate(lines[1:], start=2):
            try:
                float(line)
            except ValueError:
                raise RecordParseError(path, i, f"invalid sample value {line!r}") from None
        raise
    if samples.size == 0:
        raise RecordParseError(path, 2, "record contains no samples")
    return EcgRecord(samples=samples, fs=fs, subject_id=subject)
