"""Open-set metrics against hand values and a brute-force threshold sweep."""

import numpy as np
import pytest

from ecgauth.errors import InputError, ParameterError
from ecgauth.metrics import (
    OPEN,
    ScoredSample,
    ccr,
    closed_set_accuracy,
    far,
    format_curve,
    fpr,
    oscr,
    tnr,
    write_embeddings_csv,
)


def S(prob, pred, true):
    return ScoredSample(max_prob=prob, predicted_id=pred, true_id=true)


HAND = [
    S(0.9, 1, 1),   # correct, confident
    S(0.6, 2, 1),   # wrong prediction
    S(0.4, 2, 2),   # correct, low confidence
    S(0.8, 1, OPEN),
    S(0.3, 2, OPEN),
]


# ----------------------------------------------------------------------
# pointwise rates

def test_ccr_hand_values():
    assert ccr(HAND, 0.0) == pytest.approx(2 / 3)
    assert ccr(HAND, 0.5) == pytest.approx(1 / 3)   # only the 0.9 hit survives
    assert ccr(HAND, 0.95) == 0.0


def test_fpr_tnr_hand_values():
    assert fpr(HAND, 0.5) == pytest.approx(1 / 2)
    assert tnr(HAND, 0.5) == pytest.approx(1 / 2)
    assert fpr(HAND, 0.9) == 0.0
    assert tnr(HAND, 0.9) == 1.0


def test_tnr_is_exactly_one_minus_fpr():
    rng = np.random.default_rng(0)
    samples = [
        S(float(p), int(rng.integers(0, 3)),
          int(rng.choice([OPEN, 0, 1, 2])))
        for p in rng.uniform(0.01, 1.0, size=200)
    ]
    for delta in np.unique([s.max_prob for s in samples])[:50]:
        assert tnr(samples, float(delta)) + fpr(samples, float(delta)) == 1.0


def test_far_uses_total_population_denominator():
    # 1 accepted open at delta=0.5, over 3 known + 2 open samples
    assert far(HAND, 0.5) == pytest.approx(1 / 5)
    assert far(HAND, 0.0) == pytest.approx(2 / 5)


def test_rate_extremes():
    # delta=0 accepts everything; delta just above 1 accepts nothing
    assert ccr(HAND, 0.0) == pytest.approx(2 / 3)
    assert fpr(HAND, 0.0) == 1.0
    assert fpr(HAND, 1.0) == 0.0
    assert tnr(HAND, 1.0) == 1.0


def test_rates_validate_sample_mix():
    known_only = [S(0.9, 1, 1)]
    open_only = [S(0.9, 1, OPEN)]
    with pytest.raises(InputError):
        ccr(open_only, 0.5)
    with pytest.raises(InputError):
        fpr(known_only, 0.5)
    with pytest.raises(InputError):
        far(known_only, 0.5)
    with pytest.raises(InputError):
        oscr(known_only)


def test_scored_sample_validates_probability():
    with pytest.raises(ParameterError):
        S(0.0, 1, 1)   # zero excluded: scores live in (0, 1]
    with pytest.raises(ParameterError):
        S(1.2, 1, 1)
    S(1.0, 1, 1)


# ----------------------------------------------------------------------
# closed-set metrics

def test_closed_set_hand_case():
    samples = [S(0.9, 1, 1), S(0.9, 1, 1), S(0.9, 2, 1), S(0.9, 2, 2)]
    assert closed_set_accuracy(samples) == pytest.approx(3 / 4)


def test_closed_set_ignores_open_samples():
    samples = HAND + [S(0.99, 1, OPEN)]
    assert closed_set_accuracy(samples) == pytest.approx(2 / 3)


# ----------------------------------------------------------------------
# OSCR sweep

def _brute_oscr(samples):
    """Independent trapezoid over every distinct score, plus the two ends."""
    known = [s for s in samples if s.true_id != OPEN]
    opens = [s for s in samples if s.true_id == OPEN]
    deltas = sorted(set([s.max_prob for s in samples] + [0.0, 1.0]))
    pts = []
    for d in deltas:
        c = sum(1 for s in known
                if s.predicted_id == s.true_id and s.max_prob >= d) / len(known)
        f = sum(1 for s in opens if s.max_prob >= d) / len(opens)
        pts.append((f, c))
    pts.append((0.0, 0.0))
    pts.sort()
    return sum((x1 - x0) * (y0 + y1) / 2.0
               for (x0, y0), (x1, y1) in zip(pts, pts[1:]))


def random_samples(rng, n_known=40, n_open=25, discrete=False):
    out = []
    for _ in range(n_known):
        true = int(rng.integers(0, 4))
        pred = true if rng.uniform() < 0.7 else int(rng.integers(0, 4))
        prob = (float(rng.choice([0.2, 0.5, 0.9])) if discrete
                else float(rng.uniform(0.01, 1.0)))
        out.append(S(prob, pred, true))
    for _ in range(n_open):
        prob = (float(rng.choice([0.2, 0.5, 0.9])) if discrete
                else float(rng.uniform(0.01, 1.0)))
        out.append(S(prob, int(rng.integers(0, 4)), OPEN))
    return out


def test_oscr_matches_brute_force():
    rng = np.random.default_rng(1)
    for trial in range(10):
        samples = random_samples(rng, discrete=trial % 3 == 0)
        curve = oscr(samples)
        assert curve.oscr_area == pytest.approx(_brute_oscr(samples),
                                                abs=1e-12)


def test_oscr_curve_equals_pointwise_rates():
    """Every swept rate is bit-equal to the single-threshold function's,
    with duplicate scores and ties at exactly 1.0."""
    rng = np.random.default_rng(4)
    for trial in range(12):
        samples = random_samples(rng, n_known=30, n_open=20,
                                 discrete=trial % 2 == 0)
        samples += [S(1.0, 1, 1), S(1.0, 2, 1), S(1.0, 3, OPEN)]
        curve = oscr(samples)
        assert curve.thresholds[-1] == 1.0
        for i, delta in enumerate(curve.thresholds):
            assert curve.ccr[i] == ccr(samples, delta)
            assert curve.fpr[i] == fpr(samples, delta)
            assert curve.far[i] == far(samples, delta)
            assert curve.tnr[i] == tnr(samples, delta)


def test_oscr_hand_case():
    # two knowns (one always right, one always wrong), two opens
    samples = [S(0.9, 1, 1), S(0.7, 2, 1), S(0.8, 1, OPEN), S(0.2, 1, OPEN)]
    curve = oscr(samples)
    # delta sweep: fpr 1 -> .5 -> .5 -> 0, ccr .5 -> .5 -> .5 -> .5 -> 0
    # points (fpr, ccr): (1,.5) (.5,.5) (.5,.5) (0,.5) + (0,0)
    # area = 0.5 * 1.0
    assert curve.oscr_area == pytest.approx(0.5, abs=1e-12)


def test_oscr_perfect_separation_is_one():
    samples = [S(0.99, 1, 1), S(0.98, 2, 2), S(0.10, 1, OPEN), S(0.05, 2, OPEN)]
    assert oscr(samples).oscr_area == pytest.approx(1.0, abs=1e-12)


def test_oscr_curve_monotonicity():
    """CCR and FPR both fall (weakly) as the threshold rises."""
    rng = np.random.default_rng(2)
    curve = oscr(random_samples(rng, n_known=120, n_open=80))
    assert np.all(np.diff(curve.thresholds) > 0)
    assert np.all(np.diff(curve.ccr) <= 0)
    assert np.all(np.diff(curve.fpr) <= 0)
    assert np.all(curve.tnr + curve.fpr == 1.0)


def test_oscr_invariant_under_rank_preserving_rescale():
    """Only the score ordering matters: x -> x**3 keeps the area."""
    rng = np.random.default_rng(3)
    samples = random_samples(rng)
    cubed = [S(s.max_prob ** 3, s.predicted_id, s.true_id) for s in samples]
    assert oscr(cubed).oscr_area == pytest.approx(oscr(samples).oscr_area,
                                                  abs=1e-12)


# ----------------------------------------------------------------------
# exports

def test_format_curve_shape_and_round_trip():
    curve = oscr(HAND)
    text = format_curve(curve)
    lines = text.strip().split("\n")
    assert lines[0] == "delta,ccr,fpr,far,tnr"
    assert lines[-1].startswith("oscr=")
    assert float(lines[-1][5:]) == curve.oscr_area
    for i, line in enumerate(lines[1:-1]):
        fields = [float(tok) for tok in line.split(",")]
        assert fields[0] == float(curve.thresholds[i])
        assert fields[1] == float(curve.ccr[i])
        assert fields[4] == float(curve.tnr[i])


def test_write_embeddings_csv(tmp_path):
    emb = np.arange(6.0).reshape(2, 3)
    path = tmp_path / "emb.csv"
    write_embeddings_csv(path, [5, OPEN], emb)
    lines = path.read_text(encoding="utf-8").strip().split("\n")
    assert lines[0] == "sample_id,true_id,dim_0,dim_1,dim_2"
    assert lines[1] == "0,5,0.0,1.0,2.0"
    assert lines[2] == "1,-1,3.0,4.0,5.0"
    with pytest.raises(InputError):
        write_embeddings_csv(path, [5], emb)
    with pytest.raises(InputError):
        write_embeddings_csv(path, [5, OPEN], emb.reshape(6))
