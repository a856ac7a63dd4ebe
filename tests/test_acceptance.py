"""Acceptance gate: every headline guarantee of the toolkit, one test each.

Each test prints a single PASS line with the measured evidence (run with
``-rP``, the configured default, to see them for passing tests). The default
configuration runs once, in a module-scoped pipeline run that the end-to-end
tests share. The ablation gate and the determinism gate run the unsaturated
train-hard configuration instead: the ablation gate on four config seeds,
the determinism gate twice at one seed.
"""

import contextlib
import hashlib
import io
import json
import math
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from ecgauth import pipeline
from ecgauth.cli import main
from ecgauth.losses import (
    center_loss_grad,
    compute_medoid,
    contrastive_loss_grad,
    medoid_index,
    prototype_loss_grad,
    repulsion_loss_grad,
)
from ecgauth.metrics import OPEN, oscr
from ecgauth.signals import (
    FiducialFeatures,
    IdentityMorphology,
    detect_r_peaks,
    render_report,
    synth_ecg,
)

# ----------------------------------------------------------------------
# gradient correctness
#
# Analytic gradients of the four losses and of the paper's two-term
# fine-tuning objective (alpha * self-constraint + beta * prototype; the
# toolkit now fine-tunes on the prototype term alone), for every parameter
# group each has, against central finite differences in double precision. The
# relative-error denominator is floored at 1e-6: central differences of
# an O(1) loss carry ~1e-10 absolute noise, so coordinates below the
# floor (exponentially small softmax tails) have no FD digits to compare
# against and are judged on that absolute scale instead.

_FD_H = 1e-5
_GRAD_TOL = 1e-4
_REL_FLOOR = 1e-6


def _fd_gradients(scalar_fn, arrays, h=_FD_H):
    """Central finite differences of scalar_fn w.r.t. each array, in place."""
    grads = []
    for a in arrays:
        g = np.zeros_like(a)
        flat, gflat = a.ravel(), g.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = scalar_fn()
            flat[i] = orig - h
            down = scalar_fn()
            flat[i] = orig
            gflat[i] = (up - down) / (2.0 * h)
        grads.append(g)
    return grads


def _max_rel_err(analytic, numeric):
    worst = 0.0
    for a, f in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(f)), _REL_FLOOR)
        worst = max(worst, float((np.abs(a - f) / denom).max()))
    return worst


def _unit_rows(rng, n, dim):
    rows = rng.normal(0.0, 1.0, (n, dim))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def _repulsion_instance(rng, n, dim):
    """Features, reciprocals and margins with every sample clear of the hinge."""
    f = rng.normal(0.0, 1.0, (n, dim))
    o = rng.normal(0.0, 1.0, (n, dim))
    d_e = ((f - o) ** 2).sum(axis=1) / dim
    # half the batch outside the margin, half strictly inside
    factors = np.where(rng.random(n) < 0.5, 0.5, 1.5)
    return f, o, d_e * factors


def test_loss_gradients_match_finite_differences():
    rng = np.random.default_rng(41)
    t0 = time.perf_counter()
    n_instances = 20
    worst = {}

    errs = []
    for _ in range(n_instances):
        batch, dim = int(rng.integers(2, 9)), int(rng.integers(2, 11))
        tau = float(rng.choice([0.05, 0.07, 0.2]))
        # the loss contract takes unit-norm projection rows
        zs = _unit_rows(rng, batch, dim)
        zr = _unit_rows(rng, batch, dim)
        _, dzs, dzr = contrastive_loss_grad(zs, zr, tau)
        fd = _fd_gradients(lambda: contrastive_loss_grad(zs, zr, tau)[0],
                           [zs, zr])
        errs.append(_max_rel_err([dzs, dzr], fd))
    worst["contrastive"] = max(errs)

    errs = []
    for _ in range(n_instances):
        n, dim = int(rng.integers(3, 9)), int(rng.integers(2, 7))
        f = rng.normal(0.0, 1.0, (n, dim))
        c = rng.normal(0.0, 1.0, (n, dim))
        _, dfeat = center_loss_grad(f, c)
        fd = _fd_gradients(lambda: center_loss_grad(f, c)[0], [f, c])
        errs.append(_max_rel_err([dfeat, -dfeat], fd))
    worst["self-constraint"] = max(errs)

    errs = []
    for _ in range(n_instances):
        n, m, dim = (int(rng.integers(3, 9)), int(rng.integers(2, 6)),
                     int(rng.integers(2, 7)))
        f = rng.normal(0.0, 1.0, (n, dim))
        p = rng.normal(0.0, 1.0, (m, dim))
        y = rng.integers(0, m, n)
        _, dfeat, dproto = prototype_loss_grad(f, y, p)
        fd = _fd_gradients(lambda: prototype_loss_grad(f, y, p)[0], [f, p])
        errs.append(_max_rel_err([dfeat, dproto], fd))
    worst["prototype"] = max(errs)

    errs = []
    for _ in range(n_instances):
        n, dim = int(rng.integers(3, 9)), int(rng.integers(2, 7))
        f, o, r = _repulsion_instance(rng, n, dim)
        _, dfeat, drecip, dmargin = repulsion_loss_grad(f, o, r)
        fd = _fd_gradients(lambda: repulsion_loss_grad(f, o, r)[0], [f, o, r])
        errs.append(_max_rel_err([dfeat, drecip, dmargin], fd))
    worst["repulsion"] = max(errs)

    errs = []
    for _ in range(n_instances):
        n, m, dim = (int(rng.integers(3, 9)), int(rng.integers(2, 6)),
                     int(rng.integers(2, 7)))
        alpha = float(rng.uniform(0.05, 0.5))
        beta = float(rng.uniform(0.5, 1.5))
        # modest spread keeps the summed loss O(1), so central differences
        # retain enough digits for the weighted-cancellation coordinates
        f = rng.normal(0.0, 0.5, (n, dim))
        c = rng.normal(0.0, 0.5, (n, dim))
        p = rng.normal(0.0, 0.5, (m, dim))
        y = rng.integers(0, m, n)

        def scalar():
            return (alpha * center_loss_grad(f, c)[0]
                    + beta * prototype_loss_grad(f, y, p)[0])

        _, ds = center_loss_grad(f, c)
        _, dpf, dpp = prototype_loss_grad(f, y, p)
        analytic = [
            alpha * ds + beta * dpf,  # features
            -alpha * ds,              # centers
            beta * dpp,               # prototypes
        ]
        fd = _fd_gradients(scalar, [f, c, p])
        errs.append(_max_rel_err(analytic, fd))
    worst["total"] = max(errs)

    elapsed = time.perf_counter() - t0
    overall = max(worst.values())
    assert overall <= _GRAD_TOL, worst
    assert elapsed < 60.0
    detail = " ".join(f"{k}={v:.2e}" for k, v in worst.items())
    print(f"PASS gradients: 5 losses x {n_instances} instances, "
          f"max rel err {overall:.2e} <= {_GRAD_TOL} ({detail}) "
          f"in {elapsed:.1f}s < 60s")


# ----------------------------------------------------------------------
# medoid oracle


def _exhaustive_medoid_index(pts):
    """Independent minimal-sum search, first index winning exact ties."""
    best, best_sum = 0, math.inf
    for i in range(pts.shape[0]):
        total = float(np.sqrt(((pts[i] - pts) ** 2).sum(axis=1)).sum())
        if total < best_sum:
            best, best_sum = i, total
    return best


def test_medoid_matches_exhaustive_search():
    rng = np.random.default_rng(42)
    n_sets = 200
    tie_sets = 0
    for i in range(n_sets):
        n, dim = int(rng.integers(1, 65)), int(rng.integers(1, 17))
        if i % 4 == 0:
            # small integer grid: exact duplicates and symmetric ties
            pts = rng.integers(-2, 3, (n, dim)).astype(np.float64)
        else:
            pts = rng.normal(0.0, float(rng.uniform(0.5, 3.0)), (n, dim))
        if i % 10 == 0 and n >= 2:
            pts[n // 2] = pts[0]  # force at least one duplicate row
        expected = _exhaustive_medoid_index(pts)
        sums = np.sqrt(
            ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
        ).sum(axis=1)
        if (sums == sums[expected]).sum() > 1:
            tie_sets += 1
        assert medoid_index(pts) == expected
        assert np.array_equal(compute_medoid(pts), pts[expected])
    print(f"PASS medoid: exhaustive minimal-sum agreement on {n_sets} sets "
          f"(n<=64, dims<=16), exact ties in {tie_sets} sets all broken "
          f"to the lowest index")


# ----------------------------------------------------------------------
# metric oracle


def _brute_oscr_area(scores, predicted, truth):
    """Independent enumeration of every distinct threshold, pure Python."""
    rows = list(zip(scores.tolist(), predicted.tolist(), truth.tolist()))
    known = [r for r in rows if r[2] != OPEN]
    opens = [r for r in rows if r[2] == OPEN]
    thresholds = sorted({r[0] for r in rows} | {0.0, 1.0})
    points = [(0.0, 0.0)]
    for d in thresholds:
        correct = sum(1 for s, p, t in known if p == t and s >= d)
        accepted_open = sum(1 for s, _, _ in opens if s >= d)
        points.append((accepted_open / len(opens), correct / len(known)))
    points.sort()
    return sum((x1 - x0) * (y0 + y1) / 2.0
               for (x0, y0), (x1, y1) in zip(points, points[1:]))


def test_oscr_matches_brute_force_enumeration():
    rng = np.random.default_rng(43)
    n_sets = 100
    worst = 0.0
    for i in range(n_sets):
        n_known, n_open = int(rng.integers(2, 41)), int(rng.integers(2, 41))
        scores, predicted, truth = [], [], []
        for k in range(n_known + n_open):
            if i % 3 == 0:
                prob = float(rng.integers(1, 6)) / 5.0  # duplicate thresholds
            else:
                prob = float(rng.uniform(1e-6, 1.0))
            scores.append(prob)
            predicted.append(int(rng.integers(0, 5)))
            truth.append(int(rng.integers(0, 5)) if k < n_known else OPEN)
        table = np.array(scores), np.array(predicted), np.array(truth)
        curve = oscr(*table)
        worst = max(worst, abs(curve.oscr_area - _brute_oscr_area(*table)))
        assert worst <= 1e-12
        assert np.all(curve.tnr + curve.fpr == 1.0)
        assert np.all(np.diff(curve.thresholds) > 0)
        assert np.all(np.diff(curve.ccr) <= 0)
        assert np.all(np.diff(curve.fpr) <= 0)
    print(f"PASS metric oracle: OSCR area within {worst:.1e} <= 1e-12 of "
          f"brute-force enumeration on {n_sets} score sets; tnr+fpr == 1 "
          f"exactly; CCR/FPR non-increasing at every adjacent threshold")


# ----------------------------------------------------------------------
# contrastive closed forms


def test_contrastive_closed_forms():
    same = np.array([[0.6, 0.8], [0.6, 0.8]])
    loss_same, _, _ = contrastive_loss_grad(same, same, tau=0.07)
    err_ln2 = abs(loss_same - math.log(2.0))
    assert err_ln2 <= 1e-9

    ortho = np.eye(2)
    loss_ortho, _, _ = contrastive_loss_grad(ortho, ortho, tau=0.07)
    assert loss_ortho <= 1e-6
    print(f"PASS contrastive closed forms: identical-embedding batch of 2 -> "
          f"ln 2 within {err_ln2:.1e} <= 1e-9; orthonormal pairs at tau=0.07 "
          f"-> {loss_ortho:.2e} <= 1e-6")


# ----------------------------------------------------------------------
# R-peak detection accuracy


def test_r_peak_detection_sensitivity_and_ppv():
    rng = np.random.default_rng(2025)
    fs, n_records, n_beats = 250.0, 50, 60
    tol = 0.010 * fs
    tp = fp = fn = 0
    for i in range(n_records):
        morph = IdentityMorphology.random(rng)
        morph.noise_std_mv = float(rng.uniform(0.0, 0.05))
        rec = synth_ecg(morph, n_beats=n_beats, fs=fs, seed=3000 + i)
        detections = list(detect_r_peaks(rec))
        used = [False] * len(detections)
        for truth in rec.ground_truth_peaks:
            best, best_dist = -1, tol + 1.0
            for j, det in enumerate(detections):
                if not used[j] and abs(det - truth) <= tol \
                        and abs(det - truth) < best_dist:
                    best, best_dist = j, abs(det - truth)
            if best >= 0:
                used[best] = True
                tp += 1
            else:
                fn += 1
        fp += used.count(False)
    sensitivity = tp / (tp + fn)
    ppv = tp / (tp + fp)
    assert sensitivity >= 0.99
    assert ppv >= 0.99
    print(f"PASS r-peak detection: {n_records} records (noise std <= 0.05 mV, "
          f"fs {fs:.0f}), sensitivity {sensitivity:.4f} >= 0.99, "
          f"PPV {ppv:.4f} >= 0.99 at +/-10 ms")


# ----------------------------------------------------------------------
# report golden strings
#
# The expected strings are checked in verbatim here; any byte-level drift
# in the renderer fails this test.

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


def test_report_rendering_matches_goldens():
    for features, expected in GOLDEN_REPORTS:
        assert render_report(features) == expected
    print(f"PASS report goldens: render_report byte-identical on "
          f"{len(GOLDEN_REPORTS)} checked-in fixture feature sets")


# ----------------------------------------------------------------------
# end-to-end experiment on the default configuration
#
# The one run of the default config in this suite: synth -> pretrain ->
# finetune -> eval through the CLI with the stock config and its fixed seed.
# The two tests below read different aspects of the same artifacts.


def _run_stages(cfg_path: Path, *extra: str) -> dict[str, float]:
    times = {}
    for stage in ("synth", "pretrain", "finetune", "eval"):
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = main([stage, "--config", str(cfg_path), *extra])
        times[stage] = time.perf_counter() - start
        assert code == 0, f"stage {stage} exited with {code}"
    return times


def _tree_digest(root: Path) -> dict[str, str]:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


@pytest.fixture(scope="module")
def experiment(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance")
    out = root / "run"
    doc = pipeline.default_config_dict()
    doc["out_dir"] = str(out)
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(doc, indent=2), encoding="utf-8")
    times = _run_stages(cfg_path)
    summary = json.loads((out / "eval" / "summary.json").read_text())
    return SimpleNamespace(times=times, summary=summary)


def test_end_to_end_open_set_experiment(experiment):
    first = experiment.summary["ratios"][0]
    assert first["ratio"] == 1 and first["open_identities"] == 8
    assert first["accuracy"] >= 0.90
    assert first["oscr"] >= 0.85
    assert first["tnr"] >= 0.60
    total = sum(experiment.times.values())
    assert total <= 600.0
    stages = " ".join(f"{k}={v:.0f}s" for k, v in experiment.times.items())
    print(f"PASS end-to-end: 8 enrolled vs 8 open, acc {first['accuracy']:.4f} "
          f">= 0.90, oscr {first['oscr']:.4f} >= 0.85, tnr {first['tnr']:.4f} "
          f">= 0.60 at delta {experiment.summary['threshold']:.9f}; "
          f"pipeline {total:.0f}s <= 600s ({stages})")


def test_far_rises_then_stabilizes_across_ratio_sweep(experiment):
    ratios = experiment.summary["ratios"]
    counts = [r["open_identities"] for r in ratios]
    assert counts == [8, 16, 24, 40, 80]
    fars = [r["far"] for r in ratios]
    oscrs = [r["oscr"] for r in ratios]
    for earlier, later in zip(fars, fars[1:]):
        assert earlier <= later, fars
    spread = max(oscrs) - min(oscrs)
    assert spread <= 0.10
    far_txt = " ".join(f"{v:.4f}" for v in fars)
    print(f"PASS ratio sweep: FAR non-decreasing over open counts {counts} "
          f"({far_txt}); OSCR spread {spread:.4f} <= 0.10")


# ----------------------------------------------------------------------
# quality gate on an unsaturated configuration
#
# The default run saturates (accuracy and TNR 1.0, OSCR 0.99), so the gates
# above cannot see a loss term that stops working. The train-hard settings (noise and heart-rate jitter doubled, 4
# pretraining and 5 fine-tuning epochs) leave room, but OSCR swings by about
# 0.1 from one config seed to the next, so the gate runs on four of them:
# seed 2, the train-hard benchmark workload's, and seeds 3, 6 and 7, each
# the lowest of seeds 2-7 on at least one gated quantity. Values at seeds
# 2-7, in order:
#   full OSCR                       0.8685 0.7380 0.8649 0.9651 0.7880 0.6811
#   full TNR                        0.6405 0.2532 0.6886 0.9114 0.5696 0.4137
#   OSCR lead over no_pretrain      +0.627 +0.422 +0.469 +0.537 +0.462 +0.148
#   OSCR lead over no_finetune      +0.098 +0.005 +0.003 -0.005 -0.029 -0.015
#   accuracy, full / no_finetune    1/0.9875 0.975/0.95 1/1 1/0.9875 1/0.9375
#                                   1/0.9875
# Seed 3 has the lowest TNR and accuracy, seed 6 the lowest lead over
# no_finetune, and seed 7 the lowest OSCR and lead over no_pretrain.
# no_finetune is the pretrained weights with the medoid prototypes (zero
# fine-tuning epochs). No positive floor on the lead over it holds on every
# seed, and a floor chosen to hold on the seeds where it is positive would
# hide the seeds where fine-tuning loses. What held on all six seeds is
# asserted instead: full's accuracy is at least no_finetune's, and full's
# OSCR lead is at least -0.05. A registry that stops fitting its prototypes
# fails both: at seed 2 the old beta = 0 registry (fixed weights, medoid
# prototypes taken before 5 epochs of BatchNorm statistics moved) scored
# accuracy 0.60 and OSCR 0.4037.
# The other floors sit well below the lowest value over seeds 2-7: full
# OSCR 0.681, full TNR 0.253, and full's OSCR lead of 0.148 over
# no_pretrain. That lead comes from the batch-norm running statistics that
# pretraining sets more than from its contrastive objective: with the
# pretraining learning rate at 1e-9, every seed here still passes.
# Floors only, never ceilings, so an improvement always passes.
# no_pretrain falls back to threshold 0.5 with TNR 1.0, so the variants are
# compared on OSCR, not TNR.

_HARD_SEEDS = (2, 3, 6, 7)
_HARD_OSCR_FLOOR = 0.50
_HARD_TNR_FLOOR = 0.10
_HARD_LEAD_FLOOR = {"no_pretrain": 0.06, "no_finetune": -0.05}


def _hard_tier_config_dict(seed: int) -> dict:
    """The train-hard config tree at one config seed."""
    doc = pipeline.default_config_dict()
    doc["seed"] = seed
    doc["corpus"].update(n_enrolled=5, n_open=10, beats_per_identity=80,
                         noise_scale=2.0, jitter_scale=2.0)
    doc["pretrain"]["epochs"] = 4
    doc["finetune"]["epochs"] = 5
    doc["open_ratios"] = [1, 2]
    return doc


@pytest.mark.parametrize("seed", _HARD_SEEDS, ids=lambda s: f"seed{s}")
def test_hard_tier_quality_floors_and_ablation_leads(seed):
    cfg = pipeline.config_from_dict(_hard_tier_config_dict(seed))
    table = pipeline.run_ablations(cfg)
    lines = pipeline.format_ablation_table(table).splitlines()
    assert lines[0] == "variant,accuracy,oscr,tnr,far"
    assert len(lines) == 1 + len(pipeline.ABLATION_VARIANTS)
    rows = {r.variant: r for r in table}
    assert set(rows) == set(pipeline.ABLATION_VARIANTS)

    full, no_finetune = rows["full"], rows["no_finetune"]
    assert full.oscr >= _HARD_OSCR_FLOOR
    assert full.tnr >= _HARD_TNR_FLOOR
    assert full.accuracy >= no_finetune.accuracy
    leads = {v: full.oscr - rows[v].oscr for v in _HARD_LEAD_FLOOR}
    for variant, floor in _HARD_LEAD_FLOOR.items():
        assert leads[variant] >= floor, (variant, leads)
    lead_txt = ", ".join(f"{v} {leads[v]:+.4f} >= {f}"
                         for v, f in _HARD_LEAD_FLOOR.items())
    print(f"PASS hard tier, seed {seed}: {len(table)} variants in the CSV "
          f"table; full oscr {full.oscr:.4f} >= {_HARD_OSCR_FLOOR}, "
          f"tnr {full.tnr:.4f} >= {_HARD_TNR_FLOOR}, accuracy "
          f"{full.accuracy:.4f} >= no_finetune {no_finetune.accuracy:.4f}; "
          f"oscr lead over {lead_txt}")


# ----------------------------------------------------------------------
# determinism
#
# Determinism holds for any config, so it is checked on the train-hard one
# at seed 2: the default encoder and 500-sample windows take the same BLAS
# paths as the default run, at a fraction of its cost.


def test_full_pipeline_is_bit_deterministic(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(_hard_tier_config_dict(2), indent=2),
                        encoding="utf-8")
    first, second = tmp_path / "first", tmp_path / "second"
    for out in (first, second):
        _run_stages(cfg_path, "--out", str(out))
    digests = _tree_digest(first)
    assert digests == _tree_digest(second)
    print(f"PASS determinism: two train-hard runs with identical config and "
          f"seed into two directories, all {len(digests)} artifacts "
          f"bit-identical (corpus records, checkpoint, registry, metric CSVs, "
          f"summary)")
