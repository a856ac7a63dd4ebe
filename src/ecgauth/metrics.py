"""Closed- and open-set evaluation: CCR, FPR, OSCR, FAR, TNR, and exports.

Every metric takes three aligned arrays, one entry per evaluated segment:
``scores`` (the winning probability, in (0, 1]), ``predicted`` (the
predicted identity) and ``truth`` (the true identity, or the OPEN marker
for identities outside the registry). All metrics are pure functions of
those arrays. The threshold sweep enumerates every distinct score, so the
OSCR area is exact rather than a discretized approximation; it sorts the
correct-known and the open scores once and reads the count at or above
every threshold from one binary search, so a sweep costs O(N log N) rather
than one pass per threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .atomic import atomic_open
from .errors import InputError, ParameterError, ShapeError

#: true_id marker for samples whose identity is not enrolled.
OPEN = -1


@dataclass
class OpenSetCurve:
    """Aligned threshold sweep plus the area under CCR-vs-FPR."""

    thresholds: np.ndarray
    ccr: np.ndarray
    fpr: np.ndarray
    far: np.ndarray
    tnr: np.ndarray
    oscr_area: float


def _columns(scores, predicted, truth):
    """(every score, sorted correct-known scores, sorted open scores, known
    count), after checking that the arrays align and every score lies in
    (0, 1]."""
    scores = np.asarray(scores, dtype=np.float64)
    predicted, truth = np.asarray(predicted), np.asarray(truth)
    if scores.ndim != 1 or predicted.shape != scores.shape or truth.shape != scores.shape:
        raise ShapeError("scores, predicted and truth must be aligned 1-D arrays")
    if not np.all((scores > 0.0) & (scores <= 1.0)):
        raise ParameterError("scores must lie in (0, 1]")
    is_open = truth == OPEN
    hit = ~is_open & (predicted == truth)
    n_known = int(is_open.size - is_open.sum())
    return scores, np.sort(scores[hit]), np.sort(scores[is_open]), n_known


def _at_or_above(ordered: np.ndarray, delta):
    """How many of the sorted scores are >= delta (ties count as accepted)."""
    return ordered.size - np.searchsorted(ordered, delta, side="left")


def ccr(scores, predicted, truth, delta: float) -> float:
    """Fraction of known samples classified correctly with confidence >= delta."""
    _, hits, _, n_known = _columns(scores, predicted, truth)
    if not n_known:
        raise InputError("CCR needs at least one known-identity sample")
    return int(_at_or_above(hits, delta)) / n_known


def fpr(scores, predicted, truth, delta: float) -> float:
    """Fraction of open samples whose confidence clears delta."""
    _, _, opens, _ = _columns(scores, predicted, truth)
    if not opens.size:
        raise InputError("FPR needs at least one open sample")
    return int(_at_or_above(opens, delta)) / opens.size


def tnr(scores, predicted, truth, delta: float) -> float:
    """Fraction of open samples rejected at delta; exactly 1 - fpr."""
    return 1.0 - fpr(scores, predicted, truth, delta)


def far(scores, predicted, truth, delta: float) -> float:
    """Accepted open samples over the whole test population.

    The denominator is |known| + |open|, not the more common |open|; this
    unusual convention is kept deliberately.
    """
    _, _, opens, n_known = _columns(scores, predicted, truth)
    if not n_known or not opens.size:
        raise InputError("FAR needs both known and open samples")
    return int(_at_or_above(opens, delta)) / (n_known + opens.size)


def closed_set_accuracy(scores, predicted, truth) -> float:
    """Threshold-free fraction of known samples whose predicted id is right."""
    _, hits, _, n_known = _columns(scores, predicted, truth)
    if not n_known:
        raise InputError("closed-set metrics need known samples")
    return hits.size / n_known


def oscr(scores, predicted, truth) -> OpenSetCurve:
    """Sweep every distinct score (plus 0 and 1) and integrate CCR over FPR.

    The area is the trapezoidal integral of the swept (FPR, CCR) points,
    extended to FPR=0 with CCR=0 (the all-rejected limit); the delta=0 point
    pins FPR=1, so the integral covers [0, 1] exactly. Every rate equals
    what ccr/fpr/far/tnr return at that threshold.
    """
    scores, hits, opens, n_known = _columns(scores, predicted, truth)
    if not n_known or not opens.size:
        raise InputError("OSCR needs both known and open samples")
    thresholds = np.unique(np.concatenate([scores, [0.0, 1.0]]))
    # integer counts over the single-threshold denominators: each division
    # is exact-operand IEEE division, so the rates are bit-equal to theirs
    ccr_v = _at_or_above(hits, thresholds) / n_known
    accepted = _at_or_above(opens, thresholds)
    fpr_v = accepted / opens.size
    far_v = accepted / (n_known + opens.size)
    tnr_v = 1.0 - fpr_v

    points = sorted(zip(fpr_v, ccr_v)) + [(0.0, 0.0)]
    points.sort()
    area = 0.0
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        area += (x1 - x0) * (y0 + y1) / 2.0
    return OpenSetCurve(
        thresholds=thresholds, ccr=ccr_v, fpr=fpr_v, far=far_v, tnr=tnr_v,
        oscr_area=float(area),
    )


# ----------------------------------------------------------------------
# exports

def format_curve(curve: OpenSetCurve) -> str:
    """Curve rows as delta,ccr,fpr,far,tnr plus a final oscr= summary line."""
    lines = ["delta,ccr,fpr,far,tnr"]
    for i in range(curve.thresholds.size):
        row = (curve.thresholds[i], curve.ccr[i], curve.fpr[i],
               curve.far[i], curve.tnr[i])
        lines.append(",".join(repr(float(v)) for v in row))
    lines.append(f"oscr={float(curve.oscr_area)!r}")
    return "\n".join(lines) + "\n"


def write_embeddings_csv(path, true_ids, embeddings) -> None:
    """Raw embedding matrix export: sample_id,true_id,dim_0..dim_{D-1}, where
    sample_id is the row index."""
    emb = np.asarray(embeddings, dtype=np.float64)
    if emb.ndim != 2 or len(true_ids) != emb.shape[0]:
        raise InputError("embedding export needs aligned ids and a 2-D matrix")
    header = "sample_id,true_id," + ",".join(f"dim_{j}" for j in range(emb.shape[1]))
    with atomic_open(path, encoding="utf-8") as fh:
        fh.write(header + "\n")
        for sid, (tid, row) in enumerate(zip(true_ids, emb)):
            fh.write(f"{sid},{int(tid)},"
                     + ",".join(repr(float(v)) for v in row) + "\n")
