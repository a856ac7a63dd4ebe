"""Objectives for contrastive pretraining and identity-geometry fine-tuning.

Two losses are trained: the symmetric cross-modal contrastive loss
(``PretrainConfig.tau`` is its temperature) and, weighted by
``FinetuneConfig.beta``, a distance-softmax prototype loss whose prototypes
start at the per-class medoids. Distances are squared Euclidean throughout
except the medoid, which minimizes the sum of plain Euclidean distances.

``center_loss_grad`` (the self-constraint pull toward per-class centers) and
``repulsion_loss_grad`` (a reciprocal-point hinge) are part of no objective:
neither moved a hard-tier open-set metric beyond the seed spread. They stay
only while the benchmark tracer (``perfbench/tracing.py``) binds them by
name.

Each ``*_grad`` function returns the loss together with analytic gradients;
they are plain functions of their inputs (no hidden state), so central finite
differences validate them directly.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError, ParameterError, ShapeError

# exp() underflows to zero below roughly -745; clipping shifted logits here
# keeps every probability strictly positive without changing the argmax.
_LOGIT_FLOOR = -700.0


# ----------------------------------------------------------------------
# contrastive pretraining objective

def cosine_sim_matrix(zs: np.ndarray, zr: np.ndarray) -> np.ndarray:
    """Pairwise dot products of unit rows: entry (i, j) = zs[i] . zr[j]."""
    zs = np.asarray(zs, dtype=np.float64)
    zr = np.asarray(zr, dtype=np.float64)
    if zs.ndim != 2 or zr.ndim != 2 or zs.shape != zr.shape:
        raise ShapeError("similarity needs two equal (batch, dim) arrays")
    return zs @ zr.T


def _contrastive(zs, zr, tau):
    zs = np.asarray(zs, dtype=np.float64)
    zr = np.asarray(zr, dtype=np.float64)
    if not tau > 0:
        raise ParameterError("temperature tau must be positive")
    if zs.ndim != 2 or zs.shape[0] < 2:
        raise InputError("contrastive loss needs at least 2 pairs")
    s = cosine_sim_matrix(zs, zr) / tau
    n = s.shape[0]
    # rows: signal -> report direction
    row_max = s.max(axis=1, keepdims=True)
    row_exp = np.exp(s - row_max)
    row_lse = row_max[:, 0] + np.log(row_exp.sum(axis=1))
    # columns: report -> signal direction
    col_max = s.max(axis=0, keepdims=True)
    col_exp = np.exp(s - col_max)
    col_lse = col_max[0, :] + np.log(col_exp.sum(axis=0))
    diag = np.diag(s)
    loss = float(((row_lse - diag).sum() + (col_lse - diag).sum()) / (2 * n))
    p_row = row_exp / row_exp.sum(axis=1, keepdims=True)
    p_col = col_exp / col_exp.sum(axis=0, keepdims=True)
    return loss, p_row, p_col, n


def contrastive_loss(zs: np.ndarray, zr: np.ndarray, tau: float = 0.07) -> float:
    """Symmetric InfoNCE over matched (signal, report) projections.

    Each direction scores row i against all columns (the positive stays in
    the denominator); the result is the mean of all 2L cross-entropy terms.
    """
    loss, _, _, _ = _contrastive(zs, zr, tau)
    return loss


def contrastive_loss_grad(zs, zr, tau: float = 0.07):
    """Contrastive loss plus gradients w.r.t. both projection batches."""
    loss, p_row, p_col, n = _contrastive(zs, zr, tau)
    g = (p_row + p_col - 2.0 * np.eye(n)) / (2 * n)
    zs = np.asarray(zs, dtype=np.float64)
    zr = np.asarray(zr, dtype=np.float64)
    return loss, (g @ zr) / tau, (g.T @ zs) / tau


# ----------------------------------------------------------------------
# medoid

def medoid_index(points: np.ndarray) -> int:
    """Index of the member with the smallest total Euclidean distance to the rest.

    Brute-force over all pairs; ties break to the lowest index.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise InputError("medoid needs a non-empty (n, dim) set")
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))
    return int(np.argmin(dist.sum(axis=1)))


def compute_medoid(points: np.ndarray) -> np.ndarray:
    """The member feature minimizing total Euclidean distance to all others."""
    pts = np.asarray(points, dtype=np.float64)
    idx = medoid_index(pts)
    row = pts[idx] if pts.ndim == 2 else pts[idx : idx + 1]
    return np.array(row, dtype=np.float64)


# ----------------------------------------------------------------------
# self-constraint center loss

def center_loss_grad(features: np.ndarray, centers: np.ndarray):
    """Batch mean of squared distance to per-sample centers, with d/d(features).

    ``centers`` is already gathered per sample (row i belongs to feature i).
    """
    f = np.asarray(features, dtype=np.float64)
    diff = f - np.asarray(centers, dtype=np.float64)
    loss = float((diff * diff).sum() / f.shape[0])
    return loss, (2.0 / f.shape[0]) * diff


# ----------------------------------------------------------------------
# dynamic prototype loss

def _sq_dists(features, prototypes):
    f = np.asarray(features, dtype=np.float64)
    p = np.asarray(prototypes, dtype=np.float64)
    diff = f[:, None, :] - p[None, :, :]
    return (diff * diff).sum(axis=2), diff


def _softmax_neg(d2: np.ndarray) -> np.ndarray:
    """Row softmax of -d2 with max-subtraction and a strict-positivity floor."""
    shifted = -d2 + d2.min(axis=-1, keepdims=True)
    probs = np.exp(np.maximum(shifted, _LOGIT_FLOOR))
    return probs / probs.sum(axis=-1, keepdims=True)


def prototype_prob(feature: np.ndarray, prototypes: np.ndarray) -> np.ndarray:
    """Class distribution from squared distances: softmax over -d(feature, P_k).

    Accepts one feature vector (returns an M-vector) or a batch (returns a
    batch of rows). Every entry is strictly positive and each row sums to 1.
    """
    f = np.asarray(feature, dtype=np.float64)
    single = f.ndim == 1
    d2, _ = _sq_dists(f[None, :] if single else f, prototypes)
    out = _softmax_neg(d2)
    return out[0] if single else out


def prototype_loss_grad(features, labels, prototypes):
    """Prototype loss with gradients for both features and prototypes.

    The loss is the batch mean of -log Prob(label | feature) + d(feature,
    P_label). Per sample that is 2 d_y + logsumexp_k(-d_k) (the cross-entropy
    term expanded), so d(loss)/d(d_k) = (2 [k==y] - p_k) / batch.
    """
    f = np.asarray(features, dtype=np.float64)
    p = np.asarray(prototypes, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if y.min(initial=0) < 0 or y.max(initial=-1) >= p.shape[0]:
        raise InputError(f"labels must index the {p.shape[0]} prototypes")
    d2, diff = _sq_dists(f, p)
    n, m = d2.shape
    neg = -d2
    mx = neg.max(axis=1, keepdims=True)
    ex = np.exp(neg - mx)
    lse = mx[:, 0] + np.log(ex.sum(axis=1))
    loss = float((2.0 * d2[np.arange(n), y] + lse).mean())
    probs = ex / ex.sum(axis=1, keepdims=True)
    dd = -probs
    dd[np.arange(n), y] += 2.0
    dd /= n
    # d(d2[i,k])/d f_i = 2 diff[i,k], d/d p_k = -2 diff[i,k]
    dfeat = 2.0 * (dd[:, :, None] * diff).sum(axis=1)
    dproto = -2.0 * (dd[:, :, None] * diff).sum(axis=0)
    return loss, dfeat, dproto


# ----------------------------------------------------------------------
# reciprocal-point repulsion

def repulsion_loss_grad(features, reciprocals, margins):
    """Hinge on the dimension-averaged squared distance to per-sample reciprocals.

    ``reciprocals`` and ``margins`` are gathered per sample. Returns the loss
    and gradients w.r.t. features, the gathered reciprocals, and the gathered
    margins (caller scatters them back per class). The subgradient at the
    kink is zero.
    """
    f = np.asarray(features, dtype=np.float64)
    o = np.asarray(reciprocals, dtype=np.float64)
    r = np.asarray(margins, dtype=np.float64)
    n, dim = f.shape
    diff = f - o
    d_e = (diff * diff).sum(axis=1) / dim
    active = d_e - r > 0
    loss = float(np.where(active, d_e - r, 0.0).mean())
    scale = (2.0 / (dim * n)) * active
    dfeat = scale[:, None] * diff
    return loss, dfeat, -dfeat, -active.astype(np.float64) / n
