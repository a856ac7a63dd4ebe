"""Objective functions: closed forms, analytic gradients, medoid oracle."""

import math

import numpy as np
import pytest

from ecgauth.errors import (
    InputError,
    ParameterError,
    ShapeError,
)
from ecgauth.losses import (
    center_loss_grad,
    compute_medoid,
    contrastive_loss,
    contrastive_loss_grad,
    medoid_index,
    prototype_loss_grad,
    prototype_prob,
    repulsion_loss_grad,
)
from ecgauth.training import FinetuneConfig, PretrainConfig


def _fd_check(loss_fn, arrays, grads, h=1e-5, rng=None):
    """Central-difference check of analytic gradients, rel 1e-4 or abs 1e-8."""
    rng = rng or np.random.default_rng(0)
    for arr, grad in zip(arrays, grads):
        flat = arr.reshape(-1)
        gflat = np.asarray(grad).reshape(-1)
        n_probe = min(6, flat.size)
        for idx in rng.choice(flat.size, size=n_probe, replace=False):
            orig = flat[idx]
            flat[idx] = orig + h
            up = loss_fn()
            flat[idx] = orig - h
            down = loss_fn()
            flat[idx] = orig
            fd = (up - down) / (2 * h)
            an = gflat[idx]
            rel = abs(an - fd) / max(abs(an), abs(fd), 1e-8)
            assert rel <= 1e-4 or abs(an - fd) <= 1e-8, (idx, an, fd)


# ----------------------------------------------------------------------
# contrastive loss

def test_contrastive_identical_pairs_is_ln2():
    u = np.array([0.6, 0.8])
    zs = np.stack([u, u])
    assert contrastive_loss(zs, zs, tau=0.07) == pytest.approx(math.log(2.0),
                                                               abs=1e-9)


def test_contrastive_orthonormal_is_near_zero():
    # L=2: every off-diagonal similarity is 0, the positive is 1/tau
    loss2 = contrastive_loss(np.eye(2), np.eye(2), tau=0.07)
    assert loss2 == pytest.approx(math.log(1.0 + math.exp(-1.0 / 0.07)),
                                  abs=1e-12)
    assert loss2 <= 1e-6
    # L=4: three negatives per row
    loss4 = contrastive_loss(np.eye(4), np.eye(4), tau=0.07)
    assert loss4 == pytest.approx(math.log(1.0 + 3.0 * math.exp(-1.0 / 0.07)),
                                  abs=1e-12)


def test_contrastive_symmetric_in_arguments():
    rng = np.random.default_rng(1)
    zs = rng.normal(size=(5, 8))
    zr = rng.normal(size=(5, 8))
    zs /= np.linalg.norm(zs, axis=1, keepdims=True)
    zr /= np.linalg.norm(zr, axis=1, keepdims=True)
    assert contrastive_loss(zs, zr) == pytest.approx(contrastive_loss(zr, zs),
                                                     abs=1e-12)


def test_contrastive_validation():
    z = np.eye(2)
    with pytest.raises(ParameterError):
        contrastive_loss(z, z, tau=0.0)
    with pytest.raises(InputError):
        contrastive_loss(z[:1], z[:1])  # a single pair has no negatives
    with pytest.raises(ShapeError):
        contrastive_loss(z, np.eye(3))


def test_contrastive_gradients():
    rng = np.random.default_rng(2)
    zs = rng.normal(size=(4, 6))
    zr = rng.normal(size=(4, 6))
    loss, dzs, dzr = contrastive_loss_grad(zs, zr, tau=0.07)
    assert loss == pytest.approx(contrastive_loss(zs, zr, tau=0.07), abs=1e-12)
    _fd_check(lambda: contrastive_loss(zs, zr, tau=0.07), [zs, zr], [dzs, dzr],
              rng=rng)


# ----------------------------------------------------------------------
# medoid

def _brute_distance_sums(pts):
    return [
        sum(float(np.linalg.norm(pts[i] - pts[j])) for j in range(len(pts)))
        for i in range(len(pts))
    ]


def test_medoid_matches_brute_force():
    rng = np.random.default_rng(3)
    for _ in range(30):
        n = int(rng.integers(1, 20))
        dim = int(rng.integers(1, 8))
        pts = rng.normal(size=(n, dim))
        sums = _brute_distance_sums(pts)
        chosen = medoid_index(pts)
        # the chosen member must achieve the optimum; mathematical ties
        # (e.g. the two central points in 1-D) leave fp noise on the sums
        assert sums[chosen] - min(sums) <= 1e-9
        if n > 1:
            ordered = sorted(sums)
            if ordered[1] - ordered[0] > 1e-9:  # decisive optimum
                assert chosen == int(np.argmin(sums))


def test_medoid_tie_breaks_to_lowest_index():
    a = np.array([5.0, 5.0])
    pts = np.stack([a, a, np.array([0.0, 0.0])])
    assert medoid_index(pts) == 0


def test_medoid_returns_a_member():
    rng = np.random.default_rng(4)
    pts = rng.normal(size=(9, 5))
    med = compute_medoid(pts)
    assert any(np.array_equal(med, row) for row in pts)


def test_medoid_one_dimensional_input():
    assert compute_medoid(np.array([3.0, 1.0, 2.0])) == pytest.approx([2.0])
    with pytest.raises(InputError):
        compute_medoid(np.empty((0, 3)))


# ----------------------------------------------------------------------
# prototype probability map

def test_prototype_prob_rows_sum_to_one():
    rng = np.random.default_rng(5)
    f = rng.normal(size=(7, 4))
    p = rng.normal(size=(3, 4))
    probs = prototype_prob(f, p)
    assert probs.shape == (7, 3)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)
    single = prototype_prob(f[0], p)
    assert single.shape == (3,)
    assert np.allclose(single, probs[0], atol=0)


def test_prototype_prob_strictly_positive_at_huge_distances():
    p = np.stack([np.zeros(4), np.full(4, 100.0)])
    probs = prototype_prob(np.zeros(4), p)
    assert probs[0] > 0.99
    assert probs[1] > 0.0  # floored, never underflows to an exact zero
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_prototype_prob_survives_large_common_offset():
    """Translating the whole constellation far away stays stable and sane."""
    p = np.stack([np.zeros(3), np.array([1.0, 0.0, 0.0])])
    f = np.array([0.2, 0.0, 0.0])
    near = prototype_prob(f, p)
    shift = np.full(3, 1e3)
    far = prototype_prob(f + shift, p + shift[None, :])
    assert np.isfinite(far).all()
    assert far.sum() == pytest.approx(1.0, abs=1e-12)
    assert int(np.argmax(far)) == int(np.argmax(near))
    # coordinates lose ~1e-13 to cancellation; probabilities track closely
    assert np.allclose(near, far, atol=1e-6)


# ----------------------------------------------------------------------
# self-constraint center loss

def test_self_constraint_zero_at_centers():
    centers = np.array([[1.0, 2.0], [-3.0, 0.5]])
    labels = [0, 1, 0]
    loss, dfeat = center_loss_grad(centers[labels], centers[labels])
    assert loss == 0.0
    assert not dfeat.any()


def test_self_constraint_hand_value():
    feats = np.array([[3.0, 4.0], [0.0, 0.0]])
    # squared distances 25 and 0, batch mean 12.5; d/df = 2 (f - c) / n
    loss, dfeat = center_loss_grad(feats, np.zeros((2, 2)))
    assert loss == pytest.approx(12.5)
    assert dfeat == pytest.approx(feats)


def test_center_gradients():
    rng = np.random.default_rng(6)
    f = rng.normal(size=(5, 3))
    c = rng.normal(size=(5, 3))
    loss, dfeat = center_loss_grad(f, c)
    _fd_check(lambda: center_loss_grad(f, c)[0], [f], [dfeat], rng=rng)
    assert loss >= 0.0


# ----------------------------------------------------------------------
# dynamic prototype loss

def test_prototype_loss_hand_value():
    # one sample equidistant from its own and one other prototype:
    # loss = 2 d + log(2 e^{-d}) = d + ln 2, with d the squared distance
    p = np.stack([np.array([1.0, 0.0]), np.array([-1.0, 0.0])])
    f = np.array([[0.0, 0.0]])
    assert prototype_loss_grad(f, [0], p)[0] == pytest.approx(
        1.0 + math.log(2.0), abs=1e-12)


def test_prototype_loss_label_validation():
    p = np.zeros((2, 3))
    f = np.zeros((1, 3))
    with pytest.raises(InputError):
        prototype_loss_grad(f, [2], p)
    with pytest.raises(InputError):
        prototype_loss_grad(f, [-1], p)


def test_prototype_gradients_cover_features_and_prototypes():
    rng = np.random.default_rng(7)
    f = rng.normal(size=(6, 4))
    p = rng.normal(size=(3, 4))
    y = rng.integers(0, 3, size=6)
    _, dfeat, dproto = prototype_loss_grad(f, y, p)
    _fd_check(lambda: prototype_loss_grad(f, y, p)[0], [f, p], [dfeat, dproto],
              rng=rng)


# ----------------------------------------------------------------------
# reciprocal-point repulsion (no training objective uses it; see losses)

def test_repulsion_inside_margin_is_inert():
    f = np.array([[0.1, 0.0], [0.0, -0.1]])
    o = np.zeros((2, 2))
    r = np.array([1.0, 1.0])  # d_e = 0.005 << 1
    loss, dfeat, drecip, dmargin = repulsion_loss_grad(f, o, r)
    assert loss == 0.0
    assert not dfeat.any() and not drecip.any() and not dmargin.any()


def test_repulsion_hand_value_outside_margin():
    f = np.array([[2.0, 0.0]])
    o = np.zeros((1, 2))
    r = np.array([0.5])
    # d_e = 4/2 = 2, excess 1.5; dfeat = 2*(f-o)/(dim*n) = [2, 0]
    loss, dfeat, drecip, dmargin = repulsion_loss_grad(f, o, r)
    assert loss == pytest.approx(1.5, abs=1e-12)
    assert dfeat == pytest.approx(np.array([[2.0, 0.0]]))
    assert drecip == pytest.approx(-dfeat)
    assert dmargin == pytest.approx(np.array([-1.0]))


def test_repulsion_margin_gradient_counts_active_samples():
    f = np.array([[3.0, 0.0], [0.1, 0.0], [0.0, 3.0]])
    o = np.zeros((3, 2))
    r = np.array([1.0, 1.0, 1.0])  # samples 0 and 2 active, 1 inert
    _, _, _, dmargin = repulsion_loss_grad(f, o, r)
    assert dmargin == pytest.approx(np.array([-1 / 3, 0.0, -1 / 3]))


def test_repulsion_gradients():
    rng = np.random.default_rng(8)
    f = rng.normal(size=(5, 3)) * 2.0
    o = rng.normal(size=(5, 3))
    r = np.full(5, 0.3)  # keep d_e - r away from the hinge kink
    loss, dfeat, drecip, dmargin = repulsion_loss_grad(f, o, r)
    _fd_check(lambda: repulsion_loss_grad(f, o, r)[0], [f, o, r],
              [dfeat, drecip, dmargin], rng=rng)


# ----------------------------------------------------------------------
# loss weights

def test_loss_weights_validation():
    """The loss weights live on the stage configs that use them."""
    with pytest.raises(ParameterError):
        PretrainConfig(tau=0.0)
    with pytest.raises(ParameterError):
        FinetuneConfig(beta=-0.1)
    FinetuneConfig(beta=0.0)  # the bound is valid
    ft, pt = FinetuneConfig(), PretrainConfig()
    assert (ft.beta, pt.tau) == (1.0, 0.07)
