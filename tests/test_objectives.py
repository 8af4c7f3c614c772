"""Dual-domain stage-loss combination and its collapse behaviour."""

import numpy as np
import pytest

from ddmc.diffcore import Tensor
from ddmc.errors import ValidationError
from ddmc.fourier import fft2c_channels
from ddmc.objectives import (LossWeights, parseval_collapse_check,
                             stage_loss, weighted_total)

# the loss.alpha and loss.beta defaults of the config
WEIGHTS = LossWeights(alpha=1e-2, beta=0.7)


def make_case(rng, n=2, h=8, w=8, dtype=np.float64, grad=False):
    # ground-truth pair must be transform-consistent, as in the
    # pipeline, or the cross terms have nothing to collapse onto
    outputs = {"image": Tensor(rng.standard_normal((n, 2, h, w))
                               .astype(dtype), requires_grad=grad),
               "kspace": Tensor(rng.standard_normal((n, 2, h, w))
                                .astype(dtype), requires_grad=grad)}
    gt_img = rng.standard_normal((n, 2, h, w)).astype(dtype)
    gt_k = fft2c_channels(Tensor(gt_img)).data.copy()
    truth = {"image": Tensor(gt_img), "kspace": Tensor(gt_k)}
    return outputs, truth


def test_weighted_total_substitution_example():
    w = WEIGHTS
    got = weighted_total(1.0, 2.0, 3.0, 4.0, w)
    # exact up to IEEE double rounding: 0.7 * 3.04 is not binary-exact
    assert abs(got - 3.148) < 1e-12
    assert got == 1.0 + 0.01 * 2.0 + 0.7 * (3.0 + 0.01 * 4.0)


def test_weights_validation():
    with pytest.raises(ValidationError):
        LossWeights(alpha=0.0, beta=0.7)
    with pytest.raises(ValidationError):
        LossWeights(alpha=1e-2, beta=-0.1)
    LossWeights(alpha=1e-2, beta=0.0)


def test_stage_loss_components_are_mses():
    rng = np.random.default_rng(0)
    outputs, truth = make_case(rng)
    w = WEIGHTS
    rep = stage_loss("reconstruction", outputs, truth, w)

    def npmse(a, b):
        return float(((a - b) ** 2).mean())

    l_i = npmse(outputs["image"].data, truth["image"].data)
    l_k = npmse(outputs["kspace"].data, truth["kspace"].data)
    assert rep.components["image"] == pytest.approx(l_i, rel=1e-12)
    assert rep.components["kspace"] == pytest.approx(l_k, rel=1e-12)
    assert rep.total == weighted_total(rep.components["image"],
                                       rep.components["kspace"],
                                       rep.components["cross_ik"],
                                       rep.components["cross_ki"], w)
    assert rep.stage == "reconstruction"
    assert rep.domain_mode == "dual"


def test_beta_zero_drops_cross_terms():
    rng = np.random.default_rng(1)
    outputs, truth = make_case(rng)
    w = LossWeights(alpha=1e-2, beta=0.0)
    rep = stage_loss("synthesis", outputs, truth, w)
    want = rep.components["image"] + w.alpha * rep.components["kspace"]
    assert rep.total == pytest.approx(want, rel=1e-12)


def test_perfect_outputs_zero_loss():
    rng = np.random.default_rng(2)
    _, truth = make_case(rng)
    outputs = {"image": Tensor(truth["image"].data.copy()),
               "kspace": Tensor(truth["kspace"].data.copy())}
    rep = stage_loss("registration", outputs, truth, WEIGHTS)
    assert rep.components["image"] == 0.0
    assert rep.total < 1e-25


def test_single_domain_modes():
    rng = np.random.default_rng(3)
    outputs, truth = make_case(rng)
    rep_i = stage_loss("synthesis", {"image": outputs["image"]},
                       {"image": truth["image"]}, WEIGHTS,
                       domain_mode="image")
    assert rep_i.total == rep_i.components["image"]
    assert rep_i.components["kspace"] is None
    rep_k = stage_loss("synthesis", {"kspace": outputs["kspace"]},
                       {"kspace": truth["kspace"]}, WEIGHTS,
                       domain_mode="kspace")
    assert rep_k.total == rep_k.components["kspace"]
    assert rep_k.components["cross_ik"] is None


def test_parseval_collapse_complex_mode():
    rng = np.random.default_rng(4)
    outputs, truth = make_case(rng)
    gap_ik, gap_ki = parseval_collapse_check(outputs, truth)
    l_k = float(((outputs["kspace"].data - truth["kspace"].data) ** 2).mean())
    l_i = float(((outputs["image"].data - truth["image"].data) ** 2).mean())
    assert gap_ik / l_k < 1e-5
    assert gap_ki / l_i < 1e-5


def test_parseval_collapse_breaks_under_magnitude():
    rng = np.random.default_rng(5)
    outputs, truth = make_case(rng)
    gap_ik, _ = parseval_collapse_check(outputs, truth,
                                        image_loss="magnitude")
    assert gap_ik > 1e-3


def test_collapse_makes_dual_total_affine_in_direct_terms():
    # with complex losses the four-term total equals
    # (1 + alpha*beta) L_i + (alpha + beta) L_k up to rounding
    rng = np.random.default_rng(6)
    outputs, truth = make_case(rng)
    w = WEIGHTS
    rep = stage_loss("reconstruction", outputs, truth, w)
    l_i, l_k = rep.components["image"], rep.components["kspace"]
    want = (1 + w.alpha * w.beta) * l_i + (w.alpha + w.beta) * l_k
    assert rep.total == pytest.approx(want, rel=1e-9)


def test_magnitude_mode_image_terms():
    rng = np.random.default_rng(7)
    outputs, truth = make_case(rng)
    rep = stage_loss("reconstruction", outputs, truth, WEIGHTS,
                     image_loss="magnitude")
    oi, ti = outputs["image"].data, truth["image"].data
    mo = np.sqrt(oi[:, 0] ** 2 + oi[:, 1] ** 2)
    mt = np.sqrt(ti[:, 0] ** 2 + ti[:, 1] ** 2)
    assert rep.components["image"] == pytest.approx(
        float(((mo - mt) ** 2).mean()), rel=1e-9)
    # k-space direct term stays plane-wise
    l_k = float(((outputs["kspace"].data - truth["kspace"].data) ** 2).mean())
    assert rep.components["kspace"] == pytest.approx(l_k, rel=1e-12)


def test_missing_pieces_rejected():
    rng = np.random.default_rng(8)
    outputs, truth = make_case(rng)
    w = WEIGHTS
    with pytest.raises(ValidationError):
        stage_loss("warmup", outputs, truth, w)
    with pytest.raises(ValidationError):
        stage_loss("synthesis", outputs, truth, w, domain_mode="both")
    with pytest.raises(ValidationError):
        stage_loss("synthesis", outputs, truth, w, image_loss="l1")
    with pytest.raises(ValidationError):
        stage_loss("synthesis", {"image": outputs["image"]}, truth, w)
    with pytest.raises(ValidationError):
        stage_loss("synthesis", outputs, {"image": truth["image"]}, w)
    with pytest.raises(ValidationError):
        stage_loss("synthesis", {"image": None, "kspace": outputs["kspace"]},
                   truth, w, domain_mode="image")


def test_total_node_carries_gradients():
    rng = np.random.default_rng(9)
    outputs, truth = make_case(rng, dtype=np.float64, grad=True)
    rep = stage_loss("reconstruction", outputs, truth, WEIGHTS)
    rep.total_node.backward()
    assert outputs["image"].grad is not None
    assert outputs["kspace"].grad is not None
    assert np.isfinite(outputs["image"].grad).all()
    # cross terms feed both branches, so neither gradient is the plain
    # mse gradient alone
    gi = 2 * (outputs["image"].data - truth["image"].data)
    gi /= outputs["image"].data.size
    assert not np.allclose(outputs["image"].grad, gi)
