"""Stage losses across the image and k-space branches.

Every stage produces an image-branch estimate and/or a k-space-branch
estimate; against motion-free ground truth we form up to four terms:

    L_i    image estimate vs ground-truth image
    L_k    k-space estimate vs ground-truth k-space
    L_ik   inverse transform of the k-space estimate vs the image truth
    L_ki   forward transform of the image estimate vs the k-space truth

each an MSE over the real and imaginary planes, and combine them as

    total = L_i + alpha * L_k + beta * (L_ik + alpha * L_ki)

Domain mode "image" keeps only L_i, "kspace" only L_k, "dual" all four.

Note the transforms are unitary, so with plane-wise MSE the cross
terms collapse exactly onto the direct ones (L_ik = L_k, L_ki = L_i);
parseval_collapse_check measures that.  Setting image_loss="magnitude"
compares image-space terms on magnitudes instead, which breaks the
collapse and makes the cross terms carry phase-free information.
"""

from dataclasses import dataclass, field

from .diffcore import Tensor, magnitude_channels, mse
from .errors import ValidationError
from .fourier import fft2c_channels, ifft2c_channels

DOMAIN_MODES = ("image", "kspace", "dual")
IMAGE_LOSS_KINDS = ("complex", "magnitude")
STAGES = ("synthesis", "registration", "reconstruction")


@dataclass(frozen=True)
class LossWeights:
    """alpha scales k-space terms, beta scales the cross-domain pair;
    their defaults are loss.alpha and loss.beta in config.SCHEMA."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not self.alpha > 0:
            raise ValidationError("alpha must be positive, got %r"
                                  % self.alpha)
        if not self.beta >= 0:
            raise ValidationError("beta must be >= 0, got %r" % self.beta)


@dataclass
class StageLossReport:
    """Scalar view of one stage loss; total_node carries the graph."""

    stage: str
    domain_mode: str
    components: dict
    total: float
    total_node: Tensor = field(repr=False, compare=False, default=None)


def _image_term(pred, truth, image_loss):
    if image_loss == "magnitude":
        return mse(magnitude_channels(pred), magnitude_channels(truth))
    return mse(pred, truth)


def _require(outputs, key, stage, mode):
    if key not in outputs or outputs[key] is None:
        raise ValidationError("stage %r in %r mode needs outputs[%r]"
                              % (stage, mode, key))
    return outputs[key]


def stage_loss(stage, outputs, ground_truth, weights, domain_mode="dual",
               image_loss="complex"):
    """Combine branch losses for one stage.

    Parameters
    ----------
    stage : str
        One of "synthesis", "registration", "reconstruction"; only
        labels the report.
    outputs : dict
        "image" and/or "kspace" -> [N, 2, H, W] channel tensors, as the
        domain mode requires.
    ground_truth : dict
        "image" and "kspace" -> channel tensors of the motion-free
        target contrast (constants; no gradients flow to them).
    weights : LossWeights
    domain_mode : str
    image_loss : str
        "complex" compares re/im planes; "magnitude" compares pointwise
        magnitudes for the image-space terms.

    Returns
    -------
    StageLossReport with per-term floats (absent terms are None) and a
    differentiable total_node.
    """
    if stage not in STAGES:
        raise ValidationError("unknown stage %r, expected one of %s"
                              % (stage, ", ".join(STAGES)))
    if domain_mode not in DOMAIN_MODES:
        raise ValidationError("unknown domain mode %r, expected one of %s"
                              % (domain_mode, ", ".join(DOMAIN_MODES)))
    if image_loss not in IMAGE_LOSS_KINDS:
        raise ValidationError("unknown image loss %r, expected one of %s"
                              % (image_loss, ", ".join(IMAGE_LOSS_KINDS)))

    components = {"image": None, "kspace": None,
                  "cross_ik": None, "cross_ki": None}
    gt_img = ground_truth.get("image")
    gt_k = ground_truth.get("kspace")

    if domain_mode in ("image", "dual"):
        if gt_img is None:
            raise ValidationError("ground_truth['image'] required in %r mode"
                                  % domain_mode)
        out_i = _require(outputs, "image", stage, domain_mode)
        l_i = _image_term(out_i, gt_img, image_loss)
        components["image"] = float(l_i.data)
    if domain_mode in ("kspace", "dual"):
        if gt_k is None:
            raise ValidationError("ground_truth['kspace'] required in %r mode"
                                  % domain_mode)
        out_k = _require(outputs, "kspace", stage, domain_mode)
        l_k = mse(out_k, gt_k)
        components["kspace"] = float(l_k.data)

    if domain_mode == "image":
        total = l_i
    elif domain_mode == "kspace":
        total = l_k
    else:
        l_ik = _image_term(ifft2c_channels(out_k), gt_img, image_loss)
        l_ki = mse(fft2c_channels(out_i), gt_k)
        components["cross_ik"] = float(l_ik.data)
        components["cross_ki"] = float(l_ki.data)
        total = weighted_total(l_i, l_k, l_ik, l_ki, weights)

    return StageLossReport(stage=stage, domain_mode=domain_mode,
                           components=components, total=float(total.data),
                           total_node=total)


def parseval_collapse_check(outputs, ground_truth, image_loss="complex"):
    """Absolute gaps (|L_ik - L_k|, |L_ki - L_i|) for the current
    outputs.  Under complex plane-wise losses both gaps are zero up to
    rounding because the transforms are unitary."""
    out_i = outputs["image"]
    out_k = outputs["kspace"]
    gt_img = ground_truth["image"]
    gt_k = ground_truth["kspace"]
    l_i = float(_image_term(out_i, gt_img, image_loss).data)
    l_k = float(mse(out_k, gt_k).data)
    l_ik = float(_image_term(ifft2c_channels(out_k), gt_img, image_loss).data)
    l_ki = float(mse(fft2c_channels(out_i), gt_k).data)
    return abs(l_ik - l_k), abs(l_ki - l_i)


def weighted_total(l_i, l_k, l_ik, l_ki, weights):
    """The dual-domain combination rule, on floats or on loss tensors
    (stage_loss builds its dual total with it)."""
    a, b = weights.alpha, weights.beta
    return l_i + a * l_k + b * (l_ik + a * l_ki)
