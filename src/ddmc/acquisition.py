"""Cartesian undersampling: line masks and data consistency.

Masks select whole k-space rows (phase-encode lines).  A mask for
acceleration R on an H-row grid samples exactly floor(H/R) rows: a
fixed block of centre rows is always kept and the remainder are drawn
without replacement, weighted by a Gaussian profile centred on the
middle row.
"""

from dataclasses import dataclass

import numpy as np

from .diffcore.tensor import Tensor, add, scale_by
from .errors import MaskBudgetError, ShapeError, ValidationError


@dataclass
class SamplingMask:
    """Row-sampling pattern for one k-space grid."""

    height: int
    sampled: np.ndarray          # bool [height]
    acceleration: int
    seed: int

    def __post_init__(self):
        self.sampled = np.asarray(self.sampled, dtype=bool)
        if self.sampled.shape != (self.height,):
            raise ShapeError("mask rows %s != height %d"
                             % (self.sampled.shape, self.height))

    def row_indices(self):
        return np.flatnonzero(self.sampled)

    def plane(self, dtype=np.float32):
        """[H, 1] float plane that broadcasts over [..., H, W] grids."""
        return self.sampled.astype(dtype)[:, None]

    def save(self, path):
        rows = " ".join(str(i) for i in self.row_indices())
        with open(path, "w") as f:
            f.write("%d %d %d\n%s\n" % (self.height, self.acceleration,
                                        self.seed, rows))


# Rows H/2-3 .. H/2+2 are always kept: the low-frequency band that
# anchors contrast and the DC sample.
CENTER_ROWS = 6


def make_mask(height, acceleration, n_center=CENTER_ROWS, sigma_frac=0.25,
              seed=0):
    """Draw a Gaussian-weighted Cartesian line mask.

    Parameters
    ----------
    height : int
        Number of k-space rows.
    acceleration : int
        Undersampling factor R; exactly floor(height/R) rows are kept.
    n_center : int
        Rows around the grid centre that are always sampled.
    sigma_frac : float
        Std of the Gaussian row-weighting, as a fraction of height.
    seed : int
        Seed for the row draw.

    Returns
    -------
    SamplingMask
    """
    if height < 2 or acceleration < 1:
        raise ValidationError("need height >= 2 and acceleration >= 1, got "
                              "%d, %d" % (height, acceleration))
    if not 0 < sigma_frac <= 1:
        raise ValidationError("sigma_frac must lie in (0, 1], got %r"
                              % sigma_frac)
    if n_center < 0:
        raise ValidationError("n_center must be >= 0, got %d" % n_center)
    budget = height // acceleration
    if budget < n_center:
        raise MaskBudgetError(
            "floor(%d/%d) = %d rows cannot cover the %d-row centre block"
            % (height, acceleration, budget, n_center))
    # 0 <= n_center <= budget <= height, so the block lies in the grid
    lo = height // 2 - n_center // 2
    hi = lo + n_center
    sampled = np.zeros(height, dtype=bool)
    sampled[lo:hi] = True

    rest = np.flatnonzero(~sampled)
    n_extra = budget - n_center
    if n_extra > 0:
        rng = np.random.default_rng(seed)
        sigma = sigma_frac * height
        w = np.exp(-0.5 * ((rest - height / 2.0) / sigma) ** 2)
        w /= w.sum()
        picked = rng.choice(rest, size=n_extra, replace=False, p=w)
        sampled[picked] = True
    return SamplingMask(height=height, sampled=sampled,
                        acceleration=acceleration, seed=seed)


def data_consistency_channels(k_pred, y_u, plane):
    """Replace predicted k-space rows with measured ones where sampled.

    k_pred is a [..., 2, H, W] Tensor, y_u the measured ndarray of its
    shape and plane the mask's row plane (SamplingMask.plane), which
    must broadcast onto k_pred (else scale_by raises ShapeError).
    out = M * y_u + (1 - M) * k_pred, so sampled rows of the output
    equal y_u bit for bit and the op is idempotent.
    """
    if y_u.shape != k_pred.shape:
        raise ShapeError("data_consistency: predicted %s vs measured %s"
                         % (k_pred.shape, y_u.shape))
    m = np.asarray(plane, dtype=k_pred.data.dtype)
    return add(scale_by(Tensor(y_u), m), scale_by(k_pred, 1.0 - m))
