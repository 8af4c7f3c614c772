"""Rigid 2-D motion algebra on [N, 3] rows.

A rigid transform is (tx, ty, theta): translation in pixels along the
x (column) and y (row) axes plus rotation in radians about the image
centre c = ((W-1)/2, (H-1)/2).  kernels.warp_forward applies it to an
image by resampling along the backward map src = R(-theta) (dst - c - t)
+ c with bilinear interpolation and zero fill, so transforms compose as

    compose(p1, p2): theta = theta1 + theta2, t = R(theta2) t1 + t2
    invert(p):       theta' = -theta,         t' = -R(-theta) t

Every transform in the package is such a row, or an [N, 3] stack of
them: the registration net's predictions, the warp kernels' parameters
and a record's true_motion.
"""

import numpy as np


def invert(p):
    """The transforms that undo the [N, 3] rows p."""
    c, s = np.cos(-p[:, 2]), np.sin(-p[:, 2])
    return np.stack([-(c * p[:, 0] - s * p[:, 1]),
                     -(s * p[:, 0] + c * p[:, 1]),
                     -p[:, 2]], axis=1)


def compose(p1, p2):
    """Row by row, the transform equal to applying p1 first, then p2."""
    c, s = np.cos(p2[:, 2]), np.sin(p2[:, 2])
    return np.stack([c * p1[:, 0] - s * p1[:, 1] + p2[:, 0],
                     s * p1[:, 0] + c * p1[:, 1] + p2[:, 1],
                     p1[:, 2] + p2[:, 2]], axis=1)
