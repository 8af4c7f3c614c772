"""Rigid-motion algebra, and the warp kernel under its conventions."""

import math

import numpy as np
import pytest

from ddmc.datagen import PhantomSpec, augment_motion, gen_phantom_pair
from ddmc.errors import ValidationError
from ddmc.geometry import compose, invert
from ddmc.kernels import warp_forward


IDENTITY = np.zeros((1, 3))


def row(tx, ty, theta):
    """One (tx, ty, theta) transform as a [1, 3] row."""
    return np.array([[tx, ty, theta]])


def warp(x, p):
    """A [C, H, W] stack warped by the [1, 3] row p."""
    return warp_forward(x[None], p.astype(x.dtype))[0]


def params_close(a, b, tol=1e-12):
    return np.max(np.abs(a - b)) < tol


def test_identity_and_nonfinite():
    # the zero row is the identity: its own inverse and its own square
    assert np.array_equal(invert(IDENTITY), IDENTITY)
    assert np.array_equal(compose(IDENTITY, IDENTITY), IDENTITY)
    # a non-finite transform cannot be drawn: augment_motion, which
    # makes every true_motion, refuses non-finite ranges
    rec = gen_phantom_pair(PhantomSpec(size=32, n_structures=2), 0)
    with pytest.raises(ValidationError):
        augment_motion(rec, float("nan"), 15.0, 3.0, seed=0)
    with pytest.raises(ValidationError):
        augment_motion(rec, 10.0, float("inf"), 3.0, seed=0)


def test_compose_with_identity():
    p = row(1.5, -2.0, 0.3)
    assert params_close(compose(p, IDENTITY), p)
    assert params_close(compose(IDENTITY, p), p)


def test_invert_annihilates():
    rng = np.random.default_rng(0)
    for _ in range(20):
        p = row(*rng.uniform(-5, 5, 2), rng.uniform(-0.5, 0.5))
        assert params_close(compose(p, invert(p)), IDENTITY)
        assert params_close(compose(invert(p), p), IDENTITY)


def test_compose_associative():
    rng = np.random.default_rng(1)
    for _ in range(10):
        p1 = row(*rng.uniform(-3, 3, 2), rng.uniform(-0.4, 0.4))
        p2 = row(*rng.uniform(-3, 3, 2), rng.uniform(-0.4, 0.4))
        p3 = row(*rng.uniform(-3, 3, 2), rng.uniform(-0.4, 0.4))
        assert params_close(compose(compose(p1, p2), p3),
                            compose(p1, compose(p2, p3)), tol=1e-10)


def test_compose_matches_point_action():
    # applying p1 then p2 to a point equals applying compose(p1, p2)
    rng = np.random.default_rng(2)

    def act(p, v):
        tx, ty, theta = p[0]
        c, s = math.cos(theta), math.sin(theta)
        return np.array([c * v[0] - s * v[1] + tx,
                         s * v[0] + c * v[1] + ty])

    for _ in range(10):
        p1 = row(*rng.uniform(-3, 3, 2), rng.uniform(-0.4, 0.4))
        p2 = row(*rng.uniform(-3, 3, 2), rng.uniform(-0.4, 0.4))
        v = rng.uniform(-10, 10, 2)
        lhs = act(p2, act(p1, v))
        rhs = act(compose(p1, p2), v)
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_warp_forward_identity_exact():
    rng = np.random.default_rng(3)
    img = np.stack([rng.standard_normal((16, 16)),
                    rng.standard_normal((16, 16))])
    out = warp(img, IDENTITY)
    assert np.array_equal(out, img)


def test_warp_forward_roundtrip_interior():
    # warp then inverse warp returns the original away from the border,
    # up to bilinear smoothing of the double resample
    rng = np.random.default_rng(4)
    base = np.zeros((32, 32))
    base[8:24, 8:24] = rng.uniform(0.2, 1.0, (16, 16))
    from scipy.ndimage import gaussian_filter
    base = gaussian_filter(base, 1.5)
    img = np.stack([base, np.zeros_like(base)])
    p = row(1.7, -2.3, 0.15)
    back = warp(warp(img, p), invert(p))
    inner = (slice(6, 26), slice(6, 26))
    assert np.max(np.abs(back[0][inner] - base[inner])) < 0.05


def test_warp_forward_integer_translation():
    img = np.zeros((8, 8))
    img[2, 3] = 1.0
    out = warp(np.stack([img, np.zeros_like(img)]),
               row(1.0, 2.0, 0.0))
    # x shift moves columns, y shift moves rows
    assert out[0, 4, 4] == pytest.approx(1.0)
    assert out[0].sum() == pytest.approx(1.0)
