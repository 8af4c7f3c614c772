"""Centered orthonormal Fourier ops against a brute-force DFT oracle."""

import numpy as np
import pytest

from ddmc.diffcore import Tensor, concat_channels, grad_check, mse, scale_by
from ddmc.errors import ShapeError
from ddmc.fourier import (ComplexImage, fft2c_channels, fft2c_stack,
                          ifft2c_channels, ifft2c_stack)


def dft2_centered_loops(z):
    """Naive centered orthonormal DFT, the oracle.

    With centred indices p = i - H//2 (and the matching output offset),
    entry (k, l) is sum z[p, q] exp(-2πi(kp/H + lq/W)) / sqrt(HW).
    """
    h, w = z.shape
    out = np.zeros((h, w), np.complex128)
    ii = np.arange(h) - h // 2
    jj = np.arange(w) - w // 2
    for k in range(h):
        for l in range(w):
            kk = k - h // 2
            ll = l - w // 2
            phase = np.exp(-2j * np.pi * (kk * ii[:, None] / h
                                          + ll * jj[None, :] / w))
            out[k, l] = (z * phase).sum() / np.sqrt(h * w)
    return out


def random_image(rng, h=8, w=8, dtype=np.float64):
    """A [2, H, W] re/im channel stack."""
    re = rng.standard_normal((h, w)).astype(dtype)
    im = rng.standard_normal((h, w)).astype(dtype)
    return np.stack([re, im])


def as_complex(x):
    return x[0] + 1j * x[1]


def test_fft_matches_naive_dft():
    rng = np.random.default_rng(0)
    img = random_image(rng, 8, 8)
    k = fft2c_stack(img)
    want = dft2_centered_loops(as_complex(img))
    assert np.max(np.abs(as_complex(k) - want)) < 1e-10


def test_roundtrip_float32():
    rng = np.random.default_rng(1)
    img = random_image(rng, 64, 64, np.float32)
    back = ifft2c_stack(fft2c_stack(img))
    assert back.dtype == np.float32
    assert np.max(np.abs(back - img)) < 1e-6


def test_parseval_energy_preserved():
    rng = np.random.default_rng(2)
    img = random_image(rng, 32, 16)
    k = fft2c_stack(img)
    e_img = np.sum(img ** 2)
    e_k = np.sum(k ** 2)
    assert abs(e_img - e_k) / e_img < 1e-6


def test_dc_component_is_scaled_mean():
    # centered layout puts the zero frequency at (H//2, W//2)
    rng = np.random.default_rng(3)
    img = random_image(rng, 8, 8)
    k = fft2c_stack(img)
    z = as_complex(img)
    want = z.sum() / np.sqrt(z.size)
    assert abs(as_complex(k)[4, 4] - want) < 1e-10


def test_impulse_at_centre_is_flat_spectrum():
    img = np.zeros((2, 8, 8))
    img[0, 4, 4] = 1.0
    k = fft2c_stack(img)
    assert np.max(np.abs(k[0] - 1.0 / 8.0)) < 1e-12
    assert np.max(np.abs(k[1])) < 1e-12


def test_pair_transform_gradients():
    # the real and imaginary planes enter as separate leaves; the loss
    # reads the real plane of the round trip and the imaginary plane of
    # the spectrum
    rng = np.random.default_rng(4)
    re = Tensor(rng.standard_normal((1, 1, 8, 8)), requires_grad=True)
    im = Tensor(rng.standard_normal((1, 1, 8, 8)), requires_grad=True)
    zero = np.zeros((1, 1, 8, 8))
    tr = Tensor(np.concatenate([rng.standard_normal((1, 1, 8, 8)), zero], 1))
    ti = Tensor(np.concatenate([zero, rng.standard_normal((1, 1, 8, 8))], 1))
    real_plane = np.array([1.0, 0.0])[:, None, None]
    imag_plane = np.array([0.0, 1.0])[:, None, None]

    def fn(*_):
        k = fft2c_channels(concat_channels([re, im]))
        back = ifft2c_channels(k)
        return (mse(scale_by(back, real_plane), tr)
                + mse(scale_by(k, imag_plane), ti))

    assert grad_check(fn, [re, im], n_samples=40,
                      rng=np.random.default_rng(5)) < 1e-6


def test_channels_transform_gradients_and_consistency():
    rng = np.random.default_rng(6)
    x = Tensor(rng.standard_normal((2, 2, 8, 8)), requires_grad=True)
    tgt = Tensor(rng.standard_normal((2, 2, 8, 8)))

    def fn(*_):
        return mse(ifft2c_channels(fft2c_channels(x)), tgt)

    assert grad_check(fn, [x], n_samples=40,
                      rng=np.random.default_rng(7)) < 1e-6

    # the autodiff op agrees with the array transform
    k_arr = fft2c_stack(x.data[0])
    k_ch = fft2c_channels(Tensor(x.data[:1].copy())).data
    assert np.max(np.abs(k_ch[0, 0] - k_arr[0])) < 1e-12
    assert np.max(np.abs(k_ch[0, 1] - k_arr[1])) < 1e-12


def test_linearity():
    rng = np.random.default_rng(10)
    x = random_image(rng)
    z = random_image(rng)
    a, b = 1.7, -0.4
    lhs = as_complex(fft2c_stack(a * x + b * z))
    rhs = a * as_complex(fft2c_stack(x)) + b * as_complex(fft2c_stack(z))
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_shape_mismatch_rejected():
    with pytest.raises(ShapeError):
        ComplexImage.from_arrays(np.zeros((4, 4)), np.zeros((4, 5)))


def test_magnitude():
    img = ComplexImage.from_arrays(np.full((2, 2), 3.0),
                                   np.full((2, 2), 4.0))
    assert np.array_equal(img.magnitude(), np.full((2, 2), 5.0))
