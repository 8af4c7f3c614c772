"""Centred orthonormal 2-D Fourier transforms on re/im channel stacks.

Complex fields are carried as [..., 2, H, W] arrays whose axis -3 holds
the real and imaginary planes.  fft2c_stack/ifft2c_stack transform plain
arrays; fft2c_channels/ifft2c_channels are the same transforms as
autodiff ops on tensors.  ComplexImage holds one record image as a
(real, imag) plane pair.

Both transforms are unitary (norm="ortho") with the DC sample at the
grid centre: F = fftshift . fft2_ortho . ifftshift.  Because a unitary
map's adjoint is its inverse, the backward pass of fft2c is ifft2c
applied to the incoming gradient, and vice versa.
"""

from dataclasses import dataclass

import numpy as np

from .diffcore.tensor import Tensor, _accum, _result
from .errors import ShapeError


@dataclass
class ComplexImage:
    """Image-space complex field as a (real, imag) tensor pair."""

    real: Tensor
    imag: Tensor

    def __post_init__(self):
        if self.real.shape != self.imag.shape:
            raise ShapeError("ComplexImage planes disagree: %s vs %s"
                             % (self.real.shape, self.imag.shape))

    @classmethod
    def from_arrays(cls, real, imag=None):
        real = np.asarray(real)
        if imag is None:
            imag = np.zeros_like(real)
        return cls(Tensor(real), Tensor(np.asarray(imag)))

    def magnitude(self):
        """Pointwise |z| as a plain ndarray (no graph)."""
        return np.hypot(self.real.data, self.imag.data)

    def channels(self):
        """The planes as one [2, H, W] float32 re/im channel array."""
        return np.stack([self.real.data, self.imag.data]).astype(np.float32)


def _centred(fft2, re, im):
    """fftshift . fft2 (orthonormal) . ifftshift of re + i im, back as a
    (real, imag) pair in re's dtype."""
    z = np.fft.ifftshift(re + 1j * im, axes=(-2, -1))
    z = np.fft.fftshift(fft2(z, axes=(-2, -1), norm="ortho"), axes=(-2, -1))
    return (np.ascontiguousarray(z.real.astype(re.dtype)),
            np.ascontiguousarray(z.imag.astype(re.dtype)))


def _fft2c_arrays(re, im):
    return _centred(np.fft.fft2, re, im)


def _ifft2c_arrays(re, im):
    return _centred(np.fft.ifft2, re, im)


def _on_planes(x, transform):
    if x.shape[-3] != 2:
        raise ShapeError("channel transform needs size 2 on axis -3, got %d"
                         % x.shape[-3])
    re, im = transform(x[..., 0, :, :], x[..., 1, :, :])
    return np.stack([re, im], axis=-3)


def fft2c_stack(x):
    """Image -> centred orthonormal k-space, on a [..., 2, H, W] array."""
    return _on_planes(x, _fft2c_arrays)


def ifft2c_stack(x):
    """Centred orthonormal k-space -> image, on a [..., 2, H, W] array."""
    return _on_planes(x, _ifft2c_arrays)


def _channels_transform(x, fwd, inv):
    data = fwd(x.data)

    def bwd(g):
        _accum(x, inv(g))
    return _result(data, (x,), bwd)


def fft2c_channels(x):
    """fft2c_stack as an autodiff op on a [..., 2, H, W] tensor."""
    return _channels_transform(x, fft2c_stack, ifft2c_stack)


def ifft2c_channels(x):
    """ifft2c_stack as an autodiff op on a [..., 2, H, W] tensor."""
    return _channels_transform(x, ifft2c_stack, fft2c_stack)
