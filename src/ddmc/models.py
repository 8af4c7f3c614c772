"""The three trained networks.

SynthNet   cross-contrast synthesis, a small U-Net from the reference
           contrast to a target-contrast estimate (one per branch).
RegNet     rigid registration, a strided conv stack regressing
           (tx, ty, theta) from a moving and a fixed image.  The
           image and k-space branches share one net;
           register_refined applies it with compositional refinement.
ReconNet   reconstruction, a U-Net over the fused input channels whose
           output passes through data consistency.

Networks run on [N, 2, H, W] re/im channel tensors.  Parameters live in
a ParamSet; layers look their tensors up by name at call time, so a net
built on loaded parameters reads them in place.  Every net first builds
its layout with fresh parameters; loaded ones must match it name for
name and shape for shape, in order, or the net raises ParamError.
"""

from dataclasses import dataclass

import numpy as np

from .diffcore import (ParamSet, Tensor, batchnorm2d, concat_channels,
                       conv2d, fully_connected, maxpool2x2, relu, reshape,
                       upsample2x)
from .diffcore.init import bn_param, conv_param, fc_param
from .errors import ParamError, ShapeError, ValidationError
from .geometry import compose
from .kernels import warp_forward

# re/im channels of one image: SynthNet's input and each U-Net's output
IMAGE_CHANNELS = 2


@dataclass(frozen=True)
class SynthNetConfig:
    base_channels: int = 16
    depth: int = 3


@dataclass(frozen=True)
class RegNetConfig:
    in_size: int = 64
    channels: tuple = (16, 32, 32)
    fc_hidden: int = 64


@dataclass(frozen=True)
class ReconNetConfig:
    in_channels: int = 4
    base_channels: int = 16
    depth: int = 3


class _ConvBNRelu:
    """conv 3x3 -> batchnorm -> relu, parameters fetched by name at
    call time so rebinding the owning net's ParamSet just works."""

    def __init__(self, net, name, ci, co, rng):
        self.net = net
        self.name = name
        conv_param(net.params, name + ".conv", co, ci, 3, rng)
        bn_param(net.params, name + ".bn", co)

    def __call__(self, x):
        ps = self.net.params
        n = self.name
        y = conv2d(x, ps[n + ".conv.w"], ps[n + ".conv.b"])
        y = batchnorm2d(y, ps[n + ".bn.gamma"], ps[n + ".bn.beta"],
                        ps[n + ".bn.running_mean"],
                        ps[n + ".bn.running_var"], self.net.training)
        return relu(y)


def _layout_mismatch(built, loaded):
    """The first way `loaded` departs from the names and shapes of
    `built`, in order, or None if it fits."""
    want = [(n, t.shape) for n, t in built.items()]
    got = [(n, t.shape) for n, t in loaded.items()]
    for (wn, ws), (gn, gs) in zip(want, got):
        if wn != gn:
            return "found %r where %r belongs" % (gn, wn)
        if ws != gs:
            return "%r has shape %s, expected %s" % (gn, gs, ws)
    if len(got) > len(want):
        return "unexpected %r" % got[len(want)][0]
    if len(got) < len(want):
        return "missing %r" % want[len(got)][0]
    return None


class _Network:
    """Shared constructor: build the layout with fresh params, then bind
    loaded params in their place if given."""

    def __init__(self, config, params=None, rng=None):
        self.config = config
        self.training = True
        self.params = ParamSet()
        self._build(rng if rng is not None else np.random.default_rng(0))
        self.params.freeze()
        if params is not None:
            bad = _layout_mismatch(self.params, params)
            if bad:
                raise ParamError("loaded parameters do not fit %s: %s"
                                 % (type(self).__name__, bad))
            self.params = params

    def train_mode(self):
        self.training = True
        return self

    def eval_mode(self):
        self.training = False
        return self


class _UNet:
    """Encoder-decoder with skip concats; depth resolution levels,
    one conv block per encoder level, two per decoder level, and an
    output conv to IMAGE_CHANNELS."""

    def __init__(self, net, cin, base, depth, rng):
        if depth < 2:
            raise ValidationError("unet depth must be >= 2, got %d" % depth)
        self.net = net
        self.depth = depth
        chans = [base * 2 ** l for l in range(depth)]
        self.enc = []
        for l in range(depth):
            ci = cin if l == 0 else chans[l - 1]
            self.enc.append(_ConvBNRelu(net, "enc%d" % l, ci, chans[l], rng))
        self.up = []
        self.dec = []
        for l in range(depth - 2, -1, -1):
            self.up.append(_ConvBNRelu(net, "up%d" % l,
                                       chans[l + 1], chans[l], rng))
            self.dec.append(_ConvBNRelu(net, "dec%d" % l,
                                        2 * chans[l], chans[l], rng))
        conv_param(net.params, "out", IMAGE_CHANNELS, base, 3, rng)

    def __call__(self, x):
        div = 2 ** (self.depth - 1)
        if x.shape[2] % div or x.shape[3] % div:
            raise ShapeError("unet input %dx%d not divisible by %d"
                             % (x.shape[2], x.shape[3], div))
        skips = []
        h = x
        for l, blk in enumerate(self.enc):
            if l > 0:
                h = maxpool2x2(h)
            h = blk(h)
            skips.append(h)
        for i, l in enumerate(range(self.depth - 2, -1, -1)):
            h = upsample2x(h)
            h = self.up[i](h)
            h = concat_channels([h, skips[l]])
            h = self.dec[i](h)
        ps = self.net.params
        return conv2d(h, ps["out.w"], ps["out.b"])


class SynthNet(_Network):
    """Reference contrast -> synthetic target contrast."""

    def _build(self, rng):
        c = self.config
        self.unet = _UNet(self, IMAGE_CHANNELS, c.base_channels, c.depth, rng)

    def __call__(self, x):
        if x.shape[1] != IMAGE_CHANNELS:
            raise ShapeError("synthesis net expects %d channels, got %d"
                             % (IMAGE_CHANNELS, x.shape[1]))
        return self.unet(x)


class ReconNet(_Network):
    """Fused input channels -> raw reconstruction (pre data consistency)."""

    def _build(self, rng):
        c = self.config
        self.unet = _UNet(self, c.in_channels, c.base_channels, c.depth, rng)

    def __call__(self, x):
        if x.shape[1] != self.config.in_channels:
            raise ShapeError("reconstruction net expects %d channels, got %d"
                             % (self.config.in_channels, x.shape[1]))
        return self.unet(x)


class RegNet(_Network):
    """Moving + fixed image -> [N, 3] rigid params (tx, ty, theta).

    Conv/BN/relu/pool stages then two fully connected layers; the final
    layer is zero-initialised so an untrained net predicts the identity
    transform.  Callers that need the warped moving image apply
    diffcore.warp_rigid(moving, params) themselves.
    """

    def _build(self, rng):
        c = self.config
        if c.in_size % 2 ** len(c.channels):
            raise ValidationError("reg net input size %d not divisible by %d"
                                  % (c.in_size, 2 ** len(c.channels)))
        self.blocks = []
        ci = 4
        for i, co in enumerate(c.channels):
            self.blocks.append(_ConvBNRelu(self, "enc%d" % i, ci, co, rng))
            ci = co
        side = c.in_size // 2 ** len(c.channels)
        self.flat_dim = side * side * c.channels[-1]
        fc_param(self.params, "fc1", c.fc_hidden, self.flat_dim, rng)
        fc_param(self.params, "fc2", 3, c.fc_hidden, rng, zero_init=True)

    def __call__(self, moving, fixed):
        if moving.shape != fixed.shape:
            raise ShapeError("moving %s and fixed %s disagree"
                             % (moving.shape, fixed.shape))
        if moving.shape[1] != 2:
            raise ShapeError("registration inputs need 2 channels, got %d"
                             % moving.shape[1])
        if moving.shape[2] != self.config.in_size or \
                moving.shape[3] != self.config.in_size:
            raise ShapeError("reg net is sized for %dx%d inputs, got %dx%d"
                             % (self.config.in_size, self.config.in_size,
                                moving.shape[2], moving.shape[3]))
        h = concat_channels([moving, fixed])
        for blk in self.blocks:
            h = maxpool2x2(blk(h))
        h = reshape(h, (h.shape[0], self.flat_dim))
        ps = self.params
        h = relu(fully_connected(h, ps["fc1.w"], ps["fc1.b"]))
        return fully_connected(h, ps["fc2.w"], ps["fc2.b"])


def register_refined(net, moving, fixed, n_iters=3):
    """Batched registration with iterative compositional refinement.

    moving and fixed are [N, 2, H, W] arrays.  Each pass re-runs the net
    on the moving image warped by the running estimate and composes the
    residual prediction, so later passes see a nearly aligned pair where
    the regression is most accurate.  Returns the estimate as [N, 3]
    float64 (tx, ty, theta) rows and the moving image warped by it, a
    single resample of the original.
    """
    if n_iters < 1:
        raise ValidationError("n_iters must be >= 1, got %r" % n_iters)
    fixed_t = Tensor(fixed)

    def predict(m):
        return net(Tensor(m), fixed_t).data.astype(np.float64)

    def warp_by(p):
        return warp_forward(moving, p.astype(moving.dtype))

    est = predict(moving)
    for _ in range(n_iters - 1):
        est = compose(est, predict(warp_by(est)))
    return est, warp_by(est)
