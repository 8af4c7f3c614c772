"""The three trained networks.

SynthNet   cross-contrast synthesis, a small U-Net from the reference
           contrast to a target-contrast estimate (one per branch).
RegNet     rigid registration, a strided conv stack regressing
           (tx, ty, theta) from a moving and a fixed image.  The
           image and k-space branches share one net;
           register_refined applies it with compositional refinement.
ReconNet   reconstruction, a U-Net over the fused input channels whose
           output passes through data consistency.

Networks run on [N, 2, H, W] re/im channel tensors.  A net is its
ParamSet, config and mode.  Each layer is a pair of functions: one
registers its tensors under a name, the other runs it on a net, looking
them up by name at call time, so a net built on loaded parameters reads
them in place.  Every net first builds its layout with fresh
parameters; loaded ones must match it name for name and shape for
shape, in order, or the net raises ParamError.
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


def _block_params(params, name, ci, co, rng):
    """Register block `name`: conv 3x3 from ci to co channels, then
    batchnorm."""
    conv_param(params, name + ".conv", co, ci, 3, rng)
    bn_param(params, name + ".bn", co)


def _block(net, name, x):
    """conv 3x3 -> batchnorm -> relu with block `name` of net's params,
    in net's mode."""
    ps = net.params
    y = conv2d(x, ps[name + ".conv.w"], ps[name + ".conv.b"])
    y = batchnorm2d(y, ps[name + ".bn.gamma"], ps[name + ".bn.beta"],
                    ps[name + ".bn.running_mean"],
                    ps[name + ".bn.running_var"], net.training)
    return relu(y)


def _unet_params(params, cin, base, depth, rng):
    """Register a U-Net of depth resolution levels: one block per
    encoder level enc<l>, an up<l> and a dec<l> block per decoder level,
    and an output conv to IMAGE_CHANNELS."""
    if depth < 2:
        raise ValidationError("unet depth must be >= 2, got %d" % depth)
    chans = [base * 2 ** l for l in range(depth)]
    for l in range(depth):
        _block_params(params, "enc%d" % l, chans[l - 1] if l else cin,
                      chans[l], rng)
    for l in range(depth - 2, -1, -1):
        _block_params(params, "up%d" % l, chans[l + 1], chans[l], rng)
        _block_params(params, "dec%d" % l, 2 * chans[l], chans[l], rng)
    conv_param(params, "out", IMAGE_CHANNELS, base, 3, rng)


def _unet(net, x, cin, what):
    """The U-Net of net's params, an encoder-decoder with skip concats,
    on x, which must have cin channels; `what` names the net in the
    error."""
    if x.shape[1] != cin:
        raise ShapeError("%s net expects %d channels, got %d"
                         % (what, cin, x.shape[1]))
    depth = net.config.depth
    div = 2 ** (depth - 1)
    if x.shape[2] % div or x.shape[3] % div:
        raise ShapeError("unet input %dx%d not divisible by %d"
                         % (x.shape[2], x.shape[3], div))
    skips = []
    h = x
    for l in range(depth):
        if l:
            h = maxpool2x2(h)
        h = _block(net, "enc%d" % l, h)
        skips.append(h)
    for l in range(depth - 2, -1, -1):
        h = _block(net, "up%d" % l, upsample2x(h))
        h = _block(net, "dec%d" % l, concat_channels([h, skips[l]]))
    return conv2d(h, net.params["out.w"], net.params["out.b"])


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


class SynthNet(_Network):
    """Reference contrast -> synthetic target contrast."""

    def _build(self, rng):
        c = self.config
        _unet_params(self.params, IMAGE_CHANNELS, c.base_channels, c.depth,
                     rng)

    def __call__(self, x):
        return _unet(self, x, IMAGE_CHANNELS, "synthesis")


class ReconNet(_Network):
    """Fused input channels -> raw reconstruction (pre data consistency)."""

    def _build(self, rng):
        c = self.config
        _unet_params(self.params, c.in_channels, c.base_channels, c.depth,
                     rng)

    def __call__(self, x):
        return _unet(self, x, self.config.in_channels, "reconstruction")


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
        for i, co in enumerate(c.channels):
            _block_params(self.params, "enc%d" % i,
                          c.channels[i - 1] if i else 4, co, rng)
        side = c.in_size // 2 ** len(c.channels)
        fc_param(self.params, "fc1", c.fc_hidden, side * side * c.channels[-1],
                 rng)
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
        for i in range(len(self.config.channels)):
            h = maxpool2x2(_block(self, "enc%d" % i, h))
        h = reshape(h, (h.shape[0], -1))
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
