"""Seeded parameter initialisation helpers."""

import numpy as np

from .tensor import Tensor


def kaiming_uniform(shape, fan_in, rng):
    """He/Kaiming uniform init, U(-b, b) with b = sqrt(6 / fan_in)."""
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(np.float32)


def conv_param(params, name, co, ci, k, rng):
    """Register weight + bias for a conv layer; returns their names."""
    w = Tensor(kaiming_uniform((co, ci, k, k), ci * k * k, rng),
               requires_grad=True)
    b = Tensor(np.zeros(co, dtype=np.float32), requires_grad=True)
    params.add(name + ".w", w)
    params.add(name + ".b", b)
    return name + ".w", name + ".b"


def fc_param(params, name, n_out, n_in, rng, zero_init=False):
    """Register weight + bias for a fully connected layer."""
    if zero_init:
        wdata = np.zeros((n_out, n_in), dtype=np.float32)
    else:
        wdata = kaiming_uniform((n_out, n_in), n_in, rng)
    params.add(name + ".w", Tensor(wdata, requires_grad=True))
    params.add(name + ".b", Tensor(np.zeros(n_out, dtype=np.float32),
                                   requires_grad=True))
    return name + ".w", name + ".b"


def bn_param(params, name, c):
    """Register scale/shift plus running-stat buffers for a BN layer."""
    params.add(name + ".gamma", Tensor(np.ones(c, dtype=np.float32),
                                       requires_grad=True))
    params.add(name + ".beta", Tensor(np.zeros(c, dtype=np.float32),
                                      requires_grad=True))
    params.add(name + ".running_mean", Tensor(np.zeros(c, dtype=np.float32)))
    params.add(name + ".running_var", Tensor(np.ones(c, dtype=np.float32)))
