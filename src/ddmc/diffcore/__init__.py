"""Autodiff engine: tensors, ops, parameters, Adam, gradient checks."""

from .tensor import (Tensor, add, sub, mul, scale_by, square, relu,
                     sum_all, mean_all, mse, reshape, concat_channels,
                     magnitude_channels, conv2d, maxpool2x2, upsample2x,
                     fully_connected, batchnorm2d, warp_rigid,
                     backward_split)
from .params import ParamSet, MAGIC, FORMAT_VERSION
from .optim import AdamState, adam_step
from .init import kaiming_uniform, conv_param, fc_param, bn_param
from .gradcheck import grad_check

__all__ = [
    "Tensor", "add", "sub", "mul", "scale_by", "square", "relu",
    "sum_all", "mean_all", "mse", "reshape", "concat_channels",
    "magnitude_channels", "conv2d", "maxpool2x2", "upsample2x",
    "fully_connected", "batchnorm2d", "warp_rigid", "backward_split",
    "ParamSet", "MAGIC", "FORMAT_VERSION", "AdamState", "adam_step",
    "kaiming_uniform", "conv_param", "fc_param", "bn_param", "grad_check",
]
