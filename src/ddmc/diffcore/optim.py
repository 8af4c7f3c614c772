"""Adam optimizer over a ParamSet."""

from dataclasses import dataclass, field

import numpy as np

from ..errors import OptimizerError, ValidationError

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class AdamState:
    """First/second moment buffers keyed by parameter name; the moment
    decay rates are BETA1 and BETA2 and the stabiliser is EPS."""

    lr: float
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)

    @classmethod
    def create(cls, params, lr):
        if not lr > 0:
            raise ValidationError("adam lr must be positive, got %r" % lr)
        st = cls(lr=lr)
        for name, t in params.trainable_items():
            st.m[name] = np.zeros_like(t.data)
            st.v[name] = np.zeros_like(t.data)
        return st


def adam_step(params, state):
    """One in-place Adam update using the grads stored on the tensors."""
    state.step += 1
    t = state.step
    bc1 = 1.0 - BETA1 ** t
    bc2 = 1.0 - BETA2 ** t
    for name, p in params.trainable_items():
        if name not in state.m:
            raise OptimizerError("no optimizer state for parameter %r" % name)
        g = p.grad
        if g is None:
            raise OptimizerError("parameter %r has no gradient; run "
                                 "backward() before adam_step" % name)
        m = state.m[name]
        v = state.v[name]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * g * g
        p.data -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)
