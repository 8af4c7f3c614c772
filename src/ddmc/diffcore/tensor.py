"""Reverse-mode autodiff over numpy arrays.

A Tensor wraps an ndarray plus a grad accumulator and remembers the
op that produced it as a backward closure.  Calling backward() on a
scalar output topologically sorts the graph and pushes gradients to
every tensor that requires them; backward_split does the same in one
job per given root, so that disjoint subgraphs, such as two nets that
meet only in the loss, can backpropagate at once.  Ops are module-level
functions, exactly those the networks and losses run; Tensor's only
operator sugar is the l + a * m of a weighted loss sum.  Every op
validates shapes eagerly, naming the offending axis.

Float policy: training runs float32, gradient checks run float64; ops
preserve the dtype they are given.
"""

import numpy as np

from ..errors import GraphError, ShapeError
from .. import kernels as K

BN_MOMENTUM = 0.9
BN_EPS = 1e-5


class Tensor:
    """Array node in the autodiff graph."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, _parents=(), _backward=None):
        arr = np.asarray(data)
        if not np.issubdtype(arr.dtype, np.floating):
            arr = arr.astype(np.float64)
        self.data = arr
        self.requires_grad = requires_grad
        self._parents = _parents
        self._backward = _backward
        # Leaves that will be trained start with a zero accumulator;
        # interior nodes get theirs lazily during backward.
        self.grad = np.zeros_like(arr) if (requires_grad and not _parents) else None

    @property
    def shape(self):
        return self.data.shape

    def zero_grad(self):
        self.grad = np.zeros_like(self.data) if not self._parents else None

    def backward(self):
        """Backpropagate from a scalar output through the graph."""
        order = _backward_order(self)
        self.grad = np.ones_like(self.data)
        _run_nodes(order)

    def __add__(self, other):
        return add(self, other)

    def __rmul__(self, c):
        return scale_by(self, float(c))

    def __repr__(self):
        return "Tensor(shape=%s, dtype=%s, requires_grad=%s)" % (
            self.shape, self.data.dtype, self.requires_grad)


def _backward_order(loss):
    """The nodes loss's gradient reaches, in the order backward runs
    them: every node after all of its consumers."""
    if loss.data.size != 1:
        raise GraphError("backward() needs a scalar output, got shape %s"
                         % (loss.shape,))
    if not loss.requires_grad:
        raise GraphError("backward() on a tensor with no trainable "
                         "ancestors")
    topo = []
    seen = set()
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))
    topo.reverse()
    return topo


def _run_nodes(nodes):
    for node in nodes:
        if node._backward is not None:
            node._backward(node.grad)


def backward_split(loss, roots, run):
    """Backpropagate from a scalar loss, each root's subgraph as one job.

    The loss head (the nodes that are no root's ancestors) runs first,
    on the calling thread.  Then run(jobs) gets one zero-argument
    callable per root, which backpropagates through that root and its
    ancestors; run must call each once and return when all are done, in
    any order or at once.  Every node runs in its place in
    Tensor.backward's order and sums its gradient contributions in the
    same order, so the gradients are bit-equal to loss.backward().

    Raises GraphError if a root is not in the loss's graph, if two roots
    share an ancestor (such as one net serving both) or one is the
    other's, or if the head reads a node inside a root's subgraph other
    than the root itself.
    """
    order = _backward_order(loss)
    reached = {id(n) for n in order}
    if not all(id(r) in reached for r in roots):
        raise GraphError("backward_split: a root is not in the loss's graph")
    owner = {id(r): k for k, r in enumerate(roots)}  # node -> its root
    for node in order:
        k = owner.get(id(node))
        if k is None:
            continue
        for p in node._parents:
            if p.requires_grad and owner.setdefault(id(p), k) != k:
                raise GraphError("backward_split: roots %d and %d share an "
                                 "ancestor" % (owner[id(p)], k))
    head = [n for n in order if id(n) not in owner]
    for node in head:
        for p in node._parents:
            k = owner.get(id(p))
            if k is not None and p is not roots[k]:
                raise GraphError("backward_split: the loss head reads a "
                                 "node inside root %d's subgraph" % k)
    loss.grad = np.ones_like(loss.data)
    _run_nodes(head)
    parts = [[n for n in order if owner.get(id(n)) == k]
             for k in range(len(roots))]
    run([lambda nodes=nodes: _run_nodes(nodes) for nodes in parts])


def _accum(t, g):
    """Add a gradient contribution to t, copying on first touch so no
    two tensors ever share a grad buffer."""
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.array(g, dtype=t.data.dtype, copy=True)
    else:
        t.grad += g


def _result(data, parents, backward):
    if any(p.requires_grad for p in parents):
        return Tensor(data, requires_grad=True, _parents=tuple(parents),
                      _backward=backward)
    return Tensor(data)


def _check_same_shape(a, b, op):
    if a.shape != b.shape:
        if len(a.shape) != len(b.shape):
            raise ShapeError("%s: rank mismatch %s vs %s"
                             % (op, a.shape, b.shape))
        for ax, (da, db) in enumerate(zip(a.shape, b.shape)):
            if da != db:
                raise ShapeError("%s: axis %d differs (%d vs %d)"
                                 % (op, ax, da, db))


def add(a, b):
    _check_same_shape(a, b, "add")

    def bwd(g):
        _accum(a, g)
        _accum(b, g)
    return _result(a.data + b.data, (a, b), bwd)


def sub(a, b):
    _check_same_shape(a, b, "sub")

    def bwd(g):
        _accum(a, g)
        _accum(b, -g)
    return _result(a.data - b.data, (a, b), bwd)


def scale_by(x, c):
    """Multiply by a constant scalar or broadcastable constant array.

    The constant is not part of the graph, so this is also how masks
    and fixed weight planes enter a loss.
    """
    if not np.isscalar(c):
        c = np.asarray(c, dtype=x.data.dtype)
        try:
            fits = np.broadcast_shapes(x.shape, c.shape) == x.shape
        except ValueError:
            fits = False
        if not fits:
            raise ShapeError("scale_by: constant %s does not broadcast onto "
                             "%s" % (c.shape, x.shape))

    def bwd(g):
        _accum(x, g * c)
    return _result(x.data * c, (x,), bwd)


def square(x):
    def bwd(g):
        _accum(x, 2.0 * g * x.data)
    return _result(x.data * x.data, (x,), bwd)


def relu(x):
    mask = x.data > 0

    def bwd(g):
        _accum(x, g * mask)
    return _result(K.zero_unless(x.data, mask), (x,), bwd)


def mean_all(x):
    n = x.data.size

    def bwd(g):
        _accum(x, np.broadcast_to(g / n, x.shape))
    return _result(np.asarray(x.data.mean()), (x,), bwd)


def mse(a, b):
    """Mean squared error over all elements of two same-shape tensors."""
    _check_same_shape(a, b, "mse")
    d = sub(a, b)
    return mean_all(square(d))


def reshape(x, shape):
    data = x.data.reshape(shape)

    def bwd(g):
        _accum(x, g.reshape(x.shape))
    return _result(data, (x,), bwd)


def concat_channels(tensors):
    """Concatenate [N, C, H, W] tensors along the channel axis."""
    if not tensors:
        raise ShapeError("concat_channels: empty input list")
    first = tensors[0]
    for t in tensors[1:]:
        if t.shape[0] != first.shape[0] or t.shape[2:] != first.shape[2:]:
            raise ShapeError("concat_channels: %s does not align with %s "
                             "outside axis 1" % (t.shape, first.shape))
    data = np.concatenate([t.data for t in tensors], axis=1)
    sizes = [t.shape[1] for t in tensors]

    def bwd(g):
        ofs = 0
        for t, c in zip(tensors, sizes):
            _accum(t, g[:, ofs:ofs + c])
            ofs += c
    return _result(data, tuple(tensors), bwd)


def magnitude_channels(x):
    """Pointwise magnitude of a [..., 2, H, W] re/im pair, keeping a
    singleton channel axis.  Subgradient 0 at exact zeros."""
    if x.shape[-3] != 2:
        raise ShapeError("magnitude_channels: axis -3 must have size 2, "
                         "got %d" % x.shape[-3])
    re = x.data[..., 0, :, :]
    im = x.data[..., 1, :, :]
    m = np.sqrt(re * re + im * im)

    def bwd(g):
        g0 = g[..., 0, :, :]
        safe = np.where(m > 0, m, 1)
        gx = np.empty_like(x.data)
        gx[..., 0, :, :] = g0 * np.where(m > 0, re / safe, 0)
        gx[..., 1, :, :] = g0 * np.where(m > 0, im / safe, 0)
        _accum(x, gx)
    return _result(m[..., None, :, :], (x,), bwd)


def conv2d(x, w, b):
    """Same-padded stride-1 convolution, [N,Ci,H,W] x [Co,Ci,k,k] + [Co]."""
    y = K.conv2d_forward(x.data, w.data, b.data)
    k = w.shape[2]

    def bwd(g):
        if w.requires_grad or b.requires_grad:
            gw, gb = K.conv2d_grad_weights(x.data, g, k)
            _accum(w, gw)
            _accum(b, gb)
        if x.requires_grad:
            _accum(x, K.conv2d_grad_input(g, w.data))
    return _result(y, (x, w, b), bwd)


def maxpool2x2(x):
    y, idx = K.maxpool2x2_forward(x.data)
    h, w = x.shape[2], x.shape[3]

    def bwd(g):
        _accum(x, K.maxpool2x2_backward(g, idx, h, w))
    return _result(y, (x,), bwd)


def upsample2x(x):
    if x.data.ndim != 4:
        raise ShapeError("upsample2x expects [N,C,H,W], got %s" % (x.shape,))
    y = K.upsample2x_forward(x.data)

    def bwd(g):
        _accum(x, K.upsample2x_backward(g))
    return _result(y, (x,), bwd)


def fully_connected(x, w, b):
    """Affine map of [N, n_in] by [n_out, n_in] weights + [n_out] bias."""
    if x.data.ndim != 2:
        raise ShapeError("fully_connected expects [N, n_in], got %s"
                         % (x.shape,))
    if w.shape[1] != x.shape[1]:
        raise ShapeError("fully_connected: input width %d != weight width %d"
                         % (x.shape[1], w.shape[1]))
    if b.shape != (w.shape[0],):
        raise ShapeError("fully_connected: bias shape %s != (%d,)"
                         % (b.shape, w.shape[0]))
    y = x.data @ w.data.T + b.data

    def bwd(g):
        if x.requires_grad:
            _accum(x, g @ w.data)
        _accum(w, g.T @ x.data)
        _accum(b, g.sum(axis=0))
    return _result(y, (x, w, b), bwd)


def batchnorm2d(x, gamma, beta, run_mean, run_var, training):
    """Per-channel batch normalisation of [N, C, H, W].

    Training mode normalises with biased batch statistics and updates
    the running buffers in place (run = m*run + (1-m)*batch for
    m = BN_MOMENTUM); eval mode normalises with the running buffers.
    Both add BN_EPS to the variance.
    """
    c = x.shape[1]
    for t, nm in ((gamma, "gamma"), (beta, "beta"),
                  (run_mean, "running mean"), (run_var, "running var")):
        if t.shape != (c,):
            raise ShapeError("batchnorm2d: %s shape %s != (%d,)"
                             % (nm, t.shape, c))
    mu = x.data.mean(axis=(0, 2, 3)) if training else run_mean.data
    xhat = x.data - mu[None, :, None, None]
    if training:
        # np.var's own steps: the mean of the squared centred input
        var = (xhat * xhat).mean(axis=(0, 2, 3))
        run_mean.data[:] = (BN_MOMENTUM * run_mean.data
                            + (1 - BN_MOMENTUM) * mu)
        run_var.data[:] = BN_MOMENTUM * run_var.data + (1 - BN_MOMENTUM) * var
    else:
        var = run_var.data
    ivstd = 1.0 / np.sqrt(var + BN_EPS)
    xhat *= ivstd[None, :, None, None]
    y = gamma.data[None, :, None, None] * xhat
    y += beta.data[None, :, None, None]
    m = x.shape[0] * x.shape[2] * x.shape[3]

    def bwd(g):
        # dbeta = sum(g) and dgamma = sum(g * xhat) also give the training
        # input gradient, gamma/sigma * (g - dbeta/m - xhat * dgamma/m)
        sums = training and x.requires_grad
        if beta.requires_grad or sums:
            g_sum = g.sum(axis=(0, 2, 3))
            _accum(beta, g_sum)
        if gamma.requires_grad or sums:
            gx_sum = (g * xhat).sum(axis=(0, 2, 3))
            _accum(gamma, gx_sum)
        if not x.requires_grad:
            return
        if training:
            gx = xhat * (gx_sum / m)[None, :, None, None]
            np.subtract(g, gx, out=gx)
            gx -= (g_sum / m)[None, :, None, None]
            gx *= (gamma.data * ivstd)[None, :, None, None]
        else:
            gx = g * gamma.data[None, :, None, None]
            gx *= ivstd[None, :, None, None]
        _accum(x, gx)
    return _result(y, (x, gamma, beta), bwd)


def warp_rigid(x, params):
    """Warp a constant [N, C, H, W] image by per-sample rigid params.

    params is a [N, 3] tensor of (tx, ty, theta): translation in pixels,
    rotation in radians about the image centre, bilinear sampling with
    zero fill.  Differentiable in the parameters only; an image that
    requires a gradient is refused with GraphError, since none would
    reach it.
    """
    if x.requires_grad:
        raise GraphError("warp_rigid: the image must be a constant, got "
                         "one that requires a gradient")
    if x.data.ndim != 4:
        raise ShapeError("warp_rigid expects x[N,C,H,W], got %s" % (x.shape,))
    if params.shape != (x.shape[0], 3):
        raise ShapeError("warp_rigid: params shape %s != (%d, 3)"
                         % (params.shape, x.shape[0]))
    p = params.data.astype(x.data.dtype, copy=False)
    y = K.warp_forward(x.data, p)

    def bwd(g):
        gp = K.warp_backward(x.data, p, g)
        _accum(params, gp.astype(params.data.dtype, copy=False))
    return _result(y, (params,), bwd)
