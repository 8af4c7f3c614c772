"""The hot kernels: convolution, pooling, upsampling and rigid warps.

Array-in / array-out numpy functions that the autodiff ops in diffcore
wrap.  The conv, pool and warp forwards validate their input shapes;
each backward takes the shapes its forward accepted.  Convolutions are
stride-1, same-padded, odd square kernels only.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ShapeError


def conv2d_forward(x, w, b):
    """Same-padded stride-1 correlation.

    Parameters
    ----------
    x : ndarray, [N, Ci, H, W]
    w : ndarray, [Co, Ci, k, k], k odd
    b : ndarray, [Co]

    Returns
    -------
    ndarray, [N, Co, H, W]
    """
    if x.ndim != 4 or w.ndim != 4 or b.ndim != 1:
        raise ShapeError("conv2d expects x[N,Ci,H,W], w[Co,Ci,k,k], b[Co]")
    if w.shape[1] != x.shape[1]:
        raise ShapeError("conv2d channel mismatch: x has %d input channels, "
                         "w expects %d" % (x.shape[1], w.shape[1]))
    if w.shape[2] != w.shape[3] or w.shape[2] % 2 != 1:
        raise ShapeError("conv2d kernel must be square with odd side, got %s"
                         % (w.shape[2:],))
    if b.shape[0] != w.shape[0]:
        raise ShapeError("conv2d bias length %d != %d output channels"
                         % (b.shape[0], w.shape[0]))
    k = w.shape[2]
    p = k // 2
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    win = sliding_window_view(xp, (k, k), axis=(2, 3))
    y = np.tensordot(win, w, axes=((1, 4, 5), (1, 2, 3)))
    y = np.ascontiguousarray(y.transpose(0, 3, 1, 2))
    y += b[None, :, None, None]
    return y


def conv2d_grad_input(gy, w):
    """Gradient of conv2d_forward w.r.t. its input (full conv, flipped w)."""
    k = w.shape[2]
    p = k // 2
    wflip = w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
    gyp = np.pad(gy, ((0, 0), (0, 0), (p, p), (p, p)))
    win = sliding_window_view(gyp, (k, k), axis=(2, 3))
    gx = np.tensordot(win, wflip, axes=((1, 4, 5), (1, 2, 3)))
    return np.ascontiguousarray(gx.transpose(0, 3, 1, 2))


def conv2d_grad_weights(x, gy, k):
    """Gradients of conv2d_forward w.r.t. weights and bias."""
    p = k // 2
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    win = sliding_window_view(xp, (k, k), axis=(2, 3))
    gw = np.tensordot(gy, win, axes=((0, 2, 3), (0, 2, 3)))
    gb = gy.sum(axis=(0, 2, 3))
    return np.ascontiguousarray(gw), gb


def maxpool2x2_forward(x):
    """2x2 max pooling, stride 2.  Ties pick the first element in
    row-major scan order.

    Returns the pooled map and a uint8 argmax code (2*di + dj).
    """
    if x.ndim != 4 or x.shape[2] % 2 or x.shape[3] % 2:
        raise ShapeError("maxpool2x2 needs [N,C,H,W] with even H and W, "
                         "got %s" % (x.shape,))
    n, c, h, w = x.shape
    blocks = x.reshape(n, c, h // 2, 2, w // 2, 2).transpose(0, 1, 2, 4, 3, 5)
    flat = blocks.reshape(n, c, h // 2, w // 2, 4)
    idx = flat.argmax(axis=-1).astype(np.uint8)
    y = np.take_along_axis(flat, idx[..., None].astype(np.intp), axis=-1)[..., 0]
    return np.ascontiguousarray(y), idx


def maxpool2x2_backward(gy, idx, h, w):
    """Scatter pooled gradients back to the argmax positions."""
    n, c, hh, ww = gy.shape
    gflat = np.zeros((n, c, hh, ww, 4), dtype=gy.dtype)
    np.put_along_axis(gflat, idx[..., None].astype(np.intp), gy[..., None], axis=-1)
    gx = gflat.reshape(n, c, hh, ww, 2, 2).transpose(0, 1, 2, 4, 3, 5)
    return np.ascontiguousarray(gx.reshape(n, c, h, w))


def _sample_coords(h, w, tx, ty, theta, dtype):
    # Backward map: src = R(-theta) (dst - c - t) + c, coords are (x, y)
    # with x along columns, y along rows, centre c = ((W-1)/2, (H-1)/2).
    cx = dtype((w - 1) / 2.0)
    cy = dtype((h - 1) / 2.0)
    cth = np.cos(theta).astype(dtype)
    sth = np.sin(theta).astype(dtype)
    yd, xd = np.meshgrid(np.arange(h, dtype=dtype), np.arange(w, dtype=dtype),
                         indexing="ij")
    a = xd[None] - cx - tx[:, None, None].astype(dtype)
    bb = yd[None] - cy - ty[:, None, None].astype(dtype)
    sx = cth[:, None, None] * a + sth[:, None, None] * bb + cx
    sy = -sth[:, None, None] * a + cth[:, None, None] * bb + cy
    return sx, sy


def _corners(sx, sy, h, w):
    x0 = np.floor(sx).astype(np.int64)
    y0 = np.floor(sy).astype(np.int64)
    fx = sx - x0
    fy = sy - y0
    ins = []
    for dy in (0, 1):
        for dx in (0, 1):
            ins.append(((x0 + dx >= 0) & (x0 + dx < w)
                        & (y0 + dy >= 0) & (y0 + dy < h)))
    return x0, y0, fx, fy, ins


def warp_forward(x, tx, ty, theta):
    """Rigid warp of [N, C, H, W] by per-sample (tx, ty, theta).

    Bilinear sampling with zero fill outside the source frame.
    """
    if x.ndim != 4:
        raise ShapeError("warp expects x[N,C,H,W], got %s" % (x.shape,))
    n, c, h, w = x.shape
    if not (tx.shape == ty.shape == theta.shape == (n,)):
        raise ShapeError("warp params must be three [N]=[%d] vectors" % n)
    dtype = x.dtype.type
    sx, sy = _sample_coords(h, w, tx, ty, theta, dtype)
    x0, y0, fx, fy, ins = _corners(sx, sy, h, w)
    wgt = [(1 - fx) * (1 - fy), fx * (1 - fy), (1 - fx) * fy, fx * fy]
    out = np.zeros_like(x)
    ni = np.arange(n)[:, None, None]
    for corner, (dy, dx) in enumerate(((0, 0), (0, 1), (1, 0), (1, 1))):
        m = ins[2 * dy + dx]
        yc = np.clip(y0 + dy, 0, h - 1)
        xc = np.clip(x0 + dx, 0, w - 1)
        vals = x[ni, :, yc, xc]                     # [N, H, W, C]
        contr = (wgt[2 * dy + dx] * m)[..., None] * vals
        out += contr.transpose(0, 3, 1, 2)
    return out


def warp_backward(x, tx, ty, theta, gy, need_input_grad=True):
    """Gradients of warp_forward w.r.t. input and per-sample params.

    Returns (gx or None, gtx, gty, gtheta).
    """
    n, c, h, w = x.shape
    dtype = x.dtype.type
    cx = dtype((w - 1) / 2.0)
    cy = dtype((h - 1) / 2.0)
    cth = np.cos(theta).astype(dtype)
    sth = np.sin(theta).astype(dtype)
    sx, sy = _sample_coords(h, w, tx, ty, theta, dtype)
    x0, y0, fx, fy, ins = _corners(sx, sy, h, w)
    ni = np.arange(n)[:, None, None]

    pix = []
    for dy in (0, 1):
        for dx in (0, 1):
            m = ins[2 * dy + dx]
            yc = np.clip(y0 + dy, 0, h - 1)
            xc = np.clip(x0 + dx, 0, w - 1)
            pix.append(x[ni, :, yc, xc] * m[..., None])  # [N, H, W, C]
    p00, p10, p01, p11 = pix

    gyt = gy.transpose(0, 2, 3, 1)                       # [N, H, W, C]
    # d value / d sx and / d sy per channel, then contract with gy.
    dvdx = (1 - fy)[..., None] * (p10 - p00) + fy[..., None] * (p11 - p01)
    dvdy = (1 - fx)[..., None] * (p01 - p00) + fx[..., None] * (p11 - p10)
    gsx = (gyt * dvdx).sum(axis=-1)
    gsy = (gyt * dvdy).sum(axis=-1)

    ct = cth[:, None, None]
    st = sth[:, None, None]
    gtx = (gsx * (-ct) + gsy * st).sum(axis=(1, 2))
    gty = (gsx * (-st) + gsy * (-ct)).sum(axis=(1, 2))
    gth = (gsx * (sy - cy) - gsy * (sx - cx)).sum(axis=(1, 2))

    gx = None
    if need_input_grad:
        gx = np.zeros_like(x)
        wgt = [(1 - fx) * (1 - fy), fx * (1 - fy), (1 - fx) * fy, fx * fy]
        for corner, (dy, dx) in enumerate(((0, 0), (0, 1), (1, 0), (1, 1))):
            m = ins[2 * dy + dx]
            yc = np.clip(y0 + dy, 0, h - 1)
            xc = np.clip(x0 + dx, 0, w - 1)
            contr = (wgt[2 * dy + dx] * m)[..., None] * gyt
            np.add.at(gx, (ni, slice(None), yc, xc), contr)
    return gx, gtx.astype(x.dtype), gty.astype(x.dtype), gth.astype(x.dtype)


def upsample2x_forward(x):
    """Nearest-neighbour 2x upsampling of [N, C, H, W]."""
    return np.repeat(np.repeat(x, 2, axis=2), 2, axis=3)


def upsample2x_backward(gy):
    n, c, h2, w2 = gy.shape
    return gy.reshape(n, c, h2 // 2, 2, w2 // 2, 2).sum(axis=(3, 5))
