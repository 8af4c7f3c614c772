"""The hot kernels: convolution, pooling, upsampling and rigid warps.

Array-in / array-out numpy functions that the autodiff ops in diffcore
wrap.  The conv, pool and warp forwards validate their input shapes;
each backward takes the shapes its forward accepted.  Convolutions are
stride-1, same-padded, odd square kernels only.  blas_threads sets the
thread count of the OpenBLAS behind numpy's matrix products for a block,
and steady_heap sets how glibc's malloc keeps and returns memory.
"""

import contextlib
import functools

import numpy as np

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
    wt = w.transpose(1, 2, 3, 0).reshape(-1, w.shape[0])
    y = _chunked_gemm(x, w.shape[2], wt)
    y += b[None, :, None, None]
    return y


# Byte budget of one conv workspace: an im2col slab, or the padded
# input and tap products of the output side.  It stays well under the
# mmap threshold that steady_heap sets, so workspaces are reused heap
# memory; 4 MB was as fast as any larger budget measured, and a smaller
# one keeps the memory that a batch chunk holds small.
_SLAB_BYTES = 4 << 20


def _batch_step(per_image):
    """Images per batch chunk for a workspace of per_image bytes each:
    as many as fit _SLAB_BYTES, and at least one."""
    return max(1, _SLAB_BYTES // per_image)


def _chunked_gemm(x, k, wt):
    """[N, Co, H, W] product of the k x k patches of x [N, C, H, W] with
    wt [C*k*k, Co], rows ordered (c, di, dj), one batch chunk at a time.

    The side with fewer channels is expanded k*k times: the input, as an
    im2col slab, when C <= Co; else the output, as the k*k tap products
    that _tap_products returns, summed at their flat offsets.  Each
    chunk's workspace stays within _SLAB_BYTES, or holds one image.
    Every output pixel depends only on its own image, so the result does
    not depend on the chunking.
    """
    n, c, h, w = x.shape
    co = wt.shape[1]
    out = np.empty((n, co, h, w), dtype=np.result_type(x, wt))
    if co >= c:
        step = _batch_step(c * k * k * h * w * x.dtype.itemsize)
        for i in range(0, n, step):
            # [nb*H*W, C*k*k] patches (a transposed view of the slab) by
            # [C*k*k, Co] weights
            y = np.dot(_columns(x[i:i + step], k).T, wt)
            out[i:i + step] = y.reshape(-1, h, w, co).transpose(0, 3, 1, 2)
        return out
    hp, wp = h + k - 1, w + k - 1
    step = _batch_step(max(c, k * k * co) * hp * wp * out.itemsize)
    # [(di, dj, co), C] weights
    wk = wt.reshape(c, k * k * co).T
    for i in range(0, n, step):
        taps = _tap_products(x[i:i + step], k, wk)
        # output pixel q of the padded grid sums taps[di, dj][q + di*Wp
        # + dj]; every q inside the crop below stays under m
        m = taps.shape[2] - (k - 1) * (wp + 1)
        y = taps[0]
        for t in range(1, k * k):
            ofs = (t // k) * wp + t % k
            y[:, :m] += taps[t, :, ofs:ofs + m]
        y = y.reshape(co, -1, hp, wp)[:, :, :h, :w]
        out[i:i + step] = y.transpose(1, 0, 2, 3)
    return out


def _columns(x, k):
    """Same-padded k x k patches of x [N, C, H, W] as a [C*k*k, N*H*W]
    matrix, rows ordered (c, di, dj).

    Each of the k*k row blocks is one shifted slice copy, so the slab
    is written in long contiguous runs.
    """
    n, c, h, w = x.shape
    p = k // 2
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p))).transpose(1, 0, 2, 3)
    cols = np.empty((c, k, k, n, h, w), dtype=x.dtype)
    for di in range(k):
        for dj in range(k):
            cols[:, di, dj] = xp[:, :, di:di + h, dj:dj + w]
    return cols.reshape(c * k * k, n * h * w)


def _tap_products(x, k, wk):
    """Each tap's weights times the zero-padded x [N, C, H, W], as a
    [k*k, Co, N*Hp*Wp] array over the flat padded grid (Hp = H + k - 1,
    Wp = W + k - 1), for the k*k*Co weight rows wk [(di, dj, co), C].

    x is padded once, channel-major, so one GEMM serves every tap.
    """
    n, c, h, w = x.shape
    p = k // 2
    xp = np.zeros((c, n, h + k - 1, w + k - 1), dtype=x.dtype)
    xp[:, :, p:p + h, p:p + w] = x.transpose(1, 0, 2, 3)
    return np.dot(wk, xp.reshape(c, -1)).reshape(k * k, -1, xp[0].size)


def conv2d_grad_input(gy, w):
    """Gradient of conv2d_forward w.r.t. its input (full conv, flipped w)."""
    wflip = w[:, :, ::-1, ::-1].transpose(0, 2, 3, 1).reshape(-1, w.shape[1])
    return _chunked_gemm(gy, w.shape[2], wflip)


def conv2d_grad_weights(x, gy, k):
    """Gradients of conv2d_forward w.r.t. weights and bias.

    One GEMM per batch chunk, whose slab stays within _SLAB_BYTES or
    holds one image, accumulated in chunk order.
    """
    n, ci, h, w = x.shape
    co = gy.shape[1]
    step = _batch_step(ci * k * k * h * w * x.dtype.itemsize)
    gw = np.zeros((co, ci * k * k), dtype=np.result_type(x, gy))
    for i in range(0, n, step):
        gyt = gy[i:i + step].transpose(1, 0, 2, 3).reshape(co, -1)
        gw += np.dot(gyt, _columns(x[i:i + step], k).T)
    gb = gy.sum(axis=(0, 2, 3))
    return gw.reshape(co, ci, k, k), gb


def zero_unless(a, keep):
    """np.where(keep, a, 0) bit for bit: a where keep holds, +0.0
    elsewhere, whatever a holds there.

    Done as an integer AND with an all-ones / all-zeros mask, which is
    several times faster than np.where on float arrays.
    """
    it = np.dtype("i%d" % a.itemsize)
    bits = keep.astype(it)
    np.negative(bits, out=bits)
    np.bitwise_and(a.view(it), bits, out=bits)
    return bits.view(a.dtype)


def maxpool2x2_forward(x):
    """2x2 max pooling, stride 2.  Ties pick the first element in
    row-major scan order, as does a NaN.

    Returns the pooled map and a uint8 argmax code (2*di + dj).
    """
    if x.ndim != 4 or x.shape[2] % 2 or x.shape[3] % 2:
        raise ShapeError("maxpool2x2 needs [N,C,H,W] with even H and W, "
                         "got %s" % (x.shape,))
    quads = [x[:, :, di::2, dj::2] for di in (0, 1) for dj in (0, 1)]
    best = quads[0]
    idx = np.zeros(best.shape, dtype=np.uint8)
    for code in (1, 2, 3):
        v = quads[code]
        # a later element wins if larger, or if NaN while best is not
        wins = ~(v <= best) & (best == best)
        # codes rise through the loop, so a win is a max with idx
        np.maximum(idx, wins * np.uint8(code), out=idx)
        best = np.maximum(best, v)
    # take the winners' own bits, so a -0.0 / +0.0 tie keeps the first
    y = zero_unless(quads[0], idx == 0)
    it = y.view(np.dtype("i%d" % y.itemsize))
    for code in (1, 2, 3):
        it |= zero_unless(quads[code], idx == code).view(it.dtype)
    return y, idx


def maxpool2x2_backward(gy, idx, h, w):
    """Scatter pooled gradients back to the argmax positions."""
    n, c = gy.shape[:2]
    gx = np.empty((n, c, h, w), dtype=gy.dtype)
    for code in range(4):
        gx[:, :, code // 2::2, code % 2::2] = zero_unless(gy, idx == code)
    return gx


def _sample_coords(h, w, p, dtype):
    """Source points (sx, sy) [N, H, W] of every output pixel under the
    [N, 3] rows p, with the centre (cx, cy) and cos / sin theta [N]
    they were computed from.

    Backward map: src = R(-theta) (dst - c - t) + c, coords are (x, y)
    with x along columns, y along rows, centre c = ((W-1)/2, (H-1)/2).
    """
    tx, ty, theta = p[:, 0], p[:, 1], p[:, 2]
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
    return sx, sy, cx, cy, cth, sth


def _corners(sx, sy, shape):
    """Bilinear taps of the sample points (sx, sy) [N, H, W] in an
    [N, C, H, W] array.

    Returns the fractional offsets fx, fy and, per corner (dy, dx) in
    the order (0, 0), (0, 1), (1, 0), (1, 1), the in-frame mask
    [N, H, W] and flat indices [N, C, H, W] of the tap, clipped into
    the frame, for x.ravel().take.
    """
    n, c, h, w = shape
    # offsets in the points' own dtype; the int64 corners only index
    fx0 = np.floor(sx)
    fy0 = np.floor(sy)
    fx = sx - fx0
    fy = sy - fy0
    x0 = fx0.astype(np.int64)
    y0 = fy0.astype(np.int64)
    # per tap row / column: in-frame flag and clipped offset
    rows = [((y0 + d >= 0) & (y0 + d < h), np.clip(y0 + d, 0, h - 1) * w)
            for d in (0, 1)]
    cols = [((x0 + d >= 0) & (x0 + d < w), np.clip(x0 + d, 0, w - 1))
            for d in (0, 1)]
    planes = np.arange(n * c).reshape(n, c, 1, 1) * (h * w)
    taps = [(in_y & in_x, planes + (ofs_y + ofs_x)[:, None])
            for in_y, ofs_y in rows for in_x, ofs_x in cols]
    return fx, fy, taps


def _channel_sum(a):
    """Sum [N, C, H, W] over C with the channel axis made contiguous, so
    numpy sums it pairwise rather than one channel plane at a time."""
    return np.ascontiguousarray(a.transpose(0, 2, 3, 1)).sum(axis=-1)


def warp_forward(x, p):
    """Rigid warp of [N, C, H, W] by the [N, 3] rows p of per-sample
    (tx, ty, theta).

    Bilinear sampling with zero fill outside the source frame.
    """
    if x.ndim != 4:
        raise ShapeError("warp expects x[N,C,H,W], got %s" % (x.shape,))
    n, c, h, w = x.shape
    if p.shape != (n, 3):
        raise ShapeError("warp params must be [N, 3] = [%d, 3] rows, got %s"
                         % (n, p.shape))
    sx, sy = _sample_coords(h, w, p, x.dtype.type)[:2]
    fx, fy, taps = _corners(sx, sy, x.shape)
    wgt = [(1 - fx) * (1 - fy), fx * (1 - fy), (1 - fx) * fy, fx * fy]
    flat = x.ravel()
    out = np.zeros_like(x)
    for wc, (ins, pix) in zip(wgt, taps):
        out += (wc * ins)[:, None] * flat.take(pix)
    return out


def warp_backward(x, p, gy, need_input_grad=True):
    """Gradients of warp_forward w.r.t. input and per-sample params.

    Returns (gx or None, gp), gp the [N, 3] gradient of the rows p.
    """
    n, c, h, w = x.shape
    sx, sy, cx, cy, cth, sth = _sample_coords(h, w, p, x.dtype.type)
    fx, fy, taps = _corners(sx, sy, x.shape)
    flat = x.ravel()
    # corner values, zero outside the frame
    p00, p10, p01, p11 = [flat.take(pix) * ins[:, None] for ins, pix in taps]

    # d value / d sx and / d sy per channel, then contract with gy.
    dvdx = (1 - fy)[:, None] * (p10 - p00) + fy[:, None] * (p11 - p01)
    dvdy = (1 - fx)[:, None] * (p01 - p00) + fx[:, None] * (p11 - p10)
    gsx = _channel_sum(gy * dvdx)
    gsy = _channel_sum(gy * dvdy)

    ct = cth[:, None, None]
    st = sth[:, None, None]
    gtx = (gsx * (-ct) + gsy * st).sum(axis=(1, 2))
    gty = (gsx * (-st) + gsy * (-ct)).sum(axis=(1, 2))
    gth = (gsx * (sy - cy) - gsy * (sx - cx)).sum(axis=(1, 2))

    gx = None
    if need_input_grad:
        gx = np.zeros_like(x)
        wgt = [(1 - fx) * (1 - fy), fx * (1 - fy), (1 - fx) * fy, fx * fy]
        for wc, (ins, pix) in zip(wgt, taps):
            np.add.at(gx.ravel(), pix, (wc * ins)[:, None] * gy)
    return gx, np.stack([gtx, gty, gth], axis=1).astype(x.dtype)


def upsample2x_forward(x):
    """Nearest-neighbour 2x upsampling of [N, C, H, W]."""
    return np.repeat(np.repeat(x, 2, axis=2), 2, axis=3)


def upsample2x_backward(gy):
    """Sum of each 2x2 window of gy [N, C, 2H, 2W]: pairs of columns,
    then pairs of rows.  The + 0.0 turns a sum of four -0.0 into +0.0,
    as numpy's reduction (which starts from +0.0) gives."""
    a = gy[..., 0::2] + gy[..., 1::2]
    return a[:, :, 0::2] + a[:, :, 1::2] + 0.0


@functools.cache
def _openblas():
    """The (get, set) thread-count functions of every OpenBLAS among the
    process's loaded libraries; empty where there is none.  Found on
    first use, so importing the package scans no libraries."""
    import ctypes
    try:
        with open("/proc/self/maps") as f:
            paths = sorted({line.split()[-1] for line in f
                            if "openblas" in line})
    except OSError:
        paths = []
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"),
                               ("openblas", "64_"), ("openblas", "")):
            get = getattr(lib, prefix + "_get_num_threads" + suffix, None)
            put = getattr(lib, prefix + "_set_num_threads" + suffix, None)
            if get is not None and put is not None:
                get.argtypes, get.restype = (), ctypes.c_int
                put.argtypes, put.restype = (ctypes.c_int,), None
                found.append((get, put))
                break
    return tuple(found)


def set_blas_threads(n):
    """Give every loaded OpenBLAS n threads; returns the counts they had.
    Does nothing where no OpenBLAS is loaded."""
    libs = _openblas()
    old = [get() for get, _ in libs]
    for _, put in libs:
        put(n)
    return old


@contextlib.contextmanager
def blas_threads(n):
    """OpenBLAS runs n threads inside the block and its former counts
    after it.  The count applies to the whole process: set it where no
    other thread is inside a BLAS call."""
    old = set_blas_threads(n)
    try:
        yield
    finally:
        for (_, put), k in zip(_openblas(), old):
            put(k)


# glibc's mallopt parameters (malloc.h) and the values steady_heap sets:
# blocks up to 32 MB, glibc's largest mmap threshold, come from the heap;
# the heap never gives its free top back (-1 turns trimming off: with a
# 256 MB threshold a 400 MB training heap was once trimmed to 173 MB and
# faulted back in, 80k faults a round); it grows by 64 MB more than it
# needs; and there are at most two arenas, one per dual branch thread.
_HEAP_POLICY = ((-3, 32 << 20),     # M_MMAP_THRESHOLD
                (-1, -1),           # M_TRIM_THRESHOLD
                (-2, 64 << 20),     # M_TOP_PAD
                (-8, 2))            # M_ARENA_MAX


@functools.cache
def _mallopt():
    """The C library's mallopt, or None where it has none (outside
    glibc).  Found on first use, so importing the package loads no
    library."""
    import ctypes
    fn = getattr(ctypes.CDLL(None), "mallopt", None)
    if fn is not None:
        fn.argtypes, fn.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    return fn


def steady_heap():
    """Keep freed arrays in the heap for reuse, instead of giving them
    back to the kernel and page-faulting them in again for the next
    layer; returns mallopt's result for each setting, 1 where it took.

    Under glibc's default, sliding thresholds a training step's arrays
    of a few MB are mapped and unmapped, or trimmed off the heap's top,
    between layers, so a round pays tens of thousands of minor page
    faults, a number that varies from process to process.  With the
    policy the heap stays at the size it peaked at, which the process's
    peak RSS counted anyway, until the process exits.  Two arenas let
    the two branch threads allocate without waiting on one lock, and
    the cap keeps a further thread from opening a third arena that
    would hold its own peak.  Changes no arithmetic.  The settings
    apply to the whole process; it does nothing outside glibc.
    """
    mallopt = _mallopt()
    if mallopt is None:
        return []
    return [mallopt(param, value) for param, value in _HEAP_POLICY]
