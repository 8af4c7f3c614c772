"""Kernel correctness against brute-force loop oracles."""

import ctypes
import os
import subprocess
import sys
import types

import numpy as np
import pytest

import ddmc
import ddmc.cli
import ddmc.kernels
import ddmc.pipeline
from ddmc.errors import ShapeError
from ddmc.kernels import (conv2d_forward, conv2d_grad_input,
                          conv2d_grad_weights, maxpool2x2_backward,
                          maxpool2x2_forward, upsample2x_backward,
                          upsample2x_forward, warp_backward, warp_forward,
                          zero_unless)


def conv2d_loops(x, w, b):
    """Quadruple-loop same-padding convolution, the oracle."""
    n, ci, h, wd = x.shape
    co, _, k, _ = w.shape
    pad = k // 2
    xp = np.zeros((n, ci, h + 2 * pad, wd + 2 * pad), x.dtype)
    xp[:, :, pad:h + pad, pad:wd + pad] = x
    out = np.zeros((n, co, h, wd), np.float64)
    for nn in range(n):
        for oc in range(co):
            for i in range(h):
                for j in range(wd):
                    acc = 0.0
                    for ic in range(ci):
                        for u in range(k):
                            for v in range(k):
                                acc += (float(xp[nn, ic, i + u, j + v])
                                        * float(w[oc, ic, u, v]))
                    out[nn, oc, i, j] = acc + float(b[oc])
    return out


def test_conv2d_forward_matches_loops():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((2, 3, 5, 6)).astype(np.float32)
    w = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
    b = rng.standard_normal(4).astype(np.float32)
    got = conv2d_forward(x, w, b)
    want = conv2d_loops(x, w, b)
    assert np.max(np.abs(got - want)) < 1e-4


def test_conv2d_gradients_match_loop_oracle():
    # d loss / d x and d loss / d w for loss = sum(conv * gy), via the
    # definition: perturbing one element changes the loss by the sum of
    # the products it participates in.  Small sizes keep loops cheap.
    rng = np.random.default_rng(1)
    x = rng.standard_normal((1, 2, 4, 4)).astype(np.float64)
    w = rng.standard_normal((3, 2, 3, 3)).astype(np.float64)
    b = np.zeros(3, np.float64)
    gy = rng.standard_normal((1, 3, 4, 4)).astype(np.float64)

    gx = conv2d_grad_input(gy, w)
    gw, gb = conv2d_grad_weights(x, gy, 3)

    eps = 1e-6
    base = np.sum(conv2d_loops(x, w, b) * gy)
    for idx in [(0, 0, 0, 0), (0, 1, 2, 3), (0, 0, 3, 1)]:
        xp = x.copy()
        xp[idx] += eps
        fd = (np.sum(conv2d_loops(xp, w, b) * gy) - base) / eps
        assert abs(gx[idx] - fd) < 1e-5
    for idx in [(0, 0, 0, 0), (2, 1, 1, 2), (1, 0, 2, 0)]:
        wp = w.copy()
        wp[idx] += eps
        fd = (np.sum(conv2d_loops(x, wp, b) * gy) - base) / eps
        assert abs(gw[idx] - fd) < 1e-5
    assert np.allclose(gb, gy.sum(axis=(0, 2, 3)))


def test_conv2d_rejects_even_kernels():
    x = np.zeros((1, 1, 4, 4), np.float32)
    w = np.zeros((1, 1, 2, 2), np.float32)
    with pytest.raises(ShapeError):
        conv2d_forward(x, w, np.zeros(1, np.float32))


def test_maxpool_forward_and_indices():
    x = np.array([[[[1., 2., 5., 4.],
                    [3., 0., 6., 7.],
                    [9., 8., 1., 1.],
                    [2., 2., 2., 1.]]]], np.float32)
    y, idx = maxpool2x2_forward(x)
    assert y.shape == (1, 1, 2, 2)
    assert np.array_equal(y[0, 0], [[3., 7.], [9., 2.]])
    # gradient routes only to the argmax cell of each window
    gy = np.ones_like(y)
    gx = maxpool2x2_backward(gy, idx, 4, 4)
    assert gx.sum() == 4.0
    assert gx[0, 0, 1, 0] == 1.0 and gx[0, 0, 1, 3] == 1.0
    assert gx[0, 0, 2, 0] == 1.0


def test_maxpool_tie_breaks_to_first():
    x = np.full((1, 1, 2, 2), 3.0, np.float32)
    y, idx = maxpool2x2_forward(x)
    gx = maxpool2x2_backward(np.ones_like(y), idx, 2, 2)
    assert gx[0, 0, 0, 0] == 1.0
    assert gx.sum() == 1.0


def _specials(dtype, shape, rng):
    """Random values salted with signed zeros, infinities and NaNs."""
    x = rng.standard_normal(shape).astype(dtype)
    salt = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, -1.0], dtype)
    pick = rng.random(shape) < 0.4
    x[pick] = rng.choice(salt, size=int(pick.sum()))
    return x


def _bits(a):
    return a.view("u%d" % a.itemsize)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_zero_unless_is_where_bit_for_bit(dtype):
    rng = np.random.default_rng(5)
    x = _specials(dtype, (3, 4, 6, 6), rng)
    keep = rng.random(x.shape) < 0.5
    got = zero_unless(x, keep)
    assert got.dtype == x.dtype and got.shape == x.shape
    assert np.array_equal(_bits(got), _bits(np.where(keep, x, 0)))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_maxpool_matches_argmax_oracle(dtype):
    # oracle: np.argmax over each window in row-major order, which picks
    # the first maximum and the first NaN
    rng = np.random.default_rng(6)
    x = _specials(dtype, (2, 3, 8, 10), rng)
    n, c, h, w = x.shape
    win = x.reshape(n, c, h // 2, 2, w // 2, 2).transpose(0, 1, 2, 4, 3, 5)
    win = win.reshape(n, c, h // 2, w // 2, 4)
    want_idx = win.argmax(axis=-1)
    want_y = np.take_along_axis(win, want_idx[..., None], axis=-1)[..., 0]
    y, idx = maxpool2x2_forward(x)
    assert idx.dtype == np.uint8
    assert np.array_equal(idx, want_idx)
    assert np.array_equal(_bits(y), _bits(want_y))
    gy = rng.standard_normal(y.shape).astype(dtype)
    gx = maxpool2x2_backward(gy, idx, h, w)
    gwin = gx.reshape(n, c, h // 2, 2, w // 2, 2).transpose(0, 1, 2, 4, 3, 5)
    gwin = gwin.reshape(n, c, h // 2, w // 2, 4)
    want_g = np.zeros_like(gwin)
    np.put_along_axis(want_g, want_idx[..., None], gy[..., None], axis=-1)
    assert np.array_equal(_bits(gwin), _bits(want_g))


def test_upsample2x_roundtrip():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((2, 3, 4, 5)).astype(np.float32)
    y = upsample2x_forward(x)
    assert y.shape == (2, 3, 8, 10)
    assert np.array_equal(y[:, :, ::2, ::2], x)
    assert np.array_equal(y[:, :, 1::2, 1::2], x)
    # backward sums the four copies
    g = upsample2x_backward(np.ones_like(y))
    assert np.array_equal(g, np.full_like(x, 4.0))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_upsample2x_backward_matches_reshape_sum(dtype):
    # oracle: the window sum as a reshape and a two-axis numpy sum, bit
    # for bit on random values, windows of four -0.0 (the sum is +0.0)
    # and windows holding +-inf and NaN.  Only the sign of a NaN may
    # differ: where two NaNs meet, which one survives depends on the
    # operand order inside numpy's add loops, which numpy leaves open.
    rng = np.random.default_rng(10)
    gy = _specials(dtype, (3, 4, 12, 10), rng)
    gy[0, 0, :4, :4] = -0.0
    gy[1, 2, 2:4, 6:8] = [[np.inf, 1.0], [-np.inf, 2.0]]
    n, c, h2, w2 = gy.shape
    with np.errstate(invalid="ignore"):
        want = gy.reshape(n, c, h2 // 2, 2, w2 // 2, 2).sum(axis=(3, 5))
        got = upsample2x_backward(gy)
    assert got.dtype == gy.dtype and got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(_bits(got)[~nan], _bits(want)[~nan])
    assert _bits(got[0, 0, 0, 0]) == _bits(np.zeros((), dtype))
    assert np.isnan(got[1, 2, 1, 3])


def _unbounded(monkeypatch, f, *args):
    """f(*args) with the im2col slab budget lifted: one GEMM."""
    with monkeypatch.context() as m:
        m.setattr(ddmc.kernels, "_SLAB_BYTES", 1 << 62)
        return f(*args)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("k", [1, 3, 5])
def test_conv2d_batch_chunks_are_bit_identical(monkeypatch, dtype, k):
    # a budget of a little over one image's slab splits the batch into
    # one-image chunks; two images' worth leaves a remainder chunk.  With
    # 3 -> 4 channels the forward expands the input and the input
    # gradient the output; with 5 -> 2 it is the other way round
    rng = np.random.default_rng(11)
    h, w = 9, 10
    for ci, co in ((3, 4), (5, 2)):
        one_image = ci * k * k * h * w * np.dtype(dtype).itemsize
        wt = rng.standard_normal((co, ci, k, k)).astype(dtype)
        b = rng.standard_normal(co).astype(dtype)
        for n, budget in ((7, one_image + 1), (13, 2 * one_image)):
            x = rng.standard_normal((n, ci, h, w)).astype(dtype)
            gy = rng.standard_normal((n, co, h, w)).astype(dtype)
            want_y = _unbounded(monkeypatch, conv2d_forward, x, wt, b)
            want_gx = _unbounded(monkeypatch, conv2d_grad_input, gy, wt)
            with monkeypatch.context() as m:
                m.setattr(ddmc.kernels, "_SLAB_BYTES", budget)
                y = conv2d_forward(x, wt, b)
                gx = conv2d_grad_input(gy, wt)
            assert y.dtype == dtype and gx.dtype == dtype
            assert y.flags.c_contiguous and gx.flags.c_contiguous
            assert np.array_equal(_bits(y), _bits(want_y))
            assert np.array_equal(_bits(gx), _bits(want_gx))


@pytest.mark.parametrize("ci", [32, 4])
def test_conv2d_slabs_stay_within_budget(monkeypatch, ci):
    # every workspace of a [16xCix64x64] <-> [16x16x64x64] forward,
    # input gradient and weight gradient fits the budget or serves a
    # single image, and each call's chunks cover the batch once.  The
    # side with fewer channels is expanded: at 32 input channels the
    # forward builds tap products and the input gradient slabs, at 4
    # the other way round; one 32-channel image's slab is over budget
    k, h, w = 3, 64, 64
    chunks = []
    columns = ddmc.kernels._columns
    tap_products = ddmc.kernels._tap_products

    def slab(x, k):
        cols = columns(x, k)
        chunks.append(("slab", x.shape[0], [cols.nbytes]))
        return cols

    def taps(x, k, wk):
        t = tap_products(x, k, wk)
        n, c = x.shape[:2]
        padded = c * n * (h + k - 1) * (w + k - 1) * x.itemsize
        chunks.append(("taps", n, [padded, t.nbytes]))
        return t
    monkeypatch.setattr(ddmc.kernels, "_columns", slab)
    monkeypatch.setattr(ddmc.kernels, "_tap_products", taps)
    x = np.zeros((16, ci, h, w), np.float32)
    wt = np.zeros((16, ci, k, k), np.float32)
    gy = np.zeros((16, 16, h, w), np.float32)
    calls = {"forward": lambda: conv2d_forward(x, wt, np.zeros(16, np.float32)),
             "grad_input": lambda: conv2d_grad_input(gy, wt),
             "grad_weights": lambda: conv2d_grad_weights(x, gy, k)}
    kinds = {}
    for name, call in calls.items():
        chunks.clear()
        call()
        assert len(chunks) > 1
        assert sum(n for _, n, _ in chunks) == 16
        for kind, n, sizes in chunks:
            for nbytes in sizes:
                assert nbytes <= ddmc.kernels._SLAB_BYTES or n == 1
        kinds[name] = {kind for kind, _, _ in chunks}
    wide_in = ci > 16
    assert kinds == {"forward": {"taps" if wide_in else "slab"},
                     "grad_input": {"slab" if wide_in else "taps"},
                     "grad_weights": {"slab"}}


def conv2d_grad_loops(x, gy, w):
    """Input and weight gradients of sum(conv2d_loops(x, w, b) * gy),
    one product at a time: the oracle."""
    n, ci, h, wd = x.shape
    co, _, k, _ = w.shape
    pad = k // 2
    gx = np.zeros(x.shape)
    gw = np.zeros(w.shape)
    for nn in range(n):
        for oc in range(co):
            for i in range(h):
                for j in range(wd):
                    g = float(gy[nn, oc, i, j])
                    for ic in range(ci):
                        for u in range(k):
                            for v in range(k):
                                a, c = i + u - pad, j + v - pad
                                if 0 <= a < h and 0 <= c < wd:
                                    gx[nn, ic, a, c] += g * w[oc, ic, u, v]
                                    gw[oc, ic, u, v] += g * x[nn, ic, a, c]
    return gx, gw


@pytest.mark.parametrize("budget", ["one_image", "default"])
@pytest.mark.parametrize("ci,co", [(4, 2), (3, 3), (2, 4)])
def test_conv2d_paths_match_loop_oracles(monkeypatch, ci, co, budget):
    # forward, input gradient and weight gradient on both workspace
    # paths (fewer output than input channels, as many, more), with
    # whole-batch chunks and with one-image chunks
    if budget == "one_image":
        monkeypatch.setattr(ddmc.kernels, "_SLAB_BYTES", 1)
    rng = np.random.default_rng(12)
    x = rng.standard_normal((3, ci, 5, 6))
    w = rng.standard_normal((co, ci, 3, 3))
    b = rng.standard_normal(co)
    gy = rng.standard_normal((3, co, 5, 6))
    want_gx, want_gw = conv2d_grad_loops(x, gy, w)
    assert np.max(np.abs(conv2d_forward(x, w, b)
                         - conv2d_loops(x, w, b))) < 1e-10
    assert np.max(np.abs(conv2d_grad_input(gy, w) - want_gx)) < 1e-10
    gw, gb = conv2d_grad_weights(x, gy, 3)
    assert np.max(np.abs(gw - want_gw)) < 1e-10
    assert np.max(np.abs(gb - gy.sum(axis=(0, 2, 3)))) < 1e-10


def test_warp_identity_is_exact():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((2, 2, 8, 8)).astype(np.float32)
    out = warp_forward(x, np.zeros((2, 3), np.float32))
    assert np.array_equal(out, x)


def test_warp_rejects_params_not_n_by_3():
    x = np.zeros((2, 1, 4, 4), np.float32)
    for p in (np.zeros(2, np.float32), np.zeros((3, 2), np.float32),
              np.zeros((1, 3), np.float32)):
        with pytest.raises(ShapeError):
            warp_forward(x, p)


def test_warp_quarter_turn_permutes_indices():
    # at theta = 90 degrees about the centre, out[i, j] = in[H-1-j, i]
    h = 9
    rng = np.random.default_rng(4)
    x = rng.standard_normal((1, 1, h, h)).astype(np.float64)
    out = warp_forward(x, np.array([[0.0, 0.0, np.pi / 2]]))
    want = np.zeros_like(x)
    for i in range(h):
        for j in range(h):
            want[0, 0, i, j] = x[0, 0, h - 1 - j, i]
    assert np.max(np.abs(out - want)) < 1e-10


def test_warp_integer_translation_shifts_rows():
    x = np.zeros((1, 1, 6, 6), np.float32)
    x[0, 0, 2, 3] = 1.0
    out = warp_forward(x, np.array([[1.0, 2.0, 0.0]], np.float32))
    # sampling at (x - tx, y - ty): content moves by (+tx, +ty)
    assert out[0, 0, 4, 4] == 1.0
    assert out.sum() == 1.0


def test_warp_out_of_frame_is_zero():
    x = np.ones((1, 1, 4, 4), np.float32)
    out = warp_forward(x, np.array([[10.0, 0.0, 0.0]], np.float32))
    assert np.all(out == 0.0)


def test_warp_param_gradients_match_finite_differences():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((2, 2, 8, 8))
    # rows (tx, ty, theta)
    p = np.array([[0.3, -0.7, 0.2], [-1.2, 0.4, -0.35]])
    gy = rng.standard_normal(x.shape)

    gp = warp_backward(x, p, gy)
    assert gp.shape == (2, 3)

    def loss(q):
        return np.sum(warp_forward(x, q) * gy)

    eps = 1e-6
    for n in range(2):
        for k in range(3):
            hi = p.copy()
            lo = p.copy()
            hi[n, k] += eps
            lo[n, k] -= eps
            fd = (loss(hi) - loss(lo)) / (2 * eps)
            assert abs(gp[n, k] - fd) < 1e-5 * max(1.0, abs(fd))


def test_float32_warp_stays_float32():
    # the bilinear weights are taken in the input's dtype, and a float32
    # warp agrees with the float64 warp of the same values to float32
    # rounding: a coordinate near 64 px is rounded by up to 64 eps, so
    # allow 16 times that relative to the largest value
    rng = np.random.default_rng(13)
    x = rng.standard_normal((2, 2, 64, 64)).astype(np.float32)
    gy = rng.standard_normal(x.shape).astype(np.float32)
    p = np.array([[1.3, -2.4, 0.25], [-0.6, 3.1, -0.4]], np.float32)
    sx, sy = ddmc.kernels._sample_coords(64, 64, p, np.float32)[:2]
    fx, fy = ddmc.kernels._corners(sx, sy, x.shape)[:2]
    assert fx.dtype == np.float32 and fy.dtype == np.float32
    x64, p64, gy64 = (a.astype(np.float64) for a in (x, p, gy))
    tol = 16 * 64 * np.finfo(np.float32).eps
    y = warp_forward(x, p)
    gp = warp_backward(x, p, gy)
    assert y.dtype == gp.dtype == np.float32
    for got, want in ((y, warp_forward(x64, p64)),
                      (gp, warp_backward(x64, p64, gy64))):
        assert np.max(np.abs(got - want)) < tol * np.max(np.abs(want))


def test_warp_treats_channels_independently():
    # each channel is warped on its own; the parameter gradients of a
    # multi-channel warp are the sums over channels
    rng = np.random.default_rng(8)
    x = rng.standard_normal((2, 5, 8, 8))
    gy = rng.standard_normal(x.shape)
    p = np.array([[0.6, 2.2, -0.3], [-1.4, 0.1, 0.8]])
    out = warp_forward(x, p)
    gp = warp_backward(x, p, gy)
    per = [warp_backward(x[:, i:i + 1], p, gy[:, i:i + 1]) for i in range(5)]
    for i in range(5):
        one = warp_forward(x[:, i:i + 1], p)
        assert np.array_equal(out[:, i:i + 1], one)
    assert np.allclose(gp, sum(per), rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("k", [1, 5])
def test_conv2d_other_kernel_sizes(k):
    # forward against the loop oracle on a strided (non-contiguous)
    # input, and both gradients through the adjoint identities
    # <conv(x, w), gy> == <x, grad_input(gy, w)> == <w, grad_weights>
    rng = np.random.default_rng(9)
    x = rng.standard_normal((1, 3, 14, 9))[:, :, ::2]
    w = rng.standard_normal((2, 3, k, k))
    b = np.zeros(2)
    got = conv2d_forward(x, w, b)
    assert got.shape == (1, 2, 7, 9)
    assert np.max(np.abs(got - conv2d_loops(x, w, b))) < 1e-10
    gy = rng.standard_normal(got.shape)
    inner = np.sum(got * gy)
    gx = conv2d_grad_input(gy, w)
    gw, gb = conv2d_grad_weights(x, gy, k)
    assert gx.shape == x.shape and gw.shape == w.shape
    assert abs(np.sum(x * gx) - inner) < 1e-10 * max(1.0, abs(inner))
    assert abs(np.sum(w * gw) - inner) < 1e-10 * max(1.0, abs(inner))
    assert np.allclose(gb, gy.sum(axis=(0, 2, 3)))


def blas_counts(libs):
    return [get() for get, _ in libs]


def test_blas_threads_sets_the_count_and_restores_it():
    libs = ddmc.kernels._openblas()
    if not libs:
        pytest.skip("numpy here is not linked against OpenBLAS")
    before = blas_counts(libs)
    with ddmc.kernels.blas_threads(1):
        assert blas_counts(libs) == [1] * len(libs)
    assert blas_counts(libs) == before
    with pytest.raises(RuntimeError):
        with ddmc.kernels.blas_threads(1):
            raise RuntimeError("inside the block")
    assert blas_counts(libs) == before


def test_blas_threads_restores_each_library_it_found(monkeypatch):
    counts = [3, 2]

    def fake(i):
        return (lambda: counts[i], lambda n: counts.__setitem__(i, n))
    monkeypatch.setattr(ddmc.kernels, "_openblas",
                        lambda: [fake(0), fake(1)])
    with ddmc.kernels.blas_threads(1):
        assert counts == [1, 1]
    assert counts == [3, 2]


def test_blas_threads_without_openblas_does_nothing(monkeypatch):
    libs = ddmc.kernels._openblas()
    before = blas_counts(libs)
    monkeypatch.setattr(ddmc.kernels, "_openblas", lambda: [])
    with ddmc.kernels.blas_threads(1):
        assert blas_counts(libs) == before
    assert ddmc.kernels.set_blas_threads(1) == []
    assert blas_counts(libs) == before


def fake_libc(monkeypatch, **symbols):
    """Make the C library that steady_heap finds one with just these
    symbols, looked up afresh on every call."""
    monkeypatch.setattr(ctypes, "CDLL",
                        lambda name: types.SimpleNamespace(**symbols))
    monkeypatch.setattr(ddmc.kernels, "_mallopt",
                        ddmc.kernels._mallopt.__wrapped__)


def test_steady_heap_sets_each_threshold_and_the_arena_cap(monkeypatch):
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1
    fake_libc(monkeypatch, mallopt=mallopt)
    assert ddmc.kernels.steady_heap() == [1, 1, 1, 1]
    # M_MMAP_THRESHOLD, M_TRIM_THRESHOLD, M_TOP_PAD, M_ARENA_MAX
    assert calls == [(-3, 32 << 20), (-1, -1), (-2, 64 << 20),
                     (-8, 2)]


def test_steady_heap_without_mallopt_does_nothing(monkeypatch):
    fake_libc(monkeypatch, malloc=None)
    assert ddmc.kernels.steady_heap() == []


def test_steady_heap_takes_each_setting_here():
    if ddmc.kernels._mallopt() is None:
        pytest.skip("the C library here has no mallopt")
    assert ddmc.kernels.steady_heap() == [1, 1, 1, 1]


def test_cli_import_sets_no_heap_policy():
    # steady_heap reaches mallopt only through _mallopt, so a lookup
    # cache never called means no mallopt call
    src = os.path.dirname(os.path.dirname(ddmc.__file__))
    code = ("import ddmc.cli, ddmc.kernels; "
            "print(ddmc.kernels._mallopt.cache_info().misses)")
    got = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src))
    assert got.stdout.strip() == "0"


def test_cli_and_ablation_workers_set_the_heap_policy(monkeypatch, capsys):
    calls = []
    for module in (ddmc.cli, ddmc.pipeline):
        monkeypatch.setattr(module, "steady_heap",
                            lambda m=module.__name__: calls.append(m))
    monkeypatch.setattr(ddmc.pipeline, "set_blas_threads", lambda n: [])
    assert ddmc.cli.main(["--print-defaults"]) == 0
    ddmc.pipeline._share_cores(2)
    assert calls == ["ddmc.cli", "ddmc.pipeline"]
