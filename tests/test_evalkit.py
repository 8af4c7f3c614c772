"""Masked metrics, their closed forms, and report rendering."""

import csv
import os

import numpy as np
import pytest

from ddmc.datagen import PhantomSpec, gen_phantom_pair
from ddmc.errors import ShapeError, ValidationError
from ddmc.evalkit import (PSNR_CAP, SSIM_WINDOW, MetricResult,
                          _gaussian_kernel, _local_mean, metrics, psnr,
                          render_report, ssim, write_pgm)
from ddmc.fourier import ComplexImage


def ssim_loops(a, b, window=11, sigma=1.5, k1=0.01, k2=0.03, dr=1.0):
    """Straightforward windowed SSIM over all interior centres."""
    half = (window - 1) / 2.0
    x = np.arange(window) - half
    g = np.exp(-0.5 * (x / sigma) ** 2)
    kern = np.outer(g, g)
    kern /= kern.sum()
    c1 = (k1 * dr) ** 2
    c2 = (k2 * dr) ** 2
    h, w = a.shape
    r = window // 2
    vals = []
    for i in range(r, h - r):
        for j in range(r, w - r):
            pa = a[i - r:i + r + 1, j - r:j + r + 1]
            pb = b[i - r:i + r + 1, j - r:j + r + 1]
            mu1 = (kern * pa).sum()
            mu2 = (kern * pb).sum()
            s11 = (kern * pa * pa).sum() - mu1 * mu1
            s22 = (kern * pb * pb).sum() - mu2 * mu2
            s12 = (kern * pa * pb).sum() - mu1 * mu2
            vals.append(((2 * mu1 * mu2 + c1) * (2 * s12 + c2))
                        / ((mu1 ** 2 + mu2 ** 2 + c1) * (s11 + s22 + c2)))
    return float(np.mean(vals))


def full_mask(h=32, w=32):
    return np.ones((h, w), dtype=bool)


def test_psnr_identical_hits_cap():
    rng = np.random.default_rng(0)
    a = rng.uniform(0, 1, (16, 16))
    assert psnr(a, a.copy(), full_mask(16, 16)) == PSNR_CAP


def test_psnr_constant_offset_closed_form():
    a = np.full((16, 16), 0.5)
    b = a + 0.1
    got = psnr(a, b, full_mask(16, 16))
    # 10*log10(1/0.1^2): exactly 20 dB up to the double rounding of 0.1^2
    assert abs(got - 20.0) < 1e-12
    assert got == 10.0 * np.log10(1.0 / np.float64(0.1 * 0.1))


def test_psnr_mask_invariance():
    rng = np.random.default_rng(1)
    a = rng.uniform(0, 1, (16, 16))
    b = rng.uniform(0, 1, (16, 16))
    mask = np.zeros((16, 16), dtype=bool)
    mask[4:12, 4:12] = True
    base = psnr(a, b, mask)
    b2 = b.copy()
    b2[~mask] += 10.0
    assert psnr(a, b2, mask) == base


def test_psnr_noise_ladder_strictly_decreasing():
    rng = np.random.default_rng(2)
    a = rng.uniform(0.2, 0.8, (32, 32))
    mask = full_mask()
    noise = rng.standard_normal((32, 32))
    vals = [psnr(a, a + amp * noise, mask)
            for amp in (0.001, 0.003, 0.01, 0.03, 0.1)]
    assert all(x > y for x, y in zip(vals, vals[1:]))


def test_psnr_errors():
    a = np.zeros((8, 8))
    with pytest.raises(ValidationError):
        psnr(a, a, np.zeros((8, 8), dtype=bool))
    with pytest.raises(ShapeError):
        psnr(a, np.zeros((8, 9)), full_mask(8, 8))
    with pytest.raises(ShapeError):
        psnr(a, a, full_mask(8, 9))


def test_psnr_uses_magnitudes():
    re = np.full((16, 16), 3.0)
    im = np.full((16, 16), 4.0)
    b = np.full((16, 16), 5.0)
    assert psnr(ComplexImage.from_arrays(re, im).magnitude(), b,
                full_mask(16, 16)) == PSNR_CAP
    # metrics take magnitudes only: a re/im stack is refused, not reduced
    with pytest.raises(ShapeError):
        psnr(np.stack([re, im]), b, full_mask(16, 16))


def test_ssim_self_is_one_exactly():
    rng = np.random.default_rng(3)
    a = rng.uniform(0, 1, (32, 32))
    assert ssim(a, a.copy(), full_mask()) == 1.0


def test_ssim_degenerate_constant_closed_form():
    a = np.full((32, 32), 0.5)
    b = np.full((32, 32), 0.6)
    want = (2 * 0.5 * 0.6 + 1e-4) / (0.5 ** 2 + 0.6 ** 2 + 1e-4)
    got = ssim(a, b, full_mask())
    assert abs(got - want) < 1e-6
    assert abs(got - 0.9836) < 1e-4


def test_ssim_matches_loop_reference():
    rng = np.random.default_rng(4)
    a = rng.uniform(0, 1, (64, 64))
    b = np.clip(a + 0.1 * rng.standard_normal((64, 64)), 0, 1)
    got = ssim(a, b, full_mask(64, 64))
    want = ssim_loops(a, b)
    assert abs(got - want) < 1e-6


def test_ssim_symmetry():
    rng = np.random.default_rng(5)
    a = rng.uniform(0, 1, (32, 32))
    b = rng.uniform(0, 1, (32, 32))
    m = full_mask()
    assert abs(ssim(a, b, m) - ssim(b, a, m)) < 1e-9


def test_ssim_mask_invariance():
    rng = np.random.default_rng(6)
    a = rng.uniform(0, 1, (32, 32))
    b = rng.uniform(0, 1, (32, 32))
    mask = np.zeros((32, 32), dtype=bool)
    mask[8:24, 8:24] = True
    base = ssim(a, b, mask)
    a2 = a.copy()
    a2[~mask] = 7.0
    assert ssim(a2, b, mask) == base


def test_separable_local_mean_is_the_2d_window():
    # two 1-D passes of the normalised Gaussian equal the 2-D window
    # outer(g, g) at every fully interior position, in float64
    rng = np.random.default_rng(8)
    x = rng.uniform(0, 1, (29, 23))
    g = _gaussian_kernel()
    assert g.shape == (SSIM_WINDOW,) and abs(g.sum() - 1.0) < 1e-15
    win = np.outer(g, g)
    n = SSIM_WINDOW
    want = np.array([[np.sum(win * x[i:i + n, j:j + n])
                      for j in range(23 - n + 1)] for i in range(29 - n + 1)])
    got = _local_mean(x, g)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) < 1e-14


def test_ssim_window_fit():
    with pytest.raises(ValidationError):
        ssim(np.zeros((8, 8)), np.zeros((8, 8)), full_mask(8, 8))


def test_metrics_bundle():
    rng = np.random.default_rng(7)
    a = rng.uniform(0, 1, (1, 32, 32))
    mask = full_mask()[None]
    r, = metrics(a, a.copy(), mask)
    assert isinstance(r, MetricResult)
    assert r.psnr == PSNR_CAP and r.ssim == 1.0
    assert r.n_pixels == 32 * 32


def test_stacked_metrics_equal_each_image_alone():
    # float64 stacks of varied images and masks: every result is the
    # bits psnr, ssim and a one-image stack give for its image alone
    rng = np.random.default_rng(8)
    a = rng.uniform(0, 1, (5, 32, 32))
    b = np.clip(a + 0.05 * rng.standard_normal(a.shape), 0, 1)
    b[2] = a[2]
    masks = rng.uniform(0, 1, a.shape) > 0.3
    masks[0] = True
    got = metrics(a, b, masks)
    assert len(got) == len(a)
    for i, r in enumerate(got):
        assert r == MetricResult(psnr=psnr(a[i], b[i], masks[i]),
                                 ssim=ssim(a[i], b[i], masks[i]),
                                 n_pixels=int(masks[i].sum()))
        assert [r] == metrics(a[i:i + 1], b[i:i + 1], masks[i:i + 1])
    assert got[2].psnr == PSNR_CAP


def test_stacked_metrics_refuse_any_empty_mask():
    a = np.zeros((3, 16, 16))
    masks = np.ones(a.shape, dtype=bool)
    masks[1] = False
    with pytest.raises(ValidationError):
        metrics(a, a, masks)
    with pytest.raises(ShapeError):
        metrics(a, a[:2], masks)


def test_local_mean_filters_the_last_two_axes():
    rng = np.random.default_rng(9)
    x = rng.uniform(0, 1, (2, 3, 20, 24))
    g = _gaussian_kernel()
    got = _local_mean(x, g)
    assert got.shape == (2, 3, 10, 14)
    for i in range(2):
        for j in range(3):
            assert np.array_equal(got[i, j], _local_mean(x[i, j], g))


def test_pgm_format_law(tmp_path):
    img = np.linspace(0, 1, 256).reshape(16, 16)
    path = str(tmp_path / "a.pgm")
    write_pgm(path, img)
    raw = open(path, "rb").read()
    header = b"P5\n16 16\n255\n"
    assert raw.startswith(header)
    payload = raw[len(header):]
    assert len(payload) == 16 * 16
    vals = np.frombuffer(payload, dtype=np.uint8)
    # monotone: brighter byte iff larger source value
    assert (np.diff(vals.astype(int)) >= 0).all()
    assert vals[0] == 0 and vals[-1] == 255
    # clipping
    write_pgm(path, np.array([[-1.0, 2.0]]))
    raw = open(path, "rb").read()
    assert raw.endswith(bytes([0, 255]))


def test_render_report_files_and_zero_error(tmp_path):
    spec = PhantomSpec(size=32, n_structures=3, seed=0)
    recs = [gen_phantom_pair(spec, i) for i in range(2)]
    outputs = [{"final": rec.tgt.magnitude(),
                "zero_filled": rec.tgt.magnitude() * 0.5}
               for rec in recs]
    out_dir = str(tmp_path / "report")
    written = render_report(recs, outputs, out_dir)
    for rid in (0, 1):
        for panel in ("final", "zero_filled", "ground_truth"):
            for suffix in (".pgm", "_err.pgm"):
                p = os.path.join(out_dir,
                                 "rec_%05d_%s%s" % (rid, panel, suffix))
                assert p in written and os.path.exists(p)
    # the final panel equals the truth, so its error map is all zeros
    err = open(os.path.join(out_dir, "rec_00000_final_err.pgm"), "rb").read()
    assert set(err[err.index(b"255\n") + 4:]) == {0}
    with open(os.path.join(out_dir, "report.csv")) as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["record_id", "panel", "psnr", "ssim", "n_pixels"]
    assert len(rows) == 1 + 2 * 3
    final_rows = [r for r in rows[1:] if r[1] == "final"]
    assert all(float(r[2]) == PSNR_CAP for r in final_rows)
    with pytest.raises(ValidationError):
        render_report(recs, outputs[:1], out_dir)
