"""Brain-masked image quality metrics and report rendering.

Metrics compare 2-D magnitude arrays (ground truth is real-valued,
estimates may carry residual imaginary parts) inside the brain mask
only, with the peak fixed at 1.0 so values are comparable across
records.  Both metrics ignore everything outside the mask: PSNR by
masked averaging, SSIM by zeroing the images outside the mask before
windowing, so no unmasked pixel can leak into any window statistic.
"""

import csv
import os
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, ValidationError

PSNR_CAP = 100.0
PEAK = 1.0
# SSIM constants of Wang et al. (2004), for a dynamic range of 1
SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_K1 = 0.01
SSIM_K2 = 0.03


@dataclass(frozen=True)
class MetricResult:
    psnr: float
    ssim: float
    n_pixels: int


def _magnitude_of(a, ndim=2):
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != ndim:
        raise ShapeError("metrics expect %d-D images, got %s"
                         % (ndim, arr.shape))
    return arr


def _checked(a, b, mask, ndim, what):
    """a, b as float64 and mask as bool, each with ndim axes; every
    image's mask must hold a pixel."""
    am = _magnitude_of(a, ndim)
    bm = _magnitude_of(b, ndim)
    if am.shape != bm.shape:
        raise ShapeError("%s inputs disagree: %s vs %s"
                         % (what, am.shape, bm.shape))
    m = np.asarray(mask, dtype=bool)
    if m.shape != am.shape:
        raise ShapeError("mask %s does not match image %s"
                         % (m.shape, am.shape))
    if not m.any(axis=(-2, -1)).all():
        raise ValidationError("empty mask: no pixels to evaluate")
    return am, bm, m


def _psnr(am, bm, m):
    err = am[m] - bm[m]
    mse = float(np.mean(err * err))
    if mse == 0.0:
        return PSNR_CAP
    return min(PSNR_CAP, 10.0 * np.log10(PEAK * PEAK / mse))


def psnr(a, b, mask):
    """Peak SNR in dB over masked magnitudes for peak PEAK, capped at 100."""
    return _psnr(*_checked(a, b, mask, 2, "psnr"))


def _gaussian_kernel():
    """The normalised 1-D Gaussian of the SSIM window; the window is
    its outer product with itself."""
    half = (SSIM_WINDOW - 1) / 2.0
    x = np.arange(SSIM_WINDOW, dtype=np.float64) - half
    g = np.exp(-0.5 * (x / SSIM_SIGMA) ** 2)
    return g / g.sum()


def _local_mean(x, g):
    """Mean of x [..., H, W] under the window outer(g, g) at every fully
    interior position of each image: one 1-D pass of g down the rows,
    one across."""
    n = g.size
    h, w = x.shape[-2:]
    rows = g[0] * x[..., :h - n + 1, :]
    for i in range(1, n):
        rows += g[i] * x[..., i:h - n + 1 + i, :]
    out = g[0] * rows[..., :w - n + 1]
    for j in range(1, n):
        out += g[j] * rows[..., j:w - n + 1 + j]
    return out


def _ssim_maps(am, bm, m):
    """Local SSIM maps of [..., H, W] images zeroed outside their masks,
    and the masks of the maps' window centres."""
    h, w = am.shape[-2:]
    if h < SSIM_WINDOW or w < SSIM_WINDOW:
        raise ValidationError("image %dx%d smaller than %dx%d ssim window"
                              % (h, w, SSIM_WINDOW, SSIM_WINDOW))
    half = SSIM_WINDOW // 2
    centres = m[..., half:h - half, half:w - half]
    if not centres.any(axis=(-2, -1)).all():
        raise ValidationError("mask has no pixels with a fully interior "
                              "%dx%d window" % (SSIM_WINDOW, SSIM_WINDOW))
    am = np.where(m, am, 0.0)
    bm = np.where(m, bm, 0.0)
    kern = _gaussian_kernel()
    mu1 = _local_mean(am, kern)
    mu2 = _local_mean(bm, kern)
    s11 = _local_mean(am * am, kern) - mu1 * mu1
    s22 = _local_mean(bm * bm, kern) - mu2 * mu2
    s12 = _local_mean(am * bm, kern) - mu1 * mu2
    c1 = SSIM_K1 ** 2
    c2 = SSIM_K2 ** 2
    num = (2 * mu1 * mu2 + c1) * (2 * s12 + c2)
    den = (mu1 * mu1 + mu2 * mu2 + c1) * (s11 + s22 + c2)
    return num / den, centres


def ssim(a, b, mask):
    """Mean local SSIM over masked pixels.

    Local statistics use an SSIM_WINDOW x SSIM_WINDOW Gaussian window
    (sigma SSIM_SIGMA) at fully interior positions, with stabilisers
    from SSIM_K1 and SSIM_K2 at a dynamic range of 1; the map is
    averaged where the window centre is masked.  Images are zeroed
    outside the mask first so the metric cannot see unmasked pixels.
    """
    smap, centres = _ssim_maps(*_checked(a, b, mask, 2, "ssim"))
    return float(smap[centres].mean())


def metrics(a, b, mask):
    """PSNR and SSIM of [N, H, W] stacks, one result per image, equal to
    psnr and ssim of that image alone.  The SSIM windows filter the
    whole stack at once; each image's masked means are its own."""
    am, bm, m = _checked(a, b, mask, 3, "metrics")
    smaps, centres = _ssim_maps(am, bm, m)
    return [MetricResult(psnr=_psnr(am[i], bm[i], m[i]),
                         ssim=float(smaps[i][centres[i]].mean()),
                         n_pixels=int(m[i].sum()))
            for i in range(len(am))]


def write_pgm(path, img01):
    """Write a [0, 1] image as binary 8-bit PGM (P5)."""
    arr = np.asarray(img01, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeError("pgm needs a 2-D image, got %s" % (arr.shape,))
    byte = np.round(np.clip(arr, 0.0, 1.0) * 255.0).astype(np.uint8)
    h, w = arr.shape
    with open(path, "wb") as f:
        f.write(b"P5\n%d %d\n255\n" % (w, h))
        f.write(byte.tobytes())
    return path


def render_report(records, outputs, out_dir, err_scale=5.0):
    """Write per-record grayscale panels, error maps, and a metrics CSV.

    Parameters
    ----------
    records : list of ContrastPairRecord
    outputs : list of dict
        Per record, named magnitude panels (e.g. zero_filled,
        synthesis, registration, reconstruction).  A ground_truth panel
        of the target's magnitude is added automatically.
    out_dir : str
    err_scale : float
        Absolute error maps are scaled by this factor before the
        [0, 1] clip, for visibility.

    Returns
    -------
    list of written file paths.
    """
    if len(records) != len(outputs):
        raise ValidationError("got %d records but %d output dicts"
                              % (len(records), len(outputs)))
    os.makedirs(out_dir, exist_ok=True)
    written = []
    rows = []
    for rec, panels in zip(records, outputs):
        truth = _magnitude_of(rec.tgt.magnitude())
        named = dict(panels, ground_truth=truth)
        names = sorted(named)
        mags = [_magnitude_of(named[name]) for name in names]
        scores = metrics(mags, [truth] * len(mags),
                         [rec.brain_mask] * len(mags))
        for name, mag, r in zip(names, mags, scores):
            base = os.path.join(out_dir, "rec_%05d_%s" % (rec.record_id, name))
            written.append(write_pgm(base + ".pgm", mag))
            err = np.abs(mag - truth) * err_scale
            written.append(write_pgm(base + "_err.pgm", err))
            rows.append((rec.record_id, name, "%.6f" % r.psnr,
                         "%.6f" % r.ssim, r.n_pixels))
    csv_path = os.path.join(out_dir, "report.csv")
    with open(csv_path, "w", newline="") as f:
        wr = csv.writer(f)
        wr.writerow(("record_id", "panel", "psnr", "ssim", "n_pixels"))
        wr.writerows(rows)
    written.append(csv_path)
    return written
