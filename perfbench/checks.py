"""Checks of ddmc's outputs, each computed apart from the program.

Every check either recomputes a value with this file's own numpy code
(centred orthonormal FFT, masked PSNR) or tests a property the method must
have (the loss identities, the mask budget, metric ranges, byte-identical
reruns).  None compares against a stored copy of earlier output.  A failed
check raises CheckFailed naming the file, row or record.
"""

import csv
import hashlib
import os

import numpy as np

PSNR_CAP_DB = 100.0
N_CENTER_ROWS = 6
# Under image_loss=complex the cross terms are the direct terms seen
# through a unitary transform; both are float32 means over N*2*H*W values.
CROSS_RTOL = 1e-5
# The total is float32 arithmetic on the terms; the log keeps 9 digits.
TOTAL_RTOL = 1e-6
# records.csv keeps 6 decimals; the recomputation is float64.
PSNR_ATOL_DB = 1e-3
# Zero-filled magnitudes are float32 in the program, float64 here.
ZERO_FILLED_ATOL = 1e-5
# Files that hold wall-clock time and so differ between reruns.
NONDETERMINISTIC = ("run.json",)


class CheckFailed(Exception):
    pass


def read_rows(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def _close(got, want, rtol):
    return abs(got - want) <= rtol * max(abs(want), 1e-30)


def check_loss_rows(path, alpha, beta, image_loss):
    """Every train_steps.csv row obeys the dual-domain loss definition:
    total = L_i + a*L_k + b*(L_ik + a*L_ki), and under image_loss=complex
    L_ik = L_k and L_ki = L_i.  Returns the number of rows checked."""
    rows = read_rows(path)
    if not rows:
        raise CheckFailed("%s has no step rows" % path)
    for row in rows:
        v = {k: float(row[k]) if row[k] else None
             for k in ("L_i", "L_k", "L_ik", "L_ki", "total")}
        where = "%s step %s (%s, %s)" % (path, row["step"], row["stage"],
                                         row["mode"])
        if row["mode"] == "dual":
            if image_loss == "complex":
                if not _close(v["L_ik"], v["L_k"], CROSS_RTOL):
                    raise CheckFailed("%s: L_ik %r != L_k %r"
                                      % (where, v["L_ik"], v["L_k"]))
                if not _close(v["L_ki"], v["L_i"], CROSS_RTOL):
                    raise CheckFailed("%s: L_ki %r != L_i %r"
                                      % (where, v["L_ki"], v["L_i"]))
            want = v["L_i"] + alpha * v["L_k"] + beta * (
                v["L_ik"] + alpha * v["L_ki"])
        elif row["mode"] == "image":
            want = v["L_i"]
        else:
            want = v["L_k"]
        if not _close(v["total"], want, TOTAL_RTOL):
            raise CheckFailed("%s: total %r, terms give %r"
                              % (where, v["total"], want))
    return len(rows)


def check_mask(rows, accel):
    """A row mask keeps floor(H/R) rows, the centre block among them."""
    rows = np.asarray(rows, dtype=bool)
    h = rows.shape[0]
    if int(rows.sum()) != h // accel:
        raise CheckFailed("mask keeps %d rows, floor(%d/%d) = %d"
                          % (rows.sum(), h, accel, h // accel))
    lo = h // 2 - N_CENTER_ROWS // 2
    if not rows[lo:lo + N_CENTER_ROWS].all():
        raise CheckFailed("mask misses a centre row in [%d, %d)"
                          % (lo, lo + N_CENTER_ROWS))


def fft2c(x):
    return np.fft.fftshift(np.fft.fft2(np.fft.ifftshift(x), norm="ortho"))


def ifft2c(k):
    return np.fft.fftshift(np.fft.ifft2(np.fft.ifftshift(k), norm="ortho"))


def zero_filled(image, rows):
    """Inverse transform of the image's k-space with unsampled rows zeroed."""
    k = fft2c(np.asarray(image, dtype=np.complex128))
    k[~np.asarray(rows, dtype=bool), :] = 0
    return ifft2c(k)


def masked_psnr(estimate, truth, brain):
    """PSNR in dB of magnitudes over the brain mask, peak 1, capped."""
    err = (np.abs(estimate).astype(np.float64)
           - np.abs(truth).astype(np.float64))[brain]
    mse = float(np.mean(err * err))
    if mse == 0.0:
        return PSNR_CAP_DB
    return min(PSNR_CAP_DB, 10.0 * np.log10(1.0 / mse))


def check_zero_filled(record_id, program_magnitude, image, rows):
    want = np.abs(zero_filled(image, rows))
    gap = float(np.max(np.abs(np.asarray(program_magnitude) - want)))
    if gap > ZERO_FILLED_ATOL:
        raise CheckFailed("record %d: zero-filled image differs from the "
                          "reference FFT by %.3g" % (record_id, gap))


def check_record_rows(rows, brain_counts):
    """Metric ranges, and n_pixels equal to the brain-mask size."""
    if not rows:
        raise CheckFailed("records.csv has no rows")
    for row in rows:
        rid = int(row["record_id"])
        where = "record %d %s/%s" % (rid, row["stage"], row["branch"])
        if not float(row["psnr"]) <= PSNR_CAP_DB:
            raise CheckFailed("%s: psnr %s above %g" % (where, row["psnr"],
                                                       PSNR_CAP_DB))
        if not -1.0 <= float(row["ssim"]) <= 1.0:
            raise CheckFailed("%s: ssim %s outside [-1, 1]"
                              % (where, row["ssim"]))
        if int(row["n_pixels"]) != brain_counts[rid]:
            raise CheckFailed("%s: n_pixels %s, brain mask has %d"
                              % (where, row["n_pixels"], brain_counts[rid]))


def check_psnr(rows, recomputed):
    """Each recomputed (record, stage, branch) PSNR matches the program's
    row.  Returns the number of rows compared."""
    by_key = {(int(r["record_id"]), r["stage"], r["branch"]): float(r["psnr"])
              for r in rows}
    for key, want in sorted(recomputed.items()):
        if key not in by_key:
            raise CheckFailed("records.csv has no row for %s" % (key,))
        if abs(by_key[key] - want) > PSNR_ATOL_DB:
            raise CheckFailed("record %d %s/%s: psnr %.6f, recomputed %.6f"
                              % (key + (by_key[key], want)))
    return len(recomputed)


def tree_digest(root):
    """sha256 of every deterministic file under root, by relative path."""
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            if name in NONDETERMINISTIC:
                continue
            path = os.path.join(dirpath, name)
            with open(path, "rb") as f:
                out[os.path.relpath(path, root)] = \
                    hashlib.sha256(f.read()).hexdigest()
    return out


def check_same_digest(reference, digest, what):
    if reference.keys() != digest.keys():
        raise CheckFailed("%s: file sets differ (%s)" % (
            what, ", ".join(sorted(reference.keys() ^ digest.keys()))))
    changed = sorted(k for k in reference if reference[k] != digest[k])
    if changed:
        raise CheckFailed("%s: bytes differ in %s" % (what,
                                                      ", ".join(changed)))
