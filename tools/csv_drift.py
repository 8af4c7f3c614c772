#!/usr/bin/env python3
"""Largest difference per CSV column between two tools/run_set.sh trees.

    python3 tools/csv_drift.py A B

Reads every CSV file under the output trees A and B, pairs the files by
relative path and their rows in order, and prints, for each column name,
the largest absolute difference between paired values, with the largest
relative one for loss columns.  Exits 1 if a PSNR, SSIM or loss column
drifts beyond its tolerance below, or if anything else differs at all:
the set of files, their headers, row counts, or any other column (ids,
stage and branch names, pixel counts).  These are the tolerances the
README states for float32 rounding across versions.
"""

import csv
import math
import os
import sys

PSNR_TOL = 0.02     # dB, absolute
SSIM_TOL = 1e-3     # absolute
LOSS_TOL = 1e-2     # relative to the larger magnitude
LOSS_COLUMNS = ("L_i", "L_k", "L_ik", "L_ki", "total", "val_loss")


def _limit(column):
    """(kind, tolerance) of a metric column, None for one compared as
    text."""
    if column.startswith("psnr"):
        return "abs", PSNR_TOL
    if column.startswith("ssim"):
        return "abs", SSIM_TOL
    if column in LOSS_COLUMNS:
        return "rel", LOSS_TOL
    return None


def _csv_files(root):
    found = []
    for d, _, files in os.walk(root):
        found += [os.path.relpath(os.path.join(d, f), root)
                  for f in files if f.endswith(".csv")]
    return sorted(found)


def _read(path):
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    return rows[0], rows[1:]


def compare(a, b):
    """(drift, problems): drift maps each metric column to its largest
    absolute and relative differences and the file where the one its
    tolerance applies to is largest; problems lists every difference
    outside a metric column."""
    files_a, files_b = _csv_files(a), _csv_files(b)
    problems = ["only in %s: %s" % (root, f)
                for root, mine, other in ((a, files_a, files_b),
                                          (b, files_b, files_a))
                for f in mine if f not in other]
    drift = {}
    for rel in files_a:
        if rel not in files_b:
            continue
        head_a, rows_a = _read(os.path.join(a, rel))
        head_b, rows_b = _read(os.path.join(b, rel))
        if head_a != head_b or len(rows_a) != len(rows_b):
            problems.append("%s: header or row count differs" % rel)
            continue
        for n, (row_a, row_b) in enumerate(zip(rows_a, rows_b), 1):
            for col, va, vb in zip(head_a, row_a, row_b):
                limit = _limit(col)
                if limit is None or "" in (va, vb):
                    if va != vb:
                        problems.append("%s row %d: %s is %r vs %r"
                                        % (rel, n, col, va, vb))
                    continue
                fa, fb = float(va), float(vb)
                diff = abs(fa - fb) if va != vb else 0.0
                if math.isnan(diff):
                    diff = math.inf
                ratio = diff / max(abs(fa), abs(fb)) if diff else 0.0
                d = drift.setdefault(col, [0.0, 0.0, "-"])
                # "where" follows the quantity the tolerance applies to
                i = 1 if limit[0] == "rel" else 0
                if (diff, ratio)[i] > d[i]:
                    d[2] = rel
                d[0], d[1] = max(d[0], diff), max(d[1], ratio)
    return drift, problems


def main(argv):
    if len(argv) != 2:
        sys.stderr.write("usage: csv_drift.py A B\n")
        return 2
    drift, problems = compare(*argv)
    over = False
    print("%-12s %10s %10s %12s  %s"
          % ("column", "max_abs", "max_rel", "tolerance", "where"))
    for col in sorted(drift):
        diff, ratio, rel = drift[col]
        kind, tol = _limit(col)
        bad = (ratio if kind == "rel" else diff) > tol
        over |= bad
        print("%-12s %10.3g %10s %8.3g %s  %s%s"
              % (col, diff, "%.3g" % ratio if kind == "rel" else "-", tol,
                 kind, rel, "  OVER" if bad else ""))
    for p in problems:
        print("differs: %s" % p)
    return 1 if over or problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
