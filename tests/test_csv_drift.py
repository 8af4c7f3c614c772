"""tools/csv_drift.py: per-column drift between two run set trees."""

import os
import subprocess
import sys

import pytest

TOOL = os.path.join(os.path.dirname(__file__), os.pardir, "tools",
                    "csv_drift.py")
HEADER = "record_id,stage,branch,psnr,ssim,n_pixels\n"
ROW = "12,reconstruction,image,%s,%s,363\n"


def drift(tmp_path, psnr, ssim, extra=""):
    """Exit code and output of the tool on a tree holding one row of
    records.csv against a copy with the given values."""
    for side, (p, s) in (("a", ("20.000000", "0.800000")),
                         ("b", (psnr, ssim))):
        d = tmp_path / side / "eval"
        d.mkdir(parents=True, exist_ok=True)
        (d / "records.csv").write_text(HEADER + ROW % (p, s))
    if extra:
        (tmp_path / "b" / "eval" / "extra.csv").write_text(extra)
    r = subprocess.run([sys.executable, TOOL, str(tmp_path / "a"),
                        str(tmp_path / "b")], capture_output=True, text=True)
    return r.returncode, r.stdout


@pytest.mark.parametrize("psnr,ssim,code", [
    ("20.000000", "0.800000", 0),
    ("20.015000", "0.800900", 0),
    ("20.025000", "0.800000", 1),
    ("20.000000", "0.801500", 1),
    ("nan", "0.800000", 1),
])
def test_metric_columns_are_held_to_their_tolerance(tmp_path, psnr, ssim,
                                                    code):
    rc, out = drift(tmp_path, psnr, ssim)
    assert rc == code
    assert ("OVER" in out) == bool(code)


def test_anything_else_must_match(tmp_path):
    rc, out = drift(tmp_path, "20.000000", "0.800000", extra="a\n1\n")
    assert rc == 1
    assert "only in" in out and "extra.csv" in out
