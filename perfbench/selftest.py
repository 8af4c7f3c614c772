"""Show that each output check in checks.py can fail.

Run from the repository root:

    python3 perfbench/selftest.py

It runs a small fused dual-domain workload twice (gen-data, train, eval),
confirms the checks accept the genuine outputs, then feeds each check a
deliberately broken output and confirms it refuses.  Exits 0 when every
broken output was refused and the genuine ones accepted, 1 otherwise.
"""

import csv
import os
import shutil
import sys

import numpy as np

import run

SMALL = run.Workload("train", n_train=8, n_val=4, n_test=4, epochs=1)


def expect_refusal(label, fn, *args):
    try:
        fn(*args)
    except run.checks.CheckFailed as e:
        print("refused  %-34s %s" % (label, e))
        return True
    print("ACCEPTED %-34s (a broken output passed)" % label)
    return False


def edit_row(path, index, field, change):
    """Rewrite one CSV cell as change(old value); returns the old text."""
    with open(path, newline="") as f:
        text = f.read()
    rows = run.checks.read_rows(path)
    rows[index][field] = change(rows[index][field])
    with open(path, "w", newline="") as f:
        w = csv.DictWriter(f, fieldnames=list(rows[0]))
        w.writeheader()
        w.writerows(rows)
    return text


def restore(path, text):
    with open(path, "w", newline="") as f:
        f.write(text)


def main():
    if not os.path.isdir(os.path.join(run.SRC, "ddmc")):
        sys.stderr.write("selftest: no ddmc package under %s\n" % run.SRC)
        return 2
    sys.path.insert(0, run.SRC)
    run.load_checks()
    checks = run.checks
    r = run.Run("selftest", SMALL, 3, 0)
    try:
        r.setup()
        rounds = [r.round(0), r.round(1)]
        if r.failed:
            print("selftest: %d ddmc operations failed" % r.failed)
            return 1
        info = r.check(rounds)
        print("accepted genuine outputs: %s" % info)
        r0, r1 = rounds[0]["dir"], rounds[1]["dir"]
        ckpt, ev = os.path.join(r0, "train"), os.path.join(r0, "eval")
        overrides = SMALL.overrides()
        ok = []

        # 1. a step row whose total breaks the loss identity
        steps = os.path.join(ckpt, "train_steps.csv")
        text = edit_row(steps, 1, "total",
                        lambda v: "%.8e" % (float(v) * (1 + 1e-4)))
        ok.append(expect_refusal("step total off by 1e-4", r.check_cell,
                                 ckpt, ev, overrides, []))
        restore(steps, text)

        # 2. a cross term that no longer equals its direct term
        text = edit_row(steps, 0, "L_ik",
                        lambda v: "%.8e" % (float(v) * 1.001))
        ok.append(expect_refusal("L_ik off L_k by 1e-3", r.check_cell,
                                 ckpt, ev, overrides, []))
        restore(steps, text)

        # 3. a per-record PSNR off by 0.01 dB
        records = os.path.join(ev, "records.csv")
        recs = checks.read_rows(records)
        i = next(k for k, x in enumerate(recs)
                 if x["stage"] == "reconstruction")
        text = edit_row(records, i, "psnr",
                        lambda v: "%.6f" % (float(v) + 0.01))
        ok.append(expect_refusal("record PSNR + 0.01 dB", r.check_cell,
                                 ckpt, ev, overrides, []))
        restore(records, text)

        # 4. n_pixels one off the brain-mask count
        counts = {int(x["record_id"]): int(x["n_pixels"]) for x in recs}
        counts[int(recs[0]["record_id"])] += 1
        ok.append(expect_refusal("n_pixels one off", checks.check_record_rows,
                                 recs, counts))

        # 5. a flipped checkpoint byte in the second round
        path = os.path.join(r1, "train", "reconstruction.ckpt")
        with open(path, "r+b") as f:
            f.seek(-100, os.SEEK_END)
            byte = f.read(1)
            f.seek(-100, os.SEEK_END)
            f.write(bytes([byte[0] ^ 0x01]))
        ok.append(expect_refusal("flipped checkpoint byte",
                                 checks.check_same_digest,
                                 checks.tree_digest(r0),
                                 checks.tree_digest(r1), "round 1 vs 0"))

        # 6. a mask that drops a centre row, 7. a zero-filled image that
        # differs from the reference FFT
        rows_kept = np.zeros(64, dtype=bool)
        rows_kept[:16] = True
        ok.append(expect_refusal("mask without its centre rows",
                                 checks.check_mask, rows_kept, 4))
        rows_kept = np.zeros(64, dtype=bool)
        rows_kept[29:45] = True
        image = np.ones((64, 64))
        program = np.abs(checks.zero_filled(image, rows_kept)) + 1e-4
        ok.append(expect_refusal("zero-filled image + 1e-4",
                                 checks.check_zero_filled, 0, program,
                                 image, rows_kept))
    finally:
        shutil.rmtree(r.dir, ignore_errors=True)
    print("selftest: %d of %d broken outputs refused" % (sum(ok), len(ok)))
    return 0 if all(ok) else 1


if __name__ == "__main__":
    sys.exit(main())
