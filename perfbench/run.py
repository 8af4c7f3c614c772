"""Benchmark for ddmc: a train-and-eval workload and an ablation workload.

Run from the repository root:

    python3 perfbench/run.py --workload train-fused-dual --seed 1 \
        --seconds 45 --trace 0

It imports ddmc from ./src without installing it, builds a dataset from
--seed, and drives the `ddmc` command-line entry point (`ddmc.cli.main`)
in this process, in rounds of identical operations, until --seconds have
passed (at least two rounds).  It then checks the program's outputs
(see checks.py) and prints one JSON object as the last line of stdout.

--trace 0 reports the end-to-end metrics, from untraced rounds only.
--trace 1 installs the span tracer (tracer.py) around set-up and one
round, runs one untraced round before and after it, and reports the
per-layer metrics plus the tracing overhead; it also prints the kernel
table and writes every span to .perfbench_work/trace-<workload>-<seed>.json.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
MIN_ROUNDS = 2

sys.path.insert(0, HERE)
import tracer as tracing  # noqa: E402

checks = None  # see load_checks()


@dataclass(frozen=True)
class Workload:
    """Dataset split sizes, fixed epochs, and what one round runs."""

    kind: str            # "train" or "ablate"
    n_train: int
    n_val: int
    n_test: int
    epochs: int
    # contrast, domain, accel of the checkpoints `ddmc eval` scores
    eval_cell: tuple = ("fused", "dual", 4)
    grid: str = ""
    # set before numpy loads, so forked workers inherit it
    environ: tuple = ()

    def overrides(self, contrast=None, domain=None, accel=None):
        c, d, a = self.eval_cell
        sets = ["data.n_train=%d" % self.n_train,
                "data.n_val=%d" % self.n_val,
                "data.n_test=%d" % self.n_test,
                "train.max_epochs=%d" % self.epochs,
                "train.contrast_mode=%s" % (contrast or c),
                "train.domain_mode=%s" % (domain or d),
                "mask.accel=%d" % (accel or a)]
        return [arg for s in sets for arg in ("--set", s)]

    def cells(self):
        out = []
        for part in self.grid.split(";"):
            domain, contrast, rx = part.split(",")
            out.append((contrast, domain, int(rx[:-1])))
        return out


# The default model (U-Net base 16, depth 3; RegNet 16/32/32; batch 8) at
# 64 px throughout.  Sizes keep one run under a minute on 2 cores.
WORKLOADS = {
    # gen-data once, then rounds of `train --stage all` + `eval`: the full
    # method, dominated by the training step's forward and backward, and
    # the forward-only eval path with registration refinement and SSIM.
    "train-fused-dual": Workload("train", 16, 4, 16, 1),
    # rounds of `ablate` over two reconstruction-only cells through the
    # process pool at its default of one worker per cell, plus `eval` of
    # the first cell: no synthesis, no warp.  OpenBLAS gets one thread per
    # process: with its default of one per core the two workers
    # oversubscribe 2 cores and a round takes anywhere from 5.5 to 11.4 s.
    "ablate-recon": Workload("ablate", 16, 4, 32, 1,
                             eval_cell=("single", "dual", 4),
                             grid="dual,single,4x;image,concat,8x",
                             environ=(("OPENBLAS_NUM_THREADS", "1"),)),
}

END_TO_END_UNITS = {"train_samples_per_s": "samples/s",
                    "eval_records_per_s": "records/s",
                    "peak_rss_mb": "MB",
                    "recon_psnr_db": "dB",
                    "setup_s": "s"}


def load_checks(environ=()):
    """Set the workload's environment, then import checks and so numpy:
    OpenBLAS reads its thread count when numpy loads."""
    global checks
    os.environ.update(environ)
    import checks as mod
    checks = mod


def cli(argv):
    """ddmc's entry point in this process; its stdout goes to stderr so
    the result stays the last line of ours.  Returns True on exit 0."""
    from ddmc.cli import main
    with contextlib.redirect_stdout(sys.stderr):
        code = main(argv)
    if code != 0:
        sys.stderr.write("perfbench: ddmc %s exited %d\n" % (argv[0], code))
    return code == 0


class Run:
    """One benchmark run of one workload in its own work directory."""

    def __init__(self, name, workload, seed, seconds):
        self.name = name
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.dir = os.path.join(WORK, "%s-s%d-p%d" % (name, seed,
                                                      os.getpid()))
        self.data = os.path.join(self.dir, "data")
        self.attempted = 0
        self.failed = 0

    def op(self, argv):
        self.attempted += 1
        t = time.perf_counter()
        ok = cli(argv)
        self.failed += not ok
        return ok, time.perf_counter() - t

    def setup(self):
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.op(["gen-data", "--out", self.data, "--seed", str(self.seed)]
                + self.w.overrides())

    def train_samples(self, cells=1, stages=3):
        return self.w.n_train * self.w.epochs * stages * cells

    def round(self, k):
        """One round of the workload's operations, in directory r<k>."""
        out = os.path.join(self.dir, "r%d" % k)
        w = self.w
        res = {"dir": out, "eval_s": 0.0, "eval_records": w.n_test}
        if w.kind == "train":
            ckpt = os.path.join(out, "train")
            res["ok"], res["train_s"] = self.op(
                ["train", "--data", self.data, "--out", ckpt,
                 "--stage", "all"] + w.overrides())
            res["train_samples"] = self.train_samples()
        else:
            ckpt = os.path.join(out, "ablate", "%s-%s-%dx" % w.eval_cell)
            res["ok"], res["train_s"] = self.op(
                ["ablate", "--data", self.data,
                 "--out", os.path.join(out, "ablate"), "--grid", w.grid]
                + w.overrides())
            res["train_samples"] = self.train_samples(len(w.cells()), 1)
        if res["ok"]:
            res["ok"], res["eval_s"] = self.op(
                ["eval", "--data", self.data, "--ckpt-dir", ckpt,
                 "--out", os.path.join(out, "eval")] + w.overrides())
        else:
            self.attempted += 1
            self.failed += 1
        sys.stderr.write("perfbench: round %d train %.3f s eval %.3f s\n"
                         % (k, res["train_s"], res["eval_s"]))
        return res

    def timed_rounds(self):
        rounds = []
        start = time.perf_counter()
        while (len(rounds) < MIN_ROUNDS
               or time.perf_counter() - start < self.seconds):
            rounds.append(self.round(len(rounds)))
        return rounds

    # -- metrics ---------------------------------------------------------
    def end_to_end(self, rounds, setup_s):
        good = [r for r in rounds if r["ok"]]
        train_rate = statistics.median(r["train_samples"] / r["train_s"]
                                       for r in good)
        eval_rate = statistics.median(r["eval_records"] / r["eval_s"]
                                      for r in good)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if self.w.kind == "ablate":
            rss_kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        return {"train_samples_per_s": train_rate,
                "eval_records_per_s": eval_rate,
                "peak_rss_mb": rss_kb / 1024.0,
                "recon_psnr_db": self.recon_psnr(good[0]["dir"]),
                "setup_s": setup_s}

    def recon_psnr(self, round_dir):
        """Mean test PSNR of the final reconstruction, from the program's
        CSVs (averaged over cells for an ablation)."""
        if self.w.kind == "ablate":
            rows = checks.read_rows(os.path.join(round_dir, "ablate",
                                                 "summary.csv"))
            return statistics.fmean(float(r["psnr_image"]) for r in rows)
        rows = checks.read_rows(os.path.join(round_dir, "eval",
                                             "metrics.csv"))
        return next(float(r["psnr_mean"]) for r in rows
                    if r["stage"] == "reconstruction"
                    and r["branch"] == "image")

    # -- output checks ---------------------------------------------------
    def check(self, rounds):
        """Raise checks.CheckFailed unless every output holds up; returns
        a few reference figures for the log."""
        good = [r for r in rounds if r["ok"]]
        if not good:
            return {}
        ref = checks.tree_digest(good[0]["dir"])
        for r in good[1:]:
            checks.check_same_digest(ref, checks.tree_digest(r["dir"]),
                                     "%s vs %s" % (r["dir"], good[0]["dir"]))
        info = {"rounds_compared": len(good), "files_compared": len(ref)}
        r0 = good[0]["dir"]
        if self.w.kind == "ablate":
            targets = []
            for contrast, domain, accel in self.w.cells():
                cid = "%s-%s-%dx" % (contrast, domain, accel)
                targets.append((os.path.join(r0, "ablate", cid),
                                os.path.join(r0, "ablate", cid),
                                self.w.overrides(contrast, domain, accel)))
        else:
            targets = [(os.path.join(r0, "train"), os.path.join(r0, "eval"),
                        self.w.overrides())]
        zf = []
        for ckpt_dir, eval_dir, overrides in targets:
            info.update(self.check_cell(ckpt_dir, eval_dir, overrides, zf))
        info["zero_filled_psnr_db"] = statistics.fmean(zf)
        return info

    def check_cell(self, ckpt_dir, eval_dir, overrides, zf):
        from ddmc.config import load_config
        from ddmc.datagen import Dataset
        from ddmc.pipeline import Checkpoint, evaluate, prepare_record
        cfg = load_config(None, overrides[1::2])  # the values of --set
        plan = cfg.stage_plan()
        n_steps = checks.check_loss_rows(
            os.path.join(ckpt_dir, "train_steps.csv"), plan.weights.alpha,
            plan.weights.beta, plan.image_loss)
        dataset = Dataset.load(self.data)
        recs = dataset.split("test")
        rows = checks.read_rows(os.path.join(eval_dir, "records.csv"))
        checks.check_record_rows(
            rows, {r.record_id: int(r.brain_mask.sum()) for r in recs})
        cks = {s: Checkpoint.load(os.path.join(ckpt_dir, s + ".ckpt"))
               for s in plan.required_stages()}
        result = evaluate(cks, dataset, "test", plan, with_outputs=True)
        branch = plan.branches()[0]
        recomputed = {}
        for rec, panels in zip(recs, result.outputs):
            rid = rec.record_id
            truth = rec.tgt.real.data + 1j * rec.tgt.imag.data
            brain = rec.brain_mask
            rows_kept = prepare_record(rec, plan).mask.sampled
            checks.check_mask(rows_kept, plan.accel)
            checks.check_zero_filled(rid, panels["zero_filled"], truth,
                                     rows_kept)
            zf.append(checks.masked_psnr(
                checks.zero_filled(truth, rows_kept), truth, brain))
            named = {("reconstruction", branch): "reconstruction"}
            if plan.domain_mode == "dual":
                named[("reconstruction", "kspace")] = "recon_kspace"
            if plan.contrast_mode == "fused":
                named[("synthesis", branch)] = "synthesis"
                named[("registration", branch)] = "registration"
            for (stage, b), panel in named.items():
                recomputed[(rid, stage, b)] = checks.masked_psnr(
                    panels[panel], truth, brain)
        n_psnr = checks.check_psnr(rows, recomputed)
        tag = os.path.basename(ckpt_dir)
        return {"%s.step_rows" % tag: n_steps, "%s.psnr_rows" % tag: n_psnr}


def environment():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"cores": os.cpu_count(),
            "affinity_cores": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": "%s %s" % (blas.get("name"), blas.get("version")),
            "blas_threads": blas_threads(),
            "env": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "DDMC_THREADS", "DDMC_BACKEND")}}


def blas_threads():
    """Thread count of the OpenBLAS numpy loaded, or 0 if not found."""
    import ctypes
    with open("/proc/self/maps") as f:
        libs = sorted({line.split()[-1] for line in f if "openblas" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return 0


# per-layer metric -> (span name, field, unit)
PER_LAYER = {
    "kernels.conv2d_forward.s": ("kernels.conv2d_forward", "s", "s"),
    "kernels.conv2d_forward.calls": ("kernels.conv2d_forward", "calls",
                                     "count"),
    "kernels.conv2d_grad_input.s": ("kernels.conv2d_grad_input", "s", "s"),
    "kernels.conv2d_grad_weights.s": ("kernels.conv2d_grad_weights", "s",
                                      "s"),
    "kernels.maxpool2x2.s": ("kernels.maxpool2x2", "s", "s"),
    "kernels.upsample2x.s": ("kernels.upsample2x", "s", "s"),
    "kernels.warp_forward.s": ("kernels.warp_forward", "s", "s"),
    "kernels.warp_forward.calls": ("kernels.warp_forward", "calls", "count"),
    "kernels.warp_backward.s": ("kernels.warp_backward", "s", "s"),
    "diffcore.backward.self_s": ("diffcore.backward", "self_s", "s"),
    "diffcore.batchnorm2d.s": ("diffcore.batchnorm2d", "s", "s"),
    "diffcore.adam_step.s": ("diffcore.adam_step", "s", "s"),
    "models.SynthNet.s": ("models.SynthNet", "s", "s"),
    "models.SynthNet.calls": ("models.SynthNet", "calls", "count"),
    "models.RegNet.s": ("models.RegNet", "s", "s"),
    "models.RegNet.calls": ("models.RegNet", "calls", "count"),
    "models.ReconNet.s": ("models.ReconNet", "s", "s"),
    "fourier.fft2c.s": ("fourier.fft2c", "s", "s"),
    "fourier.fft2c.calls": ("fourier.fft2c", "calls", "count"),
    "acquisition.data_consistency.s": ("acquisition.data_consistency", "s",
                                       "s"),
    "objectives.stage_loss.s": ("objectives.stage_loss", "s", "s"),
    "evalkit.metrics.s": ("evalkit.metrics", "s", "s"),
    "evalkit.metrics.calls": ("evalkit.metrics", "calls", "count"),
    "pipeline.prepare_record.s": ("pipeline.prepare_record", "s", "s"),
    "pipeline.prepare_record.calls": ("pipeline.prepare_record", "calls",
                                      "count"),
    "pipeline.compute_stage_inputs.s": ("pipeline.compute_stage_inputs", "s",
                                        "s"),
    "pipeline.evaluate.s": ("pipeline.evaluate", "s", "s"),
    "pipeline.train_stage.synthesis.s": ("pipeline.train_stage.synthesis",
                                         "s", "s"),
    "pipeline.train_stage.registration.s": (
        "pipeline.train_stage.registration", "s", "s"),
    "pipeline.train_stage.reconstruction.s": (
        "pipeline.train_stage.reconstruction", "s", "s"),
    "pipeline.train_steps": ("pipeline.log_step", "calls", "count"),
    "pipeline.checkpoint_io.s": ("pipeline.checkpoint_io", "s", "s"),
    "pipeline.run_ablation.s": ("pipeline.run_ablation", "s", "s"),
    "datagen.build_dataset.s": ("datagen.build_dataset", "s", "s"),
    "datagen.Dataset.load.s": ("datagen.Dataset.load", "s", "s"),
}


def traced_run(run):
    """Set-up and one round traced, with an untraced round on each side.
    Returns (per-layer metrics, rounds, trace document)."""
    tr = tracing.Tracer(os.path.join(run.dir, "spans"))
    tr.install()
    try:
        run.setup()
    finally:
        tr.uninstall()
    os.makedirs(tr.out_dir, exist_ok=True)
    rounds = [run.round(0)]
    tr.install()
    try:
        t = time.perf_counter()
        rounds.append(run.round(1))
        traced_s = time.perf_counter() - t
    finally:
        tr.uninstall()
    rounds.append(run.round(2))
    untraced_s = statistics.fmean(r["train_s"] + r["eval_s"]
                                  for r in (rounds[0], rounds[2]))
    workers = tr.load_worker_spans()
    span_sets = [tr.spans] + [w["spans"] for w in workers]
    kernel_sets = [tr.kernel_calls] + [w["kernel_calls"] for w in workers]
    summary = tracing.summarize(span_sets)
    metrics = {}
    for name, (span, field, unit) in PER_LAYER.items():
        value = summary.get(span, {}).get(field, 0)
        metrics[name] = {"value": value, "unit": unit}
    metrics["kernels.conv2d_forward.gflops_computed"] = {
        "value": tracing.total_ops(span_sets, kernel_sets,
                                   "kernels.conv2d_forward") / 1e9,
        "unit": "GFLOP"}
    n_workers = len(workers) or (1 if "pipeline.run_cell" in summary else 0)
    metrics["pipeline.run_ablation.workers"] = {"value": n_workers,
                                                "unit": "count"}
    metrics["blas.threads"] = {"value": blas_threads(), "unit": "count"}
    metrics["trace.untraced_round_s"] = {"value": untraced_s, "unit": "s"}
    metrics["trace.traced_round_s"] = {"value": traced_s, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced_s - untraced_s,
                                   "unit": "s"}
    table = tracing.kernel_table(span_sets, kernel_sets)
    doc = {"workload": run.name, "seed": run.seed,
           "environment": environment(), "layers": summary,
           "kernel_table": table,
           "processes": [{"pid": tr.pid, "spans": tr.spans}] + [
               {"pid": w["pid"], "spans": w["spans"]} for w in workers]}
    return metrics, rounds, doc


def print_kernel_table(rows):
    print("%-62s %6s %10s %8s" % ("kernel at shape", "calls", "ms/call",
                                  "GF/s"))
    for row in rows:
        print("%-62s %6d %10.3f %8.2f" % (row["kernel"][:62], row["calls"],
                                         row["ms_per_call"],
                                         row["gflop_per_s"]))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "ddmc")):
        sys.stderr.write("perfbench: no ddmc package under %s\n" % SRC)
        return 2
    sys.path.insert(0, SRC)
    load_checks(WORKLOADS[args.workload].environ)
    run = Run(args.workload, WORKLOADS[args.workload], args.seed,
              args.seconds)
    try:
        if args.trace:
            metrics, rounds, doc = traced_run(run)
        else:
            run.setup()
            setup_s = time.perf_counter() - T_START
            rounds = run.timed_rounds()
            values = run.end_to_end(rounds, setup_s)
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                       for k, v in values.items()}
        try:
            info = run.check(rounds)
            correct = True
        except checks.CheckFailed as e:
            sys.stderr.write("perfbench: check failed: %s\n" % e)
            info, correct = {}, False
        sys.stderr.write("perfbench: %s\n" % json.dumps(info, sort_keys=True))
        if args.trace:
            doc["checks"] = info
            path = os.path.join(WORK, "trace-%s-%d.json"
                                % (args.workload, args.seed))
            with open(path, "w") as f:
                json.dump(doc, f)
            print_kernel_table(doc["kernel_table"])
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
