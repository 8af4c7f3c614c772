"""Span tracer that wraps ddmc's public functions from outside the package.

`Tracer.install()` replaces each traced function or method with a wrapper
that records a span (name, start, end, parent) in memory.  A function that
other ddmc modules imported by name is replaced at every import site, so a
call is traced whichever module makes it.  `uninstall()` puts the originals
back.  Nothing in ddmc itself knows about tracing.

Kernel calls also record the shapes they ran at and an op count computed
from those shapes, which `kernel_table()` turns into ms per call and
computed GF/s.

Worker processes forked by `pipeline.run_ablation` inherit the wrappers.
Each worker clears what it inherited, records its own spans, and writes
them to `<out_dir>/spans-<pid>.json` when a cell ends; `load_worker_spans()`
reads them back in the parent.
"""

import functools
import glob
import json
import os
import sys
import time
from collections import defaultdict

# Op-count models (operations per call, from argument shapes).  Conv is
# 2 flops per multiply-add; the others count one op per element touched,
# or per bilinear tap for the warps.  They are computed, not measured.


def _conv_fwd_ops(x, w, b):
    n, ci, h, ww = x.shape
    co, _, k, _ = w.shape
    return ("x%s w%s" % (_dims(x), _dims(w)),
            2.0 * n * co * ci * k * k * h * ww)


def _conv_gin_ops(gy, w):
    n, co, h, ww = gy.shape
    _, ci, k, _ = w.shape
    return ("gy%s w%s" % (_dims(gy), _dims(w)),
            2.0 * n * co * ci * k * k * h * ww)


def _conv_gw_ops(x, gy, k):
    n, ci, h, ww = x.shape
    co = gy.shape[1]
    return ("x%s gy%s k%d" % (_dims(x), _dims(gy), k),
            2.0 * n * co * ci * k * k * h * ww)


def _elem_ops(per_elem):
    def ops(x, *rest):
        return "x%s" % _dims(x), float(per_elem * x.size)
    return ops


def _dims(a):
    return "x".join(str(d) for d in a.shape).join("[]")


# (module, attribute, span name, op model or None)
FUNCTIONS = (
    ("ddmc.kernels", "conv2d_forward", "kernels.conv2d_forward",
     _conv_fwd_ops),
    ("ddmc.kernels", "conv2d_grad_input", "kernels.conv2d_grad_input",
     _conv_gin_ops),
    ("ddmc.kernels", "conv2d_grad_weights", "kernels.conv2d_grad_weights",
     _conv_gw_ops),
    ("ddmc.kernels", "maxpool2x2_forward", "kernels.maxpool2x2",
     _elem_ops(1)),
    ("ddmc.kernels", "maxpool2x2_backward", "kernels.maxpool2x2",
     _elem_ops(4)),
    ("ddmc.kernels", "upsample2x_forward", "kernels.upsample2x",
     _elem_ops(4)),
    ("ddmc.kernels", "upsample2x_backward", "kernels.upsample2x",
     _elem_ops(1)),
    ("ddmc.kernels", "warp_forward", "kernels.warp_forward", _elem_ops(8)),
    ("ddmc.kernels", "warp_backward", "kernels.warp_backward", _elem_ops(24)),
    ("ddmc.diffcore.optim", "adam_step", "diffcore.adam_step", None),
    ("ddmc.fourier", "_fft2c_arrays", "fourier.fft2c", None),
    ("ddmc.fourier", "_ifft2c_arrays", "fourier.fft2c", None),
    ("ddmc.acquisition", "data_consistency_channels",
     "acquisition.data_consistency", None),
    ("ddmc.objectives", "stage_loss", "objectives.stage_loss", None),
    ("ddmc.evalkit", "metrics", "evalkit.metrics", None),
    ("ddmc.pipeline", "prepare_record", "pipeline.prepare_record", None),
    ("ddmc.pipeline", "compute_stage_inputs", "pipeline.compute_stage_inputs",
     None),
    ("ddmc.pipeline", "train_stage",
     lambda stage, *rest: "pipeline.train_stage." + stage, None),
    ("ddmc.pipeline", "evaluate", "pipeline.evaluate", None),
    ("ddmc.pipeline", "run_ablation", "pipeline.run_ablation", None),
    ("ddmc.datagen", "build_dataset", "datagen.build_dataset", None),
)

# (module, class, attribute, span name)
METHODS = (
    ("ddmc.diffcore.tensor", "Tensor", "backward", "diffcore.backward"),
    ("ddmc.models", "SynthNet", "__call__", "models.SynthNet"),
    ("ddmc.models", "RegNet", "__call__", "models.RegNet"),
    ("ddmc.models", "ReconNet", "__call__", "models.ReconNet"),
    ("ddmc.datagen", "Dataset", "load", "datagen.Dataset.load"),
    ("ddmc.pipeline", "Checkpoint", "save", "pipeline.checkpoint_io"),
    ("ddmc.pipeline", "Checkpoint", "load", "pipeline.checkpoint_io"),
    ("ddmc.pipeline", "RunLog", "log_step", "pipeline.log_step"),
)


class Tracer:
    """Records spans in memory while installed."""

    def __init__(self, out_dir):
        self.out_dir = out_dir
        self.owner_pid = self.pid = os.getpid()
        self._patches = []
        self._reset()

    def _reset(self):
        # span: [name, start, end, parent index, nested-in-same-name]
        self.spans = []
        self.stack = []
        self.active = defaultdict(int)
        self.kernel_calls = []      # (span index, table key, ops)

    # -- recording -----------------------------------------------------
    def _enter(self, name):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent,
                           self.active[name] > 0])
        self.stack.append(idx)
        self.active[name] += 1
        return idx

    def _exit(self, idx):
        span = self.spans[idx]
        span[2] = time.perf_counter()
        self.stack.pop()
        self.active[span[0]] -= 1

    def wrap(self, name, fn, ops=None):
        """fn wrapped so each call is a span; `name` may be a function of
        the call's arguments."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._enter(name(*args) if callable(name) else name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(idx)
                if ops is not None:
                    key, n = ops(*args)
                    tracer.kernel_calls.append(
                        (idx, "%s %s" % (fn.__name__, key), n))
        return traced

    def _wrap_with_backward(self, name, fn):
        """Trace an autodiff op and the backward closure it returns."""
        tracer = self
        traced_fwd = self.wrap(name, fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            out = traced_fwd(*args, **kwargs)
            if out._backward is not None:
                out._backward = tracer.wrap(name, out._backward)
            return out
        return traced

    def _wrap_worker_entry(self, fn):
        """A forked worker drops the spans it inherited and writes its own
        when each cell ends."""
        tracer = self
        traced_fn = self.wrap("pipeline.run_cell", fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != tracer.pid:
                tracer.pid = os.getpid()
                tracer._reset()
            try:
                return traced_fn(*args, **kwargs)
            finally:
                if tracer.pid != tracer.owner_pid:
                    tracer.dump(os.path.join(tracer.out_dir,
                                             "spans-%d.json" % tracer.pid))
        return traced

    # -- installing ----------------------------------------------------
    def _replace_everywhere(self, orig, wrapped):
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "ddmc" and not mod_name.startswith("ddmc."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapped)
                    self._patches.append((mod, attr, orig))

    def install(self):
        import ddmc.cli  # noqa: F401  (loads every module that gets patched)
        import ddmc.pipeline
        for mod_name, attr, name, ops in FUNCTIONS:
            orig = getattr(sys.modules[mod_name], attr)
            self._replace_everywhere(orig, self.wrap(name, orig, ops))
        bn = sys.modules["ddmc.diffcore.tensor"].batchnorm2d
        self._replace_everywhere(
            bn, self._wrap_with_backward("diffcore.batchnorm2d", bn))
        run_cell = ddmc.pipeline._run_cell
        self._replace_everywhere(run_cell, self._wrap_worker_entry(run_cell))
        for mod_name, cls_name, attr, name in METHODS:
            cls = getattr(sys.modules[mod_name], cls_name)
            orig = cls.__dict__[attr]
            if isinstance(orig, classmethod):
                wrapped = classmethod(self.wrap(name, orig.__func__))
            else:
                wrapped = self.wrap(name, orig)
            setattr(cls, attr, wrapped)
            self._patches.append((cls, attr, orig))

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- output --------------------------------------------------------
    def dump(self, path):
        with open(path, "w") as f:
            json.dump({"pid": self.pid, "spans": self.spans,
                       "kernel_calls": self.kernel_calls}, f)

    def load_worker_spans(self):
        """Span sets written by forked workers, one per process."""
        out = []
        for path in sorted(glob.glob(os.path.join(self.out_dir,
                                                  "spans-*.json"))):
            with open(path) as f:
                out.append(json.load(f))
        return out


def summarize(span_sets):
    """Per-name calls, busy seconds and self seconds, summed over processes.

    Busy time counts a span only when no ancestor has the same name, so a
    name never counts an interval twice.  Self time is a span's duration
    minus its direct children's.
    """
    calls = defaultdict(int)
    busy = defaultdict(float)
    self_s = defaultdict(float)
    for spans in span_sets:
        child = [0.0] * len(spans)
        for name, start, end, parent, nested in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, parent, nested) in enumerate(spans):
            calls[name] += 1
            if not nested:
                busy[name] += end - start
            self_s[name] += end - start - child[i]
    return {name: {"calls": calls[name], "s": busy[name],
                   "self_s": self_s[name]} for name in calls}


def kernel_table(span_sets, kernel_sets):
    """Rows of (kernel and shape, calls, ms per call, computed GF/s)."""
    acc = defaultdict(lambda: [0, 0.0, 0.0])
    for spans, kernel_calls in zip(span_sets, kernel_sets):
        for idx, key, ops in kernel_calls:
            _, start, end, _, _ = spans[idx]
            row = acc[key]
            row[0] += 1
            row[1] += end - start
            row[2] += ops
    rows = []
    for key in sorted(acc):
        n, secs, ops = acc[key]
        rows.append({"kernel": key, "calls": n,
                     "ms_per_call": 1e3 * secs / n,
                     "gflop_per_s": ops / secs / 1e9 if secs > 0 else 0.0,
                     "gflop": ops / 1e9})
    return rows


def total_ops(span_sets, kernel_sets, span_name):
    total = 0.0
    for spans, kernel_calls in zip(span_sets, kernel_sets):
        total += sum(ops for idx, _, ops in kernel_calls
                     if spans[idx][0] == span_name)
    return total
