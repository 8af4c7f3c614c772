"""Staged training, evaluation, and ablation orchestration.

Training follows a fixed stage order (synthesis, registration,
reconstruction) with freeze-and-advance semantics: a stage trains only
its own networks while all earlier stages' parameters are loaded from
finalised checkpoints, switched to inference mode, and never updated.

A training run or an evaluation prepares each split it reads once, as
a record table: each per-record array stacked in split order into one
[N, ...] array.  A finalised stage's output is a constant for every
later stage, so add_stage_outputs runs each frozen stage once over a
whole table and adds its output as a column; every later stage's
inputs are columns of that table, and every batch is taken from them
by row index.

Contrast modes change the reconstruction input and which stages exist:

    single  reconstruct from the undersampled target alone (stages 1-2
            are bypassed; reference data is never read)
    concat  reconstruct from [moved reference, undersampled target]
            (stages 1-2 bypassed; no synthesis or registration)
    fused   full chain: synthesise the target contrast from the moved
            reference, rigidly register it to the zero-filled target,
            and reconstruct from [registered synthetic, undersampled]

Domain modes select the image branch, the k-space branch, or both
(each stage then carries the paired networks and the cross-domain
losses).  Both branches run the same stage code; one per-branch table,
_BRANCHES, holds all that differs between them: the record fields of a
branch's inputs and its maps to image space and to k-space.

Under dual the two branches run at once (_per_branch, _in_threads), one
OpenBLAS thread each: every forward-only pass, and each synthesis and
reconstruction training or validation step, whose forward passes run
at once, then the loss head that joins them, then the branches'
backward passes at once (backward_split).  Each branch owns its nets,
so the threads write disjoint state and outputs stay byte-identical to
a sequential run.  Registration trains its branches one after the
other: one RegNet serves both.

Stage training fixes to the acquisition the networks will see at
inference (moved reference, zero-filled fixed image) while the losses
compare against motion-free ground truth; the synthesis stage itself
trains on aligned pairs since it learns a pixelwise contrast map and
the moved input is handled by equivariance.
"""

import csv
import hashlib
import json
import os
import resource
import time
from dataclasses import dataclass, asdict, replace

import numpy as np

from .acquisition import data_consistency_channels, make_mask
from .datagen import Dataset
from .diffcore import (AdamState, ParamSet, Tensor, adam_step,
                       backward_split, warp_rigid)
from .errors import (CheckpointIntegrityError, NonFiniteLossError,
                     StageOrderError, TruncatedFileError, ValidationError)
from .evalkit import metrics as _metrics
from .fourier import (fft2c_channels, fft2c_stack, ifft2c_channels,
                      ifft2c_stack)
from .kernels import blas_threads, set_blas_threads, steady_heap
from .models import (ReconNet, ReconNetConfig, RegNet, RegNetConfig,
                     SynthNet, SynthNetConfig, register_refined)
from .objectives import (DOMAIN_MODES, IMAGE_LOSS_KINDS, STAGES,
                         LossWeights, stage_loss)

CONTRAST_MODES = ("single", "concat", "fused")
CHECKPOINT_VERSION = 2


@dataclass
class StagePlan:
    """Everything that defines one training run besides the dataset.
    All stages share batch_size, lr and patience; max_epochs maps each
    stage to its epochs.  The defaults live only in config.SCHEMA."""

    contrast_mode: str
    domain_mode: str
    image_loss: str
    weights: LossWeights
    accel: int
    mask_seed: int
    n_center: int
    sigma_frac: float
    image_size: int
    base_channels: int
    depth: int
    reg_channels: tuple
    reg_fc_hidden: int
    reg_refine_iters: int
    batch_size: int
    lr: float
    patience: int
    max_epochs: dict

    def validate(self):
        if self.contrast_mode not in CONTRAST_MODES:
            raise ValidationError("unknown contrast mode %r, expected one "
                                  "of %s" % (self.contrast_mode,
                                             ", ".join(CONTRAST_MODES)))
        if self.domain_mode not in DOMAIN_MODES:
            raise ValidationError("unknown domain mode %r, expected one of "
                                  "%s" % (self.domain_mode,
                                          ", ".join(DOMAIN_MODES)))
        if self.image_loss not in IMAGE_LOSS_KINDS:
            raise ValidationError("unknown image loss %r" % self.image_loss)
        if self.reg_refine_iters < 1:
            raise ValidationError("reg_refine_iters must be >= 1, got %r"
                                  % self.reg_refine_iters)
        if self.image_size < 16 or self.image_size % 16:
            raise ValidationError("image_size must be a multiple of 16 so "
                                  "the registration pools land evenly, got "
                                  "%r" % self.image_size)
        if self.depth < 2 or self.image_size % 2 ** (self.depth - 1):
            raise ValidationError("need depth >= 2 with 2 ** (depth - 1) "
                                  "dividing image_size, got %r" % self.depth)
        if min(self.base_channels, self.reg_fc_hidden,
               *self.reg_channels) < 1:
            raise ValidationError(
                "need base_channels, every reg_channels entry and "
                "reg_fc_hidden >= 1, got %r, %r, %r"
                % (self.base_channels, list(self.reg_channels),
                   self.reg_fc_hidden))
        if (self.batch_size < 1 or not self.lr > 0 or self.patience < 0
                or any(self.max_epochs.get(s, 0) < 1 for s in STAGES)):
            raise ValidationError(
                "need batch_size >= 1, lr > 0, patience >= 0 and max_epochs "
                ">= 1 for each of %s, got %r, %r, %r, %r"
                % (", ".join(STAGES), self.batch_size, self.lr,
                   self.patience, self.max_epochs))
        # the acquisition's own checks: acceleration and the row budget
        make_mask(self.image_size, self.accel, n_center=self.n_center,
                  sigma_frac=self.sigma_frac, seed=self.mask_seed)

    def required_stages(self):
        """Stages this contrast mode actually trains, in order."""
        if self.contrast_mode in ("single", "concat"):
            return ("reconstruction",)
        return STAGES

    def branches(self):
        if self.domain_mode == "dual":
            return ("image", "kspace")
        return (self.domain_mode,)

    def recon_in_channels(self):
        return 2 if self.contrast_mode == "single" else 4

    def to_dict(self):
        """The plan as checkpoint headers hold it, weights flattened."""
        d = asdict(self)
        d.update(d.pop("weights"))
        d["reg_channels"] = list(self.reg_channels)
        return d


@dataclass
class Checkpoint:
    """One finalised (or in-flight) stage result."""

    stage: str
    param_sets: dict
    config: dict
    seed: int
    val_history: list
    finalised: bool

    def save(self, path):
        blobs = {n: p.to_bytes() for n, p in sorted(self.param_sets.items())}
        header = {
            "format_version": CHECKPOINT_VERSION,
            "stage": self.stage,
            "config": self.config,
            "seed": self.seed,
            "val_history": self.val_history,
            "finalised": self.finalised,
            "param_hashes": {n: hashlib.sha256(b).hexdigest()
                             for n, b in blobs.items()},
            "nets": list(blobs),
        }
        tmp = path + ".tmp"
        with open(tmp, "wb") as f:
            f.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
            f.writelines(blobs.values())
        os.replace(tmp, path)

    @classmethod
    def load(cls, path):
        with open(path, "rb") as f:
            buf = f.read()
        nl = buf.find(b"\n")
        if nl < 0:
            raise CheckpointIntegrityError("no header line in %s" % path)
        try:
            header = dict(json.loads(buf[:nl].decode("utf-8")))
        except (ValueError, TypeError) as e:
            raise CheckpointIntegrityError("unreadable header in %s: %s"
                                           % (path, e)) from e
        if header.get("format_version") != CHECKPOINT_VERSION:
            raise CheckpointIntegrityError(
                "checkpoint version %r, expected %d"
                % (header.get("format_version"), CHECKPOINT_VERSION))
        try:
            ck = cls(param_sets={}, **{k: header[k] for k in (
                "stage", "config", "seed", "val_history", "finalised")})
            hashes = header["param_hashes"]
            names = header["nets"]
        except KeyError as e:
            raise CheckpointIntegrityError("header of %s lacks field %s"
                                           % (path, e)) from e
        if not isinstance(hashes, dict):
            raise CheckpointIntegrityError(
                "param_hashes in %s is %r, not an object" % (path, hashes))
        if not (isinstance(names, list)
                and all(isinstance(n, str) for n in names)):
            raise CheckpointIntegrityError(
                "nets in %s is %r, not a list of names" % (path, names))
        offset = nl + 1
        for name in names:
            start = offset
            ck.param_sets[name], offset = ParamSet.from_bytes(buf, offset)
            if hashes.get(name) != hashlib.sha256(
                    buf[start:offset]).hexdigest():
                raise CheckpointIntegrityError(
                    "parameter hash mismatch for %r in %s" % (name, path))
        if offset != len(buf):
            raise TruncatedFileError("%d trailing bytes in %s"
                                     % (len(buf) - offset, path))
        return ck


class RunLog:
    """CSV logs of training steps and validation epochs, plus a run
    summary JSON.

    Opening a log for the stages a call trains drops those stages' rows
    left by an earlier run in the same directory and keeps every other
    stage's rows, so a rerun rewrites its own rows instead of appending
    duplicates.  Loss values land in deterministic CSVs; wall-clock time,
    the process's peak RSS and the minor page faults since the log was
    opened go only into run.json so reruns stay byte-comparable on the
    CSVs.
    """

    STEP_COLUMNS = ("step", "stage", "mode", "L_i", "L_k", "L_ik", "L_ki",
                    "total")
    EPOCH_COLUMNS = ("stage", "epoch", "val_loss")

    def __init__(self, out_dir, stages=STAGES):
        os.makedirs(out_dir, exist_ok=True)
        self.out_dir = out_dir
        self.step_path = os.path.join(out_dir, "train_steps.csv")
        self.epoch_path = os.path.join(out_dir, "val_epochs.csv")
        self._t0 = time.time()
        self._faults0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for path, columns in ((self.step_path, self.STEP_COLUMNS),
                              (self.epoch_path, self.EPOCH_COLUMNS)):
            col = columns.index("stage")
            rows = []
            if os.path.exists(path):
                with open(path, newline="") as f:
                    rows = [row for row in list(csv.reader(f))[1:]
                            if row[col] not in stages]
            with open(path, "w", newline="") as f:
                csv.writer(f).writerows([columns] + rows)

    @staticmethod
    def _fmt(v):
        return "" if v is None else "%.8e" % v

    def log_step(self, step, report):
        c = report.components
        with open(self.step_path, "a", newline="") as f:
            csv.writer(f).writerow(
                (step, report.stage, report.domain_mode,
                 self._fmt(c["image"]), self._fmt(c["kspace"]),
                 self._fmt(c["cross_ik"]), self._fmt(c["cross_ki"]),
                 self._fmt(report.total)))

    def log_epoch(self, stage, epoch, val_loss):
        with open(self.epoch_path, "a", newline="") as f:
            csv.writer(f).writerow((stage, epoch, self._fmt(val_loss)))

    def finish(self, seed, config):
        usage = resource.getrusage(resource.RUSAGE_SELF)
        payload = {"seed": seed, "config": config,
                   "wall_clock_s": time.time() - self._t0,
                   # ru_maxrss is in KB on Linux
                   "peak_rss_mb": usage.ru_maxrss / 1024.0,
                   "minor_page_faults": usage.ru_minflt - self._faults0}
        with open(os.path.join(self.out_dir, "run.json"), "w") as f:
            json.dump(payload, f, sort_keys=True, indent=1)


def _sub_seed(root, record_id):
    return int(np.random.SeedSequence([root, record_id]).generate_state(1)[0])


@dataclass
class _RecordTensors:
    """Constant per-record arrays ([2, H, W] float32 channel stacks)."""

    brain_mask: np.ndarray
    mask: object
    plane: np.ndarray          # [1, H, 1]
    x_tgt: np.ndarray
    k_tgt: np.ndarray
    y_u: np.ndarray
    x_u: np.ndarray
    x_ref_al: np.ndarray = None
    k_ref_al: np.ndarray = None
    x_ref_mv: np.ndarray = None
    k_ref_mv: np.ndarray = None


def _split_records(dataset, split, plan):
    """A split's records, refused if empty or sized unlike the plan."""
    recs = dataset.split(split)
    if not recs:
        raise ValidationError("split %r is empty" % split)
    for rec in recs:
        h = rec.brain_mask.shape[0]
        if h != plan.image_size:
            raise ValidationError("record %d is %d px but the plan expects %d"
                                  % (rec.record_id, h, plan.image_size))
    return recs


def prepare_record(rec, plan):
    """Build the constant tensors one record contributes to training."""
    h = rec.brain_mask.shape[0]
    mask = make_mask(h, plan.accel, n_center=plan.n_center,
                     sigma_frac=plan.sigma_frac,
                     seed=_sub_seed(plan.mask_seed, rec.record_id))
    plane = mask.plane(np.float32)[None]          # [1, H, 1]
    x_tgt = rec.tgt.channels()
    k_tgt = fft2c_stack(x_tgt)
    y_u = k_tgt * plane
    x_u = ifft2c_stack(y_u)
    rt = _RecordTensors(brain_mask=rec.brain_mask, mask=mask, plane=plane,
                        x_tgt=x_tgt, k_tgt=k_tgt, y_u=y_u, x_u=x_u)
    if plan.contrast_mode != "single":
        rt.x_ref_al = rec.ref_aligned.channels()
        rt.k_ref_al = fft2c_stack(rt.x_ref_al)
        rt.x_ref_mv = rec.ref_moved.channels()
        rt.k_ref_mv = fft2c_stack(rt.x_ref_mv)
    return rt


def _record_table(recs, plan):
    """A split's record table: each array field of prepare_record,
    stacked over the records in split order into one [N, ...] array."""
    rts = [prepare_record(r, plan) for r in recs]
    return {name: np.stack([getattr(rt, name) for rt in rts])
            for name, v in vars(rts[0]).items()
            if isinstance(v, np.ndarray)}


def _identity(x):
    return x


@dataclass(frozen=True)
class _Branch:
    """One branch's domain: the _RecordTensors fields holding its inputs
    and its ground truth in that domain, and its maps to image space
    (where registration warps) and to k-space (where data consistency
    acts)."""

    ref_aligned: str
    ref_moved: str
    undersampled: str
    target: str
    to_image: object        # array: branch domain -> image space
    from_image: object      # array: image space -> branch domain
    from_image_t: object    # tensor: image space -> branch domain
    to_kspace_t: object     # tensor: branch domain -> k-space
    from_kspace_t: object   # tensor: k-space -> branch domain


_BRANCHES = {
    "image": _Branch("x_ref_al", "x_ref_mv", "x_u", "x_tgt",
                     _identity, _identity, _identity,
                     fft2c_channels, ifft2c_channels),
    "kspace": _Branch("k_ref_al", "k_ref_mv", "y_u", "k_tgt",
                      ifft2c_stack, fft2c_stack, fft2c_channels,
                      _identity, _identity),
}


def _net_names(stage, plan):
    if stage == "synthesis":
        return tuple("synth_" + b for b in plan.branches())
    if stage == "registration":
        return ("registration",)
    return tuple("recon_" + b for b in plan.branches())


def _build_net(name, plan, params=None, rng=None):
    if name.startswith("synth"):
        return SynthNet(SynthNetConfig(base_channels=plan.base_channels,
                                       depth=plan.depth),
                        params=params, rng=rng)
    if name == "registration":
        return RegNet(RegNetConfig(in_size=plan.image_size,
                                   channels=plan.reg_channels,
                                   fc_hidden=plan.reg_fc_hidden),
                      params=params, rng=rng)
    return ReconNet(ReconNetConfig(in_channels=plan.recon_in_channels(),
                                   base_channels=plan.base_channels,
                                   depth=plan.depth),
                    params=params, rng=rng)


def _freeze_params(ps):
    for _, t in ps.items():
        t.requires_grad = False
        t.grad = None


def _nets_from_checkpoints(plan, checkpoints, stages_needed):
    """Inference-mode networks for already-finalised stages; their
    parameters are marked non-trainable so no graph builds behind them."""
    nets = {}
    for s in stages_needed:
        ck = checkpoints[s]
        for name in _net_names(s, plan):
            if name not in ck.param_sets:
                raise CheckpointIntegrityError(
                    "checkpoint for %r lacks parameters for %r" % (s, name))
            ps = ck.param_sets[name]
            _freeze_params(ps)
            nets[name] = _build_net(name, plan, params=ps).eval_mode()
    return nets


# rows per forward pass when a frozen or evaluated net runs over a split
_CHUNK = 16


def _batched(rows, size):
    for i in range(0, len(rows), size):
        yield rows[i:i + size]


def _take(arrays, rows):
    return {n: a[rows] for n, a in arrays.items()}


def _apply_chunked(fn, *arrays):
    parts = [fn(*(a[i:i + _CHUNK] for a in arrays))
             for i in range(0, len(arrays[0]), _CHUNK)]
    return np.concatenate(parts) if len(parts) > 1 else parts[0]


def _frozen_synth(net, x):
    return _apply_chunked(lambda a: net(Tensor(a)).data, x)


def _in_threads(jobs):
    """The results of zero-argument callables, in order.

    The calling thread runs the first job and a pool thread each other
    one, all at once, with OpenBLAS held at one thread so they share the
    cores instead of oversubscribing them; a single job runs alone, BLAS
    untouched.  The caller takes a job itself so that its heap stays
    warm for the work it does alone between calls, such as training
    registration; with every job in a pool thread, that work pays page
    faults for memory the pool threads' heaps now hold.  (Under the
    CLI's heap policy, kernels.steady_heap, the pool thread of each
    call reuses the one other arena.)  The pool lives
    only for this call and joins its threads before it returns or
    raises, so no thread outlives it into a forked ablation worker, and
    an error raised in a job reaches the caller.
    """
    if len(jobs) == 1:
        return [jobs[0]()]
    # imported here, as the process pool is, to keep the import light
    from concurrent.futures import ThreadPoolExecutor
    with blas_threads(1), ThreadPoolExecutor(len(jobs) - 1) as pool:
        rest = [pool.submit(job) for job in jobs[1:]]
        first = jobs[0]()
        return [first] + [f.result() for f in rest]


def _per_branch(plan, fn):
    """{branch: fn(branch)} for the plan's branches, through _in_threads,
    so under dual the two calls run at once.  fn may read shared state
    but write only its own branch's nets' state (such as batchnorm
    running statistics); it returns its result and the caller stores
    it."""
    branches = plan.branches()
    return dict(zip(branches, _in_threads([lambda b=b: fn(b)
                                           for b in branches])))


def add_stage_outputs(stage, plan, nets, table):
    """Add a finalised stage's output to a split's record table.

    `nets` holds the stage's frozen networks and `table` the split's
    record table, with the outputs of the earlier stages already added.
    After synthesis, syn_<branch> is the frozen synthesis of the moved
    reference; after registration, prior_<branch> is that image
    registered to x_u.  Both are [N, 2, H, W] arrays in image space.
    """
    if stage == "synthesis":
        column = "syn_"

        def output(b):
            br = _BRANCHES[b]
            return br.to_image(_frozen_synth(nets["synth_" + b],
                                             table[br.ref_moved]))
    elif stage == "registration":
        column = "prior_"

        def output(b):
            return _apply_chunked(
                lambda m, f: register_refined(nets["registration"], m, f,
                                              plan.reg_refine_iters)[1],
                table["syn_" + b], table["x_u"])
    else:
        return
    for b, out in _per_branch(plan, output).items():
        table[column + b] = out


def compute_stage_inputs(stage, plan, table):
    """A stage's input arrays for one split, selected from its table.

    `table` is the split's record table, holding the outputs of every
    earlier required stage (add_stage_outputs).  Returns {name: [N,
    ...] array} with row i built from the split's i-th record.  Every
    stage gets gt_<branch>, the branch's motion-free target, for the
    plan's branches only.
    """
    out = {}
    for b in plan.branches():
        br = _BRANCHES[b]
        out["gt_" + b] = table[br.target]
        if stage == "synthesis":
            out["in_" + b] = table[br.ref_aligned]
        elif stage == "registration":
            out["mov_" + b] = table["syn_" + b]
        elif plan.contrast_mode == "single":
            out["in_" + b] = table[br.undersampled]
        else:
            ref = (table[br.ref_moved] if plan.contrast_mode == "concat"
                   else br.from_image(table["prior_" + b]))
            out["in_" + b] = np.concatenate([ref, table[br.undersampled]],
                                            axis=1)
    if stage == "registration":
        out["x_u"] = table["x_u"]
    elif stage != "synthesis":
        out["y_u"] = table["y_u"]
        out["plane"] = table["plane"]
    return out


def forward_stage(stage, plan, nets, batch):
    """Run the trained stage's networks on one batch.

    Returns the outputs dict that stage_loss consumes ([N, 2, H, W]
    re/im channel tensors per active branch).
    """
    if stage not in STAGES:
        raise ValidationError("unknown stage %r, expected one of %s"
                              % (stage, ", ".join(STAGES)))
    if stage == "registration":
        # one RegNet serves both branches, and its batchnorm running
        # statistics update in call order
        return {b: _forward_branch(stage, b, nets, batch)
                for b in plan.branches()}
    return _per_branch(plan, lambda b: _forward_branch(stage, b, nets, batch))


def _forward_branch(stage, b, nets, batch):
    """forward_stage's output for branch b."""
    br = _BRANCHES[b]
    if stage == "synthesis":
        return nets["synth_" + b](Tensor(batch["in_" + b]))
    if stage == "registration":
        mov = Tensor(batch["mov_" + b])
        g = nets["registration"](mov, Tensor(batch["x_u"]))
        return br.from_image_t(warp_rigid(mov, g))
    # data consistency acts in k-space; the image branch round-trips its
    # estimate through k-space for it
    est = nets["recon_" + b](Tensor(batch["in_" + b]))
    return br.from_kspace_t(data_consistency_channels(
        br.to_kspace_t(est), batch["y_u"], batch["plane"]))


def _batch_loss(stage, plan, nets, batch):
    """forward_stage's outputs on one batch and their StageLossReport."""
    outputs = forward_stage(stage, plan, nets, batch)
    gt = {b: Tensor(batch["gt_" + b]) for b in plan.branches()}
    return outputs, stage_loss(stage, outputs, gt, plan.weights,
                               domain_mode=plan.domain_mode,
                               image_loss=plan.image_loss)


def _n_rows(arrays):
    return len(next(iter(arrays.values())))


def _validation_loss(stage, plan, nets, stage_in):
    for net in nets.values():
        net.eval_mode()
    n = _n_rows(stage_in)
    total = 0.0
    for rows in _batched(np.arange(n), plan.batch_size):
        _, rep = _batch_loss(stage, plan, nets, _take(stage_in, rows))
        total += rep.total * len(rows)
    for net in nets.values():
        net.train_mode()
    return total / n


def _snapshot(param_sets):
    return {name: {n: t.data.copy() for n, t in ps.items()}
            for name, ps in param_sets.items()}


def _restore(param_sets, snap):
    for name, ps in param_sets.items():
        for n, t in ps.items():
            t.data[...] = snap[name][n]


def _check_checkpoints(stages, plan, checkpoints, needed_by):
    """Each of `stages` must have a finalised checkpoint, trained as that
    stage under this plan."""
    for s in stages:
        ck = checkpoints.get(s) if checkpoints else None
        if ck is None:
            raise StageOrderError(
                "%s requires a finalised %r checkpoint; %r has not been "
                "trained" % (needed_by, s, s))
        if not ck.finalised:
            raise CheckpointIntegrityError(
                "checkpoint for stage %r is not finalised; rerun it to "
                "completion before %s" % (s, needed_by))
        if ck.stage != s:
            raise CheckpointIntegrityError(
                "checkpoint supplied for %r was trained as %r" % (s, ck.stage))
        if ck.config != plan.to_dict():
            raise CheckpointIntegrityError(
                "checkpoint for %r was trained under a different plan; "
                "regenerate the chain with one config" % s)


def check_stage_order(stage, plan, checkpoints):
    """Freeze-and-advance gate: every earlier required stage must have a
    finalised checkpoint whose config matches the plan."""
    if stage not in STAGES:
        raise ValidationError("unknown stage %r, expected one of %s"
                              % (stage, ", ".join(STAGES)))
    required = plan.required_stages()
    if stage not in required:
        raise StageOrderError(
            "stage %r is bypassed under contrast mode %r; train %s instead"
            % (stage, plan.contrast_mode, " -> ".join(required)))
    prior = required[:required.index(stage)]
    _check_checkpoints(prior, plan, checkpoints, "stage %r" % stage)
    return prior


def _check_finite(loss, kind, stage, epoch, step):
    if not np.isfinite(loss):
        raise NonFiniteLossError("stage %r, epoch %d, step %d: %s loss is %r"
                                 % (stage, epoch, step, kind, loss))


def train_stage(stage, tables, plan, seed, out_dir, run_log):
    """Train one stage against frozen predecessors; returns its
    Checkpoint, finalised with the best-validation parameters.

    `tables` holds the "train" and "val" record tables with the outputs
    of every earlier required stage added; train_stages has checked the
    stage order.  Initialisation and epoch shuffles derive from `seed`.
    The checkpoint lands in `out_dir` as <stage>.ckpt unless it is None;
    steps and epochs go to `run_log` unless it is None.  Raises
    NonFiniteLossError, and writes no checkpoint, when a step's or an
    epoch's validation loss is not finite.
    """
    stage_idx = STAGES.index(stage)
    train_in = compute_stage_inputs(stage, plan, tables["train"])
    val_in = compute_stage_inputs(stage, plan, tables["val"])

    nets = {}
    for k, name in enumerate(_net_names(stage, plan)):
        rng = np.random.default_rng(
            np.random.SeedSequence([seed, stage_idx, k]))
        nets[name] = _build_net(name, plan, rng=rng).train_mode()
    opt = [(nets[n].params, AdamState.create(nets[n].params, plan.lr))
           for n in nets]

    param_sets = {n: nets[n].params for n in nets}
    best_snap = _snapshot(param_sets)
    best_val = np.inf
    epochs_since_best = 0
    history = []
    step = 0
    for epoch in range(plan.max_epochs[stage]):
        rng = np.random.default_rng(
            np.random.SeedSequence([seed, stage_idx, epoch, 7]))
        for rows in _batched(rng.permutation(_n_rows(train_in)),
                             plan.batch_size):
            for ps, _ in opt:
                ps.zero_grads()
            outputs, rep = _batch_loss(stage, plan, nets,
                                       _take(train_in, rows))
            _check_finite(rep.total, "training", stage, epoch, step)
            if stage == "registration":
                # one RegNet serves both branches
                rep.total_node.backward()
            else:
                backward_split(rep.total_node, list(outputs.values()),
                               _in_threads)
            for ps, st in opt:
                adam_step(ps, st)
            if run_log is not None:
                run_log.log_step(step, rep)
            step += 1
        val_loss = _validation_loss(stage, plan, nets, val_in)
        _check_finite(val_loss, "validation", stage, epoch, step - 1)
        history.append(val_loss)
        if run_log is not None:
            run_log.log_epoch(stage, epoch, val_loss)
        if val_loss < best_val:
            best_val = val_loss
            best_snap = _snapshot(param_sets)
            epochs_since_best = 0
        else:
            epochs_since_best += 1
            if epochs_since_best >= plan.patience:
                break
    _restore(param_sets, best_snap)

    ck = Checkpoint(stage=stage, param_sets=param_sets,
                    config=plan.to_dict(), seed=seed, val_history=history,
                    finalised=True)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        ck.save(os.path.join(out_dir, stage + ".ckpt"))
    return ck


def check_training(stages, dataset, plan, checkpoints):
    """Every check that can refuse train_stages, run before it writes
    anything.  Returns (prior stages, {split: records})."""
    plan.validate()
    prior = check_stage_order(stages[0], plan, checkpoints)
    return prior, {split: _split_records(dataset, split, plan)
                   for split in ("train", "val")}


def train_stages(stages, dataset, plan, checkpoints, seed, out_dir, run_log):
    """Train `stages`, consecutive required stages, in order.

    `checkpoints` holds the finalised stages required before
    stages[0].  The train and val splits are prepared once; each
    finalised stage's outputs are added to them once, and every later
    stage reads its inputs from them.  Arguments otherwise as for
    train_stage.  Returns {stage: Checkpoint} for the stages trained.
    """
    prior, recs = check_training(stages, dataset, plan, checkpoints)
    tables = {split: _record_table(r, plan) for split, r in recs.items()}
    checkpoints = dict(checkpoints)
    trained = {}
    for stage in prior + tuple(stages):
        if stage in stages:
            checkpoints[stage] = trained[stage] = train_stage(
                stage, tables, plan, seed, out_dir, run_log)
        if stage != stages[-1]:
            nets = _nets_from_checkpoints(plan, checkpoints, (stage,))
            for table in tables.values():
                add_stage_outputs(stage, plan, nets, table)
    return trained


def _mag(ch):
    """Magnitudes of [..., 2, H, W] re/im channel stacks."""
    return np.hypot(ch[..., 0, :, :], ch[..., 1, :, :])


@dataclass
class EvalResult:
    split: str
    per_record: list
    aggregates: dict
    outputs: list = None

    def aggregate_rows(self, plan):
        rows = []
        for (stage, branch), agg in sorted(self.aggregates.items(),
                                           key=lambda kv: (STAGES.index(
                                               kv[0][0]), kv[0][1])):
            rows.append({"cell": cell_name(plan),
                         "domain_mode": plan.domain_mode,
                         "contrast_mode": plan.contrast_mode,
                         "accel": plan.accel,
                         "stage": stage, "branch": branch,
                         "psnr_mean": agg["psnr_mean"],
                         "psnr_std": agg["psnr_std"],
                         "ssim_mean": agg["ssim_mean"],
                         "ssim_std": agg["ssim_std"],
                         "n": agg["n"]})
        return rows

    def summary_row(self, plan):
        row = {"cell": cell_name(plan), "domain_mode": plan.domain_mode,
               "contrast_mode": plan.contrast_mode, "accel": plan.accel,
               "psnr_image": None, "ssim_image": None,
               "psnr_kspace": None, "ssim_kspace": None}
        for branch in plan.branches():
            agg = self.aggregates.get(("reconstruction", branch))
            if agg is not None:
                row["psnr_" + branch] = agg["psnr_mean"]
                row["ssim_" + branch] = agg["ssim_mean"]
        return row


def evaluate(checkpoints, dataset, split, plan, with_outputs=False):
    """Metrics for every stage that exists under the plan's modes.

    The final row per branch is the reconstruction after data
    consistency; in fused mode the synthesis and registration stages
    are also scored against the motion-free target.  Returns an
    EvalResult with per-record rows and per-(stage, branch) aggregates.
    """
    plan.validate()
    required = plan.required_stages()
    _check_checkpoints(required, plan, checkpoints, "evaluation")
    recs = _split_records(dataset, split, plan)
    nets = _nets_from_checkpoints(plan, checkpoints, required)
    table = _record_table(recs, plan)
    for stage in required[:-1]:
        add_stage_outputs(stage, plan, nets, table)
    branches = plan.branches()
    recon_in = compute_stage_inputs("reconstruction", plan, table)
    target = _mag(table["x_tgt"])

    def score(b):
        """Branch b's stage -> [N, H, W] magnitudes of its image-space
        estimates, in split order, and stage -> their metrics."""
        br = _BRANCHES[b]
        estimates = {}
        if plan.contrast_mode == "fused":
            estimates["synthesis"] = br.to_image(_frozen_synth(
                nets["synth_" + b], table[br.ref_aligned]))
            estimates["registration"] = table["prior_" + b]
        estimates["reconstruction"] = np.concatenate(
            [br.to_image(_forward_branch("reconstruction", b, nets,
                                         _take(recon_in, rows)).data)
             for rows in _batched(np.arange(len(recs)), _CHUNK)])
        mags = {s: _mag(est) for s, est in estimates.items()}
        return mags, {s: _metrics(m, target, table["brain_mask"])
                      for s, m in mags.items()}

    # branch -> (its magnitudes, its metrics)
    scored = _per_branch(plan, score)

    per_record = []
    aggregates = {}
    for stage in required:
        for b in branches:
            ms = scored[b][1][stage]
            for rec, m in zip(recs, ms):
                per_record.append({"record_id": rec.record_id,
                                   "stage": stage, "branch": b,
                                   "psnr": m.psnr, "ssim": m.ssim,
                                   "n_pixels": m.n_pixels})
            agg = {"n": len(ms)}
            for k in ("psnr", "ssim"):
                v = np.array([getattr(m, k) for m in ms], dtype=np.float64)
                agg[k + "_mean"] = float(v.mean())
                agg[k + "_std"] = float(v.std())
            aggregates[stage, b] = agg

    outputs = None
    if with_outputs:
        # panels show the first branch; under dual the k-space branch's
        # reconstruction joins them as recon_kspace
        zero_filled = _mag(table["x_u"])
        outputs = []
        for i in range(len(recs)):
            panels = {"zero_filled": zero_filled[i]}
            for stage in required:
                panels[stage] = scored[branches[0]][0][stage][i]
            for b in branches[1:]:
                panels["recon_" + b] = scored[b][0]["reconstruction"][i]
            outputs.append(panels)
    return EvalResult(split=split, per_record=per_record,
                      aggregates=aggregates, outputs=outputs)


RECORD_METRIC_COLUMNS = ("record_id", "stage", "branch", "psnr", "ssim",
                         "n_pixels")
AGGREGATE_COLUMNS = ("cell", "domain_mode", "contrast_mode", "accel",
                     "stage", "branch", "psnr_mean", "psnr_std",
                     "ssim_mean", "ssim_std", "n")
SUMMARY_COLUMNS = ("cell", "domain_mode", "contrast_mode", "accel",
                   "psnr_image", "ssim_image", "psnr_kspace", "ssim_kspace")


def _fmt_cell(v):
    if v is None:
        return ""
    if isinstance(v, float):
        return "%.6f" % v
    return v


def write_csv(path, columns, rows):
    """Rows are dicts; floats serialise at fixed precision so reruns
    produce byte-identical files."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(columns)
        for row in rows:
            w.writerow([_fmt_cell(row[c]) for c in columns])


def cell_name(plan):
    return "%s-%s-%dx" % (plan.contrast_mode, plan.domain_mode, plan.accel)


def cell_plans(base_plan, cells):
    """One validated plan per (contrast_mode, domain_mode, accel) cell:
    base_plan with the cell's modes and acceleration."""
    if not cells:
        raise ValidationError("ablation grid is empty")
    if len(set(cells)) != len(cells):
        raise ValidationError("ablation grid contains duplicate cells")
    plans = [replace(base_plan, contrast_mode=cm, domain_mode=dm, accel=ac)
             for cm, dm, ac in cells]
    for plan in plans:
        plan.validate()
    return plans


def _run_cell(args):
    plan, dataset_root, out_dir, seed, eval_split = args
    cell_dir = os.path.join(out_dir, cell_name(plan))
    os.makedirs(cell_dir, exist_ok=True)
    dataset = Dataset.load(dataset_root)
    run_log = RunLog(cell_dir)
    checkpoints = train_stages(plan.required_stages(), dataset, plan, {},
                               seed, cell_dir, run_log)
    result = evaluate(checkpoints, dataset, eval_split, plan)
    run_log.finish(seed, plan.to_dict())
    agg_rows = result.aggregate_rows(plan)
    write_csv(os.path.join(cell_dir, "metrics.csv"), AGGREGATE_COLUMNS,
              agg_rows)
    write_csv(os.path.join(cell_dir, "records.csv"), RECORD_METRIC_COLUMNS,
              result.per_record)
    return agg_rows, result.summary_row(plan)


def _share_cores(workers):
    """Start an ablation worker with its share of the cores for OpenBLAS,
    which otherwise runs one thread per core in every worker, and with
    the heap policy of the CLI, which a worker not forked from it lacks."""
    steady_heap()
    set_blas_threads(max(1, (os.cpu_count() or 1) // workers))


def run_ablation(plans, dataset_root, out_dir, seed, eval_split, workers):
    """Train and score one pipeline per plan, as cell_plans builds them,
    in up to `workers` processes.  Each cell is self-contained and
    seeded, so results do not depend on the worker count."""
    workers = min(workers, len(plans))
    os.makedirs(out_dir, exist_ok=True)
    jobs = [(plan, dataset_root, out_dir, seed, eval_split) for plan in plans]
    if workers == 1:
        done = [_run_cell(j) for j in jobs]
    else:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers,
                                 initializer=_share_cores,
                                 initargs=(workers,)) as pool:
            done = list(pool.map(_run_cell, jobs))
    all_rows = [row for rows, _ in done for row in rows]
    summaries = [summary for _, summary in done]
    write_csv(os.path.join(out_dir, "metrics.csv"), AGGREGATE_COLUMNS,
              all_rows)
    write_csv(os.path.join(out_dir, "summary.csv"), SUMMARY_COLUMNS,
              summaries)
    return summaries
