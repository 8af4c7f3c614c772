"""Staged training, checkpoints, determinism, and evaluation."""

import copy
import csv
import json
import os
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from ddmc.config import default_config
from ddmc.datagen import Dataset, build_dataset
import ddmc.kernels
import ddmc.pipeline
from ddmc.errors import (CheckpointIntegrityError, MaskBudgetError,
                         NonFiniteLossError, ShapeError, StageOrderError,
                         TruncatedFileError, ValidationError)
from ddmc.evalkit import psnr
from ddmc.models import RegNet, SynthNet
from ddmc.objectives import STAGES, LossWeights
from ddmc.pipeline import (Checkpoint, RunLog, _build_net, _record_table,
                           add_stage_outputs, cell_name, cell_plans,
                           check_stage_order, compute_stage_inputs, evaluate,
                           prepare_record, run_ablation, train_stages)


def tiny_plan(**kw):
    args = dict(contrast_mode="fused", domain_mode="dual", accel=4,
                image_size=32, base_channels=4, depth=2,
                reg_channels=(4, 4), reg_fc_hidden=8, batch_size=2, lr=1e-3,
                patience=2, max_epochs={s: 2 for s in STAGES},
                weights=LossWeights(alpha=1e-2, beta=0.7))
    args.update(kw)
    plan = replace(default_config().stage_plan(), **args)
    plan.validate()
    return plan


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("ds"))
    build_dataset(root, n_train=4, n_val=2, n_test=2, size=32,
                  n_structures=3, seed=5)
    return Dataset.load(root)


def read_rows(path):
    with open(path) as f:
        return list(csv.reader(f))


def train_one(stage, dataset, plan, seed, out_dir=None, run_log=None):
    """Train a stage that needs no earlier checkpoint."""
    return train_stages((stage,), dataset, plan, {}, seed, out_dir,
                        run_log)[stage]


def test_plan_validation():
    with pytest.raises(ValidationError):
        tiny_plan(image_size=24)
    with pytest.raises(ValidationError):
        tiny_plan(contrast_mode="both")
    with pytest.raises(ValidationError):
        tiny_plan(domain_mode="spectral")
    with pytest.raises(ValidationError):
        tiny_plan(accel=0)
    # floor(32/16) = 2 rows cannot cover the 6-row centre block
    with pytest.raises(MaskBudgetError):
        tiny_plan(accel=16)
    with pytest.raises(ValidationError):
        tiny_plan(reg_refine_iters=0)
    for bad in (dict(batch_size=0), dict(lr=0.0), dict(patience=-1),
                dict(max_epochs={"synthesis": 2, "registration": 2}),
                dict(max_epochs={s: 0 for s in STAGES})):
        with pytest.raises(ValidationError):
            tiny_plan(**bad)


def test_required_stages_by_contrast_mode():
    assert tiny_plan().required_stages() == (
        "synthesis", "registration", "reconstruction")
    assert tiny_plan(contrast_mode="concat").required_stages() == (
        "reconstruction",)
    assert tiny_plan(contrast_mode="single").required_stages() == (
        "reconstruction",)


def test_plan_to_dict_is_the_checkpoint_header_form():
    plan = tiny_plan(domain_mode="image", image_loss="magnitude",
                     max_epochs={"synthesis": 3, "registration": 2,
                                 "reconstruction": 4})
    assert plan.to_dict() == {
        "contrast_mode": "fused", "domain_mode": "image",
        "image_loss": "magnitude", "alpha": 1e-2, "beta": 0.7, "accel": 4,
        "mask_seed": 1009, "n_center": 6, "sigma_frac": 0.25,
        "image_size": 32, "base_channels": 4, "depth": 2,
        "reg_channels": [4, 4], "reg_fc_hidden": 8, "reg_refine_iters": 3,
        "batch_size": 2, "lr": 1e-3, "patience": 2,
        "max_epochs": {"synthesis": 3, "registration": 2,
                       "reconstruction": 4}}


def test_out_of_order_raises_and_writes_nothing(dataset, tmp_path,
                                                monkeypatch):
    # the stage order is checked before any record is prepared
    monkeypatch.setattr(ddmc.pipeline, "prepare_record", None)
    out = str(tmp_path / "run")
    with pytest.raises(StageOrderError) as exc:
        train_one("reconstruction", dataset, tiny_plan(), 0, out_dir=out)
    assert "synthesis" in str(exc.value)
    assert not os.path.exists(out) or not os.listdir(out)
    with pytest.raises(StageOrderError):
        train_one("registration", dataset, tiny_plan(), 0, out_dir=out)


def test_bypassed_stage_rejected(dataset, tmp_path):
    plan = tiny_plan(contrast_mode="single")
    with pytest.raises(StageOrderError) as exc:
        train_one("synthesis", dataset, plan, 0,
                  out_dir=str(tmp_path / "run"))
    assert "single" in str(exc.value)


def one_record_table(rec, plan):
    """The record table of a one-record split, built from prepare_record."""
    rt = prepare_record(rec, plan)
    return {name: v[None] for name, v in vars(rt).items()
            if isinstance(v, np.ndarray)}


@pytest.mark.parametrize("stage,contrast_mode", [
    ("synthesis", "fused"), ("registration", "fused"),
    ("reconstruction", "single"), ("reconstruction", "concat"),
    ("reconstruction", "fused")])
def test_stage_input_rows_follow_split_order(dataset, stage, contrast_mode):
    # the test split's ids start past 0, so a row taken by record id
    # instead of split position would be out of range or misplaced
    plan = tiny_plan(contrast_mode=contrast_mode)
    recs = dataset.split("test")
    assert recs[0].record_id > 0
    frozen = {name: _build_net(name, plan, rng=np.random.default_rng(k))
              .eval_mode() for k, name in enumerate(
                  ("synth_image", "synth_kspace", "registration"))}
    # a nonzero last layer, so that registration moves its input
    frozen["registration"].params["fc2.w"].data[...] = 0.01
    required = plan.required_stages()

    def stage_inputs(table):
        for s in required[:required.index(stage)]:
            add_stage_outputs(s, plan, frozen, table)
        return compute_stage_inputs(stage, plan, table)

    stacked = stage_inputs(_record_table(recs, plan))
    assert {"gt_image", "gt_kspace"} <= set(stacked)
    for i, rec in enumerate(recs):
        alone = stage_inputs(one_record_table(rec, plan))
        assert set(alone) == set(stacked)
        for name, rows in stacked.items():
            assert len(rows) == len(recs)
            np.testing.assert_allclose(rows[i], alone[name][0], rtol=0,
                                       atol=1e-6, err_msg=name)
    for name, rows in stacked.items():
        assert not np.array_equal(rows[0], rows[1]), name


@pytest.mark.parametrize("domain_mode", ["image", "kspace"])
def test_single_domain_batches_carry_only_their_own_truth(
        dataset, monkeypatch, domain_mode):
    keys = []
    forward_stage = ddmc.pipeline.forward_stage
    monkeypatch.setattr(ddmc.pipeline, "forward_stage",
                        lambda stage, plan, nets, batch: keys.append(
                            set(batch)) or forward_stage(stage, plan, nets,
                                                         batch))
    plan = tiny_plan(contrast_mode="single", domain_mode=domain_mode)
    train_one("reconstruction", dataset, plan, 0)
    # two training and one validation batch per epoch
    assert len(keys) == 3 * plan.max_epochs["reconstruction"]
    for batch_keys in keys:
        assert {k for k in batch_keys if k.startswith("gt_")} == \
            {"gt_" + domain_mode}


def test_check_stage_order_prior_quality(dataset):
    plan = tiny_plan()
    ck = train_one("synthesis", dataset, plan, 1)
    # non-finalised prior
    broken = copy.copy(ck)
    broken.finalised = False
    with pytest.raises(CheckpointIntegrityError):
        check_stage_order("registration", plan, {"synthesis": broken})
    # config mismatch
    other = copy.copy(ck)
    other.config = tiny_plan(base_channels=8).to_dict()
    with pytest.raises(CheckpointIntegrityError):
        check_stage_order("registration", plan, {"synthesis": other})
    # the real thing passes
    check_stage_order("registration", plan, {"synthesis": ck})


def test_full_chain_and_freeze_invariance(dataset, tmp_path):
    out = str(tmp_path / "run")
    plan = tiny_plan()
    cks = train_stages(STAGES, dataset, plan, {}, 3, out, None)
    assert set(cks) == {"synthesis", "registration", "reconstruction"}
    for stage, ck in cks.items():
        assert ck.finalised
        assert os.path.exists(os.path.join(out, stage + ".ckpt"))
    # training later stages must not have touched earlier parameters
    synth_before = Checkpoint.load(os.path.join(out, "synthesis.ckpt"))
    for name, ps in synth_before.param_sets.items():
        assert ps.content_hash() == cks["synthesis"].param_sets[
            name].content_hash()
    # metrics come out finite and the final stage beats zero filling
    res = evaluate(cks, dataset, "test", plan)
    assert res.aggregates[("reconstruction", "image")]["psnr_mean"] > 0


def test_checkpoint_roundtrip_and_tamper(dataset, tmp_path):
    plan = tiny_plan(contrast_mode="single")
    ck = train_one("reconstruction", dataset, plan, 2)
    path = str(tmp_path / "r.ckpt")
    ck.save(path)
    back = Checkpoint.load(path)
    assert back.stage == ck.stage
    assert back.seed == ck.seed
    assert back.finalised
    assert back.config == ck.config
    for name, ps in ck.param_sets.items():
        assert back.param_sets[name].content_hash() == ps.content_hash()

    raw = bytearray(open(path, "rb").read())
    raw[-3] ^= 0x40
    tampered = str(tmp_path / "t.ckpt")
    open(tampered, "wb").write(bytes(raw))
    with pytest.raises(CheckpointIntegrityError):
        Checkpoint.load(tampered)

    truncated = str(tmp_path / "u.ckpt")
    open(truncated, "wb").write(bytes(raw[:len(raw) // 2]))
    with pytest.raises((TruncatedFileError, CheckpointIntegrityError)):
        Checkpoint.load(truncated)


def test_checkpoint_of_an_older_format_is_refused_by_version(tmp_path):
    path = str(tmp_path / "old.ckpt")
    Checkpoint(stage="reconstruction", param_sets={},
               config=tiny_plan().to_dict(), seed=0, val_history=[],
               finalised=True).save(path)
    raw = open(path, "rb").read()
    assert b'"format_version": 2' in raw
    open(path, "wb").write(raw.replace(b'"format_version": 2',
                                       b'"format_version": 1'))
    with pytest.raises(CheckpointIntegrityError) as exc:
        Checkpoint.load(path)
    assert "checkpoint version 1, expected 2" in str(exc.value)


def test_checkpoint_header_missing_a_field_is_refused(tmp_path):
    path = str(tmp_path / "bad.ckpt")
    Checkpoint(stage="reconstruction", param_sets={},
               config=tiny_plan().to_dict(), seed=0, val_history=[],
               finalised=True).save(path)
    header = json.loads(open(path, "rb").read())
    for missing in ("seed", "nets"):
        short = {k: v for k, v in header.items() if k != missing}
        open(path, "w").write(json.dumps(short) + "\n")
        with pytest.raises(CheckpointIntegrityError) as exc:
            Checkpoint.load(path)
        assert "lacks field '%s'" % missing in str(exc.value)
    # a header that is JSON but not an object
    for text in ("[]", "3"):
        open(path, "w").write(text + "\n")
        with pytest.raises(CheckpointIntegrityError):
            Checkpoint.load(path)


def test_rerun_determinism(dataset, tmp_path):
    plan = tiny_plan()
    outs = []
    for tag in ("a", "b"):
        out = str(tmp_path / tag)
        log = RunLog(out)
        train_stages(STAGES, dataset, plan, {}, 7, out, log)
        log.finish(seed=7, config=plan.to_dict())
        outs.append(out)
    for name in ("synthesis.ckpt", "registration.ckpt",
                 "reconstruction.ckpt", "train_steps.csv",
                 "val_epochs.csv"):
        a = open(os.path.join(outs[0], name), "rb").read()
        b = open(os.path.join(outs[1], name), "rb").read()
        assert a == b, name
    # run.json differs only by wall clock and memory use
    ra = json.load(open(os.path.join(outs[0], "run.json")))
    rb = json.load(open(os.path.join(outs[1], "run.json")))
    for r in (ra, rb):
        for key in ("wall_clock_s", "peak_rss_mb", "minor_page_faults"):
            r.pop(key)
    assert ra == rb


def test_seed_changes_training(dataset, tmp_path):
    plan = tiny_plan(contrast_mode="single")
    a = train_one("reconstruction", dataset, plan, 1)
    b = train_one("reconstruction", dataset, plan, 2)
    ha = [ps.content_hash() for ps in a.param_sets.values()]
    hb = [ps.content_hash() for ps in b.param_sets.values()]
    assert ha != hb


def test_early_stop_keeps_best_epoch(dataset):
    plan = tiny_plan(contrast_mode="single",
                     max_epochs={s: 6 for s in STAGES})
    ck = train_one("reconstruction", dataset, plan, 4)
    vals = ck.val_history
    assert len(vals) >= 1
    best = min(vals)
    # training may stop after patience worse epochs; the kept epoch is
    # the best seen
    assert vals.index(best) <= len(vals) - 1
    assert ck.finalised


# (stage, domain mode, split, record, loss kind, step named, steps
# taken): the poisoned training record sits in the second batch of
# epoch 0; a poisoned validation record fails the epoch after both of
# its steps.  Under dual both branches train at once.
@pytest.mark.parametrize("stage,domain_mode,split,index,kind,step,taken", [
    pytest.param("reconstruction", "image", "train", 1, "training", 1, 1,
                 id="train-1-training-1-1"),
    pytest.param("reconstruction", "image", "val", 0, "validation", 1, 2,
                 id="val-0-validation-1-2"),
    pytest.param("reconstruction", "dual", "train", 1, "training", 1, 1,
                 id="dual-reconstruction-train"),
    pytest.param("reconstruction", "dual", "val", 0, "validation", 1, 2,
                 id="dual-reconstruction-val"),
    pytest.param("synthesis", "dual", "train", 0, "training", 1, 1,
                 id="dual-synthesis-train"),
    pytest.param("synthesis", "dual", "val", 1, "validation", 1, 2,
                 id="dual-synthesis-val")])
def test_nonfinite_loss_fails_loudly(dataset, tmp_path, monkeypatch, stage,
                                     domain_mode, split, index, kind, step,
                                     taken):
    # one NaN pixel in one record's target makes that record's losses NaN
    ds = copy.deepcopy(dataset)
    ds.split(split)[index].tgt.real.data[10, 10] = np.nan
    steps = []
    adam_step = ddmc.pipeline.adam_step
    monkeypatch.setattr(ddmc.pipeline, "adam_step",
                        lambda *a: steps.append(1) or adam_step(*a))
    plan = tiny_plan(contrast_mode="fused" if stage == "synthesis"
                     else "single", domain_mode=domain_mode)
    out = str(tmp_path / "run")
    threads = threading.active_count()
    with pytest.raises(NonFiniteLossError) as exc:
        train_one(stage, ds, plan, 0, out_dir=out, run_log=RunLog(out))
    assert threading.active_count() == threads
    assert ("stage %r, epoch 0, step %d: %s loss is nan"
            % (stage, step, kind)) == str(exc.value)
    # the failing step took no optimiser step and logged no row; one
    # Adam step per net
    n_nets = len(plan.branches())
    logged = len(read_rows(os.path.join(out, "train_steps.csv"))) - 1
    assert len(steps) == n_nets * logged == n_nets * taken
    assert len(read_rows(os.path.join(out, "val_epochs.csv"))) == 1
    assert not os.path.exists(os.path.join(out, stage + ".ckpt"))


def test_full_sampling_reconstructs_exactly(dataset):
    # acceleration 1 keeps every k-space row, so data consistency
    # returns the ground truth regardless of the network
    plan = tiny_plan(contrast_mode="single", accel=1)
    ck = train_one("reconstruction", dataset, plan, 0)
    res = evaluate({"reconstruction": ck}, dataset, "test", plan)
    for row in res.per_record:
        if row["stage"] == "reconstruction" and row["branch"] == "image":
            assert row["psnr"] == 100.0
            assert row["ssim"] == pytest.approx(1.0, abs=1e-9)


def test_evaluate_with_outputs_panels(dataset):
    plan = tiny_plan(contrast_mode="single")
    ck = train_one("reconstruction", dataset, plan, 5)
    res = evaluate({"reconstruction": ck}, dataset, "test", plan,
                   with_outputs=True)
    assert res.outputs
    panels = res.outputs[0]
    assert "zero_filled" in panels
    assert "reconstruction" in panels


@pytest.mark.parametrize("domain_mode", ["kspace", "dual"])
def test_fused_eval_panels_show_the_scored_estimates(dataset, domain_mode):
    plan = tiny_plan(domain_mode=domain_mode)
    res = evaluate(train_stages(STAGES, dataset, plan, {}, 6, None, None),
                   dataset, "test", plan, with_outputs=True)
    # panel -> the (stage, branch) whose per-record row scores it
    first = plan.branches()[0]
    shown = {s: (s, first)
             for s in ("synthesis", "registration", "reconstruction")}
    if domain_mode == "dual":
        shown["recon_kspace"] = ("reconstruction", "kspace")
    scores = {(row["record_id"], row["stage"], row["branch"]): row["psnr"]
              for row in res.per_record}
    records = dataset.split("test")
    assert len(res.outputs) == len(records)
    for rec, panels in zip(records, res.outputs):
        assert set(panels) == {"zero_filled"} | set(shown)
        truth = rec.tgt.magnitude()
        for name, (stage, branch) in shown.items():
            assert psnr(panels[name], truth, rec.brain_mask) == \
                scores[rec.record_id, stage, branch], name


def count_frozen_calls(monkeypatch):
    """Calls from here on to SynthNet and RegNet nets whose parameters
    are frozen.  The dual branches' frozen calls run in two threads, so
    the count is taken under a lock."""
    calls = {SynthNet: 0, RegNet: 0}
    lock = threading.Lock()
    for cls in calls:
        def counted(self, *args, _cls=cls, _orig=cls.__call__):
            if not any(t.requires_grad for _, t in self.params.items()):
                with lock:
                    calls[_cls] += 1
            return _orig(self, *args)
        monkeypatch.setattr(cls, "__call__", counted)
    return calls


def test_fused_train_stages_computes_each_result_once(dataset, monkeypatch):
    plan = tiny_plan(reg_refine_iters=2)
    prepared = []
    prepare = ddmc.pipeline.prepare_record
    monkeypatch.setattr(ddmc.pipeline, "prepare_record",
                        lambda rec, plan: prepared.append(rec.record_id)
                        or prepare(rec, plan))
    calls = count_frozen_calls(monkeypatch)
    train_stages(STAGES, dataset, plan, {}, 3, None, None)
    # each train and val record is prepared once
    recs = dataset.split("train") + dataset.split("val")
    assert sorted(prepared) == sorted(r.record_id for r in recs)
    # per branch per chunk of train or val: the moved reference's
    # synthesis, then its registration
    n_branches, n_chunks = 2, 2
    assert calls[SynthNet] == n_branches * n_chunks
    assert calls[RegNet] == plan.reg_refine_iters * n_branches * n_chunks


def test_fused_evaluate_computes_each_result_once(dataset, monkeypatch):
    plan = tiny_plan(reg_refine_iters=2)
    checkpoints = train_stages(STAGES, dataset, plan, {}, 3, None, None)
    calls = count_frozen_calls(monkeypatch)
    evaluate(checkpoints, dataset, "test", plan)
    n_branches, n_chunks = 2, 1
    assert calls[RegNet] == plan.reg_refine_iters * n_branches * n_chunks
    # per branch per chunk: the aligned reference, scored as the
    # synthesis stage, and the moved reference, which feeds registration
    assert calls[SynthNet] == 2 * n_branches * n_chunks


def test_dual_branches_run_in_two_threads_on_one_blas_thread():
    libs = ddmc.kernels._openblas()
    before = [get() for get, _ in libs]
    main = threading.get_ident()
    threads = threading.active_count()
    got = ddmc.pipeline._per_branch(
        tiny_plan(), lambda b: (b, threading.get_ident(),
                                [get() for get, _ in libs]))
    assert list(got) == ["image", "kspace"]
    # the calling thread runs the first branch, a pool thread the other
    assert got["image"][1] == main != got["kspace"][1]
    for b, (name, ident, counts) in got.items():
        assert name == b
        assert counts == [1] * len(libs)
    assert [get() for get, _ in libs] == before
    assert threading.active_count() == threads
    # one branch runs in the calling thread, BLAS untouched
    got = ddmc.pipeline._per_branch(
        tiny_plan(domain_mode="kspace"),
        lambda b: (threading.get_ident(), [get() for get, _ in libs]))
    assert got == {"kspace": (main, before)}


def test_threaded_dual_evaluate_equals_sequential(dataset, monkeypatch):
    plan = tiny_plan(reg_refine_iters=2)
    checkpoints = train_stages(STAGES, dataset, plan, {}, 4, None, None)
    threads = threading.active_count()
    # switch threads often, so the branches interleave finely
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threaded = evaluate(checkpoints, dataset, "test", plan,
                            with_outputs=True)
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == threads
    monkeypatch.setattr(ddmc.pipeline, "_per_branch",
                        lambda plan, fn: {b: fn(b) for b in plan.branches()})
    sequential = evaluate(checkpoints, dataset, "test", plan,
                          with_outputs=True)
    assert threaded.per_record == sequential.per_record
    assert threaded.aggregates == sequential.aggregates
    assert len(threaded.outputs) == len(sequential.outputs)
    for got, want in zip(threaded.outputs, sequential.outputs):
        assert list(got) == list(want)
        for name in want:
            assert got[name].dtype == want[name].dtype
            assert got[name].tobytes() == want[name].tobytes(), name


def test_threaded_dual_training_equals_sequential(dataset, tmp_path,
                                                 monkeypatch):
    plan = tiny_plan(reg_refine_iters=2)
    jobs = []
    in_threads = ddmc.pipeline._in_threads
    monkeypatch.setattr(ddmc.pipeline, "_in_threads",
                        lambda fns: jobs.append(len(fns)) or in_threads(fns))
    outs = {}
    for name in ("threaded", "sequential"):
        out = outs[name] = str(tmp_path / name)
        threads = threading.active_count()
        # switch threads often, so the branches interleave finely
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            train_stages(STAGES, dataset, plan, {}, 4, out, RunLog(out))
        finally:
            sys.setswitchinterval(interval)
        assert threading.active_count() == threads
        monkeypatch.setattr(ddmc.pipeline, "_per_branch",
                            lambda plan, fn: {b: fn(b)
                                              for b in plan.branches()})
        monkeypatch.setattr(ddmc.pipeline, "_in_threads",
                            lambda fns: [fn() for fn in fns])
    # the threaded run put every dual step's two branches in two threads
    assert jobs and set(jobs) == {2}
    for name in ("synthesis.ckpt", "registration.ckpt",
                 "reconstruction.ckpt", "train_steps.csv",
                 "val_epochs.csv"):
        got = open(os.path.join(outs["threaded"], name), "rb").read()
        want = open(os.path.join(outs["sequential"], name), "rb").read()
        assert got == want, name


def test_error_in_a_branch_thread_reaches_the_caller(dataset, monkeypatch):
    # the k-space branch's reconstruction input loses a channel
    stage_inputs = ddmc.pipeline.compute_stage_inputs

    def short_kspace_input(stage, plan, table):
        out = stage_inputs(stage, plan, table)
        out["in_kspace"] = out["in_kspace"][:, :1]
        return out
    monkeypatch.setattr(ddmc.pipeline, "compute_stage_inputs",
                        short_kspace_input)
    threads = threading.active_count()
    with pytest.raises(ShapeError) as exc:
        train_one("reconstruction", dataset,
                  tiny_plan(contrast_mode="single"), 0)
    assert str(exc.value) == "reconstruction net expects 2 channels, got 1"
    # raised in a pool thread, then joined
    assert any("concurrent" in str(entry.path) for entry in exc.traceback)
    assert threading.active_count() == threads


def test_evaluate_missing_checkpoint_raises(dataset):
    plan = tiny_plan()
    with pytest.raises(StageOrderError):
        evaluate({}, dataset, "test", plan)


def test_evaluate_checks_each_checkpoint(dataset):
    plan = tiny_plan(contrast_mode="single")
    ck = train_one("reconstruction", dataset, plan, 0)
    for field, value in (("finalised", False), ("stage", "synthesis"),
                         ("config", tiny_plan().to_dict())):
        bad = copy.copy(ck)
        setattr(bad, field, value)
        with pytest.raises(CheckpointIntegrityError):
            evaluate({"reconstruction": bad}, dataset, "test", plan)


def test_cell_plans():
    base = tiny_plan(contrast_mode="single", lr=5e-4)
    plans = cell_plans(base, [("fused", "image", 2), ("concat", "dual", 4)])
    assert [cell_name(p) for p in plans] == ["fused-image-2x",
                                             "concat-dual-4x"]
    assert plans[0] == replace(base, contrast_mode="fused",
                               domain_mode="image", accel=2)
    with pytest.raises(ValidationError):
        cell_plans(base, [])
    with pytest.raises(ValidationError):
        cell_plans(base, [("single", "dual", 4), ("single", "dual", 4)])
    for bad in (("fused", "tri", 4), ("mixed", "dual", 4),
                ("fused", "dual", 0)):
        with pytest.raises(ValidationError):
            cell_plans(base, [("single", "dual", 4), bad])
    # floor(32/16) = 2 rows cannot cover the 6-row centre block
    with pytest.raises(MaskBudgetError):
        cell_plans(base, [("single", "dual", 4), ("single", "dual", 16)])


def test_cell_name_and_ablation(tmp_path):
    assert cell_name(tiny_plan()) == "fused-dual-4x"
    ds_root = str(tmp_path / "ds")
    build_dataset(ds_root, n_train=4, n_val=2, n_test=2, size=32,
                  n_structures=3, seed=5)
    out = str(tmp_path / "ab")
    plans = cell_plans(tiny_plan(contrast_mode="single"),
                       [("single", "dual", 4), ("concat", "dual", 4)])
    run_ablation(plans, ds_root, out, 0, "test", len(plans))
    summary = read_rows(os.path.join(out, "summary.csv"))
    assert len(summary) == 3
    assert summary[1][0] == "single-dual-4x"
    assert summary[2][0] == "concat-dual-4x"
    for cid in ("single-dual-4x", "concat-dual-4x"):
        assert os.path.exists(os.path.join(out, cid, "metrics.csv"))

    # one worker process gives the same bytes as one worker per cell
    serial = str(tmp_path / "ab_serial")
    run_ablation(plans, ds_root, serial, 0, "test", 1)
    compared = 0
    for sub in ("", "single-dual-4x", "concat-dual-4x"):
        names = sorted(os.listdir(os.path.join(out, sub)))
        assert names == sorted(os.listdir(os.path.join(serial, sub)))
        for name in names:
            if name.endswith((".csv", ".ckpt")):
                a = open(os.path.join(out, sub, name), "rb").read()
                b = open(os.path.join(serial, sub, name), "rb").read()
                assert a == b, os.path.join(sub, name)
                compared += 1
    assert compared == 2 + 2 * 5
