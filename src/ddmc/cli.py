"""Command-line front end.

Subcommands: gen-data, make-masks, train, eval, ablate, render.
Exit codes: 0 success, 1 usage error, 2 validation error (bad config,
bad stage ordering, non-finite loss), 3 I/O error.  Failures print one structured line
to stderr: ``ddmc: <kind>: <message>``.

Reruns with an identical config and seed reproduce outputs bit-exactly;
pass --no-clobber to refuse instead of rewriting.
"""

import argparse
import os
import sys

from . import __version__
from .acquisition import make_mask
from .config import default_text, load_config
from .datagen import Dataset, build_dataset
from .errors import DdmcError, RecordFormatError, ValidationError
from .evalkit import render_report
from .kernels import steady_heap
from .pipeline import (AGGREGATE_COLUMNS, Checkpoint, RECORD_METRIC_COLUMNS,
                       RunLog, STAGES, cell_name, cell_plans,
                       check_training, evaluate, run_ablation,
                       train_stages, write_csv)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _add_common(p):
    p.add_argument("--config", metavar="FILE", default=None,
                   help="config document (defaults apply when omitted)")
    p.add_argument("--set", metavar="SECTION.KEY=VALUE", action="append",
                   default=[], dest="overrides",
                   help="override one config value (repeatable)")
    p.add_argument("--seed", type=int, default=None,
                   help="override the run seed from the config")
    p.add_argument("--out", metavar="DIR", required=True,
                   help="output directory")
    p.add_argument("--no-clobber", action="store_true",
                   help="refuse to overwrite existing outputs")


def _build_parser():
    parser = _Parser(prog="ddmc",
                     description="dual-domain multi-contrast MRI "
                                 "reconstruction on synthetic phantoms")
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--print-defaults", action="store_true",
                        help="print the full default config and exit")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser("gen-data", help="generate a phantom dataset",
                       description="Generate contrast-pair records plus a "
                                   "manifest. --seed overrides data.data_seed.")
    _add_common(p)

    p = sub.add_parser("make-masks", help="write sampling mask files",
                       description="Write one row-mask file per "
                                   "acceleration: the draw for seed "
                                   "mask.mask_seed.  Each training record "
                                   "draws its own mask, seeded from "
                                   "mask.mask_seed and its record id.")
    _add_common(p)
    p.add_argument("--height", type=int, default=None,
                   help="mask height (defaults to data.size)")
    p.add_argument("--accel", type=int, action="append", default=None,
                   help="acceleration factor (repeatable; defaults to "
                        "mask.accel)")

    p = sub.add_parser("train", help="train pipeline stages",
                       description="Train one stage against earlier "
                                   "finalised checkpoints in --out, or the "
                                   "whole required chain.")
    _add_common(p)
    p.add_argument("--data", metavar="DIR", required=True,
                   help="dataset directory from gen-data")
    p.add_argument("--stage", default="all",
                   choices=STAGES + ("all",),
                   help="stage to train (default: every required stage)")

    p = sub.add_parser("eval", help="score checkpoints on a split")
    _add_common(p)
    p.add_argument("--data", metavar="DIR", required=True)
    p.add_argument("--ckpt-dir", metavar="DIR", required=True,
                   help="directory holding <stage>.ckpt files")
    p.add_argument("--split", default="test",
                   choices=("train", "val", "test"))

    p = sub.add_parser("ablate", help="train and score a mode/accel grid")
    _add_common(p)
    p.add_argument("--data", metavar="DIR", required=True)
    p.add_argument("--grid", metavar="DOMAIN,CONTRAST,RX", action="append",
                   required=True,
                   help="one cell, e.g. dual,fused,4x (repeatable)")
    p.add_argument("--split", default="test",
                   choices=("train", "val", "test"))

    p = sub.add_parser("render", help="write per-record grayscale panels")
    _add_common(p)
    p.add_argument("--data", metavar="DIR", required=True)
    p.add_argument("--ckpt-dir", metavar="DIR", required=True)
    p.add_argument("--split", default="test",
                   choices=("train", "val", "test"))
    p.add_argument("--err-scale", type=float, default=5.0,
                   help="multiplier for absolute-error panels")
    return parser


def _no_clobber(args, paths):
    if not args.no_clobber:
        return
    existing = [p for p in paths if os.path.exists(p)]
    if existing:
        raise DdmcError("refusing to overwrite %s (rerun without "
                        "--no-clobber to allow)" % ", ".join(existing))


def _config_for(args):
    cfg = load_config(args.config, args.overrides)
    if args.seed is not None:
        cfg.values["run"]["seed"] = args.seed
    return cfg


def _load_checkpoints(ckpt_dir, stages):
    out = {}
    for stage in stages:
        path = os.path.join(ckpt_dir, stage + ".ckpt")
        if os.path.exists(path):
            out[stage] = Checkpoint.load(path)
    return out


def _cmd_gen_data(args):
    cfg = _config_for(args)
    if args.seed is not None:
        cfg.values["data"]["data_seed"] = args.seed
    _no_clobber(args, [os.path.join(args.out, "manifest.json")])
    manifest = build_dataset(args.out, **cfg.dataset_args())
    cfg.write_snapshot(args.out)
    n = sum(len(v) for v in manifest.splits.values())
    print("wrote %d records to %s" % (n, args.out))


def _cmd_make_masks(args):
    cfg = _config_for(args)
    height = cfg["data.size"] if args.height is None else args.height
    accels = args.accel or [cfg["mask.accel"]]
    paths = [os.path.join(args.out, "mask_h%d_r%d.txt" % (height, r))
             for r in accels]
    masks = [make_mask(height, r, n_center=cfg["mask.n_center"],
                       sigma_frac=cfg["mask.sigma_frac"],
                       seed=cfg["mask.mask_seed"]) for r in accels]
    _no_clobber(args, paths)
    cfg.write_snapshot(args.out)
    for mask, path in zip(masks, paths):
        mask.save(path)
        print("wrote %s (%d rows)" % (path, int(mask.sampled.sum())))


def _cmd_train(args):
    cfg = _config_for(args)
    plan = cfg.stage_plan()
    seed = cfg.seed()
    required = plan.required_stages()
    stages = required if args.stage == "all" else (args.stage,)
    _no_clobber(args, [os.path.join(args.out, s + ".ckpt") for s in stages])
    dataset = Dataset.load(args.data)
    prior = _load_checkpoints(args.out, [
        s for s in required if STAGES.index(s) < STAGES.index(stages[0])])
    check_training(stages, dataset, plan, prior)  # before any write
    cfg.write_snapshot(args.out)
    run_log = RunLog(args.out, stages)
    checkpoints = train_stages(stages, dataset, plan, prior, seed, args.out,
                               run_log)
    run_log.finish(seed, plan.to_dict())
    for stage in checkpoints:
        print("finalised %s" % os.path.join(args.out, stage + ".ckpt"))


def _cmd_eval(args):
    cfg = _config_for(args)
    plan = cfg.stage_plan()
    out_paths = [os.path.join(args.out, "metrics.csv"),
                 os.path.join(args.out, "records.csv")]
    _no_clobber(args, out_paths)
    dataset = Dataset.load(args.data)
    checkpoints = _load_checkpoints(args.ckpt_dir, plan.required_stages())
    result = evaluate(checkpoints, dataset, args.split, plan)
    cfg.write_snapshot(args.out)
    rows = result.aggregate_rows(plan)
    write_csv(out_paths[0], AGGREGATE_COLUMNS, rows)
    write_csv(out_paths[1], RECORD_METRIC_COLUMNS, result.per_record)
    for row in rows:
        print("%s/%s: psnr %.2f ssim %.4f (n=%d)"
              % (row["stage"], row["branch"], row["psnr_mean"],
                 row["ssim_mean"], row["n"]))


def _parse_grid(specs):
    cells = []
    for spec in specs:
        for part in spec.split(";"):
            fields = [f.strip() for f in part.split(",")]
            if len(fields) != 3:
                raise ValidationError("grid cell %r is not DOMAIN,CONTRAST,RX"
                                      % part)
            domain, contrast, rx = fields
            if not rx.endswith("x"):
                raise ValidationError("acceleration %r must end in 'x'" % rx)
            try:
                accel = int(rx[:-1])
            except ValueError:
                raise ValidationError("bad acceleration %r" % rx)
            cells.append((contrast, domain, accel))
    return cells


def _cmd_ablate(args):
    cfg = _config_for(args)
    plans = cell_plans(cfg.stage_plan(), _parse_grid(args.grid))
    # DDMC_THREADS caps the worker processes; the default is one per cell
    workers = os.environ.get("DDMC_THREADS") or str(len(plans))
    if not workers.isdecimal() or int(workers) < 1:
        raise ValidationError("DDMC_THREADS must be an integer >= 1, got %r"
                              % workers)
    _no_clobber(args, [os.path.join(args.out, name)
                       for name in ["summary.csv", "metrics.csv"]
                       + [cell_name(p) for p in plans]])
    cfg.write_snapshot(args.out)
    summaries = run_ablation(plans, args.data, args.out, cfg.seed(),
                             args.split, int(workers))
    for row in summaries:
        scores = ["%s psnr %.2f" % (b, row["psnr_" + b])
                  for b in ("image", "kspace") if row["psnr_" + b] is not None]
        print("%-20s %s" % (row["cell"], " | ".join(scores)))


def _cmd_render(args):
    if not 0 < args.err_scale < float("inf"):
        raise ValidationError("--err-scale must be a finite number > 0, "
                              "got %r" % args.err_scale)
    cfg = _config_for(args)
    plan = cfg.stage_plan()
    _no_clobber(args, [os.path.join(args.out, "report.csv")])
    dataset = Dataset.load(args.data)
    checkpoints = _load_checkpoints(args.ckpt_dir, plan.required_stages())
    result = evaluate(checkpoints, dataset, args.split, plan,
                      with_outputs=True)
    cfg.write_snapshot(args.out)
    records = dataset.split(args.split)
    render_report(records, result.outputs, args.out,
                  err_scale=args.err_scale)
    print("wrote %d record panels to %s" % (len(records), args.out))


_COMMANDS = {
    "gen-data": _cmd_gen_data,
    "make-masks": _cmd_make_masks,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "ablate": _cmd_ablate,
    "render": _cmd_render,
}


def main(argv=None):
    steady_heap()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.print_defaults:
            sys.stdout.write(default_text())
            return 0
        if args.command is None:
            raise _UsageError("a subcommand is required (see --help)")
        _COMMANDS[args.command](args)
        return 0
    except _UsageError as e:
        sys.stderr.write("ddmc: usage: %s\n" % e)
        return 1
    except (RecordFormatError, OSError) as e:
        sys.stderr.write("ddmc: io: %s\n" % e)
        return 3
    except DdmcError as e:
        sys.stderr.write("ddmc: validation: %s\n" % e)
        return 2


if __name__ == "__main__":
    sys.exit(main())
