"""Command-line dispatch: exit codes, determinism, end-to-end runs."""

import csv
import filecmp
import json
import os
import struct
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import ddmc
from ddmc.cli import _parse_grid, main
from ddmc.datagen import Dataset, record_path, write_record
from ddmc.errors import ValidationError

FAST = ["--set", "data.size=32", "--set", "data.n_train=4",
        "--set", "data.n_val=2", "--set", "data.n_test=2",
        "--set", "data.n_structures=3",
        "--set", "train.max_epochs=2", "--set", "train.patience=2",
        "--set", "train.batch_size=2",
        "--set", "model.base_channels=4", "--set", "model.depth=2",
        "--set", "model.reg_channels=4,4", "--set", "model.reg_fc_hidden=8"]


def run(argv):
    return main([str(a) for a in argv])


def dirs_equal(a, b):
    cmp = filecmp.dircmp(a, b)
    if cmp.left_only or cmp.right_only or cmp.diff_files:
        return False
    _, mismatch, errors = filecmp.cmpfiles(
        a, b, cmp.common_files, shallow=False)
    if mismatch or errors:
        return False
    return all(dirs_equal(os.path.join(a, d), os.path.join(b, d))
               for d in cmp.common_dirs)


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--help"])
    assert exc.value.code == 0
    assert "gen-data" in capsys.readouterr().out


def test_subcommand_help_exits_zero():
    for cmd in ("gen-data", "make-masks", "train", "eval", "ablate",
                "render"):
        with pytest.raises(SystemExit) as exc:
            run([cmd, "--help"])
        assert exc.value.code == 0


def test_print_defaults(capsys):
    assert run(["--print-defaults"]) == 0
    out = capsys.readouterr().out
    assert "[run]" in out and "seed = 0" in out


def test_no_command_is_usage_error(capsys):
    assert run([]) == 1
    assert capsys.readouterr().err.startswith("ddmc: usage:")


def test_unknown_command_is_usage_error(capsys):
    assert run(["frobnicate", "--out", "/tmp/x"]) == 1
    assert "ddmc: usage:" in capsys.readouterr().err


def test_bad_override_is_validation_error(tmp_path, capsys):
    rc = run(["gen-data", "--out", tmp_path / "d",
              "--set", "data.bogus=1"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("ddmc: validation:")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_nonfinite_float_is_validation_error(tmp_path, capsys, value):
    out = tmp_path / "d"
    assert run(["gen-data", "--out", out,
                "--set", "data.blur_sigma=" + value] + FAST) == 2
    err = capsys.readouterr().err
    assert err.startswith("ddmc: validation: bad value for data.blur_sigma")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("setting", ["data.rot_deg=-1", "data.size=30",
                                     "data.mm_per_px=-2"])
def test_refused_gen_data_writes_nothing(tmp_path, capsys, setting):
    # the motion settings and the phantom spec are checked before the
    # snapshot or any record is written
    out = tmp_path / "d"
    assert run(["gen-data", "--out", out] + FAST + ["--set", setting]) == 2
    assert capsys.readouterr().err.startswith("ddmc: validation:")
    assert not out.exists()


def test_missing_config_file_is_io_error(tmp_path, capsys):
    rc = run(["gen-data", "--out", tmp_path / "d",
              "--config", tmp_path / "nope.cfg"])
    assert rc == 3
    assert capsys.readouterr().err.startswith("ddmc: io:")


def test_gen_data_deterministic_and_no_clobber(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run(["gen-data", "--out", out] + FAST) == 0
    assert dirs_equal(str(a), str(b))
    assert run(["gen-data", "--out", a, "--no-clobber"] + FAST) == 2
    assert "refus" in capsys.readouterr().err


def test_gen_data_seed_changes_bytes(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(["gen-data", "--out", a] + FAST) == 0
    assert run(["gen-data", "--out", b, "--seed", 3] + FAST) == 0
    assert not dirs_equal(str(a), str(b))


def test_make_masks(tmp_path):
    out = tmp_path / "masks"
    assert run(["make-masks", "--out", out, "--height", 64,
                "--accel", 4, "--accel", 8] + FAST) == 0
    for r, n in ((4, 16), (8, 8)):
        path = out / ("mask_h64_r%d.txt" % r)
        rows = path.read_text().splitlines()[1].split()
        assert len(rows) == n
    assert run(["make-masks", "--out", out / "bad", "--height", 16,
                "--accel", 8] + FAST) == 2
    # only a missing --height falls back to data.size
    assert run(["make-masks", "--out", out / "zero", "--height", 0,
                "--accel", 4] + FAST) == 2
    assert not (out / "bad").exists() and not (out / "zero").exists()


def test_grid_parsing():
    assert _parse_grid(["dual,fused,4x"]) == [("fused", "dual", 4)]
    assert _parse_grid(["image,single,8x;dual,concat,4x"]) == [
        ("single", "image", 8), ("concat", "dual", 4)]
    for bad in ("dual,fused", "dual,fused,x4", "dual,fused,fourx"):
        with pytest.raises(ValidationError):
            _parse_grid([bad])
    # modes and acceleration are the plan's to check (see cell_plans)
    assert _parse_grid(["tri,mixed,0x"]) == [("mixed", "tri", 0)]


def test_out_of_order_train_names_missing_stage(tmp_path, capsys):
    data = tmp_path / "data"
    assert run(["gen-data", "--out", data] + FAST) == 0
    rc = run(["train", "--data", data, "--out", tmp_path / "run",
              "--stage", "reconstruction"] + FAST)
    assert rc == 2
    err = capsys.readouterr().err
    assert "synthesis" in err


def test_refused_train_leaves_out_as_it_found_it(tmp_path, capsys):
    # every check that can refuse a train call runs before it writes the
    # snapshot or opens the logs
    data, out = tmp_path / "data", tmp_path / "run"
    assert run(["gen-data", "--out", data] + FAST) == 0
    assert run(["train", "--data", data, "--out", out] + FAST) == 0
    names = ("config_resolved.cfg", "train_steps.csv", "val_epochs.csv")
    before = [(out / name).read_bytes() for name in names]
    capsys.readouterr()
    for extra, message in (
            # the prior checkpoints were trained under another plan
            (["--stage", "registration", "--set", "train.lr=1e-3"],
             "different plan"),
            # the records are 32 px
            (["--set", "data.size=48"], "plan expects 48")):
        assert run(["train", "--data", data, "--out", out] + FAST
                   + extra) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and message in err[0]
        assert [(out / name).read_bytes() for name in names] == before
    # a fused reconstruction stage with no chain before it
    fresh = tmp_path / "fresh"
    assert run(["train", "--data", data, "--out", fresh,
                "--stage", "reconstruction"] + FAST) == 2
    assert "synthesis" in capsys.readouterr().err
    assert not fresh.exists()


def test_infeasible_acceleration_fails_before_any_output(tmp_path, capsys):
    # floor(32/16) = 2 rows cannot cover the 6-row centre block, so both
    # commands stop at validation and write no run
    data = tmp_path / "data"
    assert run(["gen-data", "--out", data] + FAST) == 0
    capsys.readouterr()
    assert run(["train", "--data", data, "--out", tmp_path / "run",
                "--set", "mask.accel=16"] + FAST) == 2
    assert "centre block" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()

    ab_dir = tmp_path / "ablate"
    assert run(["ablate", "--data", data, "--out", ab_dir,
                "--grid", "dual,single,4x;dual,single,16x"] + FAST) == 2
    assert "centre block" in capsys.readouterr().err
    for cell in ("single-dual-4x", "single-dual-16x"):
        assert not (ab_dir / cell).exists()


def test_refused_ablation_writes_nothing(tmp_path, capsys):
    # every cell is validated before the snapshot or the dataset is
    # touched, so a refused grid leaves no --out behind
    for grid, message in (("dual,single,4x;dual,single,16x", "centre block"),
                          ("tri,fused,4x", "unknown domain mode 'tri'")):
        out = tmp_path / "ablate"
        assert run(["ablate", "--data", tmp_path / "data", "--out", out,
                    "--grid", grid] + FAST) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


def test_train_stage_reads_only_the_checkpoints_it_needs(tmp_path):
    data, out = tmp_path / "data", tmp_path / "run"
    assert run(["gen-data", "--out", data] + FAST) == 0
    assert run(["train", "--data", data, "--out", out] + FAST) == 0

    def truncate(stage):
        path = out / (stage + ".ckpt")
        path.write_bytes(path.read_bytes()[:-100])

    # neither a later stage's checkpoint nor the one being retrained is
    # read
    truncate("reconstruction")
    assert run(["train", "--data", data, "--out", out,
                "--stage", "registration"] + FAST) == 0
    truncate("registration")
    assert run(["train", "--data", data, "--out", out,
                "--stage", "registration"] + FAST) == 0
    # an earlier stage's checkpoint still is
    truncate("registration")
    assert run(["train", "--data", data, "--out", out,
                "--stage", "reconstruction"] + FAST) == 3


def test_stage_by_stage_train_matches_stage_all(tmp_path):
    # a stage-by-stage chain, with its last stage rerun, writes the same
    # checkpoints and logs each stage's rows once, exactly as one
    # --stage all call does
    data = tmp_path / "data"
    assert run(["gen-data", "--out", data] + FAST) == 0
    fused_all, fused_steps = tmp_path / "fused_all", tmp_path / "fused_steps"
    assert run(["train", "--data", data, "--out", fused_all] + FAST) == 0
    for stage in ("synthesis", "registration", "reconstruction",
                  "reconstruction"):
        assert run(["train", "--data", data, "--out", fused_steps,
                    "--stage", stage] + FAST) == 0
    for name in ("synthesis.ckpt", "registration.ckpt", "reconstruction.ckpt",
                 "train_steps.csv", "val_epochs.csv"):
        assert (fused_all / name).read_bytes() == \
            (fused_steps / name).read_bytes(), name


def assert_train_and_eval_agree(tmp_path, runs):
    """Run train --stage all and eval (fused dual, 1 epoch) in a fresh
    process per command, once per (name, command prefix, extra env) in
    runs, and assert that every run wrote the same checkpoint and CSV
    bytes."""
    data = tmp_path / "data"
    assert run(["gen-data", "--out", data] + FAST) == 0
    src = os.path.dirname(os.path.dirname(ddmc.__file__))
    cfg = FAST + ["--set", "train.max_epochs=1",
                  "--set", "train.contrast_mode=fused",
                  "--set", "train.domain_mode=dual"]
    outs = []
    for name, prefix, environ in runs:
        env = dict(os.environ, PYTHONPATH=src, **environ)
        out = tmp_path / name
        for argv in (["train", "--data", data, "--out", out / "train",
                      "--stage", "all"],
                     ["eval", "--data", data, "--ckpt-dir", out / "train",
                      "--out", out / "eval"]):
            subprocess.run([sys.executable] + prefix
                           + [str(a) for a in argv + cfg],
                           env=env, check=True, stdout=subprocess.DEVNULL)
        outs.append(out)
    names = [sorted(p.relative_to(out) for p in out.rglob("*")
                    if p.suffix in (".ckpt", ".csv")) for out in outs]
    assert names[0] == names[1]
    assert sum(n.suffix == ".ckpt" for n in names[0]) == 3
    assert sum(n.suffix == ".csv" for n in names[0]) >= 4
    for name in names[0]:
        assert (outs[0] / name).read_bytes() == \
            (outs[1] / name).read_bytes(), name


def test_blas_thread_count_changes_no_output(tmp_path):
    # train --stage all and eval write the same checkpoint and CSV bytes
    # whether OpenBLAS runs one thread or two
    assert_train_and_eval_agree(tmp_path, [
        ("threads" + n, ["-m", "ddmc.cli"], {"OPENBLAS_NUM_THREADS": n})
        for n in ("1", "2")])


def test_heap_policy_changes_no_output(tmp_path):
    # train --stage all and eval write the same checkpoint and CSV bytes
    # with the CLI's heap policy and with glibc's defaults
    default_heap = ("import sys, ddmc.cli as c; c.steady_heap = lambda: []; "
                    "sys.exit(c.main(sys.argv[1:]))")
    assert_train_and_eval_agree(tmp_path, [
        ("policy", ["-m", "ddmc.cli"], {}),
        ("default", ["-c", default_heap], {})])


def test_ablate_cell_matches_train_and_eval_with_blas_unset(tmp_path):
    # a fused dual ablate cell in a two-worker pool, with OPENBLAS_NUM_THREADS
    # unset so each worker sets its own share of the cores, writes the
    # checkpoint and CSV bytes that train --stage all and eval write for
    # the same plan
    data = tmp_path / "data"
    assert run(["gen-data", "--out", data] + FAST) == 0
    src = os.path.dirname(os.path.dirname(ddmc.__file__))
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "DDMC_THREADS")}
    env["PYTHONPATH"] = src
    cfg = FAST + ["--set", "train.max_epochs=1",
                  "--set", "train.contrast_mode=fused",
                  "--set", "train.domain_mode=dual"]
    for argv in (["train", "--data", data, "--out", tmp_path / "train",
                  "--stage", "all"],
                 ["eval", "--data", data, "--ckpt-dir", tmp_path / "train",
                  "--out", tmp_path / "eval"],
                 ["ablate", "--data", data, "--out", tmp_path / "ablate",
                  "--grid", "dual,fused,4x;image,single,4x"]):
        subprocess.run([sys.executable, "-m", "ddmc.cli"]
                       + [str(a) for a in argv + cfg],
                       env=env, check=True, stdout=subprocess.DEVNULL)
    cell = tmp_path / "ablate" / "fused-dual-4x"
    want = {"train": ["synthesis.ckpt", "registration.ckpt",
                      "reconstruction.ckpt", "train_steps.csv",
                      "val_epochs.csv"],
            "eval": ["metrics.csv", "records.csv"]}
    for sub, names in want.items():
        for name in names:
            assert (cell / name).read_bytes() == \
                (tmp_path / sub / name).read_bytes(), name


def test_negative_split_count_or_blur_is_refused(tmp_path, capsys):
    for setting in ("data.n_train=-2", "data.n_test=-1",
                    "data.blur_sigma=-3"):
        out = tmp_path / "d"
        assert run(["gen-data", "--out", out] + FAST
                   + ["--set", setting]) == 2, setting
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("ddmc: validation:")
        assert setting.split(".")[1].split("=")[0] in err[0]
        assert not out.exists()


@pytest.mark.parametrize("setting", [
    "model.base_channels=0", "model.reg_channels=0",
    "model.reg_channels=4,-4", "model.reg_fc_hidden=-1",
    "model.reg_fc_hidden=0", "mask.n_center=-2",
    "model.depth=1", "model.depth=7"])
def test_net_size_below_one_is_refused(tmp_path, capsys, setting):
    # a zero or negative width crashed the parameter init or built an
    # empty layer, and a negative centre block mis-sized the mask; a
    # U-Net depth below 2, or one whose pools do not divide the 32 px
    # image, failed only when the first net was built
    data, out = tmp_path / "data", tmp_path / "run"
    assert run(["gen-data", "--out", data] + FAST) == 0
    capsys.readouterr()
    assert run(["train", "--data", data, "--out", out] + FAST
               + ["--set", setting]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("ddmc: validation:")
    assert setting.split(".")[1].split("=")[0] in err[0]
    assert not out.exists()


@pytest.mark.parametrize("scale", ["nan", "-3", "0", "inf"])
def test_bad_render_err_scale_is_refused(tmp_path, capsys, scale):
    # a NaN scale cast NaN error maps to uint8 and a negative one drew
    # all-black maps; both exited 0
    data, ckpt, out = tmp_path / "data", tmp_path / "run", tmp_path / "render"
    single = FAST + ["--set", "train.contrast_mode=single"]
    assert run(["gen-data", "--out", data] + single) == 0
    assert run(["train", "--data", data, "--out", ckpt] + single) == 0
    capsys.readouterr()
    assert run(["render", "--data", data, "--ckpt-dir", ckpt, "--out", out,
                "--err-scale=" + scale] + single) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("ddmc: validation:")
    assert "--err-scale" in err[0]
    assert not out.exists()


def test_cli_import_leaves_scipy_out():
    src = os.path.dirname(os.path.dirname(ddmc.__file__))
    code = "import sys, ddmc.cli; print('scipy' in sys.modules)"
    got = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src))
    assert got.stdout.strip() == "False"


# "²" passes str.isdigit() but not int()
@pytest.mark.parametrize("threads", ["abc", "0", "²"])
def test_bad_ddmc_threads_refuses_ablation_before_writing(
        tmp_path, capsys, monkeypatch, threads):
    monkeypatch.setenv("DDMC_THREADS", threads)
    out = tmp_path / "ablate"
    assert run(["ablate", "--data", tmp_path / "data", "--out", out,
                "--grid", "dual,single,4x"] + FAST) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("ddmc: validation:")
    assert "DDMC_THREADS" in err[0]
    assert not out.exists()


MANIFEST = {"size": 32, "seed": 0, "n_structures": 3, "blur_sigma": 0.7,
            "rot_range": 10.0, "trans_range": 15.0, "mm_per_px": 6.0}


# splits must be {split: [record ids]}, ids integers >= 0
@pytest.mark.parametrize("text", ["not json", '{"size": 32}'] + [
    pytest.param(json.dumps(dict(MANIFEST, splits=splits)), id=name)
    for name, splits in (("splits-list", []), ("split-int", {"train": 0}),
                         ("id-str", {"train": [0, "1"]}),
                         ("id-negative", {"train": [-1]}))])
def test_malformed_manifest_is_io_error(tmp_path, capsys, text):
    data = tmp_path / "data"
    data.mkdir()
    (data / "manifest.json").write_text(text)
    assert run(["train", "--data", data, "--out", tmp_path / "run"]
               + FAST) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("ddmc: io: malformed manifest")
    assert not (tmp_path / "run").exists()


def test_malformed_record_header_is_io_error(tmp_path, capsys):
    # a record header that is not JSON, lacks true_motion, holds a
    # record_id or seed that is not an integer >= 0, or holds a NaN
    # true_motion; each is refused before train writes into --out
    data = tmp_path / "data"
    assert run(["gen-data", "--out", data] + FAST) == 0
    path = record_path(str(data), 0)
    raw = open(path, "rb").read()
    hlen, = struct.unpack("<I", raw[6:10])
    header = json.loads(raw[10:10 + hlen])
    bad = [dict(header, record_id="zero"), dict(header, record_id=0.0),
           dict(header, seed=-1), dict(header, seed=None)]
    del header["true_motion"]
    bodies = [raw[:6] + struct.pack("<I", len(hb)) + hb + raw[10 + hlen:]
              for hb in [b"not json"] + [json.dumps(h).encode()
                                         for h in [header] + bad]]
    rec = Dataset.load(str(data)).records[0]
    write_record(replace(rec, true_motion=np.array([np.nan, 0.0, 0.0])),
                 path)
    bodies.append(open(path, "rb").read())
    for body in bodies:
        with open(path, "wb") as f:
            f.write(body)
        capsys.readouterr()
        assert run(["train", "--data", data, "--out", tmp_path / "run"]
                   + FAST) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("ddmc: io:"), err
        assert not (tmp_path / "run").exists()


def test_ablate_no_clobber_refuses_metrics_and_cell_dirs(tmp_path, capsys):
    data = tmp_path / "data"
    assert run(["gen-data", "--out", data] + FAST) == 0
    ab_dir = tmp_path / "ablate"
    ab_dir.mkdir()
    argv = ["ablate", "--data", data, "--out", ab_dir, "--no-clobber",
            "--grid", "dual,single,4x"] + FAST
    (ab_dir / "metrics.csv").write_text("")
    capsys.readouterr()
    assert run(argv) == 2
    assert "refus" in capsys.readouterr().err
    (ab_dir / "metrics.csv").unlink()
    (ab_dir / "single-dual-4x").mkdir()
    assert run(argv) == 2
    assert "refus" in capsys.readouterr().err
    assert os.listdir(ab_dir) == ["single-dual-4x"]
    assert os.listdir(ab_dir / "single-dual-4x") == []


def test_train_eval_render_ablate_end_to_end(tmp_path, capsys):
    data = tmp_path / "data"
    run_dir = tmp_path / "run"
    assert run(["gen-data", "--out", data] + FAST) == 0

    single = FAST + ["--set", "train.contrast_mode=single"]
    assert run(["train", "--data", data, "--out", run_dir] + single) == 0
    assert (run_dir / "reconstruction.ckpt").exists()
    assert (run_dir / "config_resolved.cfg").exists()
    assert (run_dir / "run.json").exists()
    logs = ("train_steps.csv", "val_epochs.csv")
    first = [(run_dir / name).read_bytes() for name in logs]

    # rerunning the train into the same directory rewrites its log rows
    # instead of appending duplicates
    assert run(["train", "--data", data, "--out", run_dir] + single) == 0
    assert [(run_dir / name).read_bytes() for name in logs] == first

    eval_dir = tmp_path / "eval"
    assert run(["eval", "--data", data, "--ckpt-dir", run_dir,
                "--out", eval_dir, "--split", "test"] + single) == 0
    with open(eval_dir / "metrics.csv") as f:
        rows = list(csv.reader(f))
    assert rows[0][0] == "cell"
    assert len(rows) > 1

    render_dir = tmp_path / "render"
    assert run(["render", "--data", data, "--ckpt-dir", run_dir,
                "--out", render_dir, "--split", "test"] + single) == 0
    pgms = [p for p in os.listdir(render_dir) if p.endswith(".pgm")]
    assert pgms and (render_dir / "report.csv").exists()

    ab_dir = tmp_path / "ablate"
    capsys.readouterr()
    assert run(["ablate", "--data", data, "--out", ab_dir,
                "--grid", "dual,single,4x;kspace,single,4x"] + FAST) == 0
    with open(ab_dir / "summary.csv") as f:
        rows = list(csv.reader(f))
    assert len(rows) == 3
    assert rows[1][0] == "single-dual-4x"
    assert rows[2][0] == "single-kspace-4x"
    printed = capsys.readouterr().out.splitlines()
    assert "image psnr" in printed[0] and "kspace psnr" in printed[0]
    assert printed[1].startswith("single-kspace-4x")
    assert "kspace psnr" in printed[1] and "image" not in printed[1]

    # rerunning the eval reproduces its CSVs byte for byte
    eval2 = tmp_path / "eval2"
    assert run(["eval", "--data", data, "--ckpt-dir", run_dir,
                "--out", eval2, "--split", "test"] + single) == 0
    assert (eval_dir / "metrics.csv").read_bytes() == \
        (eval2 / "metrics.csv").read_bytes()


def test_nonfinite_loss_exits_2_without_checkpoint(tmp_path, capsys):
    data = tmp_path / "data"
    assert run(["gen-data", "--out", data] + FAST) == 0
    rec = Dataset.load(str(data)).split("train")[0]
    rec.tgt.real.data[10, 10] = np.nan
    write_record(rec, record_path(str(data), rec.record_id))
    capsys.readouterr()
    rc = run(["train", "--data", data, "--out", tmp_path / "run",
              "--set", "train.contrast_mode=single"] + FAST)
    assert rc == 2
    err = capsys.readouterr().err
    assert "'reconstruction', epoch 0" in err and "loss is nan" in err
    assert not (tmp_path / "run" / "reconstruction.ckpt").exists()


def test_eval_without_checkpoints_is_validation_error(tmp_path, capsys):
    data = tmp_path / "data"
    assert run(["gen-data", "--out", data] + FAST) == 0
    rc = run(["eval", "--data", data, "--ckpt-dir", tmp_path / "empty",
              "--out", tmp_path / "eval"] + FAST)
    assert rc == 2


def test_missing_data_dir_is_io_error(tmp_path, capsys):
    rc = run(["train", "--data", tmp_path / "nope",
              "--out", tmp_path / "run"] + FAST)
    assert rc == 3
