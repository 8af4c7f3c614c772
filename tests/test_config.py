"""Config schema, overrides, and resolved snapshots."""

import dataclasses

import pytest

from ddmc.config import (SCHEMA, SNAPSHOT_NAME, default_config, default_text,
                         load_config)
from ddmc.errors import ValidationError
from ddmc.objectives import LossWeights
from ddmc.pipeline import StagePlan


def test_defaults_cover_schema():
    cfg = default_config()
    for section, keys in SCHEMA.items():
        for key in keys:
            cfg["%s.%s" % (section, key)]
    assert cfg["run.seed"] == 0
    assert cfg["data.size"] == 64
    assert cfg["mask.accel"] == 4
    assert cfg["loss.alpha"] == pytest.approx(1e-2)
    assert cfg["loss.beta"] == pytest.approx(0.7)
    assert cfg["train.contrast_mode"] == "fused"
    assert cfg["train.domain_mode"] == "dual"
    assert cfg["model.reg_channels"] == (16, 32, 32)
    assert cfg["model.reg_refine_iters"] == 3


def test_file_values_and_unknowns(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("[run]\nseed = 9\n\n[mask]\naccel = 8\n")
    cfg = load_config(str(path))
    assert cfg["run.seed"] == 9
    assert cfg["mask.accel"] == 8
    assert cfg["data.size"] == 64

    path.write_text("[run]\nseed = 9\nbogus = 1\n")
    with pytest.raises(ValidationError):
        load_config(str(path))
    path.write_text("[nosuch]\nseed = 9\n")
    with pytest.raises(ValidationError):
        load_config(str(path))


def test_overrides_apply_and_validate():
    cfg = load_config(None, overrides=["train.batch_size=4",
                                       "loss.beta=0.5",
                                       "model.reg_channels=8,8",
                                       "model.reg_refine_iters=2"])
    assert cfg["train.batch_size"] == 4
    assert cfg["loss.beta"] == 0.5
    assert cfg["model.reg_channels"] == (8, 8)
    assert cfg.stage_plan().reg_refine_iters == 2
    with pytest.raises(ValidationError):
        load_config(None, overrides=["train.nope=1"])
    with pytest.raises(ValidationError):
        load_config(None, overrides=["no_dot_here"])
    with pytest.raises(ValidationError):
        load_config(None, overrides=["train.batch_size=soup"])


def test_every_float_key_rejects_nonfinite_values():
    floats = ["%s.%s" % (section, key) for section, keys in SCHEMA.items()
              for key, (_, default) in keys.items()
              if isinstance(default, float)]
    assert len(floats) == 8
    for dotted in floats:
        for text in ("nan", "inf", "-inf", "NaN", "-Infinity"):
            with pytest.raises(ValidationError, match=dotted):
                load_config(None, overrides=["%s=%s" % (dotted, text)])
    assert load_config(None, overrides=["loss.beta=1e-3"])["loss.beta"] == 1e-3


def test_snapshot_text_roundtrip(tmp_path):
    cfg = load_config(None, overrides=["run.seed=5", "data.n_train=17"])
    out_dir = tmp_path / "run"
    snap = cfg.write_snapshot(str(out_dir))
    assert snap.endswith(SNAPSHOT_NAME)
    back = load_config(snap)
    assert back.values == cfg.values
    assert back.text() == cfg.text()


def test_default_text_parses_back():
    import configparser
    parser = configparser.ConfigParser()
    parser.read_string(default_text())
    assert set(parser.sections()) == set(SCHEMA)


def test_stage_plan_resolution():
    cfg = load_config(None, overrides=[
        "train.max_epochs=12", "train.synthesis_max_epochs=3",
        "train.contrast_mode=single", "train.batch_size=4",
        "train.lr=1e-3", "train.patience=5"])
    plan = cfg.stage_plan()
    assert (plan.batch_size, plan.lr, plan.patience) == (4, 1e-3, 5)
    assert plan.max_epochs == {"synthesis": 3, "registration": 12,
                               "reconstruction": 12}
    assert plan.contrast_mode == "single"
    assert plan.required_stages() == ("reconstruction",)


def test_plan_records_declare_no_defaults():
    # SCHEMA is the one place a default is written
    for cls in (StagePlan, LossWeights):
        for f in dataclasses.fields(cls):
            assert f.default is dataclasses.MISSING, (cls.__name__, f.name)
            assert f.default_factory is dataclasses.MISSING, \
                (cls.__name__, f.name)


def test_dataset_args_auto_mm_per_px():
    cfg = load_config(None)
    args = cfg.dataset_args()
    assert args["mm_per_px"] is None
    cfg2 = load_config(None, overrides=["data.mm_per_px=3.0"])
    assert cfg2.dataset_args()["mm_per_px"] == 3.0


def test_bad_mode_rejected_at_load():
    with pytest.raises(ValidationError):
        load_config(None, overrides=["train.domain_mode=both"])
    with pytest.raises(ValidationError):
        load_config(None, overrides=["train.contrast_mode=stacked"])
