"""Run configuration: a small typed key=value tree with sections.

One text document drives every subcommand.  All keys have embedded
defaults, unknown sections or keys are rejected rather than ignored,
and each run writes its fully resolved snapshot (seeds included, even
when defaulted) next to its outputs so an invocation can always be
replayed from the artifacts alone.
"""

import configparser
import io
import math
import os

from .errors import ValidationError
from .objectives import DOMAIN_MODES, IMAGE_LOSS_KINDS, LossWeights
from .pipeline import CONTRAST_MODES, STAGES, StagePlan

SNAPSHOT_NAME = "config_resolved.cfg"


def _int_tuple(text):
    try:
        return tuple(int(v) for v in str(text).split(","))
    except ValueError:
        raise ValidationError("expected comma-separated integers, got %r"
                              % text)


def _float(text):
    v = float(text)
    if not math.isfinite(v):
        raise ValueError("expected a finite number, got %r" % text)
    return v


def _choice(options):
    def conv(text):
        t = str(text).strip()
        if t not in options:
            raise ValidationError("expected one of %s, got %r"
                                  % (", ".join(options), t))
        return t
    return conv


# section -> key -> (converter, default)
SCHEMA = {
    "run": {
        "seed": (int, 0),
    },
    "data": {
        "size": (int, 64),
        "n_train": (int, 200),
        "n_val": (int, 40),
        "n_test": (int, 60),
        "n_structures": (int, 6),
        "blur_sigma": (_float, 0.7),
        "rot_deg": (_float, 10.0),
        "trans_mm": (_float, 15.0),
        "mm_per_px": (_float, 0.0),      # 0 means 192 mm FOV / size
        "data_seed": (int, 2024),
    },
    "mask": {
        "accel": (int, 4),
        "n_center": (int, 6),
        "sigma_frac": (_float, 0.25),
        "mask_seed": (int, 1009),
    },
    "loss": {
        "alpha": (_float, 1e-2),
        "beta": (_float, 0.7),
        "image_loss": (_choice(IMAGE_LOSS_KINDS), "complex"),
    },
    "model": {
        "base_channels": (int, 16),
        "depth": (int, 3),
        "reg_channels": (_int_tuple, (16, 32, 32)),
        "reg_fc_hidden": (int, 64),
        "reg_refine_iters": (int, 3),
    },
    "train": {
        "contrast_mode": (_choice(CONTRAST_MODES), "fused"),
        "domain_mode": (_choice(DOMAIN_MODES), "dual"),
        "batch_size": (int, 8),
        "lr": (_float, 2e-4),
        "max_epochs": (int, 30),
        "patience": (int, 10),
        # 0 falls back to max_epochs
        "synthesis_max_epochs": (int, 0),
        "registration_max_epochs": (int, 0),
        "reconstruction_max_epochs": (int, 0),
    },
}


class RunConfig:
    """Resolved values for every schema key."""

    def __init__(self, values):
        self.values = values

    def __getitem__(self, key):
        section, name = key.split(".", 1)
        return self.values[section][name]

    def stage_plan(self):
        """The run's StagePlan.  The [mask], [model] and [train] keys
        are plan fields of the same name, apart from the epoch keys,
        which become the per-stage max_epochs."""
        v = self.values
        train = dict(v["train"])
        epochs = train.pop("max_epochs")
        max_epochs = {s: train.pop(s + "_max_epochs") or epochs
                      for s in STAGES}
        plan = StagePlan(**v["mask"], **v["model"], **train,
                         image_loss=v["loss"]["image_loss"],
                         weights=LossWeights(alpha=v["loss"]["alpha"],
                                             beta=v["loss"]["beta"]),
                         image_size=v["data"]["size"], max_epochs=max_epochs)
        plan.validate()
        return plan

    def dataset_args(self):
        d = self.values["data"]
        return {"n_train": d["n_train"], "n_val": d["n_val"],
                "n_test": d["n_test"], "size": d["size"],
                "n_structures": d["n_structures"],
                "blur_sigma": d["blur_sigma"], "seed": d["data_seed"],
                "rot_range": d["rot_deg"], "trans_range": d["trans_mm"],
                "mm_per_px": d["mm_per_px"] or None}

    def seed(self):
        return self.values["run"]["seed"]

    def text(self):
        """Serialise every key explicitly (the resolved snapshot)."""
        out = io.StringIO()
        for section in SCHEMA:
            out.write("[%s]\n" % section)
            for key in SCHEMA[section]:
                v = self.values[section][key]
                if isinstance(v, tuple):
                    v = ",".join(str(x) for x in v)
                out.write("%s = %s\n" % (key, v))
            out.write("\n")
        return out.getvalue()

    def write_snapshot(self, out_dir):
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, SNAPSHOT_NAME)
        with open(path, "w") as f:
            f.write(self.text())
        return path


def default_config():
    return RunConfig({s: {k: d for k, (_, d) in keys.items()}
                      for s, keys in SCHEMA.items()})


def default_text():
    return default_config().text()


def _apply(values, section, key, raw):
    if section not in SCHEMA:
        raise ValidationError("unknown config section [%s] (have %s)"
                              % (section, ", ".join(SCHEMA)))
    if key not in SCHEMA[section]:
        raise ValidationError("unknown key %r in section [%s] (have %s)"
                              % (key, section, ", ".join(SCHEMA[section])))
    conv = SCHEMA[section][key][0]
    try:
        values[section][key] = conv(raw)
    except ValidationError:
        raise
    except (TypeError, ValueError) as e:
        raise ValidationError("bad value for %s.%s: %s" % (section, key, e))


def load_config(path=None, overrides=()):
    """Defaults, then the file, then key=value overrides, in that order.

    Overrides use dotted names: ``train.lr=1e-3``.
    """
    cfg = default_config()
    if path is not None:
        parser = configparser.ConfigParser(interpolation=None)
        try:
            with open(path) as f:
                parser.read_file(f)
        except configparser.Error as e:
            raise ValidationError("cannot parse config %s: %s" % (path, e))
        for section in parser.sections():
            for key, raw in parser.items(section):
                _apply(cfg.values, section, key, raw)
        if parser.defaults():
            raise ValidationError("top-level keys outside a section: %s"
                                  % ", ".join(parser.defaults()))
    for item in overrides:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ValidationError("override %r is not section.key=value"
                                  % item)
        dotted, raw = item.split("=", 1)
        section, key = dotted.split(".", 1)
        _apply(cfg.values, section.strip(), key.strip(), raw.strip())
    return cfg
