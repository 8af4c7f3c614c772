"""Synthetic paired-contrast data: phantoms, motion, record files.

Each record holds one anatomy rendered under two intensity tables (a
fully-sampled reference contrast and the target contrast), a motion-
corrupted copy of the reference, the true motion parameters, and the
brain mask.  Geometry and motion draws are sub-seeded per record id so
any record can be regenerated in isolation.
"""

import json
import math
import struct
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (BadMagicError, RecordFormatError, TruncatedFileError,
                     ValidationError, VersionMismatchError)
from .fourier import ComplexImage
from .kernels import warp_forward

RECORD_MAGIC = b"DDMR"
RECORD_VERSION = 1
# header keys of a record's true_motion, in row order
_MOTION_KEYS = ("tx", "ty", "theta")

# Intensity per tissue class (index 0 is background).  The two tables
# invert bright/dark ordering between contrasts, like T1w against T2w.
REF_INTENSITIES = (0.0, 0.78, 0.42, 0.92, 0.30, 0.62)
TGT_INTENSITIES = (0.0, 0.35, 0.85, 0.25, 0.95, 0.55)


@dataclass(frozen=True)
class PhantomSpec:
    """Generation knobs for one dataset's phantoms."""

    size: int = 64
    n_structures: int = 6
    blur_sigma: float = 0.7
    seed: int = 0

    def __post_init__(self):
        if self.size < 16 or self.size % 4:
            raise ValidationError("phantom size must be >= 16 and divisible "
                                  "by 4, got %d" % self.size)
        if self.n_structures < 0:
            raise ValidationError("n_structures must be >= 0")
        if not 0 <= self.blur_sigma < math.inf:
            raise ValidationError("blur_sigma must be finite and >= 0, got "
                                  "%r" % self.blur_sigma)


@dataclass
class ContrastPairRecord:
    """One paired-contrast sample."""

    record_id: int
    seed: int
    ref_aligned: ComplexImage
    tgt: ComplexImage
    ref_moved: ComplexImage
    true_motion: np.ndarray      # float64 (3,): tx, ty px; theta rad
    brain_mask: np.ndarray       # bool [H, W]


def _paint_ellipse(canvas, cy, cx, ry, rx, angle, value, limit=None):
    h, w = canvas.shape
    yy, xx = np.mgrid[0:h, 0:w]
    ca, sa = np.cos(angle), np.sin(angle)
    xr = (xx - cx) * ca + (yy - cy) * sa
    yr = -(xx - cx) * sa + (yy - cy) * ca
    inside = (xr / rx) ** 2 + (yr / ry) ** 2 <= 1.0
    if limit is not None:
        inside &= limit
    canvas[inside] = value
    return inside


def phantom_class_map(spec, record_id):
    """Integer tissue-class map for one record (0 = background).

    The head is an ellipse of class 1; n_structures smaller ellipses of
    classes 2.. are painted inside it, later ones overwriting earlier.
    """
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, record_id]))
    s = spec.size
    cmap = np.zeros((s, s), dtype=np.int8)

    cy = s / 2 + rng.uniform(-0.02, 0.02) * s
    cx = s / 2 + rng.uniform(-0.02, 0.02) * s
    ry = rng.uniform(0.33, 0.40) * s
    rx = rng.uniform(0.26, 0.33) * s
    tilt = rng.uniform(-0.3, 0.3)
    head = _paint_ellipse(cmap, cy, cx, ry, rx, tilt, 1)

    n_classes = len(REF_INTENSITIES)
    for i in range(spec.n_structures):
        klass = 2 + i % (n_classes - 2)
        scy = cy + rng.uniform(-0.5, 0.5) * ry
        scx = cx + rng.uniform(-0.5, 0.5) * rx
        sry = rng.uniform(0.06, 0.16) * s
        srx = rng.uniform(0.06, 0.16) * s
        sang = rng.uniform(-np.pi, np.pi)
        _paint_ellipse(cmap, scy, scx, sry, srx, sang, klass, limit=head)
    return cmap


def _smooth_rows(x, w):
    """x [H, W] float32 filtered down its rows by the symmetric taps w
    (length 2r + 1), mirror-padded at the edges, summed in float64 and
    rounded to float32.  The centre tap comes first, then each pair of
    taps from the outermost in, as w[r + j] * (x[i - j] + x[i + j])."""
    r = len(w) // 2
    n = len(x)
    p = np.pad(x.astype(np.float64), ((r, r), (0, 0)), mode="symmetric")
    acc = w[r] * p[r:r + n]
    for j in range(r, 0, -1):
        acc += w[r + j] * (p[r - j:r - j + n] + p[r + j:r + j + n])
    return acc.astype(np.float32)


def _gaussian_blur(img, sigma):
    """A float32 image under a Gaussian of std sigma > 0, truncated at
    four sigmas: down the rows, then along them.  It gives the bits of
    scipy.ndimage.gaussian_filter(img, sigma)."""
    r = int(4 * sigma + 0.5)
    x = np.arange(-r, r + 1)
    w = np.exp(-0.5 / (sigma * sigma) * x ** 2)
    w = w / w.sum()
    return _smooth_rows(_smooth_rows(img, w).T, w).T


def _render(cmap, table, blur_sigma, mask):
    img = np.asarray(table, dtype=np.float32)[cmap]
    if blur_sigma > 0:
        img = _gaussian_blur(img, blur_sigma)
    img = np.where(mask, img, 0.0).astype(np.float32)
    return np.clip(img, 0.0, 1.0)


def gen_phantom_pair(spec, record_id):
    """Generate one motion-free record (ref_moved starts as a copy of
    ref_aligned with identity motion)."""
    cmap = phantom_class_map(spec, record_id)
    mask = cmap > 0
    ref = _render(cmap, REF_INTENSITIES, spec.blur_sigma, mask)
    tgt = _render(cmap, TGT_INTENSITIES, spec.blur_sigma, mask)
    return ContrastPairRecord(
        record_id=record_id,
        seed=spec.seed,
        ref_aligned=ComplexImage.from_arrays(ref),
        tgt=ComplexImage.from_arrays(tgt),
        ref_moved=ComplexImage.from_arrays(ref.copy()),
        true_motion=np.zeros(3),
        brain_mask=mask,
    )


def _check_motion(rot_range, trans_range, mm_per_px):
    if not (0 <= rot_range < math.inf and 0 <= trans_range < math.inf
            and 0 < mm_per_px < math.inf):
        raise ValidationError("motion ranges must be finite and >= 0 and "
                              "mm_per_px finite and > 0, got %r, %r, %r"
                              % (rot_range, trans_range, mm_per_px))


def augment_motion(rec, rot_range, trans_range, mm_per_px, seed):
    """Displace the reference by random rigid motion.

    rot_range is in degrees, trans_range in millimetres; mm_per_px
    converts the translation to pixels so the same physical motion
    scales across grid sizes.  The target image is untouched.
    """
    _check_motion(rot_range, trans_range, mm_per_px)
    rng = np.random.default_rng(np.random.SeedSequence([seed, rec.record_id]))
    t_px = trans_range / mm_per_px
    motion = np.array([rng.uniform(-t_px, t_px), rng.uniform(-t_px, t_px),
                       np.deg2rad(rng.uniform(-rot_range, rot_range))])
    re, im = warp_forward(rec.ref_aligned.channels()[None],
                          motion[None].astype(np.float32))[0]
    return replace(rec, ref_moved=ComplexImage.from_arrays(re, im),
                   true_motion=motion)


def write_record(rec, path):
    """Serialize a record: magic, version u16, length-prefixed JSON
    header, then float32 planes (ref_aligned, tgt, ref_moved as re/im
    pairs) and the uint8 brain mask."""
    h, w = rec.brain_mask.shape
    header = {
        "record_id": rec.record_id,
        "seed": rec.seed,
        "height": h,
        "width": w,
        "true_motion": dict(zip(_MOTION_KEYS, map(float, rec.true_motion))),
    }
    hb = json.dumps(header, sort_keys=True).encode("utf-8")
    out = bytearray(RECORD_MAGIC)
    out += struct.pack("<H", RECORD_VERSION)
    out += struct.pack("<I", len(hb))
    out += hb
    for img in (rec.ref_aligned, rec.tgt, rec.ref_moved):
        for plane in (img.real.data, img.imag.data):
            out += np.ascontiguousarray(plane, dtype="<f4").tobytes()
    out += np.ascontiguousarray(rec.brain_mask, dtype=np.uint8).tobytes()
    with open(path, "wb") as f:
        f.write(bytes(out))


def read_record(path):
    with open(path, "rb") as f:
        buf = f.read()
    offset = 0

    def take(n, what):
        nonlocal offset
        if offset + n > len(buf):
            raise TruncatedFileError("record %s ended reading %s"
                                     % (path, what))
        piece = buf[offset:offset + n]
        offset += n
        return piece

    if take(4, "magic") != RECORD_MAGIC:
        raise BadMagicError("%s is not a %r record" % (path, RECORD_MAGIC))
    version, = struct.unpack("<H", take(2, "version"))
    if version != RECORD_VERSION:
        raise VersionMismatchError("record version %d, expected %d"
                                   % (version, RECORD_VERSION))
    hlen, = struct.unpack("<I", take(4, "header length"))
    try:
        header = json.loads(take(hlen, "header").decode("utf-8"))
        record_id, seed = header["record_id"], header["seed"]
        h, w = header["height"], header["width"]
        motion = np.array([header["true_motion"][k] for k in _MOTION_KEYS],
                          dtype=np.float64)
    except KeyError as e:
        raise RecordFormatError("header of %s lacks field %s"
                                % (path, e)) from e
    except (ValueError, TypeError) as e:
        raise RecordFormatError("malformed header in %s: %s"
                                % (path, e)) from e
    if not (isinstance(h, int) and isinstance(w, int) and h > 0 and w > 0):
        raise RecordFormatError("bad height %r or width %r in %s"
                                % (h, w, path))
    if not np.isfinite(motion).all():
        raise RecordFormatError("non-finite true_motion %s in %s"
                                % (motion, path))
    planes = []
    for name in ("ref_aligned.re", "ref_aligned.im", "tgt.re", "tgt.im",
                 "ref_moved.re", "ref_moved.im"):
        raw = take(4 * h * w, name)
        planes.append(np.frombuffer(raw, dtype="<f4").reshape(h, w).copy())
    mask = np.frombuffer(take(h * w, "brain mask"), dtype=np.uint8)
    if offset != len(buf):
        raise TruncatedFileError("%d trailing bytes in %s"
                                 % (len(buf) - offset, path))
    return ContrastPairRecord(
        record_id=record_id,
        seed=seed,
        ref_aligned=ComplexImage.from_arrays(planes[0], planes[1]),
        tgt=ComplexImage.from_arrays(planes[2], planes[3]),
        ref_moved=ComplexImage.from_arrays(planes[4], planes[5]),
        true_motion=motion,
        brain_mask=mask.reshape(h, w).astype(bool),
    )


@dataclass
class DatasetManifest:
    """Split assignment and generation settings for a dataset dir."""

    size: int
    seed: int
    n_structures: int
    blur_sigma: float
    rot_range: float
    trans_range: float
    mm_per_px: float
    splits: dict = field(default_factory=dict)

    def to_json(self):
        return json.dumps(self.__dict__, sort_keys=True, indent=1)

    def save(self, path):
        with open(path, "w") as f:
            f.write(self.to_json() + "\n")

    @classmethod
    def load(cls, path):
        with open(path, "rb") as f:
            raw = f.read()
        try:
            return cls(**json.loads(raw))
        except (ValueError, TypeError) as e:
            raise RecordFormatError("malformed manifest %s: %s"
                                    % (path, e)) from e


def record_path(root, record_id):
    return "%s/rec_%05d.ddmr" % (root, record_id)


def build_dataset(out_dir, n_train, n_val, n_test, size=64, n_structures=6,
                  blur_sigma=0.7, seed=0, rot_range=10.0, trans_range=15.0,
                  mm_per_px=None):
    """Generate records + manifest under out_dir; returns the manifest.

    mm_per_px defaults to a fixed 192 mm field of view divided by the
    grid size, so physical motion ranges mean the same at any size.
    Every setting is checked before out_dir is created.
    """
    import os
    if mm_per_px is None:
        mm_per_px = 192.0 / size
    spec = PhantomSpec(size=size, n_structures=n_structures,
                       blur_sigma=blur_sigma, seed=seed)
    _check_motion(rot_range, trans_range, mm_per_px)
    if min(n_train, n_val, n_test) < 0:
        raise ValidationError("split counts must be >= 0, got n_train=%r, "
                              "n_val=%r, n_test=%r"
                              % (n_train, n_val, n_test))
    os.makedirs(out_dir, exist_ok=True)
    n = n_train + n_val + n_test
    ids = list(range(n))
    for rid in ids:
        rec = gen_phantom_pair(spec, rid)
        rec = augment_motion(rec, rot_range, trans_range, mm_per_px,
                             seed=seed + 1)
        write_record(rec, record_path(out_dir, rid))
    manifest = DatasetManifest(
        size=size, seed=seed, n_structures=n_structures,
        blur_sigma=blur_sigma, rot_range=rot_range, trans_range=trans_range,
        mm_per_px=mm_per_px,
        splits={"train": ids[:n_train],
                "val": ids[n_train:n_train + n_val],
                "test": ids[n_train + n_val:]})
    manifest.save(os.path.join(out_dir, "manifest.json"))
    return manifest


class Dataset:
    """A dataset directory loaded into memory."""

    def __init__(self, manifest, records):
        self.manifest = manifest
        self.records = records

    @classmethod
    def load(cls, root):
        import os
        manifest = DatasetManifest.load(os.path.join(root, "manifest.json"))
        records = {}
        for ids in manifest.splits.values():
            for rid in ids:
                records[rid] = read_record(record_path(root, rid))
        return cls(manifest, records)

    def split(self, name):
        if name not in self.manifest.splits:
            raise ValidationError("unknown split %r (have %s)"
                                  % (name, sorted(self.manifest.splits)))
        return [self.records[rid] for rid in self.manifest.splits[name]]
