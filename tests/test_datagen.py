"""Phantom generation, motion augmentation, and the record format."""

import json
import struct
from math import inf, nan

import numpy as np
import pytest
from scipy.ndimage import binary_erosion, gaussian_filter

from ddmc.datagen import (REF_INTENSITIES, TGT_INTENSITIES, Dataset,
                          DatasetManifest, PhantomSpec, _gaussian_blur,
                          augment_motion, build_dataset, gen_phantom_pair,
                          phantom_class_map, read_record, record_path,
                          write_record)
from ddmc.errors import (BadMagicError, RecordFormatError, TruncatedFileError,
                         ValidationError, VersionMismatchError)
from ddmc.geometry import invert
from ddmc.kernels import warp_forward

SPEC = PhantomSpec(size=64, n_structures=6, blur_sigma=0.7, seed=3)


def records_equal(a, b):
    for name in ("ref_aligned", "tgt", "ref_moved"):
        ia, ib = getattr(a, name), getattr(b, name)
        if not (np.array_equal(ia.real.data, ib.real.data)
                and np.array_equal(ia.imag.data, ib.imag.data)):
            return False
    return (np.array_equal(a.true_motion, b.true_motion)
            and np.array_equal(a.brain_mask, b.brain_mask)
            and a.record_id == b.record_id and a.seed == b.seed)


def test_gen_deterministic_and_background_zero():
    a = gen_phantom_pair(SPEC, 7)
    b = gen_phantom_pair(SPEC, 7)
    assert records_equal(a, b)
    bg = ~a.brain_mask
    assert not a.ref_aligned.real.data[bg].any()
    assert not a.tgt.real.data[bg].any()
    assert not records_equal(a, gen_phantom_pair(SPEC, 8))


def test_region_means_match_intensity_tables():
    # oracle: regenerate the class map, erode each class region by one
    # pixel to dodge blur bleed, require the rendered mean to sit within
    # 0.05 of the table entry; thin regions are skipped
    checked = 0
    for rid in range(8):
        rec = gen_phantom_pair(SPEC, rid)
        cmap = phantom_class_map(SPEC, rid)
        for klass in np.unique(cmap):
            if klass == 0:
                continue
            core = binary_erosion(cmap == klass)
            if core.sum() < 20:
                continue
            for img, table in ((rec.ref_aligned, REF_INTENSITIES),
                               (rec.tgt, TGT_INTENSITIES)):
                got = float(img.real.data[core].mean())
                assert abs(got - table[klass]) < 0.05, (rid, klass, got)
                checked += 1
    assert checked >= 20


def test_masks_shared_and_intensities_bounded():
    rec = gen_phantom_pair(SPEC, 1)
    assert np.array_equal(rec.brain_mask, phantom_class_map(SPEC, 1) > 0)
    for img in (rec.ref_aligned, rec.tgt):
        assert img.real.data.min() >= 0.0
        assert img.real.data.max() <= 1.0
        assert not img.imag.data.any()
    assert rec.brain_mask.dtype == bool


def test_spec_validation():
    with pytest.raises(ValidationError):
        PhantomSpec(size=10)
    with pytest.raises(ValidationError):
        PhantomSpec(size=66)


def test_augment_zero_ranges_identity():
    rec = gen_phantom_pair(SPEC, 2)
    out = augment_motion(rec, 0.0, 0.0, 3.0, seed=5)
    assert np.array_equal(out.true_motion, np.zeros(3))
    assert np.array_equal(out.ref_moved.real.data, rec.ref_aligned.real.data)


def test_augment_bounds_over_many_draws():
    rec = gen_phantom_pair(SPEC, 3)
    rot, trans, mmpp = 10.0, 15.0, 3.0
    t_px = trans / mmpp
    for seed in range(200):
        m = augment_motion(rec, rot, trans, mmpp, seed=seed).true_motion
        assert m.shape == (3,) and m.dtype == np.float64
        tx, ty, theta = m
        assert abs(tx) <= t_px and abs(ty) <= t_px
        assert abs(np.degrees(theta)) <= rot


def test_augment_inverse_warp_recovers_reference():
    rec = gen_phantom_pair(SPEC, 4)
    moved = augment_motion(rec, 10.0, 15.0, 3.0, seed=11)
    undo = invert(moved.true_motion[None]).astype(np.float32)
    back = warp_forward(moved.ref_moved.channels()[None], undo)[0]
    core = binary_erosion(rec.brain_mask, iterations=3)
    err = (back[0] - rec.ref_aligned.real.data)[core]
    assert float((err ** 2).mean()) < 1e-3


def test_augment_leaves_target_untouched():
    rec = gen_phantom_pair(SPEC, 5)
    moved = augment_motion(rec, 10.0, 15.0, 3.0, seed=1)
    assert np.array_equal(moved.tgt.real.data, rec.tgt.real.data)
    assert np.array_equal(moved.ref_aligned.real.data,
                          rec.ref_aligned.real.data)


def test_augment_validation():
    rec = gen_phantom_pair(SPEC, 6)
    with pytest.raises(ValidationError):
        augment_motion(rec, -1.0, 15.0, 3.0, seed=0)
    with pytest.raises(ValidationError):
        augment_motion(rec, 10.0, 15.0, 0.0, seed=0)
    for bad in ((nan, 15.0, 3.0), (inf, 15.0, 3.0), (10.0, inf, 3.0),
                (10.0, nan, 3.0), (10.0, 15.0, nan), (10.0, 15.0, inf)):
        with pytest.raises(ValidationError):
            augment_motion(rec, *bad, seed=0)


def test_record_roundtrip_bit_exact(tmp_path):
    rec = augment_motion(gen_phantom_pair(SPEC, 9), 10.0, 15.0, 3.0, seed=2)
    path = str(tmp_path / "rec.ddmr")
    write_record(rec, path)
    assert records_equal(read_record(path), rec)


def test_record_corruption_errors(tmp_path):
    rec = gen_phantom_pair(SPEC, 10)
    path = str(tmp_path / "rec.ddmr")
    write_record(rec, path)
    raw = open(path, "rb").read()

    bad = str(tmp_path / "bad.ddmr")
    with open(bad, "wb") as f:
        f.write(b"NOPE" + raw[4:])
    with pytest.raises(BadMagicError):
        read_record(bad)

    with open(bad, "wb") as f:
        f.write(raw[:4] + struct.pack("<H", 99) + raw[6:])
    with pytest.raises(VersionMismatchError):
        read_record(bad)

    with open(bad, "wb") as f:
        f.write(raw[:-64])
    with pytest.raises(TruncatedFileError):
        read_record(bad)

    with open(bad, "wb") as f:
        f.write(raw + b"\x00" * 8)
    with pytest.raises(TruncatedFileError):
        read_record(bad)

    # the header: not JSON, a key missing, a non-finite motion, a size
    # that is not a positive integer
    hlen, = struct.unpack("<I", raw[6:10])
    header = json.loads(raw[10:10 + hlen])
    no_motion = {k: v for k, v in header.items() if k != "true_motion"}
    nan_tx = dict(header, true_motion=dict(header["true_motion"], tx=nan))
    inf_theta = dict(header,
                     true_motion=dict(header["true_motion"], theta=-inf))
    for hb in [b"not json"] + [json.dumps(h).encode() for h in (
            no_motion, nan_tx, inf_theta, dict(header, height="64"),
            dict(header, width=64.0), dict(header, height=0))]:
        with open(bad, "wb") as f:
            f.write(raw[:6] + struct.pack("<I", len(hb)) + hb
                    + raw[10 + hlen:])
        with pytest.raises(RecordFormatError):
            read_record(bad)


def test_build_dataset_splits_and_determinism(tmp_path):
    root_a = str(tmp_path / "a")
    root_b = str(tmp_path / "b")
    for root in (root_a, root_b):
        build_dataset(root, n_train=4, n_val=2, n_test=3, size=32,
                      n_structures=4, seed=6)
    man = DatasetManifest.load(root_a + "/manifest.json")
    ids = [i for s in ("train", "val", "test") for i in man.splits[s]]
    assert sorted(ids) == list(range(9))
    assert len(set(ids)) == 9
    for rid in ids:
        a = open(record_path(root_a, rid), "rb").read()
        b = open(record_path(root_b, rid), "rb").read()
        assert a == b

    ds = Dataset.load(root_a)
    assert len(ds.split("train")) == 4
    assert len(ds.split("test")) == 3
    with pytest.raises(ValidationError):
        ds.split("bogus")


def test_motion_translation_scales_with_grid(tmp_path):
    # same physical range, half the grid -> half the pixel translation
    root = str(tmp_path / "c")
    build_dataset(root, n_train=1, n_val=0, n_test=0, size=32,
                  n_structures=2, seed=0, trans_range=15.0)
    man = DatasetManifest.load(root + "/manifest.json")
    assert man.mm_per_px == pytest.approx(192.0 / 32)


@pytest.mark.parametrize("size", [32, 64, 128])
@pytest.mark.parametrize("sigma", [0.3, 0.7, 1.5, 3.0])
def test_gaussian_blur_gives_scipys_bits(size, sigma):
    # scipy's gaussian_filter is the oracle: float32 in, float32 out
    rng = np.random.default_rng(size)
    img = rng.uniform(0, 1, (size, size)).astype(np.float32)
    got = _gaussian_blur(img, sigma)
    assert got.dtype == np.float32
    assert np.array_equal(got, gaussian_filter(img, sigma))


def test_phantom_blur_gives_scipys_bits():
    spec = PhantomSpec(size=64, n_structures=6, blur_sigma=0.7, seed=9)
    for rid in range(4):
        cmap = phantom_class_map(spec, rid)
        for table in (REF_INTENSITIES, TGT_INTENSITIES):
            img = np.asarray(table, dtype=np.float32)[cmap]
            assert np.array_equal(_gaussian_blur(img, spec.blur_sigma),
                                  gaussian_filter(img, spec.blur_sigma))


@pytest.mark.parametrize("sigma", [-3.0, nan, inf])
def test_phantom_spec_refuses_a_bad_blur(sigma):
    with pytest.raises(ValidationError):
        PhantomSpec(blur_sigma=sigma)


def test_negative_split_count_is_refused_before_writing(tmp_path):
    root = tmp_path / "neg"
    for counts in ((-2, 1, 1), (1, -1, 1), (1, 1, -3)):
        with pytest.raises(ValidationError):
            build_dataset(str(root), *counts, size=32)
    assert not root.exists()
