"""Line masks, undersampling, and data consistency."""

from dataclasses import replace

import numpy as np
import pytest

from ddmc.acquisition import data_consistency_channels, make_mask
from ddmc.config import default_config
from ddmc.datagen import ContrastPairRecord
from ddmc.diffcore import Tensor, concat_channels, grad_check, mse
from ddmc.errors import MaskBudgetError, ShapeError, ValidationError
from ddmc.fourier import ComplexImage, fft2c_stack, ifft2c_stack
from ddmc.pipeline import prepare_record


def dc_loops(k_pred, y_u, sampled):
    """Elementwise data-consistency oracle: copy measured rows."""
    out = k_pred.copy()
    for i in range(out.shape[0]):
        for j in range(out.shape[1]):
            if sampled[i]:
                out[i, j] = y_u[i, j]
    return out


def random_k(rng, h=16, w=12):
    """A [1, 2, H, W] re/im k-space channel stack."""
    return np.stack([rng.standard_normal((h, w)),
                     rng.standard_normal((h, w))])[None]


def prepared(rng, h, w, accel, n_center=6):
    """prepare_record on a random complex target image: its y_u is the
    undersampled k-space and its x_u the zero-filled image."""
    img = ComplexImage.from_arrays(rng.standard_normal((h, w)),
                                   rng.standard_normal((h, w)))
    rec = ContrastPairRecord(record_id=0, seed=0, ref_aligned=img, tgt=img,
                             ref_moved=img,
                             true_motion=np.zeros(3),
                             brain_mask=np.ones((h, w), dtype=bool))
    plan = replace(default_config().stage_plan(), contrast_mode="single",
                   accel=accel, n_center=n_center, image_size=h)
    return prepare_record(rec, plan)


@pytest.mark.parametrize("h,r", [(192, 4), (192, 8), (64, 4), (64, 8)])
def test_mask_budget_and_centre(h, r):
    m = make_mask(h, r, seed=3)
    assert int(m.sampled.sum()) == h // r
    lo = h // 2 - 3
    assert m.sampled[lo:lo + 6].all()


def test_mask_determinism_and_seed_sensitivity():
    a = make_mask(64, 4, seed=11)
    b = make_mask(64, 4, seed=11)
    c = make_mask(64, 4, seed=12)
    assert np.array_equal(a.sampled, b.sampled)
    assert not np.array_equal(a.sampled, c.sampled)


def test_mask_budget_error():
    # floor(16/8) = 2 rows cannot cover the 6-row centre block
    with pytest.raises(MaskBudgetError):
        make_mask(16, 8)
    with pytest.raises(ValidationError):
        make_mask(64, 0)
    with pytest.raises(ValidationError):
        make_mask(64, 4, sigma_frac=0.0)


def test_negative_n_center_is_refused():
    # an empty centre block with budget - n_center drawn rows would sample
    # 10 rows of 32 at a nominal 4x; 0 rows stays legal
    with pytest.raises(ValidationError, match="n_center"):
        make_mask(32, 4, n_center=-2)
    assert make_mask(32, 4, n_center=0).sampled.sum() == 8


def test_mask_save_load_roundtrip(tmp_path):
    # the file is "height accel seed" then the ascending sampled rows
    m = make_mask(64, 4, seed=5)
    path = tmp_path / "mask.txt"
    m.save(path)
    head, rows = path.read_text().splitlines()
    assert head == "64 4 5"
    back = np.zeros(64, dtype=bool)
    back[[int(v) for v in rows.split()]] = True
    assert np.array_equal(back, m.sampled)


def test_undersample_zeroes_complement():
    rt = prepared(np.random.default_rng(0), 16, 12, 4, n_center=4)
    keep = rt.mask.sampled
    for y, k in zip(rt.y_u, rt.k_tgt):
        assert np.array_equal(y[keep], k[keep])
        assert not y[~keep].any()


def test_zero_filled_is_inverse_transform():
    rt = prepared(np.random.default_rng(1), 16, 12, 2, n_center=4)
    assert np.array_equal(rt.x_u, ifft2c_stack(rt.y_u))


def test_data_consistency_matches_loop_oracle():
    rng = np.random.default_rng(2)
    k_pred = random_k(rng)
    m = make_mask(16, 4, n_center=4, seed=2)
    y_u = random_k(rng) * m.plane(np.float64)
    out = data_consistency_channels(Tensor(k_pred), y_u, m.plane()).data
    for c in range(2):
        assert np.array_equal(out[0, c],
                              dc_loops(k_pred[0, c], y_u[0, c], m.sampled))


def test_data_consistency_idempotent_bit_exact():
    rng = np.random.default_rng(3)
    k_pred = random_k(rng)
    y_u = random_k(rng)
    m = make_mask(16, 4, n_center=4, seed=4)
    once = data_consistency_channels(Tensor(k_pred), y_u, m.plane())
    twice = data_consistency_channels(once, y_u, m.plane())
    assert np.array_equal(once.data, twice.data)
    # sampled rows equal the measurement bit for bit
    rows = m.row_indices()
    assert np.array_equal(once.data[..., rows, :], y_u[..., rows, :])


def test_data_consistency_shape_checks():
    rng = np.random.default_rng(4)
    m = make_mask(16, 4, n_center=4, seed=0)
    with pytest.raises(ShapeError):
        data_consistency_channels(Tensor(random_k(rng, h=12)),
                                  random_k(rng, h=12), m.plane())
    with pytest.raises(ShapeError):
        data_consistency_channels(Tensor(random_k(rng)),
                                  random_k(rng, h=12), m.plane())


def test_data_consistency_gradient_blocks_sampled_rows():
    # dL/dk_pred must vanish on sampled rows and pass through elsewhere
    rng = np.random.default_rng(5)
    m = make_mask(16, 4, n_center=4, seed=6)
    re = Tensor(rng.standard_normal((1, 1, 16, 12)), requires_grad=True)
    im = Tensor(rng.standard_normal((1, 1, 16, 12)), requires_grad=True)
    y_u = random_k(rng)
    tgt = Tensor(np.concatenate([rng.standard_normal((1, 1, 16, 12)),
                                 rng.standard_normal((1, 1, 16, 12))], 1))

    def fn(*_):
        out = data_consistency_channels(concat_channels([re, im]), y_u,
                                        m.plane())
        return mse(out, tgt)

    assert grad_check(fn, [re, im], n_samples=30,
                      rng=np.random.default_rng(7)) < 1e-6
    fn().backward()
    assert not re.grad[0, 0][m.sampled].any()
    assert re.grad[0, 0][~m.sampled].any()


def test_reconstruction_round_trip_keeps_sampled_rows():
    # image -> k -> undersample -> DC with any prediction -> sampled rows
    # of the result match the measured lines to float32 round-off
    rt = prepared(np.random.default_rng(10), 64, 64, 4)
    pred = Tensor(fft2c_stack(rt.x_u))
    out = data_consistency_channels(pred, rt.y_u, rt.plane).data
    rows = rt.mask.row_indices()
    assert np.max(np.abs(out[:, rows] - rt.y_u[:, rows])) < 1e-6
