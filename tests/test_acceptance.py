"""Acceptance gate: one test and one printed verdict line per criterion.

Each criterion prints "CRITERION <n>: PASS|FAIL - <label>" so the gate
can be read off the pytest -s output directly.  Tolerances are pinned
in-line; the two closed-form "exact" values are asserted bit-equal to
their documented substitution expressions (IEEE double keeps them a
few ulp away from the decimal literals).
"""

import contextlib
import os
import time
from dataclasses import replace

import numpy as np

from ddmc.acquisition import data_consistency_channels, make_mask
from ddmc.cli import main as cli_main
from ddmc.config import default_config
from ddmc.datagen import Dataset, build_dataset
from ddmc.diffcore import (AdamState, Tensor, adam_step, batchnorm2d,
                           conv2d, fully_connected, grad_check,
                           magnitude_channels, maxpool2x2, mse, relu,
                           upsample2x, warp_rigid)
from ddmc.evalkit import PSNR_CAP, psnr, ssim
from ddmc.fourier import fft2c_channels, fft2c_stack, ifft2c_stack
from ddmc.kernels import warp_forward
from ddmc.models import (ReconNet, ReconNetConfig, RegNet, RegNetConfig,
                         register_refined)
from ddmc.objectives import (STAGES, LossWeights, parseval_collapse_check,
                             stage_loss, weighted_total)
from ddmc.pipeline import Checkpoint, RunLog, forward_stage, train_stages


@contextlib.contextmanager
def criterion(n, label):
    try:
        yield
    except BaseException:
        print("CRITERION %d: FAIL - %s" % (n, label))
        raise
    print("CRITERION %d: PASS - %s" % (n, label))


def dft2_centered_loops(z):
    h, w = z.shape
    out = np.zeros((h, w), np.complex128)
    ii = np.arange(h) - h // 2
    jj = np.arange(w) - w // 2
    for k in range(h):
        for l in range(w):
            kk = k - h // 2
            ll = l - w // 2
            phase = np.exp(-2j * np.pi * (kk * ii[:, None] / h
                                          + ll * jj[None, :] / w))
            out[k, l] = (z * phase).sum() / np.sqrt(h * w)
    return out


def test_criterion_1_numerical_kernels():
    with criterion(1, "numerical kernel suite"):
        rng = np.random.default_rng(0)

        # float32 64x64 round trip < 1e-6 ([2, H, W] re/im stacks)
        img = np.stack([rng.standard_normal((64, 64)).astype(np.float32),
                        rng.standard_normal((64, 64)).astype(np.float32)])
        back = ifft2c_stack(fft2c_stack(img))
        assert np.max(np.abs(back[0] - img[0])) < 1e-6
        assert np.max(np.abs(back[1] - img[1])) < 1e-6

        # double 8x8 against the brute-force DFT < 1e-10
        small = np.stack([rng.standard_normal((8, 8)),
                          rng.standard_normal((8, 8))])
        k = fft2c_stack(small)
        z_img = small[0] + 1j * small[1]
        z_k = k[0] + 1j * k[1]
        want = dft2_centered_loops(z_img)
        assert np.max(np.abs(z_k - want)) < 1e-10

        # Parseval relative error < 1e-6
        e_img = np.sum(np.abs(z_img) ** 2)
        e_k = np.sum(np.abs(z_k) ** 2)
        assert abs(e_img - e_k) / e_img < 1e-6

        # finite-difference checks for every autodiff primitive < 1e-5
        fd_rng = np.random.default_rng(1)
        x = Tensor(fd_rng.standard_normal((2, 3, 8, 8)), requires_grad=True)
        w = Tensor(fd_rng.standard_normal((4, 3, 3, 3)) * 0.4,
                   requires_grad=True)
        b = Tensor(fd_rng.standard_normal(4) * 0.1, requires_grad=True)
        gamma = Tensor(fd_rng.uniform(0.7, 1.3, 4), requires_grad=True)
        beta = Tensor(fd_rng.standard_normal(4) * 0.1, requires_grad=True)
        fw = Tensor(fd_rng.standard_normal((5, 4 * 4 * 4)) * 0.2,
                    requires_grad=True)
        fb = Tensor(fd_rng.standard_normal(5) * 0.1, requires_grad=True)
        tgt = Tensor(fd_rng.standard_normal((2, 5)))

        def net_fn(*_):
            from ddmc.diffcore import reshape
            h1 = relu(conv2d(x, w, b))
            h1 = batchnorm2d(h1, gamma, beta,
                             Tensor(np.zeros(4)), Tensor(np.ones(4)), True)
            h1 = maxpool2x2(upsample2x(maxpool2x2(h1)))
            flat = reshape(h1, (2, 4 * 4 * 4))
            return mse(fully_connected(flat, fw, fb), tgt)

        err = grad_check(net_fn, [x, w, b, gamma, beta, fw, fb],
                         n_samples=60, rng=np.random.default_rng(2))
        assert err < 1e-5

        mag_x = Tensor(fd_rng.standard_normal((1, 2, 6, 6)) + 0.5,
                       requires_grad=True)
        mag_t = Tensor(fd_rng.standard_normal((1, 1, 6, 6)))

        def mag_fn(*_):
            return mse(magnitude_channels(mag_x), mag_t)

        assert grad_check(mag_fn, [mag_x], n_samples=20,
                          rng=np.random.default_rng(3)) < 1e-5

        # rigid-warp parameter gradients < 1e-4 relative
        wx = Tensor(np.asarray(
            np.random.default_rng(4).uniform(0.2, 0.8, (2, 2, 12, 12))),
            requires_grad=False)
        wp = Tensor(np.array([[1.2, -0.7, 0.2], [-0.4, 0.9, -0.15]]),
                    requires_grad=True)
        wt = Tensor(np.random.default_rng(5).standard_normal((2, 2, 12, 12)))

        def warp_fn(*_):
            return mse(warp_rigid(wx, wp), wt)

        assert grad_check(warp_fn, [wp], n_samples=6,
                          rng=np.random.default_rng(6)) < 1e-4


def test_criterion_2_acquisition():
    with criterion(2, "acquisition suite"):
        for h, r in ((192, 4), (192, 8), (64, 4), (64, 8)):
            m = make_mask(h, r, seed=9)
            assert int(m.sampled.sum()) == h // r
            lo = h // 2 - 3
            assert m.sampled[lo:lo + 6].all()

        # [1, 2, H, W] re/im stacks: undersampled k-space y_ch and its
        # zero-filled image x_ch
        rng = np.random.default_rng(7)
        planes = [rng.standard_normal((64, 64)) for _ in range(2)]
        img = np.stack(planes)[None].astype(np.float32)
        mask = make_mask(64, 4, seed=11)
        y_ch = fft2c_stack(img) * mask.plane()
        x_ch = ifft2c_stack(y_ch)

        pred = Tensor(fft2c_stack(x_ch))
        once = data_consistency_channels(pred, y_ch, mask.plane())
        twice = data_consistency_channels(once, y_ch, mask.plane())
        assert np.array_equal(once.data, twice.data)

        # every reconstruction output keeps the measured rows < 1e-6
        rows = mask.row_indices()
        image_plan = replace(default_config().stage_plan(),
                             domain_mode="image")
        for in_ch, inputs in ((2, x_ch),
                              (4, np.concatenate([img, x_ch], 1))):
            net = ReconNet(ReconNetConfig(in_channels=in_ch, base_channels=4,
                                          depth=2),
                           rng=np.random.default_rng(8)).eval_mode()
            out = forward_stage("reconstruction", image_plan,
                                {"recon_image": net},
                                {"in_image": inputs, "y_u": y_ch,
                                 "plane": mask.plane()})
            k_out = fft2c_channels(out["image"]).data
            err = np.max(np.abs(k_out[..., rows, :] - y_ch[..., rows, :]))
            assert err < 1e-6
        k_net = ReconNet(ReconNetConfig(in_channels=2, base_channels=4,
                                        depth=2),
                         rng=np.random.default_rng(9)).eval_mode()
        k_out = forward_stage("reconstruction",
                              replace(default_config().stage_plan(),
                                      domain_mode="kspace"),
                              {"recon_kspace": k_net},
                              {"in_kspace": y_ch, "y_u": y_ch,
                               "plane": mask.plane()})["kspace"].data
        assert np.array_equal(k_out[..., rows, :], y_ch[..., rows, :])


def test_criterion_3_loss_identities():
    with criterion(3, "loss identity suite"):
        w = LossWeights(alpha=1e-2, beta=0.7)
        total = weighted_total(1.0, 2.0, 3.0, 4.0, w)
        assert abs(total - 3.148) < 1e-12
        assert total == 1.0 + 0.01 * 2.0 + 0.7 * (3.0 + 0.01 * 4.0)

        rng = np.random.default_rng(10)
        from ddmc.fourier import fft2c_channels
        out = {"image": Tensor(rng.standard_normal((2, 2, 8, 8))),
               "kspace": Tensor(rng.standard_normal((2, 2, 8, 8)))}
        gt_img = rng.standard_normal((2, 2, 8, 8))
        truth = {"image": Tensor(gt_img),
                 "kspace": Tensor(fft2c_channels(Tensor(gt_img)).data.copy())}
        gap_ik, gap_ki = parseval_collapse_check(out, truth)
        rep = stage_loss("reconstruction", out, truth, w)
        assert gap_ik / rep.components["kspace"] < 1e-5
        assert gap_ki / rep.components["image"] < 1e-5

        gap_ik_m, gap_ki_m = parseval_collapse_check(
            out, truth, image_loss="magnitude")
        assert gap_ik_m > 1e-6 and gap_ki_m > 1e-6


def test_criterion_4_registration_recovery(tmp_path):
    with criterion(4, "registration recovery"):
        t0 = time.time()
        root = str(tmp_path / "regds")
        build_dataset(root, n_train=200, n_val=20, n_test=50, size=64,
                      n_structures=6, seed=3)
        ds = Dataset.load(root)

        def planes(recs):
            return np.stack([np.stack([r.tgt.real.data, r.tgt.imag.data])
                             for r in recs]).astype(np.float32)

        rot, tra = np.radians(10.0), 5.0

        def sample_motion(rng, n):
            """[n, 3] float32 rows (tx, ty, theta)."""
            return np.stack([rng.uniform(-tra, tra, n),
                             rng.uniform(-tra, tra, n),
                             rng.uniform(-rot, rot, n)],
                            axis=1).astype(np.float32)

        fix_tr = planes(ds.split("train"))
        fix_te = planes(ds.split("test"))
        assert len(fix_te) >= 50

        rng_te = np.random.default_rng(77)
        motion_te = sample_motion(rng_te, len(fix_te))
        mov_te = warp_forward(fix_te, motion_te)
        tx, ty, th = motion_te.T
        # the estimate aligning moving back to fixed is the inverse motion
        c, s = np.cos(-th), np.sin(-th)
        want = np.stack([-(c * tx - s * ty), -(s * tx + c * ty), -th], 1)

        net = RegNet(RegNetConfig(in_size=64, channels=(16, 32, 32),
                                  fc_hidden=64),
                     rng=np.random.default_rng(5)).train_mode()
        n = len(fix_tr)
        ep_total = 0
        for epochs, lr in ((120, 1e-3), (120, 3e-4), (60, 1e-4)):
            opt = AdamState.create(net.params, lr)
            for _ in range(epochs):
                rng = np.random.default_rng(
                    np.random.SeedSequence([9, ep_total]))
                mov = warp_forward(fix_tr, sample_motion(rng, n))
                order = rng.permutation(n)
                for i in range(0, n, 8):
                    ids = order[i:i + 8]
                    net.params.zero_grads()
                    mov_b = Tensor(mov[ids])
                    p = net(mov_b, Tensor(fix_tr[ids]))
                    loss = mse(warp_rigid(mov_b, p), Tensor(fix_tr[ids]))
                    loss.backward()
                    adam_step(net.params, opt)
                ep_total += 1

        net.eval_mode()
        est, _ = register_refined(net, mov_te, fix_te, n_iters=4)
        err = np.abs(est - want)
        mae_px = float(np.mean(err[:, :2]))
        mae_deg = float(np.degrees(np.mean(err[:, 2])))
        print("  registration MAE %.3f px, %.3f deg over %d pairs (%.0fs)"
              % (mae_px, mae_deg, len(fix_te), time.time() - t0))
        assert mae_px <= 1.0
        assert mae_deg <= 1.0


def _tiny_plan():
    plan = replace(default_config().stage_plan(), contrast_mode="fused",
                   domain_mode="dual", accel=4, image_size=32,
                   base_channels=4, depth=2, reg_channels=(4, 4),
                   reg_fc_hidden=8, batch_size=2, lr=1e-3, patience=2,
                   max_epochs={s: 2 for s in STAGES},
                   weights=LossWeights(alpha=1e-2, beta=0.7))
    plan.validate()
    return plan


def test_criterion_6_staging_and_determinism(tmp_path):
    with criterion(6, "staging and determinism"):
        root = str(tmp_path / "ds")
        build_dataset(root, n_train=4, n_val=2, n_test=2, size=32,
                      n_structures=3, seed=5)
        dataset = Dataset.load(root)
        plan = _tiny_plan()

        outs = []
        for tag in ("a", "b"):
            out = str(tmp_path / tag)
            log = RunLog(out)
            cks = train_stages(STAGES, dataset, plan, {}, 7, out, log)
            log.finish(seed=7, config=plan.to_dict())
            outs.append(out)

        # freeze invariance: earlier stages' parameters bit-identical
        # before and after the later stages trained
        synth_final = Checkpoint.load(os.path.join(outs[0],
                                                   "synthesis.ckpt"))
        for name, ps in synth_final.param_sets.items():
            assert ps.content_hash() == cks["synthesis"].param_sets[
                name].content_hash()

        # rerun reproduces checkpoints and CSVs byte for byte
        for fname in ("synthesis.ckpt", "registration.ckpt",
                      "reconstruction.ckpt", "train_steps.csv",
                      "val_epochs.csv"):
            a = open(os.path.join(outs[0], fname), "rb").read()
            b = open(os.path.join(outs[1], fname), "rb").read()
            assert a == b, fname

        # out-of-order stage invocation exits with code 2
        rc = cli_main(["train", "--data", root,
                       "--out", str(tmp_path / "oops"),
                       "--stage", "reconstruction",
                       "--set", "data.size=32",
                       "--set", "model.base_channels=4",
                       "--set", "model.depth=2",
                       "--set", "model.reg_channels=4,4",
                       "--set", "model.reg_fc_hidden=8"])
        assert rc == 2


def test_criterion_7_metrics():
    with criterion(7, "metrics suite"):
        rng = np.random.default_rng(12)
        full = np.ones((32, 32), dtype=bool)

        a = np.full((32, 32), 0.5)
        got = psnr(a, a + 0.1, full)
        assert abs(got - 20.0) < 1e-12
        assert got == 10.0 * np.log10(1.0 / np.float64(0.1 * 0.1))
        assert psnr(a, a.copy(), full) == PSNR_CAP

        x = rng.uniform(0, 1, (32, 32))
        assert ssim(x, x.copy(), full) == 1.0

        want = (2 * 0.5 * 0.6 + 1e-4) / (0.5 ** 2 + 0.6 ** 2 + 1e-4)
        assert abs(ssim(np.full((32, 32), 0.5), np.full((32, 32), 0.6),
                        full) - want) < 1e-6

        mask = np.zeros((32, 32), dtype=bool)
        mask[8:24, 8:24] = True
        y = rng.uniform(0, 1, (32, 32))
        y2 = y.copy()
        y2[~mask] = 9.0
        assert psnr(x, y2, mask) == psnr(x, y, mask)
        assert ssim(x, y2, mask) == ssim(x, y, mask)
