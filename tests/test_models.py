"""Networks: shapes, identity init, refinement, consistency wiring."""

import gc
import sys
import weakref
from dataclasses import replace

import numpy as np
import pytest

import ddmc.kernels
from ddmc.acquisition import make_mask
from ddmc.config import default_config
from ddmc.diffcore import ParamSet, Tensor, mean_all, warp_rigid
from ddmc.errors import ParamError, ShapeError, ValidationError
from ddmc.fourier import fft2c_channels, fft2c_stack, ifft2c_stack
from ddmc.models import (ReconNet, ReconNetConfig, RegNet, RegNetConfig,
                         SynthNet, SynthNetConfig, register_refined)
from ddmc.pipeline import forward_stage


def rng_for(k):
    return np.random.default_rng(k)


def small_image(rng, h=16, w=16):
    """A [1, 2, H, W] float32 re/im channel stack."""
    return np.stack([rng.standard_normal((h, w)).astype(np.float32),
                     rng.standard_normal((h, w)).astype(np.float32)])[None]


def test_synth_net_shapes():
    net = SynthNet(SynthNetConfig(base_channels=4, depth=2), rng=rng_for(0))
    x = Tensor(np.random.default_rng(1).standard_normal((3, 2, 16, 16))
               .astype(np.float32))
    y = net(x)
    assert y.shape == (3, 2, 16, 16)
    with pytest.raises(ShapeError):
        net(Tensor(np.zeros((1, 4, 16, 16), np.float32)))


def test_unet_divisibility_check():
    net = SynthNet(SynthNetConfig(base_channels=4, depth=3), rng=rng_for(0))
    with pytest.raises(ShapeError):
        net(Tensor(np.zeros((1, 2, 18, 18), np.float32)))
    with pytest.raises(ValidationError):
        SynthNet(SynthNetConfig(depth=1), rng=rng_for(0))


def test_recon_net_channels():
    net = ReconNet(ReconNetConfig(in_channels=4, base_channels=4, depth=2),
                   rng=rng_for(2))
    y = net(Tensor(np.zeros((2, 4, 16, 16), np.float32)))
    assert y.shape == (2, 2, 16, 16)
    with pytest.raises(ShapeError):
        net(Tensor(np.zeros((2, 2, 16, 16), np.float32)))


def test_reg_net_zero_init_predicts_identity():
    net = RegNet(RegNetConfig(in_size=16, channels=(4, 8), fc_hidden=8),
                 rng=rng_for(3))
    rng = np.random.default_rng(4)
    mov = Tensor(rng.standard_normal((2, 2, 16, 16)).astype(np.float32))
    fix = Tensor(rng.standard_normal((2, 2, 16, 16)).astype(np.float32))
    p = net(mov, fix)
    assert not p.data.any()
    assert np.array_equal(warp_rigid(mov, p).data, mov.data)


def test_register_refined_zero_init_is_identity():
    net = RegNet(RegNetConfig(in_size=16, channels=(4, 8), fc_hidden=8),
                 rng=rng_for(21)).eval_mode()
    rng = np.random.default_rng(22)
    mov = small_image(rng)
    fix = small_image(rng)
    est, warped = register_refined(net, mov, fix, n_iters=3)
    assert est.shape == (1, 3) and not est.any()
    assert np.array_equal(warped, mov)
    one, _ = register_refined(net, mov, fix, n_iters=1)
    direct = net(Tensor(mov), Tensor(fix))
    assert np.array_equal(one, direct.data)
    with pytest.raises(ValidationError):
        register_refined(net, mov, fix, n_iters=0)


def test_register_refined_warps_once_per_pass(monkeypatch):
    # each pass warps the moving image by the running estimate once; the
    # net itself does not warp
    orig = ddmc.kernels.warp_forward
    calls = []

    def counted(*args):
        calls.append(args[0].shape)
        return orig(*args)

    for name, mod in list(sys.modules.items()):
        if name.startswith("ddmc") and \
                getattr(mod, "warp_forward", None) is orig:
            monkeypatch.setattr(mod, "warp_forward", counted)
    net = RegNet(RegNetConfig(in_size=16, channels=(4, 8), fc_hidden=8),
                 rng=rng_for(23)).eval_mode()
    rng = np.random.default_rng(24)
    mov = np.concatenate([small_image(rng) for _ in range(4)])
    fix = np.concatenate([small_image(rng) for _ in range(4)])
    register_refined(net, mov, fix, n_iters=3)
    assert len(calls) == 3


def test_reg_net_shape_checks():
    net = RegNet(RegNetConfig(in_size=16, channels=(4, 8), fc_hidden=8),
                 rng=rng_for(5))
    a = Tensor(np.zeros((1, 2, 16, 16), np.float32))
    with pytest.raises(ShapeError):
        net(a, Tensor(np.zeros((1, 2, 16, 8), np.float32)))
    with pytest.raises(ShapeError):
        net(Tensor(np.zeros((1, 4, 16, 16), np.float32)),
            Tensor(np.zeros((1, 4, 16, 16), np.float32)))
    with pytest.raises(ShapeError):
        net(Tensor(np.zeros((1, 2, 32, 32), np.float32)),
            Tensor(np.zeros((1, 2, 32, 32), np.float32)))
    with pytest.raises(ValidationError):
        RegNet(RegNetConfig(in_size=20, channels=(4, 8, 8)), rng=rng_for(0))


def test_loaded_params_shape_checked():
    net = SynthNet(SynthNetConfig(base_channels=4, depth=2), rng=rng_for(10))
    with pytest.raises(ParamError):
        SynthNet(SynthNetConfig(base_channels=8, depth=2), params=net.params)


def test_loaded_params_must_match_the_layout_exactly():
    cfg = SynthNetConfig(base_channels=4, depth=2)
    net = SynthNet(cfg, rng=rng_for(11))
    assert SynthNet(cfg, params=net.params).params is net.params
    items = net.params.items()
    extra, missing = ParamSet(), ParamSet()
    for name, t in items:
        extra.add(name, t)
    extra.add("stray.w", Tensor(np.zeros(3, np.float32)))
    for name, t in items[:-1]:
        missing.add(name, t)
    with pytest.raises(ParamError, match="unexpected 'stray.w'"):
        SynthNet(cfg, params=extra)
    with pytest.raises(ParamError, match="missing %r" % items[-1][0]):
        SynthNet(cfg, params=missing)


def test_recon_forward_applies_data_consistency():
    rng = np.random.default_rng(15)
    img = small_image(rng)
    mask = make_mask(16, 4, n_center=4, seed=3)
    y_u = fft2c_stack(img) * mask.plane()
    x_u = ifft2c_stack(y_u)
    nets = {"recon_image": ReconNet(
                ReconNetConfig(in_channels=4, base_channels=4, depth=2),
                rng=rng_for(16)).eval_mode(),
            "recon_kspace": ReconNet(
                ReconNetConfig(in_channels=4, base_channels=4, depth=2),
                rng=rng_for(17)).eval_mode()}
    batch = {"in_image": np.concatenate([small_image(rng), x_u], axis=1),
             "in_kspace": np.concatenate(
                 [fft2c_stack(small_image(rng)), y_u], axis=1),
             "y_u": y_u, "plane": mask.plane()}
    out = forward_stage("reconstruction",
                        replace(default_config().stage_plan(),
                                domain_mode="dual"), nets, batch)
    rows = mask.row_indices()
    y = y_u[0][:, rows]
    k_out = fft2c_channels(out["image"]).data[0]
    assert np.max(np.abs(k_out[:, rows] - y)) < 1e-5
    assert np.array_equal(out["kspace"].data[0][:, rows], y)


def test_eval_mode_deterministic():
    net = SynthNet(SynthNetConfig(base_channels=4, depth=2),
                   rng=rng_for(20)).eval_mode()
    x = Tensor(np.random.default_rng(21).standard_normal((1, 2, 16, 16))
               .astype(np.float32))
    assert np.array_equal(net(x).data, net(x).data)


def block_layout(name, ci, co):
    """Names and shapes one conv -> batchnorm -> relu block registers."""
    return [(name + ".conv.w", (co, ci, 3, 3)), (name + ".conv.b", (co,))] + [
        (name + ".bn." + p, (co,))
        for p in ("gamma", "beta", "running_mean", "running_var")]


def test_param_layout_is_pinned():
    # the rng draws and the checkpoint bytes follow this order
    def layout(net):
        return [(n, t.shape) for n, t in net.params.items()]

    unet2 = (block_layout("enc0", 4, 4) + block_layout("enc1", 4, 8)
             + block_layout("up0", 8, 4) + block_layout("dec0", 8, 4)
             + [("out.w", (2, 4, 3, 3)), ("out.b", (2,))])
    assert layout(ReconNet(ReconNetConfig(in_channels=4, base_channels=4,
                                          depth=2))) == unet2
    synth3 = (block_layout("enc0", 2, 4) + block_layout("enc1", 4, 8)
              + block_layout("enc2", 8, 16)
              + block_layout("up1", 16, 8) + block_layout("dec1", 16, 8)
              + block_layout("up0", 8, 4) + block_layout("dec0", 8, 4)
              + [("out.w", (2, 4, 3, 3)), ("out.b", (2,))])
    assert layout(SynthNet(SynthNetConfig(base_channels=4, depth=3))) \
        == synth3
    reg = (block_layout("enc0", 4, 4) + block_layout("enc1", 4, 8)
           + [("fc1.w", (8, 128)), ("fc1.b", (8,)),
              ("fc2.w", (3, 8)), ("fc2.b", (3,))])
    assert layout(RegNet(RegNetConfig(in_size=16, channels=(4, 8),
                                      fc_hidden=8))) == reg


NETS = {"synth": (SynthNet, SynthNetConfig(base_channels=4, depth=2)),
        "reg": (RegNet, RegNetConfig(in_size=16, channels=(4, 8),
                                     fc_hidden=8)),
        "recon": (ReconNet, ReconNetConfig(in_channels=4, base_channels=4,
                                           depth=2))}


@pytest.mark.parametrize("loaded", [False, True], ids=["fresh", "loaded"])
@pytest.mark.parametrize("kind", sorted(NETS))
def test_no_net_sits_in_a_reference_cycle(kind, loaded):
    # with the cyclic collector off, dropping the last reference must free
    # a net and its ParamSet, even after a forward and backward pass
    cls, config = NETS[kind]
    params = None
    if loaded:
        params, _ = ParamSet.from_bytes(
            cls(config, rng=rng_for(30)).params.to_bytes())
    rng = np.random.default_rng(31)
    cin = getattr(config, "in_channels", 2)
    x = Tensor(rng.standard_normal((2, cin, 16, 16)).astype(np.float32))
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        net = cls(config, params=params, rng=rng_for(32))
        out = net(x, x) if cls is RegNet else net(x)
        mean_all(out).backward()
        refs = [weakref.ref(net), weakref.ref(net.params)]
        del net, out, params
        assert [r() for r in refs] == [None, None]
    finally:
        if was_enabled:
            gc.enable()
