"""Autodiff core: gradient checks, optimizer closed forms, serialization."""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from ddmc.diffcore import (AdamState, ParamSet, Tensor, adam_step,
                           backward_split, batchnorm2d, concat_channels,
                           conv2d,
                           fully_connected, grad_check, magnitude_channels,
                           maxpool2x2, mean_all, mse, relu, reshape,
                           mul, scale_by, sum_all, upsample2x)
from ddmc.diffcore.init import bn_param, conv_param, fc_param
from ddmc.diffcore.tensor import warp_rigid
from ddmc.errors import (GraphError, OptimizerError, ParamError,
                         RecordFormatError, ShapeError, TruncatedFileError)

RNG = np.random.default_rng(1234)


def rand(*shape):
    return Tensor(RNG.standard_normal(shape), requires_grad=True)


def test_backward_on_nonscalar_raises():
    x = rand(3, 3)
    with pytest.raises(GraphError):
        (x + x).backward()


def test_backward_without_trainable_ancestors_raises():
    x = Tensor(np.ones((2, 2)))
    with pytest.raises(GraphError):
        sum_all(x * x).backward()


def test_mse_gradient_closed_form():
    a = rand(4, 5)
    b = Tensor(RNG.standard_normal((4, 5)))
    loss = mse(a, b)
    loss.backward()
    want = 2.0 * (a.data - b.data) / a.data.size
    assert np.max(np.abs(a.grad - want)) < 1e-12


def test_relu_zero_gradient_at_negative_coordinates():
    x = Tensor(np.array([[-1.0, 2.0], [-3.0, 0.5]]), requires_grad=True)
    sum_all(relu(x)).backward()
    assert np.array_equal(x.grad, [[0.0, 1.0], [0.0, 1.0]])


def test_grad_accumulates_across_reuse():
    x = rand(3)
    y = sum_all(x + x)
    y.backward()
    assert np.allclose(x.grad, 2.0)


def branch_net(x, params):
    """A two-level U-Net in miniature: h feeds both the down path and
    the skip, so it collects two gradient contributions."""
    w1, b1, w2, b2, w3, b3 = params
    h = relu(conv2d(x, w1, b1))
    d = upsample2x(maxpool2x2(conv2d(h, w2, b2)))
    return conv2d(concat_channels([h, d]), w3, b3)


def two_branch_graph(dtype, rng):
    """Two nets that meet only in a loss head.  The head reads both
    outputs several times: direct terms, cross terms as stage_loss
    forms them, and one term that couples the branches.  Returns
    (loss, the two outputs, the trainable leaves)."""
    def arr(*shape):
        return rng.standard_normal(shape).astype(dtype)

    nets = [[Tensor(arr(*s), requires_grad=True)
             for s in ((3, 2, 3, 3), (3,), (3, 3, 3, 3), (3,), (2, 6, 3, 3),
                       (2,))] for _ in range(2)]
    outs = [branch_net(Tensor(arr(2, 2, 4, 4)), p) for p in nets]
    a, b = outs
    ga, gb = Tensor(arr(2, 2, 4, 4)), Tensor(arr(2, 2, 4, 4))
    plane = arr(1, 1, 4, 1)
    loss = (mse(a, ga) + 0.5 * mse(b, gb)
            + 0.7 * (mse(scale_by(b, plane), ga) + mse(scale_by(a, plane), gb))
            + 0.3 * mean_all(mul(a, b)))
    return loss, outs, [t for p in nets for t in p]


def run_in_order(jobs):
    for job in jobs:
        job()


def run_reversed(jobs):
    for job in reversed(jobs):
        job()


def run_threaded(jobs):
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(len(jobs)) as pool:
            for f in [pool.submit(job) for job in jobs]:
                f.result()
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("run", [run_in_order, run_reversed, run_threaded])
def test_backward_split_equals_backward_bitwise(dtype, run):
    loss, _, leaves = two_branch_graph(dtype, np.random.default_rng(21))
    loss.backward()
    want = [t.grad.copy() for t in leaves]
    # a fresh graph over the same leaves, from zeroed accumulators
    loss, outs, leaves = two_branch_graph(dtype, np.random.default_rng(21))
    backward_split(loss, outs, run)
    for got, w in zip(leaves, want):
        assert got.grad.dtype == w.dtype
        assert got.grad.tobytes() == w.tobytes()


def test_backward_split_refuses_roots_that_are_not_disjoint():
    rng = np.random.default_rng(22)
    x = Tensor(rng.standard_normal((1, 2, 4, 4)))
    w = Tensor(rng.standard_normal((2, 2, 3, 3)), requires_grad=True)
    b1, b2 = (Tensor(np.zeros(2), requires_grad=True) for _ in range(2))

    def refused(loss, roots):
        jobs = []
        with pytest.raises(GraphError):
            backward_split(loss, roots, jobs.extend)
        # refused before any node ran
        assert jobs == []
        for t in (w, b1, b2):
            assert not t.grad.any()

    # one trainable weight serves both roots, as one RegNet serves both
    # branches of registration
    r1, r2 = conv2d(x, w, b1), conv2d(x, w, b2)
    refused(mse(r1, r2), [r1, r2])
    # one root is the other's ancestor
    r2 = relu(r1)
    refused(sum_all(r1 + r2), [r1, r2])
    # the head reads inside a root's subgraph
    h = conv2d(x, w, b1)
    r1 = relu(h)
    refused(sum_all(r1 + h), [r1])
    # a root the loss does not reach
    refused(sum_all(relu(h)), [r1, conv2d(x, w, b2)])


@pytest.mark.parametrize("trial", range(5))
def test_gradcheck_elementwise_chain(trial):
    rng = np.random.default_rng(100 + trial)
    x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)

    def fn(*_):
        return mean_all(relu(x * x + x) + x * 0.5)

    assert grad_check(fn, [x], rng=rng) < 1e-6


@pytest.mark.parametrize("trial", range(5))
def test_gradcheck_conv_chain(trial):
    rng = np.random.default_rng(200 + trial)
    x = Tensor(rng.standard_normal((2, 3, 6, 6)), requires_grad=True)
    w = Tensor(rng.standard_normal((4, 3, 3, 3)) * 0.5, requires_grad=True)
    b = Tensor(rng.standard_normal(4) * 0.1, requires_grad=True)
    tgt = Tensor(rng.standard_normal((2, 4, 6, 6)))

    def fn(*_):
        return mse(conv2d(x, w, b), tgt)

    assert grad_check(fn, [x, w, b], n_samples=40, rng=rng) < 1e-5


def test_gradcheck_pool_upsample_fc():
    rng = np.random.default_rng(7)
    x = Tensor(rng.standard_normal((2, 2, 4, 4)), requires_grad=True)
    wf = Tensor(rng.standard_normal((3, 32)) * 0.3, requires_grad=True)
    bf = Tensor(np.zeros(3), requires_grad=True)
    tgt = Tensor(rng.standard_normal((2, 3)))

    def fn(*_):
        h = upsample2x(maxpool2x2(x))
        h = reshape(h, (2, 32))
        return mse(fully_connected(h, wf, bf), tgt)

    assert grad_check(fn, [x, wf, bf], n_samples=40, rng=rng) < 1e-5


def test_gradcheck_batchnorm_train_and_eval():
    rng = np.random.default_rng(8)
    x = Tensor(rng.standard_normal((3, 2, 4, 4)), requires_grad=True)
    tgt = Tensor(rng.standard_normal((3, 2, 4, 4)))

    for training in (True, False):
        gamma = Tensor(np.ones(2), requires_grad=True)
        beta = Tensor(np.zeros(2), requires_grad=True)
        rmean = Tensor(rng.standard_normal(2) * 0.1)
        rvar = Tensor(np.abs(rng.standard_normal(2)) + 0.5)

        def fn(*_):
            return mse(batchnorm2d(x, gamma, beta,
                                   Tensor(rmean.data.copy()),
                                   Tensor(rvar.data.copy()),
                                   training), tgt)

        assert grad_check(fn, [x, gamma, beta], n_samples=30, rng=rng) < 1e-5


def test_batchnorm_normalises_batch_statistics():
    rng = np.random.default_rng(9)
    x = Tensor(rng.standard_normal((8, 3, 5, 5)) * 4.0 + 2.0)
    gamma = Tensor(np.ones(3))
    beta = Tensor(np.zeros(3))
    rmean, rvar = Tensor(np.zeros(3)), Tensor(np.ones(3))
    y = batchnorm2d(x, gamma, beta, rmean, rvar, training=True)
    mu = y.data.mean(axis=(0, 2, 3))
    var = y.data.var(axis=(0, 2, 3))
    assert np.max(np.abs(mu)) < 1e-10
    assert np.max(np.abs(var - 1.0)) < 1e-6
    # running buffers blend with momentum 0.9
    want_mean = 0.1 * x.data.mean(axis=(0, 2, 3))
    assert np.max(np.abs(rmean.data - want_mean)) < 1e-10


@pytest.mark.parametrize("training", [True, False])
def test_batchnorm_leaves_inputs_untouched(training):
    # forward and backward compute in scratch buffers: the input, the
    # affine parameters and the incoming gradient keep their values
    rng = np.random.default_rng(10)
    x = Tensor(rng.standard_normal((2, 3, 4, 4)), requires_grad=True)
    gamma = Tensor(rng.standard_normal(3), requires_grad=True)
    beta = Tensor(rng.standard_normal(3), requires_grad=True)
    rmean = Tensor(rng.standard_normal(3))
    rvar = Tensor(np.abs(rng.standard_normal(3)) + 0.5)
    before = [t.data.copy() for t in (x, gamma, beta)]
    y = batchnorm2d(x, gamma, beta, rmean, rvar, training)
    y_before = y.data.copy()
    g = rng.standard_normal(y.shape)
    g_before = g.copy()
    y._backward(g)
    for t, b in zip((x, gamma, beta), before):
        assert np.array_equal(t.data, b)
    assert np.array_equal(g, g_before)
    assert np.array_equal(y.data, y_before)
    assert x.grad is not None and np.all(np.isfinite(x.grad))


def test_gradcheck_magnitude_and_stack():
    rng = np.random.default_rng(10)
    a = Tensor((rng.standard_normal((2, 4, 4)) + 0.5)[:, None],
               requires_grad=True)
    b = Tensor((rng.standard_normal((2, 4, 4)) - 0.5)[:, None],
               requires_grad=True)
    tgt = Tensor(rng.standard_normal((2, 1, 4, 4)))

    def fn(*_):
        x = concat_channels([a, b])
        return mse(magnitude_channels(x), tgt)

    assert grad_check(fn, [a, b], n_samples=30, rng=rng) < 1e-5


def test_gradcheck_warp_rigid_params():
    rng = np.random.default_rng(11)
    x = Tensor(rng.standard_normal((2, 2, 8, 8)), requires_grad=True)
    p = Tensor(np.array([[0.5, -0.3, 0.2], [-1.0, 0.7, -0.25]]),
               requires_grad=True)
    tgt = Tensor(rng.standard_normal((2, 2, 8, 8)))

    def fn(*_):
        return mse(warp_rigid(x, p), tgt)

    # warp parameter gradients carry bilinear kinks; 1e-4 relative
    assert grad_check(fn, [p], rng=rng) < 1e-4
    assert grad_check(fn, [x], n_samples=40, rng=rng) < 1e-4


def test_concat_take_roundtrip_gradients():
    rng = np.random.default_rng(12)
    a = Tensor(rng.standard_normal((2, 2, 3, 3)), requires_grad=True)
    b = Tensor(rng.standard_normal((2, 3, 3, 3)), requires_grad=True)

    # the loss reads channels [2, 5) of the concat, which are b
    take = np.array([0.0, 0.0, 1.0, 1.0, 1.0])[:, None, None]

    def fn(*_):
        c = scale_by(concat_channels([a, b]), take)
        return mean_all(c * c)

    assert grad_check(fn, [a, b], n_samples=30, rng=rng) < 1e-6
    y = concat_channels([a, b])
    assert y.shape == (2, 5, 3, 3)
    assert np.array_equal(y.data[:, :2], a.data)


def test_scale_by_rejects_constants_that_do_not_broadcast():
    # one constant that cannot broadcast at all, one that would grow
    # the result: both are shape errors, not numpy's ValueError
    x = Tensor(np.zeros((1, 2, 12, 12)))
    for c in (np.ones((16, 1)), np.ones((3, 2, 12, 12))):
        with pytest.raises(ShapeError, match="does not broadcast"):
            scale_by(x, c)
    assert scale_by(x, np.ones((12, 1))).shape == x.shape


def test_adam_zero_gradient_keeps_parameters():
    ps = ParamSet()
    t = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    ps.add("w", t)
    ps.freeze()
    st = AdamState.create(ps, lr=0.1)
    t.grad = np.zeros(2)
    adam_step(ps, st)
    assert np.array_equal(t.data, [1.0, -2.0])
    assert st.step == 1


def test_adam_first_step_magnitude_near_lr():
    ps = ParamSet()
    t = Tensor(np.array([1.0, 1.0, 1.0]), requires_grad=True)
    ps.add("w", t)
    ps.freeze()
    lr = 0.05
    st = AdamState.create(ps, lr=lr)
    t.grad = np.array([3.0, -0.2, 1e-3])
    adam_step(ps, st)
    delta = np.abs(t.data - 1.0)
    assert np.all(delta > 0.99 * lr)
    assert np.all(delta <= lr)
    # sign opposes the gradient
    assert t.data[1] > 1.0 and t.data[0] < 1.0


def test_adam_converges_on_quadratic():
    ps = ParamSet()
    w = Tensor(np.full(4, 2.0), requires_grad=True)
    ps.add("w", w)
    ps.freeze()
    st = AdamState.create(ps, lr=0.05)
    start = np.linalg.norm(w.data)
    for _ in range(200):
        ps.zero_grads()
        loss = sum_all(w * w)
        loss.backward()
        adam_step(ps, st)
    assert np.linalg.norm(w.data) < start / 100.0


def test_adam_missing_grad_raises():
    ps = ParamSet()
    ps.add("w", Tensor(np.ones(2), requires_grad=True))
    ps.freeze()
    st = AdamState.create(ps, lr=0.1)
    ps["w"].grad = None
    with pytest.raises(OptimizerError):
        adam_step(ps, st)


def test_paramset_rejects_duplicates_and_frozen_adds():
    ps = ParamSet()
    ps.add("a", Tensor(np.zeros(2), requires_grad=True))
    with pytest.raises(ParamError):
        ps.add("a", Tensor(np.zeros(2), requires_grad=True))
    ps.freeze()
    with pytest.raises(ParamError):
        ps.add("b", Tensor(np.zeros(2), requires_grad=True))


def test_paramset_serialization_roundtrip_bit_exact():
    rng = np.random.default_rng(13)
    ps = ParamSet()
    ps.add("conv.w", Tensor(rng.standard_normal((4, 3, 3, 3))
                            .astype(np.float32), requires_grad=True))
    ps.add("bn.running_mean", Tensor(rng.standard_normal(4)
                                     .astype(np.float32)))
    ps.freeze()
    blob = ps.to_bytes()
    back, offset = ParamSet.from_bytes(blob, 0)
    assert offset == len(blob)
    for (n1, t1), (n2, t2) in zip(ps.items(), back.items()):
        assert n1 == n2
        assert np.array_equal(t1.data, t2.data)
    # buffers come back non-trainable, weights trainable
    assert back["conv.w"].requires_grad
    assert not back["bn.running_mean"].requires_grad
    assert ps.content_hash() == back.content_hash()


def test_paramset_decode_errors():
    ps = ParamSet()
    ps.add("w", Tensor(np.ones(3, np.float32), requires_grad=True))
    ps.freeze()
    blob = ps.to_bytes()
    with pytest.raises(RecordFormatError):
        ParamSet.from_bytes(b"XXXX" + blob[4:], 0)
    with pytest.raises(TruncatedFileError):
        ParamSet.from_bytes(blob[:-2], 0)


def test_init_shapes_and_fanin_bound():
    ps = ParamSet()
    rng = np.random.default_rng(14)
    conv_param(ps, "c", 8, 4, 3, rng)
    fc_param(ps, "f", 10, 3, rng)
    fc_param(ps, "z", 10, 3, rng, zero_init=True)
    bn_param(ps, "b", 8)
    assert ps["c.w"].shape == (8, 4, 3, 3)
    bound = np.sqrt(6.0 / (4 * 9))
    assert np.max(np.abs(ps["c.w"].data)) <= bound
    assert np.all(ps["c.b"].data == 0.0)
    assert np.all(ps["z.w"].data == 0.0)
    assert np.all(ps["b.gamma"].data == 1.0)
    assert not ps["b.running_var"].requires_grad


def test_forward_is_deterministic():
    rng = np.random.default_rng(15)
    x = rng.standard_normal((2, 3, 8, 8)).astype(np.float32)
    w = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
    b = rng.standard_normal(4).astype(np.float32)
    y1 = conv2d(Tensor(x), Tensor(w), Tensor(b)).data
    y2 = conv2d(Tensor(x.copy()), Tensor(w.copy()), Tensor(b.copy())).data
    assert np.array_equal(y1, y2)
