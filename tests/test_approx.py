import os
import platform
import subprocess
import sys

import numpy as np
import pytest

import reachbudget

from reachbudget import approx, rcppo

from oracles import adam_reference, finite_difference_check, mlp_reference, normal_logpdf


def _rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


# -- initialization and forward ----------------------------------------------------


def test_init_produces_orthogonal_hidden_weights():
    params = approx.mlp_init((4, 64, 64, 1), _rng())
    w = params.weights[1]
    gram = w.T @ w if w.shape[0] >= w.shape[1] else w @ w.T
    # orthogonal columns scaled by the sqrt(2) gain
    assert np.allclose(gram, 2.0 * np.eye(gram.shape[0]), atol=1e-9)
    assert all(np.all(b == 0.0) for b in params.biases)


def test_final_layer_scale_shrinks_the_head():
    params = approx.mlp_init((4, 32, 1), _rng(), final_scale=0.01)
    assert np.max(np.abs(params.weights[-1])) < 0.02


def test_forward_shapes_and_finite_input_guard():
    params = approx.mlp_init((3, 16, 2), _rng())
    out = approx.mlp_forward(params, np.zeros((7, 3)))
    assert out.shape == (7, 2)
    with pytest.raises(ValueError):
        approx.mlp_forward(params, np.array([[np.nan, 0.0, 0.0]]))
    # rows only: a single point is one row, never a silent 1-D path
    _, cache = approx.mlp_forward(params, np.zeros((7, 3)), return_cache=True)
    for bad in (np.zeros(3), np.zeros((1, 7, 3))):
        with pytest.raises(ValueError, match="rows"):
            approx.mlp_forward(params, bad)
    with pytest.raises(ValueError, match="rows"):
        approx.mlp_backward(params, np.zeros(2), cache)


def test_forward_leaves_its_input_alone_and_caches_distinct_arrays():
    rng = _rng(11)
    params = approx.mlp_init((3, 8, 8, 2), rng)
    x = rng.normal(size=(5, 3))
    before = x.copy()
    out, cache = approx.mlp_forward(params, x, return_cache=True)
    again = approx.mlp_forward(params, x)
    assert np.array_equal(x, before)
    assert np.array_equal(out, again) and out is cache[-1]
    assert len(cache) == 4
    for i in range(len(cache)):
        for j in range(i + 1, len(cache)):
            assert not np.shares_memory(cache[i], cache[j])
    upstream = rng.normal(size=(5, 2))
    kept = [a.copy() for a in (upstream, *cache)]
    approx.mlp_backward(params, upstream, cache)
    for a, b in zip((upstream, *cache), kept):
        assert np.array_equal(a, b)


@pytest.mark.parametrize(
    "sizes, rows",
    [((3, 16, 16, 1), 12), ((3, 16, 16, 2), 12), ((4, 8, 1), 1)],
    ids=["sizes0-tanh-12", "sizes1-tanh-12", "sizes2-tanh-1"],
)
def test_forward_and_backward_equal_the_textbook_reference(sizes, rows):
    rng = _rng(12)
    params = approx.mlp_init(sizes, rng)
    params.biases = [rng.normal(size=b.shape) for b in params.biases]
    x = rng.normal(size=(rows, sizes[0]))
    upstream = rng.normal(size=(rows, sizes[-1]))
    out, cache = approx.mlp_forward(params, x, return_cache=True)
    grads = approx.mlp_backward(params, upstream, cache)
    want_out, want_grads = mlp_reference(params.weights, params.biases, x, upstream)
    assert np.array_equal(out, want_out)
    for g, w in zip(grads, want_grads):
        assert np.array_equal(g, w)


# -- gradients ---------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(10))
def test_value_net_gradients_match_finite_differences(seed):
    rng = _rng(seed)
    params = approx.mlp_init((3, 16, 16, 1), rng)
    x = rng.normal(size=(12, 3))
    target = rng.normal(size=12)

    def loss_and_grad(_params):
        out, cache = approx.mlp_forward(params, x, return_cache=True)
        diff = out[:, 0] - target
        loss = float(np.mean(diff**2))
        grads = approx.mlp_backward(params, (2 * diff / 12)[:, None], cache)
        return loss, grads

    err = finite_difference_check(loss_and_grad, params.trainable(), rng)
    assert err < 1e-4


@pytest.mark.parametrize("seed", range(10))
def test_policy_logp_gradients_match_finite_differences(seed):
    rng = _rng(seed + 100)
    policy = approx.policy_init(3, np.array([-1.0]), np.array([1.0]), rng, hidden=(16, 16))
    policy.log_std[:] = rng.uniform(-1.0, 0.5, policy.log_std.shape)
    obs = rng.normal(size=(9, 3))
    _, raw, _ = approx.policy_sample(policy, obs, rng)
    weights = rng.normal(size=9)

    def loss_and_grad(_params):
        logp = approx.policy_log_prob(policy, obs, raw)
        loss = float(weights @ logp)
        grads = approx.policy_logp_backward(policy, obs, raw, weights)
        return loss, grads

    err = finite_difference_check(loss_and_grad, policy.trainable(), rng)
    assert err < 1e-4


def test_finite_difference_check_catches_a_corrupted_gradient():
    rng = _rng(5)
    params = approx.mlp_init((2, 8, 1), rng)
    x = rng.normal(size=(6, 2))

    def broken(_params):
        out, cache = approx.mlp_forward(params, x, return_cache=True)
        loss = float(np.mean(out))
        grads = approx.mlp_backward(params, np.full((6, 1), 1.0 / 6.0), cache)
        grads[0] = grads[0] + 0.5  # sabotage
        return loss, grads

    assert finite_difference_check(broken, params.trainable(), rng) > 1e-2


def test_finite_difference_check_refuses_parameters_that_are_not_float64():
    rng = _rng(5)
    params = approx.mlp_init((2, 8, 1), rng).astype(np.float32)
    x = rng.normal(size=(6, 2))

    def loss_and_grad(_params):
        raise AssertionError("checked float32 parameters")

    with pytest.raises(ValueError, match="float64"):
        finite_difference_check(loss_and_grad, params.trainable(), rng)


# -- float32 nets ------------------------------------------------------------------


def test_a_float32_net_stays_float32_from_forward_to_adam():
    # a silent upcast would run float64 kernels and fail nothing else
    rng = _rng(21)
    net64 = approx.mlp_init((3, 16, 16, 1), rng)
    net64.flat += 0.1 * rng.normal(size=net64.flat.size)  # nonzero biases
    net = net64.astype(np.float32)
    assert net.flat.dtype == np.float32 and not np.shares_memory(net.flat, net64.flat)
    assert all(np.shares_memory(a, net.flat) for a in net.trainable())
    x, targets = rng.normal(size=(12, 3)), rng.normal(size=12)

    out, cache = approx.mlp_forward(net, x, return_cache=True)
    assert out.dtype == np.float32 and all(h.dtype == np.float32 for h in cache)
    upstream = rng.normal(size=(12, 1))
    grads = approx.mlp_backward(net, upstream, cache)
    assert grads[0].base.dtype == np.float32
    # the gradients are those of the float64 reference on the upcast net
    up = net.astype(np.float64)
    x32 = x.astype(np.float32).astype(np.float64)
    _, want = mlp_reference(up.weights, up.biases, x32, upstream)
    for g, w in zip(grads, want):
        np.testing.assert_allclose(g, w, rtol=1e-4, atol=1e-5 * np.max(np.abs(w)))

    _, loss_grads = rcppo.value_loss(net, x, targets, 2.0)
    assert loss_grads[0].base.dtype == np.float32
    adam = approx.AdamState.for_params(net.trainable(), 1e-3)
    assert adam.m.dtype == adam.v.dtype == np.float32
    approx.adam_step(adam, net.trainable(), loss_grads)
    assert net.flat.dtype == adam.m.dtype == adam.v.dtype == np.float32


# -- gaussian policy head ----------------------------------------------------------


def test_sampled_actions_respect_bounds_and_log_probs_match_the_density():
    rng = _rng(3)
    low, high = np.array([-2.0, -1.0]), np.array([2.0, 1.0])
    policy = approx.policy_init(4, low, high, rng)
    obs = rng.normal(size=(50, 4))
    act, raw, logp = approx.policy_sample(policy, obs, rng)
    assert np.all(act >= low) and np.all(act <= high)
    mean = approx.mlp_forward(policy.trunk, obs)
    std = np.exp(policy.log_std)
    want = np.array([
        sum(normal_logpdf(raw[i, j], mean[i, j], std[j]) for j in range(2))
        for i in range(50)
    ])
    assert np.allclose(logp, want, atol=1e-10)
    assert np.allclose(approx.policy_log_prob(policy, obs, raw), logp, atol=1e-12)


def test_policy_mode_is_the_clipped_trunk_mean():
    rng = _rng(4)
    low, high = np.array([-0.5]), np.array([0.5])
    policy = approx.policy_init(2, low, high, rng)
    policy.trunk.biases[-1][:] = 3.0  # push the mean past the bound
    obs = rng.normal(size=(5, 2))
    mode = approx.policy_mode(policy, obs)
    assert np.all(mode == 0.5)


def test_entropy_is_the_closed_form_sum():
    rng = _rng(6)
    policy = approx.policy_init(2, np.array([-1.0]), np.array([1.0]), rng)
    policy.log_std[:] = 0.25
    want = 0.5 * np.log(2 * np.pi * np.e) + 0.25
    assert approx.policy_entropy(policy) == pytest.approx(want)


def test_log_std_clamp_freezes_gradients_outside_the_window():
    rng = _rng(7)
    policy = approx.policy_init(2, np.array([-1.0]), np.array([1.0]), rng)
    policy.log_std[:] = approx.LOG_STD_MAX + 1.0
    obs = rng.normal(size=(4, 2))
    _, raw, _ = approx.policy_sample(policy, obs, rng)
    grads = approx.policy_logp_backward(policy, obs, raw, np.ones(4))
    assert np.all(grads[-1] == 0.0)


# -- optimizer ---------------------------------------------------------------------


def _one_vector(*arrays):
    """(W, b, ...) copied into one vector, laid out as trainable() is."""
    return approx.MlpParams(list(arrays[0::2]), list(arrays[1::2])).trainable()


def test_first_adam_update_moves_by_roughly_the_learning_rate():
    params = _one_vector(np.zeros((1, 2)), np.zeros(2))
    state = approx.AdamState.for_params(params, base_lr=1e-2)
    grads = _one_vector(np.array([[1.0, -2.0]]), np.array([0.5, -3.0]))
    approx.adam_step(state, params, grads)
    for p, g in zip(params, grads):
        assert np.allclose(p, -1e-2 * np.sign(g), atol=1e-6)


def test_adam_refuses_arrays_that_are_not_views_of_one_vector():
    params = _one_vector(np.zeros((1, 2)), np.zeros(2))
    state = approx.AdamState.for_params(params, base_lr=1e-2)
    separate = [np.ones((1, 2)), np.ones(2)]
    with pytest.raises(ValueError, match="views of one"):
        approx.adam_step(state, params, separate)
    with pytest.raises(ValueError, match="views of one"):
        approx.adam_step(state, separate, _one_vector(*separate))
    with pytest.raises(ValueError, match="layout mismatch"):
        approx.adam_step(state, params, _one_vector(np.ones((2, 1)), np.ones(1)))


def test_adam_steps_equal_the_textbook_update():
    rng = _rng(9)
    # parameters at the scale of one step, so the step's last bit shows
    params = _one_vector(1e-3 * rng.normal(size=(6, 4)), 1e-3 * rng.normal(size=4))
    state = approx.AdamState.for_params(params, base_lr=3e-3)
    want = [(p.copy(), np.zeros_like(p), np.zeros_like(p)) for p in params]
    for step in range(1, 4):
        grads = _one_vector(*(rng.normal(size=p.shape) for p in params))
        approx.adam_step(state, params, grads)
        want = [adam_reference(p, g, m, v, step, 3e-3) for (p, m, v), g in zip(want, grads)]
        for got, expected in zip((params, state.m, state.v), zip(*want)):
            flat = np.concatenate([np.ravel(a) for a in expected])
            assert np.array_equal(np.concatenate([np.ravel(a) for a in got]), flat)


def test_every_trainable_array_is_a_view_of_its_nets_one_vector(tmp_path):
    rng = _rng(12)
    value = approx.mlp_init((4, 16, 16, 1), rng)
    policy = approx.policy_init(3, np.array([-1.0, -1.0]), np.array([1.0, 1.0]), rng, hidden=(8,))
    path = str(tmp_path / "p.ckpt")
    approx.save_checkpoint(path, approx.policy_to_arrays(policy), {})
    loaded = approx.policy_from_arrays(approx.load_checkpoint(path)[0])
    for net in (value, policy, loaded, approx.MlpParams(value.weights, value.biases)):
        arrays = net.trainable()
        assert net.flat.ndim == 1 and net.flat.size == sum(a.size for a in arrays)
        assert all(np.shares_memory(a, net.flat) for a in arrays)
        assert np.array_equal(np.concatenate([a.ravel() for a in arrays]), net.flat)
    # the trunk's vector is the head of the policy's, and copies share nothing
    assert np.shares_memory(policy.trunk.flat, policy.flat)
    assert not np.shares_memory(approx.MlpParams(value.weights, value.biases).flat, value.flat)


# -- checkpoints -------------------------------------------------------------------


def test_checkpoint_bytes_are_stable_across_saves(tmp_path):
    rng = _rng(9)
    params = approx.mlp_init((3, 8, 1), rng)
    arrays = approx.mlp_to_arrays("net", params)
    meta = {"note": "stability", "scale": 2.0}
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    approx.save_checkpoint(str(p1), arrays, meta)
    approx.save_checkpoint(str(p2), arrays, meta)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_round_trip_is_exact(tmp_path):
    rng = _rng(10)
    policy = approx.policy_init(3, np.array([-1.0, -1.0]), np.array([1.0, 1.0]), rng)
    path = tmp_path / "p.ckpt"
    approx.save_checkpoint(str(path), approx.policy_to_arrays(policy), {"algorithm": "x"})
    arrays, meta = approx.load_checkpoint(str(path))
    restored = approx.policy_from_arrays(arrays)
    assert meta["algorithm"] == "x"
    for a, b in zip(policy.trainable(), restored.trainable()):
        assert np.array_equal(a, b)
    assert np.array_equal(policy.action_low, restored.action_low)


def test_loading_a_plain_zip_without_meta_fails(tmp_path):
    import zipfile

    path = tmp_path / "bad.ckpt"
    with zipfile.ZipFile(path, "w") as zf:
        zf.writestr("other.txt", "hello")
    with pytest.raises(ValueError):
        approx.load_checkpoint(str(path))


def test_array_codec_rejects_mismatched_layer_shapes():
    rng = _rng(12)
    params = approx.mlp_init((3, 8, 1), rng)
    arrays = approx.mlp_to_arrays("net", params)
    arrays["net_w1"] = np.zeros((9, 9))
    with pytest.raises(ValueError):
        approx.mlp_from_arrays("net", arrays)


# -- memory ------------------------------------------------------------------------

_CHURN = """
import resource
import reachbudget
import numpy as np

keep = [np.ones(65536) for _ in range(KEEP_BLOCKS)]  # 512 KB each, kept

def churn():
    for _ in range(50):
        blocks = [np.ones(65536) for _ in range(8)]
        del blocks

churn()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
churn()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap settings go through glibc")
@pytest.mark.parametrize("keep_blocks, user_pad", [(0, None), (40, None), (0, "0")])
def test_freed_network_sized_blocks_are_reused_without_page_faults(keep_blocks, user_pad):
    # 40 kept blocks (20 MB) outgrow the 16 MB top pad: the churn then
    # stays fault-free only because large arrays still come from the heap
    env = {k: v for k, v in os.environ.items() if not k.startswith("MALLOC_")}
    if user_pad is not None:
        env["MALLOC_TOP_PAD_"] = user_pad
    src = os.path.dirname(os.path.dirname(reachbudget.__file__))
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    code = _CHURN.replace("KEEP_BLOCKS", str(keep_blocks))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    faults = int(out.stdout)
    if user_pad is None:
        assert faults <= 1000
    else:
        # the user's own setting is kept: 400 blocks of 128 pages fault back in
        assert faults > 400 * 64
