import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import sequential_bisection
from reachbudget import approx, rcppo
from reachbudget.augment import AugmentedGoalParams
from reachbudget.envkit import ControlNoiseWrapper, NoiseWrapperConfig


def _rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


def _small_policy(obs_dim, rng, low=(-1.0,), high=(1.0,)):
    return approx.policy_init(
        obs_dim, np.array(low), np.array(high), rng, hidden=(16, 16)
    )


def _meta(z_max=100.0, algorithm="rcppo"):
    return {
        "algorithm": algorithm,
        "obs_scale": [np.pi, 8.0],
        "z_min": -1.0,
        "z_max": z_max,
        "big_c": 987.0,
    }


# -- observation building -----------------------------------------------------------


def test_build_obs_scales_state_and_normalizes_budget():
    obs = rcppo.build_obs(
        np.array([[np.pi, 4.0]]), 1.0, 50.0, np.array([np.pi, 8.0]), 0.0, 100.0
    )
    assert obs.shape == (1, 4)
    assert obs[0] == pytest.approx([1.0, 0.5, 1.0, 0.5])


def test_build_obs_clips_budget_outside_the_training_range():
    lo = rcppo.build_obs(np.zeros((1, 2)), -1.0, -500.0, np.ones(2), 0.0, 100.0)
    hi = rcppo.build_obs(np.zeros((1, 2)), -1.0, np.inf, np.ones(2), 0.0, 100.0)
    assert lo[0, 3] == -1.0
    assert hi[0, 3] == 1.0


def test_value_fn_wrapper_rescales_by_big_c():
    rng = _rng(1)
    net = approx.mlp_init((4, 8, 1), rng)
    meta = _meta()
    fn = rcppo.value_fn_from(net, meta)
    x = np.array([0.3, -0.2])
    obs = rcppo.build_obs(x, 1.0, 10.0, np.array(meta["obs_scale"]), -1.0, 100.0)
    want = float(approx.mlp_forward(net, obs)[0, 0]) * 987.0
    assert fn(x, 1.0, 10.0) == pytest.approx(want)


def test_build_obs_matches_stacked_columns_for_rows_and_for_one_state_with_many_budgets():
    scale = np.array([np.pi, 8.0])
    xs = _rng(5).normal(size=(6, 2))
    ys = np.array([-1.0, 1.0, -1.0, -1.0, 1.0, 1.0])
    zs = np.array([-300.0, -1.0, 0.0, 37.5, 100.0, np.inf])
    z_cols = np.clip((zs - -1.0) / 101.0, -1.0, 1.0)
    want = np.concatenate([xs / scale, ys[:, None], z_cols[:, None]], axis=1)
    assert np.array_equal(rcppo.build_obs(xs, ys, zs, scale, -1.0, 100.0), want)
    one = rcppo.build_obs(xs[2], -1.0, zs, scale, -1.0, 100.0)
    assert one.shape == (6, 4)
    assert np.array_equal(one[:, :2], np.broadcast_to(xs[2] / scale, (6, 2)))
    assert np.array_equal(one[:, 3], z_cols)


def test_value_fn_wrapper_answers_a_budget_vector_like_per_budget_calls():
    net = approx.mlp_init((4, 8, 1), _rng(2))
    fn = rcppo.value_fn_from(net, _meta())
    x = np.array([0.3, -0.2])
    # past both ends of [z_min, z_max], and more budgets than one forward takes
    z = np.linspace(-250.0, 300.0, 2 * rcppo._FORWARD_ROWS + 3)
    for y in (-1.0, 1.0):
        v = fn(x, y, z)
        assert v.shape == z.shape
        want = np.array([fn(x, y, zi)[0] for zi in z])
        np.testing.assert_allclose(v, want, rtol=1e-12, atol=1e-12)


def test_value_fn_wrapper_answers_rows_aligned_with_budgets():
    net = approx.mlp_init((4, 8, 1), _rng(3))
    fn = rcppo.value_fn_from(net, _meta())
    xs = _rng(6).normal(size=(9, 2))
    ys = np.where(np.arange(9) % 3 == 0, 1.0, -1.0)
    z = np.linspace(-5.0, 120.0, 9)
    v = fn(xs, ys, z)
    assert v.shape == z.shape
    want = np.array([fn(xs[i], ys[i], z[i])[0] for i in range(9)])
    np.testing.assert_allclose(v, want, rtol=1e-12, atol=1e-12)


# -- clipped surrogate loss ----------------------------------------------------------


def _loss_fixture(rng, n=2):
    policy = _small_policy(3, rng)
    obs = rng.normal(size=(n, 3))
    _, raw, logp = approx.policy_sample(policy, obs, rng)
    return policy, obs, raw, logp


def test_clipped_loss_matches_the_hand_worked_example():
    rng = _rng(2)
    policy, obs, raw, logp = _loss_fixture(rng)
    # force ratios (1.5, 0.5) by shifting the stored log-probs
    old = logp - np.log(np.array([1.5, 0.5]))
    adv = np.array([1.0, -1.0])
    loss, _, stats = rcppo.ppo_policy_loss(policy, obs, raw, old, adv, 0.2)
    # max(-1.5, -1.2) and max(0.5, 0.8) average to -0.2
    assert loss == pytest.approx(-0.2, abs=1e-9)
    assert stats["clip_fraction"] == 1.0
    assert stats["n_excluded"] == 0


def test_fresh_batch_has_unit_ratios_and_zero_kl():
    rng = _rng(3)
    policy, obs, raw, logp = _loss_fixture(rng, n=32)
    adv = rng.normal(size=32)
    loss, _, stats = rcppo.ppo_policy_loss(policy, obs, raw, logp, adv, 0.2)
    assert loss == pytest.approx(float(np.mean(-adv)), abs=1e-12)
    assert stats["kl_estimate"] == pytest.approx(0.0, abs=1e-12)
    assert stats["clip_fraction"] == 0.0


def test_infinite_clip_sentinel_reduces_to_the_unclipped_surrogate():
    rng = _rng(4)
    policy, obs, raw, logp = _loss_fixture(rng, n=16)
    old = logp + rng.normal(scale=0.3, size=16)
    adv = rng.normal(size=16)
    _, grads_inf, _ = rcppo.ppo_policy_loss(policy, obs, raw, old, adv, np.inf)
    ratio = np.exp(approx.policy_log_prob(policy, obs, raw) - old)
    upstream = -ratio * adv / 16
    want = approx.policy_logp_backward(policy, obs, raw, upstream)
    for g, w in zip(grads_inf, want):
        assert np.allclose(g, w, atol=1e-12)


def test_a_few_nonfinite_ratios_are_excluded_from_the_mean():
    rng = _rng(5)
    policy, obs, raw, logp = _loss_fixture(rng, n=128)
    old = logp.copy()
    old[7] = -np.inf  # ratio overflows to +inf
    adv = rng.normal(size=128)
    loss, _, stats = rcppo.ppo_policy_loss(policy, obs, raw, old, adv, 0.2)
    assert stats["n_excluded"] == 1
    keep = np.ones(128, bool)
    keep[7] = False
    assert loss == pytest.approx(float(np.mean(-adv[keep])), abs=1e-12)


def test_too_many_nonfinite_ratios_abort_the_update():
    rng = _rng(6)
    policy, obs, raw, logp = _loss_fixture(rng, n=128)
    old = logp.copy()
    old[[3, 60]] = -np.inf
    with pytest.raises(RuntimeError, match="non-finite"):
        rcppo.ppo_policy_loss(policy, obs, raw, old, logp * 0, 0.2)


@pytest.mark.parametrize("seed", range(5))
def test_policy_loss_gradients_match_finite_differences(seed):
    rng = _rng(100 + seed)
    policy, obs, raw, logp = _loss_fixture(rng, n=24)
    old = logp + rng.normal(scale=0.2, size=24)
    adv = rng.normal(size=24)

    def loss_and_grad(_params):
        loss, grads, _ = rcppo.ppo_policy_loss(
            policy, obs, raw, old, adv, 0.2, entropy_coef=0.01
        )
        return loss, grads

    err = approx.finite_difference_check(loss_and_grad, policy.trainable(), rng)
    assert err < 1e-4


def test_entropy_bonus_lowers_the_loss_by_coef_times_entropy():
    rng = _rng(7)
    policy, obs, raw, logp = _loss_fixture(rng, n=8)
    adv = rng.normal(size=8)
    bare, _, _ = rcppo.ppo_policy_loss(policy, obs, raw, logp, adv, 0.2)
    bonus, _, _ = rcppo.ppo_policy_loss(policy, obs, raw, logp, adv, 0.2, entropy_coef=0.5)
    assert bonus == pytest.approx(bare - 0.5 * approx.policy_entropy(policy))


# -- value loss ----------------------------------------------------------------------


def test_value_loss_is_zero_at_the_targets_and_quadratic_in_offsets():
    rng = _rng(8)
    net = approx.mlp_init((3, 8, 1), rng)
    obs = rng.normal(size=(10, 3))
    out = approx.mlp_forward(net, obs)[:, 0]
    scale = 4.0
    loss0, grads0 = rcppo.value_loss(net, obs, out * scale, scale)
    assert loss0 == pytest.approx(0.0, abs=1e-24)
    assert all(np.allclose(g, 0.0, atol=1e-12) for g in grads0)
    delta = 0.3
    loss_off, _ = rcppo.value_loss(net, obs, (out - delta) * scale, scale)
    assert loss_off == pytest.approx(delta**2)


def test_value_loss_gradients_match_finite_differences():
    rng = _rng(9)
    net = approx.mlp_init((3, 12, 1), rng)
    obs = rng.normal(size=(14, 3))
    targets = rng.normal(size=14) * 3.0

    def loss_and_grad(_params):
        return rcppo.value_loss(net, obs, targets, 2.5)

    assert approx.finite_difference_check(loss_and_grad, net.trainable(), rng) < 1e-4


# -- rollout collection ---------------------------------------------------------------


@pytest.fixture(scope="module")
def small_nets():
    rng = _rng(10)
    policy = _small_policy(4, rng)
    value = approx.mlp_init((4, 16, 1), rng)
    return policy, value


def _collect(pendulum, small_nets, seed, **overrides):
    policy, value = small_nets
    kw = dict(total_steps=10_000, n_envs=4, hidden=(16, 16))
    kw.update(overrides)
    cfg = rcppo.Phase1Config(**kw)
    return rcppo.collect_rollouts(
        pendulum, policy, value, cfg, AugmentedGoalParams(big_c=987.0),
        _rng(seed), z_max=300.0,
    )


def test_rollout_episodes_end_on_arrival_or_horizon(pendulum, small_nets):
    batch = _collect(pendulum, small_nets, seed=11)
    assert len(batch.episodes) == 4
    for ep in batch.episodes:
        if ep.reached:
            assert ep.tail_value <= 0.0
        else:
            assert len(ep.costs) == pendulum.horizon_max
        assert len(ep.obs) == len(ep.costs) == len(ep.log_probs) == len(ep.ghat)


def test_rollout_budgets_are_drawn_inside_the_configured_range(pendulum, small_nets):
    batch = _collect(pendulum, small_nets, seed=12)
    for ep in batch.episodes:
        assert -1.0 <= ep.z0 <= 300.0
        # margins the policy acted from are all positive (episode not over)
        assert np.all(ep.ghat > 0.0)


def test_rollout_collection_is_deterministic_under_a_fixed_seed(pendulum, small_nets):
    b1 = _collect(pendulum, small_nets, seed=13)
    b2 = _collect(pendulum, small_nets, seed=13)
    assert b1.total_steps == b2.total_steps
    for e1, e2 in zip(b1.episodes, b2.episodes):
        assert np.array_equal(e1.obs, e2.obs)
        assert np.array_equal(e1.log_probs, e2.log_probs)
        assert e1.z0 == e2.z0


def test_mode_rollouts_ignore_action_noise_but_keep_reset_noise(pendulum, small_nets):
    b1 = _collect(pendulum, small_nets, seed=14, init_log_std=0.0)
    b2 = _collect(pendulum, small_nets, seed=14, init_log_std=0.0)
    policy, value = small_nets
    cfg = rcppo.Phase1Config(total_steps=10_000, n_envs=4, hidden=(16, 16))
    d1 = rcppo.collect_rollouts(
        pendulum, policy, value, cfg, AugmentedGoalParams(big_c=987.0),
        _rng(14), z_max=300.0, deterministic=True,
    )
    d2 = rcppo.collect_rollouts(
        pendulum, policy, value, cfg, AugmentedGoalParams(big_c=987.0),
        _rng(14), z_max=300.0, deterministic=True,
    )
    for e1, e2 in zip(d1.episodes, d2.episodes):
        assert np.array_equal(e1.obs, e2.obs)
        assert np.array_equal(e1.actions_raw, e2.actions_raw)
    # stochastic and deterministic runs share the reset stream, so the
    # budgets agree even though the actions differ
    assert [e.z0 for e in d1.episodes] == [e.z0 for e in b1.episodes]
    assert np.array_equal(b1.episodes[0].obs[0], d1.episodes[0].obs[0])
    del b2


def test_lanes_born_inside_the_goal_yield_zero_length_episodes(pendulum, small_nets):
    class InGoalStarts:
        def __init__(self, inner):
            self._inner = inner

        def __getattr__(self, name):
            return getattr(self._inner, name)

        def sample_initial(self, rng, n=None):
            size = 1 if n is None else n
            # tiny negative angle swinging up through zero: already in G
            out = np.tile(np.array([-0.01, 1.0]), (size, 1))
            return out[0] if n is None else out

    prob = InGoalStarts(pendulum)
    policy, value = small_nets
    cfg = rcppo.Phase1Config(total_steps=10_000, n_envs=3, z_min=0.5, hidden=(16, 16))
    batch = rcppo.collect_rollouts(
        prob, policy, value, cfg, AugmentedGoalParams(big_c=987.0),
        _rng(15), z_max=300.0,
    )
    assert batch.total_steps == 0
    assert batch.reach_rate == 1.0
    for ep in batch.episodes:
        assert ep.reached and len(ep.costs) == 0
        assert ep.tail_value <= 0.0


def test_batch_cost_summary_averages_reached_episodes_only(pendulum, small_nets):
    batch = _collect(pendulum, small_nets, seed=16)
    reached = [ep for ep in batch.episodes if ep.reached]
    if reached:
        want = float(np.mean([ep.costs.sum() for ep in reached]))
        assert batch.mean_cost_reached == pytest.approx(want)
    else:
        assert np.isnan(batch.mean_cost_reached)


# -- training loops -------------------------------------------------------------------


def test_zero_step_training_returns_initialized_nets_and_no_log(pendulum):
    res = rcppo.train_phase1(pendulum, rcppo.Phase1Config(total_steps=0, hidden=(8, 8)))
    assert res.log_rows == []
    assert res.meta["z_max"] == pytest.approx(1600.0)
    assert res.meta["algorithm"] == "rcppo"
    out = approx.mlp_forward(res.value, np.zeros((1, 4)))
    assert out.shape == (1, 1)


def test_short_training_runs_are_bitwise_reproducible(pendulum):
    cfg = rcppo.Phase1Config(
        total_steps=900, n_envs=2, epochs=2, minibatch_size=64, hidden=(8, 8), seed=21
    )
    r1 = rcppo.train_phase1(pendulum, cfg)
    r2 = rcppo.train_phase1(pendulum, cfg)
    for a, b in zip(r1.policy.trainable(), r2.policy.trainable()):
        assert np.array_equal(a, b)
    assert r1.log_rows == r2.log_rows


def test_zero_step_finetune_leaves_the_value_net_unchanged(pendulum):
    res = rcppo.train_phase1(pendulum, rcppo.Phase1Config(total_steps=0, hidden=(8, 8)))
    v2, rows, meta2 = rcppo.finetune_phase2(
        pendulum, res.policy, res.value, res.meta, rcppo.Phase2Config(total_steps=0)
    )
    assert rows == []
    for a, b in zip(res.value.trainable(), v2.trainable()):
        assert np.array_equal(a, b)
    assert 0.0 < meta2["phase2_gamma"] < 1.0


def test_phase2_gamma_override_is_respected(pendulum):
    res = rcppo.train_phase1(pendulum, rcppo.Phase1Config(total_steps=0, hidden=(8, 8)))
    _, _, meta2 = rcppo.finetune_phase2(
        pendulum, res.policy, res.value, res.meta,
        rcppo.Phase2Config(total_steps=0, gamma=0.5),
    )
    assert meta2["phase2_gamma"] == 0.5


# -- bisection -------------------------------------------------------------------------


def test_bisection_finds_a_linear_root_within_tolerance():
    sol = rcppo.bisect_z_star(lambda x, y, z: 5.0 - z, None, 1.0, 0.0, 10.0, tol=1e-3)
    assert sol.z_star == pytest.approx(5.0, abs=1e-3)
    assert sol.v_at_zstar <= 0.0
    assert sol.bracket[1] - sol.bracket[0] <= 1e-3


def test_bisection_short_circuits_when_the_whole_range_is_feasible():
    sol = rcppo.bisect_z_star(lambda x, y, z: -1.0, None, 1.0, 2.0, 9.0, tol=1e-3)
    assert sol.z_star == 2.0
    assert sol.iterations == 0


def test_bisection_raises_when_even_the_max_budget_fails():
    with pytest.raises(rcppo.Infeasible):
        rcppo.bisect_z_star(lambda x, y, z: 1.0, None, 1.0, 0.0, 10.0)


def test_bisection_counts_and_warns_on_sign_regressions():
    def wobble(x, y, z):
        return np.sin(z)  # feasible pockets [pi, 2pi] and [3pi, 11]

    with pytest.warns(rcppo.NonMonotoneWarning):
        sol = rcppo.bisect_z_star(wobble, None, 1.0, 0.5, 11.0, tol=1e-4, scan_points=64)
    assert sol.monotone_violations >= 1
    assert sol.z_star == pytest.approx(np.pi, abs=1e-3)


def test_bisection_raises_on_a_nan_value_at_z_max():
    with pytest.raises(ValueError, match="NaN"):
        rcppo.bisect_z_star(lambda x, y, z: math.nan, None, 1.0, -1.0, 600.0)


def test_bisection_raises_on_a_nan_value_at_a_midpoint():
    # finite at both ends (infeasible at z_min, feasible at z_max), NaN
    # only at the first midpoint 299.5
    def value(x, y, z):
        return np.where(z == 299.5, math.nan, 100.0 - z)

    with pytest.raises(ValueError, match="NaN"):
        rcppo.bisect_z_star(value, None, 1.0, -1.0, 600.0)


def test_bisection_raises_on_a_nan_value_at_an_untaken_speculative_midpoint():
    # the root 100 sends the walk below 299.5, to 149.25; the sibling
    # 449.75 is asked for in the same call but never taken
    def value(x, y, z):
        return np.where(z == 449.75, math.nan, 100.0 - z)

    assert sequential_bisection(lambda z: value(None, None, z), -1.0, 600.0, 1e-2) is not None
    with pytest.raises(ValueError, match="NaN"):
        rcppo.bisect_z_star(value, None, 1.0, -1.0, 600.0)


def test_bisection_validates_tolerance_and_bracket():
    with pytest.raises(ValueError):
        rcppo.bisect_z_star(lambda x, y, z: -z, None, 1.0, 0.0, 10.0, tol=0.0)
    with pytest.raises(ValueError):
        rcppo.bisect_z_star(lambda x, y, z: -z, None, 1.0, 10.0, 0.0)


@pytest.mark.parametrize("value, z_min, z_max, tol", [
    # without the check, each of these returns a budget
    pytest.param(lambda x, y, z: 100.0 - z, -1.0, 600.0, math.nan, id="nan-tol"),
    pytest.param(lambda x, y, z: 100.0 - z, -1.0, 600.0, math.inf, id="infinite-tol"),
    pytest.param(lambda x, y, z: -1.0, -math.inf, 600.0, 1e-2, id="infinite-z-min"),
    pytest.param(lambda x, y, z: -1.0, math.nan, 600.0, 1e-2, id="nan-z-min"),
    pytest.param(lambda x, y, z: -1.0, -1.0, math.inf, 1e-2, id="infinite-z-max"),
    pytest.param(lambda x, y, z: -1.0, -1.0, math.nan, 1e-2, id="nan-z-max"),
])
def test_bisection_refuses_non_finite_tolerance_and_bounds(value, z_min, z_max, tol):
    with pytest.raises(ValueError, match="finite"):
        rcppo.bisect_z_star(value, None, 1.0, z_min, z_max, tol)


def _step_at(c):
    return lambda z: np.where(np.asarray(z) >= c, -1.0, 1.0)


# (value of the budget, z_min, z_max, tol, scan_points); on [0, 10] the
# first call of midpoints asks for 5, then 2.5 and 7.5, then 1.25, 3.75,
# 6.25 and 8.75; 5.625 is on the first level of the second call
BISECTION_CASES = [
    pytest.param(lambda z: 5.3 - z, 0.0, 10.0, 1e-3, 0, id="linear"),
    pytest.param(lambda z: 100.0 - z, -1.0, 600.0, 1e-2, 0, id="linear-bench-range"),
    pytest.param(lambda z: 5.0 - z, 0.0, 10.0, 1e-3, 0, id="root-on-first-level-midpoint"),
    pytest.param(lambda z: 7.5 - z, 0.0, 10.0, 1e-3, 0, id="root-on-second-level-midpoint"),
    pytest.param(lambda z: 3.75 - z, 0.0, 10.0, 1e-3, 0, id="root-on-third-level-midpoint"),
    pytest.param(lambda z: 5.625 - z, 0.0, 10.0, 1e-3, 0, id="root-on-the-next-call"),
    pytest.param(_step_at(3.3), 0.0, 10.0, 1e-3, 0, id="step"),
    pytest.param(_step_at(8.75), 0.0, 10.0, 1e-3, 0, id="step-on-a-midpoint"),
    pytest.param(lambda z: 300.25 - 2.0 * z, -1.0, 600.0, 1e-2, 33, id="linear-with-scan"),
    pytest.param(np.sin, 0.5, 11.0, 1e-4, 64, id="sin-wobble-with-scan"),
    pytest.param(lambda z: -np.sin(z), 0.5, 11.0, 1e-4, 64, id="negated-sin-with-scan"),
    pytest.param(lambda z: 6.0 - z, 0.0, 10.0, 6.0, 0, id="tol-stops-after-one-midpoint"),
    pytest.param(lambda z: 6.0 - z, 0.0, 10.0, 3.0, 0, id="tol-stops-after-two-midpoints"),
    pytest.param(lambda z: 6.3 - z, 0.0, 10.0, 0.1, 0, id="tol-stops-mid-call"),
    pytest.param(lambda z: 6.3 - z, 0.0, 10.0, 20.0, 0, id="tol-wider-than-the-range"),
    pytest.param(lambda z: 100.0 - z, -1.0, 600.0, 1e-15, 0, id="max-iter-stops-mid-call"),
    pytest.param(lambda z: 300.3 - z, -1.0, 600.0, 1e-15, 33, id="max-iter-with-scan"),
    pytest.param(lambda z: -1.0, 3.0, 3.0, 1e-3, 0, id="z-min-equals-z-max"),
    pytest.param(lambda z: 1.0, 3.0, 3.0, 1e-3, 0, id="z-min-equals-z-max-infeasible"),
    pytest.param(lambda z: -1.0 - z, 0.0, 10.0, 1e-3, 0, id="feasible-at-z-min"),
    pytest.param(lambda z: -1.0 - z, 0.0, 10.0, 1e-3, 9, id="feasible-at-z-min-with-scan"),
    pytest.param(lambda z: 11.0 - z, 0.0, 10.0, 1e-3, 0, id="infeasible"),
    pytest.param(lambda z: 11.0 - z, 0.0, 10.0, 1e-3, 9, id="infeasible-with-scan"),
]


def _assert_bisection_matches_reference(value, z_min, z_max, tol, scan_points):
    want = sequential_bisection(value, z_min, z_max, tol, scan_points)
    args = (lambda x, y, z: value(z), None, 1.0, z_min, z_max, tol, scan_points)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", rcppo.NonMonotoneWarning)
        if want is None:
            with pytest.raises(rcppo.Infeasible):
                rcppo.bisect_z_star(*args)
            return None
        sol = rcppo.bisect_z_star(*args)
    got = {
        "z_star": sol.z_star,
        "bracket": sol.bracket,
        "iterations": sol.iterations,
        "monotone_violations": sol.monotone_violations,
    }
    assert got == want
    assert sol.v_at_zstar == float(value(sol.z_star))
    return sol


@pytest.mark.parametrize("value, z_min, z_max, tol, scan_points", BISECTION_CASES)
def test_bisection_matches_the_sequential_reference(value, z_min, z_max, tol, scan_points):
    _assert_bisection_matches_reference(value, z_min, z_max, tol, scan_points)


def test_bisection_stops_at_max_iter_below_float_resolution():
    sol = _assert_bisection_matches_reference(lambda z: 100.0 - z, -1.0, 600.0, 1e-15, 0)
    assert sol.iterations == math.ceil(math.log2(601.0 / 1e-15)) + 5
    assert sol.iterations % 3 != 0  # the stop falls inside a call
    assert sol.bracket[1] - sol.bracket[0] > 1e-15


def test_bisection_asks_for_three_levels_of_midpoints_per_call():
    asked = []

    def value(x, y, z):
        asked.append(z.copy())
        return 5.3 - z

    sol = rcppo.bisect_z_star(value, None, 1.0, 0.0, 10.0, tol=1e-3)
    assert [len(z) for z in asked] == [2] + [7] * math.ceil(sol.iterations / 3)
    assert asked[0].tolist() == [0.0, 10.0]
    assert asked[1].tolist() == [5.0, 2.5, 7.5, 1.25, 3.75, 6.25, 8.75]


@settings(max_examples=200, deadline=None)
@given(
    root=st.floats(-2.0, 12.0),
    tol=st.floats(1e-12, 20.0),
    step=st.booleans(),
    scan_points=st.sampled_from([0, 2, 7]),
)
def test_bisection_matches_the_sequential_reference_on_random_roots(root, tol, step, scan_points):
    value = _step_at(root) if step else (lambda z: root - z)
    _assert_bisection_matches_reference(value, 0.0, 10.0, tol, scan_points)


def _rooted_at_first_column(x, y, z):
    # x is one state (1,) or rows (m, 1); the root sits at x[0] + 2 y
    return np.asarray(x)[..., 0] + 2.0 * np.asarray(y) - z


def _assert_many_states_match_per_state_calls(roots, flags, tol, scan_points):
    xs = np.asarray(roots, dtype=np.float64)[:, None]
    ys = np.asarray(flags, dtype=np.float64)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", rcppo.NonMonotoneWarning)
        many = rcppo._bisect(_rooted_at_first_column, xs, ys, True, 0.0, 10.0, tol, scan_points)
        for x, y, got in zip(xs, ys, many):
            try:
                want = rcppo.bisect_z_star(
                    _rooted_at_first_column, x, float(y), 0.0, 10.0, tol, scan_points
                )
            except rcppo.Infeasible as exc:
                assert isinstance(got, rcppo.Infeasible)
                assert str(got) == str(exc)
            else:
                assert got == want


def test_many_states_match_per_state_calls_infeasible_ones_included():
    roots = [5.3, -1.0, 11.0, 5.0, 3.75, 9.99, 0.0, 10.0, 10.5, 2.2]
    flags = [-1.0, -1.0, -1.0, -1.0, -1.0, -1.0, 1.0, -1.0, -1.0, 1.0]
    _assert_many_states_match_per_state_calls(roots, flags, 1e-3, 0)
    _assert_many_states_match_per_state_calls(roots, flags, 0.1, 9)


@settings(max_examples=100, deadline=None)
@given(
    roots=st.lists(st.floats(-2.0, 12.0), min_size=1, max_size=12),
    tol=st.floats(1e-12, 20.0),
    scan_points=st.sampled_from([0, 5]),
)
def test_many_states_match_per_state_calls_on_random_roots(roots, tol, scan_points):
    _assert_many_states_match_per_state_calls(roots, [-1.0] * len(roots), tol, scan_points)


# -- z* regression ---------------------------------------------------------------------


def test_regressor_learns_a_constant_budget_map(pendulum):
    meta = _meta(z_max=100.0)
    reg = rcppo.fit_z_regressor(
        lambda x, y, z: 40.0 - z, pendulum, meta,
        n_samples=64, tol=1e-2, seed=3, hidden=(8,), epochs=4000, lr=1e-2,
    )
    assert reg.n_infeasible == 0
    assert reg.holdout_mae < 1e-2
    # pendulum states are all safe, so query at the y seen during the fit
    preds = rcppo.regressor_predict(reg, pendulum.sample_initial(_rng(4), 32), -1.0)
    assert float(np.median(np.abs(preds - 40.0))) < 3e-2


def test_regressor_bisects_all_samples_in_one_search(pendulum):
    shapes = []

    def value(x, y, z):
        shapes.append((np.shape(x), np.shape(y), np.shape(z)))
        return 40.0 - z

    rcppo.fit_z_regressor(
        value, pendulum, _meta(z_max=100.0), n_samples=16, tol=1e-2, seed=3, hidden=(4,), epochs=1
    )
    per_state = rcppo.bisect_z_star(lambda x, y, z: 40.0 - z, None, -1.0, -1.0, 100.0, 1e-2)
    rounds = math.ceil(per_state.iterations / 3)
    assert shapes == [((32, 2), (32,), (32,))] + [((112, 2), (112,), (112,))] * rounds


def test_regressor_refuses_mostly_infeasible_value_functions(pendulum):
    with pytest.raises(RuntimeError, match="infeasible"):
        rcppo.fit_z_regressor(
            lambda x, y, z: 1.0, pendulum, _meta(), n_samples=32, seed=5
        )


# -- deployment ------------------------------------------------------------------------


def test_deployment_budget_telescopes_and_ends_on_raw_goal(pendulum):
    rng = _rng(30)
    policy = _small_policy(4, rng)
    traj = rcppo.deploy_policy(pendulum, policy, _meta(), 50.0, np.array([np.pi, 0.0]))
    assert np.allclose(traj.z[0] - np.cumsum(traj.costs), traj.z[1:], atol=1e-12)
    assert traj.z0 == 50.0
    if traj.reached:
        assert pendulum.in_goal(traj.states[-1])
        assert traj.length <= pendulum.horizon_max
    else:
        assert traj.length == pendulum.horizon_max
    # budget exhaustion must not end the episode: costs keep accruing
    assert traj.cum_cost == pytest.approx(float(np.sum(traj.costs)))


def test_deployment_callable_budget_source_is_invoked_once(pendulum):
    rng = _rng(31)
    policy = _small_policy(4, rng)
    calls = []

    def src(x, y):
        calls.append((x.copy(), y))
        return 25.0

    traj = rcppo.deploy_policy(pendulum, policy, _meta(), src, np.array([1.0, 0.0]))
    assert len(calls) == 1
    assert traj.z0 == 25.0
    assert calls[0][1] == -1.0  # pendulum has no avoid set


def test_deployment_reports_infeasible_starts_and_falls_back_to_z_max(pendulum):
    rng = _rng(32)
    policy = _small_policy(4, rng)

    def src(x, y):
        raise rcppo.Infeasible("no budget works")

    traj = rcppo.deploy_policy(pendulum, policy, _meta(z_max=77.0), src, np.array([2.0, 0.0]))
    assert traj.infeasible_start
    assert traj.z0 == 77.0
    assert traj.length > 0


def test_budget_free_deployment_keeps_an_infinite_budget_column(pendulum):
    rng = _rng(33)
    policy = _small_policy(2, rng)
    meta = _meta(algorithm="ppo_lagrangian")
    traj = rcppo.deploy_policy(pendulum, policy, meta, None, np.array([np.pi, 0.0]))
    assert np.all(np.isinf(traj.z))
    assert traj.length > 0


def test_deployment_latches_the_violation_flag(windfield):
    rng = _rng(34)
    meta = {
        "algorithm": "rcppo",
        "obs_scale": list(windfield.obs_scale),
        "z_min": -1.0,
        "z_max": 500.0,
        "big_c": 987.0,
    }
    policy = _small_policy(
        windfield.state_dim + 2, rng,
        low=windfield.action_low, high=windfield.action_high,
    )
    # push the mode straight at the nearest building to force a violation
    hit = None
    for seed in range(40):
        x0 = windfield.sample_initial(_rng(seed))
        traj = rcppo.deploy_policy(windfield, policy, meta, 100.0, x0)
        if traj.violated:
            hit = traj
            break
    if hit is None:
        pytest.skip("random policy never clipped a building")
    first = int(np.argmax(hit.y > 0))
    assert np.all(hit.y[first:] == 1.0)


# -- evaluation ------------------------------------------------------------------------


def test_evaluation_report_aggregates_match_its_own_episodes(pendulum):
    rng = _rng(35)
    policy = _small_policy(4, rng)
    rep = rcppo.evaluate_policy(pendulum, policy, _meta(), 60.0, 16, seed=9)
    eps = rep["episodes"]
    assert rep["n_episodes"] == len(eps) == 16
    reached = [e for e in eps if e["reached"]]
    assert rep["reach_rate"] == pytest.approx(len(reached) / 16)
    if reached:
        assert rep["mean_cost_reached"] == pytest.approx(
            float(np.mean([e["cumulative_cost"] for e in reached]))
        )
    assert rep["violation_rate"] == pytest.approx(
        float(np.mean([e["violated"] for e in eps]))
    )


def test_evaluation_is_reproducible_by_seed(pendulum):
    rng = _rng(36)
    policy = _small_policy(4, rng)
    r1 = rcppo.evaluate_policy(pendulum, policy, _meta(), 60.0, 8, seed=11)
    r2 = rcppo.evaluate_policy(pendulum, policy, _meta(), 60.0, 8, seed=11)
    assert r1["reach_rate"] == r2["reach_rate"]
    assert [e["cumulative_cost"] for e in r1["episodes"]] == [
        e["cumulative_cost"] for e in r2["episodes"]
    ]


def test_evaluation_under_control_noise_is_reproducible_by_seed(pendulum):
    policy = _small_policy(4, _rng(37))
    noisy = ControlNoiseWrapper(pendulum, NoiseWrapperConfig(0.1, seed=97))
    r1 = rcppo.evaluate_policy(noisy, policy, _meta(), 60.0, 8, seed=11)
    r2 = rcppo.evaluate_policy(noisy, policy, _meta(), 60.0, 8, seed=11)
    assert r1 == r2
    # zero-width noise reproduces the base problem, so the starts are the
    # ones evaluate_policy draws without the wrapper
    silent = ControlNoiseWrapper(pendulum, NoiseWrapperConfig(0.0, seed=97))
    assert rcppo.evaluate_policy(silent, policy, _meta(), 60.0, 8, seed=11) == (
        rcppo.evaluate_policy(pendulum, policy, _meta(), 60.0, 8, seed=11)
    )


# -- lane engine: every evaluation lane matches its one-lane deployment -----------------


def _assert_lanes_match_one_lane_deployments(problem, policy, meta, z_source, n, seed):
    rep = rcppo.evaluate_policy(problem, policy, meta, z_source, n, seed=seed)
    assert len(rep["episodes"]) == rep["n_episodes"] == n
    rng = _rng(seed)
    for rec in rep["episodes"]:
        traj = rcppo.deploy_policy(problem, policy, meta, z_source, problem.sample_initial(rng))
        assert rec["length"] == traj.length
        assert rec["reached"] == (traj.reached and not traj.violated)
        assert rec["violated"] == traj.violated
        assert rec["z0"] == traj.z0
        assert rec["infeasible_start"] == traj.infeasible_start
        assert rec["cumulative_cost"] == pytest.approx(traj.cum_cost, rel=0, abs=1e-9)
    return rep


def test_lanes_match_one_lane_deployments_at_a_fixed_budget(pendulum):
    rep = _assert_lanes_match_one_lane_deployments(
        pendulum, _small_policy(4, _rng(40)), _meta(), 60.0, 24, seed=3
    )
    assert len({e["length"] for e in rep["episodes"]}) > 1  # lanes end on their own


def test_lanes_match_one_lane_deployments_with_bisected_budgets(pendulum):
    def value(x, y, z):
        return 30.0 + 20.0 * abs(float(x[0])) - z

    def z_source(x, y):
        return rcppo.bisect_z_star(value, x, y, -1.0, 100.0, tol=1e-2).z_star

    rep = _assert_lanes_match_one_lane_deployments(
        pendulum, _small_policy(4, _rng(41)), _meta(), z_source, 16, seed=4
    )
    assert len({e["z0"] for e in rep["episodes"]}) == 16


def test_budget_free_lanes_match_one_lane_deployments(pendulum):
    meta = _meta(algorithm="ppo_lagrangian")
    policy = _small_policy(2, _rng(42))
    _assert_lanes_match_one_lane_deployments(pendulum, policy, meta, None, 16, seed=5)
    for traj in rcppo.deploy_policy(
        pendulum, policy, meta, None, pendulum.sample_initial(_rng(5), 4)
    ):
        assert np.all(np.isinf(traj.z))


def test_windfield_lanes_latch_violations_like_one_lane_deployments(windfield):
    meta = {
        "algorithm": "rcppo",
        "obs_scale": list(windfield.obs_scale),
        "z_min": -1.0,
        "z_max": 500.0,
        "big_c": 987.0,
    }
    policy = _small_policy(
        windfield.state_dim + 2, _rng(34),
        low=windfield.action_low, high=windfield.action_high,
    )
    rep = _assert_lanes_match_one_lane_deployments(windfield, policy, meta, 100.0, 40, seed=6)
    if not any(e["violated"] for e in rep["episodes"]):
        pytest.skip("random policy never clipped a building")
    rng = _rng(6)
    starts = np.stack([windfield.sample_initial(rng) for _ in range(40)])
    for traj in rcppo.deploy_policy(windfield, policy, meta, 100.0, starts):
        if traj.violated:
            first = int(np.argmax(traj.y > 0))
            assert np.all(traj.y[first:] == 1.0)
        else:
            assert np.all(traj.y == -1.0)


def test_an_infeasible_start_falls_back_to_z_max_on_its_own_lane(pendulum):
    def z_source(x, y):
        if x[0] > 0.0:
            raise rcppo.Infeasible("no budget works")
        return 25.0

    rep = _assert_lanes_match_one_lane_deployments(
        pendulum, _small_policy(4, _rng(43)), _meta(z_max=77.0), z_source, 16, seed=7
    )
    flags = [e["infeasible_start"] for e in rep["episodes"]]
    assert any(flags) and not all(flags)
    for e in rep["episodes"]:
        assert e["z0"] == (77.0 if e["infeasible_start"] else 25.0)


def test_a_lane_born_in_the_goal_has_length_zero(pendulum):
    class SomeGoalStarts:
        def __init__(self, inner):
            self._inner = inner

        def __getattr__(self, name):
            return getattr(self._inner, name)

        def sample_initial(self, rng, n=None):
            x = self._inner.sample_initial(rng)
            # tiny negative angle swinging up through zero: already in G
            return np.array([-0.01, 1.0]) if x[0] < 0.0 else x

    prob = SomeGoalStarts(pendulum)
    rep = _assert_lanes_match_one_lane_deployments(
        prob, _small_policy(4, _rng(44)), _meta(), 60.0, 12, seed=8
    )
    born = [e for e in rep["episodes"] if e["length"] == 0]
    assert born and len(born) < 12
    assert all(e["reached"] and e["cumulative_cost"] == 0.0 for e in born)


def test_zero_episode_evaluation_runs_no_lanes(pendulum):
    policy = _small_policy(4, _rng(45))
    rep = rcppo.evaluate_policy(pendulum, policy, _meta(), 60.0, 0, seed=9)
    assert rep == {
        "n_episodes": 0,
        "reach_rate": None,
        "violation_rate": None,
        "mean_cost_reached": None,
        "median_cost_reached": None,
        "episodes": [],
    }
    assert rcppo.deploy_policy(pendulum, policy, _meta(), 60.0, np.empty((0, 2))) == []


def test_deployment_takes_one_start_or_a_batch_of_starts(pendulum):
    policy = _small_policy(4, _rng(46))
    starts = pendulum.sample_initial(_rng(10), 3)
    batch = rcppo.deploy_policy(pendulum, policy, _meta(), 60.0, starts)
    assert isinstance(batch, list) and len(batch) == 3
    one = rcppo.deploy_policy(pendulum, policy, _meta(), 60.0, starts[1])
    assert isinstance(one, rcppo.Trajectory)
    assert np.array_equal(one.states[0], starts[1])
    with pytest.raises(ValueError):
        rcppo.deploy_policy(pendulum, policy, _meta(), 60.0, np.zeros(3))
