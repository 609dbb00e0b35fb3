import csv
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from reachbudget import baselines, envkit
from reachbudget.baselines import BaselineConfig, LagrangianRewardConfig

from oracles import (
    enumerate_best_whole_grid,
    simulate_two_start_bandit,
    testbed_cost as closed_form_cost,
    testbed_reach as closed_form_reach,
    testbed_reward as closed_form_reward,
)


def _rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


# -- scalarized reward ---------------------------------------------------------------


def test_safe_non_goal_step_is_charged_beta_times_cost(pendulum):
    cfg = LagrangianRewardConfig(beta=0.1)
    r = baselines.lagrangian_reward(
        pendulum, np.array([1.5, 0.0]), np.array([1.0, 0.0]), 2.0, cfg
    )
    assert r == pytest.approx(-0.2)


def test_goal_entering_step_earns_the_goal_reward(pendulum):
    cfg = LagrangianRewardConfig(beta=0.1)
    # arrival state crosses zero on the next half-step: inside G
    r = baselines.lagrangian_reward(
        pendulum, np.array([0.2, -1.0]), np.array([-0.01, 1.0]), 0.0, cfg
    )
    assert r == pytest.approx(20.0)


def test_violating_step_pays_beta_times_fail_plus_cost(windfield):
    cfg = LagrangianRewardConfig(beta=10.0)
    inside_building = np.array([-2.5, -10.0])
    r = baselines.lagrangian_reward(
        windfield, np.array([-7.0, -10.0]), inside_building, 1.0, cfg
    )
    assert r == pytest.approx(-210.0)


def test_per_step_penalty_applies_only_off_the_goal(pendulum):
    cfg = LagrangianRewardConfig(beta=0.0, p_goal=0.5)
    off = baselines.lagrangian_reward(
        pendulum, np.array([1.5, 0.0]), np.array([1.0, 0.0]), 0.0, cfg
    )
    on = baselines.lagrangian_reward(
        pendulum, np.array([0.2, -1.0]), np.array([-0.01, 1.0]), 0.0, cfg
    )
    assert off == pytest.approx(-0.5)
    assert on == pytest.approx(20.0)


def test_reward_config_rejects_negative_weights():
    with pytest.raises(ValueError):
        LagrangianRewardConfig(beta=-0.1)
    with pytest.raises(ValueError):
        LagrangianRewardConfig(shaping_k=-1.0)


# -- shaping potential ----------------------------------------------------------------


def test_potential_vanishes_at_the_goal_and_tracks_distance(pendulum):
    cfg = LagrangianRewardConfig(shaping_enabled=True, shaping_k=2.0)
    at_goal = baselines.potential_phi(pendulum, np.array([0.0, 0.0]), cfg)
    away = baselines.potential_phi(pendulum, np.array([1.0, 0.0]), cfg)
    assert at_goal == pytest.approx(0.0)
    assert away < 0.0
    assert away == pytest.approx(-2.0 * float(pendulum.goal_distance(np.array([1.0, 0.0]))))


def test_shaping_telescopes_to_the_endpoint_potentials(pendulum):
    cfg = LagrangianRewardConfig(beta=0.3, shaping_enabled=True, shaping_k=1.5, gamma=1.0)
    bare = LagrangianRewardConfig(beta=0.3, shaping_enabled=False)
    rng = _rng(5)
    x = pendulum.sample_initial(rng)
    xs = [x]
    for _ in range(20):
        u = rng.uniform(-1.0, 1.0, 1)
        x, _ = pendulum.step_and_cost(x, u)
        xs.append(x)
    shaped_sum = 0.0
    bare_sum = 0.0
    for a, b in zip(xs[:-1], xs[1:]):
        shaped_sum += baselines.lagrangian_reward(pendulum, a, b, 0.7, cfg)
        bare_sum += baselines.lagrangian_reward(pendulum, a, b, 0.7, bare)
    extra = baselines.potential_phi(pendulum, xs[-1], cfg) - baselines.potential_phi(
        pendulum, xs[0], cfg
    )
    assert shaped_sum == pytest.approx(bare_sum + extra, rel=1e-12)


def _tabular_argmax_sets(mdp, view, cfg, horizon=32):
    """Optimal-action sets per state for the scalarized reward at gamma=1."""
    n, m = mdp.n_states, mdp.n_actions
    nxt = mdp.next_state
    phi = np.array(
        [baselines.potential_phi(view, np.array([float(s)]), cfg) for s in range(n)]
    )
    reward = np.empty((n, m))
    for s in range(n):
        for a in range(m):
            sp = nxt[s, a]
            reward[s, a] = (
                cfg.r_goal * float(mdp.goal_mask[sp])
                - cfg.p_goal * float(~mdp.goal_mask[sp])
                - cfg.beta * (cfg.c_fail * float(mdp.avoid_mask[sp]) + mdp.cost[s, a])
            )
            if cfg.shaping_enabled:
                reward[s, a] += cfg.gamma * phi[sp] - phi[s]
    value = np.zeros(n)
    for _ in range(horizon):
        q = reward + cfg.gamma * value[nxt]
        q[mdp.goal_mask] = 0.0  # absorbing goal
        value = q.max(axis=1)
    sets = []
    for s in range(n):
        if mdp.goal_mask[s]:
            sets.append(None)
        else:
            sets.append(frozenset(np.flatnonzero(q[s] >= q[s].max() - 1e-9)))
    return sets


def test_potential_shaping_preserves_the_optimal_tabular_policy():
    mdp = envkit.grid_reachavoid_make(4, 4, ((1, 1), (2, 2)), (3, 3), 1.0)
    view = envkit.TabularProblemView(mdp)
    plain = LagrangianRewardConfig(beta=1.0, gamma=1.0, shaping_enabled=False)
    shaped = LagrangianRewardConfig(
        beta=1.0, gamma=1.0, shaping_enabled=True, shaping_k=0.7
    )
    assert _tabular_argmax_sets(mdp, view, plain) == _tabular_argmax_sets(
        mdp, view, shaped
    )


# -- standard advantage estimation ------------------------------------------------------


def test_reward_gae_matches_the_direct_residual_sum():
    rng = _rng(7)
    rewards = rng.normal(size=12)
    values = rng.normal(size=12)
    tail = 0.4
    gamma, lam = 0.95, 0.8
    adv, targets = baselines._reward_gae(rewards, values, tail, gamma, lam)
    v_next = np.concatenate([values[1:], [tail]])
    deltas = rewards + gamma * v_next - values
    for t in range(12):
        want = sum((gamma * lam) ** k * deltas[t + k] for k in range(12 - t))
        assert adv[t] == pytest.approx(want, rel=1e-12)
    assert np.allclose(targets, adv + values)


def test_reward_gae_with_lambda_one_is_the_discounted_return_residual():
    rewards = np.array([1.0, 2.0, 3.0])
    values = np.zeros(3)
    adv, _ = baselines._reward_gae(rewards, values, 0.0, 0.5, 1.0)
    assert adv[0] == pytest.approx(1.0 + 0.5 * 2.0 + 0.25 * 3.0)


# -- trainer -----------------------------------------------------------------------------


def test_shaping_at_a_discount_other_than_the_training_one_is_refused():
    # the reward would shape with 0.99 while advantages discount by 0.9
    shaped = LagrangianRewardConfig(shaping_enabled=True)
    with pytest.raises(ValueError, match="reward.gamma=0.99 must equal gamma=0.9"):
        BaselineConfig(gamma=0.9, reward=shaped)
    assert BaselineConfig(gamma=0.9, reward=LagrangianRewardConfig(gamma=0.9, shaping_enabled=True))
    assert BaselineConfig(gamma=0.9, reward=LagrangianRewardConfig(shaping_enabled=False))


def test_baseline_policy_consumes_the_raw_state_only(pendulum):
    cfg = BaselineConfig(total_steps=0, hidden=(8, 8))
    res = baselines.train_ppo_baseline(pendulum, cfg)
    assert res.policy.trunk.weights[0].shape[0] == pendulum.state_dim
    assert res.meta["algorithm"] == "ppo_lagrangian"
    assert res.log_rows == []


def test_baseline_training_logs_the_shared_schema_and_reproduces(pendulum):
    cfg = BaselineConfig(
        total_steps=900, n_envs=2, epochs=2, minibatch_size=64, hidden=(8, 8), seed=3
    )
    r1 = baselines.train_ppo_baseline(pendulum, cfg)
    r2 = baselines.train_ppo_baseline(pendulum, cfg)
    assert r1.log_rows and r1.log_rows == r2.log_rows
    want_keys = {
        "iteration", "env_steps", "reach_rate", "mean_cost_reached",
        "policy_loss", "value_loss", "entropy", "kl_estimate",
    }
    assert set(r1.log_rows[0]) == want_keys
    for a, b in zip(r1.policy.trainable(), r2.policy.trainable()):
        assert np.array_equal(a, b)


# -- pareto front and grid search --------------------------------------------------------


def test_dominated_cells_are_excluded_from_the_front():
    rows = [
        {"reach_rate": 0.90, "mean_cost": 10.0},
        {"reach_rate": 0.95, "mean_cost": 8.0},
        {"reach_rate": 0.99, "mean_cost": 30.0},
    ]
    assert baselines.pareto_front(rows) == [False, True, True]


def test_cells_that_never_reach_count_as_infinitely_expensive():
    rows = [
        {"reach_rate": 0.2, "mean_cost": float("nan")},
        {"reach_rate": 0.1, "mean_cost": 5.0},
    ]
    # the nan-cost cell is dominated on cost, the cheap cell on reach
    assert baselines.pareto_front(rows) == [True, True]
    alone = [{"reach_rate": 0.0, "mean_cost": float("nan")}]
    assert baselines.pareto_front(alone) == [True]


def test_tiny_grid_search_records_failures_and_marks_the_front(pendulum, tmp_path):
    base = BaselineConfig(
        total_steps=300, n_envs=2, epochs=1, minibatch_size=64, hidden=(8, 8)
    )
    rows = baselines.grid_search(
        pendulum, base,
        r_goal_values=[10.0], p_goal_values=[0.0], beta_values=[0.1, -1.0],
        n_eval_episodes=2, seed=5,
    )
    assert len(rows) == 2
    good, bad = rows
    assert good["error"] == ""
    assert 0.0 <= good["reach_rate"] <= 1.0
    assert bad["error"].startswith("ValueError")
    assert np.isnan(bad["reach_rate"])
    assert [r["on_front"] for r in rows] == list(baselines.pareto_front(rows))

    path = tmp_path / "grid.csv"
    baselines.write_grid_csv(str(path), rows)
    with open(path) as fh:
        rec = list(csv.reader(fh))
    assert rec[0] == ["r_goal", "p_goal", "beta", "reach_rate", "mean_cost", "on_front", "error"]
    assert float(rec[1][0]) == 10.0
    assert len(rec) == 3


def test_grid_search_cells_are_reproducible_across_calls(pendulum):
    base = BaselineConfig(
        total_steps=300, n_envs=2, epochs=1, minibatch_size=64, hidden=(8, 8)
    )
    kw = dict(
        r_goal_values=[10.0], p_goal_values=[0.0], beta_values=[0.1],
        n_eval_episodes=2, seed=9,
    )
    r1 = baselines.grid_search(pendulum, base, **kw)
    r2 = baselines.grid_search(pendulum, base, **kw)
    assert r1 == r2
    # the docstring promises rows independent of the worker count
    r3 = baselines.grid_search(pendulum, base, n_workers=2, **kw)
    assert r3 == r1


def test_grid_cells_train_with_every_base_setting_but_the_swept_weights(
    pendulum, monkeypatch
):
    seen = []

    def spy(problem, cfg):
        seen.append(cfg)
        return real(problem, cfg)

    real = baselines.train_ppo_baseline
    monkeypatch.setattr(baselines, "train_ppo_baseline", spy)
    base = BaselineConfig(
        total_steps=300, n_envs=2, epochs=1, minibatch_size=64, hidden=(8, 8),
        init_log_std=-1.5,
        reward=LagrangianRewardConfig(c_fail=7.0, shaping_enabled=True, shaping_k=3.0),
    )
    rows = baselines.grid_search(
        pendulum, base, r_goal_values=[10.0], p_goal_values=[2.0], beta_values=[0.1],
        n_eval_episodes=2, seed=9,
    )
    assert rows[0]["error"] == ""
    (cfg,) = seen
    assert cfg.init_log_std == -1.5
    assert (cfg.reward.r_goal, cfg.reward.p_goal, cfg.reward.beta) == (10.0, 2.0, 0.1)
    assert (cfg.reward.c_fail, cfg.reward.shaping_enabled, cfg.reward.shaping_k) == (
        7.0, True, 3.0
    )
    assert cfg.reward.gamma == cfg.gamma
    for name in ("total_steps", "n_envs", "epochs", "minibatch_size", "hidden"):
        assert getattr(cfg, name) == getattr(base, name)
    assert cfg.seed == rows[0]["seed"]


# -- two-state analytic testbed ----------------------------------------------------------


def test_always_left_policy_matches_the_published_stats(testbed):
    out = baselines.two_start_bandit_solvers(testbed, "reach_min_cost")
    assert (out["p_a"], out["p_b"]) == (1.0, 1.0)
    assert out["reach_prob"] == pytest.approx(1.0)
    assert out["expected_reward"] == pytest.approx(15.0)
    assert out["expected_cost"] == pytest.approx(20.0)
    assert out["enumerated"]["p_a"] == pytest.approx(1.0)
    assert out["enumerated"]["p_b"] == pytest.approx(1.0)


@pytest.mark.parametrize("w", [0.25, 0.5, 2 / 3, 0.9, 1.0, 1.5, 2.0])
def test_scalarized_optimum_follows_the_indicator_solution(testbed, w):
    out = baselines.two_start_bandit_solvers(testbed, "scalarized", parameter=w)
    assert out["p_a"] == float(w >= 1.0)
    assert out["p_b"] == float(w <= 2 / 3)
    assert out["enumerated"]["p_a"] == pytest.approx(out["p_a"], abs=1e-3)
    assert out["enumerated"]["p_b"] == pytest.approx(out["p_b"], abs=1e-3)


def test_scalarization_never_uniquely_selects_the_min_cost_reaching_policy(testbed):
    # objective 10 - 5p + 10q - w(10 - 5p + 15q) is linear in p and q:
    # (1, 1) is uniquely optimal only if 5(w - 1) > 0 and 10 - 15w > 0,
    # which no w satisfies
    for w in np.geomspace(1e-3, 1e3, 200):
        p_coeff = 5.0 * (w - 1.0)
        q_coeff = 10.0 - 15.0 * w
        assert not (p_coeff > 0 and q_coeff > 0)


def test_thresholded_optimum_spends_the_budget_on_state_b(testbed):
    out = baselines.two_start_bandit_solvers(testbed, "thresholded", parameter=20.0)
    assert out["p_a"] == pytest.approx(0.0)
    assert out["p_b"] == pytest.approx(2 / 3)
    assert out["expected_cost"] == pytest.approx(20.0)
    assert out["expected_reward"] == pytest.approx(50 / 3)
    assert out["enumerated"]["p_a"] == pytest.approx(0.0, abs=1e-3)
    assert out["enumerated"]["p_b"] == pytest.approx(2 / 3, abs=1e-3)


def test_thresholding_never_selects_the_min_cost_reaching_policy(testbed):
    # whenever (1, 1) (cost 20, reward 15) is feasible, the true optimum
    # 10 + (2/3)(X - 10) at p_a = 0 earns strictly more than 15
    for x_thres in np.linspace(10.0, 25.0, 200):
        out = baselines.two_start_bandit_solvers(testbed, "thresholded", parameter=float(x_thres))
        assert (out["p_a"], out["p_b"]) != (1.0, 1.0)
        expect = 10.0 + (2.0 / 3.0) * (x_thres - 10.0)
        assert out["expected_reward"] == pytest.approx(expect, abs=1e-9)
        if x_thres >= 20.0:
            assert out["expected_reward"] > 15.0


# 70 solves: the exact tie weights above, a weight sweep and a cost-cap sweep
SOLVER_CASES = (
    [("reach_min_cost", None)]
    + [("scalarized", w) for w in [0.25, 0.5, 2 / 3, 0.9, 1.0, 1.5, 2.0]]
    + [("scalarized", float(w)) for w in np.linspace(0.05, 1.95, 27)]
    + [("thresholded", 20.0)]
    + [("thresholded", float(c)) for c in np.linspace(5.0, 30.0, 34)]
)


def test_row_blocked_enumeration_matches_the_whole_grid(monkeypatch, testbed):
    real = baselines._enumerate_best
    pairs = []

    def both(objective, step=1e-3):
        got = real(objective, step)
        pairs.append((got, enumerate_best_whole_grid(objective, step)))
        return got

    monkeypatch.setattr(baselines, "_enumerate_best", both)
    for mode, parameter in SOLVER_CASES:
        baselines.two_start_bandit_solvers(testbed, mode, parameter)
    assert len(pairs) == len(SOLVER_CASES) == 70
    for (probs, score), (want_probs, want_score) in pairs:
        assert probs.tolist() == want_probs.tolist()
        assert score == want_score


def _streamed(f):
    """_enumerate_best's objective for a broadcasting f(p_a, p_b): the whole
    grid from two arguments, score(rows) into out from three."""

    def objective(p_a, p_b, out=None):
        if out is None:
            return np.broadcast_to(f(p_a, p_b), (len(p_a), p_b.shape[-1])).copy()

        def score(rows):
            block = out[: len(p_a[rows])]
            block[...] = f(p_a[rows], p_b)
            return block

        return score

    return objective


def _spikes(*cells, step=1e-3):
    """Zero on the grid but for the given (row, column, score) cells."""

    def f(p_a, p_b):
        i, j = np.rint(p_a / step), np.rint(p_b / step)
        out = 0.0 * i + 0.0 * j
        for row, col, value in cells:
            out = np.where((i == row) & (j == col), value, out)
        return out

    return f


ENUMERATION_CASES = {
    "constant": (lambda p_a, p_b: 3.0, 1e-3, (1000, 1000)),
    # the tie's last row opens the second block
    "tie-across-rows-63-and-64": (_spikes((63, 900, 1.0), (64, 10, 1.0 - 5e-10)), 1e-3, (64, 10)),
    "best-in-the-last-partial-block": (
        lambda p_a, p_b: -((p_a - 0.98) ** 2) - (p_b - 0.005) ** 2, 1e-3, (980, 5),
    ),
    "5e-10-apart-ties": (_spikes((100, 700, 1.0), (200, 300, 1.0 - 5e-10)), 1e-3, (200, 300)),
    "2e-9-apart-does-not": (_spikes((100, 700, 1.0), (200, 300, 1.0 - 2e-9)), 1e-3, (100, 700)),
    "step-0.01": (lambda p_a, p_b: -((p_a - 0.73) ** 2) - 2.0 * (p_b - 0.21) ** 2, 0.01, (73, 21)),
}


@pytest.mark.parametrize("case", sorted(ENUMERATION_CASES))
def test_streamed_enumeration_matches_the_whole_grid_at_blocks_and_ties(case):
    f, step, (i, j) = ENUMERATION_CASES[case]
    objective = _streamed(f)
    probs, score = baselines._enumerate_best(objective, step)
    want_probs, want_score = enumerate_best_whole_grid(objective, step)
    assert probs.tolist() == want_probs.tolist()
    assert score == want_score
    grid = np.arange(0.0, 1.0 + step / 2, step)
    assert probs.tolist() == [grid[i], grid[j]]


@pytest.mark.parametrize("mode, parameter", [("reach_min_cost", None), ("thresholded", 20.0)])
def test_one_solve_allocates_a_block_not_the_grid(testbed, mode, parameter):
    # the 1001x1001 float64 grid alone would be 8 MB
    tracemalloc.start()
    try:
        baselines.two_start_bandit_solvers(testbed, mode, parameter)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def test_solver_validates_modes_and_parameters(testbed):
    with pytest.raises(ValueError):
        baselines.two_start_bandit_solvers(testbed, "scalarized")
    with pytest.raises(ValueError):
        baselines.two_start_bandit_solvers(testbed, "thresholded")
    with pytest.raises(ValueError):
        baselines.two_start_bandit_solvers(testbed, "simplex")


@pytest.mark.parametrize("mode", ["scalarized", "thresholded"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_solver_refuses_a_parameter_that_is_not_finite(testbed, mode, value):
    with pytest.raises(ValueError, match=f"{mode} mode needs a finite parameter, got {value}"):
        baselines.two_start_bandit_solvers(testbed, mode, value)


@pytest.mark.parametrize(
    "mode, parameter", [("thresholded", 25.0), ("scalarized", 0.5), ("reach_min_cost", None)]
)
def test_exact_ties_go_to_the_largest_pair_in_both_searches(testbed, mode, parameter):
    # start A's two arms are identical (cost 10, reward 10), so every p_a
    # ties; start B keeps its reaching arm (cost 30, reward 20) and its
    # free arm into the absorbing non-goal state
    cost, reward = testbed.cost.copy(), testbed.reward.copy()
    cost[0], reward[0] = [10.0, 10.0], [10.0, 10.0]
    tied = dataclasses.replace(testbed, cost=cost, reward=reward)
    out = baselines.two_start_bandit_solvers(tied, mode, parameter)
    assert (out["p_a"], out["p_b"]) == (1.0, 1.0)
    assert (out["enumerated"]["p_a"], out["enumerated"]["p_b"]) == (1.0, 1.0)


def test_monte_carlo_estimates_match_the_closed_forms(testbed):
    p_a, p_b = 0.3, 0.8
    n = 100_000
    sim = simulate_two_start_bandit(testbed, p_a, p_b, n_episodes=n, seed=11)
    # three-standard-error bands from bernoulli/bounded-support variance
    for key, want, spread in [
        ("reach_prob", closed_form_reach(p_a, p_b), 0.5),
        ("expected_reward", closed_form_reward(p_a, p_b), 10.0),
        ("expected_cost", closed_form_cost(p_a, p_b), 15.0),
    ]:
        se = spread / np.sqrt(n)
        assert abs(sim[key] - want) < 3.0 * se + 1e-12, key
