"""Each output check passes the program's output and fails a perturbed copy.

Run from the repository root: python3 -m pytest -q bench/test_checks.py
"""

from __future__ import annotations

import copy
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import checks  # noqa: E402
import legs  # noqa: E402
from reachbudget import baselines, rcppo, reachval  # noqa: E402
from reachbudget.envkit import grid_reachavoid_make, two_start_bandit_make  # noqa: E402


@pytest.fixture(scope="module")
def deploy():
    group = legs.DeployGroup(0)
    pol_arrays, _ = checks.read_checkpoint(os.path.join(legs.CKPT_DIR, "policy.ckpt"))
    vref = checks.ValueRef(*checks.read_checkpoint(os.path.join(legs.CKPT_DIR, "value2.ckpt")))
    return group, pol_arrays, vref


def _episode(group, problem, x0):
    traj = rcppo.deploy_policy(problem, group.policy, group.meta, group.z_source, x0)
    rec = {"z0": traj.z0, "reached": bool(traj.reached and not traj.violated),
           "violated": traj.violated, "cumulative_cost": traj.cum_cost, "length": traj.length}
    return traj, rec


def test_replay_rejects_wrong_costs_states_actions_and_ends(deploy):
    group, pol, vref = deploy
    traj, rec = _episode(group, group.problem, group.starts[0])
    args = (pol, vref, traj.states, traj.actions, traj.costs, traj.z, rec)
    assert checks.check_deployed_episode(*args) == []
    for i, delta in ((4, 0.01), (2, 1e-6)):
        bad = list(copy.deepcopy(args))
        bad[i] = bad[i].copy()
        bad[i][1] += delta  # a cost, then a state
        assert checks.check_deployed_episode(*bad)
    bad_act = traj.actions.copy()
    bad_act[0, 0] += 1e-6
    assert checks.check_deployed_episode(pol, vref, traj.states, bad_act, traj.costs, traj.z, rec)
    cut = len(traj.costs) // 2
    assert checks.check_deployed_episode(
        pol, vref, traj.states[: cut + 1], traj.actions[:cut], traj.costs[:cut], traj.z[: cut + 1], None)
    assert checks.check_deployed_episode(*args[:-1], dict(rec, length=rec["length"] + 1))


def test_noisy_replay_rejects_cost_on_the_commanded_torque(deploy):
    group, pol, vref = deploy
    traj, _ = _episode(group, group.noisy(group.problem, 5), group.starts[1])
    args = (pol, vref, traj.states, traj.actions, traj.costs, traj.z)
    assert checks.check_noisy_episode(*args, legs.NOISE) == []
    commanded = np.array([checks.pendulum_cost(u) for u in traj.actions[:, 0]])
    assert not np.array_equal(commanded, traj.costs)
    assert checks.check_noisy_episode(pol, vref, traj.states, traj.actions, commanded, traj.z, legs.NOISE)
    assert checks.check_noisy_episode(*args, 0.01)


def test_bracket_check_rejects_wide_wrong_side_and_false_infeasible(deploy):
    group, _, vref = deploy
    x = group.states[0]
    sol = rcppo.bisect_z_star(group.value_fn, x, -1.0, -1.0, 600.0, 1e-2)
    assert checks.check_bisection(vref, x, -1.0, 1e-2, sol, False) == []
    lo, hi = sol.bracket
    wide = rcppo.ZStarSolution(hi, 0.0, (lo - 1.0, hi), 0)
    assert checks.check_bisection(vref, x, -1.0, 1e-2, wide, False)
    below = rcppo.ZStarSolution(lo - 5.0, 0.0, (lo - 5.005, lo - 5.0), 0)
    assert checks.check_bisection(vref, x, -1.0, 1e-2, below, False)
    assert checks.check_bisection(vref, x, -1.0, 1e-2, None, True)


def test_regressor_check_rejects_a_shifted_prediction(deploy):
    group, _, vref = deploy
    reg = rcppo.fit_z_regressor(group.value_fn, group.problem, group.meta2, n_samples=64, epochs=20)
    pred = rcppo.regressor_predict(reg, group.states, -1.0)
    args = (reg.net.weights, reg.net.biases, vref.scale, vref.z_min, vref.z_max, group.states, -1.0)
    assert checks.check_regressor(*args, pred) == []
    pred[3] += 0.01
    assert checks.check_regressor(*args, pred)


def test_unit_comparison_sees_one_changed_float():
    first = {"eval": {"episodes": [{"cost": 1.5, "length": 3}]}, "params": [np.ones(3)]}
    again = copy.deepcopy(first)
    assert legs._equal(first, again)
    again["params"][0][1] = np.nextafter(1.0, 2.0)
    assert not legs._equal(first, again)
    again = copy.deepcopy(first)
    again["eval"]["episodes"][0]["cost"] = 1.5000000001
    assert not legs._equal(first, again)


def test_report_check_rejects_aggregates_that_disagree(deploy):
    group, _, _ = deploy
    rep = rcppo.evaluate_policy(
        legs.PlannedPendulum(group.starts), group.policy, group.meta, 300.0, 4, seed=0)
    assert checks.check_report(rep, 4) == []
    assert checks.check_report(dict(rep, reach_rate=rep["reach_rate"] - 0.25), 4)
    assert checks.check_report(rep, 5)


def test_phi_fold_check_rejects_a_wrong_advantage():
    rng = np.random.default_rng(0)
    ghat, values = rng.normal(0, 50, 30), rng.normal(0, 50, 30)
    adv, _ = reachval._gae_arrays(ghat, values, -3.0, 0.99, 0.95)
    steps = range(30)
    assert checks.check_advantages(ghat, values, -3.0, 0.99, 0.95, adv, steps) == []
    adv[17] += 1e-4
    assert checks.check_advantages(ghat, values, -3.0, 0.99, 0.95, adv, steps)


def test_central_differences_reject_a_scaled_gradient():
    rng = np.random.default_rng(1)
    a, b = rng.normal(size=(3, 4)), rng.normal(size=5)

    def loss():
        return float(np.sum(np.sin(a) ** 2) + np.sum(b**3))

    grads = [2 * np.sin(a) * np.cos(a), 3 * b**2]
    assert checks.check_central_differences(loss, [a, b], grads, rng) == []
    assert checks.check_central_differences(loss, [a, b], [grads[0], 1.01 * grads[1]], rng)


def test_phase2_gamma_matches_the_committed_refit():
    _, meta2 = checks.read_checkpoint(os.path.join(legs.CKPT_DIR, "value2.ckpt"))
    want = checks.phase2_gamma(meta2["big_c"], 200, 1.0)
    assert abs(meta2["phase2_gamma"] - want) <= 1e-12
    assert abs(meta2["phase2_gamma"] * (1 + 1e-9) - want) > 1e-12


def test_grid_checks_reject_wrong_budgets_tables_and_values():
    hazards, goal, costs = legs.grid_layouts(0)[0]
    hz = set(hazards)
    mdp = grid_reachavoid_make(12, 12, hazards, goal, step_cost_table=costs)
    group = legs.OracleGroup.__new__(legs.OracleGroup)
    group.mdps, group.z_grid = [mdp], reachval.make_z_grid(1.0, 290.0)
    values, z_stars = group.solve_grids()[0]
    assert checks.check_grid_mdp(mdp, 12, hz, goal, costs) == []
    assert checks.backup_residual(values, 12, hz, goal, costs, group.z_grid, legs.BIG_C) == 0.0
    assert checks.check_grid_budgets(12, hz, goal, costs, z_stars, 1.0) == []

    feasible = next(s for s, z in z_stars.items() if z is not None and z > 3)
    assert checks.check_grid_budgets(12, hz, goal, costs, {**z_stars, feasible: z_stars[feasible] + 2}, 1.0)
    assert checks.check_grid_budgets(12, hz, goal, costs, {**z_stars, feasible: None}, 1.0)
    hazard = next(s for s, z in z_stars.items() if z is None)
    assert checks.check_grid_budgets(12, hz, goal, costs, {**z_stars, hazard: 5.0}, 1.0)
    bent = values.copy()
    bent[feasible, 0, -1] -= 1.0
    assert checks.backup_residual(bent, 12, hz, goal, costs, group.z_grid, legs.BIG_C) > 0.0
    mdp.cost[feasible, 0] += 1.0
    assert checks.check_grid_mdp(mdp, 12, hz, goal, costs)


def test_bandit_check_rejects_the_published_target_and_a_worse_policy():
    mdp = two_start_bandit_make()
    arms = checks.bandit_arms(mdp)
    assert checks.bandit_optimum(arms, "thresholded", 20.0) == pytest.approx(50.0 / 3.0, abs=1e-12)
    for mode, p in legs.bandit_sweep(0):
        sol = baselines.two_start_bandit_solvers(mdp, mode, p)
        assert checks.check_bandit(arms, sol) == []
    sol = baselines.two_start_bandit_solvers(mdp, "thresholded", 20.0)
    assert checks.check_bandit(arms, dict(sol, expected_reward=23.33))
    worse = dict(sol, p_b=0.5)
    worse.update(zip(("reach_prob", "expected_reward", "expected_cost"), checks.bandit_stats(arms, (0.0, 0.5))))
    assert checks.check_bandit(arms, worse)
