import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reachbudget import approx, rcppo
from reachbudget.augment import (
    AugmentedGoalParams,
    augmented_goal,
    augmented_step,
    estimate_big_c,
    shifted_indicator,
    start_flag,
)
from reachbudget.envkit import pendulum_make, windfield_make

from oracles import budget_equivalence_sides


def _deploy_start(problem, x0, z0):
    """Deploy a tiny untrained budget policy from x0 at the fixed budget z0."""
    rng = np.random.default_rng(0)
    policy = approx.policy_init(
        problem.state_dim + 2, problem.action_low, problem.action_high, rng, hidden=(4,)
    )
    meta = {"obs_scale": problem.obs_scale.tolist(), "z_min": -1.0, "z_max": 100.0}
    return rcppo.deploy_policy(problem, policy, meta, z0, x0)


def test_shifted_indicator_maps_membership_to_signs():
    assert shifted_indicator(True) == 1.0
    assert shifted_indicator(False) == -1.0
    out = shifted_indicator(np.array([True, False, True]))
    assert out.tolist() == [1.0, -1.0, 1.0]


def test_reset_flags_unsafe_starts(windfield):
    assert start_flag(windfield, np.array([-25.0, 0.0])) == -1.0
    safe = _deploy_start(windfield, np.array([-25.0, 0.0]), 30.0)
    assert safe.y[0] == -1.0
    assert safe.z[0] == 30.0
    unsafe = _deploy_start(windfield, np.array([-2.0, 10.0]), 30.0)
    assert unsafe.y[0] == 1.0
    assert start_flag(windfield, np.array([-2.0, 10.0])) == 1.0


def test_reset_rejects_non_finite_budget(pendulum):
    with pytest.raises(ValueError):
        _deploy_start(pendulum, np.array([0.1, 0.0]), np.nan)


def test_budget_decreases_by_exactly_the_step_cost(pendulum):
    x, y, z = np.array([1.0, 0.0]), -1.0, 50.0
    x2, y2, z2, c = augmented_step(pendulum, x, y, z, np.array([0.5]))
    assert c == pytest.approx(2.0)
    assert z2 == pytest.approx(50.0 - 2.0)
    _, _, z3, _ = augmented_step(pendulum, x2, y2, z2, np.array([0.05]))
    assert z3 == pytest.approx(z2)  # free band costs nothing


def test_flag_latches_on_arrival_and_never_clears(windfield):
    # start just left of the wall, drive into it, then back out
    x = np.array([-7.0, 10.0])
    y, z = start_flag(windfield, x), 100.0
    assert y == -1.0
    while y < 0:
        x, y, z, _ = augmented_step(windfield, x, y, z, np.array([2.0, 0.0]))
    assert windfield.in_avoid(x)
    for _ in range(10):
        x, y, z, _ = augmented_step(windfield, x, y, z, np.array([-2.0, 0.0]))
    assert not windfield.in_avoid(x)
    assert y == 1.0  # the latch survives leaving the region


@given(z=st.floats(-5.0, 5.0), g=st.floats(-400.0, 400.0))
@settings(max_examples=200, deadline=None)
def test_augmented_goal_is_the_max_of_three_terms(z, g):
    # exercised through the pendulum margin by inverting its formula
    prob = pendulum_make()
    theta = np.sqrt(g / 100.0) if g > 0 else 0.0
    x = np.array([theta, 0.0])
    g_actual = float(prob.goal_margin(x))
    params = AugmentedGoalParams(big_c=900.0)
    for y in (-1.0, 1.0):
        want = max(g_actual, 900.0 * y, -z)
        assert augmented_goal(prob, x, y, z, params) == pytest.approx(want)
        assert (augmented_goal(prob, x, y, z, params) <= 0.0) == (want <= 0.0)


def test_membership_needs_goal_safety_and_budget(pendulum):
    params = AugmentedGoalParams(big_c=900.0)
    at_goal = np.array([0.005, -0.2])
    assert pendulum.in_goal(at_goal)
    assert augmented_goal(pendulum, at_goal, -1.0, 1.0, params) <= 0.0
    # same state, blown budget
    assert not augmented_goal(pendulum, at_goal, -1.0, -0.5, params) <= 0.0
    # same state, latched flag
    assert not augmented_goal(pendulum, at_goal, 1.0, 1.0, params) <= 0.0
    # not at goal
    away = np.array([1.0, 0.0])
    assert not augmented_goal(pendulum, away, -1.0, 1.0, params) <= 0.0


def test_big_c_estimate_dominates_typical_margins_and_is_seeded(pendulum):
    rng = np.random.Generator(np.random.PCG64(0))
    c1 = estimate_big_c(pendulum, rng, n_samples=20_000)
    rng = np.random.Generator(np.random.PCG64(0))
    c2 = estimate_big_c(pendulum, rng, n_samples=20_000)
    assert c1 == c2
    assert c1 >= 1.0
    # the pendulum margin peaks at 100 * pi^2
    assert c1 == pytest.approx(100 * np.pi**2, rel=1e-3)


def _random_rollout(problem, rng, t_len, z0):
    x = problem.sample_initial(rng)
    states = [x]
    costs = []
    for _ in range(t_len):
        u = rng.uniform(problem.action_low, problem.action_high)
        x, c = problem.step_and_cost(x, u)
        states.append(x)
        costs.append(float(c))
    return np.asarray(states), np.asarray(costs)


@pytest.mark.parametrize("make", [pendulum_make, windfield_make])
def test_raw_and_augmented_membership_agree_on_every_prefix(make):
    problem = make()
    params = AugmentedGoalParams(big_c=1000.0)
    rng = np.random.default_rng(17)
    checked = 0
    for _ in range(300):
        z0 = rng.uniform(-1.0, 60.0)
        states, costs = _random_rollout(problem, rng, 40, z0)
        lhs, rhs = budget_equivalence_sides(problem, params, states, costs, z0)
        assert np.array_equal(lhs, rhs)
        checked += len(lhs)
    assert checked > 10_000


def test_prefix_predicate_flags_budget_overruns(pendulum):
    params = AugmentedGoalParams(big_c=1000.0)
    # a goal state visited after the budget is spent must not count
    states = np.array([[1.0, 0.0], [0.5, 0.0], [0.005, -0.2]])
    assert pendulum.in_goal(states[2])
    costs = np.array([3.0, 3.0])
    lhs, rhs = budget_equivalence_sides(pendulum, params, states, costs, 5.0)
    assert not lhs[-1] and not rhs[-1]
    lhs2, rhs2 = budget_equivalence_sides(pendulum, params, states, costs, 7.0)
    assert lhs2[-1] and rhs2[-1]
