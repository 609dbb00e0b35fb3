import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reachbudget.envkit import (
    ControlNoiseWrapper,
    two_start_bandit_make,
    grid_reachavoid_make,
    pendulum_make,
    windfield_make,
)
from reachbudget.envkit.noise import NoiseWrapperConfig
from reachbudget.envkit.tabular import GRID_ACTIONS, TabularProblemView

from oracles import pendulum_cost_reference, pendulum_step_reference


def _step(problem, x, u):
    return problem.step_and_cost(x, u)[0]


def _cost(problem, x, u):
    return problem.step_and_cost(x, u)[1]


# -- pendulum --------------------------------------------------------------------


@given(
    theta=st.floats(-np.pi, np.pi),
    theta_dot=st.floats(-8.0, 8.0),
    torque=st.floats(-2.0, 2.0),
)
@settings(max_examples=200, deadline=None)
def test_pendulum_step_matches_reference_transcription(theta, theta_dot, torque):
    prob = pendulum_make()
    got = _step(prob, np.array([theta, theta_dot]), np.array([torque]))
    want = pendulum_step_reference(theta, theta_dot, torque)
    assert got[0] == pytest.approx(want[0], abs=1e-12)
    assert got[1] == pytest.approx(want[1], abs=1e-12)


def test_pendulum_angle_wraps_into_half_open_interval(pendulum):
    x = np.array([np.pi - 1e-3, 8.0])
    for _ in range(100):
        x = _step(pendulum, x, np.array([1.0]))
        assert -np.pi <= x[0] < np.pi
        assert -8.0 <= x[1] <= 8.0


def test_pendulum_cost_has_free_band_then_quadratic(pendulum):
    x = np.array([1.0, 0.0])
    assert _cost(pendulum, x, np.array([0.05])) == 0.0
    assert _cost(pendulum, x, np.array([0.099])) == 0.0
    assert _cost(pendulum, x, np.array([0.5])) == pytest.approx(2.0)
    assert _cost(pendulum, x, np.array([1.0])) == pytest.approx(8.0)
    # torque beyond the limit is clipped before it is priced
    assert _cost(pendulum, x, np.array([3.0])) == pytest.approx(8.0)
    assert pendulum.max_step_cost() == pytest.approx(8.0)


@given(torque=st.floats(-3.0, 3.0))
@settings(max_examples=100, deadline=None)
def test_pendulum_cost_matches_reference(torque):
    prob = pendulum_make()
    got = _cost(prob, np.array([1.0, 0.0]), np.array([torque]))
    assert got == pytest.approx(pendulum_cost_reference(torque), abs=1e-12)


def test_pendulum_goal_is_sign_crossing_within_one_step(pendulum):
    assert pendulum.in_goal(np.array([0.01, -0.5]))
    assert not pendulum.in_goal(np.array([0.4, 0.0]))
    assert not pendulum.in_goal(np.array([0.01, 0.5]))  # moving away
    assert not pendulum.in_goal(np.array([-np.pi, 0.0]))


def test_pendulum_margins_plateau_inside_quadratic_outside(pendulum):
    inside = np.array([0.005, -0.3])
    outside = np.array([0.7, 0.0])
    assert pendulum.goal_margin(inside) == pytest.approx(-300.0)
    assert pendulum.goal_margin(outside) == pytest.approx(100 * 0.49)
    assert pendulum.avoid_margin(outside) == pytest.approx(-1.0)
    assert not np.any(pendulum.in_avoid(np.array([[0.0, 0.0], [3.0, 8.0]])))


def test_pendulum_reset_ranges(pendulum):
    rng = np.random.default_rng(0)
    xs = pendulum.sample_initial(rng, 2000)
    assert xs.shape == (2000, 2)
    assert np.all(np.abs(xs[:, 0]) <= np.pi)
    assert np.all(np.abs(xs[:, 1]) <= 1.0)
    assert xs[:, 0].std() > 1.0  # actually spread over the circle


# -- wind field ------------------------------------------------------------------


def test_windfield_shear_grows_linearly_with_height(windfield):
    low = windfield.wind_at(np.array([-25.0, -30.0]))
    high = windfield.wind_at(np.array([-25.0, 30.0]))
    assert low[0] == pytest.approx(-1.0, abs=0.3)  # vortices persist mildly
    assert high[0] == pytest.approx(1.0, abs=0.3)
    assert high[0] > low[0]


def test_windfield_vortex_swirls_counterclockwise_for_positive_strength(windfield):
    # just right of the (-10, 12) vortex center the swirl pushes up
    v = windfield.wind_at(np.array([-7.0, 12.0]))
    base = windfield.wind_at(np.array([-13.0, 12.0]))
    assert v[1] > 0.0
    assert base[1] < 0.0


def test_windfield_step_is_clipped_to_the_box(windfield):
    x = np.array([29.5, 29.5])
    nxt = _step(windfield, x, np.array([2.0, 2.0]))
    assert np.all(nxt <= 30.0)
    assert np.all(nxt >= -30.0)


def test_windfield_cost_is_half_squared_norm_of_clipped_action(windfield):
    x = np.array([0.0, -20.0])
    assert _cost(windfield, x, np.array([1.0, 1.0])) == pytest.approx(1.0)
    assert _cost(windfield, x, np.array([2.0, 0.0])) == pytest.approx(2.0)
    # components clip at 2, so (5, 0) prices like (2, 0)
    assert _cost(windfield, x, np.array([5.0, 0.0])) == pytest.approx(2.0)
    assert windfield.max_step_cost() == pytest.approx(4.0)


def test_windfield_goal_is_open_ellipse(windfield):
    gx, gy = 15.0, 0.0
    assert windfield.in_goal(np.array([gx, gy]))
    assert windfield.goal_margin(np.array([gx, gy])) == pytest.approx(-300.0)
    # boundary point: margin exactly zero, not inside the open set
    boundary = np.array([gx + 4.0, gy])
    assert windfield.goal_margin(boundary) == pytest.approx(0.0, abs=1e-9)
    assert not windfield.in_goal(boundary)
    far = np.array([-20.0, 0.0])
    assert windfield.goal_margin(far) == pytest.approx(10 * 35 - 40)


def test_windfield_wall_blocks_but_gap_is_safe(windfield):
    assert windfield.in_avoid(np.array([-2.0, 10.0]))
    assert windfield.in_avoid(np.array([-2.0, -10.0]))
    assert not windfield.in_avoid(np.array([-2.0, 0.0]))  # the gap
    assert not windfield.in_avoid(np.array([10.0, 10.0]))
    assert windfield.avoid_margin(np.array([-2.0, 10.0])) == pytest.approx(1.0)
    assert windfield.avoid_margin(np.array([10.0, 10.0])) == pytest.approx(-1.0)


def test_windfield_start_box_sampling(windfield):
    rng = np.random.default_rng(3)
    xs = windfield.sample_initial(rng, 500)
    assert np.all(xs[:, 0] >= -28.0) and np.all(xs[:, 0] <= -20.0)
    assert np.all(np.abs(xs[:, 1]) <= 10.0)


def test_windfield_rejects_goal_inside_an_obstacle():
    with pytest.raises(ValueError):
        windfield_make(goal_xy=(-2.5, 10.0))


def test_windfield_rejects_goal_outside_the_box():
    with pytest.raises(ValueError):
        windfield_make(goal_xy=(40.0, 0.0))


# -- tabular fixtures ------------------------------------------------------------


def test_grid_goal_margin_is_manhattan_distance_with_plateau(grid5):
    g = grid5.g_values.reshape(5, 5)
    assert g[0, 0] == pytest.approx(-300.0)
    assert g[0, 1] == pytest.approx(1.0)
    assert g[4, 4] == pytest.approx(8.0)
    assert g[2, 3] == pytest.approx(5.0)


def test_grid_actions_move_or_bump(grid5):
    # top-left-adjacent cell moving up leaves the grid: stays, still costs
    s = 1  # cell (0, 1)
    up = GRID_ACTIONS.index((-1, 0))
    assert grid5.next_state[s, up] == s
    assert grid5.cost[s, up] == pytest.approx(1.0)
    right = GRID_ACTIONS.index((0, 1))
    assert grid5.next_state[s, right] == 2


def test_grid_hazards_are_enterable_not_walls(grid5):
    # cell (1, 2) stepping left enters hazard (1, 1)
    s = 1 * 5 + 2
    left = GRID_ACTIONS.index((0, -1))
    assert grid5.next_state[s, left] == 1 * 5 + 1
    assert grid5.avoid_mask[1 * 5 + 1]
    assert grid5.h_values[1 * 5 + 1] == pytest.approx(1.0)
    assert grid5.h_values[s] == pytest.approx(-1.0)


def test_grid_initial_states_exclude_goal_and_hazards(grid5):
    for s in grid5.initial_states:
        assert not grid5.goal_mask[s]
        assert not grid5.avoid_mask[s]
    assert grid5.initial_probs.sum() == pytest.approx(1.0)


def test_grid_step_cost_table_forms():
    scalar = grid_reachavoid_make(3, 3, hazards=(), goal_cell=(0, 0), step_cost_table=2.5)
    assert np.all(scalar.cost == 2.5)
    by_cell = grid_reachavoid_make(
        3, 3, hazards=(), goal_cell=(0, 0), step_cost_table={(r, c): 1.0 + r for r in range(3) for c in range(3)}
    )
    assert by_cell.cost[2 * 3 + 1, 0] == pytest.approx(3.0)
    for other in (np.full((9, 4), 0.25), "2.5", [1.0]):
        with pytest.raises(TypeError, match="step_cost_table"):
            grid_reachavoid_make(3, 3, hazards=(), goal_cell=(0, 0), step_cost_table=other)


def test_grid_rejects_bad_geometry():
    with pytest.raises(ValueError):
        grid_reachavoid_make(13, 5, hazards=(), goal_cell=(0, 0))
    with pytest.raises(ValueError):
        grid_reachavoid_make(5, 5, hazards=((0, 0),), goal_cell=(0, 0))
    with pytest.raises(ValueError):
        grid_reachavoid_make(5, 5, hazards=((7, 0),), goal_cell=(0, 0))


def test_tabular_view_round_trips_indices(grid5):
    view = TabularProblemView(grid5)
    rng = np.random.default_rng(0)
    x0 = view.sample_initial(rng)
    assert x0.shape == (1,)
    nxt, c = view.step_and_cost(x0, np.array([3.0]))  # action index 3 = right
    s = int(round(x0[0]))
    assert int(round(nxt[0])) == grid5.next_state[s, 3]
    assert c == pytest.approx(grid5.cost[s, 3])
    assert view.in_goal(np.array([0.0]))
    assert view.goal_distance(np.array([0.0])) == 0.0


def test_testbed_tables_are_exact(testbed):
    # states: A, B, G1, G2, G3, I
    assert list(testbed.labels) == ["A", "B", "G1", "G2", "G3", "I"]
    assert testbed.cost[0].tolist() == [10.0, 20.0]
    assert testbed.cost[1].tolist() == [30.0, 0.0]
    assert testbed.reward[0].tolist() == [10.0, 20.0]
    assert testbed.reward[1].tolist() == [20.0, 0.0]
    assert testbed.goal_mask[[2, 3, 4]].all()
    assert not testbed.goal_mask[5]
    assert testbed.next_state[0].tolist() == [2, 3]
    assert testbed.next_state[1].tolist() == [4, 5]
    assert testbed.initial_probs.tolist() == [0.5, 0.5]


# -- control noise wrapper -------------------------------------------------------


def test_zero_width_noise_is_bitwise_identical(pendulum):
    wrapped = ControlNoiseWrapper(pendulum, NoiseWrapperConfig(0.0, seed=4))
    x = np.array([0.7, -0.4])
    u = np.array([0.3])
    nx1, c1 = wrapped.step_and_cost(x, u)
    nx2, c2 = pendulum.step_and_cost(x, u)
    assert np.array_equal(nx1, nx2)
    assert np.array_equal(np.asarray(c1), np.asarray(c2))


def test_noise_reseed_reproduces_the_same_draws(pendulum):
    w1 = ControlNoiseWrapper(pendulum, NoiseWrapperConfig(0.1, seed=9))
    x = np.array([0.7, -0.4])
    u = np.array([0.3])
    first = [w1.step_and_cost(x, u)[0] for _ in range(5)]
    w1.reseed(9)
    second = [w1.step_and_cost(x, u)[0] for _ in range(5)]
    for a, b in zip(first, second):
        assert np.array_equal(a, b)


def test_noise_perturbs_the_charged_action_consistently():
    # on the wind field the dynamics identify the applied control:
    # x' - x - wind = u' * dt, so the charged cost must price exactly
    # that recovered control
    field = windfield_make()
    wrapped = ControlNoiseWrapper(field, NoiseWrapperConfig(0.1, seed=2))
    rng = np.random.default_rng(5)
    for _ in range(50):
        x = field.sample_initial(rng)
        u = rng.uniform(-1.5, 1.5, 2)
        nxt, c = wrapped.step_and_cost(x, u)
        applied = (nxt - x) / 1.0 - field.wind_at(x)
        assert np.all(np.abs(applied - np.clip(u, -2, 2)) <= 0.1 + 1e-9)
        assert c == pytest.approx(0.5 * float(applied @ applied), abs=1e-9)


def test_noise_config_rejects_negative_width():
    with pytest.raises(ValueError):
        NoiseWrapperConfig(-0.1, seed=0)


def test_noise_wrapper_delegates_geometry(pendulum):
    wrapped = ControlNoiseWrapper(pendulum, NoiseWrapperConfig(0.1, seed=0))
    x = np.array([0.3, 0.0])
    assert wrapped.in_goal(x) == pendulum.in_goal(x)
    assert wrapped.goal_margin(x) == pendulum.goal_margin(x)
    assert wrapped.horizon_max == pendulum.horizon_max
    assert np.array_equal(wrapped.obs_scale, pendulum.obs_scale)


@pytest.mark.parametrize("clone", [lambda w: pickle.loads(pickle.dumps(w)), copy.deepcopy],
                         ids=["pickle", "deepcopy"])
def test_noise_wrapper_copies_step_like_the_original(pendulum, clone):
    # grid_search pickles the problem for its worker processes
    wrapped = ControlNoiseWrapper(pendulum, NoiseWrapperConfig(0.1, seed=3))
    wrapped.step_and_cost(np.array([0.7, -0.4]), np.array([0.3]))
    twin = clone(wrapped)
    assert twin.name == wrapped.name and twin.horizon_max == pendulum.horizon_max
    xs = pendulum.sample_initial(np.random.default_rng(6), 8)
    us = np.full((8, 1), 0.5)
    for _ in range(3):
        a, b = wrapped.step_and_cost(xs, us), twin.step_and_cost(xs, us)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


# -- every problem ---------------------------------------------------------------


_PROBLEMS = {
    "pendulum": lambda request: request.getfixturevalue("pendulum"),
    "windfield": lambda request: request.getfixturevalue("windfield"),
    "grid": lambda request: request.getfixturevalue("grid5").as_problem(),
    "noise0-pendulum": lambda request: ControlNoiseWrapper(
        request.getfixturevalue("pendulum"), NoiseWrapperConfig(0.0, seed=4)
    ),
}


_SET_METHODS = ("goal_margin", "avoid_margin", "in_goal", "in_avoid", "goal_distance")


def _state_points(problem, rng):
    """Every state of a tabular view; 64 uniform draws from a state box."""
    if isinstance(problem, TabularProblemView):
        return np.arange(problem.mdp.n_states, dtype=np.float64)[:, None]
    return rng.uniform(problem.state_low, problem.state_high, (64, problem.state_dim))


@pytest.mark.parametrize("name", sorted(_PROBLEMS))
def test_batched_and_single_transitions_agree_bitwise(name, request):
    problem = _PROBLEMS[name](request)
    rng = np.random.default_rng(1)
    xs = problem.sample_initial(rng, 32)
    # actions reach half a box past either bound, so clipping is exercised
    half = (problem.action_high - problem.action_low) / 2
    us = rng.uniform(problem.action_low - half, problem.action_high + half, (32, problem.action_dim))
    nxt, cost = problem.step_and_cost(xs, us)
    assert nxt.shape == xs.shape and cost.shape == (32,)
    for i in range(32):
        one_x, one_c = problem.step_and_cost(xs[i], us[i])
        assert np.array_equal(one_x, nxt[i]) and np.array_equal(one_c, cost[i])
    if isinstance(problem, ControlNoiseWrapper):
        base_x, base_c = problem.base.step_and_cost(xs, us)
        assert np.array_equal(base_x, nxt) and np.array_equal(base_c, cost)

    point_methods = _SET_METHODS + (("wind_at",) if name == "windfield" else ())
    points = np.concatenate([xs, nxt, _state_points(problem, rng)])
    for method in point_methods:
        fn = getattr(problem, method)
        rows = fn(points)
        assert rows.shape[0] == len(points)
        for i, x in enumerate(points):
            assert np.array_equal(fn(x), rows[i]), (method, x)

    one = problem.sample_initial(np.random.default_rng(2))
    assert np.array_equal(one, problem.sample_initial(np.random.default_rng(2), 1)[0])

    for method in point_methods:
        with pytest.raises(ValueError):
            getattr(problem, method)(np.zeros(problem.state_dim + 1))
    with pytest.raises(ValueError):
        problem.step_and_cost(xs, np.zeros((32, problem.action_dim + 1)))
