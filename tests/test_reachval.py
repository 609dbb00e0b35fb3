import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reachbudget import rcppo
from reachbudget.envkit import grid_reachavoid_make
from reachbudget.reachval import (
    AugmentedTabular,
    _gae_arrays,
    apply_backup_sweep,
    augment_tabular,
    discounted_backup,
    make_z_grid,
    snap_z_index,
    tabular_value_iteration,
    discount_sign_bound,
)

from oracles import (
    backup_sweep_reference,
    dijkstra_grid,
    naive_gae,
    naive_phi,
    tabular_q_values,
)


# -- single backups --------------------------------------------------------------


def test_reach_backup_takes_the_worse_of_now_and_later():
    # at gamma = 1 the discounted backup is the undiscounted min(ghat, V')
    assert discounted_backup(3.0, -2.0, 1.0) == -2.0
    assert discounted_backup(-5.0, -2.0, 1.0) == -5.0
    assert discounted_backup(4.0, 7.0, 1.0) == 4.0


def test_discounted_backup_blends_toward_the_margin():
    # (1 - g) * ghat + g * min(ghat, v)
    assert discounted_backup(10.0, -10.0, gamma=0.99) == pytest.approx(
        0.01 * 10.0 + 0.99 * -10.0
    )
    assert discounted_backup(10.0, -10.0, gamma=0.99) == pytest.approx(-9.8)
    assert discounted_backup(-2.0, 5.0, gamma=0.5) == pytest.approx(-2.0)


def test_discounted_backup_accepts_gamma_one_rejects_others():
    assert discounted_backup(3.0, -1.0, gamma=1.0) == -1.0
    with pytest.raises(ValueError):
        discounted_backup(3.0, -1.0, gamma=0.0)
    with pytest.raises(ValueError):
        discounted_backup(3.0, -1.0, gamma=1.5)
    with pytest.raises(ValueError):
        discounted_backup(3.0, -1.0, gamma=-0.2)


# -- fold reductions -------------------------------------------------------------


def _right_fold(values, gamma):
    acc = values[-1]
    for v in reversed(values[:-1]):
        acc = discounted_backup(v, acc, gamma)
    return acc


def test_fold_of_two_values_is_one_backup():
    assert _right_fold([10.0, -10.0], 0.99) == pytest.approx(-9.8)


@given(
    values=st.lists(st.floats(-50, 50), min_size=2, max_size=12),
    gamma=st.floats(0.5, 1.0),
)
@settings(max_examples=300, deadline=None)
def test_fold_matches_naive_recursion(values, gamma):
    assert _right_fold(values, gamma) == pytest.approx(
        naive_phi(values, gamma), abs=1e-9
    )


def test_advantage_chains_match_direct_series():
    rng = np.random.default_rng(2)
    ghat = rng.uniform(-30, 30, 9)
    values = rng.uniform(-30, 30, 9)
    tail = 4.0
    got, _ = _gae_arrays(ghat, values, tail, 0.95, 0.9, mode="renormalized")
    want = naive_gae(ghat, values, tail, 0.95, 0.9, "renormalized")
    assert np.allclose(got, want, atol=1e-9)
    lit, _ = _gae_arrays(ghat, values, tail, 0.95, 0.9, mode="literal")
    want_lit = naive_gae(ghat, values, tail, 0.95, 0.9, "literal")
    assert np.allclose(lit, want_lit, atol=1e-9)


@pytest.mark.parametrize("mode", ["renormalized", "literal"])
def test_the_phi_fold_refuses_a_trace_weight_outside_zero_to_one(mode):
    # at lam = 1 both weightings divide by zero, so the advantages were NaN
    # (renormalized) or infinite (literal) and training stopped on a
    # non-finite loss; lam = 0 is the one-step estimate
    ghat, values = np.array([5.0, 1.0]), np.array([2.0, 0.5])
    for lam in (1.0, 1.5, -0.1, math.nan):
        with pytest.raises(ValueError, match="lam must be in"):
            _gae_arrays(ghat, values, -1.0, 0.9, lam, mode=mode)
    gae, _ = _gae_arrays(ghat, values, -1.0, 0.9, 0.0, mode=mode)
    assert np.all(np.isfinite(gae))


def test_renormalized_weights_sum_to_one_even_on_short_tails():
    # with a single step left the estimate is exactly the 1-step one
    ghat = np.array([5.0])
    values = np.array([2.0])
    gae, ret = _gae_arrays(ghat, values, -1.0, 0.9, 0.95, mode="renormalized")
    one_step = discounted_backup(5.0, -1.0, 0.9) - 2.0
    assert gae[0] == pytest.approx(one_step)
    # the one-step target minus the value is the one-step advantage
    assert ret[0] - values[0] == pytest.approx(one_step)


def test_lambda_return_is_value_plus_advantage():
    rng = np.random.default_rng(3)
    ghat = rng.uniform(-5, 5, 6)
    values = rng.uniform(-5, 5, 6)
    gae, ret = _gae_arrays(ghat, values, 0.0, 0.99, 0.95)
    for lambda_return, gae_adv, v in zip(ret, gae, values):
        assert lambda_return == pytest.approx(v + gae_adv)


# -- budget grid -----------------------------------------------------------------


def test_z_grid_excludes_zero_and_keeps_the_debt_node():
    grid = make_z_grid(1.0, 5.0)
    assert grid.tolist() == [-1.0, 1.0, 2.0, 3.0, 4.0, 5.0]
    assert 0.0 not in grid
    fine = make_z_grid(0.5, 2.0)
    assert fine.tolist() == [-1.0, 0.5, 1.0, 1.5, 2.0]


def test_z_grid_rejects_bad_spacing():
    with pytest.raises(ValueError):
        make_z_grid(0.0, 5.0)
    with pytest.raises(ValueError):
        make_z_grid(2.0, 1.0)


def test_budget_snaps_downward():
    grid = make_z_grid(1.0, 5.0)
    assert snap_z_index(grid, 3.7) == 3  # node value 3.0
    assert grid[snap_z_index(grid, 3.7)] == 3.0
    assert grid[snap_z_index(grid, 0.2)] == -1.0  # below delta falls to debt
    assert grid[snap_z_index(grid, -4.0)] == -1.0
    assert grid[snap_z_index(grid, 99.0)] == 5.0


def test_snapping_needs_no_clamp_at_the_top_node():
    grid = make_z_grid(1.0, 5.0)
    zs = np.concatenate([
        [-np.inf, -4.0, np.nextafter(-1.0, -np.inf)],  # below the bottom node
        grid,  # on every node
        (grid[:-1] + grid[1:]) / 2,  # between nodes
        [np.nextafter(5.0, np.inf), 99.0, np.inf],  # above the top node
    ])
    two_sided = np.minimum(np.maximum(np.searchsorted(grid, zs, side="right") - 1, 0), len(grid) - 1)
    assert np.array_equal(snap_z_index(grid, zs), two_sided)
    assert [snap_z_index(grid, z) for z in zs] == two_sided.tolist()


# -- value iteration against shortest safe paths ----------------------------------


GRID_FIXTURES = [
    dict(width=5, height=5, hazards=((1, 1), (2, 2), (3, 3)), goal_cell=(0, 0)),
    dict(width=4, height=7, hazards=((3, 1), (4, 2)), goal_cell=(6, 3)),
    dict(width=3, height=3, hazards=(), goal_cell=(1, 1)),
    dict(width=8, height=8, hazards=((2, 2), (5, 5)), goal_cell=(0, 7)),
    dict(width=10, height=10, hazards=((4, 4), (5, 4), (6, 4)), goal_cell=(9, 9)),
]


def _fixture_mdp(layout):
    return grid_reachavoid_make(
        layout["width"], layout["height"], hazards=layout["hazards"], goal_cell=layout["goal_cell"]
    )


def test_value_iteration_converges_exactly_on_the_grid(grid5):
    aug = augment_tabular(grid5, make_z_grid(1.0, 40.0), big_c=350.0)
    table = tabular_value_iteration(aug, gamma=0.99)
    assert table.residual == 0.0
    assert table.sweeps < 2 * aug.shape[0] * 2 * aug.shape[2]


@pytest.mark.parametrize("layout", GRID_FIXTURES)
def test_feasible_budget_boundary_sits_one_cell_above_path_cost(layout):
    mdp = _fixture_mdp(layout)
    delta = 1.0
    z_max = float(layout["width"] * layout["height"])
    grid = make_z_grid(delta, z_max)
    aug = augment_tabular(mdp, grid, big_c=350.0)
    table = tabular_value_iteration(aug, gamma=1.0)
    dist = dijkstra_grid(
        layout["width"], layout["height"], set(layout["hazards"]), layout["goal_cell"]
    )
    for s in range(mdp.n_states):
        if mdp.avoid_mask[s] or mdp.goal_mask[s]:
            continue
        cell = tuple(mdp.coords[s])
        feasible_nodes = [zi for zi in range(len(grid)) if table.values[s, 0, zi] <= 0.0]
        if cell not in dist:
            assert not feasible_nodes
            continue
        w = dist[cell]
        z_min_feasible = grid[min(feasible_nodes)]
        assert abs(z_min_feasible - w) <= delta + 1e-9


def test_exact_value_at_gamma_one_is_negative_leftover_budget(grid5):
    grid = make_z_grid(1.0, 40.0)
    aug = augment_tabular(grid5, grid, big_c=350.0)
    table = tabular_value_iteration(aug, gamma=1.0)
    # start (4, 4): cheapest safe path costs 8, so from z = 9 the best
    # arrival leaves one unit and the exact value is -1
    s = 4 * 5 + 4
    zi = int(np.argwhere(grid == 9.0)[0, 0])
    assert table.values[s, 0, zi] == pytest.approx(-1.0)
    assert table.value_at(s, -1.0, 9.0) == pytest.approx(-1.0)


def test_value_at_answers_a_budget_vector_like_per_budget_calls(grid5):
    grid = make_z_grid(1.0, 40.0)
    table = tabular_value_iteration(augment_tabular(grid5, grid, big_c=350.0), gamma=1.0)
    zs = np.array([-3.0, 0.0, 1.0, 8.5, 9.0, 12.25, 40.0, 100.0])  # off, on and past the grid
    for s in (0, 7, 24):
        for y in (-1.0, 1.0):
            got = table.value_at(s, y, zs)
            assert got.shape == zs.shape
            assert np.array_equal(got, [table.value_at(s, y, z) for z in zs])


def test_a_nan_flag_is_refused_not_read_as_latched(grid5):
    # NaN < 0 is False, so an unchecked lookup answers from the y=+1
    # half, and the bisection would call every start Infeasible
    grid = make_z_grid(1.0, 40.0)
    table = tabular_value_iteration(augment_tabular(grid5, grid, big_c=350.0), gamma=1.0)
    with pytest.raises(ValueError, match="y_flag is NaN"):
        table.value_at(4 * 5 + 4, np.nan, 9.0)
    with pytest.raises(ValueError, match="y_flag is NaN"):
        rcppo.bisect_z_star(table.value_at, 4 * 5 + 4, float("nan"), -1.0, grid[-1], tol=1e-6)


def test_more_budget_never_hurts(grid5):
    aug = augment_tabular(grid5, make_z_grid(1.0, 40.0), big_c=350.0)
    table = tabular_value_iteration(aug, gamma=0.99)
    diffs = np.diff(table.values, axis=2)
    assert np.all(diffs <= 1e-12)


def test_latched_flag_pins_the_value_at_big_c(grid5):
    aug = augment_tabular(grid5, make_z_grid(1.0, 40.0), big_c=350.0)
    table = tabular_value_iteration(aug, gamma=0.99)
    assert np.all(table.values[:, 1, :] >= 350.0 - 1e-9)


def test_policy_evaluation_is_never_better_than_the_optimum(grid5):
    aug = augment_tabular(grid5, make_z_grid(1.0, 40.0), big_c=350.0)
    optimal = tabular_value_iteration(aug, gamma=0.99)
    rng = np.random.default_rng(4)
    for _ in range(5):
        policy = rng.integers(0, 4, grid5.n_states)
        fixed = tabular_value_iteration(aug, policy=policy, gamma=0.99)
        assert np.all(optimal.values <= fixed.values + 1e-9)


def test_q_values_min_over_actions_recovers_the_value(grid5):
    aug = augment_tabular(grid5, make_z_grid(1.0, 40.0), big_c=350.0)
    table = tabular_value_iteration(aug, gamma=0.99)
    q = tabular_q_values(aug, table)
    assert q.shape == (*aug.shape, 4)
    frozen = aug.absorbing
    assert np.allclose(q.min(axis=3)[~frozen], table.values[~frozen], atol=1e-12)


@given(gamma=st.floats(0.5, 0.999), seed=st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_backup_sweep_contracts_in_sup_norm(gamma, seed):
    rng = np.random.default_rng(seed)
    n, a = 40, 3
    ghat = rng.uniform(-300, 300, n)
    succ = rng.integers(0, n, (n, a))
    v1 = rng.uniform(-300, 300, n)
    v2 = rng.uniform(-300, 300, n)
    t1 = apply_backup_sweep(ghat, succ, v1, gamma)
    t2 = apply_backup_sweep(ghat, succ, v2, gamma)
    gap = np.max(np.abs(v1 - v2))
    assert np.max(np.abs(t1 - t2)) <= gamma * gap + 1e-9


# a coarse lattice, so ties between successors are common, and wide
# floats; adding 0.0 turns a drawn -0.0 into +0.0, so -0.0 comes only
# from the signed_zeros branch below
_LATTICE = st.sampled_from([-2.0, -1.0, 0.0, 1.0, 2.0])
_WIDE = st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False).map(lambda v: v + 0.0)
_GAMMA = st.sampled_from([1.0, 0.99, 0.9, 0.5]) | st.floats(5e-324, 1.0)


@st.composite
def _sweep_inputs(draw, signed_zeros):
    n = draw(st.integers(1, 12))
    width = draw(st.sampled_from([None, 1, 2, 4, 5]))  # None: an on-policy chain
    elem = _LATTICE | _WIDE
    if signed_zeros:
        elem = elem | st.just(-0.0)
    ghat = np.array(draw(st.lists(elem, min_size=n, max_size=n)))
    values = np.array(draw(st.lists(elem, min_size=n, max_size=n)))
    # few states, so successors repeat within and across rows
    shape = (n,) if width is None else (n, width)
    succ = np.array(draw(st.lists(st.integers(0, n - 1), min_size=int(np.prod(shape)),
                                  max_size=int(np.prod(shape))))).reshape(shape)
    frozen = draw(st.none() | st.lists(st.booleans(), min_size=n, max_size=n).map(np.array))
    return ghat, succ, values, draw(_GAMMA), frozen


@given(inputs=_sweep_inputs(signed_zeros=False))
@settings(max_examples=250, deadline=None)
def test_sweep_is_bitwise_the_per_action_backup_without_negative_zero_margins(inputs):
    got = apply_backup_sweep(*inputs)
    want = backup_sweep_reference(*inputs)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@given(inputs=_sweep_inputs(signed_zeros=True))
@settings(max_examples=250, deadline=None)
def test_sweep_equals_the_per_action_backup_with_signed_zeros(inputs):
    got = apply_backup_sweep(*inputs)
    want = backup_sweep_reference(*inputs)
    assert got.shape == want.shape
    assert np.array_equal(got, want)


def test_successor_table_is_action_major(grid5):
    aug = augment_tabular(grid5, make_z_grid(1.0, 40.0), big_c=350.0)
    assert aug.succ.shape == (*aug.shape, grid5.n_actions)
    for a in range(grid5.n_actions):
        assert aug.succ[..., a].flags.c_contiguous


def test_sweep_respects_frozen_states():
    ghat = np.array([-1.0, 5.0])
    succ = np.array([[1], [0]])
    vals = np.array([7.0, 7.0])
    out = apply_backup_sweep(ghat, succ, vals, 0.9, frozen=np.array([True, False]))
    assert out[0] == -1.0


# -- discount bound --------------------------------------------------------------


def test_min_gamma_reference_point_is_exact():
    got = discount_sign_bound(100.0, 100.0, 1.0)
    assert got == pytest.approx(0.9999005016417584, abs=1e-12)


@given(
    g_max=st.floats(1.0, 1e4),
    t_max=st.floats(1.0, 1e4),
    eps=st.floats(1e-3, 10.0),
)
@settings(max_examples=200, deadline=None)
def test_min_gamma_balances_attenuation_against_the_gap(g_max, t_max, eps):
    gamma = discount_sign_bound(g_max, t_max, eps)
    assert 0.0 < gamma < 1.0
    # at the bound, gamma^T / (1 - gamma^T) equals g_max / eps
    a = gamma**t_max
    # the ratio's condition number grows with g_max / eps, hence rel
    assert a / (1.0 - a) == pytest.approx(g_max / eps, rel=1e-4)


def test_min_gamma_rejects_degenerate_inputs():
    with pytest.raises(ValueError):
        discount_sign_bound(0.0, 100.0, 1.0)
    with pytest.raises(ValueError):
        discount_sign_bound(100.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        discount_sign_bound(100.0, 100.0, 0.0)
