"""End-to-end acceptance gate: one test per shipped guarantee.

Every test computes its verdict first, files a PASS/FAIL line into the
run summary (printed at the end of the session), and only then asserts,
so a red test and the summary always agree. One line stays red on
purpose: the published reward target for the thresholded testbed
variant (23.33) disagrees with the closed form of the very policy it
names, and the suite reports the discrepancy instead of patching either
side. See the README for the arithmetic.

The four tests marked "training" deploy the cached pendulum artifacts
(trained on first use, see conftest); everything else runs from scratch
in seconds.
"""

from __future__ import annotations

import csv
import math
import os
import time

import numpy as np
import pytest

from conftest import (
    BASELINE_LO,
    DEPLOY_TOL,
    GRID_SWEEP,
    RCPPO_PHASE1,
    RCPPO_PHASE2,
    record_acceptance,
)
from oracles import (
    budget_equivalence_sides,
    dijkstra_grid,
    finite_difference_check,
    fixed_policy_values,
    tabular_q_values,
)
from reachbudget import approx, baselines, rcppo
from reachbudget.augment import AugmentedGoalParams
from reachbudget.envkit import (
    ControlNoiseWrapper,
    NoiseWrapperConfig,
    grid_reachavoid_make,
)
from reachbudget.reachval import (
    apply_backup_sweep,
    augment_tabular,
    discount_sign_bound,
    make_z_grid,
    tabular_value_iteration,
)


# -- 1: analytic testbed ----------------------------------------------------------


def test_testbed_closed_forms_match_the_published_targets(testbed):
    t0 = time.perf_counter()
    min_cost = baselines.two_start_bandit_solvers(testbed, "reach_min_cost")
    cost_ok = (
        min_cost["p_a"] == 1.0
        and min_cost["p_b"] == 1.0
        and min_cost["expected_cost"] == 20.0
    )

    weights = sorted(
        set(float(w) for w in np.round(np.arange(0.0, 2.0001, 0.1), 10))
        | {1.0 / 3.0, 2.0 / 3.0, 0.95, 1.05}
    )
    scal_bad = []
    for w in weights:
        sol = baselines.two_start_bandit_solvers(testbed, "scalarized", w)
        want_a = 1.0 if w >= 1.0 else 0.0
        want_b = 1.0 if w <= 2.0 / 3.0 else 0.0
        pairs = [
            (sol["p_a"], want_a),
            (sol["p_b"], want_b),
            (sol["enumerated"]["p_a"], want_a),
            (sol["enumerated"]["p_b"], want_b),
        ]
        if any(abs(got - want) > 1e-3 for got, want in pairs):
            scal_bad.append(w)

    thr = baselines.two_start_bandit_solvers(testbed, "thresholded", 20.0)
    policy_ok = abs(thr["p_a"]) <= 1e-3 and abs(thr["p_b"] - 2.0 / 3.0) <= 1e-3
    reward_ok = abs(thr["expected_reward"] - 23.33) <= 0.01
    elapsed = time.perf_counter() - t0

    ok = cost_ok and not scal_bad and policy_ok and reward_ok and elapsed < 1.0
    record_acceptance(
        "analytic testbed",
        ok,
        f"min-cost policy (1,1) costs {min_cost['expected_cost']:.4f}; "
        f"{len(weights)} scalarization weights, {len(scal_bad)} mismatches; "
        f"thresholded(20) policy ({thr['p_a']:.3f}, {thr['p_b']:.3f}) "
        f"reward {thr['expected_reward']:.4f} vs target 23.33; {elapsed:.2f}s",
    )
    assert cost_ok
    assert min_cost["expected_reward"] == 15.0
    assert scal_bad == []
    assert policy_ok
    assert elapsed < 1.0
    # The one discrepant target in the suite: the optimum under the cost
    # cap is (0, 2/3) whose true expected reward is 50/3 = 16.67, so
    # this assert stays red rather than bending the solver to the number
    # or the number to the solver.
    assert thr["expected_reward"] == pytest.approx(23.33, abs=0.01)


# -- 2: reach-within-budget equivalence -------------------------------------------


def test_budget_equivalence_survives_ten_thousand_random_rollouts(
    pendulum, windfield, grid5
):
    t0 = time.perf_counter()
    params = AugmentedGoalParams(big_c=1000.0)
    rng = np.random.default_rng(20260815)
    plans = [
        (pendulum, 4000, 25, None),
        (windfield, 3000, 25, None),
        # integer budgets on the unit-cost grid hit the z boundary exactly
        (grid5.as_problem(), 3000, 12, lambda: float(rng.integers(-2, 15))),
    ]
    rollouts = prefixes = mismatches = 0
    for problem, n_rollouts, t_len, draw_z0 in plans:
        for _ in range(n_rollouts):
            z0 = draw_z0() if draw_z0 else float(rng.uniform(-5.0, 80.0))
            x = problem.sample_initial(rng)
            states, costs = [x], []
            for _ in range(t_len):
                u = rng.uniform(problem.action_low, problem.action_high)
                x, c = problem.step_and_cost(x, u)
                states.append(x)
                costs.append(float(c))
            lhs, rhs = budget_equivalence_sides(
                problem, params, np.asarray(states), np.asarray(costs), z0
            )
            rollouts += 1
            prefixes += len(lhs)
            mismatches += int(np.sum(lhs != rhs))
    elapsed = time.perf_counter() - t0

    ok = rollouts == 10_000 and mismatches == 0 and elapsed < 30.0
    record_acceptance(
        "budget equivalence",
        ok,
        f"{rollouts} rollouts over 3 problems, {prefixes} prefixes, "
        f"{mismatches} counterexamples; {elapsed:.1f}s",
    )
    assert rollouts == 10_000
    assert mismatches == 0
    assert elapsed < 30.0


# -- 3: contraction of the discounted backup --------------------------------------


def test_backup_sweep_contracts_on_a_hundred_random_mdps():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    violations = 0
    worst_fraction = 0.0
    for _ in range(100):
        n = int(rng.integers(5, 80))
        n_actions = int(rng.integers(1, 5))
        gamma = float(rng.uniform(0.5, 0.999))
        ghat = rng.uniform(-300.0, 300.0, n)
        succ = rng.integers(0, n, (n, n_actions))
        v1 = rng.uniform(-300.0, 300.0, n)
        v2 = rng.uniform(-300.0, 300.0, n)
        t1 = apply_backup_sweep(ghat, succ, v1, gamma)
        t2 = apply_backup_sweep(ghat, succ, v2, gamma)
        gap = float(np.max(np.abs(v1 - v2)))
        out_gap = float(np.max(np.abs(t1 - t2)))
        if out_gap > gamma * gap + 1e-9:
            violations += 1
        if gap > 0:
            worst_fraction = max(worst_fraction, out_gap / (gamma * gap))
    elapsed = time.perf_counter() - t0

    ok = violations == 0 and elapsed < 10.0
    record_acceptance(
        "contraction",
        ok,
        f"100 random mdps, {violations} violations, worst modulus at "
        f"{worst_fraction:.4f} of gamma; {elapsed:.1f}s",
    )
    assert violations == 0
    assert elapsed < 10.0


# -- 4: bisected budgets against shortest safe paths -------------------------------


BISECTION_LAYOUTS = [
    dict(width=5, height=5, hazards=((1, 1), (2, 2), (3, 3)), goal_cell=(0, 0)),
    dict(width=4, height=7, hazards=((3, 1), (4, 2)), goal_cell=(6, 3)),
    dict(width=3, height=3, hazards=(), goal_cell=(1, 1)),
    dict(width=8, height=8, hazards=((2, 2), (5, 5)), goal_cell=(0, 7)),
    dict(width=10, height=10, hazards=((4, 4), (5, 4), (6, 4)), goal_cell=(9, 9)),
    # single-file corridor: cells past the hazard cannot reach safely
    dict(width=1, height=8, hazards=((4, 0),), goal_cell=(0, 0)),
    dict(width=6, height=6, hazards=((2, 3),), goal_cell=(5, 5), step_cost=2.0),
]


def test_bisected_budgets_match_shortest_safe_path_costs():
    t0 = time.perf_counter()
    delta = 1.0
    starts_checked = infeasible_seen = 0
    missing_infeasible = []
    worst_dev = 0.0
    for layout in BISECTION_LAYOUTS:
        step_cost = layout.get("step_cost")
        mdp = grid_reachavoid_make(
            layout["width"],
            layout["height"],
            hazards=layout["hazards"],
            goal_cell=layout["goal_cell"],
            step_cost_table=step_cost,
        )
        z_top = (step_cost or 1.0) * layout["width"] * layout["height"] + 2.0
        grid = make_z_grid(delta, z_top)
        aug = augment_tabular(mdp, grid, big_c=350.0)
        table = tabular_value_iteration(aug, gamma=1.0)
        dist = dijkstra_grid(
            layout["width"],
            layout["height"],
            set(layout["hazards"]),
            layout["goal_cell"],
            cost_at=(lambda cell: step_cost) if step_cost else None,
        )
        for s in range(mdp.n_states):
            cell = tuple(mdp.coords[s])
            y0 = 1.0 if mdp.avoid_mask[s] else -1.0
            if mdp.avoid_mask[s] or cell not in dist:
                try:
                    rcppo.bisect_z_star(table.value_at, s, y0, -1.0, grid[-1], tol=1e-6)
                    missing_infeasible.append((layout["width"], layout["height"], cell))
                except rcppo.Infeasible:
                    infeasible_seen += 1
                continue
            sol = rcppo.bisect_z_star(table.value_at, s, y0, -1.0, grid[-1], tol=1e-6)
            worst_dev = max(worst_dev, abs(sol.z_star - dist[cell]))
            starts_checked += 1
    elapsed = time.perf_counter() - t0

    ok = (
        not missing_infeasible
        and worst_dev <= delta + 1e-6
        and starts_checked > 200
        and elapsed < 120.0
    )
    record_acceptance(
        "oracle bisection",
        ok,
        f"{len(BISECTION_LAYOUTS)} layouts, {starts_checked} starts within one "
        f"z cell of the path oracle (worst gap {worst_dev:.3f}), "
        f"{infeasible_seen} infeasible starts flagged; {elapsed:.1f}s",
    )
    assert missing_infeasible == []
    assert worst_dev <= delta + 1e-6
    assert starts_checked > 200
    assert elapsed < 120.0


# -- 5: discount threshold separates arrivals from wanderers -----------------------


def _orbit_values(mdp, aug, z_grid, policy, starts, gamma):
    """Exact on-policy values at (start, safe flag, full budget).

    Walks every start forward through the augmented table under the
    policy, then folds the discounted backup backward along each orbit.
    Orbits that never absorb end in a cycle whose fixed point equals the
    cycle's smallest margin at that margin's state, which seeds the fold
    exactly. Returns (values, absorbed) arrays over starts.
    """
    n_states = mdp.n_states
    n_z = len(z_grid)
    ghat_flat = aug.ghat.ravel()
    succ_flat = aug.succ.reshape(-1, aug.succ.shape[-1])
    absorbing_flat = aug.absorbing.ravel()
    idx = starts * (2 * n_z) + (n_z - 1)
    frozen = absorbing_flat[idx]
    horizon = n_z + 3 * n_states + 5
    margins = np.empty((len(starts), horizon + 1))
    margins[:, 0] = ghat_flat[idx]
    for t in range(1, horizon + 1):
        step = succ_flat[idx, policy[idx // (2 * n_z)]]
        idx = np.where(frozen, idx, step)
        frozen = frozen | absorbing_flat[idx]
        margins[:, t] = ghat_flat[idx]
    # absorbed orbits sit at their terminal margin; the rest are deep in
    # a cycle, pinned by the minimum margin over one full cycle window
    tail = np.where(frozen, margins[:, -1], margins[:, -(n_states + 1):].min(axis=1))
    values = tail
    for t in range(horizon - 1, -1, -1):
        g = margins[:, t]
        values = (1.0 - gamma) * g + gamma * np.minimum(g, values)
    return values, frozen


def test_discount_threshold_separates_arrivals_from_wanderers():
    t0 = time.perf_counter()
    rng = np.random.default_rng(55)
    n_arrive = n_wander = 0
    sign_errors = 0
    grounding_dev = 0.0
    for layout in BISECTION_LAYOUTS[:5]:
        mdp = grid_reachavoid_make(
            layout["width"],
            layout["height"],
            hazards=layout["hazards"],
            goal_cell=layout["goal_cell"],
        )
        z_grid = make_z_grid(1.0, layout["width"] * layout["height"] + 2.0)
        aug = augment_tabular(mdp, z_grid, big_c=350.0)
        starts = np.flatnonzero(~mdp.avoid_mask & ~mdp.goal_mask)

        g_max = float(np.max(mdp.g_values[~mdp.goal_mask]))
        bound = discount_sign_bound(g_max, float(z_grid[-1]) + 1.0, 1.0)
        gamma = 0.5 * (1.0 + bound)

        policies = [rng.integers(0, mdp.n_actions, mdp.n_states) for _ in range(20)]
        # the greedy policy from the exact table guarantees arrivals
        # appear alongside the random wanderers
        table = tabular_value_iteration(aug, gamma=1.0)
        q = tabular_q_values(aug, table)
        policies.append(np.asarray(q[:, 0, len(z_grid) - 1, :].argmin(axis=1)))

        for policy in policies:
            values, absorbed = _orbit_values(mdp, aug, z_grid, policy, starts, gamma)
            n_arrive += int(absorbed.sum())
            n_wander += int((~absorbed).sum())
            sign_errors += int(np.sum(absorbed & (values >= 0.0)))
            sign_errors += int(np.sum(~absorbed & (values <= 0.0)))
            if layout["width"] == 3:
                fixed = fixed_policy_values(aug, policy, 0.9)
                fold, _ = _orbit_values(mdp, aug, z_grid, policy, starts, 0.9)
                ref = fixed.values[starts, 0, len(z_grid) - 1]
                grounding_dev = max(grounding_dev, float(np.max(np.abs(fold - ref))))
    elapsed = time.perf_counter() - t0

    ok = (
        sign_errors == 0
        and n_arrive > 0
        and n_wander > 0
        and grounding_dev < 1e-6
        and elapsed < 60.0
    )
    record_acceptance(
        "discount bound",
        ok,
        f"5 layouts x 21 policies: {n_arrive} arriving values < 0, "
        f"{n_wander} wandering values > 0, {sign_errors} sign errors; "
        f"fold matches value iteration to {grounding_dev:.1e}; {elapsed:.1f}s",
    )
    assert sign_errors == 0
    assert n_arrive > 0 and n_wander > 0
    assert grounding_dev < 1e-6
    assert elapsed < 60.0


# -- 6: gradient fidelity of every network head ------------------------------------


def test_every_network_head_matches_central_differences():
    t0 = time.perf_counter()
    worst = {"policy surrogate": 0.0, "log-prob": 0.0, "value": 0.0}
    for seed in range(10):
        rng = np.random.default_rng(1000 + seed)
        policy = approx.policy_init(
            4, np.array([-1.0]), np.array([1.0]), rng, hidden=(16, 16)
        )
        policy.log_std[:] = rng.uniform(-1.0, 0.5, policy.log_std.shape)
        obs = rng.normal(size=(24, 4))
        _, raw, logp = approx.policy_sample(policy, obs, rng)
        old = logp + rng.normal(scale=0.2, size=24)
        adv = rng.normal(size=24)

        def surrogate(_params):
            loss, grads, _ = rcppo.ppo_policy_loss(
                policy, obs, raw, old, adv, 0.2, entropy_coef=0.01
            )
            return loss, grads

        worst["policy surrogate"] = max(
            worst["policy surrogate"],
            finite_difference_check(surrogate, policy.trainable(), rng),
        )

        weights = rng.normal(size=24)

        def weighted_logp(_params):
            lp = approx.policy_log_prob(policy, obs, raw)
            return float(weights @ lp), approx.policy_logp_backward(
                policy, obs, raw, weights
            )

        worst["log-prob"] = max(
            worst["log-prob"],
            finite_difference_check(weighted_logp, policy.trainable(), rng),
        )

        net = approx.mlp_init((4, 16, 16, 1), rng)
        vobs = rng.normal(size=(14, 4))
        targets = rng.normal(size=14) * 3.0

        def value_head(_params):
            return rcppo.value_loss(net, vobs, targets, 2.5)

        worst["value"] = max(
            worst["value"],
            finite_difference_check(value_head, net.trainable(), rng),
        )
    elapsed = time.perf_counter() - t0

    ok = max(worst.values()) < 1e-4 and elapsed < 60.0
    record_acceptance(
        "gradient fidelity",
        ok,
        "worst relative error over 10 seeds: "
        + ", ".join(f"{k} {v:.1e}" for k, v in worst.items())
        + f"; {elapsed:.1f}s",
    )
    for head, err in worst.items():
        assert err < 1e-4, head
    assert elapsed < 60.0


# -- 7-10: trained pendulum artifacts ----------------------------------------------


def _bisection_z_source(artifacts):
    vfn = rcppo.value_fn_from(artifacts["value2"], artifacts["meta2"])
    z_max = float(artifacts["meta2"]["z_max"])

    def z_source(x, y):
        return rcppo.bisect_z_star(vfn, x, y, -1.0, z_max, tol=DEPLOY_TOL).z_star

    return z_source


@pytest.fixture(scope="module")
def budgeted_eval(pendulum, pendulum_rcppo_artifacts):
    art = pendulum_rcppo_artifacts
    return rcppo.evaluate_policy(
        pendulum, art["policy"], art["meta"], _bisection_z_source(art), 256, seed=123
    )


@pytest.fixture(scope="module")
def baseline_eval(pendulum, pendulum_baseline_artifacts):
    art = pendulum_baseline_artifacts
    return rcppo.evaluate_policy(pendulum, art["policy"], art["meta"], None, 256, seed=123)


@pytest.mark.training
def test_budgeted_controller_reaches_at_a_fraction_of_baseline_cost(
    budgeted_eval, baseline_eval
):
    rc_reach = budgeted_eval["reach_rate"]
    rc_cost = budgeted_eval["mean_cost_reached"]
    bl_reach = baseline_eval["reach_rate"]
    bl_cost = baseline_eval["mean_cost_reached"]
    steps_rc = RCPPO_PHASE1.total_steps + RCPPO_PHASE2.total_steps
    steps_bl = BASELINE_LO.total_steps

    ok = (
        rc_reach >= 0.95
        and bl_reach >= 0.9
        and rc_cost is not None
        and bl_cost is not None
        and rc_cost <= 0.7 * bl_cost
        and steps_rc <= 2_000_000
        and steps_bl <= 2_000_000
    )
    ratio = rc_cost / bl_cost if rc_cost and bl_cost else math.nan
    record_acceptance(
        "pendulum end-to-end",
        ok,
        f"budgeted reach {rc_reach:.3f} cost {rc_cost:.1f} vs baseline reach "
        f"{bl_reach:.3f} cost {bl_cost:.1f} over 256 episodes; cost ratio "
        f"{ratio:.2f} (need <= 0.70); {steps_rc / 1e6:.1f}M and "
        f"{steps_bl / 1e6:.1f}M training steps",
    )
    assert steps_rc <= 2_000_000
    assert steps_bl <= 2_000_000
    assert rc_reach >= 0.95
    assert bl_reach >= 0.9
    assert rc_cost <= 0.7 * bl_cost


@pytest.mark.training
def test_deployed_budgets_bound_realized_costs(budgeted_eval):
    reaching = [r for r in budgeted_eval["episodes"] if r["reached"]]
    within = [
        r for r in reaching if r["cumulative_cost"] <= r["z0"] + DEPLOY_TOL + 1e-9
    ]
    frac = len(within) / len(reaching) if reaching else 0.0

    ok = bool(reaching) and frac >= 0.9
    record_acceptance(
        "budget soundness",
        ok,
        f"{len(within)}/{len(reaching)} reaching episodes spent at most "
        f"z0 + {DEPLOY_TOL:g} ({frac:.1%}, need >= 90%)",
    )
    assert reaching
    assert frac >= 0.9


@pytest.mark.training
def test_budgeted_point_is_not_dominated_by_the_weight_sweep(
    budgeted_eval, pendulum_grid_rows
):
    rc_reach = budgeted_eval["reach_rate"]
    rc_cost = budgeted_eval["mean_cost_reached"]
    rows = pendulum_grid_rows

    report_path = os.path.join(os.path.dirname(__file__), "_cache", "pareto_report.csv")
    os.makedirs(os.path.dirname(report_path), exist_ok=True)
    with open(report_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["label", "r_goal", "p_goal", "beta", "reach_rate", "mean_cost", "error"]
        )
        writer.writerow(["budgeted", "", "", "", rc_reach, rc_cost, ""])
        for row in rows:
            writer.writerow(
                ["sweep", row["r_goal"], row["p_goal"], row["beta"],
                 row["reach_rate"], row["mean_cost"], row["error"]]
            )

    def valid(value):
        return value is not None and not (isinstance(value, float) and math.isnan(value))

    dominating = [
        row
        for row in rows
        if valid(row["reach_rate"])
        and valid(row["mean_cost"])
        and row["reach_rate"] >= rc_reach
        and row["mean_cost"] <= rc_cost
        and (row["reach_rate"] > rc_reach or row["mean_cost"] < rc_cost)
    ]

    ok = not dominating and len(rows) == 27 and GRID_SWEEP["total_steps"] <= 500_000
    record_acceptance(
        "pareto sweep",
        ok,
        f"budgeted point ({rc_reach:.3f}, {rc_cost:.1f}) vs {len(rows)} sweep "
        f"cells at {GRID_SWEEP['total_steps'] / 1e3:.0f}k steps each; "
        f"{len(dominating)} dominate; report at {os.path.relpath(report_path)}",
    )
    assert os.path.exists(report_path)
    assert len(rows) == 27
    assert GRID_SWEEP["total_steps"] <= 500_000
    assert dominating == []


@pytest.mark.training
def test_control_noise_keeps_the_budgeted_controller_cheapest(
    pendulum, pendulum_rcppo_artifacts, pendulum_baseline_artifacts
):
    half_width = 0.1
    rc_art = pendulum_rcppo_artifacts
    bl_art = pendulum_baseline_artifacts
    noisy = lambda: ControlNoiseWrapper(
        pendulum, NoiseWrapperConfig(noise_half_width=half_width, seed=97)
    )
    rc = rcppo.evaluate_policy(
        noisy(), rc_art["policy"], rc_art["meta"], _bisection_z_source(rc_art),
        256, seed=123,
    )
    bl = rcppo.evaluate_policy(
        noisy(), bl_art["policy"], bl_art["meta"], None, 256, seed=123
    )
    rc_cost = rc["mean_cost_reached"]
    bl_cost = bl["mean_cost_reached"]
    bl_effective = bl_cost if bl_cost is not None else math.inf

    ok = rc["reach_rate"] >= 0.9 and rc_cost is not None and rc_cost <= bl_effective
    record_acceptance(
        "noise robustness",
        ok,
        f"half-width {half_width:g} control noise: budgeted reach "
        f"{rc['reach_rate']:.3f} cost {rc_cost:.1f}; baseline reach "
        f"{bl['reach_rate']:.3f} cost {bl_cost if bl_cost is None else round(bl_cost, 1)}",
    )
    assert rc["reach_rate"] >= 0.9
    assert rc_cost is not None
    assert rc_cost <= bl_effective
