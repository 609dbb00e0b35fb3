"""Independent reference implementations used only by the tests.

Everything up to the checkers is written directly from first principles
(shortest paths, series definitions, textbook densities) without
importing the package internals it checks, so agreement is evidence
rather than tautology.

The checkers at the end are the language the acceptance claims are
written in: both sides of the budget equivalence, the Q table of a
solved value table, and a central-difference gradient check. The first
two compose the package's own margin and backup on purpose.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from reachbudget.augment import AugmentedGoalParams, augmented_goal, shifted_indicator
from reachbudget.envkit.base import ReachAvoidProblem
from reachbudget.reachval import AugmentedTabular, TabularValueTable, discounted_backup

GOAL_PLATEAU = -300.0


def dijkstra_grid(
    width: int,
    height: int,
    hazards: set[tuple[int, int]],
    goal_cell: tuple[int, int],
    cost_at=None,
) -> dict[tuple[int, int], float]:
    """Cheapest hazard-free path cost from every cell to the goal.

    The per-step cost is charged for the cell being left (cost_at(cell),
    default 1.0); paths may not enter hazard cells. Unreachable cells
    are absent from the result.
    """
    if cost_at is None:
        cost_at = lambda cell: 1.0
    goal = tuple(goal_cell)
    dist: dict[tuple[int, int], float] = {goal: 0.0}
    heap = [(0.0, goal)]
    moves = ((-1, 0), (1, 0), (0, -1), (0, 1))
    while heap:
        d, cell = heapq.heappop(heap)
        if d > dist.get(cell, math.inf):
            continue
        # relax predecessors: stepping from nb into cell costs cost_at(nb)
        for dr, dc in moves:
            nb = (cell[0] + dr, cell[1] + dc)
            if not (0 <= nb[0] < height and 0 <= nb[1] < width):
                continue
            if nb in hazards:
                continue
            nd = d + cost_at(nb)
            if nd < dist.get(nb, math.inf):
                dist[nb] = nd
                heapq.heappush(heap, (nd, nb))
    return dist


def pendulum_step_reference(theta, theta_dot, torque):
    """Semi-implicit Euler swing-up step, transcribed independently."""
    g, m, length, dt = 10.0, 1.0, 1.0, 0.05
    u = min(max(torque, -1.0), 1.0)
    accel = 3.0 * g / (2.0 * length) * math.sin(theta) + 3.0 / (m * length**2) * u
    new_dot = theta_dot + accel * dt
    new_dot = min(max(new_dot, -8.0), 8.0)
    new_theta = theta + new_dot * dt
    wrapped = (new_theta + math.pi) % (2.0 * math.pi) - math.pi
    return wrapped, new_dot


def pendulum_cost_reference(torque):
    u = min(max(torque, -1.0), 1.0)
    return 0.0 if abs(u) < 0.1 else 8.0 * u * u


def naive_phi(values, gamma):
    """Right fold of the discounted reach backup, straight recursion."""
    vals = list(values)
    if len(vals) < 2:
        raise ValueError("need at least two values")
    acc = vals[-1]
    for g in reversed(vals[:-1]):
        acc = (1.0 - gamma) * g + gamma * min(g, acc)
    return acc


def naive_k_step_advantages(ghat, values, tail, gamma):
    """A^(k) = phi(ghat_t..ghat_{t+k-1}, V_{t+k}) - V_t for all t, k."""
    t_len = len(ghat)
    fold_tail = list(values[1:]) + [tail]
    out = []
    for t in range(t_len):
        advs = []
        for k in range(1, t_len - t + 1):
            chain = list(ghat[t : t + k]) + [fold_tail[t + k - 1]]
            advs.append(naive_phi(chain, gamma) - values[t])
        out.append(advs)
    return out


def naive_gae(ghat, values, tail, gamma, lam, mode):
    """Lambda-weighted combination of the k-step advantages."""
    per_t = naive_k_step_advantages(ghat, values, tail, gamma)
    out = []
    for advs in per_t:
        k_avail = len(advs)
        weighted = sum(lam ** (k - 1) * a for k, a in enumerate(advs, start=1))
        if mode == "renormalized":
            denom = sum(lam ** (k - 1) for k in range(1, k_avail + 1))
            out.append(weighted / denom)
        elif mode == "literal":
            out.append(weighted * lam / (1.0 - lam))
        else:
            raise ValueError(mode)
    return np.asarray(out)


def backup_sweep_reference(ghat, succ, values, gamma, frozen=None):
    """One sweep of the discounted reach backup, one backup per action.

    Backs up every successor value with (1 - gamma) * ghat +
    gamma * min(ghat, V') and then takes the minimum over the action
    axis; succ is (N,) for a chain or (N, A). Frozen states keep ghat.
    """
    if succ.ndim == values.ndim:
        succ = succ[..., None]
    g = np.asarray(ghat)[..., None]
    backed = (1.0 - gamma) * g + gamma * np.minimum(g, values.reshape(-1)[succ])
    new = backed.min(axis=-1)
    if frozen is not None:
        new = np.where(frozen, ghat, new)
    return new


def sequential_bisection(value, z_min, z_max, tol, scan_points=0):
    """Smallest budget with value(z) <= 0, asking value for one budget at a time.

    value is a scalar function of the budget. A sweep of scan_points > 1
    evenly spaced budgets counts the feasible-to-infeasible sign changes
    along it. The bracket [lo, hi] starts at [z_min, z_max] and halves at
    mid = 0.5 * (lo + hi): hi moves to mid where value(mid) <= 0, lo
    otherwise, until hi - lo <= tol or after
    ceil(log2(max(1, (z_max - z_min) / tol))) + 5 midpoints.

    Returns None when value(z_max) > 0, else a dict of z_star, bracket,
    iterations and monotone_violations.
    """
    violations = 0
    if scan_points > 1:
        feasible = [value(z) <= 0.0 for z in np.linspace(z_min, z_max, scan_points)]
        violations = sum(a and not b for a, b in zip(feasible, feasible[1:]))
    if value(z_max) > 0.0:
        return None
    lo, hi = float(z_min), float(z_max)
    iterations = 0
    if value(z_min) <= 0.0:
        hi = lo
    else:
        max_iter = math.ceil(math.log2(max(1.0, (hi - lo) / tol))) + 5
        while hi - lo > tol and iterations < max_iter:
            mid = 0.5 * (lo + hi)
            if value(mid) <= 0.0:
                hi = mid
            else:
                lo = mid
            iterations += 1
    return {
        "z_star": hi,
        "bracket": (lo, hi),
        "iterations": iterations,
        "monotone_violations": violations,
    }


def normal_logpdf(x, mean, std):
    return -0.5 * ((x - mean) / std) ** 2 - math.log(std) - 0.5 * math.log(2 * math.pi)


# closed forms of the two-state testbed, written from the tables:
# state A: arms cost (10, 20), reward (10, 20), both reach
# state B: arms cost (30, 0), reward (20, 0), only arm 0 reaches
def testbed_reach(p_a, p_b):
    return 0.5 * 1.0 + 0.5 * p_b


def testbed_reward(p_a, p_b):
    return 0.5 * (10 * p_a + 20 * (1 - p_a)) + 0.5 * 20 * p_b


def testbed_cost(p_a, p_b):
    return 0.5 * (10 * p_a + 20 * (1 - p_a)) + 0.5 * 30 * p_b


def simulate_two_start_bandit(
    mdp, p_a: float, p_b: float, n_episodes: int = 10_000, seed: int = 0
) -> dict:
    """Monte Carlo estimates of reach, reward, and cost for (p_a, p_b)."""
    rng = np.random.Generator(np.random.PCG64(seed))
    probs = {s: p for s, p in zip(mdp.initial_states, (p_a, p_b))}
    starts = rng.choice(mdp.initial_states, size=n_episodes, p=mdp.initial_probs)
    draws = rng.uniform(size=n_episodes)
    reach = reward = cost = 0.0
    for s, d in zip(starts, draws):
        a = 0 if d < probs[s] else 1
        nxt = mdp.next_state[s, a]
        reach += float(mdp.goal_mask[nxt])
        reward += float(mdp.reward[s, a])
        cost += float(mdp.cost[s, a])
    return {
        "reach_prob": reach / n_episodes,
        "expected_reward": reward / n_episodes,
        "expected_cost": cost / n_episodes,
    }


def mlp_reference(weights, biases, x, upstream):
    """Output and parameter gradients (dW0, db0, dW1, ...) of
    sum(upstream * output) for a tanh net given as weight and bias lists,
    by textbook reverse mode with a fresh array for every operation."""
    acts = [x]
    h = x
    for i, (w, b) in enumerate(zip(weights, biases)):
        h = h @ w + b
        if i < len(weights) - 1:
            h = np.tanh(h)
        acts.append(h)
    grads = [None] * (2 * len(weights))
    delta = upstream
    for i in reversed(range(len(weights))):
        grads[2 * i] = acts[i].T @ delta
        grads[2 * i + 1] = delta.sum(axis=0)
        delta = delta @ weights[i].T
        if i > 0:
            delta = delta * (1.0 - acts[i] ** 2)
    return h, grads


def adam_reference(p, g, m, v, step, lr, b1=0.9, b2=0.999, eps=1e-8):
    """One Adam update (step counts from 1); returns new (p, m, v)."""
    m = m * b1 + (1.0 - b1) * g
    v = v * b2 + (1.0 - b2) * g**2
    p = p - lr * (m / (1.0 - b1**step)) / (np.sqrt(v / (1.0 - b2**step)) + eps)
    return p, m, v


def regression_fit_reference(weights, biases, x, targets, epochs, lr):
    """Weights and biases of a tanh net with one output after epochs
    full-batch Adam steps (adam_reference) on the mean squared error
    against targets, all in float64."""
    params = [np.array(a, dtype=np.float64) for pair in zip(weights, biases) for a in pair]
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    for step in range(1, epochs + 1):
        out, _ = mlp_reference(params[0::2], params[1::2], x, np.zeros((len(x), 1)))
        upstream = 2.0 * (out - targets[:, None]) / len(x)
        _, grads = mlp_reference(params[0::2], params[1::2], x, upstream)
        for i, g in enumerate(grads):
            params[i], m[i], v[i] = adam_reference(params[i], g, m[i], v[i], step, lr)
    return params[0::2], params[1::2]


def enumerate_best_whole_grid(objective, step=1e-3):
    """Best (p_a, p_b) on the probability grid, scored in one call.

    Ties within 1e-9 of the best go to the lexicographically largest
    pair; argwhere lists indices in row-major order, so that is the
    last one. Returns (pair, its score).
    """
    grid = np.arange(0.0, 1.0 + step / 2, step)
    scores = objective(grid[:, None], grid[None, :])
    i, j = np.argwhere(scores >= scores.max() - 1e-9)[-1]
    return np.array([grid[i], grid[j]]), float(scores[i, j])


# -- checkers ------------------------------------------------------------------


def budget_equivalence_sides(
    problem: ReachAvoidProblem,
    params: AugmentedGoalParams,
    states: np.ndarray,
    costs: np.ndarray,
    z0: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate both sides of the reach-within-budget equivalence.

    For every prefix length T of a rollout (states has T_total + 1 rows,
    costs has T_total entries), the left side is the raw predicate

        x_T in G  and  x_t not in F for all t <= T  and  z0 >= sum_{k<T} c_k

    and the right side tests the augmented goal margin of the replayed
    augmented state (x_T, y_T, z_T), with y and z reconstructed from
    the trajectory and z0. Returns (lhs, rhs) boolean arrays of length
    T_total + 1; equivalence should hold at every index.

    Args:
        states: (T+1, d) visited raw states.
        costs: (T,) per-step costs actually charged.
        z0: initial budget.
    """
    states = np.atleast_2d(np.asarray(states, dtype=np.float64))
    costs = np.asarray(costs, dtype=np.float64)
    if states.shape[0] != costs.shape[0] + 1:
        raise ValueError("need one more state than costs")

    in_g = np.asarray(problem.in_goal(states), dtype=bool)
    in_f = np.asarray(problem.in_avoid(states), dtype=bool)
    cum = np.concatenate([[0.0], np.cumsum(costs)])
    z = z0 - cum
    y = shifted_indicator(np.maximum.accumulate(in_f))

    lhs = in_g & ~np.maximum.accumulate(in_f) & (z0 >= cum)
    rhs = augmented_goal(problem, states, y, z, params) <= 0.0
    return lhs, rhs


def tabular_q_values(aug: AugmentedTabular, table: TabularValueTable) -> np.ndarray:
    """Q(s_hat, a) induced by a solved value table, shape (S, 2, Z, A)."""
    q = discounted_backup(aug.ghat[..., None], table.values.reshape(-1)[aug.succ], table.gamma)
    return np.where(aug.absorbing[..., None], aug.ghat[..., None], q)


def finite_difference_check(
    loss_and_grad,
    params: list[np.ndarray],
    rng: np.random.Generator,
    eps: float = 1e-5,
    coords_per_array: int = 25,
) -> float:
    """Largest relative error between analytic and central differences.

    loss_and_grad(params) must return (scalar loss, grads aligned with
    params). Checks a random subset of coordinates per array; exact
    zeros on both sides count as agreement. Near-kink coordinates are
    the caller's responsibility (jitter parameters first). The params
    must be float64, since float32 rounding is not small against these
    steps; another dtype raises ValueError.
    """
    if any(arr.dtype != np.float64 for arr in params):
        raise ValueError("finite_difference_check needs float64 parameters")
    _, grads = loss_and_grad(params)
    worst = 0.0
    for arr, g in zip(params, grads):
        g_flat = np.asarray(g).reshape(-1)
        n = arr.size
        idx = np.arange(n) if n <= coords_per_array else rng.choice(n, coords_per_array, False)
        for i in idx:
            # arr.flat writes through regardless of memory layout
            orig = arr.flat[i]
            arr.flat[i] = orig + eps
            hi, _ = loss_and_grad(params)
            arr.flat[i] = orig - eps
            lo, _ = loss_and_grad(params)
            arr.flat[i] = orig
            fd = (hi - lo) / (2.0 * eps)
            an = g_flat[i]
            scale = max(abs(fd), abs(an))
            if scale < 1e-6:
                continue
            worst = max(worst, abs(fd - an) / scale)
    return worst
