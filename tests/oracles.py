"""Independent reference implementations used only by the tests.

Everything here is written directly from first principles (shortest
paths, series definitions, textbook densities) without importing the
package internals it checks, so agreement is evidence rather than
tautology.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

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
