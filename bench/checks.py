"""Reference computations made apart from the program, and the checks on them.

Nothing here imports reachbudget. Each reference is written from the
definitions: the pendulum equations, a plain MLP forward over the
checkpoint arrays, the phi fold, shortest safe paths on the grid, and
the bandit's linear programs solved in closed form. Agreement with the
program is therefore evidence, not a tautology.

Every check returns a list of error strings; an empty list is a pass.
"""

from __future__ import annotations

import heapq
import io
import json
import math
import zipfile

import numpy as np

# -- pendulum, transcribed from the model definition ---------------------------

DT = 0.05
MAX_SPEED = 8.0
TORQUE_LIMIT = 1.0
HORIZON = 200
STATE_TOL = 1e-9  # one-step replay; libm sin may differ in the last ulp


def pendulum_step(x, torque: float) -> np.ndarray:
    """Semi-implicit Euler step (g 10, m 1, l 1) with the speed clamp."""
    theta, theta_dot = float(x[0]), float(x[1])
    u = min(max(float(torque), -TORQUE_LIMIT), TORQUE_LIMIT)
    accel = 15.0 * math.sin(theta) + 3.0 * u
    new_dot = min(max(theta_dot + accel * DT, -MAX_SPEED), MAX_SPEED)
    new_theta = (theta + new_dot * DT + math.pi) % (2.0 * math.pi) - math.pi
    return np.array([new_theta, new_dot])


def pendulum_cost(torque: float) -> float:
    """Free below |u| = 0.1, else 8 u^2, priced on the clamped torque."""
    u = abs(min(max(float(torque), -TORQUE_LIMIT), TORQUE_LIMIT))
    return 0.0 if u < 0.1 else 8.0 * u * u


def goal_product(x) -> float:
    """theta * (theta + theta_dot * dt); negative exactly inside the goal."""
    return float(x[0]) * (float(x[0]) + float(x[1]) * DT)


# -- checkpoints and a plain MLP -----------------------------------------------


def read_checkpoint(path: str) -> tuple[dict[str, np.ndarray], dict]:
    """Arrays and metadata of a checkpoint zip, read with zipfile and numpy."""
    arrays = {}
    with zipfile.ZipFile(path) as zf:
        meta = json.loads(zf.read("meta.json"))
        for name in zf.namelist():
            if name.endswith(".npy"):
                arrays[name[:-4]] = np.load(io.BytesIO(zf.read(name)))
    return arrays, meta


def mlp(arrays: dict[str, np.ndarray], prefix: str, x: np.ndarray) -> np.ndarray:
    """tanh MLP over arrays named <prefix>_w<i>, <prefix>_b<i>; x is (n, d)."""
    h = np.asarray(x, dtype=np.float64)
    i = 0
    while f"{prefix}_w{i}" in arrays:
        h = h @ arrays[f"{prefix}_w{i}"] + arrays[f"{prefix}_b{i}"]
        i += 1
        if f"{prefix}_w{i}" in arrays:
            h = np.tanh(h)
    return h


class ValueRef:
    """The budget-conditioned value V(x, y, z) in raw units, from arrays."""

    def __init__(self, arrays: dict[str, np.ndarray], meta: dict) -> None:
        self.arrays = arrays
        self.scale = np.asarray(meta["obs_scale"], dtype=np.float64)
        self.z_min = float(meta["z_min"])
        self.z_max = float(meta["z_max"])
        self.big_c = float(meta["big_c"])

    def obs(self, x, y: float, z: float) -> np.ndarray:
        z_norm = min(max((z - self.z_min) / (self.z_max - self.z_min), -1.0), 1.0)
        return np.array([[*(np.asarray(x, dtype=np.float64) / self.scale), y, z_norm]])

    def __call__(self, x, y: float, z: float) -> float:
        return float(mlp(self.arrays, "value", self.obs(x, y, z))[0, 0] * self.big_c)


def policy_mode_ref(arrays, vref: ValueRef, x, y: float, z: float) -> float:
    """Mode action of the Gaussian policy: its mean clamped into the box."""
    mean = mlp(arrays, "policy", vref.obs(x, y, z))[0, 0]
    low, high = float(arrays["policy_action_low"][0]), float(arrays["policy_action_high"][0])
    return min(max(mean, low), high)


# -- deployment -----------------------------------------------------------------

VALUE_SLACK = 1e-6  # raw value units; the program and the reference round apart


def check_bisection(vref: ValueRef, x, y: float, tol: float, sol, infeasible: bool) -> list[str]:
    """Bracket properties of one bisection against the reference value.

    sol has z_star and bracket; infeasible says Infeasible was raised.
    """
    errs = []
    v_top = vref(x, y, vref.z_max)
    if infeasible:
        if v_top <= -VALUE_SLACK:
            errs.append(f"Infeasible raised at {x} but V(z_max)={v_top:.6g} <= 0")
        return errs
    if v_top > VALUE_SLACK:
        errs.append(f"no Infeasible at {x} though V(z_max)={v_top:.6g} > 0")
    lo, hi = float(sol.bracket[0]), float(sol.bracket[1])
    if hi - lo > tol * (1.0 + 1e-12):
        errs.append(f"bracket width {hi - lo:.6g} > tol {tol:g} at {x}")
    if float(sol.z_star) != hi or not vref.z_min <= lo <= hi <= vref.z_max:
        errs.append(f"z_star {sol.z_star} not the top of bracket ({lo}, {hi}) at {x}")
    v_hi = vref(x, y, hi)
    if v_hi > VALUE_SLACK:
        errs.append(f"V(hi)={v_hi:.6g} > 0 at {x}")
    if float(sol.z_star) != vref.z_min and vref(x, y, lo) <= -VALUE_SLACK:
        errs.append(f"V(lo)={vref(x, y, lo):.6g} <= 0 though z_star > z_min at {x}")
    return errs


def check_deployed_episode(
    policy_arrays, vref: ValueRef, states, actions, costs, zs, record: dict | None
) -> list[str]:
    """Replay one noise-free deployment step by step with the reference model.

    Checks every action against the reference policy mode, every state
    and cost against the reference step, the budget bookkeeping, the
    episode end (first goal entry or step 200), and the evaluation
    record for the same start.
    """
    errs = []
    t_len = len(costs)
    if t_len > HORIZON:
        errs.append(f"episode of {t_len} steps exceeds the horizon")
    for t in range(t_len):
        if goal_product(states[t]) < -1e-12:
            errs.append(f"episode continued past a goal entry at step {t}")
            break
        u_ref = policy_mode_ref(policy_arrays, vref, states[t], -1.0, zs[t])
        if abs(float(actions[t][0]) - u_ref) > STATE_TOL:
            errs.append(f"step {t}: action {actions[t][0]:.12g} != mode {u_ref:.12g}")
        if np.max(np.abs(pendulum_step(states[t], actions[t][0]) - states[t + 1])) > STATE_TOL:
            errs.append(f"step {t}: successor differs from the reference step")
        if abs(pendulum_cost(actions[t][0]) - float(costs[t])) > STATE_TOL:
            errs.append(f"step {t}: cost {costs[t]} != {pendulum_cost(actions[t][0])}")
        if abs(zs[t] - costs[t] - zs[t + 1]) > STATE_TOL * max(1.0, abs(zs[t])):
            errs.append(f"step {t}: budget not decremented by the cost")
        if errs:
            break
    end_in_goal = goal_product(states[t_len]) < 0.0
    if not end_in_goal and t_len != HORIZON:
        errs.append(f"episode ended at step {t_len} outside the goal")
    if record is not None:
        if record["length"] != t_len:
            errs.append(f"record length {record['length']} != replay {t_len}")
        if abs(record["cumulative_cost"] - float(np.sum(costs))) > 1e-9:
            errs.append("record cost differs from the replayed cost sum")
        if record["z0"] != zs[0]:
            errs.append("record budget differs from the deployed z0")
        if record["reached"] != end_in_goal or record["violated"]:
            errs.append("record reach/violation flags disagree with the replay")
    return errs


def check_noisy_episode(
    policy_arrays, vref: ValueRef, states, actions, costs, zs, half_width: float
) -> list[str]:
    """Replay a deployment under additive control noise.

    The executed torque is recovered from the recorded speed change; it
    must lie within half_width of the commanded mode action and be the
    torque the step was charged for.
    """
    errs = []
    t_len = len(costs)
    for t in range(t_len):
        theta, theta_dot = float(states[t][0]), float(states[t][1])
        new_theta, new_dot = float(states[t + 1][0]), float(states[t + 1][1])
        u_cmd = float(actions[t][0])
        u_ref = policy_mode_ref(policy_arrays, vref, states[t], -1.0, zs[t])
        if abs(u_cmd - u_ref) > STATE_TOL:
            errs.append(f"step {t}: commanded {u_cmd:.12g} != mode {u_ref:.12g}")
        wrapped = (theta + new_dot * DT + math.pi) % (2.0 * math.pi) - math.pi
        if abs(wrapped - new_theta) > STATE_TOL:
            errs.append(f"step {t}: angle update disagrees with the recorded speed")
        if abs(new_dot) < MAX_SPEED:
            u_exec = ((new_dot - theta_dot) / DT - 15.0 * math.sin(theta)) / 3.0
            if abs(u_exec - u_cmd) > half_width + 1e-6 or abs(u_exec) > TORQUE_LIMIT + 1e-6:
                errs.append(f"step {t}: executed torque {u_exec:.6g} vs commanded {u_cmd:.6g}")
            if abs(abs(u_exec) - 0.1) > 1e-6 and abs(pendulum_cost(u_exec) - costs[t]) > 1e-6:
                errs.append(f"step {t}: cost {costs[t]} not charged on the executed torque")
        elif not 0.0 <= costs[t] <= 8.0:
            errs.append(f"step {t}: cost {costs[t]} outside [0, 8]")
        if errs:
            break
    if not goal_product(states[t_len]) < 0.0 and t_len != HORIZON:
        errs.append(f"noisy episode ended at step {t_len} outside the goal")
    return errs


def check_report(report: dict, n_episodes: int) -> list[str]:
    """Aggregates of an evaluation report against its own episode records."""
    recs = report["episodes"]
    errs = []
    if len(recs) != n_episodes or report["n_episodes"] != n_episodes:
        errs.append(f"report holds {len(recs)} episodes, asked for {n_episodes}")
    for r in recs:
        if not 0 <= r["length"] <= HORIZON or not 0.0 <= r["cumulative_cost"] <= 8.0 * r["length"]:
            errs.append(f"episode record out of range: {r}")
            break
    reached = [r["cumulative_cost"] for r in recs if r["reached"]]
    if report["reach_rate"] != len(reached) / n_episodes:
        errs.append("reach_rate disagrees with the records")
    if reached and abs(report["mean_cost_reached"] - float(np.mean(reached))) > 1e-9:
        errs.append("mean_cost_reached disagrees with the records")
    return errs


def check_regressor(weights, biases, scale, z_min, z_max, states, y: float, predicted) -> list[str]:
    """Budget-map predictions against a plain forward of the fitted net.

    The net maps (x / scale, y) to a budget normalized to [z_min, z_max].
    """
    arrays = {f"net_w{i}": w for i, w in enumerate(weights)}
    arrays.update({f"net_b{i}": b for i, b in enumerate(biases)})
    inp = np.concatenate([states / scale, np.full((len(states), 1), y)], axis=1)
    want = np.clip(z_min + mlp(arrays, "net", inp)[:, 0] * (z_max - z_min), z_min, z_max)
    if np.max(np.abs(np.asarray(predicted) - want)) > 1e-9 * (z_max - z_min):
        return ["regressor predictions disagree with a plain forward of its net"]
    return []


# -- training -------------------------------------------------------------------


def phase2_gamma(big_c: float, horizon: int, eps_gap: float) -> float:
    """0.5 * ((g / (g + eps))^(1/T) + 1), held below one."""
    return min(1.0 - 1e-9, 0.5 * ((big_c / (big_c + eps_gap)) ** (1.0 / horizon) + 1.0))


def naive_phi_advantage(ghat, values, tail: float, gamma: float, lam: float, t: int) -> float:
    """Renormalized lambda-average of k-step phi-fold advantages at step t.

    The k-step target folds phi(a, b) = (1 - gamma) a + gamma min(a, b)
    right to left over (ghat_t, ..., ghat_{t+k-1}, V_{t+k}), with the
    tail value closing chains that reach the episode end.
    """
    t_len = len(ghat)
    num = den = 0.0
    for k in range(1, t_len - t + 1):
        acc = float(values[t + k]) if t + k < t_len else float(tail)
        for j in range(t + k - 1, t - 1, -1):
            a = float(ghat[j])
            acc = (1.0 - gamma) * a + gamma * min(a, acc)
        w = lam ** (k - 1)
        num += w * (acc - float(values[t]))
        den += w
    return num / den


def check_advantages(ghat, values, tail, gamma, lam, adv, steps) -> list[str]:
    errs = []
    for t in steps:
        want = naive_phi_advantage(ghat, values, tail, gamma, lam, t)
        if abs(want - float(adv[t])) > 1e-8 * max(1.0, abs(want)):
            errs.append(f"advantage at step {t}: program {adv[t]:.12g}, naive fold {want:.12g}")
    return errs


def check_central_differences(loss, params, grads, rng, coords: int = 6, eps: float = 1e-6) -> list[str]:
    """Analytic gradients against central differences of loss().

    params are the arrays loss() reads; they are perturbed in place and
    restored. coords coordinates are drawn from each array.
    """
    errs = []
    for k, (arr, g) in enumerate(zip(params, grads)):
        flat = np.asarray(g).reshape(-1)
        picks = rng.choice(arr.size, size=min(coords, arr.size), replace=False)
        for i in picks:
            orig = arr.flat[i]
            arr.flat[i] = orig + eps
            hi = loss()
            arr.flat[i] = orig - eps
            lo = loss()
            arr.flat[i] = orig
            fd = (hi - lo) / (2.0 * eps)
            if abs(fd - flat[i]) > 1e-7 + 1e-4 * max(abs(fd), abs(flat[i])):
                errs.append(f"array {k} coord {i}: analytic {flat[i]:.8g}, central {fd:.8g}")
    return errs


# -- grid oracle ----------------------------------------------------------------

GRID_MOVES = ((-1, 0), (1, 0), (0, -1), (0, 1))


def safe_path_costs(size: int, hazards: set, goal: tuple, cell_cost: dict) -> dict:
    """Cheapest hazard-free path cost from each cell to the goal.

    Leaving a cell costs cell_cost[cell]; hazard cells are never
    entered. Cells with no safe path are absent.
    """
    dist = {goal: 0.0}
    heap = [(0.0, goal)]
    while heap:
        d, cell = heapq.heappop(heap)
        if d > dist[cell]:
            continue
        for dr, dc in GRID_MOVES:
            nb = (cell[0] + dr, cell[1] + dc)
            if not (0 <= nb[0] < size and 0 <= nb[1] < size) or nb in hazards:
                continue
            nd = d + cell_cost[nb]
            if nd < dist.get(nb, math.inf):
                dist[nb] = nd
                heapq.heappush(heap, (nd, nb))
    return dist


def grid_tables(size: int, hazards: set, goal: tuple, cell_cost: dict):
    """(next_state, cost, avoid, g) of the layout, state id r * size + c."""
    n = size * size
    nxt = np.zeros((n, 4), dtype=np.int64)
    cost = np.zeros((n, 4))
    avoid = np.zeros(n, dtype=bool)
    g = np.zeros(n)
    for r in range(size):
        for c in range(size):
            s = r * size + c
            for a, (dr, dc) in enumerate(GRID_MOVES):
                nr, nc = r + dr, c + dc
                inside = 0 <= nr < size and 0 <= nc < size
                nxt[s, a] = nr * size + nc if inside else s
                cost[s, a] = cell_cost[(r, c)]
            avoid[s] = (r, c) in hazards
            g[s] = -300.0 if (r, c) == goal else abs(r - goal[0]) + abs(c - goal[1])
    return nxt, cost, avoid, g


def check_grid_mdp(mdp, size, hazards, goal, cell_cost) -> list[str]:
    nxt, cost, avoid, g = grid_tables(size, hazards, goal, cell_cost)
    same = (
        np.array_equal(mdp.next_state, nxt)
        and np.array_equal(mdp.cost, cost)
        and np.array_equal(mdp.avoid_mask, avoid)
        and np.array_equal(mdp.g_values, g)
    )
    return [] if same else ["grid MDP tables differ from the layout"]


def backup_residual(values, size, hazards, goal, cell_cost, z_grid, big_c) -> float:
    """Largest change one undiscounted reach backup makes to values (S, 2, Z).

    The augmented successor is built here from the layout: the flag
    latches on entering a hazard and the budget drops by the step cost,
    snapped down to the grid (below the lowest node stays at it).
    """
    nxt, cost, avoid, g = grid_tables(size, hazards, goal, cell_cost)
    z_grid = np.asarray(z_grid, dtype=np.float64)
    ys = np.array([-1.0, 1.0])
    ghat = np.maximum(g[:, None, None], np.maximum(big_c * ys[None, :, None], -z_grid[None, None, :]))
    best = np.full(values.shape, np.inf)
    for a in range(4):
        s2 = nxt[:, a]
        z2 = z_grid[None, :] - cost[:, a][:, None]  # (S, Z)
        z2i = np.clip(np.searchsorted(z_grid, z2, side="right") - 1, 0, len(z_grid) - 1)
        for yi in range(2):
            y2i = np.maximum(yi, avoid[s2].astype(int))
            v2 = values[s2[:, None], y2i[:, None], z2i]
            best[:, yi, :] = np.minimum(best[:, yi, :], np.minimum(ghat[:, yi, :], v2))
    new = np.where(ghat <= 0.0, ghat, best)
    return float(np.max(np.abs(new - values)))


def check_grid_budgets(size, hazards, goal, cell_cost, z_stars: dict, delta: float) -> list[str]:
    """Bisected budgets against shortest safe paths.

    z_stars maps state id to the bisected budget, or None where
    Infeasible was raised; every state of the grid must be present.
    """
    dist = safe_path_costs(size, hazards, goal, cell_cost)
    errs = []
    for s in range(size * size):
        cell = (s // size, s % size)
        z = z_stars[s]
        if cell in hazards or cell not in dist:
            if z is not None:
                errs.append(f"cell {cell} has no safe path but bisected to {z}")
        elif z is None:
            errs.append(f"cell {cell} flagged infeasible, safe path costs {dist[cell]}")
        elif abs(z - dist[cell]) > delta + 1e-6:
            errs.append(f"cell {cell}: budget {z} vs safe path cost {dist[cell]}")
    return errs


# -- two-start bandit -----------------------------------------------------------


def bandit_arms(mdp):
    """Per start: (weight, [(reach, reward, cost) for action 0, 1])."""
    arms = []
    for s, w in zip(mdp.initial_states, mdp.initial_probs):
        arms.append((float(w), [
            (float(mdp.goal_mask[mdp.next_state[s, a]]), float(mdp.reward[s, a]), float(mdp.cost[s, a]))
            for a in range(2)
        ]))
    return arms


def bandit_stats(arms, probs) -> tuple[float, float, float]:
    """(reach, reward, cost) of taking action 0 with probs[i] at start i."""
    out = [0.0, 0.0, 0.0]
    for (w, pair), p in zip(arms, probs):
        for k in range(3):
            out[k] += w * (p * pair[0][k] + (1.0 - p) * pair[1][k])
    return out[0], out[1], out[2]


def bandit_optimum(arms, mode: str, parameter: float | None) -> float:
    """Optimal objective in closed form.

    reach_min_cost: the least expected cost with reach probability one,
    each start on its cheapest reaching arm. scalarized: the largest
    expected reward - parameter * cost, each start on its best arm.
    thresholded: the largest expected reward with cost <= parameter, a
    fractional knapsack: start every state on its cheapest arm, then buy
    upgrades in order of reward gained per unit of cost.
    """
    if mode == "reach_min_cost":
        return sum(w * min(c for reach, _, c in pair if reach == 1.0) for w, pair in arms)
    if mode == "scalarized":
        return sum(w * max(r - parameter * c for _, r, c in pair) for w, pair in arms)
    budget = parameter
    reward = 0.0
    upgrades = []
    for w, pair in arms:
        lo, hi = sorted(pair, key=lambda arm: (arm[2], -arm[1]))
        reward += w * lo[1]
        budget -= w * lo[2]
        d_reward, d_cost = w * (hi[1] - lo[1]), w * (hi[2] - lo[2])
        if d_reward > 0.0:
            upgrades.append((d_reward, d_cost))
    if budget < -1e-12:
        raise ValueError("no policy meets the cost cap")
    for d_reward, d_cost in sorted(upgrades, key=lambda u: -u[0] / u[1] if u[1] > 0 else -math.inf):
        take = 1.0 if d_cost <= budget else budget / d_cost
        reward += take * d_reward
        budget -= take * d_cost
        if budget <= 0.0:
            break
    return reward


def _objective(stats, mode, parameter) -> float:
    reach, reward, cost = stats
    if mode == "reach_min_cost":
        return cost
    if mode == "scalarized":
        return reward - parameter * cost
    return reward


def check_bandit(arms, sol: dict) -> list[str]:
    """A solver result against the closed-form optimum from the tables."""
    mode, parameter = sol["mode"], sol["parameter"]
    best = bandit_optimum(arms, mode, parameter)
    errs = []
    for tag, res, slack in (("analytic", sol, 1e-9), ("enumerated", sol["enumerated"], 0.05)):
        stats = bandit_stats(arms, (res["p_a"], res["p_b"]))
        reported = (res["reach_prob"], res["expected_reward"], res["expected_cost"])
        if max(abs(a - b) for a, b in zip(stats, reported)) > 1e-9:
            errs.append(f"{mode}({parameter}) {tag}: stats {reported} != tables {stats}")
        value = _objective(stats, mode, parameter)
        gap = (value - best) if mode == "reach_min_cost" else (best - value)
        if not -1e-9 <= gap <= slack:
            errs.append(f"{mode}({parameter}) {tag}: objective {value:.6g}, optimum {best:.6g}")
        if mode == "reach_min_cost" and stats[0] < 1.0 - 1e-12:
            errs.append(f"{mode} {tag}: reach probability {stats[0]} < 1")
        if mode == "thresholded" and stats[2] > parameter + 1e-9:
            errs.append(f"{mode}({parameter}) {tag}: cost {stats[2]} over the cap")
    return errs
