"""Reward-scalarization baseline and the two-state analytic testbed.

The baseline trains a standard clipped-surrogate policy on a weighted
reward that folds goal bonus, failure penalty, and step cost into one
scalar. It sees the raw state only (no budget input) and each weight
setting carves out a single point on the reach/cost trade-off, which
is what the budget-conditioned trainer avoids.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import BLAS_THREAD_VARS
from .augment import start_flag
from .envkit.base import ReachAvoidProblem
from .envkit.tabular import TabularMDP
from .rcppo import TrainResult, _collect, _init_nets, _train_loop


@dataclass
class LagrangianRewardConfig:
    """Weights of the scalarized reward.

    reward = r_goal * 1[x' in goal] - p_goal * 1[x' not in goal]
             - beta * (c_fail * 1[x' in avoid] + step_cost)
    plus, when shaping is enabled, the potential difference
    gamma * phi(x') - phi(x) with phi = -shaping_k * goal_distance.
    """

    beta: float = 1.0
    c_fail: float = 20.0
    r_goal: float = 20.0
    p_goal: float = 0.0
    shaping_enabled: bool = False
    shaping_k: float = 1.0
    gamma: float = 0.99

    def __post_init__(self) -> None:
        if self.beta < 0:
            raise ValueError("beta must be nonnegative")
        if self.shaping_k < 0:
            raise ValueError("shaping_k must be nonnegative")


def potential_phi(problem: ReachAvoidProblem, x: np.ndarray, cfg: LagrangianRewardConfig) -> np.ndarray:
    """Shaping potential, identically zero when shaping is off."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    if not cfg.shaping_enabled:
        out = np.zeros(1 if single else x.shape[0])
        return float(out[0]) if single else out
    return -cfg.shaping_k * problem.goal_distance(x)


def lagrangian_reward(
    problem: ReachAvoidProblem,
    x: np.ndarray,
    x_next: np.ndarray,
    cost: np.ndarray | float,
    cfg: LagrangianRewardConfig,
) -> np.ndarray | float:
    """Scalarized per-step reward for the given transition."""
    in_g = np.asarray(problem.in_goal(x_next))
    in_f = np.asarray(problem.in_avoid(x_next))
    r = (
        cfg.r_goal * in_g.astype(np.float64)
        - cfg.p_goal * (~in_g).astype(np.float64)
        - cfg.beta * (cfg.c_fail * in_f.astype(np.float64) + np.asarray(cost, dtype=np.float64))
    )
    if cfg.shaping_enabled:
        r = r + cfg.gamma * potential_phi(problem, x_next, cfg) - potential_phi(problem, x, cfg)
    if np.ndim(r) == 0 or (hasattr(r, "shape") and r.shape == ()):
        return float(r)
    return r


@dataclass
class BaselineConfig:
    """Knobs for the scalarized-reward trainer."""

    reward: LagrangianRewardConfig = field(default_factory=LagrangianRewardConfig)
    total_steps: int = 200_000
    n_envs: int = 16
    epochs: int = 10
    minibatch_size: int = 256
    lr: float = 3e-4
    clip_eps: float = 0.2
    entropy_coef: float = 1e-2
    gamma: float = 0.99
    lam: float = 0.95
    hidden: tuple[int, ...] = (256, 256)
    init_log_std: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.clip_eps < 1.0:
            raise ValueError("clip_eps must be in (0, 1)")
        # shaping leaves the optimal policy alone only at the training discount
        if self.reward.shaping_enabled and self.reward.gamma != self.gamma:
            raise ValueError(
                f"shaping discount reward.gamma={self.reward.gamma} must equal gamma={self.gamma}"
            )


def _reward_gae(
    rewards: np.ndarray,
    values: np.ndarray,
    tail_value: float,
    gamma: float,
    lam: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Standard residual-based advantage estimate and value targets."""
    t_len = len(rewards)
    v_next = np.concatenate([values[1:], [tail_value]])
    deltas = rewards + gamma * v_next - values
    adv = np.empty(t_len)
    acc = 0.0
    for t in range(t_len - 1, -1, -1):
        acc = deltas[t] + gamma * lam * acc
        adv[t] = acc
    return adv, adv + values


def train_ppo_baseline(problem: ReachAvoidProblem, cfg: BaselineConfig) -> TrainResult:
    """Clipped-surrogate training on the scalarized reward.

    Episodes run on the raw state and end on raw goal entry or at
    horizon_max; safety violations only cost reward. Logging schema
    matches the budget-conditioned trainer so curves are comparable:
    mean_cost_reached is always the raw step-cost sum, never the
    scalarized reward. Deterministic given cfg.seed.
    """
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    scale = problem.obs_scale
    rcfg = cfg.reward
    policy, value_params, pol_adam, val_adam = _init_nets(problem, problem.state_dim, cfg, rng)
    # keeps the regression target O(1) at the largest per-step rewards
    val_scale = max(
        1.0, rcfg.r_goal, rcfg.p_goal,
        rcfg.beta * (rcfg.c_fail + problem.max_step_cost()),
    )

    meta = {
        "algorithm": "ppo_lagrangian",
        "env": problem.name,
        "obs_scale": [float(v) for v in scale],
        "gamma": cfg.gamma,
        "hidden": list(cfg.hidden),
        "seed": cfg.seed,
        "value_scale": val_scale,
        "reward": {
            "beta": rcfg.beta, "c_fail": rcfg.c_fail, "r_goal": rcfg.r_goal,
            "p_goal": rcfg.p_goal, "shaping_enabled": rcfg.shaping_enabled,
            "shaping_k": rcfg.shaping_k,
        },
    }

    def rewards(run):
        # each lane's transitions: every state row but its last, to every
        # state row but its first; a lane that reached the goal closes at 0
        x, x_next = (np.delete(run.x, rows, axis=0) for rows in (run.last, run.last - run.sizes))
        return lagrangian_reward(problem, x, x_next, run.costs, rcfg), np.zeros(cfg.n_envs)

    def collect():
        x0 = np.atleast_2d(problem.sample_initial(rng, cfg.n_envs))
        return _collect(
            problem, policy, value_params, val_scale,
            (x0, start_flag(problem, x0), np.full(cfg.n_envs, np.inf)),
            lambda x, y, z: x / scale, lambda x, y, z: problem.in_goal(x), rewards, rng,
        )

    log_rows = _train_loop(
        cfg, rng, collect, lambda rew, v, tail: _reward_gae(rew, v, tail, cfg.gamma, cfg.lam),
        value_params, val_adam, val_scale, policy=(policy, pol_adam),
    )
    return TrainResult(policy=policy, value=value_params, log_rows=log_rows, meta=meta)


# -- weight sweep ----------------------------------------------------------------


def _grid_cell(args: tuple) -> dict:
    problem, base_cfg, r_goal, p_goal, beta, seed, n_eval, eval_seed = args
    from .rcppo import evaluate_policy  # local import keeps workers lean

    row = {"r_goal": r_goal, "p_goal": p_goal, "beta": beta, "seed": seed}
    try:
        reward = replace(
            base_cfg.reward, beta=beta, r_goal=r_goal, p_goal=p_goal, gamma=base_cfg.gamma
        )
        cfg = replace(base_cfg, reward=reward, seed=seed)
        result = train_ppo_baseline(problem, cfg)
        report = evaluate_policy(problem, result.policy, result.meta, None, n_eval, eval_seed)
        row["reach_rate"] = report["reach_rate"]
        row["mean_cost"] = report["mean_cost_reached"]
        row["error"] = ""
    except Exception as exc:  # a failed cell must not sink the sweep
        row["reach_rate"] = math.nan
        row["mean_cost"] = math.nan
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


def pareto_front(rows: list[dict]) -> list[bool]:
    """True where no other cell has reach >= and cost <= with one strict.

    Cells without a cost estimate (never reached) count as infinitely
    expensive, so they sit on the front only if nothing reaches at all.
    """
    def key(r):
        reach = r["reach_rate"]
        cost = r["mean_cost"]
        reach = -math.inf if reach is None or math.isnan(reach) else reach
        cost = math.inf if cost is None or (isinstance(cost, float) and math.isnan(cost)) else cost
        return reach, cost

    marks = []
    for i, row in enumerate(rows):
        ri, ci = key(row)
        dominated = False
        for j, other in enumerate(rows):
            if i == j:
                continue
            rj, cj = key(other)
            if rj >= ri and cj <= ci and (rj > ri or cj < ci):
                dominated = True
                break
        marks.append(not dominated)
    return marks


def grid_search(
    problem: ReachAvoidProblem,
    base_cfg: BaselineConfig,
    r_goal_values: list[float],
    p_goal_values: list[float],
    beta_values: list[float],
    n_eval_episodes: int = 50,
    seed: int = 0,
    n_workers: int = 1,
) -> list[dict]:
    """Train one baseline per weight combination and mark the front.

    Every cell gets an independent seed stream spawned from the root
    seed, so the sweep is reproducible regardless of worker count or
    completion order. A crashed cell is recorded with its error string
    instead of aborting the sweep.
    """
    ss = np.random.SeedSequence(seed)
    cells = [
        (r, p, b)
        for r in r_goal_values
        for p in p_goal_values
        for b in beta_values
    ]
    children = ss.spawn(len(cells) + 1)
    eval_seed = int(children[-1].generate_state(1)[0] % (2**31))
    jobs = [
        (
            problem, base_cfg, r, p, b,
            int(children[i].generate_state(1)[0] % (2**31)),
            n_eval_episodes, eval_seed,
        )
        for i, (r, p, b) in enumerate(cells)
    ]
    if n_workers <= 1:
        rows = [_grid_cell(job) for job in jobs]
    else:
        import multiprocessing as mp

        for var in BLAS_THREAD_VARS:
            os.environ.setdefault(var, "1")
        ctx = mp.get_context("spawn")
        with ctx.Pool(n_workers) as pool:
            rows = pool.map(_grid_cell, jobs)
    for row, mark in zip(rows, pareto_front(rows)):
        row["on_front"] = mark
    return rows


def write_grid_csv(path: str, rows: list[dict]) -> None:
    import csv

    cols = ["r_goal", "p_goal", "beta", "reach_rate", "mean_cost", "on_front", "error"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(cols)
        for row in rows:
            writer.writerow([
                repr(row[c]) if isinstance(row[c], float) else row[c] for c in cols
            ])


# -- two-state analytic testbed ---------------------------------------------------


def _policy_stats(mdp: TabularMDP, probs: np.ndarray) -> tuple[float, float, float]:
    """(reach_prob, expected_reward, expected_cost) for first-action
    probabilities probs[i] of taking action 0 at initial state i."""
    reach = reward = cost = 0.0
    goal = mdp.goal_mask
    for i, s in enumerate(mdp.initial_states):
        w = mdp.initial_probs[i]
        p = probs[i]
        pi = np.array([p, 1.0 - p])
        reach += w * float(pi @ goal[mdp.next_state[s]])
        reward += w * float(pi @ mdp.reward[s])
        cost += w * float(pi @ mdp.cost[s])
    return reach, reward, cost


_ENUM_ROWS = 64


def _enumerate_best(mdp: TabularMDP, objective, step: float = 1e-3) -> tuple[np.ndarray, float]:
    """Exhaustive grid search over the two first-action probabilities.

    Among grid points within 1e-9 of the best score, the largest
    probabilities win, matching the analytic tie convention (ties
    resolve toward probability one). The objective gets p_a as a column
    and p_b as a row and broadcasts them; it fills the score grid
    _ENUM_ROWS rows at a time, so its temporaries stay a block in size.
    """
    grid = np.arange(0.0, 1.0 + step / 2, step)
    scores = np.empty((grid.size, grid.size))
    for lo in range(0, grid.size, _ENUM_ROWS):
        scores[lo : lo + _ENUM_ROWS] = objective(grid[lo : lo + _ENUM_ROWS, None], grid[None, :])
    best = float(np.max(scores))
    tied = scores >= best - 1e-9
    # lexicographically largest tied (i, j): last tied row, last tie in it
    i = np.flatnonzero(tied.any(axis=1))[-1]
    j = np.flatnonzero(tied[i])[-1]
    return np.array([grid[i], grid[j]]), float(scores[i, j])


def two_start_bandit_solvers(mdp: TabularMDP, mode: str, parameter: float | None = None) -> dict:
    """Optimal stochastic first-step policies of the two-state testbed.

    The testbed has two equally likely initial states, two actions
    each, and all randomness confined to the first step, so any policy
    reduces to the pair (p_a, p_b) of probabilities of action 0. Modes:

      - "reach_min_cost": minimize expected cost among policies that
        reach the goal with probability one.
      - "scalarized": maximize reward - parameter * cost; ties between
        the endpoints resolve toward probability one.
      - "thresholded": maximize reward subject to cost <= parameter.

    All three read their coefficients off the tables, solve the tiny
    linear program analytically, and cross-check against a dense grid
    enumeration included in the result.
    """
    if len(mdp.initial_states) != 2 or mdp.n_actions != 2:
        raise ValueError("solver expects two initial states and two actions")
    goal = mdp.goal_mask
    w = mdp.initial_probs
    # per-state linear pieces: f(p) = p * arm0 + (1 - p) * arm1
    reach_arms = np.array([goal[mdp.next_state[s]] for s in mdp.initial_states], dtype=np.float64)
    reward_arms = np.array([mdp.reward[s] for s in mdp.initial_states], dtype=np.float64)
    cost_arms = np.array([mdp.cost[s] for s in mdp.initial_states], dtype=np.float64)

    def expected(arms, p_a, p_b):
        out = 0.0
        for i, p in enumerate((p_a, p_b)):
            out = out + w[i] * (p * arms[i, 0] + (1 - p) * arms[i, 1])
        return out

    if mode == "reach_min_cost":
        # force every state onto reaching arms, then take the cheaper arm
        probs = np.empty(2)
        for i in range(2):
            reaching = np.flatnonzero(reach_arms[i] > 0.5)
            if len(reaching) == 0:
                raise ValueError("a state cannot reach the goal at all")
            if len(reaching) == 2:
                probs[i] = 1.0 if cost_arms[i, 0] <= cost_arms[i, 1] else 0.0
            else:
                probs[i] = 1.0 if reaching[0] == 0 else 0.0

        def objective(p_a, p_b):
            reach = expected(reach_arms, p_a, p_b)
            return -expected(cost_arms, p_a, p_b) - 1e6 * (reach < 1.0 - 1e-12)

    elif mode == "scalarized":
        if parameter is None:
            raise ValueError("scalarized mode needs the weight parameter")
        probs = np.empty(2)
        for i in range(2):
            score0 = reward_arms[i, 0] - parameter * cost_arms[i, 0]
            score1 = reward_arms[i, 1] - parameter * cost_arms[i, 1]
            probs[i] = 1.0 if score0 >= score1 else 0.0

        def objective(p_a, p_b):
            return expected(reward_arms, p_a, p_b) - parameter * expected(cost_arms, p_a, p_b)

    elif mode == "thresholded":
        if parameter is None:
            raise ValueError("thresholded mode needs the cost bound parameter")
        # objective and constraint are linear, so optimum sits at a box
        # corner or on the constraint boundary along one edge
        candidates = [(a, b) for a in (0.0, 1.0) for b in (0.0, 1.0)]
        for i in range(2):
            for fixed in (0.0, 1.0):
                # solve cost(p) == parameter for the free coordinate
                other = 1 - i
                c_fixed = w[other] * (
                    fixed * cost_arms[other, 0] + (1 - fixed) * cost_arms[other, 1]
                )
                slope = w[i] * (cost_arms[i, 0] - cost_arms[i, 1])
                base = w[i] * cost_arms[i, 1] + c_fixed
                if abs(slope) > 1e-12:
                    p = (parameter - base) / slope
                    if 0.0 <= p <= 1.0:
                        pair = [0.0, 0.0]
                        pair[i] = p
                        pair[other] = fixed
                        candidates.append(tuple(pair))
        best, best_reward = None, -math.inf
        for a, b in candidates:
            reward, cost = expected(reward_arms, a, b), expected(cost_arms, a, b)
            if cost <= parameter + 1e-9 and reward > best_reward + 1e-12:
                best, best_reward = (a, b), reward
        if best is None:
            raise ValueError(f"no policy satisfies cost <= {parameter}")
        probs = np.array(best)

        def objective(p_a, p_b):
            cost = expected(cost_arms, p_a, p_b)
            return expected(reward_arms, p_a, p_b) - 1e6 * (cost > parameter + 1e-9)

    else:
        raise ValueError(f"unknown mode {mode!r}")

    reach, reward, cost = _policy_stats(mdp, probs)
    enum_probs, _ = _enumerate_best(mdp, objective)
    e_reach, e_reward, e_cost = _policy_stats(mdp, enum_probs)
    return {
        "mode": mode,
        "parameter": parameter,
        "p_a": float(probs[0]),
        "p_b": float(probs[1]),
        "reach_prob": reach,
        "expected_reward": reward,
        "expected_cost": cost,
        "enumerated": {
            "p_a": float(enum_probs[0]),
            "p_b": float(enum_probs[1]),
            "reach_prob": e_reach,
            "expected_reward": e_reward,
            "expected_cost": e_cost,
        },
    }

