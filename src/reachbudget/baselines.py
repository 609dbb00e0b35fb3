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
    """Shaping potential; lagrangian_reward uses it only with shaping on."""
    return -cfg.shaping_k * problem.goal_distance(x)


def lagrangian_reward(
    problem: ReachAvoidProblem,
    x: np.ndarray,
    x_next: np.ndarray,
    cost: np.ndarray | float,
    cfg: LagrangianRewardConfig,
) -> np.ndarray:
    """Scalarized per-step reward for the given transitions."""
    in_g, in_f = problem.in_goal(x_next), problem.in_avoid(x_next)
    r = (
        cfg.r_goal * in_g.astype(np.float64)
        - cfg.p_goal * (~in_g).astype(np.float64)
        - cfg.beta * (cfg.c_fail * in_f.astype(np.float64) + cost)
    )
    if cfg.shaping_enabled:
        r = r + cfg.gamma * potential_phi(problem, x_next, cfg) - potential_phi(problem, x, cfg)
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
        x0 = problem.sample_initial(rng, cfg.n_envs)
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


_ENUM_ROWS = 64


def _enumerate_best(objective, step: float = 1e-3) -> tuple[np.ndarray, float]:
    """Exhaustive grid search over the two first-action probabilities.

    The cross-check of the vertex search. Among grid points within 1e-9
    of the best score, the lexicographically largest (p_a, p_b) wins,
    the vertex search's tie rule. objective(p_a, p_b) gets p_a as a
    column and p_b as a row and scores the whole grid they broadcast to;
    objective(p_a, p_b, out) instead returns score(rows), which scores
    those rows of that grid into the head of out and returns them. The
    search scores _ENUM_ROWS rows at a time into one buffer and keeps
    only each row's maximum, then scores again the one block that holds
    the last row within 1e-9 of the best to find the tie in that row.
    """
    grid = np.arange(0.0, 1.0 + step / 2, step)
    score = objective(grid[:, None], grid[None, :], np.empty((min(_ENUM_ROWS, grid.size), grid.size)))
    blocks = [slice(lo, lo + _ENUM_ROWS) for lo in range(0, grid.size, _ENUM_ROWS)]
    row_max = np.empty(grid.size)
    for rows in blocks:
        np.max(score(rows), axis=1, out=row_max[rows])
    best = float(np.max(row_max))
    # lexicographically largest tied (i, j): last tied row, last tie in it
    i = np.flatnonzero(row_max >= best - 1e-9)[-1]
    row = score(blocks[i // _ENUM_ROWS])[i % _ENUM_ROWS]
    j = np.flatnonzero(row >= best - 1e-9)[-1]
    return np.array([grid[i], grid[j]]), float(row[j])


def two_start_bandit_solvers(mdp: TabularMDP, mode: str, parameter: float | None = None) -> dict:
    """Optimal stochastic first-step policies of the two-state testbed.

    The testbed has two equally likely initial states, two actions
    each, and all randomness confined to the first step, so any policy
    reduces to the pair (p_a, p_b) of probabilities of action 0. Modes:

      - "reach_min_cost": minimize expected cost among policies that
        reach the goal with probability one.
      - "scalarized": maximize reward - parameter * cost.
      - "thresholded": maximize reward subject to cost <= parameter.

    Each mode is a linear gain over the unit box with at most one linear
    constraint, so an optimum sits at a vertex: a box corner or a point
    where the constraint's boundary crosses a box edge. The search keeps
    the feasible candidates and takes the largest gain, compared
    exactly; among equal gains the lexicographically largest (p_a, p_b)
    wins. A dense grid enumeration of the same objective is included in
    the result as a cross-check.
    """
    if len(mdp.initial_states) != 2 or mdp.n_actions != 2:
        raise ValueError("solver expects two initial states and two actions")
    if mode not in ("reach_min_cost", "scalarized", "thresholded"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode != "reach_min_cost" and (parameter is None or not math.isfinite(parameter)):
        raise ValueError(f"{mode} mode needs a finite parameter, got {parameter!r}")
    w = mdp.initial_probs
    starts = mdp.initial_states
    # per-start arm tables: f(p) = (p, 1 - p) @ (arm0, arm1)
    reach = mdp.goal_mask[mdp.next_state[starts]].astype(np.float64)
    reward = mdp.reward[starts].astype(np.float64)
    cost = mdp.cost[starts].astype(np.float64)

    def terms(table, p_a, p_b):
        # each start's share of the expectation, start A's at p_a and
        # start B's at p_b; A's leads with 0.0 + as the sum always has
        share = [w[i] * (np.stack([p, 1 - p], axis=-1) @ table[i]) for i, p in enumerate((p_a, p_b))]
        return 0.0 + share[0], share[1]

    def expected(table, p_a, p_b):
        a, b = terms(table, p_a, p_b)
        return a + b

    # the gain to maximize and at most one constraint, expected(table) <=
    # cap + slack; reach >= 1 is written -reach <= -1
    if mode == "reach_min_cost":
        gain, limit = -cost, (-reach, -1.0, 1e-12)
    elif mode == "scalarized":
        gain, limit = reward - parameter * cost, None
    else:
        gain, limit = reward, (cost, parameter, 1e-9)

    def infeasible(p_a, p_b):
        if limit is None:
            return False
        table, cap, slack = limit
        return expected(table, p_a, p_b) > cap + slack

    def objective(p_a, p_b, out=None):
        # the gain, less 1e6 where the constraint fails, at p_a (a column)
        # by p_b (a row); each start's terms are formed once per call, and
        # given out, rows of the grid are scored into it on demand
        gain_a, gain_b = terms(gain, p_a, p_b)
        whole = out is None
        if whole:
            out = np.empty((len(gain_a), gain_b.shape[-1]))
        if limit is not None:
            table, cap, slack = limit
            limit_a, limit_b = terms(table, p_a, p_b)
            spare, failed = np.empty_like(out), np.empty(out.shape, dtype=bool)

        def outer_sum(into, a, b, rows):
            # B's term broadcast down the rows, then A's added in place:
            # the same sum, as addition commutes
            block = into[: len(a[rows])]
            np.copyto(block, b)
            block += a[rows]
            return block

        def score(rows):
            block = outer_sum(out, gain_a, gain_b, rows)
            if limit is not None:
                over = np.greater(outer_sum(spare, limit_a, limit_b, rows), cap + slack,
                                  out=failed[: len(block)])
                # bitwise block - 1e6 * over, as the zeros subtract exactly
                np.subtract(block, 1e6, out=block, where=over)
            return block

        return score(slice(None)) if whole else score

    candidates = [(a, b) for a in (0.0, 1.0) for b in (0.0, 1.0)]
    if limit is not None:
        table, cap, _ = limit
        for i in range(2):
            other = 1 - i
            for fixed in (0.0, 1.0):
                # solve expected(table) == cap for the free coordinate
                c_fixed = w[other] * (fixed * table[other, 0] + (1 - fixed) * table[other, 1])
                slope = w[i] * (table[i, 0] - table[i, 1])
                base = w[i] * table[i, 1] + c_fixed
                if abs(slope) > 1e-12:
                    p = (cap - base) / slope
                    if 0.0 <= p <= 1.0:
                        candidates.append((p, fixed) if i == 0 else (fixed, p))
    feasible = [c for c in candidates if not infeasible(*c)]
    if not feasible:
        raise ValueError(f"no policy meets the {mode} constraint at parameter {parameter!r}")
    best = max(feasible, key=lambda c: (expected(gain, *c), c))
    enum_best, _ = _enumerate_best(objective)

    def stats(p_a, p_b):
        return {
            "p_a": float(p_a),
            "p_b": float(p_b),
            "reach_prob": expected(reach, p_a, p_b),
            "expected_reward": expected(reward, p_a, p_b),
            "expected_cost": expected(cost, p_a, p_b),
        }

    return {"mode": mode, "parameter": parameter, **stats(*best), "enumerated": stats(*enum_best)}
