"""Two-phase budget-conditioned policy optimization.

Phase 1 trains a stochastic policy and a reach value on the augmented
state (x, y, z), drawing a fresh budget z0 uniformly per episode so the
policy learns the whole trade-off family at once. The surrogate is the
standard clipped importance-ratio loss over phi-fold advantages; since
a LOWER reach value is better, the advantages enter the loss negated.

Phase 2 freezes the policy at its mode and fine-tunes the value alone
under a discount close enough to 1 that the value's sign is trusted
(see reachval.discount_sign_bound). The cheapest feasible budget at a
state is then the z-root of that value, found by bisection, and can be
distilled into a small regressor for deployment.
"""

from __future__ import annotations

import contextlib
import math
import numbers
import os
import warnings
from dataclasses import dataclass

import numpy as np

from . import BLAS_THREAD_VARS, approx
from .augment import (
    AugmentedGoalParams,
    augmented_goal,
    augmented_step,
    estimate_big_c,
    start_flag,
)
from .envkit.base import ReachAvoidProblem, _as_batch
from .reachval import _gae_arrays, discount_sign_bound


# A phase-1 or baseline minibatch takes its policy and value steps on two
# threads only when BLAS runs one thread per call: with more, the two
# nets' matmuls oversubscribe the cores and run slower than in turn.
TWO_THREAD_UPDATES = all(os.environ.get(v) == "1" for v in BLAS_THREAD_VARS)


class Infeasible(RuntimeError):
    """No budget in the searched range makes the state feasible."""


class NonMonotoneWarning(UserWarning):
    """The learned value's sign was not monotone along the z sweep."""


@dataclass
class Phase1Config:
    """Knobs for the stochastic training phase."""

    total_steps: int = 200_000
    n_envs: int = 16
    epochs: int = 10
    minibatch_size: int = 256
    lr: float = 3e-4
    clip_eps: float = 0.2
    entropy_coef: float = 1e-2  # decays linearly to 0 over total_steps
    gamma: float = 0.99
    lam: float = 0.95
    gae_mode: str = "renormalized"
    z_min: float = -1.0
    z_max: float | None = None  # horizon_max * max_step_cost when None
    big_c: float | None = None  # estimated by sampling when None
    hidden: tuple[int, ...] = (256, 256)
    init_log_std: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.z_max is not None and not self.z_min < self.z_max:
            raise ValueError("need z_min < z_max")
        if not 0.0 < self.clip_eps < 1.0:
            raise ValueError("clip_eps must be in (0, 1)")


@dataclass
class Phase2Config:
    """Knobs for the deterministic value fine-tune."""

    total_steps: int = 200_000
    n_envs: int = 16
    epochs: int = 10
    minibatch_size: int = 256
    lr: float = 3e-4
    gamma: float | None = None  # None: just above the sign-trust bound
    gamma_eps_gap: float = 1.0
    lam: float = 0.95
    gae_mode: str = "renormalized"
    seed: int = 1


@dataclass
class EpisodeRecord:
    """One lane of a phase-1 or phase-2 RolloutBatch (see its episodes)."""

    obs: np.ndarray  # (T, obs_dim) network inputs at visited states
    actions_raw: np.ndarray  # (T, action_dim) pre-clamp draws
    log_probs: np.ndarray  # (T,)
    ghat: np.ndarray  # (T,) augmented goal margins at visited states
    values: np.ndarray  # (T,) raw-unit value predictions
    costs: np.ndarray  # (T,)
    z0: float
    reached: bool  # ended inside the augmented goal (vs truncated)
    tail_value: float  # closes the fold (see _collect)


@dataclass
class RolloutBatch:
    """Finished lanes as flat step arrays, in lane order (see _Lanes).

    signal is what the trainer folds: the augmented goal margins at the
    visited states (phases 1 and 2) or the scalarized reward (baseline).
    """

    obs: np.ndarray  # (T, obs_dim) network inputs at visited states
    actions_raw: np.ndarray  # (T, action_dim) pre-clamp draws
    log_probs: np.ndarray  # (T,)
    values: np.ndarray  # (T,) raw-unit value predictions
    signal: np.ndarray  # (T,)
    tails: np.ndarray  # (n,) values closing each lane's fold, see _collect
    z0: np.ndarray  # (n,) episode budgets
    lanes: _Lanes

    @property
    def total_steps(self) -> int:
        return len(self.lanes.costs)

    @property
    def reach_rate(self) -> float:
        return float(np.mean(self.lanes.reached)) if self.lanes.reached.size else math.nan

    @property
    def mean_cost_reached(self) -> float:
        run = self.lanes
        costs = [float(run.costs[s].sum()) for (s, _), r in zip(run.spans(), run.reached) if r]
        return float(np.mean(costs)) if costs else math.nan

    @property
    def episodes(self) -> list[EpisodeRecord]:
        """One EpisodeRecord per lane, built anew on every read."""
        run = self.lanes
        return [
            EpisodeRecord(
                self.obs[s], self.actions_raw[s], self.log_probs[s], self.signal[s],
                self.values[s], run.costs[s], float(self.z0[i]), bool(run.reached[i]),
                float(self.tails[i]),
            )
            for i, (s, _) in enumerate(run.spans())
        ]

    def fold(self, fold) -> tuple[np.ndarray, np.ndarray]:
        """(advantages, returns): fold(signal, values, tail) of each lane
        that took a step, on that lane's own rows, concatenated."""
        parts = [fold(self.signal[s], self.values[s], float(tail))
                 for (s, _), tail in zip(self.lanes.spans(), self.tails) if s.stop > s.start]
        return np.concatenate([a for a, _ in parts]), np.concatenate([r for _, r in parts])


@dataclass
class ZStarSolution:
    z_star: float
    v_at_zstar: float
    bracket: tuple[float, float]
    iterations: int
    monotone_violations: int = 0


@dataclass
class TrainResult:
    policy: approx.GaussianPolicyParams
    value: approx.MlpParams
    log_rows: list[dict]
    meta: dict


# -- observation building ------------------------------------------------------


def build_obs(
    x: np.ndarray,
    y: np.ndarray,
    z: np.ndarray,
    obs_scale: np.ndarray,
    z_min: float,
    z_max: float,
) -> np.ndarray:
    """Network input (x / scale, y, z normalized to [0, 1] and clipped to [-1, 1]).

    x is one state (d,) or rows (n, d); y and z are scalars or (n,).
    One state with n budgets gives n rows.
    """
    xb = np.atleast_2d(np.asarray(x, dtype=np.float64))
    z_norm = (np.asarray(z, dtype=np.float64) - z_min) / (z_max - z_min)
    obs = np.empty((max(xb.shape[0], z_norm.size), xb.shape[1] + 2))
    np.divide(xb, obs_scale, out=obs[:, :-2])
    obs[:, -2] = y
    obs[:, -1] = np.minimum(np.maximum(z_norm, -1.0), 1.0)
    return obs


# Rows per value forward. Larger blocks run no faster, and a forward of
# thousands of rows keeps several MB resident after it returns.
_FORWARD_ROWS = 256


def value_fn_from(
    value_params: approx.MlpParams, meta: dict
):
    """Wrap a value checkpoint as callable (x, y, z) -> raw-unit values.

    x is one state (d,) or rows (n, d), y and z scalars or (n,); the
    result has one value per observation row (see build_obs), from one
    forward per _FORWARD_ROWS rows. This is the value-function contract
    of bisect_z_star.
    """
    scale = np.asarray(meta["obs_scale"], dtype=np.float64)
    z_min, z_max, big_c = meta["z_min"], meta["z_max"], meta["big_c"]

    def fn(x, y, z) -> np.ndarray:
        obs = build_obs(x, y, z, scale, z_min, z_max)
        if obs.shape[0] <= _FORWARD_ROWS:
            return approx.mlp_forward(value_params, obs)[:, 0] * big_c
        v = np.empty(obs.shape[0])
        for s in range(0, obs.shape[0], _FORWARD_ROWS):
            block = slice(s, s + _FORWARD_ROWS)
            v[block] = approx.mlp_forward(value_params, obs[block])[:, 0]
        return v * big_c

    return fn


# -- the lane engine -------------------------------------------------------------


@dataclass
class _Lanes:
    """Lanes stepped together by _run_lanes, lane 0 first.

    Each lane's rows are contiguous and in time order. The state columns
    x, y and z hold every visited state, start row first, so a lane that
    took T steps has T + 1 state rows and T step rows.
    """

    sizes: np.ndarray  # (n,) steps each lane took
    x: np.ndarray  # (n + T, d)
    y: np.ndarray  # (n + T,)
    z: np.ndarray  # (n + T,)
    costs: np.ndarray  # (T,)
    records: list[np.ndarray]  # act's records, (T, ...) each; [] if T == 0
    reached: np.ndarray  # (n,) ended on done (vs horizon_max)

    @property
    def last(self) -> np.ndarray:
        """State row of each lane's final state."""
        return np.cumsum(self.sizes + 1) - 1

    def spans(self):
        """(step rows, state rows) slices of each lane, in lane order."""
        ends = np.cumsum(self.sizes)
        for i, (size, end) in enumerate(zip(self.sizes, ends)):
            yield slice(end - size, end), slice(end - size + i, end + i + 1)


def _run_lanes(problem: ReachAvoidProblem, x0, y0, z0, act, done) -> _Lanes:
    """Step every unfinished lane together until done or horizon_max.

    (x0, y0, z0) are the n lanes' augmented starts. Each time step calls
    act(x, y, z) -> (u, records) once on the rows of the unfinished
    lanes, where records is a tuple of arrays with one row per lane, then
    one augmented_step. A lane ends when done(x, y, z) holds for its
    arrival state; one whose start already satisfies it never steps.
    """
    x = np.array(x0, dtype=np.float64)
    y = np.array(y0, dtype=np.float64)
    z = np.array(z0, dtype=np.float64)
    n = x.shape[0]
    reached = np.asarray(done(x, y, z), dtype=bool)
    alive = ~reached
    lanes, xs, ys, zs = [np.arange(n)], [x.copy()], [y.copy()], [z.copy()]
    costs, records = [np.empty(0)], []
    for _ in range(problem.horizon_max):
        idx = np.flatnonzero(alive)
        if idx.size == 0:
            break
        u, rec = act(x[idx], y[idx], z[idx])
        x_next, y_next, z_next, c = augmented_step(problem, x[idx], y[idx], z[idx], u)
        x[idx], y[idx], z[idx] = x_next, y_next, z_next
        arrived = np.asarray(done(x_next, y_next, z_next), dtype=bool)
        reached[idx] = arrived
        alive[idx] = ~arrived
        for col, part in zip((lanes, xs, ys, zs, costs), (idx, x_next, y_next, z_next, c)):
            col.append(part)
        records.append(rec)

    lanes = np.concatenate(lanes)
    order = np.argsort(lanes, kind="stable")
    step_order = order[order >= n] - n
    return _Lanes(
        sizes=np.bincount(lanes, minlength=n) - 1,
        x=np.concatenate(xs)[order],
        y=np.concatenate(ys)[order],
        z=np.concatenate(zs)[order],
        costs=np.concatenate(costs)[step_order],
        records=[np.concatenate(col)[step_order] for col in zip(*records)],
        reached=reached,
    )


# -- rollout collection --------------------------------------------------------


def _collect(
    problem, policy, value_params, value_scale, starts, obs_of, done, signal_of, rng,
    deterministic=False,
) -> RolloutBatch:
    """Run lanes from starts = (x0, y0, z0) and record them for training.

    obs_of(x, y, z) gives the network inputs and done(x, y, z) ends a
    lane (see _run_lanes). Each step records the input, the raw action,
    its log-probability (the policy's sample, or its clipped mode when
    deterministic) and the value times value_scale. signal_of(lanes)
    gives the per-step signal and a new float array of lane tails, read
    for the lanes that reached the goal; a truncated lane's tail is one
    value forward of its final state.
    """

    def act(x, y, z):
        obs = obs_of(x, y, z)
        if deterministic:
            mean = approx.mlp_forward(policy.trunk, obs)
            u = raw = np.clip(mean, policy.action_low, policy.action_high)
            logp = approx.log_prob_at_mean(policy, mean, raw)
        else:
            u, raw, logp = approx.policy_sample(policy, obs, rng)
        return u, (obs, raw, logp, approx.mlp_forward(value_params, obs)[:, 0] * value_scale)

    run = _run_lanes(problem, *starts, act, done)
    signal, tails = signal_of(run)
    for i in np.flatnonzero(~run.reached):
        final = slice(run.last[i], run.last[i] + 1)
        final_obs = obs_of(run.x[final], run.y[final], run.z[final])
        tails[i] = approx.mlp_forward(value_params, final_obs)[0, 0] * value_scale
    steps = run.records or [np.empty(0)] * 4  # obs, raw actions, log-probs, values
    return RolloutBatch(*steps, signal, tails, starts[2], run)


def collect_rollouts(
    problem: ReachAvoidProblem,
    policy: approx.GaussianPolicyParams,
    value_params: approx.MlpParams,
    cfg: Phase1Config,
    goal_params: AugmentedGoalParams,
    rng: np.random.Generator,
    z_max: float,
    deterministic: bool = False,
) -> RolloutBatch:
    """Run n_envs lanes to episode completion under augmented dynamics.

    Every lane resets once with a fresh initial state and an episode
    budget z0 ~ U[z_min, z_max]; the batch holds exactly n_envs complete
    episodes. An episode ends when the augmented goal margin of the
    arrival state is nonpositive or at horizon_max, and its signal is
    that margin at the visited states. Only cfg.n_envs and cfg.z_min
    are read.
    """
    x0 = problem.sample_initial(rng, cfg.n_envs)
    y0 = start_flag(problem, x0)
    z0 = rng.uniform(cfg.z_min, z_max, cfg.n_envs)

    def margins(run):
        g = augmented_goal(problem, run.x, run.y, run.z, goal_params)
        return np.delete(g, run.last), g[run.last]

    return _collect(
        problem, policy, value_params, goal_params.big_c, (x0, y0, z0),
        lambda x, y, z: build_obs(x, y, z, problem.obs_scale, cfg.z_min, z_max),
        lambda x, y, z: augmented_goal(problem, x, y, z, goal_params) <= 0.0,
        margins, rng, deterministic,
    )


# -- losses ---------------------------------------------------------------------


def ppo_policy_loss(
    policy: approx.GaussianPolicyParams,
    obs: np.ndarray,
    actions_raw: np.ndarray,
    old_log_probs: np.ndarray,
    advantages: np.ndarray,
    clip_eps: float,
    entropy_coef: float = 0.0,
) -> tuple[float, list[np.ndarray], dict]:
    """Clipped surrogate loss, its gradients, and diagnostics.

    loss = mean(max(-r * A, -clip(r, 1 - eps, 1 + eps) * A)) - coef * H
    with r the importance ratio exp(logp_new - logp_old). Samples whose
    ratio overflows are excluded from the mean and counted; more than
    1% of them aborts the update.

    Returns (loss, grads in policy.trainable() order, stats) where
    stats carries kl_estimate, clip_fraction, n_excluded.
    """
    mean_out, cache = approx.mlp_forward(policy.trunk, obs, return_cache=True)
    logp_new = approx.log_prob_at_mean(policy, mean_out, actions_raw)

    ratio = np.exp(logp_new - old_log_probs)
    finite = np.isfinite(ratio)
    n_excluded = int((~finite).sum())
    if n_excluded > 0.01 * len(ratio):
        raise RuntimeError(
            f"{n_excluded}/{len(ratio)} non-finite importance ratios; aborting update"
        )
    adv = np.where(finite, advantages, 0.0)
    r = np.where(finite, ratio, 1.0)
    n_used = max(1, int(finite.sum()))

    clipped_r = np.clip(r, 1.0 - clip_eps, 1.0 + clip_eps)
    unclipped = -r * adv
    clipped = -clipped_r * adv
    loss_vec = np.maximum(unclipped, clipped)
    loss = float(loss_vec[finite].sum() / n_used)

    # Unclipped branch active on ties; the clipped branch, when strictly
    # larger, has zero gradient through logp (flat region of clip).
    active = (unclipped >= clipped) & finite
    grad_logp = np.where(active, -r * adv, 0.0) / n_used

    grads = approx.policy_logp_backward(
        policy, obs, actions_raw, grad_logp, cache=cache
    )
    entropy = approx.policy_entropy(policy)
    if entropy_coef != 0.0:
        loss -= entropy_coef * entropy
        log_std_active = (policy.log_std > approx.LOG_STD_MIN) & (
            policy.log_std < approx.LOG_STD_MAX
        )
        grads[-1] -= entropy_coef * log_std_active.astype(np.float64)

    with np.errstate(divide="ignore", invalid="ignore"):
        kl_terms = (r - 1.0) - np.log(r)
    kl = float(np.mean(kl_terms[finite & (r > 0)])) if n_used else math.nan
    stats = {
        "kl_estimate": kl,
        "clip_fraction": float(np.mean((np.abs(r - 1.0) > clip_eps)[finite])),
        "n_excluded": n_excluded,
        "entropy": entropy,
    }
    return loss, grads, stats


def value_loss(
    value_params: approx.MlpParams,
    obs: np.ndarray,
    targets: np.ndarray,
    target_scale: float,
) -> tuple[float, list[np.ndarray]]:
    """MSE between predictions and fixed targets, in scaled units.

    The net predicts value / target_scale; targets come in raw units
    and are scaled here, so the loss magnitude stays O(1). Targets are
    cast to the net's dtype, as mlp_forward casts obs.
    """
    out, cache = approx.mlp_forward(value_params, obs, return_cache=True)
    diff = out[:, 0] - np.asarray(targets, dtype=value_params.flat.dtype) / target_scale
    loss = float(np.mean(diff**2))
    upstream = (2.0 * diff / diff.shape[0])[:, None]
    grads = approx.mlp_backward(value_params, upstream, cache)
    return loss, grads


# -- training loops -------------------------------------------------------------


def _ppo_update(
    cfg, rng, iteration, obs, returns, value_params, val_adam, value_scale, policy=None
) -> dict:
    """Shuffled minibatch epochs of value (and policy) updates.

    cfg supplies epochs, minibatch_size and, with a policy, clip_eps.
    policy is None for a value-only update, or (params, adam,
    actions_raw, log_probs, advantages, entropy_coef); each minibatch
    then also takes a clipped-surrogate step. The two steps read the
    same rows and write disjoint parameters and Adam states, so with
    TWO_THREAD_UPDATES the value step runs on a worker thread while this
    thread takes the policy step; both finish before the finite check,
    and the results are bitwise those of running them one after the
    other. Returns the last minibatch's losses and policy diagnostics as
    log columns; a value-only update logs zero policy loss, entropy and
    KL.
    """
    if policy is None:
        p_loss, stats = 0.0, {"entropy": 0.0, "kl_estimate": 0.0}
    else:
        p_loss, stats = math.nan, {}
        params, adam, actions_raw, log_probs, advantages, entropy_coef = policy

    def policy_step(mb):
        loss, grads, step_stats = ppo_policy_loss(
            params, obs[mb], actions_raw[mb], log_probs[mb], advantages[mb],
            cfg.clip_eps, entropy_coef,
        )
        approx.adam_step(adam, params.trainable(), grads)
        return loss, step_stats

    def value_step(mb):
        loss, grads = value_loss(value_params, obs[mb], returns[mb], value_scale)
        approx.adam_step(val_adam, value_params.trainable(), grads)
        return loss

    v_loss = math.nan
    n_samples = obs.shape[0]
    workers = contextlib.nullcontext()  # enters as None: both steps inline
    if policy is not None and TWO_THREAD_UPDATES:
        # imported on first use: it loads logging, which nothing else needs
        from concurrent.futures import ThreadPoolExecutor

        workers = ThreadPoolExecutor(max_workers=1)
    with workers as pool:
        for _ in range(cfg.epochs):
            order = rng.permutation(n_samples)
            for lo in range(0, n_samples, cfg.minibatch_size):
                mb = order[lo : lo + cfg.minibatch_size]
                if pool is not None:
                    value_job = pool.submit(value_step, mb)
                    try:
                        p_loss, stats = policy_step(mb)
                    except BaseException:
                        value_job.exception()  # the value step finishes first
                        raise
                    v_loss = value_job.result()
                else:
                    if policy is not None:
                        p_loss, stats = policy_step(mb)
                    v_loss = value_step(mb)
                if not (math.isfinite(p_loss) and math.isfinite(v_loss)):
                    raise RuntimeError(
                        f"non-finite loss at iteration {iteration} "
                        f"(policy {p_loss}, value {v_loss})"
                    )
    return {
        "policy_loss": p_loss,
        "value_loss": v_loss,
        "entropy": stats.get("entropy", math.nan),
        "kl_estimate": stats.get("kl_estimate", math.nan),
    }


def _phi_fold(gamma: float, lam: float, mode: str):
    """Phases 1 and 2's fold, negated: a lower reach value is better."""

    def fold(ghat, values, tail):
        adv, ret = _gae_arrays(ghat, values, tail, gamma, lam, mode)
        return -adv, ret

    return fold


# the training log schema every trainer shares, in column order
LOG_COLUMNS = (
    "iteration", "env_steps", "reach_rate", "mean_cost_reached",
    "policy_loss", "value_loss", "entropy", "kl_estimate",
)


def _train_loop(cfg, rng, collect, fold, value_params, val_adam, value_scale, policy=None):
    """The iteration loop of every trainer; returns its LOG_COLUMNS rows.

    Until cfg.total_steps environment steps are collected: decay the
    learning rate (and the entropy coefficient) linearly in those steps,
    take collect() -> RolloutBatch, fold it with fold(signal, values,
    tail) -> (advantages, returns) (see RolloutBatch.fold), standardize
    the advantages and run _ppo_update. policy is (params, adam), or
    None for a value-only refit. A batch without a step would never end
    the loop, so it is refused, as is, before the first collect, an
    n_envs, epochs or minibatch_size below 1 or an lr not in (0, inf).
    """
    for name in ("n_envs", "epochs", "minibatch_size"):
        if getattr(cfg, name) < 1:
            raise ValueError(f"{name} must be at least 1, got {getattr(cfg, name)}")
    if not 0.0 < cfg.lr < math.inf:
        raise ValueError(f"lr must be positive and finite, got {cfg.lr}")
    log_rows: list[dict] = []
    env_steps = 0
    iteration = 0
    while env_steps < cfg.total_steps:
        decay = 1.0 - env_steps / cfg.total_steps
        val_adam.base_lr = cfg.lr * decay
        if policy is not None:
            policy[1].base_lr = cfg.lr * decay
        batch = collect()
        if batch.total_steps == 0:
            raise RuntimeError("no episode took a step: every start was already in the goal")
        adv, ret = batch.fold(fold)
        env_steps += batch.total_steps
        iteration += 1
        update = None
        if policy is not None:
            adv = (adv - adv.mean()) / (adv.std() + 1e-8)
            update = (*policy, batch.actions_raw, batch.log_probs, adv, cfg.entropy_coef * decay)
        losses = _ppo_update(
            cfg, rng, iteration, batch.obs, ret, value_params, val_adam, value_scale, update
        )
        row = dict(
            losses, iteration=iteration, env_steps=env_steps, reach_rate=batch.reach_rate,
            mean_cost_reached=batch.mean_cost_reached,
        )
        log_rows.append({c: row[c] for c in LOG_COLUMNS})
    return log_rows


def _init_nets(problem: ReachAvoidProblem, obs_dim: int, cfg, rng: np.random.Generator):
    """(policy, value, policy Adam, value Adam) for a trainer from scratch."""
    policy = approx.policy_init(
        obs_dim, problem.action_low, problem.action_high, rng,
        hidden=cfg.hidden, init_log_std=cfg.init_log_std,
    )
    value_params = approx.mlp_init((obs_dim, *cfg.hidden, 1), rng)
    pol_adam = approx.AdamState.for_params(policy.trainable(), cfg.lr)
    val_adam = approx.AdamState.for_params(value_params.trainable(), cfg.lr)
    return policy, value_params, pol_adam, val_adam


def _resolve_setup(
    problem: ReachAvoidProblem, cfg: Phase1Config, rng: np.random.Generator
) -> tuple[float, float]:
    """(big_c, z_max), estimating whichever the config leaves unset."""
    big_c = cfg.big_c
    if big_c is None:
        big_c = estimate_big_c(problem, rng)
    z_max = cfg.z_max
    if z_max is None:
        z_max = problem.horizon_max * problem.max_step_cost()
    if not cfg.z_min < z_max:
        raise ValueError("resolved z_max must exceed z_min")
    return float(big_c), float(z_max)


def train_phase1(problem: ReachAvoidProblem, cfg: Phase1Config) -> TrainResult:
    """Budget-conditioned clipped-surrogate training.

    Each iteration collects n_envs complete episodes, computes phi-fold
    advantages per episode, negates and standardizes them across the
    batch, then runs several epochs of minibatched policy and value
    updates (see _train_loop). Deterministic given cfg.seed.
    """
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    big_c, z_max = _resolve_setup(problem, cfg, rng)
    goal_params = AugmentedGoalParams(big_c=big_c)
    policy, value_params, pol_adam, val_adam = _init_nets(
        problem, problem.state_dim + 2, cfg, rng
    )

    meta = {
        "algorithm": "rcppo",
        "env": problem.name,
        "obs_scale": [float(v) for v in problem.obs_scale],
        "z_min": cfg.z_min,
        "z_max": z_max,
        "big_c": big_c,
        "gamma": cfg.gamma,
        "hidden": list(cfg.hidden),
        "seed": cfg.seed,
    }

    def collect():
        return collect_rollouts(problem, policy, value_params, cfg, goal_params, rng, z_max)

    log_rows = _train_loop(
        cfg, rng, collect, _phi_fold(cfg.gamma, cfg.lam, cfg.gae_mode), value_params,
        val_adam, big_c, policy=(policy, pol_adam),
    )
    return TrainResult(policy=policy, value=value_params, log_rows=log_rows, meta=meta)


def finetune_phase2(
    problem: ReachAvoidProblem,
    policy: approx.GaussianPolicyParams,
    value_params: approx.MlpParams,
    meta: dict,
    cfg: Phase2Config,
) -> tuple[approx.MlpParams, list[dict], dict]:
    """Value-only regression under the frozen mode policy.

    Rollouts act with the policy mode (zero exploration, zero entropy
    contribution) while budgets still sweep U[z_min, z_max]; the value
    continues from its phase-1 parameters under a discount close enough
    to 1 for its sign to certify feasibility. Returns the tuned value,
    log rows, and an updated meta carrying the phase-2 gamma.
    """
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    big_c = meta["big_c"]
    gamma = cfg.gamma
    if gamma is None:
        bound = discount_sign_bound(big_c, problem.horizon_max, cfg.gamma_eps_gap)
        gamma = min(1.0 - 1e-9, 0.5 * (bound + 1.0))
    goal_params = AugmentedGoalParams(big_c=big_c)

    # construction copies the phase-1 parameters into a new vector
    value_params = approx.MlpParams(value_params.weights, value_params.biases)
    val_adam = approx.AdamState.for_params(value_params.trainable(), cfg.lr)
    roll_cfg = Phase1Config(n_envs=cfg.n_envs, z_min=meta["z_min"])

    def collect():
        return collect_rollouts(
            problem, policy, value_params, roll_cfg, goal_params, rng,
            meta["z_max"], deterministic=True,
        )

    log_rows = _train_loop(
        cfg, rng, collect, _phi_fold(gamma, cfg.lam, cfg.gae_mode), value_params,
        val_adam, big_c,
    )
    meta2 = dict(meta)
    meta2["phase2_gamma"] = gamma
    return value_params, log_rows, meta2


# -- budget search ---------------------------------------------------------------


# Each bisection round asks for every midpoint of the next few levels of
# each unfinished state's bisection tree in one value call: 2**levels - 1
# budgets per state, in heap order (node k's children are 2k + 1, below
# the midpoint, and 2k + 2, above it). The walk takes one node per
# level, so a deeper tree saves calls but pays for nodes it never takes.
# A round uses the deepest tree, of at most _TREE_LEVELS levels, whose
# nodes for all unfinished states fit one _FORWARD_ROWS-row forward:
# 1 to 36 states get 3 levels, 37 to 85 get 2, and more get 1.
_TREE_LEVELS = 3


def _tree_levels(n_states: int) -> int:
    """floor(log2(_FORWARD_ROWS / n_states + 1)), clamped to [1, _TREE_LEVELS]."""
    levels = _TREE_LEVELS
    while levels > 1 and n_states * (2**levels - 1) > _FORWARD_ROWS:
        levels -= 1
    return levels


def _tree_midpoints(lo: float, hi: float, nodes: int) -> list[float]:
    """Midpoints of the first nodes nodes of [lo, hi]'s bisection tree."""
    brackets, mids = [(lo, hi)], []
    for k in range(nodes):
        a, b = brackets[k]
        mid = 0.5 * (a + b)
        mids.append(mid)
        brackets += ((a, mid), (mid, b))
    return mids


def _bisect(value_fn, x, y, rows: bool, z_min, z_max, tol, scan_points):
    """Bisection for n states at once; one ZStarSolution or Infeasible per state.

    With rows False, x and y are one state, passed to value_fn exactly
    as given; with rows True they are n rows, and each call passes the
    rows aligned with its budgets. See bisect_z_star for the rest.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tol must be positive and finite")
    if not (math.isfinite(z_min) and math.isfinite(z_max)):
        raise ValueError("z_min and z_max must be finite")
    if z_max < z_min:
        raise ValueError("need z_min <= z_max")
    if scan_points != 0 and scan_points < 2:
        raise ValueError(f"scan_points must be 0 or at least 2, got {scan_points}")

    def values_at(states, per_state: int, zs) -> list[float]:
        z = np.asarray(zs, dtype=np.float64)
        if rows:
            idx = np.repeat(states, per_state)
            v = value_fn(x[idx], y[idx], z)
        else:
            v = value_fn(x, y, z)
        v = np.asarray(v, dtype=np.float64)
        if v.shape != z.shape:
            v = np.broadcast_to(v, z.shape)
        vals = v.tolist()
        # one sum clears the common case; it is also NaN where inf meets
        # -inf, so the search for the NaN can come up empty
        if math.isnan(sum(vals)):
            for k, vk in enumerate(vals):
                if vk != vk:  # NaN has no sign, so no budget can be read from it
                    raise ValueError(f"value is NaN at z={z[k]:.6g}")
        return vals

    n = len(y) if rows else 1
    # linspace sets both ends exactly, so the scan also gives V(z_min), V(z_max)
    first = np.linspace(z_min, z_max, scan_points).tolist() if scan_points else [z_min, z_max]
    per = len(first)
    v_first = values_at(range(n), per, first * n)
    violations = [0] * n
    if scan_points:
        signs = np.reshape(v_first, (n, per)) <= 0.0
        violations = np.sum(signs[:, :-1] & ~signs[:, 1:], axis=1).tolist()
    out: list = [None] * n
    lo, hi = float(z_min), float(z_max)
    max_iter = math.ceil(math.log2(max(1.0, (hi - lo) / tol))) + 5
    # inner scan budget -> its index in first. A scan of 2**j + 1 points
    # on a range whose halvings are exact holds the first j levels of
    # the bisection tree, and the walk takes those midpoints' values
    # from the scan instead of asking for them again.
    scanned = {z: k for k, z in enumerate(first[1:-1], 1)}
    brackets = {}  # unfinished state -> [lo, hi, v(hi), iterations]
    for i in range(n):
        base = i * per
        v_lo, v_hi = v_first[base], v_first[base + per - 1]
        if violations[i]:
            warnings.warn(
                f"value sign regressed {violations[i]} time(s) along the z sweep",
                NonMonotoneWarning,
                stacklevel=3,
            )
        if v_hi > 0.0:
            out[i] = Infeasible(f"value {v_hi:.4g} still positive at z_max={z_max:.4g}")
        elif v_lo <= 0.0:
            out[i] = ZStarSolution(lo, v_lo, (lo, lo), 0, violations[i])
        else:
            a, b, v_b, it = lo, hi, v_hi, 0
            while b - a > tol and it < max_iter:
                mid = 0.5 * (a + b)
                k = scanned.get(mid)
                if k is None:
                    break
                if v_first[base + k] <= 0.0:
                    b, v_b = mid, v_first[base + k]
                else:
                    a = mid
                it += 1
            brackets[i] = [a, b, v_b, it]
    active = [i for i, (a, b, _, it) in brackets.items() if b - a > tol and it < max_iter]
    while active:
        nodes = 2 ** _tree_levels(len(active)) - 1
        trees = [_tree_midpoints(*brackets[i][:2], nodes) for i in active]
        v = values_at(active, nodes, [m for mids in trees for m in mids])
        still = []
        for j, (i, mids) in enumerate(zip(active, trees)):
            a, b, v_b, it = brackets[i]
            base, k = j * nodes, 0
            # the walk down takes the midpoints one-at-a-time bisection would
            while k < nodes and b - a > tol and it < max_iter:
                if v[base + k] <= 0.0:
                    b, v_b = mids[k], v[base + k]
                    k = 2 * k + 1
                else:
                    a = mids[k]
                    k = 2 * k + 2
                it += 1
            brackets[i] = [a, b, v_b, it]
            if b - a > tol and it < max_iter:
                still.append(i)
        active = still
    for i, (a, b, v_b, it) in brackets.items():
        out[i] = ZStarSolution(b, v_b, (a, b), it, violations[i])
    return out


def bisect_z_star(
    value_fn,
    x: np.ndarray,
    y: float,
    z_min: float,
    z_max: float,
    tol: float = 1e-2,
    scan_points: int = 0,
) -> ZStarSolution:
    """Smallest budget (within tol) whose value is nonpositive.

    value_fn(x, y, z) is called positionally with the state x and flag
    y exactly as given here and a 1-D float64 array of budgets z; its
    result must broadcast to z's shape. It must be nonincreasing in z
    for bisection to be exact; learned values may wobble, so
    scan_points >= 2 adds a coarse sweep that counts feasible-to-
    infeasible sign regressions and reports them (and warns) instead of
    hiding them.

    The first call asks for (z_min, z_max), or for the whole sweep,
    whose ends stand in for them. The walk down the bisection tree takes
    the midpoints one-at-a-time bisection would (v <= 0 moves hi to the
    midpoint, otherwise lo; stop once hi - lo <= tol or after max_iter
    midpoints), so the result is the same. While the next midpoint
    equals a sweep budget, the walk takes the sweep's value there: a
    sweep of 2**j + 1 points on a range whose halvings are exact, such
    as 33 points (the `bisect` default) on [-1, 600], covers the first
    j levels of the tree, and a sweep whose budgets are not midpoints
    covers none. Each further call asks for every midpoint of the next
    _TREE_LEVELS (3) levels below the bracket the walk has reached.
    v_at_zstar is the value already computed at hi, by the sweep or by
    a later call. Searches over many states at once (fit_z_regressor)
    ask for fewer levels per call while the unfinished states'
    midpoints would overflow one value forward (see _tree_levels); the
    results do not change.

    Raises:
        Infeasible: value at z_max is still positive.
        ValueError: tol, z_min or z_max is not finite, tol <= 0,
            z_max < z_min or scan_points is 1 or negative; or the
            value is NaN at any asked budget, including midpoints the
            walk does not take. NaN has no sign, so no budget can be
            read from it.
    """
    (sol,) = _bisect(value_fn, x, y, False, z_min, z_max, tol, scan_points)
    if isinstance(sol, Infeasible):
        raise sol
    return sol


@dataclass
class ZRegressor:
    """Distilled (x, y) -> z_star map with its input normalization."""

    net: approx.MlpParams
    obs_scale: np.ndarray
    z_min: float
    z_max: float
    holdout_mae: float
    n_infeasible: int


def _regressor_input(x: np.ndarray, y, obs_scale: np.ndarray) -> np.ndarray:
    """Regressor input rows (x / scale, y); y is a scalar or one per row."""
    xb = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y_col = np.broadcast_to(np.asarray(y, dtype=np.float64), (xb.shape[0],))[:, None]
    return np.concatenate([xb / obs_scale, y_col], axis=1)


def regressor_predict(reg: ZRegressor, x: np.ndarray, y) -> np.ndarray:
    z_norm = approx.mlp_forward(reg.net, _regressor_input(x, y, reg.obs_scale))[:, 0]
    return np.clip(reg.z_min + z_norm * (reg.z_max - reg.z_min), reg.z_min, reg.z_max)


def fit_z_regressor(
    value_fn,
    problem: ReachAvoidProblem,
    meta: dict,
    n_samples: int = 512,
    tol: float = 1e-2,
    seed: int = 0,
    hidden: tuple[int, ...] = (64, 64),
    epochs: int = 400,
    lr: float = 1e-3,
) -> ZRegressor:
    """Regress bisection labels over sampled initial states.

    All samples are bisected together: value_fn(x, y, z) is called with
    rows x, y aligned with the budgets z (see bisect_z_star for the
    rest of the contract). Infeasible states are dropped (and counted);
    more than half of them infeasible raises, since the map would
    mostly extrapolate. One state is held out of every five, and at
    least one, so fewer than 2 samples, or 2 feasible states, raise
    ValueError before any bisection or training.

    The labels are bisections of the float64 value. The Adam epochs run
    on a float32 copy of the net and of the fit rows, which takes about
    half the time of float64 at the defaults; the net comes back as
    float64, exactly, and the holdout MAE is that of the float64 net.
    """
    if n_samples < 2:
        raise ValueError(f"need at least 2 samples to fit and hold out, got {n_samples}")
    rng = np.random.Generator(np.random.PCG64(seed))
    xs = problem.sample_initial(rng, n_samples)
    ys = start_flag(problem, xs)
    sols = _bisect(value_fn, xs, ys, True, meta["z_min"], meta["z_max"], tol, 0)
    keep = [i for i, sol in enumerate(sols) if isinstance(sol, ZStarSolution)]
    n_out = n_samples - len(keep)
    if n_out > 0.5 * n_samples:
        raise RuntimeError(
            f"{n_out}/{n_samples} sampled states infeasible; refusing to fit"
        )
    if len(keep) < 2:
        raise ValueError(f"need at least 2 feasible states to fit and hold out, got {len(keep)}")
    z_lab = np.asarray([sols[i].z_star for i in keep])
    z_min, z_max = meta["z_min"], meta["z_max"]
    targets = (z_lab - z_min) / (z_max - z_min)

    scale = np.asarray(meta["obs_scale"], dtype=np.float64)
    inp = _regressor_input(xs[keep], ys[keep], scale)
    n_total = inp.shape[0]
    n_hold = max(1, n_total // 5)
    perm = rng.permutation(n_total)
    hold, fit = perm[:n_hold], perm[n_hold:]

    net = approx.mlp_init((inp.shape[1], *hidden, 1), rng).astype(np.float32)
    params = net.trainable()
    adam = approx.AdamState.for_params(params, lr)
    inp_fit, targets_fit = inp[fit].astype(np.float32), targets[fit].astype(np.float32)
    for _ in range(epochs):
        _, grads = value_loss(net, inp_fit, targets_fit, 1.0)
        approx.adam_step(adam, params, grads)

    net = net.astype(np.float64)
    pred_hold = approx.mlp_forward(net, inp[hold])[:, 0]
    mae = float(np.mean(np.abs(pred_hold - targets[hold]))) * (z_max - z_min)
    return ZRegressor(
        net=net, obs_scale=scale, z_min=z_min, z_max=z_max,
        holdout_mae=mae, n_infeasible=n_out,
    )


# -- deployment ------------------------------------------------------------------


@dataclass
class Trajectory:
    """Deployed episode under deploy-time termination (raw goal entry)."""

    states: np.ndarray  # (T + 1, d)
    actions: np.ndarray  # (T, a)
    costs: np.ndarray  # (T,)
    y: np.ndarray  # (T + 1,)
    z: np.ndarray  # (T + 1,)
    z0: float
    reached: bool
    violated: bool
    infeasible_start: bool

    @property
    def cum_cost(self) -> float:
        return float(self.costs.sum())

    @property
    def length(self) -> int:
        return len(self.costs)


def budget_conditioned(meta: dict) -> bool:
    """Whether a policy takes the budget as input; an unnamed algorithm is rcppo."""
    return meta.get("algorithm", "rcppo") == "rcppo"


def _start_budget(z_source, x: np.ndarray, y: float, meta: dict) -> tuple[float, bool]:
    """(z0, infeasible_start) for one start; see deploy_policy."""
    if z_source is None:
        return math.inf, False
    if isinstance(z_source, (bool, np.bool_)):
        raise TypeError(f"a budget must be a number, not {z_source!r}")
    if isinstance(z_source, numbers.Real):
        return float(z_source), False
    if isinstance(z_source, ZRegressor):
        return float(regressor_predict(z_source, x, y)[0]), False
    try:
        return float(z_source(x, y)), False
    except Infeasible:
        return float(meta["z_max"]), True


def deploy_policy(
    problem: ReachAvoidProblem,
    policy: approx.GaussianPolicyParams,
    meta: dict,
    z_source,
    x0: np.ndarray,
) -> Trajectory | list[Trajectory]:
    """Roll the mode policy from each start with the budget as a dial.

    x0 is one start (d,), giving one Trajectory, or a batch (n, d),
    giving a list of n. The starts run as lanes stepped together: each
    time step builds one observation batch, runs one policy forward and
    one environment step over the rows of the unfinished lanes, so a
    single start is just a batch of one lane.

    z_source is a real number (numpy scalars included; a bool raises
    TypeError), a callable (x0, y0) -> z0 (typically wrapping
    bisect_z_star), a ZRegressor, or None (budget-free policies; the
    budget column stays infinite). It is resolved once per start, in
    start order. An Infeasible callable result is reported on that lane,
    not raised: the lane proceeds at z_max for diagnosis.

    Each lane ends on raw goal entry or at horizon_max; safety
    violations latch y but never terminate.
    """
    scale = np.asarray(meta["obs_scale"], dtype=np.float64)
    is_budget = budget_conditioned(meta)

    starts, single = _as_batch(x0, problem.state_dim)
    n = starts.shape[0]
    y0 = start_flag(problem, starts)
    budgets = [_start_budget(z_source, starts[i], float(y0[i]), meta) for i in range(n)]
    z0 = np.array([b for b, _ in budgets], dtype=np.float64)

    def act(x, y, z):
        if is_budget:
            obs = build_obs(x, y, z, scale, meta["z_min"], meta["z_max"])
        else:
            obs = x / scale
        u = approx.policy_mode(policy, obs)
        return u, (u,)

    run = _run_lanes(problem, starts, y0, z0, act, lambda x, y, z: problem.in_goal(x))
    (actions,) = run.records or [np.empty((0, problem.action_dim))]
    trajs = [
        Trajectory(
            states=run.x[states],
            actions=actions[steps],
            costs=run.costs[steps],
            y=run.y[states],
            z=run.z[states],
            z0=float(z0[i]),
            reached=bool(run.reached[i]),
            violated=bool(np.any(run.y[states] > 0)),
            infeasible_start=budgets[i][1],
        )
        for i, (steps, states) in enumerate(run.spans())
    ]
    return trajs[0] if single else trajs


def evaluate_policy(
    problem: ReachAvoidProblem,
    policy: approx.GaussianPolicyParams,
    meta: dict,
    z_source,
    n_episodes: int,
    seed: int = 0,
) -> dict:
    """Seeded deployment sweep; aggregates match the episode records.

    Starts come from one problem.sample_initial(rng) call per episode,
    in order, and run as lanes of a single deploy_policy call. The seed
    also restarts the problem's own noise stream (see
    ReachAvoidProblem.reseed), so equal seeds give equal reports.

    An episode counts as reaching only if it enters the goal with the
    safety flag never latched. Costs aggregate over reaching episodes;
    with no episodes the aggregates are None. A negative n_episodes
    raises ValueError.
    """
    if n_episodes < 0:
        raise ValueError(f"n_episodes must be nonnegative, got {n_episodes}")
    rng = np.random.Generator(np.random.PCG64(seed))
    problem.reseed(seed)
    starts = np.array([problem.sample_initial(rng) for _ in range(n_episodes)])
    trajs = deploy_policy(
        problem, policy, meta, z_source, starts.reshape(n_episodes, problem.state_dim)
    )
    records = [
        {
            "z0": traj.z0,
            "reached": bool(traj.reached and not traj.violated),
            "violated": traj.violated,
            "cumulative_cost": traj.cum_cost,
            "length": traj.length,
            "infeasible_start": traj.infeasible_start,
        }
        for traj in trajs
    ]
    reached = [r for r in records if r["reached"]]
    report = {
        "n_episodes": n_episodes,
        "reach_rate": (len(reached) / n_episodes) if n_episodes else None,
        "violation_rate": (
            float(np.mean([r["violated"] for r in records])) if records else None
        ),
        "mean_cost_reached": (
            float(np.mean([r["cumulative_cost"] for r in reached])) if reached else None
        ),
        "median_cost_reached": (
            float(np.median([r["cumulative_cost"] for r in reached])) if reached else None
        ),
        "episodes": records,
    }
    return report
