"""The benchmark's legs: seeded inputs, timed units and output checks.

The legs fall into three groups: train, deploy and oracle. A unit of a
group runs each of its legs once on inputs fixed by the seed, so every
unit of a run repeats identical work; a leg's figure is the median over
the units of a run. Each group counts the operations it attempted and
failed, keeps the outputs of its first unit for the checks in
checks.py, and compares every later unit's outputs with them.
"""

from __future__ import annotations

import math
import os
import time
import warnings

import numpy as np

import checks
from reachbudget import approx, baselines, rcppo, reachval
from reachbudget.augment import AugmentedGoalParams
from reachbudget.envkit import (
    ControlNoiseWrapper,
    NoiseWrapperConfig,
    PendulumSwingUp,
    grid_reachavoid_make,
    pendulum_make,
    two_start_bandit_make,
)

CKPT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "ckpt")


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, stream]))


def pendulum_starts(rng: np.random.Generator, n: int) -> np.ndarray:
    """Latin-hypercube starts over the pendulum's start box.

    The box is the one pendulum.sample_initial draws from (angle in
    [-pi, pi], speed in [-1, 1]); stratifying it keeps the mix of short
    and long episodes nearly the same from seed to seed.
    """
    strata = (np.arange(n)[:, None] + rng.random((n, 2))) / n
    strata[:, 1] = rng.permutation(strata[:, 1])
    return np.stack([-np.pi + 2.0 * np.pi * strata[:, 0], -1.0 + 2.0 * strata[:, 1]], axis=1)


class PlannedPendulum(PendulumSwingUp):
    """The pendulum, handing out a fixed list of start states in order."""

    def __init__(self, starts: np.ndarray) -> None:
        super().__init__()
        self.starts = starts
        self.taken = 0

    def sample_initial(self, rng, n=None):
        k = 1 if n is None else n
        out = self.starts[self.taken : self.taken + k].copy()
        if len(out) < k:
            raise IndexError("start plan exhausted")
        self.taken += k
        return out[0] if n is None else out


class Group:
    """Shared bookkeeping: samples per metric, operations, check errors."""

    metrics: tuple[str, ...] = ()

    def __init__(self) -> None:
        self.samples: dict[str, list[float]] = {m: [] for m in self.metrics}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.units = 0

    def same(self, what: str, a, b) -> None:
        """Record an error unless a later unit reproduced the first bitwise."""
        if not _equal(a, b):
            self.errors.append(f"{what}: unit {self.units} differs from unit 0")

    def figures(self) -> dict[str, float]:
        return {m: float(np.median(v)) for m, v in self.samples.items()}


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def _equal(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_equal(x, y) for x, y in zip(a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_equal(a[k], b[k]) for k in a)
    if isinstance(a, float) and math.isnan(a):
        return isinstance(b, float) and math.isnan(b)
    return a == b


# -- train ----------------------------------------------------------------------


class TrainGroup(Group):
    """Phase 1, the phase-2 refit of its result, and the scalarized baseline.

    Each trainer runs exactly one iteration of 16 complete episodes and
    its epochs of minibatch updates (total_steps=1), from scratch with a
    fixed seed. z_max 600, phase-2 lam 0.98 and the baseline's reward
    weights are those of the acceptance fixtures.
    """

    metrics = ("phase1_steps_per_s", "phase2_steps_per_s", "baseline_steps_per_s")

    def __init__(self, seed: int) -> None:
        super().__init__()
        self.problem = pendulum_make()
        self.p1 = rcppo.Phase1Config(total_steps=1, n_envs=16, seed=seed, z_max=600.0)
        self.p2 = rcppo.Phase2Config(total_steps=1, n_envs=16, seed=seed + 1, lam=0.98)
        self.bl = baselines.BaselineConfig(
            total_steps=1, n_envs=16, seed=seed,
            reward=baselines.LagrangianRewardConfig(beta=0.1, p_goal=1.0),
        )
        self.seed = seed
        self.first = None

    def unit(self) -> None:
        r1, dt1 = _timed(lambda: rcppo.train_phase1(self.problem, self.p1))
        r2, dt2 = _timed(lambda: rcppo.finetune_phase2(
            self.problem, r1.policy, r1.value, r1.meta, self.p2))
        r3, dt3 = _timed(lambda: baselines.train_ppo_baseline(self.problem, self.bl))
        self.attempted += 3
        self.samples["phase1_steps_per_s"].append(r1.log_rows[-1]["env_steps"] / dt1)
        self.samples["phase2_steps_per_s"].append(r2[1][-1]["env_steps"] / dt2)
        self.samples["baseline_steps_per_s"].append(r3.log_rows[-1]["env_steps"] / dt3)
        out = {
            "phase1": (r1.policy.trainable(), r1.value.trainable(), r1.log_rows),
            "phase2": (r2[0].trainable(), r2[1], r2[2]),
            "baseline": (r3.policy.trainable(), r3.value.trainable(), r3.log_rows),
        }
        if self.first is None:
            self.first = (r1, r2, r3, out)
        else:
            for key in out:
                self.same(f"train {key}", self.first[3][key], out[key])
        self.units += 1

    def check(self) -> list[str]:
        r1, (value2, rows2, meta2), r3, _ = self.first
        errs = list(self.errors)
        for tag, rows in (("phase1", r1.log_rows), ("phase2", rows2), ("baseline", r3.log_rows)):
            if len(rows) != 1 or not rows[0]["env_steps"] > 0:
                errs.append(f"{tag}: expected one iteration, log {rows}")
            if not all(math.isfinite(rows[-1][k]) for k in ("policy_loss", "value_loss")):
                errs.append(f"{tag}: non-finite losses {rows[-1]}")
        want = checks.phase2_gamma(r1.meta["big_c"], self.problem.horizon_max, self.p2.gamma_eps_gap)
        if abs(meta2["phase2_gamma"] - want) > 1e-12:
            errs.append(f"phase-2 gamma {meta2['phase2_gamma']!r}, closed form {want!r}")

        rng = _rng(self.seed, 10)
        batch = rcppo.collect_rollouts(
            self.problem, r1.policy, r1.value, self.p1,
            AugmentedGoalParams(big_c=r1.meta["big_c"]), rng, r1.meta["z_max"],
        )
        eps = sorted((ep for ep in batch.episodes if len(ep.costs) > 1), key=lambda ep: len(ep.costs))
        for ep in (eps[0], eps[len(eps) // 2], eps[-1]):
            adv, ret = reachval._gae_arrays(
                ep.ghat, ep.values, ep.tail_value, self.p1.gamma, self.p1.lam, self.p1.gae_mode)
            steps = sorted({0, 1, len(adv) // 2, len(adv) - 2, len(adv) - 1})
            errs += checks.check_advantages(
                ep.ghat, ep.values, ep.tail_value, self.p1.gamma, self.p1.lam, adv, steps)
            if np.max(np.abs(ret - adv - ep.values)) > 1e-9 * max(1.0, np.max(np.abs(ep.values))):
                errs.append("lambda-returns are not advantages plus values")

        mb = rng.choice(batch.total_steps, size=64, replace=False)
        obs = np.concatenate([ep.obs for ep in batch.episodes])[mb]
        act = np.concatenate([ep.actions_raw for ep in batch.episodes])[mb]
        targets = np.concatenate([ep.values for ep in batch.episodes])[mb] + rng.normal(0, 50, 64)
        logp = approx.policy_log_prob(r1.policy, obs, act)
        adv = rng.standard_normal(64)
        pol_args = (r1.policy, obs, act, logp, adv, self.p1.clip_eps, self.p1.entropy_coef)
        _, p_grads, _ = rcppo.ppo_policy_loss(*pol_args)
        errs += checks.check_central_differences(
            lambda: rcppo.ppo_policy_loss(*pol_args)[0], r1.policy.trainable(), p_grads, rng)
        val_args = (r1.value, obs, targets, r1.meta["big_c"])
        _, v_grads = rcppo.value_loss(*val_args)
        errs += checks.check_central_differences(
            lambda: rcppo.value_loss(*val_args)[0], r1.value.trainable(), v_grads, rng)
        return errs


# -- deploy ---------------------------------------------------------------------

N_EPISODES = 96  # per evaluation, noisy and noise-free
N_BISECT = 128
DEPLOY_TOL = 6.0  # the acceptance deployment tolerance
NOISE = 0.1
N_REPLAY = 8


class DeployGroup(Group):
    """Deployment of the committed phase-1 policy and phase-2 value.

    A unit runs: evaluate_policy over N_EPISODES planned starts with the
    budget bisected at tol 6; the same under +-0.1 control noise; the
    `bisect` command's search (tol 1e-2, 33-point scan) over N_BISECT
    seeded states; and one fit_z_regressor at the `fit-zmap` defaults.
    It also repeats a noisy evaluation on one wrapper with one seed on
    fixed inputs; the two reports must agree, and each disagreement is a
    failed operation.
    """

    metrics = ("eval_episodes_per_s", "noisy_eval_episodes_per_s",
               "bisect_states_per_s", "zmap_fit_s")

    def __init__(self, seed: int) -> None:
        super().__init__()
        pol_arrays, self.meta = approx.load_checkpoint(os.path.join(CKPT_DIR, "policy.ckpt"))
        val_arrays, self.meta2 = approx.load_checkpoint(os.path.join(CKPT_DIR, "value2.ckpt"))
        self.policy = approx.policy_from_arrays(pol_arrays)
        self.value_fn = rcppo.value_fn_from(approx.mlp_from_arrays("value", val_arrays), self.meta2)
        self.problem = pendulum_make()
        self.starts = pendulum_starts(_rng(seed, 1), N_EPISODES)
        self.states = pendulum_starts(_rng(seed, 2), N_BISECT)
        self.seed = seed
        self.first = None

    def z_source(self, x, y):
        return rcppo.bisect_z_star(self.value_fn, x, y, -1.0, self.meta2["z_max"], tol=DEPLOY_TOL).z_star

    def noisy(self, base, seed):
        return ControlNoiseWrapper(base, NoiseWrapperConfig(noise_half_width=NOISE, seed=seed))

    def bisect_all(self):
        out = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", rcppo.NonMonotoneWarning)
            for x in self.states:
                try:
                    sol = rcppo.bisect_z_star(
                        self.value_fn, x, -1.0, self.meta2["z_min"], self.meta2["z_max"],
                        1e-2, scan_points=33)
                    out.append((sol.z_star, sol.bracket, sol.monotone_violations))
                except rcppo.Infeasible:
                    out.append(None)
        return out

    def unit(self) -> None:
        rep, dt = _timed(lambda: rcppo.evaluate_policy(
            PlannedPendulum(self.starts), self.policy, self.meta, self.z_source,
            N_EPISODES, seed=self.seed))
        self.samples["eval_episodes_per_s"].append(N_EPISODES / dt)
        noisy, dt = _timed(lambda: rcppo.evaluate_policy(
            self.noisy(PlannedPendulum(self.starts), self.seed), self.policy, self.meta,
            self.z_source, N_EPISODES, seed=self.seed))
        self.samples["noisy_eval_episodes_per_s"].append(N_EPISODES / dt)
        sols, dt = _timed(self.bisect_all)
        self.samples["bisect_states_per_s"].append(N_BISECT / dt)
        reg, dt = _timed(lambda: rcppo.fit_z_regressor(
            self.value_fn, self.problem, self.meta2, n_samples=512, tol=1e-2, seed=self.seed))
        self.samples["zmap_fit_s"].append(dt)
        self.attempted += 2 * N_EPISODES + N_BISECT + 1

        # Seeded noise: one wrapper, one evaluation seed, fixed inputs.
        wrapper = self.noisy(self.problem, 97)
        a = rcppo.evaluate_policy(wrapper, self.policy, self.meta, 300.0, 8, seed=123)
        b = rcppo.evaluate_policy(wrapper, self.policy, self.meta, 300.0, 8, seed=123)
        self.attempted += 1
        self.failed += not _equal(a, b)

        out = {"eval": rep, "noisy": noisy, "bisect": sols,
               "zmap": (reg.net.trainable(), reg.holdout_mae, reg.n_infeasible)}
        if self.first is None:
            self.first = (rep, noisy, sols, reg, out)
        else:
            for key in out:
                self.same(f"deploy {key}", self.first[4][key], out[key])
        self.units += 1

    def check(self) -> list[str]:
        rep, noisy, sols, reg, _ = self.first
        errs = list(self.errors)
        pol_arrays, _ = checks.read_checkpoint(os.path.join(CKPT_DIR, "policy.ckpt"))
        vref = checks.ValueRef(*checks.read_checkpoint(os.path.join(CKPT_DIR, "value2.ckpt")))
        errs += checks.check_report(rep, N_EPISODES)
        errs += checks.check_report(noisy, N_EPISODES)

        for i in range(N_REPLAY):
            x0 = self.starts[i]
            sol = rcppo.bisect_z_star(self.value_fn, x0, -1.0, -1.0, self.meta2["z_max"], tol=DEPLOY_TOL)
            errs += checks.check_bisection(vref, x0, -1.0, DEPLOY_TOL, sol, False)
            traj = rcppo.deploy_policy(self.problem, self.policy, self.meta, self.z_source, x0)
            if traj.z0 != sol.z_star:
                errs.append(f"start {i}: deployed z0 {traj.z0} != bisected {sol.z_star}")
            errs += checks.check_deployed_episode(
                pol_arrays, vref, traj.states, traj.actions, traj.costs, traj.z, rep["episodes"][i])
        wrapper = self.noisy(self.problem, self.seed)
        for i in range(N_REPLAY):
            traj = rcppo.deploy_policy(wrapper, self.policy, self.meta, self.z_source, self.starts[i])
            errs += checks.check_noisy_episode(
                pol_arrays, vref, traj.states, traj.actions, traj.costs, traj.z, NOISE)

        for x, sol in zip(self.states, sols):
            if sol is None:
                errs += checks.check_bisection(vref, x, -1.0, 1e-2, None, True)
            else:
                errs += checks.check_bisection(
                    vref, x, -1.0, 1e-2, rcppo.ZStarSolution(sol[0], math.nan, sol[1], 0), False)

        errs += checks.check_regressor(
            reg.net.weights, reg.net.biases, vref.scale, vref.z_min, vref.z_max, self.states, -1.0,
            rcppo.regressor_predict(reg, self.states, -1.0))
        if not (math.isfinite(reg.holdout_mae) and 0 <= reg.n_infeasible <= 256):
            errs.append(f"z-map fit: holdout MAE {reg.holdout_mae}, {reg.n_infeasible} infeasible")
        return errs


# -- oracle ---------------------------------------------------------------------

GRID = 12
N_LAYOUTS = 4
HAZARD_P = 0.15
BIG_C = 350.0  # above every goal margin of a 12x12 grid
DELTA = 1.0


def grid_layouts(seed: int):
    """Seeded 12x12 layouts: a goal, about 15% hazard cells, leave costs 1 or 2."""
    rng = _rng(seed, 3)
    out = []
    for _ in range(N_LAYOUTS):
        goal = (int(rng.integers(GRID)), int(rng.integers(GRID)))
        hazard = rng.random((GRID, GRID)) < HAZARD_P
        hazards = {(r, c) for r in range(GRID) for c in range(GRID) if hazard[r, c]} - {goal}
        leave = rng.integers(1, 3, (GRID, GRID))
        costs = {(r, c): float(leave[r, c]) for r in range(GRID) for c in range(GRID)}
        out.append((tuple(sorted(hazards)), goal, costs))
    return out


def bandit_sweep(seed: int):
    """The three solver modes: cap 20 and the two tie weights, plus seeded draws."""
    rng = _rng(seed, 4)
    weights = [2.0 / 3.0, 1.0, *rng.uniform(0.0, 2.0, 4)]
    caps = [20.0, *rng.uniform(5.0, 30.0, 5)]
    return ([("reach_min_cost", None)] + [("scalarized", float(w)) for w in weights]
            + [("thresholded", float(c)) for c in caps])


class OracleGroup(Group):
    """Exact solvers with no network.

    A unit solves every layout (augment_tabular, undiscounted value
    iteration, bisect_z_star at tol 1e-6 from every state) and runs
    two_start_bandit_solvers over the sweep.
    """

    metrics = ("tabular_starts_per_s", "bandit_solves_per_s")

    def __init__(self, seed: int) -> None:
        super().__init__()
        self.layouts = grid_layouts(seed)
        self.mdps = [
            grid_reachavoid_make(GRID, GRID, hazards, goal, step_cost_table=costs)
            for hazards, goal, costs in self.layouts
        ]
        self.z_grid = reachval.make_z_grid(DELTA, 2.0 * GRID * GRID + 2.0)
        self.bandit = two_start_bandit_make()
        self.sweep = bandit_sweep(seed)
        self.first = None

    def solve_grids(self):
        out = []
        for mdp in self.mdps:
            aug = reachval.augment_tabular(mdp, self.z_grid, BIG_C)
            table = reachval.tabular_value_iteration(aug, gamma=1.0)
            z_stars = {}
            for s in range(mdp.n_states):
                y0 = 1.0 if mdp.avoid_mask[s] else -1.0
                try:
                    z_stars[s] = rcppo.bisect_z_star(
                        table.value_at, s, y0, -1.0, self.z_grid[-1], tol=1e-6).z_star
                except rcppo.Infeasible:
                    z_stars[s] = None
            out.append((table.values, z_stars))
        return out

    def unit(self) -> None:
        grids, dt = _timed(self.solve_grids)
        n_starts = sum(m.n_states for m in self.mdps)
        self.samples["tabular_starts_per_s"].append(n_starts / dt)
        sols, dt = _timed(lambda: [
            baselines.two_start_bandit_solvers(self.bandit, mode, p) for mode, p in self.sweep])
        self.samples["bandit_solves_per_s"].append(len(self.sweep) / dt)
        self.attempted += n_starts + len(self.sweep)
        if self.first is None:
            self.first = (grids, sols)
        else:
            self.same("oracle grids", self.first[0], grids)
            self.same("oracle bandit", self.first[1], sols)
        self.units += 1

    def check(self) -> list[str]:
        grids, sols = self.first
        errs = list(self.errors)
        for (hazards, goal, costs), mdp, (values, z_stars) in zip(self.layouts, self.mdps, grids):
            hz = set(hazards)
            errs += checks.check_grid_mdp(mdp, GRID, hz, goal, costs)
            residual = checks.backup_residual(values, GRID, hz, goal, costs, self.z_grid, BIG_C)
            if residual != 0.0:
                errs.append(f"one more backup sweep moves the table by {residual}")
            errs += checks.check_grid_budgets(GRID, hz, goal, costs, z_stars, DELTA)
        arms = checks.bandit_arms(self.bandit)
        for sol in sols:
            errs += checks.check_bandit(arms, sol)
        return errs


GROUPS = {"train": TrainGroup, "deploy": DeployGroup, "oracle": OracleGroup}
