"""Shared fixtures, the acceptance report hook, and the run cache.

Training fixtures are expensive, so their artifacts are cached under
tests/_cache keyed by a hash of the exact training configuration;
training is bit-reproducible, which makes a cache hit equivalent to
retraining. Delete the directory to force fresh runs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os

# One BLAS thread, set before numpy loads, as the package and the bench
# pin it: training then takes its two-thread minibatch path, which the
# goldens and the acceptance claims check.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from reachbudget import approx, baselines, rcppo  # noqa: E402
from reachbudget.envkit import (  # noqa: E402
    two_start_bandit_make,
    grid_reachavoid_make,
    pendulum_make,
    windfield_make,
)

CACHE_DIR = os.path.join(os.path.dirname(__file__), "_cache")

# -- acceptance summary ----------------------------------------------------------

ACCEPTANCE_RESULTS: list[tuple[str, bool, str]] = []


def record_acceptance(name: str, ok: bool, detail: str) -> None:
    ACCEPTANCE_RESULTS.append((name, ok, detail))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for name, ok, detail in ACCEPTANCE_RESULTS:
        terminalreporter.write_line(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")


# -- basic fixtures --------------------------------------------------------------


@pytest.fixture(scope="session")
def pendulum():
    return pendulum_make()


@pytest.fixture(scope="session")
def windfield():
    return windfield_make()


@pytest.fixture(scope="session")
def grid5():
    return grid_reachavoid_make(
        5, 5, hazards=((1, 1), (2, 2), (3, 3)), goal_cell=(0, 0)
    )


@pytest.fixture(scope="session")
def testbed():
    return two_start_bandit_make()


# -- training artifact cache -----------------------------------------------------

# frozen budgets for the end-to-end criteria; the trainer is seeded and
# deterministic, so these fully pin the resulting artifacts
# z_max trades off coverage against conditioning: large enough that the
# expensive bottom starts (~450 under the trained policy) stay inside the
# budget range, small enough that sampled budgets actually bind during
# training.  600 hits both; 1600 never binds and the z channel goes dead.
RCPPO_PHASE1 = rcppo.Phase1Config(
    total_steps=1_600_000, n_envs=16, seed=0, z_max=600.0
)
# lam closer to one makes the refit lean on longer fold targets, which
# measurably tightens the deployed overspend tail versus the 0.95 default
RCPPO_PHASE2 = rcppo.Phase2Config(total_steps=400_000, n_envs=16, seed=1, lam=0.98)
# Bisection tolerance used when deploying: the minimal-budget search stops
# once the bracket is this wide, and the soundness check allows the same
# slack on realized cost.  1% of the budget search range, the stock choice.
DEPLOY_TOL = 6.0
# The low-beta comparator must actually reach before its cost means
# anything.  With the sparse bonus alone, abandoning the expensive
# bottom-of-swing starts is the scalarized optimum here (0.1 * ~450 > 20)
# and 2M steps converge to exactly that (reach 0.66).  The distance-based
# potential cannot fix it: a negative potential pays an idling dividend of
# (1 - gamma) * k * |theta| per step, which grows with k as fast as the
# approach incentive.  The per-step non-goal penalty is the knob that
# works: idling then leaks more than the worst swing-up costs, and the
# goal bonus and cost weight keep their stock values.
BASELINE_LO = baselines.BaselineConfig(
    total_steps=2_000_000, n_envs=16, seed=0,
    reward=baselines.LagrangianRewardConfig(beta=0.1, p_goal=1.0),
)
# reduced scalarization sweep: 3 x 3 x 3 cells, short budget per cell
GRID_SWEEP = {
    "r_goal": [2.0, 20.0, 200.0],
    "p_goal": [1.0, 10.0, 100.0],
    "beta": [0.1, 1.0, 10.0],
    "total_steps": 500_000,
    "n_eval_episodes": 64,
    "seed": 7,
}


def _cfg_hash(*cfgs) -> str:
    parts = []
    for cfg in cfgs:
        if dataclasses.is_dataclass(cfg):
            parts.append(dataclasses.asdict(cfg))
        else:
            parts.append(cfg)
    blob = json.dumps(parts, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def _cache_path(tag: str, key: str) -> str:
    return os.path.join(CACHE_DIR, f"{tag}-{key}")


@pytest.fixture(scope="session")
def pendulum_rcppo_artifacts(pendulum):
    """Phase-1 policy, phase-1 and phase-2 values, and their metas."""
    key = _cfg_hash(RCPPO_PHASE1, RCPPO_PHASE2)
    path = _cache_path("rcppo-pendulum", key)
    pol_p = os.path.join(path, "policy.ckpt")
    v1_p = os.path.join(path, "value1.ckpt")
    v2_p = os.path.join(path, "value2.ckpt")
    if not os.path.exists(v2_p):
        os.makedirs(path, exist_ok=True)
        result = rcppo.train_phase1(pendulum, RCPPO_PHASE1)
        approx.save_checkpoint(pol_p, approx.policy_to_arrays(result.policy), result.meta)
        approx.save_checkpoint(v1_p, approx.mlp_to_arrays("value", result.value), result.meta)
        with open(os.path.join(path, "train_log.json"), "w") as fh:
            json.dump(result.log_rows, fh)
        value2, rows2, meta2 = rcppo.finetune_phase2(
            pendulum, result.policy, result.value, result.meta, RCPPO_PHASE2
        )
        approx.save_checkpoint(v2_p, approx.mlp_to_arrays("value", value2), meta2)
        with open(os.path.join(path, "finetune_log.json"), "w") as fh:
            json.dump(rows2, fh)
    pol_arrays, meta = approx.load_checkpoint(pol_p)
    v1_arrays, _ = approx.load_checkpoint(v1_p)
    v2_arrays, meta2 = approx.load_checkpoint(v2_p)
    with open(os.path.join(path, "train_log.json")) as fh:
        log_rows = json.load(fh)
    return {
        "policy": approx.policy_from_arrays(pol_arrays),
        "value1": approx.mlp_from_arrays("value", v1_arrays),
        "value2": approx.mlp_from_arrays("value", v2_arrays),
        "meta": meta,
        "meta2": meta2,
        "log_rows": log_rows,
        "cache_dir": path,
    }


@pytest.fixture(scope="session")
def pendulum_baseline_artifacts(pendulum):
    """Low-beta scalarized baseline checkpoint and meta."""
    key = _cfg_hash(BASELINE_LO)
    path = _cache_path("baseline-pendulum", key)
    pol_p = os.path.join(path, "policy.ckpt")
    if not os.path.exists(pol_p):
        os.makedirs(path, exist_ok=True)
        result = baselines.train_ppo_baseline(pendulum, BASELINE_LO)
        approx.save_checkpoint(pol_p, approx.policy_to_arrays(result.policy), result.meta)
        with open(os.path.join(path, "train_log.json"), "w") as fh:
            json.dump(result.log_rows, fh)
    pol_arrays, meta = approx.load_checkpoint(pol_p)
    with open(os.path.join(path, "train_log.json")) as fh:
        log_rows = json.load(fh)
    return {
        "policy": approx.policy_from_arrays(pol_arrays),
        "meta": meta,
        "log_rows": log_rows,
        "cache_dir": path,
    }


@pytest.fixture(scope="session")
def pendulum_grid_rows(pendulum):
    """Reduced scalarization sweep results (27 trained cells)."""
    key = _cfg_hash(GRID_SWEEP)
    path = _cache_path("gridsweep-pendulum", key)
    rows_p = os.path.join(path, "rows.json")
    if not os.path.exists(rows_p):
        os.makedirs(path, exist_ok=True)
        base = baselines.BaselineConfig(total_steps=GRID_SWEEP["total_steps"], n_envs=16)
        rows = baselines.grid_search(
            pendulum,
            base,
            r_goal_values=GRID_SWEEP["r_goal"],
            p_goal_values=GRID_SWEEP["p_goal"],
            beta_values=GRID_SWEEP["beta"],
            n_eval_episodes=GRID_SWEEP["n_eval_episodes"],
            seed=GRID_SWEEP["seed"],
        )
        with open(rows_p, "w") as fh:
            json.dump(rows, fh)
        baselines.write_grid_csv(os.path.join(path, "grid.csv"), rows)
    with open(rows_p) as fh:
        return json.load(fh)
