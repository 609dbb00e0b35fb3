"""Pinned sha256 digests of short tiny-net runs.

Each case runs a trainer, a rollout collection or an evaluation with
16x16 nets for a few iterations, fits a small budget regressor, solves
a small grid exactly or folds fixed episodes into advantages, and
hashes everything it returns:
arrays with their dtype and shape, log rows as JSON in their own key
order, dataclasses field by field. The pins were captured before the
trainers and deployment shared one lane engine and one update loop, so
a refactor of either that moves one bit of any output fails here. The
regressor, grid and advantage pins were captured before the augmented
transition and the reach backup each got a single definition; the
12x12 grid, bisection and backup-sweep pins before the greedy sweep
took the minimum successor value ahead of its one backup. The two
regressor pins and the regressor checkpoint pin were captured again
when the regressor's Adam epochs moved to float32; the labels and the
float64 artifact layout did not change. The bandit-solver pin was
captured while each of the testbed's three modes still had its own
solve and tie rule, before they shared one vertex search. The
bench-sized 12x12 table pin was captured before the greedy sweep
backed up into reused arrays.

The digests hold for a given numpy and BLAS build; a different build
may round a matmul differently and needs the pins captured again.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from reachbudget import baselines, cli, rcppo, reachval
from reachbudget.augment import AugmentedGoalParams
from reachbudget.config import config_hash, load_config
from reachbudget.envkit import (
    ControlNoiseWrapper,
    NoiseWrapperConfig,
    grid_reachavoid_make,
    pendulum_make,
    two_start_bandit_make,
    windfield_make,
)

from oracles import fixed_policy_values, tabular_q_values
from test_baselines import SOLVER_CASES

ENVS = {
    "pendulum": pendulum_make,
    "windfield": windfield_make,
    "noisy": lambda: ControlNoiseWrapper(
        pendulum_make(), NoiseWrapperConfig(noise_half_width=0.1, seed=5)
    ),
}

PHASE1 = dict(total_steps=1200, n_envs=3, epochs=2, minibatch_size=64, hidden=(16, 16))
PHASE2 = dict(total_steps=800, n_envs=3, epochs=2, minibatch_size=64, seed=4)
BASELINE = dict(total_steps=1200, n_envs=3, epochs=2, minibatch_size=64, hidden=(16, 16))


def _feed(h, obj) -> None:
    if isinstance(obj, np.ndarray):
        h.update(repr((obj.dtype.str, obj.shape)).encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            h.update(f.name.encode())
            _feed(h, getattr(obj, f.name))
    elif isinstance(obj, (list, tuple)) and any(
        isinstance(v, np.ndarray) or dataclasses.is_dataclass(v) for v in obj
    ):
        for v in obj:
            _feed(h, v)
    else:
        h.update(json.dumps(obj, default=repr).encode())


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        _feed(h, part)
    return h.hexdigest()


def _phase1(env: str, seed: int = 2):
    cfg = rcppo.Phase1Config(**PHASE1, seed=seed)
    return rcppo.train_phase1(ENVS[env](), cfg)


def _run_phase1(env):
    res = _phase1(env)
    return (res.policy.trainable(), res.value.trainable(), res.log_rows, res.meta)


def _run_phase2(env):
    res = _phase1(env)
    value2, rows, meta2 = rcppo.finetune_phase2(
        ENVS[env](), res.policy, res.value, res.meta, rcppo.Phase2Config(**PHASE2)
    )
    return (value2.trainable(), rows, meta2)


def _run_baseline(env, shaping):
    reward = baselines.LagrangianRewardConfig(
        beta=0.5, p_goal=1.0, shaping_enabled=shaping, shaping_k=2.0
    )
    cfg = baselines.BaselineConfig(**BASELINE, reward=reward, seed=6)
    res = baselines.train_ppo_baseline(ENVS[env](), cfg)
    return (res.policy.trainable(), res.value.trainable(), res.log_rows, res.meta)


def _run_rollouts(env, deterministic):
    res = _phase1(env)
    problem = ENVS[env]()
    cfg = rcppo.Phase1Config(**PHASE1, seed=2, z_max=res.meta["z_max"])
    rng = np.random.Generator(np.random.PCG64(8))
    batch = rcppo.collect_rollouts(
        problem, res.policy, res.value, cfg, AugmentedGoalParams(big_c=res.meta["big_c"]),
        rng, res.meta["z_max"], deterministic=deterministic,
    )
    return (batch.episodes,)


def _run_evaluate(env, source):
    res = _phase1(env)
    problem = ENVS[env]()
    if source == "fixed":
        z_source, meta = 0.2 * res.meta["z_max"], res.meta
    elif source == "bisected":
        # decreasing in z, with a root past z_max (Infeasible) for the
        # starts farthest from the origin
        scale, z_max = problem.obs_scale, res.meta["z_max"]

        def value_fn(x, y, z):
            return 1.2 * z_max * float(np.sum((np.asarray(x) / scale) ** 2)) + 100.0 * y - z

        def z_source(x, y):
            return rcppo.bisect_z_star(
                value_fn, x, y, res.meta["z_min"], res.meta["z_max"], tol=5.0
            ).z_star

        meta = res.meta
    else:
        base = baselines.BaselineConfig(**BASELINE, seed=6)
        trained = baselines.train_ppo_baseline(ENVS[env](), base)
        z_source, meta = None, trained.meta
        res = trained
    report = rcppo.evaluate_policy(problem, res.policy, meta, z_source, 12, seed=9)
    return (report,)


def _zmap(env):
    # decreasing in z, with a root past z_max (Infeasible) for the
    # states farthest from the origin
    problem = ENVS[env]()
    meta = {"z_min": -1.0, "z_max": 600.0, "obs_scale": problem.obs_scale.tolist()}

    def value_fn(x, y, z):
        r2 = np.sum((np.asarray(x) / problem.obs_scale) ** 2, axis=-1)
        return 1.2 * meta["z_max"] * r2 + 100.0 * y - z

    return rcppo.fit_z_regressor(
        value_fn, problem, meta, n_samples=64, tol=0.5, seed=3, hidden=(16, 16), epochs=40
    )


def _run_zmap(env):
    reg = _zmap(env)
    return (reg.net.trainable(), reg.holdout_mae, reg.n_infeasible)


def _tabular(gamma):
    mdp = grid_reachavoid_make(6, 5, hazards=((1, 1), (2, 3), (3, 3)), goal_cell=(0, 4))
    aug = reachval.augment_tabular(mdp, reachval.make_z_grid(1.0, 30.0), big_c=350.0)
    return aug, reachval.tabular_value_iteration(aug, gamma=gamma)


def _run_tabular(operator):
    if operator == "greedy":
        return (_tabular(0.99)[1],)
    if operator == "greedy-undiscounted":
        return (_tabular(1.0)[1],)
    aug, table = _tabular(0.99)
    if operator == "q":
        return (tabular_q_values(aug, table),)
    policy = np.random.default_rng(5).integers(0, aug.mdp.n_actions, aug.shape)
    return (fixed_policy_values(aug, policy, 0.99),)


def _hazard_grid(seed):
    """A seeded 12x12 grid: a goal, about 15% hazard cells, leave costs 1 or 2."""
    rng = np.random.default_rng(seed)
    goal = (int(rng.integers(12)), int(rng.integers(12)))
    hazard = rng.random((12, 12)) < 0.15
    hazards = {(r, c) for r in range(12) for c in range(12) if hazard[r, c]} - {goal}
    leave = rng.integers(1, 3, (12, 12))
    costs = {(r, c): float(leave[r, c]) for r in range(12) for c in range(12)}
    mdp = grid_reachavoid_make(12, 12, tuple(sorted(hazards)), goal, step_cost_table=costs)
    return reachval.augment_tabular(mdp, reachval.make_z_grid(1.0, 290.0), big_c=350.0)


def _run_augment(seed):
    aug = _hazard_grid(seed)
    return (aug.ghat, aug.succ, aug.absorbing)


def _run_tabular_grid(seed):
    # the oracle benchmark's table size: 144 cells, 291 budget nodes
    return (reachval.tabular_value_iteration(_hazard_grid(seed), gamma=1.0),)


def _run_bisect_grid(seed):
    aug = _hazard_grid(seed)
    table = reachval.tabular_value_iteration(aug, gamma=1.0)
    out = []
    for s in range(aug.mdp.n_states):
        for y0 in (-1.0, 1.0):
            try:
                sol = rcppo.bisect_z_star(table.value_at, s, y0, -1.0, aug.z_grid[-1], tol=1e-6)
            except rcppo.Infeasible:
                out.append("infeasible")
                continue
            out.append([float(sol.z_star), [float(b) for b in sol.bracket],
                        sol.iterations, float(sol.v_at_zstar)])
    return (out,)


def _run_backup_sweep(form):
    # margins and values on a coarse integer lattice as well as continuous
    # ones, so ties and repeated successors are common; no margin is -0.0
    rng = np.random.default_rng(21)
    out = []
    for shape in ((40,), (5, 2, 7)):
        n = int(np.prod(shape))
        for ghat, values in (
            (rng.uniform(-300, 300, shape), rng.uniform(-300, 300, shape)),
            (rng.integers(-3, 4, shape).astype(float), rng.integers(-3, 4, shape).astype(float)),
        ):
            succ_shape = shape if form == "chain" else shape + (4,)
            succ = rng.integers(0, n, succ_shape)
            frozen = rng.random(shape) < 0.2
            for gamma in (1.0, 0.9):
                for fz in (None, frozen):
                    out.append(reachval.apply_backup_sweep(ghat, succ, values, gamma, frozen=fz))
    return (out,)


def _run_gae(mode):
    rng = np.random.default_rng(12)
    out = []
    for t_len, gamma, lam in ((1, 0.99, 0.95), (2, 0.9, 0.5), (9, 0.99, 0.95), (60, 0.9999, 0.98)):
        ghat, values = rng.uniform(-300, 300, t_len), rng.uniform(-300, 300, t_len)
        out += reachval._gae_arrays(ghat, values, float(rng.uniform(-300, 300)), gamma, lam, mode)
    return (out,)


def _ulps(x, k):
    """x and the k nearest floats on each side of it."""
    lo = hi = x
    out = [x]
    for _ in range(k):
        lo, hi = float(np.nextafter(lo, -np.inf)), float(np.nextafter(hi, np.inf))
        out += [lo, hi]
    return sorted(out)


def _run_bandit_solvers():
    # the test cases plus weights at the two scalarized ties and caps at
    # the published bound and at the cost of the unconstrained optimum
    mdp = two_start_bandit_make()
    cases = (
        SOLVER_CASES
        + [("scalarized", w) for tie in (2 / 3, 1.0) for w in _ulps(tie, 3)]
        + [("thresholded", c) for cap in (20.0, 25.0) for c in _ulps(cap, 1)]
    )
    return ([baselines.two_start_bandit_solvers(mdp, mode, p) for mode, p in cases],)


CASES = {"bandit-solvers": (_run_bandit_solvers,)}
for _env in ("pendulum", "windfield"):
    CASES[f"zmap-{_env}"] = (_run_zmap, _env)
for _operator in ("greedy", "greedy-undiscounted", "policy", "q"):
    CASES[f"tabular-{_operator}"] = (_run_tabular, _operator)
for _seed in (0, 1):
    CASES[f"augment-grid-{_seed}"] = (_run_augment, _seed)
    CASES[f"bisect-grid-{_seed}"] = (_run_bisect_grid, _seed)
CASES["tabular-grid-0"] = (_run_tabular_grid, 0)
for _form in ("chain", "greedy"):
    CASES[f"backup-sweep-{_form}"] = (_run_backup_sweep, _form)
for _mode in ("renormalized", "literal"):
    CASES[f"gae-{_mode}"] = (_run_gae, _mode)
for _env in ENVS:
    CASES[f"phase1-{_env}"] = (_run_phase1, _env)
    CASES[f"phase2-{_env}"] = (_run_phase2, _env)
    CASES[f"baseline-{_env}"] = (_run_baseline, _env, False)
    CASES[f"baseline-shaped-{_env}"] = (_run_baseline, _env, True)
    CASES[f"rollouts-sampled-{_env}"] = (_run_rollouts, _env, False)
    CASES[f"rollouts-mode-{_env}"] = (_run_rollouts, _env, True)
    for _source in ("fixed", "bisected", "none"):
        CASES[f"evaluate-{_source}-{_env}"] = (_run_evaluate, _env, _source)

PINS = {
    "augment-grid-0": "701ac83780bcf18e1e497cd1258c04b24094af036e8005d55e497a2e5588d0ad",
    "augment-grid-1": "b8a4e673ff7bb0a73f03e40497b4d332d94a760421fc342d31de2f5a996470c9",
    "backup-sweep-chain": "593ffc785bec653ba1ad8c996bb3e9f2864c93e7c1fbc04f28e41eeb098b58d4",
    "backup-sweep-greedy": "3d991f1dee21e66adc6f1ed7b24ad483d5dc8e3af564ecf39860199f5d9bbf9f",
    "bandit-solvers": "6b5929f509744e8075390d7294e1711cea867bff6ce546e41966138a997164f4",
    "baseline-noisy": "d4defcb223473c53c5d76d52a0e899fa7ccfe02168b5a2a2c31d72647580228f",
    "baseline-pendulum": "5ae4f796c8a0da0c25ffb696396502871ac553d3c0cafe54251ca5acd65aff59",
    "baseline-shaped-noisy": "f4d79acefb5088b11f47bc65a507ef0091f2ad972efed5ba184ffeb6c95c5eea",
    "baseline-shaped-pendulum": "89dedfe9f9fb209f82b0ee61f142a805b9d89cce3688b9de978347f7b6ef59d1",
    "baseline-shaped-windfield": "aa08e4ee8bed263380b45fc6bb5a5523e02d5eec7eaec9bb7dd299d5de34f89d",
    "baseline-windfield": "7882a9b66040362d6e3c0fc1cc46436365bd8bf7bb522e7fde5fca273d952059",
    "bisect-grid-0": "43d4a3113849958e0668ae8e2189dbecb1ab9d7ec92cb47d4a2d0eb0971fc43f",
    "bisect-grid-1": "f30a9e46c6c0b0f70b5d1731f8cbe953de1883f86fcc28124aa0a7a18500a18e",
    "evaluate-bisected-noisy": "b55074cd6de60adfbaf533ff94913350e0c194668da068c29104ca8079ed430e",
    "evaluate-bisected-pendulum": "585a62ca84b056361944c5b85960c01086f032cbcb038cc7960206a2fce55bea",
    "evaluate-bisected-windfield": "ed3649ab8501d1bfad774b06ee31a1e5f24ff8155ae18b279e437b4e46d703c8",
    "evaluate-fixed-noisy": "315c56fd862cdad82c18749673adeece34ddd5e981cd0c2f4528f0f4f54c27fe",
    "evaluate-fixed-pendulum": "e77ba7e6facc453e694dfb4c7436b432b2b185efa0dfba5c6dcfb3cc55361b8d",
    "evaluate-fixed-windfield": "8f1b3f5417e70d4642975156339a413c626bce483db6e8d16bb2808f27a1d3e3",
    "evaluate-none-noisy": "d951ac6197d10c33ffca31388b292fa62896e74f9f6a498ab556108b02c47b8f",
    "evaluate-none-pendulum": "8652b1a7b02ba70cf6e928dc61a20358f9cbccd253a88675bb20389a6b6c007c",
    "evaluate-none-windfield": "a90f835a73cf70966e459ed53714dd2b057c725c79950fa512d48a248797f760",
    "gae-literal": "407a7faeae12ad3a57734091ebe796164bf998b862059c0bc8c1443ae1ac2ee8",
    "gae-renormalized": "2ada9b6593e000f87bdb9df5d325d9353032259f81fbb8db405bbe63758e0532",
    "phase1-noisy": "c07d7c1e39c9879d4e5759de2879da560b02d37a26491512f65fe42b1aea8790",
    "phase1-pendulum": "b4e34100aa6998d3469388ba84e97d114a206d7e70dc3f301f5832b671c29d0e",
    "phase1-windfield": "69a7d6a202ff14fd57a4da0884f50ff6cda09531ad848299db8f46f3639485cc",
    "phase2-noisy": "86822fe4ab47da95da2517c45aef58644463903c35bdaa27c51215476e1692e9",
    "phase2-pendulum": "ff2bddb80fd91941921b0e1fabe1f85a4f40211127f228c4def4f6d10faba47b",
    "phase2-windfield": "9ea0630437d1511f4ae728e703557b3f48341be8bb20e71f9f6104322c0e58fd",
    "rollouts-mode-noisy": "3deb820a46ae031558f3e9c66658b050054193ac2340f09942184b02c8e1ee19",
    "rollouts-mode-pendulum": "be93badecc8962536cc562f6d4229a1f190ca08ed938d22ec8e45298b4c18c50",
    "rollouts-mode-windfield": "09c60ae07d05a8786884665488cf61c7bf8e37b3b45f210a50fe560bc8b544dc",
    "rollouts-sampled-noisy": "4f159c532ca6f9c01e7d9f5adb806f08809a11135725131c14c74d0a7e3db22e",
    "rollouts-sampled-pendulum": "efa1c2bdc05d12a574d6066ac9b52c78b408564318d9c7fe41000203d1992299",
    "rollouts-sampled-windfield": "b8824f9dcfa9791a5ab43fe0ee61b2a7415b593ff1e11e88f8dd966b3c4ca4da",
    "tabular-greedy": "5f68867d5c5f9ac7a7c77828efb7e2d28d24671c639782c62b6f8d583551f878",
    "tabular-greedy-undiscounted": "660415c200c05309b0e4407a60fca1414bead736912c6a7f31af355ffff95806",
    "tabular-grid-0": "40d36de743260969cccda1bde079cb9099493c8890c8ecfed404d15180c5fe24",
    "tabular-policy": "40c61d83931ffcac1f4220c21f0481135b0db28da6f0dcd6095fb21c3d975cf2",
    "tabular-q": "5548fa0ffc0653db417b920195c3a4960e741dd6177684dbc6e9ad98f1d56124",
    "zmap-pendulum": "a3cde411215006e3b7bfce879c96528090264b1825b7c363bcd47eff8884dba7",
    "zmap-windfield": "240895b2c7afea5b445e32b5880f7f6fb251d9f083b48ba145f4645a98e56001",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_short_runs_match_their_pinned_digests(case):
    fn, *args = CASES[case]
    assert _digest(*fn(*args)) == PINS[case]


# sha256 of the checkpoint files the CLI writes for seeded nets: the
# phase-1 policy and value of the short pendulum run above and the
# pendulum budget regressor. The policy and value pins were captured
# while each net still held its arrays one per layer, so moving the
# parameters into one vector must leave the saved bytes alone; the
# regressor pin, again once its fit ran in float32.
CHECKPOINT_PINS = {
    "policy": "13effa5c8a8624e4cf1a46232f61d75fdaf7691845a5106e2df837e3d9db53ad",
    "value": "e9937e02b65df71fcf24683c430a68f9007b73a439d4f9a6692588a175b5f300",
    "zmap": "2b2b2716bbecdbc1354c7c6609003cf947f8f721d9b35fb8efa29a3736187f98",
}


def _save_checkpoint(kind, path):
    if kind == "zmap":
        meta = {"config_hash": config_hash(load_config(None))}
        cli.save_artifact(path, _zmap("pendulum"), meta)
        return
    res = _phase1("pendulum")
    cli.save_artifact(path, res.policy if kind == "policy" else res.value, res.meta)


@pytest.mark.parametrize("kind", sorted(CHECKPOINT_PINS))
def test_saved_checkpoints_match_their_pinned_digests(kind, tmp_path):
    path = str(tmp_path / f"{kind}.ckpt")
    _save_checkpoint(kind, path)
    with open(path, "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == CHECKPOINT_PINS[kind]
