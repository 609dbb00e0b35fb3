"""Command-line front end: train, tune, search budgets, deploy, audit."""

from __future__ import annotations

import csv
import json
import math
import os
import zipfile

import click
import numpy as np
import yaml

from . import approx, baselines, rcppo
from .augment import augmented_margin
from .config import (
    baseline_from,
    build_problem,
    config_hash,
    load_config,
    phase1_from,
    phase2_from,
)
from .envkit import two_start_bandit_make

def write_log_csv(path: str, rows: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(rcppo.LOG_COLUMNS)
        for row in rows:
            writer.writerow([
                repr(row[c]) if isinstance(row[c], float) else row[c]
                for c in rcppo.LOG_COLUMNS
            ])


def write_trajectory_csv(path: str, traj: rcppo.Trajectory, problem, big_c: float) -> None:
    """One row per visited state; the final row has no action or cost.
    ghat weighs the flag by big_c, which is 1.0 for a policy without one."""
    d, a = problem.state_dim, problem.action_dim
    g = np.asarray(problem.goal_margin(traj.states), dtype=np.float64)
    h = np.asarray(problem.avoid_margin(traj.states), dtype=np.float64)
    ghat = augmented_margin(g, traj.y, traj.z, big_c)
    cols = (
        ["t"]
        + [f"x{i}" for i in range(d)]
        + [f"u{i}" for i in range(a)]
        + ["g", "h", "ghat", "y", "z", "cost"]
    )
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(cols)
        n_rows = traj.states.shape[0]
        for t in range(n_rows):
            row: list = [t]
            row += [repr(float(v)) for v in traj.states[t]]
            if t < traj.length:
                row += [repr(float(v)) for v in traj.actions[t]]
            else:
                row += [""] * a
            row += [
                repr(float(g[t])), repr(float(h[t])),
                repr(float(ghat[t])), repr(float(traj.y[t])),
                repr(float(traj.z[t])),
            ]
            row.append(repr(float(traj.costs[t])) if t < traj.length else "")
            writer.writerow(row)


# the ZRegressor fields a budget-regressor checkpoint keeps in its meta
_ZMAP_FIELDS = ("z_min", "z_max", "holdout_mae", "n_infeasible")
# artifact kind -> (its name in the hash refusal, in the wrong-kind refusal,
# the meta keys its readers use); a budget-conditioned policy also needs
# z_min and z_max
_KINDS = {
    "policy": ("policy checkpoint", "a policy checkpoint", ("obs_scale",)),
    "value": ("value checkpoint", "a value checkpoint", ("obs_scale", "z_min", "z_max", "big_c")),
    "zmap": ("budget regressor", "a budget-regressor checkpoint", _ZMAP_FIELDS),
}


def save_artifact(path: str, obj, meta: dict) -> None:
    """Write a policy, value net or budget regressor with its meta.

    The array names carry the kind (policy_*, value_*, zmap_*). A
    regressor adds its own fields and "kind": "z_regressor" to meta.
    """
    if isinstance(obj, approx.GaussianPolicyParams):
        arrays = approx.policy_to_arrays(obj)
    elif isinstance(obj, rcppo.ZRegressor):
        arrays = dict(approx.mlp_to_arrays("zmap", obj.net), zmap_obs_scale=obj.obs_scale)
        meta = dict(meta, kind="z_regressor", **{f: getattr(obj, f) for f in _ZMAP_FIELDS})
    else:
        arrays = approx.mlp_to_arrays("value", obj)
    approx.save_checkpoint(path, arrays, meta)


def load_artifact(path: str, kind: str, cfg: dict, force: bool):
    """(object, meta) from a "policy", "value" or "zmap" checkpoint.

    The kind is read from the array names. An unreadable file and a
    file of another kind are refused; so is a config hash other than
    cfg's, unless force, and a meta without the keys the kind's readers
    use. A file that carries no hash loads as it is.
    """
    what, kind_name, keys = _KINDS[kind]
    try:
        arrays, meta = approx.load_checkpoint(path)
    except (OSError, ValueError, zipfile.BadZipFile) as exc:
        raise click.ClickException(f"cannot read {path}: {exc}") from exc
    if f"{kind}_w0" not in arrays:
        raise click.ClickException(f"{path} is not {kind_name}")
    stored, current = meta.get("config_hash"), config_hash(cfg)
    if stored is not None and stored != current and not force:
        raise click.ClickException(
            f"{what} was produced under config hash {stored[:12]}..., current is "
            f"{current[:12]}...; pass --force to use it anyway"
        )
    if kind == "policy" and rcppo.budget_conditioned(meta):
        keys += ("z_min", "z_max")
    missing = [k for k in keys if k not in meta]
    if missing:
        raise click.ClickException(f"{path} has no {', '.join(missing)} in its meta")
    if kind == "policy":
        return approx.policy_from_arrays(arrays), meta
    net = approx.mlp_from_arrays(kind, arrays)
    if kind == "value":
        return net, meta
    fields = {f: meta[f] for f in _ZMAP_FIELDS}
    return rcppo.ZRegressor(net=net, obs_scale=arrays["zmap_obs_scale"], **fields), meta


def _echo_config(cfg: dict) -> None:
    click.echo(yaml.safe_dump(cfg, sort_keys=True).rstrip())
    click.echo(f"config_hash: {config_hash(cfg)}")


def _parse_state(text: str, dim: int) -> np.ndarray:
    try:
        vals = [float(v) for v in text.split(",")]
    except ValueError as exc:
        raise click.ClickException(f"bad --state {text!r}: {exc}") from exc
    if len(vals) != dim:
        raise click.ClickException(f"--state needs {dim} components, got {len(vals)}")
    return np.asarray(vals)


def _z_source_from_options(cfg, meta, z, zmap, value, tol, force):
    """The budget source for deploy/evaluate from mutually exclusive options.

    A budget-conditioned policy, by its meta, must be given one.
    """
    given = [opt for opt in (z, zmap, value) if opt is not None]
    if len(given) > 1:
        raise click.ClickException("pass at most one of --z, --zmap, --value")
    if not given and rcppo.budget_conditioned(meta):
        raise click.ClickException(
            "budget-conditioned policy needs a budget: pass --z, --zmap, or --value"
        )
    if z is not None:
        return float(z)
    if zmap is not None:
        return load_artifact(zmap, "zmap", cfg, force)[0]
    if value is not None:
        val_params, vmeta = load_artifact(value, "value", cfg, force)
        fn = rcppo.value_fn_from(val_params, vmeta)
        if tol is None:
            tol = cfg["eval"]["tol"]

        def source(x, y):
            sol = rcppo.bisect_z_star(fn, x, y, vmeta["z_min"], vmeta["z_max"], tol)
            return sol.z_star

        return source
    return None


class _Commands(click.Group):
    """A bad input (a ValueError or RuntimeError, a config that is not
    YAML) ends any command with one `Error:` line and exit status 1."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (click.exceptions.Exit, click.Abort):
            raise
        except (ValueError, RuntimeError, yaml.YAMLError) as exc:
            raise click.ClickException(" ".join(str(exc).split())) from exc


@click.group(cls=_Commands)
def main() -> None:
    """Budget-conditioned reach-avoid training and deployment."""


@main.command()
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--out", "out_dir", type=click.Path(), required=True)
@click.option("--seed", type=int, default=None, help="override the configured seed")
@click.option(
    "--algorithm", type=click.Choice(["rcppo", "baseline"]), default="rcppo"
)
def train(config_path, out_dir, seed, algorithm):
    """Train a policy and value; write checkpoints and a training log."""
    cfg = load_config(config_path)
    _echo_config(cfg)
    problem = build_problem(cfg)
    if algorithm == "rcppo":
        result = rcppo.train_phase1(problem, phase1_from(cfg, seed))
    else:
        result = baselines.train_ppo_baseline(problem, baseline_from(cfg, seed))
    os.makedirs(out_dir, exist_ok=True)
    meta = dict(result.meta)
    meta["config_hash"] = config_hash(cfg)
    save_artifact(os.path.join(out_dir, "policy.ckpt"), result.policy, meta)
    save_artifact(os.path.join(out_dir, "value.ckpt"), result.value, meta)
    write_log_csv(os.path.join(out_dir, "train_log.csv"), result.log_rows)
    with open(os.path.join(out_dir, "config.json"), "w") as fh:
        json.dump({"config": cfg, "hash": config_hash(cfg)}, fh, indent=1, sort_keys=True)
    last = result.log_rows[-1] if result.log_rows else {}
    click.echo(
        f"trained {algorithm}: {len(result.log_rows)} iterations, "
        f"final reach_rate {last.get('reach_rate', math.nan)}"
    )


@main.command()
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--run", "run_dir", type=click.Path(exists=True), required=True,
              help="directory with policy.ckpt and value.ckpt from train")
@click.option("--out", "out_dir", type=click.Path(), required=True)
@click.option("--seed", type=int, default=None)
@click.option("--force", is_flag=True, help="ignore config hash mismatches")
def finetune(config_path, run_dir, out_dir, seed, force):
    """Fine-tune the value under the frozen mode policy (phase 2)."""
    cfg = load_config(config_path)
    _echo_config(cfg)
    problem = build_problem(cfg)
    policy, meta = load_artifact(os.path.join(run_dir, "policy.ckpt"), "policy", cfg, force)
    if not rcppo.budget_conditioned(meta):
        raise click.ClickException("phase 2 applies to budget-conditioned checkpoints only")
    value, vmeta = load_artifact(os.path.join(run_dir, "value.ckpt"), "value", cfg, force)
    # the value's meta is checked for big_c, the policy's is not
    meta = dict(meta, big_c=vmeta["big_c"])
    value2, rows, meta2 = rcppo.finetune_phase2(
        problem, policy, value, meta, phase2_from(cfg, seed)
    )
    os.makedirs(out_dir, exist_ok=True)
    meta2["config_hash"] = config_hash(cfg)
    save_artifact(os.path.join(out_dir, "value_phase2.ckpt"), value2, meta2)
    write_log_csv(os.path.join(out_dir, "finetune_log.csv"), rows)
    click.echo(
        f"fine-tuned value for {rows[-1]['env_steps'] if rows else 0} steps "
        f"at gamma {meta2['phase2_gamma']}"
    )


@main.command()
@click.option("--value", "value_path", type=click.Path(), required=True)
@click.option("--state", required=True, help="comma-separated raw state")
@click.option("--y", "y_flag", type=float, default=-1.0, show_default=True)
@click.option("--tol", type=float, default=1e-2, show_default=True)
@click.option("--scan", type=int, default=33, show_default=True,
              help="points for the monotonicity pre-scan (0 disables)")
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--force", is_flag=True, help="ignore config hash mismatches")
def bisect(value_path, state, y_flag, tol, scan, config_path, force):
    """Find the smallest feasible budget at a state from a value checkpoint."""
    cfg = load_config(config_path)
    problem = build_problem(cfg)
    value, meta = load_artifact(value_path, "value", cfg, force)
    x = _parse_state(state, problem.state_dim)
    fn = rcppo.value_fn_from(value, meta)
    try:
        sol = rcppo.bisect_z_star(
            fn, x, y_flag, meta["z_min"], meta["z_max"], tol, scan_points=scan
        )
    except rcppo.Infeasible as exc:
        click.echo(json.dumps({"infeasible": True, "detail": str(exc)}))
        raise SystemExit(2)
    click.echo(json.dumps({
        "z_star": sol.z_star,
        "v_at_zstar": sol.v_at_zstar,
        "bracket": list(sol.bracket),
        "iterations": sol.iterations,
        "monotone_violations": sol.monotone_violations,
    }))


@main.command("fit-zmap")
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--value", "value_path", type=click.Path(), required=True)
@click.option("--out", "out_path", type=click.Path(), required=True)
@click.option("--samples", type=int, default=512, show_default=True)
@click.option("--tol", type=float, default=1e-2, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--force", is_flag=True, help="ignore config hash mismatches")
def fit_zmap(config_path, value_path, out_path, samples, tol, seed, force):
    """Distill per-state minimal budgets into a small regressor."""
    cfg = load_config(config_path)
    problem = build_problem(cfg)
    value, meta = load_artifact(value_path, "value", cfg, force)
    fn = rcppo.value_fn_from(value, meta)
    reg = rcppo.fit_z_regressor(fn, problem, meta, n_samples=samples, tol=tol, seed=seed)
    save_artifact(out_path, reg, {"config_hash": config_hash(cfg)})
    click.echo(
        f"fit budget regressor on {samples - reg.n_infeasible} states "
        f"({reg.n_infeasible} infeasible dropped), holdout MAE {reg.holdout_mae:.4g}"
    )


@main.command()
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--policy", "policy_path", type=click.Path(), required=True)
@click.option("--state", required=True, help="comma-separated raw start state")
@click.option("--z", type=float, default=None, help="fixed starting budget")
@click.option("--zmap", type=click.Path(), default=None)
@click.option("--value", type=click.Path(), default=None,
              help="value checkpoint; budget found by bisection")
@click.option("--tol", type=float, default=None, help="bisection tolerance [default: eval.tol]")
@click.option("--out", "out_path", type=click.Path(), required=True)
@click.option("--force", is_flag=True)
def deploy(config_path, policy_path, state, z, zmap, value, tol, out_path, force):
    """Roll the mode policy from one state and dump the trajectory CSV."""
    cfg = load_config(config_path)
    problem = build_problem(cfg)
    policy, meta = load_artifact(policy_path, "policy", cfg, force)
    x0 = _parse_state(state, problem.state_dim)
    z_source = _z_source_from_options(cfg, meta, z, zmap, value, tol, force)
    traj = rcppo.deploy_policy(problem, policy, meta, z_source, x0)
    write_trajectory_csv(out_path, traj, problem, meta.get("big_c", 1.0))
    click.echo(json.dumps({
        "reached": traj.reached,
        "violated": traj.violated,
        "steps": traj.length,
        "cumulative_cost": traj.cum_cost,
        "z0": traj.z0,
        "infeasible_start": traj.infeasible_start,
    }))


@main.command()
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--policy", "policy_path", type=click.Path(), required=True)
@click.option("--z", type=float, default=None)
@click.option("--zmap", type=click.Path(), default=None)
@click.option("--value", type=click.Path(), default=None)
@click.option("--tol", type=float, default=None, help="bisection tolerance [default: eval.tol]")
@click.option("--episodes", type=int, default=None, help="override eval.n_episodes")
@click.option("--seed", type=int, default=None, help="override eval.seed")
@click.option("--out", "out_path", type=click.Path(), default=None,
              help="write the full JSON report here")
@click.option("--force", is_flag=True)
def evaluate(config_path, policy_path, z, zmap, value, tol, episodes, seed, out_path, force):
    """Deploy over sampled starts and report reach, violation, and cost."""
    cfg = load_config(config_path)
    problem = build_problem(cfg)
    policy, meta = load_artifact(policy_path, "policy", cfg, force)
    z_source = _z_source_from_options(cfg, meta, z, zmap, value, tol, force)
    n = episodes if episodes is not None else cfg["eval"]["n_episodes"]
    s = seed if seed is not None else cfg["eval"]["seed"]
    report = rcppo.evaluate_policy(problem, policy, meta, z_source, n, seed=s)
    if out_path:
        with open(out_path, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
    click.echo(json.dumps({
        k: report[k]
        for k in ("n_episodes", "reach_rate", "violation_rate",
                  "mean_cost_reached", "median_cost_reached")
    }))


@main.command()
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--out", "out_path", type=click.Path(), required=True)
@click.option("--seed", type=int, default=0, show_default=True)
def gridsearch(config_path, out_path, seed):
    """Sweep scalarization weights; write the reach/cost table with front marks."""
    cfg = load_config(config_path)
    _echo_config(cfg)
    problem = build_problem(cfg)
    gs = cfg["grid_search"]
    rows = baselines.grid_search(
        problem,
        baseline_from(cfg),
        r_goal_values=gs["r_goal"],
        p_goal_values=gs["p_goal"],
        beta_values=gs["beta"],
        n_eval_episodes=gs["n_eval_episodes"],
        seed=seed,
        n_workers=gs["n_workers"],
    )
    baselines.write_grid_csv(out_path, rows)
    n_front = sum(1 for r in rows if r["on_front"])
    n_fail = sum(1 for r in rows if r["error"])
    click.echo(f"swept {len(rows)} cells: {n_front} on the front, {n_fail} failed")


@main.command("oracle-check")
def oracle_check():
    """Audit the two-state testbed against its published summary table.

    Each line compares a computed quantity to the published value. The
    thresholded-mode reward line is expected to fail: the published
    16.67-vs-23.33 entry does not satisfy its own cost bound algebra,
    and this check reports the discrepancy rather than papering over it
    (see README, known discrepancies).
    """
    mdp = two_start_bandit_make()
    checks: list[tuple[str, float, float]] = []
    sol = baselines.two_start_bandit_solvers(mdp, "reach_min_cost")
    checks.append(("reach_min_cost expected_reward", sol["expected_reward"], 15.0))
    checks.append(("reach_min_cost expected_cost", sol["expected_cost"], 20.0))
    checks.append(("reach_min_cost reach_prob", sol["reach_prob"], 1.0))
    thr = baselines.two_start_bandit_solvers(mdp, "thresholded", 20.0)
    checks.append(("thresholded(20) expected_cost", thr["expected_cost"], 20.0))
    checks.append(("thresholded(20) expected_reward", thr["expected_reward"], 23.33))
    enum = thr["enumerated"]
    checks.append(
        ("thresholded(20) enumeration agreement",
         thr["expected_reward"], enum["expected_reward"])
    )
    failed = 0
    for name, got, want in checks:
        ok = math.isclose(got, want, rel_tol=0, abs_tol=0.05)
        click.echo(f"{'PASS' if ok else 'FAIL'} {name}: computed {got:.4f}, expected {want:.4f}")
        failed += 0 if ok else 1
    if failed:
        click.echo(f"{failed} check(s) failed")
        raise SystemExit(1)
    click.echo("all checks passed")


if __name__ == "__main__":
    main()
