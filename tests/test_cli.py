from __future__ import annotations

import csv
import json
import shutil
import zipfile

import click
import numpy as np
import pytest
import yaml
from click.testing import CliRunner

from reachbudget import approx, cli, rcppo
from reachbudget.config import config_hash, load_config
from reachbudget.rcppo import LOG_COLUMNS

TINY = {
    "train": {
        "total_steps": 300,
        "n_envs": 2,
        "epochs": 1,
        "minibatch_size": 64,
        "hidden": [8, 8],
        "z_max": 100.0,
    },
    "phase2": {
        "total_steps": 200,
        "n_envs": 2,
        "epochs": 1,
        "minibatch_size": 64,
    },
    "baseline": {
        "total_steps": 300,
        "n_envs": 2,
        "epochs": 1,
        "minibatch_size": 64,
        "hidden": [8, 8],
    },
    "grid_search": {
        "r_goal": [10.0],
        "p_goal": [0.0],
        "beta": [0.1],
        "n_eval_episodes": 2,
    },
    "eval": {"n_episodes": 2},
}


def _invoke(args):
    result = CliRunner().invoke(cli.main, args)
    assert result.exit_code == 0, result.output
    return result


def _last_json(result) -> dict:
    return json.loads(result.output.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def tiny_cfg(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "tiny.yaml"
    path.write_text(yaml.safe_dump(TINY))
    return str(path)


@pytest.fixture(scope="module")
def rcppo_run(tiny_cfg, tmp_path_factory):
    out = tmp_path_factory.mktemp("run") / "rcppo"
    _invoke(["train", "--config", tiny_cfg, "--out", str(out)])
    return str(out)


@pytest.fixture(scope="module")
def baseline_run(tiny_cfg, tmp_path_factory):
    out = tmp_path_factory.mktemp("run") / "baseline"
    _invoke(["train", "--config", tiny_cfg, "--out", str(out), "--algorithm", "baseline"])
    return str(out)


def _write_linear_value(path: str, z_coef: float, bias: float, z_max: float = 100.0):
    """Save a one-layer value net whose scaled output is bias + z_coef * z/z_max."""
    params = approx.mlp_init((4, 1), np.random.default_rng(0))
    params.weights[0][:] = 0.0
    params.weights[0][3, 0] = z_coef
    params.biases[0][:] = bias
    meta = {
        "algorithm": "rcppo",
        "obs_scale": [float(np.pi), 8.0],
        "z_min": -1.0,
        "z_max": z_max,
        "big_c": 987.0,
    }
    approx.save_checkpoint(path, approx.mlp_to_arrays("value", params), meta)


# the value nets see z normalized to (z - z_min) / (z_max - z_min), so a
# scaled output of 0.5 - z_norm crosses zero halfway through [-1, 100]
HALFWAY_Z = 49.5


@pytest.fixture(scope="module")
def halfway_value(tmp_path_factory):
    path = tmp_path_factory.mktemp("val") / "value.ckpt"
    _write_linear_value(str(path), z_coef=-1.0, bias=0.5)
    return str(path)


@pytest.fixture(scope="module")
def hopeless_value(tmp_path_factory):
    # positive at every budget, so every state is infeasible
    path = tmp_path_factory.mktemp("val") / "value.ckpt"
    _write_linear_value(str(path), z_coef=0.0, bias=0.1)
    return str(path)


def test_train_writes_checkpoints_log_and_config(tiny_cfg, rcppo_run, tmp_path):
    cfg = load_config(tiny_cfg)
    policy, meta = cli.load_artifact(f"{rcppo_run}/policy.ckpt", "policy", cfg, False)
    assert meta["algorithm"] == "rcppo"
    assert meta["z_max"] == 100.0
    assert "config_hash" in meta
    value, vmeta = cli.load_artifact(f"{rcppo_run}/value.ckpt", "value", cfg, False)
    assert vmeta["config_hash"] == meta["config_hash"]
    with open(f"{rcppo_run}/train_log.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(LOG_COLUMNS)
    assert len(rows) >= 2
    with open(f"{rcppo_run}/config.json") as fh:
        blob = json.load(fh)
    assert blob["hash"] == meta["config_hash"]
    assert blob["config"]["train"]["total_steps"] == 300


def test_train_echoes_resolved_config_and_hash(tiny_cfg, tmp_path):
    out = tmp_path / "echo"
    result = _invoke(["train", "--config", tiny_cfg, "--out", str(out)])
    assert "config_hash: " in result.output
    assert "total_steps: 300" in result.output
    assert "trained rcppo" in result.output


def test_train_baseline_algorithm_is_not_budget_conditioned(tiny_cfg, baseline_run):
    policy, meta = cli.load_artifact(
        f"{baseline_run}/policy.ckpt", "policy", load_config(tiny_cfg), False
    )
    assert meta["algorithm"] == "ppo_lagrangian"
    # raw state in, no budget channel
    assert policy.trunk.weights[0].shape[0] == 2


def test_finetune_writes_second_stage_value(tiny_cfg, rcppo_run, tmp_path):
    out = tmp_path / "p2"
    result = _invoke(["finetune", "--config", tiny_cfg, "--run", rcppo_run, "--out", str(out)])
    assert "fine-tuned value" in result.output
    value2, meta2 = cli.load_artifact(
        f"{out}/value_phase2.ckpt", "value", load_config(tiny_cfg), False
    )
    assert 0.0 < meta2["phase2_gamma"] < 1.0
    with open(f"{out}/finetune_log.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(LOG_COLUMNS)


def test_trainers_that_cannot_step_exit_with_an_error_line(tmp_path):
    # a 1x1 grid starts every episode in its goal, and with z_min = 0
    # every budget is nonnegative, so no trainer ever takes a step
    config = tmp_path / "goal_only.yaml"
    config.write_text(yaml.safe_dump(dict(
        TINY, env={"name": "grid", "width": 1, "height": 1},
        train=dict(TINY["train"], total_steps=0, z_min=0.0, big_c=10.0),
    )))

    def run(*args):
        return CliRunner().invoke(cli.main, [*args, "--config", str(config)])

    def assert_refused(out, *args):
        result = run(*args, "--out", str(out))
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit), result.exception
        assert "Error: no episode took a step: every start was already in the goal" in result.output
        assert not out.exists()  # a refused run leaves no output directory

    assert_refused(tmp_path / "b", "train", "--algorithm", "baseline")
    # phase 2 refuses too, from a phase-1 run of zero steps
    assert run("train", "--out", str(tmp_path / "r")).exit_code == 0
    assert_refused(tmp_path / "p2", "finetune", "--run", str(tmp_path / "r"))


def test_baseline_clip_eps_outside_the_unit_interval_is_refused(tmp_path):
    config = tmp_path / "wide_clip.yaml"
    config.write_text(yaml.safe_dump(dict(TINY, baseline=dict(TINY["baseline"], clip_eps=1.5))))
    for out, command in ((tmp_path / "run", ["train", "--algorithm", "baseline"]),
                         (tmp_path / "grid.csv", ["gridsearch"])):
        result = CliRunner().invoke(cli.main, [*command, "--config", str(config), "--out", str(out)])
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.output.strip().splitlines()[-1] == "Error: clip_eps must be in (0, 1)"
        assert not out.exists()


def test_config_values_that_cannot_run_are_refused_in_one_error_line(tmp_path):
    cases = {
        "Error: minibatch_size must be at least 1, got 0":
            dict(TINY, train=dict(TINY["train"], minibatch_size=0)),
        "Error: noise_half_width must be >= 0":
            dict(TINY, env={"name": "pendulum", "noise_half_width": -0.1}),
    }
    for i, (want, raw) in enumerate(cases.items()):
        config, out = tmp_path / f"bad{i}.yaml", tmp_path / f"run{i}"
        config.write_text(yaml.safe_dump(raw))
        result = CliRunner().invoke(cli.main, ["train", "--config", str(config), "--out", str(out)])
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.output.strip().splitlines()[-1] == want
        assert not out.exists()


def test_finetune_takes_big_c_from_the_value_checkpoint(tiny_cfg, rcppo_run, tmp_path):
    # load_artifact checks a value's meta for big_c, not a policy's
    run = tmp_path / "run"
    shutil.copytree(rcppo_run, run)
    arrays, meta = approx.load_checkpoint(str(run / "policy.ckpt"))
    approx.save_checkpoint(str(run / "policy.ckpt"), arrays, {k: v for k, v in meta.items() if k != "big_c"})
    _, vmeta = approx.load_checkpoint(str(run / "value.ckpt"))
    out = tmp_path / "p2"
    _invoke(["finetune", "--config", tiny_cfg, "--run", str(run), "--out", str(out)])
    _, meta2 = cli.load_artifact(f"{out}/value_phase2.ckpt", "value", load_config(tiny_cfg), False)
    assert meta2["big_c"] == vmeta["big_c"]
    # bisect loads it: a budget, or exit 2 for a state no budget makes feasible
    result = CliRunner().invoke(cli.main, [
        "bisect", "--config", tiny_cfg, "--value", f"{out}/value_phase2.ckpt", "--state", "1.0,0.0",
    ])
    assert result.exit_code in (0, 2), result.output
    assert ("z_star" in _last_json(result)) == (result.exit_code == 0)


def test_finetune_refuses_baseline_checkpoints(tiny_cfg, baseline_run, tmp_path):
    result = CliRunner().invoke(
        cli.main,
        ["finetune", "--config", tiny_cfg, "--run", baseline_run, "--out", str(tmp_path / "x")],
    )
    assert result.exit_code != 0
    assert "budget-conditioned checkpoints only" in result.output


def test_bisect_reports_the_zero_crossing(halfway_value):
    result = _invoke([
        "bisect", "--value", halfway_value, "--state", "1.0,0.0", "--tol", "1e-3",
    ])
    report = _last_json(result)
    assert report["z_star"] == pytest.approx(HALFWAY_Z, abs=1e-2)
    assert report["v_at_zstar"] <= 0.0
    assert report["monotone_violations"] == 0
    assert report["iterations"] > 0
    lo, hi = report["bracket"]
    assert lo <= report["z_star"] <= hi


def test_bisect_exits_2_when_no_budget_is_feasible(hopeless_value):
    result = CliRunner().invoke(
        cli.main, ["bisect", "--value", hopeless_value, "--state", "1.0,0.0"]
    )
    assert result.exit_code == 2
    report = _last_json(result)
    assert report["infeasible"] is True
    assert "detail" in report


def test_bisect_rejects_malformed_states(halfway_value):
    result = CliRunner().invoke(
        cli.main, ["bisect", "--value", halfway_value, "--state", "1.0"]
    )
    assert result.exit_code != 0
    assert "needs 2 components" in result.output
    result = CliRunner().invoke(
        cli.main, ["bisect", "--value", halfway_value, "--state", "a,b"]
    )
    assert result.exit_code != 0
    assert "bad --state" in result.output


def test_fit_zmap_distills_a_constant_budget_map(halfway_value, tmp_path):
    out = tmp_path / "zmap.ckpt"
    result = _invoke([
        "fit-zmap", "--value", halfway_value, "--out", str(out),
        "--samples", "32", "--seed", "1",
    ])
    assert "holdout MAE" in result.output
    reg, _ = cli.load_artifact(str(out), "zmap", load_config(None), False)
    assert reg.n_infeasible == 0
    preds = rcppo.regressor_predict(reg, np.array([[0.5, 0.0], [-2.0, 3.0]]), -1.0)
    assert np.all(np.abs(preds - HALFWAY_Z) < 10.0)


def test_load_regressor_rejects_other_checkpoints(halfway_value):
    with pytest.raises(click.ClickException, match="not a budget-regressor checkpoint"):
        cli.load_artifact(halfway_value, "zmap", load_config(None), True)


def test_fit_zmap_fails_loudly_when_mostly_infeasible(hopeless_value, tmp_path):
    result = CliRunner().invoke(
        cli.main,
        ["fit-zmap", "--value", hopeless_value, "--out", str(tmp_path / "z.ckpt"),
         "--samples", "16"],
    )
    assert result.exit_code == 1
    assert "Error: 16/16 sampled states infeasible; refusing to fit" in result.output
    assert "Traceback" not in result.output
    assert not (tmp_path / "z.ckpt").exists()


def test_deploy_writes_trajectory_csv_with_blank_trailing_action(
    tiny_cfg, rcppo_run, tmp_path, pendulum
):
    out = tmp_path / "traj.csv"
    result = _invoke([
        "deploy", "--config", tiny_cfg, "--policy", f"{rcppo_run}/policy.ckpt",
        "--state", "2.0,0.0", "--z", "50", "--out", str(out),
    ])
    report = _last_json(result)
    assert report["z0"] == 50.0
    assert report["infeasible_start"] is False
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "x0", "x1", "u0", "g", "h", "ghat", "y", "z", "cost"]
    assert len(rows) == report["steps"] + 2
    final = rows[-1]
    assert final[3] == "" and final[9] == ""
    # budgets on successive rows differ by exactly the logged step cost
    z_col, cost_col = 8, 9
    for before, after in zip(rows[1:-1], rows[2:]):
        assert float(after[z_col]) == pytest.approx(
            float(before[z_col]) - float(before[cost_col]), abs=1e-9
        )
    # the margins are those of the logged states, ghat at the policy's big_c
    _, meta = approx.load_checkpoint(f"{rcppo_run}/policy.ckpt")
    cols = np.array([[float(v) for v in row[1:3] + row[4:9]] for row in rows[1:]])
    states, g, h, ghat, y, z = cols[:, :2], *cols[:, 2:].T
    assert np.array_equal(g, pendulum.goal_margin(states))
    assert np.array_equal(h, pendulum.avoid_margin(states))
    assert np.array_equal(ghat, np.maximum(np.maximum(g, meta["big_c"] * y), -z))


def test_deploy_from_a_goal_state_is_a_single_row(tiny_cfg, rcppo_run, tmp_path):
    out = tmp_path / "traj.csv"
    result = _invoke([
        "deploy", "--config", tiny_cfg, "--policy", f"{rcppo_run}/policy.ckpt",
        "--state", "0.01,-1.0", "--z", "50", "--out", str(out),
    ])
    report = _last_json(result)
    assert report["reached"] is True
    assert report["steps"] == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 2


def test_deploy_requires_a_budget_for_conditioned_policies(tiny_cfg, rcppo_run, tmp_path):
    result = CliRunner().invoke(
        cli.main,
        ["deploy", "--config", tiny_cfg, "--policy", f"{rcppo_run}/policy.ckpt",
         "--state", "2.0,0.0", "--out", str(tmp_path / "t.csv")],
    )
    assert result.exit_code != 0
    assert "needs a budget" in result.output


def test_deploy_rejects_two_budget_sources(
    tiny_cfg, rcppo_run, halfway_value, tmp_path
):
    result = CliRunner().invoke(
        cli.main,
        ["deploy", "--config", tiny_cfg, "--policy", f"{rcppo_run}/policy.ckpt",
         "--state", "2.0,0.0", "--z", "50", "--value", halfway_value,
         "--out", str(tmp_path / "t.csv")],
    )
    assert result.exit_code != 0
    assert "at most one" in result.output


def test_deploy_with_value_checkpoint_bisection(tiny_cfg, rcppo_run, halfway_value, tmp_path):
    out = tmp_path / "traj.csv"
    result = _invoke([
        "deploy", "--config", tiny_cfg, "--policy", f"{rcppo_run}/policy.ckpt",
        "--state", "2.0,0.0", "--value", halfway_value, "--tol", "1e-3",
        "--out", str(out),
    ])
    report = _last_json(result)
    assert report["z0"] == pytest.approx(HALFWAY_Z, abs=1e-2)


@pytest.mark.parametrize("command", ["deploy", "evaluate"])
def test_config_eval_tol_reaches_the_bisection(
    command, tiny_cfg, rcppo_run, halfway_value, tmp_path
):
    def bisected_z0(cfg_path):
        out = tmp_path / "out"
        args = [
            command, "--config", cfg_path, "--policy", f"{rcppo_run}/policy.ckpt",
            "--value", halfway_value, "--out", str(out), "--force",
        ]
        if command == "deploy":
            return _last_json(_invoke(args + ["--state", "2.0,0.0"]))["z0"]
        _invoke(args + ["--episodes", "1"])
        with open(out) as fh:
            return json.load(fh)["episodes"][0]["z0"]

    # default eval.tol 1e-2 lands on the zero crossing; a tolerance wider
    # than the whole range [-1, 100] stops before the first midpoint
    assert bisected_z0(tiny_cfg) == pytest.approx(HALFWAY_Z, abs=1e-2)
    coarse = tmp_path / "coarse.yaml"
    coarse.write_text(yaml.safe_dump(dict(TINY, eval={"n_episodes": 2, "tol": 200.0})))
    assert bisected_z0(str(coarse)) == 100.0


def test_evaluate_reports_summary_and_full_report(tiny_cfg, rcppo_run, tmp_path):
    out = tmp_path / "report.json"
    result = _invoke([
        "evaluate", "--config", tiny_cfg, "--policy", f"{rcppo_run}/policy.ckpt",
        "--z", "50", "--episodes", "3", "--seed", "7", "--out", str(out),
    ])
    summary = _last_json(result)
    assert summary["n_episodes"] == 3
    assert 0.0 <= summary["reach_rate"] <= 1.0
    assert set(summary) == {
        "n_episodes", "reach_rate", "violation_rate",
        "mean_cost_reached", "median_cost_reached",
    }
    with open(out) as fh:
        full = json.load(fh)
    assert len(full["episodes"]) == 3
    assert full["reach_rate"] == summary["reach_rate"]


def test_evaluate_baseline_policy_needs_no_budget(tiny_cfg, baseline_run):
    result = _invoke([
        "evaluate", "--config", tiny_cfg, "--policy", f"{baseline_run}/policy.ckpt",
        "--episodes", "2",
    ])
    summary = _last_json(result)
    assert summary["n_episodes"] == 2


def test_evaluate_refuses_a_negative_episode_count(tiny_cfg, rcppo_run):
    result = CliRunner().invoke(cli.main, [
        "evaluate", "--config", tiny_cfg, "--policy", f"{rcppo_run}/policy.ckpt",
        "--z", "50", "--episodes", "-1",
    ])
    assert result.exit_code == 1, result.output
    assert result.output.strip().splitlines()[-1] == (
        "Error: n_episodes must be nonnegative, got -1"
    )


@pytest.mark.parametrize("case", [
    "train_unknown_key", "bisect_unknown_key", "gridsearch_bad_type",
    "bisect_zero_tol", "not_yaml", "unknown_env", "bisect_negative_scan", "bisect_one_point_scan",
])
def test_bad_input_ends_in_one_error_line(case, halfway_value, tmp_path):
    configs = {
        "train_unknown_key": "train:\n  bogus: 1\n",
        "bisect_unknown_key": "train:\n  bogus: 1\n",
        "gridsearch_bad_type": "train:\n  lr: fast\n",
        "bisect_zero_tol": "{}\n",
        "not_yaml": "train: [1, 2\nfoo: {\n",
        "unknown_env": "env:\n  name: moon\n",
        "bisect_negative_scan": "{}\n",
        "bisect_one_point_scan": "{}\n",
    }
    config = tmp_path / "config.yaml"
    config.write_text(configs[case])
    command, want = {
        "train_unknown_key": (["train", "--out", str(tmp_path / "run")],
                              "unknown config key: train.bogus"),
        "bisect_unknown_key": (["bisect", "--value", halfway_value, "--state", "1.0,0.0"],
                               "unknown config key: train.bogus"),
        "gridsearch_bad_type": (["gridsearch", "--out", str(tmp_path / "grid.csv")],
                                "config field train.lr: expected number, got str"),
        "bisect_zero_tol": (["bisect", "--value", halfway_value, "--state", "1.0,0.0",
                             "--tol", "0", "--force"], "tol must be positive and finite"),
        "not_yaml": (["train", "--out", str(tmp_path / "run")], "while parsing a flow sequence"),
        "unknown_env": (["train", "--out", str(tmp_path / "run")],
                        "config field env.name: unknown environment 'moon'"),
        "bisect_negative_scan": (["bisect", "--value", halfway_value, "--state", "1.0,0.0",
                                  "--scan", "-3", "--force"],
                                 "scan_points must be 0 or at least 2, got -3"),
        "bisect_one_point_scan": (["bisect", "--value", halfway_value, "--state", "1.0,0.0",
                                   "--scan", "1", "--force"],
                                  "scan_points must be 0 or at least 2, got 1"),
    }[case]
    result = CliRunner().invoke(cli.main, [*command, "--config", str(config)])
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit), result.exception
    last = result.output.strip().splitlines()[-1]
    assert last.startswith("Error: ") and want in last, result.output
    assert "Traceback" not in result.output


def test_stale_config_hash_is_refused_without_force(tiny_cfg, rcppo_run, tmp_path):
    other = dict(TINY, eval={"n_episodes": 2, "seed": 9})
    other_path = tmp_path / "other.yaml"
    other_path.write_text(yaml.safe_dump(other))
    args = [
        "evaluate", "--config", str(other_path),
        "--policy", f"{rcppo_run}/policy.ckpt", "--z", "50", "--episodes", "2",
    ]
    result = CliRunner().invoke(cli.main, args)
    assert result.exit_code != 0
    assert "pass --force" in result.output
    forced = CliRunner().invoke(cli.main, args + ["--force"])
    assert forced.exit_code == 0, forced.output


@pytest.fixture(scope="module")
def foreign_value(halfway_value, tmp_path_factory):
    """halfway_value stamped with a config hash no config here has."""
    arrays, meta = approx.load_checkpoint(halfway_value)
    path = tmp_path_factory.mktemp("val") / "foreign.ckpt"
    approx.save_checkpoint(str(path), arrays, dict(meta, config_hash="0" * 64))
    return str(path)


NOT_A = {
    "policy": "is not a policy checkpoint",
    "value": "is not a value checkpoint",
    "zmap": "is not a budget-regressor checkpoint",
}


@pytest.fixture(scope="module")
def bad_files(rcppo_run, halfway_value, zmaps, tmp_path_factory):
    """By the kind a load expects: {case: (file, file)} for a file of
    another kind, a text file, a zip without meta.json, a missing file,
    and one of the right kind whose meta is empty."""
    out = tmp_path_factory.mktemp("bad")
    bare = {}
    for kind, path in (("policy", f"{rcppo_run}/policy.ckpt"),
                       ("value", f"{rcppo_run}/value.ckpt"), ("zmap", zmaps["zmap"])):
        bare[kind] = str(out / f"{kind}_no_meta_keys.ckpt")
        approx.save_checkpoint(bare[kind], approx.load_checkpoint(path)[0], {})
    (out / "notes.txt").write_text("not a checkpoint\n")
    with zipfile.ZipFile(out / "no_meta.ckpt", "w") as zf:
        zf.writestr("value_w0.npy", b"")
    common = {
        case: (str(out / name), str(out / name))
        for case, name in (("text", "notes.txt"), ("no_meta", "no_meta.ckpt"),
                           ("missing", "missing.ckpt"))
    }
    other = {
        "policy": f"{rcppo_run}/value.ckpt",
        "value": f"{rcppo_run}/policy.ckpt",
        "zmap": halfway_value,
    }
    return {
        kind: dict(common, wrong_kind=(path, path), meta_missing_keys=(bare[kind], bare[kind]))
        for kind, path in other.items()
    }


@pytest.fixture(scope="module")
def bad_runs(rcppo_run, bad_files, tmp_path_factory):
    """For finetune: {case: (run dir, file)}, copies of rcppo_run whose
    policy.ckpt or value.ckpt is the bad file of that case."""
    runs = {}
    for kind in ("policy", "value"):
        runs[kind] = {}
        for case, (path, _) in bad_files[kind].items():
            run_dir = tmp_path_factory.mktemp(f"{kind}-{case}")
            other = "value" if kind == "policy" else "policy"
            shutil.copy(f"{rcppo_run}/{other}.ckpt", run_dir)
            if case != "missing":
                shutil.copy(path, run_dir / f"{kind}.ckpt")
            runs[kind][case] = (str(run_dir), str(run_dir / f"{kind}.ckpt"))
    return runs


def _assert_refuses(run, kind, cases):
    """run(arg, *extra) exits 1 with an Error naming the file, and no
    traceback, for every {case: (arg, file)}, with --force or without."""
    for case, (arg, path) in cases.items():
        for extra in ((), ("--force",)):
            result = run(arg, *extra)
            assert result.exit_code == 1, (case, result.output)
            assert isinstance(result.exception, SystemExit), (case, result.exception)
            assert "Error: " in result.output and path in result.output, (case, result.output)
            if case == "wrong_kind":
                assert f"{path} {NOT_A[kind]}" in result.output
            if case == "meta_missing_keys":
                assert f"{path} has no " in result.output and "z_max" in result.output


@pytest.mark.parametrize("command", ["deploy", "evaluate"])
def test_value_checkpoint_hash_is_checked_like_the_policy(
    command, tiny_cfg, rcppo_run, halfway_value, foreign_value, bad_files, tmp_path
):
    def run(value, *extra):
        args = [
            command, "--config", tiny_cfg, "--policy", f"{rcppo_run}/policy.ckpt",
            "--value", value, "--out", str(tmp_path / "out"), *extra,
        ]
        args += ["--state", "2.0,0.0"] if command == "deploy" else ["--episodes", "1"]
        return CliRunner().invoke(cli.main, args)

    refused = run(foreign_value)
    assert refused.exit_code != 0
    assert "value checkpoint was produced under config hash 000000000000" in refused.output
    assert "pass --force" in refused.output
    forced = run(foreign_value, "--force")
    assert forced.exit_code == 0, forced.output
    # a checkpoint that carries no hash loads without --force
    unstamped = run(halfway_value)
    assert unstamped.exit_code == 0, unstamped.output
    _assert_refuses(run, "value", bad_files["value"])


@pytest.fixture(scope="module")
def value_runs(rcppo_run, tmp_path_factory):
    """Copies of rcppo_run whose value.ckpt carries a foreign hash, or none."""
    arrays, meta = approx.load_checkpoint(f"{rcppo_run}/value.ckpt")
    meta.pop("config_hash")
    runs = {}
    for name, stamp in (("foreign", {"config_hash": "0" * 64}), ("unstamped", {})):
        run_dir = tmp_path_factory.mktemp(name)
        shutil.copy(f"{rcppo_run}/policy.ckpt", run_dir)
        approx.save_checkpoint(str(run_dir / "value.ckpt"), arrays, dict(meta, **stamp))
        runs[name] = str(run_dir)
    return runs


@pytest.mark.parametrize("command", ["bisect", "fit-zmap", "finetune"])
def test_every_value_load_checks_the_config_hash(
    command, tiny_cfg, halfway_value, foreign_value, value_runs, bad_files, bad_runs,
    tmp_path,
):
    def run(arg, *extra):
        if command == "finetune":
            args = [command, "--config", tiny_cfg, "--run", arg, "--out", str(tmp_path / "p2")]
        else:
            args = [command, "--value", arg]
            if command == "bisect":
                args += ["--state", "1.0,0.0"]
            else:
                args += ["--out", str(tmp_path / "z.ckpt"), "--samples", "16"]
        return CliRunner().invoke(cli.main, [*args, *extra])

    if command == "finetune":
        foreign, unstamped, bad = value_runs["foreign"], value_runs["unstamped"], bad_runs
    else:
        foreign, unstamped, bad = foreign_value, halfway_value, bad_files
    refused = run(foreign)
    assert refused.exit_code == 1
    assert "value checkpoint was produced under config hash 000000000000" in refused.output
    assert "pass --force" in refused.output
    forced = run(foreign, "--force")
    assert forced.exit_code == 0, forced.output
    # a checkpoint that carries no hash loads without --force
    unstamped = run(unstamped)
    assert unstamped.exit_code == 0, unstamped.output
    _assert_refuses(run, "value", bad["value"])


@pytest.mark.parametrize("command", ["finetune", "deploy", "evaluate"])
def test_every_policy_load_refuses_a_bad_file(
    command, tiny_cfg, bad_files, bad_runs, tmp_path
):
    def run(arg, *extra):
        if command == "finetune":
            args = [command, "--run", arg]
        else:
            args = [command, "--policy", arg, "--z", "50"]
            args += ["--state", "2.0,0.0"] if command == "deploy" else ["--episodes", "1"]
        args += ["--config", tiny_cfg, "--out", str(tmp_path / "out"), *extra]
        return CliRunner().invoke(cli.main, args)

    _assert_refuses(run, "policy", (bad_runs if command == "finetune" else bad_files)["policy"])


@pytest.mark.parametrize("command", ["deploy", "evaluate"])
def test_a_policy_without_an_algorithm_needs_a_budget(command, tiny_cfg, rcppo_run, tmp_path):
    # deploy_policy reads a meta without "algorithm" as budget-conditioned,
    # so without a budget every episode would run at an infinite one
    arrays, meta = approx.load_checkpoint(f"{rcppo_run}/policy.ckpt")
    del meta["algorithm"]
    path = str(tmp_path / "policy.ckpt")
    approx.save_checkpoint(path, arrays, meta)
    args = [command, "--config", tiny_cfg, "--policy", path, "--out", str(tmp_path / "out")]
    args += ["--state", "2.0,0.0"] if command == "deploy" else ["--episodes", "1"]
    result = CliRunner().invoke(cli.main, args)
    assert result.exit_code == 1
    assert "needs a budget" in result.output


def test_fit_zmap_refuses_a_single_sample(halfway_value, tmp_path):
    result = CliRunner().invoke(
        cli.main,
        ["fit-zmap", "--value", halfway_value, "--out", str(tmp_path / "z.ckpt"),
         "--samples", "1"],
    )
    assert result.exit_code == 1
    assert "Error: need at least 2 samples to fit and hold out, got 1" in result.output
    assert "Traceback" not in result.output
    assert not (tmp_path / "z.ckpt").exists()


@pytest.fixture(scope="module")
def zmaps(tiny_cfg, halfway_value, tmp_path_factory):
    """A regressor fit under tiny_cfg, a copy stamped with a foreign hash, one unstamped."""
    out = tmp_path_factory.mktemp("zmap")
    _invoke([
        "fit-zmap", "--config", tiny_cfg, "--value", halfway_value,
        "--out", str(out / "zmap.ckpt"), "--samples", "32", "--seed", "1",
    ])
    arrays, meta = approx.load_checkpoint(str(out / "zmap.ckpt"))
    approx.save_checkpoint(str(out / "foreign.ckpt"), arrays, dict(meta, config_hash="0" * 64))
    meta.pop("config_hash")
    approx.save_checkpoint(str(out / "unstamped.ckpt"), arrays, meta)
    return {name: str(out / f"{name}.ckpt") for name in ("zmap", "foreign", "unstamped")}


def test_fit_zmap_stamps_the_config_hash(tiny_cfg, zmaps):
    _, meta = cli.load_artifact(zmaps["zmap"], "zmap", load_config(tiny_cfg), False)
    assert meta["config_hash"] == config_hash(load_config(tiny_cfg))


@pytest.mark.parametrize("command", ["deploy", "evaluate"])
def test_zmap_hash_is_checked_like_the_policy(
    command, tiny_cfg, rcppo_run, zmaps, bad_files, tmp_path
):
    def run(zmap, *extra):
        args = [
            command, "--config", tiny_cfg, "--policy", f"{rcppo_run}/policy.ckpt",
            "--zmap", zmap, "--out", str(tmp_path / "out"), *extra,
        ]
        args += ["--state", "2.0,0.0"] if command == "deploy" else ["--episodes", "1"]
        return CliRunner().invoke(cli.main, args)

    assert run(zmaps["zmap"]).exit_code == 0
    refused = run(zmaps["foreign"])
    assert refused.exit_code != 0
    assert "budget regressor was produced under config hash 000000000000" in refused.output
    assert "pass --force" in refused.output
    forced = run(zmaps["foreign"], "--force")
    assert forced.exit_code == 0, forced.output
    # a regressor that carries no hash loads without --force
    unstamped = run(zmaps["unstamped"])
    assert unstamped.exit_code == 0, unstamped.output
    # a value checkpoint, among other files, is refused as a regressor
    _assert_refuses(run, "zmap", bad_files["zmap"])


def test_gridsearch_writes_the_sweep_table(tiny_cfg, tmp_path):
    out = tmp_path / "grid.csv"
    result = _invoke(["gridsearch", "--config", tiny_cfg, "--out", str(out), "--seed", "2"])
    assert "swept 1 cells" in result.output
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["r_goal", "p_goal", "beta", "reach_rate", "mean_cost", "on_front", "error"]
    assert len(rows) == 2
    assert rows[1][0] == "10.0"


def test_oracle_check_flags_the_published_reward_discrepancy():
    result = CliRunner().invoke(cli.main, ["oracle-check"])
    assert result.exit_code == 1
    assert "PASS reach_min_cost expected_reward: computed 15.0000" in result.output
    assert "PASS thresholded(20) expected_cost: computed 20.0000" in result.output
    assert (
        "FAIL thresholded(20) expected_reward: computed 16.6667, expected 23.3300"
        in result.output
    )
    assert "1 check(s) failed" in result.output
