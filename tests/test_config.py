from __future__ import annotations

import pytest
import yaml

from reachbudget.config import (
    DEFAULTS,
    baseline_from,
    build_problem,
    config_hash,
    load_config,
    phase1_from,
    phase2_from,
    resolve_config,
)
from reachbudget.envkit.noise import ControlNoiseWrapper


def test_empty_config_resolves_to_defaults():
    cfg = resolve_config({})
    assert cfg == DEFAULTS
    assert cfg is not DEFAULTS
    assert cfg["env"]["name"] == "pendulum"
    assert cfg["train"]["z_max"] is None
    assert cfg["train"]["gamma"] == 0.99
    assert cfg["train"]["lam"] == 0.95
    assert cfg["train"]["clip_eps"] == 0.2
    assert cfg["train"]["lr"] == 3e-4
    assert cfg["grid_search"]["beta"] == [0.1, 1.0, 10.0]


def test_none_and_missing_sections_behave_like_empty():
    assert resolve_config(None) == resolve_config({})
    assert resolve_config({"train": {}}) == resolve_config({})


def test_resolution_does_not_alias_the_defaults():
    cfg = resolve_config({})
    cfg["train"]["hidden"].append(7)
    assert DEFAULTS["train"]["hidden"] == [256, 256]


def test_partial_override_keeps_other_fields():
    cfg = resolve_config({"train": {"lr": 0.001, "seed": 5}})
    assert cfg["train"]["lr"] == 0.001
    assert cfg["train"]["seed"] == 5
    assert cfg["train"]["gamma"] == 0.99
    assert cfg["baseline"]["reward"]["beta"] == 1.0


def test_int_is_accepted_where_a_float_is_expected():
    cfg = resolve_config({"train": {"lr": 1}})
    assert cfg["train"]["lr"] == 1.0
    assert isinstance(cfg["train"]["lr"], float)


def test_unknown_top_level_key_is_rejected_with_its_name():
    with pytest.raises(ValueError, match="unknown config key: trian"):
        resolve_config({"trian": {"lr": 1.0}})


def test_unknown_nested_key_is_rejected_with_dotted_path():
    with pytest.raises(ValueError, match="unknown config key: train.learning_rate"):
        resolve_config({"train": {"learning_rate": 1e-3}})
    with pytest.raises(ValueError, match="unknown config key: baseline.reward.betta"):
        resolve_config({"baseline": {"reward": {"betta": 0.1}}})


def test_type_errors_name_the_dotted_field():
    with pytest.raises(ValueError, match="train.total_steps: expected int, got str"):
        resolve_config({"train": {"total_steps": "many"}})
    with pytest.raises(ValueError, match="env.name: expected string, got int"):
        resolve_config({"env": {"name": 3}})
    with pytest.raises(ValueError, match="expected bool, got int"):
        resolve_config({"baseline": {"reward": {"shaping_enabled": 1}}})
    with pytest.raises(ValueError, match="train: expected mapping, got list"):
        resolve_config({"train": [1, 2]})


def test_bool_does_not_sneak_in_as_an_int():
    # YAML parses "true" as bool; it must not satisfy an int field.
    with pytest.raises(ValueError, match="train.n_envs: expected int, got bool"):
        resolve_config({"train": {"n_envs": True}})


def test_nullable_fields_accept_null_and_numbers_only():
    cfg = resolve_config({"train": {"z_max": None, "big_c": 900}})
    assert cfg["train"]["z_max"] is None
    assert cfg["train"]["big_c"] == 900.0
    assert isinstance(cfg["train"]["big_c"], float)
    with pytest.raises(ValueError, match="train.z_max: expected number or null"):
        resolve_config({"train": {"z_max": "wide"}})


def test_list_fields_validate_every_element():
    cfg = resolve_config({"train": {"hidden": [64, 32]}})
    assert cfg["train"]["hidden"] == [64, 32]
    with pytest.raises(ValueError, match=r"train.hidden\[1\]: expected int"):
        resolve_config({"train": {"hidden": [64, 32.5]}})
    with pytest.raises(ValueError, match="train.hidden: expected list"):
        resolve_config({"train": {"hidden": 64}})


def test_hazard_entries_must_be_pairs():
    cfg = resolve_config(
        {"env": {"name": "grid", "hazards": [[1, 2], [0, 3]]}}
    )
    assert cfg["env"]["hazards"] == [[1, 2], [0, 3]]
    with pytest.raises(ValueError, match=r"env.hazards\[1\]: expected \[row, col\] pair"):
        resolve_config({"env": {"hazards": [[1, 2], [3]]}})


def test_non_mapping_root_is_rejected():
    with pytest.raises(ValueError, match="config root must be a mapping"):
        resolve_config([1, 2, 3])


def test_load_config_reads_yaml_and_fills_defaults(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump({"train": {"total_steps": 1234}, "eval": {"seed": 3}}))
    cfg = load_config(str(path))
    assert cfg["train"]["total_steps"] == 1234
    assert cfg["eval"]["seed"] == 3
    assert cfg["env"]["name"] == "pendulum"
    assert load_config(None) == resolve_config({})


def test_config_hash_is_stable_and_sensitive():
    base = resolve_config({})
    again = resolve_config({})
    changed = resolve_config({"train": {"seed": 1}})
    assert config_hash(base) == config_hash(again)
    assert config_hash(base) != config_hash(changed)
    assert len(config_hash(base)) == 64
    assert set(config_hash(base)) <= set("0123456789abcdef")


# Checkpoints store config_hash and loading refuses a mismatch, so the
# hash of a resolved config must not move when the defaults or the
# builders are rewritten.
PINNED_OVERRIDE = {
    "env": {"name": "windfield", "noise_half_width": 0.1},
    "train": {"hidden": [32, 16], "z_max": 600, "lr": 1e-3},
    "phase2": {"gamma": 0.999, "lam": 0.98},
    "baseline": {
        "gamma": 0.97,
        "init_log_std": -1.5,
        "reward": {"beta": 0.1, "shaping_enabled": True},
    },
    "eval": {"tol": 6},
}


def test_config_hash_of_the_defaults_is_pinned():
    assert config_hash(resolve_config({})) == (
        "37faa4107cd8dee291e074c1070a89135712a3bf6a2a0e532a8fef3641f443cb"
    )


def test_config_hash_of_an_overridden_config_is_pinned():
    assert config_hash(resolve_config(PINNED_OVERRIDE)) == (
        "92681f04a00552f99f34b1103dce237c4b937a2cdcb30589bf18e2d2ab7e2cf3"
    )


def test_config_hash_ignores_key_order():
    cfg = resolve_config({})
    reordered = {k: cfg[k] for k in reversed(list(cfg))}
    assert config_hash(reordered) == config_hash(cfg)


def test_build_problem_defaults_to_pendulum():
    problem = build_problem(resolve_config({}))
    assert problem.state_dim == 2
    assert problem.action_dim == 1
    assert problem.horizon_max == 200


def test_build_problem_windfield_uses_configured_goal():
    cfg = resolve_config({"env": {"name": "windfield", "goal_xy": [12.0, -3.0]}})
    problem = build_problem(cfg)
    assert problem.state_dim == 2
    assert problem.in_goal([12.0, -3.0])
    assert not problem.in_goal([0.0, 0.0])


def test_build_problem_grid_wires_dimensions_and_hazards():
    cfg = resolve_config({
        "env": {
            "name": "grid",
            "width": 4,
            "height": 3,
            "hazards": [[1, 1]],
            "goal_cell": [2, 3],
        }
    })
    view = build_problem(cfg)
    assert view.state_dim == 1
    assert view.mdp.n_states == 12
    assert view.mdp.goal_mask.sum() == 1
    assert view.mdp.avoid_mask.sum() == 1
    assert view.in_goal([int(view.mdp.goal_mask.argmax())])
    assert view.in_avoid([int(view.mdp.avoid_mask.argmax())])


def test_build_problem_rejects_unknown_environment():
    cfg = resolve_config({"env": {"name": "cartpole"}})
    with pytest.raises(ValueError, match="unknown environment 'cartpole'"):
        build_problem(cfg)


def test_noise_half_width_wraps_the_problem():
    cfg = resolve_config({"env": {"noise_half_width": 0.05, "noise_seed": 4}})
    problem = build_problem(cfg)
    assert isinstance(problem, ControlNoiseWrapper)
    assert problem.cfg.noise_half_width == 0.05
    assert problem.cfg.seed == 4
    bare = build_problem(resolve_config({}))
    assert not isinstance(bare, ControlNoiseWrapper)


def test_a_negative_noise_half_width_is_refused_not_run_without_noise():
    cfg = resolve_config({"env": {"noise_half_width": -0.1}})
    with pytest.raises(ValueError, match="noise_half_width must be >= 0"):
        build_problem(cfg)


def test_phase1_from_maps_fields_and_seed_override():
    cfg = resolve_config({"train": {"hidden": [32, 16], "z_max": 500.0}})
    p1 = phase1_from(cfg)
    assert p1.hidden == (32, 16)
    assert p1.z_max == 500.0
    assert p1.seed == 0
    assert p1.gamma == 0.99
    assert phase1_from(cfg, seed=9).seed == 9


def test_phase2_from_maps_fields_and_seed_override():
    cfg = resolve_config({"phase2": {"gamma": 0.5, "total_steps": 777}})
    p2 = phase2_from(cfg)
    assert p2.gamma == 0.5
    assert p2.total_steps == 777
    assert p2.seed == 1
    assert phase2_from(cfg, seed=4).seed == 4


def test_baseline_from_maps_nested_reward_settings():
    cfg = resolve_config({
        "baseline": {
            "gamma": 0.97,
            "reward": {"beta": 0.1, "shaping_enabled": True, "shaping_k": 2.0},
        }
    })
    b = baseline_from(cfg)
    assert b.reward.beta == 0.1
    assert b.reward.shaping_enabled is True
    assert b.reward.shaping_k == 2.0
    # the reward shaping discount must match the training discount
    assert b.reward.gamma == 0.97
    assert b.gamma == 0.97
    assert b.hidden == (256, 256)
    assert baseline_from(cfg, seed=12).seed == 12
