"""YAML run configuration: schema, defaults, builders, and hashing.

A config file may set any subset of the keys below; everything else
falls back to the defaults, and unknown or mistyped keys fail loudly
with their dotted path. The resolved dict is what gets hashed into
checkpoints, so two runs agree on provenance iff their resolved
configs are byte-identical as canonical JSON.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json

import yaml

from .baselines import BaselineConfig
from .envkit import (
    ControlNoiseWrapper,
    NoiseWrapperConfig,
    grid_reachavoid_make,
    pendulum_make,
    windfield_make,
)
from .rcppo import Phase1Config, Phase2Config


def _defaults_of(cls) -> dict:
    """A config section holding the dataclass defaults of cls: tuples
    become lists and nested dataclasses nested sections."""
    section = {}
    for f in dataclasses.fields(cls):
        value = f.default if f.default is not dataclasses.MISSING else f.default_factory()
        if dataclasses.is_dataclass(value):
            value = _defaults_of(type(value))
        elif isinstance(value, tuple):
            value = list(value)
        section[f.name] = value
    return section


DEFAULTS: dict = {
    "env": {
        "name": "pendulum",
        "goal_xy": [15.0, 0.0],  # windfield only
        "width": 5,  # grid only
        "height": 5,
        "hazards": [],
        "goal_cell": [0, 0],
        "noise_half_width": 0.0,
        "noise_seed": 0,
    },
    "train": _defaults_of(Phase1Config),
    "phase2": _defaults_of(Phase2Config),
    "baseline": _defaults_of(BaselineConfig),
    "grid_search": {
        "r_goal": [20.0],
        "p_goal": [0.0],
        "beta": [0.1, 1.0, 10.0],
        "n_eval_episodes": 50,
        "n_workers": 1,
    },
    "eval": {
        "n_episodes": 100,
        "seed": 0,
        "tol": 1e-2,
    },
}
# the reward's shaping discount is always baseline.gamma, not a key
del DEFAULTS["baseline"]["reward"]["gamma"]

# dotted paths where None is a legal value, with the type a non-None
# value must have
_NULLABLE: dict[str, type] = {
    "train.z_max": float,
    "train.big_c": float,
    "phase2.gamma": float,
}

# fields whose entries are lists of numbers or pairs
_LIST_FIELDS = {
    "env.goal_xy": float,
    "env.hazards": list,
    "env.goal_cell": int,
    "train.hidden": int,
    "baseline.hidden": int,
    "grid_search.r_goal": float,
    "grid_search.p_goal": float,
    "grid_search.beta": float,
}


def _type_name(value) -> str:
    return type(value).__name__


def _coerce(path: str, value, default):
    if path in _NULLABLE:
        if value is None:
            return None
        want = _NULLABLE[path]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"config field {path}: expected number or null, got {_type_name(value)}")
        return want(value)
    if path in _LIST_FIELDS:
        if not isinstance(value, list):
            raise ValueError(f"config field {path}: expected list, got {_type_name(value)}")
        elem = _LIST_FIELDS[path]
        out = []
        for i, v in enumerate(value):
            if elem is list:
                if not isinstance(v, list) or len(v) != 2:
                    raise ValueError(f"config field {path}[{i}]: expected [row, col] pair")
                out.append([int(v[0]), int(v[1])])
            elif elem is int:
                if isinstance(v, bool) or not isinstance(v, int):
                    raise ValueError(f"config field {path}[{i}]: expected int, got {_type_name(v)}")
                out.append(int(v))
            else:
                if isinstance(v, bool) or not isinstance(v, (int, float)):
                    raise ValueError(f"config field {path}[{i}]: expected number, got {_type_name(v)}")
                out.append(float(v))
        return out
    if isinstance(default, bool):
        if not isinstance(value, bool):
            raise ValueError(f"config field {path}: expected bool, got {_type_name(value)}")
        return value
    if isinstance(default, int):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"config field {path}: expected int, got {_type_name(value)}")
        return value
    if isinstance(default, float):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"config field {path}: expected number, got {_type_name(value)}")
        return float(value)
    if isinstance(default, str):
        if not isinstance(value, str):
            raise ValueError(f"config field {path}: expected string, got {_type_name(value)}")
        return value
    raise ValueError(f"config field {path}: unsupported value {value!r}")


def _merge(defaults: dict, override: dict, prefix: str = "") -> dict:
    out = {}
    for key, dval in defaults.items():
        path = f"{prefix}{key}"
        if key not in override:
            out[key] = copy.deepcopy(dval)
        elif isinstance(dval, dict):
            oval = override[key]
            if not isinstance(oval, dict):
                raise ValueError(f"config field {path}: expected mapping, got {_type_name(oval)}")
            out[key] = _merge(dval, oval, prefix=f"{path}.")
        else:
            out[key] = _coerce(path, override[key], dval)
    for key in override:
        if key not in defaults:
            raise ValueError(f"unknown config key: {prefix}{key}")
    return out


def resolve_config(raw: dict | None) -> dict:
    """Fill defaults and validate; raises ValueError naming bad fields."""
    raw = raw or {}
    if not isinstance(raw, dict):
        raise ValueError("config root must be a mapping")
    return _merge(DEFAULTS, raw)


def load_config(path: str | None) -> dict:
    """Read a YAML file (or use all defaults when path is None)."""
    if path is None:
        return resolve_config({})
    with open(path) as fh:
        raw = yaml.safe_load(fh)
    return resolve_config(raw)


def config_hash(cfg: dict) -> str:
    """sha256 of the canonical JSON form of a resolved config."""
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def build_problem(cfg: dict):
    """Instantiate the configured environment, wrapping noise if asked."""
    env = cfg["env"]
    name = env["name"]
    if name == "pendulum":
        problem = pendulum_make()
    elif name == "windfield":
        problem = windfield_make(goal_xy=tuple(env["goal_xy"]))
    elif name == "grid":
        problem = grid_reachavoid_make(
            env["width"], env["height"],
            hazards=[tuple(h) for h in env["hazards"]],
            goal_cell=tuple(env["goal_cell"]),
        ).as_problem()
    else:
        raise ValueError(f"config field env.name: unknown environment {name!r}")
    # built first so that its own check refuses a negative width
    noise = NoiseWrapperConfig(noise_half_width=env["noise_half_width"], seed=env["noise_seed"])
    if noise.noise_half_width > 0.0:
        problem = ControlNoiseWrapper(problem, noise)
    return problem


def _build(cls, section: dict, seed: int | None = None):
    """cls from a resolved config section: lists become tuples, nested
    sections the field's own dataclass, and seed, when given, wins."""
    kwargs = {}
    for f in dataclasses.fields(cls):
        value = section[f.name]
        if isinstance(value, dict):
            value = _build(type(f.default_factory()), value)
        elif isinstance(value, list):
            value = tuple(value)
        kwargs[f.name] = value
    if seed is not None:
        kwargs["seed"] = seed
    return cls(**kwargs)


def phase1_from(cfg: dict, seed: int | None = None) -> Phase1Config:
    return _build(Phase1Config, cfg["train"], seed)


def phase2_from(cfg: dict, seed: int | None = None) -> Phase2Config:
    return _build(Phase2Config, cfg["phase2"], seed)


def baseline_from(cfg: dict, seed: int | None = None) -> BaselineConfig:
    b = cfg["baseline"]
    reward = {**b["reward"], "gamma": b["gamma"]}
    return _build(BaselineConfig, {**b, "reward": reward}, seed)
