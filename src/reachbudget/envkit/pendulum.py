"""Torque-limited pendulum swing-up as a reach problem.

State is (theta, theta_dot) with theta measured from upright and wrapped
to [-pi, pi]. The dynamics are the classic point-mass pendulum under
semi-implicit Euler (gravity 10, mass 1, length 1, dt 0.05); the torque
bound is 1, which is too weak to lift the pendulum directly, so the
controller has to pump energy.

The goal set is the set of states about to cross upright within one
step, G = {theta * (theta + theta_dot * dt) < 0}. There is no avoid
set. The running cost is 0 for torques below 0.1 and 8*u^2 otherwise,
so doing nothing is free and hard braking is expensive.
"""

from __future__ import annotations

import numpy as np

from .base import ReachAvoidProblem, _as_batch, _squeeze

_GRAVITY = 10.0
_MASS = 1.0
_LENGTH = 1.0
_DT = 0.05
_MAX_SPEED = 8.0
_TORQUE_LIMIT = 1.0
_GOAL_PLATEAU = -300.0


def _wrap_angle(theta: np.ndarray) -> np.ndarray:
    return ((theta + np.pi) % (2.0 * np.pi)) - np.pi


class PendulumSwingUp(ReachAvoidProblem):
    name = "pendulum"
    state_dim = 2
    action_dim = 1
    horizon_max = 200
    dt = _DT

    def __init__(self) -> None:
        self.action_low = np.array([-_TORQUE_LIMIT])
        self.action_high = np.array([_TORQUE_LIMIT])
        self.state_low = np.array([-np.pi, -_MAX_SPEED])
        self.state_high = np.array([np.pi, _MAX_SPEED])
        self.obs_scale = np.array([np.pi, _MAX_SPEED])
        self._validate()

    def sample_initial(self, rng: np.random.Generator, n: int | None = None) -> np.ndarray:
        size = 1 if n is None else n
        theta = rng.uniform(-np.pi, np.pi, size)
        theta_dot = rng.uniform(-1.0, 1.0, size)
        out = np.stack([theta, theta_dot], axis=1)
        return out[0] if n is None else out

    def step(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        xb, single = _as_batch(x, self.state_dim)
        ub, _ = _as_batch(u, self.action_dim)
        torque = np.minimum(np.maximum(ub[:, 0], -_TORQUE_LIMIT), _TORQUE_LIMIT)
        theta, theta_dot = xb[:, 0], xb[:, 1]
        accel = (
            3.0 * _GRAVITY / (2.0 * _LENGTH) * np.sin(theta)
            + 3.0 / (_MASS * _LENGTH**2) * torque
        )
        new_dot = np.minimum(np.maximum(theta_dot + accel * _DT, -_MAX_SPEED), _MAX_SPEED)
        new_theta = _wrap_angle(theta + new_dot * _DT)
        return _squeeze(np.stack([new_theta, new_dot], axis=1), single)

    def cost(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        ub, single = _as_batch(u, self.action_dim)
        # priced on the torque actually applied, i.e. after clipping
        norm = np.abs(np.minimum(np.maximum(ub[:, 0], -_TORQUE_LIMIT), _TORQUE_LIMIT))
        c = np.where(norm < 0.1, 0.0, 8.0 * norm**2)
        return _squeeze(c, single)

    def max_step_cost(self) -> float:
        return 8.0 * _TORQUE_LIMIT**2

    def in_goal(self, x: np.ndarray) -> np.ndarray:
        xb, single = _as_batch(x, self.state_dim)
        theta, theta_dot = xb[:, 0], xb[:, 1]
        return _squeeze(theta * (theta + theta_dot * _DT) < 0.0, single)

    def in_avoid(self, x: np.ndarray) -> np.ndarray:
        xb, single = _as_batch(x, self.state_dim)
        return _squeeze(np.zeros(xb.shape[0], dtype=bool), single)

    def goal_margin(self, x: np.ndarray) -> np.ndarray:
        xb, single = _as_batch(x, self.state_dim)
        g = np.where(self.in_goal(xb), _GOAL_PLATEAU, 100.0 * xb[:, 0] ** 2)
        return _squeeze(g, single)

    def avoid_margin(self, x: np.ndarray) -> np.ndarray:
        xb, single = _as_batch(x, self.state_dim)
        return _squeeze(np.full(xb.shape[0], -1.0), single)

    def goal_distance(self, x: np.ndarray) -> np.ndarray:
        xb, single = _as_batch(x, self.state_dim)
        return _squeeze(np.abs(xb[:, 0]), single)


def pendulum_make() -> PendulumSwingUp:
    return PendulumSwingUp()
