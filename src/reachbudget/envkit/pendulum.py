"""Torque-limited pendulum swing-up as a reach problem.

State is (theta, theta_dot) with theta measured from upright and wrapped
to [-pi, pi]. The dynamics are the classic point-mass pendulum under
semi-implicit Euler (gravity 10, mass 1, length 1, time step 0.05);
the torque bound is 1, which is too weak to lift the pendulum
directly, so the controller has to pump energy.

The goal set is the set of states about to cross upright within one
step, G = {theta * (theta + theta_dot * 0.05) < 0}. There is no avoid
set. The running cost is 0 for torques below 0.1 and 8*u^2 otherwise,
so doing nothing is free and hard braking is expensive.
"""

from __future__ import annotations

import numpy as np

from .base import ReachAvoidProblem

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

    def __init__(self) -> None:
        self.action_low = np.array([-_TORQUE_LIMIT])
        self.action_high = np.array([_TORQUE_LIMIT])
        self.state_low = np.array([-np.pi, -_MAX_SPEED])
        self.state_high = np.array([np.pi, _MAX_SPEED])
        self.obs_scale = np.array([np.pi, _MAX_SPEED])
        self._validate()

    def _sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        theta = rng.uniform(-np.pi, np.pi, n)
        theta_dot = rng.uniform(-1.0, 1.0, n)
        return np.stack([theta, theta_dot], axis=1)

    def _step_and_cost(self, xb: np.ndarray, ub: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        torque = np.minimum(np.maximum(ub[:, 0], -_TORQUE_LIMIT), _TORQUE_LIMIT)
        theta, theta_dot = xb[:, 0], xb[:, 1]
        accel = (
            3.0 * _GRAVITY / (2.0 * _LENGTH) * np.sin(theta)
            + 3.0 / (_MASS * _LENGTH**2) * torque
        )
        new_dot = np.minimum(np.maximum(theta_dot + accel * _DT, -_MAX_SPEED), _MAX_SPEED)
        new_theta = _wrap_angle(theta + new_dot * _DT)
        # priced on the torque actually applied, i.e. after clipping
        norm = np.abs(torque)
        c = np.where(norm < 0.1, 0.0, 8.0 * norm**2)
        return np.stack([new_theta, new_dot], axis=1), c

    def max_step_cost(self) -> float:
        return 8.0 * _TORQUE_LIMIT**2

    def _in_goal(self, xb: np.ndarray) -> np.ndarray:
        theta, theta_dot = xb[:, 0], xb[:, 1]
        return theta * (theta + theta_dot * _DT) < 0.0

    def _in_avoid(self, xb: np.ndarray) -> np.ndarray:
        return np.zeros(xb.shape[0], dtype=bool)

    def _goal_margin(self, xb: np.ndarray) -> np.ndarray:
        return np.where(self._in_goal(xb), _GOAL_PLATEAU, 100.0 * xb[:, 0] ** 2)

    def _avoid_margin(self, xb: np.ndarray) -> np.ndarray:
        return np.full(xb.shape[0], -1.0)

    def _goal_distance(self, xb: np.ndarray) -> np.ndarray:
        return np.abs(xb[:, 0])


def pendulum_make() -> PendulumSwingUp:
    return PendulumSwingUp()
