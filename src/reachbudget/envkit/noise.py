"""Uniform additive control noise wrapper."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import ReachAvoidProblem, _as_batch


@dataclass
class NoiseWrapperConfig:
    noise_half_width: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.noise_half_width < 0:
            raise ValueError("noise_half_width must be >= 0")


class ControlNoiseWrapper(ReachAvoidProblem):
    """Perturbs each executed control with seeded uniform noise.

    The executed control is u' = clamp(u + xi, action box) with
    xi ~ U[-w, w] drawn once per step_and_cost call; the cost is
    charged on u', never on the commanded u. With w = 0 the wrapper
    reproduces the base problem bitwise.
    """

    def __init__(self, problem: ReachAvoidProblem, cfg: NoiseWrapperConfig) -> None:
        self.base = problem
        self.cfg = cfg
        self.reseed(cfg.seed)
        self.name = f"{problem.name}+noise{cfg.noise_half_width:g}"
        self.state_dim = problem.state_dim
        self.action_dim = problem.action_dim
        self.action_low = problem.action_low
        self.action_high = problem.action_high
        self.horizon_max = problem.horizon_max
        self.state_low = problem.state_low
        self.state_high = problem.state_high
        self.obs_scale = problem.obs_scale

    def reseed(self, seed: int) -> None:
        """Restart the noise stream from seed mixed with cfg.seed, so
        wrappers with different cfg.seed stay independent under one
        evaluation seed."""
        self._rng = np.random.Generator(np.random.PCG64([self.cfg.seed, seed]))

    def step_and_cost(self, x: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        ub, single = _as_batch(u, self.action_dim)
        w = self.cfg.noise_half_width
        if w == 0.0:
            executed = ub
        else:
            executed = ub + self._rng.uniform(-w, w, ub.shape)
        executed = np.clip(executed, self.action_low, self.action_high)
        if single:
            executed = executed[0]
        return self.base.step_and_cost(x, executed)

    def sample_initial(self, rng: np.random.Generator, n: int | None = None) -> np.ndarray:
        return self.base.sample_initial(rng, n)

    def max_step_cost(self) -> float:
        return self.base.max_step_cost()

    def in_goal(self, x: np.ndarray) -> np.ndarray:
        return self.base.in_goal(x)

    def in_avoid(self, x: np.ndarray) -> np.ndarray:
        return self.base.in_avoid(x)

    def goal_margin(self, x: np.ndarray) -> np.ndarray:
        return self.base.goal_margin(x)

    def avoid_margin(self, x: np.ndarray) -> np.ndarray:
        return self.base.avoid_margin(x)

    def goal_distance(self, x: np.ndarray) -> np.ndarray:
        return self.base.goal_distance(x)


def wrap_with_control_noise(
    problem: ReachAvoidProblem, cfg: NoiseWrapperConfig
) -> ControlNoiseWrapper:
    return ControlNoiseWrapper(problem, cfg)
