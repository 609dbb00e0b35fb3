"""Uniform additive control noise wrapper."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import ReachAvoidProblem


@dataclass
class NoiseWrapperConfig:
    noise_half_width: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.noise_half_width < 0:
            raise ValueError("noise_half_width must be >= 0")


class ControlNoiseWrapper:
    """Perturbs each executed control with seeded uniform noise.

    The executed control is u' = clamp(u + xi, action box) with
    xi ~ U[-w, w] drawn once per step_and_cost call; the cost is
    charged on u', never on the commanded u. With w = 0 the wrapper
    reproduces the base problem bitwise.

    Every other public member is the base problem's own, so a base that
    overrides a public method (a planned sample_initial, say) keeps it.
    """

    def __init__(self, problem: ReachAvoidProblem, cfg: NoiseWrapperConfig) -> None:
        self.base = problem
        self.cfg = cfg
        self.reseed(cfg.seed)
        self.name = f"{problem.name}+noise{cfg.noise_half_width:g}"

    def __getattr__(self, name: str):
        # only names the wrapper lacks get here; unpickling asks for base
        # and private names before base is set, so those must not recurse
        if name == "base" or name.startswith("_"):
            raise AttributeError(name)
        return getattr(self.base, name)

    def reseed(self, seed: int) -> None:
        """Restart the noise stream from seed mixed with cfg.seed, so
        wrappers with different cfg.seed stay independent under one
        evaluation seed."""
        self._rng = np.random.Generator(np.random.PCG64([self.cfg.seed, seed]))

    def step_and_cost(self, x: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # the noise for a point (a,) is the same draw as for the row (1, a)
        executed = np.asarray(u, dtype=np.float64)
        w = self.cfg.noise_half_width
        if w != 0.0:
            executed = executed + self._rng.uniform(-w, w, executed.shape)
        base = self.base
        return base.step_and_cost(x, np.clip(executed, base.action_low, base.action_high))
