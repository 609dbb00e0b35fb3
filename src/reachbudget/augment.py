"""Budget-and-safety state augmentation.

A raw state x becomes (x, y, z): y in {-1, +1} is a latched flag that
flips to +1 the first time the trajectory enters the avoid set and
never comes back, and z is the remaining cost budget, decremented by
the running cost each step.

The augmented goal margin

    ghat(x, y, z) = max(g(x), C * y, -z)

is nonpositive exactly when the raw state is in the goal set, the
flag never latched, and the budget has not gone negative. That single
scalar is what the value machinery backs up.

start_flag, augmented_step and augmented_goal define the augmented
problem for every trainer, deployment and check in the package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .envkit.base import ReachAvoidProblem


@dataclass
class AugmentedGoalParams:
    """Parameters of the augmented goal margin.

    big_c scales the latched flag's contribution; it must dominate the
    largest goal margin so an unsafe trajectory can never look feasible.
    """

    big_c: float

    def __post_init__(self) -> None:
        if not self.big_c > 0:
            raise ValueError("big_c must be positive")


def shifted_indicator(member) -> np.ndarray:
    """Map a boolean (or boolean array) to +1.0 / -1.0."""
    return np.where(np.asarray(member), 1.0, -1.0)


def augmented_margin(g, y, z, big_c: float) -> np.ndarray:
    """ghat = max(g, C * y, -z) from the raw goal margin, flag and budget."""
    return np.maximum(np.maximum(g, big_c * y), -z)


def estimate_big_c(
    problem: ReachAvoidProblem,
    rng: np.random.Generator,
    n_samples: int = 100_000,
) -> float:
    """Estimate max g(x) over the state space by sampling.

    Half the samples come from the problem's initial distribution and,
    where the problem exposes box bounds, half from the uniform box.
    The result is clamped below by 1.0 so the flag term always
    dominates a nonpositive margin.
    """
    n_init = n_samples if problem.state_low is None else n_samples // 2
    states = [problem.sample_initial(rng, n_init)]
    if problem.state_low is not None:
        box = rng.uniform(
            problem.state_low, problem.state_high, (n_samples - n_init, problem.state_dim)
        )
        states.append(box)
    g = np.concatenate([np.asarray(problem.goal_margin(s)) for s in states])
    return float(max(1.0, g.max()))


def start_flag(problem: ReachAvoidProblem, x) -> np.ndarray:
    """The flag of a trajectory that starts at x: +1 inside the avoid set."""
    return shifted_indicator(problem.in_avoid(x))


def augmented_step(problem: ReachAvoidProblem, x, y, z, u):
    """Advance the augmented dynamics one step; returns (x', y', z', cost).

    The flag latches on the arrival state: y' is +1 if x' is in the
    avoid set or y already was. The budget pays the step's cost. Any
    control noise is drawn exactly once, in step_and_cost.
    """
    x_next, c = problem.step_and_cost(x, u)
    x_next = np.asarray(x_next, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    return x_next, np.maximum(start_flag(problem, x_next), y), z - c, c


def augmented_goal(problem: ReachAvoidProblem, x, y, z, params: AugmentedGoalParams):
    """ghat(x, y, z); nonpositive exactly inside the augmented goal."""
    return augmented_margin(problem.goal_margin(x), y, z, params.big_c)

