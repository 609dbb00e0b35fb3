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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .envkit.base import ReachAvoidProblem


@dataclass
class AugmentedState:
    """Augmented state (x, y, z); components may be batched.

    x has shape (d,) or (n, d); y and z are scalars or (n,) arrays and
    always hold y in {-1, +1} and the remaining budget.
    """

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray


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


def augmented_reset(problem: ReachAvoidProblem, x0: np.ndarray, z0) -> AugmentedState:
    z0 = np.asarray(z0, dtype=np.float64)
    if not np.all(np.isfinite(z0)):
        raise ValueError("initial budget z0 must be finite")
    return AugmentedState(
        x=np.asarray(x0, dtype=np.float64),
        y=shifted_indicator(problem.in_avoid(x0)),
        z=z0,
    )


def augmented_step_with_cost(
    problem: ReachAvoidProblem, s: AugmentedState, u: np.ndarray
) -> tuple[AugmentedState, np.ndarray]:
    """Advance the augmented dynamics one step, returning the cost paid.

    The successor flag latches on the arrival state: y' is +1 if the
    new raw state is in the avoid set or the flag was already up.
    Draws any control noise exactly once via step_and_cost.
    """
    u = np.asarray(u, dtype=np.float64)
    if not (np.all(np.isfinite(s.x)) and np.all(np.isfinite(u))):
        raise ValueError("non-finite state or action")
    x_next, c = problem.step_and_cost(s.x, u)
    y_next = np.maximum(shifted_indicator(problem.in_avoid(x_next)), s.y)
    return AugmentedState(x=x_next, y=y_next, z=s.z - c), c


def augmented_step(
    problem: ReachAvoidProblem, s: AugmentedState, u: np.ndarray
) -> AugmentedState:
    s_next, _ = augmented_step_with_cost(problem, s, u)
    return s_next


def augmented_goal(
    problem: ReachAvoidProblem, s: AugmentedState, params: AugmentedGoalParams
) -> np.ndarray:
    g = np.asarray(problem.goal_margin(s.x), dtype=np.float64)
    return augmented_margin(g, s.y, s.z, params.big_c)


def in_augmented_goal(
    problem: ReachAvoidProblem, s: AugmentedState, params: AugmentedGoalParams
) -> np.ndarray:
    return augmented_goal(problem, s, params) <= 0.0


def budget_equivalence_sides(
    problem: ReachAvoidProblem,
    params: AugmentedGoalParams,
    states: np.ndarray,
    costs: np.ndarray,
    z0: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate both sides of the reach-within-budget equivalence.

    For every prefix length T of a rollout (states has T_total + 1 rows,
    costs has T_total entries), the left side is the raw predicate

        x_T in G  and  x_t not in F for all t <= T  and  z0 >= sum_{k<T} c_k

    and the right side tests the augmented goal margin of the replayed
    augmented state (x_T, y_T, z_T), with y and z reconstructed from
    the trajectory and z0. Returns (lhs, rhs) boolean arrays of length
    T_total + 1; equivalence should hold at every index.

    Args:
        states: (T+1, d) visited raw states.
        costs: (T,) per-step costs actually charged.
        z0: initial budget.
    """
    states = np.atleast_2d(np.asarray(states, dtype=np.float64))
    costs = np.asarray(costs, dtype=np.float64)
    if states.shape[0] != costs.shape[0] + 1:
        raise ValueError("need one more state than costs")

    in_g = np.asarray(problem.in_goal(states), dtype=bool)
    in_f = np.asarray(problem.in_avoid(states), dtype=bool)
    cum = np.concatenate([[0.0], np.cumsum(costs)])
    z = z0 - cum
    y = shifted_indicator(np.maximum.accumulate(in_f))

    lhs = in_g & ~np.maximum.accumulate(in_f) & (z0 >= cum)
    g = np.asarray(problem.goal_margin(states), dtype=np.float64)
    rhs = augmented_margin(g, y, z, params.big_c) <= 0.0
    return lhs, rhs
