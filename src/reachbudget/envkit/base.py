"""Shared interface for reach-avoid control problems.

A problem bundles deterministic dynamics, a running cost, and the two
margin functions that define the goal set G and the avoid set F:

    g(x) <= 0  inside G (shipped environments use a -300 plateau on G)
    h(x) >  0  inside F

The interface a problem implements:

    sample_initial(rng, n)  start states
    step_and_cost(x, u)     successor x' and the cost c >= 0 charged
                            for the control actually executed
    goal_margin, avoid_margin, in_goal, in_avoid, goal_distance
                            the sets and their margins
    max_step_cost()         upper bound on one step's cost

Dynamics are deterministic. All randomness (initial states, control
noise) flows through explicitly passed generators.
"""

from __future__ import annotations

import numpy as np


class ReachAvoidProblem:
    """Base class for continuous-state reach-avoid problems.

    Subclasses must set:
        state_dim, action_dim: int
        action_low, action_high: (action_dim,) arrays, low < high elementwise
        horizon_max: int, episode step cap

    and implement the interface in the module docstring.

    All state/action methods accept either a single point `(d,)` or a
    batch `(n, d)` and vectorize over the batch.
    """

    name: str = "base"
    state_dim: int
    action_dim: int
    action_low: np.ndarray
    action_high: np.ndarray
    horizon_max: int
    # Box bounds of the state space where one exists; used for sampling
    # when estimating the goal-margin ceiling.
    state_low: np.ndarray | None = None
    state_high: np.ndarray | None = None
    # Per-component scale that maps states into roughly [-1, 1] for
    # network inputs. Defaults to ones.
    obs_scale: np.ndarray | None = None

    def _validate(self) -> None:
        self.action_low = np.asarray(self.action_low, dtype=np.float64)
        self.action_high = np.asarray(self.action_high, dtype=np.float64)
        if not np.all(self.action_low < self.action_high):
            raise ValueError("action_low must be < action_high elementwise")
        if self.horizon_max < 1:
            raise ValueError("horizon_max must be >= 1")
        if self.obs_scale is None:
            self.obs_scale = np.ones(self.state_dim)

    # -- dynamics ---------------------------------------------------------

    def sample_initial(self, rng: np.random.Generator, n: int | None = None) -> np.ndarray:
        raise NotImplementedError

    def step_and_cost(self, x: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Successor f(x, u) and running cost c(x, u) >= 0 of one step.

        Both belong to the control actually executed: problems clip u
        to the action box, and a noise wrapper draws its noise once.
        """
        raise NotImplementedError

    def max_step_cost(self) -> float:
        """Upper bound on the one-step cost, used for budget ranges."""
        raise NotImplementedError

    def reseed(self, seed: int) -> None:
        """Restart the problem's own noise stream from seed.

        Deterministic problems have none, so this does nothing; wrappers
        that draw noise inside step_and_cost override it. Seeded sweeps
        such as rcppo.evaluate_policy call it with their seed.
        """

    # -- sets and margins -------------------------------------------------

    def goal_margin(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def avoid_margin(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def in_goal(self, x: np.ndarray) -> np.ndarray:
        """Geometric membership test for G, independent of goal_margin."""
        raise NotImplementedError

    def in_avoid(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def goal_distance(self, x: np.ndarray) -> np.ndarray:
        """Nonnegative distance-like quantity, zero at the goal center."""
        raise NotImplementedError


def _as_batch(x: np.ndarray, dim: int) -> tuple[np.ndarray, bool]:
    """Promote (d,) to (1, d); return (batch, was_single)."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 1:
        if arr.shape[0] != dim:
            raise ValueError(f"expected state/action of length {dim}, got {arr.shape}")
        return arr[None, :], True
    if arr.ndim != 2 or arr.shape[1] != dim:
        raise ValueError(f"expected shape (n, {dim}), got {arr.shape}")
    return arr, False


def _squeeze(batch: np.ndarray, was_single: bool) -> np.ndarray:
    return batch[0] if was_single else batch
