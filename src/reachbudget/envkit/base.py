"""Shared interface for reach-avoid control problems.

A problem bundles deterministic dynamics, a running cost, and the two
margin functions that define the goal set G and the avoid set F:

    g(x) <= 0  inside G (shipped environments use a -300 plateau on G)
    h(x) >  0  inside F

A problem implements the rows forms, which take rows (n, d) only:

    _sample(rng, n)          n start states
    _step_and_cost(xb, ub)   successors x' and the costs c >= 0 charged
                             for the controls actually executed
    _goal_margin, _avoid_margin, _in_goal, _in_avoid, _goal_distance
                             the sets and their margins, one per row
    max_step_cost()          upper bound on one step's cost

The base class owns the public methods sample_initial, step_and_cost,
goal_margin, avoid_margin, in_goal, in_avoid and goal_distance. Each
takes one point (d,) or rows (n, d), refuses any other shape with a
ValueError, calls the rows form, and gives a point's result for a
point. A rows form that needs another calls that one's rows form.

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

    and implement the rows forms in the module docstring.
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
        """One start state (state_dim,), or n rows of them."""
        out = self._sample(rng, 1 if n is None else n)
        return out[0] if n is None else out

    def step_and_cost(self, x: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Successor f(x, u) and running cost c(x, u) >= 0 of one step.

        Both belong to the control actually executed: problems clip u
        to the action box, and a noise wrapper draws its noise once.
        """
        xb, single = _as_batch(x, self.state_dim)
        nxt, c = self._step_and_cost(xb, _as_batch(u, self.action_dim)[0])
        return (nxt[0], c[0]) if single else (nxt, c)

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

    def _on_rows(self, rows_form, x: np.ndarray) -> np.ndarray:
        """rows_form on x as rows, and a point's result for a point."""
        xb, single = _as_batch(x, self.state_dim)
        out = rows_form(xb)
        return out[0] if single else out

    def goal_margin(self, x: np.ndarray) -> np.ndarray:
        return self._on_rows(self._goal_margin, x)

    def avoid_margin(self, x: np.ndarray) -> np.ndarray:
        return self._on_rows(self._avoid_margin, x)

    def in_goal(self, x: np.ndarray) -> np.ndarray:
        """Geometric membership test for G, independent of goal_margin."""
        return self._on_rows(self._in_goal, x)

    def in_avoid(self, x: np.ndarray) -> np.ndarray:
        return self._on_rows(self._in_avoid, x)

    def goal_distance(self, x: np.ndarray) -> np.ndarray:
        """Nonnegative distance-like quantity, zero at the goal center."""
        return self._on_rows(self._goal_distance, x)


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
