"""Finite deterministic MDP fixtures.

Two families ship here: 4-connected gridworlds with hazard cells (the
oracle substrate for exact value iteration, shortest safe path checks,
and budget bisection) and a six-state two-action bandit with a uniform
two-point initial distribution whose optimal trade-offs are computable
in closed form.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .base import ReachAvoidProblem

_GOAL_PLATEAU = -300.0

GRID_ACTIONS = ((-1, 0), (1, 0), (0, -1), (0, 1))  # up, down, left, right


@dataclass
class TabularMDP:
    """Deterministic finite MDP with goal/avoid structure.

    Fields:
        next_state: (S, A) successor indices
        cost: (S, A) nonnegative running costs
        reward: (S, A) rewards for baseline fixtures, zeros elsewhere
        goal_mask / avoid_mask: (S,) membership flags
        g_values / h_values: (S,) goal and avoid margins
        initial_states / initial_probs: support and weights of the
            start distribution
        horizon_max: episode step cap
        coords: (S, k) integer coordinates for export, or None
    """

    n_states: int
    n_actions: int
    next_state: np.ndarray
    cost: np.ndarray
    reward: np.ndarray
    goal_mask: np.ndarray
    avoid_mask: np.ndarray
    g_values: np.ndarray
    h_values: np.ndarray
    initial_states: np.ndarray
    initial_probs: np.ndarray
    horizon_max: int
    labels: tuple[str, ...] = ()
    coords: np.ndarray | None = None

    def __post_init__(self) -> None:
        s, a = self.n_states, self.n_actions
        if self.next_state.shape != (s, a):
            raise ValueError("next_state must have shape (n_states, n_actions)")
        if np.any(self.next_state < 0) or np.any(self.next_state >= s):
            raise ValueError("next_state indices out of range")
        if not np.all(np.isfinite(self.cost)):
            raise ValueError("costs must be finite")
        if np.any(self.goal_mask & self.avoid_mask):
            raise ValueError("goal and avoid sets must be disjoint")
        if not np.isclose(self.initial_probs.sum(), 1.0):
            raise ValueError("initial_probs must sum to 1")

    def max_step_cost(self) -> float:
        return float(self.cost.max())

    def as_problem(self) -> "TabularProblemView":
        return TabularProblemView(self)


class TabularProblemView(ReachAvoidProblem):
    """Adapter presenting a TabularMDP through the continuous interface.

    States are length-1 float arrays holding the state index; actions
    are length-1 float arrays holding the action index. This lets the
    augmentation and rollout machinery drive tabular fixtures unchanged.
    """

    state_dim = 1
    action_dim = 1

    def __init__(self, mdp: TabularMDP) -> None:
        self.mdp = mdp
        self.name = f"tabular[{len(mdp.labels)} states]" if mdp.labels else "tabular"
        self.action_low = np.array([0.0])
        self.action_high = np.array([float(mdp.n_actions - 1)])
        self.horizon_max = mdp.horizon_max
        self.obs_scale = np.array([max(1.0, float(mdp.n_states - 1))])
        self._validate()

    def _idx(self, x: np.ndarray) -> np.ndarray:
        return np.rint(x[:, 0]).astype(int)

    def _sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        states = rng.choice(self.mdp.initial_states, size=n, p=self.mdp.initial_probs)
        return states.astype(np.float64)[:, None]

    def _step_and_cost(self, xb: np.ndarray, ub: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        s = self._idx(xb)
        a = np.minimum(np.maximum(np.rint(ub[:, 0]).astype(int), 0), self.mdp.n_actions - 1)
        return self.mdp.next_state[s, a].astype(np.float64)[:, None], self.mdp.cost[s, a]

    def max_step_cost(self) -> float:
        return self.mdp.max_step_cost()

    def _in_goal(self, xb: np.ndarray) -> np.ndarray:
        return self.mdp.goal_mask[self._idx(xb)]

    def _in_avoid(self, xb: np.ndarray) -> np.ndarray:
        return self.mdp.avoid_mask[self._idx(xb)]

    def _goal_margin(self, xb: np.ndarray) -> np.ndarray:
        return self.mdp.g_values[self._idx(xb)]

    def _avoid_margin(self, xb: np.ndarray) -> np.ndarray:
        return self.mdp.h_values[self._idx(xb)]

    def _goal_distance(self, xb: np.ndarray) -> np.ndarray:
        return np.maximum(self.mdp.g_values[self._idx(xb)], 0.0)


def grid_reachavoid_make(
    width: int,
    height: int,
    hazards: tuple[tuple[int, int], ...],
    goal_cell: tuple[int, int],
    step_cost_table=None,
) -> TabularMDP:
    """Build a 4-connected gridworld with latching hazard cells.

    Cells are (row, col); moving off the edge stays in place but still
    pays the step cost. Hazards are enterable (the safety flag latches,
    they are not walls). The goal margin is the Manhattan distance to
    the goal cell, with the -300 plateau on the goal itself.

    Args:
        width, height: grid dimensions, at most 12x12.
        hazards: hazard cells.
        goal_cell: the single goal cell, not a hazard.
        step_cost_table: None for unit costs, a number, or a dict
            mapping (row, col) to the cost of every action taken from
            that cell; anything else raises TypeError.
    """
    if width < 1 or height < 1 or width > 12 or height > 12:
        raise ValueError("grid dimensions must be within 1x1 .. 12x12")
    hazard_set = {tuple(hz) for hz in hazards}
    goal = tuple(goal_cell)
    if goal in hazard_set:
        raise ValueError("goal_cell must not be a hazard")
    for r, c in hazard_set | {goal}:
        if not (0 <= r < height and 0 <= c < width):
            raise ValueError(f"cell {(r, c)} outside the {height}x{width} grid")

    n_states = width * height
    n_actions = len(GRID_ACTIONS)

    def sid(r: int, c: int) -> int:
        return r * width + c

    next_state = np.zeros((n_states, n_actions), dtype=int)
    for r in range(height):
        for c in range(width):
            for a, (dr, dc) in enumerate(GRID_ACTIONS):
                nr, nc = r + dr, c + dc
                if not (0 <= nr < height and 0 <= nc < width):
                    nr, nc = r, c
                next_state[sid(r, c), a] = sid(nr, nc)

    if step_cost_table is None:
        cost = np.ones((n_states, n_actions))
    elif isinstance(step_cost_table, dict):
        cost = np.ones((n_states, n_actions))
        for (r, c), value in step_cost_table.items():
            cost[sid(r, c), :] = float(value)
    elif isinstance(step_cost_table, numbers.Real):
        cost = np.full((n_states, n_actions), float(step_cost_table))
    else:
        raise TypeError("step_cost_table must be None, a number or a (row, col) -> cost "
                        f"dict, not {type(step_cost_table).__name__}")
    if np.any(cost < 0):
        raise ValueError("step costs must be nonnegative")

    goal_mask = np.zeros(n_states, dtype=bool)
    goal_mask[sid(*goal)] = True
    avoid_mask = np.zeros(n_states, dtype=bool)
    for r, c in hazard_set:
        avoid_mask[sid(r, c)] = True

    coords = np.array([(r, c) for r in range(height) for c in range(width)])
    manhattan = np.abs(coords[:, 0] - goal[0]) + np.abs(coords[:, 1] - goal[1])
    g_values = np.where(goal_mask, _GOAL_PLATEAU, manhattan.astype(np.float64))
    h_values = np.where(avoid_mask, 1.0, -1.0)

    non_hazard = [s for s in range(n_states) if not avoid_mask[s] and not goal_mask[s]]
    initial_states = np.array(non_hazard if non_hazard else [sid(*goal)])
    initial_probs = np.full(len(initial_states), 1.0 / len(initial_states))

    return TabularMDP(
        n_states=n_states,
        n_actions=n_actions,
        next_state=next_state,
        cost=cost,
        reward=np.zeros((n_states, n_actions)),
        goal_mask=goal_mask,
        avoid_mask=avoid_mask,
        g_values=g_values,
        h_values=h_values,
        initial_states=initial_states,
        initial_probs=initial_probs,
        horizon_max=4 * (width + height),
        labels=tuple(f"r{r}c{c}" for r in range(height) for c in range(width)),
        coords=coords,
    )


def two_start_bandit_make() -> TabularMDP:
    """Two-initial-state bandit with a reward/cost trade-off.

    From the first start state, one action reaches a goal cheaply for
    little reward (cost 10, reward 10) and the other reaches a dearer,
    better goal (cost 20, reward 20). From the second start state, one
    action reaches a goal at cost 30 for reward 20, and the other falls
    into an absorbing non-goal state for free. A policy is the pair
    (p_a, p_b) of probabilities of the first action at each start.
    """
    labels = ("A", "B", "G1", "G2", "G3", "I")
    a, b, g1, g2, g3, absorb = range(6)
    n_states, n_actions = 6, 2

    next_state = np.tile(np.arange(n_states)[:, None], (1, n_actions))
    next_state[a] = [g1, g2]
    next_state[b] = [g3, absorb]

    cost = np.zeros((n_states, n_actions))
    cost[a] = [10.0, 20.0]
    cost[b] = [30.0, 0.0]

    reward = np.zeros((n_states, n_actions))
    reward[a] = [10.0, 20.0]
    reward[b] = [20.0, 0.0]

    goal_mask = np.zeros(n_states, dtype=bool)
    goal_mask[[g1, g2, g3]] = True
    avoid_mask = np.zeros(n_states, dtype=bool)
    g_values = np.where(goal_mask, _GOAL_PLATEAU, 1.0)
    h_values = np.full(n_states, -1.0)

    return TabularMDP(
        n_states=n_states,
        n_actions=n_actions,
        next_state=next_state,
        cost=cost,
        reward=reward,
        goal_mask=goal_mask,
        avoid_mask=avoid_mask,
        g_values=g_values,
        h_values=h_values,
        initial_states=np.array([a, b]),
        initial_probs=np.array([0.5, 0.5]),
        horizon_max=1,
        labels=labels,
    )
