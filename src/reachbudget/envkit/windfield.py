"""Point-mass navigation through a synthetic wind field.

The vehicle lives in the box [-30, 30]^2 and commands a velocity
u in [-2, 2]^2; the wind adds a drift, so x' = x + u + wind(x) per step.
The wind is an analytic stand-in for measured data: a constant
west-to-east shear that grows with altitude y plus two fixed vortices.
Riding the wind is cheaper than fighting it, which is the behavior the
cost c = ||u||^2 / 2 rewards.

The goal region is a small ellipse around a configurable goal point
(tighter in y than in x); buildings are axis-aligned rectangles forming
the avoid set.
"""

from __future__ import annotations

import numpy as np

from .base import ReachAvoidProblem

_BOX = 30.0
_DT = 1.0
_GOAL_PLATEAU = -300.0

# (xmin, xmax, ymin, ymax) per building: a wall with a flight corridor.
_DEFAULT_OBSTACLES = (
    (-5.0, 0.0, -30.0, -5.0),
    (-5.0, 0.0, 5.0, 30.0),
)

_SHEAR_STRENGTH = 1.0
_VORTICES = (
    # (center_x, center_y, circulation); positive spins counterclockwise
    (-10.0, 12.0, 8.0),
    (8.0, -10.0, -8.0),
)
_VORTEX_CORE_SQ = 25.0


class WindFieldLite(ReachAvoidProblem):
    name = "windfield"
    state_dim = 2
    action_dim = 2
    horizon_max = 300

    def __init__(
        self,
        goal_xy: tuple[float, float],
        obstacles: tuple[tuple[float, float, float, float], ...] = _DEFAULT_OBSTACLES,
    ) -> None:
        goal = np.asarray(goal_xy, dtype=np.float64)
        if goal.shape != (2,):
            raise ValueError("goal_xy must be a pair of reals")
        if np.any(np.abs(goal) > _BOX):
            raise ValueError("goal must lie within the [-30, 30]^2 box")
        self.goal = goal
        self.obstacles = tuple(tuple(map(float, rect)) for rect in obstacles)
        for rect in self.obstacles:
            xmin, xmax, ymin, ymax = rect
            if not (xmin < xmax and ymin < ymax):
                raise ValueError(f"degenerate obstacle rectangle {rect}")
        if self._in_avoid(goal[None, :])[0]:
            raise ValueError("goal lies inside an obstacle")
        self.action_low = np.array([-2.0, -2.0])
        self.action_high = np.array([2.0, 2.0])
        self.state_low = np.array([-_BOX, -_BOX])
        self.state_high = np.array([_BOX, _BOX])
        self.obs_scale = np.array([_BOX, _BOX])
        self._validate()

    # -- wind -------------------------------------------------------------

    def wind_at(self, x: np.ndarray) -> np.ndarray:
        return self._on_rows(self._wind_at, x)

    def _wind_at(self, xb: np.ndarray) -> np.ndarray:
        w = np.zeros_like(xb)
        w[:, 0] = _SHEAR_STRENGTH * xb[:, 1] / _BOX
        for cx, cy, circulation in _VORTICES:
            dx = xb[:, 0] - cx
            dy = xb[:, 1] - cy
            denom = dx**2 + dy**2 + _VORTEX_CORE_SQ
            w[:, 0] += circulation * (-dy) / denom
            w[:, 1] += circulation * dx / denom
        return w

    # -- dynamics ---------------------------------------------------------

    def _sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        px = rng.uniform(-28.0, -20.0, n)
        py = rng.uniform(-10.0, 10.0, n)
        return np.stack([px, py], axis=1)

    def _step_and_cost(self, xb: np.ndarray, ub: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        uc = np.minimum(np.maximum(ub, self.action_low), self.action_high)
        nxt = np.minimum(np.maximum(xb + (uc + self._wind_at(xb)) * _DT, -_BOX), _BOX)
        return nxt, 0.5 * np.sum(uc**2, axis=1)

    def max_step_cost(self) -> float:
        return 0.5 * float(np.sum(self.action_high**2))

    # -- sets and margins -------------------------------------------------

    def _in_goal(self, xb: np.ndarray) -> np.ndarray:
        dx = xb[:, 0] - self.goal[0]
        dy = xb[:, 1] - self.goal[1]
        # Open ellipse: the margin's zero level set itself is outside.
        return dx**2 + 10.0 * dy**2 < 16.0

    def _in_avoid(self, xb: np.ndarray) -> np.ndarray:
        inside = np.zeros(xb.shape[0], dtype=bool)
        for xmin, xmax, ymin, ymax in self.obstacles:
            inside |= (
                (xb[:, 0] >= xmin)
                & (xb[:, 0] <= xmax)
                & (xb[:, 1] >= ymin)
                & (xb[:, 1] <= ymax)
            )
        return inside

    def _goal_margin(self, xb: np.ndarray) -> np.ndarray:
        return np.where(self._in_goal(xb), _GOAL_PLATEAU, 10.0 * self._goal_distance(xb) - 40.0)

    def _avoid_margin(self, xb: np.ndarray) -> np.ndarray:
        return np.where(self._in_avoid(xb), 1.0, -1.0)

    def _goal_distance(self, xb: np.ndarray) -> np.ndarray:
        dx = xb[:, 0] - self.goal[0]
        dy = xb[:, 1] - self.goal[1]
        return np.sqrt(dx**2 + 10.0 * dy**2)


def windfield_make(goal_xy: tuple[float, float] = (15.0, 0.0)) -> WindFieldLite:
    return WindFieldLite(goal_xy)
