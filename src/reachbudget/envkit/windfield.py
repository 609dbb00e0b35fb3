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

from .base import ReachAvoidProblem, _as_batch, _squeeze

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
        if bool(np.asarray(self._inside_any_obstacle(goal[None, :]))[0]):
            raise ValueError("goal lies inside an obstacle")
        self.action_low = np.array([-2.0, -2.0])
        self.action_high = np.array([2.0, 2.0])
        self.state_low = np.array([-_BOX, -_BOX])
        self.state_high = np.array([_BOX, _BOX])
        self.obs_scale = np.array([_BOX, _BOX])
        self._validate()

    # -- wind -------------------------------------------------------------

    def wind_at(self, x: np.ndarray) -> np.ndarray:
        xb, single = _as_batch(x, self.state_dim)
        w = np.zeros_like(xb)
        w[:, 0] = _SHEAR_STRENGTH * xb[:, 1] / _BOX
        for cx, cy, circulation in _VORTICES:
            dx = xb[:, 0] - cx
            dy = xb[:, 1] - cy
            denom = dx**2 + dy**2 + _VORTEX_CORE_SQ
            w[:, 0] += circulation * (-dy) / denom
            w[:, 1] += circulation * dx / denom
        return _squeeze(w, single)

    # -- dynamics ---------------------------------------------------------

    def sample_initial(self, rng: np.random.Generator, n: int | None = None) -> np.ndarray:
        size = 1 if n is None else n
        px = rng.uniform(-28.0, -20.0, size)
        py = rng.uniform(-10.0, 10.0, size)
        out = np.stack([px, py], axis=1)
        return out[0] if n is None else out

    def step_and_cost(self, x: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        xb, single = _as_batch(x, self.state_dim)
        ub, _ = _as_batch(u, self.action_dim)
        uc = np.minimum(np.maximum(ub, self.action_low), self.action_high)
        nxt = np.minimum(np.maximum(xb + (uc + self.wind_at(xb)) * _DT, -_BOX), _BOX)
        return _squeeze(nxt, single), _squeeze(0.5 * np.sum(uc**2, axis=1), single)

    def max_step_cost(self) -> float:
        return 0.5 * float(np.sum(self.action_high**2))

    # -- sets and margins -------------------------------------------------

    def _inside_any_obstacle(self, xb: np.ndarray) -> np.ndarray:
        inside = np.zeros(xb.shape[0], dtype=bool)
        for xmin, xmax, ymin, ymax in self.obstacles:
            inside |= (
                (xb[:, 0] >= xmin)
                & (xb[:, 0] <= xmax)
                & (xb[:, 1] >= ymin)
                & (xb[:, 1] <= ymax)
            )
        return inside

    def in_goal(self, x: np.ndarray) -> np.ndarray:
        xb, single = _as_batch(x, self.state_dim)
        dx = xb[:, 0] - self.goal[0]
        dy = xb[:, 1] - self.goal[1]
        # Open ellipse: the margin's zero level set itself is outside.
        return _squeeze(dx**2 + 10.0 * dy**2 < 16.0, single)

    def in_avoid(self, x: np.ndarray) -> np.ndarray:
        xb, single = _as_batch(x, self.state_dim)
        return _squeeze(self._inside_any_obstacle(xb), single)

    def goal_margin(self, x: np.ndarray) -> np.ndarray:
        xb, single = _as_batch(x, self.state_dim)
        dist = self.goal_distance(xb)
        g = np.where(self.in_goal(xb), _GOAL_PLATEAU, 10.0 * dist - 40.0)
        return _squeeze(g, single)

    def avoid_margin(self, x: np.ndarray) -> np.ndarray:
        xb, single = _as_batch(x, self.state_dim)
        h = np.where(self._inside_any_obstacle(xb), 1.0, -1.0)
        return _squeeze(h, single)

    def goal_distance(self, x: np.ndarray) -> np.ndarray:
        xb, single = _as_batch(x, self.state_dim)
        dx = xb[:, 0] - self.goal[0]
        dy = xb[:, 1] - self.goal[1]
        return _squeeze(np.sqrt(dx**2 + 10.0 * dy**2), single)


def windfield_make(goal_xy: tuple[float, float] = (15.0, 0.0)) -> WindFieldLite:
    return WindFieldLite(goal_xy)
