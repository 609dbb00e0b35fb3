from .base import ReachAvoidProblem
from .noise import ControlNoiseWrapper, NoiseWrapperConfig
from .pendulum import PendulumSwingUp, pendulum_make
from .tabular import (
    GRID_ACTIONS,
    TabularMDP,
    TabularProblemView,
    two_start_bandit_make,
    grid_reachavoid_make,
)
from .windfield import WindFieldLite, windfield_make

__all__ = [
    "ReachAvoidProblem",
    "ControlNoiseWrapper",
    "NoiseWrapperConfig",
    "PendulumSwingUp",
    "pendulum_make",
    "GRID_ACTIONS",
    "TabularMDP",
    "TabularProblemView",
    "two_start_bandit_make",
    "grid_reachavoid_make",
    "WindFieldLite",
    "windfield_make",
]
