"""Reachability value backups, advantage estimation, and exact solvers.

The reach value of a trajectory is the running minimum of the augmented
goal margin ghat, not a discounted sum. Its Bellman form

    V(s) = min(ghat(s), V(s'))

is not a contraction, so learning uses the discounted surrogate

    V(s) = (1 - gamma) * ghat(s) + gamma * min(ghat(s), V(s'))

which contracts with modulus gamma and whose sign agrees with the
undiscounted value once gamma clears the bound in discount_sign_bound.

Advantages replace the usual discounted-sum telescoping with the
phi fold: phi1(a, b) = (1 - gamma) * a + gamma * min(a, b) applied
right-to-left over (ghat_t, ..., ghat_{t+k-1}, V_{t+k}).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .augment import augmented_margin
from .envkit.tabular import TabularMDP


# -- the backup ---------------------------------------------------------------


def discounted_backup(ghat_t, v_next, gamma: float, out=None):
    """(1 - gamma) * ghat + gamma * min(ghat, V'), elementwise; gamma = 1
    gives the undiscounted reach backup min(ghat, V').

    Formed in out when given (which may be v_next): the minimum, then the
    product by gamma, then the sum, each rounded as in the formula, whose
    two terms' sum commutes.
    """
    if not 0.0 < gamma <= 1.0:
        raise ValueError("gamma must be in (0, 1]")
    new = np.minimum(ghat_t, v_next, out=out)
    new *= gamma
    new += (1.0 - gamma) * np.asarray(ghat_t)
    return new


# -- advantage estimation ----------------------------------------------------


def _gae_arrays(
    ghat: np.ndarray,
    values: np.ndarray,
    tail_value: float,
    gamma: float,
    lam: float,
    mode: str = "renormalized",
) -> tuple[np.ndarray, np.ndarray]:
    """Advantages and lambda-return targets for one complete episode.

    Args:
        ghat: (T,) augmented goal margins at the visited states.
        values: (T,) learned values at the visited states.
        tail_value: value closing every fold chain; the final margin
            itself when the episode ended inside the augmented goal,
            the learned value of the final state when truncated.
        lam: trace weight in [0, 1); at 1 both weightings divide by 0.
        mode: "renormalized" weights lambda^(k-1) scaled to sum to 1
            over the k available at each step; "literal" reproduces
            the infinite-series weighting lambda^k / (1 - lambda),
            truncated at the episode end.

    Returns:
        (gae, lambda_returns), both (T,).
    """
    ghat = np.asarray(ghat, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    t_len = ghat.shape[0]
    if t_len == 0:
        raise ValueError("empty trajectory")
    if ghat.shape != values.shape:
        raise ValueError("ghat and values must have equal length")
    if mode not in ("renormalized", "literal"):
        raise ValueError(f"unknown gae mode {mode!r}")
    if not 0.0 <= lam < 1.0:
        raise ValueError(f"lam must be in [0, 1), got {lam}")

    # fold[t] carries the k-step target phi^(k)(ghat_t, ..., V_{t+k});
    # it starts as the 0-step target V_t (with the tail closing t = T)
    # and shortens by one each round because no chain crosses the
    # episode end.
    fold = np.concatenate([values, [tail_value]])
    weighted = np.zeros(t_len)
    lam_pow = 1.0
    for k in range(1, t_len + 1):
        n = t_len - k + 1
        new = discounted_backup(ghat[:n], fold[1 : n + 1], gamma)
        fold[:n] = new
        weighted[:n] += lam_pow * (new - values[:n])
        lam_pow *= lam
    k_avail = np.arange(t_len, 0, -1, dtype=np.float64)
    if mode == "renormalized":
        gae = weighted * (1.0 - lam) / (1.0 - lam**k_avail)
    else:
        gae = weighted * lam / (1.0 - lam)
    return gae, gae + values


# -- tabular solver -----------------------------------------------------------


def make_z_grid(delta: float, z_max: float, z_bottom: float = -1.0) -> np.ndarray:
    """Budget grid {z_bottom, delta, 2*delta, ..., ~z_max}.

    Zero is deliberately not a node: a budget that would land in
    [z_bottom, delta) snaps down to the negative bottom node, so the
    tabular model never overstates the remaining budget.
    """
    if delta <= 0 or z_max < delta:
        raise ValueError("need 0 < delta <= z_max")
    if z_bottom >= 0:
        raise ValueError("z_bottom must be negative")
    positive = np.arange(delta, z_max + delta * 0.5, delta)
    return np.concatenate([[z_bottom], positive])


def snap_z_index(z_grid: np.ndarray, z) -> np.ndarray:
    """Index of the largest grid node <= z, clamped to the bottom node.

    No clamp is needed at the top: searchsorted's right side is at most
    len(z_grid), one past the top node.
    """
    return np.maximum(z_grid.searchsorted(z, side="right") - 1, 0)


@dataclass
class AugmentedTabular:
    """Finite MDP lifted over (state, flag, budget-grid-index)."""

    mdp: TabularMDP
    z_grid: np.ndarray
    big_c: float
    ghat: np.ndarray  # (S, 2, Z); flag axis: 0 -> y=-1, 1 -> y=+1
    # (S, 2, Z, A) flat successor indices into ravel(S,2,Z), stored
    # action-major so each succ[..., a] is one contiguous index array
    succ: np.ndarray
    absorbing: np.ndarray  # (S, 2, Z) bool, augmented-goal states

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.ghat.shape


def augment_tabular(mdp: TabularMDP, z_grid: np.ndarray, big_c: float) -> AugmentedTabular:
    s_n, a_n = mdp.n_states, mdp.n_actions
    z_n = len(z_grid)
    y_vals = np.array([-1.0, 1.0])

    ghat = augmented_margin(
        mdp.g_values[:, None, None], y_vals[None, :, None], z_grid[None, None, :], big_c
    )

    # Successor indices: y latches on the arrival state, z snaps down.
    by_action = np.empty((a_n, s_n, 2, z_n), dtype=np.int64)
    for a in range(a_n):
        s_next = mdp.next_state[:, a]
        z_next_idx = snap_z_index(z_grid, z_grid[None, :] - mdp.cost[:, a][:, None])
        for yi in range(2):
            y_next = np.maximum(yi, mdp.avoid_mask[s_next].astype(int))
            by_action[a, :, yi, :] = (
                (s_next[:, None] * 2 + y_next[:, None]) * z_n + z_next_idx
            )
    absorbing = ghat <= 0.0
    return AugmentedTabular(
        mdp=mdp, z_grid=np.asarray(z_grid, dtype=np.float64), big_c=float(big_c),
        ghat=ghat, succ=np.moveaxis(by_action, 0, -1), absorbing=absorbing,
    )


@dataclass
class TabularValueTable:
    """Fixed point of the discounted reach backup on a budget grid."""

    values: np.ndarray  # (S, 2, Z)
    z_grid: np.ndarray
    residuals: np.ndarray
    gamma: float
    big_c: float
    sweeps: int

    @property
    def residual(self) -> float:
        return float(self.residuals[-1]) if len(self.residuals) else 0.0

    def value_at(self, state: int, y_flag: float, z) -> np.ndarray:
        """Values of one state at budgets z, each snapped down to the grid.

        One lookup for the whole vector; this is the one-state case of
        rcppo.bisect_z_star's value-function contract.

        Raises:
            ValueError: y_flag is NaN; it has no sign, so neither half
                of the table can answer for it.
        """
        if y_flag != y_flag:
            raise ValueError("y_flag is NaN")
        yi = 0 if y_flag < 0 else 1
        return self.values[state, yi, snap_z_index(self.z_grid, z)]


def apply_backup_sweep(
    ghat: np.ndarray,
    succ: np.ndarray,
    values: np.ndarray,
    gamma: float,
    frozen: np.ndarray | None = None,
) -> np.ndarray:
    """One synchronous sweep of the discounted reach backup.

    succ may be (N,) for an on-policy chain or (N, A) for the greedy
    operator (minimum over actions). States marked frozen keep their
    ghat value (absorbing goal states). The sweep is the operator whose
    sup-norm contraction modulus the tests measure.

    The greedy operator takes the minimum successor value first and
    backs up once: the backup is nondecreasing in V', and each of its
    float steps (min, the product by gamma, the sum) rounds
    monotonically, so the minimum of the per-action backups equals the
    backup of the minimum successor value. The result equals the
    per-action form's under ==, and is bitwise the same except where a
    margin is -0.0: there a zero result may differ in sign, since which
    of two signed zeros a minimum keeps is not specified.
    """
    if succ.ndim == values.ndim:
        succ = succ[..., None]  # an on-policy chain has one action
    flat = values.reshape(-1)
    best = flat[succ[..., 0]]
    for a in range(1, succ.shape[-1]):
        np.minimum(best, flat[succ[..., a]], out=best)
    # the backup and the freeze overwrite the minimum, a fresh array
    discounted_backup(ghat, best, gamma, out=best)
    if frozen is not None:
        np.copyto(best, ghat, where=frozen)
    return best


def tabular_value_iteration(
    aug: AugmentedTabular,
    gamma: float = 0.99,
    tol: float = 1e-9,
    max_sweeps: int | None = None,
) -> TabularValueTable:
    """Solve the discounted reach backup to its fixed point.

    Starting from V = ghat the greedy (min over actions) sweeps decrease
    monotonically and, for these deterministic transition systems,
    settle exactly: every forward orbit grounds at a cycle's minimum
    margin, so the residual reaches 0 after at most about two passes
    over the augmented states.

    Args:
        gamma: discount in (0, 1]; 1 selects the undiscounted backup.
        tol: residual at which to stop if exact convergence has not
            already happened.

    Raises:
        RuntimeError: residual still above tol after max_sweeps.
    """
    if not 0.0 < gamma <= 1.0:
        raise ValueError("gamma must be in (0, 1]")
    if max_sweeps is None:
        max_sweeps = 2 * aug.ghat.size + 200

    values = aug.ghat.copy()
    gap = np.empty_like(values)
    residuals = []
    for sweep in range(1, max_sweeps + 1):
        new = apply_backup_sweep(aug.ghat, aug.succ, values, gamma, frozen=aug.absorbing)
        np.subtract(new, values, out=gap)
        residual = float(np.max(np.abs(gap, out=gap)))
        residuals.append(residual)
        values = new
        if residual == 0.0 or residual < tol:
            return TabularValueTable(
                values=values,
                z_grid=aug.z_grid,
                residuals=np.asarray(residuals),
                gamma=gamma,
                big_c=aug.big_c,
                sweeps=sweep,
            )
    raise RuntimeError(
        f"value iteration missed tol={tol} after {max_sweeps} sweeps "
        f"(residual {residuals[-1]:.3e})"
    )


# -- discount bound -----------------------------------------------------------


def discount_sign_bound(g_max: float, t_max: int, eps: float) -> float:
    """Infimum discount at which sign(discounted value) is trustworthy.

    Any gamma strictly above the returned value satisfies
    gamma^t_max / (1 - gamma^t_max) > g_max / eps, where g_max bounds
    the positive margins along a feasible trajectory and eps is the
    margin gap at the goal. At the returned value the relation holds
    with equality.
    """
    if g_max <= 0:
        raise ValueError("g_max must be positive")
    if eps <= 0:
        raise ValueError("eps must be positive")
    if t_max < 1:
        raise ValueError("t_max must be >= 1")
    return float((g_max / (g_max + eps)) ** (1.0 / t_max))
