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


@dataclass
class BackupConfig:
    """Discount and averaging constants shared across the trainers."""

    gamma: float = 0.99
    lam: float = 0.95

    def __post_init__(self) -> None:
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError("gamma must be in (0, 1]")
        if not 0.0 < self.lam < 1.0:
            raise ValueError("lam must be in (0, 1)")


# -- single-step backups ----------------------------------------------------


def rabe_backup(g_t, h_t, v_next):
    """Reach-avoid backup max(h, min(g, V'))."""
    return np.maximum(h_t, np.minimum(g_t, v_next))


def rbe_backup(ghat_t, v_next):
    """Undiscounted reach backup min(ghat, V')."""
    return np.minimum(ghat_t, v_next)


def discounted_backup(ghat_t, v_next, gamma: float):
    if not 0.0 < gamma <= 1.0:
        raise ValueError("gamma must be in (0, 1]")
    return (1.0 - gamma) * np.asarray(ghat_t) + gamma * np.minimum(ghat_t, v_next)


def q_backup(ghat_t, v_next, gamma: float):
    """State-action variant of discounted_backup.

    Same arithmetic; the caller supplies V at the successor reached by
    a particular action instead of the on-policy successor.
    """
    return discounted_backup(ghat_t, v_next, gamma)


def phi_reduce(values: np.ndarray, gamma: float) -> float:
    """Right fold of the discounted backup over a value chain.

    values = (x_1, ..., x_{n+1}) folds as phi1(x_1, phi1(x_2, ...)),
    with phi1(a, b) = (1 - gamma) * a + gamma * min(a, b). The result
    always lies between min(values) and max(values).
    """
    vals = np.asarray(values, dtype=np.float64)
    if vals.ndim != 1 or vals.shape[0] < 2:
        raise ValueError("phi_reduce needs at least two values")
    if not 0.0 < gamma <= 1.0:
        raise ValueError("gamma must be in (0, 1]")
    acc = vals[-1]
    for v in vals[-2::-1]:
        acc = (1.0 - gamma) * v + gamma * min(v, acc)
    return float(acc)


# -- advantage estimation ----------------------------------------------------


@dataclass
class AdvantageRecord:
    """Per-step advantage summary.

    k_step_adv[k-1] holds the k-step advantage, i.e. the phi fold over
    (ghat_t, ..., ghat_{t+k-1}, V_{t+k}) minus V_t; gae_adv is their
    lambda-weighted combination and lambda_return = gae_adv + V_t is
    the value-regression target.
    """

    k_step_adv: np.ndarray
    gae_adv: float
    lambda_return: float


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

    # fold[t] carries the k-step target phi^(k)(ghat_t, ..., V_{t+k});
    # it starts as the 0-step target V_t (with the tail closing t = T)
    # and shortens by one each round because no chain crosses the
    # episode end.
    fold = np.concatenate([values, [tail_value]])
    weighted = np.zeros(t_len)
    lam_pow = 1.0
    for k in range(1, t_len + 1):
        n = t_len - k + 1
        new = (1.0 - gamma) * ghat[:n] + gamma * np.minimum(ghat[:n], fold[1 : n + 1])
        fold[:n] = new
        weighted[:n] += lam_pow * (new - values[:n])
        lam_pow *= lam
    k_avail = np.arange(t_len, 0, -1, dtype=np.float64)
    if mode == "renormalized":
        gae = weighted * (1.0 - lam) / (1.0 - lam**k_avail)
    else:
        gae = weighted * lam / (1.0 - lam)
    return gae, gae + values


def gae_advantages(
    ghat: np.ndarray,
    values: np.ndarray,
    tail_value: float,
    gamma: float,
    lam: float,
    mode: str = "renormalized",
) -> list[AdvantageRecord]:
    """Per-step AdvantageRecords for one complete episode.

    See _gae_arrays for the estimator; this wrapper additionally
    materializes every k-step advantage for inspection.
    """
    ghat = np.asarray(ghat, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    gae, lam_ret = _gae_arrays(ghat, values, tail_value, gamma, lam, mode)
    t_len = ghat.shape[0]
    v_ext = np.concatenate([values[1:], [tail_value]])
    records = []
    for t in range(t_len):
        ks = np.empty(t_len - t)
        for k in range(1, t_len - t + 1):
            args = np.concatenate([ghat[t : t + k], [v_ext[t + k - 1]]])
            ks[k - 1] = phi_reduce(args, gamma) - values[t]
        records.append(
            AdvantageRecord(k_step_adv=ks, gae_adv=float(gae[t]), lambda_return=float(lam_ret[t]))
        )
    return records


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
    """Index of the largest grid node <= z, clamped to the bottom node."""
    idx = np.searchsorted(z_grid, np.asarray(z), side="right") - 1
    return np.clip(idx, 0, len(z_grid) - 1)


@dataclass
class AugmentedTabular:
    """Finite MDP lifted over (state, flag, budget-grid-index)."""

    mdp: TabularMDP
    z_grid: np.ndarray
    big_c: float
    ghat: np.ndarray  # (S, 2, Z); flag axis: 0 -> y=-1, 1 -> y=+1
    succ: np.ndarray  # (S, 2, Z, A) flat successor indices into ravel(S,2,Z)
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
    succ = np.empty((s_n, 2, z_n, a_n), dtype=np.int64)
    for a in range(a_n):
        s_next = mdp.next_state[:, a]
        z_next_idx = snap_z_index(z_grid, z_grid[None, :] - mdp.cost[:, a][:, None])
        for yi in range(2):
            y_next = np.maximum(yi, mdp.avoid_mask[s_next].astype(int))
            succ[:, yi, :, a] = (
                (s_next[:, None] * 2 + y_next[:, None]) * z_n + z_next_idx
            )
    absorbing = ghat <= 0.0
    return AugmentedTabular(
        mdp=mdp, z_grid=np.asarray(z_grid, dtype=np.float64), big_c=float(big_c),
        ghat=ghat, succ=succ, absorbing=absorbing,
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
        """
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
    """
    v_flat = values.reshape(-1)
    v_succ = v_flat[succ]
    if succ.ndim == values.ndim + 1:
        q = (1.0 - gamma) * ghat[..., None] + gamma * np.minimum(ghat[..., None], v_succ)
        new = q.min(axis=-1)
    else:
        new = (1.0 - gamma) * ghat + gamma * np.minimum(ghat, v_succ)
    if frozen is not None:
        new = np.where(frozen, ghat, new)
    return new


def tabular_value_iteration(
    aug: AugmentedTabular,
    policy: np.ndarray | None = None,
    gamma: float = 0.99,
    tol: float = 1e-9,
    max_sweeps: int | None = None,
) -> TabularValueTable:
    """Solve the discounted reach backup to its fixed point.

    Starting from V = ghat the sweeps decrease monotonically and, for
    these deterministic transition systems, settle exactly: every
    forward orbit grounds at a cycle's minimum margin, so the residual
    reaches 0 after at most about two passes over the augmented states.

    Args:
        policy: None for the greedy (min over actions) operator, a (S,)
            action table, or a full (S, 2, Z) table.
        gamma: discount in (0, 1]; 1 selects the undiscounted backup.
        tol: residual at which to stop if exact convergence has not
            already happened.

    Raises:
        RuntimeError: residual still above tol after max_sweeps.
    """
    if not 0.0 < gamma <= 1.0:
        raise ValueError("gamma must be in (0, 1]")
    s_n, _, z_n = aug.shape
    if policy is None:
        succ = aug.succ
    else:
        policy = np.asarray(policy)
        if policy.shape == (s_n,):
            pol_full = np.broadcast_to(policy[:, None, None], aug.shape)
        elif policy.shape == aug.shape:
            pol_full = policy
        else:
            raise ValueError("policy must have shape (S,) or (S, 2, Z)")
        succ = np.take_along_axis(aug.succ, pol_full[..., None], axis=-1)[..., 0]

    if max_sweeps is None:
        max_sweeps = 2 * aug.ghat.size + 200

    values = aug.ghat.copy()
    residuals = []
    for sweep in range(1, max_sweeps + 1):
        new = apply_backup_sweep(aug.ghat, succ, values, gamma, frozen=aug.absorbing)
        residual = float(np.max(np.abs(new - values)))
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


def tabular_q_values(aug: AugmentedTabular, table: TabularValueTable) -> np.ndarray:
    """Q(s_hat, a) induced by a solved value table, shape (S, 2, Z, A)."""
    v_succ = table.values.reshape(-1)[aug.succ]
    q = (1.0 - table.gamma) * aug.ghat[..., None] + table.gamma * np.minimum(
        aug.ghat[..., None], v_succ
    )
    return np.where(aug.absorbing[..., None], aug.ghat[..., None], q)


def export_value_table_csv(table: TabularValueTable, mdp: TabularMDP, path: str) -> None:
    """Write (state coordinates, flag, budget, value) rows."""
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if mdp.coords is not None:
            coord_names = [f"coord{i}" for i in range(mdp.coords.shape[1])]
        else:
            coord_names = ["state"]
        writer.writerow([*coord_names, "y", "z", "value"])
        for s in range(mdp.n_states):
            coords = list(mdp.coords[s]) if mdp.coords is not None else [s]
            for yi, y in enumerate((-1, 1)):
                for zi, z in enumerate(table.z_grid):
                    writer.writerow(
                        [*coords, y, repr(float(z)), repr(float(table.values[s, yi, zi]))]
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
