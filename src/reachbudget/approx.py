"""Small MLPs with explicit backprop, a Gaussian policy head, and Adam.

Everything is plain numpy. A net's dtype is the dtype of its one
parameter vector: every constructor and checkpoint load gives float64,
and only MlpParams.astype makes a net of another dtype. The forward and
backward passes and Adam run in the net's dtype. Networks are tanh nets
with two hidden layers by default, and the forward and backward passes
take rows (n, d) only. Gradients come from hand-written reverse mode.

Each net keeps its parameters in one contiguous vector, `flat`: the
weights and biases, in trainable() order, and for a policy then its
log-std. The per-layer arrays are views into it. The backward passes
write their gradients into one fresh vector with the same layout, so
adam_step updates a whole net with a few vector operations instead of
a loop over its arrays. Checkpoints still hold one entry per array.

At 256x256 the temporaries of an elementwise step cost more than its
arithmetic, so the forward pass adds the bias and applies tanh in place
on the fresh matmul output, the backward pass scales delta in place and
backpropagates through a one-column layer by broadcasting, and Adam
works through two scratch vectors. The values are bitwise those of the
plain expressions (tests/oracles.py keeps them). No function keeps
state between calls, and each writes only the arrays it is given or
creates, so two threads may train two different nets at once.

Checkpoints are zip archives of .npy entries written with a pinned
timestamp so identical parameters produce identical bytes.
"""

from __future__ import annotations

import copy
import io
import json
import math
import zipfile
from dataclasses import dataclass

import numpy as np

LOG_STD_MIN = -5.0
LOG_STD_MAX = 2.0
_LOG_2PI = float(np.log(2.0 * np.pi))


def _views(vec: np.ndarray, shapes) -> list[np.ndarray]:
    """Consecutive views of vec with the given shapes, in order."""
    out, start = [], 0
    for shape in shapes:
        size = math.prod(shape)
        out.append(vec[start : start + size].reshape(shape))
        start += size
    return out


def _vector_of(arrays: list[np.ndarray]) -> np.ndarray:
    """The one vector that arrays are views into, which they must cover."""
    vec = arrays[0].base if arrays else None
    if (
        vec is None
        or vec.ndim != 1
        or any(a.base is not vec for a in arrays)
        or sum(a.size for a in arrays) != vec.size
    ):
        raise ValueError("expected the views of one parameter or gradient vector")
    return vec


@dataclass
class MlpParams:
    """Weights and biases of a fully connected net.

    weights[i] has shape (fan_in, fan_out); tanh applies after every
    layer except the last. Construction copies the given arrays into
    one new float64 vector, the attribute flat, and makes weights and
    biases views into it, so writing them in place writes the vector.
    The net's dtype is that of flat; astype gives a copy in another one.
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def __post_init__(self) -> None:
        self._adopt(np.concatenate([np.ravel(a) for a in self.trainable()], dtype=np.float64))

    def _adopt(self, flat: np.ndarray) -> None:
        """Make the parameters the views of flat, which holds their values."""
        views = _views(flat, [np.shape(a) for a in self.trainable()])
        self.flat, self.weights, self.biases = flat, views[0::2], views[1::2]

    def astype(self, dtype) -> "MlpParams":
        """A copy of the net whose one vector is flat cast to dtype."""
        net = copy.copy(self)
        net._adopt(self.flat.astype(dtype))
        return net

    @property
    def sizes(self) -> tuple[int, ...]:
        return (self.weights[0].shape[0], *(w.shape[1] for w in self.weights))

    def trainable(self) -> list[np.ndarray]:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.extend((w, b))
        return out


def _orthogonal(rng: np.random.Generator, fan_in: int, fan_out: int, gain: float) -> np.ndarray:
    a = rng.standard_normal((max(fan_in, fan_out), min(fan_in, fan_out)))
    q, r = np.linalg.qr(a)
    q = q * np.sign(np.diag(r))
    if fan_in < fan_out:
        q = q.T
    return np.ascontiguousarray(gain * q[:fan_in, :fan_out])


def mlp_init(
    sizes: tuple[int, ...],
    rng: np.random.Generator,
    final_scale: float = 1.0,
) -> MlpParams:
    """Orthogonally initialized net; final_scale shrinks the last layer
    (0.01 for policy heads keeps the initial actions near zero)."""
    if len(sizes) < 2:
        raise ValueError("need at least input and output sizes")
    weights, biases = [], []
    for i, (n_in, n_out) in enumerate(zip(sizes[:-1], sizes[1:])):
        last = i == len(sizes) - 2
        gain = final_scale if last else np.sqrt(2.0)
        weights.append(_orthogonal(rng, n_in, n_out, gain))
        biases.append(np.zeros(n_out))
    return MlpParams(weights=weights, biases=biases)


def mlp_forward(
    params: MlpParams, x: np.ndarray, return_cache: bool = False
):
    """Forward pass on rows x, (n, d_in); another rank raises ValueError.

    x is cast to the net's dtype, which the output and cache share.
    With return_cache the post-activation of every layer comes back for
    reuse by mlp_backward.
    """
    h = np.asarray(x, dtype=params.flat.dtype)
    if h.ndim != 2:
        raise ValueError(f"network input must be rows (n, d), got shape {h.shape}")
    if not np.all(np.isfinite(h)):
        raise ValueError("non-finite network input")
    cache = [h] if return_cache else None
    n_hidden = len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        # h @ w is a fresh array, so the bias and tanh go in place
        h = h @ w
        h += b
        if i < n_hidden:
            np.tanh(h, out=h)
        if cache is not None:
            cache.append(h)
    if return_cache:
        return h, cache
    return h


def mlp_backward(
    params: MlpParams,
    upstream_grad: np.ndarray,
    cache: list[np.ndarray],
    out: np.ndarray | None = None,
) -> list[np.ndarray]:
    """Reverse-mode parameter gradients of sum(upstream_grad * output).

    upstream_grad is (n, d_out) rows and cache the one mlp_forward
    returned for the same rows; another rank raises ValueError. The
    grads come interleaved as (dW0, db0, dW1, ...), matching
    MlpParams.trainable() order, as views into one vector laid out
    like params.flat: out if given, else a fresh one in the net's
    dtype, to which upstream_grad is cast. The input gradient is
    never formed: the loop stops at layer 0.
    """
    dtype = params.flat.dtype
    up = np.asarray(upstream_grad, dtype=dtype)
    if up.ndim != 2:
        raise ValueError(f"upstream gradient must be rows (n, d), got shape {up.shape}")
    n_layers = len(params.weights)
    grad = np.empty(params.flat.size, dtype) if out is None else out
    grads = _views(grad, [a.shape for a in params.trainable()])
    delta = up  # gradient at the current layer's pre-activation
    for i in range(n_layers - 1, -1, -1):
        np.matmul(cache[i].T, delta, out=grads[2 * i])
        np.sum(delta, axis=0, out=grads[2 * i + 1])
        if i == 0:
            break
        w = params.weights[i]
        # a one-column layer backpropagates by broadcasting, not an
        # outer-product matmul; either way delta is a fresh array
        delta = delta * w[:, 0] if w.shape[1] == 1 else delta @ w.T
        # cache[i] is the tanh output feeding layer i
        slope = np.square(cache[i])
        np.subtract(1.0, slope, out=slope)
        delta *= slope
    return grads


# -- Gaussian policy head ------------------------------------------------------


@dataclass
class GaussianPolicyParams:
    """Diagonal Gaussian policy: MLP mean, state-independent log-std.

    Sampling draws from N(mean, diag(std^2)) and clamps into the action
    box; densities and importance ratios are always evaluated on the
    raw pre-clamp draw, which the rollout buffer must record.

    Construction moves the trunk's parameters and a copy of log_std
    into one new vector, the attribute flat: the trunk's own flat
    becomes its head and log_std views its tail.
    """

    trunk: MlpParams
    log_std: np.ndarray
    action_low: np.ndarray
    action_high: np.ndarray

    def __post_init__(self) -> None:
        n = self.trunk.flat.size
        self.flat = np.concatenate([self.trunk.flat, np.ravel(self.log_std)], dtype=np.float64)
        self.trunk._adopt(self.flat[:n])
        self.log_std = self.flat[n:]

    def trainable(self) -> list[np.ndarray]:
        return [*self.trunk.trainable(), self.log_std]


def policy_init(
    obs_dim: int,
    action_low: np.ndarray,
    action_high: np.ndarray,
    rng: np.random.Generator,
    hidden: tuple[int, ...] = (256, 256),
    init_log_std: float = 0.0,
) -> GaussianPolicyParams:
    trunk = mlp_init((obs_dim, *hidden, len(action_low)), rng, final_scale=0.01)
    return GaussianPolicyParams(
        trunk=trunk,
        log_std=np.full(len(action_low), init_log_std, dtype=np.float64),
        action_low=np.asarray(action_low, dtype=np.float64),
        action_high=np.asarray(action_high, dtype=np.float64),
    )


def _clamped_std(params: GaussianPolicyParams) -> np.ndarray:
    return np.exp(np.clip(params.log_std, LOG_STD_MIN, LOG_STD_MAX))


def policy_sample(
    params: GaussianPolicyParams, obs: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw actions; returns (clamped, raw, log_prob of the raw draw)."""
    mean = mlp_forward(params.trunk, obs)
    std = _clamped_std(params)
    raw = mean + std * rng.standard_normal(mean.shape)
    clamped = np.clip(raw, params.action_low, params.action_high)
    return clamped, raw, log_prob_at_mean(params, mean, raw)


def policy_log_prob(
    params: GaussianPolicyParams, obs: np.ndarray, raw_action: np.ndarray
) -> np.ndarray:
    return log_prob_at_mean(params, mlp_forward(params.trunk, obs), raw_action)


def log_prob_at_mean(
    params: GaussianPolicyParams, mean: np.ndarray, raw_action: np.ndarray
) -> np.ndarray:
    """policy_log_prob given the trunk output, so callers holding the
    mean skip a second forward pass."""
    std = _clamped_std(params)
    zed = (np.asarray(raw_action) - mean) / std
    per_dim = -0.5 * zed**2 - np.log(std) - 0.5 * _LOG_2PI
    return per_dim.sum(axis=-1)


def policy_entropy(params: GaussianPolicyParams) -> float:
    """Exact entropy; state-independent because the std is."""
    std = _clamped_std(params)
    return float(np.sum(0.5 * np.log(2.0 * np.pi * np.e) + np.log(std)))


def policy_mode(params: GaussianPolicyParams, obs: np.ndarray) -> np.ndarray:
    mean = mlp_forward(params.trunk, obs)
    return np.clip(mean, params.action_low, params.action_high)


def policy_logp_backward(
    params: GaussianPolicyParams,
    obs: np.ndarray,
    raw_action: np.ndarray,
    upstream: np.ndarray,
    cache: list[np.ndarray] | None = None,
) -> list[np.ndarray]:
    """Gradients of sum(upstream * log_prob) in trainable() order.

    The log-std entries stop receiving gradient outside the clamp range
    (the clamp is a hard saturation, not a reparameterization).
    """
    if cache is None:
        mean, cache = mlp_forward(params.trunk, obs, return_cache=True)
    else:
        mean = cache[-1]
    std = _clamped_std(params)
    up = np.asarray(upstream, dtype=np.float64)
    diff = (np.asarray(raw_action) - mean) / std
    d_mean = up[:, None] * diff / std
    grad = np.empty(params.flat.size)
    n = params.trunk.flat.size
    trunk_grads = mlp_backward(params.trunk, d_mean, cache, out=grad[:n])
    d_log_std = grad[n:]
    np.sum(up[:, None] * (diff**2 - 1.0), axis=0, out=d_log_std)
    active = (params.log_std > LOG_STD_MIN) & (params.log_std < LOG_STD_MAX)
    d_log_std[~active] = 0.0
    return [*trunk_grads, d_log_std]


# -- optimizer -----------------------------------------------------------------


@dataclass
class AdamState:
    """Adam accumulators, one vector each laid out like the net's flat
    and in its dtype, and the learning rate; trainers that decay the
    rate set base_lr before each iteration."""

    m: np.ndarray
    v: np.ndarray
    step: int
    base_lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def for_params(cls, params: list[np.ndarray], base_lr: float) -> "AdamState":
        n, dtype = sum(p.size for p in params), params[0].dtype
        return cls(m=np.zeros(n, dtype), v=np.zeros(n, dtype), step=0, base_lr=base_lr)


def adam_step(
    state: AdamState, params: list[np.ndarray], grads: list[np.ndarray]
) -> list[np.ndarray]:
    """One update, in place on params; returns params for chaining.

    params is a net's trainable() list and grads the aligned list from
    its backward pass. Each list must be the views of one vector, and
    the update runs on the two vectors whole.
    """
    p, g = _vector_of(params), _vector_of(grads)
    if p.shape != state.m.shape or [a.shape for a in params] != [a.shape for a in grads]:
        raise ValueError("params/grads layout mismatch with optimizer state")
    lr = state.base_lr
    state.step += 1
    b1, b2 = state.beta1, state.beta2
    bias1 = 1.0 - b1**state.step
    bias2 = 1.0 - b2**state.step
    m, v = state.m, state.v
    # p -= lr * (m / bias1) / (sqrt(v / bias2) + eps) in the same
    # operation order, through two scratch vectors
    step, denom = np.empty_like(p), np.empty_like(p)
    m *= b1
    np.multiply(g, 1.0 - b1, out=step)
    m += step
    v *= b2
    np.square(g, out=step)
    step *= 1.0 - b2
    v += step
    np.divide(m, bias1, out=step)
    step *= lr
    np.divide(v, bias2, out=denom)
    np.sqrt(denom, out=denom)
    denom += state.eps
    step /= denom
    p -= step
    return params


# -- checkpoints ---------------------------------------------------------------


def save_checkpoint(path: str, arrays: dict[str, np.ndarray], meta: dict) -> None:
    """Write arrays + JSON metadata as a byte-stable .npz-style zip."""
    with zipfile.ZipFile(path, "w", compression=zipfile.ZIP_STORED) as zf:
        for name in sorted(arrays):
            buf = io.BytesIO()
            np.lib.format.write_array(buf, np.asarray(arrays[name]))
            info = zipfile.ZipInfo(f"{name}.npy", date_time=(1980, 1, 1, 0, 0, 0))
            zf.writestr(info, buf.getvalue())
        info = zipfile.ZipInfo("meta.json", date_time=(1980, 1, 1, 0, 0, 0))
        zf.writestr(info, json.dumps(meta, sort_keys=True, indent=1))


def load_checkpoint(path: str) -> tuple[dict[str, np.ndarray], dict]:
    arrays: dict[str, np.ndarray] = {}
    with zipfile.ZipFile(path, "r") as zf:
        names = zf.namelist()
        if "meta.json" not in names:
            raise ValueError(f"{path}: not a checkpoint (missing meta.json)")
        meta = json.loads(zf.read("meta.json").decode("utf-8"))
        for name in names:
            if name.endswith(".npy"):
                arrays[name[:-4]] = np.lib.format.read_array(io.BytesIO(zf.read(name)))
    return arrays, meta


def mlp_to_arrays(prefix: str, params: MlpParams) -> dict[str, np.ndarray]:
    out: dict[str, np.ndarray] = {}
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        out[f"{prefix}_w{i}"] = w
        out[f"{prefix}_b{i}"] = b
    return out


def mlp_from_arrays(prefix: str, arrays: dict[str, np.ndarray]) -> MlpParams:
    weights, biases = [], []
    i = 0
    while f"{prefix}_w{i}" in arrays:
        weights.append(arrays[f"{prefix}_w{i}"])
        biases.append(arrays[f"{prefix}_b{i}"])
        i += 1
    if not weights:
        raise ValueError(f"no arrays under prefix {prefix!r}")
    for w, b in zip(weights, biases):
        if w.shape[1] != b.shape[0]:
            raise ValueError(f"{prefix}: weight/bias shape mismatch {w.shape} vs {b.shape}")
    return MlpParams(weights=weights, biases=biases)


def policy_to_arrays(params: GaussianPolicyParams) -> dict[str, np.ndarray]:
    out = mlp_to_arrays("policy", params.trunk)
    out["policy_log_std"] = params.log_std
    out["policy_action_low"] = params.action_low
    out["policy_action_high"] = params.action_high
    return out


def policy_from_arrays(arrays: dict[str, np.ndarray]) -> GaussianPolicyParams:
    return GaussianPolicyParams(
        trunk=mlp_from_arrays("policy", arrays),
        log_std=arrays["policy_log_std"],
        action_low=np.array(arrays["policy_action_low"], dtype=np.float64),
        action_high=np.array(arrays["policy_action_high"], dtype=np.float64),
    )
