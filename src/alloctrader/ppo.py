"""Proximal policy optimization with separate policy and value networks.

Both networks are two-hidden-layer tanh MLPs over float64 numpy arrays with
manual backprop; no autograd framework is involved. Training is fully
deterministic for a given seed: one generator drives initialization, action
sampling and minibatch shuffling.

Conventions match the usual PPO recipe: clipped surrogate objective,
generalized advantage estimation, per-minibatch advantage normalization,
entropy bonus, Adam with global gradient-norm clipping, orthogonal
initialization (gain sqrt(2) hidden, 0.01 policy head, 1.0 value head).
The update advances the parameters and Adam's state in place (after a
NonFiniteLossError they hold the last finished minibatch's step) and holds one
gradient set at a time: each minibatch's gradients are released when its Adam
step ends. Adam runs in L2-sized row blocks of each array, and the gradient
norm sums squares through one ADAM_CHUNK scratch per half, so neither allocates
anything the size of the model. Each minibatch's policy-net work (forward,
backward, squared-gradient sums, Adam) runs on a worker thread while the value
net's runs on the caller's, with bit-identical results. Adam's state lives in
an AdamState that only training holds; checkpoints store the parameters alone.
A rollout keeps its observations in the environment's rollout store when it
has one, which rebuilds each minibatch's observations from the environment
(envs.TradingEnv), and otherwise copies them into an ObservationBuffer.
"""

from __future__ import annotations

import json
import math
import os
import struct
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, astuple, dataclass, field, fields
from typing import Callable

import numpy as np

from . import AlloctraderError
from .atomic import atomic_write, write_csv

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# Elements per Adam block: 256 KB of float64. The six blocks one step touches
# (gradient, m, v, parameters and two scratch buffers) fit in a 2 MB L2.
ADAM_CHUNK = 32768

CHECKPOINT_MAGIC = b"ATCK"
CHECKPOINT_VERSION = 2

_LAYER_KEYS = ("w1", "b1", "w2", "b2", "w3", "b3")
ARRAY_ORDER = tuple(f"policy_{k}" for k in _LAYER_KEYS) + tuple(f"value_{k}" for k in _LAYER_KEYS)


class PpoError(AlloctraderError, RuntimeError):
    """Training or inference failure in the optimizer."""


class NonFiniteLossError(PpoError):
    """A minibatch produced a NaN or infinite loss; the update was aborted."""


class CheckpointError(AlloctraderError, RuntimeError):
    """A checkpoint file could not be read or fails integrity checks."""


@dataclass(frozen=True)
class NetworkSpec:
    """Shared layout of the policy and value MLPs."""

    input_dim: int
    hidden: tuple[int, int]
    action_count: int = 3

    def __post_init__(self) -> None:
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))
        if self.input_dim < 1:
            raise PpoError(f"input_dim must be >= 1, got {self.input_dim}")
        if len(self.hidden) != 2 or any(h < 1 for h in self.hidden):
            raise PpoError(f"hidden must be two positive layer sizes, got {self.hidden}")
        if self.action_count < 2:
            raise PpoError(f"action_count must be >= 2, got {self.action_count}")


@dataclass(frozen=True)
class PpoHyperparams:
    total_timesteps: int
    learning_rate: float
    n_steps: int
    batch_size: int
    n_epochs: int = 10
    gamma: float = 0.99
    gae_lambda: float = 0.95
    clip_range: float = 0.2
    entropy_coef: float = 0.0
    value_coef: float = 0.5
    max_grad_norm: float = 0.5

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            # False for NaN and +-inf; exact for an int of any size.
            if f.type == "float" and not -math.inf < value < math.inf:
                raise PpoError(f"{f.name} must be finite, got {value}")
        if not (self.total_timesteps >= self.n_steps >= self.batch_size >= 1):
            raise PpoError(
                "need total_timesteps >= n_steps >= batch_size >= 1, got "
                f"{self.total_timesteps}/{self.n_steps}/{self.batch_size}"
            )
        if not self.learning_rate > 0:
            raise PpoError(f"learning_rate must be positive, got {self.learning_rate}")
        if not (0.0 <= self.gamma <= 1.0 and 0.0 <= self.gae_lambda <= 1.0):
            raise PpoError(f"gamma/gae_lambda must lie in [0, 1], got {self.gamma}/{self.gae_lambda}")
        if not self.clip_range > 0:
            raise PpoError(f"clip_range must be positive, got {self.clip_range}")
        if self.entropy_coef < 0 or self.value_coef < 0:
            raise PpoError("entropy_coef and value_coef must be >= 0")
        if not self.max_grad_norm > 0:
            raise PpoError(f"max_grad_norm must be positive, got {self.max_grad_norm}")
        if self.n_epochs < 1:
            raise PpoError(f"n_epochs must be >= 1, got {self.n_epochs}")


def _orthogonal(rng: np.random.Generator, rows: int, cols: int, gain: float) -> np.ndarray:
    a = rng.standard_normal((max(rows, cols), min(rows, cols)))
    q, r = np.linalg.qr(a)
    q = q * np.sign(np.diag(r))
    if rows < cols:
        q = q.T
    return gain * q[:rows, :cols]


def _init_net(rng: np.random.Generator, spec: NetworkSpec, out_dim: int, out_gain: float) -> dict:
    h1, h2 = spec.hidden
    return {
        "w1": _orthogonal(rng, spec.input_dim, h1, math.sqrt(2.0)),
        "b1": np.zeros(h1),
        "w2": _orthogonal(rng, h1, h2, math.sqrt(2.0)),
        "b2": np.zeros(h2),
        "w3": _orthogonal(rng, h2, out_dim, out_gain),
        "b3": np.zeros(out_dim),
    }


@dataclass
class PolicyParameters:
    """The learnable arrays of both nets, keyed by ARRAY_ORDER names."""

    spec: NetworkSpec
    arrays: dict[str, np.ndarray]
    update_count: int = 0

    @classmethod
    def initialize(cls, spec: NetworkSpec, rng: np.random.Generator) -> "PolicyParameters":
        """Orthogonal-initialized parameters; biases start at zero."""
        policy = _init_net(rng, spec, spec.action_count, 0.01)
        value = _init_net(rng, spec, 1, 1.0)
        arrays = {f"policy_{k}": v for k, v in policy.items()}
        arrays.update({f"value_{k}": v for k, v in value.items()})
        return cls(spec=spec, arrays=arrays)


@dataclass
class AdamState:
    """Adam's moment estimates per parameter array and its step count.

    Only training holds one: train() creates it and ppo_update advances it.
    Checkpoints do not store it.
    """

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0

    @classmethod
    def zeros(cls, params: PolicyParameters) -> "AdamState":
        zeros = lambda: {k: np.zeros_like(v) for k, v in params.arrays.items()}
        return cls(m=zeros(), v=zeros())


def _net_forward(arrays: dict, prefix: str, x: np.ndarray):
    a1 = np.tanh(x @ arrays[prefix + "w1"] + arrays[prefix + "b1"])
    out, a2 = _net_tail(arrays, prefix, a1)
    return out, (x, a1, a2)


def _net_tail(arrays: dict, prefix: str, a1: np.ndarray):
    """Layers 2 and 3 from the first layer's activations: (output, a2)."""
    a2 = np.tanh(a1 @ arrays[prefix + "w2"] + arrays[prefix + "b2"])
    return a2 @ arrays[prefix + "w3"] + arrays[prefix + "b3"], a2


def _net_backward(arrays: dict, prefix: str, cache, dout: np.ndarray) -> dict:
    x, a1, a2 = cache
    grads = {prefix + "w3": a2.T @ dout, prefix + "b3": dout.sum(axis=0)}
    dz2 = (1.0 - a2 * a2) * (dout @ arrays[prefix + "w3"].T)
    grads[prefix + "w2"] = a1.T @ dz2
    grads[prefix + "b2"] = dz2.sum(axis=0)
    dz1 = (1.0 - a1 * a1) * (dz2 @ arrays[prefix + "w2"].T)
    grads[prefix + "w1"] = x.T @ dz1
    grads[prefix + "b1"] = dz1.sum(axis=0)
    return grads


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def forward(params: PolicyParameters, observation: np.ndarray) -> tuple[np.ndarray, float]:
    """Action probabilities and state value for a single observation."""
    obs = np.atleast_2d(np.asarray(observation, dtype=np.float64))
    logits, _ = _net_forward(params.arrays, "policy_", obs)
    probs = np.exp(_log_softmax(logits))[0]
    value, _ = _net_forward(params.arrays, "value_", obs)
    return probs, float(value[0, 0])


def sample_action(
    params: PolicyParameters, observation: np.ndarray, rng: np.random.Generator
) -> tuple[int, float, float]:
    """Draw an action from the policy; returns (action, log_prob, value).

    The draw is rng.choice(probs.size, p=probs) without its validation: the
    same action from the same one double, so the generator ends in the same
    state. Non-finite probabilities raise PpoError."""
    probs, value = forward(params, observation)
    cdf = probs.cumsum()
    if not math.isfinite(cdf[-1]):
        raise PpoError(f"policy gave non-finite action probabilities {probs.tolist()}")
    cdf /= cdf[-1]
    action = int(cdf.searchsorted(rng.random(), "right"))
    return action, float(np.log(probs[action])), value


def greedy_action(params: PolicyParameters, observation: np.ndarray) -> int:
    """Deterministic argmax action (first index wins ties)."""
    obs = np.atleast_2d(np.asarray(observation, dtype=np.float64))
    logits, _ = _net_forward(params.arrays, "policy_", obs)
    return int(np.argmax(logits[0]))


# Unit roundoff of float64, and a bound on the absolute error of np.tanh for
# float64: numpy's accuracy tests hold it to 2 ulps; 4 are allowed here, and
# on results in [-1, 1] 4 ulps are at most 8u.
_UNIT_ROUNDOFF = 2.0 ** -53
_TANH_ERROR = 8 * _UNIT_ROUNDOFF
# Covers the rounding of the bound's own arithmetic, whose relative error is
# below gamma_n for n of a few thousand, under 1e-12.
_BOUND_MARGIN = 1.0 + 2.0 ** -20


def _gamma(n: int) -> float:
    """Higham's gamma_n = nu / (1 - nu): an n-term float64 dot product or sum,
    in any order and with or without FMA, is within gamma_n * sum|terms| of
    its exact value."""
    nu = n * _UNIT_ROUNDOFF
    return nu / (1.0 - nu)


class SplitGreedyPolicy:
    """greedy_action with the policy's first-layer product summed in parts.

    `part_b` marks the inputs that can arrive late, in input order. A caller
    multiplies a block of inputs by the whole of w1 in one GEMM, with zeros
    in place of the trailing b-inputs not known yet; `action` adds those
    b-inputs times their rows of w1 (the last rows of w1[part_b]), then b1,
    and runs layers 2 and 3 through `_net_tail`.

    The parts round differently from x @ w1 + b1, so `action` also bounds
    |logits - greedy_action's logits| by the summation bound through all
    three layers: ||x||_1 per input, the weight norms once here. That bound,
    Higham's gamma_{n+1}, holds for an (n + 1)-term sum in any order. Each of
    the n products x_i w1_i and b1 enters exactly one partial sum (the block
    product, the late b-inputs' product or the bias), and the zeros are
    exact: 0 * w is 0, and adding 0 rounds nothing, so the parts are one
    such sum whose rounding the bound covers. When the top two logits are
    within twice the bound the argmax could differ, and `action` returns
    None; the caller then asks greedy_action. Every action returned or asked
    for therefore equals greedy_action's.
    """

    def __init__(self, params: PolicyParameters, part_b: np.ndarray):
        arrays = params.arrays
        w1, b1 = arrays["policy_w1"], arrays["policy_b1"]
        self._arrays = arrays
        self._w1_b = np.ascontiguousarray(w1[part_b])
        self._b1 = b1
        h1, h2 = params.spec.hidden
        # Layer 1: each path's z1 is within gamma_{n+1} (||x||_1 max|w1| + max|b1|)
        # of the exact value, so the two differ by twice that (plus tanh's error
        # on each side once activated).
        g1 = 2.0 * _gamma(w1.shape[0] + 1)
        self._l1_per_norm = g1 * float(np.abs(w1).max())
        self._l1_const = g1 * float(np.abs(b1).max()) + 2 * _TANH_ERROR
        # Layers 2 and 3 take activations in [-1, 1]: a difference d in the
        # input moves an output by at most d times the largest column sum of
        # |w|, and each path rounds by gamma_{rows+1} (that column sum + |b|).
        self._later = []
        for key, rows, tanh_error in (("2", h1, 2 * _TANH_ERROR), ("3", h2, 0.0)):
            colsum = float(np.abs(arrays["policy_w" + key]).sum(axis=0).max())
            bias = float(np.abs(arrays["policy_b" + key]).max())
            self._later.append(
                (colsum, 2.0 * _gamma(rows + 1) * (colsum + bias) + tanh_error)
            )

    def logit_error_bound(self, x_norm: float) -> float:
        """Bound on |logits - greedy_action's logits| for an input of 1-norm x_norm."""
        bound = self._l1_per_norm * x_norm + self._l1_const
        for colsum, rounding in self._later:
            bound = colsum * bound + rounding
        return bound * _BOUND_MARGIN

    def logits(self, z: np.ndarray, xb: np.ndarray) -> np.ndarray:
        """Logits from `z`, an input's product with w1 that lacks its last
        xb.size b-inputs, and those b-inputs `xb`."""
        w1_b = self._w1_b
        a1 = np.tanh(z + xb @ w1_b[w1_b.shape[0] - xb.size:] + self._b1)
        return _net_tail(self._arrays, "policy_", a1)[0]

    def action(self, z: np.ndarray, norm: float, xb: np.ndarray) -> int | None:
        """greedy_action's action, or None when rounding could change it.
        `norm` is the 1-norm of the input that gave `z` (see logits)."""
        logits = self.logits(z, xb).tolist()
        best = max(range(len(logits)), key=logits.__getitem__)
        runner_up = max(v for i, v in enumerate(logits) if i != best)
        bound = self.logit_error_bound(norm + float(np.abs(xb).sum()))
        # False for NaN logits or bounds, which also go to greedy_action.
        return best if logits[best] - runner_up > 2.0 * bound else None


def gae(
    rewards: np.ndarray,
    values: np.ndarray,
    dones: np.ndarray,
    bootstrap_value: float,
    gamma: float,
    lam: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Generalized advantage estimation over one rollout.

    `dones[t]` marks step t as the last of its episode; the recursion and the
    next-state value are both masked there so no credit leaks across episode
    boundaries. Returns (advantages, value targets).
    """
    rewards = np.asarray(rewards, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    nonterminal = 1.0 - np.asarray(dones, dtype=np.float64)
    n = rewards.size
    next_values = np.append(values[1:], bootstrap_value)
    advantages = np.empty(n)
    carry = 0.0
    for t in range(n - 1, -1, -1):
        delta = rewards[t] + gamma * next_values[t] * nonterminal[t] - values[t]
        carry = delta + gamma * lam * nonterminal[t] * carry
        advantages[t] = carry
    return advantages, advantages + values


class ObservationBuffer:
    """A rollout's observations copied into one (n, width) array: the store
    of an environment that has no `rollout_store` (see train)."""

    def __init__(self, n: int, width: int):
        self.rows = np.empty((n, width))

    def record(self, t: int, observation: np.ndarray) -> None:
        self.rows[t] = observation

    def __getitem__(self, index: np.ndarray) -> np.ndarray:
        return self.rows[index]


@dataclass
class RolloutBatch:
    """One rollout. `observations` is an array, an ObservationBuffer or an
    environment's rollout store (see train); indexing it with minibatch rows
    gives a C-contiguous float64 array."""

    observations: np.ndarray | ObservationBuffer
    actions: np.ndarray
    log_probs: np.ndarray
    advantages: np.ndarray
    returns: np.ndarray


@dataclass
class UpdateStats:
    loss: float
    policy_loss: float
    value_loss: float
    entropy: float
    clip_fraction: float
    grad_norm: float


# The policy and value nets share no arrays, so each minibatch's work splits
# into two halves that write disjoint memory: the policy half runs on one
# persistent worker thread while the calling thread runs the value half.
# numpy releases the interpreter lock inside BLAS and ufunc loops, so the
# halves overlap; the arithmetic of each is unchanged, so results are the
# same bit for bit whatever the scheduling. The thread starts on first use.
_worker: ThreadPoolExecutor | None = None
_worker_lock = threading.Lock()


def _both_halves(policy_half: Callable, value_half: Callable) -> tuple:
    """Run policy_half on the worker and value_half here; return both results.

    Both have finished when this returns or raises. An error from the value
    half wins over one from the policy half.
    """
    global _worker
    with _worker_lock:
        if _worker is None:
            _worker = ThreadPoolExecutor(max_workers=1, thread_name_prefix="ppo-policy")
    future = _worker.submit(policy_half)
    try:
        value = value_half()
    except BaseException:
        future.exception()
        raise
    return future.result(), value


def _policy_loss_and_grads(arrays, observations, actions, old_log_probs, advantages, hp):
    """The policy net's half of a minibatch: loss parts and policy_* gradients."""
    batch = observations.shape[0]
    idx = np.arange(batch)
    logits, pcache = _net_forward(arrays, "policy_", observations)
    logp_all = _log_softmax(logits)
    probs = np.exp(logp_all)
    logp_taken = logp_all[idx, actions]
    ratio = np.exp(logp_taken - old_log_probs)
    unclipped = ratio * advantages
    clipped_ratio = np.clip(ratio, 1.0 - hp.clip_range, 1.0 + hp.clip_range)
    clipped = clipped_ratio * advantages
    policy_loss = -np.minimum(unclipped, clipped).mean()
    entropy = -(probs * logp_all).sum(axis=1)

    # Policy gradient flows only where the unclipped branch is active.
    active = unclipped <= clipped
    dlogp_taken = np.where(active, -advantages * ratio, 0.0) / batch
    onehot = np.zeros_like(probs)
    onehot[idx, actions] = 1.0
    dlogits = dlogp_taken[:, None] * (onehot - probs)
    # Entropy bonus: d(-c * mean(H))/dlogits = c/B * p * (log p + H).
    dlogits += (hp.entropy_coef / batch) * probs * (logp_all + entropy[:, None])
    grads = _net_backward(arrays, "policy_", pcache, dlogits)
    clip_fraction = float((ratio != clipped_ratio).mean())
    return policy_loss, float(entropy.mean()), clip_fraction, grads


def _value_loss_and_grads(arrays, observations, returns, hp):
    """The value net's half of a minibatch: value loss and value_* gradients."""
    batch = observations.shape[0]
    vout, vcache = _net_forward(arrays, "value_", observations)
    v = vout[:, 0]
    value_loss = float(((v - returns) ** 2).mean())
    dv = (hp.value_coef * 2.0 / batch) * (v - returns)
    return value_loss, _net_backward(arrays, "value_", vcache, dv[:, None])


def ppo_loss_and_grads(
    params: PolicyParameters,
    observations: np.ndarray,
    actions: np.ndarray,
    old_log_probs: np.ndarray,
    advantages: np.ndarray,
    returns: np.ndarray,
    hp: PpoHyperparams,
) -> tuple[float, dict, UpdateStats]:
    """Clipped-surrogate PPO loss and analytic gradients for one minibatch.

    loss = -mean(min(ratio * A, clip(ratio) * A))
           + value_coef * mean((V - R)^2) - entropy_coef * mean(H).

    The policy half runs on the worker thread and the value half on this one.
    """
    arrays = params.arrays
    (policy_loss, entropy_mean, clip_fraction, grads), (value_loss, value_grads) = _both_halves(
        lambda: _policy_loss_and_grads(
            arrays, observations, actions, old_log_probs, advantages, hp
        ),
        lambda: _value_loss_and_grads(arrays, observations, returns, hp),
    )
    grads.update(value_grads)
    loss = float(policy_loss + hp.value_coef * value_loss - hp.entropy_coef * entropy_mean)
    stats = UpdateStats(
        loss=loss,
        policy_loss=float(policy_loss),
        value_loss=value_loss,
        entropy=entropy_mean,
        clip_fraction=clip_fraction,
        grad_norm=0.0,
    )
    return loss, grads, stats


def _square_sum(flat: np.ndarray, scratch: np.ndarray) -> float:
    """float((flat * flat).sum()) of a contiguous 1-D `flat`, bit for bit,
    squaring through `scratch`.

    numpy sums a contiguous array pairwise in memory order: a run longer than
    128 elements is split where half its length, rounded down to a multiple
    of 8, ends, and the two parts' sums are added (Higham, SIAM J. Sci.
    Comput. 14(4), 1993). Splitting at the same points until a part fits the
    scratch, and summing that part's squares there, adds the same floats in
    the same order.
    """
    n = flat.size
    if n <= scratch.size:
        return float(np.multiply(flat, flat, out=scratch[:n]).sum())
    split = n // 2
    split -= split % 8
    return _square_sum(flat[:split], scratch) + _square_sum(flat[split:], scratch)


def _square_sums(grads: dict, prefix: str) -> dict[str, float]:
    """float((g * g).sum()) of each array whose name starts with `prefix`,
    through one scratch of at most ADAM_CHUNK elements."""
    half = {key: g for key, g in grads.items() if key.startswith(prefix)}
    scratch = np.empty(min(ADAM_CHUNK, max(g.size for g in half.values())))
    return {key: _square_sum(g.ravel(order="K"), scratch) for key, g in half.items()}


def _global_grad_norm(grads: dict) -> float:
    """sqrt of the per-array squared sums, added up in `grads` order."""
    policy, value = _both_halves(
        lambda: _square_sums(grads, "policy_"), lambda: _square_sums(grads, "value_")
    )
    sums = policy | value
    return math.sqrt(sum(sums[key] for key in grads))


def _adam_half(params: PolicyParameters, adam: AdamState, grads: dict, prefix: str,
               scale: float | None, hp: PpoHyperparams) -> None:
    """Clip-scale and Adam-update the arrays whose names start with `prefix`."""
    half = {key: g for key, g in grads.items() if key.startswith(prefix)}
    if scale is not None:
        for g in half.values():
            g *= scale
    bc1 = 1.0 - ADAM_BETA1 ** adam.t
    bc2 = 1.0 - ADAM_BETA2 ** adam.t
    rows = {key: max(1, ADAM_CHUNK // (g.size // len(g))) for key, g in half.items()}
    width = max(g[:rows[key]].size for key, g in half.items())
    buf_a = np.empty(width)
    buf_b = np.empty(width)
    for key, g in half.items():
        m = adam.m[key]
        v = adam.v[key]
        p = params.arrays[key]
        for lo in range(0, len(g), rows[key]):
            block = slice(lo, lo + rows[key])
            gs, ms, vs = g[block], m[block], v[block]
            a = buf_a[:gs.size].reshape(gs.shape)
            b = buf_b[:gs.size].reshape(gs.shape)
            # m = b1*m + (1-b1)*g
            ms *= ADAM_BETA1
            ms += np.multiply(gs, 1.0 - ADAM_BETA1, out=a)
            # v = b2*v + ((1-b2)*g)*g
            vs *= ADAM_BETA2
            np.multiply(gs, 1.0 - ADAM_BETA2, out=a)
            vs += np.multiply(a, gs, out=a)
            # p -= (lr*(m/bc1)) / (sqrt(v/bc2)+eps)
            np.sqrt(np.divide(vs, bc2, out=a), out=a)
            a += ADAM_EPS
            np.divide(ms, bc1, out=b)
            b *= hp.learning_rate
            p[block] -= np.divide(b, a, out=b)


def _adam_step(params: PolicyParameters, adam: AdamState, grads: dict,
               hp: PpoHyperparams) -> float:
    """One Adam step with global-norm clipping; returns the pre-clip norm.

    Clipping scales `grads` in place, and `adam` advances in place. The
    policy_* and value_* arrays are updated as the two halves of
    _both_halves, each through its own pair of scratch buffers. Each array
    is walked in blocks of whole rows of about ADAM_CHUNK elements, and
    every operation runs on a block while it sits in L2, so nothing the size
    of the model is allocated. Row blocks
    are views whatever the memory order of an array. The per-element order
    of operations is that of the textbook expression, so the result is the
    same bit for bit.
    """
    norm = _global_grad_norm(grads)
    scale = hp.max_grad_norm / norm if norm > hp.max_grad_norm else None
    adam.t += 1
    _both_halves(
        lambda: _adam_half(params, adam, grads, "policy_", scale, hp),
        lambda: _adam_half(params, adam, grads, "value_", scale, hp),
    )
    return norm


def normalize_advantages(advantages: np.ndarray) -> np.ndarray:
    """Center a minibatch's advantages and scale to unit std.

    Division is skipped when the population std is at or below 1e-12, and
    single-sample minibatches pass through untouched (centering one sample
    would zero its gradient signal).
    """
    if advantages.size <= 1:
        return advantages
    centered = advantages - advantages.mean()
    std = advantages.std()
    if std > 1e-12:
        centered = centered / std
    return centered


def ppo_update(
    params: PolicyParameters,
    adam: AdamState,
    batch: RolloutBatch,
    hp: PpoHyperparams,
    rng: np.random.Generator,
) -> UpdateStats:
    """Run n_epochs of shuffled minibatch updates over one rollout.

    `params` and `adam` advance in place, one Adam step per minibatch, and
    `params.update_count` by one; `batch` is only read. A parameter array
    that is not C-contiguous is first replaced by a C-ordered copy. Returns
    statistics averaged over all minibatches. One gradient set is alive at a
    time: a minibatch's gradients are released when its Adam step ends,
    before the next minibatch's are computed. A non-finite loss aborts
    immediately with NonFiniteLossError naming the epoch and minibatch;
    `params` and `adam` then hold the last finished minibatch's step.
    """
    # A matrix product rounds differently by memory order, and updates run on
    # C-ordered parameters: an array in another order (initialize's w1 when
    # input_dim < hidden[0]) is replaced once by its C-ordered copy.
    for key, p in params.arrays.items():
        if not p.flags.c_contiguous:
            params.arrays[key] = np.ascontiguousarray(p)
    n = batch.actions.size
    totals = np.zeros(5)
    norms = []
    count = 0
    for epoch in range(hp.n_epochs):
        perm = rng.permutation(n)
        for start in range(0, n, hp.batch_size):
            mb = perm[start:start + hp.batch_size]
            adv = normalize_advantages(batch.advantages[mb])
            loss, grads, stats = ppo_loss_and_grads(
                params,
                batch.observations[mb],
                batch.actions[mb],
                batch.log_probs[mb],
                adv,
                batch.returns[mb],
                hp,
            )
            if not np.isfinite(loss):
                raise NonFiniteLossError(
                    f"non-finite loss at epoch {epoch}, minibatch {start // hp.batch_size}"
                )
            norms.append(_adam_step(params, adam, grads, hp))
            del grads
            totals += (stats.loss, stats.policy_loss, stats.value_loss,
                       stats.entropy, stats.clip_fraction)
            count += 1
    params.update_count += 1
    mean = totals / count
    return UpdateStats(
        loss=float(mean[0]),
        policy_loss=float(mean[1]),
        value_loss=float(mean[2]),
        entropy=float(mean[3]),
        clip_fraction=float(mean[4]),
        grad_norm=float(np.mean(norms)),
    )


@dataclass
class CurvePoint:
    timesteps: int
    mean_step_reward: float
    mean_episode_return: float
    loss: float
    policy_loss: float
    value_loss: float
    entropy: float
    clip_fraction: float


@dataclass
class TrainingCurve:
    points: list[CurvePoint] = field(default_factory=list)

    def to_csv(self, path: str) -> None:
        write_csv(path, [f.name for f in fields(CurvePoint)], map(astuple, self.points))


def train(
    make_env: Callable,
    spec: NetworkSpec,
    hp: PpoHyperparams,
    seed: int,
) -> tuple[PolicyParameters, TrainingCurve]:
    """Train a policy from scratch on environments produced by `make_env`.

    Episodes that end mid-rollout reset the environment and keep collecting;
    ceil(total_timesteps / n_steps) updates run in total. The same seed
    reproduces parameters bit for bit. Training holds one PolicyParameters,
    which each ppo_update advances in place; when an update raises
    NonFiniteLossError, it holds the last finished minibatch's step.

    The rollout's observations go to the environment's
    `rollout_store(n_steps)` when it has one (envs.TradingEnv keeps each
    step's cursor and rebuilds a minibatch's observations when the update
    asks), and otherwise to an ObservationBuffer that copies them. Both
    give the update the same bytes.
    """
    rng = np.random.default_rng(seed)
    params = PolicyParameters.initialize(spec, rng)
    adam = AdamState.zeros(params)
    env = make_env()
    obs = np.asarray(env.reset(), dtype=np.float64)
    if obs.shape != (spec.input_dim,):
        raise PpoError(
            f"observation shape {obs.shape} does not match network input_dim {spec.input_dim}"
        )
    curve = TrainingCurve()
    recent_returns: deque = deque(maxlen=20)
    episode_return = 0.0
    steps_done = 0
    n_updates = -(-hp.total_timesteps // hp.n_steps)
    make_store = getattr(env, "rollout_store", None)
    obs_store = (make_store(hp.n_steps) if make_store is not None
                 else ObservationBuffer(hp.n_steps, spec.input_dim))
    act_buf = np.empty(hp.n_steps, dtype=np.int64)
    logp_buf = np.empty(hp.n_steps)
    val_buf = np.empty(hp.n_steps)
    rew_buf = np.empty(hp.n_steps)
    done_buf = np.empty(hp.n_steps, dtype=np.float64)
    for _ in range(n_updates):
        for t in range(hp.n_steps):
            action, logp, value = sample_action(params, obs, rng)
            obs_store.record(t, obs)
            try:
                result = env.step(action)
            except Exception as exc:
                raise PpoError(f"environment failed at timestep {steps_done}: {exc}") from exc
            act_buf[t] = action
            logp_buf[t] = logp
            val_buf[t] = value
            rew_buf[t] = result.reward
            done_buf[t] = 1.0 if result.done else 0.0
            episode_return += result.reward
            steps_done += 1
            if result.done:
                recent_returns.append(episode_return)
                episode_return = 0.0
                obs = np.asarray(env.reset(), dtype=np.float64)
            else:
                obs = np.asarray(result.observation, dtype=np.float64)
        _, bootstrap = forward(params, obs)
        advantages, returns = gae(rew_buf, val_buf, done_buf, bootstrap, hp.gamma, hp.gae_lambda)
        # The buffers and the store go in uncopied: ppo_update only reads
        # them, and it returns before the next rollout records into them.
        batch = RolloutBatch(
            observations=obs_store,
            actions=act_buf,
            log_probs=logp_buf,
            advantages=advantages,
            returns=returns,
        )
        stats = ppo_update(params, adam, batch, hp, rng)
        mean_return = float(np.mean(recent_returns)) if recent_returns else float("nan")
        curve.points.append(
            CurvePoint(
                timesteps=steps_done,
                mean_step_reward=float(rew_buf.mean()),
                mean_episode_return=mean_return,
                loss=stats.loss,
                policy_loss=stats.policy_loss,
                value_loss=stats.value_loss,
                entropy=stats.entropy,
                clip_fraction=stats.clip_fraction,
            )
        )
    return params, curve


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


@dataclass
class Checkpoint:
    params: PolicyParameters
    hyperparams: PpoHyperparams
    seed: int
    extra: dict


def save_checkpoint(
    path: str,
    params: PolicyParameters,
    hyperparams: PpoHyperparams,
    seed: int,
    extra: dict | None = None,
) -> None:
    """Serialize parameters and metadata to a binary file.

    Layout: magic, format version, JSON header length, JSON header (sorted
    keys), then the ARRAY_ORDER arrays as little-endian float64 in header
    order. The file holds no optimizer state: it serves inference and cannot
    resume training. Saving and loading round-trips every value bit for bit.
    The file is written under a temporary name in the same directory and
    moved into place, so an interrupted save leaves any earlier file at
    `path` untouched.
    """
    header = {
        "arrays": [{"name": key, "shape": list(params.arrays[key].shape)} for key in ARRAY_ORDER],
        "extra": extra or {},
        "hyperparams": asdict(hyperparams),
        "network": {
            "input_dim": params.spec.input_dim,
            "hidden": list(params.spec.hidden),
            "action_count": params.spec.action_count,
        },
        "seed": seed,
        "update_count": params.update_count,
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    with atomic_write(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<II", CHECKPOINT_VERSION, len(blob)))
        fh.write(blob)
        for key in ARRAY_ORDER:
            fh.write(np.ascontiguousarray(params.arrays[key], dtype="<f8"))


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return _is_int(value) or isinstance(value, float)


def _header_field(path: str, mapping: dict, key: str, valid: Callable, where: str = ""):
    if key not in mapping:
        raise CheckpointError(f"{path}: header has no {where}{key!r}")
    value = mapping[key]
    if not valid(value):
        raise CheckpointError(
            f"{path}: header {where}{key!r} has a bad value ({type(value).__name__} {value!r:.40})"
        )
    return value


def _header_spec(path: str, header: dict) -> NetworkSpec:
    net = _header_field(path, header, "network", lambda x: isinstance(x, dict))
    hidden = _header_field(
        path, net, "hidden", lambda x: isinstance(x, list) and all(map(_is_int, x)), "network."
    )
    try:
        return NetworkSpec(
            _header_field(path, net, "input_dim", _is_int, "network."),
            tuple(hidden),
            _header_field(path, net, "action_count", _is_int, "network."),
        )
    except PpoError as exc:
        raise CheckpointError(f"{path}: bad network in header ({exc})") from exc


def _header_hyperparams(path: str, header: dict) -> PpoHyperparams:
    values = _header_field(path, header, "hyperparams", lambda x: isinstance(x, dict))
    kinds = {f.name: f.type for f in fields(PpoHyperparams)}
    for key in values:
        if key not in kinds:
            raise CheckpointError(f"{path}: header has unknown hyperparams.{key!r}")
        _header_field(path, values, key, _is_int if kinds[key] == "int" else _is_number,
                      "hyperparams.")
    try:
        return PpoHyperparams(**values)
    except (TypeError, PpoError) as exc:
        raise CheckpointError(f"{path}: bad hyperparams in header ({exc})") from exc


def _expected_shapes(spec: NetworkSpec) -> dict[str, tuple[int, ...]]:
    """Shape of every array of a network of `spec`, in ARRAY_ORDER."""
    shapes = {}
    for prefix, out_dim in (("policy_", spec.action_count), ("value_", 1)):
        dims = (spec.input_dim, *spec.hidden, out_dim)
        for layer in range(3):
            shapes[f"{prefix}w{layer + 1}"] = (dims[layer], dims[layer + 1])
            shapes[f"{prefix}b{layer + 1}"] = (dims[layer + 1],)
    return shapes


def load_checkpoint(path: str) -> Checkpoint:
    """Read a checkpoint written by save_checkpoint, verifying integrity.

    Every defect (unreadable file, bad magic or version, a header key that
    is missing or of the wrong type, an unknown, repeated or missing array,
    an array whose shape disagrees with the declared network, a truncated
    or overlong payload) raises CheckpointError. Each array is read straight
    into its own buffer; the file is never held whole.
    """
    try:
        with open(path, "rb") as fh:
            return _read_checkpoint(path, fh)
    except OSError as exc:
        raise CheckpointError(f"{path}: {exc}") from exc


def _read_checkpoint(path: str, fh) -> Checkpoint:
    size = os.fstat(fh.fileno()).st_size
    prefix = fh.read(12)
    if len(prefix) < 12 or prefix[:4] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
    version, header_len = struct.unpack_from("<II", prefix, 4)
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version} "
                              f"(this build reads {CHECKPOINT_VERSION})")
    try:
        header = json.loads(fh.read(header_len).decode())
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise CheckpointError(f"{path}: corrupt header ({exc})") from exc
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: corrupt header (not a JSON object)")
    spec = _header_spec(path, header)
    hp = _header_hyperparams(path, header)
    seed = _header_field(path, header, "seed", _is_int)
    extra = _header_field(path, header, "extra", lambda x: isinstance(x, dict))
    update_count = _header_field(path, header, "update_count", _is_int)
    entries = _header_field(path, header, "arrays", lambda x: isinstance(x, list))
    expected = _expected_shapes(spec)
    loaded = {}
    for entry in entries:
        if not isinstance(entry, dict):
            raise CheckpointError(f"{path}: header array entry is not an object")
        name = _header_field(path, entry, "name", lambda x: isinstance(x, str), "arrays[].")
        shape = _header_field(path, entry, "shape", lambda x: isinstance(x, list), "arrays[].")
        if name not in expected:
            raise CheckpointError(f"{path}: unknown array {name!r}")
        if name in loaded:
            raise CheckpointError(f"{path}: array {name!r} appears twice")
        if tuple(shape) != expected[name]:
            raise CheckpointError(
                f"{path}: array {name!r} has shape {shape}, but the network declares "
                f"{list(expected[name])}"
            )
        if fh.tell() + math.prod(expected[name]) * 8 > size:
            raise CheckpointError(f"{path}: truncated payload at array {name}")
        loaded[name] = np.empty(expected[name], dtype="<f8")
        fh.readinto(loaded[name])
    if fh.tell() != size:
        raise CheckpointError(f"{path}: {size - fh.tell()} trailing bytes after payload")
    missing = [name for name in expected if name not in loaded]
    if missing:
        raise CheckpointError(f"{path}: missing arrays {missing}")
    params = PolicyParameters(
        spec=spec, arrays={key: loaded[key] for key in ARRAY_ORDER}, update_count=update_count
    )
    return Checkpoint(params=params, hyperparams=hp, seed=seed, extra=extra)
