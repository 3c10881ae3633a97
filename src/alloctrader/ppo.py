"""Proximal policy optimization with separate policy and value networks.

Both networks are two-hidden-layer tanh MLPs over float64 numpy arrays with
manual backprop; no autograd framework is involved. Training is fully
deterministic for a given seed: one generator drives initialization, action
sampling and minibatch shuffling.

Conventions match the usual PPO recipe: clipped surrogate objective,
generalized advantage estimation, per-minibatch advantage normalization,
entropy bonus, Adam with global gradient-norm clipping, orthogonal
initialization (gain sqrt(2) hidden, 0.01 policy head, 1.0 value head).
Adam runs in place, in L2-sized row blocks of each array, and allocates
nothing the size of the model.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import struct
from collections import deque
from dataclasses import asdict, dataclass, field, fields
from typing import Callable, Sequence

import numpy as np

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# Elements per Adam block: 256 KB of float64. The six blocks one step touches
# (gradient, m, v, parameters and two scratch buffers) fit in a 2 MB L2.
ADAM_CHUNK = 32768

CHECKPOINT_MAGIC = b"ATCK"
CHECKPOINT_VERSION = 1

_LAYER_KEYS = ("w1", "b1", "w2", "b2", "w3", "b3")
ARRAY_ORDER = tuple(f"policy_{k}" for k in _LAYER_KEYS) + tuple(f"value_{k}" for k in _LAYER_KEYS)


class PpoError(RuntimeError):
    """Training or inference failure in the optimizer."""


class NonFiniteLossError(PpoError):
    """A minibatch produced a NaN or infinite loss; the update was aborted."""


class CheckpointError(RuntimeError):
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
    """All learnable arrays plus Adam state, keyed by ARRAY_ORDER names."""

    spec: NetworkSpec
    arrays: dict[str, np.ndarray]
    adam_m: dict[str, np.ndarray]
    adam_v: dict[str, np.ndarray]
    adam_t: int = 0
    update_count: int = 0

    @classmethod
    def initialize(cls, spec: NetworkSpec, rng: np.random.Generator) -> "PolicyParameters":
        """Orthogonal-initialized parameters; biases start at zero."""
        policy = _init_net(rng, spec, spec.action_count, 0.01)
        value = _init_net(rng, spec, 1, 1.0)
        arrays = {f"policy_{k}": v for k, v in policy.items()}
        arrays.update({f"value_{k}": v for k, v in value.items()})
        zeros = lambda: {k: np.zeros_like(v) for k, v in arrays.items()}
        return cls(spec=spec, arrays=arrays, adam_m=zeros(), adam_v=zeros())

    def copy(self) -> "PolicyParameters":
        return PolicyParameters(
            spec=self.spec,
            arrays={k: v.copy() for k, v in self.arrays.items()},
            adam_m={k: v.copy() for k, v in self.adam_m.items()},
            adam_v={k: v.copy() for k, v in self.adam_v.items()},
            adam_t=self.adam_t,
            update_count=self.update_count,
        )


def _net_forward(arrays: dict, prefix: str, x: np.ndarray):
    a1 = np.tanh(x @ arrays[prefix + "w1"] + arrays[prefix + "b1"])
    a2 = np.tanh(a1 @ arrays[prefix + "w2"] + arrays[prefix + "b2"])
    out = a2 @ arrays[prefix + "w3"] + arrays[prefix + "b3"]
    return out, (x, a1, a2)


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
    """Draw an action from the policy; returns (action, log_prob, value)."""
    probs, value = forward(params, observation)
    action = int(rng.choice(probs.size, p=probs))
    return action, float(np.log(probs[action])), value


def greedy_action(params: PolicyParameters, observation: np.ndarray) -> int:
    """Deterministic argmax action (first index wins ties)."""
    obs = np.atleast_2d(np.asarray(observation, dtype=np.float64))
    logits, _ = _net_forward(params.arrays, "policy_", obs)
    return int(np.argmax(logits[0]))


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


@dataclass
class RolloutBatch:
    observations: np.ndarray
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
    """
    arrays = params.arrays
    batch = observations.shape[0]
    idx = np.arange(batch)

    logits, pcache = _net_forward(arrays, "policy_", observations)
    logp_all = _log_softmax(logits)
    probs = np.exp(logp_all)
    logp_taken = logp_all[idx, actions]
    ratio = np.exp(logp_taken - old_log_probs)
    unclipped = ratio * advantages
    clipped = np.clip(ratio, 1.0 - hp.clip_range, 1.0 + hp.clip_range) * advantages
    policy_loss = -np.minimum(unclipped, clipped).mean()
    entropy = -(probs * logp_all).sum(axis=1)
    entropy_mean = float(entropy.mean())

    vout, vcache = _net_forward(arrays, "value_", observations)
    v = vout[:, 0]
    value_loss = float(((v - returns) ** 2).mean())

    loss = float(policy_loss + hp.value_coef * value_loss - hp.entropy_coef * entropy_mean)

    # Policy gradient flows only where the unclipped branch is active.
    active = unclipped <= clipped
    dlogp_taken = np.where(active, -advantages * ratio, 0.0) / batch
    onehot = np.zeros_like(probs)
    onehot[idx, actions] = 1.0
    dlogits = dlogp_taken[:, None] * (onehot - probs)
    # Entropy bonus: d(-c * mean(H))/dlogits = c/B * p * (log p + H).
    dlogits += (hp.entropy_coef / batch) * probs * (logp_all + entropy[:, None])
    grads = _net_backward(arrays, "policy_", pcache, dlogits)

    dv = (hp.value_coef * 2.0 / batch) * (v - returns)
    grads.update(_net_backward(arrays, "value_", vcache, dv[:, None]))

    stats = UpdateStats(
        loss=loss,
        policy_loss=float(policy_loss),
        value_loss=value_loss,
        entropy=entropy_mean,
        clip_fraction=float((ratio != np.clip(ratio, 1.0 - hp.clip_range, 1.0 + hp.clip_range)).mean()),
        grad_norm=0.0,
    )
    return loss, grads, stats


def _global_grad_norm(grads: dict) -> float:
    return math.sqrt(sum(float((g * g).sum()) for g in grads.values()))


def _adam_step(params: PolicyParameters, grads: dict, hp: PpoHyperparams) -> float:
    """One Adam step with global-norm clipping; returns the pre-clip norm.

    Clipping scales `grads` in place. Each array is walked in blocks of whole
    rows of about ADAM_CHUNK elements, and every operation runs on a block
    while it sits in L2, through two block-sized scratch buffers, so nothing
    the size of the model is allocated. Row blocks are views whatever the
    memory order of an array. The per-element order of operations is that
    of the textbook expression, so the result is the same bit for bit.
    """
    norm = _global_grad_norm(grads)
    if norm > hp.max_grad_norm:
        scale = hp.max_grad_norm / norm
        for g in grads.values():
            g *= scale
    params.adam_t += 1
    bc1 = 1.0 - ADAM_BETA1 ** params.adam_t
    bc2 = 1.0 - ADAM_BETA2 ** params.adam_t
    rows = {key: max(1, ADAM_CHUNK // (g.size // len(g))) for key, g in grads.items()}
    width = max(g[:rows[key]].size for key, g in grads.items())
    buf_a = np.empty(width)
    buf_b = np.empty(width)
    for key, g in grads.items():
        m = params.adam_m[key]
        v = params.adam_v[key]
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
    batch: RolloutBatch,
    hp: PpoHyperparams,
    rng: np.random.Generator,
) -> tuple[PolicyParameters, UpdateStats]:
    """Run n_epochs of shuffled minibatch updates over one rollout.

    Returns fresh parameters (neither the input parameters nor `batch` are
    mutated) plus statistics averaged over all minibatches. A non-finite
    loss aborts immediately with the offending epoch and minibatch index.
    """
    n = batch.observations.shape[0]
    params = params.copy()
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
            norms.append(_adam_step(params, grads, hp))
            totals += (stats.loss, stats.policy_loss, stats.value_loss,
                       stats.entropy, stats.clip_fraction)
            count += 1
    params.update_count += 1
    mean = totals / count
    return params, UpdateStats(
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
        import csv as _csv

        names = ["timesteps", "mean_step_reward", "mean_episode_return", "loss",
                 "policy_loss", "value_loss", "entropy", "clip_fraction"]
        with open(path, "w", newline="") as fh:
            writer = _csv.writer(fh)
            writer.writerow(names)
            for p in self.points:
                writer.writerow([p.timesteps] + [repr(getattr(p, n)) for n in names[1:]])


def train(
    make_env: Callable,
    spec: NetworkSpec,
    hp: PpoHyperparams,
    seed: int,
) -> tuple[PolicyParameters, TrainingCurve]:
    """Train a policy from scratch on environments produced by `make_env`.

    Episodes that end mid-rollout reset the environment and keep collecting;
    ceil(total_timesteps / n_steps) updates run in total. The same seed
    reproduces parameters bit for bit.
    """
    rng = np.random.default_rng(seed)
    params = PolicyParameters.initialize(spec, rng)
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
    obs_buf = np.empty((hp.n_steps, spec.input_dim))
    act_buf = np.empty(hp.n_steps, dtype=np.int64)
    logp_buf = np.empty(hp.n_steps)
    val_buf = np.empty(hp.n_steps)
    rew_buf = np.empty(hp.n_steps)
    done_buf = np.empty(hp.n_steps, dtype=np.float64)
    for _ in range(n_updates):
        for t in range(hp.n_steps):
            action, logp, value = sample_action(params, obs, rng)
            try:
                result = env.step(action)
            except Exception as exc:
                raise PpoError(f"environment failed at timestep {steps_done}: {exc}") from exc
            obs_buf[t] = obs
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
        # The buffers go in uncopied: ppo_update only reads them, and it
        # returns before the next rollout writes to them.
        batch = RolloutBatch(
            observations=obs_buf,
            actions=act_buf,
            log_probs=logp_buf,
            advantages=advantages,
            returns=returns,
        )
        params, stats = ppo_update(params, batch, hp, rng)
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


_ARRAY_GROUPS = ("param", "adam_m", "adam_v")


def _array_entries(params: PolicyParameters) -> list[tuple[str, np.ndarray]]:
    entries = []
    for group, store in zip(_ARRAY_GROUPS, (params.arrays, params.adam_m, params.adam_v)):
        for key in ARRAY_ORDER:
            entries.append((f"{group}.{key}", store[key]))
    return entries


def save_checkpoint(
    path: str,
    params: PolicyParameters,
    hyperparams: PpoHyperparams,
    seed: int,
    extra: dict | None = None,
) -> None:
    """Serialize parameters, Adam state and metadata to a binary file.

    Layout: magic, format version, JSON header length, JSON header (sorted
    keys), then every array as little-endian float64 in header order. Saving
    and loading round-trips every value bit for bit. The file is written
    under a temporary name in the same directory and moved into place, so an
    interrupted save leaves any earlier file at `path` untouched.
    """
    entries = _array_entries(params)
    header = {
        "adam_t": params.adam_t,
        "arrays": [{"name": name, "shape": list(arr.shape)} for name, arr in entries],
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
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC)
            fh.write(struct.pack("<II", CHECKPOINT_VERSION, len(blob)))
            fh.write(blob)
            for _, arr in entries:
                fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


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
    """Shape of every array a checkpoint of `spec` holds, keyed `group.key`."""
    shapes = {}
    for prefix, out_dim in (("policy_", spec.action_count), ("value_", 1)):
        dims = (spec.input_dim, *spec.hidden, out_dim)
        for layer in range(3):
            shapes[f"{prefix}w{layer + 1}"] = (dims[layer], dims[layer + 1])
            shapes[f"{prefix}b{layer + 1}"] = (dims[layer + 1],)
    return {f"{group}.{key}": shapes[key] for group in _ARRAY_GROUPS for key in ARRAY_ORDER}


def load_checkpoint(path: str) -> Checkpoint:
    """Read a checkpoint written by save_checkpoint, verifying integrity.

    Every defect (unreadable file, bad magic or version, a header key that
    is missing or of the wrong type, an unknown, repeated or missing array,
    an array whose shape disagrees with the declared network, a truncated
    or overlong payload) raises CheckpointError.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise CheckpointError(f"{path}: {exc}") from exc
    if len(data) < 12 or data[:4] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
    version, header_len = struct.unpack_from("<II", data, 4)
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    try:
        header = json.loads(data[12:12 + header_len].decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: corrupt header ({exc})") from exc
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: corrupt header (not a JSON object)")
    spec = _header_spec(path, header)
    hp = _header_hyperparams(path, header)
    adam_t = _header_field(path, header, "adam_t", _is_int)
    seed = _header_field(path, header, "seed", _is_int)
    extra = _header_field(path, header, "extra", lambda x: isinstance(x, dict))
    update_count = (_header_field(path, header, "update_count", _is_int)
                    if "update_count" in header else 0)
    entries = _header_field(path, header, "arrays", lambda x: isinstance(x, list))
    expected = _expected_shapes(spec)
    offset = 12 + header_len
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
        nbytes = math.prod(expected[name]) * 8
        if offset + nbytes > len(data):
            raise CheckpointError(f"{path}: truncated payload at array {name}")
        loaded[name] = (
            np.frombuffer(data[offset:offset + nbytes], dtype="<f8").reshape(expected[name]).copy()
        )
        offset += nbytes
    if offset != len(data):
        raise CheckpointError(f"{path}: {len(data) - offset} trailing bytes after payload")
    missing = [name for name in expected if name not in loaded]
    if missing:
        raise CheckpointError(f"{path}: missing arrays {missing}")
    stores = {group: {key: loaded[f"{group}.{key}"] for key in ARRAY_ORDER}
              for group in _ARRAY_GROUPS}
    params = PolicyParameters(
        spec=spec,
        arrays=stores["param"],
        adam_m=stores["adam_m"],
        adam_v=stores["adam_v"],
        adam_t=adam_t,
        update_count=update_count,
    )
    return Checkpoint(params=params, hyperparams=hp, seed=seed, extra=extra)
