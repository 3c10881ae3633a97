"""Reference `ppo.train` that runs the critic inside every rollout step.

`ppo.train` takes a rollout's values in one pass after the rollout ends,
from the rollout's observation store. This copy is the step loop that did
it before: each step's `forward` gives the action probabilities and the
state value of the observation at hand, and the bootstrap value comes from
`forward` on the observation after the last step. Tests train through both
and compare checkpoint and curve bytes.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

from alloctrader.ppo import (
    AdamState,
    CurvePoint,
    PolicyParameters,
    PpoError,
    RolloutBatch,
    TrainingCurve,
    _log_softmax,
    _net_forward,
    gae,
    ppo_update,
)


def forward(params: PolicyParameters, observation: np.ndarray) -> tuple[np.ndarray, float]:
    """Action probabilities and state value for a single observation."""
    obs = np.atleast_2d(np.asarray(observation, dtype=np.float64))
    logits, _ = _net_forward(params.arrays, "policy_", obs)
    probs = np.exp(_log_softmax(logits))[0]
    value, _ = _net_forward(params.arrays, "value_", obs)
    return probs, float(value[0, 0])


def sample_action(params, observation, rng) -> tuple[int, float, float]:
    """`ppo.sample_action`'s draw, with the state value: (action, log_prob, value)."""
    probs, value = forward(params, observation)
    cdf = probs.cumsum()
    if not math.isfinite(cdf[-1]):
        raise PpoError(f"policy gave non-finite action probabilities {probs.tolist()}")
    cdf /= cdf[-1]
    action = int(cdf.searchsorted(rng.random(), "right"))
    return action, float(np.log(probs[action])), value


def train(make_env, spec, hp, seed: int) -> tuple[PolicyParameters, TrainingCurve]:
    """`ppo.train` with every value taken inside its rollout step."""
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
                 else np.empty((hp.n_steps, spec.input_dim)))
    act_buf = np.empty(hp.n_steps, dtype=np.int64)
    logp_buf = np.empty(hp.n_steps)
    val_buf = np.empty(hp.n_steps)
    rew_buf = np.empty(hp.n_steps)
    done_buf = np.empty(hp.n_steps, dtype=np.float64)
    for _ in range(n_updates):
        for t in range(hp.n_steps):
            action, logp, value = sample_action(params, obs, rng)
            obs_store[t] = obs
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
