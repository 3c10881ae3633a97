"""Optimizer oracles: finite-difference gradients, GAE sums, Adam, checkpoints."""

import hashlib
import json
import math
import os
import struct
import subprocess
import sys
import threading
import time
import tracemalloc
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest

import alloctrader
from alloctrader import ppo
from alloctrader.allocator import AllocatorConfig, HierarchyEnv
from alloctrader.allocator import observation_size as allocator_observation_size
from alloctrader.envs import EnvConfig, TradingEnv
from alloctrader.market_data import Timeframe
from alloctrader.ppo import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    ARRAY_ORDER,
    AdamState,
    CheckpointError,
    NetworkSpec,
    NonFiniteLossError,
    POLICY_ARRAYS,
    PolicyParameters,
    PpoError,
    PpoHyperparams,
    RolloutBatch,
    UpdateStats,
    _adam_step,
    gae,
    greedy_action,
    load_checkpoint,
    normalize_advantages,
    ppo_loss_and_grads,
    ppo_update,
    sample_action,
    save_checkpoint,
    train,
)
import train_reference
from conftest import stub_registry
from toyenv import ToyTradingEnv
from train_reference import forward

SPEC = NetworkSpec(input_dim=4, hidden=(5, 4), action_count=3)

HP = PpoHyperparams(
    total_timesteps=64,
    learning_rate=1e-3,
    n_steps=64,
    batch_size=16,
    n_epochs=2,
    gamma=0.98,
    gae_lambda=0.9,
    clip_range=0.2,
    entropy_coef=0.01,
    value_coef=0.5,
)


def _params(seed=0, spec=SPEC):
    return PolicyParameters.initialize(spec, np.random.default_rng(seed))


def _copy(params):
    """An independent copy of `params` with C-ordered arrays, as ppo_update
    reads them."""
    arrays = {k: v.copy() for k, v in params.arrays.items()}
    return PolicyParameters(spec=params.spec, arrays=arrays, update_count=params.update_count)


def _minibatch(params, n=12, seed=3, ratio_noise=0.05):
    """A self-consistent minibatch whose ratios sit inside the clip region."""
    rng = np.random.default_rng(seed)
    obs = rng.normal(size=(n, params.spec.input_dim))
    actions = rng.integers(0, params.spec.action_count, size=n)
    old_logp = np.empty(n)
    for i in range(n):
        probs, _ = forward(params, obs[i])
        old_logp[i] = np.log(probs[actions[i]]) + rng.uniform(-ratio_noise, ratio_noise)
    advantages = rng.normal(size=n)
    returns = rng.normal(size=n)
    return obs, actions, old_logp, advantages, returns


class TestForward:
    def test_probabilities_normalized(self):
        params = _params()
        rng = np.random.default_rng(1)
        for _ in range(20):
            probs, value = forward(params, rng.normal(size=4))
            assert probs.shape == (3,)
            assert (probs > 0).all()
            assert probs.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.isfinite(value)

    def test_zeroed_head_is_uniform(self):
        params = _params()
        params.arrays["policy_w3"][:] = 0.0
        probs, _ = forward(params, np.ones(4))
        np.testing.assert_allclose(probs, 1.0 / 3.0, atol=1e-15)

    def test_greedy_matches_argmax(self):
        params = _params()
        rng = np.random.default_rng(2)
        for _ in range(20):
            obs = rng.normal(size=4)
            probs, _ = forward(params, obs)
            assert greedy_action(params, obs) == int(np.argmax(probs))

    def test_sampling_follows_distribution(self):
        params = _params()
        params.arrays["policy_w3"][:] = 0.0
        params.arrays["policy_b3"][:] = np.log([0.7, 0.2, 0.1])
        rng = np.random.default_rng(3)
        draws = [sample_action(params, np.zeros(4), rng)[0] for _ in range(4000)]
        freq = np.bincount(draws, minlength=3) / 4000
        np.testing.assert_allclose(freq, [0.7, 0.2, 0.1], atol=0.03)

    def test_draws_are_rng_choice_draws(self, monkeypatch):
        # Probabilities from logits near-tied, spread and so far apart that
        # some underflow to 0; the net is replaced so that the observation is
        # the logits themselves.
        src = np.random.default_rng(4)
        scales = src.choice([1e-3, 1.0, 10.0, 800.0], size=(100_000, 1))
        logits = src.normal(size=(100_000, 3)) * scales
        monkeypatch.setattr(ppo, "_net_forward", lambda arrays, prefix, x: (x, None))
        params, ours, theirs = _params(), np.random.default_rng(5), np.random.default_rng(5)
        underflows = 0
        for row in logits:
            p = np.exp(ppo._log_softmax(row[None]))[0]
            underflows += (p == 0.0).any()
            action, logp = sample_action(params, row, ours)
            assert action == theirs.choice(3, p=p)
            assert logp == float(np.log(p[action]))
        assert underflows
        assert ours.bit_generator.state == theirs.bit_generator.state

    def test_non_finite_probabilities_are_ppo_error(self):
        params = _params()
        params.arrays["policy_w1"][0, 0] = np.nan
        with pytest.raises(PpoError, match="non-finite action probabilities"):
            sample_action(params, np.ones(4), np.random.default_rng(0))


class TestInitialization:
    def test_hidden_layers_orthogonal(self):
        params = _params()
        w1 = params.arrays["policy_w1"]  # 4 x 5, rows < cols: rows orthonormal
        gram = w1 @ w1.T / 2.0           # gain sqrt(2) squared
        np.testing.assert_allclose(gram, np.eye(4), atol=1e-12)

    def test_biases_zero_and_adam_clean(self):
        params = _params()
        adam = AdamState.zeros(params)
        for k in ARRAY_ORDER:
            if k.endswith(("b1", "b2", "b3")):
                assert (params.arrays[k] == 0.0).all()
            assert (adam.m[k] == 0.0).all() and adam.m[k].shape == params.arrays[k].shape
            assert (adam.v[k] == 0.0).all() and adam.v[k].shape == params.arrays[k].shape
            # C-ordered even where initialize's w1 is not, as Adam walks them.
            assert adam.m[k].flags.c_contiguous and adam.v[k].flags.c_contiguous
        assert adam.t == 0 and params.update_count == 0
        assert not any("adam" in name for name in vars(params))

    def test_policy_head_small_gain(self):
        params = _params()
        assert np.abs(params.arrays["policy_w3"]).max() < 0.02
        assert np.abs(params.arrays["value_w3"]).max() > 0.02


def _oracle_gae(rewards, values, dones, bootstrap, gamma, lam):
    """Advantage as the explicit discounted sum of one-step TD errors."""
    n = len(rewards)
    next_values = list(values[1:]) + [bootstrap]
    deltas = [
        rewards[t] + gamma * next_values[t] * (0.0 if dones[t] else 1.0) - values[t]
        for t in range(n)
    ]
    out = []
    for t in range(n):
        total, discount = 0.0, 1.0
        for l in range(t, n):
            total += discount * deltas[l]
            if dones[l]:
                break
            discount *= gamma * lam
        out.append(total)
    return np.array(out)


class TestGae:
    def test_matches_nested_sum_oracle(self):
        rng = np.random.default_rng(4)
        for trial in range(25):
            n = int(rng.integers(3, 40))
            rewards = rng.normal(size=n)
            values = rng.normal(size=n)
            dones = (rng.random(n) < 0.2).astype(float)
            bootstrap = float(rng.normal())
            gamma, lam = float(rng.uniform(0.8, 1.0)), float(rng.uniform(0.8, 1.0))
            adv, ret = gae(rewards, values, dones, bootstrap, gamma, lam)
            want = _oracle_gae(rewards, values, dones, bootstrap, gamma, lam)
            np.testing.assert_allclose(adv, want, atol=1e-10)
            np.testing.assert_allclose(ret, want + values, atol=1e-10)

    def test_terminal_step_ignores_bootstrap(self):
        rewards = np.array([1.0])
        values = np.array([0.3])
        adv1, _ = gae(rewards, values, np.array([1.0]), 99.0, 0.99, 0.95)
        adv2, _ = gae(rewards, values, np.array([1.0]), -99.0, 0.99, 0.95)
        assert adv1[0] == adv2[0] == pytest.approx(1.0 - 0.3)

    def test_single_nonterminal_uses_bootstrap(self):
        adv, _ = gae(np.array([1.0]), np.array([0.0]), np.array([0.0]), 2.0, 0.5, 0.9)
        assert adv[0] == pytest.approx(1.0 + 0.5 * 2.0)

    def test_no_credit_across_episode_boundary(self):
        # Large reward after a done step must not leak backward.
        rewards = np.array([0.0, 100.0])
        values = np.zeros(2)
        dones = np.array([1.0, 0.0])
        adv, _ = gae(rewards, values, dones, 0.0, 0.99, 0.95)
        assert adv[0] == 0.0


# (300, (130, 64)): policy_w1 holds 39,000 elements, more than one ADAM_CHUNK
# piece with a ragged tail. SPEC: initialize returns a Fortran-ordered
# policy_w1, which ppo_update (and _copy) turn C-ordered before Adam walks it.
TWO_SPECS = pytest.mark.parametrize("spec", [NetworkSpec(300, (130, 64)), SPEC],
                                    ids=["ragged-blocks", "fortran-order"])


def _reference_norm(grads):
    """The global gradient norm, one whole-array square sum per array."""
    return math.sqrt(sum(float((g * g).sum()) for g in grads.values()))


def _reference_loss_and_grads(params, observations, actions, old_log_probs, advantages,
                              returns, hp):
    """ppo_loss_and_grads as one serial pass over both nets."""
    arrays = params.arrays
    batch = observations.shape[0]
    idx = np.arange(batch)
    logits, pcache = ppo._net_forward(arrays, "policy_", observations)
    logp_all = ppo._log_softmax(logits)
    probs = np.exp(logp_all)
    logp_taken = logp_all[idx, actions]
    ratio = np.exp(logp_taken - old_log_probs)
    unclipped = ratio * advantages
    clipped = np.clip(ratio, 1.0 - hp.clip_range, 1.0 + hp.clip_range) * advantages
    policy_loss = -np.minimum(unclipped, clipped).mean()
    entropy = -(probs * logp_all).sum(axis=1)
    entropy_mean = float(entropy.mean())
    vout, vcache = ppo._net_forward(arrays, "value_", observations)
    v = vout[:, 0]
    value_loss = float(((v - returns) ** 2).mean())
    loss = float(policy_loss + hp.value_coef * value_loss - hp.entropy_coef * entropy_mean)
    active = unclipped <= clipped
    dlogp_taken = np.where(active, -advantages * ratio, 0.0) / batch
    onehot = np.zeros_like(probs)
    onehot[idx, actions] = 1.0
    dlogits = dlogp_taken[:, None] * (onehot - probs)
    dlogits += (hp.entropy_coef / batch) * probs * (logp_all + entropy[:, None])
    grads = ppo._net_backward(arrays, "policy_", pcache, dlogits)
    dv = (hp.value_coef * 2.0 / batch) * (v - returns)
    grads.update(ppo._net_backward(arrays, "value_", vcache, dv[:, None]))
    stats = UpdateStats(
        loss=loss,
        policy_loss=float(policy_loss),
        value_loss=value_loss,
        entropy=entropy_mean,
        clip_fraction=float(
            (ratio != np.clip(ratio, 1.0 - hp.clip_range, 1.0 + hp.clip_range)).mean()
        ),
        grad_norm=_reference_norm(grads),
    )
    return loss, grads, stats


def _bytes(stats):
    return np.array(astuple(stats), dtype=np.float64).tobytes()


class TestLossAndGradients:
    def test_entropy_of_uniform_policy_is_ln3(self):
        params = _params()
        params.arrays["policy_w3"][:] = 0.0
        obs, actions, old_logp, adv, ret = _minibatch(params)
        _, _, stats = ppo_loss_and_grads(params, obs, actions, old_logp, adv, ret, HP)
        assert stats.entropy == pytest.approx(math.log(3.0), abs=1e-12)

    def test_gradients_match_finite_differences(self):
        params = _params(seed=5)
        obs, actions, old_logp, adv, ret = _minibatch(params, n=10, seed=6)
        loss0, grads, _ = ppo_loss_and_grads(params, obs, actions, old_logp, adv, ret, HP)
        h = 1e-5
        worst = 0.0
        for key in ARRAY_ORDER:
            arr = params.arrays[key]
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                ix = it.multi_index
                orig = arr[ix]
                arr[ix] = orig + h
                lp, _, _ = ppo_loss_and_grads(params, obs, actions, old_logp, adv, ret, HP)
                arr[ix] = orig - h
                lm, _, _ = ppo_loss_and_grads(params, obs, actions, old_logp, adv, ret, HP)
                arr[ix] = orig
                numeric = (lp - lm) / (2.0 * h)
                analytic = grads[key][ix]
                err = abs(analytic - numeric) / max(1.0, abs(analytic), abs(numeric))
                worst = max(worst, err)
        assert worst <= 1e-4

    def test_loss_decomposition(self):
        params = _params(seed=7)
        obs, actions, old_logp, adv, ret = _minibatch(params, seed=8)
        loss, _, stats = ppo_loss_and_grads(params, obs, actions, old_logp, adv, ret, HP)
        want = stats.policy_loss + HP.value_coef * stats.value_loss - HP.entropy_coef * stats.entropy
        assert loss == pytest.approx(want, rel=1e-12)

    def test_clipped_samples_have_zero_policy_gradient(self):
        # With ratios far outside the clip range and hurtful advantages, the
        # surrogate is constant in the parameters, so policy grads vanish.
        params = _params(seed=9)
        hp = PpoHyperparams(total_timesteps=32, learning_rate=1e-3, n_steps=32,
                            batch_size=8, clip_range=0.2, entropy_coef=0.0)
        rng = np.random.default_rng(10)
        obs = rng.normal(size=(6, 4))
        actions = rng.integers(0, 3, size=6)
        old_logp = np.empty(6)
        for i in range(6):
            probs, _ = forward(params, obs[i])
            # Old policy was far less likely to pick this: ratio >> 1 + clip.
            old_logp[i] = np.log(probs[actions[i]]) - 2.0
        # Positive advantage with ratio above the ceiling: min() takes the
        # clipped branch, which is constant in the parameters.
        adv = np.ones(6)
        ret = np.zeros(6)
        _, grads, stats = ppo_loss_and_grads(params, obs, actions, old_logp, adv, ret, hp)
        assert stats.clip_fraction == 1.0
        for key in ARRAY_ORDER:
            if key.startswith("policy_"):
                assert np.abs(grads[key]).max() == 0.0

    @TWO_SPECS
    def test_matches_serial_reference(self, spec):
        params = _copy(_params(seed=24, spec=spec))
        adam = AdamState.zeros(params)
        for seed in range(5):
            # Wide ratio noise puts some samples outside the clip range.
            minibatch = _minibatch(params, n=16, seed=seed, ratio_noise=0.5)
            loss, grads, stats = ppo_loss_and_grads(params, *minibatch, HP)
            want_loss, want_grads, want_stats = _reference_loss_and_grads(
                params, *minibatch, HP)
            assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
            assert list(grads) == list(want_grads)
            for k, g in want_grads.items():
                assert grads[k].tobytes() == g.tobytes(), (seed, k)
            assert _bytes(stats) == _bytes(want_stats)
            assert 0.0 < stats.clip_fraction < 1.0
            # grad_norm is the pre-clip norm the reference Adam step clips by.
            norm = _reference_adam_step(_copy(params), AdamState.zeros(params), want_grads, HP)
            assert np.float64(stats.grad_norm).tobytes() == np.float64(norm).tobytes()
            _adam_step(params, adam, grads, stats.grad_norm, HP)


def _reference_adam_step(params, adam, grads, hp):
    """The textbook Adam step, one whole-array expression per operation;
    returns the pre-clip global norm."""
    norm = _reference_norm(grads)
    if norm > hp.max_grad_norm:
        scale = hp.max_grad_norm / norm
        grads = {k: g * scale for k, g in grads.items()}
    adam.t += 1
    bc1 = 1.0 - ADAM_BETA1 ** adam.t
    bc2 = 1.0 - ADAM_BETA2 ** adam.t
    for key, g in grads.items():
        m = adam.m[key]
        v = adam.v[key]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        params.arrays[key] -= hp.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
    return norm


def _norm(grads):
    """The global norm as ppo_loss_and_grads sums it, for synthetic gradients."""
    return math.sqrt(sum(ppo._square_sums(grads).values()))


class TestAdam:
    def test_first_step_closed_form(self):
        params = _copy(_params(seed=11))
        hp = PpoHyperparams(total_timesteps=32, learning_rate=0.01, n_steps=32,
                            batch_size=8, max_grad_norm=1e9)
        grads = {k: np.full_like(v, 0.5) for k, v in params.arrays.items()}
        before = {k: v.copy() for k, v in params.arrays.items()}
        adam = AdamState.zeros(params)
        _adam_step(params, adam, grads, _norm(grads), hp)
        # With bias correction, the first update is lr * g / (|g| + eps).
        step = 0.01 * 0.5 / (0.5 + ADAM_EPS)
        for k in ARRAY_ORDER:
            np.testing.assert_allclose(before[k] - params.arrays[k], step, rtol=1e-12)
        assert adam.t == 1

    def test_gradient_norm_clipping(self):
        params = _copy(_params(seed=12))
        hp = PpoHyperparams(total_timesteps=32, learning_rate=1.0, n_steps=32,
                            batch_size=8, max_grad_norm=0.5)
        grads = {k: np.full_like(v, 10.0) for k, v in params.arrays.items()}
        adam = AdamState.zeros(params)
        norm = _norm(grads)
        _adam_step(params, adam, grads, norm, hp)
        total = sum(v.size for v in params.arrays.values())
        assert norm == pytest.approx(10.0 * math.sqrt(total))
        # Clipping rescales grads; the m accumulator reflects the scaled value.
        scale = 0.5 / norm
        for k in ARRAY_ORDER:
            np.testing.assert_allclose(adam.m[k], 0.1 * 10.0 * scale, rtol=1e-12)

    @TWO_SPECS
    def test_thirty_steps_bit_identical(self, spec):
        hp = PpoHyperparams(total_timesteps=32, learning_rate=3e-3, n_steps=32,
                            batch_size=8, max_grad_norm=0.5)
        # Adam walks C-ordered arrays; the reference takes initialize's order.
        fast = _copy(_params(seed=21, spec=spec))
        slow = _params(seed=21, spec=spec)
        fast_adam, slow_adam = AdamState.zeros(fast), AdamState.zeros(slow)
        rng = np.random.default_rng(22)
        clipped = []
        for step in range(30):
            size = 1.0 if step % 2 == 0 else 1e-4 / math.sqrt(spec.input_dim)
            grads = {k: rng.standard_normal(v.shape) * size for k, v in fast.arrays.items()}
            want = _reference_adam_step(slow, slow_adam, {k: g.copy() for k, g in grads.items()},
                                        hp)
            got = _norm(grads)
            assert np.float64(got).tobytes() == np.float64(want).tobytes()
            _adam_step(fast, fast_adam, grads, got, hp)
            clipped.append(got > hp.max_grad_norm)
            for have, ref in ((fast.arrays, slow.arrays), (fast_adam.m, slow_adam.m),
                              (fast_adam.v, slow_adam.v)):
                for k in ARRAY_ORDER:
                    assert have[k].tobytes() == ref[k].tobytes(), (step, k)
        assert fast_adam.t == slow_adam.t == 30
        assert clipped == [step % 2 == 0 for step in range(30)]

    def test_clipping_scales_grads_in_place(self):
        params = _copy(_params(seed=23))
        hp = PpoHyperparams(total_timesteps=32, learning_rate=1e-3, n_steps=32,
                            batch_size=8, max_grad_norm=0.5)
        grads = {k: np.full_like(v, 2.0) for k, v in params.arrays.items()}
        norm = _norm(grads)
        _adam_step(params, AdamState.zeros(params), grads, norm, hp)
        for k in ARRAY_ORDER:
            np.testing.assert_array_equal(grads[k], 2.0 * (0.5 / norm))

    @pytest.mark.parametrize("which", ["gradient", "moment", "parameter", "strided"])
    def test_refuses_arrays_not_c_contiguous(self, which):
        params = _copy(_params(seed=37))
        adam = AdamState.zeros(params)
        grads = {k: np.ones_like(v) for k, v in params.arrays.items()}
        odd = {"gradient": np.asfortranarray(grads["value_w2"]),
               "moment": np.asfortranarray(adam.m["value_w2"]),
               "parameter": np.asfortranarray(params.arrays["value_w2"]),
               "strided": np.ones((5, 8))[:, ::2]}[which]
        target = {"gradient": grads, "moment": adam.m, "parameter": params.arrays,
                  "strided": grads}[which]
        target["value_w2"] = odd
        before = _copy(params)
        with pytest.raises(PpoError, match="C-contiguous"):
            ppo._adam_half(params, adam, grads, "value_", None, HP)
        # Refused before any array moved.
        for k in ARRAY_ORDER:
            assert params.arrays[k].tobytes() == before.arrays[k].tobytes()


def _square_sum_cases():
    """(id, array): every gradient shape of the default agents and allocator,
    lengths around ADAM_CHUNK and past it, and a Fortran-ordered array."""
    from alloctrader.config import default_config

    cfg = default_config()
    specs = {tf.label: s.network for tf, s in cfg.agents.items()}
    specs["allocator"] = cfg.allocator.network
    # Both nets' arrays: the value net's gradients are summed too.
    shapes = {f"{who}-{key}": array.shape for who, spec in specs.items()
              for key, array in _params(spec=spec).arrays.items()}
    for n in (ppo.ADAM_CHUNK - 1, ppo.ADAM_CHUNK, ppo.ADAM_CHUNK + 1, 8003,
              8 * ppo.ADAM_CHUNK + 3, 10**6 + 7):
        shapes[f"length-{n}"] = (n,)
    rng = np.random.default_rng(40)
    # Magnitudes spread over many binades, so that any other order of the
    # additions would round differently.
    cases = [(name, rng.standard_normal(shape) * np.exp(3.0 * rng.standard_normal(shape)))
             for name, shape in shapes.items()]
    cases.append(("fortran-1920x256", np.asfortranarray(rng.standard_normal((1920, 256)))))
    return cases


class TestSquareSums:
    def test_equal_numpy_sums_bit_for_bit(self):
        cases = _square_sum_cases()
        for name, g in cases:
            got = ppo._square_sums({"g": g})
            assert list(got) == ["g"]
            assert np.float64(got["g"]).tobytes() == np.float64((g * g).sum()).tobytes(), name
        # The test can tell orders apart: summing ADAM_CHUNK blocks left to
        # right gives another float.
        g = dict(cases)[f"length-{10**6 + 7}"]
        blocks = sum(float((b * b).sum()) for b in np.split(g, range(ppo.ADAM_CHUNK, g.size,
                                                                     ppo.ADAM_CHUNK)))
        assert blocks != float((g * g).sum())


class TestNormalizeAdvantages:
    def test_zero_mean_unit_std(self):
        rng = np.random.default_rng(13)
        adv = rng.normal(3.0, 2.5, size=64)
        out = normalize_advantages(adv)
        assert out.mean() == pytest.approx(0.0, abs=1e-12)
        assert out.std() == pytest.approx(1.0, rel=1e-12)

    def test_single_sample_untouched(self):
        adv = np.array([4.2])
        np.testing.assert_array_equal(normalize_advantages(adv), adv)

    def test_constant_batch_centered_not_scaled(self):
        out = normalize_advantages(np.full(8, 2.0))
        np.testing.assert_array_equal(out, np.zeros(8))


class TestPpoUpdate:
    def _batch(self, params, n=64, seed=14):
        obs, actions, old_logp, adv, ret = _minibatch(params, n=n, seed=seed)
        return RolloutBatch(observations=obs, actions=actions, log_probs=old_logp,
                            advantages=adv, returns=ret)

    def test_params_advance_in_place(self):
        params = _params(seed=15)
        arrays = dict(params.arrays)
        snapshot = {k: v.copy() for k, v in params.arrays.items()}
        batch = self._batch(params)
        batch_before = {k: v.copy() for k, v in vars(batch).items()}
        stats = ppo_update(params, AdamState.zeros(params), batch, HP, np.random.default_rng(0))
        assert isinstance(stats, UpdateStats)
        assert params.update_count == 1
        # SPEC's w1 arrays start Fortran-ordered: each is replaced once by a
        # C-ordered copy. Every other array advances where it is.
        assert not arrays["policy_w1"].flags.c_contiguous
        for k in ARRAY_ORDER:
            assert params.arrays[k].flags.c_contiguous
            assert (params.arrays[k] is arrays[k]) == arrays[k].flags.c_contiguous, k
            assert not np.array_equal(params.arrays[k], snapshot[k])
        # ppo_update writes nothing of the batch: train() hands it the
        # rollout's arrays and its observation store (a TradingEnv's
        # RolloutStore, or the plain array that copies them) uncopied.
        for k, v in vars(batch).items():
            assert v.tobytes() == batch_before[k].tobytes(), k

    @TWO_SPECS
    def test_three_epochs_match_serial_reference(self, spec):
        hp = PpoHyperparams(total_timesteps=64, learning_rate=3e-3, n_steps=64,
                            batch_size=16, n_epochs=3, entropy_coef=0.01, max_grad_norm=0.5)
        params = _params(seed=25, spec=spec)
        batch = self._batch(params, n=48, seed=26)
        # Switch threads as often as the interpreter allows: no interleaving
        # of the two halves may move a bit.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        want = _copy(params)
        want_adam = AdamState.zeros(want)
        got_adam = AdamState.zeros(params)
        try:
            stats = ppo_update(params, got_adam, batch, hp, np.random.default_rng(27))
        finally:
            sys.setswitchinterval(interval)

        rng = np.random.default_rng(27)
        rows, norms = [], []
        for _ in range(hp.n_epochs):
            perm = rng.permutation(48)
            for start in range(0, 48, hp.batch_size):
                mb = perm[start:start + hp.batch_size]
                _, grads, s = _reference_loss_and_grads(
                    want, batch.observations[mb], batch.actions[mb], batch.log_probs[mb],
                    normalize_advantages(batch.advantages[mb]), batch.returns[mb], hp)
                norms.append(_reference_adam_step(want, want_adam, grads, hp))
                rows.append((s.loss, s.policy_loss, s.value_loss, s.entropy, s.clip_fraction))
        totals = np.zeros(5)
        for row in rows:
            totals += row
        mean = totals / len(rows)
        want_stats = UpdateStats(*(float(x) for x in mean), grad_norm=float(np.mean(norms)))

        assert got_adam.t == want_adam.t == 9
        for have, ref in ((params.arrays, want.arrays), (got_adam.m, want_adam.m),
                          (got_adam.v, want_adam.v)):
            for k in ARRAY_ORDER:
                assert have[k].tobytes() == ref[k].tobytes()
        assert _bytes(stats) == _bytes(want_stats)

    def test_deterministic_given_rng_state(self):
        params = _params(seed=16)
        batch = self._batch(params)
        a, b = _copy(params), _copy(params)
        ppo_update(a, AdamState.zeros(a), batch, HP, np.random.default_rng(42))
        ppo_update(b, AdamState.zeros(b), batch, HP, np.random.default_rng(42))
        for k in ARRAY_ORDER:
            np.testing.assert_array_equal(a.arrays[k], b.arrays[k])

    def test_two_handoffs_per_minibatch(self, monkeypatch):
        # The loss halves, then Adam's: the squared sums need no third.
        calls = []
        real = ppo._both_halves
        monkeypatch.setattr(ppo, "_both_halves", lambda *halves: calls.append(1) or real(*halves))
        params = _params(seed=38)
        adam = AdamState.zeros(params)
        ppo_update(params, adam, self._batch(params, n=64), HP, np.random.default_rng(4))
        assert adam.t == 8 and len(calls) == 2 * adam.t

    def test_adam_t_counts_minibatches(self):
        params = _params(seed=17)
        adam = AdamState.zeros(params)
        ppo_update(params, adam, self._batch(params, n=64), HP, np.random.default_rng(1))
        # 64 samples / batch 16 = 4 minibatches x 2 epochs.
        assert adam.t == 8

    def test_non_finite_loss_aborts(self):
        params = _params(seed=18)
        batch = self._batch(params)
        batch.advantages = np.full_like(batch.advantages, np.inf)
        with np.errstate(invalid="ignore"):
            with pytest.raises(NonFiniteLossError, match="epoch 0"):
                ppo_update(params, AdamState.zeros(params), batch, HP, np.random.default_rng(2))

    # The policy half runs on the worker thread, outside this np.errstate.
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_non_finite_loss_keeps_the_finished_steps(self):
        params = _params(seed=18)
        batch = self._batch(params)
        # One infinite advantage, in the third of the first epoch's four
        # minibatches of 16.
        batch.advantages[np.random.default_rng(2).permutation(64)[40]] = np.inf
        adam = AdamState.zeros(params)
        before = _copy(params)
        with np.errstate(invalid="ignore"):
            with pytest.raises(NonFiniteLossError, match="epoch 0, minibatch 2"):
                ppo_update(params, adam, batch, HP, np.random.default_rng(2))
        # The two finished minibatches' steps stay; the update is not counted.
        assert adam.t == 2
        assert params.update_count == 0
        for k in ARRAY_ORDER:
            assert not np.array_equal(params.arrays[k], before.arrays[k])

    def test_update_holds_one_gradient_set(self):
        # The default 1m agent's size, over two 128-row minibatches.
        params = _params(seed=34, spec=NetworkSpec(1920, (256, 256)))
        gradient_set = sum(v.nbytes for v in params.arrays.values())
        batch = self._batch(params, n=256, seed=35)
        hp = PpoHyperparams(total_timesteps=256, learning_rate=1e-3, n_steps=256,
                            batch_size=128, n_epochs=1)
        adam = AdamState.zeros(params)
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            ppo_update(params, adam, batch, hp, np.random.default_rng(36))
            end, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert adam.t == 2
        # One gradient set, a minibatch of observations and its activations;
        # a copy of the parameters or a second gradient set would not fit.
        assert peak - start < 1.75 * gradient_set
        # Nothing is left behind, not even a squared-sum scratch kept alive
        # by a reference cycle until the next garbage collection.
        assert end - start < 64 * 1024

    def test_update_reduces_value_loss(self):
        params = _params(seed=19)
        batch = self._batch(params, n=64, seed=20)
        hp = PpoHyperparams(total_timesteps=64, learning_rate=5e-3, n_steps=64,
                            batch_size=64, n_epochs=1, entropy_coef=0.0)
        rng = np.random.default_rng(3)
        _, _, before = ppo_loss_and_grads(
            params, batch.observations, batch.actions, batch.log_probs,
            batch.advantages, batch.returns, hp)
        adam = AdamState.zeros(params)
        for _ in range(50):
            ppo_update(params, adam, batch, hp, rng)
        _, _, after = ppo_loss_and_grads(
            params, batch.observations, batch.actions, batch.log_probs,
            batch.advantages, batch.returns, hp)
        assert after.value_loss < before.value_loss


def _tracked(monkeypatch, delay=0.0):
    """Wrap the policy half so each call records its thread and its end."""
    calls = []
    real = ppo._policy_loss_and_grads

    def policy_half(*args):
        try:
            time.sleep(delay)
            return real(*args)
        finally:
            calls.append(threading.current_thread())

    monkeypatch.setattr(ppo, "_policy_loss_and_grads", policy_half)
    return calls


class TestWorkerThread:
    def test_policy_half_runs_on_worker(self, monkeypatch):
        calls = _tracked(monkeypatch)
        params = _params(seed=28)
        ppo_loss_and_grads(params, *_minibatch(params, n=8, seed=29), HP)
        assert len(calls) == 1 and calls[0] is not threading.main_thread()

    def test_worker_error_propagates(self, monkeypatch):
        calls = _tracked(monkeypatch)
        params = _params(seed=30)
        obs, actions, old_logp, adv, ret = _minibatch(params, n=8, seed=31)
        actions[3] = params.spec.action_count
        with pytest.raises(IndexError):
            ppo_loss_and_grads(params, obs, actions, old_logp, adv, ret, HP)
        assert len(calls) == 1

    def test_value_error_waits_for_worker(self, monkeypatch):
        calls = _tracked(monkeypatch, delay=0.3)
        params = _params(seed=32)
        obs, actions, old_logp, adv, _ = _minibatch(params, n=8, seed=33)
        bad_returns = np.zeros(9)
        with pytest.raises(ValueError):
            ppo_loss_and_grads(params, obs, actions, old_logp, adv, bad_returns, HP)
        # The slow policy half had ended when the value half's error came out.
        assert len(calls) == 1

    def test_tiny_train_exits_promptly(self):
        code = "\n".join([
            "import threading, time",
            "import numpy as np",
            "from alloctrader import cli, ppo",
            "from toyenv import ToyTradingEnv",
            "spec = ppo.NetworkSpec(11, (8, 8))",
            "params = ppo.PolicyParameters.initialize(spec, np.random.default_rng(0))",
            "obs = np.zeros(11)",
            "ppo.sample_action(params, obs, np.random.default_rng(1))",
            "ppo.greedy_action(params, obs)",
            "assert threading.active_count() == 1, 'inference started a thread'",
            "hp = ppo.PpoHyperparams(total_timesteps=64, learning_rate=1e-3, n_steps=32,",
            "                        batch_size=16, n_epochs=2)",
            "ppo.train(ToyTradingEnv, spec, hp, seed=0)",
            "assert threading.active_count() == 2",
            "print(time.time(), flush=True)",
        ])
        paths = [str(Path(alloctrader.__file__).parents[1]), str(Path(__file__).parent)]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        exited = time.time()
        assert proc.returncode == 0, proc.stderr
        assert exited - float(proc.stdout) < 5.0


class TestTrain:
    HP_TOY = PpoHyperparams(total_timesteps=200, learning_rate=1e-3, n_steps=64,
                            batch_size=32, n_epochs=2, gamma=1.0)
    SPEC_TOY = NetworkSpec(input_dim=11, hidden=(8, 8), action_count=3)

    def test_same_seed_bit_identical(self):
        runs = []
        for _ in range(2):
            params, curve = train(ToyTradingEnv, self.SPEC_TOY, self.HP_TOY, seed=0)
            runs.append((params, curve))
        a, b = runs[0][0], runs[1][0]
        for k in ARRAY_ORDER:
            np.testing.assert_array_equal(a.arrays[k], b.arrays[k])
        assert [p.loss for p in runs[0][1].points] == [p.loss for p in runs[1][1].points]

    def test_different_seed_differs(self):
        a, _ = train(ToyTradingEnv, self.SPEC_TOY, self.HP_TOY, seed=0)
        b, _ = train(ToyTradingEnv, self.SPEC_TOY, self.HP_TOY, seed=1)
        assert any(not np.array_equal(a.arrays[k], b.arrays[k]) for k in ARRAY_ORDER)

    def test_update_count_and_curve_length(self):
        params, curve = train(ToyTradingEnv, self.SPEC_TOY, self.HP_TOY, seed=2)
        # ceil(200 / 64) = 4 updates.
        assert params.update_count == 4
        assert len(curve.points) == 4
        assert curve.points[-1].timesteps == 256

    def test_observation_shape_mismatch_rejected(self):
        bad_spec = NetworkSpec(input_dim=7, hidden=(8, 8), action_count=3)
        with pytest.raises(PpoError, match="input_dim"):
            train(ToyTradingEnv, bad_spec, self.HP_TOY, seed=0)

    def test_curve_csv(self, tmp_path):
        _, curve = train(ToyTradingEnv, self.SPEC_TOY, self.HP_TOY, seed=3)
        path = tmp_path / "curve.csv"
        curve.to_csv(str(path))
        lines = path.read_text().strip().split("\n")
        assert lines[0].startswith("timesteps,mean_step_reward,mean_episode_return")
        assert len(lines) == 5

    def test_same_bytes_at_one_and_two_blas_threads(self, tmp_path):
        # The first layer's products are 128 x 512 x 64, past the size at
        # which OpenBLAS splits a GEMM over its threads.
        code = "\n".join([
            "import os, sys",
            "from alloctrader import envs, market_data, ppo",
            "from conftest import small_synth_config",
            "sessions = market_data.synthesize(small_synth_config(session_minutes=90), 7, 4)",
            "config = envs.EnvConfig(market_data.Timeframe.ONE_MINUTE, window_size=64)",
            "spec = ppo.NetworkSpec(64 * 8, (64, 64))",
            "hp = ppo.PpoHyperparams(total_timesteps=256, learning_rate=1e-3, n_steps=256,",
            "                        batch_size=128, n_epochs=2)",
            "params, _ = ppo.train(lambda: envs.TradingEnv(sessions.sessions, config), spec, hp, 3)",
            "ppo.save_checkpoint(sys.argv[1], params, hp, 3)",
            "print(len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') else 0)",
        ])
        paths = [str(Path(alloctrader.__file__).parents[1]), str(Path(__file__).parent)]
        procs = {}
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths), OPENBLAS_NUM_THREADS=threads)
            procs[threads] = subprocess.Popen(
                [sys.executable, "-c", code, str(tmp_path / f"{threads}.ckpt")], env=env,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        os_threads = {}
        for threads, proc in procs.items():
            out, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
            os_threads[threads] = int(out)
        # Where the OS lists a process's threads, the second run has one more.
        assert os_threads["2"] == os_threads["1"] + (os_threads["1"] > 0)
        digests = {hashlib.sha256((tmp_path / f"{t}.ckpt").read_bytes()).hexdigest()
                   for t in procs}
        assert len(digests) == 1


def _oracle_case(name, sessions):
    """make_env, spec and hyperparameters of a TestTrainEqualsStepLoop case.
    n_steps is not a multiple of batch_size, so the value pass ends on a
    short block."""
    hp = PpoHyperparams(total_timesteps=600, learning_rate=1e-3, n_steps=200,
                        batch_size=64, n_epochs=2, entropy_coef=0.01)
    if name == "toy":
        return ToyTradingEnv, NetworkSpec(11, (8, 8)), TestTrain.HP_TOY
    if name == "hierarchy":
        config = AllocatorConfig(market_window=20, vol_window=10)
        registry = stub_registry(0, window_sizes=(4, 3, 2), hidden=(4, 4))
        return (lambda: HierarchyEnv(sessions, registry, config),
                NetworkSpec(allocator_observation_size(config), (8, 8)), hp)
    config = EnvConfig(Timeframe.from_label(name), window_size=5)
    return lambda: TradingEnv(sessions, config), NetworkSpec(5 * 8, (8, 8)), hp


class TestTrainEqualsStepLoop:
    """train takes a rollout's values in one pass after it ends; the step loop
    that ran the critic inside each step (train_reference) trains to the same
    checkpoint and curve bytes, and to the same bytes of every array of both
    nets in memory: the checkpoint holds the policy net alone."""

    @pytest.mark.parametrize("name", ["1m", "1h", "hierarchy", "toy"])
    def test_checkpoint_and_curve_bytes(self, name, regime_result, tmp_path):
        make_env, spec, hp = _oracle_case(name, regime_result.sessions)
        env = make_env()
        if isinstance(env, TradingEnv):
            # A 1m rollout stays inside one episode; a 1h one spans several,
            # so the rollout store gathers value blocks across episodes.
            episode_steps = (env.n_bars - 1 - env.min_cursor) // env.length
            assert (episode_steps > hp.total_timesteps) == (name == "1m")
            assert name == "1m" or hp.n_steps > 2 * episode_steps
        runs = []
        for trainer in (train, train_reference.train):
            params, curve = trainer(make_env, spec, hp, seed=5)
            save_checkpoint(str(tmp_path / "a.ckpt"), params, hp, 5)
            curve.to_csv(str(tmp_path / "curve.csv"))
            runs.append(((tmp_path / "a.ckpt").read_bytes(),
                         (tmp_path / "curve.csv").read_bytes(),
                         [params.arrays[k].tobytes() for k in ARRAY_ORDER]))
        assert runs[0] == runs[1]


def _rewrite_header(path, mutate):
    """Replace a checkpoint's JSON header with `mutate(header)`, keeping the payload."""
    blob = path.read_bytes()
    _, header_len = struct.unpack_from("<II", blob, 4)
    header = mutate(json.loads(blob[12:12 + header_len]))
    new = json.dumps(header).encode()
    path.write_bytes(blob[:8] + struct.pack("<I", len(new)) + new + blob[12 + header_len:])


def _dig(header, keys):
    target = header
    for key in keys[:-1]:
        target = target[key]
    return target


def _drop(header, *keys):
    del _dig(header, keys)[keys[-1]]
    return header


def _set(header, keys, value):
    _dig(header, keys)[keys[-1]] = value
    return header


_BAD_HEADERS = [
    ("not-an-object", lambda h: [h], "not a JSON object"),
    ("no-network", lambda h: _drop(h, "network"), "no 'network'"),
    ("no-input-dim", lambda h: _drop(h, "network", "input_dim"), "no network.'input_dim'"),
    ("hidden-string", lambda h: _set(h, ("network", "hidden"), "8,8"),
     "network.'hidden' has a bad value"),
    ("hidden-one-layer", lambda h: _set(h, ("network", "hidden"), [8]), "bad network"),
    ("action-count-bool", lambda h: _set(h, ("network", "action_count"), True),
     "'action_count' has a bad value"),
    ("no-seed", lambda h: _drop(h, "seed"), "no 'seed'"),
    ("extra-list", lambda h: _set(h, ("extra",), []), "'extra' has a bad value"),
    ("update-count-float", lambda h: _set(h, ("update_count",), 2.5),
     "'update_count' has a bad value"),
    ("no-update-count", lambda h: _drop(h, "update_count"), "no 'update_count'"),
    ("no-hyperparams", lambda h: _drop(h, "hyperparams"), "no 'hyperparams'"),
    ("learning-rate-string", lambda h: _set(h, ("hyperparams", "learning_rate"), "fast"),
     "'learning_rate' has a bad value"),
    ("n-steps-float", lambda h: _set(h, ("hyperparams", "n_steps"), 64.0),
     "'n_steps' has a bad value"),
    ("unknown-hyperparam", lambda h: _set(h, ("hyperparams", "momentum"), 0.9),
     "unknown hyperparams.'momentum'"),
    ("batch-size-zero", lambda h: _set(h, ("hyperparams", "batch_size"), 0), "bad hyperparams"),
    ("arrays-object", lambda h: _set(h, ("arrays",), {}), "'arrays' has a bad value"),
    ("array-entry-string", lambda h: _set(h, ("arrays", 0), "policy_w1"), "not an object"),
    ("no-shape", lambda h: _drop(h, "arrays", 0, "shape"), r"no arrays\[\].'shape'"),
    ("unknown-group", lambda h: _set(h, ("arrays", 0, "name"), "grad.policy_w1"),
     "unknown array 'grad.policy_w1'"),
    ("unknown-key", lambda h: _set(h, ("arrays", 0, "name"), "policy_w9"),
     "unknown array 'policy_w9'"),
    ("duplicate-array", lambda h: _set(h, ("arrays", 1, "name"), "policy_w1"),
     "'policy_w1' appears twice"),
    ("input-dim-mismatch", lambda h: _set(h, ("network", "input_dim"), 12),
     r"'policy_w1' has shape \[11, 8\], but the network declares \[12, 8\]"),
    ("hidden-mismatch", lambda h: _set(h, ("network", "hidden"), [8, 9]),
     r"'policy_w2' has shape \[8, 8\], but the network declares \[8, 9\]"),
]


class TestCheckpoint:
    def _trained(self, seed=4):
        hp = PpoHyperparams(total_timesteps=128, learning_rate=1e-3, n_steps=64,
                            batch_size=32, n_epochs=2, gamma=1.0)
        spec = NetworkSpec(input_dim=11, hidden=(8, 8), action_count=3)
        params, _ = train(ToyTradingEnv, spec, hp, seed=seed)
        return params, hp

    def test_round_trip_bit_exact(self, tmp_path):
        params, hp = self._trained()
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(path, params, hp, seed=4, extra={"kind": "toy", "window_size": 3})
        ckpt = load_checkpoint(path)
        assert ckpt.seed == 4
        assert ckpt.extra == {"kind": "toy", "window_size": 3}
        assert ckpt.hyperparams == hp
        assert ckpt.params.spec == params.spec
        assert ckpt.params.update_count == params.update_count
        assert list(ckpt.params.arrays) == list(POLICY_ARRAYS)
        for k in POLICY_ARRAYS:
            assert ckpt.params.arrays[k].tobytes() == params.arrays[k].tobytes()

    def test_reloaded_policy_acts_identically(self, tmp_path):
        params, hp = self._trained()
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(path, params, hp, seed=4)
        ckpt = load_checkpoint(path)
        rng = np.random.default_rng(5)
        for _ in range(20):
            obs = rng.normal(size=11)
            assert greedy_action(ckpt.params, obs) == greedy_action(params, obs)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="nope.ckpt"):
            load_checkpoint(str(tmp_path / "nope.ckpt"))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(str(path))

    def test_truncated_payload(self, tmp_path):
        params, hp = self._trained()
        path = tmp_path / "model.ckpt"
        save_checkpoint(str(path), params, hp, seed=4)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 16])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(str(path))

    def test_trailing_garbage(self, tmp_path):
        params, hp = self._trained()
        path = tmp_path / "model.ckpt"
        save_checkpoint(str(path), params, hp, seed=4)
        path.write_bytes(path.read_bytes() + b"\x00" * 8)
        with pytest.raises(CheckpointError, match="trailing"):
            load_checkpoint(str(path))

    def test_unsupported_version(self, tmp_path):
        params, hp = self._trained()
        path = tmp_path / "model.ckpt"
        save_checkpoint(str(path), params, hp, seed=4)
        blob = bytearray(path.read_bytes())
        # Version 1 is the format that also held Adam's moments.
        for version in (1, 99):
            blob[4] = version
            path.write_bytes(bytes(blob))
            with pytest.raises(CheckpointError, match=f"unsupported checkpoint version {version}"):
                load_checkpoint(str(path))

    @pytest.mark.parametrize(
        "mutate, match", [pytest.param(m, r, id=i) for i, m, r in _BAD_HEADERS]
    )
    def test_bad_header_rejected(self, tmp_path, mutate, match):
        params, hp = self._trained()
        path = tmp_path / "model.ckpt"
        save_checkpoint(str(path), params, hp, seed=4)
        _rewrite_header(path, mutate)
        with pytest.raises(CheckpointError, match=match):
            load_checkpoint(str(path))

    def test_missing_array_rejected(self, tmp_path):
        params, hp = self._trained()
        path = tmp_path / "model.ckpt"
        save_checkpoint(str(path), params, hp, seed=4)
        _rewrite_header(path, lambda h: _set(h, ("arrays",), h["arrays"][:-1]))
        # The dropped entry's 24 bytes (policy_b3) would now trail.
        path.write_bytes(path.read_bytes()[:-24])
        with pytest.raises(CheckpointError, match=r"missing arrays \['policy_b3'\]"):
            load_checkpoint(str(path))

    def test_failed_save_leaves_old_file(self, tmp_path):
        params, hp = self._trained()
        path = tmp_path / "model.ckpt"
        save_checkpoint(str(path), params, hp, seed=4)
        before = path.read_bytes()
        broken = _copy(params)
        # The last array written cannot be converted to float64, so the save
        # fails after the header and 5 arrays have been written.
        broken.arrays["policy_b3"] = np.array(["not a number"])
        with pytest.raises(ValueError):
            save_checkpoint(str(path), broken, hp, seed=5)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["model.ckpt"]

    def test_default_1m_load_holds_parameters_only(self, tmp_path):
        # The default 1m agent: 240 bars x 8 features in, 256,256 hidden.
        params = _params(seed=6, spec=NetworkSpec(1920, (256, 256)))
        hp = PpoHyperparams(total_timesteps=128, learning_rate=1e-3, n_steps=64, batch_size=32)
        path = tmp_path / "model.ckpt"
        save_checkpoint(str(path), params, hp, seed=6)
        param_bytes = sum(params.arrays[k].nbytes for k in POLICY_ARRAYS)
        assert param_bytes == 4_466_712
        header_len = struct.unpack_from("<I", path.read_bytes(), 8)[0]
        assert path.stat().st_size == 12 + header_len + param_bytes
        tracemalloc.start()
        try:
            ckpt = load_checkpoint(str(path))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * param_bytes
        assert list(ckpt.params.arrays) == list(POLICY_ARRAYS)
        for k in POLICY_ARRAYS:
            assert ckpt.params.arrays[k].tobytes() == params.arrays[k].tobytes()
