"""Optimizer oracles: finite-difference gradients, GAE sums, Adam, checkpoints."""

import json
import math
import os
import struct

import numpy as np
import pytest

from alloctrader.ppo import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    ARRAY_ORDER,
    CHECKPOINT_MAGIC,
    Checkpoint,
    CheckpointError,
    NetworkSpec,
    NonFiniteLossError,
    PolicyParameters,
    PpoError,
    PpoHyperparams,
    RolloutBatch,
    _adam_step,
    _global_grad_norm,
    forward,
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
from toyenv import ToyTradingEnv

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


class TestInitialization:
    def test_hidden_layers_orthogonal(self):
        params = _params()
        w1 = params.arrays["policy_w1"]  # 4 x 5, rows < cols: rows orthonormal
        gram = w1 @ w1.T / 2.0           # gain sqrt(2) squared
        np.testing.assert_allclose(gram, np.eye(4), atol=1e-12)

    def test_biases_zero_and_adam_clean(self):
        params = _params()
        for k in ARRAY_ORDER:
            if k.endswith(("b1", "b2", "b3")):
                assert (params.arrays[k] == 0.0).all()
            assert (params.adam_m[k] == 0.0).all()
            assert (params.adam_v[k] == 0.0).all()
        assert params.adam_t == 0 and params.update_count == 0

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


def _reference_adam_step(params, grads, hp):
    """The textbook Adam step, one whole-array expression per operation."""
    norm = _global_grad_norm(grads)
    if norm > hp.max_grad_norm:
        scale = hp.max_grad_norm / norm
        grads = {k: g * scale for k, g in grads.items()}
    params.adam_t += 1
    bc1 = 1.0 - ADAM_BETA1 ** params.adam_t
    bc2 = 1.0 - ADAM_BETA2 ** params.adam_t
    for key, g in grads.items():
        m = params.adam_m[key]
        v = params.adam_v[key]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        params.arrays[key] -= hp.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
    return norm


class TestAdam:
    def test_first_step_closed_form(self):
        params = _params(seed=11)
        hp = PpoHyperparams(total_timesteps=32, learning_rate=0.01, n_steps=32,
                            batch_size=8, max_grad_norm=1e9)
        grads = {k: np.full_like(v, 0.5) for k, v in params.arrays.items()}
        before = {k: v.copy() for k, v in params.arrays.items()}
        _adam_step(params, grads, hp)
        # With bias correction, the first update is lr * g / (|g| + eps).
        step = 0.01 * 0.5 / (0.5 + ADAM_EPS)
        for k in ARRAY_ORDER:
            np.testing.assert_allclose(before[k] - params.arrays[k], step, rtol=1e-12)
        assert params.adam_t == 1

    def test_gradient_norm_clipping(self):
        params = _params(seed=12)
        hp = PpoHyperparams(total_timesteps=32, learning_rate=1.0, n_steps=32,
                            batch_size=8, max_grad_norm=0.5)
        grads = {k: np.full_like(v, 10.0) for k, v in params.arrays.items()}
        norm = _adam_step(params, grads, hp)
        total = sum(v.size for v in params.arrays.values())
        assert norm == pytest.approx(10.0 * math.sqrt(total))
        # Clipping rescales grads; the m accumulator reflects the scaled value.
        scale = 0.5 / norm
        for k in ARRAY_ORDER:
            np.testing.assert_allclose(params.adam_m[k], 0.1 * 10.0 * scale, rtol=1e-12)

    # (300, (130, 64)): policy_w1 holds 39,000 elements, more than one block
    # with a ragged tail. SPEC: initialize returns a Fortran-ordered policy_w1.
    @pytest.mark.parametrize("spec", [NetworkSpec(300, (130, 64)), SPEC],
                             ids=["ragged-blocks", "fortran-order"])
    def test_thirty_steps_bit_identical(self, spec):
        hp = PpoHyperparams(total_timesteps=32, learning_rate=3e-3, n_steps=32,
                            batch_size=8, max_grad_norm=0.5)
        fast = _params(seed=21, spec=spec)
        slow = _params(seed=21, spec=spec)
        rng = np.random.default_rng(22)
        clipped = []
        for step in range(30):
            size = 1.0 if step % 2 == 0 else 1e-4 / math.sqrt(spec.input_dim)
            grads = {k: rng.standard_normal(v.shape) * size for k, v in fast.arrays.items()}
            want = _reference_adam_step(slow, {k: g.copy() for k, g in grads.items()}, hp)
            got = _adam_step(fast, grads, hp)
            assert np.float64(got).tobytes() == np.float64(want).tobytes()
            clipped.append(got > hp.max_grad_norm)
            for store in ("arrays", "adam_m", "adam_v"):
                for k in ARRAY_ORDER:
                    have = getattr(fast, store)[k].tobytes()
                    assert have == getattr(slow, store)[k].tobytes(), (step, store, k)
        assert fast.adam_t == slow.adam_t == 30
        assert clipped == [step % 2 == 0 for step in range(30)]

    def test_clipping_scales_grads_in_place(self):
        params = _params(seed=23)
        hp = PpoHyperparams(total_timesteps=32, learning_rate=1e-3, n_steps=32,
                            batch_size=8, max_grad_norm=0.5)
        grads = {k: np.full_like(v, 2.0) for k, v in params.arrays.items()}
        norm = _adam_step(params, grads, hp)
        for k in ARRAY_ORDER:
            np.testing.assert_array_equal(grads[k], 2.0 * (0.5 / norm))


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

    def test_input_params_not_mutated(self):
        params = _params(seed=15)
        snapshot = {k: v.copy() for k, v in params.arrays.items()}
        batch = self._batch(params)
        batch_before = {k: v.copy() for k, v in vars(batch).items()}
        new_params, _ = ppo_update(params, batch, HP, np.random.default_rng(0))
        for k in ARRAY_ORDER:
            np.testing.assert_array_equal(params.arrays[k], snapshot[k])
            assert not np.array_equal(new_params.arrays[k], snapshot[k])
        assert params.update_count == 0 and new_params.update_count == 1
        # train() hands ppo_update its rollout buffers uncopied.
        for k, v in vars(batch).items():
            assert v.tobytes() == batch_before[k].tobytes(), k

    def test_deterministic_given_rng_state(self):
        params = _params(seed=16)
        batch = self._batch(params)
        a, _ = ppo_update(params, batch, HP, np.random.default_rng(42))
        b, _ = ppo_update(params, batch, HP, np.random.default_rng(42))
        for k in ARRAY_ORDER:
            np.testing.assert_array_equal(a.arrays[k], b.arrays[k])

    def test_adam_t_counts_minibatches(self):
        params = _params(seed=17)
        new_params, _ = ppo_update(params, self._batch(params, n=64), HP,
                                   np.random.default_rng(1))
        # 64 samples / batch 16 = 4 minibatches x 2 epochs.
        assert new_params.adam_t == 8

    def test_non_finite_loss_aborts(self):
        params = _params(seed=18)
        batch = self._batch(params)
        batch.advantages = np.full_like(batch.advantages, np.inf)
        with np.errstate(invalid="ignore"):
            with pytest.raises(NonFiniteLossError, match="epoch 0"):
                ppo_update(params, batch, HP, np.random.default_rng(2))

    def test_update_reduces_value_loss(self):
        params = _params(seed=19)
        batch = self._batch(params, n=64, seed=20)
        hp = PpoHyperparams(total_timesteps=64, learning_rate=5e-3, n_steps=64,
                            batch_size=64, n_epochs=1, entropy_coef=0.0)
        rng = np.random.default_rng(3)
        _, _, before = ppo_loss_and_grads(
            params, batch.observations, batch.actions, batch.log_probs,
            batch.advantages, batch.returns, hp)
        current = params
        for _ in range(50):
            current, _ = ppo_update(current, batch, hp, rng)
        _, _, after = ppo_loss_and_grads(
            current, batch.observations, batch.actions, batch.log_probs,
            batch.advantages, batch.returns, hp)
        assert after.value_loss < before.value_loss


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


def _rewrite_header(path, mutate):
    """Replace a checkpoint's JSON header with `mutate(header)`, keeping the payload."""
    blob = path.read_bytes()
    _, header_len = struct.unpack_from("<II", blob, 4)
    header = mutate(json.loads(blob[12:12 + header_len]))
    new = json.dumps(header).encode()
    path.write_bytes(blob[:4] + struct.pack("<II", 1, len(new)) + new + blob[12 + header_len:])


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
    ("adam-t-string", lambda h: _set(h, ("adam_t",), "8"), "'adam_t' has a bad value"),
    ("no-seed", lambda h: _drop(h, "seed"), "no 'seed'"),
    ("extra-list", lambda h: _set(h, ("extra",), []), "'extra' has a bad value"),
    ("update-count-float", lambda h: _set(h, ("update_count",), 2.5),
     "'update_count' has a bad value"),
    ("no-hyperparams", lambda h: _drop(h, "hyperparams"), "no 'hyperparams'"),
    ("learning-rate-string", lambda h: _set(h, ("hyperparams", "learning_rate"), "fast"),
     "'learning_rate' has a bad value"),
    ("n-steps-float", lambda h: _set(h, ("hyperparams", "n_steps"), 64.0),
     "'n_steps' has a bad value"),
    ("unknown-hyperparam", lambda h: _set(h, ("hyperparams", "momentum"), 0.9),
     "unknown hyperparams.'momentum'"),
    ("batch-size-zero", lambda h: _set(h, ("hyperparams", "batch_size"), 0), "bad hyperparams"),
    ("arrays-object", lambda h: _set(h, ("arrays",), {}), "'arrays' has a bad value"),
    ("array-entry-string", lambda h: _set(h, ("arrays", 0), "param.policy_w1"), "not an object"),
    ("no-shape", lambda h: _drop(h, "arrays", 0, "shape"), r"no arrays\[\].'shape'"),
    ("unknown-group", lambda h: _set(h, ("arrays", 0, "name"), "grad.policy_w1"),
     "unknown array 'grad.policy_w1'"),
    ("unknown-key", lambda h: _set(h, ("arrays", 0, "name"), "param.policy_w9"),
     "unknown array 'param.policy_w9'"),
    ("duplicate-array", lambda h: _set(h, ("arrays", 1, "name"), "param.policy_w1"),
     "'param.policy_w1' appears twice"),
    ("input-dim-mismatch", lambda h: _set(h, ("network", "input_dim"), 12),
     r"'param.policy_w1' has shape \[11, 8\], but the network declares \[12, 8\]"),
    ("hidden-mismatch", lambda h: _set(h, ("network", "hidden"), [8, 9]),
     r"'param.policy_w2' has shape \[8, 8\], but the network declares \[8, 9\]"),
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
        assert ckpt.params.adam_t == params.adam_t
        assert ckpt.params.update_count == params.update_count
        for k in ARRAY_ORDER:
            np.testing.assert_array_equal(ckpt.params.arrays[k], params.arrays[k])
            np.testing.assert_array_equal(ckpt.params.adam_m[k], params.adam_m[k])
            np.testing.assert_array_equal(ckpt.params.adam_v[k], params.adam_v[k])

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
        blob[4] = 99
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="version"):
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

    def test_missing_adam_arrays_rejected(self, tmp_path):
        params, hp = self._trained()
        path = tmp_path / "model.ckpt"
        save_checkpoint(str(path), params, hp, seed=4)
        _rewrite_header(path, lambda h: _set(h, ("arrays",), h["arrays"][:-1]))
        # The dropped entry's 8 bytes (adam_v.value_b3) would now trail.
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(CheckpointError, match=r"missing arrays \['adam_v.value_b3'\]"):
            load_checkpoint(str(path))

    def test_failed_save_leaves_old_file(self, tmp_path):
        params, hp = self._trained()
        path = tmp_path / "model.ckpt"
        save_checkpoint(str(path), params, hp, seed=4)
        before = path.read_bytes()
        broken = params.copy()
        # The last array written cannot be converted to float64, so the save
        # fails after the header and 35 arrays have been written.
        broken.adam_v["value_b3"] = np.array(["not a number"])
        with pytest.raises(ValueError):
            save_checkpoint(str(path), broken, hp, seed=5)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["model.ckpt"]
