"""Concrete environments: the 3-state gamble MDP, control tasks, wrappers."""

import dataclasses
import hashlib
import math

import numpy as np
import pytest

from bbope.envs import (
    CONTROL_NAMES,
    classic_control,
    infinite_horizon,
    model_win,
    model_win_policy,
    random_tabular_mdp,
    sample_env_dataset,
    sample_env_trajectory,
    scripted_near_optimal,
)
from bbope.envs import _load_constants
from bbope.mdp import MixedPolicy, UniformPolicy, sample_trajectory
from bbope.rng import make_rng

import sampler_reference

CONSTANTS = _load_constants()


# ---------------------------------------------------------------------------
# model_win


def test_model_win_side_states_return_to_hub_without_reward():
    mdp = model_win(0.4)
    for side in (1, 2):
        for action in (0, 1):
            assert mdp.transition[side, action, 0] == 1.0
            assert mdp.reward[side, action] == 0.0


def test_model_win_symmetric_p_has_zero_hub_reward():
    mdp = model_win(0.5)
    assert mdp.reward[0, 0] == 0.0
    assert mdp.reward[0, 1] == 0.0


def test_model_win_default_p_hub_rewards():
    # expected gamble payoffs: p*1 + (1-p)*(-1) and its mirror
    mdp = model_win(0.4)
    assert abs(mdp.reward[0, 0] - (-0.2)) < 1e-15
    assert abs(mdp.reward[0, 1] - 0.2) < 1e-15
    assert np.allclose(mdp.transition[0, 0], [0.0, 0.4, 0.6])
    assert np.allclose(mdp.transition[0, 1], [0.0, 0.6, 0.4])
    assert np.array_equal(mdp.start, [1.0, 0.0, 0.0])


@pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.7])
def test_model_win_rejects_degenerate_odds(p):
    with pytest.raises(ValueError):
        model_win(p)


def test_model_win_trajectory_alternates_hub_and_sides():
    traj = sample_trajectory(model_win(0.4), model_win_policy(0.9), 400, seed=5)
    states = np.asarray(traj.states)
    assert np.all(states[0::2] == 0)
    assert np.all(states[1::2] != 0)


def test_model_win_policy_rows():
    pol = model_win_policy(0.9)
    assert np.allclose(pol.table, [[0.9, 0.1], [0.5, 0.5], [0.5, 0.5]])


# ---------------------------------------------------------------------------
# classic_control rewards


def test_pendulum_reward_zero_at_rest_with_zero_torque():
    env = classic_control("pendulum")
    torques = np.asarray(CONSTANTS["pendulum.torques"])
    zero_idx = int(np.argmin(np.abs(torques)))
    assert torques[zero_idx] == 0.0
    _, reward, done = env.step(np.array([0.0, 0.0]), zero_idx)
    assert reward == 0.0
    assert not done


def test_cartpole_rewards_are_plus_one_until_fall():
    env = classic_control("cartpole")
    state = np.zeros(4)
    _, reward, done = env.step(state, 1)
    assert reward == 1.0 and not done
    # a state far past the angle limit falls on the next step
    falling = np.array([0.0, 0.0, 0.5, 1.0])
    _, reward, done = env.step(falling, 1)
    assert reward == -100.0 and done


def test_mountain_car_goal_pays_hundred_and_terminates():
    env = classic_control("mountain_car")
    goal = CONSTANTS["mountain_car.goal_position"]
    vmax = CONSTANTS["mountain_car.max_speed"]
    _, reward, done = env.step(np.array([goal - 1e-4, vmax]), 2)
    assert reward == 100.0 and done
    _, reward, done = env.step(np.array([-0.5, 0.0]), 1)
    assert reward == -1.0 and not done


def test_acrobot_step_reward_and_goal_reward():
    env = classic_control("acrobot")
    hanging = np.array([1.0, 0.0, 1.0, 0.0, 0.0, 0.0])  # both links straight down
    _, reward, done = env.step(hanging, 1)
    assert reward == -1.0 and not done


def test_classic_control_rejects_unknown_name():
    with pytest.raises(ValueError):
        classic_control("lunar_lander")
    assert CONTROL_NAMES == ("acrobot", "cartpole", "mountain_car", "pendulum")


# ---------------------------------------------------------------------------
# infinite_horizon


def test_wrapped_cartpole_never_terminates():
    env = infinite_horizon(classic_control("cartpole"))
    traj = sample_env_trajectory(env, UniformPolicy(2), 10_000, seed=1)
    assert len(traj) == 10_000  # no early stop in ten thousand steps


def test_wrapped_cartpole_keeps_fall_penalty_and_resets():
    raw = classic_control("cartpole")
    env = infinite_horizon(raw)
    falling = np.array([0.0, 0.0, 0.5, 1.0])
    _, raw_reward, raw_done = raw.step(falling, 1)
    assert raw_done
    rng = make_rng(7)
    nxt, reward, done = env.step(falling, 1, rng)
    assert reward == raw_reward == -100.0
    assert not done
    r = CONSTANTS["cartpole.start_range"]
    assert np.max(np.abs(nxt)) <= r  # successor is a fresh start draw


def test_wrapping_pendulum_is_identity():
    raw = classic_control("pendulum")
    wrapped = infinite_horizon(raw)
    pol = UniformPolicy(raw.num_actions)
    a = sample_env_trajectory(raw, pol, 300, seed=9)
    b = sample_env_trajectory(wrapped, pol, 300, seed=9)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.rewards, b.rewards)


def test_wrapped_cartpole_states_stay_reachable():
    env = infinite_horizon(classic_control("cartpole"))
    traj = sample_env_trajectory(env, UniformPolicy(2), 5000, seed=13)
    x = traj.states[:, 0]
    th = traj.states[:, 2]
    assert np.max(np.abs(x)) <= CONSTANTS["cartpole.position_limit"]
    assert np.max(np.abs(th)) <= CONSTANTS["cartpole.angle_limit"]


# ---------------------------------------------------------------------------
# reward ranges


def test_reward_ranges_over_random_rollouts():
    expectations = {
        "pendulum": lambda r: np.all(r <= 0.0),
        "cartpole": lambda r: set(np.unique(r)) <= {-100.0, 1.0},
        "mountain_car": lambda r: set(np.unique(r)) <= {-1.0, 100.0},
        "acrobot": lambda r: set(np.unique(r)) <= {-1.0, 100.0},
    }
    for name in CONTROL_NAMES:
        env = infinite_horizon(classic_control(name))
        traj = sample_env_trajectory(env, UniformPolicy(env.num_actions), 1500, seed=2)
        assert expectations[name](np.asarray(traj.rewards)), name


# ---------------------------------------------------------------------------
# random_tabular_mdp


def test_random_mdp_satisfies_invariants():
    for S, A in [(4, 2), (10, 3)]:
        mdp = random_tabular_mdp(S, A, seed=11)
        assert np.max(np.abs(mdp.transition.sum(axis=2) - 1.0)) < 1e-12
        assert np.min(mdp.transition) >= 1e-3
        assert np.all(np.abs(mdp.reward) <= 1.0)
        assert abs(mdp.start.sum() - 1.0) < 1e-12


def test_random_mdp_seed_determinism():
    a = random_tabular_mdp(5, 2, seed=4)
    b = random_tabular_mdp(5, 2, seed=4)
    c = random_tabular_mdp(5, 2, seed=5)
    assert np.array_equal(a.transition, b.transition)
    assert np.array_equal(a.reward, b.reward)
    assert not np.array_equal(a.transition, c.transition)


# (seed, S, A) -> SHA-256 over transition, reward and start bytes.
RANDOM_MDP_DIGESTS = {
    (0, 30, 3): "58dbad141b1743cc11b89823673ba33034ee55798e5e824b6e017b518397af37",
    (1, 4, 2): "1d127dab3b4be605fac0d21e28f1c934e670c47acb78b56ca9e134f166ea8ea6",
    (2, 7, 1): "e0320417f5761ac9787d0c6d4397dd13eda25b427d9e7a59b9410132d18c533a",
}


@pytest.mark.parametrize("seed,S,A", sorted(RANDOM_MDP_DIGESTS))
def test_random_mdp_bytes_are_pinned(seed, S, A):
    mdp = random_tabular_mdp(S, A, seed=seed)
    h = hashlib.sha256()
    for arr in (mdp.transition, mdp.reward, mdp.start):
        h.update(f"{arr.dtype.str}{arr.shape}".encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    assert h.hexdigest() == RANDOM_MDP_DIGESTS[seed, S, A]


def test_random_mdp_rejects_tiny_spaces():
    with pytest.raises(ValueError):
        random_tabular_mdp(1, 2, seed=0)
    with pytest.raises(ValueError):
        random_tabular_mdp(3, 0, seed=0)


# ---------------------------------------------------------------------------
# scripted controllers


def test_scripted_policies_are_one_hot():
    for name in CONTROL_NAMES:
        env = infinite_horizon(classic_control(name))
        pol = scripted_near_optimal(name)
        traj = sample_env_trajectory(env, pol, 50, seed=3)
        for state in traj.states:
            row = pol.action_probabilities(state)
            assert sorted(row) == [0.0] * (env.num_actions - 1) + [1.0]


def episode_lengths(env, policy, episodes, cap, seed):
    lengths = []
    for i in range(episodes):
        traj = sample_env_trajectory(env, policy, cap, seed=seed + i)
        lengths.append(len(traj))
    return np.array(lengths, dtype=np.float64)


def test_cartpole_scripted_balances_far_longer_than_random():
    env = classic_control("cartpole")
    scripted = episode_lengths(env, scripted_near_optimal("cartpole"), 5, 1000, seed=100)
    random_ = episode_lengths(env, UniformPolicy(2), 20, 1000, seed=100)
    assert scripted.mean() >= 100.0
    assert random_.mean() <= 40.0


def starting_at(env, state):
    """A fake of `env` whose reset always returns `state`."""
    return dataclasses.replace(env, reset_fn=lambda rng: np.asarray(state, dtype=np.float64))


def test_mountain_car_scripted_reaches_goal_quickly():
    env = classic_control("mountain_car")
    pol = scripted_near_optimal("mountain_car")
    # from the canonical fixed start and from seeded default starts
    traj = sample_env_trajectory(starting_at(env, [-0.5, 0.0]), pol, 500, seed=0)
    assert traj.rewards[-1] == 100.0 and len(traj) <= 500
    for seed in range(3):
        traj = sample_env_trajectory(env, pol, 500, seed=seed)
        assert traj.rewards[-1] == 100.0 and len(traj) <= 500


def test_pendulum_scripted_beats_random_by_wide_margin():
    env = classic_control("pendulum")
    scripted = sample_env_trajectory(env, scripted_near_optimal("pendulum"), 2000, seed=8)
    random_ = sample_env_trajectory(env, UniformPolicy(5), 2000, seed=8)
    assert scripted.mean_reward() >= -0.5
    assert random_.mean_reward() <= -4.0
    assert abs(random_.mean_reward()) >= 2 * abs(scripted.mean_reward())


def test_acrobot_scripted_beats_random_by_wide_margin():
    env = classic_control("acrobot")
    pol = scripted_near_optimal("acrobot")
    hang = np.array([1.0, 0.0, 1.0, 0.0, 0.0, 0.05])
    traj = sample_env_trajectory(starting_at(env, hang), pol, 300, seed=0)
    assert traj.rewards[-1] == 100.0 and len(traj) <= 300  # reaches the goal
    wrapped = infinite_horizon(env)
    scripted = sample_env_trajectory(wrapped, pol, 2000, seed=8)
    random_ = sample_env_trajectory(wrapped, UniformPolicy(3), 2000, seed=8)
    assert scripted.mean_reward() >= 0.0 > random_.mean_reward()
    assert abs(random_.mean_reward()) >= 2 * abs(scripted.mean_reward())


# ---------------------------------------------------------------------------
# helpers and constants file


def test_sample_env_dataset_shapes_and_determinism():
    env = infinite_horizon(classic_control("cartpole"))
    pol = UniformPolicy(2)
    ds = sample_env_dataset(env, pol, 3, 40, seed=6)
    assert len(ds) == 120
    assert ds.traj_starts.tolist() == [0, 40, 80]
    assert ds.states.shape == (120, 4)
    ds2 = sample_env_dataset(env, pol, 3, 40, seed=6)
    assert np.array_equal(ds.states, ds2.states)
    assert not ds.is_tabular


def test_constants_file_is_complete_and_finite():
    # every constant the dynamics read is present, numeric, and finite
    for key, value in CONSTANTS.items():
        group, _, name = key.partition(".")
        assert group in CONTROL_NAMES, key
        values = value if isinstance(value, (list, tuple, np.ndarray)) else [value]
        assert all(math.isfinite(float(v)) for v in values), key
    for prefix in CONTROL_NAMES:
        assert any(k.startswith(prefix + ".") for k in CONSTANTS), prefix


# ---------------------------------------------------------------------------
# the samplers against the numpy-per-step reference


def scripted_pair(name):
    """The package's scripted policy and the reference's (only pendulum's differs)."""
    scripted = scripted_near_optimal(name)
    return scripted, sampler_reference.pendulum_policy() if name == "pendulum" else scripted


@pytest.mark.parametrize("name", CONTROL_NAMES)
@pytest.mark.parametrize("alpha", [0.9, 0.3])
def test_samplers_match_the_numpy_reference_bit_for_bit(name, alpha):
    env = infinite_horizon(classic_control(name))
    scripted, reference_scripted = scripted_pair(name)
    uniform = UniformPolicy(env.num_actions)
    policy = MixedPolicy(scripted, uniform, alpha)
    reference = MixedPolicy(reference_scripted, uniform, alpha)
    for seed in (0, 1, 17):
        traj = sample_env_trajectory(env, policy, 300, seed)
        states, actions, rewards = sampler_reference.trajectory(env, reference, 300, seed)
        assert np.array_equal(traj.states, states)
        assert np.array_equal(traj.actions, actions)
        assert np.array_equal(traj.rewards, rewards)
        log = sample_env_dataset(env, policy, 3, 100, seed)
        expected = sampler_reference.dataset(env, reference, 3, 100, seed)
        got = (log.states, log.actions, log.rewards, log.next_states, log.traj_starts)
        for a, b in zip(got, expected):
            assert a.dtype == b.dtype and np.array_equal(a, b)


def test_reference_cartpole_log_covers_falls_and_terminal_stops():
    # falls reset inside a step, so those steps draw the reset from the same stream
    env = infinite_horizon(classic_control("cartpole"))
    policy = MixedPolicy(scripted_near_optimal("cartpole"), UniformPolicy(2), 0.3)
    log = sample_env_dataset(env, policy, 3, 200, seed=4)
    expected = sampler_reference.dataset(env, policy, 3, 200, seed=4)
    assert np.count_nonzero(expected[2] == CONSTANTS["cartpole.fall_reward"]) >= 3
    assert all(np.array_equal(a, b) for a, b in
               zip((log.states, log.actions, log.rewards, log.next_states), expected))
    # an unwrapped env stops at its first fall, in both samplers
    bare = classic_control("cartpole")
    traj = sample_env_trajectory(bare, policy, 500, seed=4)
    states, actions, rewards = sampler_reference.trajectory(bare, policy, 500, seed=4)
    assert len(traj) < 500 and traj.rewards[-1] == CONSTANTS["cartpole.fall_reward"]
    assert np.array_equal(traj.states, states) and np.array_equal(traj.actions, actions)


def test_pendulum_rule_picks_the_nearest_torque_first_on_a_tie():
    scripted = scripted_near_optimal("pendulum")
    rng = make_rng(9)
    states = np.column_stack([rng.uniform(-4.0, 4.0, 2000), rng.uniform(-9.0, 9.0, 2000)])
    # near the top u = -8 th - 2 om; om = -u / 2 at th = 0 puts u halfway between torques
    ties = [[0.0, -u / 2.0] for u in (-1.5, -0.5, 0.5, 1.5, 0.25, 3.0, -3.0)]
    for state in np.concatenate([states, ties]):
        assert np.array_equal(scripted.fn(state), sampler_reference.pendulum_rule(state))
    assert scripted.fn(np.array([0.0, -0.25])).tolist() == [0.0, 0.0, 1.0, 0.0, 0.0]


def test_one_step_is_one_policy_call_and_one_env_step(monkeypatch):
    """perfbench reads `envs.steps` and `mdp.policy.action_probabilities.calls`
    as one per simulated step; both count the outermost call only."""
    from bbope import envs, mdp

    calls = {"step": 0, "policy": 0}
    depth = [0]

    def counting_policy(original):
        def action_probabilities(self, state):
            calls["policy"] += depth[0] == 0
            depth[0] += 1
            try:
                return original(self, state)
            finally:
                depth[0] -= 1
        return action_probabilities

    for cls in (mdp.TabularPolicy, mdp.FunctionPolicy, mdp.UniformPolicy, mdp.MixedPolicy):
        monkeypatch.setattr(cls, "action_probabilities", counting_policy(cls.action_probabilities))
    step = envs.ContinuousEnv.step

    def counting_step(self, *args, **kwargs):
        calls["step"] += 1
        return step(self, *args, **kwargs)

    monkeypatch.setattr(envs.ContinuousEnv, "step", counting_step)
    env = infinite_horizon(classic_control("cartpole"))
    policy = MixedPolicy(scripted_near_optimal("cartpole"), UniformPolicy(2), 0.5)
    log = sample_env_dataset(env, policy, 3, 50, seed=2)
    assert len(log) == 150
    assert calls == {"step": 150, "policy": 150}


def test_perfbench_tracer_targets_still_exist():
    """Every attribute perfbench's tracer wraps is still defined on its owner."""
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = tracing.bbope_targets()
    names = {name for name, _, _, _ in targets}
    assert {"envs.steps", "mdp.policy.action_probabilities", "envs.sample_env_trajectory"} <= names
    for name, owner, attribute, _ in targets:
        assert callable(vars(owner).get(attribute)), name
