"""The per-step continuous sampler written with numpy on every step.

This is the rule the package's samplers must reproduce byte for byte:
the policy row comes from ``prob_matrix([s])[0]`` and the action from
``np.cumsum`` plus ``np.searchsorted(side="left")`` over one
``rng.random()`` draw.  ``pendulum_rule`` is the scripted pendulum
controller with its nearest torque picked by ``np.argmin``.
"""

import math

import numpy as np

from bbope.envs import _C, _wrap_angle
from bbope.mdp import FunctionPolicy
from bbope.rng import derive_seed, make_rng

_TORQUES = np.array(_C["pendulum.torques"])
_UPRIGHT_POT = 3.0 * _C["pendulum.gravity"] / (2.0 * _C["pendulum.length"])


def pendulum_rule(state):
    th, om = _wrap_angle(state[0]), state[1]
    if math.cos(th) > 0.9:
        u = -8.0 * th - 2.0 * om  # linear capture near the top
    else:
        energy = 0.5 * om**2 + _UPRIGHT_POT * math.cos(th)
        gap = _UPRIGHT_POT - energy
        direction = om if abs(om) > 1e-3 else 1.0
        u = _TORQUES[-1] * math.copysign(1.0, direction * gap)
    idx = int(np.argmin(np.abs(_TORQUES - u)))
    out = np.zeros(len(_TORQUES))
    out[idx] = 1.0
    return out


def pendulum_policy():
    return FunctionPolicy(pendulum_rule, len(_TORQUES), name="scripted-pendulum")


def draw(rng, probs):
    probs = np.asarray(probs, dtype=np.float64)
    cdf = np.cumsum(probs)
    if abs(cdf[-1] - 1.0) > 1e-9:
        raise ValueError(f"probabilities sum to {cdf[-1]!r}, not 1")
    u = rng.random()
    idx = int(np.searchsorted(cdf, u, side="left"))
    return min(idx, len(probs) - 1)


def trajectory(env, policy, length, seed):
    """(states, actions, rewards) of one rollout, stopping at termination."""
    rng = make_rng(seed)
    s = env.reset(rng)
    states, actions, rewards = [s], [], []
    for _ in range(length):
        a = draw(rng, policy.prob_matrix([s])[0])
        s, r, done = env.step(s, a, rng)
        states.append(s)
        actions.append(a)
        rewards.append(r)
        if done:
            break
    return np.stack(states), np.array(actions, dtype=np.int64), np.array(rewards, dtype=np.float64)


def dataset(env, policy, num_trajectories, length, seed):
    """(states, actions, rewards, next_states, traj_starts) of the pooled rollouts."""
    parts = [trajectory(env, policy, length, derive_seed(seed, "traj", i))
             for i in range(num_trajectories)]
    starts = np.cumsum([0] + [len(a) for _, a, _ in parts[:-1]])
    return (
        np.concatenate([s[:-1] for s, _, _ in parts]),
        np.concatenate([a for _, a, _ in parts]),
        np.concatenate([r for _, _, r in parts]),
        np.concatenate([s[1:] for s, _, _ in parts]),
        starts.astype(np.int64),
    )
