"""Benchmark environments: ModelWin and four classic-control tasks.

The control tasks follow the canonical published dynamics; every physical
parameter is read from ``data/control_constants.txt`` so the numbers are
inspectable (and changeable) without touching code.  Episodic tasks are
made infinite-horizon for the average-reward setting by resetting inside
the step: see :func:`infinite_horizon`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .mdp import TabularMdp, TabularPolicy, FunctionPolicy, Trajectory, dataset_from_trajectories
from .rng import make_rng, categorical, derive_seed

__all__ = [
    "ContinuousEnv",
    "model_win",
    "model_win_policy",
    "classic_control",
    "infinite_horizon",
    "random_tabular_mdp",
    "scripted_near_optimal",
    "sample_env_trajectory",
    "sample_env_dataset",
    "CONTROL_NAMES",
]


def _load_constants():
    text = resources.files("bbope").joinpath("data/control_constants.txt").read_text()
    table = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        value = value.strip()
        if "," in value:
            table[key.strip()] = tuple(float(v) for v in value.split(","))
        else:
            table[key.strip()] = float(value)
    return table


_C = _load_constants()


@dataclass(frozen=True)
class ContinuousEnv:
    """A continuous-state environment with a finite action set.

    step_fn(state, action_index, rng) -> (next_state, reward, terminated);
    reset_fn(rng) -> state.  The rng argument exists so wrappers can draw
    reset states inside a step; the bare dynamics here are deterministic.
    """

    name: str
    state_dim: int
    num_actions: int
    step_fn: object
    reset_fn: object

    def step(self, state, action, rng=None):
        return self.step_fn(np.asarray(state, dtype=np.float64), int(action), rng)

    def reset(self, rng):
        return self.reset_fn(rng)


# ---------------------------------------------------------------------------
# ModelWin


def model_win(win_probability=0.4):
    """Three-state MDP: a hub state with two gambles, two zero-reward returns.

    From the hub, the first action wins (+1) with probability p and loses
    (-1) otherwise; the second action flips those odds.  Side states lead
    back to the hub deterministically with no reward.  Rewards are stored
    as their expectations, so R[hub, 0] = 2p - 1 and R[hub, 1] = 1 - 2p.
    """
    p = float(win_probability)
    if not 0.0 < p < 1.0:
        raise ValueError(f"win probability must be strictly inside (0, 1), got {p}")
    P = np.zeros((3, 2, 3))
    P[0, 0] = (0.0, p, 1.0 - p)
    P[0, 1] = (0.0, 1.0 - p, p)
    P[1, :, 0] = 1.0
    P[2, :, 0] = 1.0
    R = np.zeros((3, 2))
    R[0, 0] = 2.0 * p - 1.0
    R[0, 1] = 1.0 - 2.0 * p
    start = np.array([1.0, 0.0, 0.0])
    return TabularMdp(transition=P, reward=R, start=start)


def model_win_policy(hub_first_action_prob):
    """Policy that plays the hub's first action with the given probability.

    Both actions are equivalent away from the hub, so those rows are
    uniform for every policy in the family (the target uses 0.9, the
    behavior 0.7).
    """
    q = float(hub_first_action_prob)
    return TabularPolicy([[q, 1.0 - q], [0.5, 0.5], [0.5, 0.5]])


# ---------------------------------------------------------------------------
# Classic control dynamics


def _wrap_angle(x):
    return (x + math.pi) % (2.0 * math.pi) - math.pi


def pendulum():
    g = _C["pendulum.gravity"]
    m = _C["pendulum.mass"]
    l = _C["pendulum.length"]
    dt = _C["pendulum.dt"]
    max_speed = _C["pendulum.max_speed"]
    torques = np.array(_C["pendulum.torques"])
    c_th, c_om, c_u = _C["pendulum.angle_cost"], _C["pendulum.speed_cost"], _C["pendulum.torque_cost"]

    def step(state, action, rng):
        th, om = state
        u = torques[action]
        reward = -(c_th * _wrap_angle(th) ** 2 + c_om * om**2 + c_u * u**2)
        om2 = om + (3.0 * g / (2.0 * l) * math.sin(th) + 3.0 * u / (m * l**2)) * dt
        om2 = min(max(om2, -max_speed), max_speed)
        th2 = _wrap_angle(th + om2 * dt)
        return np.array([th2, om2]), float(reward), False

    def reset(rng):
        th = rng.uniform(-_C["pendulum.start_angle"], _C["pendulum.start_angle"])
        om = rng.uniform(-_C["pendulum.start_speed"], _C["pendulum.start_speed"])
        return np.array([th, om])

    return ContinuousEnv("pendulum", 2, len(torques), step, reset)


def mountain_car():
    force = _C["mountain_car.force"]
    grav = _C["mountain_car.gravity"]
    lo, hi = _C["mountain_car.min_position"], _C["mountain_car.max_position"]
    vmax = _C["mountain_car.max_speed"]
    goal = _C["mountain_car.goal_position"]

    def step(state, action, rng):
        x, v = state
        v = v + (action - 1) * force - math.cos(3.0 * x) * grav
        v = min(max(v, -vmax), vmax)
        x = min(max(x + v, lo), hi)
        if x <= lo and v < 0.0:
            v = 0.0
        done = x >= goal
        reward = _C["mountain_car.goal_reward"] if done else _C["mountain_car.step_reward"]
        return np.array([x, v]), float(reward), bool(done)

    def reset(rng):
        return np.array([rng.uniform(_C["mountain_car.start_low"], _C["mountain_car.start_high"]), 0.0])

    return ContinuousEnv("mountain_car", 2, 3, step, reset)


def cartpole():
    g = _C["cartpole.gravity"]
    mc = _C["cartpole.cart_mass"]
    mp = _C["cartpole.pole_mass"]
    half = _C["cartpole.pole_half_length"]
    force_mag = _C["cartpole.force"]
    dt = _C["cartpole.dt"]
    th_lim = _C["cartpole.angle_limit"]
    x_lim = _C["cartpole.position_limit"]
    total = mc + mp
    ml = mp * half

    def step(state, action, rng):
        x, xd, th, thd = state
        force = force_mag if action == 1 else -force_mag
        costh, sinth = math.cos(th), math.sin(th)
        temp = (force + ml * thd**2 * sinth) / total
        thacc = (g * sinth - costh * temp) / (half * (4.0 / 3.0 - mp * costh**2 / total))
        xacc = temp - ml * thacc * costh / total
        x, xd = x + dt * xd, xd + dt * xacc
        th, thd = th + dt * thd, thd + dt * thacc
        done = abs(x) > x_lim or abs(th) > th_lim
        reward = _C["cartpole.fall_reward"] if done else _C["cartpole.step_reward"]
        return np.array([x, xd, th, thd]), float(reward), bool(done)

    def reset(rng):
        r = _C["cartpole.start_range"]
        return rng.uniform(-r, r, size=4)

    return ContinuousEnv("cartpole", 4, 2, step, reset)


def acrobot():
    m1, m2 = _C["acrobot.link_mass_1"], _C["acrobot.link_mass_2"]
    l1 = _C["acrobot.link_length_1"]
    lc1, lc2 = _C["acrobot.link_com_1"], _C["acrobot.link_com_2"]
    i1, i2 = _C["acrobot.link_inertia_1"], _C["acrobot.link_inertia_2"]
    g = _C["acrobot.gravity"]
    dt = _C["acrobot.dt"]
    v1max, v2max = _C["acrobot.max_velocity_1"], _C["acrobot.max_velocity_2"]
    torques = np.array(_C["acrobot.torques"])
    goal_h = _C["acrobot.goal_height"]

    def dynamics(y, tau):
        th1, th2, dth1, dth2 = y
        d1 = m1 * lc1**2 + m2 * (l1**2 + lc2**2 + 2 * l1 * lc2 * math.cos(th2)) + i1 + i2
        d2 = m2 * (lc2**2 + l1 * lc2 * math.cos(th2)) + i2
        phi2 = m2 * lc2 * g * math.cos(th1 + th2 - math.pi / 2)
        phi1 = (
            -m2 * l1 * lc2 * dth2**2 * math.sin(th2)
            - 2 * m2 * l1 * lc2 * dth2 * dth1 * math.sin(th2)
            + (m1 * lc1 + m2 * l1) * g * math.cos(th1 - math.pi / 2)
            + phi2
        )
        ddth2 = (tau + d2 / d1 * phi1 - m2 * l1 * lc2 * dth1**2 * math.sin(th2) - phi2) / (
            m2 * lc2**2 + i2 - d2**2 / d1
        )
        ddth1 = -(d2 * ddth2 + phi1) / d1
        return np.array([dth1, dth2, ddth1, ddth2])

    def observe(y):
        th1, th2, dth1, dth2 = y
        return np.array(
            [math.cos(th1), math.sin(th1), math.cos(th2), math.sin(th2), dth1, dth2]
        )

    def internal(state):
        th1 = math.atan2(state[1], state[0])
        th2 = math.atan2(state[3], state[2])
        return np.array([th1, th2, state[4], state[5]])

    def step(state, action, rng):
        y = internal(state)
        tau = torques[action]
        # one RK4 step over the full dt
        k1 = dynamics(y, tau)
        k2 = dynamics(y + 0.5 * dt * k1, tau)
        k3 = dynamics(y + 0.5 * dt * k2, tau)
        k4 = dynamics(y + dt * k3, tau)
        y = y + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        y[0] = _wrap_angle(y[0])
        y[1] = _wrap_angle(y[1])
        y[2] = min(max(y[2], -v1max), v1max)
        y[3] = min(max(y[3], -v2max), v2max)
        done = -math.cos(y[0]) - math.cos(y[1] + y[0]) > goal_h
        reward = _C["acrobot.goal_reward"] if done else _C["acrobot.step_reward"]
        return observe(y), float(reward), bool(done)

    def reset(rng):
        r = _C["acrobot.start_range"]
        return observe(rng.uniform(-r, r, size=4))

    return ContinuousEnv("acrobot", 6, len(torques), step, reset)


_BUILDERS = {
    "pendulum": pendulum,
    "mountain_car": mountain_car,
    "cartpole": cartpole,
    "acrobot": acrobot,
}
CONTROL_NAMES = tuple(sorted(_BUILDERS))


def classic_control(name):
    """Build one of the four control tasks by name."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown environment {name!r}; choose from {CONTROL_NAMES}")
    return _BUILDERS[name]()


def infinite_horizon(env):
    """Make an episodic task run forever: termination becomes a reset.

    The terminal step's reward is kept (that is where the -100 fall
    penalty or +100 goal bonus lives); the successor state is a fresh
    draw from the start distribution and the terminated flag never
    surfaces.
    """

    def step(state, action, rng):
        nxt, reward, done = env.step_fn(state, action, rng)
        if done:
            if rng is None:
                raise ValueError("infinite-horizon step needs an rng to draw resets")
            nxt = env.reset_fn(rng)
        return nxt, reward, False

    return ContinuousEnv(env.name + "_forever", env.state_dim, env.num_actions, step, env.reset_fn)


# ---------------------------------------------------------------------------
# Scripted controllers standing in for learned policies


def _cartpole_rule(state):
    x, xd, th, thd = state
    push_right = th + 0.5 * thd + 0.05 * x + 0.1 * xd > 0.0
    out = np.zeros(2)
    out[1 if push_right else 0] = 1.0
    return out


def _mountain_car_rule(state):
    out = np.zeros(3)
    out[2 if state[1] >= 0.0 else 0] = 1.0
    return out


_PENDULUM_TORQUES = _C["pendulum.torques"]  # a tuple of floats
_PENDULUM_UPRIGHT_POT = 3.0 * _C["pendulum.gravity"] / (2.0 * _C["pendulum.length"])


def _pendulum_rule(state):
    th, om = _wrap_angle(state[0]), state[1]
    if math.cos(th) > 0.9:
        u = -8.0 * th - 2.0 * om  # linear capture near the top
    else:
        energy = 0.5 * om**2 + _PENDULUM_UPRIGHT_POT * math.cos(th)
        gap = _PENDULUM_UPRIGHT_POT - energy
        direction = om if abs(om) > 1e-3 else 1.0
        u = _PENDULUM_TORQUES[-1] * math.copysign(1.0, direction * gap)
    idx, best = 0, abs(_PENDULUM_TORQUES[0] - u)
    for i, torque in enumerate(_PENDULUM_TORQUES):  # the nearest torque, the first on a tie
        if abs(torque - u) < best:
            idx, best = i, abs(torque - u)
    out = np.zeros(len(_PENDULUM_TORQUES))
    out[idx] = 1.0
    return out


def _acrobot_rule(state):
    # The joint-2 torque does work at rate tau * dtheta2, so torquing along
    # dtheta2 pumps mechanical energy until the tip swings over the goal.
    dth2 = state[5]
    out = np.zeros(3)
    out[2 if dth2 >= 0.0 else 0] = 1.0
    return out


_RULES = {
    "pendulum": _pendulum_rule,
    "mountain_car": _mountain_car_rule,
    "cartpole": _cartpole_rule,
    "acrobot": _acrobot_rule,
}


def scripted_near_optimal(name):
    """Deterministic hand-written controller for a control task.

    These replace learned policies in the benchmark: a PD balance law for
    cart-pole, energy pumping for the swing-up/ascent tasks.  Each one
    beats the uniform-random policy's long-run average reward by a wide,
    tested margin.
    """
    env = classic_control(name)  # validates the name
    return FunctionPolicy(_RULES[name], env.num_actions, name=f"scripted-{name}")


# ---------------------------------------------------------------------------
# Random tabular MDPs and rollout helpers


def random_tabular_mdp(num_states, num_actions, seed):
    """Random ergodic tabular MDP: floored Dirichlet rows, U[-1,1] rewards.

    Every transition probability is at least 1e-3, so the chain is
    irreducible and aperiodic under any policy and exact solves are
    well-conditioned.
    """
    S, A = int(num_states), int(num_actions)
    if S < 2 or A < 1:
        raise ValueError(f"need num_states >= 2 and num_actions >= 1, got {S}, {A}")
    rng = make_rng(seed)
    mix = max(0.01, 1.2 * S * 1e-3)
    P = (1.0 - mix) * rng.dirichlet(np.ones(S), size=(S, A)) + mix / S
    R = rng.uniform(-1.0, 1.0, size=(S, A))
    start = (1.0 - mix) * rng.dirichlet(np.ones(S)) + mix / S
    return TabularMdp(transition=P, reward=R, start=start)


def sample_env_trajectory(env, policy, length, seed):
    """Roll a continuous env under a policy; stops early at termination.

    Wrap the env with :func:`infinite_horizon` first if the rollout must
    run for the full length regardless of terminal events.
    """
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    rng = make_rng(seed)
    s = env.reset(rng)
    states, actions, rewards = [s], [], []
    for _ in range(length):
        a = categorical(rng, policy.action_probabilities(s))
        s, r, done = env.step(s, a, rng)
        states.append(s)
        actions.append(a)
        rewards.append(r)
        if done:
            break
    return Trajectory(
        states=np.stack(states),
        actions=np.array(actions, dtype=np.int64),
        rewards=np.array(rewards, dtype=np.float64),
    )


def sample_env_dataset(env, policy, num_trajectories, length, seed):
    """Pool several infinite-horizon rollouts into a TransitionDataset."""
    trajs = []
    for i in range(int(num_trajectories)):
        trajs.append(sample_env_trajectory(env, policy, length, seed=derive_seed(seed, "traj", i)))
    return dataset_from_trajectories(trajs)
