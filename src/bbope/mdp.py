"""Tabular MDPs, policies, trajectories, and transition datasets.

States are either integer ids (tabular) or fixed-length float vectors
(continuous control); actions are always integer ids into a finite set.
Datasets are behavior-agnostic: they carry no behavior-policy field, only
the logged transitions and trajectory boundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .rng import make_rng, categorical_rows

__all__ = [
    "TabularMdp",
    "TabularPolicy",
    "FunctionPolicy",
    "UniformPolicy",
    "MixedPolicy",
    "PolicyStateError",
    "Trajectory",
    "TransitionDataset",
    "sample_trajectory",
    "sample_dataset",
    "dataset_from_trajectories",
    "discount_to_average",
    "mix_policies",
]


class PolicyStateError(ValueError):
    """Raised when a policy is queried at a state it is not defined for."""

    def __init__(self, state, detail=""):
        self.state = state
        msg = f"policy undefined for state {state!r}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


@dataclass(frozen=True)
class TabularMdp:
    """Finite MDP with deterministic rewards.

    transition[s, a, s'] is the probability of landing in s' after taking
    action a in state s; rows are validated to sum to 1 within 1e-9 and
    then normalized exactly once so downstream fixed-point algebra sees
    rows that sum to 1.0 in float64.  reward[s, a] is the immediate
    (expected) reward.  start[s] is the initial-state distribution.
    discount is None for the average-reward setting, or a value in (0, 1)
    for the discounted setting.
    """

    transition: np.ndarray
    reward: np.ndarray
    start: np.ndarray
    discount: float | None = None

    def __post_init__(self):
        P = np.asarray(self.transition, dtype=np.float64)
        R = np.asarray(self.reward, dtype=np.float64)
        p0 = np.asarray(self.start, dtype=np.float64)
        if P.ndim != 3 or P.shape[0] != P.shape[2]:
            raise ValueError(f"transition must have shape (S, A, S), got {P.shape}")
        S, A = P.shape[0], P.shape[1]
        if R.shape != (S, A):
            raise ValueError(f"reward must have shape ({S}, {A}), got {R.shape}")
        if p0.shape != (S,):
            raise ValueError(f"start must have shape ({S},), got {p0.shape}")
        for name, arr in (("transition", P), ("reward", R), ("start", p0)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} has non-finite entries")
        if np.any(P < 0) or np.any(p0 < 0):
            raise ValueError("probabilities must be non-negative")
        rowsums = P.sum(axis=2)
        if np.any(np.abs(rowsums - 1.0) > 1e-9):
            worst = np.abs(rowsums - 1.0).max()
            raise ValueError(f"transition rows must sum to 1 within 1e-9 (off by {worst:g})")
        if abs(p0.sum() - 1.0) > 1e-9:
            raise ValueError(f"start distribution sums to {p0.sum()!r}")
        if self.discount is not None and not (0.0 <= self.discount < 1.0):
            raise ValueError(f"discount must be in [0, 1), got {self.discount}")
        object.__setattr__(self, "transition", P / rowsums[:, :, None])
        object.__setattr__(self, "reward", R)
        object.__setattr__(self, "start", p0 / p0.sum())

    @property
    def num_states(self):
        return self.transition.shape[0]

    @property
    def num_actions(self):
        return self.transition.shape[1]


def _check_prob_rows(rows, what):
    """Check float64 (n, A) probability rows and clip them at 0; what(i) names a bad row i."""
    totals = rows.sum(axis=1)
    ok = (np.abs(totals - 1.0) <= 1e-9) & (rows.min(axis=1) >= -1e-12)  # NaN fails both
    if not ok.all():
        i = int(np.argmin(ok))
        if not math.isfinite(totals[i]):  # a NaN or infinite entry makes the sum non-finite
            problem = "has non-finite entries"
        elif rows[i].min() < -1e-12:
            problem = "has negative entries"
        else:
            problem = f"sums to {totals[i]!r}, not 1"
        raise ValueError(f"{what(i)} {problem}")
    return np.maximum(rows, 0.0)


class TabularPolicy:
    """Stochastic policy over a finite state space, stored as a table."""

    def __init__(self, table):
        table = np.array(table, dtype=np.float64)
        if table.ndim != 2:
            raise ValueError(f"policy table must be (num_states, num_actions), got shape {table.shape}")
        self.table = _check_prob_rows(table, lambda s: f"policy row for state {s}")

    @property
    def num_actions(self):
        return self.table.shape[1]

    @property
    def num_states(self):
        return self.table.shape[0]

    def action_probabilities(self, state):
        s = int(state)
        if not 0 <= s < self.table.shape[0]:
            raise PolicyStateError(state, f"table has {self.table.shape[0]} states")
        return self.table[s]

    def prob_matrix(self, states):
        states = np.asarray(states)
        if states.size and (states.min() < 0 or states.max() >= self.table.shape[0]):
            bad = states[(states < 0) | (states >= self.table.shape[0])][0]
            raise PolicyStateError(int(bad), f"table has {self.table.shape[0]} states")
        return self.table[states]


class FunctionPolicy:
    """Policy given by a rule mapping a state vector to action probabilities."""

    def __init__(self, fn, num_actions, name="function-policy"):
        self.fn = fn
        self._num_actions = int(num_actions)
        self.name = name

    @property
    def num_actions(self):
        return self._num_actions

    def action_probabilities(self, state):
        """``prob_matrix([state])[0]``, checked in Python floats (the per-step sampler's path)."""
        row = np.asarray(self.fn(state), dtype=np.float64)
        if row.shape != (self._num_actions,):
            raise PolicyStateError(state, f"rule returned shape {row.shape}")
        probs = row.tolist()
        if len(probs) < 8:  # numpy sums fewer than 8 entries left to right, as here
            total = 0.0
            for p in probs:
                total += p
            if abs(total - 1.0) <= 1e-9 and min(probs) >= -1e-12:  # NaN fails the first
                return np.array([p if p > 0.0 else 0.0 for p in probs])
        # a failing row, or 8+ actions: numpy's check raises or clips, as in prob_matrix
        return _check_prob_rows(row[None, :], lambda i: f"{self.name} output at {state!r}")[0]

    def prob_matrix(self, states):
        rows = [np.asarray(self.fn(s), dtype=np.float64) for s in states]
        for s, row in zip(states, rows):
            if row.shape != (self._num_actions,):
                raise PolicyStateError(s, f"rule returned shape {row.shape}")
        return _check_prob_rows(np.stack(rows), lambda i: f"{self.name} output at {states[i]!r}")


class UniformPolicy:
    """Uniform-random policy over a finite action set; state kind agnostic."""

    def __init__(self, num_actions):
        self._num_actions = int(num_actions)

    @property
    def num_actions(self):
        return self._num_actions

    def action_probabilities(self, state):
        return np.full(self._num_actions, 1.0 / self._num_actions)

    def prob_matrix(self, states):
        n = len(states)
        return np.full((n, self._num_actions), 1.0 / self._num_actions)


class MixedPolicy:
    """Convex combination  alpha * first + (1 - alpha) * second."""

    def __init__(self, first, second, alpha):
        if first.num_actions != second.num_actions:
            raise ValueError(
                f"action sets differ: {first.num_actions} vs {second.num_actions}"
            )
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {alpha}")
        self.first = first
        self.second = second
        self.alpha = float(alpha)

    @property
    def num_actions(self):
        return self.first.num_actions

    def action_probabilities(self, state):
        a = self.alpha
        return a * self.first.action_probabilities(state) + (1.0 - a) * self.second.action_probabilities(state)

    def prob_matrix(self, states):
        a = self.alpha
        return a * self.first.prob_matrix(states) + (1.0 - a) * self.second.prob_matrix(states)


def mix_policies(first, second, alpha):
    """Mix two policies; tabular pairs collapse to a plain table."""
    if isinstance(first, TabularPolicy) and isinstance(second, TabularPolicy):
        if first.table.shape != second.table.shape:
            raise ValueError(
                f"policy tables differ in shape: {first.table.shape} vs {second.table.shape}"
            )
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {alpha}")
        return TabularPolicy(alpha * first.table + (1.0 - alpha) * second.table)
    return MixedPolicy(first, second, alpha)


@dataclass
class Trajectory:
    """A rollout: states has one more entry than actions/rewards."""

    states: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray

    def __post_init__(self):
        if len(self.states) != len(self.actions) + 1 or len(self.rewards) != len(self.actions):
            raise ValueError(
                "a trajectory needs one more state than actions and one reward per action; "
                f"got {len(self.states)} states, {len(self.actions)} actions, "
                f"{len(self.rewards)} rewards"
            )

    def __len__(self):
        return len(self.actions)

    @property
    def final_state(self):
        return self.states[-1]

    def mean_reward(self):
        return float(np.mean(self.rewards))


@dataclass
class TransitionDataset:
    """Flat arrays of logged transitions plus trajectory boundaries.

    states / next_states: (n,) int array for tabular data or (n, d) float
    array for continuous data.  traj_starts holds the index of each
    trajectory's first transition (always starting with 0).
    """

    states: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    next_states: np.ndarray
    traj_starts: np.ndarray = field(default=None)

    def __post_init__(self):
        n = len(self.actions)
        if not len(self.states) == len(self.rewards) == len(self.next_states) == n:
            raise ValueError(
                "states, actions, rewards and next_states need one entry per transition; "
                f"got {len(self.states)}, {n}, {len(self.rewards)} and {len(self.next_states)}"
            )
        if self.traj_starts is None:
            self.traj_starts = np.array([0], dtype=np.int64)
        self.traj_starts = np.asarray(self.traj_starts, dtype=np.int64)
        starts = self.traj_starts
        if not (len(starts) and starts[0] == 0 and starts[-1] < max(n, 1) and np.all(np.diff(starts) > 0)):
            raise ValueError(
                f"traj_starts must begin at 0 and strictly increase below the {n} transitions; "
                f"got {starts}" if n else f"an empty log has traj_starts [0]; got {starts}"
            )

    def __len__(self):
        return len(self.actions)

    @property
    def is_tabular(self):
        return np.issubdtype(np.asarray(self.states).dtype, np.integer)

    @property
    def num_trajectories(self):
        return len(self.traj_starts)

    def final_indices(self):
        """Index of the last transition of each trajectory."""
        n = len(self)
        return np.concatenate([self.traj_starts[1:] - 1, [n - 1]]).astype(np.int64)

    def visit_states(self):
        """All visited states, finals included: T+1 entries per trajectory."""
        finals = self.next_states[self.final_indices()]
        return np.concatenate([self.states, finals], axis=0)


def dataset_from_trajectories(trajectories):
    """Concatenate trajectories into a TransitionDataset (order preserved)."""
    trajectories = list(trajectories)
    if not trajectories:
        raise ValueError("need at least one trajectory")
    states, actions, rewards, nexts, starts = [], [], [], [], []
    offset = 0
    for tr in trajectories:
        if len(tr) == 0:
            raise ValueError("empty trajectory")
        starts.append(offset)
        states.append(np.asarray(tr.states[:-1]))
        nexts.append(np.asarray(tr.states[1:]))
        actions.append(np.asarray(tr.actions))
        rewards.append(np.asarray(tr.rewards))
        offset += len(tr)
    return TransitionDataset(
        states=np.concatenate(states, axis=0),
        actions=np.concatenate(actions, axis=0).astype(np.int64),
        rewards=np.concatenate(rewards, axis=0).astype(np.float64),
        next_states=np.concatenate(nexts, axis=0),
        traj_starts=np.array(starts, dtype=np.int64),
    )


def sample_trajectory(mdp, policy, length, seed):
    """Roll out `length` transitions from a tabular MDP under `policy`.

    The one-trajectory case of :func:`sample_dataset`: the start state is
    drawn from the MDP's start distribution, and the same arguments
    always produce the same trajectory.
    """
    ds = sample_dataset(mdp, policy, 1, length, seed)
    return Trajectory(states=ds.visit_states(), actions=ds.actions, rewards=ds.rewards)


def sample_dataset(mdp, policy, num_trajectories, length, seed, total_budget=None):
    """Sample many equal-length trajectories in lockstep and pool them.

    Draws are consumed step-major (all trajectories advance together), so
    the result is deterministic in (mdp, policy, shape, seed) regardless
    of how the caller later splits the data.  The pooled log lists the
    trajectories one after another.  If ``total_budget`` is given, the
    last trajectory is truncated so the pooled transition count equals
    the budget exactly.
    """
    m, T = int(num_trajectories), int(length)
    if m < 1 or T < 1:
        raise ValueError("need num_trajectories >= 1 and length >= 1")
    if total_budget is not None and not (m - 1) * T < total_budget <= m * T:
        raise ValueError(f"budget {total_budget} unreachable with {m} x {T}")
    rng = make_rng(seed)
    u0 = rng.random(m)
    cdf0 = np.cumsum(mdp.start)
    cur = np.searchsorted(cdf0, u0, side="left").clip(max=mdp.num_states - 1).astype(np.int64)
    states = np.empty((m, T + 1), dtype=np.int64)
    actions = np.empty((m, T), dtype=np.int64)
    states[:, 0] = cur
    for t in range(T):
        acts = categorical_rows(rng, policy.prob_matrix(cur))
        nxt = categorical_rows(rng, mdp.transition[cur, acts])
        actions[:, t] = acts
        states[:, t + 1] = nxt
        cur = nxt.astype(np.int64)
    n = m * T if total_budget is None else int(total_budget)
    sources = states[:, :-1].reshape(-1)[:n]
    actions = actions.reshape(-1)[:n]
    return TransitionDataset(
        states=sources,
        actions=actions,
        rewards=mdp.reward[sources, actions],
        next_states=states[:, 1:].reshape(-1)[:n],
        traj_starts=np.arange(0, n, T, dtype=np.int64),
    )


def discount_to_average(mdp, discount=None):
    """Rewrite a discounted MDP as an average-reward MDP.

    Every action's outcome becomes a coin flip: with probability gamma
    the original transition fires, with probability 1 - gamma the process
    restarts from the start distribution.  The rewritten MDP's long-run
    average reward equals the original MDP's discounted value normalized
    by 1/(1 - gamma) -- i.e. exactly what `oracle.exact_discounted_value`
    returns -- so one estimator family covers both reward criteria.
    """
    gamma = mdp.discount if discount is None else float(discount)
    if gamma is None:
        raise ValueError("no discount given and the MDP carries none")
    if not 0.0 <= gamma < 1.0:
        raise ValueError(f"discount must be in [0, 1), got {gamma}")
    P = gamma * mdp.transition + (1.0 - gamma) * mdp.start[None, None, :]
    return TabularMdp(transition=P, reward=mdp.reward.copy(), start=mdp.start.copy(), discount=None)
