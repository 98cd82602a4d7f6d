"""Correctness checks that the benchmark computes without bbope.

Every reference here is numpy alone, written from the definitions rather
than from the library's code: the count-based empirical MDP and its
stationary law by a linear solve, the exact average reward of a known
tabular MDP, and the Gaussian flow-discrepancy matrix from the kernel's
definition in float64.  Each ``check_*`` returns a list of problems,
empty when the output passes.
"""

from __future__ import annotations

import numpy as np


def stationary_by_solve(Q):
    """Stationary row vector of a row-stochastic matrix: d Q = d, sum d = 1."""
    m = Q.shape[0]
    system = Q.T - np.eye(m)
    system[-1, :] = 1.0
    rhs = np.zeros(m)
    rhs[-1] = 1.0
    return np.linalg.solve(system, rhs)


def mdp_average_reward(transition, reward, policy_table):
    """Long-run average reward of a tabular MDP under a stationary policy."""
    P_pi = np.einsum("sa,sat->st", policy_table, transition)
    d = stationary_by_solve(P_pi)
    return float(d @ np.sum(policy_table * reward, axis=1))


def empirical_average_reward(states, actions, rewards, next_states, policy_table):
    """Average reward under policy_table of the count-based empirical MDP.

    P(s'|s,a) is the logged frequency of s' after (s, a) and R(s, a) the
    mean logged reward of (s, a).  Every (s, a) pair must be logged.
    """
    S, A = policy_table.shape
    counts = np.zeros((S, A, S))
    np.add.at(counts, (states, actions, next_states), 1.0)
    reward_sum = np.zeros((S, A))
    np.add.at(reward_sum, (states, actions), rewards)
    visits = counts.sum(axis=2)
    if np.any(visits == 0):
        s, a = np.argwhere(visits == 0)[0]
        raise ValueError(f"state-action pair ({s}, {a}) is never logged")
    return mdp_average_reward(counts / visits[:, :, None], reward_sum / visits, policy_table)


def rbf_flow_matrix(states, actions, next_states, pi_next, bandwidth, action_scale,
                    shift, scale):
    """Symmetrized flow-discrepancy matrix of the Gaussian kernel, float64.

    A pair (s, a) is embedded as ((s - shift) / scale, action_scale *
    onehot(a)) and k(x, y) = exp(-|x - y|^2 / (2 bandwidth^2)).  With
    pi_next[j, b] = pi(b | s'_j), entry (i, j) of the combination is

        k(x_i, x_j) - 2 sum_b pi_next[j, b] k(x_i, (s'_j, b))
        + sum_{a, b} pi_next[i, a] pi_next[j, b] k((s'_i, a), (s'_j, b)),

    and the result is its symmetric part.  Distances are taken as direct
    differences, not through the norm expansion the library uses.
    """
    n, A = pi_next.shape
    onehot = np.eye(A) * action_scale

    def embed(s, a):
        return np.concatenate([(np.asarray(s, dtype=np.float64) - shift) / scale, onehot[a]], axis=1)

    def gram(x, y):
        sq = np.sum((x[:, None, :] - y[None, :, :]) ** 2, axis=2)
        return np.exp(-sq / (2.0 * bandwidth**2))

    src = embed(states, actions)
    succ = [embed(next_states, np.full(n, b)) for b in range(A)]
    M = gram(src, src)
    for b in range(A):
        M -= 2.0 * gram(src, succ[b]) * pi_next[None, :, b]
    for a in range(A):
        for b in range(A):
            M += gram(succ[a], succ[b]) * pi_next[:, a][:, None] * pi_next[:, b][None, :]
    return 0.5 * (M + M.T)


def check_close(what, value, reference, tol):
    if not abs(value - reference) <= tol:
        return [f"{what} = {value!r} differs from the reference {reference!r} by more than {tol:g}"]
    return []


def check_in_range(what, value, rewards, tol=1e-9):
    """A convex combination of the logged rewards lies within their range."""
    lo, hi = float(np.min(rewards)), float(np.max(rewards))
    if not lo - tol <= value <= hi + tol:
        return [f"{what} = {value!r} lies outside the logged reward range [{lo!r}, {hi!r}]"]
    return []


def check_matrix(what, got, want, tol):
    got = np.asarray(got, dtype=np.float64)
    if got.shape != want.shape:
        return [f"{what} has shape {got.shape}, expected {want.shape}"]
    err = float(np.max(np.abs(got - want)))
    if not err <= tol:
        i, j = np.unravel_index(np.argmax(np.abs(got - want)), want.shape)
        return [f"{what} entry ({i}, {j}) is {got[i, j]!r}, expected {want[i, j]!r} "
                f"(max error {err:.3e} > {tol:g})"]
    return []
