"""Exact tabular solvers used as ground truth in tests and benchmarks.

Everything here works on small dense matrices and is written for
correctness, not speed: stationary distributions by damped power
iteration, discounted values by a direct linear solve, and a brute-force
grid minimizer over the probability simplex that upper-bounds any
quadratic objective the iterative solvers are supposed to reach.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ConvergenceError",
    "StationaryDistribution",
    "stationary_of_matrix",
    "exact_stationary",
    "state_action_chain",
    "exact_backward_apply",
    "exact_average_reward",
    "exact_discounted_value",
    "brute_force_simplex_min",
    "check_flow_identity",
]


class ConvergenceError(RuntimeError):
    """An iterative solve hit its iteration cap above tolerance."""

    def __init__(self, what, residual, tol, iterations):
        self.residual = residual
        self.iterations = iterations
        super().__init__(
            f"{what}: residual {residual:.3e} > tol {tol:.1e} after {iterations} iterations"
        )


def stationary_of_matrix(P, tol=1e-13, max_iter=200_000):
    """Stationary row vector of a row-stochastic matrix.

    Iterates the half-lazy operator (I + P)/2, which shares P's
    stationary distribution but converges geometrically even for
    periodic chains (ModelWin's state chain alternates with period 2,
    so plain power iteration would bounce forever).
    """
    P = np.asarray(P, dtype=np.float64)
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise ValueError(f"a transition matrix must be square; got shape {P.shape}")
    m = P.shape[0]
    d = np.full(m, 1.0 / m)
    for it in range(max_iter):
        nxt = 0.5 * (d + d @ P)
        nxt /= nxt.sum()
        if np.abs(nxt - d).sum() <= 0.25 * tol:
            d = nxt
            resid = np.abs(d @ P - d).sum()
            if resid <= tol:
                return d
        d = nxt
    raise ConvergenceError("stationary power iteration", float(np.abs(d @ P - d).sum()), tol, max_iter)


@dataclass(frozen=True)
class StationaryDistribution:
    """Stationary state-action distribution of a policy on a tabular MDP."""

    mass: np.ndarray  # (S, A), non-negative, sums to 1

    @property
    def state_marginal(self):
        return self.mass.sum(axis=1)

    @property
    def flat(self):
        return self.mass.reshape(-1)


def state_action_chain(mdp, policy):
    """Row-stochastic matrix over (s, a) pairs induced by mdp + policy.

    Entry [(s, a), (s', a')] = P(s' | s, a) * pi(a' | s').  Pairs are
    flattened row-major (state-major).
    """
    pi = policy.prob_matrix(np.arange(mdp.num_states))  # (S, A)
    S, A = mdp.num_states, mdp.num_actions
    # (s, a, s', a') -> P[s, a, s'] * pi[s', a']
    Q = mdp.transition[:, :, :, None] * pi[None, None, :, :]
    return Q.reshape(S * A, S * A)


def exact_backward_apply(dist, mdp, policy):
    """One application of the backward flow operator to an (S, A) mass array.

    out[s', a'] = pi(a' | s') * sum_{s, a} dist[s, a] * P(s' | s, a).
    Preserves total mass because transition rows and policy rows each sum
    to one.  The stationary distribution is exactly its fixed point.
    """
    dist = np.asarray(dist, dtype=np.float64)
    S, A = mdp.num_states, mdp.num_actions
    if dist.shape != (S, A):
        raise ValueError(f"dist must have the MDP's (S, A) shape ({S}, {A}); got {dist.shape}")
    pi = policy.prob_matrix(np.arange(S))
    inflow = np.einsum("sa,sat->t", dist, mdp.transition)
    return pi * inflow[:, None]


def exact_stationary(mdp, policy):
    """Stationary state-action distribution, solved to residual <= 1e-13."""
    Q = state_action_chain(mdp, policy)
    d = stationary_of_matrix(Q)
    return StationaryDistribution(mass=d.reshape(mdp.num_states, mdp.num_actions))


def exact_average_reward(mdp, policy):
    """Long-run average reward of `policy` on `mdp` (exact, via stationary)."""
    d = exact_stationary(mdp, policy)
    return float(np.sum(d.mass * mdp.reward))


def exact_discounted_value(mdp, policy, discount=None):
    """Normalized discounted return  (1 - g) * E_start[ sum g^t r_t ].

    Solved directly: v = (I - g * P_pi)^{-1} r_pi, then the start
    distribution integrates v and the 1 - g factor puts the value on the
    same scale as an average reward.  This is the quantity preserved by
    the `discount_to_average` rewrite.
    """
    gamma = mdp.discount if discount is None else float(discount)
    if gamma is None:
        raise ValueError("no discount given and the MDP carries none")
    if not 0.0 <= gamma < 1.0:
        raise ValueError(f"discount must be in [0, 1), got {gamma}")
    S = mdp.num_states
    pi = policy.prob_matrix(np.arange(S))
    P_pi = np.einsum("sa,sat->st", pi, mdp.transition)
    r_pi = np.sum(pi * mdp.reward, axis=1)
    v = np.linalg.solve(np.eye(S) - gamma * P_pi, r_pi)
    return float((1.0 - gamma) * (mdp.start @ v))


def _triangle_pairs(n):
    """All (i, j) with i + j <= n, ordered by (i + j, i); returns (i, j, cum).

    cum[r] is the number of pairs with i + j <= r - 1, so the slice
    [cum[r] : cum[r + 1]] holds exactly the pairs with i + j == r.
    """
    i_parts, j_parts = [], []
    counts = np.zeros(n + 2, dtype=np.int64)
    for s in range(n + 1):
        i = np.arange(s + 1)
        i_parts.append(i)
        j_parts.append(s - i)
        counts[s + 1] = counts[s] + (s + 1)
    return np.concatenate(i_parts), np.concatenate(j_parts), counts


def brute_force_simplex_min(matrix, resolution):
    """Grid-search minimum of w^T K w over the probability simplex.

    Enumerates every lattice point (k_1/N, ..., k_d/N) with sum k_i = N,
    N = round(1 / resolution).  Returns (w, value) at the grid minimum;
    ties resolve to the first point in enumeration order (lexicographic
    in the leading coordinates).  The result upper-bounds the true
    minimum by construction, which is what makes it usable as an oracle
    for iterative solvers.
    """
    K = np.asarray(matrix, dtype=np.float64)
    d = K.shape[0]
    if K.shape != (d, d):
        raise ValueError(f"matrix must be square, got {K.shape}")
    if np.abs(K - K.T).max() > 1e-12 * max(1.0, np.abs(K).max()):
        raise ValueError("matrix must be symmetric")
    if d > 6:
        raise ValueError(f"dimension {d} too large for brute force (max 6)")
    if not 0.0 < resolution <= 1e-2 + 1e-15:
        raise ValueError(f"resolution must be in (0, 1e-2], got {resolution}")
    N = int(round(1.0 / resolution))

    if d == 1:
        return np.array([1.0]), float(K[0, 0])
    if d == 2:
        k = np.arange(N + 1, dtype=np.float64)
        W = np.stack([k, N - k], axis=1) / N
        f = np.einsum("md,de,me->m", W, K, W)
        best = int(np.argmin(f))
        return W[best], float(f[best])

    tri_i, tri_j, tri_cum = _triangle_pairs(N)
    best_val, best_w = np.inf, None

    def scan(prefix, remaining):
        nonlocal best_val, best_w
        if len(prefix) == d - 3:
            m = tri_cum[remaining + 1]
            i, j = tri_i[:m], tri_j[:m]
            W = np.empty((m, d), dtype=np.float64)
            for c, k in enumerate(prefix):
                W[:, c] = k
            W[:, d - 3] = i
            W[:, d - 2] = j
            W[:, d - 1] = remaining - i - j
            W /= N
            f = np.einsum("md,de,me->m", W, K, W)
            loc = int(np.argmin(f))
            if f[loc] < best_val:
                best_val = float(f[loc])
                best_w = W[loc].copy()
            return
        for k in range(remaining + 1):
            scan(prefix + [k], remaining - k)

    scan([], N)
    return best_w, best_val


def check_flow_identity(mdp, policy, dist, kernel):
    """Evaluate one discrepancy two ways; the two must agree exactly.

    lhs: squared kernel discrepancy between a state-action distribution
    and its image under the backward flow operator, computed with the
    base kernel.  rhs: squared discrepancy between the same distribution
    and the true stationary distribution, computed with the transformed
    kernel.  These are two very different code paths (one never touches
    the stationary distribution, the other solves for it), so their
    agreement on random inputs pins down both the operator algebra and
    the kernel transformation.

    Returns (lhs, rhs).
    """
    from .kernels import TransformedKernel
    from .mmd import mmd_squared, distribution_from_mass

    dist = np.asarray(dist, dtype=np.float64)
    mu = distribution_from_mass(dist)
    flowed = distribution_from_mass(exact_backward_apply(dist, mdp, policy))
    lhs = mmd_squared(mu, flowed, kernel)

    d_pi = exact_stationary(mdp, policy)
    ktil = TransformedKernel(kernel, mdp, policy)
    rhs = mmd_squared(mu, distribution_from_mass(d_pi.mass), ktil)
    return lhs, rhs
