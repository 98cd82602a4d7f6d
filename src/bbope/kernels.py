"""Kernels on state-action pairs and the flow-discrepancy matrix blocks.

A state-action pair is embedded as the concatenation of a state part
(one-hot for tabular states, optionally shifted/scaled coordinates for
continuous states) and a one-hot action part scaled by ``action_scale``.
The Gaussian kernel on that embedding factorizes as

    k((s,a), (t,b)) = k_state(s,t) * gamma ** [a != b],
    gamma = exp(-action_scale**2 / bandwidth**2),

which the large-scale assembly path exploits: only state-by-state Gram
matrices are exponentiated, and the action structure enters through
cheap elementwise factors.

The weighted flow discrepancy is the quadratic form of point - 2*cross +
successor over three n-by-n blocks: point (logged pairs against logged
pairs), cross (logged pairs against policy-averaged successor pairs)
and successor (those successors against themselves).  The cross block
is not symmetric, so gradients must see the symmetric part only.
`assemble_combined` builds that flow matrix, one block pair at a time
with O(block**2) temporaries; `assemble_matrices` is the dense reference
that returns the three blocks for any kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .oracle import state_action_chain

__all__ = [
    "Kernel",
    "RbfKernel",
    "DeltaKernel",
    "TransformedKernel",
    "KernelMatrices",
    "median_bandwidth",
    "state_standardizer",
    "assemble_matrices",
    "assemble_combined",
    "smoothed_transition_matrix",
]


class Kernel:
    """Positive-definite kernel on state-action pairs.

    Subclasses implement ``gram((states_x, actions_x), (states_y,
    actions_y))``; ``evaluate`` is the single-pair convenience wrapper.
    """

    def gram(self, sa_x, sa_y):
        raise NotImplementedError

    def evaluate(self, x, x_bar):
        g = self.gram(
            (np.asarray(x[0])[None], np.array([x[1]])),
            (np.asarray(x_bar[0])[None], np.array([x_bar[1]])),
        )
        return float(g[0, 0])


def _blend(x, gamma, total=1.0):
    """(1 - gamma) * x + gamma * total; x itself at gamma == 0 (the exact-match
    kernel), which is exact for the non-negative finite values used here."""
    if gamma == 0:
        return x
    x = x * (1.0 - gamma)
    x += gamma * total
    return x


class _FactoredKernel(Kernel):
    """k((s,a), (t,b)) = k_state(s,t) * gamma ** [a != b] from three members:
    ``encode_states(states, dtype)``, ``state_block(x, y, rows, cols)`` (k_state
    for those rows of encoded x and columns of y) and ``action_factor`` (gamma)."""

    def gram(self, sa_x, sa_y):
        g = self.state_block(self.encode_states(sa_x[0]), self.encode_states(sa_y[0]))
        ax = np.asarray(sa_x[1], dtype=np.int64)
        ay = np.asarray(sa_y[1], dtype=np.int64)
        g *= _blend(ax[:, None] == ay[None, :], self.action_factor)
        return g


class RbfKernel(_FactoredKernel):
    def __init__(self, bandwidth, action_scale=1.0, num_actions=None, num_states=None,
                 state_shift=None, state_scale=None):
        if bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth}")
        if num_actions is None:
            raise ValueError("num_actions is required")
        self.bandwidth = float(bandwidth)
        self.action_scale = float(action_scale)
        self.num_actions = int(num_actions)
        self.num_states = None if num_states is None else int(num_states)
        self.state_shift = None if state_shift is None else np.asarray(state_shift, dtype=np.float64)
        self.state_scale = None if state_scale is None else np.asarray(state_scale, dtype=np.float64)

    @property
    def action_factor(self):
        """gamma in the factorization k = k_state * gamma ** [a != b]."""
        return float(np.exp(-(self.action_scale**2) / self.bandwidth**2))

    def state_features(self, states):
        states = np.asarray(states)
        if np.issubdtype(states.dtype, np.integer):
            if self.num_states is None:
                raise ValueError("tabular states need num_states at kernel construction")
            out = np.zeros((len(states), self.num_states))
            out[np.arange(len(states)), states] = 1.0
            return out
        feats = states.astype(np.float64, copy=True)
        if feats.ndim == 1:
            feats = feats[:, None]
        if self.state_shift is not None:
            feats -= self.state_shift
        if self.state_scale is not None:
            feats /= self.state_scale
        return feats

    def features(self, states, actions):
        phi_s = self.state_features(states)
        actions = np.asarray(actions, dtype=np.int64)
        phi_a = np.zeros((len(actions), self.num_actions))
        phi_a[np.arange(len(actions)), actions] = self.action_scale
        return np.concatenate([phi_s, phi_a], axis=1)

    def encode_states(self, states, dtype=np.float64):
        """State features in `dtype` together with their squared row norms."""
        feats = self.state_features(states).astype(dtype)
        return feats, np.sum(feats * feats, axis=1)

    def state_block(self, x, y, rows=slice(None), cols=slice(None)):
        """exp(-||phi_x - phi_y||^2 / (2 b^2)) for the `rows` of encoded
        states x against the `cols` of encoded states y (see `encode_states`)."""
        (fx, nx), (fy, ny) = x, y
        sq = fx[rows] @ fy[cols].T
        sq *= 2.0
        np.subtract(nx[rows, None] + ny[None, cols], sq, out=sq)  # two blocks alive at most
        np.maximum(sq, 0.0, out=sq)
        sq *= sq.dtype.type(-1.0 / (2.0 * self.bandwidth**2))  # negative: sq is now the exponent
        return np.exp(sq, out=sq)


class DeltaKernel(_FactoredKernel):
    """Exact-match kernel for tabular pairs: k = 1 iff (s,a) == (t,b)."""

    action_factor = 0.0

    def __init__(self, num_actions):
        self.num_actions = int(num_actions)

    def encode_states(self, states, dtype=np.float64):
        """The integer states together with the dtype of their blocks."""
        states = np.asarray(states)
        if not np.issubdtype(states.dtype, np.integer):
            raise ValueError("the exact-match kernel is defined for tabular states only")
        return states, dtype

    def state_block(self, x, y, rows=slice(None), cols=slice(None)):
        """[s == t] for the `rows` of encoded states x against the `cols` of y."""
        (sx, dtype), (sy, _) = x, y
        return (sx[rows, None] == sy[None, cols]).astype(dtype)


def median_bandwidth(features, percentile=50.0):
    """Bandwidth from pairwise distances at a lower nearest-rank percentile.

    Sorts all m*(m-1)/2 pairwise Euclidean distances ascending and picks
    entry ceil(q * count) (1-based) -- no interpolation, so the result is
    always an actually-occurring distance and is permutation invariant.
    """
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim == 1:
        feats = feats[:, None]
    m = feats.shape[0]
    if m < 2:
        raise ValueError("need at least two points for a bandwidth estimate")
    if not 0.0 < percentile <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {percentile}")
    sq = (
        np.sum(feats * feats, axis=1)[:, None]
        + np.sum(feats * feats, axis=1)[None, :]
        - 2.0 * (feats @ feats.T)
    )
    iu = np.triu_indices(m, k=1)
    dists = np.sqrt(np.maximum(sq[iu], 0.0))
    dists.sort()
    rank = int(np.ceil(percentile / 100.0 * len(dists)))
    value = float(dists[max(rank - 1, 0)])
    if value <= 0.0:
        raise ValueError("degenerate point set: selected pairwise distance is zero")
    return value


def state_standardizer(states):
    """Per-coordinate mean and std of a continuous state array (std floor 1e-8)."""
    states = np.asarray(states, dtype=np.float64)
    if states.ndim == 1:
        states = states[:, None]
    return states.mean(axis=0), np.maximum(states.std(axis=0), 1e-8)


@dataclass
class KernelMatrices:
    """The flow matrix M, the symmetric part of point - 2 * cross + successor.

    The quadratic loss w^T M w equals that of the unsymmetrized combination,
    and gradients are always taken through M.
    """

    sym: np.ndarray

    @property
    def n(self):
        return self.sym.shape[0]

    def matvec(self, w):
        """M @ w as float64, computed in M's dtype: a float64 vector against
        float32 storage would silently upcast the whole matrix."""
        q = self.sym @ np.asarray(w).astype(self.sym.dtype, copy=False)
        return q.astype(np.float64, copy=False)


def assemble_matrices(dataset, policy, kernel):
    """Dense float64 (point, cross, successor) blocks, for any kernel.

    cross[i, j] = sum_b pi(b | s'_j) k(x_i, (s'_j, b));
    successor[i, j] = sum_{a, b} pi(a | s'_i) pi(b | s'_j)
                      k((s'_i, a), (s'_j, b)).
    """
    n = len(dataset)
    if n == 0:
        raise ValueError("empty dataset")
    src = (dataset.states, dataset.actions)
    pi_next = policy.prob_matrix(dataset.next_states)  # (n, A)
    A = pi_next.shape[1]

    point = kernel.gram(src, src)
    cross = np.zeros((n, n))
    for b in range(A):
        acts = np.full(n, b, dtype=np.int64)
        cross += kernel.gram(src, (dataset.next_states, acts)) * pi_next[None, :, b]
    successor = np.zeros((n, n))
    for a in range(A):
        for b in range(A):
            g = kernel.gram(
                (dataset.next_states, np.full(n, a, dtype=np.int64)),
                (dataset.next_states, np.full(n, b, dtype=np.int64)),
            )
            successor += g * pi_next[:, a][:, None] * pi_next[:, b][None, :]
    return point, cross, successor


def _prepare(dataset, policy, kernel, dtype):
    """gamma, encoded states and successors, pi(. | s') and the actions."""
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    if not isinstance(kernel, _FactoredKernel):
        raise ValueError(
            f"the blocked flow matrix and smoothed chain support RbfKernel and DeltaKernel, "
            f"got {type(kernel).__name__}; assemble_matrices is the dense path for any kernel"
        )
    return (dtype(kernel.action_factor), kernel.encode_states(dataset.states, dtype),
            kernel.encode_states(dataset.next_states, dtype),
            np.asarray(policy.prob_matrix(dataset.next_states), dtype=dtype),
            np.asarray(dataset.actions, dtype=np.int64))


def assemble_combined(dataset, policy, kernel, dtype=np.float64, block=256):
    """Memory-lean assembly of the symmetrized combination only.

    One pass over the block pairs I <= J computes four block-by-block
    state blocks, writes sym[I, J] and mirrors it into sym[J, I]: peak
    memory is the output plus O(block**2) temporaries.  Each entry is
    formed in one fixed order, (point - 2 * cross) + successor averaged
    with its mirror, so float64 results do not depend on the block size.
    Only RbfKernel and DeltaKernel are supported; the actions enter
    through cheap elementwise factors.  float32 costs ~1e-7 relative
    error, far below the statistical noise of any benchmark estimate.
    """
    gamma, src, nxt, pi_next, acts = _prepare(dataset, policy, kernel, dtype)
    n = len(dataset)
    pi_t = np.ascontiguousarray(_blend(pi_next, gamma).T)  # (A, n) cross-block action factors
    buf = np.empty((n, n), dtype=dtype)
    for i0 in range(0, n, block):
        I = slice(i0, min(i0 + block, n))
        for j0 in range(i0, n, block):
            J = slice(j0, min(j0 + block, n))
            point = kernel.state_block(src, src, I, J)
            point *= _blend(acts[I, None] == acts[None, J], gamma)
            succ = kernel.state_block(nxt, nxt, I, J)
            succ *= _blend(pi_next[I] @ pi_next[J].T, gamma)
            upper = kernel.state_block(src, nxt, I, J)  # cross[I, J]
            upper *= pi_t[acts[I], J]
            lower_t = kernel.state_block(nxt, src, I, J)  # cross[J, I].T
            lower_t *= pi_t[acts[J], I].T
            for term in (upper, lower_t):
                term *= 2.0
                np.subtract(point, term, out=term)
                term += succ
            upper += lower_t
            upper *= 0.5
            buf[I, J] = upper
            buf[J, I] = upper.T
    return KernelMatrices(buf)


def smoothed_transition_matrix(dataset, policy, kernel, ridge=1e-6, counts=None,
                               dtype=np.float64, block=1024):
    """Row-stochastic chain over the logged pairs by kernel regression.

    Row i describes where the process goes after sample i: it lands in
    s'_i, the policy picks b, and the successor pair (s'_i, b) is
    located among the logged anchor pairs by a normalized kernel
    smoother -- each successor pair's kernel weights over the anchors
    are normalized *before* the policy average, so

        raw[i, j] = sum_b pi(b | s'_i) *
                    k((s_j, a_j), (s'_i, b)) m_j / sum_l k((s_l, a_l), (s'_i, b)) m_l

    with anchor multiplicities m (all ones by default; the duplicate
    counts for compressed tabular data).  The two supported kernels both
    factor as k = k_state(s, t) * gamma ** [a != b]: the Gaussian kernel
    with its action factor, and the exact-match kernel with
    k_state = [s == t] and gamma = 0, where this is exactly the empirical
    count-based transition chain.  Other kernels raise ValueError.
    Under either kernel a successor pair that matches no anchor (zero
    kernel mass, e.g. a Gaussian successor far from every logged state)
    contributes nothing, and its policy mass renormalizes over the
    matched ones; a row with no match at all restarts at m / sum(m).
    `ridge` >= 0 is added on the diagonal and rows are renormalized to
    sum to one.  The stationary distribution of the result is the
    model-based estimate of the target policy's long-run pair
    distribution on the sample.  `dtype` sets the arithmetic of the
    kernel row blocks; the result is always float64, written block by
    block with no full-size copy in `dtype`.
    """
    if ridge < 0:
        raise ValueError(f"ridge must be non-negative, got {ridge}")
    gamma, src, nxt, pi_next, acts = _prepare(dataset, policy, kernel, dtype)
    n = len(dataset)
    counts = (np.ones(n) if counts is None else np.asarray(counts, dtype=np.float64)).astype(dtype)
    restart = counts / counts.sum()
    act_onehot = np.zeros((n, pi_next.shape[1]), dtype=dtype)
    act_onehot[np.arange(n), acts] = 1.0
    raw = np.empty((n, n))  # float64 whatever the block dtype
    for r0 in range(0, n, block):
        r1 = min(r0 + block, n)
        g = kernel.state_block(nxt, src, slice(r0, r1))
        g *= counts[None, :]
        denom = g @ act_onehot  # (rows, A): anchor kernel mass per action
        if gamma:  # exact match (gamma == 0) needs no row sums
            denom = _blend(denom, gamma, g.sum(axis=1)[:, None])
        ratio = np.divide(pi_next[r0:r1], denom, out=np.zeros_like(denom), where=denom > 0)
        factor = _blend(ratio, gamma, ratio.sum(axis=1)[:, None]) if gamma else ratio
        g *= factor[:, acts]  # per (row, action) factor, gathered to the anchors' actions
        g[~np.any(ratio > 0, axis=1)] = restart  # no matched successor pair
        raw[r0:r1] = g
        del g  # free this block before state_block builds the next one

    raw[np.arange(n), np.arange(n)] += float(ridge)
    raw /= raw.sum(axis=1)[:, None]
    return raw


class TransformedKernel(Kernel):
    """Base kernel conjugated by the one-step flow of an MDP + policy.

    For tabular pairs x, the transformed kernel subtracts the expected
    kernel values against one-step successors:

        kt(x, y) = E[ k(x, y) - k(x, Y') - k(X', y) + k(X', Y') ],

    with X' drawn by following the MDP one step from x and then the
    policy, independently of Y' from y.  In matrix form over the full
    pair space this is (I - Q) G (I - Q)^T for the pair-chain matrix Q,
    which is how it is computed here.
    """

    def __init__(self, base, mdp, policy):
        S, A = mdp.num_states, mdp.num_actions
        all_states = np.repeat(np.arange(S), A)
        all_actions = np.tile(np.arange(A), S)
        G = base.gram((all_states, all_actions), (all_states, all_actions))
        Q = state_action_chain(mdp, policy)
        M = np.eye(S * A) - Q
        self._gram_table = M @ G @ M.T
        self._num_actions = A
        self.base = base

    def gram(self, sa_x, sa_y):
        sx = np.asarray(sa_x[0])
        sy = np.asarray(sa_y[0])
        if not (np.issubdtype(sx.dtype, np.integer) and np.issubdtype(sy.dtype, np.integer)):
            raise ValueError("the transformed kernel is defined for tabular states only")
        cx = sx * self._num_actions + np.asarray(sa_x[1], dtype=np.int64)
        cy = sy * self._num_actions + np.asarray(sa_y[1], dtype=np.int64)
        return self._gram_table[np.ix_(cx, cy)]
