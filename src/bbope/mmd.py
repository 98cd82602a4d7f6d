"""Kernel discrepancies between discrete state-action measures.

The squared discrepancy between two measures is the quadratic form of
their difference under a kernel's Gram matrix.  For the weighted
empirical measure of a dataset against its own image under the empirical
backward-flow operator, that quadratic form collapses to
w^T M w with M the assembled matrix combination from `kernels`; `loss`
evaluates it directly, and the log-domain variants expose the gradients
the parametric weight models train on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import make_rng

__all__ = [
    "DiscreteDistribution",
    "distribution_from_mass",
    "weighted_empirical",
    "empirical_backward",
    "bilinear",
    "mmd_squared",
    "loss",
    "LossGradientEstimate",
    "log_loss_full",
    "log_loss_minibatch_grad",
]

_NEG_TOL = 1e-10


@dataclass
class DiscreteDistribution:
    """A (possibly signed) measure supported on finitely many pairs."""

    states: np.ndarray
    actions: np.ndarray
    mass: np.ndarray

    def __post_init__(self):
        self.actions = np.asarray(self.actions, dtype=np.int64)
        self.mass = np.asarray(self.mass, dtype=np.float64)
        if not len(self.states) == len(self.actions) == len(self.mass):
            raise ValueError(
                "states, actions and mass need one entry per atom; got "
                f"{len(self.states)}, {len(self.actions)} and {len(self.mass)}"
            )
        if not np.all(np.isfinite(self.mass)):
            raise ValueError("measure has non-finite mass entries")

    def __len__(self):
        return len(self.mass)

    @property
    def total_mass(self):
        return float(self.mass.sum())

    def support(self):
        return (self.states, self.actions)

    def to_dense(self, num_states, num_actions):
        out = np.zeros((num_states, num_actions))
        np.add.at(out, (np.asarray(self.states), self.actions), self.mass)
        return out


def distribution_from_mass(mass):
    """Full-support tabular measure from an (S, A) mass array."""
    mass = np.asarray(mass, dtype=np.float64)
    S, A = mass.shape
    return DiscreteDistribution(
        states=np.repeat(np.arange(S), A),
        actions=np.tile(np.arange(A), S),
        mass=mass.reshape(-1),
    )


def weighted_empirical(dataset, w):
    """The dataset's logged pairs weighted by w (one atom per transition)."""
    w = np.asarray(w, dtype=np.float64)
    if len(w) != len(dataset):
        raise ValueError(f"weight length {len(w)} != dataset size {len(dataset)}")
    return DiscreteDistribution(states=dataset.states, actions=dataset.actions, mass=w)


def empirical_backward(dataset, w, policy):
    """Push a weighted empirical measure through the logged transitions.

    Each transition hands its weight to its realized successor state,
    and the policy then spreads that weight over the successor's
    actions:  out(s', a') = pi(a' | s') * sum_i w_i [s'_i = s'].
    Support is enumerated sample-major, one atom per (i, a') slot.
    """
    w = np.asarray(w, dtype=np.float64)
    if len(w) != len(dataset):
        raise ValueError(f"weight length {len(w)} != dataset size {len(dataset)}")
    if np.any(w < -1e-8) or abs(w.sum() - 1.0) > 1e-8:
        raise ValueError("weights must lie on the probability simplex (tol 1e-8)")
    pi_next = policy.prob_matrix(dataset.next_states)  # (n, A)
    A = pi_next.shape[1]
    n = len(dataset)
    states = np.repeat(np.asarray(dataset.next_states), A, axis=0)
    actions = np.tile(np.arange(A), n)
    mass = (w[:, None] * pi_next).reshape(-1)
    return DiscreteDistribution(states=states, actions=actions, mass=mass)


def bilinear(f, g, kernel):
    """<f, g> under the kernel: sum_{x, y} f(x) k(x, y) g(y)."""
    G = kernel.gram(f.support(), g.support())
    return float(f.mass @ G @ g.mass)


def _clamp_quadratic(value, what):
    if value < -_NEG_TOL:
        raise ValueError(
            f"{what} came out {value:.3e} < -{_NEG_TOL:g}; "
            "kernel or assembly is inconsistent"
        )
    return max(value, 0.0)


def mmd_squared(mu1, mu2, kernel):
    """Squared kernel discrepancy between two finite measures.

    Computed as one quadratic form of the stacked signed difference so
    every term goes through the same Gram evaluation.  Tiny negative
    roundoff clamps to zero; anything below -1e-10 raises, because a
    genuinely negative value means the kernel is not positive definite.
    """
    sx, ax = mu1.support()
    sy, ay = mu2.support()
    states = np.concatenate([np.asarray(sx), np.asarray(sy)], axis=0)
    actions = np.concatenate([ax, ay])
    mass = np.concatenate([mu1.mass, -mu2.mass])
    stacked = DiscreteDistribution(states=states, actions=actions, mass=mass)
    return _clamp_quadratic(bilinear(stacked, stacked, kernel), "squared discrepancy")


def loss(w, matrices):
    """Flow-discrepancy loss of simplex weights: w^T M w (clamped at 0)."""
    w = np.asarray(w, dtype=np.float64)
    if np.any(w < -1e-8) or abs(w.sum() - 1.0) > 1e-8:
        raise ValueError("weights must lie on the probability simplex (tol 1e-8)")
    return _clamp_quadratic(float(w @ matrices.matvec(w)), "weighted flow loss")


@dataclass
class LossGradientEstimate:
    """Loss value and gradient in per-sample log-weight coordinates.

    gradient[i] = d loss / d log w_tilde_i.  Callers owning a parametric
    weight model chain this through their own d log w_tilde / d params.
    batch describes how the gradient was formed ("exact" or a sampled
    batch spec); sampled gradients are unbiased for the exact one.
    """

    value: float
    gradient: np.ndarray
    batch: str = "exact"


def _log_loss_terms(w_tilde, matrices):
    wt = np.asarray(w_tilde, dtype=np.float64)
    if np.any(wt <= 0.0) or not np.all(np.isfinite(wt)):
        raise ValueError("log-domain loss needs strictly positive finite weights")
    q = matrices.matvec(wt)
    quad = float(wt @ q)
    total = float(wt.sum())
    if quad <= 0.0:
        raise ValueError(f"quadratic form is {quad:.3e}; log-domain loss undefined")
    return wt, q, quad, total


def log_loss_full(w_tilde, matrices):
    """Exact value and gradient of log(w^T M w) - 2 log(sum w).

    The normalization by sum w is built into the objective, so training
    can run on unnormalized weights.  In log coordinates the gradient is

        g_i = 2 w_i (M w)_i / (w^T M w) - 2 w_i / sum(w),

    which always sums to zero -- a weight model that can only scale all
    weights together has nothing to gain.
    """
    wt, q, quad, total = _log_loss_terms(w_tilde, matrices)
    value = float(np.log(quad) - 2.0 * np.log(total))
    grad = 2.0 * wt * q / quad - 2.0 * wt / total
    return LossGradientEstimate(value=value, gradient=grad, batch="exact")


def log_loss_minibatch_grad(w_tilde, matrices, batch_pairs, seed):
    """Sampled unbiased gradient of the log-domain loss.

    The pair term is estimated by drawing ``batch_pairs`` index pairs
    with probability proportional to |w_i w_j M_ij| and weighting each
    draw by the sign of its entry times the ratio of absolute to signed
    totals; the normalization term draws the same number of single
    indices proportional to w_i.  A batch of at least n^2 pairs switches
    to exhaustive enumeration and reproduces `log_loss_full` exactly.
    """
    wt, q, quad, total = _log_loss_terms(w_tilde, matrices)
    n = len(wt)
    B = int(batch_pairs)
    if B < 1:
        raise ValueError(f"batch_pairs must be >= 1, got {batch_pairs}")
    value = float(np.log(quad) - 2.0 * np.log(total))
    if B >= n * n:
        grad = 2.0 * wt * q / quad - 2.0 * wt / total
        return LossGradientEstimate(value=value, gradient=grad, batch=f"exhaustive(n2={n * n})")

    rng = make_rng(seed)
    m = wt[:, None] * wt[None, :] * matrices.sym
    abs_flat = np.abs(m).reshape(-1)
    total_abs = abs_flat.sum()
    cdf = np.cumsum(abs_flat / total_abs)
    draws = np.searchsorted(cdf, rng.random(B), side="left").clip(max=n * n - 1)
    rows, cols = draws // n, draws % n
    signs = np.sign(m.reshape(-1)[draws])
    grad = np.zeros(n)
    scale = total_abs / quad / B
    np.add.at(grad, rows, signs * scale)
    np.add.at(grad, cols, signs * scale)

    p_single = wt / total
    cdf_s = np.cumsum(p_single)
    singles = np.searchsorted(cdf_s, rng.random(B), side="left").clip(max=n - 1)
    np.add.at(grad, singles, -2.0 / B)
    return LossGradientEstimate(value=value, gradient=grad, batch=f"pairs={B},singles={B},seed={seed}")
