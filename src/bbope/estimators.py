"""Long-run average-reward estimators over logged transition datasets.

All estimators share one contract: they take a behavior-agnostic
TransitionDataset (no behavior-policy annotations except where a method
explicitly demands them) plus the target policy, and return an
EstimateReport whose ``estimate`` field approximates the target policy's
long-run average reward per step.

* ``naive_average`` -- the dataset mean reward; correct only on-policy.
* ``blackbox_estimate`` -- the package's main method: fit simplex
  weights so the weighted pair distribution is (approximately) preserved
  by the target policy's one-step flow, then average rewards under them.
* ``model_based_estimate`` -- kernel-regression transition model over
  the logged pairs; average rewards under its stationary distribution.
* ``tabular_stationary_ips`` -- stationary-ratio importance sampling;
  needs the behavior policy and tabular states.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .kernels import DeltaKernel, assemble_combined, smoothed_transition_matrix
from .mdp import TabularMdp, sample_trajectory
from .oracle import stationary_of_matrix
from .weights import (
    OptimizerConfig,
    _check_matrix_rows,
    compress_tabular,
    solve_tabular,
    train_parametric,
)

__all__ = [
    "EstimateReport",
    "AggregateReport",
    "naive_average",
    "blackbox_estimate",
    "model_based_estimate",
    "tabular_stationary_ips",
    "ground_truth_rollout",
    "aggregate",
    "nearest_rank",
]


@dataclass
class EstimateReport:
    method: str
    estimate: float
    num_transitions: int
    details: dict = field(default_factory=dict)


def naive_average(dataset):
    """Unweighted mean logged reward (the on-policy answer)."""
    if len(dataset) == 0:
        raise ValueError("cannot average an empty dataset")
    est = float(np.mean(dataset.rewards))
    return EstimateReport(method="naive", estimate=est, num_transitions=len(dataset))


def _check_actions(dataset, policy):
    """Reject a logged action outside [0, policy.num_actions); one O(n) pass."""
    actions = np.asarray(dataset.actions)
    num_actions = policy.num_actions
    bad = (actions < 0) | (actions >= num_actions)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(
            f"logged action {actions[i].item()!r} at row {i} is outside [0, {num_actions}): "
            f"the policy has {num_actions} actions"
        )


# the optimizer method that fits each weight model
_SOLVER_METHOD = {"tabular": "exp_gradient", "mlp": "sgd_adamlike"}


def blackbox_estimate(dataset, policy, kernel=None, config=None, weight_model="auto"):
    """Weighted average reward with flow-preserving simplex weights.

    weight_model "tabular" ties one weight per distinct state-action pair
    and solves the induced quadratic program exactly (duplicates are
    compressed away first, so even very long tabular logs stay cheap);
    "mlp" trains the parametric log-weight network.  "auto" picks
    "tabular" for integer states and "mlp" otherwise.  kernel defaults to
    the exact-match kernel on tabular data and must be given explicitly
    for continuous data.  config.method must name the model's solver:
    "exp_gradient" for "tabular", "sgd_adamlike" for "mlp".  Every
    logged action must lie in [0, policy.num_actions).
    """
    _check_actions(dataset, policy)
    if weight_model == "auto":
        weight_model = "tabular" if dataset.is_tabular else "mlp"
    if weight_model not in _SOLVER_METHOD:
        raise ValueError(f"unknown weight_model {weight_model!r}")
    if config is not None and config.method != _SOLVER_METHOD[weight_model]:
        raise ValueError(
            f"optimizer method {config.method!r} does not solve weight_model {weight_model!r}: "
            "tabular weights use 'exp_gradient' and the MLP uses 'sgd_adamlike'"
        )

    if weight_model == "tabular":
        if not dataset.is_tabular:
            raise ValueError("tied tabular weights need integer states")
        kernel = kernel or DeltaKernel(policy.num_actions)
        compressed, counts, inverse = compress_tabular(dataset)
        _check_matrix_rows(len(compressed), config or OptimizerConfig())
        matrices = assemble_combined(compressed, policy, kernel)
        w_rows, model, info = solve_tabular(matrices, compressed, policy.num_actions, config,
                                            counts=counts)
        estimate = float(np.sum(counts * w_rows * compressed.rewards))
        details = {
            "weight_model": "tabular",
            "distinct_triples": len(compressed),
            "groups": len(model.group_codes),
            "final_loss": info["final_loss"],
            "iterations": info["iterations"],
        }
        return EstimateReport("blackbox", estimate, len(dataset), details)

    if kernel is None:
        raise ValueError("the parametric weight model needs an explicit kernel")
    config = config or OptimizerConfig(method="sgd_adamlike")
    w, model, info = train_parametric(dataset, policy, kernel, config)
    estimate = float(np.sum(w * np.asarray(dataset.rewards)))
    details = {
        "weight_model": "mlp",
        "final_loss": info["final_loss"],
        "iterations": info["iterations"],
        "model": model,
    }
    return EstimateReport("blackbox", estimate, len(dataset), details)


def model_based_estimate(dataset, policy, kernel=None, ridge=1e-6, tol=1e-10,
                         max_iter=100_000, dtype=np.float64):
    """Average reward under the stationary law of a smoothed sample chain.

    Builds the kernel-regression transition matrix over the logged pairs
    (see ``smoothed_transition_matrix``), finds its stationary
    distribution by power iteration, and averages the logged rewards
    under it.  Tabular datasets are compressed first; with the default
    exact-match kernel this reproduces the count-based empirical model.
    The kernel must be an RbfKernel or a DeltaKernel, and the chain's rows
    (distinct triples, if tabular) at most the default max_matrix_rows.
    Every logged action must lie in [0, policy.num_actions).
    """
    _check_actions(dataset, policy)
    counts = None
    work = dataset
    if dataset.is_tabular:
        kernel = kernel or DeltaKernel(policy.num_actions)
        work, counts, _ = compress_tabular(dataset)
    elif kernel is None:
        raise ValueError("continuous data needs an explicit kernel")
    _check_matrix_rows(len(work), OptimizerConfig())
    P = smoothed_transition_matrix(work, policy, kernel, ridge=ridge, counts=counts, dtype=dtype)
    dist = stationary_of_matrix(P, tol=tol, max_iter=max_iter)
    estimate = float(np.sum(dist * np.asarray(work.rewards)))
    return EstimateReport(
        "model_based",
        estimate,
        len(dataset),
        {"chain_size": len(work), "ridge": ridge},
    )


def tabular_stationary_ips(dataset, behavior_policy, target_policy):
    """Stationary-distribution-ratio importance sampling (tabular only).

    The per-step action ratio beta_i = pi(a_i|s_i) / pi_B(a_i|s_i)
    reweights the empirical state chain; the stationary distribution of
    that corrected chain stands in for the target state frequencies.
    Dividing by the raw empirical state frequencies (all T+1 states of
    each trajectory, so short-horizon logs over-count where trajectories
    sit at their ends) gives per-state ratios, and the final estimate is
    the self-normalized weighted reward with weights ratio(s_i) * beta_i.
    """
    if not dataset.is_tabular:
        raise ValueError("stationary-ratio importance sampling needs tabular states")
    for policy in (behavior_policy, target_policy):
        _check_actions(dataset, policy)
    states = np.asarray(dataset.states)
    nexts = np.asarray(dataset.next_states)
    actions = np.asarray(dataset.actions)
    pi_t = target_policy.prob_matrix(states)[np.arange(len(states)), actions]
    pi_b = behavior_policy.prob_matrix(states)[np.arange(len(states)), actions]
    if np.any(pi_b <= 0.0):
        bad = int(np.argmax(pi_b <= 0.0))
        raise ValueError(
            f"behavior policy gives zero probability to logged action "
            f"{int(actions[bad])} in state {int(states[bad])}"
        )
    beta = pi_t / pi_b

    S = int(max(states.max(), nexts.max())) + 1
    visits = np.bincount(dataset.visit_states(), minlength=S).astype(np.float64)
    d_beh = visits / visits.sum()

    flow = np.zeros((S, S))
    np.add.at(flow, (states, nexts), beta)
    sources = flow.sum(axis=1) > 0.0
    idx = np.flatnonzero(sources)
    # restrict to states that were ever a source; mass flowing to a
    # never-source state is a finite-sample artifact and renormalizes away
    P = flow[np.ix_(idx, idx)]
    P = P / P.sum(axis=1, keepdims=True)
    d_target = np.zeros(S)
    d_target[idx] = stationary_of_matrix(P, tol=1e-12)

    ratio = np.zeros(S)
    ratio[idx] = d_target[idx] / d_beh[idx]
    w = ratio[states] * beta
    total = w.sum()
    if not total > 0.0:
        raise ValueError("all importance weights vanished; policies share no support")
    estimate = float(np.sum(w * np.asarray(dataset.rewards)) / total)
    return EstimateReport(
        "ips",
        estimate,
        len(dataset),
        {"num_states": S, "visited_sources": int(sources.sum())},
    )


def ground_truth_rollout(env_or_mdp, policy, length, seed):
    """Monte-Carlo long-run average reward from one long on-policy rollout."""
    if isinstance(env_or_mdp, TabularMdp):
        traj = sample_trajectory(env_or_mdp, policy, length, seed)
        return traj.mean_reward()
    from .envs import sample_env_trajectory

    traj = sample_env_trajectory(env_or_mdp, policy, length, seed)
    return traj.mean_reward()


def nearest_rank(values, q):
    """Lower nearest-rank percentile: entry ceil(q/100 * n), 1-based."""
    values = np.sort(np.asarray(values, dtype=np.float64))
    if len(values) == 0:
        raise ValueError("no values")
    rank = int(np.ceil(q / 100.0 * len(values)))
    return float(values[max(rank, 1) - 1])


@dataclass
class AggregateReport:
    method: str
    truth: float
    estimates: np.ndarray
    rmse: float
    bias: float
    std: float
    median: float
    q25: float
    q75: float
    runs: int


def aggregate(method, estimates, truth):
    """Summary statistics of repeated estimates against the ground truth.

    std is the population standard deviation, so rmse^2 = bias^2 + std^2
    holds as an exact identity.  Quantiles are lower nearest-rank values,
    hence always actual estimates.
    """
    est = np.asarray(estimates, dtype=np.float64)
    errors = est - float(truth)
    return AggregateReport(
        method=method,
        truth=float(truth),
        estimates=est,
        rmse=float(np.sqrt(np.mean(errors**2))),
        bias=float(np.mean(errors)),
        std=float(np.std(est)),
        median=nearest_rank(est, 50.0),
        q25=nearest_rank(est, 25.0),
        q75=nearest_rank(est, 75.0),
        runs=len(est),
    )
