"""End-to-end estimators and the Monte-Carlo aggregation helpers."""

import numpy as np
import pytest

from bbope import estimators
from bbope.envs import model_win, model_win_policy, random_tabular_mdp
from bbope.estimators import (
    aggregate,
    blackbox_estimate,
    ground_truth_rollout,
    model_based_estimate,
    naive_average,
    nearest_rank,
    tabular_stationary_ips,
)
from bbope.kernels import DeltaKernel, RbfKernel, TransformedKernel
from bbope.mdp import (
    TabularMdp,
    TabularPolicy,
    TransitionDataset,
    UniformPolicy,
    sample_dataset,
    sample_trajectory,
)
from bbope.oracle import ConvergenceError, exact_average_reward
from bbope.rng import make_rng
from bbope.weights import OptimizerConfig, compress_tabular


TRUTH_TARGET = -0.08  # exact long-run reward of the 0.9-greedy policy on model_win(0.4)


def target_policy():
    return model_win_policy(0.9)


def behavior_policy():
    return model_win_policy(0.7)


def behavior_data(num_trajectories, length, seed):
    return sample_dataset(model_win(0.4), behavior_policy(), num_trajectories, length, seed)


def single_transition(reward=0.625):
    return TransitionDataset(
        states=np.array([2]),
        actions=np.array([1]),
        rewards=np.array([reward]),
        next_states=np.array([0]),
    )


# ---------------------------------------------------------------------------
# naive_average


def test_naive_symmetric_rewards_cancel():
    ds = TransitionDataset(
        states=np.array([0, 0]),
        actions=np.array([0, 1]),
        rewards=np.array([1.0, -1.0]),
        next_states=np.array([1, 2]),
    )
    assert naive_average(ds).estimate == 0.0


def test_naive_single_transition():
    report = naive_average(single_transition())
    assert report.estimate == 0.625
    assert report.num_transitions == 1


def test_naive_tracks_behavior_average():
    exact = exact_average_reward(model_win(0.4), behavior_policy())
    assert abs(exact - (-0.04)) < 1e-10
    ds = behavior_data(500, 100, seed=1)
    assert len(ds) == 50_000
    assert abs(naive_average(ds).estimate - (-0.04)) <= 0.02


def test_naive_rejects_empty_dataset():
    with pytest.raises(ValueError):
        naive_average(
            TransitionDataset(
                states=np.array([], dtype=int),
                actions=np.array([], dtype=int),
                rewards=np.array([]),
                next_states=np.array([], dtype=int),
            )
        )


@pytest.mark.parametrize("kind", ["tabular", "continuous"])
def test_kernel_estimators_reject_an_empty_log(kind):
    if kind == "tabular":
        states, kernel = np.array([], dtype=int), None
    else:
        states, kernel = np.zeros((0, 2)), RbfKernel(1.0, num_actions=2)
    empty = TransitionDataset(
        states=states, actions=np.array([], dtype=int), rewards=np.array([]), next_states=states
    )
    with pytest.raises(ValueError, match="empty"):
        blackbox_estimate(empty, UniformPolicy(2), kernel)
    with pytest.raises(ValueError, match="empty"):
        model_based_estimate(empty, UniformPolicy(2), kernel)


# ---------------------------------------------------------------------------
# blackbox_estimate


def test_blackbox_single_transition_returns_its_reward():
    report = blackbox_estimate(single_transition(), target_policy())
    assert report.estimate == 0.625


def test_blackbox_onpolicy_stationary_data():
    ds = sample_dataset(model_win(0.4), target_policy(), 100, 1000, seed=5)
    assert len(ds) == 100_000
    report = blackbox_estimate(ds, target_policy())
    assert abs(report.estimate - TRUTH_TARGET) <= 0.02


def test_blackbox_short_horizon_behavior_data():
    ds = behavior_data(12_500, 4, seed=2)
    assert len(ds) == 50_000
    report = blackbox_estimate(ds, target_policy())
    assert abs(report.estimate - TRUTH_TARGET) <= 0.02


def test_blackbox_stays_within_reward_range():
    for seed in (3, 4):
        ds = behavior_data(50, 12, seed=seed)
        est = blackbox_estimate(ds, target_policy()).estimate
        rewards = np.asarray(ds.rewards)
        assert rewards.min() - 1e-12 <= est <= rewards.max() + 1e-12


def test_blackbox_uniform_weights_reduce_to_naive():
    # all rows share one (state, action), so the solver's point mass on that
    # group spreads uniformly over the rows
    ds = TransitionDataset(
        states=np.array([0, 0, 0]),
        actions=np.array([1, 1, 1]),
        rewards=np.array([0.2, -0.4, 0.9]),
        next_states=np.array([1, 2, 0]),
    )
    report = blackbox_estimate(ds, target_policy())
    assert abs(report.estimate - naive_average(ds).estimate) <= 1e-12


def test_blackbox_rejects_unknown_weight_model():
    with pytest.raises(ValueError):
        blackbox_estimate(single_transition(), target_policy(), weight_model="banana")


def test_blackbox_tabular_enforces_matrix_row_cap():
    ds = behavior_data(5, 20, seed=11)
    assert len(compress_tabular(ds)[0]) > 4
    with pytest.raises(ValueError, match="max_matrix_rows=4"):
        blackbox_estimate(ds, target_policy(), config=OptimizerConfig(max_matrix_rows=4))


def test_blackbox_rejects_the_other_models_optimizer_method():
    continuous = TransitionDataset(
        states=np.array([[0.0], [0.5]]),
        actions=np.array([0, 1]),
        rewards=np.array([1.0, 0.0]),
        next_states=np.array([[0.5], [0.0]]),
    )
    cases = [
        (behavior_data(3, 5, seed=2), target_policy(), None, "sgd_adamlike"),
        (continuous, UniformPolicy(2), RbfKernel(1.0, num_actions=2), "exp_gradient"),
    ]
    for ds, policy, kernel, method in cases:
        with pytest.raises(ValueError, match="'exp_gradient' and the MLP uses 'sgd_adamlike'"):
            blackbox_estimate(ds, policy, kernel, config=OptimizerConfig(method=method))


def test_blackbox_mlp_requires_a_kernel():
    with pytest.raises(ValueError):
        blackbox_estimate(single_transition(), target_policy(), weight_model="mlp")


# ---------------------------------------------------------------------------
# model_based_estimate


def count_chain_stationary_estimate(dataset, policy, ridge=1e-6):
    """Independent count-based oracle: empirical transition chain under the
    target policy on the distinct (s, a, s') anchors, stationary by eigensolve."""
    comp, counts, _ = compress_tabular(dataset)
    states = np.asarray(comp.states)
    actions = np.asarray(comp.actions)
    nexts = np.asarray(comp.next_states)
    n = len(comp)
    pi = policy.prob_matrix(nexts)
    chain = np.zeros((n, n))
    for i in range(n):
        for b in range(pi.shape[1]):
            anchors = np.flatnonzero((states == nexts[i]) & (actions == b))
            if len(anchors) == 0:
                continue
            share = counts[anchors] / counts[anchors].sum()
            chain[i, anchors] += pi[i, b] * share
    chain += ridge * np.eye(n)
    chain /= chain.sum(axis=1, keepdims=True)
    # stationary row vector via the eigenvector of the transposed chain
    vals, vecs = np.linalg.eig(chain.T)
    lead = np.argmin(np.abs(vals - 1.0))
    dist = np.real(vecs[:, lead])
    dist = dist / dist.sum()
    return float(dist @ np.asarray(comp.rewards))


def test_model_based_reduces_to_count_chain():
    ds = behavior_data(40, 25, seed=6)
    expected = count_chain_stationary_estimate(ds, target_policy())
    report = model_based_estimate(ds, target_policy())
    assert abs(report.estimate - expected) <= 1e-8


def test_model_based_single_state_returns_mean_reward():
    mdp = TabularMdp(
        transition=np.array([[[1.0]]]),
        reward=np.array([[0.37]]),
        start=np.array([1.0]),
    )
    policy = TabularPolicy(np.array([[1.0]]))
    ds = sample_dataset(mdp, policy, 4, 10, seed=0)
    report = model_based_estimate(ds, policy)
    assert abs(report.estimate - 0.37) <= 1e-12


def test_noisy_rewards_of_one_pair_are_averaged():
    # one state, one action: every estimator must return the mean logged reward
    ds = TransitionDataset(
        states=np.zeros(4, dtype=np.int64),
        actions=np.zeros(4, dtype=np.int64),
        rewards=np.array([1.0, 0.0, 0.0, 0.0]),
        next_states=np.zeros(4, dtype=np.int64),
    )
    policy = TabularPolicy(np.array([[1.0]]))
    assert naive_average(ds).estimate == pytest.approx(0.25, abs=1e-12)
    assert blackbox_estimate(ds, policy).estimate == pytest.approx(0.25, abs=1e-12)
    assert model_based_estimate(ds, policy).estimate == pytest.approx(0.25, abs=1e-12)


def test_model_based_short_horizon_behavior_data():
    ds = behavior_data(12_500, 4, seed=2)
    report = model_based_estimate(ds, target_policy())
    assert abs(report.estimate - TRUTH_TARGET) <= 0.03


def test_model_based_stays_within_reward_range():
    ds = behavior_data(60, 10, seed=8)
    est = model_based_estimate(ds, target_policy()).estimate
    rewards = np.asarray(ds.rewards)
    assert rewards.min() - 1e-9 <= est <= rewards.max() + 1e-9


def test_model_based_far_successor_stays_finite():
    # successor 50 matches no logged state under the Gaussian kernel
    ds = TransitionDataset(
        states=np.array([0.0, 0.1, 0.2, 0.3]),
        actions=np.array([0, 1, 0, 1]),
        rewards=np.array([1.0, 0.0, 0.5, 0.2]),
        next_states=np.array([0.1, 0.2, 0.3, 50.0]),
    )
    est = model_based_estimate(ds, UniformPolicy(2), RbfKernel(1.0, num_actions=2)).estimate
    # the unmatched row restarts at the anchors, so the estimate is not its
    # reward 0.2 alone (the naive average is 0.425)
    assert est == pytest.approx(0.4235865681441721, abs=1e-9)


def test_model_based_unmatched_tabular_row_is_not_absorbing():
    # a short log in which one successor pair was never logged; an
    # absorbing row there made the estimate that row's reward, 0.4399
    mdp = random_tabular_mdp(30, 3, 5)
    target = TabularPolicy(make_rng(1).dirichlet(np.ones(3), size=30))
    ds = sample_dataset(mdp, UniformPolicy(3), 20, 4, 1)
    est = model_based_estimate(ds, target).estimate
    truth = exact_average_reward(mdp, target)
    assert truth == pytest.approx(-0.1635307894628555, abs=1e-12)
    assert est == pytest.approx(-0.0797764412459592, abs=1e-9)
    assert abs(est - truth) < abs(0.4399 - truth)


def test_model_based_rejects_other_kernels():
    kt = TransformedKernel(DeltaKernel(2), model_win(0.4), target_policy())
    with pytest.raises(ValueError, match="RbfKernel and DeltaKernel"):
        model_based_estimate(behavior_data(3, 8, seed=10), target_policy(), kernel=kt)


def tabular_log_over_the_cap():
    """20 001 distinct (s, a, s') triples of a 100-state, 4-action MDP: one more
    than the default max_matrix_rows."""
    codes = np.arange(OptimizerConfig().max_matrix_rows + 1)
    log = TransitionDataset(
        states=codes // 400, actions=(codes // 100) % 4, rewards=np.zeros(len(codes)),
        next_states=codes % 100,
    )
    return log, None


def continuous_log_over_the_cap():
    n = OptimizerConfig().max_matrix_rows + 1
    rng = make_rng(12)
    log = TransitionDataset(
        states=rng.normal(size=(n, 2)), actions=rng.integers(0, 4, size=n),
        rewards=np.zeros(n), next_states=rng.normal(size=(n, 2)),
    )
    return log, RbfKernel(bandwidth=1.0, num_actions=4)


@pytest.mark.parametrize("make_log", [tabular_log_over_the_cap, continuous_log_over_the_cap])
def test_model_based_refuses_a_chain_over_the_row_cap(make_log, monkeypatch):
    ds, kernel = make_log()

    def build(*args, **kwargs):
        raise AssertionError("the chain was built")

    monkeypatch.setattr(estimators, "smoothed_transition_matrix", build)
    with pytest.raises(ValueError, match="20001 rows .* max_matrix_rows=20000"):
        model_based_estimate(ds, UniformPolicy(4), kernel=kernel)


def test_model_based_reports_nonconvergence_with_residual():
    ds = behavior_data(100, 10, seed=9)
    with pytest.raises(ConvergenceError) as exc:
        model_based_estimate(ds, target_policy(), tol=1e-14, max_iter=1)
    assert exc.value.iterations == 1
    assert exc.value.residual > 0.0


# ---------------------------------------------------------------------------
# tabular_stationary_ips


def test_ips_onpolicy_approaches_naive_with_horizon():
    # with identical policies every ratio correction is 1; the only gap to
    # the naive average is the start/end visit bookkeeping, which fades as
    # trajectories lengthen
    gaps = {}
    for length in (4, 128):
        ds = sample_dataset(model_win(0.4), target_policy(), 50_000 // length, length, seed=7)
        naive = naive_average(ds).estimate
        ips = tabular_stationary_ips(ds, target_policy(), target_policy()).estimate
        gaps[length] = abs(ips - naive)
    assert gaps[128] <= 1e-3
    assert gaps[128] < gaps[4]


def test_ips_long_horizon_behavior_data():
    ds = behavior_data(390, 128, seed=10)
    report = tabular_stationary_ips(ds, behavior_policy(), target_policy())
    assert abs(report.estimate - TRUTH_TARGET) <= 0.03


def test_ips_short_horizon_bias_exceeds_blackbox():
    ds = behavior_data(12_500, 4, seed=2)
    ips_error = abs(tabular_stationary_ips(ds, behavior_policy(), target_policy()).estimate - TRUTH_TARGET)
    bb_error = abs(blackbox_estimate(ds, target_policy()).estimate - TRUTH_TARGET)
    assert ips_error > bb_error


def test_ips_rejects_unsupported_logged_action():
    ds = behavior_data(20, 10, seed=11)
    never_explores = TabularPolicy(np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(ValueError) as exc:
        tabular_stationary_ips(ds, never_explores, target_policy())
    assert "action" in str(exc.value)
    assert "state" in str(exc.value)


def test_all_estimators_agree_on_long_onpolicy_data():
    ds = sample_dataset(model_win(0.4), target_policy(), 390, 128, seed=9)
    pi = target_policy()
    estimates = [
        naive_average(ds).estimate,
        blackbox_estimate(ds, pi).estimate,
        model_based_estimate(ds, pi).estimate,
        tabular_stationary_ips(ds, pi, pi).estimate,
    ]
    for est in estimates:
        assert abs(est - TRUTH_TARGET) <= 0.05


# ---------------------------------------------------------------------------
# ground_truth_rollout


def test_rollout_zero_reward_chain():
    mdp = TabularMdp(
        transition=np.array([[[1.0]]]),
        reward=np.array([[0.0]]),
        start=np.array([1.0]),
    )
    policy = TabularPolicy(np.array([[1.0]]))
    assert ground_truth_rollout(mdp, policy, 1000, seed=0) == 0.0


def test_rollout_matches_exact_long_run_reward():
    est = ground_truth_rollout(model_win(0.4), target_policy(), 50_000, seed=3)
    assert abs(est - TRUTH_TARGET) <= 0.02


@pytest.mark.parametrize("seed", [0, 1, 2, 5])
def test_rollout_clt_agreement_on_random_mdps(seed):
    mdp = random_tabular_mdp(num_states=5, num_actions=2, seed=seed)
    rng = make_rng(1000 + seed)
    table = rng.uniform(0.1, 1.0, size=(5, 2))
    policy = TabularPolicy(table / table.sum(axis=1, keepdims=True))
    truth = exact_average_reward(mdp, policy)
    length = 20_000
    est = ground_truth_rollout(mdp, policy, length, seed=seed)
    spread = float(np.std(sample_trajectory(mdp, policy, length, seed=seed).rewards))
    assert abs(est - truth) <= 3.0 * spread / np.sqrt(length)


# ---------------------------------------------------------------------------
# aggregation


def test_aggregate_perfect_run_has_zero_error():
    report = aggregate("any", [0.25], truth=0.25)
    assert report.rmse == 0.0
    assert report.bias == 0.0
    assert report.std == 0.0
    assert report.median == 0.25
    assert report.runs == 1


def test_aggregate_symmetric_errors():
    report = aggregate("any", [1.5, -0.5], truth=0.5)
    assert report.rmse == 1.0
    assert report.bias == 0.0
    assert report.std == 1.0


def test_aggregate_error_decomposition_identity():
    rng = make_rng(14)
    estimates = rng.normal(loc=0.3, scale=0.7, size=20)
    report = aggregate("any", estimates, truth=0.1)
    assert abs(report.rmse**2 - report.bias**2 - report.std**2) <= 1e-12


def test_aggregate_quantiles_are_actual_estimates():
    estimates = [4.0, 1.0, 3.0, 2.0]
    report = aggregate("any", estimates, truth=0.0)
    assert report.q25 == 1.0
    assert report.median == 2.0
    assert report.q75 == 3.0
    for q in (report.q25, report.median, report.q75):
        assert q in estimates


def test_nearest_rank_on_sorted_values():
    values = [10.0, 20.0, 30.0, 40.0, 50.0]
    assert nearest_rank(values, 50.0) == 30.0
    assert nearest_rank(values, 25.0) == 20.0
    assert nearest_rank(values, 75.0) == 40.0
    assert nearest_rank(values, 100.0) == 50.0
    with pytest.raises(ValueError):
        nearest_rank([], 50.0)


# ---------------------------------------------------------------------------
# logged actions outside the policy's action set


def log_with_action(bad_action):
    """A 4-row two-state log whose second row logs `bad_action`."""
    return TransitionDataset(
        states=np.array([0, 1, 0, 1]),
        actions=np.array([0, bad_action, 1, 0]),
        rewards=np.array([1.0, 3.0, 2.0, 1.0]),
        next_states=np.array([1, 0, 1, 0]),
    )


def continuous_log_with_action(bad_action):
    states = make_rng(4).normal(size=(5, 2))
    return TransitionDataset(
        states=states[:4], actions=np.array([0, 1, bad_action, 0]),
        rewards=np.arange(4.0), next_states=states[1:],
    )


OUT_OF_RANGE = r"logged action {} at row {} is outside \[0, 2\): the policy has 2 actions"


@pytest.mark.parametrize("bad_action", [-1, 2])
def test_blackbox_rejects_an_action_outside_the_policy(bad_action):
    # a -1 used to be read as the last action: the estimate was 1.689 with no error
    policy = TabularPolicy([[0.7, 0.3], [0.4, 0.6]])
    with pytest.raises(ValueError, match=OUT_OF_RANGE.format(bad_action, 1)):
        blackbox_estimate(log_with_action(bad_action), policy)
    with pytest.raises(ValueError, match=OUT_OF_RANGE.format(bad_action, 2)):
        blackbox_estimate(continuous_log_with_action(bad_action), UniformPolicy(2),
                          RbfKernel(1.0, num_actions=2))


@pytest.mark.parametrize("bad_action", [-1, 2])
def test_model_based_rejects_an_action_outside_the_policy(bad_action):
    # a tabular -1 used to give 1.75 with no error; a continuous 2 an IndexError
    policy = TabularPolicy([[0.7, 0.3], [0.4, 0.6]])
    with pytest.raises(ValueError, match=OUT_OF_RANGE.format(bad_action, 1)):
        model_based_estimate(log_with_action(bad_action), policy)
    with pytest.raises(ValueError, match=OUT_OF_RANGE.format(bad_action, 2)):
        model_based_estimate(continuous_log_with_action(bad_action), UniformPolicy(2),
                             RbfKernel(1.0, num_actions=2))


@pytest.mark.parametrize("bad_action", [-1, 2])
def test_ips_rejects_an_action_outside_the_policy(bad_action):
    # a -1 used to give 1.84 with no error
    policy = TabularPolicy([[0.7, 0.3], [0.4, 0.6]])
    with pytest.raises(ValueError, match=OUT_OF_RANGE.format(bad_action, 1)):
        tabular_stationary_ips(log_with_action(bad_action), UniformPolicy(2), policy)
    with pytest.raises(ValueError, match=OUT_OF_RANGE.format(bad_action, 1)):
        tabular_stationary_ips(log_with_action(bad_action), policy, UniformPolicy(2))
    assert 1.0 <= tabular_stationary_ips(log_with_action(1), UniformPolicy(2), policy).estimate <= 3.0
