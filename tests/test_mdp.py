"""Core MDP types, trajectory generation, and the discounted reduction."""

import hashlib
import re

import numpy as np
import pytest

from bbope.envs import model_win, model_win_policy, random_tabular_mdp
from bbope.mdp import (
    FunctionPolicy,
    MixedPolicy,
    PolicyStateError,
    TabularMdp,
    TabularPolicy,
    Trajectory,
    TransitionDataset,
    UniformPolicy,
    dataset_from_trajectories,
    discount_to_average,
    mix_policies,
    sample_dataset,
    sample_trajectory,
)
from bbope.oracle import exact_average_reward, exact_discounted_value, exact_stationary
from bbope.rng import make_rng


def one_state_mdp(reward=0.0):
    return TabularMdp(
        transition=np.ones((1, 1, 1)),
        reward=np.array([[reward]]),
        start=np.array([1.0]),
    )


def three_state_chain():
    # ergodic 3-state, 1-action ring with some backflow
    P = np.array(
        [
            [[0.1, 0.8, 0.1]],
            [[0.2, 0.1, 0.7]],
            [[0.6, 0.3, 0.1]],
        ]
    )
    R = np.array([[1.0], [0.0], [-1.0]])
    return TabularMdp(transition=P, reward=R, start=np.array([1.0, 0.0, 0.0]))


def random_policy(num_states, num_actions, seed):
    rng = make_rng(seed)
    table = rng.uniform(0.1, 1.0, size=(num_states, num_actions))
    return TabularPolicy(table / table.sum(axis=1, keepdims=True))


def digest(*arrays):
    """SHA-256 over each array's dtype, shape and bytes, in order."""
    h = hashlib.sha256()
    for arr in arrays:
        arr = np.ascontiguousarray(arr)
        h.update(f"{arr.dtype.str}{arr.shape}".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# TabularMdp validation


def test_mdp_validates_row_sums():
    P = np.ones((1, 1, 1)) * 0.5
    with pytest.raises(ValueError):
        TabularMdp(transition=P, reward=np.zeros((1, 1)), start=np.array([1.0]))


def test_mdp_validates_start():
    with pytest.raises(ValueError):
        TabularMdp(
            transition=np.ones((1, 1, 1)),
            reward=np.zeros((1, 1)),
            start=np.array([0.7]),
        )


def test_mdp_rejects_negative_probabilities():
    P = np.array([[[1.5, -0.5]], [[0.5, 0.5]]])
    with pytest.raises(ValueError):
        TabularMdp(transition=P, reward=np.zeros((2, 1)), start=np.array([1.0, 0.0]))


@pytest.mark.parametrize("field", ["transition", "reward", "start"])
def test_mdp_rejects_nan(field):
    parts = dict(
        transition=np.array([[[0.5, 0.5]], [[0.5, 0.5]]]),
        reward=np.zeros((2, 1)),
        start=np.array([0.5, 0.5]),
    )
    parts[field].flat[0] = np.nan
    with pytest.raises(ValueError, match=f"{field} has non-finite entries"):
        TabularMdp(**parts)


def test_policy_rows_validate():
    with pytest.raises(ValueError):
        TabularPolicy(np.array([[0.6, 0.6]]))
    with pytest.raises(ValueError, match="policy row for state 1 sums to"):
        TabularPolicy([[0.5, 0.5], [0.6, 0.6], [np.nan, 1.0]])


def test_policy_rejects_nan():
    with pytest.raises(ValueError, match="non-finite"):
        TabularPolicy([[np.nan, 1.0]])
    rule = FunctionPolicy(lambda state: [np.nan, 1.0], 2)
    with pytest.raises(ValueError, match="non-finite"):
        rule.action_probabilities(0)
    with pytest.raises(ValueError, match="non-finite"):
        rule.prob_matrix(np.array([0, 1]))


def test_policy_copies_the_callers_table():
    table = np.array([[1.0 + 1e-13, -1e-13], [0.5, 0.5]])
    before = table.copy()
    policy = TabularPolicy(table)
    assert np.array_equal(table, before)
    assert policy.table[0, 1] == 0.0
    with pytest.raises(ValueError, match="num_states, num_actions"):
        TabularPolicy(np.array([0.5, 0.5]))


def test_function_policy_formats_a_state_only_when_a_check_fails():
    formatted = []

    class State:
        def __init__(self, p):
            self.p = p

        def __repr__(self):
            formatted.append(self.p)
            return f"State({self.p})"

    policy = FunctionPolicy(lambda state: [1.0 - state.p, state.p], 2, name="rule")
    assert np.array_equal(policy.action_probabilities(State(0.25)), [0.75, 0.25])
    assert np.array_equal(policy.prob_matrix([State(0.0), State(1.0)]), [[1.0, 0.0], [0.0, 1.0]])
    assert formatted == []
    with pytest.raises(ValueError, match=r"rule output at State\(1.5\) has negative entries"):
        policy.prob_matrix([State(0.5), State(1.5), State(2.0)])
    assert formatted == [1.5]
    with pytest.raises(PolicyStateError) as exc:
        FunctionPolicy(lambda state: [1.0], 2).prob_matrix([State(0.5)])
    assert exc.value.state.p == 0.5


# ---------------------------------------------------------------------------
# sample_trajectory


def test_trajectory_zero_reward_chain():
    traj = sample_trajectory(one_state_mdp(0.0), UniformPolicy(1), 10, seed=3)
    assert len(traj) == 10
    assert np.all(np.asarray(traj.rewards) == 0.0)
    assert traj.mean_reward() == 0.0


def test_trajectory_determinism():
    mdp = three_state_chain()
    pol = UniformPolicy(1)
    a = sample_trajectory(mdp, pol, 200, seed=11)
    b = sample_trajectory(mdp, pol, 200, seed=11)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.actions, b.actions)
    assert np.array_equal(a.rewards, b.rewards)
    assert a.final_state == b.final_state
    c = sample_trajectory(mdp, pol, 200, seed=12)
    assert not np.array_equal(a.states, c.states)


def test_trajectory_modelwin_long_run_mean():
    # exact stationary average on ModelWin(p=0.4) under the skewed policy
    mdp = model_win(0.4)
    pol = model_win_policy(0.9)
    truth = exact_average_reward(mdp, pol)
    assert abs(truth - (-0.08)) < 1e-12
    traj = sample_trajectory(mdp, pol, 50_000, seed=0)
    assert abs(traj.mean_reward() - truth) < 0.02


def test_trajectory_respects_support():
    mdp = three_state_chain()
    traj = sample_trajectory(mdp, UniformPolicy(1), 5000, seed=9)
    sources = np.asarray(traj.states)[:-1]
    nexts = np.asarray(traj.states)[1:]
    acts = np.asarray(traj.actions)
    assert np.all(mdp.transition[sources, acts, nexts] > 0.0)


def test_trajectory_undefined_policy_state_is_structured():
    mdp = three_state_chain()
    pol = TabularPolicy(np.array([[1.0]]))  # defined only for state 0
    with pytest.raises(PolicyStateError) as err:
        sample_trajectory(mdp, pol, 100, seed=4)
    assert "state" in str(err.value)


def test_visit_frequencies_match_exact_stationary():
    mdp = three_state_chain()
    pol = UniformPolicy(1)
    traj = sample_trajectory(mdp, pol, 100_000, seed=21)
    freq = np.bincount(np.asarray(traj.states)[:-1], minlength=3) / len(traj)
    marginal = exact_stationary(mdp, pol).state_marginal
    assert np.max(np.abs(freq - marginal)) < 0.02


# The exact bytes a seed yields: estimates and benchmark CSVs depend on them.
TRAJECTORY_DIGESTS = {
    "random": "80f90e85e546220d43797e815fa713db6bc0ae6c8e8e910134e414e51ffcfb7a",
    "modelwin": "c2fb01e42a386f60166daa25433b46206d6eaf506c652e960e36ac4368d8b7ab",
}


@pytest.mark.parametrize("world", sorted(TRAJECTORY_DIGESTS))
def test_trajectory_bytes_are_pinned(world):
    if world == "random":
        mdp, pol = random_tabular_mdp(30, 3, seed=3), random_policy(30, 3, seed=4)
    else:
        mdp, pol = model_win(0.4), model_win_policy(0.9)
    traj = sample_trajectory(mdp, pol, 500, seed=5)
    assert digest(traj.states, traj.actions, traj.rewards) == TRAJECTORY_DIGESTS[world]


# ---------------------------------------------------------------------------
# record validation: these checks must hold under python -O too


@pytest.mark.parametrize(
    "lengths,match",
    [((2, 2, 2), "got 2 states, 2 actions, 2 rewards"), ((3, 2, 1), "got 3 states, 2 actions, 1 rewards")],
)
def test_trajectory_rejects_mismatched_lengths(lengths, match):
    states, actions, rewards = (np.zeros(k, dtype=np.int64) for k in lengths)
    with pytest.raises(ValueError, match=match):
        Trajectory(states=states, actions=actions, rewards=rewards.astype(np.float64))


@pytest.mark.parametrize(
    "lengths,traj_starts,match",
    [
        ((3, 2, 5, 1), None, "got 3, 2, 5 and 1"),
        ((3, 3, 3, 3), [1, 2], r"traj_starts .* got \[1 2\]"),
        ((3, 3, 3, 3), [0, 2, 1], r"traj_starts .* got \[0 2 1\]"),
        ((3, 3, 3, 3), [0, 3], r"below the 3 transitions; got \[0 3\]"),
        ((3, 3, 3, 3), [], r"traj_starts .* got \[\]"),
        ((0, 0, 0, 0), [5, 3], r"an empty log has traj_starts \[0\]; got \[5 3\]"),
    ],
)
def test_transition_dataset_rejects_inconsistent_fields(lengths, traj_starts, match):
    states, actions, rewards, next_states = (np.zeros(k, dtype=np.int64) for k in lengths)
    with pytest.raises(ValueError, match=match):
        TransitionDataset(states=states, actions=actions, rewards=rewards.astype(np.float64),
                          next_states=next_states, traj_starts=traj_starts)


# ---------------------------------------------------------------------------
# dataset_from_trajectories


def test_dataset_single_trajectory():
    traj = sample_trajectory(three_state_chain(), UniformPolicy(1), 3, seed=1)
    ds = dataset_from_trajectories([traj])
    assert len(ds) == 3
    assert ds.traj_starts.tolist() == [0]


def test_dataset_two_trajectories():
    mdp = three_state_chain()
    pol = UniformPolicy(1)
    t1 = sample_trajectory(mdp, pol, 4, seed=1)
    t2 = sample_trajectory(mdp, pol, 8, seed=2)
    ds = dataset_from_trajectories([t1, t2])
    assert len(ds) == 12
    assert ds.traj_starts.tolist() == [0, 4]


def test_dataset_preserves_quadruples():
    mdp = three_state_chain()
    pol = UniformPolicy(1)
    trajs = [sample_trajectory(mdp, pol, 5, seed=s) for s in (3, 4)]
    ds = dataset_from_trajectories(trajs)
    k = 0
    for traj in trajs:
        for i in range(len(traj)):
            assert ds.states[k] == traj.states[i]
            assert ds.actions[k] == traj.actions[i]
            assert ds.rewards[k] == traj.rewards[i]
            assert ds.next_states[k] == traj.states[i + 1]
            k += 1


def test_dataset_rejects_empty():
    with pytest.raises(ValueError):
        dataset_from_trajectories([])


def test_dataset_successors_chain_within_trajectory():
    mdp = three_state_chain()
    ds = dataset_from_trajectories(
        [sample_trajectory(mdp, UniformPolicy(1), 6, seed=8)]
    )
    assert np.array_equal(ds.next_states[:-1], ds.states[1:])


# ---------------------------------------------------------------------------
# discount_to_average


def test_discount_to_average_near_one_limit():
    mdp = three_state_chain()
    reduced = discount_to_average(three_state_chain(), 1.0 - 1e-9)
    assert np.max(np.abs(reduced.transition - mdp.transition)) <= 2e-9


def test_discount_to_average_zero_resets_every_step():
    mdp = three_state_chain()
    reduced = discount_to_average(mdp, 0.0)
    for s in range(3):
        for a in range(1):
            assert np.allclose(reduced.transition[s, a], mdp.start)
    # average reward is the start-weighted one-step reward
    pol = UniformPolicy(1)
    expected = float(mdp.start @ (mdp.reward * pol.prob_matrix(np.arange(3))).sum(axis=1))
    assert abs(exact_average_reward(reduced, pol) - expected) < 1e-12


def test_discount_to_average_matches_discounted_value():
    mdp = model_win(0.4)
    pol = model_win_policy(0.9)
    reduced = discount_to_average(mdp, 0.9)
    lhs = exact_average_reward(reduced, pol)
    rhs = exact_discounted_value(mdp, pol, 0.9)
    assert abs(lhs - rhs) < 1e-9


@pytest.mark.parametrize("gamma", [0.0, 0.3, 0.9, 0.999])
def test_discount_to_average_rows_stay_stochastic(gamma):
    reduced = discount_to_average(three_state_chain(), gamma)
    sums = reduced.transition.sum(axis=2)
    assert np.max(np.abs(sums - 1.0)) < 1e-12
    assert np.min(reduced.transition) >= 0.0


def test_discount_to_average_rejects_bad_gamma():
    mdp = three_state_chain()
    with pytest.raises(ValueError):
        discount_to_average(mdp, 1.0)
    with pytest.raises(ValueError):
        discount_to_average(mdp, -0.1)


# ---------------------------------------------------------------------------
# mix_policies


def test_mix_alpha_endpoints():
    plus = TabularPolicy(np.array([[1.0, 0.0], [0.2, 0.8]]))
    minus = TabularPolicy(np.array([[0.5, 0.5], [0.5, 0.5]]))
    states = np.arange(2)
    assert np.allclose(mix_policies(plus, minus, 1.0).prob_matrix(states), plus.prob_matrix(states))
    assert np.allclose(mix_policies(plus, minus, 0.0).prob_matrix(states), minus.prob_matrix(states))


def test_mix_is_convex_combination():
    plus = TabularPolicy(np.array([[1.0, 0.0]]))
    minus = TabularPolicy(np.array([[0.5, 0.5]]))
    mixed = mix_policies(plus, minus, 0.7)
    assert np.allclose(mixed.prob_matrix(np.array([0])), [[0.85, 0.15]])


def test_mix_rejects_mismatched_action_sets():
    plus = TabularPolicy(np.array([[1.0, 0.0]]))
    minus = TabularPolicy(np.array([[0.2, 0.3, 0.5]]))
    with pytest.raises(ValueError):
        mix_policies(plus, minus, 0.5)


# ---------------------------------------------------------------------------
# sample_dataset


def test_sample_dataset_shape_and_determinism():
    mdp = three_state_chain()
    pol = UniformPolicy(1)
    ds = sample_dataset(mdp, pol, 3, 7, seed=99)
    assert len(ds) == 21
    assert ds.traj_starts.tolist() == [0, 7, 14]
    ds2 = sample_dataset(mdp, pol, 3, 7, seed=99)
    assert np.array_equal(ds.states, ds2.states)
    assert np.array_equal(ds.actions, ds2.actions)
    assert np.array_equal(ds.rewards, ds2.rewards)
    assert np.array_equal(ds.next_states, ds2.next_states)


def test_sample_dataset_budget_truncates_last_trajectory():
    mdp = three_state_chain()
    pol = UniformPolicy(1)
    ds = sample_dataset(mdp, pol, 3, 7, seed=99, total_budget=17)
    assert len(ds) == 17
    assert ds.traj_starts.tolist() == [0, 7, 14]
    with pytest.raises(ValueError):
        sample_dataset(mdp, pol, 3, 7, seed=99, total_budget=30)


def test_sample_dataset_same_log_for_every_policy_type():
    # a mixture, a rule and a table with equal probabilities log identically
    mdp = model_win(0.4)
    first, second = model_win_policy(0.7), model_win_policy(0.2)
    table = mix_policies(first, second, 0.3)
    mixed = MixedPolicy(first, second, 0.3)
    rule = FunctionPolicy(lambda state: table.table[int(state)], 2)
    logs = [sample_dataset(mdp, pol, 6, 9, seed=5, total_budget=50) for pol in (table, mixed, rule)]
    for ds in logs[1:]:
        assert np.array_equal(ds.states, logs[0].states)
        assert np.array_equal(ds.actions, logs[0].actions)
        assert np.array_equal(ds.next_states, logs[0].next_states)


def test_sample_dataset_within_trajectory_chaining():
    mdp = three_state_chain()
    ds = sample_dataset(mdp, UniformPolicy(1), 4, 5, seed=3)
    for lo, hi in zip(ds.traj_starts, list(ds.traj_starts[1:]) + [len(ds)]):
        assert np.array_equal(ds.next_states[lo : hi - 1], ds.states[lo + 1 : hi])


# (S, A, T, budget): 5 trajectories of length T, pooled in full or cut to
# 4*T + ceil(T/2) transitions (at T = 1 no cut is possible).  Pins the
# exact bytes of every field.
DATASET_DIGESTS = {
    (30, 3, 1, "full"): "96038bb11f75fc38cf8a68ed56d534fc9e86f3e8ea27fb84c59fea0495f91a19",
    (30, 3, 4, "full"): "c699c282615b54765ee59ffd68cba952873ee83138af2163375761e07360b190",
    (30, 3, 4, "cut"): "3b2bd049c6437e29600ffc77ae9fdcef70ca562015e6a07c1dbbf51c47cdc774",
    (30, 3, 128, "full"): "a0afe596ae959335207f675444f54e297c742ca66db28bd8390a9c99f3c32930",
    (30, 3, 128, "cut"): "556263d07ff10b9f4b8fb692e07db7efe24e5fda4a9149b278f0aa13848d1349",
    (3, 2, 1, "full"): "e9c14e6eb97aaed6bc38f680b2231bf8ef8a6a3213638a6fdb96ea86cf0df77e",
    (3, 2, 4, "full"): "77ac55f1ec689aff0751787bdc4194e27bc22b9fe8675f705a87d1049bdf1700",
    (3, 2, 4, "cut"): "56559902f919395de3772ee603d4a27bac4bbe8851145fa23bd472ecddd9f472",
    (3, 2, 128, "full"): "0e94ed20f2400d81beea7b128f8f2091adf3fbb50e4f96fb24ddfce7c516e595",
    (3, 2, 128, "cut"): "3e03101bdee046cf4bbe16ee062023a4d36a0df1928580e990353bad3501763e",
    (5, 1, 1, "full"): "0eac41e579a4e83a840c739080db6a98ded74a3e311e017a71c92e3ab6ddf7e8",
    (5, 1, 4, "full"): "f69d6ef15961e78d4b235b9a0a5e4e905b09a08ee8daefbac138dbf1b0022411",
    (5, 1, 4, "cut"): "dc5c415bf76c45ce87cc73b47d264c81c7ca4f84a2840f9611e20d5c5bcf81cc",
    (5, 1, 128, "full"): "64809357b16999430b1fc4d17ca5f649ef734af56b8f96d57eefc9583851c9c3",
    (5, 1, 128, "cut"): "1bd6250e47e8dfedae56485a5b13f4af1d799cd14c0b0e933732e4d0d7c74edc",
}


@pytest.mark.parametrize("S,A,T,budget", sorted(DATASET_DIGESTS))
def test_sample_dataset_bytes_are_pinned(S, A, T, budget):
    mdp, pol = random_tabular_mdp(S, A, seed=S), random_policy(S, A, seed=A)
    total = None if budget == "full" else 4 * T + (T + 1) // 2
    ds = sample_dataset(mdp, pol, 5, T, seed=T, total_budget=total)
    fields = (ds.states, ds.actions, ds.rewards, ds.next_states, ds.traj_starts)
    assert digest(*fields) == DATASET_DIGESTS[S, A, T, budget]


# ---------------------------------------------------------------------------
# action_probabilities is prob_matrix's one-row case


def outcome(call):
    """The bytes a policy call returns, or the type and message it raises."""
    try:
        row = call()
    except ValueError as exc:
        return type(exc), str(exc)
    return row.dtype.str, row.shape, row.tobytes()


def test_action_probabilities_match_prob_matrix_bit_for_bit():
    rng = make_rng(3)
    table = rng.dirichlet(np.ones(4), size=6)
    tabular = TabularPolicy(table)
    uniform = UniformPolicy(4)
    rule = FunctionPolicy(lambda s: table[int(s[0]) % 6] * (1.0 + 1e-13) - 1e-13 / 4, 4)
    for policy in (tabular, uniform, rule, MixedPolicy(rule, uniform, 0.3),
                   MixedPolicy(uniform, rule, 1.0 / 3.0)):
        for s in range(6):
            state = s if policy is tabular else np.array([float(s), 0.5])
            row = policy.action_probabilities(state)
            assert outcome(lambda: row) == outcome(lambda: policy.prob_matrix([state])[0])


@pytest.mark.parametrize("num_actions", [1, 2, 3, 5, 7, 8, 9, 12])
def test_function_policy_row_check_matches_prob_matrix_near_every_bound(num_actions):
    # rows whose sum or smallest entry sits at either side of the 1e-9 / -1e-12 bounds
    rng = make_rng(num_actions)
    offsets = [0.0, 9.99e-10, 1.0e-9, 1.001e-9, -1.0e-9, -1.001e-9, 1e-3]
    rows = []
    for _ in range(60):
        row = rng.dirichlet(np.ones(num_actions)) * rng.uniform(0.5, 1.5)
        row /= row.sum()
        row[rng.integers(num_actions)] += offsets[rng.integers(len(offsets))]
        rows.append(row)
    rows += [np.r_[1.0 + 1e-12, np.full(num_actions - 1, -1e-12 / max(num_actions - 1, 1))],
             np.r_[1.0, np.full(num_actions - 1, -0.0)]]
    if num_actions > 1:
        rows += [np.r_[1.0 + 2e-12, -1.1e-12, np.zeros(num_actions - 2)]]
    for row in rows:
        policy = FunctionPolicy(lambda s, row=row: row, num_actions, name="rule")
        got = outcome(lambda: policy.action_probabilities(0.5))
        assert got == outcome(lambda: policy.prob_matrix([0.5])[0])
        if len(got) == 3:
            assert policy.action_probabilities(0.5) is not row


@pytest.mark.parametrize("output, problem", [
    ([np.nan, 1.0], "has non-finite entries"),
    ([np.inf, 0.0], "has non-finite entries"),
    ([np.inf, -np.inf], "has non-finite entries"),
    ([1.5, -0.5], "has negative entries"),
    ([0.6, 0.6], r"sums to (np\.float64\()?1\.2\)?, not 1"),
    ([0.1, 0.2, 0.7], None),
    ([[0.5, 0.5]], None),
    (0.5, None),
])
def test_bad_rule_rows_raise_alike_on_both_paths(output, problem):
    rule = FunctionPolicy(lambda s: output, 2, name="rule")
    mixed = MixedPolicy(rule, UniformPolicy(2), 0.5)
    for policy in (rule, mixed):
        one = outcome(lambda: policy.action_probabilities(0.25))
        assert one == outcome(lambda: policy.prob_matrix([0.25])[0])
        if problem is None:
            assert one[0] is PolicyStateError and "rule returned shape" in one[1]
        else:
            assert one[0] is ValueError and re.fullmatch(f"rule output at 0.25 {problem}", one[1])


def test_function_policy_returns_a_fresh_row():
    out = np.array([0.25, 0.75])
    policy = FunctionPolicy(lambda s: out, 2)
    row = policy.action_probabilities(0)
    assert row is not out and not np.shares_memory(row, out)
    row[0] = 9.0
    assert out.tolist() == [0.25, 0.75]
    assert policy.action_probabilities(0).dtype == np.float64
