"""Kernels, bandwidth selection, Gram-block assembly, kernel transforms."""

import hashlib
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from bbope.envs import model_win, model_win_policy, random_tabular_mdp
from bbope.kernels import (
    DeltaKernel,
    RbfKernel,
    TransformedKernel,
    assemble_combined,
    assemble_matrices,
    median_bandwidth,
    smoothed_transition_matrix,
    state_standardizer,
)
from bbope.mdp import (
    FunctionPolicy,
    TabularMdp,
    TabularPolicy,
    TransitionDataset,
    UniformPolicy,
    sample_dataset,
)
from bbope.rng import make_rng

from flow_reference import dense_flow


def random_policy(num_states, num_actions, seed):
    rng = make_rng(seed)
    table = rng.uniform(0.1, 1.0, size=(num_states, num_actions))
    return TabularPolicy(table / table.sum(axis=1, keepdims=True))


def tabular_dataset(seed=0, n_traj=3, length=5):
    mdp = model_win(0.4)
    return sample_dataset(mdp, model_win_policy(0.7), n_traj, length, seed=seed)


def continuous_dataset(n, seed, dim=2):
    """n random transitions in R^dim with successors near their states."""
    rng = make_rng(seed)
    states = rng.normal(size=(n, dim))
    return TransitionDataset(
        states=states,
        actions=rng.integers(0, 2, size=n),
        rewards=rng.normal(size=n),
        next_states=states + 0.3 * rng.normal(size=(n, dim)),
    )


def tilted_policy():
    """A two-action policy on continuous states whose probabilities vary with s[0]."""
    def rule(state):
        p = 1.0 / (1.0 + np.exp(-state[0]))
        return [p, 1.0 - p]
    return FunctionPolicy(rule, 2)


# ---------------------------------------------------------------------------
# RBF kernel


def test_rbf_self_similarity_is_one():
    k = RbfKernel(bandwidth=1.3, num_actions=3)
    rng = make_rng(1)
    for _ in range(5):
        x = (rng.normal(size=4), int(rng.integers(3)))
        assert abs(k.evaluate(x, x) - 1.0) < 1e-15


def test_rbf_action_mismatch_factor():
    b = 1.7
    k = RbfKernel(bandwidth=b, action_scale=1.0, num_actions=2)
    state = np.array([0.3, -0.8])
    value = k.evaluate((state, 0), (state, 1))
    assert abs(value - np.exp(-1.0 / b**2)) < 1e-15
    assert abs(value - k.action_factor) < 1e-15


def test_rbf_symmetry_on_random_pairs():
    k = RbfKernel(bandwidth=0.9, action_scale=1.4, num_actions=4)
    rng = make_rng(2)
    for _ in range(100):
        x = (rng.normal(size=3), int(rng.integers(4)))
        y = (rng.normal(size=3), int(rng.integers(4)))
        assert abs(k.evaluate(x, y) - k.evaluate(y, x)) < 1e-15


def test_rbf_validates_arguments():
    with pytest.raises(ValueError):
        RbfKernel(bandwidth=0.0, num_actions=2)
    with pytest.raises(ValueError):
        RbfKernel(bandwidth=-1.0, num_actions=2)
    with pytest.raises(ValueError):
        RbfKernel(bandwidth=1.0)  # action count is mandatory
    with pytest.raises(ValueError):
        # integer states need the one-hot dimension up front
        RbfKernel(bandwidth=1.0, num_actions=2).state_features(np.array([0, 1]))


def test_rbf_standardization_shifts_and_scales():
    k = RbfKernel(
        bandwidth=1.0,
        num_actions=2,
        state_shift=np.array([1.0, -2.0]),
        state_scale=np.array([2.0, 0.5]),
    )
    feats = k.state_features(np.array([[3.0, -1.0]]))
    assert np.allclose(feats, [[1.0, 2.0]])


def test_rbf_tabular_states_embed_one_hot():
    k = RbfKernel(bandwidth=1.0, num_actions=2, num_states=3)
    feats = k.state_features(np.array([0, 2]))
    assert np.array_equal(feats, [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    # distinct states at one-hot distance sqrt(2), same action
    value = k.evaluate((np.int64(0), 1), (np.int64(2), 1))
    assert abs(value - np.exp(-1.0)) < 1e-15


# ---------------------------------------------------------------------------
# exact-match kernel


def test_delta_kernel_matches_exactly():
    k = DeltaKernel(num_actions=2)
    assert k.evaluate((np.int64(3), 1), (np.int64(3), 1)) == 1.0
    assert k.evaluate((np.int64(3), 1), (np.int64(3), 0)) == 0.0
    assert k.evaluate((np.int64(3), 1), (np.int64(2), 1)) == 0.0


def test_delta_gram_of_distinct_pairs_is_identity():
    k = DeltaKernel(num_actions=2)
    states = np.array([0, 0, 1, 2])
    actions = np.array([0, 1, 0, 1])
    assert np.array_equal(k.gram((states, actions), (states, actions)), np.eye(4))


def test_delta_kernel_rejects_continuous_states():
    k = DeltaKernel(num_actions=2)
    with pytest.raises(ValueError):
        k.gram((np.array([[0.5, 1.0]]), np.array([0])), (np.array([[0.5, 1.0]]), np.array([0])))


def gram_oracle(kernel, sa_x, sa_y):
    """k((s,a), (t,b)) from the definitions, by direct differences."""
    (sx, ax), (sy, ay) = sa_x, sa_y
    if isinstance(kernel, DeltaKernel):
        return ((sx[:, None] == sy[None, :]) & (ax[:, None] == ay[None, :])).astype(float)
    diff = kernel.features(sx, ax)[:, None, :] - kernel.features(sy, ay)[None, :, :]
    return np.exp(-np.sum(diff**2, axis=2) / (2.0 * kernel.bandwidth**2))


@pytest.mark.parametrize("case", ["delta", "delta_int32", "rbf_tabular", "rbf_continuous"])
def test_gram_matches_an_independent_oracle(case):
    rng = make_rng(23)
    ax, ay = rng.integers(3, size=40), rng.integers(3, size=30)
    if case == "rbf_continuous":
        kernel = RbfKernel(1.3, action_scale=0.8, num_actions=3,
                           state_shift=np.array([0.5, -1.0]), state_scale=np.array([2.0, 0.5]))
        sx, sy = rng.normal(size=(40, 2)), rng.normal(size=(30, 2))
    else:
        sx, sy = rng.integers(5, size=40), rng.integers(5, size=30)
        if case == "delta_int32":
            sx, sy = sx.astype(np.int32), sy.astype(np.int32)
        kernel = (RbfKernel(0.9, action_scale=1.2, num_actions=3, num_states=5)
                  if case == "rbf_tabular" else DeltaKernel(3))
    got = kernel.gram((sx, ax), (sy, ay))
    want = gram_oracle(kernel, (sx, ax), (sy, ay))
    assert got.shape == (40, 30) and got.dtype == np.float64
    if isinstance(kernel, DeltaKernel):
        assert np.array_equal(got, want)
    else:
        assert np.max(np.abs(got - want)) < 1e-12
        assert 0.0 < want.min() and want.max() <= 1.0  # the oracle is not vacuous


# ---------------------------------------------------------------------------
# bandwidth heuristic


def test_median_bandwidth_two_points():
    pts = np.array([[0.0, 0.0], [3.0, 4.0]])  # distance 5
    for q in (25.0, 50.0, 75.0):
        assert median_bandwidth(pts, q) == 5.0


def test_median_bandwidth_nearest_rank_values():
    pts = np.array([[0.0], [1.0], [3.0]])  # pairwise distances {1, 2, 3}
    assert median_bandwidth(pts, 50.0) == 2.0
    assert median_bandwidth(pts, 25.0) == 1.0
    assert median_bandwidth(pts, 75.0) == 3.0


def test_median_bandwidth_lower_nearest_rank_rule():
    pts = np.array([[0.0], [1.0], [3.0], [7.0]])
    # six pairwise distances, sorted: 1, 2, 3, 4, 6, 7
    sorted_d = np.array([1.0, 2.0, 3.0, 4.0, 6.0, 7.0])
    for q in (25.0, 50.0, 75.0):
        rank = int(np.ceil(q / 100.0 * 6))
        assert median_bandwidth(pts, q) == sorted_d[rank - 1]


def test_median_bandwidth_permutation_invariant():
    rng = make_rng(3)
    pts = rng.normal(size=(12, 3))
    perm = rng.permutation(12)
    for q in (25.0, 50.0, 75.0):
        assert median_bandwidth(pts, q) == median_bandwidth(pts[perm], q)


def test_median_bandwidth_degenerate_inputs():
    with pytest.raises(ValueError):
        median_bandwidth(np.array([[1.0, 2.0]]))  # one point
    with pytest.raises(ValueError):
        median_bandwidth(np.zeros((3, 2)))  # all distances zero
    with pytest.raises(ValueError):
        median_bandwidth(np.array([[0.0], [1.0]]), percentile=0.0)


def test_state_standardizer_moments():
    rng = make_rng(4)
    states = rng.normal(loc=2.0, scale=3.0, size=(500, 2))
    mean, std = state_standardizer(states)
    assert np.allclose(mean, states.mean(axis=0))
    assert np.allclose(std, states.std(axis=0))
    # constant coordinate gets the floor, not a zero divisor
    _, std0 = state_standardizer(np.ones((5, 1)))
    assert std0[0] == 1e-8


# ---------------------------------------------------------------------------
# Gram-block assembly


def nested_loop_blocks(dataset, policy, kernel):
    """Direct per-entry evaluation of all three blocks (test oracle)."""
    n = len(dataset)
    pi = policy.prob_matrix(dataset.next_states)
    A = pi.shape[1]

    def pair(i):
        return (dataset.states[i], int(dataset.actions[i]))

    def succ(i, a):
        return (dataset.next_states[i], a)

    point = np.array([[kernel.evaluate(pair(i), pair(j)) for j in range(n)] for i in range(n)])
    cross = np.array(
        [
            [sum(pi[j, b] * kernel.evaluate(pair(i), succ(j, b)) for b in range(A)) for j in range(n)]
            for i in range(n)
        ]
    )
    successor = np.array(
        [
            [
                sum(
                    pi[i, a] * pi[j, b] * kernel.evaluate(succ(i, a), succ(j, b))
                    for a in range(A)
                    for b in range(A)
                )
                for j in range(n)
            ]
            for i in range(n)
        ]
    )
    return point, cross, successor


def test_assembly_point_block_identity_for_distinct_pairs():
    ds = tabular_dataset(seed=1, n_traj=1, length=2)
    assert len({(int(s), int(a)) for s, a in zip(ds.states, ds.actions)}) == 2
    point, _, _ = assemble_matrices(ds, model_win_policy(0.9), DeltaKernel(2))
    assert np.array_equal(point, np.eye(2))


def test_assembly_cross_block_deterministic_policy():
    ds = tabular_dataset(seed=2, n_traj=2, length=4)
    pol = TabularPolicy(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]))
    kernel = RbfKernel(bandwidth=0.8, num_actions=2, num_states=3)
    _, cross, _ = assemble_matrices(ds, pol, kernel)
    chosen = np.argmax(pol.prob_matrix(ds.next_states), axis=1)
    n = len(ds)
    expected = np.array(
        [
            [
                kernel.evaluate(
                    (ds.states[i], int(ds.actions[i])), (ds.next_states[j], int(chosen[j]))
                )
                for j in range(n)
            ]
            for i in range(n)
        ]
    )
    assert np.max(np.abs(cross - expected)) < 1e-14


@pytest.mark.parametrize(
    "kernel_factory",
    [
        lambda: DeltaKernel(2),
        lambda: RbfKernel(bandwidth=0.9, action_scale=1.3, num_actions=2, num_states=3),
    ],
)
def test_assembly_matches_nested_loop_oracle(kernel_factory):
    ds = tabular_dataset(seed=3, n_traj=1, length=2)
    pol = model_win_policy(0.9)
    kernel = kernel_factory()
    point, cross, successor = nested_loop_blocks(ds, pol, kernel)
    dense = assemble_matrices(ds, pol, kernel)
    for got, want in zip(dense, (point, cross, successor)):
        assert np.max(np.abs(got - want)) < 1e-13
    combined, _ = dense_flow(ds, pol, kernel)
    assert np.max(np.abs(combined - (point - 2 * cross + successor))) < 1e-12


def test_kernel_matrices_invariants():
    ds = tabular_dataset(seed=4, n_traj=3, length=6)
    pol = model_win_policy(0.9)
    for kernel in (DeltaKernel(2), RbfKernel(bandwidth=1.1, num_actions=2, num_states=3)):
        point, cross, successor = assemble_matrices(ds, pol, kernel)
        combined, mats = dense_flow(ds, pol, kernel)
        assert np.max(np.abs(point - point.T)) < 1e-14
        assert np.max(np.abs(successor - successor.T)) < 1e-14
        rng = make_rng(5)
        for _ in range(20):
            w = rng.normal(size=mats.n)
            quad = w @ combined @ w
            assert quad >= -1e-9 * float(w @ w)
            parts = w @ point @ w - 2 * (w @ cross @ w) + w @ successor @ w
            assert abs(quad - parts) < 1e-12 * max(1.0, abs(quad))
            assert abs(w @ mats.matvec(w) - quad) < 1e-12 * max(1.0, abs(quad))


def test_delta_successor_block_closed_form():
    ds = tabular_dataset(seed=6, n_traj=2, length=5)
    pol = model_win_policy(0.9)
    _, _, successor = assemble_matrices(ds, pol, DeltaKernel(2))
    pi = pol.prob_matrix(ds.next_states)
    same = (np.asarray(ds.next_states)[:, None] == np.asarray(ds.next_states)[None, :])
    expected = (pi @ pi.T) * same
    assert np.max(np.abs(successor - expected)) < 1e-14


def test_assemble_combined_matches_dense_paths():
    ds = tabular_dataset(seed=7, n_traj=3, length=7)
    assert len(ds) == 21  # block 3 tiles the rows; blocks 4 and 5 leave a ragged last block
    pol = model_win_policy(0.9)
    for kernel in (DeltaKernel(2), RbfKernel(bandwidth=0.9, num_actions=2, num_states=3)):
        _, dense = dense_flow(ds, pol, kernel)
        for dtype, tol in ((np.float64, 1e-12), (np.float32, 1e-5)):
            lean = assemble_combined(ds, pol, kernel, dtype=dtype)
            assert [f.name for f in fields(lean)] == ["sym"]
            assert lean.sym.dtype == dtype
            assert np.array_equal(lean.sym, lean.sym.T)
            assert np.max(np.abs(lean.sym - dense.sym)) < tol
            for block in (3, 4, 5):
                blocked = assemble_combined(ds, pol, kernel, dtype=dtype, block=block).sym
                assert np.array_equal(blocked, blocked.T)
                if dtype is np.float64:
                    assert np.array_equal(blocked, lean.sym)
                else:  # float32 BLAS may round products of tiny blocks differently
                    assert np.max(np.abs(blocked - lean.sym)) < 1e-6


def test_assemble_combined_continuous_off_diagonal_blocks_match_dense():
    ds = continuous_dataset(30, seed=20)
    pol = tilted_policy()
    kernel = RbfKernel(bandwidth=1.3, action_scale=0.8, num_actions=2)
    dense = dense_flow(ds, pol, kernel)[1].sym
    for block in (7, 8, 30):  # 5, 4 and 1 blocks on each side
        lean = assemble_combined(ds, pol, kernel, block=block).sym
        assert np.array_equal(lean, lean.T)
        assert np.max(np.abs(lean - dense)) < 1e-12


def peak_bytes_per_entry(build, n):
    """Peak traced allocation while build() makes its n-by-n result, per entry."""
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1] / n**2
    finally:
        tracemalloc.stop()


def test_assemble_combined_peak_memory_is_the_float32_output_plus_blocks():
    ds = continuous_dataset(600, seed=21, dim=4)
    pol = tilted_policy()
    kernel = RbfKernel(bandwidth=1.5, num_actions=2)
    per_entry = peak_bytes_per_entry(
        lambda: assemble_combined(ds, pol, kernel, dtype=np.float32, block=32), len(ds))
    assert per_entry < 5.0  # 4 bytes for the output, O(block**2) for the rest


def test_smoothed_chain_peak_memory_is_one_float64_matrix():
    ds = continuous_dataset(600, seed=22, dim=4)
    pol = tilted_policy()
    kernel = RbfKernel(bandwidth=1.5, num_actions=2)
    per_entry = peak_bytes_per_entry(
        lambda: smoothed_transition_matrix(ds, pol, kernel, dtype=np.float32, block=32), len(ds))
    assert per_entry < 10.0  # the float64 result; no float32 copy of it


def test_smoothed_chain_frees_each_row_block_before_the_next():
    n, block = 2000, 1024
    ds = continuous_dataset(n, seed=23, dim=4)
    kernel = RbfKernel(bandwidth=1.5, num_actions=2)
    per_entry = peak_bytes_per_entry(
        lambda: smoothed_transition_matrix(ds, UniformPolicy(2), kernel, dtype=np.float32,
                                           block=block), n)
    # the float64 result, the block being built plus one float32 temporary, 1 MiB slack
    assert per_entry * n**2 <= 8 * n**2 + 2 * (block * n * 4) + 2**20


def test_assemble_combined_and_chain_reject_other_kernels_alike():
    ds = tabular_dataset(seed=8, n_traj=2, length=4)
    pol = model_win_policy(0.9)
    base = RbfKernel(bandwidth=1.0, num_actions=2, num_states=3)
    kt = TransformedKernel(base, model_win(0.4), pol)
    messages = []
    for build in (assemble_combined, smoothed_transition_matrix):
        with pytest.raises(ValueError, match="RbfKernel and DeltaKernel") as exc:
            build(ds, pol, kt)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]
    assert "assemble_matrices" in messages[0]  # the dense path that takes any kernel


def test_assemble_combined_float32_close_to_float64():
    ds = tabular_dataset(seed=9, n_traj=4, length=8)
    pol = model_win_policy(0.9)
    kernel = RbfKernel(bandwidth=1.2, num_actions=2, num_states=3)
    f64 = assemble_combined(ds, pol, kernel).sym
    f32 = assemble_combined(ds, pol, kernel, dtype=np.float32).sym
    assert f32.dtype == np.float32
    assert np.max(np.abs(f32.astype(np.float64) - f64)) < 1e-5


# ---------------------------------------------------------------------------
# transformed kernel


def test_transformed_kernel_deterministic_closed_form():
    # deterministic 3-cycle with a deterministic policy: the expectation
    # collapses to the four-term combination with fixed successors
    P = np.zeros((3, 1, 3))
    P[0, 0, 1] = P[1, 0, 2] = P[2, 0, 0] = 1.0
    mdp = TabularMdp(P, np.zeros((3, 1)), np.array([1.0, 0.0, 0.0]))
    pol = UniformPolicy(1)
    base = RbfKernel(bandwidth=0.8, num_actions=1, num_states=3)
    kt = TransformedKernel(base, mdp, pol)
    nxt = {0: 1, 1: 2, 2: 0}
    for sx in range(3):
        for sy in range(3):
            x, y = (np.int64(sx), 0), (np.int64(sy), 0)
            xs, ys = (np.int64(nxt[sx]), 0), (np.int64(nxt[sy]), 0)
            expected = (
                base.evaluate(x, y)
                - base.evaluate(x, ys)
                - base.evaluate(xs, y)
                + base.evaluate(xs, ys)
            )
            assert abs(kt.evaluate(x, y) - expected) < 1e-12


def test_transformed_kernel_symmetry():
    mdp = random_tabular_mdp(4, 2, seed=10)
    pol = random_policy(4, 2, seed=11)
    base = RbfKernel(bandwidth=1.0, action_scale=0.7, num_actions=2, num_states=4)
    kt = TransformedKernel(base, mdp, pol)
    states = np.repeat(np.arange(4), 2)
    actions = np.tile(np.arange(2), 4)
    G = kt.gram((states, actions), (states, actions))
    assert np.max(np.abs(G - G.T)) < 1e-12


def test_transformed_kernel_gram_is_psd():
    mdp = random_tabular_mdp(4, 2, seed=12)
    pol = random_policy(4, 2, seed=13)
    base = RbfKernel(bandwidth=1.0, num_actions=2, num_states=4)
    kt = TransformedKernel(base, mdp, pol)
    states = np.repeat(np.arange(4), 2)
    actions = np.tile(np.arange(2), 4)
    G = kt.gram((states, actions), (states, actions))
    assert np.min(np.linalg.eigvalsh(0.5 * (G + G.T))) >= -1e-9


def test_transformed_kernel_rejects_continuous_states():
    mdp = model_win(0.4)
    kt = TransformedKernel(
        RbfKernel(bandwidth=1.0, num_actions=2, num_states=3), mdp, model_win_policy(0.9)
    )
    with pytest.raises(ValueError):
        kt.gram((np.array([[0.1]]), np.array([0])), (np.array([[0.1]]), np.array([0])))


# ---------------------------------------------------------------------------
# smoothed transition chain


def count_chain_oracle(dataset, policy, num_actions, ridge):
    """Empirical count-based pair chain (independent of the kernel path)."""
    n = len(dataset)
    triples = {}
    for j in range(n):
        key = (int(dataset.states[j]), int(dataset.actions[j]))
        triples.setdefault(key, []).append(j)
    pi = policy.prob_matrix(dataset.next_states)
    raw = np.zeros((n, n))
    for i in range(n):
        s_next = int(dataset.next_states[i])
        for b in range(num_actions):
            anchors = triples.get((s_next, b), [])
            if not anchors:
                continue  # unmatched successor action: mass renormalizes away
            for j in anchors:
                raw[i, j] += pi[i, b] / len(anchors)
    raw[np.arange(n), np.arange(n)] += ridge
    return raw / raw.sum(axis=1, keepdims=True)


def test_smoothed_chain_delta_equals_count_chain():
    ds = tabular_dataset(seed=14, n_traj=3, length=8)
    pol = model_win_policy(0.9)
    P = smoothed_transition_matrix(ds, pol, DeltaKernel(2), ridge=1e-6)
    oracle = count_chain_oracle(ds, pol, 2, ridge=1e-6)
    assert np.max(np.abs(P - oracle)) < 1e-14


def test_smoothed_chain_rows_are_stochastic():
    ds = tabular_dataset(seed=15, n_traj=2, length=10)
    pol = model_win_policy(0.9)
    for kernel in (DeltaKernel(2), RbfKernel(bandwidth=0.7, num_actions=2, num_states=3)):
        P = smoothed_transition_matrix(ds, pol, kernel)
        assert np.max(np.abs(P.sum(axis=1) - 1.0)) < 1e-12
        assert np.min(P) >= 0.0


def test_smoothed_chain_blocked_equals_unblocked():
    ds = tabular_dataset(seed=16, n_traj=3, length=9)
    pol = model_win_policy(0.9)
    kernel = RbfKernel(bandwidth=0.9, num_actions=2, num_states=3)
    assert np.array_equal(
        smoothed_transition_matrix(ds, pol, kernel, block=4),
        smoothed_transition_matrix(ds, pol, kernel),
    )


def test_smoothed_chain_narrow_bandwidth_approaches_exact_match():
    ds = tabular_dataset(seed=17, n_traj=3, length=8)
    pol = model_win_policy(0.9)
    narrow = RbfKernel(bandwidth=0.05, num_actions=2, num_states=3)
    P_rbf = smoothed_transition_matrix(ds, pol, narrow, ridge=1e-12)
    P_delta = smoothed_transition_matrix(ds, pol, DeltaKernel(2), ridge=1e-12)
    assert np.max(np.abs(P_rbf - P_delta)) < 1e-9


def test_smoothed_chain_renormalizes_unmatched_successor_actions():
    # one anchor at (s=1, a=0) only: successor mass for (1, 1) must fold
    # into the matched action rather than vanish from the row
    ds_states = np.array([0, 1])
    ds = type(tabular_dataset())(
        states=ds_states,
        actions=np.array([0, 0]),
        rewards=np.zeros(2),
        next_states=np.array([1, 0]),
    )
    pol = TabularPolicy(np.array([[0.5, 0.5], [0.5, 0.5]]))
    P = smoothed_transition_matrix(ds, pol, DeltaKernel(2), ridge=0.0)
    # row 0: successor state 1, anchors for (1,0) = {sample 1}, none for (1,1)
    assert np.allclose(P[0], [0.0, 1.0])
    # row 1: successor state 0, anchors for (0,0) = {sample 0}
    assert np.allclose(P[1], [1.0, 0.0])


def test_smoothed_chain_unmatched_rows_restart_without_ridge():
    ds = type(tabular_dataset())(
        states=np.array([0, 1]),
        actions=np.array([0, 0]),
        rewards=np.zeros(2),
        next_states=np.array([1, 2]),  # successor state 2 never appears as a source
    )
    counts = np.array([1.0, 3.0])
    pol = TabularPolicy(np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]]))
    P = smoothed_transition_matrix(ds, pol, DeltaKernel(2), ridge=0.0, counts=counts)
    assert np.array_equal(P[0], [0.0, 1.0])
    # no anchor for state 2: restart at the count-weighted anchors
    assert np.array_equal(P[1], [0.25, 0.75])
    # an anchor that the policy never picks is no match either
    never = TabularPolicy(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]))
    P = smoothed_transition_matrix(ds, never, DeltaKernel(2), ridge=0.0, counts=counts)
    assert np.array_equal(P, [[0.25, 0.75], [0.25, 0.75]])
    with pytest.raises(ValueError, match="ridge"):
        smoothed_transition_matrix(ds, pol, DeltaKernel(2), ridge=-1e-6)


@pytest.mark.parametrize("counts, ridge, message", [
    ([0.0, 0.0, 0.0, 0.0], 0.0, "counts must have a positive sum"),
    ([np.nan, 1.0, 1.0, 1.0], 0.0, "counts must be finite"),
    ([1.0, -1.0, 1.0, 1.0], 0.0, "counts must be non-negative"),
    ([1.0, 1.0, 1.0], 0.0, r"counts has shape \(3,\), the dataset has 4 rows; pass one"),
    (None, np.nan, "ridge must be finite and non-negative, got nan"),
    (None, np.inf, "ridge must be finite and non-negative, got inf"),
])
def test_smoothed_chain_rejects_bad_counts_and_ridge(counts, ridge, message):
    ds = type(tabular_dataset())(
        states=np.array([0, 1, 1, 2]),
        actions=np.array([0, 1, 0, 1]),
        rewards=np.zeros(4),
        next_states=np.array([1, 2, 0, 1]),
    )
    with pytest.raises(ValueError, match=message):
        smoothed_transition_matrix(ds, UniformPolicy(2), DeltaKernel(2), ridge=ridge,
                                   counts=counts)


def test_smoothed_chain_counts_collapse_duplicates():
    # compressed representation with counts == expanded dataset, row-wise
    from bbope.weights import compress_tabular

    ds = tabular_dataset(seed=18, n_traj=4, length=10)
    pol = model_win_policy(0.9)
    compressed, counts, inverse = compress_tabular(ds)
    P_small = smoothed_transition_matrix(compressed, pol, DeltaKernel(2), ridge=0.0, counts=counts)
    P_full = smoothed_transition_matrix(ds, pol, DeltaKernel(2), ridge=0.0)
    # a compressed row, expanded back out, must match the full-chain row
    # aggregated over duplicate anchor columns
    n_small = len(compressed)
    agg = np.zeros((len(ds), n_small))
    for col_full, col_small in enumerate(inverse):
        agg[:, col_small] += P_full[:, col_full]
    for row_full, row_small in enumerate(inverse):
        assert np.max(np.abs(agg[row_full] - P_small[row_small])) < 1e-12


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_smoothed_chain_far_successor_restarts_at_the_anchors(dtype):
    # the last successor, 50, lies ~50 bandwidths from every logged state
    ds = type(tabular_dataset())(
        states=np.array([0.0, 0.1, 0.2, 0.3]),
        actions=np.array([0, 1, 0, 1]),
        rewards=np.array([1.0, 0.0, 0.5, 0.2]),
        next_states=np.array([0.1, 0.2, 0.3, 50.0]),
    )
    kernel = RbfKernel(1.0, num_actions=2)
    P = smoothed_transition_matrix(ds, UniformPolicy(2), kernel, ridge=1e-6, dtype=dtype)
    assert np.all(np.isfinite(P))
    restart = np.array([0.25, 0.25, 0.25, 0.25 + 1e-6])
    assert np.max(np.abs(P[3] - restart / restart.sum())) < 1e-15
    assert np.max(np.abs(P.sum(axis=1) - 1.0)) < 1e-12
    # the rows with kernel mass are the ones a near successor gives
    near = type(ds)(ds.states, ds.actions, ds.rewards, np.array([0.1, 0.2, 0.3, 0.4]))
    P_near = smoothed_transition_matrix(near, UniformPolicy(2), kernel, ridge=1e-6, dtype=dtype)
    assert np.array_equal(P[:3], P_near[:3])


def chain_digest(P):
    h = hashlib.sha256()
    h.update(f"{P.dtype.str}{P.shape}".encode())
    h.update(np.ascontiguousarray(P).tobytes())
    return h.hexdigest()


# the Gaussian chain on 2 100 continuous rows whose last successor lies far
# from every logged state, per (block dtype, row block): 3 and 7 row blocks.
# The kernel blocks are matrix products, so the digests hold for one BLAS
# build and thread count, and differ between row block sizes.
CHAIN_DIGESTS = {
    ("float64", 1024): "6804b5e502ae8d0ac6d18fa1d64a2b2b54c327c20edf9f985edc5734c27b3914",
    ("float64", 300): "2a52e6af724ff878002ba52e12e938e96c7ae04d9518d7fd497f80b8234db33f",
    ("float32", 1024): "089558a5e81359f4b6f5854e0af628e8f995872956704210d34d152887b0d068",
    ("float32", 300): "ecc5188dde066f544e1bd141226771432c66bb07af2704f5be08861c9961ee7e",
}


@pytest.mark.parametrize("dtype,block", sorted(CHAIN_DIGESTS))
def test_smoothed_chain_bytes_are_pinned(dtype, block):
    """Any change to the chain's float operations or their order shows here."""
    ds = continuous_dataset(2100, seed=24, dim=3)
    ds.next_states[-1] = 40.0  # no kernel mass at any anchor: the row restarts
    kernel = RbfKernel(bandwidth=0.8, action_scale=0.7, num_actions=2)
    P = smoothed_transition_matrix(ds, tilted_policy(), kernel, dtype=getattr(np, dtype),
                                   block=block)
    assert np.all(P[-1, :-1] == P[-1, 0])  # the restart row, and the ridge on its diagonal
    assert chain_digest(P) == CHAIN_DIGESTS[dtype, block]


def test_smoothed_exact_match_chain_bytes_are_pinned():
    """The exact-match chain with compressed counts on a log that leaves
    some (state, action) pairs unlogged, so some successor actions match
    no anchor."""
    from bbope.weights import compress_tabular

    mdp = random_tabular_mdp(12, 3, seed=5)
    table = make_rng(6).uniform(0.1, 1.0, size=(12, 3))
    table[::3, 2] = 0.0  # the behavior never plays action 2 in every third state
    behavior = TabularPolicy(table / table.sum(axis=1, keepdims=True))
    ds = sample_dataset(mdp, behavior, 8, 25, seed=7)
    compressed, counts, _ = compress_tabular(ds)
    P = smoothed_transition_matrix(compressed, random_policy(12, 3, seed=8), DeltaKernel(3),
                                   counts=counts)
    assert chain_digest(P) == "0b7888afc8099090c0aa548fa61c684873d7f66d8d90ba92ef3c213523b6290b"


def test_smoothed_chain_rejects_other_kernels():
    ds = tabular_dataset(seed=19, n_traj=3, length=8)
    pol = model_win_policy(0.9)
    kt = TransformedKernel(DeltaKernel(2), model_win(0.4), pol)
    with pytest.raises(ValueError, match="RbfKernel and DeltaKernel"):
        smoothed_transition_matrix(ds, pol, kt)
