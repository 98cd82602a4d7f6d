"""Discrepancy machinery: bilinear forms, the weighted flow loss, gradients."""

import tracemalloc

import numpy as np
import pytest

from bbope.envs import model_win, model_win_policy, random_tabular_mdp
from bbope.kernels import DeltaKernel, KernelMatrices, RbfKernel, assemble_matrices
from bbope.mdp import TabularPolicy, TransitionDataset, sample_dataset
from bbope.mmd import (
    DiscreteDistribution,
    bilinear,
    empirical_backward,
    log_loss_full,
    log_loss_minibatch_grad,
    loss,
    mmd_squared,
    weighted_empirical,
)
from bbope.oracle import exact_backward_apply, exact_stationary
from bbope.rng import make_rng
from bbope.weights import compress_tabular

from flow_reference import dense_flow


def random_policy(num_states, num_actions, seed):
    rng = make_rng(seed)
    table = rng.uniform(0.1, 1.0, size=(num_states, num_actions))
    return TabularPolicy(table / table.sum(axis=1, keepdims=True))


def random_instance(seed, n=12, num_states=4, num_actions=2):
    """Random dataset + matrices + positive weights for gradient tests."""
    mdp = random_tabular_mdp(num_states, num_actions, seed=seed)
    behavior = random_policy(num_states, num_actions, seed + 1000)
    target = random_policy(num_states, num_actions, seed + 2000)
    ds = sample_dataset(mdp, behavior, 2, (n + 1) // 2, seed=seed, total_budget=n)
    kernel = RbfKernel(
        bandwidth=float(make_rng(seed + 3000).uniform(0.6, 1.8)),
        num_actions=num_actions,
        num_states=num_states,
    )
    _, mats = dense_flow(ds, target, kernel)
    w_tilde = np.exp(make_rng(seed + 4000).normal(size=len(ds)))
    return ds, target, kernel, mats, w_tilde


@pytest.fixture(scope="module")
def onpolicy_big():
    """100k on-policy transitions on the 3-state gamble MDP."""
    mdp = model_win(0.4)
    pol = model_win_policy(0.9)
    ds = sample_dataset(mdp, pol, 100, 1000, seed=77)
    return mdp, pol, ds


# ---------------------------------------------------------------------------
# record validation: these checks must hold under python -O too


@pytest.mark.parametrize(
    "lengths,match", [((3, 2, 2), "got 3, 2 and 2"), ((2, 2, 3), "got 2, 2 and 3")]
)
def test_distribution_rejects_mismatched_lengths(lengths, match):
    states, actions, mass = (np.zeros(k) for k in lengths)
    with pytest.raises(ValueError, match=match):
        DiscreteDistribution(states=states.astype(np.int64), actions=actions, mass=mass)


@pytest.mark.parametrize("num_weights", [11, 13])
def test_weighted_empirical_rejects_a_weight_per_row_mismatch(num_weights):
    ds = random_instance(0)[0]
    with pytest.raises(ValueError, match=f"weight length {num_weights} != dataset size 12"):
        weighted_empirical(ds, np.full(num_weights, 1.0 / num_weights))


# ---------------------------------------------------------------------------
# bilinear


def test_bilinear_point_mass_self_similarity():
    k = RbfKernel(bandwidth=1.0, num_actions=2)
    f = DiscreteDistribution(states=np.array([[0.3, -1.2]]), actions=[1], mass=[1.0])
    assert abs(bilinear(f, f, k) - 1.0) < 1e-15


def test_bilinear_self_form_nonnegative_for_signed_measures():
    k = RbfKernel(bandwidth=0.8, num_actions=3)
    rng = make_rng(6)
    for _ in range(50):
        m = int(rng.integers(2, 8))
        f = DiscreteDistribution(
            states=rng.normal(size=(m, 2)),
            actions=rng.integers(3, size=m),
            mass=rng.normal(size=m),
        )
        assert bilinear(f, f, k) >= -1e-10


def test_bilinear_is_bilinear():
    k = RbfKernel(bandwidth=1.1, num_actions=2)
    rng = make_rng(7)
    states = rng.normal(size=(4, 2))
    actions = rng.integers(2, size=4)

    def measure(mass):
        return DiscreteDistribution(states=states, actions=actions, mass=mass)

    f1, f2, g = (measure(rng.normal(size=4)) for _ in range(3))
    alpha, beta = 0.7, -1.3
    lhs = bilinear(measure(alpha * f1.mass + beta * f2.mass), g, k)
    rhs = alpha * bilinear(f1, g, k) + beta * bilinear(f2, g, k)
    assert abs(lhs - rhs) < 1e-12
    assert abs(bilinear(f1, g, k) - bilinear(g, f1, k)) < 1e-15


# ---------------------------------------------------------------------------
# mmd_squared


def test_mmd_squared_identical_measures_is_zero():
    k = DeltaKernel(num_actions=2)
    mu = DiscreteDistribution(states=np.array([0, 1, 2]), actions=[0, 1, 0], mass=[0.2, 0.5, 0.3])
    assert mmd_squared(mu, mu, k) == 0.0


def test_mmd_squared_two_point_masses():
    k = RbfKernel(bandwidth=0.9, num_actions=2)
    x_state, y_state = np.array([0.0, 0.0]), np.array([1.0, -0.5])
    mu1 = DiscreteDistribution(states=x_state[None], actions=[0], mass=[1.0])
    mu2 = DiscreteDistribution(states=y_state[None], actions=[1], mass=[1.0])
    expected = 2.0 - 2.0 * k.evaluate((x_state, 0), (y_state, 1))
    assert abs(mmd_squared(mu1, mu2, k) - expected) < 1e-14


def test_mmd_squared_three_atom_hand_oracle():
    k = DeltaKernel(num_actions=2)
    states = np.array([0, 1, 2])
    actions = np.array([0, 0, 1])
    mu1 = DiscreteDistribution(states=states, actions=actions, mass=[0.5, 0.3, 0.2])
    mu2 = DiscreteDistribution(states=states, actions=actions, mass=[0.2, 0.5, 0.3])
    # delta kernel turns the discrepancy into a plain sum of squares
    expected = (0.5 - 0.2) ** 2 + (0.3 - 0.5) ** 2 + (0.2 - 0.3) ** 2
    assert abs(mmd_squared(mu1, mu2, k) - expected) < 1e-15


def test_mmd_squared_rejects_indefinite_kernels():
    class NegativeKernel:
        def gram(self, sa_x, sa_y):
            n, m = len(sa_x[1]), len(sa_y[1])
            return -np.eye(max(n, m))[:n, :m]

    mu1 = DiscreteDistribution(states=np.array([0]), actions=[0], mass=[1.0])
    mu2 = DiscreteDistribution(states=np.array([1]), actions=[0], mass=[1.0])
    with pytest.raises(ValueError):
        mmd_squared(mu1, mu2, NegativeKernel())


# ---------------------------------------------------------------------------
# empirical backward operator


def test_empirical_backward_single_sample_deterministic_policy():
    ds = TransitionDataset(
        states=np.array([0]), actions=np.array([1]), rewards=np.zeros(1), next_states=np.array([2])
    )
    pol = TabularPolicy(np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    dense = empirical_backward(ds, np.array([1.0]), pol).to_dense(3, 2)
    expected = np.zeros((3, 2))
    expected[2, 1] = 1.0
    assert np.array_equal(dense, expected)


def test_empirical_backward_total_mass_is_one():
    mdp = random_tabular_mdp(5, 3, seed=8)
    ds = sample_dataset(mdp, random_policy(5, 3, 9), 2, 10, seed=10)
    rng = make_rng(11)
    w = rng.dirichlet(np.ones(len(ds)))
    for pol_seed in (12, 13):
        out = empirical_backward(ds, w, random_policy(5, 3, pol_seed))
        assert abs(out.total_mass - 1.0) < 1e-12


def test_empirical_backward_validates_weights():
    ds = TransitionDataset(
        states=np.array([0, 1]), actions=np.array([0, 1]), rewards=np.zeros(2),
        next_states=np.array([1, 0]),
    )
    pol = TabularPolicy(np.array([[0.5, 0.5], [0.5, 0.5]]))
    with pytest.raises(ValueError):
        empirical_backward(ds, np.array([0.9, 0.2]), pol)  # mass 1.1
    with pytest.raises(ValueError):
        empirical_backward(ds, np.array([1.0]), pol)  # wrong length


def test_empirical_backward_converges_to_exact_operator(onpolicy_big):
    mdp, pol, ds = onpolicy_big
    d_pi = exact_stationary(mdp, pol).mass
    counts = np.zeros((3, 2))
    np.add.at(counts, (np.asarray(ds.states), np.asarray(ds.actions)), 1.0)
    assert np.all(counts > 0)
    # weights that make the weighted empirical distribution exactly d_pi
    w = d_pi[np.asarray(ds.states), np.asarray(ds.actions)] / counts[
        np.asarray(ds.states), np.asarray(ds.actions)
    ]
    out = empirical_backward(ds, w, pol).to_dense(3, 2)
    oracle = exact_backward_apply(d_pi, mdp, pol)
    tv = 0.5 * np.abs(out - oracle).sum()
    assert tv <= 0.03


# ---------------------------------------------------------------------------
# loss


def test_loss_single_sample_is_combined_entry():
    ds = TransitionDataset(
        states=np.array([0]), actions=np.array([0]), rewards=np.zeros(1), next_states=np.array([1])
    )
    pol = model_win_policy(0.9)
    point, cross, successor = assemble_matrices(ds, pol, DeltaKernel(2))
    scalar = float(point[0, 0] - 2.0 * cross[0, 0] + successor[0, 0])
    _, mats = dense_flow(ds, pol, DeltaKernel(2))
    assert abs(loss(np.array([1.0]), mats) - max(scalar, 0.0)) < 1e-15


def test_loss_uniform_two_samples_averages_entries():
    mdp = model_win(0.4)
    ds = sample_dataset(mdp, model_win_policy(0.7), 1, 2, seed=3)
    pol = model_win_policy(0.9)
    combined, mats = dense_flow(ds, pol, DeltaKernel(2))
    expected = float(combined.sum()) / 4.0
    assert abs(loss(np.full(2, 0.5), mats) - expected) < 1e-14


def test_loss_of_a_float32_matrix_makes_no_float64_copy():
    n = 2000
    mats = KernelMatrices(np.eye(n, dtype=np.float32))
    w = np.full(n, 1.0 / n)
    tracemalloc.start()
    try:
        value = loss(w, mats)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(value * n - 1.0) < 1e-6  # the product runs in float32
    assert peak < 2**20  # a float64 copy of the matrix would be 32 MB


def test_loss_near_zero_on_stationary_onpolicy_data(onpolicy_big):
    mdp, pol, ds = onpolicy_big
    compressed, counts, _ = compress_tabular(ds)
    _, mats = dense_flow(compressed, pol, DeltaKernel(2))
    w = counts / counts.sum()  # the plain empirical distribution
    assert loss(w, mats) <= 1e-3


def test_loss_matches_mmd_squared_cross_path():
    for seed, kernel_factory in [
        (21, lambda: DeltaKernel(2)),
        (22, lambda: RbfKernel(bandwidth=1.0, action_scale=0.8, num_actions=2, num_states=4)),
    ]:
        mdp = random_tabular_mdp(4, 2, seed=seed)
        ds = sample_dataset(mdp, random_policy(4, 2, seed + 1), 2, 6, seed=seed)
        pol = random_policy(4, 2, seed + 2)
        kernel = kernel_factory()
        _, mats = dense_flow(ds, pol, kernel)
        w = make_rng(seed + 3).dirichlet(np.ones(len(ds)))
        via_matrices = loss(w, mats)
        via_measures = mmd_squared(
            weighted_empirical(ds, w), empirical_backward(ds, w, pol), kernel
        )
        assert abs(via_matrices - via_measures) < 1e-10


def test_loss_invariant_under_joint_permutation():
    mdp = random_tabular_mdp(4, 2, seed=30)
    ds = sample_dataset(mdp, random_policy(4, 2, 31), 2, 8, seed=32)
    pol = random_policy(4, 2, 33)
    kernel = RbfKernel(bandwidth=0.9, num_actions=2, num_states=4)
    w = make_rng(34).dirichlet(np.ones(len(ds)))
    base = loss(w, dense_flow(ds, pol, kernel)[1])
    perm = make_rng(35).permutation(len(ds))
    shuffled = TransitionDataset(
        states=np.asarray(ds.states)[perm],
        actions=np.asarray(ds.actions)[perm],
        rewards=np.asarray(ds.rewards)[perm],
        next_states=np.asarray(ds.next_states)[perm],
    )
    assert abs(loss(w[perm], dense_flow(shuffled, pol, kernel)[1]) - base) < 1e-12


def test_loss_nonnegative_on_random_cases():
    for seed in range(20):
        _, _, _, mats, _ = random_instance(seed + 40)
        w = make_rng(seed + 70).dirichlet(np.ones(mats.n))
        assert loss(w, mats) >= 0.0  # already clamped; raises below -1e-10


def test_loss_rejects_off_simplex_weights():
    _, _, _, mats, _ = random_instance(99)
    with pytest.raises(ValueError):
        loss(np.full(mats.n, 2.0 / mats.n), mats)


# ---------------------------------------------------------------------------
# log-domain loss and exact gradient


def test_log_loss_scale_invariance():
    _, _, _, mats, w_tilde = random_instance(50)
    base = log_loss_full(w_tilde, mats)
    for c in (1e-3, 0.7, 42.0):
        scaled = log_loss_full(c * w_tilde, mats)
        assert abs(scaled.value - base.value) < 1e-12
        assert np.max(np.abs(scaled.gradient - base.gradient)) < 1e-12


def test_log_loss_exponential_identity():
    _, _, _, mats, w_tilde = random_instance(51)
    report = log_loss_full(w_tilde, mats)
    quad = float(w_tilde @ mats.sym @ w_tilde)
    ratio = np.exp(report.value) * w_tilde.sum() ** 2 / quad
    assert abs(ratio - 1.0) < 1e-12


def test_log_loss_gradient_sums_to_zero():
    _, _, _, mats, w_tilde = random_instance(52)
    report = log_loss_full(w_tilde, mats)
    assert abs(report.gradient.sum()) < 1e-12


def test_log_loss_gradient_matches_central_differences():
    h = 1e-5
    for seed in range(20):
        _, _, _, mats, w_tilde = random_instance(seed + 100, n=int(6 + seed % 5 * 6))
        report = log_loss_full(w_tilde, mats)
        for i in range(0, len(w_tilde), max(1, len(w_tilde) // 6)):
            up, down = w_tilde.copy(), w_tilde.copy()
            up[i] *= np.exp(h)
            down[i] *= np.exp(-h)
            fd = (log_loss_full(up, mats).value - log_loss_full(down, mats).value) / (2 * h)
            assert abs(fd - report.gradient[i]) <= 1e-5 * max(1.0, abs(report.gradient[i]))


def test_log_loss_validates_inputs():
    _, _, _, mats, w_tilde = random_instance(53)
    with pytest.raises(ValueError):
        log_loss_full(np.zeros_like(w_tilde), mats)
    zero = KernelMatrices(np.zeros((len(w_tilde), len(w_tilde))))
    with pytest.raises(ValueError):
        log_loss_full(w_tilde, zero)


# ---------------------------------------------------------------------------
# minibatch gradient


def test_minibatch_exhaustive_equals_full():
    _, _, _, mats, w_tilde = random_instance(60)
    full = log_loss_full(w_tilde, mats)
    n = len(w_tilde)
    est = log_loss_minibatch_grad(w_tilde, mats, batch_pairs=n * n, seed=0)
    assert np.array_equal(est.gradient, full.gradient)
    assert est.value == full.value


def test_minibatch_is_seeded_and_validates_batch():
    _, _, _, mats, w_tilde = random_instance(61)
    a = log_loss_minibatch_grad(w_tilde, mats, batch_pairs=8, seed=5)
    b = log_loss_minibatch_grad(w_tilde, mats, batch_pairs=8, seed=5)
    c = log_loss_minibatch_grad(w_tilde, mats, batch_pairs=8, seed=6)
    assert np.array_equal(a.gradient, b.gradient)
    assert not np.array_equal(a.gradient, c.gradient)
    with pytest.raises(ValueError):
        log_loss_minibatch_grad(w_tilde, mats, batch_pairs=0, seed=0)


def test_minibatch_tied_weights_gain_nothing():
    # matrix with no negative entries: the pair and normalization terms
    # cancel exactly within each batch, so a model that can only move all
    # weights together sees a zero gradient
    ds = TransitionDataset(
        states=np.array([0, 1, 2]),
        actions=np.array([0, 1, 0]),
        rewards=np.zeros(3),
        next_states=np.array([3, 3, 4]),  # successors disjoint from sources
    )
    pol = TabularPolicy(np.tile([[0.5, 0.5]], (5, 1)))
    _, mats = dense_flow(ds, pol, DeltaKernel(2))
    assert np.min(mats.sym) >= 0.0
    w_tilde = np.full(3, 2.7)
    est = log_loss_minibatch_grad(w_tilde, mats, batch_pairs=4, seed=9)
    assert abs(est.gradient.sum()) < 1e-12


def test_minibatch_mean_tracks_full_gradient():
    _, _, _, mats, w_tilde = random_instance(62, n=10)
    full = log_loss_full(w_tilde, mats).gradient
    draws = np.stack(
        [log_loss_minibatch_grad(w_tilde, mats, batch_pairs=6, seed=s).gradient for s in range(800)]
    )
    mean = draws.mean(axis=0)
    se = draws.std(axis=0) / np.sqrt(len(draws)) + 1e-12
    assert np.all(np.abs(mean - full) <= 5.0 * se)
