"""Exact tabular solvers: stationary laws, values, and brute-force minima."""

import re

import numpy as np
import pytest

from bbope.envs import model_win, model_win_policy, random_tabular_mdp
from bbope.kernels import RbfKernel
from bbope.mdp import TabularMdp, TabularPolicy, UniformPolicy, discount_to_average
from bbope.oracle import (
    ConvergenceError,
    brute_force_simplex_min,
    check_flow_identity,
    exact_average_reward,
    exact_backward_apply,
    exact_discounted_value,
    exact_stationary,
    stationary_of_matrix,
)
from bbope.rng import make_rng


def random_policy(mdp, seed):
    rng = make_rng(seed)
    table = rng.uniform(0.1, 1.0, size=(mdp.num_states, mdp.num_actions))
    return TabularPolicy(table / table.sum(axis=1, keepdims=True))


# ---------------------------------------------------------------------------
# stationary distributions


def test_stationary_point_mass_on_one_state():
    mdp = TabularMdp(np.ones((1, 1, 1)), np.zeros((1, 1)), np.array([1.0]))
    d = exact_stationary(mdp, UniformPolicy(1))
    assert np.allclose(d.mass, [[1.0]])


def test_stationary_of_periodic_flip_chain_is_uniform():
    # period-2 chain: plain power iteration would oscillate forever
    P = np.array([[0.0, 1.0], [1.0, 0.0]])
    d = stationary_of_matrix(P)
    assert np.allclose(d, [0.5, 0.5], atol=1e-12)


def test_stationary_modelwin_target_masses():
    d = exact_stationary(model_win(0.4), model_win_policy(0.9))
    assert np.allclose(d.state_marginal, [0.5, 0.21, 0.29], atol=1e-10)
    assert np.allclose(d.mass[0], [0.45, 0.05], atol=1e-10)


def test_stationary_satisfies_fixed_point_residual():
    mdp = random_tabular_mdp(6, 3, seed=2)
    pol = random_policy(mdp, 3)
    d = exact_stationary(mdp, pol)
    assert abs(d.mass.sum() - 1.0) < 1e-12
    assert np.min(d.mass) >= 0.0
    back = exact_backward_apply(d.mass, mdp, pol)
    assert np.max(np.abs(back - d.mass)) < 1e-10


def test_stationary_raises_on_iteration_cap():
    P = np.array([[0.999, 0.001], [0.0005, 0.9995]])  # slow, skewed mixing
    with pytest.raises(ConvergenceError) as err:
        stationary_of_matrix(P, tol=1e-13, max_iter=3)
    assert err.value.iterations == 3
    assert err.value.residual > 1e-13


@pytest.mark.parametrize("bad", ["nan", "inf", "negative"])
def test_stationary_stops_at_the_first_non_finite_iterate(bad):
    P = np.full((300, 300), 1.0 / 300)
    if bad == "negative":
        P = -np.eye(300)  # (I + P) / 2 maps every vector to zero
    else:
        P[17, 4] = float(bad)
    with pytest.raises(FloatingPointError, match="at iteration 1; P must be finite"):
        stationary_of_matrix(P, max_iter=100_000)


@pytest.mark.parametrize("shape", [(2, 3), (4,), (2, 2, 2)])
def test_stationary_of_matrix_rejects_a_non_square_matrix(shape):
    with pytest.raises(ValueError, match=rf"square; got shape {re.escape(str(shape))}"):
        stationary_of_matrix(np.full(shape, 0.5))


# ---------------------------------------------------------------------------
# backward flow operator


def test_backward_apply_fixes_stationary():
    mdp = model_win(0.4)
    pol = model_win_policy(0.9)
    d = exact_stationary(mdp, pol).mass
    out = exact_backward_apply(d, mdp, pol)
    assert np.max(np.abs(out - d)) < 1e-12


@pytest.mark.parametrize("shape", [(2, 3), (3, 2, 1), (6,)])
def test_backward_apply_rejects_a_mass_array_of_the_wrong_shape(shape):
    mdp = model_win(0.4)  # 3 states, 2 actions
    with pytest.raises(ValueError, match=rf"\(3, 2\); got {re.escape(str(shape))}"):
        exact_backward_apply(np.full(shape, 1.0 / 6), mdp, model_win_policy(0.9))


def test_backward_apply_shifts_cycle_mass():
    # deterministic 3-cycle, single action
    P = np.zeros((3, 1, 3))
    P[0, 0, 1] = P[1, 0, 2] = P[2, 0, 0] = 1.0
    mdp = TabularMdp(P, np.zeros((3, 1)), np.array([1.0, 0.0, 0.0]))
    d = np.array([[1.0], [0.0], [0.0]])
    out = exact_backward_apply(d, mdp, UniformPolicy(1))
    assert np.allclose(out, [[0.0], [1.0], [0.0]])


def test_backward_apply_is_linear_and_mass_preserving():
    mdp = random_tabular_mdp(5, 2, seed=7)
    pol = random_policy(mdp, 8)
    rng = make_rng(9)
    d1 = rng.dirichlet(np.ones(10)).reshape(5, 2)
    d2 = rng.dirichlet(np.ones(10)).reshape(5, 2)
    alpha = 0.3
    lhs = exact_backward_apply(alpha * d1 + (1 - alpha) * d2, mdp, pol)
    rhs = alpha * exact_backward_apply(d1, mdp, pol) + (1 - alpha) * exact_backward_apply(d2, mdp, pol)
    assert np.max(np.abs(lhs - rhs)) < 1e-12
    assert abs(exact_backward_apply(d1, mdp, pol).sum() - 1.0) < 1e-14


# ---------------------------------------------------------------------------
# average and discounted values


def test_average_reward_zero_rewards():
    mdp = random_tabular_mdp(4, 2, seed=1)
    zero = TabularMdp(mdp.transition, np.zeros((4, 2)), mdp.start)
    assert exact_average_reward(zero, random_policy(zero, 5)) == 0.0


def test_average_reward_modelwin_target_and_behavior():
    mdp = model_win(0.4)
    assert abs(exact_average_reward(mdp, model_win_policy(0.9)) - (-0.08)) < 1e-10
    assert abs(exact_average_reward(mdp, model_win_policy(0.7)) - (-0.04)) < 1e-10


def test_discounted_value_gamma_zero_is_start_reward():
    mdp = random_tabular_mdp(5, 3, seed=12)
    pol = random_policy(mdp, 13)
    expected = float(mdp.start @ np.sum(pol.table * mdp.reward, axis=1))
    assert abs(exact_discounted_value(mdp, pol, 0.0) - expected) < 1e-12


@pytest.mark.parametrize("gamma", [0.0, 0.5, 0.9, 0.99])
def test_discounted_value_constant_reward_is_constant(gamma):
    mdp = random_tabular_mdp(4, 2, seed=3)
    const = TabularMdp(mdp.transition, np.full((4, 2), 0.37), mdp.start)
    pol = random_policy(const, 4)
    assert abs(exact_discounted_value(const, pol, gamma) - 0.37) < 1e-12


@pytest.mark.parametrize("gamma", [0.5, 0.9, 0.99])
def test_discounted_value_matches_average_of_reduction(gamma):
    cases = [(model_win(0.4), model_win_policy(0.9))]
    for seed in (21, 22):
        mdp = random_tabular_mdp(5, 2, seed=seed)
        cases.append((mdp, random_policy(mdp, seed + 100)))
    for mdp, pol in cases:
        lhs = exact_discounted_value(mdp, pol, gamma)
        rhs = exact_average_reward(discount_to_average(mdp, gamma), pol)
        assert abs(lhs - rhs) < 1e-9


# ---------------------------------------------------------------------------
# brute-force simplex minimizer


def test_brute_force_identity_two_dims():
    w, loss = brute_force_simplex_min(np.eye(2), 1e-2)
    assert np.allclose(w, [0.5, 0.5])
    assert abs(loss - 0.5) < 1e-12


def test_brute_force_diagonal_minimum():
    w, loss = brute_force_simplex_min(np.diag([1.0, 3.0]), 1e-2)
    # analytic minimizer (0.75, 0.25) with value 0.75 lies on the grid
    assert np.max(np.abs(w - [0.75, 0.25])) <= 1e-2
    assert abs(loss - 0.75) < 1e-3


def test_brute_force_upper_bounds_true_minimum():
    assert brute_force_simplex_min(np.diag([1.0, 3.0]), 1e-2)[1] >= 0.75 - 1e-12
    w, loss = brute_force_simplex_min(np.eye(3), 1e-2)
    assert loss >= 1.0 / 3.0 - 1e-12
    assert loss <= 1.0 / 3.0 + 1e-3
    w, loss = brute_force_simplex_min(np.eye(4), 1e-2)
    assert np.allclose(w, 0.25)
    assert abs(loss - 0.25) < 1e-12


def test_brute_force_input_validation():
    with pytest.raises(ValueError):
        brute_force_simplex_min(np.eye(7), 1e-2)  # dimension cap
    with pytest.raises(ValueError):
        brute_force_simplex_min(np.eye(2), 0.5)  # resolution too coarse
    with pytest.raises(ValueError):
        brute_force_simplex_min(np.array([[1.0, 2.0], [0.0, 1.0]]), 1e-2)


# ---------------------------------------------------------------------------
# flow-identity cross-check


def one_hot_kernel(mdp, seed):
    rng = make_rng(seed)
    return RbfKernel(
        bandwidth=float(rng.uniform(0.5, 2.0)),
        action_scale=float(rng.uniform(0.5, 2.0)),
        num_actions=mdp.num_actions,
        num_states=mdp.num_states,
    )


def test_flow_identity_zero_at_fixed_point():
    mdp = model_win(0.4)
    pol = model_win_policy(0.9)
    d = exact_stationary(mdp, pol).mass
    lhs, rhs = check_flow_identity(mdp, pol, d, one_hot_kernel(mdp, 1))
    assert abs(lhs) < 1e-12
    assert abs(rhs) < 1e-12


def test_flow_identity_parity_on_random_instances():
    for seed in range(5):
        mdp = random_tabular_mdp(4, 2, seed=seed)
        pol = random_policy(mdp, seed + 50)
        d = make_rng(seed + 90).dirichlet(np.ones(8)).reshape(4, 2)
        lhs, rhs = check_flow_identity(mdp, pol, d, one_hot_kernel(mdp, seed))
        assert abs(lhs - rhs) <= 1e-8 * max(1.0, lhs)


def test_flow_discrepancy_positive_off_fixed_point():
    mdp = random_tabular_mdp(4, 2, seed=31)
    pol = random_policy(mdp, 32)
    kernel = one_hot_kernel(mdp, 33)
    d_pi = exact_stationary(mdp, pol).mass
    for seed in range(20):
        d = make_rng(seed + 200).dirichlet(np.ones(8)).reshape(4, 2)
        lhs, _ = check_flow_identity(mdp, pol, d, kernel)
        if np.max(np.abs(d - d_pi)) > 1e-6:
            assert lhs > 0.0
