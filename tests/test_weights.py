"""Weight parametrizations and the simplex optimizers that fit them."""

import hashlib
import json

import numpy as np
import pytest

from bbope import weights
from bbope.envs import model_win, model_win_policy, random_tabular_mdp
from bbope.estimators import blackbox_estimate, model_based_estimate, naive_average
from bbope.kernels import DeltaKernel, KernelMatrices, RbfKernel, assemble_combined
from bbope.mdp import TabularPolicy, TransitionDataset, UniformPolicy, sample_dataset
from bbope.mmd import log_loss_full
from bbope.oracle import brute_force_simplex_min
from bbope.rng import make_rng
from bbope.weights import (
    MlpWeightModel,
    OptimizerConfig,
    compress_tabular,
    load_checkpoint,
    minimize_quadratic_on_simplex,
    mlp_forward_backward,
    mlp_inputs,
    normalize,
    save_checkpoint,
    solve_tabular,
    train_parametric,
)


def synthetic_matrices(sym):
    return KernelMatrices(np.asarray(sym, dtype=np.float64))


def two_distinct_pairs():
    return TransitionDataset(
        states=np.array([0, 1]),
        actions=np.array([0, 0]),
        rewards=np.array([0.0, 0.0]),
        next_states=np.array([1, 0]),
    )


def continuous_instance(seed, n=10):
    rng = make_rng(seed)
    ds = TransitionDataset(
        states=rng.normal(size=(n, 2)),
        actions=rng.integers(0, 2, size=n),
        rewards=rng.normal(size=n),
        next_states=rng.normal(size=(n, 2)),
    )
    kernel = RbfKernel(bandwidth=1.2, action_scale=1.0, num_actions=2)
    matrices = assemble_combined(ds, UniformPolicy(2), kernel)
    return ds, kernel, matrices


# ---------------------------------------------------------------------------
# normalize


def test_normalize_singleton():
    assert np.array_equal(normalize([1.0]), np.array([1.0]))


def test_normalize_equal_entries():
    np.testing.assert_allclose(normalize([2.0, 2.0, 2.0]), np.full(3, 1.0 / 3.0), rtol=0, atol=1e-15)


def test_normalize_scale_invariant():
    rng = make_rng(0)
    wt = rng.uniform(0.5, 2.0, size=9)
    base = normalize(wt)
    for c in (1e-6, 1.0, 1e6):
        np.testing.assert_allclose(normalize(c * wt), base, rtol=0, atol=1e-12)


def test_normalize_rejects_bad_input():
    with pytest.raises(ValueError):
        normalize([1.0, -1.0])
    with pytest.raises(ValueError):
        normalize([0.0, 1.0])
    with pytest.raises(ValueError):
        normalize([1.0, np.inf])
    with pytest.raises(ValueError):
        normalize([1.0, np.nan])
    with pytest.raises(ValueError):
        normalize([])


# ---------------------------------------------------------------------------
# OptimizerConfig


def test_config_rejects_unknown_method():
    with pytest.raises(ValueError):
        OptimizerConfig(method="newton")


def test_config_rejects_bad_step_and_epochs():
    with pytest.raises(ValueError):
        OptimizerConfig(step_size=0.0)
    with pytest.raises(ValueError):
        OptimizerConfig(step_size=-1.0)
    with pytest.raises(ValueError):
        OptimizerConfig(epochs=0)


def test_config_rejects_unknown_dtype():
    with pytest.raises(ValueError):
        OptimizerConfig(matrix_dtype="float16")


def test_config_coerces_hidden_layers():
    cfg = OptimizerConfig(hidden_layers=[8.0, 4])
    assert cfg.hidden_layers == (8, 4)
    assert all(isinstance(h, int) for h in cfg.hidden_layers)


# ---------------------------------------------------------------------------
# compress_tabular


def test_compress_collapses_duplicate_triples():
    ds = TransitionDataset(
        states=np.array([2, 0, 2, 0]),
        actions=np.array([1, 0, 1, 1]),
        rewards=np.array([9.0, 8.0, 9.0, 7.0]),
        next_states=np.array([0, 1, 0, 1]),
    )
    comp, counts, inverse = compress_tabular(ds)
    assert len(comp) == 3
    assert counts.sum() == len(ds)
    # expanding the compressed rows by the inverse map recovers the original triples
    assert np.array_equal(np.asarray(comp.states)[inverse], ds.states)
    assert np.array_equal(np.asarray(comp.actions)[inverse], ds.actions)
    assert np.array_equal(np.asarray(comp.next_states)[inverse], ds.next_states)
    # the duplicated triple (2, 1, 0) appears twice with equal rewards, kept exactly
    dup = np.flatnonzero((np.asarray(comp.states) == 2) & (np.asarray(comp.actions) == 1))
    assert counts[dup] == 2.0
    assert np.asarray(comp.rewards)[dup] == 9.0


def test_compress_rejects_continuous_data():
    ds, _, _ = continuous_instance(3)
    with pytest.raises(ValueError):
        compress_tabular(ds)


# (S, A, T, id dtype, rewards): 50 trajectories of length T on a random
# MDP, ids cast to the dtype (int16 ids shifted below zero), rewards as
# logged or with unit Gaussian noise.  Pins every output field.
COMPRESS_DIGESTS = {
    (30, 3, 4, "int64", "exact"): "5369fdad156ae6e226ffdfcec0dd8a328f13db53b688ac96ecc7f2e2dca53b97",
    (30, 3, 4, "int32", "noisy"): "753be1b8d64b76e36c01d900529e830d796a6a737d83edc63c99dd248755c2ca",
    (30, 3, 128, "int64", "noisy"): "a8742dc4e670dcee7aae775c0b5a6297e2379e5c4a279cf6bd173144bc906cb5",
    (3, 2, 16, "int32", "exact"): "d318c409c8445819934cba5c6997d0069ad81feb5d9ceca870221882788aa406",
    (5, 1, 1, "int64", "exact"): "b1b4cab67effedc54c4b5831b80d48c9761959d6a8718d1d0cbcc037ca4c0368",
    (7, 4, 8, "int16", "noisy"): "9d1a97e19de24cc77c5816a0ed736bc8adf9abe811a2aab7f1e415503a92a699",
}


@pytest.mark.parametrize("S,A,T,dtype,rewards", sorted(COMPRESS_DIGESTS))
def test_compress_bytes_are_pinned(S, A, T, dtype, rewards):
    table = make_rng(A).uniform(0.1, 1.0, size=(S, A))
    pol = TabularPolicy(table / table.sum(axis=1, keepdims=True))
    ds = sample_dataset(random_tabular_mdp(S, A, seed=S), pol, 50, T, seed=T)
    r = ds.rewards + make_rng(T + 1).normal(size=len(ds)) if rewards == "noisy" else ds.rewards
    shift = -S if dtype == "int16" else 0
    log = TransitionDataset(
        states=(ds.states + shift).astype(dtype),
        actions=ds.actions.astype(dtype),
        rewards=r,
        next_states=(ds.next_states + shift).astype(dtype),
        traj_starts=ds.traj_starts,
    )
    comp, counts, inverse = compress_tabular(log)
    h = hashlib.sha256()
    for arr in (comp.states, comp.actions, comp.rewards, comp.next_states, comp.traj_starts,
                counts, inverse):
        arr = np.ascontiguousarray(arr)
        h.update(f"{arr.dtype.str}{arr.shape}".encode())
        h.update(arr.tobytes())
    assert h.hexdigest() == COMPRESS_DIGESTS[S, A, T, dtype, rewards]


def test_compress_rejects_ids_that_overflow_the_key():
    ds = TransitionDataset(
        states=np.array([0, 2**40]),
        actions=np.array([0, 2**20]),
        rewards=np.zeros(2),
        next_states=np.array([-(2**10), 2**10]),
    )
    with pytest.raises(ValueError, match=r"extents \(1099511627777, 1048577, 2049\)"):
        compress_tabular(ds)


@pytest.mark.parametrize("estimator", [blackbox_estimate, model_based_estimate])
def test_an_empty_tabular_log_reaches_the_empty_dataset_error(estimator):
    empty = np.zeros(0, dtype=np.int64)
    ds = TransitionDataset(states=empty, actions=empty, rewards=np.zeros(0), next_states=empty)
    with pytest.raises(ValueError, match="empty dataset"):
        estimator(ds, UniformPolicy(2))


# ---------------------------------------------------------------------------
# exponentiated-gradient quadratic minimization


def test_eg_identity_two_distinct_pairs_is_uniform():
    ds = two_distinct_pairs()
    w, model, info = solve_tabular(synthetic_matrices(np.eye(2)), ds, num_actions=1)
    assert np.array_equal(w, np.array([0.5, 0.5]))
    assert len(model.group_codes) == 2


def test_eg_diagonal_minimizer():
    # minimize w^2 + 3 (1 - w)^2 over the simplex: stationary at w = 0.75
    ds = two_distinct_pairs()
    cfg = OptimizerConfig(epochs=5000)
    w, _, info = solve_tabular(synthetic_matrices(np.diag([1.0, 3.0])), ds, num_actions=1, config=cfg)
    np.testing.assert_allclose(w, [0.75, 0.25], rtol=0, atol=1e-5)
    assert abs(info["final_loss"] - 0.75) < 1e-10
    # independent grid check at resolution 1e-4 lands exactly on (0.75, 0.25)
    wg, vg = brute_force_simplex_min(np.diag([1.0, 3.0]), 1e-4)
    assert np.array_equal(wg, np.array([0.75, 0.25]))
    assert vg == 0.75


@pytest.mark.parametrize("seed", [0, 3, 4])
def test_eg_matches_grid_on_random_psd(seed):
    rng = make_rng(seed)
    a = rng.normal(size=(3, 3)) / 3.0
    k = a.T @ a
    x, info = minimize_quadratic_on_simplex(k, OptimizerConfig(epochs=5000))
    _, grid_val = brute_force_simplex_min(k, 1e-3)
    # the grid value upper-bounds the true minimum, so a converged solver
    # must come in at or below it
    assert info["final_loss"] <= grid_val + 1e-12
    assert grid_val - info["final_loss"] <= 1e-6


def test_eg_trace_is_non_increasing():
    rng = make_rng(7)
    a = rng.normal(size=(6, 6))
    k = a.T @ a
    _, info = minimize_quadratic_on_simplex(k, OptimizerConfig(epochs=500))
    trace = info["loss_trace"]
    assert len(trace) >= 2
    assert np.all(np.diff(trace) <= 0.0)


def test_eg_output_is_on_the_simplex():
    rng = make_rng(12)
    for trial in range(5):
        a = rng.normal(size=(5, 5))
        x, _ = minimize_quadratic_on_simplex(a.T @ a, OptimizerConfig(epochs=300))
        assert x.min() >= 0.0
        assert abs(x.sum() - 1.0) <= 1e-8


def test_eg_single_group_short_circuits():
    ds = TransitionDataset(
        states=np.array([1, 1, 1]),
        actions=np.array([0, 0, 0]),
        rewards=np.zeros(3),
        next_states=np.array([0, 2, 1]),
    )
    w, model, info = solve_tabular(synthetic_matrices(np.eye(3)), ds, num_actions=1)
    assert info["iterations"] == 0
    np.testing.assert_allclose(w, np.full(3, 1.0 / 3.0), rtol=0, atol=1e-15)
    assert np.array_equal(model.group_mass, np.array([1.0]))


# ---------------------------------------------------------------------------
# solve_tabular on real data


def modelwin_compressed(num_trajectories=30, length=20, seed=5):
    ds = sample_dataset(model_win(0.4), model_win_policy(0.5), num_trajectories, length, seed)
    comp, counts, _ = compress_tabular(ds)
    return ds, comp, counts


def test_solve_counts_semantics():
    _, comp, counts = modelwin_compressed()
    mats = assemble_combined(comp, model_win_policy(0.9), DeltaKernel(num_actions=2))
    w, model, _ = solve_tabular(mats, comp, counts=counts, num_actions=2)
    assert abs(float(np.sum(counts * w)) - 1.0) <= 1e-8
    # querying the model at the fitted pairs reproduces the returned weights
    got = model.sample_weights(comp.states, comp.actions)
    assert np.array_equal(got, w)


def test_solve_compressed_path_matches_full_dataset():
    ds, comp, counts = modelwin_compressed()
    kernel = DeltaKernel(num_actions=2)
    target = model_win_policy(0.9)
    full_mats = assemble_combined(ds, target, kernel)
    w_full, _, info_full = solve_tabular(full_mats, ds, num_actions=2)
    comp_mats = assemble_combined(comp, target, kernel)
    w_comp, model, _ = solve_tabular(comp_mats, comp, counts=counts, num_actions=2)
    # the compressed program is the same QP over tied groups
    expanded = model.sample_weights(ds.states, ds.actions)
    np.testing.assert_allclose(w_full, expanded, rtol=0, atol=1e-12)
    assert abs(float(w_full.sum()) - 1.0) <= 1e-8


def test_solve_rejects_unseen_query_pair():
    ds = TransitionDataset(
        states=np.array([0, 0]),
        actions=np.array([0, 1]),
        rewards=np.zeros(2),
        next_states=np.array([1, 1]),
    )
    mats = synthetic_matrices(np.eye(2))
    _, model, _ = solve_tabular(mats, ds, num_actions=2)
    with pytest.raises(ValueError):
        model.sample_weights(np.array([1]), np.array([0]))


# s * 2 + a of each query is the code of a fitted pair: (1, 0) and (0, 1)
@pytest.mark.parametrize("state,action", [(0, 2), (1, -1)])
def test_sample_weights_rejects_actions_outside_the_model(state, action):
    ds = TransitionDataset(
        states=np.array([0, 0, 1]),
        actions=np.array([0, 1, 0]),
        rewards=np.zeros(3),
        next_states=np.array([1, 1, 0]),
    )
    _, model, _ = solve_tabular(synthetic_matrices(np.eye(3)), ds, num_actions=2)
    with pytest.raises(ValueError, match=r"query actions must lie in \[0, 2\)"):
        model.sample_weights(np.array([state]), np.array([action]))


def test_solve_rejects_continuous_data():
    ds, _, matrices = continuous_instance(4)
    with pytest.raises(ValueError):
        solve_tabular(matrices, ds, num_actions=2)


def test_solve_rejects_mismatched_matrices():
    ds = two_distinct_pairs()
    with pytest.raises(ValueError):
        solve_tabular(synthetic_matrices(np.eye(3)), ds, num_actions=1)


# ---------------------------------------------------------------------------
# MLP model: construction and differentiation


@pytest.mark.parametrize("extra", [-1, 1])
def test_mlp_rejects_a_flat_vector_of_the_wrong_length(extra):
    model = MlpWeightModel.create(3, hidden=(4,), seed=0)  # 3*4 + 4 + 4*1 + 1 = 21 parameters
    before = model.flat_parameters()
    with pytest.raises(ValueError, match=f"the model has 21 parameters; got a flat vector of {21 + extra}"):
        model.set_flat_parameters(np.zeros(21 + extra))
    assert np.array_equal(model.flat_parameters(), before)


def test_mlp_zero_output_layer_gives_uniform_weights():
    ds, kernel, _ = continuous_instance(8)
    x = mlp_inputs(ds, kernel)
    model = MlpWeightModel.create(x.shape[1], hidden=(6, 4), seed=3)
    logw = model.log_weights(x)
    assert np.array_equal(logw, np.zeros(len(ds)))
    w = normalize(np.exp(logw))
    np.testing.assert_allclose(w, np.full(len(ds), 1.0 / len(ds)), rtol=0, atol=1e-15)
    # with uniform weights the weighted reward average is the naive average
    rho = float(w @ np.asarray(ds.rewards))
    assert abs(rho - naive_average(ds).estimate) <= 1e-12


def test_mlp_hidden_init_is_fan_in_bounded():
    model = MlpWeightModel.create(9, hidden=(30, 20, 10), seed=1)
    widths = [9, 30, 20, 10]
    for i, (weight, bias) in enumerate(model.weights[:-1]):
        bound = 1.0 / np.sqrt(widths[i])
        assert np.abs(weight).max() <= bound
        assert np.abs(weight).max() > 0.0
        assert np.array_equal(bias, np.zeros_like(bias))
    final_weight, final_bias = model.weights[-1]
    assert np.array_equal(final_weight, np.zeros_like(final_weight))
    assert np.array_equal(final_bias, np.zeros_like(final_bias))


def test_mlp_all_zero_parameters_output_zero():
    model = MlpWeightModel.create(4, hidden=(5, 3), seed=0)
    model.set_flat_parameters(np.zeros_like(model.flat_parameters()))
    rng = make_rng(2)
    x = rng.normal(size=(7, 4))
    out, _ = mlp_forward_backward(model, x, lambda _: np.zeros(7))
    assert np.array_equal(out, np.zeros(7))
    assert np.array_equal(np.exp(model.log_weights(x)), np.ones(7))


def test_mlp_final_bias_gradient_is_one():
    model = MlpWeightModel.create(3, hidden=(4,), seed=6)
    rng = make_rng(3)
    x = rng.normal(size=(1, 3))
    _, grad = mlp_forward_backward(model, x, lambda _: np.array([1.0]))
    # flat layout ends with the final layer's bias; a linear output means
    # d o / d bias = 1 exactly
    assert grad[-1] == 1.0


def test_mlp_jacobian_matches_finite_differences():
    rng = make_rng(11)
    model = MlpWeightModel.create(3, hidden=(4, 3), seed=5)
    theta = rng.normal(size=model.flat_parameters().shape) * 0.5
    model.set_flat_parameters(theta)
    x = rng.normal(size=(5, 3))
    upstream = rng.normal(size=5)
    _, grad = mlp_forward_backward(model, x, lambda _: upstream)
    h = 1e-6
    for i in range(len(theta)):
        for sign, store in ((1.0, "plus"), (-1.0, "minus")):
            shifted = theta.copy()
            shifted[i] += sign * h
            model.set_flat_parameters(shifted)
            out, _ = mlp_forward_backward(model, x, lambda _: upstream)
            if store == "plus":
                f_plus = float(upstream @ out)
            else:
                f_minus = float(upstream @ out)
        fd = (f_plus - f_minus) / (2.0 * h)
        assert abs(grad[i] - fd) <= 1e-5 * max(1.0, abs(fd))
    model.set_flat_parameters(theta)


def test_mlp_rejects_mismatched_input_dimension():
    model = MlpWeightModel.create(3, hidden=(4,), seed=0)
    with pytest.raises(ValueError):
        mlp_forward_backward(model, np.zeros((2, 5)), lambda _: np.zeros(2))


def test_mlp_loss_gradient_matches_finite_differences():
    ds, kernel, matrices = continuous_instance(21, n=10)
    x = mlp_inputs(ds, kernel)
    model = MlpWeightModel.create(x.shape[1], hidden=(4, 3), seed=2)
    rng = make_rng(22)
    theta = rng.normal(size=model.flat_parameters().shape) * 0.4
    model.set_flat_parameters(theta)

    def loss_at(params):
        model.set_flat_parameters(params)
        return log_loss_full(np.exp(model.log_weights(x)), matrices).value

    _, grad = mlp_forward_backward(model, x, lambda logw: log_loss_full(np.exp(logw), matrices).gradient)
    h = 1e-5
    for i in range(len(theta)):
        plus, minus = theta.copy(), theta.copy()
        plus[i] += h
        minus[i] -= h
        fd = (loss_at(plus) - loss_at(minus)) / (2.0 * h)
        assert abs(grad[i] - fd) <= 1e-4 * max(1.0, abs(fd))
    model.set_flat_parameters(theta)


# ---------------------------------------------------------------------------
# train_parametric


def test_training_is_bit_reproducible():
    ds, kernel, _ = continuous_instance(30, n=12)
    cfg = OptimizerConfig(method="sgd_adamlike", epochs=40, batch_pairs=6, seed=9)
    runs = [train_parametric(ds, UniformPolicy(2), kernel, config=cfg) for _ in range(2)]
    (w_a, _, info_a), (w_b, _, info_b) = runs
    assert np.array_equal(w_a, w_b)
    assert np.array_equal(info_a["loss_trace"], info_b["loss_trace"])
    other = OptimizerConfig(method="sgd_adamlike", epochs=40, batch_pairs=6, seed=10)
    w_c, _, _ = train_parametric(ds, UniformPolicy(2), kernel, config=other)
    assert not np.array_equal(w_a, w_c)


def test_training_runs_one_forward_pass_per_epoch(monkeypatch):
    ds, kernel, _ = continuous_instance(36, n=8)
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(weights, "mlp_forward_backward",
                        counted("mlp_forward_backward", weights.mlp_forward_backward))
    monkeypatch.setattr(MlpWeightModel, "log_weights",
                        counted("log_weights", MlpWeightModel.log_weights))
    cfg = OptimizerConfig(method="sgd_adamlike", epochs=7)
    train_parametric(ds, UniformPolicy(2), kernel, config=cfg)
    assert calls == ["mlp_forward_backward"] * 7 + ["log_weights"]


@pytest.mark.parametrize("batch_pairs, estimate, final_loss", [
    (0, "0x1.0107759a8b1b8p-4", "-0x1.71e580525f791p+1"),
    (6, "0x1.b7a80423b77f2p-3", "-0x1.265b9c3a1570ap+1"),
])
def test_short_fit_is_pinned_to_the_bit(batch_pairs, estimate, final_loss):
    """Any change to the MLP's float operations or their order shows here."""
    ds, kernel, _ = continuous_instance(37, n=12)
    cfg = OptimizerConfig(method="sgd_adamlike", epochs=50, batch_pairs=batch_pairs, seed=2)
    w, _, info = train_parametric(ds, UniformPolicy(2), kernel, config=cfg)
    assert float(np.sum(w * ds.rewards)) == float.fromhex(estimate)
    assert info["final_loss"] == float.fromhex(final_loss)


def test_short_tabular_fit_is_pinned_to_the_bit():
    ds = sample_dataset(model_win(0.4), model_win_policy(0.5), num_trajectories=10, length=20, seed=3)
    kernel = RbfKernel(bandwidth=1.0, action_scale=1.0, num_states=3, num_actions=2)
    cfg = OptimizerConfig(method="sgd_adamlike", epochs=50, seed=2)
    w, _, info = train_parametric(ds, model_win_policy(0.9), kernel, config=cfg)
    assert float(np.sum(w * ds.rewards)) == float.fromhex("-0x1.979ba4817ca27p-5")
    assert info["final_loss"] == float.fromhex("-0x1.3874657193aecp+2")


def test_training_outputs_live_on_the_simplex():
    ds, kernel, _ = continuous_instance(31, n=12)
    cfg = OptimizerConfig(method="sgd_adamlike", epochs=60, seed=4)
    w, _, _ = train_parametric(ds, UniformPolicy(2), kernel, config=cfg)
    assert w.min() >= 0.0
    assert abs(w.sum() - 1.0) <= 1e-8


def test_final_bias_shift_leaves_weights_unchanged():
    ds, kernel, _ = continuous_instance(32, n=9)
    x = mlp_inputs(ds, kernel)
    model = MlpWeightModel.create(x.shape[1], hidden=(5, 3), seed=7)
    rng = make_rng(33)
    model.set_flat_parameters(rng.normal(size=model.flat_parameters().shape) * 0.3)
    base = normalize(np.exp(model.log_weights(x)))
    flat = model.flat_parameters()
    for c in (-3.0, 0.7, 25.0):
        shifted = flat.copy()
        shifted[-1] += c  # the final entry is the output layer's bias
        model.set_flat_parameters(shifted)
        moved = normalize(np.exp(model.log_weights(x)))
        np.testing.assert_allclose(moved, base, rtol=0, atol=1e-10)


def test_training_reports_divergence_with_epoch(monkeypatch):
    ds, kernel, _ = continuous_instance(34, n=6)
    bad = synthetic_matrices(np.full((6, 6), np.nan))
    monkeypatch.setattr(weights, "assemble_combined", lambda *args, **kwargs: bad)
    cfg = OptimizerConfig(method="sgd_adamlike", epochs=5)
    with pytest.raises(FloatingPointError, match="epoch 1"):
        train_parametric(ds, UniformPolicy(2), kernel, config=cfg)


def test_training_enforces_matrix_row_cap():
    ds, kernel, _ = continuous_instance(35, n=5)
    cfg = OptimizerConfig(method="sgd_adamlike", epochs=1, max_matrix_rows=4)
    with pytest.raises(ValueError, match="max_matrix_rows"):
        train_parametric(ds, UniformPolicy(2), kernel, config=cfg)


def test_trained_mlp_agrees_with_tabular_solver_on_modelwin():
    mdp = model_win(0.4)
    behavior = model_win_policy(0.5)
    target = model_win_policy(0.9)
    ds = sample_dataset(mdp, behavior, num_trajectories=200, length=100, seed=3)
    assert len(ds) == 20_000
    comp, counts, _ = compress_tabular(ds)
    mats = assemble_combined(comp, target, DeltaKernel(num_actions=2))
    w_tab, _, _ = solve_tabular(mats, comp, counts=counts, num_actions=2)
    est_tab = float(np.sum(counts * w_tab * np.asarray(comp.rewards)))
    kernel = RbfKernel(bandwidth=1.0, action_scale=1.0, num_states=3, num_actions=2)
    cfg = OptimizerConfig(method="sgd_adamlike", step_size=1e-2, epochs=3000, seed=0)
    w_mlp, _, info = train_parametric(ds, target, kernel, config=cfg)
    est_mlp = float(np.sum(w_mlp * np.asarray(ds.rewards)))
    assert abs(est_mlp - est_tab) <= 0.03
    # sanity: the loss actually went somewhere
    assert info["loss_trace"][-1] < info["loss_trace"][0]


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_roundtrip_is_exact(tmp_path):
    rng = make_rng(40)
    model = MlpWeightModel.create(4, hidden=(6, 3), seed=8)
    model.set_flat_parameters(rng.normal(size=model.flat_parameters().shape))
    path = tmp_path / "model.json"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    assert loaded.input_dim == model.input_dim
    assert len(loaded.weights) == len(model.weights)
    for (w_a, b_a), (w_b, b_b) in zip(model.weights, loaded.weights):
        assert np.array_equal(w_a, w_b)
        assert np.array_equal(b_a, b_b)
    x = rng.normal(size=(5, 4))
    assert np.array_equal(model.log_weights(x), loaded.log_weights(x))


def test_checkpoint_is_named_tensors_with_shapes(tmp_path):
    model = MlpWeightModel.create(3, hidden=(4,), seed=0)
    path = tmp_path / "model.json"
    save_checkpoint(model, path)
    doc = json.loads(path.read_text())
    assert doc["format"] == "bbope-mlp-checkpoint"
    assert doc["version"] == 1
    names = [t["name"] for t in doc["tensors"]]
    assert names == ["layer0.weight", "layer0.bias", "layer1.weight", "layer1.bias"]
    by_name = {t["name"]: t for t in doc["tensors"]}
    assert by_name["layer0.weight"]["shape"] == [3, 4]
    assert by_name["layer1.weight"]["shape"] == [4, 1]
    for tensor in doc["tensors"]:
        flat = np.asarray(tensor["values"], dtype=np.float64).reshape(-1)
        assert len(flat) == int(np.prod(tensor["shape"]))


def test_checkpoint_rejects_foreign_documents(tmp_path):
    model = MlpWeightModel.create(3, hidden=(4,), seed=0)
    path = tmp_path / "model.json"
    save_checkpoint(model, path)
    doc = json.loads(path.read_text())

    wrong_version = dict(doc, version=2)
    p1 = tmp_path / "v2.json"
    p1.write_text(json.dumps(wrong_version))
    with pytest.raises(ValueError):
        load_checkpoint(p1)

    wrong_format = dict(doc, format="other-format")
    p2 = tmp_path / "fmt.json"
    p2.write_text(json.dumps(wrong_format))
    with pytest.raises(ValueError):
        load_checkpoint(p2)
