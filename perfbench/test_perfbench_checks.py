"""The benchmark's own checks must pass on bbope's outputs and fail on corrupted ones.

Run from the repository root with ``PYTHONPATH=src python3 -m pytest perfbench``.
"""

import numpy as np
import pytest

import checks
import workloads
from bbope import envs, estimators, kernels, mdp, oracle
from bbope.rng import make_rng


def small_tabular_log(seed=3, S=4, A=2):
    world = envs.random_tabular_mdp(S, A, seed)
    rng = make_rng(seed)
    target = mdp.TabularPolicy(rng.dirichlet(np.ones(A), size=S))
    behavior = mdp.TabularPolicy(np.full((S, A), 1.0 / A))
    data = mdp.sample_dataset(world, behavior, 50, 20, seed)
    return world, target, behavior, data


def test_empirical_value_uses_mean_rewards():
    # one state, one action, rewards [1, 0, 0, 0]: the empirical MDP earns 0.25
    zeros = np.zeros(4, dtype=np.int64)
    value = checks.empirical_average_reward(zeros, zeros, np.array([1.0, 0.0, 0.0, 0.0]), zeros,
                                            np.ones((1, 1)))
    assert value == pytest.approx(0.25)
    assert checks.check_close("blackbox", 0.25, value, workloads.EMPIRICAL_TOL) == []
    assert checks.check_close("blackbox", 1.0, value, workloads.EMPIRICAL_TOL)


def test_empirical_value_needs_every_pair_logged():
    states = np.array([0, 0, 1])
    actions = np.array([0, 0, 0])
    with pytest.raises(ValueError, match="never logged"):
        checks.empirical_average_reward(states, actions, np.ones(3), states, np.full((2, 2), 0.5))


def test_empirical_check_accepts_bbope_and_rejects_a_shift():
    _, target, _, data = small_tabular_log()
    want = checks.empirical_average_reward(data.states, data.actions, data.rewards,
                                           data.next_states, target.table)
    got = estimators.model_based_estimate(data, target).estimate
    tol = workloads.EMPIRICAL_TOL
    assert checks.check_close("model_based", got, want, tol) == []
    assert checks.check_close("model_based", got + 2 * tol, want, tol)
    assert checks.check_close("model_based", got - 2 * tol, want, tol)


def test_reference_check_agrees_with_the_oracle_and_rejects_a_shift():
    world, target, _, _ = small_tabular_log(seed=5)
    want = checks.mdp_average_reward(world.transition, world.reward, target.table)
    got = oracle.exact_average_reward(world, target)
    tol = workloads.REFERENCE_TOL
    assert checks.check_close("exact_average_reward", got, want, tol) == []
    assert checks.check_close("exact_average_reward", got + 10 * tol, want, tol)


def test_range_check():
    rewards = np.array([-100.0, 1.0, 1.0])
    assert checks.check_in_range("blackbox", 0.5, rewards) == []
    assert checks.check_in_range("blackbox", 1.0, rewards) == []
    assert checks.check_in_range("blackbox", 1.0 + 1e-6, rewards)
    assert checks.check_in_range("blackbox", -100.5, rewards)


def test_flow_matrix_check_accepts_bbope_and_rejects_a_perturbed_entry():
    rng = make_rng(7)
    n, A = 60, 3
    states = rng.normal(size=(n, 2))
    next_states = states + 0.1 * rng.normal(size=(n, 2))
    actions = rng.integers(0, A, size=n)
    data = mdp.TransitionDataset(states, actions, np.zeros(n), next_states)
    logits = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])

    def rule(s):
        z = np.exp(logits @ s)
        return z / z.sum()

    policy = mdp.FunctionPolicy(rule, A)
    shift, scale = np.array([0.1, -0.2]), np.array([1.5, 0.7])
    kernel = kernels.RbfKernel(0.9, 1.3, num_actions=A, state_shift=shift, state_scale=scale)
    pi_next = np.stack([rule(s) for s in next_states])
    want = checks.rbf_flow_matrix(states, actions, next_states, pi_next, 0.9, 1.3, shift, scale)
    got = kernels.assemble_combined(data, policy, kernel, dtype=np.float32).sym
    tol = workloads.MATRIX_TOL
    assert checks.check_matrix("assemble_combined", got, want, tol) == []
    bad = got.copy()
    bad[4, 9] += 10 * tol
    assert checks.check_matrix("assemble_combined", bad, want, tol)


def control_case():
    workload = workloads.WORKLOADS["pendulum-2k"]
    env = envs.infinite_horizon(envs.classic_control("pendulum"))
    scripted = envs.scripted_near_optimal("pendulum")
    uniform = mdp.UniformPolicy(env.num_actions)
    data = envs.sample_env_dataset(env, mdp.MixedPolicy(scripted, uniform, 0.5), 2, 100, 11)
    shift, scale = kernels.state_standardizer(data.states)
    kernel = kernels.RbfKernel(1.2, 1.0, num_actions=env.num_actions, state_shift=shift,
                               state_scale=scale)
    ctx = {"seed": 0, "kernel": kernel, "scripted": scripted,
           "target": mdp.MixedPolicy(scripted, uniform, 0.9)}
    naive = float(np.mean(data.rewards))
    out = workloads.Outcome("clean", estimates={m: naive for m in ("blackbox", "model_based", "naive")},
                            check_input=(data, 0))
    return workload, ctx, out, data


def test_control_workload_check_passes_and_catches_corruption(monkeypatch):
    workload, ctx, out, data = control_case()
    assert workload.check(ctx, out) == []

    out.estimates["model_based"] = float(np.max(data.rewards)) + 1e-3
    assert any("model_based" in p for p in workload.check(ctx, out))

    out.estimates["model_based"] = out.estimates["naive"]
    original = kernels.assemble_combined

    def perturbed(*args, **kwargs):
        mats = original(*args, **kwargs)
        mats.sym[0, 1] += 10 * workloads.MATRIX_TOL
        return mats

    monkeypatch.setattr(kernels, "assemble_combined", perturbed)
    assert any("assemble_combined" in p for p in workload.check(ctx, out))


def test_tabular_workload_check_passes_and_catches_shifted_values():
    workload = workloads.WORKLOADS["tabular-sweep"]
    ctx = workload.setup(seed=1)
    spec = workload.round(ctx, 0)[2]
    assert spec[:2] == ("clean", 16)
    out = workload.replicate(ctx, spec, index=0)
    assert workload.check(ctx, out) == []
    out.estimates["blackbox"] += 2 * workloads.EMPIRICAL_TOL
    assert any("blackbox" in p for p in workload.check(ctx, out))
    out.estimates["blackbox"] -= 2 * workloads.EMPIRICAL_TOL
    spec[2]["truth"] += 10 * workloads.REFERENCE_TOL
    assert any("exact_average_reward" in p for p in workload.check(ctx, out))


def test_benchmark_json_lists_what_the_runner_reports():
    import json
    import os

    import run

    with open(os.path.join(os.path.dirname(__file__), "..", "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    layers = {m["name"] for m in spec["per_layer"]}
    assert set(run.REPLICATE_LAYERS) | set(run.SETUP_LAYERS) <= layers


def test_tracer_nests_spans_and_restores_the_library():
    import tracing

    original = estimators.blackbox_estimate
    workload = workloads.WORKLOADS["tabular-sweep"]
    ctx = workload.setup(seed=2)
    spec = workload.round(ctx, 0)[0]
    tracer = tracing.Tracer()
    tracer.install(tracing.bbope_targets())
    try:
        assert estimators.blackbox_estimate is not original
        tracer.phase, tracer.enabled = "replicate-0", True
        workload.replicate(ctx, spec, index=0)
        tracer.enabled = False
    finally:
        tracer.uninstall()
    assert estimators.blackbox_estimate is original

    totals = tracer.phase_totals("replicate-0")
    assert totals["weights.compress_tabular.calls"] == 2
    assert totals["estimators.blackbox_estimate.calls"] == 1
    assert totals["weights.solve_tabular.groups"] == 90
    by_id = {s["id"]: s for s in tracer.spans}
    assemble = next(s for s in tracer.spans if s["name"] == "kernels.assemble_combined")
    assert by_id[assemble["parent"]]["name"] == "estimators.blackbox_estimate"
    assert all(v >= 0 for k, v in totals.items() if k.endswith(".self_s"))
