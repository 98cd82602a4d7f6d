"""The benchmark's three workloads: set-up, rounds of replicates, checks.

One replicate is one operation: simulate a log, then run every
estimator on it.  Replicates run one after another in this process
(a closed loop with one client).  A workload repeats whole rounds of
replicates, so every run attempts the same mix of operations.

All inputs derive from the workload seed through ``derive_seed``; the
one exception is tabular-sweep's noisy-reward replicate, whose inputs
are fixed (see ``NOISY_SEED``).  Library calls go through module
attributes (``estimators.blackbox_estimate``) so a tracer installed on
bbope sees them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from bbope import envs, estimators, kernels, mdp, oracle, weights
from bbope.rng import derive_seed, make_rng

import checks

CONTROL_OPTIMIZER = dict(method="sgd_adamlike", epochs=200, step_size=1e-2, batch_pairs=0,
                         matrix_dtype="float32")
TABULAR_OPTIMIZER = dict(method="exp_gradient", epochs=2000, step_size=1e-2)
RIDGE = 1e-6

# blackbox/model-based against the numpy empirical-MDP value (rewards in [-1, 1])
EMPIRICAL_TOL = 3e-4
# bbope's exact solve against the numpy one
REFERENCE_TOL = 1e-9
# float32 assembly against the float64 definition, per entry
MATRIX_TOL = 1e-4
CHECK_ROWS = 200

# tabular-sweep's noisy-reward replicate: inputs fixed, independent of the seed
NOISY_SEED = 20200429
NOISY_LENGTH = 16
NOISY_STD = 0.5


@dataclass
class Outcome:
    """One replicate: its timings, estimates and failed checks."""

    kind: str  # "clean", or "noisy" for a replicate expected to fail its check
    truth: float = float("nan")  # the reference value the estimates aim at
    seconds: float = 0.0
    sample_s: float = 0.0
    blackbox_s: float = 0.0
    model_based_s: float = 0.0
    steps: int = 0
    estimates: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)
    check_input: tuple = ()  # what the workload's check needs besides the estimates

    @property
    def failed(self):
        return bool(self.problems)


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - start


def _estimate_all(outcome, data, target, blackbox_kwargs, model_based_kwargs, behavior=None):
    report, outcome.blackbox_s = _timed(estimators.blackbox_estimate, data, target, **blackbox_kwargs)
    outcome.estimates["blackbox"] = report.estimate
    report, outcome.model_based_s = _timed(estimators.model_based_estimate, data, target,
                                           **model_based_kwargs)
    outcome.estimates["model_based"] = report.estimate
    if behavior is not None:
        outcome.estimates["ips"] = estimators.tabular_stationary_ips(data, behavior, target).estimate
    outcome.estimates["naive"] = estimators.naive_average(data).estimate


# ---------------------------------------------------------------------------
# Control workloads: cart-pole and pendulum under scripted/uniform mixtures


class ControlWorkload:
    """Mixture behavior alpha1 vs target alpha2 = 0.9 on a control task.

    Set-up: the reference value from five 20 000-step target rollouts,
    the state standardizer and the median-heuristic bandwidth from one
    50 x 200 tuning log under the first alpha1.  A round is one
    replicate per alpha1 in ``alphas``.
    """

    target_alpha = 0.9
    length = 200
    truth_rollouts = 5
    truth_length = 20_000
    tuning_trajectories = 50
    median_subsample = 2000

    def __init__(self, name, env_name, trajectories, alphas):
        self.name = name
        self.env_name = env_name
        self.trajectories = trajectories
        self.alphas = tuple(alphas)

    def setup(self, seed):
        env = envs.infinite_horizon(envs.classic_control(self.env_name))
        scripted = envs.scripted_near_optimal(self.env_name)
        uniform = mdp.UniformPolicy(env.num_actions)
        target = mdp.MixedPolicy(scripted, uniform, self.target_alpha)
        truth = float(np.mean([
            envs.sample_env_trajectory(env, target, self.truth_length,
                                       derive_seed(seed, self.name, "truth", k)).mean_reward()
            for k in range(self.truth_rollouts)
        ]))
        tuning = envs.sample_env_dataset(env, mdp.MixedPolicy(scripted, uniform, self.alphas[0]),
                                         self.tuning_trajectories, self.length,
                                         derive_seed(seed, self.name, "tune"))
        shift, scale = kernels.state_standardizer(tuning.states)
        probe = kernels.RbfKernel(1.0, 1.0, num_actions=env.num_actions,
                                  state_shift=shift, state_scale=scale)
        feats = probe.features(tuning.states, tuning.actions)
        pick = make_rng(derive_seed(seed, self.name, "median")).permutation(len(feats))
        bandwidth = kernels.median_bandwidth(feats[pick[: self.median_subsample]])
        kernel = kernels.RbfKernel(bandwidth, 1.0, num_actions=env.num_actions,
                                   state_shift=shift, state_scale=scale)
        return {"seed": seed, "env": env, "scripted": scripted, "uniform": uniform,
                "target": target, "truth": truth, "kernel": kernel}

    def round(self, ctx, number):
        return [("clean", alpha) for alpha in self.alphas]

    def replicate(self, ctx, spec, index):
        kind, alpha = spec
        out = Outcome(kind, truth=ctx["truth"])
        behavior = mdp.MixedPolicy(ctx["scripted"], ctx["uniform"], alpha)
        start = time.perf_counter()
        data, out.sample_s = _timed(envs.sample_env_dataset, ctx["env"], behavior,
                                    self.trajectories, self.length,
                                    derive_seed(ctx["seed"], self.name, "log", index))
        out.steps = len(data)
        _estimate_all(out, data, ctx["target"],
                      dict(kernel=ctx["kernel"], config=weights.OptimizerConfig(**CONTROL_OPTIMIZER),
                           weight_model="mlp"),
                      dict(kernel=ctx["kernel"], ridge=RIDGE, dtype=np.float32))
        out.seconds = time.perf_counter() - start
        out.check_input = (data, index)
        return out

    def check(self, ctx, out):
        data, index = out.check_input
        problems = []
        for method in ("blackbox", "model_based", "naive"):
            problems += checks.check_in_range(method, out.estimates[method], data.rewards)
        rows = make_rng(derive_seed(ctx["seed"], self.name, "check", index)).choice(
            len(data), size=min(CHECK_ROWS, len(data)), replace=False)
        sub = mdp.TransitionDataset(states=data.states[rows], actions=data.actions[rows],
                                    rewards=data.rewards[rows], next_states=data.next_states[rows])
        kernel, target = ctx["kernel"], ctx["target"]
        got = kernels.assemble_combined(sub, target, kernel, dtype=np.float32).sym
        # pi(b | s') rebuilt from the scripted rule, not through the policy objects
        A = kernel.num_actions
        rule = np.stack([np.asarray(ctx["scripted"].fn(s), dtype=np.float64) for s in sub.next_states])
        pi_next = target.alpha * rule + (1.0 - target.alpha) / A
        want = checks.rbf_flow_matrix(sub.states, sub.actions, sub.next_states, pi_next,
                                      kernel.bandwidth, kernel.action_scale,
                                      kernel.state_shift, kernel.state_scale)
        problems += checks.check_matrix("assemble_combined", got, want, MATRIX_TOL)
        return problems


# ---------------------------------------------------------------------------
# Tabular workload: random MDPs, a fixed budget split at several horizons


class TabularWorkload:
    """A transition budget split into trajectories of each length in ``lengths``.

    Every round draws a fresh random MDP and policies from the seed, so
    a run averages over several MDPs.  The behavior policy is a random
    table mixed half-and-half with uniform, so every (state, action)
    pair is logged.  A round is one clean replicate per length plus one
    noisy-reward replicate on fixed inputs, which bbope currently gets
    wrong (``compress_tabular`` keeps the first reward of each
    (s, a, s') triple instead of the mean).  Clean replicates have
    deterministic rewards because ``TabularMdp`` holds deterministic
    rewards.
    """

    name = "tabular-sweep"
    num_states = 30
    num_actions = 3
    budget = 20_000
    lengths = (4, 8, 16, 32, 64, 128)

    def _problem(self, seed):
        S, A = self.num_states, self.num_actions
        world = envs.random_tabular_mdp(S, A, derive_seed(seed, "mdp"))
        rng = make_rng(derive_seed(seed, "policies"))
        target = mdp.TabularPolicy(rng.dirichlet(np.ones(A), size=S))
        base = mdp.TabularPolicy(rng.dirichlet(np.ones(A), size=S))
        behavior = mdp.mix_policies(base, mdp.TabularPolicy(np.full((S, A), 1.0 / A)), 0.5)
        truth = oracle.exact_average_reward(world, target)
        return {"seed": seed, "mdp": world, "target": target, "behavior": behavior,
                "truth": truth}

    def setup(self, seed):
        return {"seed": seed, "noisy": self._problem(NOISY_SEED)}

    def round(self, ctx, number):
        problem = self._problem(derive_seed(ctx["seed"], self.name, "round", number))
        return ([("clean", length, problem) for length in self.lengths]
                + [("noisy", NOISY_LENGTH, ctx["noisy"])])

    def replicate(self, ctx, spec, index):
        kind, length, problem = spec
        out = Outcome(kind, truth=problem["truth"])
        log_seed = derive_seed(problem["seed"], self.name, "log", length)
        start = time.perf_counter()
        num_traj = -(-self.budget // length)
        data, out.sample_s = _timed(mdp.sample_dataset, problem["mdp"], problem["behavior"],
                                    num_traj, length, log_seed, total_budget=self.budget)
        if kind == "noisy":
            noise = make_rng(derive_seed(NOISY_SEED, self.name, "noise")).normal(
                0.0, NOISY_STD, size=len(data))
            data = mdp.TransitionDataset(data.states, data.actions, data.rewards + noise,
                                         data.next_states, data.traj_starts)
        out.steps = len(data)
        _estimate_all(out, data, problem["target"],
                      dict(config=weights.OptimizerConfig(**TABULAR_OPTIMIZER)),
                      dict(ridge=RIDGE), behavior=problem["behavior"])
        out.seconds = time.perf_counter() - start
        out.check_input = (data, problem)
        return out

    def check(self, ctx, out):
        data, problem = out.check_input
        world, table = problem["mdp"], problem["target"].table
        problems = checks.check_close("exact_average_reward", problem["truth"],
                                      checks.mdp_average_reward(world.transition, world.reward, table),
                                      REFERENCE_TOL)
        want = checks.empirical_average_reward(data.states, data.actions, data.rewards,
                                               data.next_states, table)
        for method in ("blackbox", "model_based"):
            problems += checks.check_close(f"{method} vs the empirical MDP",
                                           out.estimates[method], want, EMPIRICAL_TOL)
        return problems


@dataclass
class Run:
    setup_s: float
    outcomes: list


def run_workload(workload, seed, seconds, process_start, tracer=None):
    """Set up, then run whole rounds until ``seconds`` have passed.

    Set-up time runs from ``process_start``, so it includes the imports.
    Building a round (tabular-sweep's MDP and exact reference) counts as
    set-up work in the trace.  Checks run with the tracer paused and
    outside every timed region.
    """
    def traced(phase):
        if tracer is not None:
            tracer.phase = phase
            tracer.enabled = True

    def paused():
        if tracer is not None:
            tracer.enabled = False

    traced("setup")
    ctx = workload.setup(seed)
    setup_s = time.perf_counter() - process_start
    paused()

    outcomes = []
    start = time.perf_counter()
    number = 0
    while not outcomes or time.perf_counter() - start < seconds:
        traced("setup")
        specs = workload.round(ctx, number)
        number += 1
        for spec in specs:
            traced(f"replicate-{len(outcomes)}")
            try:
                out = workload.replicate(ctx, spec, len(outcomes))
            except Exception as exc:  # a replicate that raises is a failed operation
                paused()
                out = Outcome(spec[0], problems=[f"raised {exc!r}"])
            else:
                paused()
                try:
                    out.problems += workload.check(ctx, out)
                except Exception as exc:
                    out.problems.append(f"check raised {exc!r}")
            out.check_input = ()
            outcomes.append(out)
    return Run(setup_s, outcomes)


WORKLOADS = {
    "cartpole-5k": ControlWorkload("cartpole-5k", "cartpole", 25, (0.7,)),
    "pendulum-2k": ControlWorkload("pendulum-2k", "pendulum", 10, (0.7, 0.5, 0.3, 0.1)),
    "tabular-sweep": TabularWorkload(),
}
