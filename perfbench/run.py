"""Benchmark for bbope: one workload, timed for a fixed number of seconds.

Run from the repository root:

    python3 perfbench/run.py --workload cartpole-5k --seed 1 --seconds 18 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` installs the tracer on bbope and
reports the per-layer metrics instead, and also writes every span to
``.perfbench/trace-<workload>-<seed>.json``.  See perfbench/README.md.
"""

import time

PROCESS_START = time.perf_counter()  # before numpy and bbope are imported

import argparse
import json
import os
import resource
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
TRACE_DIR = ".perfbench"

# end-to-end metrics: name -> unit
END_TO_END = {
    "setup_s": "s",
    "replicate_s": "s",
    "blackbox_s": "s",
    "model_based_s": "s",
    "log_steps_per_s": "transitions/s",
    "peak_rss_mb": "MB",
}

# per-layer metrics: per-replicate medians of the traced totals
REPLICATE_LAYERS = {
    "kernels.assemble_combined.self_s": "s",
    "kernels.assemble_combined.matrix_bytes": "bytes",
    "kernels.smoothed_transition_matrix.self_s": "s",
    "kernels.smoothed_transition_matrix.matrix_bytes": "bytes",
    "mmd.log_loss_full.self_s": "s",
    "mmd.log_loss_full.calls": "count",
    "weights.train_parametric.self_s": "s",
    "weights.mlp_forward_backward.self_s": "s",
    "weights.log_weights.self_s": "s",
    "weights.compress_tabular.self_s": "s",
    "weights.compress_tabular.calls": "count",
    "weights.compress_tabular.distinct_triples": "count",
    "weights.solve_tabular.self_s": "s",
    "weights.solve_tabular.groups": "count",
    "weights.minimize_quadratic_on_simplex.self_s": "s",
    "weights.minimize_quadratic_on_simplex.iterations": "count",
    "oracle.stationary_of_matrix.self_s": "s",
    "oracle.stationary_of_matrix.calls": "count",
    "mdp.policy.prob_matrix.self_s": "s",
    "mdp.policy.prob_matrix.rows": "count",
    "mdp.policy.action_probabilities.self_s": "s",
    "mdp.policy.action_probabilities.calls": "count",
    "envs.sample_env_dataset.self_s": "s",
    "envs.sample_env_trajectory.self_s": "s",
    "envs.steps": "count",
    "mdp.sample_dataset.self_s": "s",
    "mdp.dataset_from_trajectories.self_s": "s",
    "estimators.blackbox_estimate.self_s": "s",
    "estimators.model_based_estimate.self_s": "s",
    "estimators.tabular_stationary_ips.self_s": "s",
    "estimators.naive_average.self_s": "s",
}
# per-layer metrics of the set-up phase, reported once per run
SETUP_LAYERS = {
    "kernels.median_bandwidth.self_s": "kernels.median_bandwidth.self_s",
    "setup.envs.sample_env_trajectory.self_s": "envs.sample_env_trajectory.self_s",
    "setup.mdp.policy.action_probabilities.self_s": "mdp.policy.action_probabilities.self_s",
    "setup.oracle.exact_average_reward.self_s": "oracle.exact_average_reward.self_s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def prepare_imports():
    """Import bbope from ./src of the checkout, with BLAS capped at nproc.

    Returns an error message instead when the sources are missing, so a
    copy of the benchmark without the library fails rather than picking
    up some other installed bbope.
    """
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "bbope", "__init__.py")):
        return f"no bbope sources at {src}; run from the repository root"
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    sys.path[:0] = [src, HERE]
    return None


def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end_metrics(setup_s, outcomes):
    ok = [o for o in outcomes if not o.failed]
    values = {
        "setup_s": setup_s,
        "replicate_s": median([o.seconds for o in ok]),
        "blackbox_s": median([o.blackbox_s for o in ok]),
        "model_based_s": median([o.model_based_s for o in ok]),
        "log_steps_per_s": median([o.steps / o.sample_s for o in ok]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def rmse(outcomes, method):
    errors = [o.estimates[method] - o.truth for o in outcomes]
    return (sum(e * e for e in errors) / len(errors)) ** 0.5 if errors else 0.0


def per_layer_metrics(tracer, outcomes):
    clean = [i for i, o in enumerate(outcomes) if not o.failed]
    per_rep = [tracer.phase_totals(f"replicate-{i}") for i in clean]
    setup = tracer.phase_totals("setup")
    metrics = {}
    for name, unit in REPLICATE_LAYERS.items():
        metrics[name] = {"value": median([t.get(name, 0.0) for t in per_rep]), "unit": unit}
    for name, source in SETUP_LAYERS.items():
        metrics[name] = {"value": setup.get(source, 0.0), "unit": "s"}
    metrics["trace.replicate_s"] = {"value": median([outcomes[i].seconds for i in clean]), "unit": "s"}
    ok = [outcomes[i] for i in clean]
    metrics["accuracy.blackbox_rmse"] = {"value": rmse(ok, "blackbox"), "unit": "reward"}
    metrics["accuracy.model_based_rmse"] = {"value": rmse(ok, "model_based"), "unit": "reward"}
    return metrics


def write_trace(tracer, workload_name, seed, metrics):
    os.makedirs(TRACE_DIR, exist_ok=True)
    path = os.path.join(TRACE_DIR, f"trace-{workload_name}-{seed}.json")
    with open(path, "w") as fh:
        json.dump({"workload": workload_name, "seed": seed, "metrics": metrics,
                   "spans": tracer.spans}, fh)
    return path


def main(argv=None):
    args = parse_args(argv)
    error = prepare_imports()
    if error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, run_workload

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        from tracing import Tracer, bbope_targets
        tracer = Tracer()
        tracer.install(bbope_targets())
    try:
        run = run_workload(workload, args.seed, args.seconds, PROCESS_START, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()

    outcomes = run.outcomes
    unexpected = [p for o in outcomes if o.kind == "clean" for p in o.problems]
    for problem in unexpected:
        print(f"perfbench: FAILED CHECK: {problem}", file=sys.stderr)
    for o in outcomes:
        if o.kind != "clean":
            for problem in o.problems:
                print(f"perfbench: expected failure ({o.kind} replicate): {problem}", file=sys.stderr)

    if tracer is None:
        metrics = end_to_end_metrics(run.setup_s, outcomes)
    else:
        metrics = per_layer_metrics(tracer, outcomes)
        print(f"perfbench: trace written to {write_trace(tracer, args.workload, args.seed, metrics)}",
              file=sys.stderr)
    result = {
        "correct": not unexpected,
        "attempted": len(outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
