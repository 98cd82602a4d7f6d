"""Per-layer tracing of bbope, done from outside the library.

The tracer replaces bbope's public functions (and a few policy/model
methods) with wrappers that record spans; nothing inside ``src/bbope``
knows about it.  Module-level functions are rebound in every ``bbope.*``
module that imported them by name, so calls between library modules are
seen too.  ``uninstall`` puts the originals back.

Three kinds of wrapper:

* span -- one record per call (name, start, end, parent), for calls that
  happen at most a few hundred times per replicate;
* hot  -- calls that run ~1e5 times per replicate (per-step policy
  evaluation) are kept only as a call count and summed time;
* count -- a bare call counter with no timing (environment steps).

Self time is a call's duration minus the time of the traced calls it
made.  Totals are kept per phase ("setup" or one label per replicate)
so that per-replicate figures can be reported as medians.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# quantities reported as the largest value seen in a phase, not the sum
MAX_QUANTITIES = frozenset({"matrix_bytes", "distinct_triples", "groups"})


class Tracer:
    def __init__(self):
        self.enabled = False
        self.phase = "setup"
        self.origin = time.perf_counter()
        self.spans = []  # dicts: id, parent, phase, name, start, end
        self.totals = defaultdict(float)  # (phase, metric name) -> value
        self._stack = []  # open frames: [span id, name, seconds spent in traced children]
        self._restore = []  # (owner, attribute, original)

    # -- recording -----------------------------------------------------

    def add(self, metric, value):
        key = (self.phase, metric)
        if metric.rsplit(".", 1)[-1] in MAX_QUANTITIES:
            self.totals[key] = max(self.totals[key], float(value))
        else:
            self.totals[key] += float(value)

    def _call(self, name, fn, args, kwargs, measure, keep_span):
        frame = [len(self.spans), name, 0.0]
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - start
            if self._stack:
                self._stack[-1][2] += duration
            self.add(name + ".self_s", duration - frame[2])
            self.add(name + ".calls", 1)
            if keep_span:
                self.spans.append({
                    "id": frame[0], "parent": parent, "phase": self.phase, "name": name,
                    "start": start - self.origin, "end": end - self.origin,
                })
        if measure is not None:
            for quantity, value in measure(result).items():
                self.add(f"{name}.{quantity}", value)
        return result

    def wrap(self, name, fn, kind="span", measure=None, opaque_inside=()):
        """Return a traced stand-in for fn.

        Calls made while the innermost open span is one of
        ``opaque_inside`` run untraced, so a layer that calls itself
        (a mixed policy asking its parts) is counted once.
        """
        tracer = self

        if kind == "count":
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                if tracer.enabled:
                    tracer.add(name, 1)
                return fn(*args, **kwargs)
            return counted

        keep_span = kind == "span"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled or (tracer._stack and tracer._stack[-1][1] in opaque_inside):
                return fn(*args, **kwargs)
            return tracer._call(name, fn, args, kwargs, measure, keep_span)

        return traced

    # -- installing ----------------------------------------------------

    def install(self, targets):
        """targets: (metric name, owner, attribute, wrap options) tuples.

        A class owner gets its method replaced; a module owner's function
        is replaced wherever a bbope module holds a reference to it.
        """
        for name, owner, attribute, options in targets:
            original = vars(owner)[attribute]
            traced = self.wrap(name, original, **options)
            if isinstance(owner, type):
                self._rebind(owner, attribute, original, traced)
                continue
            for module_name, module in list(sys.modules.items()):
                if module is None or not (module_name == "bbope" or module_name.startswith("bbope.")):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, key, original, traced)

    def _rebind(self, owner, attribute, original, replacement):
        setattr(owner, attribute, replacement)
        self._restore.append((owner, attribute, original))

    def uninstall(self):
        while self._restore:
            owner, attribute, original = self._restore.pop()
            setattr(owner, attribute, original)

    # -- summaries -----------------------------------------------------

    def phase_totals(self, phase):
        return {metric: value for (p, metric), value in self.totals.items() if p == phase}


def bbope_targets():
    """The traced layers: every public entry point the workloads reach."""
    from bbope import envs, estimators, kernels, mdp, mmd, oracle, weights

    policy_layer = ("mdp.policy.prob_matrix", "mdp.policy.action_probabilities")
    targets = [
        ("envs.sample_env_dataset", envs, "sample_env_dataset", {}),
        ("envs.sample_env_trajectory", envs, "sample_env_trajectory", {}),
        ("envs.steps", envs.ContinuousEnv, "step", {"kind": "count"}),
        ("mdp.sample_dataset", mdp, "sample_dataset", {}),
        ("mdp.dataset_from_trajectories", mdp, "dataset_from_trajectories", {}),
        ("kernels.median_bandwidth", kernels, "median_bandwidth", {}),
        ("kernels.assemble_combined", kernels, "assemble_combined",
         {"measure": lambda m: {"matrix_bytes": m.sym.nbytes}}),
        ("kernels.smoothed_transition_matrix", kernels, "smoothed_transition_matrix",
         {"measure": lambda P: {"matrix_bytes": P.nbytes}}),
        ("mmd.log_loss_full", mmd, "log_loss_full", {}),
        ("weights.compress_tabular", weights, "compress_tabular",
         {"measure": lambda out: {"distinct_triples": len(out[0])}}),
        ("weights.solve_tabular", weights, "solve_tabular",
         {"measure": lambda out: {"groups": len(out[1].group_codes)}}),
        ("weights.minimize_quadratic_on_simplex", weights, "minimize_quadratic_on_simplex",
         {"measure": lambda out: {"iterations": out[1]["iterations"]}}),
        ("weights.train_parametric", weights, "train_parametric", {}),
        ("weights.mlp_forward_backward", weights, "mlp_forward_backward", {}),
        ("weights.log_weights", weights.MlpWeightModel, "log_weights", {}),
        ("oracle.stationary_of_matrix", oracle, "stationary_of_matrix", {}),
        ("oracle.exact_average_reward", oracle, "exact_average_reward", {}),
        ("estimators.naive_average", estimators, "naive_average", {}),
        ("estimators.blackbox_estimate", estimators, "blackbox_estimate", {}),
        ("estimators.model_based_estimate", estimators, "model_based_estimate", {}),
        ("estimators.tabular_stationary_ips", estimators, "tabular_stationary_ips", {}),
    ]
    for cls in (mdp.TabularPolicy, mdp.FunctionPolicy, mdp.UniformPolicy, mdp.MixedPolicy):
        targets.append(("mdp.policy.prob_matrix", cls, "prob_matrix",
                        {"measure": lambda rows: {"rows": len(rows)},
                         "opaque_inside": policy_layer}))
        targets.append(("mdp.policy.action_probabilities", cls, "action_probabilities",
                        {"kind": "hot", "opaque_inside": policy_layer}))
    return targets
