"""Benchmark protocols with seeded Monte-Carlo aggregation and CSV output.

Five experiments, selected by ``ExperimentConfig.experiment``:

* ``modelwin_horizon`` -- fixed transition budget split into behavior
  trajectories of varying length; all four estimators per run.
* ``control_rmse`` -- classic-control task, mixture behavior/target
  policies, RMSE versus the number of logged trajectories.
* ``sensitivity`` -- same task, sweeping how much the behavior mixture
  tilts toward the scripted controller.
* ``bias_variance`` -- ModelWin with very short trajectories and many
  runs, exposing per-method bias versus spread.
* ``theorem1_check`` -- numeric parity of the two independent ways this
  package evaluates the flow discrepancy (see oracle.check_flow_identity);
  one row per random instance.

The first four are Monte-Carlo sweeps and share one driver, ``run_sweep``:
they differ only in the config field they sweep and in how a setting
shapes a run's log (trajectory count, length, budget, behavior mixture).

Config schema (JSON, ``config_version`` 1): a flat key/value tree whose
keys mirror ``ExperimentConfig`` field names exactly, with two nested
groups, ``"kernel"`` (KernelSpec fields) and ``"optimizer"``
(OptimizerConfig fields).  Unknown keys are rejected.  Command-line
flags override file keys; ``--paper-scale`` enlarges the desk-scale
sweep/run defaults (explicit keys always win over both).

Determinism contract: the run for setting ``s``, Monte-Carlo index ``r``
of experiment ``e`` draws from ``derive_seed(base_seed, e, s, r)``; all
per-experiment tuning (kernel bandwidth, standardization, ground-truth
rollouts) uses its own derived labels.  Results are aggregated in sorted
(setting, run) order, so the worker pool size never changes a byte of
the CSV.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .envs import (
    CONTROL_NAMES,
    classic_control,
    infinite_horizon,
    model_win,
    model_win_policy,
    random_tabular_mdp,
    sample_env_dataset,
    sample_env_trajectory,
    scripted_near_optimal,
)
from .estimators import (
    aggregate,
    blackbox_estimate,
    model_based_estimate,
    naive_average,
    tabular_stationary_ips,
)
from .kernels import RbfKernel, median_bandwidth, state_standardizer
from .mdp import MixedPolicy, TabularPolicy, UniformPolicy, sample_dataset
from .oracle import check_flow_identity, exact_average_reward
from .rng import derive_seed, make_rng
from .version import VERSION
from .weights import OptimizerConfig

__all__ = [
    "EXPERIMENTS",
    "KernelSpec",
    "ExperimentConfig",
    "ResultRow",
    "build_config",
    "run_experiment",
    "run_sweep",
    "run_identity_check",
    "emit_outputs",
]

EXPERIMENTS = (
    "modelwin_horizon",
    "control_rmse",
    "sensitivity",
    "bias_variance",
    "theorem1_check",
)

CSV_HEADER = "experiment,method,setting,rmse,bias,std,median,q25,q75,runs,seed"

_METHOD_CHOICES = {
    "modelwin_horizon": ("blackbox", "naive", "model_based", "ips"),
    "control_rmse": ("blackbox", "naive", "model_based"),
    "sensitivity": ("blackbox", "naive", "model_based"),
    "bias_variance": ("blackbox", "naive", "model_based", "ips"),
    "theorem1_check": ("identity_check",),
}


@dataclass
class KernelSpec:
    """How control experiments build their Gaussian kernel.

    bandwidth None means: tune once by the median pairwise distance over
    an encoded subsample of a `tuning_trajectories`-sized dataset, then
    freeze that value for every setting and run of the experiment.
    """

    bandwidth: float | None = None
    action_scale: float = 1.0
    percentile: float = 50.0
    median_subsample: int = 2000
    tuning_trajectories: int = 50

    def validate(self):
        if self.bandwidth is not None and self.bandwidth <= 0:
            raise ValueError("explicit bandwidth must be positive")
        if self.median_subsample < 2 or self.tuning_trajectories < 1:
            raise ValueError("median_subsample >= 2 and tuning_trajectories >= 1 required")


@dataclass
class ExperimentConfig:
    experiment: str = "modelwin_horizon"
    env_name: str = "model_win"
    # ModelWin family
    win_probability: float = 0.4
    behavior_q: float = 0.7
    target_q: float = 0.9
    total_budget: int = 50_000
    t_beh_sweep: tuple = (4, 8, 16, 32, 64, 128)
    bias_variance_counts: tuple = (50, 200, 800)
    bias_variance_length: int = 4
    # control family
    alpha1: float = 0.7
    alpha2: float = 0.9
    alpha1_sweep: tuple = (0.7, 0.5, 0.3, 0.1)
    t_beh: int = 200
    trajectory_counts: tuple = (10, 25, 50)
    sensitivity_trajectories: int = 50
    t_tar: int = 20_000
    truth_rollouts: int = 5
    # identity check
    identity_instances: int = 20
    # shared
    monte_carlo_runs: int = 10
    base_seed: int = 0
    methods: tuple = ()
    kernel: KernelSpec = field(default_factory=KernelSpec)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    ridge: float = 1e-6
    output_dir: str = "."
    output_stem: str | None = None
    svg: bool = False
    workers: int = 1
    paper_scale: bool = False

    def __post_init__(self):
        self.t_beh_sweep = tuple(int(t) for t in self.t_beh_sweep)
        self.bias_variance_counts = tuple(int(c) for c in self.bias_variance_counts)
        self.alpha1_sweep = tuple(float(a) for a in self.alpha1_sweep)
        self.trajectory_counts = tuple(int(c) for c in self.trajectory_counts)
        self.methods = tuple(self.methods)

    def validate(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}; choices: {EXPERIMENTS}")
        for name, value in [
            ("total_budget", self.total_budget),
            ("bias_variance_length", self.bias_variance_length),
            ("t_beh", self.t_beh),
            ("sensitivity_trajectories", self.sensitivity_trajectories),
            ("t_tar", self.t_tar),
            ("truth_rollouts", self.truth_rollouts),
            ("identity_instances", self.identity_instances),
            ("monte_carlo_runs", self.monte_carlo_runs),
            ("workers", self.workers),
        ]:
            if int(value) < 1:
                raise ValueError(f"{name} must be positive, got {value}")
        for name, seq in [
            ("t_beh_sweep", self.t_beh_sweep),
            ("bias_variance_counts", self.bias_variance_counts),
            ("trajectory_counts", self.trajectory_counts),
        ]:
            if not seq or any(v < 1 for v in seq):
                raise ValueError(f"{name} must be a non-empty tuple of positive counts")
        for name, a in [("alpha1", self.alpha1), ("alpha2", self.alpha2),
                        ("behavior_q", self.behavior_q), ("target_q", self.target_q),
                        ("win_probability", self.win_probability)]:
            if not 0.0 <= float(a) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {a}")
        if not self.alpha1_sweep or any(not 0.0 <= a <= 1.0 for a in self.alpha1_sweep):
            raise ValueError("alpha1_sweep entries must be in [0, 1]")
        if self.base_seed < 0:
            raise ValueError("base_seed must be non-negative")
        if self.experiment in ("control_rmse", "sensitivity") and self.env_name not in CONTROL_NAMES:
            raise ValueError(f"env_name must be one of {CONTROL_NAMES}, got {self.env_name!r}")
        if self.experiment == "modelwin_horizon" and self.total_budget < max(self.t_beh_sweep):
            raise ValueError("total_budget smaller than the longest behavior trajectory")
        allowed = _METHOD_CHOICES[self.experiment]
        methods = self.methods or allowed
        bad = [m for m in methods if m not in allowed]
        if bad:
            raise ValueError(f"methods {bad} not available for {self.experiment}; choices: {allowed}")
        self.methods = tuple(methods)
        self.kernel.validate()
        return self

    def to_dict(self):
        doc = dataclasses.asdict(self)
        doc["config_version"] = 1
        for key in ("t_beh_sweep", "bias_variance_counts", "alpha1_sweep",
                    "trajectory_counts", "methods"):
            doc[key] = list(doc[key])
        doc["optimizer"]["hidden_layers"] = list(doc["optimizer"]["hidden_layers"])
        return doc

    @classmethod
    def from_dict(cls, doc):
        doc = dict(doc)
        version = doc.pop("config_version", 1)
        if version != 1:
            raise ValueError(f"unsupported config_version {version}")
        _reject_unknown_keys(doc, cls, "config")
        for key, spec in (("kernel", KernelSpec), ("optimizer", OptimizerConfig)):
            if isinstance(doc.get(key), dict):
                _reject_unknown_keys(doc[key], spec, key)
                doc[key] = spec(**doc[key])
        return cls(**doc).validate()


def _reject_unknown_keys(doc, spec, what):
    unknown = set(doc) - {f.name for f in dataclasses.fields(spec)}
    if unknown:
        raise ValueError(f"unknown {what} keys: {sorted(unknown)}")


def build_config(experiment, env_name=None, overrides=None, paper_scale=False):
    """Desk-scale defaults for an experiment, optionally enlarged to the
    published protocol sizes, with explicit overrides applied last."""
    overrides = dict(overrides or {})
    paper_scale = bool(overrides.pop("paper_scale", False) or paper_scale)
    base = {"experiment": experiment, "paper_scale": paper_scale}
    if env_name is not None:
        base["env_name"] = env_name
    if experiment in ("modelwin_horizon", "bias_variance"):
        base["optimizer"] = {"method": "exp_gradient", "epochs": 2000, "step_size": 1e-2}
        if experiment == "bias_variance":
            base["monte_carlo_runs"] = 200
    elif experiment in ("control_rmse", "sensitivity"):
        base["optimizer"] = {
            "method": "sgd_adamlike",
            "epochs": 200,
            "step_size": 1e-2,
            "batch_pairs": 0,
            "matrix_dtype": "float32",
        }
    if paper_scale:
        if experiment == "modelwin_horizon":
            base["total_budget"] = 200_000
        if experiment in ("control_rmse", "sensitivity"):
            base["monte_carlo_runs"] = 20
            base["t_tar"] = 100_000
            base["truth_rollouts"] = 10
        if experiment == "control_rmse":
            base["trajectory_counts"] = (10, 25, 50, 100)
    for key, value in overrides.items():
        if key in ("kernel", "optimizer") and isinstance(value, dict):
            merged = dict(base.get(key, {}))
            merged.update(value)
            base[key] = merged
        else:
            base[key] = value
    return ExperimentConfig.from_dict(base)


@dataclass
class ResultRow:
    experiment: str
    method: str
    setting: float
    rmse: float
    bias: float
    std: float
    median: float
    q25: float
    q75: float
    runs: int
    seed: int


def _row(config, agg, setting):
    return ResultRow(
        experiment=config.experiment,
        method=agg.method,
        setting=float(setting),
        rmse=agg.rmse,
        bias=agg.bias,
        std=agg.std,
        median=agg.median,
        q25=agg.q25,
        q75=agg.q75,
        runs=agg.runs,
        seed=config.base_seed,
    )


# ---------------------------------------------------------------------------
# The sweep driver and its per-run worker (module level so process pools
# can pickle it)

# the config field whose values each sweep experiment walks through
_SWEEP_FIELD = {
    "modelwin_horizon": "t_beh_sweep",
    "bias_variance": "bias_variance_counts",
    "control_rmse": "trajectory_counts",
    "sensitivity": "alpha1_sweep",
}


def _run_shape(cfg, setting):
    """(trajectories, length, total_budget, alpha1) of one run at `setting`;
    alpha1 is None for the tabular ModelWin experiments."""
    if cfg.experiment == "modelwin_horizon":
        return -(-cfg.total_budget // setting), setting, cfg.total_budget, None  # ceil division
    if cfg.experiment == "bias_variance":
        return setting, cfg.bias_variance_length, None, None
    if cfg.experiment == "control_rmse":
        return setting, cfg.t_beh, None, cfg.alpha1
    return cfg.sensitivity_trajectories, cfg.t_beh, None, setting


def _map_tasks(worker, tasks, workers):
    if workers <= 1:
        return [worker(t) for t in tasks]
    from concurrent.futures import ProcessPoolExecutor  # slow to import; serial runs never need it

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, tasks, chunksize=1))


def _modelwin_policies(cfg):
    mdp = model_win(cfg.win_probability)
    return mdp, model_win_policy(cfg.behavior_q), model_win_policy(cfg.target_q)


def _control_setup(cfg, alpha1):
    env = infinite_horizon(classic_control(cfg.env_name))
    scripted = scripted_near_optimal(cfg.env_name)
    uniform = UniformPolicy(env.num_actions)
    behavior = MixedPolicy(scripted, uniform, alpha1)
    target = MixedPolicy(scripted, uniform, cfg.alpha2)
    return env, behavior, target


def _control_kernel(cfg, params):
    return RbfKernel(
        bandwidth=params["bandwidth"],
        action_scale=cfg.kernel.action_scale,
        num_actions=params["num_actions"],
        state_shift=np.asarray(params["shift"]),
        state_scale=np.asarray(params["scale"]),
    )


def _sweep_run(task):
    """Sample one run's log and return {method: estimate}."""
    cfg = ExperimentConfig.from_dict(task["config"])
    setting, run = task["setting"], task["run"]
    count, length, budget, alpha1 = _run_shape(cfg, setting)
    seed = derive_seed(cfg.base_seed, cfg.experiment, setting, run)
    try:
        if alpha1 is None:
            mdp, behavior, target = _modelwin_policies(cfg)
            dataset = sample_dataset(mdp, behavior, count, length, seed, total_budget=budget)
            kernel, dtype = None, np.float64
        else:
            env, behavior, target = _control_setup(cfg, alpha1)
            dataset = sample_env_dataset(env, behavior, count, length, seed)
            kernel = _control_kernel(cfg, task["kernel"])
            dtype = np.dtype(cfg.optimizer.matrix_dtype).type
        estimators = {
            "blackbox": lambda: blackbox_estimate(dataset, target, kernel, cfg.optimizer),
            "naive": lambda: naive_average(dataset),
            "model_based": lambda: model_based_estimate(
                dataset, target, kernel, ridge=cfg.ridge, dtype=dtype
            ),
            "ips": lambda: tabular_stationary_ips(dataset, behavior, target),
        }
        return {method: estimators[method]().estimate for method in cfg.methods}
    except Exception as exc:
        raise RuntimeError(
            f"{cfg.experiment} failed at setting {setting!r}, run {run}, seed {seed}: "
            f"{type(exc).__name__}: {exc}"
        ) from exc


def _tune_control_kernel(cfg, env, behavior):
    """Standardizer + bandwidth from one frozen tuning dataset."""
    tune_seed = derive_seed(cfg.base_seed, cfg.experiment, "tune")
    dataset = sample_env_dataset(env, behavior, cfg.kernel.tuning_trajectories, cfg.t_beh, tune_seed)
    shift, scale = state_standardizer(dataset.states)
    if cfg.kernel.bandwidth is not None:
        bandwidth = float(cfg.kernel.bandwidth)
    else:
        probe = RbfKernel(1.0, cfg.kernel.action_scale, num_actions=env.num_actions,
                          state_shift=shift, state_scale=scale)
        feats = probe.features(dataset.states, dataset.actions)
        rng = make_rng(derive_seed(cfg.base_seed, cfg.experiment, "median"))
        take = min(cfg.kernel.median_subsample, len(feats))
        idx = rng.permutation(len(feats))[:take]
        bandwidth = median_bandwidth(feats[idx], cfg.kernel.percentile)
    return {
        "bandwidth": bandwidth,
        "shift": shift.tolist(),
        "scale": scale.tolist(),
        "num_actions": env.num_actions,
    }


def _control_truth(cfg, env, target):
    values = []
    for k in range(cfg.truth_rollouts):
        seed = derive_seed(cfg.base_seed, cfg.experiment, "truth", k)
        values.append(sample_env_trajectory(env, target, cfg.t_tar, seed).mean_reward())
    return float(np.mean(values))


def run_sweep(config):
    """Run `monte_carlo_runs` seeded runs per value of the experiment's
    swept field and aggregate each method against the ground truth,
    which is computed once.  Returns (rows, extras)."""
    config.validate()
    extras = {}
    if config.experiment in ("modelwin_horizon", "bias_variance"):
        mdp, _, target = _modelwin_policies(config)
        extras["ground_truth"] = exact_average_reward(mdp, target)
    else:
        env, behavior, target = _control_setup(config, config.alpha1)
        extras["ground_truth"] = _control_truth(config, env, target)
        # hyperparameters are tuned once, on the reference behavior mixture,
        # and frozen across the sweep: a sensitivity sweep then isolates the
        # effect of the data distribution, not of re-tuning
        extras["kernel"] = _tune_control_kernel(config, env, behavior)
    doc = config.to_dict()
    rows = []
    for setting in getattr(config, _SWEEP_FIELD[config.experiment]):
        tasks = [
            {"config": doc, "setting": setting, "kernel": extras.get("kernel"), "run": run}
            for run in range(config.monte_carlo_runs)
        ]
        results = _map_tasks(_sweep_run, tasks, config.workers)
        for method in config.methods:
            estimates = [res[method] for res in results]
            rows.append(_row(config, aggregate(method, estimates, extras["ground_truth"]), setting))
    return rows, extras


def run_identity_check(config):
    """One row per random tabular instance comparing the two discrepancy
    computations: rmse = |lhs - rhs|, bias = lhs - rhs, median = lhs,
    q25/q75 = min/max of the pair, std = 0, runs = 1."""
    config.validate()
    rows = []
    worst = 0.0
    for i in range(config.identity_instances):
        seed = derive_seed(config.base_seed, config.experiment, i)
        mdp = random_tabular_mdp(4, 2, derive_seed(seed, "mdp"))
        rng = make_rng(derive_seed(seed, "draw"))
        policy = TabularPolicy(rng.dirichlet(np.ones(2), size=4))
        mass = rng.dirichlet(np.ones(8)).reshape(4, 2)
        bandwidth = 0.5 + 1.5 * rng.random()
        kernel = RbfKernel(bandwidth, action_scale=1.0, num_states=4, num_actions=2)
        lhs, rhs = check_flow_identity(mdp, policy, mass, kernel)
        gap = abs(lhs - rhs)
        worst = max(worst, gap / max(1.0, lhs))
        rows.append(
            ResultRow(
                experiment=config.experiment,
                method="identity_check",
                setting=float(i),
                rmse=gap,
                bias=lhs - rhs,
                std=0.0,
                median=lhs,
                q25=min(lhs, rhs),
                q75=max(lhs, rhs),
                runs=1,
                seed=config.base_seed,
            )
        )
    return rows, {"worst_relative_gap": worst}


def run_experiment(config):
    """Dispatch to the sweep driver or the identity check; returns (rows, extras)."""
    config.validate()
    if config.experiment == "theorem1_check":
        return run_identity_check(config)
    return run_sweep(config)


# ---------------------------------------------------------------------------
# Output emission


def _g12(x):
    """Floats with 12 significant digits; integral values stay integral."""
    return format(float(x), ".12g")


def _csv_text(rows):
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(
            ",".join(
                [
                    r.experiment,
                    r.method,
                    _g12(r.setting),
                    _g12(r.rmse),
                    _g12(r.bias),
                    _g12(r.std),
                    _g12(r.median),
                    _g12(r.q25),
                    _g12(r.q75),
                    str(int(r.runs)),
                    str(int(r.seed)),
                ]
            )
        )
    return "\n".join(lines) + "\n"


_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _svg_text(rows, title):
    """Self-contained SVG line chart: log10 RMSE vs setting, one series
    per method, with the plotted numbers embedded as comments."""
    methods = sorted({r.method for r in rows})
    settings = sorted({r.setting for r in rows})
    x_of = {s: i for i, s in enumerate(settings)}
    floor = 1e-16
    ys = [math.log10(max(r.rmse, floor)) for r in rows]
    y_lo, y_hi = math.floor(min(ys)), math.ceil(max(ys))
    if y_hi == y_lo:
        y_hi = y_lo + 1
    width, height, ml, mr, mt, mb = 640, 400, 64, 16, 32, 48
    plot_w, plot_h = width - ml - mr, height - mt - mb

    def px(setting):
        if len(settings) == 1:
            return ml + plot_w / 2.0
        return ml + plot_w * x_of[setting] / (len(settings) - 1)

    def py(val):
        return mt + plot_h * (y_hi - val) / (y_hi - y_lo)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f"<!-- {title}: log10(rmse) vs setting -->",
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.2f}" y="20" text-anchor="middle" font-size="14" '
        f'font-family="sans-serif">{title}</text>',
    ]
    for tick in range(y_lo, y_hi + 1):
        y = py(tick)
        parts.append(
            f'<line x1="{ml}" y1="{y:.2f}" x2="{width - mr}" y2="{y:.2f}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{ml - 6}" y="{y + 4:.2f}" text-anchor="end" font-size="11" '
            f'font-family="sans-serif">1e{tick}</text>'
        )
    for s in settings:
        x = px(s)
        parts.append(
            f'<text x="{x:.2f}" y="{height - mb + 16}" text-anchor="middle" font-size="11" '
            f'font-family="sans-serif">{_g12(s)}</text>'
        )
    parts.append(
        f'<rect x="{ml}" y="{mt}" width="{plot_w}" height="{plot_h}" fill="none" '
        f'stroke="#333333" stroke-width="1"/>'
    )
    for mi, method in enumerate(methods):
        series = sorted((r.setting, r.rmse) for r in rows if r.method == method)
        color = _SVG_COLORS[mi % len(_SVG_COLORS)]
        points = " ".join(
            f"{px(s):.2f},{py(math.log10(max(v, floor))):.2f}" for s, v in series
        )
        for s, v in series:
            parts.append(f"<!-- data method={method} setting={_g12(s)} rmse={_g12(v)} -->")
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="2"/>'
        )
        for s, v in series:
            parts.append(
                f'<circle cx="{px(s):.2f}" cy="{py(math.log10(max(v, floor))):.2f}" r="3" '
                f'fill="{color}"/>'
            )
        ly = mt + 16 + 16 * mi
        parts.append(
            f'<line x1="{width - mr - 120}" y1="{ly - 4:.2f}" x2="{width - mr - 96}" '
            f'y2="{ly - 4:.2f}" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{width - mr - 90}" y="{ly:.2f}" font-size="11" '
            f'font-family="sans-serif">{method}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_outputs(rows, config, extras=None):
    """Write CSV (always), SVG (if configured), and the run manifest.

    Returns {"csv": path, "svg": path or None, "manifest": path}.  The
    CSV bytes are a pure function of the rows, which are themselves a
    pure function of (config, base_seed) -- reruns are byte-identical.
    """
    if not rows:
        raise ValueError("no result rows to emit")
    os.makedirs(config.output_dir, exist_ok=True)
    stem = config.output_stem or config.experiment
    csv_path = os.path.join(config.output_dir, stem + ".csv")
    with open(csv_path, "w", newline="\n") as fh:
        fh.write(_csv_text(rows))
    svg_path = None
    if config.svg:
        svg_path = os.path.join(config.output_dir, stem + ".svg")
        with open(svg_path, "w", newline="\n") as fh:
            fh.write(_svg_text(rows, config.experiment))
    manifest = {
        "library_version": VERSION,
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "config": config.to_dict(),
        "rows": len(rows),
        "csv": os.path.basename(csv_path),
        "svg": os.path.basename(svg_path) if svg_path else None,
    }
    if extras:
        manifest["extras"] = {
            k: v for k, v in extras.items() if isinstance(v, (int, float, str, dict, list))
        }
    manifest_path = os.path.join(config.output_dir, stem + ".manifest.json")
    with open(manifest_path, "w", newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return {"csv": csv_path, "svg": svg_path, "manifest": manifest_path}
