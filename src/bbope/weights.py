"""Weight models and the two solvers that fit them.

Tabular datasets get an exact treatment: weights are tied per distinct
state-action pair, the dataset is first compressed to distinct
(s, a, s') triples with multiplicities (kernel entries cannot tell
duplicates apart, so this loses nothing), and the resulting small
quadratic program over the group simplex is driven to its minimum by an
exponentiated-gradient iteration with adaptive step size.

Continuous datasets get a small sigmoid MLP mapping an encoded
state-action pair to a log-weight; it trains on the log-domain loss with
either the exact full-batch gradient or the sampled unbiased one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .kernels import RbfKernel, assemble_combined
from .mdp import TransitionDataset
from .mmd import log_loss_full, log_loss_minibatch_grad
from .rng import make_rng, derive_seed

__all__ = [
    "normalize",
    "OptimizerConfig",
    "TabularWeightModel",
    "MlpWeightModel",
    "compress_tabular",
    "minimize_quadratic_on_simplex",
    "solve_tabular",
    "mlp_forward_backward",
    "mlp_inputs",
    "train_parametric",
    "save_checkpoint",
    "load_checkpoint",
]


def normalize(w_tilde):
    """Project strictly positive unnormalized weights onto the simplex."""
    wt = np.asarray(w_tilde, dtype=np.float64)
    if wt.size == 0:
        raise ValueError("cannot normalize an empty weight vector")
    if not np.all(np.isfinite(wt)):
        raise ValueError("unnormalized weights must be finite")
    if np.any(wt <= 0.0):
        raise ValueError("unnormalized weights must be strictly positive")
    return wt / wt.sum()


@dataclass
class OptimizerConfig:
    method: str = "exp_gradient"  # tabular weights; "sgd_adamlike" trains the MLP
    step_size: float = 1e-2
    epochs: int = 2000
    batch_pairs: int = 0  # 0 = exact full-batch gradient; > 0 samples that many pairs
    tolerance: float = 1e-12
    seed: int = 0
    matrix_dtype: str = "float64"  # float32 halves memory at bench scale
    hidden_layers: tuple = (30, 20, 10)
    max_matrix_rows: int = 20_000  # refuse to assemble anything larger than this

    def __post_init__(self):
        if self.method not in ("exp_gradient", "sgd_adamlike"):
            raise ValueError(f"unknown optimizer method {self.method!r}")
        if self.step_size <= 0 or self.epochs < 1:
            raise ValueError("need step_size > 0 and epochs >= 1")
        if self.matrix_dtype not in ("float64", "float32"):
            raise ValueError(f"matrix_dtype must be float64 or float32, got {self.matrix_dtype!r}")
        self.hidden_layers = tuple(int(h) for h in self.hidden_layers)


def _check_matrix_rows(rows, config):
    """Refuse an n x n assembly above the configured row cap."""
    if rows > config.max_matrix_rows:
        raise ValueError(
            f"{rows} rows would need a {rows}x{rows} matrix; "
            f"the configured cap is max_matrix_rows={config.max_matrix_rows}"
        )


def compress_tabular(dataset):
    """Collapse duplicate (s, a, s') rows; returns (compressed, counts, inverse).

    compressed is a TransitionDataset of the distinct triples in sorted
    order, counts the multiplicity of each, and inverse maps original row
    index to compressed row index.  Each triple carries the mean reward of
    its rows; a triple whose rewards are all equal keeps them bit for bit.
    """
    if not dataset.is_tabular:
        raise ValueError("compression is defined for tabular datasets only")
    columns = [np.asarray(dataset.states), np.asarray(dataset.actions), np.asarray(dataset.next_states)]
    # each id shifted by its minimum; the key (s*A + a)*S + s' sorts the triples lexicographically
    lows = [int(c.min()) if len(c) else 0 for c in columns]
    extents = [int(c.max()) - low + 1 if len(c) else 1 for c, low in zip(columns, lows)]
    if extents[0] * extents[1] * extents[2] > np.iinfo(np.int64).max:
        raise ValueError(f"(s, a, s') id extents {tuple(extents)} overflow an int64 key")
    s, a, t = (c.astype(np.int64) - low for c, low in zip(columns, lows))
    key = (s * extents[1] + a) * extents[2] + t
    uniq, first, inverse, counts = np.unique(
        key, return_index=True, return_inverse=True, return_counts=True
    )
    pairs, next_states = np.divmod(uniq, extents[2])
    states, actions = np.divmod(pairs, extents[1])
    dtype = np.result_type(*columns)
    rewards = np.asarray(dataset.rewards, dtype=np.float64)
    # the first reward plus the mean offset from it: exact for equal rewards
    mean_rewards = rewards[first] + np.bincount(
        inverse, weights=rewards - rewards[first][inverse], minlength=len(uniq)
    ) / counts
    compressed = TransitionDataset(
        states=(states + lows[0]).astype(dtype),
        actions=(actions + lows[1]).astype(dtype),
        rewards=mean_rewards,
        next_states=(next_states + lows[2]).astype(dtype),
    )
    return compressed, counts.astype(np.float64), inverse


def minimize_quadratic_on_simplex(K_sym, config):
    """Exponentiated-gradient descent of x^T K x over the simplex.

    Multiplicative update x <- x * exp(-eta * 2Kx), renormalized.  The
    step size doubles after every accepted step and halves on a would-be
    increase, so the recorded loss trace is non-increasing by
    construction.  Returns (x, info) with the trace in info.
    """
    K = np.asarray(K_sym, dtype=np.float64)
    d = K.shape[0]
    x = np.full(d, 1.0 / d)
    f = float(x @ K @ x)
    trace = [f]
    eta = float(config.step_size)
    if d == 1:
        # the simplex is the single point [1.0]; nothing to iterate
        return x, {"loss_trace": np.array(trace), "iterations": 0, "final_loss": f, "step_size": eta}
    stalled = 0
    it = 0
    for it in range(1, config.epochs + 1):
        g = 2.0 * (K @ x)
        accepted = False
        for _ in range(60):
            z = -eta * (g - g.min())  # shift-invariant on the simplex
            y = x * np.exp(z)
            y = y / y.sum()
            fy = float(y @ K @ y)
            if fy <= f:
                accepted = True
                break
            eta *= 0.5
        if not accepted:
            break  # no descent direction at float precision
        drop = f - fy
        x, f = y, fy
        trace.append(f)
        eta = min(eta * 2.0, 1e8)
        if drop <= config.tolerance * max(1.0, abs(f)):
            stalled += 1
            if stalled >= 3:
                break
        else:
            stalled = 0
    return x, {"loss_trace": np.array(trace), "iterations": it, "final_loss": f, "step_size": eta}


@dataclass
class TabularWeightModel:
    """Tied weights: one shared value per distinct state-action pair.

    group_mass lives on the simplex over groups; a single logged
    transition from group g carries weight group_mass[g] / group_count[g]
    (so duplicates share equally and the per-sample weights sum to one).
    """

    group_codes: np.ndarray  # (G,) distinct s * A + a codes, sorted
    group_mass: np.ndarray  # (G,) simplex over groups
    group_count: np.ndarray  # (G,) total original samples per group
    num_actions: int

    def sample_weights(self, states, actions):
        actions = np.asarray(actions)
        if np.any((actions < 0) | (actions >= self.num_actions)):
            raise ValueError(f"query actions must lie in [0, {self.num_actions}); got {actions}")
        codes = np.asarray(states) * self.num_actions + actions
        idx = np.searchsorted(self.group_codes, codes)
        if np.any(idx >= len(self.group_codes)) or np.any(self.group_codes[np.minimum(idx, len(self.group_codes) - 1)] != codes):
            raise ValueError("query contains a state-action pair the model was not fit on")
        return self.group_mass[idx] / self.group_count[idx]


def solve_tabular(matrices, dataset, num_actions, config=None, counts=None):
    """Fit tied tabular weights by exponentiated gradient on the group QP.

    matrices must be assembled from `dataset`, whose actions lie in
    [0, num_actions).  counts gives each row's multiplicity (for
    compressed datasets); by default every row counts once and the
    returned per-row weights lie exactly on the simplex.  With counts,
    sum(counts * w) = 1 instead.  Returns (w, model, info).
    """
    config = config or OptimizerConfig()
    if not dataset.is_tabular:
        raise ValueError("tabular weight solving needs integer states and actions")
    n = len(dataset)
    if matrices.n != n:
        raise ValueError(f"matrices are {matrices.n}x{matrices.n}, dataset has {n} rows")
    counts = np.ones(n) if counts is None else np.asarray(counts, dtype=np.float64)
    codes = np.asarray(dataset.states) * num_actions + np.asarray(dataset.actions)
    # stable group structure: sorted distinct codes
    group_codes, group_of = np.unique(codes, return_inverse=True)
    G = len(group_codes)
    group_count = np.zeros(G)
    np.add.at(group_count, group_of, counts)
    # B[t, g] = counts[t] / group_count[g] on membership; Q = B^T K B
    B = np.zeros((n, G))
    B[np.arange(n), group_of] = counts / group_count[group_of]
    Q = B.T @ np.asarray(matrices.sym, dtype=np.float64) @ B
    Q = 0.5 * (Q + Q.T)
    mass, info = minimize_quadratic_on_simplex(Q, config)
    w = mass[group_of] / group_count[group_of]
    model = TabularWeightModel(
        group_codes=group_codes,
        group_mass=mass,
        group_count=group_count,
        num_actions=int(num_actions),
    )
    return w, model, info


# ---------------------------------------------------------------------------
# MLP weight model


def _sigmoid(z):
    # exp of -|z| never overflows; 1 / (1 + e^-z) for z >= 0, e^z / (1 + e^z) below
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


@dataclass
class MlpWeightModel:
    """Sigmoid MLP emitting a log-weight per encoded state-action pair."""

    weights: list  # list of (W, b) per layer; last layer is linear
    input_dim: int

    @classmethod
    def create(cls, input_dim, hidden=(30, 20, 10), seed=0):
        """Uniform(-1/sqrt(fan_in), ..) hidden init; zero final layer.

        Zero output weights mean the model starts at log-weight 0 for
        every input: uniform weights, so the first estimate it induces
        is the naive average.
        """
        rng = make_rng(seed)
        dims = [int(input_dim)] + [int(h) for h in hidden] + [1]
        layers = []
        for i in range(len(dims) - 1):
            fan_in = dims[i]
            bound = 1.0 / np.sqrt(fan_in)
            W = rng.uniform(-bound, bound, size=(dims[i], dims[i + 1]))
            b = np.zeros(dims[i + 1])
            if i == len(dims) - 2:
                W = np.zeros_like(W)
            layers.append((W, b))
        return cls(weights=layers, input_dim=int(input_dim))

    def _forward(self, X):
        """One forward pass: the activations [X, sigmoid layers..., linear
        output] and the log-weights, the output clipped to [-80, 80]."""
        acts = [np.asarray(X, dtype=np.float64)]
        for i, (W, b) in enumerate(self.weights):
            z = acts[-1] @ W + b
            acts.append(z if i == len(self.weights) - 1 else _sigmoid(z))
        return acts, np.clip(acts[-1][:, 0], -80.0, 80.0)

    def log_weights(self, X):
        return self._forward(X)[1]

    def flat_parameters(self):
        return np.concatenate([np.concatenate([W.reshape(-1), b]) for W, b in self.weights])

    def set_flat_parameters(self, flat):
        flat = np.asarray(flat, dtype=np.float64)
        size = sum(W.size + b.size for W, b in self.weights)
        if len(flat) != size:
            raise ValueError(f"the model has {size} parameters; got a flat vector of {len(flat)}")
        pos = 0
        for i, (W, b) in enumerate(self.weights):
            nw, nb = W.size, b.size
            self.weights[i] = (flat[pos : pos + nw].reshape(W.shape), flat[pos + nw : pos + nw + nb].copy())
            pos += nw + nb


def mlp_forward_backward(model, X, upstream_of):
    """Log-weights and the exact parameter gradient of sum_i u_i * o(x_i).

    One forward pass gives the log-weights (the outputs o clipped to
    [-80, 80], as `log_weights` returns them); u = upstream_of(log-weights)
    is the upstream gradient, and plain reverse-mode through the sigmoid
    stack reuses the pass's activations.  The gradient is that of the
    unclipped outputs.  Returns (log_weights, flat_grad) with flat_grad
    laid out like `flat_parameters`.
    """
    acts, logw = model._forward(X)
    upstream = np.asarray(upstream_of(logw), dtype=np.float64)
    grads = [None] * len(model.weights)
    delta = upstream[:, None]  # gradient w.r.t. the final linear pre-activation
    for i in reversed(range(len(grads))):
        grads[i] = (acts[i].T @ delta, delta.sum(axis=0))
        if i > 0:
            sig = acts[i]  # the sigmoid's output gives its derivative
            delta = (delta @ model.weights[i][0].T) * sig * (1.0 - sig)
    flat = np.concatenate([np.concatenate([gW.reshape(-1), gb]) for gW, gb in grads])
    return logw, flat


def mlp_inputs(dataset, kernel=None):
    """Encode dataset rows for the MLP: kernel features when available,
    otherwise one-hot state and action blocks."""
    if isinstance(kernel, RbfKernel):
        return kernel.features(dataset.states, dataset.actions)
    states = np.asarray(dataset.states)
    actions = np.asarray(dataset.actions, dtype=np.int64)
    A = int(actions.max() + 1)
    if np.issubdtype(states.dtype, np.integer):
        S = int(states.max() + 1)
        out = np.zeros((len(actions), S + A))
        out[np.arange(len(actions)), states] = 1.0
        out[np.arange(len(actions)), S + actions] = 1.0
        return out
    feats = states.astype(np.float64)
    if feats.ndim == 1:
        feats = feats[:, None]
    onehot = np.zeros((len(actions), A))
    onehot[np.arange(len(actions)), actions] = 1.0
    return np.concatenate([feats, onehot], axis=1)


def train_parametric(dataset, policy, kernel, config=None):
    """Fit the MLP weight model by seeded gradient descent on the log loss.

    Tabular datasets are first compressed to distinct triples (the loss
    is identical with multiplicity-scaled weights, see module docstring).
    With config.batch_pairs == 0 every step uses the exact full-batch
    gradient; otherwise steps use the sampled unbiased gradient with a
    per-epoch derived seed.  Returns (w, model, info) where w are
    per-original-row simplex weights.
    """
    config = config or OptimizerConfig(method="sgd_adamlike")
    counts = None
    inverse = None
    work = dataset
    if dataset.is_tabular:
        work, counts, inverse = compress_tabular(dataset)
    _check_matrix_rows(len(work), config)
    dtype = np.float32 if config.matrix_dtype == "float32" else np.float64
    matrices = assemble_combined(work, policy, kernel, dtype=dtype)
    X = mlp_inputs(work, kernel)
    model = MlpWeightModel.create(X.shape[1], hidden=config.hidden_layers, seed=config.seed)
    log_counts = 0.0 if counts is None else np.log(counts)

    trace = []

    def loss_gradient(logw):
        """Loss at the current log-weights, recorded in the trace; returns its gradient."""
        epoch = len(trace) + 1
        w_eff = np.exp(logw + log_counts)
        if config.batch_pairs <= 0:
            est = log_loss_full(w_eff, matrices)
        else:
            est = log_loss_minibatch_grad(
                w_eff, matrices, config.batch_pairs, derive_seed(config.seed, "batch", epoch)
            )
        if not np.isfinite(est.value):
            raise FloatingPointError(f"loss became non-finite ({est.value}) at epoch {epoch}")
        trace.append(est.value)
        return est.gradient

    theta = model.flat_parameters()
    m1 = np.zeros_like(theta)
    m2 = np.zeros_like(theta)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    for epoch in range(1, config.epochs + 1):
        _, flat_grad = mlp_forward_backward(model, X, loss_gradient)
        m1 = beta1 * m1 + (1.0 - beta1) * flat_grad
        m2 = beta2 * m2 + (1.0 - beta2) * flat_grad**2
        hat1 = m1 / (1.0 - beta1**epoch)
        hat2 = m2 / (1.0 - beta2**epoch)
        theta = theta - config.step_size * hat1 / (np.sqrt(hat2) + eps)
        if not np.all(np.isfinite(theta)):
            raise FloatingPointError(f"parameters became non-finite at epoch {epoch}")
        model.set_flat_parameters(theta)

    logw = model.log_weights(X)
    w = np.exp(logw) / np.exp(logw + log_counts).sum()
    if inverse is not None:
        w = w[inverse]
    info = {"loss_trace": np.array(trace), "iterations": config.epochs, "final_loss": trace[-1] if trace else None}
    return w, model, info


# ---------------------------------------------------------------------------
# Checkpoints: versioned JSON, a flat list of named tensors with shapes.
# Floats serialize via repr (shortest round-trip), so save -> load is exact.


_CHECKPOINT_FORMAT = "bbope-mlp-checkpoint"


def save_checkpoint(model, path):
    tensors = []
    for i, (W, b) in enumerate(model.weights):
        tensors.append(
            {"name": f"layer{i}.weight", "shape": list(W.shape), "values": W.reshape(-1).tolist()}
        )
        tensors.append(
            {"name": f"layer{i}.bias", "shape": list(b.shape), "values": b.tolist()}
        )
    doc = {
        "format": _CHECKPOINT_FORMAT,
        "version": 1,
        "input_dim": model.input_dim,
        "tensors": tensors,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)


def load_checkpoint(path):
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("format") != _CHECKPOINT_FORMAT or doc.get("version") != 1:
        raise ValueError(f"not a recognized checkpoint: {path}")
    by_name = {}
    for t in doc["tensors"]:
        by_name[t["name"]] = np.asarray(t["values"], dtype=np.float64).reshape(t["shape"])
    layers = []
    for i in range(len(by_name) // 2):
        layers.append((by_name[f"layer{i}.weight"], by_name[f"layer{i}.bias"]))
    if 2 * len(layers) != len(by_name):
        raise ValueError("checkpoint tensors do not form (weight, bias) layer pairs")
    return MlpWeightModel(weights=layers, input_dim=int(doc["input_dim"]))
