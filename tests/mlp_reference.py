"""The MLP pass written with fresh arrays and ``np.where`` on every call.

This is the rule the package's MLP must reproduce bit for bit: the
sigmoid picks its numerator with ``np.where``, each layer is ``a @ W +
b``, and the backward pass forms ``(delta @ W.T) * sig * (1.0 - sig)``
left to right.  ``weights`` is a list of (W, b) pairs, the last layer
linear, as ``MlpWeightModel.weights`` holds them.
"""

import numpy as np


def sigmoid(z):
    # exp of -|z| never overflows; 1 / (1 + e^-z) for z >= 0, e^z / (1 + e^z) below
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def forward(weights, X):
    """The activations [X, sigmoid layers..., linear output] and the
    log-weights, the output clipped to [-80, 80]."""
    acts = [np.asarray(X, dtype=np.float64)]
    for i, (W, b) in enumerate(weights):
        z = acts[-1] @ W + b
        acts.append(z if i == len(weights) - 1 else sigmoid(z))
    return acts, np.clip(acts[-1][:, 0], -80.0, 80.0)


def forward_backward(weights, X, upstream_of):
    """(log-weights, flat gradient of sum_i u_i * o(x_i)), as
    `mlp_forward_backward` returns them."""
    acts, logw = forward(weights, X)
    upstream = np.asarray(upstream_of(logw), dtype=np.float64)
    grads = [None] * len(weights)
    delta = upstream[:, None]  # gradient w.r.t. the final linear pre-activation
    for i in reversed(range(len(grads))):
        grads[i] = (acts[i].T @ delta, delta.sum(axis=0))
        if i > 0:
            sig = acts[i]  # the sigmoid's output gives its derivative
            delta = (delta @ weights[i][0].T) * sig * (1.0 - sig)
    flat = np.concatenate([np.concatenate([gW.reshape(-1), gb]) for gW, gb in grads])
    return logw, flat
