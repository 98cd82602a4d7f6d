"""Deterministic random-number plumbing.

Every stochastic operation in this package draws from a numpy Philox
generator (a counter-based PRNG) built from an explicit integer seed.
The same seed therefore yields the same bytes on every platform numpy
supports, and independent streams are derived by hashing rather than by
sharing generator state.

Seed derivation for benchmark runs is ``derive_seed(base, *parts)``:
SHA-256 over the ``:``-joined decimal/string parts, truncated to the top
8 bytes, masked to 63 bits.  Stable across processes and Python builds.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["make_rng", "derive_seed", "categorical"]


def make_rng(seed):
    """Return the package-wide generator (Philox) for an integer seed."""
    if not isinstance(seed, (int, np.integer)):
        raise TypeError(f"seed must be an integer, got {type(seed).__name__}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return np.random.Generator(np.random.Philox(int(seed)))


def derive_seed(base_seed, *parts):
    """Derive a child seed from a base seed and a tuple of labels.

    Used by the benchmark runner as ``derive_seed(base, experiment_name,
    setting, run_index)`` so that every Monte-Carlo run has its own
    reproducible stream no matter how runs are scheduled.
    """
    text = ":".join([str(int(base_seed))] + [str(p) for p in parts])
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") & (2**63 - 1)


def categorical(rng, probs):
    """Sample an index from a probability vector by inverse CDF.

    The CDF is accumulated in the stored order of ``probs``; a draw that
    lands exactly on a boundary resolves to the lower index.  This is the
    single sampling rule used for every discrete draw in the package, so
    that trajectories are reproducible bit-for-bit from their seeds.
    The CDF is built in Python floats, which add exactly as ``np.cumsum``
    does; a draw past the accumulated mass (by roundoff) clamps to the
    last index.  Non-finite entries raise ``ValueError``.
    """
    probs = np.asarray(probs, dtype=np.float64).tolist()
    cdf = []
    total = 0.0
    for p in probs:
        total += p
        cdf.append(total)
    if not abs(total - 1.0) <= 1e-9:  # a NaN or infinite entry fails this too
        if not np.isfinite(total):
            raise ValueError(f"probabilities have non-finite entries: {probs!r}")
        raise ValueError(f"probabilities sum to {total!r}, not 1")
    u = rng.random()
    for i, c in enumerate(cdf):  # first i with cdf[i] >= u: searchsorted(side="left")
        if c >= u:
            return i
    return len(cdf) - 1


def categorical_rows(rng, prob_rows):
    """Vectorized inverse-CDF draw, one sample per row of ``prob_rows``.

    Equivalent to calling :func:`categorical` on each row with fresh
    uniforms; used by the batched trajectory sampler.  Boundary ties
    resolve to the lower index, matching the scalar rule.
    """
    prob_rows = np.asarray(prob_rows, dtype=np.float64)
    cdf = np.cumsum(prob_rows, axis=1)
    u = rng.random(prob_rows.shape[0])
    # first column index where cdf >= u  (argmax finds the first True)
    hits = cdf >= u[:, None]
    idx = np.argmax(hits, axis=1)
    # all-False rows (u beyond accumulated mass by roundoff) clamp to last
    idx[~hits.any(axis=1)] = prob_rows.shape[1] - 1
    return idx
