"""Behavior-agnostic off-policy estimation of long-run average rewards.

The package estimates the average per-step reward a target policy would
earn, using only logged transitions (state, action, reward, next state)
whose collection mechanism may be unknown.  The core idea: find simplex
weights over the logged pairs such that the weighted empirical pair
distribution is (nearly) invariant under the target policy's one-step
flow, as measured by a kernel discrepancy; the weighted average of the
logged rewards is then the estimate.

Layout:

* :mod:`bbope.mdp` -- tabular MDPs, policies, trajectory sampling,
  transition datasets.
* :mod:`bbope.envs` -- the three-state gambling task, classic-control
  dynamics with an infinite-horizon wrapper, scripted controllers,
  random MDPs.
* :mod:`bbope.oracle` -- exact tabular references: stationary
  distributions, average/discounted rewards, the backward-flow operator,
  a brute-force simplex minimizer, and the flow-discrepancy parity check.
* :mod:`bbope.kernels` -- state-action kernels, Gram-block assembly of
  the discrepancy matrices, the flow-conjugated kernel.
* :mod:`bbope.mmd` -- signed-measure discrepancies, quadratic and
  log-domain losses with exact and sampled gradients.
* :mod:`bbope.weights` -- tied tabular weights via exponentiated
  gradient, an MLP log-weight model with hand-rolled backprop,
  checkpoints.
* :mod:`bbope.estimators` -- the main weighted estimator plus naive,
  model-based, and stationary-ratio importance-sampling baselines.
* :mod:`bbope.bench` / :mod:`bbope.cli` -- seeded Monte-Carlo benchmark
  protocols with deterministic CSV/SVG emission (``bbope-bench``).
"""

from .version import VERSION as __version__
from .mdp import *
from .envs import *
from .oracle import *
from .kernels import *
from .mmd import *
from .weights import *
from .estimators import *
from .rng import *
from .bench import *
from . import mdp, envs, oracle, kernels, mmd, weights, estimators, rng, bench

__all__ = [
    "__version__",
    *mdp.__all__, *envs.__all__, *oracle.__all__, *kernels.__all__, *mmd.__all__,
    *weights.__all__, *estimators.__all__, *rng.__all__, *bench.__all__,
]
