"""The dense flow matrix that the solvers' inputs are checked against."""

from bbope.kernels import KernelMatrices, assemble_matrices


def dense_flow(dataset, policy, kernel):
    """combined = point - 2 * cross + successor from `assemble_matrices`,
    and its symmetric part as the KernelMatrices the solvers read."""
    point, cross, successor = assemble_matrices(dataset, policy, kernel)
    combined = point - 2.0 * cross + successor
    return combined, KernelMatrices(0.5 * (combined + combined.T))
