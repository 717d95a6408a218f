"""Sampled lower bound on the norm of a map, shared by the superoperator,
Jordan and acceptance tests."""

import numpy as np

from unitball.linalg import haar_from_rng, operator_norm
from unitball.superop import SuperOperator, apply


def map_norm_lower_bound(phi: SuperOperator, samples: int, seed: int) -> float:
    """Certified lower bound on the operator-norm-to-operator-norm map norm.

    Evaluates the map on the identity and on random unit-ball elements
    built as convex combinations of pairs of Haar unitaries (every sampled
    input has norm <= 1 exactly, so the max image norm is a true lower
    bound).
    """
    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")
    rng = np.random.default_rng(seed)
    n = phi.dim_in
    best = operator_norm(apply(phi, np.eye(n, dtype=np.complex128)))
    for _ in range(samples):
        lam = rng.uniform()
        a = lam * haar_from_rng(n, rng) + (1 - lam) * haar_from_rng(n, rng)
        best = max(best, operator_norm(apply(phi, a)))
    return best
