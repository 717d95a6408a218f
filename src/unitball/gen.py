"""Seeded generators for test corpora of maps with known structure.

Every instance is deterministic in its seed; corpus sub-seeds are derived
by hashing (seed, kind tag, size, index) so a corpus is stable under
reordering and re-slicing.
"""

from __future__ import annotations

import hashlib
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .linalg import haar_unitary
from .preserver import perturb
from .superop import (
    BlockKind,
    SuperOperator,
    direct_sum_embedding,
    from_left_right,
    transpose_index,
    vec,
)

__all__ = ["InstanceKind", "InstanceSpec", "generate", "corpus", "derive_seed", "trace_pinch_map"]


class InstanceKind(Enum):
    HOM_PRESERVER = "hom"
    ANTI_PRESERVER = "anti"
    MIXED_JORDAN = "mixed"
    TRACE_PINCH = "trace-pinch"
    PERTURBED_PRESERVER = "perturbed"
    RANDOM_CONTRACTION = "contraction"


@dataclass(frozen=True)
class InstanceSpec:
    """Label describing one generated map: kind, size, seed, kind parameters."""

    n: int
    kind: InstanceKind
    seed: int
    p: int = 0
    q: int = 0
    epsilon: float = 0.0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"dimension must be >= 1, got {self.n}")
        if self.p < 0 or self.q < 0:
            raise ValueError("block multiplicities must be nonnegative")
        if self.kind is InstanceKind.MIXED_JORDAN and self.p + self.q < 1:
            raise ValueError("mixed instance needs at least one block")
        if not 0.0 <= self.epsilon < np.inf:
            raise ValueError(f"epsilon must be finite and nonnegative, got {self.epsilon}")


def derive_seed(*parts) -> int:
    """Stable 63-bit sub-seed from arbitrary labelled parts."""
    digest = hashlib.blake2b("|".join(str(p) for p in parts).encode(), digest_size=8)
    return int.from_bytes(digest.digest(), "big") >> 1


def trace_pinch_map(n: int) -> SuperOperator:
    """The normalized trace pinching A -> (tr A / n) I, a canonical non-preserver."""
    v = vec(np.eye(n, dtype=np.complex128))
    return SuperOperator(n, n, np.outer(v, v) / n)


def _contraction(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    u = haar_unitary(n, derive_seed(seed, "rot"))
    return u * rng.uniform(0.2, 0.9, size=n)


def generate(spec: InstanceSpec) -> SuperOperator:
    """Build the map labelled by ``spec``, deterministically in its seed."""
    n, s = spec.n, spec.seed
    kind = spec.kind
    m = n * (spec.p + spec.q) if kind is InstanceKind.MIXED_JORDAN else n
    # numpy makes no array of more than sys.maxsize bytes
    if 16 * (n * m) ** 2 > sys.maxsize:
        raise MemoryError(f"the {m * m} x {n * n} complex matrix needs {16 * (n * m) ** 2} bytes")
    if kind in (InstanceKind.HOM_PRESERVER, InstanceKind.ANTI_PRESERVER):
        base = from_left_right(haar_unitary(n, derive_seed(s, "u")), haar_unitary(n, derive_seed(s, "v")))
        if kind is InstanceKind.ANTI_PRESERVER:  # vec(A^tr) = vec(A)[p]: permute the columns
            return SuperOperator(n, n, base.matrix[:, transpose_index(n)])
        return base
    if kind is InstanceKind.MIXED_JORDAN:
        # w has m^2 >= p + q entries: an allocation too large fails here, not in the list
        w = haar_unitary(m, derive_seed(s, "w"))
        kinds = [BlockKind.ID] * spec.p + [BlockKind.TRANSPOSE] * spec.q
        return direct_sum_embedding(kinds, w)
    if kind is InstanceKind.TRACE_PINCH:
        return trace_pinch_map(n)
    if kind is InstanceKind.PERTURBED_PRESERVER:
        base_kind = (
            InstanceKind.HOM_PRESERVER
            if derive_seed(s, "parity") % 2 == 0
            else InstanceKind.ANTI_PRESERVER
        )
        base = generate(InstanceSpec(n=n, kind=base_kind, seed=derive_seed(s, "base")))
        return perturb(base, spec.epsilon, derive_seed(s, "noise"))
    if kind is InstanceKind.RANDOM_CONTRACTION:
        c1 = _contraction(n, derive_seed(s, "c1"))
        c2 = _contraction(n, derive_seed(s, "c2"))
        return from_left_right(c1, c2)
    raise ValueError(f"unknown instance kind {kind!r}")


def corpus(
    sizes: Sequence[int],
    per_kind: int,
    seed: int,
) -> list[tuple[InstanceSpec, SuperOperator]]:
    """Balanced labelled corpus: every kind at every size, per_kind times.

    Mixed instances use one identity and one transpose block; perturbed
    instances alternate epsilon between 1e-3 and 1e-2.
    """
    if per_kind < 1:
        raise ValueError(f"per_kind must be >= 1, got {per_kind}")
    out = []
    for n in sizes:
        for kind in InstanceKind:
            for idx in range(per_kind):
                sub = derive_seed(seed, kind.value, n, idx)
                extra = {}
                if kind is InstanceKind.MIXED_JORDAN:
                    extra = {"p": 1, "q": 1}
                elif kind is InstanceKind.PERTURBED_PRESERVER:
                    extra = {"epsilon": 1e-3 if idx % 2 == 0 else 1e-2}
                spec = InstanceSpec(n=n, kind=kind, seed=sub, **extra)
                out.append((spec, generate(spec)))
    return out
