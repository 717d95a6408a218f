"""Linear maps on matrix algebras as matrices on vectorizations.

The vectorization convention is column stacking throughout: ``vec(A)``
stacks the columns of ``A`` top to bottom, so ``vec(U A V) =
(V^tr kron U) vec(A)``.  Getting this wrong is the classic silent
corruption bug in superoperator code, so the convention is also stamped
into every serialized file.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    as_matrices,
    as_matrix,
    unitarity_defect,
)

# left_multiplier stays defined, unlisted: perfbench/spans.py imports it and tests use it as an oracle
__all__ = [
    "SuperOperator",
    "BlockKind",
    "vec",
    "apply",
    "identity_map",
    "from_left_right",
    "transpose_index",
    "transpose_map",
    "compose",
    "direct_sum_embedding",
]


def vec(a: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(a).flatten(order="F")


@dataclass(frozen=True)
class SuperOperator:
    """A linear map from M_n to M_m stored as an (m^2 x n^2) matrix.

    The matrix acts on column-stacked vectorizations.  Instances are
    immutable; the backing array is marked read-only.
    """

    dim_in: int
    dim_out: int
    matrix: np.ndarray

    def __post_init__(self) -> None:
        if self.dim_in < 1 or self.dim_out < 1:
            raise ValueError("superoperator dimensions must be positive")
        m = as_matrix(self.matrix)
        if m.shape != (self.dim_out**2, self.dim_in**2):
            raise ValueError(
                f"matrix shape {m.shape} does not match "
                f"({self.dim_out**2}, {self.dim_in**2})"
            )
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def is_square(self) -> bool:
        return self.dim_in == self.dim_out

    def images_of_matrix_units(self) -> np.ndarray:
        """All images of the matrix units as an (n, n, m, m) array.

        ``out[i, j]`` is the image of E_ij; column ``i + j*n`` of the
        superoperator matrix is exactly ``vec`` of that image, so this is a
        single reshape.
        """
        m, n = self.dim_out, self.dim_in
        return self.matrix.reshape((m, m, n, n), order="F").transpose(2, 3, 0, 1)


class BlockKind(Enum):
    ID = "Id"
    TRANSPOSE = "Transpose"


def apply(phi: SuperOperator, a: np.ndarray) -> np.ndarray:
    """Evaluate the map on a matrix, or on each matrix of a (k, n, n) stack,
    checked like a matrix.  Each image is one matrix-vector product with the
    column-stacking vec of its input, so a stack member's image is
    bit-identical to that of the matrix alone."""
    a = as_matrices(a)
    n, m = phi.dim_in, phi.dim_out
    if a.shape[-2:] != (n, n):
        raise ValueError(f"map acts on {n}x{n} matrices, got {a.shape}")
    vecs = a.reshape(-1, n, n).transpose(0, 2, 1).reshape(-1, n * n, 1)
    images = (phi.matrix @ vecs).reshape(-1, m, m).transpose(0, 2, 1)
    return images if a.ndim == 3 else images[0]


def identity_map(n: int) -> SuperOperator:
    return SuperOperator(n, n, np.eye(n * n, dtype=np.complex128))


def from_left_right(u: np.ndarray, v: np.ndarray) -> SuperOperator:
    """The map A -> u A v as a superoperator.

    ``u`` is m x n and ``v`` is n x m; under column stacking the matrix is
    ``v.T kron u``.
    """
    u = as_matrix(u)
    v = as_matrix(v)
    m, n = u.shape
    if v.shape != (n, m):
        raise ValueError(
            f"shapes do not conform: u is {u.shape}, so v must be {(n, m)}, got {v.shape}"
        )
    return SuperOperator(n, m, np.kron(v.T, u))


def transpose_index(n: int) -> np.ndarray:
    """The swap permutation p with vec(A^tr) = vec(A)[p], an involution."""
    j, i = np.divmod(np.arange(n * n), n)
    # vec(A^tr)[i + j*n] = A[j, i] = vec(A)[j + i*n]
    return j + i * n


def transpose_map(n: int) -> SuperOperator:
    """The transpose A -> A^tr as a superoperator (the n^2 x n^2 swap matrix)."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    k = np.zeros((n * n, n * n), dtype=np.complex128)
    k[np.arange(n * n), transpose_index(n)] = 1.0
    return SuperOperator(n, n, k)


def compose(f: SuperOperator, g: SuperOperator) -> SuperOperator:
    """The composition A -> f(g(A))."""
    if g.dim_out != f.dim_in:
        raise ValueError(
            f"cannot compose: inner map produces {g.dim_out}x{g.dim_out} but outer "
            f"consumes {f.dim_in}x{f.dim_in}"
        )
    return SuperOperator(g.dim_in, f.dim_out, f.matrix @ g.matrix)


def left_multiplier(v: np.ndarray, phi: SuperOperator) -> SuperOperator:
    """The map A -> v @ phi(A)."""
    v = as_matrix(v)
    m = phi.dim_out
    if v.shape != (m, m):
        raise ValueError(f"left factor must be {m}x{m}, got {v.shape}")
    # read in F order, the columns vec(phi(E_ij)) lie side by side as m x m images
    n2 = phi.dim_in**2
    product = v @ phi.matrix.reshape((m, m * n2), order="F")
    return SuperOperator(phi.dim_in, m, product.reshape((m * m, n2), order="F"))


def direct_sum_embedding(
    kinds: Sequence[BlockKind],
    w: np.ndarray,
    tol: Tolerance = DEFAULT_TOL,
) -> SuperOperator:
    """Unital Jordan embedding A -> w (sum of blocks A or A^tr) w*.

    With k blocks the conjugator ``w`` must be a kn x kn unitary; the
    resulting map sends M_n into M_{kn} and is multiplicative on the
    identity blocks and antimultiplicative on the transpose blocks.
    """
    kinds = list(kinds)
    if not kinds:
        raise ValueError("need at least one block")
    w = as_matrix(w)
    size = w.shape[0]
    k = len(kinds)
    if w.shape != (size, size) or size % k != 0:
        raise ValueError(
            f"conjugator shape {w.shape} does not split into {k} square blocks"
        )
    n = size // k
    if unitarity_defect(w) > tol.effective(size, size):
        raise ValueError("conjugator is not unitary within tolerance")

    # E_ij lands at (i, j) of its diagonal block, or at (j, i) for a transpose block
    j, i = np.divmod(np.arange(n * n), n)
    off = n * np.arange(k)[:, None]
    flip = np.array([kind is not BlockKind.ID for kind in kinds])[:, None]
    r, c = off + np.where(flip, j, i), off + np.where(flip, i, j)
    block = np.zeros((size * size, n * n), dtype=np.complex128)
    block[r + c * size, i + j * n] = 1.0
    blocks = SuperOperator(n, size, block)
    return compose(from_left_right(w, w.conj().T), blocks)
