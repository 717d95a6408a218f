"""Dense complex linear algebra primitives shared by every other module.

All matrices are dense two dimensional ``numpy`` arrays of ``complex128``.
Every function is pure: inputs are never mutated and results depend only on
the arguments, so values are safe to share between threads.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "Band",
    "Tolerance",
    "DEFAULT_TOL",
    "as_matrix",
    "as_matrices",
    "matrix_unit",
    "adjoint",
    "operator_norm",
    "polar_unitary",
    "haar_unitary",
    "haar_from_rng",
    "haar_stack",
    "haar_from_ginibre",
    "unitarity_defect",
    "unitary_exp",
    "hermitian_part",
    "complex_gaussian",
]

RNG_NAME = "numpy-pcg64"


class Band(Enum):
    """Where a residual falls against the tolerance policy."""

    PASS = "pass"
    INCONCLUSIVE = "inconclusive"
    FAIL = "fail"


@dataclass(frozen=True)
class Tolerance:
    """Absolute tolerance, scaled by the dimension of what it judges.

    The effective tolerance applied to an ``rows x cols`` residual is
    ``abs * sqrt(rows * cols)``, capped at the largest finite float.  One
    policy, used by every residual certificate: :meth:`band` passes a
    residual up to the effective tolerance, fails it beyond ten times that,
    and leaves the decade between inconclusive.
    """

    abs: float = 1e-8

    def __post_init__(self) -> None:
        if not 0.0 <= self.abs < math.inf:
            raise ValueError(f"tolerance must be finite and nonnegative, got {self.abs}")

    def effective(self, rows: int, cols: int) -> float:
        return min(self.abs * math.sqrt(rows * cols), sys.float_info.max)

    def band(self, score: float, rows: int, cols: int) -> Band:
        """PASS if ``score <= tol_eff``, FAIL if ``score > 10 tol_eff``, else INCONCLUSIVE."""
        teff = self.effective(rows, cols)
        if score <= teff:
            return Band.PASS
        if score > 10 * teff:
            return Band.FAIL
        return Band.INCONCLUSIVE


DEFAULT_TOL = Tolerance()


def as_matrix(a) -> np.ndarray:
    """Coerce to a 2-D complex128 array, rejecting NaN/Inf entries."""
    if np.ndim(a) != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={np.ndim(a)}")
    return as_matrices(a)


def as_matrices(a) -> np.ndarray:
    """:func:`as_matrix` for a matrix or a (k, rows, cols) stack of matrices."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim not in (2, 3):
        raise ValueError(f"expected a matrix or a stack of matrices, got ndim={m.ndim}")
    if m.shape[-2] < 1 or m.shape[-1] < 1:
        raise ValueError(f"matrix dimensions must be positive, got {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix has non-finite entries")
    return m


def matrix_unit(n: int, i: int, j: int) -> np.ndarray:
    """The n x n matrix with a single 1 at row ``i``, column ``j``."""
    e = np.zeros((n, n), dtype=np.complex128)
    e[i, j] = 1.0
    return e


def adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a stack."""
    return as_matrices(a).conj().swapaxes(-1, -2)


def operator_norm(a: np.ndarray) -> float | np.ndarray:
    """Largest singular value of a matrix, or an array of them for a
    (k, rows, cols) stack, checked like a matrix and decomposed by one
    batched SVD, each bit-identical to the norm of its matrix alone."""
    a = as_matrices(a)
    top = np.linalg.svd(a, compute_uv=False)[..., 0]
    return float(top) if a.ndim == 2 else top


def polar_unitary(a: np.ndarray) -> np.ndarray:
    """The unitary factor w of the polar decomposition a = w p of a square
    matrix, with p = w* a Hermitian PSD.

    ``w = u @ vh`` from the SVD is unitary even when ``a`` is rank deficient
    (the SVD convention fixes the gauge on the kernel).
    """
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"polar decomposition needs a square matrix, got {a.shape}")
    u, _, vh = np.linalg.svd(a)
    return u @ vh


def haar_stack(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` Haar-distributed unitaries as a (count, n, n) stack.

    QR of complex Ginibre matrices, with the phase ambiguity fixed by
    normalizing the diagonal of each R to positive reals; without that
    correction the distribution is not Haar.  The generator's stream is read
    in the order of ``count`` separate draws (real part, then imaginary part,
    per matrix), so the stack equals that many calls of
    :func:`haar_from_rng` bit for bit.
    """
    z = rng.standard_normal((count, 2, n, n))
    return haar_from_ginibre((z[:, 0] + 1j * z[:, 1]) / math.sqrt(2))


def haar_from_ginibre(g: np.ndarray) -> np.ndarray:
    """:func:`haar_stack` on a given (k, n, n) stack of Ginibre matrices."""
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    ph = np.where(np.abs(d) > 0, d / np.where(np.abs(d) > 0, np.abs(d), 1.0), 1.0)
    return q * ph[:, None, :]


def haar_from_rng(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary drawn from an existing generator."""
    return haar_stack(n, 1, rng)[0]


def haar_unitary(n: int, seed: int) -> np.ndarray:
    """Haar-distributed ``n x n`` unitary, deterministic in ``seed``."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    return haar_from_rng(n, np.random.default_rng(seed))


def unitarity_defect(a: np.ndarray) -> float | np.ndarray:
    """max(||a* a - I||, ||a a* - I||) for a square matrix; 0 iff unitary.

    For square ``a`` both products have the eigenvalues s_k^2 of the
    singular values, so the defect is max(|s_max^2 - 1|, |s_min^2 - 1|),
    capped at the largest finite float as tol_eff is, so a huge matrix gets
    a finite defect rather than an overflow.  A (k, n, n) stack gets one
    batched SVD and an array of k defects, each bit-identical to the defect
    of its matrix alone.
    """
    a = as_matrices(a)
    if a.shape[-2] != a.shape[-1]:
        raise ValueError(f"unitarity defect needs square matrices, got shape {a.shape}")
    s = np.linalg.svd(a, compute_uv=False)
    top, bottom = s[..., 0], s[..., -1]
    with np.errstate(over="ignore"):
        defect = np.maximum(abs(top * top - 1.0), abs(bottom * bottom - 1.0))
    defect = np.minimum(defect, sys.float_info.max)
    return float(defect) if a.ndim == 2 else defect


def unitary_exp(h: np.ndarray, t: float | np.ndarray = 1.0) -> np.ndarray:
    """``exp(i t h)`` for Hermitian ``h``, exactly unitary by construction; a 1-D
    array of t gives the (len(t), n, n) stack, each bit-identical to its own call."""
    w, v = np.linalg.eigh(hermitian_part(as_matrix(h)))
    phases = np.exp(1j * np.expand_dims(t, -1) * w)
    return (v * phases[..., None, :]) @ v.conj().T


def hermitian_part(a: np.ndarray) -> np.ndarray:
    return (a + a.conj().swapaxes(-1, -2)) / 2


def complex_gaussian(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """Standard complex Gaussian matrix (independent entries, unit variance)."""
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / math.sqrt(2)
