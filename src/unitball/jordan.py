"""Jordan *-homomorphism verification, the Størmer split, and unitary recovery.

A linear map J between *-algebras is a Jordan *-homomorphism when
J(x)^2 = J(x^2) and J(x*) = J(x)*; by linearization the first identity is
equivalent to J(x)J(y) + J(y)J(x) = J(xy + yx).  Checking the identities on
all pairs of matrix units suffices by bilinearity, which keeps every
residual of :func:`jordan_check` a finite, exact scan.

A unital Jordan *-homomorphism psi: M_n -> M_m has the form
psi(A) = W (A kron I_p + A^tr kron I_q) W* with W unitary and
m = (p + q) n (Størmer).  :func:`stormer_split` reads one candidate W off
the images of the matrix units, rebuilds the map from it, and lets one
residual rho = ||S_psi - R|| decide, as the square classifier does.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .linalg import DEFAULT_TOL, Band, Tolerance, hermitian_part, operator_norm, polar_unitary
from .superop import SuperOperator

__all__ = [
    "MapKind",
    "JordanReport",
    "StormerSplit",
    "jordan_check",
    "read_off_split",
    "stormer_split",
    "recover_conjugating_unitary",
]


class MapKind(Enum):
    HOM = "Hom"
    ANTI = "Anti"
    COMMUTATIVE = "Commutative"
    NONE = "None"


@dataclass(frozen=True)
class JordanReport:
    """Jordan identity residuals over matrix-unit pairs.

    ``r_square`` is the worst defect of the linearized square identity,
    ``r_star`` the worst adjoint defect, ``r_unital`` the distance of the
    image of I from I.  ``worst_square_pair`` names the pair (i, j, k, l)
    of E_ij, E_kl with the worst square defect when ``r_square`` exceeds
    tol_eff, and is None otherwise: below it the defects are rounding
    noise and their argmax names no pair.
    """

    r_square: float
    r_star: float
    r_unital: float
    is_jordan: bool
    worst_square_pair: tuple[int, int, int, int] | None = None


@dataclass(frozen=True)
class StormerSplit:
    """psi(A) = w (A kron I_p + A^tr kron I_q) w*, certified by one residual.

    ``residual`` is rho = ||S_psi - R||, the operator-norm distance between
    the superoperator matrix of psi and that of the map R rebuilt from
    ``w``; it is None when the read-off ranks give no square ``w``.  Unless
    rho passes ``tol.band`` at m x m, p = q = -1 and ``w`` is None.  ``e``
    is the central projection onto the hom columns of ``w``.
    """

    p: int
    q: int
    w: np.ndarray | None
    residual: float | None

    @property
    def e(self) -> np.ndarray | None:
        if self.w is None:
            return None
        hom = self.w[:, : self.w.shape[0] // (self.p + self.q) * self.p]
        return hom @ hom.conj().T


def jordan_check(psi: SuperOperator, tol: Tolerance = DEFAULT_TOL) -> JordanReport:
    """Evaluate the Jordan identities on all matrix-unit pairs.

    The defects D[i,j,k,l] = psi(E_ij E_kl) - psi(E_ij) psi(E_kl) are built
    in the buffer of the pairwise products, using E_ij E_kl = d_jk E_il;
    the linearized square defect of the pair is D + D^tr, with D^tr the
    transpose on the pair axes.  ``is_jordan`` is ``max(r_square, r_star)``
    passing ``tol.band`` (a Jordan map need not be unital, so ``r_unital``
    is reported but not gated).
    """
    n, m = psi.dim_in, psi.dim_out
    images = np.ascontiguousarray(psi.images_of_matrix_units())

    defects = images[:, :, None, None] @ images
    np.negative(defects, out=defects)
    r = np.arange(n)
    defects[:, r, r] += images[:, None]

    square_defects = operator_norm(
        (defects + defects.transpose(2, 3, 0, 1, 4, 5)).reshape(-1, m, m)
    )
    worst_flat = int(np.argmax(square_defects))
    r_square = float(square_defects[worst_flat])
    worst = np.unravel_index(worst_flat, (n, n, n, n))
    worst = tuple(map(int, worst)) if r_square > tol.effective(m, m) else None

    star_diff = images.transpose(1, 0, 2, 3) - images.conj().transpose(0, 1, 3, 2)
    r_star = float(operator_norm(star_diff.reshape(-1, m, m)).max())
    r_unital = operator_norm(np.einsum("iiab->ab", images) - np.eye(m))
    is_jordan = tol.band(max(r_square, r_star), m, m) is Band.PASS
    return JordanReport(r_square, r_star, r_unital, is_jordan, worst)


def _above_half(a: np.ndarray) -> np.ndarray:
    """Orthonormal eigenvectors of the Hermitian part of ``a`` with eigenvalue above 1/2."""
    w, v = np.linalg.eigh(hermitian_part(a))
    return v[:, w > 0.5]


def read_off_split(images: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> StormerSplit:
    """The split of :func:`stormer_split` from the (n, n, m, m) images
    psi(E_ij), returned with p = q = -1 instead of raising.

    On the hom part psi(E_12) psi(E_21) is psi(E_11), on the anti part it
    is psi(E_22), so with P = psi(E_11), H = P psi(E_12) psi(E_21) is the
    hom part of P (H = P at n = 1).  X and Y span the eigenvectors above
    1/2 of H and P - H; the columns psi(E_i1) X and psi(E_1i) Y, ordered
    as in A kron I_p and A^tr kron I_q, make W after a polar factor, and
    R(E_ij) = sum_a w_ia w_ja* + sum_b w_jb w_ib* is rebuilt by two
    einsums.  No tolerance picks X or Y: any choice gives an exactly
    unitary W, and rho decides.
    """
    n, m = images.shape[0], images.shape[2]
    top = images[0, 0]
    hom_part = top @ images[0, 1] @ images[1, 0] if n > 1 else top
    x, y = _above_half(hom_part), _above_half(top - hom_part)
    p, q = x.shape[1], y.shape[1]
    if (p + q) * n != m:
        return StormerSplit(-1, -1, None, None)
    hom = (images[:, 0] @ x).transpose(1, 0, 2).reshape(m, n * p)
    anti = (images[0] @ y).transpose(1, 0, 2).reshape(m, n * q)
    w = polar_unitary(np.hstack([hom, anti]))[0]
    wh, wa = w[:, : n * p].reshape(m, n, p), w[:, n * p :].reshape(m, n, q)

    diff = np.einsum("xia,yja->ijxy", wh, wh.conj(), order="C")
    diff += np.einsum("xjb,yib->ijxy", wa, wa.conj())
    np.subtract(images, diff, out=diff)
    rho = operator_norm(diff.reshape(n * n, m * m))
    passed = tol.band(rho, m, m) is Band.PASS
    return StormerSplit(p, q, w, rho) if passed else StormerSplit(-1, -1, None, rho)


def stormer_split(psi: SuperOperator, tol: Tolerance = DEFAULT_TOL) -> StormerSplit:
    """Split a unital Jordan *-homomorphism psi: M_n -> M_m as
    psi(A) = W (A kron I_p + A^tr kron I_q) W*.

    The candidate W is read off the images of the matrix units (see
    :func:`read_off_split`); it is accepted when rho = ||S_psi - R|| passes
    ``tol.band`` at m x m.  Raises ``ValueError`` naming rho otherwise, or
    when the read-off ranks give no m x m conjugator.
    """
    split = read_off_split(psi.images_of_matrix_units(), tol)
    if split.residual is None:
        raise ValueError(
            f"no Størmer split: the read-off ranks give no conjugator for "
            f"M_{psi.dim_in} -> M_{psi.dim_out}"
        )
    if split.w is None:
        raise ValueError(
            f"no Størmer split within tolerance (residual={split.residual:.3e}, "
            f"tol_eff={tol.effective(psi.dim_out, psi.dim_out):.3e})"
        )
    return split


def recover_conjugating_unitary(phi: SuperOperator, kind: MapKind) -> np.ndarray:
    """Read off U with phi(A) = U A V (Hom) or phi(A) = U A^tr V (Anti).

    Matrix-unit reconstruction straight from the images of phi: the image
    of E_11 (of E_11 after the transpose for Anti, which only swaps the
    matrix-unit indices) is the rank-one u_1 r_1, with u_1 the first column
    of U and r_1 the first row of V.  Its top right singular vector b is
    r_1* up to phase, so column i of U is the image of E_i1 applied to b.
    For psi(A) = w A w* this is w.  Only an image of E_11 that is exactly
    zero stops the read-off: on every preserver its top singular value is
    1, and the caller's residual judges the rest.  The result is U up to a
    global phase, fixed by making the first nonzero entry of the first
    column real positive; the 1e-8 relative cutoff only picks which entry
    that is, a phase that cancels in U A U* and so in every verdict.
    """
    n = phi.dim_in
    if phi.dim_out != n:
        raise ValueError(
            f"unitary recovery needs an endomorphism, got M_{phi.dim_in} -> M_{phi.dim_out}"
        )
    images = phi.images_of_matrix_units()
    if kind is MapKind.ANTI:
        images = images.transpose(1, 0, 2, 3)
    elif kind not in (MapKind.HOM, MapKind.COMMUTATIVE):
        raise ValueError(f"cannot recover a conjugating unitary for kind {kind}")

    _, s, vh = np.linalg.svd(images[0, 0])
    if s[0] == 0.0:
        raise ValueError("image of E_11 vanished; input is not an automorphism")
    u = (images[:, 0] @ vh[0].conj()).T

    col = u[:, 0]
    mags = np.abs(col)
    peak = float(mags.max())
    if peak == 0.0:
        raise ValueError("first recovered column vanished; input is not an automorphism")
    lead = int(np.argmax(mags > 1e-8 * peak))
    return u * (mags[lead] / col[lead])
