"""Jordan *-homomorphism verification, the Størmer split, and unitary recovery.

A linear map J between *-algebras is a Jordan *-homomorphism when
J(x)^2 = J(x^2) and J(x*) = J(x)*; by linearization the first identity is
equivalent to J(x)J(y) + J(y)J(x) = J(xy + yx).  Checking the identities on
all pairs of matrix units suffices by bilinearity, which keeps every
residual of :func:`jordan_check` a finite, exact scan.

A unital Jordan *-homomorphism psi: M_n -> M_m has the form
psi(A) = W (A kron I_p + A^tr kron I_q) W* with W unitary and
m = (p + q) n (Størmer); a map phi that sends unitaries to unitaries is
v psi with v = phi(I) unitary (Russo-Dye), and p + q = 1 at m = n.
:func:`read_off_split`, the one read-off of every ``classify``, reads W
off the images of the matrix units into one :class:`StormerSplit` and lets
one residual rho = ||S_phi - polar(v) R|| decide.  :func:`jordan_check`
and :func:`recover_conjugating_unitary` decide nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .linalg import (
    DEFAULT_TOL, Band, Tolerance, adjoint, hermitian_part, operator_norm, polar_unitary,
)
from .superop import SuperOperator

# JordanReport, jordan_check, recover_conjugating_unitary: unlisted, kept for perfbench/spans.py and test oracles
__all__ = ["MapKind", "StormerSplit", "read_off_split", "stormer_split"]


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
    """phi(A) = u w (A kron I_p + A^tr kron I_q) w*, as read off by
    :func:`read_off_split` and judged by one residual.

    ``residual`` is the distance of the input's superoperator matrix from
    that of the map rebuilt from ``w``, Frobenius where it passes the bound
    on rho (the operator norm) and rho otherwise, as ``residual_norm`` says;
    all three are None when the ranks give no m x m ``w``.  ``passed`` says
    whether the bound on rho passes, and when it fails ``worst`` names the
    (i, j) whose image the candidate misses most; both are hidden from the
    report, and a rectangular certificate then shows p = q = -1 and no
    ``w``.  ``e`` is the central projection onto the hom columns of ``w``.
    """

    p: int
    q: int
    w: np.ndarray | None
    residual: float | None
    residual_norm: str | None = None
    passed: bool = field(default=False, metadata={"hidden": True})
    worst: tuple[int, int] | None = field(default=None, metadata={"hidden": True})

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


def read_off_split(images: np.ndarray, u: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> StormerSplit:
    """The candidate phi(A) = u W (A kron I_p + A^tr kron I_q) W* read off
    the (n, n, m, m) images phi(E_ij), for a unitary u (polar(phi(I)) in
    ``classify``).

    Only psi(E_i1) = u* phi(E_i1) and psi(E_1i) are formed.  With
    P = psi(E_11), H = P psi(E_12) psi(E_21) is the hom part of P (H = P
    at n = 1), since psi(E_12) psi(E_21) is psi(E_11) on the hom part and
    psi(E_22) on the anti part.  X and Y span the eigenvectors above 1/2 of
    H and P - H, and W is the polar factor of the columns psi(E_i1) X and
    psi(E_1i) Y, ordered as in A kron I_p and A^tr kron I_q.  No tolerance
    picks X or Y: any choice gives an exactly unitary W, and rho decides.
    u R is built by one broadcast matmul in the buffer of S - u R.  A
    unitary A has ||vec A|| = sqrt(n), so its image misses unitarity by at
    most 2 sqrt(n) rho + n rho^2 with rho = ||S - u R||, the bound judged by
    ``tol.band`` at m x m.  rho <= ||S - u R||_F, so the bound is judged
    first at the Frobenius norm and rho is read off one SVD only when that
    fails: the verdict is rho's, and the record names the residual's norm.
    """
    n, m = images.shape[0], images.shape[2]
    col, row = adjoint(u) @ images[:, 0], adjoint(u) @ images[0]
    top = col[0]
    hom_part = top @ row[1] @ col[1] if n > 1 else top
    x, y = _above_half(hom_part), _above_half(top - hom_part)
    p, q = x.shape[1], y.shape[1]
    if (p + q) * n != m:
        return StormerSplit(p, q, None, None)
    hom = (col @ x).transpose(1, 0, 2).reshape(m, n * p)
    anti = (row @ y).transpose(1, 0, 2).reshape(m, n * q)
    w = polar_unitary(np.hstack([hom, anti]))

    # idx[i, j] lists W's hom columns of index i, then its anti columns of
    # index j, so u R(E_ij) is (u W)[:, idx[i, j]] times W[:, idx[j, i]]*
    c, r = np.arange(p + q), np.arange(n)[:, None, None]
    idx = np.where(c < p, r * p + c, n * p + r.swapaxes(0, 1) * q + c - p)
    left = (u @ w)[:, idx].transpose(1, 2, 0, 3)
    right = w.conj()[:, idx.swapaxes(0, 1)].transpose(1, 2, 3, 0)
    diff = np.matmul(left, right, out=np.empty((n, n, m, m), np.complex128))
    np.subtract(images, diff, out=diff)
    flat = diff.reshape(n * n, m * m)

    def passes(rho: float) -> bool:
        return tol.band(2 * math.sqrt(n) * rho + n * rho * rho, m, m) is Band.PASS

    # row i n + j of flat is the miss on E_ij, squared and summed in place;
    # a sum that overflows is an infinite rho_F, which fails the gate
    parts = flat.view(np.float64)
    with np.errstate(over="ignore"):
        misses = np.einsum("ij,ij->i", parts, parts)
        rho, norm = math.sqrt(misses.sum()), "frobenius"
    if not passes(rho):
        rho, norm = operator_norm(flat), "operator"
    if passes(rho):
        return StormerSplit(p, q, w, rho, norm, passed=True)
    return StormerSplit(p, q, w, rho, norm, worst=divmod(int(np.argmax(misses)), n))


def stormer_split(psi: SuperOperator, tol: Tolerance = DEFAULT_TOL) -> StormerSplit:
    """Split a unital Jordan *-homomorphism psi: M_n -> M_m as
    psi(A) = W (A kron I_p + A^tr kron I_q) W*.

    :func:`read_off_split` with u = I reads W off the images of the matrix
    units and returns its record when the bound on rho = ||S_psi - R||
    passes.  Raises ``ValueError`` naming rho otherwise (None when the
    read-off ranks give no m x m conjugator).
    """
    m = psi.dim_out
    fit = read_off_split(psi.images_of_matrix_units(), np.eye(m, dtype=np.complex128), tol)
    if not fit.passed:
        raise ValueError(
            f"no Størmer split of M_{psi.dim_in} -> M_{m} within tolerance "
            f"(residual={fit.residual}, tol_eff={tol.effective(m, m):.3e})"
        )
    return fit


def recover_conjugating_unitary(phi: SuperOperator, kind: MapKind) -> np.ndarray:
    """Read off U with phi(A) = U A V (Hom) or phi(A) = U A^tr V (Anti).

    The image of E_11 (of E_11 after the transpose for Anti, which only
    swaps the matrix-unit indices) is the rank-one u_1 r_1, with u_1 the
    first column of U and r_1 the first row of V.  Its top right singular
    vector b is r_1* up to phase, so column i of U is the image of E_i1
    applied to b; for psi(A) = w A w* this is w.  Only an image of E_11
    that is exactly zero stops the read-off.  The result is U up to a
    global phase, fixed by making the first nonzero entry (above 1e-8
    relative) of the first column real positive.  No ``classify`` path
    calls this; :func:`read_off_split` reads U as u W.
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
