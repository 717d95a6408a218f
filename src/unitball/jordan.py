"""Jordan *-homomorphism verification, central splitting, and unitary recovery.

A linear map J between *-algebras is a Jordan *-homomorphism when
J(x)^2 = J(x^2) and J(x*) = J(x)*; by linearization the first identity is
equivalent to J(x)J(y) + J(y)J(x) = J(xy + yx).  Checking the identities on
all pairs of matrix units suffices by bilinearity, which keeps every
residual here a finite, exact scan.

For a unital Jordan *-homomorphism there is a central projection E
splitting it into a *-homomorphism (on E) and a *-antihomomorphism (on
I - E).  The projection is computed constructively as the maximal
projection annihilating the multiplicative defects on the right, then
certified a posteriori by the r_hom / r_anti / r_central residuals.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .linalg import DEFAULT_TOL, Band, Tolerance, null_space_projection, operator_norm
from .superop import SuperOperator

__all__ = [
    "MapKind",
    "JordanReport",
    "jordan_check",
    "stormer_split",
    "jordan_structure",
    "recover_conjugating_unitary",
]


class MapKind(Enum):
    HOM = "Hom"
    ANTI = "Anti"
    COMMUTATIVE = "Commutative"
    NONE = "None"


@dataclass(frozen=True)
class JordanReport:
    """Jordan identity residuals plus, when computed, the central splitting.

    ``r_square`` is the worst defect of the linearized square identity over
    matrix-unit pairs, ``r_star`` the worst adjoint defect, ``r_unital``
    the distance of the image of I from I.  The splitting fields stay at
    their sentinels (``e=None``, ``p=q=-1``, residuals ``None``) for an
    identity-only report.
    """

    r_square: float
    r_star: float
    r_unital: float
    is_jordan: bool
    e: np.ndarray | None = None
    p: int = -1
    q: int = -1
    r_hom: float | None = None
    r_anti: float | None = None
    r_central: float | None = None
    worst_square_pair: tuple[int, int, int, int] | None = None


def _jordan_core(psi: SuperOperator, tol: Tolerance):
    """Identity-only report, images, and pairwise products, in one pass."""
    n, m = psi.dim_in, psi.dim_out
    images = psi.images_of_matrix_units()

    # prod[i,j,k,l] = psi(E_ij) @ psi(E_kl)
    prod = np.einsum("ijab,klbc->ijklac", images, images)
    sym = prod + prod.transpose(2, 3, 0, 1, 4, 5)

    # target[i,j,k,l] = psi(E_ij E_kl + E_kl E_ij), using E_ij E_kl = d_jk E_il
    target = np.zeros_like(sym)
    for j in range(n):
        target[:, j, j, :] += images
    swapped = images.transpose(1, 0, 2, 3)
    for i in range(n):
        target[i, :, :, i] += swapped

    square_defects = operator_norm((target - sym).reshape(-1, m, m))
    worst_flat = int(np.argmax(square_defects))
    worst = tuple(int(x) for x in np.unravel_index(worst_flat, (n, n, n, n)))
    r_square = float(square_defects[worst_flat])

    star_diff = images.transpose(1, 0, 2, 3) - images.conj().transpose(0, 1, 3, 2)
    r_star = float(operator_norm(star_diff.reshape(-1, m, m)).max())

    psi_of_eye = np.einsum("iiab->ab", images)
    r_unital = operator_norm(psi_of_eye - np.eye(m))

    report = JordanReport(
        r_square=r_square,
        r_star=r_star,
        r_unital=r_unital,
        is_jordan=tol.band(max(r_square, r_star), m, m) is Band.PASS,
        worst_square_pair=worst,
    )
    return report, images, prod


def _central_split(report: JordanReport, images, prod, tol: Tolerance) -> JordanReport:
    """The split of :func:`stormer_split`, from a core that passed its identities."""
    n, m = images.shape[0], images.shape[2]
    hom_defect = -prod.copy()
    for j in range(n):
        hom_defect[:, j, j, :] += images
    e_proj = null_space_projection(hom_defect.reshape(-1, m), tol)

    eye = np.eye(m, dtype=np.complex128)
    hd = hom_defect.reshape(-1, m, m)
    r_hom = float(operator_norm(hd @ e_proj).max())

    anti_defect = -prod.transpose(2, 3, 0, 1, 4, 5).copy()
    for j in range(n):
        anti_defect[:, j, j, :] += images
    ad = anti_defect.reshape(-1, m, m)
    r_anti = float(operator_norm(ad @ (eye - e_proj)).max())

    flat_images = images.reshape(-1, m, m)
    r_central = float(operator_norm(e_proj @ flat_images - flat_images @ e_proj).max())

    rank_f = float(np.trace(e_proj).real)
    p = round(rank_f / n)
    q = round((m - rank_f) / n)
    integral = (
        abs(rank_f - p * n) <= 0.1
        and abs((m - rank_f) - q * n) <= 0.1
        and p * n + q * n == m
        and p >= 0
        and q >= 0
    )
    if not integral:
        p, q = -1, -1

    return replace(
        report, e=e_proj, p=p, q=q, r_hom=r_hom, r_anti=r_anti, r_central=r_central
    )


def jordan_check(psi: SuperOperator, tol: Tolerance = DEFAULT_TOL) -> JordanReport:
    """Evaluate the Jordan identities on all matrix-unit pairs.

    Fills only the identity fields of the report; ``is_jordan`` is
    ``max(r_square, r_star) <= tol`` (a Jordan map need not be unital, so
    ``r_unital`` is reported but not gated).
    """
    return _jordan_core(psi, tol)[0]


def stormer_split(psi: SuperOperator, tol: Tolerance = DEFAULT_TOL) -> JordanReport:
    """Split a unital Jordan *-homomorphism by its central projection.

    The projection E is the maximal one annihilated on the right by every
    multiplicative defect psi(E_ij E_kl) - psi(E_ij) psi(E_kl); the report
    certifies it with r_hom (homomorphic on E), r_anti (antihomomorphic on
    I - E) and r_central (E commutes with the image).  Multiplicities
    (p, q) with p + q blocks of size dim_in are read off rank(E) when it is
    integral within 0.1, else both are -1.
    """
    report = jordan_structure(psi, tol)
    if not report.is_jordan:
        raise ValueError(
            f"not a Jordan *-homomorphism within tolerance "
            f"(r_square={report.r_square:.3e}, r_star={report.r_star:.3e})"
        )
    if report.e is None:
        raise ValueError(f"map is not unital within tolerance (r_unital={report.r_unital:.3e})")
    return report


def jordan_structure(psi: SuperOperator, tol: Tolerance = DEFAULT_TOL) -> JordanReport:
    """The report of :func:`stormer_split` when psi is a unital Jordan map,
    else that of :func:`jordan_check`, from a single evaluation of the
    identities."""
    report, images, prod = _jordan_core(psi, tol)
    if report.is_jordan and report.r_unital <= tol.effective(psi.dim_out, psi.dim_out):
        return _central_split(report, images, prod, tol)
    return report


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
