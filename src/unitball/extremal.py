"""Extreme point geometry of the operator unit ball.

A norm-one operator is extreme in the unit ball of a C*-algebra B exactly
when it is a partial isometry W with (I - W*W) B (I - WW*) = {0} (Kadison's
criterion).  Over the full matrix algebra this reduces to: the extreme
points are the unitaries.  This module implements the criterion over an
arbitrary *-subalgebra together with the mean-of-unitaries decompositions
that witness non-extremeness of contractions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    Band,
    Tolerance,
    as_matrices,
    as_matrix,
    hermitian_part,
    operator_norm,
)

__all__ = [
    "IsometryClass",
    "ExtremeVerdict",
    "StarAlgebraBasis",
    "ExtremePointReport",
    "OutsideBallReport",
    "classify_isometry",
    "kadison_extreme_test",
    "selfadjoint_mean_of_unitaries",
    "contraction_mean_of_unitaries",
]


class IsometryClass(Enum):
    UNITARY = "Unitary"
    ISOMETRY = "Isometry"
    COISOMETRY = "Coisometry"
    PARTIAL_ISOMETRY = "PartialIsometry"
    NONE = "None"


class ExtremeVerdict(Enum):
    EXTREME = "Extreme"
    NOT_EXTREME = "NotExtreme"
    INCONCLUSIVE = "Inconclusive"


class StarAlgebraBasis:
    """A (k, n, n) stack of matrices spanning a *-subalgebra of M_n.

    The basis keeps one read-only complex128 copy of the stack in
    ``elements``, each element divided by its largest real or imaginary
    part (so that no norm overflows), then by its Frobenius norm; one of
    norm at most tol_eff is kept as zero.  The closure check and the Kadison
    residual both read this stack, so neither depends on element scale.
    On construction (unless built by :meth:`full`, which is exact) the span
    is checked to be closed under adjoints and pairwise products and to
    contain the identity, all within tolerance, in that order.  Complex
    bases are accepted, and so is any sequence of matrices that numpy
    stacks.  The SVD of the stack gives the r orthonormal rows of its span
    (row-major vecs, kept in ``span``), on which closure is checked: their
    adjoints as one (r, n^2) block, their r^2 products as one such block
    per right factor, then the identity, each projected onto the span.  A
    product of Frobenius norm at most tol_eff is not projected, since its
    distance to the span (which holds 0) is at most its norm; for matrix
    units that skips every product E_ij E_kl with j != k.  When every
    element has an imaginary part of exactly zero, the whole check runs in
    real arithmetic: the complex span of real matrices has a real
    orthonormal basis, whose adjoints are transposes.  ``elements`` stays
    complex either way.
    """

    def __init__(self, elements, tol: Tolerance = DEFAULT_TOL):
        elems = as_matrices(np.array(elements, dtype=np.complex128))
        if elems.ndim != 3 or not len(elems) or elems.shape[1] != elems.shape[2]:
            raise ValueError(f"basis needs a non-empty stack of square matrices, got shape {elems.shape}")
        k, n = elems.shape[:2]
        teff = tol.effective(n, n)
        # Row-major vecs throughout: the Frobenius residual ignores vec order.
        vecs = elems.reshape(k, n * n)
        if not vecs.imag.any():
            vecs = vecs.real
        # each row over its largest real or imaginary part, so no norm overflows: its norm is peaks * norms
        peaks = np.abs(vecs.view(np.float64)).max(axis=1)
        vecs /= np.where(peaks > 0, peaks, 1.0)[:, None]
        norms = np.maximum(np.linalg.norm(vecs, axis=1), 1.0)  # 1 for a zero row
        vecs *= np.where(peaks > teff / norms, 1.0 / norms, 0.0)[:, None]
        elems.flags.writeable = False
        self.n, self.elements, self.is_full = n, elems, False
        self._validate(vecs, n, teff)

    @classmethod
    def full(cls, n: int) -> "StarAlgebraBasis":
        """The matrix-unit basis of all of M_n (E_ij at index i*n + j); it holds
        no elements, as :func:`kadison_extreme_test` needs none to read it."""
        if n < 1:
            raise ValueError(f"dimension must be >= 1, got {n}")
        basis = cls.__new__(cls)
        basis.n, basis.elements, basis.span, basis.is_full = n, None, None, True
        return basis

    def _validate(self, vecs: np.ndarray, n: int, teff: float) -> None:
        _, s, vh = np.linalg.svd(vecs, full_matrices=False)
        r = int(np.count_nonzero(s > teff))
        self.span = basis = vh[:r]
        basis_h = basis.conj().T
        units = basis.reshape(r, n, n)

        def outside_span(rows: np.ndarray) -> bool:
            """Whether any row lies farther than tol_eff from the span.

            A row of norm at most tol_eff is not projected: its residual is
            at most its norm, as 0 lies in the span.  Overwrites ``rows``
            with their residuals.
            """
            flat = rows.view(np.float64)
            keep = np.einsum("ij,ij->i", flat, flat) > teff * teff
            if not keep.all():
                rows = rows[keep]
            rows -= (rows @ basis_h) @ basis
            # a span of rank 0 leaves no rows to check but the identity
            return bool(np.max(np.linalg.norm(rows, axis=1), initial=0.0) > teff)

        # np.conj allocates: a real units.conj() is units itself, and at n = 1
        # the reshape would then be a view that outside_span overwrites
        if outside_span(np.conj(units.transpose(0, 2, 1)).reshape(r, n * n)):
            raise ValueError("basis span is not closed under adjoints")
        stacked = units.reshape(r * n, n)
        for b in units:
            # row block j is units[j] @ b
            if outside_span((stacked @ b).reshape(r, n * n)):
                raise ValueError("basis span is not closed under products")
        if outside_span(np.eye(n, dtype=basis.dtype).reshape(1, n * n)):
            raise ValueError("basis span does not contain the identity")


@dataclass(frozen=True)
class ExtremePointReport:
    """Outcome of the extreme-point test with its supporting residuals.

    ``defect_left`` is the distance ``||w*w - P||`` of w*w to its nearest
    orthogonal projection P, ``defect_right`` the same for ww*.  Both are
    ``max_k |s_k^2 - [s_k^2 >= 1/2]|`` over the singular values s of w,
    so for a square w they are equal.  ``margin`` is ``score - tol_eff``
    where ``score`` is the larger of the partial-isometry defect
    ``||ww*w - w||`` and the Kadison residual: nonpositive for Extreme,
    above ``9 * tol_eff`` for NotExtreme, in between for Inconclusive.
    ``witness_index`` points at a basis element with
    ``||(I - w*w) B_k (I - ww*)|| > tol`` when one exists.
    ``isometry_class`` is what :func:`classify_isometry` gives for ``w``;
    hidden from the report, ``check-extreme`` writes it beside the report.
    """

    verdict: ExtremeVerdict
    defect_left: float
    defect_right: float
    is_partial_isometry: bool
    kadison_residual: float
    margin: float
    isometry_class: IsometryClass = field(metadata={"hidden": True})
    witness_index: int | None = None


@dataclass(frozen=True)
class OutsideBallReport:
    """Outcome of the extreme-point test for a ``w`` outside the unit ball.

    ``norm`` is ``||w||``, the largest singular value, and the certificate:
    it exceeds 1 by more than ten times tol_eff, so ``w`` is not even in
    the ball, and no defect of ``w`` is formed (``w*w`` may overflow).  Its
    isometry class is None, as ``s^2 - 1`` and ``s |s^2 - 1|`` at
    ``s = norm`` are both beyond tol_eff.
    """

    verdict: ExtremeVerdict = field(default=ExtremeVerdict.NOT_EXTREME, init=False)
    reason: str = field(default="outside-ball", init=False)
    norm: float
    isometry_class: IsometryClass = field(default=IsometryClass.NONE, init=False, metadata={"hidden": True})


def classify_isometry(a: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> IsometryClass:
    """Classify a (possibly rectangular) matrix by its isometry defects.

    Unitary means a*a = I and aa* = I within tolerance; Isometry and
    Coisometry keep only one of the two; PartialIsometry means a a* a = a.
    In square dimension Isometry or Coisometry alone cannot occur, so those
    labels only show up for rectangular input.  Every defect is read off
    the singular values s of the m x n matrix a: a*a has the eigenvalues
    s^2 padded with zeros to n, aa* the same padded to m, and
    ``||aa*a - a|| = max s |s^2 - 1|``.
    """
    a = as_matrix(a)
    return _isometry_class(np.linalg.svd(a, compute_uv=False), *a.shape, tol)


def _isometry_class(s: np.ndarray, m: int, n: int, tol: Tolerance) -> IsometryClass:
    """:func:`classify_isometry` of an m x n matrix with singular values s.
    An s^2 that overflows is inf, which no finite tol_eff passes."""
    with np.errstate(over="ignore"):
        s2 = s * s
        pi_defect = np.max(s * abs(s2 - 1.0))
    deviation = float(np.max(abs(s2 - 1.0)))
    # the zeros that pad s^2 to n (or m) eigenvalues lie at distance 1 from I's
    left = (max(deviation, 1.0) if n > s.size else deviation) <= tol.effective(n, n)
    right = (max(deviation, 1.0) if m > s.size else deviation) <= tol.effective(m, m)
    if left and right:
        return IsometryClass.UNITARY
    if left:
        return IsometryClass.ISOMETRY
    if right:
        return IsometryClass.COISOMETRY
    if pi_defect <= tol.effective(m, n):
        return IsometryClass.PARTIAL_ISOMETRY
    return IsometryClass.NONE


def kadison_extreme_test(
    w: np.ndarray,
    basis: StarAlgebraBasis,
    tol: Tolerance = DEFAULT_TOL,
) -> ExtremePointReport | OutsideBallReport:
    """Test whether ``w`` is extreme in the unit ball of the algebra.

    The Kadison residual is ``max_k ||(I - w*w) B_k (I - ww*)||`` in the
    operator norm, taken over the unit-norm basis elements: from the column
    norms of the two defects for the full algebra (each term is rank one),
    and for any other basis as one stacked product ``dl @ elements @ dr``
    with one batched norm call, so it does not depend on how the elements
    were scaled.  ``witness_index`` is the first element that attains the
    max.  The partial-isometry defect, the projection defects and the
    isometry class come from one values-only SVD of ``w``.  The verdict is
    Extreme iff ``w`` is a partial isometry and the residual is below
    tolerance, NotExtreme beyond ten times tolerance, Inconclusive in the
    decade between (floating-point honesty at the decision boundary).
    A ``w`` whose norm fails the band above 1 (``||w|| - 1 > 10 tol_eff``)
    gets an :class:`OutsideBallReport` from that SVD alone, before
    ``I - w*w`` is formed, which may overflow.  Any other ``w`` farther
    than tol_eff from the span of the basis (Frobenius distance, the
    closure check's rule) is not in the algebra: ValueError.
    """
    w = as_matrix(w)
    n = w.shape[0]
    if w.shape != (n, n):
        raise ValueError(f"extreme-point test needs a square matrix, got {w.shape}")
    if basis.n != n:
        raise ValueError(f"algebra sits in M_{basis.n} but the matrix is {n}x{n}")
    s = np.linalg.svd(w, compute_uv=False)
    if tol.band(float(s[0]) - 1.0, n, n) is Band.FAIL:
        return OutsideBallReport(norm=float(s[0]))
    teff = tol.effective(n, n)
    if not basis.is_full:
        x = w.reshape(n * n, 1)
        if basis.span.dtype == np.float64:  # project the real and imaginary parts as two columns
            x = x.view(np.float64)
        distance = float(np.linalg.norm(x - basis.span.T @ (basis.span.conj() @ x)))
        if distance > teff:
            raise ValueError(f"matrix lies {distance:.3e} from the algebra's span, beyond tol_eff {teff:.3e}")
    eye = np.eye(n)
    dl = eye - w.conj().T @ w
    dr = eye - w @ w.conj().T

    s2 = s * s
    pi_defect = float(np.max(s * abs(s2 - 1.0)))
    is_pi = pi_defect <= teff
    # w*w and ww* share the eigenvalues s^2; the nearest projection rounds them at 1/2
    projection_defect = float(np.max(abs(s2 - (s2 >= 0.5))))

    if basis.is_full:
        # (I-w*w) E_ij (I-ww*) is rank one with norm ||dl e_i|| * ||dr e_j||.
        ln = np.linalg.norm(dl, axis=0)
        rn = np.linalg.norm(dr, axis=0)
        i_star = int(np.argmax(ln))
        j_star = int(np.argmax(rn))
        residual = float(ln[i_star] * rn[j_star])
        best_index = i_star * n + j_star
    else:
        norms = operator_norm(dl @ basis.elements @ dr)
        best_index = int(np.argmax(norms))
        residual = float(norms[best_index])
        if residual == np.inf:
            # the SVD scales its input, so a norm past the float range comes back
            # as inf with no floating-point flag set: {I, J} at w = 1.189e77 I
            # and a tolerance of 1e100
            raise FloatingPointError("overflow encountered in the Kadison residual")

    score = max(pi_defect, residual)
    verdict = {
        Band.PASS: ExtremeVerdict.EXTREME,
        Band.INCONCLUSIVE: ExtremeVerdict.INCONCLUSIVE,
        Band.FAIL: ExtremeVerdict.NOT_EXTREME,
    }[tol.band(score, n, n)]

    witness = best_index if residual > teff else None
    return ExtremePointReport(
        verdict=verdict,
        defect_left=projection_defect,
        defect_right=projection_defect,
        is_partial_isometry=is_pi,
        kadison_residual=residual,
        margin=float(score - teff),
        isometry_class=_isometry_class(s, n, n, tol),
        witness_index=witness,
    )


def selfadjoint_mean_of_unitaries(
    s: np.ndarray, tol: Tolerance = DEFAULT_TOL
) -> tuple[np.ndarray, np.ndarray]:
    """Write a Hermitian contraction as the arithmetic mean of two unitaries.

    Returns ``u_plus = s + i sqrt(I - s^2)`` and its conjugate twin, built
    per eigenvalue so both factors are unitary to machine precision.
    Eigenvalues are clamped to [-1, 1], which is what permits inputs with
    norm up to ``1 + tol``.
    """
    s = as_matrix(s)
    n = s.shape[0]
    if s.shape != (n, n):
        raise ValueError(f"mean decomposition needs a square matrix, got {s.shape}")
    teff = tol.effective(n, n)
    if operator_norm(s - s.conj().T) > teff:
        raise ValueError("input is not Hermitian within tolerance")
    w, v = np.linalg.eigh(hermitian_part(s))
    if np.max(abs(w)) > 1 + teff:
        raise ValueError("input norm exceeds 1, no unitary mean exists")
    lam = np.clip(w, -1.0, 1.0)
    im = np.sqrt(1.0 - lam * lam)
    u_plus = (v * (lam + 1j * im)) @ v.conj().T
    u_minus = (v * (lam - 1j * im)) @ v.conj().T
    return u_plus, u_minus


def contraction_mean_of_unitaries(
    a: np.ndarray, tol: Tolerance = DEFAULT_TOL
) -> tuple[list[np.ndarray], list[float]]:
    """Write a square contraction as a convex combination of unitaries.

    A unitary input is returned as itself with weight 1.  Otherwise, with
    the SVD ``a = U diag(s) V*`` and ``c = min(s, 1)``, ``a`` is the
    equal-weight mean of the unitaries ``U diag(c +- i sqrt(1 - c^2)) V*``
    (the polar factor ``U V*`` times the two unitaries whose mean is the
    Hermitian contraction ``V diag(c) V*``).
    """
    a = as_matrix(a)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError(f"mean decomposition needs a square matrix, got {a.shape}")
    teff = tol.effective(n, n)
    u, s, vh = np.linalg.svd(a)
    if s[0] > 1 + teff:
        raise ValueError("input norm exceeds 1, no unitary mean exists")
    if np.max(abs(s * s - 1.0)) <= teff:
        return [a.copy()], [1.0]
    c = np.minimum(s, 1.0)
    im = np.sqrt(1.0 - c * c)
    return [(u * (c + 1j * im)) @ vh, (u * (c - 1j * im)) @ vh], [0.5, 0.5]
