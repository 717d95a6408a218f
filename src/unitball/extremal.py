"""Extreme point geometry of the operator unit ball.

A norm-one operator is extreme in the unit ball of a C*-algebra B exactly
when it is a partial isometry W with (I - W*W) B (I - WW*) = {0} (Kadison's
criterion).  In a finite-dimensional B that contains I this means W is
unitary, so over a unital *-subalgebra this module decides by W's
unitarity defect and runs Kadison's scan only to name a witness element.
It also gives the mean-of-unitaries decompositions that witness
non-extremeness of contractions.
"""

from __future__ import annotations

import math
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
    "BlockStructure",
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
    contain the identity, all within tolerance.  Complex bases are
    accepted, and so is any sequence of matrices that numpy stacks.
    Closure is checked on r orthonormal rows of the span (row-major vecs,
    kept in ``span``).  When k <= n^2, tol_eff < sqrt(1 - delta) and the
    Gram matrix G of the scaled rows has ||G - I||_F <= delta = 8 n eps,
    as for matrix units or units conjugated by a unitary, the rows are
    their own orthonormal basis with r = k, which is what the SVD would
    give: the squared singular values of the stack are G's eigenvalues,
    all within delta of 1, so none is at most tol_eff.  Such rows stand in
    for LAPACK's: with rows B, B*B is within ||G - I||_F of the projection
    onto the span, and LAPACK's rows depart from orthonormal by O(n eps)
    too (up to 6 n eps in Frobenius norm on Haar-rotated block units up to
    n = 64, whose own G is within 2.4 n eps of I), which the rounding
    allowance of :func:`_block_structure` covers.  If the block structure
    below certifies them, no SVD runs.  Any other stack (an element listed
    twice, a zero element, a general spanning set, more than n^2 elements,
    a tolerance near 1, or orthonormal rows the certificate does not take)
    takes one SVD, whose rows of singular value above tol_eff are the
    basis, and the check continues on them.

    The check first tries a block-structure certificate
    (:class:`BlockStructure`, kept in ``structure``): in the eigenbasis Q of
    one Hermitian element of the span, a span that is unitarily
    M_{n_1} + ... + M_{n_b} lies within rounding of the block-diagonal
    pattern, and then no product is formed.  Otherwise (``structure`` None:
    multiplicities, a residual near the bound, or a malformed span) the
    check is by products: the adjoints of the rows as one (r, n^2) block,
    their r^2 products as one such block per right factor, then the
    identity, each projected onto the span, in that order; only this path
    refuses a span.  A product of Frobenius norm at most tol_eff is not
    projected, since its distance to the span (which holds 0) is at most
    its norm; for matrix units that skips every product E_ij E_kl with
    j != k.  When every element has an imaginary part of exactly zero, the
    whole check runs in real arithmetic: the complex span of real matrices
    has a real orthonormal basis, whose adjoints are transposes.
    ``elements`` stays complex either way.
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
        basis.n, basis.elements, basis.span, basis.structure, basis.is_full = n, None, None, None, True
        return basis

    def _validate(self, vecs: np.ndarray, n: int, teff: float) -> None:
        rows = vecs.copy()  # contiguous: a real stack is a strided view of ``elements``
        k = len(rows)
        delta = _gram_allowance(n)
        # more than n^2 rows are never orthonormal, and their Gram matrix outgrows the stack
        if k <= n * n and teff < math.sqrt(1.0 - delta):
            defect = rows @ rows.conj().T  # G - I, with G the Gram matrix of the rows
            defect.flat[:: k + 1] -= 1.0
            flat = defect.view(np.float64).ravel()
            if np.dot(flat, flat) <= delta * delta:
                structure = _block_structure(rows.reshape(k, n, n), teff)
                if structure is not None:
                    self.span, self.structure = rows, structure
                    return
        _, s, vh = np.linalg.svd(rows, full_matrices=False)
        r = int(np.count_nonzero(s > teff))
        self.span = basis = vh[:r]
        units = basis.reshape(r, n, n)
        self.structure = _block_structure(units, teff)
        if self.structure is not None:
            return
        basis_h = basis.conj().T

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
class BlockStructure:
    """A certificate that the span of a basis is, within tol_eff, the block
    algebra Q (M_{n_1} + ... + M_{n_b}) Q* (see :func:`_block_structure`).

    ``blocks`` lists the n_k in ascending order.  ``q`` is the unitary Q,
    ``off`` the (n, n) mask of the entries, in Q's basis, that the block
    pattern leaves out, and ``gap`` a bound on the sine of the largest
    principal angle between the span and the block algebra: every element
    Z of the block algebra lies within ``gap * ||Z||_F`` of the span.
    """

    blocks: tuple[int, ...]
    q: np.ndarray = field(repr=False)
    off: np.ndarray = field(repr=False)
    gap: float


def _rounding_allowance(n: int) -> float:
    """Room for rounding in a bound that the block structure certifies in
    M_n, and in the projection it stands in for: 16 n^2 eps."""
    return 16.0 * n * n * np.finfo(np.float64).eps


def _gram_allowance(n: int) -> float:
    """The largest ||G - I||_F, G the Gram matrix of the scaled rows of a
    (k, n, n) stack, at which the rows are taken as the orthonormal basis
    of their span: 8 n eps, no more than LAPACK's rows depart from
    orthonormal (see :class:`StarAlgebraBasis`)."""
    return 8.0 * n * np.finfo(np.float64).eps


def _block_structure(units: np.ndarray, teff: float) -> BlockStructure | None:
    """Certify, forming no product of two units, that the span S of the r
    orthonormal ``units`` (an (r, n, n) stack) is closed under adjoints and
    products and holds I, all within tol_eff; None when this cannot be shown.

    Let h be the Hermitian part of sum_j c_j U_j with the fixed
    coefficients c_j = sin j^2 (plus i sin(j^2 sqrt 2) for a complex
    stack), so that the outcome repeats, and Q its eigenvectors.  The phase
    must not be linear in j: on matrix units in file order, sin j would give
    the real part C_ab = sin(n a + b + 1), a matrix of rank 2, whose
    repeated eigenvalues let Q mix the blocks.  For a span that is
    unitarily M_{n_1} + ... + M_{n_b}, a generic h is block diagonal, and
    so is each V_j = Q* U_j Q, on the classes of eigenvectors that share a
    block.  The weight w_ab = sum_j |V_j[a, b]|^2 is the squared length of
    the projection of the matrix unit E_ab onto Q* S Q: near 1 where the
    span holds E_ab and near 0 where it is orthogonal to it.  Eigenvectors
    a and b are joined when w_ab + w_ba > 1, and the joins must be the
    classes of an equivalence (a block algebra joins every pair in a
    block).  The pattern P, the matrices that are block diagonal on those
    classes, is a *-algebra of dimension d = sum n_k^2 that holds I, as the
    classes cover all n eigenvectors.  With E_j the part of V_j off the
    pattern and eta = max_j ||E_j||_F, accept only when

        d = r  and  max(2 + sqrt(r), sqrt(r n)) eta + 16 n^2 eps <= tol_eff.

    Then (Frobenius norms; ||XY||_F <= ||X||_2 ||Y||_F, and ||V_j||_2 <= 1):

    * a unit element Y = sum_j a_j V_j of Q* S Q (||a|| = 1) lies within
      ||sum_j a_j E_j||_F <= sqrt(r) eta of P, so the sine of the largest
      principal angle between Q* S Q and P is at most sqrt(r) eta.  The
      two have the same dimension r, so every Z in P lies within
      sqrt(r) eta ||Z||_F of Q* S Q;
    * V_j* = (V_j - E_j)* + E_j*, with the first term in P and of norm at
      most 1, lies within (1 + sqrt(r)) eta of Q* S Q;
    * V_i V_j = (V_i - E_i)(V_j - E_j) + E_i (V_j - E_j) + V_i E_j, whose
      first term lies in P with norm at most 1 and the other two have norm
      at most eta each, lies within (2 + sqrt(r)) eta;
    * I lies in P with ||I||_F = sqrt(n), so within sqrt(r n) eta.

    Conjugation by Q keeps Frobenius distances, so the same bounds hold for
    the units.  16 n^2 eps covers the rounding: the two GEMMs that
    conjugate a unit (O(n^1.5 eps)), Q's departure from a unitary (O(n eps),
    from LAPACK), the units' departure from orthonormality, which scales
    the bounds above by 1 + O(n eps) (LAPACK's rows, or a file's own rows
    within :func:`_gram_allowance` of orthonormal), and the projections of
    the product check, so that an accepted span is one that check accepts
    too.  A span with a multiplicity m_k > 1 is no multiplicity-free
    pattern of its own dimension, so it goes to the product check, as does
    one whose eigenvector classes h fails to separate.
    """
    r, n = units.shape[:2]
    t = np.square(np.arange(1.0, r + 1))
    c = np.sin(t) if units.dtype == np.float64 else np.sin(t) + 1j * np.sin(np.sqrt(2.0) * t)
    x = np.tensordot(c, units, axes=1)
    q = np.linalg.eigh(x + x.conj().T)[1]
    v = np.matmul(q.conj().T, (units.reshape(r * n, n) @ q).reshape(r, n, n))
    # |V_j[a, b]|^2 as an (r, n^2) block
    sq = (np.square(v) if v.dtype == np.float64 else np.square(v.real) + np.square(v.imag)).reshape(r, n * n)
    weight = sq.sum(axis=0).reshape(n, n)
    pattern = (weight + weight.T > 1.0) | np.eye(n, dtype=bool)
    # the joins must already be an equivalence, as block units join every pair in a block
    if np.count_nonzero(pattern) != r or not np.array_equal(pattern.astype(np.float64) @ pattern > 0, pattern):
        return None
    off = ~pattern
    eta = math.sqrt(float(np.max(sq @ off.ravel())))
    if max(2.0 + math.sqrt(r), math.sqrt(r * n)) * eta + _rounding_allowance(n) > teff:
        return None
    # each eigenvector's class is named by its first member
    sizes = np.bincount(pattern.argmax(axis=1))
    return BlockStructure(tuple(sorted(int(b) for b in sizes if b)), q, off, math.sqrt(r) * eta)


@dataclass(frozen=True)
class ExtremePointReport:
    """Outcome of the extreme-point test with its supporting residuals.

    ``defect_left`` is the distance ``||w*w - P||`` of w*w to its nearest
    orthogonal projection P, ``defect_right`` the same for ww*.  Both are
    ``max_k |s_k^2 - [s_k^2 >= 1/2]|`` over the singular values s of w,
    so for a square w they are equal.  ``margin`` is the unitarity defect
    ``max_k |s_k^2 - 1|``, on which the verdict rests, minus tol_eff:
    nonpositive for Extreme, above ``9 * tol_eff`` for NotExtreme, in
    between for Inconclusive.  ``kadison_residual`` is the largest
    ``||(I - w*w) B_k (I - ww*)||``, None for Extreme, where no scan runs;
    ``witness_index`` names an element attaining it above tol_eff.
    ``isometry_class`` is what :func:`classify_isometry` gives for ``w``;
    hidden from the report, ``check-extreme`` writes it beside the report.
    """

    verdict: ExtremeVerdict
    defect_left: float
    defect_right: float
    is_partial_isometry: bool
    kadison_residual: float | None
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


def _inside_blocks(w: np.ndarray, s: np.ndarray, structure: BlockStructure | None, teff: float) -> bool:
    """Whether the block structure of the span shows ``w`` (with singular
    values ``s``) within tol_eff of the span, with no projection onto it.

    In Q's basis, w's distance to the block algebra is the norm of its
    off-pattern part, and the part on the pattern, of Frobenius norm at most
    ||w||_F = ||s||, lies within ``gap * ||s||`` of the span.  A sum above
    tol_eff, or one that does not come out finite, shows nothing: the
    caller then projects as for a span with no structure.
    """
    if structure is None:
        return False
    q = structure.q
    # at a tolerance far above 1, a w far outside the ball may overflow here;
    # the projection then meets it as it would with no structure
    with np.errstate(all="ignore"):
        off = np.linalg.norm((q.conj().T @ w @ q)[structure.off])
        bound = off + structure.gap * np.linalg.norm(s) + _rounding_allowance(len(q))
    return bool(bound <= teff)


def kadison_extreme_test(
    w: np.ndarray,
    basis: StarAlgebraBasis,
    tol: Tolerance = DEFAULT_TOL,
) -> ExtremePointReport | OutsideBallReport:
    """Test whether ``w`` is extreme in the unit ball of the algebra.

    One values-only SVD of ``w`` gives every score.  A ``w`` whose norm
    fails the band above 1 (``||w|| - 1 > 10 tol_eff``) gets an
    :class:`OutsideBallReport` before ``I - w*w`` is formed, which may
    overflow.  Any other ``w`` farther than tol_eff from the span of the
    basis (Frobenius distance, the closure check's rule) is not in the
    algebra: ValueError.  Over a basis with a :class:`BlockStructure`, the
    distance is first bounded from the block pattern, and ``w`` is
    projected onto the span only when that bound exceeds tol_eff, so a
    refusal names the projected distance.  The basis spans a unital
    *-subalgebra, where Kadison's criterion is unitarity, so the verdict is
    the band applied to the unitarity defect ``max |s^2 - 1|``: Extreme up
    to tol_eff, NotExtreme beyond ten times it, Inconclusive in the decade
    between.
    The partial-isometry defect, the projection defects and the isometry
    class come from the same singular values.  Only a ``w`` that is not
    Extreme gets the Kadison residual ``max_k ||(I - w*w) B_k (I - ww*)||``
    over the unit-norm elements, and ``witness_index``, the first element
    that attains it: from the column norms of the two defects for the full
    algebra (each term is rank one), and for any other basis as one stacked
    product ``dl @ elements @ dr`` with one batched norm call.
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
    if not basis.is_full and not _inside_blocks(w, s, basis.structure, teff):
        x = w.reshape(n * n, 1)
        if basis.span.dtype == np.float64:  # project the real and imaginary parts as two columns
            x = x.view(np.float64)
        distance = float(np.linalg.norm(x - basis.span.T @ (basis.span.conj() @ x)))
        if distance > teff:
            raise ValueError(f"matrix lies {distance:.3e} from the algebra's span, beyond tol_eff {teff:.3e}")
    s2 = s * s
    # w*w and ww* share the eigenvalues s^2; the nearest projection rounds them at 1/2
    projection_defect = float(np.max(abs(s2 - (s2 >= 0.5))))
    unitarity = float(np.max(abs(s2 - 1.0)))
    band = tol.band(unitarity, n, n)

    residual = witness = None
    if band is not Band.PASS:  # the scan only names the element that shows w is not extreme
        dl = np.eye(n) - w.conj().T @ w
        dr = np.eye(n) - w @ w.conj().T
        if basis.is_full:
            # (I-w*w) E_ij (I-ww*) is rank one with norm ||dl e_i|| * ||dr e_j||.
            ln, rn = np.linalg.norm(dl, axis=0), np.linalg.norm(dr, axis=0)
            best_index = int(np.argmax(ln)) * n + int(np.argmax(rn))
            residual = float(ln.max() * rn.max())
        else:
            norms = operator_norm(dl @ basis.elements @ dr)
            best_index = int(np.argmax(norms))
            residual = float(norms[best_index])
            if residual == np.inf:
                # the SVD scales its input, so a norm past the float range comes back as inf
                # with no floating-point flag set: {I, J} at w = 1.189e77 I and a tol of 1e100
                raise FloatingPointError("overflow encountered in the Kadison residual")
        witness = best_index if residual > teff else None

    verdict = {
        Band.PASS: ExtremeVerdict.EXTREME,
        Band.INCONCLUSIVE: ExtremeVerdict.INCONCLUSIVE,
        Band.FAIL: ExtremeVerdict.NOT_EXTREME,
    }[band]
    return ExtremePointReport(
        verdict=verdict,
        defect_left=projection_defect,
        defect_right=projection_defect,
        is_partial_isometry=bool(np.max(s * abs(s2 - 1.0)) <= teff),
        kadison_residual=residual,
        margin=unitarity - teff,
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
