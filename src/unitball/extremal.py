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
    "InconclusiveClosure",
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


class InconclusiveClosure(Exception):
    """A span that :class:`StarAlgebraBasis` neither certifies nor refuses:
    ``bound``, the largest of :func:`_refute`'s lower bounds, does not
    exceed ``threshold``, 10 tol_eff plus the rounding allowance."""

    def __init__(self, bound: float, threshold: float):
        super().__init__(f"span neither certified nor refuted: closure residual bound {bound:.3e} within {threshold:.3e}")
        self.bound, self.threshold = float(bound), float(threshold)


class StarAlgebraBasis:
    """A (k, n, n) stack of matrices spanning a *-subalgebra of M_n.

    Any sequence of matrices that numpy stacks is taken, and one read-only
    complex128 copy kept in ``elements``, each element divided by its
    largest real or imaginary part (so that no norm overflows), then by its
    Frobenius norm; one of norm at most tol_eff is kept as zero.  The
    closure check and the Kadison residual both read this stack, so neither
    depends on element scale.  A stack with no nonzero imaginary part is
    checked in real arithmetic, on a real orthonormal basis of its span.

    On construction (unless built by :meth:`full`, which is exact) the span
    is judged on r orthonormal rows (row-major vecs, kept in ``span``).
    When k <= n^2, tol_eff < sqrt(1 - delta) and the Gram matrix G of the
    scaled rows has ||G - I||_F <= delta = 8 n eps, as for rotated matrix
    units, the rows are their own basis with r = k, as the SVD would find
    (its squared singular values are G's eigenvalues), no farther from
    orthonormal than LAPACK's rows.  Any other stack takes one SVD, whose
    rows of singular value above tol_eff are the basis.  The span is
    accepted only by its block structure (``structure``, see
    :func:`_block_structure`), whose bounds hold for the span, not for one
    basis of it; any other span is judged on the band by :func:`_refute`.
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
        orthonormal = False
        # more than n^2 rows are never orthonormal, and their Gram matrix outgrows the stack
        if k <= n * n and teff < math.sqrt(1.0 - delta):
            defect = rows @ rows.conj().T  # G - I, with G the Gram matrix of the rows
            defect.flat[:: k + 1] -= 1.0
            flat = defect.view(np.float64).ravel()
            orthonormal = np.dot(flat, flat) <= delta * delta
        if not orthonormal:
            _, s, vh = np.linalg.svd(rows, full_matrices=False)
            rows = vh[: int(np.count_nonzero(s > teff))]
        self.span, units = rows, rows.reshape(len(rows), n, n)
        self.structure = _block_structure(units, teff)
        if self.structure is None:
            _refute(units, teff)


@dataclass(frozen=True)
class BlockStructure:
    """A certificate that the span of a basis is, within tol_eff, the
    algebra Q (M_{n_1} (x) I_{m_1} + ... + M_{n_b} (x) I_{m_b}) Q* (see
    :func:`_block_structure`), the pairs (n_k, m_k) in ascending order.  In
    Q's basis the pattern is zero where ``off`` is True and constant along
    each aligned diagonal, one (n_k, n_k, m_k) array of flat indices in
    ``aligned`` per block with m_k > 1.  Every element Z of the pattern lies
    within ``gap * ||Z||_F`` of the span."""

    blocks: tuple[int, ...]
    multiplicities: tuple[int, ...]
    q: np.ndarray = field(repr=False)
    off: np.ndarray = field(repr=False)
    aligned: tuple[np.ndarray, ...] = field(repr=False)
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


def _coefficients(count: int, real: bool) -> np.ndarray:
    """The fixed coefficients sin t^2 (plus i sin(t^2 sqrt 2) unless
    ``real``), t = 1 .. count.  The phase must not be linear in t: on matrix
    units in file order, sin t would give x the real part
    C_ab = sin(n a + b + 1), of rank 2, whose repeated eigenvalues mix the
    blocks."""
    t = np.square(np.arange(1.0, count + 1))
    return np.sin(t) if real else np.sin(t) + 1j * np.sin(np.sqrt(2.0) * t)


def _squares(v: np.ndarray) -> np.ndarray:
    return np.square(v) if v.dtype == np.float64 else np.square(v.real) + np.square(v.imag)


def _off_pattern_sq(flat: np.ndarray, sq: np.ndarray, off: np.ndarray, aligned) -> np.ndarray:
    """Each row's (a row-major vec in Q's basis; ``sq`` its squared moduli)
    squared Frobenius distance from the pattern of a :class:`BlockStructure`:
    its entries off it, plus each aligned diagonal's deviation from its mean."""
    dist = sq @ off.ravel()
    for idx in aligned:
        diag = flat[:, idx]
        dist += _squares(diag - diag.mean(axis=-1, keepdims=True)).reshape(len(flat), -1).sum(axis=1)
    return dist


def _block_structure(units: np.ndarray, teff: float) -> BlockStructure | None:
    """Certify, forming no product of two units, that the span S of the r
    orthonormal ``units`` (an (r, n, n) stack) is closed under adjoints and
    products and holds I, all within tol_eff; None when this cannot be shown.

    Let x = sum_j c_j U_j (c from :func:`_coefficients`, so that every run
    gives the same outcome), h = x + x* and Q its eigenvectors.  In a span
    unitarily M_{n_1} (x) I_{m_1} + ... (Davidson, C*-Algebras by Example,
    III.1), h = sum_k H_k (x) I_{m_k}: each eigenvalue of a generic H_k is a
    cluster C of m_k eigenvalues of h, and between two clusters of one block
    each V_j = Q* U_j Q has a sub-block a Y_C* Y_D, a scalar times a fixed
    unitary.  A gap above 1e-8 ||h|| between consecutive eigenvalues starts
    a new cluster: a heuristic that no bound rests on, as a wrong cluster
    only keeps the certificate from being found.  The weight
    w_ab = sum_j |V_j[a, b]|^2 is the squared length of the projection of
    E_ab onto Q* S Q, so it sums to 1 over a in C, b in D for two clusters
    of one block and to 0 otherwise.  Clusters are joined when
    w_CD + w_DC > 1; the joins must be an equivalence whose classes hold
    n_k clusters of one size m_k, with sum_k n_k^2 = r.  Each cluster C of a class is turned onto the class's
    first, C_1, by the polar factor of T, read off the top right singular
    vector of the r sub-blocks V_j[C_1, C] = a_j T (Maehara and Murota,
    Japan J. Indust. Appl. Math. 2010), which makes every sub-block of the
    class a multiple of I_{m_k}.  With every m_k = 1 nothing turns.

    The pattern P, the matrices A_k (x) I_{m_k} on each class in this
    basis, is a *-algebra of dimension r that holds I.  The orthogonal
    projection Pi onto P keeps each class's sub-blocks and replaces each
    aligned diagonal by its mean: the trace-preserving conditional
    expectation onto P, an average of unitary conjugations, so
    ||Pi(X)||_2 <= ||X||_2.  With E_j = V_j - Pi(V_j) (the entries off the
    pattern and each aligned diagonal's deviation from its mean) and
    eta = max_j ||E_j||_F, accept only when

        max(2 + sqrt(r), sqrt(r n)) eta + 16 n^2 eps <= tol_eff.

    Then (Frobenius norms; ||XY||_F <= ||X||_2 ||Y||_F, and
    ||Pi(V_j)||_2 <= ||V_j||_2 <= 1):

    * a unit Y = sum_j a_j V_j lies within ||sum_j a_j E_j||_F <= sqrt(r) eta
      of P, so the sine of the largest principal angle between Q* S Q and
      P, which have one dimension r, is at most sqrt(r) eta: every Z in P
      lies within sqrt(r) eta ||Z||_F of Q* S Q;
    * V_j* = Pi(V_j)* + E_j*, the first term in P with norm at most 1, lies
      within (1 + sqrt(r)) eta of Q* S Q;
    * V_i V_j = Pi(V_i) Pi(V_j) + E_i Pi(V_j) + V_i E_j, the first term in P
      with norm at most 1 and the others of norm at most eta, lies within
      (2 + sqrt(r)) eta;
    * I lies in P with ||I||_F = sqrt(n), so within sqrt(r n) eta.

    The bounds hold whatever unitary Q the clusters and the alignment give.
    16 n^2 eps covers the rounding of the two GEMMs that conjugate a unit
    (O(n^1.5 eps)), Q's departure from a unitary and the units' from
    orthonormal (O(n eps) each, see :func:`_gram_allowance`).
    """
    r, n = units.shape[:2]
    x = (_coefficients(r, units.dtype == np.float64) @ units.reshape(r, n * n)).reshape(n, n)
    lam, q = np.linalg.eigh(x + x.conj().T)
    stacked = units.reshape(r * n, n)
    v = np.matmul(q.conj().T, (stacked @ q).reshape(r, n, n))
    sq = _squares(v).reshape(r, n * n)
    bounds = np.flatnonzero(np.concatenate(([True], lam[1:] - lam[:-1] > 1e-8 * max(-lam[0], lam[-1]), [True])))
    starts, sizes = bounds[:-1], bounds[1:] - bounds[:-1]  # the clusters
    weight = sq.sum(axis=0).reshape(n, n)
    if len(starts) < n:
        weight = np.add.reduceat(np.add.reduceat(weight, starts, axis=0), starts, axis=1)
    join = (weight + weight.T > 1.0) | np.eye(len(starts), dtype=bool)
    # the joins must already be an equivalence, as a block joins every pair of its clusters
    if not np.array_equal(join.astype(np.float64) @ join > 0, join):
        return None
    first = join.argmax(axis=1)  # each cluster's class is named by its first cluster
    counts = np.bincount(first, minlength=len(starts))
    if counts @ counts != r or (sizes != sizes[first]).any():
        return None
    off, aligned = ~join, []
    if len(starts) < n:
        cid = np.repeat(np.arange(len(starts)), sizes)
        key = first[cid] * n + np.arange(n) - starts[cid]  # on the pattern: one class, one place in the cluster
        off = np.not_equal.outer(key, key)
        for k in np.flatnonzero(counts * (sizes > 1)):
            cols = starts[first == k][:, None] + np.arange(sizes[k])  # (n_k, m_k) eigenvector indices
            sub = v[:, cols[0]][:, :, cols[1:]].transpose(2, 0, 1, 3).reshape(len(cols) - 1, r, sizes[k] ** 2)
            u, _, vh = np.linalg.svd(np.linalg.svd(sub, full_matrices=False)[2][:, 0].reshape(-1, sizes[k], sizes[k]))
            q[:, cols[1:]] = np.einsum("nib,iab->nia", q[:, cols[1:]], (u @ vh).conj())
            aligned.append(cols[:, None, :] * n + cols[None, :, :])
        v = np.matmul(q.conj().T, (stacked @ q).reshape(r, n, n))
        sq = _squares(v).reshape(r, n * n)
    eta = math.sqrt(float(np.max(_off_pattern_sq(v.reshape(r, n * n), sq, off, aligned))))
    if max(2.0 + math.sqrt(r), math.sqrt(r * n)) * eta + _rounding_allowance(n) > teff:
        return None
    blocks, multiplicities = zip(*sorted(zip(counts[counts > 0].tolist(), sizes[counts > 0].tolist())))
    return BlockStructure(blocks, multiplicities, q, off, tuple(aligned), math.sqrt(r) * eta)


def _refute(units: np.ndarray, teff: float) -> None:
    """Judge on the band a span S (of the r orthonormal ``units``) that the
    block structure does not certify: ValueError, naming the property and
    its bound, when a lower bound on how far S is from closed exceeds
    10 tol_eff + 16 n^2 eps, else :class:`InconclusiveClosure`.  With P the
    projection onto S, each bound is attained by unit elements of S, so it
    depends on the span and not on its basis:

    * adjoints: the largest singular value of X -> (I - P) X* on S, exact;
    * products: ||(I - P)(A B)||_F for unit A, B in S, the best of 32 steps
      of alternating power iteration on (A, B) -> (I - P)(A B) from each of
      (A, B) = P(G_1, G_1), P(G_1, G_2), P(G_1, G_1^T), P(G_2, G_2), G_1 and
      G_2 the n x n matrices of the real :func:`_coefficients`.  With B
      fixed, A -> (I - P)(A B) has the adjoint R -> P(R B*), so the step
      A <- P(R B*) / ||.||, R = (I - P)(A B), cannot lower the residual;
      then B <- P(A* R) likewise.  This is a local search: it can end below
      the product of two elements of the file, so a span whose products
      alone miss closure by little more than the threshold may come out
      inconclusive, or be named by the identity;
    * identity: ||(I - P) I||_F, exact.

    In that order, the first above the threshold names the refusal.
    """
    r, n = units.shape[:2]
    span = units.reshape(r, n * n)

    def outside(x: np.ndarray) -> np.ndarray:  # (I - P) x, row by row
        return x.reshape(-1, n * n) - (x.reshape(-1, n * n) @ span.conj().T) @ span

    def unit_inside(x: np.ndarray) -> np.ndarray:
        x = (x.ravel() @ span.conj().T) @ span  # a combination of the units, with no part outside S
        return (x / (np.linalg.norm(x) or 1.0)).reshape(n, n)

    # finite, as a report carries it, also where 10 tol_eff is past the float range
    threshold = min(10.0 * teff + _rounding_allowance(n), np.finfo(np.float64).max)
    bounds = [0.0]

    def judge(what: str, bound: float) -> None:
        if bound > threshold:
            raise ValueError(f"basis span {what}: residual {bound:.3e} above {threshold:.3e}")
        bounds.append(bound)

    adjoints = outside(np.conj(units.transpose(0, 2, 1)))
    judge("is not closed under adjoints", math.sqrt(np.max(np.linalg.eigvalsh(adjoints @ adjoints.conj().T), initial=0.0)))
    g = _coefficients(2 * n * n, True).reshape(2, n, n)
    for a, b in ((g[0], g[0]), (g[0], g[1]), (g[0], g[0].T), (g[1], g[1])):
        a, b = unit_inside(a), unit_inside(b)
        for _ in range(32):
            a = unit_inside(outside(a @ b).reshape(n, n) @ b.conj().T)
            b = unit_inside(a.conj().T @ outside(a @ b).reshape(n, n))
        judge("is not closed under products", float(np.linalg.norm(outside(a @ b))))
    judge("does not contain the identity", float(np.linalg.norm(outside(np.eye(n, dtype=span.dtype)))))
    raise InconclusiveClosure(max(bounds), threshold)


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


def _inside_blocks(w: np.ndarray, s: np.ndarray, structure: BlockStructure, teff: float) -> bool:
    """Whether the block structure of the span shows ``w`` (singular values
    ``s``) within tol_eff of the span, with no projection onto it: in Q's
    basis w lies off the pattern by the root of :func:`_off_pattern_sq`,
    and its projection onto the pattern, of Frobenius norm at most ||s||,
    lies within ``gap * ||s||`` of the span.  At the tol the basis was
    built at nothing here overflows: an accepted file has r >= 1 rows of
    singular value in (tol_eff, sqrt(k)], so ||w|| <= 1 + 10 sqrt(k)."""
    y = (structure.q.conj().T @ w @ structure.q).reshape(1, -1)
    off = math.sqrt(_off_pattern_sq(y, _squares(y), structure.off, structure.aligned)[0])
    return bool(off + structure.gap * np.linalg.norm(s) + _rounding_allowance(len(w)) <= teff)


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
    algebra: ValueError.  Over a file basis the distance is first bounded
    from its :class:`BlockStructure`, and ``w`` is projected onto the span
    only when that bound exceeds tol_eff, so a refusal names the projected
    distance.  The basis spans a unital *-subalgebra, where Kadison's
    criterion is unitarity, so the verdict is the band applied to the
    unitarity defect ``max |s^2 - 1|``: Extreme up to tol_eff, NotExtreme
    beyond ten times it, Inconclusive in the decade between.  The
    partial-isometry defect, the projection defects and the isometry class
    come from the same singular values.  Only a ``w`` that is not
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
            if residual == np.inf:  # the SVD scales its input, so it returns inf and sets no flag
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
