"""Decide unitary preservation and recover the canonical factorization.

A linear map on M_n preserves the extreme points of the unit ball exactly
when it sends every unitary to a unitary, and every such map factors as
A -> U A V or A -> U A^tr V with U, V unitary: the Størmer split with
p + q = 1.  So the decision reads one candidate off the map's images of the
matrix units, as for rectangular maps, and lets one number decide: the
residual rho = ||S - R|| between the input and rebuilt superoperator
matrices, which bounds how far any unitary's image can be from unitary.
A rejection rests on one object, a witness unitary, found by one bounded
search.  ``falsify_by_sampling`` runs the same witness test on seeded Haar
samples alone; the library keeps it for tests and the benchmark.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .jordan import MapKind, StormerSplit, read_off_split
from .linalg import (
    DEFAULT_TOL,
    Band,
    Tolerance,
    adjoint,
    complex_gaussian,
    haar_from_ginibre,
    haar_stack,
    hermitian_part,
    matrix_unit,
    operator_norm,
    polar_unitary,
    unitarity_defect,
    unitary_exp,
)
from .superop import SuperOperator, apply

__all__ = [
    "PreserverVerdict",
    "PreserverCertificate",
    "classify_preserver",
    "falsify_by_sampling",
    "perturb",
    "identity_residuals",
    "WITNESS_SAMPLE_BUDGET",
]

WITNESS_SAMPLE_BUDGET = 256
_WITNESS_T_STEPS = (1.0, -1.0, 0.5, -0.5)
# largest Haar stack scored at once, so memory does not grow with the budget
_MAX_STACK = 64


class PreserverVerdict(Enum):
    PRESERVER = "Preserver"
    NOT_PRESERVER = "NotPreserver"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class PreserverCertificate:
    """Verdict plus everything needed to audit it.

    For a square map whose image of I passes, ``kind``, ``u_left``,
    ``v_right`` and ``transpose_flag`` describe the one candidate
    A -> u_left A v_right (transpose applied first when ``transpose_flag``
    is set) that :func:`classify_preserver` read off, and
    ``reconstruction_residual`` is its absolute operator-norm distance rho
    from the input superoperator matrix.  A Preserver is that candidate; a
    rejection carries it too, so its residual can be re-checked.  For a
    NotPreserver, ``witness`` is a concrete unitary whose image fails the
    unitary test by ``witness_defect``.  ``jordan`` holds the Størmer split
    of a rectangular map whose image of I passes: multiplicities p, q,
    conjugator W and the residual that judged it.  ``w`` is retired, always
    None and not emitted (it equalled ``v_right`` conjugate-transposed).
    Fields that a given path never
    computed keep their defaults: None, ``MapKind.NONE`` or False.
    """

    verdict: PreserverVerdict
    v: np.ndarray
    v_unitarity_residual: float
    seed: int
    jordan: StormerSplit | None = None
    kind: MapKind = MapKind.NONE
    u_left: np.ndarray | None = None
    v_right: np.ndarray | None = None
    transpose_flag: bool = False
    w: np.ndarray | None = None
    reconstruction_residual: float | None = None
    witness: np.ndarray | None = None
    witness_defect: float | None = None
    reason: str = ""


def _pair_unitaries(n: int, unit):
    """Unitaries exp(i t H) from the Hermitian parts of the matrix unit E_ij."""
    i, j = unit
    e = matrix_unit(n, i, j)
    gens = [e + e.conj().T] if i == j else [e + e.conj().T, 1j * (e - e.conj().T)]
    for h, t in itertools.product(gens, _WITNESS_T_STEPS):
        yield unitary_exp(h, t)


def _haar_samples(n: int, count: int, seed: int):
    """``count`` seeded Haar unitaries, in stacks of 1, 4, 16, 64, 64, ...

    The first stack holds one sample, so a map refuted by its first sample
    pays for one; later stacks grow fourfold up to ``_MAX_STACK`` samples,
    so any budget runs in memory independent of its size.
    """
    rng = np.random.default_rng(seed)
    size = 1
    while count > 0:
        yield haar_stack(n, min(size, count), rng)
        count -= size
        size = min(4 * size, _MAX_STACK)


def _first_witness(phi: SuperOperator, stacks, tol: Tolerance):
    """First candidate unitary whose image misses unitarity by more than
    10 tol_eff, with that defect, or (None, None).

    ``stacks`` yields (k, n, n) stacks of candidates.  Each stack is scored
    with one stacked ``apply``, one batched singular-value call and one
    comparison with the ``tol.band`` FAIL threshold, so every image and
    defect is bit-identical to scoring the candidates one at a time.
    """
    fail = 10 * tol.effective(phi.dim_out, phi.dim_out)
    for stack in stacks:
        defects = unitarity_defect(apply(phi, stack))
        hits = np.flatnonzero(defects > fail)
        if hits.size:
            return stack[hits[0]], float(defects[hits[0]])
    return None, None


def _search_witness(phi: SuperOperator, tol: Tolerance, seed: int, starts=()):
    """The structured starts, one at a time, then a seeded budget of Haar
    samples in stacks."""
    samples = _haar_samples(phi.dim_in, WITNESS_SAMPLE_BUDGET, seed)
    singles = (u[None] for u in starts)
    return _first_witness(phi, itertools.chain(singles, samples), tol)


def falsify_by_sampling(
    phi: SuperOperator,
    trials: int = 100,
    seed: int = 0,
    tol: Tolerance = DEFAULT_TOL,
) -> np.ndarray | None:
    """Hunt for a Haar unitary whose image fails the unitary test.

    Returns the first witness found within the trial budget, or None.  A
    witness counts only when its image misses unitarity by more than ten
    times the effective tolerance.  At finite dimension the extreme points
    of the unit ball are exactly the unitaries, so a witness disproves the
    preserver property outright.  The samples are drawn and scored in
    stacks of a fixed schedule, 1, 4, 16, then 64 at a time until
    ``trials`` are spent, so memory does not grow with ``trials``; the
    draws, their order and the witness returned are those of a one-at-a-time
    loop over the same seeded stream.
    """
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    return _first_witness(phi, _haar_samples(phi.dim_in, trials, seed), tol)[0]


def perturb(phi: SuperOperator, epsilon: float, seed: int) -> SuperOperator:
    """Add a seeded complex Gaussian of operator norm ``epsilon`` to the map."""
    if epsilon < 0:
        raise ValueError(f"epsilon must be nonnegative, got {epsilon}")
    if epsilon == 0:
        return phi
    rng = np.random.default_rng(seed)
    g = complex_gaussian(phi.matrix.shape[0], phi.matrix.shape[1], rng)
    return SuperOperator(
        phi.dim_in, phi.dim_out, phi.matrix + epsilon * g / operator_norm(g)
    )


def classify_preserver(
    phi: SuperOperator,
    tol: Tolerance = DEFAULT_TOL,
    seed: int = 0,
) -> PreserverCertificate:
    """Decide whether a map M_n -> M_n sends unitaries to unitaries.

    Steps: (1) v = image of I must be unitary; (2) with u = polar(v),
    :func:`unitball.jordan.read_off_split` reads off one candidate: p + q = 1
    names the form, A -> u_left A v_right with u_left = u W and
    v_right = W* (Hom, p = 1; Commutative at n = 1) or its transpose
    form (Anti, q = 1), and rho = ||S - R|| bounds every image's miss of
    unitarity by 2 sqrt(n) rho + n rho^2.  Preserver needs that bound to
    pass ``tol.band`` at n x n, so no unitary can contradict it.  An image
    of I that fails makes I the witness; one inside the band yields
    Inconclusive.  Any other failure runs one bounded witness search,
    started from the matrix unit whose image R misses most (from Haar
    samples alone when the ranks give no conjugator), whose witness (an
    image missing unitarity by more than 10 tol_eff) yields NotPreserver
    and whose exhaustion yields Inconclusive.  Rectangular maps get
    diagnostics only (the same read-off, as the Størmer split of
    psi = u* phi, with p = q = -1 and no W unless the same bound passes at
    m x m) because the factorization theorem is about endomorphisms.
    """
    n, m = phi.dim_in, phi.dim_out
    eye = np.eye(n, dtype=np.complex128)
    v = apply(phi, eye)
    v_res = unitarity_defect(v)
    v_band = tol.band(v_res, m, m)

    def reject(reason: str, starts=(), **fields) -> PreserverCertificate:
        witness, defect = _search_witness(phi, tol, seed, starts)
        return PreserverCertificate(
            PreserverVerdict.INCONCLUSIVE if witness is None else PreserverVerdict.NOT_PRESERVER,
            v, v_res, seed,
            witness=witness, witness_defect=defect, reason=reason, **fields,
        )

    if n == m and v_band is Band.FAIL:
        return PreserverCertificate(PreserverVerdict.NOT_PRESERVER, v, v_res, seed, witness=eye,
                                    witness_defect=v_res, reason="image-of-identity-not-unitary")
    if v_band is not Band.PASS:
        reason = "image-of-identity-in-band" if n == m else "theorem-scope"
        return PreserverCertificate(PreserverVerdict.INCONCLUSIVE, v, v_res, seed, reason=reason)
    u = polar_unitary(v)
    fit = read_off_split(phi.images_of_matrix_units(), u, tol)
    if n != m:
        split = fit if fit.passed else StormerSplit(-1, -1, None, fit.residual)
        return PreserverCertificate(
            PreserverVerdict.INCONCLUSIVE, v, v_res, seed, jordan=split, reason="theorem-scope"
        )
    if fit.w is None:
        return reject("unitary-recovery-failed")
    kind = MapKind.COMMUTATIVE if n == 1 else MapKind.ANTI if fit.q else MapKind.HOM
    fields = dict(kind=kind, u_left=u @ fit.w, v_right=adjoint(fit.w),
                  transpose_flag=fit.q == 1, reconstruction_residual=fit.residual)
    if fit.passed:
        return PreserverCertificate(PreserverVerdict.PRESERVER, v, v_res, seed, **fields)
    return reject("reconstruction-mismatch", _pair_unitaries(n, fit.worst), **fields)


def _identity_norms(phi: SuperOperator, v: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Norms (4, k) of the four identity residuals at k samples, given as a
    (k, 4, n, n) stack of the complex Gaussians of S, A, B and U's Ginibre matrix."""
    k, n = g.shape[0], phi.dim_in
    vh, two_eye = adjoint(v), 2 * np.eye(n, dtype=np.complex128)
    # S, A and B scaled into the unit ball
    sab = np.stack([hermitian_part(g[:, 0]), g[:, 1], g[:, 2]])
    s, a, b = sab / np.maximum(1.0, operator_norm(sab.reshape(-1, n, n))).reshape(3, k, 1, 1)
    u = haar_from_ginibre(g[:, 3])
    inputs = [s, s @ s, adjoint(a), b, adjoint(b), a, a @ b + b @ a, u]
    fs, fss, fah, fb, fbh, fa, fab, w = apply(phi, np.concatenate(inputs)).reshape(8, k, n, n)
    pu = vh @ w
    residuals = np.stack([
        adjoint(fs) @ fs - vh @ fss,
        adjoint(fah) @ fb + adjoint(fbh) @ fa - vh @ fab,
        adjoint(w) @ v @ vh @ w + vh @ w @ adjoint(w) @ v - two_eye,
        adjoint(pu) @ pu + pu @ adjoint(pu) - two_eye,
    ])
    return operator_norm(residuals.reshape(-1, n, n)).reshape(4, k)


def identity_residuals(
    phi: SuperOperator,
    samples: int = 50,
    seed: int = 0,
) -> dict[str, float]:
    """Max residuals of the structural identities every preserver satisfies.

    Over seeded random inputs of norm <= 1:

    - ``hermitian_square``: phi(S)* phi(S) - phi(I)* phi(S^2) on Hermitian S
    - ``polarized_product``: phi(A*)* phi(B) + phi(B*)* phi(A) - phi(I)* phi(AB + BA)
    - ``range_alignment``: W* V V* W + V* W W* V - 2I with W = phi(U), V = phi(I)
    - ``jordan_unitary``: psi(U)* psi(U) + psi(U) psi(U)* - 2I with psi = V* . phi

    All four vanish identically for a certified preserver; large values
    localize which structural property breaks.  Samples are scored in
    stacks of at most ``_MAX_STACK``, each drawn in one call in the stream
    order of a one-at-a-time loop (S, A, B, then U), so memory does not
    grow with ``samples`` and every residual is bit-identical to that loop's.
    """
    if not phi.is_square:
        raise ValueError("identity audit needs an endomorphism")
    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")
    n = phi.dim_in
    rng = np.random.default_rng(seed)
    v = apply(phi, np.eye(n, dtype=np.complex128))
    worst = np.zeros(4)
    for start in range(0, samples, _MAX_STACK):
        z = rng.standard_normal((min(_MAX_STACK, samples - start), 4, 2, n, n))
        g = (z[:, :, 0] + 1j * z[:, :, 1]) / math.sqrt(2)
        worst = np.maximum(worst, _identity_norms(phi, v, g).max(axis=1))
    keys = ("hermitian_square", "polarized_product", "range_alignment", "jordan_unitary")
    return dict(zip(keys, worst.tolist()))
