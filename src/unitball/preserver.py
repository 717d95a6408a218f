"""Decide unitary preservation and recover the canonical factorization.

A linear map on M_n preserves the extreme points of the unit ball exactly
when it sends every unitary to a unitary, and every such map factors as
A -> U A V or A -> U A^tr V with U, V unitary.  So the decision lets
three images of matrix units pick the form, reads U straight off the
map's images of the matrix units and V off its image of I, rebuilds the
map exactly unitary as the Kronecker product V^tr kron U (its columns
permuted for the transpose form), and lets one number decide: the
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

from .jordan import MapKind, StormerSplit, read_off_split, recover_conjugating_unitary
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
    is set) that the probe of :func:`classify_preserver` chose, and
    ``reconstruction_residual`` is its absolute operator-norm distance rho
    from the input superoperator matrix.  A Preserver is that candidate; a
    rejection carries it too, so its residual can be re-checked.  For a
    NotPreserver, ``witness`` is a concrete unitary whose image fails the
    unitary test by ``witness_defect``.  ``jordan`` holds the Størmer split
    of a rectangular map whose image of I passes: multiplicities p, q,
    conjugator W and the residual that judged it.  ``w`` is retired and always None (it equalled
    ``v_right`` conjugate-transposed).  Fields that a given path never
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

    Steps: (1) v = image of I must be unitary; (2) a probe picks the one
    form the theorem allows: Commutative at n = 1, else Hom when
    F_12 v* F_21 (F_ij the image of E_ij) is nearer F_11 than F_22 in
    Frobenius norm, Anti otherwise, since it equals F_11 for
    A -> U A V and F_22 for A -> U A^tr V; (3) u_left is the polar factor
    of the left factor U that ``recover_conjugating_unitary`` reads off
    phi's images of the matrix units, v_right is the polar factor of
    u_left* v, and the map A -> u_left A v_right (transpose first for
    Anti) is rebuilt exactly unitary as kron(v_right^tr, u_left), its
    columns permuted by the swap for Anti; (4) rho = ||S - R|| (operator
    norm of the difference of the superoperator matrices) is read off one
    SVD.  Since ||vec A|| = sqrt(n) for a unitary A, every image misses
    unitarity by at most 2 sqrt(n) rho + n rho^2; Preserver needs that
    bound to pass ``tol.band`` at n x n, so no unitary can contradict a
    Preserver.  A passing bound puts the probe within O(sqrt(n) rho) of the
    right image, while F_11 and F_22 are sqrt(2) apart, so the probe never
    costs a Preserver.  An image of I inside the band yields Inconclusive.
    Any other failure runs one bounded witness search, started from the
    matrix unit whose column of S - R is largest (from I when the image of
    I fails), whose witness (an image missing unitarity by more than
    10 tol_eff) yields NotPreserver and whose exhaustion yields
    Inconclusive.  Rectangular maps get diagnostics only (the Størmer
    split of psi = v* phi, read off v* times the images of the matrix
    units) because the factorization theorem is about endomorphisms.
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

    if n != m:
        jordan = None
        if v_band is Band.PASS:
            jordan = read_off_split(adjoint(v) @ phi.images_of_matrix_units(), tol)
        return PreserverCertificate(
            PreserverVerdict.INCONCLUSIVE, v, v_res, seed, jordan=jordan, reason="theorem-scope"
        )
    if v_band is Band.FAIL:
        return reject("image-of-identity-not-unitary", [eye])
    if v_band is Band.INCONCLUSIVE:
        return PreserverCertificate(
            PreserverVerdict.INCONCLUSIVE, v, v_res, seed, reason="image-of-identity-in-band"
        )

    kind = MapKind.COMMUTATIVE
    if n > 1:
        f = phi.images_of_matrix_units()
        probe = f[0, 1] @ adjoint(v) @ f[1, 0]
        hom = np.linalg.norm(probe - f[0, 0]) <= np.linalg.norm(probe - f[1, 1])
        kind = MapKind.HOM if hom else MapKind.ANTI
    try:
        u_left = polar_unitary(recover_conjugating_unitary(phi, kind))[0]
    except ValueError:
        return reject("unitary-recovery-failed")
    v_right = polar_unitary(adjoint(u_left) @ v)[0]

    # R is kron(a, b), whose column i + j n is vec(u_left E_ij v_right), as
    # an (n, n, n, n) outer product; Anti swaps its two column indices.
    # S - R is then built in R's buffer.
    a, b = v_right.T, u_left
    if kind is MapKind.ANTI:
        diff = np.multiply(a[:, None, None, :], b[None, :, :, None])
    else:
        diff = np.multiply(a[:, None, :, None], b[None, :, None, :])
    diff = diff.reshape(n * n, n * n)
    np.subtract(phi.matrix, diff, out=diff)
    rho = operator_norm(diff)
    fields = dict(
        kind=kind, u_left=u_left, v_right=v_right,
        transpose_flag=kind is MapKind.ANTI, reconstruction_residual=rho,
    )
    if tol.band(2 * math.sqrt(n) * rho + n * rho * rho, n, n) is Band.PASS:
        return PreserverCertificate(PreserverVerdict.PRESERVER, v, v_res, seed, **fields)
    # column i + j n of the matrix is the image of E_ij
    j, i = divmod(int(np.argmax(np.linalg.norm(diff, axis=0))), n)
    return reject("reconstruction-mismatch", _pair_unitaries(n, (i, j)), **fields)


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
