"""Jordan layer tests.  The vectorized residual scans are validated against
a literal four-index loop over matrix-unit pairs, and the Størmer split is
compared with the multiplicities and projection known in closed form for
block embeddings."""

import tracemalloc

import numpy as np
import pytest

from unitball.jordan import (
    MapKind,
    jordan_check,
    recover_conjugating_unitary,
    stormer_split,
)
from unitball.linalg import (
    Tolerance,
    complex_gaussian,
    haar_unitary,
    hermitian_part,
    matrix_unit,
    operator_norm,
    unitarity_defect,
)
from unitball.superop import (
    BlockKind,
    SuperOperator,
    apply,
    compose,
    direct_sum_embedding,
    from_left_right,
    identity_map,
    transpose_map,
)
from unitball.gen import trace_pinch_map
from unitball.preserver import classify_preserver

from map_norm import map_norm_lower_bound


def jordan_residuals_by_loop(psi):
    """Oracle: the defining max over all matrix-unit pairs, written plainly."""
    n = psi.dim_in
    img = {
        (i, j): apply(psi, matrix_unit(n, i, j)) for i in range(n) for j in range(n)
    }
    r_sq = 0.0
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    a, b = matrix_unit(n, i, j), matrix_unit(n, k, l)
                    lhs = apply(psi, a @ b + b @ a)
                    rhs = img[i, j] @ img[k, l] + img[k, l] @ img[i, j]
                    r_sq = max(r_sq, operator_norm(lhs - rhs))
    r_st = max(
        operator_norm(apply(psi, matrix_unit(n, j, i)) - img[i, j].conj().T)
        for i in range(n)
        for j in range(n)
    )
    return r_sq, r_st


def pair_square_defect(psi, i, j, k, l):
    n = psi.dim_in
    a, b = matrix_unit(n, i, j), matrix_unit(n, k, l)
    lhs = apply(psi, a @ b + b @ a)
    fa, fb = apply(psi, a), apply(psi, b)
    return operator_norm(lhs - fa @ fb - fb @ fa)


# ---------------------------------------------------------- jordan_check


def test_identity_map_is_jordan():
    rep = jordan_check(identity_map(3))
    assert rep.is_jordan
    assert rep.r_square == 0.0
    assert rep.r_star == 0.0
    assert rep.r_unital == 0.0


def test_transpose_map_is_jordan():
    rep = jordan_check(transpose_map(3))
    assert rep.is_jordan
    assert max(rep.r_square, rep.r_star, rep.r_unital) == 0.0


def test_trace_pinch_residuals_by_hand():
    """A -> (tr A / n) I.  At the pair (E_11, E_11) the defect is
    ||(2/n)I - (2/n^2)I|| = 2(n-1)/n^2; the max over pairs is attained at
    (E_12, E_21), where psi(E_11 + E_22) = (2/n)I faces a zero product,
    giving r_square = 2/n."""
    pinch2 = trace_pinch_map(2)
    assert pair_square_defect(pinch2, 0, 0, 0, 0) == pytest.approx(0.5, abs=1e-15)
    rep2 = jordan_check(pinch2)
    assert not rep2.is_jordan
    assert rep2.r_square == pytest.approx(1.0, abs=1e-15)
    assert rep2.r_unital <= 1e-15

    rep3 = jordan_check(trace_pinch_map(3))
    assert rep3.r_square == pytest.approx(2 / 3, abs=1e-14)


def test_trace_pinch_worst_pair_is_offdiagonal():
    rep = jordan_check(trace_pinch_map(2))
    i, j, k, l = rep.worst_square_pair
    assert pair_square_defect(trace_pinch_map(2), i, j, k, l) == pytest.approx(
        rep.r_square, abs=1e-14
    )
    assert (i, j) != (j, i) or (k, l) != (l, k)  # an off-diagonal unit is involved


def test_exact_jordan_map_names_no_worst_pair():
    """Below tol_eff the square defects are rounding noise: no pair is named."""
    rep = jordan_check(_mixed_embedding(37))
    assert rep.is_jordan and rep.r_square <= 1e-14
    assert rep.worst_square_pair is None


@pytest.mark.parametrize("seed", range(4))
def test_jordan_check_matches_loop_oracle(seed):
    """Vectorized residuals == literal loop, including rectangular maps."""
    rng = np.random.default_rng(seed)
    dim_out = 3 if seed % 2 else 2
    psi = SuperOperator(2, dim_out, complex_gaussian(dim_out**2, 4, rng))
    rep = jordan_check(psi)
    r_sq, r_st = jordan_residuals_by_loop(psi)
    assert rep.r_square == pytest.approx(r_sq, abs=1e-12)
    assert rep.r_star == pytest.approx(r_st, abs=1e-12)


def test_unitary_conjugation_is_jordan():
    u = haar_unitary(4, 2)
    rep = jordan_check(from_left_right(u, u.conj().T))
    assert rep.is_jordan
    assert rep.r_unital <= 1e-13


# --------------------------------------------------------- stormer_split


def test_stormer_identity_map():
    rep = stormer_split(identity_map(3))
    assert np.allclose(rep.e, np.eye(3), atol=1e-10)
    assert (rep.p, rep.q) == (1, 0)
    assert rep.residual <= 1e-12


def test_stormer_transpose_map():
    rep = stormer_split(transpose_map(3))
    assert operator_norm(rep.e) <= 1e-10
    assert (rep.p, rep.q) == (0, 1)
    assert rep.residual <= 1e-12


def test_stormer_mixed_blocks_match_known_projection():
    """[Id, Transpose, Id] conjugated by Haar w: the central projection must
    be w (I_2 + 0_2 + I_2) w* with multiplicities (2, 1)."""
    w = haar_unitary(6, 31)
    psi = direct_sum_embedding([BlockKind.ID, BlockKind.TRANSPOSE, BlockKind.ID], w)
    rep = stormer_split(psi)
    assert (rep.p, rep.q) == (2, 1)
    assert np.trace(rep.e).real == pytest.approx(4.0, abs=1e-9)
    known = w @ np.diag([1, 1, 0, 0, 1, 1.0]).astype(complex) @ w.conj().T
    assert operator_norm(rep.e - known) <= 1e-8
    assert rep.residual <= 1e-8


def test_stormer_projection_invariants():
    w = haar_unitary(4, 13)
    psi = direct_sum_embedding([BlockKind.TRANSPOSE, BlockKind.ID], w)
    rep = stormer_split(psi)
    e = rep.e
    assert operator_norm(e - e.conj().T) <= 1e-10
    assert operator_norm(e @ e - e) <= 1e-10
    assert (rep.p, rep.q) == (1, 1)
    # centrality against every image, not just the certified max
    for i in range(2):
        for j in range(2):
            f = apply(psi, matrix_unit(2, i, j))
            assert operator_norm(e @ f - f @ e) <= 1e-9


def test_stormer_rejects_non_jordan():
    with pytest.raises(ValueError):
        stormer_split(trace_pinch_map(2))


def test_stormer_rejects_non_unital():
    # A -> diag(A, 0) is a Jordan *-homomorphism but not unital
    j = np.vstack([np.eye(2), np.zeros((2, 2))]).astype(complex)
    psi = from_left_right(j, j.conj().T)
    assert jordan_check(psi).is_jordan
    with pytest.raises(ValueError):
        stormer_split(psi)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_herstein_dichotomy_for_endomorphisms(n):
    """Unital Jordan maps of M_n onto itself admit no proper central
    projection: E is 0 or I, never anything between."""
    for k in range(20):
        u = haar_unitary(n, 100 * n + k)
        psi = from_left_right(u, u.conj().T)
        if k % 2:
            psi = compose(psi, transpose_map(n))
        rep = stormer_split(psi)
        assert min(operator_norm(rep.e), operator_norm(rep.e - np.eye(n))) <= 1e-8
        assert (rep.p, rep.q) == ((0, 1) if k % 2 else (1, 0))


def _block_embedding(n, p, q, seed):
    kinds = [BlockKind.ID] * p + [BlockKind.TRANSPOSE] * q
    return direct_sum_embedding(kinds, haar_unitary((p + q) * n, seed))


@pytest.mark.parametrize("abs_tol", [1e-12, 1e-8, 1e-4, 0.5])
@pytest.mark.parametrize("n,p,q", [(2, 1, 1), (3, 2, 1), (2, 0, 3)])
def test_multiplicities_do_not_depend_on_the_tolerance(n, p, q, abs_tol):
    """E is read off the images, so no tolerance, however loose, can change
    the multiplicities of an exact block embedding."""
    phi = _block_embedding(n, p, q, 10 * n + p)
    tol = Tolerance(abs_tol)
    split = stormer_split(phi, tol)
    assert (split.p, split.q) == (p, q)
    jordan = classify_preserver(phi, tol).jordan
    assert (jordan.p, jordan.q) == (p, q)


def test_scalar_source_splits_as_the_identity():
    """A -> A W from M_1 to M_3: psi = W* phi is a -> a I, so E = I and the
    image is three hom blocks."""
    w = haar_unitary(3, 71)
    phi = SuperOperator(1, 3, w.reshape(-1, 1, order="F"))
    jordan = classify_preserver(phi).jordan
    assert operator_norm(jordan.e - np.eye(3)) <= 1e-12
    assert (jordan.p, jordan.q) == (3, 0)
    assert jordan.residual <= 1e-12


def _permuted_block_embedding(n, p, q, seed):
    """p identity and q transpose blocks in a seeded order, conjugated by Haar w."""
    rng = np.random.default_rng(seed)
    kinds = [BlockKind.ID] * p + [BlockKind.TRANSPOSE] * q
    kinds = [kinds[k] for k in rng.permutation(p + q)]
    return direct_sum_embedding(kinds, haar_unitary((p + q) * n, seed))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize(
    "p,q", [(p, q) for p in range(4) for q in range(4) if (p, q) != (0, 0)]
)
def test_split_recovers_permuted_blocks_exactly(n, p, q):
    """Any order of the blocks gives the exact multiplicities, and W rebuilds
    the map to rounding.  At n = 1 a transpose block is an identity block."""
    psi = _permuted_block_embedding(n, p, q, 1000 * n + 10 * p + q)
    split = stormer_split(psi)
    assert (split.p, split.q) == ((p, q) if n > 1 else (p + q, 0))
    assert split.residual <= 1e-13
    assert unitarity_defect(split.w) <= 1e-13


def test_split_rejects_a_half_symmetrized_block():
    """A -> U (A + (A + A^tr)/2) U* (a direct sum) is unital and
    self-adjoint, and its read-off ranks fit (p = q = 1), but it is no
    Jordan map: the rebuilt candidate misses it by at least 1/2."""
    n = 2
    u = haar_unitary(2 * n, 79)
    # A + A and A + A^tr averaged: A + (A + A^tr)/2
    blocks = direct_sum_embedding([BlockKind.ID, BlockKind.ID], u).matrix
    mixed = direct_sum_embedding([BlockKind.ID, BlockKind.TRANSPOSE], u).matrix
    psi = SuperOperator(n, 2 * n, (blocks + mixed) / 2)
    jordan = classify_preserver(psi).jordan
    assert (jordan.p, jordan.q) == (-1, -1)
    assert jordan.w is None and jordan.e is None
    assert jordan.residual >= 0.5
    with pytest.raises(ValueError, match="residual"):
        stormer_split(psi)


def test_rectangular_classify_memory_stays_near_the_input():
    """No n^4 m^2 array is built (one would be n^2 = 64 times the input):
    at (n, p, q) = (8, 2, 2), m = 32, the traced peak of a rectangular
    classify stays within 6 times the bytes of the input matrix."""
    n, p, q = 8, 2, 2
    phi = _block_embedding(n, p, q, 73)
    tracemalloc.start()
    try:
        cert = classify_preserver(phi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (cert.jordan.p, cert.jordan.q) == (p, q)
    assert peak <= 6 * phi.matrix.nbytes


# ------------------------------------------------------ unitary recovery


def test_recover_identity():
    w = recover_conjugating_unitary(identity_map(4), MapKind.HOM)
    assert np.allclose(w, np.eye(4), atol=1e-12)


def same_up_to_phase(w, u, atol=1e-10):
    """w = c u for some |c| = 1."""
    c = np.vdot(u[:, 0], w[:, 0])
    return abs(abs(c) - 1) <= atol and operator_norm(w - c * u) <= atol


@pytest.mark.parametrize(
    "seed,unital",
    [(3, True), (14, True), (15, True), (16, False), (17, False)],
    ids=["3", "14", "15", "nonunital-16", "nonunital-17"],
)
def test_recover_hom_conjugation_map_level(seed, unital):
    """Recovery is only unique up to a global phase, so compare at the map
    level where the phase cancels; for A -> U A V it returns U up to phase."""
    n = 5
    w0 = haar_unitary(n, seed)
    v0 = w0.conj().T if unital else haar_unitary(n, seed + 100)
    psi = from_left_right(w0, v0)
    w = recover_conjugating_unitary(psi, MapKind.HOM)
    assert unitarity_defect(w) <= 1e-10
    assert same_up_to_phase(w, w0)
    if unital:
        rebuilt = from_left_right(w, w.conj().T)
        assert operator_norm(rebuilt.matrix - psi.matrix) <= 1e-10


def test_recover_anti_conjugation():
    """Unital A -> w A^tr w*, and A -> U A^tr V for which U comes back up to phase."""
    n = 4
    w0 = haar_unitary(n, 8)
    psi = compose(from_left_right(w0, w0.conj().T), transpose_map(n))
    w = recover_conjugating_unitary(psi, MapKind.ANTI)
    rebuilt = compose(from_left_right(w, w.conj().T), transpose_map(n))
    assert operator_norm(rebuilt.matrix - psi.matrix) <= 1e-10
    phi = compose(from_left_right(w0, haar_unitary(n, 9)), transpose_map(n))
    assert same_up_to_phase(recover_conjugating_unitary(phi, MapKind.ANTI), w0)


def test_recover_gauge_first_entry_real_positive():
    for seed in range(5):
        w = recover_conjugating_unitary(
            from_left_right(haar_unitary(3, seed), haar_unitary(3, seed).conj().T),
            MapKind.HOM,
        )
        col = w[:, 0]
        lead = next(i for i in range(3) if abs(col[i]) > 1e-8)
        assert col[lead].imag == pytest.approx(0.0, abs=1e-12)
        assert col[lead].real > 0


def test_recover_rejects_degenerate_input():
    zero = SuperOperator(2, 2, np.zeros((4, 4)))
    with pytest.raises(ValueError):
        recover_conjugating_unitary(zero, MapKind.HOM)
    with pytest.raises(ValueError):
        recover_conjugating_unitary(SuperOperator(2, 3, np.zeros((9, 4))), MapKind.HOM)
    with pytest.raises(ValueError):
        recover_conjugating_unitary(identity_map(2), MapKind.NONE)


# ------------------------------------------------- structural invariants


def _mixed_embedding(seed):
    w = haar_unitary(6, seed)
    return direct_sum_embedding([BlockKind.ID, BlockKind.TRANSPOSE, BlockKind.ID], w)


def test_jordan_maps_preserve_positivity():
    psi = _mixed_embedding(41)
    rng = np.random.default_rng(5)
    for _ in range(25):
        g = complex_gaussian(2, 2, rng)
        image = apply(psi, g @ g.conj().T)
        assert np.linalg.eigvalsh(hermitian_part(image)).min() >= -1e-10


def test_jordan_maps_preserve_orthogonality():
    psi = _mixed_embedding(43)
    rng = np.random.default_rng(6)
    for _ in range(25):
        h = hermitian_part(complex_gaussian(2, 2, rng))
        _, vecs = np.linalg.eigh(h)
        p1 = np.outer(vecs[:, 0], vecs[:, 0].conj())
        p2 = np.outer(vecs[:, 1], vecs[:, 1].conj())
        assert operator_norm(apply(psi, p1) @ apply(psi, p2)) <= 1e-10


def test_jordan_maps_are_contractive():
    psi = _mixed_embedding(47)
    assert map_norm_lower_bound(psi, samples=200, seed=3) <= 1 + 1e-10


def test_jordan_images_of_unitaries_satisfy_two_sided_identity():
    """psi(U)* psi(U) + psi(U) psi(U)* = 2I for every unitary U."""
    psi = _mixed_embedding(53)
    eye2 = 2 * np.eye(6)
    for k in range(25):
        u = haar_unitary(2, 500 + k)
        pu = apply(psi, u)
        assert operator_norm(pu.conj().T @ pu + pu @ pu.conj().T - eye2) <= 1e-10
