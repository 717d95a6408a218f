"""Vectorization and superoperator algebra, checked against entrywise
oracles: the Kronecker identity is verified coefficient by coefficient and
every builder is compared with the explicit matrix formula it encodes."""

import tracemalloc

import numpy as np
import pytest

from unitball.jordan import jordan_check
from unitball.linalg import complex_gaussian, haar_unitary, hermitian_part, matrix_unit, operator_norm
from unitball.superop import (
    BlockKind,
    SuperOperator,
    apply,
    compose,
    direct_sum_embedding,
    from_left_right,
    identity_map,
    left_multiplier,
    transpose_map,
    vec,
)

from map_norm import map_norm_lower_bound


def rand(rng, rows, cols):
    return complex_gaussian(rows, cols, rng)


# ------------------------------------------------------------------- vec


def test_vec_is_column_stacking():
    a = np.array([[1, 2], [3, 4]], dtype=complex)
    assert np.array_equal(vec(a), np.array([1, 3, 2, 4], dtype=complex))


# ----------------------------------------------------------- constructor


def test_superoperator_shape_is_validated():
    with pytest.raises(ValueError):
        SuperOperator(2, 2, np.zeros((4, 3)))
    with pytest.raises(ValueError):
        SuperOperator(0, 2, np.zeros((4, 0)))


def test_superoperator_matrix_is_frozen():
    phi = identity_map(2)
    with pytest.raises(ValueError):
        phi.matrix[0, 0] = 5.0


def test_superoperator_takes_ownership_of_its_array():
    """A complex128 array is kept, not copied, and frozen in the caller's
    hands too; an array of another dtype is converted and left alone."""
    a = complex_gaussian(9, 4, np.random.default_rng(3))
    phi = SuperOperator(2, 3, a)
    assert np.shares_memory(phi.matrix, a)
    assert not a.flags.writeable
    real = np.eye(4)
    converted = SuperOperator(2, 2, real).matrix
    assert not np.shares_memory(converted, real)
    assert real.flags.writeable and not converted.flags.writeable


def test_images_of_matrix_units_match_apply():
    rng = np.random.default_rng(4)
    phi = SuperOperator(2, 3, rand(rng, 9, 4))
    images = phi.images_of_matrix_units()
    for i in range(2):
        for j in range(2):
            assert np.allclose(images[i, j], apply(phi, matrix_unit(2, i, j)), atol=1e-14)


# ------------------------------------------------------------- builders


def test_identity_map_acts_trivially():
    rng = np.random.default_rng(2)
    a = rand(rng, 3, 3)
    assert np.allclose(apply(identity_map(3), a), a, atol=1e-14)


def test_apply_rejects_wrong_input_size():
    with pytest.raises(ValueError):
        apply(identity_map(3), np.eye(2))


@pytest.mark.parametrize("k, n, m", [(6, 1, 1), (5, 3, 3), (4, 2, 3), (3, 3, 2), (1, 4, 4)])
def test_apply_to_a_stack_matches_each_matrix(k, n, m):
    rng = np.random.default_rng(10 * n + m)
    phi = SuperOperator(n, m, rand(rng, m * m, n * n))
    stack = np.array([rand(rng, n, n) for _ in range(k)])
    images = apply(phi, stack)
    assert images.shape == (k, m, m)
    singles = [apply(phi, a) for a in stack]
    assert all(x.shape == (m, m) for x in singles)
    assert images.tobytes() == np.array(singles).tobytes()
    for x, a in zip(singles, stack):
        assert np.allclose(vec(x), phi.matrix @ vec(a), rtol=0, atol=1e-13)


def test_apply_checks_a_stack_like_a_matrix():
    phi = identity_map(2)
    stack = np.zeros((3, 2, 2), dtype=complex)
    stack[2, 1, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        apply(phi, stack)
    with pytest.raises(ValueError, match="non-finite"):
        apply(phi, stack[2])
    for bad in (np.zeros((3, 3, 3)), np.zeros((3, 2, 3)), np.zeros((2, 2, 2, 2)), np.zeros(4)):
        with pytest.raises(ValueError):
            apply(phi, bad)


def test_from_left_right_identity_pair():
    phi = from_left_right(np.eye(3), np.eye(3))
    assert np.array_equal(phi.matrix, np.eye(9))


def test_from_left_right_unital_pair():
    u = haar_unitary(4, 17)
    phi = from_left_right(u, u.conj().T)
    assert np.allclose(apply(phi, np.eye(4)), np.eye(4), atol=1e-13)


@pytest.mark.parametrize("seed", range(10))
def test_from_left_right_kronecker_identity(seed):
    """matrix @ vec(A) == vec(uAv), for square and rectangular factors."""
    rng = np.random.default_rng(seed)
    m, n = (3, 2) if seed % 2 else (2, 4)
    u = rand(rng, m, n)
    v = rand(rng, n, m)
    phi = from_left_right(u, v)
    for _ in range(10):
        a = rand(rng, n, n)
        assert np.allclose(phi.matrix @ vec(a), vec(u @ a @ v), atol=1e-12)


def test_from_left_right_entry_formula():
    """Coefficient oracle: matrix[r + c*m, i + j*n] must be u[r,i] * v[j,c]."""
    rng = np.random.default_rng(33)
    m, n = 2, 3
    u = rand(rng, m, n)
    v = rand(rng, n, m)
    phi = from_left_right(u, v)
    for r in range(m):
        for c in range(m):
            for i in range(n):
                for j in range(n):
                    assert phi.matrix[r + c * m, i + j * n] == pytest.approx(
                        u[r, i] * v[j, c], abs=1e-15
                    )


def test_from_left_right_shape_mismatch():
    with pytest.raises(ValueError):
        from_left_right(np.zeros((2, 3)), np.zeros((2, 3)))


def test_transpose_map_on_matrix_unit():
    assert np.allclose(apply(transpose_map(2), matrix_unit(2, 0, 1)), matrix_unit(2, 1, 0))


def test_transpose_map_fixes_symmetric():
    rng = np.random.default_rng(3)
    a = rand(rng, 3, 3)
    sym = a + a.T
    assert np.allclose(apply(transpose_map(3), sym), sym, atol=1e-14)


def test_transpose_map_is_an_involution():
    t = transpose_map(3)
    assert np.allclose(compose(t, t).matrix, np.eye(9), atol=1e-15)


def test_transpose_map_is_a_permutation_matrix():
    k = transpose_map(4).matrix
    assert np.array_equal(np.unique(k), np.array([0, 1], dtype=complex))
    assert np.array_equal(k.sum(axis=0), np.ones(16, dtype=complex))
    assert np.array_equal(k.sum(axis=1), np.ones(16, dtype=complex))


# -------------------------------------------------------------- compose


def test_compose_left_right_factors():
    u = haar_unitary(3, 5)
    v = haar_unitary(3, 6)
    eye = np.eye(3)
    combined = compose(from_left_right(u, eye), from_left_right(eye, v))
    assert np.allclose(combined.matrix, from_left_right(u, v).matrix, atol=1e-14)


def test_compose_pointwise_agreement_rectangular():
    rng = np.random.default_rng(8)
    g = SuperOperator(2, 3, rand(rng, 9, 4))
    f = SuperOperator(3, 2, rand(rng, 4, 9))
    fg = compose(f, g)
    assert (fg.dim_in, fg.dim_out) == (2, 2)
    for _ in range(20):
        a = rand(rng, 2, 2)
        assert np.allclose(apply(fg, a), apply(f, apply(g, a)), atol=1e-12)


def test_compose_dimension_mismatch():
    with pytest.raises(ValueError):
        compose(identity_map(2), identity_map(3))


def test_left_multiplier_identity_is_noop():
    rng = np.random.default_rng(9)
    phi = SuperOperator(2, 2, rand(rng, 4, 4))
    assert np.allclose(left_multiplier(np.eye(2), phi).matrix, phi.matrix, atol=1e-15)


def test_left_multiplier_cancels_unitary():
    v = haar_unitary(3, 11)
    phi = from_left_right(v, np.eye(3))
    assert np.allclose(left_multiplier(v.conj().T, phi).matrix, np.eye(9), atol=1e-13)


def test_left_multiplier_random_agreement():
    rng = np.random.default_rng(10)
    phi = SuperOperator(2, 3, rand(rng, 9, 4))
    v = rand(rng, 3, 3)
    out = left_multiplier(v, phi)
    a = rand(rng, 2, 2)
    assert np.allclose(apply(out, a), v @ apply(phi, a), atol=1e-12)


# ------------------------------------------------------ direct sums


def test_direct_sum_single_identity_block_is_identity():
    phi = direct_sum_embedding([BlockKind.ID], np.eye(2))
    assert np.allclose(phi.matrix, np.eye(4), atol=1e-15)


def test_direct_sum_block_structure():
    """[Id, Transpose] with trivial conjugator sends E_12 to E_12 + E_43
    (the transpose block holds E_21 shifted by the block offset)."""
    phi = direct_sum_embedding([BlockKind.ID, BlockKind.TRANSPOSE], np.eye(4))
    out = apply(phi, matrix_unit(2, 0, 1))
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 1] = 1  # identity block: E_12
    expected[3, 2] = 1  # transpose block: E_21 at offset 2
    assert np.allclose(out, expected, atol=1e-15)


def test_direct_sum_is_unital():
    w = haar_unitary(6, 19)
    phi = direct_sum_embedding([BlockKind.ID, BlockKind.TRANSPOSE, BlockKind.ID], w)
    assert np.allclose(apply(phi, np.eye(2)), np.eye(6), atol=1e-13)


def test_direct_sum_passes_jordan_check():
    w = haar_unitary(6, 23)
    phi = direct_sum_embedding([BlockKind.TRANSPOSE, BlockKind.ID], w)
    rep = jordan_check(phi)
    assert rep.is_jordan
    assert max(rep.r_square, rep.r_star, rep.r_unital) <= 1e-10


def _kronecker_embedding(kinds, w) -> np.ndarray:
    """The embedding as (w-bar kron w) times the 0/1 matrix that places E_ij
    in each diagonal block, transposed in a transpose block."""
    size = w.shape[0]
    n = size // len(kinds)
    block = np.zeros((size * size, n * n), dtype=complex)
    for b, kind in enumerate(kinds):
        for i in range(n):
            for j in range(n):
                r, c = (i, j) if kind is BlockKind.ID else (j, i)
                block[b * n + r + (b * n + c) * size, i + j * n] = 1.0
    return compose(from_left_right(w, w.conj().T), SuperOperator(n, size, block)).matrix


@pytest.mark.parametrize("kinds", [
    [BlockKind.ID, BlockKind.TRANSPOSE, BlockKind.ID],
    [BlockKind.TRANSPOSE, BlockKind.ID],
])
def test_direct_sum_matches_the_kronecker_construction(kinds):
    w = haar_unitary(3 * len(kinds), 31)
    phi = direct_sum_embedding(kinds, w)
    assert np.max(np.abs(phi.matrix - _kronecker_embedding(kinds, w))) <= 1e-14


def test_direct_sum_builds_no_kronecker_product():
    """At n = 12, p = q = 2 the m^4 Kronecker product w-bar kron w would be
    16 times the m^2 n^2 output; the traced peak stays under 4 outputs."""
    n, kinds = 12, [BlockKind.ID] * 2 + [BlockKind.TRANSPOSE] * 2
    w = haar_unitary(4 * n, 37)
    tracemalloc.start()
    try:
        phi = direct_sum_embedding(kinds, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * phi.matrix.nbytes


def test_direct_sum_square_identity_form():
    """Psi(S)* Psi(S) == Psi(S^2) for Hermitian S under a unital embedding."""
    rng = np.random.default_rng(14)
    w = haar_unitary(4, 29)
    phi = direct_sum_embedding([BlockKind.ID, BlockKind.TRANSPOSE], w)
    for _ in range(20):
        s = hermitian_part(rand(rng, 2, 2))
        lhs = apply(phi, s).conj().T @ apply(phi, s)
        assert operator_norm(lhs - apply(phi, s @ s)) < 1e-12


def test_direct_sum_rejects_bad_conjugator():
    with pytest.raises(ValueError):
        direct_sum_embedding([BlockKind.ID, BlockKind.ID], np.eye(3))  # 3 not divisible by 2
    with pytest.raises(ValueError):
        direct_sum_embedding([BlockKind.ID], 2 * np.eye(2))  # not unitary
    with pytest.raises(ValueError):
        direct_sum_embedding([], np.eye(2))


# ------------------------------------------------------------ map norm


def test_map_norm_identity():
    b = map_norm_lower_bound(identity_map(3), samples=16, seed=0)
    assert b == pytest.approx(1.0, abs=1e-12)


def test_map_norm_doubling_map():
    phi = from_left_right(2 * np.eye(2), np.eye(2))
    assert map_norm_lower_bound(phi, samples=4, seed=0) >= 2 - 1e-12


def test_map_norm_of_unitary_conjugation_stays_at_one():
    phi = from_left_right(haar_unitary(3, 1), haar_unitary(3, 2))
    b = map_norm_lower_bound(phi, samples=64, seed=5)
    assert b <= 1 + 1e-12
    assert b >= 1 - 1e-12  # attained at the identity input


def test_map_norm_needs_samples():
    with pytest.raises(ValueError):
        map_norm_lower_bound(identity_map(2), samples=0, seed=0)
