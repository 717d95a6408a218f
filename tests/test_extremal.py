"""Extreme-point tests: the residual fast path is checked against a plain
loop over basis elements, and every decomposition is re-verified by direct
reconstruction."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from unitball import extremal
from unitball.extremal import (
    ExtremeVerdict,
    IsometryClass,
    OutsideBallReport,
    StarAlgebraBasis,
    classify_isometry,
    contraction_mean_of_unitaries,
    kadison_extreme_test,
    selfadjoint_mean_of_unitaries,
)
from unitball.linalg import (
    DEFAULT_TOL,
    Band,
    Tolerance,
    complex_gaussian,
    haar_from_rng,
    haar_unitary,
    hermitian_part,
    matrix_unit,
    operator_norm,
    unitarity_defect,
)


def kadison_residual_by_loop(w, elements):
    """Independent oracle: the defining max over explicit triple products."""
    n = w.shape[0]
    dl = np.eye(n) - w.conj().T @ w
    dr = np.eye(n) - w @ w.conj().T
    return max(operator_norm(dl @ b @ dr) for b in elements)


def full_units(n):
    """The matrix units of M_n in the order of StarAlgebraBasis.full(n):
    E_ij at index i*n + j."""
    return [matrix_unit(n, i, j) for i in range(n) for j in range(n)]


def closure_failure_by_pairs(elements, tol=DEFAULT_TOL):
    """Independent oracle: the first closure property the span misses, in
    the order adjoints, products, identity, or None.  Each candidate is
    projected on its own onto the span of the column-stacked elements, with
    the orthonormal rows q of V^H from the SVD: P v = q^T (conj(q) v)."""
    n = elements[0].shape[0]
    teff = tol.effective(n, n)
    _, s, vh = np.linalg.svd(
        np.array([e.flatten(order="F") for e in elements]), full_matrices=False
    )
    q = vh[: int(np.count_nonzero(s > teff))]

    def outside(x):
        v = x.flatten(order="F")
        return np.linalg.norm(v - q.T @ (q.conj() @ v)) > teff

    if any(outside(e.conj().T) for e in elements):
        return "adjoints"
    if any(outside(a @ b) for a in elements for b in elements):
        return "products"
    if outside(np.eye(n)):
        return "identity"
    return None


_CLOSURE_MESSAGES = {
    "adjoints": "basis span is not closed under adjoints",
    "products": "basis span is not closed under products",
    "identity": "basis span does not contain the identity",
}


def closure_message_in_complex(elements, tol=DEFAULT_TOL):
    """Independent oracle: the closure check run in complex arithmetic on
    the complex128 stack, whatever the elements' imaginary parts; the
    message StarAlgebraBasis raises, or None."""
    elems = np.array(elements, dtype=np.complex128)
    k, n = elems.shape[:2]
    teff = tol.effective(n, n)
    _, s, vh = np.linalg.svd(elems.reshape(k, n * n), full_matrices=False)
    basis = vh[: int(np.count_nonzero(s > teff))]
    r = basis.shape[0]
    units = basis.reshape(r, n, n)

    def outside_span(rows):
        rows = rows - (rows @ basis.conj().T) @ basis
        return np.max(np.linalg.norm(rows, axis=1), initial=0.0) > teff

    if outside_span(units.conj().transpose(0, 2, 1).reshape(r, n * n)):
        return _CLOSURE_MESSAGES["adjoints"]
    stacked = units.reshape(r * n, n)
    if any(outside_span((stacked @ b).reshape(r, n * n)) for b in units):
        return _CLOSURE_MESSAGES["products"]
    if outside_span(np.eye(n, dtype=np.complex128).reshape(1, n * n)):
        return _CLOSURE_MESSAGES["identity"]
    return None


def block_units(blocks, u=None):
    """The matrix units of a block-diagonal algebra, conjugated by u if given."""
    n = sum(blocks)
    starts = np.cumsum((0,) + tuple(blocks))
    units = [
        matrix_unit(n, i, j)
        for lo, hi in zip(starts, starts[1:])
        for i in range(lo, hi)
        for j in range(lo, hi)
    ]
    return units if u is None else [u @ e @ u.conj().T for e in units]


def partial_isometry(n, rank, rng):
    u = haar_from_rng(n, rng)
    v = haar_from_rng(n, rng)
    mask = np.zeros(n)
    mask[:rank] = 1.0
    return (u * mask) @ v


# -------------------------------------------------------------- classify


def test_classify_identity_is_unitary():
    assert classify_isometry(np.eye(3)) is IsometryClass.UNITARY


def test_classify_tall_isometry():
    a = np.vstack([np.eye(2), np.zeros((1, 2))])
    assert classify_isometry(a) is IsometryClass.ISOMETRY
    assert classify_isometry(a.T) is IsometryClass.COISOMETRY


def test_classify_matrix_unit_is_partial_isometry():
    assert classify_isometry(matrix_unit(2, 0, 0)) is IsometryClass.PARTIAL_ISOMETRY


def test_classify_scaled_unit_is_none():
    assert classify_isometry(0.5 * matrix_unit(2, 0, 0)) is IsometryClass.NONE


def test_classify_haar_is_unitary():
    rng = np.random.default_rng(0)
    for n in (2, 5, 8):
        assert classify_isometry(haar_from_rng(n, rng)) is IsometryClass.UNITARY


# ----------------------------------------------------------- basis object


def test_full_basis_layout():
    """w = E_11 + E_23 in M_3 has the defects I - w*w = E_22 and
    I - ww* = E_33, so the one unit with a nonzero residual is E_23, which
    the full basis holds at index i*n + j = 5 (j*n + i would be 7)."""
    basis = StarAlgebraBasis.full(3)
    assert basis.n == 3 and basis.is_full and basis.elements is None
    rep = kadison_extreme_test(matrix_unit(3, 0, 0) + matrix_unit(3, 1, 2), basis)
    assert rep.witness_index == 5
    assert np.array_equal(full_units(3)[5], matrix_unit(3, 1, 2))


def test_full_basis_costs_no_memory():
    tracemalloc.start()
    try:
        StarAlgebraBasis.full(32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16  # the 1024 dense units would take 16 MiB


def test_diagonal_subalgebra_validates():
    basis = StarAlgebraBasis([matrix_unit(2, 0, 0), matrix_unit(2, 1, 1)])
    assert basis.n == 2 and not basis.is_full


def test_basis_rejects_span_without_identity():
    # span{E_11} is closed under adjoints and products, so only the identity fails
    with pytest.raises(ValueError, match="does not contain the identity"):
        StarAlgebraBasis([matrix_unit(2, 0, 0)])
    # elements below tol_eff span {0}: no orthonormal rows, and no identity
    with pytest.raises(ValueError, match="does not contain the identity"):
        StarAlgebraBasis([1e-9 * np.eye(2, dtype=complex)])


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("scale", [1e-20, 1e-10, 1e10, 1e20])
def test_basis_accepts_elements_of_any_relative_scale(n, scale):
    """{I, s J} with J the all-ones matrix spans a *-subalgebra (J^2 = n J)
    at every scale s; an element of norm at most tol_eff counts as zero,
    and {I} is closed too."""
    basis = StarAlgebraBasis([np.eye(n, dtype=complex), scale * np.ones((n, n), dtype=complex)])
    assert len(basis.elements) == 2


def test_basis_keeps_its_elements_at_unit_norm():
    """``elements`` holds each element over its Frobenius norm, also one
    whose norm overflows, and as zero one of norm at most tol_eff, so the
    stack keeps one row per element given."""
    n = 3
    ones = np.ones((n, n), dtype=complex)
    given = [2.0 * np.eye(n), np.full((n, n), 1.7e308 + 1.7e308j), 1e-9 * ones, np.zeros((n, n))]
    basis = StarAlgebraBasis(given)
    want = [np.eye(n) / math.sqrt(n), (1 + 1j) * ones / math.sqrt(2 * n * n), 0 * ones, 0 * ones]
    assert basis.elements.shape == (4, n, n)
    np.testing.assert_allclose(basis.elements, want, rtol=0, atol=1e-15)
    assert not basis.elements.flags.writeable


@pytest.mark.parametrize("scale", [1e-7, 1e20, 1e200, 1.7e308])
def test_basis_rejects_unclosed_span_at_any_scale(scale):
    """span{I, s E_12} misses E_21 at every scale above tol_eff, including
    scales whose Frobenius norm would overflow."""
    with pytest.raises(ValueError, match="not closed under adjoints"):
        StarAlgebraBasis([np.eye(2, dtype=complex), scale * (1 + 1j) * matrix_unit(2, 0, 1)])


def test_basis_rejects_span_not_closed_under_adjoint():
    # span{I, E_12} contains products (E_12^2 = 0) but not E_21
    with pytest.raises(ValueError):
        StarAlgebraBasis([np.eye(2, dtype=complex), matrix_unit(2, 0, 1)])


def test_basis_rejects_span_not_closed_under_products():
    # h is selfadjoint but h^2 = E_00 + E_11 lies outside span{I, h} in M_3
    h = matrix_unit(3, 0, 1) + matrix_unit(3, 1, 0)
    with pytest.raises(ValueError, match="not closed under products"):
        StarAlgebraBasis([np.eye(3, dtype=complex), h])


def test_basis_reports_adjoints_before_products():
    # the shift s = E_12 + E_23 in M_3: neither s* nor s^2 = E_13 is in span{I, s}
    s = matrix_unit(3, 0, 1) + matrix_unit(3, 1, 2)
    elements = [np.eye(3, dtype=complex), s]
    assert closure_failure_by_pairs(elements) == "adjoints"
    with pytest.raises(ValueError, match="not closed under adjoints"):
        StarAlgebraBasis(elements)


def test_basis_keeps_elements_as_one_stack():
    units = block_units((1, 2))
    basis = StarAlgebraBasis(units)
    assert basis.elements.shape == (5, 3, 3)
    assert all(np.array_equal(b, e) for b, e in zip(basis.elements, units))


@pytest.mark.parametrize("dtype", [np.complex128, np.float64])
def test_basis_owns_its_stack(dtype):
    """The basis copies the caller's (k, n, n) array: writing to that array
    afterwards leaves ``elements`` as it was, and ``elements`` is read-only."""
    stack = np.array(block_units((1, 2))).real.astype(dtype)
    before = stack.copy()
    basis = StarAlgebraBasis(stack)
    stack[:] = 7.0
    assert np.array_equal(basis.elements, before)
    assert basis.elements.dtype == np.complex128
    assert not basis.elements.flags.writeable


@pytest.mark.parametrize("elements, message", [
    ([], "got ndim=1"),
    (np.zeros((0, 2, 2)), "non-empty stack"),
    (np.eye(2), "non-empty stack"),
    (np.ones((2, 2, 3)), "square matrices"),
    ([[np.eye(2)]], "got ndim=4"),
    ([np.eye(2), np.array([[np.nan, 0.0], [0.0, 1.0]])], "non-finite"),
    ([np.eye(2), [["x", 0], [0, 1]]], None),  # numpy's own message
], ids=["empty-list", "empty-stack", "one-matrix", "non-square", "4-d", "nan", "text"])
def test_basis_rejects_what_is_no_stack_of_square_matrices(elements, message):
    with pytest.raises(ValueError, match=message):
        StarAlgebraBasis(elements)


def test_complex_commutative_subalgebra_validates():
    """span{U E_11 U*, U E_22 U*} is a *-subalgebra for any unitary U; its
    complex conjugate span is a different one, so a projection onto the
    conjugate span would call it not closed under adjoints."""
    u = haar_unitary(2, 3)
    elements = [u @ matrix_unit(2, i, i) @ u.conj().T for i in range(2)]
    assert closure_failure_by_pairs(elements) is None
    basis = StarAlgebraBasis(elements)
    assert basis.n == 2 and not basis.is_full


def test_complex_basis_not_closed_is_rejected():
    # U span{I, E_12} U*: closed under products, not under adjoints
    u = haar_unitary(2, 4)
    elements = [np.eye(2, dtype=complex), u @ matrix_unit(2, 0, 1) @ u.conj().T]
    assert closure_failure_by_pairs(elements) == "adjoints"
    with pytest.raises(ValueError, match="not closed under adjoints"):
        StarAlgebraBasis(elements)


@st.composite
def rotated_block_algebras(draw):
    """(blocks, U) with block sizes summing to at most 8 and a Haar U."""
    blocks = draw(
        st.lists(st.integers(1, 4), min_size=1, max_size=4).filter(lambda b: sum(b) <= 8)
    )
    return tuple(blocks), haar_unitary(sum(blocks), draw(st.integers(0, 2**31 - 1)))


@given(
    rotated_block_algebras(),
    st.integers(0, 63),
    st.floats(10.0, 1e4),
    st.integers(0, 2**31 - 1),
)
@settings(max_examples=60, deadline=None)
def test_rotated_block_algebra_closure_property(algebra, index, factor, seed):
    """U (block units) U* spans a *-subalgebra and is accepted.  Moving one
    element by factor * tol_eff along a unit direction orthogonal to the
    span breaks closure and is rejected.  The pair-by-pair oracle agrees."""
    blocks, u = algebra
    elements = block_units(blocks, u)
    n, k = u.shape[0], len(elements)
    assert closure_failure_by_pairs(elements) is None
    StarAlgebraBasis(elements)

    assume(k < n * n)
    rows = np.array([e.flatten(order="F") for e in elements])
    g = complex_gaussian(n * n, 1, np.random.default_rng(seed))[:, 0]
    # the elements are orthonormal in the Frobenius inner product
    g -= rows.T @ (rows.conj() @ g)
    d = (g / np.linalg.norm(g)).reshape(n, n, order="F")
    moved = list(elements)
    moved[index % k] = moved[index % k] + factor * DEFAULT_TOL.effective(n, n) * d
    assert closure_failure_by_pairs(moved) is not None
    with pytest.raises(ValueError, match="basis span"):
        StarAlgebraBasis(moved)


@given(
    st.lists(st.integers(1, 4), min_size=1, max_size=4).filter(lambda b: sum(b) <= 8),
    st.integers(0, 63),
    st.floats(10.0, 1e4),
    st.booleans(),
    st.integers(0, 2**31 - 1),
)
@settings(max_examples=60, deadline=None)
def test_block_algebra_closure_property(blocks, index, factor, real, seed):
    """The unrotated block units, whose products are mostly exactly zero and
    so are not projected, span a *-subalgebra and are accepted.  Moving one
    element by factor * tol_eff along a unit direction (real or complex)
    orthogonal to the span gets them rejected, with the message of the
    first property the pair-by-pair oracle finds missing."""
    elements = block_units(blocks)
    n, k = sum(blocks), len(elements)
    assert closure_failure_by_pairs(elements) is None
    assert closure_message(elements) is None

    assume(k < n * n)
    rng = np.random.default_rng(seed)
    g = rng.standard_normal(n * n) if real else complex_gaussian(n * n, 1, rng)[:, 0]
    # the units are the standard basis vectors of their positions
    g[[i * n + j for i, j in (np.argwhere(e)[0] for e in elements)]] = 0.0
    d = (g / np.linalg.norm(g)).reshape(n, n)
    moved = list(elements)
    moved[index % k] = moved[index % k] + factor * DEFAULT_TOL.effective(n, n) * d
    failure = closure_failure_by_pairs(moved)
    assert failure is not None
    assert closure_message(moved) == _CLOSURE_MESSAGES[failure]


def projected_product_rows(elements, monkeypatch):
    """The rows StarAlgebraBasis(elements) projects, as (adjoint rows,
    product rows per right factor, identity rows), read off the residual
    blocks handed to np.linalg.norm after the first call, which takes the
    norms of the elements themselves."""
    rows = []
    norm = np.linalg.norm

    def counted(a, *args, **kwargs):
        rows.append(len(a))
        return norm(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counted)
    StarAlgebraBasis(elements)
    monkeypatch.setattr(np.linalg, "norm", norm)
    return rows[1], rows[2:-1], rows[-1]


def test_closure_projects_only_nonzero_products(monkeypatch):
    """For the (3, 5, 8) block units (r = 98) the closure check projects the
    98 adjoints, one block of products per right factor and the identity.
    Of the r^2 = 9,604 products E_ij E_kl only those with j = k are nonzero,
    sum(b^3) = 664 of them; rotated by a unitary, every product is dense
    and all 9,604 are projected."""
    units = block_units((3, 5, 8))
    adjoints, products, identity = projected_product_rows(units, monkeypatch)
    assert (adjoints, len(products), sum(products), identity) == (98, 98, 664, 1)
    rotated = block_units((3, 5, 8), haar_unitary(16, 7))
    adjoints, products, identity = projected_product_rows(rotated, monkeypatch)
    assert (adjoints, len(products), sum(products), identity) == (98, 98, 98 * 98, 1)


def test_basis_memory_stays_near_the_element_stack():
    """Checking the (3, 5, 8) block units (k = 98, n = 16) holds a few
    k x n^2 blocks at once, not k^2 products."""
    units = block_units((3, 5, 8))
    k, n = len(units), 16
    tracemalloc.start()
    try:
        StarAlgebraBasis(units)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 * k * n * n * 16


def test_basis_rejects_mixed_shapes():
    with pytest.raises(ValueError):
        StarAlgebraBasis([np.eye(2, dtype=complex), np.eye(3, dtype=complex)])


@pytest.mark.parametrize("scale", [1.0, 1e-3, 1e-5])
def test_basis_closure_does_not_depend_on_element_scale(scale):
    """span{I, sx, sz} misses sx sz = -i sy.  Products of the elements
    themselves shrink with their scale below tol_eff; products of an
    orthonormal basis of the span do not."""
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sz = np.diag([1.0, -1.0]).astype(complex)
    elements = [np.eye(2, dtype=complex), scale * sx, scale * sz]
    assert closure_failure_by_pairs([np.eye(2), sx, sz]) == "products"
    with pytest.raises(ValueError, match="not closed under products"):
        StarAlgebraBasis(elements)


def test_basis_accepts_each_unit_listed_twice():
    """k = 2r elements spanning the (1, 2, 3) block algebra: the check runs
    on the r-dimensional span, and the elements are kept as given."""
    units = block_units((1, 2, 3))
    basis = StarAlgebraBasis(units + [2.0 * e for e in units])
    assert basis.elements.shape == (2 * len(units), 6, 6)
    rep = kadison_extreme_test(np.eye(6), basis)
    assert rep.verdict is ExtremeVerdict.EXTREME


def test_real_basis_of_size_one_is_accepted():
    """At n = 1 the adjoint rows of a real basis would be a view of it; the
    check must not overwrite the basis through them."""
    one = np.ones((1, 1), dtype=complex)
    for elements in ([one], [one, one]):
        basis = StarAlgebraBasis(elements)
        assert basis.elements.shape == (len(elements), 1, 1)
        assert kadison_extreme_test(one, basis).verdict is ExtremeVerdict.EXTREME


@st.composite
def real_rotated_block_algebras(draw):
    """(blocks, Q) with block sizes summing to at most 8 and a real
    orthogonal Q."""
    blocks = draw(
        st.lists(st.integers(1, 4), min_size=1, max_size=4).filter(lambda b: sum(b) <= 8)
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    q, _ = np.linalg.qr(rng.standard_normal((sum(blocks), sum(blocks))))
    return tuple(blocks), q


def closure_message(elements):
    try:
        StarAlgebraBasis(elements)
    except ValueError as exc:
        return str(exc)
    return None


@given(
    real_rotated_block_algebras(),
    st.integers(0, 63),
    st.floats(10.0, 1e4),
    st.integers(0, 2**31 - 1),
)
@settings(max_examples=60, deadline=None)
def test_real_basis_closure_matches_complex_arithmetic(algebra, index, factor, seed):
    """Q (block units) Q^T spans a *-subalgebra with real elements, checked
    in real arithmetic.  It is accepted, and moving one element by
    factor * tol_eff along a real unit direction orthogonal to the span
    gets it rejected.  Either way the outcome and message equal the
    complex-arithmetic check and the pair-by-pair oracle."""
    blocks, q = algebra
    elements = block_units(blocks, q)
    n, k = q.shape[0], len(elements)
    assert not np.array(elements).imag.any()
    assert closure_message(elements) is None
    assert closure_message_in_complex(elements) is None
    assert closure_failure_by_pairs(elements) is None

    assume(k < n * n)
    rows = np.array([e.real.flatten() for e in elements])
    g = np.random.default_rng(seed).standard_normal(n * n)
    # the elements are orthonormal in the Frobenius inner product
    g -= rows.T @ (rows @ g)
    d = (g / np.linalg.norm(g)).reshape(n, n)
    moved = list(elements)
    moved[index % k] = moved[index % k] + factor * DEFAULT_TOL.effective(n, n) * d
    message = closure_message(moved)
    assert message is not None
    assert message == closure_message_in_complex(moved)
    assert message == _CLOSURE_MESSAGES[closure_failure_by_pairs(moved)]


def test_basis_is_checked_in_real_arithmetic_only_when_real(monkeypatch):
    """The closure SVD sees float64 exactly when no element has a nonzero
    imaginary part; the elements are kept as complex128 either way."""
    dtypes = []
    svd = np.linalg.svd

    def spied(a, *args, **kwargs):
        dtypes.append(a.dtype)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spied)
    units = block_units((1, 2, 3))
    tiny = [e.copy() for e in units]
    tiny[4][1, 2] += 1e-300j
    for elements, dtype in (
        (units, np.float64),
        ([1j * e for e in units], np.complex128),
        (tiny, np.complex128),
    ):
        dtypes.clear()
        basis = StarAlgebraBasis(elements)
        assert dtypes == [dtype]
        assert basis.elements.dtype == np.complex128


def test_real_basis_memory_stays_within_five_complex_stacks():
    """The real check of the (3, 5, 8) block units holds float64 blocks:
    its peak stays within 5 complex k x n^2 stacks."""
    units = block_units((3, 5, 8))
    k, n = len(units), 16
    tracemalloc.start()
    try:
        StarAlgebraBasis(units)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * k * n * n * 16


# ------------------------------------------------------------- kadison


def test_haar_unitary_is_extreme():
    rep = kadison_extreme_test(haar_unitary(4, 21), StarAlgebraBasis.full(4))
    assert rep.verdict is ExtremeVerdict.EXTREME
    assert rep.is_partial_isometry
    assert rep.kadison_residual <= 1e-12
    assert rep.margin <= 0
    assert rep.witness_index is None
    assert rep.defect_left <= 1e-12 and rep.defect_right <= 1e-12


def test_matrix_unit_not_extreme_with_unit_residual():
    """E_11 in M_2: both defect projections are E_22, so the residual is
    exactly ||E_22 E_22 E_22|| = 1, witnessed by the basis element E_22."""
    basis = StarAlgebraBasis.full(2)
    rep = kadison_extreme_test(matrix_unit(2, 0, 0), basis)
    assert rep.verdict is ExtremeVerdict.NOT_EXTREME
    assert rep.is_partial_isometry
    assert rep.kadison_residual == pytest.approx(1.0, abs=1e-14)
    assert rep.witness_index == 3
    assert np.array_equal(full_units(2)[rep.witness_index], matrix_unit(2, 1, 1))


def test_witness_is_honest():
    basis = StarAlgebraBasis.full(3)
    w = matrix_unit(3, 0, 0)
    rep = kadison_extreme_test(w, basis)
    b = full_units(3)[rep.witness_index]
    dl = np.eye(3) - w.conj().T @ w
    dr = np.eye(3) - w @ w.conj().T
    assert operator_norm(dl @ b @ dr) == pytest.approx(rep.kadison_residual, abs=1e-13)
    assert rep.kadison_residual > DEFAULT_TOL.effective(3, 3)


def test_projection_not_extreme_in_diagonal_subalgebra():
    basis = StarAlgebraBasis([matrix_unit(2, 0, 0), matrix_unit(2, 1, 1)])
    rep = kadison_extreme_test(np.diag([1.0, 0.0]).astype(complex), basis)
    assert rep.verdict is ExtremeVerdict.NOT_EXTREME
    assert rep.kadison_residual == pytest.approx(1.0, abs=1e-14)
    assert rep.witness_index == 1  # the E_22 element


@pytest.mark.parametrize("seed", range(6))
def test_fast_path_matches_loop_oracle(seed):
    """The rank-one norm factorization used for the full basis must agree
    with the defining max over explicit triple products."""
    rng = np.random.default_rng(seed)
    n = 4
    if seed % 2:
        w = partial_isometry(n, 2, rng)
    else:
        # a contraction: outside the ball no residual is formed
        g = complex_gaussian(n, n, rng)
        w = g / (2 * operator_norm(g))
    rep = kadison_extreme_test(w, StarAlgebraBasis.full(n))
    assert rep.kadison_residual == pytest.approx(
        kadison_residual_by_loop(w, full_units(n)), abs=1e-12
    )


def test_near_unitary_lands_in_inconclusive_band():
    """A defect a few times the tolerance must not be silently promoted to
    either clean verdict."""
    u = haar_unitary(2, 3)
    w = u @ np.diag([1.0, 1.0 - 5e-8])
    rep = kadison_extreme_test(w, StarAlgebraBasis.full(2))
    assert rep.verdict is ExtremeVerdict.INCONCLUSIVE
    assert rep.margin > 0


def test_subalgebra_residual_matches_loop_oracle():
    """The stacked residual over a basis file equals the per-element max,
    and the witness is an element that attains it."""
    rng = np.random.default_rng(5)
    u = haar_from_rng(7, rng)
    basis = StarAlgebraBasis(block_units((2, 2, 3), u))
    parts = [haar_from_rng(2, rng), partial_isometry(2, 1, rng), haar_from_rng(3, rng)]
    w = np.zeros((7, 7), dtype=complex)
    for lo, part in zip((0, 2, 4), parts):
        w[lo:lo + len(part), lo:lo + len(part)] = part
    rep = kadison_extreme_test(u @ w @ u.conj().T, basis)
    assert rep.verdict is ExtremeVerdict.NOT_EXTREME
    oracle = kadison_residual_by_loop(u @ w @ u.conj().T, basis.elements)
    assert rep.kadison_residual == pytest.approx(oracle, abs=1e-12)
    assert 4 <= rep.witness_index < 8  # a unit of the deficient 2x2 block


@st.composite
def rescaled_block_algebras(draw):
    """(units, w, index, k, tol): the units of a block algebra, unrotated or
    conjugated by a Haar unitary U; w = U P U* with P a signed permutation
    within each block, one column of P possibly zero, so that the Kadison
    residual has at most one witness; the element to rescale by 10^k.  An
    element at or below tol_eff counts as zero, so the tolerance stays below
    10^k: a rotated basis is closed only to rounding and keeps the default
    tolerance with k >= -7, while matrix units and an unrotated P are exact
    and take k down to -150."""
    blocks = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    n = sum(blocks)
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    rotated = draw(st.booleans())
    p = np.zeros((n, n), dtype=complex)
    for lo, b in zip(np.cumsum((0,) + tuple(blocks)), blocks):
        p[lo:lo + b, lo:lo + b] = np.eye(b)[rng.permutation(b)] * rng.choice([-1.0, 1.0], b)
    if draw(st.booleans()):
        p[:, draw(st.integers(0, n - 1))] = 0.0
    u = haar_from_rng(n, rng) if rotated else np.eye(n)
    k = draw(st.integers(-7 if rotated else -150, 150))
    tol = Tolerance(min(1e-8, 10.0 ** (k - 3)))
    units = block_units(blocks, u if rotated else None)
    return units, u @ p @ u.conj().T, draw(st.integers(0, len(units) - 1)), k, tol


@given(rescaled_block_algebras())
@settings(max_examples=100, deadline=None)
def test_kadison_report_does_not_depend_on_element_scale(case):
    """Rescaling one element of a block algebra by 10^k leaves the verdict
    and the witness index as they were, and the Kadison residual equal to
    rounding: the residual is taken over the unit-norm elements."""
    units, w, index, k, tol = case
    rescaled = list(units)
    rescaled[index] = 10.0**k * units[index]
    rep = kadison_extreme_test(w, StarAlgebraBasis(units, tol), tol)
    got = kadison_extreme_test(w, StarAlgebraBasis(rescaled, tol), tol)
    assert got.verdict is rep.verdict
    assert got.witness_index == rep.witness_index
    assert got.kadison_residual == pytest.approx(rep.kadison_residual, rel=1e-12, abs=1e-15)


def test_kadison_refuses_a_matrix_outside_the_span():
    """The swap [[0, 1], [1, 0]] lies at Frobenius distance sqrt(2) from
    the diagonal algebra, so it is no element of its unit ball; over the
    full algebra, which needs no check, it is a unitary."""
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="lies 1.414e[+]00 from the algebra's span"):
        kadison_extreme_test(swap, StarAlgebraBasis([matrix_unit(2, 0, 0), matrix_unit(2, 1, 1)]))
    assert kadison_extreme_test(swap, StarAlgebraBasis.full(2)).verdict is ExtremeVerdict.EXTREME
    # a distance within tol_eff is rounding, not a miss
    near = np.diag([1.0, 0.0]) + 1e-9 * swap
    assert kadison_extreme_test(near, StarAlgebraBasis([matrix_unit(2, 0, 0), matrix_unit(2, 1, 1)])).witness_index == 1


def test_kadison_dimension_mismatch():
    with pytest.raises(ValueError):
        kadison_extreme_test(np.eye(2), StarAlgebraBasis.full(3))
    with pytest.raises(ValueError):
        kadison_extreme_test(np.zeros((2, 3)), StarAlgebraBasis.full(2))


def test_zero_matrix_is_not_extreme():
    rep = kadison_extreme_test(np.zeros((2, 2)), StarAlgebraBasis.full(2))
    assert rep.is_partial_isometry  # 0 is trivially a partial isometry
    assert rep.verdict is ExtremeVerdict.NOT_EXTREME
    assert rep.kadison_residual == pytest.approx(1.0, abs=1e-14)


# ------------------------------------------------ singular-value read-off


def direct_extreme_scores(w, tol=DEFAULT_TOL):
    """Independent oracle: the partial-isometry defect ||ww*w - w||, the
    distances of w*w and ww* to their nearest projections (eigenvalues
    rounded at 1/2 through eigh), and the verdict from the larger of the
    partial-isometry defect and the loop residual."""
    n = w.shape[0]

    def to_nearest_projection(h):
        lam, v = np.linalg.eigh(hermitian_part(h))
        return operator_norm(h - (v * (lam >= 0.5)) @ v.conj().T)

    wh = w.conj().T
    pi_defect = operator_norm(w @ wh @ w - w)
    score = max(pi_defect, kadison_residual_by_loop(w, full_units(n)))
    verdict = {
        Band.PASS: ExtremeVerdict.EXTREME,
        Band.INCONCLUSIVE: ExtremeVerdict.INCONCLUSIVE,
        Band.FAIL: ExtremeVerdict.NOT_EXTREME,
    }[tol.band(score, n, n)]
    return {
        "defect_left": to_nearest_projection(wh @ w),
        "defect_right": to_nearest_projection(w @ wh),
        "is_partial_isometry": pi_defect <= tol.effective(n, n),
        "margin": score - tol.effective(n, n),
        "verdict": verdict,
    }


def direct_isometry_class(a, tol=DEFAULT_TOL):
    """Independent oracle: the defects of classify_isometry as the norms of
    a*a - I, aa* - I and aa*a - a."""
    m, n = a.shape
    ah = a.conj().T
    left = operator_norm(ah @ a - np.eye(n)) <= tol.effective(n, n)
    right = operator_norm(a @ ah - np.eye(m)) <= tol.effective(m, m)
    if left and right:
        return IsometryClass.UNITARY
    if left:
        return IsometryClass.ISOMETRY
    if right:
        return IsometryClass.COISOMETRY
    if operator_norm(a @ ah @ a - a) <= tol.effective(m, n):
        return IsometryClass.PARTIAL_ISOMETRY
    return IsometryClass.NONE


def decision_point_values(teff):
    """Singular values where the read-off decides: exact 0 and 1, s^2 at
    1 -+ f tol_eff on both sides of the band edges tol_eff and 10 tol_eff,
    s^2 at 1/2 -+ 1e-12 where the nearest projection rounds, or anywhere in
    [1e-3, 1.2].  Small nonzero values are left out: s |s^2 - 1| would
    meet tol_eff at s = tol_eff, where a verdict hinges on the last bit."""
    edges = [math.sqrt(1 + sign * f * teff) for f in (0.5, 3, 20) for sign in (-1, 1)]
    halves = [math.sqrt(0.5 + d) for d in (-1e-12, 1e-12)]
    return st.sampled_from([0.0, 1.0, *edges, *halves]) | st.floats(1e-3, 1.2)


@st.composite
def svd_built_matrices(draw, square):
    """U diag(s) V* with Haar U, V and s drawn at the decision points.

    Shapes with m = 4n or n = 4m are left out: there 0.5 tol_eff(m, n)
    equals tol_eff(n, n) or tol_eff(m, m) exactly, so a class would hinge
    on the last bit of the rounding.
    """
    m = draw(st.integers(1, 5))
    if square:
        n = m
    else:
        n = draw(st.integers(1, 5).filter(lambda c: c != m and 4 * c != m and 4 * m != c))
    k = min(m, n)
    s = draw(st.lists(decision_point_values(DEFAULT_TOL.effective(m, n)), min_size=k, max_size=k))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    core = np.zeros((m, n))
    core[range(k), range(k)] = s
    return haar_from_rng(m, rng) @ core @ haar_from_rng(n, rng)


@given(svd_built_matrices(square=True))
@settings(max_examples=150, deadline=None)
def test_extreme_scores_match_direct_formulas(w):
    """A w whose norm fails the band above 1 gets the outside-ball report,
    with its norm and isometry class; every other w gets the scores."""
    n = w.shape[0]
    rep = kadison_extreme_test(w, StarAlgebraBasis.full(n))
    want = direct_extreme_scores(w)
    assert rep.verdict is want["verdict"]
    outside = DEFAULT_TOL.band(operator_norm(w) - 1.0, n, n) is Band.FAIL
    assert isinstance(rep, OutsideBallReport) == outside
    if outside:
        assert rep.norm == pytest.approx(operator_norm(w), rel=1e-12)
        assert rep.isometry_class is direct_isometry_class(w) is IsometryClass.NONE
        return
    assert rep.is_partial_isometry == want["is_partial_isometry"]
    assert rep.defect_left == pytest.approx(want["defect_left"], abs=1e-12)
    assert rep.defect_right == pytest.approx(want["defect_right"], abs=1e-12)
    assert rep.margin == pytest.approx(want["margin"], abs=1e-12)


@given(st.booleans().flatmap(lambda square: svd_built_matrices(square)))
@settings(max_examples=150, deadline=None)
def test_isometry_class_matches_direct_norms(a):
    assert classify_isometry(a) is direct_isometry_class(a)


@st.composite
def contractions(draw):
    """U diag(s) V* with s drawn at the decision points and clipped to 1,
    then the top value raised by e tol_eff for e in {0, 0.3, 0.9}.

    e = 0.5 is left out: it would put a top value of exactly 1 at
    s^2 - 1 = tol_eff, where the unitary shortcut hinges on the last bit.
    """
    n = draw(st.integers(1, 5))
    teff = DEFAULT_TOL.effective(n, n)
    s = draw(st.lists(decision_point_values(teff), min_size=n, max_size=n))
    s = np.minimum(sorted(s, reverse=True), 1.0)
    s[0] += draw(st.sampled_from([0.0, 0.3, 0.9])) * teff
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    return haar_from_rng(n, rng) @ np.diag(s) @ haar_from_rng(n, rng)


@given(contractions())
@settings(max_examples=100, deadline=None)
def test_contraction_mean_from_one_svd(a):
    """Unitary factors whose mean rebuilds a.  A norm above 1 is clipped to
    1 in the factors, so there the mean misses a by that excess; a unitary
    a within tolerance is its own mean."""
    teff = DEFAULT_TOL.effective(*a.shape)
    factors, weights = contraction_mean_of_unitaries(a)
    assert sum(weights) == 1.0
    if unitarity_defect(a) <= teff:
        assert len(factors) == 1 and np.array_equal(factors[0], a)
        return
    assert len(factors) == 2
    for f in factors:
        assert unitarity_defect(f) <= 1e-12
    rebuilt = sum(wt * f for wt, f in zip(weights, factors))
    assert operator_norm(rebuilt - a) <= max(operator_norm(a) - 1.0, 0.0) + 1e-12


def test_one_svd_of_w_per_question(monkeypatch):
    """Each question about w is read off one SVD: no eigh and no other
    norm of a product."""
    calls = []
    svd = np.linalg.svd

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return svd(a, *args, **kwargs)

    def refused(*args, **kwargs):
        raise AssertionError("the singular values already answer this")

    monkeypatch.setattr(np.linalg, "svd", counted)
    monkeypatch.setattr(np.linalg, "eigh", refused)
    monkeypatch.setattr(extremal, "operator_norm", refused)
    rng = np.random.default_rng(4)
    w = partial_isometry(5, 3, rng)
    kadison_extreme_test(w, StarAlgebraBasis.full(5))
    assert calls == [(5, 5)]
    for a in (w, complex_gaussian(3, 5, rng), complex_gaussian(5, 3, rng)):
        calls.clear()
        classify_isometry(a)
        assert calls == [a.shape]
    calls.clear()
    contraction_mean_of_unitaries(0.5 * w)
    assert calls == [(5, 5)]


# ------------------------------------------- extreme <=> unitary sweep


@pytest.mark.parametrize("n", [2, 3, 4])
def test_extreme_iff_unitary_sweep(n):
    """Over the full algebra the extreme points are exactly the unitaries;
    1000 operators of mixed character per dimension, zero disagreements."""
    rng = np.random.default_rng(900 + n)
    basis = StarAlgebraBasis.full(n)
    for k in range(1000):
        style = k % 5
        if style == 0:
            a = haar_from_rng(n, rng)
        elif style == 1:
            a = partial_isometry(n, int(rng.integers(0, n + 1)), rng)
        elif style == 2:
            a = complex_gaussian(n, n, rng) / (2 * math.sqrt(n))
        elif style == 3:
            h = hermitian_part(complex_gaussian(n, n, rng))
            a = h / (operator_norm(h) + 0.5)
        else:
            a = haar_from_rng(n, rng) * rng.uniform(0.2, 0.95)
        rep = kadison_extreme_test(a, basis)
        is_unitary = classify_isometry(a) is IsometryClass.UNITARY
        assert (rep.verdict is ExtremeVerdict.EXTREME) == is_unitary, (n, k, style)


# ------------------------------------------------------ unitary means


def test_mean_of_zero_is_plus_minus_i():
    up, um = selfadjoint_mean_of_unitaries(np.zeros((3, 3)))
    assert np.allclose(up, 1j * np.eye(3), atol=1e-14)
    assert np.allclose(um, -1j * np.eye(3), atol=1e-14)


def test_mean_of_identity_is_identity_twice():
    up, um = selfadjoint_mean_of_unitaries(np.eye(2))
    assert np.allclose(up, np.eye(2), atol=1e-12)
    assert np.allclose(um, np.eye(2), atol=1e-12)


def test_mean_frozen_half_spectrum():
    """diag(1/2, -1/2) splits into diag(1/2 +- i sqrt(3)/2, -1/2 +- i sqrt(3)/2)."""
    s = np.diag([0.5, -0.5]).astype(complex)
    up, um = selfadjoint_mean_of_unitaries(s)
    root = math.sqrt(3) / 2
    assert np.allclose(up, np.diag([0.5 + 1j * root, -0.5 + 1j * root]), atol=1e-14)
    assert np.allclose(um, np.diag([0.5 - 1j * root, -0.5 - 1j * root]), atol=1e-14)


def test_mean_rejects_nonhermitian_and_large():
    with pytest.raises(ValueError):
        selfadjoint_mean_of_unitaries(np.array([[0, 1], [0, 0]], dtype=complex))
    with pytest.raises(ValueError):
        selfadjoint_mean_of_unitaries(1.1 * np.eye(2))


def test_mean_accepts_norm_barely_above_one():
    up, um = selfadjoint_mean_of_unitaries((1 + 1e-9) * np.eye(2))
    assert unitarity_defect(up) < 1e-10
    assert unitarity_defect(um) < 1e-10


@pytest.mark.parametrize("n", [2, 4, 7])
def test_hermitian_mean_sweep(n):
    rng = np.random.default_rng(60 + n)
    for _ in range(100):
        h = hermitian_part(complex_gaussian(n, n, rng))
        s = h / max(1.0, operator_norm(h))
        up, um = selfadjoint_mean_of_unitaries(s)
        assert unitarity_defect(up) < 1e-12
        assert unitarity_defect(um) < 1e-12
        assert operator_norm((up + um) / 2 - s) < 1e-12


def test_contraction_mean_unitary_shortcut():
    u = haar_unitary(3, 8)
    factors, weights = contraction_mean_of_unitaries(u)
    assert len(factors) == 1 and weights == [1.0]
    assert np.allclose(factors[0], u)


def test_contraction_mean_of_zero():
    factors, weights = contraction_mean_of_unitaries(np.zeros((2, 2)))
    assert weights == [0.5, 0.5]
    recon = sum(wt * f for wt, f in zip(weights, factors))
    assert operator_norm(recon) < 1e-14
    for f in factors:
        assert unitarity_defect(f) < 1e-13


def test_contraction_mean_rejects_expansion():
    with pytest.raises(ValueError):
        contraction_mean_of_unitaries(1.5 * np.eye(3))
    with pytest.raises(ValueError, match="norm exceeds 1"):
        contraction_mean_of_unitaries(np.diag([1 + 2 * DEFAULT_TOL.effective(3, 3), 0.5, 0.0]))


@pytest.mark.parametrize("n", [2, 3, 6, 8])
def test_contraction_mean_sweep(n):
    rng = np.random.default_rng(70 + n)
    for _ in range(60):
        u = haar_from_rng(n, rng)
        a = u * rng.uniform(0.0, 1.0, size=n)  # singular values in [0, 1)
        factors, weights = contraction_mean_of_unitaries(a)
        assert sum(weights) == pytest.approx(1.0, abs=1e-15)
        recon = sum(wt * f for wt, f in zip(weights, factors))
        assert operator_norm(recon - a) < 1e-12
        for f in factors:
            assert unitarity_defect(f) < 1e-12
            assert classify_isometry(f) is IsometryClass.UNITARY
