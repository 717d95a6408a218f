"""Primitive layer tests: every nontrivial numeric is checked against an
independent oracle written inline (power iteration, entrywise loops,
explicit reconstructions), not against the library's own output."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from unitball.linalg import (
    DEFAULT_TOL,
    Band,
    Tolerance,
    adjoint,
    as_matrix,
    complex_gaussian,
    haar_from_rng,
    haar_stack,
    haar_unitary,
    hermitian_part,
    matrix_unit,
    operator_norm,
    polar_unitary,
    unitarity_defect,
    unitary_exp,
)


# ---------------------------------------------------------------- oracles


def power_iteration_norm(a, iters=400, seed=0):
    """Largest singular value via power iteration on a*a (independent of SVD)."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(a.shape[1]) + 1j * rng.standard_normal(a.shape[1])
    v /= np.linalg.norm(v)
    g = a.conj().T @ a
    for _ in range(iters):
        v = g @ v
        nv = np.linalg.norm(v)
        if nv == 0:
            return 0.0
        v /= nv
    return float(math.sqrt(abs(np.vdot(v, g @ v).real)))


def random_matrix(rng, rows, cols):
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols)))


# ------------------------------------------------------------- tolerance


def test_tolerance_effective_scales_with_dimension():
    tol = Tolerance(abs=1e-8)
    assert tol.effective(4, 4) == pytest.approx(4e-8)
    assert tol.effective(9, 9) == pytest.approx(9e-8)


def test_tolerance_always_scales_with_dimension():
    tol = Tolerance(abs=1e-6)
    assert tol.effective(100, 100) == pytest.approx(1e-4)
    with pytest.raises(TypeError):
        Tolerance(abs=1e-6, dimension_scaling=False)


def test_tolerance_rejects_negative():
    with pytest.raises(ValueError):
        Tolerance(abs=-1e-9)


@pytest.mark.parametrize("value", [math.inf, math.nan], ids=["inf", "nan"])
def test_tolerance_rejects_non_finite(value):
    with pytest.raises(ValueError, match="finite"):
        Tolerance(abs=value)


def test_tolerance_effective_stays_finite_for_a_huge_tolerance():
    top = sys.float_info.max
    tol = Tolerance(abs=1e308)
    assert tol.effective(2, 2) == top
    assert tol.effective(1, 1) == 1e308
    assert Tolerance(abs=top).effective(3, 5) == top
    assert tol.band(top, 2, 2) is Band.PASS


def test_tolerance_band_edges():
    tol = Tolerance(abs=1e-8)
    teff = tol.effective(4, 4)
    assert tol.band(teff, 4, 4) is Band.PASS
    assert tol.band(np.nextafter(teff, 1.0), 4, 4) is Band.INCONCLUSIVE
    assert tol.band(10 * teff, 4, 4) is Band.INCONCLUSIVE
    assert tol.band(np.nextafter(10 * teff, 1.0), 4, 4) is Band.FAIL


# ------------------------------------------------------- basic coercions


def test_as_matrix_rejects_bad_input():
    with pytest.raises(ValueError):
        as_matrix(np.zeros(3))
    with pytest.raises(ValueError):
        as_matrix(np.zeros((2, 2, 2)))
    with pytest.raises(ValueError):
        as_matrix(np.array([[np.nan, 0], [0, 0]]))
    with pytest.raises(ValueError):
        as_matrix(np.array([[np.inf, 0], [0, 0]]))
    with pytest.raises(ValueError):
        as_matrix(np.zeros((0, 3)))


def test_matrix_unit_is_a_single_one():
    e = matrix_unit(3, 1, 2)
    expected = np.zeros((3, 3))
    expected[1, 2] = 1
    assert np.array_equal(e, expected)
    assert e.dtype == np.complex128


def test_adjoint_entrywise():
    a = np.array([[1 + 2j, 3], [0, -1j]])
    star = adjoint(a)
    for i in range(2):
        for j in range(2):
            assert star[i, j] == np.conj(a[j, i])


# ------------------------------------------------------------------ norms


@pytest.mark.parametrize("shape", [(2, 2), (3, 5), (6, 4)])
def test_operator_norm_matches_power_iteration(shape):
    rng = np.random.default_rng(11)
    a = random_matrix(rng, *shape)
    assert operator_norm(a) == pytest.approx(power_iteration_norm(a), abs=1e-10)


def test_operator_norm_of_scaled_identity():
    assert operator_norm(3.5 * np.eye(4)) == pytest.approx(3.5, abs=1e-14)


@pytest.mark.parametrize("k, rows, cols", [(5, 1, 1), (4, 3, 5), (3, 6, 4), (1, 4, 4)])
def test_operator_norm_of_a_stack_matches_each_matrix(k, rows, cols):
    rng = np.random.default_rng(12)
    stack = np.array([random_matrix(rng, rows, cols) for _ in range(k)])
    norms = operator_norm(stack)
    assert isinstance(norms, np.ndarray) and norms.shape == (k,)
    singles = [operator_norm(a) for a in stack]
    assert all(type(x) is float for x in singles)
    assert norms.tolist() == singles
    for x, a in zip(singles, stack):
        assert x == pytest.approx(power_iteration_norm(a), abs=1e-10)


def test_operator_norm_checks_a_stack_like_a_matrix():
    stack = np.zeros((3, 2, 2), dtype=complex)
    stack[1, 0, 1] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        operator_norm(stack)
    stack[1, 0, 1] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        operator_norm(stack)
    for bad in (np.zeros(3), np.zeros((2, 2, 2, 2)), np.zeros((3, 0, 2))):
        with pytest.raises(ValueError):
            operator_norm(bad)


# --------------------------------------------------------- factorizations


def assert_polar_factor(w, a, atol):
    """w is unitary and the polar factor of a: p = w* a is Hermitian PSD
    and w p rebuilds a."""
    p = w.conj().T @ a
    assert unitarity_defect(w) < 1e-13
    assert operator_norm(p - p.conj().T) < 1e-13
    assert np.min(np.linalg.eigvalsh(hermitian_part(p))) > -1e-12
    assert np.allclose(w @ p, a, atol=atol)


@pytest.mark.parametrize("seed", range(4))
def test_polar_reconstructs_with_unitary_factor(seed):
    rng = np.random.default_rng(seed)
    a = random_matrix(rng, 4, 4)
    assert_polar_factor(polar_unitary(a), a, atol=1e-12)


def test_polar_handles_rank_deficient_input():
    a = np.diag([2.0, 0.0, 0.0]).astype(complex)
    assert_polar_factor(polar_unitary(a), a, atol=1e-13)


def test_polar_rejects_rectangular():
    with pytest.raises(ValueError):
        polar_unitary(np.zeros((2, 3)))


# ------------------------------------------------------------------ haar


@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_haar_unitary_is_unitary(n):
    u = haar_unitary(n, seed=123)
    assert unitarity_defect(u) < 1e-12


def test_haar_unitary_deterministic_in_seed():
    assert np.array_equal(haar_unitary(4, 9), haar_unitary(4, 9))
    assert not np.allclose(haar_unitary(4, 9), haar_unitary(4, 10))


def test_haar_first_moment_vanishes():
    """E[U] = 0 for Haar; a plain-QR sampler fails this badly because the
    phases on R's diagonal are biased toward +1."""
    rng = np.random.default_rng(42)
    acc = np.zeros((2, 2), dtype=np.complex128)
    samples = 4000
    for _ in range(samples):
        acc += haar_from_rng(2, rng)
    # entries are means of samples with per-coordinate std ~ 1/sqrt(2n)
    assert np.max(np.abs(acc / samples)) < 4 / math.sqrt(samples)


def test_haar_entry_modulus_moment():
    """|U_00|^2 is uniform on [0,1] at n=2: mean 1/2, checked to 3 sigma."""
    rng = np.random.default_rng(7)
    samples = 10_000
    vals = np.empty(samples)
    for k in range(samples):
        vals[k] = abs(haar_from_rng(2, rng)[0, 0]) ** 2
    sigma = math.sqrt(1 / 12 / samples)
    assert abs(vals.mean() - 0.5) < 3 * sigma


def sequential_haar(n, count, rng):
    """One QR of one Ginibre matrix per draw, phases fixed one at a time."""
    out = []
    for _ in range(count):
        z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2)
        q, r = np.linalg.qr(z)
        d = np.diagonal(r)
        out.append(q * (d / np.abs(d)))
    return out


@pytest.mark.parametrize("n", range(1, 9))
def test_haar_stack_matches_sequential_draws(n):
    """A stack is the same bits as that many single draws, and leaves the
    generator where they would."""
    for count in range(1, 18):
        seed = 100 * n + count
        stack_rng, loop_rng, single_rng = (np.random.default_rng(seed) for _ in range(3))
        stack = haar_stack(n, count, stack_rng)
        assert stack.shape == (count, n, n)
        assert stack.tobytes() == np.array(sequential_haar(n, count, loop_rng)).tobytes()
        singles = np.array([haar_from_rng(n, single_rng) for _ in range(count)])
        assert stack.tobytes() == singles.tobytes()
        assert stack_rng.standard_normal() == loop_rng.standard_normal()


def test_haar_rejects_bad_dimension():
    with pytest.raises(ValueError):
        haar_unitary(0, 1)


# ----------------------------------------------- defects and projections


def test_unitarity_defect_values():
    assert unitarity_defect(np.eye(3)) == 0.0
    assert unitarity_defect(haar_unitary(5, 3)) < 1e-13
    # for 2I both defect matrices are 3I, so the defect is exactly 3
    assert unitarity_defect(2 * np.eye(2)) == pytest.approx(3.0, abs=1e-14)
    with pytest.raises(ValueError):
        unitarity_defect(np.zeros((2, 3)))


@pytest.mark.parametrize("seed", range(4))
def test_unitarity_defect_matches_both_products(seed):
    rng = np.random.default_rng(seed)
    a = haar_from_rng(4, rng) * rng.uniform(0.5, 1.5, size=4) + 1e-3 * random_matrix(rng, 4, 4)
    eye = np.eye(4)
    expected = max(
        power_iteration_norm(a.conj().T @ a - eye), power_iteration_norm(a @ a.conj().T - eye)
    )
    assert unitarity_defect(a) == pytest.approx(expected, abs=1e-10)


def test_unitarity_defect_of_a_stack_matches_each_matrix():
    rng = np.random.default_rng(8)
    stack = np.array(
        [haar_from_rng(3, rng) * rng.uniform(0.5, 1.5, size=3) for _ in range(6)]
    )
    defects = unitarity_defect(stack)
    assert defects.shape == (6,)
    assert defects.tolist() == [unitarity_defect(a) for a in stack]
    with pytest.raises(ValueError):
        unitarity_defect(np.zeros((2, 2, 3)))
    with pytest.raises(ValueError):
        unitarity_defect(np.zeros((2, 2, 2, 2)))
    for bad in (np.nan, np.inf):
        broken = stack.copy()
        broken[2, 1, 0] = bad
        with pytest.raises(ValueError, match="non-finite entries"):
            unitarity_defect(broken)


def test_unitary_exp_diagonal_case():
    h = np.diag([0.3, -1.2]).astype(complex)
    u = unitary_exp(h, t=2.0)
    assert np.allclose(u, np.diag([np.exp(0.6j), np.exp(-2.4j)]), atol=1e-13)
    assert unitarity_defect(u) < 1e-13


@pytest.mark.parametrize("n", [1, 3, 8])
def test_unitary_exp_of_a_t_array_matches_each_call(n):
    """An array of t gives the stack of the one-t calls, bit for bit, for a
    random Hermitian matrix and for the Hermitian parts of a matrix unit."""
    rng = np.random.default_rng(n)
    e = matrix_unit(n, 0, n - 1)
    ts = np.array([1.0, -1.0, 0.5, -0.5, 0.37, 0.0])
    for h in (hermitian_part(random_matrix(rng, n, n)), e + e.conj().T, 1j * (e - e.conj().T)):
        stack = unitary_exp(h, ts)
        assert stack.shape == (len(ts), n, n)
        assert [u.tobytes() for u in stack] == [unitary_exp(h, float(t)).tobytes() for t in ts]


def test_unitary_exp_is_always_unitary():
    rng = np.random.default_rng(5)
    h = hermitian_part(random_matrix(rng, 6, 6))
    assert unitarity_defect(unitary_exp(h, 0.37)) < 1e-13


def test_complex_gaussian_shape_and_scale():
    rng = np.random.default_rng(0)
    g = complex_gaussian(200, 200, rng)
    assert g.shape == (200, 200)
    # unit total variance per entry: Var(Re) = Var(Im) = 1/2
    assert np.var(g.real) == pytest.approx(0.5, rel=0.1)
    assert np.var(g.imag) == pytest.approx(0.5, rel=0.1)


# ------------------------------------------------- algebraic properties


def _dims():
    return st.integers(min_value=1, max_value=4)


def _complexes():
    return st.complex_numbers(
        max_magnitude=2.0, allow_nan=False, allow_infinity=False
    )


@st.composite
def two_chained_matrices(draw):
    m = draw(_dims())
    k = draw(_dims())
    n = draw(_dims())
    a = np.array(
        draw(st.lists(st.lists(_complexes(), min_size=k, max_size=k), min_size=m, max_size=m))
    )
    b = np.array(
        draw(st.lists(st.lists(_complexes(), min_size=n, max_size=n), min_size=k, max_size=k))
    )
    return a, b


@given(two_chained_matrices())
@settings(max_examples=60, deadline=None)
def test_adjoint_antihomomorphism(ab):
    a, b = ab
    assert np.allclose(adjoint(a @ b), adjoint(b) @ adjoint(a), atol=1e-9)


@given(two_chained_matrices())
@settings(max_examples=60, deadline=None)
def test_operator_norm_submultiplicative(ab):
    a, b = ab
    assert operator_norm(a @ b) <= operator_norm(a) * operator_norm(b) + 1e-9


@given(two_chained_matrices())
@settings(max_examples=60, deadline=None)
def test_operator_norm_adjoint_invariant(ab):
    a, _ = ab
    assert operator_norm(adjoint(a)) == pytest.approx(operator_norm(a), abs=1e-10)
