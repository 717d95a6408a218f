"""End-to-end pipeline tests.  Every certificate field that matters is
re-verified from the raw map: reconstructions are applied to fresh random
inputs and witnesses are re-run through the unitary test."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from unitball import jordan, preserver, superop
from unitball.extremal import IsometryClass, classify_isometry
from unitball.gen import InstanceKind, InstanceSpec, generate, trace_pinch_map
from unitball.jordan import MapKind
from unitball.linalg import (
    DEFAULT_TOL,
    Band,
    Tolerance,
    adjoint,
    complex_gaussian,
    haar_from_rng,
    haar_unitary,
    matrix_unit,
    operator_norm,
    polar_unitary,
    unitarity_defect,
)
from unitball.preserver import (
    PreserverVerdict,
    classify_preserver,
    falsify_by_sampling,
    identity_residuals,
    perturb,
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


def reconstruction_agrees(cert, phi, rng, atol=1e-8):
    """Check u_left / v_right / transpose_flag against the map pointwise."""
    n = phi.dim_in
    for _ in range(10):
        a = complex_gaussian(n, n, rng)
        inner = a.T if cert.transpose_flag else a
        if operator_norm(cert.u_left @ inner @ cert.v_right - apply(phi, a)) > atol:
            return False
    return True


# ----------------------------------------------------------- happy paths


def test_identity_map_certificate():
    cert = classify_preserver(identity_map(3))
    assert cert.verdict is PreserverVerdict.PRESERVER
    assert cert.kind is MapKind.HOM
    assert not cert.transpose_flag
    assert cert.reconstruction_residual <= 1e-14
    assert cert.v_unitarity_residual <= 1e-14
    assert np.allclose(cert.v, np.eye(3), atol=1e-14)
    assert np.allclose(cert.u_left @ cert.v_right, np.eye(3), atol=1e-12)
    assert cert.jordan is None
    assert cert.witness is None


@pytest.mark.parametrize("n,seed", [(2, 0), (3, 1), (5, 2), (8, 3)])
def test_hom_round_trip(n, seed):
    u0 = haar_unitary(n, 2 * seed)
    v0 = haar_unitary(n, 2 * seed + 1)
    phi = from_left_right(u0, v0)
    cert = classify_preserver(phi, seed=seed)
    assert cert.verdict is PreserverVerdict.PRESERVER
    assert cert.kind is MapKind.HOM
    assert not cert.transpose_flag
    assert cert.reconstruction_residual <= 1e-8
    assert reconstruction_agrees(cert, phi, np.random.default_rng(seed))
    # the factorization is unique up to phase: u_left v_right == u0 v0
    assert operator_norm(cert.u_left @ cert.v_right - u0 @ v0) <= 1e-9


@pytest.mark.parametrize("n,seed", [(2, 4), (4, 5), (7, 6)])
def test_anti_round_trip(n, seed):
    u0 = haar_unitary(n, 100 + 2 * seed)
    v0 = haar_unitary(n, 101 + 2 * seed)
    phi = compose(from_left_right(u0, v0), transpose_map(n))
    cert = classify_preserver(phi, seed=seed)
    assert cert.verdict is PreserverVerdict.PRESERVER
    assert cert.kind is MapKind.ANTI
    assert cert.transpose_flag
    assert cert.reconstruction_residual <= 1e-8
    assert reconstruction_agrees(cert, phi, np.random.default_rng(seed))


def test_certified_factors_are_unitary():
    phi = from_left_right(haar_unitary(4, 50), haar_unitary(4, 51))
    cert = classify_preserver(phi)
    assert unitarity_defect(cert.u_left) <= 1e-10
    assert unitarity_defect(cert.v_right) <= 1e-10
    assert cert.kind is not MapKind.NONE


def test_scalar_dimension_is_commutative():
    phi = SuperOperator(1, 1, np.array([[np.exp(0.7j)]]))
    cert = classify_preserver(phi)
    assert cert.verdict is PreserverVerdict.PRESERVER
    assert cert.kind is MapKind.COMMUTATIVE
    assert cert.reconstruction_residual <= 1e-14


def test_seed_is_recorded():
    cert = classify_preserver(identity_map(2), seed=77)
    assert cert.seed == 77


# -------------------------------------------------------- negative paths


def test_trace_pinch_rejected_with_verified_witness():
    phi = trace_pinch_map(3)
    cert = classify_preserver(phi)
    assert cert.verdict is PreserverVerdict.NOT_PRESERVER
    # P = I/3 has no eigenvalue above 1/2, so the read-off ranks give no conjugator
    assert cert.reason == "unitary-recovery-failed"
    assert cert.u_left is None and cert.reconstruction_residual is None
    assert cert.jordan is None
    # witness must be an honest unitary whose image fails the unitary test
    assert unitarity_defect(cert.witness) <= 1e-10
    image = apply(phi, cert.witness)
    assert classify_isometry(image) is not IsometryClass.UNITARY
    assert unitarity_defect(image) == pytest.approx(cert.witness_defect, abs=1e-12)
    assert cert.witness_defect > DEFAULT_TOL.effective(3, 3)


def test_nonunitary_image_of_identity_short_circuits():
    phi = from_left_right(np.diag([1.0, 0.5]).astype(complex), np.eye(2))
    cert = classify_preserver(phi)
    assert cert.verdict is PreserverVerdict.NOT_PRESERVER
    assert cert.reason == "image-of-identity-not-unitary"
    assert np.allclose(cert.witness, np.eye(2))
    # defect of diag(1, 1/2): ||diag(0, 3/4)|| = 3/4 exactly
    assert cert.v_unitarity_residual == pytest.approx(0.75, abs=1e-14)


@pytest.mark.parametrize("scale", [0.5, 2.0, 1e155])
def test_identity_is_its_own_witness(scale, monkeypatch):
    """When phi(I) fails, I is the witness: phi is applied once, to I, and
    the witness defect is the defect of phi(I) already held."""
    phi = SuperOperator(3, 3, scale * from_left_right(haar_unitary(3, 4), haar_unitary(3, 5)).matrix)
    calls = []

    def counted(*args):
        calls.append(args[1])
        return apply(*args)

    monkeypatch.setattr(preserver, "apply", counted)
    cert = classify_preserver(phi)
    assert cert.verdict is PreserverVerdict.NOT_PRESERVER
    assert cert.reason == "image-of-identity-not-unitary"
    assert len(calls) == 1 and np.array_equal(calls[0], np.eye(3))
    assert np.array_equal(cert.witness, np.eye(3))
    assert cert.witness_defect == cert.v_unitarity_residual == unitarity_defect(apply(phi, np.eye(3)))


def test_unreadable_map_fails_recovery():
    """A -> A[1, 1] I sends I to I but E_11 to 0, so neither form reads off."""
    phi = SuperOperator(2, 2, np.outer(np.eye(2).flatten(order="F"), [0, 0, 0, 1]))
    cert = classify_preserver(phi)
    assert cert.verdict is PreserverVerdict.NOT_PRESERVER
    assert cert.reason == "unitary-recovery-failed"
    assert cert.u_left is None and cert.reconstruction_residual is None
    assert unitarity_defect(apply(phi, cert.witness)) > 10 * DEFAULT_TOL.effective(2, 2)


@pytest.mark.parametrize("abs_tol", [0.5, 1e308])
def test_loose_tolerance_certifies_the_identity(abs_tol):
    """The read-off of U needs only a nonzero image of E_11, whose top
    singular value is 1 on every preserver, so a tolerance looser than 1
    leaves the verdict to rho."""
    cert = classify_preserver(identity_map(2), Tolerance(abs_tol))
    assert cert.verdict is PreserverVerdict.PRESERVER
    assert cert.reconstruction_residual == 0.0


def test_uniformly_scaled_preserver_is_rejected():
    phi = from_left_right(1.001 * haar_unitary(3, 9), haar_unitary(3, 10))
    cert = classify_preserver(phi)
    assert cert.verdict is PreserverVerdict.NOT_PRESERVER


@pytest.mark.parametrize("epsilon", [1e-3, 1e-2])
def test_perturbed_preservers_never_certify(epsilon):
    for seed in range(5):
        base = from_left_right(haar_unitary(3, 200 + seed), haar_unitary(3, 300 + seed))
        phi = perturb(base, epsilon, seed)
        cert = classify_preserver(phi, seed=seed)
        assert cert.verdict is not PreserverVerdict.PRESERVER
        if cert.verdict is PreserverVerdict.NOT_PRESERVER:
            assert unitarity_defect(apply(phi, cert.witness)) > DEFAULT_TOL.effective(3, 3)


# ------------------------------------------------------- tolerance band


def scaled_preserver(n, factor, anti=False, seed=20260418):
    """A preserver times (1 + d), so that the image of every unitary, I
    included, misses unitarity by exactly ``factor`` * tol_eff(n, n)."""
    rng = np.random.default_rng(seed)
    phi = from_left_right(haar_from_rng(n, rng), haar_from_rng(n, rng))
    if anti:
        phi = compose(phi, transpose_map(n))
    d = math.sqrt(1.0 + factor * DEFAULT_TOL.effective(n, n)) - 1.0
    return SuperOperator(n, n, (1.0 + d) * phi.matrix)


def test_image_of_identity_in_band_is_inconclusive():
    phi = scaled_preserver(6, 3.0)
    cert = classify_preserver(phi)
    assert cert.v_unitarity_residual == pytest.approx(3 * DEFAULT_TOL.effective(6, 6), rel=1e-6)
    assert cert.verdict is PreserverVerdict.INCONCLUSIVE
    assert cert.reason == "image-of-identity-in-band"
    assert cert.witness is None


@pytest.mark.parametrize("anti", [False, True])
@pytest.mark.parametrize("n", [3, 6])
def test_scaling_sweep_crosses_the_band_in_order(n, anti):
    verdicts = [
        classify_preserver(scaled_preserver(n, factor, anti)).verdict
        for factor in (0.1, 3.0, 30.0)
    ]
    assert verdicts == [
        PreserverVerdict.PRESERVER,
        PreserverVerdict.INCONCLUSIVE,
        PreserverVerdict.NOT_PRESERVER,
    ]


def moved_column(phi, i, j, step):
    """The map with the column of E_ij (index i + j n) moved by ``step``."""
    n = phi.dim_in
    matrix = phi.matrix.copy()
    matrix[:, i + j * n] += step
    return SuperOperator(n, phi.dim_out, matrix)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 6),
    anti=st.booleans(),
    seed=st.integers(0, 2**16),
    log_f=st.floats(-1.0, 2.0),
)
def test_preserver_verdict_bounds_every_image(n, anti, seed, log_f):
    """The Preserver gate is a bound: no unitary's image may leave the band."""
    rng = np.random.default_rng(seed)
    phi = from_left_right(haar_from_rng(n, rng), haar_from_rng(n, rng))
    if anti:
        phi = compose(phi, transpose_map(n))
    teff = DEFAULT_TOL.effective(n, n)
    g = complex_gaussian(n * n, 1, rng)[:, 0]
    i, j = rng.integers(n, size=2)
    phi = moved_column(phi, i, j, 10**log_f * teff * g / np.linalg.norm(g))
    cert = classify_preserver(phi, seed=seed)
    if cert.verdict is PreserverVerdict.PRESERVER:
        for _ in range(32):
            assert unitarity_defect(apply(phi, haar_from_rng(n, rng))) <= teff


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize(
    "factor,verdict",
    [
        (5.0, PreserverVerdict.INCONCLUSIVE),
        (8.0, PreserverVerdict.NOT_PRESERVER),
        (12.0, PreserverVerdict.NOT_PRESERVER),
    ],
)
def test_moved_unit_column_is_not_certified(seed, factor, verdict):
    """Move the E_12 column of a preserver at n = 12 by d = factor * tol_eff
    along its own image.  The worst image of a unitary then misses
    unitarity by 2d + d^2, at exp(i pi/2 (E_12 + E_21)).  At factor 5 that
    is 10 tol_eff up to second order, so the search finds no witness; 8 and
    12 must be rejected with one."""
    n = 12
    rng = np.random.default_rng(seed)
    u0, v0 = haar_from_rng(n, rng), haar_from_rng(n, rng)
    teff = DEFAULT_TOL.effective(n, n)
    step = factor * teff * (u0[:, [0]] @ v0[[1], :]).flatten(order="F")
    phi = moved_column(from_left_right(u0, v0), 0, 1, step)
    cert = classify_preserver(phi, seed=seed)
    assert cert.verdict is verdict
    assert cert.reason == "reconstruction-mismatch"
    if verdict is PreserverVerdict.NOT_PRESERVER:
        assert unitarity_defect(cert.witness) <= 1e-10
        assert unitarity_defect(apply(phi, cert.witness)) > 10 * teff


@pytest.mark.parametrize("label", ["hom", "anti", "pinch", "mixed"])
def test_jordan_core_never_runs_in_classify(label, monkeypatch):
    """Neither the identity scan, left_multiplier nor the unitary recovery
    runs, for square maps or for a rectangular one: every map's candidate
    is read off its images, and each verdict stands without them."""
    phi = {
        "hom": lambda: generate(InstanceSpec(n=4, kind=InstanceKind.HOM_PRESERVER, seed=1)),
        "anti": lambda: generate(InstanceSpec(n=4, kind=InstanceKind.ANTI_PRESERVER, seed=2)),
        "pinch": lambda: trace_pinch_map(3),
        "mixed": lambda: generate(
            InstanceSpec(n=2, kind=InstanceKind.MIXED_JORDAN, seed=3, p=1, q=1)
        ),
    }[label]()
    calls = []

    def counted(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)

        return wrapper

    for module in (superop, jordan, preserver):
        for name in ("jordan_check", "left_multiplier", "recover_conjugating_unitary"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    cert = classify_preserver(phi)
    assert (cert.jordan is not None) == (label == "mixed")
    assert calls == []
    assert cert.verdict is {
        "hom": PreserverVerdict.PRESERVER,
        "anti": PreserverVerdict.PRESERVER,
        "pinch": PreserverVerdict.NOT_PRESERVER,
        "mixed": PreserverVerdict.INCONCLUSIVE,
    }[label]


@pytest.mark.parametrize("label", ["hom", "anti", "pinch", "contraction"])
def test_square_path_builds_no_superoperator(label, monkeypatch):
    """A square map is read off its own matrix: no SuperOperator is built
    and neither compose nor left_multiplier runs."""
    phi = {
        "hom": lambda: generate(InstanceSpec(n=4, kind=InstanceKind.HOM_PRESERVER, seed=1)),
        "anti": lambda: generate(InstanceSpec(n=4, kind=InstanceKind.ANTI_PRESERVER, seed=2)),
        "pinch": lambda: trace_pinch_map(4),
        "contraction": lambda: generate(
            InstanceSpec(n=4, kind=InstanceKind.RANDOM_CONTRACTION, seed=3)
        ),
    }[label]()
    calls = []

    def counted(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)

        return wrapper

    monkeypatch.setattr(
        SuperOperator, "__post_init__", counted("SuperOperator", SuperOperator.__post_init__)
    )
    for module in (superop, jordan, preserver):
        for name in ("compose", "left_multiplier"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    cert = classify_preserver(phi)
    certified = cert.verdict is PreserverVerdict.PRESERVER
    assert certified == (label in ("hom", "anti"))
    assert calls == []


def mixture(n, rng, t):
    """A -> U (t A + (1 - t) A^tr) V with Haar U, V."""
    hom = from_left_right(haar_from_rng(n, rng), haar_from_rng(n, rng))
    anti = compose(hom, transpose_map(n))
    return SuperOperator(n, n, t * hom.matrix + (1 - t) * anti.matrix)


@pytest.mark.parametrize(
    "kind", [InstanceKind.HOM_PRESERVER, InstanceKind.ANTI_PRESERVER, "pinch", "mixture"]
)
def test_one_operator_norm_per_classify(kind, monkeypatch):
    """A square map builds one candidate: one read-off and, once its ranks
    give a conjugator, one n^2 x n^2 SVD, whatever the verdict.  The read-off
    of a trace pinching gives none, so it takes no SVD."""
    if kind == "pinch":
        phi = trace_pinch_map(5)
    elif kind == "mixture":
        phi = mixture(5, np.random.default_rng(4), 0.5)
    else:
        phi = generate(InstanceSpec(n=5, kind=kind, seed=4))
    calls = {"operator_norm": 0, "read_off": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for module in (jordan, preserver):
        monkeypatch.setattr(module, "operator_norm", counted("operator_norm", operator_norm))
    monkeypatch.setattr(
        preserver, "read_off_split", counted("read_off", jordan.read_off_split)
    )
    cert = classify_preserver(phi)
    certified = cert.verdict is PreserverVerdict.PRESERVER
    assert certified == (kind in (InstanceKind.HOM_PRESERVER, InstanceKind.ANTI_PRESERVER))
    if kind == "pinch":
        assert cert.reason == "unitary-recovery-failed"
        assert calls == {"operator_norm": 0, "read_off": 1}
    else:
        assert cert.reason in ("", "reconstruction-mismatch")
        assert calls == {"operator_norm": 1, "read_off": 1}


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(2, 5),
    seed=st.integers(0, 2**16),
    t=st.sampled_from([0.0, 1.0, 0.3, 0.5]),
    log_d=st.floats(-9.0, 1.0),
)
@example(n=3, seed=1, t=1.0, log_d=-9.0)
@example(n=4, seed=2, t=0.0, log_d=-9.0)
def test_probe_picks_every_form_whose_bound_passes(n, seed, t, log_d):
    """On mixtures A -> U (t A + (1 - t) A^tr) V with one off-diagonal
    column moved by d (so the image of I stays unitary), the certified rho
    is the SVD residual of the factors the certificate names, and any form
    whose candidate from ``recover_conjugating_unitary`` (the reference
    oracle) passes the bound 2 sqrt(n) rho + n rho^2 is certified."""
    rng = np.random.default_rng(seed)
    i, j = rng.choice(n, size=2, replace=False)
    g = complex_gaussian(n * n, 1, rng)[:, 0]
    phi = moved_column(mixture(n, rng, t), i, j, 10**log_d * g / np.linalg.norm(g))
    cert = classify_preserver(phi, seed=seed)
    if cert.reconstruction_residual is not None:
        rebuilt = np.kron(cert.v_right.T, cert.u_left)
        if cert.transpose_flag:
            rebuilt = rebuilt @ transpose_map(n).matrix
        assert cert.reconstruction_residual == pytest.approx(
            operator_norm(phi.matrix - rebuilt), rel=1e-12, abs=1e-15
        )
    v = apply(phi, np.eye(n))
    for kind in (MapKind.HOM, MapKind.ANTI):
        try:
            u = polar_unitary(jordan.recover_conjugating_unitary(phi, kind))
        except ValueError:
            continue
        rebuilt = from_left_right(u, polar_unitary(adjoint(u) @ v))
        if kind is MapKind.ANTI:
            rebuilt = compose(rebuilt, transpose_map(n))
        rho = operator_norm(phi.matrix - rebuilt.matrix)
        if DEFAULT_TOL.band(2 * math.sqrt(n) * rho + n * rho * rho, n, n) is Band.PASS:
            assert cert.verdict is PreserverVerdict.PRESERVER
            assert cert.kind is kind


# ------------------------------------------- witness search in stacks


def sequential_samples(n, count, seed):
    """Haar samples drawn one at a time, each from its own QR."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2)
        q, r = np.linalg.qr(z)
        d = np.diagonal(r)
        yield q * (d / np.abs(d))


def sequential_first_witness(phi, candidates):
    """Score candidates one at a time: (index, witness, defect) of the first
    image beyond 10 tol_eff, or three Nones."""
    m = phi.dim_out
    for index, u in enumerate(candidates):
        s = np.linalg.svd(apply(phi, u), compute_uv=False)
        defect = max(abs(s[0] * s[0] - 1.0), abs(s[-1] * s[-1] - 1.0))
        if DEFAULT_TOL.band(defect, m, m) is Band.FAIL:
            return index, u, defect
    return None, None, None


def band_first_witness(phi, stacks, tol):
    """Oracle: ``tol.band`` on each candidate in turn; (witness, defect) of
    the first FAIL, or two Nones."""
    for stack in stacks:
        for u in stack:
            defect = unitarity_defect(apply(phi, u))
            if tol.band(defect, phi.dim_out) is Band.FAIL:
                return u, defect
    return None, None


def diagonal_stack(*tops):
    return np.stack([np.diag([t, 1.0]).astype(complex) for t in tops])


def threshold_tol(score, n):
    """A Tolerance whose 10 tol_eff at n x n is exactly ``score``."""
    abs_tol = score / (10 * n)
    for _ in range(8):
        above = 10 * Tolerance(abs_tol).effective(n, n)
        if above == score:
            return Tolerance(abs_tol)
        abs_tol = np.nextafter(abs_tol, -np.inf if above > score else np.inf)
    raise AssertionError(f"no tolerance puts 10 tol_eff at {score!r}")


# Under the threshold tolerance, diag(1.5, 1) sits exactly at 10 tol_eff
# (about 1.25) and diag(1.2, 1) (about 0.44) inside the band.
_STACKS = [diagonal_stack(1.0, 1.2), diagonal_stack(1.5, 1.2, 2.0, 3.0), diagonal_stack(1.6)]
_HUGE = SuperOperator(2, 2, 1e200 * np.eye(4))


@pytest.mark.parametrize(
    "phi,stacks,tol",
    [
        pytest.param(identity_map(2), _STACKS, None, id="several-fail"),
        pytest.param(identity_map(2), [_STACKS[0], _STACKS[1][:2], _STACKS[2]], None, id="last-stack"),
        pytest.param(identity_map(2), [_STACKS[0], diagonal_stack(1.5)], None, id="none"),
        pytest.param(_HUGE, [diagonal_stack(1.0, 2.0)], DEFAULT_TOL, id="capped-defect"),
        pytest.param(_HUGE, [diagonal_stack(1.0, 2.0)], Tolerance(1e308), id="capped-tol-eff"),
    ],
)
def test_first_witness_matches_the_band(phi, stacks, tol):
    """One comparison per stack finds the witness the per-candidate band
    finds, a defect of exactly 10 tol_eff and a capped tol_eff included."""
    if tol is None:
        tol = threshold_tol(unitarity_defect(apply(phi, diagonal_stack(1.5)[0])), 2)
    witness, defect = band_first_witness(phi, stacks, tol)
    found, found_defect = preserver._first_witness(phi, iter(stacks), tol)
    if witness is None:
        assert found is None and found_defect is None
    else:
        assert found.tobytes() == witness.tobytes()
        assert found_defect == defect


def moved_preserver(n, seed, factor):
    """A hom preserver with its E_21 column moved by factor * tol_eff."""
    rng = np.random.default_rng(seed)
    phi = from_left_right(haar_from_rng(n, rng), haar_from_rng(n, rng))
    g = rng.standard_normal(n * n) + 1j * rng.standard_normal(n * n)
    return moved_column(phi, 1, 0, factor * DEFAULT_TOL.effective(n, n) * g / np.linalg.norm(g))


def unit_column_preserver(factor):
    """The n = 12 map of test_moved_unit_column_is_not_certified, seed 0:
    only the structured start exp(i pi/2 (E_12 + E_21)) reaches its worst
    image."""
    n = 12
    rng = np.random.default_rng(0)
    u0, v0 = haar_from_rng(n, rng), haar_from_rng(n, rng)
    step = factor * DEFAULT_TOL.effective(n, n) * (u0[:, [0]] @ v0[[1], :]).flatten(order="F")
    phi = moved_column(from_left_right(u0, v0), 0, 1, step)
    return phi, list(preserver._pair_unitaries(n, (0, 1)))


@pytest.mark.parametrize(
    "case,sample_index,start_index",
    [
        ("first-sample", 0, None),
        ("third-stack", 7, None),
        ("fourth-stack", 24, None),
        ("structured-start", None, 0),
        ("none", None, None),
    ],
)
def test_stacked_search_matches_sequential_scoring(case, sample_index, start_index):
    """Stacks of 1, 4, 16, 64, ... find the witness a one-at-a-time loop
    finds: the same index, the same bits and the same defect."""
    starts, seed = [], 0
    if case == "first-sample":
        phi = from_left_right(np.diag([1.0, 0.5]).astype(complex), np.eye(2))
    elif case == "third-stack":
        phi = moved_preserver(3, 0, 10.0)
    elif case == "fourth-stack":
        phi, seed = moved_preserver(3, 9, 10.0), 9
    else:
        phi, starts = unit_column_preserver(8.0 if case == "structured-start" else 5.0)
    n = phi.dim_in

    index, witness, defect = sequential_first_witness(phi, sequential_samples(n, 100, seed))
    assert index == sample_index
    found = falsify_by_sampling(phi, trials=100, seed=seed)
    if witness is None:
        assert found is None
    else:
        assert found.tobytes() == witness.tobytes()

    budget = preserver.WITNESS_SAMPLE_BUDGET
    index, witness, defect = sequential_first_witness(
        phi, itertools.chain(starts, sequential_samples(n, budget, seed))
    )
    expected = start_index if starts else sample_index
    assert index == expected
    if starts:
        assert sequential_first_witness(phi, sequential_samples(n, budget, seed))[0] is None
    found, found_defect = preserver._search_witness(phi, DEFAULT_TOL, seed, starts)
    if witness is None:
        assert found is None and found_defect is None
    else:
        assert found.tobytes() == witness.tobytes()
        assert found_defect == defect


def test_sample_stacks_are_capped(monkeypatch):
    """A huge budget is drawn in stacks of 1, 4, 16 and then at most 64, so
    memory does not grow with the budget; the sizes are read without
    drawing any unitary."""
    sizes = []

    def sized(n, count, rng):
        sizes.append(count)
        return np.empty((count, 0, 0))

    monkeypatch.setattr(preserver, "haar_stack", sized)
    count = 10**6
    for _ in preserver._haar_samples(3, count, 0):
        pass
    assert sizes[:5] == [1, 4, 16, 64, 64]
    assert max(sizes) == 64
    assert sum(sizes) == count


def test_falsifier_memory_does_not_grow_with_trials():
    """The peak traced memory of a falsifier run without a witness is the
    same for 200 and 5000 trials."""
    phi = from_left_right(haar_unitary(8, 1), haar_unitary(8, 2))

    def peak(trials):
        tracemalloc.start()
        try:
            assert falsify_by_sampling(phi, trials=trials, seed=3) is None
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(5000) < 1.5 * peak(200)


@pytest.mark.parametrize("case", ["hom", "anti", "mismatch"])
def test_classify_memory_stays_near_the_input_size(case):
    """One n^2 x n^2 residual S - R lives at a time, built in its rebuild's
    buffer, so the traced peak of a classify at n = 16 stays within 2.5
    times the input matrix (keeping both forms' S - R took 4 times)."""
    n = 16
    phi = from_left_right(haar_unitary(n, 1), haar_unitary(n, 2))
    anti = compose(phi, transpose_map(n))
    if case == "anti":
        phi = anti
    if case == "mismatch":
        # A -> U (A + A^tr) V / 2 sends I to a unitary but fits neither form
        phi = SuperOperator(n, n, (phi.matrix + anti.matrix) / 2)
    tracemalloc.start()
    try:
        cert = classify_preserver(phi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if case == "mismatch":
        assert cert.verdict is PreserverVerdict.NOT_PRESERVER
        assert cert.reason == "reconstruction-mismatch"
    else:
        assert cert.verdict is PreserverVerdict.PRESERVER
    assert peak <= 2.5 * phi.matrix.nbytes


# --------------------------------------------------- out-of-scope inputs


def test_rectangular_map_gets_diagnostics_only():
    w = haar_unitary(4, 60)
    phi = direct_sum_embedding([BlockKind.ID, BlockKind.TRANSPOSE], w)
    cert = classify_preserver(phi)
    assert cert.verdict is PreserverVerdict.INCONCLUSIVE
    assert cert.reason == "theorem-scope"
    assert cert.u_left is None and cert.v_right is None
    # diagnostics still run: the Størmer split sees one block of each kind
    assert cert.jordan is not None and cert.jordan.residual <= 1e-13
    assert (cert.jordan.p, cert.jordan.q) == (1, 1)


def rectangular_rebuild(phi, p, q, w):
    """Matrix of A -> polar(phi(I)) w (A kron I_p + A^tr kron I_q) w*, one
    column vec(image of E_ij) at a time."""
    n, m = phi.dim_in, phi.dim_out
    u = polar_unitary(apply(phi, np.eye(n)))
    cols = []
    for j in range(n):
        for i in range(n):
            e, block = matrix_unit(n, i, j), np.zeros((m, m), dtype=complex)
            block[: n * p, : n * p] = np.kron(e, np.eye(p))
            block[n * p :, n * p :] = np.kron(e.T, np.eye(q))
            cols.append((u @ w @ block @ w.conj().T).flatten(order="F"))
    return np.stack(cols, axis=1)


def scaled_embedding():
    """A -> a w (A^tr direct sum A) w* from M_2 to M_4, with Haar a and w."""
    psi = direct_sum_embedding([BlockKind.TRANSPOSE, BlockKind.ID], haar_unitary(4, 5))
    return compose(from_left_right(haar_unitary(4, 6), np.eye(4)), psi)


@pytest.mark.parametrize("step", [0.0, 1e-9, 1e-8])
def test_rectangular_residual_is_that_of_phi(step):
    """The split's residual is rho = ||S_phi - polar(v) R||, not that of
    psi = v* phi: moving the E_11 column leaves phi(I) = v inside the band
    but not unitary, where the two differ."""
    phi = scaled_embedding()
    g = complex_gaussian(16, 1, np.random.default_rng(3))[:, 0]
    phi = moved_column(phi, 0, 0, step * g / np.linalg.norm(g))
    cert = classify_preserver(phi)
    assert cert.v_unitarity_residual <= DEFAULT_TOL.effective(4, 4)
    split = cert.jordan
    assert (split.p, split.q) == (1, 1)
    rho = operator_norm(phi.matrix - rectangular_rebuild(phi, 1, 1, split.w))
    if step:
        assert split.residual == pytest.approx(rho, rel=1e-9, abs=0)
    else:
        assert max(split.residual, rho) <= 1e-14


def test_rectangular_split_uses_the_square_bound():
    """A split passes only when 2 sqrt(n) rho + n rho^2 passes the band at
    m x m, as a square Preserver does; rho alone under tol_eff is not enough."""
    phi = scaled_embedding()
    g = complex_gaussian(16, 1, np.random.default_rng(3))[:, 0]
    phi = moved_column(phi, 1, 0, 3e-8 * g / np.linalg.norm(g))
    teff = DEFAULT_TOL.effective(4, 4)
    cert = classify_preserver(phi)
    assert cert.v_unitarity_residual <= teff
    split = cert.jordan
    assert teff / (2 * math.sqrt(2)) < split.residual <= teff
    assert (split.p, split.q) == (-1, -1)
    assert split.w is None and split.e is None
    assert cert.verdict is PreserverVerdict.INCONCLUSIVE and cert.reason == "theorem-scope"


def test_rectangular_garbage_map_diagnostics():
    rng = np.random.default_rng(0)
    phi = SuperOperator(2, 3, complex_gaussian(9, 4, rng))
    cert = classify_preserver(phi)
    assert cert.verdict is PreserverVerdict.INCONCLUSIVE
    assert cert.reason == "theorem-scope"


# -------------------------------------------------------------- falsifier


def test_falsifier_passes_identity():
    assert falsify_by_sampling(identity_map(3), trials=100, seed=1) is None


def test_falsifier_catches_contraction_immediately():
    phi = from_left_right(np.diag([1.0, 0.5]).astype(complex), np.eye(2))
    witness = falsify_by_sampling(phi, trials=1, seed=2)
    assert witness is not None
    assert unitarity_defect(apply(phi, witness)) > 0.1


def test_falsifier_is_deterministic_in_seed():
    phi = trace_pinch_map(2)
    w1 = falsify_by_sampling(phi, trials=5, seed=9)
    w2 = falsify_by_sampling(phi, trials=5, seed=9)
    assert np.array_equal(w1, w2)


def test_falsifier_needs_trials():
    with pytest.raises(ValueError):
        falsify_by_sampling(identity_map(2), trials=0, seed=0)


def test_cross_oracle_agreement_sample():
    """classify_preserver and the sampling falsifier must tell the same
    story on a mixed bag of clean and broken maps."""
    for k in range(30):
        n = 2 + k % 3
        base = from_left_right(haar_unitary(n, 700 + k), haar_unitary(n, 800 + k))
        if k % 2:
            phi = perturb(base, 1e-2, seed=k)
        else:
            phi = base
        cert = classify_preserver(phi, seed=k)
        witness = falsify_by_sampling(phi, trials=100, seed=1000 + k)
        if cert.verdict is PreserverVerdict.PRESERVER:
            assert witness is None
        elif cert.verdict is PreserverVerdict.NOT_PRESERVER:
            assert witness is not None


# ---------------------------------------------------------------- perturb


def test_perturb_zero_is_identity_operation():
    phi = identity_map(2)
    assert perturb(phi, 0.0, 5) is phi


def test_perturb_has_exact_operator_norm():
    phi = identity_map(3)
    for eps in (1e-3, 1e-2, 0.5):
        out = perturb(phi, eps, seed=4)
        assert operator_norm(out.matrix - phi.matrix) == pytest.approx(eps, abs=1e-12)


def test_perturb_rejects_negative():
    with pytest.raises(ValueError):
        perturb(identity_map(2), -1e-3, 0)


# ------------------------------------------------------ identity audits


def test_identity_residuals_vanish_for_preservers():
    hom = from_left_right(haar_unitary(3, 11), haar_unitary(3, 12))
    anti = compose(hom, transpose_map(3))
    for phi in (hom, anti):
        res = identity_residuals(phi, samples=50, seed=3)
        assert set(res) == {
            "hermitian_square",
            "polarized_product",
            "range_alignment",
            "jordan_unitary",
        }
        assert max(res.values()) <= 1e-12


def identity_residuals_through_psi_map(phi, samples, seed):
    """The audit evaluated with psi = v* . phi built as a superoperator."""
    n = phi.dim_in
    rng = np.random.default_rng(seed)
    v = apply(phi, np.eye(n))
    psi = superop.left_multiplier(adjoint(v), phi)
    two_eye = 2 * np.eye(n)
    out = dict.fromkeys(
        ["hermitian_square", "polarized_product", "range_alignment", "jordan_unitary"], 0.0
    )

    def contraction():
        g = complex_gaussian(n, n, rng)
        return g / max(1.0, operator_norm(g))

    def worst(key, residual):
        out[key] = max(out[key], operator_norm(residual))

    for _ in range(samples):
        h = complex_gaussian(n, n, rng)
        s = (h + h.conj().T) / 2
        s = s / max(1.0, operator_norm(s))
        fs = apply(phi, s)
        worst("hermitian_square", adjoint(fs) @ fs - adjoint(v) @ apply(phi, s @ s))
        a, b = contraction(), contraction()
        lhs = adjoint(apply(phi, adjoint(a))) @ apply(phi, b)
        lhs = lhs + adjoint(apply(phi, adjoint(b))) @ apply(phi, a)
        worst("polarized_product", lhs - adjoint(v) @ apply(phi, a @ b + b @ a))
        u = haar_from_rng(n, rng)
        w = apply(phi, u)
        worst(
            "range_alignment",
            adjoint(w) @ v @ adjoint(v) @ w + adjoint(v) @ w @ adjoint(w) @ v - two_eye,
        )
        pu = apply(psi, u)
        worst("jordan_unitary", adjoint(pu) @ pu + pu @ adjoint(pu) - two_eye)
    return out


@pytest.mark.parametrize(
    "label, n, samples",
    [
        pytest.param("hom", 4, 20, id="hom"),
        pytest.param("anti", 4, 20, id="anti"),
        pytest.param("pinch", 4, 20, id="pinch"),
        # stacks hold at most 64 samples: one, exactly one full, one spilling
        # over by a sample, and a part-filled third
        pytest.param("anti", 3, 1, id="anti-samples-1"),
        pytest.param("pinch", 3, 64, id="pinch-samples-64"),
        pytest.param("hom", 2, 65, id="hom-samples-65"),
        pytest.param("perturbed", 3, 130, id="perturbed-samples-130"),
        pytest.param("hom", 1, 65, id="hom-n-1"),
        pytest.param("perturbed", 1, 20, id="perturbed-n-1"),
        pytest.param("perturbed", 4, 20, id="perturbed"),
    ],
)
def test_identity_residuals_match_the_psi_map(label, n, samples):
    phi = {
        "hom": lambda: generate(InstanceSpec(n=n, kind=InstanceKind.HOM_PRESERVER, seed=5)),
        "anti": lambda: generate(InstanceSpec(n=n, kind=InstanceKind.ANTI_PRESERVER, seed=6)),
        "pinch": lambda: trace_pinch_map(n),
        "perturbed": lambda: generate(
            InstanceSpec(n=n, kind=InstanceKind.PERTURBED_PRESERVER, seed=8, epsilon=1e-2)
        ),
    }[label]()
    got = identity_residuals(phi, samples=samples, seed=7)
    expected = identity_residuals_through_psi_map(phi, samples=samples, seed=7)
    assert got.keys() == expected.keys()
    for key in got:
        assert got[key] == pytest.approx(expected[key], abs=1e-12)


def test_identity_residuals_memory_does_not_grow_with_samples():
    """Samples are scored in stacks of at most 64, so the peak traced memory
    of the audit at n = 8 is about the same for 64 and 640 samples."""
    phi = generate(InstanceSpec(n=8, kind=InstanceKind.ANTI_PRESERVER, seed=2))

    def peak(samples):
        tracemalloc.start()
        try:
            identity_residuals(phi, samples=samples, seed=1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(640) <= 1.5 * peak(64)


def test_identity_residuals_expose_trace_pinch():
    res = identity_residuals(trace_pinch_map(2), samples=50, seed=0)
    assert res["hermitian_square"] > 0.1
    assert res["jordan_unitary"] > 0.1


def test_identity_residuals_reject_rectangular():
    rng = np.random.default_rng(1)
    with pytest.raises(ValueError):
        identity_residuals(SuperOperator(2, 3, complex_gaussian(9, 4, rng)))
    with pytest.raises(ValueError):
        identity_residuals(identity_map(2), samples=0)
