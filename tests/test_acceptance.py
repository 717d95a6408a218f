"""Acceptance gate: nine quantitative criteria for the whole package.

Each test prints a single ``[acceptance] ... PASS``/``FAIL`` line with the
measured numbers (run pytest with ``-s`` to see the lines on success) and
then asserts.  Thresholds are deliberately those the package promises in
its API docs, not looser ones.
"""

import numpy as np
import pytest

from unitball.extremal import (
    ExtremeVerdict,
    StarAlgebraBasis,
    contraction_mean_of_unitaries,
    kadison_extreme_test,
    selfadjoint_mean_of_unitaries,
)
from unitball.gen import InstanceKind, InstanceSpec, corpus, derive_seed, generate, trace_pinch_map
from unitball.jordan import stormer_split
from unitball.linalg import (
    DEFAULT_TOL,
    complex_gaussian,
    haar_from_rng,
    hermitian_part,
    operator_norm,
    unitarity_defect,
    unitary_exp,
)
from unitball.preserver import (
    PreserverVerdict,
    classify_preserver,
    falsify_by_sampling,
    identity_residuals,
)
from unitball.superop import apply, compose, from_left_right, transpose_map

from map_norm import map_norm_lower_bound

TOL = 1e-8


def _report(tag: str, ok: bool, detail: str) -> None:
    line = f"[acceptance] {tag}: {'PASS' if ok else 'FAIL'} — {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def certified():
    """200 seeded conjugation maps (100 plain, 100 transposed), n in 2..8,
    classified once and shared by the round-trip, identity and norm tests."""
    out = []
    for i in range(100):
        n = 2 + (i % 7)
        for kind, base in (
            (InstanceKind.HOM_PRESERVER, 1000),
            (InstanceKind.ANTI_PRESERVER, 2000),
        ):
            spec = InstanceSpec(n=n, kind=kind, seed=base + i)
            phi = generate(spec)
            cert = classify_preserver(phi, seed=derive_seed("accept", base + i))
            out.append((spec, phi, cert))
    return out


def test_01_round_trip_certification(certified):
    """Two-sided conjugations are certified with the right transpose flag."""
    good = 0
    worst = 0.0
    for spec, _, cert in certified:
        want_flag = spec.kind is InstanceKind.ANTI_PRESERVER
        ok = (
            cert.verdict is PreserverVerdict.PRESERVER
            and cert.transpose_flag == want_flag
            and cert.reconstruction_residual <= TOL
        )
        good += ok
        if cert.reconstruction_residual is not None:
            worst = max(worst, cert.reconstruction_residual)
    _report(
        "1 round-trip",
        good == len(certified) == 200,
        f"{good}/200 certified, max reconstruction residual {worst:.3e}",
    )


def test_02_extreme_iff_unitary():
    """Kadison verdict on the full algebra == the plain unitary test."""
    disagreements = 0
    inconclusive = 0
    total = 0
    for n in (2, 3, 4):
        basis = StarAlgebraBasis.full(n)
        teff = DEFAULT_TOL.effective(n, n)
        rng = np.random.default_rng(derive_seed("extreme-sweep", n))
        ops = []
        for _ in range(500):
            u = haar_from_rng(n, rng)
            ops.append(u)
            ops.append(float(rng.choice([0.5, 0.9, 1.1, 2.0])) * haar_from_rng(n, rng))
            rank = int(rng.integers(1, n))
            mask = np.zeros(n)
            mask[:rank] = 1.0
            ops.append((haar_from_rng(n, rng) * mask) @ haar_from_rng(n, rng))
            g = complex_gaussian(n, n, rng)
            ops.append(g)
            ops.append(0.8 * g / operator_norm(g))
            ops.append(unitary_exp(hermitian_part(complex_gaussian(n, n, rng))))
        assert len(ops) >= 3000
        for a in ops:
            total += 1
            expected = unitarity_defect(a) <= teff
            rep = kadison_extreme_test(a, basis)
            inconclusive += rep.verdict is ExtremeVerdict.INCONCLUSIVE
            disagreements += (rep.verdict is ExtremeVerdict.EXTREME) != expected
    _report(
        "2 extreme-iff-unitary",
        disagreements == 0 and inconclusive == 0,
        f"{total} operators over n=2,3,4, {disagreements} disagreements, "
        f"{inconclusive} inconclusive",
    )


def test_03_structural_identities(certified):
    """All four structural identities hold on every certified map."""
    worst = 0.0
    for i, (_, phi, cert) in enumerate(certified):
        assert cert.verdict is PreserverVerdict.PRESERVER
        res = identity_residuals(phi, samples=50, seed=derive_seed("ids", i))
        worst = max(worst, max(res.values()))
    _report(
        "3 structural identities",
        worst <= TOL,
        f"max residual over 200 maps x 50 samples x 4 identities: {worst:.3e}",
    )


def test_04_negative_controls():
    """Pinches and perturbed conjugations are never certified, and every
    NotPreserver verdict ships a witness that demonstrably fails."""
    bad = []
    weakest_margin = np.inf

    def check(label, phi):
        nonlocal weakest_margin
        cert = classify_preserver(phi, seed=derive_seed("neg", label))
        if cert.verdict is PreserverVerdict.PRESERVER:
            bad.append((label, "certified"))
            return
        if cert.verdict is PreserverVerdict.NOT_PRESERVER:
            if cert.witness is None:
                bad.append((label, "no witness"))
                return
            image_defect = unitarity_defect(apply(phi, cert.witness))
            weakest_margin = min(weakest_margin, image_defect)
            if unitarity_defect(cert.witness) > TOL or image_defect <= TOL:
                bad.append((label, f"witness defect {image_defect:.2e}"))

    for n in (2, 3, 4):
        check(f"pinch-{n}", trace_pinch_map(n))
    for i in range(100):
        n = 2 + (i % 5)
        eps = 1e-3 if i % 2 == 0 else 1e-2
        spec = InstanceSpec(
            n=n, kind=InstanceKind.PERTURBED_PRESERVER, seed=4000 + i, epsilon=eps
        )
        check(f"perturbed-{i}", generate(spec))
    _report(
        "4 negative controls",
        not bad,
        f"3 pinches + 100 perturbed rejected, weakest witness margin "
        f"{weakest_margin:.3e}" + (f", failures: {bad[:3]}" if bad else ""),
    )


def test_05_splitting_multiplicities():
    """Block multiplicities of mixed sums are recovered exactly."""
    combos = [(p, q) for p in range(5) for q in range(5) if 1 <= p + q <= 4]
    exact = 0
    worst = 0.0
    for i in range(50):
        p, q = combos[i % len(combos)]
        n = 2 + (i % 2)
        spec = InstanceSpec(n=n, kind=InstanceKind.MIXED_JORDAN, seed=5000 + i, p=p, q=q)
        rep = stormer_split(generate(spec))
        exact += (rep.p, rep.q) == (p, q)
        worst = max(worst, rep.residual)
    _report(
        "5 splitting multiplicities",
        exact == 50 and worst <= TOL,
        f"{exact}/50 exact (p,q), max splitting residual {worst:.3e}",
    )


def test_06_endomorphism_dichotomy():
    """Unital conjugation endomorphisms always split trivially: the central
    projection is 0 or I, never proper."""
    trivial = 0
    max_dist = 0.0
    for i in range(100):
        n = 2 + (i % 5)
        rng = np.random.default_rng(derive_seed("endo", i))
        u = haar_from_rng(n, rng)
        psi = from_left_right(u, u.conj().T)
        if i >= 50:
            psi = compose(psi, transpose_map(n))
        rep = stormer_split(psi)
        dist = min(operator_norm(rep.e), operator_norm(rep.e - np.eye(n)))
        trivial += dist <= TOL
        max_dist = max(max_dist, dist)
    _report(
        "6 endomorphism dichotomy",
        trivial == 100,
        f"{trivial}/100 central projections trivial, max distance to {{0, I}} "
        f"{max_dist:.3e}",
    )


def test_07_contraction_means():
    """Contractions decompose into genuine unitaries that average back."""
    worst_rec = 0.0
    worst_factor = 0.0
    rng = np.random.default_rng(derive_seed("means"))
    for i in range(500):
        n = 2 + (i % 7)
        h = hermitian_part(complex_gaussian(n, n, rng))
        h = h / max(1.0, operator_norm(h))
        u_plus, u_minus = selfadjoint_mean_of_unitaries(h)
        worst_rec = max(worst_rec, operator_norm((u_plus + u_minus) / 2 - h))
        worst_factor = max(worst_factor, unitarity_defect(u_plus), unitarity_defect(u_minus))
    for i in range(500):
        n = 2 + (i % 7)
        a = complex_gaussian(n, n, rng)
        a = (0.2, 0.7, 1.0)[i % 3] * a / operator_norm(a)
        factors, weights = contraction_mean_of_unitaries(a)
        mean = sum(w * u for w, u in zip(weights, factors))
        worst_rec = max(worst_rec, operator_norm(mean - a))
        worst_factor = max(worst_factor, max(unitarity_defect(u) for u in factors))
        assert abs(sum(weights) - 1.0) <= 1e-12
    _report(
        "7 contraction means",
        worst_rec <= 1e-10 and worst_factor <= 1e-10,
        f"1000 decompositions, max reconstruction {worst_rec:.3e}, "
        f"max factor defect {worst_factor:.3e}",
    )


def test_08_norm_bounds(certified):
    """Certified maps are isometric on the unit ball; a doubling map is not."""
    worst = 0.0
    for i, (_, phi, _) in enumerate(certified):
        worst = max(worst, map_norm_lower_bound(phi, samples=32, seed=derive_seed("norm", i)))
    doubling = from_left_right(2.0 * np.eye(4), np.eye(4))
    double_bound = map_norm_lower_bound(doubling, samples=16, seed=0)
    _report(
        "8 norm bounds",
        worst <= 1.0 + TOL and double_bound >= 2.0 - TOL,
        f"max preserver bound {worst:.12f}, doubling bound {double_bound:.12f}",
    )


def test_09_pipeline_vs_falsifier():
    """On the labelled corpus the pipeline verdict and the one-sided
    sampling falsifier never contradict each other."""
    instances = corpus(sizes=[2, 3, 4], per_kind=25, seed=9)
    disagreements = 0
    skipped = 0
    decided = 0
    for idx, (spec, phi) in enumerate(instances):
        cert = classify_preserver(phi, seed=derive_seed("agree", idx))
        if cert.verdict is PreserverVerdict.INCONCLUSIVE:
            skipped += 1
            continue
        decided += 1
        witness = falsify_by_sampling(phi, trials=100, seed=derive_seed("falsify", idx))
        found = witness is not None
        if found != (cert.verdict is PreserverVerdict.NOT_PRESERVER):
            disagreements += 1
    _report(
        "9 oracle agreement",
        disagreements == 0 and decided > 0,
        f"{len(instances)} corpus instances, {decided} decided, "
        f"{skipped} out-of-scope, {disagreements} disagreements",
    )
