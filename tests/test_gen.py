"""Instance generator tests: determinism down to the bit, correct labels,
and every kind classifying the way its construction promises."""

import tracemalloc

import numpy as np
import pytest

from unitball.gen import InstanceKind, InstanceSpec, corpus, derive_seed, generate, trace_pinch_map
from unitball.jordan import stormer_split
from unitball.linalg import complex_gaussian, operator_norm, unitarity_defect
from unitball.preserver import PreserverVerdict, classify_preserver
from unitball.superop import apply, compose, transpose_map


def test_derive_seed_is_stable_and_sensitive():
    a = derive_seed(7, "hom", 2, 0)
    assert a == derive_seed(7, "hom", 2, 0)
    assert a != derive_seed(7, "hom", 2, 1)
    assert a != derive_seed(8, "hom", 2, 0)
    assert 0 <= a < 2**63


def test_spec_validation():
    with pytest.raises(ValueError):
        InstanceSpec(n=0, kind=InstanceKind.HOM_PRESERVER, seed=1)
    with pytest.raises(ValueError):
        InstanceSpec(n=2, kind=InstanceKind.MIXED_JORDAN, seed=1, p=0, q=0)
    with pytest.raises(ValueError):
        InstanceSpec(n=2, kind=InstanceKind.HOM_PRESERVER, seed=1, p=-1)
    for epsilon in (-0.1, float("nan"), float("inf"), 1e400):
        with pytest.raises(ValueError, match="epsilon must be finite and nonnegative"):
            InstanceSpec(n=2, kind=InstanceKind.PERTURBED_PRESERVER, seed=1, epsilon=epsilon)


def test_kind_labels_round_trip():
    for kind in InstanceKind:
        assert InstanceKind(kind.value) is kind


def test_generate_is_bit_deterministic():
    for kind in InstanceKind:
        extra = {"p": 1, "q": 1} if kind is InstanceKind.MIXED_JORDAN else {}
        if kind is InstanceKind.PERTURBED_PRESERVER:
            extra["epsilon"] = 1e-3
        spec = InstanceSpec(n=3, kind=kind, seed=7, **extra)
        assert np.array_equal(generate(spec).matrix, generate(spec).matrix), kind


def test_trace_pinch_map_action():
    rng = np.random.default_rng(0)
    phi = trace_pinch_map(3)
    a = complex_gaussian(3, 3, rng)
    assert np.allclose(apply(phi, a), (np.trace(a) / 3) * np.eye(3), atol=1e-13)


def test_hom_instance_certifies():
    phi = generate(InstanceSpec(n=4, kind=InstanceKind.HOM_PRESERVER, seed=3))
    cert = classify_preserver(phi)
    assert cert.verdict is PreserverVerdict.PRESERVER
    assert not cert.transpose_flag


def test_anti_instance_permutes_the_hom_columns():
    """Anti is Hom of the same seed composed with the transpose, built as a
    column permutation: bit-identical to the product, and at n = 12 it
    peaks under 2.5 matrices (the product with the n^2 x n^2 permutation
    matrix peaked at 4)."""
    n = 12
    hom = generate(InstanceSpec(n=n, kind=InstanceKind.HOM_PRESERVER, seed=5))
    tracemalloc.start()
    try:
        anti = generate(InstanceSpec(n=n, kind=InstanceKind.ANTI_PRESERVER, seed=5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * anti.matrix.nbytes
    assert np.array_equal(anti.matrix, compose(hom, transpose_map(n)).matrix)


def test_anti_instance_certifies_with_flag():
    phi = generate(InstanceSpec(n=4, kind=InstanceKind.ANTI_PRESERVER, seed=11))
    cert = classify_preserver(phi)
    assert cert.verdict is PreserverVerdict.PRESERVER
    assert cert.transpose_flag


def test_mixed_instance_splits_with_declared_multiplicities():
    spec = InstanceSpec(n=2, kind=InstanceKind.MIXED_JORDAN, seed=5, p=1, q=1)
    psi = generate(spec)
    assert (psi.dim_in, psi.dim_out) == (2, 4)
    rep = stormer_split(psi)
    assert (rep.p, rep.q) == (1, 1)
    assert rep.residual <= 1e-10


def test_trace_pinch_instance_is_rejected():
    phi = generate(InstanceSpec(n=3, kind=InstanceKind.TRACE_PINCH, seed=0))
    assert classify_preserver(phi).verdict is PreserverVerdict.NOT_PRESERVER


def test_perturbed_instance_is_never_certified():
    for seed in range(4):
        spec = InstanceSpec(n=3, kind=InstanceKind.PERTURBED_PRESERVER, seed=seed, epsilon=1e-2)
        assert classify_preserver(generate(spec)).verdict is not PreserverVerdict.PRESERVER


def test_contraction_instance_shrinks_the_identity():
    phi = generate(InstanceSpec(n=3, kind=InstanceKind.RANDOM_CONTRACTION, seed=2))
    v = apply(phi, np.eye(3))
    assert operator_norm(v) < 1.0
    assert unitarity_defect(v) > 0.1
    assert classify_preserver(phi).verdict is PreserverVerdict.NOT_PRESERVER


def test_corpus_layout_and_determinism():
    first = corpus(sizes=[2], per_kind=1, seed=7)
    again = corpus(sizes=[2], per_kind=1, seed=7)
    assert len(first) == len(InstanceKind)
    assert [s.kind for s, _ in first] == list(InstanceKind)
    for (s1, m1), (s2, m2) in zip(first, again):
        assert s1 == s2
        assert np.array_equal(m1.matrix, m2.matrix)


def test_corpus_parameter_conventions():
    entries = corpus(sizes=[2], per_kind=2, seed=1)
    mixed = [s for s, _ in entries if s.kind is InstanceKind.MIXED_JORDAN]
    assert all((s.p, s.q) == (1, 1) for s in mixed)
    perturbed = [s for s, _ in entries if s.kind is InstanceKind.PERTURBED_PRESERVER]
    assert sorted(s.epsilon for s in perturbed) == [1e-3, 1e-2]


def test_corpus_rejects_empty_budget():
    with pytest.raises(ValueError):
        corpus(sizes=[2], per_kind=0, seed=1)
