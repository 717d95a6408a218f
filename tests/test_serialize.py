"""File format tests.  Round-trips must be bit-exact: a parsed serialization
compares equal entry by entry, with no tolerance.  Reports are written,
never read back, so their tests check the JSON text the writers emit."""

import gc
import json
from dataclasses import asdict, fields

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from unitball import cli, serialize as ser
from unitball.extremal import IsometryClass, StarAlgebraBasis, kadison_extreme_test
from unitball.gen import InstanceKind, InstanceSpec, trace_pinch_map
from unitball.jordan import StormerSplit
from unitball.linalg import (
    Tolerance,
    complex_gaussian,
    haar_unitary,
    matrix_unit,
    operator_norm,
    unitarity_defect,
)
from unitball.preserver import classify_preserver
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


def roundtrip(obj):
    """Serialize through actual JSON text, as the CLI would."""
    return json.loads(ser.dump_json(obj))


# --------------------------------------------------------------- matrices


def test_matrix_bit_exact_round_trip():
    rng = np.random.default_rng(3)
    a = complex_gaussian(4, 7, rng)
    back = ser.matrix_from_obj(roundtrip(ser.matrix_to_obj(a)))
    assert back.dtype == np.complex128
    assert np.array_equal(back, a)
    # in memory, without JSON text
    assert np.array_equal(ser.matrix_from_obj(ser.matrix_to_obj(a)), a)


_EDGE_DOUBLES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308]


@given(arrays(
    np.float64,
    st.tuples(st.integers(1, 4), st.integers(1, 4), st.just(2)),
    elements=st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(_EDGE_DOUBLES)),
))
@example(np.array(_EDGE_DOUBLES + [1.0]).reshape(1, 4, 2))
@settings(max_examples=200, deadline=None)
def test_file_round_trip_is_bit_exact(tmp_path_factory, parts):
    """A matrix written by save_json and read back by load_json has the
    same bits in every entry: subnormals, signed zeros and the largest
    finite doubles included."""
    a = parts.view(np.complex128).reshape(parts.shape[:2])
    path = str(tmp_path_factory.mktemp("roundtrip") / "m.json")
    ser.save_json(path, ser.matrix_to_obj(a))
    back = ser.matrix_from_obj(ser.load_json(path))
    assert np.array_equal(back.view(np.int64), a.view(np.int64))


@given(st.integers(1, 4).flatmap(
    lambda k: st.lists(st.integers(-10**30, 10**30), min_size=2 * k, max_size=2 * k)
))
@example([2**63 - 1, 2**63, 2**64 - 1, 2**64, -2**63, -2**63 - 1, 2**53 + 1, 2**64 + 2**11])
@example([10**30, -10**30])
@settings(max_examples=200, deadline=None)
def test_integer_entries_parse_to_the_nearest_double(tmp_path_factory, ints):
    """An integer entry in a file reads as np.float64(int), the correctly
    rounded double, beyond 64 bits and at rounding ties too."""
    doc = {"rows": 1, "cols": len(ints) // 2, "entries": [[ints[k : k + 2] for k in range(0, len(ints), 2)]]}
    path = tmp_path_factory.mktemp("ints") / "m.json"
    # json, not save_json: a report's writer takes no integer beyond 64 bits
    path.write_text(json.dumps(doc))
    back = ser.matrix_from_obj(ser.load_json(str(path))).view(np.float64).ravel()
    assert np.array_equal(back.view(np.int64), np.array([np.float64(x) for x in ints]).view(np.int64))


@pytest.mark.parametrize("shape", [(1, 1), (3, 5), (12, 12)])
def test_matrix_text_matches_an_entry_loop(shape):
    """The writer emits the text a loop over the entries as floats would,
    signed zeros and subnormals included, for C-ordered and strided input."""
    rng = np.random.default_rng(shape[0] * shape[1])
    a = complex_gaussian(*shape, rng) * 10.0 ** rng.integers(-300, 300, size=shape)
    special = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1e308, -1.5]
    flat = a.reshape(-1)
    for k in range(flat.size):
        flat[k] = complex(special[k % len(special)], special[(3 * k + 1) % len(special)])
        if k == 2 * len(special):
            break
    for b in (a, a.T, a[::-1, ::2]):
        looped = {
            "rows": b.shape[0],
            "cols": b.shape[1],
            "entries": [[[float(z.real), float(z.imag)] for z in row] for row in b],
        }
        assert ser.dump_json(ser.matrix_to_obj(b)) == ser.dump_json(looped)


def test_matrix_schema_errors():
    good = ser.matrix_to_obj(np.eye(2))
    for breakage in (
        lambda o: o.pop("rows"),
        lambda o: o.__setitem__("rows", "2"),
        lambda o: o.__setitem__("entries", [[[1.0, 0.0]]]),
        lambda o: o["entries"][0].__setitem__(0, [1.0]),
        lambda o: o.__setitem__("rows", 0),
        lambda o: o["entries"][0].__setitem__(0, (1.0, 0.0)),
        lambda o: o["entries"][1].pop(),
        lambda o: o["entries"][0][0].__setitem__(0, True),
        lambda o: o["entries"][0][0].__setitem__(0, "1.0"),
        lambda o: o["entries"][1][1].__setitem__(1, None),
        lambda o: o["entries"][0][1].__setitem__(0, float("inf")),
        lambda o: o["entries"][0][1].__setitem__(0, 10**400),
    ):
        broken = json.loads(json.dumps(good))
        breakage(broken)
        with pytest.raises(ser.FormatError):
            ser.matrix_from_obj(broken)


def test_matrix_rejects_nonfinite_on_load(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"rows": 1, "cols": 1, "entries": [[[Infinity, 0.0]]]}')
    with pytest.raises(ser.FormatError):
        ser.load_json(str(path))


def test_load_json_missing_file_and_truncated(tmp_path):
    with pytest.raises(ser.FormatError):
        ser.load_json(str(tmp_path / "absent.json"))
    path = tmp_path / "cut.json"
    path.write_text('{"rows": 2, "cols"')
    with pytest.raises(ser.FormatError):
        ser.load_json(str(path))


# ----------------------------------------------------------- superoperators


def test_superop_round_trip_and_convention_tag():
    phi = from_left_right(haar_unitary(2, 1), haar_unitary(2, 2))
    obj = ser.superop_to_obj(phi)
    assert obj["vec_convention"] == "column-stacking"
    back = ser.superop_from_obj(roundtrip(obj))
    assert (back.dim_in, back.dim_out) == (2, 2)
    assert np.array_equal(back.matrix, phi.matrix)


def test_superop_requires_convention_literal():
    obj = ser.superop_to_obj(identity_map(2))
    del obj["vec_convention"]
    with pytest.raises(ser.FormatError):
        ser.superop_from_obj(obj)
    obj = ser.superop_to_obj(identity_map(2))
    obj["vec_convention"] = "row-stacking"
    with pytest.raises(ser.FormatError):
        ser.superop_from_obj(obj)


def test_superop_dimension_consistency():
    obj = ser.superop_to_obj(identity_map(2))
    obj["dim_out"] = 3
    with pytest.raises(ser.FormatError):
        ser.superop_from_obj(obj)


def test_superop_ignores_extra_metadata():
    obj = ser.superop_to_obj(identity_map(2))
    obj["meta"] = {"anything": [1, 2, 3]}
    back = ser.superop_from_obj(obj)
    assert np.array_equal(back.matrix, np.eye(4))


# ------------------------------------------------------------------ algebra


def test_algebra_document_parses():
    units = [matrix_unit(2, i, i) for i in range(2)]
    obj = {"n": 2, "elements": [ser.matrix_to_obj(e) for e in units]}
    n, elems = ser.algebra_elements_from_obj(roundtrip(obj))
    assert n == 2 and elems.shape == (2, 2, 2) and elems.dtype == np.complex128
    assert np.array_equal(elems, units)
    StarAlgebraBasis(elems)  # validates as a *-algebra


def _set(path, value):
    """A breakage that sets the item at ``path`` of a document to ``value``."""

    def breakage(doc):
        *head, last = path
        for key in head:
            doc = doc[key]
        doc[last] = value

    return breakage


# each breaks a valid two-element document on M_2 in one way, in its second
# element where the fault is an element's
_ALGEBRA_BREAKAGES = {
    "other-shape": _set(("elements", 1), ser.matrix_to_obj(np.eye(3))),
    "no-elements": _set(("elements",), []),
    "bool-entry": _set(("elements", 1, "entries", 0, 1, 0), True),
    "numeric-string": _set(("elements", 1, "entries", 1, 1, 1), "1.0"),
    "ragged-row": _set(("elements", 1, "entries", 1), [[0.0, 0.0]]),
    "3-long-pair": _set(("elements", 1, "entries", 0, 0), [0.0, 0.0, 0.0]),
    "out-of-range": _set(("elements", 1, "entries", 1, 0, 0), 10**400),
    "rows-not-n": _set(("elements", 1, "rows"), 3),
    "cols-not-n": _set(("elements", 1, "cols"), 1),
    "n-zero": _set(("n",), 0),
    "entries-not-a-list": _set(("elements", 1, "entries"), {"0": [[0.0, 0.0], [0.0, 0.0]]}),
}


def test_algebra_document_shape_mismatch(tmp_path, capsys):
    """A document broken in any one way is refused by the parser, and
    ``check-extreme --algebra`` exits 65 on it with one stderr line."""
    mpath, apath = tmp_path / "w.json", tmp_path / "algebra.json"
    ser.save_json(str(mpath), ser.matrix_to_obj(np.eye(2)))
    for name, breakage in _ALGEBRA_BREAKAGES.items():
        doc = {"n": 2, "elements": [ser.matrix_to_obj(np.eye(2)), ser.matrix_to_obj(matrix_unit(2, 1, 1))]}
        breakage(doc)
        with pytest.raises(ser.FormatError):
            ser.algebra_elements_from_obj(doc)
        apath.write_text(json.dumps(doc))
        assert cli.main(["check-extreme", str(mpath), "--algebra", str(apath)]) == 65, name
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1, name


# ------------------------------------------------------------------ reports


def test_tolerance_round_trip():
    tol = Tolerance(abs=3e-7)
    obj = roundtrip(ser.to_obj(tol))
    assert obj == {"abs": 3e-7}
    assert Tolerance(**obj) == tol


def test_extreme_report_round_trip():
    rep = kadison_extreme_test(matrix_unit(2, 0, 0), StarAlgebraBasis.full(2))
    obj = roundtrip(ser.to_obj(rep))
    expected = {**asdict(rep), "verdict": "NotExtreme"}
    # check-extreme writes the class beside the report object, not in it
    assert expected.pop("isometry_class") is IsometryClass.PARTIAL_ISOMETRY
    assert obj == expected


def test_rectangular_certificate_round_trip():
    """The split of a rectangular map is emitted as p, q, W, its residual and
    the residual's norm, and the emitted W rebuilds the map with v = phi(I) on the left."""
    n, w0 = 2, haar_unitary(6, 23)
    phi = direct_sum_embedding([BlockKind.TRANSPOSE, BlockKind.ID, BlockKind.TRANSPOSE], w0)
    cert = classify_preserver(phi)
    obj = roundtrip(ser.to_obj(cert))
    assert (obj["verdict"], obj["reason"]) == ("Inconclusive", "theorem-scope")
    split = obj["jordan"]
    assert sorted(split) == ["p", "q", "residual", "residual_norm", "w"]
    assert (split["p"], split["q"]) == (cert.jordan.p, cert.jordan.q) == (1, 2)
    assert split["residual"] == cert.jordan.residual <= 1e-13
    assert split["residual_norm"] == cert.jordan.residual_norm == "frobenius"
    w, v = ser.matrix_from_obj(split["w"]), ser.matrix_from_obj(obj["v"])
    assert np.array_equal(w, cert.jordan.w)
    rng = np.random.default_rng(8)
    for _ in range(3):
        a = complex_gaussian(n, n, rng)
        j = np.zeros((6, 6), dtype=complex)
        j[:2, :2], j[2:, 2:] = a, np.kron(a.T, np.eye(2))  # A kron I_1 + A^tr kron I_2
        assert operator_norm(v @ w @ j @ w.conj().T - apply(phi, a)) <= 1e-13


def test_certificate_round_trip_positive_case():
    n = 3
    phi = compose(
        from_left_right(haar_unitary(n, 5), haar_unitary(n, 6)), transpose_map(n)
    )
    cert = classify_preserver(phi, seed=9)
    obj = roundtrip(ser.to_obj(cert))
    assert (obj["verdict"], obj["kind"], obj["transpose_flag"]) == ("Preserver", "Anti", True)
    assert obj["seed"] == 9
    assert obj["reconstruction_residual"] == cert.reconstruction_residual
    assert np.array_equal(ser.matrix_from_obj(obj["v"]), cert.v)
    # the emitted factors rebuild the input map
    rebuilt = compose(
        from_left_right(ser.matrix_from_obj(obj["u_left"]), ser.matrix_from_obj(obj["v_right"])),
        transpose_map(n),
    )
    assert operator_norm(rebuilt.matrix - phi.matrix) <= 1e-12
    assert obj["witness"] is None and obj["witness_defect"] is None
    assert obj["jordan"] is None and "w" not in obj


def test_certificate_round_trip_negative_case():
    phi = trace_pinch_map(2)
    cert = classify_preserver(phi, seed=4)
    obj = roundtrip(ser.to_obj(cert))
    # P = I/2 has no eigenvalue above 1/2: the read-off ranks give no candidate
    assert (obj["verdict"], obj["reason"]) == ("NotPreserver", "unitary-recovery-failed")
    witness = ser.matrix_from_obj(obj["witness"])
    assert np.array_equal(witness, cert.witness)
    assert obj["witness_defect"] == cert.witness_defect
    assert obj["witness_defect"] == unitarity_defect(apply(phi, witness))
    assert (obj["kind"], obj["u_left"], obj["v_right"]) == ("None", None, None)
    assert obj["reconstruction_residual"] is None
    assert "w" not in obj


def test_mismatch_certificate_carries_its_candidate():
    """A -> U (A + A^tr) V / 2 is read off as one form and rejected; the
    report carries that candidate and its residual, which the emitted
    factors reproduce."""
    n = 3
    hom = from_left_right(haar_unitary(n, 5), haar_unitary(n, 6))
    phi = SuperOperator(n, n, (hom.matrix + compose(hom, transpose_map(n)).matrix) / 2)
    cert = classify_preserver(phi, seed=4)
    obj = roundtrip(ser.to_obj(cert))
    assert (obj["verdict"], obj["reason"]) == ("NotPreserver", "reconstruction-mismatch")
    assert obj["kind"] == cert.kind.value != "None"
    assert obj["transpose_flag"] == cert.transpose_flag
    assert obj["reconstruction_residual"] == cert.reconstruction_residual
    u, v = ser.matrix_from_obj(obj["u_left"]), ser.matrix_from_obj(obj["v_right"])
    assert np.array_equal(u, cert.u_left) and np.array_equal(v, cert.v_right)
    rebuilt = from_left_right(u, v)
    if obj["transpose_flag"]:
        rebuilt = compose(rebuilt, transpose_map(n))
    assert obj["reconstruction_residual"] == pytest.approx(
        operator_norm(phi.matrix - rebuilt.matrix), rel=1e-12
    )
    assert "w" not in obj


def test_to_obj_writes_each_record_in_field_order():
    """A report's keys are its record's fields in declaration order, less
    the hidden ones: the retired ``w``, the split's decision internals and
    the isometry class ``check-extreme`` writes beside the report."""
    n = 3
    hom = from_left_right(haar_unitary(n, 5), haar_unitary(n, 6))
    mixture = SuperOperator(n, n, (hom.matrix + compose(hom, transpose_map(n)).matrix) / 2)
    rect = direct_sum_embedding([BlockKind.ID, BlockKind.TRANSPOSE], haar_unitary(2 * n, 23))
    certs = [classify_preserver(phi, seed=4) for phi in (hom, mixture, rect)]
    assert [c.reason for c in certs] == ["", "reconstruction-mismatch", "theorem-scope"]
    records = [
        *certs,
        certs[2].jordan,
        kadison_extreme_test(matrix_unit(2, 0, 0), StarAlgebraBasis.full(2)),
        InstanceSpec(n=2, kind=InstanceKind.MIXED_JORDAN, seed=12, p=2, q=1),
        Tolerance(abs=3e-7),
    ]
    for record in records:
        names = [f.name for f in fields(record) if not f.metadata.get("hidden")]
        assert list(roundtrip(ser.to_obj(record))) == names
    # the report formats themselves, which a reordered field would change
    assert list(roundtrip(ser.to_obj(certs[0]))) == [
        "verdict", "v", "v_unitarity_residual", "jordan", "kind", "u_left", "v_right",
        "transpose_flag", "reconstruction_residual", "residual_norm", "witness", "witness_defect",
        "seed", "reason",
    ]
    assert list(roundtrip(ser.to_obj(records[4]))) == [
        "verdict", "defect_left", "defect_right", "is_partial_isometry", "kadison_residual",
        "margin", "witness_index",
    ]
    assert list(roundtrip(ser.to_obj(certs[2]))["jordan"]) == ["p", "q", "w", "residual", "residual_norm"]
    hidden = {f"{type(r).__name__}.{f.name}" for r in records for f in fields(r) if f.metadata.get("hidden")}
    assert hidden == {
        "PreserverCertificate.w",
        "StormerSplit.passed",
        "StormerSplit.worst",
        "ExtremePointReport.isometry_class",
    }


def test_instance_spec_round_trip():
    spec = InstanceSpec(n=2, kind=InstanceKind.MIXED_JORDAN, seed=12, p=2, q=1)
    obj = roundtrip(ser.to_obj(spec))
    assert obj == {"n": 2, "kind": "mixed", "seed": 12, "p": 2, "q": 1, "epsilon": 0.0}


def test_run_info_fields():
    info = ser.run_info(Tolerance(), seed=5, wall_time_s=0.25)
    assert info["tool"] == "unitball"
    assert info["rng"] == "numpy-pcg64"
    assert info["seed"] == 5
    assert info["tolerance"] == {"abs": 1e-8}
    assert "version" in info and info["wall_time_s"] == 0.25
    assert "seed" not in ser.run_info(Tolerance(), seed=None, wall_time_s=0.1)


def test_save_and_load_files(tmp_path):
    path = tmp_path / "m.json"
    a = complex_gaussian(3, 3, np.random.default_rng(8))
    ser.save_json(str(path), ser.matrix_to_obj(a))
    assert np.array_equal(ser.matrix_from_obj(ser.load_json(str(path))), a)


# ------------------------------------------------------------ report writer


_NON_FINITE = [float("nan"), float("inf"), float("-inf")]


def _bad_matrix(x):
    obj = ser.matrix_to_obj(np.eye(2))
    obj["entries"][1][0][1] = x
    return {"certificate": {"v": obj}}


@pytest.mark.parametrize("x", _NON_FINITE, ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("place", [
    lambda x: {"jordan": ser.to_obj(StormerSplit(1, 0, None, x, "operator"))},
    _bad_matrix,
    lambda x: {"run": {"tolerance": {"abs": 1e-8}, "wall_time_s": x}},
    lambda x: {"residuals": [0.5, [1.0, x]]},
], ids=["record-field", "matrix-entry", "dict-value", "list-value"])
def test_dump_json_refuses_a_non_finite_number(place, x):
    """orjson would write NaN and the infinities as null; the writer refuses
    them wherever they sit, as json's allow_nan=False did."""
    with pytest.raises(ValueError):
        ser.dump_json(place(x))


@pytest.mark.parametrize("value", [{"a": np.array([np.nan])}, np.float32("inf")], ids=["array", "float32"])
def test_dump_json_refuses_numpy_values(value):
    """A report holds plain JSON values only: a numpy array or numpy scalar
    is refused, not written with NaN or infinity as null."""
    with pytest.raises(TypeError):
        ser.dump_json(value)


def _certificates_of_every_reason():
    n = 3
    hom = from_left_right(haar_unitary(n, 5), haar_unitary(n, 6))
    d = np.sqrt(1.0 + 3.0 * Tolerance().effective(n, n)) - 1.0
    maps = [
        hom,
        SuperOperator(n, n, 2 * identity_map(n).matrix),
        SuperOperator(n, n, (1.0 + d) * hom.matrix),
        SuperOperator(n, n, (hom.matrix + compose(hom, transpose_map(n)).matrix) / 2),
        trace_pinch_map(n),
        direct_sum_embedding([BlockKind.ID, BlockKind.TRANSPOSE], haar_unitary(2 * n, 23)),
    ]
    return [classify_preserver(phi, seed=4) for phi in maps]


def test_report_text_parses_as_jsons_would():
    """Every report parses to the value stdlib json's text of it parses to:
    a certificate of every reason, an extreme report and the run info."""
    certs = _certificates_of_every_reason()
    assert [c.reason for c in certs] == [
        "", "image-of-identity-not-unitary", "image-of-identity-in-band",
        "reconstruction-mismatch", "unitary-recovery-failed", "theorem-scope",
    ]
    reports = [{"certificate": ser.to_obj(c), "run": ser.run_info(Tolerance(), 2**64 - 1, 0.25)} for c in certs]
    reports.append({"report": ser.to_obj(kadison_extreme_test(matrix_unit(3, 0, 0), StarAlgebraBasis.full(3)))})
    for report in reports:
        assert json.loads(ser.dump_json(report)) == json.loads(json.dumps(report, allow_nan=False))


def test_report_floats_are_shortest_text():
    assert ser.dump_json({"a": 1e-7, "b": 1e16, "c": -0.0}) == '{\n  "a": 1e-7,\n  "b": 1e16,\n  "c": -0.0\n}'


@pytest.mark.parametrize("caller_enabled", [True, False])
def test_read_json_restores_the_callers_gc_state(tmp_path, caller_enabled):
    """The collector is paused while a file decodes and parses, and the
    caller's state is back afterwards, for a good file, a malformed one, a
    missing one and a document its parser refuses."""
    good, cut = tmp_path / "good.json", tmp_path / "cut.json"
    good.write_text('{"rows": 1, "cols": 1, "entries": [[[1.0, 0.0]]]}')
    cut.write_text('{"rows": 1, "cols"')
    was = gc.isenabled()
    try:
        gc.enable() if caller_enabled else gc.disable()
        assert ser.read_json(str(good), ser.matrix_from_obj).shape == (1, 1)
        assert gc.isenabled() is caller_enabled
        for path, parse in [(cut, ser.matrix_from_obj), (tmp_path / "absent.json", ser.matrix_from_obj),
                            (good, ser.superop_from_obj)]:
            with pytest.raises(ser.FormatError):
                ser.read_json(str(path), parse)
            assert gc.isenabled() is caller_enabled
    finally:
        gc.enable() if was else gc.disable()


def test_read_json_pauses_the_gc_while_decoding_and_parsing(tmp_path, monkeypatch):
    path = tmp_path / "m.json"
    path.write_text("[1]")
    seen = []

    def loads(data):
        seen.append(gc.isenabled())
        return json.loads(data)

    def parse(doc):
        seen.append(gc.isenabled())
        return doc

    monkeypatch.setattr(ser.orjson, "loads", loads)
    assert ser.read_json(str(path), parse) == [1]
    assert seen == [False, False] and gc.isenabled()


def test_read_json_leaves_no_collection_behind(tmp_path):
    """The decoded document is freed before the collector is back, so the
    young generation holds none of its lists and no collection runs, neither
    during the read nor at the allocations after it."""
    path = tmp_path / "m.json"
    ser.save_json(str(path), ser.matrix_to_obj(np.ones((40, 40))))  # 1,641 lists once decoded
    collections = []

    def note(phase, info):
        collections.append(phase)

    gc.collect()
    gc.callbacks.append(note)
    try:
        ser.read_json(str(path), ser.matrix_from_obj)
        young = gc.get_count()[0]
        after = [[] for _ in range(100)]
    finally:
        gc.callbacks.remove(note)
    assert len(after) == 100
    assert young < 1641 and collections == []
