"""File format tests.  Round-trips must be bit-exact: a parsed serialization
compares equal entry by entry, with no tolerance."""

import json

import numpy as np
import pytest

from unitball import serialize as ser
from unitball.extremal import ExtremeVerdict, StarAlgebraBasis, kadison_extreme_test
from unitball.gen import InstanceKind, InstanceSpec
from unitball.jordan import stormer_split
from unitball.linalg import Tolerance, complex_gaussian, haar_unitary, matrix_unit
from unitball.preserver import classify_preserver
from unitball.superop import from_left_right, identity_map, transpose_map, compose


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
    # in memory, without JSON text, the entries are numpy float64 scalars
    assert np.array_equal(ser.matrix_from_obj(ser.matrix_to_obj(a)), a)


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
    obj = {"n": 2, "elements": [ser.matrix_to_obj(matrix_unit(2, i, i)) for i in range(2)]}
    n, elems = ser.algebra_elements_from_obj(roundtrip(obj))
    assert n == 2 and len(elems) == 2
    StarAlgebraBasis(elems)  # validates as a *-algebra


def test_algebra_document_shape_mismatch():
    obj = {"n": 3, "elements": [ser.matrix_to_obj(np.eye(2))]}
    with pytest.raises(ser.FormatError):
        ser.algebra_elements_from_obj(obj)
    with pytest.raises(ser.FormatError):
        ser.algebra_elements_from_obj({"n": 2, "elements": []})


# ------------------------------------------------------------------ reports


def test_tolerance_round_trip():
    tol = Tolerance(abs=3e-7, dimension_scaling=False)
    back = ser.tolerance_from_obj(roundtrip(ser.tolerance_to_obj(tol)))
    assert back == tol


def test_extreme_report_round_trip():
    rep = kadison_extreme_test(matrix_unit(2, 0, 0), StarAlgebraBasis.full(2))
    back = ser.extreme_report_from_obj(roundtrip(ser.extreme_report_to_obj(rep)))
    assert back == rep
    assert back.verdict is ExtremeVerdict.NOT_EXTREME


def test_jordan_report_round_trip():
    rep = stormer_split(transpose_map(3))
    obj = roundtrip(ser.jordan_report_to_obj(rep))
    back = ser.jordan_report_from_obj(obj)
    assert np.array_equal(back.e, rep.e)
    assert (back.p, back.q) == (rep.p, rep.q)
    assert back.r_square == rep.r_square
    assert back.r_hom == rep.r_hom and back.r_anti == rep.r_anti
    assert back.worst_square_pair == rep.worst_square_pair


def test_certificate_round_trip_positive_case():
    phi = compose(
        from_left_right(haar_unitary(3, 5), haar_unitary(3, 6)), transpose_map(3)
    )
    cert = classify_preserver(phi, seed=9)
    back = ser.certificate_from_obj(roundtrip(ser.certificate_to_obj(cert)))
    assert back.verdict is cert.verdict
    assert back.kind is cert.kind
    assert back.transpose_flag == cert.transpose_flag
    assert back.seed == cert.seed
    assert back.reconstruction_residual == cert.reconstruction_residual
    assert np.array_equal(back.v, cert.v)
    assert np.array_equal(back.u_left, cert.u_left)
    assert np.array_equal(back.v_right, cert.v_right)
    assert back.witness is None and back.witness_defect is None
    assert back.jordan is None and back.w is None


def test_certificate_round_trip_negative_case():
    from unitball.gen import trace_pinch_map

    cert = classify_preserver(trace_pinch_map(2), seed=4)
    back = ser.certificate_from_obj(roundtrip(ser.certificate_to_obj(cert)))
    assert back.verdict is cert.verdict
    assert np.array_equal(back.witness, cert.witness)
    assert back.witness_defect == cert.witness_defect
    assert back.reason == cert.reason
    assert back.kind is cert.kind
    assert back.reconstruction_residual == cert.reconstruction_residual
    assert np.array_equal(back.u_left, cert.u_left)
    assert np.array_equal(back.v_right, cert.v_right)
    assert back.w is None


def test_instance_spec_round_trip():
    spec = InstanceSpec(n=2, kind=InstanceKind.MIXED_JORDAN, seed=12, p=2, q=1)
    back = ser.instance_spec_from_obj(roundtrip(ser.instance_spec_to_obj(spec)))
    assert back == spec


def test_run_info_fields():
    info = ser.run_info(Tolerance(), seed=5, wall_time_s=0.25)
    assert info["tool"] == "unitball"
    assert info["rng"] == "numpy-pcg64"
    assert info["seed"] == 5
    assert info["tolerance"] == {"abs": 1e-8, "dimension_scaling": True}
    assert "version" in info and info["wall_time_s"] == 0.25
    assert "seed" not in ser.run_info(Tolerance(), seed=None, wall_time_s=0.1)


def test_save_and_load_files(tmp_path):
    path = tmp_path / "m.json"
    a = complex_gaussian(3, 3, np.random.default_rng(8))
    ser.save_json(str(path), ser.matrix_to_obj(a))
    assert np.array_equal(ser.matrix_from_obj(ser.load_json(str(path))), a)
