"""CLI contract tests, run in-process: stdout must stay pure JSON, stderr
carries the one-line summary, and the exit codes {0,1,2,64,65} are a closed
set."""

import ast
import contextlib
import io
import json
import math
import pathlib
import shlex
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from unitball import cli, serialize as ser
from unitball.cli import EXIT_DATA, EXIT_INCONCLUSIVE, EXIT_NEGATIVE, EXIT_OK, EXIT_USAGE, main
from unitball.extremal import ExtremeVerdict
from unitball.gen import InstanceSpec, InstanceKind, generate, trace_pinch_map
from unitball.linalg import DEFAULT_TOL, haar_from_rng, matrix_unit
from unitball.preserver import PreserverVerdict
from unitball.superop import SuperOperator, from_left_right, identity_map


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


def write_matrix(tmp_path, name, a):
    path = tmp_path / name
    ser.save_json(str(path), ser.matrix_to_obj(np.asarray(a, dtype=complex)))
    return str(path)


def write_superop(tmp_path, name, phi):
    path = tmp_path / name
    ser.save_json(str(path), ser.superop_to_obj(phi))
    return str(path)


# ---------------------------------------------------------- check-extreme


def test_check_extreme_identity_passes(tmp_path, capsys):
    path = write_matrix(tmp_path, "eye.json", np.eye(3))
    code, obj, err = run_json(capsys, "check-extreme", path)
    assert code == EXIT_OK
    assert obj["report"]["verdict"] == "Extreme"
    assert obj["isometry_class"] == "Unitary"
    assert obj["run"]["tool"] == "unitball"
    assert "Extreme" in err


def test_check_extreme_matrix_unit_fails_with_witness(tmp_path, capsys):
    path = write_matrix(tmp_path, "e11.json", matrix_unit(2, 0, 0))
    code, obj, _ = run_json(capsys, "check-extreme", path)
    assert code == EXIT_NEGATIVE
    assert obj["report"]["verdict"] == "NotExtreme"
    assert obj["report"]["witness_index"] == 3
    assert obj["report"]["kadison_residual"] == pytest.approx(1.0)


def test_check_extreme_rectangular_is_out_of_scope(tmp_path, capsys):
    path = write_matrix(tmp_path, "tall.json", np.vstack([np.eye(2), np.zeros((1, 2))]))
    code, obj, _ = run_json(capsys, "check-extreme", path)
    assert code == EXIT_INCONCLUSIVE
    assert obj["verdict"] == "Inconclusive"
    assert obj["isometry_class"] == "Isometry"


def test_check_extreme_with_algebra_file(tmp_path, capsys):
    mpath = write_matrix(tmp_path, "p.json", np.diag([1.0, 0.0]))
    apath = tmp_path / "diag.json"
    ser.save_json(
        str(apath),
        {"n": 2, "elements": [ser.matrix_to_obj(matrix_unit(2, i, i)) for i in range(2)]},
    )
    code, obj, _ = run_json(capsys, "check-extreme", mpath, "--algebra", str(apath))
    assert code == EXIT_NEGATIVE
    assert obj["report"]["witness_index"] == 1


@pytest.mark.parametrize("algebra,code", [
    ("missing", EXIT_DATA), ("truncated", EXIT_DATA), ("valid", EXIT_INCONCLUSIVE),
])
def test_check_extreme_nonsquare_reads_the_algebra_file(tmp_path, capsys, algebra, code):
    """The algebra file is read before the shape is looked at, so a missing
    or malformed one is a data error for a rectangular matrix too."""
    mpath = write_matrix(tmp_path, "wide.json", np.ones((2, 3)))
    apath = tmp_path / "algebra.json"
    if algebra == "truncated":
        apath.write_text("{")
    elif algebra == "valid":
        ser.save_json(str(apath), {"n": 2, "elements": [ser.matrix_to_obj(np.eye(2))]})
    got, out, err = run(capsys, "check-extreme", mpath, "--algebra", str(apath))
    assert got == code
    assert err.count("\n") == 1
    if code == EXIT_INCONCLUSIVE:
        assert json.loads(out)["reason"] == "nonsquare-matrix"
    else:
        assert out == "" and str(apath) in err


def test_check_extreme_algebra_not_closed_is_data_error(tmp_path, capsys):
    mpath = write_matrix(tmp_path, "m.json", np.eye(2))
    apath = tmp_path / "bad_algebra.json"
    ser.save_json(
        str(apath),
        {"n": 2, "elements": [ser.matrix_to_obj(np.eye(2)), ser.matrix_to_obj(matrix_unit(2, 0, 1))]},
    )
    code, out, err = run(capsys, "check-extreme", mpath, "--algebra", str(apath))
    assert code == EXIT_DATA
    assert out == ""
    assert "error" in err


def test_check_extreme_small_algebra_not_closed_is_data_error(tmp_path, capsys):
    """span{I, 1e-5 sx, 1e-5 sz} misses sx sz = -i sy however small the
    elements are, so the file is rejected rather than given a verdict."""
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sz = np.diag([1.0, -1.0]).astype(complex)
    mpath = write_matrix(tmp_path, "m.json", np.eye(2))
    apath = tmp_path / "small_algebra.json"
    elements = [np.eye(2), 1e-5 * sx, 1e-5 * sz]
    ser.save_json(str(apath), {"n": 2, "elements": [ser.matrix_to_obj(e) for e in elements]})
    code, out, err = run(capsys, "check-extreme", mpath, "--algebra", str(apath))
    assert code == EXIT_DATA
    assert out == ""
    assert "not closed under products" in err


def test_check_extreme_with_complex_algebra_file(tmp_path, capsys):
    """A block unitary in U (M_4 + M_4) U*, checked against that algebra
    given by its complex basis U E_ij U*, is extreme."""
    rng = np.random.default_rng(8)
    u = haar_from_rng(8, rng)
    units = [
        u @ matrix_unit(8, i, j) @ u.conj().T
        for lo in (0, 4) for i in range(lo, lo + 4) for j in range(lo, lo + 4)
    ]
    w = np.zeros((8, 8), dtype=complex)
    w[:4, :4], w[4:, 4:] = haar_from_rng(4, rng), haar_from_rng(4, rng)
    mpath = write_matrix(tmp_path, "w.json", u @ w @ u.conj().T)
    apath = tmp_path / "rotated_blocks.json"
    ser.save_json(str(apath), {"n": 8, "elements": [ser.matrix_to_obj(e) for e in units]})
    code, obj, err = run_json(capsys, "check-extreme", mpath, "--algebra", str(apath))
    assert code == EXIT_OK, err
    assert obj["report"]["verdict"] == "Extreme"
    assert obj["report"]["witness_index"] is None


def test_check_extreme_takes_one_svd_of_w(tmp_path, capsys, monkeypatch):
    """A square W's isometry class comes from the SVD the Kadison test
    takes; a non-square W is classified on its own, with one SVD too."""
    calls = []
    svd = np.linalg.svd

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return svd(a, *args, **kwargs)

    rng = np.random.default_rng(5)
    w = haar_from_rng(5, rng) @ np.diag([1.0, 1.0, 1.0, 0.0, 0.0]) @ haar_from_rng(5, rng)
    square = write_matrix(tmp_path, "w.json", w)
    tall = write_matrix(tmp_path, "tall.json", np.vstack([np.eye(2), np.zeros((1, 2))]))
    monkeypatch.setattr(np.linalg, "svd", counted)
    code, obj, _ = run_json(capsys, "check-extreme", square)
    assert code == EXIT_NEGATIVE
    assert calls == [(5, 5)]
    assert obj["isometry_class"] == "PartialIsometry"
    assert "isometry_class" not in obj["report"]
    calls.clear()
    code, obj, _ = run_json(capsys, "check-extreme", tall)
    assert code == EXIT_INCONCLUSIVE
    assert calls == [(3, 2)]
    assert obj["isometry_class"] == "Isometry"


def _block_unit_objs(blocks):
    n = sum(blocks)
    starts = np.cumsum((0,) + tuple(blocks))
    return [
        ser.matrix_to_obj(matrix_unit(n, i, j))
        for lo, hi in zip(starts, starts[1:])
        for i in range(lo, hi)
        for j in range(lo, hi)
    ]


_NOT_A_NUMBER = st.one_of(st.booleans(), st.text(max_size=3), st.none(), st.just([0.0]))


@st.composite
def malformed_algebra_docs(draw):
    """A real block-unit algebra document with two or more blocks, broken
    in one way."""
    blocks = draw(st.lists(st.integers(1, 2), min_size=2, max_size=3))
    n = sum(blocks)
    elements = _block_unit_objs(blocks)
    doc = {"n": n, "elements": elements}
    k = draw(st.integers(0, len(elements) - 1))
    el = elements[k]
    row = el["entries"][draw(st.integers(0, n - 1))]
    col = draw(st.integers(0, n - 1))
    fault = draw(st.sampled_from(
        ["n", "elements", "element", "ragged", "entry", "pair", "shape", "huge"]
    ))
    if fault == "n":
        doc["n"] = draw(st.one_of(
            st.just(float(n)), st.just(n + 0.5), st.just(n + 1), _NOT_A_NUMBER
        ))
    elif fault == "elements":
        doc["elements"] = draw(st.one_of(st.just([]), st.just({}), st.just(el), _NOT_A_NUMBER))
    elif fault == "element":
        elements[k] = draw(st.one_of(
            st.integers(), st.just({}), st.just({"rows": n, "cols": n}), _NOT_A_NUMBER
        ))
    elif fault == "ragged":
        if draw(st.booleans()):
            row.append([0.0, 0.0])
        else:
            row.pop()
    elif fault == "entry":
        row[col][draw(st.integers(0, 1))] = draw(_NOT_A_NUMBER)
    elif fault == "pair":
        row[col] = draw(st.one_of(
            st.just([]), st.just([0.0]), st.just([0.0, 0.0, 0.0]), st.floats(-1, 1)
        ))
    elif fault == "shape":
        rows, cols = draw(st.tuples(st.integers(1, n + 1), st.integers(1, n + 1)).filter(
            lambda shape: shape != (n, n)
        ))
        elements[k] = ser.matrix_to_obj(np.zeros((rows, cols)))
    else:
        # an entry between two blocks: its adjoint lies outside the span
        i = draw(st.integers(0, blocks[0] - 1))
        j = draw(st.integers(blocks[0], n - 1))
        if draw(st.booleans()):
            i, j = j, i
        el["entries"][i][j][0] = draw(st.floats(1e300, 1.7e308))
    return n, doc


@given(malformed_algebra_docs())
@settings(max_examples=200, deadline=None)
def test_malformed_algebra_file_is_data_error(tmp_path_factory, case):
    """Every broken algebra document ends in exit 65, no report on stdout
    and one line on stderr, never in a traceback."""
    n, doc = case
    tmp = tmp_path_factory.mktemp("algebra")
    mpath = write_matrix(tmp, "w.json", np.eye(n))
    apath = tmp / "algebra.json"
    apath.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["check-extreme", mpath, "--algebra", str(apath)])
    assert code == EXIT_DATA, err.getvalue()
    assert out.getvalue() == ""
    assert err.getvalue().count("\n") == 1 and "error" in err.getvalue()


_BAD_DIM = st.one_of(
    st.integers(-3, 0), st.floats(-2, 4), st.booleans(), st.text(max_size=3), st.none()
)
_BAD_ENTRY = st.one_of(
    _NOT_A_NUMBER, st.just(float("nan")), st.just(float("inf")), st.just(10**400)
)


@st.composite
def malformed_input_docs(draw):
    """A matrix document for ``check-extreme`` or a superoperator document
    for ``classify``, broken in one way."""
    command = draw(st.sampled_from(["check-extreme", "classify"]))
    n = draw(st.integers(1, 3))
    if command == "classify":
        doc = ser.superop_to_obj(identity_map(n))
        mat, dims = doc["matrix"], ["dim_in", "dim_out", "rows", "cols"]
        faults = ["missing", "convention", "dim", "dims", "shape", "entries"]
    else:
        doc = mat = ser.matrix_to_obj(np.eye(n))
        dims, faults = ["rows", "cols"], ["missing", "dim", "shape", "entries"]
    size = len(mat["entries"])
    row = mat["entries"][draw(st.integers(0, size - 1))]
    col = draw(st.integers(0, size - 1))
    fault = draw(st.sampled_from(faults))
    if fault == "missing":
        target = draw(st.sampled_from([doc, mat]))
        del target[draw(st.sampled_from(sorted(target)))]
    elif fault == "convention":
        doc["vec_convention"] = draw(st.one_of(
            st.just("row-stacking"), st.text(max_size=3), st.none(), st.integers()
        ))
    elif fault == "dim":
        key = draw(st.sampled_from(dims))
        (mat if key in ("rows", "cols") else doc)[key] = draw(
            st.one_of(_BAD_DIM, st.just(float(n)))
        )
    elif fault == "dims":
        # equal nonpositive dims: the shape check alone cannot see -d
        doc["dim_in"] = doc["dim_out"] = -n
    elif fault == "shape":
        key = draw(st.sampled_from(dims))
        target = mat if key in ("rows", "cols") else doc
        target[key] += draw(st.integers(1, 2))
    elif draw(st.booleans()):
        row[col][draw(st.integers(0, 1))] = draw(_BAD_ENTRY)
    else:
        mat["entries"] = draw(st.one_of(st.just([]), st.just({}), st.just(row), _NOT_A_NUMBER))
    return command, doc


@given(malformed_input_docs())
@settings(max_examples=200, deadline=None)
def test_malformed_matrix_or_superoperator_file_is_data_error(tmp_path_factory, case):
    """Every broken matrix or superoperator document ends in exit 65, no
    report on stdout and one line on stderr, never in a traceback."""
    command, doc = case
    path = tmp_path_factory.mktemp("input") / "input.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, str(path)])
    assert code == EXIT_DATA, err.getvalue()
    assert out.getvalue() == ""
    assert err.getvalue().count("\n") == 1 and "error" in err.getvalue()


_DEEP = b"[" * 100_000 + b"]" * 100_000

# Bytes that no input slot takes: (slot, text), where the text stands in
# for one value of a valid document, goes before it ("prefix") or is the
# whole file ("file").  NaN, Infinity and 10**400 entries are covered by
# the malformed-document test above.
_UNREADABLE = {
    "not-utf8": ("prefix", b"\xff\xfe"),
    "5001-digit-integer": ("entry", b"1" + b"0" * 5000),
    "deep-file": ("file", _DEEP),
    "deep-rows": ("rows", _DEEP),
    "deep-convention": ("vec_convention", _DEEP),
}


def _unreadable_bytes(command, slot, text):
    if slot == "file":
        return text
    doc = ser.superop_to_obj(identity_map(2)) if command == "classify" else ser.matrix_to_obj(np.eye(2))
    if slot == "prefix":
        return text + json.dumps(doc).encode()
    mat = doc.get("matrix", doc)
    target, key = {"entry": (mat["entries"][1][0], 1), "rows": (mat, "rows"), "vec_convention": (doc, slot)}[slot]
    target[key] = "@"
    return json.dumps(doc).encode().replace(b'"@"', text)


@pytest.mark.parametrize("command, case", [
    (command, case)
    for case in _UNREADABLE
    for command in ("check-extreme", "classify")
    if not (command == "check-extreme" and case == "deep-convention")  # a matrix has no convention
])
def test_unreadable_input_is_data_error(tmp_path, capsys, command, case):
    """Bytes that are not UTF-8, an integer too long to convert and deep
    nesting, in the whole file or in a scalar slot, end in exit 65 with no
    report and one stderr line, never in a usage error or a traceback."""
    path = tmp_path / "input.json"
    path.write_bytes(_unreadable_bytes(command, *_UNREADABLE[case]))
    code, out, err = run(capsys, command, str(path))
    assert code == EXIT_DATA, err
    assert out == ""
    assert err.count("\n") == 1 and "error" in err


def test_check_extreme_truncated_json(tmp_path, capsys):
    path = tmp_path / "cut.json"
    path.write_text('{"rows": 2,')
    code, out, err = run(capsys, "check-extreme", str(path))
    assert code == EXIT_DATA
    assert out == ""
    assert "error" in err


def test_check_extreme_missing_file(tmp_path, capsys):
    code, _, _ = run(capsys, "check-extreme", str(tmp_path / "nope.json"))
    assert code == EXIT_DATA


# --------------------------------------------------------------- classify


def test_classify_identity_superop(tmp_path, capsys):
    phi = generate(InstanceSpec(n=2, kind=InstanceKind.HOM_PRESERVER, seed=7))
    path = write_superop(tmp_path, "hom.json", phi)
    code, obj, err = run_json(capsys, "classify", path)
    assert code == EXIT_OK
    cert = obj["certificate"]
    assert cert["verdict"] == "Preserver"
    assert cert["kind"] == "Hom"
    assert cert["reconstruction_residual"] <= 1e-8
    assert sorted(obj) == ["certificate", "run"]
    assert "Preserver" in err


def test_classify_anti_instance_round_trip(tmp_path, capsys):
    phi = generate(InstanceSpec(n=4, kind=InstanceKind.ANTI_PRESERVER, seed=11))
    path = write_superop(tmp_path, "anti.json", phi)
    code, obj, _ = run_json(capsys, "classify", path)
    assert code == EXIT_OK
    cert = obj["certificate"]
    assert cert["transpose_flag"] is True
    assert cert["reconstruction_residual"] <= 1e-8


def test_classify_trace_pinch_embeds_witness(tmp_path, capsys):
    path = write_superop(tmp_path, "pinch.json", trace_pinch_map(2))
    code, obj, _ = run_json(capsys, "classify", path)
    assert code == EXIT_NEGATIVE
    cert = obj["certificate"]
    assert cert["verdict"] == "NotPreserver"
    assert cert["witness"] is not None
    assert cert["witness_defect"] > 1e-8
    assert sorted(obj) == ["certificate", "run"]


def test_classify_rectangular_reports_multiplicities(tmp_path, capsys):
    phi = generate(InstanceSpec(n=2, kind=InstanceKind.MIXED_JORDAN, seed=3, p=2, q=1))
    path = write_superop(tmp_path, "mixed.json", phi)
    code, obj, _ = run_json(capsys, "classify", path)
    assert code == EXIT_INCONCLUSIVE
    cert = obj["certificate"]
    assert cert["verdict"] == "Inconclusive"
    assert cert["reason"] == "theorem-scope"
    assert (cert["jordan"]["p"], cert["jordan"]["q"]) == (2, 1)


def test_classify_near_tolerance_map_is_inconclusive(tmp_path, capsys):
    # a preserver times (1 + d): every unitary's image misses unitarity by 3 tol_eff
    rng = np.random.default_rng(20260418)
    base = from_left_right(haar_from_rng(6, rng), haar_from_rng(6, rng))
    d = math.sqrt(1.0 + 3.0 * DEFAULT_TOL.effective(6, 6)) - 1.0
    path = write_superop(tmp_path, "near.json", SuperOperator(6, 6, (1.0 + d) * base.matrix))
    code, obj, _ = run_json(capsys, "classify", path)
    assert code == EXIT_INCONCLUSIVE
    assert obj["certificate"]["reason"] == "image-of-identity-in-band"
    assert sorted(obj) == ["certificate", "run"]


def test_classify_verdict_is_reproducible(tmp_path, capsys):
    phi = generate(InstanceSpec(n=3, kind=InstanceKind.HOM_PRESERVER, seed=5))
    path = write_superop(tmp_path, "again.json", phi)
    _, obj1, _ = run_json(capsys, "classify", path, "--seed", "21")
    _, obj2, _ = run_json(capsys, "classify", path, "--seed", "21")
    # everything except wall time is bit-identical
    assert obj1["certificate"] == obj2["certificate"]
    assert sorted(obj1) == sorted(obj2) == ["certificate", "run"]


def test_classify_has_no_falsifier_option(tmp_path, capsys):
    path = write_superop(tmp_path, "id.json", identity_map(2))
    code, out, err = run(capsys, "classify", path, "--falsify-trials", "5")
    assert code == EXIT_USAGE
    assert out == ""
    assert "--falsify-trials" in err


def test_loose_tolerance_certifies_the_identity(tmp_path, capsys):
    """Phi(E_11) has top singular value 1 on every preserver, so no
    tolerance, however loose, keeps U from being read off (for --tol 1e308
    see test_huge_finite_tolerance_gives_a_finite_report)."""
    path = write_superop(tmp_path, "id.json", identity_map(2))
    code, obj, err = run_json(capsys, "classify", path, "--tol", "0.5")
    assert code == EXIT_OK, err
    assert obj["certificate"]["verdict"] == "Preserver"
    assert obj["certificate"]["reconstruction_residual"] == 0.0


@pytest.mark.parametrize("scale", [1e154, 1e155, 1e300])
def test_hugely_scaled_identity_is_rejected(tmp_path, capsys, scale):
    """|s^2 - 1| overflows from 1e155 on; the defect stops at the largest
    float, so Phi(I) = scale I fails with witness I and a finite report."""
    path = write_superop(tmp_path, "big.json", SuperOperator(2, 2, scale * np.eye(4, dtype=complex)))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run(capsys, "classify", path)
    assert code == EXIT_NEGATIVE, err

    def refuse(constant):
        raise AssertionError(f"report carries {constant}")

    cert = json.loads(out, parse_constant=refuse)["certificate"]
    assert (cert["verdict"], cert["reason"]) == ("NotPreserver", "image-of-identity-not-unitary")
    assert np.array_equal(ser.matrix_from_obj(cert["witness"]), np.eye(2))
    assert cert["witness_defect"] == pytest.approx(min(scale * scale - 1.0, np.finfo(float).max))


@pytest.mark.parametrize("command", ["classify", "verify-identities"])
@pytest.mark.parametrize("dims", [(-1, -1), (-1, 1), (1, -1)], ids=["both", "in", "out"])
def test_nonpositive_superoperator_dims_are_data_error(tmp_path, capsys, command, dims):
    """A 1 x 1 matrix matches the shape (d_out^2, d_in^2) of d = -1 too."""
    doc = ser.superop_to_obj(identity_map(1))
    doc["dim_in"], doc["dim_out"] = dims
    path = tmp_path / "neg.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, command, str(path))
    assert code == EXIT_DATA
    assert out == ""
    assert err.count("\n") == 1 and "dims must be positive" in err


# ------------------------------------------------------------------- make


def test_make_writes_parseable_file(tmp_path, capsys):
    out = tmp_path / "made.json"
    code, obj, _ = run_json(
        capsys, "make", "--kind", "hom", "--n", "2", "--seed", "7", "--out", str(out)
    )
    assert code == EXIT_OK
    assert obj["instance"] == {
        "n": 2, "kind": "hom", "seed": 7, "p": 0, "q": 0, "epsilon": 0.0,
    }
    phi = ser.superop_from_obj(ser.load_json(str(out)))
    assert np.array_equal(phi.matrix, generate(InstanceSpec(n=2, kind=InstanceKind.HOM_PRESERVER, seed=7)).matrix)


def test_make_then_classify_pipeline(tmp_path, capsys):
    out = tmp_path / "mk.json"
    code, _, _ = run(
        capsys, "make", "--kind", "mixed", "--n", "2", "--p", "2", "--q", "1",
        "--seed", "3", "--out", str(out),
    )
    assert code == EXIT_OK
    code, obj, _ = run_json(capsys, "classify", str(out))
    assert code == EXIT_INCONCLUSIVE
    assert (obj["certificate"]["jordan"]["p"], obj["certificate"]["jordan"]["q"]) == (2, 1)


def test_make_to_stdout_without_out_flag(tmp_path, capsys):
    code, obj, _ = run_json(capsys, "make", "--kind", "trace-pinch", "--n", "3", "--seed", "0")
    assert code == EXIT_OK
    phi = ser.superop_from_obj(obj)
    assert (phi.dim_in, phi.dim_out) == (3, 3)


def test_make_to_unwritable_path_is_usage_error(tmp_path, capsys):
    target = str(tmp_path / "no-such-dir" / "x.json")
    code, out, err = run(capsys, "make", "--kind", "hom", "--n", "2", "--out", target)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.count("\n") == 1 and target in err


def test_make_invalid_dimension_is_usage_error(capsys):
    code, out, err = run(capsys, "make", "--kind", "hom", "--n", "0", "--seed", "1")
    assert code == EXIT_USAGE
    assert out == ""
    assert "error" in err


def test_make_mixed_without_blocks_is_usage_error(capsys):
    code, _, _ = run(capsys, "make", "--kind", "mixed", "--n", "2", "--seed", "1")
    assert code == EXIT_USAGE


def test_make_unknown_kind_is_usage_error(capsys):
    code, _, _ = run(capsys, "make", "--kind", "banana", "--n", "2", "--seed", "1")
    assert code == EXIT_USAGE


# ------------------------------------------------------ verify-identities


def test_verify_identities_identity_map(tmp_path, capsys):
    phi = generate(InstanceSpec(n=2, kind=InstanceKind.HOM_PRESERVER, seed=1))
    path = write_superop(tmp_path, "v.json", phi)
    code, obj, err = run_json(capsys, "verify-identities", path)
    assert code == EXIT_OK
    assert obj["pass"] is True
    assert max(obj["residuals"].values()) <= 1e-12
    assert "PASS" in err


def test_verify_identities_trace_pinch_fails_on_square_identity(tmp_path, capsys):
    path = write_superop(tmp_path, "p.json", trace_pinch_map(2))
    code, obj, err = run_json(capsys, "verify-identities", path)
    assert code == EXIT_NEGATIVE
    assert obj["pass"] is False
    assert obj["residuals"]["hermitian_square"] > 0.1
    assert "FAIL" in err


@pytest.mark.parametrize("factor,code,label", [
    (0.5, EXIT_OK, "PASS"),
    (3.0, EXIT_INCONCLUSIVE, "Inconclusive"),
    (30.0, EXIT_NEGATIVE, "FAIL"),
])
def test_verify_identities_judges_by_the_band(tmp_path, capsys, factor, code, label):
    """A preserver times (1 + d) has worst residual 2((1 + d)^4 - 1) (the
    range and Jordan-unitary identities), set here to factor * tol_eff at
    n = 4 (tol_eff = 4e-8): above the unscaled --tol at factor 0.5, so only
    the dimension-scaled band passes it, and inside the band at 3."""
    n = 4
    target = factor * DEFAULT_TOL.effective(n, n)
    scale = (1.0 + target / 2.0) ** 0.25
    base = generate(InstanceSpec(n=n, kind=InstanceKind.HOM_PRESERVER, seed=2))
    path = write_superop(tmp_path, "scaled.json", SuperOperator(n, n, scale * base.matrix))
    got, obj, err = run_json(capsys, "verify-identities", path)
    worst = max(obj["residuals"].values())
    assert worst == pytest.approx(target, rel=1e-5)
    assert worst > obj["tol"]
    assert got == code
    assert obj["pass"] is (label == "PASS")
    assert err.startswith(label)


def test_verify_identities_rectangular(tmp_path, capsys):
    phi = generate(InstanceSpec(n=2, kind=InstanceKind.MIXED_JORDAN, seed=1, p=1, q=1))
    path = write_superop(tmp_path, "r.json", phi)
    code, obj, _ = run_json(capsys, "verify-identities", path)
    assert code == EXIT_INCONCLUSIVE
    assert obj["reason"] == "theorem-scope"


# ------------------------------------------------------------ global cli


@pytest.mark.parametrize("command", ["check-extreme", "classify", "verify-identities"])
def test_run_wall_time_includes_reading_the_input(tmp_path, capsys, monkeypatch, command):
    if command == "check-extreme":
        path = write_matrix(tmp_path, "eye.json", np.eye(2))
    else:
        path = write_superop(tmp_path, "id.json", identity_map(2))
    load = ser.load_json

    def slow_load(p):
        time.sleep(0.05)
        return load(p)

    monkeypatch.setattr(ser, "load_json", slow_load)
    code, obj, _ = run_json(capsys, command, path)
    assert code == EXIT_OK
    assert obj["run"]["wall_time_s"] >= 0.05


@pytest.mark.parametrize("number", ["1e400", "1" + "0" * 400], ids=["float", "int"])
def test_out_of_range_entry_is_data_error(tmp_path, capsys, number):
    path = tmp_path / "big.json"
    path.write_text(f'{{"rows": 1, "cols": 1, "entries": [[[{number}, 0]]]}}')
    code, out, err = run(capsys, "check-extreme", str(path))
    assert code == EXIT_DATA
    assert out == ""
    assert "error" in err


@pytest.mark.parametrize("command", ["check-extreme", "classify", "verify-identities"])
def test_infinite_tolerance_is_usage_error_before_reading_input(tmp_path, capsys, command):
    code, out, err = run(capsys, command, str(tmp_path / "missing.json"), "--tol", "inf")
    assert code == EXIT_USAGE
    assert out == ""
    assert err.count("\n") == 1 and "finite" in err


_BAD_COUNT_INPUTS = {
    "preserver": lambda: generate(InstanceSpec(n=2, kind=InstanceKind.HOM_PRESERVER, seed=7)),
    "twice-identity": lambda: SuperOperator(2, 2, 2 * identity_map(2).matrix),
    "pinch": lambda: trace_pinch_map(2),
    "rectangular": lambda: generate(InstanceSpec(n=2, kind=InstanceKind.MIXED_JORDAN, seed=3, p=1, q=1)),
    "missing": None,
}


@pytest.mark.parametrize("command, flag, value, label", [
    *[("classify", "--seed", "-1", label) for label in _BAD_COUNT_INPUTS],
    ("verify-identities", "--samples", "0", "rectangular"),
])
def test_bad_seed_or_samples_is_usage_error_before_reading_input(
    tmp_path, capsys, command, flag, value, label
):
    """Whatever the input, and before it is read, a negative seed or no
    samples exits 64 with one stderr line that names the flag."""
    make = _BAD_COUNT_INPUTS[label]
    path = str(tmp_path / "missing.json") if make is None else write_superop(tmp_path, "in.json", make())
    code, out, err = run(capsys, command, path, flag, value)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.count("\n") == 1 and flag in err


@pytest.mark.parametrize("command", ["check-extreme", "classify", "verify-identities"])
def test_huge_finite_tolerance_gives_a_finite_report(tmp_path, capsys, command):
    """tol_eff = abs * sqrt(rows * cols) would overflow to inf at 1e308 on
    2 x 2 inputs; it stops at the largest float, so each command passes the
    identity and every number in its report stays finite."""
    if command == "check-extreme":
        path = write_matrix(tmp_path, "eye.json", np.eye(2))
    else:
        path = write_superop(tmp_path, "id.json", identity_map(2))
    code, out, err = run(capsys, command, path, "--tol", "1e308")
    assert code == EXIT_OK, err
    assert err.count("\n") == 1

    def refuse(constant):
        raise AssertionError(f"report carries {constant}")

    report = json.loads(out, parse_constant=refuse)
    assert report["run"]["tolerance"]["abs"] == 1e308
    if command == "check-extreme":
        assert report["report"]["margin"] == -np.finfo(float).max


@pytest.mark.parametrize("command", ["check-extreme", "classify", "verify-identities"])
def test_overflowing_residuals_are_numerical_failure(tmp_path, capsys, command):
    """Finite inputs whose residuals overflow get no report, whose numbers
    would not be finite, and no RuntimeWarning.  The classify input keeps
    Phi(I) = I and scales the images of E_12 and E_21 by 1e300, so the form
    probe F_12 v* F_21 overflows (a scaled identity gets a verdict)."""
    if command == "check-extreme":
        path = write_matrix(tmp_path, "big.json", np.diag([1e300, 1e300]))
    elif command == "classify":
        m = np.eye(4, dtype=complex)
        m[:, 1:3] *= 1e300
        path = write_superop(tmp_path, "big.json", SuperOperator(2, 2, m))
    else:
        path = write_superop(tmp_path, "big.json", SuperOperator(2, 2, 1e300 * np.eye(4, dtype=complex)))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run(capsys, command, path)
    assert code == EXIT_INCONCLUSIVE
    assert out == ""
    assert err.count("\n") == 1 and "numerical failure: overflow" in err


def test_numerical_failure_is_inconclusive(tmp_path, capsys, monkeypatch):
    path = write_superop(tmp_path, "id.json", identity_map(2))

    def broken(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", broken)
    code, out, err = run(capsys, "classify", path)
    assert code == EXIT_INCONCLUSIVE
    assert out == ""
    assert err.count("\n") == 1 and "SVD did not converge" in err


def test_out_of_memory_is_inconclusive(tmp_path, capsys, monkeypatch):
    path = write_superop(tmp_path, "id.json", identity_map(2))

    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.00 TiB")

    monkeypatch.setattr(cli, "classify_preserver", exhausted)
    code, out, err = run(capsys, "classify", path)
    assert code == EXIT_INCONCLUSIVE
    assert out == ""
    assert err.count("\n") == 1 and "out of memory" in err


def test_parser_is_built_once_per_process(tmp_path, capsys, monkeypatch):
    roots = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        roots.append(kwargs.get("prog") == "unitball")
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    cli._build_parser.cache_clear()
    path = write_matrix(tmp_path, "eye.json", np.eye(2))
    assert run(capsys, "check-extreme", path)[0] == EXIT_OK
    assert run(capsys, "check-extreme", path)[0] == EXIT_OK
    assert roots.count(True) == 1


def test_consecutive_calls_do_not_leak_arguments(tmp_path, capsys):
    path = write_superop(tmp_path, "id.json", identity_map(2))
    _, first, _ = run_json(capsys, "classify", path, "--seed", "7", "--tol", "1e-6")
    _, second, _ = run_json(capsys, "classify", path)
    assert (first["run"]["seed"], first["run"]["tolerance"]["abs"]) == (7, 1e-6)
    assert (second["run"]["seed"], second["run"]["tolerance"]["abs"]) == (0, 1e-8)


# The README exit-code table, by verdict name.
_README_EXIT = {
    "EXTREME": EXIT_OK, "PRESERVER": EXIT_OK, "PASS": EXIT_OK,
    "NOT_EXTREME": EXIT_NEGATIVE, "NOT_PRESERVER": EXIT_NEGATIVE, "FAIL": EXIT_NEGATIVE,
    "INCONCLUSIVE": EXIT_INCONCLUSIVE,
}
_VERDICTS = [(f"{type(v).__name__}.{v.name}", v.name, v.value) for v in (*ExtremeVerdict, *PreserverVerdict)]
_VERDICTS += [(f"identities.{label}", label.upper(), label) for label in ("PASS", "FAIL", "Inconclusive")]


@pytest.mark.parametrize("name,label", [pytest.param(n, l, id=i) for i, n, l in _VERDICTS])
def test_every_verdict_maps_to_its_readme_exit_code(name, label):
    assert cli._EXIT_BY_VERDICT[label] == _README_EXIT[name]


def test_readme_cli_block_parses():
    """Every flag the sh block under README's ``## CLI`` shows exists: each
    ``unitball ...`` line goes through the parser without running its
    command."""
    text = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line) for line in block.splitlines() if line.startswith("unitball ")]
    assert len(lines) >= 6
    for words in lines:
        assert cli._build_parser().parse_args(words[1:]).command == words[1]


def test_every_classify_reason_is_a_readme_row():
    """The reasons preserver.py can return, found with ast (the first
    argument of each ``reject`` call, every string passed or assigned as
    ``reason``, the field's default included), are the rows of README's
    reason table, with ``(empty)`` for the empty reason."""
    root = pathlib.Path(__file__).parents[1]
    tree = ast.parse((root / "src" / "unitball" / "preserver.py").read_text(encoding="utf-8"))

    def strings(node):
        return {c.value for c in ast.walk(node) if isinstance(c, ast.Constant) and isinstance(c.value, str)}

    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "reject":
            found |= strings(node.args[0])
        elif isinstance(node, ast.keyword) and node.arg == "reason":
            found |= strings(node.value)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "reason" for t in node.targets):
            found |= strings(node.value)
        elif isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "reason":
            found |= strings(node.value)
    text = (root / "README.md").read_text(encoding="utf-8")
    table = text.split("| reason | verdicts |\n|---|---|\n", 1)[1].split("\n\n", 1)[0]
    rows = {line.split("|")[1].strip().strip("`") for line in table.splitlines()}
    assert len(rows) == len(table.splitlines()) >= 6
    assert found == {"" if row == "(empty)" else row for row in rows}


def test_no_arguments_is_usage_error(capsys):
    assert run(capsys, )[0] == EXIT_USAGE


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == EXIT_OK
    assert run(capsys, "classify", "--help")[0] == EXIT_OK


def test_version_exits_zero(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == EXIT_OK


def test_unknown_flag_is_usage_error(tmp_path, capsys):
    path = write_matrix(tmp_path, "m.json", np.eye(2))
    code, _, _ = run(capsys, "check-extreme", path, "--frobnicate")
    assert code == EXIT_USAGE


def test_exit_codes_form_a_closed_set(tmp_path, capsys):
    """Every invocation in a broad battery lands in {0, 1, 2, 64, 65}."""
    eye = write_matrix(tmp_path, "eye.json", np.eye(2))
    e11 = write_matrix(tmp_path, "e11.json", matrix_unit(2, 0, 0))
    pinch = write_superop(tmp_path, "pinch.json", trace_pinch_map(2))
    broken = tmp_path / "broken.json"
    broken.write_text("{")
    battery = [
        ["check-extreme", eye],
        ["check-extreme", e11],
        ["check-extreme", str(broken)],
        ["classify", pinch],
        ["classify", str(broken)],
        ["make", "--kind", "hom", "--n", "0", "--seed", "1"],
        ["make", "--kind", "hom", "--n", "2", "--seed", "1", "--out", str(tmp_path / "x.json")],
        ["verify-identities", pinch],
        ["nonsense-command"],
        [],
    ]
    for argv in battery:
        code = main(argv)
        capsys.readouterr()
        assert code in {EXIT_OK, EXIT_NEGATIVE, EXIT_INCONCLUSIVE, EXIT_USAGE, EXIT_DATA}, argv


def test_stdout_is_pure_json_for_reports(tmp_path, capsys):
    path = write_matrix(tmp_path, "eye.json", np.eye(2))
    _, out, err = run(capsys, "check-extreme", path)
    json.loads(out)  # no banner, no color codes
    assert err.strip() != ""
