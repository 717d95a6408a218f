"""CLI contract tests, run in-process: stdout must stay pure JSON, stderr
carries the one-line summary, and the exit codes {0,1,2,64,65} are a closed
set."""

import ast
import contextlib
import io
import json
import math
import os
import pathlib
import shlex
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import unitball
from unitball import cli, serialize as ser
from unitball.cli import EXIT_DATA, EXIT_INCONCLUSIVE, EXIT_NEGATIVE, EXIT_OK, EXIT_USAGE, main
from unitball.extremal import ExtremeVerdict
from unitball.gen import InstanceSpec, InstanceKind, generate, trace_pinch_map
from unitball.linalg import DEFAULT_TOL, Tolerance, haar_from_rng, matrix_unit
from unitball.preserver import PreserverVerdict
from unitball.superop import BlockKind, SuperOperator, direct_sum_embedding, from_left_right, identity_map


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
    # an Extreme verdict rests on the unitarity defect alone, and no Kadison scan runs
    assert obj["report"]["kadison_residual"] is None
    assert err == "Extreme: unitarity defect 0.000e+00\n"


def test_check_extreme_matrix_unit_fails_with_witness(tmp_path, capsys):
    path = write_matrix(tmp_path, "e11.json", matrix_unit(2, 0, 0))
    code, obj, err = run_json(capsys, "check-extreme", path)
    assert code == EXIT_NEGATIVE
    assert obj["report"]["verdict"] == "NotExtreme"
    assert obj["report"]["witness_index"] == 3
    assert obj["report"]["kadison_residual"] == pytest.approx(1.0)
    assert err == "NotExtreme: unitarity defect 1.000e+00, kadison residual 1.000e+00, witness_index 3\n"


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


def test_check_extreme_algebra_of_another_size_is_data_error(tmp_path, capsys):
    mpath = write_matrix(tmp_path, "m.json", np.eye(2))
    apath = tmp_path / "m3.json"
    ser.save_json(str(apath), {"n": 3, "elements": [ser.matrix_to_obj(np.eye(3))]})
    code, out, err = run(capsys, "check-extreme", mpath, "--algebra", str(apath))
    assert code == EXIT_DATA
    assert out == ""
    assert err.count("\n") == 1 and "algebra sits in M_3 but the matrix is 2x2" in err


@pytest.mark.parametrize("shape, code", [((3, 3), EXIT_DATA), ((3, 2), EXIT_INCONCLUSIVE)])
def test_check_extreme_in_band_algebra_of_another_size(tmp_path, capsys, shape, code):
    """An algebra file whose closure is in the band (rotated M_2 at --tol 0)
    beside a square matrix of another size is a data error, as a certified
    one is; beside a rectangular matrix it is inconclusive."""
    u = haar_from_rng(2, np.random.default_rng(2))
    apath = write_algebra(tmp_path, "rot.json", [u @ matrix_unit(2, i, j) @ u.conj().T for i in range(2) for j in range(2)])
    got, out, err = run(capsys, "check-extreme", write_matrix(tmp_path, "w.json", np.ones(shape)), "--algebra", apath, "--tol", "0")
    assert got == code, err
    assert err.count("\n") == 1
    if code == EXIT_DATA:
        assert out == "" and "algebra sits in M_2 but the matrix is 3x3" in err
    else:
        assert json.loads(out)["reason"] == "closure-in-band"


def write_algebra(tmp_path, name, elements):
    path = tmp_path / name
    n = len(elements[0])
    ser.save_json(str(path), {"n": n, "elements": [ser.matrix_to_obj(np.asarray(e, dtype=complex)) for e in elements]})
    return str(path)


def test_check_extreme_matrix_outside_the_algebra_is_data_error(tmp_path, capsys):
    """The swap [[0, 1], [1, 0]] is not in the diagonal algebra, so it is
    not in that algebra's unit ball: the file pair is refused with one line
    naming the distance, not given a verdict."""
    mpath = write_matrix(tmp_path, "swap.json", [[0.0, 1.0], [1.0, 0.0]])
    apath = write_algebra(tmp_path, "diag.json", [matrix_unit(2, 0, 0), matrix_unit(2, 1, 1)])
    code, out, err = run(capsys, "check-extreme", mpath, "--algebra", apath)
    assert code == EXIT_DATA
    assert out == ""
    assert err.count("\n") == 1 and "lies 1.414e+00 from the algebra's span" in err
    # over the full algebra the swap is a unitary, so extreme
    code, obj, _ = run_json(capsys, "check-extreme", mpath)
    assert (code, obj["report"]["verdict"]) == (EXIT_OK, "Extreme")


def test_check_extreme_off_block_entry_is_data_error(tmp_path, capsys):
    """A block unitary of M_2 + M_2 is extreme in that algebra; half of it
    plus 1e-3 in one off-block entry, a contraction, is no element of it."""
    rng = np.random.default_rng(3)
    w = np.zeros((4, 4), dtype=complex)
    w[:2, :2], w[2:, 2:] = haar_from_rng(2, rng), haar_from_rng(2, rng)
    apath = write_algebra(tmp_path, "blocks.json", [matrix_unit(4, i, j) for lo in (0, 2) for i in (lo, lo + 1) for j in (lo, lo + 1)])
    code, obj, err = run_json(capsys, "check-extreme", write_matrix(tmp_path, "w.json", w), "--algebra", apath)
    assert (code, obj["report"]["verdict"], obj["report"]["witness_index"]) == (EXIT_OK, "Extreme", None), err
    moved = 0.5 * w
    moved[0, 3] = 1e-3
    code, out, err = run(capsys, "check-extreme", write_matrix(tmp_path, "moved.json", moved), "--algebra", apath)
    assert code == EXIT_DATA
    assert out == ""
    assert err.count("\n") == 1 and "lies 1.000e-03 from the algebra's span" in err


@pytest.mark.parametrize("scale", [1e-7, 1.0, 1e300])
def test_check_extreme_verdict_does_not_depend_on_element_scale(tmp_path, capsys, scale):
    """W = E_11 over the diagonal algebra given as {E_11, s E_22}: the
    Kadison residual is taken over unit-norm elements, so every scale s
    gives residual 1, witnessed by the second element, and exit 1."""
    mpath = write_matrix(tmp_path, "e11.json", matrix_unit(2, 0, 0))
    apath = write_algebra(tmp_path, "diag.json", [matrix_unit(2, 0, 0), scale * matrix_unit(2, 1, 1)])
    code, obj, err = run_json(capsys, "check-extreme", mpath, "--algebra", apath)
    assert code == EXIT_NEGATIVE, err
    assert obj["report"]["verdict"] == "NotExtreme"
    assert (obj["report"]["kadison_residual"], obj["report"]["witness_index"]) == (1.0, 1)


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
    assert (obj["report"]["kadison_residual"], obj["report"]["witness_index"]) == (None, None)


def test_check_extreme_reports_which_closure_certificate_held(tmp_path, capsys):
    """Beside the isometry class, a report over an algebra file names the
    certificate that showed the file's span closed: the block sizes for the
    units of M_2 + M_3 rotated by a unitary, with no multiplicities as every
    one is 1, and the block size with its multiplicity for {A (x) I_2} over
    the units of M_2, also for a non-square W.  Over the full algebra there
    is no file and no key."""
    rng = np.random.default_rng(9)
    u = haar_from_rng(5, rng)
    rotated = [u @ matrix_unit(5, i, j) @ u.conj().T for lo, hi in ((0, 2), (2, 5)) for i in range(lo, hi) for j in range(lo, hi)]
    w = np.zeros((5, 5), dtype=complex)
    w[:2, :2], w[2:, 2:] = haar_from_rng(2, rng), haar_from_rng(3, rng)
    mpath = write_matrix(tmp_path, "w.json", u @ w @ u.conj().T)
    code, obj, err = run_json(capsys, "check-extreme", mpath, "--algebra", write_algebra(tmp_path, "rot.json", rotated))
    assert (code, obj["report"]["verdict"]) == (EXIT_OK, "Extreme"), err
    assert list(obj) == ["isometry_class", "algebra", "report", "run"]
    assert obj["algebra"] == {"closure": "blocks", "blocks": [2, 3]}
    doubled = write_algebra(tmp_path, "doubled.json", [np.kron(matrix_unit(2, i, j), np.eye(2)) for i in range(2) for j in range(2)])
    code, obj, err = run_json(capsys, "check-extreme", write_matrix(tmp_path, "eye.json", np.eye(4)), "--algebra", doubled)
    closure = {"closure": "blocks", "blocks": [2], "multiplicities": [2]}
    assert (code, obj["algebra"]) == (EXIT_OK, closure), err
    code, obj, err = run_json(capsys, "check-extreme", write_matrix(tmp_path, "wide.json", np.ones((4, 2))), "--algebra", doubled)
    assert (code, obj["reason"], obj["algebra"]) == (EXIT_INCONCLUSIVE, "nonsquare-matrix", closure), err
    code, obj, err = run_json(capsys, "check-extreme", mpath)
    assert code == EXIT_OK and "algebra" not in obj, err


@pytest.mark.parametrize("tol, want", [
    ("0", EXIT_INCONCLUSIVE),
    ("1e-17", EXIT_INCONCLUSIVE),
    ("1e-16", EXIT_INCONCLUSIVE),
    ("1e-15", EXIT_INCONCLUSIVE),
    ("1e-8", EXIT_OK),
    ("0.01", EXIT_OK),
    ("0.3", EXIT_OK),
    ("0.5", EXIT_INCONCLUSIVE),
    ("1e3", EXIT_INCONCLUSIVE),
])
def test_rotated_m2_algebra_file_across_tolerances(tmp_path, capsys, tol, want):
    """W = I_2 over the four units of M_2 conjugated by a Haar unitary.  At
    a tol_eff below the certificate's rounding allowance 16 n^2 eps
    (--tol 1e-15 and below), and at a tol_eff of 1 or more (--tol 0.5 and
    1e3), where the SVD keeps only the rows of singular value above it, no
    block structure certifies the span and no closure residual exceeds ten
    times tol_eff: exit 2 with a report that carries the bound and the
    threshold.  A check by the products of one basis refused this file at
    0, 1e-17, 1e-16 and 0.5 (exit 65) and accepted it over an empty span at
    1e3.  In between, the file is M_2 and I_2 is Extreme."""
    u = haar_from_rng(2, np.random.default_rng(2))
    units = [u @ matrix_unit(2, i, j) @ u.conj().T for i in range(2) for j in range(2)]
    apath = write_algebra(tmp_path, "rot.json", units)
    code, obj, err = run_json(capsys, "check-extreme", write_matrix(tmp_path, "eye.json", np.eye(2)), "--algebra", apath, "--tol", tol)
    assert code == want, err
    assert err.count("\n") == 1
    if want == EXIT_OK:
        assert obj["algebra"] == {"closure": "blocks", "blocks": [2]}
        assert obj["report"]["verdict"] == "Extreme"
        return
    assert list(obj) == ["isometry_class", "algebra", "verdict", "reason", "run"]
    assert (obj["isometry_class"], obj["verdict"], obj["reason"]) == ("Unitary", "Inconclusive", "closure-in-band")
    closure = obj["algebra"]
    assert closure["closure"] == "in-band"
    assert closure["bound"] <= closure["threshold"] == 10 * Tolerance(float(tol)).effective(2, 2) + 16 * 4 * np.finfo(float).eps


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


@pytest.mark.parametrize("algebra", [False, True], ids=["full", "algebra-file"])
def test_check_extreme_outside_the_ball_is_not_extreme(tmp_path, capsys, algebra):
    """1e100 I_2, whose w*w overflows, is NotExtreme with reason
    outside-ball and its norm as the certificate, read off the values-only
    SVD before any defect is formed."""
    path = write_matrix(tmp_path, "big.json", 1e100 * np.eye(2))
    args = []
    if algebra:
        apath = tmp_path / "diag.json"
        ser.save_json(str(apath), {"n": 2, "elements": [ser.matrix_to_obj(matrix_unit(2, i, i)) for i in range(2)]})
        args = ["--algebra", str(apath)]
    code, obj, err = run_json(capsys, "check-extreme", path, *args)
    assert code == EXIT_NEGATIVE
    assert obj["isometry_class"] == "None"
    assert obj["report"] == {"verdict": "NotExtreme", "reason": "outside-ball", "norm": 1e100}
    assert err == "NotExtreme: norm 1.000e+100 is outside the unit ball\n"


@st.composite
def scaled_matrices(draw):
    """A unitary, a partial isometry, a contraction or a Gaussian matrix of
    at most 4 x 4, square or not, scaled by 10^e for e in [-300, 300]."""
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 4)) if draw(st.booleans()) else m
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    k = min(m, n)
    s = {
        "unitary": np.ones(k),
        "partial-isometry": (np.arange(k) % 2).astype(float),
        "contraction": rng.uniform(0.0, 1.0, k),
        "gaussian": rng.uniform(0.0, 3.0, k),
    }[draw(st.sampled_from(["unitary", "partial-isometry", "contraction", "gaussian"]))]
    core = np.zeros((m, n))
    core[range(k), range(k)] = s
    w = haar_from_rng(m, rng) @ core @ haar_from_rng(n, rng)
    return w * 10.0 ** draw(st.floats(-300.0, 300.0))


@given(scaled_matrices(), st.booleans())
@settings(max_examples=100, deadline=None)
def test_no_scale_of_a_valid_matrix_is_a_numerical_failure(tmp_path_factory, w, algebra):
    """check-extreme gives every scale of a valid matrix a report and a
    verdict exit code, over the full algebra or over it given as a file of
    its matrix units: none ends in a numerical failure."""
    tmp = tmp_path_factory.mktemp("scaled")
    path = write_matrix(tmp, "w.json", w)
    args = []
    if algebra:
        n = w.shape[0]
        apath = tmp / "units.json"
        ser.save_json(str(apath), {"n": n, "elements": _block_unit_objs((n,))})
        args = ["--algebra", str(apath)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["check-extreme", path, *args])
    assert code in (EXIT_OK, EXIT_NEGATIVE, EXIT_INCONCLUSIVE), err.getvalue()
    assert "numerical failure" not in err.getvalue()
    report = json.loads(out.getvalue())
    if w.shape[0] != w.shape[1]:
        assert report["reason"] == "nonsquare-matrix"
    elif np.linalg.norm(w, 2) > 2:
        assert report["report"]["reason"] == "outside-ball"


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


@pytest.mark.parametrize("epsilon", ["-0.1", "nan", "inf", "1e400"])
def test_make_bad_epsilon_is_usage_error(capsys, epsilon):
    """A negative or non-finite --epsilon is refused before any map is
    drawn, for a kind that does not use it too."""
    for kind in ("hom", "perturbed"):
        code, out, err = run(capsys, "make", "--kind", kind, "--n", "2", "--epsilon", epsilon)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.count("\n") == 1 and "epsilon must be finite and nonnegative" in err


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


# the integers each flag takes: those a report can hold, [-2**63, 2**64)
_INT_RANGES = {
    "classify --seed": (0, 2**64 - 1),
    "verify-identities --seed": (0, 2**64 - 1),
    "make --seed": (-(2**63), 2**64 - 1),
    # a hom instance has no blocks: p and q are only copied into the report
    "make --p": (0, 2**64 - 1),
    "make --q": (0, 2**64 - 1),
}


def _int_argv(tmp_path, key, value):
    command, flag = key.split()
    if command == "make":
        return ["make", "--kind", "hom", "--n", "2", flag, str(value)]
    phi = generate(InstanceSpec(n=2, kind=InstanceKind.HOM_PRESERVER, seed=7))
    return [command, write_superop(tmp_path, "in.json", phi), flag, str(value)]


@pytest.mark.parametrize("key", list(_INT_RANGES))
@pytest.mark.parametrize("end", [0, 1], ids=["low", "high"])
def test_integer_beyond_what_a_report_holds_is_usage_error(tmp_path, capsys, key, end):
    """One past either end of a flag's range exits 64 with one stderr line
    naming the flag, before the input (here missing) is read."""
    value = _INT_RANGES[key][end] + (1 if end else -1)
    argv = _int_argv(tmp_path, key, value)
    if argv[0] != "make":
        argv[1] = str(tmp_path / "missing.json")
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.count("\n") == 1 and key.split()[1] in err


@pytest.mark.parametrize("key", list(_INT_RANGES))
@pytest.mark.parametrize("end", [0, 1], ids=["low", "high"])
def test_integer_at_either_end_of_its_range_is_reported(tmp_path, capsys, key, end):
    value = _INT_RANGES[key][end]
    code, obj, err = run_json(capsys, *_int_argv(tmp_path, key, value))
    assert code == EXIT_OK, err
    command, flag = key.split()
    assert (obj["meta"]["instance"] if command == "make" else obj["run"])[flag[2:]] == value


_MIXED_N1 = ("--kind", "mixed", "--n", "1")


@pytest.mark.parametrize("args", [
    (*_MIXED_N1, "--p", 2**63 - 1), (*_MIXED_N1, "--p", 2**63), (*_MIXED_N1, "--p", 2**64 - 1),
    (*_MIXED_N1, "--q", 2**63), (*_MIXED_N1, "--q", 2**64 - 1), (*_MIXED_N1, "--p", 2**62, "--q", 2**62),
    ("--kind", "hom", "--n", 2**32), ("--kind", "anti", "--n", 10**20), ("--kind", "perturbed", "--n", 100000),
], ids=["p-2^63-1", "p-2^63", "p-2^64-1", "q-2^63", "q-2^64-1", "p-q-2^62", "n-2^32", "n-10^20", "n-10^5"])
def test_more_blocks_than_memory_holds_is_out_of_memory(capsys, args):
    """An instance whose matrix would pass sys.maxsize bytes, from p + q
    blocks up to the top of the --p/--q range or from a large --n, is
    refused before anything is allocated: one "out of memory" line that
    names the byte count, and exit 2."""
    code, out, err = run(capsys, "make", *map(str, args))
    assert code == EXIT_INCONCLUSIVE
    assert out == ""
    assert err.count("\n") == 1 and "out of memory" in err and "bytes" in err
    assert not any(line.endswith(": ") for line in err.splitlines())


@pytest.mark.parametrize("columns, scale", [((7, 5), 1e154), ((7,), 1e300)], ids=["E23-E32-1e154", "E23-1e300"])
def test_huge_miss_is_a_mismatch_not_an_overflow(tmp_path, capsys, columns, scale):
    """Columns of a Hom map on M_3 scaled so far that the summed squared
    misses overflow: the Frobenius gate fails and the SVD decides, so the
    answer is a rejection with a finite operator-norm residual."""
    phi = generate(InstanceSpec(n=3, kind=InstanceKind.HOM_PRESERVER, seed=2))
    matrix = phi.matrix.copy()
    matrix[:, list(columns)] *= scale  # column i + 3 j is E_ij: 7 is E_23, 5 is E_32
    code, obj, err = run_json(capsys, "classify", write_superop(tmp_path, "big.json", SuperOperator(3, 3, matrix)))
    assert code == EXIT_NEGATIVE, err
    cert = obj["certificate"]
    assert (cert["verdict"], cert["reason"]) == ("NotPreserver", "reconstruction-mismatch")
    assert cert["residual_norm"] == "operator"
    assert scale / 10 < cert["reconstruction_residual"] < math.inf


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
    would not be finite, and no RuntimeWarning.  The check-extreme input is
    w = 1.189e77 I over the full algebra at --tol 1e100, so that w stays in
    the band around the ball: the entries of I - w*w are finite, but the
    Kadison residual ||I - w*w||^2 = 1.41e154^2 is past the float range.
    Over span{1e308 I, 1e308 J} (J the all-ones matrix) as an algebra file
    the same w reaches no residual: tol_eff = 2e100 exceeds every singular
    value of the unit-norm elements, so the span holds no row, and the file
    gets an inconclusive report, with the identity's distance sqrt 2 as its
    bound against 10 tol_eff.  The classify input keeps Phi(I) = I and
    scales the images of E_12 and E_21 by 1e300, so the form probe
    F_12 v* F_21 overflows (a scaled identity gets a verdict)."""
    args = []
    if command == "check-extreme":
        path = write_matrix(tmp_path, "big.json", 1.189e77 * np.eye(2))
        args = ["--tol", "1e100"]
        apath = write_algebra(tmp_path, "algebra.json", [1e308 * np.eye(2), 1e308 * np.ones((2, 2))])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, obj, err = run_json(capsys, command, path, "--algebra", apath, *args)
        assert code == EXIT_INCONCLUSIVE, err
        assert (obj["verdict"], obj["reason"]) == ("Inconclusive", "closure-in-band")
        assert obj["algebra"] == {"closure": "in-band", "bound": pytest.approx(math.sqrt(2)), "threshold": pytest.approx(2e101)}
        assert err.count("\n") == 1
    elif command == "classify":
        m = np.eye(4, dtype=complex)
        m[:, 1:3] *= 1e300
        path = write_superop(tmp_path, "big.json", SuperOperator(2, 2, m))
    else:
        path = write_superop(tmp_path, "big.json", SuperOperator(2, 2, 1e300 * np.eye(4, dtype=complex)))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run(capsys, command, path, *args)
    assert code == EXIT_INCONCLUSIVE
    assert out == ""
    assert err.count("\n") == 1 and "numerical failure: overflow" in err


def test_zero_over_a_huge_algebra_element_is_not_extreme(tmp_path, capsys):
    """w = 0 in span{I, 1e308 J}: the elements are scaled to unit norm
    before the Kadison residual, so ||J / 2|| = 1 is the residual and the
    J element its witness, where the raw ||1e308 J|| would overflow."""
    path = write_matrix(tmp_path, "zero.json", np.zeros((2, 2)))
    apath = write_algebra(tmp_path, "algebra.json", [np.eye(2), 1e308 * np.ones((2, 2))])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, obj, err = run_json(capsys, "check-extreme", path, "--algebra", apath)
    assert code == EXIT_NEGATIVE, err
    assert obj["report"]["verdict"] == "NotExtreme"
    assert obj["report"]["witness_index"] == 1
    assert obj["report"]["kadison_residual"] == pytest.approx(1.0, abs=1e-15)


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
    """numpy's MemoryError names the allocation; CPython's may carry no
    message, and still gives a line with something after the colon."""
    path = write_superop(tmp_path, "id.json", identity_map(2))
    for error in (MemoryError("Unable to allocate 7.00 TiB"), MemoryError()):

        def exhausted(*args, **kwargs):
            raise error

        monkeypatch.setattr(cli, "classify_preserver", exhausted)
        code, out, err = run(capsys, "classify", path)
        assert code == EXIT_INCONCLUSIVE
        assert out == ""
        assert err.count("\n") == 1 and "out of memory" in err
        assert not err.endswith(": \n")


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


@pytest.mark.parametrize("case, code", [
    ("preserver", EXIT_OK),
    ("rectangular", EXIT_INCONCLUSIVE),
    ("twice-identity", EXIT_NEGATIVE),
    ("make", EXIT_OK),
])
def test_closed_stdout_keeps_the_exit_code(tmp_path, case, code):
    """A reader that closes stdout before the report is written, as in
    ``unitball classify f.json | true``, changes neither the exit code nor
    stderr: no traceback, no error at interpreter exit."""
    maps = {
        "preserver": generate(InstanceSpec(n=1, kind=InstanceKind.HOM_PRESERVER, seed=0)),
        "rectangular": direct_sum_embedding([BlockKind.ID, BlockKind.ID], np.eye(2)),
        "twice-identity": SuperOperator(2, 2, 2 * np.eye(4)),
    }
    if case == "make":
        argv = ["make", "--kind", "hom", "--n", "1"]
    else:
        argv = ["classify", write_superop(tmp_path, "phi.json", maps[case])]
    src = str(pathlib.Path(unitball.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "unitball", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, env=env, text=True, timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr
    assert proc.stderr.strip() != ""
