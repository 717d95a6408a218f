"""JSON file formats for matrices, superoperators, bases, and reports.

JSON was chosen over a binary format because certificates are meant to be
read and diffed; numbers are serialized as shortest round-trip decimals,
so parse(serialize(x)) reproduces every entry bit-exactly.  Superoperator
files must carry the vectorization convention literal; its absence is a
parse error, which prevents silent convention mismatches with other
tools.

Files are decoded and reports written with orjson, which parses a large
matrix to the same doubles several times faster than ``json`` and rejects
``NaN``/``Infinity``, numbers beyond the float range and bytes that are not
UTF-8.  Its float text is the shortest (``1e-7``, ``1e16``), and it would write
NaN as ``null``, so :func:`dump_json` refuses a non-finite number.  A residual
is in the norm ``"frobenius"`` or ``"operator"`` its ``residual_norm`` names.

Reports are written from their records by :func:`to_obj`, field by field in
declaration order, so a field added to a record is reported with no edit
here; fields marked ``metadata={"hidden": True}`` are left out.
"""

from __future__ import annotations

import dataclasses
import gc
import math
import reprlib
from enum import Enum
from itertools import chain
from typing import Any, Callable

import numpy as np
import orjson

from .linalg import RNG_NAME, Tolerance, as_matrix
from .superop import SuperOperator

__all__ = [
    "VEC_CONVENTION",
    "FormatError",
    "matrix_to_obj",
    "matrix_from_obj",
    "superop_to_obj",
    "superop_from_obj",
    "algebra_elements_from_obj",
    "to_obj",
    "load_json",
    "read_json",
    "save_json",
    "dump_json",
    "run_info",
]

VEC_CONVENTION = "column-stacking"


class FormatError(ValueError):
    """Raised when a document does not match its declared schema."""


def load_json(path: str) -> Any:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    try:
        return orjson.loads(data)
    except orjson.JSONDecodeError as exc:
        raise FormatError(f"malformed JSON in {path}: {exc}") from exc


def read_json(path: str, parse: Callable[[Any], Any]) -> Any:
    """``parse`` of the document in the JSON file at ``path``, decoded and
    parsed with the cyclic garbage collector paused.  The lists of a decoded
    document form no cycle, and it is freed before the collector is back, so
    no collection scans it.  The caller's collector state is restored."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return parse(load_json(path))
    finally:
        if enabled:
            gc.enable()


def _finite(value: Any) -> bool:
    """Whether a JSON value holds no NaN or infinity."""
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, dict):
        value = value.values()
    elif not isinstance(value, (list, tuple)):
        return True
    for x in value:
        if not _finite(x):
            return False
    return True


def dump_json(obj: Any) -> str:
    if not _finite(obj):
        raise ValueError("a report cannot hold a NaN or an infinity")
    return orjson.dumps(obj, option=orjson.OPT_INDENT_2).decode()


def save_json(path: str, obj: Any) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_json(obj))
        fh.write("\n")


def _require(obj: dict, key: str, context: str):
    if not isinstance(obj, dict) or key not in obj:
        raise FormatError(f"{context}: missing key {key!r}")
    return obj[key]


def _as_int(x, context: str) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise FormatError(f"{context}: expected an integer, got {reprlib.repr(x)}")
    return x


def matrix_to_obj(a: np.ndarray) -> dict:
    a = np.ascontiguousarray(as_matrix(a))
    rows, cols = a.shape
    return {
        "rows": rows,
        "cols": cols,
        # a C-ordered complex128 array is its (real, imag) pairs, unpacked
        # here without a copy
        "entries": a.view(np.float64).reshape(rows, cols, 2).tolist(),
    }


def _matrix_header(obj: Any) -> tuple[int, int, list]:
    """The rows, cols and list of rows of entries of a matrix document."""
    rows = _as_int(_require(obj, "rows", "matrix"), "matrix.rows")
    cols = _as_int(_require(obj, "cols", "matrix"), "matrix.cols")
    entries = _require(obj, "entries", "matrix")
    if rows < 1 or cols < 1:
        raise FormatError(f"matrix: dimensions must be positive, got {rows}x{cols}")
    if not isinstance(entries, list) or len(entries) != rows:
        raise FormatError(f"matrix: expected {rows} rows of entries")
    return rows, cols, entries


def matrix_from_obj(obj: Any) -> np.ndarray:
    _, cols, entries = _matrix_header(obj)
    return _parse_entries(entries, cols)


def _parse_entries(entries: list, cols: int) -> np.ndarray:
    """The complex (len(entries), cols) matrix of a non-empty list of JSON
    rows of [re, im] pairs."""
    # Shape and type checks run over whole levels of the nesting at C speed;
    # numpy alone would accept bools and numeric strings.
    if set(map(type, entries)) != {list} or set(map(len, entries)) != {cols}:
        raise FormatError(f"matrix: every row must be a list of {cols} entries")
    pairs = list(chain.from_iterable(entries))
    if set(map(type, pairs)) != {list} or set(map(len, pairs)) != {2}:
        raise FormatError("matrix: every entry must be a [re, im] pair")
    flat = list(chain.from_iterable(pairs))
    for t in set(map(type, flat)):
        if issubclass(t, bool) or not issubclass(t, (int, float)):
            raise FormatError(f"matrix: entries must be numbers, got {t.__name__}")
    try:
        parts = np.array(flat, dtype=np.float64)
    except OverflowError as exc:
        raise FormatError(f"matrix: entry out of range: {exc}") from exc
    if not np.isfinite(parts).all():
        raise FormatError("matrix: non-finite entry")
    return parts.view(np.complex128).reshape(len(entries), cols)


def superop_to_obj(phi: SuperOperator) -> dict:
    return {
        "dim_in": phi.dim_in,
        "dim_out": phi.dim_out,
        "vec_convention": VEC_CONVENTION,
        "matrix": matrix_to_obj(phi.matrix),
    }


def superop_from_obj(obj: Any) -> SuperOperator:
    convention = _require(obj, "vec_convention", "superoperator")
    if convention != VEC_CONVENTION:
        raise FormatError(
            f"superoperator: vec_convention must be {VEC_CONVENTION!r}, got {reprlib.repr(convention)}"
        )
    dim_in = _as_int(_require(obj, "dim_in", "superoperator"), "superoperator.dim_in")
    dim_out = _as_int(_require(obj, "dim_out", "superoperator"), "superoperator.dim_out")
    matrix = matrix_from_obj(_require(obj, "matrix", "superoperator"))
    try:
        return SuperOperator(dim_in, dim_out, matrix)
    except ValueError as exc:
        raise FormatError(f"superoperator: {exc}") from exc


def algebra_elements_from_obj(obj: Any) -> tuple[int, np.ndarray]:
    """Parse an algebra-basis document, {"n": ..., "elements": [matrix, ...]},
    to n and the (k, n, n) stack of its elements.  Each element's header is
    checked, then the entries of all elements are parsed as one matrix."""
    n = _as_int(_require(obj, "n", "algebra"), "algebra.n")
    raw = _require(obj, "elements", "algebra")
    if not isinstance(raw, list) or not raw:
        raise FormatError("algebra: elements must be a non-empty list")
    entries = []
    for e in raw:
        rows, cols, element_entries = _matrix_header(e)
        if (rows, cols) != (n, n):
            raise FormatError(f"algebra: element shape {(rows, cols)} does not match n={n}")
        entries += element_entries
    return n, _parse_entries(entries, n).reshape(len(raw), n, n)


def to_obj(record: Any) -> Any:
    """A report record as JSON values: a dataclass becomes a dict of its fields
    that are not hidden, in declaration order, an ndarray a matrix document,
    an Enum its value; anything else, None included, is kept as it is."""
    if dataclasses.is_dataclass(record):
        names = (f.name for f in dataclasses.fields(record) if not f.metadata.get("hidden"))
        return {name: to_obj(getattr(record, name)) for name in names}
    if isinstance(record, np.ndarray):
        return matrix_to_obj(record)
    if isinstance(record, Enum):
        return record.value
    return record


# unlisted aliases that perfbench/spans.py calls; they go with ROADMAP item 2's replay
certificate_to_obj = extreme_report_to_obj = to_obj


def run_info(tol: Tolerance, seed: int | None, wall_time_s: float) -> dict:
    from . import __version__

    info = {
        "tool": "unitball",
        "version": __version__,
        "rng": RNG_NAME,
        "tolerance": to_obj(tol),
        "wall_time_s": wall_time_s,
    }
    if seed is not None:
        info["seed"] = seed
    return info
