"""Output checks, computed apart from the program, and their negative control.

``check`` holds one CLI result (exit code and parsed stdout report) to what
the generated input calls for.  Every residual here is recomputed with numpy
from the input the benchmark wrote and the ground truth it kept; nothing is
taken from ``unitball``.  ``tampered`` makes wrong variants of a genuine
result; the negative control requires ``check`` to flag each of them, so no
check passes vacuously.
"""

from __future__ import annotations

import copy

import numpy as np

from inputs import Op, matrix_obj, swap_permutation, tol_eff


def as_complex(obj: dict) -> np.ndarray:
    e = np.asarray(obj["entries"], dtype=np.float64)
    return e[..., 0] + 1j * e[..., 1]


def norm2(a: np.ndarray) -> float:
    return float(np.linalg.norm(a, ord=2))


def unitarity_defect(a: np.ndarray) -> float:
    eye = np.eye(a.shape[0])
    return max(norm2(a.conj().T @ a - eye), norm2(a @ a.conj().T - eye))


def apply_map(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    k = int(round(np.sqrt(m.shape[0])))
    return (m @ x.flatten(order="F")).reshape((k, k), order="F")


def kadison_residual(w: np.ndarray, b: np.ndarray) -> float:
    eye = np.eye(w.shape[0])
    return norm2((eye - w.conj().T @ w) @ b @ (eye - w @ w.conj().T))


# ------------------------------------------------------------ checks


def _preserver(op: Op, code: int, rep: dict) -> list[str]:
    n = op.n
    cert = rep["certificate"]
    if code != 0 or cert["verdict"] != "Preserver":
        return [f"expected Preserver with exit 0, got {cert['verdict']} with exit {code}"]
    bad = []
    if cert["transpose_flag"] != (op.kind == "anti"):
        bad.append(f"transpose_flag {cert['transpose_flag']} for a {op.kind} map")
    u, v = as_complex(cert["u_left"]), as_complex(cert["v_right"])
    for name, x in (("u_left", u), ("v_right", v)):
        if unitarity_defect(x) > tol_eff(n, n):
            bad.append(f"{name} is not unitary (defect {unitarity_defect(x):.3e})")
    rebuilt = np.kron(v.T, u)
    if cert["transpose_flag"]:
        rebuilt = rebuilt @ swap_permutation(n)
    residual = norm2(op.matrix - rebuilt) / norm2(op.matrix)
    if residual > tol_eff(n * n, n * n):
        bad.append(f"rebuilt map misses the input by {residual:.3e}")
    return bad


def _not_preserver(op: Op, code: int, rep: dict) -> list[str]:
    n = op.n
    cert = rep["certificate"]
    if code != 1 or cert["verdict"] != "NotPreserver" or cert["witness"] is None:
        return [f"expected NotPreserver with a witness and exit 1, got {cert['verdict']} with exit {code}"]
    w = as_complex(cert["witness"])
    bad = []
    if unitarity_defect(w) > tol_eff(n, n):
        bad.append(f"witness is not unitary (defect {unitarity_defect(w):.3e})")
    image_defect = unitarity_defect(apply_map(op.matrix, w))
    if image_defect <= 10 * tol_eff(n, n):
        bad.append(f"witness image is within 10 tol_eff of unitary ({image_defect:.3e})")
    return bad


def _rectangular(op: Op, code: int, rep: dict) -> list[str]:
    jordan = rep["certificate"]["jordan"] or {}
    got = (code, jordan.get("p"), jordan.get("q"))
    want = (2, op.truth["p"], op.truth["q"])
    return [] if got == want else [f"expected (exit, p, q) = {want}, got {got}"]


def _near_tolerance(op: Op, code: int, rep: dict) -> list[str]:
    return [] if code == 2 else [f"defect of 3 tol_eff must be Inconclusive (exit 2), got exit {code}"]


def _extreme(op: Op, code: int, rep: dict) -> list[str]:
    w, n = op.matrix, op.n
    if op.truth["algebra"] is None:
        want = norm2(w.conj().T @ w - np.eye(n)) <= tol_eff(n, n)
    else:
        blocks, off, want = op.truth["blocks"], 0, True
        for b in blocks:
            want &= unitarity_defect(w[off:off + b, off:off + b]) <= tol_eff(n, n)
            off += b
    verdict = rep["report"]["verdict"]
    if (code, verdict) != ((0, "Extreme") if want else (1, "NotExtreme")):
        return [f"expected {'Extreme' if want else 'NotExtreme'}, got {verdict} with exit {code}"]
    if want:
        return []
    k = rep["report"]["witness_index"]
    if op.truth["algebra"] is None:
        ok_index = isinstance(k, int) and 0 <= k < n * n
        b = np.zeros((n, n))
        if ok_index:
            b[k // n, k % n] = 1.0
    else:
        ok_index = isinstance(k, int) and 0 <= k < len(op.truth["algebra"])
        b = op.truth["algebra"][k] if ok_index else None
    if not ok_index:
        return [f"witness_index {k!r} names no basis element"]
    r = kadison_residual(w, b)
    return [] if r > tol_eff(n, n) else [f"witness element {k} has residual {r:.3e}"]


_CHECKS = {
    "hom": _preserver,
    "anti": _preserver,
    "pinch": _not_preserver,
    "contraction": _not_preserver,
    "mixture": _not_preserver,
    "rect": _rectangular,
    "near-tol": _near_tolerance,
}


def check(op: Op, code: int, rep: dict | None) -> list[str]:
    """Problems with one result; an empty list means the output is correct."""
    if rep is None:
        return [f"no JSON report (exit {code})"]
    fn = _extreme if op.argv[0] == "check-extreme" else _CHECKS[op.kind]
    try:
        return fn(op, code, rep)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return [f"report does not have the expected shape: {exc!r}"]


# ------------------------------------------------------------ negative control


def _with(rep: dict, edit) -> dict:
    out = copy.deepcopy(rep)
    edit(out)
    return out


def tampered(op: Op, code: int, rep: dict) -> list[tuple[str, int, dict]]:
    """Wrong variants of a genuine result, each one a check must catch."""
    out = []
    if op.kind in ("hom", "anti"):
        cert = rep["certificate"]
        u, v = as_complex(cert["u_left"]), as_complex(cert["v_right"])
        rephased = u.copy()
        rephased[:, 0] *= np.exp(0.5j)

        def set_u(x):
            x["certificate"]["u_left"] = matrix_obj(rephased)

        def flip(x):
            x["certificate"]["transpose_flag"] = not x["certificate"]["transpose_flag"]

        def scale(x):  # the product u (.) v is unchanged, the factors are not unitary
            x["certificate"]["u_left"] = matrix_obj(u * 1.001)
            x["certificate"]["v_right"] = matrix_obj(v / 1.001)

        out += [("u_left column rephased", code, _with(rep, set_u)),
                ("transpose_flag flipped", code, _with(rep, flip)),
                ("factors scaled off the unitary group", code, _with(rep, scale))]
    elif op.kind in ("pinch", "contraction", "mixture"):
        w = as_complex(rep["certificate"]["witness"])

        def half(x):
            x["certificate"]["witness"] = matrix_obj(0.5 * w)

        out.append(("witness not unitary", code, _with(rep, half)))
        if op.kind != "contraction":  # these maps send I to a unitary

            def eye(x):
                x["certificate"]["witness"] = matrix_obj(np.eye(op.n, dtype=np.complex128))

            out.append(("witness with a unitary image", code, _with(rep, eye)))
    elif op.kind == "rect":

        def bump(key):
            def edit(x):
                x["certificate"]["jordan"][key] += 1
            return edit

        out += [("p off by one", code, _with(rep, bump("p"))),
                ("q off by one", code, _with(rep, bump("q")))]
    elif op.kind == "near-tol":
        out.append(("NotPreserver at 3 tol_eff", 1, rep))
    else:  # check-extreme
        verdict = rep["report"]["verdict"]

        def flip_verdict(x):
            x["report"]["verdict"] = "NotExtreme" if verdict == "Extreme" else "Extreme"

        out.append(("verdict flipped", 1 - code, _with(rep, flip_verdict)))
        if verdict == "NotExtreme":

            def drop(x):
                x["report"]["witness_index"] = None

            out.append(("witness_index dropped", code, _with(rep, drop)))
            if op.truth["algebra"] is not None:
                # an element of the first block, which is unitary in every input
                def zero(x):
                    x["report"]["witness_index"] = 0

                out.append(("witness_index on a unitary block", code, _with(rep, zero)))
    return out
