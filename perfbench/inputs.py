"""Seeded inputs for the three workloads, built with numpy alone.

The generators here share no code with ``unitball``: every input is a
superoperator or matrix whose answer is known by construction, so the
checks in ``checks.py`` can hold the program to it.  Files are written in
the program's documented JSON formats, indented like ``unitball make``
output.

Each workload is a fixed *round*: the same list of operations, in the same
order, for every seed.  The seed changes only the random unitaries,
contractions and mixing weights inside the inputs, never the shapes or the
kinds, so the work per round is the same on every seed.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

TOL_ABS = 1e-8  # the program's default --tol; tol_eff scales it by sqrt(rows*cols)

# The near-tolerance input is the same on every seed (see reject_mix).
NEAR_TOL_SEED = 20260418
NEAR_TOL_N = 6
NEAR_TOL_DEFECT = 3.0  # unitarity defect of phi(I), in units of tol_eff(n, n)


def tol_eff(rows: int, cols: int) -> float:
    return TOL_ABS * math.sqrt(rows * cols)


@dataclass
class Op:
    """One CLI invocation and everything its checker needs to know.

    ``kind`` names the input class; ``truth`` holds the generated ground
    truth (factors, block counts, block sizes) that never reaches the
    program.
    """

    kind: str
    argv: list[str]
    n: int
    matrix: np.ndarray
    truth: dict = field(default_factory=dict)
    expected_fault: bool = False


# ------------------------------------------------------------ primitives


def haar(n: int, rng: np.random.Generator) -> np.ndarray:
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def contraction(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar unitary with its columns scaled into [0.2, 0.9]: norm < 1, far from unitary."""
    return haar(n, rng) * rng.uniform(0.2, 0.9, size=n)


def left_right(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Matrix of A -> u A v on column-stacked vectors: vec(uAv) = (v^T kron u) vec(A)."""
    return np.kron(v.T, u)


def swap_permutation(n: int) -> np.ndarray:
    """Matrix of A -> A^T on column-stacked vectors, by index arithmetic."""
    idx = np.arange(n * n)
    i, j = idx % n, idx // n
    s = np.zeros((n * n, n * n))
    s[j + i * n, idx] = 1.0
    return s


def block_embedding(n: int, p: int, q: int) -> np.ndarray:
    """Matrix of A -> diag(A x p, A^T x q), a unital Jordan map M_n -> M_{(p+q)n}."""
    size = (p + q) * n
    idx = np.arange(n * n)
    i, j = idx % n, idx // n
    b = np.zeros((size * size, n * n))
    for blk in range(p + q):
        off = blk * n
        r, c = (off + i, off + j) if blk < p else (off + j, off + i)
        b[r + c * size, idx] = 1.0
    return b


def matrix_obj(a: np.ndarray) -> dict:
    a = np.asarray(a, dtype=np.complex128)
    return {
        "rows": a.shape[0],
        "cols": a.shape[1],
        "entries": np.stack([a.real, a.imag], axis=-1).tolist(),
    }


def superop_obj(dim_in: int, dim_out: int, m: np.ndarray) -> dict:
    return {
        "dim_in": dim_in,
        "dim_out": dim_out,
        "vec_convention": "column-stacking",
        "matrix": matrix_obj(m),
    }


def write_json(path: str, obj: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj, indent=2))
        fh.write("\n")


# ------------------------------------------------------------ workloads


def _classify_op(workdir, name, kind, n, dim_out, m, truth=None, expected_fault=False):
    path = os.path.join(workdir, f"{name}.json")
    write_json(path, superop_obj(n, dim_out, m))
    return Op(kind, ["classify", path], n, m, truth or {}, expected_fault)


def certify_large(seed: int, workdir: str) -> list[Op]:
    """One hom and one anti preserver at n = 12."""
    n = 12
    ops = []
    for idx, kind in enumerate(("hom", "anti")):
        rng = np.random.default_rng((seed, 1, idx))
        u, v = haar(n, rng), haar(n, rng)
        m = left_right(u, v)
        if kind == "anti":
            m = m @ swap_permutation(n)
        ops.append(_classify_op(workdir, f"{kind}{n}", kind, n, n, m))
    return ops


# (n, p, q) of the rectangular Jordan embeddings M_n -> M_{(p+q)n}
RECT_SHAPES = ((2, 1, 1), (2, 2, 1), (3, 1, 1), (2, 0, 3))


def reject_mix(seed: int, workdir: str) -> list[Op]:
    """30 small maps: 5 pinchings, 10 contractions, 10 mixtures, 4 rectangular, 1 near-tolerance."""
    ops = []
    for n in range(2, 7):
        v = np.eye(n).flatten(order="F")
        ops.append(_classify_op(workdir, f"pinch{n}", "pinch", n, n, np.outer(v, v) / n))
    for idx, n in enumerate(list(range(2, 7)) * 2):
        rng = np.random.default_rng((seed, 2, idx))
        m = left_right(contraction(n, rng), contraction(n, rng))
        ops.append(_classify_op(workdir, f"contraction{idx}", "contraction", n, n, m))
    for idx, n in enumerate(list(range(2, 7)) * 2):
        rng = np.random.default_rng((seed, 3, idx))
        t = rng.uniform(0.3, 0.7)
        # U (tA + (1-t)A^T) V: phi(I) = UV is unitary, the Jordan identities fail
        m = left_right(haar(n, rng), haar(n, rng)) @ (
            t * np.eye(n * n) + (1 - t) * swap_permutation(n)
        )
        ops.append(_classify_op(workdir, f"mixture{idx}", "mixture", n, n, m, {"t": t}))
    for idx, (n, p, q) in enumerate(RECT_SHAPES):
        rng = np.random.default_rng((seed, 4, idx))
        size = (p + q) * n
        w = haar(size, rng)
        m = np.kron(w.conj(), w) @ block_embedding(n, p, q)
        ops.append(
            _classify_op(workdir, f"rect{idx}", "rect", n, size, m, {"p": p, "q": q})
        )
    # A preserver scaled by (1 + d): every unitary's image misses unitarity
    # by exactly NEAR_TOL_DEFECT * tol_eff, inside the Inconclusive decade.
    # Fixed input, because the program fails it on every run (exit 1, not 2).
    n = NEAR_TOL_N
    rng = np.random.default_rng(NEAR_TOL_SEED)
    d = math.sqrt(1.0 + NEAR_TOL_DEFECT * tol_eff(n, n)) - 1.0
    m = (1.0 + d) * left_right(haar(n, rng), haar(n, rng))
    ops.append(_classify_op(workdir, "neartol", "near-tol", n, n, m, expected_fault=True))
    return ops


FULL_SHAPES = (("unitary", 48), ("contraction", 48), ("unitary", 64),
               ("partial-isometry", 64), ("unitary", 80), ("contraction", 80))
BLOCK_LAYOUTS = ((4, 4, 4, 4), (3, 5, 8))


def _full_matrix(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    if kind == "unitary":
        return haar(n, rng)
    if kind == "contraction":
        return contraction(n, rng)
    rank = n - n // 4
    return (haar(n, rng)[:, :rank]) @ (haar(n, rng)[:rank, :])


def block_units(blocks) -> list[np.ndarray]:
    """Matrix units E_ij with i, j in the same diagonal block: a basis of the block algebra."""
    n = sum(blocks)
    out = []
    off = 0
    for b in blocks:
        for i in range(off, off + b):
            for j in range(off, off + b):
                e = np.zeros((n, n))
                e[i, j] = 1.0
                out.append(e)
        off += b
    return out


def extreme_check(seed: int, workdir: str) -> list[Op]:
    """6 full-algebra matrices (n = 48..80) and 4 block-algebra matrices (n = 16)."""
    ops = []
    for idx, (kind, n) in enumerate(FULL_SHAPES):
        rng = np.random.default_rng((seed, 5, idx))
        w = _full_matrix(kind, n, rng)
        path = os.path.join(workdir, f"full{idx}.json")
        write_json(path, matrix_obj(w))
        ops.append(Op(f"full-{kind}", ["check-extreme", path], n, w, {"algebra": None}))
    for idx, blocks in enumerate(BLOCK_LAYOUTS):
        n = sum(blocks)
        basis = block_units(blocks)
        apath = os.path.join(workdir, f"algebra{idx}.json")
        write_json(apath, {"n": n, "elements": [matrix_obj(e) for e in basis]})
        for deficient in (False, True):
            rng = np.random.default_rng((seed, 6, idx, int(deficient)))
            parts = [haar(b, rng) for b in blocks]
            if deficient:
                # first layout: one contraction block; second: one rank-deficient
                # partial-isometry block
                b = blocks[-1]
                parts[-1] = contraction(b, rng) if idx == 0 else parts[-1] @ np.diag(
                    [1.0] * (b - 1) + [0.0]
                )
            w = np.zeros((n, n), dtype=np.complex128)
            off = 0
            for blk in parts:
                w[off:off + len(blk), off:off + len(blk)] = blk
                off += len(blk)
            path = os.path.join(workdir, f"block{idx}{'d' if deficient else 'u'}.json")
            write_json(path, matrix_obj(w))
            ops.append(
                Op(
                    "block-deficient" if deficient else "block-unitary",
                    ["check-extreme", path, "--algebra", apath],
                    n,
                    w,
                    {"algebra": basis, "blocks": blocks},
                )
            )
    return ops


WORKLOADS = {
    "certify-large": certify_large,
    "reject-mix": reject_mix,
    "extreme-check": extreme_check,
}
