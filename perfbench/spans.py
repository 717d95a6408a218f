"""The traced run: spans around public calls that replay what ``cli.main`` does.

Each traced operation is one *op span* holding the stages ``cli.main`` runs,
in its order and with its default arguments (read, parse, analysis,
falsifier, emit), each timed from outside around the same public calls.
After the op span closes, a *replay span* re-runs the stages that
``classify_preserver`` performs inside itself (image of I, Jordan core,
central split, unitary recovery, reconstruction), chosen from the
certificate it returned.  For a map on which a witness search ran, the
classify span minus those replayed stages is the witness search.  Spans
are kept in memory and written out when the run ends.  Stage names follow
the stage list of the ROADMAP's observability item.
"""

from __future__ import annotations

import json
import time
import tracemalloc
from collections import defaultdict

import numpy as np

from unitball import serialize as ser
from unitball.extremal import StarAlgebraBasis, classify_isometry, kadison_extreme_test
from unitball.gen import derive_seed
from unitball.jordan import jordan_check, recover_conjugating_unitary, stormer_split
from unitball.linalg import Tolerance, adjoint, operator_norm, unitarity_defect
from unitball.preserver import PreserverVerdict, classify_preserver, falsify_by_sampling
from unitball.superop import apply, compose, from_left_right, left_multiplier, transpose_map

# the CLI's defaults: --tol 1e-8, --seed 0, --falsify-trials 100
TOL = Tolerance(abs=1e-8)
CLI_SEED = 0
FALSIFY_TRIALS = 100

EXIT_BY_VERDICT = {"Preserver": 0, "NotPreserver": 1, "Inconclusive": 2,
                   "Extreme": 0, "NotExtreme": 1}

# per-op seconds reported for every stage, whether or not the workload runs it
STAGES = (
    "jordan.jordan_core", "jordan.central_split", "jordan.unitary_recovery",
    "preserver.reconstruction", "preserver.image_of_identity", "preserver.classify",
    "preserver.falsifier", "serialize.load_json", "serialize.parse", "serialize.emit",
    "extremal.basis", "extremal.kadison", "extremal.isometry",
)


class Tracer:
    """In-memory span log of (id, parent id, op id, name, start, end)."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.searched: set[int] = set()  # ops on which classify ran a witness search
        self.entries = 0  # complex entries parsed
        self.bytes_out = 0  # bytes of JSON emitted
        self._next = 0

    def span(self, name: str, op: int, parent: "_Span | None" = None) -> "_Span":
        self._next += 1
        return _Span(self, self._next, None if parent is None else parent.id, op, name)

    def write(self, path: str, meta: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**meta, "fields": ["id", "parent", "op", "name", "start_s", "end_s"],
                       "spans": self.spans}, fh)


class _Span:
    __slots__ = ("tr", "id", "parent", "op", "name", "t0")

    def __init__(self, tr, sid, parent, op, name):
        self.tr, self.id, self.parent, self.op, self.name = tr, sid, parent, op, name

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.tr.spans.append((self.id, self.parent, self.op, self.name, self.t0, time.perf_counter()))
        return False


def replay_classify(tr: Tracer, op_id: int, path: str, peaks: dict | None) -> tuple[int, str]:
    """``unitball classify PATH`` as traced public calls; returns (exit code, stdout JSON).

    With ``peaks``, also records the tracemalloc peaks of the Jordan core and
    central split, after and apart from the timed spans, because tracemalloc
    slows every allocation it watches.
    """
    with tr.span("cli.op", op_id) as top:
        with tr.span("serialize.load_json", op_id, top):
            obj = ser.load_json(path)
        with tr.span("serialize.parse", op_id, top):
            phi = ser.superop_from_obj(obj)
        with tr.span("preserver.classify", op_id, top):
            cert = classify_preserver(phi, TOL, seed=CLI_SEED)
        cross = None
        if phi.is_square:
            with tr.span("preserver.falsifier", op_id, top):
                witness = falsify_by_sampling(
                    phi, trials=FALSIFY_TRIALS, seed=derive_seed(CLI_SEED, "falsify"), tol=TOL
                )
                if witness is not None:
                    cross = (witness, unitarity_defect(apply(phi, witness)))
        with tr.span("serialize.emit", op_id, top):
            report = {"certificate": ser.certificate_to_obj(cert)}
            if phi.is_square:
                report["cross_check"] = {
                    "trials": FALSIFY_TRIALS,
                    "witness_found": cross is not None,
                    "agrees": not (cross is not None and cert.verdict is PreserverVerdict.PRESERVER),
                }
                if cross is not None:
                    report["cross_check"]["witness"] = ser.matrix_to_obj(cross[0])
                    report["cross_check"]["witness_defect"] = cross[1]
            report["run"] = ser.run_info(TOL, CLI_SEED, 0.0)
            text = ser.dump_json(report)
    tr.entries += phi.matrix.size
    tr.bytes_out += len(text)

    n = phi.dim_in
    with tr.span("replay", op_id) as rp:
        with tr.span("preserver.image_of_identity", op_id, rp):
            v = apply(phi, np.eye(n, dtype=np.complex128))
            unitarity_defect(v)
        if cert.jordan is not None:
            with tr.span("jordan.jordan_core", op_id, rp):
                psi = left_multiplier(adjoint(v), phi)
                jordan_check(psi, TOL)
            if cert.jordan.e is not None:
                with tr.span("jordan.central_split", op_id, rp):
                    stormer_split(psi, TOL)
        if cert.w is not None:
            with tr.span("jordan.unitary_recovery", op_id, rp):
                recover_conjugating_unitary(psi, cert.kind, TOL)
        if cert.reconstruction_residual is not None:
            with tr.span("preserver.reconstruction", op_id, rp):
                rebuilt = from_left_right(cert.u_left, cert.v_right)
                if cert.transpose_flag:
                    rebuilt = compose(rebuilt, transpose_map(n))
                operator_norm(phi.matrix - rebuilt.matrix) / operator_norm(phi.matrix)
    if peaks is not None and cert.jordan is not None:
        _record_peak(peaks, "jordan.jordan_core_peak_mb", jordan_check, psi, TOL)
        if cert.jordan.e is not None:
            _record_peak(peaks, "jordan.central_split_peak_mb", stormer_split, psi, TOL)
    if phi.is_square and cert.jordan is not None and cert.verdict is not PreserverVerdict.PRESERVER:
        tr.searched.add(op_id)
    return EXIT_BY_VERDICT[cert.verdict.value], text


def replay_check_extreme(
    tr: Tracer, op_id: int, path: str, algebra: str | None, peaks: dict | None
) -> tuple[int, str]:
    """``unitball check-extreme PATH [--algebra FILE]`` as traced public calls.

    With ``peaks``, also records the tracemalloc peak of the basis build.
    """
    with tr.span("cli.op", op_id) as top:
        with tr.span("serialize.load_json", op_id, top):
            obj = ser.load_json(path)
        with tr.span("serialize.parse", op_id, top):
            a = ser.matrix_from_obj(obj)
        tr.entries += a.size
        if algebra is None:
            with tr.span("extremal.basis", op_id, top):
                basis = StarAlgebraBasis.full(a.shape[0])
        else:
            with tr.span("serialize.load_json", op_id, top):
                aobj = ser.load_json(algebra)
            with tr.span("serialize.parse", op_id, top):
                _, elems = ser.algebra_elements_from_obj(aobj)
            tr.entries += sum(e.size for e in elems)
            with tr.span("extremal.basis", op_id, top):
                basis = StarAlgebraBasis(elems, TOL)
        with tr.span("extremal.kadison", op_id, top):
            rep = kadison_extreme_test(a, basis, TOL)
        with tr.span("extremal.isometry", op_id, top):
            iso = classify_isometry(a, TOL)
        with tr.span("serialize.emit", op_id, top):
            report = {
                "run": ser.run_info(TOL, None, 0.0),
                "isometry_class": iso.value,
                "report": ser.extreme_report_to_obj(rep),
            }
            text = ser.dump_json(report)
    tr.bytes_out += len(text)
    if peaks is not None:
        if algebra is None:
            _record_peak(peaks, "extremal.basis_peak_mb", StarAlgebraBasis.full, a.shape[0])
        else:
            _record_peak(peaks, "extremal.basis_peak_mb", StarAlgebraBasis, elems, TOL)
    return EXIT_BY_VERDICT[rep.verdict.value], text


PEAKS = ("jordan.jordan_core_peak_mb", "jordan.central_split_peak_mb", "extremal.basis_peak_mb")


def _record_peak(peaks: dict, name: str, fn, *args) -> None:
    tracemalloc.start()
    try:
        fn(*args)
        peaks[name] = max(peaks[name], tracemalloc.get_traced_memory()[1] / 2**20)
    finally:
        tracemalloc.stop()


def stage_totals(tr: Tracer) -> tuple[dict[str, float], float, float]:
    """Seconds per stage, derived witness search, and the unattributed op time.

    The unattributed time is each op span minus the stages directly inside
    it: the bookkeeping cost of tracing between spans.
    """
    totals: dict[str, float] = defaultdict(float)
    child_sum: dict[int, float] = defaultdict(float)
    for sid, parent, op, name, t0, t1 in tr.spans:
        totals[name] += t1 - t0
        if parent is not None:
            child_sum[parent] += t1 - t0
    classify_by_op: dict[int, float] = {}
    replay_by_op: dict[int, float] = {}
    gap = 0.0
    for sid, parent, op, name, t0, t1 in tr.spans:
        if name == "preserver.classify":
            classify_by_op[op] = t1 - t0
        elif name == "replay":
            replay_by_op[op] = child_sum[sid]
        elif name == "cli.op":
            gap += (t1 - t0) - child_sum[sid]
    witness = sum(classify_by_op[op] - replay_by_op[op] for op in tr.searched)
    return totals, witness, gap
