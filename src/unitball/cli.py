"""Command-line front end: file I/O, analyses, JSON reports.

Four subcommands:

* ``check-extreme``: extreme-point test for a matrix file, over the full
  matrix algebra or a user-supplied *-subalgebra basis.
* ``classify``: the complete preserver pipeline for a superoperator file;
  its report holds the certificate and the ``run`` info.
* ``make``: write a generated instance (preservers, Jordan embeddings,
  pinchings, perturbations, contractions) as a superoperator file.
* ``verify-identities``: standalone audit of the structural identities a
  preserver must satisfy, with per-identity max residuals.

Machine-readable reports go to stdout as JSON; a one-line human summary
goes to stderr (colored when stderr is a terminal, unless NO_COLOR is
set).  Exit codes form a closed contract: 0 affirmative, 1 negative,
2 inconclusive (out of theorem scope, numerical failure, out of memory),
64 usage error, 65 malformed input file.

:func:`main` runs every analysis command: it builds the tolerance before
any input is read, takes the command's report, verdict label and detail,
adds the ``run`` info and maps the label through ``_EXIT_BY_VERDICT``.
Overflow or invalid arithmetic is a numerical failure with no report, so
no report carries a non-finite number.  The parser is built once.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time

import numpy as np

from . import __version__, serialize as ser
from .extremal import ExtremeVerdict, InconclusiveClosure, OutsideBallReport, StarAlgebraBasis
from .extremal import classify_isometry, kadison_extreme_test
from .gen import InstanceKind, InstanceSpec, generate
from .linalg import Band, Tolerance
from .preserver import PreserverVerdict, classify_preserver, identity_residuals

__all__ = ["main", "EXIT_OK", "EXIT_NEGATIVE", "EXIT_INCONCLUSIVE", "EXIT_USAGE", "EXIT_DATA"]

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 64
EXIT_DATA = 65

# Every analysis verdict label, as the README exit-code table maps it.
_EXIT_BY_VERDICT = {
    ExtremeVerdict.EXTREME.value: EXIT_OK,
    PreserverVerdict.PRESERVER.value: EXIT_OK,
    "PASS": EXIT_OK,
    ExtremeVerdict.NOT_EXTREME.value: EXIT_NEGATIVE,
    PreserverVerdict.NOT_PRESERVER.value: EXIT_NEGATIVE,
    "FAIL": EXIT_NEGATIVE,
    "Inconclusive": EXIT_INCONCLUSIVE,
}

_VERDICT_COLORS = {EXIT_OK: "32", EXIT_NEGATIVE: "31", EXIT_INCONCLUSIVE: "33"}


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad flags; the contract reserves 2 for verdicts.
    A usage error is one stderr line, as every other error is."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


# a report holds no integer from 2**64 up, which its writer (orjson) cannot write
_REPORT_INT_MAX = 2**64 - 1


def _int_in(low: int):
    """argparse type for an integer in [low, _REPORT_INT_MAX], so that a bad
    ``--seed``, ``--samples``, ``--p`` or ``--q`` is a usage error before any
    input is read."""

    def integer(text: str) -> int:
        value = int(text)  # argparse reports a ValueError as "invalid integer value"
        if not low <= value <= _REPORT_INT_MAX:
            raise argparse.ArgumentTypeError(f"expected an integer in [{low}, {_REPORT_INT_MAX}], got {value}")
        return value

    return integer


def _emit(report_obj: dict, summary: str, code: int) -> int:
    """Write the report to stdout, flushed, and the summary to stderr.  A reader
    that closed stdout early ends the output, not the exit code: stdout's
    descriptor then points at devnull, so the flush at exit cannot raise again."""
    try:
        print(ser.dump_json(report_obj), flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    if sys.stderr.isatty() and not os.environ.get("NO_COLOR"):
        color = _VERDICT_COLORS.get(code, "0")
        summary = f"\x1b[{color}m{summary}\x1b[0m"
    print(summary, file=sys.stderr)
    return code


def _cmd_check_extreme(args, tol: Tolerance) -> tuple[dict, str, str]:
    a = ser.read_json(args.matrix, ser.matrix_from_obj)
    rows, cols = a.shape
    algebra, undecided = {}, None
    if args.algebra == "full":
        basis = StarAlgebraBasis.full(rows)
    else:
        size, elems = ser.read_json(args.algebra, ser.algebra_elements_from_obj)
        if rows == cols != size:  # before the build, whatever it makes of the file
            raise ser.FormatError(f"algebra sits in M_{size} but the matrix is {rows}x{cols}")
        try:
            basis = StarAlgebraBasis(elems, tol)
        except InconclusiveClosure as exc:
            algebra = {"algebra": {"closure": "in-band", "bound": exc.bound, "threshold": exc.threshold}}
            undecided = "closure-in-band", f"algebra file: {exc}"
        except np.linalg.LinAlgError:  # a ValueError too, but a numerical failure (exit 2)
            raise
        except ValueError as exc:
            raise ser.FormatError(f"algebra file: {exc}") from exc
        else:  # the block structure that showed the file's span closed
            algebra = {"algebra": {"closure": "blocks", "blocks": list(basis.structure.blocks)}}
            if max(basis.structure.multiplicities) > 1:
                algebra["algebra"]["multiplicities"] = list(basis.structure.multiplicities)

    if rows != cols and not undecided:
        undecided = "nonsquare-matrix", f"{rows}x{cols} matrix is not in a matrix algebra"
    if undecided:
        verdict = ExtremeVerdict.INCONCLUSIVE.value
        report = {"isometry_class": classify_isometry(a, tol).value, **algebra, "verdict": verdict, "reason": undecided[0]}
        return report, verdict, undecided[1]

    try:
        rep = kadison_extreme_test(a, basis, tol)
    except np.linalg.LinAlgError:
        raise
    except ValueError as exc:  # the matrix lies outside the algebra's span
        raise ser.FormatError(str(exc)) from exc
    report = {"isometry_class": rep.isometry_class.value, **algebra, "report": ser.to_obj(rep)}
    if isinstance(rep, OutsideBallReport):
        return report, rep.verdict.value, f"norm {rep.norm:.3e} is outside the unit ball"
    detail = f"unitarity defect {rep.margin + tol.effective(rows, cols):.3e}"
    if rep.kadison_residual is not None:  # the scan ran, as the verdict is not Extreme
        detail += f", kadison residual {rep.kadison_residual:.3e}, witness_index {rep.witness_index}"
    return report, rep.verdict.value, detail


def _cmd_classify(args, tol: Tolerance) -> tuple[dict, str, str]:
    phi = ser.read_json(args.superop, ser.superop_from_obj)
    cert = classify_preserver(phi, tol, seed=args.seed)
    report = {"certificate": ser.to_obj(cert)}
    return report, cert.verdict.value, cert.reason or f"kind {cert.kind.value}"


def _cmd_verify_identities(args, tol: Tolerance) -> tuple[dict, str, str]:
    phi = ser.read_json(args.superop, ser.superop_from_obj)

    if not phi.is_square:
        report = {"verdict": "Inconclusive", "reason": "theorem-scope"}
        return report, "Inconclusive", "identities are stated for endomorphisms"

    residuals = identity_residuals(phi, samples=args.samples, seed=args.seed)
    worst = max(residuals, key=residuals.get)
    band = tol.band(residuals[worst], phi.dim_in, phi.dim_in)
    report = {"samples": args.samples, "tol": args.tol, "residuals": residuals, "pass": band is Band.PASS}
    if band is Band.PASS:
        return report, "PASS", "all identities hold"
    label = "FAIL" if band is Band.FAIL else "Inconclusive"
    return report, label, f"{worst} residual {residuals[worst]:.3e}"


def _cmd_make(args) -> int:
    try:
        spec = InstanceSpec(
            n=args.n,
            kind=InstanceKind(args.kind),
            seed=args.seed,
            p=args.p,
            q=args.q,
            epsilon=args.epsilon,
        )
    except ValueError as exc:
        print(f"make: error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    phi = generate(spec)
    obj = ser.superop_to_obj(phi)
    obj["meta"] = {"instance": ser.to_obj(spec)}
    if not args.out:
        return _emit(obj, f"generated {spec.kind.value} instance, seed {spec.seed}", EXIT_OK)

    try:
        ser.save_json(args.out, obj)
    except OSError as exc:
        print(f"make: error: cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_USAGE
    echo = {"instance": obj["meta"]["instance"], "dim_in": phi.dim_in, "dim_out": phi.dim_out, "out": args.out}
    return _emit(echo, f"wrote {spec.kind.value} instance to {args.out}", EXIT_OK)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="unitball",
        description="Extreme points of matrix unit balls and the linear maps preserving them.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("check-extreme", help="extreme-point test for a matrix file")
    p.add_argument("matrix", help="path to a matrix JSON file")
    p.add_argument(
        "--algebra",
        default="full",
        help='"full" for all of M_n (default) or a path to an algebra basis file',
    )
    p.add_argument("--tol", type=float, default=1e-8, help="absolute tolerance (default 1e-8)")
    p.set_defaults(func=_cmd_check_extreme)

    p = sub.add_parser("classify", help="preserver pipeline for a superoperator file")
    p.add_argument("superop", help="path to a superoperator JSON file")
    p.add_argument("--tol", type=float, default=1e-8, help="absolute tolerance (default 1e-8)")
    p.add_argument("--seed", type=_int_in(0), default=0, help="seed for the witness search")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("make", help="generate an instance and write it as a superoperator file")
    p.add_argument("--kind", required=True, choices=[k.value for k in InstanceKind])
    p.add_argument("--n", type=int, required=True, help="base matrix dimension")
    p.add_argument("--p", type=_int_in(0), default=0, help="identity-block multiplicity (mixed kind)")
    p.add_argument("--q", type=_int_in(0), default=0, help="transpose-block multiplicity (mixed kind)")
    p.add_argument("--epsilon", type=float, default=0.0, help="perturbation size (perturbed kind)")
    p.add_argument("--seed", type=_int_in(-(2**63)), default=0)
    p.add_argument("--out", help="output path (default: write the file to stdout)")

    p = sub.add_parser("verify-identities", help="audit the structural preserver identities")
    p.add_argument("superop", help="path to a superoperator JSON file")
    p.add_argument("--samples", type=_int_in(1), default=50, help="sampled inputs per identity")
    p.add_argument("--seed", type=_int_in(0), default=0)
    p.add_argument("--tol", type=float, default=1e-8, help="absolute tolerance (default 1e-8)")
    p.set_defaults(func=_cmd_verify_identities)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (None, 0) else int(exc.code)
    try:
        if args.command == "make":
            return _cmd_make(args)
        t0 = time.perf_counter()
        tol = Tolerance(abs=args.tol)
        with np.errstate(over="raise", invalid="raise"):
            report, label, detail = args.func(args, tol)
        report["run"] = ser.run_info(tol, getattr(args, "seed", None), time.perf_counter() - t0)
        return _emit(report, f"{label}: {detail}", _EXIT_BY_VERDICT[label])
    except ser.FormatError as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (np.linalg.LinAlgError, FloatingPointError) as exc:
        # LinAlgError is a ValueError too, but no fault of the arguments: no verdict was reached
        print(f"{parser.prog}: numerical failure: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except MemoryError as exc:
        print(f"{parser.prog}: out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except ValueError as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
