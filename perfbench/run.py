#!/usr/bin/env python3
"""Benchmark of the ``unitball`` CLI, driven in-process through ``cli.main``.

    python3 perfbench/run.py --workload reject-mix --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from its ``src``.
Set-up writes the workload's inputs (``inputs.py``) as JSON files, runs one
warm-up round and a negative control of the output checks, then a closed
loop of one client calls ``cli.main`` on whole rounds of the same
operations until ``--seconds`` have passed.  Every output is checked
(``checks.py``).  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``, with the end-to-end
metrics for ``--trace 0`` and the per-layer metrics for ``--trace 1``
(``spans.py``).
"""

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

# One BLAS thread, fixed before numpy loads: on the 2-core machine the
# benchmark was written on, two threads gave no consistent speed-up at n = 8 or 12.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SET_UPS = 3  # input generations per run; setup_s counts their median


def since_process_start() -> float:
    """Seconds since this process started (10 ms resolution), 0 without /proc."""
    try:
        with open("/proc/self/stat") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        with open("/proc/uptime") as fh:
            uptime = float(fh.read().split()[0])
    except (OSError, ValueError, IndexError):
        return 0.0
    return max(0.0, uptime - start_ticks / os.sysconf("SC_CLK_TCK"))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=["certify-large", "reject-mix", "extreme-check"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


class Runner:
    """Invokes ``cli.main`` on one op, checks the output, keeps the tally."""

    def __init__(self, cli, check):
        self.cli, self.check = cli, check
        self.attempted = self.failed = 0
        self.unexpected = 0  # failures outside the known-fault inputs
        self.messages: list[str] = []

    def invoke(self, op):
        """One CLI call: (exit code, stdout, wall seconds)."""
        buf, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
            try:
                code = self.cli.main(op.argv)
            except Exception as exc:  # a traceback is a failed op, not a dead benchmark
                code = f"raised {exc!r}"
        return code, buf.getvalue(), time.perf_counter() - t0

    def tally(self, op, code, stdout) -> None:
        self.attempted += 1
        problems = self.check(op, code, report(stdout))
        if problems:
            self.failed += 1
            if not op.expected_fault:
                self.unexpected += 1
                if len(self.messages) < 20:
                    self.messages.append(f"{op.kind} {' '.join(op.argv)}: {'; '.join(problems)}")


def report(stdout: str):
    try:
        return json.loads(stdout)
    except ValueError:
        return None


def main(argv=None) -> int:
    t_main = time.perf_counter()
    pre_main = since_process_start()
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "unitball", "cli.py")):
        print(f"perfbench: no unitball sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    import unitball
    from unitball import cli

    if not os.path.abspath(unitball.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported unitball from {unitball.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import checks
    import inputs

    t_imported = time.perf_counter()
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT)
    try:
        gen_times = []
        for _ in range(SET_UPS):
            t0 = time.perf_counter()
            ops = inputs.WORKLOADS[args.workload](args.seed % 2**63, workdir)
            gen_times.append(time.perf_counter() - t0)

        runner = Runner(cli, checks.check)
        t0 = time.perf_counter()
        warm = [(op, *runner.invoke(op)[:2]) for op in ops]
        t_warm = time.perf_counter() - t0

        t0 = time.perf_counter()
        negative_control(warm, checks)
        for op, code, stdout in warm:
            runner.tally(op, code, stdout)
        runner.attempted = runner.failed = 0  # the warm-up round is checked, not counted
        t_control = time.perf_counter() - t0

        setup_s = (pre_main + (t_imported - t_main) + statistics.median(gen_times)
                   + t_warm + t_control)
        print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} "
              f"trace={args.trace} ops_per_round={len(ops)} blas_threads={BLAS_THREADS}")

        if args.trace:
            metrics = traced(args, ops, runner, statistics.median(gen_times))
        else:
            lat = closed_loop(ops, runner, args.seconds)
            metrics = {
                "setup_s": (setup_s, "s"),
                "ops_per_s": (len(lat) / sum(lat), "1/s"),
                "latency_p50_s": (statistics.median(lat), "s"),
                "latency_p90_s": (statistics.quantiles(lat, n=10, method="inclusive")[-1], "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in runner.messages:
        print(f"perfbench: wrong output: {line}", file=sys.stderr)
    result = {
        "correct": runner.unexpected == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def closed_loop(ops, runner, seconds):
    """Whole rounds of ``ops`` through ``cli.main`` until ``seconds`` have passed."""
    lat = []
    t_end = time.perf_counter() + seconds
    while True:
        for op in ops:
            code, stdout, dt = runner.invoke(op)
            lat.append(dt)
            runner.tally(op, code, stdout)
        if time.perf_counter() >= t_end:
            return lat


def negative_control(warm, checks) -> None:
    """Every genuine output passes its check and every tampered one is flagged."""
    for op, code, stdout in warm:
        rep = report(stdout)
        if rep is None or (not op.expected_fault and checks.check(op, code, rep)):
            continue  # a wrong genuine output is counted by the tally, not here
        for label, bad_code, bad in checks.tampered(op, code, rep):
            if not checks.check(op, bad_code, bad):
                raise SystemExit(f"perfbench: negative control: check passed a tampered "
                                 f"{op.kind} output ({label})")


def traced(args, ops, runner, generate_s):
    """Per-layer metrics from whole rounds in which every op runs twice.

    Each op runs once through cli.main and once as traced public calls,
    back to back, in alternating order; both sides then sample the same
    moment of machine speed, so the untraced op time and the stage times
    compare.
    """
    import spans

    peaks = dict.fromkeys(spans.PEAKS, 0.0)

    def replay(op_id, op):
        first_round = peaks if op_id <= len(ops) else None
        try:
            if op.argv[0] == "classify":
                return spans.replay_classify(tr, op_id, op.argv[1], first_round)
            algebra = op.argv[3] if len(op.argv) > 2 else None
            return spans.replay_check_extreme(tr, op_id, op.argv[1], algebra, first_round)
        except Exception as exc:  # a failed op, as in Runner.invoke
            return f"raised {exc!r}", ""

    tr = spans.Tracer()
    untraced, op_id = [], 0
    t_end = time.perf_counter() + args.seconds
    while True:
        for op in ops:
            op_id += 1
            if op_id % 2:
                code, stdout, dt = runner.invoke(op)
            runner.tally(op, *replay(op_id, op))
            if not op_id % 2:
                code, stdout, dt = runner.invoke(op)
            untraced.append(dt)
            runner.tally(op, code, stdout)
        if time.perf_counter() >= t_end:
            break
    traced_ops = op_id
    untraced_op_s = sum(untraced) / len(untraced)

    env = dict(os.environ, PYTHONPATH=SRC)
    startups = []
    for _ in range(3):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-m", "unitball", "--version"], env=env, check=True,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        startups.append(time.perf_counter() - t0)

    totals, witness_s, gap_s = spans.stage_totals(tr)
    per_op = {name: totals.get(name, 0.0) / traced_ops for name in spans.STAGES}
    traced_op_s = totals["cli.op"] / traced_ops
    metrics = {f"{name}_s": (v, "s") for name, v in per_op.items()}
    metrics.update({k: (v, "MB") for k, v in peaks.items()})
    metrics.update({
        "preserver.witness_search_s": (witness_s / traced_ops, "s"),
        "serialize.entries_parsed": (tr.entries / traced_ops, "count"),
        "serialize.bytes_out": (tr.bytes_out / traced_ops, "bytes"),
        "cli.self_s": (untraced_op_s - traced_op_s, "s"),
        "gen.generate_s": (generate_s, "s"),
        "cli.startup_s": (statistics.median(startups), "s"),
        "trace.untraced_op_s": (untraced_op_s, "s"),
        "trace.traced_op_s": (traced_op_s, "s"),
        "trace.overhead_s": (gap_s / traced_ops, "s"),
        "trace.overhead_share": (gap_s / traced_ops / untraced_op_s, "ratio"),
        "trace.spans": (len(tr.spans) / traced_ops, "count"),
    })
    tr.write(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json"),
             {"workload": args.workload, "seed": args.seed, "traced_ops": traced_ops,
              "untraced_op_s": untraced_op_s})
    return metrics


if __name__ == "__main__":
    sys.exit(main())
