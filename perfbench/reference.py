#!/usr/bin/env python3
"""Reference figures: the ROADMAP baseline table and CLI process wall time.

    python3 perfbench/reference.py

For an anti preserver at n = 8, 12, 14 (the ROADMAP's baseline sizes) it
times ``classify_preserver``, ``jordan_check`` and ``stormer_split`` and
takes the tracemalloc peak of the last two in separate calls.  Then it
times ``python3 -m unitball classify`` as a process at n = 8 and 14 and
prints the report's own ``run.wall_time_s`` beside it.  One BLAS thread,
as in ``run.py``.  Needs about 1.5 GB at n = 14.
"""

import json
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc

os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

import inputs  # noqa: E402
from unitball import classify_preserver, jordan_check, stormer_split  # noqa: E402
from unitball.linalg import adjoint  # noqa: E402
from unitball.superop import SuperOperator, apply, left_multiplier  # noqa: E402


def anti(n: int) -> np.ndarray:
    rng = np.random.default_rng((7, n))
    return inputs.left_right(inputs.haar(n, rng), inputs.haar(n, rng)) @ inputs.swap_permutation(n)


def timed(fn, *args) -> float:
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def peak_mb(fn, *args) -> float:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def main() -> int:
    print("| n | classify_preserver (anti) | jordan_check | stormer_split "
          "| peak jordan_check | peak stormer_split |")
    print("|---|---|---|---|---|---|")
    for n in (8, 12, 14):
        phi = SuperOperator(n, n, anti(n))
        psi = left_multiplier(adjoint(apply(phi, np.eye(n))), phi)  # as classify does
        row = [timed(classify_preserver, phi), timed(jordan_check, psi), timed(stormer_split, psi)]
        row += [peak_mb(jordan_check, psi), peak_mb(stormer_split, psi)]
        print(f"| {n} | {row[0]:.2f} s | {row[1]:.2f} s | {row[2]:.2f} s "
              f"| {row[3]:.0f} MB | {row[4]:.0f} MB |", flush=True)

    print("\n| n | `unitball classify` process wall | report `run.wall_time_s` |")
    print("|---|---|---|")
    env = dict(os.environ, PYTHONPATH=SRC)
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        for n in (8, 14):
            path = os.path.join(tmp, f"anti{n}.json")
            inputs.write_json(path, inputs.superop_obj(n, n, anti(n)))
            t0 = time.perf_counter()
            done = subprocess.run([sys.executable, "-m", "unitball", "classify", path],
                                  env=env, capture_output=True, text=True)
            wall = time.perf_counter() - t0
            reported = json.loads(done.stdout)["run"]["wall_time_s"]
            print(f"| {n} | {wall:.2f} s | {reported:.2f} s |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
