"""Label-loop benchmark of the CognitiveArm reproduction.

Runs one workload for a fixed wall time and prints, as its last stdout
line, one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
The line before it is a provenance record: commit, source digest, host
fingerprint, core count, BLAS threads, seed and per-label counts.

    python3 perfbench/run.py --workload loop_b1 --seed 1 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``, taken
over the faster half of the run's one-second slices (see ``metrics.py``);
``--trace 1`` reports the per-layer metrics from a run whose measured window
alternates untraced and traced slices.  Workloads are described in
``workloads.py``; ``fleet_tick_b32`` runs but is not in ``BENCHMARK.json``
because its figures did not hold steady between runs.  BLAS is pinned to one
thread.  The library is imported from ``src/`` next to this
directory; without it the benchmark exits with status 2.  A scheduled run
whose generator starts or skips a tenth of its labels more than a label
period late could not keep its schedule: it still prints its result, but
warns on stderr and sets ``"measurable": false`` in the provenance record.

Set-up (model build, pruning, compilation with an autotune race against a
cold cache, session start and warm-up) runs five times; ``setup_s`` is the
median.  The autotune cache lives in a per-run directory under
``.perfbench_tmp/`` that is removed on exit.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import hashlib
import json
import os
import platform
import shutil
import sys
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
EXIT_NO_SOURCES = 2
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=("loop_b1", "fleet_tick_b32", "fleet_open", "stream_open"),
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def source_digest() -> str:
    """SHA-256 over the library's Python sources (commit-independent id)."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit() -> Optional[str]:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def blas_threads() -> Optional[int]:
    """Thread count of the OpenBLAS numpy loaded, if it can be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {
                line.split()[-1]
                for line in fh
                if "openblas" in line.lower() and line.split()[-1].startswith("/")
            }
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return int(getter())
    return None


def run(args: argparse.Namespace, scratch: Path) -> int:
    import numpy as np

    import metrics
    from repro.nn import autotune
    from tracing import APPLIED, PENDING, SHED, SUPERSEDED, Tracer, now
    from workloads import LABEL_PERIOD_S, WORKLOADS

    cls = WORKLOADS[args.workload]
    setup_times = []
    workload = None
    for repeat in range(SETUP_REPEATS):
        if workload is not None:
            workload.teardown()
            gc.collect()
        workload = cls(args.seed, str(scratch))
        start = now()
        workload.setup(repeat)
        setup_times.append(now() - start)

    tracer = None
    if args.trace:
        tracer = Tracer()
        workload.instrument(tracer)
    before = workload.classifier.specialization_stats()
    outcome = workload.measure(args.seconds, tracer)
    after = workload.classifier.specialization_stats()
    hit_calls = after["specialized_calls"] - before["specialized_calls"]
    all_calls = hit_calls + after["generic_calls"] - before["generic_calls"]
    hit_rate = hit_calls / all_calls if all_calls else 0.0

    labels = workload.book.labels
    measurable = True
    if workload.scheduled:
        # p90, not the tail: a host that freezes the process for a few hundred
        # milliseconds makes a handful of labels late without the generator
        # falling behind its schedule.
        lateness = [label.prepare_start_s - label.due_s for label in labels]
        lag_p90 = float(np.percentile(lateness, 90))
        measurable = lag_p90 <= LABEL_PERIOD_S
        if not measurable:
            print(
                f"unmeasurable: the load generator ran {lag_p90 * 1e3:.1f} ms late "
                f"at p90, more than one label period; the host cannot keep "
                f"the {args.workload} schedule",
                file=sys.stderr,
            )

    checked, check_failures = workload.checks.run(workload.classifier)
    counts = workload.book.counts()
    program = workload.counters()
    # Label conservation: due = applied + shed + superseded + stalled + failed,
    # and the front end's own counters must agree with the label book.
    disagreements = (
        abs(counts[APPLIED] - program["applied"])
        + abs(counts[SHED] - program["shed"])
        + abs(counts[SUPERSEDED] - program["superseded"])
    )
    failed = counts[PENDING] + check_failures + disagreements
    if args.trace:
        result_metrics = metrics.per_layer(workload, outcome, tracer, hit_rate)
    else:
        result_metrics = metrics.end_to_end(workload, outcome, setup_times)
    workload.teardown()

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "source_digest": source_digest(),
        "host_fingerprint": autotune.host_fingerprint(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "plan_kernels": workload.classifier.ensure_compiled().describe()["kernels"],
        "setup_s": setup_times,
        "measurable": measurable,
        "labels": counts,
        "program_counters": program,
        "checks": {"checked": checked, "failed": check_failures},
    }
    print(json.dumps({"provenance": provenance}))
    print(
        json.dumps(
            {
                "correct": failed == 0 and checked > 0,
                "attempted": len(labels),
                "failed": failed,
                "metrics": result_metrics,
            }
        )
    )
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "serving" / "__init__.py").is_file():
        print(f"error: library sources not found under {SRC}", file=sys.stderr)
        return EXIT_NO_SOURCES
    sys.path[:0] = [str(SRC), str(HERE)]
    scratch = ROOT / ".perfbench_tmp" / f"run-{os.getpid()}"
    scratch.mkdir(parents=True)
    os.environ["REPRO_AUTOTUNE_CACHE"] = str(scratch / "autotune.json")
    # One BLAS thread, set before numpy loads.  A second BLAS thread halves a
    # batch-1 plan only while the other core is idle; on a shared host its
    # availability comes and goes in phases, and the label time with it.
    for variable in BLAS_THREAD_VARIABLES:
        os.environ[variable] = "1"
    try:
        return run(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
