"""Record unspecialised plan-call latency: a parent checkout against this one.

An unspecialised call is one at a geometry the plan holds no arena for (no
``specialize``, no auto policy): the path the single-session loop takes for
every label.  For the LSTM-512, CNN and Transformer benchmark models at
batch 1, 7 and 64 the script times ``InferencePlan.__call__`` on prepared
input in two ways:

``steady_ms``
    the same geometry called repeatedly (median of 21 calls after warm-up);
``alternating_ms``
    batch ``b`` and ``b + 1`` alternating, so every call meets a new
    geometry (median of 20 calls).

Each side runs in its own process with BLAS pinned to one thread; rounds
alternate which side runs first, and each row reports the median and
quartiles of the per-round medians.  Run from the repository root::

    python benchmarks/record_unbound_plan_call.py --parent ../parent-checkout \\
        --rounds 10 --out BENCH_unbound_plan_call.json
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

FAMILIES = ("lstm-512", "cnn", "transformer")
BATCHES = (1, 7, 64)
STEADY_CALLS = 21
ALTERNATING_CALLS = 20
BLAS_THREADS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def _classifier(family):
    from repro.models.cnn import CNNConfig, EEGCNN
    from repro.models.lstm_model import EEGLSTM, LSTMConfig
    from repro.models.transformer_model import EEGTransformer, TransformerConfig

    if family == "lstm-512":
        return EEGLSTM(LSTMConfig(hidden_size=512), seed=0)
    if family == "cnn":
        return EEGCNN(CNNConfig(), seed=0)
    return EEGTransformer(TransformerConfig(num_layers=2, n_heads=2, d_model=64), seed=0)


def _median_ms(call, inputs):
    samples = []
    for x in inputs:
        start = time.perf_counter()
        call(x)
        samples.append(time.perf_counter() - start)
    return float(np.median(samples)) * 1e3


def _measure_tree():
    """One side's medians, keyed ``family/batch/metric`` (child process)."""
    from repro.models.base import normalize_windows

    results = {}
    for family in FAMILIES:
        classifier = _classifier(family)
        classifier.ensure_network(8, 130)
        plan = classifier.ensure_compiled().plan
        for batch in BATCHES:
            prepared = {
                b: classifier.prepare_array(
                    normalize_windows(
                        np.random.default_rng(b).standard_normal((b, 8, 130))
                        .astype(np.float32)
                    )
                )
                for b in (batch, batch + 1)
            }
            x = prepared[batch]
            plan(x)
            plan(x)
            results[f"{family}/{batch}/steady_ms"] = _median_ms(
                plan, [x] * STEADY_CALLS
            )
            alternating = [prepared[batch + i % 2] for i in range(ALTERNATING_CALLS)]
            results[f"{family}/{batch}/alternating_ms"] = _median_ms(plan, alternating)
            if plan.specialized_calls:
                raise RuntimeError("a timed call was served from a specialised arena")
    return results


def _run_side(checkout):
    env = dict(os.environ, **BLAS_THREADS)
    env["PYTHONPATH"] = str(Path(checkout, "src").resolve())
    out = subprocess.run(
        [sys.executable, __file__, "--child"],
        env=env,
        check=True,
        capture_output=True,
        text=True,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def _commit(checkout):
    try:
        return subprocess.run(
            ["git", "-C", str(checkout), "rev-parse", "HEAD"],
            check=True,
            capture_output=True,
            text=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def _quartiles(values):
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return round(float(median), 4), round(float(q1), 4), round(float(q3), 4)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--parent", help="checkout of the parent commit")
    parser.add_argument("--parent-commit", help="defaults to git rev-parse there")
    parser.add_argument("--change-commit", help="defaults to git rev-parse here")
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--out", default="BENCH_unbound_plan_call.json")
    args = parser.parse_args()
    if args.child:
        print(json.dumps(_measure_tree()))
        return
    if not args.parent:
        parser.error("--parent is required")

    from repro.nn import autotune

    here = Path(__file__).resolve().parents[1]
    runs = {"parent": [], "change": []}
    for index in range(args.rounds):
        order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(_run_side(args.parent if side == "parent" else here))
        print(f"round {index + 1}/{args.rounds} done", file=sys.stderr)

    fingerprint = autotune.host_fingerprint()
    parent_commit = args.parent_commit or _commit(args.parent)
    change_commit = args.change_commit or _commit(here)
    rows = []
    for key in runs["parent"][0]:
        family, batch, metric = key.split("/")
        parent = _quartiles([run[key] for run in runs["parent"]])
        change = _quartiles([run[key] for run in runs["change"]])
        rows.append(
            {
                "family": family,
                "batch": int(batch),
                "metric": metric,
                "unit": "ms",
                "parent_median": parent[0],
                "parent_q1": parent[1],
                "parent_q3": parent[2],
                "change_median": change[0],
                "change_q1": change[1],
                "change_q3": change[2],
                "change_over_parent": round(change[0] / parent[0], 3),
                "host_fingerprint": fingerprint,
                "parent_commit": parent_commit,
                "change_commit": change_commit,
            }
        )
    record = {
        "benchmark": "unbound_plan_call",
        "rounds": args.rounds,
        "blas_threads": 1,
        "cpus": os.cpu_count(),
        "rows": rows,
    }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    for row in rows:
        print(
            f"{row['family']:<12} b{row['batch']:<3} {row['metric']:<15}"
            f" parent {row['parent_median']:8.3f}  change {row['change_median']:8.3f}"
            f"  x{row['change_over_parent']:.3f}"
        )


if __name__ == "__main__":
    main()
