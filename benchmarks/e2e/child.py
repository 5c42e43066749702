"""One repetition of one workload, in a fresh interpreter.

``run.py`` starts this as ``python -m benchmarks.e2e.child <workload>
<seed> --started <t>`` and reads the JSON record printed as the last line
of standard output. ``--traced`` installs the per-layer timing wrappers
before construction and adds the per-layer metrics to the record.

Everything heavy is imported inside :func:`main`: the spawn executor
re-imports this module as ``__mp_main__`` in each worker, and the workers
must pay for their own imports only. The ``__main__`` guard at the bottom
is what keeps a worker from running a repetition of its own.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time
import traceback
from typing import Any


def _cpu_s() -> float:
    """User+system CPU of this process and every child it has reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _maxrss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def repetition(workload: str, seed: int, started: float, traced: bool) -> dict[str, Any]:
    """Build, run, reduce and check one workload; the record's numbers."""
    from benchmarks.e2e import workloads
    from benchmarks.e2e.tracing import Tracing, layer_metrics, span_table

    spec = workloads.WORKLOADS[workload]
    with Tracing() if traced else contextlib.nullcontext() as tracing:
        subject = spec.build(seed)
        setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - started
        if tracing is not None:
            tracing.recorder.reset()  # spans of the construction are set-up
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        result = spec.run(subject)
        run_wall_s = time.perf_counter() - t0
        cpu_s = _cpu_s() - cpu0
    outcome = spec.outcome(subject, result)
    problems = spec.check(outcome)
    attempted, failed = spec.ops(outcome)
    record: dict[str, Any] = {
        "setup_s": setup_s,
        "run_wall_s": run_wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": _maxrss_mb(resource.RUSAGE_SELF),
        "workers_peak_rss_mb": _maxrss_mb(resource.RUSAGE_CHILDREN),
        "attempted": attempted,
        "failed": attempted if problems else failed,
        "problems": problems,
        "digest": workloads.digest(outcome),
        "outcome": outcome,
        "timings": list(getattr(subject, "last_timings", [])),
    }
    if tracing is not None:
        spans = tracing.recorder.spans
        layers = layer_metrics(tracing.recorder, run_wall_s)
        layers["chaos.faults_recovered"] = outcome.get("faults_recovered", 0.0)
        record["layers"] = layers
        record["spans"] = {
            name: {"layer": layer, "count": n, "total_s": total, "self_s": own}
            for name, (layer, n, total, own) in sorted(span_table(spans).items())
        }
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("--started", type=float, required=True,
                        help="CLOCK_MONOTONIC reading taken just before this process started")
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)
    record: dict[str, Any] = {
        "workload": args.workload, "seed": args.seed, "traced": args.traced,
    }
    try:
        record.update(repetition(args.workload, args.seed, args.started, args.traced))
    except Exception:  # a repetition that raises counts as one failed operation
        record.update(attempted=1, failed=1, digest=None,
                      problems=[traceback.format_exc(limit=8)])
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
