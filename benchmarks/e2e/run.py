"""End-to-end benchmark of the Fig. 3 pipeline and the UE-fleet path.

Usage, from the repository root::

    python3 benchmarks/e2e/run.py [--seed N] [--trace] [--out FILE]
    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1
    python3 benchmarks/e2e/run.py compare A.json B.json
    python3 benchmarks/e2e/run.py pool

``python -m benchmarks.e2e`` is the same command. Without ``--workload`` it
runs every workload in 7 interleaved rounds, reversing the order
each round so slow periods of a shared host spread across workloads;
``--trace`` adds one traced round. With ``--workload`` it measures that one
workload for ``--seconds`` and prints, as its last line, one JSON object
with the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``, which interleaves traced and untraced repetitions).

Every repetition runs in a fresh interpreter (``child.py``), one at a time.
The metric names, units, directions and bounds come from ``BENCHMARK.json``.
The exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Iterable

ROOT = Path(__file__).resolve().parents[2]
SPEC_FILE = ROOT / "BENCHMARK.json"
SRC = ROOT / "src"
if str(ROOT) not in sys.path:  # run as a script, not with -m
    sys.path.insert(0, str(ROOT))

from benchmarks.e2e import workloads as wl  # noqa: E402  (imports no program code)

#: Suite-mode rounds: each workload's medians are over this many runs.
ROUNDS = 7
#: A single-workload run keeps going until --seconds is used up, but never
#: reports a median of fewer repetitions than this.
MIN_ROUNDS = 3
#: Patience for one repetition. The slowest takes about 7 s on 2 cores; a
#: single-workload run must still end within 3 minutes if one hangs.
REP_TIMEOUT_S = 60.0
#: The workload whose serial wall time is the speed-up baseline.
SERIAL_BASELINE = {"ue_fleet_serial": "ue_fleet_serial", "ue_fleet_spawn2": "ue_fleet_serial"}

Rep = dict[str, Any]


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def prepare() -> None:
    """Refuse to run without the program; byte-compile it so no repetition
    pays for compilation (the first one in a fresh checkout would)."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: the program's source is missing ({SRC / 'repro'})")
    compileall.compile_dir(str(SRC), quiet=1)
    compileall.compile_dir(str(Path(__file__).resolve().parent), quiet=1)


def run_rep(workload: str, seed: int, traced: bool = False) -> Rep:
    """One repetition in a fresh interpreter; its record, or a failed one."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    started = _now()
    cmd = [sys.executable, "-m", "benchmarks.e2e.child", workload, str(seed),
           "--started", repr(started)] + (["--traced"] if traced else [])
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the child and any workers it spawned
        out, err = proc.communicate()
    lines = out.strip().splitlines()
    try:
        rep: Rep = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        rep = {"workload": workload, "seed": seed, "traced": traced, "attempted": 1,
               "failed": 1, "digest": None,
               "problems": [f"child exited {proc.returncode}: {err.strip()[-2000:]}"]}
    rep["elapsed_s"] = _now() - started  # the whole repetition, interpreter start to exit
    return rep


def measure_suite(workloads: list[str], seed: int, trace: bool) -> list[Rep]:
    reps: list[Rep] = []
    order = list(workloads)
    for r in range(ROUNDS):
        for w in order:
            reps.append(run_rep(w, seed))
            _progress(reps[-1], f"round {r + 1}/{ROUNDS}")
        order.reverse()
    if trace:
        for w in order:
            reps.append(run_rep(w, seed, traced=True))
            _progress(reps[-1], "traced round")
    return reps


def measure_one(workload: str, seed: int, seconds: float, trace: bool) -> list[Rep]:
    """Rounds of one workload until ``seconds`` is spent (at least MIN_ROUNDS)."""
    reps: list[Rep] = []
    round_s: list[float] = []
    start = _now()
    while True:
        t = _now()
        reps.append(run_rep(workload, seed))
        if trace:
            reps.append(run_rep(workload, seed, traced=True))
        round_s.append(_now() - t)
        if len(round_s) >= MIN_ROUNDS and _now() - start + statistics.median(round_s) > seconds:
            break
    baseline = SERIAL_BASELINE.get(workload, workload)
    if baseline != workload:
        # Checks the spawn digest against serial, and gives the speed-up base.
        reps.append(run_rep(baseline, seed))
    return reps


def _progress(rep: Rep, label: str) -> None:
    wall = rep.get("run_wall_s")
    took = f"run {wall:.3f} s" if wall is not None else "FAILED"
    print(f"  {label:>14}  {rep['workload']:<16} {'traced' if rep['traced'] else '':<6} {took}",
          file=sys.stderr)


# -- summaries -----------------------------------------------------------------


def stats(values: list[float]) -> dict[str, Any]:
    """Median and quartiles (``statistics.quantiles``, n=4) of the values."""
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values),
            "values": values}


def _median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


def per_layer(untraced: list[Rep], traced: list[Rep], baseline_walls: list[float]) -> dict[str, float]:
    """Per-layer metrics: traced medians plus the ones untraced runs measure."""
    values = {k: _median(r["layers"][k] for r in traced) for k in traced[0]["layers"]}
    wall = _median(r["run_wall_s"] for r in untraced)
    values["trace.overhead_pct"] = 100.0 * (_median(r["run_wall_s"] for r in traced) / wall - 1.0)
    computes = [[t["compute_wall_s"] for t in r["timings"]] for r in untraced if r["timings"]]
    spawned = bool(computes)
    compute_max = _median(max(c) for c in computes) if spawned else 0.0
    values["parallel.worker_compute_s"] = _median(sum(c) for c in computes) if spawned else 0.0
    values["parallel.worker_compute_max_s"] = compute_max
    values["parallel.overhead_s"] = (
        wall - compute_max - values["parallel.merge_s"] if spawned else 0.0
    )
    values["parallel.workers_peak_rss_mb"] = (
        _median(r["workers_peak_rss_mb"] for r in untraced) if spawned else 0.0
    )
    values["parallel.speedup"] = _median(baseline_walls) / wall if baseline_walls else 0.0
    return values


def summarize(reps: list[Rep], spec: dict[str, Any]) -> dict[str, Any]:
    """Per workload: end-to-end stats, per-layer values, checks, op counts."""
    names = [w["name"] for w in spec["workloads"]]
    by_wl = {w: [r for r in reps if r["workload"] == w] for w in names}
    ok = {w: [r for r in rs if not r["problems"]] for w, rs in by_wl.items()}
    summary: dict[str, Any] = {}
    for w, rs in by_wl.items():
        if not rs:
            continue
        untraced = [r for r in ok[w] if not r["traced"]]
        traced = [r for r in ok[w] if r["traced"]]
        problems = [f"{w} seed {r['seed']}: {p}" for r in rs for p in r["problems"]]
        digests = sorted({r["digest"] for r in ok[w]})
        if len(digests) > 1:
            problems.append(f"{w}: repetitions disagree, digests {digests}")
        entry: dict[str, Any] = {
            "attempted": sum(r["attempted"] for r in rs),
            "failed": sum(r["failed"] for r in rs),
            "digest": digests[0] if len(digests) == 1 else None,
            "problems": problems,
            "end_to_end": {},
        }
        if untraced:
            entry["end_to_end"] = {
                m["name"]: stats([r[m["name"]] for r in untraced]) for m in spec["end_to_end"]
            }
        if untraced and traced:
            base = SERIAL_BASELINE.get(w)
            walls = [r["run_wall_s"] for r in ok.get(base, []) if not r["traced"]]
            entry["per_layer"] = per_layer(untraced, traced, walls)
            entry["spans"] = traced[0]["spans"]
        summary[w] = entry
    serial, spawn = summary.get("ue_fleet_serial"), summary.get("ue_fleet_spawn2")
    if serial and spawn and serial["digest"] != spawn["digest"]:
        spawn["problems"].append(
            f"ue_fleet_spawn2 digest {spawn['digest']} != ue_fleet_serial {serial['digest']}"
        )
    return summary


def print_summary(summary: dict[str, Any], spec: dict[str, Any]) -> None:
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for w, entry in summary.items():
        print(f"{w}  attempted {entry['attempted']}  failed {entry['failed']}  "
              f"digest {str(entry['digest'])[:16]}")
        for name, s in entry["end_to_end"].items():
            print(f"  {name:<32} {s['median']:>12.4f} {units[name]:<6} "
                  f"q1 {s['q1']:.4f}  q3 {s['q3']:.4f}  n {s['n']}")
        for name, value in sorted(entry.get("per_layer", {}).items()):
            print(f"  {name:<32} {value:>12.4f} {units.get(name, '')}")
        for problem in entry["problems"]:
            print(f"  CHECK FAILED: {problem}")


# -- compare ---------------------------------------------------------------------


def verdict(a: dict[str, Any], b: dict[str, Any], bound: float, better: str) -> str:
    """B against A: better, worse, unchanged, or unresolved (spread > bound)."""
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (b["median"] - a["median"]) / a["median"]  # > 0 is worse
    spread = max((s["q3"] - s["q1"]) / s["median"] for s in (a, b))
    if spread > bound:
        if better == "lower":
            every_run_better = max(b["values"]) < min(a["values"])
        else:
            every_run_better = min(b["values"]) > max(a["values"])
        return "better" if every_run_better else "unresolved"
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "unchanged"


def compare(path_a: Path, path_b: Path, spec: dict[str, Any]) -> int:
    a, b = (json.loads(p.read_text())["summary"] for p in (path_a, path_b))
    worse = False
    for w in (w["name"] for w in spec["workloads"]):
        if w not in a or w not in b:
            continue
        cells = []
        for m in spec["end_to_end"]:
            sa, sb = a[w]["end_to_end"][m["name"]], b[w]["end_to_end"][m["name"]]
            v = verdict(sa, sb, m["bound"], m["better"])
            worse |= v == "worse"
            cells.append(
                f"{m['name']} {sa['median']:.4g} [{sa['q1']:.4g}, {sa['q3']:.4g}] -> "
                f"{sb['median']:.4g} [{sb['q1']:.4g}, {sb['q3']:.4g}] {v}"
            )
        print(f"{w:<16} " + " | ".join(cells))
    return 1 if worse else 0


# -- seed pool ---------------------------------------------------------------------


def make_pool() -> dict[str, Any]:
    """The first POOL_SIZE fabric seeds 0, 1, ... whose run triggers as many
    twin CFD solves as the headline seed does, per fabric workload.

    Seeds are chosen on solve count alone, not on their checks, so a seed
    whose outputs fail a check stays in the pool and fails the benchmark.
    """
    sys.path.insert(0, str(SRC))

    def outcome(name: str, fabric_seed: int) -> dict[str, Any]:
        spec = wl.WORKLOADS[name]
        fabric = wl.FABRIC_BUILDERS[name](fabric_seed)
        return spec.outcome(fabric, spec.run(fabric))

    pool: dict[str, Any] = {}
    for name in wl.FABRIC_BUILDERS:
        target = outcome(name, wl.HEADLINE_SEED)["cfd_runs"]
        seeds: list[int] = []
        candidate = 0
        while len(seeds) < wl.POOL_SIZE:
            solves = outcome(name, candidate)["cfd_runs"]
            if solves == target:
                seeds.append(candidate)
            print(f"{name} seed {candidate}: {solves} solves", file=sys.stderr)
            candidate += 1
        pool[name] = {"cfd_runs": target, "seeds": seeds}
    return pool


# -- entry point ---------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    spec = json.loads(SPEC_FILE.read_text())
    if argv[:1] == ["compare"]:
        p = argparse.ArgumentParser(prog="run.py compare")
        p.add_argument("a", type=Path)
        p.add_argument("b", type=Path)
        args = p.parse_args(argv[1:])
        return compare(args.a, args.b, spec)
    if argv == ["pool"]:
        wl.SEED_POOL.write_text(json.dumps(make_pool(), indent=1) + "\n")
        return 0

    workloads = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--seed", type=int, default=wl.HEADLINE_SEED)
    p.add_argument("--workload", choices=workloads)
    p.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    p.add_argument("--out", type=Path, help="save every repetition and the summary as JSON")
    args = p.parse_args(argv)
    prepare()

    if args.workload is None:
        reps = measure_suite(workloads, args.seed, bool(args.trace))
    else:
        reps = measure_one(args.workload, args.seed, args.seconds, bool(args.trace))
    summary = summarize(reps, spec)
    print_summary(summary, spec)
    problems = [msg for entry in summary.values() for msg in entry["problems"]]
    if args.out is not None:
        args.out.write_text(json.dumps({
            "seed": args.seed, "host_cores": os.cpu_count(), "python": sys.version.split()[0],
            "summary": summary, "reps": reps,
        }, indent=1) + "\n")
    if args.workload is not None:
        entry = summary[args.workload]
        if args.trace:
            metrics = {m["name"]: {"value": entry.get("per_layer", {}).get(m["name"]),
                                   "unit": m["unit"]} for m in spec["per_layer"]}
        else:
            metrics = {m["name"]: {"value": entry["end_to_end"].get(m["name"], {}).get("median"),
                                   "unit": m["unit"]} for m in spec["end_to_end"]}
        print(json.dumps({
            "correct": not problems,
            "attempted": sum(r["attempted"] for r in reps),
            "failed": sum(r["failed"] for r in reps),
            "metrics": metrics,
        }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
