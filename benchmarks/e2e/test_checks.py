"""Output checks fail on corrupted outcomes; summaries and verdicts."""

from __future__ import annotations

import copy

import pytest

from benchmarks.e2e import workloads as wl
from benchmarks.e2e.run import summarize, verdict

SPEC = {
    "workloads": [{"name": "ue_fleet_serial"}, {"name": "ue_fleet_spawn2"}],
    "end_to_end": [{"name": "run_wall_s", "unit": "s", "better": "lower", "bound": 0.1}],
}

FIG3 = {
    "e2e": {"telemetry_interval_s": 300.0, "transfer_unl_to_nd_s": 0.193,
            "sustained_interval_s": 420.0, "min_validity_window_s": 1320.0},
    "meets_real_time_requirement": True,
    "cfd_runs": 4,
    "cfd_failures": 0,
    "telemetry_sent": 475,
    "delivery": {"exactly_once": True, "lost": 0, "duplicates": 0},
}
STORM = {
    "resilience": {"exactly_once": True, "all_recovered": True, "faults": [{}, {}, {}],
                   "delivery": {}},
    "mean_telemetry_latency_s": 0.267,
}
FLEET = {"total_ues": 1000, "samples_generated": 20_000, "events_processed": 40,
         "n_cells": 20, "n_windows": 2, "complete_cell_windows": 40}


def _corrupt(outcome, path, value):
    bad = copy.deepcopy(outcome)
    node = bad
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return bad


@pytest.mark.parametrize(("check", "good", "path", "value"), [
    (wl.check_fig3, FIG3, ("e2e", "transfer_unl_to_nd_s"), 0.35),
    (wl.check_fig3, FIG3, ("e2e", "min_validity_window_s"), 600.0),
    (wl.check_fig3, FIG3, ("cfd_runs",), 0),
    (wl.check_fig3, FIG3, ("delivery", "exactly_once"), False),
    (wl.check_storm, STORM, ("resilience", "all_recovered"), False),
    (wl.check_storm, STORM, ("mean_telemetry_latency_s",), 0.9),
    (wl.check_fleet, FLEET, ("samples_generated",), 19_999),
    (wl.check_fleet, FLEET, ("events_processed",), 39),
])
def test_corrupted_outcome_fails_its_check(check, good, path, value):
    assert check(good) == []
    assert check(_corrupt(good, path, value)) != []


def test_fabric_ops_count_lost_records_and_abandoned_solves():
    o = _corrupt(_corrupt(FIG3, ("delivery", "lost"), 2), ("cfd_failures",), 1)
    assert wl._fabric_ops(o) == (475 + 4 + 1, 2 + 1)
    assert wl._fleet_ops(_corrupt(FLEET, ("complete_cell_windows",), 37)) == (40, 3)


@pytest.mark.parametrize("workload", ["fig3_8h", "telemetry_storm"])
def test_pool_ring_starts_at_the_headline_seed(workload):
    assert wl.pooled_seed(workload, wl.HEADLINE_SEED) == wl.HEADLINE_SEED
    seeds = {wl.pooled_seed(workload, s) for s in range(wl.POOL_SIZE)}
    assert len(seeds) == wl.POOL_SIZE


def _rep(workload, digest, wall, traced=False):
    return {"workload": workload, "seed": 3, "traced": traced, "problems": [],
            "attempted": 40, "failed": 0, "digest": digest, "run_wall_s": wall}


def test_summary_flags_disagreeing_digests():
    reps = [_rep("ue_fleet_serial", "a", 3.0), _rep("ue_fleet_serial", "b", 3.1),
            _rep("ue_fleet_spawn2", "a", 2.0)]
    summary = summarize(reps, SPEC)
    assert summary["ue_fleet_serial"]["problems"]
    assert summary["ue_fleet_serial"]["end_to_end"]["run_wall_s"]["n"] == 2


def test_summary_flags_spawn_disagreeing_with_serial():
    reps = [_rep("ue_fleet_serial", "a", 3.0), _rep("ue_fleet_spawn2", "b", 2.0)]
    summary = summarize(reps, SPEC)
    assert not summary["ue_fleet_serial"]["problems"]
    assert summary["ue_fleet_spawn2"]["problems"]


def _stats(*values):
    from benchmarks.e2e.run import stats

    return stats(list(values))


@pytest.mark.parametrize(("b", "expected"), [
    (_stats(1.00, 1.01, 1.02, 1.01), "unchanged"),
    (_stats(1.20, 1.21, 1.22, 1.21), "worse"),
    (_stats(0.80, 0.81, 0.82, 0.81), "better"),
    (_stats(0.70, 1.00, 1.30, 1.00), "unresolved"),
    (_stats(0.50, 0.90, 0.55, 0.60), "better"),  # wide, but every run faster
])
def test_verdict_against_bound(b, expected):
    a = _stats(1.00, 1.01, 0.99, 1.00)
    assert verdict(a, b, bound=0.1, better="lower") == expected
