"""Table 1: CSPOT message latency for 1 KB payloads.

Regenerates the paper's measurement: 30 back-to-back 1 KB reliable appends
per path (first discarded for connection start-up), over the three testbed
paths. Also reproduces the section 4.2 discussion points: the size-cache
optimization halves latency, and moving the telemetry source off the 5G
network is an order-of-magnitude improvement that is nevertheless
imperceptible end-to-end.
"""

import pytest

from repro.analysis import ComparisonTable
from repro.cspot import CSPOTNode, Transport
from repro.cspot.latency import measure_path_latency
from repro.cspot.paths import TABLE1_ANCHORS
from repro.cspot.paths import testbed_paths as _testbed_paths
from repro.simkernel import Engine

from benchmarks.conftest import run_once

#: Paths as (key, client name, server name).
_TOPOLOGY = [
    ("unl-ucsb-5g", "unl", "ucsb"),
    ("unl-ucsb-internet", "unl", "ucsb"),
    ("ucsb-nd-internet", "ucsb", "nd"),
]


def _measure(key: str, client_name: str, server_name: str, use_size_cache=False,
             seed: int = 17):
    engine = Engine(seed=seed)
    transport = Transport(engine)
    client = CSPOTNode(engine, client_name)
    server = CSPOTNode(engine, server_name)
    server.create_log("telemetry", element_size=1024, history_size=64)
    transport.connect(client_name, server_name, _testbed_paths()[key])
    return measure_path_latency(
        engine, transport, client, server, "telemetry",
        use_size_cache=use_size_cache,
    )


def generate_table1():
    """key -> (mean ms, sd ms), plus the cached-mode mean for UCSB->ND."""
    rows = {}
    for key, src, dst in _TOPOLOGY:
        probe = _measure(key, src, dst)
        rows[key] = (probe.mean_ms, probe.std_ms)
    cached = _measure("ucsb-nd-internet", "ucsb", "nd", use_size_cache=True)
    return rows, cached.mean_ms


@pytest.mark.smoke
def test_table1_cspot_message_latency(benchmark):
    rows, cached_mean = run_once(benchmark, generate_table1)

    table = ComparisonTable("Table 1: CSPOT 1KB message latency (ms)")
    for key, (mean, sd) in rows.items():
        paper_mean, paper_sd = TABLE1_ANCHORS[key]
        table.add(f"{key} mean", mean, paper=paper_mean, unit="ms")
        table.add(f"{key} sd", sd, paper=paper_sd, unit="ms")
    table.add("ucsb-nd cached-size mean", cached_mean, unit="ms")
    table.print()

    # -- shape assertions -----------------------------------------------------
    # Means within 15 % of the paper on every path.
    for key, (mean, _) in rows.items():
        paper_mean, _ = TABLE1_ANCHORS[key]
        assert abs(mean - paper_mean) / paper_mean < 0.15, key

    # The 5G hop costs ~6x the bare Internet path (101 vs 17 ms).
    assert 4 < rows["unl-ucsb-5g"][0] / rows["unl-ucsb-internet"][0] < 9

    # 5G jitter dominates: its SD is an order of magnitude above the wired
    # paths' (17 vs 0.8 / 1.0 ms).
    assert rows["unl-ucsb-5g"][1] > 5 * rows["unl-ucsb-internet"][1]
    assert rows["unl-ucsb-5g"][1] > 5 * rows["ucsb-nd-internet"][1]

    # The size-cache optimization "effectively halves the message latency".
    assert abs(cached_mean - rows["ucsb-nd-internet"][0] / 2) < 0.15 * rows[
        "ucsb-nd-internet"
    ][0]

    # Section 4.2's conclusion: even the order-of-magnitude 5G->wired
    # improvement is imperceptible against the 300 s telemetry interval.
    telemetry_interval_ms = 300_000.0
    saving = rows["unl-ucsb-5g"][0] - rows["unl-ucsb-internet"][0]
    assert saving / telemetry_interval_ms < 0.001
