"""The traced run: self-time arithmetic, transparency, clean removal."""

from __future__ import annotations

import itertools

import pytest

from benchmarks.e2e.tracing import (
    SpanRecorder,
    Tracing,
    _resolve,
    layer_metrics,
    probes,
    self_by_layer,
    span_table,
)


def test_self_time_of_nested_spans():
    #   A [0, 10] core
    #     B [1, 4] cspot
    #       C [2, 3] cfd
    #     D [5, 9] cspot
    spans = [
        ["A", "core", 0.0, 10.0, -1],
        ["B", "cspot", 1.0, 4.0, 0],
        ["C", "cfd", 2.0, 3.0, 1],
        ["D", "cspot", 5.0, 9.0, 0],
    ]
    table = span_table(spans)
    assert table["A"] == ["core", 1, 10.0, 3.0]
    assert table["B"] == ["cspot", 1, 3.0, 2.0]
    assert self_by_layer(spans) == {"core": 3.0, "cspot": 6.0, "cfd": 1.0}
    # Self times tile the root span exactly.
    assert sum(self_by_layer(spans).values()) == 10.0


def test_recorder_builds_parent_links_from_the_stack():
    ticks = itertools.count()
    rec = SpanRecorder(clock=lambda: float(next(ticks)))
    rec.enter("run", "simkernel")      # t=0
    rec.enter("resume", "core")        # t=1
    rec.enter("read", "sensors")       # t=2
    rec.exit()                         # t=3
    rec.exit()                         # t=4
    rec.enter("resume", "cspot")       # t=5
    rec.exit()                         # t=6
    rec.exit()                         # t=7
    assert [s[4] for s in rec.spans] == [-1, 0, 1, 0]
    metrics = layer_metrics(rec, run_wall_s=8.0)
    assert metrics["simkernel.self_s"] == 3.0  # 7 - 3 - 1
    assert metrics["core.self_s"] == 2.0
    assert metrics["sensors.self_s"] == 1.0
    assert metrics["cspot.self_s"] == 1.0
    assert metrics["trace.unattributed_s"] == 1.0
    with pytest.raises(RuntimeError):
        rec.enter("open", "core")
        rec.reset()


def _short_fabric_run():
    from repro.core import FabricConfig, XGFabric
    from repro.sensors.weather import RegimeShift

    fabric = XGFabric(FabricConfig(seed=3))
    fabric.weather.add_shift(RegimeShift(at_time_s=3600.0, wind_delta_mps=2.5))
    m = fabric.run(3 * 3600.0)
    return (m.telemetry_sent, m.telemetry_latencies_s, m.duty_cycles, m.change_alerts,
            [(r.trigger_time_s, r.total_response_s) for r in m.cfd_runs],
            m.operator_notification_latencies_s)


def test_traced_fabric_run_matches_untraced():
    untraced = _short_fabric_run()
    with Tracing() as tracing:
        traced = _short_fabric_run()
    assert traced == untraced
    table = span_table(tracing.recorder.spans)
    assert table["resume:XGFabric._telemetry_loop"][0] == "core"
    assert table["resume:RemoteAppendClient._retry_body"][0] == "cspot"
    counts = tracing.recorder.counts
    assert counts["sensors.reads"] == traced[0]
    assert counts["cspot.appends"] >= traced[0]
    assert counts["simkernel.events"] > 0


def test_wrappers_are_removed_after_tracing():
    targets = [(_resolve(p.owner), p.attr) for p in probes()]
    engine = _resolve("repro.simkernel.engine.Engine")
    targets += [(engine, "step"), (engine, "process"),
                (_resolve("repro.cspot.log.WooF"), "scan")]
    before = [vars(owner)[attr] for owner, attr in targets]
    tracing = Tracing()
    tracing.install()
    assert all(vars(o)[a] is not b for (o, a), b in zip(targets, before))
    tracing.uninstall()
    assert all(vars(o)[a] is b for (o, a), b in zip(targets, before))


def test_classmethods_stay_classmethods():
    from repro.core.telemetry import TelemetryRecord

    with Tracing():
        assert isinstance(vars(TelemetryRecord)["from_bytes"], classmethod)
