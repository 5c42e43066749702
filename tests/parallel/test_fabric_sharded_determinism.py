"""The cross-shard tentpole: partitioning the fabric never changes a byte.

The headline CI invariant of the sharded fabric: one multi-farm run --
real farm sites (weather, stations, 5G uplink), telemetry records
crossing shard boundaries to the hub, the hub's Laminar vote per farm,
chaos faults severing links mid-run -- merges to byte-identical
canonical bytes (report JSON, trace JSONL, SLO JSONL, SHA-256 digest)
for 1, 2, 4, and 8 workers, on either executor, wherever the barriers
fall. Everything here compares full serializations, never approximate
aggregates: the contract is bit-identity. The hub ingests every record
at exactly its ``send_t + latency_s``, and says so loudly otherwise.
"""

import functools
from dataclasses import fields

import pytest

from repro.chaos import ShardChaosCampaign
from repro.core import ShardedFabricScenario
from repro.core.fabric_sharded import FabricHubRunner
from repro.core.telemetry import TelemetryRecord
from repro.cspot import CrossShardLink, FabricEnvelope, NetworkPath
from repro.parallel import CellFault, LinkFault

pytestmark = pytest.mark.filterwarnings("error")

#: 1.5 h: every farm's Laminar decides once, at the third duty cycle (the
#: first with two full windows of readings).
HORIZON_S = 5400.0
#: Stations per farm at the paper's operating points.
STATIONS = 5

#: A campaign whose link fault sits on a shard boundary for every worker
#: count under test (cell 3 is the last cell of worker 0 at w=2, its own
#: worker at w=8): severed rounds park telemetry, healthy rounds flush.
BOUNDARY_CAMPAIGN = ShardChaosCampaign(
    faults=(CellFault(cell_index=5, window=1, derate=0.25),),
    link_faults=(LinkFault(cell_index=3, start_window=0, end_window=1),),
)

#: A degraded backhaul: one minute per leg, four minutes per transfer.
SLOW_LINK = CrossShardLink.from_path(
    NetworkPath("degraded backhaul", one_way_ms=60_000.0)
)

#: Scenario overrides the barrier and delivery checks run under.
CASES = {
    "clean": {},
    "chaos": {"campaign": BOUNDARY_CAMPAIGN},
    "slow-link": {"link": SLOW_LINK},
}


def _scenario(**overrides):
    defaults = dict(
        n_sites=8,
        seed=23,
        horizon_s=HORIZON_S,
        workers=1,
        executor="serial",
    )
    defaults.update(overrides)
    return ShardedFabricScenario(**defaults)


@functools.lru_cache(maxsize=None)
def _report(**overrides):
    """One serial run per distinct scenario (reports are immutable)."""
    return _scenario(**overrides).run()


class TestWorkerCountInvariance:
    """The acceptance gate: byte-identical output for 1, 2, 4, 8 workers."""

    def test_reports_byte_identical_across_worker_counts(self):
        reference = _report(workers=1)
        for workers in (2, 4, 8):
            report = _report(workers=workers)
            assert report.canonical_json() == reference.canonical_json(), (
                f"workers={workers} diverged from single-shard bytes"
            )

    def test_trace_and_slo_jsonl_identical_across_worker_counts(self):
        reference = _report(workers=1)
        for workers in (2, 4, 8):
            report = _report(workers=workers)
            assert report.trace_jsonl() == reference.trace_jsonl()
            assert report.slo_jsonl() == reference.slo_jsonl()

    def test_digests_identical_across_worker_counts(self):
        digests = {
            workers: _report(workers=workers).digest
            for workers in (1, 2, 4, 8)
        }
        assert len(set(digests.values())) == 1, digests

    def test_different_seed_changes_digest(self):
        assert _report().digest != _report(seed=24).digest


class TestChaosInvariance:
    """Faults spanning shard boundaries stay worker-count-invariant."""

    def test_chaos_run_byte_identical_across_worker_counts(self):
        reference = _report(campaign=BOUNDARY_CAMPAIGN)
        assert reference.parked_total > 0  # the severance actually bit
        for workers in (2, 4, 8):
            report = _report(workers=workers, campaign=BOUNDARY_CAMPAIGN)
            assert report.canonical_json() == reference.canonical_json(), (
                f"workers={workers} diverged under chaos"
            )

    def test_chaos_changes_the_output(self):
        assert _report(campaign=BOUNDARY_CAMPAIGN).digest != _report().digest

    def test_parked_telemetry_is_flushed_not_lost(self):
        clean = _report()
        chaotic = _report(campaign=BOUNDARY_CAMPAIGN)
        # The fault severs rounds 0-1 and ends inside the run, so every
        # parked record flushes at the first healthy round: nothing
        # remains parked and the hub still ingests every record read.
        assert chaotic.parked_total == 2 * STATIONS
        assert chaotic.per_site_parked[3] == 2 * STATIONS
        assert chaotic.parked_remaining == 0
        assert chaotic.transfers_sent == clean.transfers_sent
        assert (
            chaotic.transfers_delivered + chaotic.transfers_in_flight
            == chaotic.transfers_sent
        )

    def test_outlasting_severance_leaves_payloads_parked(self):
        campaign = ShardChaosCampaign.severed_link(3, 0, 99)
        report = _report(campaign=campaign)
        assert report.parked_remaining == report.per_site_samples[3]
        assert report.per_site_parked[3] == report.per_site_samples[3]
        assert report.per_site_sent[3] == 0
        # The hub never hears from farm 3, so only the others decide.
        assert report.decisions == report.n_sites - 1


class TestExecutorEquivalence:
    def test_spawn_matches_serial_bytes(self):
        serial = _report(workers=2)
        spawn_scenario = _scenario(workers=2, executor="spawn")
        spawn = spawn_scenario.run()
        assert spawn.canonical_json() == serial.canonical_json()
        assert spawn.trace_jsonl() == serial.trace_jsonl()
        # The wall-clock side channel exists but never touches the bytes.
        assert len(spawn_scenario.last_timings) == 2
        for timing in spawn_scenario.last_timings:
            assert timing["compute_wall_s"] >= 0.0

    def test_spawn_matches_serial_under_chaos(self):
        serial = _report(workers=4, campaign=BOUNDARY_CAMPAIGN)
        spawn = _scenario(
            workers=4, executor="spawn", campaign=BOUNDARY_CAMPAIGN
        ).run()
        assert spawn.canonical_json() == serial.canonical_json()


class TestBarrierPlacement:
    """Barriers only batch what the farms send: moving them moves no byte."""

    @staticmethod
    def _run(barriers, **overrides):
        scenario = _scenario(**overrides)
        scenario._barriers = lambda: barriers(scenario.horizon_s)
        return scenario.run()

    def test_one_barrier_per_telemetry_round(self):
        barriers = _scenario()._barriers()
        assert barriers == tuple(300.0 * k for k in range(1, 19))

    @pytest.mark.parametrize(
        "barriers",
        [
            lambda horizon: (horizon,),
            lambda horizon: tuple(7.5 * k for k in range(1, 720)) + (horizon,),
        ],
        ids=["horizon-only", "every-7.5-s"],
    )
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_bytes_do_not_depend_on_the_barriers(self, barriers, case):
        reference = _report(**CASES[case])
        report = self._run(barriers, workers=2, **CASES[case])
        assert report.canonical_json() == reference.canonical_json()

    def test_spawn_with_one_barrier_matches(self):
        report = self._run(lambda horizon: (horizon,), workers=2, executor="spawn")
        assert report.canonical_json() == _report().canonical_json()


def _per_farm(trace, kind, farm_field):
    """``kind`` records of ``trace``, in order, grouped by farm."""
    grouped = {}
    for r in trace:
        if r["kind"] == kind:
            grouped.setdefault(r[farm_field], []).append(r)
    return grouped


class TestExactDelivery:
    """The hub ingests each record at exactly ``send_t + latency_s``."""

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_every_record_ingests_at_its_send_time_plus_latency(self, case):
        report = _report(**CASES[case])
        exports = _per_farm(report.trace, "cspot.export", "shard")
        ingests = _per_farm(report.trace, "hub.ingest", "src")
        assert sum(map(len, ingests.values())) == report.transfers_delivered > 0
        for src, ingested in ingests.items():
            # A farm waits out each transfer before its next send, so its
            # records arrive in the order it sent them.
            for sent, got in zip(exports[src], ingested):
                assert got["t"] == sent["t"] + sent["latency_s"]
                assert got["latency_s"] == sent["latency_s"]
                assert got["station"] == sent["station"]
        # What did not arrive by the horizon is exactly what is in flight.
        late = [
            e for src, sent in exports.items()
            for e in sent[len(ingests.get(src, ())):]
        ]
        assert len(late) == report.transfers_in_flight
        assert all(e["t"] + e["latency_s"] > HORIZON_S for e in late)

    def test_slo_records_carry_the_stamped_latency(self):
        report = _report()
        ingests = [r for r in report.trace if r["kind"] == "hub.ingest"]
        assert [r["value_s"] for r in report.slo] == [
            r["latency_s"] for r in ingests
        ]
        assert [r["t"] for r in report.slo] == [r["t"] for r in ingests]


def _envelope(send_t, src_cell=0, seq=0, latency_s=0.1):
    payload = TelemetryRecord(
        station_id="cups-ext-0", time_s=send_t, wind_speed_mps=3.0,
        wind_direction_deg=90.0, temperature_k=290.0,
        relative_humidity=0.5, interior=False,
    ).to_bytes()
    return FabricEnvelope(
        send_t=send_t, src_cell=src_cell, seq=seq,
        log="telemetry.cups-ext-0", payload=payload, latency_s=latency_s,
    )


class TestHubChecks:
    """The hub owns the transfer stream's invariants and raises on a breach."""

    @staticmethod
    def _hub():
        return FabricHubRunner(n_sites=2, seed=3, horizon_s=HORIZON_S)

    def test_ingests_at_arrival_and_keeps_late_ones_in_flight(self):
        hub = self._hub()
        hub.advance(300.0, [_envelope(299.95, seq=0), _envelope(150.0, seq=1)])
        ingested = [r for r in hub.records if r["kind"] == "hub.ingest"]
        assert [r["t"] for r in ingested] == [150.0 + 0.1]
        late = _envelope(HORIZON_S - 0.05, src_cell=1)
        hub.advance(HORIZON_S, [late])
        assert [r["t"] for r in hub.records if r["kind"] == "hub.ingest"] == [
            150.0 + 0.1, 299.95 + 0.1,
        ]
        assert hub.in_flight == [late]
        assert hub.delivered == 2

    def test_duplicate_key_rejected(self):
        hub = self._hub()
        hub.advance(300.0, [_envelope(100.0)])
        with pytest.raises(ValueError, match="duplicate envelope key"):
            hub.advance(600.0, [_envelope(100.0, latency_s=0.2)])

    def test_arrival_in_the_hubs_past_rejected(self):
        hub = self._hub()
        hub.advance(300.0, [])
        # Sent in a window the hub has already run: it would land in the
        # hub's past, so the hub was not a window behind its farms.
        with pytest.raises(RuntimeError, match="not after the hub's clock"):
            hub.advance(600.0, [_envelope(299.0, latency_s=1.0)])
        with pytest.raises(RuntimeError, match="not after the hub's clock"):
            hub.advance(600.0, [_envelope(299.0, seq=1, latency_s=0.5)])

    def test_ingest_at_any_other_time_rejected(self):
        hub = self._hub()
        hub.advance(300.0, [])
        with pytest.raises(RuntimeError, match="send_t \\+ latency_s"):
            hub.ingest(_envelope(299.0, latency_s=0.5))
        assert hub.delivered == 0


class TestTransferLedger:
    def test_ledger_balances(self):
        report = _report(workers=2)
        assert report.transfers_sent == sum(report.per_site_sent)
        assert (
            report.transfers_delivered + report.transfers_in_flight
            == report.transfers_sent
        )
        assert report.transfer_sketch["count"] == report.transfers_sent

    def test_every_farm_sends_every_reading(self):
        # Every farm's records take one path to the hub, whichever worker
        # runs it -- so every site sends every reading it takes.
        report = _report()
        assert set(report.per_site_sent) == {report.per_site_samples[0]}
        assert report.per_site_samples[0] == (report.n_windows - 1) * STATIONS

    def test_every_farm_decides(self):
        report = _report()
        decided = {
            r["src"] for r in report.trace if r["kind"] == "hub.decision"
        }
        assert decided == set(range(report.n_sites))
        assert report.decisions == report.n_sites

    def test_transfers_past_the_horizon_are_in_flight(self):
        # A degraded backhaul (4 min per transfer) makes each farm's
        # round take 20 min: the third record of the round that starts
        # at t=4800 s arrives at 5520 s, after the horizon, so it is
        # accounted in flight, never silently dropped.
        report = _report(link=SLOW_LINK)
        assert report.transfers_in_flight == report.n_sites
        assert report.in_flight_bytes > 0
        assert (
            report.transfers_delivered + report.transfers_in_flight
            == report.transfers_sent
        )

    def test_in_flight_accounting_is_worker_count_invariant(self):
        digests = {
            _report(workers=w, link=SLOW_LINK).digest for w in (1, 2, 8)
        }
        assert len(digests) == 1

    def test_slo_timeline_covers_every_delivery(self):
        report = _report()
        assert len(report.slo) == report.transfers_delivered
        for record in report.slo:
            assert record["kind"] == "slo.eval"
            assert record["ok"] == (
                record["value_s"] <= record["budget_s"]
            )

    def test_trace_records_are_totally_ordered(self):
        report = _report(workers=4, campaign=BOUNDARY_CAMPAIGN)
        keys = [(r["t"], r["shard"], r["seq"]) for r in report.trace]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)


class TestGoldenDigests:
    """Literal digests of the rebuilt fabric: any change to a reading, a
    transfer draw, an arrival time, a parked record or a vote shows here.
    8 farms, seed 23, 1.5 h, one worker (the battery above pins every
    other layout and barrier placement to the same bytes)."""

    GOLDEN = {
        "clean": "b72886a49c7042a06d13a1331ee23cd7835a0998f24a35d41faa369aae0c9fcc",
        "chaos": "89988f1b8edad0c3725e58a6bed12f75d35f0bfd8f5724742a49b71aeb5bf666",
    }

    @pytest.mark.parametrize("case", sorted(GOLDEN))
    def test_digest_is_pinned(self, case):
        overrides = {"campaign": BOUNDARY_CAMPAIGN} if case == "chaos" else {}
        assert _report(**overrides).digest == self.GOLDEN[case]


class TestValidation:
    def test_validation_errors(self):
        with pytest.raises(ValueError):
            _scenario(horizon_s=-1.0)
        with pytest.raises(ValueError):
            _scenario(horizon_s=200.0)  # shorter than one telemetry round
        with pytest.raises(ValueError):
            _scenario(workers=9)  # more workers than sites
        with pytest.raises(ValueError):
            _scenario(executor="threads")

    def test_the_farms_run_at_the_paper_operating_points(self):
        # No farm knob: the window, and with it the barrier calendar, is
        # the telemetry interval.
        settable = {f.name for f in fields(ShardedFabricScenario) if f.init}
        assert settable == {
            "seed", "horizon_s", "workers", "executor", "relative_error",
            "worker_timeout_s", "n_sites", "campaign", "link",
        }
        assert _scenario().window_s == 300.0


class TestFaultReach:
    """A fault on a round its farm never reaches is rejected, not ignored.

    2 farms, seed 1, 30 min: the farm starts round r at (r + 1) x 300 s
    plus the transfer latencies of every earlier round that sent, so its
    last round is 4. Round 5 starts exactly at the horizon only if rounds
    0-4 all parked their records, and shows only if it parks too: a round
    that sends (or flushes) ends after the horizon.
    """

    @staticmethod
    def _digest(*faults):
        cell = tuple(f for f in faults if isinstance(f, CellFault))
        link = tuple(f for f in faults if isinstance(f, LinkFault))
        return ShardedFabricScenario(
            n_sites=2, seed=1, horizon_s=1800.0,
            campaign=ShardChaosCampaign(faults=cell, link_faults=link),
        ).run().digest

    @pytest.mark.parametrize(
        "faults",
        [
            (CellFault(1, 4, 0.25),),
            (LinkFault(1, 4, 4),),
            (LinkFault(1, 4, 99),),
            # Rounds 0-4 park and take no time: round 5 starts at 1800 s.
            (LinkFault(1, 0, 5), CellFault(1, 5, 0.25)),
            (LinkFault(1, 0, 4), LinkFault(1, 5, 5)),
        ],
        ids=["cell-4", "link-4", "link-4-outlasting", "cell-5-after-parking",
             "link-5-after-parking"],
    )
    def test_last_reached_round_is_accepted_and_bites(self, faults):
        assert self._digest(*faults) != self._digest(*faults[:-1])

    @pytest.mark.parametrize(
        "faults, round_",
        [
            ((CellFault(1, 5, 0.25),), 5),
            ((CellFault(1, 999, 0.25),), 999),
            ((LinkFault(1, 5, 5),), 5),
            ((LinkFault(1, 6, 6),), 6),
            ((LinkFault(1, 500, 600),), 500),
            # Round 3 sends, so round 5 is pushed past the horizon.
            ((LinkFault(1, 0, 2), LinkFault(1, 4, 4), CellFault(1, 5)), 5),
            # Round 5 flushes the parked records first: its reads come
            # after the horizon.
            ((LinkFault(1, 0, 4), CellFault(1, 5)), 5),
        ],
        ids=["cell-5", "cell-999", "link-5", "link-6", "link-500",
             "cell-5-after-a-sending-round", "cell-5-flushing"],
    )
    def test_first_unreached_round_is_rejected(self, faults, round_):
        with pytest.raises(
            ValueError, match=rf"strikes round {round_}, which farm 1 never"
        ):
            self._digest(*faults)
