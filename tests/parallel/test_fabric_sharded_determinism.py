"""The cross-shard tentpole: partitioning the fabric never changes a byte.

The headline CI invariant of the sharded fabric: one multi-farm run --
real farm sites (weather, stations, 5G uplink), telemetry records
crossing shard boundaries, the hub's Laminar vote per farm, chaos faults
severing links mid-run -- merges to byte-identical canonical bytes
(report JSON, trace JSONL, SLO JSONL, SHA-256 digest) for 1, 2, 4, and 8
workers, on either executor. Everything here compares full
serializations, never approximate aggregates: the contract is
bit-identity.
"""

import functools
from dataclasses import fields

import pytest

from repro.chaos import ShardChaosCampaign
from repro.core import ShardedFabricScenario
from repro.cspot import CrossShardLink, NetworkPath
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


class TestTransferLedger:
    def test_ledger_balances(self):
        report = _report(workers=2)
        assert report.transfers_sent == sum(report.per_site_sent)
        assert (
            report.transfers_delivered + report.transfers_in_flight
            == report.transfers_sent
        )
        assert report.transfer_sketch["count"] == report.transfers_sent
        assert report.ingest_sketch["count"] == report.transfers_delivered

    def test_hub_site_sends_through_the_same_bus(self):
        # Uniformity: the hub's own telemetry also rides the bus, so the
        # partition cannot matter -- every site sends every reading.
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
    transfer draw, a parked record or a vote shows here. 8 farms, seed
    23, 1.5 h, one worker (the battery above pins every other layout to
    the same bytes)."""

    GOLDEN = {
        "clean": "1fdd5ec2338197547e9379a0a504a2ff3059a02597063266320a9ce55a5e1ec2",
        "chaos": "c6a99667790e8cd2b2733819a3c029d045c777e0bf26606adc083712354a8bc9",
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
            _scenario(hub_site=8)  # out of range
        with pytest.raises(ValueError):
            _scenario(executor="threads")

    def test_the_farms_run_at_the_paper_operating_points(self):
        # No farm knob: the window is the telemetry interval, the
        # barrier quantum the CSPOT transfer floor.
        settable = {f.name for f in fields(ShardedFabricScenario) if f.init}
        assert settable == {
            "seed", "horizon_s", "workers", "executor", "relative_error",
            "worker_timeout_s", "n_sites", "hub_site", "campaign", "link",
        }
        scenario = _scenario()
        assert (scenario.window_s, scenario.interaction_delay_s) == (300.0, 0.2)
