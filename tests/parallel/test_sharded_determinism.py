"""The tentpole invariant: shard count never changes a single byte.

Every test here compares full canonical serializations (report JSON,
trace JSONL, SHA-256 digest) -- not approximate aggregates -- because the
subsystem's contract is bit-identity, not statistical agreement.
"""

import pytest

from repro.parallel import (
    CSPOT_TRANSFER_FLOOR_S,
    CellFault,
    ShardedScaleScenario,
)
from repro.radio.population import Distribution, RandomVariable, UEPopulation

pytestmark = pytest.mark.filterwarnings("error")


def _population(n_cells=8, mean_ues=30.0):
    return UEPopulation(
        n_cells=n_cells,
        ues_per_cell=RandomVariable(mean_ues, Distribution.POISSON),
    )


def _scenario(**overrides):
    defaults = dict(
        population=_population(),
        seed=11,
        horizon_s=30.0,
        window_s=10.0,
        workers=1,
        executor="serial",
    )
    defaults.update(overrides)
    return ShardedScaleScenario(**defaults)


class TestShardCountInvariance:
    """The acceptance gate: byte-identical output for 1, 2, 4, 8 shards."""

    def test_reports_byte_identical_across_worker_counts(self):
        reference = _scenario(workers=1).run()
        for workers in (2, 4, 8):
            report = _scenario(workers=workers).run()
            assert report.canonical_json() == reference.canonical_json(), (
                f"workers={workers} diverged from single-shard bytes"
            )

    def test_trace_jsonl_byte_identical_across_worker_counts(self):
        reference = _scenario(workers=1).run().trace_jsonl()
        for workers in (2, 4, 8):
            assert _scenario(workers=workers).run().trace_jsonl() == reference

    def test_digests_identical_across_worker_counts(self):
        digests = {
            workers: _scenario(workers=workers).run().digest
            for workers in (1, 2, 4, 8)
        }
        assert len(set(digests.values())) == 1, digests

    def test_different_seed_changes_digest(self):
        assert _scenario().run().digest != _scenario(seed=12).run().digest


class TestGoldenDigests:
    """Literal digests: any change to a grant, a sample, or a sketch sum
    shows here, serial or spawned. 4 cells, 5g-tdd at 40 MHz, seed 3,
    two 10 s windows."""

    GOLDEN = {
        # Far more UEs than PRBs: most UEs hold no PRB in a given second.
        3000.0: "3813c1e43e06501529c7c7fa072b6cda1478c1779afaf85a59995d7d9a5433a3",
        # Fewer UEs than PRBs: every UE holds PRBs every second.
        60.0: "8b291de9d3aeb7829d5d377821fe673f92f3d0190e949058f537797e5677c236",
    }

    #: The same runs with cell 1's window 0 derated twice (0.25 x 0.5)
    #: and cell 2's window 1 zeroed: a faulted window scales its own block.
    GOLDEN_FAULTED = {
        3000.0: "971229699ca03ee71c8170cb263ad486dbaf35eb59abd3c25457b68ff66e4a8d",
        60.0: "d1e64a2c8fb03b232d627a2990794482fcf49494241a00c39cb3ffab71e1252f",
    }
    FAULTS = (
        CellFault(cell_index=1, window=0, derate=0.25),
        CellFault(cell_index=1, window=0, derate=0.5),
        CellFault(cell_index=2, window=1, derate=0.0),
    )

    @staticmethod
    def _run(mean_ues, workers, executor, faults=()):
        population = UEPopulation(
            n_cells=4,
            ues_per_cell=RandomVariable(mean_ues, Distribution.POISSON),
            network="5g-tdd",
            bandwidth_mhz=40.0,
        )
        return ShardedScaleScenario(
            population,
            seed=3,
            horizon_s=20.0,
            window_s=10.0,
            workers=workers,
            executor=executor,
            faults=faults,
        ).run()

    @pytest.mark.parametrize("mean_ues", sorted(GOLDEN))
    @pytest.mark.parametrize("workers,executor", [(1, "serial"), (2, "spawn")])
    def test_digest_is_pinned(self, mean_ues, workers, executor):
        report = self._run(mean_ues, workers, executor)
        assert report.digest == self.GOLDEN[mean_ues]

    @pytest.mark.parametrize("mean_ues", sorted(GOLDEN_FAULTED))
    @pytest.mark.parametrize("workers,executor", [(1, "serial"), (2, "spawn")])
    def test_faulted_digest_is_pinned(self, mean_ues, workers, executor):
        report = self._run(mean_ues, workers, executor, self.FAULTS)
        assert report.digest == self.GOLDEN_FAULTED[mean_ues]


class TestExecutorEquivalence:
    def test_spawn_matches_serial_bytes(self):
        serial = _scenario(workers=2).run()
        spawn_scenario = _scenario(workers=2, executor="spawn")
        spawn = spawn_scenario.run()
        assert spawn.canonical_json() == serial.canonical_json()
        assert spawn.trace_jsonl() == serial.trace_jsonl()
        # The wall-clock side channel exists but never touches the bytes.
        assert len(spawn_scenario.last_timings) == 2
        for timing in spawn_scenario.last_timings:
            assert timing["compute_wall_s"] >= 0.0

    def test_unknown_executor_rejected(self):
        with pytest.raises(ValueError, match="executor"):
            _scenario(executor="threads")


class TestConservativeSync:
    def test_interaction_delay_changes_barriers_not_bytes(self):
        reference = _scenario(workers=4).run()
        tight = _scenario(
            workers=4, interaction_delay_s=CSPOT_TRANSFER_FLOOR_S
        ).run()
        assert tight.canonical_json() == reference.canonical_json()

    def test_tight_sync_still_matches_under_spawn(self):
        serial = _scenario(workers=2, interaction_delay_s=2.5).run()
        spawn = _scenario(
            workers=2, executor="spawn", interaction_delay_s=2.5
        ).run()
        assert spawn.canonical_json() == serial.canonical_json()


class TestFaultRouting:
    FAULTS = (
        CellFault(cell_index=1, window=0, derate=0.25),
        CellFault(cell_index=6, window=2, derate=0.5),
    )

    def test_faults_change_the_output(self):
        assert (
            _scenario(faults=self.FAULTS).run().digest
            != _scenario().run().digest
        )

    def test_faulted_run_invariant_across_worker_counts(self):
        digests = {
            _scenario(workers=w, faults=self.FAULTS).run().digest
            for w in (1, 2, 4, 8)
        }
        assert len(digests) == 1

    def test_fault_derates_only_its_cell_window(self):
        clean = _scenario().run()
        faulted = _scenario(
            faults=(CellFault(cell_index=1, window=0, derate=0.25),)
        ).run()
        changed = [
            (a, b)
            for a, b in zip(clean.trace, faulted.trace)
            if a != b
        ]
        assert len(changed) == 1
        before, after = changed[0]
        assert (before["shard"], before["seq"]) == (1, 0)
        assert after["derate"] == 0.25
        assert after["sum_bps"] == pytest.approx(before["sum_bps"] * 0.25)


class TestAccounting:
    def test_report_shape(self):
        report = _scenario(workers=4).run()
        assert report.n_cells == 8
        assert report.n_windows == 3
        assert len(report.per_cell_ues) == 8
        assert report.total_ues == sum(report.per_cell_ues)
        assert report.events_processed == 8 * 3
        assert len(report.trace) == 8 * 3
        # One sample per UE per simulated second.
        assert report.samples_generated == report.total_ues * 30
        assert report.samples_generated == report.sketch["count"]
        assert report.aggregate_mean_bps > 0
        with pytest.raises(AttributeError):
            report.total_ues = 0

    def test_trace_records_are_totally_ordered(self):
        report = _scenario(workers=4).run()
        keys = [(r["t"], r["shard"], r["seq"]) for r in report.trace]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)

    def test_to_json_reports_mbps(self):
        report = _scenario().run()
        payload = report.to_json()
        assert payload["aggregate_mean_mbps"] == pytest.approx(
            report.aggregate_mean_bps / 1e6
        )

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            _scenario(horizon_s=-1.0)
        with pytest.raises(ValueError):
            _scenario(window_s=0.0)
        with pytest.raises(ValueError):
            _scenario(window_s=40.0)  # exceeds horizon
        with pytest.raises(ValueError):
            _scenario(workers=9)  # more workers than cells
