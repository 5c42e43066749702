"""Tests for the fabric's multi-site pilot placement mode."""

import warnings

import pytest

from repro.core import FabricConfig, Scenario
from repro.hpc import Job

warnings.filterwarnings("ignore", category=RuntimeWarning)


class TestMultiSiteFabric:
    @pytest.fixture(scope="class")
    def result(self):
        return (
            Scenario(hours=8, seed=3, config=FabricConfig(multi_site=True))
            .front_passage(at_hour=2.0, wind_delta_mps=2.5,
                           temperature_delta_k=-3.0)
            .run()
        )

    def test_runs_complete_with_site_attribution(self, result):
        assert result.metrics.cfd_runs
        valid_sites = {"nd-crc", "anvil", "stampede3"}
        for run in result.metrics.cfd_runs:
            assert run.site in valid_sites

    def test_multisite_controller_active(self, result):
        fab = result.fabric
        assert fab.hub.multisite is not None
        assert sum(fab.hub.multisite.placement_counts().values()) >= len(
            result.metrics.cfd_runs
        )

    def test_single_site_mode_attributes_nd(self):
        result = (
            Scenario(hours=8, seed=3)
            .front_passage(at_hour=2.0, wind_delta_mps=2.5,
                           temperature_delta_k=-3.0)
            .run()
        )
        assert result.fabric.hub.multisite is None
        assert all(r.site == "nd-crc" for r in result.metrics.cfd_runs)

    def test_failover_inside_fabric(self):
        # Melt the site that would be chosen first; the fabric's CFD arm
        # must land its runs elsewhere.
        scenario = (
            Scenario(hours=8, seed=3, config=FabricConfig(multi_site=True))
            .front_passage(at_hour=1.0, wind_delta_mps=2.5,
                           temperature_delta_k=-3.0)
        )
        fabric = scenario.build()
        assert fabric.hub.multisite is not None
        primary = fabric.hub.multisite.rank_sites()[0].site_name
        melted = fabric.hub.multisite.sites[primary]
        melted.submit(Job(
            name="storm", nodes=melted.cluster.total_nodes,
            walltime_s=48 * 3600.0, runtime_s=48 * 3600.0,
        ))
        melted.submit(Job(name="w", nodes=1, walltime_s=3600.0, runtime_s=60.0))
        metrics = fabric.run(8 * 3600.0)
        assert metrics.cfd_runs
        assert all(r.site != primary for r in metrics.cfd_runs)
