"""Tests for the fabric's pilot placement, single- and multi-site."""

import warnings

import pytest

from repro.chaos import RESILIENT_POLICIES, ChaosCampaign, PilotPreemptionInjector
from repro.core import FabricConfig, Scenario
from repro.hpc import Job, JobState
from repro.pilot import Pilot, PilotController, TaskState

warnings.filterwarnings("ignore", category=RuntimeWarning)


def multisite_scenario(**config):
    """The seed-3 8 h multi-site run with a front at 2 h."""
    return (
        Scenario(hours=8, seed=3, config=FabricConfig(multi_site=True, **config))
        .front_passage(at_hour=2.0, wind_delta_mps=2.5,
                       temperature_delta_k=-3.0)
    )


class TestMultiSiteFabric:
    @pytest.fixture(scope="class")
    def result(self):
        return multisite_scenario().run()

    def test_runs_complete_with_site_attribution(self, result):
        assert result.metrics.cfd_runs
        valid_sites = {"nd-crc", "anvil", "stampede3"}
        for run in result.metrics.cfd_runs:
            assert run.site in valid_sites

    def test_multisite_controller_active(self, result):
        fab = result.fabric
        assert list(fab.hub.placement.sites) == ["nd-crc", "anvil", "stampede3"]
        assert sum(fab.hub.placement.placement_counts().values()) >= len(
            result.metrics.cfd_runs
        )

    def test_single_site_mode_attributes_nd(self):
        result = (
            Scenario(hours=8, seed=3)
            .front_passage(at_hour=2.0, wind_delta_mps=2.5,
                           temperature_delta_k=-3.0)
            .run()
        )
        assert list(result.fabric.hub.placement.sites) == ["nd-crc"]
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
        placement = fabric.hub.placement
        primary = placement.rank_sites()[0].site_name
        melted = placement.sites[primary]
        melted.submit(Job(
            name="storm", nodes=melted.cluster.total_nodes,
            walltime_s=48 * 3600.0, runtime_s=48 * 3600.0,
        ))
        melted.submit(Job(name="w", nodes=1, walltime_s=3600.0, runtime_s=60.0))
        metrics = fabric.run(8 * 3600.0)
        assert metrics.cfd_runs
        assert all(r.site != primary for r in metrics.cfd_runs)


class TestOnePlacementPath:
    """The watchdog and the pilot injectors act on ``hub.placement``."""

    def test_preemption_hits_the_pilot_running_the_first_cfd_task(
        self, monkeypatch
    ):
        placed = {}
        run_task = Pilot.run_task

        def recording_run_task(pilot, task):
            placed[task.name] = (pilot, task)
            return run_task(pilot, task)

        monkeypatch.setattr(Pilot, "run_task", recording_run_task)
        fabric = multisite_scenario().build()
        injector = PilotPreemptionInjector(start_s=5800.0, duration_s=600.0)
        campaign = ChaosCampaign([injector]).attach(fabric)
        metrics = fabric.run(8 * 3600.0)
        (outcome,) = campaign.report(8 * 3600.0).faults

        first = metrics.cfd_runs[0]
        pilot, task = placed[f"cfd-{int(first.trigger_time_s)}-a0"]
        assert task.start_time is not None and task.start_time < 5800.0
        assert injector.preempted == pilot.name
        assert pilot.site.name == "anvil"
        assert pilot.job is not None and pilot.job.state is JobState.FAILED
        assert task.state is TaskState.FAILED
        # The trigger retried on a fresh pilot and the fault healed.
        retry, _ = placed[f"cfd-{int(first.trigger_time_s)}-a1"]
        assert retry is not pilot
        assert outcome.recovered

    def test_every_pilot_comes_from_the_placement(self, monkeypatch):
        submitters = []
        for name in ("bootstrap", "on_data"):
            original = getattr(PilotController, name)

            def recording(controller, *args, _original=original):
                before = len(controller.pilots)
                result = _original(controller, *args)
                submitters.extend([controller] * (len(controller.pilots) - before))
                return result

            monkeypatch.setattr(PilotController, name, recording)
        fabric = multisite_scenario(policies=RESILIENT_POLICIES).build()
        fabric.run(8 * 3600.0)
        placement = fabric.hub.placement
        own = [placement.controller_for(name) for name in placement.sites]
        assert submitters
        assert [c for c in submitters if not any(c is o for o in own)] == []
