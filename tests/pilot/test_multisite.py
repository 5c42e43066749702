"""Tests for multi-site pilot placement (section 4.3 future work)."""

import pytest

from repro.hpc import Job, all_sites
from repro.pilot import Task
from repro.pilot.multisite import MultiSitePilotController
from repro.simkernel import Engine


@pytest.fixture
def engine():
    return Engine(seed=14)


def controller(engine, sites=None):
    return MultiSitePilotController(
        engine, sites if sites is not None else all_sites(engine)
    )


class TestScoring:
    def test_scores_cover_all_sites(self, engine):
        ctl = controller(engine)
        ranking = ctl.rank_sites()
        assert {s.site_name for s in ranking} == {"nd-crc", "anvil", "stampede3"}
        # Empty machines: zero estimated queue delay everywhere.
        assert all(s.est_queue_delay_s == 0.0 for s in ranking)

    def test_nodes_for_task_respects_node_shape(self, engine):
        ctl = controller(engine)
        # 64 cores fits one node on every preset (64/128/112-core nodes).
        for site in ctl.sites.values():
            assert ctl.nodes_for_task(site) == 1

    def test_busy_site_scores_worse(self, engine):
        sites = all_sites(engine)
        # Fill ND completely and give it queue history.
        nd = sites["nd-crc"]
        nd.submit(Job(name="hog", nodes=nd.cluster.total_nodes,
                      walltime_s=24 * 3600.0, runtime_s=24 * 3600.0))
        nd.submit(Job(name="waiter", nodes=1, walltime_s=3600.0, runtime_s=60.0))
        ctl = controller(engine, sites)
        ranking = ctl.rank_sites()
        assert ranking[0].site_name != "nd-crc"
        nd_score = next(s for s in ranking if s.site_name == "nd-crc")
        assert nd_score.est_queue_delay_s > 0.0

    def test_unknown_site_lookup(self, engine):
        ctl = controller(engine)
        with pytest.raises(KeyError, match="unknown site"):
            ctl.controller_for("summit")

    def test_validation(self, engine):
        with pytest.raises(ValueError):
            MultiSitePilotController(engine, {})
        with pytest.raises(ValueError):
            MultiSitePilotController(engine, all_sites(engine), cores_per_task=0)


class TestPlacement:
    def test_acquire_runs_task_on_chosen_site(self, engine):
        ctl = controller(engine)
        site_name, pilot = ctl.acquire_pilot(data_size_bytes=1e6)
        task = Task("cfd", nodes=1, runtime_s=420.0)
        result_proc = pilot.run_task(task)
        engine.run(until=result_proc)
        assert pilot.tasks_run == 1
        assert ctl.placement_counts()[site_name] == 1

    def test_failover_when_primary_loaded(self, engine):
        sites = all_sites(engine)
        ctl = controller(engine, sites)
        # First placement goes somewhere; saturate that site.
        first_name, first_pilot = ctl.acquire_pilot(1e6)
        first_site = sites[first_name]
        remaining = first_site.cluster.free_nodes
        if remaining > 0:
            first_site.submit(Job(
                name="storm", nodes=remaining,
                walltime_s=24 * 3600.0, runtime_s=24 * 3600.0,
            ))
        first_site.submit(Job(name="w", nodes=1, walltime_s=3600.0, runtime_s=60.0))
        # Cancel the warm pilot so the primary has nothing to offer.
        first_pilot.cancel()
        second_name, _ = ctl.acquire_pilot(1e6)
        assert second_name != first_name

    def test_warm_pilot_retains_placement(self, engine):
        ctl = controller(engine)
        name1, pilot1 = ctl.acquire_pilot(1e6)
        engine.run(until=pilot1.active)
        # Next acquisition sees the warm pilot: same site, same pilot.
        name2, pilot2 = ctl.acquire_pilot(1e6)
        assert name2 == name1
        assert pilot2 is pilot1

    def test_placements_recorded_in_order(self, engine):
        ctl = controller(engine)
        ctl.acquire_pilot(1e6)
        engine.run(until=engine.timeout(100.0))
        ctl.acquire_pilot(1e6)
        times = [t for t, _ in ctl.placements]
        assert times == sorted(times)
        assert sum(ctl.placement_counts().values()) == 2


class TestPlacementWide:
    """The calls the fabric's watchdog and chaos injectors make."""

    def test_bootstrap_goes_to_the_home_site(self, engine):
        ctl = controller(engine)
        pilot = ctl.bootstrap()
        assert pilot.site is ctl.sites["nd-crc"]  # the first site given
        assert pilot.nodes == 1
        assert ctl.pilots() == [pilot]

    def test_capacity_and_retirement_span_every_site(self, engine):
        ctl = controller(engine)
        home = ctl.bootstrap()
        site_name, placed = ctl.acquire_pilot(1e6)
        assert site_name != "nd-crc"  # the idle home pilot is not warm yet
        assert ctl.pilots() == [home, placed]
        assert ctl.nodes_available() == home.nodes + placed.nodes
        engine.run(until=engine.all_of([home.finished, placed.finished]))
        assert ctl.retire_finished() == 2
        assert ctl.nodes_available() == 0
        assert ctl.pilots() == []
