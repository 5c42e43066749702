"""Per-layer injector tests: each fault lands, heals, and is observable."""

import math

import pytest

from repro.chaos import (
    ChaosCampaign,
    CspotAckLossInjector,
    CspotPartitionInjector,
    FaultInjection,
    HpcNodeFailureInjector,
    NodePowerLossInjector,
    PduSessionDropInjector,
    PilotPreemptionInjector,
    QueueStormInjector,
    RadioFadeInjector,
    UePowerLossInjector,
)
from repro.core import FabricConfig, XGFabric
from repro.cspot.faults import FaultInjector
from repro.hpc import Job, JobState, nd_crc
from repro.pilot import Pilot, PilotState, Task, TaskState
from repro.radio.channel import NR_CHANNEL
from repro.radio.core5g import SessionError
from repro.radio.network import NetworkDeployment
from repro.simkernel import Engine


def tiny_fabric(seed=0, **overrides):
    return XGFabric(FabricConfig(seed=seed, **overrides))


# -- layer primitives ----------------------------------------------------------


class TestClusterNodeFailure:
    @pytest.fixture
    def env(self):
        engine = Engine(seed=1)
        return engine, nd_crc(engine, total_nodes=8)

    def test_fail_nodes_kills_most_recent_jobs_first(self, env):
        engine, site = env
        old = Job(name="old", nodes=4, walltime_s=7200.0, runtime_s=7200.0)
        site.submit(old)
        engine.run(until=engine.timeout(10.0))
        young = Job(name="young", nodes=4, walltime_s=7200.0, runtime_s=7200.0)
        site.submit(young)
        engine.run(until=engine.timeout(10.0))
        killed = site.cluster.fail_nodes(4)
        assert [j.name for j in killed] == ["young"]
        assert young.state is JobState.FAILED
        assert old.state is JobState.RUNNING
        assert site.cluster.total_nodes == 4

    def test_fail_nodes_kills_unsatisfiable_pending_jobs(self, env):
        engine, site = env
        hog = Job(name="hog", nodes=8, walltime_s=3600.0, runtime_s=3600.0)
        site.submit(hog)
        big = Job(name="big", nodes=7, walltime_s=3600.0, runtime_s=600.0)
        site.submit(big)  # pending behind the hog
        site.cluster.fail_nodes(2)
        # 6 nodes remain: "big" (7 nodes) can never run again.
        assert big.state is JobState.FAILED
        assert hog.state is JobState.FAILED  # running hog no longer fits

    def test_restore_nodes_redrives_the_queue(self, env):
        engine, site = env
        site.cluster.fail_nodes(7)
        job = Job(name="j", nodes=4, walltime_s=600.0, runtime_s=60.0)
        with pytest.raises(Exception):
            # 1 node left: a 4-node job is rejected at submission.
            site.submit(job)
        site.cluster.restore_nodes(7)
        job2 = Job(name="j2", nodes=4, walltime_s=600.0, runtime_s=60.0)
        site.submit(job2)
        engine.run(until=job2.finished)
        assert job2.state is JobState.COMPLETED

    def test_at_least_one_node_must_survive(self, env):
        _, site = env
        with pytest.raises(ValueError, match="survive"):
            site.cluster.fail_nodes(8)

    def test_fail_then_cancel_interplay(self, env):
        engine, site = env
        job = Job(name="j", nodes=2, walltime_s=600.0, runtime_s=600.0)
        site.submit(job)
        site.cluster.fail(job)
        assert job.state is JobState.FAILED
        assert job.is_terminal


class TestPilotUnderFailure:
    @pytest.fixture
    def env(self):
        engine = Engine(seed=2)
        return engine, nd_crc(engine, total_nodes=8)

    def test_mid_task_pilot_death_fails_the_task(self, env):
        engine, site = env
        pilot = Pilot(engine, site, nodes=2, walltime_s=7200.0).submit()
        task = Task("t", nodes=2, runtime_s=3600.0)
        proc = pilot.run_task(task)

        def killer():
            yield engine.timeout(600.0)
            site.cluster.fail(pilot.job)

        engine.process(killer())
        with pytest.raises(RuntimeError, match="died"):
            engine.run(until=proc)
        assert task.state is TaskState.FAILED
        assert pilot.state is PilotState.FAILED

    def test_queued_pilot_cancellation_fails_waiting_task(self, env):
        engine, site = env
        site.submit(Job(name="hog", nodes=8, walltime_s=5000.0, runtime_s=5000.0))
        pilot = Pilot(engine, site, nodes=2, walltime_s=7200.0).submit()
        task = Task("t", nodes=2, runtime_s=60.0)
        proc = pilot.run_task(task)

        def killer():
            yield engine.timeout(100.0)
            pilot.cancel()

        engine.process(killer())
        with pytest.raises(RuntimeError, match="terminated before"):
            engine.run(until=proc)
        assert task.state is TaskState.FAILED

    def test_task_on_already_dead_pilot_fails_immediately(self, env):
        engine, site = env
        pilot = Pilot(engine, site, nodes=2, walltime_s=600.0).submit()
        engine.run(until=pilot.finished)
        task = Task("late", nodes=2, runtime_s=60.0)
        with pytest.raises(RuntimeError, match="cannot start"):
            engine.run(until=pilot.run_task(task))

    def test_preempted_pilot_reports_failed_state(self, env):
        engine, site = env
        pilot = Pilot(engine, site, nodes=2, walltime_s=7200.0).submit()
        engine.run(until=pilot.active)
        site.cluster.fail(pilot.job)
        engine.run(until=pilot.finished)
        assert pilot.state is PilotState.FAILED

    def test_healthy_task_execution_is_unchanged(self, env):
        engine, site = env
        pilot = Pilot(engine, site, nodes=1, walltime_s=3600.0).submit()
        task = Task("t", nodes=1, runtime_s=60.0, fn=lambda: "ok")
        assert engine.run(until=pilot.run_task(task)) == "ok"
        assert task.state is TaskState.DONE


class TestRadioDetachRecover:
    @pytest.fixture
    def net(self):
        network = NetworkDeployment.build("5g-tdd", 40.0, name="t")
        ue = network.add_ue("raspberry-pi", ue_id="gw")
        return network, ue

    def test_detach_releases_session_and_radio(self, net):
        network, ue = net
        network.detach_ue(ue)
        assert not ue.attached
        assert ue.session is None
        assert ue not in network.gnb.attached_ues
        assert ue in network.ues  # still provisioned

    def test_detach_is_idempotent(self, net):
        network, ue = net
        network.detach_ue(ue)
        network.detach_ue(ue)  # no raise
        assert not ue.attached

    def test_recover_walks_full_reattach_pipeline(self, net):
        network, ue = net
        old_session = ue.session
        network.detach_ue(ue)
        network.recover_ue(ue)
        assert ue.attached
        assert ue.session is not old_session  # a *fresh* PDU session
        assert ue.ue_id in {u.ue_id for u in network.gnb.attached_ues}

    def test_recover_after_core_session_drop_only(self, net):
        network, ue = net
        network.core.deregister(ue.sim.imsi)
        assert not ue.attached  # session deactivated by the core
        network.recover_ue(ue)
        assert ue.attached
        network.core.route_uplink(ue.session, 1000)  # user plane works

    def test_recover_attached_ue_is_a_noop(self, net):
        network, ue = net
        session = ue.session
        network.recover_ue(ue)
        assert ue.session is session

    def test_dropped_session_rejects_traffic(self, net):
        network, ue = net
        session = ue.session
        network.core.deregister(ue.sim.imsi)
        with pytest.raises(SessionError):
            network.core.route_uplink(session, 100)

    def test_foreign_ue_rejected(self, net):
        network, _ = net
        other_net = NetworkDeployment.build("5g-tdd", 40.0, name="o")
        stranger = other_net.add_ue("raspberry-pi", ue_id="x")
        with pytest.raises(ValueError):
            network.detach_ue(stranger)


class TestChannelDegraded:
    def test_degraded_drops_cqi_and_widens_fading(self):
        faded = NR_CHANNEL.degraded(cqi_drop=4.0, fading_scale=2.0)
        assert faded.mean_cqi == NR_CHANNEL.mean_cqi - 4.0
        assert faded.fading_sigma == NR_CHANNEL.fading_sigma * 2.0
        assert faded.gain == NR_CHANNEL.gain  # untouched

    def test_degraded_floors_at_the_cqi_ladder_bottom(self):
        assert NR_CHANNEL.degraded(cqi_drop=100.0).mean_cqi == 1.0

    def test_original_is_untouched(self):
        before = NR_CHANNEL.mean_cqi
        NR_CHANNEL.degraded()
        assert NR_CHANNEL.mean_cqi == before

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            NR_CHANNEL.degraded(cqi_drop=-1.0)
        with pytest.raises(ValueError):
            NR_CHANNEL.degraded(fading_scale=0.5)


class TestAddOutageMerging:
    def test_outage_fills_gaps_around_existing_windows(self):
        f = FaultInjector()
        f.add_partition(100.0, 200.0)
        f.add_outage(50.0, 250.0)  # overlaps [100,200): only gaps added
        assert f.partitioned_at(75.0)
        assert f.partitioned_at(150.0)
        assert f.partitioned_at(250.0)
        assert not f.partitioned_at(300.0)

    def test_fully_covered_outage_is_a_noop(self):
        f = FaultInjector()
        f.add_partition(0.0, 1000.0)
        f.add_outage(100.0, 200.0)
        assert f.partition_windows == [(0.0, 1000.0)]

    def test_empty_outage_rejected(self):
        with pytest.raises(ValueError):
            FaultInjector().add_outage(10.0, 0.0)

    @pytest.mark.parametrize(
        "start, duration",
        [(math.nan, 5.0), (0.0, math.nan), (0.0, math.inf)],
        ids=["start-nan", "duration-nan", "duration-inf"],
    )
    def test_non_finite_outage_rejected(self, start, duration):
        with pytest.raises(ValueError, match="finite"):
            FaultInjector().add_outage(start, duration)


class TestFaultSchedule:
    @pytest.mark.parametrize(
        "schedule",
        [
            {"start_s": math.nan},
            {"start_s": math.inf},
            {"start_s": 0.0, "duration_s": math.nan},
            {"start_s": 0.0, "duration_s": math.inf},
        ],
        ids=["start-nan", "start-inf", "duration-nan", "duration-inf"],
    )
    def test_non_finite_schedule_rejected(self, schedule):
        with pytest.raises(ValueError, match="finite"):
            FaultInjection(**schedule)

    @pytest.mark.parametrize("knob", ["recovery_poll_s", "recovery_timeout_s"])
    def test_recovery_cadence_is_not_settable(self, knob):
        # The campaign polls every fault on one fixed cadence, so no fault
        # can ask for a zero poll that spins at one simulated instant.
        with pytest.raises(TypeError):
            CspotPartitionInjector(start_s=0.0, duration_s=60.0, **{knob: 0.0})


# -- injectors against a real fabric -----------------------------------------


def run_with(fabric, faults, duration_s):
    campaign = ChaosCampaign(faults).attach(fabric)
    fabric.run(duration_s)
    return campaign.report(duration_s)


class TestInjectorsOnFabric:
    def test_partition_injector_schedules_and_recovers(self):
        fab = tiny_fabric()
        report = run_with(
            fab,
            [CspotPartitionInjector(start_s=1000.0, duration_s=600.0)],
            2 * 3600.0,
        )
        path = fab.transport.path("unl", "ucsb")
        assert path.faults.partition_windows == [(1000.0, 1600.0)]
        (outcome,) = report.faults
        assert outcome.recovered
        assert outcome.recovery_s >= 600.0
        assert report.exactly_once

    def test_ack_loss_injector_restores_probability(self):
        fab = tiny_fabric()
        report = run_with(
            fab,
            [CspotAckLossInjector(
                start_s=600.0, duration_s=1200.0, ack_loss_prob=0.5,
            )],
            3600.0,
        )
        assert fab.transport.path("unl", "ucsb").faults.ack_loss_prob == 0.0
        assert report.faults[0].recovered
        assert report.exactly_once  # dedup absorbed every retried append

    def test_node_power_loss_keeps_storage(self):
        fab = tiny_fabric()
        report = run_with(
            fab,
            [NodePowerLossInjector(
                start_s=1800.0, duration_s=900.0, node="ucsb",
            )],
            3 * 3600.0,
        )
        assert fab.hub.ucsb.alive
        assert report.faults[0].recovered
        assert report.exactly_once

    def test_radio_fade_swaps_and_restores_the_channel(self):
        fab = tiny_fabric()
        original = fab.farm.ue.channel
        run_with(
            fab,
            [RadioFadeInjector(start_s=600.0, duration_s=600.0)],
            3600.0,
        )
        assert fab.farm.ue.channel is original

    def test_ue_power_loss_reattaches_and_delivers(self):
        fab = tiny_fabric()
        report = run_with(
            fab,
            [UePowerLossInjector(start_s=1800.0, duration_s=900.0)],
            3 * 3600.0,
        )
        assert fab.farm.ue.attached
        assert report.faults[0].recovered
        assert report.exactly_once

    def test_pdu_session_drop_forces_reregistration(self):
        fab = tiny_fabric()
        old_session = fab.farm.ue.session
        report = run_with(
            fab,
            [PduSessionDropInjector(start_s=1800.0)],
            3600.0,
        )
        assert fab.farm.ue.attached
        assert fab.farm.ue.session is not old_session
        assert fab.farm.radio.core.is_registered(fab.farm.ue.sim.imsi)
        assert report.faults[0].recovered

    def test_hpc_node_failure_restores_capacity(self):
        fab = tiny_fabric()
        before = fab.hub.site.cluster.total_nodes
        report = run_with(
            fab,
            [HpcNodeFailureInjector(
                start_s=1800.0, duration_s=1800.0, n_nodes=4,
            )],
            3 * 3600.0,
        )
        assert fab.hub.site.cluster.total_nodes == before
        assert report.faults[0].recovered

    def test_pilot_preemption_kills_the_bootstrap_pilot(self):
        fab = tiny_fabric()
        report = run_with(
            fab,
            [PilotPreemptionInjector(start_s=1800.0)],
            3 * 3600.0,
        )
        (outcome,) = report.faults
        assert outcome.detail.startswith("preempted: ")

    def test_queue_storm_deepens_then_drains(self):
        fab = tiny_fabric()
        report = run_with(
            fab,
            [QueueStormInjector(
                start_s=600.0, n_jobs=6, nodes_per_job=2,
                job_runtime_s=900.0,
            )],
            3 * 3600.0,
        )
        (outcome,) = report.faults
        assert outcome.recovered  # every storm job has left the system
        storm_jobs = [
            j for j in fab.hub.site.cluster.completed_jobs if j.user == "chaos-storm"
        ]
        assert len(storm_jobs) == 6
