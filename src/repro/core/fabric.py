"""XGFabric: the end-to-end system, built from a farm site and a hub.

The Figure 3 pipeline has two sites:

* :class:`FarmSite` -- one farm inside its private 5G cell: the weather
  truth, the stations, the Farm-ng robot, the ``unl`` CSPOT node, and the
  5G network with its gateway UE. A telemetry round reads every station
  and sends each record up an uplink.
* :class:`Hub` -- the repository and HPC side: the ``ucsb`` and ``nd``
  nodes, Laminar change detection on the duty cycle
  (:class:`ChangeDetection`), ND's alert poll, one pilot placement
  (ND's batch cluster, or all three facilities), the triggered CFD, and
  the digital twin.

:class:`XGFabric` builds one of each on a single simulation engine with one
CSPOT transport, wires the farm's uplink to the hub's telemetry logs, and
runs the loop. Telemetry flows as real bytes through CSPOT logs over the
calibrated 5G+Internet paths; change detection is the Laminar program
running on those logs; CFD triggers acquire nodes through the pilot layer
on a batch-scheduled cluster; the digital twin compares a real (small-
scale) CFD solution against measured interior conditions and dispatches
the robot on suspicion. The sharded fabric
(:mod:`repro.core.fabric_sharded`) builds every site from the same
:class:`FarmSite` and runs the hub's :class:`ChangeDetection` per farm.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Generator, Optional, Sequence

import numpy as np

from repro.cfd.case import TelemetrySnapshot, case_from_telemetry
from repro.cfd.perfmodel import CfdPerformanceModel, runtime_rng
from repro.core.config import (
    DUTY_CYCLE_S,
    HPC_NODES,
    RADIO_BANDWIDTH_MHZ,
    TWIN_SOLVER,
    FabricConfig,
)
from repro.core.digital_twin import DigitalTwin
from repro.core.telemetry import TELEMETRY_ELEMENT_SIZE, TelemetryRecord
from repro.cspot.errors import NodeDownError, PartitionedError
from repro.cspot.log import WooF
from repro.cspot.node import CSPOTNode
from repro.cspot.paths import testbed_paths
from repro.cspot.transport import RemoteAppendClient, Transport
from repro.hpc.site import QueueLoadGenerator
from repro.hpc.sites import anvil, nd_crc, stampede3
from repro.laminar.change_detect import WINDOW_SIZE, build_change_detection_graph
from repro.laminar.runtime import LaminarRuntime
from repro.obs.recorder import FlightRecorder
from repro.obs.slo import SLO, Alert, SLOEngine
from repro.obs.stream import StreamAggregator
from repro.obs.trace import NULL_SPAN, NULL_TRACER, Tracer
from repro.pilot.multisite import MultiSitePilotController
from repro.pilot.task import Task
from repro.radio.network import NetworkDeployment
from repro.sensors.breach import BreachSchedule
from repro.sensors.robot import FarmNgRobot, SurveilReport
from repro.sensors.station import (
    StationReading,
    WeatherStation,
    instrument_rng,
    station_grid,
)
from repro.sensors.weather import SyntheticWeather
from repro.simkernel import Engine, Event

#: Process bodies yield events and may receive any triggered value back.
FabricProcess = Generator[Event, Any, None]

#: A farm's telemetry uplink: sends one station's record bytes and returns
#: the event the farm waits on before it reads the next station.
Uplink = Callable[[WeatherStation, bytes], Event]


@dataclass
class CfdRunRecord:
    """Accounting for one triggered CFD execution (section 4.4)."""

    trigger_time_s: float
    queue_wait_s: float
    execution_s: float
    total_response_s: float
    cores: int
    validity_window_s: float
    site: str = "nd-crc"


@dataclass
class FabricMetrics:
    """Everything the evaluation section reads off a run."""

    telemetry_sent: int = 0
    telemetry_latencies_s: list[float] = field(default_factory=list)
    telemetry_bytes: int = 0
    duty_cycles: int = 0
    change_alerts: int = 0
    cfd_runs: list[CfdRunRecord] = field(default_factory=list)
    #: Triggers abandoned after the pilot retry budget was exhausted
    #: (degraded mode: the alert stays served by the *next* trigger).
    cfd_failures: int = 0
    breach_suspicions: int = 0
    robot_reports: list[SurveilReport] = field(default_factory=list)
    #: Latency from CFD completion to the operator's inbox at UNL (s).
    operator_notification_latencies_s: list[float] = field(default_factory=list)
    #: Surveil imagery shipped through the 5G uplink ("robot-based sensing").
    robot_upload_bytes: int = 0

    @property
    def mean_telemetry_latency_s(self) -> float:
        lat = self.telemetry_latencies_s
        return sum(lat) / len(lat) if lat else 0.0

    @property
    def confirmed_breaches(self) -> int:
        return sum(1 for r in self.robot_reports if r.breach_confirmed)


class FarmSite:
    """One farm inside its private 5G cell.

    The weather truth, the station grid, the Farm-ng robot, the ``unl``
    CSPOT node (it holds the operator's inbox), and the 5G network with
    the gateway UE every byte leaves through.

    Parameters
    ----------
    engine / metrics:
        The simulation engine and the metrics the telemetry rounds count
        into.
    cell:
        The farm's cell in a sharded fabric: its sensors draw their own
        ``shard.cell<ccc>.*`` streams. ``None`` (the one farm of a
        single-engine fabric) draws the ``sensors.*`` streams.
    tracer:
        Records a ``radio.tx`` span per sent record when enabled.
    """

    def __init__(
        self,
        engine: Engine,
        metrics: FabricMetrics,
        cell: Optional[int] = None,
        tracer: Tracer = NULL_TRACER,
    ) -> None:
        self.engine = engine
        self.metrics = metrics
        self.tracer = tracer
        #: Ground-truth breach schedule the interior stations feel.
        self.breaches = BreachSchedule()
        self.weather = SyntheticWeather.from_engine(engine, cell)
        self.stations: list[WeatherStation] = station_grid()
        self.exterior_station = next(s for s in self.stations if not s.interior)
        self.robot = FarmNgRobot(engine, cell=cell)
        self.instruments = instrument_rng(engine, cell)
        self.unl = CSPOTNode(engine, "unl")
        self.unl.create_log("operator.inbox", element_size=256, history_size=1024)
        # The private 5G network: byte accounting and the attach pipeline.
        self.radio = NetworkDeployment.build(
            "5g-tdd", RADIO_BANDWIDTH_MHZ, name="prod"
        )
        self.ue = self.radio.add_ue("raspberry-pi", ue_id="unl-gateway")
        if tracer.enabled:
            self.radio.gnb.bind_metrics(tracer.metrics)

    def telemetry_round(
        self, uplink: Uplink, derate: Optional[float] = None
    ) -> Generator[Event, Any, list[StationReading]]:
        """Read every station once and send each record up ``uplink``.

        The farm waits for each send before it reads the next station, so
        a round's read times trail its start by the uplink latencies. A
        ``derate`` scales the round's wind readings (a degraded sensor
        block). Returns the round's readings.
        """
        tr = self.tracer
        readings: list[StationReading] = []
        for station in self.stations:
            reading = station.read(
                self.weather,
                self.engine.now,
                self.instruments,
                breaches=self.breaches,
            )
            if derate is not None:
                reading = replace(
                    reading, wind_speed_mps=reading.wind_speed_mps * derate
                )
            readings.append(reading)
            payload = TelemetryRecord.from_reading(reading).to_bytes()
            start = self.engine.now
            if tr.enabled:
                # The uplink TX itself is an instant here: its
                # serialization cost is folded into the calibrated
                # UNL->UCSB path latency of the append that follows.
                tr.record(
                    "radio.tx", start, start,
                    category="radio",
                    attrs={
                        "station": station.station_id,
                        "bytes": len(payload),
                    },
                )
            yield uplink(station, payload)
            self.metrics.telemetry_latencies_s.append(self.engine.now - start)
            self.metrics.telemetry_sent += 1
            self.metrics.telemetry_bytes += len(payload)
            self.route_uplink(len(payload))
        return readings

    def route_uplink(self, n_bytes: int) -> None:
        """Account ``n_bytes`` through the 5G core while the UE is attached."""
        if self.ue.attached:
            self.radio.core.route_uplink(self.ue.session, n_bytes)


@dataclass(frozen=True)
class Decision:
    """One duty cycle's Laminar verdicts: the three tests and their vote."""

    epoch: int
    welch_t: bool
    mann_whitney: bool
    ks: bool
    alert: bool


class ChangeDetection:
    """The hub's duty-cycle change detection: Laminar's three-test vote.

    One Laminar change-detection program (Welch t, Mann-Whitney U and KS,
    voted 2 of 3) on the hub's CSPOT hosts. Each :meth:`decide` is one
    epoch: the last two ``WINDOW_SIZE`` windows of a farm's exterior
    wind. The :class:`Hub` decides its one farm; a sharded fabric's hub
    site decides every farm on one program, one epoch each.
    """

    def __init__(
        self,
        engine: Engine,
        hosts: dict[str, CSPOTNode],
        transport: Transport,
        tracer: Tracer = NULL_TRACER,
    ) -> None:
        self.tracer = tracer
        self.graph = build_change_detection_graph()
        self.runtime = LaminarRuntime(
            engine,
            self.graph,
            hosts=hosts,
            transport=transport,
            default_host="ucsb",
            tracer=tracer,
        )
        #: Epochs submitted so far (the next epoch's index).
        self.epochs = 0

    def decide(self, log: WooF) -> Generator[Event, Any, Optional[Decision]]:
        """Vote on the exterior wind in ``log``: one Laminar epoch.

        Compares the last ``WINDOW_SIZE`` readings against the
        ``WINDOW_SIZE`` before them. Returns ``None`` without an epoch
        while the log holds fewer than two windows.
        """
        series = [
            TelemetryRecord.from_bytes(entry.payload).wind_speed_mps
            for entry in log.latest(2 * WINDOW_SIZE)
        ]
        if len(series) < 2 * WINDOW_SIZE:
            return None
        current = np.asarray(series[-WINDOW_SIZE:])
        previous = np.asarray(series[-2 * WINDOW_SIZE: -WINDOW_SIZE])
        epoch = self.epochs
        self.epochs += 1
        span = (
            self.tracer.span(
                "laminar.epoch", category="laminar", attrs={"epoch": epoch}
            )
            if self.tracer.enabled
            else NULL_SPAN
        )
        self.runtime.submit(epoch, {"current": current, "previous": previous})
        yield self.runtime.epoch_done(epoch)
        decision = self.decision(epoch)
        span.annotate(alert=decision.alert).end()
        return decision

    def decision(self, epoch: int) -> Decision:
        """The verdicts of a completed epoch."""
        value = self.runtime.value
        return Decision(
            epoch=epoch,
            welch_t=bool(value("welch_t_different", epoch)),
            mann_whitney=bool(value("mann_whitney_different", epoch)),
            ks=bool(value("ks_different", epoch)),
            alert=bool(value("alert", epoch)),
        )


class Hub:
    """The repository and HPC side of the fabric, serving one farm.

    The ``ucsb`` repository (the farm's telemetry logs, the alert log,
    the Laminar program) and the ``nd`` HPC head node with the ND CRC
    batch cluster (``site``), the pilot placement, the triggered CFD and
    the digital twin. Its processes start with :meth:`start`.

    Every CFD task is placed through one
    :class:`~repro.pilot.multisite.MultiSitePilotController`
    (``placement``): over ND alone, or over ND, Anvil and Stampede3 when
    ``config.multi_site`` is set. ND is its home site, where the paper's
    initial single-node pilot goes.

    Parameters
    ----------
    engine / config / transport / metrics / tracer:
        Shared with the farm: one engine, one CSPOT transport.
    farm:
        The farm whose telemetry the hub stores, whose exterior wind it
        watches, and whose operator inbox (on ``unl``) it notifies.
    """

    def __init__(
        self,
        engine: Engine,
        config: FabricConfig,
        transport: Transport,
        metrics: FabricMetrics,
        farm: FarmSite,
        tracer: Tracer = NULL_TRACER,
    ) -> None:
        cfg = config
        self.engine = engine
        self.config = config
        self.transport = transport
        self.metrics = metrics
        self.farm = farm
        self.tracer = tracer

        # -- CSPOT (Fig. 3) ---------------------------------------------------
        self.ucsb = CSPOTNode(engine, "ucsb")
        self.nd = CSPOTNode(engine, "nd")
        for station in farm.stations:
            self.ucsb.create_log(
                f"telemetry.{station.station_id}",
                element_size=TELEMETRY_ELEMENT_SIZE,
                history_size=4096,
            )
        self.ucsb.create_log("alerts", element_size=64, history_size=1024)
        self.nd.create_log("cfd.results", element_size=256, history_size=1024)
        # The return path: CFD summaries relayed ND -> UCSB -> UNL so "these
        # results can be returned to the site operator to guide the
        # application of water, pesticides, or to detect failures".
        self.ucsb.create_log("cfd.summary", element_size=256, history_size=1024)
        policy = cfg.policies.append
        self._summary_appender = RemoteAppendClient(
            transport, self.nd, self.ucsb, "cfd.summary", policy=policy
        )
        self._operator_appender = RemoteAppendClient(
            transport, self.ucsb, farm.unl, "operator.inbox", policy=policy
        )

        # -- change detection (Laminar on CSPOT) ------------------------------
        self.detection = ChangeDetection(
            engine,
            hosts={"unl": farm.unl, "ucsb": self.ucsb},
            transport=transport,
            tracer=tracer,
        )

        # -- HPC + pilots -----------------------------------------------------
        self.site = nd_crc(engine, HPC_NODES)
        #: The ND model the CFD runtime draws come from, wherever it runs.
        self.perfmodel = CfdPerformanceModel(
            cores_per_node=self.site.cluster.cores_per_node
        )
        sites = {self.site.name: self.site}
        if cfg.multi_site:
            for other in (anvil(engine), stampede3(engine)):
                sites[other.name] = other
        self.placement = MultiSitePilotController(engine, sites, tracer=tracer)
        self.bg_load: Optional[QueueLoadGenerator] = None
        if cfg.background_jobs_per_hour > 0:
            self.bg_load = QueueLoadGenerator(
                self.site, arrival_rate_per_hour=cfg.background_jobs_per_hour
            )

        # -- digital twin -----------------------------------------------------
        self.twin = DigitalTwin(farm.stations)
        self._cfd_busy = False
        self._last_alert_seqno = 0

    def start(self, duration_s: float) -> None:
        """Start the hub's processes for a run of ``duration_s``."""
        self.placement.bootstrap()  # the paper's initial single-node pilot
        if self.bg_load is not None:
            self.bg_load.start(duration_s)
        engine = self.engine
        engine.process(self._duty_cycle_loop(duration_s), name="duty-cycle")
        engine.process(self._alert_poll_loop(duration_s), name="nd-alert-poller")
        if self.config.policies.pilot_watchdog_s > 0:
            engine.process(self._pilot_watchdog(duration_s), name="pilot-watchdog")

    # -- processes ------------------------------------------------------------

    def _duty_cycle_loop(self, duration_s: float) -> FabricProcess:
        exterior = f"telemetry.{self.farm.exterior_station.station_id}"
        while self.engine.now + DUTY_CYCLE_S <= duration_s:
            yield self.engine.timeout(DUTY_CYCLE_S)
            self.metrics.duty_cycles += 1
            if not self.ucsb.alive:
                # The repository is dark (power-loss fault): detection has
                # nothing to read; the parked telemetry serves next cycle.
                continue
            decision = yield from self.detection.decide(
                self.ucsb.get_log(exterior)
            )
            if decision is not None and decision.alert:
                self.metrics.change_alerts += 1
                self.ucsb.local_append(
                    "alerts", f"alert@{self.engine.now:.0f}".encode()
                )

    def _alert_poll_loop(self, duration_s: float) -> FabricProcess:
        """ND fetches the alert log on the 30-minute duty cycle.

        Fetches retry on the configured fetch policy; if a partition or a
        dark repository outlasts the whole budget, the *cycle* is given up
        -- the alerts stay parked in the log and the next poll picks them
        up. Degraded means late here, never crashed.
        """
        cfg = self.config
        policy = cfg.policies.fetch
        # Offset by one telemetry interval so polls trail detections.
        yield self.engine.timeout(cfg.telemetry_interval_s)
        while self.engine.now + DUTY_CYCLE_S <= duration_s:
            yield self.engine.timeout(DUTY_CYCLE_S)
            entries = None
            for attempt in range(policy.max_attempts):
                try:
                    entries = yield self.transport.remote_fetch(
                        self.nd, self.ucsb, "alerts",
                        since_seqno=self._last_alert_seqno,
                    )
                    break
                except (PartitionedError, NodeDownError):
                    delay = policy.delay_s(attempt)
                    if delay:
                        yield self.engine.timeout(delay)
            if not entries:
                continue
            self._last_alert_seqno = entries[-1].seqno
            if not self._cfd_busy:
                self.engine.process(self._cfd_trigger(), name="cfd-trigger")

    def _pilot_watchdog(self, duration_s: float) -> FabricProcess:
        """Re-bootstrap the pilot layer when faults empty it.

        Only runs when ``policies.pilot_watchdog_s`` is positive. Without
        it an HPC node failure that kills every pilot leaves nothing
        submitted until the next data-driven decision; with it, capacity
        is repaired on the watchdog cadence. A pilot at any site counts:
        the home site is bootstrapped again only when the whole placement
        holds no pilot nodes.
        """
        interval = self.config.policies.pilot_watchdog_s
        placement = self.placement
        while self.engine.now + interval <= duration_s:
            yield self.engine.timeout(interval)
            placement.retire_finished()
            if placement.nodes_available() == 0:
                placement.bootstrap()

    def _cfd_trigger(self) -> FabricProcess:
        """Alert -> pilot -> CFD -> twin refresh (the HPC arm of Fig. 3)."""
        cfg = self.config
        policy = cfg.policies.pilot
        placement = self.placement
        cores = placement.cores_per_task
        self._cfd_busy = True
        trigger_time = self.engine.now
        try:
            try:
                snapshot = self._latest_snapshot()
            except NodeDownError:
                # The repository died between the alert fetch and now; a
                # later alert will trigger afresh once it is back.
                self.metrics.cfd_failures += 1
                return
            case = case_from_telemetry(
                snapshot,
                mesh=cfg.twin_mesh,
                config=TWIN_SOLVER,
                name=f"cups_structure_{int(trigger_time)}",
            )
            runtime = float(
                self.perfmodel.sample_total_time(
                    cores, runtime_rng(self.engine)
                )[0]
            )
            queue_start = self.engine.now
            site_name = self.site.name
            task: Optional[Task] = None
            # A pilot can expire or be killed between selection and
            # execution; acquire a fresh one and retry (the delay-tolerant
            # discipline again), up to the configured attempt budget.
            for attempt in range(policy.max_attempts):
                site_name, pilot = placement.acquire_pilot(
                    case.input_size_bytes()
                )
                task = Task(
                    name=f"cfd-{int(trigger_time)}-a{attempt}",
                    nodes=placement.nodes_for_task(placement.sites[site_name]),
                    runtime_s=runtime,
                )
                try:
                    yield pilot.run_task(task)
                    break
                except RuntimeError:
                    delay = policy.delay_s(attempt)
                    if delay:
                        yield self.engine.timeout(delay)
                    continue
            else:
                # Budget exhausted (e.g. the cluster lost its nodes
                # mid-campaign): give the trigger up instead of crashing
                # the run; later alerts trigger afresh.
                self.metrics.cfd_failures += 1
                if self.tracer.enabled:
                    self.tracer.metrics.counter(
                        "fabric.cfd_failures",
                        help="CFD triggers abandoned after pilot retries",
                    ).inc(site=site_name)
                return
            assert task is not None  # the retry loop always built one
            queue_wait = (task.start_time or queue_start) - queue_start
            tr = self.tracer
            sim_span = None
            if tr.enabled:
                # Both intervals are only known after the task completes:
                # record them retroactively on the simulated timeline.
                started = task.start_time or queue_start
                dispatch_span = tr.record(
                    "pilot.dispatch", queue_start, started,
                    category="pilot",
                    attrs={"site": site_name, "nodes": task.nodes},
                )
                sim_span = tr.record(
                    "cfd.sim", started, self.engine.now,
                    category="cfd",
                    cause=dispatch_span,
                    attrs={
                        "site": site_name,
                        "cores": cores,
                        "task": task.name,
                    },
                )
            # The real (laptop-scale) solve that feeds the digital twin.
            twin_span = (
                tr.span(
                    "cfd.twin_solve", category="cfd", cause=sim_span,
                    attrs={"case": case.name},
                )
                if tr.enabled
                else NULL_SPAN
            )
            fields = case.build_solver(tracer=tr).solve().fields
            self.twin.update(case, fields)
            twin_span.end()
            total = self.engine.now - trigger_time
            self.metrics.cfd_runs.append(
                CfdRunRecord(
                    trigger_time_s=trigger_time,
                    queue_wait_s=queue_wait,
                    execution_s=runtime,
                    total_response_s=total,
                    cores=cores,
                    validity_window_s=DUTY_CYCLE_S - total,
                    site=site_name,
                )
            )
            self.nd.local_append(
                "cfd.results",
                f"run@{trigger_time:.0f} total={total:.1f}s".encode(),
            )
            # Return path to the site operator: ND -> UCSB -> UNL.
            summary = (
                f"cfd@{trigger_time:.0f}: interior airflow refreshed; "
                f"wind {case.bcs.inlet.speed_mps:.1f} m/s"
            ).encode()
            done_at = self.engine.now
            notify_span = (
                tr.span(
                    "fabric.notify", category="fabric", cause=sim_span,
                    attrs={"site": site_name},
                )
                if tr.enabled
                else NULL_SPAN
            )
            yield self._summary_appender.append(summary)
            yield self._operator_appender.append(summary)
            notify_span.end()
            self.metrics.operator_notification_latencies_s.append(
                self.engine.now - done_at
            )
        finally:
            self._cfd_busy = False

    # -- helpers --------------------------------------------------------------

    def _latest_snapshot(self) -> TelemetrySnapshot:
        """Assemble the CFD boundary conditions from the freshest telemetry."""
        ext_log = self.ucsb.get_log(
            f"telemetry.{self.farm.exterior_station.station_id}"
        )
        if ext_log.last_seqno == 0:
            raise RuntimeError("no telemetry available to build a CFD case")
        ext = TelemetryRecord.from_bytes(ext_log.get(ext_log.last_seqno).payload)
        interior_temps: list[float] = []
        humidity = ext.relative_humidity
        for station in self.farm.stations:
            if not station.interior:
                continue
            log = self.ucsb.get_log(f"telemetry.{station.station_id}")
            if log.last_seqno:
                rec = TelemetryRecord.from_bytes(log.get(log.last_seqno).payload)
                interior_temps.append(rec.temperature_k)
        interior_t = (
            sum(interior_temps) / len(interior_temps)
            if interior_temps else ext.temperature_k + 2.0
        )
        return TelemetrySnapshot(
            wind_speed_mps=ext.wind_speed_mps,
            wind_direction_deg=0.0,  # the case mesh is wind-aligned
            exterior_temperature_k=ext.temperature_k,
            interior_temperature_k=interior_t,
            relative_humidity=humidity,
            timestamp_s=self.engine.now,
        )


class XGFabric:
    """The assembled system: one :class:`FarmSite` and one :class:`Hub`.

    Both sites share one engine and one CSPOT transport; the farm's
    uplink is a reliable append per station into the hub's telemetry
    logs. The farm lands on ``self.farm`` and the hub on ``self.hub``.

    Parameters
    ----------
    config:
        Operating points (defaults = the paper's).
    tracer:
        Observability tracer (see :mod:`repro.obs`). Disabled by default
        (``NULL_TRACER``); pass ``Tracer()`` to record spans and metrics
        across every layer -- the engine hook, CSPOT appends, Laminar
        fires, pilot decisions, and CFD solves all report through it.
    slos:
        Declarative :class:`~repro.obs.slo.SLO` specs (e.g.
        :func:`~repro.core.e2e.fig3_slos`) evaluated online as spans
        finish; the engine lands on ``self.slo_engine``. Requires an
        enabled tracer.
    recorder:
        A :class:`~repro.obs.recorder.FlightRecorder` to keep recording
        the most recent spans/metric deltas in bounded memory. Snapshots
        fire on SLO breach (when ``slos`` is given) and on chaos fault
        injection. Requires an enabled tracer.
    stream:
        A :class:`~repro.obs.stream.StreamAggregator` fed every span
        duration and metric observation online (live p50/p95/p99 in
        O(buckets) memory). Requires an enabled tracer.
    """

    def __init__(
        self,
        config: Optional[FabricConfig] = None,
        tracer: Optional[Tracer] = None,
        slos: Optional[Sequence[SLO]] = None,
        recorder: Optional[FlightRecorder] = None,
        stream: Optional[StreamAggregator] = None,
    ) -> None:
        self.config = config if config is not None else FabricConfig()
        cfg = self.config
        self.engine = Engine(seed=cfg.seed)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        if self.tracer.enabled:
            # Single attachment point: the engine clock becomes the span
            # sim-time source and events count into ``sim.events``.
            self.tracer.attach(self.engine)
        elif slos is not None or recorder is not None or stream is not None:
            raise ValueError(
                "slos/recorder/stream need spans to consume: construct the "
                "fabric with an enabled tracer (tracer=Tracer())"
            )
        self.recorder = recorder
        self.stream = stream
        self.slo_engine: Optional[SLOEngine] = None
        if recorder is not None:
            # Subscribed before the SLO engine so a breach-triggered
            # snapshot already contains the span that breached.
            recorder.bind_clock(self.tracer.now_sim)
            self.tracer.subscribe(recorder)
            self.tracer.metrics.subscribe(recorder)
        if stream is not None:
            stream.bind_clock(self.tracer.now_sim)
            self.tracer.subscribe(stream)
            self.tracer.metrics.subscribe(stream)
        if slos is not None:
            engine_sink = SLOEngine(list(slos))
            self.slo_engine = engine_sink
            self.tracer.subscribe(engine_sink)
            if recorder is not None:
                rec = recorder

                def _snapshot_on_breach(alert: Alert) -> None:
                    rec.snapshot(trigger=f"slo:{alert.slo}/{alert.rule}")

                engine_sink.on_breach(_snapshot_on_breach)
        self.metrics = FabricMetrics()

        # One transport carries farm appends and hub traffic alike: their
        # latency draws share the ``cspot.transport`` stream in event order.
        self.transport = Transport(self.engine, tracer=self.tracer)
        self.farm = FarmSite(self.engine, self.metrics, tracer=self.tracer)
        self.hub = Hub(
            self.engine, cfg, self.transport, self.metrics, self.farm,
            tracer=self.tracer,
        )
        #: The farm's weather truth (scenarios add fronts through it).
        self.weather = self.farm.weather
        paths = testbed_paths()
        self.transport.connect("unl", "ucsb", paths["unl-ucsb-5g"])
        self.transport.connect("ucsb", "nd", paths["ucsb-nd-internet"])
        self._appenders = {
            station.station_id: RemoteAppendClient(
                self.transport,
                self.farm.unl,
                self.hub.ucsb,
                f"telemetry.{station.station_id}",
                policy=cfg.policies.append,
            )
            for station in self.farm.stations
        }
        self._confirmed_panels: set[int] = set()

    # -- the run ------------------------------------------------------------------

    def run(self, duration_s: float) -> FabricMetrics:
        """Run the whole pipeline for ``duration_s`` of simulated time."""
        cfg = self.config
        root = (
            self.tracer.span(
                "fabric.run",
                category="fabric",
                attrs={"duration_s": duration_s, "seed": cfg.seed},
            )
            if self.tracer.enabled
            else NULL_SPAN
        )
        self.engine.process(self._telemetry_loop(duration_s), name="telemetry-loop")
        self.hub.start(duration_s)
        self.engine.run(until=duration_s)
        root.annotate(
            telemetry_sent=self.metrics.telemetry_sent,
            change_alerts=self.metrics.change_alerts,
            cfd_runs=len(self.metrics.cfd_runs),
        ).end()
        return self.metrics

    # -- processes --------------------------------------------------------------------

    def _telemetry_loop(self, duration_s: float) -> FabricProcess:
        interval = self.config.telemetry_interval_s
        while self.engine.now + interval <= duration_s:
            yield self.engine.timeout(interval)
            readings = yield from self.farm.telemetry_round(self._uplink)
            # Twin comparison against the freshest interior measurements.
            self._compare_twin(readings)

    def _uplink(self, station: WeatherStation, payload: bytes) -> Event:
        return self._appenders[station.station_id].append(payload)

    def _compare_twin(self, readings: list[StationReading]) -> None:
        twin = self.hub.twin
        if not twin.has_prediction:
            return
        farm = self.farm
        exterior = next(r for r in readings if not r.interior)
        interior = [r for r in readings if r.interior]
        comparison = twin.compare(
            self.engine.now, exterior.wind_speed_mps, interior
        )
        if comparison.breach_suspected:
            self.metrics.breach_suspicions += 1
            panel = comparison.suspect_panel_index
            if (
                panel is not None
                and panel < farm.robot.n_panels
                and panel not in self._confirmed_panels
                and not farm.robot.busy
            ):
                truth = panel in farm.breaches.breached_panels_at(self.engine.now)
                mission = farm.robot.dispatch(panel, breach_present=truth)

                def _record(event: Event) -> None:
                    if event.ok:
                        report: SurveilReport = event.value
                        self.metrics.robot_reports.append(report)
                        # The robot's camera imagery rides the same 5G
                        # uplink as the stations ("robot-based sensing").
                        image_bytes = report.images_taken * 2_000_000
                        self.metrics.robot_upload_bytes += image_bytes
                        farm.route_uplink(image_bytes)
                        if report.breach_confirmed:
                            # Confirmed damage is now a known repair ticket,
                            # not something to keep re-surveilling.
                            self._confirmed_panels.add(report.panel_index)

                mission.add_callback(_record)
