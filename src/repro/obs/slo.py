"""Declarative SLOs with multi-window burn-rate alerting, on sim time.

The paper's Section 4.4 budget is a set of per-leg latency objectives
(sensor->edge, edge->HPC, solver, return). This module turns each leg
into a monitored **SLO**: a target ("99.x% of ``cspot.append`` spans
finish within 0.25 s over a 1 h window") plus an **error budget** (the
tolerated bad fraction). Alerting follows the standard multi-window
burn-rate scheme: a *fast* rule (burn >= 5x over a short window) catches
sudden outages in minutes, a *slow* rule (burn >= 1x over the full
window) catches slow leaks that would exhaust the budget by window end.

Everything is evaluated **on simulated time**, at the instant each span
finishes: no wall clocks, no polling threads. Two same-seed runs process
identical spans at identical sim instants, so they produce byte-identical
alert timelines (:meth:`SLOEngine.timeline_json`) -- the determinism
guard in ``tests/chaos`` pins this.

An engine is a :class:`~repro.obs.trace.SpanSink`::

    engine = tracer.subscribe(SLOEngine(fig3_slos()))
    engine.on_breach(lambda alert: recorder.snapshot(f"slo:{alert.slo}"))
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Callable

from repro.obs.stream import WindowedRate
from repro.obs.trace import Span

#: The canonical fast/slow burn-rate pair: page on a 5x burn sustained for
#: 5 minutes, ticket on a 1x burn sustained over the whole window (the
#: slow rule's window is resolved against each SLO's own window_s).
FAST_BURN_FACTOR = 5.0
FAST_BURN_WINDOW_S = 300.0
SLOW_BURN_FACTOR = 1.0


@dataclass(frozen=True)
class BurnRateRule:
    """One alerting rule: fire when burn rate >= factor over window_s.

    Burn rate is ``(bad fraction over the rule window) / budget`` -- 1.0
    means the budget is being consumed exactly at the rate that exhausts
    it by the end of the SLO window; 5.0 means five times faster.
    ``window_s=0`` is the "inherit" sentinel: the rule's window resolves
    to the owning SLO's ``window_s``. ``min_events`` suppresses verdicts
    from statistically empty windows.
    """

    name: str
    factor: float
    window_s: float
    min_events: int = 1

    def __post_init__(self) -> None:
        if self.factor <= 0:
            raise ValueError(f"rule {self.name!r}: factor must be positive")
        if self.window_s < 0:
            raise ValueError(f"rule {self.name!r}: window_s must be >= 0")


@dataclass(frozen=True)
class SLO:
    """A declarative objective over one span population.

    A finished span named ``span_name`` is **bad** when its simulated
    duration exceeds ``objective_s`` or it carries an ``error`` attribute
    (failed attempts count against the budget even when they are fast).
    ``budget`` is the tolerated bad fraction over ``window_s`` (0.05 =
    "95% of events good"). ``rules`` defaults to the canonical fast/slow
    pair; a rule with ``window_s=0`` is resolved to this SLO's window.
    """

    name: str
    span_name: str
    objective_s: float
    window_s: float = 3600.0
    budget: float = 0.05
    rules: tuple[BurnRateRule, ...] = (
        BurnRateRule("fast", FAST_BURN_FACTOR, FAST_BURN_WINDOW_S),
        BurnRateRule("slow", SLOW_BURN_FACTOR, 0.0),
    )

    def __post_init__(self) -> None:
        if self.objective_s <= 0:
            raise ValueError(f"SLO {self.name!r}: objective_s must be positive")
        if not 0.0 < self.budget < 1.0:
            raise ValueError(f"SLO {self.name!r}: budget must be in (0, 1)")
        if self.window_s <= 0:
            raise ValueError(f"SLO {self.name!r}: window_s must be positive")

    def is_bad(self, span: Span) -> bool:
        return span.duration_sim > self.objective_s or "error" in span.attrs


@dataclass(frozen=True)
class Alert:
    """One alert transition ("fire" or "resolve") on an SLO rule."""

    t: float
    slo: str
    rule: str
    event: str  # "fire" | "resolve"
    burn: float
    bad: int
    total: int

    def to_dict(self) -> dict[str, Any]:
        return {
            "t": self.t,
            "slo": self.slo,
            "rule": self.rule,
            "event": self.event,
            "burn": self.burn,
            "bad": self.bad,
            "total": self.total,
        }


class _RuleState:
    """Sliding good/bad window + firing flag for one (SLO, rule) pair."""

    __slots__ = ("rule", "window", "firing")

    def __init__(self, rule: BurnRateRule, window_s: float) -> None:
        self.rule = rule
        # One window carries both counts: events() is the total, the
        # observed weight (1.0 for bad, 0.0 for good) sums to bad count.
        self.window = WindowedRate(window_s)
        self.firing = False


class _SLOState:
    __slots__ = ("slo", "rules", "good", "bad")

    def __init__(self, slo: SLO) -> None:
        self.slo = slo
        self.rules = [
            _RuleState(rule, rule.window_s if rule.window_s > 0 else slo.window_s)
            for rule in slo.rules
        ]
        self.good = 0
        self.bad = 0


class SLOEngine:
    """Evaluates a set of SLOs online, as spans finish (a SpanSink).

    Subscribe via ``tracer.subscribe(engine)``. Alert transitions
    accumulate in :attr:`alerts` (creation order == sim-event order);
    :meth:`on_breach` callbacks run synchronously on every "fire"
    transition -- the flight-recorder trigger seam.
    """

    def __init__(self, slos: list[SLO] | tuple[SLO, ...]) -> None:
        names = [s.name for s in slos]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate SLO names: {names}")
        self._by_span: dict[str, list[_SLOState]] = {}
        self._states: list[_SLOState] = []
        for slo in slos:
            state = _SLOState(slo)
            self._states.append(state)
            self._by_span.setdefault(slo.span_name, []).append(state)
        self.alerts: list[Alert] = []
        self._breach_hooks: list[Callable[[Alert], None]] = []

    def on_breach(self, hook: Callable[[Alert], None]) -> Callable[[Alert], None]:
        """Run ``hook(alert)`` synchronously on every "fire" transition."""
        self._breach_hooks.append(hook)
        return hook

    # -- sink protocol ------------------------------------------------------------

    def on_span(self, span: Span) -> None:
        states = self._by_span.get(span.name)
        if not states:
            return
        t = span.end_sim if span.end_sim is not None else span.start_sim
        for state in states:
            bad = state.slo.is_bad(span)
            if bad:
                state.bad += 1
            else:
                state.good += 1
            for rule_state in state.rules:
                rule_state.window.observe(t, 1.0 if bad else 0.0)
                self._evaluate(state, rule_state, t)

    def _evaluate(self, state: _SLOState, rs: _RuleState, t: float) -> None:
        total = rs.window.events(t)
        if total < rs.rule.min_events:
            return
        bad = rs.window.value_sum(t)
        burn = (bad / total) / state.slo.budget
        if burn >= rs.rule.factor and not rs.firing:
            rs.firing = True
            self._transition(state, rs, t, "fire", burn, int(bad), total)
        elif burn < rs.rule.factor and rs.firing:
            rs.firing = False
            self._transition(state, rs, t, "resolve", burn, int(bad), total)

    def _transition(
        self, state: _SLOState, rs: _RuleState, t: float,
        event: str, burn: float, bad: int, total: int,
    ) -> None:
        alert = Alert(
            t=t, slo=state.slo.name, rule=rs.rule.name, event=event,
            burn=burn, bad=bad, total=total,
        )
        self.alerts.append(alert)
        if event == "fire":
            for hook in self._breach_hooks:
                hook(alert)

    # -- queries -----------------------------------------------------------------

    def firing(self) -> list[tuple[str, str]]:
        """Currently-firing (slo, rule) pairs, in spec order."""
        return [
            (state.slo.name, rs.rule.name)
            for state in self._states
            for rs in state.rules
            if rs.firing
        ]

    def timeline(self) -> list[dict[str, Any]]:
        """Every alert transition, in sim-event order (deterministic)."""
        return [alert.to_dict() for alert in self.alerts]

    def timeline_json(self) -> str:
        """Canonical JSON timeline: byte-identical across same-seed runs."""
        return json.dumps(self.timeline(), sort_keys=True, separators=(",", ":"))

    def table(self) -> list[str]:
        """Human-readable live status: per-SLO compliance and burn state."""
        lines = [
            "== SLO status ==",
            f"{'slo':<28} {'objective':>10} {'good':>8} {'bad':>6} "
            f"{'compliance':>11} {'alerts':>7} {'state':>8}",
        ]
        for state in self._states:
            total = state.good + state.bad
            compliance = state.good / total if total else 1.0
            n_alerts = sum(
                1 for a in self.alerts
                if a.slo == state.slo.name and a.event == "fire"
            )
            firing = [rs.rule.name for rs in state.rules if rs.firing]
            lines.append(
                f"{state.slo.name:<28} {state.slo.objective_s:>9.3g}s "
                f"{state.good:>8} {state.bad:>6} {compliance:>10.2%} "
                f"{n_alerts:>7} {('FIRING:' + ','.join(firing)) if firing else 'ok':>8}"
            )
        return lines

    def summary(self) -> dict[str, Any]:
        """Deterministic per-SLO roll-up, JSON-ready."""
        out: dict[str, Any] = {}
        for state in self._states:
            total = state.good + state.bad
            out[state.slo.name] = {
                "objective_s": state.slo.objective_s,
                "window_s": state.slo.window_s,
                "budget": state.slo.budget,
                "good": state.good,
                "bad": state.bad,
                "compliance": state.good / total if total else 1.0,
                "fires": sum(
                    1 for a in self.alerts
                    if a.slo == state.slo.name and a.event == "fire"
                ),
            }
        return out


def budget_record(
    *,
    t: float,
    shard: int,
    seq: int,
    slo: str,
    value_s: float,
    budget_s: float,
    **attrs: Any,
) -> dict[str, Any]:
    """One mergeable SLO-timeline record, keyed ``(t, shard, seq)``.

    The sharded-fabric counterpart of :meth:`SLOEngine.timeline`: each
    shard evaluates its own latency observations against the budget and
    emits records carrying the merge layer's total-order key, so
    :func:`repro.parallel.merge.merge_streams` reproduces one
    worker-count-invariant timeline (every field is a pure function of
    the observation, never of the worker layout).
    """
    if budget_s <= 0:
        raise ValueError(f"budget_s must be positive: {budget_s}")
    return {
        "t": t,
        "shard": shard,
        "seq": seq,
        "kind": "slo.eval",
        "slo": slo,
        "value_s": value_s,
        "budget_s": budget_s,
        "ok": value_s <= budget_s,
        **attrs,
    }


__all__ = [
    "Alert",
    "BurnRateRule",
    "SLO",
    "SLOEngine",
    "FAST_BURN_FACTOR",
    "FAST_BURN_WINDOW_S",
    "SLOW_BURN_FACTOR",
    "budget_record",
]
