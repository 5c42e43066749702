"""The fabric's retry policies for degraded-mode operation.

The paper's delay-tolerance discipline is "a 'failure to append' ... is
simply retried until it succeeds" (section 4.2). Every layer of the fabric
that retries (CSPOT reliable appends, the ND alert fetch, pilot acquisition
for CFD triggers) is parameterized by a
:class:`~repro.cspot.transport.RetryPolicy` -- defined in
:mod:`repro.cspot.transport` next to the reliable append it drives, and
re-exported here -- and :class:`FabricPolicies` bundles the per-layer
policies the fabric threads through its loops.

Policies are pure data + arithmetic -- no engine, no randomness -- so the
same policy object can drive simulated retries and be printed into a
:class:`~repro.chaos.report.ResilienceReport` verbatim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.cspot.transport import DEFAULT_APPEND_POLICY, RetryPolicy


#: Alert fetches run on a 30-minute duty cycle; a failed fetch retries on
#: a short backoff and, if the partition outlasts the budget, gives up and
#: lets the *next* duty cycle pick up the parked alerts (CSPOT logs hold
#: them -- delay, not loss).
DEFAULT_FETCH_POLICY = RetryPolicy(
    max_attempts=8, backoff_s=5.0, backoff_factor=2.0, max_backoff_s=120.0
)

#: Pilot acquisition for one CFD trigger: a pilot can expire or die
#: between selection and execution; each attempt acquires a fresh pilot.
DEFAULT_PILOT_POLICY = RetryPolicy(
    max_attempts=3, backoff_s=0.0, backoff_factor=1.0, max_backoff_s=0.0
)


@dataclass(frozen=True)
class FabricPolicies:
    """The per-layer retry policies the fabric threads through its loops.

    Defaults reproduce the pre-chaos constants exactly, so a fabric built
    with ``FabricPolicies()`` is bit-identical to one built before this
    module existed (the no-drift guarantee the chaos determinism tests
    pin down).

    Attributes
    ----------
    append:
        Telemetry / summary / operator-inbox reliable appends.
    fetch:
        The ND alert-log fetch (section 3.1's "data parked in logs ...
        fetched once the nodes become active").
    pilot:
        Pilot acquisition attempts per CFD trigger.
    pilot_watchdog_s:
        When positive, the fabric runs a watchdog that re-bootstraps a
        pilot whenever none is submitted or active (recovery from HPC
        node failures killing every pilot). ``0`` disables the watchdog
        (the pre-chaos behaviour: pilots are only submitted on data).
    """

    append: RetryPolicy = field(default_factory=lambda: DEFAULT_APPEND_POLICY)
    fetch: RetryPolicy = field(default_factory=lambda: DEFAULT_FETCH_POLICY)
    pilot: RetryPolicy = field(default_factory=lambda: DEFAULT_PILOT_POLICY)
    pilot_watchdog_s: float = 0.0

    def __post_init__(self) -> None:
        if not 0 <= self.pilot_watchdog_s < math.inf:
            raise ValueError(
                "watchdog interval must be non-negative and finite: "
                f"{self.pilot_watchdog_s}"
            )


#: Policies for chaos campaigns: same retry discipline, plus the pilot
#: watchdog so HPC faults that kill every pilot are repaired without
#: waiting for the next data-driven submission.
RESILIENT_POLICIES = FabricPolicies(pilot_watchdog_s=600.0)
