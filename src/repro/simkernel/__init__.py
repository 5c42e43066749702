"""Deterministic discrete-event simulation kernel.

Every other ``repro`` subsystem -- the private 5G radio network, the CSPOT
distributed runtime, the HPC batch scheduler, and the end-to-end xGFabric
pipeline -- runs on top of this kernel so that whole-system experiments are
reproducible from a single seed.

The kernel provides:

* :class:`~repro.simkernel.engine.Engine` -- a heap-based event loop with a
  monotonic simulated clock.
* :class:`~repro.simkernel.process.Process` -- generator-based cooperative
  processes (``yield Timeout(dt)`` / ``yield event``).
* :class:`~repro.simkernel.resources.Resource` -- a counted resource with
  FIFO waiters (a pilot's node pool). Data moves between processes through
  CSPOT logs and events; the kernel keeps no message queue of its own.
* :class:`~repro.simkernel.rng.RngRegistry` -- named, independently seeded
  ``numpy.random.Generator`` streams so adding a new random consumer does not
  perturb existing ones.
"""

from repro.simkernel.engine import Engine, SimulationError
from repro.simkernel.events import Event, Timeout, AnyOf, AllOf, Interrupt
from repro.simkernel.process import Process, ProcessDied
from repro.simkernel.resources import Resource
from repro.simkernel.rng import RngRegistry

__all__ = [
    "Engine",
    "SimulationError",
    "Event",
    "Timeout",
    "AnyOf",
    "AllOf",
    "Interrupt",
    "Process",
    "ProcessDied",
    "Resource",
    "RngRegistry",
]
