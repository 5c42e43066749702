"""Operands: the typed edges of a dataflow graph."""

from __future__ import annotations

from dataclasses import dataclass

from repro.laminar.types import LaminarType


@dataclass(frozen=True)
class Operand:
    """A typed edge in a Laminar graph: a name and a type.

    An operand is *single-assignment per epoch*: the graph gives it at
    most one producer, and the runtime binds it once per execution epoch,
    in the operand's CSPOT log, rejecting a second submit of an epoch.
    (Epochs are what let a static graph process a stream: the paper's
    change detector runs once per 30-minute duty cycle, each run a new
    epoch.) The bindings themselves live in the runtime.
    """

    name: str
    dtype: LaminarType
