"""Laminar computational nodes: typed pure functions."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.laminar.operand import Operand


@dataclass
class LaminarNode:
    """A dataflow node: the runtime fires it once all its inputs are bound.

    Attributes
    ----------
    name:
        Unique node name within its graph.
    fn:
        The embedded computation; called with input values in declared
        order, must return the output value. "Any computation that
        produces the same outputs from a given set of inputs ... can be
        embedded within a Laminar computational node".
    inputs:
        Input operands, in the order ``fn`` expects them.
    output:
        Output operand, or None for a sink node (side-effecting boundary,
        e.g. "trigger the HPC pilot").
    host:
        Placement label -- which CSPOT node executes this function. The
        paper's change detector, for instance, can run "either within the
        private 5G network or at UCSB in any combination".
    firings:
        How many times the runtime has fired this node.
    """

    name: str
    fn: Callable[..., Any]
    inputs: list[Operand]
    output: Optional[Operand] = None
    host: Optional[str] = None
    firings: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if not self.inputs:
            raise ValueError(f"node {self.name!r} needs at least one input")
        names = [op.name for op in self.inputs]
        if len(set(names)) != len(names):
            raise ValueError(f"node {self.name!r}: duplicate input operands {names}")
