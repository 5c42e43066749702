"""Dataflow graph construction and validation."""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.laminar.node import LaminarNode
from repro.laminar.operand import Operand
from repro.laminar.types import LaminarType


class GraphError(Exception):
    """Structural problem in a dataflow graph."""


class DataflowGraph:
    """A validated DAG of Laminar nodes and operands.

    Construction API::

        g = DataflowGraph("change-detect")
        current = g.operand("current", ARRAY_F64)
        previous = g.operand("previous", ARRAY_F64)
        verdict = g.operand("verdict", BOOL)
        g.node("vote", fn, inputs=[current, previous], output=verdict)
        g.validate()

    Validation checks: unique names, every operand produced by at most one
    node (single assignment at the graph level), acyclicity, and that every
    node's output operand is declared in this graph.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._operands: dict[str, Operand] = {}
        self._nodes: dict[str, LaminarNode] = {}

    # -- construction ---------------------------------------------------------

    def operand(self, name: str, dtype: LaminarType) -> Operand:
        if name in self._operands:
            raise GraphError(f"graph {self.name!r}: operand {name!r} exists")
        op = Operand(name, dtype)
        self._operands[name] = op
        return op

    def node(
        self,
        name: str,
        fn: Callable[..., Any],
        inputs: list[Operand],
        output: Optional[Operand] = None,
        host: Optional[str] = None,
    ) -> LaminarNode:
        if name in self._nodes:
            raise GraphError(f"graph {self.name!r}: node {name!r} exists")
        for op in inputs + ([output] if output is not None else []):
            if self._operands.get(op.name) is not op:
                raise GraphError(
                    f"graph {self.name!r}: operand {op.name!r} not declared here"
                )
        node = LaminarNode(name=name, fn=fn, inputs=inputs, output=output, host=host)
        self._nodes[name] = node
        return node

    # -- accessors -------------------------------------------------------------

    @property
    def nodes(self) -> list[LaminarNode]:
        return list(self._nodes.values())

    @property
    def operands(self) -> list[Operand]:
        return list(self._operands.values())

    def get_node(self, name: str) -> LaminarNode:
        try:
            return self._nodes[name]
        except KeyError:
            raise GraphError(f"graph {self.name!r}: no node {name!r}") from None

    def get_operand(self, name: str) -> Operand:
        try:
            return self._operands[name]
        except KeyError:
            raise GraphError(f"graph {self.name!r}: no operand {name!r}") from None

    def producers(self) -> dict[str, str]:
        """operand name -> producing node name."""
        out: dict[str, str] = {}
        for node in self._nodes.values():
            if node.output is not None:
                out[node.output.name] = node.name
        return out

    def consumers(self, operand_name: str) -> list[LaminarNode]:
        return [
            node
            for node in self._nodes.values()
            if any(op.name == operand_name for op in node.inputs)
        ]

    def source_operands(self) -> list[Operand]:
        """Operands not produced by any node: the graph's external inputs."""
        produced = set(self.producers())
        return [op for op in self._operands.values() if op.name not in produced]

    # -- validation --------------------------------------------------------------

    def validate(self) -> None:
        """Check single-producer and acyclicity; raise :class:`GraphError`."""
        producers: dict[str, str] = {}
        for node in self._nodes.values():
            if node.output is None:
                continue
            prev = producers.get(node.output.name)
            if prev is not None:
                raise GraphError(
                    f"graph {self.name!r}: operand {node.output.name!r} "
                    f"produced by both {prev!r} and {node.name!r}"
                )
            producers[node.output.name] = node.name
        self._check_acyclic(producers)

    def _check_acyclic(self, producers: dict[str, str]) -> None:
        # Edge: producer node -> consumer node (via the operand between them).
        adjacency: dict[str, list[str]] = {n: [] for n in self._nodes}
        for node in self._nodes.values():
            for op in node.inputs:
                producer = producers.get(op.name)
                if producer is not None:
                    adjacency[producer].append(node.name)
        state: dict[str, int] = {}  # 0 = visiting, 1 = done

        def visit(name: str, stack: list[str]) -> None:
            mark = state.get(name)
            if mark == 1:
                return
            if mark == 0:
                cycle = stack[stack.index(name):] + [name]
                raise GraphError(
                    f"graph {self.name!r} has a cycle: {' -> '.join(cycle)}"
                )
            state[name] = 0
            stack.append(name)
            for succ in adjacency[name]:
                visit(succ, stack)
            stack.pop()
            state[name] = 1

        for name in self._nodes:
            visit(name, [])
