"""Synchronous reference executor for Laminar graphs: the runtime's oracle.

Binds the sources, then fires each node once, in dependency order, on a
plain dict; no engine, CSPOT logs or hosts. Every source and output value
is type-checked, as :class:`~repro.laminar.LaminarRuntime` checks it.
"""

from typing import Any

from repro.laminar import DataflowGraph, GraphError


def run_reference(graph: DataflowGraph, inputs: dict[str, Any]) -> dict[str, Any]:
    """Every operand's value for one run of ``graph`` on ``inputs``."""
    graph.validate()
    sources = {op.name for op in graph.source_operands()}
    extra = set(inputs) - sources
    if extra:
        raise GraphError(f"values supplied for non-source operands: {sorted(extra)}")
    missing = sources - set(inputs)
    if missing:
        raise GraphError(f"missing source operand values: {sorted(missing)}")
    values: dict[str, Any] = {}
    for name, value in inputs.items():
        graph.get_operand(name).dtype.check(value, context=f"source {name!r}")
        values[name] = value
    pending = graph.nodes
    while pending:
        node = next(n for n in pending if all(op.name in values for op in n.inputs))
        pending.remove(node)
        result = node.fn(*(values[op.name] for op in node.inputs))
        if node.output is not None:
            node.output.dtype.check(result, context=f"output {node.output.name!r}")
            values[node.output.name] = result
    return values
