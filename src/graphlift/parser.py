"""Scope the backward pass of a model around one explained output.

Reverse-mode differentiation is one sweep over the forward nodes in reverse
dependency order (Griewank & Walther, *Evaluating Derivatives*, 2008).  A
validated model declares its nodes in dependency order, so that sweep is
``model.nodes`` read backwards and nothing sorts.  This module picks what
the sweep covers: the values that depend on the graph input (the
differentiable set), and the nodes upstream of the explained output along
them, ordered so that every consumer comes before its producer.
Constant-only branches and heads that are not being explained fall outside
that order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NoPathError
from .ir import GraphModel, Node

__all__ = ["BackwardGraph", "build_backward_graph"]


@dataclass(frozen=True)
class BackwardGraph:
    """The explained output, the values that depend on a graph input, and
    the nodes the backward sweep visits, consumers before producers."""

    explained_output: str
    differentiable: frozenset[str]
    order: tuple[Node, ...]


def build_backward_graph(model: GraphModel, explained_output: str) -> BackwardGraph:
    """Reverse a validated model around one explained output.

    Raises NoPathError when no differentiable path connects a graph input to
    the explained output.
    """
    inputs = {spec.name for spec in model.inputs}
    diff = set(inputs)
    for node in model.nodes:
        if any(i in diff for i in node.inputs):
            diff.update(node.outputs)
    if explained_output not in diff:
        raise NoPathError(
            f"output {explained_output!r} is not reachable from any graph input")
    if explained_output in inputs:
        raise NoPathError(
            f"output {explained_output!r} is a passthrough of a graph input; "
            "there is nothing to attribute through")

    # reversed, every consumer comes before its producer, so a node's outputs
    # are all wanted or not by the time the walk reaches it
    wanted = {explained_output}
    order = []
    for node in reversed(model.nodes):
        if any(o in wanted for o in node.outputs):
            order.append(node)
            wanted.update(i for i in node.inputs if i in diff)
    return BackwardGraph(explained_output, frozenset(diff), tuple(order))
