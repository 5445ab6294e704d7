"""Build the reversed traversal graph used to walk a model back to its input.

The forward graph is parsed into two maps: consumers of every value and the
producer of every value.  The backward graph keys a vertex by each produced
value name; the traversal reaches the producers of the values a vertex's node
consumes, from the explained output toward the model input.  A vertex whose
value feeds several downstream consumers must collect one gradient flow per
consumer before it can fire, which ``forward_times`` records.  Consumers that
cannot influence the explained output (constant-only branches, heads that are
not being explained) are excluded from that count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import NoPathError
from .ir import GraphModel, Node

__all__ = [
    "GraphVertex",
    "BackwardGraph",
    "build_io_maps",
    "mark_differentiable",
    "build_backward_graph",
]


@dataclass
class GraphVertex:
    """Traversal state for the producer of one value."""

    node: Node
    flowin_grads: list[str] = field(default_factory=list)
    forward_times: int = 1
    pass_grads: dict[str, bool] = field(default_factory=dict)


@dataclass
class BackwardGraph:
    """Vertices keyed by value name, plus the sets that scope the traversal."""

    vertices: dict[str, GraphVertex]
    explained_output: str
    differentiable: set[str]
    relevant_nodes: set[str]

    def vertex_for_node(self, node: Node) -> GraphVertex:
        return self.vertices[node.outputs[0]]


def build_io_maps(model: GraphModel):
    """(consumers of each value, producer node of each value).

    A node consuming the same value through several input slots appears once
    in that value's consumer list; graph inputs and initializers have no
    producer entry.
    """
    input2node: dict[str, list[Node]] = {}
    output2node: dict[str, Node] = {}
    for node in model.nodes:
        for iname in dict.fromkeys(node.inputs):
            input2node.setdefault(iname, []).append(node)
        for oname in node.outputs:
            output2node[oname] = node
    return input2node, output2node


def mark_differentiable(model: GraphModel) -> set[str]:
    """Value names reachable from any graph input through the dataflow."""
    diff = {spec.name for spec in model.inputs}
    # nodes are re-scanned until a fixed point so declaration order is free
    changed = True
    while changed:
        changed = False
        for node in model.nodes:
            if any(i in diff for i in node.inputs):
                for out in node.outputs:
                    if out not in diff:
                        diff.add(out)
                        changed = True
    return diff


def build_backward_graph(model: GraphModel,
                         explained_output: str | None = None) -> BackwardGraph:
    """Reverse the model around one explained output.

    Raises NoPathError when no differentiable path connects a graph input to
    the explained output.
    """
    if explained_output is None:
        explained_output = model.outputs[0].name
    input2node, output2node = build_io_maps(model)
    diff = mark_differentiable(model)
    if explained_output not in diff:
        raise NoPathError(
            f"output {explained_output!r} is not reachable from any graph input")
    if explained_output not in output2node:
        raise NoPathError(
            f"output {explained_output!r} is a passthrough of a graph input; "
            "there is nothing to attribute through")

    vertices: dict[str, GraphVertex] = {}
    for node in model.nodes:
        vertex = GraphVertex(node=node)
        vertex.pass_grads = {i: (i in diff) for i in node.inputs}
        for out in node.outputs:
            vertices[out] = vertex

    # nodes the traversal must cover: upstream of the explained output along
    # differentiable values
    relevant: set[str] = set()
    frontier = [output2node[explained_output]]
    while frontier:
        node = frontier.pop()
        if node.name in relevant:
            continue
        relevant.add(node.name)
        for iname in node.inputs:
            if iname in diff and iname in output2node:
                frontier.append(output2node[iname])

    for name, consumers in input2node.items():
        if name not in vertices or name not in diff:
            continue
        count = sum(1 for c in consumers if c.name in relevant)
        if name == explained_output:
            count += 1  # the seed gradient arrives from downstream of the graph
        vertices[name].forward_times = max(count, 1)

    return BackwardGraph(
        vertices=vertices,
        explained_output=explained_output,
        differentiable=diff,
        relevant_nodes=relevant,
    )
