"""Depth-first construction of the backward node list.

The traversal walks the reversed graph from the explained output toward the
model input.  A vertex fires only once every downstream consumer has handed
it a gradient flow; firing accumulates the arrived flows, invokes the node's
rule, and routes the rule's per-input gradients upstream.  The four flow
shapes fall out of that bookkeeping: straight chains forward one flow,
fan-outs wait for all consumers and sum, multi-input ops hand each parent its
own share, and both at once compose.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .builder import RuleEnv
from .errors import NoPathError, StuckError, UnsupportedOp
from .ir import GraphModel, Node
from .parser import BackwardGraph, GraphVertex
from .rules import EPS_ACT, EPS_POOL, RuleContext, RuleOutput, f_grad

__all__ = [
    "BackwardNodeList",
    "differentiate",
    "accumulate_incoming",
    "split_outgoing",
    "format_backward_nodes",
]


@dataclass
class BackwardNodeList:
    """Everything the traversal emitted, in emission order."""

    nodes: list[Node]
    input_grad: str
    visit_order: list[str] = field(default_factory=list)
    rule_outputs: dict[str, RuleOutput] = field(default_factory=dict)


def accumulate_incoming(env: RuleEnv, vertex: GraphVertex, tag: str) -> str:
    """Left-fold the arrived flows into one gradient value."""
    if len(vertex.flowin_grads) != vertex.forward_times:
        raise StuckError(
            f"vertex {tag!r} fired with {len(vertex.flowin_grads)} of "
            f"{vertex.forward_times} flows")
    total = vertex.flowin_grads[0]
    for grad in vertex.flowin_grads[1:]:
        total = env.builder.emit("Add", [total, grad], tag=f"flowsum_{tag}")
    return total


def split_outgoing(vertex: GraphVertex, out: RuleOutput) -> list[tuple[str, str]]:
    """(value, gradient) routes a fired vertex sends upstream, one per input."""
    routes = []
    for name in dict.fromkeys(vertex.node.inputs):
        if name in out.grad_out:
            if not vertex.pass_grads.get(name, False):
                raise StuckError(
                    f"rule for {vertex.node.name!r} produced a gradient for "
                    f"non-differentiable input {name!r}")
            routes.append((name, out.grad_out[name]))
    return routes


def differentiate(model: GraphModel, backward: BackwardGraph, loss_name: str,
                  env: RuleEnv, eps_act: float = EPS_ACT,
                  eps_pool: float = EPS_POOL) -> BackwardNodeList:
    """Emit the gradient graph for the explained output, seeded by loss_name."""
    if len(model.inputs) != 1:
        raise UnsupportedOp("attribution requires exactly one graph input")
    input_name = model.inputs[0].name
    builder = env.builder
    begin = len(builder.nodes)

    stack: list[Node] = []
    input_arrivals: list[str] = []
    visited: set[str] = set()
    visit_order: list[str] = []
    rule_outputs: dict[str, RuleOutput] = {}

    def arrive(value: str, grad: str) -> None:
        if value == input_name:
            input_arrivals.append(grad)
            return
        vertex = backward.vertices[value]
        if len(vertex.node.outputs) > 1:
            raise UnsupportedOp(
                f"gradient through multi-output node {vertex.node.name!r} "
                "is not supported")
        vertex.flowin_grads.append(grad)
        if len(vertex.flowin_grads) == vertex.forward_times:
            stack.append(vertex.node)
        elif len(vertex.flowin_grads) > vertex.forward_times:
            raise StuckError(
                f"value {value!r} received more flows than its consumer count")

    arrive(backward.explained_output, loss_name)
    while stack:
        node = stack.pop()
        if node.name in visited:
            raise StuckError(f"node {node.name!r} fired twice")
        visited.add(node.name)
        vertex = backward.vertex_for_node(node)
        grad_in = accumulate_incoming(env, vertex, node.name)
        ctx = RuleContext(node=node, grad_in=grad_in, env=env,
                          pass_grads=vertex.pass_grads,
                          eps_act=eps_act, eps_pool=eps_pool)
        out = f_grad(ctx)
        visit_order.append(node.name)
        rule_outputs[node.name] = out
        for value, grad in split_outgoing(vertex, out):
            arrive(value, grad)

    missing = backward.relevant_nodes - visited
    if missing:
        raise StuckError(
            "traversal stalled before visiting "
            + ", ".join(sorted(missing))
            + " (gradient flow count mismatch)")
    if not input_arrivals:
        raise NoPathError(
            f"no gradient reached the model input {input_name!r}")
    expected = sum(1 for n in model.nodes
                   if input_name in n.inputs and n.name in backward.relevant_nodes)
    if len(input_arrivals) != expected:
        raise StuckError(
            f"model input collected {len(input_arrivals)} flows, expected {expected}")
    total = input_arrivals[0]
    for grad in input_arrivals[1:]:
        total = builder.emit("Add", [total, grad], tag="flowsum_input")
    return BackwardNodeList(nodes=list(builder.nodes[begin:]), input_grad=total,
                            visit_order=visit_order, rule_outputs=rule_outputs)


def format_backward_nodes(result: BackwardNodeList) -> str:
    """Readable emission listing for debugging."""
    lines = [f"visited {len(result.visit_order)} vertices, "
             f"emitted {len(result.nodes)} nodes, "
             f"input gradient: {result.input_grad}"]
    for name in result.visit_order:
        out = result.rule_outputs[name]
        routes = ", ".join(f"{k} <- {v}" for k, v in out.grad_out.items()) or "-"
        lines.append(f"  {name}: +{len(out.new_nodes)} nodes; {routes}")
    return "\n".join(lines)
