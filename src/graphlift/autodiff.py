"""Reverse sweep that emits the backward nodes through the graph builder.

``differentiate`` visits the nodes of ``BackwardGraph.order`` once each,
every consumer before its producer, so all of a node's gradient flows have
arrived when it is reached.  The arrived flows are summed, the node's rule is
invoked, and each per-input gradient the rule returns joins that input's
flows.  Chains hand on one flow, fan-outs sum several, and multi-input ops
give each input its own share.  The sweep returns the name of the input's
summed gradient; what it emitted is in the builder.
"""

from __future__ import annotations

from .builder import GraphBuilder, RuleEnv
from .errors import NoPathError, StuckError, UnsupportedOp
from .ir import GraphModel
from .parser import BackwardGraph
from .rules import RuleContext, f_grad

__all__ = ["differentiate"]


def _sum_flows(builder: GraphBuilder, flows: list[str], tag: str) -> str:
    """Left-fold the arrived flows into one gradient value."""
    total = flows[0]
    for grad in flows[1:]:
        total = builder.emit("Add", [total, grad], tag=f"flowsum_{tag}")
    return total


def differentiate(model: GraphModel, backward: BackwardGraph, loss_name: str,
                  env: RuleEnv) -> str:
    """Emit the gradient graph for the explained output, seeded by loss_name,
    into ``env.builder``; returns the name of the input gradient."""
    input_name = model.inputs[0].name
    builder = env.builder
    diff = backward.differentiable
    flows: dict[str, list[str]] = {backward.explained_output: [loss_name]}
    for node in backward.order:
        if len(node.outputs) > 1:
            raise UnsupportedOp(
                f"gradient through multi-output node {node.name!r} "
                "is not supported")
        arrived = flows.pop(node.outputs[0], None)
        if arrived is None:
            raise StuckError(f"no gradient reached node {node.name!r}")
        grad_in = _sum_flows(builder, arrived, node.name)
        ctx = RuleContext(node=node, grad_in=grad_in, env=env,
                          pass_grads={i: i in diff for i in node.inputs})
        out = f_grad(ctx)
        for name in dict.fromkeys(node.inputs):
            if name in out.grad_out:
                if name not in diff:
                    raise StuckError(
                        f"rule for {node.name!r} produced a gradient for "
                        f"non-differentiable input {name!r}")
                flows.setdefault(name, []).append(out.grad_out[name])
    if input_name not in flows:
        raise NoPathError(
            f"no gradient reached the model input {input_name!r}")
    return _sum_flows(builder, flows[input_name], "input")
