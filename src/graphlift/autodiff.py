"""Reverse sweep that emits the backward nodes through the graph builder.

``differentiate`` visits the nodes of ``BackwardGraph.order`` once each,
every consumer before its producer, so all of a node's gradient flows have
arrived when it is reached.  The arrived flows are summed, the node's rule is
invoked, and each per-input gradient the rule returns joins that input's
flows.  Chains hand on one flow, fan-outs sum several, and multi-input ops
give each input its own share.  The sweep returns the name of the input's
summed multiplier; what it emitted is in the builder.

Each flow is of one kind, a multiplier or a contribution (see ``rules``):
the ops in ``rules.CONTRIBUTES`` hand their input contributions.  A node
in ``rules.PASSES_CONTRIBUTIONS`` that receives contributions only passes
their sum on to its input, and no rule runs.  Anywhere else, the model
input included, the contributions are summed and divided once into a
multiplier by ``rules.to_multiplier``, which joins the other flows.
"""

from __future__ import annotations

from .builder import GraphBuilder, RuleEnv
from .errors import NoPathError, StuckError, UnsupportedOp
from .ir import GraphModel
from .parser import BackwardGraph
from .rules import (CONTRIBUTES, PASSES_CONTRIBUTIONS, RuleContext, f_grad,
                    to_multiplier)

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
    into ``env.builder``; returns the name of the input multiplier."""
    input_name = model.inputs[0].name
    builder = env.builder
    diff = backward.differentiable
    # value -> the multipliers, and the contributions, that reached it
    flows: dict[str, list[str]] = {backward.explained_output: [loss_name]}
    parts: dict[str, list[str]] = {}

    def multipliers(name: str, tag: str) -> list[str]:
        """The multipliers that reached ``name``, and its contributions'
        sum divided into one more."""
        arrived = flows.pop(name, [])
        if name in parts:
            total = _sum_flows(builder, parts.pop(name), tag)
            arrived.append(to_multiplier(env, name, total))
        return arrived

    for node in backward.order:
        if len(node.outputs) > 1:
            raise UnsupportedOp(
                f"gradient through multi-output node {node.name!r} "
                "is not supported")
        out_name = node.outputs[0]
        if node.op_type in PASSES_CONTRIBUTIONS and out_name not in flows \
                and out_name in parts:
            parts.setdefault(node.inputs[0], []).append(
                _sum_flows(builder, parts.pop(out_name), node.name))
            continue
        arrived = multipliers(out_name, node.name)
        if not arrived:
            raise StuckError(f"no gradient reached node {node.name!r}")
        grad_in = _sum_flows(builder, arrived, node.name)
        ctx = RuleContext(node=node, grad_in=grad_in, env=env,
                          pass_grads={i: i in diff for i in node.inputs})
        out = f_grad(ctx)
        kind = parts if node.op_type in CONTRIBUTES else flows
        for name in dict.fromkeys(node.inputs):
            if name in out.grad_out:
                if name not in diff:
                    raise StuckError(
                        f"rule for {node.name!r} produced a gradient for "
                        f"non-differentiable input {name!r}")
                kind.setdefault(name, []).append(out.grad_out[name])
    arrived = multipliers(input_name, "input")
    if not arrived:
        raise NoPathError(
            f"no gradient reached the model input {input_name!r}")
    return _sum_flows(builder, arrived, "input")
