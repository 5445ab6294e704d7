"""Backward scoping: the differentiable set and the reverse sweep order."""

import numpy as np
import pytest

import graphlift as gl
import graphlift.autodiff as autodiff
from graphlift import GraphModel, Node, NoPathError, TensorValue, ValueSpec
from graphlift.builder import GraphBuilder
from graphlift.parser import build_backward_graph

from test_autodiff import random_layered_model


def diamond_model():
    """x feeds two branches that rejoin, and one branch output is reused."""
    w = TensorValue(np.eye(3, dtype=np.float32))
    return GraphModel(
        "diamond",
        [ValueSpec("x", "float32", (-1, 3))],
        [ValueSpec("y", "float32", (-1, 3))],
        {"w": w},
        [Node("MatMul", "mix", ["x", "w"], ["h"]),
         Node("Relu", "pos", ["h"], ["a"]),
         Node("Tanh", "sqz", ["h"], ["b"]),
         Node("Add", "join", ["a", "b"], ["j"]),
         Node("Mul", "scale", ["j", "a"], ["y"])],
    )


def _relevant(model, explained):
    """Reference scoping: input-dependent values by fixed point, then the
    producers reached from the explained output along them."""
    diff = {s.name for s in model.inputs}
    changed = True
    while changed:
        changed = False
        for node in model.nodes:
            if any(i in diff for i in node.inputs) \
                    and not set(node.outputs) <= diff:
                diff.update(node.outputs)
                changed = True
    producer = {o: n for n in model.nodes for o in n.outputs}
    relevant, frontier = set(), [producer[explained]]
    while frontier:
        node = frontier.pop()
        if node.name not in relevant:
            relevant.add(node.name)
            frontier += [producer[i] for i in node.inputs
                         if i in diff and i in producer]
    return diff, relevant


def _assert_sweep_order(model, explained):
    bg = build_backward_graph(model, explained)
    diff, relevant = _relevant(model, explained)
    names = [n.name for n in bg.order]
    assert bg.differentiable == diff
    assert len(names) == len(set(names)) and set(names) == relevant
    position = {name: k for k, name in enumerate(names)}
    producer = {o: n.name for n in model.nodes for o in n.outputs}
    for node in bg.order:
        for i in node.inputs:
            if i in diff and i in producer:
                assert position[node.name] < position[producer[i]]
    return bg


def _record_rules(monkeypatch):
    """Route every rule call through a recorder of its context."""
    seen = {}

    def recording(ctx):
        seen[ctx.node.name] = ctx
        return real(ctx)

    real = autodiff.f_grad
    monkeypatch.setattr(autodiff, "f_grad", recording)
    return seen


def test_order_covers_relevant_nodes_consumers_first():
    m = diamond_model()
    bg = _assert_sweep_order(m, "y")
    assert [n.name for n in bg.order] == ["scale", "join", "sqz", "pos", "mix"]


@pytest.mark.parametrize("seed", range(40))
def test_order_on_random_layered_graphs(seed):
    _assert_sweep_order(random_layered_model(seed), "y")


def test_order_starts_at_explained_output_producer():
    m = diamond_model()
    bg = build_backward_graph(m, "y")
    assert bg.explained_output == "y"
    assert bg.order[0].name == "scale"


def test_relevant_nodes_exclude_side_branches():
    m = diamond_model()
    m.nodes.append(Node("Sigmoid", "side", ["h"], ["unused"]))
    bg = _assert_sweep_order(m, "y")
    assert "side" not in [n.name for n in bg.order]


def test_explained_output_gets_seed_arrival(monkeypatch):
    m = diamond_model()
    m.nodes.append(Node("Sigmoid", "cal", ["y"], ["p"]))
    # y is both the explained output and input to a consumer downstream of
    # it: the sigmoid is outside the sweep, so only the seed arrives at y
    bg = _assert_sweep_order(m, "y")
    assert "cal" not in [n.name for n in bg.order]
    seen = _record_rules(monkeypatch)
    art = gl.compile_explainer(m, np.zeros((2, 3), dtype=np.float32))
    assert seen["scale"].grad_in.endswith("_seed")
    assert seen["scale"].grad_in not in {n.outputs[0] for n in art.model.nodes}


def test_mark_differentiable_excludes_constant_chains():
    entry = gl.corpus_entry("scaled_add_mul")
    bg = build_backward_graph(entry.model, entry.model.outputs[0].name)
    assert "feat" in bg.differentiable and "centered" in bg.differentiable
    # the comparison/selection chain never touches the graph input
    for name in ("gate_raw", "gate_grown", "gate_mask", "gate_pick",
                 "gate_lo", "gate_hi"):
        assert name not in bg.differentiable
    # nor does the sweep visit it
    assert all(set(n.outputs) <= bg.differentiable for n in bg.order)
    assert not {n.name for n in bg.order} & {"gate_raw_op", "gate_pick_op",
                                             "gate_split_op"}


def test_no_path_when_output_is_constant():
    w = TensorValue(np.ones((1, 2), dtype=np.float32))
    m = GraphModel("const", [ValueSpec("x", "float32", (-1, 2))],
                   [ValueSpec("y", "float32", (1, 2))], {"w": w},
                   [Node("Relu", "r", ["w"], ["y"]),
                    Node("Add", "keep", ["x", "w"], ["z"])])
    with pytest.raises(NoPathError, match="not reachable"):
        build_backward_graph(m, "y")
    with pytest.raises(NoPathError, match="passthrough"):
        build_backward_graph(m, "x")


def test_pass_grads_mark_constant_operands(monkeypatch):
    seen = _record_rules(monkeypatch)
    gl.compile_explainer(diamond_model(), np.zeros((2, 3), dtype=np.float32))
    assert seen["mix"].pass_grads == {"x": True, "w": False}
    assert seen["scale"].pass_grads == {"j": True, "a": True}


def test_multi_slot_consumer_visited_once(monkeypatch):
    m = diamond_model()
    m.nodes[-1] = Node("Mul", "scale", ["j", "j"], ["y"])
    bg = _assert_sweep_order(m, "y")
    assert [n.name for n in bg.order].count("scale") == 1
    seen = _record_rules(monkeypatch)
    gl.compile_explainer(m, np.zeros((2, 3), dtype=np.float32))
    assert seen["scale"].pass_grads == {"j": True}


def test_fanout_sums_one_flow_per_relevant_consumer(monkeypatch):
    m = diamond_model()
    m.nodes.append(Node("Sigmoid", "side", ["h"], ["unused"]))
    tags = []
    emit = GraphBuilder.emit

    def recording(self, op_type, inputs, attrs=None, n_outputs=1, tag=None):
        tags.append(tag)
        return emit(self, op_type, inputs, attrs, n_outputs, tag)

    monkeypatch.setattr(GraphBuilder, "emit", recording)
    gl.compile_explainer(m, np.zeros((2, 3), dtype=np.float32))
    # h feeds Relu and Tanh (the side Sigmoid is not relevant), a feeds Add
    # and Mul: one Add each joins their two flows
    sums = [t for t in tags if t and t.startswith("flowsum_")]
    assert sorted(sums) == ["flowsum_mix", "flowsum_pos"]
