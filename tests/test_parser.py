"""Reversal bookkeeping: io maps, differentiable marking, flow counts."""

import numpy as np
import pytest

import graphlift as gl
from graphlift import GraphModel, Node, NoPathError, TensorValue, ValueSpec
from graphlift.parser import (build_backward_graph, build_io_maps,
                              mark_differentiable)


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


def test_io_maps_dedupe_multi_slot_consumers():
    m = diamond_model()
    m.nodes[-1] = Node("Mul", "scale", ["j", "j"], ["y"])
    consumers, producers = build_io_maps(m)
    assert [n.name for n in consumers["j"]] == ["scale"]
    assert producers["y"].name == "scale"
    assert "x" not in producers


def test_mark_differentiable_excludes_constant_chains():
    entry = gl.corpus_entry("scaled_add_mul")
    diff = mark_differentiable(entry.model)
    assert "feat" in diff and "centered" in diff
    # the comparison/selection chain never touches the graph input
    for name in ("gate_raw", "gate_grown", "gate_mask", "gate_pick",
                 "gate_lo", "gate_hi"):
        assert name not in diff


def test_forward_times_count_relevant_consumers():
    bg = build_backward_graph(diamond_model())
    # h feeds Relu and Tanh, a feeds Add and Mul
    assert bg.vertices["h"].forward_times == 2
    assert bg.vertices["a"].forward_times == 2
    assert bg.vertices["b"].forward_times == 1
    assert bg.vertices["j"].forward_times == 1


def test_explained_output_gets_seed_arrival():
    m = diamond_model()
    m.nodes.append(Node("Sigmoid", "cal", ["y"], ["p"]))
    m.outputs = [ValueSpec("y", "float32", (-1, 3))]
    # y is both the explained output and input to a non-relevant consumer:
    # the sigmoid is downstream of the explained value, so only the seed
    # arrival counts
    bg = build_backward_graph(m, "y")
    assert bg.vertices["y"].forward_times == 1
    assert "cal" not in bg.relevant_nodes


def test_relevant_nodes_exclude_side_branches():
    m = diamond_model()
    m.nodes.append(Node("Sigmoid", "side", ["h"], ["unused"]))
    bg = build_backward_graph(m, "y")
    assert "side" not in bg.relevant_nodes
    assert bg.vertices["h"].forward_times == 2


def test_no_path_when_output_is_constant():
    w = TensorValue(np.ones((1, 2), dtype=np.float32))
    m = GraphModel("const", [ValueSpec("x", "float32", (-1, 2))],
                   [ValueSpec("y", "float32", (1, 2))], {"w": w},
                   [Node("Relu", "r", ["w"], ["y"]),
                    Node("Add", "keep", ["x", "w"], ["z"])])
    with pytest.raises(NoPathError):
        build_backward_graph(m, "y")


def test_pass_grads_mark_constant_operands():
    bg = build_backward_graph(diamond_model())
    mix = bg.vertices["h"]
    assert mix.pass_grads == {"x": True, "w": False}


def test_explained_output_vertex_is_its_producer():
    bg = build_backward_graph(diamond_model())
    vertex = bg.vertices[bg.explained_output]
    assert bg.explained_output == "y"
    assert vertex.node.name == "scale"
    assert bg.vertex_for_node(vertex.node) is vertex
    assert vertex.flowin_grads == []


def test_every_relevant_node_has_a_vertex_per_output():
    m = diamond_model()
    bg = build_backward_graph(m)
    assert bg.relevant_nodes == {n.name for n in m.nodes}
    assert set(bg.vertices) == {o for n in m.nodes for o in n.outputs}
    for node in m.nodes:
        assert bg.vertex_for_node(node).node is node
