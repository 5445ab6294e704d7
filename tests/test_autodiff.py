"""Reverse sweep correctness on randomly wired layered graphs."""

import numpy as np
import pytest

import graphlift as gl
from graphlift import (GraphModel, Node, StuckError, TensorValue, ValueSpec,
                       validate_model)
import graphlift.autodiff as autodiff
from graphlift.autodiff import differentiate
from graphlift.builder import RuleEnv
from graphlift.executor import execute
from graphlift.refopt import _fold_references, _start
from graphlift.rules import RuleOutput

WIDTH = 4


def random_layered_model(seed: int) -> GraphModel:
    """Uniform-width net with random fan-out, depth <= 6, width <= 8."""
    rng = np.random.default_rng(seed)
    width = int(rng.integers(2, 9))
    depth = int(rng.integers(2, 7))
    inits, nodes, live = {}, [], ["x"]
    counter = 0

    def w(shape, scale=0.7):
        nonlocal counter
        counter += 1
        name = f"w{counter}"
        inits[name] = TensorValue(
            rng.normal(0.0, scale / np.sqrt(shape[0]), size=shape), "float64")
        return name

    def pick():
        return live[int(rng.integers(len(live)))]

    for d in range(depth):
        op = rng.choice(["matmul", "act", "add", "sub", "mul", "mulc",
                         "concat"])
        out = f"v{d}"
        if op == "matmul":
            nodes.append(Node("MatMul", f"n{d}", [pick(), w((width, width))],
                              [out]))
        elif op == "act":
            kind = rng.choice(["Tanh", "Sigmoid", "Relu"])
            nodes.append(Node(str(kind), f"n{d}", [pick()], [out]))
        elif op in ("add", "sub", "mul"):
            table = {"add": "Add", "sub": "Sub", "mul": "Mul"}
            nodes.append(Node(table[op], f"n{d}", [pick(), pick()], [out]))
        elif op == "mulc":
            nonce = f"c{d}"
            inits[nonce] = TensorValue(
                rng.uniform(0.5, 1.5, size=(1, width)), "float64")
            nodes.append(Node("Mul", f"n{d}", [pick(), nonce], [out]))
        else:
            joined = f"j{d}"
            nodes.append(Node("Concat", f"n{d}", [pick(), pick()], [joined],
                              {"axis": 1}))
            nodes.append(Node("MatMul", f"n{d}x", [joined,
                                                   w((2 * width, width))],
                              [out]))
        live.append(out)
    nodes.append(Node("MatMul", "head", [live[-1], w((width, 3))], ["y"]))
    model = GraphModel(f"layered{seed}",
                       [ValueSpec("x", "float64", (-1, width))],
                       [ValueSpec("y", "float64", (-1, 3))], inits, nodes)
    validate_model(model)
    return model


@pytest.mark.parametrize("seed", range(10))
def test_random_layered_graphs_match_oracle(seed):
    model = random_layered_model(seed)
    width = model.inputs[0].shape[1]
    rng = np.random.default_rng(1000 + seed)
    x = rng.normal(size=(1, width))
    refs = rng.normal(0.0, 0.6, size=(4, width))
    got = _graph_multipliers(model, x, refs)
    _, want = gl.deeplift_oracle(model, x, refs, output_index=1,
                                 return_multipliers=True)
    assert np.abs(got - want).max() <= 1e-12


def _graph_multipliers(model, x, refs):
    art = gl.compile_explainer(model, refs, output_index=1,
                               expose_multipliers=True)
    outs, _ = execute(art.model, {"x": x})
    return outs[art.model.outputs[2].name]


def test_heavy_fanout_sums_all_arrivals():
    # x consumed by three independent paths that rejoin
    w = TensorValue(np.full((2, 2), 0.5), "float64")
    model = GraphModel(
        "fan", [ValueSpec("x", "float64", (-1, 2))],
        [ValueSpec("y", "float64", (-1, 2))], {"w": w},
        [Node("Tanh", "a", ["x"], ["ta"]),
         Node("MatMul", "b", ["x", "w"], ["tb"]),
         Node("Add", "j1", ["ta", "tb"], ["s1"]),
         Node("Add", "j2", ["s1", "x"], ["y"])])
    validate_model(model)
    x = np.array([[0.4, -0.3]])
    refs = np.array([[0.1, 0.2], [-0.2, 0.0]])
    got = _graph_multipliers(model, x, refs)
    _, want = gl.deeplift_oracle(model, x, refs, output_index=1,
                                 return_multipliers=True)
    assert np.abs(got - want).max() <= 1e-15


def test_duplicate_operand_add_doubles_gradient():
    model = GraphModel(
        "dup", [ValueSpec("x", "float64", (-1, 2))],
        [ValueSpec("y", "float64", (-1, 2))], {},
        [Node("Add", "d", ["x", "x"], ["y"])])
    validate_model(model)
    got = _graph_multipliers(model, np.array([[1.0, 2.0]]),
                             np.array([[0.0, 0.0]]))
    assert np.array_equal(got, [[0.0, 2.0]])  # seed on class 1, doubled


def _manual_differentiate(model):
    """Drive the sweep directly, outside compile_explainer."""
    refs, builder, backward = _start(model, np.zeros((2, 2)))
    for node in model.nodes:
        builder.add(node)
    rows = builder.const(refs, "refrows")
    env = RuleEnv(builder, 2, joint=False,
                  refs=_fold_references(builder, model, rows))
    seed = builder.const(np.array([[0.0, 1.0]]), "seed")
    return differentiate(model, backward, seed, env)


def two_step_model():
    w = TensorValue(np.eye(2) * 0.5, "float64")
    model = GraphModel(
        "two", [ValueSpec("x", "float64", (-1, 2))],
        [ValueSpec("y", "float64", (-1, 2))], {"w": w},
        [Node("MatMul", "mix", ["x", "w"], ["h"]),
         Node("Tanh", "act", ["h"], ["y"])])
    validate_model(model)
    return model


def _patch_rule(monkeypatch, node_name, change):
    """Let ``change`` rewrite the gradients one node's rule returns."""
    real = autodiff.f_grad

    def patched(ctx):
        out = real(ctx)
        if ctx.node.name == node_name:
            out = RuleOutput(out.new_nodes, change(dict(out.grad_out)))
        return out

    monkeypatch.setattr(autodiff, "f_grad", patched)


def test_manual_traversal_visits_each_vertex_once(monkeypatch):
    visits = []
    real = autodiff.f_grad

    def recorded(ctx):
        out = real(ctx)
        visits.append((ctx.node.name, out))
        return out

    monkeypatch.setattr(autodiff, "f_grad", recorded)
    input_grad = _manual_differentiate(two_step_model())
    assert [name for name, _ in visits] == ["act", "mix"]
    rule_outputs = dict(visits)
    assert set(rule_outputs["mix"].grad_out) == {"x"}
    assert input_grad == rule_outputs["mix"].grad_out["x"]


def test_gradient_for_constant_input_raises_stuck(monkeypatch):
    def add_weight_grad(grads):
        grads["w"] = grads["x"]
        return grads

    _patch_rule(monkeypatch, "mix", add_weight_grad)
    with pytest.raises(StuckError, match="non-differentiable input 'w'"):
        _manual_differentiate(two_step_model())


def test_relevant_node_without_gradient_raises_stuck(monkeypatch):
    _patch_rule(monkeypatch, "act", lambda grads: {})
    with pytest.raises(StuckError, match="no gradient reached node 'mix'"):
        _manual_differentiate(two_step_model())
