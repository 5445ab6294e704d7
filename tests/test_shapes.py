"""Static shape inference across the operator table."""

import itertools
import warnings

import numpy as np
import pytest

from graphlift import (ExecutionPlan, GraphModel, Node, ShapeError, TensorValue,
                       UnsupportedOp, ValidationError, ValueSpec,
                       compile_explainer, deeplift_oracle, execute, explain)
from graphlift.executor import eval_node, run_kernel
from graphlift.builder import GraphBuilder
from graphlift.ir import _OPS, SUPPORTED_OPS, validate_model
from graphlift.shapes import (_window_taps, broadcast_shapes, infer_graph_shapes,
                              resolve_node)


def infer(op, in_shapes, attrs=None, n_outputs=1):
    node = Node(op, "probe", [f"i{k}" for k in range(len(in_shapes))],
                [f"o{k}" for k in range(n_outputs)], attrs or {})
    return resolve_node(node, list(in_shapes))[0]


def test_broadcast_basics():
    assert broadcast_shapes((2, 1, 3), (4, 3)) == (2, 4, 3)
    assert broadcast_shapes((7, 3), (1, 3)) == (7, 3)
    with pytest.raises(ShapeError):
        broadcast_shapes((2, 3), (4, 3))


def test_matmul_and_gemm():
    assert infer("MatMul", [(7, 3), (3, 5)]) == [(7, 5)]
    assert infer("Gemm", [(2, 3), (5, 3), (5,)], {"transB": 1}) == [(2, 5)]
    with pytest.raises(ShapeError):
        infer("MatMul", [(2, 3), (4, 5)])


def test_conv_stride_and_padding():
    out = infer("Conv", [(1, 3, 16, 16), (4, 3, 3, 3)],
                {"kernel_shape": [3, 3], "strides": [2, 2],
                 "pads": [1, 1, 1, 1]})
    assert out == [(1, 4, 8, 8)]
    with pytest.raises(ShapeError):
        infer("Conv", [(1, 2, 8, 8), (4, 3, 3, 3)], {"kernel_shape": [3, 3]})


def test_pooling_windows():
    attrs = {"kernel_shape": [2, 2], "strides": [2, 2], "pads": [0, 0, 0, 0]}
    assert infer("MaxPool", [(1, 4, 8, 8)], attrs) == [(1, 4, 4, 4)]
    assert infer("AveragePool", [(1, 4, 9, 9)], attrs) == [(1, 4, 4, 4)]
    assert infer("GlobalMaxPool", [(2, 4, 8, 8)]) == [(2, 4, 1, 1)]
    assert infer("GlobalAveragePool", [(2, 4, 8, 8)]) == [(2, 4, 1, 1)]
    with pytest.raises(ShapeError):
        infer("MaxPool", [(1, 4, 2, 2)], {"kernel_shape": [5, 5]})


def test_flatten_keeps_the_batch():
    assert infer("Flatten", [(7, 3, 4, 4)], {"axis": 1}) == [(7, 48)]
    assert infer("Flatten", [(2, 3, 4, 4)], {"axis": 2}) == [(6, 16)]


def test_reshape_concrete_and_symbolic():
    assert infer("Reshape", [(2, 6)], {"shape": [3, 4]}) == [(3, 4)]
    assert infer("Reshape", [(2, 6)], {"shape": [-1, 4]}) == [(3, 4)]
    assert infer("Reshape", [(7, 2, 3)], {"shape": [-1, 6]}) == [(7, 6)]
    with pytest.raises(ShapeError):
        infer("Reshape", [(2, 6)], {"shape": [5, 2]})
    with pytest.raises(ShapeError):
        infer("Reshape", [(7, 6)], {"shape": [3, 2]})


def test_transpose_and_concat():
    assert infer("Transpose", [(1, 2, 3, 4)],
                 {"perm": [0, 1, 3, 2]}) == [(1, 2, 4, 3)]
    assert infer("Concat", [(1, 2, 4), (1, 3, 4)], {"axis": 1}) == [(1, 5, 4)]
    with pytest.raises(ShapeError):
        infer("Concat", [(1, 2, 4), (1, 3, 5)], {"axis": 1})


def test_split_tile_and_reduce():
    assert infer("Split", [(10, 4)], {"axis": 0, "split": [5, 5]},
                 n_outputs=2) == [(5, 4), (5, 4)]
    assert infer("Tile", [(1, 4)], {"repeats": [5, 1]}) == [(5, 4)]
    assert infer("ReduceSum", [(2, 3, 4)],
                 {"axes": [1], "keepdims": 1}) == [(2, 1, 4)]
    assert infer("ReduceMean", [(2, 3, 4)],
                 {"axes": [1, 2], "keepdims": 0}) == [(2,)]


def test_elementwise_and_selection():
    assert infer("Add", [(2, 1, 4), (2, 3, 1)]) == [(2, 3, 4)]
    assert infer("Greater", [(2, 3), (2, 3)]) == [(2, 3)]
    assert infer("Where", [(2, 3), (2, 3), (1, 3)]) == [(2, 3)]
    assert infer("Constant", [], {"dtype": "float32", "shape": [1, 4],
                                  "value": [0.0] * 4}) == [(1, 4)]


def test_graph_inference_with_override():
    w = TensorValue(np.zeros((3, 2), dtype=np.float32))
    model = GraphModel("t", [ValueSpec("x", "float32", (-1, 3))],
                       [ValueSpec("y", "float32", (-1, 2))],
                       {"w": w}, [Node("MatMul", "mm", ["x", "w"], ["y"])])
    free = infer_graph_shapes(model)
    assert free["y"] == (1, 2)
    pinned = infer_graph_shapes(model, batch=7)
    assert pinned["y"] == (7, 2)


def test_constant_dtype_is_checked_by_the_law():
    model = GraphModel("k", [], [ValueSpec("y", "float64", (2,))], {},
                       [Node("Constant", "k8", [], ["y"],
                             {"dtype": "int8", "shape": [2], "value": [1.0, 2.0]})])
    with pytest.raises(ValidationError, match="'k8'.*int8"):
        infer_graph_shapes(model)
    with pytest.raises(ValidationError, match="'k8'.*int8"):
        execute(model, {})


def test_an_attribute_of_the_wrong_kind_is_a_validation_error():
    # an unvalidated model: the node check every law runs names the node
    model = GraphModel("c", [ValueSpec("x", "float64", (-1, 2))],
                       [ValueSpec("y", "float64", (-1, 4))], {},
                       [Node("Concat", "join", ["x", "x"], ["y"], {"axis": "1"})])
    with pytest.raises(ValidationError, match="'join'"):
        infer_graph_shapes(model)
    with pytest.raises(ValidationError, match="'join'"):
        execute(model, {"x": np.ones((1, 2))})


def test_flatten_negative_axis_counts_from_the_end():
    assert infer("Flatten", [(2, 3)], {"axis": -1}) == [(2, 3)]
    assert infer("Flatten", [(2, 3, 4)], {"axis": -2}) == [(2, 12)]
    assert infer("Flatten", [(7, 3, 4)], {"axis": -3}) == [(1, 84)]
    with pytest.raises(ShapeError):
        infer("Flatten", [(2, 3)], {"axis": -3})


def test_split_refuses_negative_parts():
    with pytest.raises(ShapeError):
        infer("Split", [(4, 2)], {"axis": 0, "split": [-1, 5]}, n_outputs=2)


CONV = {"kernel_shape": [3, 2], "strides": [2, 1], "pads": [1, 0, 1, 1],
        "dilations": [1, 1]}

# (op, input shapes, attributes, outputs): valid operands of every op
VALID = [
    ("Add", [(2, 1, 4), (3, 1)], {}, 1),
    ("Sub", [(2, 3), (3,)], {}, 1),
    ("Mul", [(1, 3), (2, 1)], {}, 1),
    ("Div", [(2, 3), (2, 3)], {}, 1),
    ("Greater", [(2, 3), (1,)], {}, 1),
    ("Where", [(2, 3), (1, 3), (2, 1)], {}, 1),
    ("Relu", [(2, 3)], {}, 1),
    ("Sigmoid", [(2, 3)], {}, 1),
    ("Tanh", [(2, 3)], {}, 1),
    ("Exp", [(2, 3)], {}, 1),
    ("Abs", [(2, 3)], {}, 1),
    ("Softmax", [(2, 3, 4)], {"axis": 2}, 1),
    ("MatMul", [(2, 2, 3), (3, 4)], {}, 1),
    ("Gemm", [(2, 3), (4, 3), (1, 4)], {"transA": 0, "transB": 1}, 1),
    ("Conv", [(2, 3, 7, 6), (4, 3, 3, 2), (4,)], CONV, 1),
    ("ConvTranspose", [(2, 3, 4, 5), (3, 2, 3, 3), (2,)],
     {"kernel_shape": [3, 3], "strides": [2, 2], "pads": [1, 1, 0, 1],
      "output_padding": [1, 0]}, 1),
    ("MaxPool", [(1, 2, 7, 7)], {"kernel_shape": [3, 3], "strides": [2, 2],
                                 "pads": [1, 1, 1, 1]}, 1),
    ("AveragePool", [(1, 2, 6, 5)], {"kernel_shape": [2, 3], "strides": [2, 1],
                                     "pads": [1, 0, 0, 1]}, 1),
    ("GlobalAveragePool", [(2, 3, 4, 5)], {}, 1),
    ("GlobalMaxPool", [(2, 3, 4, 5)], {}, 1),
    ("BatchNormalization", [(2, 3, 4), (3,), (3,), (3,), (3,)], {}, 1),
    ("Concat", [(2, 3), (2, 1)], {"axis": -1}, 1),
    ("Transpose", [(2, 3, 4)], {"perm": [2, 0, 1]}, 1),
    ("Reshape", [(2, 6)], {"shape": [3, -1]}, 1),
    ("Flatten", [(2, 3)], {"axis": -1}, 1),
    ("Flatten", [(2, 3, 4)], {"axis": 0}, 1),
    ("ReduceSum", [(2, 3, 4)], {"axes": [-1, 0], "keepdims": 0}, 1),
    ("ReduceMean", [(2, 3, 4)], {}, 1),
    ("Tile", [(2, 3)], {"repeats": [2, 0]}, 1),
    ("Split", [(5, 2)], {"axis": -2, "split": [2, 3]}, 2),
    ("Split", [(4, 2)], {"axis": 1}, 2),
    ("Constant", [], {"dtype": "float32", "shape": [2, 3], "value": [0.5] * 6}, 1),
    ("Pad", [(2, 3)], {"pads": [1, 0, 0, 2], "value": 1.0}, 1),
]


def test_valid_cases_cover_every_op():
    assert {case[0] for case in VALID} == SUPPORTED_OPS


@pytest.mark.parametrize("op, in_shapes, attrs, n_outputs", VALID)
def test_law_predicts_the_kernel_output_shape(op, in_shapes, attrs, n_outputs):
    rng = np.random.default_rng(0)
    arrays = [rng.normal(size=shape) for shape in in_shapes]
    node = Node(op, "probe", [f"i{k}" for k in range(len(arrays))],
                [f"o{k}" for k in range(n_outputs)], attrs)
    shapes = [a.shape for a in arrays]
    law, params = resolve_node(node, shapes)
    assert law == [out.shape for out in eval_node(node, arrays, params)]


# a value of each attribute kind that is of no other kind it could be read as
WRONG_KIND = {"int": 1.5, "float": "1", "string": 3, "ints": [1.5], "floats": ["1"]}


def _malformed():
    """(op, attribute, value) per op: an undeclared attribute, and per op
    with attributes one declared attribute of the wrong kind."""
    for op in sorted(SUPPORTED_OPS):
        yield op, "dilation", [1, 1]
        kinds = _OPS[op][3]
        if kinds:
            key = sorted(kinds)[0]
            yield op, key, WRONG_KIND[kinds[key].rstrip("!")]


@pytest.mark.parametrize("op, key, value", list(_malformed()))
def test_every_entry_point_runs_the_whole_node_check(op, key, value):
    _, in_shapes, attrs, n_outputs = next(c for c in VALID if c[0] == op)
    rng = np.random.default_rng(0)
    arrays = [rng.normal(size=shape) for shape in in_shapes]
    names = [f"i{k}" for k in range(len(arrays))]
    outs = [f"o{k}" for k in range(n_outputs)]
    # the well-formed node resolves through its op's law
    good = Node(op, "probe", names, outs, attrs)
    out_shapes = resolve_node(good, list(in_shapes))[0]
    assert len(out_shapes) == n_outputs
    node = Node(op, "probe", names, outs, {**attrs, key: value})
    model = GraphModel(
        "m", [ValueSpec(n, "float64", s) for n, s in zip(names, in_shapes)],
        [ValueSpec(n, "float64", s) for n, s in zip(outs, out_shapes)], {}, [node])
    builder = GraphBuilder()
    for name, shape in zip(names, in_shapes):
        builder.register_value(name, shape)
    match = f"'(probe|anon)'.*'{key}'"
    for run in (lambda: validate_model(model),
                lambda: execute(model, dict(zip(names, arrays))),
                lambda: run_kernel(op, arrays, {**attrs, key: value}, n_outputs),
                lambda: infer_graph_shapes(model),
                lambda: builder.add(node)):
        with pytest.raises(ValidationError, match=match):
            run()


@pytest.mark.parametrize("op, n_inputs", [("Add", 1), ("Where", 2), ("Relu", 0),
                                          ("Relu", 2), ("BatchNormalization", 4)])
def test_operand_count_is_checked_by_the_law(op, n_inputs):
    x = np.ones((2, 3))
    with pytest.raises(ValidationError, match=f"'anon'.*{op} takes"):
        run_kernel(op, [x] * n_inputs)


def test_batchnorm_without_a_channel_axis_is_a_shape_error():
    with pytest.raises(ShapeError, match="'anon'.*channel axis"):
        run_kernel("BatchNormalization", [np.ones(3)] * 5)


def test_plan_of_an_unvalidated_model_names_a_node_with_missing_operands():
    model = GraphModel("m", [ValueSpec("x", "float64", (-1, 2))],
                       [ValueSpec("y", "float64", (-1, 2))], {},
                       [Node("Relu", "r", ["x"], ["h"]),
                        Node("Add", "lonely", ["h"], ["y"])])
    with pytest.raises(ValidationError, match="'lonely'"):
        execute(ExecutionPlan(model), {"x": np.ones((1, 2))})


@pytest.mark.parametrize("op, n_inputs, attrs, missing", [
    ("Concat", 2, {}, "axis"),
    ("Transpose", 1, {}, "perm"),
    ("Reshape", 1, {}, "shape"),
    ("MaxPool", 1, {"strides": [1, 1]}, "kernel_shape"),
    ("Pad", 1, {"value": 0.0}, "pads"),
])
def test_required_attributes_are_checked_by_the_law(op, n_inputs, attrs,
                                                    missing):
    x = np.ones((1, 1, 2, 2))
    with pytest.raises(ValidationError,
                       match=f"'anon'.*{op} requires attribute '{missing}'"):
        run_kernel(op, [x] * n_inputs, attrs)
    model = GraphModel("m", [ValueSpec("x", "float64", (-1, 1, 2, 2))],
                       [ValueSpec("y", "float64", (-1, 1, 2, 2))], {},
                       [Node(op, "bare", ["x"] * n_inputs, ["y"], attrs)])
    with pytest.raises(ValidationError, match=f"'bare'.*'{missing}'"):
        execute(ExecutionPlan(model), {"x": x})


@pytest.mark.parametrize("pads, strides", [([1, 1, 1, 1], [1, 1]),
                                           ([0, 0, 1, 0], [2, 2]),
                                           ([0, 0, 0, 2], [1, 1])])
def test_average_pool_window_in_padding_is_a_shape_error(pads, strides):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ShapeError, match="'anon'.*entirely in padding"):
            run_kernel("AveragePool", [np.ones((1, 1, 2, 2))],
                       {"kernel_shape": [1, 1], "pads": pads, "strides": strides})
    # a window that reaches one real element is still averaged
    out = run_kernel("AveragePool", [np.ones((1, 1, 2, 2))],
                     {"kernel_shape": [2, 2], "pads": [1, 1, 1, 1]})[0]
    assert out.shape == (1, 1, 3, 3) and np.all(out == 1.0)


@pytest.mark.parametrize("attrs", [
    {"kernel_shape": [1, 1], "pads": [1, 1, 1, 1]},
    {"kernel_shape": [2, 1], "pads": [2, 0, 2, 0]},
])
def test_max_pool_window_in_padding_is_a_shape_error(attrs):
    x = np.ones((1, 1, 2, 2))
    with pytest.raises(ShapeError, match="'anon'.*entirely in padding"):
        run_kernel("MaxPool", [x], attrs)
    model = GraphModel("m", [ValueSpec("x", "float64", (-1, 1, 2, 2))],
                       [ValueSpec("y", "float64", (-1, 1, 3, 3))], {},
                       [Node("MaxPool", "pool", ["x"], ["y"], attrs)])
    with pytest.raises(ShapeError, match="'pool'.*entirely in padding"):
        execute(ExecutionPlan(model), {"x": x})


def _axis_geometries():
    """(size, kernel, stride, pad_begin, pad_end, dilation) of every small
    one-axis window that fits its padded extent."""
    for size, kernel, stride, lo, hi, dilation in itertools.product(
            range(1, 6), range(1, 4), range(1, 4), range(4), range(4), range(1, 4)):
        if size + lo + hi >= (kernel - 1) * dilation + 1:
            yield size, kernel, stride, lo, hi, dilation


def _old_window_in_padding(size, kernel, stride, pad_begin, dilation, count):
    """The all-padding test the laws used before the tap count replaced it."""
    for n in range(count):
        start = n * stride - pad_begin
        tap = max(0, -(start // dilation))
        if tap >= kernel or start + tap * dilation >= size:
            return True
    return False


def test_window_taps_match_a_tap_by_tap_count():
    # the pools take unit dilations only
    for size, kernel, stride, lo, hi, dilation in _axis_geometries():
        if dilation != 1:
            continue
        windows = range(0, size + lo + hi - (kernel - 1) * dilation, stride)
        got = _window_taps(size, kernel, stride, lo, len(windows))
        want = [sum(0 <= start - lo + t * dilation < size for t in range(kernel))
                for start in windows]
        assert got == want, (size, kernel, stride, lo, hi, dilation)
        assert (0 in got) == _old_window_in_padding(size, kernel, stride, lo,
                                                    dilation, len(got))


def test_average_pool_divisor_plane_is_a_padded_ones_sum():
    # AveragePool takes unit dilations only; a spread of the rest per axis
    axes = [g[:5] for g in _axis_geometries() if g[5] == 1]
    for (h, kh, sh, top, bottom), (w, kw, sw, left, right) in \
            itertools.product(axes[::11], axes[3::13]):
        attrs = {"kernel_shape": [kh, kw], "strides": [sh, sw],
                 "pads": [top, left, bottom, right]}
        node = Node("AveragePool", "pool", ["x"], ["y"], attrs)
        ones = np.pad(np.ones((h, w)), [(top, bottom), (left, right)])
        sums = np.lib.stride_tricks.sliding_window_view(ones, (kh, kw))[::sh, ::sw]
        want = sums.sum(axis=(2, 3))
        if not want.all():
            with pytest.raises(ShapeError, match="'pool'.*entirely in padding"):
                resolve_node(node, [(1, 1, h, w)])
            continue
        (shape,), params = resolve_node(node, [(1, 1, h, w)])
        assert shape == (1, 1, *want.shape)
        assert params[-1].dtype == np.float64
        assert np.array_equal(params[-1], want[None, None])


# (id, op, input shape, refused attributes and weight shape, the same node
# with its defaults written out and a rank-2 weight): each configuration
# runs no kernel and has no multiplier rule, so its law refuses it
CONFIGURATIONS = [
    ("dilated_conv", "Conv", (1, 1, 5, 5),
     ({"kernel_shape": [2, 2], "dilations": [2, 2]}, (2, 1, 2, 2)),
     ({"kernel_shape": [2, 2], "dilations": [1, 1]}, (2, 1, 2, 2))),
    ("gemm_trans_a", "Gemm", (1, 3), ({"transA": 1}, (3, 2)),
     ({"transA": 0}, (3, 2))),
    ("softmax_axis_0", "Softmax", (1, 3), ({"axis": 0}, None), ({"axis": 1}, None)),
    ("batched_matmul", "MatMul", (1, 3), ({}, (2, 3, 2)), ({}, (3, 2))),
]

ENTRY_POINTS = {
    "execute": lambda model, arrays, refs: execute(model, {"x": arrays[0]}),
    "infer_graph_shapes": lambda model, arrays, refs: infer_graph_shapes(model),
    "compile_optimized": lambda model, arrays, refs: explain(
        compile_explainer(model, refs, scheme="optimized"), arrays[0]),
    "compile_naive": lambda model, arrays, refs: explain(
        compile_explainer(model, refs, scheme="naive"), arrays[0]),
    "deeplift_oracle": lambda model, arrays, refs: deeplift_oracle(
        model, arrays[0], refs),
    "run_kernel": lambda model, arrays, refs: run_kernel(
        model.nodes[0].op_type, arrays, model.nodes[0].attributes),
}


def _configured_net(op, x_shape, attrs, w_shape):
    """x -> the configured node (-> GlobalAveragePool -> Flatten after a
    Conv, so the head is rank 2), with the node's arrays."""
    rng = np.random.default_rng(3)
    x = rng.normal(size=x_shape)
    arrays = [x] if w_shape is None else [x, rng.normal(size=w_shape)]
    inits = {} if w_shape is None else {"w": TensorValue(arrays[1])}
    out = "h" if op == "Conv" else "y"
    nodes = [Node(op, "configured", ["x", *inits], [out], attrs)]
    if op == "Conv":
        nodes += [Node("GlobalAveragePool", "gap", ["h"], ["g"]),
                  Node("Flatten", "flat", ["g"], ["y"], {"axis": 1})]
    model = GraphModel("configured", [ValueSpec("x", "float64", (-1, *x_shape[1:]))],
                       [ValueSpec("y", "float64", (-1, 2))], inits, nodes)
    return model, arrays


@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
@pytest.mark.parametrize("op, x_shape, refused, default",
                         [c[1:] for c in CONFIGURATIONS],
                         ids=[c[0] for c in CONFIGURATIONS])
def test_every_entry_point_refuses_what_no_rule_explains(op, x_shape, refused,
                                                         default, entry):
    run = ENTRY_POINTS[entry]
    refs = np.random.default_rng(4).normal(size=(3, *x_shape[1:]))
    # the defaults written out still run
    run(*_configured_net(op, x_shape, *default), refs)
    with pytest.raises(UnsupportedOp, match="'(configured|anon)'"):
        run(*_configured_net(op, x_shape, *refused), refs)


X = ValueSpec("x", "float64", (-1, 3))


def _weight(*shape):
    return TensorValue(np.ones(shape))


# (id, graph input, nodes, initializers, error, message): operands or
# attributes a law refuses, and one a rule refuses, each named by the compile
REFUSALS = [
    ("conv_3d_weight", ValueSpec("x", "float64", (-1, 1, 4, 4)),
     [Node("Conv", "bad", ["x", "w"], ["y"], {"kernel_shape": [2, 2]})],
     {"w": _weight(1, 2, 2)}, ShapeError, "4-D weights"),
    ("conv_transpose_3d_weight", ValueSpec("x", "float64", (-1, 1, 4, 4)),
     [Node("ConvTranspose", "bad", ["x", "w"], ["y"], {"kernel_shape": [2, 2]})],
     {"w": _weight(1, 2, 2)}, ShapeError, "4-D weights"),
    ("matmul_rank_1", X, [Node("MatMul", "bad", ["x", "w"], ["y"])],
     {"w": _weight(3)}, ShapeError, "at least 2-D"),
    ("gemm_3d_weight", X, [Node("Gemm", "bad", ["x", "w"], ["y"])],
     {"w": _weight(3, 2, 1)}, ShapeError, "must be 2-D"),
    ("gemm_bias", X, [Node("Gemm", "bad", ["x", "w", "c"], ["y"])],
     {"w": _weight(3, 2), "c": _weight(1, 1, 2)}, ShapeError, "bias"),
    ("concat_ranks", X, [Node("Concat", "bad", ["x", "c"], ["y"], {"axis": 1})],
     {"c": _weight(3)}, ShapeError, "rank mismatch"),
    ("transpose_perm", X,
     [Node("Transpose", "bad", ["x"], ["y"], {"perm": [0, 0]})], {}, ShapeError,
     "not a permutation"),
    ("reshape_infer", X,
     [Node("Reshape", "bad", ["x"], ["y"], {"shape": [-1, 2]})], {}, ShapeError,
     "cannot reshape"),
    ("split_divide", X,
     [Node("Split", "bad", ["x"], ["y", "z"], {"axis": 1})], {}, ShapeError,
     "not divisible"),
    ("transpose_batch", X,
     [Node("Transpose", "bad", ["x"], ["y"], {"perm": [1, 0]})], {}, UnsupportedOp,
     "transposing the batch axis"),
]


@pytest.mark.parametrize("spec, nodes, inits, error, message",
                         [c[1:] for c in REFUSALS], ids=[c[0] for c in REFUSALS])
def test_compile_names_the_node_it_refuses(spec, nodes, inits, error, message):
    model = GraphModel("m", [spec], [ValueSpec("y", "float64", (-1, 2))], inits,
                       nodes)
    with pytest.raises(error, match=f"'bad'.*{message}"):
        compile_explainer(model, np.zeros((2, *spec.shape[1:])))
