"""The backward-plumbing ops Abs, Pad and ConvTranspose.

Each kernel is checked against a plain nested-loop reference, each shape law
against the kernel's output, ConvTranspose against Conv as its adjoint, and
malformed attributes, of these ops and of Conv and the pools, against the
package's typed errors.
"""

import itertools

import numpy as np
import pytest

import graphlift as gl
from graphlift import (GraphModel, Node, ShapeError, UnsupportedOp,
                       ValidationError, ValueSpec, corpus, validate_model)
from graphlift.executor import run_kernel
from graphlift.shapes import resolve_node
from test_executor import assert_rows_run_alone, chunk_batches, chunk_step

TYPED = (ValidationError, ShapeError, UnsupportedOp)


def node_for(op, inputs, attrs):
    return Node(op, "n", [f"i{k}" for k in range(len(inputs))], ["o"], attrs)


def run_checked(op, inputs, attrs):
    """Kernel output, asserting that the shape law predicts its shape."""
    out = run_kernel(op, inputs, attrs)[0]
    law = resolve_node(node_for(op, inputs, attrs), [x.shape for x in inputs])[0]
    assert law == [out.shape]
    return out


def ref_pad(x, pads, value):
    rank = x.ndim
    out = np.full([d + pads[a] + pads[rank + a] for a, d in enumerate(x.shape)],
                  value, dtype=x.dtype)
    for idx in itertools.product(*map(range, x.shape)):
        out[tuple(i + pads[a] for a, i in enumerate(idx))] = x[idx]
    return out


def ref_conv_transpose(x, w, strides, pads, extra):
    """Every input cell scattered through every tap, in float64, by plain
    loops over cells and taps (all images and channels at once)."""
    n, cin, h, wd = x.shape
    _, cout, kh, kw = w.shape
    x, w = x.astype(np.float64), w.astype(np.float64)
    full = np.zeros((n, cout, strides[0] * (h - 1) + kh + extra[0],
                     strides[1] * (wd - 1) + kw + extra[1]))
    for i, j, di, dj in itertools.product(range(h), range(wd), range(kh),
                                          range(kw)):
        full[:, :, i * strides[0] + di, j * strides[1] + dj] += \
            x[:, :, i, j] @ w[:, :, di, dj]
    return full[:, :, pads[0]:full.shape[2] - pads[2],
                pads[1]:full.shape[3] - pads[3]]


def test_abs_matches_sign_flip():
    x = np.array([[-2.5, -0.0, 0.0, 1e-300, 3.0]])
    got = run_checked("Abs", [x], {})
    assert np.array_equal(got, np.where(x > 0, x, -x))
    assert not np.signbit(got).any()


@pytest.mark.parametrize("pads", [[0, 0, 0, 0, 0, 0], [1, 0, 2, 0, 3, 1],
                                  [0, 2, 0, 1, 0, 0]])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_pad_matches_loop_reference(pads, dtype):
    x = np.arange(24, dtype=dtype).reshape(2, 3, 4) - 7
    got = run_checked("Pad", [x], {"pads": pads, "value": -1.5})
    assert got.dtype == dtype
    assert np.array_equal(got, ref_pad(x, pads, -1.5))
    assert np.array_equal(run_kernel("Pad", [x], {"pads": pads})[0],
                          ref_pad(x, pads, 0.0))


def phase_step(x, w, attrs):
    """The fewest images per chunk of any phase's unit-stride Conv in the
    ConvTranspose of ``x`` by ``w``."""
    _, (_, phases) = resolve_node(node_for("ConvTranspose", [x, w], attrs),
                                  [x.shape, w.shape])
    return min(chunk_step(x[crop].shape, w[taps].shape[2:], [1, 1], frame,
                          x.itemsize) for _, taps, crop, frame in phases)


# (strides, pads, output_padding), with symmetric and asymmetric pads
CONV_T_CASES = [([1, 1], [0, 0, 0, 0], [0, 0]),
                ([1, 1], [1, 1, 1, 1], [0, 0]),
                ([1, 1], [2, 0, 1, 1], [0, 0]),
                ([2, 2], [0, 0, 0, 0], [1, 0]),
                ([2, 2], [1, 1, 1, 1], [1, 1]),
                ([2, 1], [0, 1, 2, 0], [0, 0]),
                ([1, 2], [1, 0, 0, 2], [0, 1]),
                ([2, 2], [2, 1, 0, 2], [1, 1]),
                # stride past the 2-wide kernel: some phases get no tap
                ([3, 3], [0, 0, 0, 0], [2, 2]),
                ([3, 3], [2, 1, 1, 0], [1, 2])]


@pytest.mark.parametrize("strides, pads, extra", CONV_T_CASES)
def test_conv_transpose_matches_loop_reference(strides, pads, extra):
    attrs = {"kernel_shape": [3, 2], "strides": strides, "pads": pads,
             "output_padding": extra}
    for dtype, atol in ((np.float64, 1e-13), (np.float32, 1e-5)):
        rng = np.random.default_rng(5)
        w = rng.normal(size=(8, 3, 3, 2)).astype(dtype)
        bias = rng.normal(size=(3,)).astype(dtype)
        # batches either side of the chunk boundaries of the phase with the
        # largest window matrix
        step = phase_step(np.empty((1, 8, 9, 11), dtype), w, attrs)
        for batch in chunk_batches(step):
            x = rng.normal(size=(batch, 8, 9, 11)).astype(dtype)
            got = run_checked("ConvTranspose", [x, w], attrs)
            assert got.dtype == dtype and got.flags.c_contiguous
            assert np.allclose(got, ref_conv_transpose(x, w, strides, pads, extra),
                               rtol=0, atol=atol)
            with_bias = run_checked("ConvTranspose", [x, w, bias], attrs)
            assert with_bias.dtype == dtype and with_bias.flags.c_contiguous
            assert np.allclose(with_bias, got + bias.reshape(1, 3, 1, 1), rtol=0,
                               atol=atol)
        # the same images, every other column of a wider array
        wide = np.zeros(x.shape[:3] + (22,), dtype)
        wide[..., ::2] = x
        assert run_checked("ConvTranspose", [wide[..., ::2], w, bias],
                           attrs).tobytes() == with_bias.tobytes()
        assert_rows_run_alone("ConvTranspose", x, [w, bias], attrs, with_bias)


@pytest.mark.parametrize("height, width", [(7, 6), (8, 7)])
@pytest.mark.parametrize("strides", [[1, 1], [2, 2]])
@pytest.mark.parametrize("pads", [[0, 0, 0, 0], [1, 1, 1, 1], [1, 0, 2, 1]])
def test_conv_transpose_is_the_adjoint_of_conv(height, width, strides, pads):
    rng = np.random.default_rng(height * 10 + strides[0] + sum(pads))
    x = rng.normal(size=(2, 3, height, width))
    w = rng.normal(size=(4, 3, 3, 2))
    y = run_kernel("Conv", [x, w], {"kernel_shape": [3, 2], "strides": strides,
                                    "pads": pads})[0]
    g = rng.normal(size=y.shape)
    extra = [(height, width)[i] + pads[i] + pads[i + 2] - w.shape[2 + i]
             - strides[i] * (y.shape[2 + i] - 1) for i in range(2)]
    back = run_checked("ConvTranspose", [g, w],
                       {"kernel_shape": [3, 2], "strides": strides,
                        "pads": pads, "output_padding": extra})
    assert back.shape == x.shape
    assert abs(float((y * g).sum()) - float((x * back).sum())) < 1e-12


def test_adjoint_cases_cover_both_output_paddings():
    extras = set()
    for height, strides, pads in itertools.product(
            (7, 8), ([1, 1], [2, 2]), ([0, 0, 0, 0], [1, 1, 1, 1], [1, 0, 2, 1])):
        out = (height + pads[0] + pads[2] - 3) // strides[0] + 1
        extras.add(height + pads[0] + pads[2] - 3 - strides[0] * (out - 1))
    assert extras == {0, 1}


X4 = np.zeros((1, 3, 4, 4))
W4 = np.zeros((3, 2, 3, 3))
CT = {"kernel_shape": [3, 3]}
WC = np.zeros((2, 3, 2, 2))
K2 = {"kernel_shape": [2, 2]}


@pytest.mark.parametrize("op, inputs, attrs", [
    ("Pad", [X4], {"pads": [1, 1]}),
    ("Pad", [X4], {"pads": [0, 0, -1, 0, 0, 0, 0, 0]}),
    ("Pad", [X4], {"pads": [0] * 8, "mode": "reflect"}),
    ("ConvTranspose", [X4, W4], {**CT, "group": 3}),
    ("ConvTranspose", [X4, np.zeros((2, 3, 3, 3))], CT),
    ("ConvTranspose", [X4, W4], {**CT, "pads": [1, 1]}),
    ("ConvTranspose", [X4, W4], {**CT, "strides": [2]}),
    ("ConvTranspose", [X4, W4], {**CT, "output_padding": [0]}),
    ("ConvTranspose", [X4, W4], {"kernel_shape": [2, 2]}),
    ("ConvTranspose", [X4, W4], {**CT, "strides": [2, 2],
                                 "output_padding": [2, 0]}),
    ("ConvTranspose", [X4, W4], {**CT, "strides": [0, 1]}),
    ("ConvTranspose", [X4, W4], {**CT, "pads": [5, 0, 5, 0]}),
    ("ConvTranspose", [np.zeros((3, 4, 4)), W4], CT),
    ("ConvTranspose", [X4, np.zeros((3, 2, 0, 3))], {"kernel_shape": [0, 3]}),
    ("Conv", [X4, WC], {**K2, "strides": [0, 0]}),
    ("Conv", [X4, WC], {**K2, "pads": [-1, 0, 0, 0]}),
    ("Conv", [X4, WC], {**K2, "dilations": [0, 1]}),
    ("Conv", [X4, WC], {"kernel_shape": [2, 1]}),
    ("Conv", [X4, np.zeros((2, 3, 0, 2))], {"kernel_shape": [0, 2]}),
    ("MaxPool", [X4], {"kernel_shape": [0, 2]}),
    ("MaxPool", [X4], {**K2, "strides": [1, -1]}),
    ("MaxPool", [X4], {**K2, "dilations": [0, 1]}),
    ("MaxPool", [X4], {**K2, "pads": [0, 0, 0, -1]}),
    ("AveragePool", [X4], {**K2, "strides": [0, 0]}),
    ("AveragePool", [X4], {**K2, "pads": [-1, 0, 0, 0]}),
    ("Softmax", [np.zeros((2, 3))], {"axis": 5}),
    ("ReduceSum", [np.zeros((2, 3))], {"axes": [0, 2]}),
    ("ReduceSum", [np.zeros((2, 3))], {"axes": [1, 1]}),
    ("Tile", [np.zeros((2, 3))], {"repeats": [-1, 1]}),
    ("AveragePool", [X4], {**K2, "count_include_pad": 1}),
    ("AveragePool", [X4], {**K2, "dilations": [2, 1]}),
    ("BatchNormalization", [X4] + [np.ones(2)] * 4, {}),
    ("Gemm", [np.zeros((2, 3)), np.zeros((3, 4)), np.zeros(3)], {}),
    ("Constant", [], {"dtype": "float64", "shape": [2, 2], "value": [1.0] * 3}),
    ("Conv", [X4, WC, np.zeros(3)], K2),
    ("ConvTranspose", [X4, W4], {**CT, "dilations": [2, 2]}),
    ("BatchNormalization", [X4] + [np.ones(3)] * 3, {}),
    ("GlobalMaxPool", [np.zeros((1, 3, 0, 4))], {}),
    ("Reshape", [np.zeros((2, 6))], {"shape": [-2, -6]}),
])
def test_malformed_attributes_raise_typed_errors(op, inputs, attrs):
    with pytest.raises(TYPED):
        run_kernel(op, inputs, attrs)
    with pytest.raises(TYPED):
        resolve_node(node_for(op, inputs, attrs), [x.shape for x in inputs])[0]


def test_compile_refuses_a_zero_conv_stride():
    entry = next(e for e in corpus.build_corpus(seed=0) if e.name == "residual_add")
    conv = next(n for n in entry.model.nodes if n.op_type == "Conv")
    conv.attributes["strides"] = [0, 0]
    with pytest.raises(ShapeError, match=conv.name):
        gl.compile_explainer(entry.model, entry.references)


@pytest.mark.parametrize("op, attrs", [
    ("Pad", {}),
    ("Pad", {"pads": [0.5, 0, 0, 0]}),
    ("ConvTranspose", {"strides": [1, 1]}),
    ("ConvTranspose", {"kernel_shape": [1, 1], "dilations": [1, 1]}),
])
def test_missing_or_mistyped_attributes_fail_validation(op, attrs):
    inputs = ["x", "w"] if op == "ConvTranspose" else ["x"]
    model = GraphModel("m", [ValueSpec(n, "float64", (-1, 1, 2, 2)) for n in inputs],
                       [ValueSpec("y", "float64", (-1, 1, 2, 2))], {},
                       [Node(op, "n", inputs, ["y"], attrs)])
    with pytest.raises(ValidationError):
        validate_model(model)


def test_batch_extent_passes_through_pad_and_conv_transpose():
    x = (7, 3, 4, 4)
    pad = node_for("Pad", [X4], {"pads": [0, 0, 1, 1, 0, 0, 1, 1]})
    assert resolve_node(pad, [x])[0] == [(7, 3, 6, 6)]
    ct = node_for("ConvTranspose", [X4, W4], CT)
    assert resolve_node(ct, [x, W4.shape])[0] == [(7, 2, 6, 6)]
    # the batch axis is padded like any other
    pad = node_for("Pad", [X4], {"pads": [1] + [0] * 7})
    assert resolve_node(pad, [x])[0] == [(8, 3, 4, 4)]
