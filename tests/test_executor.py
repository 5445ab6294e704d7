"""Kernel semantics of the reference interpreter."""

import functools
import re
import tracemalloc
import warnings

import numpy as np
import pytest

import graphlift as gl
from graphlift import (ExecutionPlan, GraphModel, Node, NumericError,
                       ShapeError, TensorValue, ValidationError, ValueSpec)
from graphlift import executor
from graphlift.executor import eval_node, execute, run_kernel
from graphlift.shapes import resolve_node


def kernel(op, arrays, attrs=None, n_outputs=1):
    out = run_kernel(op, list(arrays), attrs, n_outputs)
    return out[0] if n_outputs == 1 else out


RNG = np.random.default_rng(5)


def test_matmul_gemm_against_numpy():
    a = RNG.normal(size=(2, 3))
    w = RNG.normal(size=(3, 4))
    assert np.allclose(kernel("MatMul", [a, w]), a @ w)
    c = RNG.normal(size=(4,))
    got = kernel("Gemm", [a, w.T.copy(), c],
                 {"alpha": 0.5, "beta": 2.0, "transB": 1})
    assert np.allclose(got, 0.5 * (a @ w) + 2.0 * c)


def ref_window(x, kernel, strides, pads, fill):
    """(B, C, Ho, Wo, kh, kw) windows of x framed by ``fill``, by plain loops."""
    padded = np.pad(x, ((0, 0), (0, 0), (pads[0], pads[2]), (pads[1], pads[3])),
                    constant_values=fill)
    ho, wo = [(padded.shape[2 + a] - kernel[a]) // strides[a] + 1 for a in range(2)]
    out = np.empty(x.shape[:2] + (ho, wo) + tuple(kernel), dtype=x.dtype)
    for i in range(ho):
        for j in range(wo):
            for u in range(kernel[0]):
                for v in range(kernel[1]):
                    out[:, :, i, j, u, v] = padded[:, :, i * strides[0] + u,
                                                   j * strides[1] + v]
    return out


def chunk_step(x_shape, kernel, strides, pads, itemsize):
    """Images per chunk of ``executor._conv`` on inputs of ``x_shape``: as
    many (C·kh·kw, N) window matrices as fit its budget, where N is
    (Ho-1)·Wp + Wo at unit stride and Ho·Wo otherwise."""
    hp, wp = x_shape[2] + pads[0] + pads[2], x_shape[3] + pads[1] + pads[3]
    ho, wo = [(e - k) // s + 1 for e, k, s in zip((hp, wp), kernel, strides)]
    n = (ho - 1) * wp + wo if list(strides) == [1, 1] else ho * wo
    return max(1, executor._CHUNK_BYTES
               // (x_shape[1] * kernel[0] * kernel[1] * n * itemsize))


def chunk_batches(step):
    """Batch sizes on either side of the first two chunk boundaries."""
    return sorted({1, max(step - 1, 1), step, step + 1, 2 * step + 1})


def assert_rows_run_alone(op, x, rest, attrs, got):
    """Every row of ``got`` is bit-identical to its image run alone, so
    where the chunks split a batch never changes a result."""
    for i in range(len(x)):
        alone = kernel(op, [x[i:i + 1]] + rest, attrs)
        assert alone.tobytes() == got[i:i + 1].tobytes(), i


# (strides, pads, kernel, contiguous input): unit stride reads the framed
# image flat, other strides copy the window view; pads are asymmetric
CONV_CASES = [([2, 2], [1, 1, 1, 1], [3, 3], True),
              ([2, 2], [2, 0, 1, 1], [3, 2], True),
              # 1x1 taps at unit stride: the window matrix is the frame itself
              ([1, 1], [1, 0, 2, 1], [1, 1], True),
              # unpadded, so the kernel gets the non-contiguous input unframed
              ([1, 1], [0, 0, 0, 0], [3, 3], False),
              ([1, 2], [1, 1, 0, 2], [3, 3], True),
              ([2, 1], [0, 2, 1, 0], [2, 3], False)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("strides, pads, kernel_shape, contiguous", CONV_CASES)
def test_conv_matches_direct_loop(strides, pads, kernel_shape, contiguous, dtype):
    atol = 1e-12 if dtype == np.float64 else 1e-5
    attrs = {"kernel_shape": kernel_shape, "strides": strides, "pads": pads}
    w = RNG.normal(size=(4, 3, *kernel_shape)).astype(dtype)
    b = RNG.normal(size=(4,)).astype(dtype)
    step = chunk_step((1, 3, 20, 19), kernel_shape, strides, pads,
                      np.dtype(dtype).itemsize)
    for batch in chunk_batches(step):
        x = RNG.normal(size=(batch, 20, 3, 19)).astype(dtype).transpose(0, 2, 1, 3)
        if contiguous:
            x = np.ascontiguousarray(x)
        got = kernel("Conv", [x, w, b], attrs)
        windows = ref_window(x, kernel_shape, strides, pads, 0.0)
        want = np.einsum("bchwuv,ocuv->bohw", windows.astype(np.float64),
                         w.astype(np.float64)) + b.reshape(1, -1, 1, 1)
        assert got.dtype == dtype and got.flags.c_contiguous
        assert got.shape == want.shape
        assert np.allclose(got, want, rtol=0, atol=atol)
    assert_rows_run_alone("Conv", x, [w, b], attrs, got)


EMPTY_BATCH_CASES = [
    ("Conv", (4, 3, 3, 3), {"kernel_shape": [3, 3], "pads": [1, 1, 1, 1]}),
    ("Conv", (4, 3, 3, 3), {"kernel_shape": [3, 3], "strides": [2, 2]}),
    ("ConvTranspose", (3, 4, 3, 3), {"kernel_shape": [3, 3],
                                     "pads": [1, 1, 1, 1]}),
    ("ConvTranspose", (3, 4, 3, 3), {"kernel_shape": [3, 3], "strides": [2, 2],
                                     "pads": [1, 1, 1, 1],
                                     "output_padding": [1, 1]})]


@pytest.mark.parametrize("op, w_shape, attrs", EMPTY_BATCH_CASES)
def test_conv_of_an_empty_batch_has_the_laws_empty_shape(op, w_shape, attrs):
    x, w, b = np.ones((0, 3, 5, 5)), RNG.normal(size=w_shape), np.ones(4)
    node = Node(op, "n", ["x", "w", "b"], ["y"], attrs)
    (shape,), _ = resolve_node(node, [x.shape, w.shape, b.shape])
    assert shape[0] == 0
    got = kernel(op, [x, w, b], attrs)
    assert got.shape == shape and got.dtype == x.dtype
    # a free-batch model fed zero rows
    plan = ExecutionPlan(GraphModel(
        "e", [ValueSpec("x", "float64", (-1, 3, 5, 5))],
        [ValueSpec("y", "float64", (-1,) + shape[1:])],
        {"w": TensorValue(w), "b": TensorValue(b)}, [node]))
    assert execute(plan, {"x": x})[0]["y"].shape == shape


def workspace_peak(op, x, w, attrs):
    """The output and the peak of ``tracemalloc`` over one kernel call."""
    tracemalloc.start()
    try:
        out = kernel(op, [x, w], attrs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


def test_conv_transpose_workspace_is_bounded_by_the_chunk_budget():
    # the whole batch's window matrix would be 9 times the input, and a
    # framed copy of the whole batch 1.27 times
    x = RNG.normal(size=(64, 8, 16, 16))
    w = RNG.normal(size=(8, 8, 3, 3))
    out, peak = workspace_peak("ConvTranspose", x, w,
                               {"kernel_shape": [3, 3], "pads": [1, 1, 1, 1]})
    assert peak < out.nbytes + 2 * executor._CHUNK_BYTES, peak


def test_padded_strided_conv_workspace_is_bounded_by_the_chunk_budget():
    x = RNG.normal(size=(64, 8, 16, 16))
    w = RNG.normal(size=(8, 8, 3, 3))
    out, peak = workspace_peak("Conv", x, w, {"kernel_shape": [3, 3],
                                              "strides": [2, 2],
                                              "pads": [1, 2, 2, 1]})
    assert peak < out.nbytes + 2 * executor._CHUNK_BYTES, peak


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_padded_max_pool_never_picks_the_frame(dtype):
    # every value is negative, so a frame of zeros would win at the borders
    x = -1.0 - RNG.random(size=(2, 3, 6, 5)).astype(dtype)
    attrs = {"kernel_shape": [3, 2], "strides": [2, 1], "pads": [1, 1, 1, 0]}
    got = kernel("MaxPool", [x], attrs)
    want = ref_window(x, [3, 2], [2, 1], [1, 1, 1, 0], -np.inf).max(axis=(4, 5))
    assert got.dtype == dtype
    assert np.array_equal(got, want)
    assert (got < 0).all()


def test_pool_kernels():
    x = RNG.normal(size=(1, 2, 4, 4))
    got = kernel("MaxPool", [x], {"kernel_shape": [2, 2], "strides": [2, 2],
                                  "pads": [0, 0, 0, 0]})
    want = x.reshape(1, 2, 2, 2, 2, 2).max(axis=(3, 5))
    assert np.allclose(got, want)
    got = kernel("AveragePool", [x], {"kernel_shape": [2, 2],
                                      "strides": [2, 2],
                                      "pads": [0, 0, 0, 0]})
    want = x.reshape(1, 2, 2, 2, 2, 2).mean(axis=(3, 5))
    assert np.allclose(got, want)
    assert np.allclose(kernel("GlobalMaxPool", [x]),
                       x.max(axis=(2, 3), keepdims=True))
    assert np.allclose(kernel("GlobalAveragePool", [x]),
                       x.mean(axis=(2, 3), keepdims=True))
    # unpadded, so the pools get the non-contiguous input unframed
    x = RNG.normal(size=(2, 6, 3, 5)).transpose(0, 2, 1, 3)
    assert not x.flags.c_contiguous
    attrs = {"kernel_shape": [3, 2], "strides": [2, 1]}
    windows = ref_window(x, [3, 2], [2, 1], [0, 0, 0, 0], 0.0)
    assert np.array_equal(kernel("MaxPool", [x], attrs), windows.max(axis=(4, 5)))
    assert np.allclose(kernel("AveragePool", [x], attrs),
                       windows.mean(axis=(4, 5)), rtol=0, atol=1e-12)


def max_pool_by_view_max(x, kernel, strides, pads):
    """The former MaxPool kernel: one reduction over the 6-D window view."""
    framed = executor._framed(x, pads, np.finfo(x.dtype).min)
    return executor._window_views(framed, kernel, strides).max(axis=(2, 3))


def pool_geometries():
    """Window geometries the law accepts on a 7x8 image: strides and
    asymmetric pads."""
    geometries = []
    for kernel in ([1, 1], [2, 2], [3, 2], [1, 3], [3, 3]):
        for strides in ([1, 1], [2, 2], [2, 1], [1, 3]):
            for pads in ([0, 0, 0, 0], [1, 1, 1, 1], [2, 0, 1, 1], [0, 1, 2, 0]):
                node = Node("MaxPool", "p", ["x"], ["y"], {
                    "kernel_shape": kernel, "strides": strides, "pads": pads})
                try:
                    resolve_node(node, [(2, 3, 7, 8)])
                except ShapeError:
                    continue
                geometries.append((kernel, strides, pads))
    return geometries


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_max_pool_tap_loop_is_the_view_max_bit_for_bit(dtype):
    # signed zeros tie, infinities and NaN must propagate as before
    values = np.array([0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan], dtype)
    rng = np.random.default_rng(11)
    geometries = pool_geometries()
    assert len(geometries) >= 50
    for kernel_, strides, pads in geometries:
        x = rng.choice(values, size=(2, 3, 7, 8))
        got = kernel("MaxPool", [x], {"kernel_shape": kernel_, "strides": strides,
                                      "pads": pads})
        want = max_pool_by_view_max(x, kernel_, strides, pads)
        assert got.dtype == dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), (kernel_, strides, pads)


def test_average_pool_ignores_padding_in_divisor():
    x = np.ones((1, 1, 2, 2))
    got = kernel("AveragePool", [x], {"kernel_shape": [2, 2],
                                      "strides": [2, 2],
                                      "pads": [1, 1, 1, 1],
                                      "count_include_pad": 0})
    # every window holds exactly one real pixel
    assert np.allclose(got, np.ones((1, 1, 2, 2)))


def test_activation_kernels():
    x = RNG.normal(size=(3, 4))
    assert np.allclose(kernel("Relu", [x]), np.maximum(x, 0))
    assert np.allclose(kernel("Sigmoid", [x]), 1 / (1 + np.exp(-x)))
    assert np.allclose(kernel("Tanh", [x]), np.tanh(x))
    assert np.allclose(kernel("Exp", [x]), np.exp(x))
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    assert np.allclose(kernel("Softmax", [x], {"axis": -1}),
                       e / e.sum(axis=-1, keepdims=True))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_run_kernel_runs_a_kernel_under_the_execute_error_state(dtype):
    # the Softmax shift -max - max overflows to -inf, whose weight is an
    # exact 0; run_kernel, not the kernel, silences the warning
    big = np.finfo(dtype).max
    x = np.array([[big, -big]], dtype)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = kernel("Softmax", [x], {"axis": -1})
    assert got.tobytes() == np.array([[1.0, 0.0]], dtype).tobytes()
    assert np.geterr()["over"] == "warn"


def sigmoid_by_masks(x):
    """The former Sigmoid kernel: each sign's branch through a boolean mask."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_is_the_masked_form_bit_for_bit(dtype):
    info = np.finfo(dtype)
    # exp overflows just above log(max) and underflows to 0 far below it
    limit = np.log(info.max)
    edges = np.array([np.inf, -np.inf, np.nan, 0.0, -0.0, 1.0, -1.0, 1000.0,
                      -1000.0, limit, -limit, np.nextafter(limit, np.inf),
                      -np.nextafter(limit, np.inf), info.tiny, -info.tiny,
                      info.smallest_subnormal, -info.smallest_subnormal,
                      info.max, -info.max], dtype)
    rng = np.random.default_rng(12)
    cases = [edges, rng.normal(0.0, 8.0, size=(3, 4, 5, 6)).astype(dtype),
             rng.normal(size=(4, 6)).astype(dtype).T, np.asarray(dtype(-2.5))]
    for x in cases:
        want = sigmoid_by_masks(x)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = kernel("Sigmoid", [x])
        assert isinstance(got, np.ndarray)
        assert got.dtype == dtype and got.shape == x.shape
        # a NaN's sign bit is not kept: no NaN gets past the guard
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        assert got[~nan].tobytes() == want[~nan].tobytes()


def test_batchnorm_kernel():
    x = RNG.normal(size=(2, 3, 2, 2))
    scale, shift = RNG.normal(size=(3,)), RNG.normal(size=(3,))
    mean, var = RNG.normal(size=(3,)), RNG.uniform(0.5, 2.0, size=(3,))
    got = kernel("BatchNormalization", [x, scale, shift, mean, var],
                 {"epsilon": 1e-5})
    r = lambda v: v.reshape(1, 3, 1, 1)
    want = r(scale) * (x - r(mean)) / np.sqrt(r(var) + 1e-5) + r(shift)
    assert np.allclose(got, want)


@pytest.mark.parametrize("shape", [(4, 3, 5, 5), (6, 3)])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_batchnorm_is_the_chained_form_bit_for_bit(dtype, shape):
    # the kernel adds in place of the chained x * k + c temporary; the two
    # roundings are the same, so are the bits
    rng = np.random.default_rng(21)
    x = rng.normal(size=shape).astype(dtype)
    scale, shift, mean = (rng.normal(size=3).astype(dtype) for _ in range(3))
    var = rng.uniform(0.5, 2.0, size=3).astype(dtype)
    got = kernel("BatchNormalization", [x, scale, shift, mean, var],
                 {"epsilon": 1e-5})
    r = lambda v: v.reshape((1, 3) + (1,) * (len(shape) - 2))
    k = r(scale) / np.sqrt(r(var) + 1e-5)
    want = x * k + (r(shift) - r(mean) * k)
    assert got.dtype == dtype and got.shape == shape
    assert got.tobytes() == want.tobytes()


def test_movement_and_selection_kernels():
    x = RNG.normal(size=(2, 6))
    assert np.allclose(kernel("Reshape", [x], {"shape": [3, 4]}),
                       x.reshape(3, 4))
    assert np.allclose(kernel("Reshape", [x], {"shape": [-1, 4]}),
                       x.reshape(3, 4))
    assert np.allclose(kernel("Flatten", [x.reshape(2, 3, 2)], {"axis": 1}),
                       x.reshape(2, 6))
    assert np.allclose(kernel("Transpose", [x], {"perm": [1, 0]}), x.T)
    assert np.allclose(kernel("Tile", [x], {"repeats": [2, 1]}),
                       np.tile(x, (2, 1)))
    lo, hi = kernel("Split", [x], {"axis": 1, "split": [2, 4]}, n_outputs=2)
    assert np.allclose(lo, x[:, :2]) and np.allclose(hi, x[:, 2:])
    assert np.allclose(kernel("Concat", [x, x], {"axis": 0}),
                       np.concatenate([x, x]))
    y = RNG.normal(size=(2, 6))
    mask = kernel("Greater", [x, y])
    assert mask.dtype == bool and np.array_equal(mask, x > y)
    assert np.allclose(kernel("Where", [mask, x, y]), np.where(x > y, x, y))


def test_where_reads_a_non_bool_condition_as_non_zero():
    cond = np.array([[0.0], [np.nan]])   # NaN is non-zero, so True
    a, b = np.ones((1, 3)), RNG.normal(size=(2, 3))
    got = kernel("Where", [cond, a, b])
    assert got.tobytes() == np.where(cond != 0, a, b).tobytes()
    assert (got[1] == 1).all() and (got[0] == b[0]).all()


def test_reduce_and_constant_kernels():
    x = RNG.normal(size=(2, 3, 4))
    assert np.allclose(kernel("ReduceSum", [x], {"axes": [1], "keepdims": 1}),
                       x.sum(axis=1, keepdims=True))
    assert np.allclose(kernel("ReduceMean", [x], {"axes": [2], "keepdims": 0}),
                       x.mean(axis=2))
    c = kernel("Constant", [], {"dtype": "float64", "shape": [2, 2],
                                "value": [1.0, 2.0, 3.0, 4.0]})
    assert c.dtype == np.float64
    assert np.array_equal(c, [[1.0, 2.0], [3.0, 4.0]])


def reduction_inputs(dtype):
    """A (4, 3, 6, 5) input of ``dtype``, contiguous and as a strided view."""
    x = RNG.normal(size=(4, 3, 6, 5)).astype(dtype)
    strided = RNG.normal(size=(8, 3, 12, 5)).astype(dtype)[::2, :, ::-2]
    assert not strided.flags.c_contiguous
    return {"contiguous": x, "strided": strided}


def same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return (got.dtype == want.dtype and got.shape == want.shape
            and got.tobytes() == want.tobytes())


@pytest.mark.parametrize("layout", ["contiguous", "strided"])
@pytest.mark.parametrize("keepdims", [0, 1])
@pytest.mark.parametrize("axes", [(0,), (1,), (2, 3), (1, 2, 3), (0, 1, 2, 3)])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_reduce_kernels_give_numpys_bits(dtype, axes, keepdims, layout):
    """The reduces call their ufunc directly and a mean divides in place by
    its element count; the bits are numpy's own, the 0-d result of reducing
    every axis included."""
    x = reduction_inputs(dtype)[layout]
    attrs = {"axes": list(axes), "keepdims": keepdims}
    keep = bool(keepdims)
    assert same_bits(kernel("ReduceSum", [x], attrs),
                     np.sum(x, axis=axes, keepdims=keep))
    assert same_bits(kernel("ReduceMean", [x], attrs),
                     np.mean(x, axis=axes, keepdims=keep))


@pytest.mark.parametrize("layout", ["contiguous", "strided"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_pool_and_softmax_reductions_give_numpys_bits(dtype, layout):
    x = reduction_inputs(dtype)[layout]
    assert same_bits(kernel("GlobalAveragePool", [x]),
                     x.mean(axis=(2, 3), keepdims=True))
    assert same_bits(kernel("GlobalMaxPool", [x]),
                     x.max(axis=(2, 3), keepdims=True))
    ex = np.exp(x - x.max(axis=-1, keepdims=True))
    for axis in (3, -1):
        assert same_bits(kernel("Softmax", [x], {"axis": axis}),
                         ex / ex.sum(axis=-1, keepdims=True))
    attrs = {"kernel_shape": [2, 2], "strides": [2, 1], "pads": [0, 1, 1, 0]}
    _, (kernel_shape, strides, pads, count) = resolve_node(
        Node("AveragePool", "p", ["x"], ["y"], attrs), [x.shape])
    total = executor._window_views(executor._framed(x, pads), kernel_shape,
                                   strides).sum(axis=(2, 3))
    assert same_bits(kernel("AveragePool", [x], attrs),
                     np.divide(total, count, dtype=x.dtype))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gemm_of_unit_scales_skips_nothing_but_the_multiplies(dtype):
    a = RNG.normal(size=(3, 4)).astype(dtype)
    w = RNG.normal(size=(5, 4)).astype(dtype)
    c = RNG.normal(size=(5,)).astype(dtype)
    got = kernel("Gemm", [a, w, c], {"transB": 1})
    assert same_bits(got, 1.0 * (a @ w.T) + 1.0 * c)
    got = kernel("Gemm", [a, w, c], {"transB": 1, "alpha": 0.5, "beta": 1.0})
    assert same_bits(got, 0.5 * (a @ w.T) + c)
    got = kernel("Gemm", [a, w.T.copy()], {"alpha": 1.0, "beta": 3.0})
    assert same_bits(got, a @ w.T)


def small_model():
    w = TensorValue(RNG.normal(size=(3, 2)).astype(np.float32))
    return GraphModel("m", [ValueSpec("x", "float32", (-1, 3))],
                      [ValueSpec("y", "float32", (-1, 2))], {"w": w},
                      [Node("MatMul", "mm", ["x", "w"], ["h"]),
                       Node("Relu", "act", ["h"], ["y"])])


def test_execute_returns_declared_outputs_only():
    model = small_model()
    x = RNG.normal(size=(4, 3)).astype(np.float32)
    outs, values = execute(model, {"x": x})
    assert set(outs) == {"y"} and values is None
    outs, values = execute(model, {"x": x}, capture=True)
    assert {"x", "w", "h", "y"} <= set(values)


def test_execute_rejects_missing_and_misshaped_feeds():
    model = small_model()
    with pytest.raises(ShapeError):
        execute(model, {})
    with pytest.raises(ShapeError):
        execute(model, {"x": np.zeros((2, 5), dtype=np.float32)})


@pytest.mark.parametrize("feed, error, match", [
    (None, ValidationError, "feed must map"),
    ([np.ones((1, 2))], ValidationError, "feed must map"),
    ({"x": [[1.0], [2.0, 3.0]]}, ValidationError, "input 'x' is not a numeric"),
    ({"x": [["a", "b"]]}, ShapeError, "input 'x' has dtype"),
])
def test_execute_refuses_a_feed_of_no_arrays_with_a_typed_error(feed, error, match):
    with pytest.raises(error, match=match):
        execute(chain_model([Node("Relu", "r", ["x"], ["y"])]), feed)


def test_an_unvalidated_misspelled_or_undeclared_attribute_is_refused():
    x = np.arange(25.0).reshape(1, 1, 5, 5)
    conv = GraphModel("c", [ValueSpec("x", "float64", (-1, 1, 5, 5))],
                      [ValueSpec("y", "float64", (-1, 1, 2, 2))],
                      {"w": TensorValue(np.ones((1, 1, 3, 3)))},
                      [Node("Conv", "typo", ["x", "w"], ["y"],
                            {"kernel_shape": [3, 3], "stride": [2, 2]})])
    with pytest.raises(ValidationError, match="'typo'.*'stride'"):
        execute(conv, {"x": x})
    pool = GraphModel("p", [ValueSpec("x", "float64", (-1, 1, 5, 5))],
                      [ValueSpec("y", "float64", (-1, 1, 3, 3))], {},
                      [Node("MaxPool", "dilated", ["x"], ["y"],
                            {"kernel_shape": [2, 2], "dilations": [2, 2]})])
    with pytest.raises(ValidationError, match="'dilated'.*'dilations'"):
        execute(pool, {"x": x})


def test_split_into_no_outputs_is_refused():
    with pytest.raises(ValidationError, match="'anon'.*one or more outputs, got 0"):
        run_kernel("Split", [np.ones((4, 2))], {"axis": 0}, n_outputs=0)


def test_numeric_check_flags_non_finite():
    model = GraphModel("d", [ValueSpec("x", "float64", (-1, 2))],
                       [ValueSpec("y", "float64", (-1, 2))],
                       {"z": TensorValue(np.zeros((1, 2)))},
                       [Node("Div", "dv", ["x", "z"], ["y"])])
    with np.errstate(divide="ignore"), pytest.raises(NumericError, match="'dv'"):
        execute(model, {"x": np.ones((1, 2))})
    plan = ExecutionPlan(model)
    with np.errstate(divide="ignore"), pytest.raises(NumericError, match="'dv'"):
        execute(plan, {"x": np.ones((1, 2))})


def test_numeric_check_flags_non_finite_constant():
    # a Constant's value must be finite, so the plan's one-time constant
    # step is what overflows
    model = GraphModel("c", [ValueSpec("x", "float64", (-1, 2))],
                       [ValueSpec("y", "float64", (-1, 2))], {},
                       [Node("Constant", "k0", [], ["k0"],
                             {"dtype": "float64", "shape": [1, 2],
                              "value": [1.0, 1000.0]}),
                        Node("Exp", "big", ["k0"], ["k"]),
                        Node("Mul", "scale", ["x", "k"], ["y"])])
    plan = ExecutionPlan(model)
    with pytest.raises(NumericError, match="'big'"):
        execute(plan, {"x": np.ones((1, 2))})


@pytest.mark.parametrize("name", ["plain_deep", "dense_concat"])
def test_plan_matches_per_call_planning_bit_for_bit(artifacts, name):
    model = artifacts(name, "float64").model
    feed = {model.inputs[0].name:
            gl.random_inputs(model, 1, seed=3)[0].astype(np.float64)}
    plan = ExecutionPlan(model)
    want, _ = execute(model, feed)
    for _ in range(2):
        got, _ = execute(plan, feed)
        assert got.keys() == want.keys()
        assert all(got[k].tobytes() == want[k].tobytes() for k in want)
    outs, trace = execute(plan, feed, capture=True)
    names = ({s.name for s in model.inputs} | set(model.initializers)
             | {o for n in model.nodes for o in n.outputs})
    assert set(trace) == names
    assert all(trace[k].tobytes() == want[k].tobytes() for k in want)
    # capturing through a plan and through the model agree
    again = execute(model, feed, capture=True)[1]
    assert all(np.array_equal(trace[k], again[k]) for k in names)


def test_plan_frees_each_intermediate_after_its_last_reader(artifacts):
    plan = ExecutionPlan(artifacts("residual_add", "float64").model)
    outputs = {slot for _, slot in plan.outputs}
    produced = {s for _, _, outs, _ in plan.steps for s in outs}
    freed_at = {}
    for k, (_, _, _, frees) in enumerate(plan.steps):
        for slot in frees:
            assert slot not in freed_at, "freed twice"
            freed_at[slot] = k
    assert produced - outputs <= set(freed_at)
    assert not outputs & set(freed_at)
    for k, (_, ins, _, _) in enumerate(plan.steps):
        assert all(freed_at.get(s, k) >= k for s in ins), "read after free"


def test_graph_output_read_downstream_is_kept():
    model = GraphModel("o", [ValueSpec("x", "float64", (-1, 2))],
                       [ValueSpec("h", "float64", (-1, 2)),
                        ValueSpec("y", "float64", (-1, 2))], {},
                       [Node("Relu", "r", ["x"], ["h"]),
                        Node("Tanh", "t", ["h"], ["y"]),
                        Node("Exp", "unused", ["h"], ["z"])])
    x = np.array([[-1.0, 2.0]])
    outs, _ = execute(ExecutionPlan(model), {"x": x})
    assert np.array_equal(outs["h"], [[0.0, 2.0]])
    assert np.array_equal(outs["y"], np.tanh([[0.0, 2.0]]))


def test_constants_are_materialized_once_and_read_only():
    model = GraphModel("k", [ValueSpec("x", "float64", (-1, 2))],
                       [ValueSpec("k", "float64", (1, 2)),
                        ValueSpec("y", "float64", (-1, 2))], {},
                       [Node("Constant", "c", [], ["k"],
                             {"dtype": "float64", "shape": [1, 2],
                              "value": [2.0, 3.0]}),
                        Node("Mul", "m", ["x", "k"], ["y"])])
    plan = ExecutionPlan(model)
    first, _ = execute(plan, {"x": np.ones((1, 2))})
    second, _ = execute(plan, {"x": np.ones((1, 2))})
    assert first["k"] is second["k"]
    assert not first["k"].flags.writeable
    assert [node.name for node, _, _, _ in plan.steps] == ["m"]


def test_a_step_over_constants_runs_once_when_the_plan_is_built(monkeypatch):
    # a Constant is the no-input case: every step whose inputs are all
    # initializers or earlier constant outputs runs once, not per explain
    rng = np.random.default_rng(0)
    w = TensorValue(rng.normal(size=(2, 3)))
    model = GraphModel("c", [ValueSpec("x", "float64", (-1, 3))],
                       [ValueSpec("y", "float64", (-1, 2))], {"w": w},
                       [Node("Transpose", "t", ["w"], ["wt"], {"perm": [1, 0]}),
                        Node("Tanh", "squash", ["wt"], ["ws"]),
                        Node("Constant", "c", [], ["k"],
                             {"dtype": "float64", "shape": [], "value": [2.0]}),
                        Node("MatMul", "mm", ["x", "ws"], ["h"]),
                        Node("Mul", "scale", ["h", "k"], ["y"])])
    calls = []
    kernel = executor.eval_node

    def counted(node, inputs, params):
        calls.append(node.name)
        return kernel(node, inputs, params)

    monkeypatch.setattr(executor, "eval_node", counted)
    plan = ExecutionPlan(model)
    assert calls == ["t", "squash", "c"]
    assert [node.name for node, *_ in plan.steps] == ["mm", "scale"]
    x = rng.normal(size=(1, 3))
    for _ in range(5):
        outs, _ = execute(plan, {"x": x})
    assert calls == ["t", "squash", "c"] + ["mm", "scale"] * 5
    # the Transpose kernel makes its output contiguous, so the MatMul reads
    # the same layout, and the same bits, as this one
    ws = np.tanh(np.ascontiguousarray(w.array.T))
    assert np.array_equal(outs["y"], (x @ ws) * 2.0)
    assert not plan.template[plan.slots["ws"]].flags.writeable


def test_a_constant_that_no_step_reads_is_dropped_and_captured_as_none():
    # once the constant steps have run, the plan keeps only the constants
    # a step reads or an output names; a capture maps the others to None
    rng = np.random.default_rng(1)
    w = TensorValue(rng.normal(size=(2, 3)))
    model = GraphModel("c", [ValueSpec("x", "float64", (-1, 3))],
                       [ValueSpec("y", "float64", (-1, 2)),
                        ValueSpec("wt", "float64", (3, 2))], {"w": w},
                       [Node("Transpose", "t", ["w"], ["wt"], {"perm": [1, 0]}),
                        Node("Tanh", "squash", ["wt"], ["ws"]),
                        Node("MatMul", "mm", ["x", "ws"], ["y"])])
    plan = ExecutionPlan(model)
    held = {name for name, slot in plan.slots.items()
            if plan.template[slot] is not None}
    assert held == {"ws", "wt"}
    x = rng.normal(size=(1, 3))
    outs, trace = execute(plan, {"x": x}, capture=True)
    assert trace["w"] is None
    assert trace["ws"] is plan.template[plan.slots["ws"]]
    assert outs["wt"].tobytes() == np.ascontiguousarray(w.array.T).tobytes()
    assert np.array_equal(outs["y"], x @ np.tanh(w.array.T))


def test_an_artifact_runs_its_constant_nodes_once(artifacts, monkeypatch):
    built = artifacts("plain_deep", "float32")
    art = gl.ExplainerArtifact(model=built.model, metadata=built.metadata)
    calls = {}
    kernel = executor.eval_node

    def counted(node, inputs, params):
        calls[node.name] = calls.get(node.name, 0) + 1
        return kernel(node, inputs, params)

    monkeypatch.setattr(executor, "eval_node", counted)
    for x in gl.random_inputs(art.model, 4, seed=2):
        gl.explain(art, x)
    steps = {node.name for node, *_ in art.plan.steps}
    assert len(steps) < len(art.model.nodes)
    assert calls == {node.name: 4 if node.name in steps else 1
                     for node in art.model.nodes}


def test_a_non_finite_constant_step_is_named_on_every_explain():
    # exp(100) overflows float32 once, when the plan is built, without a
    # warning; every explain then names the step, as for a Constant
    model = GraphModel("c", [ValueSpec("x", "float32", (-1, 2))],
                       [ValueSpec("y", "float32", (-1, 2))],
                       {"w": TensorValue(np.array([[100.0, 1.0]], np.float32))},
                       [Node("Exp", "grow", ["w"], ["e"]),
                        Node("Add", "shift", ["x", "e"], ["y"])])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        plan = ExecutionPlan(model)
        for _ in range(2):
            with pytest.raises(NumericError, match=named("grow", "e")):
                execute(plan, {"x": np.ones((1, 2), np.float32)})


def test_execute_replans_a_mutated_model():
    model = small_model()
    x = RNG.normal(size=(4, 3)).astype(np.float32)
    before, _ = execute(model, {"x": x})
    model.nodes[1] = Node("Tanh", "act", ["h"], ["y"])
    after, _ = execute(model, {"x": x})
    h = x @ model.initializers["w"].array
    assert np.array_equal(before["y"], np.maximum(h, 0))
    assert np.array_equal(after["y"], np.tanh(h))


def test_explain_is_repeatable_and_survives_save_load(artifacts, tmp_path):
    art = artifacts("plain_deep", "float64")
    x = gl.random_inputs(art.model, 1, seed=8)[0].astype(np.float64)
    first = gl.explain(art, x)
    plan = art.plan
    second = gl.explain(art, x)
    assert art.plan is plan
    assert first.phi.array.tobytes() == second.phi.array.tobytes()
    path = str(tmp_path / "plain_deep.sgm")
    gl.save_artifact(art, path)
    loaded = gl.load_artifact(path)
    assert loaded == art
    assert gl.explain(loaded, x).phi.array.tobytes() == first.phi.array.tobytes()


def count_laws(monkeypatch):
    """Names of the nodes the executor resolves from now on."""
    calls = []
    law = executor.resolve_node

    def counted(node, in_shapes):
        calls.append(node.name)
        return law(node, in_shapes)

    monkeypatch.setattr(executor, "resolve_node", counted)
    return calls


def test_artifact_checks_its_laws_on_the_first_explain_only(artifacts,
                                                            monkeypatch):
    built = artifacts("plain_deep", "float32")
    art = gl.ExplainerArtifact(model=built.model, metadata=built.metadata)
    calls = count_laws(monkeypatch)
    xs = gl.random_inputs(art.model, 2, seed=4)
    gl.explain(art, xs[0])
    assert sorted(calls) == sorted(node.name for node in art.model.nodes)
    gl.explain(art, xs[1])
    assert len(calls) == len(art.model.nodes)


def test_plan_checks_again_when_the_batch_changes(monkeypatch):
    model = GraphModel("b", [ValueSpec("x", "float64", (-1, 2))],
                       [ValueSpec("y", "float64", (-1, 2))],
                       {"w": TensorValue(np.ones((2, 2)))},
                       [Node("Relu", "r", ["x"], ["h"]),
                        Node("Add", "a", ["h", "w"], ["y"])])
    plan = ExecutionPlan(model)
    calls = count_laws(monkeypatch)
    for batch in (2, 2, 1):
        execute(plan, {"x": np.ones((batch, 2))})
    assert calls == ["r", "a", "r", "a"]
    kernels = []
    monkeypatch.setattr(executor, "eval_node",
                        lambda node, inputs, params: kernels.append(node.name))
    # (3, 2) does not broadcast against the (2, 2) weight: refused by the
    # law of 'a' before the kernel of 'r' runs
    with pytest.raises(ShapeError, match="'a'"):
        execute(plan, {"x": np.ones((3, 2))})
    assert calls[4:] == ["r", "a"] and kernels == []


def extremes(dtype, shape, seed):
    """An array of ``shape`` filled with ±finfo.max, ±finfo.tiny, zeros and
    ordinary values in random positions."""
    info = np.finfo(dtype)
    pool = np.array([info.max, -info.max, info.tiny, -info.tiny, 0.0, 1.0,
                     -2.5, 3.0], dtype=dtype)
    return np.random.default_rng(seed).choice(pool, size=shape)


# (op, input shapes, attributes, outputs) for every op the guard may skip
FINITE_CLOSED_CASES = [
    ("Where", [(2, 3, 4, 4), (2, 3, 4, 4), (1, 3, 1, 4)], {}, 1),
    ("Greater", [(2, 3, 4, 4), (2, 3, 4, 4)], {}, 1),
    ("Reshape", [(2, 3, 4, 4)], {"shape": [2, -1]}, 1),
    ("Flatten", [(2, 3, 4, 4)], {"axis": 2}, 1),
    ("Transpose", [(2, 3, 4, 4)], {"perm": [0, 2, 3, 1]}, 1),
    ("Concat", [(2, 3, 4, 4), (2, 1, 4, 4)], {"axis": 1}, 1),
    ("Split", [(2, 3, 4, 4)], {"axis": 1, "split": [1, 2]}, 2),
    ("Abs", [(2, 3, 4, 4)], {}, 1),
    ("Relu", [(2, 3, 4, 4)], {}, 1),
    ("MaxPool", [(2, 3, 4, 4)], {"kernel_shape": [3, 3], "strides": [2, 2],
                                 "pads": [2, 1, 2, 1]}, 1),
    ("GlobalMaxPool", [(2, 3, 4, 4)], {}, 1),
    ("Tile", [(2, 3, 4, 4)], {"repeats": [1, 2, 1, 3]}, 1),
    ("Sigmoid", [(2, 3, 4, 4)], {}, 1),
    ("Tanh", [(2, 3, 4, 4)], {}, 1),
    ("Softmax", [(2, 3, 4, 4)], {"axis": -1}, 1),
    ("Pad", [(2, 3, 4, 4)], {"pads": [0, 0, 1, 2, 0, 1, 0, 1],
                             "value": -3.4e38}, 1),
]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("op, shapes, attrs, n_outputs", FINITE_CLOSED_CASES)
def test_unguarded_ops_keep_finite_inputs_finite(op, shapes, attrs, n_outputs,
                                                 dtype):
    for seed in range(4):
        arrays = [extremes(dtype, shape, seed + k) for k, shape in enumerate(shapes)]
        if op == "Where":
            arrays[0] = arrays[0] > 0
        outs = run_kernel(op, arrays, attrs, n_outputs)
        assert all(np.isfinite(out).all() for out in outs), (op, seed)


def test_guard_skips_exactly_the_finite_closed_ops():
    closed = executor._FINITE_CLOSED
    assert closed <= gl.ir.SUPPORTED_OPS
    assert {case[0] for case in FINITE_CLOSED_CASES} == closed

    def node(op, **attrs):
        return Node(op, "n", ["x"], ["y"], attrs)

    for op in gl.ir.SUPPORTED_OPS:
        assert executor._closed_over_finite(node(op)) == (op in closed), op
    assert executor._closed_over_finite(node("Pad", value=-1e300))
    for value in (np.inf, -np.inf, np.nan):
        assert not executor._closed_over_finite(node("Pad", value=value))


# (op, input shapes, attributes) for every op with a preserving operand slot;
# the broadcast ones read a small operand against a large one both ways
PRESERVING_CASES = [
    ("Add", [(2, 3, 4), (1, 3, 1)], {}),
    ("Sub", [(1, 3, 1), (2, 3, 4)], {}),
    ("Mul", [(2, 3, 4), (2, 1, 4)], {}),
    ("Div", [(2, 1, 4), (2, 3, 4)], {}),
    ("Concat", [(2, 3, 4), (2, 1, 4), (2, 2, 4)], {"axis": 1}),
    ("Reshape", [(2, 3, 4)], {"shape": [2, -1]}),
    ("Flatten", [(2, 3, 4)], {"axis": 2}),
    ("Transpose", [(2, 3, 4)], {"perm": [2, 0, 1]}),
    ("Tile", [(2, 3, 4)], {"repeats": [1, 2, 3]}),
    ("Abs", [(2, 3, 4)], {}),
    ("ReduceSum", [(2, 3, 4)], {"axes": [1, 2], "keepdims": 0}),
    ("ReduceMean", [(2, 3, 4)], {"axes": [2]}),
]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("op, shapes, attrs", PRESERVING_CASES)
def test_preserving_slots_pass_every_non_finite_element_on(op, shapes, attrs,
                                                           dtype):
    node = Node(op, "n", [f"i{k}" for k in range(len(shapes))], ["o"], attrs)
    _, params = resolve_node(node, shapes)
    slots = executor._PRESERVING[op]
    for slot in range(len(shapes)) if slots is None else slots:
        for seed in range(2):
            arrays = [extremes(dtype, shape, seed + k)
                      for k, shape in enumerate(shapes)]
            for position in range(arrays[slot].size):
                for poison in (np.nan, np.inf, -np.inf):
                    operands = list(arrays)
                    operands[slot] = arrays[slot].copy()
                    operands[slot].flat[position] = poison
                    with np.errstate(all="ignore"):
                        out = eval_node(node, operands, params)[0]
                    assert not np.isfinite(out).all(), (slot, position, poison)


def test_preserving_table_is_the_tested_one_over_supported_ops():
    assert set(executor._PRESERVING) <= gl.ir.SUPPORTED_OPS
    assert {case[0] for case in PRESERVING_CASES} == set(executor._PRESERVING)
    # a Where branch and a Div denominator may hide a non-finite element
    assert not executor._preserves("Where", 1)
    assert not executor._preserves("Div", 1)
    assert executor._preserves("Concat", 5)


def chain_model(nodes, initializers=None, shape=(-1, 2)):
    """x -> nodes -> y, float64."""
    return GraphModel("g", [ValueSpec("x", "float64", shape)],
                      [ValueSpec("y", "float64", shape)],
                      {k: TensorValue(v) for k, v in (initializers or {}).items()},
                      nodes)


def test_non_finite_feed_is_named_at_its_first_reader():
    plan = ExecutionPlan(chain_model([Node("Relu", "first", ["x"], ["h"]),
                                      Node("Tanh", "second", ["h"], ["y"])]))
    with pytest.raises(NumericError, match="'first'"):
        execute(plan, {"x": np.array([[1.0, np.nan]])})


def test_where_selecting_a_non_finite_initializer_is_named():
    model = chain_model([Node("Relu", "r", ["x"], ["h"]),
                         Node("Greater", "g", ["h", "two"], ["m"]),
                         Node("Where", "pick", ["m", "h", "bad"], ["y"])],
                        {"two": np.full((1, 2), 2.0), "bad": np.ones((1, 2))})
    # TensorValue refuses a non-finite payload; an array edited in place
    # afterwards is how an initializer comes to hold one
    model.initializers["bad"].array[0, 0] = np.nan
    plan = ExecutionPlan(model)
    with pytest.raises(NumericError, match="'pick'"):
        execute(plan, {"x": np.ones((1, 2))})
    # the same plan passes a feed for which the Where never selects the NaN
    outs, _ = execute(plan, {"x": np.full((1, 2), 3.0)})
    assert np.array_equal(outs["y"], np.full((1, 2), 3.0))


def test_a_greater_reading_the_feed_is_neither_guarded_nor_scanned():
    # its bool output cannot hold a non-finite value; the Where that reads
    # the feed as a branch is scanned, and names an infinite feed
    plan = ExecutionPlan(chain_model(
        [Node("Greater", "g", ["x", "zero"], ["m"]),
         Node("Where", "pick", ["m", "x", "zero"], ["y"])],
        {"zero": np.zeros((1, 2))}))
    assert plan.scans == [(), (0,)]
    with pytest.raises(NumericError, match="'pick'"):
        execute(plan, {"x": np.array([[np.inf, 1.0]])})


def test_pad_with_an_infinite_fill_is_named():
    model = chain_model(
        [Node("Relu", "r", ["x"], ["h"]),
         Node("Pad", "frame", ["h"], ["y"], {"pads": [0, 1, 0, 1],
                                             "value": float("inf")})])
    # the plan checks each node as it takes it
    with pytest.raises(ValidationError, match="'frame'.*non-finite"):
        ExecutionPlan(model)


@pytest.mark.parametrize("value", ["x", 10**400], ids=["str", "huge_int"])
def test_pad_fill_is_checked_before_the_plan_reads_it(value):
    model = chain_model(
        [Node("Relu", "r", ["x"], ["h"]),
         Node("Pad", "frame", ["h"], ["y"], {"pads": [0, 1, 0, 1], "value": value})])
    with pytest.raises(ValidationError, match="'frame'.*'value'"):
        execute(model, {"x": np.ones((1, 2))})


def test_a_kernel_overflow_is_named_not_warned():
    # the naive softmax rule takes exp of the reference logits, which
    # overflows float32 at references of 100; the optimized scheme refuses
    # the same folded value at compile time
    net = gl.micro_net("softmax", dtype="float32")
    art = gl.compile_explainer(net.model, np.full_like(net.references, 100.0),
                               scheme="naive")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match="smexpref"):
            gl.explain(art, net.sample)


def test_plan_rebinds_a_strided_conv_transpose_when_the_batch_changes():
    w = RNG.normal(size=(3, 2, 3, 3))
    attrs = {"kernel_shape": [3, 3], "strides": [2, 2], "pads": [1, 1, 0, 1],
             "output_padding": [1, 0]}
    plan = ExecutionPlan(GraphModel(
        "ct", [ValueSpec("x", "float64", (-1, 3, 4, 5))],
        [ValueSpec("y", "float64", (-1, 2, 9, 9))], {"w": TensorValue(w)},
        [Node("ConvTranspose", "up", ["x", "w"], ["y"], attrs)]))
    for batch in (2, 3, 2):
        x = RNG.normal(size=(batch, 3, 4, 5))
        got = execute(plan, {"x": x})[0]["y"]
        want = run_kernel("ConvTranspose", [x, w], attrs)[0]
        assert got.shape == want.shape == (batch, 2, 9, 9)
        assert got.tobytes() == want.tobytes()


def test_artifact_binds_its_steps_on_the_first_explain_only(artifacts,
                                                           monkeypatch):
    """The second explain hands every kernel the very parameters the first
    explain's resolution returned, none resolved again."""
    built = artifacts("plain_deep", "float32")
    art = gl.ExplainerArtifact(model=built.model, metadata=built.metadata)
    art.plan   # its constant steps run here, once
    handed = []
    kernel = executor.eval_node

    def counted(node, inputs, params):
        handed.append((node.name, params))
        return kernel(node, inputs, params)

    monkeypatch.setattr(executor, "eval_node", counted)
    xs = gl.random_inputs(art.model, 2, seed=4)
    gl.explain(art, xs[0])
    first = list(handed)
    assert len(first) == len(art.plan.steps)
    handed.clear()
    gl.explain(art, xs[1])
    assert [name for name, _ in handed] == [name for name, _ in first]
    assert all(a is b for (_, a), (_, b) in zip(handed, first))


@pytest.mark.parametrize("name", ["plain_deep", "residual_add", "dense_concat",
                                  "scaled_add_mul"])
def test_each_step_dispatches_once_through_eval_node_in_plan_order(
        artifacts, monkeypatch, name):
    """A wrapper in ``eval_node``'s place sees every step of every explain
    once, in plan order, with its operands as one sequence: on the first
    explain, which prepares the steps, and on warm ones."""
    built = artifacts(name, "float32")
    art = gl.ExplainerArtifact(model=built.model, metadata=built.metadata)
    art.plan   # its constant steps run here, before the wrapper is in place
    order = [node.name for node, *_ in art.plan.steps]
    seen = []
    kernel = executor.eval_node

    def counted(node, inputs, params):
        assert len(inputs) == len(node.inputs)
        seen.append(node.name)
        return kernel(node, inputs, params)

    monkeypatch.setattr(executor, "eval_node", counted)
    for x in gl.random_inputs(art.model, 3, seed=8):
        seen.clear()
        gl.explain(art, x)
        assert seen == order


def test_a_free_batch_plan_prepares_new_steps_when_the_batch_changes():
    # the mean's element count is the batch: a step list kept from another
    # batch would divide by the wrong count
    plan = ExecutionPlan(chain_model(
        [Node("ReduceMean", "mean", ["x"], ["m"], {"axes": [0], "keepdims": 1}),
         Node("Sub", "centre", ["x", "m"], ["y"])]))
    prepared = []
    for batch in (2, 2, 3, 2):
        x = RNG.normal(size=(batch, 2))
        got = execute(plan, {"x": x})[0]["y"]
        assert got.tobytes() == (x - x.mean(axis=0, keepdims=True)).tobytes()
        fed, ready = plan.resolved
        assert fed == ((batch, 2),)
        prepared.append(ready)
    assert prepared[1] is prepared[0]   # the same shapes reuse the list
    assert prepared[2] is not prepared[1] and prepared[3] is not prepared[2]


def test_an_empty_output_runs_the_request_under_the_guards():
    # the overflowing Exp is read only by a Tile, whose repeats of 0 make
    # its output empty: the inf reaches no scanned value, so this feed
    # shape has every output of every step scanned
    plan = ExecutionPlan(chain_model(
        [Node("Exp", "grow", ["x"], ["h"]),
         Node("Tile", "none", ["h"], ["y"], {"repeats": [0, 1]})]))
    assert plan.scans == [(), (0,)]
    with pytest.raises(NumericError, match="'grow'"):
        execute(plan, {"x": np.full((1, 2), 1000.0)})
    assert [tuple(scan) for *_, scan in plan.resolved[1]] == [(0,), (0,)]
    assert execute(plan, {"x": np.ones((1, 2))})[0]["y"].shape == (0, 2)


def test_a_failed_scan_the_replay_does_not_repeat_names_the_scanned_value(
        monkeypatch):
    plan = ExecutionPlan(chain_model([Node("Exp", "grow", ["x"], ["h"]),
                                      Node("Add", "sum", ["h", "h"], ["y"])]))
    assert plan.scans == [(), (0,)]
    calls = []
    kernel = executor.eval_node

    def first_call_overflows(node, inputs, params):
        calls.append(node.name)
        results = kernel(node, inputs, params)
        return [np.full_like(results[0], np.inf)] if len(calls) == 1 else results

    monkeypatch.setattr(executor, "eval_node", first_call_overflows)
    with pytest.raises(NumericError, match="node 'sum' produced non-finite "
                                           "values in 'y'"):
        execute(plan, {"x": np.ones((1, 2))})
    assert calls == ["grow", "sum", "grow", "sum"]


def guarded_by_every_step_scan(model):
    """The nodes whose outputs a scan after every step that could make a
    non-finite value checks, worked out without a plan: those whose op can
    make one from finite operands, or that read the feed or a non-finite
    initializer, except a ``Greater``, whose bool output cannot hold one."""
    unchecked = {spec.name for spec in model.inputs} | {
        name for name, tensor in model.initializers.items()
        if not np.isfinite(tensor.array).all()}
    return {node.name for node in model.nodes if node.op_type != "Greater"
            and (not executor._closed_over_finite(node)
                 or not unchecked.isdisjoint(node.inputs))}


def first_guarded_non_finite(model, feed):
    """(node, value) of the first output that a scan after every step that
    could make a non-finite value finds non-finite, or None."""
    guarded = guarded_by_every_step_scan(model)
    values = {name: tensor.array for name, tensor in model.initializers.items()}
    values.update(feed)
    with np.errstate(all="ignore"):
        for node in model.nodes:
            ins = [values[name] for name in node.inputs]
            results = eval_node(node, ins,
                                resolve_node(node, [a.shape for a in ins])[1])
            values.update(zip(node.outputs, results))
            if node.name not in guarded:
                continue
            for name, arr in zip(node.outputs, results):
                if arr.dtype != np.bool_ and not np.isfinite(arr).all():
                    return node.name, name
    return None


POISONS = (np.nan, np.inf, -np.inf)
CORPUS_NETS = ("plain_deep", "residual_add", "dense_concat", "scaled_add_mul")
POISONED_NETS = CORPUS_NETS + gl.MICRO_FAMILIES + ("batchnorm", "big_valued")


@functools.cache
def big_valued_case(dtype):
    """(model, references, sample): 64 features through MatMul(0.5 I) and
    Relu, fed values near max / 32 of ``dtype``.  Every value stays finite,
    while the sum of a prediction row (64 values of at least max / 64), and
    with it the sum of squares of every value, overflows."""
    scale = float(np.finfo(dtype).max) / 32
    w = TensorValue(np.eye(64, dtype=dtype) * 0.5)
    model = GraphModel("big", [ValueSpec("x", dtype, (-1, 64))],
                       [ValueSpec("y", dtype, (-1, 64))], {"w": w},
                       [Node("MatMul", "mm", ["x", "w"], ["h"]),
                        Node("Relu", "act", ["h"], ["y"])])
    rng = np.random.default_rng(17)
    refs = (rng.uniform(-1.0, 1.0, size=(16, 64)) * scale).astype(dtype)
    sample = (rng.uniform(1.0, 2.0, size=(1, 64)) * scale).astype(dtype)
    return model, refs, sample


@functools.cache
def micro_artifact(family, dtype, scheme):
    """(artifact model, sample) of one micro net, or of ``big_valued_case``."""
    if family == "big_valued":
        model, refs, sample = big_valued_case(dtype)
        art = gl.compile_explainer(model, refs, scheme=scheme)
        return art.model, sample
    net = gl.micro_net(family, dtype=dtype)
    art = gl.compile_explainer(net.model, net.references, scheme=scheme)
    return art.model, net.sample


@pytest.mark.parametrize("scheme", ["optimized", "naive"])
@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_values_whose_sums_overflow_explain_without_error(dtype, scheme):
    model, refs, sample = big_valued_case(dtype)
    art = gl.compile_explainer(model, refs, scheme=scheme)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = gl.explain(art, sample)
    prediction = res.prediction.array
    with np.errstate(over="ignore"):
        assert np.isinf(np.add.reduce(prediction, axis=None))
    # y0 = relu(x0 / 2) is linear on each side of 0, so the Rescale
    # multiplier gives feature 0 the mean output change and the others 0
    x, r = sample.astype(np.float64), refs.astype(np.float64)
    want = np.zeros((1, 64))
    want[0, 0] = np.mean(np.maximum(x[0, 0] / 2, 0) - np.maximum(r[:, 0] / 2, 0))
    rtol = 1e-5 if dtype == "float32" else 1e-12
    assert np.allclose(res.phi.array, want, rtol=rtol, atol=0)


def poisoning_case(name, dtype, scheme, artifacts, corpus_f32, corpus_f64):
    """(model, plan, feed) of one corpus or micro net's artifact."""
    if name in CORPUS_NETS:
        corpus = corpus_f32 if dtype == "float32" else corpus_f64
        model = artifacts(name, dtype, scheme).model
        sample = next(e.sample for e in corpus if e.name == name)
    else:
        model, sample = micro_artifact(name, dtype, scheme)
    return model, ExecutionPlan(model), {model.inputs[0].name: sample}


def named(node, value):
    return re.escape(f"node {node!r} produced non-finite values in {value!r}")


@pytest.mark.parametrize("scheme", ["optimized", "naive"])
@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("name", POISONED_NETS)
def test_a_poisoned_step_output_is_named_at_its_node(
        name, dtype, scheme, artifacts, corpus_f32, corpus_f64, monkeypatch):
    """Each output of every step a scan after every step checks, poisoned
    with NaN or an infinity in one element, raises naming that step: the
    scans find it, and the replay stops there."""
    model, plan, feed = poisoning_case(name, dtype, scheme, artifacts,
                                       corpus_f32, corpus_f64)
    _, clean = execute(plan, feed, capture=True)
    names = guarded_by_every_step_scan(model) & {
        node.name for node, *_ in plan.steps}
    guarded = [node for node in model.nodes if node.name in names]
    target = {}
    kernel = executor.eval_node

    def poisoned(node, inputs, params):
        results = kernel(node, inputs, params)
        if node.name in target:
            k, poison, position = target[node.name]
            results[k] = results[k].copy()
            results[k].flat[position % results[k].size] = poison
        return results

    monkeypatch.setattr(executor, "eval_node", poisoned)
    for index, node in enumerate(guarded):
        for k, value in enumerate(node.outputs):
            target.clear()
            target[node.name] = (k, POISONS[index % 3], 7 * index + k)
            with pytest.raises(NumericError, match=named(node.name, value)):
                execute(plan, feed)
    target.clear()
    execute(plan, feed)


@pytest.mark.parametrize("scheme", ["optimized", "naive"])
@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("name", POISONED_NETS)
def test_a_poisoned_feed_is_named_where_a_scan_after_every_step_names_it(
        name, dtype, scheme, artifacts, corpus_f32, corpus_f64):
    model, plan, feed = poisoning_case(name, dtype, scheme, artifacts,
                                       corpus_f32, corpus_f64)
    (input_name, clean), = feed.items()
    for position in (0, clean.size // 2, clean.size - 1):
        for poison in POISONS:
            x = clean.copy()
            x.flat[position] = poison
            want = first_guarded_non_finite(model, {input_name: x})
            if want is None:
                execute(plan, {input_name: x})
            else:
                with pytest.raises(NumericError, match=named(*want)):
                    execute(plan, {input_name: x})
