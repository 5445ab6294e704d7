"""The backward-plumbing ops Abs, Equal, Cast, Pad and ConvTranspose.

Each kernel is checked against a plain nested-loop reference, each shape law
against the kernel's output, ConvTranspose against Conv as its adjoint, and
malformed attributes, of these ops and of Conv and the pools, against the
package's typed errors.
"""

import itertools
import math

import numpy as np
import pytest

import graphlift as gl
from graphlift import (GraphModel, Node, ShapeError, UnsupportedOp,
                       ValidationError, ValueSpec, corpus, executor,
                       validate_model)
from graphlift.executor import run_kernel
from graphlift.shapes import _stacked, resolve_node
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


def test_equal_compares_signed_zeros_and_subnormals_exactly():
    tiny = np.finfo(np.float64).smallest_subnormal
    x = np.array([[-0.0, 0.0, tiny, -tiny, np.nan, 2.0]])
    got = run_checked("Equal", [x, np.zeros((1, 1))], {})
    assert got.dtype == np.bool_
    assert got.tolist() == [[True, True, False, False, False, False]]


@pytest.mark.parametrize("to, dtype", [(1, np.float32), (11, np.float64)])
def test_cast_makes_the_onnx_element_type(to, dtype):
    mask = np.array([[True, False], [False, True]])
    got = run_checked("Cast", [mask], {"to": to})
    assert got.dtype == dtype and got.tobytes() == np.eye(2, dtype=dtype).tobytes()
    x = np.array([[-0.0, 1.5, 1e-30]])
    assert run_checked("Cast", [x], {"to": to}).tobytes() == x.astype(dtype).tobytes()


@pytest.mark.parametrize("to", [0, 6, 9, 10])
def test_cast_refuses_an_element_type_no_model_holds(to):
    with pytest.raises(UnsupportedOp, match="'anon'.*Cast supports"):
        run_kernel("Cast", [np.zeros((1, 2))], {"to": to})


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


def stacked_step(x, w, attrs):
    """Images per chunk of the one unit-stride Conv that stacks the live
    stride phases of the ConvTranspose of ``x`` by ``w``."""
    _, (index, _, crop, frame, *_) = resolve_node(
        node_for("ConvTranspose", [x, w], attrs), [x.shape, w.shape])
    return chunk_step(x[crop].shape, index.shape[2:], [1, 1], frame, x.itemsize)


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
        # batches either side of the chunk boundaries of the stacked Conv
        step = stacked_step(np.empty((1, 8, 9, 11), dtype), w, attrs)
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


def conv_transpose_geometries(count, seed):
    """``count`` seeded ConvTranspose geometries as (attributes, input
    extents): kernel 1-4 and stride 1-3 per axis, pads 0-3, an output
    padding below the stride and input extents 1-5."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        strides = rng.integers(1, 4, 2).tolist()
        yield ({"kernel_shape": rng.integers(1, 5, 2).tolist(),
                "strides": strides, "pads": rng.integers(0, 4, 4).tolist(),
                "output_padding": [int(rng.integers(0, s)) for s in strides]},
               tuple(rng.integers(1, 6, 2).tolist()))


@pytest.mark.parametrize("dtype, atol", [(np.float64, 1e-13), (np.float32, 1e-5)])
def test_conv_transpose_geometry_sweep_matches_loop_reference(dtype, atol):
    rng = np.random.default_rng(3)
    accepted = 0
    for attrs, extents in conv_transpose_geometries(480, seed=2017):
        x = rng.normal(size=(2, 3, *extents)).astype(dtype)
        w = rng.normal(size=(3, 2, *attrs["kernel_shape"])).astype(dtype)
        bias = rng.normal(size=(2,)).astype(dtype)
        size = [s * (d - 1) + e + k - lo - hi for d, k, s, lo, hi, e in zip(
            extents, attrs["kernel_shape"], attrs["strides"], attrs["pads"][:2],
            attrs["pads"][2:], attrs["output_padding"])]
        # the law refuses exactly the geometries whose pads crop every output
        if min(size) < 1:
            with pytest.raises(ShapeError, match="crop away"):
                run_kernel("ConvTranspose", [x, w, bias], attrs)
            continue
        accepted += 1
        got = run_checked("ConvTranspose", [x, w, bias], attrs)
        want = ref_conv_transpose(x, w, attrs["strides"], attrs["pads"],
                                  attrs["output_padding"]) + bias.reshape(1, 2, 1, 1)
        assert got.dtype == dtype and got.flags.c_contiguous
        assert np.allclose(got, want, rtol=0, atol=atol), (attrs, extents)
    assert accepted > 250


def frozen_stack_axis(d, k, s, lo, n):
    """One axis of the stacked geometry as the first stacked law built it,
    kept as the reference for ``frozen_stacked``."""
    live, reach = [], []
    for r in range(min(s, n)):
        c, first = divmod(r + lo, s)
        if first < k:
            live.append((r, (n - 1 - r) // s + 1))
            reach.append((c, first, (k - 1 - first) // s + 1))
    low = min((c - m + 1 for c, _, m in reach), default=0)
    width = max((c for c, _, _ in reach), default=0) - low + 1
    taps = [[-1] * width for _ in reach]
    for row, (c, first, m) in zip(taps, reach):
        row[c - low - m + 1:c - low + 1] = range(first + (m - 1) * s, first - 1, -s)
    total = max((q for _, q in live), default=1) + width - 1
    start = min(max(low, 0), d)
    stop = min(max(low + total, start), d)
    before = min(max(-low, 0), total)
    return (live, np.array(taps, np.intp).reshape(len(taps), width),
            any(m < width for _, _, m in reach), slice(start, stop),
            (before, total - before - stop + start))


def frozen_stacked(x, w, strides, pads, out):
    """The stacked ConvTranspose geometry as the first stacked law built it:
    W's flat positions gathered through a (kh + 1, kw + 1, O, C) grid whose
    last row and column are the zero slot."""
    c_in, c_out, kh, kw = w
    (live_h, th, holes_h, crop_h, frame_h), (live_w, tw, holes_w, crop_w, frame_w) = (
        frozen_stack_axis(*axis) for axis in zip(x[2:], w[2:], strides, pads[:2],
                                                 out[2:]))
    size = math.prod(w)
    flat = np.full((kh + 1, kw + 1, c_out, c_in), size)
    flat[:kh, :kw] = np.arange(size).reshape(w).transpose(2, 3, 1, 0)
    index = np.ascontiguousarray(
        flat[th[:, None, :, None], tw[None, :, None, :]].transpose(
            0, 1, 4, 5, 2, 3).reshape(-1, c_in, th.shape[1], tw.shape[1]))
    crop = (Ellipsis, crop_h, crop_w)
    frame = [frame_h[0], frame_w[0], frame_h[1], frame_w[1]]
    if strides == [1, 1]:
        return index, holes_h or holes_w, crop, frame, None, True, None
    blocks = [((Ellipsis, slice(rh, None, strides[0]), slice(rw, None, strides[1])),
               (slice(None), slice(p * c_out, (p + 1) * c_out), slice(qh), slice(qw)))
              for p, ((rh, qh), (rw, qw)) in enumerate(itertools.product(live_h,
                                                                         live_w))]
    tiled = len(live_h) == min(strides[0], out[2]) and \
        len(live_w) == min(strides[1], out[3])
    return index, holes_h or holes_w, crop, frame, out, tiled, blocks


def test_stacked_geometry_matches_the_frozen_reference():
    """Kernels 1-4 x 1-3, strides 1-3, pads 0-2, every output padding below
    the stride and extents 1-5, about 12,900 geometries: the same index
    (values, dtype, shape, contiguity), holes, crop, frame, shape, tiled
    flag and blocks."""
    checked = holes = 0
    for (kh, kw), (sh, sw), (top, bottom), (dh, dw) in itertools.product(
            itertools.product(range(1, 5), range(1, 4)),
            itertools.product(range(1, 4), repeat=2),
            itertools.product(range(3), repeat=2),
            [(1, 1), (2, 5), (3, 2), (5, 4)]):
        left, right = bottom, (top + 1) % 3
        for eh, ew in itertools.product(range(sh), range(sw)):
            x, w = (2, 3, dh, dw), (3, 2, kh, kw)
            strides, pads = [sh, sw], [top, left, bottom, right]
            out = (2, 2, sh * (dh - 1) + eh + kh - top - bottom,
                   sw * (dw - 1) + ew + kw - left - right)
            if min(out[2:]) < 1:
                continue
            got, want = _stacked(x, w, strides, pads, out), \
                frozen_stacked(x, w, strides, pads, out)
            geometry = (kh, kw, sh, sw, pads, eh, ew, dh, dw)
            assert got[0].dtype == want[0].dtype and got[0].shape == want[0].shape
            assert got[0].flags.c_contiguous and np.array_equal(got[0], want[0]), \
                geometry
            assert got[1:] == want[1:], geometry
            checked += 1
            holes += want[1]
    assert checked > 10000 and holes > 1000


def test_every_conv_transpose_is_one_conv(monkeypatch):
    calls = []
    conv = executor._conv

    def counted(*args):
        calls.append(args[1].shape)
        return conv(*args)

    monkeypatch.setattr(executor, "_conv", counted)
    rng = np.random.default_rng(4)
    for attrs, extents in conv_transpose_geometries(60, seed=5):
        x = rng.normal(size=(2, 3, *extents))
        w = rng.normal(size=(3, 2, *attrs["kernel_shape"]))
        del calls[:]
        try:
            run_kernel("ConvTranspose", [x, w], attrs)
        except ShapeError:
            continue
        assert len(calls) == 1, attrs
    # and in an explain, where the Conv nodes call it too
    entry = gl.corpus_entry("plain_deep")
    art = gl.compile_explainer(entry.model, entry.references)
    kernels = executor._KERNELS["ConvTranspose"]
    per_node = []

    def spied(inputs, params):
        del calls[:]
        out = kernels(inputs, params)
        per_node.append(len(calls))
        return out

    monkeypatch.setitem(executor._KERNELS, "ConvTranspose", spied)
    gl.explain(art, entry.sample)
    census = gl.op_census(art.model)["ConvTranspose"]
    assert census > 0 and per_node == [1] * census


@pytest.mark.parametrize("kernel", [[1, 1], [3, 2], [4, 4]])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_unit_stride_conv_transpose_is_the_conv_of_its_flipped_filter(kernel,
                                                                       dtype):
    # bit for bit: at stride 1 the stacked filter is W flipped and
    # channel-swapped, and its GEMM is that Conv's
    rng = np.random.default_rng(kernel[0])
    x = rng.normal(size=(3, 5, 6, 7)).astype(dtype)
    w = rng.normal(size=(5, 4, *kernel)).astype(dtype)
    bias = rng.normal(size=(4,)).astype(dtype)
    for pads in ([0, 0, 0, 0], [kernel[0] - 1, 0, 0, kernel[1] - 1]):
        got = run_checked("ConvTranspose", [x, w, bias],
                          {"kernel_shape": kernel, "pads": pads})
        flipped = np.ascontiguousarray(w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3))
        frame = [k - 1 - p for k, p in zip(kernel * 2, pads)]
        want = run_kernel("Conv", [x, flipped, bias],
                          {"kernel_shape": kernel, "pads": frame})[0]
        assert got.tobytes() == want.tobytes()


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
