"""Shape laws for the supported operator set: one resolution per node.

``resolve_node`` runs ``ir._check_signature``, the one node check (op,
operand and output counts, every attribute's name, kind and finiteness),
which ``validate_model`` runs too and adds only graph-level checks to, and
then the node's law.  ``resolve_checked`` is the law alone, for a caller
that has already checked the node: ``ExecutionPlan`` checks each node once
when it is built and resolves through it.  A law reads a node's
attributes and defaults once, at the concrete shapes of its inputs, checks
them against those shapes and returns its output shapes together with the
parameters its kernel runs on: a kernel runs unchecked on whatever its law
accepts.  A law is the one statement of what
its op supports, and it refuses with UnsupportedOp what no kernel runs or
no rule explains: a grouped or dilated convolution, ``Gemm`` with
``transA``, a ``Softmax`` over an axis other than the last, a ``MatMul``
whose second operand is not rank 2, padding counted into an average.  So
compile, ``execute``, the oracle's traces, ``run_kernel`` and
``infer_graph_shapes`` refuse alike.  Shapes are tuples of concrete
non-negative ints: the free leading batch (-1) of a graph input's
``ValueSpec`` never reaches a law, as ``infer_graph_shapes`` gives it a
number first.  The one -1 a law reads is ``Reshape``'s target entry,
ONNX's "infer this extent".
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import ShapeError, UnsupportedOp, ValidationError
from .ir import DTYPES, ONNX_TYPES, GraphModel, Node, _check_signature, _unproduced

__all__ = ["broadcast_shapes", "infer_graph_shapes", "resolve_checked",
           "resolve_node"]


# Cast's "to" -> the numpy dtype it makes, for the dtypes a model may hold
_CAST_TO = {code: DTYPES[name] for name, code in ONNX_TYPES.items()}


def broadcast_shapes(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Multidirectional broadcast of two shapes."""
    out = []
    for da, db in zip(_pad(a, b), _pad(b, a)):
        if da == db or db == 1:
            out.append(da)
        elif da == 1:
            out.append(db)
        else:
            raise ShapeError(f"cannot broadcast shapes {a} and {b}")
    return tuple(out)


def _pad(a, b):
    return (1,) * (len(b) - len(a)) + tuple(a) if len(a) < len(b) else tuple(a)


def _axis(axis: int, rank: int, op: str) -> int:
    """``axis`` counted from the front, or ShapeError when it is outside
    [-rank, rank)."""
    if not -rank <= axis < rank:
        raise ShapeError(f"{op} axis {axis} out of range for rank {rank}")
    return axis % rank


def _pool_axis(size, kernel, stride, pad_begin, pad_end):
    if min(kernel, stride) < 1 or min(pad_begin, pad_end) < 0:
        raise ShapeError(
            f"window {kernel} and stride {stride} must be at least 1, pads "
            f"({pad_begin}, {pad_end}) at least 0")
    span = size + pad_begin + pad_end - kernel
    if span < 0:
        raise ShapeError(
            f"window {kernel} exceeds padded extent {size + pad_begin + pad_end}")
    return span // stride + 1


def _window_taps(size, kernel, stride, pad_begin, count) -> list[int]:
    """How many taps of each of the ``count`` windows along one axis land on
    the input: window n reads the ``kernel`` positions from n·stride -
    pad_begin on."""
    return [max(0, min(kernel, size - start) - max(0, -start))
            for start in range(-pad_begin, count * stride - pad_begin, stride)]


def _padding_window(size, kernel, stride, pad_begin, count) -> bool:
    """Whether one of the ``count`` windows along one axis lies entirely in
    padding, reading no input position.  Windows start in order, at
    n·stride - pad_begin, so only the first (wholly before the input) or
    the last (wholly after it) can, unless the axis is empty, when all do.
    Equivalent to ``0 in _window_taps(...)`` in constant time."""
    return size == 0 or kernel <= pad_begin or \
        (count - 1) * stride - pad_begin >= size


def _stack_axis(d, k, s, lo, n, scale, hole):
    """One axis of the stacked ConvTranspose of an input extent ``d`` into
    ``n`` outputs: its live phases as (phase, output count), per live phase
    its taps over the stacked window as W offsets (tap · ``scale``, or
    ``hole`` where the phase reads no tap), whether any phase reads a hole,
    and the crop of x and its frame (before, after).

    Output row j = q·s + r is row p = j + lo of the uncropped output, which
    input row i reaches through tap t = p - i·s.  With first = (r + lo) mod s
    and c = (r + lo) // s, phase r's taps are t = first + m·s for m < M, and
    its output q reads input row q + c - m: the offsets c - M + 1 to c.  A
    phase that no tap reaches (M = 0) stays zero and is not stacked.  The
    stacked window spans the union of the live phases' offsets, and x is
    framed, or cropped, to exactly the rows that window reads for the most
    outputs any phase has.
    """
    live, reach = [], []
    low = high = 0
    for r in range(min(s, n)):
        c, first = divmod(r + lo, s)
        if first < k:
            m = (k - 1 - first) // s + 1
            low = min(low, c - m + 1) if live else c - m + 1
            high = c    # c grows with r
            live.append((r, (n - 1 - r) // s + 1))
            reach.append((c, first, m))
    width = high - low + 1
    # phase p's taps m-1 down to 0 read offsets c - m + 1 up to c
    rows, holes, step = [], False, s * scale
    for c, first, m in reach:
        holes = holes or m < width
        last = (first + (m - 1) * s) * scale
        rows.append([hole] * (c - low - m + 1)
                    + list(range(last, first * scale - 1, -step))
                    + [hole] * (high - c))
    # the framed rows: the window over as many outputs as any live phase
    # has, the first (outputs per phase shrink with r)
    total = (live[0][1] if live else 1) + width - 1
    start = min(max(low, 0), d)
    stop = min(max(low + total, start), d)
    before = min(max(-low, 0), total)
    return (live, rows, width, holes, slice(start, stop),
            (before, total - before - stop + start))


def _stacked(x, w, strides, pads, out):
    """Stacked geometry of a ConvTranspose of input shape ``x`` by weight
    shape ``w`` into output shape ``out``, the adjoint of a Conv with the
    same weights and geometry: one unit-stride Conv of x, cropped and framed
    to the union of the rows its live stride phases read, by a (live phases
    × O, C, u_h, u_w) filter stacked from every live phase's taps, flipped
    and channel-swapped (the sub-pixel identity, Shi et al.,
    arXiv:1609.05158).

    Returns (index, holes, crop, frame, shape, tiled, blocks).  ``index``
    gathers that filter from W's flat values, reading the zero slot W.size
    wherever a phase reads no tap; ``holes`` says whether it reads that slot
    anywhere.  At stride 1 the one phase is the whole output, so ``shape``
    and ``blocks`` are None; otherwise ``shape`` is the output shape,
    ``tiled`` whether the live phases cover every output cell, and
    ``blocks`` holds per live phase its output slice and its block of the
    stacked product.
    """
    c_in, c_out, kh, kw = w
    size = c_in * c_out * kh * kw
    # W[c, o, i, j] is flat value (c·O + o)·kh·kw + i·kw + j: a row tap's
    # offset is i·kw, a column tap's j, and a hole's offset W.size takes any
    # sum with it to W.size or past it, the zero slot after the clamp below
    live_h, rows, uh, holes_h, crop_h, frame_h = _stack_axis(
        x[2], kh, strides[0], pads[0], out[2], kw, size)
    live_w, cols, uw, holes_w, crop_w, frame_w = _stack_axis(
        x[3], kw, strides[1], pads[1], out[3], 1, size)
    # (Ph·Pw, O, C, uh·uw), phase-major, so live phase p is rows p·O on;
    # contiguous, so the gathered filter is too
    taps = np.array([r + c for row in rows for col in cols for r in row for c in col],
                    np.intp).reshape(-1, 1, 1, uh * uw)
    index = np.empty((len(rows) * len(cols), c_out, c_in, uh * uw), np.intp)
    np.add(taps, np.arange(0, size, kh * kw).reshape(c_in, c_out, 1).swapaxes(0, 1),
           out=index)
    holes = holes_h or holes_w
    if holes:
        np.minimum(index, size, out=index)
    index = index.reshape(-1, c_in, uh, uw)
    crop = (Ellipsis, crop_h, crop_w)
    frame = [frame_h[0], frame_w[0], frame_h[1], frame_w[1]]
    if strides == [1, 1]:
        return index, holes, crop, frame, None, True, None
    (sh, sw), blocks = strides, []
    for rh, qh in live_h:
        for rw, qw in live_w:
            p = len(blocks) * c_out
            blocks.append(((Ellipsis, slice(rh, None, sh), slice(rw, None, sw)),
                           (slice(None), slice(p, p + c_out), slice(qh), slice(qw))))
    tiled = len(live_h) == min(sh, out[2]) and len(live_w) == min(sw, out[3])
    return index, holes, crop, frame, out, tiled, blocks


def _window_op(op: str, in_shapes, attrs):
    """Output shape and kernel parameters of Conv, ConvTranspose, MaxPool or
    AveragePool."""
    x = in_shapes[0]
    # the ONNX defaults: unit strides, no padding
    kernel = list(attrs["kernel_shape"])
    strides = list(attrs.get("strides", [1, 1]))
    pads = list(attrs.get("pads", [0, 0, 0, 0]))      # [top, left, bottom, right]
    if len(x) != 4:
        raise ShapeError(f"{op} supports 4-D NCHW tensors only")
    if len(kernel) != 2 or len(strides) != 2 or len(pads) != 4:
        raise ShapeError(f"{op} window attributes do not match 2 spatial axes")
    if attrs.get("count_include_pad", 0) != 0:
        raise UnsupportedOp("AveragePool supports count_include_pad=0 only")
    if list(attrs.get("dilations", [1, 1])) != [1, 1]:
        raise UnsupportedOp("Conv supports dilations [1, 1] only")
    channels = x[1]
    if op in ("Conv", "ConvTranspose"):
        w = in_shapes[1]
        if len(w) != 4:
            raise ShapeError(f"{op} supports 4-D weights only")
        if attrs.get("group", 1) != 1:
            raise UnsupportedOp(f"{op} with group != 1 is not supported")
        c_in, channels = (w[1], w[0]) if op == "Conv" else (w[0], w[1])
        if x[1] != c_in:
            raise ShapeError(f"{op} channel mismatch: input {x}, weight {w}")
        if kernel != list(w[2:]):
            raise ShapeError(f"{op} kernel_shape {kernel} does not match weight {w}")
        if len(in_shapes) == 3 and tuple(in_shapes[2]) != (channels,):
            raise ShapeError(f"{op} bias {in_shapes[2]} does not hold one "
                             f"value per output channel of weight {w}")
    if op != "ConvTranspose":
        spatial = tuple(_pool_axis(x[2 + i], kernel[i], strides[i], pads[i],
                                   pads[2 + i]) for i in range(2))
        out = (x[0], channels) + spatial
        if op == "Conv":
            return out, (strides, pads)
        if any(_padding_window(x[2 + i], kernel[i], strides[i], pads[i], n)
               for i, n in enumerate(spatial)):
            raise ShapeError(f"{op} pads {pads} leave a window lying "
                             "entirely in padding")
        if op == "MaxPool":
            return out, (kernel, strides, pads)
        taps = [_window_taps(x[2 + i], kernel[i], strides[i], pads[i], n)
                for i, n in enumerate(spatial)]
        # the divisor plane: every window's in-bounds cell count, so padding
        # is excluded from the mean
        count = np.outer(*taps).astype(np.float64).reshape(1, 1, *out[2:])
        return out, (kernel, strides, pads, count)
    extra = attrs.get("output_padding", [0, 0])
    (kh, kw), (sh, sw), (top, left, bottom, right) = kernel, strides, pads
    if min(kh, kw) < 1 or min(pads) < 0 or len(extra) != 2 \
            or not (0 <= extra[0] < sh and 0 <= extra[1] < sw):
        raise ShapeError(f"ConvTranspose attributes {attrs} do not fit "
                         f"input {x} and weight {w}")
    out = (x[0], channels, sh * (x[2] - 1) + extra[0] + kh - top - bottom,
           sw * (x[3] - 1) + extra[1] + kw - left - right)
    if min(out[2:]) < 1:
        raise ShapeError(f"ConvTranspose pads {pads} crop away the output")
    return out, _stacked(x, w, strides, pads, out)


def resolve_node(node: Node, in_shapes: list[tuple[int, ...]]):
    """``(output shapes, kernel parameters)`` of one node on inputs of these
    concrete shapes, or ShapeError / UnsupportedOp naming the node for
    operands or attributes its kernel cannot run on, and ValidationError for
    a node ``_check_signature`` refuses: the check, then the law
    (``resolve_checked``), for every caller that has not checked the node,
    such as ``GraphBuilder.add``, ``run_kernel`` and
    ``infer_graph_shapes``.

    The parameters are window geometry, the ``ConvTranspose`` stacked
    geometry (``_stacked``), the ``AveragePool`` divisor plane, and the indices,
    axes, permutation, widths, extents and scalars of other ops with their
    defaults filled in, or the attribute dict of an op with nothing to
    resolve.
    """
    _check_signature(node, len(in_shapes))
    return resolve_checked(node, in_shapes)


def resolve_checked(node: Node, in_shapes: list[tuple[int, ...]]):
    """``resolve_node`` of a node that ``_check_signature`` has already
    passed with ``len(in_shapes)`` operands: the law alone, without the
    check again.  ``ExecutionPlan`` checks each node once, when it is
    built, and resolves its constant steps and every ``verify`` here.
    Raises the same ShapeError / UnsupportedOp naming the node."""
    try:
        return _resolve(node, in_shapes)
    except (ShapeError, UnsupportedOp) as exc:
        raise type(exc)(f"node {node.name!r}: {exc}") from exc


def _resolve(node: Node, in_shapes: list[tuple[int, ...]]):
    op = node.op_type
    attrs = node.attributes

    if op in ("Add", "Sub", "Mul", "Div", "Greater", "Equal"):
        return [broadcast_shapes(in_shapes[0], in_shapes[1])], attrs
    if op == "Where":
        return [broadcast_shapes(broadcast_shapes(in_shapes[0], in_shapes[1]),
                                 in_shapes[2])], attrs
    if op in ("Relu", "Sigmoid", "Tanh", "Exp", "Abs"):
        return [in_shapes[0]], attrs
    if op == "Cast":
        if attrs["to"] not in _CAST_TO:
            raise UnsupportedOp(f"Cast supports 'to' of {sorted(_CAST_TO)} only "
                                f"(float32, float64), got {attrs['to']}")
        return [in_shapes[0]], _CAST_TO[attrs["to"]]
    if op == "Softmax":
        rank = len(in_shapes[0])
        if _axis(attrs.get("axis", -1), rank, op) != rank - 1:
            raise UnsupportedOp("Softmax supports the last axis only")
        return [in_shapes[0]], attrs

    if op == "MatMul":
        a, b = in_shapes
        if len(a) < 2 or len(b) < 2:
            raise ShapeError(f"MatMul operands must be at least 2-D, got {a} and {b}")
        if len(b) != 2:
            raise UnsupportedOp(f"MatMul supports a rank-2 second operand only, got {b}")
        if a[-1] != b[0]:
            raise ShapeError(f"MatMul inner dimensions differ: {a} vs {b}")
        return [a[:-1] + b[1:]], attrs

    if op == "Gemm":
        a, b = in_shapes[0], in_shapes[1]
        if len(a) != 2 or len(b) != 2:
            raise ShapeError("Gemm operands must be 2-D")
        if attrs.get("transA", 0):
            raise UnsupportedOp("Gemm supports transA=0 only")
        params = (attrs.get("transB", 0), attrs.get("alpha", 1.0),
                  attrs.get("beta", 1.0))
        if params[0]:
            b = (b[1], b[0])
        if a[1] != b[0]:
            raise ShapeError(f"Gemm inner dimensions differ: {a} vs {b}")
        out = (a[0], b[1])
        if len(in_shapes) == 3 and broadcast_shapes(out, in_shapes[2]) != out:
            raise ShapeError(f"Gemm bias {in_shapes[2]} does not broadcast to {out}")
        return [out], params

    if op in ("Conv", "ConvTranspose", "MaxPool", "AveragePool"):
        out, params = _window_op(op, in_shapes, attrs)
        return [out], params

    if op == "Pad":
        x, pads = in_shapes[0], list(attrs["pads"])
        if attrs.get("mode", "constant") != "constant":
            raise UnsupportedOp(f"Pad supports constant mode only, got {attrs['mode']!r}")
        if len(pads) != 2 * len(x):
            raise ShapeError(f"Pad needs 2 entries per axis of {x}, got pads {pads}")
        if min(pads, default=0) < 0:
            raise UnsupportedOp("Pad with negative pads is not supported")
        widths = list(zip(pads, pads[len(x):]))
        return ([tuple(d + lo + hi for d, (lo, hi) in zip(x, widths))],
                (widths, attrs.get("value", 0.0)))

    if op in ("GlobalAveragePool", "GlobalMaxPool"):
        x = in_shapes[0]
        if len(x) != 4 or 0 in x[2:]:
            raise ShapeError(f"{op} supports non-empty 4-D NCHW tensors only")
        # the window's element count, which a GlobalAveragePool divides by
        return [(x[0], x[1], 1, 1)], np.intp(x[2] * x[3])

    if op == "BatchNormalization":
        x = in_shapes[0]
        if len(x) < 2:
            raise ShapeError(f"BatchNormalization needs a channel axis, got {x}")
        if any(tuple(p) != (x[1],) for p in in_shapes[1:]):
            raise ShapeError(f"BatchNormalization of {x} takes scale, bias, "
                             f"mean and variance of shape ({x[1]},), got "
                             f"{in_shapes[1:]}")
        return [x], attrs.get("epsilon", 1e-5)

    if op == "Concat":
        base = list(in_shapes[0])
        axis = _axis(attrs["axis"], len(base), op)
        total = 0
        for s in in_shapes:
            if len(s) != len(base):
                raise ShapeError(f"Concat rank mismatch: {in_shapes}")
            for i, (d0, d) in enumerate(zip(base, s)):
                if i != axis and d0 != d:
                    raise ShapeError(f"Concat non-axis extent mismatch: {in_shapes}")
            total += s[axis]
        base[axis] = total
        return [tuple(base)], axis

    if op == "Transpose":
        perm = attrs["perm"]
        x = in_shapes[0]
        if sorted(perm) != list(range(len(x))):
            raise ShapeError(f"Transpose perm {perm} is not a permutation of rank {len(x)}")
        return [tuple(x[p] for p in perm)], perm

    if op == "Reshape":
        target = list(attrs["shape"])
        x = in_shapes[0]
        if target.count(-1) > 1 or min(target, default=0) < -1:
            raise ShapeError(f"Reshape target {target} allows one inferred "
                             "extent and no other negative one")
        total = math.prod(x)
        if -1 in target:
            known = math.prod(d for d in target if d != -1)
            if known == 0 or total % known:
                raise ShapeError(f"cannot reshape {x} to {target}")
            target[target.index(-1)] = total // known
        elif total != math.prod(target):
            raise ShapeError(f"cannot reshape {x} ({total} elements) to {target}")
        return [tuple(target)], attrs

    if op == "Flatten":
        x = in_shapes[0]
        axis = attrs.get("axis", 1)
        if not -len(x) <= axis <= len(x):
            raise ShapeError(f"Flatten axis {axis} out of range for rank {len(x)}")
        axis = axis + len(x) if axis < 0 else axis
        out = (math.prod(x[:axis]), math.prod(x[axis:]))
        return [out], out

    if op in ("ReduceSum", "ReduceMean"):
        x = in_shapes[0]
        axes = attrs.get("axes")
        axes = range(len(x)) if axes is None else [_axis(a, len(x), op) for a in axes]
        if len(set(axes)) != len(axes):
            raise ShapeError(f"{op} axes {attrs['axes']} repeat an axis")
        keep = bool(attrs.get("keepdims", 1))
        out = []
        for i, d in enumerate(x):
            if i in axes:
                if keep:
                    out.append(1)
            else:
                out.append(d)
        # the element count a ReduceMean divides by, as numpy's mean types it
        return [tuple(out)], (tuple(axes), keep,
                              np.intp(math.prod(x[a] for a in axes)))

    if op == "Tile":
        reps = attrs["repeats"]
        x = in_shapes[0]
        if len(reps) != len(x) or min(reps, default=0) < 0:
            raise ShapeError(f"Tile repeats {reps} must be non-negative, one "
                             f"per axis of {x}")
        return [tuple(d * r for d, r in zip(x, reps))], attrs

    if op == "Split":
        x = in_shapes[0]
        axis = _axis(attrs.get("axis", 0), len(x), op)
        parts = attrs.get("split")
        n_out = len(node.outputs)
        if parts is None:
            if x[axis] % n_out:
                raise ShapeError(
                    f"Split axis extent {x[axis]} not divisible into {n_out} parts")
            parts = [x[axis] // n_out] * n_out
        if len(parts) != n_out or sum(parts) != x[axis] \
                or min(parts, default=0) < 0:
            raise ShapeError(f"Split sizes {parts} do not cover extent {x[axis]}")
        # one index per output: its part of the split axis
        index, start = [], 0
        for size in parts:
            index.append((slice(None),) * axis + (slice(start, start + size),))
            start += size
        return [x[:axis] + (p,) + x[axis + 1:] for p in parts], index

    if op == "Constant":
        if attrs["dtype"] not in DTYPES:
            raise ValidationError(f"node {node.name!r}: Constant dtype "
                                  f"{attrs['dtype']!r} is not one of {sorted(DTYPES)}")
        shape = tuple(attrs["shape"])
        if min(shape, default=0) < 0 or math.prod(shape) != len(attrs["value"]):
            raise ShapeError(f"Constant of shape {shape} holds "
                             f"{len(attrs['value'])} values")
        return [shape], attrs


def infer_graph_shapes(model: GraphModel, batch: int | None = None,
                       ) -> dict[str, tuple[int, ...]]:
    """Shape of every named value, with each graph input's leading extent
    set to ``batch``, or, without one, to the spec's own extent, a free
    batch counting as 1.

    One pass over ``model.nodes``; ValidationError names a node that reads a
    value no earlier node, graph input or initializer produced, and refuses
    a ``batch`` that is not a positive integer."""
    if batch is not None and (isinstance(batch, bool) or not isinstance(
            batch, numbers.Integral) or batch < 1):
        raise ValidationError(f"batch must be a positive integer, got {batch!r}")
    shapes: dict[str, tuple[int, ...]] = {}
    for spec in model.inputs:
        # max: a free batch (-1) counts as one row
        lead = spec.shape[:1] if batch is None else (int(batch),)
        shapes[spec.name] = tuple(max(d, 1) for d in lead) + spec.shape[1:]
    for name, tensor in model.initializers.items():
        shapes[name] = tensor.shape
    for node in model.nodes:
        for name in node.inputs:
            if name not in shapes:
                raise _unproduced(node, name)
        outs = resolve_node(node, [shapes[i] for i in node.inputs])[0]
        for out_name, shape in zip(node.outputs, outs):
            shapes[out_name] = shape
    return shapes
