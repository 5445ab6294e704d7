"""Shape laws for the supported operator set: one resolution per node.

``resolve_node`` runs ``ir._check_signature``, the one node check (op,
operand and output counts, every attribute's name, kind and finiteness),
which ``validate_model`` runs too and adds only graph-level checks to.  It
then reads a node's attributes and defaults once, at the concrete shapes
of its inputs, checks them against those shapes and returns its output
shapes together with the parameters its kernel runs on: a kernel runs
unchecked on whatever its law accepts.  A law is the one statement of what
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
from .ir import DTYPES, GraphModel, Node, _check_signature, _unproduced

__all__ = ["broadcast_shapes", "infer_graph_shapes", "resolve_node"]


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


def _phases(x, kernel, strides, pads, size) -> list:
    """Stride-phase table of a ConvTranspose of input shape ``x`` into
    spatial extents ``size``, the adjoint of a Conv with the same weights
    and geometry.

    Output row j = q·s + r is row p = j + pad of the uncropped output, which
    input row i reaches through tap t = p - i·s, so only the taps
    t ≡ r + pad (mod s) feed phase r.  Each output phase (rh, rw) is one
    unit-stride Conv of x with its taps, flipped and channel-swapped, over x
    framed (or cropped, where the frame is negative) to exactly the rows the
    phase reads.  Per phase that some tap reaches, the table holds the
    phase's output rows, its flipped taps, the crop of x and the frame; a
    phase that no tap reaches stays zero.
    """
    phases = []
    for phase in np.ndindex(*strides):
        taps, crop, frame = [], [], [0, 0, 0, 0]
        for a, (r, d, k, s, lo, n) in enumerate(zip(phase, x[2:], kernel, strides,
                                                     pads[:2], size)):
            first = (r + lo) % s
            m = len(range(first, k, s))                   # taps of this phase
            before = m - 1 - (r + lo) // s                # frame; < 0 crops
            after = len(range(r, n, s)) - d + (r + lo) // s
            taps.append(slice(first + (m - 1) * s, first - 1 if first else None, -s))
            crop.append(slice(max(-before, 0), d - max(-after, 0)))
            frame[a], frame[a + 2] = max(before, 0), max(after, 0)
            if m == 0 or r >= n:
                break                                     # stays zero
        else:
            phases.append(((Ellipsis, slice(phase[0], None, strides[0]),
                            slice(phase[1], None, strides[1])),
                           (Ellipsis, *taps), (Ellipsis, *crop), frame))
    return phases


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
        taps = [_window_taps(x[2 + i], kernel[i], strides[i], pads[i], n)
                for i, n in enumerate(spatial)]
        if 0 in taps[0] or 0 in taps[1]:
            raise ShapeError(f"{op} pads {pads} leave a window lying "
                             "entirely in padding")
        if op == "MaxPool":
            return out, (kernel, strides, pads)
        # the divisor plane: every window's in-bounds cell count, so padding
        # is excluded from the mean
        count = np.outer(*taps).astype(np.float64).reshape(1, 1, *out[2:])
        return out, (kernel, strides, pads, count)
    extra = list(attrs.get("output_padding", [0, 0]))
    if min(kernel) < 1 or min(pads) < 0 or len(extra) != 2 \
            or not all(0 <= e < s for e, s in zip(extra, strides)):
        raise ShapeError(f"ConvTranspose attributes {attrs} do not fit "
                         f"input {x} and weight {w}")
    size = [s * (d - 1) + e + k - lo - hi for d, k, s, lo, hi, e
            in zip(x[2:], kernel, strides, pads[:2], pads[2:], extra)]
    if min(size) < 1:
        raise ShapeError(f"ConvTranspose pads {pads} crop away the output")
    out = (x[0], channels, *size)
    # at stride 1 the one phase is the whole output, so no output is allocated
    return out, (None if strides == [1, 1] else out,
                 _phases(x, kernel, strides, pads, size))


def resolve_node(node: Node, in_shapes: list[tuple[int, ...]]):
    """``(output shapes, kernel parameters)`` of one node on inputs of these
    concrete shapes, or ShapeError / UnsupportedOp naming the node for
    operands or attributes its kernel cannot run on, and ValidationError for
    a node ``_check_signature`` refuses.

    The parameters are window geometry, the ``ConvTranspose`` output shape
    and phase table, the ``AveragePool`` divisor plane, and the indices,
    axes, permutation, widths, extents and scalars of other ops with their
    defaults filled in, or the attribute dict of an op with nothing to
    resolve.
    """
    _check_signature(node, len(in_shapes))
    try:
        return _resolve(node, in_shapes)
    except (ShapeError, UnsupportedOp) as exc:
        raise type(exc)(f"node {node.name!r}: {exc}") from exc


def _resolve(node: Node, in_shapes: list[tuple[int, ...]]):
    op = node.op_type
    attrs = node.attributes

    if op in ("Add", "Sub", "Mul", "Div", "Greater"):
        return [broadcast_shapes(in_shapes[0], in_shapes[1])], attrs
    if op == "Where":
        return [broadcast_shapes(broadcast_shapes(in_shapes[0], in_shapes[1]),
                                 in_shapes[2])], attrs
    if op in ("Relu", "Sigmoid", "Tanh", "Exp", "Abs"):
        return [in_shapes[0]], attrs
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
