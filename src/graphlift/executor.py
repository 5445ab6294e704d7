"""Reference interpreter for the supported operator set.

Every kernel is a pure function of numpy arrays, so repeated execution of the
same model on the same feed is bit-deterministic.  Semantics follow the ONNX
operator definitions for the supported configurations: multidirectional
broadcasting on binary ops, NCHW layout for convolutions and pools, and
average pooling that excludes padding from the divisor.

Kernels check and resolve nothing, the ``Constant`` kernel included.
A node's law returns the parameters its kernel runs on at the input
shapes, such as window geometry, the ``AveragePool`` divisor plane, a
mean's element count or the ``Transpose`` permutation.
``ir._check_signature`` is the one node check (``validate_model`` adds only
graph-level ones), and each node passes it once before its law runs:
``shapes.resolve_node`` runs the check and then the law, for
``run_kernel`` and ``GraphBuilder.add``; ``ExecutionPlan`` checks every
node once when it is built and then calls the law alone
(``shapes.resolve_checked``), for each constant step once and all its
other steps once per feed shape.  At compile time ``GraphBuilder.add``
resolves each node once and keeps its parameters, which the gradient
rules read, so a compile makes no other law call.  Each op has one kernel,
whoever calls it, and no strided window view is built on geometry the law
refuses.

Convolutions are GEMMs.  ``Conv`` copies each image's windows into a
(C·kh·kw, N) matrix (im2col) and multiplies the filters into it, one chunk
of images at a time, so the window matrices of a chunk fit a fixed budget
(``_CHUNK_BYTES``, within one core's L2) however large the batch.  At unit
stride each row of that matrix is one contiguous run of the framed image,
read flat; a strided ``Conv`` copies its window view.  A padded ``Conv``
frames each chunk of images on its own, never the whole batch.
``ConvTranspose`` is one unit-stride ``Conv`` too, so it never multiplies
the zeros of a dilated input: the taps of every stride phase of its output
are stacked into one filter (the sub-pixel identity), and each chunk's
product is copied block by block into the phases' strided output slices.
When W is a constant, the plan gathers that filter once per feed shape.

``MaxPool`` keeps a running maximum over the taps and ``Sigmoid`` computes
both signs from exp(-|x|), each with the per-element operations of the
plain reduction or two-branch form, so their outputs are the same bits,
a NaN's sign bit aside.

Execution is planned once per model.  ``ExecutionPlan`` takes the nodes in
their declared dependency order and gives every value an integer slot.  A
*constant step*, one whose inputs are all initializers or outputs of earlier
constant steps, runs once, when the plan is built, and its outputs are kept
read-only; a ``Constant`` is the no-input case.  An artifact ships each
constant it can rebuild from its payloads this way, such as a reference
activation or a max-pool rank mask (see ``refopt``), so it costs nothing
per explain.  Once the constant steps have run, the plan drops every
constant that no step reads and no output names, such as the values
between a rebuilt constant and its payloads.  Every other node is a
step: the plan records where each intermediate is read for the last time
and which values are scanned for non-finite elements.  Once per feed shape
it prepares one list of ready steps, each holding its node, an
``operator.itemgetter`` over its input slots, its output slot or slots,
its frees, its resolved parameters and its scan positions.  ``execute`` is
then one loop over that list: per step one unpack, one gather of the
operands as a sequence and one ``eval_node`` call, the one dispatch point,
looked up in this module at each call so that a wrapper put in its place
sees every step; then the scans the plan marks, the store of the outputs
(a lone one without a ``zip``) and the drop of every intermediate after its
last consumer.  ``execute`` takes a plan, or a
model that it plans on the spot, so a model edited between calls is never
run from a stale plan.  An ``ExplainerArtifact`` builds its plan on its
first ``explain`` and keeps it, so an artifact must not be changed after
that.

The plan scans a value only where a non-finite element could stop.  An
operand slot is *preserving* when every non-finite element in it gives a
non-finite output element (every operand of ``Add``, ``Sub``, ``Mul`` and
``Concat``, the numerator of ``Div``, the operand of ``Reshape``,
``Flatten``, ``Transpose``, ``Tile``, ``Abs`` and the reduces); every other
slot is a *breaker*, which may hide one (a ``Where`` branch, a ``Div``
denominator, an ``Equal`` operand, ``Relu`` of -inf, a GEMM, a pool).  A
value that may hold a non-finite element (a comparison's bool output, a
*mask*, never does, nor does a ``Cast`` of a mask or an ``Add`` of one over
finite operands) is scanned when a breaker reads it, when it is a graph
output or when nothing reads it; a value that only preserving slots read
hands its non-finite elements on, and the scan of a value downstream finds
them.  A scan is ``ir.all_finite``, the
check ``TensorValue`` and the builder's fold make too: one reduction (the
sum of the squares, which is finite exactly when every element is, unless
the squares overflow), with the exact per-element test as its fallback.
When a scan fails, ``execute`` replays the request scanning every output of
every step, so the NumericError names the first node that made a non-finite
value.

The reductions call their ufunc, ``np.add.reduce`` or ``np.maximum.reduce``,
with no numpy wrapper around it, and a mean divides its sum in place by the
``np.intp`` element count its law resolved, as ``np.mean`` does, so each
gives ``np.sum``'s, ``np.mean``'s or ``ndarray.max``'s bits.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from operator import itemgetter

import numpy as np

from .errors import NumericError, ShapeError, ValidationError
from .ir import (DTYPES, GraphModel, Node, ValueSpec, _as_array, _check_signature,
                 _unproduced, all_finite)
from .shapes import resolve_checked, resolve_node

__all__ = ["ExecutionPlan", "execute", "eval_node", "run_kernel"]


def _sigmoid(x):
    """1 / (1 + e) where x >= 0 and e / (1 + e) elsewhere, e = exp(-|x|):
    e never overflows, and each element takes the same operations as in
    the two-branch form, without a masked gather or scatter."""
    e = np.empty_like(x)
    np.exp(np.negative(np.abs(x, out=e), out=e), out=e)
    out = np.add(e, 1, out=np.empty_like(e))
    # the numerator 1 where x >= 0: there e <= 1, so the maximum with True
    # is exactly 1; elsewhere the maximum with False keeps e (or its NaN)
    np.maximum(e, x >= 0, out=e)
    return np.divide(e, out, out=out)


def _framed(x, pads, fill=0.0):
    """x inside a border of ``fill``, ``pads`` as [top, left, bottom, right];
    x itself when every pad is 0."""
    if not any(pads):
        return x
    b, c, h, w = x.shape
    out = np.full((b, c, h + pads[0] + pads[2], w + pads[1] + pads[3]), fill,
                  dtype=x.dtype)
    out[:, :, pads[0]:pads[0] + h, pads[1]:pads[1] + w] = x
    return out


def _window_views(x, kernel, strides):
    """(B, C, kh, kw, Ho, Wo) strided view over an already framed NCHW array."""
    x = np.ascontiguousarray(x)  # np.ndarray takes a contiguous buffer only
    (b, c, h, w), (kh, kw), (sh, sw) = x.shape, kernel, strides
    ho, wo = (h - kh) // sh + 1, (w - kw) // sw + 1
    sb, sc, s2, s3 = x.strides
    return np.ndarray((b, c, kh, kw, ho, wo), x.dtype, x, 0,
                      (sb, sc, s2, s3, s2 * sh, s3 * sw))


# bytes of one chunk's window matrix, small enough to stay in one core's L2
_CHUNK_BYTES = 512 * 1024


def _conv(x, w, bias, strides, pads, out=None, blocks=None):
    """im2col and one GEMM per chunk of images: each image's (C·kh·kw, N)
    window matrix, left-multiplied by the (O, C·kh·kw) filters, is its NCHW
    output.  A chunk holds as many images as fit ``_CHUNK_BYTES`` (at least
    one), so the copy lands in cache and the workspace does not grow with
    the batch; each image's GEMM is the same whatever the chunk, so a row's
    output does not depend on the rows beside it.  A padded Conv frames one
    chunk at a time, never the whole batch.

    At unit stride the framed image is read flat: tap (i, j) of output
    (r, q) is flat element (r + i)·Wp + q + j, so each (channel, tap)
    row of the window matrix is one contiguous run of N = (Ho-1)·Wp + Wo
    elements.  The GEMM then computes Wp columns per output row, of which
    the first Wo are kept.  A strided Conv copies its (C, kh, kw, Ho, Wo)
    window view instead, N = Ho·Wo, since a flat read would compute about
    sh times the columns it keeps.

    With ``blocks``, a list of (output slice, product block) pairs, each
    chunk's product is copied block by block into those slices of ``out``,
    so it is never held for the whole batch; without, the product is the
    output.  The bias is added once, to the whole output.
    """
    o, c, kh, kw = w.shape
    b, _, h, wd = x.shape
    hp, wp = h + pads[0] + pads[2], wd + pads[1] + pads[3]
    (sh, sw), size = strides, x.itemsize
    ho, wo = (hp - kh) // sh + 1, (wp - kw) // sw + 1
    # the columns of one (channel, tap) row of an image's window matrix, and
    # the pitch of an output row among them
    if sh == sw == 1:
        n, pitch = (ho - 1) * wp + wo, wp
        columns, column_strides = (n,), (size,)
    else:
        n, pitch = ho * wo, wo
        columns, column_strides = (ho, wo), (sh * wp * size, sw * size)
    view_strides = (c * hp * wp * size, hp * wp * size, wp * size,
                    size) + column_strides
    chunk = max(1, _CHUNK_BYTES // max(1, c * kh * kw * n * size))
    if out is None:
        out = np.empty((b, o, ho, wo), np.result_type(x, w))
    filters = w.reshape(o, c * kh * kw)
    # a padded chunk is copied into the interior of one zero frame, which
    # every chunk reuses and whose border is never written
    frame = np.zeros((min(chunk, b), c, hp, wp), x.dtype) if any(pads) else None
    # with no column to drop and no block to place, the GEMM writes straight
    # into the output; otherwise into one product buffer every chunk reuses
    buffer = None if blocks is None and n == ho * wo else np.empty(
        (min(chunk, b), o, n), out.dtype)
    for start in range(0, b, chunk):
        k = min(chunk, b - start)
        images = x[start:start + k]
        if frame is not None:
            frame[:k, :, pads[0]:pads[0] + h, pads[1]:pads[1] + wd] = images
            images = frame[:k]
        windows = np.ndarray((k, c, kh, kw) + columns, x.dtype,
                             np.ascontiguousarray(images), 0, view_strides)
        # the window matrix is a copy, except for 1x1 taps at unit stride,
        # where it is the framed images themselves
        gemm = np.matmul(filters, windows.reshape(k, c * kh * kw, n),
                         out=out[start:start + k].reshape(k, o, n)
                         if buffer is None else buffer[:k])
        if buffer is None:
            continue
        item = gemm.itemsize
        product = np.ndarray((k, o, ho, wo), gemm.dtype, gemm, 0,
                             (o * n * item, n * item, pitch * item, item))
        if blocks is None:
            out[start:start + k] = product
        else:
            part = out[start:start + k]
            for rows, block in blocks:
                part[rows] = product[block]
    if bias is not None:
        out += bias.reshape(1, -1, 1, 1)
    return out


def _stacked_filter(w, index, holes):
    """The stacked filter ``index`` gathers from W's flat values and, when
    ``holes``, from one zero slot after them (``shapes._stacked``)."""
    flat = w.reshape(-1)
    if holes:
        flat = np.concatenate((flat, np.zeros(1, w.dtype)))
    return flat[index]


def _conv_transpose(x, w, bias, geometry):
    """ConvTranspose over the stacked geometry its law resolved for these
    shapes (``shapes._stacked``): one unit-stride Conv of the cropped and
    framed x by the filter of every live stride phase, gathered from W's
    flat values and, where a phase reads no tap, from one zero slot after
    them; each chunk's product is copied block by block into the phases'
    strided output slices.  At stride 1 the Conv's output is the output.
    A geometry whose ``holes`` is None holds that filter itself in place
    of its index: the plan gathers it once per feed shape from a constant
    W (``ExecutionPlan.verify``).

    A zero tap multiplies x cells its phase does not read, so a non-finite
    x cell may make NaN in an output cell that does not depend on it.  An
    operand of a GEMM is a breaker slot, so the plan scans a computed x
    before this kernel reads it.
    """
    index, holes, crop, frame, shape, tiled, blocks = geometry
    filters = index if holes is None else _stacked_filter(w, index, holes)
    out = None if shape is None else (np.empty if tiled else np.zeros)(
        shape, np.result_type(x, w))
    return _conv(x[crop], filters, bias, [1, 1], frame, out, blocks)


def _max_pool(x, geometry):
    """The running maximum over the taps, from tap (0, 0) on, in place."""
    kernel, strides, pads = geometry
    framed = _framed(x, pads, np.finfo(x.dtype).min)
    view = _window_views(framed, kernel, strides)
    out = view[:, :, 0, 0].copy()
    for i in range(kernel[0]):
        for j in range(kernel[1]):
            if i or j:
                np.maximum(out, view[:, :, i, j], out=out)
    return out


def _avg_pool(x, geometry):
    kernel, strides, pads, count = geometry
    total = np.add.reduce(_window_views(_framed(x, pads), kernel, strides), (2, 3))
    # the count plane is float64; dividing in x's dtype keeps float32 float32
    return np.divide(total, count, out=total, dtype=total.dtype)


def _mean(x, axes, keepdims, count):
    """``np.mean`` without its wrappers: the sum over ``axes``, divided in
    place by the ``np.intp`` element count as numpy's own mean does (in
    float64, rounded back to float32 for a float32 sum), so the bits are
    the same."""
    total = np.add.reduce(x, axes, None, None, keepdims)
    if isinstance(total, np.ndarray):
        return np.true_divide(total, count, out=total, casting="unsafe")
    return total.dtype.type(total / count)   # every axis reduced to a scalar


def _softmax(x):
    """Softmax over the last axis, the one axis its law takes."""
    # a shift below -finfo.max rounds to -inf, whose exp is the exact weight 0
    ex = np.subtract(x, np.maximum.reduce(x, -1, None, None, True))
    np.exp(ex, out=ex)
    return np.divide(ex, np.add.reduce(ex, -1, None, None, True), out=ex)


def _gemm(inputs, trans_b, alpha, beta):
    a, b = inputs[0], inputs[1]
    out = a @ (b.T if trans_b else b)
    if alpha != 1.0:
        out = alpha * out
    if len(inputs) == 3:
        out = out + (inputs[2] if beta == 1.0 else beta * inputs[2])
    return out


def _batch_norm(inputs, eps):
    x, scale, bias, mean, var = inputs
    shape = (1, -1) + (1,) * (x.ndim - 2)
    k = scale.reshape(shape) / np.sqrt(var.reshape(shape) + eps)
    # x·k + (bias - mean·k), the sum taken in place of a second temporary
    out = np.multiply(x, k)
    return np.add(out, bias.reshape(shape) - mean.reshape(shape) * k, out=out)


def _where(cond, a, b):
    if cond.dtype != np.bool_:
        cond = cond != 0
    return np.where(cond, a, b)


# op_type -> kernel(inputs, parameters) returning one array per output
_KERNELS = {
    "MatMul": lambda x, p: [np.matmul(x[0], x[1])],
    "Gemm": lambda x, p: [_gemm(x, *p)],
    "Conv": lambda x, p: [_conv(x[0], x[1], x[2] if len(x) == 3 else None, *p)],
    "Add": lambda x, p: [x[0] + x[1]],
    "Sub": lambda x, p: [x[0] - x[1]],
    "Mul": lambda x, p: [x[0] * x[1]],
    "Div": lambda x, p: [x[0] / x[1]],
    "Concat": lambda x, p: [np.concatenate(x, axis=p)],
    "Relu": lambda x, p: [np.maximum(x[0], 0)],
    "Sigmoid": lambda x, p: [_sigmoid(x[0])],
    "Tanh": lambda x, p: [np.tanh(x[0])],
    "Exp": lambda x, p: [np.exp(x[0])],
    "Softmax": lambda x, p: [_softmax(x[0])],
    "MaxPool": lambda x, p: [_max_pool(x[0], p)],
    "AveragePool": lambda x, p: [_avg_pool(x[0], p)],
    "GlobalAveragePool": lambda x, p: [_mean(x[0], (2, 3), True, p)],
    "GlobalMaxPool": lambda x, p: [
        np.maximum.reduce(x[0], (2, 3), None, None, True)],
    "BatchNormalization": lambda x, p: [_batch_norm(x, p)],
    "Transpose": lambda x, p: [np.ascontiguousarray(x[0].transpose(p))],
    "Reshape": lambda x, p: [x[0].reshape(p["shape"])],
    "Flatten": lambda x, p: [x[0].reshape(p)],
    "ReduceSum": lambda x, p: [np.add.reduce(x[0], p[0], None, None, p[1])],
    "ReduceMean": lambda x, p: [_mean(x[0], *p)],
    "Greater": lambda x, p: [x[0] > x[1]],
    "Equal": lambda x, p: [x[0] == x[1]],
    "Cast": lambda x, p: [x[0].astype(p)],
    "Where": lambda x, p: [_where(x[0], x[1], x[2])],
    "Tile": lambda x, p: [np.tile(x[0], p["repeats"])],
    "Split": lambda x, p: [np.ascontiguousarray(x[0][index]) for index in p],
    "Constant": lambda x, p: [
        np.asarray(p["value"], dtype=DTYPES[p["dtype"]]).reshape(p["shape"])],
    "Abs": lambda x, p: [np.abs(x[0])],
    "Pad": lambda x, p: [np.pad(x[0], p[0], constant_values=p[1])],
    "ConvTranspose": lambda x, p: [_conv_transpose(
        x[0], x[1], x[2] if len(x) == 3 else None, p)],
}

# Ops whose kernel cannot turn finite operands into a non-finite value: they
# select, copy, compare, take maxima or are bounded (Sigmoid, Tanh,
# Softmax).  Pad is one only while its fill value is finite.
_FINITE_CLOSED = frozenset({
    "Where", "Greater", "Equal", "Reshape", "Flatten", "Transpose", "Concat",
    "Split", "Abs", "Relu", "MaxPool", "GlobalMaxPool", "Tile", "Sigmoid",
    "Tanh", "Softmax", "Pad"})

# ops whose bool output holds 0 and 1 only, a *mask*, as does a Cast of a mask
_COMPARISONS = frozenset({"Greater", "Equal"})


def _closed_over_finite(node: Node, masks=()) -> bool:
    """Whether ``node`` gives finite outputs whenever its inputs are finite.
    ``masks`` flags each operand that is a mask (``_COMPARISONS``): a Cast
    of one gives 0 and 1, and an Add of one moves its other operand by at
    most 1, which rounds to a finite value, since |x + m| <= |x| + 1 and
    finfo.max + 1 rounds to finfo.max."""
    if node.op_type in ("Cast", "Add") and any(masks):
        return True
    return node.op_type in _FINITE_CLOSED and (
        node.op_type != "Pad" or math.isfinite(node.attributes.get("value", 0.0)))


# op -> its preserving operand slots, None for every slot.  A slot is
# preserving when every non-finite element in it gives a non-finite output
# element: NaN stays NaN; an infinity plus, minus, times or over anything is
# infinite or NaN (inf - inf, inf * 0 and inf / inf are NaN); a sum or mean
# with an infinite term is infinite or NaN; a reshape, transpose, tile,
# concatenation or absolute value keeps every element.  Every other slot is
# a breaker, which may hide one: a Where branch may go unselected, a Div
# denominator of inf gives 0, Relu, Exp, Sigmoid, Tanh, Softmax and the
# pools map -inf to finite values, and BLAS may skip a zero operand of a
# GEMM.  An op not argued here (Split, Pad, Greater, Equal, Cast,
# BatchNormalization) counts as a breaker.
_PRESERVING = {
    "Add": None, "Sub": None, "Mul": None, "Concat": None, "Div": (0,),
    "Reshape": (0,), "Flatten": (0,), "Transpose": (0,), "Tile": (0,),
    "Abs": (0,), "ReduceSum": (0,), "ReduceMean": (0,)}


def _preserves(op_type: str, slot: int) -> bool:
    """Whether operand ``slot`` of ``op_type`` is a preserving one."""
    slots = _PRESERVING.get(op_type, ())
    return slots is None or slot in slots


def eval_node(node: Node, inputs, params) -> list[np.ndarray]:
    """Apply one operator to concrete arrays; returns one array per output.

    ``inputs`` is a sequence of the node's operands in order, a list or a
    tuple.  ``params`` is what the node's law (``resolve_node`` or
    ``resolve_checked``) returned for it at the inputs' shapes.  Every
    kernel takes its dtype from its operands or, for ``Constant``, its
    attributes.  This is the one dispatch point: every
    kernel call, of a plan's step, a constant step or ``run_kernel``, goes
    through it.
    """
    try:
        return _KERNELS[node.op_type](inputs, params)
    except ValueError as exc:
        raise ShapeError(f"{node.op_type}: {exc}") from exc


def run_kernel(op_type: str, inputs: list[np.ndarray], attrs: dict | None = None,
               n_outputs: int = 1) -> list[np.ndarray]:
    """One op on concrete arrays without a pre-built Node: its shape law,
    then its kernel on the parameters the law resolved, under the error
    state ``execute`` and the builder's fold run every kernel in."""
    node = Node(op_type, "anon", [f"i{k}" for k in range(len(inputs))],
                [f"o{k}" for k in range(n_outputs)], dict(attrs or {}))
    _, params = resolve_node(node, [x.shape for x in inputs])
    with np.errstate(all="ignore"):
        return eval_node(node, inputs, params)


def _coerce_input(spec: ValueSpec, feed: Mapping) -> np.ndarray:
    name = spec.name
    if name not in feed:
        raise ShapeError(f"feed is missing graph input {name!r}")
    arr = feed[name]
    if arr.__class__ is not np.ndarray:   # an ndarray is taken as it is
        arr = _as_array(arr, None, f"input {name!r}")
    if arr.dtype != DTYPES[spec.dtype]:
        raise ShapeError(
            f"input {name!r} has dtype {arr.dtype}, model wants {spec.dtype}")
    if len(arr.shape) != len(spec.shape):
        raise ShapeError(
            f"input {name!r} has rank {arr.ndim}, spec is {spec.shape}")
    for i, (got, want) in enumerate(zip(arr.shape, spec.shape)):
        if want != -1 and got != want:
            raise ShapeError(
                f"input {name!r} extent {got} at axis {i} does not match "
                f"spec {spec.shape}")
    return arr


class ExecutionPlan:
    """A model resolved once for repeated execution.

    The plan holds the nodes in declaration order, which is dependency order,
    with every value name replaced by an integer slot; a node that
    ``ir._check_signature`` refuses, or that reads a name no earlier node,
    graph input or initializer produced, raises ValidationError naming it,
    as does a graph output declared twice.  That check runs here, once per
    node, and every law the plan calls afterwards is
    ``shapes.resolve_checked``, which does not run it again.  A
    node whose inputs are all constants (initializers or outputs of earlier
    such nodes; a ``Constant`` has none) is resolved and run once, here,
    under the error state ``execute`` uses; its outputs join the constants,
    read-only, and the first one that is not finite is recorded and raised
    as NumericError naming it on every ``execute``.  Once they have all
    run, a constant that no step reads and no output names is dropped.
    Every other node is a step, and the plan holds per step the slots it
    reads for the last time, so that an intermediate is dropped as soon as
    its last consumer has run.  It keeps the initializer arrays it holds by
    reference and reads nothing else from the model after it is built: a
    model changed afterwards, initializer contents included, needs a new
    plan.

    Checks run here, not in the kernels.  ``verify`` resolves every step
    on the concrete shapes of a feed: ``resolve_checked`` runs the step's
    law and returns the parameters its kernel takes at those shapes (window
    geometry, the ``ConvTranspose`` stacked geometry, the ``AveragePool``
    divisor plane, a mean's element count), and the ready steps ``execute``
    runs are prepared from them.  That
    happens the first time the plan sees those feed shapes and again only
    when they change, so a plan over a free-batch model resolves and
    prepares again when the batch changes.  The feed shapes and the ready
    steps prepared for them are replaced as one value, ``resolved``, so a
    feed never runs on parameters resolved for another's shapes.  A law
    that refuses raises ShapeError, UnsupportedOp or ValidationError naming
    the node, before any kernel of that feed runs.

    A scan after every step names the first node whose output holds a
    non-finite value.  By induction over the order (a non-finite constant
    stops ``execute`` before the first step), that node's op
    can turn finite operands into a non-finite value (it is not closed over
    finite values) or it reads the feed or an initializer that was not
    finite when the plan was built: any other step reads finite values only
    and gives finite outputs.

    The plan scans fewer values than that, decided per output slot.  A value
    is *tainted* when it may hold a non-finite element that no scan has
    seen: the feed, a non-finite initializer, and the outputs of a step
    that is not closed over finite values (``_closed_over_finite``: one
    outside ``_FINITE_CLOSED``, but for a ``Cast`` or an ``Add`` that reads
    a mask) or that reads a tainted value, a comparison's aside.  A tainted
    output is scanned when a breaker slot reads it (see ``_PRESERVING``),
    when it is a graph output or when nothing reads it; once scanned it is
    no longer tainted.  A tainted value that is not
    scanned is read by preserving slots only, so each of its non-finite
    elements reaches a non-finite element of a reader's output, tainted in
    turn, and so on until a scanned value holds one.  Hence a request with
    a non-finite value fails some scan, and ``execute`` then replays it
    scanning every output to name the node.  No scan checks the feed or an
    initializer itself, only what steps make of them.  An empty output
    keeps none of its preserving operands' elements, so a feed whose shapes
    give one has every output scanned throughout.
    """

    def __init__(self, model: GraphModel):
        self.slots: dict[str, int] = {}
        self.template: list[np.ndarray | None] = []
        # (node name, value name) of the first non-finite constant output
        self.non_finite: tuple[str, str] | None = None
        # (feed shapes every step was last resolved on, the ready steps
        # prepared at those shapes), replaced as one value
        self.resolved: tuple[tuple | None, list] = (None, [])
        self.feed = [(spec, self._claim(spec.name, None)) for spec in model.inputs]
        initial = {self._claim(name, tensor.array): tensor.array
                   for name, tensor in model.initializers.items()}
        tainted = {slot for _, slot in self.feed}
        tainted.update(slot for slot, arr in initial.items() if not all_finite(arr))
        steps = []
        for node in model.nodes:
            # the node's one check: before the scan schedule below reads an
            # attribute, and every law the plan calls skips it
            _check_signature(node, len(node.inputs))
            for name in node.inputs:
                if name not in self.slots:
                    raise _unproduced(node, name)
            args = [self.template[self.slots[name]] for name in node.inputs]
            if all(arg is not None for arg in args):
                self._constant_step(node, args)
                continue
            ins = tuple(self.slots[name] for name in node.inputs)
            outs = tuple(self._claim(name, None) for name in node.outputs)
            steps.append((node, ins, outs))
        self.outputs: list[tuple[str, int]] = []
        for spec in model.outputs:
            if spec.name not in self.slots:
                raise ShapeError(f"graph output {spec.name!r} was never computed")
            if (spec.name, self.slots[spec.name]) in self.outputs:
                raise ValidationError(f"duplicate graph output {spec.name!r}")
            self.outputs.append((spec.name, self.slots[spec.name]))
        kept = {slot for _, slot in self.outputs}

        # where a non-finite element would stop or leave the plan: a
        # breaker's operands, the graph outputs and the values nothing reads
        read, stops = set(), set(kept)
        for node, ins, _ in steps:
            read.update(ins)
            stops.update(slot for k, slot in enumerate(ins)
                         if not _preserves(node.op_type, k))
        stops.update(slot for _, _, outs in steps for slot in outs
                     if slot not in read)
        # every constant step has run: a constant that no step reads and no
        # output names is dropped
        for slot in range(len(self.template)):
            if slot not in read and slot not in kept:
                self.template[slot] = None
        self.scans, masks = [], set()
        for node, ins, outs in steps:
            flags = [slot in masks for slot in ins]
            if node.op_type in _COMPARISONS or node.op_type == "Cast" and flags[0]:
                masks.update(outs)
            # a comparison's bool output cannot hold a non-finite value
            every = () if node.op_type in _COMPARISONS else tuple(range(len(outs)))
            if not _closed_over_finite(node, flags) or not tainted.isdisjoint(ins):
                tainted.update(outs[k] for k in every if outs[k] not in stops)
                self.scans.append(tuple(k for k in every if outs[k] in stops))
            else:
                self.scans.append(())

        last_read: dict[int, int] = {}
        for k, (_, ins, outs) in enumerate(steps):
            for slot in ins:
                last_read[slot] = k
            for slot in outs:
                last_read.setdefault(slot, k)   # never read: free at once
        frees: list[list[int]] = [[] for _ in steps]
        for slot, k in last_read.items():
            if slot not in kept:
                frees[k].append(slot)
        self.steps = [(node, ins, outs, tuple(free)) for
                      (node, ins, outs), free in zip(steps, frees)]

    def verify(self, values: list) -> list[tuple]:
        """Resolve every step on the shapes of ``values``, a slot list with
        the feed filled in, unless the feed shapes are the ones last
        resolved, and return the ready steps for those shapes.  Each step
        runs its law alone (``resolve_checked``): the plan checked every
        node's signature when it was built.

        A ready step is what ``_run`` takes per step, in step order:
        ``(node, gather, out, frees, params, scan)``.  ``gather`` is an
        ``operator.itemgetter`` that takes the step's operands out of the
        slot list as one sequence; ``out`` is its output slot when it has
        one output and the tuple of its output slots otherwise; ``frees``
        are the slots it reads for the last time; ``params`` are its kernel
        parameters at these shapes, with a ``ConvTranspose``'s stacked
        filter gathered here when its W is a constant; ``scan`` holds the
        positions of its outputs to scan, ``scans``' entry or, when some
        output is empty at these shapes, every output position."""
        fed = tuple(values[slot].shape for _, slot in self.feed)
        verified, ready = self.resolved
        if fed == verified:
            return ready
        shapes = [None if v is None else v.shape for v in values]
        params, empty = [], False
        for node, ins, outs, _ in self.steps:
            out_shapes, step_params = resolve_checked(node, [shapes[s] for s in ins])
            w = self.template[ins[1]] if node.op_type == "ConvTranspose" else None
            if w is not None:
                # a constant filter is stacked once per feed shape, not per call
                index, holes, *rest = step_params
                step_params = (_stacked_filter(w, index, holes), None, *rest)
            for slot, shape in zip(outs, out_shapes):
                shapes[slot] = shape
                empty = empty or 0 in shape
            params.append(step_params)
        scans = self.every_output() if empty else self.scans
        ready = [(node, _gather(ins), outs[0] if len(outs) == 1 else outs,
                  frees, step_params, scan)
                 for (node, ins, outs, frees), step_params, scan
                 in zip(self.steps, params, scans)]
        self.resolved = (fed, ready)
        return ready

    def every_output(self) -> list[range]:
        """Every output position of every step, in step order."""
        return [range(len(outs)) for _, _, outs, _ in self.steps]

    def _constant_step(self, node: Node, args: list[np.ndarray]) -> None:
        """Run a step whose inputs are all constants, once, on the law
        alone (``__init__`` has checked the node): its outputs become
        read-only constants of the plan, and the first non-finite one is
        recorded."""
        _, params = resolve_checked(node, [arg.shape for arg in args])
        with np.errstate(all="ignore"):
            results = eval_node(node, args, params)
        for name, arr in zip(node.outputs, results):
            arr.flags.writeable = False
            if self.non_finite is None and not all_finite(arr):
                self.non_finite = (node.name, name)
            self._claim(name, arr)

    def _claim(self, name: str, value) -> int:
        if name in self.slots:
            raise ValidationError(f"value {name!r} is produced more than once")
        self.slots[name] = len(self.template)
        self.template.append(value)
        return self.slots[name]


def _gather(ins: tuple[int, ...]) -> itemgetter:
    """An itemgetter that takes the operands in slots ``ins`` out of a slot
    list as one sequence: a tuple, or for one operand a one-element list,
    as an itemgetter of one index would return the bare operand."""
    return itemgetter(*ins) if len(ins) > 1 else itemgetter(
        slice(ins[0], ins[0] + 1))


def _run(ready: list[tuple], values: list, capture: bool):
    """Run the ready steps into ``values``, scanning the outputs each one
    names.  Returns (node, output position) of the first scan that finds a
    non-finite value, or None.  Each step is dispatched through the module's
    ``eval_node``, looked up at the call, so a wrapper put in its place sees
    every step."""
    for node, gather, out, frees, params, scan in ready:
        results = eval_node(node, gather(values), params)
        for k in scan:
            if not all_finite(results[k]):
                return node, k
        if out.__class__ is int:
            values[out] = results[0]
        else:
            for slot, arr in zip(out, results):
                values[slot] = arr
        if not capture:
            for slot in frees:
                values[slot] = None
    return None


def execute(model_or_plan: GraphModel | ExecutionPlan, feed: Mapping,
            capture: bool = False):
    """Run a model, or a plan built from one, on a feed.

    A model is planned on the spot, so it may change between calls; a caller
    that runs one model many times builds an ``ExecutionPlan`` once and
    passes that.  Returns ``(outputs, trace)`` where outputs maps each
    declared graph output to its array and trace maps every value name to its
    array when ``capture`` is set (None otherwise); in the trace a constant
    that no step reads and no output names maps to None, as the plan drops
    it once built.  Without ``capture`` each intermediate is released after
    its last consumer runs.  The first
    node whose output holds a NaN or an infinity raises NumericError.  An
    input given as an ndarray is run as it is, anything else through
    ``np.asarray``.  A feed that is no mapping or has no numeric array for
    an input raises ValidationError, a wrong dtype, rank or extent
    ShapeError.
    """
    plan = model_or_plan if isinstance(model_or_plan, ExecutionPlan) \
        else ExecutionPlan(model_or_plan)
    if not isinstance(feed, Mapping):
        raise ValidationError("the feed must map graph input names to arrays, "
                              f"not be a {type(feed).__name__}")
    fed = [(slot, _coerce_input(spec, feed)) for spec, slot in plan.feed]
    values = list(plan.template)
    for slot, arr in fed:
        values[slot] = arr
    ready = plan.verify(values)
    if plan.non_finite is not None:
        raise NumericError("node {!r} produced non-finite values in {!r}"
                           .format(*plan.non_finite))
    # the scans report an overflow as a NumericError naming its node, not a
    # warning; one error state per call, as one per step costs like a kernel
    with np.errstate(all="ignore"):
        failed = _run(ready, values, capture)
        if failed is not None:
            # kernels are deterministic, so the replay scanning every output
            # stops at the first node that made a non-finite value
            values = list(plan.template)
            for slot, arr in fed:
                values[slot] = arr
            every = [step[:-1] + (scan,)
                     for step, scan in zip(ready, plan.every_output())]
            failed = _run(every, values, False) or failed
            node, k = failed
            raise NumericError(f"node {node.name!r} produced non-finite "
                               f"values in {node.outputs[k]!r}")
    outputs = {name: values[slot] for name, slot in plan.outputs}
    trace = {name: values[slot] for name, slot in plan.slots.items()} \
        if capture else None
    return outputs, trace
