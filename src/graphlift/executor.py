"""Reference interpreter for the supported operator set.

Every kernel is a pure function of numpy arrays, so repeated execution of the
same model on the same feed is bit-deterministic.  Semantics follow the ONNX
operator definitions for the supported configurations: multidirectional
broadcasting on binary ops, NCHW layout for convolutions and pools, and
average pooling that excludes padding from the divisor.

Kernels check and resolve nothing, the ``Constant`` kernel included.
``shapes.resolve_node`` is each node's one resolution: it checks the node
(a ``Constant``'s dtype too) and returns the parameters its kernel runs on
at those input shapes, such as window geometry or the ``AveragePool``
divisor plane.  ``ExecutionPlan`` resolves all its steps once per feed
shape; ``run_kernel`` and ``GraphBuilder.add`` resolve their one node on
the spot.  Each op has one kernel, whoever calls it, and no strided window
view is built on geometry the law refuses.

Convolutions are GEMMs.  ``Conv`` copies each image's windows into a
(C·kh·kw, Ho·Wo) matrix (im2col) and multiplies the filters into it;
``ConvTranspose`` is one such unit-stride ``Conv`` per stride phase of its
output, so it never multiplies the zeros of a dilated input.

Execution is planned once per model.  ``ExecutionPlan`` takes the nodes in
their declared dependency order, gives every value an integer slot,
materializes the ``Constant`` outputs once (read-only), records where each
intermediate is read for the last time and which steps need a finiteness
scan; ``execute`` is then one loop over the plan that dispatches each step
through ``eval_node`` with its resolved parameters, scans the outputs of
guarded steps and drops every intermediate after its last consumer.  A step
is left unguarded only where no non-finite value can arise: its op maps
finite inputs to finite outputs and it reads neither the feed nor a
non-finite initializer, so a NumericError names the same node as a scan
after every step would.  ``execute`` takes a plan, or a model that it plans
on the spot, so a model edited between calls is never run from a stale
plan.  An ``ExplainerArtifact`` builds its plan on its first ``explain``
and keeps it, so an artifact must not be changed after that.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericError, ShapeError, ValidationError
from .ir import DTYPES, GraphModel, Node, TensorValue, ValueSpec, _unproduced
from .shapes import resolve_node

__all__ = ["ExecutionPlan", "execute", "eval_node", "run_kernel"]


def _sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


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


def _window_views(x, kernel, strides, dilations):
    """(B, C, kh, kw, Ho, Wo) strided view over an already framed NCHW array."""
    b, c, h, w = x.shape
    kh, kw = kernel
    sh, sw = strides
    dh, dw = dilations
    ho = (h - (kh - 1) * dh - 1) // sh + 1
    wo = (w - (kw - 1) * dw - 1) // sw + 1
    sb, sc, s2, s3 = x.strides
    return np.lib.stride_tricks.as_strided(
        x, shape=(b, c, kh, kw, ho, wo),
        strides=(sb, sc, s2 * dh, s3 * dw, s2 * sh, s3 * sw), writeable=False)


def _conv(x, w, bias, strides, pads, dilations):
    """im2col and one GEMM: the (C·kh·kw, Ho·Wo) window matrix of every
    image, left-multiplied by the (O, C·kh·kw) filters, is already NCHW."""
    view = _window_views(_framed(x, pads), w.shape[2:], strides, dilations)
    b, c, kh, kw, ho, wo = view.shape
    cols = view.reshape(b, c * kh * kw, ho * wo)
    out = np.matmul(w.reshape(w.shape[0], -1), cols).reshape(b, -1, ho, wo)
    if bias is not None:
        out = out + bias.reshape(1, -1, 1, 1)
    return out


def _conv_transpose(x, w, bias, geometry):
    """ConvTranspose over the output shape and phase table its law resolved
    for these shapes: one unit-stride Conv per phase."""
    shape, phases = geometry
    out = None if shape is None else np.zeros(shape, dtype=x.dtype)
    for rows, taps, crop, frame in phases:
        part = _conv(x[crop], w[taps].transpose(1, 0, 2, 3), None, [1, 1],
                     frame, [1, 1])
        if out is None:
            out = part
        else:
            out[rows] = part
    if bias is not None:
        out = out + bias.reshape(1, -1, 1, 1)
    return out


def _max_pool(x, geometry):
    kernel, strides, pads, dilations = geometry
    framed = _framed(x, pads, np.finfo(x.dtype).min)
    return _window_views(framed, kernel, strides, dilations).max(axis=(2, 3))


def _avg_pool(x, geometry):
    kernel, strides, pads, dilations, count = geometry
    total = _window_views(_framed(x, pads), kernel, strides, dilations).sum(axis=(2, 3))
    # the count plane is float64; dividing in x's dtype keeps float32 float32
    return np.divide(total, count, out=total, dtype=total.dtype)


def _softmax(x, axis):
    # a shift below -finfo.max rounds to -inf, whose exp is the exact weight 0
    with np.errstate(over="ignore"):
        shifted = x - x.max(axis=axis, keepdims=True)
    ex = np.exp(shifted)
    return ex / ex.sum(axis=axis, keepdims=True)


def _gemm(inputs, trans_a, trans_b, alpha, beta):
    a, b = inputs[0], inputs[1]
    out = alpha * ((a.T if trans_a else a) @ (b.T if trans_b else b))
    return out + beta * inputs[2] if len(inputs) == 3 else out


def _batch_norm(inputs, eps):
    x, scale, bias, mean, var = inputs
    shape = (1, -1) + (1,) * (x.ndim - 2)
    k = scale.reshape(shape) / np.sqrt(var.reshape(shape) + eps)
    return x * k + (bias.reshape(shape) - mean.reshape(shape) * k)


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
    "Softmax": lambda x, p: [_softmax(x[0], p)],
    "MaxPool": lambda x, p: [_max_pool(x[0], p)],
    "AveragePool": lambda x, p: [_avg_pool(x[0], p)],
    "GlobalAveragePool": lambda x, p: [x[0].mean(axis=(2, 3), keepdims=True)],
    "GlobalMaxPool": lambda x, p: [x[0].max(axis=(2, 3), keepdims=True)],
    "BatchNormalization": lambda x, p: [_batch_norm(x, p)],
    "Transpose": lambda x, p: [np.ascontiguousarray(x[0].transpose(p["perm"]))],
    "Reshape": lambda x, p: [x[0].reshape(p["shape"])],
    "Flatten": lambda x, p: [x[0].reshape(p)],
    "ReduceSum": lambda x, p: [np.sum(x[0], axis=p[0], keepdims=p[1])],
    "ReduceMean": lambda x, p: [np.mean(x[0], axis=p[0], keepdims=p[1])],
    "Greater": lambda x, p: [x[0] > x[1]],
    "Where": lambda x, p: [_where(x[0], x[1], x[2])],
    "Tile": lambda x, p: [np.tile(x[0], p["repeats"])],
    "Split": lambda x, p: [np.ascontiguousarray(x[0][index]) for index in p],
    "Constant": lambda x, p: [
        np.asarray(p["value"], dtype=DTYPES[p["dtype"]]).reshape(p["shape"])],
    "Abs": lambda x, p: [np.abs(x[0])],
    "Pad": lambda x, p: [np.pad(x[0], p[0], constant_values=p[1])],
    "Slice": lambda x, p: [np.ascontiguousarray(x[0][p])],
    "ConvTranspose": lambda x, p: [_conv_transpose(
        x[0], x[1], x[2] if len(x) == 3 else None, p)],
}

# Ops whose kernel cannot turn finite operands into a non-finite value: they
# select, copy, compare, take maxima or are bounded (Sigmoid, Tanh,
# Softmax).  Pad is one only while its fill value is finite.
_FINITE_CLOSED = frozenset({
    "Where", "Greater", "Reshape", "Flatten", "Transpose", "Slice", "Concat",
    "Split", "Abs", "Relu", "MaxPool", "GlobalMaxPool", "Tile", "Sigmoid",
    "Tanh", "Softmax", "Pad"})


def _closed_over_finite(node: Node) -> bool:
    """Whether ``node`` gives finite outputs whenever its inputs are finite."""
    return node.op_type in _FINITE_CLOSED and (
        node.op_type != "Pad" or math.isfinite(node.attributes.get("value", 0.0)))


def eval_node(node: Node, inputs: list[np.ndarray], params) -> list[np.ndarray]:
    """Apply one operator to concrete arrays; returns one array per output.

    ``params`` is what ``resolve_node`` returned for the node at the inputs'
    shapes.  Every kernel takes its dtype from its operands or, for
    ``Constant``, its attributes.
    """
    try:
        return _KERNELS[node.op_type](inputs, params)
    except ValueError as exc:
        raise ShapeError(f"{node.op_type}: {exc}") from exc


def run_kernel(op_type: str, inputs: list[np.ndarray], attrs: dict | None = None,
               n_outputs: int = 1) -> list[np.ndarray]:
    """One op on concrete arrays without a pre-built Node: its shape law,
    then its kernel on the parameters the law resolved."""
    node = Node(op_type, "anon", [f"i{k}" for k in range(len(inputs))],
                [f"o{k}" for k in range(n_outputs)], dict(attrs or {}))
    _, params = resolve_node(node, [x.shape for x in inputs])
    return eval_node(node, inputs, params)


def _coerce_input(spec: ValueSpec, feed: dict) -> np.ndarray:
    name = spec.name
    if name not in feed:
        raise ShapeError(f"feed is missing graph input {name!r}")
    value = feed[name]
    arr = value.array if isinstance(value, TensorValue) else np.asarray(value)
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


def _finite(arr: np.ndarray) -> bool:
    return arr.dtype == np.bool_ or bool(np.isfinite(arr).all())


class ExecutionPlan:
    """A model resolved once for repeated execution.

    The plan holds the nodes in declaration order, which is dependency order,
    with every value name replaced by an integer slot; a node that reads a
    name no earlier node, graph input or initializer produced raises
    ValidationError naming it.  It also holds the ``Constant`` outputs
    materialized once and made read-only, and per step the slots it reads
    for the last time, so that an intermediate is dropped as soon as its
    last consumer has run.  It keeps the model's initializer arrays by
    reference and reads nothing else from the model after it is built: a
    model changed afterwards, initializer contents included, needs a new
    plan.

    Checks run here, not in the kernels.  A ``Constant`` is resolved when
    the plan is built.  ``verify`` resolves every step on the concrete shapes
    of a feed: ``resolve_node`` runs the step's law and returns the
    parameters its kernel takes at those shapes (window geometry, the
    ``ConvTranspose`` phase table, the ``AveragePool`` divisor plane).  That
    happens the first time the plan sees those feed shapes and again only
    when they change, so a plan over a free-batch model resolves again when
    the batch changes.  The feed shapes and the parameters resolved for them
    are replaced as one value, so a feed never runs on parameters resolved
    for another's shapes.  A law that refuses raises ShapeError,
    UnsupportedOp or ValidationError naming the node, before any kernel of
    that feed runs.

    Each step records whether its outputs are scanned for non-finite values.
    A step is unguarded only when its op maps finite inputs to finite outputs
    (``_FINITE_CLOSED``) and each of its inputs is the output of an earlier
    step, a ``Constant``, or an initializer found finite when the plan was
    built; a step that reads the feed or a non-finite initializer is guarded.
    That is exact: by induction over the order, every input of an unguarded
    step is finite once the guarded steps before it passed (a non-finite
    ``Constant`` stops ``execute`` before the first step), so its outputs are
    finite, and the first node a NumericError names is the one a scan after
    every step would name.
    """

    def __init__(self, model: GraphModel):
        self.slots: dict[str, int] = {}
        self.template: list[np.ndarray | None] = []
        # (node name, value name) of the first non-finite Constant output
        self.non_finite: tuple[str, str] | None = None
        # (feed shapes every step was last resolved on, each step's kernel
        # parameters at those shapes), replaced as one value
        self.resolved: tuple[tuple | None, list] = (None, [])
        self.feed = [(spec, self._claim(spec.name, None)) for spec in model.inputs]
        initial = {self._claim(name, tensor.array): tensor.array
                   for name, tensor in model.initializers.items()}
        unchecked = {slot for _, slot in self.feed}
        unchecked.update(slot for slot, arr in initial.items() if not _finite(arr))
        steps = []
        for node in model.nodes:
            if node.op_type == "Constant":
                _, params = resolve_node(node, [])
                for name, arr in zip(node.outputs, eval_node(node, [], params)):
                    arr.flags.writeable = False
                    if self.non_finite is None and not _finite(arr):
                        self.non_finite = (node.name, name)
                    self._claim(name, arr)
                continue
            for name in node.inputs:
                if name not in self.slots:
                    raise _unproduced(node, name)
            ins = tuple(self.slots[name] for name in node.inputs)
            outs = tuple(self._claim(name, None) for name in node.outputs)
            guarded = not _closed_over_finite(node) or not unchecked.isdisjoint(ins)
            steps.append((node, ins, outs, guarded))
        self.outputs: list[tuple[str, int]] = []
        for spec in model.outputs:
            if spec.name not in self.slots:
                raise ShapeError(f"graph output {spec.name!r} was never computed")
            self.outputs.append((spec.name, self.slots[spec.name]))

        last_read: dict[int, int] = {}
        for k, (_, ins, outs, _) in enumerate(steps):
            for slot in ins:
                last_read[slot] = k
            for slot in outs:
                last_read.setdefault(slot, k)   # never read: free at once
        kept = {slot for _, slot in self.outputs}
        frees: list[list[int]] = [[] for _ in steps]
        for slot, k in last_read.items():
            if slot not in kept:
                frees[k].append(slot)
        self.steps = [(node, ins, outs, tuple(free), guarded)
                      for (node, ins, outs, guarded), free in zip(steps, frees)]

    def verify(self, values: list) -> list:
        """Resolve every step on the shapes of ``values``, a slot list with
        the feed filled in, unless the feed shapes are the ones last
        resolved.  Returns the kernel parameters of every step, in step
        order."""
        fed = tuple(values[slot].shape for _, slot in self.feed)
        verified, params = self.resolved
        if fed == verified:
            return params
        shapes = [None if v is None else v.shape for v in values]
        params = []
        for node, ins, outs, _, _ in self.steps:
            out_shapes, step_params = resolve_node(node, [shapes[s] for s in ins])
            for slot, shape in zip(outs, out_shapes):
                shapes[slot] = shape
            params.append(step_params)
        self.resolved = (fed, params)
        return params

    def _claim(self, name: str, value) -> int:
        if name in self.slots:
            raise ValidationError(f"value {name!r} is produced more than once")
        self.slots[name] = len(self.template)
        self.template.append(value)
        return self.slots[name]


def execute(model_or_plan: GraphModel | ExecutionPlan, feed: dict,
            capture: bool = False):
    """Run a model, or a plan built from one, on a feed.

    A model is planned on the spot, so it may change between calls; a caller
    that runs one model many times builds an ``ExecutionPlan`` once and
    passes that.  Returns ``(outputs, trace)`` where outputs maps each
    declared graph output to its array and trace maps every value name to its
    array when ``capture`` is set (None otherwise).  Without ``capture``
    each intermediate is released after its last consumer runs.  The first
    node whose output holds a NaN or an infinity raises NumericError.
    """
    plan = model_or_plan if isinstance(model_or_plan, ExecutionPlan) \
        else ExecutionPlan(model_or_plan)
    values = list(plan.template)
    for spec, slot in plan.feed:
        values[slot] = _coerce_input(spec, feed)
    params = plan.verify(values)
    if plan.non_finite is not None:
        raise NumericError("node {!r} produced non-finite values in {!r}"
                           .format(*plan.non_finite))
    # the guard reports an overflow as a NumericError naming its node, not a
    # warning; one error state per call, as one per step costs like a kernel
    with np.errstate(all="ignore"):
        for (node, ins, outs, frees, guarded), step_params in zip(plan.steps, params):
            results = eval_node(node, [values[s] for s in ins], step_params)
            for name, slot, arr in zip(node.outputs, outs, results):
                if guarded and not _finite(arr):
                    raise NumericError(
                        f"node {node.name!r} produced non-finite values in {name!r}")
                values[slot] = arr
            if not capture:
                for slot in frees:
                    values[slot] = None
    outputs = {name: values[slot] for name, slot in plan.outputs}
    trace = {name: values[slot] for name, slot in plan.slots.items()} \
        if capture else None
    return outputs, trace
