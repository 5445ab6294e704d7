"""Reference interpreter for the supported operator set.

Every kernel is a pure function of numpy arrays, so repeated execution of the
same model on the same feed is bit-deterministic.  Semantics follow the ONNX
operator definitions for the supported configurations: multidirectional
broadcasting on binary ops, NCHW layout for convolutions and pools, and
average pooling that excludes padding from the divisor.  Kernels check
nothing: the shape laws of ``shapes.infer_node_shapes`` are the only check of
operands and attributes, and every path into a kernel runs them first.
``ExecutionPlan`` runs them over all its steps once per feed shape,
``run_kernel`` on its one node and ``GraphBuilder.emit`` on the op it emits,
so no strided window view is built on geometry the shape law refuses.

Convolutions are GEMMs.  ``Conv`` copies each image's windows into a
(C·kh·kw, Ho·Wo) matrix (im2col) and multiplies the filters into it;
``ConvTranspose`` is one such unit-stride ``Conv`` per stride phase of its
output, so it never multiplies the zeros of a dilated input.

Execution is planned once per model.  ``ExecutionPlan`` fixes the
topological order, gives every value an integer slot, materializes the
``Constant`` outputs once (read-only) and records where each intermediate is
read for the last time; ``execute`` is then one loop over the plan that
dispatches each node through ``eval_node`` and drops every intermediate after
its last consumer.  ``execute`` takes a plan, or a model that it plans on the
spot, so a model edited between calls is never run from a stale plan.  An
``ExplainerArtifact`` builds its plan on its first ``explain`` and keeps it,
so an artifact must not be changed after that.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError, ShapeError, ValidationError
from .ir import DTYPES, GraphModel, Node, TensorValue, ValueSpec, topological_order
from .shapes import infer_node_shapes, window_attrs

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


def _conv_transpose(x, w, bias, attrs):
    """Adjoint of a unit-dilation Conv with the same weights and geometry,
    split into stride phases (sub-pixel convolution).

    Output row j = q·s + r is row p = j + pad of the uncropped output, which
    input row i reaches through tap t = p - i·s, so only the taps
    t ≡ r + pad (mod s) feed phase r.  Each output phase (rh, rw) is one
    unit-stride Conv of x with its taps, flipped and channel-swapped, over x
    framed (or cropped, where the frame is negative) to exactly the rows the
    phase reads.  A phase that no tap reaches stays zero; at stride 1 the one
    phase is the whole output.
    """
    kernel, strides, pads, _ = window_attrs(attrs)
    extra = attrs.get("output_padding", [0, 0])
    size = [s * (d - 1) + e + k - lo - hi for d, k, s, lo, hi, e
            in zip(x.shape[2:], kernel, strides, pads[:2], pads[2:], extra)]
    out = None if strides == [1, 1] else \
        np.zeros(x.shape[:1] + w.shape[1:2] + tuple(size), dtype=x.dtype)
    for phase in np.ndindex(*strides):
        first, crop, frame = [], [], [0, 0, 0, 0]
        for a, (r, d, s, lo, n) in enumerate(zip(phase, x.shape[2:], strides,
                                                  pads[:2], size)):
            first.append((r + lo) % s)
            m = len(range(first[a], kernel[a], s))        # taps of this phase
            before = m - 1 - (r + lo) // s                # frame; < 0 crops
            after = len(range(r, n, s)) - d + (r + lo) // s
            crop.append(slice(max(-before, 0), d - max(-after, 0)))
            frame[a], frame[a + 2] = max(before, 0), max(after, 0)
        taps = w[:, :, first[0]::strides[0], first[1]::strides[1]]
        if 0 in taps.shape[2:] or any(r >= n for r, n in zip(phase, size)):
            continue                                      # stays zero
        taps = taps[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
        part = _conv(x[(Ellipsis, *crop)], taps, None, [1, 1], frame, [1, 1])
        if out is None:
            out = part
        else:
            out[:, :, phase[0]::strides[0], phase[1]::strides[1]] = part
    if bias is not None:
        out = out + bias.reshape(1, -1, 1, 1)
    return out


def _pad(x, attrs):
    pads = attrs["pads"]
    return np.pad(x, list(zip(pads, pads[x.ndim:])),
                  constant_values=attrs.get("value", 0.0))


def _slice(x, attrs):
    starts = attrs["starts"]
    index = [slice(None)] * x.ndim
    for start, end, axis, step in zip(starts, attrs["ends"],
                                      attrs.get("axes", range(len(starts))),
                                      attrs.get("steps", [1] * len(starts))):
        index[axis] = slice(start, end, step)
    return np.ascontiguousarray(x[tuple(index)])


def _max_pool(x, attrs):
    kernel, strides, pads, dilations = window_attrs(attrs)
    framed = _framed(x, pads, np.finfo(x.dtype).min)
    return _window_views(framed, kernel, strides, dilations).max(axis=(2, 3))


def _avg_pool(x, attrs):
    kernel, strides, pads, dilations = window_attrs(attrs)
    ones = _framed(np.ones((1, 1) + x.shape[2:], dtype=x.dtype), pads)
    total = _window_views(_framed(x, pads), kernel, strides, dilations).sum(axis=(2, 3))
    count = _window_views(ones, kernel, strides, dilations).sum(axis=(2, 3))
    return total / count


def _reduce(x, attrs, fn):
    axes = attrs.get("axes")
    axes = tuple(range(x.ndim)) if axes is None else tuple(a % x.ndim for a in axes)
    keep = bool(attrs.get("keepdims", 1))
    return fn(x, axis=axes, keepdims=keep)


def _softmax(x, attrs):
    axis = attrs.get("axis", -1)
    shifted = x - x.max(axis=axis, keepdims=True)
    ex = np.exp(shifted)
    return ex / ex.sum(axis=axis, keepdims=True)


def _gemm(inputs, attrs):
    a, b = inputs[0], inputs[1]
    if attrs.get("transA", 0):
        a = a.T
    if attrs.get("transB", 0):
        b = b.T
    out = attrs.get("alpha", 1.0) * (a @ b)
    if len(inputs) == 3:
        out = out + attrs.get("beta", 1.0) * inputs[2]
    return out


def _batch_norm(inputs, attrs):
    x, scale, bias, mean, var = inputs
    eps = attrs.get("epsilon", 1e-5)
    shape = (1, -1) + (1,) * (x.ndim - 2)
    k = scale.reshape(shape) / np.sqrt(var.reshape(shape) + eps)
    return x * k + (bias.reshape(shape) - mean.reshape(shape) * k)


def _split(x, node):
    axis = node.attributes.get("axis", 0) % x.ndim
    parts = node.attributes.get("split")
    if parts is None:
        parts = [x.shape[axis] // len(node.outputs)] * len(node.outputs)
    offsets = np.cumsum([0] + list(parts))
    slicer = [slice(None)] * x.ndim
    out = []
    for start, size in zip(offsets, parts):
        slicer[axis] = slice(int(start), int(start + size))
        out.append(np.ascontiguousarray(x[tuple(slicer)]))
    return out


def _constant(node):
    attrs = node.attributes
    want = attrs["dtype"]
    if want not in DTYPES:
        raise ValidationError(f"Constant node {node.name!r}: bad dtype {want!r}")
    return np.asarray(attrs["value"], dtype=DTYPES[want]).reshape(attrs["shape"])


def _where(cond, a, b):
    if cond.dtype != np.bool_:
        cond = cond != 0
    return np.where(cond, a, b)


# op_type -> kernel(inputs, attributes, node) returning one array per output
_KERNELS = {
    "MatMul": lambda x, a, n: [np.matmul(x[0], x[1])],
    "Gemm": lambda x, a, n: [_gemm(x, a)],
    "Conv": lambda x, a, n: [_conv(x[0], x[1], x[2] if len(x) == 3 else None,
                                   *window_attrs(a)[1:])],
    "Add": lambda x, a, n: [x[0] + x[1]],
    "Sub": lambda x, a, n: [x[0] - x[1]],
    "Mul": lambda x, a, n: [x[0] * x[1]],
    "Div": lambda x, a, n: [x[0] / x[1]],
    "Concat": lambda x, a, n: [np.concatenate(x, axis=a["axis"])],
    "Relu": lambda x, a, n: [np.maximum(x[0], 0)],
    "Sigmoid": lambda x, a, n: [_sigmoid(x[0])],
    "Tanh": lambda x, a, n: [np.tanh(x[0])],
    "Exp": lambda x, a, n: [np.exp(x[0])],
    "Softmax": lambda x, a, n: [_softmax(x[0], a)],
    "MaxPool": lambda x, a, n: [_max_pool(x[0], a)],
    "AveragePool": lambda x, a, n: [_avg_pool(x[0], a)],
    "GlobalAveragePool": lambda x, a, n: [x[0].mean(axis=(2, 3), keepdims=True)],
    "GlobalMaxPool": lambda x, a, n: [x[0].max(axis=(2, 3), keepdims=True)],
    "BatchNormalization": lambda x, a, n: [_batch_norm(x, a)],
    "Transpose": lambda x, a, n: [np.ascontiguousarray(x[0].transpose(a["perm"]))],
    "Reshape": lambda x, a, n: [x[0].reshape(a["shape"])],
    "Flatten": lambda x, a, n: [x[0].reshape(
        int(np.prod(x[0].shape[:a.get("axis", 1)], dtype=np.int64)), -1)],
    "ReduceSum": lambda x, a, n: [_reduce(x[0], a, np.sum)],
    "ReduceMean": lambda x, a, n: [_reduce(x[0], a, np.mean)],
    "Greater": lambda x, a, n: [x[0] > x[1]],
    "Where": lambda x, a, n: [_where(x[0], x[1], x[2])],
    "Tile": lambda x, a, n: [np.tile(x[0], a["repeats"])],
    "Split": lambda x, a, n: _split(x[0], n),
    "Constant": lambda x, a, n: [_constant(n)],
    "Abs": lambda x, a, n: [np.abs(x[0])],
    "Pad": lambda x, a, n: [_pad(x[0], a)],
    "Slice": lambda x, a, n: [_slice(x[0], a)],
    "ConvTranspose": lambda x, a, n: [_conv_transpose(
        x[0], x[1], x[2] if len(x) == 3 else None, a)],
}


def eval_node(node: Node, inputs: list[np.ndarray]) -> list[np.ndarray]:
    """Apply one operator to concrete arrays; returns one array per output.

    The node's shape law must already have passed on the inputs' shapes.
    Every kernel takes its dtype from its operands or, for ``Constant``, its
    attributes.
    """
    try:
        return _KERNELS[node.op_type](inputs, node.attributes, node)
    except ValueError as exc:
        raise ShapeError(f"{node.op_type}: {exc}") from exc


def run_kernel(op_type: str, inputs: list[np.ndarray], attrs: dict | None = None,
               n_outputs: int = 1) -> list[np.ndarray]:
    """One op on concrete arrays without a pre-built Node: its shape law,
    then its kernel."""
    node = Node(op_type, "anon", [f"i{k}" for k in range(len(inputs))],
                [f"o{k}" for k in range(n_outputs)], dict(attrs or {}))
    infer_node_shapes(node, [x.shape for x in inputs])
    return eval_node(node, inputs)


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

    The plan holds the topological order with every value name replaced by
    an integer slot, the ``Constant`` outputs materialized once and made
    read-only, and per step the slots it reads for the last time, so that an
    intermediate is dropped as soon as its last consumer has run.  It keeps
    the model's initializer arrays by reference and reads nothing else from
    the model after it is built: a model changed afterwards needs a new plan.

    Checks run here, not in the kernels.  A ``Constant``'s shape law runs
    when the plan is built.  Every step's law runs in ``verify`` on the
    concrete shapes of a feed, the first time the plan sees those feed shapes
    and again only when they change, so a plan over a free-batch model checks
    again when the batch changes.  A law that refuses raises ShapeError or
    UnsupportedOp naming the node, before any kernel of that feed runs.
    """

    def __init__(self, model: GraphModel):
        self.slots: dict[str, int] = {}
        self.template: list[np.ndarray | None] = []
        # (node name, value name) of the first non-finite Constant output
        self.non_finite: tuple[str, str] | None = None
        # feed shapes that every step's shape law last passed on
        self.verified: tuple[tuple[int, ...], ...] | None = None
        self.feed = [(spec, self._claim(spec.name, None)) for spec in model.inputs]
        for name, tensor in model.initializers.items():
            self._claim(name, tensor.array)
        steps = []
        for node in topological_order(model):
            if node.op_type == "Constant":
                infer_node_shapes(node, [])
                for name, arr in zip(node.outputs, eval_node(node, [])):
                    arr.flags.writeable = False
                    if self.non_finite is None and not _finite(arr):
                        self.non_finite = (node.name, name)
                    self._claim(name, arr)
                continue
            ins = tuple(self.slots[name] for name in node.inputs)
            outs = tuple(self._claim(name, None) for name in node.outputs)
            steps.append((node, ins, outs))
        self.outputs: list[tuple[str, int]] = []
        for spec in model.outputs:
            if spec.name not in self.slots:
                raise ShapeError(f"graph output {spec.name!r} was never computed")
            self.outputs.append((spec.name, self.slots[spec.name]))

        last_read: dict[int, int] = {}
        for k, (_, ins, outs) in enumerate(steps):
            for slot in ins:
                last_read[slot] = k
            for slot in outs:
                last_read.setdefault(slot, k)   # never read: free at once
        kept = {slot for _, slot in self.outputs}
        frees: list[list[int]] = [[] for _ in steps]
        for slot, k in last_read.items():
            if slot not in kept:
                frees[k].append(slot)
        self.steps = [(node, ins, outs, tuple(free))
                      for (node, ins, outs), free in zip(steps, frees)]

    def verify(self, values: list) -> None:
        """Run every step's shape law on the shapes of ``values``, a slot
        list with the feed filled in, unless the feed shapes are the ones
        last verified."""
        fed = tuple(values[slot].shape for _, slot in self.feed)
        if fed == self.verified:
            return
        shapes = [None if v is None else v.shape for v in values]
        for node, ins, outs, _ in self.steps:
            for slot, shape in zip(outs, infer_node_shapes(
                    node, [shapes[s] for s in ins])):
                shapes[slot] = shape
        self.verified = fed

    def _claim(self, name: str, value) -> int:
        if name in self.slots:
            raise ValidationError(f"value {name!r} is produced more than once")
        self.slots[name] = len(self.template)
        self.template.append(value)
        return self.slots[name]


def execute(model_or_plan: GraphModel | ExecutionPlan, feed: dict,
            capture: bool = False, check_numerics: bool = True):
    """Run a model, or a plan built from one, on a feed.

    A model is planned on the spot, so it may change between calls; a caller
    that runs one model many times builds an ``ExecutionPlan`` once and
    passes that.  Returns ``(outputs, trace)`` where outputs maps each
    declared graph output to its array and trace maps every value name to its
    array when ``capture`` is set (None otherwise).  Without ``capture``
    each intermediate is released after its last consumer runs.
    """
    plan = model_or_plan if isinstance(model_or_plan, ExecutionPlan) \
        else ExecutionPlan(model_or_plan)
    values = list(plan.template)
    for spec, slot in plan.feed:
        values[slot] = _coerce_input(spec, feed)
    plan.verify(values)
    if check_numerics and plan.non_finite is not None:
        raise NumericError("node {!r} produced non-finite values in {!r}"
                           .format(*plan.non_finite))
    for node, ins, outs, frees in plan.steps:
        results = eval_node(node, [values[s] for s in ins])
        for name, slot, arr in zip(node.outputs, outs, results):
            if check_numerics and not _finite(arr):
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
