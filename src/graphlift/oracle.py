"""Independent numeric cross-checks for compiled explainers.

deeplift_oracle re-derives attributions directly from captured forward
traces: it walks the node list, which is in dependency order, backwards
once per reference row, applying each operator's multiplier arithmetic in
numpy, and never touches the rule emitters or the graph builder.  finite_diff
supplies central-difference gradients for the linear paths, and
compare_attributions implements the elementwise closeness metric used to
score scheme pairs.

This module deliberately duplicates the multiplier formulas and the rules'
epsilon for the smooth activations, which is a constant here as there: no
caller sets it.  Relu and max pooling need none: their secants are taken
wherever x − r is nonzero, as the definition says, and where it is zero
Relu takes its local slope and max pooling 0.  The oracle takes each
node's multiplier on its own and hands on no contribution, so it also
checks the rules' telescoped Relu-under-max-pool chains.  Keep the module
free of imports from the emission side so a defect there cannot leak in
here.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ShapeError, UnsupportedOp, ValidationError
from .executor import execute
from .explainer import Attribution
from .ir import GraphModel, Node, TensorValue, _as_array

__all__ = [
    "ClosenessReport",
    "deeplift_oracle",
    "finite_diff",
    "compare_attributions",
]

# the rules' smooth-activation epsilon restated locally, so the oracle does
# not lean on the rule emitters; a test pins the two statements equal
_EPS_ACT = 1e-6


def _as_batch(value, dtype: str, what: str) -> np.ndarray:
    """``value`` as an array of rows in ``dtype``, or ValidationError naming
    the argument ``what`` when it is not numeric or holds no row."""
    arr = _as_array(value, dtype, what)
    if arr.ndim == 0 or arr.shape[0] == 0:
        raise ValidationError(f"{what} holds no rows, shape {arr.shape}")
    return arr


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _check_output_index(output_index, classes: int) -> None:
    if isinstance(output_index, bool) or not isinstance(output_index, numbers.Integral) \
            or not 0 <= output_index < classes:
        raise ValidationError(
            f"output index {output_index!r} picks none of the {classes} classes")


def _reachable_from_input(model: GraphModel) -> set[str]:
    seen = {spec.name for spec in model.inputs}
    for node in model.nodes:
        if any(i in seen for i in node.inputs):
            seen.update(node.outputs)
    return seen


def _upstream_nodes(model: GraphModel, explained: str, diff: set[str]) -> set[str]:
    producer = {o: n for n in model.nodes for o in n.outputs}
    wanted: set[str] = set()
    frontier = [producer[explained]]
    while frontier:
        node = frontier.pop()
        if node.name in wanted:
            continue
        wanted.add(node.name)
        for name in node.inputs:
            if name in diff and name in producer:
                frontier.append(producer[name])
    return wanted


def deeplift_oracle(model: GraphModel, sample, references,
                    output_index: int = 0, *, return_multipliers: bool = False):
    """Reference implementation of the multiplier backward pass.

    Returns an Attribution, or (Attribution, multipliers[B x input]) when
    return_multipliers is set.
    """
    if len(model.inputs) != 1:
        raise UnsupportedOp("attribution requires exactly one graph input")
    spec = model.inputs[0]
    x = _as_batch(sample, spec.dtype, "sample")
    refs = _as_batch(references, spec.dtype, "references")
    if x.shape[0] != 1:
        raise ValidationError("the oracle explains exactly one sample row")
    explained = model.outputs[0].name
    x_out, x_trace = execute(model, {spec.name: x}, capture=True)
    r_out, r_trace = execute(model, {spec.name: refs}, capture=True)
    head = x_out[explained]
    if head.ndim != 2:
        raise UnsupportedOp("the explained output must be rank-2 (batch, classes)")
    classes = head.shape[1]
    _check_output_index(output_index, classes)

    diff = _reachable_from_input(model)
    wanted = _upstream_nodes(model, explained, diff)
    order = [n for n in model.nodes if n.name in wanted]
    per_ref = []
    # an overflow shows as a non-finite multiplier, which raises naming its
    # node, not as a warning
    with np.errstate(all="ignore"):
        for row in range(refs.shape[0]):

            def r_val(name: str) -> np.ndarray:
                arr = r_trace[name]
                return arr[row:row + 1] if name in diff else arr

            grads: dict[str, np.ndarray] = {}

            def push(name: str, grad: np.ndarray) -> None:
                grads[name] = grads[name] + grad if name in grads else grad

            seed = np.zeros((1, classes), dtype=head.dtype)
            seed[0, output_index] = 1.0
            push(explained, seed)
            for node in reversed(order):
                flowed = _node_backward(node, grads[node.outputs[0]],
                                        x_trace.__getitem__, r_val, diff)
                for name, grad in flowed.items():
                    if not np.isfinite(grad).all():
                        raise NumericError(f"node {node.name!r} gives a non-finite "
                                           f"multiplier for {name!r}")
                    push(name, grad)
            per_ref.append(grads[spec.name])
    multipliers = np.concatenate(per_ref, axis=0)
    phi = (multipliers * (x - refs)).mean(axis=0, keepdims=True)

    predicted = float(head[0, output_index])
    ref_mean = float(r_out[explained][:, output_index].mean())
    residual = abs(float(phi.sum()) - (predicted - ref_mean))
    attribution = Attribution(phi=TensorValue(phi, spec.dtype),
                              residual=residual,
                              prediction=TensorValue(head, spec.dtype))
    if return_multipliers:
        return attribution, multipliers
    return attribution


def _fit(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    if grad.ndim != len(shape):
        raise UnsupportedOp(
            f"differentiable operands must carry the full result rank "
            f"({grad.shape} vs {shape})")
    axes = tuple(i for i in range(1, grad.ndim)
                 if shape[i] == 1 and grad.shape[i] != 1)
    return grad.sum(axis=axes, keepdims=True) if axes else grad


def _secant(dy, dx, local):
    near = np.abs(dx) < _EPS_ACT
    return np.where(near, local, dy / np.where(near, 1.0, dx))


def _relu_secant(dy, dx, local):
    """Relu's secant at every nonzero gap, however small, and its local
    slope where the gap is exactly zero."""
    moved = dx != 0
    return np.where(moved, dy / np.where(moved, dx, 1.0), local)


def _node_backward(node: Node, g: np.ndarray, xv, rv,
                   diff: set[str]) -> dict[str, np.ndarray]:
    op = node.op_type
    attrs = node.attributes
    ins = node.inputs

    if op in ("MatMul", "Gemm"):
        w = xv(ins[1])
        if op == "Gemm":
            if not int(attrs.get("transB", 0)):
                w = w.T
            w = float(attrs.get("alpha", 1.0)) * w
            return {ins[0]: g @ w}
        return {ins[0]: g @ w.T}

    if op == "Conv":
        w = xv(ins[1])
        strides = [int(v) for v in attrs.get("strides", [1, 1])]
        pads = [int(v) for v in attrs.get("pads", [0, 0, 0, 0])]
        x = xv(ins[0])
        height, width = x.shape[2], x.shape[3]
        kh, kw = w.shape[2], w.shape[3]
        canvas = np.zeros((g.shape[0], w.shape[1], height + pads[0] + pads[2],
                           width + pads[1] + pads[3]), dtype=g.dtype)
        for i in range(g.shape[2]):
            for j in range(g.shape[3]):
                patch = np.einsum("bo,ockl->bckl", g[:, :, i, j], w)
                canvas[:, :, i * strides[0]:i * strides[0] + kh,
                       j * strides[1]:j * strides[1] + kw] += patch
        return {ins[0]: canvas[:, :, pads[0]:pads[0] + height,
                               pads[1]:pads[1] + width]}

    if op in ("Add", "Sub"):
        out: dict[str, np.ndarray] = {}
        for slot, name in enumerate(ins):
            if name not in diff:
                continue
            gi = -g if (op == "Sub" and slot == 1) else g
            gi = _fit(gi, xv(name).shape)
            out[name] = out[name] + gi if name in out else gi
        return out

    if op == "Mul":
        out = {}
        for name, other in ((ins[0], ins[1]), (ins[1], ins[0])):
            if name not in diff:
                continue
            factor = (xv(other) + rv(other)) * 0.5 if other in diff else xv(other)
            gi = _fit(g * factor, xv(name).shape)
            out[name] = out[name] + gi if name in out else gi
        return out

    if op == "Div":
        if ins[1] in diff:
            raise UnsupportedOp("division by a differentiable value")
        return {ins[0]: _fit(g / xv(ins[1]), xv(ins[0]).shape)}

    if op == "BatchNormalization":
        scale, var = xv(ins[1]), xv(ins[4])
        eps = float(attrs.get("epsilon", 1e-5))
        k = (scale / np.sqrt(var + eps)).reshape(
            (1, -1) + (1,) * (xv(ins[0]).ndim - 2))
        return {ins[0]: g * k}

    if op == "Transpose":
        perm = [int(v) for v in attrs["perm"]]
        return {ins[0]: np.transpose(g, np.argsort(perm))}

    if op in ("Reshape", "Flatten"):
        return {ins[0]: g.reshape(xv(ins[0]).shape)}

    if op in ("ReduceSum", "ReduceMean"):
        x = xv(ins[0])
        # without axes, ONNX reduces over every axis
        axes = sorted(int(a) % x.ndim for a in attrs.get("axes", range(x.ndim)))
        if 0 in axes:
            raise UnsupportedOp(f"node {node.name!r}: reduction over the batch axis")
        if not int(attrs.get("keepdims", 1)):
            g = np.expand_dims(g, tuple(axes))
        spread = np.ones(x.shape, dtype=g.dtype)
        if op == "ReduceMean":
            spread /= float(np.prod([x.shape[a] for a in axes]))
        return {ins[0]: g * spread}

    if op == "Concat":
        axis = int(attrs["axis"]) % g.ndim
        if axis == 0:
            raise UnsupportedOp("concat along the batch axis")
        out = {}
        offset = 0
        for name in ins:
            size = xv(name).shape[axis]
            piece = np.take(g, range(offset, offset + size), axis=axis)
            offset += size
            if name not in diff:
                continue
            out[name] = out[name] + piece if name in out else piece
        return out

    if op in ("Sigmoid", "Tanh", "Relu"):
        x, r = xv(ins[0]), rv(ins[0])
        y, yr = xv(node.outputs[0]), rv(node.outputs[0])
        if op == "Relu":
            return {ins[0]: g * _relu_secant(y - yr, x - r,
                                             (x > 0).astype(g.dtype))}
        local = y * (1.0 - y) if op == "Sigmoid" else 1.0 - y * y
        return {ins[0]: g * _secant(y - yr, x - r, local)}

    if op == "Softmax":
        x, r = xv(ins[0]), rv(ins[0])
        y, yr = xv(node.outputs[0]), rv(node.outputs[0])
        ux, ur = np.exp(x), np.exp(r)
        sx = ux.sum(axis=-1, keepdims=True)
        sr = ur.sum(axis=-1, keepdims=True)
        sbar = (sx + sr) * 0.5
        ybar = (y + yr) * 0.5
        gu = g / sbar + (g * ((ybar * -1.0) / sbar)).sum(axis=-1, keepdims=True)
        return {ins[0]: gu * _secant(ux - ur, x - r, ux)}

    if op in ("MaxPool", "GlobalMaxPool"):
        return {ins[0]: _maxpool_backward(node, g, xv, rv)}

    if op in ("AveragePool", "GlobalAveragePool"):
        return {ins[0]: _avgpool_backward(node, g, xv)}

    raise UnsupportedOp(f"oracle has no rule for op {op!r} (node {node.name!r})")


def _pool_args(attrs):
    kernel = [int(v) for v in attrs["kernel_shape"]]
    strides = [int(v) for v in attrs.get("strides", [1, 1])]
    pads = [int(v) for v in attrs.get("pads", [0, 0, 0, 0])]
    return kernel, strides, pads


def _maxpool_backward(node: Node, g, xv, rv) -> np.ndarray:
    x, r = xv(node.inputs[0]), rv(node.inputs[0])
    yx, yr = xv(node.outputs[0]), rv(node.outputs[0])
    upper = np.maximum(yx, yr)
    shares = ((x, yx, (upper - yr) * g), (r, yr, (yx - upper) * g))
    _, channels, height, width = x.shape
    if node.op_type == "GlobalMaxPool":
        kernel, strides, pads = [height, width], [1, 1], [0, 0, 0, 0]
    else:
        kernel, strides, pads = _pool_args(node.attributes)
    pad_h = height + pads[0] + pads[2]
    pad_w = width + pads[1] + pads[3]
    routed = np.zeros((1, channels, pad_h, pad_w), dtype=g.dtype)
    for act, pooled, share in shares:
        padded = np.full((1, channels, pad_h, pad_w), -np.inf, dtype=act.dtype)
        padded[:, :, pads[0]:pads[0] + height, pads[1]:pads[1] + width] = act
        out_h, out_w = pooled.shape[2], pooled.shape[3]
        for i in range(out_h):
            for j in range(out_w):
                window = padded[0, :, i * strides[0]:i * strides[0] + kernel[0],
                                j * strides[1]:j * strides[1] + kernel[1]]
                flat = window.reshape(channels, -1)
                # first maximum in row-major window order
                winners = flat.argmax(axis=1)
                for c in range(channels):
                    di, dj = divmod(int(winners[c]), kernel[1])
                    routed[0, c, i * strides[0] + di, j * strides[1] + dj] += \
                        share[0, c, i, j]
    routed = routed[:, :, pads[0]:pads[0] + height, pads[1]:pads[1] + width]
    dx = x - r
    moved = dx != 0
    return np.where(moved, routed / np.where(moved, dx, 1.0), 0.0)


def _avgpool_backward(node: Node, g, xv) -> np.ndarray:
    x = xv(node.inputs[0])
    _, channels, height, width = x.shape
    if node.op_type == "GlobalAveragePool":
        return np.broadcast_to(g / float(height * width), x.shape).copy()
    kernel, strides, pads = _pool_args(node.attributes)
    pad_h = height + pads[0] + pads[2]
    pad_w = width + pads[1] + pads[3]
    bounds = np.zeros((pad_h, pad_w))
    bounds[pads[0]:pads[0] + height, pads[1]:pads[1] + width] = 1.0
    canvas = np.zeros((1, channels, pad_h, pad_w), dtype=g.dtype)
    for i in range(g.shape[2]):
        for j in range(g.shape[3]):
            window = bounds[i * strides[0]:i * strides[0] + kernel[0],
                            j * strides[1]:j * strides[1] + kernel[1]]
            count = window.sum()
            canvas[:, :, i * strides[0]:i * strides[0] + kernel[0],
                   j * strides[1]:j * strides[1] + kernel[1]] += \
                g[:, :, i:i + 1, j:j + 1] / count
    return canvas[:, :, pads[0]:pads[0] + height, pads[1]:pads[1] + width]


def finite_diff(model: GraphModel, sample, output_index: int = 0,
                h: float = 1e-4) -> np.ndarray:
    """Central differences of the explained coordinate, input-shaped; the
    step ``h`` must be a finite number above 0."""
    if not _is_real(h) or not 0 < h < np.inf:
        raise ValidationError(f"step h must be a finite number above 0, got {h!r}")
    spec = model.inputs[0]
    x = _as_batch(sample, spec.dtype, "sample")
    explained = model.outputs[0].name
    out, _ = execute(model, {spec.name: x})
    _check_output_index(output_index, out[explained].shape[-1])

    def head(arr: np.ndarray) -> float:
        out, _ = execute(model, {spec.name: arr})
        return float(out[explained][0, output_index])

    grad = np.zeros_like(x, dtype=np.float64)
    for idx in np.ndindex(*x.shape):
        bump = np.zeros_like(x)
        bump[idx] = h
        grad[idx] = (head(x + bump) - head(x - bump)) / (2.0 * h)
    return grad


@dataclass
class ClosenessReport:
    """Elementwise |a-b| <= atol + rtol*|b| scoring."""

    fraction: float
    atol: float
    rtol: float
    total: int
    failed: int
    worst_index: tuple
    value_a: float
    value_b: float

    def passed(self, min_fraction: float = 0.99) -> bool:
        return self.fraction >= min_fraction

    def format(self) -> str:
        return (f"{self.total - self.failed}/{self.total} elements within "
                f"atol={self.atol:g} rtol={self.rtol:g} "
                f"(fraction {self.fraction:.6f}); worst at {self.worst_index}: "
                f"a={self.value_a:.6g} b={self.value_b:.6g}")


def compare_attributions(a, b, atol: float = 1e-8,
                         rtol: float = 1e-5) -> ClosenessReport:
    """Score a against b with the asymmetric elementwise closeness test; an
    element is close when its gap is at most the allowance, so bit-identical
    arrays pass at zero tolerance."""
    for name, tol in (("atol", atol), ("rtol", rtol)):
        if not _is_real(tol) or not tol >= 0:
            raise ValidationError(f"{name} must be a non-negative number, got "
                                  f"{tol!r}")
    arr_a, arr_b = _as_array(a, "float64", "a"), _as_array(b, "float64", "b")
    if arr_a.shape != arr_b.shape or not arr_a.size:
        raise ShapeError(f"cannot compare shapes {arr_a.shape} and {arr_b.shape}: "
                         "they must match and hold an element")
    gap = np.abs(arr_a - arr_b)
    allowance = atol + rtol * np.abs(arr_b)
    ok = gap <= allowance
    excess = gap - allowance
    worst = np.unravel_index(int(np.argmax(excess)), arr_a.shape)
    total = arr_a.size
    failed = int(total - ok.sum())
    return ClosenessReport(
        fraction=float(ok.mean()),
        atol=atol, rtol=rtol, total=int(total), failed=failed,
        worst_index=tuple(int(i) for i in worst),
        value_a=float(arr_a[worst]), value_b=float(arr_b[worst]))
