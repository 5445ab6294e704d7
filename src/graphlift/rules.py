"""Per-operator contribution rules emitted as graph nodes.

Each rule receives the gradient stream arriving at one forward node and emits
operator nodes that push an equivalent stream to the node's differentiable
inputs.  Linear ops reuse their ordinary adjoint.  Nonlinear ops replace the
local derivative with the secant between the target activation and a
reference activation, falling back to the instantaneous derivative when the
two are closer than an epsilon.  Max pooling routes through the winning
window position of each side and rescales by the input difference.

Rules are scheme-agnostic: they resolve target/reference activations through
a RuleEnv, so the same code produces baked reference constants under the
caching scheme and live 2B-row streams under the stacked scheme.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .builder import GraphBuilder, RuleEnv
from .errors import UnsupportedOp
from .ir import Node

__all__ = [
    "EPS_ACT",
    "EPS_POOL",
    "RuleContext",
    "RuleOutput",
    "f_grad",
    "RULES",
]

# below these gaps the secant ratio is abandoned for the local derivative
EPS_ACT = 1e-6
EPS_POOL = 1e-7


@dataclass
class RuleContext:
    """Everything one rule invocation may consult."""

    node: Node
    grad_in: str
    env: RuleEnv
    pass_grads: dict[str, bool] = field(default_factory=dict)
    eps_act: float = EPS_ACT
    eps_pool: float = EPS_POOL

    @property
    def builder(self) -> GraphBuilder:
        return self.env.builder

    # activations of the first input / first output, resolved lazily so rules
    # that never look at a reference side do not emit splits for it
    @property
    def x_act(self) -> str:
        return self.env.x_of(self.node.inputs[0])

    @property
    def r_act(self) -> str:
        return self.env.r_of(self.node.inputs[0])

    @property
    def y_x(self) -> str:
        return self.env.x_of(self.node.outputs[0])

    @property
    def y_r(self) -> str:
        return self.env.r_of(self.node.outputs[0])


@dataclass
class RuleOutput:
    """Nodes appended by one rule plus the gradient name per input."""

    new_nodes: list[Node]
    grad_out: dict[str, str]


def f_grad(ctx: RuleContext) -> RuleOutput:
    """Dispatch one node to its rule and collect what it emitted."""
    rule = RULES.get(ctx.node.op_type)
    if rule is None:
        raise UnsupportedOp(
            f"no gradient rule for op {ctx.node.op_type!r} (node {ctx.node.name!r})")
    before = len(ctx.builder.nodes)
    grads = rule(ctx)
    return RuleOutput(new_nodes=list(ctx.builder.nodes[before:]), grad_out=grads)


# ---------------------------------------------------------------------------
# shared emission helpers


def _abs_value(b: GraphBuilder, name: str, tag: str) -> str:
    # |v| built from the comparison ops so boundary behaviour is explicit
    zero = b.scalar(0.0, "zero")
    pos = b.emit("Greater", [name, zero], tag=f"{tag}_pos")
    neg = b.emit("Mul", [name, b.scalar(-1.0, "negone")], tag=f"{tag}_neg")
    return b.emit("Where", [pos, name, neg], tag=f"{tag}_abs")


def _guarded_ratio(b: GraphBuilder, num: str, den: str, fallback: str,
                   eps: float, tag: str) -> str:
    """num/den where |den| >= eps, otherwise fallback; never divides by ~0."""
    one = b.scalar(1.0, "one")
    small = b.emit("Greater", [b.scalar(eps, f"eps_{tag}"),
                               _abs_value(b, den, tag)], tag=f"{tag}_small")
    safe = b.emit("Where", [small, one, den], tag=f"{tag}_safe")
    ratio = b.emit("Div", [num, safe], tag=f"{tag}_ratio")
    return b.emit("Where", [small, fallback, ratio], tag=f"{tag}_sel")


def _reduce_like(env: RuleEnv, grad: str, sample: tuple[int, ...], tag: str) -> str:
    """Sum a broadcast gradient back down to an operand's per-sample shape."""
    b = env.builder
    gshape = b.shape(grad)
    if len(gshape) != len(sample):
        raise UnsupportedOp(
            "differentiable operands must carry the full result rank "
            f"(gradient {gshape} vs operand {sample})")
    axes = [i for i in range(1, len(gshape)) if sample[i] == 1 and gshape[i] != 1]
    if not axes:
        return grad
    return b.emit("ReduceSum", [grad], {"axes": axes, "keepdims": 1}, tag=tag)


def _crop_axis(b: GraphBuilder, name: str, axis: int, start: int, size: int,
               tag: str) -> str:
    """Keep [start, start+size) of one axis via a Split."""
    total = b.shape(name)[axis]
    if start == 0 and size == total:
        return name
    segs = []
    if start:
        segs.append(start)
    keep = len(segs)
    segs.append(size)
    if total - start - size:
        segs.append(total - start - size)
    outs = b.emit("Split", [name], {"axis": axis, "split": segs},
                  n_outputs=len(segs), tag=tag)
    outs = outs if isinstance(outs, list) else [outs]
    return outs[keep]


def _pad_axis(b: GraphBuilder, name: str, axis: int, before: int, after: int,
              tag: str) -> str:
    """Zero-pad one axis; negative amounts crop instead."""
    shape = list(b.shape(name))
    n = shape[axis]
    start = -before if before < 0 else 0
    stop = n + after if after < 0 else n
    if start or stop != n:
        name = _crop_axis(b, name, axis, start, stop - start, f"{tag}_clip")
        shape[axis] = stop - start
    parts = []
    if before > 0:
        zshape = shape[:axis] + [before] + shape[axis + 1:]
        parts.append(b.const(np.zeros(zshape), f"{tag}_lpad"))
    parts.append(name)
    if after > 0:
        zshape = shape[:axis] + [after] + shape[axis + 1:]
        parts.append(b.const(np.zeros(zshape), f"{tag}_rpad"))
    if len(parts) == 1:
        return name
    return b.emit("Concat", parts, {"axis": axis}, tag=f"{tag}_pad")


def _scatter_strided(b: GraphBuilder, name: str, axis: int, start: int,
                     stride: int, total: int, tag: str) -> str:
    """Place the axis elements at start, start+stride, ... on a zero canvas."""
    shape = list(b.shape(name))
    count = shape[axis]
    span = (count - 1) * stride + 1
    body = name
    if stride > 1 and count > 1:
        pre = shape[:axis + 1]
        post = shape[axis + 1:]
        grouped = b.emit("Reshape", [name], {"shape": pre + [1] + post},
                         tag=f"{tag}_grp")
        gap = b.const(np.zeros(pre + [stride - 1] + post), f"{tag}_gap")
        inter = b.emit("Concat", [grouped, gap], {"axis": axis + 1},
                       tag=f"{tag}_gaps")
        flat = b.emit("Reshape", [inter],
                      {"shape": shape[:axis] + [count * stride] + post},
                      tag=f"{tag}_flat")
        body = _crop_axis(b, flat, axis, 0, span, f"{tag}_trim")
    return _pad_axis(b, body, axis, start, total - start - span, tag)


def _strided_slices(b: GraphBuilder, name: str, axis: int, start: int,
                    stride: int, count: int, tag: str) -> str:
    """Extract the axis elements start, start+stride, ... (count of them)."""
    span = (count - 1) * stride + 1
    window = _crop_axis(b, name, axis, start, span, f"{tag}_win")
    if stride == 1 or count == 1:
        return window
    shape = list(b.shape(name))
    pre = shape[:axis]
    post = shape[axis + 1:]
    head = _crop_axis(b, window, axis, 0, (count - 1) * stride, f"{tag}_head")
    tail = _crop_axis(b, window, axis, (count - 1) * stride, 1, f"{tag}_tail")
    grouped = b.emit("Reshape", [head], {"shape": pre + [count - 1, stride] + post},
                     tag=f"{tag}_grp")
    first = _crop_axis(b, grouped, axis + 1, 0, 1, f"{tag}_first")
    lead = b.emit("Reshape", [first], {"shape": pre + [count - 1] + post},
                  tag=f"{tag}_lead")
    return b.emit("Concat", [lead, tail], {"axis": axis}, tag=f"{tag}_cat")


def _upsample_canvas(b: GraphBuilder, grad: str, in_hw: tuple[int, int],
                     kernel, strides, pads, tag: str) -> str:
    """Dilate a pooled/convolved gradient by its strides and frame it so a
    plain unit-stride convolution with the (flipped) kernel lands each
    contribution on the forward input position that produced it."""
    x = grad
    for axis, n, k, s, p in ((2, in_hw[0], kernel[0], strides[0], pads[0]),
                             (3, in_hw[1], kernel[1], strides[1], pads[1])):
        count = b.shape(x)[axis]
        x = _scatter_strided(b, x, axis, 0, s, (count - 1) * s + 1,
                             f"{tag}_dil{axis}")
        x = _pad_axis(b, x, axis, k - 1 - p, n + p - (count - 1) * s - 1,
                      f"{tag}_frame{axis}")
    return x


def _pool_geometry(node: Node, in_shape: tuple[int, ...]):
    attrs = node.attributes
    kernel = [int(v) for v in attrs["kernel_shape"]]
    strides = [int(v) for v in attrs.get("strides", [1, 1])]
    pads = [int(v) for v in attrs.get("pads", [0, 0, 0, 0])]
    if len(in_shape) != 4:
        raise UnsupportedOp(
            f"pooling gradients need NCHW operands, got rank {len(in_shape)}")
    return kernel, strides, pads


def _merge(b: GraphBuilder, grads: dict[str, str], name: str, grad: str,
           tag: str) -> None:
    # the same value feeding two input slots receives the sum of both flows
    if name in grads:
        grads[name] = b.emit("Add", [grads[name], grad], tag=tag)
    else:
        grads[name] = grad


# ---------------------------------------------------------------------------
# linear layers


def rule_matmul(ctx: RuleContext) -> dict[str, str]:
    node, b = ctx.node, ctx.builder
    data, weight = node.inputs[0], node.inputs[1]
    if ctx.pass_grads.get(weight, False):
        raise UnsupportedOp(
            f"node {node.name!r}: the second matmul operand must be constant")
    if weight not in b.known:
        raise UnsupportedOp(
            f"node {node.name!r}: matmul weights must be known at build time")
    if len(b.shape(weight)) != 2:
        raise UnsupportedOp(
            f"node {node.name!r}: only rank-2 weight operands are supported")
    attrs = node.attributes
    if node.op_type == "Gemm":
        if int(attrs.get("transA", 0)):
            raise UnsupportedOp(f"node {node.name!r}: transA is not supported")
        trans_b = int(attrs.get("transB", 0))
        alpha = float(attrs.get("alpha", 1.0))
        if len(node.inputs) == 3 and ctx.pass_grads.get(node.inputs[2], False):
            raise UnsupportedOp(
                f"node {node.name!r}: the bias operand must be constant")
    else:
        trans_b, alpha = 0, 1.0
    # dY @ W^T, with W^T folding straight into an initializer
    wt = weight if trans_b else b.emit("Transpose", [weight], {"perm": [1, 0]},
                                       tag="wback")
    if alpha != 1.0:
        wt = b.emit("Mul", [wt, b.scalar(alpha, "alpha")], tag="walpha")
    grad = b.emit("MatMul", [ctx.grad_in, wt], tag="matgrad")
    return {data: grad}


def rule_conv(ctx: RuleContext) -> dict[str, str]:
    node, b, env = ctx.node, ctx.builder, ctx.env
    data, weight = node.inputs[0], node.inputs[1]
    if ctx.pass_grads.get(weight, False):
        raise UnsupportedOp(
            f"node {node.name!r}: convolution filters must be constant")
    if len(node.inputs) == 3 and ctx.pass_grads.get(node.inputs[2], False):
        raise UnsupportedOp(f"node {node.name!r}: convolution bias must be constant")
    if weight not in b.known:
        raise UnsupportedOp(
            f"node {node.name!r}: convolution filters must be known at build time")
    attrs = node.attributes
    dil = [int(v) for v in attrs.get("dilations", [1, 1])]
    if dil != [1, 1]:
        raise UnsupportedOp(f"node {node.name!r}: dilated convolution gradients "
                            "are not supported")
    w = b.known[weight]  # (Cout, Cin, kh, kw)
    kernel = [w.shape[2], w.shape[3]]
    strides = [int(v) for v in attrs.get("strides", [1, 1])]
    pads = [int(v) for v in attrs.get("pads", [0, 0, 0, 0])]
    sample = env.sample_shape(data)
    # swap in/out channels and flip the taps: correlation turns into the
    # adjoint scatter once the gradient is dilated and framed
    wback = b.const(np.ascontiguousarray(w.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1]),
                    "convback")
    canvas = _upsample_canvas(b, ctx.grad_in, (sample[2], sample[3]),
                              kernel, (strides[0], strides[1]),
                              (pads[0], pads[1]), "convb")
    grad = b.emit("Conv", [canvas, wback],
                  {"kernel_shape": kernel, "strides": [1, 1],
                   "pads": [0, 0, 0, 0]}, tag="convgrad")
    return {data: grad}


def rule_addsub(ctx: RuleContext) -> dict[str, str]:
    node, b, env = ctx.node, ctx.builder, ctx.env
    grads: dict[str, str] = {}
    for slot, name in enumerate(node.inputs):
        if not ctx.pass_grads.get(name, False):
            continue
        g = ctx.grad_in
        if node.op_type == "Sub" and slot == 1:
            g = b.emit("Mul", [g, b.scalar(-1.0, "negone")], tag="subneg")
        g = _reduce_like(env, g, env.sample_shape(name), "addfit")
        _merge(b, grads, name, g, "addmerge")
    return grads


def rule_mul(ctx: RuleContext) -> dict[str, str]:
    node, b, env = ctx.node, ctx.builder, ctx.env
    a, c = node.inputs
    grads: dict[str, str] = {}
    for name, other in ((a, c), (c, a)):
        if not ctx.pass_grads.get(name, False):
            continue
        # both sides moving: score each against the midpoint of the other,
        # which splits the bilinear term evenly and preserves the total
        factor = env.mean_act(other) if ctx.pass_grads.get(other, False) else other
        g = b.emit("Mul", [ctx.grad_in, factor], tag="mulgrad")
        g = _reduce_like(env, g, env.sample_shape(name), "mulfit")
        _merge(b, grads, name, g, "mulmerge")
    return grads


def rule_div(ctx: RuleContext) -> dict[str, str]:
    node, b, env = ctx.node, ctx.builder, ctx.env
    num, den = node.inputs
    if ctx.pass_grads.get(den, False):
        raise UnsupportedOp(
            f"node {node.name!r}: division by a value on the differentiable "
            "path is not supported")
    if not ctx.pass_grads.get(num, False):
        return {}
    inv = b.emit("Div", [b.scalar(1.0, "one"), den], tag="divinv")
    g = b.emit("Mul", [ctx.grad_in, inv], tag="divgrad")
    return {num: _reduce_like(env, g, env.sample_shape(num), "divfit")}


def rule_batchnorm(ctx: RuleContext) -> dict[str, str]:
    node, b, env = ctx.node, ctx.builder, ctx.env
    data = node.inputs[0]
    for name in node.inputs[1:]:
        if ctx.pass_grads.get(name, False) or name not in b.known:
            raise UnsupportedOp(
                f"node {node.name!r}: normalization statistics must be constants")
    scale, var = b.known[node.inputs[1]], b.known[node.inputs[4]]
    eps = float(node.attributes.get("epsilon", 1e-5))
    rank = len(env.sample_shape(data))
    k = (scale / np.sqrt(var + eps)).reshape((1, -1) + (1,) * (rank - 2))
    grad = b.emit("Mul", [ctx.grad_in, b.const(k, "bnback")], tag="bngrad")
    return {data: grad}


def rule_transpose(ctx: RuleContext) -> dict[str, str]:
    node, b = ctx.node, ctx.builder
    perm = [int(v) for v in node.attributes["perm"]]
    if perm[0] != 0:
        raise UnsupportedOp(
            f"node {node.name!r}: transposing the batch axis is not supported")
    inverse = [int(v) for v in np.argsort(perm)]
    grad = b.emit("Transpose", [ctx.grad_in], {"perm": inverse}, tag="tgrad")
    return {node.inputs[0]: grad}


def rule_reshape(ctx: RuleContext) -> dict[str, str]:
    node, b, env = ctx.node, ctx.builder, ctx.env
    data = node.inputs[0]
    rows = b.shape(ctx.grad_in)[0]
    target = [rows] + list(env.sample_shape(data)[1:])
    grad = b.emit("Reshape", [ctx.grad_in], {"shape": target}, tag="reshgrad")
    return {data: grad}


def rule_reduce(ctx: RuleContext) -> dict[str, str]:
    node, b, env = ctx.node, ctx.builder, ctx.env
    data = node.inputs[0]
    sample = env.sample_shape(data)
    rank = len(sample)
    axes = sorted(int(a) % rank for a in node.attributes["axes"])
    if 0 in axes:
        raise UnsupportedOp(
            f"node {node.name!r}: reducing over the batch axis is not supported")
    g = ctx.grad_in
    if not int(node.attributes.get("keepdims", 1)):
        rows = b.shape(g)[0]
        restored = [rows] + [1 if i in axes else sample[i] for i in range(1, rank)]
        g = b.emit("Reshape", [g], {"shape": restored}, tag="redrestore")
    spread = np.ones((1,) + tuple(sample[1:]))
    if node.op_type == "ReduceMean":
        spread /= float(np.prod([sample[i] for i in axes]))
    grad = b.emit("Mul", [g, b.const(spread, "redspread")], tag="redgrad")
    return {data: grad}


def rule_concat(ctx: RuleContext) -> dict[str, str]:
    node, b, env = ctx.node, ctx.builder, ctx.env
    rank = len(env.sample_shape(node.outputs[0]))
    axis = int(node.attributes["axis"]) % rank
    if axis == 0:
        raise UnsupportedOp(
            f"node {node.name!r}: concat along the batch axis is not supported")
    sizes = [env.sample_shape(i)[axis] for i in node.inputs]
    parts = b.emit("Split", [ctx.grad_in], {"axis": axis, "split": sizes},
                   n_outputs=len(sizes), tag="catgrad")
    parts = parts if isinstance(parts, list) else [parts]
    grads: dict[str, str] = {}
    for name, part in zip(node.inputs, parts):
        if not ctx.pass_grads.get(name, False):
            continue
        _merge(b, grads, name, part, "catmerge")
    return grads


# ---------------------------------------------------------------------------
# elementwise nonlinearities


def rule_rescale(ctx: RuleContext) -> dict[str, str]:
    node, b, env = ctx.node, ctx.builder, ctx.env
    data, out = node.inputs[0], node.outputs[0]
    one = b.scalar(1.0, "one")
    zero = b.scalar(0.0, "zero")
    d_in = env.delta(data)
    d_out = env.delta(out)
    act_in, act_out = env.act(data), env.act(out)
    if node.op_type == "Sigmoid":
        local = b.emit("Mul", [act_out, b.emit("Sub", [one, act_out], tag="sigcmp")],
                       tag="siglocal")
    elif node.op_type == "Tanh":
        local = b.emit("Sub", [one, b.emit("Mul", [act_out, act_out], tag="tanhsq")],
                       tag="tanhlocal")
    else:  # Relu; an exactly-zero input counts as inactive
        local = b.emit("Where", [b.emit("Greater", [act_in, zero], tag="reluon"),
                                 one, zero], tag="relulocal")
    mult = _guarded_ratio(b, d_out, d_in, local, ctx.eps_act, "act")
    return {data: b.emit("Mul", [ctx.grad_in, mult], tag="actgrad")}


def rule_softmax(ctx: RuleContext) -> dict[str, str]:
    node, b, env = ctx.node, ctx.builder, ctx.env
    data, out = node.inputs[0], node.outputs[0]
    sample = env.sample_shape(data)
    rank = len(sample)
    axis = int(node.attributes.get("axis", -1)) % rank
    if axis != rank - 1:
        raise UnsupportedOp(
            f"node {node.name!r}: softmax gradients support the last axis only")
    axes = [rank - 1]
    half = b.scalar(0.5, "half")
    xs, rs = ctx.x_act, ctx.r_act
    yx, yr = ctx.y_x, ctx.y_r
    g = env.grad_x_half(ctx.grad_in)
    # re-derive the exponentials and their sums on both sides so the chain
    # splits into exp -> sum -> divide, each with its own exact share
    ux = b.emit("Exp", [xs], tag="smexp")
    ur = b.emit("Exp", [rs], tag="smexpref")
    sx = b.emit("ReduceSum", [ux], {"axes": axes, "keepdims": 1}, tag="smsum")
    sr = b.emit("ReduceSum", [ur], {"axes": axes, "keepdims": 1}, tag="smsumref")
    sbar = b.emit("Mul", [b.emit("Add", [sx, sr], tag="smsboth"), half],
                  tag="smsmid")
    ybar = b.emit("Mul", [b.emit("Add", [yx, yr], tag="smyboth"), half],
                  tag="smymid")
    # dividing by the running sum: credit the numerator with 1/s-mid and the
    # sum with -y-mid/s-mid, then fold the sum's share back onto every class
    gu = b.emit("Div", [g, sbar], tag="smdirect")
    ms = b.emit("Div", [b.emit("Mul", [ybar, b.scalar(-1.0, "negone")],
                               tag="smyneg"), sbar], tag="smsumshare")
    gs = b.emit("ReduceSum", [b.emit("Mul", [g, ms], tag="smviasum")],
                {"axes": axes, "keepdims": 1}, tag="smsumgrad")
    gtotal = b.emit("Add", [gu, gs], tag="smexpgrad")
    # exp itself rescales like any other elementwise nonlinearity
    d_in = b.emit("Sub", [xs, rs], tag="smdx")
    d_exp = b.emit("Sub", [ux, ur], tag="smdexp")
    mult = _guarded_ratio(b, d_exp, d_in, ux, ctx.eps_act, "smact")
    gx = b.emit("Mul", [gtotal, mult], tag="smgrad")
    return {data: env.wrap_stream(gx, sample)}


# ---------------------------------------------------------------------------
# pooling


def rule_avgpool(ctx: RuleContext) -> dict[str, str]:
    node, b, env = ctx.node, ctx.builder, ctx.env
    data = node.inputs[0]
    sample = env.sample_shape(data)
    if len(sample) != 4:
        raise UnsupportedOp(
            f"node {node.name!r}: pooling gradients need NCHW operands")
    channels, height, width = sample[1], sample[2], sample[3]
    rows = b.shape(ctx.grad_in)[0]
    if node.op_type == "GlobalAveragePool":
        k = np.full((1, 1, height, width), 1.0 / (height * width))
        return {data: b.emit("Mul", [ctx.grad_in, b.const(k, "gapback")],
                             tag="gapgrad")}
    kernel, strides, pads = _pool_geometry(node, sample)
    out_h, out_w = b.shape(ctx.grad_in)[2], b.shape(ctx.grad_in)[3]
    counts = _window_counts(height, width, kernel, strides, pads, out_h, out_w)
    if np.any(counts == 0):
        raise UnsupportedOp(
            f"node {node.name!r}: a pooling window lies entirely in padding")
    normed = b.emit("Mul", [ctx.grad_in, b.const(1.0 / counts, "avgshare")],
                    tag="avgnorm")
    # one channel at a time through a ones kernel spreads each pooled cell
    # back over exactly the window it averaged
    flat = b.emit("Reshape", [normed], {"shape": [rows * channels, 1, out_h, out_w]},
                  tag="avgflat")
    canvas = _upsample_canvas(b, flat, (height, width),
                              (kernel[0], kernel[1]), (strides[0], strides[1]),
                              (pads[0], pads[1]), "avgb")
    ones_k = b.const(np.ones((1, 1, kernel[0], kernel[1])), "avgones")
    spread = b.emit("Conv", [canvas, ones_k],
                    {"kernel_shape": kernel, "strides": [1, 1],
                     "pads": [0, 0, 0, 0]}, tag="avgspread")
    grad = b.emit("Reshape", [spread], {"shape": [rows, channels, height, width]},
                  tag="avggrad")
    return {data: grad}


def _window_counts(height, width, kernel, strides, pads, out_h, out_w):
    """In-bounds element count of every pooling window (pad excluded)."""
    mask = np.zeros((height + pads[0] + pads[2], width + pads[1] + pads[3]))
    mask[pads[0]:pads[0] + height, pads[1]:pads[1] + width] = 1.0
    counts = np.zeros((1, 1, out_h, out_w))
    for i in range(out_h):
        for j in range(out_w):
            window = mask[i * strides[0]:i * strides[0] + kernel[0],
                          j * strides[1]:j * strides[1] + kernel[1]]
            counts[0, 0, i, j] = window.sum()
    return counts


def rule_maxpool(ctx: RuleContext) -> dict[str, str]:
    node, b, env = ctx.node, ctx.builder, ctx.env
    data, out = node.inputs[0], node.outputs[0]
    sample = env.sample_shape(data)
    if len(sample) != 4:
        raise UnsupportedOp(
            f"node {node.name!r}: pooling gradients need NCHW operands")
    xs, rs = ctx.x_act, ctx.r_act
    yx, yr = ctx.y_x, ctx.y_r
    g = env.grad_x_half(ctx.grad_in)
    zero = b.scalar(0.0, "zero")
    one = b.scalar(1.0, "one")
    # each pooled cell scores the larger of its two winners, and each side
    # receives its distance from the other side's winner
    upper = b.emit("Where", [b.emit("Greater", [yx, yr], tag="mpgt"), yx, yr],
                   tag="mpupper")
    m_x = b.emit("Mul", [b.emit("Sub", [upper, yr], tag="mpxgap"), g], tag="mpmx")
    m_r = b.emit("Mul", [b.emit("Sub", [yx, upper], tag="mprgap"), g], tag="mpmr")
    routed = None
    for side, act, pooled, m in (("x", xs, yx, m_x), ("r", rs, yr, m_r)):
        part = _route_to_argmax(ctx, act, pooled, m, f"mp{side}")
        routed = part if routed is None else b.emit("Add", [routed, part],
                                                    tag="mproutes")
    gap = b.emit("Sub", [xs, rs], tag="mpdx")
    small = b.emit("Greater", [b.scalar(ctx.eps_pool, "epspool"),
                               _abs_value(b, gap, "mpdx")], tag="mpsmall")
    safe = b.emit("Where", [small, one, gap], tag="mpsafe")
    ratio = b.emit("Div", [routed, safe], tag="mpratio")
    grad = b.emit("Where", [small, zero, ratio], tag="mpgrad")
    return {data: env.wrap_stream(grad, sample)}


def _route_to_argmax(ctx: RuleContext, act: str, pooled: str, m: str,
                     tag: str) -> str:
    """Scatter each pooled gradient cell onto its window's first maximum."""
    node, b = ctx.node, ctx.builder
    zero = b.scalar(0.0, "zero")
    one = b.scalar(1.0, "one")
    shape = b.shape(act)
    if node.op_type == "GlobalMaxPool":
        height, width = shape[2], shape[3]
        if b.dtype == "float32" and height * width > 2 ** 24:
            raise UnsupportedOp(
                f"node {node.name!r}: float32 cannot rank {height * width} "
                "window positions exactly")
        # rank falls in row-major order, so the top-ranked maximum is the
        # first one
        rank = b.const(np.arange(height * width, 0, -1).reshape(
            1, 1, height, width), f"{tag}_rank")
        score = b.emit("Where", [b.emit("Greater", [pooled, act],
                                        tag=f"{tag}_below"), zero, rank],
                       tag=f"{tag}_score")
        top = b.emit("GlobalMaxPool", [score], tag=f"{tag}_top")
        first = b.emit("Where", [b.emit("Greater", [top, score],
                                        tag=f"{tag}_later"), zero, one],
                       tag=f"{tag}_first")
        return b.emit("Mul", [first, m], tag=f"{tag}_route")

    kernel, strides, pads = _pool_geometry(node, shape)
    height, width = shape[2], shape[3]
    out_h = b.shape(pooled)[2]
    out_w = b.shape(pooled)[3]
    padded = act
    pad_h, pad_w = height, width
    if any(pads):
        # pad with a huge negative so padding never ties with a real maximum
        low = float(np.finfo(np.float32).min) / 4
        for axis, before, after in ((2, pads[0], pads[2]), (3, pads[1], pads[3])):
            shp = list(b.shape(padded))
            parts = []
            if before:
                parts.append(b.const(
                    np.full(shp[:axis] + [before] + shp[axis + 1:], low),
                    f"{tag}_lowpadl"))
            parts.append(padded)
            if after:
                parts.append(b.const(
                    np.full(shp[:axis] + [after] + shp[axis + 1:], low),
                    f"{tag}_lowpadr"))
            if len(parts) > 1:
                padded = b.emit("Concat", parts, {"axis": axis},
                                tag=f"{tag}_lowpad{axis}")
        pad_h = height + pads[0] + pads[2]
        pad_w = width + pads[1] + pads[3]
    total = None
    found = None
    # walk window offsets in row-major order so ties resolve to the first
    # position, matching an argmax over the flattened window
    for di in range(kernel[0]):
        for dj in range(kernel[1]):
            cell = _strided_slices(b, padded, 2, di, strides[0], out_h,
                                   f"{tag}_o{di}{dj}h")
            cell = _strided_slices(b, cell, 3, dj, strides[1], out_w,
                                   f"{tag}_o{di}{dj}w")
            at_max = b.emit("Where", [b.emit("Greater", [pooled, cell],
                                             tag=f"{tag}_below{di}{dj}"),
                                      zero, one], tag=f"{tag}_ismax{di}{dj}")
            if found is None:
                first = at_max
                found = at_max
            else:
                unseen = b.emit("Sub", [one, found], tag=f"{tag}_unseen{di}{dj}")
                first = b.emit("Mul", [at_max, unseen], tag=f"{tag}_first{di}{dj}")
                found = b.emit("Add", [found, first], tag=f"{tag}_found{di}{dj}")
            contrib = b.emit("Mul", [first, m], tag=f"{tag}_take{di}{dj}")
            canvas = _scatter_strided(b, contrib, 2, di, strides[0], pad_h,
                                      f"{tag}_sc{di}{dj}h")
            canvas = _scatter_strided(b, canvas, 3, dj, strides[1], pad_w,
                                      f"{tag}_sc{di}{dj}w")
            total = canvas if total is None else b.emit(
                "Add", [total, canvas], tag=f"{tag}_gather{di}{dj}")
    if any(pads):
        total = _crop_axis(b, total, 2, pads[0], height, f"{tag}_croph")
        total = _crop_axis(b, total, 3, pads[1], width, f"{tag}_cropw")
    return total


RULES = {
    "MatMul": rule_matmul,
    "Gemm": rule_matmul,
    "Conv": rule_conv,
    "Add": rule_addsub,
    "Sub": rule_addsub,
    "Mul": rule_mul,
    "Div": rule_div,
    "BatchNormalization": rule_batchnorm,
    "Transpose": rule_transpose,
    "Reshape": rule_reshape,
    "Flatten": rule_reshape,
    "ReduceSum": rule_reduce,
    "ReduceMean": rule_reduce,
    "Concat": rule_concat,
    "Sigmoid": rule_rescale,
    "Tanh": rule_rescale,
    "Relu": rule_rescale,
    "Softmax": rule_softmax,
    "MaxPool": rule_maxpool,
    "GlobalMaxPool": rule_maxpool,
    "AveragePool": rule_avgpool,
    "GlobalAveragePool": rule_avgpool,
}
