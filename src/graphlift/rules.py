"""Per-operator contribution rules emitted as graph nodes.

Each rule receives the gradient stream arriving at one forward node and emits
operator nodes that push an equivalent stream to the node's differentiable
inputs.  Linear ops reuse their ordinary adjoint.  Nonlinear ops replace the
local derivative with the secant between the target activation and a
reference activation.  Relu takes it wherever the two differ at all, and its
local derivative only where they are equal.  Sigmoid, Tanh and Softmax fall
back to the local derivative when the two are closer than ``EPS_ACT``.  That
epsilon is a constant of the rules: no caller sets it, and an artifact does
not record it.

A flow comes in one of two kinds.  Most rules hand on a *multiplier*, on the
whole stream.  The max-pool rules (``CONTRIBUTES``) hand on a
*contribution*: multiplier × Δ per reference row, on the target half only,
with Δ = x − r at the pool's input.  A Relu (``PASSES_CONTRIBUTIONS``) whose
every arriving flow is a contribution passes their sum on to its input
unchanged, since a Rescale chain telescopes: (C / Δact) · (Δact / Δz) is
C / Δz.  Anywhere else ``to_multiplier`` divides a contribution by the Δ of
the value it reached, once, and the node's rule runs on the multiplier.
That division needs no epsilon: it divides only where Δ is nonzero, and a
route never lands where it is zero (``rule_maxpool``).

The rules emit standard ops only.  Convolution and average-pooling gradients
are one ``ConvTranspose`` each, reading the forward filters (or a ones
kernel) directly.  Max-pool routing takes the same nodes whatever the
window: it pads with a huge negative (``Pad``), gathers every window with one
``Conv`` over a one-hot filter, keeps each window's first maximum in
row-major order by ranking its cells under a ``MaxPool``, and scatters the
routes back with one ``ConvTranspose`` over the same filter.  ``|v|`` is
``Abs``.

Rules are scheme-agnostic: they resolve target/reference activations through
a RuleEnv, so the same code produces baked reference constants under the
caching scheme and live 2B-row streams under the stacked scheme.  Rules call
no shape law: every shape, and the kernel parameters the forward node's law
returned when the builder added it (``RuleContext.params``), are read from
the GraphBuilder.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .builder import GraphBuilder, RuleEnv
from .errors import UnsupportedOp
from .ir import Node

__all__ = [
    "EPS_ACT",
    "CONTRIBUTES",
    "PASSES_CONTRIBUTIONS",
    "RuleContext",
    "RuleOutput",
    "f_grad",
    "to_multiplier",
    "RULES",
]

# below this gap a smooth activation's secant ratio is abandoned for the
# local derivative
EPS_ACT = 1e-6


@dataclass
class RuleContext:
    """Everything one rule invocation may consult."""

    node: Node
    grad_in: str
    env: RuleEnv
    pass_grads: dict[str, bool] = field(default_factory=dict)

    @property
    def builder(self) -> GraphBuilder:
        return self.env.builder

    @property
    def params(self):
        """The forward node's kernel parameters, as the builder resolved them
        when the node was added."""
        return self.builder.params[self.node.outputs[0]]

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


# ops whose gradient flows through operand 0 only: their weights, filters,
# biases, denominator and statistics must not depend on the input
_OPERAND_0_ONLY = frozenset({"MatMul", "Gemm", "Conv", "Div", "BatchNormalization"})

# ops whose rule hands its input a contribution, not a multiplier, and the
# op that passes on the contributions it receives when no multiplier arrives
CONTRIBUTES = frozenset({"MaxPool", "GlobalMaxPool"})
PASSES_CONTRIBUTIONS = frozenset({"Relu"})


def f_grad(ctx: RuleContext) -> RuleOutput:
    """Dispatch one node to its rule and collect what it emitted; UnsupportedOp
    when an op in ``_OPERAND_0_ONLY`` has a later operand that depends on the
    input."""
    node = ctx.node
    rule = RULES.get(node.op_type)
    if rule is None:
        raise UnsupportedOp(
            f"no gradient rule for op {node.op_type!r} (node {node.name!r})")
    if node.op_type in _OPERAND_0_ONLY:
        for name in node.inputs[1:]:
            if ctx.pass_grads.get(name, False):
                raise UnsupportedOp(
                    f"node {node.name!r}: {node.op_type} operand {name!r} depends "
                    "on the input; only operand 0 may")
    before = len(ctx.builder.nodes)
    grads = rule(ctx)
    return RuleOutput(new_nodes=list(ctx.builder.nodes[before:]), grad_out=grads)


# ---------------------------------------------------------------------------
# shared emission helpers


def _guarded_ratio(b: GraphBuilder, num: str, den: str, fallback: str,
                   tag: str) -> str:
    """num/den where |den| >= EPS_ACT, otherwise fallback; never divides by ~0."""
    one = b.const(1.0, "one")
    small = b.emit("Greater", [b.const(EPS_ACT, f"eps_{tag}"),
                               b.emit("Abs", [den], tag=f"{tag}_abs")],
                  tag=f"{tag}_small")
    safe = b.emit("Where", [small, one, den], tag=f"{tag}_safe")
    ratio = b.emit("Div", [num, safe], tag=f"{tag}_ratio")
    return b.emit("Where", [small, fallback, ratio], tag=f"{tag}_sel")


def _exact_ratio(b: GraphBuilder, num: str, den: str, tag: str) -> tuple[str, str]:
    """(num/den where den is nonzero and num elsewhere, the mask of where
    den is nonzero): the division needs no epsilon where num is known to be
    no larger than den."""
    moved = b.emit("Greater", [b.emit("Abs", [den], tag=f"{tag}_abs"),
                               b.const(0.0, "zero")], tag=f"{tag}_moved")
    safe = b.emit("Where", [moved, den, b.const(1.0, "one")], tag=f"{tag}_safe")
    return b.emit("Div", [num, safe], tag=f"{tag}_ratio"), moved


def to_multiplier(env: RuleEnv, name: str, contribution: str) -> str:
    """The multiplier stream of forward value ``name`` from a contribution
    that reached it: the contribution divided by Δ = x − r where Δ is
    nonzero, on the target half, then widened to the stream.  Where Δ is
    zero every contribution that lands is exactly ±0 (``rule_maxpool``), so
    the multiplier is too."""
    b = env.builder
    gap = b.emit("Sub", [env.x_of(name), env.r_of(name)], tag="mpdx")
    return env.wrap_stream(_exact_ratio(b, contribution, gap, "mp")[0])


def _reduce_like(b: GraphBuilder, grad: str, shape: tuple[int, ...], tag: str) -> str:
    """Sum a broadcast gradient back down to an operand's shape, rows aside."""
    gshape = b.shape(grad)
    if len(gshape) != len(shape):
        raise UnsupportedOp(
            "differentiable operands must carry the full result rank "
            f"(gradient {gshape} vs operand {shape})")
    axes = [i for i in range(1, len(gshape)) if shape[i] == 1 and gshape[i] != 1]
    if not axes:
        return grad
    return b.emit("ReduceSum", [grad], {"axes": axes, "keepdims": 1}, tag=tag)


def _transpose_conv(b: GraphBuilder, grad: str, weight: str, in_hw, kernel,
                    strides, pads, tag: str) -> str:
    """ConvTranspose that lands each cell of a convolved or pooled gradient
    back on the in_hw input positions its forward window read."""
    out_hw = b.shape(grad)[2:]
    extra = [in_hw[i] + pads[i] + pads[i + 2] - kernel[i] - strides[i] * (out_hw[i] - 1)
             for i in range(2)]
    return b.emit("ConvTranspose", [grad, weight],
                  {"kernel_shape": list(kernel), "strides": list(strides),
                   "pads": list(pads), "output_padding": extra}, tag=tag)


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
    trans_b, alpha = ctx.params[:2] if node.op_type == "Gemm" else (0, 1.0)
    # dY @ W^T, with W^T folding straight into an initializer
    wt = weight if trans_b else b.emit("Transpose", [weight], {"perm": [1, 0]},
                                       tag="wback")
    if alpha != 1.0:
        wt = b.emit("Mul", [wt, b.const(alpha, "alpha")], tag="walpha")
    grad = b.emit("MatMul", [ctx.grad_in, wt], tag="matgrad")
    return {data: grad}


def rule_conv(ctx: RuleContext) -> dict[str, str]:
    node, b = ctx.node, ctx.builder
    data, weight = node.inputs[0], node.inputs[1]
    strides, pads = ctx.params
    sample = b.shape(data)
    # the adjoint of the forward correlation reads the forward filters as is
    grad = _transpose_conv(b, ctx.grad_in, weight, sample[2:], b.shape(weight)[2:],
                           strides, pads, "convgrad")
    return {data: grad}


def rule_addsub(ctx: RuleContext) -> dict[str, str]:
    node, b = ctx.node, ctx.builder
    grads: dict[str, str] = {}
    for slot, name in enumerate(node.inputs):
        if not ctx.pass_grads.get(name, False):
            continue
        g = ctx.grad_in
        if node.op_type == "Sub" and slot == 1:
            g = b.emit("Mul", [g, b.const(-1.0, "negone")], tag="subneg")
        g = _reduce_like(b, g, b.shape(name), "addfit")
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
        g = _reduce_like(b, g, b.shape(name), "mulfit")
        _merge(b, grads, name, g, "mulmerge")
    return grads


def rule_div(ctx: RuleContext) -> dict[str, str]:
    node, b = ctx.node, ctx.builder
    num, den = node.inputs
    g = b.emit("Div", [ctx.grad_in, den], tag="divgrad")
    return {num: _reduce_like(b, g, b.shape(num), "divfit")}


def rule_batchnorm(ctx: RuleContext) -> dict[str, str]:
    node, b = ctx.node, ctx.builder
    data = node.inputs[0]
    scale, var = b.known[node.inputs[1]], b.known[node.inputs[4]]
    eps = ctx.params
    rank = len(b.shape(data))
    k = (scale / np.sqrt(var + eps)).reshape((1, -1) + (1,) * (rank - 2))
    grad = b.emit("Mul", [ctx.grad_in, b.const(k, "bnback")], tag="bngrad")
    return {data: grad}


def rule_transpose(ctx: RuleContext) -> dict[str, str]:
    node, b = ctx.node, ctx.builder
    perm = ctx.params
    if perm[0] != 0:
        raise UnsupportedOp(
            f"node {node.name!r}: transposing the batch axis is not supported")
    inverse = [int(v) for v in np.argsort(perm)]
    grad = b.emit("Transpose", [ctx.grad_in], {"perm": inverse}, tag="tgrad")
    return {node.inputs[0]: grad}


def rule_reshape(ctx: RuleContext) -> dict[str, str]:
    node, b = ctx.node, ctx.builder
    data = node.inputs[0]
    rows = b.shape(ctx.grad_in)[0]
    target = [rows] + list(b.shape(data)[1:])
    grad = b.emit("Reshape", [ctx.grad_in], {"shape": target}, tag="reshgrad")
    return {data: grad}


def rule_reduce(ctx: RuleContext) -> dict[str, str]:
    node, b = ctx.node, ctx.builder
    data = node.inputs[0]
    sample = b.shape(data)
    axes, keep, count = ctx.params
    if 0 in axes:
        raise UnsupportedOp(
            f"node {node.name!r}: reducing over the batch axis is not supported")
    g = ctx.grad_in
    if not keep:
        rows = b.shape(g)[0]
        restored = [rows] + [1 if i in axes else sample[i]
                             for i in range(1, len(sample))]
        g = b.emit("Reshape", [g], {"shape": restored}, tag="redrestore")
    spread = np.ones((1,) + tuple(sample[1:]))
    if node.op_type == "ReduceMean":
        spread /= float(count)
    grad = b.emit("Mul", [g, b.const(spread, "redspread")], tag="redgrad")
    return {data: grad}


def rule_concat(ctx: RuleContext) -> dict[str, str]:
    node, b = ctx.node, ctx.builder
    axis = ctx.params
    if axis == 0:
        raise UnsupportedOp(
            f"node {node.name!r}: concat along the batch axis is not supported")
    sizes = [b.shape(i)[axis] for i in node.inputs]
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
    one = b.const(1.0, "one")
    zero = b.const(0.0, "zero")
    d_in = env.delta(data)
    d_out = env.delta(out)
    act_in, act_out = env.act(data), env.act(out)
    if node.op_type == "Relu":
        # relu is 1-Lipschitz and rounding is monotone, so its secant lies in
        # [0, 1] at every nonzero gap, however small; only an equal pair takes
        # the local derivative, where an exactly-zero input counts as inactive
        local = b.emit("Where", [b.emit("Greater", [act_in, zero], tag="reluon"),
                                 one, zero], tag="relulocal")
        ratio, moved = _exact_ratio(b, d_out, d_in, "relu")
        mult = b.emit("Where", [moved, ratio, local], tag="relu_sel")
    else:
        if node.op_type == "Sigmoid":
            local = b.emit("Mul", [act_out, b.emit("Sub", [one, act_out],
                                                   tag="sigcmp")], tag="siglocal")
        else:  # Tanh
            local = b.emit("Sub", [one, b.emit("Mul", [act_out, act_out],
                                               tag="tanhsq")], tag="tanhlocal")
        mult = _guarded_ratio(b, d_out, d_in, local, "act")
    return {data: b.emit("Mul", [ctx.grad_in, mult], tag="actgrad")}


def rule_softmax(ctx: RuleContext) -> dict[str, str]:
    node, b, env = ctx.node, ctx.builder, ctx.env
    data, out = node.inputs[0], node.outputs[0]
    axes = [len(b.shape(data)) - 1]
    xs, rs = ctx.x_act, ctx.r_act
    yx, yr = ctx.y_x, ctx.y_r
    g = env.grad_x_half(ctx.grad_in)
    # re-derive the exponentials and their sums on both sides so the chain
    # splits into exp -> sum -> divide, each with its own exact share
    ux = b.emit("Exp", [xs], tag="smexp")
    ur = b.emit("Exp", [rs], tag="smexpref")
    sx = b.emit("ReduceSum", [ux], {"axes": axes, "keepdims": 1}, tag="smsum")
    sr = b.emit("ReduceSum", [ur], {"axes": axes, "keepdims": 1}, tag="smsumref")
    # dividing by the running sum credits the numerator with 1/s-mid and the
    # sum with -y-mid/s-mid, whose share folds back onto every class:
    # (2g - sum(g * (yx + yr))) / (sx + sr)
    ysum = b.emit("Add", [yx, yr], tag="smyboth")
    gs = b.emit("ReduceSum", [b.emit("Mul", [g, ysum], tag="smviasum")],
                {"axes": axes, "keepdims": 1}, tag="smsumgrad")
    shares = b.emit("Sub", [b.emit("Add", [g, g], tag="smtwice"), gs],
                    tag="smshares")
    gtotal = b.emit("Div", [shares, b.emit("Add", [sx, sr], tag="smsboth")],
                    tag="smexpgrad")
    # exp itself rescales like any other elementwise nonlinearity
    d_in = b.emit("Sub", [xs, rs], tag="smdx")
    d_exp = b.emit("Sub", [ux, ur], tag="smdexp")
    mult = _guarded_ratio(b, d_exp, d_in, ux, "smact")
    gx = b.emit("Mul", [gtotal, mult], tag="smgrad")
    return {data: env.wrap_stream(gx)}


# ---------------------------------------------------------------------------
# pooling


def rule_avgpool(ctx: RuleContext) -> dict[str, str]:
    node, b = ctx.node, ctx.builder
    data = node.inputs[0]
    sample = b.shape(data)  # NCHW: the pool's shape law refuses any other
    channels, height, width = sample[1], sample[2], sample[3]
    rows = b.shape(ctx.grad_in)[0]
    if node.op_type == "GlobalAveragePool":
        k = np.full((1, 1, height, width), 1.0 / (height * width))
        return {data: b.emit("Mul", [ctx.grad_in, b.const(k, "gapback")],
                             tag="gapgrad")}
    # the geometry and divisor plane the forward kernel averaged with
    kernel, strides, pads, counts = ctx.params
    out_h, out_w = b.shape(ctx.grad_in)[2], b.shape(ctx.grad_in)[3]
    ones_k = np.ones((1, 1, *kernel))
    normed = b.emit("Mul", [ctx.grad_in, b.const(1.0 / counts, "avgshare")],
                    tag="avgnorm")
    # one channel at a time through a ones kernel spreads each pooled cell
    # back over exactly the window it averaged
    flat = b.emit("Reshape", [normed], {"shape": [rows * channels, 1, out_h, out_w]},
                  tag="avgflat")
    spread = _transpose_conv(b, flat, b.const(ones_k, "avgones"), (height, width),
                             kernel, strides, pads, "avgspread")
    grad = b.emit("Reshape", [spread], {"shape": [rows, channels, height, width]},
                  tag="avggrad")
    return {data: grad}


def rule_maxpool(ctx: RuleContext) -> dict[str, str]:
    """Route each pooled share to its side's first maximum and hand the
    landed routes on as a contribution, which ``to_multiplier`` divides by
    the Δ = x − r of the value it reaches, where that Δ is nonzero.

    That division is exact, with no epsilon and no overflow.  Window w's
    share lands only on its first maximum c, and it is nonzero only when Δ
    at c has the share's sign and at least its size.  The target side
    routes relu(yx − yr)·g to c with Δc = yx − r_c ≥ yx − yr, since
    r_c ≤ yr; the reference side routes min(yx − yr, 0)·g to c with
    Δc = x_c − yr ≤ yx − yr, since x_c ≤ yx.  Rounding a subtraction is
    monotone, so these inequalities survive it: at every nonzero Δ,
    |routed / Δ| ≤ Σ_w |g_w|·(1 + u)², and wherever Δ = 0 every share that
    lands is exactly ±0, which a divisor of 1 leaves as it is.  When the
    contribution passes through Relus first, it is divided by the Δz of the
    lowest one's input instead.  Each relu is 1-Lipschitz, and rounding is
    monotone, so |Δact| ≤ |Δz| after rounding too, and the bound holds.
    Where Δact = 0, whatever Δz, the shares that land are ±0, and so is
    their quotient.
    """
    node, b, env = ctx.node, ctx.builder, ctx.env
    data = node.inputs[0]
    sample = b.shape(data)
    xs, rs = ctx.x_act, ctx.r_act
    yx, yr = ctx.y_x, ctx.y_r
    g = env.grad_x_half(ctx.grad_in)
    # each pooled cell scores the larger of its two winners, and each side
    # receives its distance from the other side's winner: the target side
    # the gap where it is positive, the reference side the rest
    dy = b.emit("Sub", [yx, yr], tag="mpdy")
    m_x = b.emit("Mul", [b.emit("Relu", [dy], tag="mpxgap"), g], tag="mpmx")
    m_r = b.emit("Sub", [b.emit("Mul", [dy, g], tag="mpshare"), m_x], tag="mpmr")
    routed = b.emit("Add", [_route_to_argmax(ctx, xs, yx, m_x, "mpx"),
                            _route_to_argmax(ctx, rs, yr, m_r, "mpr")],
                    tag="mproutes")
    if node.op_type == "MaxPool":
        # a one-hot filter per window offset scatters the stacked routes back
        # onto the positions they came from, summing where windows overlap
        kernel, strides, pads = ctx.params
        spread = _transpose_conv(b, routed, _onehot(b, kernel), sample[2:], kernel,
                                 strides, pads, "mpscatter")
        routed = b.emit("Reshape", [spread],
                        {"shape": [b.shape(routed)[0] // sample[1], *sample[1:]]},
                        tag="mpscattered")
    return {data: routed}


def _route_to_argmax(ctx: RuleContext, act: str, pooled: str, m: str,
                     tag: str) -> str:
    """Route each pooled gradient cell to its window's first maximum.

    A GlobalMaxPool's window is the plane, and its routes land on the input
    positions directly.  A MaxPool gathers its K window offsets in row-major
    order with one Conv over the one-hot filter it scatters with (each cell
    is 1·v plus exact zeros, a bit-exact copy); its routes stay stacked, as
    (rows * C, K, out_h, out_w) lanes, for ``rule_maxpool`` to scatter.
    Either way the pool's own op, over one window, keeps the top rank.
    """
    node, b = ctx.node, ctx.builder
    zero, one = b.const(0.0, "zero"), b.const(1.0, "one")
    shape = b.shape(act)
    cells, window, top = act, shape[2:], {}
    if node.op_type == "MaxPool":
        kernel, strides, pads = ctx.params
        if any(pads):
            # pad with a huge negative so padding never ties with a real maximum
            act = b.emit("Pad", [act], {"pads": [0, 0, *pads[:2], 0, 0, *pads[2:]],
                                         "value": float(np.finfo(np.float32).min) / 4},
                         tag=f"{tag}_lowpad")
        out_h, out_w = b.shape(pooled)[2:]
        planes, window = shape[0] * shape[1], (kernel[0] * kernel[1], 1)
        flat = b.emit("Reshape", [act], {"shape": [planes, 1, *b.shape(act)[2:]]},
                      tag=f"{tag}_planes")
        gathered = b.emit("Conv", [flat, _onehot(b, kernel)],
                          {"kernel_shape": list(kernel), "strides": list(strides)},
                          tag=f"{tag}_gather")
        cells = b.emit("Reshape", [gathered],
                       {"shape": [planes, 1, window[0], out_h * out_w]},
                       tag=f"{tag}_cells")
        pooled = b.emit("Reshape", [pooled], {"shape": [planes, 1, 1, out_h * out_w]},
                        tag=f"{tag}_peaks")
        top = {"kernel_shape": list(window)}
    count = window[0] * window[1]
    if b.dtype == "float32" and count > 2 ** 24:
        raise UnsupportedOp(f"node {node.name!r}: float32 cannot rank {count} "
                            "window positions exactly")
    # rank falls in row-major order, so the top-ranked maximum is the first one
    rank = b.const(np.arange(count, 0, -1).reshape(1, 1, *window), f"{tag}_rank")
    score = b.emit("Where", [b.emit("Greater", [pooled, cells], tag=f"{tag}_below"),
                             zero, rank], tag=f"{tag}_score")
    best = b.emit(node.op_type, [score], top, tag=f"{tag}_top")
    first = b.emit("Where", [b.emit("Greater", [best, score], tag=f"{tag}_later"),
                             zero, one], tag=f"{tag}_first")
    if node.op_type == "GlobalMaxPool":
        return b.emit("Mul", [first, m], tag=f"{tag}_route")
    rows, channels = b.shape(m)[0], shape[1]
    stacked = b.emit("Reshape", [first],
                     {"shape": [shape[0], channels, count, out_h, out_w]},
                     tag=f"{tag}_stacked")
    lanes = b.emit("Reshape", [m], {"shape": [rows, channels, 1, out_h, out_w]},
                   tag=f"{tag}_lanes")
    return b.emit("Reshape", [b.emit("Mul", [stacked, lanes], tag=f"{tag}_takes")],
                  {"shape": [rows * channels, count, out_h, out_w]},
                  tag=f"{tag}_route")


def _onehot(b: GraphBuilder, kernel) -> str:
    """The (K, 1, kh, kw) filter one-hot at window offset k, which a pool's
    gathers and scatter share."""
    taps = kernel[0] * kernel[1]
    return b.const(np.eye(taps).reshape(taps, 1, *kernel), "mponehot")


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
