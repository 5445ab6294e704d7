"""Built-in model zoo used by the test suite and the CLI generators.

Four image-classifier motifs exercise every supported operator between
them: a plain convolutional stack, a residual block, a two-branch network
joined by channel concatenation, and a gated elementwise design whose
scaling constants flow through a comparison/selection side chain.  A set
of micro networks isolates each multiplier rule family for tight numeric
comparison, and demo_model keeps a two-node toy around for walkthroughs.

All models are deterministic given the seed.  Weights are kept small so
softmax heads stay far away from overflow in float32.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .ir import DTYPES, GraphModel, Node, TensorValue, ValueSpec, validate_model
from .shapes import infer_graph_shapes

__all__ = [
    "CorpusEntry",
    "MicroNet",
    "MICRO_FAMILIES",
    "LINEAR_FAMILIES",
    "demo_model",
    "demo_sample",
    "build_corpus",
    "corpus_entry",
    "micro_net",
    "zero_references",
    "random_references",
    "random_inputs",
]

IMAGE_SHAPE = (3, 16, 16)
HEAD_CLASSES = 10


@dataclass
class CorpusEntry:
    """One ready-to-compile model with a sample input and references."""

    name: str
    description: str
    model: GraphModel
    sample: np.ndarray
    references: np.ndarray


@dataclass
class MicroNet:
    """A minimal net isolating one multiplier rule family."""

    name: str
    model: GraphModel
    sample: np.ndarray
    references: np.ndarray


class _Assembler:
    """Accumulates nodes and weights for a hand-built forward graph."""

    def __init__(self, name: str, input_shape: tuple[int, ...],
                 dtype: str = "float32"):
        self.name = name
        self.dtype = dtype
        self.input_name = "image" if len(input_shape) == 4 else "features"
        self.inputs = [ValueSpec(self.input_name, dtype, input_shape)]
        self.initializers: dict[str, TensorValue] = {}
        self.nodes: list[Node] = []

    def weight(self, name: str, array: np.ndarray) -> str:
        self.initializers[name] = TensorValue(array, self.dtype)
        return name

    def node(self, op: str, name: str, inputs: list[str],
             outputs: list[str] | None = None, **attrs) -> str:
        outputs = outputs or [name]
        self.nodes.append(Node(op, name + "_op", list(inputs), outputs,
                               dict(attrs)))
        return outputs[0]

    def model(self, head: str, head_shape: tuple[int, ...]) -> GraphModel:
        built = GraphModel(
            name=self.name,
            inputs=self.inputs,
            outputs=[ValueSpec(head, self.dtype, head_shape)],
            initializers=self.initializers,
            nodes=self.nodes,
        )
        validate_model(built)
        infer_graph_shapes(built)  # fail here, not at first run
        return built


def _dense(rng, fan_in: int, fan_out: int, gain: float = 1.0) -> np.ndarray:
    return rng.normal(0.0, gain / np.sqrt(fan_in), size=(fan_in, fan_out))


def _kernel(rng, cout: int, cin: int, k: int, gain: float = 1.0) -> np.ndarray:
    return rng.normal(0.0, gain / np.sqrt(cin * k * k), size=(cout, cin, k, k))


def demo_model() -> GraphModel:
    """Two-node walkthrough net: 32 features, one sigmoid output unit."""
    rng = np.random.default_rng(7)
    b = _Assembler("demo", (-1, 32), dtype="float64")
    w = b.weight("dense_w", _dense(rng, 32, 1, gain=0.8))
    logit = b.node("MatMul", "logit", [b.input_name, w])
    prob = b.node("Sigmoid", "prob", [logit])
    return b.model(prob, (-1, 1))


def demo_sample(seed: int = 11) -> np.ndarray:
    rng = np.random.default_rng(_seed(seed))
    return rng.normal(0.0, 1.0, size=(1, 32))


def _plain_deep(seed: int) -> GraphModel:
    rng = np.random.default_rng([seed, 1])
    b = _Assembler("plain_deep", (-1,) + IMAGE_SHAPE)
    w1 = b.weight("conv1_w", _kernel(rng, 4, 3, 3))
    c1 = b.node("Conv", "conv1", [b.input_name, w1],
                kernel_shape=[3, 3], strides=[1, 1], pads=[1, 1, 1, 1])
    a1 = b.node("Relu", "act1", [c1])
    p1 = b.node("MaxPool", "pool1", [a1],
                kernel_shape=[2, 2], strides=[2, 2], pads=[0, 0, 0, 0])
    w2 = b.weight("conv2_w", _kernel(rng, 8, 4, 3))
    b2 = b.weight("conv2_b", rng.normal(0.0, 0.05, size=(8,)))
    c2 = b.node("Conv", "conv2", [p1, w2, b2],
                kernel_shape=[3, 3], strides=[2, 2], pads=[1, 1, 1, 1])
    a2 = b.node("Tanh", "act2", [c2])
    p2 = b.node("AveragePool", "pool2", [a2],
                kernel_shape=[2, 2], strides=[2, 2], pads=[0, 0, 0, 0])
    flat = b.node("Flatten", "flat", [p2], axis=1)
    wh = b.weight("head_w", _dense(rng, 32, HEAD_CLASSES, gain=0.3).T.copy())
    bh = b.weight("head_b", rng.normal(0.0, 0.02, size=(HEAD_CLASSES,)))
    logits = b.node("Gemm", "head", [flat, wh, bh], transB=1)
    probs = b.node("Softmax", "probs", [logits], axis=-1)
    return b.model(probs, (-1, HEAD_CLASSES))


def _residual_add(seed: int) -> GraphModel:
    rng = np.random.default_rng([seed, 2])
    b = _Assembler("residual_add", (-1,) + IMAGE_SHAPE)
    w1 = b.weight("stem_w", _kernel(rng, 8, 3, 3))
    stem = b.node("Conv", "stem", [b.input_name, w1],
                  kernel_shape=[3, 3], strides=[1, 1], pads=[1, 1, 1, 1])
    scale = b.weight("bn_scale", rng.uniform(0.8, 1.2, size=(8,)))
    shift = b.weight("bn_shift", rng.normal(0.0, 0.05, size=(8,)))
    mean = b.weight("bn_mean", rng.normal(0.0, 0.1, size=(8,)))
    var = b.weight("bn_var", rng.uniform(0.5, 1.5, size=(8,)))
    bn = b.node("BatchNormalization", "bn",
                [stem, scale, shift, mean, var], epsilon=1e-5)
    trunk = b.node("Relu", "trunk", [bn])
    w2 = b.weight("branch_w", _kernel(rng, 8, 8, 3, gain=0.7))
    conv = b.node("Conv", "branch", [trunk, w2],
                  kernel_shape=[3, 3], strides=[1, 1], pads=[1, 1, 1, 1])
    gate = b.node("Sigmoid", "gate", [conv])
    merged = b.node("Add", "merge", [trunk, gate])
    pooled = b.node("GlobalAveragePool", "gap", [merged])
    flat = b.node("Reshape", "flat", [pooled], shape=[-1, 8])
    wh = b.weight("head_w", _dense(rng, 8, HEAD_CLASSES, gain=0.4).T.copy())
    bh = b.weight("head_b", rng.normal(0.0, 0.02, size=(HEAD_CLASSES,)))
    logits = b.node("Gemm", "head", [flat, wh, bh], transB=1)
    return b.model(logits, (-1, HEAD_CLASSES))


def _dense_concat(seed: int) -> GraphModel:
    rng = np.random.default_rng([seed, 3])
    b = _Assembler("dense_concat", (-1,) + IMAGE_SHAPE)
    wa = b.weight("wide_w", _kernel(rng, 4, 3, 3))
    ca = b.node("Conv", "wide", [b.input_name, wa],
                kernel_shape=[3, 3], strides=[1, 1], pads=[1, 1, 1, 1])
    aa = b.node("Relu", "wide_act", [ca])
    pa = b.node("GlobalMaxPool", "wide_pool", [aa])
    # second branch looks at the transposed image
    flipped = b.node("Transpose", "flip", [b.input_name], perm=[0, 1, 3, 2])
    wb = b.weight("narrow_w", _kernel(rng, 4, 3, 5))
    cb = b.node("Conv", "narrow", [flipped, wb],
                kernel_shape=[5, 5], strides=[1, 1], pads=[2, 2, 2, 2])
    ab = b.node("Tanh", "narrow_act", [cb])
    pb = b.node("GlobalAveragePool", "narrow_pool", [ab])
    joined = b.node("Concat", "join", [pa, pb], axis=1)
    flat = b.node("Flatten", "flat", [joined], axis=1)
    wh = b.weight("head_w", _dense(rng, 8, HEAD_CLASSES, gain=0.4))
    logits = b.node("MatMul", "head", [flat, wh])
    bias = b.weight("head_b", rng.normal(0.0, 0.02, size=(1, HEAD_CLASSES)))
    out = b.node("Add", "shift", [logits, bias])
    return b.model(out, (-1, HEAD_CLASSES))


def _scaled_add_mul(seed: int) -> GraphModel:
    rng = np.random.default_rng([seed, 4])
    b = _Assembler("scaled_add_mul", (-1,) + IMAGE_SHAPE)
    flat = b.node("Flatten", "flat", [b.input_name], axis=1)
    w1 = b.weight("embed_w", _dense(rng, 3 * 16 * 16, 32, gain=0.8))
    emb = b.node("MatMul", "embed", [flat, w1])
    feat = b.node("Tanh", "feat", [emb])
    # gate values come from a constant-only chain: every element of it is
    # fixed at build time, so no multiplier rule ever has to cross it
    raw = b.node("Constant", "gate_raw", [],
                 dtype=b.dtype, shape=[1, 32],
                 value=[float(v) for v in rng.uniform(-1.0, 1.0, size=32)])
    grown = b.node("Exp", "gate_grown", [raw])
    unit = b.node("Constant", "gate_unit", [],
                  dtype=b.dtype, shape=[1, 32], value=[1.0] * 32)
    mask = b.node("Greater", "gate_mask", [grown, unit])
    fallback = b.node("Constant", "gate_floor", [],
                      dtype=b.dtype, shape=[1, 32], value=[0.5] * 32)
    picked = b.node("Where", "gate_pick", [mask, grown, fallback])
    doubled = b.node("Tile", "gate_tile", [picked], repeats=[1, 2])
    gate = b.node("Split", "gate_split", [doubled],
                  outputs=["gate_lo", "gate_hi"], axis=1, split=[32, 32])
    gated = b.node("Mul", "gated", [feat, gate])
    squared = b.node("Mul", "squared", [feat, gated])
    denom = b.weight("damp", rng.uniform(1.5, 2.5, size=(1, 32)))
    damped = b.node("Div", "damped", [squared, denom])
    center_in = b.node("Sub", "residual", [damped, gated])
    norm = b.node("ReduceMean", "norm", [center_in], axes=[1], keepdims=1)
    centered = b.node("Sub", "centered", [center_in, norm])
    total = b.node("ReduceSum", "total", [centered], axes=[1], keepdims=1)
    wh = b.weight("head_w", _dense(rng, 32, HEAD_CLASSES, gain=0.4))
    logits = b.node("MatMul", "head", [centered, wh])
    out = b.node("Add", "shift", [logits, total])
    return b.model(out, (-1, HEAD_CLASSES))


_MOTIFS = {
    "plain_deep": (_plain_deep,
                   "convolutional stack with max and average pooling"),
    "residual_add": (_residual_add,
                     "normalized stem with a sigmoid-gated residual add"),
    "dense_concat": (_dense_concat,
                     "two conv branches joined by channel concatenation"),
    "scaled_add_mul": (_scaled_add_mul,
                       "elementwise gating with a constant comparison chain"),
}


def _at_least_one(count: int, what: str) -> int:
    if isinstance(count, bool) or not isinstance(count, numbers.Integral):
        raise ValidationError(f"{what} must be an integer, got {count!r}")
    if count < 1:
        raise ValidationError(f"{what} must be at least 1, got {count}")
    return count


def _seed(seed: int) -> int:
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) \
            or seed < 0:
        raise ValidationError(f"seed must be a non-negative integer, got {seed!r}")
    return seed


def _scale(scale: float) -> float:
    try:
        if not isinstance(scale, bool) and isinstance(scale, numbers.Real) \
                and math.isfinite(scale) and scale >= 0:
            return scale
    except OverflowError:  # an int too large for a float
        pass
    raise ValidationError(f"scale must be a finite real at least 0, got {scale!r}")


def zero_references(model: GraphModel, batch: int = 5) -> np.ndarray:
    spec = model.inputs[0]
    return np.zeros((_at_least_one(batch, "the reference batch"), *spec.shape[1:]),
                    dtype=DTYPES[spec.dtype])


def random_references(model: GraphModel, batch: int = 5, seed: int = 101,
                      scale: float = 0.5) -> np.ndarray:
    spec = model.inputs[0]
    rng = np.random.default_rng(_seed(seed))
    shape = (_at_least_one(batch, "the reference batch"),) + tuple(spec.shape[1:])
    return rng.normal(0.0, _scale(scale), size=shape).astype(DTYPES[spec.dtype])


def random_inputs(model: GraphModel, count: int, seed: int = 202,
                  scale: float = 0.8) -> list[np.ndarray]:
    """Independent single-row inputs for sweep-style checks."""
    spec = model.inputs[0]
    rng = np.random.default_rng(_seed(seed))
    shape = (1,) + tuple(spec.shape[1:])
    scale = _scale(scale)
    return [rng.normal(0.0, scale, size=shape).astype(DTYPES[spec.dtype])
            for _ in range(_at_least_one(count, "the input count"))]


def corpus_entry(name: str, seed: int = 0, batch: int = 5) -> CorpusEntry:
    if name not in _MOTIFS:
        raise ValidationError(
            f"unknown corpus model {name!r}; choose from {sorted(_MOTIFS)}")
    build, description = _MOTIFS[name]
    model = build(_seed(seed))
    sample = random_inputs(model, 1, seed=seed + 909)[0]
    return CorpusEntry(name=name, description=description, model=model,
                       sample=sample, references=zero_references(model, batch))


def build_corpus(seed: int = 0, batch: int = 5) -> list[CorpusEntry]:
    return [corpus_entry(name, seed, batch) for name in _MOTIFS]


# one micro network per multiplier rule family, heads kept rank-2
MICRO_FAMILIES = (
    "matmul_gemm", "conv", "sigmoid", "relu", "tanh", "softmax",
    "maxpool", "global_maxpool", "avgpool", "global_avgpool",
    "concat", "mul",
)

# families whose nets are fully linear, so multipliers equal gradients
LINEAR_FAMILIES = ("matmul_gemm", "conv", "concat", "avgpool",
                   "global_avgpool")


def _micro_matmul_gemm(rng, b: _Assembler) -> tuple[str, int]:
    w1 = b.weight("w1", _dense(rng, 6, 4))
    h = b.node("MatMul", "mix", [b.input_name, w1])
    w2 = b.weight("w2", _dense(rng, 4, 3).T.copy())
    bias = b.weight("bias", rng.normal(0.0, 0.1, size=(3,)))
    out = b.node("Gemm", "head", [h, w2, bias], alpha=0.5, beta=1.0, transB=1)
    return out, 3


def _micro_conv(rng, b: _Assembler) -> tuple[str, int]:
    w = b.weight("k", _kernel(rng, 3, 2, 3))
    cb = b.weight("kb", rng.normal(0.0, 0.1, size=(3,)))
    c = b.node("Conv", "conv", [b.input_name, w, cb],
               kernel_shape=[3, 3], strides=[2, 2], pads=[1, 1, 1, 1])
    flat = b.node("Flatten", "flat", [c], axis=1)
    wh = b.weight("w", _dense(rng, 27, 3))
    return b.node("MatMul", "head", [flat, wh]), 3


def _micro_activation(op: str):
    def build(rng, b: _Assembler) -> tuple[str, int]:
        w1 = b.weight("w1", _dense(rng, 5, 4))
        h = b.node("MatMul", "mix", [b.input_name, w1])
        attrs = {"axis": -1} if op == "Softmax" else {}
        a = b.node(op, "act", [h], **attrs)
        w2 = b.weight("w2", _dense(rng, 4, 2))
        return b.node("MatMul", "head", [a, w2]), 2
    return build


def _micro_maxpool(rng, b: _Assembler) -> tuple[str, int]:
    p = b.node("MaxPool", "pool", [b.input_name],
               kernel_shape=[3, 3], strides=[2, 2], pads=[1, 1, 1, 1])
    flat = b.node("Flatten", "flat", [p], axis=1)
    wh = b.weight("w", _dense(rng, 9, 2))
    return b.node("MatMul", "head", [flat, wh]), 2


def _micro_global_maxpool(rng, b: _Assembler) -> tuple[str, int]:
    p = b.node("GlobalMaxPool", "pool", [b.input_name])
    flat = b.node("Flatten", "flat", [p], axis=1)
    wh = b.weight("w", _dense(rng, 3, 2))
    return b.node("MatMul", "head", [flat, wh]), 2


def _micro_avgpool(rng, b: _Assembler) -> tuple[str, int]:
    p = b.node("AveragePool", "pool", [b.input_name],
               kernel_shape=[3, 3], strides=[2, 2], pads=[1, 1, 1, 1],
               count_include_pad=0)
    flat = b.node("Flatten", "flat", [p], axis=1)
    wh = b.weight("w", _dense(rng, 18, 2))
    return b.node("MatMul", "head", [flat, wh]), 2


def _micro_global_avgpool(rng, b: _Assembler) -> tuple[str, int]:
    p = b.node("GlobalAveragePool", "pool", [b.input_name])
    flat = b.node("Flatten", "flat", [p], axis=1)
    wh = b.weight("w", _dense(rng, 3, 2))
    return b.node("MatMul", "head", [flat, wh]), 2


def _micro_concat(rng, b: _Assembler) -> tuple[str, int]:
    wa = b.weight("wa", _dense(rng, 6, 3))
    a = b.node("MatMul", "left", [b.input_name, wa])
    wb = b.weight("wb", _dense(rng, 6, 4))
    c = b.node("MatMul", "right", [b.input_name, wb])
    j = b.node("Concat", "join", [a, c], axis=1)
    wh = b.weight("w", _dense(rng, 7, 2))
    return b.node("MatMul", "head", [j, wh]), 2


def _micro_mul(rng, b: _Assembler) -> tuple[str, int]:
    wa = b.weight("wa", _dense(rng, 6, 4))
    a = b.node("Tanh", "left", [b.node("MatMul", "mixa", [b.input_name, wa])])
    wb = b.weight("wb", _dense(rng, 6, 4))
    c = b.node("MatMul", "mixb", [b.input_name, wb])
    both = b.node("Mul", "both_sides", [a, c])
    g = b.weight("g", rng.uniform(0.5, 1.5, size=(1, 4)))
    one = b.node("Mul", "one_side", [both, g])
    wh = b.weight("w", _dense(rng, 4, 2))
    return b.node("MatMul", "head", [one, wh]), 2


def _micro_batchnorm(rng, b: _Assembler) -> tuple[str, int]:
    # stats chosen so the baked rescale factor is exactly one
    scale = b.weight("bn_scale", np.full(3, 2.0))
    shift = b.weight("bn_shift", rng.normal(0.0, 0.1, size=(3,)))
    mean = b.weight("bn_mean", rng.normal(0.0, 0.1, size=(3,)))
    var = b.weight("bn_var", np.full(3, 4.0 - 1e-5))
    n = b.node("BatchNormalization", "bn",
               [b.input_name, scale, shift, mean, var], epsilon=1e-5)
    flat = b.node("Flatten", "flat", [n], axis=1)
    wh = b.weight("w", _dense(rng, 12, 2))
    return b.node("MatMul", "head", [flat, wh]), 2


_MICRO_SHAPES = {
    "matmul_gemm": (-1, 6),
    "conv": (-1, 2, 6, 6),
    "sigmoid": (-1, 5),
    "relu": (-1, 5),
    "tanh": (-1, 5),
    "softmax": (-1, 5),
    "maxpool": (-1, 1, 6, 6),
    "global_maxpool": (-1, 3, 4, 4),
    "avgpool": (-1, 2, 6, 6),
    "global_avgpool": (-1, 3, 4, 4),
    "concat": (-1, 6),
    "mul": (-1, 6),
    "batchnorm": (-1, 3, 2, 2),
}

_MICRO_BUILDERS = {
    "matmul_gemm": _micro_matmul_gemm,
    "conv": _micro_conv,
    "sigmoid": _micro_activation("Sigmoid"),
    "relu": _micro_activation("Relu"),
    "tanh": _micro_activation("Tanh"),
    "softmax": _micro_activation("Softmax"),
    "maxpool": _micro_maxpool,
    "global_maxpool": _micro_global_maxpool,
    "avgpool": _micro_avgpool,
    "global_avgpool": _micro_global_avgpool,
    "concat": _micro_concat,
    "mul": _micro_mul,
    "batchnorm": _micro_batchnorm,
}


def micro_net(family: str, seed: int = 0, batch: int = 5,
              dtype: str = "float64") -> MicroNet:
    """Build the micro network for one rule family with random references."""
    if family not in _MICRO_BUILDERS:
        raise ValidationError(
            f"unknown micro family {family!r}; choose from "
            f"{sorted(_MICRO_BUILDERS)}")
    rng = np.random.default_rng([_seed(seed), sorted(_MICRO_BUILDERS).index(family)])
    b = _Assembler(f"micro_{family}", _MICRO_SHAPES[family], dtype=dtype)
    head, classes = _MICRO_BUILDERS[family](rng, b)
    model = b.model(head, (-1, classes))
    sample = random_inputs(model, 1, seed=seed + 31)[0]
    references = random_references(model, batch, seed=seed + 67, scale=0.7)
    return MicroNet(name=family, model=model, sample=sample,
                    references=references)
