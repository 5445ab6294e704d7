"""Scheme assembly and cost accounting.

Two ways to attach an attribution head to a forward graph:

* build_optimized evaluates every reference-side activation once at compile
  time and bakes the values the rules actually consult into the artifact as
  constants.  The runtime graph then runs the target forward pass on a single
  row and broadcasts it against the baked B-row tensors.

* build_naive reproduces the replicate-and-stack layout: the target row is
  tiled B times, concatenated with the reference rows into a 2B-row batch,
  and the whole forward pass runs at that width every call.  It exists as the
  equivalence baseline and for cost comparisons.

Both layouts add the forward nodes, in the model's declared dependency
order, to the GraphBuilder the gradient rules emit through; nothing sorts.
The builder folds every node whose inputs are all known, forward or
backward, so a constant-only forward chain runs at compile time, not per
explain, and ships as ``_finish`` decides (below).  It is also the
compile's one shape table: rules read every shape from it.

The same folder evaluates the reference side, once per compile: each
forward node that depends on the graph input is added again over the B
reference rows and folds.  The optimized rules read those copies, and a copy
ships only when a runtime node reads it.

Every compile-time constant is a known value in the builder, and ``_finish``
alone decides how one that a runtime node or output reads ships, in one of
two forms.  One the builder folded from a node whose every input ships
unchanged, as a payload already in the artifact's dtype or as the output of
another such node, ships as that node, ahead of its readers; so does each
node of such a chain whose value no runtime node reads.  So a reference
activation ships as the node that rebuilds it from the copy below it, and
a max-pool rank mask as the gather and comparisons that rebuild it from the
pool's reference copies.  The execution plan runs these nodes once, when it
is built, to the bits the fold made, so they cost no payload bytes and
nothing per explain.  One exception: the reference forward pass's weight
layers, a Conv, MatMul, Gemm or BatchNormalization that reads a model
weight, ship as payloads, as rebuilding them at load would re-run that
pass.  Every other constant ships as a payload: a model weight as the
model's own tensor, anything else in the artifact's dtype, so a folded
boolean as 0/1 floats.  Equal payloads ship once.

count_flops prices either artifact with fixed per-op conventions so the two
schemes can be compared analytically; it prices the steps an explain runs,
not the nodes the plan runs once.  row_passes counts those of the steps
that run over every reference row, and the bytes they make.
"""

from __future__ import annotations

import hashlib
import numbers
from collections import Counter
from dataclasses import dataclass, field
from typing import AbstractSet

import numpy as np

from .autodiff import differentiate
from .builder import GraphBuilder, RuleEnv, _short
from .errors import ShapeError, UnsupportedOp, ValidationError
from .ir import (DTYPES, GraphModel, Node, TensorValue, ValueSpec, _as_array,
                 model_digest, validate_model)
from .parser import build_backward_graph
from .shapes import infer_graph_shapes

__all__ = [
    "FlopReport",
    "ACTIVATION_FLOP_COST",
    "build_optimized",
    "build_naive",
    "op_census",
    "count_flops",
    "row_passes",
]

# fixed per-element price for transcendental activations; the remaining
# conventions live in _node_flops
ACTIVATION_FLOP_COST = 4

# the reference forward pass's weight layers: one that reads a model weight
# ships as a payload, never as a node the plan re-runs at load
_WEIGHT_LAYERS = frozenset({"Conv", "MatMul", "Gemm", "BatchNormalization"})

_PREDICTION = "prediction"
_ATTRIBUTION = "attribution"


def _as_references(references, spec: ValueSpec) -> np.ndarray:
    """The reference set as row-major rows the graph input ``spec`` takes,
    or an error naming it.  Row-major, so a reduction folded over the rows
    gives the bits the plan's node gives over their payload."""
    refs = _as_array(references, spec.dtype, "the reference set")
    if refs.ndim < 1 or refs.shape[0] < 1:
        raise ValidationError("the reference set must carry at least one row")
    if len(refs.shape) != len(spec.shape) or any(
            want not in (-1, got) for got, want in zip(refs.shape, spec.shape)):
        raise ShapeError(
            f"the reference set has shape {refs.shape}, which input "
            f"{spec.name!r} of shape {spec.shape} does not take")
    return np.ascontiguousarray(refs)


def _source_digest(model: GraphModel, refs: np.ndarray) -> str:
    """sha256 binding a model to the reference set an artifact was built for."""
    digest = hashlib.sha256(model_digest(model).encode())
    digest.update(np.ascontiguousarray(refs))  # the row-major bytes, uncopied
    return digest.hexdigest()


def _grad_prefix(model: GraphModel) -> str:
    taken = {n.name for n in model.nodes}
    taken.update(o for n in model.nodes for o in n.outputs)
    taken.update(model.initializers)
    prefix = "bwd"
    while any(t.startswith(prefix + "/") for t in taken):
        prefix += "x"
    return prefix


def _check_arguments(builder: GraphBuilder, explained: str, output_index) -> int:
    """The explained output's class count, read once the forward nodes are
    in ``builder``.  Names the first thing an artifact could not use: an
    output that is not rank-2 or an output index that picks no class."""
    out_shape = builder.shape(explained)
    if len(out_shape) != 2:
        raise UnsupportedOp(
            f"the explained output must be rank-2 (batch, classes); "
            f"{explained!r} has shape {out_shape}")
    classes = out_shape[1]
    if isinstance(output_index, bool) or not isinstance(output_index, numbers.Integral) \
            or not 0 <= output_index < classes:
        raise ValidationError(
            f"output_index {output_index!r} picks none of the {classes} classes")
    return classes


def _start(model: GraphModel, references):
    """What both layouts begin with, once the model and the reference set
    check out: the reference rows, a builder that knows the one-row graph
    input's shape and every initializer, and the backward graph around the
    first output.  A ``Reshape`` of an input-dependent value must keep its
    leading extent free (-1), as both layouts also run it over B or 2B rows.
    Each layout names the rows afresh: they are unique, so ``const``'s
    numbering by content would buy nothing.

    Returns (refs, builder, backward).
    """
    validate_model(model)
    if len(model.inputs) != 1:
        raise UnsupportedOp("attribution requires exactly one graph input")
    spec = model.inputs[0]
    refs = _as_references(references, spec)
    backward = build_backward_graph(model, model.outputs[0].name)
    for node in model.nodes:
        if node.op_type == "Reshape" and list(node.attributes["shape"])[:1] != [-1] \
                and not backward.differentiable.isdisjoint(node.inputs):
            raise UnsupportedOp(
                f"node {node.name!r}: a Reshape of an input-dependent value must "
                f"keep its leading extent free (-1), got {node.attributes['shape']}")
    builder = GraphBuilder(dtype=spec.dtype, prefix=_grad_prefix(model))
    builder.register_value(spec.name, (1,) + tuple(spec.shape[1:]))
    for name, tv in model.initializers.items():
        builder.register_value(name, tv.shape, tv.array)
    return refs, builder, backward


def _fold_references(builder: GraphBuilder, model: GraphModel,
                     rows: str) -> dict[str, str]:
    """Forward value name -> its copy over the known reference rows
    ``rows``, for the graph input and each value computed from it.  Every
    node reading such a value is added again, with fresh output names, and
    folds through the kernels and at the B-row shapes ``execute`` uses."""
    copies = {model.inputs[0].name: rows}
    for node in model.nodes:
        if any(i in copies for i in node.inputs):
            outputs = [builder.fresh(f"ref_{_short(o)}") for o in node.outputs]
            builder.add(Node(node.op_type, node.name,
                             [copies.get(i, i) for i in node.inputs], outputs,
                             node.attributes))
            copies.update(zip(node.outputs, outputs))
    return copies


def _seed_array(batch: int, classes: int, output_index: int,
                dtype: str) -> np.ndarray:
    seed = np.zeros((batch, classes), dtype=DTYPES[dtype])
    seed[:, output_index] = 1
    return seed


def _metadata(scheme: str, model: GraphModel, *, output_index: int,
              refs: np.ndarray, ref_output: np.ndarray, forward_nodes,
              cache_entries, cache_bytes: int) -> dict:
    """The artifact's metadata: what its graph cannot say.  ``ref_output``
    is the explained output over ``refs``."""
    return {
        "scheme": scheme,
        "output_index": int(output_index),
        "batch": int(refs.shape[0]),
        "forward_nodes": list(forward_nodes),
        "ref_output_mean": float(ref_output[:, output_index].mean()),
        "cache_entries": sorted(cache_entries),
        "cache_bytes": int(cache_bytes),
        "source_digest": _source_digest(model, refs),
    }


def _derive(builder: GraphBuilder, ships: set[str],
            weights: AbstractSet[str]) -> list[Node]:
    """The folded nodes that ship in place of the payloads ``ships``
    names, in fold order (dependency order).  A node can ship when each of
    its inputs ships unchanged, as a payload already in the artifact's
    dtype, or is made by another node that can; it does ship when its
    output ships or feeds a node that does.  So a chain of them derives
    from the payloads at its feet, whatever their number, even where no
    runtime node reads the values in between.  A boolean such a node makes
    stays a boolean, which its runtime readers take as they take 0/1
    floats: a rule's ``Where`` as its condition, any other op beside a
    float operand.  A folded boolean that ships as a payload is stored as
    0/1 floats, not unchanged, so a node reading it stays a payload.  One
    exception: a weight layer (``_WEIGHT_LAYERS``) that reads one of the
    model's ``weights`` stays a payload, as rebuilding it at load would
    re-run the reference forward pass."""
    dtype = DTYPES[builder.dtype]
    able, made = [], set()
    for name, node in builder.folds.items():
        baked = node.op_type in _WEIGHT_LAYERS \
            and not weights.isdisjoint(node.inputs)
        if name == node.outputs[0] and not baked and all(
                i in made or (i in ships and builder.known[i].dtype == dtype)
                for i in node.inputs):
            able.append(node)
            made.update(node.outputs)
    wanted, derived = set(ships), []
    for node in reversed(able):
        if not wanted.isdisjoint(node.outputs):
            wanted.update(node.inputs)
            derived.append(node)
    return derived[::-1]


def _finish(model: GraphModel, builder: GraphBuilder, prediction: str,
            phi: str, multipliers: str | None) -> GraphModel:
    """The validated artifact: the builder's nodes, the prediction, phi and
    (when exposed) the input multipliers as its outputs in that order, which
    is how ``explain`` finds them, and the known values some node reads or
    some output names; a known value every consumer of which folded away is
    left out.  One ``_derive`` picks ships as its node, ahead of every node
    that reads it, and every other one as a payload, in ``known`` order: a
    model initializer as the model's own tensor, anything else in the
    artifact's dtype, so a folded boolean as 0/1 floats.  Payloads equal in
    dtype, shape and bytes, such as two reference copies over zero rows,
    ship once, under the first one's name, which their readers read
    instead; an output keeps its own."""
    names = [prediction, phi] + ([multipliers] if multipliers else [])
    read = {i for node in builder.nodes for i in node.inputs} | set(names)
    derived = _derive(builder, read & builder.known.keys(),
                      model.initializers.keys())
    made = {o for node in derived for o in node.outputs}
    # (dtype, shape) -> the payloads of that form, so only they are compared
    initializers, alias, forms = {}, {}, {}
    for name in builder.known:
        if name not in read or name in made:
            continue
        tensor = model.initializers[name] if name in model.initializers \
            else TensorValue(builder.known[name], builder.dtype)
        same = forms.setdefault((tensor.dtype, tensor.shape), [])
        twin = next((other for other in same if initializers[other] == tensor),
                    None)
        if twin is None or name in names:
            initializers[name] = tensor
            same.append(name)
        else:
            alias[name] = twin

    def reading_twins(node: Node, name: str) -> Node:
        return Node(node.op_type, name, [alias.get(i, i) for i in node.inputs],
                    list(node.outputs), dict(node.attributes))

    input_name = model.inputs[0].name
    artifact = GraphModel(
        name=f"{model.name}.explainer",
        inputs=[ValueSpec(input_name, builder.dtype, builder.shape(input_name))],
        outputs=[ValueSpec(n, builder.dtype, builder.shape(n)) for n in names],
        initializers=initializers,
        nodes=[reading_twins(node, builder.fresh(node.name)) for node in derived]
        + [node if alias.keys().isdisjoint(node.inputs)
           else reading_twins(node, node.name) for node in builder.nodes],
    )
    validate_model(artifact)
    return artifact


def build_optimized(model: GraphModel, references, output_index: int = 0, *,
                    expose_multipliers: bool = False):
    """Attach the attribution head with all reference activations baked in.

    The backward pass is seeded with one row, not B identical ones: a
    gradient keeps one row until a rule mixes in the B reference rows, so
    everything folded before that point ships at one row's width.  On a
    net with no nonlinearity no rule does, and the exposed multipliers are
    one row that holds for every reference.

    Returns (artifact, metadata).
    """
    refs, builder, backward = _start(model, references)
    input_name, explained = model.inputs[0].name, backward.explained_output
    batch = int(refs.shape[0])
    for node in model.nodes:
        builder.add(node)
    forward_nodes = [n.name for n in builder.nodes]
    classes = _check_arguments(builder, explained, output_index)
    rows = builder.fresh(f"ref_{_short(input_name)}")
    builder.register_value(rows, refs.shape, refs)
    copies = _fold_references(builder, model, rows)

    env = RuleEnv(builder, batch, joint=False, refs=copies)
    loss = builder.const(_seed_array(1, classes, output_index, builder.dtype),
                         "seed")
    input_grad = differentiate(model, backward, loss, env)

    # phi = mean over references of multiplier * (X - R)
    d_input = env.delta(input_name)
    contrib = builder.emit("Mul", [input_grad, d_input], tag="contrib")
    phi = builder.emit("ReduceMean", [contrib], {"axes": [0], "keepdims": 1},
                       tag=_ATTRIBUTION)
    artifact = _finish(model, builder, explained, phi,
                       input_grad if expose_multipliers else None)

    baked = [name for name, copy in copies.items() if copy in artifact.initializers]
    meta = _metadata(
        "optimized", model, output_index=output_index, refs=refs,
        ref_output=builder.known[copies[explained]],
        forward_nodes=forward_nodes, cache_entries=baked,
        cache_bytes=sum(
            artifact.initializers[copies[name]].nbytes for name in baked))
    return artifact, meta


def build_naive(model: GraphModel, references, output_index: int = 0, *,
                expose_multipliers: bool = False):
    """Attach the attribution head in the replicate-and-stack layout.

    Returns (artifact, metadata).
    """
    refs, builder, backward = _start(model, references)
    input_name, explained = model.inputs[0].name, backward.explained_output
    batch = int(refs.shape[0])
    in_rank = len(builder.shape(input_name))

    tiled = builder.emit("Tile", [input_name],
                         {"repeats": [batch] + [1] * (in_rank - 1)}, tag="stackx")
    rows = builder.fresh("refrows")
    builder.register_value(rows, refs.shape, refs)
    stacked = builder.emit("Concat", [tiled, rows], {"axis": 0}, tag="stack")

    # clone the forward graph at 2B rows under its original value names
    rename = {input_name: stacked}
    for node in model.nodes:
        builder.add(Node(node.op_type, node.name,
                         [rename.get(i, i) for i in node.inputs],
                         list(node.outputs), dict(node.attributes)))
    forward_nodes = [n.name for n in builder.nodes]
    classes = _check_arguments(builder, explained, output_index)
    copies = _fold_references(builder, model, rows)

    env = RuleEnv(builder, batch, joint=True)
    env.alias[input_name] = stacked
    loss = builder.const(_seed_array(2 * batch, classes, output_index,
                                     builder.dtype), "seed")
    input_grad = differentiate(model, backward, loss, env)

    # phi: mask out the reference-half rows, sum the stream, divide by B
    d_input = builder.emit("Sub", [input_name, rows], tag="inputdelta")
    masked = env.wrap_stream(d_input)
    contrib = builder.emit("Mul", [input_grad, masked], tag="contrib")
    summed = builder.emit("ReduceSum", [contrib], {"axes": [0], "keepdims": 1},
                          tag="contribsum")
    phi = builder.emit("Mul", [summed, builder.const(1.0 / batch, "invb")],
                       tag=_ATTRIBUTION)
    # the target half carries B identical rows; their mean is the prediction
    pred = builder.emit("ReduceMean", [env.x_of(explained)],
                        {"axes": [0], "keepdims": 1}, tag=_PREDICTION)
    artifact = _finish(model, builder, pred, phi,
                       input_grad if expose_multipliers else None)

    meta = _metadata(
        "naive", model, output_index=output_index, refs=refs,
        ref_output=builder.known[copies[explained]],
        forward_nodes=forward_nodes, cache_entries=[], cache_bytes=0)
    return artifact, meta


def op_census(model: GraphModel) -> Counter:
    """Node count per op type."""
    return Counter(node.op_type for node in model.nodes)


@dataclass
class FlopReport:
    """Analytic cost of one explained image for a compiled graph."""

    total: int
    by_node: list[tuple[str, str, int]]
    by_op: dict[str, int] = field(default_factory=dict)
    forward_flops: int = 0
    backward_flops: int = 0
    forward_peak_bytes: int = 0
    cache_bytes: int = 0
    batch: int | None = None

    def as_dict(self) -> dict:
        return {
            "total": self.total,
            "forward_flops": self.forward_flops,
            "backward_flops": self.backward_flops,
            "forward_peak_bytes": self.forward_peak_bytes,
            "cache_bytes": self.cache_bytes,
            "batch": self.batch,
            "by_op": dict(sorted(self.by_op.items())),
            "by_node": [list(row) for row in self.by_node],
        }


def _node_flops(node: Node, shapes: dict[str, tuple[int, ...]]) -> int:
    op = node.op_type
    out = shapes[node.outputs[0]]
    out_elems = int(np.prod(out)) if out else 1
    if op in ("MatMul", "Gemm"):
        inner = shapes[node.inputs[0]][-1]
        flops = 2 * out_elems * int(inner)
        if op == "Gemm" and len(node.inputs) == 3:
            flops += out_elems
        return flops
    if op in ("Conv", "ConvTranspose"):
        # each element on the filters' leading-channel side meets every tap
        # of the other side: Conv's outputs, ConvTranspose's inputs
        w = shapes[node.inputs[1]]
        lead = out_elems if op == "Conv" else int(np.prod(shapes[node.inputs[0]]))
        flops = 2 * lead * int(w[1] * w[2] * w[3])
        if len(node.inputs) == 3:
            flops += out_elems
        return flops
    if op in ("Add", "Sub", "Mul", "Div", "Greater", "Equal", "Where", "Abs", "Cast"):
        return out_elems
    if op in ("Sigmoid", "Tanh", "Exp", "Softmax", "Relu"):
        return ACTIVATION_FLOP_COST * out_elems
    if op in ("MaxPool", "AveragePool"):
        kernel = node.attributes["kernel_shape"]
        return out_elems * int(kernel[0] * kernel[1])
    if op in ("GlobalMaxPool", "GlobalAveragePool", "ReduceSum", "ReduceMean"):
        return int(np.prod(shapes[node.inputs[0]]))
    if op == "BatchNormalization":
        return 2 * out_elems
    # movement only: Transpose, Reshape, Flatten, Tile, Concat, Split, Pad,
    # Constant
    return 0


def _steps(model: GraphModel) -> tuple[list[Node], set[str]]:
    """The nodes an explain runs, and the names of the constants: a node
    whose every input is an initializer or the output of such a node runs
    once, when the execution plan is built, and is not a step."""
    constants, steps = set(model.initializers), []
    for node in model.nodes:
        if constants.issuperset(node.inputs):
            constants.update(node.outputs)
        else:
            steps.append(node)
    return steps, constants


def row_passes(model: GraphModel, rows: int) -> tuple[int, int]:
    """(passes, bytes): the steps of a one-row explain whose output's
    leading extent is ``rows``, the full-size passes over the reference rows
    (B in the optimized layout, 2B in the naive one), and the bytes those
    outputs hold, a comparison's bool one byte per element."""
    shapes = infer_graph_shapes(model)
    itemsize = np.dtype(DTYPES[model.inputs[0].dtype]).itemsize
    passes = written = 0
    for node in _steps(model)[0]:
        full = [shapes[o] for o in node.outputs if shapes[o][:1] == (rows,)]
        if full:
            passes += 1
            size = 1 if node.op_type in ("Greater", "Equal") else itemsize
            written += size * sum(int(np.prod(shape)) for shape in full)
    return passes, written


def count_flops(model: GraphModel, batch: int | None = None,
                forward_nodes=None, cache_bytes: int = 0) -> FlopReport:
    """Price every step an explain runs with fixed conventions; split
    forward/backward.

    A node whose every input is an initializer or the output of such a
    node runs once, when the execution plan is built, so it is left out.
    ``batch`` is the graph input's leading extent, as in
    ``infer_graph_shapes``: without it a free batch counts as one row, so a
    source model is priced per image.  ``forward_nodes`` names the forward
    subset (defaults to all nodes); the peak-bytes estimate covers only that
    subset and excludes constants.
    """
    shapes = infer_graph_shapes(model, batch)
    itemsize = np.dtype(DTYPES[model.inputs[0].dtype]).itemsize if model.inputs else 8
    forward = set(forward_nodes) if forward_nodes is not None \
        else {n.name for n in model.nodes}
    steps, constants = _steps(model)
    by_node = []
    by_op: dict[str, int] = {}
    fwd = bwd = 0
    peak = 0
    for node in steps:
        flops = _node_flops(node, shapes)
        by_node.append((node.name, node.op_type, flops))
        by_op[node.op_type] = by_op.get(node.op_type, 0) + flops
        if node.name in forward:
            fwd += flops
            live = [i for i in node.inputs if i not in constants]
            touched = sum(int(np.prod(shapes[v])) for v in live) \
                + sum(int(np.prod(shapes[o])) for o in node.outputs)
            peak = max(peak, touched * itemsize)
        else:
            bwd += flops
    total = fwd + bwd
    if total != sum(f for _, _, f in by_node):
        raise ShapeError("FLOP breakdown does not sum to the total")
    return FlopReport(total=total, by_node=by_node, by_op=by_op,
                      forward_flops=fwd, backward_flops=bwd,
                      forward_peak_bytes=peak, cache_bytes=cache_bytes,
                      batch=batch)
