"""Graph intermediate representation and its JSON exchange format.

A model is a flat list of operator nodes in static single assignment form:
every value name is produced exactly once, by a graph input, an initializer,
or a node output.  Models are serialized as ``.sgm`` JSON documents with
tensor payloads stored as base64 raw bytes (row-major, little-endian), and
single tensors as ``.stn`` envelopes.  ``model_digest`` hashes the same
content without serializing it: sha256 over a canonical JSON header (name,
specs, nodes, and each initializer's name, dtype and shape) followed by the
raw little-endian payloads in declaration order.
"""

from __future__ import annotations

import base64
import hashlib
import heapq
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import CycleError, ParseError, ValidationError

__all__ = [
    "DTYPES",
    "SUPPORTED_OPS",
    "TensorValue",
    "ValueSpec",
    "Node",
    "GraphModel",
    "load_model",
    "loads_model",
    "save_model",
    "dumps_model",
    "load_tensor",
    "save_tensor",
    "topological_order",
    "validate_model",
    "model_digest",
]

DTYPES = {"float32": np.float32, "float64": np.float64}

# op_type -> (min inputs, max inputs or None for variadic, outputs or None for variadic)
_ARITY = {
    "MatMul": (2, 2, 1),
    "Gemm": (2, 3, 1),
    "Conv": (2, 3, 1),
    "Add": (2, 2, 1),
    "Sub": (2, 2, 1),
    "Mul": (2, 2, 1),
    "Div": (2, 2, 1),
    "Concat": (1, None, 1),
    "Relu": (1, 1, 1),
    "Sigmoid": (1, 1, 1),
    "Tanh": (1, 1, 1),
    "Softmax": (1, 1, 1),
    "Exp": (1, 1, 1),
    "MaxPool": (1, 1, 1),
    "AveragePool": (1, 1, 1),
    "GlobalAveragePool": (1, 1, 1),
    "GlobalMaxPool": (1, 1, 1),
    "BatchNormalization": (5, 5, 1),
    "Transpose": (1, 1, 1),
    "Reshape": (1, 1, 1),
    "Flatten": (1, 1, 1),
    "ReduceSum": (1, 1, 1),
    "ReduceMean": (1, 1, 1),
    "Greater": (2, 2, 1),
    "Where": (3, 3, 1),
    "Tile": (1, 1, 1),
    "Split": (1, 1, None),
    "Constant": (0, 0, 1),
    "Abs": (1, 1, 1),
    "Pad": (1, 1, 1),
    "Slice": (1, 1, 1),
    "ConvTranspose": (2, 3, 1),
}

SUPPORTED_OPS = frozenset(_ARITY)


def _check_arity(node: Node, n_inputs: int) -> None:
    """ValidationError naming ``node`` unless its supported op takes
    ``n_inputs`` operands and produces as many outputs as it declares."""
    lo, hi, n_out = _ARITY[node.op_type]
    if n_inputs < lo or (hi is not None and n_inputs > hi):
        raise ValidationError(
            f"node {node.name!r}: {node.op_type} takes between {lo} and "
            f"{hi if hi is not None else 'any'} inputs, got {n_inputs}")
    if n_out is not None and len(node.outputs) != n_out:
        raise ValidationError(
            f"node {node.name!r}: {node.op_type} produces {n_out} outputs, "
            f"got {len(node.outputs)}")


# op_type -> {attribute name: kind}, with the subset that is mandatory.
_ATTR_KINDS = {
    "Gemm": {"alpha": "float", "beta": "float", "transA": "int", "transB": "int"},
    "Conv": {"kernel_shape": "ints", "strides": "ints", "pads": "ints",
             "dilations": "ints", "group": "int"},
    "Concat": {"axis": "int"},
    "Softmax": {"axis": "int"},
    "MaxPool": {"kernel_shape": "ints", "strides": "ints", "pads": "ints"},
    "AveragePool": {"kernel_shape": "ints", "strides": "ints", "pads": "ints",
                    "count_include_pad": "int"},
    "BatchNormalization": {"epsilon": "float"},
    "Transpose": {"perm": "ints"},
    "Reshape": {"shape": "ints"},
    "Flatten": {"axis": "int"},
    "ReduceSum": {"axes": "ints", "keepdims": "int"},
    "ReduceMean": {"axes": "ints", "keepdims": "int"},
    "Tile": {"repeats": "ints"},
    "Split": {"axis": "int", "split": "ints"},
    "Constant": {"dtype": "string", "shape": "ints", "value": "floats"},
    "Pad": {"mode": "string", "pads": "ints", "value": "float"},
    "Slice": {"starts": "ints", "ends": "ints", "axes": "ints", "steps": "ints"},
    "ConvTranspose": {"kernel_shape": "ints", "strides": "ints", "pads": "ints",
                      "output_padding": "ints", "group": "int"},
}

_REQUIRED_ATTRS = {
    "Conv": {"kernel_shape"},
    "Concat": {"axis"},
    "MaxPool": {"kernel_shape"},
    "AveragePool": {"kernel_shape"},
    "Transpose": {"perm"},
    "Reshape": {"shape"},
    "Tile": {"repeats"},
    "Constant": {"dtype", "shape", "value"},
    "Pad": {"pads"},
    "Slice": {"starts", "ends"},
    "ConvTranspose": {"kernel_shape"},
}


class TensorValue:
    """A dense tensor with an explicit dtype, shape and row-major payload."""

    __slots__ = ("dtype", "shape", "array")

    def __init__(self, array: np.ndarray, dtype: str | None = None):
        if dtype is None:
            dtype = str(array.dtype)
        if dtype not in DTYPES:
            raise ValidationError(f"unsupported tensor dtype {dtype!r}")
        arr = np.ascontiguousarray(array, dtype=DTYPES[dtype])
        if not np.all(np.isfinite(arr)):
            raise ValidationError("tensor payload contains non-finite values")
        self.dtype = dtype
        self.shape = tuple(int(d) for d in arr.shape)
        self.array = arr

    def little_endian(self) -> np.ndarray:
        """Row-major little-endian payload; a copy only on big-endian hosts."""
        kind = "<f4" if self.dtype == "float32" else "<f8"
        return self.array.astype(kind, copy=False)

    def to_bytes(self) -> bytes:
        return self.little_endian().tobytes(order="C")

    @classmethod
    def from_bytes(cls, raw: bytes, dtype: str, shape: tuple[int, ...]) -> "TensorValue":
        if dtype not in DTYPES:
            raise ParseError(f"unsupported tensor dtype {dtype!r}")
        kind = "<f4" if dtype == "float32" else "<f8"
        count = 1
        for d in shape:
            if d < 0:
                raise ParseError("tensor payloads may not use symbolic dimensions")
            count *= d
        flat = np.frombuffer(raw, dtype=kind)
        if flat.size != count:
            raise ParseError(
                f"tensor payload holds {flat.size} elements, shape {shape} needs {count}")
        arr = flat.astype(DTYPES[dtype]).reshape(shape)
        return cls(arr, dtype)

    @property
    def nbytes(self) -> int:
        return self.array.nbytes

    def __eq__(self, other) -> bool:
        if not isinstance(other, TensorValue):
            return NotImplemented
        return (self.dtype == other.dtype and self.shape == other.shape
                and self.to_bytes() == other.to_bytes())

    def __repr__(self) -> str:
        return f"TensorValue(dtype={self.dtype}, shape={self.shape})"


@dataclass(frozen=True)
class ValueSpec:
    """Declared name, dtype and shape of a graph input or output.

    A leading -1 stands for a free batch dimension; all other extents are
    concrete positive integers.
    """

    name: str
    dtype: str
    shape: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "shape", tuple(int(d) for d in self.shape))


@dataclass
class Node:
    """One operator application: named inputs to named outputs."""

    op_type: str
    name: str
    inputs: list[str]
    outputs: list[str]
    attributes: dict = field(default_factory=dict)


@dataclass
class GraphModel:
    """An inference graph: IO specs, weight initializers and operator nodes."""

    name: str
    inputs: list[ValueSpec]
    outputs: list[ValueSpec]
    initializers: dict[str, TensorValue]
    nodes: list[Node]

    def __eq__(self, other) -> bool:
        if not isinstance(other, GraphModel):
            return NotImplemented
        return dumps_model(self, validate=False) == dumps_model(other, validate=False)


def _check_attr_value(node_name: str, key: str, kind: str, value) -> None:
    ok = False
    if kind == "int":
        ok = isinstance(value, int) and not isinstance(value, bool)
    elif kind == "float":
        ok = isinstance(value, (int, float)) and not isinstance(value, bool)
    elif kind == "string":
        ok = isinstance(value, str)
    elif kind == "ints":
        ok = (isinstance(value, (list, tuple))
              and all(isinstance(v, int) and not isinstance(v, bool) for v in value))
    elif kind == "floats":
        ok = (isinstance(value, (list, tuple))
              and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value))
    if not ok:
        raise ValidationError(
            f"node {node_name!r}: attribute {key!r} must be of kind {kind}")


def validate_model(model: GraphModel) -> None:
    """Check structural rules; raise ValidationError / CycleError with the culprit."""
    if not model.name:
        raise ValidationError("model name must be non-empty")

    produced: dict[str, str] = {}
    for spec in model.inputs:
        if spec.dtype not in DTYPES:
            raise ValidationError(f"input {spec.name!r}: unsupported dtype {spec.dtype!r}")
        for i, d in enumerate(spec.shape):
            if d == -1 and i == 0:
                continue
            if d <= 0:
                raise ValidationError(
                    f"input {spec.name!r}: only the leading batch may be symbolic")
        if spec.name in produced:
            raise ValidationError(f"duplicate graph input {spec.name!r}")
        produced[spec.name] = "graph input"
    for name, tensor in model.initializers.items():
        if name in produced:
            raise ValidationError(f"initializer {name!r} collides with {produced[name]}")
        if any(d < 0 for d in tensor.shape):
            raise ValidationError(f"initializer {name!r} has a symbolic dimension")
        produced[name] = "initializer"

    seen_node_names = set()
    for node in model.nodes:
        if node.op_type not in SUPPORTED_OPS:
            raise ValidationError(
                f"node {node.name!r}: unsupported op_type {node.op_type!r}")
        if not node.name or node.name in seen_node_names:
            raise ValidationError(f"node name {node.name!r} is missing or duplicated")
        seen_node_names.add(node.name)
        _check_arity(node, len(node.inputs))
        if not node.outputs:
            raise ValidationError(f"node {node.name!r} declares no outputs")
        allowed = _ATTR_KINDS.get(node.op_type, {})
        for key, value in node.attributes.items():
            if key not in allowed:
                raise ValidationError(
                    f"node {node.name!r}: unknown attribute {key!r} for {node.op_type}")
            _check_attr_value(node.name, key, allowed[key], value)
        for key in _REQUIRED_ATTRS.get(node.op_type, ()):
            if key not in node.attributes:
                raise ValidationError(
                    f"node {node.name!r}: {node.op_type} requires attribute {key!r}")
        for out in node.outputs:
            if out in produced:
                raise ValidationError(
                    f"node {node.name!r}: output {out!r} already produced by "
                    f"{produced[out]}")
            produced[out] = f"node {node.name!r}"

    for node in model.nodes:
        for inp in node.inputs:
            if inp not in produced:
                raise ValidationError(
                    f"node {node.name!r} consumes undeclared name {inp!r}")

    for spec in model.outputs:
        if spec.dtype not in DTYPES:
            raise ValidationError(f"output {spec.name!r}: unsupported dtype {spec.dtype!r}")
        if spec.name not in produced:
            raise ValidationError(f"graph output {spec.name!r} is never produced")

    topological_order(model)


def topological_order(model: GraphModel) -> list[Node]:
    """Nodes in dependency order, ties broken by declaration order.

    Kahn's algorithm with a min-heap of declaration indices: a node becomes
    ready once every name it reads is available, and the earliest-declared
    ready node is placed next.  O(N log N + E) for N nodes and E input edges.
    """
    nodes = model.nodes
    available = {spec.name for spec in model.inputs} | set(model.initializers)
    waiting = [0] * len(nodes)              # distinct input names not yet available
    readers: dict[str, list[int]] = {}
    ready: list[int] = []
    for i, node in enumerate(nodes):
        missing = set(node.inputs) - available
        waiting[i] = len(missing)
        for name in missing:
            readers.setdefault(name, []).append(i)
        if not missing:
            ready.append(i)
    heapq.heapify(ready)
    placed: list[int] = []
    while ready:
        i = heapq.heappop(ready)
        placed.append(i)
        for name in nodes[i].outputs:
            if name in available:
                continue
            available.add(name)
            for j in readers.pop(name, ()):
                waiting[j] -= 1
                if not waiting[j]:
                    heapq.heappush(ready, j)
    if len(placed) < len(nodes):
        stuck = [n.name for i, n in enumerate(nodes) if waiting[i]]
        raise CycleError("graph is cyclic or disconnected at nodes: "
                         + ", ".join(map(repr, stuck[:8])))
    return [nodes[i] for i in placed]


def _spec_to_dict(spec: ValueSpec) -> dict:
    return {"name": spec.name, "dtype": spec.dtype, "shape": list(spec.shape)}


def _spec_from_dict(obj, role: str) -> ValueSpec:
    try:
        return ValueSpec(obj["name"], obj["dtype"], tuple(obj["shape"]))
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed {role} spec: {obj!r}") from exc


def _node_to_dict(node: Node) -> dict:
    return {"op_type": node.op_type, "name": node.name,
            "inputs": list(node.inputs), "outputs": list(node.outputs),
            "attributes": {k: (list(v) if isinstance(v, (list, tuple)) else v)
                           for k, v in sorted(node.attributes.items())}}


def dumps_model(model: GraphModel, extra: dict | None = None, validate: bool = True) -> str:
    """Serialize to canonical JSON text; identical models give identical bytes."""
    if validate:
        validate_model(model)
    doc = {
        "name": model.name,
        "inputs": [_spec_to_dict(s) for s in model.inputs],
        "outputs": [_spec_to_dict(s) for s in model.outputs],
        "initializers": [
            {"name": name, "dtype": t.dtype, "shape": list(t.shape),
             "data_b64": base64.b64encode(t.to_bytes()).decode("ascii")}
            for name, t in model.initializers.items()
        ],
        "nodes": [_node_to_dict(n) for n in model.nodes],
    }
    if extra:
        doc.update(extra)
    return json.dumps(doc, separators=(",", ":"), allow_nan=False)


def save_model(model: GraphModel, path: str, extra: dict | None = None) -> None:
    text = dumps_model(model, extra=extra)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


def loads_model(text: str, validate: bool = True) -> GraphModel:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: {exc}") from exc
    return model_from_document(doc, validate=validate)


def model_from_document(doc: dict, validate: bool = True) -> GraphModel:
    if not isinstance(doc, dict):
        raise ParseError("model document must be a JSON object")
    for key in ("name", "inputs", "outputs", "initializers", "nodes"):
        if key not in doc:
            raise ParseError(f"model document lacks required key {key!r}")
    initializers: dict[str, TensorValue] = {}
    for obj in doc["initializers"]:
        try:
            name = obj["name"]
            raw = base64.b64decode(obj["data_b64"], validate=True)
            tensor = TensorValue.from_bytes(raw, obj["dtype"], tuple(obj["shape"]))
        except ParseError:
            raise
        except Exception as exc:
            raise ParseError(f"malformed initializer entry: {exc}") from exc
        if name in initializers:
            raise ParseError(f"initializer {name!r} appears twice")
        initializers[name] = tensor
    nodes = []
    for obj in doc["nodes"]:
        try:
            attrs = {}
            for k, v in obj.get("attributes", {}).items():
                attrs[k] = list(v) if isinstance(v, list) else v
            nodes.append(Node(obj["op_type"], obj["name"], list(obj["inputs"]),
                              list(obj["outputs"]), attrs))
        except (KeyError, TypeError) as exc:
            raise ParseError(f"malformed node entry: {obj!r}") from exc
    model = GraphModel(
        name=doc["name"],
        inputs=[_spec_from_dict(o, "input") for o in doc["inputs"]],
        outputs=[_spec_from_dict(o, "output") for o in doc["outputs"]],
        initializers=initializers,
        nodes=nodes,
    )
    if validate:
        validate_model(model)
    return model


def load_model(path: str, validate: bool = True) -> GraphModel:
    with open(path, "r", encoding="ascii") as fh:
        return loads_model(fh.read(), validate=validate)


def load_document(path: str) -> dict:
    """Raw JSON document of a saved model, including any extra blocks."""
    with open(path, "r", encoding="ascii") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"not valid JSON: {exc}") from exc


def save_tensor(tensor: TensorValue, path: str, name: str = "") -> None:
    doc = {
        "name": name,
        "dtype": tensor.dtype,
        "shape": list(tensor.shape),
        "data_b64": base64.b64encode(tensor.to_bytes()).decode("ascii"),
    }
    with open(path, "w", encoding="ascii") as fh:
        fh.write(json.dumps(doc, separators=(",", ":")))


def load_tensor(path: str) -> TensorValue:
    with open(path, "r", encoding="ascii") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"not valid JSON: {exc}") from exc
    try:
        raw = base64.b64decode(doc["data_b64"], validate=True)
        return TensorValue.from_bytes(raw, doc["dtype"], tuple(doc["shape"]))
    except ParseError:
        raise
    except Exception as exc:
        raise ParseError(f"malformed tensor envelope: {exc}") from exc


def model_digest(model: GraphModel) -> str:
    """Stable content hash of a model, fed to sha256 without serializing it.

    The hash covers a canonical JSON header (name, input and output specs,
    nodes with sorted attributes, and each initializer's name, dtype and
    shape) followed by every initializer's raw little-endian payload in
    declaration order.  The header fixes each payload's length, so a change
    to any name, spec, node, attribute, dtype, shape or payload byte changes
    the digest.
    """
    header = {
        "name": model.name,
        "inputs": [_spec_to_dict(s) for s in model.inputs],
        "outputs": [_spec_to_dict(s) for s in model.outputs],
        "initializers": [{"name": name, "dtype": t.dtype, "shape": list(t.shape)}
                         for name, t in model.initializers.items()],
        "nodes": [_node_to_dict(n) for n in model.nodes],
    }
    digest = hashlib.sha256(
        json.dumps(header, separators=(",", ":"), allow_nan=False).encode())
    for tensor in model.initializers.values():
        digest.update(tensor.little_endian())
    return digest.hexdigest()
