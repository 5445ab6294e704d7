"""Graph intermediate representation and its binary container.

A model is a flat list of operator nodes in static single assignment form:
every value name is produced exactly once, by a graph input, an initializer,
or a node output.  As in ONNX, the node list is in dependency order: a node
reads only graph inputs, initializers and outputs of nodes declared before
it.  ``validate_model`` checks that in its one pass over the nodes, so every
walk of a model is a pass over ``model.nodes`` and nothing sorts.

Models and explainer artifacts (``.sgm``) and single tensors (``.stn``) share
one container, laid out like safetensors: the 8-byte magic ``GLIFT\\0\\1\\n``,
a little-endian u64 header length, a JSON header, canonical as written,
padded with spaces to a 64-byte boundary, then each payload once, raw,
row-major and little-endian, at a 64-byte aligned offset from the end of
the header.  The header holds what ``model_digest`` hashes (name, specs,
nodes, and each initializer's name, dtype and shape; a tensor file has only
the initializer list), an artifact's ``metadata``, and then, as its last
keys, the payload ``offsets`` and the ``digest``.  The digest covers the
header, metadata included, and every payload, so a plain model's digest is
its ``model_digest`` and one hash proves a whole artifact.  A load reads the
file once, takes every payload as a read-only ``np.frombuffer`` view and
recomputes the digest over the header bytes as they are stored (see
``_read``), so a flipped byte, an edited node or metadata value, a key
after the digest or a truncated file raises ParseError.  Artifacts saved
before the digest covered their metadata, and files in the earlier JSON
format, do not load: recompile them.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import struct
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import ParseError, ValidationError

__all__ = [
    "DTYPES",
    "SUPPORTED_OPS",
    "TensorValue",
    "ValueSpec",
    "Node",
    "GraphModel",
    "load_model",
    "save_model",
    "dumps_model",
    "load_tensor",
    "save_tensor",
    "validate_model",
    "model_digest",
]

DTYPES = {"float32": np.float32, "float64": np.float64}

# ONNX's TensorProto element type of each dtype, the value of Cast's "to"
ONNX_TYPES = {"float32": 1, "float64": 11}

# op_type -> (fewest inputs, most inputs or None for any number, outputs or
# None for any number, {attribute: kind}), ONNX's one schema per op.  A kind
# ending in "!" marks an attribute the op requires.
_OPS = {
    "MatMul": (2, 2, 1, {}),
    "Gemm": (2, 3, 1, {"alpha": "float", "beta": "float", "transA": "int",
                       "transB": "int"}),
    "Conv": (2, 3, 1, {"kernel_shape": "ints!", "strides": "ints", "pads": "ints",
                       "dilations": "ints", "group": "int"}),
    "Add": (2, 2, 1, {}),
    "Sub": (2, 2, 1, {}),
    "Mul": (2, 2, 1, {}),
    "Div": (2, 2, 1, {}),
    "Concat": (1, None, 1, {"axis": "int!"}),
    "Relu": (1, 1, 1, {}),
    "Sigmoid": (1, 1, 1, {}),
    "Tanh": (1, 1, 1, {}),
    "Softmax": (1, 1, 1, {"axis": "int"}),
    "Exp": (1, 1, 1, {}),
    "MaxPool": (1, 1, 1, {"kernel_shape": "ints!", "strides": "ints",
                          "pads": "ints"}),
    "AveragePool": (1, 1, 1, {"kernel_shape": "ints!", "strides": "ints",
                              "pads": "ints", "count_include_pad": "int"}),
    "GlobalAveragePool": (1, 1, 1, {}),
    "GlobalMaxPool": (1, 1, 1, {}),
    "BatchNormalization": (5, 5, 1, {"epsilon": "float"}),
    "Transpose": (1, 1, 1, {"perm": "ints!"}),
    "Reshape": (1, 1, 1, {"shape": "ints!"}),
    "Flatten": (1, 1, 1, {"axis": "int"}),
    "ReduceSum": (1, 1, 1, {"axes": "ints", "keepdims": "int"}),
    "ReduceMean": (1, 1, 1, {"axes": "ints", "keepdims": "int"}),
    "Greater": (2, 2, 1, {}),
    "Equal": (2, 2, 1, {}),
    "Where": (3, 3, 1, {}),
    "Cast": (1, 1, 1, {"to": "int!"}),
    "Tile": (1, 1, 1, {"repeats": "ints!"}),
    "Split": (1, 1, None, {"axis": "int", "split": "ints"}),
    "Constant": (0, 0, 1, {"dtype": "string!", "shape": "ints!", "value": "floats!"}),
    "Abs": (1, 1, 1, {}),
    "Pad": (1, 1, 1, {"mode": "string", "pads": "ints!", "value": "float"}),
    "ConvTranspose": (2, 3, 1, {"kernel_shape": "ints!", "strides": "ints",
                                "pads": "ints", "output_padding": "ints",
                                "group": "int"}),
}

SUPPORTED_OPS = frozenset(_OPS)

# op -> ({attribute: (kind, the types of its value or of each value of its
# list, whether a list)}, required attributes), read from _OPS once
_KIND_TYPES = {"int": int, "float": (int, float), "string": str}
_SCHEMAS = {op: ({key: (kind.rstrip("!"), _KIND_TYPES[kind.rstrip("!s")],
                        kind.rstrip("!").endswith("s")) for key, kind in kinds.items()},
                 [key for key, kind in kinds.items() if kind.endswith("!")])
            for op, (*_, kinds) in _OPS.items()}


def _check_signature(node: Node, n_inputs: int) -> None:
    """The one per-node check, which every shape law resolution runs:
    ValidationError naming ``node`` unless its op is one of ``_OPS``, it
    takes ``n_inputs`` operands, produces as many outputs as its op declares
    (at least one), and every attribute is one its op declares, of that
    kind and finite, with every required one present."""
    if node.op_type not in _OPS:
        raise ValidationError(
            f"node {node.name!r}: unsupported op_type {node.op_type!r}")
    lo, hi, n_out, _ = _OPS[node.op_type]
    if n_inputs < lo or (hi is not None and n_inputs > hi):
        raise ValidationError(
            f"node {node.name!r}: {node.op_type} takes between {lo} and "
            f"{hi if hi is not None else 'any'} inputs, got {n_inputs}")
    if not node.outputs or n_out not in (None, len(node.outputs)):
        raise ValidationError(
            f"node {node.name!r}: {node.op_type} produces {n_out or 'one or more'}"
            f" outputs, got {len(node.outputs)}")
    schema, required = _SCHEMAS[node.op_type]
    for key, value in node.attributes.items():
        if key not in schema:
            raise ValidationError(
                f"node {node.name!r}: unknown attribute {key!r} for {node.op_type}")
        kind, types, many = schema[key]
        items = value if many else (value,)
        if many is not isinstance(value, (list, tuple)) or not all(
                isinstance(v, types) and not isinstance(v, bool) for v in items):
            raise ValidationError(
                f"node {node.name!r}: attribute {key!r} must be of kind {kind}")
        # NaN, an infinity and an int too large for a float all fail the bound
        if kind.startswith("float") and not all(
                abs(v) <= sys.float_info.max for v in items):
            raise ValidationError(
                f"node {node.name!r}: attribute {key!r} holds a non-finite value")
    for key in required:
        if key not in node.attributes:
            raise ValidationError(
                f"node {node.name!r}: {node.op_type} requires attribute {key!r}")


def all_finite(arr: np.ndarray) -> bool:
    """Whether every element of a float or bool array is finite; a bool
    array always is.

    One BLAS pass decides almost every call: the sum of the squares is NaN
    or +inf when some element is NaN or infinite (NaN propagates, an
    infinity squares to +inf and no term is negative, so nothing cancels)
    and finite otherwise, unless the squares overflow.  Only a non-finite
    sum falls back to the exact per-element test, so a finite array whose
    squares overflow still passes.  ``np.vdot`` raises no floating-point
    warning, so no caller needs an error state for this check.
    """
    return (arr.dtype == np.bool_ or math.isfinite(np.vdot(arr, arr))
            or bool(np.isfinite(arr).all()))


class TensorValue:
    """A dense tensor with an explicit dtype, shape and row-major payload."""

    __slots__ = ("dtype", "shape", "array")

    def __init__(self, array: np.ndarray, dtype: str | None = None):
        if dtype is None:
            dtype = str(_as_array(array, None, "tensor payload").dtype)
        if dtype not in DTYPES:
            raise ValidationError(f"unsupported tensor dtype {dtype!r}")
        # np.ascontiguousarray would give a 0-d payload one dimension
        arr = np.asarray(_as_array(array, dtype, "tensor payload"), order="C")
        if not all_finite(arr):
            raise ValidationError("tensor payload contains non-finite values")
        self.dtype = dtype
        self.shape = arr.shape
        self.array = arr

    @classmethod
    def _scanned(cls, array: np.ndarray, dtype: str) -> TensorValue:
        """A TensorValue over an array of ``dtype`` that a scan has already
        found finite: kept as it is when row-major, with no second scan."""
        value = object.__new__(cls)
        value.array = np.asarray(array, DTYPES[dtype], order="C")
        value.dtype, value.shape = dtype, value.array.shape
        return value

    def little_endian(self) -> np.ndarray:
        """Row-major little-endian payload; a copy only on big-endian hosts."""
        kind = "<f4" if self.dtype == "float32" else "<f8"
        return self.array.astype(kind, copy=False)

    def to_bytes(self) -> bytes:
        return self.little_endian().tobytes(order="C")

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


def _as_array(value, dtype: str | None, what: str) -> np.ndarray:
    """An array or TensorValue from outside the package as an array of
    ``dtype`` (numpy's choice when None), or ValidationError naming ``what``
    for no array (a ragged list) or, with a ``dtype``, no number (None)."""
    if isinstance(value, TensorValue):
        value = value.array
    try:
        if value is None and dtype is not None:  # np.asarray would read NaN
            raise TypeError("None")
        return np.asarray(value, None if dtype is None else DTYPES[dtype])
    except (TypeError, ValueError) as err:
        raise ValidationError(f"{what} is not a numeric array: {err}") from None


@dataclass(frozen=True)
class ValueSpec:
    """Declared name, dtype and shape of a graph input or output.

    The dtype is one of ``DTYPES``.  A leading -1 stands for a free batch
    dimension; every other extent is a concrete positive integer.
    """

    name: str
    dtype: str
    shape: tuple[int, ...]

    def __post_init__(self):
        if not isinstance(self.dtype, str) or self.dtype not in DTYPES:
            raise ValidationError(f"value {self.name!r}: unsupported dtype {self.dtype!r}")
        try:
            shape = tuple(self.shape)
            if not all(isinstance(d, numbers.Integral) and not isinstance(d, bool)
                       for d in shape):
                raise TypeError
        except TypeError:
            raise ValidationError(f"value {self.name!r}: shape {self.shape!r} is "
                                  "not a sequence of integers") from None
        object.__setattr__(self, "shape", tuple(map(int, shape)))


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
        return model_digest(self) == model_digest(other)


def _unproduced(node: Node, name: str) -> ValidationError:
    """The error for ``node`` reading ``name`` out of dependency order: an
    undeclared name, one a later node produces, or one on a cycle."""
    return ValidationError(
        f"node {node.name!r} reads {name!r}, which no graph input, initializer "
        "or earlier node produces")


def validate_model(model: GraphModel) -> None:
    """Check every node with ``_check_signature``, then what only the whole
    graph shows: node names, dependency order, single assignment, the specs
    and the outputs; raise ValidationError naming the culprit."""
    if not model.name:
        raise ValidationError("model name must be non-empty")

    produced: dict[str, str] = {}
    for spec in model.inputs:
        if any(d <= 0 and (i or d != -1) for i, d in enumerate(spec.shape)):
            raise ValidationError(
                f"input {spec.name!r}: only the leading batch may be symbolic")
        if spec.name in produced:
            raise ValidationError(f"duplicate graph input {spec.name!r}")
        produced[spec.name] = "graph input"
    for name, tensor in model.initializers.items():
        if name in produced:
            raise ValidationError(f"initializer {name!r} collides with {produced[name]}")
        produced[name] = "initializer"

    seen_node_names = set()
    for node in model.nodes:
        if not node.name or node.name in seen_node_names:
            raise ValidationError(f"node name {node.name!r} is missing or duplicated")
        seen_node_names.add(node.name)
        _check_signature(node, len(node.inputs))
        for inp in node.inputs:
            if inp not in produced:
                raise _unproduced(node, inp)
        for out in node.outputs:
            if out in produced:
                raise ValidationError(
                    f"node {node.name!r}: output {out!r} already produced by "
                    f"{produced[out]}")
            produced[out] = f"node {node.name!r}"

    declared = set()
    for spec in model.outputs:
        if spec.name not in produced:
            raise ValidationError(f"graph output {spec.name!r} is never produced")
        if spec.name in declared:
            raise ValidationError(f"duplicate graph output {spec.name!r}")
        declared.add(spec.name)


def _spec_to_dict(spec: ValueSpec) -> dict:
    return {"name": spec.name, "dtype": spec.dtype, "shape": list(spec.shape)}


def _node_to_dict(node: Node) -> dict:
    return {"op_type": node.op_type, "name": node.name,
            "inputs": list(node.inputs), "outputs": list(node.outputs),
            "attributes": {k: (list(v) if isinstance(v, (list, tuple)) else v)
                           for k, v in sorted(node.attributes.items())}}


def _entry(name: str, tensor: TensorValue) -> dict:
    return {"name": name, "dtype": tensor.dtype, "shape": list(tensor.shape)}


def _header(model: GraphModel) -> dict:
    """What a model's canonical bytes are: the header ``model_digest`` hashes
    and the container stores, ahead of the payloads in declaration order."""
    return {"name": model.name,
            "inputs": [_spec_to_dict(s) for s in model.inputs],
            "outputs": [_spec_to_dict(s) for s in model.outputs],
            "initializers": [_entry(name, t) for name, t in model.initializers.items()],
            "nodes": [_node_to_dict(n) for n in model.nodes]}


def _canonical(obj) -> bytes:
    return json.dumps(obj, separators=(",", ":"), allow_nan=False).encode()


def _digest(encoded: bytes, payloads) -> str:
    """sha256 of a header's canonical bytes and then every payload."""
    digest = hashlib.sha256(encoded)
    for payload in payloads:
        digest.update(payload)
    return digest.hexdigest()


def _tail(offsets: list, digest: str) -> bytes:
    """What the stored header text holds after the canonical header without
    its closing brace: the ``offsets`` and ``digest`` keys and that brace."""
    return (b',"offsets":' + _canonical(offsets) + b',"digest":'
            + _canonical(digest) + b"}")


_MAGIC = b"GLIFT\0\1\n"
_ALIGN = 64


def _pack(header: dict, tensors, metadata=None) -> bytes:
    """The one writer: ``header`` and ``metadata``, offsets and the digest of
    both and the payloads of ``tensors``, which ``header["initializers"]``
    describes.

    The header is encoded once: the stored text is its canonical bytes with
    ``_tail`` in place of the closing brace, which is the canonical
    encoding of the header with ``offsets`` and ``digest`` added as its
    last keys, then spaces up to the 64-byte boundary."""
    payloads = [t.little_endian() for t in tensors]
    offsets, end = [], 0
    for payload in payloads:
        offsets.append(-(-end // _ALIGN) * _ALIGN)
        end = offsets[-1] + payload.nbytes
    header = header if metadata is None else {**header, "metadata": metadata}
    encoded = _canonical(header)
    text = encoded[:-1] + _tail(offsets, _digest(encoded, payloads))
    text += b" " * (-(len(text) + 16) % _ALIGN)
    parts, end = [_MAGIC, struct.pack("<Q", len(text)), text], 0
    for offset, payload in zip(offsets, payloads):
        parts += [bytes(offset - end), payload]
        end = offset + payload.nbytes
    return b"".join(parts)


def _finite_number(text: str) -> float:
    if not math.isfinite(value := float(text)):
        raise ValueError(f"{text} is not a finite number")
    return value


def _read(path: str) -> tuple[dict, list[np.ndarray], object]:
    """The one reader: header, payload views and metadata of a container, or
    ParseError unless the digest recomputes over the header (metadata too) and
    payloads and the file ends where its last payload does.

    The header is hashed as it is stored, not encoded again: the stored
    text must end in ``_tail`` of the parsed offsets and digest, then
    spaces only, and the digest covers every byte before that tail with a
    closing brace in its place.  So every byte parsed is either hashed or
    derived again from the parsed offsets and digest, and a key after the
    digest is refused.  A header written by ``_pack`` is canonical JSON; one
    written by hand need not be, and loads when its digest covers its own
    bytes."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:8] != _MAGIC or len(raw) < 16:
        raise ParseError(f"{path!r} is not a graphlift container")
    base = 16 + struct.unpack_from("<Q", raw, 8)[0]
    if base > len(raw):
        raise ParseError(f"{path!r} is truncated inside its header")
    text = raw[16:base].rstrip(b" ")
    try:
        header = json.loads(text, parse_constant=_finite_number,
                            parse_float=_finite_number)
        digest, offsets = header.pop("digest"), header.pop("offsets")
        tail = _tail(offsets, digest)
        if not text.endswith(tail):
            raise ValueError("the bytes after the header are not its offsets "
                             "and digest, then spaces")
        layout = []
        for entry, offset in zip(header["initializers"], offsets, strict=True):
            kind = np.dtype({"float32": "<f4", "float64": "<f8"}[entry["dtype"]])
            shape = tuple(entry["shape"])
            if not all(type(v) is int and v >= 0 for v in (offset, *shape)):
                raise ValueError(f"bad offset {offset!r} or shape {shape}")
            layout.append((base + offset, kind, math.prod(shape), shape))
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise ParseError(f"{path!r}: malformed container header: {exc}") from exc
    end = max((at + kind.itemsize * n for at, kind, n, _ in layout), default=base)
    if len(raw) != end:
        raise ParseError(f"{path!r} holds {len(raw)} bytes, its header declares {end}")
    payloads = [np.frombuffer(raw, kind, n, at).reshape(shape)
                for at, kind, n, shape in layout]
    hashed = memoryview(text)[:len(text) - len(tail)]
    if _digest(hashed, [b"}", *payloads]) != digest:
        raise ParseError(f"{path!r}: digest mismatch, the file was damaged or edited")
    return header, payloads, header.pop("metadata", None)


def dumps_model(model: GraphModel, metadata: dict | None = None) -> bytes:
    """The container bytes of a validated model; identical models give
    identical bytes."""
    validate_model(model)
    return _pack(_header(model), model.initializers.values(), metadata)


def save_model(model: GraphModel, path: str, metadata: dict | None = None) -> None:
    data = dumps_model(model, metadata)
    with open(path, "wb") as fh:
        fh.write(data)


def _read_model(path: str) -> tuple[GraphModel, object]:
    """A verified, validated model with its metadata."""
    header, payloads, metadata = _read(path)
    try:
        entries = header["initializers"]
        model = GraphModel(
            name=header["name"],
            inputs=[ValueSpec(s["name"], s["dtype"], s["shape"]) for s in header["inputs"]],
            outputs=[ValueSpec(s["name"], s["dtype"], s["shape"]) for s in header["outputs"]],
            initializers={e["name"]: TensorValue(p, e["dtype"])
                          for e, p in zip(entries, payloads)},
            nodes=[Node(n["op_type"], n["name"], list(n["inputs"]),
                        list(n["outputs"]), dict(n["attributes"]))
                   for n in header["nodes"]])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{path!r}: malformed model header: {exc}") from exc
    if len(model.initializers) != len(entries):
        raise ParseError(f"{path!r}: an initializer name appears twice")
    validate_model(model)
    return model, metadata


def load_model(path: str) -> GraphModel:
    return _read_model(path)[0]


def save_tensor(tensor: TensorValue, path: str, name: str = "") -> None:
    if not isinstance(tensor, TensorValue):
        raise ValidationError(f"tensor must be a TensorValue, not "
                              f"{type(tensor).__name__}")
    data = _pack({"initializers": [_entry(name, tensor)]}, [tensor])
    with open(path, "wb") as fh:
        fh.write(data)


def load_tensor(path: str) -> TensorValue:
    header, payloads, _ = _read(path)
    if len(header) != 1 or len(payloads) != 1:
        raise ParseError(f"{path!r} does not hold a single tensor")
    return TensorValue(payloads[0], header["initializers"][0]["dtype"])


def model_digest(model: GraphModel) -> str:
    """Stable content hash of a model, fed to sha256 without serializing it.

    The hash covers the canonical JSON header (name, input and output specs,
    nodes with sorted attributes, and each initializer's name, dtype and
    shape) followed by every initializer's raw little-endian payload in
    declaration order.  The header fixes each payload's length, so a change
    to any name, spec, node, attribute, dtype, shape or payload byte changes
    the digest.
    """
    try:
        return _digest(_canonical(_header(model)),
                       [t.little_endian() for t in model.initializers.values()])
    except ValueError:  # a non-finite float, which only an attribute can hold
        validate_model(model)
        raise
