"""Model structure, validation and serialization round trips."""

import hashlib
import json
import re
import struct
import warnings

import numpy as np
import pytest

from graphlift import (GraphModel, Node, ParseError, TensorValue,
                       ValidationError, ValueSpec, execute, infer_graph_shapes,
                       load_model, load_tensor, model_digest, save_model,
                       save_tensor, validate_model)
from graphlift.ir import _header, all_finite, dumps_model


def tiny_model():
    w = TensorValue(np.arange(6, dtype=np.float32).reshape(3, 2) / 10.0)
    return GraphModel(
        name="tiny",
        inputs=[ValueSpec("x", "float32", (-1, 3))],
        outputs=[ValueSpec("y", "float32", (-1, 2))],
        initializers={"w": w},
        nodes=[Node("MatMul", "mm", ["x", "w"], ["h"]),
               Node("Relu", "act", ["h"], ["y"])],
    )


def test_tensor_value_dtype_roundtrip():
    t = TensorValue(np.ones((2, 2), dtype=np.float64))
    assert t.dtype == "float64"
    assert t.array.dtype == np.float64


def test_tensor_value_rejects_unsupported_dtype():
    with pytest.raises(ValidationError):
        TensorValue(np.ones(3, dtype=np.int32))


@pytest.mark.parametrize("value, shape", [([1.0, 2.0], (2,)), (3.0, ())])
def test_tensor_value_reads_a_list_or_a_float_as_float64(value, shape):
    t = TensorValue(value)
    assert (t.dtype, t.shape, t.array.dtype) == ("float64", shape, np.float64)


@pytest.mark.parametrize("value", ["abc", None])
def test_tensor_value_refuses_a_string_or_none(value):
    with pytest.raises(ValidationError, match="unsupported tensor dtype"):
        TensorValue(value)


@pytest.mark.parametrize("shape", [("a",), None, (2, [3])])
def test_value_spec_names_a_shape_that_is_no_integers(shape):
    with pytest.raises(ValidationError, match="shape"):
        ValueSpec("x", "float32", shape)


@pytest.mark.parametrize("shape", [(2.5, 3), (2, True), ("4",), (2.0,)])
def test_value_spec_names_a_shape_with_an_extent_that_is_no_integer(shape):
    with pytest.raises(ValidationError, match=re.escape(f"'x': shape {shape!r}")):
        ValueSpec("x", "float32", shape)


def test_value_spec_takes_numpy_integer_extents():
    spec = ValueSpec("x", "float32", (np.int64(-1), np.int32(3)))
    assert spec.shape == (-1, 3) and all(type(d) is int for d in spec.shape)


@pytest.mark.parametrize("dtype", ["float16", "int64", None])
def test_value_spec_refuses_an_unsupported_dtype(dtype):
    with pytest.raises(ValidationError, match="'x': unsupported dtype"):
        ValueSpec("x", dtype, (-1, 3))


@pytest.mark.parametrize("value", ["abc", [[1.0], [2.0, 3.0]], None])
def test_tensor_value_of_a_float_dtype_refuses_what_is_no_numeric_array(value):
    with pytest.raises(ValidationError, match="not a numeric array"):
        TensorValue(value, "float64")


def test_tensor_value_refuses_a_ragged_list():
    with pytest.raises(ValidationError, match="not a numeric array"):
        TensorValue([[1.0], [2.0, 3.0]])


def test_save_tensor_names_an_argument_that_is_no_tensor(tmp_path):
    path = tmp_path / "t.stn"
    with pytest.raises(ValidationError, match="tensor must be a TensorValue"):
        save_tensor(np.zeros(3), str(path))
    assert not path.exists()


def _strided(dtype, poison=None, at=(0, 0)):
    """A strided (4, 3) view of an (8, 9) array, with ``poison`` written at
    ``at`` of the base: (0, 0) lies inside the view and (1, 1) outside."""
    base = np.arange(72, dtype=dtype).reshape(8, 9)
    if poison is not None:
        base[at] = poison
    return base[::2, ::3]


def _finiteness_cases():
    """(array, whether every element is finite), per case and dtype."""
    cases = []
    for dtype in (np.float32, np.float64):
        def case(label, arr, finite):
            cases.append(pytest.param(arr, finite,
                                      id=f"{label}-{np.dtype(dtype).name}"))
        big = np.finfo(dtype).max
        case("nan", np.array([1.0, np.nan, 2.0], dtype), False)
        case("+inf", np.array([1.0, np.inf, 2.0], dtype), False)
        case("-inf", np.array([1.0, -np.inf, 2.0], dtype), False)
        case("+inf with -inf", np.array([np.inf, 1.0, -np.inf], dtype), False)
        case("empty", np.zeros((0, 3), dtype), True)
        case("0-d", np.array(2.5, dtype), True)
        case("0-d nan", np.array(np.nan, dtype), False)
        case("0-d -inf", np.array(-np.inf, dtype), False)
        case("strided", _strided(dtype), True)
        case("strided nan inside the view", _strided(dtype, np.nan), False)
        case("strided nan outside the view", _strided(dtype, np.nan, (1, 1)),
             True)
        case("strided -inf inside the view", _strided(dtype, -np.inf), False)
        # finite, though the sum and the sum of squares overflow
        case("both extremes", np.array([big, -big, big, big], dtype), True)
    cases.append(pytest.param(np.full((4, 64), 1e37, np.float32), True,
                              id="sum overflows-float32"))
    return cases


FINITENESS_CASES = _finiteness_cases()


@pytest.mark.parametrize("arr, finite", FINITENESS_CASES)
def test_all_finite_gives_the_exact_verdict_without_a_warning(arr, finite):
    assert bool(np.isfinite(arr).all()) is finite
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert all_finite(arr) is finite


def test_all_finite_passes_every_bool_array():
    assert all_finite(np.array([True, False]))
    assert all_finite(np.zeros((2, 0), bool))
    assert all_finite(np.ones((4, 6), bool)[::2, ::3])


@pytest.mark.parametrize("arr, finite", FINITENESS_CASES)
def test_tensor_value_refuses_exactly_the_non_finite_payloads(arr, finite):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if finite:
            tensor = TensorValue(arr)
            # a 0-d payload stays 0-d
            assert tensor.shape == tensor.array.shape == arr.shape
            assert tensor.array.flags.c_contiguous
            assert np.array_equal(tensor.array, arr)
        else:
            with pytest.raises(ValidationError, match="non-finite"):
                TensorValue(arr)


def test_validate_accepts_tiny_model():
    validate_model(tiny_model())


def test_validate_rejects_unknown_op():
    m = tiny_model()
    m.nodes[0] = Node("Softplus", "mm", ["x", "w"], ["h"])
    with pytest.raises(ValidationError):
        validate_model(m)


def test_validate_rejects_duplicate_value_names():
    m = tiny_model()
    m.nodes[1] = Node("Relu", "act", ["h"], ["h"])
    with pytest.raises(ValidationError):
        validate_model(m)


@pytest.mark.parametrize("side", ["inputs", "outputs"])
def test_validate_rejects_a_repeated_graph_input_or_output(side):
    m = tiny_model()
    setattr(m, side, getattr(m, side) * 2)
    name = getattr(m, side)[0].name
    with pytest.raises(ValidationError,
                       match=f"duplicate graph {side[:-1]} {name!r}"):
        validate_model(m)


def test_validate_rejects_dangling_input():
    m = tiny_model()
    m.nodes[0] = Node("MatMul", "mm", ["x", "missing"], ["h"])
    with pytest.raises(ValidationError, match=_read_too_early("mm", "missing")):
        validate_model(m)


def test_validate_rejects_missing_output_spec():
    m = tiny_model()
    m.outputs = [ValueSpec("nope", "float32", (-1, 2))]
    with pytest.raises(ValidationError):
        validate_model(m)


def test_validate_rejects_bad_attribute_kind():
    m = tiny_model()
    m.nodes.insert(1, Node("Transpose", "t", ["h"], ["ht"],
                           {"perm": [0.5, 1]}))
    with pytest.raises(ValidationError):
        validate_model(m)


NON_FINITE_ATTRIBUTE_NODES = [
    Node("Constant", "k", [], ["hk"], {"dtype": "float32", "shape": [2],
                                       "value": [1.0, float("inf")]}),
    Node("Pad", "k", ["h"], ["hk"], {"pads": [0, 1, 0, 1], "value": float("inf")}),
    Node("Gemm", "k", ["h", "h"], ["hk"], {"transB": 1, "alpha": float("nan")}),
]


@pytest.mark.parametrize("node", NON_FINITE_ATTRIBUTE_NODES)
def test_a_non_finite_float_attribute_is_refused(node, tmp_path):
    m = tiny_model()
    m.nodes.insert(1, node)
    with pytest.raises(ValidationError, match="'k'.*attribute '(value|alpha)'"):
        validate_model(m)
    with pytest.raises(ValidationError, match="'k'"):
        save_model(m, str(tmp_path / "m.sgm"))
    with pytest.raises(ValidationError, match="'k'"):
        dumps_model(m)


@pytest.mark.parametrize("node", [
    Node("Gemm", "k", ["h", "h"], ["hk"], {"transB": 1, "alpha": 10 ** 400}),
    Node("Constant", "k", [], ["hk"], {"dtype": "float32", "shape": [2],
                                       "value": [1.0, -10 ** 400]}),
])
def test_an_int_too_large_for_a_float_attribute_is_refused(node, tmp_path):
    m = tiny_model()
    m.nodes.insert(1, node)
    match = "node 'k': attribute '(value|alpha)' holds a non-finite value"
    with pytest.raises(ValidationError, match=match):
        validate_model(m)
    with pytest.raises(ValidationError, match=match):
        save_model(m, str(tmp_path / "m.sgm"))


@pytest.mark.parametrize("node", NON_FINITE_ATTRIBUTE_NODES)
def test_digest_and_equality_name_a_non_finite_float_attribute(node):
    # the digest header is JSON, which has no non-finite numbers
    m = tiny_model()
    m.nodes.insert(1, node)
    match = "node 'k': attribute '(value|alpha)' holds a non-finite value"
    with pytest.raises(ValidationError, match=match):
        model_digest(m)
    with pytest.raises(ValidationError, match=match):
        m == tiny_model()


def test_validate_rejects_missing_required_attribute():
    m = tiny_model()
    m.nodes.insert(1, Node("Reshape", "r", ["h"], ["hr"], {}))
    with pytest.raises(ValidationError):
        validate_model(m)


def shuffled_model():
    """tiny_model with its nodes declared consumer first."""
    m = tiny_model()
    m.nodes = m.nodes[::-1]
    return m, "act", "h"


def cyclic_model():
    """Two nodes that read each other's outputs."""
    m = tiny_model()
    m.nodes = [Node("Add", "a", ["x", "v"], ["u"]),
               Node("Relu", "b", ["u"], ["v"]),
               Node("MatMul", "mm", ["v", "w"], ["y"])]
    return m, "a", "v"


def _read_too_early(node, value):
    return f"node '{node}' reads '{value}', which no graph input"


def test_validate_rejects_shuffled_nodes():
    m, node, value = shuffled_model()
    with pytest.raises(ValidationError, match=_read_too_early(node, value)):
        validate_model(m)


def test_validate_rejects_a_cycle():
    m, node, value = cyclic_model()
    with pytest.raises(ValidationError, match=_read_too_early(node, value)):
        validate_model(m)
    # a node reading its own output is the shortest cycle
    m = tiny_model()
    m.nodes[1] = Node("Relu", "act", ["y"], ["y"])
    with pytest.raises(ValidationError, match=_read_too_early("act", "y")):
        validate_model(m)


def test_validate_rejects_a_name_read_twice_before_it_is_produced():
    m = tiny_model()
    m.nodes = [Node("MatMul", "mm", ["x", "w"], ["h"]),
               Node("Mul", "sq", ["h", "h"], ["y"])]
    validate_model(m)
    m.nodes.reverse()
    with pytest.raises(ValidationError, match=_read_too_early("sq", "h")):
        validate_model(m)


def test_topological_order_names_node_with_dangling_input():
    # the dependency-order check blames the node whose input is never
    # produced, not the nodes that run before it
    m = tiny_model()
    m.nodes[1] = Node("Relu", "act", ["missing"], ["y"])
    with pytest.raises(ValidationError, match=_read_too_early("act", "missing")):
        validate_model(m)


def random_dag(seed, n_nodes=40):
    """Unary and binary nodes over earlier values, in dependency order."""
    rng = np.random.default_rng(seed)
    names = ["x"]
    nodes = []
    for k in range(n_nodes):
        picks = rng.choice(len(names), size=int(rng.integers(1, 3)))
        ins = [names[i] for i in picks]
        op = "Relu" if len(ins) == 1 else "Add"
        nodes.append(Node(op, f"n{k}", ins, [f"v{k}"]))
        names.append(f"v{k}")
    return GraphModel("dag", [ValueSpec("x", "float64", (-1, 3))],
                      [ValueSpec(names[-1], "float64", (-1, 3))], {}, nodes)


@pytest.mark.parametrize("seed", range(5))
def test_validate_names_the_first_node_read_out_of_order(seed):
    m = random_dag(seed)
    validate_model(m)
    m.nodes = [m.nodes[i] for i in np.random.default_rng(seed).permutation(40)]
    available = {"x"}
    for node in m.nodes:
        early = [name for name in node.inputs if name not in available]
        if early:
            break
        available.update(node.outputs)
    with pytest.raises(ValidationError,
                       match=_read_too_early(node.name, early[0])):
        validate_model(m)


@pytest.mark.parametrize("broken", [shuffled_model, cyclic_model])
@pytest.mark.parametrize("walk", [
    pytest.param(validate_model, id="validate_model"),
    pytest.param(lambda m: execute(m, {"x": np.ones((1, 3), np.float32)}),
                 id="execute"),
    pytest.param(infer_graph_shapes, id="infer_graph_shapes")])
def test_every_walk_refuses_a_node_read_out_of_order(walk, broken):
    m, node, value = broken()
    with pytest.raises(ValidationError, match=_read_too_early(node, value)):
        walk(m)


def test_dumps_is_deterministic():
    assert dumps_model(tiny_model()) == dumps_model(tiny_model())
    assert dumps_model(tiny_model()) != dumps_model(tiny_model(), {"k": 1})


def test_model_roundtrip_preserves_equality(tmp_path):
    m = tiny_model()
    path = str(tmp_path / "tiny.sgm")
    save_model(m, path)
    again = load_model(path)
    assert again == m
    assert model_digest(again) == model_digest(m)


def test_digest_tracks_weight_changes():
    a, b = tiny_model(), tiny_model()
    b.initializers["w"].array[0, 0] += 1.0
    assert model_digest(a) != model_digest(b)


def test_digest_tracks_one_payload_element():
    a, b = tiny_model(), tiny_model()
    arr = b.initializers["w"].array
    arr.reshape(-1)[-1] = np.nextafter(arr.reshape(-1)[-1], np.float32(2))
    assert a.initializers["w"].to_bytes() != b.initializers["w"].to_bytes()
    assert model_digest(a) != model_digest(b)


def test_tensors_are_equal_when_their_payload_bits_are():
    # equal payloads ship once, so -0.0 and 0.0 must not be taken as equal
    arr = np.array([[0.0, 1.5], [-2.0, 3.0]])
    same = TensorValue(arr.copy())
    assert TensorValue(arr) == same and TensorValue(np.array(0.0)) == \
        TensorValue(np.array(0.0))
    signed = arr.copy()
    signed[0, 0] = -0.0
    last = arr.copy()
    last[-1, -1] = np.nextafter(last[-1, -1], 4.0)
    for other in (TensorValue(signed), TensorValue(last),
                  TensorValue(arr, "float32"), TensorValue(arr.reshape(4)),
                  TensorValue(np.array(-0.0))):
        assert TensorValue(arr) != other
    assert TensorValue(np.array(0.0)) != TensorValue(np.array(-0.0))


def with_weight(array, dtype="float32"):
    m = tiny_model()
    m.initializers["w"] = TensorValue(array, dtype)
    return m


def test_digest_separates_shapes_holding_the_same_bytes():
    flat = np.arange(6, dtype=np.float32)
    a = with_weight(flat.reshape(2, 3))
    b = with_weight(flat.reshape(3, 2))
    assert a.initializers["w"].to_bytes() == b.initializers["w"].to_bytes()
    assert model_digest(a) != model_digest(b)


def test_digest_tracks_dtype():
    values = np.arange(6, dtype=np.float32).reshape(3, 2)
    assert model_digest(with_weight(values)) != model_digest(
        with_weight(values.astype(np.float64), "float64"))
    # the same eight payload bytes read as two float32s or one float64
    raw = np.arange(1, 3, dtype=np.float32).tobytes()
    a = with_weight(np.frombuffer(raw, np.float32).copy())
    b = with_weight(np.frombuffer(raw, np.float64).copy(), "float64")
    assert a.initializers["w"].to_bytes() == b.initializers["w"].to_bytes()
    assert model_digest(a) != model_digest(b)
    m = tiny_model()
    m.inputs[0] = ValueSpec("x", "float64", (-1, 3))
    assert model_digest(m) != model_digest(tiny_model())


def test_digest_tracks_attributes_and_node_names():
    def softmax_model(axis, name="sm"):
        return GraphModel("soft", [ValueSpec("x", "float64", (-1, 3))],
                          [ValueSpec("y", "float64", (-1, 3))], {},
                          [Node("Softmax", name, ["x"], ["y"], {"axis": axis})])

    assert model_digest(softmax_model(-1)) == model_digest(softmax_model(-1))
    assert model_digest(softmax_model(-1)) != model_digest(softmax_model(1))
    assert model_digest(softmax_model(-1)) != model_digest(
        softmax_model(-1, name="sm2"))
    renamed = tiny_model()
    renamed.nodes[0].name = "mm2"
    assert model_digest(renamed) != model_digest(tiny_model())


def test_digest_survives_save_and_load_at_float64(tmp_path):
    m = with_weight(np.linspace(-1, 1, 6).reshape(3, 2), "float64")
    path = str(tmp_path / "wide.sgm")
    save_model(m, path)
    assert model_digest(load_model(path)) == model_digest(m)


def test_digest_never_serializes_the_model(monkeypatch):
    import graphlift.ir as ir
    want = model_digest(tiny_model())

    def refuse(*args, **kwargs):
        raise AssertionError("model_digest must not serialize the model")

    monkeypatch.setattr(ir, "dumps_model", refuse)
    monkeypatch.setattr(ir, "_pack", refuse)
    assert ir.model_digest(tiny_model()) == want
    assert len(want) == 64 and int(want, 16) >= 0


def test_load_model_rejects_a_header_without_a_graph(tmp_path):
    path = str(tmp_path / "bare.sgm")
    save_tensor(TensorValue(np.ones(3)), path, name="w")
    with pytest.raises(ParseError, match="malformed model header"):
        load_model(path)


def test_load_rejects_a_malformed_header(tmp_path):
    path = tmp_path / "broken.sgm"
    path.write_bytes(b"GLIFT\0\1\n" + (9).to_bytes(8, "little") + b"{not json")
    with pytest.raises(ParseError, match="malformed container header"):
        load_model(str(path))


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_tensor_file_roundtrip(tmp_path, dtype, edit_header):
    arr = np.linspace(-1, 1, 12).astype(dtype).reshape(3, 4)
    path = str(tmp_path / "t.stn")
    save_tensor(TensorValue(arr, dtype), path, name="probe")
    back = load_tensor(path)
    assert back.dtype == dtype
    assert back.array.tobytes() == arr.tobytes()
    assert edit_header(path)["initializers"] == [
        {"name": "probe", "dtype": dtype, "shape": [3, 4]}]


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_a_scalar_tensor_round_trips_as_a_scalar(tmp_path, dtype, edit_header):
    path = str(tmp_path / "s.stn")
    save_tensor(TensorValue(np.array(2.5, dtype)), path, name="scale")
    back = load_tensor(path)
    assert back.shape == back.array.shape == ()
    assert back.dtype == dtype and back.array.tobytes() == \
        np.array(2.5, dtype).tobytes()
    assert edit_header(path)["initializers"][0]["shape"] == []


def test_load_tensor_refuses_a_model_file(tmp_path):
    path = str(tmp_path / "m.sgm")
    save_model(tiny_model(), path)
    with pytest.raises(ParseError, match="single tensor"):
        load_tensor(path)


def test_metadata_survives_roundtrip(tmp_path, edit_header):
    m = tiny_model()
    path = str(tmp_path / "m.sgm")
    save_model(m, path, metadata={"k": 1})
    assert edit_header(path)["metadata"] == {"k": 1}
    assert load_model(path) == m


def test_the_digest_covers_the_metadata(tmp_path, edit_header):
    path = tmp_path / "m.sgm"
    save_model(tiny_model(), str(path), metadata={"k": 1})
    assert edit_header(path)["digest"] != model_digest(tiny_model())
    edit_header(path, lambda h: h["metadata"].update(k=2))
    with pytest.raises(ParseError, match="digest mismatch"):
        load_model(str(path))


def test_container_header_is_the_digest_header(tmp_path, edit_header):
    m = with_weight(np.linspace(-1, 1, 6).reshape(3, 2), "float64")
    m.initializers["b"] = TensorValue(np.ones(2, np.float32))
    path = tmp_path / "m.sgm"
    save_model(m, str(path))
    data = path.read_bytes()
    assert data[:8] == b"GLIFT\0\1\n"
    header = edit_header(path)
    assert header.pop("digest") == model_digest(m)
    offsets = header.pop("offsets")
    assert header == _header(m)
    base = 16 + int.from_bytes(data[8:16], "little")
    assert base % 64 == 0 and [o % 64 for o in offsets] == [0, 0]
    for offset, tensor in zip(offsets, m.initializers.values()):
        assert data[base + offset:base + offset + tensor.nbytes] == tensor.to_bytes()
    assert len(data) == base + offsets[-1] + 8


def test_loaded_payloads_are_read_only_views_of_one_read(tmp_path):
    path = str(tmp_path / "m.sgm")
    save_model(tiny_model(), path)
    arr = load_model(path).initializers["w"].array
    assert not arr.flags.writeable
    while isinstance(arr, np.ndarray):
        arr = arr.base
    assert isinstance(arr, bytes)


def flip_last_byte(path):
    data = bytearray(path.read_bytes())
    data[-1] ^= 1
    path.write_bytes(bytes(data))


@pytest.mark.parametrize("tamper, message", [
    (flip_last_byte, "digest mismatch"),
    (lambda p: p.write_bytes(p.read_bytes()[:-1]), "declares"),
    (lambda p: p.write_bytes(p.read_bytes()[:40]), "truncated"),
    (lambda p: p.write_bytes(p.read_bytes() + bytes(8)), "declares"),
    (lambda p: p.write_text('{"name": "tiny", "nodes": []}'),
     "not a graphlift container"),
])
def test_load_model_refuses_a_tampered_file(tmp_path, tamper, message):
    path = tmp_path / "m.sgm"
    save_model(tiny_model(), str(path))
    tamper(path)
    with pytest.raises(ParseError, match=message):
        load_model(str(path))


def test_load_model_refuses_an_edited_node(tmp_path, edit_header):
    path = tmp_path / "m.sgm"
    save_model(tiny_model(), str(path))
    edit_header(path, lambda h: h["nodes"][1].update(op_type="Sigmoid"))
    with pytest.raises(ParseError, match="digest mismatch"):
        load_model(str(path))


def constant_model():
    return GraphModel(
        name="const", inputs=[ValueSpec("x", "float64", (-1, 2))],
        outputs=[ValueSpec("y", "float64", (-1, 2))], initializers={},
        nodes=[Node("Constant", "c", [], ["c"], {"dtype": "float64", "shape": [2],
                                                 "value": [0.5, 1e300]}),
               Node("Add", "add", ["x", "c"], ["y"])])


def reference_container(header: dict, arrays, metadata=None) -> bytes:
    """The container as its layout is documented, written without
    ``ir._pack``: the magic, the u64 header length, the canonical JSON
    header with ``offsets`` and then ``digest`` as its last keys, spaces up
    to a 64-byte boundary, and each little-endian payload at a 64-byte
    aligned offset from the end of the header.  The digest is the sha256 of
    the canonical header (metadata included) and then every payload."""
    payloads = [np.asarray(a, a.dtype.newbyteorder("<")).tobytes() for a in arrays]
    if metadata is not None:
        header = {**header, "metadata": metadata}
    offsets, end = [], 0
    for payload in payloads:
        offsets.append((end + 63) // 64 * 64)
        end = offsets[-1] + len(payload)
    canonical = json.dumps(header, separators=(",", ":")).encode()
    digest = hashlib.sha256(canonical + b"".join(payloads)).hexdigest()
    text = json.dumps({**header, "offsets": offsets, "digest": digest},
                      separators=(",", ":")).encode()
    text += b" " * (-(len(text) + 16) % 64)
    body = b""
    for offset, payload in zip(offsets, payloads):
        body += bytes(offset - len(body)) + payload
    return b"GLIFT\0\1\n" + struct.pack("<Q", len(text)) + text + body


def two_weight_model():
    m = with_weight(np.linspace(-1, 1, 6).reshape(3, 2), "float64")
    m.initializers["b"] = TensorValue(np.array([0.5, -2.0], np.float32))
    return m


@pytest.mark.parametrize("metadata", [None, {"k": 1, "mean": 0.25, "tags": ["a"]}])
@pytest.mark.parametrize("model", [tiny_model, two_weight_model, constant_model])
def test_the_writer_is_the_documented_layout(tmp_path, model, metadata):
    m = model()
    want = reference_container(_header(m), [t.array for t in m.initializers.values()],
                               metadata)
    assert dumps_model(m, metadata) == want
    path = tmp_path / "m.sgm"
    path.write_bytes(want)
    assert load_model(str(path)) == m


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_a_tensor_file_is_the_documented_layout(tmp_path, dtype):
    arr = np.linspace(-3, 3, 10).astype(dtype).reshape(2, 5)
    path = tmp_path / "t.stn"
    save_tensor(TensorValue(arr, dtype), str(path), name="probe")
    want = reference_container(
        {"initializers": [{"name": "probe", "dtype": dtype, "shape": [2, 5]}]}, [arr])
    assert path.read_bytes() == want
    other = tmp_path / "ref.stn"
    other.write_bytes(want)
    assert load_tensor(str(other)).array.tobytes() == arr.tobytes()


def rewrite_header_text(path, change):
    """Pass the stored header text, padding and all, through ``change`` and
    store the result with its length, leaving every payload byte as it is."""
    data = path.read_bytes()
    size = struct.unpack_from("<Q", data, 8)[0]
    text = change(data[16:16 + size])
    path.write_bytes(data[:8] + struct.pack("<Q", len(text)) + text
                     + data[16 + size:])


def _before_last_brace(text, insert):
    body = text.rstrip(b" ")
    return body[:-1] + insert + b"}" + text[len(body):]


def _space_in_offsets(text):
    assert text.count(b',"offsets":[0,64]') == 1
    return text.replace(b',"offsets":[0,64]', b',"offsets":[0, 64]')


def _escaped_digest(text):
    at = text.index(b'"digest":"') + len(b'"digest":"')
    return text[:at] + b"\\u00" + text[at:at + 1].hex().encode() + text[at + 1:]


def _last_padding_byte(byte):
    def change(text):
        assert text.endswith(b" ")
        return text[:-1] + byte
    return change


def _flip(needle, offset):
    def change(text):
        at = text.index(needle) + offset
        return text[:at] + bytes([text[at] ^ 1]) + text[at + 1:]
    return change


@pytest.mark.parametrize("change, message", [
    (lambda t: _before_last_brace(t, b',"nodes":[]'), "malformed"),
    (lambda t: _before_last_brace(t, b',"extra":1'), "malformed"),
    (_space_in_offsets, "malformed"),
    (lambda t: t.replace(b'"digest":"', b'"digest": "'), "malformed"),
    (_escaped_digest, "malformed"),
    (lambda t: t.replace(b',"offsets":[0,64],', b',"offsets":[0,64.0],'), "malformed"),
    (_last_padding_byte(b"\n"), "malformed"),
    (_last_padding_byte(b"\t"), "malformed"),
    (_last_padding_byte(b"x"), "malformed"),
    (_flip(b'"name":"mm"', 9), "digest mismatch"),
    (_flip(b'"name":"tiny"', 9), "digest mismatch"),
    (_flip(b'"digest":"', 12), "digest mismatch"),
], ids=["key-after-digest", "extra-key", "offsets-spaced", "digest-spaced",
        "digest-escaped", "offset-float", "padding-newline", "padding-tab",
        "padding-letter", "node-name", "model-name", "digest-digit"])
def test_every_stored_header_byte_is_hashed_or_derived(tmp_path, change, message):
    m = two_weight_model()
    m.nodes[0].name = "mm"
    path = tmp_path / "m.sgm"
    save_model(m, str(path), metadata={"k": 1})
    load_model(str(path))
    rewrite_header_text(path, change)
    with pytest.raises(ParseError, match=message):
        load_model(str(path))


def test_a_non_canonical_header_loads_when_its_digest_covers_its_bytes(tmp_path):
    """The digest covers the header as stored: one written by hand with
    other whitespace loads, where a file that re-encoded it would not."""
    m = two_weight_model()
    canonical = dumps_model(m)
    size = struct.unpack_from("<Q", canonical, 8)[0]
    header = json.loads(canonical[16:16 + size])
    offsets = header.pop("offsets")
    del header["digest"]
    spaced = json.dumps(header, indent=1).encode()
    payloads = b"".join(t.to_bytes() for t in m.initializers.values())
    # the hashed bytes are the stored text before the offsets, then a brace
    digest = hashlib.sha256(spaced + payloads).hexdigest()
    text = spaced[:-1] + b',"offsets":' + json.dumps(offsets, separators=(",", ":")
                                                     ).encode() \
        + b',"digest":"' + digest.encode() + b'"}'
    text += b" " * (-(len(text) + 16) % 64)
    path = tmp_path / "m.sgm"
    path.write_bytes(canonical[:8] + struct.pack("<Q", len(text)) + text
                     + canonical[16 + size:])
    assert load_model(str(path)) == m


def _out_of_range(path, mantissa):
    # JSON writes no number too large for a float; swap one in, same length
    data = path.read_bytes()
    old = mantissa + b"e+300"
    assert data.count(old) == 1
    path.write_bytes(data.replace(old, mantissa + b"e+400"))


def _set_node_value(value):
    return lambda path, edit: edit(
        path, lambda h: h["nodes"][0]["attributes"].update(value=[0.5, value]))


def _set_metadata_float(value):
    return lambda path, edit: edit(
        path, lambda h: h["metadata"].update(mean=value))


@pytest.mark.parametrize("tamper", [
    _set_node_value(float("nan")),
    _set_node_value(float("inf")),
    _set_node_value(float("-inf")),
    lambda path, _: _out_of_range(path, b"1"),
    _set_metadata_float(float("nan")),
    _set_metadata_float(float("inf")),
    lambda path, edit: (_set_metadata_float(2e300)(path, edit),
                        _out_of_range(path, b"2")),
], ids=["node-nan", "node-inf", "node-neg-inf", "node-1e400", "meta-nan",
        "meta-inf", "meta-1e400"])
def test_a_header_number_out_of_json_range_is_a_parse_error(tmp_path, edit_header,
                                                            tamper):
    path = tmp_path / "c.sgm"
    save_model(constant_model(), str(path), metadata={"mean": 0.25})
    tamper(path, edit_header)
    with pytest.raises(ParseError, match="malformed container header"):
        load_model(str(path))
