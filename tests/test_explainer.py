"""End-to-end artifact behaviour: compile, explain, persist, render."""

import json
import warnings

import numpy as np
import pytest

import graphlift as gl
from graphlift import (Attribution, GraphModel, Node, NumericError, ParseError,
                       ShapeError, TensorValue, ValidationError, ValueSpec,
                       explainer, ir)
from graphlift.corpus import demo_model, demo_sample, random_references


@pytest.fixture(scope="module")
def demo():
    model = demo_model()
    refs = random_references(model, 5, seed=3)
    return model, refs, demo_sample()


def linear_model():
    w = TensorValue(np.array([[0.5, -1.0, 2.0],
                              [1.5, 0.25, -0.5]]), "float64")
    model = GraphModel("lin", [ValueSpec("x", "float64", (-1, 2))],
                       [ValueSpec("y", "float64", (-1, 3))], {"w": w},
                       [Node("MatMul", "head", ["x", "w"], ["y"])])
    gl.validate_model(model)
    return model, w.array


@pytest.mark.parametrize("scheme", ["fastest", [], None, 0])
def test_unknown_scheme_rejected(demo, scheme):
    model, refs, _ = demo
    with pytest.raises(ValidationError, match="unknown scheme"):
        gl.compile_explainer(model, refs, scheme=scheme)


def test_output_index_out_of_range(demo):
    model, refs, _ = demo
    with pytest.raises(ValidationError):
        gl.compile_explainer(model, refs, output_index=7)


@pytest.mark.parametrize("scheme", ["optimized", "naive"])
def test_linear_closed_form(scheme):
    """For y = x @ w the scores are exactly w[:, k] * (x - mean refs)."""
    model, w = linear_model()
    rng = np.random.default_rng(5)
    x = rng.normal(size=(1, 2))
    refs = rng.normal(size=(6, 2))
    art = gl.compile_explainer(model, refs, output_index=2, scheme=scheme)
    result = gl.explain(art, x)
    want = w[:, 2] * (x - refs.mean(axis=0, keepdims=True))
    assert np.abs(result.phi.array.reshape(1, 2) - want).max() <= 1e-12
    assert result.residual <= 1e-12


def test_explain_reports_prediction_and_residual(demo):
    model, refs, sample = demo
    art = gl.compile_explainer(model, refs)
    result = gl.explain(art, sample)
    outs, _ = gl.execute(model, {model.inputs[0].name: sample})
    y = outs[model.outputs[0].name]
    assert np.allclose(result.prediction.array, y, rtol=0, atol=1e-12)
    assert result.residual <= 1e-10
    y_refs = gl.execute(model, {model.inputs[0].name: refs})[0][
        model.outputs[0].name]
    delta = float(y[0, 0]) - float(y_refs[:, 0].mean())
    assert abs(float(result.phi.array.sum()) - delta) <= 1e-10


def test_save_load_round_trip_is_bit_identical(demo, tmp_path):
    model, refs, sample = demo
    for scheme in ("optimized", "naive"):
        art = gl.compile_explainer(model, refs, scheme=scheme)
        path = tmp_path / f"{scheme}.sge"
        gl.save_artifact(art, str(path))
        loaded = gl.load_artifact(str(path))
        assert gl.model_digest(loaded.model) == gl.model_digest(art.model)
        assert loaded.metadata == art.metadata
        a = gl.explain(art, sample)
        b = gl.explain(loaded, sample)
        assert np.array_equal(a.phi.array, b.phi.array)
        assert np.array_equal(a.prediction.array, b.prediction.array)
        # the file survives a second round trip byte for byte
        again = tmp_path / f"{scheme}2.sge"
        gl.save_artifact(loaded, str(again))
        assert path.read_bytes() == again.read_bytes()


@pytest.mark.parametrize("scheme", ["optimized", "naive"])
def test_artifact_needs_only_the_sample(demo, scheme):
    # the graph states the interface: its one input is the sample, and its
    # outputs are the prediction and phi, in that order
    model, refs, sample = demo
    art = gl.compile_explainer(model, refs, scheme=scheme)
    result = gl.explain(art, sample)
    outputs, _ = gl.execute(art.model, {art.model.inputs[0].name: sample})
    prediction, phi = (outputs[spec.name] for spec in art.model.outputs)
    assert np.array_equal(prediction, result.prediction.array)
    assert np.array_equal(phi, result.phi.array)


@pytest.mark.parametrize("inputs, outputs", [(1, 1), (1, 0), (0, 2), (2, 2)],
                         ids=["prediction-only", "no-output", "no-input",
                              "two-inputs"])
def test_explain_rejects_a_graph_of_another_interface(demo, inputs, outputs):
    model, refs, sample = demo
    art = gl.compile_explainer(model, refs)
    cut = GraphModel(art.model.name, (art.model.inputs * 2)[:inputs],
                     art.model.outputs[:outputs], art.model.initializers,
                     art.model.nodes)
    broken = gl.ExplainerArtifact(model=cut, metadata=art.metadata)
    with pytest.raises(ValidationError, match=f"not {inputs} and {outputs}"):
        gl.explain(broken, sample)


def test_a_graph_listing_the_prediction_twice_is_refused(demo, tmp_path):
    # execute returns one entry per output name, so such an artifact would
    # hand back its (1, 1) prediction as phi; saving, loading and explaining
    # each refuse it, naming the output
    model, refs, sample = demo
    art = gl.compile_explainer(model, refs)
    prediction = art.model.outputs[0]
    twice = GraphModel(art.model.name, art.model.inputs,
                       [prediction, prediction], art.model.initializers,
                       art.model.nodes)
    match = f"duplicate graph output {prediction.name!r}"
    with pytest.raises(ValidationError, match=match):
        gl.validate_model(twice)
    broken = gl.ExplainerArtifact(model=twice, metadata=art.metadata)
    path = str(tmp_path / "twice.sge")
    with pytest.raises(ValidationError, match=match):
        gl.save_artifact(broken, path)
    # the container bytes a writer that skips validation would lay out
    with open(path, "wb") as fh:
        fh.write(ir._pack(ir._header(twice), twice.initializers.values(),
                          art.metadata))
    with pytest.raises(ValidationError, match=match):
        gl.load_artifact(path)
    with pytest.raises(ValidationError, match=match):
        gl.explain(broken, sample)


@pytest.mark.parametrize("scheme", ["optimized", "naive"])
@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("name", ["plain_deep", "residual_add", "dense_concat",
                                  "scaled_add_mul"])
def test_explain_hands_back_the_arrays_execute_returned(artifacts, monkeypatch,
                                                        name, dtype, scheme):
    art = artifacts(name, dtype, scheme)
    returned = []
    run = explainer.execute

    def kept(plan, feed, capture=False):
        result = run(plan, feed, capture)
        returned.append(result[0])
        return result

    monkeypatch.setattr(explainer, "execute", kept)
    result = gl.explain(art, gl.random_inputs(art.model, 1, seed=2)[0])
    prediction, phi = (returned[0][spec.name] for spec in art.model.outputs[:2])
    assert result.prediction.array is prediction and result.phi.array is phi
    for value in (result.prediction, result.phi):
        assert value.dtype == dtype and value.array.dtype == np.dtype(dtype)
        assert value.shape == value.array.shape
        assert value.array.flags.c_contiguous


def grow_artifact(overflowing):
    """A hand-built artifact whose prediction is Relu(x) and phi Tanh(x),
    except for the ``overflowing`` output, which is Exp(x)."""
    x = ValueSpec("x", "float64", (1, 2))
    nodes = [Node("Exp" if out == overflowing else op, f"{out}_node", ["x"],
                  [out]) for op, out in (("Relu", "pred"), ("Tanh", "phi"))]
    model = GraphModel("grow", [x], [ValueSpec("pred", "float64", (1, 2)),
                                     ValueSpec("phi", "float64", (1, 2))],
                       {}, nodes)
    return gl.ExplainerArtifact(
        model=model, metadata={"output_index": 0, "ref_output_mean": 0.0})


@pytest.mark.parametrize("overflowing", ["pred", "phi"])
def test_an_output_that_goes_non_finite_raises_naming_its_node(overflowing):
    # explain scans neither returned array itself: the plan's scan of each
    # graph output is what names the node
    art = grow_artifact(overflowing)
    assert np.isfinite(gl.explain(art, np.ones((1, 2))).residual)
    with pytest.raises(NumericError, match=f"node '{overflowing}_node' "
                       f"produced non-finite values in '{overflowing}'"):
        gl.explain(art, np.full((1, 2), 1000.0))


def test_a_compiled_artifact_whose_prediction_overflows_raises(demo):
    model, refs, sample = demo
    art = gl.compile_explainer(model, refs)
    big = np.full_like(np.asarray(sample), np.finfo(np.float64).max)
    with pytest.raises(NumericError, match="produced non-finite values"):
        gl.explain(art, big)


@pytest.mark.parametrize("position", [0, 1])
def test_an_artifact_that_outputs_its_input_is_refused(position):
    # the plan scans what steps make, never the feed itself
    art = grow_artifact(None)
    outputs = list(art.model.outputs)
    outputs[position] = art.model.inputs[0]
    model = GraphModel("echo", art.model.inputs, outputs, {}, art.model.nodes)
    echo = gl.ExplainerArtifact(model=model, metadata=art.metadata)
    with pytest.raises(ValidationError, match="not the input itself"):
        gl.explain(echo, np.ones((1, 2)))


@pytest.mark.parametrize("key", ["output_index", "ref_output_mean"])
def test_explain_rejects_metadata_missing_a_key(demo, key):
    model, refs, sample = demo
    art = gl.compile_explainer(model, refs)
    meta = {k: v for k, v in art.metadata.items() if k != key}
    broken = gl.ExplainerArtifact(model=art.model, metadata=meta)
    with pytest.raises(ValidationError, match=key):
        gl.explain(broken, sample)


BAD_ARGUMENTS = [
    ("output_index", 1.5), ("output_index", True), ("output_index", "0"),
]


@pytest.mark.parametrize("build", ["compile_explainer", "build_optimized",
                                   "build_naive"])
@pytest.mark.parametrize("key, value", BAD_ARGUMENTS)
def test_bad_compile_argument_is_named(demo, build, key, value):
    model, refs, _ = demo
    with pytest.raises(ValidationError, match=key):
        getattr(gl, build)(model, refs, **{key: value})


@pytest.mark.parametrize("build", ["compile_explainer", "build_optimized",
                                   "build_naive"])
@pytest.mark.parametrize("key", ["eps_act", "eps_pool"])
def test_the_epsilons_are_not_arguments(demo, build, key):
    # the rules' epsilons are constants: no caller sets them
    model, refs, _ = demo
    with pytest.raises(TypeError, match=key):
        getattr(gl, build)(model, refs, **{key: 1e-3})


def test_explain_rejects_a_non_numeric_sample(demo):
    model, refs, _ = demo
    art = gl.compile_explainer(model, refs)
    with pytest.raises(ValidationError, match="sample"):
        gl.explain(art, "abc")


@pytest.mark.parametrize("scheme", ["optimized", "naive"])
@pytest.mark.parametrize("refs", ["abc", [[0.0, 1.0], [2.0]]])
def test_compile_rejects_non_numeric_references(scheme, refs):
    with pytest.raises(ValidationError, match="the reference set is not a numeric"):
        gl.compile_explainer(gl.demo_model(), refs, scheme=scheme)


def test_explain_rejects_out_of_range_output_index(demo):
    model, refs, sample = demo
    art = gl.compile_explainer(model, refs)
    edited = gl.ExplainerArtifact(
        model=art.model, metadata={**art.metadata, "output_index": 99})
    with pytest.raises(ValidationError, match="output index 99"):
        gl.explain(edited, sample)


def flip_last_byte(path, _):
    data = bytearray(path.read_bytes())
    data[-1] ^= 1
    path.write_bytes(bytes(data))


def set_metadata(key, value):
    return lambda path, edit: edit(path, lambda h: h["metadata"].update({key: value}))


@pytest.mark.parametrize("tamper, message", [
    (flip_last_byte, "digest mismatch"),
    (lambda p, edit: edit(p, lambda h: h["nodes"][0].update(name="renamed")),
     "digest mismatch"),
    (set_metadata("output_index", 1), "digest mismatch"),
    (set_metadata("ref_output_mean", 1.0), "digest mismatch"),
    (set_metadata("source_digest", "0" * 64), "digest mismatch"),
    (lambda p, edit: edit(p, lambda h: h.pop("metadata")), "digest mismatch"),
    (lambda p, _: p.write_bytes(p.read_bytes()[:-64]), "declares"),
    (lambda p, _: p.write_text(json.dumps({"name": "demo", "metadata": {}})),
     "not a graphlift container"),
])
def test_load_artifact_refuses_a_tampered_file(demo, tmp_path, edit_header,
                                               tamper, message):
    model, refs, _ = demo
    path = tmp_path / "demo.sge"
    gl.save_artifact(gl.compile_explainer(model, refs), str(path))
    tamper(path, edit_header)
    with pytest.raises(ParseError, match=message):
        gl.load_artifact(str(path))


def test_load_rejects_plain_model(demo, tmp_path):
    model, _, _ = demo
    path = tmp_path / "plain.sgm"
    gl.save_model(model, str(path))
    with pytest.raises(ParseError, match="plain model"):
        gl.load_artifact(str(path))
    # metadata the digest proves but that is not an object is refused too
    gl.save_model(model, str(path), metadata=[1, 2])
    with pytest.raises(ParseError, match="not a JSON object"):
        gl.load_artifact(str(path))


@pytest.mark.parametrize("scheme", ["optimized", "naive"])
def test_compile_and_save_hash_each_artifact_payload_once(demo, tmp_path,
                                                          monkeypatch, scheme):
    model, refs, _ = demo
    hashed, digest = [], ir._digest

    def counting(header, payloads):
        payloads = list(payloads)
        hashed.append(sum(p.nbytes for p in payloads))
        return digest(header, payloads)

    monkeypatch.setattr(ir, "_digest", counting)
    art = gl.compile_explainer(model, refs, scheme=scheme)
    gl.save_artifact(art, str(tmp_path / "demo.sge"))
    # the source model once, for its provenance, and the artifact once, when
    # saved: one digest proves the file
    assert hashed == [sum(t.nbytes for t in model.initializers.values()),
                      sum(t.nbytes for t in art.model.initializers.values())]
    assert hashed[1] > 0


def test_corrupted_cache_breaks_completeness(demo):
    """Nudging one baked reference tensor must show up in the residual."""
    model, refs, sample = demo
    art = gl.compile_explainer(model, refs)
    clean = gl.explain(art, sample)
    victim = None
    for name, tv in art.model.initializers.items():
        if "ref_" in name and tv.array.size > 1:
            victim = name
            break
    assert victim is not None
    broken = {k: v for k, v in art.model.initializers.items()}
    broken[victim] = TensorValue(broken[victim].array + 0.37, "float64")
    tampered = gl.ExplainerArtifact(
        model=GraphModel(art.model.name, art.model.inputs, art.model.outputs,
                         broken, art.model.nodes),
        metadata=art.metadata)
    dirty = gl.explain(tampered, sample)
    assert dirty.residual > 1e3 * max(clean.residual, 1e-15)


def test_write_pgm_golden(tmp_path):
    phi = np.array([[[0.0, 1.0], [2.0, 4.0]]])  # (1, 2, 2) single channel
    path = tmp_path / "img.pgm"
    gl.write_pgm(phi, str(path))
    text = path.read_text().splitlines()
    assert text[0] == "P2"
    assert text[1] == "2 2"
    assert text[2] == "255"
    assert text[3].split() == ["0", "64"]
    assert text[4].split() == ["128", "255"]


def test_write_pgm_collapses_channels(tmp_path):
    phi = np.ones((1, 3, 4, 4))
    path = tmp_path / "flat.pgm"
    gl.write_pgm(phi, str(path))
    body = path.read_text().splitlines()[3:]
    # constant plane maps to mid gray
    assert all(v == "128" for row in body for v in row.split())


def test_write_pgm_rejects_vectors(tmp_path):
    with pytest.raises(ShapeError):
        gl.write_pgm(np.ones((1, 7)), str(tmp_path / "bad.pgm"))


@pytest.mark.parametrize("shape", [(0, 3), (2, 0, 3), (1, 1, 4, 0)])
def test_write_pgm_rejects_an_empty_image(tmp_path, shape):
    path = tmp_path / "empty.pgm"
    with pytest.raises(ShapeError, match="no pixels"):
        gl.write_pgm(np.zeros(shape), str(path))
    assert not path.exists()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_write_pgm_refuses_a_non_finite_attribution(tmp_path, bad):
    path = tmp_path / "bad.pgm"
    phi = np.array([[0.0, 1.0], [2.0, 3.0]])
    phi[0, 1] = bad
    with pytest.raises(gl.NumericError, match="non-finite"):
        gl.write_pgm(phi, str(path))
    assert not path.exists()


def test_write_pgm_names_a_non_numeric_attribution(tmp_path):
    path = tmp_path / "bad.pgm"
    with pytest.raises(gl.ValidationError, match="phi"):
        gl.write_pgm("abc", str(path))
    assert not path.exists()


@pytest.mark.parametrize("phi, rows", [
    # a range past the float64 maximum is halved before the subtraction
    ([[-1e308, 1e308], [0.0, 1.0]], [["0", "255"], ["128", "128"]]),
    # a range of subnormals keeps every bit: halving would lose the middle
    ([[0.0, 5e-324], [1e-323, 0.0]], [["0", "128"], ["255", "0"]]),
], ids=["overflowing-range", "subnormal-range"])
def test_write_pgm_scales_a_finite_range_of_any_width(tmp_path, phi, rows):
    path = tmp_path / "wide.pgm"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        gl.write_pgm(np.array(phi), str(path))
    assert [line.split() for line in path.read_text().splitlines()[3:]] == rows


def test_attribution_dataclass_fields(demo):
    model, refs, sample = demo
    result = gl.explain(gl.compile_explainer(model, refs), sample)
    assert isinstance(result, Attribution)
    assert isinstance(result.phi, TensorValue)
    assert isinstance(result.prediction, TensorValue)
    assert result.phi.array.shape[1:] == sample.shape[1:]
