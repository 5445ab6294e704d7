"""The slow-path oracle and the attribution comparison harness."""

import warnings

import numpy as np
import pytest

import graphlift as gl
from graphlift import (GraphModel, Node, TensorValue, UnsupportedOp,
                       ValidationError, ValueSpec)
from graphlift.corpus import build_corpus, demo_model, demo_sample, \
    random_references
from graphlift.oracle import compare_attributions, deeplift_oracle, finite_diff


def test_completeness_on_every_motif():
    from graphlift.cli import cast_model
    for entry in build_corpus():
        model = cast_model(entry.model, "float64")
        sample = entry.sample.astype(np.float64)
        refs = entry.references.astype(np.float64)
        result = deeplift_oracle(model, sample, refs)
        outs_x, _ = gl.execute(model, {model.inputs[0].name: sample})
        outs_r, _ = gl.execute(model, {model.inputs[0].name: refs})
        name = model.outputs[0].name
        delta = outs_x[name][0, 0] - outs_r[name][:, 0].mean()
        assert abs(result.phi.array.sum() - delta) \
            <= 1e-9 * max(1.0, abs(delta)), entry.name


def test_finite_diff_exact_on_linear():
    w = TensorValue(np.array([[2.0, -1.0], [0.5, 3.0]]), "float64")
    model = GraphModel("lin", [ValueSpec("x", "float64", (-1, 2))],
                       [ValueSpec("y", "float64", (-1, 2))], {"w": w},
                       [Node("MatMul", "m", ["x", "w"], ["y"])])
    gl.validate_model(model)
    grad = finite_diff(model, np.array([[0.3, -0.7]]), output_index=1)
    assert np.abs(grad - w.array[:, 1]).max() <= 1e-9


def test_oracle_matches_finite_diff_at_tiny_delta():
    """As refs approach the sample, multipliers approach the local gradient."""
    model = demo_model()
    x = demo_sample()
    refs = x + 1e-3 * np.random.default_rng(0).normal(size=x.shape)
    _, mult = deeplift_oracle(model, x, refs, return_multipliers=True)
    grad = finite_diff(model, x)
    assert np.abs(mult[0] - grad.reshape(mult[0].shape)).max() <= 1e-4


def test_oracle_rejects_batched_sample():
    model = demo_model()
    refs = random_references(model, 3)
    with pytest.raises(ValidationError):
        deeplift_oracle(model, np.zeros((2, 32)), refs)


def test_oracle_rejects_bad_output_index():
    model = demo_model()
    refs = random_references(model, 3)
    with pytest.raises(ValidationError):
        deeplift_oracle(model, demo_sample(), refs, output_index=5)


@pytest.mark.parametrize("references, match", [
    ("abc", "references is not a numeric array"),
    (np.zeros((0, 32)), "references holds no rows"),
])
def test_oracle_refuses_references_it_cannot_use(references, match):
    with pytest.raises(ValidationError, match=match):
        deeplift_oracle(demo_model(), demo_sample(), references)


def test_finite_diff_rejects_bad_output_index():
    with pytest.raises(ValidationError, match="output index 5"):
        finite_diff(demo_model(), demo_sample(), output_index=5)


@pytest.mark.parametrize("output_index", [1.5, True, "0", None])
def test_an_output_index_that_is_no_integer_is_named(output_index):
    # a three-class head, where 1.5 and True both fall inside the range
    net = gl.micro_net("matmul_gemm")
    with pytest.raises(ValidationError, match="output index"):
        deeplift_oracle(net.model, net.sample, net.references,
                        output_index=output_index)
    with pytest.raises(ValidationError, match="output index"):
        finite_diff(net.model, net.sample, output_index=output_index)


def test_the_oracle_restates_the_rules_epsilons():
    # two statements of one constant, kept apart so a defect on the emission
    # side cannot leak into the oracle; nothing sets either
    from graphlift import oracle, rules
    assert oracle._EPS_ACT == rules.EPS_ACT


def test_oracle_names_the_node_of_an_overflowing_multiplier():
    net = gl.micro_net("softmax", dtype="float32")
    refs = np.full_like(net.references, 100.0)  # exp(100) overflows float32
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(gl.NumericError, match="'act_op'"):
            deeplift_oracle(net.model, net.sample, refs)


def test_oracle_names_a_reduce_without_axes_over_the_batch():
    # without axes a reduce runs over every axis, the batch axis included;
    # the oracle refuses it as compiling does, naming the node
    model = GraphModel(
        "r", [ValueSpec("x", "float64", (-1, 3))],
        [ValueSpec("y", "float64", (1, 1))], {},
        [Node("Relu", "act", ["x"], ["h"]),
         Node("ReduceSum", "red", ["h"], ["y"], {"keepdims": 1})])
    refs = np.zeros((2, 3))
    with pytest.raises(UnsupportedOp, match="'red'"):
        gl.compile_explainer(model, refs)
    with pytest.raises(UnsupportedOp, match="'red'"):
        deeplift_oracle(model, np.ones((1, 3)), refs)


def test_oracle_rejects_multi_input_graph():
    model = GraphModel(
        "two_in",
        [ValueSpec("a", "float64", (-1, 2)), ValueSpec("b", "float64", (-1, 2))],
        [ValueSpec("y", "float64", (-1, 2))], {},
        [Node("Add", "s", ["a", "b"], ["y"])])
    gl.validate_model(model)
    with pytest.raises(UnsupportedOp):
        deeplift_oracle(model, np.zeros((1, 2)), np.zeros((2, 2)))


def test_oracle_is_independent_of_the_compiler_rules(monkeypatch):
    """Sabotaging the compiler's rule table must not change oracle output."""
    import graphlift.rules as rules

    model = demo_model()
    x, refs = demo_sample(), random_references(model, 4, seed=9)
    before = deeplift_oracle(model, x, refs).phi.array.copy()

    def bomb(*args, **kwargs):
        raise AssertionError("compiler rule invoked from the oracle")

    monkeypatch.setattr(rules, "RULES", {op: bomb for op in rules.RULES})
    after = deeplift_oracle(model, x, refs).phi.array
    assert np.array_equal(before, after)


def test_compare_attributions_pass_and_fail():
    a = np.array([1.0, 2.0, 3.0])
    ok = compare_attributions(a, a + 5e-9)
    assert ok.fraction == 1.0
    assert ok.failed == 0
    assert ok.passed()

    bad = a.copy()
    bad[1] += 1.0
    report = compare_attributions(a, bad)
    assert report.failed == 1
    assert report.total == 3
    assert report.fraction == pytest.approx(2.0 / 3.0)
    assert report.worst_index == (1,)
    assert report.value_a == pytest.approx(2.0)
    assert report.value_b == pytest.approx(3.0)
    assert not report.passed()
    assert "2/3" in report.format()


def test_compare_attributions_relative_band():
    base = np.array([1000.0])
    # inside rtol * |b|
    assert compare_attributions(base, base * (1 + 9e-6)).fraction == 1.0
    # outside the allowance
    assert compare_attributions(base, base * (1 + 2e-5)).fraction == 0.0


def test_compare_attributions_passes_identical_arrays_at_zero_tolerance():
    a = np.array([[0.0, -1.5, 3e-300], [1e300, 2.0, -7.25]])
    report = compare_attributions(a, a.copy(), atol=0, rtol=0)
    assert report.fraction == 1.0 and report.failed == 0
    # the allowance itself is inside the band
    assert compare_attributions([1.5], [1.0], atol=0.5, rtol=0).fraction == 1.0
    assert compare_attributions([2.0], [1.0], atol=0, rtol=0.5).fraction == 0.0


@pytest.mark.parametrize("atol, rtol", [(-1e-8, 1e-5), (1e-8, -1e-5),
                                        (float("nan"), 0.0)])
def test_compare_attributions_refuses_a_negative_tolerance(atol, rtol):
    with pytest.raises(gl.ValidationError, match="non-negative"):
        compare_attributions(np.ones(3), np.ones(3), atol=atol, rtol=rtol)


@pytest.mark.parametrize("name", ["atol", "rtol"])
@pytest.mark.parametrize("tol", ["x", None, True])
def test_compare_attributions_names_a_tolerance_that_is_no_number(name, tol):
    with pytest.raises(gl.ValidationError, match=name):
        compare_attributions(np.ones(3), np.ones(3), **{name: tol})


@pytest.mark.parametrize("a, b, name", [("a", np.ones(3), "a"),
                                        (np.ones(3), "b", "b"),
                                        ({"x": 1.0}, np.ones(1), "a")])
def test_compare_attributions_names_an_array_that_is_no_number(a, b, name):
    with pytest.raises(gl.ValidationError, match=f"^{name} is not a numeric"):
        compare_attributions(a, b)


@pytest.mark.parametrize("h", [0.0, -1e-4, float("nan"), float("inf"), "x", True])
def test_finite_diff_refuses_a_step_that_is_not_a_finite_positive_number(h):
    net = gl.micro_net("matmul_gemm")
    with pytest.raises(gl.ValidationError, match="step h"):
        finite_diff(net.model, net.sample, h=h)


def test_compare_attributions_shape_mismatch():
    with pytest.raises(gl.ShapeError):
        compare_attributions(np.ones((2, 2)), np.ones((4,)))
    with pytest.raises(gl.ShapeError, match="hold an element"):
        compare_attributions(np.ones((1, 0)), np.ones((1, 0)))


def test_return_multipliers_shape():
    model = demo_model()
    refs = random_references(model, 6, seed=1)
    att, mult = deeplift_oracle(model, demo_sample(), refs,
                                return_multipliers=True)
    assert mult.shape == (6, 32)
    phi = (mult * (demo_sample() - refs)).mean(axis=0)
    assert np.abs(phi - att.phi.array[0]).max() <= 1e-15
