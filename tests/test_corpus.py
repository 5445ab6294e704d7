"""Corpus construction: coverage, determinism, batch safety."""

import numpy as np
import pytest

import graphlift as gl
from graphlift import corpus
from graphlift.ir import SUPPORTED_OPS


PLUMBING_OPS = {"Abs", "Pad", "ConvTranspose"}


def coverage_matrix(models):
    """op type -> which of the given models use it."""
    matrix = {op: [] for op in sorted(SUPPORTED_OPS)}
    for model in models:
        for node in model.nodes:
            row = matrix[node.op_type]
            if model.name not in row:
                row.append(model.name)
    return matrix


def missing_ops(models):
    return {op for op, users in coverage_matrix(models).items() if not users}


def test_every_supported_op_appears_somewhere(artifacts, corpus_f32):
    forward = [e.model for e in corpus_f32]
    # the backward plumbing ops appear only in compiled artifacts: padding
    # only where a padded max-pool is differentiated (the micro net's)
    assert missing_ops(forward) == PLUMBING_OPS
    compiled = [artifacts(e.name, "float32", scheme).model
                for e in corpus_f32 for scheme in ("optimized", "naive")]
    for family in corpus.MICRO_FAMILIES:
        net = corpus.micro_net(family)
        compiled.append(gl.compile_explainer(net.model, net.references).model)
    models = forward + compiled
    assert missing_ops(models) == set()
    matrix = coverage_matrix(models)
    assert set(matrix) == set(SUPPORTED_OPS)


def test_motif_builds_are_deterministic():
    for name in (e.name for e in corpus.build_corpus()):
        a = corpus.corpus_entry(name, seed=4)
        b = corpus.corpus_entry(name, seed=4)
        c = corpus.corpus_entry(name, seed=5)
        assert gl.model_digest(a.model) == gl.model_digest(b.model)
        assert np.array_equal(a.sample, b.sample)
        assert np.array_equal(a.references, b.references)
        assert gl.model_digest(a.model) != gl.model_digest(c.model)


def test_every_motif_has_a_ten_class_head():
    for entry in corpus.build_corpus():
        head = entry.model.outputs[0]
        assert head.shape == (-1, corpus.HEAD_CLASSES)
        outs, _ = gl.execute(entry.model,
                             {entry.model.inputs[0].name: entry.sample})
        assert outs[head.name].shape == (1, corpus.HEAD_CLASSES)


def test_motifs_accept_any_batch():
    for entry in corpus.build_corpus():
        feed = np.repeat(entry.sample, 7, axis=0)
        outs, _ = gl.execute(entry.model,
                             {entry.model.inputs[0].name: feed})
        assert outs[entry.model.outputs[0].name].shape[0] == 7


def test_image_geometry():
    for entry in corpus.build_corpus():
        assert entry.sample.shape == (1,) + corpus.IMAGE_SHAPE
        assert entry.references.shape == (5,) + corpus.IMAGE_SHAPE
        assert entry.sample.dtype == np.float32


def test_unknown_motif_and_family_rejected():
    with pytest.raises(gl.ValidationError):
        corpus.corpus_entry("nonexistent")
    with pytest.raises(gl.ValidationError):
        corpus.micro_net("nonexistent")


@pytest.mark.parametrize("make", [
    lambda: corpus.random_references(corpus.demo_model(), -1),
    lambda: corpus.random_references(corpus.demo_model(), 0),
    lambda: corpus.zero_references(corpus.demo_model(), 0),
    lambda: corpus.random_inputs(corpus.demo_model(), -2),
    lambda: corpus.random_inputs(corpus.demo_model(), 0),
    lambda: corpus.micro_net("conv", batch=-1),
    lambda: corpus.corpus_entry("plain_deep", batch=0),
    lambda: corpus.build_corpus(batch=-1),
], ids=["random-refs-neg", "random-refs-zero", "zero-refs-zero", "inputs-neg",
        "inputs-zero", "micro-neg", "entry-zero", "corpus-neg"])
def test_a_batch_or_count_below_one_is_refused(make):
    with pytest.raises(gl.ValidationError, match="must be at least 1"):
        make()


@pytest.mark.parametrize("make", [
    lambda: corpus.random_references(corpus.demo_model(), 1.5),
    lambda: corpus.random_inputs(corpus.demo_model(), 2.5),
    lambda: corpus.zero_references(corpus.demo_model(), "3"),
    lambda: corpus.zero_references(corpus.demo_model(), True),
], ids=["random-refs-float", "inputs-float", "zero-refs-str", "zero-refs-bool"])
def test_a_batch_or_count_that_is_no_integer_is_refused(make):
    with pytest.raises(gl.ValidationError, match="must be an integer"):
        make()


@pytest.mark.parametrize("seed", ["x", 1.5, -1, True])
@pytest.mark.parametrize("make", [
    lambda seed: corpus.random_references(corpus.demo_model(), 2, seed=seed),
    lambda seed: corpus.random_inputs(corpus.demo_model(), 2, seed=seed),
    lambda seed: corpus.corpus_entry("plain_deep", seed=seed),
    lambda seed: corpus.build_corpus(seed=seed),
    lambda seed: corpus.micro_net("relu", seed=seed),
    lambda seed: corpus.demo_sample(seed),
], ids=["random-refs", "inputs", "entry", "corpus", "micro", "demo-sample"])
def test_a_seed_that_is_no_non_negative_integer_is_refused(make, seed):
    with pytest.raises(gl.ValidationError, match="seed must be a non-negative"):
        make(seed)


@pytest.mark.parametrize("scale", [-1, "a", float("nan"), float("inf"), True,
                                   pytest.param(10**400, id="int-past-float")])
@pytest.mark.parametrize("make", [
    lambda scale: corpus.random_references(corpus.demo_model(), 2, scale=scale),
    lambda scale: corpus.random_inputs(corpus.demo_model(), 2, scale=scale),
], ids=["random-refs", "inputs"])
def test_a_scale_that_is_no_finite_non_negative_real_is_refused(make, scale):
    with pytest.raises(gl.ValidationError, match="scale must be a finite real"):
        make(scale)


def test_a_zero_or_numpy_scale_is_a_scale():
    model = corpus.demo_model()
    assert not corpus.random_references(model, 2, scale=0).any()
    assert np.array_equal(corpus.random_inputs(model, 1, scale=np.float32(0.5))[0],
                          corpus.random_inputs(model, 1, scale=0.5)[0])


def test_a_micro_net_of_an_unsupported_dtype_is_refused():
    with pytest.raises(gl.ValidationError, match="unsupported dtype 'float16'"):
        corpus.micro_net("relu", dtype="float16")


def test_a_numpy_integer_seed_is_a_seed():
    model = corpus.demo_model()
    assert np.array_equal(corpus.random_inputs(model, 1, seed=np.int64(3))[0],
                          corpus.random_inputs(model, 1, seed=3)[0])


def test_micro_families_cover_all_grad_rules():
    assert len(corpus.MICRO_FAMILIES) == 12
    assert set(corpus.LINEAR_FAMILIES) <= set(corpus.MICRO_FAMILIES) | {
        "batchnorm"}
    for family in corpus.MICRO_FAMILIES:
        net = corpus.micro_net(family)
        assert net.model.inputs[0].dtype == "float64"
        result = gl.deeplift_oracle(net.model, net.sample, net.references)
        assert np.isfinite(result.phi.array).all(), family


def test_micro_net_determinism():
    a = corpus.micro_net("conv", seed=2)
    b = corpus.micro_net("conv", seed=2)
    assert gl.model_digest(a.model) == gl.model_digest(b.model)
    assert np.array_equal(a.sample, b.sample)


def test_random_helpers_shapes():
    model = corpus.demo_model()
    refs = corpus.random_references(model, 9, seed=1)
    assert refs.shape == (9, 32)
    xs = corpus.random_inputs(model, 3, seed=2)
    assert len(xs) == 3 and all(x.shape == (1, 32) for x in xs)
    assert not np.array_equal(xs[0], corpus.random_inputs(model, 3, seed=3)[0])
    zeros = corpus.zero_references(model, 4)
    assert zeros.shape == (4, 32) and not zeros.any()


def test_demo_model_is_tiny_and_sigmoidal():
    model = corpus.demo_model()
    ops = [n.op_type for n in model.nodes]
    assert ops == ["MatMul", "Sigmoid"]
    outs, _ = gl.execute(model, {"features": corpus.demo_sample()})
    y = outs[model.outputs[0].name]
    assert y.shape == (1, 1)
    assert 0.0 < float(y[0, 0]) < 1.0
