"""The exact guard's mask form and the BatchNormalization adjoint's fold.

``rules._exact_ratio`` divides by Δ + Cast(Equal(Δ, 0)); the tests here set
it against a copy of the form it replaced, Where(Greater(Abs(Δ), 0), Δ, 1),
bit for bit, on the inputs where the two could part: references equal to
the sample on some rows, ±0.0 Relu inputs, subnormal gaps and max-pool ties.
``rule_batchnorm`` hands its per-channel k to the adjoint of a Conv it alone
reads, which folds it into the filter; that is not bit-identical, and the
tests bound how far it moves φ.
"""

import numpy as np
import pytest

import graphlift as gl
from graphlift import GraphModel, Node, TensorValue, ValueSpec, rules
from graphlift.builder import GraphBuilder, RuleEnv
from graphlift.cli import cast_model
from graphlift.executor import execute
from graphlift.oracle import compare_attributions

SCHEMES = ["optimized", "naive"]
DTYPES = ["float32", "float64"]


def where_form(b, num, den, tag, local=None):
    """The exact guard as it was: num / Where(Greater(Abs(den), 0), den, 1),
    and ``local`` where den is ±0 when one is given."""
    moved = b.emit("Greater", [b.emit("Abs", [den], tag=f"{tag}_abs"),
                               b.const(0.0, "zero")], tag=f"{tag}_moved")
    safe = b.emit("Where", [moved, den, b.const(1.0, "one")], tag=f"{tag}_safe")
    ratio = b.emit("Div", [num, safe], tag=f"{tag}_ratio")
    return ratio if local is None else b.emit("Where", [moved, ratio, local],
                                              tag=f"{tag}_sel")


def outputs(model, refs, sample, scheme):
    """Every output of the compiled artifact (prediction, φ, multipliers)
    on ``sample``, and the artifact."""
    art = gl.compile_explainer(model, refs, scheme=scheme, expose_multipliers=True)
    outs, _ = execute(art.model, {art.model.inputs[0].name: sample})
    return [outs[spec.name] for spec in art.model.outputs], art


def assert_same_bits_as_the_where_form(model, refs, sample, scheme, monkeypatch):
    got, art = outputs(model, refs, sample, scheme)
    with monkeypatch.context() as patch:
        patch.setattr(rules, "_exact_ratio", where_form)
        want, old = outputs(model, refs, sample, scheme)
    # an Abs is left only in the epsilon guards of smooth activations
    assert gl.op_census(old.model)["Abs"] > gl.op_census(art.model)["Abs"]
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()
    return got


def relu_net(dtype, width=6):
    """x -> Relu -> MatMul -> Relu -> MatMul: the first Relu reads the
    input itself, so its Δ is the input gap as given."""
    rng = np.random.default_rng(5)
    inits = {"w1": TensorValue(rng.normal(size=(width, width)), dtype),
             "w2": TensorValue(rng.normal(size=(width, 3)), dtype)}
    nodes = [Node("Relu", "r1", ["x"], ["a1"]),
             Node("MatMul", "m1", ["a1", "w1"], ["z2"]),
             Node("Relu", "r2", ["z2"], ["a2"]),
             Node("MatMul", "head", ["a2", "w2"], ["y"])]
    return GraphModel("relus", [ValueSpec("x", dtype, (-1, width))],
                      [ValueSpec("y", dtype, (-1, 3))], inits, nodes)


def relu_inputs(dtype):
    """A sample with ±0.0, subnormals and ordinary values, and references
    that equal it on some rows, flip the sign of its zeros, or sit a
    subnormal gap away."""
    tiny = np.finfo(dtype).smallest_subnormal
    x = np.array([[0.0, -0.0, tiny, -3 * tiny, 1.5, -2.0]], dtype)
    refs = np.stack([
        x[0],                                   # Δ = 0 on every unit
        -x[0],                                  # ±0 flipped, the rest moved
        np.nextafter(x[0], np.inf),             # a subnormal gap at the zeros
        np.array([-0.0, 0.0, 0.0, 0.0, 1.5, -1.0]),
        x[0],                                   # a second equal row
    ]).astype(dtype)
    return x, refs


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("dtype", DTYPES)
def test_relu_guard_gives_the_where_forms_bits(dtype, scheme, monkeypatch):
    x, refs = relu_inputs(dtype)
    pred, phi, mult = assert_same_bits_as_the_where_form(
        relu_net(dtype), refs, x, scheme, monkeypatch)
    assert np.isfinite(phi).all() and np.isfinite(mult).all()


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("dtype", DTYPES)
def test_relu_guard_takes_the_local_slope_only_at_a_zero_gap(dtype, scheme):
    """At a ±0 gap the multiplier is the local slope, 1 above zero and +0
    at or below; at a subnormal gap it is the secant."""
    x, refs = relu_inputs(dtype)
    # a sum over the units hands each Relu the seed's 1 exactly
    net = GraphModel("relu", [ValueSpec("x", dtype, (-1, 6))],
                     [ValueSpec("y", dtype, (-1, 1))], {},
                     [Node("Relu", "r", ["x"], ["a"]),
                      Node("ReduceSum", "sum", ["a"], ["y"],
                           {"axes": [1], "keepdims": 1})])
    mult = outputs(net, refs, x, scheme)[0][2][:len(refs)]
    # rows 0 and 4 equal the sample: the local slope, +0 for ±0 inputs
    for row in (0, 4):
        assert mult[row].tobytes() == np.array([0, 0, 1, 0, 1, 0], dtype).tobytes()
    # the zeros flipped sign: Δ = ±0 again, and relu(±0) is +0 on both sides
    assert mult[1, :2].tobytes() == np.zeros(2, dtype).tobytes()
    # a subnormal gap takes the secant: (0 - tiny) / (±0 - tiny) = 1,
    # (tiny - 0) / tiny = 1, and (0 - 0) / (-3·tiny) = -0
    assert np.array_equal(mult[2, :2], [1, 1])
    assert mult[3, 2:4].tobytes() == np.array([1, -0.0], dtype).tobytes()


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("family", ["maxpool", "global_maxpool"])
def test_maxpool_guard_gives_the_where_forms_bits_on_ties(family, dtype, scheme,
                                                          monkeypatch):
    net = gl.micro_net(family, dtype=dtype)
    sample = net.sample.copy()
    # whole windows tied at one value, and a row of references equal to
    # the sample, another equal to it but for one tied cell
    sample[..., :2, :] = 0.5
    sample[..., 2:4, 2:4] = -0.0
    refs = np.concatenate([net.references, sample, sample])
    refs[-1, ..., 0, 0] = np.nextafter(refs[-1, ..., 0, 0], np.inf, dtype=dtype)
    refs[0, ..., 2:4, :] = 0.0
    pred, phi, mult = assert_same_bits_as_the_where_form(
        net.model, refs.astype(dtype), sample.astype(dtype), scheme, monkeypatch)
    assert np.isfinite(mult).all()


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("name", ["plain_deep", "dense_concat"])
def test_corpus_guards_give_the_where_forms_bits(name, dtype, scheme, monkeypatch):
    entry = gl.corpus_entry(name)
    model = cast_model(entry.model, dtype)
    sample = entry.sample.astype(dtype)
    # two rows equal to the sample: every gap there is ±0
    refs = np.concatenate([entry.references, sample, sample]).astype(dtype)
    assert_same_bits_as_the_where_form(model, refs, sample, scheme, monkeypatch)


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("family", ["relu", "maxpool", "global_maxpool"])
def test_no_exact_guard_emits_abs_or_where(family, scheme):
    """A net whose only guards are exact runs no Abs; a Where is left only
    in the max-pool routing, which ranks window cells."""
    net = gl.micro_net(family)
    art = gl.compile_explainer(net.model, net.references, scheme=scheme)
    ops = gl.op_census(art.model)
    assert ops["Abs"] == 0 and ops["Equal"] >= 1 and ops["Cast"] >= 1
    wheres = [n.name for n in art.model.nodes if n.op_type == "Where"]
    assert all("_score" in name or "_first" in name for name in wheres), wheres


# --- the BatchNormalization fold


def unfolded_batchnorm(ctx):
    """The BatchNormalization rule without the fold: the gradient times k."""
    b, data = ctx.builder, ctx.node.inputs[0]
    scale, var = b.known[ctx.node.inputs[1]], b.known[ctx.node.inputs[4]]
    k = (scale / np.sqrt(var + ctx.params)).reshape(
        (1, -1) + (1,) * (len(b.shape(data)) - 2))
    return {data: b.emit("Mul", [ctx.grad_in, b.const(k, "bnback")], tag="bngrad")}


def conv_bn_net(dtype, second_reader=False):
    """x -> Conv -> BatchNormalization -> Relu -> pooled head; with
    ``second_reader`` the head also adds the Conv output back in."""
    rng = np.random.default_rng(9)
    inits = {name: TensorValue(value, dtype) for name, value in {
        "w": rng.normal(size=(4, 2, 3, 3)), "scale": rng.uniform(0.5, 2.0, 4),
        "shift": rng.normal(size=4), "mean": rng.normal(size=4),
        "var": rng.uniform(0.5, 1.5, 4), "wh": rng.normal(size=(4, 3))}.items()}
    nodes = [Node("Conv", "conv", ["x", "w"], ["c"],
                  {"kernel_shape": [3, 3], "pads": [1, 1, 1, 1]}),
             Node("BatchNormalization", "bn", ["c", "scale", "shift", "mean", "var"],
                  ["n"]),
             Node("Relu", "act", ["n"], ["a"])]
    if second_reader:
        nodes.append(Node("Add", "back", ["a", "c"], ["s"]))
    nodes += [Node("GlobalAveragePool", "gap", ["s" if second_reader else "a"], ["g"]),
              Node("Flatten", "flat", ["g"], ["f"], {"axis": 1}),
              Node("MatMul", "head", ["f", "wh"], ["y"])]
    return GraphModel("convbn", [ValueSpec("x", dtype, (-1, 2, 5, 5))],
                      [ValueSpec("y", dtype, (-1, 3))], inits, nodes)


def filters(art):
    """The filters the artifact's ConvTransposes read."""
    return [n.inputs[1] for n in art.model.nodes if n.op_type == "ConvTranspose"]


def compiled_pair(model, refs, scheme, monkeypatch):
    """The artifact with the fold, and the one the unfolded rule makes."""
    art = gl.compile_explainer(model, refs, scheme=scheme)
    with monkeypatch.context() as patch:
        patch.setitem(rules.RULES, "BatchNormalization", unfolded_batchnorm)
        return art, gl.compile_explainer(model, refs, scheme=scheme)


def assert_within_tolerance(phi, unfolded, dtype):
    """1e-12 of the largest score in float64, criterion 2's test in float32."""
    if dtype == "float64":
        assert np.abs(phi - unfolded).max() <= 1e-12 * np.abs(unfolded).max()
    else:
        assert compare_attributions(phi, unfolded, atol=1e-8, rtol=1e-5).fraction >= 0.99


def fold_inputs(model, dtype):
    refs = gl.random_references(model, 6, seed=3).astype(dtype)
    return refs, gl.random_inputs(model, 1, seed=4)[0].astype(dtype)


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("dtype", DTYPES)
def test_the_batchnorm_adjoint_folds_into_its_conv_filter(dtype, scheme, monkeypatch):
    model = conv_bn_net(dtype)
    refs, sample = fold_inputs(model, dtype)
    art, old = compiled_pair(model, refs, scheme, monkeypatch)
    # the adjoint reads W ⊙ k, folded once and shipped in place of k
    weights = {name: tensor.array for name, tensor in model.initializers.items()}
    k = weights["scale"] / np.sqrt(weights["var"] + 1e-5)
    (name,) = filters(art)
    assert filters(old) == ["w"] and name != "w"
    assert art.model.initializers[name].array.tobytes() == \
        (weights["w"] * k.reshape(-1, 1, 1, 1)).tobytes()
    # one full-size Mul fewer per explain
    muls = [sum(step[0].op_type == "Mul" for step in a.plan.steps) for a in (art, old)]
    assert muls[0] == muls[1] - 1
    assert_within_tolerance(gl.explain(art, sample).phi.array,
                            gl.explain(old, sample).phi.array, dtype)


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("dtype", DTYPES)
def test_residual_add_folds_within_the_schemes_tolerance(dtype, scheme, monkeypatch):
    entry = gl.corpus_entry("residual_add")
    model = cast_model(entry.model, dtype)
    art, old = compiled_pair(model, entry.references.astype(dtype), scheme, monkeypatch)
    for sample in gl.random_inputs(model, 3, seed=8):
        assert_within_tolerance(gl.explain(art, sample.astype(dtype)).phi.array,
                                gl.explain(old, sample.astype(dtype)).phi.array, dtype)
    assert not any("bngrad" in node.name for node in art.model.nodes)
    assert any("bngrad" in node.name for node in old.model.nodes)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_a_conv_output_read_twice_keeps_the_batchnorm_mul(scheme, monkeypatch):
    model = conv_bn_net("float64", second_reader=True)
    refs, sample = fold_inputs(model, "float64")
    art, old = compiled_pair(model, refs, scheme, monkeypatch)
    assert filters(art) == filters(old) == ["w"]
    phi = gl.explain(art, sample).phi.array
    assert phi.tobytes() == gl.explain(old, sample).phi.array.tobytes()
    oracle = gl.deeplift_oracle(model, sample, refs).phi.array
    assert np.abs(phi - oracle).max() <= 1e-10 * np.abs(oracle).max()


def test_the_fold_needs_a_sole_reader_and_a_constant_filter():
    """``rule_batchnorm`` hands k on only for a Conv output it alone reads
    whose filter the builder knows; otherwise it emits its Mul."""
    conv = Node("Conv", "conv", ["x", "w"], ["c"], {"kernel_shape": [3, 3]})
    bn = Node("BatchNormalization", "bn", ["c", "s", "h", "m", "v"], ["n"])
    for sole, known, folds in [(True, True, True), (False, True, False),
                               (True, False, False)]:
        b = GraphBuilder()
        b.register_value("x", (1, 2, 5, 5))
        b.register_value("w", (4, 2, 3, 3), np.ones((4, 2, 3, 3)) if known else None)
        b.register_value("c", (1, 4, 3, 3))
        b.register_value("g", (1, 4, 3, 3))
        for name in ("s", "h", "m", "v"):
            b.register_value(name, (4,), np.full(4, 2.0))
        b.params["n"] = 1e-5
        env = RuleEnv(b, batch=2, joint=False)
        env.sole_sources = {"c": conv} if sole else {}
        grads = rules.rule_batchnorm(rules.RuleContext(node=bn, grad_in="g", env=env))
        assert ("c" in env.filter_scales) is folds
        assert (grads["c"] == "g") is folds
        assert len(b.nodes) == (0 if folds else 1)
        if folds:
            assert np.array_equal(env.filter_scales["c"], np.full(4, 2.0 / np.sqrt(2.0 + 1e-5)))
