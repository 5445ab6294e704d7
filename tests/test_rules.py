"""Per-operator multiplier semantics, checked through compiled artifacts."""

import numpy as np
import pytest

import graphlift as gl
from graphlift import (GraphModel, Node, TensorValue, UnsupportedOp, ValueSpec,
                       builder, executor, rules, shapes, validate_model)
from graphlift.executor import execute

F64 = "float64"


def build(name, input_shape, nodes, initializers, head, head_shape, dtype=F64):
    model = GraphModel(name, [ValueSpec("x", dtype, input_shape)],
                       [ValueSpec(head, dtype, head_shape)],
                       initializers, nodes)
    validate_model(model)
    return model


def graph_multipliers(model, x, refs, output_index=0, scheme="optimized"):
    dtype = np.dtype(model.inputs[0].dtype)
    art = gl.compile_explainer(model, np.asarray(refs, dtype),
                               output_index=output_index, scheme=scheme,
                               expose_multipliers=True)
    outs, _ = execute(art.model,
                      {art.model.inputs[0].name: np.asarray(x, dtype)})
    # the stacked scheme's stream also carries the reference half's rows
    return outs[art.model.outputs[2].name][:len(refs)]


def selector(rows, col):
    sel = np.zeros((rows, 1))
    sel[col, 0] = 1.0
    return TensorValue(sel, F64)


def test_sigmoid_fallback_is_quarter_at_zero_delta():
    model = build("sig", (-1, 1), [Node("Sigmoid", "s", ["x"], ["y"])],
                  {}, "y", (-1, 1))
    m = graph_multipliers(model, [[0.0]], np.zeros((1, 1)))
    assert m[0, 0] == 0.25


def test_sigmoid_secant_vs_fallback_eps_boundary():
    model = build("sig", (-1, 1), [Node("Sigmoid", "s", ["x"], ["y"])],
                  {}, "y", (-1, 1))

    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    # just above the threshold the secant ratio is used
    wide = 2e-6
    m = graph_multipliers(model, [[wide]], np.zeros((1, 1)))
    assert m[0, 0] == (sig(wide) - sig(0.0)) / wide
    # just below it the exact derivative takes over
    narrow = 5e-7
    m = graph_multipliers(model, [[narrow]], np.zeros((1, 1)))
    y = sig(narrow)
    assert m[0, 0] == y * (1.0 - y)


def _sig(v):
    return 1.0 / (1.0 + np.exp(-v))


# op -> (threshold, centre of the pair, f, the fallback at x); Relu has no
# threshold: it takes the secant at every nonzero gap
GUARDS = {
    "Sigmoid": (rules.EPS_ACT, 1.0, _sig, lambda x: _sig(x) * (1.0 - _sig(x))),
    "Tanh": (rules.EPS_ACT, 1.0, np.tanh, lambda x: 1.0 - np.tanh(x) ** 2),
}


@pytest.mark.parametrize("scheme", ["optimized", "naive"])
@pytest.mark.parametrize("share", [0.8, 1.2])
@pytest.mark.parametrize("op", sorted(GUARDS))
def test_each_guard_switches_at_its_constant(op, share, scheme):
    # x and the reference sit share * threshold apart around the centre;
    # below the rules' constant the fallback holds, above it the secant
    eps, centre, f, fallback = GUARDS[op]
    model = build("guard", (-1, 1), [Node(op, "n", ["x"], ["y"])],
                  {}, "y", (-1, 1))
    h = share * eps / 2
    x, r = np.full((1, 1), centre + h), np.full((1, 1), centre - h)
    got = graph_multipliers(model, x, r, scheme=scheme).ravel()[0]
    dx = float((x - r).ravel()[0])
    secant = float((f(x) - f(r)).ravel()[0]) / dx
    want = float(fallback(x).ravel()[0]) if abs(dx) < eps else secant
    assert (abs(dx) < eps) == (share < 1)
    # the fallback and the secant lie further apart than the tolerance
    assert abs(float(fallback(x).ravel()[0]) - secant) > 1e-8
    assert got == pytest.approx(want, rel=1e-9, abs=1e-12)
    _, oracle = gl.deeplift_oracle(model, x, r, return_multipliers=True)
    assert oracle.ravel()[0] == pytest.approx(want, rel=1e-9, abs=1e-12)


# the gaps a Relu pair sits apart: float64's 1e-300 and float32's subnormal
# 2**-140, both far below EPS_ACT
RELU_GAPS = {"float64": 1e-300, "float32": 2.0 ** -140}


@pytest.mark.parametrize("scheme", ["optimized", "naive"])
@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_relu_takes_the_secant_at_every_nonzero_gap(dtype, scheme):
    # one column per pair: straddling the kink, both active, both inactive,
    # then three equal pairs, where the local slope holds: at 0 (inactive),
    # above it and below it
    g = RELU_GAPS[dtype]
    x = np.array([[g / 2, 2 * g, -g, 0.0, g, -g]], dtype)
    r = np.array([[-g / 2, g, -2 * g, 0.0, g, -g]], dtype)
    want = [0.5, 1.0, 0.0, 0.0, 1.0, 0.0]
    assert np.all(x[0, :3] - r[0, :3] == np.array([g, g, g], dtype))
    model = build("relu", (-1, 6), [Node("Relu", "r", ["x"], ["y"])],
                  {}, "y", (-1, 6), dtype=dtype)
    for k in range(6):
        got = graph_multipliers(model, x, r, output_index=k, scheme=scheme)
        _, oracle = gl.deeplift_oracle(model, x, r, output_index=k,
                                       return_multipliers=True)
        for m in (got, oracle):
            assert m[0, k] == want[k], (k, m)
            assert np.count_nonzero(m) == (want[k] != 0.0), (k, m)


def pool_head_net(op, dtype):
    """One 2x2 plane max-pooled to a single cell, which is the output."""
    attrs = {"kernel_shape": [2, 2], "strides": [2, 2]} if op == "MaxPool" else {}
    nodes = [Node(op, "p", ["x"], ["pool"], attrs),
             Node("Reshape", "r", ["pool"], ["y"], {"shape": [-1, 1]})]
    return build("band", (-1, 1, 2, 2), nodes, {}, "y", (-1, 1), dtype=dtype)


@pytest.mark.parametrize("scheme", ["optimized", "naive"])
@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("op", ["MaxPool", "GlobalMaxPool"])
def test_maxpool_takes_the_secant_at_every_nonzero_gap(op, dtype, scheme):
    # the first cell wins on both sides, a tiny gap apart around 0; the other
    # cells do not move.  However small the gap, the secant at the winner is
    # 1, and 0 elsewhere
    model = pool_head_net(op, dtype)
    gaps = [0.8e-7, 1e-30] if dtype == "float64" else [0.8e-7]
    for gap in gaps:
        x = np.array([[[[gap / 2, -1.0], [-2.0, -3.0]]]], dtype)
        r = np.array([[[[-gap / 2, -1.0], [-2.0, -3.0]]]], dtype)
        want = np.zeros((1, 1, 2, 2))
        want[0, 0, 0, 0] = 1.0
        assert float(x[0, 0, 0, 0] - r[0, 0, 0, 0]) == pytest.approx(gap)
        got = graph_multipliers(model, x, r, scheme=scheme)
        assert np.array_equal(got, want), (gap, got)
        _, oracle = gl.deeplift_oracle(model, x, r, return_multipliers=True)
        assert np.array_equal(oracle, want), (gap, oracle)


# the references' gap from the sample, from 1e-7 down to float32's smallest
# normal numbers
TINY_GAPS = [1e-7, 1e-10, 1e-15, 1e-20, 1e-30, 1e-38]


@pytest.mark.parametrize("scheme", ["optimized", "naive"])
@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("family", ["maxpool", "global_maxpool"])
def test_maxpool_multipliers_stay_finite_at_tiny_gaps(family, dtype, scheme):
    # references within gap of the sample, both around the micro net's
    # sample and around a copy scaled down to the gap itself, so that the
    # gaps stay nonzero in float32 too; the routed share never exceeds the
    # gap it is divided by, so nothing overflows and the oracle agrees
    net = gl.micro_net(family, dtype=dtype)
    tol = {"rtol": 0.0, "atol": 1e-12} if dtype == "float64" else \
        {"rtol": 1e-5, "atol": 1e-8}
    rng = np.random.default_rng(29)
    moved = 0
    for gap in TINY_GAPS:
        for scale in (1.0, gap):
            x = (net.sample * scale).astype(dtype)
            refs = x + gap * rng.uniform(-1.0, 1.0, size=(4, *x.shape[1:]))
            refs = refs.astype(dtype)
            moved += int(np.count_nonzero(x - refs))
            for k in range(2):
                got = graph_multipliers(net.model, x, refs, output_index=k,
                                        scheme=scheme)
                _, want = gl.deeplift_oracle(net.model, x, refs, output_index=k,
                                             return_multipliers=True)
                assert np.isfinite(got).all(), (gap, scale, k)
                assert np.allclose(got, want, **tol), (gap, scale, k)
    assert moved


@pytest.mark.parametrize("scheme", ["optimized", "naive"])
@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("family", ["maxpool", "global_maxpool"])
def test_maxpool_multipliers_vanish_where_every_reference_is_the_sample(
        family, dtype, scheme):
    net = gl.micro_net(family, dtype=dtype)
    x = net.sample.astype(dtype)
    refs = np.repeat(x, 3, axis=0)
    for k in range(2):
        got = graph_multipliers(net.model, x, refs, output_index=k,
                                scheme=scheme)
        assert got.shape == refs.shape and np.all(got == 0.0), k


def test_relu_secant_and_dead_zero():
    model = build("relu", (-1, 2), [Node("Relu", "r", ["x"], ["y"])],
                  {}, "y", (-1, 2))
    m = graph_multipliers(model, [[1.0, 0.0]], np.array([[-1.0, 0.0]]),
                          output_index=0)
    # secant over the kink: (1-0)/(1-(-1)) = 0.5
    assert m[0, 0] == 0.5
    m = graph_multipliers(model, [[1.0, 0.0]], np.array([[-1.0, 0.0]]),
                          output_index=1)
    # zero delta at an inactive unit falls back to the one-sided slope 0
    assert m[0, 1] == 0.0


def test_maxpool_hand_example_routes_to_first_max():
    nodes = [Node("GlobalMaxPool", "p", ["x"], ["pool"]),
             Node("Reshape", "r", ["pool"], ["y"], {"shape": [-1, 1]})]
    model = build("mx", (-1, 1, 1, 2), nodes, {}, "y", (-1, 1))
    x = np.array([[[[3.0, 1.0]]]])
    refs = np.array([[[[0.0, 2.0]]]])
    m = graph_multipliers(model, x, refs)
    assert np.allclose(m.ravel(), [1.0 / 3.0, 0.0], atol=1e-15)


def test_maxpool_tie_parity_with_oracle():
    nodes = [Node("MaxPool", "p", ["x"], ["pool"],
                  {"kernel_shape": [2, 2], "strides": [2, 2],
                   "pads": [0, 0, 0, 0]}),
             Node("Reshape", "r", ["pool"], ["y"], {"shape": [-1, 4]})]
    model = build("tie", (-1, 1, 4, 4), nodes, {}, "y", (-1, 4))
    # exact ties inside every window force the first-of-max choice
    x = np.array([[[[2.0, 2.0, 1.0, 2.0],
                    [2.0, 2.0, 2.0, 2.0],
                    [0.0, 1.0, 3.0, 3.0],
                    [1.0, 0.0, 3.0, 3.0]]]])
    refs = np.tile(x, (3, 1, 1, 1)) * np.array([0.0, 0.5, -1.0]).reshape(3, 1, 1, 1)
    for k in range(4):
        got = graph_multipliers(model, x, refs, output_index=k)
        _, want = gl.deeplift_oracle(model, x, refs, output_index=k,
                                     return_multipliers=True)
        assert np.allclose(got, want, atol=1e-15), k


def global_max_net(dtype, channels, height, width):
    nodes = [Node("GlobalMaxPool", "p", ["x"], ["pool"]),
             Node("Reshape", "r", ["pool"], ["y"], {"shape": [-1, channels]})]
    return build("gmx", (-1, channels, height, width), nodes, {}, "y",
                 (-1, channels), dtype=dtype)


# channel 0: every position equal; channel 1: the maximum 5 sits on three
# rows; channel 2: a single maximum at the last position
GLOBAL_TIE_X = np.array([[
    [[2.0, 2.0, 2.0, 2.0], [2.0, 2.0, 2.0, 2.0], [2.0, 2.0, 2.0, 2.0]],
    [[1.0, 0.0, 3.0, 5.0], [5.0, 1.0, 0.0, 2.0], [4.0, 5.0, 1.0, 0.0]],
    [[0.0, 1.0, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0], [2.0, 3.0, 4.0, 6.0]],
]])
# four references: all-equal channels, ties across rows on the reference
# side, maxima that coincide with the sample's and strictly larger ones
GLOBAL_TIE_REFS = np.array([
    [[[1.0, 1.0, 1.0, 1.0], [1.0, 1.0, 1.0, 1.0], [1.0, 1.0, 1.0, 1.0]],
     [[0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]],
     [[3.0, 0.0, 3.0, 0.0], [0.0, 3.0, 0.0, 3.0], [3.0, 0.0, 0.0, 0.0]]],
    [[[0.0, 4.0, 0.0, 0.0], [4.0, 0.0, 0.0, 4.0], [0.0, 0.0, 0.0, 0.0]],
     [[2.0, 2.0, 2.0, 2.0], [2.0, 2.0, 2.0, 2.0], [2.0, 2.0, 2.0, 2.0]],
     [[0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 7.0, 7.0]]],
    [[[2.0, 2.0, 2.0, 2.0], [2.0, 2.0, 2.0, 2.0], [2.0, 2.0, 2.0, 2.0]],
     [[1.0, 0.0, 3.0, 5.0], [5.0, 1.0, 0.0, 2.0], [4.0, 5.0, 1.0, 0.0]],
     [[6.0, 1.0, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0], [2.0, 3.0, 4.0, 6.0]]],
    [[[-1.0, -3.0, -1.0, -2.0], [-3.0, -1.0, -2.0, -1.0], [-2.0, -2.0, -2.0, -2.0]],
     [[9.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 9.0], [0.0, 9.0, 0.0, 0.0]],
     [[1.0, 1.0, 1.0, 1.0], [1.0, 1.0, 1.0, 1.0], [1.0, 1.0, 1.0, 1.0]]],
])


@pytest.mark.parametrize("scheme", ["optimized", "naive"])
@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_global_maxpool_tie_parity_with_oracle(dtype, scheme):
    model = global_max_net(dtype, 3, 3, 4)
    for k in range(3):
        got = graph_multipliers(model, GLOBAL_TIE_X, GLOBAL_TIE_REFS,
                                output_index=k, scheme=scheme)
        _, want = gl.deeplift_oracle(model, GLOBAL_TIE_X.astype(dtype),
                                     GLOBAL_TIE_REFS.astype(dtype),
                                     output_index=k, return_multipliers=True)
        assert got.shape == want.shape == (4, 3, 3, 4)
        assert np.allclose(got, want, rtol=0, atol=1e-15), (k, got - want)
        # only the explained channel carries multipliers
        others = [c for c in range(3) if c != k]
        assert np.all(got[:, others] == 0.0)


def test_global_maxpool_routes_ties_to_first_row_major_maximum():
    # x wins with 5 at (0,3), (1,0) and (2,1); the reference's 1s tie
    # everywhere, so each side must route to its own first position only
    model = global_max_net(F64, 1, 3, 4)
    x = GLOBAL_TIE_X[:, 1:2]
    refs = np.ones((3, 1, 3, 4))
    got = graph_multipliers(model, x, refs)
    assert got.shape == (3, 1, 3, 4)
    want = np.zeros((3, 1, 3, 4))
    # the x side routes max(5, 1) - 1 = 4 to (0,3) and divides by x - r = 4;
    # the reference side routes 5 - max(5, 1) = 0 to (0,0)
    want[:, 0, 0, 3] = 4.0 / 4.0
    assert np.array_equal(got, want)


def test_global_maxpool_window_too_wide_for_float32_ranks():
    from graphlift.builder import GraphBuilder, RuleEnv
    from graphlift.rules import RuleContext, _route_to_argmax

    b = GraphBuilder(dtype="float32")
    b.register_value("x", (1, 1, 4097, 4097))
    b.register_value("pool", (1, 1, 1, 1))
    b.register_value("m", (1, 1, 1, 1))
    ctx = RuleContext(node=Node("GlobalMaxPool", "gmp", ["x"], ["pool"]),
                      grad_in="m", env=RuleEnv(b, 1, False))
    with pytest.raises(UnsupportedOp, match="'gmp'"):
        _route_to_argmax(ctx, "x", "pool", "m", "mpx")


def test_maxpool_zero_delta_coordinates_get_zero():
    nodes = [Node("GlobalMaxPool", "p", ["x"], ["pool"]),
             Node("Reshape", "r", ["pool"], ["y"], {"shape": [-1, 1]})]
    model = build("mz", (-1, 1, 1, 2), nodes, {}, "y", (-1, 1))
    x = np.array([[[[3.0, 1.0]]]])
    refs = np.array([[[[3.0, 1.0]]]])  # x == r everywhere
    m = graph_multipliers(model, x, refs)
    assert np.all(m == 0.0)


def test_mul_symmetric_split_hand_example():
    nodes = [Node("MatMul", "a", ["x", "sa"], ["va"]),
             Node("MatMul", "b", ["x", "sb"], ["vb"]),
             Node("Mul", "m", ["va", "vb"], ["y"])]
    inits = {"sa": selector(2, 0), "sb": selector(2, 1)}
    model = build("mul", (-1, 2), nodes, inits, "y", (-1, 1))
    art = gl.compile_explainer(model, np.array([[1.0, 0.0]]))
    res = gl.explain(art, [[3.0, 2.0]])
    assert np.allclose(res.phi.array.ravel(), [2.0, 4.0], atol=1e-15)
    assert res.phi.array.sum() == 6.0  # equals the output delta exactly
    assert res.residual == 0.0


def test_mul_duplicate_operand_is_exact_square_rule():
    # f(x) = x*x: merged slot gradients give phi = x^2 - r^2 exactly
    nodes = [Node("Mul", "sq", ["x", "x"], ["y"])]
    model = build("square", (-1, 1), nodes, {}, "y", (-1, 1))
    x, r = 1.7, 0.4
    art = gl.compile_explainer(model, np.array([[r]]))
    res = gl.explain(art, [[x]])
    assert res.phi.array[0, 0] == x * x - r * r


def test_avgpool_padded_divisors_match_oracle():
    nodes = [Node("AveragePool", "p", ["x"], ["pool"],
                  {"kernel_shape": [3, 3], "strides": [2, 2],
                   "pads": [1, 1, 1, 1], "count_include_pad": 0}),
             Node("Flatten", "f", ["pool"], ["flat"], {"axis": 1}),
             Node("MatMul", "h", ["flat", "w"], ["y"])]
    rng = np.random.default_rng(3)
    inits = {"w": TensorValue(rng.normal(size=(18, 2)), F64)}
    model = build("avg", (-1, 2, 5, 5), nodes, inits, "y", (-1, 2))
    x = rng.normal(size=(1, 2, 5, 5))
    refs = rng.normal(size=(4, 2, 5, 5))
    got = graph_multipliers(model, x, refs, output_index=1)
    _, want = gl.deeplift_oracle(model, x, refs, output_index=1,
                                 return_multipliers=True)
    assert np.allclose(got, want, atol=1e-15)


def test_softmax_multipliers_recover_exact_jacobian_at_equal_refs():
    nodes = [Node("Softmax", "s", ["x"], ["y"], {"axis": -1})]
    model = build("soft", (-1, 3), nodes, {}, "y", (-1, 3))
    x = np.array([[0.3, -0.2, 0.9]])
    got = graph_multipliers(model, x, x.copy(), output_index=1)
    y = np.exp(x) / np.exp(x).sum()
    want = y[0, 1] * (np.eye(3)[1] - y[0])  # softmax jacobian row
    assert np.allclose(got.ravel(), want, atol=1e-15)


def test_batchnorm_factor_bakes_to_exact_one():
    # the factor itself folds away; the gradient it scaled is baked unscaled
    net = gl.micro_net("batchnorm")
    art = gl.compile_explainer(net.model, net.references)
    baked = [v.array for k, v in art.model.initializers.items()
             if "bngrad" in k]
    head = net.model.initializers["w"].array[:, 0].reshape(1, 3, 2, 2)
    assert baked and all(np.array_equal(arr, np.broadcast_to(head, arr.shape))
                         for arr in baked)


def test_concat_routes_segments_back_to_branches():
    net = gl.micro_net("concat")
    got = graph_multipliers(net.model, net.sample, net.references,
                            output_index=1)
    _, want = gl.deeplift_oracle(net.model, net.sample, net.references,
                                 output_index=1, return_multipliers=True)
    assert np.allclose(got, want, atol=1e-15)


def reject(name, input_shape, nodes, inits, head, head_shape,
           refs=None, errors=UnsupportedOp):
    model = build(name, input_shape, nodes, inits, head, head_shape)
    if refs is None:
        refs = np.zeros((2,) + tuple(input_shape[1:]))
    with pytest.raises(errors):
        gl.compile_explainer(model, np.asarray(refs, np.float64))


def test_division_by_differentiable_value_rejected():
    reject("div", (-1, 2),
           [Node("Div", "d", ["x", "x"], ["y"])], {}, "y", (-1, 2),
           refs=np.ones((2, 2)))


def test_gemm_transposed_data_rejected():
    # transposing the batch axis can never be compiled; the Gemm law
    # refuses transA whatever the surrounding shapes
    w = TensorValue(np.zeros((2, 2)), F64)
    reject("ta", (-1, 2),
           [Node("Gemm", "g", ["x", "w"], ["y"], {"transA": 1})],
           {"w": w}, "y", (-1, 2))


def test_matmul_differentiable_weight_rejected():
    nodes = [Node("Transpose", "t", ["x"], ["xt"], {"perm": [1, 0]}),
             Node("MatMul", "m", ["x", "xt"], ["y"])]
    reject("xx", (1, 2), nodes, {}, "y", (1, 1), refs=np.ones((1, 2)))


# case -> (input shape, axes a ReduceSum of the input sums into the operand
# "dep", the shape "dep" is broadcast to, the node reading "dep" after its
# operand 0, the width of its flattened output).  Summing over the batch axis
# keeps the operand's shape the same under both schemes.
OPERAND_0_CASES = {
    "matmul-weight": ((-1, 4), [0], (4, 4),
                      Node("MatMul", "use", ["x", "dep"], ["h"]), 4),
    "gemm-bias": ((-1, 4), [0], (4,),
                  Node("Gemm", "use", ["x", "w", "dep"], ["h"]), 4),
    "conv-filters": ((-1, 1, 4, 4), [0], (1, 1, 4, 4),
                     Node("Conv", "use", ["x", "dep"], ["h"],
                          {"kernel_shape": [4, 4]}), 1),
    "conv-bias": ((-1, 1, 4, 4), [0, 2, 3], (1,),
                  Node("Conv", "use", ["x", "k", "dep"], ["h"],
                       {"kernel_shape": [2, 2]}), 9),
    "div-denominator": ((-1, 4), [0], (4,),
                        Node("Div", "use", ["x", "dep"], ["h"]), 4),
    "batchnorm-scale": ((-1, 4), [0], (4,),
                        Node("BatchNormalization", "use",
                             ["x", "dep", "zero", "zero", "one"], ["h"]), 4),
}


def test_operand_0_cases_cover_every_operand_0_op():
    assert ({case[3].op_type for case in OPERAND_0_CASES.values()}
            == rules._OPERAND_0_ONLY)


@pytest.mark.parametrize("scheme", ["optimized", "naive"])
@pytest.mark.parametrize("case", OPERAND_0_CASES)
def test_only_operand_0_may_depend_on_the_input(case, scheme):
    in_shape, axes, dep_shape, use, width = OPERAND_0_CASES[case]
    inits = {name: TensorValue(value, F64) for name, value in (
        ("ones", np.ones(dep_shape)), ("w", np.ones((4, 4))),
        ("k", np.ones((1, 1, 2, 2))), ("zero", np.zeros(4)), ("one", np.ones(4)))}
    nodes = [Node("ReduceSum", "r", ["x"], ["s"], {"axes": axes, "keepdims": 0}),
             Node("Mul", "spread", ["s", "ones"], ["dep"]), use,
             Node("Flatten", "f", ["h"], ["y"])]
    model = build(case, in_shape, nodes, inits, "y", (-1, width))
    # the consuming node refuses, before the sweep reaches the ReduceSum
    with pytest.raises(UnsupportedOp, match="'use'.*operand 'dep'"):
        gl.compile_explainer(model, np.ones((2,) + in_shape[1:]), scheme=scheme)


@pytest.mark.parametrize("scheme", ["optimized", "naive"])
def test_matmul_over_rank_3_data_matches_the_oracle(scheme):
    rng = np.random.default_rng(7)
    inits = {"w": TensorValue(rng.normal(size=(6, 5)), F64),
             "head": TensorValue(rng.normal(size=(20, 3)), F64)}
    nodes = [Node("MatMul", "mm", ["x", "w"], ["h"]),
             Node("Tanh", "act", ["h"], ["t"]),
             Node("Reshape", "flat", ["t"], ["f"], {"shape": [-1, 20]}),
             Node("MatMul", "out", ["f", "head"], ["y"])]
    model = build("rank3", (-1, 4, 6), nodes, inits, "y", (-1, 3))
    refs, sample = rng.normal(size=(3, 4, 6)), rng.normal(size=(1, 4, 6))
    art = gl.compile_explainer(model, refs, scheme=scheme)
    got = gl.explain(art, sample).phi.array
    want = gl.deeplift_oracle(model, sample, refs).phi.array
    assert got.shape == want.shape == (1, 4, 6)
    assert np.abs(got - want).max() <= 1e-10


def match_oracle_under_both_schemes(model, refs, sample):
    """Both schemes' phi within 1e-10 of the oracle's and of each other;
    returns the two artifacts."""
    want = gl.deeplift_oracle(model, sample, refs).phi.array
    arts, phis = [], []
    for scheme in ("optimized", "naive"):
        arts.append(gl.compile_explainer(model, refs, scheme=scheme))
        phis.append(gl.explain(arts[-1], sample).phi.array)
        assert phis[-1].shape == want.shape
        assert np.abs(phis[-1] - want).max() <= 1e-10
    assert np.abs(phis[0] - phis[1]).max() <= 1e-10
    return arts


@pytest.mark.parametrize("op", ["ReduceSum", "ReduceMean"])
@pytest.mark.parametrize("axes", [[1], [2]])
def test_reduction_that_drops_its_axes_matches_the_oracle(op, axes):
    rng = np.random.default_rng(11)
    kept = 4 if axes == [1] else 3
    nodes = [Node("Tanh", "act", ["x"], ["h"]),
             Node(op, "red", ["h"], ["r"], {"axes": axes, "keepdims": 0}),
             Node("MatMul", "out", ["r", "head"], ["y"])]
    model = build("reddrop", (-1, 3, 4), nodes,
                  {"head": TensorValue(rng.normal(size=(kept, 2)), F64)},
                  "y", (-1, 2))
    match_oracle_under_both_schemes(model, rng.normal(size=(4, 3, 4)),
                                    rng.normal(size=(1, 3, 4)))


def test_gemm_with_untransposed_weight_and_a_scale_matches_the_oracle():
    rng = np.random.default_rng(12)
    inits = {"w": TensorValue(rng.normal(size=(4, 3)), F64),
             "c": TensorValue(rng.normal(size=(3,)), F64),
             "head": TensorValue(rng.normal(size=(3, 2)), F64)}
    nodes = [Node("Gemm", "fc", ["x", "w", "c"], ["h"],
                  {"transB": 0, "alpha": 0.75, "beta": 1.0}),
             Node("Relu", "act", ["h"], ["a"]),
             Node("MatMul", "out", ["a", "head"], ["y"])]
    model = build("gemm", (-1, 4), nodes, inits, "y", (-1, 2))
    match_oracle_under_both_schemes(model, rng.normal(size=(4, 4)),
                                    rng.normal(size=(1, 4)))


def test_a_folded_mask_a_runtime_mul_reads_ships_as_a_float_initializer():
    # the constant-only Greater folds to a bool mask; the Mul that reads it
    # runs on the sample, so the mask ships as a 0/1 initializer in the
    # artifact's dtype
    rng = np.random.default_rng(13)
    inits = {"gate": TensorValue(np.array([[0.5, -0.5, 2.0, -1.0]]), F64),
             "zero": TensorValue(np.zeros((1, 4)), F64),
             "head": TensorValue(rng.normal(size=(4, 2)), F64)}
    nodes = [Node("Greater", "open", ["gate", "zero"], ["mask"]),
             Node("Tanh", "act", ["x"], ["h"]),
             Node("Mul", "gated", ["h", "mask"], ["g"]),
             Node("MatMul", "out", ["g", "head"], ["y"])]
    model = build("mask", (-1, 4), nodes, inits, "y", (-1, 2))
    for art in match_oracle_under_both_schemes(
            model, rng.normal(size=(4, 4)), rng.normal(size=(1, 4))):
        gated = next(n for n in art.model.nodes if n.name == "gated")
        mask = art.model.initializers[gated.inputs[1]]
        assert mask.dtype == F64 and mask.array.dtype == np.float64
        assert mask.array.tolist() == [[1.0, 0.0, 1.0, 0.0]]


def test_softmax_on_non_last_axis_rejected():
    reject("ax", (-1, 2),
           [Node("Softmax", "s", ["x"], ["y"], {"axis": 0})],
           {}, "y", (-1, 2))


def test_reduction_over_batch_axis_rejected():
    reject("red", (-1, 2),
           [Node("ReduceSum", "r", ["x"], ["s"], {"axes": [0], "keepdims": 1}),
            Node("Add", "a", ["x", "s"], ["y"])],
           {}, "y", (-1, 2))


@pytest.mark.parametrize("scheme", ["optimized", "naive"])
def test_reduction_without_axes_is_over_the_batch_axis_too(scheme):
    # no axes means every axis, so the rule refuses the batch axis by name
    # from the axes the node's law resolves
    model = build("redall", (-1, 2),
                  [Node("Relu", "act", ["x"], ["h"]),
                   Node("ReduceSum", "r", ["h"], ["y"], {"keepdims": 1})],
                  {}, "y", (-1, 1))
    with pytest.raises(UnsupportedOp, match="'r'.*batch axis"):
        gl.compile_explainer(model, np.zeros((2, 2)), scheme=scheme)


def test_concat_on_batch_axis_rejected():
    reject("cat", (-1, 2),
           [Node("Concat", "c", ["x", "x"], ["wide"], {"axis": 0}),
            Node("ReduceSum", "r", ["wide"], ["y"], {"axes": [1], "keepdims": 1})],
           {}, "y", (-1, 1))


def test_tile_on_differentiable_path_rejected():
    w = TensorValue(np.zeros((1, 4)), F64)
    reject("tile", (-1, 2),
           [Node("Tile", "t", ["x"], ["wide"], {"repeats": [1, 2]}),
            Node("Add", "a", ["wide", "w"], ["y"])],
           {"w": w}, "y", (-1, 4))


def test_split_on_differentiable_path_rejected():
    reject("split", (-1, 4),
           [Node("Split", "s", ["x"], ["lo", "hi"], {"axis": 1, "split": [2, 2]}),
            Node("Add", "a", ["lo", "hi"], ["y"])],
           {}, "y", (-1, 2))


@pytest.mark.parametrize("op, attrs, extra, in_shape, head_shape", [
    ("Abs", {}, {}, (-1, 2), (-1, 2)),
    ("Cast", {"to": 11}, {}, (-1, 2), (-1, 2)),
    ("Pad", {"pads": [0, 1, 0, 1]}, {}, (-1, 2), (-1, 4)),
    ("ConvTranspose", {"kernel_shape": [1, 2]},
     {"w": TensorValue(np.ones((1, 2, 1, 2)), F64)}, (-1, 1, 1, 1), None),
])
def test_backward_plumbing_ops_have_no_multiplier_rule(op, attrs, extra,
                                                       in_shape, head_shape):
    inputs = ["x", *extra]
    nodes = [Node(op, "n", inputs, ["y" if head_shape else "h"], attrs)]
    if head_shape is None:
        nodes.append(Node("Flatten", "f", ["h"], ["y"], {"axis": 1}))
        head_shape = (-1, 4)
    model = build(op, in_shape, nodes, extra, "y", head_shape)
    for scheme in ("optimized", "naive"):
        with pytest.raises(UnsupportedOp, match="no gradient rule"):
            gl.compile_explainer(model, np.zeros((2,) + in_shape[1:]),
                                 scheme=scheme)


def overlapping_pool_net(dtype, kernel=(3, 3), strides=(2, 2), pads=(1, 1, 1, 1)):
    # by default 3x3 windows at stride 2 over a padded 5x5 plane overlap on
    # rows and columns 1 and 3, so one input position can win several windows
    nodes = [Node("MaxPool", "p", ["x"], ["pool"],
                  {"kernel_shape": list(kernel), "strides": list(strides),
                   "pads": list(pads)}),
             Node("Flatten", "f", ["pool"], ["flat"], {"axis": 1}),
             Node("MatMul", "h", ["flat", "w"], ["y"])]
    out_h, out_w = [(5 + pads[a] + pads[a + 2] - kernel[a]) // strides[a] + 1
                    for a in range(2)]
    w = np.random.default_rng(11).normal(size=(2 * out_h * out_w, 3))
    return build("overlap", (-1, 2, 5, 5), nodes, {"w": TensorValue(w, dtype)},
                 "y", (-1, 3), dtype=dtype)


# (kernel, strides, pads) of the overlapping pools: the square default, and
# 3x2 windows at strides (2, 1) with asymmetric pads, whose windows overlap
# on row 1 and on every inner column
OVERLAP_GEOMETRIES = [((3, 3), (2, 2), (1, 1, 1, 1)),
                      ((3, 2), (2, 1), (1, 0, 0, 1))]


# channel 0: the maximum 5 ties at (1,1) and (1,3); (1,1) comes first in
# windows (0,0), (0,1), (1,0) and (1,1), (1,3) in (0,2) and (1,2); every other
# value is negative, so a padding that could tie would win the border windows
OVERLAP_X = -1.0 - np.arange(50.0).reshape(1, 2, 5, 5) / 50.0
OVERLAP_X[0, 0, 1, 1] = OVERLAP_X[0, 0, 1, 3] = 5.0
OVERLAP_X[0, 1, 3, 3] = OVERLAP_X[0, 1, 3, 1] = OVERLAP_X[0, 1, 2, 2] = 2.0
OVERLAP_REFS = np.stack([np.full((2, 5, 5), -3.0),
                         OVERLAP_X[0] * 0.5,
                         np.where(OVERLAP_X[0] > 0, 5.0, -2.0)])


@pytest.mark.parametrize("scheme", ["optimized", "naive"])
@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_overlapping_padded_maxpool_tie_parity_with_oracle(dtype, scheme):
    tol = 1e-12 if dtype == "float64" else 1e-5
    for geometry in OVERLAP_GEOMETRIES:
        model = overlapping_pool_net(dtype, *geometry)
        for k in range(3):
            got = graph_multipliers(model, OVERLAP_X, OVERLAP_REFS,
                                    output_index=k, scheme=scheme)
            _, want = gl.deeplift_oracle(model, OVERLAP_X.astype(dtype),
                                         OVERLAP_REFS.astype(dtype),
                                         output_index=k, return_multipliers=True)
            assert got.shape == want.shape == (3, 2, 5, 5)
            assert np.allclose(got, want, rtol=0, atol=tol), (geometry, k, got - want)


@pytest.mark.parametrize("scheme", ["optimized", "naive"])
def test_maxpool_routing_size_does_not_depend_on_the_window(scheme):
    # the windows are gathered by one Conv and ranked by one MaxPool, so a
    # wider window adds no node
    counts = {len(gl.compile_explainer(overlapping_pool_net(F64, kernel),
                                       OVERLAP_REFS, scheme=scheme).model.nodes)
              for kernel in ((2, 2), (3, 3), (3, 2))}
    assert len(counts) == 1, counts


def test_overlapping_maxpool_sums_the_routes_of_every_window_won():
    # all-(-3) references: the x side wins every window, so the multiplier at
    # a position is the sum of the head weights of the windows it wins first
    model = overlapping_pool_net(F64)
    refs = OVERLAP_REFS[:1]
    got = graph_multipliers(model, OVERLAP_X, refs, output_index=0)
    w = model.initializers["w"].array[:, 0].reshape(2, 3, 3)
    gap = OVERLAP_X[0, 0, 1, 1] + 3.0
    want_11 = (w[0, 0, 0] + w[0, 0, 1] + w[0, 1, 0] + w[0, 1, 1]) * gap / gap
    assert np.isclose(got[0, 0, 1, 1], want_11, rtol=0, atol=1e-14)
    assert np.isclose(got[0, 0, 1, 3], w[0, 0, 2] + w[0, 1, 2], rtol=0,
                      atol=1e-14)


def pool(op, name, data, out, kernel=(2, 2), strides=(2, 2), pads=(0, 0, 0, 0)):
    attrs = {} if op == "GlobalMaxPool" else {
        "kernel_shape": list(kernel), "strides": list(strides), "pads": list(pads)}
    return Node(op, name, [data], [out], attrs)


CONV = Node("Conv", "conv", ["x", "k"], ["z"],
            {"kernel_shape": [3, 3], "pads": [1, 1, 1, 1]})
RELU = Node("Relu", "relu", ["z"], ["a"])
FLAT = Node("Flatten", "flat", ["p"], ["f"], {"axis": 1})

# case -> (the nodes up to the flattened features "f", their width); the
# input is (-1, 2, 6, 6), the convolution has 3 output channels, and a
# MatMul maps "f" to 3 classes
CONTRIBUTION_CASES = {
    "conv-relu-maxpool-2x2": ([CONV, RELU, pool("MaxPool", "mp", "a", "p"), FLAT],
                              27),
    "conv-relu-maxpool-3x3-pad": ([CONV, RELU, pool("MaxPool", "mp", "a", "p", (3, 3),
                                                    (2, 2), (1, 1, 1, 1)), FLAT], 27),
    "conv-relu-globalmaxpool": ([CONV, RELU, pool("GlobalMaxPool", "mp", "a", "p"),
                                 FLAT], 3),
    "conv-relu-relu-maxpool": ([CONV, RELU, Node("Relu", "relu2", ["a"], ["a2"]),
                                pool("MaxPool", "mp", "a2", "p"), FLAT], 27),
    # the Relu's output also feeds an average pool: its flows are mixed
    "relu-feeds-two": ([CONV, RELU, pool("MaxPool", "mp", "a", "pm"),
                        Node("Flatten", "flatm", ["pm"], ["fm"], {"axis": 1}),
                        Node("GlobalAveragePool", "gap", ["a"], ["pa"]),
                        Node("Flatten", "flata", ["pa"], ["fa"], {"axis": 1}),
                        Node("Concat", "join", ["fm", "fa"], ["f"], {"axis": 1})],
                       30),
    "maxpool-on-input": ([pool("MaxPool", "mp", "x", "p", (3, 3), (2, 2),
                               (1, 1, 1, 1)), FLAT], 18),
    # an elementwise scale keeps each reference pixel that equals the
    # sample's equal, bit for bit, at the Relu's input
    "scale-relu-maxpool": ([Node("Mul", "scale", ["x", "s"], ["z"]), RELU,
                            pool("MaxPool", "mp", "a", "p"), FLAT], 18),
}


def contribution_net(case):
    nodes, width = CONTRIBUTION_CASES[case]
    rng = np.random.default_rng(sorted(CONTRIBUTION_CASES).index(case))
    inits = {"k": TensorValue(rng.normal(0.0, 0.4, size=(3, 2, 3, 3)), F64),
             "s": TensorValue(np.array([1.5, -0.7]).reshape(1, 2, 1, 1), F64),
             "w": TensorValue(rng.normal(size=(width, 3)), F64)}
    used = {i for node in nodes for i in node.inputs}
    inits = {name: t for name, t in inits.items() if name in used or name == "w"}
    head = Node("MatMul", "head", ["f", "w"], ["y"])
    model = build(case, (-1, 2, 6, 6), [*nodes, head], inits, "y", (-1, 3))
    x = rng.normal(size=(1, 2, 6, 6))
    refs = rng.normal(size=(4, 2, 6, 6))
    # one reference equals the sample on a block, and one everywhere
    refs[1, :, 1:5, 0:4] = x[0, :, 1:5, 0:4]
    refs[2] = x[0]
    return model, x, refs


def relu_rule_nodes(model):
    return [node.name for node in model.nodes if "_n_relu" in node.name]


@pytest.mark.parametrize("scheme", ["optimized", "naive"])
@pytest.mark.parametrize("case", sorted(CONTRIBUTION_CASES))
def test_contributions_match_the_oracle(case, scheme):
    # a max pool hands on contributions, a Relu under it passes them on, and
    # the first other node divides them once: phi and the multipliers are
    # the oracle's, which takes every node's multiplier on its own
    model, x, refs = contribution_net(case)
    art = gl.compile_explainer(model, refs, scheme=scheme,
                               expose_multipliers=True)
    phi = gl.explain(art, x).phi.array
    want = gl.deeplift_oracle(model, x, refs).phi.array
    assert np.abs(phi - want).max() <= 1e-10
    for k in range(3):
        got = graph_multipliers(model, x, refs, output_index=k, scheme=scheme)
        _, want = gl.deeplift_oracle(model, x, refs, output_index=k,
                                     return_multipliers=True)
        assert got.shape == want.shape == refs.shape
        assert np.abs(got - want).max() <= 1e-10, k
    # only a Relu whose flows are mixed runs its rule
    assert bool(relu_rule_nodes(art.model)) == (case == "relu-feeds-two"), \
        relu_rule_nodes(art.model)


@pytest.mark.parametrize("scheme", ["optimized", "naive"])
def test_contributions_through_equal_relu_inputs_are_zero(scheme):
    # where a reference equals the sample, Δ = 0 exactly at the Relu's input
    # and every contribution that lands there is ±0: the division by 1
    # keeps it, the explain raises no NumericError, and the oracle agrees
    model, x, refs = contribution_net("scale-relu-maxpool")
    _, x_trace = execute(model, {"x": x}, capture=True)
    _, r_trace = execute(model, {"x": refs}, capture=True)
    equal = x_trace["z"] == r_trace["z"]
    assert equal[1, :, 1:5, 0:4].all() and equal[2].all()
    for k in range(3):
        got = graph_multipliers(model, x, refs, output_index=k, scheme=scheme)
        assert np.all(got[2] == 0.0) and np.all(got[1, :, 1:5, 0:4] == 0.0), k


@pytest.mark.parametrize("scheme", ["optimized", "naive"])
def test_a_compile_calls_the_law_once_per_added_node(scheme, corpus_f32,
                                                     monkeypatch):
    """Rules read the parameters the builder kept: each GraphBuilder.add
    calls the shape law once, on its node, and nothing else in a compile
    calls it."""
    assert not hasattr(rules, "resolve_node")
    law = shapes.resolve_node
    added, resolved = [], []

    def counted(node, in_shapes):
        resolved.append(node)
        return law(node, in_shapes)

    for module in (shapes, builder, executor):
        monkeypatch.setattr(module, "resolve_node", counted)
    add = builder.GraphBuilder.add

    def recorded(self, node):
        added.append(node)
        return add(self, node)

    monkeypatch.setattr(builder.GraphBuilder, "add", recorded)
    for entry in corpus_f32:
        added.clear()
        resolved.clear()
        gl.compile_explainer(entry.model, entry.references, scheme=scheme)
        assert added
        assert len(resolved) == len(added)
        assert all(a is b for a, b in zip(resolved, added))
