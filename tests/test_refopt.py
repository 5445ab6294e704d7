"""Reference baking, both compile schemes, and the analytic cost model."""

import json
import re
import tracemalloc
import warnings

import numpy as np
import pytest

import graphlift as gl
from graphlift import refopt
from graphlift.builder import GraphBuilder
from graphlift.cli import cast_model
from graphlift.corpus import demo_model, random_references
from graphlift.executor import execute
from graphlift.ir import DTYPES, dumps_model
from graphlift.refopt import (build_naive, build_optimized, count_flops, op_census,
                             row_passes)

B = 5


@pytest.fixture(scope="module")
def demo():
    model = demo_model()
    refs = random_references(model, B, seed=3)
    return model, refs


@pytest.mark.parametrize("build", [build_optimized, build_naive])
def test_source_digest_tracks_reference_content(demo, build):
    model, refs = demo
    a = build(model, refs)[1]["source_digest"]
    assert a == build(model, refs.copy())[1]["source_digest"]
    assert a != build(model, refs + 1e-9)[1]["source_digest"]


def test_optimized_bakes_references_as_initializers(demo):
    # the folder's reference side against the executor's, value by value
    model, refs = demo
    _, trace = execute(model, {model.inputs[0].name: refs}, capture=True)
    art, meta = build_optimized(model, refs)
    entries = meta["cache_entries"]
    assert model.inputs[0].name in entries, "the input reference is consumed"
    declared = 0
    for name in entries:
        captured = trace[name]
        baked = [tv for iname, tv in art.initializers.items()
                 if "ref_" in iname and tv.array.shape == captured.shape
                 and np.array_equal(tv.array, captured)]
        assert baked, f"no initializer carries the reference activations of {name}"
        declared += baked[0].array.nbytes
    assert meta["cache_bytes"] == declared


@pytest.mark.parametrize("build", [build_optimized, build_naive])
@pytest.mark.parametrize("rows", [(B, 3), (B, 2, 2), (B,)],
                         ids=["row-width", "rank-3", "rank-1"])
def test_reference_rows_of_the_wrong_shape_are_named(demo, build, rows):
    model, _ = demo
    with pytest.raises(gl.ShapeError, match="the reference set has shape"):
        build(model, np.zeros(rows))


METADATA_KEYS = {"scheme", "output_index", "batch", "forward_nodes",
                 "ref_output_mean", "cache_entries", "cache_bytes",
                 "source_digest"}


@pytest.mark.parametrize("expose", [False, True])
def test_metadata_contract(demo, forward_rows, expose):
    model, refs = demo
    art, meta = build_optimized(model, refs, expose_multipliers=expose)
    assert set(meta) == METADATA_KEYS
    assert meta["scheme"] == "optimized"
    assert meta["batch"] == B
    node_names = {n.name for n in art.nodes}
    assert set(meta["forward_nodes"]) <= node_names
    # the graph states the interface: one input, then the prediction, phi
    # and the exposed multipliers as outputs in that order
    assert [s.name for s in art.inputs] == [model.inputs[0].name]
    assert art.outputs[0].name == model.outputs[0].name
    assert [s.shape for s in art.outputs] == \
        [(1, 1), (1, 32)] + ([(B, 32)] if expose else [])
    # single target row, references folded away at compile time
    assert forward_rows(model, art, meta) == {1}


def test_naive_metadata_runs_both_streams(demo, forward_rows):
    model, refs = demo
    art, meta = build_naive(model, refs)
    assert set(meta) == METADATA_KEYS
    assert meta["scheme"] == "naive"
    assert forward_rows(model, art, meta) == {2 * B}
    assert meta["cache_entries"] == []
    assert meta["cache_bytes"] == 0


def test_census_demo_shape(demo):
    model, refs = demo
    opt_model, _ = build_optimized(model, refs)
    naive_model, _ = build_naive(model, refs)
    opt, naive = op_census(opt_model), op_census(naive_model)
    assert opt["Tile"] == 0
    assert naive["Tile"] >= 1
    assert naive["Split"] - opt["Split"] >= 2
    assert naive["Concat"] > opt["Concat"]
    # census counts every node exactly once
    assert sum(opt.values()) == len(opt_model.nodes)


def test_flop_breakdown_sums(demo):
    model, refs = demo
    art, meta = build_optimized(model, refs)
    report = count_flops(art, batch=1, forward_nodes=meta["forward_nodes"],
                         cache_bytes=meta["cache_bytes"])
    assert report.total == sum(f for _, _, f in report.by_node)
    assert report.total == sum(report.by_op.values())
    assert report.total == report.forward_flops + report.backward_flops
    assert report.forward_flops > 0 and report.backward_flops > 0


def test_flop_gap_grows_with_reference_batch(demo):
    model, _ = demo
    gaps = []
    for b in (1, 2, 5, 16):
        refs = random_references(model, b, seed=3)
        opt, om = build_optimized(model, refs)
        nai, nm = build_naive(model, refs)
        fo = count_flops(opt, batch=1, forward_nodes=om["forward_nodes"]).total
        fn = count_flops(nai, batch=1, forward_nodes=nm["forward_nodes"]).total
        assert fo < fn
        gaps.append(fn - fo)
    assert gaps == sorted(gaps)


def test_demo_peak_memory_inequality(demo):
    """Optimized forward working set stays under naive/(2B) plus the cache."""
    model, refs = demo
    opt, om = build_optimized(model, refs)
    nai, nm = build_naive(model, refs)
    ro = count_flops(opt, batch=1, forward_nodes=om["forward_nodes"],
                     cache_bytes=om["cache_bytes"])
    rn = count_flops(nai, batch=1, forward_nodes=nm["forward_nodes"])
    assert ro.forward_peak_bytes <= rn.forward_peak_bytes / (2 * B) \
        + ro.cache_bytes
    # frozen demo figures guard against silent cost-model drift
    assert ro.forward_peak_bytes == 264
    assert rn.forward_peak_bytes == 3840
    assert ro.cache_bytes == 1320


def test_count_flops_scales_with_batch(demo):
    model, _ = demo
    small = count_flops(model, batch=1).total
    big = count_flops(model, batch=8).total
    assert big == 8 * small


@pytest.mark.parametrize("name", ["demo", "plain_deep", "residual_add",
                                  "dense_concat", "scaled_add_mul"])
def test_count_flops_prices_a_source_model_per_image(name):
    # a free batch counts as one row, so no extent is ever negative
    model = demo_model() if name == "demo" else gl.corpus_entry(name).model
    total = count_flops(model).total
    assert total > 0
    assert total == count_flops(model, batch=1).total


@pytest.mark.parametrize("batch", [0, -3, 2.0, True])
def test_count_flops_refuses_a_batch_that_is_not_a_positive_integer(demo, batch):
    model, _ = demo
    with pytest.raises(gl.ValidationError, match="batch"):
        count_flops(model, batch=batch)


def test_cache_bytes_passthrough(demo):
    model, _ = demo
    report = count_flops(model, batch=1, cache_bytes=999)
    assert report.cache_bytes == 999
    assert report.as_dict()["cache_bytes"] == 999


@pytest.mark.parametrize("build", [build_optimized, build_naive])
def test_two_compiles_save_identical_bytes(demo, build):
    model, refs = demo
    assert dumps_model(*build(model, refs)) == dumps_model(*build(model, refs))


@pytest.mark.parametrize("scheme", ["optimized", "naive"])
def test_compile_peak_memory_stays_small(scheme):
    # first-maximum routing once folded a 1x(H*W) running-sum Conv over
    # every lane, which peaked near 270 MB on this compile
    entry = gl.corpus_entry("dense_concat", seed=0, batch=64)
    model = cast_model(entry.model, "float64")
    refs = entry.references.astype(np.float64)
    tracemalloc.start()
    try:
        gl.compile_explainer(model, refs, scheme=scheme)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20, f"compile peaked at {peak / 2**20:.1f} MB"


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("scheme", ["optimized", "naive"])
def test_no_conv_spans_a_flattened_pooling_window(artifacts, corpus_f32,
                                                  dtype, scheme):
    checked = 0
    for entry in corpus_f32:
        shapes = gl.infer_graph_shapes(entry.model)
        windows = {int(np.prod(shapes[n.inputs[0]][2:]))
                   for n in entry.model.nodes if n.op_type == "GlobalMaxPool"}
        art = artifacts(entry.name, dtype, scheme)
        for node in art.model.nodes:
            if node.op_type == "Conv":
                taps = int(np.prod(node.attributes["kernel_shape"]))
                assert taps not in windows, (entry.name, node.name)
        checked += len(windows)
    assert checked, "the corpus must hold a GlobalMaxPool"


# (optimized, naive) node count of every corpus artifact
CORPUS_NODE_COUNTS = {"plain_deep": (92, 105), "residual_add": (38, 50),
                      "dense_concat": (54, 65), "scaled_add_mul": (39, 49)}


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_corpus_node_counts(artifacts, corpus_f32, dtype):
    assert {e.name for e in corpus_f32} == set(CORPUS_NODE_COUNTS)
    for name, counts in CORPUS_NODE_COUNTS.items():
        got = tuple(len(artifacts(name, dtype, scheme).model.nodes)
                    for scheme in ("optimized", "naive"))
        assert got == counts, name


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("scheme", ["optimized", "naive"])
def test_no_relu_under_a_max_pool_emits_a_node(artifacts, dtype, scheme):
    # the pool's contributions pass through the Relu, and are divided once,
    # at the convolution's output
    for name in ("plain_deep", "dense_concat"):
        model = artifacts(name, dtype, scheme).model
        assert not [n.name for n in model.nodes if "_n_relu" in n.name], name
        assert len([n for n in model.nodes if "_n_mp_ratio" in n.name]) == 1, name


def test_plain_deep_carries_no_emulation_chains(artifacts):
    census = op_census(artifacts("plain_deep", "float32", "optimized").model)
    assert census["Split"] == 0
    assert census["Concat"] <= 2


def _every_artifact(artifacts, corpus_f32, dtype, scheme):
    """The corpus artifacts and every micro net's, in one dtype and scheme."""
    arts = [artifacts(e.name, dtype, scheme) for e in corpus_f32]
    for family in gl.MICRO_FAMILIES:
        net = gl.micro_net(family, dtype=dtype)
        arts.append(gl.compile_explainer(net.model, net.references,
                                         scheme=scheme))
    return arts


# the reference forward pass's weight layers: one that reads a model weight
# ships as a payload, whatever its inputs
WEIGHT_LAYERS = {"Conv", "MatMul", "Gemm", "BatchNormalization"}


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("scheme", ["optimized", "naive"])
def test_no_weight_layer_reading_a_model_weight_ships_as_a_node(
        corpus_f32, dtype, scheme):
    # one folder: a node whose inputs are all known at build time is folded,
    # forward or backward; a constant folded from shipped constants ships as
    # its node, which the plan runs once, whatever its arity, unless it is
    # a weight layer of the reference forward pass
    for name, source, refs in _sources(corpus_f32, dtype):
        model = gl.compile_explainer(source, refs, scheme=scheme).model
        constants = set(model.initializers)
        for node in model.nodes:
            assert node.op_type != "Constant", (name, node.name)
            if constants.issuperset(node.inputs):
                assert node.inputs, (name, node.name)
                assert node.op_type not in WEIGHT_LAYERS \
                    or source.initializers.keys().isdisjoint(node.inputs), \
                    (name, node.name)
                constants.update(node.outputs)


@pytest.mark.parametrize("scheme", ["optimized", "naive"])
def test_constant_forward_chain_ships_as_one_initializer(artifacts, scheme):
    art = artifacts("scaled_add_mul", "float32", scheme)
    names = {n.name for n in art.model.nodes}
    assert not any(name.startswith("gate_") for name in names)
    assert not any(name.startswith("gate_")
                   for name in art.metadata["forward_nodes"])
    assert art.model.initializers["gate_lo"].shape == (1, 32)
    assert "gate_hi" not in art.model.initializers


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("scheme", ["optimized", "naive"])
def test_no_artifact_carries_an_unread_initializer(artifacts, corpus_f32,
                                                   dtype, scheme):
    for art in _every_artifact(artifacts, corpus_f32, dtype, scheme):
        model = art.model
        read = {i for n in model.nodes for i in n.inputs}
        read.update(spec.name for spec in model.outputs)
        assert set(model.initializers) <= read, model.name
        # cache_bytes counts exactly the baked reference entries that ship
        baked = [t.nbytes for name, t in model.initializers.items()
                 if re.search(r"/\d+_ref_", name)]
        assert art.metadata["cache_bytes"] == sum(baked)
        assert len(art.metadata["cache_entries"]) == len(baked)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("scheme", ["optimized", "naive"])
def test_no_artifact_builds_an_op_twice(artifacts, corpus_f32, dtype, scheme):
    # value numbering: a pure op with the same inputs and attributes is
    # emitted once, however many rules ask for it
    for art in _every_artifact(artifacts, corpus_f32, dtype, scheme):
        seen = {}
        for node in art.model.nodes:
            key = (node.op_type, tuple(node.inputs),
                   json.dumps(node.attributes, sort_keys=True))
            assert key not in seen, (art.model.name, node.name, seen.get(key))
            seen[key] = node.name


def test_const_names_an_equal_constant_once():
    # const numbers constants by shape and bytes, as emit numbers ops
    b = GraphBuilder(dtype="float64")
    first = b.const(np.arange(6.0).reshape(2, 3), "a")
    assert b.const(np.arange(6.0).reshape(2, 3), "b") == first
    assert b.const(1.0, "one") == b.const(np.float64(1.0), "unit")
    assert b.const(np.zeros((2, 3)), "z") != b.const(np.zeros((3, 2)), "z")
    assert b.const(0.0, "zero") != b.const(-0.0, "negzero")
    assert b.const(np.float32(0.5), "half") == b.const(0.5, "half")
    assert b.known[first].dtype == np.float64


def _everything(dtype):
    """(model, references) of every corpus net and the demo net over random
    references, and of every micro net over its own."""
    models = [cast_model(e.model, dtype) for e in gl.build_corpus()]
    models.append(cast_model(demo_model(), dtype))
    nets = [(m, random_references(m, 5, seed=5)) for m in models]
    nets += [(net.model, net.references) for net in
             (gl.micro_net(family, dtype=dtype) for family in gl.MICRO_FAMILIES)]
    return nets


def _compile_everything(dtype, scheme, zero=False):
    """Every net of ``_everything`` compiled, over zero rows of its
    references' shape when ``zero`` is set."""
    return [gl.compile_explainer(model, np.zeros_like(refs) if zero else refs,
                                 scheme=scheme)
            for model, refs in _everything(dtype)]


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("scheme", ["optimized", "naive"])
def test_no_rule_emits_a_constant_node(monkeypatch, dtype, scheme):
    # a rule's constant is a known value made by const, never a Constant op
    emitted = []
    real = GraphBuilder.emit

    def spy(self, op_type, *args, **kwargs):
        emitted.append(op_type)
        return real(self, op_type, *args, **kwargs)

    monkeypatch.setattr(GraphBuilder, "emit", spy)
    _compile_everything(dtype, scheme)
    assert emitted and "Constant" not in emitted


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("scheme", ["optimized", "naive"])
def test_no_artifact_ships_a_payload_twice(dtype, scheme):
    # equal rule constants share one name, so one payload; two folded
    # reference copies that coincide over degenerate references, such as
    # zero rows, ship once too
    for art in _compile_everything(dtype, scheme, zero=False) \
            + _compile_everything(dtype, scheme, zero=True):
        seen = {}
        for name, tensor in art.model.initializers.items():
            key = (tensor.shape, tensor.to_bytes())
            assert key not in seen, (art.model.name, name, seen.get(key))
            seen[key] = name


def test_schemes_agree_on_nodes_declared_out_of_order():
    # dependency order is a rule of the IR: both schemes refuse a model that
    # breaks it, with the same error naming the node and the value
    w = gl.TensorValue(np.array([[0.6, -0.4], [0.3, 0.9]]), "float64")
    model = gl.GraphModel(
        "shuffled", [gl.ValueSpec("x", "float64", (-1, 2))],
        [gl.ValueSpec("y", "float64", (-1, 2))], {"w": w},
        [gl.Node("Tanh", "act", ["h"], ["y"]),
         gl.Node("MatMul", "mix", ["x", "w"], ["h"])])
    refs = np.array([[0.1, -0.2], [0.5, 0.3], [-0.4, 0.0]])
    errors = {}
    for scheme in ("optimized", "naive"):
        with pytest.raises(gl.ValidationError) as err:
            gl.compile_explainer(model, refs, scheme=scheme)
        errors[scheme] = str(err.value)
    assert errors["optimized"] == errors["naive"]
    assert errors["naive"].startswith("node 'act' reads 'h'")


def test_a_folded_non_finite_value_names_its_node():
    # exp of a baked float32 reference row of 100s overflows while the rule
    # folds; the fold raises for that node instead of warning and shipping inf
    net = gl.micro_net("softmax")
    model = cast_model(net.model, "float32")
    refs = np.full(net.references.shape, 100.0, np.float32)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(gl.NumericError, match=r"Exp node '\w+' folded"):
            gl.compile_explainer(model, refs)


@pytest.mark.parametrize("batch", [1, 4])
@pytest.mark.parametrize("scheme", ["optimized", "naive"])
def test_a_reshape_that_fixes_the_row_count_is_refused(scheme, batch):
    # the reference side runs the Reshape over B rows and the naive layout
    # over 2B, so a target that pins one row fits neither; both schemes
    # refuse it at every B, B=1 included
    rng = np.random.default_rng(0)
    model = gl.GraphModel(
        "pinned", [gl.ValueSpec("x", "float64", (-1, 2, 4))],
        [gl.ValueSpec("y", "float64", (-1, 3))],
        {"w": gl.TensorValue(rng.normal(size=(8, 3)))},
        [gl.Node("Relu", "act", ["x"], ["h"]),
         gl.Node("Reshape", "flat", ["h"], ["f"], {"shape": [1, 8]}),
         gl.Node("MatMul", "head", ["f", "w"], ["y"])])
    refs = rng.normal(size=(batch, 2, 4))
    with pytest.raises(gl.UnsupportedOp, match="'flat'.*leading extent"):
        gl.compile_explainer(model, refs, scheme=scheme)
    # the same net with the row count left free compiles under both schemes
    model.nodes[1].attributes["shape"] = [-1, 8]
    art = gl.compile_explainer(model, refs, scheme=scheme)
    assert gl.explain(art, rng.normal(size=(1, 2, 4))).phi.array.shape == (1, 2, 4)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_optimized_ships_no_initializer_of_identical_reference_rows(
        corpus_f32, dtype):
    """The optimized backward pass is seeded with one row, so nothing folded
    from the seed ships as B copies of one row."""
    for entry in corpus_f32:
        model = cast_model(entry.model, dtype)
        refs = random_references(model, B, seed=7)
        model, _ = build_optimized(model, refs)
        for name, tensor in model.initializers.items():
            rows = tensor.array
            assert not (rows.ndim and rows.shape[0] == B
                        and (rows == rows[:1]).all()), (entry.name, name)


def test_a_linear_net_exposes_one_row_of_multipliers():
    """No rule of a linear net mixes in the reference rows, so its
    multipliers keep the seed's one row, which holds for every reference;
    a nonlinear net's multipliers have one row per reference."""
    for family, rows in (("matmul_gemm", 1), ("relu", B)):
        net = gl.micro_net(family, batch=B)
        art = gl.compile_explainer(net.model, net.references,
                                   expose_multipliers=True)
        outs, _ = execute(art.model, {art.model.inputs[0].name: net.sample})
        got = outs[art.model.outputs[2].name]
        _, want = gl.deeplift_oracle(net.model, net.sample, net.references,
                                     return_multipliers=True)
        assert got.shape == (rows,) + want.shape[1:]
        assert np.abs(got - want).max() <= 1e-12


# -- reference constants that ship as the nodes the plan runs once ----------


def _with_builder(model, refs, scheme, monkeypatch):
    """(artifact, metadata, builder) of one compile."""
    kept = []
    finish = refopt._finish

    def keep(model, builder, *rest):
        kept.append(builder)
        return finish(model, builder, *rest)

    monkeypatch.setattr(refopt, "_finish", keep)
    build = build_optimized if scheme == "optimized" else build_naive
    artifact, meta = build(model, refs)
    return artifact, meta, kept[0]


def _sources(corpus_f32, dtype):
    """(name, model, references) of every corpus and micro net in ``dtype``."""
    nets = [(e.name, cast_model(e.model, dtype), e.references.astype(dtype))
            for e in corpus_f32]
    for family in gl.MICRO_FAMILIES:
        net = gl.micro_net(family, dtype=dtype)
        nets.append((family, net.model, net.references))
    return nets


def _constant_nodes(plan, model):
    steps = {node.name for node, *_ in plan.steps}
    return [node for node in model.nodes if node.name not in steps]


def _read_by_a_step(plan, model):
    """The values some step of ``plan`` reads or some output names."""
    return {i for node, *_ in plan.steps for i in node.inputs} \
        | {spec.name for spec in model.outputs}


def _as_payloads(model, plan):
    """``model`` laid out with every constant a step reads as a payload, a
    folded boolean as 0/1 floats, the way artifacts were saved before
    constants shipped as nodes."""
    dtype = DTYPES[model.inputs[0].dtype]
    constants = _constant_nodes(plan, model)
    read = _read_by_a_step(plan, model)
    initializers = {name: t for name, t in model.initializers.items()
                    if name in read}
    for node in constants:
        for out in set(node.outputs) & read:
            arr = plan.template[plan.slots[out]]
            initializers[out] = gl.TensorValue(
                arr.astype(dtype) if arr.dtype == bool else np.array(arr))
    return gl.GraphModel(model.name, model.inputs, model.outputs, initializers,
                         [n for n in model.nodes if n not in constants])


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("scheme", ["optimized", "naive"])
def test_a_constant_node_rebuilds_the_folded_array_bit_for_bit(
        corpus_f32, dtype, scheme, monkeypatch, tmp_path):
    derived = 0
    for name, model, refs in _sources(corpus_f32, dtype):
        artifact, meta, builder = _with_builder(model, refs, scheme,
                                                monkeypatch)
        path = str(tmp_path / f"{name}.sgm")
        gl.save_artifact(gl.ExplainerArtifact(artifact, meta), path)
        for graph in (artifact, gl.load_artifact(path).model):
            plan = gl.ExecutionPlan(graph)
            read = _read_by_a_step(plan, graph)
            for node in _constant_nodes(plan, graph):
                for out in node.outputs:
                    got, want = plan.template[plan.slots[out]], builder.known[out]
                    if out not in read:
                        # the plan keeps no constant that no step reads
                        assert got is None, (name, out)
                        continue
                    assert got.dtype == want.dtype and got.shape == want.shape
                    assert got.tobytes() == want.tobytes(), (name, out)
                    assert not got.flags.writeable
                    derived += 1
    assert derived


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_a_fold_chain_ships_from_the_payload_at_its_foot(artifacts, dtype):
    # plain_deep reads the reference pool1 copy at run time, but nothing
    # reads the act1 copy it pools: both ship as the nodes that rebuild
    # them from the conv1 copy, which ships as a payload
    art = artifacts("plain_deep", dtype)
    constants = _constant_nodes(art.plan, art.model)[:2]
    assert [node.op_type for node in constants] == ["Relu", "MaxPool"]
    assert constants[0].inputs[0] in art.model.initializers
    assert constants[1].inputs == constants[0].outputs
    assert not set(constants[0].outputs) & set(art.model.initializers)


# per-explain steps, scanned values and full-size passes (``row_passes``)
# of every optimized corpus artifact.  residual_add scans one value fewer:
# its Relu guard's quotient is read by a Mul, not by a Where branch, a
# breaker, and the guard's denominator, an Add of a mask, needs no scan.
# Its 22 passes are one fewer for the BatchNormalization fold and one more
# for the guard's Mul by the mask
CORPUS_STEPS = {"plain_deep": (75, 20, 45), "residual_add": (36, 13, 22),
                "dense_concat": (46, 13, 27), "scaled_add_mul": (36, 9, 21)}


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_corpus_steps_and_scans(artifacts, dtype):
    for name, (steps, scans, passes) in CORPUS_STEPS.items():
        art = artifacts(name, dtype)
        plan = gl.ExecutionPlan(art.model)
        assert (len(plan.steps), sum(map(len, plan.scans)),
                row_passes(art.model, art.metadata["batch"])[0]) == \
            (steps, scans, passes), name


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("scheme", ["optimized", "naive"])
def test_an_artifact_laid_out_with_payloads_explains_to_the_same_bytes(
        artifacts, corpus_f32, dtype, scheme, tmp_path):
    for entry in corpus_f32:
        art = artifacts(entry.name, dtype, scheme)
        old = gl.ExplainerArtifact(_as_payloads(art.model, art.plan),
                                   art.metadata)
        assert len(old.model.nodes) == len(art.plan.steps)
        # count_flops prices the steps an explain runs, the same in both
        forward = art.metadata["forward_nodes"]
        assert count_flops(art.model, forward_nodes=forward).as_dict() == \
            count_flops(old.model, forward_nodes=forward).as_dict()
        paths = [str(tmp_path / f"{entry.name}-{k}.sgm") for k in ("new", "old")]
        for artifact, path in zip((art, old), paths):
            gl.save_artifact(artifact, path)
        new, old = (gl.load_artifact(path) for path in paths)
        for x in gl.random_inputs(art.model, 3, seed=11):
            a, b = gl.explain(new, x), gl.explain(old, x)
            assert a.phi.array.tobytes() == b.phi.array.tobytes()
            assert a.prediction.array.tobytes() == b.prediction.array.tobytes()


def test_column_major_references_fold_to_the_bits_their_payload_gives(
        monkeypatch):
    # a pooled reference row summed in column-major order differs in its
    # last bits from the same rows summed row-major, as the payload is
    rng = np.random.default_rng(4)
    model = gl.GraphModel(
        "pooled", [gl.ValueSpec("x", "float32", (-1, 3, 8, 8))],
        [gl.ValueSpec("y", "float32", (-1, 2))],
        {"w": gl.TensorValue(rng.normal(size=(3, 2)).astype(np.float32))},
        [gl.Node("GlobalAveragePool", "gap", ["x"], ["g"]),
         gl.Node("Relu", "act", ["g"], ["a"]),
         gl.Node("Flatten", "flat", ["a"], ["f"]),
         gl.Node("MatMul", "head", ["f", "w"], ["y"])])
    refs = np.asfortranarray(rng.normal(size=(16, 3, 8, 8)).astype(np.float32))
    artifact, _, builder = _with_builder(model, refs, "optimized", monkeypatch)
    plan = gl.ExecutionPlan(artifact)
    constants = _constant_nodes(plan, artifact)
    assert [node.op_type for node in constants] == ["GlobalAveragePool", "Relu"]
    for node in constants:
        out = node.outputs[0]
        assert plan.template[plan.slots[out]].tobytes() == \
            builder.known[out].tobytes()


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("scheme", ["optimized", "naive"])
def test_no_payload_is_one_a_constant_node_could_rebuild(dtype, scheme,
                                                          monkeypatch):
    # a payload folded from a node ships as a payload only when that node
    # is a weight layer reading a model weight, or reads something the plan
    # would not hold unchanged when it is built: a value that does not
    # ship, or a folded boolean, which ships as 0/1 floats.  The folds are
    # recorded here, not read from the builder's own record of them
    folded, add = {}, GraphBuilder.add

    def record(builder, node):
        if add(builder, node):
            folded.update((out, node) for out in node.outputs)
            return True
        return False

    monkeypatch.setattr(GraphBuilder, "add", record)
    checked = 0
    for model, refs in _everything(dtype):
        folded.clear()
        artifact, _, builder = _with_builder(model, refs, scheme, monkeypatch)
        plan = gl.ExecutionPlan(artifact)
        made = {o for node in _constant_nodes(plan, artifact)
                for o in node.outputs}
        held = made | {name for name, t in artifact.initializers.items()
                       if builder.known[name].dtype == DTYPES[dtype]}
        for name in artifact.initializers:
            node = folded.get(name)
            if node is None or not node.inputs:
                continue
            checked += 1
            baked = node.op_type in WEIGHT_LAYERS \
                and not model.initializers.keys().isdisjoint(node.inputs)
            assert baked or not held.issuperset(node.inputs), \
                (model.name, scheme, name)
    assert checked


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("scheme", ["optimized", "naive"])
def test_a_plan_holds_no_constant_that_no_step_reads(artifacts, corpus_f32,
                                                     dtype, scheme):
    for art in _every_artifact(artifacts, corpus_f32, dtype, scheme):
        plan = gl.ExecutionPlan(art.model)
        read = {plan.slots[name] for name in _read_by_a_step(plan, art.model)}
        held = {slot for slot, value in enumerate(plan.template)
                if value is not None}
        assert held <= read, art.model.name


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_a_rebuilt_rank_mask_saves_loads_and_explains_bit_identically(
        artifacts, dtype, tmp_path):
    # plain_deep's reference rank mask is rebuilt when the plan is built,
    # from the reference conv1 payload, through the pool's comparisons
    art = artifacts("plain_deep", dtype)
    constants = _constant_nodes(art.plan, art.model)
    assert "Greater" in {node.op_type for node in constants}
    assert not [name for name in art.model.initializers if "mpr_" in name]
    first, again = tmp_path / "first.sgm", tmp_path / "again.sgm"
    gl.save_artifact(art, str(first))
    loaded = gl.load_artifact(str(first))
    gl.save_artifact(loaded, str(again))
    assert first.read_bytes() == again.read_bytes()
    for x in gl.random_inputs(art.model, 3, seed=17):
        a, b = gl.explain(art, x), gl.explain(loaded, x)
        assert a.phi.array.tobytes() == b.phi.array.tobytes()
        assert a.prediction.array.tobytes() == b.prediction.array.tobytes()
