"""Release gates for the attribution compiler.

Each test is one acceptance criterion, pinned to a fixed tolerance, and
records a single PASS/FAIL verdict line in the terminal summary.
"""

import json
import time

import numpy as np
import pytest

import graphlift as gl
from graphlift import corpus
from graphlift.cli import main as cli_main
from graphlift.executor import execute
from graphlift.ir import Node, TensorValue, ValueSpec
from graphlift.oracle import (compare_attributions, deeplift_oracle,
                              finite_diff)
from graphlift.refopt import count_flops, op_census

B = 5
N_INPUTS = 20
INPUT_SEED = 777


def _delta_mean(model, x, refs, output_index=0):
    name = model.outputs[0].name
    feed = model.inputs[0].name
    yx = execute(model, {feed: x})[0][name]
    yr = execute(model, {feed: refs})[0][name]
    return float(yx[0, output_index] - yr[:, output_index].mean())


def test_criterion_01_attribution_sums_to_output_delta(
        corpus_f64, artifacts, criterion_log):
    started = time.monotonic()
    worst = 0.0
    for entry in corpus_f64:
        art = artifacts(entry.name, "float64")
        for x in corpus.random_inputs(entry.model, N_INPUTS, seed=INPUT_SEED):
            result = gl.explain(art, x)
            delta = _delta_mean(entry.model, x, entry.references)
            gap = abs(float(result.phi.array.sum()) - delta)
            worst = max(worst, gap / max(1.0, abs(delta)))
    elapsed = time.monotonic() - started
    ok = worst <= 1e-6 and elapsed < 120.0
    criterion_log(1, "attribution sums to mean output delta", ok)
    assert worst <= 1e-6, f"worst normalized residual {worst:.3e}"
    assert elapsed < 120.0, f"sweep took {elapsed:.1f}s"


def test_criterion_02_schemes_agree_within_tolerance(
        corpus_f32, corpus_f64, artifacts, criterion_log):
    fractions = {}
    for dtype, entries in (("float64", corpus_f64), ("float32", corpus_f32)):
        total = failed = 0
        for entry in entries:
            opt = artifacts(entry.name, dtype, "optimized")
            naive = artifacts(entry.name, dtype, "naive")
            for x in corpus.random_inputs(entry.model, N_INPUTS,
                                          seed=INPUT_SEED):
                a = gl.explain(opt, x).phi.array
                b = gl.explain(naive, x).phi.array
                report = compare_attributions(a, b, atol=1e-8, rtol=1e-5)
                total += report.total
                failed += report.failed
        fractions[dtype] = 1.0 - failed / total
    ok = fractions["float64"] == 1.0 and fractions["float32"] >= 0.99
    criterion_log(2, "optimized and naive schemes agree", ok)
    assert fractions["float64"] == 1.0, fractions
    assert fractions["float32"] >= 0.99, fractions


def test_criterion_03_explainer_matches_oracle(
        corpus_f64, artifacts, criterion_log):
    worst = 0.0
    for entry in corpus_f64:
        art = artifacts(entry.name, "float64")
        got = gl.explain(art, entry.sample).phi.array
        want = deeplift_oracle(entry.model, entry.sample,
                               entry.references).phi.array
        worst = max(worst, float(np.abs(got - want).max()))
    for family in corpus.MICRO_FAMILIES:
        net = corpus.micro_net(family)
        art = gl.compile_explainer(net.model, net.references)
        got = gl.explain(art, net.sample).phi.array
        want = deeplift_oracle(net.model, net.sample,
                               net.references).phi.array
        worst = max(worst, float(np.abs(got - want).max()))
    ok = worst <= 1e-10
    criterion_log(3, "compiled scores match the oracle", ok)
    assert worst <= 1e-10, f"worst elementwise gap {worst:.3e}"


def test_criterion_04_hand_derived_unit_examples(criterion_log):
    def tiny(name, input_shape, nodes, inits, head_shape):
        model = gl.GraphModel(
            name, [ValueSpec("x", "float64", input_shape)],
            [ValueSpec("y", "float64", head_shape)], inits, nodes)
        gl.validate_model(model)
        return model

    def multipliers(model, x, refs):
        art = gl.compile_explainer(model, refs, expose_multipliers=True)
        outs, _ = execute(art.model, {"x": np.asarray(x, np.float64)})
        return outs[art.model.outputs[2].name]

    checks = []

    # routing the pooled delta entirely to the winning slot
    pool = tiny("mx", (-1, 1, 1, 2),
                [Node("GlobalMaxPool", "p", ["x"], ["pool"]),
                 Node("Reshape", "r", ["pool"], ["y"], {"shape": [-1, 1]})],
                {}, (-1, 1))
    m = multipliers(pool, [[[[3.0, 1.0]]]], np.array([[[[0.0, 2.0]]]]))
    checks.append(float(np.abs(m.ravel() - [1.0 / 3.0, 0.0]).max()))

    # symmetric product split keeps the product delta intact
    sel = lambda col: TensorValue(
        np.eye(2)[:, col:col + 1].copy(), "float64")
    prod = tiny("mul", (-1, 2),
                [Node("MatMul", "a", ["x", "sa"], ["va"]),
                 Node("MatMul", "b", ["x", "sb"], ["vb"]),
                 Node("Mul", "m", ["va", "vb"], ["y"])],
                {"sa": sel(0), "sb": sel(1)}, (-1, 1))
    art = gl.compile_explainer(prod, np.array([[1.0, 0.0]]))
    res = gl.explain(art, [[3.0, 2.0]])
    checks.append(float(np.abs(res.phi.array.ravel() - [2.0, 4.0]).max()))
    checks.append(abs(float(res.phi.array.sum()) - 6.0))

    # exact-derivative fallback at zero delta
    sig = tiny("sig", (-1, 1), [Node("Sigmoid", "s", ["x"], ["y"])],
               {}, (-1, 1))
    m = multipliers(sig, [[0.0]], np.zeros((1, 1)))
    checks.append(abs(float(m[0, 0]) - 0.25))

    # folded normalization factor collapses to unity: the gradient baked
    # below the normalization is the head's weight column, unscaled
    net = corpus.micro_net("batchnorm")
    art = gl.compile_explainer(net.model, net.references)
    baked = [tv.array for name, tv in art.model.initializers.items()
             if "bngrad" in name]
    assert baked, "normalization backward gradient was not folded"
    head = net.model.initializers["w"].array[:, 0].reshape(1, 3, 2, 2)
    checks.extend(float(np.abs(arr - head).max()) for arr in baked)

    worst = max(checks)
    ok = worst <= 1e-12
    criterion_log(4, "hand-derived unit examples are exact", ok)
    assert worst <= 1e-12, checks


def test_criterion_05_linear_rules_match_central_differences(criterion_log):
    worst = 0.0
    for family in corpus.LINEAR_FAMILIES + ("batchnorm",):
        net = corpus.micro_net(family)
        art = gl.compile_explainer(net.model, net.references,
                                   expose_multipliers=True)
        outs, _ = execute(art.model, {art.model.inputs[0].name: net.sample})
        mult = outs[art.model.outputs[2].name]
        grad = finite_diff(net.model, net.sample, h=1e-4)
        for row in mult:
            rel = float(np.abs(row - grad[0]).max()
                        / max(1e-12, np.abs(grad).max()))
            worst = max(worst, rel)
    ok = worst <= 1e-6
    criterion_log(5, "linear multipliers match central differences", ok)
    assert worst <= 1e-6, f"worst relative gap {worst:.3e}"


def test_criterion_06_structural_savings_on_demo(demo_pair, forward_rows,
                                                 criterion_log):
    model, refs = demo_pair
    opt = gl.compile_explainer(model, refs)
    naive = gl.compile_explainer(model, refs, scheme="naive")

    opt_rows, naive_rows = (forward_rows(model, art.model, art.metadata)
                            for art in (opt, naive))
    row_claim = opt_rows == {1} and naive_rows == {2 * B}

    opt_census = op_census(opt.model)
    naive_census = op_census(naive.model)
    census_claim = (opt_census["Tile"] == 0
                    and naive_census["Split"] - opt_census["Split"] == 2)

    def comparison_rows(artifact):
        shapes = gl.infer_graph_shapes(artifact.model)
        return {shapes[node.outputs[0]][0]
                for node in artifact.model.nodes if node.op_type == "Greater"}

    compare_claim = (comparison_rows(opt) == {B}
                     and comparison_rows(naive) == {2 * B})

    ok = row_claim and census_claim and compare_claim
    criterion_log(6, "compile-time folding removes reference rows", ok)
    assert row_claim, (opt_rows, naive_rows)
    assert census_claim, (dict(opt_census), dict(naive_census))
    assert compare_claim, (comparison_rows(opt), comparison_rows(naive))


def test_criterion_07_flop_gap_grows_with_references(criterion_log):
    ok = True
    detail = {}
    for entry in corpus.build_corpus():
        gaps = []
        for b in (1, 2, 5, 16, 64):
            fresh = corpus.corpus_entry(entry.name, seed=0, batch=b)
            opt = gl.compile_explainer(fresh.model, fresh.references)
            naive = gl.compile_explainer(fresh.model, fresh.references,
                                         scheme="naive")
            fo = count_flops(opt.model, batch=1).total
            fn = count_flops(naive.model, batch=1).total
            ok = ok and fo < fn
            gaps.append(fn - fo)
        ok = ok and gaps == sorted(gaps)
        detail[entry.name] = gaps
    criterion_log(7, "arithmetic savings grow with reference count", ok)
    assert ok, detail


def test_criterion_08_latency_floor_on_commodity_cpu(criterion_log):
    from graphlift.cli import cast_model
    images, batch, floor = 100, 16, 1.2
    ratios = {}
    for entry in corpus.build_corpus(seed=0, batch=batch):
        model = cast_model(entry.model, "float64")
        refs = entry.references.astype(np.float64)
        opt = gl.compile_explainer(model, refs)
        naive = gl.compile_explainer(model, refs, scheme="naive")
        inputs = corpus.random_inputs(model, images + 1, seed=42)
        # the two schemes take turns on each input, and the medians compare,
        # so a stall of the machine hits both sides and counts only once
        laps = {"opt": [], "naive": []}
        for x in inputs:
            for tag, art in (("opt", opt), ("naive", naive)):
                t0 = time.perf_counter()
                gl.explain(art, x)
                laps[tag].append(time.perf_counter() - t0)
        # cold start excluded
        ratios[entry.name] = float(np.median(laps["naive"][1:])
                                   / np.median(laps["opt"][1:]))
    ok = all(ratio >= floor for ratio in ratios.values())
    criterion_log(8, "optimized latency beats naive by the floor", ok)
    assert ok, {k: round(v, 2) for k, v in ratios.items()}


def test_criterion_09_single_file_deployment(
        corpus_f64, artifacts, demo_pair, criterion_log, tmp_path):
    ok = True
    jobs = [(entry.name, artifacts(entry.name, "float64"), entry.sample)
            for entry in corpus_f64]
    model, refs = demo_pair
    jobs.append(("demo", gl.compile_explainer(model, refs),
                 corpus.demo_sample()))
    for name, art, sample in jobs:
        before = gl.explain(art, sample)
        path = tmp_path / f"{name}.sge"
        gl.save_artifact(art, str(path))
        loaded = gl.load_artifact(str(path))
        after = gl.explain(loaded, sample)
        ok = ok and np.array_equal(before.phi.array, after.phi.array)
        ok = ok and np.array_equal(before.prediction.array,
                                   after.prediction.array)
        # the artifact asks for nothing beyond the sample itself
        ok = ok and len(loaded.model.inputs) == 1
        outs, _ = execute(loaded.model, {loaded.model.inputs[0].name: sample})
        ok = ok and np.array_equal(outs[loaded.model.outputs[1].name],
                                   after.phi.array)
    criterion_log(9, "saved artifact replays bit-identically", ok)
    assert ok


def test_criterion_10_forward_memory_proxy(demo_pair, criterion_log,
                                           tmp_path):
    model, refs = demo_pair
    gl.save_model(model, str(tmp_path / "demo.sgm"))
    gl.save_tensor(TensorValue(refs, "float64"),
                   str(tmp_path / "refs.stn"), name="features")
    report_path = tmp_path / "flops.json"
    code = cli_main(["flops", "--model", str(tmp_path / "demo.sgm"),
                     "--refs", str(tmp_path / "refs.stn"),
                     "--b-range", str(B), "--json", str(report_path)])
    assert code == 0
    row = json.loads(report_path.read_text())["batches"][0]
    assert row["batch"] == B
    opt_peak = row["optimized"]["forward_peak_bytes"]
    naive_peak = row["naive"]["forward_peak_bytes"]
    cache = row["optimized"]["cache_bytes"]
    ok = opt_peak <= naive_peak / (2 * B) + cache
    criterion_log(10, "optimized forward stays within the memory proxy", ok)
    assert ok, (opt_peak, naive_peak, cache)
