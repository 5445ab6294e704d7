"""Command line surface, exercised in process through main(argv)."""

import json

import numpy as np
import pytest

import graphlift as gl
from graphlift import cli
from graphlift.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def demo_files(tmp_path, capsys):
    code, _, err = run(capsys, "corpus", "--name", "demo",
                       "--out-dir", str(tmp_path))
    assert code == 0, err
    return {
        "model": str(tmp_path / "demo.sgm"),
        "sample": str(tmp_path / "demo_sample.stn"),
        "refs": str(tmp_path / "demo_refs.stn"),
        "dir": tmp_path,
    }


def test_corpus_list(capsys):
    code, out, _ = run(capsys, "corpus", "--list")
    assert code == 0
    for name in ("plain_deep", "residual_add", "dense_concat",
                 "scaled_add_mul"):
        assert name in out


def test_corpus_writes_loadable_files(demo_files):
    model = gl.load_model(demo_files["model"])
    assert model.name == "demo"
    sample = gl.load_tensor(demo_files["sample"])
    refs = gl.load_tensor(demo_files["refs"])
    assert sample.array.shape == (1, 32)
    assert refs.array.shape == (5, 32)


def test_compile_run_verify_pipeline(demo_files, capsys):
    art_path = str(demo_files["dir"] / "demo_explainer.sgm")
    code, out, _ = run(capsys, "compile", "--model", demo_files["model"],
                       "--refs", demo_files["refs"], "--out", art_path)
    assert code == 0
    assert "optimized" in out and "cache:" in out

    phi_path = str(demo_files["dir"] / "phi.stn")
    code, out, _ = run(capsys, "run", "--explainer", art_path,
                       "--input", demo_files["sample"], "--out", phi_path)
    assert code == 0
    assert "prediction" in out and "residual" in out
    phi = gl.load_tensor(phi_path)
    assert phi.array.shape == (1, 32)

    code, out, _ = run(capsys, "verify", "--explainer", art_path,
                       "--refs", demo_files["refs"], "--model",
                       demo_files["model"], "--against", "oracle",
                       "--input", demo_files["sample"])
    assert code == 0
    assert "pass" in out.lower()


def test_verify_against_naive_random_inputs(demo_files, capsys):
    art_path = str(demo_files["dir"] / "opt.sgm")
    assert run(capsys, "compile", "--model", demo_files["model"],
               "--refs", demo_files["refs"], "--out", art_path)[0] == 0
    code, out, _ = run(capsys, "verify", "--explainer", art_path,
                       "--refs", demo_files["refs"], "--model",
                       demo_files["model"], "--against", "naive",
                       "--inputs", "3")
    assert code == 0
    assert out.count("pass") >= 3


def test_verify_exit_code_on_mismatch(demo_files, capsys, tmp_path):
    """An explainer compiled from different references must fail oracle checks."""
    other_refs = str(tmp_path / "other_refs.stn")
    refs = gl.load_tensor(demo_files["refs"])
    gl.save_tensor(gl.TensorValue(refs.array + 0.8, refs.dtype), other_refs,
                   name="features")
    art_path = str(demo_files["dir"] / "skewed.sgm")
    assert run(capsys, "compile", "--model", demo_files["model"],
               "--refs", other_refs, "--out", art_path)[0] == 0
    code, out, _ = run(capsys, "verify", "--explainer", art_path,
                       "--refs", demo_files["refs"], "--model",
                       demo_files["model"], "--against", "oracle",
                       "--input", demo_files["sample"], "--atol", "1e-12",
                       "--rtol", "1e-12")
    assert code == 3
    assert "fail" in out.lower()


def test_run_writes_pgm_for_image_models(tmp_path, capsys):
    assert run(capsys, "corpus", "--name", "plain_deep", "--out-dir",
               str(tmp_path))[0] == 0
    art = str(tmp_path / "pd.sgm")
    assert run(capsys, "compile", "--model", str(tmp_path / "plain_deep.sgm"),
               "--refs", str(tmp_path / "plain_deep_refs.stn"),
               "--out", art)[0] == 0
    pgm = str(tmp_path / "heat.pgm")
    code, _, _ = run(capsys, "run", "--explainer", art,
                     "--input", str(tmp_path / "plain_deep_sample.stn"),
                     "--pgm", pgm)
    assert code == 0
    header = open(pgm).read().splitlines()[:2]
    assert header[0] == "P2"
    assert header[1] == "16 16"


def test_flops_table_and_json(demo_files, capsys, tmp_path):
    report = str(tmp_path / "flops.json")
    code, out, _ = run(capsys, "flops", "--model", demo_files["model"],
                       "--refs", demo_files["refs"],
                       "--b-range", "1,2,5", "--json", report)
    assert code == 0
    assert "naive flops" in out and "opt flops" in out and "gap" in out
    payload = json.loads(open(report).read())
    assert payload["model"] == "demo"
    rows = payload["batches"]
    assert [row["batch"] for row in rows] == [1, 2, 5]
    for row in rows:
        assert row["naive"]["total"] > row["optimized"]["total"]
        assert row["gap"] == row["naive"]["total"] - row["optimized"]["total"]
    gaps = [row["gap"] for row in rows]
    assert gaps == sorted(gaps)


def test_bench_reports_both_schemes(demo_files, capsys):
    code, out, _ = run(capsys, "bench", "--model", demo_files["model"],
                       "--refs", demo_files["refs"], "--images", "5")
    assert code == 0
    assert "naive" in out and "optimized" in out and "ratio" in out


def test_bench_json_records_one_row_per_scheme(demo_files, capsys, tmp_path):
    report = str(tmp_path / "bench.json")
    code, out, _ = run(capsys, "bench", "--model", demo_files["model"],
                       "--refs", demo_files["refs"], "--images", "4",
                       "--json", report)
    assert code == 0
    assert "ratio" in out and report in out
    records = json.loads(open(report).read())["records"]
    assert [r["scheme"] for r in records] == ["optimized", "naive"]
    # the text is printed from the same records
    for r in records:
        assert f"p50 {r['p50_ms']:8.3f} ms  p95 {r['p95_ms']:8.3f}" in out
    assert f"p50 ratio: {records[1]['p50_ms'] / records[0]['p50_ms']:.2f}x" in out
    for record in records:
        assert set(record) == {"model", "scheme", "dtype", "batch", "images",
                               "p50_ms", "p95_ms", "cold_ms", "compile_ms",
                               "artifact_bytes", "nodes", "steps",
                               "split_concat_nodes", "scans"}
        assert record["model"] == "demo"
        assert record["dtype"] == "float64"
        assert record["batch"] == 5 and record["images"] == 3
        assert 0 < record["p50_ms"] <= record["p95_ms"]
        assert record["cold_ms"] > 0 and record["compile_ms"] > 0
        assert 0 < record["scans"] <= record["steps"] <= record["nodes"]
    art = str(tmp_path / "opt.sgm")
    assert run(capsys, "compile", "--model", demo_files["model"],
               "--refs", demo_files["refs"], "--out", art)[0] == 0
    assert records[0]["artifact_bytes"] == len(open(art, "rb").read())
    census = gl.op_census(gl.load_artifact(art).model)
    assert records[0]["nodes"] == sum(census.values())
    assert records[0]["split_concat_nodes"] == census["Split"] + census["Concat"]
    plan = gl.ExecutionPlan(gl.load_artifact(art).model)
    assert records[0]["scans"] == sum(map(len, plan.scans))
    assert records[0]["steps"] == len(plan.steps)
    # the stacked scheme splits its 2B-row stream, the cached one does not
    assert records[1]["nodes"] > records[0]["nodes"]
    assert records[1]["split_concat_nodes"] > records[0]["split_concat_nodes"]


@pytest.mark.parametrize("name, scheme", [("opt", "optimized"),
                                          ("optimized", "optimized"),
                                          ("naive", "naive")])
def test_bench_of_one_scheme_records_its_canonical_name(demo_files, capsys,
                                                        tmp_path, name, scheme):
    report = str(tmp_path / "bench.json")
    code, out, _ = run(capsys, "bench", "--model", demo_files["model"],
                       "--refs", demo_files["refs"], "--images", "2",
                       "--schemes", name, "--json", report)
    assert code == 0
    assert "ratio" not in out and scheme in out
    records = json.loads(open(report).read())["records"]
    assert [r["scheme"] for r in records] == [scheme]
    assert 0 < records[0]["scans"] <= records[0]["steps"] <= records[0]["nodes"]


def test_bench_takes_turns_between_the_schemes(demo_files, capsys, monkeypatch):
    order = []

    def explain(artifact, sample):
        order.append(artifact.metadata["scheme"])
        return gl.explain(artifact, sample)

    monkeypatch.setattr(cli, "explain", explain)
    code, _, _ = run(capsys, "bench", "--model", demo_files["model"],
                     "--refs", demo_files["refs"], "--images", "3")
    assert code == 0
    assert order == ["optimized", "naive"] * 3


def test_bench_rejects_zero_images(demo_files, capsys):
    code, _, err = run(capsys, "bench", "--model", demo_files["model"],
                       "--refs", demo_files["refs"], "--images", "0")
    assert code == 2
    assert "--images" in err


@pytest.mark.parametrize("batch", ["0", "-1"])
def test_corpus_rejects_a_batch_below_one(tmp_path, capsys, batch):
    code, _, err = run(capsys, "corpus", "--name", "plain_deep", "--batch",
                       batch, "--out-dir", str(tmp_path))
    assert code == 2
    assert "at least 1" in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("flag, value", [
    ("--inputs", "0"), ("--inputs", "-3"), ("--min-fraction", "0"),
    ("--min-fraction", "-1"), ("--min-fraction", "1.5"),
    ("--min-fraction", "nan")])
def test_verify_refuses_to_pass_on_nothing(demo_files, capsys, flag, value):
    art = str(demo_files["dir"] / "demo.sge")
    pair = ["--model", demo_files["model"], "--refs", demo_files["refs"]]
    assert run(capsys, "compile", *pair, "--out", art)[0] == 0
    code, out, err = run(capsys, "verify", *pair, "--explainer", art, flag, value)
    assert code == 2
    assert flag in err and "passed" not in out


@pytest.mark.parametrize("value", ["-1", "-1e-9", "-1e-3"])
@pytest.mark.parametrize("flag", ["--atol", "--rtol"])
def test_verify_refuses_a_negative_tolerance(demo_files, capsys, flag, value):
    # a value written with an exponent reaches the check too, and is not
    # taken for an option
    art = str(demo_files["dir"] / "demo.sge")
    pair = ["--model", demo_files["model"], "--refs", demo_files["refs"]]
    assert run(capsys, "compile", *pair, "--out", art)[0] == 0
    code, out, err = run(capsys, "verify", *pair, "--explainer", art, flag, value)
    assert code == 2
    assert "non-negative" in err and "passed" not in out


@pytest.mark.parametrize("flag, value", [("--atol", "-1"), ("--rtol", "-0.5"),
                                         ("--atol", "nan"), ("--rtol", "nan"),
                                         ("--rtol", "-1e-9"),
                                         ("--atol", "-1e-3"),
                                         ("--atol", "-2.5E+1")])
def test_verify_refuses_a_bad_tolerance_before_any_work(demo_files, capsys,
                                                        monkeypatch, flag, value):
    def called(*args, **kwargs):
        raise AssertionError("verify did work before checking its flags")

    monkeypatch.setattr(cli, "load_artifact", called)
    monkeypatch.setattr(cli, "compile_explainer", called)
    pair = ["--model", demo_files["model"], "--refs", demo_files["refs"]]
    code, out, err = run(capsys, "verify", *pair, "--explainer", "unread.sge",
                         "--against", "naive", flag, value)
    assert code == 2
    assert flag in err and "non-negative" in err and "passed" not in out


@pytest.mark.parametrize("spec, word", [("2,-1", "positive"),
                                         ("2,0", "positive"),
                                         ("2,two", "integer")])
def test_flops_rejects_bad_batch_sizes(demo_files, capsys, spec, word):
    code, _, err = run(capsys, "flops", "--model", demo_files["model"],
                       "--refs", demo_files["refs"], "--b-range", spec)
    assert code == 2
    assert "--b-range" in err and word in err


@pytest.mark.parametrize("flag, value", [("--output-index", "99")])
def test_compile_names_a_bad_argument(demo_files, capsys, flag, value):
    code, _, err = run(capsys, "compile", "--model", demo_files["model"],
                       "--refs", demo_files["refs"], flag, value,
                       "--out", str(demo_files["dir"] / "bad.sgm"))
    assert code == 2
    assert flag[2:].replace("-", "_") in err


@pytest.fixture()
def plain_deep_files(tmp_path, capsys):
    code, _, err = run(capsys, "corpus", "--name", "plain_deep",
                       "--out-dir", str(tmp_path))
    assert code == 0, err
    return ["--model", str(tmp_path / "plain_deep.sgm"),
            "--refs", str(tmp_path / "plain_deep_refs.stn")], tmp_path


@pytest.mark.parametrize("against", ["oracle", "naive"])
@pytest.mark.parametrize("recorded", [(1e-6, 1e-7), (0.5, 0.5), (1e-3, 1e-3)])
def test_an_artifact_recording_the_epsilons_still_loads(plain_deep_files,
                                                        capsys, recorded,
                                                        against):
    # artifacts once recorded the rules' epsilons in their metadata; such an
    # artifact loads, explains to the same bytes, and verifies against the
    # constants, which are the only epsilons there are, whatever it recorded
    pair, tmp_path = plain_deep_files
    fresh, legacy = str(tmp_path / "pd.sge"), str(tmp_path / "pd_eps.sge")
    assert run(capsys, "compile", *pair, "--out", fresh)[0] == 0
    art = gl.load_artifact(fresh)
    gl.save_model(art.model, legacy,
                  metadata={**art.metadata, "eps_act": recorded[0],
                            "eps_pool": recorded[1]})
    old = gl.load_artifact(legacy)
    assert (old.metadata["eps_act"], old.metadata["eps_pool"]) == recorded
    sample = gl.load_tensor(str(tmp_path / "plain_deep_sample.stn")).array
    mine, theirs = gl.explain(old, sample), gl.explain(art, sample)
    assert mine.phi.array.tobytes() == theirs.phi.array.tobytes()
    assert mine.prediction.array.tobytes() == theirs.prediction.array.tobytes()
    code, out, _ = run(capsys, "verify", *pair, "--explainer", legacy,
                       "--against", against, "--inputs", "2")
    assert code == 0, out
    assert "2/2 inputs passed" in out


def test_compile_takes_no_seed_scale(demo_files):
    # phi is linear in the seed, so a caller who wants a scale multiplies phi
    with pytest.raises(SystemExit) as exc:
        main(["compile", "--model", demo_files["model"], "--refs",
              demo_files["refs"], "--seed-scale", "2",
              "--out", str(demo_files["dir"] / "scaled.sge")])
    assert exc.value.code == 2
    assert not (demo_files["dir"] / "scaled.sge").exists()


@pytest.mark.parametrize("flag", ["--eps-act", "--eps-pool"])
def test_compile_takes_no_epsilon_flags(demo_files, flag):
    # the rules' epsilons are constants, not settings
    with pytest.raises(SystemExit) as exc:
        main(["compile", "--model", demo_files["model"], "--refs",
              demo_files["refs"], flag, "1e-3",
              "--out", str(demo_files["dir"] / "eps.sge")])
    assert exc.value.code == 2
    assert not (demo_files["dir"] / "eps.sge").exists()


@pytest.mark.parametrize("flag", ["--eps-act", "--eps-pool"])
def test_verify_takes_no_epsilon_flags(demo_files, capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--model", demo_files["model"], "--refs",
              demo_files["refs"], "--explainer", demo_files["model"], flag, "1"])
    assert exc.value.code == 2


def test_dtype_flag_recasts(demo_files, capsys):
    art = str(demo_files["dir"] / "f32.sgm")
    code, _, _ = run(capsys, "compile", "--model", demo_files["model"],
                     "--refs", demo_files["refs"], "--dtype", "f32",
                     "--out", art)
    assert code == 0
    loaded = gl.load_artifact(art)
    assert loaded.model.inputs[0].dtype == "float32"
    assert {spec.dtype for spec in loaded.model.outputs} == {"float32"}


def test_missing_file_is_a_clean_error(capsys, tmp_path):
    code, _, err = run(capsys, "run", "--explainer",
                       str(tmp_path / "nope.sgm"),
                       "--input", str(tmp_path / "nope.stn"))
    assert code == 2
    assert err.strip()


def test_unknown_motif_is_a_clean_error(capsys, tmp_path):
    code, _, err = run(capsys, "corpus", "--name", "bogus",
                       "--out-dir", str(tmp_path))
    assert code == 2
    assert "bogus" in err


def test_bad_flag_exits_with_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["compile", "--nonsense"])
    assert exc.value.code == 2
