"""CLI contract tests: subcommands, exit codes, config grammar, determinism."""

import csv
import dataclasses
import json
from importlib import resources

import jsonschema
import pytest

from turanpin.cli import (
    EXIT_BUDGET,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_SEMANTIC,
    EXIT_USAGE,
    CliError,
    _trial_graph,
    main,
    parse_config_text,
)
from turanpin.graphs import (
    Graph,
    complete_bipartite,
    cycle_graph,
    from_graph6,
    star_graph,
    write_graph,
)
from turanpin import construct
from turanpin.randmodels import derive_rng


def load_schema(name: str) -> dict:
    with resources.files("turanpin.schemas").joinpath(name).open() as fh:
        return json.load(fh)


@pytest.fixture
def g6(tmp_path):
    def make(name: str, g: Graph) -> str:
        path = tmp_path / name
        write_graph(g, path)
        return str(path)

    return make


def run(capsys, argv) -> tuple[int, str, str]:
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------------ bounds


def test_bounds_empty_graph_examples(g6, capsys):
    code, out, _ = run(capsys, ["bounds", g6("e6.g6", Graph(6))])
    assert code == EXIT_OK
    rep = json.loads(out)
    assert rep["lower_bound"] == 9.0
    assert rep["upper_bound"]["value"] == 18.0

    code, out, _ = run(capsys, ["bounds", g6("edge.g6", Graph.from_edges(6, [(0, 1)]))])
    rep = json.loads(out)
    assert code == EXIT_OK and rep["lower_bound"] == 4.0 and rep["upper_bound"]["value"] == 15.0

    code, out, _ = run(capsys, ["bounds", g6("c5.g6", cycle_graph(5))])
    rep = json.loads(out)
    assert code == EXIT_OK and not rep["lower_bound_defined"] and rep["lower_bound"] is None
    assert rep["upper_bound"]["value"] == 5.0


def test_bounds_triangle_input_exit_2_with_witness(g6, capsys):
    tri = g6("tri.g6", Graph.from_edges(4, [(0, 1), (1, 2), (0, 2)]))
    code, _, err = run(capsys, ["bounds", tri])
    assert code == EXIT_SEMANTIC
    assert "triangle" in err and "(0, 1, 2)" in err


def test_bounds_parse_errors_exit_1(tmp_path, capsys):
    code, _, err = run(capsys, ["bounds", str(tmp_path / "missing.g6")])
    assert code == EXIT_USAGE
    bad = tmp_path / "bad.g6"
    bad.write_text("!!not graph6!!\n")
    code, _, err = run(capsys, ["bounds", str(bad)])
    assert code == EXIT_USAGE


@pytest.mark.parametrize("command", ["bounds", "construct", "exact"])
def test_malformed_graph6_size_field_exits_1(command, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)  # where a command that ran anyway would write
    (tmp_path / "neg.g6").write_text(">?\n")  # size character below "?": n = -1 if trusted
    code, out, err = run(capsys, [command, "neg.g6"])
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["neg.g6"]


@pytest.mark.parametrize("command", ["bounds", "construct", "exact"])
def test_graph6_file_with_two_graphs_exits_1(command, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "two.g6").write_text("B?\nBw\n")  # the empty 3-vertex graph, then a triangle
    code, out, err = run(capsys, [command, "two.g6"])
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["two.g6"]
    (tmp_path / "two.g6").write_text("\nB?\n\n")  # blank lines around one graph are fine
    assert run(capsys, [command, "two.g6", "--output", "out.json"])[0] == EXIT_OK


@pytest.mark.parametrize("pin", [Graph(0), Graph(1), Graph.from_edges(2, [(0, 1)])], ids=["n0", "n1", "n2"])
def test_bounds_needs_three_vertices_exit_2(pin, g6, capsys):
    for path in (g6("pin.g6", pin), g6("pin.edges", pin)):
        code, out, err = run(capsys, ["bounds", path])
        assert (code, out) == (EXIT_SEMANTIC, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and "need n >= 3" in err


def test_format_flag_overrides_inference(tmp_path, capsys):
    pin = star_graph(3, n=7)
    for flag, ext in (("edges", ".edges"), ("g6", ".g6")):
        inferred = tmp_path / f"pin{ext}"
        write_graph(pin, inferred)
        forced = tmp_path / f"pin-{flag}.dat"
        forced.write_text(inferred.read_text())
        assert run(capsys, ["bounds", str(forced)])[0] == EXIT_USAGE  # nothing to infer from
        for command in ("bounds", "exact"):
            code, out, err = run(capsys, [command, str(forced), "--format", flag])
            assert (code, out, err) == run(capsys, [command, str(inferred)])
            assert code == EXIT_OK


def test_bounds_output_file(g6, tmp_path, capsys):
    out_file = tmp_path / "report.json"
    code, out, _ = run(capsys, ["bounds", g6("e.g6", Graph(6)), "--output", str(out_file)])
    assert code == EXIT_OK and out == ""
    assert json.loads(out_file.read_text())["n"] == 6


def test_usage_errors_exit_1(capsys):
    assert run(capsys, [])[0] == EXIT_USAGE
    assert run(capsys, ["no-such-command"])[0] == EXIT_USAGE
    assert run(capsys, ["bounds"])[0] == EXIT_USAGE
    assert run(capsys, ["exact", "x.g6", "--budget", "lots"])[0] == EXIT_USAGE


@pytest.mark.parametrize(
    "argv",
    [
        ["sample", "--model", "uniform-tf", "--n", "8", "--edges", "6", "--chain-steps", "-1"],
        ["sample", "--model", "uniform-tf", "--n", "8", "--edges", "6", "--seed", "-1"],
        ["sample", "--model", "uniform-tf", "--n", "8", "--edges", "6", "--jobs", "0"],
        ["construct", "PIN", "--bipartitions", "-1"],
        ["construct", "PIN", "--seed", "-1"],
        ["construct", "PIN", "--mis-budget", "0"],
        ["bounds", "PIN", "--mis-budget", "0"],
        ["exact", "PIN", "--budget", "0"],
        ["worst-case", "2", "5", "--budget", "0"],
    ],
)
def test_out_of_range_integer_options_exit_1(argv, g6, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)  # where a command that ran anyway would write
    pin = g6("c5.g6", cycle_graph(5))
    code, out, err = run(capsys, [pin if a == "PIN" else a for a in argv])
    assert code == EXIT_USAGE
    assert "error:" in err and "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["sample", "--model", "process", "--n", "5"],
        ["construct", "PIN"],
        ["scaling", "--n-values", "8", "--d-values", "2.0"],
    ],
)
def test_seed_range_is_64_bit(argv, g6, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = [g6("c5.g6", cycle_graph(5, n=7)) if a == "PIN" else a for a in argv]
    code, out, err = run(capsys, argv + ["--seed", str(2**64)])
    assert code == EXIT_USAGE and out == ""
    assert err.count("error:") == 1 and "Traceback" not in err
    assert run(capsys, argv + ["--seed", str(2**64 - 1), "--output-dir", "out"])[0] == EXIT_OK


@pytest.mark.parametrize(
    "argv",
    [
        ["sample", "--model", "uniform-tf", "--n", "10", "--d", "nan"],
        ["sample", "--model", "process", "--n", "10", "--d", "inf"],
        ["sample", "--model", "erdos-renyi", "--n", "10", "--d", "-inf"],
        ["sample", "--model", "erdos-renyi", "--n", "10", "--p", "nan"],
        ["scaling", "--n-values", "10", "--d-values", "inf", "--trials", "1"],
        ["scaling", "--n-values", "10", "--d-values", "2.0 nan", "--trials", "1"],
        ["scaling", "--config", "CFG"],
    ],
)
def test_non_finite_degree_exits_1(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)  # where a command that ran anyway would write
    (tmp_path / "inf.cfg").write_text("n_values = 10\nd_values = 3.0 inf\ntrials = 1\n")
    code, out, err = run(capsys, [str(tmp_path / "inf.cfg") if a == "CFG" else a for a in argv])
    assert code == EXIT_USAGE
    assert "error:" in err and "Traceback" not in err
    assert out == ""


def test_help_exits_0(capsys):
    assert run(capsys, ["--help"])[0] == EXIT_OK
    assert run(capsys, ["scaling", "--help"])[0] == EXIT_OK


# --------------------------------------------------------------- construct


def test_construct_empty_pin(g6, tmp_path, capsys):
    code, out, _ = run(
        capsys,
        ["construct", g6("e6.g6", Graph(6)), "--output-dir", str(tmp_path / "out")],
    )
    assert code == EXIT_OK
    summary = json.loads(out)
    assert summary["edges"] == 9 and summary["added_pairs"] == 9
    built = from_graph6(summary["graph6"])
    assert sorted(built.degrees()) == [3] * 6  # a 9-edge triangle-free graph is K_{3,3}
    cert = json.loads((tmp_path / "out" / "construction.cert.json").read_text())
    assert cert["certificate"]["triangle_free"] and cert["certificate"]["contains_base"]
    g6_line = (tmp_path / "out" / "construction.g6").read_text().strip()
    assert from_graph6(g6_line).adj == built.adj


def test_construct_triangle_pin_exit_2(g6, capsys):
    tri = g6("tri.g6", Graph.from_edges(5, [(0, 1), (1, 2), (0, 2)]))
    assert run(capsys, ["construct", tri])[0] == EXIT_SEMANTIC


def test_construct_respects_seed_and_mode(g6, tmp_path, capsys):
    pin = g6("p.g6", cycle_graph(5, n=9))
    args = ["construct", pin, "--bipartitions", "3", "--seed", "11", "--output-dir", str(tmp_path)]
    _, out1, _ = run(capsys, args)
    _, out2, _ = run(capsys, args)
    assert out1 == out2
    code, out, _ = run(capsys, ["construct", pin, "--mode", "greedy", "--output-dir", str(tmp_path)])
    assert code == EXIT_OK and json.loads(out)["mis_exact"] is False


# ------------------------------------------------------------------- exact


def test_exact_values(g6, capsys):
    code, out, _ = run(capsys, ["exact", g6("e7.g6", Graph(7))])
    assert code == EXIT_OK and json.loads(out)["value"] == 12
    code, out, _ = run(capsys, ["exact", g6("star.g6", star_graph(6, n=9))])
    assert code == EXIT_OK and json.loads(out)["value"] == 18  # 6 * (9 - 6)


def test_exact_budget_exhausted_exit_3(g6, capsys):
    pin = g6("c7pad.g6", cycle_graph(7, n=9))
    code, out, err = run(capsys, ["exact", pin, "--budget", "2"])
    assert code == EXIT_BUDGET
    payload = json.loads(out)
    assert payload["proved"] is False and payload["value"] <= 17
    assert "budget" in err


def _raise_runtime_error(*args, **kwargs):
    raise RuntimeError("invariant broken on purpose")


def test_construct_internal_error_exit_70(g6, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("turanpin.cli.construct_admissible", _raise_runtime_error)
    pin = g6("p.g6", star_graph(2, n=5))
    code, out, err = run(capsys, ["construct", pin, "--output-dir", str(tmp_path)])
    assert code == EXIT_INTERNAL and out == ""
    assert err == "error: internal error: invariant broken on purpose\n"


def test_construct_certificate_failure_exit_70(g6, tmp_path, capsys, monkeypatch):
    certify = construct.certify

    def failing_certify(result, p):
        return dataclasses.replace(certify(result, p), b2_ok=False)

    monkeypatch.setattr("turanpin.construct.certify", failing_certify)
    pin = g6("p.g6", star_graph(2, n=5))
    outdir = tmp_path / "out"
    code, out, err = run(capsys, ["construct", pin, "--output-dir", str(outdir)])
    assert code == EXIT_INTERNAL and out == ""
    assert err.startswith("error: internal error:") and err.count("\n") == 1
    assert "b2_ok" in err
    assert not outdir.exists() or not any(outdir.iterdir())


def test_exact_internal_error_exit_70(g6, capsys, monkeypatch):
    monkeypatch.setattr("turanpin.cli.exact_ex", _raise_runtime_error)
    code, out, err = run(capsys, ["exact", g6("e5.g6", Graph(5))])
    assert code == EXIT_INTERNAL and out == ""
    assert err.startswith("error: internal error:") and err.count("\n") == 1


def test_bounds_exact_sandwich_same_input(g6, capsys):
    pin = g6("c5pad8.g6", cycle_graph(5, n=8))
    _, bout, _ = run(capsys, ["bounds", pin])
    _, xout, _ = run(capsys, ["exact", pin])
    rep, res = json.loads(bout), json.loads(xout)
    assert res["proved"]
    if rep["lower_bound_defined"]:
        assert rep["lower_bound"] <= res["value"]
    assert res["value"] <= rep["upper_bound"]["value"]


# -------------------------------------------------------------- worst-case


def test_worst_case_star_only(tmp_path, capsys):
    code, out, _ = run(capsys, ["worst-case", "1", "8", "--output-dir", str(tmp_path)])
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["value"] == 16 and payload["rows"] == 1
    lines = (tmp_path / "worst_case.rows.jsonl").read_text().splitlines()
    assert len(lines) == 1
    row = json.loads(lines[0])
    assert row["value"] == 16 and row["proved"] and row["edges"] == 1


def test_worst_case_budget_exit_3(tmp_path, capsys):
    code, _, err = run(
        capsys, ["worst-case", "6", "9", "--budget", "5", "--output-dir", str(tmp_path)]
    )
    assert code == EXIT_BUDGET and "budget" in err


def test_worst_case_budget_error_printed_once(tmp_path, capsys):
    code, out, err = run(
        capsys, ["worst-case", "6", "9", "--budget", "5", "--output-dir", str(tmp_path)]
    )
    assert code == EXIT_BUDGET and out == ""
    assert err.count("search budget exhausted") == 1
    assert err.splitlines()[-1] == f"partial rows kept in {tmp_path / 'worst_case.rows.jsonl'}"


def test_worst_case_bad_args(capsys):
    assert run(capsys, ["worst-case", "0", "8"])[0] == EXIT_USAGE
    assert run(capsys, ["worst-case", "2", "2"])[0] == EXIT_USAGE


# ------------------------------------------------------------------ sample


def test_sample_process_files(tmp_path, capsys):
    code, out, _ = run(
        capsys,
        ["sample", "--model", "process", "--n", "10", "--trials", "4", "--seed", "5",
         "--output-dir", str(tmp_path), "--prefix", "runs"],
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    g6_lines = (tmp_path / "runs.g6").read_text().splitlines()
    stats = [json.loads(x) for x in (tmp_path / "runs.stats.jsonl").read_text().splitlines()]
    assert len(g6_lines) == len(stats) == 4
    schema = load_schema("sample_stats.schema.json")
    for line, st in zip(g6_lines, stats):
        jsonschema.validate(st, schema)
        assert from_graph6(line).edge_count == st["edge_count"]
    assert payload["graph6_path"].endswith("runs.g6")


def test_sample_model_flag_validation(capsys):
    base = ["sample", "--model", "process", "--n", "6"]
    assert run(capsys, base + ["--edges", "4"])[0] == EXIT_USAGE
    assert run(capsys, base + ["--steps", "abc"])[0] == EXIT_USAGE
    assert run(capsys, ["sample", "--model", "uniform-tf", "--n", "6"])[0] == EXIT_USAGE
    assert run(capsys, ["sample", "--model", "uniform-tf", "--n", "6", "--edges", "10"])[0] == EXIT_USAGE
    assert run(capsys, ["sample", "--model", "erdos-renyi", "--n", "6", "--p", "1.5"])[0] == EXIT_USAGE
    assert run(capsys, ["sample", "--model", "erdos-renyi", "--n", "6", "--d", "9"])[0] == EXIT_USAGE


@pytest.mark.parametrize(
    "model, d, size",
    [
        ("process", 3.0, ["--steps", "18"]),
        ("uniform-tf", 3.0, ["--edges", "18"]),
        ("erdos-renyi", 2.2, ["--p", str(2.2 / 11)]),
    ],
)
def test_sample_d_matches_its_size_option(model, d, size, tmp_path, capsys):
    for sub, size_args in (("by_d", ["--d", str(d)]), ("by_size", size)):
        code, _, _ = run(
            capsys,
            ["sample", "--model", model, "--n", "12", *size_args, "--trials", "3", "--seed", "8",
             "--output-dir", str(tmp_path / sub)],
        )
        assert code == EXIT_OK
    for name in ("sample.g6", "sample.stats.jsonl"):
        assert (tmp_path / "by_d" / name).read_bytes() == (tmp_path / "by_size" / name).read_bytes()


def test_sample_steps_spellings(tmp_path, capsys):
    code, _, _ = run(
        capsys,
        ["sample", "--model", "process", "--n", "8", "--steps", "to-completion",
         "--output-dir", str(tmp_path), "--prefix", "full"],
    )
    assert code == EXIT_OK
    code, _, _ = run(
        capsys,
        ["sample", "--model", "process", "--n", "8", "--steps", "3",
         "--output-dir", str(tmp_path), "--prefix", "part"],
    )
    assert code == EXIT_OK
    assert from_graph6((tmp_path / "part.g6").read_text().strip()).edge_count == 3


def test_sample_jobs_byte_identical(tmp_path, capsys):
    for jobs, sub in (("1", "a"), ("4", "b")):
        code, _, _ = run(
            capsys,
            ["sample", "--model", "uniform-tf", "--n", "9", "--edges", "12", "--trials", "6",
             "--seed", "21", "--jobs", jobs, "--output-dir", str(tmp_path / sub)],
        )
        assert code == EXIT_OK
    assert (tmp_path / "a" / "sample.g6").read_bytes() == (tmp_path / "b" / "sample.g6").read_bytes()
    assert (tmp_path / "a" / "sample.stats.jsonl").read_bytes() == (
        tmp_path / "b" / "sample.stats.jsonl"
    ).read_bytes()


def test_output_dir_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("TURANPIN_OUTPUT_DIR", str(tmp_path / "envout"))
    code, _, _ = run(capsys, ["sample", "--model", "process", "--n", "6", "--trials", "1"])
    assert code == EXIT_OK
    assert (tmp_path / "envout" / "sample.g6").exists()


# ----------------------------------------------------------------- scaling


def test_parse_config_text_grammar():
    cfg = parse_config_text(
        """
        # sweep
        model = process
        n_values = 8, 12
        d_values = 2.0 2.5   # trailing comment
        trials=3
        seed = 7
        """
    )
    assert cfg == {
        "model": "process",
        "n_values": [8, 12],
        "d_values": [2.0, 2.5],
        "trials": 3,
        "seed": 7,
    }
    with pytest.raises(CliError):
        parse_config_text("nonsense line")
    with pytest.raises(CliError):
        parse_config_text("unknown_key = 3")
    with pytest.raises(CliError):
        parse_config_text("trials = lots")


def test_scaling_csv_and_summary(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("model = process\nn_values = 10 14\nd_values = 2.0\ntrials = 3\nseed = 13\n")
    code, out, _ = run(capsys, ["scaling", "--config", str(cfg), "--output-dir", str(tmp_path)])
    assert code == EXIT_OK
    lines = (tmp_path / "scaling.csv").read_text().splitlines()
    assert lines[0] == "n,d,trial,e_P,alpha,delta,lower_bound,upper_bound,ratio_lower,ratio_upper"
    assert len(lines) == 1 + 2 * 3
    first = lines[1].split(",")
    assert first[0] == "10" and first[2] == "0"
    summary = json.loads((tmp_path / "scaling.summary.json").read_text())
    jsonschema.validate(summary, load_schema("scaling_summary.schema.json"))
    assert summary["rows_written"] == 6 and summary["failure_count"] == 0
    assert json.loads(out)["csv_path"].endswith("scaling.csv")


def test_scaling_flags_override_config(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("model = process\nn_values = 10\nd_values = 2.0\ntrials = 5\nseed = 1\n")
    code, _, _ = run(
        capsys,
        ["scaling", "--config", str(cfg), "--trials", "2", "--output-dir", str(tmp_path)],
    )
    assert code == EXIT_OK
    summary = json.loads((tmp_path / "scaling.summary.json").read_text())
    assert summary["config"]["trials"] == 2 and summary["rows_written"] == 2


def test_scaling_config_validation(tmp_path, capsys):
    base = ["scaling", "--n-values", "10", "--trials", "1", "--output-dir", str(tmp_path)]
    assert run(capsys, base + ["--d-values", "1.0"])[0] == EXIT_USAGE  # needs d > 1
    assert run(capsys, base)[0] == EXIT_USAGE  # d_values missing
    assert run(capsys, ["scaling", "--d-values", "2.0", "--trials", "1"])[0] == EXIT_USAGE
    assert (
        run(capsys, ["scaling", "--n-values", "10", "--d-values", "2.0", "--trials", "0"])[0]
        == EXIT_USAGE
    )
    assert run(capsys, ["scaling", "--config", str(tmp_path / "nope.cfg")])[0] == EXIT_USAGE


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize(
    "key, value",
    [
        ("n_values", "2"),
        ("d_values", "1.0"),
        ("d_values", "inf"),
        ("trials", "0"),
        ("seed", "-1"),
        ("mis_budget", "0"),
        ("chain_steps", "-1"),
        ("jobs", "0"),
        ("model", "bogus"),
    ],
)
def test_out_of_range_scaling_setting_exits_1(key, value, source, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)  # where a command that ran anyway would write
    settings = {"n_values": "10", "d_values": "2.0", "trials": "1", key: value}
    if source == "flag":
        argv = ["scaling"] + [x for k, v in settings.items() for x in ("--" + k.replace("_", "-"), v)]
    else:
        (tmp_path / "sweep.cfg").write_text("".join(f"{k} = {v}\n" for k, v in settings.items()))
        argv = ["scaling", "--config", "sweep.cfg"]
    code, out, err = run(capsys, argv)
    assert code == EXIT_USAGE
    assert "error:" in err and "Traceback" not in err
    assert out == ""
    assert [f.name for f in tmp_path.iterdir()] == (["sweep.cfg"] if source == "config" else [])


def test_scaling_per_trial_failures_counted(tmp_path, capsys):
    # erdos-renyi needs d <= n-1; n=4 with d=5 fails every trial but exits 0
    code, _, err = run(
        capsys,
        ["scaling", "--model", "erdos-renyi", "--n-values", "4", "--d-values", "5.0",
         "--trials", "2", "--output-dir", str(tmp_path)],
    )
    assert code == EXIT_OK and "trial failed" in err
    lines = (tmp_path / "scaling.csv").read_text().splitlines()
    assert len(lines) == 1  # header only
    summary = json.loads((tmp_path / "scaling.summary.json").read_text())
    assert summary["failure_count"] == 2 and summary["rows_written"] == 0
    assert summary["drift"][0]["ratio_lower"] is None
    jsonschema.validate(summary, load_schema("scaling_summary.schema.json"))


def test_scaling_internal_error_exit_70(tmp_path, capsys, monkeypatch):
    # an invariant failure inside a trial is not an ordinary trial failure
    monkeypatch.setattr("turanpin.bounds.max_independent_set", _raise_runtime_error)
    code, _, err = run(
        capsys,
        ["scaling", "--model", "process", "--n-values", "10", "--d-values", "2.0",
         "--trials", "1", "--output-dir", str(tmp_path)],
    )
    assert code == EXIT_INTERNAL and "trial failed" not in err
    assert not (tmp_path / "scaling.summary.json").exists()


def test_scaling_delta_is_max_degree(tmp_path, capsys):
    code, _, _ = run(
        capsys,
        ["scaling", "--model", "process", "--n-values", "12 16", "--d-values", "2.0 3.0",
         "--trials", "2", "--seed", "5", "--output-dir", str(tmp_path)],
    )
    assert code == EXIT_OK
    rows = list(csv.DictReader((tmp_path / "scaling.csv").read_text().splitlines()))
    assert len(rows) == 8
    d_index = {2.0: 0, 3.0: 1}
    for r in rows:
        n, d, trial = int(r["n"]), float(r["d"]), int(r["trial"])
        g = _trial_graph("process", n, d, derive_rng(5, n, d_index[d], trial), None)
        assert int(r["e_P"]) == g.edge_count
        assert int(r["delta"]) == max(g.degrees())


def test_scaling_jobs_byte_identical(tmp_path, capsys):
    argv = ["scaling", "--model", "uniform-tf", "--n-values", "8 10", "--d-values", "2.0 2.5",
            "--trials", "3", "--seed", "31", "--chain-steps", "400"]
    for jobs, sub in (("1", "a"), ("4", "b")):
        code, _, _ = run(capsys, argv + ["--jobs", jobs, "--output-dir", str(tmp_path / sub)])
        assert code == EXIT_OK
    assert (tmp_path / "a" / "scaling.csv").read_bytes() == (tmp_path / "b" / "scaling.csv").read_bytes()
    assert (tmp_path / "a" / "scaling.summary.json").read_bytes() == (
        tmp_path / "b" / "scaling.summary.json"
    ).read_bytes()


def test_scaling_uniform_rows_triangle_free_edge_counts(tmp_path, capsys):
    code, _, _ = run(
        capsys,
        ["scaling", "--model", "uniform-tf", "--n-values", "10", "--d-values", "3.0",
         "--trials", "4", "--seed", "2", "--chain-steps", "300", "--output-dir", str(tmp_path)],
    )
    assert code == EXIT_OK
    lines = (tmp_path / "scaling.csv").read_text().splitlines()[1:]
    for line in lines:
        cells = line.split(",")
        assert cells[3] == "15"  # e_P = round(10 * 3 / 2)
        assert float(cells[7]) >= float(cells[6] or 0)  # upper >= lower


def test_complete_bipartite_sanity_for_cli_fixtures():
    # the fixtures above lean on K_{3,3} being the unique 9-edge output at n=6
    g = complete_bipartite(3, 3)
    assert g.edge_count == 9 and sorted(g.degrees()) == [3] * 6


# ------------------------------------------------------------- output paths


def _no_work(*args, **kwargs):
    raise AssertionError("the command started its work before checking its output path")


@pytest.mark.parametrize("target", ["taken", "taken/sub"], ids=["file", "under-file"])
@pytest.mark.parametrize("command", ["construct", "sample", "scaling", "scaling-config", "worst-case"])
def test_output_dir_that_is_no_directory_exits_1(command, target, g6, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for work in ("draw", "construct_admissible", "iter_worst_case_rows"):
        monkeypatch.setattr(f"turanpin.cli.{work}", _no_work)
    (tmp_path / "taken").write_text("a regular file\n")
    (tmp_path / "cfg.txt").write_text(f"n_values = 8\nd_values = 2\noutput_dir = {target}\n")
    argv = {
        "construct": ["construct", g6("pin.g6", star_graph(2, n=5)), "--output-dir", target],
        "sample": ["sample", "--model", "process", "--n", "8", "--output-dir", target],
        "scaling": ["scaling", "--n-values", "8", "--d-values", "2", "--output-dir", target],
        "scaling-config": ["scaling", "--config", "cfg.txt"],
        "worst-case": ["worst-case", "2", "5", "--output-dir", target],
    }[command]
    code, out, err = run(capsys, argv)
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("error: cannot write ") and err.count("\n") == 1 and "Traceback" not in err
    assert (tmp_path / "taken").read_text() == "a regular file\n"


@pytest.mark.parametrize("target", ["missing/out.json", "."], ids=["missing-dir", "directory"])
@pytest.mark.parametrize("command", ["bounds", "exact"])
def test_output_file_that_cannot_be_written_exits_1(command, target, g6, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, [command, g6("pin.g6", Graph(5)), "--output", target])
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("error: cannot write ") and err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "missing").exists()


def test_closed_stdout_exits_0(g6, capsys, monkeypatch):
    class ClosedPipe:
        def write(self, text):
            raise BrokenPipeError

    monkeypatch.setattr("sys.stdout", ClosedPipe())
    assert main(["bounds", g6("pin.g6", Graph(5))]) == EXIT_OK
