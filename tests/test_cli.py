import json
import os
import shlex
from dataclasses import fields

import numpy as np
import pytest

from centbench import (ExperimentConfig, GotConfig, KpathConfig, cell_scores,
                       read_edge_list)
from centbench.cli import build_parser, main, read_scores
from centbench.generators import FAMILIES
from centbench.graph import format_edge_list


def run_cli(*argv):
    return main(list(argv))


def run_config(tmp_path, cfg):
    """Run ``experiment`` on a config dict; returns (exit code, out dir)."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "results"
    return run_cli("experiment", "--config", str(cfg_path),
                   "--out-dir", str(out_dir)), out_dir


class TestGen:
    def test_gen_writes_edge_list(self, tmp_path):
        out = tmp_path / "g.edges"
        assert run_cli("gen", "--family", "er", "--n", "50", "--param", "0.1",
                       "--seed", "7", "--out", str(out)) == 0
        g = read_edge_list(out, n=50)
        assert g.n == 50
        assert g.m > 0
        assert int(g.degrees.sum()) == 2 * g.m

    def test_gen_stdout_matches_out_file(self, tmp_path, capsys):
        argv = ("gen", "--family", "sw", "--n", "30", "--param", "4",
                "--aux-p", "0.5", "--seed", "3")
        out = tmp_path / "g.edges"
        assert run_cli(*argv, "--out", str(out)) == 0
        assert capsys.readouterr().out == ""
        assert run_cli(*argv) == 0
        assert capsys.readouterr().out == out.read_text(encoding="utf-8")

    @pytest.mark.parametrize("argv, m", [
        (("--family", "er", "--n", "100", "--param", "1e-310"), 0),
        (("--family", "sw", "--n", "5", "--param", "4", "--aux-p", "0.5"), 10),
    ])
    def test_gen_edge_cases_finish(self, tmp_path, argv, m):
        out = tmp_path / "g.edges"
        assert run_cli("gen", *argv, "--out", str(out)) == 0
        assert read_edge_list(out).m == m

    @pytest.mark.parametrize("family", FAMILIES)
    def test_gen_builds_the_graph_of_an_experiment_cell(self, tmp_path,
                                                        family):
        # every row of the family table is reachable from both ends, and
        # without --aux-p gen takes the family's default, as the cell does
        row = FAMILIES[family]
        param = 4 if row.kind is int else 0.1
        cfg = ExperimentConfig(n=60, **{row.key: [param]})
        (cell_family, cell_param, seed), = cfg.cells()
        seen = {}

        def graph_only(tag, fn, *args):
            seen[tag] = fn
            return fn(*args) if tag in ("gen", "lcc") else None

        cell_scores(cell_family, cfg.n, cell_param, seed, stage=graph_only)
        spec = seen["gen"].__self__  # the cell's GeneratorSpec
        edges = format_edge_list(spec.generate())
        assert edges.count("\n") > 60
        out = tmp_path / "g.edges"
        for aux_p in (("--aux-p", str(row.aux_default)), ()):
            assert run_cli("gen", "--family", family.lower(), "--n", "60",
                           "--param", str(param), *aux_p,
                           "--seed", str(spec.seed), "--out", str(out)) == 0
            assert out.read_text(encoding="utf-8") == edges

    def test_gen_sf(self, tmp_path):
        out = tmp_path / "sf.edges"
        run_cli("gen", "--family", "sf", "--n", "40", "--param", "3",
                "--aux-p", "0.3", "--seed", "1", "--out", str(out))
        g = read_edge_list(out, n=40)
        assert g.m == (40 - 3) * 3


class TestCentrality:
    @pytest.fixture
    def graph_file(self, tmp_path):
        path = tmp_path / "p3.edges"
        path.write_text("0 1\n1 2\n")
        return path

    def test_dc_csv(self, graph_file, tmp_path, capsys):
        run_cli("centrality", "--graph", str(graph_file), "--measure", "dc")
        scores = [float(x) for x in capsys.readouterr().out.splitlines()
                  if x and not x.startswith("#")]
        assert scores == [0.5, 1.0, 0.5]

    def test_bc_json_out(self, graph_file, tmp_path):
        out = tmp_path / "bc.json"
        run_cli("centrality", "--graph", str(graph_file), "--measure", "bc",
                "--format", "json", "--out", str(out))
        assert json.loads(out.read_text())["scores"] == [0.0, 1.0, 0.0]

    def test_lcc_flag(self, tmp_path):
        path = tmp_path / "two.edges"
        path.write_text("0 1\n1 2\n3 4\n")
        out = tmp_path / "cl.txt"
        run_cli("centrality", "--graph", str(path), "--measure", "cl",
                "--lcc", "--out", str(out))
        assert len(read_scores(out)) == 3


class TestGotAndKpath:
    @pytest.fixture
    def graph_file(self, tmp_path):
        path = tmp_path / "c6.edges"
        path.write_text("".join(f"{i} {(i + 1) % 6}\n" for i in range(6)))
        return path

    def test_got_outputs_and_trace(self, graph_file, tmp_path):
        node_out = tmp_path / "phi.txt"
        edge_out = tmp_path / "psi.txt"
        trace = tmp_path / "trace.ndjson"
        run_cli("got", "--graph", str(graph_file), "--seed", "5",
                "--epochs", "20", "--vdiamonds-per-node", "3",
                "--node-out", str(node_out), "--edge-out", str(edge_out),
                "--trace", str(trace))
        phi = read_scores(node_out)
        psi = read_scores(edge_out)
        assert phi.shape == (6,) and psi.shape == (6,)
        lines = [json.loads(l) for l in trace.read_text().splitlines()]
        assert len(lines) == 21
        assert set(lines[0]) == {"epoch", "vdiamonds_held", "thieves_carrying",
                                 "pickups_refused"}
        for rec in lines:
            assert rec["vdiamonds_held"] + rec["thieves_carrying"] == 18
        from centbench import run_got
        want = run_got(read_edge_list(graph_file),
                       GotConfig(vdiamonds_per_node=3, epochs=20, seed=5),
                       collect_trace=True).trace
        assert lines == [rec._asdict() for rec in want]

    def test_got_matches_library(self, graph_file, tmp_path):
        from centbench import run_got
        out = tmp_path / "phi.txt"
        run_cli("got", "--graph", str(graph_file), "--seed", "9",
                "--epochs", "15", "--node-out", str(out))
        g = read_edge_list(graph_file)
        want = run_got(g, GotConfig(epochs=15, seed=9)).phi
        assert np.array_equal(read_scores(out), want)

    def test_kpath(self, graph_file, tmp_path):
        out = tmp_path / "kp.txt"
        run_cli("kpath", "--graph", str(graph_file), "--k", "3",
                "--walks-per-slot", "50", "--seed", "2", "--out", str(out))
        from centbench import werw_kpath
        g = read_edge_list(graph_file)
        want = werw_kpath(g, KpathConfig(k=3, walks_per_slot=50, seed=2))
        assert np.array_equal(read_scores(out), want)

    def test_lcc_and_default_seeds(self, tmp_path):
        # K5 plus a separate edge: both estimators take --lcc, and with no
        # --seed they run with the config classes' default seeds (K5's
        # k-path estimate at k=3 depends on the seed, unlike a cycle's)
        from centbench import largest_connected_component, run_got, werw_kpath
        path = tmp_path / "two.edges"
        path.write_text("".join(f"{u} {v}\n" for u in range(5)
                                for v in range(u + 1, 5)) + "5 6\n")
        phi, kp = tmp_path / "phi.txt", tmp_path / "kp.txt"
        assert run_cli("got", "--graph", str(path), "--lcc", "--epochs", "15",
                       "--node-out", str(phi)) == 0
        assert run_cli("kpath", "--graph", str(path), "--lcc", "--k", "3",
                       "--out", str(kp)) == 0
        g, _ = largest_connected_component(read_edge_list(path))
        assert g.n == 5
        assert np.array_equal(read_scores(phi),
                              run_got(g, GotConfig(epochs=15)).phi)
        assert np.array_equal(read_scores(kp), werw_kpath(g, KpathConfig(k=3)))


class TestCorrelate:
    def test_correlate_json(self, tmp_path, capsys):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("1\n2\n3\n")
        b.write_text("1\n3\n2\n")
        run_cli("correlate", str(a), str(b), "--format", "json")
        payload = json.loads(capsys.readouterr().out)
        assert payload["spearman"] == pytest.approx(0.5)
        assert payload["kendall"] == pytest.approx(1 / 3)
        assert not payload["degenerate"]

    def test_correlate_degenerate_csv(self, tmp_path, capsys):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("1\n1\n1\n")
        b.write_text("1\n3\n2\n")
        run_cli("correlate", str(a), str(b))
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "coefficient,value"
        assert out[1] == "pearson,"  # undefined stays empty, never 0


class TestExperiment:
    def test_experiment_end_to_end(self, tmp_path, capsys):
        cfg = {
            "n": 60,
            "sf_m": [2],
            "sw_k": [],
            "er_p": [0.1],
            "seeds_per_cell": 1,
            "base_seed": 4,
            "got": {"epochs": 10},
            "kpath": {"k": 3},
        }
        code, out_dir = run_config(tmp_path, cfg)
        assert code == 0
        assert (out_dir / "report.csv").exists()
        assert (out_dir / "report.json").exists()
        assert "30 records" in capsys.readouterr().out

    def test_every_cell_failed_exits_one(self, tmp_path, capsys):
        code, out_dir = run_config(tmp_path, {"n": 50, "er_p": [1.5]})
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        lines = captured.out.splitlines()
        assert lines[0] == f"0 records, 1 failed cells -> {out_dir}"
        assert len(lines) == 2 and lines[1].startswith("  failed: ")
        assert "edge probability must be in [0, 1], got 1.5" in lines[1]
        assert (out_dir / "errors.csv").exists()

    def test_some_cells_failed_exits_zero(self, tmp_path, capsys):
        code, out_dir = run_config(tmp_path, {"n": 50, "er_p": [0.1, 1.5]})
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == f"15 records, 1 failed cells -> {out_dir}"
        assert len(lines) == 2 and lines[1].startswith("  failed: ")
        assert (out_dir / "errors.csv").exists()

    def test_a_single_edge_component_fails_its_cell_alone(self, tmp_path,
                                                          capsys):
        # at p=1e-5 the ER graph's largest component is one edge, which
        # passes the LCC check and fails when its one edge score is
        # correlated; the SF cell is still reported
        code, out_dir = run_config(tmp_path, {
            "n": 1000, "sf_m": [2], "er_p": [0.00001], "got": {"epochs": 5},
            "kpath": {"k": 3, "walks_per_slot": 1}})
        assert code == 0
        assert capsys.readouterr().out.startswith("15 records, 1 failed cells")
        rows = (out_dir / "report.csv").read_text().splitlines()[1:]
        assert len(rows) == 15 and all(",SF,1000," in r for r in rows)
        errors = (out_dir / "errors.csv").read_text().splitlines()
        assert len(errors) == 2 and errors[1].startswith("ER,1000,1e-05,")
        assert errors[1].endswith('need at least 2 samples, got 1"')


class TestErrors:
    """Bad input ends with exit code 2 and one line on stderr."""

    @pytest.mark.parametrize("text, argv, message", [
        ("0 1\n2 2\n", ("--measure", "dc"), "self-loop at node 2"),
        ("0 1\n1 0\n", ("--measure", "bc"), "duplicate edge (0, 1)"),
        ("0 1\n1 2\n3 4\n", ("--measure", "cl"),
         "node 3 is unreachable from node 0"),
        ("0 1\n", ("--measure", "dc", "--n", "1"),
         "edge (0, 1) outside node range 0..0"),
    ])
    def test_graph_and_value_errors(self, tmp_path, capsys, text, argv, message):
        path = tmp_path / "g.edges"
        path.write_text(text)
        assert run_cli("centrality", "--graph", str(path), *argv) == 2
        err = capsys.readouterr().err
        assert err == f"centbench: error: {message}\n"

    def test_missing_graph_file(self, tmp_path, capsys):
        path = tmp_path / "absent.edges"
        assert run_cli("centrality", "--graph", str(path),
                       "--measure", "dc") == 2
        assert capsys.readouterr().err == \
            f"centbench: error: [Errno 2] No such file or directory: '{path}'\n"

    @pytest.mark.parametrize("doc", ['{"foo": 1}', '{"scores": 3}'])
    def test_json_scores_without_list(self, tmp_path, capsys, doc):
        bad = tmp_path / "bad.json"
        bad.write_text(doc)
        good = tmp_path / "good.txt"
        good.write_text("1\n2\n3\n")
        assert run_cli("correlate", str(bad), str(good)) == 2
        assert capsys.readouterr().err == \
            f'centbench: error: {bad}: JSON score file has no "scores" list\n'

    @pytest.mark.parametrize("entry", ['{"a": 1}', "true", '"1.5"', "null",
                                       "[2]"])
    def test_json_score_that_is_not_a_number(self, tmp_path, capsys, entry):
        bad = tmp_path / "bad.json"
        bad.write_text(f'{{"scores": [1, {entry}, 3]}}')
        good = tmp_path / "good.txt"
        good.write_text("1\n2\n3\n")
        assert run_cli("correlate", str(bad), str(good)) == 2
        assert capsys.readouterr().err == \
            f"centbench: error: {bad}: scores[1] must be a number, got {entry}\n"

    def test_config_without_node_count(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"sf_m": [2]}))
        assert run_cli("experiment", "--config", str(cfg_path),
                       "--out-dir", str(tmp_path / "out")) == 2
        assert capsys.readouterr().err == \
            "centbench: error: missing config key(s): n\n"

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"n": 60, "er_p": [0.1], "sedes": 2}))
        assert run_cli("experiment", "--config", str(cfg_path),
                       "--out-dir", str(tmp_path / "out")) == 2
        assert capsys.readouterr().err == \
            "centbench: error: unknown config key(s): sedes\n"

    def test_config_value_of_wrong_type(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"n": 50, "sf_m": 5}))
        assert run_cli("experiment", "--config", str(cfg_path),
                       "--out-dir", str(tmp_path / "out")) == 2
        assert capsys.readouterr().err == \
            "centbench: error: config key sf_m must be a list of numbers, got 5\n"

    @pytest.mark.parametrize("section, message", [
        ({"got": {"epochs": "5"}},
         "config key got.epochs must be an integer or null, got '5'"),
        ({"kpath": {"k": "3"}}, "config key kpath.k must be an integer, got '3'"),
        ({"sf_m": [2.5]}, "config key sf_m must be a list of integers, got [2.5]"),
        ({"seeds_per_cell": 0},
         "config key seeds_per_cell must be at least 1, got 0"),
        ({"seeds_per_cell": -1},
         "config key seeds_per_cell must be at least 1, got -1"),
        ({"got": {"seed": 7}}, "unknown config key(s): got.seed"),
        ({"kpath": {"k": 3, "seed": 0}}, "unknown config key(s): kpath.seed"),
    ])
    def test_config_section_and_parameter_values(self, tmp_path, capsys,
                                                 section, message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"n": 50, "sf_m": [2], **section}))
        assert run_cli("experiment", "--config", str(cfg_path),
                       "--out-dir", str(tmp_path / "out")) == 2
        assert capsys.readouterr().err == f"centbench: error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("section, message", [
        ({"got": {"log_base": "3"}}, "unknown config key(s): got.log_base"),
        ({"got": {"mean_convention": "per-epoch"}},
         "unknown config key(s): got.mean_convention"),
        ({"got": {"vdiamonds_per_node": 0}},
         "config key got.vdiamonds_per_node must be at least 1, got 0"),
        ({"kpath": {"k": 0}}, "config key kpath.k must be at least 1, got 0"),
        ({"sf_triangle_p": 1.5},
         "config key sf_triangle_p must be in [0, 1], got 1.5"),
        ({"kpath": {"walks_per_slot": 0}},
         "config key kpath.walks_per_slot must be at least 1, got 0"),
        ({"n": 1}, "config key n must be at least 2, got 1"),
        ({"er_p": [0.05, 0.05]},
         "config key er_p must hold distinct values, got [0.05, 0.05]"),
        ({"kpath": {"rho": 20000}}, "unknown config key(s): kpath.rho"),
        ({"er_p": [float("nan")]},
         "config key er_p must be a list of finite numbers, got [nan]"),
        ({"er_p": [0.05, float("inf")]},
         "config key er_p must be a list of finite numbers, got [0.05, inf]"),
        # the stock sums' int64 bound, with n as every component's bound
        ({"n": 50, "er_p": [0.2],
          "got": {"vdiamonds_per_node": 2**62, "epochs": 8}},
         "config key got.vdiamonds_per_node=4611686018427387904 is too "
         "large: 9 stock snapshots of 50 nodes overflow int64"),
    ])
    def test_bad_shared_setting_exits_two_before_any_cell(
            self, tmp_path, capsys, section, message):
        # shared by every cell, so the run ends before the first one starts
        code, out_dir = run_config(tmp_path, {"n": 300, "sf_m": [3],
                                              "er_p": [0.05], **section})
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"centbench: error: {message}\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize("family, name", [("sf", "m"), ("sw", "k")])
    def test_gen_fractional_parameter(self, capsys, family, name):
        assert run_cli("gen", "--family", family, "--n", "30",
                       "--param", "2.5", "--seed", "1") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"centbench: error: {family.upper()} parameter "
                                f"{name} must be an integer, got 2.5\n")

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_workers_below_one_rejected(self, tmp_path, capsys, value):
        assert run_cli("experiment", "--config", str(tmp_path / "cfg.json"),
                       "--workers", value) == 2
        assert capsys.readouterr().err == \
            f"centbench: error: --workers must be at least 1, got {value}\n"

    def test_workers_capped_at_cpu_count(self, tmp_path, monkeypatch):
        seen = {}

        def fake_run(cfg, out_dir, workers):
            seen["workers"] = workers
            return [], []
        monkeypatch.setattr("centbench.cli.run_experiment", fake_run)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"n": 60, "er_p": [0.1]}))
        run_cli("experiment", "--config", str(cfg_path), "--workers", "100000",
                "--out-dir", str(tmp_path / "out"))
        assert seen["workers"] == min(100000, os.cpu_count() or 1)


def test_got_vdiamonds_past_the_int64_bound_exit_two(tmp_path, capsys):
    path = tmp_path / "g.edges"
    path.write_text("".join(f"{i} {(i + 1) % 50}\n" for i in range(50)))
    assert run_cli("got", "--graph", str(path), "--epochs", "8",
                   "--vdiamonds-per-node", str(2**61)) == 2
    err = capsys.readouterr().err
    assert err.startswith("centbench: error: vdiamonds_per_node=")
    assert err.count("\n") == 1


def test_got_refuses_the_removed_epoch_log_base_option(tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        run_cli("got", "--graph", str(tmp_path / "g.edges"),
                "--epoch-log-base", "2")
    assert err.value.code == 2
    assert "--epoch-log-base" in capsys.readouterr().err


def test_got_refuses_the_removed_mean_convention_option(tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        run_cli("got", "--graph", str(tmp_path / "g.edges"),
                "--mean-convention", "per-epoch")
    assert err.value.code == 2
    assert "--mean-convention" in capsys.readouterr().err


@pytest.mark.parametrize("command, cls", [("got", GotConfig),
                                          ("kpath", KpathConfig)])
def test_options_cover_every_config_field(command, cls):
    # the command builds its config from the options named after the fields
    args = build_parser().parse_args([command, "--graph", "g.edges"])
    assert {f.name for f in fields(cls)} <= set(vars(args))


def test_kpath_refuses_the_removed_rho_option(tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        run_cli("kpath", "--graph", str(tmp_path / "g.edges"), "--rho", "600")
    assert err.value.code == 2
    assert "--rho" in capsys.readouterr().err


def test_kpath_walks_per_slot_below_one_exits_two(tmp_path, capsys):
    path = tmp_path / "g.edges"
    path.write_text("0 1\n1 2\n")
    assert run_cli("kpath", "--graph", str(path), "--walks-per-slot", "0") == 2
    assert capsys.readouterr().err == \
        "centbench: error: walks_per_slot must be at least 1, got 0\n"


def test_kpath_help_states_default_walks_per_slot(capsys):
    with pytest.raises(SystemExit):
        run_cli("kpath", "--help")
    help_text = " ".join(capsys.readouterr().out.split())
    assert ("walks on each adjacency slot, at least 1 (default: 4, so 8 x "
            "edge count walks in all)") in help_text


README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def readme_block(after, fence):
    """The lines of the first ``fence`` code block after the line ``after``."""
    with open(README, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    start = lines.index(fence, lines.index(after)) + 1
    return lines[start:lines.index("```", start)]


def test_readme_config_example_loads():
    block = readme_block("## Experiment config", "```json")
    example = json.loads("\n".join(block))
    ExperimentConfig.from_dict(example)
    # every key a config file can hold, so a renamed or added field cannot
    # leave the example behind (the section seeds are derived per cell)
    names = lambda cls: {f.name for f in fields(cls)} - {"seed"}
    assert set(example) == names(ExperimentConfig)
    assert set(example["got"]) == names(GotConfig)
    assert set(example["kpath"]) == names(KpathConfig)


def test_readme_cli_example_parses():
    text = "\n".join(readme_block("## CLI", "```")).replace("\\\n", " ")
    commands = [shlex.split(line) for line in text.splitlines()]
    assert [argv[:2] for argv in commands] == [
        ["centbench", name] for name in ("gen", "centrality", "got", "kpath",
                                         "correlate", "experiment")]
    for argv in commands:
        build_parser().parse_args(argv[1:])
