import json
import os

import numpy as np
import pytest

from centbench import CellError, GotConfig, KpathConfig, read_edge_list
from centbench.cli import main, read_scores


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
                "--rho", "600", "--seed", "2", "--out", str(out))
        from centbench import werw_kpath
        g = read_edge_list(graph_file)
        want = werw_kpath(g, KpathConfig(k=3, rho=600, seed=2))
        assert np.array_equal(read_scores(out), want)


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
    ])
    def test_config_section_and_parameter_values(self, tmp_path, capsys,
                                                 section, message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"n": 50, "sf_m": [2], **section}))
        assert run_cli("experiment", "--config", str(cfg_path),
                       "--out-dir", str(tmp_path / "out")) == 2
        assert capsys.readouterr().err == f"centbench: error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("family, name", [("sf", "m"), ("sw", "k")])
    def test_gen_fractional_parameter(self, capsys, family, name):
        assert run_cli("gen", "--family", family, "--n", "30",
                       "--param", "2.5", "--seed", "1") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"centbench: error: {family.upper()} parameter "
                                f"{name} must be an integer, got 2.5\n")

    def test_cell_error(self, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise CellError("family=ER n=60 param=0.1 seed=1: boom")
        monkeypatch.setattr("centbench.cli.run_experiment", fail)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"n": 60, "er_p": [0.1]}))
        assert run_cli("experiment", "--config", str(cfg_path),
                       "--out-dir", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert err == "centbench: error: family=ER n=60 param=0.1 seed=1: boom\n"

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


def test_kpath_help_states_default_rho(capsys):
    with pytest.raises(SystemExit):
        run_cli("kpath", "--help")
    help_text = " ".join(capsys.readouterr().out.split())
    assert ("walk count, at least 2 x edge count (default: 8 x edge count, "
            "four walks per adjacency slot)") in help_text
