import csv
import hashlib
import json
import re
from dataclasses import fields, replace

import numpy as np
import pytest

from centbench import (ExperimentConfig, GeneratorSpec, GotConfig,
                       KpathConfig, cell_scores, harness, run_cell,
                       run_experiment)
from centbench.harness import (CELL_KEY, COEFFICIENTS, CSV_COLUMNS,
                               SCHEMA_VERSION)
from centbench.rng import derive_seed


FAST_GOT = GotConfig(epochs=40)
FAST_KPATH = KpathConfig(k=5)
# run_cell's stage timings, in the order the stages run
STAGES = ["gen", "lcc", "dc", "bc", "cl", "cc", "got", "kpath", "corr"]
# the leading cell_scores arguments of a small SW cell, less its seed
SMALL_SW = ("SW", 80, 4)


def recorded_cell(cell_seed):
    """``cell_scores`` on a small SW cell through a hook that records each
    stage's tag, function, arguments and output; returns them by tag, in
    call order, with the LCC and scores that ``cell_scores`` returned."""
    calls = {}

    def record(tag, fn, *args):
        calls[tag] = (fn, args, fn(*args))
        return calls[tag][2]

    lcc, scores = cell_scores(*SMALL_SW, cell_seed, FAST_GOT, FAST_KPATH,
                              stage=record)
    return calls, lcc, scores


class TestRunCell:
    def test_sf_cell_produces_15_full_records(self):
        records, entry = run_cell("SF", 200, 5, seed=1, got_cfg=FAST_GOT,
                                  kpath_cfg=FAST_KPATH)
        assert len(records) == 15
        assert entry == {"family": "SF", "n": 200, "param": 5, "seed": 1,
                         "stage_wall_ms": entry["stage_wall_ms"]}
        stage_ms = entry["stage_wall_ms"]
        assert list(stage_ms) == STAGES
        assert all(ms >= 0.0 for ms in stage_ms.values())
        pairs = {r.pair for r in records}
        assert pairs == {"got_node_vs_dc", "got_node_vs_bc", "got_node_vs_cl",
                         "got_node_vs_cc", "got_edge_vs_kpath"}
        assert {r.coefficient for r in records} == {"pearson", "spearman",
                                                    "kendall"}
        assert all(r.value is not None for r in records)
        assert all(-1 - 1e-12 <= r.value <= 1 + 1e-12 for r in records)
        assert all(r.lcc_n == 200 for r in records)

    def test_degenerate_cell_fails_without_partial_records(self):
        records, entry = run_cell("ER", 200, 0.0, seed=1)
        assert records == []
        assert list(entry) == [*CELL_KEY, "error"]
        assert re.search("family=ER.*degenerate", entry["error"])

    def test_a_failing_corr_stage_is_a_cell_error(self):
        # one edge passes the LCC check, but one edge score is too short
        # to correlate
        records, entry = run_cell("ER", 2, 1.0, 1)
        assert records == []
        assert entry == {"family": "ER", "n": 2, "param": 1.0, "seed": 1,
                         "error": entry["error"]}
        assert re.search(r"^family=ER n=2 param=1\.0 seed=1: need at least 2 "
                         r"samples, got 1$", entry["error"])

    def test_deterministic_modulo_wall_time(self):
        a, _ = run_cell("ER", 120, 0.05, seed=9, got_cfg=FAST_GOT,
                        kpath_cfg=FAST_KPATH)
        b, _ = run_cell("ER", 120, 0.05, seed=9, got_cfg=FAST_GOT,
                        kpath_cfg=FAST_KPATH)
        strip = lambda r: (r.family, r.n, r.param, r.seed, r.lcc_n, r.lcc_m,
                           r.pair, r.coefficient, r.value)
        assert [strip(r) for r in a] == [strip(r) for r in b]

    def test_all_pairs_flag_adds_exact_cross_correlations(self):
        records, _ = run_cell("SW", 60, 4, seed=2, got_cfg=FAST_GOT,
                              kpath_cfg=FAST_KPATH, all_pairs=True)
        assert len(records) == 15 + 6 * 3
        assert any(r.pair == "dc_vs_bc" for r in records)

    def test_stage_sub_seeds_are_derived_from_cell_seed(self):
        assert derive_seed(7, "gen") != derive_seed(7, "got")
        assert derive_seed(7, "got") != derive_seed(7, "kpath")
        assert derive_seed(7, "gen") == derive_seed(7, "gen")
        assert derive_seed(8, "gen") != derive_seed(7, "gen")
        # the graph, the simulation and the k-path walks run on their own
        # sub-seeds
        calls, _, _ = recorded_cell(7)
        assert calls["gen"][0].__self__ == GeneratorSpec(
            *SMALL_SW, seed=derive_seed(7, "gen"))
        assert calls["got"][1][1] == replace(FAST_GOT,
                                             seed=derive_seed(7, "got"))
        assert calls["kpath"][1][1] == replace(FAST_KPATH,
                                               seed=derive_seed(7, "kpath"))


class TestCellScores:
    def test_a_recording_hook_sees_every_stage_in_order(self):
        calls, lcc, scores = recorded_cell(7)
        assert list(calls) == STAGES[:-1]
        _, (g,), (lcc_out, _) = calls["lcc"]
        assert g is calls["gen"][2] and lcc_out is lcc
        # each score is its stage's output, computed on the LCC
        assert list(scores) == STAGES[2:-1]
        for tag, score in scores.items():
            _, args, out = calls[tag]
            assert args[0] is lcc and out is score
        assert [calls[tag][0].__name__ for tag in scores] == [
            "degree_centrality", "betweenness_centrality",
            "closeness_centrality", "clustering_coefficient", "run_got",
            "werw_kpath"]

    def test_a_hook_can_skip_stages(self):
        ran = []

        def gen_and_lcc(tag, fn, *args):
            ran.append(tag)
            return fn(*args) if tag in ("gen", "lcc") else None

        lcc, scores = cell_scores(*SMALL_SW, 7, FAST_GOT, FAST_KPATH,
                                  stage=gen_and_lcc)
        assert ran == STAGES[:-1]
        assert lcc.n == 80 and set(scores.values()) == {None}


# bad JSON configs and the message each raises; every case led by
# "^config key" is a bad value, which the Python constructors reject too
BAD_CONFIGS = [
    ({"n": 50, "sf_m": [2], "seed": 1}, r"unknown config key\(s\): seed$"),
    ({"n": 50, "zeta": 1, "alpha": 2}, r"unknown config key\(s\): alpha, zeta$"),
    ({"n": 50, "got": {"epochs": 5, "thieves": 2}},
     r"unknown config key\(s\): got\.thieves$"),
    ({"n": 50, "kpath": {"K": 3}}, r"unknown config key\(s\): kpath\.K$"),
    ([{"n": 50}], r"^config must be a JSON object, got list$"),
    ("x", r"^config must be a JSON object, got str$"),
    ({"n": 50, "got": 5},
     r"^config section got must be a JSON object, got int$"),
    ({"n": 50, "kpath": 5},
     r"^config section kpath must be a JSON object, got int$"),
    ({"n": 50, "got": None},
     r"^config section got must be a JSON object, got NoneType$"),
    ({"n": 50, "sf_m": 5}, r"^config key sf_m must be a list of numbers, got 5$"),
    ({"n": "fifty", "sf_m": [2]},
     r"^config key n must be an integer, got 'fifty'$"),
    ({"n": 50, "sf_m": [2], "seeds_per_cell": "3"},
     r"^config key seeds_per_cell must be an integer, got '3'$"),
    ({"n": 50, "sf_m": [2, 2.5]},
     r"^config key sf_m must be a list of integers, got \[2, 2\.5\]$"),
    ({"n": 50, "sw_k": [4.5]},
     r"^config key sw_k must be a list of integers, got \[4\.5\]$"),
    ({"n": 50, "got": {"epochs": "5"}},
     r"^config key got\.epochs must be an integer or null, got '5'$"),
    ({"n": 50, "got": {"thieves_per_node": 1.0}},
     r"^config key got\.thieves_per_node must be an integer, got 1\.0$"),
    ({"n": 50, "got": {"vdiamonds_per_node": True}},
     r"^config key got\.vdiamonds_per_node must be an integer or null, "
     r"got True$"),
    # a removed field is an unknown key
    ({"n": 50, "got": {"log_base": 10}},
     r"^unknown config key\(s\): got\.log_base$"),
    ({"n": 50, "kpath": {"k": "3"}},
     r"^config key kpath\.k must be an integer, got '3'$"),
    ({"n": 50, "kpath": {"walks_per_slot": 2.0}},
     r"^config key kpath\.walks_per_slot must be an integer, got 2\.0$"),
    # cell_scores derives the got and kpath seeds per cell
    ({"n": 50, "kpath": {"seed": None}},
     r"^unknown config key\(s\): kpath\.seed$"),
    ({"n": 50, "sf_m": [2], "seeds_per_cell": 0},
     r"^config key seeds_per_cell must be at least 1, got 0$"),
    ({"n": 50, "sf_m": [2], "seeds_per_cell": -1},
     r"^config key seeds_per_cell must be at least 1, got -1$"),
    ({"n": 50, "sf_m": [2], "got": {"seed": 7}},
     r"^unknown config key\(s\): got\.seed$"),
    # checks that need no graph, made when the section is built
    ({"n": 50, "got": {"log_base": "3"}},
     r"^unknown config key\(s\): got\.log_base$"),
    ({"n": 50, "got": {"mean_convention": "per-epoch"}},
     r"^unknown config key\(s\): got\.mean_convention$"),
    ({"n": 50, "got": {"thieves_per_node": 0}},
     r"^config key got\.thieves_per_node must be at least 1, got 0$"),
    ({"n": 50, "got": {"vdiamonds_per_node": -2}},
     r"^config key got\.vdiamonds_per_node must be at least 1, got -2$"),
    ({"n": 50, "got": {"epochs": 0}},
     r"^config key got\.epochs must be at least 1, got 0$"),
    ({"n": 50, "kpath": {"k": 0}},
     r"^config key kpath\.k must be at least 1, got 0$"),
    # a shared probability out of range, before any cell runs
    ({"n": 60, "sf_m": [2], "sf_triangle_p": 1.5},
     r"^config key sf_triangle_p must be in \[0, 1\], got 1\.5$"),
    ({"n": 60, "sw_k": [4], "sw_shortcut_p": -0.1},
     r"^config key sw_shortcut_p must be in \[0, 1\], got -0\.1$"),
    ({"n": 50, "got": {"mean_convention": "arithmetic"}},
     r"^unknown config key\(s\): got\.mean_convention$"),
    # the total walk count gave way to a whole count per slot
    ({"n": 50, "kpath": {"rho": 20000}},
     r"^unknown config key\(s\): kpath\.rho$"),
    ({"n": 50, "kpath": {"walks_per_slot": 0}},
     r"^config key kpath\.walks_per_slot must be at least 1, got 0$"),
    ({"n": 50, "kpath": {"walks_per_slot": "4"}},
     r"^config key kpath\.walks_per_slot must be an integer, got '4'$"),
    # no graph has an edge below two nodes, so every cell would fail
    ({"n": 0, "sf_m": [2], "er_p": [0.5]},
     r"^config key n must be at least 2, got 0$"),
    ({"n": 1, "er_p": [0.5]}, r"^config key n must be at least 2, got 1$"),
    # a repeated parameter would run its cells twice, with the same seeds
    ({"n": 50, "sf_m": [2, 2.0]},
     r"^config key sf_m must hold distinct values, got \[2, 2\]$"),
    ({"n": 50, "er_p": [1, 1.0]},
     r"^config key er_p must hold distinct values, got \[1\.0, 1\.0\]$"),
    # JSON's NaN and Infinity, which a cell could neither run nor report
    ({"n": 60, "er_p": [float("nan")], "sf_m": [2]},
     r"^config key er_p must be a list of finite numbers, got \[nan\]$"),
    ({"n": 60, "er_p": [0.1, float("inf")]},
     r"^config key er_p must be a list of finite numbers, got \[0\.1, inf\]$"),
    ({"n": 60, "sw_k": [4, float("-inf")]},
     r"^config key sw_k must be a list of finite numbers, got \[4, -inf\]$"),
]
BAD_VALUES = [case for case in BAD_CONFIGS
              if case[1].startswith("^config key ")]


def case_ids(cases):
    """Each case's config as JSON: an edit to one case leaves the ids of
    the others as they are."""
    return [json.dumps(d, separators=(",", ":")) for d, _ in cases]


class TestExperimentConfig:
    def test_round_trip_via_file(self, tmp_path):
        cfg = ExperimentConfig(n=100, sf_m=[2], sw_k=[4], er_p=[0.1],
                               seeds_per_cell=2, base_seed=5,
                               got=GotConfig(epochs=10),
                               kpath=KpathConfig(k=3))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.to_dict()), encoding="utf-8")
        loaded = ExperimentConfig.from_file(path)
        assert loaded == cfg

    def test_cells_enumerates_families_and_seeds(self):
        cfg = ExperimentConfig(n=50, sf_m=[2, 3], er_p=[0.1], seeds_per_cell=2)
        cells = cfg.cells()
        assert len(cells) == (2 + 1) * 2
        assert cells[0][0] == "SF"
        # distinct deterministic cell seeds
        seeds = [c[2] for c in cells]
        assert len(set(seeds)) == len(seeds)
        assert cfg.cells() == cells

    @pytest.mark.parametrize("d, message", BAD_CONFIGS,
                             ids=case_ids(BAD_CONFIGS))
    def test_from_dict_names_bad_keys(self, d, message):
        with pytest.raises(ValueError, match=message):
            ExperimentConfig.from_dict(d)

    @pytest.mark.parametrize("d, message", BAD_VALUES,
                             ids=case_ids(BAD_VALUES))
    def test_python_constructors_raise_the_same_text(self, d, message):
        # a section's own message has no "config key <section>." prefix
        message = re.sub(r"^\^config key (got|kpath)\\\.", "^", message)
        with pytest.raises(ValueError, match=message):
            kwargs = dict(d)
            for key, sub in (("got", GotConfig), ("kpath", KpathConfig)):
                if key in kwargs:
                    kwargs[key] = sub(**kwargs[key])
            ExperimentConfig(**kwargs)

    @pytest.mark.parametrize("cls, name", [
        (cls, f.name) for cls in (ExperimentConfig, GotConfig, KpathConfig)
        for f in fields(cls)])
    @pytest.mark.parametrize("bad", ["1", object()], ids=["str", "object"])
    def test_every_field_rejects_a_value_of_the_wrong_type(self, cls, name,
                                                           bad):
        kwargs = {"n": 50} if cls is ExperimentConfig else {}
        with pytest.raises(ValueError) as err:
            cls(**{**kwargs, name: bad})
        prefix = "config key " if cls is ExperimentConfig else ""
        assert str(err.value).startswith(f"{prefix}{name} must be ")

    @pytest.mark.parametrize("key, whole, same", [
        ("sf_m", 5.0, 5), ("sw_k", np.float32(4.0), 4), ("er_p", 1, 1.0),
        ("er_p", np.int32(1), 1.0)])
    def test_a_parameter_spelled_two_ways_runs_the_same_cells(
            self, key, whole, same):
        cfg = ExperimentConfig(n=50, **{key: (whole,)})
        assert cfg.cells() == ExperimentConfig(n=50, **{key: [same]}).cells()
        assert getattr(cfg, key) == [same]
        assert type(getattr(cfg, key)[0]) is type(same)

    def test_numpy_scalars_pass_the_type_checks(self, tmp_path):
        # an integer is any numbers.Integral, a number any numbers.Real; each
        # is stored as Python's int or float, so the report can be written
        cfg = ExperimentConfig(
            n=np.int64(50), sf_m=[np.int32(2)], seeds_per_cell=np.int64(2),
            sf_triangle_p=np.float32(0.5),
            got=GotConfig(epochs=np.int64(5), thieves_per_node=np.uint8(2)),
            kpath=KpathConfig(k=np.int32(3), walks_per_slot=np.int64(3)))
        twin = ExperimentConfig(
            n=50, sf_m=[2], seeds_per_cell=2, sf_triangle_p=0.5,
            got=GotConfig(epochs=5, thieves_per_node=2),
            kpath=KpathConfig(k=3, walks_per_slot=3))
        assert cfg.sf_m == [2] and type(cfg.sf_m[0]) is int

        def typed(v):
            if isinstance(v, dict):
                return {k: typed(x) for k, x in v.items()}
            if isinstance(v, list):
                return [typed(x) for x in v]
            return type(v), v

        assert typed(cfg.to_dict()) == typed(twin.to_dict())
        run_experiment(cfg, tmp_path)
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["config"] == twin.to_dict()

    def test_a_whole_float_parameter_runs_as_its_int(self, tmp_path):
        cfg = ExperimentConfig.from_dict({"n": 60, "sf_m": [3.0],
                                          "got": {"epochs": 10},
                                          "kpath": {"k": 3}})
        assert cfg.cells() == ExperimentConfig(n=60, sf_m=[3]).cells()
        records, _ = run_experiment(cfg, tmp_path)
        assert {(r.param, type(r.param)) for r in records} == {(3, int)}

    def test_from_dict_accepts_nulls_and_whole_floats(self):
        cfg = ExperimentConfig.from_dict(
            {"n": 50, "sf_m": [5.0], "sw_k": [4],
             "got": {"epochs": None, "vdiamonds_per_node": None},
             "kpath": {"k": 3, "walks_per_slot": 4}})
        assert cfg.sf_m == [5]
        assert cfg.got == GotConfig()
        assert cfg.kpath == KpathConfig(k=3)

    @pytest.mark.parametrize("section, value, key", [
        ("got", GotConfig(seed=7), "got.seed"),
        ("kpath", KpathConfig(seed=123), "kpath.seed"),
        ("got", GotConfig(seed=-1), "got.seed"),
    ])
    def test_python_config_rejects_a_seed_run_cell_would_ignore(
            self, section, value, key):
        with pytest.raises(ValueError, match=rf"^config key {key} must be 0"):
            ExperimentConfig(n=60, sf_m=[2], **{section: value})

    @pytest.mark.parametrize("count", [0, -1])
    def test_python_config_rejects_a_seed_count_below_one(self, count):
        # the same check and message as the JSON path, before run_experiment
        # could read the empty cell list as empty parameter lists
        with pytest.raises(ValueError) as err:
            ExperimentConfig(n=50, sf_m=[2], seeds_per_cell=count)
        assert str(err.value) == (f"config key seeds_per_cell must be at "
                                  f"least 1, got {count}")

    def test_python_config_bounds_the_stock_sums_by_n(self):
        # no component has more than n nodes, so the largest stock that fits
        # n nodes fits every cell, and one more is refused before any cell
        vd = np.iinfo(np.int64).max // (9 * 50)
        ExperimentConfig(n=50, er_p=[0.2],
                         got=GotConfig(vdiamonds_per_node=vd, epochs=8))
        for too_many in (vd + 1, 2**62):
            with pytest.raises(ValueError) as err:
                ExperimentConfig(n=50, er_p=[0.2], got=GotConfig(
                    vdiamonds_per_node=too_many, epochs=8))
            assert str(err.value) == (
                f"config key got.vdiamonds_per_node={too_many} is too large: "
                f"9 stock snapshots of 50 nodes overflow int64")


PLOT_DIGESTS = {
    "pearson": "e10cb2b43de814f55670fd277760debdd58fc8427e5fbd4efd5ad57ed8977d52",
    "spearman": "edad8d7b4be465eff3c5ae4e8dd5c302d417daef260d9dfbbacff048dde5c213",
    "kendall": "ec887b4136d6fae6b90e983d603f027c420b8209ec431e383bd84bc46d27cbb0",
}


class TestRunExperiment:
    def test_empty_config_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="nothing to run"):
            run_experiment(ExperimentConfig(n=50), tmp_path)

    def test_an_unusable_out_dir_fails_before_any_cell(self, tmp_path,
                                                       monkeypatch):
        ran = []
        monkeypatch.setattr(harness, "run_cell",
                            lambda *args: ran.append(args) or ([], {}))
        taken = tmp_path / "a_file"
        taken.write_text("")
        with pytest.raises(OSError):
            run_experiment(ExperimentConfig(n=50, sf_m=[2]), taken)
        assert ran == []

    def test_a_clean_rerun_removes_an_old_errors_csv(self, tmp_path):
        settings = dict(n=60, base_seed=4, got=GotConfig(epochs=10),
                        kpath=KpathConfig(k=3))
        _, errors = run_experiment(ExperimentConfig(er_p=[0.0], **settings),
                                   tmp_path)
        assert len(errors) == 1 and (tmp_path / "errors.csv").exists()
        _, errors = run_experiment(ExperimentConfig(er_p=[0.1], **settings),
                                   tmp_path)
        assert errors == [] and not (tmp_path / "errors.csv").exists()

    def test_reports_and_partial_failure(self, tmp_path):
        cfg = ExperimentConfig(n=80, sf_m=[2], er_p=[0.08, 0.0],
                               seeds_per_cell=1, base_seed=3,
                               got=GotConfig(epochs=15),
                               kpath=KpathConfig(k=3))
        records, errors = run_experiment(cfg, tmp_path)
        # the p=0 ER cell fails, the other two succeed
        assert len(records) == 2 * 15
        assert len(errors) == 1
        assert "degenerate" in errors[0]["error"]

        with open(tmp_path / "report.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == CSV_COLUMNS
        assert len(rows) == 1 + len(records)
        assert all(row[0] == str(SCHEMA_VERSION) for row in rows[1:])

        doc = json.loads((tmp_path / "report.json").read_text())
        assert list(doc) == ["schema_version", "config", "records", "cells"]
        assert doc["schema_version"] == SCHEMA_VERSION == 2
        assert len(doc["records"]) == len(records)
        assert all(list(r) == CSV_COLUMNS[1:] for r in doc["records"])
        assert [c for c in doc["cells"] if "error" in c] == errors
        assert doc["config"]["n"] == 80
        assert list(doc["cells"][0]["stage_wall_ms"]) == STAGES

        for coeff in ("pearson", "spearman", "kendall"):
            with open(tmp_path / f"plot_{coeff}.csv", newline="") as fh:
                plot_rows = list(csv.reader(fh))
            # lossless projection: one row per record of that coefficient
            assert len(plot_rows) - 1 == sum(
                1 for r in records if r.coefficient == coeff)

        with open(tmp_path / "errors.csv", newline="") as fh:
            err_rows = list(csv.reader(fh))
        assert len(err_rows) == 2

    def test_two_workers_match_one(self, tmp_path):
        cfg = ExperimentConfig(n=60, sf_m=[2], er_p=[0.1, 0.0], base_seed=2,
                               got=GotConfig(epochs=10),
                               kpath=KpathConfig(k=3))
        serial = run_experiment(cfg, tmp_path / "one", workers=1)
        pooled = run_experiment(cfg, tmp_path / "two", workers=2)
        untimed = lambda r: replace(r, wall_ms=0.0)
        for records, errors in (serial, pooled):
            assert len(records) == 2 * 15
            assert len(errors) == 1 and errors[0]["param"] == 0.0
        assert pooled[1] == serial[1]
        assert [untimed(r) for r in pooled[0]] == [untimed(r) for r in serial[0]]
        cells = [[{k: v for k, v in c.items() if k != "stage_wall_ms"}
                  for c in json.loads((out / "report.json").read_text())["cells"]]
                 for out in (tmp_path / "one", tmp_path / "two")]
        assert cells[0] == cells[1]
        assert len(cells[0]) == 3

    def test_one_cells_entry_per_cell_in_order(self, tmp_path):
        cfg = ExperimentConfig(n=60, er_p=[0.0, 0.1], base_seed=5,
                               got=GotConfig(epochs=10),
                               kpath=KpathConfig(k=3))
        records, errors = run_experiment(cfg, tmp_path)
        cells = json.loads((tmp_path / "report.json").read_text())["cells"]
        assert len(cells) == 2
        assert [(c["family"], c["n"], c["param"], c["seed"]) for c in cells] \
            == [("ER", 60, param, seed) for _, param, seed in cfg.cells()]
        failed, finished = cells
        assert set(failed) == {"family", "n", "param", "seed", "error"}
        assert "degenerate" in failed["error"]
        assert errors == [failed]
        assert set(finished) == {"family", "n", "param", "seed",
                                 "stage_wall_ms"}
        assert list(finished["stage_wall_ms"]) == STAGES
        assert len(records) == 15
        assert all(r.param == 0.1 for r in records)

    def test_plot_files_match_recorded_digests(self, tmp_path):
        # sha256 of each plot_*.csv, recorded when run_cell still ran its
        # stages and pairs inline: the same records, byte for byte
        cfg = ExperimentConfig(n=200, sf_m=[3], er_p=[0.04], seeds_per_cell=2,
                               base_seed=33, got=GotConfig(epochs=30),
                               kpath=KpathConfig(k=4, walks_per_slot=2),
                               all_pairs=True)
        records, _ = run_experiment(cfg, tmp_path)
        assert len(records) == 4 * 33
        assert {coeff: hashlib.sha256(
            (tmp_path / f"plot_{coeff}.csv").read_bytes()).hexdigest()
            for coeff in COEFFICIENTS} == PLOT_DIGESTS

    def test_csv_values_parse_back_exactly(self, tmp_path):
        cfg = ExperimentConfig(n=60, er_p=[0.1], base_seed=1,
                               got=GotConfig(epochs=10),
                               kpath=KpathConfig(k=3))
        records, _ = run_experiment(cfg, tmp_path)
        with open(tmp_path / "report.csv", newline="") as fh:
            reader = csv.DictReader(fh)
            for row, rec in zip(reader, records):
                assert float(row["value"]) == rec.value
                assert int(row["lcc_n"]) == rec.lcc_n
