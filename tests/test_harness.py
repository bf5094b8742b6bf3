import csv
import json
from dataclasses import replace

import pytest

from centbench import (CellError, ExperimentConfig, GotConfig, KpathConfig,
                       run_cell, run_experiment)
from centbench.harness import CSV_COLUMNS, SCHEMA_VERSION
from centbench.rng import derive_seed


FAST_GOT = GotConfig(epochs=40)
FAST_KPATH = KpathConfig(k=5)


class TestRunCell:
    def test_sf_cell_produces_15_full_records(self):
        records = run_cell("SF", 200, 5, seed=1, got_cfg=FAST_GOT,
                           kpath_cfg=FAST_KPATH)
        assert len(records) == 15
        pairs = {r.pair for r in records}
        assert pairs == {"got_node_vs_dc", "got_node_vs_bc", "got_node_vs_cl",
                         "got_node_vs_cc", "got_edge_vs_kpath"}
        assert {r.coefficient for r in records} == {"pearson", "spearman",
                                                    "kendall"}
        assert all(r.value is not None for r in records)
        assert all(-1 - 1e-12 <= r.value <= 1 + 1e-12 for r in records)
        assert all(r.lcc_n == 200 for r in records)

    def test_degenerate_cell_fails_without_partial_records(self):
        with pytest.raises(CellError, match="family=ER.*degenerate"):
            run_cell("ER", 200, 0.0, seed=1)

    def test_deterministic_modulo_wall_time(self):
        a = run_cell("ER", 120, 0.05, seed=9, got_cfg=FAST_GOT,
                     kpath_cfg=FAST_KPATH)
        b = run_cell("ER", 120, 0.05, seed=9, got_cfg=FAST_GOT,
                     kpath_cfg=FAST_KPATH)
        strip = lambda r: (r.family, r.n, r.param, r.seed, r.lcc_n, r.lcc_m,
                           r.pair, r.coefficient, r.value)
        assert [strip(r) for r in a] == [strip(r) for r in b]

    def test_all_pairs_flag_adds_exact_cross_correlations(self):
        records = run_cell("SW", 60, 4, seed=2, got_cfg=FAST_GOT,
                           kpath_cfg=FAST_KPATH, all_pairs=True)
        assert len(records) == 15 + 6 * 3
        assert any(r.pair == "dc_vs_bc" for r in records)

    def test_stage_sub_seeds_are_derived_from_cell_seed(self):
        assert derive_seed(7, "gen") != derive_seed(7, "got")
        assert derive_seed(7, "got") != derive_seed(7, "kpath")
        assert derive_seed(7, "gen") == derive_seed(7, "gen")
        assert derive_seed(8, "gen") != derive_seed(7, "gen")


class TestExperimentConfig:
    def test_round_trip_via_file(self, tmp_path):
        cfg = ExperimentConfig(n=100, sf_m=[2], sw_k=[4], er_p=[0.1],
                               seeds_per_cell=2, base_seed=5,
                               got=GotConfig(epochs=10),
                               kpath=KpathConfig(k=3))
        path = tmp_path / "cfg.json"
        cfg.write(path)
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


    @pytest.mark.parametrize("d, message", [
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
        ({"n": 50, "got": {"log_base": 10}},
         r"^config key got\.log_base must be a string, got 10$"),
        ({"n": 50, "kpath": {"k": "3"}},
         r"^config key kpath\.k must be an integer, got '3'$"),
        ({"n": 50, "kpath": {"rho": 2.0}},
         r"^config key kpath\.rho must be an integer or null, got 2\.0$"),
        ({"n": 50, "kpath": {"seed": None}},
         r"^config key kpath\.seed must be an integer, got None$"),
        ({"n": 50, "sf_m": [2], "seeds_per_cell": 0},
         r"^config key seeds_per_cell must be at least 1, got 0$"),
        ({"n": 50, "sf_m": [2], "seeds_per_cell": -1},
         r"^config key seeds_per_cell must be at least 1, got -1$"),
    ])
    def test_from_dict_names_bad_keys(self, d, message):
        with pytest.raises(ValueError, match=message):
            ExperimentConfig.from_dict(d)

    def test_from_dict_accepts_nulls_and_whole_floats(self):
        cfg = ExperimentConfig.from_dict(
            {"n": 50, "sf_m": [5.0], "sw_k": [4],
             "got": {"epochs": None, "vdiamonds_per_node": None,
                     "log_base": "2", "seed": 3},
             "kpath": {"k": 3, "rho": None}})
        assert cfg.sf_m == [5.0]
        assert cfg.got == GotConfig(log_base="2", seed=3)
        assert cfg.kpath == KpathConfig(k=3)


class TestRunExperiment:
    def test_empty_config_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="nothing to run"):
            run_experiment(ExperimentConfig(n=50), tmp_path)

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
        assert doc["schema_version"] == SCHEMA_VERSION
        assert len(doc["records"]) == len(records)
        assert doc["errors"] == errors
        assert doc["config"]["n"] == 80
        stage_keys = set(doc["records"][0]["stage_wall_ms"])
        assert {"gen", "lcc", "dc", "bc", "cl", "cc", "got",
                "kpath", "corr"} <= stage_keys

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
        untimed = lambda r: replace(r, wall_ms=0.0, stage_wall_ms={})
        for records, errors in (serial, pooled):
            assert len(records) == 2 * 15
            assert len(errors) == 1 and errors[0]["param"] == 0.0
        assert pooled[1] == serial[1]
        assert [untimed(r) for r in pooled[0]] == [untimed(r) for r in serial[0]]

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
