"""Experiment orchestration: generate graphs, score them, correlate, report.

A *cell* is one (family, n, param, seed) combination. Each cell generates
its graph, reduces to the largest connected component, computes the four
exact node centralities plus the thief-simulation node score, correlates
the simulation score against each exact measure with all three
coefficients (12 records), then correlates the simulation edge score
against the k-path estimate (3 records): 15 records per cell.

Reproducibility: the cell seed never feeds an algorithm directly. Three
sub-seeds are derived from it with ``derive_seed(cell_seed, tag)`` for the
tags "gen", "got" and "kpath", so the stages have independent streams and
any stage can be replayed in isolation.

Reports: a CSV with one row per record (fixed, versioned schema), a JSON
document carrying the same records plus per-cell stage timings and any
cell errors, and one plot-data CSV per coefficient laid out for
value-vs-parameter curves (one series per measure pair). Failed cells are
recorded as error entries and the run continues.
"""
from __future__ import annotations

import csv
import json
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from itertools import combinations
from pathlib import Path

from .exact import (betweenness_centrality, closeness_centrality,
                    clustering_coefficient, degree_centrality)
from .generators import GeneratorSpec
from .got import GotConfig, run_got
from .graph import largest_connected_component
from .kpath import KpathConfig, werw_kpath
from .rng import derive_seed
from .stats import correlate

SCHEMA_VERSION = 1
CSV_COLUMNS = ["schema_version", "family", "n", "param", "seed", "lcc_n",
               "lcc_m", "pair", "coefficient", "value", "wall_ms"]
PLOT_COLUMNS = ["family", "n", "param", "seed", "pair", "coefficient", "value"]
ERROR_COLUMNS = ["family", "n", "param", "seed", "error"]
NODE_MEASURES = ("dc", "bc", "cl", "cc")
COEFFICIENTS = ("pearson", "spearman", "kendall")


class CellError(RuntimeError):
    """A cell failed; the message carries the cell context."""


@dataclass(frozen=True)
class ExperimentRecord:
    family: str
    n: int
    param: float
    seed: int
    lcc_n: int
    lcc_m: int
    pair: str
    coefficient: str
    value: float | None
    wall_ms: float                      # whole-cell wall time
    stage_wall_ms: dict[str, float] = field(default_factory=dict)

    def csv_row(self) -> list:
        return [SCHEMA_VERSION, self.family, self.n, self.param, self.seed,
                self.lcc_n, self.lcc_m, self.pair, self.coefficient,
                "" if self.value is None else repr(self.value),
                f"{self.wall_ms:.3f}"]


@dataclass(frozen=True)
class ExperimentConfig:
    """Full experiment matrix; serializes 1:1 to the JSON config file."""
    n: int
    sf_m: list[int] = field(default_factory=list)
    sw_k: list[int] = field(default_factory=list)
    er_p: list[float] = field(default_factory=list)
    sf_triangle_p: float = 0.3
    sw_shortcut_p: float = 0.6
    seeds_per_cell: int = 1
    base_seed: int = 0
    got: GotConfig = field(default_factory=GotConfig)
    kpath: KpathConfig = field(default_factory=KpathConfig)
    all_pairs: bool = False

    def cells(self) -> list[tuple[str, float, int]]:
        """(family, param, cell_seed) triples in deterministic order."""
        out = []
        for family, params in (("SF", self.sf_m), ("SW", self.sw_k),
                               ("ER", self.er_p)):
            for param in params:
                for i in range(self.seeds_per_cell):
                    cell_seed = derive_seed(self.base_seed,
                                            f"{family}:{param!r}:{i}")
                    out.append((family, param, cell_seed))
        return out

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        """Build from the JSON form; ValueError names any unknown or
        missing key, a value of the wrong type, and a config or section
        that is not a JSON object."""
        d = _checked(cls, d, "")
        for key, sub in (("got", GotConfig), ("kpath", KpathConfig)):
            if key in d:
                d[key] = sub(**_checked(sub, d[key], key))
        return cls(**d)

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def write(self, path) -> None:
        _write_json(path, self.to_dict())


def _checked(cls, d: dict, section: str) -> dict:
    """A copy of ``d``, checked to be an object holding every required field
    of ``cls``, no other key, and values of the types in ``_VALUE_TYPES``;
    ``section`` is "" for the top level."""
    if not isinstance(d, dict):
        where = f"config section {section}" if section else "config"
        raise ValueError(f"{where} must be a JSON object, "
                         f"got {type(d).__name__}")
    prefix = f"{section}." if section else ""
    unknown = sorted(set(d) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError("unknown config key(s): "
                         + ", ".join(prefix + k for k in unknown))
    missing = [f.name for f in fields(cls) if f.name not in d
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ValueError("missing config key(s): "
                         + ", ".join(prefix + k for k in missing))
    for keys, ok, kind in _VALUE_TYPES[section]:
        for key in keys:
            if key in d and not ok(d[key]):
                raise ValueError(f"config key {prefix}{key} must be {kind}, "
                                 f"got {d[key]!r}")
    return dict(d)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_int_or_null(v) -> bool:
    return v is None or _is_int(v)


def _is_list_of(ok):
    return lambda v: isinstance(v, list) and all(map(ok, v))


# the type each value of a JSON config must have, per section ("" is the
# top level); JSON true/false load as bool, a subclass of int, so the
# numeric checks exclude it. A key's checks run in order and the first
# failing one is named.
_VALUE_TYPES = {
    "": (
        (("n", "seeds_per_cell", "base_seed"), _is_int, "an integer"),
        (("seeds_per_cell",), lambda v: v >= 1, "at least 1"),
        (("sf_m", "sw_k", "er_p"), _is_list_of(_is_number),
         "a list of numbers"),
        (("sf_m", "sw_k"),
         _is_list_of(lambda v: _is_int(v) or float(v).is_integer()),
         "a list of integers"),
        (("sf_triangle_p", "sw_shortcut_p"), _is_number, "a number"),
        (("all_pairs",), lambda v: isinstance(v, bool), "true or false"),
    ),
    "got": (
        (("thieves_per_node", "seed"), _is_int, "an integer"),
        (("vdiamonds_per_node", "epochs"), _is_int_or_null,
         "an integer or null"),
        (("log_base", "mean_convention"), lambda v: isinstance(v, str),
         "a string"),
    ),
    "kpath": (
        (("k", "seed"), _is_int, "an integer"),
        (("rho",), _is_int_or_null, "an integer or null"),
    ),
}


def _generator_spec(family: str, n: int, param: float, seed: int,
                    sf_triangle_p: float, sw_shortcut_p: float) -> GeneratorSpec:
    aux_p = {"SF": sf_triangle_p, "SW": sw_shortcut_p}.get(family, 0.0)
    return GeneratorSpec(family, n, param, aux_p, seed)


def run_cell(family: str, n: int, param: float, seed: int,
             got_cfg: GotConfig | None = None,
             kpath_cfg: KpathConfig | None = None,
             sf_triangle_p: float = 0.3,
             sw_shortcut_p: float = 0.6,
             all_pairs: bool = False) -> list[ExperimentRecord]:
    """Run one experiment cell; returns its 15 records (more with all_pairs).

    Raises CellError (with full cell context) on any stage failure; a failed
    cell produces no partial records.
    """
    got_cfg = got_cfg or GotConfig()
    kpath_cfg = kpath_cfg or KpathConfig()
    stage_ms: dict[str, float] = {}
    cell_t0 = time.perf_counter()

    def _timed(tag, fn):
        t0 = time.perf_counter()
        result = fn()
        stage_ms[tag] = (time.perf_counter() - t0) * 1000.0
        return result

    try:
        spec = _generator_spec(family, n, param, derive_seed(seed, "gen"),
                               sf_triangle_p, sw_shortcut_p)
        g = _timed("gen", spec.generate)
        lcc, _ = _timed("lcc", lambda: largest_connected_component(g))
        if lcc.n < 2 or lcc.m == 0:
            raise ValueError(
                f"largest connected component is degenerate "
                f"(n={lcc.n}, m={lcc.m}); nothing to measure")
        node_scores = {
            "dc": _timed("dc", lambda: degree_centrality(lcc)),
            "bc": _timed("bc", lambda: betweenness_centrality(lcc)),
            "cl": _timed("cl", lambda: closeness_centrality(lcc)),
            "cc": _timed("cc", lambda: clustering_coefficient(lcc)),
        }
        got_res = _timed("got", lambda: run_got(
            lcc, replace(got_cfg, seed=derive_seed(seed, "got"))))
        kpath_scores = _timed("kpath", lambda: werw_kpath(
            lcc, replace(kpath_cfg, seed=derive_seed(seed, "kpath"))))
    except Exception as exc:
        raise CellError(f"family={family} n={n} param={param} seed={seed}: "
                        f"{exc}") from exc

    pairs: list[tuple[str, object, object]] = [
        (f"got_node_vs_{name}", got_res.phi, node_scores[name])
        for name in NODE_MEASURES
    ]
    pairs.append(("got_edge_vs_kpath", got_res.psi, kpath_scores))
    if all_pairs:
        pairs += [(f"{a}_vs_{b}", node_scores[a], node_scores[b])
                  for a, b in combinations(NODE_MEASURES, 2)]

    results = _timed("corr", lambda: [correlate(a, b) for _, a, b in pairs])
    # every record of the cell reports the same whole-cell wall time
    total_ms = (time.perf_counter() - cell_t0) * 1000.0
    return [ExperimentRecord(family=family, n=n, param=param, seed=seed,
                             lcc_n=lcc.n, lcc_m=lcc.m, pair=pair_name,
                             coefficient=coeff, value=value, wall_ms=total_ms,
                             stage_wall_ms=dict(stage_ms))
            for (pair_name, _, _), res in zip(pairs, results)
            for coeff, value in zip(COEFFICIENTS, (res.r, res.rho, res.tau))]


def _run_cell_task(args) -> tuple[list[ExperimentRecord], dict | None]:
    """One cell's (records, None), or ([], its error entry) if it failed."""
    try:
        return run_cell(*args), None
    except CellError as exc:
        return [], dict(zip(ERROR_COLUMNS, (*args[:4], str(exc))))


def run_experiment(cfg: ExperimentConfig, out_dir,
                   workers: int = 1) -> tuple[list[ExperimentRecord], list[dict]]:
    """Run every cell of the matrix and write all report files.

    Returns (records, errors). Cell failures become error entries; the run
    continues past them. With ``workers`` > 1 the cells run in a process
    pool; the records and errors come back in cell order either way.
    """
    cells = cfg.cells()
    if not cells:
        raise ValueError("nothing to run: all family parameter lists are empty")
    tasks = [(family, cfg.n, param, seed, cfg.got, cfg.kpath,
              cfg.sf_triangle_p, cfg.sw_shortcut_p, cfg.all_pairs)
             for family, param, seed in cells]
    records: list[ExperimentRecord] = []
    errors: list[dict] = []
    with (ProcessPoolExecutor(max_workers=workers) if workers > 1
          else nullcontext()) as pool:
        for cell_records, error in (pool.map if pool else map)(_run_cell_task,
                                                               tasks):
            records.extend(cell_records)
            if error is not None:
                errors.append(error)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_csv_report(records, out / "report.csv")
    write_json_report(cfg, records, errors, out / "report.json")
    for coeff in COEFFICIENTS:
        write_plot_data(records, coeff, out / f"plot_{coeff}.csv")
    if errors:
        write_error_csv(errors, out / "errors.csv")
    return records, errors


def _write_csv(path, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def write_csv_report(records: list[ExperimentRecord], path) -> None:
    _write_csv(path, CSV_COLUMNS, (rec.csv_row() for rec in records))


def write_json_report(cfg: ExperimentConfig, records, errors, path) -> None:
    _write_json(path, {"schema_version": SCHEMA_VERSION,
                       "config": cfg.to_dict(),
                       "records": [asdict(r) for r in records],
                       "errors": errors})


def write_plot_data(records: list[ExperimentRecord], coefficient: str, path) -> None:
    """One coefficient's records, shaped for value-vs-parameter plotting:
    the report CSV's rows for that coefficient, in the plot columns."""
    keep = [CSV_COLUMNS.index(c) for c in PLOT_COLUMNS]
    _write_csv(path, PLOT_COLUMNS, ([rec.csv_row()[i] for i in keep]
                                    for rec in records
                                    if rec.coefficient == coefficient))


def write_error_csv(errors: list[dict], path) -> None:
    _write_csv(path, ERROR_COLUMNS,
               ([err[c] for c in ERROR_COLUMNS] for err in errors))
