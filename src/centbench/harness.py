"""Experiment orchestration: generate graphs, score them, correlate, report.

A *cell* is one (family, n, param, seed) combination. ``cell_scores`` runs
its stages in order: gen (the graph), lcc (its largest connected component),
dc, bc, cl and cc (the exact node centralities), got (the thief simulation's
node and edge scores) and kpath (the k-path edge estimate), each as
``stage(tag, fn, *args)``, whose return value is the stage's output.
``run_cell``'s hook times each call; a replay that needs only some stages
returns None for the others. The stage functions are this module's globals,
looked up at each call, because the benchmark (``perfbench/run.py``) wraps
them by name. ``run_cell`` then correlates the simulation node score with
each exact measure by all three coefficients (12 records) and its edge score
with the k-path estimate (3 records), timed as stage corr: 15 per cell.

Reproducibility: the cell seed never feeds an algorithm directly. Only
``cell_scores`` derives sub-seeds from it, ``derive_seed(cell_seed, tag)``
for the tags "gen" (its generator call), "got" and "kpath", so the stages
have independent streams and a cell's arguments replay its outputs.

Reports: a CSV with one row per record (fixed, versioned schema), a JSON
document carrying the same records plus one entry per cell (its key with
its stage timings, or its error if it failed), and one plot-data CSV per
coefficient laid out for value-vs-parameter curves (one series per measure
pair). A failed cell has no records, and the run continues.
"""
from __future__ import annotations

import csv
import json
import math
import time
from contextlib import nullcontext
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from itertools import combinations
from pathlib import Path

from .exact import (betweenness_centrality, closeness_centrality,
                    clustering_coefficient, degree_centrality)
from .generators import FAMILIES, GeneratorSpec
from .got import GotConfig, run_got
from .graph import check_fields, is_int, is_number, largest_connected_component
from .kpath import KpathConfig, werw_kpath
from .rng import derive_seed
from .stats import correlate

SCHEMA_VERSION = 2
CELL_KEY = ["family", "n", "param", "seed"]
CSV_COLUMNS = ["schema_version", *CELL_KEY, "lcc_n", "lcc_m", "pair",
               "coefficient", "value", "wall_ms"]
PLOT_COLUMNS = [*CELL_KEY, "pair", "coefficient", "value"]
ERROR_COLUMNS = [*CELL_KEY, "error"]
NODE_MEASURES = ("dc", "bc", "cl", "cc")
COEFFICIENTS = ("pearson", "spearman", "kendall")


# the default of each family's auxiliary probability, by config key
_AUX_DEFAULTS = {row.aux_key: row.aux_default for row in FAMILIES.values()
                 if row.aux_key}


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

    def csv_row(self) -> list:
        return [SCHEMA_VERSION, self.family, self.n, self.param, self.seed,
                self.lcc_n, self.lcc_m, self.pair, self.coefficient,
                "" if self.value is None else repr(self.value),
                f"{self.wall_ms:.3f}"]


@dataclass(frozen=True)
class ExperimentConfig:
    """Full experiment matrix; serializes 1:1 to the JSON config file, except
    for the got and kpath seeds, which ``cell_scores`` derives per cell. From
    JSON or Python, a bad value raises ValueError naming its key, a number
    is stored as Python's int or float, and a parameter as its family's
    type in ``generators.FAMILIES``: 5.0 runs as 5."""
    n: int
    sf_m: list[int] = field(default_factory=list)
    sw_k: list[int] = field(default_factory=list)
    er_p: list[float] = field(default_factory=list)
    sf_triangle_p: float = _AUX_DEFAULTS["sf_triangle_p"]
    sw_shortcut_p: float = _AUX_DEFAULTS["sw_shortcut_p"]
    seeds_per_cell: int = 1
    base_seed: int = 0
    got: GotConfig = field(default_factory=GotConfig)
    kpath: KpathConfig = field(default_factory=KpathConfig)
    all_pairs: bool = False

    def __post_init__(self):
        check_fields(self, _VALUE_TYPES, "config key ")
        for row in FAMILIES.values():
            values = [row.kind(v) for v in getattr(self, row.key)]
            if len(set(values)) < len(values):  # each would run twice
                raise ValueError(f"config key {row.key} must hold distinct "
                                 f"values, got {values}")
            object.__setattr__(self, row.key, values)
        for section in _SEEDED:
            if seed := getattr(self, section).seed:
                raise ValueError(f"config key {section}.seed must be 0 (the "
                                 f"seed is derived per cell), got {seed}")
        try:  # no component has more than n nodes, so n bounds every cell
            self.got.resolve(self.n)
        except ValueError as exc:  # a message led by vdiamonds_per_node
            raise ValueError(f"config key got.{exc}") from None

    def cells(self) -> list[tuple[str, float, int]]:
        """(family, param, cell_seed) triples in deterministic order."""
        return [(family, param,
                 derive_seed(self.base_seed, f"{family}:{param!r}:{i}"))
                for family, row in FAMILIES.items()
                for param in getattr(self, row.key)
                for i in range(self.seeds_per_cell)]

    def to_dict(self) -> dict:
        d = asdict(self)
        for section in _SEEDED:
            del d[section]["seed"]
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        """Build from the JSON form; ValueError names any unknown or
        missing key, a value of the wrong type, and a config or section
        that is not a JSON object."""
        d = _checked(cls, d, "")
        for key, sub in (("got", GotConfig), ("kpath", KpathConfig)):
            if key in d:
                checked = _checked(sub, d[key], key)
                try:
                    d[key] = sub(**checked)
                except ValueError as exc:  # a message led by the field name
                    raise ValueError(f"config key {key}.{exc}") from None
        return cls(**d)

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


def _checked(cls, d: dict, section: str) -> dict:
    """A copy of ``d``, checked to be an object holding every required field
    of ``cls`` and no other key; ``section`` is "" for the top level. The
    values are checked by ``cls`` itself."""
    if not isinstance(d, dict):
        where = f"config section {section}" if section else "config"
        raise ValueError(f"{where} must be a JSON object, "
                         f"got {type(d).__name__}")
    prefix = f"{section}." if section else ""
    derived = {"seed"} if section in _SEEDED else set()
    unknown = sorted(set(d) - ({f.name for f in fields(cls)} - derived))
    if unknown:
        raise ValueError("unknown config key(s): "
                         + ", ".join(prefix + k for k in unknown))
    missing = [f.name for f in fields(cls) if f.name not in d
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ValueError("missing config key(s): "
                         + ", ".join(prefix + k for k in missing))
    return dict(d)


# sections whose seed field has no config key: cell_scores replaces it with
# one derived from the cell seed
_SEEDED = ("got", "kpath")


def _is_list_of(ok):
    return lambda v: isinstance(v, (list, tuple)) and all(map(ok, v))


# the type of each top-level field, checked in order by __post_init__ (a
# section checks its own fields); JSON true/false load as bool, a subclass
# of int, so the numeric checks exclude it
_VALUE_TYPES = (
    (("n", "seeds_per_cell", "base_seed"), is_int, "an integer"),
    (tuple(row.key for row in FAMILIES.values()), _is_list_of(is_number),
     "a list of numbers"),
    # JSON's NaN and Infinity load as floats, which no cell can run or report
    (tuple(row.key for row in FAMILIES.values()), _is_list_of(math.isfinite),
     "a list of finite numbers"),
    (tuple(row.key for row in FAMILIES.values() if row.kind is int),
     _is_list_of(lambda v: is_int(v) or float(v).is_integer()),
     "a list of integers"),
    (tuple(_AUX_DEFAULTS), is_number, "a number"),
    (tuple(_AUX_DEFAULTS), lambda p: 0 <= p <= 1, "in [0, 1]"),
    (("all_pairs",), lambda v: isinstance(v, bool), "true or false"),
    (("got",), lambda v: isinstance(v, GotConfig), "a GotConfig"),
    (("kpath",), lambda v: isinstance(v, KpathConfig), "a KpathConfig"),
    (("n",), lambda n: n >= 2, "at least 2"),
    (("seeds_per_cell",), lambda v: v >= 1, "at least 1"),
)


def cell_scores(family: str, n: int, param: float, seed: int,
                got_cfg: GotConfig = GotConfig(),
                kpath_cfg: KpathConfig = KpathConfig(),
                aux_prob: float | None = None, *, stage) -> tuple:
    """Run one cell's stages through ``stage`` (see the module docstring);
    returns the LCC and its six scores by stage tag. ``aux_prob`` is the
    family's auxiliary probability, ``None`` for its default. ValueError if
    the LCC has no edge."""
    spec = GeneratorSpec(family, n, param, aux_prob, derive_seed(seed, "gen"))
    g = stage("gen", spec.generate)
    lcc, _ = stage("lcc", largest_connected_component, g)
    if lcc.n < 2 or lcc.m == 0:
        raise ValueError(f"largest connected component is degenerate "
                         f"(n={lcc.n}, m={lcc.m}); nothing to measure")
    scores = {tag: stage(tag, fn, lcc) for tag, fn in zip(
        NODE_MEASURES, (degree_centrality, betweenness_centrality,
                        closeness_centrality, clustering_coefficient))}
    scores["got"] = stage("got", run_got, lcc,
                          replace(got_cfg, seed=derive_seed(seed, "got")))
    scores["kpath"] = stage("kpath", werw_kpath, lcc,
                            replace(kpath_cfg, seed=derive_seed(seed, "kpath")))
    return lcc, scores


# (pair, score, score) in report order; pairs of exact measures need all_pairs
_PAIRS = (*((f"got_node_vs_{name}", "phi", name) for name in NODE_MEASURES),
          ("got_edge_vs_kpath", "psi", "kpath"),
          *((f"{a}_vs_{b}", a, b) for a, b in combinations(NODE_MEASURES, 2)))


def run_cell(family: str, n: int, param: float, seed: int,
             got_cfg: GotConfig = GotConfig(),
             kpath_cfg: KpathConfig = KpathConfig(),
             aux_prob: float | None = None,
             all_pairs: bool = False) -> tuple[list[ExperimentRecord], dict]:
    """Run one experiment cell; returns its 15 records (more with all_pairs)
    and the wall time of each stage in ms. The arguments before
    ``all_pairs`` are ``cell_scores``'s, which it runs with a timing hook.

    Raises CellError (with full cell context) on any stage failure, corr
    included; a failed cell produces no partial records.
    """
    stage_ms: dict[str, float] = {}
    cell_t0 = time.perf_counter()

    def timed(tag, fn, *args):
        t0 = time.perf_counter()
        result = fn(*args)
        stage_ms[tag] = (time.perf_counter() - t0) * 1000.0
        return result

    pairs = _PAIRS if all_pairs else _PAIRS[:len(NODE_MEASURES) + 1]
    try:
        lcc, scores = cell_scores(family, n, param, seed, got_cfg, kpath_cfg,
                                  aux_prob, stage=timed)
        scores.update(phi=scores["got"].phi, psi=scores["got"].psi)
        results = timed("corr", lambda: [correlate(scores[a], scores[b])
                                         for _, a, b in pairs])
    except Exception as exc:
        raise CellError(f"family={family} n={n} param={param} seed={seed}: "
                        f"{exc}") from exc
    # every record of the cell reports the same whole-cell wall time
    total_ms = (time.perf_counter() - cell_t0) * 1000.0
    return [ExperimentRecord(family=family, n=n, param=param, seed=seed,
                             lcc_n=lcc.n, lcc_m=lcc.m, pair=pair_name,
                             coefficient=coeff, value=value, wall_ms=total_ms)
            for (pair_name, _, _), res in zip(pairs, results)
            for coeff, value in zip(COEFFICIENTS,
                                    (res.r, res.rho, res.tau))], stage_ms


def _run_cell_task(args) -> tuple[list[ExperimentRecord], dict]:
    """One cell's records and its entry: the cell key with its stage
    timings, or with its error (and no records) if it failed."""
    entry = dict(zip(CELL_KEY, args[:4]))
    try:
        records, entry["stage_wall_ms"] = run_cell(*args)
    except CellError as exc:
        records, entry["error"] = [], str(exc)
    return records, entry


def run_experiment(cfg: ExperimentConfig, out_dir,
                   workers: int = 1) -> tuple[list[ExperimentRecord], list[dict]]:
    """Run every cell of the matrix and write all report files.

    Returns (records, errors), errors being the failed cells' entries; the
    run continues past them. With ``workers`` > 1 the cells run in a process
    pool; records and entries come back in cell order either way.
    """
    cells = cfg.cells()
    if not cells:
        raise ValueError("nothing to run: all family parameter lists are empty")
    out = Path(out_dir)  # made first: an unusable directory loses no cell
    out.mkdir(parents=True, exist_ok=True)
    aux = {family: getattr(cfg, row.aux_key) if row.aux_key else None
           for family, row in FAMILIES.items()}
    tasks = [(family, cfg.n, param, seed, cfg.got, cfg.kpath, aux[family],
              cfg.all_pairs) for family, param, seed in cells]
    if workers > 1:  # a serial run does not pay the pool's import
        from concurrent.futures import ProcessPoolExecutor
    with (ProcessPoolExecutor(max_workers=workers) if workers > 1
          else nullcontext()) as pool:
        done = list((pool.map if pool else map)(_run_cell_task, tasks))
    records = [rec for cell_records, _ in done for rec in cell_records]
    entries = [entry for _, entry in done]
    errors = [entry for entry in entries if "error" in entry]

    write_csv_report(records, out / "report.csv")
    write_json_report(cfg, records, entries, out / "report.json")
    for coeff in COEFFICIENTS:
        write_plot_data(records, coeff, out / f"plot_{coeff}.csv")
    if errors:
        _write_csv(out / "errors.csv", ERROR_COLUMNS,
                   ([err[c] for c in ERROR_COLUMNS] for err in errors))
    else:  # a clean run leaves no errors.csv of an earlier one
        (out / "errors.csv").unlink(missing_ok=True)
    return records, errors


def _write_csv(path, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_csv_report(records: list[ExperimentRecord], path) -> None:
    _write_csv(path, CSV_COLUMNS, (rec.csv_row() for rec in records))


def write_json_report(cfg: ExperimentConfig, records, cells, path) -> None:
    """The config, the records and one entry per cell (see _run_cell_task)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"schema_version": SCHEMA_VERSION, "config": cfg.to_dict(),
                   "records": [asdict(r) for r in records], "cells": cells},
                  fh, indent=2)
        fh.write("\n")


def write_plot_data(records: list[ExperimentRecord], coefficient: str, path) -> None:
    """One coefficient's records, shaped for value-vs-parameter plotting:
    the report CSV's rows for that coefficient, in the plot columns."""
    keep = [CSV_COLUMNS.index(c) for c in PLOT_COLUMNS]
    _write_csv(path, PLOT_COLUMNS, ([rec.csv_row()[i] for i in keep]
                                    for rec in records
                                    if rec.coefficient == coefficient))
