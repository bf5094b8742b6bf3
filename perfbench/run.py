#!/usr/bin/env python3
"""Benchmark of the centbench correlation study, one workload per process.

    python3 perfbench/run.py --workload desk-sparse --seed 1 --seconds 15 --trace 0

Run from the root of a source tree; the program is imported from ``src/``.
Workloads (inputs made from ``--seed``):

* ``desk-dense``  -- the dense desk row at n=1000 (SF m=25, SW k=32,
  ER p=0.05) through ``run_experiment``; one round is the three cells. Run
  by hand only: too unsteady for ``BENCHMARK.json`` (see README.md).
* ``desk-sparse`` -- the sparse row (SF m=5, SW k=6, ER p=0.01), likewise.
* ``thieves-10k`` -- the criterion-6 Holme-Kim graph (n=10^4, m=5, triangle
  p=0.3), the same for every seed; one round is ``run_got``,
  ``degree_centrality``, ``clustering_coefficient`` and the correlations of
  phi with both.
* ``thieves-scarce`` -- the same with one vdiamond per node.

The timed section repeats whole rounds: at least one, and another only while
it is expected to end within ``--seconds``. Every round repeats the same
work, so its outputs must be bit-identical to the first round's. After the
timed section every output is checked (``checks.py``). With ``--trace 1`` a
traced replay of one round follows, calling the public functions stage by
stage; its spans go to ``.bench_out/`` and its outputs must equal the timed
run's.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_PROBES = 5
DESK_N = 1000
# the criterion-6 Holme-Kim graph of tests/test_acceptance.py, the same for
# every seed: graph-to-graph cost differences (15% in run_got between two
# seeds) would otherwise swamp the run-to-run spread; --seed picks the
# simulation's seed
THIEVES_GRAPH = ("SF", 10_000, 5, 0.3, 606)
WORKLOADS = {
    "desk-dense": {"sf_m": [25], "sw_k": [32], "er_p": [0.05]},
    "desk-sparse": {"sf_m": [5], "sw_k": [6], "er_p": [0.01]},
    "thieves-10k": {"vdiamonds_per_node": None},
    "thieves-scarce": {"vdiamonds_per_node": 1},
}
# module-level names of centbench.harness that run_cell calls; wrapped during
# the first timed round so that the checks see each stage's output
CAPTURED = ("run_cell", "largest_connected_component", "degree_centrality",
            "betweenness_centrality", "closeness_centrality",
            "clustering_coefficient", "run_got", "werw_kpath", "correlate")
NODE_PAIRS = ("got_node_vs_dc", "got_node_vs_bc", "got_node_vs_cl",
              "got_node_vs_cc")
EDGE_PAIR = "got_edge_vs_kpath"
COEFFS = ("pearson", "spearman", "kendall")
LAYERS = ("kpath", "exact.bc", "exact.cl", "exact.cc", "exact.dc", "got",
          "generators", "graph.lcc", "stats.corr", "harness.report")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def import_program():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import centbench
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import centbench from {src}: {exc}")
    if Path(centbench.__file__).resolve().parent != src / "centbench":
        raise SystemExit(f"perfbench: centbench imported from "
                         f"{centbench.__file__}, not from {src}")
    return centbench


@dataclass
class Inputs:
    cfg: object = None        # ExperimentConfig (desk)
    graph: object = None      # Holme-Kim largest component (thieves)
    got_cfg: object = None    # GotConfig with its seed (thieves)


def thieves_spec(cb):
    return cb.GeneratorSpec(*THIEVES_GRAPH)


def make_inputs(cb, workload: str, seed: int) -> Inputs:
    params = WORKLOADS[workload]
    if workload.startswith("desk"):
        return Inputs(cfg=cb.ExperimentConfig(n=DESK_N, base_seed=seed, **params))
    g, _ = cb.largest_connected_component(thieves_spec(cb).generate())
    return Inputs(graph=g, got_cfg=cb.GotConfig(
        vdiamonds_per_node=params["vdiamonds_per_node"],
        seed=cb.derive_seed(seed, "got")))


def measure_setup(workload: str, seed: int) -> float:
    """Median time from starting a fresh interpreter until the workload's
    inputs are ready: import, config and, for thieves, the graph."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE) as proc:
            ready = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            try:
                proc.communicate(timeout=120)
            except subprocess.TimeoutExpired:
                proc.kill()
                raise
        if proc.returncode != 0 or ready.strip() != b"ready":
            raise SystemExit(f"perfbench: set-up probe exited with code "
                             f"{proc.returncode}")
    return statistics.median(times)


@contextlib.contextmanager
def capturing(module, names):
    """Wrap ``module``'s functions for the duration; each call's output is
    kept in call order, ``run_cell`` with its arguments on entry."""
    seen = []
    originals = {name: getattr(module, name) for name in names}

    def wrap(name, fn):
        def call(*args, **kwargs):
            if name == "run_cell":
                seen.append((name, args))
                return fn(*args, **kwargs)
            out = fn(*args, **kwargs)
            seen.append((name, out))
            return out
        return call

    for name, fn in originals.items():
        setattr(module, name, wrap(name, fn))
    try:
        yield seen
    finally:
        for name, fn in originals.items():
            setattr(module, name, fn)


def cells_from_capture(seen) -> dict:
    """{(family, param, seed): {stage name: output, "correlate": [...]}}"""
    cells, cur = {}, None
    for name, out in seen:
        if name == "run_cell":
            family, _, param, seed = out[:4]
            cur = cells.setdefault((family, param, seed), {"correlate": []})
        elif name == "correlate":
            cur["correlate"].append(out)
        else:
            cur[name] = out
    return cells


def record_values(records) -> dict:
    """{(family, param, seed): {pair: {coefficient: value}}}"""
    out: dict = {}
    for r in records:
        cell = out.setdefault((r.family, r.param, r.seed), {})
        cell.setdefault(r.pair, {})[r.coefficient] = r.value
    return out


def more_rounds(start: float, last: float, seconds: float) -> bool:
    return time.perf_counter() - start + last <= seconds


# ---------------------------------------------------------------- desk

def desk_timed(cb, cfg, seconds: float, out_dir: Path):
    """Rounds of ``run_experiment``; the first runs with outputs captured."""
    def one_round():
        t0 = time.perf_counter()
        records, errors = cb.run_experiment(cfg, out_dir)
        return time.perf_counter() - t0, record_values(records), errors

    start = time.perf_counter()
    with capturing(cb.harness, CAPTURED) as seen:
        first = one_round()
    rss = peak_rss_mb()
    rounds = [first]
    while more_rounds(start, rounds[-1][0], seconds):
        rounds.append(one_round())
    return rounds, cells_from_capture(seen), rss


def kpath_walks(g, kcfg) -> tuple[int, int]:
    """(sources, walks): sources with at least one walk and one edge, and
    their walks, under the documented equal split of rho over the nodes."""
    _, rho = kcfg.resolve(g.m)
    base, extra = divmod(rho, g.n)
    walks = base + (np.arange(g.n) < extra)
    active = (walks > 0) & (g.degrees > 0)
    return int(active.sum()), int(walks[active].sum())


def desk_pairs(stage):
    got = stage["run_got"]
    return [("got_node_vs_dc", got.phi, stage["degree_centrality"]),
            ("got_node_vs_bc", got.phi, stage["betweenness_centrality"]),
            ("got_node_vs_cl", got.phi, stage["closeness_centrality"]),
            ("got_node_vs_cc", got.phi, stage["clustering_coefficient"]),
            (EDGE_PAIR, got.psi, stage["werw_kpath"])]


def check_desk_cell(cb, checks, cfg, cell, stage, values) -> tuple[list, int]:
    family, _, seed = cell
    g, _ = stage["largest_connected_component"]
    fails = (checks.check_degree(g, stage["degree_centrality"])
             + checks.check_shortest_path_scores(
                 g, stage["betweenness_centrality"],
                 stage["closeness_centrality"])
             + checks.check_clustering(g, stage["clustering_coefficient"]))
    got_cfg = replace(cfg.got, seed=cb.derive_seed(seed, "got"))
    got_fails, loaded = checks.check_got(
        g, got_cfg, stage["run_got"], cb.run_got(g, got_cfg, collect_trace=True))
    fails += got_fails
    k, _ = cfg.kpath.resolve(g.m)
    fails += checks.check_kpath(g, stage["werw_kpath"], k,
                                kpath_walks(g, cfg.kpath)[0])
    for (pair, a, b), res in zip(desk_pairs(stage), stage["correlate"]):
        fails += checks.check_correlation(pair, a, b, res)
        if values.get(pair) != {"pearson": res.r, "spearman": res.rho,
                                "kendall": res.tau}:
            fails.append(f"{pair}: report records differ from correlate()")
    if set(values) != set(NODE_PAIRS) | {EDGE_PAIR}:
        fails.append(f"report has pairs {sorted(values)}")
    else:
        fails += checks.check_criterion5(family, values)
    return fails, loaded


def generator_spec(cb, cfg, family, param, seed):
    """The cell's generator call, with the "gen" sub-seed the harness
    docstring documents."""
    aux = {"SF": cfg.sf_triangle_p, "SW": cfg.sw_shortcut_p, "ER": 0.0}[family]
    p = float(param) if family == "ER" else int(param)
    return cb.GeneratorSpec(family, cfg.n, p, aux, cb.derive_seed(seed, "gen"))


def desk_replay(cb, cfg, tracer, out_dir: Path):
    """Every cell of one round, stage by stage, then the report files."""
    stages, records = {}, []

    def cell_stages(family, param, seed):
        cell = f"{family}:{param}:{seed}"
        t0 = time.perf_counter()
        g = tracer.call("generators", cell,
                        generator_spec(cb, cfg, family, param, seed).generate)
        lcc = tracer.call("graph.lcc", cell, cb.largest_connected_component, g)
        g = lcc[0]
        st = {"largest_connected_component": lcc}
        for key, layer, fn in (
                ("degree_centrality", "exact.dc", cb.degree_centrality),
                ("betweenness_centrality", "exact.bc", cb.betweenness_centrality),
                ("closeness_centrality", "exact.cl", cb.closeness_centrality),
                ("clustering_coefficient", "exact.cc", cb.clustering_coefficient)):
            st[key] = tracer.call(layer, cell, fn, g)
        st["run_got"] = tracer.call(
            "got", cell, cb.run_got, g,
            replace(cfg.got, seed=cb.derive_seed(seed, "got")))
        st["werw_kpath"] = tracer.call(
            "kpath", cell, cb.werw_kpath, g,
            replace(cfg.kpath, seed=cb.derive_seed(seed, "kpath")))
        st["correlate"] = [tracer.call("stats.corr", cell, cb.correlate, a, b)
                           for _, a, b in desk_pairs(st)]
        wall_ms = (time.perf_counter() - t0) * 1000.0
        for (pair, _, _), res in zip(desk_pairs(st), st["correlate"]):
            for coeff, value in zip(COEFFS, (res.r, res.rho, res.tau)):
                records.append(cb.ExperimentRecord(
                    family, cfg.n, param, seed, g.n, g.m, pair, coeff, value,
                    wall_ms))
        stages[(family, param, seed)] = st

    def one_round():
        for cell in cfg.cells():
            cell_stages(*cell)
        tracer.call("harness.report", "round", write_reports, cb, cfg,
                    records, out_dir)

    tracer.call("round", "round", one_round)
    return stages, record_values(records)


def write_reports(cb, cfg, records, out_dir: Path):
    out_dir.mkdir(parents=True, exist_ok=True)
    cb.harness.write_csv_report(records, out_dir / "report.csv")
    cb.harness.write_json_report(cfg, records, [], out_dir / "report.json")
    for coeff in COEFFS:
        cb.harness.write_plot_data(records, coeff, out_dir / f"plot_{coeff}.csv")


def same_outputs(a: dict, b: dict) -> bool:
    """Bit-identical stage outputs of two runs of the same cell or round."""
    for key, x in a.items():
        y = b[key]
        if key == "largest_connected_component":
            x, y = x[0], y[0]
            if (x.n, x.m) != (y.n, y.m) or not np.array_equal(x.adj, y.adj):
                return False
        elif key == "run_got":
            if not (np.array_equal(x.phi, y.phi) and np.array_equal(x.psi, y.psi)):
                return False
        elif key == "correlate":
            if x != y:
                return False
        elif not np.array_equal(x, y):
            return False
    return True


def run_desk(cb, inputs, args, work: Path):
    cfg = inputs.cfg
    rounds, captured, rss = desk_timed(cb, cfg, args.seconds, work / "timed")
    out = Outcome(attempted=len(rounds) * len(cfg.cells()),
                  walls=[r[0] for r in rounds], rss=rss)
    import checks  # loads scipy, after the timed section

    first_values, first_errors = rounds[0][1], rounds[0][2]
    bad = {(e["family"], e["param"], e["seed"]) for e in first_errors}
    for err in first_errors:
        print(f"cell failed: {err}", file=sys.stderr)
    counts = Counts()
    for cell in cfg.cells():
        if cell in bad:
            continue
        fails, loaded = check_desk_cell(cb, checks, cfg, cell, captured[cell],
                                        first_values.get(cell, {}))
        report_failures(cell, fails, bad)
        counts.add_cell(captured[cell]["largest_connected_component"][0], cfg,
                        loaded)
    if args.trace:
        out.tracer = Tracer()
        stages, values = desk_replay(cb, cfg, out.tracer, work / "traced")
        for cell in cfg.cells():
            fails = []
            if values.get(cell) != first_values.get(cell):
                fails.append("traced replay's correlations differ from the "
                             "records run_experiment wrote")
            if cell in captured and not same_outputs(captured[cell], stages[cell]):
                fails.append("traced replay's stage outputs differ from the "
                             "timed run's")
            report_failures(cell, fails, bad)
        out.layers = layer_metrics(out.tracer, counts, out.wall_s)
    for _, values, errors in rounds:
        failed = bad | {(e["family"], e["param"], e["seed"]) for e in errors}
        changed = {c for c in cfg.cells() if values.get(c) != first_values.get(c)}
        if changed:
            print(f"outputs changed between rounds: {sorted(changed)}",
                  file=sys.stderr)
            out.correct = False
        out.failed += len(failed | changed)
    out.correct = out.correct and not bad
    return out


# ------------------------------------------------------------- thieves

def untraced(layer, fn, *args):
    return fn(*args)


def thieves_round(cb, g, got_cfg, call=untraced):
    """One operation; ``call(layer, fn, *args)`` makes each call."""
    got = call("got", cb.run_got, g, got_cfg)
    dc = call("exact.dc", cb.degree_centrality, g)
    cc = call("exact.cc", cb.clustering_coefficient, g)
    return {"run_got": got, "degree_centrality": dc,
            "clustering_coefficient": cc,
            "correlate": [call("stats.corr", cb.correlate, got.phi, x)
                          for x in (dc, cc)]}


def thieves_replay(cb, got_cfg, tracer):
    """The set-up's graph, then one operation, each call in a span."""
    g0 = tracer.call("generators", "setup", thieves_spec(cb).generate)
    g, _ = tracer.call("graph.lcc", "setup", cb.largest_connected_component, g0)

    def call(layer, fn, *args):
        return tracer.call(layer, "round", fn, *args)

    return g, tracer.call("round", "round", thieves_round, cb, g, got_cfg, call)


def run_thieves(cb, inputs, args, work: Path):
    g, got_cfg = inputs.graph, inputs.got_cfg
    walls, same = [], []
    start = time.perf_counter()
    first = None
    while first is None or more_rounds(start, walls[-1], args.seconds):
        t0 = time.perf_counter()
        result = thieves_round(cb, g, got_cfg)
        walls.append(time.perf_counter() - t0)
        if first is None:
            first, rss = result, peak_rss_mb()
        else:
            same.append(same_outputs(first, result))
    out = Outcome(attempted=len(walls), walls=walls, rss=rss)
    import checks  # loads scipy, after the timed section

    got = first["run_got"]
    fails, loaded = checks.check_got(g, got_cfg, got,
                                     cb.run_got(g, got_cfg, collect_trace=True))
    fails += checks.check_degree(g, first["degree_centrality"])
    fails += checks.check_clustering(g, first["clustering_coefficient"])
    for (pair, x), res in zip((("phi_vs_dc", first["degree_centrality"]),
                               ("phi_vs_cc", first["clustering_coefficient"])),
                              first["correlate"]):
        fails += checks.check_correlation(pair, got.phi, x, res)
    if args.trace:
        out.tracer = Tracer()
        g2, replayed = thieves_replay(cb, got_cfg, out.tracer)
        if not (np.array_equal(g2.adj, g.adj) and same_outputs(first, replayed)):
            fails.append("traced replay's outputs differ from the timed run's")
        counts = Counts(samples=2 * g.n)
        counts.add_got(g, got_cfg, loaded)
        out.layers = layer_metrics(out.tracer, counts, out.wall_s)
    bad: set = set()
    report_failures(args.workload, fails, bad)
    out.failed = len(walls) if bad else same.count(False)
    if not all(same):
        print("outputs changed between rounds", file=sys.stderr)
    out.correct = not bad and all(same)
    return out


# -------------------------------------------------------------- tracing

class Tracer:
    """Spans around calls into the program, kept in memory until the end."""

    def __init__(self):
        self.origin = time.perf_counter()
        self.spans: list[dict] = []

    def call(self, name, cell, fn, *args, **kwargs):
        c0, t0 = time.process_time(), time.perf_counter()
        out = fn(*args, **kwargs)
        t1, c1 = time.perf_counter(), time.process_time()
        self.spans.append({"name": name, "cell": cell,
                           "start": t0 - self.origin, "end": t1 - self.origin,
                           "cpu_s": c1 - c0, "peak_rss_mb": peak_rss_mb()})
        return out

    def named(self, name):
        return [s for s in self.spans if s["name"] == name]

    def write(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.spans, indent=1) + "\n")


@dataclass
class Counts:
    """Work done per layer in one round, counted from the inputs."""
    walks: int = 0
    arcs: int = 0            # sources x 2m, per all-sources BFS pass
    thief_hops: int = 0
    loaded_hops: int = 0
    samples: int = 0

    def add_got(self, g, got_cfg, loaded):
        tpn, _, epochs = got_cfg.resolve(g.n)
        self.thief_hops += g.n * tpn * epochs
        self.loaded_hops += loaded

    def add_cell(self, g, cfg, loaded):
        self.add_got(g, cfg.got, loaded)
        self.walks += kpath_walks(g, cfg.kpath)[1]
        self.arcs += g.n * 2 * g.m
        self.samples += 4 * g.n + g.m


def layer_metrics(tracer: Tracer, counts: Counts, wall_s: float) -> dict:
    out = {}
    for layer in LAYERS:
        spans = tracer.named(layer)
        out[f"{layer}.wall_s"] = (sum((s["end"] - s["start"] for s in spans),
                                      0.0), "s")
        out[f"{layer}.cpu_s"] = (sum((s["cpu_s"] for s in spans), 0.0), "s")
        out[f"{layer}.peak_rss_mb"] = (max((s["peak_rss_mb"] for s in spans),
                                           default=0.0), "MB")

    def rate(work, layer):
        busy = out[f"{layer}.wall_s"][0]
        return (work / busy if busy > 0 else 0.0, "1/s")

    out["kpath.walks"] = (counts.walks, "count")
    out["kpath.walks_per_s"] = rate(counts.walks, "kpath")
    out["exact.bc.arcs_per_s"] = rate(counts.arcs, "exact.bc")
    out["exact.cl.arcs_per_s"] = rate(counts.arcs, "exact.cl")
    out["got.thief_hops"] = (counts.thief_hops, "count")
    out["got.loaded_hops"] = (counts.loaded_hops, "count")
    out["got.hops_per_s"] = rate(counts.thief_hops, "got")
    out["stats.corr.samples"] = (counts.samples, "count")
    (round_span,) = tracer.named("round")
    out["trace.overhead_s"] = (round_span["end"] - round_span["start"] - wall_s,
                               "s")
    return out


# ----------------------------------------------------------------- main

@dataclass
class Outcome:
    attempted: int
    walls: list[float]        # one per timed round
    rss: float                # ru_maxrss after the first round
    failed: int = 0
    correct: bool = True
    layers: dict | None = None
    tracer: Tracer | None = None

    @property
    def wall_s(self) -> float:
        return statistics.median(self.walls)


def report_failures(where, fails, bad: set):
    for text in fails:
        print(f"CHECK FAILED [{where}]: {text}", file=sys.stderr)
    if fails:
        bad.add(where)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.setup_probe:
        make_inputs(import_program(), args.workload, args.seed)
        print("ready", flush=True)
        return 0

    setup_s = measure_setup(args.workload, args.seed)
    cb = import_program()
    inputs = make_inputs(cb, args.workload, args.seed)
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        run = run_desk if args.workload.startswith("desk") else run_thieves
        out = run(cb, inputs, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"{args.workload} seed {args.seed}: {len(out.walls)} timed round(s) "
          f"of {', '.join(f'{w:.3f}' for w in out.walls)} s")
    if args.trace:
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        out.tracer.write(spans)
        print(f"spans written to {spans.relative_to(ROOT)}")
        metrics = out.layers
    else:
        metrics = {"setup_s": (setup_s, "s"), "wall_s": (out.wall_s, "s"),
                   "peak_rss_mb": (out.rss, "MB")}
    print(json.dumps({
        "correct": out.correct, "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0 if out.correct else 1


if __name__ == "__main__":
    sys.exit(main())
