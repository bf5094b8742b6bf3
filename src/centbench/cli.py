"""Command-line interface.

Subcommands mirror the library surface: ``gen`` emits an edge list,
``centrality`` scores one graph with one exact measure, ``got`` and
``kpath`` run the stochastic estimators, ``correlate`` compares two score
files, and ``experiment`` runs a full matrix from a JSON config file.
Invalid input, including a missing input file or a bad config, exits
with code 2 and one ``centbench: error: ...`` line on stderr. A cell that
fails inside ``experiment`` does not end the run: it is recorded in
``errors.csv`` and ``report.json`` and printed as a ``failed:`` line on
stdout, and the command exits 1 only when every cell failed, else 0.

Score files are plain text: one score per line in id order (node id or
edge id), ``#`` lines ignored. The optional ``got --trace`` output is
newline-delimited JSON with one record per epoch:
``{"epoch": E, "vdiamonds_held": H, "thieves_carrying": C,
"pickups_refused": R}``, R counting the pickup attempts of that epoch that
found the node empty.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields

import numpy as np

from .exact import (betweenness_centrality, closeness_centrality,
                    clustering_coefficient, degree_centrality)
from .generators import FAMILIES, GeneratorSpec
from .got import GotConfig, run_got
from .graph import (format_edge_list, is_int, is_number,
                    largest_connected_component, read_edge_list)
from .harness import ExperimentConfig, run_experiment
from .kpath import KpathConfig, werw_kpath
from .stats import correlate

MEASURES = {
    "dc": degree_centrality,
    "bc": betweenness_centrality,
    "cl": closeness_centrality,
    "cc": clustering_coefficient,
}


def _emit(text: str, out) -> None:
    """Write text to the file ``out``, or to stdout when ``out`` is None."""
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _write_scores(scores: np.ndarray, out, fmt: str) -> None:
    if fmt == "json":
        text = json.dumps({"scores": [float(x) for x in scores]}, indent=2) + "\n"
    else:
        text = f"# {len(scores)} scores\n" + "".join(
            f"{float(x)!r}\n" for x in scores)
    _emit(text, out)


def read_scores(path) -> np.ndarray:
    """Read a score file: JSON with a "scores" key, or one float per line."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        scores = json.loads(text).get("scores")
        if not isinstance(scores, list):
            raise ValueError(f'{path}: JSON score file has no "scores" list')
        for i, value in enumerate(scores):
            if not is_number(value):  # true, "1.5" or null would convert
                raise ValueError(f"{path}: scores[{i}] must be a number, "
                                 f"got {json.dumps(value)}")
            if is_int(value) and abs(value) > sys.float_info.max:
                raise ValueError(f"{path}: scores[{i}] is too large for a "
                                 f"float")
        return np.asarray(scores, dtype=np.float64)
    lines = (line.strip() for line in text.splitlines())
    return np.asarray([float(line) for line in lines
                       if line and not line.startswith("#")], dtype=np.float64)


def _add_graph_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--graph", required=True, help="edge-list file to read")
    p.add_argument("--n", type=int, default=None,
                   help="node count (default: max id + 1)")
    p.add_argument("--lcc", action="store_true",
                   help="reduce to the largest connected component first")


def _read_graph(args):
    """The ``--graph`` file, reduced to its largest component with ``--lcc``."""
    g = read_edge_list(args.graph, n=args.n)
    return largest_connected_component(g)[0] if args.lcc else g


def _cmd_gen(args) -> int:
    spec = GeneratorSpec(args.family.upper(), args.n, args.param,
                         args.aux_p, args.seed)
    _emit(format_edge_list(spec.generate()), args.out)
    return 0


def _cmd_centrality(args) -> int:
    scores = MEASURES[args.measure](_read_graph(args))
    _write_scores(scores, args.out, args.format)
    return 0


def _config(cls, args):
    """A ``cls`` built from the options named after its fields."""
    return cls(**{f.name: getattr(args, f.name) for f in fields(cls)})


def _cmd_got(args) -> int:
    res = run_got(_read_graph(args), _config(GotConfig, args),
                  collect_trace=args.trace is not None)
    _write_scores(res.phi, args.node_out, args.format)
    if args.edge_out is not None:
        _write_scores(res.psi, args.edge_out, args.format)
    if args.trace is not None:
        with open(args.trace, "w", encoding="utf-8") as fh:
            for rec in res.trace:
                fh.write(json.dumps(rec._asdict()))
                fh.write("\n")
    return 0


def _cmd_kpath(args) -> int:
    scores = werw_kpath(_read_graph(args), _config(KpathConfig, args))
    _write_scores(scores, args.out, args.format)
    return 0


def _cmd_correlate(args) -> int:
    a = read_scores(args.scores_a)
    b = read_scores(args.scores_b)
    res = correlate(a, b)
    payload = {"pearson": res.r, "spearman": res.rho, "kendall": res.tau,
               "concordant": res.s_c, "discordant": res.s_d,
               "degenerate": res.degenerate}
    if args.format == "json":
        text = json.dumps(payload, indent=2) + "\n"
    else:
        text = "coefficient,value\n" + "".join(
            f"{name},{'' if payload[name] is None else repr(payload[name])}\n"
            for name in ("pearson", "spearman", "kendall"))
    _emit(text, args.out)
    return 0


def _cmd_experiment(args) -> int:
    if args.workers < 1:
        raise ValueError(f"--workers must be at least 1, got {args.workers}")
    cfg = ExperimentConfig.from_file(args.config)
    workers = min(args.workers, os.cpu_count() or 1)
    records, errors = run_experiment(cfg, args.out_dir, workers=workers)
    sys.stdout.write(f"{len(records)} records, {len(errors)} failed cells "
                     f"-> {args.out_dir}\n")
    for err in errors:
        sys.stdout.write(f"  failed: {err}\n")
    return 1 if errors and not records else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="centbench",
        description="graph centrality measures, estimators and experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a random graph edge list")
    p.add_argument("--family", required=True,
                   choices=[name.lower() for name in FAMILIES])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--param", type=float, required=True,
                   help="SF: edges per node; SW: ring neighbors; ER: edge prob")
    p.add_argument("--aux-p", type=float, default=None,
                   help="SF triangle prob / SW shortcut prob (default: the "
                        "family's, as in an experiment config)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("centrality", help="exact centrality of one graph")
    _add_graph_arg(p)
    p.add_argument("--measure", required=True, choices=sorted(MEASURES))
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_centrality)

    p = sub.add_parser("got", help="run the thief simulation")
    _add_graph_arg(p)
    p.add_argument("--thieves-per-node", type=int,
                   default=GotConfig.thieves_per_node)
    p.add_argument("--vdiamonds-per-node", type=int, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--seed", type=int, default=GotConfig.seed)
    p.add_argument("--node-out", default=None)
    p.add_argument("--edge-out", default=None)
    p.add_argument("--trace", default=None,
                   help="write per-epoch NDJSON trace records here")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=_cmd_got)

    p = sub.add_parser("kpath", help="weighted edge random-walk k-path scores")
    _add_graph_arg(p)
    p.add_argument("--k", type=int, default=KpathConfig.k)
    p.add_argument("--walks-per-slot", type=int,
                   default=KpathConfig.walks_per_slot,
                   help="walks on each adjacency slot, at least 1 (default: "
                        "%(default)s, so 8 x edge count walks in all)")
    p.add_argument("--seed", type=int, default=KpathConfig.seed)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=_cmd_kpath)

    p = sub.add_parser("correlate", help="correlate two score files")
    p.add_argument("scores_a")
    p.add_argument("scores_b")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_correlate)

    p = sub.add_parser("experiment", help="run a full experiment matrix")
    p.add_argument("--config", required=True, help="JSON experiment config")
    p.add_argument("--out-dir", default="results")
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes, capped at the CPU count")
    p.set_defaults(func=_cmd_experiment)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    # GraphError is a ValueError; OSError covers a missing or unreadable file
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"centbench: error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
