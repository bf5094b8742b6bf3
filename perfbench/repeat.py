#!/usr/bin/env python3
"""Run one workload many times and print each metric's median and quartiles.

    python3 perfbench/repeat.py --workload desk-sparse --seeds 1-10 --sets 2

Each run is a separate ``perfbench/run.py`` process, one seed after another,
with the run length from ``BENCHMARK.json`` unless ``--seconds`` is given.
For each set it prints, per metric, the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and the spread
(q3 - q1) / median, plus the share of failed operations. With two or more
sets it also prints how far each set's median lies from the first set's.
The raw results go to ``.bench_out/repeat-<workload>-trace<t>.json``.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds, trace) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise SystemExit(f"no result (exit {proc.returncode}): {' '.join(cmd)}")


def summary(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        out[name] = {"unit": runs[0]["metrics"][name]["unit"], "median": med,
                     "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else float("nan")}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 1,4,7")
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seconds", type=int, default=None)
    args = ap.parse_args(argv)
    seconds = args.seconds or json.loads(
        (ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    seeds = seed_list(args.seeds)
    if len(seeds) < 2:
        raise SystemExit("need at least two seeds for quartiles")

    sets = []
    for k in range(args.sets):
        runs = []
        for seed in seeds:
            runs.append(run_once(args.workload, seed, seconds, args.trace))
            r = runs[-1]
            print(f"set {k + 1} seed {seed}: correct={r['correct']} "
                  f"attempted={r['attempted']} failed={r['failed']} " +
                  " ".join(f"{n}={m['value']:.6g}"
                           for n, m in r["metrics"].items()), flush=True)
        sets.append(runs)

    summaries = [summary(runs) for runs in sets]
    print(f"\n{args.workload}: {len(seeds)} seeds x {args.sets} set(s), "
          f"{seconds} s per run, trace {args.trace}")
    for k, (runs, summ) in enumerate(zip(sets, summaries), 1):
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        print(f"set {k}: failed {failed}/{attempted}, all correct: "
              f"{all(r['correct'] for r in runs)}")
        for name, s in summ.items():
            shift = ""
            if k > 1:
                base = summaries[0][name]["median"]
                shift = (f"  vs set 1: {(s['median'] - base) / base:+.2%}"
                         if base else "")
            print(f"  {name:24s} median {s['median']:.6g} {s['unit']:5s} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} "
                  f"spread {s['spread']:.2%}{shift}")
    out = ROOT / ".bench_out" / f"repeat-{args.workload}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"seeds": seeds, "seconds": seconds,
                               "sets": sets, "summaries": summaries},
                              indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
