"""Run the benchmark over every workload and summarise it.

    python3 perfbench/report.py table            # end-to-end metrics, one row per workload
    python3 perfbench/report.py layers           # per-layer metrics, each run twice to check counts repeat
    python3 perfbench/report.py spread --workload let-poly --seeds 1-10
                                                 # quartile spread per metric against its bound

Each run is a separate `run.py` process, as the benchmark is meant to run,
for BENCHMARK.json's `run_seconds`.  `--seeds` lists the seeds: `spread`
runs every one of them, `table` and `layers` the first (default 1; the
held-out seed is 1009).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        if line.startswith(("failures", "probes", "count determinism")):
            print(f"  {workload}: {line}", file=sys.stderr)
    return json.loads(lines[-1])


def cell(value) -> str:
    return "null" if value is None else f"{value:.6g}"


def print_table(rows: dict, names: list) -> None:
    units = {}
    for res in rows.values():
        units.update({k: v["unit"] for k, v in res["metrics"].items()})
    width = max(len(w) for w in rows) + 2
    head = ["workload".ljust(width), "correct", "failed/attempted"] + [f"{n} [{units.get(n, '?')}]" for n in names]
    print("\t".join(head))
    for w, res in rows.items():
        cells = [w.ljust(width), str(res["correct"]), f"{res['failed']}/{res['attempted']}"]
        cells += [cell(res["metrics"][n]["value"]) if n in res["metrics"] else "-" for n in names]
        print("\t".join(cells))


def seeds_arg(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("mode", choices=("table", "layers", "spread"))
    ap.add_argument("--workload", action="append", help="default: every workload")
    ap.add_argument("--seeds", type=seeds_arg, default=None,
                    help="e.g. 1-10 or 1,1009; default: 1 for table and layers, 1-10 for spread")
    args = ap.parse_args()
    b = spec()
    seconds = b["run_seconds"]
    seeds = args.seeds or ([1] if args.mode in ("table", "layers") else list(range(1, 11)))
    workloads = args.workload or [w["name"] for w in b["workloads"]]

    if args.mode == "table":
        rows = {w: run(w, seeds[0], seconds, 0) for w in workloads}
        print_table(rows, [m["name"] for m in b["end_to_end"]])
        return 0 if all(r["correct"] for r in rows.values()) else 1

    if args.mode == "layers":
        rows, flagged = {}, {}
        for w in workloads:
            first, second = run(w, seeds[0], seconds, 1), run(w, seeds[0], seconds, 1)
            rows[w] = first
            flagged[w] = sorted(
                k for k, v in first["metrics"].items()
                if v["unit"] == "count" and v["value"] != second["metrics"][k]["value"]
            )
        print_table(rows, [m["name"] for m in b["per_layer"]])
        for w, names in flagged.items():
            print(f"{w}: counts across two runs with seed {seeds[0]}: "
                  + ("all repeat" if not names else "NOT REPEATING: " + ", ".join(names)))
        return 0 if not any(flagged.values()) else 1

    bounds = {m["name"]: m.get("bound") for m in b["end_to_end"]}
    for w in workloads:
        values: dict = {}
        for seed in seeds:
            res = run(w, seed, seconds, 0)
            for k, v in res["metrics"].items():
                values.setdefault(k, []).append(v["value"])
        print(f"{w}: {len(seeds)} seeds")
        for k, vs in values.items():
            if None in vs:
                print(f"  {k:20s} null in {vs.count(None)} of {len(vs)} runs")
                continue
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(k)
            mark = "" if bound is None else ("ok" if spread <= bound / 3 else "WIDE" if spread <= bound else "OVER")
            print(f"  {k:20s} median {med:12.6g}  spread {spread:7.4f}  bound {bound}  {mark}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
