#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --workloads fig3_sweep,oracle_fit,calibrate \
        --seeds 1-10 --out bench/baseline.json

For every workload and end-to-end metric this prints the median over the
runs and the spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median.  With
--trace 1 it runs the traced benchmark instead and reports the per-layer
metrics the same way.  --out writes the table, the bounds from
BENCHMARK.json and the environment of the last run as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",") if s]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    table: dict[str, dict] = {}
    environment = None
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        failed = attempted = 0
        for seed in _seeds(args.seeds):
            record, result = run_once(workload, seed, bench["run_seconds"], args.trace)
            environment = record["environment"]
            failed += result["failed"]
            attempted += result["attempted"]
            for message, times in record["failures"].items():
                print(f"{workload} seed {seed}: {times} x {message}", file=sys.stderr)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        rows = {}
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            rows[name] = {"median": med, "spread": spread, "unit": units[name], "values": vals}
            bound = bounds.get(name)
            flag = "" if bound is None or spread < bound / 3 else "  > bound/3"
            print(f"{workload:12s} {name:34s} {med:14.6g} {units[name]:12s} "
                  f"spread {spread:7.4f}{flag}")
        print(f"{workload:12s} failed_ops_frac {failed / attempted:.4g} "
              f"({failed} failed of {attempted} attempted)")
        table[workload] = {"failed": failed, "attempted": attempted, "metrics": rows}

    if args.out:
        Path(args.out).write_text(json.dumps({
            "seeds": args.seeds,
            "trace": args.trace,
            "run_seconds": bench["run_seconds"],
            "bounds": bounds,
            "environment": environment,
            "workloads": table,
        }, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
