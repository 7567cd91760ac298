#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of bayes-arbiter.

Run from the repository root:

    python3 bench/run.py --workload fig3_sweep --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py): fig3_sweep, oracle_fit, calibrate.  The
package is imported from ``src/`` beside this directory; without it the
script exits with code 2 and prints no result.

The workload runs as a closed loop from this one process: each CLI
command (``cli.main``) starts when the previous one has returned, as for
a user at a desk.  The environment is left as found, so the experiment
thread pool sizes itself from BAYES_ARBITER_THREADS and the CPU count.
Passes over the workload repeat until --seconds have been measured
(at least two); figures are medians over passes.

--trace 0 reports the end-to-end metrics:
  setup_s           median of 5 fresh interpreters from spawn until
                    ``bayes_arbiter.cli`` is imported
  wall_s, cpu_s     one pass; process CPU above wall time is thread
                    contention on the experiment pool
  peak_rss_mb       peak resident set of this process
  throughput_per_s  MCMC iterations/s on fig3_sweep and oracle_fit,
                    predictive replicates/s on calibrate
--trace 1 runs the layer probes (probes.py), then alternates an
untraced and a traced pass (tracing.py) and reports the per-layer
metrics, including trace.overhead_frac = traced / untraced wall - 1.

Every pass is checked (workloads.check_outputs), and the SHA-256 of each
command's stdout and each CSV/SVG artifact must repeat across passes
(the run manifest is excluded: it holds wall time).  Failed commands
plus failed checks over those attempted is failed_ops_frac.  The line
before the last holds the environment, the digests and these counts;
the last line is the result object.  Spans are written to
``.bench_out/trace-<workload>-seed<seed>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_RUNS = 5
MIN_PASSES = 2
SETUP_TIMEOUT_S = 60

@dataclass
class PassResult:
    wall_s: float
    cpu_s: float
    items: int
    traced: bool
    returncodes: list[int]
    stderrs: list[str]
    outputs: list[dict | None]
    digests: dict[str, str]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _invoke(cli, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except Exception:  # a crash is a failed command; keep the traceback
            err.write(traceback.format_exc())
            rc = -1
    return rc, out.getvalue(), err.getvalue()


def run_pass(cli, workloads, plan, tracer=None) -> PassResult:
    raw = []
    t0 = time.perf_counter()
    c0 = time.process_time()
    for cmd in plan.commands:
        if tracer is None:
            raw.append(_invoke(cli, cmd.argv))
        else:
            with tracer.span("cli.main", root=True):
                raw.append(_invoke(cli, cmd.argv))
    wall = time.perf_counter() - t0
    cpu = time.process_time() - c0
    digests = {}
    for i, (cmd, (_, stdout, _)) in enumerate(zip(plan.commands, raw)):
        digests[f"{i}:{cmd.argv[0]}:stdout"] = _sha256(stdout.encode("utf-8"))
        if cmd.out_dir is not None and cmd.out_dir.is_dir():
            for path in sorted(cmd.out_dir.iterdir()):
                if path.name != "run_manifest.json":
                    digests[f"{i}:{path.name}"] = _sha256(path.read_bytes())
    return PassResult(
        wall_s=wall,
        cpu_s=cpu,
        items=sum(c.items for c in plan.commands),
        traced=tracer is not None,
        returncodes=[rc for rc, _, _ in raw],
        stderrs=[err for _, _, err in raw],
        outputs=[workloads.parse_stdout(out) for _, out, _ in raw],
        digests=digests,
    )


class Gate:
    """Counts commands and correctness checks attempted and failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, int] = {}  # message -> times seen

    def record(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            message = f"{name}: {detail}".strip()
            self.failures[message] = self.failures.get(message, 0) + 1

    def command(self, argv: list[str], rc: int, stderr: str) -> None:
        self.record(" ".join(argv[:2]), rc == 0, f"exit {rc}; {stderr.strip()[-300:]}")

    def check_pass(self, workloads, plan, result: PassResult, first: PassResult | None) -> None:
        for cmd, rc, err in zip(plan.commands, result.returncodes, result.stderrs):
            self.command(cmd.argv, rc, err)
        try:
            checks = workloads.check_outputs(plan, result.outputs)
        except (KeyError, TypeError, ValueError) as e:
            checks = [("output fields", False, repr(e))]
        for name, ok, detail in checks:
            self.record(name, ok, detail)
        if first is not None:
            differ = sorted(k for k in first.digests.keys() | result.digests.keys()
                            if first.digests.get(k) != result.digests.get(k))
            self.record("bytes repeat across passes", not differ, ", ".join(differ))


def measure_setup() -> float:
    """Median time from spawning an interpreter until the CLI module is imported."""
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import bayes_arbiter.cli; "
        "sys.stdout.write(bayes_arbiter.__file__ + '\\n'); sys.stdout.flush()"
    )
    samples = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", code, str(SRC)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        ) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            _, err = proc.communicate(timeout=SETUP_TIMEOUT_S)
        if proc.returncode != 0 or not Path(line.strip()).resolve().is_relative_to(SRC):
            raise RuntimeError(f"set-up interpreter failed (exit {proc.returncode}): {err.strip()}")
        samples.append(t1 - t0)
    return statistics.median(samples)


def environment(peak_threads: int | None) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "BAYES_ARBITER_THREADS": os.environ.get("BAYES_ARBITER_THREADS"),
        "peak_threads_traced": peak_threads,
    }


def span_metrics(tracing, tracer) -> dict[str, float]:
    spans = tracer.spans
    self_s, busy_s = tracing.layer_times(spans)
    gibbs = [s for s in spans if s.name == "mixture.run_gibbs"]
    chains = tracer.results["mixture.run_gibbs"] + tracer.results["mixture.run_marginal_mh"]
    rates = [c.mh_acceptance_rate for c in chains if hasattr(c, "mh_acceptance_rate")]
    return {
        "mixture.gibbs_busy_s": sum((s.duration for s in gibbs), 0.0),
        "mixture.gibbs_wait_s": sum((s.duration - s.cpu_s for s in gibbs), 0.0),
        "mixture.chains": float(len(chains)),
        "mixture.accept_rate": statistics.fmean(rates) if rates else 0.0,
        "experiments.self_s": self_s.get("experiments", 0.0),
        "calibration.self_s": self_s.get("calibration", 0.0),
        "cli.self_s": self_s.get("cli", 0.0),
        "svg.busy_s": busy_s.get("svg", 0.0),
        "evidence.bf_busy_s": busy_s.get("evidence", 0.0),
    }


def _parse_args(argv):
    parser = argparse.ArgumentParser(description="bayes-arbiter benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seed >= 1 << 62:
        parser.error("--seed must be a non-negative integer below 2^62")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "bayes_arbiter" / "__init__.py").is_file():
        print(f"error: no bayes_arbiter package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bayes_arbiter

    if not Path(bayes_arbiter.__file__).resolve().is_relative_to(SRC):
        print(f"error: bayes_arbiter imported from {bayes_arbiter.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from bayes_arbiter import cli

    import probes
    import tracing
    import workloads

    if args.workload not in workloads.PLANS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.PLANS)}",
              file=sys.stderr)
        return 2

    work = OUT / f"work-{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return _run(args, cli, probes, tracing, workloads, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, cli, probes, tracing, workloads, work: Path) -> int:
    setup_s = measure_setup() if args.trace == 0 else None
    plan = workloads.PLANS[args.workload](args.seed, work)
    gate = Gate()
    for argv in plan.warmup:
        rc, _, err = _invoke(cli, argv)
        gate.command(argv, rc, err)

    skipped: set[str] = set()
    values: dict[str, float] = {}
    tracers = []
    passes: list[PassResult] = []
    start = time.perf_counter()
    if args.trace:
        values.update(probes.run_probes(args.seed, skipped))
    while True:
        if args.trace:
            pair = [run_pass(cli, workloads, plan)]
            tracer = tracing.Tracer()
            with tracing.installed(tracer, skipped):
                pair.append(run_pass(cli, workloads, plan, tracer))
            tracers.append(tracer)
        else:
            pair = [run_pass(cli, workloads, plan)]
        for result in pair:
            gate.check_pass(workloads, plan, result, passes[0] if passes else None)
            passes.append(result)
        elapsed = time.perf_counter() - start
        cost = statistics.median(p.wall_s for p in passes) * len(pair)
        if len(passes) >= MIN_PASSES and elapsed + cost > args.seconds:
            break

    untraced = [p for p in passes if not p.traced]
    wall = statistics.median(p.wall_s for p in untraced)
    throughput = statistics.median(p.items / p.wall_s for p in untraced)
    if args.trace:
        traced_wall = statistics.median(p.wall_s for p in passes if p.traced)
        per_tracer = [span_metrics(tracing, t) for t in tracers]
        for name in per_tracer[0]:
            values[name] = statistics.median(m[name] for m in per_tracer)
        values.update(workloads.layer_counts(passes[0].outputs))
        values["trace.overhead_frac"] = traced_wall / wall - 1.0
        values["trace.peak_threads"] = float(max(t.peak_threads for t in tracers))
        spans_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        spans_file.write_text(json.dumps({
            "workload": args.workload,
            "seed": args.seed,
            "skipped": sorted(skipped),
            "passes": [tracing.span_records(t.spans) for t in tracers],
        }), encoding="utf-8")
    else:
        values.update({
            "setup_s": setup_s,
            "wall_s": wall,
            "cpu_s": statistics.median(p.cpu_s for p in untraced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "throughput_per_s": throughput,
        })

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared["per_layer" if args.trace else "end_to_end"]}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(passes),
        "pass_wall_s": [p.wall_s for p in passes],
        f"{plan.item}_per_s": throughput,
        "failed_ops_frac": gate.failed / gate.attempted,
        "failures": gate.failures,
        "skipped": sorted(skipped),
        "environment": environment(max((t.peak_threads for t in tracers), default=None)),
        "inputs": {p.name: _sha256(p.read_bytes()) for p in plan.inputs},
        "digests": passes[0].digests,
    }
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
