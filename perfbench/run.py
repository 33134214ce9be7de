"""qkdattack benchmark: one workload, one run, one JSON result line.

Usage, from the repository root:

    python3 perfbench/run.py --workload loss_scan --seed 1 --seconds 20 --trace 0

Workloads: loss_scan, mc_validate, cli_cold (see workloads.py). With
--trace 0 the run executes whole rounds of inputs until --seconds have
passed, untraced, and the result holds the end-to-end metrics of
BENCHMARK.json. With --trace 1 it runs a fixed number of rounds untraced,
then the same rounds again with per-layer spans installed, and the result
holds the per-layer metrics; fixed work makes their counts repeat exactly
for a seed, and the two passes give the tracing overhead. The package is
imported from ./src.

End-to-end metrics, in seconds normalized by the reference kernel's
slowness so that a shared machine's drifting speed cancels:

  setup_s      median over fresh interpreters of start -> package imported,
               inputs generated, one warm-up call per layer (loss_scan,
               mc_validate); median over repeats of input generation
               (cli_cold, where every invocation pays its own import)
  work_per_s   median over ops of sweep grid rows per second of one sweep
               (loss_scan), pulses per second of one run_trials
               (mc_validate), invocations per second of one invocation
               (cli_cold)
  op_s.p50     per-op time: one success_region + find_crossover window
  op_s.tail    (loss_scan), one run_trials (mc_validate), one invocation
               from process start to exit (cli_cold); the tail is the
               highest percentile with ten samples beyond it
  ok_frac      1 - failed / attempted; an op fails if it raises, exits
               non-zero or fails a check
  peak_rss_mb  peak RSS of the benchmark process, or of the largest
               child for cli_cold

Everything before the last line of stdout is a JSON object describing the
run: machine, seed, sample counts, measured input properties, the same
metrics in wall seconds under the workload's own names (sweep_points_per_s,
windows_per_s, mc_pulses_per_s, cli_s.p50, cli_s.tail, fail_frac) and
every failed check with its inputs. The last line is
{"correct", "attempted", "failed", "metrics"}.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _machine() -> dict:
    import numpy
    import scipy

    return {"nproc": os.cpu_count(), "cpu": _cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "platform": platform.platform()}


def _number(value):
    """JSON-safe metric value: NaN becomes null."""
    return None if isinstance(value, float) and math.isnan(value) else value


def run_untraced(wl, seconds):
    import workloads

    wl.setup()
    setup = wl.setup_samples()
    ops, rounds = workloads.run_rounds(wl, seconds)
    wl.check(ops)
    metrics, samples = workloads.end_to_end(wl, ops, setup)
    # the workload's own names, in wall seconds
    wall = {**metrics, **workloads.timing_metrics(ops, setup, normalized=False)}
    named = {wl.aliases.get(k, k): m for k, m in wall.items() if k != "ok_frac"}
    named["fail_frac"] = (1.0 - metrics["ok_frac"][0], "fraction")
    named.update(wl.named_metrics(ops))
    return ops, metrics, {"rounds": rounds, "samples": samples, "named_metrics": {
        k: {"value": _number(v), "unit": u} for k, (v, u) in named.items()}}


def run_traced(wl):
    import tracer
    import workloads

    wl.setup()
    untraced, _ = workloads.run_rounds(wl, rounds=wl.trace_rounds)
    spans = tracer.Tracer()
    if wl.in_process:
        spans.install()
    else:
        wl.traced = True
    try:
        traced, _ = workloads.run_rounds(wl, rounds=wl.trace_rounds)
    finally:
        spans.uninstall()
        wl.traced = False
    snap = spans.snapshot() if wl.in_process else tracer.merge(wl.child_snapshots)
    pairs = [(u.seconds / u.slowness, t.seconds / t.slowness) for u, t in zip(untraced, traced)
             if u.seconds is not None and t.seconds is not None]
    trials = wl.mc_trials(traced)
    extra = tracer.import_times(workloads.bench_env(wl.root))
    extra.update({
        "montecarlo.draw_floor_s": workloads.draw_floor_s(trials),
        "montecarlo.bytes_drawn": 8 * 8 * sum(n for _, n in trials),
        "trace.overhead_frac": (sum(t for _, t in pairs) / sum(u for u, _ in pairs) - 1.0
                                if pairs else float("nan")),
    })
    ops = untraced + traced
    wl.check(ops)
    metrics = {k: (m["value"], m["unit"]) for k, m in tracer.layer_metrics(snap, extra).items()}
    return ops, metrics, {"rounds": wl.trace_rounds, "samples": {"traced_ops": len(traced)}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("loss_scan", "mc_validate", "cli_cold"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import, generate inputs, warm up, print 'ready' and exit "
                             "(one setup_s sample)")
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "qkdattack", "__init__.py")):
        print(f"error: no qkdattack package under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import qkdattack

    if not os.path.abspath(qkdattack.__file__).startswith(src + os.sep):
        print(f"error: imported qkdattack from {qkdattack.__file__}, not {src}",
              file=sys.stderr)
        return 2
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, root)
    if args.setup_only:
        wl.setup()
        print("ready", flush=True)
        return 0

    if args.trace:
        ops, metrics, extra = run_traced(wl)
    else:
        ops, metrics, extra = run_untraced(wl, args.seconds)
    failed = [op for op in ops if op.failures]
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": _machine(), **extra,
        "inputs": wl.properties(ops),
        "fail_frac": len(failed) / max(len(ops), 1),
        "failures": [{"op": op.kind, "inputs": op.inputs, "failures": op.failures}
                     for op in failed],
    }
    print(json.dumps(info, indent=1, default=str))
    print(json.dumps({
        "correct": not failed and bool(ops),
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": _number(v), "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
