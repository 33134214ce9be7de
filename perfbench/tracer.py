"""Per-layer spans around qkdattack's public functions, kept in memory.

Each wrapped call is a span. A span's self time is its duration minus the
time of the spans it encloses, so the layers partition the traced time.
Spans are summed per name as they close (calls, total, self) instead of
being stored one by one, which keeps memory flat over millions of calls.

A wrapper replaces every binding of a function: the defining module, every
qkdattack module that imported the name, and dict entries in those modules
(such as a command table). A name that no longer exists is reported as
"unmeasured" rather than 0.
"""
from __future__ import annotations

import functools
import importlib
import statistics
import subprocess
import sys
import time

# span name -> (defining module, attribute)
SPANS = {
    "coherent.poisson_pmf": ("qkdattack.coherent", "poisson_pmf"),
    "coherent.poisson_tail": ("qkdattack.coherent", "poisson_tail"),
    "decoy.believed_rate": ("qkdattack.decoy", "believed_rate"),
    "attack.optimize": ("qkdattack.attack", "optimize_yields"),
    "attack.lp": ("qkdattack.attack", "solve_yield_lp"),
    "attack.highs": ("scipy.optimize", "linprog"),
    "analysis.evaluate": ("qkdattack.analysis", "evaluate_point"),
    "analysis.sweep": ("qkdattack.analysis", "sweep"),
    "analysis.region": ("qkdattack.analysis", "success_region"),
    "analysis.crossover": ("qkdattack.analysis", "find_crossover"),
    "montecarlo.run_trials": ("qkdattack.montecarlo", "run_trials"),
    "montecarlo.sample": ("qkdattack.montecarlo", "sample_pulses"),
    "cli.main": ("qkdattack.cli", "main"),
    "cli.parse_config": ("qkdattack.cli", "parse_config"),
    **{f"cli.cmd_{c}": ("qkdattack.cli", f"cmd_{c}")
       for c in ("usd", "bounds", "sweep", "crossover", "region", "simulate")},
}

# spans inside which an optimize_yields call is a bisection probe
_BISECTING = ("analysis.region", "analysis.crossover")
_ANALYSIS = ("analysis.sweep",) + _BISECTING

# per-layer metric -> unit, in report order
LAYER_UNITS = {
    "qkdattack.import_s": "s",
    "qkdattack.import_scipy_stats_s": "s",
    "qkdattack.import_scipy_optimize_s": "s",
    "cli.parse_config_s": "s",
    "cli.command_self_s": "s",
    "cli.invocations": "count",
    "coherent.poisson_calls": "count",
    "coherent.poisson_s": "s",
    "decoy.believed_rate_calls": "count",
    "decoy.believed_rate_s": "s",
    "attack.optimize_calls": "count",
    "attack.optimize_self_s": "s",
    "attack.lp_calls": "count",
    "attack.lp_build_s": "s",
    "attack.highs_calls": "count",
    "attack.highs_s": "s",
    "attack.infeasible_frac": "fraction",
    "analysis.sweep_s": "s",
    "analysis.region_s": "s",
    "analysis.crossover_s": "s",
    "analysis.grid_points": "count",
    "analysis.bisection_probes": "count",
    "analysis.self_s": "s",
    "montecarlo.run_trials_s": "s",
    "montecarlo.blocks": "count",
    "montecarlo.sample_s": "s",
    "montecarlo.reduce_s": "s",
    "montecarlo.draw_floor_s": "s",
    "montecarlo.bytes_drawn": "bytes_computed",
    "trace.overhead_frac": "fraction",
}

UNMEASURED = "unmeasured"


class Tracer:
    """Span totals per name plus event counters, filled by installed wrappers."""

    def __init__(self):
        self.totals: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counters: dict[str, float] = {}
        self.missing: set[str] = set()
        self._stack: list[list] = []  # open spans: [name, child_s]
        self._patched: list[tuple] = []  # (namespace, key, original)
        self._hooks = {  # span name -> (on enter, on exit with the result)
            "attack.optimize": (self._count_probe,
                                lambda sol: self.count("infeasible", not sol.feasible)),
            "analysis.sweep": (None, lambda rows: self.count("grid_points", len(rows))),
        }

    def count(self, key: str, n: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def _wrap(self, name: str, fn):
        stack, totals = self._stack, self.totals
        totals.setdefault(name, [0, 0.0, 0.0])
        on_enter, on_exit = self._hooks.get(name, (None, None))

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if on_enter:
                on_enter()
            frame = [name, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                tot = totals[name]
                tot[0] += 1
                tot[1] += dt
                tot[2] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
            if on_exit:
                on_exit(result)
            return result

        return span

    def _count_probe(self):
        enclosing = next((f[0] for f in reversed(self._stack) if f[0] in _ANALYSIS), None)
        if enclosing in _BISECTING:
            self.count("bisection_probes")

    def install(self) -> None:
        """Wrap every name in SPANS at all of its bindings."""
        namespaces = [vars(importlib.import_module("scipy.optimize"))]
        for mod_name in ("qkdattack", "qkdattack.coherent", "qkdattack.decoy",
                         "qkdattack.attack", "qkdattack.analysis",
                         "qkdattack.montecarlo", "qkdattack.cli"):
            try:
                module_vars = vars(importlib.import_module(mod_name))
            except ModuleNotFoundError:  # its spans are reported unmeasured
                continue
            namespaces.append(module_vars)
            namespaces.extend(v for k, v in module_vars.items()
                              if isinstance(v, dict) and not k.startswith("__"))
        for name, (mod_name, attr) in SPANS.items():
            original = getattr(sys.modules.get(mod_name), attr, None)
            if not callable(original):
                self.missing.add(name)
                continue
            wrapper = self._wrap(name, original)
            for ns in namespaces:
                for key, value in list(ns.items()):
                    if value is original:
                        self._patched.append((ns, key, original))
                        ns[key] = wrapper

    def uninstall(self) -> None:
        for ns, key, original in reversed(self._patched):
            ns[key] = original
        self._patched.clear()

    def snapshot(self) -> dict:
        return {"totals": self.totals, "counters": self.counters,
                "missing": sorted(self.missing)}


def merge(snapshots) -> dict:
    """Sum several snapshots, e.g. one per traced child process."""
    out = {"totals": {}, "counters": {}, "missing": set()}
    for snap in snapshots:
        for name, (calls, total, self_s) in snap["totals"].items():
            acc = out["totals"].setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += self_s
        for key, n in snap["counters"].items():
            out["counters"][key] = out["counters"].get(key, 0) + n
        out["missing"].update(snap["missing"])
    out["missing"] = sorted(out["missing"])
    return out


def layer_metrics(snap: dict, extra: dict) -> dict:
    """Per-layer metrics from span totals; extra supplies the rest.

    extra holds the values measured outside the spans: the import times,
    the bare-draw floor, bytes drawn and the tracing overhead.
    """
    totals, counters, missing = snap["totals"], snap["counters"], set(snap["missing"])

    def pick(names, field):
        if any(n in missing for n in names):
            return UNMEASURED
        return sum(totals.get(n, (0, 0.0, 0.0))[field] for n in names)

    def calls(*names):
        return pick(names, 0)

    def total(*names):
        return pick(names, 1)

    def self_s(*names):
        return pick(names, 2)

    def counter(span, key):
        return UNMEASURED if span in missing else counters.get(key, 0)

    commands = [n for n in SPANS if n.startswith("cli.cmd_") and n not in missing]
    optimize_calls = calls("attack.optimize")
    if optimize_calls == UNMEASURED:
        infeasible_frac = UNMEASURED
    else:
        infeasible_frac = counters.get("infeasible", 0) / optimize_calls if optimize_calls else 0.0
    values = {
        "cli.parse_config_s": total("cli.parse_config"),
        "cli.command_self_s": self_s(*commands) if commands else UNMEASURED,
        "cli.invocations": calls("cli.main"),
        "coherent.poisson_calls": calls("coherent.poisson_pmf", "coherent.poisson_tail"),
        "coherent.poisson_s": total("coherent.poisson_pmf", "coherent.poisson_tail"),
        "decoy.believed_rate_calls": calls("decoy.believed_rate"),
        "decoy.believed_rate_s": total("decoy.believed_rate"),
        "attack.optimize_calls": optimize_calls,
        "attack.optimize_self_s": self_s("attack.optimize"),
        "attack.lp_calls": calls("attack.lp"),
        "attack.lp_build_s": self_s("attack.lp"),
        "attack.highs_calls": calls("attack.highs"),
        "attack.highs_s": total("attack.highs"),
        "attack.infeasible_frac": infeasible_frac,
        "analysis.sweep_s": total("analysis.sweep"),
        "analysis.region_s": total("analysis.region"),
        "analysis.crossover_s": total("analysis.crossover"),
        "analysis.grid_points": counter("analysis.sweep", "grid_points"),
        "analysis.bisection_probes": counter("attack.optimize", "bisection_probes"),
        "analysis.self_s": self_s("analysis.evaluate", *_ANALYSIS),
        "montecarlo.run_trials_s": total("montecarlo.run_trials"),
        "montecarlo.blocks": calls("montecarlo.sample"),
        "montecarlo.sample_s": total("montecarlo.sample"),
        "montecarlo.reduce_s": self_s("montecarlo.run_trials"),
    }
    values.update(extra)
    return {name: {"value": values[name], "unit": unit}
            for name, unit in LAYER_UNITS.items()}


def package_import_s(importtime_log: str, package: str) -> float:
    """Seconds spent importing a package's modules, from `-X importtime` output.

    Sums the cumulative time of every module of the package whose importer
    is outside it, so a package pulled in piecewise (or without a line of
    its own, as a lazily loaded subpackage) is counted once in full.
    """
    entries = []  # (depth, name, cumulative_us)
    for line in importtime_log.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            name = parts[2].rstrip()
            entries.append((len(name) - len(name.lstrip()), name.strip(), int(parts[1])))
    parent = [None] * len(entries)
    pending = []  # children are logged before the module that imported them
    for i, (depth, _, _) in enumerate(entries):
        while pending and entries[pending[-1]][0] > depth:
            parent[pending.pop()] = i
        pending.append(i)

    def inside(i):
        name = entries[i][1]
        return name == package or name.startswith(package + ".")

    return 1e-6 * sum(cum for i, (_, _, cum) in enumerate(entries)
                      if inside(i) and (parent[i] is None or not inside(parent[i])))


def import_times(env: dict, repeats: int = 3) -> dict:
    """Import cost of `import qkdattack` per package, median of fresh interpreters.

    A package that `import qkdattack` does not load reports 0 s.
    """
    packages = {"qkdattack.import_s": "qkdattack",
                "qkdattack.import_scipy_stats_s": "scipy.stats",
                "qkdattack.import_scipy_optimize_s": "scipy.optimize"}
    samples = {metric: [] for metric in packages}
    for _ in range(repeats):
        log = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import qkdattack"],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        ).stderr
        for metric, package in packages.items():
            samples[metric].append(package_import_s(log, package))
    return {metric: statistics.median(v) for metric, v in samples.items()}


# precedes the span totals a traced child process writes to stderr
CHILD_MARKER = "\n@@qkdattack-trace@@"
