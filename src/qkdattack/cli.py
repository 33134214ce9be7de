"""Command-line front end.

Subcommands: usd, bounds, sweep, crossover, region, simulate. Configuration
is JSON merged over the built-in defaults, with dotted-path overrides via
--set; the QKDATTACK_CONFIG environment variable supplies a default config
path. Each field takes the type of its default in defaults.DEFAULT_CONFIG,
and numbers must be finite. Diagnostics go to stderr; data goes to stdout
or the --out file, which is written only once the command has succeeded.
Exit codes: 0 success (also when the reader closes stdout early), 1 usage
or validation error, 2 computation error, including a point the model
cannot evaluate.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass

from . import analysis, coherent, montecarlo
from .attack import UsdPerformance, optimize_yields
from .coherent import SourceConfig
from .decoy import ChannelParams
from .defaults import DEFAULT_CONFIG

CONFIG_ENV_VAR = "QKDATTACK_CONFIG"

SWEEP_CSV_HEADER = "loss_db,eta,q_mu_gain,r_lower,r_upper,feasible,attack_success"

_IDEAL_USD = {
    "optimal": coherent.usd_success_optimal,
    "linear_optics": coherent.usd_success_linear_optics,
}

#: Fields accepted beyond those of DEFAULT_CONFIG, with their types.
_EXTRA_FIELDS = {"channel": {"eta": float}, "usd": {"ideal": str}}

_TYPE_NAMES = {bool: "a boolean", int: "an integer", float: "a number", str: "a string"}


class UsageError(Exception):
    """Bad invocation or configuration; maps to exit code 1."""


class ConfigError(UsageError):
    """Invalid configuration value, carrying the offending field path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


class ComputationError(Exception):
    """A well-formed request with no computable answer; exit code 2."""


@dataclass(frozen=True)
class RunConfig:
    """Validated run parameters for all subcommands."""

    source: SourceConfig
    channel: ChannelParams
    usd: UsdPerformance
    n_trunc: int
    enforce_errors: bool
    sweep_start_db: float
    sweep_end_db: float
    sweep_step_db: float
    mc_n_pulses: int
    mc_seed: int


def _coerce(path: str, value, kind) -> object:
    """value as a field of type kind; numbers must be finite."""
    numbers = (int, float)
    if isinstance(value, bool) != (kind is bool) or not isinstance(
        value, numbers if kind in numbers else kind
    ):
        raise ConfigError(path, f"expected {_TYPE_NAMES[kind]}, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(path, f"must be finite, got {value!r}")
    if kind is int and int(value) != value:
        raise ConfigError(path, f"expected an integer, got {value!r}")
    try:
        return kind(value)
    except OverflowError:  # an integer beyond the float range
        raise ConfigError(path, f"must be finite, got {value!r}") from None


def _checked(section: str, build, *args, **kwargs):
    """build(*args, **kwargs), with its range errors reported on section."""
    try:
        return build(*args, **kwargs)
    except (ValueError, ArithmeticError) as exc:
        raise ConfigError(section, str(exc)) from None


def _parse_overrides(overrides: list[str]) -> list[tuple[str, dict]]:
    """(section, {field: value}) for each --set section.field=value."""
    parsed = []
    for item in overrides:
        if "=" not in item:
            raise UsageError(f"--set expects key=value, got {item!r}")
        key, text = item.split("=", 1)
        parts = key.strip().split(".")
        if len(parts) != 2 or not all(parts):
            raise UsageError(f"--set key must be section.field, got {key!r}")
        try:
            value = json.loads(text)
        except json.JSONDecodeError:
            value = text
        parsed.append((parts[0], {parts[1]: value}))
    return parsed


def build_config(raw: dict, overrides: list[str] = ()) -> RunConfig:
    """Validate a raw config dict and --set overrides, merged over the defaults.

    Each field takes the type of its value in DEFAULT_CONFIG; channel.eta
    and usd.ideal are the only fields beyond those.
    """
    if not isinstance(raw, dict):
        raise UsageError("config root must be a JSON object")
    given: dict[str, dict] = {}
    for section, fields in [*raw.items(), *_parse_overrides(overrides)]:
        if section not in DEFAULT_CONFIG:
            raise ConfigError(section, "unknown section")
        if not isinstance(fields, dict):
            raise ConfigError(section, f"must be a JSON object, got {fields!r}")
        given.setdefault(section, {}).update(fields)
    cfg = {}
    for section, defaults in DEFAULT_CONFIG.items():
        kinds = {name: type(v) for name, v in defaults.items()}
        kinds.update(_EXTRA_FIELDS.get(section, {}))
        cfg[section] = dict(defaults)
        for name, value in given.get(section, {}).items():
            path = f"{section}.{name}"
            if name not in kinds:
                raise ConfigError(path, "unknown field")
            cfg[section][name] = _coerce(path, value, kinds[name])
    src, ch, usd, sol, sw, mc = (
        cfg[s] for s in ("source", "channel", "usd", "solver", "sweep", "mc")
    )
    given_usd = given.get("usd", {}).keys()

    for path, ok, message in (
        ("channel.loss_db", not {"loss_db", "eta"} <= given.get("channel", {}).keys(),
         "give either loss_db or eta, not both"),
        ("usd.ideal", "ideal" not in given_usd or given_usd == {"ideal"},
         "ideal selector excludes explicit q/xi values"),
        ("usd.ideal", usd.get("ideal", "optimal") in _IDEAL_USD,
         f"must be one of {tuple(_IDEAL_USD)}, got {usd.get('ideal')!r}"),
        ("solver.n_trunc", sol["n_trunc"] >= 1, f"must be >= 1, got {sol['n_trunc']}"),
        ("sweep.start_db", sw["start_db"] <= sw["end_db"],
         f"empty range: start_db {sw['start_db']} > end_db {sw['end_db']}"),
        ("mc.n_pulses", mc["n_pulses"] >= 1, f"must be >= 1, got {mc['n_pulses']}"),
        ("mc.seed", 0 <= mc["seed"] < 2**128, f"must be in [0, 2**128), got {mc['seed']}"),
    ):
        if not ok:
            raise ConfigError(path, message)

    source = _checked("source.mu", SourceConfig, **src)
    if "eta" in ch:
        channel = _checked("channel", ChannelParams, ch["eta"], ch["y0"], ch["e_d"])
    else:
        channel = _checked(
            "channel", ChannelParams.from_loss_db, ch["loss_db"], ch["y0"], ch["e_d"]
        )
    for key in ("start_db", "end_db"):  # the sweep's endpoint channels must exist
        _checked(f"sweep.{key}", channel.at_loss_db, sw[key])
    _checked("sweep.step_db", analysis.loss_grid, sw["start_db"], sw["end_db"], sw["step_db"])
    if "ideal" in usd:
        q = _IDEAL_USD[usd["ideal"]](source)
        usd_perf = UsdPerformance(q_mu=q, q_nu=q, xi_mu=1.0, xi_nu=1.0)
    else:
        usd_perf = _checked("usd", UsdPerformance, **usd)
        _checked("usd", usd_perf.validate_against, source)

    return RunConfig(
        source=source, channel=channel, usd=usd_perf,
        n_trunc=sol["n_trunc"], enforce_errors=sol["enforce_errors"],
        sweep_start_db=sw["start_db"], sweep_end_db=sw["end_db"],
        sweep_step_db=sw["step_db"], mc_n_pulses=mc["n_pulses"], mc_seed=mc["seed"],
    )


def parse_config(path: str | None = None, overrides: list[str] | None = None) -> RunConfig:
    """Load, merge, override, and validate a run configuration.

    With no path, the QKDATTACK_CONFIG environment variable is consulted;
    with neither, the built-in defaults apply.
    """
    if path is None:
        path = os.environ.get(CONFIG_ENV_VAR) or None
    raw: dict = {}
    if path is not None:
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise UsageError(f"cannot read config {path}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise UsageError(f"config {path} is not valid JSON: {exc}") from None
    return build_config(raw, overrides or [])


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _kv_lines(**fields) -> str:
    return "".join(f"{key} {_fmt(value)}\n" for key, value in fields.items())


def cmd_usd(rc: RunConfig) -> str:
    return _kv_lines(
        p_f=coherent.failure_probability(rc.source),
        q_opt=coherent.usd_success_optimal(rc.source),
        q_max=coherent.usd_success_linear_optics(rc.source),
    )


def cmd_bounds(rc: RunConfig) -> str:
    row = analysis.evaluate_point(
        rc.source, rc.usd, rc.channel,
        n_trunc=rc.n_trunc, enforce_errors=rc.enforce_errors,
    )
    return _kv_lines(
        loss_db=row.loss_db, eta=row.eta, r_lower=row.r_lower, r_upper=row.r_upper,
        feasible=row.feasible, attack_success=row.attack_success,
    )


def cmd_sweep(rc: RunConfig) -> str:
    rows = analysis.sweep(
        rc.source, rc.usd, rc.channel,
        rc.sweep_start_db, rc.sweep_end_db, rc.sweep_step_db,
        n_trunc=rc.n_trunc, enforce_errors=rc.enforce_errors,
    )
    return SWEEP_CSV_HEADER + "\n" + "".join(
        ",".join(_fmt(v) for v in (
            r.loss_db, r.eta, r.q_mu_gain, r.r_lower, r.r_upper,
            r.feasible, r.attack_success,
        )) + "\n"
        for r in rows
    )


def cmd_crossover(rc: RunConfig) -> str:
    loss = analysis.find_crossover(
        rc.source, rc.usd, rc.channel,
        rc.sweep_start_db, rc.sweep_end_db,
        n_trunc=rc.n_trunc, enforce_errors=rc.enforce_errors,
    )
    return f"crossover_db {loss:.2f}\n"


def cmd_region(rc: RunConfig) -> str:
    region = analysis.success_region(
        rc.source, rc.usd, rc.channel,
        (rc.sweep_start_db, rc.sweep_end_db, rc.sweep_step_db),
        n_trunc=rc.n_trunc, enforce_errors=rc.enforce_errors,
    )
    return _kv_lines(
        lower_db=f"{region.lower_db:.2f}",
        upper_db=None if region.upper_db is None else f"{region.upper_db:.2f}",
        upper_mechanism=region.upper_mechanism,
    )


def cmd_simulate(rc: RunConfig) -> str:
    sol = optimize_yields(
        rc.source, rc.usd, rc.channel,
        n_trunc=rc.n_trunc, enforce_errors=rc.enforce_errors,
    )
    if not sol.feasible:
        raise ComputationError(
            f"no statistics-preserving attack at {rc.channel.loss_db:.2f} dB; "
            "nothing to simulate"
        )
    tc = montecarlo.TrialConfig(
        n_pulses=rc.mc_n_pulses, seed=rc.mc_seed,
        cfg=rc.source, usd=rc.usd, plan=sol.plan,
    )
    stats = montecarlo.run_trials(tc)
    expected = montecarlo.expected_gains(tc)

    def residual(hat: float, se: float, ref: float) -> float | None:
        if se == 0 or math.isnan(se):
            return None
        return (hat - ref) / se

    payload = {
        "loss_db": rc.channel.loss_db,
        "n_pulses": rc.mc_n_pulses,
        "seed": rc.mc_seed,
        "empirical": {k: v for k, v in asdict(stats).items() if k != "n_pulses"},
        "analytic": {
            "q_mu": rc.usd.q_mu, "q_nu": rc.usd.q_nu,
            "gain_mu": expected.q_mu_gain, "gain_nu": expected.q_nu_gain,
        },
        "residuals_se": {
            "q_mu": residual(stats.q_mu_hat, stats.q_mu_se, rc.usd.q_mu),
            "q_nu": residual(stats.q_nu_hat, stats.q_nu_se, rc.usd.q_nu),
            "gain_mu": residual(stats.gain_mu_hat, stats.gain_mu_se, expected.q_mu_gain),
            "gain_nu": residual(stats.gain_nu_hat, stats.gain_nu_se, expected.q_nu_gain),
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


_COMMANDS = {
    "usd": cmd_usd,
    "bounds": cmd_bounds,
    "sweep": cmd_sweep,
    "crossover": cmd_crossover,
    "region": cmd_region,
    "simulate": cmd_simulate,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="qkdattack",
        description="Key-rate bounds for decoy-state BB84 without phase "
                    "randomization under an intercept (USD+PNS) attack.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("usd", "discrimination probabilities of the configured source"),
        ("bounds", "believed and attacked key-rate bounds at one loss"),
        ("crossover", "loss where the bounds cross, at 0.01 dB"),
        ("region", "attack-success loss window, endpoints at 0.01 dB"),
        ("sweep", "CSV of both bounds over the configured loss range"),
        ("simulate", "Monte Carlo run of the optimized attack vs analytics"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config path (default: "
                       f"${CONFIG_ENV_VAR} if set, else built-in defaults)")
        p.add_argument("--out", help="output file (default: stdout)")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE",
                       help="override a config field, e.g. channel.loss_db=38")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        rc = parse_config(args.config, args.overrides)
        if args.command != "usd" and rc.source.nu == 0.0:
            # every other command runs the one-decoy estimate or samples decoys
            raise ConfigError(
                "source.nu",
                f"{args.command} needs a decoy intensity nu > 0, got {rc.source.nu}",
            )
        text = _COMMANDS[args.command](rc)
        if args.out is None:
            sys.stdout.write(text)
            sys.stdout.flush()  # a closed pipe must surface here, not at exit
        else:  # created only now, after the command succeeded
            try:
                with open(args.out, "w", newline="") as fh:
                    fh.write(text)
            except OSError as exc:
                raise UsageError(f"cannot write {args.out}: {exc}") from None
        return 0
    except BrokenPipeError:
        # The reader closed stdout (`| head`): point the descriptor at
        # devnull so the interpreter's flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ComputationError, ValueError, ArithmeticError, RuntimeError) as exc:
        # what sweep counts as a failed point; config errors are UsageErrors
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
