"""Command-line front end.

Subcommands: usd, bounds, sweep, crossover, region, simulate. Configuration
is JSON merged over the built-in defaults, with dotted-path overrides via
--set; the QKDATTACK_CONFIG environment variable supplies a default config
path. Diagnostics go to stderr; data goes to stdout or the --out file.
Exit codes: 0 success (also when the reader closes stdout early), 1 usage
or validation error, 2 computation error.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass

from . import analysis, coherent, montecarlo
from .attack import UsdPerformance, optimize_yields
from .coherent import SourceConfig
from .decoy import ChannelParams
from .defaults import default_config

CONFIG_ENV_VAR = "QKDATTACK_CONFIG"

SWEEP_CSV_HEADER = "loss_db,eta,q_mu_gain,r_lower,r_upper,feasible,attack_success"

_IDEAL_CHOICES = ("optimal", "linear_optics")


class UsageError(Exception):
    """Bad invocation or configuration; maps to exit code 1."""


class ConfigError(UsageError):
    """Invalid configuration value, carrying the offending field path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


@dataclass(frozen=True)
class RunConfig:
    """Validated run parameters for all subcommands."""

    source: SourceConfig
    channel: ChannelParams
    detector_efficiency: float
    usd: UsdPerformance
    n_trunc: int
    enforce_errors: bool
    sweep_start_db: float
    sweep_end_db: float
    sweep_step_db: float
    mc_n_pulses: int
    mc_seed: int


def _merge_section(section: str, defaults: dict, user: dict) -> dict:
    unknown = set(user) - set(defaults)
    if unknown:
        raise ConfigError(f"{section}.{sorted(unknown)[0]}", "unknown field")
    merged = dict(defaults)
    merged.update(user)
    return merged


def _coerce(path: str, value, kind) -> object:
    if kind is bool:
        if isinstance(value, bool):
            return value
        raise ConfigError(path, f"expected a boolean, got {value!r}")
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(path, f"expected an integer, got {value!r}")
        if int(value) != value:
            raise ConfigError(path, f"expected an integer, got {value!r}")
        return int(value)
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(path, f"expected a number, got {value!r}")
        return float(value)
    raise AssertionError(kind)


def _apply_overrides(raw: dict, overrides: list[str]) -> None:
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
        raw.setdefault(parts[0], {})[parts[1]] = value


def build_config(raw: dict) -> RunConfig:
    """Validate a raw config dict merged over the defaults."""
    if not isinstance(raw, dict):
        raise UsageError("config root must be a JSON object")
    defaults = default_config()
    unknown = set(raw) - set(defaults)
    if unknown:
        raise ConfigError(sorted(unknown)[0], "unknown section")

    src_raw = _merge_section("source", defaults["source"], raw.get("source", {}))
    mu = _coerce("source.mu", src_raw["mu"], float)
    nu = _coerce("source.nu", src_raw["nu"], float)
    if not mu > nu >= 0:
        raise ConfigError("source.mu", f"require mu > nu >= 0, got mu={mu}, nu={nu}")
    try:
        source = SourceConfig(
            mu=mu, nu=nu,
            theta_s=_coerce("source.theta_s", src_raw["theta_s"], float),
            theta_d=_coerce("source.theta_d", src_raw["theta_d"], float),
        )
    except ValueError as exc:
        raise ConfigError("source", str(exc)) from None

    ch_user = dict(raw.get("channel", {}))
    ch_defaults = dict(defaults["channel"])
    ch_defaults["eta"] = None  # accepted as the alternative to loss_db
    if "loss_db" in ch_user and "eta" in ch_user:
        raise ConfigError("channel.loss_db", "give either loss_db or eta, not both")
    if "eta" in ch_user:
        ch_defaults.pop("loss_db")
    ch_raw = _merge_section("channel", ch_defaults, ch_user)
    if ch_raw.get("eta") is not None:
        eta = _coerce("channel.eta", ch_raw["eta"], float)
    else:
        eta = 10.0 ** (-_coerce("channel.loss_db", ch_raw["loss_db"], float) / 10.0)
    detector_efficiency = _coerce(
        "channel.detector_efficiency", ch_raw["detector_efficiency"], float
    )
    if not 0.0 < detector_efficiency <= 1.0:
        raise ConfigError(
            "channel.detector_efficiency",
            f"must be in (0, 1], got {detector_efficiency}",
        )
    try:
        channel = ChannelParams(
            eta=eta,
            y0=_coerce("channel.y0", ch_raw["y0"], float),
            e_d=_coerce("channel.e_d", ch_raw["e_d"], float),
        )
    except ValueError as exc:
        raise ConfigError("channel", str(exc)) from None

    usd_user = dict(raw.get("usd", {}))
    explicit = {"q_mu", "q_nu", "xi_mu", "xi_nu"} & set(usd_user)
    if "ideal" in usd_user:
        if explicit:
            raise ConfigError(
                "usd.ideal", "ideal selector excludes explicit q/xi values"
            )
        ideal = usd_user["ideal"]
        if ideal not in _IDEAL_CHOICES:
            raise ConfigError(
                "usd.ideal", f"must be one of {_IDEAL_CHOICES}, got {ideal!r}"
            )
        q = (
            coherent.usd_success_optimal(source)
            if ideal == "optimal"
            else coherent.usd_success_linear_optics(source)
        )
        usd = UsdPerformance(q_mu=q, q_nu=q, xi_mu=1.0, xi_nu=1.0)
    else:
        usd_raw = _merge_section("usd", defaults["usd"], usd_user)
        try:
            usd = UsdPerformance(
                q_mu=_coerce("usd.q_mu", usd_raw["q_mu"], float),
                q_nu=_coerce("usd.q_nu", usd_raw["q_nu"], float),
                xi_mu=_coerce("usd.xi_mu", usd_raw["xi_mu"], float),
                xi_nu=_coerce("usd.xi_nu", usd_raw["xi_nu"], float),
            )
            usd.validate_against(source, ceiling="optimal")
        except ValueError as exc:
            raise ConfigError("usd", str(exc)) from None

    sol_raw = _merge_section("solver", defaults["solver"], raw.get("solver", {}))
    n_trunc = _coerce("solver.n_trunc", sol_raw["n_trunc"], int)
    if n_trunc < 1:
        raise ConfigError("solver.n_trunc", f"must be >= 1, got {n_trunc}")

    sw_raw = _merge_section("sweep", defaults["sweep"], raw.get("sweep", {}))
    sweep_start = _coerce("sweep.start_db", sw_raw["start_db"], float)
    sweep_end = _coerce("sweep.end_db", sw_raw["end_db"], float)
    sweep_step = _coerce("sweep.step_db", sw_raw["step_db"], float)
    if sweep_step <= 0:
        raise ConfigError("sweep.step_db", f"must be positive, got {sweep_step}")
    if sweep_start > sweep_end:
        raise ConfigError(
            "sweep.start_db",
            f"empty range: start_db {sweep_start} > end_db {sweep_end}",
        )

    mc_raw = _merge_section("mc", defaults["mc"], raw.get("mc", {}))
    mc_n = _coerce("mc.n_pulses", mc_raw["n_pulses"], int)
    if mc_n < 1:
        raise ConfigError("mc.n_pulses", f"must be >= 1, got {mc_n}")

    return RunConfig(
        source=source,
        channel=channel,
        detector_efficiency=detector_efficiency,
        usd=usd,
        n_trunc=n_trunc,
        enforce_errors=_coerce(
            "solver.enforce_errors", sol_raw["enforce_errors"], bool
        ),
        sweep_start_db=sweep_start,
        sweep_end_db=sweep_end,
        sweep_step_db=sweep_step,
        mc_n_pulses=mc_n,
        mc_seed=_coerce("mc.seed", mc_raw["seed"], int),
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
    _apply_overrides(raw, overrides or [])
    return build_config(raw)


def _open_out(out: str | None):
    if out is None:
        return sys.stdout, False
    return open(out, "w", newline=""), True


def _print_kv(stream, pairs) -> None:
    for key, value in pairs:
        stream.write(f"{key} {value}\n")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def cmd_usd(rc: RunConfig, out: str | None) -> int:
    stream, close = _open_out(out)
    try:
        _print_kv(stream, [
            ("p_f", _fmt(coherent.failure_probability(rc.source))),
            ("q_opt", _fmt(coherent.usd_success_optimal(rc.source))),
            ("q_max", _fmt(coherent.usd_success_linear_optics(rc.source))),
        ])
    finally:
        if close:
            stream.close()
    return 0


def cmd_bounds(rc: RunConfig, out: str | None) -> int:
    row = analysis.evaluate_point(
        rc.source, rc.usd, rc.channel,
        n_trunc=rc.n_trunc, enforce_errors=rc.enforce_errors,
    )
    stream, close = _open_out(out)
    try:
        _print_kv(stream, [
            ("loss_db", _fmt(row.loss_db)),
            ("eta", _fmt(row.eta)),
            ("r_lower", _fmt(row.r_lower)),
            ("r_upper", _fmt(row.r_upper)),
            ("feasible", _fmt(row.feasible)),
            ("attack_success", _fmt(row.attack_success)),
        ])
    finally:
        if close:
            stream.close()
    return 0


def cmd_sweep(rc: RunConfig, out: str | None) -> int:
    rows = analysis.sweep(
        rc.source, rc.usd, rc.channel,
        rc.sweep_start_db, rc.sweep_end_db, rc.sweep_step_db,
        n_trunc=rc.n_trunc, enforce_errors=rc.enforce_errors,
    )
    stream, close = _open_out(out)
    try:
        stream.write(SWEEP_CSV_HEADER + "\n")
        for r in rows:
            stream.write(",".join([
                _fmt(r.loss_db), _fmt(r.eta), _fmt(r.q_mu_gain),
                _fmt(r.r_lower), _fmt(r.r_upper),
                _fmt(r.feasible), _fmt(r.attack_success),
            ]) + "\n")
    finally:
        if close:
            stream.close()
    return 0


def cmd_crossover(rc: RunConfig, out: str | None) -> int:
    loss = analysis.find_crossover(
        rc.source, rc.usd, rc.channel,
        rc.sweep_start_db, rc.sweep_end_db,
        n_trunc=rc.n_trunc, enforce_errors=rc.enforce_errors,
    )
    stream, close = _open_out(out)
    try:
        _print_kv(stream, [("crossover_db", f"{loss:.2f}")])
    finally:
        if close:
            stream.close()
    return 0


def cmd_region(rc: RunConfig, out: str | None) -> int:
    region = analysis.success_region(
        rc.source, rc.usd, rc.channel,
        (rc.sweep_start_db, rc.sweep_end_db, rc.sweep_step_db),
        n_trunc=rc.n_trunc, enforce_errors=rc.enforce_errors,
    )
    stream, close = _open_out(out)
    try:
        _print_kv(stream, [
            ("lower_db", f"{region.lower_db:.2f}"),
            ("upper_db", "" if region.upper_db is None else f"{region.upper_db:.2f}"),
            ("upper_mechanism", region.upper_mechanism or ""),
        ])
    finally:
        if close:
            stream.close()
    return 0


def cmd_simulate(rc: RunConfig, out: str | None) -> int:
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
        "empirical": {
            "q_mu_hat": stats.q_mu_hat, "q_mu_se": stats.q_mu_se,
            "q_nu_hat": stats.q_nu_hat, "q_nu_se": stats.q_nu_se,
            "xi_mu_hat": stats.xi_mu_hat, "xi_mu_se": stats.xi_mu_se,
            "xi_nu_hat": stats.xi_nu_hat, "xi_nu_se": stats.xi_nu_se,
            "gain_mu_hat": stats.gain_mu_hat, "gain_mu_se": stats.gain_mu_se,
            "gain_nu_hat": stats.gain_nu_hat, "gain_nu_se": stats.gain_nu_se,
            "n_signal": stats.n_signal, "n_decoy": stats.n_decoy,
        },
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
    stream, close = _open_out(out)
    try:
        json.dump(payload, stream, indent=2, sort_keys=True)
        stream.write("\n")
    finally:
        if close:
            stream.close()
    return 0


class ComputationError(Exception):
    """A well-formed request with no computable answer; exit code 2."""


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
        code = _COMMANDS[args.command](rc, args.out)
        sys.stdout.flush()  # a closed pipe must surface here, not at exit
        return code
    except BrokenPipeError:
        # The reader closed stdout (`| head`): point the descriptor at
        # devnull so the interpreter's flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (
        ComputationError,
        analysis.NoBracketError,
        analysis.InfeasibleBracketError,
        analysis.EmptyRegionError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
