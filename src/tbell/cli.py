"""Command-line front end: figure data, validation sweeps, thresholds.

Subcommands emit flat numeric tables (CSV or JSON lines) with every value
printed to 17 significant digits, so files are byte-stable across runs and
re-parse exactly.  Time-valued inputs and outputs are dimensionless omega*t
unless --physical-time is given.  Settings may come from a flat key=value
config file; command-line flags win.  Each setting is declared once, in
``SETTINGS``, and each subcommand accepts the flags of the settings it reads
and no others.

Exit codes: 0 success, 1 validation/runtime failure, 2 config error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import correlators, inequalities
from .correlators import QuadratureConfig, SelectionPolicy
from .dynamics import DynamicsParams, InitialPhase, measured_trajectory, trajectory_product

VALIDATE_TOLERANCE = 1e-6

# Most points on one grid axis, and cells in one validate (epsilon, lag)
# table: 8 MB per float array of the table.
MAX_GRID_POINTS = 1_000_000

# Table rows formatted per write, so a table's text is never held whole.
_BLOCK_ROWS = 1024

_FORMATS = ("csv", "json-lines")


@dataclass(frozen=True)
class Setting:
    """One row of ``SETTINGS``: a setting's type, readers, help and choices."""

    type: type  # float, int, bool or str
    commands: str  # space-separated subcommands that read it
    help: str | None = None
    choices: tuple[str, ...] | None = None
    config_only: bool = False  # no flag: set in the config file only


# Each subcommand accepts the flags of the settings it reads and no others.
# A config-file key is accepted and checked for every subcommand, since one
# file serves several, and is ignored where it is not read.
_EVERY = "fig1 fig2 validate threshold correlate trajectory"
SETTINGS = {
    "omega": Setting(float, _EVERY, "angular frequency (default 1.0)"),
    "rabi": Setting(float, _EVERY, "vacuum Rabi frequency (cavity mode)"),
    "n": Setting(int, _EVERY, "photon number for the cavity mode"),
    "preset": Setting(str, "fig1 threshold", choices=(*inequalities.PRESETS, "custom")),
    "epsilon": Setting(float, "correlate", "distinguishability threshold"),
    "eps_min": Setting(float, "fig2 validate"),
    "eps_max": Setting(float, "fig2 validate"),
    "eps_steps": Setting(int, "fig2 validate"),
    "t_min": Setting(float, "fig1 validate"),
    "t_max": Setting(float, "fig1 validate"),
    "t_steps": Setting(int, "fig1 validate"),
    "nodes": Setting(int, "validate correlate", "phase-grid size for the oracle"),
    "scheme": Setting(str, "validate correlate", choices=correlators.QUADRATURE_SCHEMES),
    "out": Setting(str, _EVERY, "output path ('-' for stdout)"),
    "format": Setting(str, _EVERY, choices=_FORMATS),
    "select_both": Setting(bool, "validate correlate",
                           "apply the threshold to the second outcome too (exploratory)"),
    "physical_time": Setting(bool, "fig1 validate correlate trajectory",
                             "times are physical instead of omega*t"),
    "full_search": Setting(bool, "threshold", "also maximize over unconstrained gaps"),
    "t1": Setting(float, "correlate"),
    "t2": Setting(float, "correlate"),
    "times": Setting(str, "trajectory", "comma-separated measurement times"),
    "outcomes": Setting(str, "trajectory", "comma-separated outcomes, e.g. +1,-1,+1"),
    "phase": Setting(float, "trajectory", "anchor instant t' (default 0)"),
    "custom_n_times": Setting(int, "fig1 threshold", config_only=True),
    "custom_terms": Setting(str, "fig1 threshold", config_only=True),
    "custom_bound": Setting(float, "fig1 threshold", config_only=True),
    "custom_abs": Setting(bool, "fig1 threshold", config_only=True),
}

_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,
             "0": False, "false": False, "no": False, "off": False}


class ConfigError(Exception):
    pass


@contextlib.contextmanager
def _config_errors():
    """Report a ValueError raised in the block as a config error (exit 2)."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _cast(key: str, text: str):
    setting = SETTINGS[key]
    try:
        value = _BOOLEANS[text.lower()] if setting.type is bool else setting.type(text)
        if setting.choices is not None and value not in setting.choices:
            raise ValueError(text)
        return value
    except (KeyError, ValueError):
        raise ConfigError(f"bad value for {key!r}: {text!r}") from None


def _load_config_file(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in SETTINGS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = _cast(key, value.strip())
    return values


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process on first use and shared by
    every call: callers must not modify it (``parse_args`` does not)."""
    parser = argparse.ArgumentParser(
        prog="tbell",
        description="Temporal Bell inequalities for a measured two-level system.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, text) in _COMMANDS.items():
        # an argument group adds a flag without the help formatter that
        # ArgumentParser.add_argument builds to check each one
        group = sub.add_parser(command, help=text).add_argument_group("settings")
        group.add_argument("--config", help="flat key=value settings file (flags win)")
        for key, setting in SETTINGS.items():
            if setting.config_only or command not in setting.commands.split():
                continue
            kind = (dict(action="store_const", const=True, default=None) if setting.type is bool
                    else dict(type=setting.type, choices=setting.choices))
            group.add_argument("--" + key.replace("_", "-"), help=setting.help, **kind)
    return parser


def _resolve(args: argparse.Namespace) -> dict:
    cfg: dict = {}
    if args.config:
        cfg.update(_load_config_file(args.config))
    cfg.update((key, value) for key, value in vars(args).items()
               if key in SETTINGS and value is not None)
    for key in sorted(cfg):
        if SETTINGS[key].type is float and not math.isfinite(cfg[key]):
            raise ConfigError(f"{key} must be finite, got {cfg[key]!r}")
    return cfg


def _effective_params(cfg: dict) -> DynamicsParams:
    omega, rabi, n = cfg.get("omega"), cfg.get("rabi"), cfg.get("n")
    if rabi is not None or n is not None:
        if omega is not None:
            raise ConfigError("give either --omega or --rabi with --n, not both")
        if rabi is None or n is None:
            raise ConfigError("--rabi and --n must be given together")
    with _config_errors():
        if rabi is not None:
            omega = inequalities.jaynes_cummings_frequency(rabi, n)
        return DynamicsParams(1.0 if omega is None else omega)


def _grid(lo: float, hi: float, steps: int, setting: str) -> np.ndarray:
    if steps > MAX_GRID_POINTS:
        raise ConfigError(f"{setting} must be at most {MAX_GRID_POINTS}, got {steps}")
    if steps < 1 or (steps == 1 and lo != hi):
        raise ConfigError(f"{setting}: need at least 2 grid points (or min == max with 1)")
    if steps == 1:
        return np.array([lo])
    return np.linspace(lo, hi, steps)


def _spec_from_config(cfg: dict, default: str | None = None) -> tuple[str, inequalities.InequalitySpec]:
    name = cfg.get("preset", default)
    if name is None:
        raise ConfigError("a --preset is required")
    if name in inequalities.PRESETS:
        return name, inequalities.PRESETS[name]
    missing = [k for k in ("custom_n_times", "custom_terms", "custom_bound") if k not in cfg]
    if missing:
        raise ConfigError(f"custom preset needs config keys: {', '.join(missing)}")
    terms = []
    for chunk in cfg["custom_terms"].split(";"):
        try:
            i, j, coeff = chunk.split(",")
            terms.append((int(i), int(j), float(coeff)))
        except ValueError:
            raise ConfigError(f"bad value for 'custom_terms': {chunk!r}; "
                              "expected i,j,coefficient") from None
    with _config_errors():
        return "custom", inequalities.InequalitySpec(
            n_times=cfg["custom_n_times"], terms=tuple(terms), bound=cfg["custom_bound"],
            abs_mode=cfg.get("custom_abs", False))


def _quadrature(cfg: dict) -> QuadratureConfig:
    with _config_errors():
        return QuadratureConfig(n_nodes=cfg.get("nodes", correlators.DEFAULT_NODES),
                                scheme=cfg.get("scheme", "uniform-midpoint"))


def _fmt(value) -> str:
    return format(float(value), ".17g")


def _emit_table(cfg: dict, columns: dict) -> None:
    """Write the named columns (scalars or arrays that broadcast together, one
    row per element in row-major order) to ``--out`` or stdout,
    ``_BLOCK_ROWS`` rows at a time; a non-finite value writes nothing."""
    names = list(columns)
    table = np.empty(np.broadcast(*columns.values()).shape + (len(names),))
    for k, values in enumerate(columns.values()):
        table[..., k] = values
    table = table.reshape(-1, len(names))
    bad = ~np.isfinite(table)
    if bad.any():
        column = names[int(np.argmax(bad)) % len(names)]
        raise FloatingPointError(f"non-finite {column} value; nothing written")
    if cfg.get("format", "csv") == "csv":
        head, row = ",".join(names) + "\n", ",".join(["%.17g"] * len(names))
    else:
        head, row = "", "{" + ", ".join(f'"{name}": %.17g' for name in names) + "}"
    row += "\n"  # %.17g prints what format(float(v), ".17g") does
    out = cfg.get("out")
    with (contextlib.nullcontext(sys.stdout) if out in (None, "-")
          else open(out, "w", newline="\n")) as handle:
        handle.write(head)
        for start in range(0, len(table), _BLOCK_ROWS):
            block = table[start:start + _BLOCK_ROWS]
            handle.write((row * len(block)) % tuple(block.ravel().tolist()))


def _time_axis(cfg: dict, params: DynamicsParams) -> tuple[str, float]:
    """Column name and input->physical scale for the time axis."""
    return ("t", 1.0) if cfg.get("physical_time") else ("omega_t", 1.0 / params.omega)


def _physical_times(scale: float, times: dict[str, float]) -> list[float]:
    """The named times in physical units; each, and the span between any two
    before and after the scale, must be finite."""
    for name, t in times.items():
        if not math.isfinite(t * scale):
            raise ConfigError(f"{name} must be finite after the omega scale, got {t!r}")
    lo, hi = min(times, key=times.get), max(times, key=times.get)
    if not all(math.isfinite(times[hi] * s - times[lo] * s) for s in (1.0, scale)):
        raise ConfigError(f"the span from {lo} to {hi} is not finite")
    return [t * scale for t in times.values()]


def cmd_fig1(cfg: dict) -> int:
    params = _effective_params(cfg)
    name, spec = _spec_from_config(cfg, default="santos-minus")
    if spec is not inequalities.SANTOS_MINUS:
        raise ConfigError("fig1 draws the santos-minus combination; pass that preset")
    axis_name, scale = _time_axis(cfg, params)
    ends = {"t_min": cfg.get("t_min", 0.0), "t_max": cfg.get("t_max", 4.0 * math.pi)}
    for name, t in zip(ends, _physical_times(scale, ends)):
        if not math.isfinite(2.0 * (params.omega * t)):
            raise ConfigError(f"{name} gives a doubled phase 2*omega*t that is not finite")
    axis = _grid(*ends.values(), cfg.get("t_steps", 1025), "t_steps")
    spacing = axis * scale
    curve = inequalities.stationary_curve(spec, spacing, params, SelectionPolicy(0.0))
    _emit_table(cfg, {axis_name: axis, "q_free": np.cos(2.0 * (params.omega * spacing)),
                      "delta_k_minus": curve, "bound": spec.bound})
    return 0


def cmd_fig2(cfg: dict) -> int:
    params = _effective_params(cfg)
    eps_grid = _grid(cfg.get("eps_min", 0.0), cfg.get("eps_max", 1.0),
                     cfg.get("eps_steps", 101), "eps_steps")
    if np.any((eps_grid < 0) | (eps_grid > 1)):
        raise ConfigError("epsilon grid must stay inside [0, 1]")
    a_eps = np.array([correlators.selection_factor(SelectionPolicy(eps))
                      for eps in eps_grid.tolist()])
    columns = {"epsilon": eps_grid}
    for label, spec in (("paz", inequalities.PAZ4), ("santos", inequalities.SANTOS_MINUS)):
        dk_max = inequalities.maximize_violation(spec, params, SelectionPolicy(0.0)).delta_k_max
        columns[f"delta_b_max_{label}"] = (a_eps * dk_max - spec.bound) / spec.bound
    _emit_table(cfg, columns)
    return 0


def _select_both_closed_form(oracle: np.ndarray, eps: np.ndarray, omega_lag: np.ndarray,
                             factors: np.ndarray) -> np.ndarray:
    """The select-both correlator A(eps) (c^2 [c^2 >= eps] - s^2 [s^2 >= eps]) with
    c = cos(omega lag), s = sin(omega lag) on an (epsilon, lag) grid.  Where c^2 or
    s^2 lies within 1e-9 of eps, the indicator is ill-conditioned and takes
    whichever of its two values puts the form nearer ``oracle``."""
    e = eps[:, None]
    c2, s2 = np.cos(omega_lag) ** 2, np.sin(omega_lag) ** 2
    form, best = np.zeros(oracle.shape), np.full(oracle.shape, np.inf)
    for c_on, s_on in ((False, False), (False, True), (True, False), (True, True)):
        allowed = ((((c2 >= e) == c_on) | (np.abs(c2 - e) <= 1e-9))
                   & (((s2 >= e) == s_on) | (np.abs(s2 - e) <= 1e-9)))
        candidate = factors[:, None] * (c2 * c_on - s2 * s_on)
        gap = np.where(allowed, np.abs(oracle - candidate), np.inf)
        form = np.where(gap < best, candidate, form)
        best = np.minimum(gap, best)
    return form


def cmd_validate(cfg: dict) -> int:
    params = _effective_params(cfg)
    quad = _quadrature(cfg)
    eps_grid = _grid(cfg.get("eps_min", 0.0), cfg.get("eps_max", 1.0),
                     cfg.get("eps_steps", 21), "eps_steps")
    if np.any((eps_grid < 0) | (eps_grid > 1)):
        raise ConfigError("epsilon grid must stay inside [0, 1]")
    _, scale = _time_axis(cfg, params)
    t_min, t_max = cfg.get("t_min", 0.0), cfg.get("t_max", math.pi)
    _physical_times(scale, {"t_min": t_min, "t_max": t_max})
    lags = _grid(t_min, t_max, cfg.get("t_steps", 64), "t_steps") * scale
    if eps_grid.size * lags.size > MAX_GRID_POINTS:
        raise ConfigError(f"eps_steps x t_steps must be at most {MAX_GRID_POINTS} cells, "
                          f"got {eps_grid.size} x {lags.size}")
    select_both = bool(cfg.get("select_both", False))

    oracle = correlators.k_oracle_grid(0.0, lags, eps_grid, params, quad,
                                       select_both=select_both)
    factors = np.array([correlators.selection_factor(SelectionPolicy(eps))
                        for eps in eps_grid.tolist()])
    if select_both:
        analytic = _select_both_closed_form(oracle, eps_grid, params.omega * lags, factors)
    else:
        free = np.array([correlators.k_analytic(0.0, lag, params) for lag in lags])
        analytic = factors[:, None] * free
    deviation = np.abs(oracle - analytic)
    worst_e, worst_l = np.unravel_index(int(np.argmax(deviation)), deviation.shape)
    max_dev = float(deviation[worst_e, worst_l])

    if cfg.get("out") is not None:
        _emit_table(cfg, {"epsilon": eps_grid[:, None], "omega_lag": params.omega * lags,
                          "k_oracle": oracle, "k_selective": analytic, "deviation": deviation})

    passed = max_dev <= VALIDATE_TOLERANCE
    print(f"grid: {eps_grid.size} epsilons x {lags.size} lags, "
          f"nodes={quad.n_nodes}, scheme={quad.scheme}, select_both={select_both}")
    print(f"max deviation: {_fmt(max_dev)} at epsilon={_fmt(eps_grid[worst_e])}, "
          f"omega_lag={_fmt(params.omega * lags[worst_l])}")
    print(f"{'PASS' if passed else 'FAIL'} (tolerance {_fmt(VALIDATE_TOLERANCE)})")
    return 0 if passed else 1


def cmd_threshold(cfg: dict) -> int:
    params = _effective_params(cfg)
    name, spec = _spec_from_config(cfg)
    report = inequalities.maximize_violation(spec, params, SelectionPolicy(0.0))
    eps_star = inequalities.threshold_from_maximum(spec, report.delta_k_max)
    a_star = correlators.selection_factor(SelectionPolicy(eps_star))
    argmax_wt = params.omega * report.argmax_spacing
    lines = [f"preset: {name}", f"delta_k_max: {_fmt(report.delta_k_max)}",
             f"argmax_omega_t: {_fmt(argmax_wt)}", f"epsilon_star: {_fmt(eps_star)}",
             f"a_epsilon_star: {_fmt(a_star)}"]
    if cfg.get("full_search"):  # it refuses some specs, so it runs before any output
        with _config_errors():
            best, gaps = inequalities.full_time_search(spec, params)
        lines += [f"full_search_max: {_fmt(best)}", "full_search_gaps_omega_t: "
                  + ",".join(_fmt(params.omega * g) for g in gaps)]
    print(*lines, sep="\n")
    if cfg.get("out") is not None:
        _emit_table(cfg, {"delta_k_max": report.delta_k_max, "argmax_omega_t": argmax_wt,
                          "epsilon_star": eps_star, "a_epsilon_star": a_star})
    return 0


def cmd_correlate(cfg: dict) -> int:
    params = _effective_params(cfg)
    if cfg.get("t1") is None or cfg.get("t2") is None:
        raise ConfigError("correlate needs --t1 and --t2")
    _, scale = _time_axis(cfg, params)
    t1, t2 = _physical_times(scale, {"t1": cfg["t1"], "t2": cfg["t2"]})
    with _config_errors():
        policy = SelectionPolicy(cfg.get("epsilon", 0.0))
    quad = _quadrature(cfg)
    req = correlators.CorrelationRequest(t1, t2, params, policy)
    oracle = correlators.k_oracle_grid(
        req.t1, np.array([req.t2 - req.t1]), np.array([policy.epsilon]), params,
        quad, select_both=bool(cfg.get("select_both", False)))[0, 0]
    _emit_table(cfg, {"omega": params.omega, "t1": cfg["t1"], "t2": cfg["t2"],
                      "epsilon": policy.epsilon, "a_epsilon": correlators.selection_factor(policy),
                      "k_analytic": correlators.k_analytic(req.t1, req.t2, params),
                      "k_selective": correlators.k_selective_analytic(req), "k_oracle": oracle})
    return 0


def _parse_outcomes(text: str) -> tuple[int, ...]:
    mapping = {"+1": 1, "1": 1, "+": 1, "-1": -1, "-": -1}
    outcomes = []
    for token in text.split(","):
        token = token.strip()
        if token not in mapping:
            raise ConfigError(f"bad outcome {token!r}; expected +1 or -1")
        outcomes.append(mapping[token])
    return tuple(outcomes)


def cmd_trajectory(cfg: dict) -> int:
    params = _effective_params(cfg)
    if cfg.get("times") is None or cfg.get("outcomes") is None:
        raise ConfigError("trajectory needs --times and --outcomes")
    axis_name, scale = _time_axis(cfg, params)
    try:
        raw_times = tuple(float(tok) for tok in cfg["times"].split(","))
    except ValueError:
        raise ConfigError(f"bad --times value {cfg['times']!r}") from None
    outcomes = _parse_outcomes(cfg["outcomes"])
    named = {f"times[{i}]": t for i, t in enumerate(raw_times)}
    t_prime, *times = _physical_times(scale, {"phase": cfg.get("phase", 0.0), **named})
    with _config_errors():
        records, final_state = measured_trajectory(InitialPhase(t_prime), times, outcomes, params)
    _emit_table(cfg, {"index": np.arange(1, len(records) + 1), axis_name: raw_times,
                      "outcome": [rec.outcome for rec in records],
                      "pre_probability": [rec.pre_probability for rec in records],
                      "disturbance": [rec.disturbance for rec in records]})
    print(f"final_norm_sq: {_fmt(final_state.norm_sq())}")
    print(f"product: {_fmt(trajectory_product(records, final_state))}")
    return 0


_COMMANDS = {
    "fig1": (cmd_fig1, "free expectation curve and the stationary inequality combination"),
    "fig2": (cmd_fig2, "fractional violation versus distinguishability threshold"),
    "validate": (cmd_validate,
                 "brute-force oracle versus the closed form on an (epsilon, lag) grid"),
    "threshold": (cmd_threshold, "distinguishability level where violations disappear"),
    "correlate": (cmd_correlate, "single selective-correlator query"),
    "trajectory": (cmd_trajectory, "record sequence of one measured trajectory"),
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _resolve(args)
        return _COMMANDS[args.command][0](cfg)
    except (ConfigError, ValueError, OSError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ConfigError) else 1


if __name__ == "__main__":
    sys.exit(main())
