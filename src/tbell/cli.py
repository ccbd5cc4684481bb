"""Command-line front end: figure data, validation sweeps, thresholds.

Subcommands emit flat numeric tables (CSV or JSON lines) with every value
printed to 17 significant digits, so files are byte-stable across runs and
re-parse exactly.  Time-valued inputs and outputs are dimensionless omega*t
unless --physical-time is given.  Settings may come from a flat key=value
config file; command-line flags win.

Exit codes: 0 success, 1 validation/runtime failure, 2 config error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import sys
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

_FLOAT_KEYS = frozenset({
    "omega", "rabi", "epsilon", "eps_min", "eps_max", "t_min", "t_max",
    "t1", "t2", "phase", "custom_bound",
})
_INT_KEYS = frozenset({"n", "eps_steps", "t_steps", "nodes", "custom_n_times"})
_BOOL_KEYS = frozenset({"select_both", "physical_time", "full_search", "custom_abs"})
_STR_KEYS = frozenset({"preset", "scheme", "format", "out", "times", "outcomes", "custom_terms"})
_ALL_KEYS = _FLOAT_KEYS | _INT_KEYS | _BOOL_KEYS | _STR_KEYS
_FORMATS = ("csv", "json-lines")


class ConfigError(Exception):
    pass


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def _cast(key: str, text: str):
    try:
        if key in _FLOAT_KEYS:
            return float(text)
        if key in _INT_KEYS:
            return int(text)
        if key in _BOOL_KEYS:
            return _parse_bool(text)
        if key == "format" and text not in _FORMATS:
            raise ValueError(text)
        return text
    except ValueError:
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
        if key not in _ALL_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = _cast(key, value.strip())
    return values


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process on first use and shared by
    every call: callers must not modify it (``parse_args`` does not)."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key=value settings file (flags win)")
    common.add_argument("--omega", type=float, help="angular frequency (default 1.0)")
    common.add_argument("--rabi", type=float, help="vacuum Rabi frequency (cavity mode)")
    common.add_argument("--n", type=int, help="photon number for the cavity mode")
    common.add_argument("--preset", choices=["paz4", "santos-minus", "santos-plus", "custom"])
    common.add_argument("--epsilon", type=float, help="distinguishability threshold")
    common.add_argument("--eps-min", type=float)
    common.add_argument("--eps-max", type=float)
    common.add_argument("--eps-steps", type=int)
    common.add_argument("--t-min", type=float)
    common.add_argument("--t-max", type=float)
    common.add_argument("--t-steps", type=int)
    common.add_argument("--nodes", type=int, help="phase-grid size for the oracle")
    common.add_argument("--scheme", choices=list(correlators.QUADRATURE_SCHEMES))
    common.add_argument("--out", help="output path ('-' for stdout)")
    common.add_argument("--format", choices=_FORMATS)
    common.add_argument("--select-both", action="store_const", const=True, default=None,
                        help="apply the threshold to the second outcome too (exploratory)")
    common.add_argument("--physical-time", action="store_const", const=True, default=None,
                        help="times are physical instead of omega*t")

    parser = argparse.ArgumentParser(
        prog="tbell",
        description="Temporal Bell inequalities for a measured two-level system.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("fig1", parents=[common],
                   help="free expectation curve and the stationary inequality combination")
    sub.add_parser("fig2", parents=[common],
                   help="fractional violation versus distinguishability threshold")
    sub.add_parser("validate", parents=[common],
                   help="brute-force oracle versus the closed form on an (epsilon, lag) grid")
    threshold = sub.add_parser("threshold", parents=[common],
                               help="distinguishability level where violations disappear")
    threshold.add_argument("--full-search", action="store_const", const=True, default=None,
                           help="also maximize over unconstrained gaps")
    correlate = sub.add_parser("correlate", parents=[common],
                               help="single selective-correlator query")
    correlate.add_argument("--t1", type=float)
    correlate.add_argument("--t2", type=float)
    trajectory = sub.add_parser("trajectory", parents=[common],
                                help="record sequence of one measured trajectory")
    trajectory.add_argument("--times", help="comma-separated measurement times")
    trajectory.add_argument("--outcomes", help="comma-separated outcomes, e.g. +1,-1,+1")
    trajectory.add_argument("--phase", type=float, help="anchor instant t' (default 0)")
    return parser


def _resolve(args: argparse.Namespace) -> dict:
    cfg: dict = {}
    if args.config:
        cfg.update(_load_config_file(args.config))
    for key in _ALL_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value
    for key in sorted(_FLOAT_KEYS & cfg.keys()):
        if not math.isfinite(cfg[key]):
            raise ConfigError(f"{key} must be finite, got {cfg[key]!r}")
    return cfg


def _effective_params(cfg: dict) -> DynamicsParams:
    omega = cfg.get("omega")
    rabi = cfg.get("rabi")
    n = cfg.get("n")
    if rabi is not None or n is not None:
        if omega is not None:
            raise ConfigError("give either --omega or --rabi with --n, not both")
        if rabi is None or n is None:
            raise ConfigError("--rabi and --n must be given together")
        try:
            omega = inequalities.jaynes_cummings_frequency(rabi, n)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    if omega is None:
        omega = 1.0
    try:
        return DynamicsParams(omega)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


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
    if name != "custom":
        raise ConfigError(f"unknown preset {name!r}")
    missing = [k for k in ("custom_n_times", "custom_terms", "custom_bound") if k not in cfg]
    if missing:
        raise ConfigError(f"custom preset needs config keys: {', '.join(missing)}")
    terms = []
    for chunk in str(cfg["custom_terms"]).split(";"):
        parts = [p.strip() for p in chunk.split(",")]
        try:
            i, j, coeff = parts
            terms.append((int(i), int(j), float(coeff)))
        except ValueError:
            raise ConfigError(f"bad value for 'custom_terms': {chunk!r}; "
                              "expected i,j,coefficient") from None
    try:
        spec = inequalities.InequalitySpec(
            n_times=int(cfg["custom_n_times"]),
            terms=tuple(terms),
            bound=float(cfg["custom_bound"]),
            abs_mode=bool(cfg.get("custom_abs", False)),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return "custom", spec


def _policy(cfg: dict, default: float = 0.0) -> SelectionPolicy:
    try:
        return SelectionPolicy(cfg.get("epsilon", default))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _quadrature(cfg: dict) -> QuadratureConfig:
    try:
        return QuadratureConfig(
            n_nodes=cfg.get("nodes", correlators.DEFAULT_NODES),
            scheme=cfg.get("scheme", "uniform-midpoint"),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


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
    if cfg.get("physical_time"):
        return "t", 1.0
    return "omega_t", 1.0 / params.omega


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
    free = np.array([correlators.k_analytic(0.0, lag, params) for lag in lags])
    factors = [correlators.selection_factor(SelectionPolicy(eps)) for eps in eps_grid.tolist()]
    analytic = np.array(factors)[:, None] * free
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
    report = inequalities.maximize_violation(spec, params, _policy(cfg))
    eps_star = inequalities.threshold_from_maximum(spec, report.delta_k_max)
    a_star = correlators.selection_factor(SelectionPolicy(eps_star))
    argmax_wt = params.omega * report.argmax_spacing
    lines = [f"preset: {name}", f"delta_k_max: {_fmt(report.delta_k_max)}",
             f"argmax_omega_t: {_fmt(argmax_wt)}", f"epsilon_star: {_fmt(eps_star)}",
             f"a_epsilon_star: {_fmt(a_star)}"]
    if cfg.get("full_search"):  # it refuses some specs, so it runs before any output
        try:
            best, gaps = inequalities.full_time_search(spec, params)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
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
    policy = _policy(cfg)
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
        raw_times = tuple(float(tok) for tok in str(cfg["times"]).split(","))
    except ValueError:
        raise ConfigError(f"bad --times value {cfg['times']!r}") from None
    outcomes = _parse_outcomes(str(cfg["outcomes"]))
    named = {f"times[{i}]": t for i, t in enumerate(raw_times)}
    t_prime, *times = _physical_times(scale, {"phase": cfg.get("phase", 0.0), **named})
    try:
        records, final_state = measured_trajectory(InitialPhase(t_prime), times, outcomes, params)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    _emit_table(cfg, {"index": np.arange(1, len(records) + 1), axis_name: raw_times,
                      "outcome": [rec.outcome for rec in records],
                      "pre_probability": [rec.pre_probability for rec in records],
                      "disturbance": [rec.disturbance for rec in records]})
    print(f"final_norm_sq: {_fmt(final_state.norm_sq())}")
    print(f"product: {_fmt(trajectory_product(records, final_state))}")
    return 0


_COMMANDS = {
    "fig1": cmd_fig1,
    "fig2": cmd_fig2,
    "validate": cmd_validate,
    "threshold": cmd_threshold,
    "correlate": cmd_correlate,
    "trajectory": cmd_trajectory,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve(args)
        return _COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
