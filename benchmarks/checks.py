"""Independent checks of tbell's outputs.

Every expected value here comes from the closed forms of the two-level
problem, written out again in plain Python and numpy; nothing in this module
imports tbell.  Each ``check_*`` function takes one op (its argv or library
arguments) and what the program returned, and raises ``CheckFailure`` on the
first problem.  A passing check returns the worst |oracle - closed form| it
saw, or None when the op computes no oracle value.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np

# Tolerance that ``tbell validate`` applies to the oracle, reused for every
# oracle cell the benchmark checks.
ORACLE_TOL = 1e-6
# Closed-form values the program prints are compared at this tolerance; time
# arguments reach a few tens of radians, so a few ulps of the phase are lost.
CLOSED_TOL = 1e-9
# Published thresholds quoted to three digits.
PUBLISHED_EPS_STAR = {"paz4": 0.649, "santos-minus": 0.693, "santos-plus": 0.693}

# Unselected maximum, every optimal equal spacing omega*t in (0, pi], and the
# classical bound.  The program may report any of the tied spacings.
PRESET_OPTIMA = {
    "paz4": (2.0 * math.sqrt(2.0), tuple(k * math.pi / 8.0 for k in (1, 3, 5, 7)), 2.0),
    "santos-minus": (1.5, (math.pi / 3.0, 2.0 * math.pi / 3.0), 1.0),
    "santos-plus": (1.5, (math.pi / 6.0, 5.0 * math.pi / 6.0), 1.0),
}

_SUMMARY_LINE = re.compile(r"^([A-Za-z][A-Za-z_ ]*): (.*)$")
_VERDICT_LINE = re.compile(r"^(PASS|FAIL)\b")


class CheckFailure(Exception):
    """An op's output disagrees with the closed form or is malformed."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


def _close(name: str, got: float, want: float, tol: float) -> float:
    dev = abs(got - want)
    _require(dev <= tol, f"{name}: got {got!r}, expected {want!r} (|diff| {dev:.3g} > {tol:g})")
    return dev


# -- closed forms -------------------------------------------------------------


def selection_factor(eps):
    """A(eps) = (2 sqrt(eps (1 - eps)) + arccos(2 eps - 1)) / pi, elementwise."""
    eps = np.asarray(eps, dtype=float)
    return (2.0 * np.sqrt(eps * (1.0 - eps)) + np.arccos(2.0 * eps - 1.0)) / np.pi


def threshold_epsilon(target: float) -> float:
    """The epsilon where A(epsilon) = target, by bisection (A decreases)."""
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if float(selection_factor(mid)) >= target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def select_both_bounds(eps: np.ndarray, omega_lag: np.ndarray):
    """Lowest and highest closed form of the select-both correlator per cell.

    The correlator is A(eps) (c^2 [c^2 >= eps] - s^2 [s^2 >= eps]) with
    c = cos(omega lag) and s = sin(omega lag).  Where c^2 or s^2 sits within
    1e-9 of eps the indicator is ill-conditioned, so both of its values are
    accepted; elsewhere the two bounds coincide.
    """
    a = selection_factor(eps)[:, None]
    c2 = np.cos(omega_lag)[None, :] ** 2
    s2 = np.sin(omega_lag)[None, :] ** 2
    e = np.asarray(eps, dtype=float)[:, None]
    near = 1e-9
    c_hi = np.where(c2 >= e - near, c2, 0.0)
    c_lo = np.where(c2 >= e + near, c2, 0.0)
    s_hi = np.where(s2 >= e - near, s2, 0.0)
    s_lo = np.where(s2 >= e + near, s2, 0.0)
    return a * (c_lo - s_hi), a * (c_hi - s_lo)


# -- output parsing -----------------------------------------------------------


def _strict_constant(name: str):
    raise CheckFailure(f"non-finite JSON constant {name}")


def _finite(value, where: str) -> float:
    _require(isinstance(value, (int, float)) and not isinstance(value, bool),
             f"{where}: not a number: {value!r}")
    value = float(value)
    _require(math.isfinite(value), f"{where}: non-finite value {value!r}")
    return value


def parse_output(stdout: str, stderr: str) -> tuple[list[dict], dict]:
    """Split an op's output into table rows and summary values.

    Summary lines (``key: value`` and the ``PASS``/``FAIL`` verdict) are
    accepted on stdout, before or after the table, and on stderr.  Every other
    stdout line belongs to the table: strict JSON objects, or a CSV header
    followed by rows of the same width.  Every table value must be finite.
    """
    summary: dict[str, str] = {}
    table: list[str] = []
    for line in stderr.splitlines():
        match = _SUMMARY_LINE.match(line)
        if match:
            summary[match.group(1)] = match.group(2)
        elif _VERDICT_LINE.match(line):
            summary["verdict"] = line
    for line in stdout.splitlines():
        match = _SUMMARY_LINE.match(line)
        if match:
            summary[match.group(1)] = match.group(2)
        elif _VERDICT_LINE.match(line):
            summary["verdict"] = line
        else:
            table.append(line)

    rows: list[dict] = []
    if table and table[0].startswith("{"):
        for n, line in enumerate(table, start=1):
            try:
                obj = json.loads(line, parse_constant=_strict_constant)
            except json.JSONDecodeError as exc:
                raise CheckFailure(f"table line {n} is not JSON: {exc}") from None
            _require(isinstance(obj, dict) and obj, f"table line {n} is not a JSON object")
            rows.append({k: _finite(v, f"table line {n}, {k}") for k, v in obj.items()})
    elif table:
        header = table[0].split(",")
        _require(all(re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", h) for h in header),
                 f"bad CSV header {table[0]!r}")
        for n, line in enumerate(table[1:], start=2):
            fields = line.split(",")
            _require(len(fields) == len(header), f"CSV line {n} has {len(fields)} fields")
            try:
                values = [float(f) for f in fields]
            except ValueError:
                raise CheckFailure(f"CSV line {n} is not numeric: {line!r}") from None
            rows.append({h: _finite(v, f"CSV line {n}, {h}") for h, v in zip(header, values)})
    return rows, summary


def _summary_float(summary: dict, key: str) -> float:
    _require(key in summary, f"missing summary line {key!r}")
    try:
        return _finite(float(summary[key].split()[0]), key)
    except ValueError:
        raise CheckFailure(f"summary {key!r} is not a number: {summary[key]!r}") from None


def _columns(rows: list[dict], names: tuple[str, ...]) -> dict[str, np.ndarray]:
    _require(bool(rows), "empty table")
    for n, row in enumerate(rows, start=1):
        _require(set(names) <= set(row), f"row {n} lacks columns {sorted(set(names) - set(row))}")
    return {name: np.array([row[name] for row in rows]) for name in names}


# -- argv helpers -------------------------------------------------------------


def flag(argv: list[str], name: str, default=None):
    """Value of ``name`` given as ``name value`` or ``name=value``, or default."""
    for i, arg in enumerate(argv):
        if arg == name:
            return argv[i + 1]
        if arg.startswith(name + "="):
            return arg[len(name) + 1:]
    return default


def requested_omega(argv: list[str]) -> float:
    rabi, n = flag(argv, "--rabi"), flag(argv, "--n")
    if rabi is not None:
        return float(rabi) * math.sqrt(int(n) + 1.0)
    return float(flag(argv, "--omega", 1.0))


# -- per-op checks ------------------------------------------------------------


def _check_exit(result) -> None:
    _require(result.rc == 0, f"exit code {result.rc}; stderr: {result.stderr.strip()[:200]!r}")


def check_validate(argv: list[str], result) -> float | None:
    _check_exit(result)
    rows, summary = parse_output(result.stdout, result.stderr)
    _require(summary.get("verdict", "").startswith("PASS"), "validate did not print PASS")
    _require(_summary_float(summary, "max deviation") <= ORACLE_TOL, "validate max deviation above tolerance")
    n_eps = int(flag(argv, "--eps-steps", 21))
    n_lag = int(flag(argv, "--t-steps", 64))
    _require(summary.get("grid", "").startswith(f"{n_eps} epsilons x {n_lag} lags"),
             f"unexpected grid line {summary.get('grid')!r}")
    if flag(argv, "--out") is None:
        return None
    cols = _columns(rows, ("epsilon", "omega_lag", "k_oracle", "k_selective"))
    _require(len(rows) == n_eps * n_lag, f"{len(rows)} table rows, expected {n_eps * n_lag}")
    _close("epsilon axis", float(np.max(np.abs(cols["epsilon"] - np.repeat(np.linspace(0, 1, n_eps), n_lag)))),
           0.0, 1e-15)
    closed = selection_factor(cols["epsilon"]) * np.cos(2.0 * cols["omega_lag"])
    _close("k_selective", float(np.max(np.abs(cols["k_selective"] - closed))), 0.0, CLOSED_TOL)
    return _close("k_oracle", float(np.max(np.abs(cols["k_oracle"] - closed))), 0.0, ORACLE_TOL)


def check_sweep(op: dict, grid) -> float:
    grid = np.asarray(grid)
    eps = np.linspace(*op["eps"])
    omega_lag = np.linspace(*op["omega_lag"])
    _require(grid.shape == (eps.size, omega_lag.size), f"sweep shape {grid.shape}")
    _require(bool(np.all(np.isfinite(grid))), "sweep has non-finite cells")
    lo, hi = select_both_bounds(eps, omega_lag)
    dev = np.maximum(np.maximum(lo - grid, grid - hi), 0.0)
    return _close("select_both oracle", float(np.max(dev)), 0.0, ORACLE_TOL)


def check_correlate(argv: list[str], result) -> float:
    _check_exit(result)
    rows, _ = parse_output(result.stdout, result.stderr)
    _require(len(rows) == 1, f"correlate printed {len(rows)} rows")
    row = rows[0]
    eps = float(flag(argv, "--epsilon"))
    lag = float(flag(argv, "--t2")) - float(flag(argv, "--t1"))
    a = float(selection_factor(eps))
    want = a * math.cos(2.0 * lag)
    _close("omega", row["omega"], requested_omega(argv), 1e-12)
    _close("a_epsilon", row["a_epsilon"], a, 1e-12)
    _close("k_analytic", row["k_analytic"], math.cos(2.0 * lag), CLOSED_TOL)
    _close("k_selective", row["k_selective"], want, CLOSED_TOL)
    _close("k_oracle - k_selective", row["k_oracle"], row["k_selective"], ORACLE_TOL)
    return _close("k_oracle", row["k_oracle"], want, ORACLE_TOL)


def check_trajectory(argv: list[str], result) -> None:
    _check_exit(result)
    rows, summary = parse_output(result.stdout, result.stderr)
    times = [float(t) for t in flag(argv, "--times").split(",")]
    outcomes = [int(q) for q in flag(argv, "--outcomes").split(",")]
    phase = float(flag(argv, "--phase", 0.0))
    _require(len(rows) == len(times), f"{len(rows)} records for {len(times)} measurements")
    # The first measurement sees |+> rotated by (t1 - t'); after each collapse
    # the state is an eigenstate, so later probabilities depend on the gap only.
    joint = 1.0
    previous_time, previous_outcome = phase, 1
    for k, (row, t, q) in enumerate(zip(rows, times, outcomes), start=1):
        c2 = math.cos(t - previous_time) ** 2
        p = c2 if q == previous_outcome else 1.0 - c2
        _close(f"record {k} time", row["omega_t"], t, 0.0)
        _close(f"record {k} outcome", row["outcome"], q, 0.0)
        _close(f"record {k} pre_probability", row["pre_probability"], p, CLOSED_TOL)
        _close(f"record {k} disturbance", row["disturbance"], 1.0 - p, CLOSED_TOL)
        joint *= p
        previous_time, previous_outcome = t, q
    _close("final_norm_sq", _summary_float(summary, "final_norm_sq"), joint, CLOSED_TOL)
    _close("product", _summary_float(summary, "product"), math.prod(outcomes) * joint, CLOSED_TOL)


def check_threshold(argv: list[str], result) -> None:
    _check_exit(result)
    rows, summary = parse_output(result.stdout, result.stderr)
    preset = flag(argv, "--preset")
    best, spacings, bound = PRESET_OPTIMA[preset]
    _require(summary.get("preset") == preset, f"preset line {summary.get('preset')!r}")
    eps_star = _summary_float(summary, "epsilon_star")
    _close("epsilon_star vs published", eps_star, PUBLISHED_EPS_STAR[preset], 1e-3)
    _close("epsilon_star", eps_star, threshold_epsilon(bound / best), 1e-7)
    _close("delta_k_max", _summary_float(summary, "delta_k_max"), best, CLOSED_TOL)
    argmax = _summary_float(summary, "argmax_omega_t")
    _close("argmax_omega_t distance to an optimum", min(abs(argmax - s) for s in spacings), 0.0, 1e-6)
    _close("a_epsilon_star", _summary_float(summary, "a_epsilon_star"), bound / best, 1e-8)
    if "--full-search" in argv:
        _close("full_search_max", _summary_float(summary, "full_search_max"), best, CLOSED_TOL)
        gaps = [float(g) for g in summary.get("full_search_gaps_omega_t", "").split(",")]
        _require(len(gaps) == (4 if preset == "paz4" else 3) - 1 and all(0 < g <= math.pi for g in gaps),
                 f"bad full-search gaps {gaps}")
    if flag(argv, "--out") is not None:
        _require(len(rows) == 1, f"threshold table has {len(rows)} rows")
        for key in ("delta_k_max", "argmax_omega_t", "epsilon_star", "a_epsilon_star"):
            _close(f"table {key}", rows[0][key], _summary_float(summary, key), 0.0)


def check_fig1(argv: list[str], result) -> None:
    _check_exit(result)
    rows, _ = parse_output(result.stdout, result.stderr)
    cols = _columns(rows, ("omega_t", "q_free", "delta_k_minus", "bound"))
    axis = np.linspace(float(flag(argv, "--t-min", 0.0)), float(flag(argv, "--t-max", 4 * math.pi)),
                       int(flag(argv, "--t-steps", 1025)))
    _require(cols["omega_t"].size == axis.size, f"fig1 has {cols['omega_t'].size} rows")
    _close("fig1 axis", float(np.max(np.abs(cols["omega_t"] - axis))), 0.0, 1e-12)
    _close("q_free", float(np.max(np.abs(cols["q_free"] - np.cos(2 * axis)))), 0.0, CLOSED_TOL)
    curve = -2.0 * np.cos(2 * axis) - np.cos(4 * axis)
    _close("delta_k_minus", float(np.max(np.abs(cols["delta_k_minus"] - curve))), 0.0, CLOSED_TOL)
    _close("bound", float(np.max(np.abs(cols["bound"] - 1.0))), 0.0, 0.0)


def check_fig2(argv: list[str], result) -> None:
    _check_exit(result)
    rows, _ = parse_output(result.stdout, result.stderr)
    cols = _columns(rows, ("epsilon", "delta_b_max_paz", "delta_b_max_santos"))
    eps = np.linspace(float(flag(argv, "--eps-min", 0.0)), float(flag(argv, "--eps-max", 1.0)),
                      int(flag(argv, "--eps-steps", 101)))
    _require(cols["epsilon"].size == eps.size, f"fig2 has {cols['epsilon'].size} rows")
    _close("fig2 axis", float(np.max(np.abs(cols["epsilon"] - eps))), 0.0, 1e-15)
    a = selection_factor(eps)
    paz = (a * 2.0 * math.sqrt(2.0) - 2.0) / 2.0
    santos = a * 1.5 - 1.0
    _close("delta_b_max_paz", float(np.max(np.abs(cols["delta_b_max_paz"] - paz))), 0.0, CLOSED_TOL)
    _close("delta_b_max_santos", float(np.max(np.abs(cols["delta_b_max_santos"] - santos))), 0.0, CLOSED_TOL)


CLI_CHECKS = {
    "validate": check_validate,
    "correlate": check_correlate,
    "trajectory": check_trajectory,
    "threshold": check_threshold,
    "fig1": check_fig1,
    "fig2": check_fig2,
}
