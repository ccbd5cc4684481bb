"""tbell benchmark: end-to-end metrics per workload, per-layer metrics when traced.

Usage, from the root of a source checkout:

    python3 benchmarks/run.py --workload oracle-midpoint --seed 1 --seconds 36 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 36

One run imports tbell from ``src/`` of the checkout, builds its op list from
the workload name and seed (see ``workloads.py``), and repeats that list in
passes, in-process through ``tbell.cli.main`` and the library, until
``--seconds`` have passed.  Each op's output is checked against closed forms
(``checks.py``) after its pass; a failed op is counted, never fatal.

``--trace 0`` reports the end-to-end metrics:

- ``setup_s``: median time for a fresh interpreter to import ``tbell.cli``
  and build its parser;
- ``run_rel``: ``run_s``, the time for one pass over the op list with each
  op at its mean over passes (see ``summarize_ops``), divided by
  ``reference_s``, the mean time of the fixed kernel of ``reference.py`` in
  the same run, so that most of the shared host's drift in speed cancels;
- ``peak_rss_mb``: peak resident memory of this process after its first pass.

The report also prints ``run_s`` and ``reference_s`` themselves, ``op_p50_s``
(median op latency, on the same per-op latencies), ``op_tail_s`` where the op
list is long enough, the worst oracle deviation and the failed fraction.

``--trace 1`` alternates untraced and traced passes and reports the per-layer
metrics of ``tracing.py``; ``trace.overhead_s`` is the traced minus the
untraced median pass time.  Either way the last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable report, and the full record (inputs fingerprint, environment,
tail latency, accuracy, spans) is written under ``benchmarks/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import NamedTuple

import numpy as np

import checks
import reference
import stats
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"

SETUP_SAMPLES = 10
REFERENCE_REPEATS = 10  # reference kernel runs before each untraced pass
SETUP_CODE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import tbell.cli\n"
    "tbell.cli.build_parser()\n"
    "print(repr(time.perf_counter() - t0))\n"
    "print(tbell.cli.__file__)\n"
)

# run_s, op_p50_s and op_tail_s are reported but not gated: in seconds they
# follow the shared 2-CPU host, whose speed drifts by up to 50% within
# minutes, so their run-to-run spread can pass the largest bound.  run_rel
# divides most of that drift out.
END_TO_END = {"setup_s": "s", "run_rel": "x", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark cannot run here (no tbell source, setup failed)."""


class Output(NamedTuple):
    rc: int
    stdout: str
    stderr: str


class PassResult(NamedTuple):
    wall: float
    op_times: list[float]
    results: list  # Output, ndarray, or the exception text of a raising op
    digests: list[str]
    stdout_bytes: int


# -- loading tbell ------------------------------------------------------------


def load_tbell():
    """Import tbell from this checkout's ``src/``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "tbell" / "__init__.py").is_file():
        raise BenchError(f"no tbell sources under {src}")
    sys.path.insert(0, str(src))
    import tbell.cli as cli
    from tbell import correlators, dynamics, inequalities
    if Path(cli.__file__).resolve().parent != (src / "tbell").resolve():
        raise BenchError(f"imported tbell from {cli.__file__}, not from {src}")
    return cli, correlators, dynamics, inequalities


def setup_probe() -> float:
    """Import-and-parser time of one fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2:
        raise BenchError(f"setup probe failed: {proc.stderr.strip()[-300:]}")
    if Path(lines[1]).resolve().parent != (ROOT / "src" / "tbell").resolve():
        raise BenchError(f"setup probe imported tbell from {lines[1]}")
    return float(lines[0])


# -- running ops --------------------------------------------------------------


def execute(op: dict, mods):
    cli, correlators, dynamics, _ = mods
    if op["kind"] == "sweep":
        params = dynamics.DynamicsParams(op["omega"])
        lags = np.linspace(*op["omega_lag"]) / op["omega"]
        quad = correlators.QuadratureConfig(n_nodes=op["nodes"], scheme=op["scheme"])
        return correlators.k_oracle_grid(op["t1"], lags, np.linspace(*op["eps"]), params, quad,
                                         select_both=True)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.main(list(op["argv"]))
    return Output(rc, out.getvalue(), err.getvalue())


def digest(result) -> tuple[str, int]:
    """Hash of what an op produced, and its stdout size in bytes."""
    h = hashlib.sha256()
    if isinstance(result, Output):
        data = result.stdout.encode()
        h.update(f"{result.rc}\n".encode())
        h.update(data)
        return h.hexdigest(), len(data)
    if isinstance(result, np.ndarray):
        h.update(np.ascontiguousarray(result).tobytes())
        return h.hexdigest(), 0
    h.update(repr(result).encode())
    return h.hexdigest(), 0


def run_pass(ops: list[dict], mods, tracer: tracing.Tracer | None = None) -> PassResult:
    saved = tracing.install(tracer, mods[0], mods[1], mods[3]) if tracer else []
    op_times, results = [], []
    try:
        start = time.perf_counter()
        for index, op in enumerate(ops):
            if tracer:
                tracer.op = index
            t0 = time.perf_counter()
            try:
                result = execute(op, mods)
            except (Exception, SystemExit) as exc:  # a raising op is a failed op
                result = "".join(traceback.format_exception_only(type(exc), exc)).strip()
            op_times.append(time.perf_counter() - t0)
            results.append(result)
        wall = time.perf_counter() - start
    finally:
        tracing.restore(saved)
    hashed = [digest(r) for r in results]
    return PassResult(wall, op_times, results, [h for h, _ in hashed], sum(n for _, n in hashed))


def check_op(op: dict, result) -> float | None:
    """Closed-form check of one op; raises CheckFailure."""
    if isinstance(result, str):
        raise checks.CheckFailure(f"raised {result}")
    if op["kind"] == "sweep":
        return checks.check_sweep(op, result)
    return checks.CLI_CHECKS[op["kind"]](op["argv"], result)


def check_pass(ops: list[dict], run: PassResult, failures: list[str]) -> tuple[int, float]:
    """Check every op of a pass; returns (failed ops, worst oracle deviation)."""
    failed, worst = 0, 0.0
    for index, (op, result) in enumerate(zip(ops, run.results)):
        try:
            dev = check_op(op, result)
        except Exception as exc:  # malformed output can break a checker anywhere; count it
            failed += 1
            if len(failures) < 20:
                failures.append(f"op {index} ({op['label']}): {type(exc).__name__}: {exc}")
            continue
        if dev is not None:
            worst = max(worst, dev)
    return failed, worst


# -- environment ----------------------------------------------------------------


def git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    files = sorted((ROOT / "src").rglob("*.py"))
    h = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "TBELL_THREADS": os.environ.get("TBELL_THREADS"),
        "git_commit": git_commit(),
        "src_lines": lines,
        "src_sha256": h.hexdigest(),
    }


# -- one workload -------------------------------------------------------------


def summarize_ops(ops: list[dict], passes: list[PassResult]) -> dict:
    """Latency statistics over the op list, each op timed by its mean over passes.

    The shared 2-CPU machine this benchmark was tuned on switches between a
    fast and a slow speed, up to a factor of two apart, many times a second,
    and the share of time it spends in each drifts over minutes.  Each op's
    time is its mean over the passes, without its slowest tenth, so that
    ``run_s`` averages over that mixture the same way ``reference_s`` does
    and their ratio ``run_rel`` cancels it; a fastest or a median pass
    would instead jump between the two speeds as the share crosses some
    level.  ``run_s`` is the op list's time at those latencies, and p50 and
    the tail are taken over ops.
    """
    best = [stats.trimmed_mean([run.op_times[i] for run in passes]) for i in range(len(ops))]
    by_label: dict[str, list[float]] = {}
    for op, t in zip(ops, best):
        by_label.setdefault(op["label"], []).append(t)
    p = stats.tail_percentile(len(ops))
    return {
        "labels": {k: {"n": len(v), "median_s": statistics.median(v)} for k, v in by_label.items()},
        "run_s": sum(best),
        "op_p50_s": statistics.median(best),
        "op_tail_percentile": p,
        "op_tail_s": stats.percentile(best, p) if p is not None else None,
    }


def measure(args, ops: list[dict], mods, setup: list[float], ref: list[float]):
    """Run passes until ``args.seconds`` have passed.

    Untraced runs spread their set-up probes evenly over the run, because the
    machine's speed drifts over seconds, and time the reference kernel before
    each pass, so that its samples see the same spells of speed as the ops.
    Peak RSS is read after the first pass: later passes only add what the
    allocator keeps, which depends on how the worker threads happened to
    overlap.
    """
    untraced: list[PassResult] = []
    traced: list[tuple[PassResult, tracing.Tracer]] = []
    start = time.perf_counter()
    peak_rss_mb = None
    last = 0.0
    while True:
        if not args.trace:
            ahead = time.perf_counter() - start + last
            due = min(SETUP_SAMPLES, math.ceil(SETUP_SAMPLES * ahead / args.seconds))
            while len(setup) < due:
                setup.append(setup_probe())
            ref.extend(reference.kernel_seconds() for _ in range(REFERENCE_REPEATS))
        untraced.append(run_pass(ops, mods))
        last = untraced[-1].wall
        if peak_rss_mb is None:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.trace:
            tracer = tracing.Tracer()
            traced.append((run_pass(ops, mods, tracer), tracer))
        if time.perf_counter() - start >= args.seconds:
            break
    while not args.trace and len(setup) < SETUP_SAMPLES:
        setup.append(setup_probe())
    return untraced, traced, peak_rss_mb


def layer_values(ops, traced, memory_tracer, memory_run, summary, record) -> dict:
    """Per-layer metrics: medians over the traced passes, allocation peaks
    from the tracemalloc pass; flags counts that differ between passes."""
    layers = [tracing.layer_metrics(tracer, run.stdout_bytes) for run, tracer in traced]
    memory = tracing.layer_metrics(memory_tracer, memory_run.stdout_bytes)
    for name in tracing.EXACT_COUNTS:
        seen = [m[name] for m in layers + [memory]]
        if len(set(seen)) > 1:
            record["problems"].append(f"{name} differs between traced passes: {seen}")
    values = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    values["correlators.k_oracle_grid.peak_alloc_mb"] = memory["correlators.k_oracle_grid.peak_alloc_mb"]
    values["trace.overhead_s"] = summarize_ops(ops, [r for r, _ in traced])["run_s"] - summary["run_s"]
    scalar = tracing.per_op_counts(traced[-1][1], "dynamics.scalar_calls")
    record["scalar_calls_per_op"] = [[ops[i]["label"], n] for i, n in sorted(scalar.items())]
    record["layer_metrics_per_pass"] = layers
    return values


def run_workload(args) -> int:
    try:
        mods = load_tbell()
        ops = workloads.build_ops(args.workload, args.seed)
        setup = [] if args.trace else [setup_probe()]
        ref: list[float] = []
        untraced, traced, peak_rss_mb = measure(args, ops, mods, setup, ref)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    memory_passes = []
    if args.trace:
        # allocation peaks come from one extra pass under tracemalloc
        memory_tracer = tracing.Tracer(memory=True)
        memory_passes.append(run_pass(ops, mods, memory_tracer))

    failures: list[str] = []
    all_passes = untraced + [run for run, _ in traced] + memory_passes
    failed, worst = 0, 0.0
    for run in all_passes:
        n, dev = check_pass(ops, run, failures)
        failed += n
        worst = max(worst, dev)
    attempted = len(ops) * len(all_passes)
    problems = []
    reference = untraced[0].digests
    for run in all_passes[1:]:
        changed = [i for i, (a, b) in enumerate(zip(reference, run.digests)) if a != b]
        if changed:
            problems.append(f"output of ops {changed[:10]} differs between passes "
                            f"(traced and untraced passes must match byte for byte)")
            break

    summary = summarize_ops(ops, untraced)
    walls = [r.wall for r in untraced]
    env = environment()
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "inputs_sha256": workloads.fingerprint(ops), "ops_per_pass": len(ops),
        "environment": env, "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted, "max_abs_dev": worst,
        "failures": failures, "problems": problems,
        "setup_samples_s": setup, "reference_s": ref, "pass_walls_s": walls, "ops": summary,
        "op_times_s": [r.op_times for r in untraced],
    }

    OUT_DIR.mkdir(exist_ok=True)
    if args.trace:
        values = layer_values(ops, traced, memory_tracer, memory_passes[0], summary, record)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in tracing.LAYER_METRICS.items()}
        with open(OUT_DIR / f"{args.workload}-seed{args.seed}-spans.jsonl", "w") as handle:
            for _, tracer in traced:
                for span in tracer.spans:
                    handle.write(json.dumps(span) + "\n")
    else:
        values = {
            "setup_s": statistics.median(setup),
            "run_rel": summary["run_s"] / stats.trimmed_mean(ref),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    record["metrics"] = metrics
    correct = failed == 0 and not problems

    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print_report(record, args, len(untraced), len(traced))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def print_report(record: dict, args, n_untraced: int, n_traced: int) -> None:
    env = record["environment"]
    ops = record["ops"]
    n_ops = record["ops_per_pass"]
    print(f"# workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print(f"# python {env['python']}  numpy {env['numpy']}  nproc {env['nproc']}  "
          f"TBELL_THREADS={env['TBELL_THREADS'] or 'unset'}  commit {env['git_commit'] or 'unknown'}  "
          f"src {env['src_lines']} lines sha256:{env['src_sha256'][:16]}")
    print(f"# inputs sha256:{record['inputs_sha256']}  {n_ops} ops per pass, "
          f"{n_untraced} untraced + {n_traced} traced passes")
    rows = []
    if not args.trace:
        q1, med, q3 = stats.quartiles(record["pass_walls_s"])
        slow = "slowest tenth dropped"
        best = f"each op its mean of {n_untraced} passes, {slow}"
        rows += [
            ("setup_s", record["metrics"]["setup_s"]["value"], "s", f"median of {SETUP_SAMPLES} fresh processes"),
            ("run_rel", record["metrics"]["run_rel"]["value"], "x", "run_s / reference_s"),
            ("run_s", ops["run_s"], "s", f"sum over {n_ops} ops, {best}"),
            ("reference_s", stats.trimmed_mean(record["reference_s"]), "s",
             f"mean of {len(record['reference_s'])} reference kernel runs, {slow}"),
            ("pass_wall_s", med, "s", f"median of {n_untraced} passes, quartiles {q1:.4g}..{q3:.4g}"),
            ("op_p50_s", ops["op_p50_s"], "s", f"median over {n_ops} ops, {best}"),
        ]
        if ops["op_tail_s"] is not None:
            rows.append(("op_tail_s", ops["op_tail_s"], "s",
                         f"p{ops['op_tail_percentile']:g} over {n_ops} ops (>= 10 beyond), {best}"))
        else:
            rows.append(("op_tail_s", "n/a", "s", f"{n_ops} ops leave fewer than 10 beyond any percentile"))
        rows.append(("peak_rss_mb", record["metrics"]["peak_rss_mb"]["value"], "MB", "ru_maxrss of this process after its first pass"))
    else:
        rows += [(name, m["value"], m["unit"], f"median of {n_traced} traced passes")
                 for name, m in record["metrics"].items()]
        notes = {"correlators.k_oracle_grid.peak_alloc_mb": "from one extra pass under tracemalloc",
                 "trace.overhead_s": "traced minus untraced run_s"}
        rows = [row[:3] + (notes.get(row[0], row[3]),) for row in rows]
    rows += [
        ("max_abs_dev", record["max_abs_dev"], "1", "worst |oracle - closed form| over checked cells"),
        ("failed_frac", record["failed_frac"], "1", f"{record['failed']} of {record['attempted']} ops"),
    ]
    for name, value, unit, note in rows:
        shown = f"{value:.6g}" if isinstance(value, (int, float)) else value
        print(f"{name:42s} {shown:>14s} {unit:6s} {note}")
    for label, s in ops["labels"].items():
        print(f"#   op {label:24s} median {s['median_s']:.6g} s over {s['n']} ops, each its mean over passes")
    if "scalar_calls_per_op" in record:
        per_label: dict[str, set] = {}
        for label, n in record["scalar_calls_per_op"]:
            per_label.setdefault(label, set()).add(n)
        for label, ns in per_label.items():
            print(f"#   dynamics.scalar_calls per {label}: {sorted(ns)}")
    for line in record["failures"] + record["problems"]:
        print(f"! {line}")


# -- all workloads --------------------------------------------------------------


def run_all(args) -> int:
    """Each workload untraced and traced, each in a fresh process."""
    status = 0
    table = []
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                return proc.returncode or 1
            result = json.loads(lines[-1])
            if not result["correct"]:
                status = 1
            if trace == 0:
                table.append((workload, result))
    print("# summary")
    for workload, result in table:
        cells = "  ".join(f"{k}={m['value']:.6g} {m['unit']}" for k, m in result["metrics"].items())
        print(f"{workload:16s} correct={result['correct']} failed={result['failed']}/{result['attempted']}  {cells}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
