"""The output corpus: small ``tbell`` commands with their recorded output.

Each ``tests/corpus/<name>.json`` holds one case: its ``argv``, the input
files it reads (``inputs``, written into the working directory first), an
optional injected fault (``inject``), and what the command gave: the exit
code, stdout, stderr and every file it wrote (``outputs``).  Text is stored
as a list of lines, each with its newline, so the recording is exact.

A case runs in-process through ``tbell.cli.main``, in an empty temporary
working directory (so ``--out`` paths are relative) and with ``COLUMNS``
pinned, so argparse wraps its usage text the same way everywhere.  For an
argparse refusal only the ``usage: <prog>`` prefix and the final ``error:``
line are kept, since the wrapped usage text differs between Python versions.

``tests/test_corpus.py`` re-runs every case and compares text exactly,
except numbers, which must agree within 4 ulp or 1e-15 absolute, whichever
is larger.  After a deliberate output change, re-record every case with

    PYTHONPATH=src python tests/regenerate_corpus.py

which prints, per case, how many numbers changed, the largest move in ulp,
and whether the recording is byte-identical.  To add a case, write a JSON
file with its ``argv`` (and ``inputs``) and run the script.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import struct
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np

from tbell import cli, inequalities

CORPUS = Path(__file__).resolve().parent / "corpus"

ULP_TOLERANCE = 4
ABS_TOLERANCE = 1e-15

# A number token: not part of a word such as "fig1" or "t2".
_NUMBER = re.compile(r"((?<![\w.])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?(?![\w.]))")


def _last_value_infinite(curve):
    return lambda *args: np.append(curve(*args)[:-1], np.inf)


# Faults a case may inject.  Every input is checked at the config boundary,
# so no argv reaches a non-finite table; this one stands in for a defect.
_FAULTS = {
    "non-finite curve": lambda: mock.patch.object(
        inequalities, "stationary_curve", _last_value_infinite(inequalities.stationary_curve)),
}


def load_cases() -> dict[str, dict]:
    return {path.stem: json.loads(path.read_text()) for path in sorted(CORPUS.glob("*.json"))}


def _lines(text: str) -> list[str]:
    return text.splitlines(keepends=True)


def _usage_error(stderr: str) -> str:
    """An argparse refusal's stderr cut to its ``usage: <prog>`` prefix and
    its final ``<prog>: error: ...`` line; other stderr is kept whole."""
    if not stderr.startswith("usage: "):
        return stderr
    last = _lines(stderr)[-1]
    prog = last.partition(": error: ")[0]
    return stderr[:len("usage: " + prog)] + " ...\n" + last


def run_case(case: dict) -> dict:
    """Run one case; return its exit code, stdout, stderr and written files."""
    inputs = case.get("inputs", {})
    inject = _FAULTS[case["inject"]]() if "inject" in case else contextlib.nullcontext()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        os.chdir(tmp)
        try:
            for name, lines in inputs.items():
                Path(name).write_text("".join(lines))
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), inject:
                try:
                    code = cli.main(list(case["argv"]))
                except SystemExit as exc:
                    code = exc.code
            outputs = {path.as_posix(): _lines(path.read_bytes().decode())
                       for path in sorted(Path().rglob("*"))
                       if path.is_file() and path.as_posix() not in inputs}
        finally:
            os.chdir(cwd)
    return {"exit": code, "stdout": _lines(stdout.getvalue()),
            "stderr": _lines(_usage_error(stderr.getvalue())), "outputs": outputs}


def _ordered(x: float) -> int:
    """The float's position on the line of float64 values, so that the
    difference of two positions is their distance in ulp."""
    bits = struct.unpack("<q", struct.pack("<d", x))[0]
    return bits if bits >= 0 else -(bits & 0x7FFF_FFFF_FFFF_FFFF)


def compare(expected: dict, actual: dict) -> tuple[list[str], int, int]:
    """Where ``actual`` departs from the recording ``expected``: the
    mismatches (each naming the stream, the line and the ulp distance), the
    count of numbers that moved at all and the largest move in ulp."""
    problems, moved, worst = [], 0, 0
    if actual["exit"] != expected["exit"]:
        problems.append(f"exit code: expected {expected['exit']}, got {actual['exit']}")
    streams = {"stdout": (expected["stdout"], actual["stdout"]),
               "stderr": (expected["stderr"], actual["stderr"])}
    for name in sorted(set(expected["outputs"]) | set(actual["outputs"])):
        streams[name] = (expected["outputs"].get(name), actual["outputs"].get(name))
    for stream, (want, got) in streams.items():
        if want is None or got is None:
            problems.append(f"{stream}: expected {'no file' if want is None else 'a file'}")
            continue
        if len(want) != len(got):
            problems.append(f"{stream}: expected {len(want)} lines, got {len(got)}")
        for lineno, (a, b) in enumerate(zip(want, got), start=1):
            a_parts, b_parts = _NUMBER.split(a), _NUMBER.split(b)
            if len(a_parts) != len(b_parts) or a_parts[::2] != b_parts[::2]:
                problems.append(f"{stream} line {lineno}: expected {a!r}, got {b!r}")
                continue
            for x, y in zip(map(float, a_parts[1::2]), map(float, b_parts[1::2])):
                ulps = abs(_ordered(x) - _ordered(y))
                moved += ulps > 0
                worst = max(worst, ulps)
                if ulps > ULP_TOLERANCE and abs(x - y) > ABS_TOLERANCE:
                    problems.append(f"{stream} line {lineno}: {x!r} moved to {y!r}, "
                                    f"{ulps} ulp")
    return problems, moved, worst


def main() -> int:
    for name, case in load_cases().items():
        actual = run_case(case)
        if "exit" in case:
            problems, moved, worst = compare(case, actual)
            same = all(case[key] == actual[key] for key in actual)
            status = (f"{moved} numbers changed, max {worst} ulp, "
                      f"{'bytes equal' if same else 'bytes differ'}"
                      + (f", {len(problems)} mismatches" if problems else ""))
        else:
            status = "new"
        print(f"{name}: exit {actual['exit']}, {status}")
        recorded = {key: case[key] for key in ("argv", "inputs", "inject") if key in case}
        path = CORPUS / f"{name}.json"
        path.write_text(json.dumps({**recorded, **actual}, indent=1, ensure_ascii=False) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
