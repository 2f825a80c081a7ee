#!/usr/bin/env python3
"""Smoke test of the benchmark harness.

    python3 perfbench/smoke.py

Every workload runs with seed 0 and ``--seconds 0`` on a shortened operation
list: its first operation plus two injected ones, one that fails (raises, or
exits non-zero on the CLI) and one whose answer fails its check.  Both modes
run.  The test asserts that every metric named in ``BENCHMARK.json`` is
printed with its unit, that both injected operations are counted as failed
in every pass without stopping the run, and that the wrong answer clears
``correct``.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import run  # noqa: E402
import workloads  # noqa: E402
from workloads import Op, WrongAnswer  # noqa: E402


def _raise(*_):
    raise RuntimeError("injected failure")


def _wrong(*_):
    raise WrongAnswer("injected wrong answer")


def injected(workload: str) -> list[Op]:
    if workload == "cli-paper":
        return [
            Op("injected-exit", lambda out, wd: {}, argv=["spectrum", "--geometry", "chain", "--sites", "0"]),
            Op("injected-wrong", _wrong, argv=["spectrum", "--geometry", "chain", "--sites", "2"]),
        ]
    return [Op("injected-raise", lambda r: {}, run=_raise), Op("injected-wrong", _wrong, run=lambda: None)]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: spec["end_to_end"], 1: spec["per_layer"]}
    run.SETUP_REPEATS = run.IMPORT_PROBES = 1
    real_make_ops = workloads.make_ops
    failures = []
    for workload in workloads.WORKLOADS:
        workloads.make_ops = lambda w, s: real_make_ops(w, s)[:1] + injected(w)
        for trace in (0, 1):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = run.main(["--workload", workload, "--seed", "0", "--seconds", "0",
                                 "--trace", str(trace)])
            lines = out.getvalue().strip().splitlines()
            result = json.loads(lines[-1])
            passes = 2  # two untraced passes, or one untraced/traced pair
            checks = {
                "exit code 0": code == 0,
                "attempted": result["attempted"] == 3 * passes,
                "both injected ops counted": result["failed"] == 2 * passes,
                "wrong answer clears correct": result["correct"] is False,
            }
            for metric in expected[trace]:
                name, unit = metric["name"], metric["unit"]
                checks[f"{name} in result"] = result["metrics"].get(name, {}).get("unit") == unit
                checks[f"{name} printed"] = any(ln.startswith(f"{name} = ") and ln.endswith(f" {unit}")
                                               for ln in lines)
            bad = [what for what, ok in checks.items() if not ok]
            print(f"{workload} trace={trace}: {'ok' if not bad else 'FAILED ' + ', '.join(bad)}")
            failures += bad
    workloads.make_ops = real_make_ops
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
