#!/usr/bin/env python3
"""unihop benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout; nothing needs to be installed.  The
workload's fixed operation set (see ``workloads.py``) is run in passes, one
operation at a time, until ``--seconds`` is used up (at least two passes
with tracing off, one untraced/traced pair with tracing on).  Every output
is checked in every pass.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones of ``BENCHMARK.json``;
with ``--trace 1`` they are the per-layer ones, from spans recorded around
the public ``unihop`` functions.  A fuller record, with provenance, goes to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

SETUP_REPEATS = 3  # fresh interpreters timed for setup_s (median)
IMPORT_PROBES = 3  # fresh interpreters under -X importtime for the import layer
MIN_PASSES = 2  # cli-paper compares output bytes between passes
CHILD_TIMEOUT_S = 120
ERROR_FLOOR = 1e-17  # errors below this count as this when converted to digits

E2E_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
    "ok_frac": "ratio",
    "accuracy_digits": "digits",
}


class CliExit(Exception):
    """A unihop.cli command exited with a non-zero code."""

    def __init__(self, code: int, stderr: str) -> None:
        lines = stderr.strip().splitlines()
        super().__init__(f"exit {code}: {lines[-1] if lines else ''}")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def cpu_now() -> float:
    """User+sys CPU of this process (all threads) and of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def run_child(argv: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *argv],
        cwd=cwd,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )


# ---------------------------------------------------------------------------
# set-up, import layer and provenance


def setup_seconds(workload: str, seed: int, tmp: Path) -> float:
    """Median wall time of a fresh interpreter doing the workload's set-up.

    cli-paper: ``import unihop.cli``; the in-process workloads: import plus
    building the seeded inputs.  The median drops a first run that had to
    compile the bytecode cache.
    """
    if workload == "cli-paper":
        code = "import unihop.cli"
    else:
        code = (
            f"import sys; sys.path.insert(0, {str(BENCH_DIR)!r}); import workloads; "
            f"workloads.make_ops({workload!r}, {seed})"
        )
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = run_child(["-c", code], tmp)
        samples.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[-300:]}")
    return statistics.median(samples)


def import_metrics(tmp: Path, cli_processes: int) -> dict[str, float]:
    """import.* metrics: the cost of ``import unihop.cli`` in a fresh process."""
    code = "import time; t = time.perf_counter(); import unihop.cli; print(time.perf_counter() - t)"
    total, scipy, failed = [], [], 0
    for _ in range(IMPORT_PROBES):
        proc = run_child(["-X", "importtime", "-c", code], tmp)
        if proc.returncode != 0:
            failed += 1
            continue
        total.append(float(proc.stdout.split()[-1]))
        self_us = 0
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip().split(".")[0] == "scipy":
                self_us += int(parts[0].split(":")[1])
        scipy.append(self_us * 1e-6)
    return {
        "import.calls": cli_processes,
        "import.failed": failed,
        "import.cli_s": statistics.median(total) if total else 0.0,
        "import.scipy_s": statistics.median(scipy) if scipy else 0.0,
    }


def blas_info() -> dict:
    import numpy as np

    info: dict = {
        "env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    except (TypeError, KeyError):
        pass
    try:  # thread count as the loaded OpenBLAS reports it
        with open("/proc/self/maps") as fh:
            paths = {ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln}
        for path in sorted(paths):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                if hasattr(lib, sym):
                    info["threads"] = int(getattr(lib, sym)())
                    break
    except OSError:
        pass
    return info


def provenance(workload: str, seed: int, trace: int) -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "unihop").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": blas_info(),
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# one pass over the operation set


@dataclass
class PassResult:
    wall: float = 0.0
    cpu: float = 0.0
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    errors: dict = field(default_factory=dict)  # accuracy kind -> worst error
    digests: dict = field(default_factory=dict)  # cli op -> sha256 of its output files


def run_cli(argv: list[str], workdir: Path, in_process: bool) -> str:
    if not in_process:
        proc = run_child(["-m", "unihop.cli", *argv], workdir)
        if proc.returncode != 0:
            raise CliExit(proc.returncode, proc.stderr)
        return proc.stdout
    from unihop import cli

    out, err = io.StringIO(), io.StringIO()
    previous = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        os.chdir(previous)
    if code != 0:
        raise CliExit(code, err.getvalue())
    return out.getvalue()


def output_digest(workdir: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(workdir.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run_pass(ops, tmp: Path, label: str, in_process_cli: bool, tracer=None) -> PassResult:
    """Run every op once: time it, then check it; a failure is counted and reported."""
    import workloads

    res = PassResult()
    tmp.mkdir(parents=True)
    for i, op in enumerate(ops):
        res.attempted += 1
        workdir = tmp / f"{i:02d}-{op.name}"
        if tracer is not None:
            tracer.op = i
        wall0, cpu0 = time.perf_counter(), cpu_now()
        try:
            if op.argv is None:
                check_args = (op.run(),)
            else:
                workdir.mkdir()
                check_args = (run_cli(op.argv, workdir, in_process_cli), workdir)
        except Exception as exc:  # the op failed: count it and go on
            res.failed += 1
            print(f"FAIL {label} {op.name}: {type(exc).__name__}: {str(exc)[:160]}")
            continue
        finally:
            res.wall += time.perf_counter() - wall0
            res.cpu += cpu_now() - cpu0
        try:
            errors = op.check(*check_args)
        except (workloads.WrongAnswer, OSError, KeyError, IndexError, ValueError) as exc:
            res.failed += 1
            res.wrong += 1
            print(f"WRONG {label} {op.name}: {type(exc).__name__}: {str(exc)[:160]}")
            continue
        for kind, err in errors.items():
            res.errors[kind] = max(res.errors.get(kind, 0.0), float(err))
        if op.argv is not None:
            res.digests[op.name] = output_digest(workdir)
    shutil.rmtree(tmp)
    return res


def compare_outputs(passes: list[PassResult]) -> None:
    """Count a CLI op whose output bytes differ from its first run as wrong."""
    first: dict = {}
    for k, res in enumerate(passes):
        for name, digest in res.digests.items():
            first.setdefault(name, digest)
            if digest != first[name]:
                res.failed += 1
                res.wrong += 1
                print(f"WRONG pass {k + 1} {name}: output bytes differ from the first run")


def pass_log(passes: list[PassResult]) -> list[dict]:
    return [{"wall_s": p.wall, "cpu_s": p.cpu, "attempted": p.attempted,
             "failed": p.failed, "wrong": p.wrong} for p in passes]


def digits(err: float) -> float:
    return -math.log10(max(err, ERROR_FLOOR))


def accuracy(workload: str, passes: list[PassResult]) -> dict[str, float]:
    """-log10 of the worst error per accuracy kind; a kind never measured scores 0."""
    import workloads

    out = {}
    for kind in workloads.ACCURACY[workload]:
        errs = [p.errors[kind] for p in passes if kind in p.errors]
        out[kind] = digits(max(errs)) if errs else 0.0
    return out


# ---------------------------------------------------------------------------
# the two modes


def measure_untraced(workload: str, seed: int, seconds: float, tmp: Path):
    import workloads

    setup = setup_seconds(workload, seed, tmp)
    ops = workloads.make_ops(workload, seed)
    passes: list[PassResult] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(run_pass(ops, tmp / f"pass{len(passes) + 1}", f"pass {len(passes) + 1}",
                               in_process_cli=False))
        last = time.perf_counter() - t0
        if len(passes) >= MIN_PASSES and time.perf_counter() - start + last > seconds:
            break
    compare_outputs(passes)
    if workload == "cli-paper":
        peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    acc = accuracy(workload, passes)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    metrics = {
        "wall_s": statistics.median(p.wall for p in passes),
        "setup_s": setup,
        "cpu_s": statistics.median(p.cpu for p in passes),
        "peak_rss_mb": peak_kib / 1024.0,
        "ok_frac": (attempted - failed) / attempted,
        "accuracy_digits": statistics.mean(acc.values()),
    }
    detail = {
        "failed_frac": failed / attempted,
        "accuracy_kinds_digits": acc,
        "passes": pass_log(passes),
    }
    return passes, {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()}, detail


def measure_traced(workload: str, seed: int, seconds: float, tmp: Path):
    import tracer as tracing
    import unihop.cli  # noqa: F401  (traced functions must be loaded before wrapping)
    import workloads

    ops = workloads.make_ops(workload, seed)
    imports = import_metrics(tmp, sum(op.argv is not None for op in ops))
    plains: list[PassResult] = []
    traceds: list[PassResult] = []
    layer_runs = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        k = len(layer_runs) + 1
        plain = run_pass(ops, tmp / f"plain{k}", f"untraced pass {k}", in_process_cli=True)
        tracer = tracing.Tracer()
        restore = tracing.install(tracer, extra_modules=[workloads])
        try:
            traced = run_pass(ops, tmp / f"traced{k}", f"traced pass {k}", in_process_cli=True,
                              tracer=tracer)
        finally:
            restore()
        plains.append(plain)
        traceds.append(traced)
        layer_runs.append(tracing.layer_metrics(tracer.spans))
        last = time.perf_counter() - t0
        if time.perf_counter() - start + last > seconds:
            break
    passes = plains + traceds
    compare_outputs(passes)
    metrics = {name: statistics.median(run[name] for run in layer_runs) for name in layer_runs[0]}
    metrics.update(imports)
    metrics["trace.overhead_s"] = (statistics.median(p.wall for p in traceds)
                                   - statistics.median(p.wall for p in plains))
    out = {name: {"value": metrics[name], "unit": unit} for name, unit in tracing.METRICS.items()}
    detail = {
        "accuracy_kinds_digits": accuracy(workload, passes),
        "passes": pass_log(passes),
        "traced_spans_per_pass": len(tracer.spans),
    }
    return passes, out, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (SRC / "unihop" / "__init__.py").is_file():
        print(f"error: no unihop sources at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    for path in (str(SRC), str(BENCH_DIR)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    tmp = OUT / f"tmp-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    info = provenance(args.workload, args.seed, args.trace)
    print(f"unihop benchmark: workload={args.workload} seed={args.seed} trace={args.trace}")
    print("provenance: " + json.dumps(info, sort_keys=True))
    measure = measure_traced if args.trace else measure_untraced
    try:
        passes, metrics, detail = measure(args.workload, args.seed, args.seconds, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    result = {
        "correct": all(p.wrong == 0 for p in passes),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"provenance": info, "result": result, "detail": detail}, indent=2) + "\n"
    )
    print(f"passes={len(passes)} attempted={attempted} failed={failed} "
          f"failed_frac={failed / attempted:.6f}")
    for kind, value in detail["accuracy_kinds_digits"].items():
        print(f"accuracy {kind}_digits = {value:.4f} digits")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
