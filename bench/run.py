"""Benchmark for prbforecast: train, forecast and ingest workloads.

Run from the repository root:

    python3 bench/run.py --workload forecast --seed 1 --seconds 50 --trace 0

With `--trace 0` the run measures the workload untraced for `--seconds`
and reports the end-to-end metrics. With `--trace 1` it runs the traced
pass instead, a fixed amount of work whatever `--seconds` says (see
`tracing.py`), and reports the per-layer metrics and the tracing
overhead. Inputs are generated from `--seed`; the program under test is
the source tree in `src/` next to this directory. Human-readable lines
come first; the last line of standard output is one JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`. The full result, with
the environment, is also written to `bench/out/`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

# One process generates the load. BLAS gets one thread (<= nproc): on a
# 2-core machine two threads made training steps noisier and B=1 forward
# passes slower.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Timed set-ups per run, after an untimed one. setup_s is the fastest: the
# hardware the benchmark was tuned on switches between fast and slow spells
# second to second, and over ten processes the median of 25 set-ups spread
# (IQR / median) about 0.2, the minimum 0.06 to 0.16.
SETUP_ROUNDS = 25
WORKLOAD_NAMES = ("train", "forecast", "ingest")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment() -> dict:
    import numpy as np

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = None
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                             capture_output=True, text=True)
        commit = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_threads": BLAS_THREADS, "git_commit": commit}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class SetupTimer:
    """Times the workload's set-up in a child process, so that it neither
    warms the measuring process nor counts toward its peak memory. The
    child's first, untimed round writes the workload's inputs. The timed
    rounds are spread over the measured run (`due`), one at a time while
    the measuring process waits, so that they see the same machine as the
    requests rather than one burst of it. A plain child, not a process
    pool: a pool's helper threads made the measuring process's peak RSS
    flip between two values from run to run."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        code = ("import json, sys, workloads; "
                "workloads.setup_server(*json.loads(sys.argv[1]))")
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(map(str, (BENCH, ROOT / "src")))}
        self.child = subprocess.Popen(
            [sys.executable, "-c", code, json.dumps([workload, seed, str(workdir)])],
            env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.times: list[float] = []
        self._expect("ready")

    def _expect(self, what: str) -> str:
        line = self.child.stdout.readline()
        if not line:
            self.close()
            raise SystemExit(f"set-up child ended before {what}")
        return line

    def round(self) -> None:
        self.child.stdin.write("\n")
        self.child.stdin.flush()
        self.times.append(float(self._expect("a timed round")))

    def due(self, fraction: float) -> None:
        while len(self.times) < SETUP_ROUNDS * min(fraction, 1.0):
            self.round()

    def close(self) -> None:
        if self.child.stdin and not self.child.stdin.closed:
            self.child.stdin.close()
        try:
            self.child.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.child.kill()
            self.child.wait()


def untraced(args, workdir: Path):
    import workloads as W
    timer = SetupTimer(args.workload, args.seed, workdir)
    try:
        result = W.WORKLOADS[args.workload](args.seed, workdir).run(
            args.seconds, between=timer.due)
        timer.due(1.0)
    finally:
        timer.close()
    setup = timer.times
    loop, details = result["loop"], result["details"]
    e2e = {
        "setup_s": W.metric(min(setup), "s", len(setup)),
        "peak_rss_mb": W.metric(peak_rss_mb(), "MB"),
        "success_ratio": W.metric(1 - W.ratio(loop.failed, loop.attempted), "ratio",
                                  loop.attempted),
    }
    e2e["items_per_s"] = details[W.ITEMS_PER_S[args.workload]]
    return loop, loop.failed == 0, {"e2e": e2e, "details": details}, []


def traced(args, workdir: Path):
    import tracing
    run = tracing.traced_run(args.seed, workdir)
    spans = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    run["tracer"].write(spans)
    loop = run["loop"]
    correct = loop.failed == 0 and run["replica_ok"] and not run["missing"]
    notes = [f"replica check (traced train replay == train()): "
             f"{'ok' if run['replica_ok'] else 'MISMATCH'}",
             f"{len(run['tracer'].spans)} spans written to {spans.relative_to(ROOT)}"]
    notes += [f"missing from the program, not traced: {name}" for name in run["missing"]]
    return loop, correct, {"layers": run["metrics"]}, notes


def _finite(m: dict) -> dict:
    """A metric with nothing to measure (no successful request, or a span
    the program no longer has) is written as 0, since JSON lacks NaN; the
    run is then reported as not correct."""
    return m if math.isfinite(m["value"]) else {**m, "value": 0.0}


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    if not (ROOT / "src" / "prbforecast" / "__init__.py").is_file():
        print(f"error: no prbforecast source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        loop, correct, groups, notes = (traced if args.trace else untraced)(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}: {loop.attempted} requests, {loop.failed} failed")
    for err in loop.errors:
        print(f"  failure: {err}")
    for note in notes:
        print(note)
    for group, metrics in groups.items():
        print(f"-- {group}")
        for name, m in metrics.items():
            n = f"  n={m['n']}" if "n" in m else ""
            print(f"{name:36s} {m['value']:14.6g} {m['unit']}{n}")

    reported = groups["layers"] if args.trace else groups["e2e"]
    empty = [name for name, m in reported.items() if not math.isfinite(m["value"])]
    for name in empty:
        print(f"  nothing measured for {name}")
    correct = correct and not empty
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"workload": args.workload, "seed": args.seed,
                    "seconds": args.seconds, "trace": args.trace, "env": env,
                    "correct": correct, "attempted": loop.attempted,
                    "failed": loop.failed, "errors": loop.errors,
                    **{g: {k: _finite(m) for k, m in ms.items()}
                       for g, ms in groups.items()}},
                   indent=1, sort_keys=True))
    print(json.dumps({
        "correct": correct, "attempted": loop.attempted, "failed": loop.failed,
        "metrics": {name: {"value": _finite(m)["value"], "unit": m["unit"]}
                    for name, m in reported.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
