"""End-to-end benchmark of chromarank on the pure kernel backend.

    python3 bench_e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads: tuple-rank, explore-p3 and
certify-example (see workloads.py and README.md).  An untraced run first
times SETUP_RUNS fresh interpreters that import chromarank and build the input
lists, then repeats whole passes over the workload's operations until S
seconds have gone by (at least one pass), checking every pass's outputs.

With --trace 0 the metrics are the end-to-end ones: setup_s, pass_s,
ops_per_s and peak_rss_mb, with times scaled to the speed of the reference
VM (see _scaled and README.md).  With --trace 1 the run makes one untraced pass,
then traced passes (tracer.py), and reports every per-layer metric, per
pass, together with the tracing overhead.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The full result, with the pass times and
the kernel backend, is also written to BENCH_<workload>_seed<N>[_trace].json
in the current directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_RUNS = 11
# Host-speed sampling; see _scaled.  REFERENCE_LOOP_S is the time of
# _reference_loop on the 2-vCPU reference VM while its host is quiet.
REFERENCE_LOOP_N = 25_000
REFERENCE_LOOP_S = 0.002
SPEED_SAMPLES = 5
SAMPLE_EVERY_S = 0.25

# Pinned before chromarank is imported: the pure backend is what the test
# suite runs when no extension is built, and the benchmark builds none.
os.environ["CHROMARANK_KERNELS"] = "pure"
sys.path.insert(0, str(SRC))

import chromarank  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--setup-only",
        action="store_true",
        help="build the inputs and exit; the parent times this for setup_s",
    )
    return ap.parse_args(argv)


def _workdir(name: str) -> Path:
    return Path.cwd() / ".bench_tmp" / f"{name}-{os.getpid()}"


def _reference_loop() -> float:
    """Wall time of a fixed pure-Python loop that uses no chromarank code."""
    start = time.perf_counter()
    acc = 0
    for i in range(REFERENCE_LOOP_N):
        acc += i * i % 7
    return time.perf_counter() - start


def _scaled(fn):
    """Run fn(); returns (scaled seconds, wall seconds, host speed, result).

    The reference loop runs SPEED_SAMPLES times before and after fn, and
    once every SAMPLE_EVERY_S while fn runs, from a SIGALRM handler.  The
    host speed is REFERENCE_LOOP_S over the median loop time.  The scaled
    time is fn's wall time, less the time spent in the loop, times the
    host speed: the time fn would have taken on the reference VM with a
    quiet host (see README.md).
    """
    loops = [_reference_loop() for _ in range(SPEED_SAMPLES)]
    during: list[float] = []
    previous = signal.signal(signal.SIGALRM, lambda signum, frame: during.append(_reference_loop()))
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
    try:
        start = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - start
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    wall -= sum(during)
    loops += during
    loops += [_reference_loop() for _ in range(SPEED_SAMPLES)]
    speed = REFERENCE_LOOP_S / statistics.median(loops)
    return wall * speed, wall, speed, result


def _time_setup(args) -> list[float]:
    """Wall times of fresh interpreters that import and build the inputs."""
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--setup-only",
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--seconds",
        "0",
    ]
    times = []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


class _Tally:
    """Operations attempted and failed, and check errors, over a run."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def add(self, outputs, failed: int) -> None:
        self.attempted += len(self.workload.ops)
        self.failed += failed
        self.errors.extend(self.workload.check(outputs))


def _untraced(args, tally: _Tally, record: dict) -> dict:
    """Set-up times, then passes until args.seconds have gone by."""
    _, _, setup_speed, setup_walls = _scaled(lambda: _time_setup(args))
    scaled, walls, speeds = [], [], []
    deadline = time.perf_counter() + args.seconds
    while not scaled or time.perf_counter() < deadline:
        seconds, wall, speed, (outputs, failed) = _scaled(tally.workload.run_pass)
        tally.add(outputs, failed)
        scaled.append(seconds)
        walls.append(wall)
        speeds.append(speed)
    record.update(
        setup_wall_s=setup_walls,
        setup_host_speed=setup_speed,
        pass_s=scaled,
        pass_wall_s=walls,
        pass_host_speed=speeds,
    )
    return {
        "setup_s": (statistics.median(setup_walls) * setup_speed, "s"),
        "pass_s": (statistics.median(scaled), "s"),
        "ops_per_s": ((tally.attempted - tally.failed) / sum(scaled), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def _timed_pass(tally: _Tally) -> tuple[float, list]:
    start = time.perf_counter()
    outputs, failed = tally.workload.run_pass()
    seconds = time.perf_counter() - start
    tally.add(outputs, failed)
    return seconds, outputs


def _traced(args, tally: _Tally, record: dict) -> dict:
    """One untraced pass, then traced passes until args.seconds have gone
    by.  Times here are plain wall seconds."""
    deadline = time.perf_counter() + args.seconds
    untraced_s, reference = _timed_pass(tally)
    tr = tracer.Tracer()
    traced_times = []
    with tr:
        while not traced_times or time.perf_counter() < deadline:
            seconds, outputs = _timed_pass(tally)
            traced_times.append(seconds)
            if outputs != reference:
                tally.errors.append("a traced pass returned other outputs than the untraced pass")
    layer = tr.metrics(len(traced_times))
    traced_s = statistics.median(traced_times)
    layer.update(
        {
            "trace.pass_s": traced_s,
            "trace.untraced_pass_s": untraced_s,
            "trace.overhead": traced_s / untraced_s,
            "trace.missing_hooks": len(tr.missing),
        }
    )
    record.update(pass_wall_s=[untraced_s, *traced_times], missing_hooks=tr.missing)
    for target in tr.missing:
        print(f"trace: hook target {target} not found; its metrics read 0", file=sys.stderr)
    units = {name: unit for name, unit, _ in tracer.PER_LAYER}
    return {name: (value, units[name]) for name, value in layer.items()}


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not Path(chromarank.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"chromarank was imported from {chromarank.__file__}, not from {SRC}")
    if chromarank.BACKEND != "pure":
        raise SystemExit(f"expected the pure kernel backend, got {chromarank.BACKEND!r}")
    workdir = _workdir(args.workload)
    if args.setup_only:
        workloads.build(args.workload, args.seed, workdir)
        return 0
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "backend": chromarank.BACKEND,
        "python": platform.python_version(),
    }
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        tally = _Tally(workloads.build(args.workload, args.seed, workdir))
        print(
            f"{args.workload}: {len(tally.workload.ops)} operations a pass, backend "
            f"{chromarank.BACKEND}, seed {args.seed}",
            file=sys.stderr,
        )
        metrics = (_traced if args.trace else _untraced)(args, tally, record)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still has its directory there
    for err in tally.errors[:20]:
        print(f"check failed: {err}", file=sys.stderr)
    result = {
        "correct": not tally.errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in sorted(metrics.items())},
    }
    record.update(errors=tally.errors[:100], **result)
    suffix = "_trace" if args.trace else ""
    out = Path.cwd() / f"BENCH_{args.workload}_seed{args.seed}{suffix}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
