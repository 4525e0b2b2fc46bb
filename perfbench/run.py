"""okbodies benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs cold passes of the workload one after another, each in a fresh
interpreter (``worker.py``), until ``--seconds`` have passed and at least
``MIN_PASSES`` passes are done.  Times are normalised to the reference host
speed (``hostclock.py``).  Every op output is checked; the first pass of a
run also runs the costly checks.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Lines before it give the run environment at start and end
and each metric by name with its unit.

Workloads, metrics and their rationale are described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from tracer import metric_units

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("lattice-lowerbound", "threshold-sweep", "geometry-bodies", "verify-all")
DEFAULT_SEED = 0

MIN_PASSES = 3          # untraced passes of a --trace 0 run, at least
MIN_TRACE_PASSES = 2    # untraced and traced passes each of a --trace 1 run
DEADLINE_S = 165.0      # the run ends, result printed, well inside 180 s
TAIL_MIN_PERCENTILE = 75

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "op_p50_ms": "ms",
                    "op_tail_ms": "ms", "peak_rss_mib": "MiB"}


def calibration_s() -> float:
    """Median time of a fixed exact-arithmetic loop.  A host that is busy
    with other guests slows it down, which the load average inside a
    virtual machine does not show."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        total = Fraction(0)
        for i in range(1, 20000):
            total += Fraction(1, i % 97 + 1)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def environment() -> dict:
    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "numpy": numpy_version,
        "loadavg": list(os.getloadavg()),
        "calibration_s": calibration_s(),
        "time": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def run_pass(workload: str, seed: int, traced: bool, full_check: bool, timeout: float) -> dict:
    spawned = time.perf_counter()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(traced)), "--full-check", str(int(full_check)),
           "--spawned", repr(spawned)]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"pass did not finish within {timeout:.0f} s")
    if proc.returncode != 0 or not out.strip():
        raise RuntimeError(f"worker exited {proc.returncode}: {err.strip()[-2000:]}")
    result = json.loads(out.strip().splitlines()[-1])
    result["traced"] = traced
    return result


def op_latencies(passes: list[dict]) -> list[float]:
    """Each op's latency: its median over the passes.  An op of well under a
    millisecond meets the host's millisecond jitter in any one pass."""
    return [statistics.median(ms) for ms in zip(*(p["op_ms"] for p in passes))]


def tail(ops: list[float]) -> tuple[float, str]:
    """The highest percentile of the op latencies with at least ten ops
    beyond it.  Where that percentile is below TAIL_MIN_PERCENTILE the
    workload has too few ops for a tail: it is undefined there, and the
    slowest op is reported."""
    n = len(ops)
    pct = math.floor(100 * (n - 10) / n)
    if pct < TAIL_MIN_PERCENTILE:
        return max(ops), f"tail percentile undefined ({n} ops per pass); value is the slowest op"
    return sorted(ops)[math.ceil(pct / 100 * n) - 1], f"p{pct} of {n} ops per pass"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "okbodies" / "__init__.py").is_file():
        print(f"error: no okbodies sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(HERE / "expected.json") as fh:
        want = json.load(fh)[args.workload]["digests"]

    print("env_start " + json.dumps(environment()), flush=True)
    start = time.monotonic()
    passes: list[dict] = []
    while True:
        elapsed = time.monotonic() - start
        untraced = sum(not p["traced"] for p in passes)
        traced_n = len(passes) - untraced
        if args.trace:
            enough = min(untraced, traced_n) >= MIN_TRACE_PASSES
        else:
            enough = untraced >= MIN_PASSES
        if passes and (enough and elapsed >= args.seconds):
            break
        longest = max((p["wall_raw_s"] + p["setup_raw_s"] for p in passes), default=0.0)
        if passes and elapsed + 2 * longest > DEADLINE_S:
            break
        traced = bool(args.trace) and len(passes) % 2 == 1
        try:
            passes.append(run_pass(args.workload, args.seed, traced,
                                   full_check=not passes, timeout=DEADLINE_S - elapsed))
        except RuntimeError as exc:
            print(f"error: {args.workload} seed {args.seed}: {exc}", file=sys.stderr)
            return 1

    # every op of every pass: an error, a failed check, or outputs that differ
    # from the recorded ones (the seed never changes them)
    attempted = failed = 0
    for number, p in enumerate(passes):
        for idx in range(max(len(p["digests"]), len(want))):
            if idx >= len(p["digests"]):
                error = "op missing"
            elif p["errors"][idx] is not None:
                error = p["errors"][idx]
            elif idx >= len(want) or p["digests"][idx] != want[idx]:
                error = "output differs from the recorded digest"
            else:
                error = None
            attempted += 1
            if error is not None:
                failed += 1
                print(f"FAILED {args.workload} seed {args.seed} pass {number} op {idx}: {error}",
                      file=sys.stderr)

    plain = [p for p in passes if not p["traced"]]
    traced_passes = [p for p in passes if p["traced"]]
    if not plain or (args.trace and not traced_passes):
        print(f"error: {args.workload} seed {args.seed}: too slow for one pass of each kind "
              f"within {DEADLINE_S:.0f} s", file=sys.stderr)
        return 1
    if args.trace:
        layers = traced_passes[0]["layers"]
        metrics = {name: statistics.median(p["layers"][name] for p in traced_passes)
                   for name in layers}
        metrics["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced_passes)
                                       - statistics.median(p["wall_s"] for p in plain))
        units = metric_units()
        note = ""
    else:
        ops = op_latencies(plain)
        tail_ms, note = tail(ops)
        metrics = {
            "wall_s": statistics.median(p["wall_s"] for p in plain),
            "setup_s": statistics.median(p["setup_s"] for p in plain),
            "op_p50_ms": statistics.median(ops),
            "op_tail_ms": tail_ms,
            "peak_rss_mib": statistics.median(p["peak_rss_kib"] / 1024 for p in plain),
        }
        units = END_TO_END_UNITS

    print("env_end " + json.dumps(environment()))
    print(f"workload {args.workload} seed {args.seed}: {len(plain)} untraced and "
          f"{len(passes) - len(plain)} traced passes in {time.monotonic() - start:.1f} s")
    print("passes wall_s " + " ".join(f"{p['wall_s']:.3f}{'t' if p['traced'] else ''}"
                                      for p in passes))
    print("passes setup_s " + " ".join(f"{p['setup_s']:.3f}" for p in passes))
    print("passes raw wall_s " + " ".join(f"{p['wall_raw_s']:.3f}" for p in passes))
    print("passes raw setup_s " + " ".join(f"{p['setup_raw_s']:.3f}" for p in passes))
    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {units[name]}")
    if note:
        print(f"metric op_tail_ms: {note}")
    print(f"metric ops_failed_share = {failed / attempted:.6g} share ({failed} of {attempted} ops)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
