"""Run every workload untraced and traced, and print every metric.

    python3 perfbench/report.py [--seed N]

For each workload this prints the end-to-end metrics of an untraced run
(wall_s, setup_s, op_p50_ms, op_tail_ms, peak_rss_mib and ops_failed_share),
each by name with its unit, then the per-layer metrics of a traced run, and
checks that the layer each workload was built for takes most of its traced
self time.  Each run measures for BENCHMARK.json's ``run_seconds``.  Exits 1
if an op failed or a layer-share check failed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from run import DEFAULT_SEED, HERE, ROOT, WORKLOADS

# The layer each workload was chosen to load (verify-all loads them all).
TARGET_LAYER = {
    "lattice-lowerbound": "lattice",
    "threshold-sweep": "thresholds",
    "geometry-bodies": "geometry",
}


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: run.py exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    args = parser.parse_args()
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            lines, result = run(workload, args.seed, seconds, trace)
            for line in lines:
                if line.startswith(("metric ", "env_", "workload ")):
                    print(f"{workload:18s} trace={trace} {line.removeprefix('metric ')}")
            ok = ok and result["correct"]
        layer = TARGET_LAYER.get(workload)
        if layer:
            share = result["metrics"][f"{layer}.self_share"]["value"]
            passed = share > 0.5
            ok = ok and passed
            print(f"{workload:18s} layer-share check: {layer} takes {share:.1%} of traced "
                  f"self time: {'PASS' if passed else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
