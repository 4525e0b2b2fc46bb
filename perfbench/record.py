"""Record the per-op output digests that the benchmark checks against.

    python3 perfbench/record.py

Runs one fully checked pass of every workload at the default seed and writes
perfbench/expected.json.  Refuses to write if any op fails its checks.  Run it
only when a workload's definition changes, never to make a changed program
pass.
"""

from __future__ import annotations

import json
import sys

from run import DEFAULT_SEED, HERE, WORKLOADS, run_pass


def main() -> int:
    recorded = {}
    for name in WORKLOADS:
        result = run_pass(name, DEFAULT_SEED, traced=False, full_check=True, timeout=600)
        bad = [(i, e) for i, e in enumerate(result["errors"]) if e is not None]
        if bad:
            for i, e in bad:
                print(f"{name} op {i}: {e}", file=sys.stderr)
            return 1
        recorded[name] = {"seed": DEFAULT_SEED, "digests": result["digests"]}
        print(f"{name}: {len(result['digests'])} ops, {result['wall_s']:.2f} s")
    (HERE / "expected.json").write_text(json.dumps(recorded, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
