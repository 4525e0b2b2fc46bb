"""One cold pass of one workload, in a fresh interpreter.

Started by ``run.py`` once per repeat, so that no per-level model cache or
``_ccdf_data`` entry survives from an earlier repeat.  Prints one JSON line:
set-up time (from ``--spawned``, the parent's ``perf_counter()`` when it
started this process, to inputs ready), pass wall time and per-op latency,
all normalised to the reference host speed (``hostclock.py``), with the raw
set-up and wall times next to them; per-op output digest and error, peak RSS,
and with ``--trace 1`` the per-layer metrics of the pass.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

from hostclock import HostClock

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    clock = HostClock()
    clock.start()
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--full-check", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned", type=float, required=True)
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import okbodies

    if Path(okbodies.__file__).resolve().parent != ROOT / "src" / "okbodies":
        raise SystemExit(f"okbodies imported from {okbodies.__file__}, not from {ROOT / 'src'}")
    from tracer import Tracer
    import okbodies.thresholds as th
    import workloads

    tracer = Tracer()
    if args.trace:
        tracer.install()
        tracer.active = True
    workload = workloads.WORKLOADS[args.workload](args.seed)
    ready = time.perf_counter()

    workdir = ROOT / "perfbench" / ".work" / f"pass-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        log = workloads.OpLog()
        tracer.phase = "timed"
        t0 = time.perf_counter()
        workload.run(log, str(workdir))
        t1 = time.perf_counter()
        tracer.active = False
        clock.stop()
        peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        layer_metrics = (tracer.metrics(th._ccdf_data.cache_info(), clock.seconds)
                         if args.trace else None)

        errors = list(log.errors)
        for idx, (err, result) in enumerate(zip(errors, log.results)):
            if err is None:
                try:
                    errors[idx] = workload.check_op(idx, result)
                except Exception as exc:  # a check that cannot run fails the op
                    errors[idx] = f"check raised {type(exc).__name__}: {exc}"
        if args.full_check:
            for idx, msg in workload.full_check(log, str(workdir)).items():
                errors[idx] = errors[idx] or msg
        digests = [hashlib.sha256(text.encode()).hexdigest() for text in workload.outputs(log)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # another pass may still use it
            workdir.parent.rmdir()

    print(json.dumps({
        "setup_s": clock.seconds(args.spawned, ready),
        "setup_raw_s": ready - args.spawned,
        "wall_s": clock.seconds(t0, t1),
        "wall_raw_s": t1 - t0,
        "op_ms": [1e3 * clock.seconds(a, b) for a, b in log.spans],
        "digests": digests,
        "errors": errors,
        "peak_rss_kib": peak_rss_kib,
        "layers": layer_metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
