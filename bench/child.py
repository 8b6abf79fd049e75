"""One benchmark iteration in a fresh process.

Started by bench/run.py, never by hand: it imports the library from the
checkout's src/, generates the workload's inputs from the seed, times the
workload (optionally traced), checks the outputs and writes one JSON result
file.  ``--spawned`` is the parent's monotonic clock reading just before
the process was started, so setup_s covers interpreter start, imports and
input generation.

Times are reported calibrated: scaled by REFERENCE_NOMINAL_S over the time
of a fixed reference kernel measured in the same process just before and
just after the timed section.  On a shared machine whose speed changes with
other tenants' load, the program and the kernel slow down together, so the
calibrated times stay put; the measured ones are kept under "raw".
"""

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

# fastest reference_s() seen on the machine the baseline was measured on
# (2-vCPU Intel Xeon VM, Python 3.11.7, numpy 2.4.6), so that calibrated
# times read as seconds on that machine at full speed
REFERENCE_NOMINAL_S = 0.024
REFERENCE_REPS = 5


def reference_kernel(x):
    """Fixed interpreter and small-array numpy work, the mix the searches
    run; it never calls the library, so no change to anisotm moves it."""
    total = 0
    for i in range(200_000):
        total += i * i % 7
    for i in range(2_000):
        y = np.exp(-x * (1 + i % 5))
        total += float(np.cumsum(y) @ y)
    return total


def reference_s():
    """Median time of REFERENCE_REPS runs of the reference kernel."""
    x = np.linspace(0.0, 1.0, 256)
    times = []
    for _ in range(REFERENCE_REPS):
        t0 = time.perf_counter()
        reference_kernel(x)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=("bench", "acceptance", "smoke"),
                        default="bench")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", help="trace the run and write spans here")
    args = parser.parse_args(argv)

    import anisotm
    src = (ROOT / "src").resolve()
    if src not in Path(anisotm.__file__).resolve().parents:
        raise SystemExit(f"anisotm imported from {anisotm.__file__}, not {src}")
    from workloads import WORKLOADS
    from tracer import Tracer, wrapper_cost

    workload = WORKLOADS[args.workload](args.seed, args.size, args.workdir)
    workload.setup()
    setup = time.monotonic() - args.spawned
    ref_before = reference_s()
    result = {"setup_s": setup * REFERENCE_NOMINAL_S / ref_before,
              "raw": {"setup_s": setup, "ref_before_s": ref_before}}
    if not args.setup_only:
        tracer = Tracer(f"{args.workload}-{args.seed}-{args.spawned!r}")
        if args.spans:
            tracer.install()
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        try:
            stages = workload.run(time.perf_counter)
        finally:
            wall = time.perf_counter() - t0
            cpu = time.process_time() - cpu0
            tracer.uninstall()   # the checks below run untraced
        ref_after = reference_s()
        scale = REFERENCE_NOMINAL_S / statistics.fmean((ref_before, ref_after))
        if args.spans:
            tracer.save(args.spans)
            result.update(wrapper_cost_s=wrapper_cost(), missing_targets=tracer.missing)
        checks, values, digests, artifact_bytes = workload.check()
        result["raw"].update(wall_s=wall, cpu_s=cpu, ref_after_s=ref_after)
        result.update(wall_s=wall * scale, cpu_s=cpu * scale,
                      stages={k: v * scale for k, v in stages.items()},
                      checks=checks.items, values=values, digests=digests,
                      artifact_bytes=artifact_bytes)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
