"""anisotm benchmark: end-to-end metrics per workload, per-layer metrics traced.

One run of one workload:

    python3 bench/run.py --workload search --seed 0 --seconds 35 --trace 0

starts a few set-up probes (fresh processes that import the library and
generate the inputs, then exit), then runs the workload in fresh processes,
one after another, for about ``--seconds`` seconds (at least once).  With
``--trace 1`` one traced process follows the untraced ones.  Each process is
one closed-loop caller on one thread; BLAS pools are pinned to one thread.
Human-readable lines go to stdout first; the last stdout line is the JSON
result {"correct", "attempted", "failed", "metrics"}.

All workloads with medians, quartiles, sample counts and check verdicts:

    python3 bench/run.py --all --repeat 5 [--baseline-out bench/baseline.json]

The library is imported from the checkout's src/; without it the benchmark
exits with code 2 and prints no result.  Timers are process-local only.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

sys.dont_write_bytecode = True

import numpy as np  # noqa: E402

from tracer import layer_metrics, search_breakdown  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".bench"

WORKLOAD_NAMES = ("search", "sweep", "geometry")
SETUP_PROBES = 3            # set-up-only processes per run
RUN_LIMIT_S = 170.0         # every run ends within this, whatever --seconds says
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
METHOD = ("process-local timers only: no CPU pinning, cgroup, frequency or "
          "cache-drop changes")

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
# values the acceptance-size workloads reproduced when the benchmark was added
REFERENCE_VALUES = {"subcritical_value": 12.263316271313824,
                    "critical_value": 4.080356862830833,
                    "sweep_g_value": 5.400889544636391}

# per-layer metrics with units; counts marked exact repeat across traced runs
PER_LAYER = {
    "functional.value_calls": "count", "functional.value_s": "s",
    "functional.value_us": "us", "functional.normalize_calls": "count",
    "functional.normalize_s": "s", "functional.constraint_calls": "count",
    "functional.constraint_s": "s", "functional.rejects": "count",
    "functional.useful_ratio": "ratio", "profiles.constructs": "count",
    "profiles.construct_s": "s", "maximize.searches": "count",
    "maximize.evals_per_search": "count", "maximize.subcritical_evals": "count",
    "maximize.critical_evals": "count", "maximize.isotonic_calls": "count",
    "maximize.isotonic_s": "s", "maximize.self_s": "s",
    "maximize.diagnostics_s": "s", "maximize.sweep_point_s": "s",
    "finsler.polar_builds": "count", "finsler.polar_s": "s",
    "finsler.kappa_s": "s", "finsler.residual_s": "s",
    "finsler.eval_points": "count", "finsler.eval_s": "s",
    "finsler.grad_points": "count", "finsler.grad_s": "s",
    "rearrange.cells": "count", "rearrange.symmetrize_s": "s",
    "rearrange.rearrangement_s": "s", "rearrange.profile_of_s": "s",
    "rearrange.check_s": "s", "rearrange.rasterize_s": "s",
    "rearrange.overflows": "count", "cli.io_s": "s", "cli.artifact_bytes": "bytes",
    "trace.spans": "count", "trace.wrapper_s": "s", "trace.overhead_s": "s",
}
EXACT_COUNTS = ("functional.value_calls", "profiles.constructs",
                "finsler.eval_points", "rearrange.cells", "cli.artifact_bytes",
                "maximize.subcritical_evals", "maximize.critical_evals",
                "trace.spans")


class NoSourceTree(Exception):
    """The checkout holds no src/anisotm to benchmark."""


class ChildFailed(Exception):
    """A benchmark process exited without a result."""


# -- environment ---------------------------------------------------------------

def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    for key in THREAD_ENV:
        env[key] = "1"
    return env


def src_files():
    return sorted((ROOT / "src").rglob("*.py"))


def environment():
    model = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas_threads": {k: "1" for k in THREAD_ENV},
        "src_lines": sum(len(p.read_text().splitlines()) for p in src_files()),
        "method": METHOD,
        "load": "one process, closed loop, one caller, one thread",
    }


def code_hash():
    h = hashlib.sha256()
    for p in src_files() + sorted(HERE.glob("*.py")):
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


# -- processes -------------------------------------------------------------------

def run_child(workload, seed, size, tmp, deadline, setup_only=False, trace=False):
    """One fresh process; returns its result dict (plus its span file path)."""
    workdir = Path(tempfile.mkdtemp(dir=tmp))
    result_path = workdir / "result.json"
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--size", size, "--workdir", str(workdir),
           "--result", str(result_path)]
    if setup_only:
        cmd.append("--setup-only")
    spans = workdir / "spans.npz"
    if trace:
        cmd += ["--spans", str(spans)]
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd + ["--spawned", repr(spawned)], env=child_env(),
                            stdout=subprocess.DEVNULL, cwd=str(workdir))
    try:
        code = proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise ChildFailed(f"{workload} process exceeded the run time limit") from None
    if code != 0 or not result_path.exists():
        raise ChildFailed(f"{workload} process exited with code {code}")
    result = json.loads(result_path.read_text())
    result["process_s"] = time.monotonic() - spawned
    if trace:
        result["spans_path"] = str(spans)
    return result


def record_path(workload, seed, size):
    return STATE / "records" / f"{code_hash()}-{workload}-{seed}-{size}.json"


def check_record(workload, seed, size, digests, counts):
    """Compare artifact digests and exact counts with earlier runs of this
    seed and code; store what is new.  Returns (name, ok, detail) tuples."""
    path = record_path(workload, seed, size)
    old = json.loads(path.read_text()) if path.exists() else {}
    out = []
    if "digests" in old:
        same = old["digests"] == digests
        out.append(("artifacts byte-identical to earlier runs of this seed", same,
                    "" if same else f"{old['digests']} != {digests}"))
    if counts is not None and "counts" in old:
        same = old["counts"] == counts
        out.append(("exact counts identical to earlier traced runs of this seed",
                    same, "" if same else f"{old['counts']} != {counts}"))
    new = dict(old)
    new.setdefault("digests", digests)
    if counts is not None:
        new.setdefault("counts", counts)
    if new != old:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(new, sort_keys=True))
        os.replace(tmp, path)
    return out


# -- one run -----------------------------------------------------------------------

def run_once(workload, seed, seconds, trace, size="bench"):
    """Set-up probes, untraced processes for `seconds`, then one traced.

    A measured process that dies after the first one counts as a failed
    check and ends the window; without one finished process (or, traced,
    without the traced one) there are no metrics and ChildFailed propagates.
    """
    deadline = time.monotonic() + RUN_LIMIT_S
    (STATE / "tmp").mkdir(parents=True, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=STATE / "tmp")
    checks = []
    try:
        probes = [run_child(workload, seed, size, tmp, deadline, setup_only=True)
                  for _ in range(SETUP_PROBES)]
        work = []
        window_end = time.monotonic() + seconds
        while True:
            try:
                res = run_child(workload, seed, size, tmp, deadline)
            except ChildFailed as err:
                if not work:
                    raise
                checks.append({"name": "process finished", "ok": False,
                               "detail": str(err), "process": f"process {len(work)}"})
                break
            work.append(res)
            if time.monotonic() + res["process_s"] > window_end:
                break
        traced = None
        if trace:
            traced = run_child(workload, seed, size, tmp, deadline, trace=True)
            spans = dict(np.load(traced["spans_path"]))
            traced["layers"] = layer_metrics(spans)
            traced["layers"]["cli.artifact_bytes"] = traced["artifact_bytes"]
            traced["layers"]["trace.wrapper_s"] = (
                traced["layers"]["trace.spans"] * traced["wrapper_cost_s"])
            traced["layers"]["trace.overhead_s"] = (
                traced["wall_s"] - statistics.median(r["wall_s"] for r in work))
            traced["breakdown"] = search_breakdown(spans)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    for i, res in enumerate(work + ([traced] if traced else [])):
        label = "traced" if res is traced else f"process {i}"
        checks += [dict(c, process=label) for c in res["checks"]]
    digests = [r["digests"] for r in work + ([traced] if traced else [])]
    same = all(d == digests[0] for d in digests)
    checks.append({"name": "artifacts byte-identical across this run's processes",
                   "ok": same, "detail": "", "process": "run"})
    counts = ({k: traced["layers"][k] for k in EXACT_COUNTS} if traced else None)
    for name, ok, detail in check_record(workload, seed, size, digests[0], counts):
        checks.append({"name": name, "ok": ok, "detail": detail, "process": "run"})
    return {"workload": workload, "seed": seed,
            "setups": [r["setup_s"] for r in probes + work],
            "raw_setups": [r["raw"]["setup_s"] for r in probes + work],
            "work": work, "traced": traced, "checks": checks}


def end_to_end(run):
    """One run's values: medians over its processes of the calibrated
    set-up, wall and CPU times (child.py) and of peak memory."""
    work = run["work"]
    return {
        "setup_s": statistics.median(run["setups"]),
        "wall_s": statistics.median(r["wall_s"] for r in work),
        "cpu_s": statistics.median(r["cpu_s"] for r in work),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in work),
    }


def quartiles(values):
    values = sorted(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


# -- printing ----------------------------------------------------------------------

def print_env(env):
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()
                                       if k not in ("blas_threads",)))
    print("blas threads: " + ", ".join(f"{k}=1" for k in env["blas_threads"]))


def print_checks(run, verbose):
    failed = [c for c in run["checks"] if not c["ok"]]
    if verbose:
        seen = set()
        for c in run["checks"]:
            if c["name"] in seen:
                continue
            seen.add(c["name"])
            print(f"  {'PASS' if c['ok'] else 'FAIL'}  {c['name']}  {c['detail']}")
    for c in failed:
        print(f"  FAIL  [{c['process']}] {c['name']}  {c['detail']}")
    print(f"  checks: {len(run['checks']) - len(failed)} of {len(run['checks'])} passed")


def print_layers(traced):
    print("  per-layer (traced process):")
    for name, unit in PER_LAYER.items():
        value = traced["layers"][name]
        text = f"{value:>16d}" if isinstance(value, int) else f"{value:>16.6g}"
        print(f"    {name:<30} {text} {unit}")
    if traced.get("missing_targets"):
        print(f"    not traced (absent in this version): {traced['missing_targets']}")
    for entry in traced["breakdown"]:
        print(f"  {entry['search']} span {entry['seconds']:.3f} s:")
        for kind, (calls, self_s) in sorted(entry["layers"].items(),
                                            key=lambda kv: -kv[1][1]):
            print(f"    {kind:<30} calls {calls:>9}  self {self_s:9.3f} s")


def result_line(run, trace):
    failed = sum(not c["ok"] for c in run["checks"])
    if trace:
        layers = run["traced"]["layers"]
        metrics = {k: {"value": layers[k], "unit": u} for k, u in PER_LAYER.items()}
    else:
        e2e = end_to_end(run)
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END.items()}
    return {"correct": failed == 0, "attempted": len(run["checks"]), "failed": failed,
            "metrics": metrics}


# -- modes -------------------------------------------------------------------------

def single(args):
    print_env(environment())
    run = run_once(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    for i, res in enumerate(run["work"]):
        raw = res["raw"]
        print(f"process {i}: wall {res['wall_s']:.3f} s, cpu {res['cpu_s']:.3f} s, "
              f"setup {res['setup_s']:.3f} s (raw {raw['wall_s']:.3f}, "
              f"{raw['cpu_s']:.3f}, {raw['setup_s']:.3f} s; reference "
              f"{raw['ref_before_s']:.4f}, {raw['ref_after_s']:.4f} s), stages "
              + ", ".join(f"{k} {v:.3f}" for k, v in res["stages"].items())
              + ", values " + ", ".join(f"{k} {v!r}" for k, v in res["values"].items()))
    print(f"set-up samples: {', '.join(f'{s:.3f}' for s in run['setups'])} "
          f"(raw {', '.join(f'{s:.3f}' for s in run['raw_setups'])})")
    for name, value in end_to_end(run).items():
        print(f"{name} = {value:.6g} {END_TO_END[name]}")
    print_checks(run, verbose=False)
    if run["traced"]:
        print_layers(run["traced"])
    print(json.dumps(result_line(run, bool(args.trace))), flush=True)
    return 0


def summarize(runs):
    """Every end-to-end metric of a workload over all its processes, and the
    gated metrics over runs ("per_run.*", the values BENCHMARK.json compares)."""
    samples = {"setup_s": [s for r in runs for s in r["setups"]],
               "raw.setup_s": [s for r in runs for s in r["raw_setups"]]}
    units = dict(END_TO_END, **{"raw.setup_s": "s", "raw.wall_s": "s", "raw.cpu_s": "s",
                                "raw.ref_before_s": "s", "raw.ref_after_s": "s"})
    for r in runs:
        for key, val in end_to_end(r).items():
            samples.setdefault(f"per_run.{key}", []).append(val)
            units[f"per_run.{key}"] = END_TO_END[key]
    for r in runs:
        for res in r["work"]:
            for key in ("wall_s", "cpu_s", "peak_rss_mb"):
                samples.setdefault(key, []).append(res[key])
            for key in ("wall_s", "cpu_s", "ref_before_s", "ref_after_s"):
                samples.setdefault(f"raw.{key}", []).append(res["raw"][key])
            for key, val in res["stages"].items():
                samples.setdefault(key, []).append(val)
                units[key] = "s"
            for key, val in res["values"].items():
                samples.setdefault(key, []).append(val)
                units[key] = "1"
    checks = [c for r in runs for c in r["checks"]]
    samples["fail_ratio"] = [sum(not c["ok"] for c in checks) / len(checks)]
    units["fail_ratio"] = "ratio"
    table = {}
    for key, vals in samples.items():
        q1, med, q3 = quartiles(vals)
        table[key] = {"unit": units[key], "median": med, "q1": q1, "q3": q3,
                      "n": len(vals), "min": min(vals), "max": max(vals)}
    return table


def all_workloads(args):
    env = environment()
    print_env(env)
    size = args.size
    report = {"environment": env, "seconds": args.seconds, "repeat": args.repeat,
              "workloads": {}}
    for workload in WORKLOAD_NAMES:
        print(f"== {workload}")
        runs = [run_once(workload, seed, args.seconds, False, size)
                for seed in range(args.repeat)]
        runs.append(run_once(workload, 0, args.seconds, True, size))
        table = summarize(runs)
        for key, row in table.items():
            print(f"  {key:<28} median {row['median']:<12.6g} q1 {row['q1']:<12.6g} "
                  f"q3 {row['q3']:<12.6g} n {row['n']:<3} {row['unit']}")
            if key in REFERENCE_VALUES and size == "acceptance":
                same = row["min"] == row["max"] == REFERENCE_VALUES[key]
                print(f"  {'':<28} {'equals' if same else 'DIFFERS FROM'} the "
                      f"reference {REFERENCE_VALUES[key]!r} in every sample")
        merged = {"checks": [c for r in runs for c in r["checks"]]}
        print_checks(merged, verbose=True)
        traced = runs[-1]["traced"]
        print_layers(traced)
        report["workloads"][workload] = {
            "end_to_end": table,
            "per_layer": {k: traced["layers"][k] for k in PER_LAYER},
            "breakdown": traced["breakdown"],
            "checks_failed": [c for c in merged["checks"] if not c["ok"]],
        }
    if args.baseline_out:
        Path(args.baseline_out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if all(not w["checks_failed"] for w in report["workloads"].values()) else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("bench", "acceptance", "smoke"),
                        default="bench",
                        help="bench: what BENCHMARK.json measures; acceptance: the "
                             "acceptance-test configuration; smoke: self-tests")
    parser.add_argument("--all", action="store_true",
                        help="run every workload --repeat times plus a traced run")
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--baseline-out")
    args = parser.parse_args(argv)
    if not args.all and args.workload is None:
        parser.error("--workload is required without --all")
    try:
        if not (ROOT / "src" / "anisotm" / "__init__.py").is_file():
            raise NoSourceTree(f"no src/anisotm under {ROOT}")
        return all_workloads(args) if args.all else single(args)
    except NoSourceTree as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except ChildFailed as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
