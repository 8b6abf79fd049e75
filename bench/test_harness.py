"""Self-tests of the benchmark harness (not part of the library's test suite).

    python3 -m pytest bench/test_harness.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
from run import END_TO_END, PER_LAYER  # noqa: E402


def _spans(rows, kinds):
    """Span arrays from (kind, parent, start, end, size) rows."""
    kind, parent, start, end, size = zip(*rows)
    return {"kinds": np.array(kinds), "kind": np.array([kinds.index(k) for k in kind]),
            "parent": np.array(parent), "start": np.array(start, float),
            "end": np.array(end, float), "size": np.array(size),
            "error": np.zeros(len(rows), dtype=np.int8)}


def test_self_time_of_a_nested_tree():
    parent = np.array([-1, 0, 1, 0, -1])
    start = np.array([0.0, 1.0, 2.0, 5.0, 20.0])
    end = np.array([10.0, 4.0, 3.0, 9.0, 21.5])
    got = tracer.self_times(parent, end - start)
    np.testing.assert_allclose(got, [3.0, 2.0, 1.0, 4.0, 1.5])


def test_layer_metrics_attribute_calls_to_the_enclosing_search():
    kinds = list(tracer.KINDS)
    rows = [
        ("cli.main", -1, 0.0, 30.0, 0),
        ("maximize.estimate_f", 0, 1.0, 11.0, 0),         # 1
        ("maximize.isotonic", 1, 1.0, 2.0, 0),
        ("functional.normalize", 1, 2.0, 5.0, 0),         # 3
        ("profiles.construct", 3, 2.5, 3.0, 0),
        ("functional.value", 1, 5.0, 7.0, 0),
        ("maximize.direct_critical_max", 0, 12.0, 20.0, 0),  # 6
        ("maximize.isotonic", 6, 12.0, 12.0, 0),
        ("functional.constraint", 6, 12.0, 16.0, 0),
        ("functional.value", 6, 16.0, 17.0, 0),
        ("maximize.isotonic", 6, 17.0, 17.0, 0),
        ("functional.value", 6, 17.0, 18.0, 0),
        ("maximize.diagnostics", 0, 21.0, 25.0, 0),        # 12
        ("functional.value", 12, 21.0, 22.0, 0),
        ("rearrange.symmetrize", 12, 22.0, 23.0, 4096),   # 14
        ("finsler.eval", 14, 22.0, 22.5, 4096),
    ]
    m = tracer.layer_metrics(_spans(rows, kinds))
    assert m["functional.value_calls"] == 4
    assert m["maximize.subcritical_evals"] == 1
    assert m["maximize.critical_evals"] == 2
    assert m["maximize.searches"] == 2
    assert m["maximize.evals_per_search"] == 1.5
    assert m["functional.normalize_s"] == pytest.approx(2.5)   # 3 minus 0.5 child
    assert m["maximize.self_s"] == pytest.approx((10 - 1 - 3 - 2) + (8 - 4 - 2))
    assert m["maximize.diagnostics_s"] == pytest.approx(4.0)
    assert m["rearrange.cells"] == 4096
    assert m["rearrange.symmetrize_s"] == pytest.approx(0.5)
    assert m["finsler.eval_points"] == 4096
    assert m["functional.useful_ratio"] == 1.0
    assert set(m) | {"cli.artifact_bytes", "trace.wrapper_s",
                     "trace.overhead_s"} == set(PER_LAYER)


def _namespaces():
    import anisotm
    mods = {n: m for n, m in sys.modules.items()
            if n == "anisotm" or n.startswith("anisotm.")}
    snap = {n: dict(vars(m)) for n, m in mods.items()}
    snap["FinslerNorm"] = dict(vars(anisotm.FinslerNorm))
    snap["RadialProfile"] = dict(vars(anisotm.RadialProfile))
    return snap


def test_traced_run_restores_every_patched_name(tmp_path):
    import anisotm.cli  # noqa: F401  (every module the targets name)
    import anisotm.functional
    import anisotm.maximize
    from workloads import SearchWorkload

    before = _namespaces()
    original = anisotm.functional.atmsc_value
    work = SearchWorkload(seed=0, size="smoke", workdir=tmp_path)
    work.setup()
    t = tracer.Tracer("test")
    with t:
        assert anisotm.maximize.atmsc_value is not original
        assert anisotm.maximize.atmsc_value is anisotm.functional.atmsc_value
        work.run(tracer.time.perf_counter)
    after = _namespaces()
    assert anisotm.maximize.atmsc_value is anisotm.functional.atmsc_value is original
    assert set(before) == set(after)
    for ns in before:
        changed = [k for k in before[ns] if before[ns][k] is not after[ns].get(k)]
        assert not changed, f"{ns}: {changed}"
    assert not t.missing
    metrics = tracer.layer_metrics({"kinds": np.array(tracer.KINDS), **t.arrays()})
    assert metrics["functional.value_calls"] > 0
    assert metrics["maximize.searches"] == 2


def _bench(*args, cwd=ROOT, root=ROOT):
    proc = subprocess.run([sys.executable, str(root / "bench" / "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=170)
    return proc


@pytest.mark.parametrize("workload,trace", [("search", 0), ("search", 1),
                                            ("sweep", 1), ("geometry", 1)])
def test_smoke_run_of_every_workload(workload, trace):
    proc = _bench("--workload", workload, "--seed", "1", "--seconds", "0",
                  "--trace", str(trace), "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = PER_LAYER if trace else END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_a_run_reports_medians_over_its_processes():
    from run import end_to_end
    work = [{"wall_s": w, "cpu_s": w - 0.1, "peak_rss_mb": 90.0 + w}
            for w in (3.0, 9.0, 2.0)]
    got = end_to_end({"setups": [0.5, 0.4, 0.7, 0.6], "work": work})
    assert got == {"setup_s": 0.55, "wall_s": 3.0, "cpu_s": 2.9, "peak_rss_mb": 93.0}


def test_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER


def test_checks_report_failures():
    from workloads import Checks
    checks = Checks()
    checks.at_most("small", 2.0, 1.0)
    checks.at_least("large", 2.0, 1.0)
    assert [c["ok"] for c in checks.items] == [False, True]


def test_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _bench("--workload", "search", "--seed", "0", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path, root=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
