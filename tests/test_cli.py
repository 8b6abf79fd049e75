"""CLI: config handling, per-command outputs, determinism, exit codes.

All commands run in-process through main(), with tiny search settings so the
file finishes in seconds.
"""

import json

import numpy as np
import pytest

from anisotm import (GridFunction, RadialProfile, FinslerNorm,
                     rasterize_profile)
import anisotm.cli as cli
from anisotm.cli import main, load_config, search_from_config, ConfigError
from anisotm.maximize import SearchConfig


def write_config(path, **overrides):
    cfg = {
        "gauge": {"kind": "euclidean"},
        "params": {"n": 2, "q": 2.0, "beta": 0.5, "lambda_rel": 0.5,
                   "a": 2.0, "b": 2.0},
        "search": {"knots": 24, "radius": 8.0, "restarts": 2, "budget": 300,
                   "seed": 0},
        "sweep": {"grid_size": 8},
    }
    for key, val in overrides.items():
        if isinstance(val, dict):
            cfg.setdefault(key, {}).update(val)
        else:
            cfg[key] = val
    path.write_text(json.dumps(cfg))
    return path


@pytest.fixture
def config_path(tmp_path):
    return write_config(tmp_path / "config.json")


def test_load_config_hash_ignores_threads(config_path, tmp_path):
    _, d1 = load_config(config_path)
    _, d2 = load_config(write_config(tmp_path / "t4.json", search={"threads": 4}))
    assert d1 == d2
    _, d3 = load_config(config_path, seed_override=7)
    assert d3 != d1


def test_load_config_rejects_bad_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(bad)
    bad.write_text("[1, 2]")
    with pytest.raises(ConfigError):
        load_config(bad)


def test_geometry_outputs(config_path, tmp_path, capsys):
    out = tmp_path / "geo"
    assert main(["geometry", "--config", str(config_path),
                 "--out", str(out)]) == 0
    report = json.loads((out / "geometry.json").read_text())
    assert report["kappa"] == pytest.approx(np.pi, abs=1e-8)
    assert report["lambda_n"] == pytest.approx(4.0 * np.pi, abs=1e-8)
    assert report["bipolar_residual"] < 1e-10
    assert "config_sha256" in report and "version" in report
    assert "kappa" in capsys.readouterr().out


def test_symmetrize_outputs(config_path, tmp_path):
    F = FinslerNorm.euclidean(2)
    cone = RadialProfile([0.0, 1.2], [1.0, 0.0])
    u = rasterize_profile(cone, F, 2.0, 64)
    grid_path = tmp_path / "grid.txt"
    u.save(grid_path)
    out = tmp_path / "sym"
    assert main(["symmetrize", "--config", str(config_path),
                 "--out", str(out), "--input", str(grid_path)]) == 0
    checks = json.loads((out / "checks.json").read_text())
    assert checks["fixed_point"] is True
    assert max(float(v) for v in
               checks["equimeasurability_gaps"].values()) <= checks["disc_tolerance"]
    ustar = GridFunction.from_file(out / "ustar.txt")
    assert ustar.m == u.m
    prof, dim = RadialProfile.load(out / "profile.txt")
    assert dim == 2 and prof.support_radius > 1.0


def test_symmetrize_flags_asymmetric_input(config_path, tmp_path):
    vals = np.zeros((32, 32))
    vals[20:26, 4:10] = 1.0
    grid_path = tmp_path / "offcenter.json"
    grid_path.write_text(json.dumps(GridFunction(2.0, vals).to_json()))
    out = tmp_path / "sym2"
    assert main(["symmetrize", "--config", str(config_path),
                 "--out", str(out), "--input", str(grid_path)]) == 0
    checks = json.loads((out / "checks.json").read_text())
    assert checks["fixed_point"] is False


def test_symmetrize_hardy_littlewood_pair(config_path, tmp_path):
    F = FinslerNorm.euclidean(2)
    u = rasterize_profile(RadialProfile([0.0, 1.2], [1.0, 0.0]), F, 2.0, 64)
    g = rasterize_profile(RadialProfile([0.0, 0.9], [0.8, 0.0]), F, 2.0, 64)
    pa, pb = tmp_path / "a.txt", tmp_path / "b.txt"
    u.save(pa)
    g.save(pb)
    out = tmp_path / "hl"
    assert main(["symmetrize", "--config", str(config_path), "--out", str(out),
                 "--input", str(pa), "--second", str(pb)]) == 0
    checks = json.loads((out / "checks.json").read_text())
    assert checks["hardy_littlewood"]["gap"] >= -1e-10


# one key set for both objectives; residuals that do not bind are null
REPORT_KEYS = {"objective", "value", "grad_norm_residual", "q_norm_residual",
               "constraint_residual", "symmetry_residual",
               "local_optimality_margin", "spread", "version", "config_sha256"}


def test_maximize_outputs(config_path, tmp_path):
    out = tmp_path / "max"
    assert main(["maximize", "--config", str(config_path),
                 "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["objective"] == "subcritical"
    assert report["value"] > 0.0
    assert report["grad_norm_residual"] < 1e-8
    assert report["q_norm_residual"] < 1e-8
    assert report["constraint_residual"] is None          # does not bind
    assert set(report) == REPORT_KEYS
    prof, dim = RadialProfile.load(out / "profile.txt")
    assert dim == 2
    lines = (out / "restarts.csv").read_text().splitlines()
    assert lines[0].startswith("# anisotm ")
    assert lines[1] == "restart,value"
    assert len(lines) == 4                                 # header x2 + 2 restarts


def test_maximize_critical_objective(config_path, tmp_path):
    cfg = write_config(tmp_path / "crit.json", search={"objective": "critical"})
    out = tmp_path / "crit"
    assert main(["maximize", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["objective"] == "critical"
    assert report["constraint_residual"] < 1e-10
    # the unit-sphere residuals do not bind a critical profile
    assert report["grad_norm_residual"] is None
    assert report["q_norm_residual"] is None
    assert set(report) == REPORT_KEYS
    lines = (out / "restarts.csv").read_text().splitlines()
    assert lines[1] == "restart,value"
    assert len(lines) == 4                                 # header x2 + 2 restarts


@pytest.mark.parametrize("objective, residual, key",
                         [("subcritical", "grad residual", "grad_norm_residual"),
                          ("critical", "constraint residual", "constraint_residual")])
def test_maximize_prints_binding_residual(tmp_path, capsys, objective, residual,
                                          key):
    cfg = write_config(tmp_path / "cfg.json", search={"objective": objective})
    capsys.readouterr()
    assert main(["maximize", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    line = capsys.readouterr().out.strip()
    assert line == (f"{objective} value = {report['value']:.12g} "
                    f"({residual} {report[key]:.2e})")


def test_sweep_outputs_and_determinism(config_path, tmp_path):
    out1, out2, out3 = (tmp_path / f"s{i}" for i in range(3))
    assert main(["sweep", "--config", str(config_path), "--out", str(out1)]) == 0
    assert main(["sweep", "--config", str(config_path), "--out", str(out2)]) == 0
    assert main(["sweep", "--config", str(config_path), "--out", str(out3),
                 "--threads", "2"]) == 0
    csv1 = (out1 / "sweep.csv").read_bytes()
    assert csv1 == (out2 / "sweep.csv").read_bytes()
    assert csv1 == (out3 / "sweep.csv").read_bytes()
    report = json.loads((out1 / "sweep.json").read_text())
    assert report["g_value"] > 0.0
    assert 0.0 < report["t_star"] < report["lambda"]
    assert report["verdict"] == "threshold not applicable"   # beta > 0


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_sweep_where_bracket_overflows_and_f_underflows(tmp_path):
    # at q = 400, beta = 0 the low-t bracket overflows to inf where the
    # subcritical value underflows to 0: the product is 0 there, not NaN,
    # and no RuntimeWarning is raised (pytest turns one into an error)
    cfg = write_config(tmp_path / "q400.json",
                       params={"q": 400.0, "beta": 0.0, "a": 1.0, "b": 1.0},
                       search={"knots": 16, "budget": 100})
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "sweep.json").read_text(),
                        parse_constant=_reject_constant)
    assert np.isfinite(report["g_value"])
    rows = np.loadtxt(tmp_path / "sweep.csv", delimiter=",", skiprows=2)
    assert np.isinf(rows[0, 1]) and rows[0, 2] == 0.0 and rows[0, 3] == 0.0
    assert not np.any(np.isnan(rows))


def test_seed_override_changes_output(config_path, tmp_path):
    out1, out2 = tmp_path / "m1", tmp_path / "m2"
    assert main(["maximize", "--config", str(config_path), "--out", str(out1),
                 "--seed", "0"]) == 0
    assert main(["maximize", "--config", str(config_path), "--out", str(out2),
                 "--seed", "1"]) == 0
    r1 = json.loads((out1 / "report.json").read_text())
    r2 = json.loads((out2 / "report.json").read_text())
    assert r1["config_sha256"] != r2["config_sha256"]


def test_check_battery(capsys):
    assert main(["check"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert out.count("PASS") >= 10
    assert "all checks passed" in out


def test_exit_code_validation(tmp_path, capsys):
    cfg = write_config(tmp_path / "bad.json", params={"lambda_rel": 1.5})
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "error" in capsys.readouterr().err
    assert main(["maximize", "--out", str(tmp_path)]) == 2  # config missing
    cfg2 = write_config(tmp_path / "badgauge.json", gauge={"kind": "nope"})
    assert main(["geometry", "--config", str(cfg2), "--out", str(tmp_path)]) == 2
    # a dent in sampled values makes the unit sphere non-convex
    th = np.arange(64) * (2.0 * np.pi / 64)
    dented = 1.0 + 0.4 * np.exp(-((th - 1.0) / 0.15) ** 2)
    cfg2 = write_config(tmp_path / "dented.json",
                        gauge={"kind": "sampled", "values": dented.tolist()})
    capsys.readouterr()
    assert main(["geometry", "--config", str(cfg2), "--out", str(tmp_path)]) == 2
    assert "not convex" in capsys.readouterr().err
    # values of the wrong type and degenerate search settings name the field
    capsys.readouterr()
    for block, field, value in (("params", "q", "abc"),
                                ("search", "budget", "many"),
                                ("search", "knots", 1),
                                ("search", "knots", 3.7),
                                ("search", "restarts", True),
                                ("search", "budget", 300.5),
                                ("search", "seed", False),
                                ("search", "objective", "nope"),
                                ("search", "objective", ["critical"]),
                                ("params", "n", 2.5)):
        cfg3 = write_config(tmp_path / "field.json", **{block: {field: value}})
        assert main(["maximize", "--config", str(cfg3), "--out", str(tmp_path)]) == 2
        assert f"{block}.{field}" in capsys.readouterr().err


@pytest.mark.parametrize("block, field, value", [
    ("params", "q", float("inf")), ("params", "a", float("nan")),
    ("params", "b", float("inf")), ("params", "p", float("nan")),
    ("search", "radius", 0.0), ("search", "radius", -1.0),
    ("search", "radius", float("nan")), ("search", "radius", float("inf")),
    ("search", "radius_critical", 0.0), ("search", "radius_critical", float("nan"))])
def test_exit_code_non_finite_fields(tmp_path, capsys, block, field, value):
    # json writes NaN and Infinity, and reads 1e400 as inf; a critical run
    # with a = NaN used to exit 0 with a NaN constraint residual
    overrides = {"search": {"objective": "critical"}}
    overrides.setdefault(block, {})[field] = value
    cfg = write_config(tmp_path / "field.json", **overrides)
    assert main(["maximize", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err, err


@pytest.mark.parametrize("block", ["params", "search", "sweep"])
@pytest.mark.parametrize("seed", [None, 3])
def test_exit_code_non_object_block(tmp_path, capsys, block, seed):
    cfg = write_config(tmp_path / "block.json", **{block: [1]})
    argv = ["sweep", "--config", str(cfg), "--out", str(tmp_path)]
    assert main(argv + ([] if seed is None else ["--seed", str(seed)])) == 2
    assert f"config field {block} must be a JSON object" in capsys.readouterr().err


def test_exit_code_huge_q(tmp_path, capsys):
    # the radius factor of the unit-sphere map underflows at q = 1e6
    cfg = write_config(tmp_path / "huge.json", params={"q": 1e6})
    assert main(["maximize", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "no feasible candidate" in capsys.readouterr().err


def test_exit_code_critical_witness_off_the_sphere(tmp_path, capsys):
    # at q = 1e6 every candidate's constraint projection misses the sphere
    cfg = write_config(tmp_path / "huge.json", params={"q": 1e6},
                       search={"objective": "critical"})
    assert main(["maximize", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "off the constraint sphere" in err and "residual 0.262" in err
    assert not (tmp_path / "report.json").exists()


def test_config_defaults_come_from_the_library(monkeypatch, tmp_path):
    # absent keys leave SearchConfig's and identity_sweep's defaults alone
    assert search_from_config({}) == SearchConfig()
    assert search_from_config({"search": {"radius_critical": None}}) == SearchConfig()
    seen = {}

    def record(params, F, **kwargs):
        seen.update(kwargs)
        raise ConfigError("stop")

    monkeypatch.setattr(cli, "identity_sweep", record)
    cfg = write_config(tmp_path / "nogrid.json", sweep={})
    cfg.write_text(json.dumps({**json.loads(cfg.read_text()), "sweep": {}}))
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert set(seen) == {"config"}


def _grid_cases(tmp_path):
    """Malformed grid inputs for symmetrize: (name, --input, --second)."""
    F = FinslerNorm.euclidean(2)
    cone = RadialProfile([0.0, 1.2], [1.0, 0.0])
    good = tmp_path / "good.txt"
    rasterize_profile(cone, F, 2.0, 64).save(good)
    small = tmp_path / "small.txt"
    rasterize_profile(cone, F, 2.0, 32).save(small)
    files = {"no_m.txt": "2 1.0\n" + "0 0 0 0\n" * 4,
             "short.txt": "2 2.0 4\n" + "0 0 0 0\n" * 3,
             "boundary.txt": "2 2.0 4\n" + "1 1 1 1\n" * 4,
             "nan_width.txt": "2 nan 4\n" + "0 0 0 0\n" * 4,
             "no_l.json": json.dumps({"n": 2, "m": 4, "values": [0.0] * 16}),
             "huge_m.json": json.dumps({"n": 3, "l": 1.0, "m": 1e308, "values": []}),
             "broken.json": "{not json"}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    cases = [(name, tmp_path / name, None) for name in files]
    return cases + [("second size", good, small)]


def test_exit_code_malformed_grid(config_path, tmp_path, capsys):
    # parse and validation errors of a grid file name the file and exit 2
    for name, grid, second in _grid_cases(tmp_path):
        argv = ["symmetrize", "--config", str(config_path),
                "--out", str(tmp_path / "out"), "--input", str(grid)]
        if second is not None:
            argv += ["--second", str(second)]
        capsys.readouterr()
        assert main(argv) == 2, name
        err = capsys.readouterr().err
        assert err.startswith("error: grid file "), (name, err)
        assert str(second or grid) in err, (name, err)


def test_exit_code_malformed_gauge_numbers(tmp_path, capsys):
    bad_values = [1.0] * 15 + ["x"]
    for gauge in ({"kind": "pnorm", "p": "abc"}, {"kind": "pnorm", "p": None},
                  {"kind": "ellipse", "matrix": "abc"},
                  {"kind": "sampled", "values": bad_values}):
        cfg = tmp_path / "gauge.json"
        cfg.write_text(json.dumps({"gauge": gauge}))
        capsys.readouterr()
        assert main(["geometry", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "config field gauge: " in capsys.readouterr().err, gauge


def test_exit_code_malformed_samples(config_path, tmp_path, capsys):
    for samples in ("abc", 0, -1, 2.5, True, None):
        cfg = write_config(tmp_path / "samples.json", samples=samples)
        capsys.readouterr()
        assert main(["geometry", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "<root>.samples" in capsys.readouterr().err, samples


def test_exit_code_overflow(config_path, tmp_path, capsys):
    F = FinslerNorm.euclidean(2)
    vals = np.zeros((16, 16))
    vals[1:15, 1:15] = 1.0
    grid_path = tmp_path / "wide.txt"
    GridFunction(2.0, vals).save(grid_path)
    out = tmp_path / "ovf"
    assert main(["symmetrize", "--config", str(config_path),
                 "--out", str(out), "--input", str(grid_path)]) == 3
    assert "overflow" in capsys.readouterr().err


def test_exit_code_io(config_path, tmp_path, capsys):
    out = tmp_path / "io"
    assert main(["symmetrize", "--config", str(config_path), "--out", str(out),
                 "--input", str(tmp_path / "missing.txt")]) == 4
    assert "i/o error" in capsys.readouterr().err
