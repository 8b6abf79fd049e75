"""Command-line interface: reproducible runs from a single JSON config.

Subcommands: geometry (gauge constants and consistency residuals),
symmetrize (grid in, symmetrized grid + profile + inequality checks out),
maximize (subcritical or critical profile search), sweep (the sup-identity
scan over t), check (the quick invariant battery).

Every output embeds the artifact version and the SHA-256 of the resolved
config (after the --seed override; --threads is an accepted no-op), and
contains no timestamps, so identical configs produce byte-identical files.
Exit codes: 0 success, 1 failed checks (the check subcommand only),
2 validation error, 3 numerical overflow or support overflow, 4 I/O error.
"""

import argparse
import hashlib
import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__
from .finsler import (FinslerNorm, GaugeError, wulff_volume, sharp_constant,
                      bipolar_residual, coarea_surface_check)
from .functional import (FunctionalParams, ParamError, FunctionalOverflowError,
                         _count, phi, normalize_sphere,
                         lq_norm_radial, grad_norm_radial, validate_lambda,
                         PHI_SERIES)
from .profiles import RadialProfile, ProfileError
from .rearrange import (GridFunction, SupportOverflowError, SymmetryError,
                        convex_symmetrization, profile_of, polya_szego_check,
                        hardy_littlewood_check, equimeasurability_gaps,
                        rasterize_profile, symmetry_gap, disc_tolerance)
from .maximize import (SearchConfig, estimate_f, direct_critical_max,
                       identity_sweep, threshold_check, maximizer_diagnostics)


class ConfigError(ValueError):
    """Malformed or inadmissible run configuration."""


# -- config loading ----------------------------------------------------------

def _require(block, key, where):
    if key not in block:
        raise ConfigError(f"config field {where}.{key} is missing")
    return block[key]


_REQUIRED = object()


def _number(block, key, where, convert, default=_REQUIRED):
    """Field ``where.key`` through ``convert`` (int or float), ``default``
    when absent (None stays None); a boolean, a non-integral number for an
    int field, or a value that does not convert is a ConfigError."""
    raw = _require(block, key, where) if default is _REQUIRED else block.get(key, default)
    if raw is None and default is None:
        return None
    kind = "an integer" if convert is int else "a number"
    try:
        if isinstance(raw, bool) or (convert is int and isinstance(raw, float)
                                     and not raw.is_integer()):
            raise ValueError
        return convert(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"config field {where}.{key} must be {kind}, "
                          f"got {raw!r}") from None


# the keys each config block may hold; the gauge spec's are FinslerNorm.from_config's
_KEYS = {
    "<root>": ("gauge", "params", "search", "sweep", "samples"),
    "params": ("n", "q", "beta", "lambda", "lambda_rel", "a", "b", "p", "variant"),
    "search": (*(f.name for f in fields(SearchConfig)), "objective", "threads"),
    "sweep": ("grid_size",),
}


def load_config(path, seed_override=None):
    """Read, validate, and resolve the run config; returns (dict, sha256)."""
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON: {err}") from None
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    for name, keys in _KEYS.items():
        block = cfg if name == "<root>" else cfg.get(name, {})
        if not isinstance(block, dict):
            raise ConfigError(f"config field {name} must be a JSON object, "
                              f"got {block!r}")
        unknown = [key for key in block if key not in keys]
        if unknown:
            raise ConfigError(f"config field {name}.{unknown[0]} is not a known key; "
                              f"{name} takes {', '.join(keys)}")
    return _resolve_config(cfg, seed_override)


def _resolve_config(cfg, seed_override=None):
    """Apply the --seed override to a config dict; returns (dict, sha256)."""
    if seed_override is not None:
        cfg.setdefault("search", {})["seed"] = int(seed_override)
    hash_cfg = json.loads(json.dumps(cfg))
    hash_cfg.get("search", {}).pop("threads", None)    # the search is serial
    digest = hashlib.sha256(
        json.dumps(hash_cfg, sort_keys=True, separators=(",", ":")).encode()).hexdigest()
    return cfg, digest


def gauge_from_config(cfg):
    spec = _require(cfg, "gauge", "<root>")
    dim = 2
    if "params" in cfg and "n" in cfg["params"]:
        dim = _number(cfg["params"], "n", "params", int)
    try:
        return FinslerNorm.from_config(spec, dim=dim)
    except (ValueError, TypeError) as err:     # GaugeError is a ValueError
        raise ConfigError(f"config field gauge: {err}") from None


def params_from_config(cfg, F=None):
    block = _require(cfg, "params", "<root>")
    n = _number(block, "n", "params", int)
    lam = _number(block, "lambda", "params", float, None)
    if lam is None:
        rel = _number(block, "lambda_rel", "params", float, None)
        if rel is None:
            raise ConfigError("config field params.lambda (or params.lambda_rel) "
                              "is missing")
        if F is None:
            raise ConfigError("params.lambda_rel needs a gauge to resolve against")
        lam = rel * sharp_constant(F)
    try:
        params = FunctionalParams(
            n=n, q=_number(block, "q", "params", float),
            beta=_number(block, "beta", "params", float, 0.0), lam=lam,
            a=_number(block, "a", "params", float, 1.0),
            b=_number(block, "b", "params", float, 1.0),
            p=_number(block, "p", "params", float, None),
            variant=block.get("variant", PHI_SERIES))
        if F is not None:
            validate_lambda(params, F)
    except ParamError as err:
        raise ConfigError(f"config field params: {err}") from None
    return params


def search_from_config(cfg):
    """SearchConfig from the fields the ``search`` block sets, so SearchConfig
    keeps its own defaults; a field whose default is None may be null, and
    ``search.threads`` is ignored."""
    block = cfg.get("search", {})
    return SearchConfig(**{
        f.name: _number(block, f.name, "search", f.type,
                        None if f.default is None else _REQUIRED)
        for f in fields(SearchConfig) if f.name in block})


# -- output helpers ----------------------------------------------------------

def _write_json(path, payload, digest):
    payload = dict(payload)
    payload["version"] = __version__
    payload["config_sha256"] = digest
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_csv(path, header_cols, rows, digest):
    lines = [f"# anisotm {__version__} config_sha256={digest}",
             ",".join(header_cols)]
    for row in rows:
        lines.append(",".join(f"{v:.17g}" for v in row))
    path.write_text("\n".join(lines) + "\n")


def _load_grid(path):
    """Grid from a text or JSON file; a malformed one is a ConfigError."""
    p = Path(path)
    if not p.exists():
        raise OSError(f"grid file not found: {path}")
    try:
        if p.suffix == ".json":
            return GridFunction.from_json(json.loads(p.read_text()))
        return GridFunction.from_file(path)
    except (ValueError, TypeError, OverflowError) as err:
        raise ConfigError(f"grid file {path}: {err}") from None


# -- subcommands -------------------------------------------------------------

def cmd_geometry(cfg, digest, out):
    F = gauge_from_config(cfg)
    samples = _count(_number(cfg, "samples", "<root>", int, 200),
                     "config field <root>.samples", 1)
    kappa = wulff_volume(F)
    report = {
        "gauge": F.config(),
        "dim": F.dim,
        "kappa": kappa,
        "lambda_n": sharp_constant(F),
        "bipolar_residual": bipolar_residual(F, sample_count=samples),
        "coarea_residuals": {str(r): coarea_surface_check(F, r)
                             for r in (0.5, 1.0, 2.0)},
    }
    _write_json(out / "geometry.json", report, digest)
    print(f"kappa = {kappa:.12g}, lambda_n = {report['lambda_n']:.12g}")
    print(f"bipolar residual = {report['bipolar_residual']:.3e}")
    for r, res in report["coarea_residuals"].items():
        print(f"coarea residual (r={r}) = {res:.3e}")
    return 0


def cmd_symmetrize(cfg, digest, out, input_path, second_path=None):
    F = gauge_from_config(cfg)
    u = _load_grid(input_path)
    if u.dim != F.dim:
        raise ConfigError(f"grid dimension {u.dim} != gauge dimension {F.dim}")
    ustar = convex_symmetrization(u, F)
    prof = profile_of(ustar, F)
    ustar.save(out / "ustar.txt")
    prof.save(out / "profile.txt", u.dim)
    qs = [1.0, float(u.dim)]
    if "params" in cfg and "q" in cfg["params"]:
        qs.insert(1, _number(cfg["params"], "q", "params", float))
    ps = polya_szego_check(u, F)
    fp_gap = symmetry_gap(u, F)
    checks = {
        "equimeasurability_gaps": {str(q): g for q, g in
                                   equimeasurability_gaps(u, ustar, qs).items()},
        "polya_szego": {"energy_u": ps.energy_u, "energy_ustar": ps.energy_ustar,
                        "gap": ps.gap},
        "fixed_point": fp_gap <= disc_tolerance(u.h),
        "fixed_point_gap": fp_gap,
        "disc_tolerance": disc_tolerance(u.h),
    }
    if second_path is not None:
        gfun = _load_grid(second_path)
        if (gfun.dim, gfun.m, gfun.halfwidth) != (u.dim, u.m, u.halfwidth):
            raise ConfigError(f"grid file {second_path}: (n, m, L) differ from "
                              f"the input grid's {(u.dim, u.m, u.halfwidth)}")
        hl = hardy_littlewood_check(u, gfun, F)
        checks["hardy_littlewood"] = {"lhs": hl.lhs, "rhs": hl.rhs, "gap": hl.gap,
                                      "g_symmetry_gap": hl.g_symmetry_gap}
    _write_json(out / "checks.json", checks, digest)
    print(f"wrote ustar.txt, profile.txt, checks.json to {out}")
    print(f"polya-szego gap = {ps.gap:.6g}, fixed_point = {checks['fixed_point']}")
    return 0


def cmd_maximize(cfg, digest, out):
    F = gauge_from_config(cfg)
    params = params_from_config(cfg, F)
    sconf = search_from_config(cfg)
    objective = cfg.get("search", {}).get("objective", "subcritical")
    # looked up per call, so a wrapper installed on the module names is used
    searches = {"subcritical": estimate_f, "critical": direct_critical_max}
    if not isinstance(objective, str) or objective not in searches:
        raise ConfigError(f"config field search.objective must be 'subcritical' "
                          f"or 'critical', got {objective!r}")
    res = searches[objective](params, F, sconf)
    diag = maximizer_diagnostics(res.profile, params, F, objective=objective)
    # a subcritical profile lies on both unit spheres, a critical one on the
    # constraint set; the residuals that do not bind are written as null
    critical = objective == "critical"
    report = {
        "objective": objective,
        "value": diag.value,
        "grad_norm_residual": None if critical else diag.grad_norm_residual,
        "q_norm_residual": None if critical else diag.q_norm_residual,
        "constraint_residual": diag.constraint_residual if critical else None,
        "symmetry_residual": diag.symmetry_residual,
        "local_optimality_margin": diag.local_optimality_margin,
        "spread": res.spread,
    }
    _write_json(out / "report.json", report, digest)
    diag.profile.save(out / "profile.txt", params.n)
    _write_csv(out / "restarts.csv", ["restart", "value"],
               [(float(i), v) for i, v in enumerate(res.restart_values)], digest)
    kind, residual = (("constraint", diag.constraint_residual) if critical
                      else ("grad", diag.grad_norm_residual))
    print(f"{objective} value = {diag.value:.12g} ({kind} residual {residual:.2e})")
    return 0


def cmd_sweep(cfg, digest, out):
    F = gauge_from_config(cfg)
    params = params_from_config(cfg, F)
    sconf = search_from_config(cfg)
    sweep = cfg.get("sweep", {})
    # identity_sweep keeps its own default grid size
    sizing = ({"grid_size": _number(sweep, "grid_size", "sweep", int)}
              if "grid_size" in sweep else {})
    res = identity_sweep(params, F, config=sconf, **sizing)
    thr = threshold_check(params)
    if thr.applicable:
        verdict = ("attainment guaranteed" if res.g_value > thr.threshold
                   else "inconclusive")
    else:
        verdict = "threshold not applicable"
    report = {
        "lambda": res.lam,
        "t_star": res.t_star,
        "g_value": res.g_value,
        "threshold": thr.threshold if thr.applicable else None,
        "threshold_applicable": thr.applicable,
        "verdict": verdict,
        "endpoint_diagnostics": res.endpoint_diagnostics,
    }
    _write_json(out / "sweep.json", report, digest)
    _write_csv(out / "sweep.csv", ["t", "bracket", "f", "product"],
               zip(res.ts, res.brackets, res.f_estimates, res.products), digest)
    print(f"g_value = {res.g_value:.12g} at t_star = {res.t_star:.12g}")
    print(f"verdict: {verdict}")
    return 0


def cmd_check(cfg, digest, out):
    """Quick invariant battery over the built-in anchor gauges."""
    del digest, out
    seed = search_from_config(cfg).seed
    failures = 0

    def report(name, ok, detail=""):
        nonlocal failures
        print(f"{'PASS' if ok else 'FAIL'}  {name}{'  ' + detail if detail else ''}")
        failures += 0 if ok else 1

    F_euc = FinslerNorm.euclidean(2)
    F_ell = FinslerNorm.ellipse([[4.0, 0.0], [0.0, 1.0]])
    F_p4 = FinslerNorm.pnorm(4.0, 2)
    report("kappa euclidean = pi",
           abs(wulff_volume(F_euc) - np.pi) < 1e-8,
           f"{wulff_volume(F_euc):.12g}")
    report("kappa ellipse diag(4,1) = 2 pi",
           abs(wulff_volume(F_ell) - 2 * np.pi) < 1e-8,
           f"{wulff_volume(F_ell):.12g}")
    report("sharp constant euclidean = 4 pi",
           abs(sharp_constant(F_euc) - 4 * np.pi) < 1e-8)
    for F, name in ((F_euc, "euclidean"), (F_ell, "ellipse"), (F_p4, "pnorm4")):
        report(f"bipolar residual {name} <= 1e-10",
               bipolar_residual(F, 100, seed=seed) < 1e-10)
        report(f"coarea residual {name} <= 1e-8",
               abs(coarea_surface_check(F, 1.0)) < 1e-8)
    # series start j = 2; below t = 0.1 the closed form itself cancels
    t = np.geomspace(0.1, 10.0, 25)
    exact = np.expm1(t) - t
    gap = np.max(np.abs(phi(FunctionalParams(n=2, q=3.0, beta=0.0, lam=1.0), t)
                        - exact) / exact)
    report("phi at j = 2 equals expm1(t) - t within 1e-12", gap < 1e-12, f"{gap:.2e}")
    rng = np.random.default_rng(seed)
    knots = np.linspace(0.0, 3.0, 33)
    ok_norm = True
    for _ in range(10):
        vals = np.sort(rng.uniform(0.0, 2.0, 33))[::-1]
        vals[-1] = 0.0
        g = RadialProfile(knots, vals)
        gn = normalize_sphere(g, 2.0, F_euc)
        ok_norm &= abs(grad_norm_radial(gn, F_euc) - 1.0) < 1e-10
        ok_norm &= abs(lq_norm_radial(gn, 2.0, F_euc) - 1.0) < 1e-10
    report("normalize_sphere puts both norms at 1 within 1e-10", ok_norm)
    cone = RadialProfile(np.linspace(0.0, 1.0, 65), np.linspace(1.0, 0.0, 65))
    u = rasterize_profile(cone, F_euc, 1.5, 128)
    ps = polya_szego_check(u, F_euc)
    report("polya-szego gap on cone within allowance",
           ps.gap >= -disc_tolerance(u.h) * (1.0 + ps.energy_u),
           f"gap={ps.gap:.3e}")
    gaps = equimeasurability_gaps(u, convex_symmetrization(u, F_euc), [1.0, 2.0])
    report("equimeasurability on cone within allowance",
           max(gaps.values()) <= disc_tolerance(u.h))
    print(f"{'all checks passed' if failures == 0 else f'{failures} checks failed'}")
    return 0 if failures == 0 else 1


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="anisotm",
        description="Anisotropic Trudinger-Moser toolbox: gauge geometry, "
                    "convex symmetrization, and extremal-profile search.")
    parser.add_argument("command",
                        choices=["geometry", "symmetrize", "maximize", "sweep",
                                 "check"])
    parser.add_argument("--config", help="path to the JSON run config")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="override search.seed from the config")
    parser.add_argument("--threads", type=int, default=None,
                        help="accepted for old scripts and ignored: the "
                             "search is serial")
    parser.add_argument("--input", help="grid file (symmetrize)")
    parser.add_argument("--second", help="second grid file for the product "
                                         "inequality (symmetrize)")
    args = parser.parse_args(argv)

    try:
        if args.config is None:
            if args.command != "check":
                raise ConfigError("--config is required for this command")
            cfg, digest = _resolve_config({}, args.seed)
        else:
            cfg, digest = load_config(args.config, args.seed)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        if args.command == "geometry":
            return cmd_geometry(cfg, digest, out)
        if args.command == "symmetrize":
            if args.input is None:
                raise ConfigError("symmetrize needs --input <grid file>")
            return cmd_symmetrize(cfg, digest, out, args.input, args.second)
        if args.command == "maximize":
            return cmd_maximize(cfg, digest, out)
        if args.command == "sweep":
            return cmd_sweep(cfg, digest, out)
        return cmd_check(cfg, digest, out)
    except (ConfigError, ParamError, GaugeError, ProfileError, SymmetryError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (FunctionalOverflowError, SupportOverflowError) as err:
        print(f"overflow: {err}", file=sys.stderr)
        return 3
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
