"""Maximizer search over radial profiles, and the sup-identity sweep.

The subcritical problem maximizes the exponential functional over
nonincreasing profiles with both norms 1; the critical problem maximizes
the truncated-series functional on the constraint sphere
||F grad u||_n^a + ||u||_q^b = 1.  By Wulff symmetry the gauge enters only
through k = kappa_n(F)/omega_n: with rho = k^{(q/n-1)/n}, h -> k^{-1/n}
h(r/rho) maps the Euclidean problem at rate lam k^{-1/(n-1)} onto that of
F at rate lam, keeps both norms and the constraint, and multiplies values
by k rho^{n-beta} (and k^{-p/n} for the exp-power integrand).  So every
search runs the Euclidean problem: restarts of one bounded L-BFGS-B ascent
of functional.RadialObjective, on its lean quadrature rule, in the
nonnegative decrements of knot values on a geometric grid.  Each ascent is
scipy's compiled L-BFGS-B kernel, driven directly by reverse communication,
and bitwise what scipy.optimize.minimize gives; a search advances all its
restarts in lockstep and scores their pending points in one row-batched
objective pass, each row bitwise as if its restart ran alone.  Every final
iterate is re-scored on the accurate rule, and the best is renormalized,
carried to F and re-evaluated there, so each reported value is realized by
a stored profile: an honest lower bound for the true supremum.

The sup identity writes the critical value at lam as

    sup_{t in (0, lam)} bracket(t) * f(t),

with f(t) the subcritical value at rate t and bracket the explicit
algebraic factor; identity_sweep samples t and supplies each f from the
restarts of all its points run as one lockstep search, each f bitwise the
standalone estimate_f, and the scaling construction turns the sweep argmax
into a critical candidate.
"""

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import isotonic_regression
from scipy.optimize._lbfgsb import setulb
from scipy.optimize._lbfgsb_py import status_messages, task_messages

from .finsler import FinslerNorm, wulff_volume
from .functional import (EXP_POWER, LEAN, PHI_SERIES, ParamError, RadialObjective,
                         _check_grid, _count, _real, atmsc_value, critical_value,
                         evaluate_rows, constraint_value, lq_norm_radial, grad_norm_radial,
                         aa_bracket, series_start, series_threshold, validate_lambda)
from .profiles import RadialProfile
from .rearrange import rasterize_profile, symmetry_gap

# L-BFGS-B settings of every ascent: minimize's maxcor, maxls and maxiter
# defaults, and factr, pgtol from ftol 1e-14, gtol 1e-14 as minimize sets them.
# factr about 45 stops an ascent once an iteration gains less than 1e-14
# relative, below the ~3e-14 at which a 2-D search's restarts agree anyway;
# factr < 1 (ftol 1e-16) asks for a gain below one ulp and chases rounding
_MAXCOR, _MAXLS, _MAXITER = 10, 20, 15000
_FACTR, _PGTOL = 1e-14 / np.finfo(float).eps, 1e-14
# setulb's task codes: task[0] says what the kernel wants, task[1] why it stopped
_NEW_X, _FG, _STOP = 1, 3, 5


@dataclass(frozen=True)
class SearchConfig:
    """Search-space and budget knobs.

    ``radius`` is the outer radius of the pre-normalization knot grid, in
    the units of the Euclidean problem every search runs; all initializers
    are supported within radius/2 so their q-norm tails vanish.  The
    subcritical value does not depend on it (normalization rescales radii).
    ``budget`` caps the value-and-gradient evaluations of each restart's
    L-BFGS-B ascent; a search makes at most restarts * budget of them.
    """

    knots: int = 64
    radius: float = 8.0
    restarts: int = 4
    budget: int = 4000
    seed: int = 0
    radius_critical: float = None    # critical-search radius, default 2*radius

    def __post_init__(self):
        for name, least in (("knots", 2), ("restarts", 1), ("budget", 1), ("seed", 0)):
            object.__setattr__(self, name, _count(getattr(self, name), f"search.{name}", least))
        for name in ("radius", "radius_critical"):
            r = getattr(self, name)
            if r is None:
                continue
            _real(r, f"search.{name}")
            if not (math.isfinite(r) and r > 0.0):
                raise ParamError(f"search.{name} must be positive and finite, got {r}")


@dataclass
class SearchResult:
    """Outcome of one subcritical or critical search: the best value, the
    witness profile that realizes it, and per restart the value it reached
    (on the accurate rule), its value-and-gradient evaluations and
    L-BFGS-B's stop message."""

    value: float
    profile: RadialProfile
    restart_values: tuple
    spread: float                    # best minus third-best restart value
    restart_evals: tuple
    restart_stops: tuple


@dataclass
class MaximizerReport:
    profile: RadialProfile
    value: float
    grad_norm_residual: float
    q_norm_residual: float
    constraint_residual: float
    symmetry_residual: float
    local_optimality_margin: float


@dataclass
class SweepResult:
    """Samples of bracket(t) * f(t) over t in (0, lam)."""

    lam: float
    ts: np.ndarray
    f_estimates: np.ndarray
    brackets: np.ndarray
    products: np.ndarray
    t_star: float
    g_value: float
    endpoint_diagnostics: dict
    profiles: list


@dataclass(frozen=True)
class ThresholdResult:
    threshold: float
    applicable: bool


def geometric_knots(radius, count):
    """Knot grid 0 < radius/1000 = r_1 < ... < r_count = radius, geometric."""
    ratio = np.linspace(0.0, 1.0, count)
    pos = radius * 1e-3 ** (1.0 - ratio)
    return np.concatenate([[0.0], pos])


def isotonic_nonincreasing(y):
    """Best nonincreasing least-squares fit, clipped at 0 (scipy's PAVA)."""
    return np.maximum(isotonic_regression(y, increasing=False).x, 0.0)


def _initializers(knots):
    """Cone, Gaussian-like bump, and three Moser-type plateaus, all
    supported within half the grid radius."""
    r = knots[:-1]
    half = 0.5 * knots[-1]
    inits = [np.maximum(1.0 - r / half, 0.0),
             np.maximum(np.exp(-16.0 * (r / half) ** 2) - np.exp(-16.0), 0.0)]
    with np.errstate(divide="ignore"):
        logs = np.log(np.where(r > 0.0, half / np.maximum(r, 1e-300), 1.0))
    for rk in (half / 50.0, half / 200.0, half / 1000.0):
        v = np.minimum(1.0, logs / math.log(half / rk))
        v[0] = 1.0
        inits.append(np.maximum(v, 0.0))
    return inits


def _theta_to_decrements(theta):
    """The decrements of theta's least nonincreasing majorant: a start."""
    th = np.maximum.accumulate(theta[::-1])[::-1]
    return np.append(-np.diff(th), th[-1])


def _lbfgsb(w, maxfev):
    """One bounded L-BFGS-B ascent from the nonnegative decrements w, as a
    generator: it yields each point it wants scored, is sent that point's
    negated (value, gradient), and returns (decrements, value, evaluations,
    stop message) when it stops (_ascend)."""
    x = np.array(w, dtype=float)        # setulb updates x in place
    size = x.size
    last = x.copy()
    f, g = yield last
    accepted = f
    nfev, nit = 1, 0
    lower, upper = np.zeros(size), np.zeros(size)
    nbd = np.ones(size, np.int32)               # lower bound 0 only
    wa = np.zeros(2 * _MAXCOR * size + 5 * size + 11 * _MAXCOR ** 2 + 8 * _MAXCOR)
    iwa = np.zeros(3 * size, np.int32)
    task, ln_task = np.zeros(2, np.int32), np.zeros(2, np.int32)
    lsave, isave, dsave = np.zeros(4, np.int32), np.zeros(44, np.int32), np.zeros(29)
    while True:
        setulb(_MAXCOR, x, lower, upper, nbd, f, g, _FACTR, _PGTOL, wa, iwa,
               task, lsave, isave, dsave, _MAXLS, ln_task)
        if task[0] == _FG:
            if not (x == last).all():
                last = x.copy()
                f, g = yield last
                nfev += 1
        elif task[0] == _NEW_X:
            accepted = f
            nit += 1
            if nit >= _MAXITER:
                task[:] = _STOP, 504
            elif nfev > maxfev:
                task[:] = _STOP, 502
        else:
            break
    stop = f"{status_messages[task[0]]}: {task_messages[task[1]]}"
    return x, -float(accepted), nfev, stop


def _ascend(objs, starts, maxfev):
    """Bounded L-BFGS-B ascents, one from each start (nonnegative
    decrements) of its objective in ``objs``, all in lockstep.

    The decrements turn the monotone cone into a box, so every iterate is
    a nonincreasing profile and goes to the objective as it is.

    Each ascent drives scipy's compiled kernel ``setulb`` by reverse
    communication as scipy.optimize.minimize(method='L-BFGS-B') does, with
    maxcor 10, maxls 20, maxiter 15000, ftol 1e-14, gtol 1e-14 and maxfun
    ``maxfev``, so x, evaluation count and stop message are bitwise what
    minimize returns.  ftol 1e-14 stops the ascent once an iteration gains
    less than 1e-14 of the value: smaller gains are rounding noise, and
    chasing them cost a quarter of the evaluations and made their count
    jump when an input moved by one ulp.  The value is that of the final
    x, the last accepted iterate (x0 or the last NEW_X): after an abnormal
    line search minimize reports that of the last trial point instead.

    In lockstep every ascent keeps its own kernel state and runs until it
    asks for a point not yet scored, or stops; then the points of all the
    running ascents are scored in one row-batched pass (evaluate_rows), so
    the per-call cost of the pass is paid once per round, not once per
    ascent.  A pass scores each row bitwise as value_and_grad does, so
    every ascent is bitwise the one it runs alone.  Returns a list of
    (decrements, value, evaluations, stop message), one per start.
    """
    runs = [_lbfgsb(start, maxfev) for start in starts]
    points = [next(run) for run in runs]
    results = [None] * len(runs)
    live = list(range(len(runs)))
    while live:
        scores = evaluate_rows([objs[i] for i in live], np.stack([points[i] for i in live]))
        running = []
        for i, value, grad in zip(live, *scores):
            try:
                points[i] = runs[i].send((-value, -grad))
                running.append(i)
            except StopIteration as stop:
                results[i] = stop.value
        live = running
    return results


def _searches(points, F, config, mode):
    """Deterministic multistart for ``mode`` ('subcritical' or 'critical')
    on the Euclidean problem (module docstring) of each regime in
    ``points``, regimes that differ only in lam: one SearchResult each.
    Every point starts from the canonical initializers, then seeded
    perturbations, and the restarts of all points ascend together on the
    LEAN rule (_ascend); all final iterates are re-scored on the ACCURATE
    rule in one evaluate_rows call, and per point the best, by (value,
    lowest index), is built, mapped to F and re-evaluated there.  The critical knots reach
    ``radius_critical`` (default 2 * radius).  For a Euclidean F every
    factor is exactly 1.0."""
    config = config or SearchConfig()
    for point in points:
        validate_lambda(point, F)
    params = points[0]
    n = params.n
    euclid = FinslerNorm.euclidean(n)
    k = wulff_volume(F) / wulff_volume(euclid)
    rho = k ** ((params.q / n - 1.0) / n)
    p = params.p if mode == "subcritical" and params.variant == EXP_POWER else 0.0
    scale = k ** (1.0 - p / n) * rho ** (n - params.beta)
    radius = config.radius
    if mode == "critical":
        radius = 2.0 * radius if config.radius_critical is None else config.radius_critical
    knots = geometric_knots(radius, config.knots)
    try:
        _check_grid(knots, n)
    except ParamError:
        raise ParamError(f"search radius {radius:g} puts the energy of the knot grid "
                         f"outside the floating-point range") from None
    rates = [point.with_lam(point.lam * k ** (-1.0 / (n - 1.0))) for point in points]
    inits = _initializers(knots)
    starts = []
    for idx in range(config.restarts):
        base = np.asarray(inits[idx % len(inits)], dtype=float)
        if idx >= len(inits):
            rng = np.random.default_rng((config.seed, idx))
            base = np.maximum(base * (1.0 + 0.3 * rng.standard_normal(base.size)), 0.0)
        starts.append(_theta_to_decrements(base))
    objs = [RadialObjective(rate, euclid, knots, mode, rule=LEAN) for rate in rates]
    ascents = _ascend([obj for obj in objs for _ in starts], starts * len(points),
                      config.budget)
    reports = [RadialObjective(rate, euclid, knots, mode) for rate in rates]
    scores = evaluate_rows([report for report in reports for _ in starts],
                           np.stack([r[0] for r in ascents]), grad=False)[0]
    out = []
    for i, (params, report) in enumerate(zip(points, reports)):
        results = ascents[i * len(starts):(i + 1) * len(starts)]
        vals = scores[i * len(starts):(i + 1) * len(starts)]
        order = np.argsort(-vals, kind="stable")
        best = report.witness(results[order[0]][0])
        if best is None:
            raise ParamError("search produced no feasible candidate; the configured "
                             "radius/knot grid admits no usable profile")
        profile = best.scaled(value_factor=k ** (-1.0 / n), radius_factor=rho)
        value = (atmsc_value if mode == "subcritical" else critical_value)(profile, params, F)
        top = vals[order[:3]] * scale
        out.append(SearchResult(value=float(value), profile=profile,
                                restart_values=tuple(float(v) * scale for v in vals),
                                spread=float(top[0] - top[-1]),
                                restart_evals=tuple(r[2] for r in results),
                                restart_stops=tuple(r[3] for r in results)))
    return out


def estimate_f(params, F, config=None):
    """SearchResult of the best subcritical value over normalized profiles."""
    return _searches([params], F, config, "subcritical")[0]


def direct_critical_max(params, F, config=None):
    """SearchResult of the best critical value on the constraint sphere."""
    return _searches([params], F, config, "critical")[0]


def _sweep_ts(params, grid_size):
    """Two-sided geometric t grid in (0, lam), clustered at both endpoints.

    The low end reaches far enough that the product t^{delta} decay (delta
    the gap between the series start index and its defining threshold) is
    visibly below its mid-range size; the high end reaches far enough that
    the bracket falls below 1e-3 of its value at lam/2.
    """
    lam = params.lam
    n, q, beta, a, b = params.n, params.q, params.beta, params.a, params.b
    delta = series_start(params) - series_threshold(params)    # > 0 for beta > 0
    lo = max(min(1e-3, 0.02 ** (1.0 / delta)), 1e-8) if beta > 0.0 else 1e-3
    exp_hi = (q / b) * (1.0 - beta / n)
    b_half = aa_bracket(0.5 * lam, params)
    # bracket(t) ~ (a(n-1)/n * (1 - t/lam))^exp_hi near t = lam
    target = (5e-4 * b_half) ** (1.0 / exp_hi) * n / (a * (n - 1.0))
    hi = float(np.clip(target, 1e-10, 0.05))
    k1 = grid_size // 2
    k2 = grid_size - k1
    s_low = np.geomspace(lo, 0.5, k1)
    s_high = 1.0 - np.geomspace(0.5, hi, k2 + 1)[1:]
    return lam * np.unique(np.concatenate([s_low, s_high]))


def identity_sweep(params, F, grid_size=24, config=None):
    """Sample bracket(t) * f(t) over t in (0, lam); each f is that of a
    search at its t with a quarter of the restarts (at least 2), of the
    Phi-series f whatever params.variant: the sup identity holds for it.
    The restarts of all the points ascend as one lockstep search (_ascend),
    their objectives differing only in lam, so each f is bitwise the
    standalone estimate_f at its t."""
    grid_size = _count(grid_size, "sweep grid_size", 8)
    config = config or SearchConfig()
    validate_lambda(params, F)
    ts = _sweep_ts(params, grid_size)
    point_config = replace(config, restarts=max(2, config.restarts // 4))
    phi_params = replace(params, variant=PHI_SERIES)
    ests = _searches([phi_params.with_lam(float(t)) for t in ts], F, point_config,
                     "subcritical")
    fs = np.array([est.value for est in ests])
    profiles = [est.profile for est in ests]
    brackets = np.asarray(aa_bracket(ts, params))
    # 0 where f underflows to 0, also where the bracket overflows to inf
    products = np.multiply(brackets, fs, out=np.zeros_like(fs), where=fs != 0.0)
    k_star = int(np.argmax(products))
    thr = threshold_check(params)
    diag = {
        "low_t_products": [float(p) for p in products[:3]],
        "high_t_products": [float(p) for p in products[-3:]],
        "high_t_bracket_over_half": float(brackets[-1] / aa_bracket(0.5 * params.lam, params)),
        "threshold": thr.threshold if thr.applicable else None,
    }
    return SweepResult(lam=params.lam, ts=ts, f_estimates=fs, brackets=brackets,
                       products=products, t_star=float(ts[k_star]),
                       g_value=float(products[k_star]),
                       endpoint_diagnostics=diag, profiles=profiles)


def construct_critical_from_subcritical(t_lambda, u_profile, params, F):
    """Critical candidate from a subcritical maximizer at rate t_lambda.

    v(r) = (t/lam)^{(n-1)/n} * u(gamma r) with

        gamma = ((t/lam)^{b(n-1)/n} ||u||_q^b / (1 - (t/lam)^{a(n-1)/n}))^{q/(n b)}

    sits on the constraint sphere when u has both norms 1, and its critical
    value equals bracket(t) times the subcritical value of u at rate t.
    """
    lam = params.lam
    if not 0.0 < t_lambda < lam:
        raise ParamError(f"t_lambda must lie in (0, lam), got {t_lambda}")
    n, ex = params.n, (params.n - 1.0) / params.n
    s = t_lambda / lam
    uq = lq_norm_radial(u_profile, params.q, F)
    gamma = ((s ** (params.b * ex) * uq ** params.b)
             / (1.0 - s ** (params.a * ex))) ** (params.q / (n * params.b))
    return u_profile.scaled(value_factor=s ** ex, radius_factor=1.0 / gamma)


def threshold_check(params):
    """Non-attainment threshold lam^{q(n-1)/n}/(q(n-1)/n)! when beta = 0 and
    q(n-1)/n is an integer; otherwise not applicable."""
    m = series_threshold(params)
    if params.beta == 0.0 and m.is_integer():
        # k ratios multiplied left to right as math.prod does: never above
        # e^lam, 0 (and no later factor changes it) once it underflows
        value = 1.0
        for i in range(1, int(m) + 1):
            value *= params.lam / i
            if value == 0.0:
                break
        return ThresholdResult(value, True)
    return ThresholdResult(float("nan"), False)


def maximizer_diagnostics(g, params, F, grid_resolution=256, objective="subcritical"):
    """Value, residuals and local-optimality margin of a claimed maximizer.

    ``objective`` is 'subcritical' or 'critical' (anything else raises
    ParamError).  The norm and constraint residuals are those of g itself.
    The symmetry residual is symmetry_gap of g rasterized on a grid of side
    grid_resolution (0 up to interpolation error, since g is already
    Wulff-symmetric by construction).  The margin is the largest
    functional increase over 200 seeded random perturbations of the knot
    decrements of g, each by a relative size 1e-3 and so monotone by
    construction, all scored by evaluate_rows on the accurate quadrature
    rule, the rule of atmsc_value and critical_value, without the gradient;
    the lean rule of the search's ascent plays no part.
    """
    obj = RadialObjective(params, F, g.knots, objective)
    gn = grad_norm_radial(g, F)
    qn = lq_norm_radial(g, params.q, F)
    value = (atmsc_value if objective == "subcritical" else critical_value)(g, params, F)

    pol = F.polar()
    a_pol = pol.direction_bounds()[0]
    halfwidth = 1.1 * g.support_radius / a_pol
    sym = symmetry_gap(rasterize_profile(g, F, halfwidth, grid_resolution), F)

    w0 = -np.diff(g.values)
    rng = np.random.default_rng(0)
    trials = w0 * (1.0 + 1e-3 * rng.standard_normal((200, w0.size)))
    best = float(evaluate_rows([obj] * len(trials), trials, grad=False)[0].max())
    margin = max(0.0, best - value)
    return MaximizerReport(
        profile=g, value=float(value),
        grad_norm_residual=abs(gn - 1.0), q_norm_residual=abs(qn - 1.0),
        constraint_residual=abs(constraint_value(gn, qn, params.a, params.b) - 1.0),
        symmetry_residual=sym, local_optimality_margin=float(margin))
