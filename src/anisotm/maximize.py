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
of functional.RadialObjective in the nonnegative decrements of knot values
on a geometric grid.  The ascent is scipy's compiled L-BFGS-B kernel,
driven directly by reverse communication, and bitwise what
scipy.optimize.minimize gives.  The best final iterate is renormalized,
carried to F and re-evaluated there, so each reported value is realized by
a stored profile: an honest lower bound for the true supremum.

The sup identity writes the critical value at lam as

    sup_{t in (0, lam)} bracket(t) * f(t),

with f(t) the subcritical value at rate t and bracket the explicit
algebraic factor; identity_sweep samples t, estimate_f supplies f, and the
scaling construction turns the sweep argmax into a critical candidate.
"""

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import isotonic_regression
from scipy.optimize._lbfgsb import setulb
from scipy.optimize._lbfgsb_py import status_messages, task_messages

from .finsler import FinslerNorm, wulff_volume
from .functional import (EXP_POWER, ParamError, RadialObjective, atmsc_value,
                         critical_value, lq_norm_radial, grad_norm_radial,
                         aa_bracket, series_start, series_threshold,
                         validate_lambda)
from .profiles import RadialProfile
from .rearrange import rasterize_profile, convex_symmetrization

# L-BFGS-B settings of every ascent: minimize's maxcor, maxls and maxiter
# defaults, and factr, pgtol from ftol 1e-16, gtol 1e-14 as minimize sets them
_MAXCOR, _MAXLS, _MAXITER = 10, 20, 15000
_FACTR, _PGTOL = 1e-16 / np.finfo(float).eps, 1e-14
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
        for name, least in (("knots", 2), ("restarts", 1), ("budget", 1)):
            if getattr(self, name) < least:
                raise ParamError(f"search.{name} must be at least {least}, "
                                 f"got {getattr(self, name)}")
        for name in ("radius", "radius_critical"):
            r = getattr(self, name)
            if r is not None and not (np.isfinite(r) and r > 0.0):
                raise ParamError(f"search.{name} must be positive and finite, got {r}")


@dataclass
class SearchResult:
    """Outcome of one subcritical or critical search: the best value, the
    witness profile that realizes it, and per restart the value it reached,
    its value-and-gradient evaluations and L-BFGS-B's stop message."""

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
    f_spreads: np.ndarray


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
    th = np.maximum.accumulate(theta[::-1])[::-1]
    return np.append(-np.diff(th), th[-1])


def _decrements_to_theta(w):
    return np.cumsum(w[::-1])[::-1]


def _ascend(obj, theta, maxfev):
    """Bounded L-BFGS-B ascent in decrement variables from ``theta``.

    Writing the knot values through their nonnegative decrements turns the
    monotone cone into a box, so every candidate is nonincreasing and the
    landscape stays smooth; the gradient in the decrements is the running
    sum of the analytic gradient in the knot values.

    The loop drives scipy's compiled kernel ``setulb`` by reverse
    communication as scipy.optimize.minimize(method='L-BFGS-B') does, with
    maxcor 10, maxls 20, maxiter 15000, ftol 1e-16, gtol 1e-14 and maxfun
    ``maxfev``, so x, evaluation count and stop message are bitwise what
    minimize returns.  The value is that of the final x, the last accepted
    iterate (x0 or the last NEW_X): after an abnormal line search minimize
    reports that of the last trial point instead.  Returns (theta, value,
    evaluations, stop message).
    """
    x = np.clip(_theta_to_decrements(theta), 0.0, np.inf)
    size = x.size

    def neg(w):
        value, grad = obj.value_and_grad(_decrements_to_theta(w))
        return -value, -np.cumsum(grad)

    last = x.copy()
    f, g = neg(last)
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
            if not np.array_equal(x, last):
                last = x.copy()
                f, g = neg(last)
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
    return _decrements_to_theta(np.maximum(x, 0.0)), -float(accepted), nfev, stop


def _search(params, F, config, mode):
    """Deterministic multistart for ``mode`` ('subcritical' or 'critical')
    on the Euclidean problem (module docstring): canonical initializers
    first, then seeded perturbations, each one L-BFGS-B ascent; the best, by
    (value, lowest index), is built, mapped to F and re-evaluated there.
    The critical knots reach ``radius_critical`` (default 2 * radius).  For
    a Euclidean F every factor is exactly 1.0."""
    config = config or SearchConfig()
    validate_lambda(params, F)
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
    obj = RadialObjective(params.with_lam(params.lam * k ** (-1.0 / (n - 1.0))),
                          euclid, knots, mode)
    inits = _initializers(knots)

    results = []
    for idx in range(config.restarts):
        base = np.asarray(inits[idx % len(inits)], dtype=float)
        if idx >= len(inits):
            rng = np.random.default_rng((config.seed, idx))
            base = np.maximum(base * (1.0 + 0.3 * rng.standard_normal(base.size)), 0.0)
        results.append(_ascend(obj, base, config.budget))

    vals = np.array([r[1] for r in results])
    order = np.argsort(-vals, kind="stable")
    best = obj.witness(results[order[0]][0])
    if best is None:
        raise ParamError("search produced no feasible candidate; the configured "
                         "radius/knot grid admits no usable profile")
    profile = best.scaled(value_factor=k ** (-1.0 / n), radius_factor=rho)
    value = (atmsc_value if mode == "subcritical" else critical_value)(profile, params, F)
    top = vals[order[:3]] * scale
    return SearchResult(value=float(value), profile=profile,
                        restart_values=tuple(float(v) * scale for v in vals),
                        spread=float(top[0] - top[-1]),
                        restart_evals=tuple(r[2] for r in results),
                        restart_stops=tuple(r[3] for r in results))


def estimate_f(params, F, config=None):
    """SearchResult of the best subcritical value over normalized profiles."""
    return _search(params, F, config, "subcritical")


def direct_critical_max(params, F, config=None):
    """SearchResult of the best critical value on the constraint sphere."""
    return _search(params, F, config, "critical")


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
    k1 = max(grid_size // 2, 4)
    k2 = max(grid_size - k1, 4)
    s_low = np.geomspace(lo, 0.5, k1)
    s_high = 1.0 - np.geomspace(0.5, hi, k2 + 1)[1:]
    return lam * np.unique(np.concatenate([s_low, s_high]))


def identity_sweep(params, F, grid_size=24, config=None):
    """Sample bracket(t) * f(t) over t in (0, lam); each f is a standalone
    estimate_f at its t, with a quarter of the restarts (at least 2)."""
    if grid_size < 8:
        raise ParamError("sweep grid needs at least 8 points")
    config = config or SearchConfig()
    validate_lambda(params, F)
    ts = _sweep_ts(params, grid_size)
    point_config = replace(config, restarts=max(2, config.restarts // 4))
    ests = [estimate_f(params.with_lam(float(t)), F, point_config) for t in ts]
    fs = np.array([est.value for est in ests])
    spreads = np.array([est.spread for est in ests])
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
                       endpoint_diagnostics=diag, profiles=profiles,
                       f_spreads=spreads)


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
        # a product of k ratios: never above e^lam, underflows to 0 rather
        # than overflow where lam^k or k! leaves the floating-point range
        return ThresholdResult(math.prod(params.lam / i for i in range(1, int(m) + 1)), True)
    return ThresholdResult(float("nan"), False)


# rows per RadialObjective.values call in maximizer_diagnostics; at 64 knots
# blocks of 16 or 24 rows ran fastest, 32 rows 1.7 times slower
_MARGIN_BLOCK = 16


def maximizer_diagnostics(g, params, F, grid_resolution=256, objective="subcritical"):
    """Value, residuals and local-optimality margin of a claimed maximizer.

    ``objective`` is 'subcritical' or 'critical' (anything else raises
    ParamError).  The norm and constraint residuals are those of g itself.
    The symmetry residual rasterizes g, symmetrizes the grid function, and
    measures the relative L1 gap (0 up to interpolation error, since g is
    already Wulff-symmetric by construction).  The margin is the largest
    functional increase over 200 seeded random monotonicity-preserving
    renormalized perturbations of relative size 1e-3, scored in row blocks
    by RadialObjective.values, the objective's own forward pass without its
    gradient.
    """
    obj = RadialObjective(params, F, g.knots, objective)
    gn = grad_norm_radial(g, F)
    qn = lq_norm_radial(g, params.q, F)
    value = (atmsc_value if objective == "subcritical" else critical_value)(g, params, F)

    pol = F.polar()
    a_pol = pol.direction_bounds()[0]
    halfwidth = 1.1 * g.support_radius / a_pol
    grid = rasterize_profile(g, F, halfwidth, grid_resolution)
    gstar = convex_symmetrization(grid, F)
    l1 = float(np.sum(grid.values))
    sym = float(np.sum(np.abs(grid.values - gstar.values)) / max(l1, 1e-300))

    theta0 = g.values[:-1]
    rng = np.random.default_rng(0)
    trials = np.array([isotonic_nonincreasing(theta) for theta in
                       theta0 * (1.0 + 1e-3 * rng.standard_normal((200, theta0.size)))])
    best = max(np.max(obj.values(trials[i:i + _MARGIN_BLOCK]))
               for i in range(0, len(trials), _MARGIN_BLOCK))
    margin = max(0.0, best - value)
    return MaximizerReport(
        profile=g, value=float(value),
        grad_norm_residual=abs(gn - 1.0), q_norm_residual=abs(qn - 1.0),
        constraint_residual=abs(gn ** params.a + qn ** params.b - 1.0),
        symmetry_residual=sym, local_optimality_margin=float(margin))
