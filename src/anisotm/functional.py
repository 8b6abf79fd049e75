"""Anisotropic Trudinger-Moser functionals on radial profiles.

For a nonincreasing profile g, the Wulff-symmetric function u(x) = g(F0(-x))
(g(F0(x)) for an even gauge; rearrange explains the reflection) has closed
radial reductions: with kappa the unit Wulff-ball volume,

    ||u||_q^q                = n kappa int_0^R g^q r^{n-1} dr,
    ||F(grad u)||_n^n        = n kappa int_0^R |g'|^n r^{n-1} dr,
    int K(u) F0(-x)^{-b} dx  = n kappa int_0^R K(g) r^{n-1-b} dr.

The subcritical functional integrates exp(lam(1-b/n) g^{n/(n-1)}) g^p (the
exp-power variant) or the truncated exponential series Phi (the phi-series
variant); the critical functional always uses the Phi form.  Normalization
maps rescale profiles so both norms are 1 (unit-sphere form) or onto the
constraint sphere ||F grad u||^a + ||u||_q^b = 1.  RadialObjective gives
the normalized functionals on one knot grid, with their gradients for the
profile search or without them; by default it shares its quadrature rule
with the functions above, and the search's ascent runs it on a lean one.
"""

import math
import numbers
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
from scipy.optimize import brentq
from scipy.special import gammainc

from .finsler import wulff_volume, sharp_constant
from .profiles import RadialProfile

EXP_POWER = "exp_power"
PHI_SERIES = "phi_series"

_EXP_ARG_MAX = 690.0     # exp(690) ~ 1e299; beyond this the integrand overflows
_SPHERE_RESIDUAL_MAX = 1e-9   # a critical witness further off the constraint sphere is rejected
# rows x nodes of one evaluate_rows pass (2-vCPU Xeon VM: 200 rows of 2,432 nodes
# took 8.4 ms one at a time, 5.1 ms in blocks of 8, 13.5 ms in one pass)
_BLOCK_NODES = 20000


class ParamError(ValueError):
    """Parameter combination outside the admissible regime."""


def _count(value, name, least):
    """value as an int; ParamError unless it is an integer, of any type but
    bool, >= least."""
    if not isinstance(value, bool) and (
            isinstance(value, numbers.Integral) or isinstance(value, numbers.Real)
            and float(value).is_integer()) and value >= least:
        return int(value)
    raise ParamError(f"{name} must be at least {least} and an integer, got {value}")


def _real(value, name):
    """ParamError unless value is a real number, of any type but bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ParamError(f"{name} must be a real number, got {value!r}")


class FunctionalOverflowError(OverflowError):
    """Integrand exceeded the floating-point range.

    Carries the offending location so callers can see where a Moser-type
    profile blew up.
    """

    def __init__(self, message, radius=None, knot_index=None, argument=None):
        super().__init__(message)
        self.radius = radius
        self.knot_index = knot_index
        self.argument = argument


@dataclass(frozen=True)
class FunctionalParams:
    """Regime parameters: dimension n, norm exponent q, weight power beta,
    exponential rate lam, constraint exponents a and b, power p for the
    exp-power variant."""

    n: int
    q: float
    beta: float
    lam: float
    a: float = 1.0
    b: float = 1.0
    p: float = None
    variant: str = PHI_SERIES

    def __post_init__(self):
        object.__setattr__(self, "n", _count(self.n, "n", 2))
        for name in ("q", "beta", "lam", "a", "b") + (() if self.p is None else ("p",)):
            _real(getattr(self, name), name)
        if not (math.isfinite(self.q) and self.q > 1.0):
            raise ParamError(f"q must exceed 1 and be finite, got {self.q}")
        if not (0.0 <= self.beta < self.n):
            raise ParamError(f"beta must lie in [0, n), got {self.beta}")
        if not (math.isfinite(self.lam) and self.lam > 0.0):
            raise ParamError(f"lam must be positive and finite, got {self.lam}")
        if not all(math.isfinite(e) and e > 0.0 for e in (self.a, self.b)):
            raise ParamError(f"constraint exponents a, b must be positive and "
                             f"finite, got {self.a}, {self.b}")
        if self.p is not None and not math.isfinite(self.p):
            raise ParamError(f"p must be finite, got {self.p}")
        if self.variant not in (EXP_POWER, PHI_SERIES):
            raise ParamError(f"variant must be {EXP_POWER!r} or {PHI_SERIES!r}")
        if self.variant == EXP_POWER:
            if self.p is None:
                raise ParamError("exp-power variant needs the power p")
            floor = self.q * (1.0 - self.beta / self.n)
            if self.beta > 0.0 and not self.p > floor:
                raise ParamError(
                    f"exp-power with beta > 0 needs p > q(1-beta/n) = {floor}, got {self.p}")
            if self.beta == 0.0 and not self.p >= self.q:
                raise ParamError(f"exp-power with beta = 0 needs p >= q, got {self.p}")

    def with_lam(self, lam):
        return replace(self, lam=lam)


def _check_dimension(params, F):
    """ParamError unless the regime and the gauge share their dimension."""
    if params.n != F.dim:
        raise ParamError(f"params dimension {params.n} != gauge dimension {F.dim}")


def validate_lambda(params, F):
    """Check lam < sharp constant of F (the admissible exponential range)."""
    lam_max = sharp_constant(F)
    if not params.lam < lam_max:
        raise ParamError(
            f"lam = {params.lam} is not below the sharp exponential constant "
            f"{lam_max} of this gauge; the supremum is only finite below it")
    _check_dimension(params, F)


def series_threshold(params):
    """m = q(n-1)/n (1-beta/n), which sets the series start index; within
    1e-9 of an integer it is that integer, so the index and the
    integrality of m follow the intended real number, not float noise."""
    m = params.q * (params.n - 1.0) / params.n * (1.0 - params.beta / params.n)
    return float(round(m)) if abs(m - round(m)) < 1e-9 else m


def series_start(params):
    """Smallest admissible series index j for the Phi kernel: the smallest
    integer strictly above series_threshold(params) when beta > 0, the
    smallest integer at or above it when beta = 0."""
    m = series_threshold(params)
    return math.floor(m) + 1 if params.beta > 0.0 else math.ceil(m)


def _phi_stable(t, j_start):
    """Tail of the exponential series, sum_{j >= j_start} t^j/j!.

    The tail is e^t P(j_start, t), with P the regularized lower incomplete
    gamma function (DLMF 8.4), which scipy evaluates to near machine
    precision in relative terms; for j_start = 1 it is e^t - 1, expm1.
    """
    t = np.asarray(t, dtype=float)
    out = np.expm1(t) if j_start == 1 else np.exp(t) * gammainc(j_start, t)
    return out if out.ndim else float(out)


def _check_exp_argument(arg):
    """Raise FunctionalOverflowError when exp(arg), an array, leaves the
    float range."""
    amax = float(arg.max()) if arg.size else 0.0
    if amax > _EXP_ARG_MAX:
        raise FunctionalOverflowError(
            f"exponential argument {amax:.6g} exceeds the floating-point range",
            argument=amax)


def phi(params, t):
    """Truncated exponential series sum_{j >= j_start} t^j / j! at t >= 0;
    FunctionalOverflowError beyond the floating-point range."""
    t = np.asarray(t, dtype=float)
    _check_exp_argument(t)
    if (t < 0.0).any():
        raise ParamError("series argument must be nonnegative")
    return _phi_stable(t, series_start(params))


# -- radial quadrature -------------------------------------------------------

ACCURATE, LEAN = "accurate", "lean"
# per rule: Gauss-Legendre nodes and weights of one panel, panels per knot interval
_RULES = {ACCURATE: (*np.polynomial.legendre.leggauss(8), 4),
          LEAN: (*np.polynomial.legendre.leggauss(4), 1)}
_QUAD_GEOM = 24


def _check_grid(knots, n):
    """ParamError unless the knots are a 1-d array of at least 2 finite
    values that start at 0 and strictly increase, and radius^n and (smallest
    spacing)^-n of the grid, the scales of its energy weights and of its
    slopes, are finite."""
    if knots.ndim != 1 or knots.size < 2:
        raise ParamError(f"knots must be a 1-d array of at least 2 values, "
                         f"got shape {knots.shape}")
    spacing = (knots[1:] - knots[:-1]).min()        # nan for a nan knot
    if not (knots[0] == 0.0 and spacing > 0.0 and knots[-1] < np.inf):
        cause = ("be finite" if not np.isfinite(knots).all()
                 else "start at 0 and strictly increase")
        raise ParamError(f"knots must {cause}")
    with np.errstate(over="ignore", divide="ignore"):
        finite = math.isfinite(knots[-1] ** n) and math.isfinite(spacing ** -n)
    if not finite:
        raise ParamError(f"the knot grid of radius {knots[-1]:g} puts radius^n or "
                         f"(smallest spacing)^-n outside the floating-point range")


def _radial_rule(knots, n, beta, rule=ACCURATE):
    """Flat nodes r and weights W_q, W_e with sum W_q f(r) ~ int_0^R f(r)
    r^{n-1} dr and sum W_e f(r) ~ int_0^R f(r) r^{n-1-beta} dr.

    Composite Gauss-Legendre on panels: each knot interval splits into equal
    panels (ACCURATE: 8 points on each of 4; LEAN: 4 points on one), and the
    first and last panels are further refined geometrically by 24 panels,
    which absorbs fractional-power behavior there (the singular radial weight
    at the origin, powers of the vanishing profile at the support radius);
    profiles with few knots, like a bare cone, would otherwise under-resolve
    these.  For beta > n-1 the weight exponent is negative; the substitution
    r = rho^{1/(n-beta)} makes the weight of W_e constant, and W_q then
    carries r^beta.  Either way the rule is built from ``knots`` by maps
    homogeneous in the knots, so scaling the knots by s scales the nodes by
    s and the two integrals by s^n and s^{n-beta}.  A grid that fails
    _check_grid raises ParamError.
    """
    _check_grid(knots, n)
    nodes, weights, split = _RULES[rule]
    ex = n - beta if beta > n - 1.0 else 1.0
    t = knots ** ex
    pts = np.append((t[:-1, None] + np.diff(t)[:, None]
                     * (np.arange(split) / split)).ravel(), t[-1])
    geo = 2.0 ** -np.arange(_QUAD_GEOM, 0, -1)
    a, b, y, z = pts[0], pts[1], pts[-2], pts[-1]
    pts = np.concatenate([[a], a + (b - a) * geo, pts[1:-1], z - (z - y) * geo[::-1], [z]])
    half, mid = 0.5 * np.diff(pts), 0.5 * (pts[1:] + pts[:-1])
    r = (mid[:, None] + half[:, None] * nodes).ravel()
    w = (half[:, None] * weights).ravel()
    if beta > n - 1.0:
        r = r ** (1.0 / ex)
        return r, w / ex * r ** beta, w / ex
    return r, w * r ** (n - 1.0), w * r ** (n - 1.0 - beta)


@lru_cache(maxsize=8)
def _grid_operators(grid, n, beta, rule):
    """The lam-independent operators of a RadialObjective on the knot grid
    whose float64 bytes are ``grid``: the spacings h, the differences of
    knots^n, the weights W_q and W_e of _radial_rule at ``rule``, and for its
    nodes r, in increasing order, the knot interval idx, the position frac =
    (r - knots[idx])/h[idx] in [0, 1], and the first node of each interval
    (ParamError for an interval too narrow to hold one).  Built once per
    (grid, n, beta, rule) and shared, read-only, by every objective on that
    grid and rule, such as the sweep's points; the cache holds the LEAN and
    ACCURATE sets (ascent and report) of the last 4 grids.
    """
    knots = np.frombuffer(grid)
    r, wq, we = _radial_rule(knots, n, beta, rule)
    h = np.diff(knots)
    idx = np.clip(np.searchsorted(knots, r, side="right") - 1, 0, knots.size - 2)
    frac = np.minimum((r - knots[idx]) / h[idx], 1.0)   # 1 where r rounds past the last knot
    starts = np.searchsorted(idx, np.arange(h.size))
    if not np.all(np.diff(starts, append=r.size) > 0):
        raise ParamError("a knot interval is too narrow to hold a quadrature node")
    ops = h, np.diff(knots ** n), wq, we, idx, frac, starts
    for arr in ops:
        arr.flags.writeable = False
    return ops


def lq_norm_radial(g, q, F):
    """(n kappa int_0^R g^q r^{n-1} dr)^{1/q} for u(x) = g(F0(-x))."""
    if not q >= 1.0:
        raise ParamError(f"q must be >= 1, got {q}")
    n = F.dim
    r, w, _ = _radial_rule(g.knots, n, 0.0)
    gv = np.interp(r, g.knots, g.values)
    val = float(np.sum(w * gv ** q))
    return (n * wulff_volume(F) * val) ** (1.0 / q)


def dirichlet_energy_radial(g, F):
    """n kappa int_0^R |g'|^n r^{n-1} dr, exact for piecewise-linear g.

    Per interval the slope is constant, so the integral is
    |s_k|^n (r_{k+1}^n - r_k^n)/n in closed form.  A grid that fails
    _check_grid raises ParamError.
    """
    n = F.dim
    _check_grid(g.knots, n)
    slopes = np.diff(g.values) / np.diff(g.knots)
    rn = g.knots ** n
    return float(wulff_volume(F) * np.sum(np.abs(slopes) ** n * np.diff(rn)))


def grad_norm_radial(g, F):
    """||F(grad u)||_n = (dirichlet energy)^{1/n}."""
    return dirichlet_energy_radial(g, F) ** (1.0 / F.dim)


def _kernel(u, params, j_start=None, slope=False, lam=None):
    """Exponential integrand K of params.variant at the values u >= 0 (an
    array of any shape; no spatial weight), and with ``slope`` the pair
    (K, K'), K' its derivative in u.  ``lam``, when given, stands for
    params.lam: a column of rates gives each row of u its own.

    With the argument A = lam(1-beta/n) u^{n/(n-1)}, K is exp(A) u^p
    (exp-power) or the truncated series Phi_j(A) (phi-series; the critical
    functional passes params with that variant), and K' follows from
    Phi_j' = Phi_{j-1} (Phi_0 = Phi_1 + 1) or the product rule.  Where u =
    0 and the exp-power factor u^{p-1} is infinite (p < 1), the one-sided
    derivative is taken as 0.  ``j_start``, when given, is
    series_start(params), already computed.  Raises FunctionalOverflowError
    on overflow.
    """
    n = params.n
    u = np.asarray(u, float)
    rate = (params.lam if lam is None else lam) * (1.0 - params.beta / n)
    arg = rate * u ** (n / (n - 1.0))
    _check_exp_argument(arg)
    if params.variant == EXP_POWER:
        ex, up = np.exp(arg), u ** params.p
        kern = ex * up
    else:
        if j_start is None:
            j_start = series_start(params)
        kern = _phi_stable(arg, j_start)
    if not slope:
        return kern
    darg = rate * n / (n - 1.0) * u ** (1.0 / (n - 1.0))
    if params.variant == EXP_POWER:
        with np.errstate(divide="ignore"):
            dup = params.p * u ** (params.p - 1.0)
        dup[np.isinf(dup)] = 0.0
        return kern, ex * (darg * up + dup)
    below = kern + 1.0 if j_start == 1 else _phi_stable(arg, j_start - 1)
    return kern, below * darg


def _radial_exp_integral(g, params, F):
    """n kappa int_0^R kernel(g) r^{n-1-beta} dr with the singular weight."""
    _check_dimension(params, F)
    r, _, w = _radial_rule(g.knots, params.n, params.beta)
    gv = np.interp(r, g.knots, g.values)
    try:
        kern = _kernel(gv, params)
    except FunctionalOverflowError as err:
        r_bad = float(r[int(np.argmax(gv))])
        k = max(int(np.searchsorted(g.knots, r_bad, side="right")) - 1, 0)
        raise FunctionalOverflowError(
            f"integrand overflow on knot interval {k} "
            f"(r near {r_bad:.6g}): {err}",
            radius=r_bad, knot_index=k, argument=err.argument) from None
    val = float(np.sum(w * kern))
    if not np.isfinite(val):
        raise FunctionalOverflowError("non-finite integral value")
    return params.n * wulff_volume(F) * val


def atmsc_value(g, params, F):
    """Subcritical functional of the profile g (raw integral, no norms)."""
    return _radial_exp_integral(g, params, F)


def critical_value(g, params, F):
    """Critical-functional integrand: always the Phi-series form."""
    return _radial_exp_integral(g, replace(params, variant=PHI_SERIES), F)


# -- normalization maps ------------------------------------------------------

def _sphere_radius_factor(e, qn, q, n):
    """Radius factor t = (qn / e)^{q/n} of the unit-sphere map for a profile
    with gradient norm e and q-norm qn; ParamError where the map
    degenerates: e <= 1e-14, qn <= 1e-300, or t not a positive float."""
    if e <= 1e-14 or qn <= 1e-300:
        raise ParamError(f"cannot normalize a profile with gradient norm {e:.3g} "
                         f"and q-norm {qn:.3g}")
    t = (qn / e) ** (q / n)
    if not (math.isfinite(t) and t > 0.0):
        raise ParamError(f"the radius factor (||g||_q / e)^(q/n) = {t} leaves "
                         f"the floating-point range")
    return t


def normalize_sphere(g, q, F):
    """Rescale to the unit sphere of both norms.

    v(r) = g(t r)/e with e = ||F grad g||_n and t = (||g||_q / e)^{q/n}
    gives ||F grad v||_n = ||v||_q = 1; the ratio atmsc_value(g) /
    ||g||_q^{q(1-beta/n)} does not decrease under this map.
    """
    e = grad_norm_radial(g, F)
    t = _sphere_radius_factor(e, lq_norm_radial(g, q, F), q, F.dim)
    return g.scaled(value_factor=1.0 / e, radius_factor=1.0 / t)


@dataclass(frozen=True)
class ConstraintScaled:
    """Result of projecting a profile onto the constraint sphere."""

    c: float
    scaled: RadialProfile
    feasible: bool          # original constraint value was <= 1 (so c >= 1)
    residual: float         # |constraint(scaled) - 1|, re-evaluated


def constraint_value(X, Y, a, b):
    """X^a + Y^b, the constraint at norms X, Y; inf beyond the float range."""
    with np.errstate(over="ignore"):
        return float(np.float64(X) ** a + np.float64(Y) ** b)


def _constraint_root(X, Y, a, b):
    """The c > 0 with (c X)^a + (c Y)^b = 1, for X, Y >= 0 not both 0.

    For a = b the root is c = (X^a + Y^a)^{-1/a}, evaluated with the larger
    of X, Y factored out so that the powers cannot overflow.  Otherwise the
    left side increases strictly in c.  At c_hi = min(1/X, 1/Y) one term is
    1 (or an ulp below: c_hi is then the root to rounding), at c_lo = c_hi
    4^{-1/min(a, b)} each is at most 1/4 (c_lo = c_hi once min(a, b) passes
    1e16), and brentq searches between them, where no term exceeds 1.
    """
    if a == b:
        top = max(X, Y)
        return 1.0 / (top * ((X / top) ** a + (Y / top) ** a) ** (1.0 / a))
    hi = min(1.0 / X if X else math.inf, 1.0 / Y if Y else math.inf)
    lo = hi * 0.25 ** (1.0 / min(a, b))

    def excess(c):
        return (c * X) ** a + (c * Y) ** b - 1.0

    if lo == hi or excess(hi) <= 0.0:
        return hi
    return brentq(excess, lo, hi, xtol=1e-300)     # relative: rtol 4 eps


def constraint_scale(g, a, b, F, q):
    """Scale c g onto {||F grad u||_n^a + ||u||_q^b = 1}.

    When the constraint value of g already exceeds 1 the root has c < 1 and
    the result is flagged infeasible for ascent purposes.
    """
    X = grad_norm_radial(g, F)
    Y = lq_norm_radial(g, q, F)
    S = constraint_value(X, Y, a, b)
    if S <= 0.0:
        raise ParamError("zero profile cannot be scaled onto the constraint sphere")
    c = _constraint_root(X, Y, a, b)
    scaled = g.scaled(value_factor=c)
    res = abs(constraint_value(grad_norm_radial(scaled, F),
                               lq_norm_radial(scaled, q, F), a, b) - 1.0)
    return ConstraintScaled(c=c, scaled=scaled, feasible=S <= 1.0 + 1e-12,
                            residual=res)


def _knot_values(w):
    """Knot values theta_k = sum_{j >= k} w_j, k < K, of the decrements w
    (along the last axis); ParamError for a degenerate candidate: top value
    theta_0 at most 1e-12."""
    theta = w[..., ::-1].cumsum(axis=-1)[..., ::-1]
    if not all((theta[..., 0] > 1e-12).flat):
        raise ParamError(f"degenerate candidate: top value {np.min(theta[..., 0]):.3g}")
    return theta


def _per_row(f, *args):
    """The array of f over the rows of the arrays args, each row's arguments
    numpy scalars."""
    return np.fromiter(map(f, *args), float, len(args[0]))


class RadialObjective:
    """Search objective in the knot decrements of one grid, with its gradient.

    The K decrements w >= 0 stand for the nonincreasing profile g with value
    theta_k = sum_{j >= k} w_j at knots[k], k < K, and 0 at the last knot,
    so its slopes are -w/h.  Mode 'subcritical' gives atmsc_value of
    normalize_sphere(g); mode 'critical' gives critical_value of the
    constraint_scale projection of g.  Both maps only rescale g, and the
    radial rule is homogeneous in the knots, so its nodes, both weight
    vectors and the interpolation indices of the nodes are built once, on
    ``knots``, and shared by every objective on that grid (_grid_operators):
    shrinking the radius by 1/t multiplies the subcritical integral by
    t^{beta-n}, and the constraint projection keeps the knots.
    One pass, _evaluate, scores only stacks of candidates, one per row: the
    energy, the q-norm and the kernel input, all from the profile
    theta[idx] - frac w[idx] at one node set, and with the gradient the
    chain rule through each of them.  evaluate_rows stacks the candidates
    of objectives that differ only in lam; value and value_and_grad are its
    one-row case.  Degenerate or overflowing candidates have value -inf.

    ``rule`` names the quadrature rule of _radial_rule.  The default,
    ACCURATE, is the rule of lq_norm_radial, atmsc_value and
    critical_value.  Only the search's ascent runs on LEAN (448 nodes at 64
    knots, not 2,432): the rule's error moves the value at the optimum only
    at second order, and the search reports on ACCURATE.
    """

    def __init__(self, params, F, knots, mode, rule=ACCURATE):
        if mode not in ("subcritical", "critical"):
            raise ParamError(f"unknown objective {mode!r}")
        _check_dimension(params, F)
        if mode == "critical":          # Phi for either variant
            params = replace(params, variant=PHI_SERIES)
        self.params, self.F, self.mode, self.rule = params, F, mode, rule
        self.knots = np.asarray(knots, dtype=float)
        _check_grid(self.knots, params.n)   # the operator cache sees flat bytes
        n, kappa = params.n, wulff_volume(F)
        self._nkappa = n * kappa
        (self._h, dkn, self._wq, self._we, self._idx, self._frac,
         self._starts) = _grid_operators(self.knots.tobytes(), n, params.beta, rule)
        self._energy_w = kappa * dkn
        self._dq_w = self._nkappa * params.q * self._wq     # dQ/du over u^{q-1}
        self._j_start = series_start(params)
        # all the pass reads but the rate, which evaluate_rows stacks per row
        self._family = (mode, rule, self._nkappa, self.knots.tobytes(),
                        *(getattr(params, f) for f in ("n", "q", "beta", "a", "b", "p", "variant")))

    def value(self, w):
        """Objective value at the decrements w, without any gradient work:
        bit for bit the value value_and_grad gives; -inf for a degenerate
        or overflowing candidate."""
        return float(evaluate_rows([self], [w], grad=False)[0][0])

    def value_and_grad(self, w):
        """Objective value at the decrements w and its gradient in w;
        (-inf, 0) for a degenerate or overflowing candidate."""
        values, grads = evaluate_rows([self], [w])
        return float(values[0]), grads[0]

    def _evaluate(self, w, grad, lam):
        """The pair (values, gradients in w) of the C-contiguous stack w of
        decrements, one candidate per row, the gradients None without
        ``grad``; ``lam``, a column, gives each row its rate in place of
        params.lam (evaluate_rows).

        The pass forms the slope magnitudes s = w/h, the profile's energy E
        = X^n, its values u at the nodes and its q-norm integral Q = Y^q;
        then the kernel input z (u/X for 'subcritical', c u with the
        constraint root c for 'critical') and the factor scale in value =
        scale * (weights @ K(z)).  Every rejection (a degenerate candidate
        or normalization, an overflowing kernel, a non-finite value or
        gradient) raises inside the pass; a stack that raises is scored
        again as one-row stacks, and a row that raises alone gets -inf and
        gradient 0, in one place.  Each row is bitwise the pass of its row
        alone: the reductions are np.vecdot over C-contiguous rows, and the
        scalar maps (the powers of E, Q and c X, the radius factor, the
        constraint root) run per row on numpy scalars (_per_row), since the
        array power can differ from the scalar one in the last bit.
        """
        p = self.params
        n, q = p.n, p.q
        try:
            theta = _knot_values(w)
            s = w / self._h
            # never below 0: frac <= 1, and theta_k >= w_k also in floating point
            u = theta.take(self._idx, axis=1) - self._frac * w.take(self._idx, axis=1)
            E = np.vecdot(s ** n, self._energy_w)
            Q = self._nkappa * np.vecdot(u ** q, self._wq)
            X = _per_row(lambda e: e ** (1.0 / n), E)
            Y = _per_row(lambda e: e ** (1.0 / q), Q)
            if self.mode == "critical":     # u -> c u with (c X)^a + (c Y)^b = 1
                c = _per_row(lambda x, y: _constraint_root(x, y, p.a, p.b), X, Y)
                z, scale = c[:, None] * u, self._nkappa
            else:       # u -> g(t r)/X, as normalize_sphere maps it
                scale = _per_row(lambda x, y: self._nkappa
                                 * _sphere_radius_factor(x, y, q, n) ** (p.beta - n), X, Y)
                z = u / X[:, None]
            kern = _kernel(z, p, self._j_start, slope=grad, lam=lam)
            kern, dkern = kern if grad else (kern, None)
            value = scale * np.vecdot(kern, self._we)
            if not np.isfinite(value).all():
                raise FunctionalOverflowError(f"objective value {value}")
            if not grad:
                return value, None
            dE = n * s ** (n - 1) * self._energy_w / self._h
            # the q-norm term joins the kernel's node vector, so one pull-back
            # to the decrements serves both
            dq = self._dq_w * u ** (q - 1.0)
            if self.mode == "subcritical":  # scale ~ t^{beta-n}, n log t = log Q - (q/n) log E
                d_u = scale[:, None] * self._we * dkern / X[:, None]
                k = (n - p.beta) * value / n
                nodes, e_coef = d_u - (k / Q)[:, None] * dq, (k * q / n - np.vecdot(d_u, u) / n) / E
            else:                           # (c X)^a + (c Y)^b = 1 gives d log c
                A = _per_row(lambda c, x: p.a * (c * x) ** p.a, c, X)
                B = _per_row(lambda c, y: p.b * (c * y) ** p.b, c, Y)
                d_u = (c * self._nkappa)[:, None] * self._we * dkern
                k = np.vecdot(d_u, u) / (A + B)
                nodes, e_coef = d_u - (k * B / (q * Q))[:, None] * dq, -k * A / (n * E)
            dw = self._pull_back(nodes) + e_coef[:, None] * dE
            if not np.isfinite(dw).all():
                raise FunctionalOverflowError("non-finite objective gradient")
            return value, dw
        except (ParamError, FunctionalOverflowError):
            if len(w) == 1:
                return np.array([-np.inf]), np.zeros_like(w) if grad else None
            return self._blocks(w, grad, lam, 1)

    def _blocks(self, w, grad, lam, rows):
        """_evaluate of the stack w in blocks of ``rows`` rows, joined."""
        if len(w) <= rows:
            return self._evaluate(w, grad, lam)
        values, grads = zip(*(self._evaluate(w[i:i + rows], grad, lam[i:i + rows])
                              for i in range(0, len(w), rows)))
        return np.concatenate(values), np.concatenate(grads) if grad else None

    def _pull_back(self, nodes):
        """The transpose of w -> theta[idx] - frac w[idx] at ``nodes`` (along
        the last axis), by segment sums over the knot intervals: theta_k sums
        w_j over j >= k."""
        at = self._starts
        return (np.add.reduceat(nodes, at, axis=-1).cumsum(axis=-1)
                - np.add.reduceat(self._frac * nodes, at, axis=-1))

    def witness(self, w):
        """The profile the decrements w stand for, through the library
        maps: their normalize_sphere or constraint_scale image; None for a
        degenerate candidate.  A constraint_scale image whose constraint
        residual exceeds 1e-9 is no point of the constraint sphere, and
        raises ParamError naming the residual."""
        p, F = self.params, self.F
        try:
            theta = _knot_values(np.asarray(w, dtype=float))
            g = RadialProfile(self.knots, np.append(theta, 0.0))
            if self.mode == "subcritical":
                return normalize_sphere(g, p.q, F)
            cs = constraint_scale(g, p.a, p.b, F, p.q)
        except ParamError:
            return None
        if cs.residual <= _SPHERE_RESIDUAL_MAX:
            return cs.scaled
        raise ParamError(f"the critical witness is off the constraint sphere: "
                         f"residual {cs.residual:.3g} > {_SPHERE_RESIDUAL_MAX:g}")


def evaluate_rows(objectives, w, grad=True):
    """Row i of the stack w scored on objectives[i] by the pass
    RadialObjective._evaluate, in blocks of _BLOCK_NODES // nodes rows:
    (values, gradients), the gradients None without ``grad``.  The
    objectives may differ only in lam, which enters the pass as one kernel
    rate per row; ParamError if they differ in anything else."""
    lead = objectives[0]
    if any(obj is not lead and obj._family != lead._family for obj in objectives):
        raise ParamError("objectives stacked in one pass may differ only in lam")
    lam = np.array([[obj.params.lam] for obj in objectives])
    return lead._blocks(np.ascontiguousarray(w, dtype=float), grad, lam,
                        max(1, _BLOCK_NODES // lead._we.size))


def aa_bracket(t, params):
    """Sup-identity bracket ((1 - s^{a(n-1)/n}) / s^{b(n-1)/n})^{(q/b)(1-beta/n)}
    at s = t/lam, linking the subcritical value at t to the critical value
    at lam; inf where it exceeds the floating-point range.

    Where s^{b(n-1)/n} underflows (large b), b cancels from the power of s:
    the bracket is (1 - s^{a(n-1)/n})^{(q/b)(1-beta/n)} s^{-q(n-1)/n (1-beta/n)}.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0.0) or np.any(t >= params.lam):
        raise ParamError("bracket is defined for t strictly inside (0, lam)")
    s = t / params.lam
    ex = (params.n - 1.0) / params.n
    decay = 1.0 - params.beta / params.n
    power = (params.q / params.b) * decay
    with np.errstate(over="ignore", divide="ignore"):
        head = 1.0 - s ** (params.a * ex)
        out = (head / s ** (params.b * ex)) ** power
        out = np.where(np.isfinite(out), out, head ** power * s ** (-params.q * ex * decay))
    return out if out.ndim else float(out)
