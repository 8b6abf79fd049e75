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
the normalized functionals on one knot grid with their gradients, for the
profile search, and without them on blocks of candidates; it shares its
quadrature rules with the functions above.
"""

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import sparse
from scipy.special import gammainc

from .finsler import wulff_volume, sharp_constant
from .profiles import RadialProfile

EXP_POWER = "exp_power"
PHI_SERIES = "phi_series"

_EXP_ARG_MAX = 690.0     # exp(690) ~ 1e299; beyond this the integrand overflows
_SPHERE_RESIDUAL_MAX = 1e-9   # a critical witness further off the constraint sphere is rejected


class ParamError(ValueError):
    """Parameter combination outside the admissible regime."""


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
        if int(self.n) != self.n or self.n < 2:
            raise ParamError(f"n must be an integer >= 2, got {self.n}")
        object.__setattr__(self, "n", int(self.n))
        if not (np.isfinite(self.q) and self.q > 1.0):
            raise ParamError(f"q must exceed 1 and be finite, got {self.q}")
        if not (0.0 <= self.beta < self.n):
            raise ParamError(f"beta must lie in [0, n), got {self.beta}")
        if not (np.isfinite(self.lam) and self.lam > 0.0):
            raise ParamError(f"lam must be positive and finite, got {self.lam}")
        if not all(np.isfinite(e) and e > 0.0 for e in (self.a, self.b)):
            raise ParamError(f"constraint exponents a, b must be positive and "
                             f"finite, got {self.a}, {self.b}")
        if self.p is not None and not np.isfinite(self.p):
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
        return FunctionalParams(self.n, self.q, self.beta, lam, self.a, self.b,
                                self.p, self.variant)


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
    if np.any(t < 0.0):
        raise ParamError("series argument must be nonnegative")
    out = np.expm1(t) if j_start == 1 else np.exp(t) * gammainc(j_start, t)
    return out if out.ndim else float(out)


def _check_exp_argument(arg):
    """Raise FunctionalOverflowError when exp(arg) leaves the float range."""
    amax = float(np.max(arg)) if np.size(arg) else 0.0
    if amax > _EXP_ARG_MAX:
        raise FunctionalOverflowError(
            f"exponential argument {amax:.6g} exceeds the floating-point range",
            argument=amax)


def phi(params, t):
    """Truncated exponential series sum_{j >= j_start} t^j / j! at t >= 0;
    FunctionalOverflowError beyond the floating-point range."""
    _check_exp_argument(t)
    return _phi_stable(t, series_start(params))


def phi_direct(params, t):
    """Reference route: plain ascending summation of 64 tail terms.

    Converged (hence comparable to phi at full precision) only while the
    truncated tail is negligible, i.e. for t well below 64.
    """
    j0 = series_start(params)
    t = np.asarray(t, dtype=float)
    term = t ** j0 / math.factorial(j0)
    acc = term.copy()
    for j in range(j0, j0 + 63):
        term = term * t / (j + 1.0)
        acc = acc + term
    return acc if acc.ndim else float(acc)


# -- radial quadrature -------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)
_QUAD_SPLIT = 4
_QUAD_GEOM = 24


def _interval_rule(knots):
    """Composite Gauss-Legendre nodes/weights over the knot intervals."""
    lo, hi = knots[:-1], knots[1:]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    r = mid[:, None] + half[:, None] * _GL_NODES[None, :]
    w = half[:, None] * _GL_WEIGHTS[None, :]
    return r, w


def _panelize(knots, refine=()):
    """Subdivide knot intervals so the rule sees only smooth pieces.

    Each interval splits into equal panels; the panel touching the first or
    last knot is further refined geometrically when requested, which absorbs
    fractional-power behavior there (the singular radial weight at the
    origin, powers of the vanishing profile at the support radius).  Profiles
    with few knots, like a bare cone, would otherwise under-resolve these.
    """
    lo, hi = knots[:-1], knots[1:]
    frac = np.arange(_QUAD_SPLIT) / _QUAD_SPLIT
    pts = (lo[:, None] + (hi - lo)[:, None] * frac[None, :]).ravel()
    pts = np.append(pts, knots[-1])
    geo = 2.0 ** -np.arange(_QUAD_GEOM, 0, -1)
    if "origin" in refine and pts.size > 1:
        a, b = pts[0], pts[1]
        pts = np.concatenate([[a], a + (b - a) * geo, pts[1:]])
    if "end" in refine and pts.size > 1:
        a, b = pts[-2], pts[-1]
        pts = np.concatenate([pts[:-1], b - (b - a) * geo[::-1], [b]])
    return pts


def _lq_rule(knots, n):
    """Flat nodes r and weights W with sum W f(r) ~ int_0^R f(r) r^{n-1} dr."""
    r, w = _interval_rule(_panelize(knots, refine=("end",)))
    return r.ravel(), (w * r ** (n - 1.0)).ravel()


def _exp_rule(knots, n, beta):
    """Flat nodes r and weights W with sum W f(r) ~ int_0^R f(r) r^{n-1-beta} dr.

    For beta > n-1 the weight exponent is negative; the substitution
    r = rho^{1/(n-beta)} makes the weight constant, at the cost of
    evaluating f at transformed nodes.  Either way the rule is built from
    ``knots`` by maps homogeneous in the knots, so scaling the knots by s
    scales the nodes by s and the integral by s^{n-beta}.
    """
    if beta > n - 1.0:
        ex = n - beta
        rho, w = _interval_rule(_panelize(knots ** ex, refine=("origin", "end")))
        return rho.ravel() ** (1.0 / ex), w.ravel() / ex
    r, w = _interval_rule(_panelize(knots, refine=("origin", "end")))
    return r.ravel(), (w * r ** (n - 1.0 - beta)).ravel()


def lq_norm_radial(g, q, F):
    """(n kappa int_0^R g^q r^{n-1} dr)^{1/q} for u(x) = g(F0(-x))."""
    if q < 1.0:
        raise ParamError(f"q must be >= 1, got {q}")
    n = F.dim
    r, w = _lq_rule(g.knots, n)
    gv = np.interp(r, g.knots, g.values)
    val = float(np.sum(w * gv ** q))
    return (n * wulff_volume(F) * val) ** (1.0 / q)


def dirichlet_energy_radial(g, F):
    """n kappa int_0^R |g'|^n r^{n-1} dr, exact for piecewise-linear g.

    Per interval the slope is constant, so the integral is
    |s_k|^n (r_{k+1}^n - r_k^n)/n in closed form.
    """
    n = F.dim
    slopes = np.diff(g.values) / np.diff(g.knots)
    rn = g.knots ** n
    return float(wulff_volume(F) * np.sum(np.abs(slopes) ** n * np.diff(rn)))


def grad_norm_radial(g, F):
    """||F(grad u)||_n = (dirichlet energy)^{1/n}."""
    return dirichlet_energy_radial(g, F) ** (1.0 / F.dim)


def _kernel_argument(u, params):
    """lam(1-beta/n) u^{n/(n-1)}, the exponent of the integrand at u."""
    n = params.n
    return params.lam * (1.0 - params.beta / n) * u ** (n / (n - 1.0))


def _phi_slope(t, j_start, tail):
    """Phi'_{j} = Phi_{j-1}, given tail = Phi_j(t): Phi_0 = Phi_1 + 1, and
    for j >= 2 the tail that starts one index lower."""
    return tail + 1.0 if j_start == 1 else _phi_stable(t, j_start - 1)


def _kernel(u, params, arg=None, j_start=None):
    """Exponential integrand of params.variant at the values u >= 0 (an
    array of any shape; no spatial weight).

    exp-power: exp(lam(1-beta/n) u^{n/(n-1)}) u^p; phi-series: the
    truncated series at the same argument (the critical functional passes
    params with the phi-series variant).  ``arg`` and ``j_start``, when
    given, are that argument and series_start(params), already computed.
    Raises FunctionalOverflowError on overflow.
    """
    u = np.asarray(u, float)
    if arg is None:
        arg = _kernel_argument(u, params)
    _check_exp_argument(arg)
    if params.variant == EXP_POWER:
        return np.exp(arg) * u ** params.p
    if j_start is None:
        j_start = series_start(params)
    return _phi_stable(arg, j_start)


def _kernel_and_slope(u, params, j_start):
    """_kernel at the values u >= 0 and its derivative in u, with j_start =
    series_start(params).

    Where u = 0 and the exp-power factor u^{p-1} is infinite (p < 1), the
    one-sided derivative is taken as 0.
    """
    n = params.n
    u = np.asarray(u, float)
    arg = _kernel_argument(u, params)
    darg = params.lam * (1.0 - params.beta / n) * n / (n - 1.0) * u ** (1.0 / (n - 1.0))
    if params.variant == EXP_POWER:
        # the product rule needs both factors of exp(arg) u^p
        _check_exp_argument(arg)
        p = params.p
        ex = np.exp(arg)
        up = u ** p
        with np.errstate(divide="ignore"):
            dup = p * u ** (p - 1.0)
        dup[np.isinf(dup)] = 0.0
        return ex * up, ex * (darg * up + dup)
    tail = _kernel(u, params, arg, j_start)
    return tail, _phi_slope(arg, j_start, tail) * darg


def _radial_exp_integral(g, params, F):
    """n kappa int_0^R kernel(g) r^{n-1-beta} dr with the singular weight."""
    _check_dimension(params, F)
    r, w = _exp_rule(g.knots, params.n, params.beta)
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


def ratio_functional(g, params, F):
    """atmsc_value(g) / ||g||_q^{q(1-beta/n)}."""
    qn = lq_norm_radial(g, params.q, F)
    if qn <= 0.0:
        raise ParamError("ratio functional is undefined for the zero profile")
    return atmsc_value(g, params, F) / qn ** (params.q * (1.0 - params.beta / params.n))


# -- normalization maps ------------------------------------------------------

def _sphere_radius_factor(e, qn, q, n):
    """Radius factor t = (qn / e)^{q/n} of the unit-sphere map for a profile
    with gradient norm e and q-norm qn; ParamError where the map
    degenerates: e <= 1e-14, qn <= 1e-300, or t not a positive float."""
    if e <= 1e-14 or qn <= 1e-300:
        raise ParamError(f"cannot normalize a profile with gradient norm {e:.3g} "
                         f"and q-norm {qn:.3g}")
    t = (qn / e) ** (q / n)
    if not (np.isfinite(t) and t > 0.0):
        raise ParamError(f"the radius factor (||g||_q / e)^(q/n) = {t} leaves "
                         f"the floating-point range")
    return t


def normalize_sphere(g, q, F):
    """Rescale to the unit sphere of both norms.

    v(r) = g(t r)/e with e = ||F grad g||_n and t = (||g||_q / e)^{q/n}
    gives ||F grad v||_n = ||v||_q = 1; the ratio functional does not
    decrease under this map.
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


def _constraint_root(X, Y, a, b):
    """The c > 0 with (c X)^a + (c Y)^b = 1, for X, Y >= 0 not both 0.

    For a = b the root is c = (X^a + Y^a)^{-1/a}, evaluated with the larger
    of X, Y factored out so that the powers cannot overflow.  Otherwise the
    left side is strictly increasing in c, so the root is unique; bisection
    runs to relative width 1e-14.
    """
    if a == b:
        top = max(X, Y)
        return 1.0 / (top * ((X / top) ** a + (Y / top) ** a) ** (1.0 / a))
    return _bisect_constraint_root(X, Y, a, b)


def _bisect_constraint_root(X, Y, a, b):
    """_constraint_root by bisection, for any a, b > 0."""
    def val(c):
        return (c * X) ** a + (c * Y) ** b

    lo = hi = 1.0
    for _ in range(200):
        if val(hi) >= 1.0:
            break
        hi *= 2.0
    for _ in range(200):
        if val(lo) <= 1.0:
            break
        lo /= 2.0
    for _ in range(200):
        c = 0.5 * (lo + hi)
        if val(c) < 1.0:
            lo = c
        else:
            hi = c
        if hi - lo <= 1e-14 * hi:
            break
    return 0.5 * (lo + hi)


def constraint_scale(g, a, b, F, q):
    """Scale c g onto {||F grad u||_n^a + ||u||_q^b = 1}.

    When the constraint value of g already exceeds 1 the root has c < 1 and
    the result is flagged infeasible for ascent purposes.
    """
    X = grad_norm_radial(g, F)
    Y = lq_norm_radial(g, q, F)
    S = X ** a + Y ** b
    if S <= 0.0:
        raise ParamError("zero profile cannot be scaled onto the constraint sphere")
    c = _constraint_root(X, Y, a, b)
    scaled = g.scaled(value_factor=c)
    res = abs(grad_norm_radial(scaled, F) ** a + lq_norm_radial(scaled, q, F) ** b - 1.0)
    return ConstraintScaled(c=c, scaled=scaled, feasible=S <= 1.0 + 1e-12,
                            residual=float(res))


def _nonzero(theta):
    """Per candidate (last axis): some knot value exceeds 1e-12, else it is degenerate."""
    return np.any(np.asarray(theta) > 1e-12, axis=-1)


class RadialObjective:
    """Search objective over the knot values of one grid, with its gradient.

    ``theta`` holds the values of a nonincreasing profile g at ``knots[:-1]``
    (the last value is 0).  Mode 'subcritical' gives atmsc_value of
    normalize_sphere(g); mode 'critical' gives critical_value of the
    constraint_scale projection of g.  Both maps only rescale g, and the
    radial rules are homogeneous in the knots, so nodes, weights and
    interpolation indices are built once, on ``knots``: shrinking the radius
    by 1/t multiplies the subcritical integral by t^{beta-n}, and the
    constraint projection keeps the knots.  One forward pass (the energy,
    the q-norm, the scale factor, the kernel) serves value_and_grad, which
    adds the gradient by the chain rule through each of them, and values,
    which scores a block of candidates row by row without it.  Degenerate
    or overflowing candidates have value -inf.
    """

    def __init__(self, params, F, knots, mode):
        if mode not in ("subcritical", "critical"):
            raise ParamError(f"unknown objective {mode!r}")
        _check_dimension(params, F)
        if mode == "critical":          # Phi for either variant
            params = replace(params, variant=PHI_SERIES)
        self.params, self.F, self.mode = params, F, mode
        self.knots = np.asarray(knots, dtype=float)
        n, kappa = params.n, wulff_volume(F)
        self._nkappa = n * kappa
        self._h = np.diff(self.knots)
        self._energy_w = kappa * np.diff(self.knots ** n)
        r_q, self._wq = _lq_rule(self.knots, n)
        r_e, self._we = _exp_rule(self.knots, n, params.beta)
        lq, exp = self._interpolation(r_q), self._interpolation(r_e)
        # one sparse product gives the profile at both node sets
        self._nodes = sparse.vstack([lq, exp], format="csr")
        self._nq = r_q.size
        self._lq_t, self._exp_t = lq.T.tocsr(), exp.T.tocsr()
        self._j_start = series_start(params)

    def _interpolation(self, r):
        """Sparse map from knot values to the piecewise-linear profile at
        the nodes r."""
        idx = np.clip(np.searchsorted(self.knots, r, side="right") - 1,
                      0, self.knots.size - 2)
        frac = (r - self.knots[idx]) / self._h[idx]
        rows = np.arange(r.size)
        return sparse.csr_array(
            (np.concatenate([1.0 - frac, frac]),
             (np.concatenate([rows, rows]), np.concatenate([idx, idx + 1]))),
            shape=(r.size, self.knots.size))

    def _scale(self, E, Q):
        """Normalization of one candidate from its energy E and q-norm
        integral Q, in scalar arithmetic: (ok, X, Y, c, scale) with X =
        E^{1/n}, Y = Q^{1/q}, the constraint root c ('critical'; None for
        'subcritical'), the factor scale in value = scale * (weights @
        kernel), and ok False where the normalization degenerates."""
        p = self.params
        n, q = p.n, p.q
        X, Y = E ** (1.0 / n), Q ** (1.0 / q)
        if self.mode == "subcritical":
            try:        # u -> g(t r)/X, as normalize_sphere maps it
                t = _sphere_radius_factor(X, Y, q, n)
            except ParamError:
                return False, X, Y, None, 0.0
            return True, X, Y, None, self._nkappa * t ** (p.beta - n)
        # u -> c u with (c X)^a + (c Y)^b = 1
        return True, X, Y, _constraint_root(X, Y, p.a, p.b), self._nkappa

    def _forward(self, theta):
        """The pass shared by value_and_grad (theta of shape (K,)) and values
        (a block of shape (B, K), row by row).

        Returns (ok, w, scale, slope, E, uq, Q, u, X, Y, c): the profile's
        slopes, its energy E, its values uq and u at the q-norm and
        exponential nodes, its q-norm integral Q, _scale of E and Q, and the
        kernel input w (u/X for 'subcritical', c u for 'critical').  A row
        of a block gets the arithmetic of a lone candidate, bit for bit:
        its sums are the same dot products over contiguous rows, and its
        scale factors the same scalar operations.
        """
        n, q = self.params.n, self.params.q
        v = np.concatenate([theta, np.zeros(theta.shape[:-1] + (1,))], axis=-1)
        slope = np.diff(v) / self._h
        nodes = np.ascontiguousarray((self._nodes @ v.T).T)
        uq, u = nodes[..., :self._nq], nodes[..., self._nq:]
        E = np.vecdot(np.abs(slope) ** n, self._energy_w)
        Q = self._nkappa * np.vecdot(uq ** q, self._wq)
        if theta.ndim == 1:
            ok, X, Y, c, scale = self._scale(E, Q)
        else:
            ok, X, Y, c, scale = map(np.array, zip(*map(self._scale, E, Q)))
        w = u / X[..., None] if self.mode == "subcritical" else np.asarray(c)[..., None] * u
        return ok, w, scale, slope, E, uq, Q, u, X, Y, c

    def values(self, thetas):
        """Objective values of a block of candidates, one per row of the
        (B, K) array ``thetas``: bit for bit the value value_and_grad gives
        each row, without the gradient; -inf for each degenerate or
        overflowing row, never an error for the block."""
        thetas = np.asarray(thetas, dtype=float)
        p = self.params
        with np.errstate(all="ignore"):
            ok, w, scale = self._forward(thetas)[:3]
            arg = _kernel_argument(w, p)
            ok = ok & _nonzero(thetas) & (np.max(arg, axis=-1) <= _EXP_ARG_MAX)
            kern = _kernel(np.where(ok[:, None], w, 0.0), p,
                           np.where(ok[:, None], arg, 0.0), self._j_start)
            vals = scale * np.vecdot(kern, self._we)
        return np.where(ok & np.isfinite(vals), vals, -np.inf)

    def value_and_grad(self, theta):
        """Objective value at the knot values theta and its gradient in
        theta; (-inf, 0) for a degenerate or overflowing candidate."""
        theta = np.asarray(theta, dtype=float)
        fail = (-np.inf, np.zeros_like(theta))
        if not _nonzero(theta):
            return fail
        p = self.params
        n, q = p.n, p.q
        ok, w, scale, slope, E, uq, Q, u, X, Y, c = self._forward(theta)
        if not ok:
            return fail
        try:
            kern, dkern = _kernel_and_slope(w, p, self._j_start)
        except FunctionalOverflowError:
            return fail
        value = scale * np.vecdot(kern, self._we)
        d_slope = n * np.abs(slope) ** (n - 1) * np.sign(slope) * self._energy_w / self._h
        # v_k enters slope k - 1 with +1/h_{k-1} and slope k with -1/h_k
        dE = -np.append(d_slope, 0.0)
        dE[1:] += d_slope
        dQ = self._nkappa * (self._lq_t @ (q * self._wq * uq ** (q - 1.0)))
        if self.mode == "subcritical":
            d_u = self._we * dkern / X
            d_int = self._exp_t @ d_u - (d_u @ u) / (n * E) * dE
            d_log_t = dQ / (n * Q) - q / (n * n) * dE / E
            grad = scale * d_int - (n - p.beta) * value * d_log_t
        else:
            A, B = p.a * (c * X) ** p.a, p.b * (c * Y) ** p.b
            d_log_c = -(A * dE / (n * E) + B * dQ / (q * Q)) / (A + B)
            d_u = self._nkappa * self._we * dkern
            grad = c * (self._exp_t @ d_u + (d_u @ u) * d_log_c)
        if not (np.isfinite(value) and np.all(np.isfinite(grad))):
            return fail
        return float(value), grad[:-1]

    def witness(self, theta):
        """The profile the knot values theta stand for, through the library
        maps: their normalize_sphere or constraint_scale image; None for a
        degenerate candidate.  A constraint_scale image whose constraint
        residual exceeds 1e-9 is no point of the constraint sphere, and
        raises ParamError naming the residual."""
        if not _nonzero(theta):
            return None
        p, F = self.params, self.F
        g = RadialProfile(self.knots, np.append(theta, 0.0))
        try:
            if self.mode == "subcritical":
                return normalize_sphere(g, p.q, F)
            cs = constraint_scale(g, p.a, p.b, F, p.q)
        except ParamError:
            return None
        if cs.residual <= _SPHERE_RESIDUAL_MAX:
            return cs.scaled
        raise ParamError(f"the critical witness is off the constraint sphere: "
                         f"residual {cs.residual:.3g} > {_SPHERE_RESIDUAL_MAX:g}")


def aa_bracket(t, params):
    """Sup-identity bracket ((1 - s^{a(n-1)/n}) / s^{b(n-1)/n})^{(q/b)(1-beta/n)}
    at s = t/lam, linking the subcritical value at t to the critical value
    at lam; inf where it exceeds the floating-point range."""
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0.0) or np.any(t >= params.lam):
        raise ParamError("bracket is defined for t strictly inside (0, lam)")
    s = t / params.lam
    ex = (params.n - 1.0) / params.n
    with np.errstate(over="ignore"):
        out = ((1.0 - s ** (params.a * ex)) / s ** (params.b * ex)) \
            ** ((params.q / params.b) * (1.0 - params.beta / params.n))
    return out if out.ndim else float(out)
