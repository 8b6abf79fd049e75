"""Functional layer: series kernel, radial integrals, normalization maps.

Integral oracles were computed with adaptive quadrature (scipy.integrate.quad
at epsabs/epsrel 1e-13) on the unit-height cone of radius 1.3 and frozen here;
closed forms cover the L^q and Dirichlet cases.
"""

import warnings
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from anisotm import (FunctionalParams, series_start, phi,
                     lq_norm_radial, dirichlet_energy_radial,
                     grad_norm_radial, atmsc_value, critical_value,
                     normalize_sphere, constraint_scale,
                     aa_bracket, FunctionalOverflowError, ParamError,
                     RadialProfile, FinslerNorm, wulff_volume, sharp_constant)
from anisotm import functional
from anisotm.functional import (ACCURATE, LEAN, RadialObjective, _constraint_root,
                                _kernel, _phi_stable, _radial_rule, validate_lambda)
from anisotm.maximize import geometric_knots

R_CONE = 1.3
# adaptive-quadrature references for the cone, params (2, 2, beta, 2pi, 2, 2)
ATMSC_CONE_BETA05 = 37.20757722266489     # quad error 1.3e-13
ATMSC_CONE_BETA15 = 23.83235870961454     # quad error 4.2e-14
# closed form (2 pi R^2 / ((q+1)(q+2)))^{1/q}
LQ_CONE_Q2 = 0.940681630925748
LQ_CONE_Q27 = 0.8330181060316121
BRACKET_QUARTER = 2.2795070569547775      # 3^{3/4}


def cone(radius=R_CONE, height=1.0):
    return RadialProfile([0.0, radius], [height, 0.0])


def params_beta05(**kw):
    base = dict(n=2, q=2.0, beta=0.5, lam=2.0 * np.pi, a=2.0, b=2.0)
    base.update(kw)
    return FunctionalParams(**base)


# -- parameter validation -----------------------------------------------------

def test_params_validation():
    for bad in (dict(n=1), dict(n=2.5), dict(q=1.0), dict(beta=-0.1),
                dict(beta=2.0), dict(lam=0.0), dict(lam=np.inf),
                dict(a=0.0), dict(b=-1.0), dict(variant="nope"),
                dict(q=np.inf), dict(q=np.nan), dict(a=np.nan), dict(a=np.inf),
                dict(b=np.nan), dict(b=np.inf), dict(p=np.nan), dict(p=np.inf),
                dict(n=np.inf), dict(n=np.nan), dict(n="2"),
                dict(lam="1"), dict(q="2"), dict(a=None), dict(b=None),
                dict(p="2", variant="exp_power"), dict(lam=True), dict(beta=True),
                dict(q=np.True_), dict(a=True), dict(beta=1j)):
        with pytest.raises(ParamError):
            params_beta05(**bad)
    for n in (2.0, np.int64(3)):
        assert type(params_beta05(n=n).n) is int


def test_exp_power_needs_admissible_p():
    with pytest.raises(ParamError):
        params_beta05(variant="exp_power")                 # p missing
    with pytest.raises(ParamError):
        # beta > 0 needs p strictly above q(1 - beta/n) = 1.5
        params_beta05(variant="exp_power", p=1.5)
    params_beta05(variant="exp_power", p=1.6)
    with pytest.raises(ParamError):
        params_beta05(beta=0.0, variant="exp_power", p=1.9)  # beta = 0 needs p >= q
    params_beta05(beta=0.0, variant="exp_power", p=2.0)


def test_with_lam():
    pa = params_beta05(variant="exp_power", p=2.5)
    pb = pa.with_lam(1.0)
    assert pb.lam == 1.0 and pa.lam == 2.0 * np.pi
    assert (pb.n, pb.q, pb.beta, pb.a, pb.b, pb.p, pb.variant) == \
        (2, 2.0, 0.5, 2.0, 2.0, 2.5, "exp_power")
    with pytest.raises(ParamError):
        pa.with_lam(0.0)


def test_validate_lambda(gauge_euclid):
    validate_lambda(params_beta05(), gauge_euclid)
    with pytest.raises(ParamError):
        validate_lambda(params_beta05(lam=4.0 * np.pi), gauge_euclid)
    with pytest.raises(ParamError):
        validate_lambda(params_beta05(n=3, lam=1.0), gauge_euclid)


# -- series kernel ------------------------------------------------------------

def test_series_start_cases():
    # beta > 0: smallest integer strictly above q(n-1)/n (1 - beta/n)
    assert series_start(params_beta05()) == 1
    assert series_start(params_beta05(beta=1.5)) == 1
    # threshold value 1.0 exactly: strict inequality pushes to 2
    assert series_start(FunctionalParams(3, 3.0, 1.5, 1.0)) == 2
    # beta = 0: ceiling, ties stay
    assert series_start(params_beta05(q=3.0, beta=0.0)) == 2
    assert series_start(params_beta05(beta=0.0)) == 1
    assert series_start(params_beta05(q=4.0, beta=0.0)) == 2


def test_phi_frozen_values():
    pa = params_beta05()                                   # j_start = 1
    assert phi(pa, 0.5) == pytest.approx(0.6487212707001282, rel=1e-15)
    assert phi(pa, 5.0) == pytest.approx(147.4131591025766, rel=1e-15)
    assert phi(pa, 50.0) == pytest.approx(5.184705528587072e21, rel=1e-15)
    pb = params_beta05(q=3.0, beta=0.0)                    # j_start = 2
    assert phi(pb, 0.5) == pytest.approx(0.14872127070012814, rel=1e-14)
    assert phi(pb, 5.0) == pytest.approx(142.4131591025766, rel=1e-14)
    assert phi(pb, 50.0) == pytest.approx(5.184705528587072e21, rel=1e-14)


def test_phi_rejects_negative_argument():
    with pytest.raises(ParamError):
        phi(params_beta05(), -0.1)


def test_phi_overflow_is_typed():
    with pytest.raises(FunctionalOverflowError) as exc:
        phi(params_beta05(), np.array([1.0, 800.0]))
    assert exc.value.argument == 800.0
    with pytest.raises(FunctionalOverflowError):
        phi(params_beta05(), 800.0)


def _phi_oracle(t, j_start):
    # sum_{j >= j0} t^j/j! = e^t P(j0, t), P the regularized lower
    # incomplete gamma function; evaluated at the working precision
    return mpmath.exp(t) * mpmath.gammainc(j_start, 0, t, regularized=True)


@pytest.mark.parametrize("j_start", [1, 2, 3, 5, 8, 12, 16])
def test_phi_tail_and_slope_mpmath(j_start):
    # the analytic search gradient rests on the tail and on
    # Phi'_{j0} = Phi_{j0-1}; j0 >= 8 reaches past 1 < t < j0, where e^t
    # minus the head of the series cancels.  At n = 2 and lam(1-beta/n) = 1
    # the kernel's argument is t = u^2 and its slope in u is Phi'(t) 2u;
    # u is one ulp below sqrt(t), so that t stays at most 690
    params = FunctionalParams(n=2, q=2.0, beta=0.0, lam=1.0)
    us = np.nextafter(np.sqrt(np.geomspace(1e-8, 690.0, 40)), 0.0)
    tail, slope = _kernel(us, params, j_start, slope=True)
    with mpmath.workdps(50):
        for u, got, dgot in zip(us, tail, slope):
            t = mpmath.mpf(u ** 2.0)      # the argument the kernel evaluates
            want = _phi_oracle(t, j_start)
            dwant = mpmath.diff(lambda s: _phi_oracle(s, j_start), t) * 2 * u
            assert abs(got - want) / want < 1e-13, (t, got, want)
            assert abs(dgot - dwant) / dwant < 1e-13, (t, dgot, dwant)
    assert np.array_equal(tail, _kernel(us, params, j_start))


@pytest.mark.parametrize("n, q, beta, p", [
    (2, 2.0, 0.0, 2.0), (2, 2.0, 0.5, 1.6), (3, 1.2, 1.0, 1.0), (3, 2.5, 0.0, 2.5),
    (2, 1.5, 1.5, 0.5), (3, 1.5, 2.5, 0.3)])
def test_exp_power_kernel_slope_mpmath(n, q, beta, p):
    # K(u) = exp(lam(1-beta/n) u^{n/(n-1)}) u^p and its slope in u against
    # a 50-digit mpmath derivative; at u = 0 the right derivative is 1 for
    # p = 1 and 0 for p > 1, and for p < 1, where u^{p-1} is infinite, the
    # one-sided slope is taken as 0
    params = FunctionalParams(n=n, q=q, beta=beta, lam=2.0, variant="exp_power", p=p)
    rate = params.lam * (1.0 - beta / n)
    us = np.array([0.0, 1e-6, 1e-3, 0.1, 0.5, 1.0, 2.0, 4.0])
    kern, slope = _kernel(us, params, slope=True)
    assert np.array_equal(kern, _kernel(us, params))
    assert kern[0] == 0.0 and slope[0] == (1.0 if p == 1.0 else 0.0)
    with mpmath.workdps(50):
        def oracle(s):
            return mpmath.exp(rate * s ** (mpmath.mpf(n) / (n - 1))) * s ** p
        for u, got, dgot in zip(us[1:], kern[1:], slope[1:]):
            want = oracle(mpmath.mpf(u))
            dwant = mpmath.diff(oracle, mpmath.mpf(u))
            assert abs(got - want) / want < 1e-13, (u, got, want)
            assert abs(dgot - dwant) / dwant < 1e-13, (u, dgot, dwant)


def test_phi_tail_positive_where_head_cancels():
    # e^t - sum_{j < 20} t^j/j! at t = 1.1 came out as -4.4e-16
    got = _phi_stable(1.1, 20)
    with mpmath.workdps(50):
        want = _phi_oracle(mpmath.mpf(1.1), 20)
    assert got > 0.0 and abs(got - want) / want < 1e-13


def test_phi_vectorizes():
    out = phi(params_beta05(), np.array([[0.0, 1.0], [2.0, 3.0]]))
    assert out.shape == (2, 2) and out[0, 0] == 0.0


# -- radial integrals ---------------------------------------------------------

def test_lq_cone_closed_forms(gauge_euclid):
    assert lq_norm_radial(cone(), 2.0, gauge_euclid) == pytest.approx(
        LQ_CONE_Q2, rel=1e-12)
    assert lq_norm_radial(cone(), 2.7, gauge_euclid) == pytest.approx(
        LQ_CONE_Q27, rel=1e-12)
    for bad in (0.5, np.nan):
        with pytest.raises(ParamError):
            lq_norm_radial(cone(), bad, gauge_euclid)


def test_dirichlet_cone_equals_kappa(gauge_euclid, gauge_ellipse, gauge_pnorm4):
    # slope 1/R cone: energy kappa R^n (1/R)^n = kappa, whatever the radius
    for F in (gauge_euclid, gauge_ellipse, gauge_pnorm4):
        for radius in (0.7, 1.3, 2.9):
            got = dirichlet_energy_radial(cone(radius=radius), F)
            assert got == pytest.approx(wulff_volume(F), rel=1e-12)
    e = dirichlet_energy_radial(cone(), gauge_euclid)
    assert grad_norm_radial(cone(), gauge_euclid) == pytest.approx(
        e ** 0.5, rel=1e-14)


def test_atmsc_frozen_oracles(gauge_euclid):
    got = atmsc_value(cone(), params_beta05(), gauge_euclid)
    assert got == pytest.approx(ATMSC_CONE_BETA05, rel=1e-11)
    # beta > n-1 exercises the substitution branch for the singular weight
    got = atmsc_value(cone(), params_beta05(beta=1.5), gauge_euclid)
    assert got == pytest.approx(ATMSC_CONE_BETA15, rel=1e-11)


@pytest.mark.parametrize("n,beta", [(2, 0.0), (2, 0.5), (2, 1.0), (2, 1.5),
                                    (3, 1.0), (3, 2.0), (3, 2.5)])
def test_radial_rule_moments(n, beta):
    # one node set, two weights: W_q against r^{n-1}, W_e against
    # r^{n-1-beta} (beta > n - 1 takes the substituted rule), both exact on
    # r^m to rounding for the accurate rule; the lean rule's 4 points per
    # knot interval miss the fractional powers by up to 1.5e-9 (n = 3,
    # beta = 2.5).  Scaling the knots by s scales the two integrals of
    # f(r/s) by s^n and s^{n-beta} under either rule.  Integrals, not
    # weights, are compared: the tiny end-panel weights agree only to about
    # 1e-8 relative
    knots = geometric_knots(6.0, 16)
    powers = np.arange(4)[:, None] + np.array([n, n - beta])

    def moments(s, rule):
        r, wq, we = _radial_rule(s * knots, n, beta, rule)
        return np.array([[(r / s) ** m @ wq, (r / s) ** m @ we] for m in range(4)])

    want = knots[-1] ** powers / powers
    for rule, bound in ((ACCURATE, 1e-13), (LEAN, 3e-9)):
        got = moments(1.0, rule)
        assert np.max(np.abs(got / want - 1.0)) < bound, rule
        for s in (0.37, 5.0):
            scaled = moments(s, rule) / s ** np.array([n, n - beta])
            assert np.max(np.abs(scaled / got - 1.0)) < 1e-13, rule


def _bump():
    r = np.linspace(0.0, 1.5, 9)
    return RadialProfile(r, 1.2 * (1.0 - (r / 1.5) ** 2) ** 2)


ORACLE_PROFILES = {"cone": lambda: RadialProfile([0.0, 1.5], [1.2, 0.0]),
                   "bump": _bump}


def _radial_oracle(g, kernel, power):
    """2 pi int_0^R kernel(g(r)) r^power dr at 30 digits, split at the knots:
    n kappa times the radial integral for the Euclidean gauge in 2-d."""
    with mpmath.workdps(30):
        total = mpmath.mpf(0)
        knots, vals = [mpmath.mpf(float(v)) for v in g.knots], g.values
        for k in range(len(knots) - 1):
            r0, r1 = knots[k], knots[k + 1]
            v0 = mpmath.mpf(float(vals[k]))
            slope = (mpmath.mpf(float(vals[k + 1])) - v0) / (r1 - r0)
            total += mpmath.quad(lambda r: kernel(v0 + slope * (r - r0)) * r ** power,
                                 [r0, r1])
        return 2 * mpmath.pi * total


@pytest.mark.parametrize("shape", sorted(ORACLE_PROFILES))
def test_radial_integrals_match_mpmath(shape, gauge_euclid):
    # independent of the library's panelized Gauss rules: tanh-sinh
    # quadrature at 30 digits; beta = 1.5 > n - 1 takes the substituted
    # rule for the singular weight
    g = ORACLE_PROFILES[shape]()
    for q in (2.0, 2.5, 3.0):
        want = _radial_oracle(g, lambda v: v ** q, 1) ** (1 / mpmath.mpf(q))
        got = lq_norm_radial(g, q, gauge_euclid)
        assert abs(got - want) / want < 1e-12, (q, got, want)
    for beta in (0.0, 0.5, 1.5):
        ps = params_beta05(beta=beta)
        pe = params_beta05(beta=beta, variant="exp_power", p=2.5)
        rate, j0 = ps.lam * (1.0 - beta / 2.0), series_start(ps)
        power = 1 - mpmath.mpf(beta)
        series = _radial_oracle(g, lambda v: _phi_oracle(rate * v * v, j0), power)
        exp_power = _radial_oracle(
            g, lambda v: mpmath.exp(rate * v * v) * v ** mpmath.mpf(2.5), power)
        # the critical functional is the series for either variant
        for got, want in ((atmsc_value(g, ps, gauge_euclid), series),
                          (critical_value(g, ps, gauge_euclid), series),
                          (atmsc_value(g, pe, gauge_euclid), exp_power),
                          (critical_value(g, pe, gauge_euclid), series)):
            assert abs(got - want) / want < 1e-12, (beta, got, want)


def test_critical_equals_forced_series(gauge_euclid):
    pa = params_beta05()
    assert critical_value(cone(), pa, gauge_euclid) == atmsc_value(
        cone(), pa, gauge_euclid)
    # the exp-power variant integrates a different kernel subcritically but
    # the critical functional is the series either way
    pe = params_beta05(variant="exp_power", p=1.6)
    assert critical_value(cone(), pe, gauge_euclid) == pytest.approx(
        critical_value(cone(), pa, gauge_euclid), rel=1e-14)
    assert atmsc_value(cone(), pe, gauge_euclid) != pytest.approx(
        atmsc_value(cone(), pa, gauge_euclid), rel=1e-3)


def test_overflow_reports_location(gauge_euclid):
    tall = cone(height=20.0)
    with pytest.raises(FunctionalOverflowError) as exc:
        atmsc_value(tall, params_beta05(), gauge_euclid)
    err = exc.value
    assert err.argument > 690.0
    assert err.knot_index == 0
    assert 0.0 <= err.radius < R_CONE


def test_dimension_mismatch(gauge_euclid):
    with pytest.raises(ParamError):
        atmsc_value(cone(), FunctionalParams(3, 2.0, 0.5, 1.0), gauge_euclid)


# -- normalization maps -------------------------------------------------------

def test_normalize_sphere(gauge_euclid, gauge_ellipse):
    g = RadialProfile([0.0, 0.4, 1.1, 2.0], [1.7, 1.1, 0.3, 0.0])
    for F in (gauge_euclid, gauge_ellipse):
        v = normalize_sphere(g, 2.4, F)
        assert grad_norm_radial(v, F) == pytest.approx(1.0, abs=1e-12)
        assert lq_norm_radial(v, 2.4, F) == pytest.approx(1.0, abs=1e-12)
    zero = RadialProfile([0.0, 1.0], [0.0, 0.0])
    with pytest.raises(ParamError):
        normalize_sphere(zero, 2.0, gauge_euclid)
    # at q = 1e6 the radius factor (||g||_q / e)^{q/n} underflows to 0
    plateau = RadialProfile([0.0, 1.0, 1.1], [1.0, 1.0, 0.0])
    with pytest.raises(ParamError, match="radius factor"):
        normalize_sphere(plateau, 1e6, gauge_euclid)


def test_constraint_scale(gauge_euclid):
    g = RadialProfile([0.0, 0.6, 1.5], [0.9, 0.4, 0.0])
    out = constraint_scale(g, 2.0, 2.0, gauge_euclid, 2.0)
    assert out.residual <= 1e-12
    got = (grad_norm_radial(out.scaled, gauge_euclid) ** 2
           + lq_norm_radial(out.scaled, 2.0, gauge_euclid) ** 2)
    assert got == pytest.approx(1.0, abs=1e-12)
    # a small profile sits inside the constraint set and scales up
    small = g.scaled(value_factor=0.1)
    up = constraint_scale(small, 2.0, 2.0, gauge_euclid, 2.0)
    assert up.feasible and up.c > 1.0
    # a large one sits outside and scales down
    big = g.scaled(value_factor=10.0)
    down = constraint_scale(big, 2.0, 2.0, gauge_euclid, 2.0)
    assert not down.feasible and down.c < 1.0
    zero = RadialProfile([0.0, 1.0], [0.0, 0.0])
    with pytest.raises(ParamError):
        constraint_scale(zero, 2.0, 2.0, gauge_euclid, 2.0)


def _bisect_constraint_root(X, Y, a, b):
    """Oracle for _constraint_root: bisection on a bracket found by halving
    and doubling from 1, to relative width 1e-14."""
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


@pytest.mark.parametrize("a", [1.5, 2.0, 3.0])
def test_constraint_root_closed_form(a):
    # a = b has the closed-form root (X^a + Y^a)^{-1/a}; it must agree with
    # the bisection oracle, including X = 0 or Y = 0
    rng = np.random.default_rng(int(10 * a))
    pairs = [(0.0, 1.7), (2.3, 0.0), (1e-6, 3e5)]
    pairs += [tuple(10.0 ** rng.uniform(-3.0, 3.0, 2)) for _ in range(200)]
    for X, Y in pairs:
        got = _constraint_root(X, Y, a, a)
        want = _bisect_constraint_root(X, Y, a, a)
        assert abs(got - want) <= 1e-14 * want
        assert (got * X) ** a + (got * Y) ** a == pytest.approx(1.0, abs=1e-14)


_norm = st.floats(-6.0, 6.0).map(lambda e: 10.0 ** e)


@settings(max_examples=300, deadline=None)
@given(X=_norm, Y=_norm, zero=st.sampled_from([None, "X", "Y"]),
       a=st.floats(0.5, 8.0), b=st.floats(0.5, 8.0))
def test_constraint_root_brentq(X, Y, zero, a, b):
    # a != b: brentq on the closed-form bracket agrees with the bisection
    # oracle and lands on the constraint sphere
    X = 0.0 if zero == "X" else X
    Y = 0.0 if zero == "Y" else Y
    got = _constraint_root(X, Y, a, b)
    want = _bisect_constraint_root(X, Y, a, b)
    assert abs(got - want) <= 1e-13 * want
    assert abs((got * X) ** a + (got * Y) ** b - 1.0) <= 1e-14


def test_constraint_scale_large_b(gauge_euclid):
    # (c Y)^b for b in the thousands, and X^a + Y^b beyond the float range
    g = RadialProfile([0.0, 0.6, 1.5], [2.9, 1.4, 0.0])
    assert lq_norm_radial(g, 2.0, gauge_euclid) > 1.0
    for b in (1100.0, 3000.0):
        out = constraint_scale(g, 2.0, b, gauge_euclid, 2.0)
        assert not out.feasible and out.residual <= 1e-12


def test_aa_bracket(gauge_euclid):
    pa = params_beta05()
    assert aa_bracket(pa.lam / 4.0, pa) == pytest.approx(
        BRACKET_QUARTER, rel=1e-14)
    # vector input, monotone decreasing in t
    ts = np.linspace(0.1, pa.lam - 0.1, 50)
    vals = aa_bracket(ts, pa)
    assert np.all(np.diff(vals) < 0.0)
    for bad in (0.0, pa.lam, -1.0, pa.lam + 1.0):
        with pytest.raises(ParamError):
            aa_bracket(bad, pa)


# -- compiled search objective -------------------------------------------------

def decrements(theta):
    """The decrements w of nonincreasing knot values theta, the last knot's
    value 0: the objective's variables, theta_k = sum_{j >= k} w_j."""
    return -np.diff(np.append(theta, 0.0))


def knot_values(w):
    """theta_k = sum_{j >= k} w_j, as the objective sums them."""
    return np.cumsum(w[::-1])[::-1]


def _objective_cases():
    F2 = FinslerNorm.euclidean(2)
    F3 = FinslerNorm.ellipse(np.diag([1.0, 2.0, 3.0]))
    for F, q in ((F2, 2.0), (F3, 2.5)):
        n = F.dim
        for beta in (0.5, n - 0.5):                   # n - 0.5 > n - 1
            floor = q * (1.0 - beta / n)
            for variant, p in (("phi_series", None), ("exp_power", floor + 0.4)):
                params = FunctionalParams(n, q, beta, 0.5 * sharp_constant(F),
                                          2.0, 2.0, p=p, variant=variant)
                for mode in ("subcritical", "critical"):
                    yield pytest.param(params, F, mode,
                                       id=f"n{n}-beta{beta}-{variant}-{mode}")


@pytest.mark.parametrize("params,F,mode", list(_objective_cases()))
def test_radial_objective_matches_library(params, F, mode):
    knots = geometric_knots(6.0, 16)
    obj = RadialObjective(params, F, knots, mode)
    rng = np.random.default_rng(5)
    for _ in range(3):
        w = decrements(np.sort(rng.uniform(0.0, 1.0, knots.size - 1))[::-1])
        value, grad = obj.value_and_grad(w)
        # the library path: normalize or project, then re-evaluate
        g = RadialProfile(knots, np.append(knot_values(w), 0.0))
        if mode == "subcritical":
            image = normalize_sphere(g, params.q, F)
            want = atmsc_value(image, params, F)
        else:
            image = constraint_scale(g, params.a, params.b, F, params.q).scaled
            want = critical_value(image, params, F)
        assert value == pytest.approx(want, rel=1e-12)
        witness = obj.witness(w)
        assert np.array_equal(witness.knots, image.knots)
        assert np.array_equal(witness.values, image.values)
        fd = np.empty_like(w)
        for i in range(w.size):
            step = 1e-6 * max(w[i], 1e-2)
            up, down = w.copy(), w.copy()
            up[i] += step
            down[i] -= step
            fd[i] = (obj.value_and_grad(up)[0] - obj.value_and_grad(down)[0]) / (2 * step)
        assert np.max(np.abs(grad - fd)) <= 1e-6 * np.max(np.abs(fd))


def test_radial_objective_rejects_degenerate(gauge_euclid):
    knots = geometric_knots(6.0, 8)
    obj = RadialObjective(params_beta05(), gauge_euclid, knots, "critical")
    value, grad = obj.value_and_grad(np.zeros(knots.size - 1))
    assert value == -np.inf and np.all(grad == 0.0)
    assert obj.witness(np.zeros(knots.size - 1)) is None
    # a rate far above the sharp constant overflows the kernel: -inf, never
    # a non-finite gradient
    hot = RadialObjective(params_beta05(lam=1e5), gauge_euclid, knots, "critical")
    value, grad = hot.value_and_grad(decrements(np.linspace(1.0, 0.1, knots.size - 1)))
    assert value == -np.inf and np.all(grad == 0.0)
    with pytest.raises(ParamError):
        RadialObjective(params_beta05(), gauge_euclid, knots, "nope")


@pytest.mark.parametrize("params,F,mode", list(_objective_cases()))
def test_values_match_value_and_grad(params, F, mode):
    # value runs the forward pass of value_and_grad without the gradient, so
    # the two agree bit for bit (the critical case also with a != b, whose
    # constraint root comes from brentq)
    knots = geometric_knots(6.0, 16)
    rng = np.random.default_rng(11)
    thetas = np.sort(rng.uniform(0.0, 1.0, (12, knots.size - 1)), axis=1)[:, ::-1]
    thetas *= rng.uniform(0.05, 3.0, (12, 1))
    for ab in ((2.0, 2.0), (1.5, 3.0)) if mode == "critical" else ((2.0, 2.0),):
        obj = RadialObjective(replace(params, a=ab[0], b=ab[1]), F, knots, mode)
        for theta in thetas:
            w = decrements(theta)
            want = obj.value_and_grad(w)[0]
            assert np.isfinite(want)
            assert obj.value(w) == want


@pytest.mark.parametrize("mode", ["subcritical", "critical"])
def test_values_reject_bad_rows_alone(gauge_euclid, mode):
    # knots reaching 1e-120 let a Moser-type candidate concentrate far
    # beyond a cone, so one rate keeps the cone finite and overflows the spike
    params = params_beta05(lam=15.0 * sharp_constant(gauge_euclid))
    knots = np.concatenate([[0.0], np.geomspace(1e-120, 1.0, 24)])
    cone = 1.0 - knots[:-1]
    spike = np.append(1.0, np.log(knots[1:-1]) / np.log(knots[1]))
    tiny = np.full(knots.size - 1, 1e-15)
    zero = np.zeros(knots.size - 1)
    g = RadialProfile(knots, np.append(spike, 0.0))
    top = (normalize_sphere(g, params.q, gauge_euclid) if mode == "subcritical" else
           constraint_scale(g, params.a, params.b, gauge_euclid, params.q).scaled).values[0]
    assert params.lam * (1.0 - params.beta / 2.0) * top ** 2 > 690.0
    assert grad_norm_radial(RadialProfile(knots, np.append(tiny, 0.0)), gauge_euclid) <= 1e-14
    obj = RadialObjective(params, gauge_euclid, knots, mode)
    want = obj.value_and_grad(decrements(cone))[0]
    assert np.isfinite(want)
    assert obj.value(decrements(cone)) == want
    for bad in (zero, spike, tiny):
        assert obj.value(decrements(bad)) == -np.inf
        assert obj.value_and_grad(decrements(bad))[0] == -np.inf


@st.composite
def _stacks(draw):
    """Objectives differing only in lam, one per row, and a stack of
    candidates: n 2 or 3, beta up to beyond n - 1, the exp-power variant
    with p below and above 1, the critical mode with a != b, both rules."""
    n = draw(st.sampled_from([2, 3]))
    F = FinslerNorm.euclidean(2) if n == 2 else FinslerNorm.ellipse(np.diag([1.0, 2.0, 3.0]))
    q = draw(st.sampled_from([1.5, 2.0, 2.5, 3.0]))
    beta = draw(st.sampled_from([0.0, 0.5, n - 1.0, n - 0.5]))
    mode = draw(st.sampled_from(["subcritical", "critical"]))
    variant = draw(st.sampled_from(["phi_series", "exp_power"]))
    # p > q(1 - beta/n) for beta > 0, p >= q for beta = 0
    p = q * (1.0 - beta / n) + draw(st.sampled_from([1e-3, 0.3, 1.7])) if beta > 0.0 else q
    a, b = draw(st.sampled_from([(2.0, 2.0), (1.5, 3.0), (1.0, 0.7)]))
    rule = draw(st.sampled_from([ACCURATE, LEAN]))
    # up to 16 rows, as the sweep stacks: numpy's vectorized power, which
    # the scalar maps avoid, takes its SIMD path only on longer arrays
    rels = draw(st.lists(st.floats(0.05, 0.95), min_size=2, max_size=16))
    if draw(st.booleans()):
        rels = [rels[0]] * len(rels)
    knots = geometric_knots(6.0, 16)
    params = FunctionalParams(n, q, beta, 1.0, a, b, p=p, variant=variant)
    objs = [RadialObjective(params.with_lam(rel * sharp_constant(F)), F, knots, mode, rule)
            for rel in rels]
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    thetas = np.sort(rng.uniform(0.0, 1.0, (len(rels), knots.size - 1)), axis=1)[:, ::-1]
    return objs, np.array([decrements(t) for t in thetas * rng.uniform(0.05, 3.0, (len(rels), 1))])


@settings(max_examples=60, deadline=None)
@given(_stacks())
def test_stack_rows_are_one_row_passes(stack):
    # a stack's row i is bitwise objs[i]'s one-row pass, whatever the other
    # rows, their rates and the stack's size
    objs, w = stack
    values, grads = functional.evaluate_rows(objs, w)
    assert np.array_equal(functional.evaluate_rows(objs, w, grad=False)[0], values)
    assert grads.shape == w.shape
    for obj, row, value, grad in zip(objs, w, values, grads):
        want, want_grad = obj.value_and_grad(row)
        assert value == want and np.array_equal(grad, want_grad)
        assert obj.value(row) == want


@pytest.mark.parametrize("mode", ["subcritical", "critical"])
def test_long_stack_rows_are_one_row_passes(mode):
    # 64 rows with the powers 1/3, 1/2.5, 1.5 and 0.7 of the scalar maps,
    # which numpy's vectorized power gets wrong in the last bit for about
    # one input in twenty: each row still equals its one-row pass
    F = FinslerNorm.ellipse(np.diag([1.0, 2.0, 3.0]))
    params = FunctionalParams(3, 2.5, 1.0, 1.0, 1.5, 0.7)
    knots = geometric_knots(6.0, 16)
    rng = np.random.default_rng(7)
    objs = [RadialObjective(params.with_lam(rel * sharp_constant(F)), F, knots, mode, LEAN)
            for rel in rng.uniform(0.05, 0.95, 64)]
    thetas = np.sort(rng.uniform(0.0, 1.0, (64, knots.size - 1)), axis=1)[:, ::-1]
    w = np.array([decrements(t) for t in thetas * rng.uniform(0.05, 3.0, (64, 1))])
    values, grads = functional.evaluate_rows(objs, w)
    for obj, row, value, grad in zip(objs, w, values, grads):
        want, want_grad = obj.value_and_grad(row)
        assert value == want and np.array_equal(grad, want_grad)


@pytest.mark.parametrize("mode", ["subcritical", "critical"])
def test_stack_rejects_its_bad_rows_alone(gauge_euclid, mode):
    # the cases of test_values_reject_bad_rows_alone in one stack: the
    # degenerate and the overflowing rows get (-inf, 0), the others keep
    # their bits, and no warning is raised on the way
    params = params_beta05(lam=15.0 * sharp_constant(gauge_euclid))
    knots = np.concatenate([[0.0], np.geomspace(1e-120, 1.0, 24)])
    cone = 1.0 - knots[:-1]
    spike = np.append(1.0, np.log(knots[1:-1]) / np.log(knots[1]))
    w = np.array([decrements(t) for t in (cone, np.zeros(cone.size), 0.5 * cone, spike, 2.0 * cone)])
    obj = RadialObjective(params, gauge_euclid, knots, mode)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values, grads = functional.evaluate_rows([obj] * len(w), w)
    for i in (1, 3):
        assert values[i] == -np.inf and np.all(grads[i] == 0.0)
    for i in (0, 2, 4):
        want, want_grad = obj.value_and_grad(w[i])
        assert np.isfinite(want)
        assert values[i] == want and np.array_equal(grads[i], want_grad)


def test_blocked_stack_rejects_a_bad_row_in_its_block_alone(gauge_euclid, monkeypatch):
    # on the accurate rule at 64 knots (2,432 nodes) a stack goes through the
    # pass in blocks of a few rows, each row at its own rate; a degenerate row
    # in a middle block scores -inf and every other row keeps its one-row
    # score.  The lockstep rounds, at most 16 rows on the lean rule, stay one
    # block
    knots = geometric_knots(8.0, 64)
    params = params_beta05(lam=0.5 * sharp_constant(gauge_euclid))
    rows = functional._BLOCK_NODES // RadialObjective(params, gauge_euclid, knots,
                                                      "subcritical")._we.size
    objs = [RadialObjective(params.with_lam(rel * sharp_constant(gauge_euclid)),
                            gauge_euclid, knots, "subcritical")
            for rel in np.linspace(0.1, 0.9, 5 * rows)]
    rng = np.random.default_rng(5)
    thetas = np.sort(rng.uniform(0.0, 1.0, (5 * rows, knots.size - 1)), axis=1)[:, ::-1]
    w = np.array([decrements(t) for t in thetas])
    bad = 2 * rows + rows // 2
    w[bad] = 0.0
    passes = []
    evaluate = RadialObjective._evaluate
    monkeypatch.setattr(RadialObjective, "_evaluate",
                        lambda self, w, *args: passes.append(len(w)) or evaluate(self, w, *args))
    values, grads = functional.evaluate_rows(objs, w)
    assert passes[:3] == [rows] * 3 and 1 < rows
    assert values[bad] == -np.inf and np.all(grads[bad] == 0.0)
    assert np.array_equal(functional.evaluate_rows(objs, w, grad=False)[0], values)
    for i, (obj, row) in enumerate(zip(objs, w)):
        if i != bad:
            want, want_grad = obj.value_and_grad(row)
            assert values[i] == want and np.array_equal(grads[i], want_grad)
    lean = RadialObjective(params, gauge_euclid, knots, "critical", LEAN)
    passes.clear()
    functional.evaluate_rows([lean] * 16, w[:16])
    assert passes == [16]


def test_stack_needs_objectives_that_differ_only_in_lam(gauge_euclid):
    knots = geometric_knots(6.0, 16)
    w = decrements(np.linspace(1.0, 0.1, knots.size - 1))[None].repeat(2, axis=0)
    base = RadialObjective(params_beta05(), gauge_euclid, knots, "subcritical")
    functional.evaluate_rows([base, RadialObjective(params_beta05(lam=3.0), gauge_euclid,
                                                    knots, "subcritical")], w)
    for other in (RadialObjective(params_beta05(q=3.0), gauge_euclid, knots, "subcritical"),
                  RadialObjective(params_beta05(), gauge_euclid, knots, "critical"),
                  RadialObjective(params_beta05(), gauge_euclid, knots, "subcritical", LEAN),
                  RadialObjective(params_beta05(), gauge_euclid, 2.0 * knots, "subcritical")):
        with pytest.raises(ParamError, match="differ only in lam"):
            functional.evaluate_rows([base, other], w)


@pytest.mark.parametrize("mode", ["subcritical", "critical"])
def test_objectives_share_grid_operators(gauge_euclid, mode):
    # two rates on one grid, as at two points of the sweep
    knots = geometric_knots(6.0, 16)
    objs = [RadialObjective(params_beta05(lam=lam), gauge_euclid, knots, mode)
            for lam in (1.0, 3.0)]
    names = ("_h", "_wq", "_we", "_idx", "_frac", "_starts")
    for name in names:
        assert getattr(objs[0], name) is getattr(objs[1], name)
        assert not getattr(objs[0], name).flags.writeable
    rng = np.random.default_rng(3)
    thetas = np.sort(rng.uniform(0.0, 1.0, (4, knots.size - 1)), axis=1)[:, ::-1]
    for rule in (ACCURATE, LEAN):
        obj = RadialObjective(params_beta05(), gauge_euclid, knots, mode, rule)
        r = _radial_rule(knots, 2, 0.5, rule)[0]
        # the dense interpolation matrix from knot values to the nodes
        interp = np.column_stack([np.interp(r, knots, e) for e in np.eye(knots.size)])
        for theta in thetas:
            w = decrements(theta)
            # the objective's node values, from its shared operators
            u = knot_values(w)[obj._idx] - obj._frac * w[obj._idx]
            want = np.interp(r, knots, np.append(knot_values(w), 0.0))
            assert np.max(np.abs(u - want)) <= 4 * np.spacing(theta[0])
            nodes = rng.standard_normal(r.size)
            want = np.cumsum((interp.T @ nodes)[:-1])
            assert np.allclose(obj._pull_back(nodes), want, rtol=0.0,
                               atol=1e-13 * np.abs(nodes).sum())
    for obj in objs:
        functional._grid_operators.cache_clear()
        fresh = RadialObjective(obj.params, gauge_euclid, knots, mode)
        assert fresh._wq is not obj._wq
        for w in map(decrements, thetas):
            value, grad = obj.value_and_grad(w)
            want, want_grad = fresh.value_and_grad(w)
            assert value == want and np.array_equal(grad, want_grad)
            assert obj.value(w) == fresh.value(w)


@pytest.mark.parametrize("rule", [ACCURATE, LEAN])
def test_every_knot_interval_holds_a_node(rule):
    # the pull-back sums each interval's nodes with np.add.reduceat, which
    # returns the next node's term, not 0, for an empty interval
    for count in (2, 3, 8, 64, 256):
        for radius in (1e-3, 8.0, 1e4):
            knots = geometric_knots(radius, count)
            for n, beta in ((2, 0.0), (2, 0.5), (2, 1.5), (3, 1.0), (3, 2.5)):
                h, _, _, _, idx, frac, starts = functional._grid_operators(
                    knots.tobytes(), n, beta, rule)
                assert np.array_equal(np.unique(idx), np.arange(h.size))
                assert np.all(np.diff(idx) >= 0)
                assert np.array_equal(idx[starts], np.arange(h.size))
                assert frac.min() >= 0.0 and frac.max() <= 1.0
    # a 1-ulp interval whose substituted nodes all round past it
    narrow = np.array([0.0, 8941887537745108.0, 8941887537745109.0, 8941887537745114.0])
    with pytest.raises(ParamError, match="too narrow"):
        functional._grid_operators(narrow.tobytes(), 2, 1.5, rule)


@pytest.mark.parametrize("mode", ["subcritical", "critical"])
@pytest.mark.parametrize("rule", [ACCURATE, LEAN])
def test_single_decrement_keeps_profile_nonnegative(mode, rule):
    # theta_k = w_k on the last nonzero interval, so theta[idx] - frac w[idx]
    # must not round below 0 there, where u^{q-1} at q = 2.5 would be nan
    F = FinslerNorm.euclidean(3)
    params = FunctionalParams(3, 2.5, 1.0, 0.5 * sharp_constant(F), 2.0, 3.0)
    knots = geometric_knots(8.0, 64)
    obj = RadialObjective(params, F, knots, mode, rule)
    for j in (0, 5, 31, 62, 63):
        for top in (1.0, 0.3, 7.0 / 3.0):
            w = np.zeros(knots.size - 1)
            w[j] = top
            assert (knot_values(w)[obj._idx] - obj._frac * w[obj._idx]).min() >= 0.0
            value, grad = obj.value_and_grad(w)
            assert np.isfinite(value) and np.isfinite(grad).all()


@pytest.mark.parametrize("case", ["objective", "lq_norm", "normalize", "critical_fine"])
def test_grid_outside_float_range(gauge_euclid, case):
    # radius^2 overflows at radius 1e160; (smallest spacing)^-2 at 1e-200
    huge = geometric_knots(1e160, 8)
    fine = geometric_knots(1e-200, 8)
    g = RadialProfile(huge, np.linspace(1.0, 0.0, huge.size))
    build = {
        "objective": lambda: RadialObjective(params_beta05(), gauge_euclid, huge,
                                             "subcritical"),
        "lq_norm": lambda: lq_norm_radial(g, 2.0, gauge_euclid),
        "normalize": lambda: normalize_sphere(g, 2.0, gauge_euclid),
        "critical_fine": lambda: RadialObjective(params_beta05(), gauge_euclid, fine,
                                                 "critical"),
    }[case]
    with pytest.raises(ParamError, match="outside the floating-point range"):
        build()


@pytest.mark.parametrize("knots, cause", [
    ([1.0, 2.0, 3.0], "start at 0"),
    ([0.0, 2.0, 1.0, 3.0], "strictly increase"),
    ([0.0, 1.0, 1.0, 2.0], "strictly increase"),
    ([0.0, np.nan, 3.0], "finite"),
    ([0.0, 1.0, np.inf], "finite"),
    ([0.0], "1-d array of at least 2"),
    ([[0.0, 1.0], [2.0, 3.0]], "1-d array of at least 2"),
])
@pytest.mark.parametrize("mode", ["subcritical", "critical"])
def test_knot_grid_validation(gauge_euclid, knots, cause, mode):
    # the objective used to score [1, 2, 3] (4.793) though witness rejects
    # it, and to fail on the others with a misleading message or a traceback
    with pytest.raises(ParamError, match=cause):
        RadialObjective(params_beta05(), gauge_euclid, knots, mode)
    with pytest.raises(ParamError, match=cause):
        functional._check_grid(np.asarray(knots), 2)
