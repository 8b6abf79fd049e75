"""Gauge geometry: polar duality, Wulff volumes, and the identity suite.

Volume anchors come from closed forms (gamma-function expressions for
p-balls, determinant scaling for ellipsoids); identity checks draw random
points per gauge kind.
"""

import math
from math import gamma

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from anisotm import (FinslerNorm, WulffBall, GaugeError, wulff_volume,
                     sharp_constant, bipolar_residual, coarea_surface_check,
                     unit_ball_measure)
from anisotm import finsler
from anisotm.finsler import (_node_argmax, _node_hull, _polar_values_2d,
                             _polar_values_sphere, _row_norms, _sphere_grid,
                             _unit_coarea_integral)

# p-ball volumes 2 Gamma(1 + 1/p)^dim / Gamma(1 + dim/p) * 2^(dim-1),
# evaluated once and frozen
KAPPA_PNORM4_2D = 2.541639254381936       # dual exponent 4/3
KAPPA_PNORM15_2D = 3.533277500570898      # dual exponent 3
KAPPA_PNORM3_3D = 2.9427657258847137      # dual exponent 3/2
LAMBDA3_EUCLID = 10.634723105433096       # 3^{3/2} (4 pi / 3)^{1/2}


def rand_points(dim, count, seed):
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((count, dim)) * 1.3 + 0.05
    return pts


# -- volume and sharp-constant anchors ---------------------------------------

def test_kappa_closed_forms(gauge_euclid, gauge_ellipse, gauge_pnorm4):
    assert abs(wulff_volume(gauge_euclid) - np.pi) < 1e-10
    # Wulff ball of sqrt(x^T A x) is the A^{-1} ellipse, area pi sqrt(det A)
    assert abs(wulff_volume(gauge_ellipse) - 2.0 * np.pi) < 1e-10
    assert abs(wulff_volume(gauge_pnorm4) - KAPPA_PNORM4_2D) < 1e-10
    assert abs(wulff_volume(FinslerNorm.pnorm(1.5)) - KAPPA_PNORM15_2D) < 1e-10


def test_kappa_3d():
    assert abs(wulff_volume(FinslerNorm.euclidean(3)) - 4.0 * np.pi / 3.0) < 1e-10
    ell = FinslerNorm.ellipse([[4.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    assert abs(wulff_volume(ell) - 8.0 * np.pi / 3.0) < 1e-8
    got = wulff_volume(FinslerNorm.pnorm(3.0, 3))
    assert abs(got - KAPPA_PNORM3_3D) / KAPPA_PNORM3_3D < 1e-7


def test_sharp_constants(gauge_euclid, gauge_maxgauge):
    assert abs(sharp_constant(gauge_euclid) - 4.0 * np.pi) < 1e-10
    assert abs(sharp_constant(gauge_maxgauge) - 8.0) < 1e-6
    assert abs(sharp_constant(FinslerNorm.euclidean(3)) - LAMBDA3_EUCLID) < 1e-10


def test_unit_ball_measure_is_gauge_volume(gauge_ellipse):
    # unit_ball_measure takes the gauge itself; kappa takes its polar
    assert abs(unit_ball_measure(gauge_ellipse) - np.pi / 2.0) < 1e-10


CLOSED_GAUGES = {
    "euclidean": lambda n: FinslerNorm.euclidean(n),
    "pnorm1.5": lambda n: FinslerNorm.pnorm(1.5, n),
    "pnorm4": lambda n: FinslerNorm.pnorm(4.0, n),
    "ellipse": lambda n: FinslerNorm.ellipse(
        [[4.0, 1.0], [1.0, 2.0]] if n == 2 else np.diag([4.0, 1.0, 2.0])),
}


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("kind", sorted(CLOSED_GAUGES))
def test_unit_ball_measure_matches_closed_kappa(kind, dim):
    # wulff_volume takes closed forms for these kinds; the quadrature it no
    # longer calls on them must still reproduce them (the 3-d l^4 polar,
    # l^{4/3}, has the slowest equator kink: 8.3e-8)
    F = CLOSED_GAUGES[kind](dim)
    kappa = wulff_volume(F)
    tol = 1e-10 if dim == 2 else 1e-7
    assert abs(unit_ball_measure(F.polar()) - kappa) / kappa < tol


def test_unit_ball_measure_3d_closed_form():
    # the 3-d rule runs in blocks of rows; the l^4 ball has volume
    # (2 Gamma(1 + 1/4))^3 / Gamma(1 + 3/4)
    exact = (2.0 * gamma(1.25)) ** 3 / gamma(1.75)
    got = unit_ball_measure(FinslerNorm.pnorm(4.0, 3))
    assert abs(got - exact) / exact < 1e-7


def test_sampled_sphere_kappa():
    # the 3-d sampled path is the one caller of the 3-d kappa quadrature
    F = FinslerNorm.sampled_sphere(np.ones((17, 32)))
    assert abs(wulff_volume(F) - 4.0 * np.pi / 3.0) < 1e-12
    A = np.diag([4.0, 1.0, 1.0])
    exact = 4.0 * np.pi / 3.0 * np.sqrt(np.linalg.det(A))
    vals = FinslerNorm.ellipse(A)(_sphere_grid(33, 64)).reshape(33, 64)
    for rule, tol in (("spline", 1e-5), ("linear", 5e-3)):   # 3.4e-6, 2.4e-3
        got = wulff_volume(FinslerNorm.sampled_sphere(vals, rule=rule))
        assert abs(got - exact) / exact < tol, rule


def _bilinear_reference(values, x):
    """Direct bilinear interpolation of a sampled_sphere table at the
    directions of x, with phi closed by the wraparound column."""
    gt = np.linspace(0.0, np.pi, values.shape[0])
    gp = np.arange(values.shape[1] + 1) * (2.0 * np.pi / values.shape[1])
    vv = np.concatenate([values, values[:, :1]], axis=1)
    r = np.linalg.norm(x, axis=1)
    th = np.arccos(np.clip(x[:, 2] / r, -1.0, 1.0))
    ph = np.mod(np.arctan2(x[:, 1], x[:, 0]), 2.0 * np.pi)
    it = np.clip(np.searchsorted(gt, th) - 1, 0, gt.size - 2)
    ip = np.clip(np.searchsorted(gp, ph) - 1, 0, gp.size - 2)
    wt = (th - gt[it]) / (gt[it + 1] - gt[it])
    wp = (ph - gp[ip]) / (gp[ip + 1] - gp[ip])
    return r * ((1 - wt) * (1 - wp) * vv[it, ip] + (1 - wt) * wp * vv[it, ip + 1]
                + wt * (1 - wp) * vv[it + 1, ip] + wt * wp * vv[it + 1, ip + 1])


def test_sampled_sphere_linear_is_bilinear():
    # in 3-d, 'linear' and 'pchip' are one bilinear interpolant
    vals = FinslerNorm.ellipse(np.diag([4.0, 1.0, 2.0]))(
        _sphere_grid(33, 64)).reshape(33, 64)
    lin = FinslerNorm.sampled_sphere(vals, rule="linear")
    pch = FinslerNorm.sampled_sphere(vals, rule="pchip")
    x = rand_points(3, 2000, 11)
    got = lin(x)
    assert np.array_equal(got, pch(x))
    ref = _bilinear_reference(vals, x)
    assert np.max(np.abs(got - ref) / ref) < 1e-14


# -- polar duality ------------------------------------------------------------

def test_polar_pnorm_is_dual_exponent(gauge_pnorm4):
    pts = rand_points(2, 300, 1)
    pol = gauge_pnorm4.polar()
    direct = (np.abs(pts) ** (4.0 / 3.0)).sum(axis=-1) ** (3.0 / 4.0)
    assert np.max(np.abs(pol(pts) - direct) / direct) < 1e-12


def test_polar_ellipse_is_inverse_matrix(gauge_ellipse):
    pts = rand_points(2, 300, 2)
    pol = gauge_ellipse.polar()
    inv = np.linalg.inv([[4.0, 0.0], [0.0, 1.0]])
    direct = np.sqrt(np.einsum("ki,ij,kj->k", pts, inv, pts))
    assert np.max(np.abs(pol(pts) - direct) / direct) < 1e-12


def test_polar_sampled_matches_closed_form():
    # tabulate the ellipse gauge, then compare the swept polar to the exact one
    n = 4096
    th = np.arange(n) * (2.0 * np.pi / n)
    dirs = np.column_stack([np.cos(th), np.sin(th)])
    ell = FinslerNorm.ellipse([[4.0, 0.0], [0.0, 1.0]])
    samp = FinslerNorm.sampled(ell(dirs), rule="spline")
    pts = rand_points(2, 300, 3)
    exact = ell.polar()(pts)
    assert np.max(np.abs(samp.polar()(pts) - exact) / exact) < 1e-6


def test_polar_is_involution_on_closed_forms(gauge_euclid, gauge_ellipse,
                                             gauge_pnorm4):
    for F in (gauge_euclid, gauge_ellipse, gauge_pnorm4):
        assert bipolar_residual(F, sample_count=200) < 1e-10
        # seed 700 draws one point with |x| = 0.071; only the origin is dropped
        assert bipolar_residual(F, sample_count=1, seed=700) < 1e-10


def test_bipolar_residual_sees_a_perturbed_closed_form_dual():
    # the closed-form bipolar is built from the polar's own parameters, so a
    # dual that is off shows; the polar does not link back to F
    F = FinslerNorm.pnorm(4.0)
    F.polar().p += 0.01
    assert bipolar_residual(F, sample_count=200) > 1e-6
    E = FinslerNorm.ellipse([[4.0, 1.0], [1.0, 1.0]])
    E.polar().matrix = 1.01 * E.polar().matrix
    assert bipolar_residual(E, sample_count=200) > 1e-6
    with pytest.raises(GaugeError, match=">= 1 sample"):
        bipolar_residual(E, sample_count=0)


def test_bipolar_residual_sampled(gauge_maxgauge, gauge_sampled_smooth,
                                  monkeypatch):
    seeded = _small_sampled("seeded", n=4096)
    seeded.polar()
    # F00 is swept at the sample points only: no second sampled gauge is built
    inits = []
    init = FinslerNorm.__init__
    monkeypatch.setattr(FinslerNorm, "__init__",
                        lambda self, *a, **k: inits.append(1) or init(self, *a, **k))
    for F in (gauge_maxgauge, gauge_sampled_smooth, seeded):
        assert bipolar_residual(F, sample_count=100) < 1e-8
        assert bipolar_residual(F, sample_count=1, seed=700) < 1e-8
    assert inits == []


def _small_sampled(kind, n=256):
    th = np.arange(n) * (2.0 * np.pi / n)
    if kind == "maxgauge":       # boundary nodes lie collinear on the square
        return FinslerNorm.sampled(np.maximum(np.abs(np.cos(th)), np.abs(np.sin(th))),
                                   rule="linear")
    if kind == "seeded":
        rng = np.random.default_rng(5)
        a2, a4 = rng.uniform(0.02, 0.1), rng.uniform(0.0, 0.02)
        p2, p4 = rng.uniform(0.0, np.pi, 2)
        return FinslerNorm.sampled(1.0 + a2 * np.cos(2.0 * (th - p2))
                                   + a4 * np.cos(4.0 * (th - p4)), rule="pchip")
    # dented: two narrow bumps in F pull the unit sphere inward, so the
    # ratio along the nodes has local maxima a monotone sweep can stop at
    dent = (0.4 * np.exp(-((th - 1.0) / 0.08) ** 2)
            + 0.25 * np.exp(-((th - 4.0) / 0.05) ** 2))
    return FinslerNorm.sampled(1.0 + dent, rule="linear")


@pytest.mark.parametrize("kind", ["maxgauge", "seeded", "dented"])
def test_node_argmax_matches_brute_force(kind):
    F = _small_sampled(kind)
    out = np.linspace(0.0, 2.0 * np.pi, 1031, endpoint=False)
    ratios = np.cos(out[:, None] - F.thetas[None, :]) / F.values[None, :]
    brute = ratios.max(axis=1)
    idx = _node_argmax(F, out, _node_hull(F))
    got = ratios[np.arange(out.size), idx]
    # collinear nodes tie up to rounding: the values must agree, not the index
    assert np.max(np.abs(got - brute) / brute) <= 1e-15
    if kind == "seeded":
        top2 = np.sort(ratios, axis=1)[:, -2:]
        clear = top2[:, 1] - top2[:, 0] > 1e-13 * top2[:, 1]
        assert np.array_equal(idx[clear], ratios.argmax(axis=1)[clear])


def test_sampled_polar_rejects_dents(gauge_maxgauge, gauge_sampled_smooth):
    with pytest.raises(GaugeError, match="not convex.*angle 1.006"):
        _small_sampled("dented").polar()
    # collinear nodes (the max gauge's square edges) are convex
    for F in (_small_sampled("maxgauge"), _small_sampled("seeded"),
              gauge_maxgauge, gauge_sampled_smooth):
        _polar_values_2d(F, F.thetas)


def test_polar_refinement_evaluates_once_per_step(gauge_sampled_smooth):
    # 40 golden-section steps: two starting points, one point per step and
    # the bracket midpoint
    F = FinslerNorm.sampled(gauge_sampled_smooth.values, rule="spline")
    calls = []
    inner = F._at_angle
    F._at_angle = lambda phi: calls.append(1) or inner(phi)
    F.polar()
    assert len(calls) == 43


def _golden_max_where(h, a, b, iterations):
    """The golden section as first written, one np.where per array per step:
    the reference the in-place arithmetic must match bit for bit."""
    g = finsler._GOLDEN
    c = b - g * (b - a)
    d = a + g * (b - a)
    hc, hd = h(c), h(d)
    for _ in range(iterations):
        take = hc >= hd
        b = np.where(take, d, b)
        a = np.where(take, a, c)
        new = np.where(take, b - g * (b - a), a + g * (b - a))
        hn = h(new)
        c, d = np.where(take, new, d), np.where(take, c, new)
        hc, hd = np.where(take, hn, hd), np.where(take, hc, hn)
    return a, b


def _wrap_angle_mod(t):
    return np.mod(t, 2.0 * np.pi)


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


TWO_PI = 2.0 * np.pi
WRAP_EDGES = [-0.0, -1e-300, -5e-324, -TWO_PI, np.nextafter(-TWO_PI, 0.0), 0.0,
              np.nextafter(TWO_PI, 0.0), TWO_PI, np.nextafter(TWO_PI, np.inf),
              np.nextafter(2.0 * TWO_PI, 0.0)]


@settings(max_examples=300, deadline=None)
@given(t=st.lists(st.floats(-TWO_PI, 2.0 * TWO_PI, exclude_max=True),
                  min_size=1, max_size=20))
def test_wrap_angle_is_mod_bitwise(t):
    # on [-2 pi, 4 pi), the callers' domain, the wrap is np.mod bit for bit,
    # signed zeros and tiny negatives (which round up to 2 pi) included
    t = np.array(t + WRAP_EDGES)
    assert np.array_equal(_bits(finsler._wrap_angle(t)), _bits(_wrap_angle_mod(t)))


def _bench_seeded(n=4096):
    """The benchmark's seeded pchip gauge at seed 0."""
    th = np.arange(n) * (2.0 * np.pi / n)
    rng = np.random.default_rng((0, 0))
    a2, a4 = rng.uniform(0.02, 0.1), rng.uniform(0.0, 0.02)
    p2, p4 = rng.uniform(0.0, np.pi, 2)
    return FinslerNorm.sampled(1.0 + a2 * np.cos(2.0 * (th - p2))
                               + a4 * np.cos(4.0 * (th - p4)), rule="pchip")


def test_polar_values_match_reference(gauge_maxgauge, gauge_sampled_smooth,
                                      monkeypatch):
    shape = (17, 32)
    d = _sphere_grid(*shape)
    ellipsoid = FinslerNorm.sampled_sphere(
        FinslerNorm.ellipse(np.diag([4.0, 1.0, 2.0]))(d).reshape(shape), rule="spline")
    planar = (gauge_maxgauge, gauge_sampled_smooth, _bench_seeded())
    new = [_polar_values_2d(F, F.thetas) for F in planar]
    new3 = _polar_values_sphere(ellipsoid, d)
    monkeypatch.setattr(finsler, "_golden_max", _golden_max_where)
    monkeypatch.setattr(finsler, "_wrap_angle", _wrap_angle_mod)
    for F, values in zip(planar, new):
        assert np.array_equal(_polar_values_2d(F, F.thetas), values)
    assert np.array_equal(_polar_values_sphere(ellipsoid, d), new3)


def test_sphere_polar_blocks_match_one_block(monkeypatch):
    # the 3-d polar runs a block of output directions at a time; any block
    # size, including a ragged last block, gives the one-block values
    T, P = np.meshgrid(np.linspace(0.0, np.pi, 17), np.arange(32) * (np.pi / 16),
                       indexing="ij")
    d = np.stack([np.sin(T) * np.cos(P), np.sin(T) * np.sin(P), np.cos(T)], axis=-1)
    F = FinslerNorm.sampled_sphere(np.sqrt(np.einsum("...i,i,...i->...", d,
                                                     [4.0, 1.0, 2.0], d)),
                                   rule="spline")
    monkeypatch.setattr(finsler, "_POLAR_BLOCK", 17 * 32)
    dirs = _sphere_grid(17, 32)
    whole = _polar_values_sphere(F, dirs)
    for block in (512, 100):
        monkeypatch.setattr(finsler, "_POLAR_BLOCK", block)
        assert np.array_equal(_polar_values_sphere(F, dirs), whole)


def test_uneven_sampled_gauge_closed_form():
    # F(xi) = |xi| + e xi_1 is convex and 1-homogeneous but not even; its
    # Wulff ball {F0 <= 1} is the unit disc centred at (e, 0), so kappa = pi
    # and F0 solves (1 - e^2) F0^2 + 2 e x_1 F0 - |x|^2 = 0
    e, n = 0.3, 4096
    th = np.arange(n) * (2.0 * np.pi / n)
    F = FinslerNorm.sampled(1.0 + e * np.cos(th), rule="spline")
    assert F(np.array([1.0, 0.0])) == pytest.approx(1.0 + e, rel=1e-15)
    assert F(np.array([-1.0, 0.0])) == pytest.approx(1.0 - e, rel=1e-15)
    assert abs(wulff_volume(F) - np.pi) < 1e-12
    x = rand_points(2, 400, 6)
    exact = (-e * x[:, 0] + np.sqrt(e ** 2 * x[:, 0] ** 2 + (1.0 - e ** 2)
                                    * np.sum(x ** 2, axis=1))) / (1.0 - e ** 2)
    assert np.max(np.abs(F.polar()(x) - exact) / exact) < 1e-12
    assert bipolar_residual(F, sample_count=200) < 1e-12


# -- independent oracle for the closed-form kernels ---------------------------

COORDS = st.one_of(st.just(0.0), st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3))


@st.composite
def closed_form_gauges(draw):
    """A Euclidean, l^p (1 < p < 8) or random SPD ellipse gauge in 2-d or 3-d,
    with a few points."""
    dim = draw(st.sampled_from((2, 3)))
    kind = draw(st.sampled_from(("euclidean", "pnorm", "ellipse")))
    if kind == "euclidean":
        F = FinslerNorm.euclidean(dim)
    elif kind == "pnorm":
        F = FinslerNorm.pnorm(draw(st.floats(1.0, 8.0, exclude_min=True,
                                             exclude_max=True)), dim)
    else:
        eig = draw(st.lists(st.floats(0.25, 4.0), min_size=dim, max_size=dim))
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        a = q @ np.diag(eig) @ q.T
        F = FinslerNorm.ellipse(0.5 * (a + a.T))
    pts = draw(st.lists(st.lists(COORDS, min_size=dim, max_size=dim),
                        min_size=1, max_size=6))
    return F, np.array(pts)


def oracle_value(F, x):
    """F(x) for one point, evaluated at 120-bit precision.

    The l^p sum is not scaled by the largest coordinate, as the library's is,
    and no step is rounded to double, so this is independent of the kernel
    it checks.  (A double-precision math.fsum evaluation is itself up to
    2 ulps off the true value, which would leave a 4-ulp bound no headroom.)
    """
    with mpmath.workprec(120):
        x = [mpmath.mpf(v) for v in x]
        if F.kind == "euclidean":
            return float(mpmath.sqrt(mpmath.fsum(v * v for v in x)))
        if F.kind == "pnorm":
            p = mpmath.mpf(F.p)
            return float(mpmath.fsum(abs(v) ** p for v in x) ** (1 / p))
        a = F.matrix
        return float(mpmath.sqrt(mpmath.fsum(x[i] * mpmath.mpf(a[i, j]) * x[j]
                                             for i in range(F.dim)
                                             for j in range(F.dim))))


@settings(max_examples=150, deadline=None)
@given(case=closed_form_gauges(), scale=st.floats(1e-3, 1e3))
def test_closed_form_kernels_match_oracle(case, scale):
    F, pts = case
    got = F(pts)
    for value, x in zip(got, pts.tolist()):
        want = oracle_value(F, x)
        assert abs(value - want) <= 3.0 * math.ulp(want), (x, value, want)
    # positively 1-homogeneous: exact under binary scaling, to rounding otherwise
    assert np.array_equal(F(0.25 * pts), 0.25 * got)
    assert np.array_equal(F(8.0 * pts), 8.0 * got)
    scaled = F(scale * pts)
    assert np.all(np.abs(scaled - scale * got) <= 8.0 * np.spacing(scale * got))
    # the Euclidean kind and the sampled radius are np.linalg.norm, bitwise
    norm = np.linalg.norm(pts, axis=1)
    assert np.array_equal(_row_norms(pts), norm)
    assert np.array_equal(FinslerNorm.euclidean(F.dim)(pts), norm)


def spread_points(rng, count, dim):
    """Gaussian directions scaled by 10^s, s uniform on [-3, 3]: six decades."""
    return (rng.standard_normal((count, dim))
            * 10.0 ** rng.uniform(-3.0, 3.0, (count, 1)))


@settings(max_examples=200, deadline=None)
@given(case=closed_form_gauges(), seed=st.integers(0, 2 ** 32 - 1))
def test_gauge_identities_over_six_decades(case, seed):
    F, _ = case
    rng = np.random.default_rng(seed)
    x, y = spread_points(rng, 50, F.dim), spread_points(rng, 50, F.dim)
    fx = F(x)
    # Euler: <grad F(x), x> = F(x) for a 1-homogeneous F
    euler = np.einsum("ki,ki->k", F.grad(x), x)
    assert np.max(np.abs(euler - fx) / fx) <= 1e-13
    # duality: grad F0 lies on the unit sphere of F.  For l^p, grad F0
    # raises the rounded |x_i| / F0 to the power p' - 1 (p' = p/(p-1)), so
    # its error grows like p' ulps: 2.3e-13 at p = 1.001, 1.7e-11 at 1 + 1e-5
    conj = F.polar().p if F.kind == "pnorm" else 1.0
    assert np.max(np.abs(F(F.polar().grad(x)) - 1.0)) <= 1e-13 * max(1.0, conj / 100.0)
    # triangle inequality, up to one rounding of the sum
    assert np.all(F(x + y) <= (fx + F(y)) * (1.0 + 1e-15))


# -- identity suite -----------------------------------------------------------

def identity_residuals(F, pts):
    P = F.polar()
    x = pts
    y = pts[::-1] * 0.7 + 0.1
    g = F.grad(x)
    gp = P.grad(x)
    res = {}
    res["triangle"] = float(np.max(np.maximum(F(x + y) - F(x) - F(y), 0.0)
                                   / np.maximum(F(x + y), 1e-300)))
    res["euler"] = float(np.max(np.abs(np.sum(x * g, axis=-1) - F(x)) / F(x)))
    res["grad_homog"] = float(np.max(np.abs(F.grad(2.7 * x) - g)
                                     / np.maximum(np.abs(g), 1.0)))
    res["grad_odd"] = float(np.max(np.abs(F.grad(-2.7 * x) + g)
                                   / np.maximum(np.abs(g), 1.0)))
    res["dual_unit"] = max(float(np.max(np.abs(F(gp) - 1.0))),
                           float(np.max(np.abs(P(g) - 1.0))))
    rec = F(x)[:, None] * P.grad(g)
    res["inversion"] = float(np.max(np.linalg.norm(rec - x, axis=-1)
                                    / np.linalg.norm(x, axis=-1)))
    return res


@pytest.mark.parametrize("kind", ["euclidean", "pnorm", "ellipse", "sampled"])
def test_identities_per_kind(kind, gauge_euclid, gauge_pnorm4, gauge_ellipse,
                             gauge_sampled_smooth):
    F = {"euclidean": gauge_euclid, "pnorm": gauge_pnorm4,
         "ellipse": gauge_ellipse, "sampled": gauge_sampled_smooth}[kind]
    res = identity_residuals(F, rand_points(2, 200, 11))
    worst = max(res.values())
    assert worst < 1e-6, res


def test_identities_3d():
    pts = rand_points(3, 200, 12)
    for F in (FinslerNorm.euclidean(3), FinslerNorm.pnorm(3.0, 3)):
        assert max(identity_residuals(F, pts).values()) < 1e-6


def test_coarea_closed_forms(gauge_euclid, gauge_ellipse):
    for F in (gauge_euclid, gauge_ellipse):
        for r in (0.5, 1.0, 2.0):
            assert abs(coarea_surface_check(F, r)) < 1e-8


def test_coarea_sampled_and_3d(gauge_maxgauge):
    assert abs(coarea_surface_check(gauge_maxgauge, 1.0)) < 1e-8
    assert abs(coarea_surface_check(FinslerNorm.euclidean(3), 1.0)) < 1e-10
    assert abs(coarea_surface_check(FinslerNorm.pnorm(3.0, 3), 1.0)) < 1e-5


# -- Wulff balls --------------------------------------------------------------

def test_wulff_ball_membership_and_volume(gauge_ellipse):
    # the Wulff ball of F is a sublevel set of the polar gauge
    pol = gauge_ellipse.polar()
    ball = WulffBall(pol, radius=1.5, center=(0.3, -0.2))
    assert abs(ball.volume() - 2.0 * np.pi * 1.5 ** 2) < 1e-8
    pts = rand_points(2, 200, 4)
    inside = pol(pts - np.array([0.3, -0.2])) <= 1.5
    assert np.array_equal(ball.contains(pts), inside)
    with pytest.raises(GaugeError):
        WulffBall(pol, radius=0.0)


@pytest.mark.parametrize("fn", [FinslerNorm.direction_bounds, FinslerNorm.polar,
                                wulff_volume, _unit_coarea_integral],
                         ids=lambda fn: fn.__name__)
@pytest.mark.parametrize("gauge", ["gauge_ellipse", "gauge_sampled_smooth"])
def test_derived_geometry_is_cached(fn, gauge, request):
    # the first call stores its result on the gauge; later calls return it,
    # and it is what a fresh computation gives
    F = request.getfixturevalue(gauge)
    first = fn(F)
    assert fn(F) is first
    fresh = fn.__wrapped__(F)
    if isinstance(first, FinslerNorm):
        assert fresh is not first and fresh.config() == first.config()
    else:
        assert np.array_equal(fresh, first)


def test_direction_bounds(gauge_ellipse):
    a, b = gauge_ellipse.direction_bounds()
    assert abs(a - 1.0) < 1e-9 and abs(b - 2.0) < 1e-9


# -- validation ---------------------------------------------------------------

def test_rejects_bad_inputs():
    with pytest.raises(GaugeError):
        FinslerNorm.euclidean(4)
    with pytest.raises(GaugeError):
        FinslerNorm.pnorm(1.0)
    with pytest.raises(GaugeError):
        FinslerNorm.ellipse([[1.0, 2.0], [0.0, 1.0]])        # not symmetric
    with pytest.raises(GaugeError):
        FinslerNorm.ellipse([[-1.0, 0.0], [0.0, 1.0]])       # not positive
    with pytest.raises(GaugeError):
        FinslerNorm.sampled(np.zeros(64))                    # not positive
    with pytest.raises(GaugeError):
        FinslerNorm.sampled(np.ones(3))                      # too few nodes


def test_sampled_gauges_vanish_at_origin(gauge_maxgauge, gauge_sampled_smooth):
    # zero rows are zeroed after the directional lookup, which must stay
    # finite and silent there; other rows are unaffected
    shape = (17, 32)
    sphere = FinslerNorm.sampled_sphere(np.ones(shape) * 2.0, rule="spline")
    for F in (gauge_maxgauge, gauge_sampled_smooth, _bench_seeded(), sphere):
        pts = rand_points(F.dim, 5, 13)
        mixed = np.vstack([pts[:2], np.zeros((2, F.dim)), pts[2:]])
        with np.errstate(all="raise"):
            got = F(mixed)
        assert np.array_equal(got[[2, 3]], [0.0, 0.0])
        assert np.array_equal(np.delete(got, [2, 3]), F(pts))
        assert F(np.zeros(F.dim)) == 0.0


def test_grad_rejects_origin(gauge_euclid):
    with pytest.raises(GaugeError):
        gauge_euclid.grad(np.zeros(2))


def test_from_config_round_trip(gauge_pnorm4):
    spec = gauge_pnorm4.config()
    again = FinslerNorm.from_config(spec, dim=2)
    pts = rand_points(2, 50, 5)
    assert np.allclose(again(pts), gauge_pnorm4(pts), rtol=0, atol=1e-14)
    with pytest.raises(GaugeError):
        FinslerNorm.from_config({"kind": "nope"}, dim=2)
