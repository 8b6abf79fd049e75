"""Grid layer: rearrangement, symmetrization, and the inequality harnesses.

The core oracle is a 6 x 6 grid with unit cells whose inner 4 x 4 block
holds four 1.0s, eight 0.5s, and four 0.2s; every rearrangement quantity is
then countable by hand.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from anisotm import (GridFunction, StepRearrangement, SupportOverflowError,
                     SymmetryError, distribution_function,
                     decreasing_rearrangement, convex_symmetrization,
                     profile_of, rasterize_profile, grid_lq_norm,
                     grid_dirichlet_energy, grid_atmsc_value,
                     hardy_littlewood_check, polya_szego_check, symmetry_gap,
                     equimeasurability_gaps, disc_tolerance, DISC_TOL_COEFF,
                     RadialProfile, FunctionalParams, FunctionalOverflowError,
                     ParamError, dirichlet_energy_radial, FinslerNorm,
                     wulff_volume, maximizer_diagnostics)
import anisotm.rearrange as rearrange
from anisotm.rearrange import _wulff_field
from conftest import CORPUS_NAMES, corpus_grid


@pytest.fixture
def hand_grid():
    vals = np.zeros((6, 6))
    vals[1:5, 1:5] = [[1.0, 0.5, 0.5, 0.2],
                      [0.5, 1.0, 0.2, 0.5],
                      [0.2, 0.5, 1.0, 0.5],
                      [0.5, 0.2, 0.5, 1.0]]
    return GridFunction(3.0, vals)


# -- grid container -----------------------------------------------------------

def test_grid_validation():
    with pytest.raises(ValueError):
        GridFunction(1.0, np.zeros(8))                     # 1-d
    with pytest.raises(ValueError):
        GridFunction(1.0, np.zeros((4, 5)))                # not a cube
    with pytest.raises(ValueError):
        GridFunction(1.0, np.zeros((3, 3)))                # too small
    with pytest.raises(ValueError):
        GridFunction(0.0, np.zeros((4, 4)))                # bad halfwidth
    bad = np.zeros((4, 4))
    bad[1, 1] = -1.0
    with pytest.raises(ValueError):
        GridFunction(1.0, bad)                             # negative value
    bad = np.zeros((4, 4))
    bad[0, 2] = 1.0
    with pytest.raises(ValueError):
        GridFunction(1.0, bad)                             # nonzero boundary


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1e-300, -5e-324])
def test_grid_rejects_values_that_are_not_finite_and_nonnegative(bad):
    vals = np.zeros((6, 6))
    vals[2, 3] = bad
    with pytest.raises(ValueError, match="grid values must be finite and nonnegative"):
        GridFunction(1.0, vals)


def test_grid_accepts_negative_zero():
    vals = np.full((6, 6), -0.0)
    vals[2, 3] = 1.0
    u = GridFunction(1.0, vals)
    assert u.values.tobytes() == vals.tobytes()


def test_grid_function_is_immutable():
    vals = np.zeros((6, 6))
    vals[2, 3] = 1.0
    u = GridFunction(1.0, vals)
    vals[2, 2] = 5.0                      # the caller's array stays writable
    assert u.values[2, 2] == 0.0
    with pytest.raises(ValueError):
        u.values[2, 2] = 5.0
    with pytest.raises(ValueError):             # shared through the cache
        decreasing_rearrangement(u).values[0] = 5.0


def test_grid_geometry(hand_grid):
    assert hand_grid.h == 1.0
    assert hand_grid.cell_volume == 1.0
    assert hand_grid.dim == 2 and hand_grid.m == 6
    assert np.allclose(hand_grid.axis_centers(),
                       [-2.5, -1.5, -0.5, 0.5, 1.5, 2.5])
    c = hand_grid.centers()
    assert c.shape == (6, 6, 2)
    assert np.allclose(c[0, 0], [-2.5, -2.5])


def test_grid_text_round_trip(tmp_path, hand_grid):
    path = tmp_path / "grid.txt"
    hand_grid.save(path)
    back = GridFunction.from_file(path)
    assert back.halfwidth == hand_grid.halfwidth
    assert np.array_equal(back.values, hand_grid.values)
    path.write_text("2 1.0\n")
    with pytest.raises(ValueError):
        GridFunction.from_file(path)
    path.write_text("2 1.0 4\n1 2 3\n")
    with pytest.raises(ValueError):
        GridFunction.from_file(path)


def test_grid_json_round_trip(hand_grid):
    back = GridFunction.from_json({"n": hand_grid.dim, "l": hand_grid.halfwidth,
                                   "m": hand_grid.m, "values": hand_grid.values.ravel().tolist()})
    assert back.halfwidth == hand_grid.halfwidth
    assert np.array_equal(back.values, hand_grid.values)
    with pytest.raises(ValueError):
        GridFunction.from_json({"n": 2, "l": 1.0, "m": 4})
    with pytest.raises(ValueError):
        GridFunction.from_json({"n": 2, "l": 1.0, "m": 4, "values": [0.0]})


# -- rearrangement ------------------------------------------------------------

def test_decreasing_rearrangement_hand(hand_grid):
    r = decreasing_rearrangement(hand_grid)
    assert np.array_equal(r.breakpoints, [4.0, 12.0, 16.0])
    assert np.array_equal(r.values, [1.0, 0.5, 0.2])
    assert r.total_support == 16.0


def test_rearrangement_right_continuity(hand_grid):
    r = decreasing_rearrangement(hand_grid)
    got = r(np.array([0.0, 3.9, 4.0, 11.9, 12.0, 15.9, 16.0, 99.0]))
    assert np.array_equal(got, [1.0, 1.0, 0.5, 0.5, 0.2, 0.2, 0.0, 0.0])


def mass(r, q):
    """sum (t_k - t_{k-1}) values_k^q of the step rearrangement r: the
    ||u||_q^q of its source, if r is equimeasurable with it."""
    widths = np.diff(np.concatenate([[0.0], r.breakpoints]))
    return float(np.sum(widths * r.values ** q))


def test_rearrangement_mass_equals_lq(hand_grid):
    r = decreasing_rearrangement(hand_grid)
    assert mass(r, 2.0) == pytest.approx(6.16, rel=1e-14)
    for q in (1.0, 2.0, 3.7):
        assert mass(r, q) == pytest.approx(grid_lq_norm(hand_grid, q) ** q,
                                          rel=1e-13)


@settings(max_examples=40, deadline=None)
@given(m=st.integers(4, 12), levels=st.integers(1, 6), ties=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1), q=st.floats(1.0, 5.0))
def test_rearrangement_mass_property(m, levels, ties, seed, q):
    # random grids with zeros and either tied or distinct positive values;
    # the second call reads the rearrangement cached on the grid function
    rng = np.random.default_rng(seed)
    inner = (m - 2, m - 2)
    scale = rng.uniform(0.1, 3.0) if ties else rng.uniform(0.1, 3.0, inner)
    vals = np.zeros((m, m))
    vals[1:-1, 1:-1] = rng.integers(0, levels + 1, inner) * scale
    u = GridFunction(rng.uniform(0.5, 4.0), vals)
    want = grid_lq_norm(u, q) ** q
    for _ in range(2):
        assert mass(decreasing_rearrangement(u), q) == pytest.approx(want, rel=1e-12)


def test_rearrangement_of_zero():
    r = decreasing_rearrangement(GridFunction.zeros(2, 1.0, 4))
    assert r.total_support == 0.0
    assert r(0.0) == 0.0 and r(5.0) == 0.0
    assert mass(r, 2.0) == 0.0


def test_distribution_function_hand(hand_grid):
    for s, want in ((0.1, 16.0), (0.3, 12.0), (0.7, 4.0), (1.1, 0.0)):
        assert distribution_function(hand_grid, s) == want
    for bad in (-0.5, np.nan):
        with pytest.raises(ValueError, match="nonnegative"):
            distribution_function(hand_grid, bad)


def test_grid_lq_rejects_small_q(hand_grid):
    for bad in (0.5, np.nan):
        with pytest.raises(ParamError):
            grid_lq_norm(hand_grid, bad)


# -- symmetrization -----------------------------------------------------------

def test_symmetrization_is_idempotent(hand_grid, gauge_euclid):
    once = convex_symmetrization(hand_grid, gauge_euclid)
    twice = convex_symmetrization(once, gauge_euclid)
    assert np.array_equal(once.values, twice.values)


def pointwise_symmetrization(u, F):
    """u_sharp(kappa F0(-x)^n) evaluated cell by cell, the defining formula."""
    t = wulff_volume(F) * F.polar()(-u.centers().reshape(-1, u.dim)) ** u.dim
    return decreasing_rearrangement(u)(t).reshape(u.values.shape)


@pytest.mark.parametrize("gauge", ["euclid", "pnorm4", "sampled_smooth", "uneven"])
def test_symmetrization_equals_pointwise_formula(gauge, request):
    # Euclidean grids have many cells with tied t; the scatter must still
    # agree bit for bit with evaluating the rearrangement at each cell
    F = request.getfixturevalue(f"gauge_{gauge}")
    for name in CORPUS_NAMES:
        u = corpus_grid(name, F, 48)
        got = convex_symmetrization(u, F).values
        assert np.array_equal(got, pointwise_symmetrization(u, F)), name


def full_scatter_symmetrization(u, F):
    """The symmetrization as it was before only the support was written:
    every cell, in ascending t, gets its level or a zero."""
    rearr = decreasing_rearrangement(u)
    _, t_sorted, order = _wulff_field(F, u.dim, u.halfwidth, u.m)
    ends = np.searchsorted(t_sorted, rearr.breakpoints, side="left")
    sorted_vals = np.zeros(t_sorted.size)
    sorted_vals[:ends[-1]] = np.repeat(rearr.values, np.diff(ends, prepend=0))
    vals = np.empty(t_sorted.size)
    vals[order] = sorted_vals
    return vals.reshape(u.values.shape)


@pytest.mark.parametrize("m", [48, 128])
@pytest.mark.parametrize("gauge", ["euclid", "ellipse", "sampled_smooth", "uneven"])
def test_symmetrization_equals_full_scatter(gauge, m, request):
    F = request.getfixturevalue(f"gauge_{gauge}")
    for name in CORPUS_NAMES:
        u = corpus_grid(name, F, m)
        ustar = convex_symmetrization(u, F)
        got = ustar.values
        assert got.tobytes() == full_scatter_symmetrization(u, F).tobytes(), name
        # u_star keeps its values without a copy, read-only, on u's grid
        assert not got.flags.writeable and ustar._cache.keys() == {"sharp"}
        assert (ustar.halfwidth, ustar.m, ustar.dim) == (u.halfwidth, u.m, u.dim)


def test_symmetrization_equals_pointwise_formula_3d():
    F = FinslerNorm.ellipse(np.diag([1.0, 2.0, 0.5]))
    m, halfwidth = 20, 3.0
    ax = -halfwidth + (np.arange(m) + 0.5) * (2.0 * halfwidth / m)
    x, y, z = np.meshgrid(ax, ax, ax, indexing="ij")
    vals = (np.exp(-3.0 * ((x - 0.3) ** 2 + y ** 2 + 2.0 * z ** 2))
            + 0.5 * (np.abs(x) + np.abs(y) < 0.8) * (np.abs(z) < 0.5))
    vals *= np.sqrt(x ** 2 + y ** 2 + z ** 2) < 1.2
    u = GridFunction(halfwidth, vals)
    got = convex_symmetrization(u, F).values
    assert np.array_equal(got, pointwise_symmetrization(u, F))


def test_symmetrization_cache_follows_grid():
    # one gauge reused on grids of different m, then a different halfwidth,
    # then the first grid again, gives what a fresh gauge gives on each grid
    def ellipse():
        return FinslerNorm.ellipse([[4.0, 0.0], [0.0, 1.0]])

    def results(F, halfwidth, m):
        u = rasterize_profile(RadialProfile([0.0, 0.3, 1.0], [1.0, 0.2, 0.0]),
                              FinslerNorm.pnorm(3.0), halfwidth, m)
        us = convex_symmetrization(u, F)
        raster = rasterize_profile(RadialProfile([0.0, 1.0], [1.0, 0.0]), F,
                                   halfwidth, m)
        pa = FunctionalParams(n=2, q=2.0, beta=0.5, lam=2.0 * np.pi, a=2.0, b=2.0)
        return (us.values, profile_of(us, F).values, raster.values,
                grid_atmsc_value(raster, pa, F))

    shared = ellipse()
    for halfwidth, m in ((2.6, 64), (2.6, 96), (3.1, 96), (2.6, 64)):
        for a, b in zip(results(shared, halfwidth, m), results(ellipse(), halfwidth, m)):
            assert np.array_equal(a, b), (halfwidth, m)


def test_symmetrization_cached_per_gauge(gauge_euclid, gauge_ellipse):
    u = corpus_grid("two_bumps", gauge_ellipse, 48)
    first = convex_symmetrization(u, gauge_euclid)
    assert convex_symmetrization(u, gauge_euclid) is first
    other = convex_symmetrization(u, gauge_ellipse)
    assert other is not first
    fresh = GridFunction(u.halfwidth, u.values)
    assert np.array_equal(other.values, convex_symmetrization(fresh, gauge_ellipse).values)
    assert np.array_equal(first.values, convex_symmetrization(fresh, gauge_euclid).values)


@pytest.mark.parametrize("gauge", ["gauge_pnorm4", "gauge_sampled_smooth"])
def test_grid_quantities_are_cached(gauge, request):
    # each derived quantity is stored on first use and returned after that,
    # and it is what a fresh computation through __wrapped__ gives
    F = request.getfixturevalue(gauge)
    u = corpus_grid("two_bumps", F, 48)
    ustar = convex_symmetrization(u, F)
    cases = [(decreasing_rearrangement, (u,), lambda r: (r.breakpoints, r.values)),
             (_wulff_field, (F, u.dim, u.halfwidth, u.m), lambda f: f),
             (convex_symmetrization, (u, F), lambda g: (g.values,)),
             (profile_of, (ustar, F), lambda g: (g.knots, g.values)),
             (symmetry_gap, (u, F), lambda gap: (np.float64(gap),))]
    for fn, args, arrays in cases:
        first = fn(*args)
        assert fn(*args) is first, fn.__name__
        for a, b in zip(arrays(first), arrays(fn.__wrapped__(*args)), strict=True):
            assert np.array_equal(a, b), fn.__name__


@pytest.mark.parametrize("m", [64, 128])
@pytest.mark.parametrize("gauge", ["euclid", "ellipse", "sampled_smooth"])
def test_symmetrization_carries_its_rearrangement(gauge, m, request, monkeypatch):
    # convex_symmetrization stores u_star's own rearrangement, so profile_of
    # does not sort u_star again; it must be what decreasing_rearrangement
    # computes from u_star's values, bit for bit.  The sort of t leaves ties
    # in any order, and the stable order must give the same u_star
    F = request.getfixturevalue(f"gauge_{gauge}")
    for name in CORPUS_NAMES:
        u = corpus_grid(name, F, m)
        ustar = convex_symmetrization(u, F)
        assert "sharp" in ustar._cache, name
        got = decreasing_rearrangement(ustar)
        assert got is ustar._cache["sharp"], name
        fresh = GridFunction(ustar.halfwidth, ustar.values)
        want = decreasing_rearrangement.__wrapped__(fresh)
        for a, b in ((got.breakpoints, want.breakpoints), (got.values, want.values)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
            assert not a.flags.writeable

        f0, t_sorted, _ = _wulff_field(F, u.dim, u.halfwidth, u.m)
        t = wulff_volume(F) * f0.ravel() ** u.dim
        stable = np.argsort(t, kind="stable").astype(np.int32)
        assert t[stable].tobytes() == t_sorted.tobytes()
        with monkeypatch.context() as patch:
            patch.setattr(rearrange, "_wulff_field", lambda *args: (f0, t[stable], stable))
            again = convex_symmetrization.__wrapped__(u, F)
        assert again.values.tobytes() == ustar.values.tobytes(), name


def test_wulff_field_evaluated_once_per_grid(monkeypatch):
    # grid A, grid B, then a new grid function on grid A, with one gauge:
    # the gauge keeps a field per grid, so F0 is evaluated on two grids only
    F = FinslerNorm.ellipse([[4.0, 0.0], [0.0, 1.0]])
    a = corpus_grid("two_bumps", F, 48)
    b = corpus_grid("cone", F, 64)
    a2 = GridFunction(a.halfwidth, 0.5 * a.values)
    pol, call = F.polar(), FinslerNorm.__call__
    points = []

    def spy(self, x):
        if self is pol:
            points.append(np.shape(x)[0])
        return call(self, x)

    monkeypatch.setattr(FinslerNorm, "__call__", spy)
    for u in (a, b, a2):
        convex_symmetrization(u, F)
    assert points == [48 * 48, 64 * 64]
    assert np.array_equal(convex_symmetrization(a2, F).values,
                          convex_symmetrization(GridFunction(a.halfwidth, a2.values),
                                                FinslerNorm.ellipse(F.matrix)).values)


def test_symmetrization_of_zero(gauge_euclid):
    u = GridFunction.zeros(2, 1.0, 4)
    us = convex_symmetrization(u, gauge_euclid)
    assert not np.any(us.values)
    assert symmetry_gap(u, gauge_euclid) == 0.0


def test_support_overflow_and_retry(gauge_euclid):
    vals = np.zeros((16, 16))
    vals[1:15, 1:15] = 1.0
    u = GridFunction(2.0, vals)
    with pytest.raises(SupportOverflowError) as exc:
        convex_symmetrization(u, gauge_euclid)
    need = exc.value.needed_halfwidth
    assert need > 2.0
    pad = 6
    bigger = np.zeros((16 + 2 * pad,) * 2)
    bigger[pad:-pad, pad:-pad] = vals
    u2 = GridFunction(2.0 * (16 + 2 * pad) / 16.0, bigger)
    assert u2.halfwidth >= need
    us = convex_symmetrization(u2, gauge_euclid)
    assert np.any(us.values > 0.0)


def test_profile_recovers_cone(gauge_euclid):
    cone = RadialProfile([0.0, 1.4], [1.0, 0.0])
    u = rasterize_profile(cone, gauge_euclid, 2.0, 128)
    g = profile_of(u, gauge_euclid)
    rr = np.linspace(0.0, 1.6, 400)
    assert np.max(np.abs(g(rr) - cone(rr))) <= disc_tolerance(u.h)


def test_profile_of_rejects_asymmetric(gauge_euclid):
    vals = np.zeros((32, 32))
    vals[20:26, 4:10] = 1.0
    u = GridFunction(2.0, vals)
    with pytest.raises(SymmetryError):
        profile_of(u, gauge_euclid)


def test_profile_of_zero(gauge_euclid):
    g = profile_of(GridFunction.zeros(2, 1.0, 8), gauge_euclid)
    assert g(0.0) == 0.0 and g.support_radius > 0.0
    assert not g.knots.flags.writeable and not g.values.flags.writeable


def test_profile_of_is_cached(gauge_euclid):
    # one profile per gauge, kept read-only on the grid
    cone = RadialProfile([0.0, 1.4], [1.0, 0.0])
    u = rasterize_profile(cone, gauge_euclid, 2.0, 64)
    g = profile_of(u, gauge_euclid)
    assert profile_of(u, gauge_euclid) is g
    assert not g.knots.flags.writeable and not g.values.flags.writeable
    with pytest.raises(ValueError):
        g.values[0] = 2.0
    assert g.knots.size == u.m + 1
    fresh = profile_of(GridFunction(u.halfwidth, u.values), gauge_euclid)
    assert np.array_equal(fresh.knots, g.knots)
    assert np.array_equal(fresh.values, g.values)


def test_profile_of_symmetry_error_is_not_cached(gauge_euclid):
    vals = np.zeros((32, 32))
    vals[20:26, 4:10] = 1.0
    u = GridFunction(2.0, vals)
    for _ in range(2):
        with pytest.raises(SymmetryError):
            profile_of(u, gauge_euclid)
    assert not any(key[0] == "profile" for key in u._cache if isinstance(key, tuple))


def test_rasterize_errors(gauge_euclid):
    cone = RadialProfile([0.0, 1.4], [1.0, 0.0])
    with pytest.raises(SupportOverflowError) as exc:
        rasterize_profile(cone, gauge_euclid, 1.0, 64)
    assert exc.value.needed_halfwidth > 1.4
    # the box is checked before any field is built for it
    for halfwidth in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="half-width"):
            rasterize_profile(cone, gauge_euclid, halfwidth, 64)


def test_grid_side_follows_the_count_rule(gauge_euclid):
    # the count rule of SearchConfig: an integral float is that integer, and
    # anything else is a ParamError naming the count.  rasterize_profile,
    # GridFunction.zeros and maximizer_diagnostics(grid_resolution=) used to
    # raise a bare TypeError for 64.0
    cone = RadialProfile([0.0, 1.4], [1.0, 0.0])
    u = rasterize_profile(cone, gauge_euclid, 2.0, 64)
    again = rasterize_profile(cone, gauge_euclid, 2.0, 64.0)
    assert again.m == 64 and np.array_equal(again.values, u.values)
    assert GridFunction.zeros(2, 1.0, 4.0).values.shape == (4, 4)
    params = FunctionalParams(n=2, q=2.0, beta=0.5, lam=1.0)
    diag = [maximizer_diagnostics(cone, params, gauge_euclid, grid_resolution=m)
            for m in (64, 64.0)]
    assert diag[0].symmetry_residual == diag[1].symmetry_residual
    for m in (3, 0, 2.5, True, "64", np.nan, None):
        with pytest.raises(ParamError, match="grid side m must be at least 4"):
            rasterize_profile(cone, gauge_euclid, 2.0, m)
        with pytest.raises(ParamError, match="grid side m must be at least 4"):
            GridFunction.zeros(2, 1.0, m)


# -- grid quadratures ---------------------------------------------------------

def test_grid_dirichlet_single_cell(gauge_euclid):
    vals = np.zeros((4, 4))
    vals[1, 1] = 1.0
    u = GridFunction(2.0, vals)
    # forward differences see (-1,-1) at the cell and unit steps on the two
    # upwind neighbors: energy (2 + 1 + 1) * cell volume
    assert grid_dirichlet_energy(u, gauge_euclid) == pytest.approx(4.0, rel=1e-14)


def all_cells_energy(u, F):
    """h^n sum F(grad u)^n with F evaluated at every cell."""
    comps = [np.diff(u.values, axis=k, append=0.0) / u.h for k in range(u.dim)]
    return float(u.cell_volume * np.sum(F(np.stack(comps, axis=-1)) ** u.dim))


def test_forward_slopes_match_padded_diff():
    # the padded np.diff the energy used before, bit for bit, signed zeros
    # included: the last layer is 0.0 - v[-1], so -0.0 there gives +0.0
    rng = np.random.default_rng(11)
    for shape in ((8, 8), (6, 6, 6)):
        v = rng.uniform(0.0, 1.0, shape) * (rng.uniform(size=shape) < 0.5)
        v[rng.uniform(size=shape) < 0.3] = -0.0
        for k in range(v.ndim):
            want = np.diff(v, axis=k, append=0.0) / 0.37
            assert rearrange._forward_slopes(v, k, 0.37).tobytes() == want.tobytes()


def test_grid_dirichlet_energy_matches_all_cells(gauge_euclid, gauge_pnorm4,
                                                 gauge_ellipse, gauge_sampled_smooth):
    # F is evaluated on the gradient's support only; the sum over the full
    # grid keeps the all-cells value bitwise, for uneven gauges too
    th = np.arange(4096) * (2.0 * np.pi / 4096)
    uneven = FinslerNorm.sampled(1.0 + 0.3 * np.cos(th), rule="spline")
    rng = np.random.default_rng(5)
    dense = np.zeros((24, 24))
    dense[1:-1, 1:-1] = rng.uniform(0.1, 1.0, (22, 22))
    dense = GridFunction(2.0, dense)
    # every interior cell has a nonzero forward-difference gradient
    diffs = [np.diff(dense.values, axis=k, append=0.0)[1:-1, 1:-1] for k in range(2)]
    assert np.all((diffs[0] != 0.0) | (diffs[1] != 0.0))
    signed = GridFunction(2.0, np.where(dense.values < 0.4, -0.0, dense.values))
    for F in (gauge_euclid, gauge_pnorm4, gauge_ellipse, gauge_sampled_smooth, uneven):
        corpus = [corpus_grid(name, F, 64) for name in ("cone", "two_bumps", "square_ind")]
        for u in corpus + [dense, signed]:
            assert grid_dirichlet_energy(u, F) == all_cells_energy(u, F)
        assert grid_dirichlet_energy(GridFunction.zeros(2, 1.0, 8), F) == 0.0
    F3 = FinslerNorm.ellipse(np.diag([4.0, 1.0, 2.0]))
    bump = rasterize_profile(RadialProfile([0.0, 0.5, 1.0], [1.0, 0.4, 0.0]), F3, 2.6, 24)
    solid = np.zeros((10, 10, 10))
    solid[1:-1, 1:-1, 1:-1] = rng.uniform(0.1, 1.0, (8, 8, 8))
    signed = solid.copy()
    signed[signed < 0.5] = -0.0
    for u in (bump, GridFunction(1.0, solid), GridFunction(1.0, signed)):
        assert grid_dirichlet_energy(u, F3) == all_cells_energy(u, F3)
    assert grid_dirichlet_energy(GridFunction.zeros(3, 1.0, 6), F3) == 0.0


def test_grid_atmsc_parity_and_overflow(hand_grid, gauge_euclid):
    pa = FunctionalParams(n=2, q=2.0, beta=0.5, lam=2.0 * np.pi, a=2.0, b=2.0)
    vals = np.zeros((5, 5))
    vals[2, 2] = 1.0
    odd = GridFunction(1.0, vals)
    with pytest.raises(ParamError):
        grid_atmsc_value(odd, pa, gauge_euclid)
    assert grid_atmsc_value(hand_grid, pa, gauge_euclid) > 0.0
    # beta = 0 has no singular weight, so odd grids are fine
    p0 = FunctionalParams(n=2, q=2.0, beta=0.0, lam=2.0 * np.pi, a=2.0, b=2.0)
    assert grid_atmsc_value(odd, p0, gauge_euclid) > 0.0
    tall = GridFunction(3.0, hand_grid.values * 20.0)
    with pytest.raises(FunctionalOverflowError):
        grid_atmsc_value(tall, pa, gauge_euclid)


# -- inequality harnesses -----------------------------------------------------

def _maximizer_gap(u, F):
    # maximizer_diagnostics' symmetry residual as it was written out there
    gstar = convex_symmetrization(u, F)
    l1 = float(np.sum(u.values))
    return float(np.sum(np.abs(u.values - gstar.values)) / max(l1, 1e-300))


def _cli_gap(u, F):
    # cmd_symmetrize's fixed_point_gap as it was written out there
    ustar = convex_symmetrization(u, F)
    l1 = float(np.sum(np.abs(u.values)))
    return float(np.sum(np.abs(u.values - ustar.values)) / max(l1, 1e-300))


@pytest.mark.parametrize("gauge", ["euclid", "ellipse", "pnorm4", "sampled_smooth",
                                   "uneven"])
def test_symmetry_gap_matches_former_formulas(gauge, request):
    # bit for bit the residual and the fixed-point gap it replaces, on the
    # corpus and on rasterized profiles, which are Wulff-symmetric
    F = request.getfixturevalue(f"gauge_{gauge}")
    grids = [corpus_grid(name, F, 64) for name in CORPUS_NAMES]
    a_pol = F.polar().direction_bounds()[0]
    for g in (RadialProfile([0.0, 1.2], [1.0, 0.0]),
              RadialProfile(np.linspace(0.0, 1.5, 9), np.linspace(1.0, 0.0, 9) ** 2)):
        grids += [rasterize_profile(g, F, 1.1 * g.support_radius / a_pol, m)
                  for m in (64, 256)]
    for u in grids:
        gap = symmetry_gap(u, F)
        assert type(gap) is float
        assert gap.hex() == _maximizer_gap(u, F).hex() == _cli_gap(u, F).hex()
    assert all(symmetry_gap(u, F) <= disc_tolerance(u.h)
               for u in grids[len(CORPUS_NAMES):])


def test_hardy_littlewood_reads_symmetry_gap(gauge_ellipse):
    # one relative gap, computed once per (g, F) and independent of g's scale;
    # the absolute h^n ||g - g*||_1 reported before doubled with g
    F = gauge_ellipse
    f = corpus_grid("gauss", F, 64)
    g = corpus_grid("two_bumps", F, 64)
    res = hardy_littlewood_check(f, g, F)
    assert res.g_symmetry_gap is symmetry_gap(g, F)
    assert hardy_littlewood_check(g, g, F).g_symmetry_gap is res.g_symmetry_gap
    double = GridFunction(g.halfwidth, 2.0 * g.values)
    assert hardy_littlewood_check(f, double, F).g_symmetry_gap.hex() == \
        res.g_symmetry_gap.hex()

    def absolute(u):
        return float(u.cell_volume * np.sum(np.abs(
            u.values - convex_symmetrization(u, F).values)))
    assert absolute(double) == 2.0 * absolute(g)


def test_hardy_littlewood_hand(hand_grid, gauge_euclid):
    res = hardy_littlewood_check(hand_grid, hand_grid, gauge_euclid)
    # f = g maximizes the product integral among rearrangements, so the
    # symmetrized side can only gain quadrature error
    assert res.gap >= -1e-12
    other = GridFunction(2.0, np.zeros((6, 6)))
    with pytest.raises(ValueError):
        hardy_littlewood_check(hand_grid, other, gauge_euclid)


def test_hardy_littlewood_equality_case(gauge_euclid):
    cone = RadialProfile([0.0, 1.2], [1.0, 0.0])
    u = rasterize_profile(cone, gauge_euclid, 2.0, 64)
    res = hardy_littlewood_check(u, convex_symmetrization(u, gauge_euclid),
                                 gauge_euclid)
    # re-symmetrizing can shift cells at level boundaries, so the symmetry
    # diagnostic is a discretization quantity rather than an exact zero
    assert res.g_symmetry_gap <= disc_tolerance(u.h)
    assert abs(res.gap) <= disc_tolerance(u.h) * (1.0 + abs(res.rhs))


def test_polya_szego_smoke(gauge_euclid, gauge_ellipse):
    cone = RadialProfile([0.0, 1.2], [1.0, 0.0])
    for F in (gauge_euclid, gauge_ellipse):
        u = rasterize_profile(cone, F, 2.6, 128)
        res = polya_szego_check(u, F)
        assert res.gap >= -disc_tolerance(u.h) * (1.0 + res.energy_u)
        assert res.energy_ustar == pytest.approx(
            dirichlet_energy_radial(cone, F), rel=0.2)
    zero = polya_szego_check(GridFunction.zeros(2, 1.0, 4), gauge_euclid)
    assert zero.gap == 0.0


def test_uneven_gauge_cone_energy_matches_radial(gauge_uneven):
    # u = g(F0(-x)) has F(grad u) = |g'|, so the radial formula is the grid
    # energy of the rasterized profile; g(F0(x)) would read 3.73 against 3.14
    cone = RadialProfile([0.0, 1.0], [1.0, 0.0])
    u = rasterize_profile(cone, gauge_uneven, 3.0, 512)
    radial = dirichlet_energy_radial(cone, gauge_uneven)
    assert abs(grid_dirichlet_energy(u, gauge_uneven) / radial - 1.0) <= disc_tolerance(u.h)


def test_uneven_gauge_symmetrization_lowers_energy(gauge_uneven):
    # Polya-Szego on the grid itself: u_star's own grid energy is at most
    # u's, for an off-centre Euclidean cone and a gauge that is not even
    shell = GridFunction.zeros(2, 3.0, 512)
    x = shell.centers()
    u = GridFunction(3.0, np.maximum(1.0 - np.hypot(x[..., 0] - 0.5, x[..., 1] - 0.2), 0.0))
    e_u = grid_dirichlet_energy(u, gauge_uneven)
    e_star = grid_dirichlet_energy(convex_symmetrization(u, gauge_uneven), gauge_uneven)
    assert e_star <= e_u + disc_tolerance(u.h) * (1.0 + e_u)
    assert e_star == pytest.approx(polya_szego_check(u, gauge_uneven).energy_ustar,
                                   rel=disc_tolerance(u.h))


def test_equimeasurability_small(gauge_euclid):
    cone = RadialProfile([0.0, 1.2], [1.0, 0.0])
    u = rasterize_profile(cone, gauge_euclid, 2.0, 128)
    gaps = equimeasurability_gaps(u, convex_symmetrization(u, gauge_euclid),
                                  qs=(1.0, 2.0, 3.0))
    assert max(gaps.values()) <= disc_tolerance(u.h)


@settings(max_examples=60, deadline=None)
@given(gauge=st.sampled_from(["euclid", "pnorm4", "ellipse", "sampled_smooth", "uneven"]),
       half_m=st.integers(8, 32), levels=st.integers(0, 6),
       seed=st.integers(0, 2 ** 32 - 1), q=st.floats(1.0, 5.0))
def test_equimeasurability_property(gauge, half_m, levels, seed, q, gauge_euclid,
                                    gauge_pnorm4, gauge_ellipse,
                                    gauge_sampled_smooth, gauge_uneven):
    # a random disc-supported grid function, with a few tied levels or
    # (levels = 0) distinct values everywhere, keeps its distribution
    # function and its L^q norms under symmetrization up to the allowance
    F = {"euclid": gauge_euclid, "pnorm4": gauge_pnorm4, "ellipse": gauge_ellipse,
         "sampled_smooth": gauge_sampled_smooth, "uneven": gauge_uneven}[gauge]
    rng = np.random.default_rng(seed)
    halfwidth = 2.6 / min(F.polar().direction_bounds()[0], 1.0)
    x = GridFunction.zeros(2, halfwidth, 2 * half_m).centers()
    disc = np.linalg.norm(x - rng.uniform(-0.5, 0.5, 2), axis=-1) < rng.uniform(0.4, 1.2)
    if levels:
        vals = rng.integers(1, levels + 1, disc.shape) * rng.uniform(0.1, 3.0)
    else:
        vals = rng.uniform(0.1, 3.0, disc.shape)
    u = GridFunction(halfwidth, np.where(disc, vals, 0.0))
    ustar = convex_symmetrization(u, F)
    tol = disc_tolerance(u.h)
    support = distribution_function(u, np.min(u.values[u.values > 0.0], initial=1.0))
    for s in np.unique(u.values)[1:]:
        gap = distribution_function(u, s) - distribution_function(ustar, s)
        assert abs(gap) <= tol * support
    assert equimeasurability_gaps(u, ustar, qs=(q,))[q] <= tol


def test_disc_tolerance_form():
    assert disc_tolerance(0.01) == DISC_TOL_COEFF * 0.01
