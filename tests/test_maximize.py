"""Search layer: knot grids, isotonic projection, and the maximizer API.

Search smoke tests run tiny configurations (24 knots, budget a few hundred)
so the whole file stays under a few seconds; the acceptance suite runs the
calibrated settings.
"""

import time
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import minimize

import anisotm.functional as functional
import anisotm.maximize as maximize
from anisotm import (SearchConfig, SearchResult, estimate_f, identity_sweep,
                     direct_critical_max, construct_critical_from_subcritical,
                     threshold_check, maximizer_diagnostics, normalize_sphere,
                     constraint_scale,
                     critical_value, atmsc_value, aa_bracket, lq_norm_radial,
                     grad_norm_radial, FunctionalParams, ParamError,
                     RadialProfile, FinslerNorm, wulff_volume, sharp_constant)
from anisotm.functional import (ACCURATE, LEAN, RadialObjective, series_start,
                                series_threshold)
from anisotm.maximize import (_ascend, _initializers, _lbfgsb, _sweep_ts,
                              _theta_to_decrements, geometric_knots,
                              isotonic_nonincreasing)

PARAMS = FunctionalParams(n=2, q=2.0, beta=0.5, lam=np.pi, a=2.0, b=2.0)
SMALL = dict(knots=24, radius=8.0, restarts=2, budget=300, seed=0)


def small_config(**kw):
    base = dict(SMALL)
    base.update(kw)
    return SearchConfig(**base)


# -- building blocks ----------------------------------------------------------

def test_geometric_knots():
    k = geometric_knots(8.0, 32)
    assert k[0] == 0.0 and k[-1] == 8.0
    assert np.all(np.diff(k) > 0.0)
    assert k[1] == pytest.approx(8.0e-3, rel=1e-12)
    ratios = k[2:] / k[1:-1]
    assert np.allclose(ratios, ratios[0], rtol=1e-9)


def test_isotonic_hand_cases():
    assert np.allclose(isotonic_nonincreasing([3.0, 1.0, 2.0]), [3.0, 1.5, 1.5])
    assert np.allclose(isotonic_nonincreasing([1.0, 2.0, 3.0]), [2.0, 2.0, 2.0])
    assert np.allclose(isotonic_nonincreasing([5.0, 4.0, 1.0]), [5.0, 4.0, 1.0])
    assert np.allclose(isotonic_nonincreasing([-1.0, -2.0]), [0.0, 0.0])


def test_isotonic_properties():
    rng = np.random.default_rng(0)
    for _ in range(20):
        y = rng.uniform(-1.0, 3.0, rng.integers(2, 30))
        z = isotonic_nonincreasing(y)
        assert np.all(np.diff(z) <= 1e-12)
        assert np.all(z >= 0.0)
        assert np.allclose(isotonic_nonincreasing(z), z, atol=1e-12)


def _pava_oracle(y):
    """Pool adjacent violators by hand: the nonincreasing least-squares fit,
    clipped at 0."""
    level, weight = [], []
    for v in np.asarray(y, dtype=float)[::-1]:
        level.append(v)
        weight.append(1)
        # the stack holds a nondecreasing sequence of pooled blocks
        while len(level) >= 2 and level[-2] > level[-1]:
            w = weight[-2] + weight[-1]
            level[-2:] = [(level[-2] * weight[-2] + level[-1] * weight[-1]) / w]
            weight[-2:] = [w]
    return np.maximum(np.repeat(level, weight)[::-1], 0.0)


@settings(max_examples=300, deadline=None)
@given(y=st.lists(st.one_of(st.integers(-3, 3).map(float), st.floats(-1.0, 1.0)),
                  min_size=1, max_size=80),
       scale=st.floats(1e-3, 1e3))
@example(y=[0.0, 5e-324, 5e-324], scale=1.0)
def test_isotonic_matches_pava_oracle(y, scale):
    # small integers give ties, the floats everything between them; below
    # the smallest normal float the two round subnormal means differently
    y = scale * np.array(y)
    z = isotonic_nonincreasing(y)
    tol = 1e-12 * np.max(np.abs(y)) + np.finfo(float).tiny
    assert z.shape == y.shape
    assert np.max(np.abs(z - _pava_oracle(y))) <= tol
    assert np.all(np.diff(z) <= 0.0) and np.all(z >= 0.0)
    assert np.max(np.abs(isotonic_nonincreasing(z) - z)) <= tol


def test_threshold_check():
    res = threshold_check(FunctionalParams(2, 2.0, 0.0, 3.0))
    assert res.applicable and res.threshold == 3.0
    assert threshold_check(FunctionalParams(2, 4.0, 0.0, 3.0)).threshold == 4.5
    assert not threshold_check(FunctionalParams(2, 2.0, 0.5, 3.0)).applicable
    assert not threshold_check(FunctionalParams(2, 3.0, 0.0, 3.0)).applicable


@pytest.mark.parametrize("q,beta", [(2.0 - 2e-10, 0.0), (2.0 + 2e-10, 0.0),
                                    (8.0 / 3.0, 0.5)])
def test_one_series_rule(q, beta):
    # m = q(n-1)/n (1 - beta/n) lies within 1e-10 of 1; the series index,
    # the threshold check and the sweep grid all read the snapped m = 1
    params = FunctionalParams(2, q, beta, 3.0, a=2.0, b=2.0)
    assert abs(q / 2.0 * (1.0 - beta / 2.0) - 1.0) <= 1.1e-10
    assert series_threshold(params) == 1.0
    j = series_start(params)
    assert type(j) is int and j == (1 if beta == 0.0 else 2)
    thr = threshold_check(params)
    assert thr.applicable == (beta == 0.0)
    if thr.applicable:
        assert thr.threshold == 3.0                        # lam^1 / 1!
    # beta > 0: the low end comes from delta = j - m = 1, which puts it at
    # min(1e-3, 0.02^(1/delta)) = 1e-3 of lam, as at beta = 0
    assert _sweep_ts(params, 8)[0] == params.lam * 1e-3


@pytest.mark.parametrize("q", [400.0, 2000.0, 2e10])
def test_threshold_check_large_series_index(q):
    # lam^k / k! with k = q/2 = 200, 1000 or 1e10: k! is beyond the float
    # range, the threshold itself is a tiny positive number or underflows
    # to 0, and the product stops there instead of running through all k
    start = time.perf_counter()
    res = threshold_check(FunctionalParams(2, q, 0.0, 3.0))
    assert time.perf_counter() - start < 1.0
    assert res.applicable and 0.0 <= res.threshold < 1e-200


def test_construct_critical_identity(gauge_euclid):
    # on a normalized profile the construction lands on the constraint
    # sphere and its critical value is bracket(t) times the subcritical
    # value at rate t; both sides integrate on affinely related knots, so
    # the identity holds at machine precision
    g = RadialProfile([0.0, 0.5, 1.3, 2.0], [1.3, 0.9, 0.2, 0.0])
    u = normalize_sphere(g, PARAMS.q, gauge_euclid)
    for t in (0.3 * PARAMS.lam, 0.7 * PARAMS.lam):
        v = construct_critical_from_subcritical(t, u, PARAMS, gauge_euclid)
        gn = grad_norm_radial(v, gauge_euclid)
        qn = lq_norm_radial(v, PARAMS.q, gauge_euclid)
        assert abs(gn ** PARAMS.a + qn ** PARAMS.b - 1.0) < 1e-12
        lhs = critical_value(v, PARAMS, gauge_euclid)
        rhs = aa_bracket(t, PARAMS) * atmsc_value(
            u, PARAMS.with_lam(t), gauge_euclid)
        assert lhs == pytest.approx(rhs, rel=1e-12)
    with pytest.raises(ParamError):
        construct_critical_from_subcritical(PARAMS.lam, u, PARAMS, gauge_euclid)
    with pytest.raises(ParamError):
        construct_critical_from_subcritical(0.0, u, PARAMS, gauge_euclid)


# -- subcritical search -------------------------------------------------------

def test_estimate_f_deterministic(gauge_euclid):
    a = estimate_f(PARAMS, gauge_euclid, small_config())
    b = estimate_f(PARAMS, gauge_euclid, small_config())
    assert a.value == b.value
    assert np.array_equal(a.profile.values, b.profile.values)
    assert a.restart_values == b.restart_values


def test_estimate_f_profile_reproduces_value(gauge_euclid):
    est = estimate_f(PARAMS, gauge_euclid, small_config())
    again = atmsc_value(est.profile, PARAMS, gauge_euclid)
    assert again == pytest.approx(est.value, rel=1e-12)
    assert abs(grad_norm_radial(est.profile, gauge_euclid) - 1.0) < 1e-10
    assert abs(lq_norm_radial(est.profile, PARAMS.q, gauge_euclid) - 1.0) < 1e-10
    assert est.spread >= 0.0
    assert len(est.restart_values) == 2


def test_estimate_f_restart_ladder(gauge_euclid):
    v2 = estimate_f(PARAMS, gauge_euclid, small_config(restarts=2)).value
    v4 = estimate_f(PARAMS, gauge_euclid, small_config(restarts=4)).value
    v8 = estimate_f(PARAMS, gauge_euclid, small_config(restarts=8)).value
    assert v4 >= v2 - 1e-9
    assert v8 >= v4 - 1e-9


def test_estimate_f_restarts_agree(gauge_euclid):
    # each restart is a full L-BFGS-B ascent in decrement variables, so the
    # five canonical initializers reach the same optimum
    est = estimate_f(PARAMS, gauge_euclid,
                     small_config(restarts=5, budget=800))
    assert len(est.restart_values) == 5
    assert max(est.restart_values) - min(est.restart_values) <= 1e-6 * est.value


def test_estimate_f_exp_power_below_one(gauge_euclid):
    # p = 0.5 < 1 is admissible at beta = 1.5; the kernel's u^{p-1} factor is
    # infinite where the profile vanishes, and the search must stay clean
    params = FunctionalParams(n=2, q=1.5, beta=1.5, lam=2.0 * np.pi, a=2.0,
                              b=2.0, p=0.5, variant="exp_power")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = estimate_f(params, gauge_euclid, small_config())
    assert np.isfinite(est.value) and est.value > 0.0
    assert atmsc_value(est.profile, params, gauge_euclid) == est.value


@pytest.mark.parametrize("setting", [{"knots": 1}, {"restarts": 0},
                                     {"budget": 0}, {"radius": 0.0},
                                     {"radius": -1.0}, {"radius": np.nan},
                                     {"radius": np.inf},
                                     {"radius_critical": 0.0},
                                     {"radius_critical": np.nan},
                                     {"knots": 2.5}, {"restarts": 1.5},
                                     {"budget": 10.5}, {"seed": 0.5},
                                     {"budget": np.nan}, {"knots": "8"},
                                     {"restarts": True}, {"budget": True},
                                     {"seed": False}, {"radius": "8"},
                                     {"radius": True}, {"radius_critical": "16"},
                                     {"radius_critical": np.True_}],
                         ids=["knots", "restarts", "budget", "radius-zero",
                              "radius-negative", "radius-nan", "radius-inf",
                              "radius_critical-zero", "radius_critical-nan",
                              "knots-fraction", "restarts-fraction",
                              "budget-fraction", "seed-fraction", "budget-nan",
                              "knots-string", "restarts-bool", "budget-bool",
                              "seed-bool", "radius-string", "radius-bool",
                              "radius_critical-string", "radius_critical-bool"])
def test_search_config_rejects_degenerate(setting):
    with pytest.raises(ParamError, match=next(iter(setting))):
        small_config(**setting)


def test_search_config_takes_integral_numbers():
    config = small_config(knots=16.0, restarts=np.int64(2), budget=np.float64(50.0))
    assert (config.knots, config.restarts, config.budget) == (16, 2, 50)
    assert all(type(v) is int for v in (config.knots, config.restarts, config.budget))


def test_estimate_f_rejects_supercritical(gauge_euclid):
    with pytest.raises(ParamError):
        estimate_f(PARAMS.with_lam(4.0 * np.pi), gauge_euclid, small_config())


# -- critical search ----------------------------------------------------------

def test_direct_critical_smoke(gauge_euclid):
    rep = direct_critical_max(PARAMS, gauge_euclid, small_config())
    assert rep.value > 0.0
    # the residuals of the found profile come from the diagnostics
    diag = maximizer_diagnostics(rep.profile, PARAMS, gauge_euclid,
                                 grid_resolution=64, objective="critical")
    assert diag.value == rep.value
    assert diag.constraint_residual < 1e-10
    gn = grad_norm_radial(rep.profile, gauge_euclid)
    assert diag.grad_norm_residual == abs(gn - 1.0)


@pytest.mark.parametrize("search", [estimate_f, direct_critical_max],
                         ids=["subcritical", "critical"])
def test_searches_share_one_result_type(gauge_euclid, search):
    res = search(PARAMS, gauge_euclid, small_config(restarts=3))
    assert isinstance(res, SearchResult)
    assert len(res.restart_values) == 3
    assert res.spread == max(res.restart_values) - min(res.restart_values)


def _minimize_ascent(obj, w, maxfev, ftol=1e-14):
    """_ascend through scipy.optimize.minimize on obj.value_and_grad, the
    way it used to run; at the default ftol these are _ascend's own
    settings."""
    def neg(w):
        value, grad = obj.value_and_grad(w)
        return -value, -grad

    res = minimize(neg, w, jac=True, method="L-BFGS-B", bounds=[(0.0, None)] * w.size,
                   options={"maxfun": maxfev, "ftol": ftol, "gtol": 1e-14})
    return res.x, -float(res.fun), res.nfev, res.message


def _ascend_one(obj, w, maxfev):
    """The lockstep _ascend of the one start w on obj."""
    return _ascend([obj], [w], maxfev)[0]


@pytest.mark.parametrize("mode,radius,init,budget", [
    ("subcritical", 8.0, 0, 500), ("subcritical", 8.0, 3, 500),
    ("critical", 16.0, 0, 500), ("critical", 16.0, 3, 500),
    ("subcritical", 8.0, 1, 40), ("subcritical", 8.0, 1, 500)])
def test_ascend_is_bitwise_minimize(gauge_euclid, mode, radius, init, budget):
    # the reverse-communication loop drives scipy's private setulb kernel; a
    # scipy release that changes it must fail here, not move iterates
    # quietly.  The value is that of the returned iterate
    knots = geometric_knots(radius, 64)
    obj = RadialObjective(PARAMS.with_lam(0.5 * sharp_constant(gauge_euclid)),
                          gauge_euclid, knots, mode)
    w = _theta_to_decrements(_initializers(knots)[init])
    want = _minimize_ascent(obj, w, budget)
    got = _ascend_one(obj, w, budget)
    assert np.array_equal(got[0], want[0])
    assert got[2:] == want[2:]
    assert got[1] == obj.value_and_grad(got[0])[0]
    if budget == 40:
        assert got[2] > budget and got[3].startswith("STOP")
    if init == 1 and budget == 500:
        assert got[3] == "CONVERGENCE: RELATIVE REDUCTION OF F <= FACTR*EPSMCH"


@pytest.mark.parametrize("mode,radius", [("subcritical", 8.0), ("critical", 16.0)])
def test_ascent_stop_loses_nothing(gauge_euclid, mode, radius):
    # ftol 1e-14 stops each ascent once an iteration gains less than 1e-14
    # relative.  Run on to ftol 1e-16 (factr < 1, less than one ulp), the
    # same ascents raise the best restart by less than 1e-14 and no restart
    # by more than the 3.4e-14 by which the acceptance restarts differ
    # (1.7e-14 at most here), at a quarter more evaluations
    knots = geometric_knots(radius, 64)
    obj = RadialObjective(PARAMS.with_lam(0.5 * sharp_constant(gauge_euclid)),
                          gauge_euclid, knots, mode)
    values, oracle_values, evals, oracle_evals = [], [], 0, 0
    for w in map(_theta_to_decrements, _initializers(knots)):
        _, value, nfev, _ = _ascend_one(obj, w, 4000)
        oracle = _minimize_ascent(obj, w, 4000, ftol=1e-16)
        oracle_values.append(obj.value_and_grad(oracle[0])[0])
        values.append(value)
        evals += nfev
        oracle_evals += oracle[2]
    values, oracle_values = np.array(values), np.array(oracle_values)
    assert values.max() >= oracle_values.max() * (1.0 - 1e-14)
    assert np.all(values >= oracle_values * (1.0 - 3.4e-14))
    assert evals <= 0.85 * oracle_evals


def test_evaluation_counts_stable_at_rounding_level(gauge_euclid):
    # the bench-size searches at lambda_rel 0.5 and the five floats below it:
    # an ascent that stops before it chases rounding noise takes about the
    # same number of evaluations at each (ftol 1e-16 gave 688 to 812)
    config = SearchConfig(knots=64, radius=8.0, restarts=6, budget=500, seed=0)
    rel, totals = 0.5, []
    for _ in range(6):
        params = PARAMS.with_lam(rel * sharp_constant(gauge_euclid))
        totals.append(sum(estimate_f(params, gauge_euclid, config).restart_evals)
                      + sum(direct_critical_max(params, gauge_euclid, config).restart_evals))
        rel = np.nextafter(rel, 0.0)
    assert max(totals) <= 1.05 * min(totals), totals


class _WrongSignGradient:
    """Value -theta.theta, theta the knot values of the decrements w, with
    the gradient of +theta.theta in w: the search direction never ascends,
    so the line search fails."""

    def value_and_grad(self, w):
        theta = np.cumsum(w[::-1])[::-1]
        return -(theta @ theta), np.cumsum(2.0 * theta)


def test_ascend_abnormal_line_search():
    # after an abnormal line search minimize reports the value of the last
    # trial point; the ascent (_lbfgsb, which _ascend drives) reports that
    # of the iterate it returns
    obj = _WrongSignGradient()
    w = _theta_to_decrements(np.linspace(1.0, 0.1, 10))
    want = _minimize_ascent(obj, w, 500)
    run = _lbfgsb(w, 500)
    point = next(run)
    with pytest.raises(StopIteration) as stop:
        while True:
            value, grad = obj.value_and_grad(point)
            point = run.send((-value, -grad))
    got = stop.value.value
    assert np.array_equal(got[0], want[0])
    assert got[2:] == want[2:] == (21, "ABNORMAL: ")
    assert got[1] == obj.value_and_grad(got[0])[0] and got[1] != want[1]


@pytest.mark.parametrize("search", [estimate_f, direct_critical_max],
                         ids=["subcritical", "critical"])
def test_restart_evals_and_stops(gauge_euclid, search, monkeypatch):
    # every row a gradient pass scores is one evaluation of one restart;
    # each restart's count is that of its ascent run alone
    rows, starts = [], []
    counted = RadialObjective._evaluate
    ascend = maximize._ascend

    def counting(self, w, grad, lam=None):
        rows.append(len(w) if grad else 0)
        return counted(self, w, grad, lam)

    def recorded(obj, theta, maxfev):
        starts.extend(zip(obj, theta))
        return ascend(obj, theta, maxfev)

    monkeypatch.setattr(RadialObjective, "_evaluate", counting)
    monkeypatch.setattr(maximize, "_ascend", recorded)
    res = search(PARAMS, gauge_euclid, small_config(restarts=3))
    assert len(starts) == 3
    assert sum(res.restart_evals) == sum(rows)
    monkeypatch.undo()
    assert res.restart_evals == tuple(ascend([obj], [w], 300)[0][2] for obj, w in starts)
    assert all(s.split(":")[0] in ("CONVERGENCE", "STOP", "ABNORMAL", "WARNING")
               for s in res.restart_stops)
    starved = search(PARAMS, gauge_euclid, small_config(budget=5))
    assert all(e > 5 for e in starved.restart_evals)
    assert starved.restart_stops == ("STOP: TOTAL NO. OF F,G EVALUATIONS EXCEEDS LIMIT",) * 2


def test_restart_values_are_those_of_the_iterates(gauge_euclid, monkeypatch):
    # the bench-size subcritical search at seed 0: no restart ends in an
    # abnormal line search, every ascent runs on the lean rule, and each
    # restart reports the accurate-rule value of the iterate it returns
    # (k = 1 for the Euclidean gauge, so no scaling)
    runs = []
    ascend = maximize._ascend

    def recorded(obj, theta, maxfev):
        out = ascend(obj, theta, maxfev)
        runs.extend(zip(obj, out))
        return out

    monkeypatch.setattr(maximize, "_ascend", recorded)
    params = PARAMS.with_lam(0.5 * sharp_constant(gauge_euclid))
    res = estimate_f(params, gauge_euclid, SearchConfig(knots=64, radius=8.0,
                                                        restarts=6, budget=500))
    assert [stop for _, (_, _, _, stop) in runs].count("ABNORMAL: ") == 0
    assert {obj.rule for obj, _ in runs} == {LEAN}
    assert res.restart_values == tuple(
        RadialObjective(obj.params, obj.F, obj.knots, obj.mode).value(theta)
        for obj, (theta, _, _, _) in runs)


def _lockstep_runs(monkeypatch, run):
    """The (objectives, starts, budget, results) of every lockstep _ascend
    call that ``run`` makes."""
    calls = []
    ascend = maximize._ascend

    def recorded(obj, w, maxfev):
        out = ascend(obj, w, maxfev)
        calls.append((obj, w, maxfev, out))
        return out

    monkeypatch.setattr(maximize, "_ascend", recorded)
    run()
    monkeypatch.undo()
    return calls


def _assert_lockstep_is_serial(calls):
    for objs, starts, budget, results in calls:
        assert isinstance(results, list) and len(results) == len(starts)
        for obj, w, got in zip(objs, starts, results):
            want = _ascend_one(obj, w, budget)
            assert np.array_equal(got[0], want[0])
            assert got[1:] == want[1:]


@pytest.mark.parametrize("search", [estimate_f, direct_critical_max],
                         ids=["subcritical", "critical"])
def test_lockstep_restarts_are_serial_ascents(gauge_euclid, search, monkeypatch):
    # the bench-size searches: each restart of the lockstep multistart ends
    # bitwise where its ascent run alone ends, with the same value,
    # evaluation count and stop message
    params = PARAMS.with_lam(0.5 * sharp_constant(gauge_euclid))
    config = SearchConfig(knots=64, radius=8.0, restarts=6, budget=500, radius_critical=16.0)
    calls = _lockstep_runs(monkeypatch, lambda: search(params, gauge_euclid, config))
    assert len(calls) == 1 and len(calls[0][1]) == 6
    _assert_lockstep_is_serial(calls)


@pytest.mark.parametrize("search", [estimate_f, direct_critical_max],
                         ids=["subcritical", "critical"])
def test_lockstep_restarts_stopped_by_the_budget(search, monkeypatch):
    # the 3-D case, where restarts end on the evaluation budget at unequal
    # counts, so the lockstep rounds run on with fewer and fewer rows
    F = FinslerNorm.euclidean(3)
    params = FunctionalParams(3, 2.0, 1.0, 0.5 * sharp_constant(F), 2.0, 3.0)
    config = SearchConfig(knots=32, radius=8.0, restarts=5, budget=300)
    calls = _lockstep_runs(monkeypatch, lambda: search(params, F, config))
    stops = [r[3] for r in calls[0][3]]
    assert "STOP: TOTAL NO. OF F,G EVALUATIONS EXCEEDS LIMIT" in stops
    _assert_lockstep_is_serial(calls)


def test_sweep_runs_its_points_as_one_lockstep_search(gauge_euclid, monkeypatch):
    # every point's restarts ascend together, each on its point's objective
    config = small_config(restarts=8)
    calls = _lockstep_runs(monkeypatch, lambda: identity_sweep(
        PARAMS, gauge_euclid, grid_size=8, config=config))
    assert len(calls) == 1
    objs = calls[0][0]
    assert len(objs) == 16 and len({obj.params.lam for obj in objs}) == 8
    _assert_lockstep_is_serial(calls)


@pytest.mark.parametrize("beta", [0.5, 1.5])
@pytest.mark.parametrize("mode,radius", [("subcritical", 8.0), ("critical", 16.0)])
def test_lean_ascent_ends_where_the_accurate_one_does(gauge_euclid, beta, mode, radius):
    # the search ascends on the lean rule and reports on the accurate one:
    # from every initializer at 64 knots, the two rules' ascents end at
    # iterates whose accurate values agree far below the knots' own error
    # (measured: 5.4e-15 relative at worst)
    params = replace(PARAMS, beta=beta, lam=0.5 * sharp_constant(gauge_euclid))
    knots = geometric_knots(radius, 64)
    accurate = RadialObjective(params, gauge_euclid, knots, mode)
    lean = RadialObjective(params, gauge_euclid, knots, mode, rule=LEAN)
    for init in _initializers(knots):
        w = _theta_to_decrements(init)
        want = accurate.value(_ascend_one(accurate, w, 4000)[0])
        got = accurate.value(_ascend_one(lean, w, 4000)[0])
        assert got == pytest.approx(want, rel=1e-12)


# -- Wulff reduction -----------------------------------------------------------

METAMORPHIC_GAUGES = {
    "pnorm4": lambda request: request.getfixturevalue("gauge_pnorm4"),
    "ellipse": lambda request: request.getfixturevalue("gauge_ellipse"),
    "sampled_even": lambda request: request.getfixturevalue("gauge_sampled_smooth"),
    "sampled_uneven": lambda request: request.getfixturevalue("gauge_uneven"),
    "ellipse_3d": lambda request: FinslerNorm.ellipse(np.diag([4.0, 1.0, 2.0])),
    "pnorm4_3d": lambda request: FinslerNorm.pnorm(4.0, 3),
}


@pytest.mark.parametrize("search,variant", [(estimate_f, "phi_series"),
                                            (estimate_f, "exp_power"),
                                            (direct_critical_max, "phi_series")],
                         ids=["subcritical", "subcritical-exp_power", "critical"])
@pytest.mark.parametrize("gauge", list(METAMORPHIC_GAUGES))
def test_search_value_depends_on_gauge_through_kappa(gauge, search, variant, request):
    # Wulff symmetry: with k = kappa_n(F)/omega_n and rho = k^{(q/n-1)/n},
    # f_F(lam) = k rho^{n-beta} f_E(lam k^{-1/(n-1)}) (times k^{-p/n} for the
    # exp-power integrand), q != n and a != b included
    F = METAMORPHIC_GAUGES[gauge](request)
    n = F.dim
    q, beta, a, b = (3.0, 0.5, 1.5, 4.0) if n == 2 else (2.0, 1.0, 2.0, 3.0)
    params = FunctionalParams(n=n, q=q, beta=beta, lam=0.5 * sharp_constant(F),
                              a=a, b=b, p=q, variant=variant)
    euclid = FinslerNorm.euclidean(n)
    k = wulff_volume(F) / wulff_volume(euclid)
    rho = k ** ((q / n - 1.0) / n)
    c = k * rho ** (n - beta)
    if search is estimate_f and variant == "exp_power":
        c *= k ** (-q / n)
    config = small_config(restarts=3)
    got = search(params, F, config)
    ref = search(params.with_lam(params.lam * k ** (-1.0 / (n - 1.0))), euclid, config)
    assert abs(got.value / (c * ref.value) - 1.0) <= 1e-13
    assert np.allclose(got.restart_values, c * np.array(ref.restart_values),
                       rtol=1e-13, atol=0.0)
    assert max(got.restart_values) == pytest.approx(got.value, rel=1e-12)


# -- sweep --------------------------------------------------------------------

def test_identity_sweep_smoke(gauge_euclid):
    sweep = identity_sweep(PARAMS, gauge_euclid, grid_size=8,
                           config=small_config())
    assert np.all((sweep.ts > 0.0) & (sweep.ts < PARAMS.lam))
    assert np.all(np.diff(sweep.ts) > 0.0)
    assert np.allclose(sweep.products, sweep.brackets * sweep.f_estimates)
    k = int(np.argmax(sweep.products))
    assert sweep.t_star == sweep.ts[k]
    assert sweep.g_value == sweep.products[k]
    assert len(sweep.profiles) == sweep.ts.size
    diag = sweep.endpoint_diagnostics
    assert set(diag) >= {"low_t_products", "high_t_products", "threshold"}
    assert diag["threshold"] is None                       # beta > 0
    for bad in (4, 8.5, np.nan):
        with pytest.raises(ParamError, match="grid_size"):
            identity_sweep(PARAMS, gauge_euclid, grid_size=bad)


def test_identity_sweep_points_stand_alone(gauge_euclid):
    # each f is the standalone search at its t with the per-point config
    # (a quarter of the restarts, at least 2): no warm start carries over
    sweep = identity_sweep(PARAMS, gauge_euclid, grid_size=8,
                           config=small_config(restarts=8))
    point = small_config(restarts=2)
    for t, f in zip(sweep.ts, sweep.f_estimates):
        assert f == estimate_f(PARAMS.with_lam(float(t)), gauge_euclid, point).value


@pytest.mark.parametrize("beta, p", [(0.0, 2.0), (0.5, 3.0)])
def test_identity_sweep_samples_the_phi_problem(gauge_euclid, beta, p):
    # the sup identity and the scaling construction hold for the Phi-series
    # subcritical value, which the critical functional integrates; an
    # exp-power sweep samples that f, bit for bit.  Sampling the exp-power f
    # instead gave g 1000.04 against 6.2802 at beta 0, 67,868 against 3.964
    # at beta 0.5
    phi_params = FunctionalParams(2, 2.0, beta, 0.5 * sharp_constant(gauge_euclid),
                                  2.0, 2.0, p=p)
    config = small_config(knots=16, budget=60)
    want = identity_sweep(phi_params, gauge_euclid, grid_size=8, config=config)
    got = identity_sweep(replace(phi_params, variant="exp_power"), gauge_euclid,
                         grid_size=8, config=config)
    for name in ("ts", "f_estimates", "products"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert (got.t_star, got.g_value) == (want.t_star, want.g_value)


def test_identity_sweep_builds_grid_operators_once(gauge_euclid, monkeypatch):
    # every point of the sweep searches on one knot grid, so at PARAMS.beta
    # the whole sweep builds one lean rule there, for the ascents, and one
    # accurate rule, for the restart values; the witness's q-norms take the
    # rule at beta 0, and its value the rule on a rescaled grid
    builds = []
    rule = functional._radial_rule

    def counting_rule(knots, n, beta, quadrature=ACCURATE):
        if beta == PARAMS.beta:
            builds.append((np.array(knots), quadrature))
        return rule(knots, n, beta, quadrature)

    monkeypatch.setattr(functional, "_radial_rule", counting_rule)
    functional._grid_operators.cache_clear()
    config = small_config()
    sweep = identity_sweep(PARAMS, gauge_euclid, grid_size=8, config=config)
    assert sweep.ts.size == 8
    grid = geometric_knots(config.radius, config.knots)
    on_grid = [quadrature for knots, quadrature in builds if np.array_equal(knots, grid)]
    assert sorted(on_grid) == [ACCURATE, LEAN]


# -- diagnostics --------------------------------------------------------------

def test_maximizer_diagnostics(gauge_euclid):
    est = estimate_f(PARAMS, gauge_euclid, small_config(budget=800))
    rep = maximizer_diagnostics(est.profile, PARAMS, gauge_euclid,
                                grid_resolution=128)
    assert rep.value == pytest.approx(est.value, rel=1e-12)
    assert rep.grad_norm_residual < 1e-10
    assert rep.symmetry_residual <= 6.0 * (2.2 * est.profile.support_radius / 128)
    # a witness of the ascent: no perturbation beats it
    assert rep.local_optimality_margin == 0.0
    with pytest.raises(ParamError):
        maximizer_diagnostics(est.profile, PARAMS, gauge_euclid,
                              objective="nope")


@pytest.mark.parametrize("mode,gauge", [
    ("subcritical", "gauge_euclid"), ("critical", "gauge_euclid"),
    ("subcritical", "gauge_pnorm4"), ("critical", "gauge_pnorm4")],
    ids=["subcritical", "critical", "subcritical-pnorm4", "critical-pnorm4"])
def test_margin_equals_serial_reference(request, mode, gauge, monkeypatch):
    # the normalized cone is not a maximizer, so its margin is positive; the
    # margin perturbs the decrements and scores the candidates in row blocks
    # of one stack pass, which must reproduce this value_and_grad loop and
    # the former one-candidate-at-a-time maximum of value, without a single
    # value_and_grad call and without the isotonic projection
    F = request.getfixturevalue(gauge)
    knots = geometric_knots(8.0, 24)
    g = RadialProfile(knots, np.append(_initializers(knots)[0], 0.0))
    g = (normalize_sphere(g, PARAMS.q, F) if mode == "subcritical" else
         constraint_scale(g, PARAMS.a, PARAMS.b, F, PARAMS.q).scaled)
    obj = RadialObjective(PARAMS, F, g.knots, mode)
    rng = np.random.default_rng(0)
    w0 = -np.diff(g.values)
    value = (atmsc_value if mode == "subcritical" else critical_value)(g, PARAMS, F)
    trials = w0 * (1.0 + 1e-3 * rng.standard_normal((200, w0.size)))
    want = 0.0
    for w in trials:
        want = max(want, obj.value_and_grad(w)[0] - value)
    assert want > 1e-4
    assert want == max(0.0, max(obj.value(w) for w in trials) - value)

    calls = []
    serial = RadialObjective.value_and_grad
    monkeypatch.setattr(RadialObjective, "value_and_grad",
                        lambda self, theta: calls.append(1) or serial(self, theta))
    monkeypatch.setattr(maximize, "isotonic_nonincreasing", None)
    rep = maximizer_diagnostics(g, PARAMS, F, grid_resolution=64, objective=mode)
    assert rep.local_optimality_margin == want
    assert calls == []
