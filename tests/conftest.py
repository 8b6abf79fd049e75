"""Shared gauge fixtures and the symmetrization test corpus.

Sampled-gauge construction is the expensive part (the polar sweep touches
every node), so those instances are session-scoped and their polars are
forced once up front.

The BLAS pool is pinned to one thread before numpy loads, as the benchmark
pins it: the search's L-BFGS-B kernel calls BLAS on every iteration, and a
second BLAS thread slows it badly once the other cores are busy.  An
explicit environment wins.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

from anisotm import FinslerNorm, GridFunction

MAXGAUGE_NODES = 1 << 16
SMOOTH_NODES = 4096


@pytest.fixture(scope="session")
def gauge_euclid():
    return FinslerNorm.euclidean(2)


@pytest.fixture(scope="session")
def gauge_pnorm4():
    return FinslerNorm.pnorm(4.0)


@pytest.fixture(scope="session")
def gauge_ellipse():
    return FinslerNorm.ellipse([[4.0, 0.0], [0.0, 1.0]])


@pytest.fixture(scope="session")
def gauge_maxgauge():
    """max(|x1|, |x2|), tabulated densely; its Wulff ball is the l1 ball."""
    th = np.arange(MAXGAUGE_NODES) * (2.0 * np.pi / MAXGAUGE_NODES)
    F = FinslerNorm.sampled(np.maximum(np.abs(np.cos(th)), np.abs(np.sin(th))),
                            rule="linear")
    F.polar()
    return F


@pytest.fixture(scope="session")
def gauge_sampled_smooth():
    """Smooth four-lobed perturbation of the circle, spline-interpolated."""
    th = np.arange(SMOOTH_NODES) * (2.0 * np.pi / SMOOTH_NODES)
    F = FinslerNorm.sampled(1.0 + 0.05 * np.cos(4.0 * th), rule="spline")
    F.polar()
    return F


@pytest.fixture(scope="session")
def gauge_uneven():
    """|xi| + 0.3 xi_1, not even: its Wulff ball is the unit disc centred at
    (0.3, 0), so F0(-x) differs from F0(x)."""
    th = np.arange(SMOOTH_NODES) * (2.0 * np.pi / SMOOTH_NODES)
    F = FinslerNorm.sampled(1.0 + 0.3 * np.cos(th), rule="spline")
    F.polar()
    return F


@pytest.fixture(scope="session")
def anchor_gauges(gauge_euclid, gauge_ellipse, gauge_maxgauge):
    return {"euclidean": gauge_euclid, "ellipse": gauge_ellipse,
            "maxgauge": gauge_maxgauge}


def corpus_functions(centers, rng):
    """Twelve grid functions on the given cell centers: radial model shapes,
    plateaus, indicators, and asymmetric mixtures."""
    x, y = centers[..., 0], centers[..., 1]
    r = np.hypot(x, y)
    out = {}
    out["cone"] = np.maximum(1.0 - r, 0.0)
    out["gauss"] = np.exp(-2.0 * r ** 2) * (r < 2.2)
    out["capped_cone"] = np.minimum(np.maximum(1.2 - r, 0.0), 0.6)
    out["square_ind"] = ((np.abs(x) < 1.0) & (np.abs(y) < 1.0)).astype(float)
    out["steep_log"] = (np.maximum(np.log(1.0 / np.maximum(r, 1e-12))
                                   / np.log(50.0), 0.0) * (r < 1.0))
    out["two_bumps"] = (np.exp(-8.0 * ((x - 0.6) ** 2 + y ** 2))
                        + 0.7 * np.exp(-10.0 * ((x + 0.6) ** 2 + (y - 0.2) ** 2))) * (r < 2.0)
    out["ring"] = np.exp(-12.0 * (r - 0.8) ** 2) * (r < 2.0)
    out["tilted_plane"] = np.maximum(1.0 - r, 0.0) * (1.0 + 0.4 * x)
    out["plateau"] = np.where(r < 0.4, 1.0, np.maximum((1.0 - r) / 0.6, 0.0))
    out["pyramid"] = np.maximum(1.0 - np.maximum(np.abs(x), np.abs(y)), 0.0)
    out["cross"] = ((((np.abs(x) < 0.3) & (np.abs(y) < 1.2))
                     | ((np.abs(y) < 0.3) & (np.abs(x) < 1.2))).astype(float)
                    * np.maximum(1.3 - r, 0.1) * (r < 1.3))
    blob = np.zeros_like(r)
    for _ in range(4):
        cx, cy = rng.uniform(-0.7, 0.7, 2)
        s = rng.uniform(4.0, 12.0)
        a = rng.uniform(0.3, 1.0)
        blob += a * np.exp(-s * ((x - cx) ** 2 + (y - cy) ** 2))
    out["rand_blobs"] = blob * (r < 1.5)
    return out


def corpus_grid(name, F, m, seed=7):
    """One corpus member on a box sized so the symmetrized support fits."""
    a_pol = F.polar().direction_bounds()[0]
    halfwidth = 2.6 / min(a_pol, 1.0)
    shell = GridFunction.zeros(2, halfwidth, m)
    rng = np.random.default_rng(seed)
    vals = corpus_functions(shell.centers(), rng)[name]
    vals = vals.copy()
    vals[0, :] = vals[-1, :] = 0.0
    vals[:, 0] = vals[:, -1] = 0.0
    return GridFunction(halfwidth, vals)


CORPUS_NAMES = ("cone", "gauss", "capped_cone", "square_ind", "steep_log",
                "two_bumps", "ring", "tilted_plane", "plateau", "pyramid",
                "cross", "rand_blobs")
