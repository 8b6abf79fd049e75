"""Decreasing rearrangement and convex symmetrization on uniform grids.

Grid functions live at cell centers of [-L, L]^n with zero boundary layer,
so extension by zero is consistent and the sort-based decreasing
rearrangement u_sharp is exact (grid functions are step functions).  Convex
symmetrization composes u_sharp with the reflected Wulff-ball volume radius:

    u_star(x) = u_sharp(kappa * F0(-x)^n),

which is equimeasurable with u and nonincreasing in F0(-x).  Reflecting x
makes F(grad u_star) = |g'|, so the radial formulas of functional hold for
uneven gauges too (Van Schaftingen, Ann. IHP 23, 2006).  The module also
carries the verification harness: equimeasurability gaps, the Polya-Szego
energy comparison, the Hardy-Littlewood product inequality, and the
symmetry gap ||u - u_star||_1 / ||u||_1 that all equality-case
diagnostics read.

Discretization allowance: symmetrization moves mass across cell boundaries,
so identities that are exact in the continuum hold on grids only up to a
resolution-dependent gap.  The declared allowance is disc_tolerance(h) =
C * h; C was calibrated on Euclidean cone profiles at M in {128, 256, 512}
(max observed relative gap around 0.9*h for the norms and 2.8*h for the
energy comparison) and frozen with headroom.
"""

import copy
from dataclasses import dataclass

import numpy as np

from .finsler import _cached, wulff_volume
from .functional import (ParamError, FunctionalOverflowError, _count, _kernel,
                         dirichlet_energy_radial)
from .profiles import RadialProfile

DISC_TOL_COEFF = 6.0


def disc_tolerance(h):
    """Declared discretization allowance C*h for grid-vs-continuum gaps."""
    return DISC_TOL_COEFF * h


class SupportOverflowError(RuntimeError):
    """Symmetrized support does not fit inside the grid box."""

    def __init__(self, message, needed_halfwidth=None):
        super().__init__(message)
        self.needed_halfwidth = needed_halfwidth


class SymmetryError(ValueError):
    """Input claimed to be Wulff-symmetric exceeds the symmetry tolerance."""


def _boundary_nonzero(vals):
    """True when the outermost cell layer of the cube ``vals`` is not all zero."""
    return any(np.any(np.take(vals, (0, -1), axis=k)) for k in range(vals.ndim))


def _cell_centers(dim, halfwidth, m):
    """Cell-center coordinates of the grid of side m on [-halfwidth,
    halfwidth]^dim, shape (m,)*dim + (dim,)."""
    ax = -halfwidth + (np.arange(m) + 0.5) * (2.0 * halfwidth / m)
    return np.stack(np.meshgrid(*([ax] * dim), indexing="ij"), axis=-1)


class GridFunction:
    """Nonnegative function sampled at cell centers of [-L, L]^n.

    ``values`` is an (m,)*n array; axis k of the array is coordinate k.
    The outermost cell layer must be zero so that zero extension to all of
    space is consistent.

    A grid function is immutable: the constructor copies ``values`` and
    marks the copy read-only.  That lets ``_cache`` keep what is derived
    from the values, each computed on first use by ``finsler._cached``: the
    decreasing rearrangement (key "sharp", which ``convex_symmetrization``
    fills in for its result), and per gauge F the convex symmetrization
    (key ("star", F)), its relative L1 distance from the values (key
    ("gap", F), ``symmetry_gap``) and the radial profile of ``profile_of``
    (key ("profile", F)).  What depends on the grid alone, F0 at the cell
    centers, is kept on the gauge, one field per grid (``_wulff_field``).
    """

    def __init__(self, halfwidth, values):
        values = np.array(values, dtype=float)
        if values.ndim not in (2, 3):
            raise ValueError("grid functions are 2-d or 3-d")
        m = values.shape[0]
        if values.shape != (m,) * values.ndim or m < 4:
            raise ValueError(f"values must be a cube of side >= 4, got {values.shape}")
        if not 0.0 < halfwidth < np.inf:
            raise ValueError(f"halfwidth must be positive and finite, got {halfwidth}")
        if not (values.min() >= 0.0 and values.max() < np.inf):   # NaN fails too
            raise ValueError("grid values must be finite and nonnegative")
        if _boundary_nonzero(values):
            raise ValueError("boundary cell layer must be zero")
        values.flags.writeable = False
        self.halfwidth = float(halfwidth)
        self.values = values
        self._cache = {}
        self.dim = values.ndim
        self.m = m

    @property
    def h(self):
        return 2.0 * self.halfwidth / self.m

    @property
    def cell_volume(self):
        return self.h ** self.dim

    def axis_centers(self):
        return _cell_centers(1, self.halfwidth, self.m)[:, 0]

    def centers(self):
        """Cell-center coordinates, shape (m,)*dim + (dim,)."""
        return _cell_centers(self.dim, self.halfwidth, self.m)

    @classmethod
    def zeros(cls, dim, halfwidth, m):
        return cls(halfwidth, np.zeros((_count(m, "the grid side m", 4),) * dim))

    def _with_values(self, values):
        """A grid function on this grid holding ``values``, a float cube the
        library has just computed, finite and nonnegative with a zero
        boundary layer: kept as it is, made read-only, without the copy
        and the checks of the constructor."""
        other = copy.copy(self)
        values.flags.writeable = False
        other.values, other._cache = values, {}
        return other

    # -- file formats: text "N L M" + row-major values, or JSON ----------

    def save(self, path):
        with open(path, "w") as fh:
            fh.write(f"{self.dim} {self.halfwidth!r} {self.m}\n")
            np.savetxt(fh, self.values.reshape(self.m, -1), fmt="%.17g")

    @classmethod
    def from_file(cls, path):
        with open(path) as fh:
            head = fh.readline().split()
            if len(head) != 3:
                raise ValueError("header must be 'N L M'")
            dim, l, m = int(head[0]), float(head[1]), int(head[2])
            flat = np.loadtxt(fh).ravel()
        if flat.size != m ** dim:
            raise ValueError(f"expected {m ** dim} values, got {flat.size}")
        return cls(l, flat.reshape((m,) * dim))

    @classmethod
    def from_json(cls, obj):
        for key in ("n", "l", "m", "values"):
            if key not in obj:
                raise ValueError(f"grid JSON lacks {key!r}")
        flat = np.asarray(obj["values"], dtype=float)
        if flat.size != obj["m"] ** obj["n"]:
            raise ValueError("grid JSON value count does not match m^n")
        return cls(obj["l"], flat.reshape((obj["m"],) * obj["n"]))


@dataclass(frozen=True)
class StepRearrangement:
    """Right-continuous nonincreasing step function of the measure variable.

    u_sharp(t) = values[k] on [breakpoints[k-1], breakpoints[k]) and 0 past
    the last breakpoint; levels are strictly decreasing and positive.
    """

    breakpoints: np.ndarray
    values: np.ndarray

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        idx = np.searchsorted(self.breakpoints, t, side="right")
        if self.values.size == 0:
            out = np.zeros_like(t)
        else:
            out = np.where(idx < self.values.size,
                           self.values[np.minimum(idx, self.values.size - 1)], 0.0)
        return float(out) if out.ndim == 0 else out

    @property
    def total_support(self):
        return float(self.breakpoints[-1]) if self.breakpoints.size else 0.0


def grid_lq_norm(u, q):
    """(h^n sum u^q)^{1/q}, the midpoint quadrature of ||u||_q."""
    if not q >= 1.0:
        raise ParamError(f"q must be >= 1, got {q}")
    return float((u.cell_volume * np.sum(u.values ** q)) ** (1.0 / q))


def distribution_function(u, s):
    """Measure of the superlevel set {u >= s} by cell counting."""
    if not s >= 0.0:
        raise ValueError(f"level must be nonnegative, got {s}")
    return float(u.cell_volume * np.count_nonzero(u.values >= s))


@_cached("sharp")
def decreasing_rearrangement(u):
    """Exact decreasing rearrangement of the grid step function.

    Distinct positive values become levels; breakpoints are cumulative cell
    measures.  Sort ties carry no ambiguity: equal values merge into one
    step, so the result is independent of tie order.  It is computed once
    per grid function and kept in ``u._cache``.
    """
    flat = u.values.ravel()
    pos = flat[flat > 0.0]
    if pos.size == 0:
        return StepRearrangement(np.zeros(0), np.zeros(0))
    lev, counts = np.unique(pos, return_counts=True)
    breaks = np.cumsum(counts[::-1]) * u.cell_volume
    rearr = StepRearrangement(breaks, lev[::-1])
    rearr.breakpoints.flags.writeable = rearr.values.flags.writeable = False
    return rearr


@_cached("wulff_field")
def _wulff_field(F, dim, halfwidth, m):
    """(F0, t_sorted, order) on the cell centers of the grid of side m on
    [-halfwidth, halfwidth]^dim.

    F0 is the polar gauge at the reflected centers -x (a negated half-width
    gives them, bit for bit), shape (m,)*dim; t = kappa F0^n is the
    Wulff-ball volume of each center's level, and ``order`` sorts the
    flattened t ascending (t_sorted = t[order]); the order among equal t is
    unspecified, since convex_symmetrization gives every cell of a block of
    equal t one value.  The gauge keeps one read-only field per grid, so
    all uses on one grid evaluate F0 once.
    """
    f0 = F.polar()(_cell_centers(dim, -halfwidth, m).reshape(-1, dim))
    t = wulff_volume(F) * f0 ** dim
    order = np.argsort(t).astype(np.int32)
    field = (f0.reshape((m,) * dim), t[order], order)
    for arr in field:
        arr.flags.writeable = False
    return field


@_cached("star")
def convex_symmetrization(u, F):
    """u_star(x) = u_sharp(kappa F0(-x)^n) sampled on u's own grid.

    The cells in ascending order of t = kappa F0(-x)^n take the
    rearrangement's levels in turn: level k goes to the cells with t in
    [breakpoints[k-1], breakpoints[k]), found by bisecting the sorted t.
    A left bisection never splits a block of equal t, so the order of ties
    in the sort changes no value.

    The result is computed once per gauge and kept in ``u._cache``, and
    u_star's own decreasing rearrangement in u_star's: the levels that got
    cells, each ending at the measure of the cells up to its last, bit for
    bit what decreasing_rearrangement would compute by sorting u_star.

    Raises SupportOverflowError when the symmetrized support touches the
    zero boundary layer (the caller must enlarge the box).
    """
    rearr = decreasing_rearrangement(u)
    if rearr.values.size == 0:
        return u._with_values(np.zeros_like(u.values))
    _, t_sorted, order = _wulff_field(F, u.dim, u.halfwidth, u.m)
    ends = np.searchsorted(t_sorted, rearr.breakpoints, side="left")
    counts = np.diff(ends, prepend=0)
    vals = np.zeros(t_sorted.size)          # only the support cells are written
    vals[order[:ends[-1]]] = np.repeat(rearr.values, counts)
    vals = vals.reshape(u.values.shape)
    if _boundary_nonzero(vals):
        r_supp = (rearr.total_support / wulff_volume(F)) ** (1.0 / u.dim)
        raise _support_overflow("symmetrized", r_supp, F, u.h)
    ustar = u._with_values(vals)
    kept = counts > 0
    own = StepRearrangement(ends[kept] * ustar.cell_volume, rearr.values[kept])
    own.breakpoints.flags.writeable = own.values.flags.writeable = False
    ustar._cache["sharp"] = own
    return ustar


def _support_overflow(what, radius, F, h):
    """SupportOverflowError for a support of F0-radius ``radius`` at the box
    edge; the needed half-width is radius / (min of F0 on |x| = 1) + 2h."""
    need = radius / F.polar().direction_bounds()[0] + 2.0 * h
    return SupportOverflowError(
        f"{what} support radius {radius:.6g} (in F0) reaches the box edge; "
        f"use half-width >= {need:.6g}", needed_halfwidth=float(need))


@_cached("profile")
def profile_of(u_star, F):
    """Radial profile g with u_star(x) = g(F0(-x)), on m + 1 uniform knots.

    In the radial variable the rearrangement is a staircase with jumps at
    rho_k = (t_k/kappa)^{1/n}; sampling it pointwise would put its whole
    variation into isolated knot intervals and overshoot slope-sensitive
    quantities like the Dirichlet energy.  Knot values are therefore window
    averages of the staircase (computed exactly from its cumulative
    integral), which converge to the continuum profile at O(h).

    ``u_star`` must already be Wulff-symmetric: the relative L1 gap between
    u_star and the rasterization of g is checked against disc_tolerance(h).
    The zero function maps to the zero profile.

    The profile is computed once per gauge and kept in ``u_star._cache``
    under ("profile", F), with read-only knots and values; a SymmetryError
    is raised again on every call.
    """
    rearr = decreasing_rearrangement(u_star)
    kappa = wulff_volume(F)
    if rearr.values.size == 0:
        g = RadialProfile(np.array([0.0, u_star.h]), np.zeros(2))
    else:
        n = u_star.dim
        rho = (rearr.breakpoints / kappa) ** (1.0 / n)
        radius = float(rho[-1])
        seg = np.diff(np.concatenate([[0.0], rho])) * rearr.values
        cum = np.concatenate([[0.0], np.cumsum(seg)])
        jump_r = np.concatenate([[0.0], rho])
        # windows never narrower than the grid resolution: near the center the
        # staircase jumps are sparser than h and narrower windows stay jagged
        half = max(0.5 * radius / u_star.m, u_star.h)
        # knots extend one window width past the staircase so the averaged ramp
        # descends to zero on its own; truncating it at the support radius
        # leaves a cliff one knot wide whose slope pollutes the Dirichlet energy
        knots = np.linspace(0.0, radius + 2.0 * half, u_star.m + 1)
        half = max(0.5 * (knots[1] - knots[0]), half)
        lo = np.clip(knots - half, 0.0, None)
        hi = knots + half
        ints = np.interp(hi, jump_r, cum) - np.interp(lo, jump_r, cum)
        vals = ints / (hi - lo)
        vals[-1] = 0.0
        g = RadialProfile(knots, np.minimum.accumulate(np.maximum(vals, 0.0)))
        resid = g(_wulff_field(F, n, u_star.halfwidth, u_star.m)[0])
        resid -= u_star.values              # in place: |g - u| is |u - g| bit for bit
        np.abs(resid, out=resid)
        l1 = np.sum(u_star.values)          # the values are nonnegative
        gap = float(np.sum(resid) / max(l1, 1e-300))
        tol = disc_tolerance(u_star.h)
        if gap > tol:
            raise SymmetryError(
                f"input is not Wulff-symmetric within tolerance: relative L1 "
                f"residual {gap:.3e} > {tol:.3e}")
    g.knots.flags.writeable = g.values.flags.writeable = False
    return g


def rasterize_profile(g, F, halfwidth, m):
    """Sample g(F0(-x)) on a fresh grid of F's dimension."""
    if not 0.0 < halfwidth < np.inf:
        raise ValueError(f"a grid needs a positive finite half-width, got {halfwidth}")
    m = _count(m, "the grid side m", 4)
    vals = g(_wulff_field(F, F.dim, halfwidth, m)[0])
    if _boundary_nonzero(vals):
        raise _support_overflow("profile", g.support_radius, F, 2.0 * halfwidth / m)
    return GridFunction(halfwidth, vals)


def _forward_slopes(v, axis, h):
    """np.diff(v, axis=axis, append=0.0) / h bit for bit, in one array and
    without the padded copy of v: the last layer is (0.0 - v[-1]) / h."""
    d = np.empty_like(v)
    dv, vv = np.moveaxis(d, axis, 0), np.moveaxis(v, axis, 0)
    np.subtract(vv[1:], vv[:-1], out=dv[:-1])
    np.subtract(0.0, vv[-1], out=dv[-1])
    d /= h
    return d


def grid_dirichlet_energy(u, F):
    """h^n sum F(grad u)^n with forward differences and zero extension.

    F is evaluated on the gradient's support only: every gauge has
    F(0) = 0 exactly, so the other cells add exact zeros.  F^n is scattered
    back into a zero array of the grid's shape and the whole array is
    summed, so the sum runs in the same order over the same terms as one
    over every cell and the value is bitwise the same.
    """
    comps = [_forward_slopes(u.values, k, u.h) for k in range(u.dim)]
    active = comps[0] != 0.0
    for c in comps[1:]:
        active |= c != 0.0
    density = np.zeros(u.values.shape)
    density[active] = F(np.stack([c[active] for c in comps], axis=-1)) ** u.dim
    return float(u.cell_volume * np.sum(density))


def grid_atmsc_value(u, params, F):
    """Grid quadrature of the exponential integrand with weight F0(-x)^{-beta}.

    Cell-center evaluation keeps the singular weight finite provided no
    center sits at the origin; even m guarantees that.
    """
    if params.beta > 0.0 and u.m % 2 == 1:
        raise ParamError("grids with odd m have a cell center at the origin; "
                         "the singular weight needs even m")
    try:
        kern = _kernel(u.values, params)
    except FunctionalOverflowError as err:
        k = int(np.argmax(u.values))
        raise FunctionalOverflowError(
            f"integrand overflow at grid cell {np.unravel_index(k, u.values.shape)}: {err}",
            knot_index=k, argument=err.argument) from None
    if params.beta > 0.0:
        w = _wulff_field(F, u.dim, u.halfwidth, u.m)[0] ** (-params.beta)
        kern = kern * w
    return float(u.cell_volume * np.sum(kern))


# -- inequality harnesses ----------------------------------------------------

@_cached("gap")
def symmetry_gap(u, F):
    """||u - u_star||_1 / ||u||_1, the relative L1 distance of u from its
    convex symmetrization, and 0 for the zero function.

    This is the one measure of how far a grid function is from
    Wulff-symmetric, read by every equality-case check and compared with
    disc_tolerance(h); it does not change when u is scaled.  It is computed
    once per gauge and kept in ``u._cache`` under ("gap", F).
    """
    ustar = convex_symmetrization(u, F)
    l1 = float(np.sum(u.values))            # the values are nonnegative
    return float(np.sum(np.abs(u.values - ustar.values)) / max(l1, 1e-300))


@dataclass(frozen=True)
class HardyLittlewoodResult:
    lhs: float                # int f g
    rhs: float                # int f* g*
    gap: float                # rhs - lhs, nonnegative up to quadrature
    g_symmetry_gap: float     # symmetry_gap(g, F), relative, vs disc_tolerance(h)


def hardy_littlewood_check(f, g, F):
    """Product-integral comparison int f g <= int f* g*."""
    if f.dim != g.dim or f.m != g.m or f.halfwidth != g.halfwidth:
        raise ValueError("both factors must live on the same grid")
    lhs = float(f.cell_volume * np.sum(f.values * g.values))
    fs = convex_symmetrization(f, F)
    gs = convex_symmetrization(g, F)
    rhs = float(f.cell_volume * np.sum(fs.values * gs.values))
    return HardyLittlewoodResult(lhs=lhs, rhs=rhs, gap=rhs - lhs,
                                 g_symmetry_gap=symmetry_gap(g, F))


@dataclass(frozen=True)
class PolyaSzegoResult:
    energy_u: float
    energy_ustar: float
    gap: float                # energy_u - energy_ustar, >= -disc allowance


def polya_szego_check(u, F):
    """Anisotropic Dirichlet energies of u and u_star, and their gap.

    The grid energy uses forward differences; the symmetrized energy goes
    through the radial profile, where piecewise-linear slopes integrate in
    closed form.
    """
    if not np.any(u.values > 0.0):
        return PolyaSzegoResult(0.0, 0.0, 0.0)
    e_u = grid_dirichlet_energy(u, F)
    ustar = convex_symmetrization(u, F)
    prof = profile_of(ustar, F)
    e_star = dirichlet_energy_radial(prof, F)
    return PolyaSzegoResult(energy_u=e_u, energy_ustar=e_star, gap=e_u - e_star)


def equimeasurability_gaps(u, ustar, qs):
    """Relative gaps |  ||u||_q - ||u*||_q | / ||u||_q for each q."""
    out = {}
    for q in qs:
        a = grid_lq_norm(u, q)
        b = grid_lq_norm(ustar, q)
        out[float(q)] = abs(a - b) / max(a, 1e-300)
    return out
