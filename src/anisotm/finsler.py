"""Finsler gauges (anisotropic norms) and their polar duals.

A gauge F is a positively 1-homogeneous convex function on R^n that
vanishes only at the origin.  Its polar F0(x) = sup_{xi != 0} <x, xi>/F(xi)
is again a gauge, and the sublevel sets {F0 <= r} are the Wulff balls of F.
Gauges need not be even.  As F(grad F0) = 1, u = g(F0(-x)) has F(grad u) =
|g'| for decreasing g, so the library's Wulff-symmetric functions are
g(F0(-x)), which is g(F0(x)) for an even gauge (rearrange, functional).
The module provides evaluation, gradients, polar duals, Wulff-ball volumes
kappa_n = |{F0 <= 1}|, the sharp exponential-integrability constant

    lambda_n = n^{n/(n-1)} * kappa_n^{1/(n-1)},

and consistency checks (bipolar identity, anisotropic coarea formula).

Supported kinds: 'euclidean', 'pnorm' (l^p, 1 < p < inf), 'ellipse'
(F = sqrt(x' A x) for SPD A), and 'sampled' (directional values on a
uniform angle grid, interpolated).  Closed-form kinds have closed-form
gradients, polars and Wulff volumes; sampled gauges fall back to
interpolation, central differences, a support function read off the convex
hull of the sampled unit sphere, and quadrature for kappa_n.
"""

import numbers
from functools import wraps
from math import gamma

import numpy as np
from scipy.interpolate import CubicSpline, PchipInterpolator, RectBivariateSpline
from scipy.spatial import ConvexHull

_ZERO_TOL = 1e-12        # points below this radius have no defined gradient
_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0
_CONVEX_TOL = 1e-10      # sampled nodes this far (relative) inside the hull are a dent
_POLAR_BLOCK = 512       # output directions per block of the 3-d sampled polar


class GaugeError(ValueError):
    """Invalid gauge construction or use."""


def _cached(name):
    """Decorator keeping fn(obj, *args) in ``obj._cache`` under ``name``, or
    (name, *args) when there are more arguments: computed on the first call,
    the stored object returned after that, a raised error never stored."""
    def decorate(fn):
        @wraps(fn)
        def memo(obj, *args):
            key = (name, *args) if args else name
            if key not in obj._cache:
                obj._cache[key] = fn(obj, *args)
            return obj._cache[key]
        return memo
    return decorate


def _as_points(x, dim):
    x = np.asarray(x, dtype=float)
    if x.shape == (dim,):
        return x[None, :], True
    if x.ndim >= 1 and x.shape[-1] == dim:
        return x.reshape(-1, dim), False
    raise GaugeError(f"expected points with last axis {dim}, got shape {x.shape}")


def _wrap_angle(t):
    """np.mod(t, 2*pi), bit for bit, for t in [-2*pi, 4*pi).

    The callers pass arctan2 output or golden-section points within one node
    spacing of [0, 2*pi), so one conditional add or subtract of 2*pi
    suffices: t + 2*pi rounds as np.mod does (a tiny negative t gives 2*pi),
    t - 2*pi is exact there, and adding 0.0 turns -0.0 into +0.0.
    """
    two_pi = 2.0 * np.pi
    return np.where(t < 0.0, t + two_pi, np.where(t >= two_pi, t - two_pi, t)) + 0.0


def _is_integer(value):
    """True for an int or numpy integer that is not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _row_norms(pts):
    """Euclidean norm of each row of a (k, dim) array.

    The squared columns are summed left to right, the order in which
    np.linalg.norm(pts, axis=1) reduces its short rows, so the result is
    bitwise the same; column operations avoid numpy's slow reduction along
    a length-2 or length-3 axis.
    """
    s = pts[:, 0] * pts[:, 0]
    for i in range(1, pts.shape[1]):
        s += pts[:, i] * pts[:, i]
    return np.sqrt(s)


# per gauge kind, the keys of its spec besides "kind"; the first is required
_SPEC_KEYS = {"euclidean": (), "pnorm": ("p",), "ellipse": ("matrix",),
              "sampled": ("values", "rule")}


class FinslerNorm:
    """A gauge on R^n with cached polar dual and Wulff-ball volume.

    Construct through the classmethods (``euclidean``, ``pnorm``,
    ``ellipse``, ``sampled``, ``sampled_sphere``) or ``from_config``.
    Instances are treated as immutable; derived quantities are kept in
    ``_cache`` by ``_cached`` on first use: the polar, the Wulff volume, the
    direction bounds, the unit-radius coarea integral
    (``coarea_surface_check``) and, for each grid the rearrange layer has
    used, the Wulff field (F0 and its sort order at the cell centers).
    """

    def __init__(self, kind, dim, p=None, matrix=None, values=None, rule="spline"):
        if dim not in (2, 3):
            raise GaugeError(f"dimension must be 2 or 3, got {dim}")
        self.kind = kind
        self.dim = int(dim)
        self.p = p
        self.matrix = matrix
        self.values = values
        self.rule = rule
        self._cache = {}
        if kind == "pnorm":
            if p is None or not 1.0 < p < np.inf:
                raise GaugeError(f"pnorm exponent must lie in (1, inf), got {p}")
        elif kind == "ellipse":
            m = np.asarray(matrix, dtype=float)
            if m.shape != (dim, dim) or not np.allclose(m, m.T, atol=1e-12):
                raise GaugeError("ellipse matrix must be symmetric with shape (dim, dim)")
            w = np.linalg.eigvalsh(m)
            if w[0] <= 0.0:
                raise GaugeError("ellipse matrix must be positive definite")
            self.matrix = 0.5 * (m + m.T)
        elif kind == "sampled":
            self._init_sampled()
        elif kind != "euclidean":
            raise GaugeError(f"unknown gauge kind {kind!r}")

    # -- construction ----------------------------------------------------

    @classmethod
    def euclidean(cls, dim=2):
        return cls("euclidean", dim)

    @classmethod
    def pnorm(cls, p, dim=2):
        return cls("pnorm", dim, p=float(p))

    @classmethod
    def ellipse(cls, matrix):
        matrix = np.asarray(matrix, dtype=float)
        return cls("ellipse", matrix.shape[0], matrix=matrix)

    @classmethod
    def sampled(cls, values, rule="spline"):
        """Planar gauge from directional values on the uniform angle grid.

        ``values[k]`` is F at angle 2*pi*k/len(values).  ``rule`` selects the
        interpolant: 'spline' (periodic cubic, for smooth gauges), 'pchip'
        (shape-preserving, tolerates kinks), or 'linear'.  The polar (and so
        kappa_n) raises GaugeError when the sampled unit sphere, the points
        unit(theta_k)/values[k], is not convex.
        """
        return cls("sampled", 2, values=values, rule=rule)

    @classmethod
    def sampled_sphere(cls, values, rule="linear"):
        """Spatial gauge from values on a (theta, phi) grid.

        ``values`` has shape (n_theta, n_phi); theta is the polar angle on a
        uniform closed grid over [0, pi] (poles included), phi the azimuth on
        a uniform periodic grid over [0, 2*pi).  ``rule`` 'spline' is
        bicubic; 'linear' and 'pchip' are both the bilinear interpolant in
        (theta, phi), one and the same function.  The default here is
        'linear', bilinear; from_config's default for the same table is
        'spline', bicubic.
        """
        return cls("sampled", 3, values=values, rule=rule)

    @classmethod
    def from_config(cls, spec, dim=2):
        """Build a gauge from a JSON-style mapping.

        Recognized forms: {"kind": "euclidean"}, {"kind": "pnorm", "p": ...},
        {"kind": "ellipse", "matrix": [[...], ...]},
        {"kind": "sampled", "values": [...], "rule": ...}; any other key
        raises GaugeError.  A sampled form without "rule" is 'spline': the
        periodic cubic in the plane, and at dim 3 the bicubic, where
        sampled_sphere's default for the same table is the bilinear
        'linear'.
        """
        if not isinstance(spec, dict) or "kind" not in spec:
            raise GaugeError("gauge spec must be a mapping with a 'kind' entry")
        kind = spec["kind"]
        keys = _SPEC_KEYS.get(kind) if isinstance(kind, str) else None
        if keys is None:
            return cls(kind, dim)       # GaugeError: unknown kind
        unknown = [key for key in spec if key != "kind" and key not in keys]
        if unknown:
            raise GaugeError(f"unknown {kind} gauge spec key {unknown[0]!r}; "
                             f"the {kind} spec takes {', '.join(('kind', *keys))}")
        if keys and keys[0] not in spec:
            raise GaugeError(f"{kind} gauge spec needs {keys[0]!r}")
        if kind == "pnorm":
            return cls.pnorm(spec["p"], dim)
        if kind == "ellipse":
            return cls.ellipse(spec["matrix"])
        if kind == "sampled":
            return cls("sampled", dim, values=spec["values"], rule=spec.get("rule", "spline"))
        return cls(kind, dim)       # euclidean

    def _init_sampled(self):
        """Angle grids of the values' shape (sampled, sampled_sphere), interpolant."""
        v = self.values = np.asarray(self.values, dtype=float)
        if self.dim == 2 and (v.ndim != 1 or v.size < 8):
            raise GaugeError("sampled gauge needs at least 8 angles")
        if self.dim == 3 and (v.ndim != 2 or v.shape[0] < 5 or v.shape[1] < 8):
            raise GaugeError("sampled sphere needs a grid of at least 5 x 8 values")
        if np.any(~np.isfinite(v)) or np.any(v <= 0.0):
            raise GaugeError("sampled gauge values must be finite and positive")
        self.thetas = (np.arange(v.size) * (2.0 * np.pi / v.size) if self.dim == 2
                       else np.linspace(0.0, np.pi, v.shape[0]))
        if self.rule not in ("spline", "pchip", "linear"):
            raise GaugeError(f"unknown interpolation rule {self.rule!r}")
        if self.dim == 2:
            t = np.append(self.thetas, 2.0 * np.pi)
            y = np.append(v, v[0])
            if self.rule == "spline":
                self._interp = CubicSpline(t, y, bc_type="periodic")
            elif self.rule == "pchip":
                # pad a few nodes of wraparound so the period ends join smoothly
                k = 4
                tp = np.concatenate([self.thetas[-k:] - 2.0 * np.pi, self.thetas,
                                     self.thetas[:k] + 2.0 * np.pi])
                yp = np.concatenate([v[-k:], v, v[:k]])
                self._interp = PchipInterpolator(tp, yp)
            else:
                self._interp = (t, y)  # closed node arrays for np.interp
        else:
            ph = np.append(np.arange(v.shape[1]) * (2.0 * np.pi / v.shape[1]), 2.0 * np.pi)
            vv = np.concatenate([v, v[:, :1]], axis=1)
            kz = 3 if self.rule == "spline" else 1
            self._interp = RectBivariateSpline(self.thetas, ph, vv, kx=kz, ky=kz)

    # -- evaluation ------------------------------------------------------

    def _at_angle(self, phi):
        """F(cos phi, sin phi) of a planar sampled gauge, read off the
        interpolant at the angle itself."""
        ang = _wrap_angle(phi)
        if self.rule == "linear":
            return np.interp(ang, *self._interp)
        return self._interp(ang)

    def _directional(self, x):
        """Interpolated directional factor F(x/|x|) for sampled gauges; the
        value at a zero row is finite but arbitrary (arctan2(0, 0) = 0)."""
        if self.dim == 2:
            return self._at_angle(np.arctan2(x[:, 1], x[:, 0]))
        r = _row_norms(x)
        th = np.arccos(np.clip(x[:, 2] / np.where(r > 0.0, r, 1.0), -1.0, 1.0))
        ph = _wrap_angle(np.arctan2(x[:, 1], x[:, 0]))
        return self._interp(th, ph, grid=False)

    def __call__(self, x):
        """Evaluate F at one point (shape (dim,)) or a stack (..., dim)."""
        pts, single = _as_points(x, self.dim)
        if self.kind == "euclidean":
            out = _row_norms(pts)
        elif self.kind == "pnorm":
            # max and sum column by column, in the order of a row reduction
            cols = [np.abs(pts[:, i]) for i in range(self.dim)]
            m = cols[0]
            for c in cols[1:]:
                m = np.maximum(m, c)
            safe = np.where(m > 0.0, m, 1.0)
            total = (cols[0] / safe) ** self.p
            for c in cols[1:]:
                total += (c / safe) ** self.p
            out = m * total ** (1.0 / self.p)
        elif self.kind == "ellipse":
            out = np.sqrt(np.einsum("ki,ij,kj->k", pts, self.matrix, pts))
        else:
            r = _row_norms(pts)
            out = np.where(r > 0.0, r * self._directional(pts), 0.0)
        return float(out[0]) if single else out.reshape(np.asarray(x).shape[:-1])

    def grad(self, x):
        """Gradient of F, defined away from the origin.

        Closed-form kinds differentiate analytically; sampled gauges use
        central differences with step 1e-5 * |x|.  Raises GaugeError at
        points within 1e-12 of the origin.
        """
        pts, single = _as_points(x, self.dim)
        r = _row_norms(pts)
        if np.any(r < _ZERO_TOL):
            raise GaugeError("gradient is undefined at the origin")
        if self.kind == "euclidean":
            g = pts / r[:, None]
        elif self.kind == "pnorm":
            # s = |x| / max|x| has largest term exactly 1: no rounded ratio
            s = np.abs(pts) / np.max(np.abs(pts), axis=1, keepdims=True)
            g = np.sign(pts) * s ** (self.p - 1.0) / np.sum(
                s ** self.p, axis=1, keepdims=True) ** (1.0 - 1.0 / self.p)
        elif self.kind == "ellipse":
            f = self.__call__(pts)
            g = pts @ self.matrix / f[:, None]
        else:
            h = 1e-5 * r
            g = np.empty_like(pts)
            for i in range(self.dim):
                e = np.zeros(self.dim)
                e[i] = 1.0
                g[:, i] = (self.__call__(pts + h[:, None] * e)
                           - self.__call__(pts - h[:, None] * e)) / (2.0 * h)
        if single:
            return g[0]
        return g.reshape(np.asarray(x).shape)

    # -- derived geometry --------------------------------------------------

    @_cached("bounds")
    def direction_bounds(self):
        """(a, b) with a*|x| <= F(x) <= b*|x|, from a dense direction scan."""
        if self.dim == 2:
            t = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
            dirs = np.column_stack([np.cos(t), np.sin(t)])
            if self.kind == "sampled":
                nodes = np.column_stack([np.cos(self.thetas), np.sin(self.thetas)])
                dirs = np.vstack([dirs, nodes])
        else:
            dirs = _sphere_grid(129, 256)
        v = self.__call__(dirs)
        return (float(v.min()), float(v.max()))

    @_cached("polar")
    def polar(self):
        """The polar gauge F0(x) = sup <x, xi> / F(xi).

        Euclidean is self-polar, l^p pairs with l^{p/(p-1)}, an ellipse
        matrix pairs with its inverse.  Sampled gauges get a sampled polar
        on the same angle grid via a support-function sweep over the
        interpolated unit sphere {F = 1}.
        """
        if self.kind == "euclidean":
            return FinslerNorm.euclidean(self.dim)
        if self.kind == "pnorm":
            return FinslerNorm.pnorm(self.p / (self.p - 1.0), self.dim)
        if self.kind == "ellipse":
            return FinslerNorm.ellipse(np.linalg.inv(self.matrix))
        if self.dim == 2:
            return FinslerNorm.sampled(_polar_values_2d(self, self.thetas),
                                       rule=self.rule)
        shape = self.values.shape
        return FinslerNorm.sampled_sphere(
            _polar_values_sphere(self, _sphere_grid(*shape)).reshape(shape),
            rule=self.rule)

    def config(self):
        """JSON-ready description (inverse of from_config, up to sampling)."""
        if self.kind == "euclidean":
            return {"kind": "euclidean"}
        if self.kind == "pnorm":
            return {"kind": "pnorm", "p": self.p}
        if self.kind == "ellipse":
            return {"kind": "ellipse", "matrix": self.matrix.tolist()}
        return {"kind": "sampled", "values": np.asarray(self.values).tolist(),
                "rule": self.rule}

    def __repr__(self):
        extra = {"pnorm": lambda: f", p={self.p}",
                 "sampled": lambda: f", rule={self.rule!r}"}.get(self.kind, lambda: "")()
        return f"FinslerNorm({self.kind!r}, dim={self.dim}{extra})"


def _sphere_grid(n_theta, n_phi):
    th = np.linspace(0.0, np.pi, n_theta)
    ph = np.arange(n_phi) * (2.0 * np.pi / n_phi)
    T, P = np.meshgrid(th, ph, indexing="ij")
    return np.column_stack([(np.sin(T) * np.cos(P)).ravel(),
                            (np.sin(T) * np.sin(P)).ravel(),
                            np.cos(T).ravel()])


def _golden_max(h, a, b, iterations):
    """Elementwise golden-section search for the max of h on [a, b].

    Each step keeps the better interior point and evaluates h once, at the
    new one, so the search costs iterations + 2 evaluations of h.  Returns
    the final bracket (a, b) after ``iterations`` shrinking steps.
    """
    w = _GOLDEN * (b - a)
    c, d = b - w, a + w
    hc, hd = h(c), h(d)
    for _ in range(iterations):
        take = hc >= hd          # the max lies in [a, d]: c becomes the new d
        b = np.where(take, d, b)
        a = np.where(take, a, c)
        w = _GOLDEN * (b - a)
        new = np.where(take, b - w, a + w)
        hn = h(new)
        c, d = np.where(take, new, d), np.where(take, c, new)
        hc, hd = np.where(take, hn, hd), np.where(take, hc, hn)
    return a, b


def _node_hull(F):
    """Boundary points unit(phi_k)/F_k of a planar sampled gauge and the
    indices of their convex hull vertices, counterclockwise."""
    fvals = np.asarray(F.values, dtype=float)
    pts = np.column_stack([np.cos(F.thetas), np.sin(F.thetas)]) / fvals[:, None]
    return pts, ConvexHull(pts).vertices


def _node_argmax(F, out_thetas, hull):
    """For each output angle, the node k maximizing cos(theta - phi_k)/F_k.

    That ratio is the support function of the boundary points
    unit(phi_k)/F_k, so the maximum over all nodes is attained at a vertex of
    their convex hull (``hull``, from ``_node_hull``).
    The hull vertices come counterclockwise, so the outward edge normals
    turn monotonically and each vertex is the argmax exactly for the angles
    between the normals of its two edges.  This is exact for any positive
    data, convex or not.
    """
    pts, verts = hull
    edges = pts[np.roll(verts, -1)] - pts[verts]
    # the outward normal of the edge from verts[i] to verts[i+1] is (e_y, -e_x)
    normals = _wrap_angle(np.arctan2(-edges[:, 0], edges[:, 1]))
    by_angle = np.argsort(normals)
    j = np.searchsorted(normals[by_angle], _wrap_angle(out_thetas))
    # angles between the normals of edges i-1 and i pick their shared vertex
    return verts[by_angle[j % verts.size]]


def _check_convex_nodes(F, hull):
    """Raise GaugeError when a node lies inside the hull of the others.

    The boundary points surround the origin in angle order, so the hull edge
    that bounds node k joins the nearest hull vertices at or before and after
    it in node order.  A node deeper than _CONVEX_TOL * (max radius) inside
    that edge means the sampled unit sphere is not convex; collinear nodes,
    such as those on the edges of the max gauge's square, sit at rounding
    distance and pass.
    """
    pts, verts = hull
    verts = np.sort(verts)
    k = np.arange(pts.shape[0])
    i = np.searchsorted(verts, k, side="right") - 1    # -1 wraps to the last
    p, q = pts[verts[i]], pts[verts[(i + 1) % verts.size]]
    e = q - p
    normal = np.column_stack([e[:, 1], -e[:, 0]]) / _row_norms(e)[:, None]
    depth = np.einsum("ki,ki->k", normal, p - pts)
    worst = int(np.argmax(depth))
    radius = float(np.max(_row_norms(pts)))
    if depth[worst] > _CONVEX_TOL * radius:
        raise GaugeError(
            f"sampled gauge is not convex: the node at angle {F.thetas[worst]:.6g} "
            f"lies {depth[worst]:.3e} inside the hull of the sampled unit sphere")


def _polar_values_2d(F, out_thetas):
    """Support-function values sup_phi cos(theta - phi)/F(unit(phi)).

    The unit sphere of F is the curve phi -> unit(phi)/F(unit(phi)).  The
    convex hull of its node points rejects non-convex data
    (``_check_convex_nodes``) and gives, for each output direction, the
    discrete argmax over the nodes (``_node_argmax``); that argmax is then
    refined by a fixed-count golden-section pass on the interpolated curve.
    Taking the max of the node value and the refined value keeps polygonal
    gauges (corners on nodes) exact while recovering smooth gauges to o(h).

    Only directions that can gain are refined: h(phi) = cos(theta -
    phi)/F(phi) has one-sided slopes at the argmax node phi_k of the sign of
    sin(theta - phi_k) F_k - cos(theta - phi_k) F'(phi_k +- 0), and where
    the right one is < 0 and the left one > 0 the node keeps its value.  A
    zero slope decides nothing (PCHIP sets F' = 0 at data extrema), hence
    the non-strict tests.  Only the 'linear' rule has kinks at the nodes,
    F' there being the slopes of the two adjacent node intervals; a C^1
    rule has one slope, never both < 0 and > 0, and refines every direction.
    """
    hull = _node_hull(F)
    _check_convex_nodes(F, hull)
    idx = _node_argmax(F, out_thetas, hull)
    nodes = F.thetas[idx]
    offset = out_thetas - nodes
    fk = np.asarray(F.values, dtype=float)[idx]
    cos_off = np.cos(offset)
    out = cos_off / fk
    if F.rule == "linear":
        t, y = F._interp
        slope = np.diff(y) / np.diff(t)         # slope[k] on [t_k, t_{k+1}]
        rise = np.sin(offset) * fk
        refine = (rise >= cos_off * slope[idx]) | (rise <= cos_off * slope[idx - 1])
        sel = np.flatnonzero(refine)
        out_thetas, nodes = out_thetas[sel], nodes[sel]
    else:
        sel = slice(None)

    span = 2.0 * np.pi / F.thetas.size

    def h(phi):
        return np.cos(out_thetas - phi) / F._at_angle(phi)

    a, b = _golden_max(h, nodes - span, nodes + span, 40)
    out[sel] = np.maximum(out[sel], h(0.5 * (a + b)))
    return out


def _polar_values_sphere(F, dirs):
    """Support-function values sup_{F(x) = 1} <dir, x> of a 3-d gauge for
    each unit row of ``dirs``.

    Coarse scan over a fixed direction grid followed by golden-section
    refinement in both spherical angles, run on _POLAR_BLOCK output
    directions at a time so the (outputs x scan) dot matrix never sits in
    memory whole; every output row is computed on its own, so the block
    size does not change the values.
    """
    scan = _sphere_grid(49, 96)
    boundary = scan / F(scan)[:, None]
    return np.concatenate([_support_values(F, boundary, dirs[lo:lo + _POLAR_BLOCK])
                           for lo in range(0, dirs.shape[0], _POLAR_BLOCK)])


def _support_values(F, boundary, dirs):
    """sup over the unit sphere of F of <dir, x> for each row of ``dirs``:
    the best scanned ``boundary`` point, refined by alternating golden
    sections in theta and phi around it."""
    dots = dirs @ boundary.T
    kbest = np.argmax(dots, axis=1)
    best = dots[np.arange(dirs.shape[0]), kbest]

    sth = np.arccos(np.clip(boundary[kbest, 2] / _row_norms(boundary[kbest]),
                            -1.0, 1.0))
    sph = _wrap_angle(np.arctan2(boundary[kbest, 1], boundary[kbest, 0]))
    span_t, span_p = np.pi / 48, 2.0 * np.pi / 96

    def h(th, ph):
        d = np.column_stack([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph),
                             np.cos(th)])
        return np.einsum("ki,ki->k", dirs, d) / F(d)

    th, ph = sth.copy(), sph.copy()
    for _ in range(3):  # alternate 1-d refinements
        a, b = _golden_max(lambda t: h(t, ph), th - span_t, th + span_t, 20)
        th = np.clip(0.5 * (a + b), 0.0, np.pi)
        a, b = _golden_max(lambda p: h(th, p), ph - span_p, ph + span_p, 20)
        ph = 0.5 * (a + b)
    return np.maximum(best, h(th, ph))


# -- volumes, constants, checks -------------------------------------------

def unit_ball_measure(gauge):
    """Volume of {gauge <= 1} by the polar-coordinate formula (1/n) int r(s)^n ds.

    The radial extent in direction s is 1/gauge(s), so the integrand is
    gauge(s)^{-n} over the unit sphere.  Periodic trapezoid in 2-d,
    Gauss-Legendre in cos(theta) times periodic trapezoid in 3-d, evaluated
    a block of 16 cos(theta) rows at a time so the directions of the whole
    512 x 2048 rule never sit in memory together.
    """
    n = gauge.dim
    if n == 2:
        k = 1 << 17
        t = (np.arange(k) + 0.5) * (2.0 * np.pi / k)
        dirs = np.column_stack([np.cos(t), np.sin(t)])
        vals = gauge(dirs) ** (-2.0)
        return float(0.5 * vals.mean() * 2.0 * np.pi)
    # Gauss panels split at the equator: gauges with |z|^p terms (p-norms)
    # have a cos(theta) kink there that a single global rule resolves slowly
    u0, w0 = np.polynomial.legendre.leggauss(256)
    u = np.concatenate([0.5 * (u0 - 1.0), 0.5 * (u0 + 1.0)])
    w = np.concatenate([0.5 * w0, 0.5 * w0])
    kphi = 2048
    ph = (np.arange(kphi) + 0.5) * (2.0 * np.pi / kphi)
    cp, sp = np.cos(ph), np.sin(ph)
    col = np.zeros(kphi)          # sum over theta rows of w * gauge^-3, per phi
    for lo in range(0, u.size, 16):
        uc = u[lo:lo + 16, None]
        s = np.sqrt(1.0 - uc ** 2)
        dirs = np.stack(np.broadcast_arrays(s * cp, s * sp, uc), axis=-1)
        col += w[lo:lo + 16] @ gauge(dirs) ** (-3.0)
    return float(col.mean() * 2.0 * np.pi / 3.0)


@_cached("kappa")
def wulff_volume(F):
    """kappa_n: volume of the unit Wulff ball {F0 <= 1} of the gauge F.

    Closed-form kinds use their closed forms: omega_n for the Euclidean
    gauge, (2 Gamma(1 + 1/p'))^n / Gamma(1 + n/p') for l^p (its polar is
    l^{p'}, p' = p/(p-1)), and omega_n sqrt(det A) for the ellipse gauge
    sqrt(x' A x) (its Wulff ball is the ellipsoid x' A^{-1} x <= 1).
    Sampled gauges integrate their polar with unit_ball_measure.
    """
    n = F.dim
    omega = np.pi ** (n / 2.0) / gamma(1.0 + n / 2.0)
    if F.kind == "euclidean":
        kappa = omega
    elif F.kind == "pnorm":
        q = F.polar().p
        kappa = (2.0 * gamma(1.0 + 1.0 / q)) ** n / gamma(1.0 + n / q)
    elif F.kind == "ellipse":
        kappa = omega * np.sqrt(np.linalg.det(F.matrix))
    else:
        kappa = unit_ball_measure(F.polar())
    return float(kappa)


def sharp_constant(F):
    """Sharp Trudinger-Moser exponent n^{n/(n-1)} kappa_n^{1/(n-1)}."""
    n = F.dim
    return n ** (n / (n - 1.0)) * wulff_volume(F) ** (1.0 / (n - 1.0))


def bipolar_residual(F, sample_count=200, seed=0):
    """Max relative gap |F00(x) - F(x)| / F(x) over random sample points.

    The bipolar of a convex gauge is the gauge.  A closed-form kind builds
    the closed-form polar of its polar, so the residual is the rounding of
    the two dual maps.  For a sampled gauge, F00(x) = |x| h(x/|x|), h the
    support function of the unit sphere of the sampled polar F0, is swept
    directly at the sample points: the sweep that built F0 from F, run on
    F0's interpolant in the sample directions only, so the residual checks
    both sweeps and both interpolants.  ``sample_count`` must be an integer
    >= 1 and ``seed`` an integer >= 0 (bool is neither).
    """
    if not (_is_integer(sample_count) and sample_count >= 1):
        raise GaugeError(f"bipolar residual needs an integer count of >= 1 sample, "
                         f"got {sample_count!r}")
    if not (_is_integer(seed) and seed >= 0):
        raise GaugeError(f"bipolar residual needs a nonnegative integer seed, got {seed!r}")
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((sample_count, F.dim))
    r = _row_norms(x)
    x, r = x[r > 0.0], r[r > 0.0]
    pol = F.polar()
    if F.kind != "sampled":
        bip = pol.polar()(x)
    elif F.dim == 2:
        bip = r * _polar_values_2d(pol, np.arctan2(x[:, 1], x[:, 0]))
    else:
        bip = r * _polar_values_sphere(pol, x / r[:, None])
    fx = F(x)
    return float(np.max(np.abs(bip - fx) / fx))


def coarea_surface_check(F, r=1.0):
    """Relative deviation of int_{F0 = r} |grad F0|^{-1} dS from n kappa r^{n-1}.

    The Wulff sphere is parameterized radially: x(s) = r*s/F0(s) over unit
    directions s, with the surface element computed from the parameterization
    derivatives (F0 directional derivatives come from grad, so sampled gauges
    go through central differences).  Returns (integral - target)/target.
    The surface element scales as r^{n-1}, so the integral is r^{n-1} times
    its value at r = 1, which is computed once and cached on the gauge (for
    power-of-two r the product is bitwise the direct value).  An r that is
    not positive, or whose r^{n-1} leaves the float range, raises GaugeError.
    """
    n = F.dim
    with np.errstate(over="ignore", under="ignore"):
        scale = np.float64(r) ** (n - 1.0)
    if not (r > 0.0 and 0.0 < scale < np.inf):
        raise GaugeError(f"coarea radius must be positive with r^(n-1) a positive "
                         f"float, got {r}")
    target = n * wulff_volume(F) * scale
    return float((scale * _unit_coarea_integral(F) - target) / target)


@_cached("coarea")
def _unit_coarea_integral(F):
    """int_{F0 = 1} |grad F0|^{-1} dS by the quadrature of coarea_surface_check:
    periodic midpoint over 2^16 angles in 2-d, Gauss-Legendre in theta times
    periodic midpoint in phi over 192 x 384 nodes in 3-d."""
    pol = F.polar()
    if F.dim == 2:
        k = 1 << 16
        t = (np.arange(k) + 0.5) * (2.0 * np.pi / k)
        s = np.column_stack([np.cos(t), np.sin(t)])
        tang = np.column_stack([-np.sin(t), np.cos(t)])
        g = pol(s)
        grad = pol.grad(s)
        gprime = np.einsum("ki,ki->k", grad, tang)
        speed = np.sqrt(g ** 2 + gprime ** 2) / g ** 2
        integ = speed / _row_norms(grad)
        val = integ.mean() * 2.0 * np.pi
    else:
        kt = 192
        kp = 2 * kt
        u, w = np.polynomial.legendre.leggauss(kt)
        th = 0.5 * np.pi * (u + 1.0)
        wt = 0.5 * np.pi * w
        ph = (np.arange(kp) + 0.5) * (2.0 * np.pi / kp)
        T, P = np.meshgrid(th, ph, indexing="ij")
        st, ct = np.sin(T).ravel(), np.cos(T).ravel()
        sp, cp = np.sin(P).ravel(), np.cos(P).ravel()
        s = np.column_stack([st * cp, st * sp, ct])
        s_t = np.column_stack([ct * cp, ct * sp, -st])
        s_p = np.column_stack([-st * sp, st * cp, np.zeros_like(st)])
        g = pol(s)
        grad = pol.grad(s)
        g_t = np.einsum("ki,ki->k", grad, s_t)
        g_p = np.einsum("ki,ki->k", grad, s_p)
        x_t = (s_t * g[:, None] - s * g_t[:, None]) / g[:, None] ** 2
        x_p = (s_p * g[:, None] - s * g_p[:, None]) / g[:, None] ** 2
        elem = _row_norms(np.cross(x_t, x_p))
        integ = (elem / _row_norms(grad)).reshape(kt, kp)
        val = float(wt @ integ.sum(axis=1)) * (2.0 * np.pi / kp)
    return val
