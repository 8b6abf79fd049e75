"""Radial profiles: nonincreasing piecewise-linear functions of F0-radius.

A profile g stands for the Wulff-symmetric function u(x) = g(F0(-x)).
Values are stored at increasing knots r_0 = 0 < r_1 < ... < r_M with
g(r_M) = 0 and linear interpolation in between; beyond the last knot the
profile is zero.
"""

import numpy as np


class ProfileError(ValueError):
    """Invalid radial profile."""


class RadialProfile:
    """Nonincreasing piecewise-linear radial profile with compact support."""

    def __init__(self, knots, values):
        knots = np.asarray(knots, dtype=float)
        values = np.asarray(values, dtype=float)
        tol = 1e-12      # negative values and increases this small are clamped
        if knots.ndim != 1 or knots.shape != values.shape or knots.size < 2:
            raise ProfileError("knots and values must be matching 1-d arrays, length >= 2")
        if not (np.isfinite(knots).all() and np.isfinite(values).all()):
            raise ProfileError("knots and values must be finite")
        if knots[0] != 0.0 or np.any(np.diff(knots) <= 0.0):
            raise ProfileError("knots must start at 0 and strictly increase")
        if np.any(values < -tol) or np.any(np.diff(values) > tol):
            raise ProfileError("values must be nonnegative and nonincreasing")
        if abs(values[-1]) > tol:
            raise ProfileError("profile must vanish at the last knot")
        values = np.maximum(values, 0.0)
        values[-1] = 0.0
        # clamp the tiny increases tolerated above so downstream code can
        # rely on exact monotonicity
        self.values = np.minimum.accumulate(values)
        self.knots = knots

    @property
    def support_radius(self):
        return float(self.knots[-1])

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        out = np.interp(r, self.knots, self.values, left=self.values[0], right=0.0)
        return float(out) if out.ndim == 0 else out

    def scaled(self, value_factor=1.0, radius_factor=1.0):
        """New profile r -> value_factor * g(r / radius_factor)."""
        if not (0.0 <= value_factor < np.inf and 0.0 < radius_factor < np.inf):
            raise ProfileError("scaling factors must be positive and finite")
        with np.errstate(over="ignore"):    # an overflow is rejected as non-finite
            return RadialProfile(self.knots * radius_factor, self.values * value_factor)

    # -- text format: header "N R M" (M intervals), then M+1 lines "r value"

    def save(self, path, dim):
        with open(path, "w") as fh:
            fh.write(f"{dim} {self.support_radius!r} {self.knots.size - 1}\n")
            for r, v in zip(self.knots, self.values):
                fh.write(f"{float(r)!r} {float(v)!r}\n")

    @classmethod
    def load(cls, path):
        """Read a profile file; returns (profile, dim)."""
        with open(path) as fh:
            head = fh.readline().split()
            if len(head) != 3:
                raise ProfileError(f"{path}: header must be 'N R M'")
            dim, rad, m = int(head[0]), float(head[1]), int(head[2])
            data = np.loadtxt(fh, ndmin=2)
        if data.shape != (m + 1, 2):
            raise ProfileError(f"{path}: expected {m + 1} knot lines, got {data.shape[0]}")
        prof = cls(data[:, 0], data[:, 1])
        if not np.isclose(prof.support_radius, rad, rtol=1e-9, atol=1e-12):
            raise ProfileError(f"{path}: header radius {rad} does not match last knot")
        return prof, dim
