"""Radial profiles: validation, evaluation, scaling, and the file format."""

import numpy as np
import pytest

from anisotm import RadialProfile
from anisotm.profiles import ProfileError


def cone(radius=2.0, height=1.0):
    return RadialProfile([0.0, radius], [height, 0.0])


def test_validation():
    with pytest.raises(ProfileError):
        RadialProfile([0.0], [0.0])                        # too short
    with pytest.raises(ProfileError):
        RadialProfile([0.5, 1.0], [1.0, 0.0])              # knots start past 0
    with pytest.raises(ProfileError):
        RadialProfile([0.0, 1.0, 1.0], [1.0, 0.5, 0.0])    # knots not increasing
    with pytest.raises(ProfileError):
        RadialProfile([0.0, 1.0, 2.0], [0.5, 1.0, 0.0])    # increasing values
    with pytest.raises(ProfileError):
        RadialProfile([0.0, 1.0], [1.0, 0.5])              # does not vanish
    with pytest.raises(ProfileError):
        RadialProfile([0.0, 1.0], [-1.0, 0.0])             # negative
    for knots, values in (([0.0, 1.0], [np.nan, 0.0]), ([0.0, np.inf], [1.0, 0.0]),
                          ([0.0, np.nan], [1.0, 0.0]), ([0.0, 1.0], [np.inf, 0.0]),
                          ([0.0, 1.0, 2.0], [1.0, np.nan, 0.0])):
        with pytest.raises(ProfileError, match="finite"):
            RadialProfile(knots, values)


def test_tiny_wiggles_are_clamped():
    g = RadialProfile([0.0, 1.0, 2.0, 3.0], [1.0, 0.5, 0.5 + 1e-13, 0.0])
    assert np.all(np.diff(g.values) <= 0.0)
    assert g.values[-1] == 0.0


def test_evaluation():
    g = RadialProfile([0.0, 1.0, 3.0], [2.0, 1.0, 0.0])
    assert g(0.0) == 2.0
    assert g(0.5) == 1.5
    assert g(2.0) == 0.5
    assert g(3.0) == 0.0
    assert g(10.0) == 0.0
    got = g(np.array([0.0, 2.0, 5.0]))
    assert np.allclose(got, [2.0, 0.5, 0.0])
    assert g.support_radius == 3.0


def test_scaled():
    g = cone(radius=2.0, height=1.0)
    s = g.scaled(value_factor=3.0, radius_factor=0.5)
    assert s.support_radius == 1.0
    assert s(0.0) == 3.0
    assert s(0.5) == 1.5
    with pytest.raises(ProfileError):
        g.scaled(value_factor=-1.0)
    with pytest.raises(ProfileError):
        g.scaled(radius_factor=0.0)
    for bad in ({"value_factor": np.nan}, {"value_factor": np.inf},
                {"radius_factor": np.nan}, {"radius_factor": np.inf}):
        with pytest.raises(ProfileError, match="finite"):
            g.scaled(**bad)
    # finite factors whose product leaves the float range
    with pytest.raises(ProfileError, match="finite"):
        g.scaled(value_factor=1e308, radius_factor=1e308)
    assert g.scaled(value_factor=0.0)(0.0) == 0.0


def test_save_load_round_trip(tmp_path):
    g = RadialProfile([0.0, 0.7, 1.9, 2.4], [1.25, 0.8, 0.1, 0.0])
    path = tmp_path / "profile.txt"
    g.save(path, dim=2)
    back, dim = RadialProfile.load(path)
    assert dim == 2
    assert np.array_equal(back.knots, g.knots)
    assert np.array_equal(back.values, g.values)


def test_load_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 1.0\n0.0 1.0\n1.0 0.0\n")
    with pytest.raises(ProfileError):
        RadialProfile.load(path)
    path.write_text("2 5.0 1\n0.0 1.0\n1.0 0.0\n")
    with pytest.raises(ProfileError):
        RadialProfile.load(path)                            # header radius mismatch
    path.write_text("2 2.0 3\n0.0 1.0\n2.0 0.0\n")        # 3 intervals, 2 lines
    with pytest.raises(ProfileError, match="expected 4 knot lines, got 2") as err:
        RadialProfile.load(path)
    assert str(path) in str(err.value)
