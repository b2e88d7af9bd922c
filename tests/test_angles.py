"""Half-turn angle arithmetic."""

import numpy as np

from orthogame.angles import signed_delta, wrap_half_turn, wrapped_distance
from orthogame.fixedpoint import phase


def test_wrap_half_turn_basic():
    assert wrap_half_turn(0.0) == 0.0
    assert wrap_half_turn(179.5) == 179.5
    assert wrap_half_turn(180.0) == 0.0
    assert wrap_half_turn(325.5) == 145.5
    assert wrap_half_turn(-30.0) == 150.0
    # angles in [0, 180) come back unchanged, so reducing strategy and
    # mixing angles before any trigonometry moves no answer there
    rng = np.random.default_rng(11)
    angles = np.concatenate((rng.uniform(0.0, 180.0, 10_000), [5e-324, np.nextafter(180.0, 0.0)]))
    assert np.array_equal(wrap_half_turn(angles), angles)
    assert all(wrap_half_turn(x) == x for x in angles.tolist())


def test_wrap_half_turn_tiny_negative_rounds_inside_interval():
    # x % 180.0 evaluates to exactly 180.0 for x = -1e-17; the wrap must
    # still land in [0, 180)
    for x in (-1e-17, -1e-13, -5e-14):
        assert 0.0 <= wrap_half_turn(x) < 180.0


def test_signed_delta_range_and_values():
    assert signed_delta(10.0, 350.0) == 20.0
    assert signed_delta(179.0, 1.0) == -2.0
    assert signed_delta(1.0, 179.0) == 2.0
    assert signed_delta(45.0, 45.0 - 1e-17) < 90.0
    rng = np.random.default_rng(3)
    for a, b in rng.uniform(-720.0, 720.0, size=(200, 2)):
        d = signed_delta(a, b)
        assert -90.0 <= d < 90.0
        assert wrapped_distance(a, b) == abs(d)


def test_wrapped_distance_symmetry():
    assert wrapped_distance(179.0, 1.0) == 2.0
    assert wrapped_distance(1.0, 179.0) == 2.0
    assert wrapped_distance(90.0, 90.0) == 0.0


def test_phase_of_a_float_equals_phase_of_an_array():
    # the scalar form runs on cmath, the array form on numpy: the same
    # bits, reduced modulo 180 first
    rng = np.random.default_rng(12)
    angles = np.concatenate((rng.uniform(-360.0, 360.0, 2000), [1e20, -1e20, 1e308]))
    expected = phase(angles)
    for x, e in zip(angles.tolist(), expected.tolist()):
        assert phase(x) == e == phase(wrap_half_turn(x))
    assert phase(np.float64(1e308)) == phase(116.0) == phase(116)
