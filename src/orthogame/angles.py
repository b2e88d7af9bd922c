"""Angle bookkeeping on the half-turn circle.

A direction vector (cos t, sin t) and its negation describe the same ray,
so every strategy angle in this package lives on a circle of period 180
degrees.  All helpers work in degrees and accept floats or NumPy arrays.
"""

from __future__ import annotations

import numpy as np

HALF_TURN = 180.0


def wrap_half_turn(angle_deg: float) -> float:
    """Reduce an angle to the canonical interval [0, 180)."""
    wrapped = angle_deg % HALF_TURN
    # x % 180.0 can round up to exactly 180.0 for tiny negative x
    return wrapped - HALF_TURN * (wrapped >= HALF_TURN)


def wrap_input(angle_deg):
    """A caller's angle reduced to [0, 180) before any trigonometry: a
    Python int or float, or an np.float64, as a Python float, anything
    else as a float array or NumPy scalar.

    The reduction is exact, so a huge angle plays as its remainder and an
    angle in [0, 180) keeps every bit, except that -0.0 becomes 0.0.  A
    scalar skips numpy, which on one angle costs more than the arithmetic
    and is what the solver passes; an array always takes the remainder.
    """
    if isinstance(angle_deg, (float, int)):
        return wrap_half_turn(float(angle_deg))
    return wrap_half_turn(np.asarray(angle_deg, dtype=float))


def signed_delta(a_deg: float, b_deg: float) -> float:
    """Signed difference a - b wrapped to [-90, 90)."""
    return wrap_half_turn(a_deg - b_deg + 90.0) - 90.0


def wrapped_distance(a_deg: float, b_deg: float) -> float:
    """Shortest separation of two angles on the half-turn circle."""
    return abs(signed_delta(a_deg, b_deg))
