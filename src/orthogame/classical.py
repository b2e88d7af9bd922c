"""Mixed-strategy solution of the classical corner-guessing game.

The row player calls a corner and wins the stake attached to her call
when the column player's token sits on the opposite corner; every other
combination pays nothing.  With stakes a, b, c, d on calls 1..4 the game
has no saddle point in pure strategies but a closed-form mixed
equilibrium in which each call is played inversely to its stake.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .lattice import _corner_index

__all__ = [
    "PROB_ATOL",
    "PayoffMatrix",
    "MixedStrategy",
    "payoff",
    "solve_closed_form",
    "NashVerdict",
    "verify_nash",
    "ConditionalDecomposition",
    "decompose_conditional",
]

# slack allowed when checking that probability weights sum to one
PROB_ATOL = 1e-12


def _frozen_array(values, shape, name: str) -> np.ndarray:
    """A read-only float copy of values, checked to have the given shape
    and finite entries; name heads the error messages."""
    arr = np.array(values, dtype=float)
    if arr.shape != shape:
        raise ValueError(f"{name} must be {'x'.join(map(str, shape))}, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} entries must be finite")
    arr.flags.writeable = False
    return arr


def _check_stakes(stakes) -> None:
    """Reject stakes a, b, c, d that are not all finite and positive,
    naming them: an infinite or NaN stake has no closed-form game."""
    if not all(map(math.isfinite, stakes)):
        raise ValueError(f"stakes must be finite, got {stakes}")
    if min(stakes) <= 0:
        raise ValueError(f"stakes must be positive, got {stakes}")


@dataclass(frozen=True)
class PayoffMatrix:
    """Row player's winnings h[j, k] for row call j+1 against column vertex k+1."""

    h: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "h", _frozen_array(self.h, (4, 4), "h"))

    @classmethod
    def diagonal_game(cls, a: float, b: float, c: float, d: float) -> "PayoffMatrix":
        """Guessing game with stakes a, b, c, d on calls 1..4.

        Call k wins only against the vertex opposite k, so the stakes land
        on the anti-diagonal pattern h[0,2], h[1,3], h[2,0], h[3,1].
        """
        _check_stakes((a, b, c, d))
        h = np.zeros((4, 4))
        h[0, 2], h[1, 3], h[2, 0], h[3, 1] = a, b, c, d
        return cls(h)


@dataclass(frozen=True)
class MixedStrategy:
    """Probability weights over the four corners."""

    weights: np.ndarray

    def __post_init__(self):
        w = _frozen_array(self.weights, (4,), "weights")
        if np.any(w < 0):
            raise ValueError(f"weights must be nonnegative, got {w}")
        if abs(w.sum() - 1.0) > PROB_ATOL:
            raise ValueError(f"weights must sum to 1, got {w.sum()!r}")
        object.__setattr__(self, "weights", w)

    @classmethod
    def pure(cls, k: int) -> "MixedStrategy":
        """The pure strategy on corner k (lattice._corner_index)."""
        w = np.zeros(4)
        w[_corner_index(k, "corner") - 1] = 1.0
        return cls(w)

    @classmethod
    def uniform(cls) -> "MixedStrategy":
        return cls(np.full(4, 0.25))


def payoff(x: MixedStrategy, y: MixedStrategy, matrix: PayoffMatrix) -> float:
    """Expected row winnings x' H y."""
    return float(x.weights @ matrix.h @ y.weights)


def solve_closed_form(a: float, b: float, c: float, d: float):
    """Equilibrium of the diagonal game with stakes a, b, c, d.

    Returns (x, y, value).  Each side plays a call with probability
    inversely proportional to the stake that threatens it: the row mixes
    mu * (1/a, 1/b, 1/c, 1/d) and the column mixes the same weights
    shifted to the opposite corners, with mu the harmonic normaliser.
    The value of the game is mu = 1 / (1/a + 1/b + 1/c + 1/d).  A stake
    that is not finite and positive raises ValueError, and so does a sum
    that overflows, as a stake below about 5.6e-309 makes it.
    """
    stakes = (a, b, c, d)
    _check_stakes(stakes)
    inv = np.array([1.0 / a, 1.0 / b, 1.0 / c, 1.0 / d])
    with np.errstate(over="ignore"):
        mu = 1.0 / inv.sum()
    if mu == 0.0:
        smallest = min(stakes)
        raise ValueError(f"1/a + 1/b + 1/c + 1/d overflows: 1/{smallest!r} is {1.0 / smallest!r}")
    x = MixedStrategy(mu * inv)
    y = MixedStrategy(mu * np.array([1.0 / c, 1.0 / d, 1.0 / a, 1.0 / b]))
    return x, y, float(mu)


@dataclass(frozen=True)
class NashVerdict:
    """Result of checking a profile against all pure deviations."""

    passed: bool
    max_violation: float


def verify_nash(x: MixedStrategy, y: MixedStrategy, matrix: PayoffMatrix,
                tol: Optional[float] = None) -> NashVerdict:
    """Check (x, y) for equilibrium by pure deviations only: it passes
    when neither player gains more than tol, by default 1e-12 * max|h|.

    The payoff is bilinear, so no mixed deviation can beat the best pure
    one; checking the eight pure deviations is exact.  The rounding of
    x'Hy grows with the stakes, so the default tolerance scales with
    them, and the exact closed-form equilibrium passes at every scale.
    """
    tol = 1e-12 * float(np.max(np.abs(matrix.h))) if tol is None else tol
    value = payoff(x, y, matrix)
    row_gain = float(np.max(matrix.h @ y.weights)) - value
    col_gain = value - float(np.min(x.weights @ matrix.h))
    worst = float(max(row_gain, col_gain))
    return NashVerdict(passed=bool(worst <= tol), max_violation=worst)


@dataclass(frozen=True)
class ConditionalDecomposition:
    """Payoff split by which diagonal both corners landed on.

    P13 and P24 are the probabilities that the row call and column vertex
    fall on the 1-3 resp. 2-4 diagonal together; the p/q fields are the
    strategies renormalised within each diagonal and the E fields the
    stakes-weighted payoffs of those conditional games.  Conditional
    fields are None when the corresponding diagonal has zero probability.
    """

    P13: float
    P24: float
    p13_1: Optional[float]
    p13_3: Optional[float]
    p24_2: Optional[float]
    p24_4: Optional[float]
    q13_1: Optional[float]
    q13_3: Optional[float]
    q24_2: Optional[float]
    q24_4: Optional[float]
    E13: Optional[float]
    E24: Optional[float]

    def mixture(self) -> float:
        """E13 * P13 + E24 * P24 with absent diagonals contributing zero."""
        total = 0.0
        if self.E13 is not None:
            total += self.E13 * self.P13
        if self.E24 is not None:
            total += self.E24 * self.P24
        return total


def decompose_conditional(x: MixedStrategy, y: MixedStrategy,
                          a: float, b: float, c: float, d: float) -> ConditionalDecomposition:
    """Split the expected payoff of the diagonal game by diagonal.

    The overall payoff is recovered as the mixture E13 * P13 + E24 * P24;
    a diagonal that one of the players never touches is reported with
    None conditionals and contributes nothing.  The stakes must be
    finite and positive.
    """
    _check_stakes((a, b, c, d))
    x1, x2, x3, x4 = (float(v) for v in x.weights)
    y1, y2, y3, y4 = (float(v) for v in y.weights)

    x13, x24 = x1 + x3, x2 + x4
    y13, y24 = y1 + y3, y2 + y4
    P13 = x13 * y13
    P24 = x24 * y24

    out = {"P13": P13, "P24": P24,
           "p13_1": None, "p13_3": None, "p24_2": None, "p24_4": None,
           "q13_1": None, "q13_3": None, "q24_2": None, "q24_4": None,
           "E13": None, "E24": None}

    if x13 > 0.0 and y13 > 0.0:
        p1, p3 = x1 / x13, x3 / x13
        q1, q3 = y1 / y13, y3 / y13
        out.update(p13_1=p1, p13_3=p3, q13_1=q1, q13_3=q3,
                   E13=a * p1 * q3 + c * p3 * q1)
    if x24 > 0.0 and y24 > 0.0:
        p2, p4 = x2 / x24, x4 / x24
        q2, q4 = y2 / y24, y4 / y24
        out.update(p24_2=p2, p24_4=p4, q24_2=q2, q24_4=q4,
                   E24=b * p2 * q4 + d * p4 * q2)
    return ConditionalDecomposition(**out)
