"""Projector realisation of the corner logic and the quantized payoff.

Each player's four corner propositions become rank-1 projectors in a
2-dimensional real inner-product space: the 1-3 diagonal projects onto
the coordinate axes and the 2-4 diagonal onto axes rotated by the
player's personal mixing angle theta.  A strategy is a unit vector
(cos t, sin t), the squared amplitudes against the four projectors play
the role of probabilities, and the average payoff can be computed either
from the tensor-product payoff observable or from a closed trigonometric
form.  Both evaluation paths are kept and serve as oracles for each
other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .angles import wrap_half_turn, wrap_input
from .classical import MixedStrategy, PayoffMatrix, _frozen_array, decompose_conditional

__all__ = [
    "LogicRepresentation",
    "ProjectorFamily",
    "build_family",
    "rotation_projector",
    "projector_pair_commutator",
    "commutator",
    "QuantumStrategy",
    "AmplitudeSquares",
    "amplitudes",
    "payoff_grid",
    "payoff_closed_form",
    "payoff_terms",
    "PayoffOperator",
    "payoff_operator",
    "expectation",
    "ComparisonResult",
    "compare_with_classical",
]


@dataclass(frozen=True, slots=True)
class LogicRepresentation:
    """Mixing angle of one player's projector pair, in degrees.

    At multiples of 90 degrees the rotated pair collapses onto the axis
    pair and the representation stops separating the two diagonals, so
    those angles are rejected.  Only theta modulo 180 matters, and every
    formula reduces it to [0, 180) before any trigonometry, so that a
    huge finite theta describes the same game as its remainder.
    """

    theta_deg: float

    def __post_init__(self):
        if not math.isfinite(self.theta_deg):
            raise ValueError(f"theta must be finite, got {self.theta_deg!r}")
        if self.theta_deg % 90.0 == 0.0:
            raise ValueError(
                f"theta must not be a multiple of 90 degrees, got {self.theta_deg!r}"
            )


def rotation_projector(theta_deg: float) -> np.ndarray:
    """Projector onto the line at angle theta, for any angle.

    This is the raw formula [[cos^2, sin cos], [sin cos, sin^2]]; unlike
    :func:`build_family` it accepts the degenerate multiples of 90.
    """
    t = math.radians(wrap_half_turn(theta_deg))
    c, s = math.cos(t), math.sin(t)
    return np.array([[c * c, s * c], [s * c, s * s]])


@dataclass(frozen=True)
class ProjectorFamily:
    """The four corner projectors of one player."""

    p1: np.ndarray
    p2: np.ndarray
    p3: np.ndarray
    p4: np.ndarray

    def __post_init__(self):
        for name in ("p1", "p2", "p3", "p4"):
            object.__setattr__(self, name, _frozen_array(getattr(self, name), (2, 2), name))

    def as_tuple(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return (self.p1, self.p2, self.p3, self.p4)


def build_family(rep: LogicRepresentation) -> ProjectorFamily:
    """Corner projectors for a player with mixing angle rep.theta_deg.

    Corners 1 and 3 take the coordinate axes; corners 2 and 4 take the
    axes rotated by theta.  Opposite corners are orthocomplements:
    P1 + P3 = I and P2 + P4 = I.
    """
    p2 = rotation_projector(rep.theta_deg)
    eye = np.eye(2)
    return ProjectorFamily(
        p1=np.diag([1.0, 0.0]),
        p2=p2,
        p3=np.diag([0.0, 1.0]),
        p4=eye - p2,
    )


def projector_pair_commutator(theta_deg: float) -> np.ndarray:
    """[P1, P2] = P1 P2 - P2 P1 for the family with mixing angle theta.

    Computed from the matrices themselves; equals (sin 2 theta / 2) times
    the antisymmetric unit [[0, 1], [-1, 0]].  Accepts any angle so the
    vanishing limit at multiples of 90 can be examined even though such
    a family is rejected as a representation.
    """
    p1 = np.diag([1.0, 0.0])
    p2 = rotation_projector(theta_deg)
    return p1 @ p2 - p2 @ p1


def commutator(rep: LogicRepresentation) -> np.ndarray:
    """[P1, P2] for a valid representation, see :func:`projector_pair_commutator`."""
    return projector_pair_commutator(rep.theta_deg)


@dataclass(frozen=True)
class QuantumStrategy:
    """A pure strategy: the unit vector (cos angle, sin angle).

    v and -v describe the same state, so the angle is reduced to
    [0, 180) on construction.
    """

    angle_deg: float

    def __post_init__(self):
        if not math.isfinite(self.angle_deg):
            raise ValueError(f"angle must be finite, got {self.angle_deg!r}")
        object.__setattr__(self, "angle_deg", wrap_half_turn(self.angle_deg))

    def vector(self) -> np.ndarray:
        t = math.radians(self.angle_deg)
        return np.array([math.cos(t), math.sin(t)])


@dataclass(frozen=True)
class AmplitudeSquares:
    """Squared amplitudes of a strategy against the four corner projectors.

    p1 + p3 and p2 + p4 are complementary pairs, so each sums to 1 and
    the four together sum to 2.
    """

    p1: float
    p2: float
    p3: float
    p4: float

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.p1, self.p2, self.p3, self.p4)


def amplitudes(s: QuantumStrategy, rep: LogicRepresentation) -> AmplitudeSquares:
    """Squared amplitudes of strategy s under the representation rep.

    Closed trigonometric form: p1 = cos^2 t, p3 = sin^2 t against the
    axis pair and p2 = cos^2(t - theta), p4 = sin^2(t - theta) against
    the rotated pair.  Identical to the quadratic forms <P_k v, v>.
    """
    t = math.radians(s.angle_deg)
    u = t - math.radians(wrap_half_turn(rep.theta_deg))
    return AmplitudeSquares(
        p1=math.cos(t) ** 2,
        p2=math.cos(u) ** 2,
        p3=math.sin(t) ** 2,
        p4=math.sin(u) ** 2,
    )


def payoff_grid(alpha_deg, beta_deg, a, b, c, d, theta_a_deg, theta_b_deg):
    """Average payoff F(alpha, beta); broadcasts over angle arrays.

    F = a cos^2(al) sin^2(be) + c sin^2(al) cos^2(be)
      + b cos^2(al - tA) sin^2(be - tB) + d sin^2(al - tA) cos^2(be - tB),
    the stake-weighted sum over the four winning call/vertex pairs.

    So F = u(al) . v(be) with u = (a cos^2 al, c sin^2 al,
    b cos^2(al - tA), d sin^2(al - tA)) and v = (sin^2 be, cos^2 be,
    sin^2(be - tB), cos^2(be - tB)), and F on a mesh has rank at most 4.
    A 2-D column (n, 1) against a 2-D row (1, m), either way round, is
    one (n, 4) @ (4, m) matrix product: no mesh-sized temporary, and
    last-bit differences from the sum.  The surface benchmark's meshes
    take the product both ways round, so both branches stay.  Every other
    shape takes the sum above, term by term in that order.

    Each angle is reduced first (wrap_input), so a huge angle plays as
    its remainder; the inputs are reduced, never the mesh.
    """
    al = np.radians(wrap_input(alpha_deg))
    be = np.radians(wrap_input(beta_deg))
    ta = math.radians(wrap_half_turn(theta_a_deg))
    tb = math.radians(wrap_half_turn(theta_b_deg))
    u = (a * np.cos(al) ** 2, c * np.sin(al) ** 2,
         b * np.cos(al - ta) ** 2, d * np.sin(al - ta) ** 2)
    v = (np.sin(be) ** 2, np.cos(be) ** 2, np.sin(be - tb) ** 2, np.cos(be - tb) ** 2)
    if al.ndim == be.ndim == 2:
        if al.shape[1] == 1 and be.shape[0] == 1:
            return np.hstack(u) @ np.vstack(v)
        if al.shape[0] == 1 and be.shape[1] == 1:
            return np.hstack(v) @ np.vstack(u)
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2] + u[3] * v[3]


def payoff_closed_form(alpha: QuantumStrategy, beta: QuantumStrategy,
                       rep_a: LogicRepresentation, rep_b: LogicRepresentation,
                       a: float, b: float, c: float, d: float) -> float:
    """F(alpha, beta) as a * p1 q3 + c * p3 q1 + b * p2 q4 + d * p4 q2."""
    return float(payoff_grid(alpha.angle_deg, beta.angle_deg, a, b, c, d,
                             rep_a.theta_deg, rep_b.theta_deg))


def payoff_terms(alpha: QuantumStrategy, beta: QuantumStrategy,
                 rep_a: LogicRepresentation, rep_b: LogicRepresentation,
                 a: float, b: float, c: float, d: float) -> tuple[float, float]:
    """The two diagonal contributions to F; they sum to the full payoff."""
    return _diagonal_terms(amplitudes(alpha, rep_a), amplitudes(beta, rep_b), a, b, c, d)


def _diagonal_terms(p: AmplitudeSquares, q: AmplitudeSquares,
                    a: float, b: float, c: float, d: float) -> tuple[float, float]:
    """payoff_terms from Alice's squared amplitudes p and Bob's q."""
    t13 = a * p.p1 * q.p3 + c * p.p3 * q.p1
    t24 = b * p.p2 * q.p4 + d * p.p4 * q.p2
    return (t13, t24)


@dataclass(frozen=True)
class PayoffOperator:
    """Payoff observable on the 4-dimensional product of the two strategy spaces."""

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _frozen_array(self.matrix, (4, 4), "operator"))


def payoff_operator(rep_a: LogicRepresentation, rep_b: LogicRepresentation,
                    h: PayoffMatrix) -> PayoffOperator:
    """Sum of h[j, k] * (Alice projector j tensor Bob projector k)."""
    fam_a = build_family(rep_a).as_tuple()
    fam_b = build_family(rep_b).as_tuple()
    m = np.zeros((4, 4))
    for j in range(4):
        for k in range(4):
            hjk = h.h[j, k]
            if hjk != 0.0:
                m += hjk * np.kron(fam_a[j], fam_b[k])
    return PayoffOperator(m)


def expectation(alpha: QuantumStrategy, beta: QuantumStrategy,
                op: PayoffOperator) -> float:
    """<H s, s> at the product state s = v_alpha tensor v_beta."""
    s = np.kron(alpha.vector(), beta.vector())
    return float(s @ op.matrix @ s)


class ComparisonResult(NamedTuple):
    quantum: float
    classical: float


def compare_with_classical(x: MixedStrategy, y: MixedStrategy,
                           a: float, b: float, c: float, d: float) -> ComparisonResult:
    """Quantized versus classical payoff for the same underlying mixtures.

    The squared amplitudes are set equal to the classical per-diagonal
    conditional probabilities, which makes each pair sum to 1 on its own.
    The quantized payoff is then the plain sum of the two conditional
    terms, while the classical payoff weights them by the probability of
    ever landing on that diagonal, so quantum >= classical always.
    """
    dec = decompose_conditional(x, y, a, b, c, d)
    if dec.E13 is None or dec.E24 is None:
        raise ValueError("both diagonals must carry positive mass for both players")
    return ComparisonResult(quantum=dec.E13 + dec.E24, classical=dec.mixture())
