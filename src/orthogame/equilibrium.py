"""The public layer of the equilibrium search on the two-angle payoff
surface: games, best responses, reaction curves, verification and
find_equilibria's reports.

The search itself is fixedpoint.solve and the closed-form deviation gains
are fixedpoint.gains; this module validates input, deduplicates
candidates, builds the reports and gives each its verdict.  Candidates
that fail verification are reported with verified=False, not dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple, Optional

import numpy as np

from . import fixedpoint
from .angles import wrap_half_turn, wrapped_distance
from .fixedpoint import ALICE, BOB, DEGENERACY_SQ, best_responses, phase
from .quantum import (AmplitudeSquares, LogicRepresentation, _amplitude_squares,
                      _diagonal_terms, payoff_grid)

__all__ = [
    "DEGENERACY_SQ",
    "GameParams",
    "BestResponse",
    "best_response_alice",
    "best_response_bob",
    "CurveSample",
    "ReactionCurve",
    "reaction_curves",
    "VerificationResult",
    "verify_equilibrium",
    "EquilibriumReport",
    "SearchResult",
    "find_equilibria",
]


class _LazyKernel:
    """GameParams.kernel: both players' harmonics and the flatness scale
    (fixedpoint.harmonic_kernel), built on the first read and kept in the
    instance dict, which this non-data descriptor then gives way to, so
    that each later read is a plain attribute lookup.  It takes no lock,
    as functools.cached_property does before Python 3.12: two threads
    that read a new game's kernel at once may each build it, and they
    build equal kernels."""

    def __get__(self, params, owner=None):
        if params is None:
            return self
        kernel = params.__dict__["kernel"] = fixedpoint.harmonic_kernel(params)
        return kernel


@dataclass(frozen=True)
class GameParams:
    """Stakes and mixing angles of one quantized guessing game.

    Stakes may be any finite reals here (the flat all-zero game is a
    legitimate degenerate case); the command-line layer is stricter.
    """

    a: float
    b: float
    c: float
    d: float
    theta_a_deg: float
    theta_b_deg: float

    def __post_init__(self):
        for name in ("a", "b", "c", "d"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"stake {name} must be finite")
        # building the representations validates the angles
        self.__dict__.update(rep_a=LogicRepresentation(self.theta_a_deg),
                             rep_b=LogicRepresentation(self.theta_b_deg))

    kernel = _LazyKernel()

    @property
    def stakes(self) -> tuple[float, float, float, float]:
        return (self.a, self.b, self.c, self.d)

    def payoff(self, alpha_deg, beta_deg):
        """F(alpha, beta); broadcasts over angle arrays."""
        return payoff_grid(alpha_deg, beta_deg, self.a, self.b, self.c, self.d,
                           self.theta_a_deg, self.theta_b_deg)


class BestResponse(NamedTuple):
    angle_deg: float
    degenerate: bool


def _response(angle) -> BestResponse:
    if np.ndim(angle) == 0:
        angle = float(angle)
        return BestResponse(angle, math.isnan(angle))
    return BestResponse(angle, np.isnan(angle))


def best_response_alice(beta_deg: float, params: GameParams) -> BestResponse:
    """Alice's payoff-maximizing angle against beta.

    Her harmonic K1 cos 2a + K2 sin 2a peaks at 2a = atan2(K2, K1).  When
    it is flat relative to the stakes every angle is optimal, and the
    response is reported degenerate (angle NaN) rather than picked
    arbitrarily.  An array of betas gives arrays of angles and flags.
    """
    return _response(best_responses(phase(beta_deg), params.kernel, ALICE))


def best_response_bob(alpha_deg: float, params: GameParams) -> BestResponse:
    """Bob's payoff-minimizing angle against alpha.

    Same harmonic reduction as for Alice, with the minimum a quarter
    turn away from the peak of the 2b harmonic; broadcasts likewise.
    """
    return _response(best_responses(phase(alpha_deg), params.kernel, BOB))


class CurveSample(NamedTuple):
    input_deg: float
    best_response_deg: float
    payoff: float


@dataclass(frozen=True)
class ReactionCurve:
    """One player's sampled best-response map over [0, 180)."""

    owner: str
    samples: tuple[CurveSample, ...]
    degenerate_inputs: tuple[float, ...]


def _curve_inputs(step_deg: float) -> np.ndarray:
    """The inputs 0, step, 2 step, ... of a reaction curve: each multiple
    k * step (as np.arange rounds it) that lies below 180 by more than
    180 * 2^-52.

    That bound is the rounding of k * step at k = n when the step is 180/n
    rounded to a double: n * step then rounds to within it of 180, on
    either side, and is the point 0 of the half turn again, on which
    np.arange(0, 180, step) can end (test_reaction_curves_never_sample_180).
    With it dropped every step 180/n gives exactly n inputs, and a step
    that does not divide 180 keeps each multiple below 180.
    """
    if not (0.0 < step_deg <= 5.0):
        raise ValueError(f"step must be in (0, 5] degrees, got {step_deg!r}")
    inputs = np.arange(0.0, 180.0, step_deg)
    return inputs[180.0 - inputs > math.ldexp(180.0, -52)]


def reaction_curves(params: GameParams, step_deg: float) -> tuple[ReactionCurve, ReactionCurve]:
    """Sample both best-response maps over [0, 180) at the given step
    (_curve_inputs).

    Each sample's response is the array best response at the input's
    phase, which both players share, and its payoff is the payoff at that
    reply in closed form (fixedpoint.best_values).  Degenerate inputs,
    where the response is NaN, get NaN entries and are listed separately.
    """
    inputs = _curve_inputs(step_deg)
    e = phase(inputs)
    points = inputs.tolist()

    curves = []
    for owner in (ALICE, BOB):
        responses = best_responses(e, params.kernel, owner)
        flat = np.isnan(responses)
        pay = np.where(flat, np.nan, fixedpoint.best_values(e, params, owner))
        # tuple.__new__ builds each sample in C, not through the
        # NamedTuple's Python-level __new__
        samples = tuple(map(tuple.__new__, repeat(CurveSample, len(points)),
                            zip(points, responses.tolist(), pay.tolist())))
        curves.append(ReactionCurve(owner, samples, tuple(inputs[flat].tolist())))
    return curves[0], curves[1]


class VerificationResult(NamedTuple):
    verified: bool
    max_violation: float


def _check_probe_count(n_probe) -> None:
    """Reject an n_probe that is not an int, a bool or a NumPy integer,
    such as a float, a Fraction or a 0-d array, or that is below 360."""
    if not isinstance(n_probe, (int, np.integer)):
        raise ValueError(f"n_probe must be an integer, got {n_probe!r}")
    if n_probe < 360:
        raise ValueError(f"n_probe must be at least 360, got {n_probe!r}")


def verify_equilibrium(alpha_star_deg: float, beta_star_deg: float, params: GameParams,
                       n_probe: int = 720, tol: Optional[float] = None) -> VerificationResult:
    """Two-sided deviation check of a candidate profile, in closed form:
    max_violation is the larger of the two players' largest gains from a
    unilateral deviation (fixedpoint.gains), and the profile is verified
    when it is at most tol, by default 1e-6 * max|stake|; every report of
    find_equilibria gets its verdict here.  A profile with a non-finite
    angle is not verified, and its max_violation is NaN.  n_probe no
    longer affects the result, since the gains are exact, but is still
    accepted and validated as an integer of at least 360.

    The tolerance is absolute and the same for both players: a player
    whose stakes are far below the largest one gains little from any
    deviation and is checked loosely, so a profile a fraction of a degree
    from a fixed point can pass.  Nor is a verdict in doubles a proof at
    any tolerance: the certificate tests' game NEAR_BOUNDARY has no pure
    equilibrium, yet its one report is verified
    (test_near_boundary_game_is_built_as_stated), a rounding-level
    epsilon-equilibrium that no verdict in doubles can reject.
    """
    _check_probe_count(n_probe)
    # tuple.__new__ builds the result in C, as reaction_curves builds its
    # samples
    if not (math.isfinite(alpha_star_deg) and math.isfinite(beta_star_deg)):
        return tuple.__new__(VerificationResult, (False, math.nan))
    if tol is None:
        tol = 1e-6 * params.kernel.scale
    worst = max(fixedpoint.gains(alpha_star_deg, beta_star_deg, params))
    return tuple.__new__(VerificationResult, (bool(worst <= tol), worst))


@dataclass(frozen=True, init=False)
class EquilibriumReport:
    """A located fixed point of the best-response maps, with its verdict.

    residual_deg is the residual of the composed map at alpha_star_deg as
    double precision evaluates it, not a bound on the error of alpha*:
    where the harmonics cancel, rounding in the map itself can leave
    alpha* off by far more than the residual reads.
    """

    alpha_star_deg: float
    beta_star_deg: float
    value: float
    terms: tuple[float, float]
    amplitudes_a: AmplitudeSquares
    amplitudes_b: AmplitudeSquares
    verified: bool
    max_violation: float
    residual_deg: float

    def __init__(self, alpha_star_deg: float, beta_star_deg: float, value: float,
                 terms: tuple[float, float], amplitudes_a: AmplitudeSquares,
                 amplitudes_b: AmplitudeSquares, verified: bool, max_violation: float,
                 residual_deg: float) -> None:
        # the generated __init__'s signature, filling the instance dict in
        # one write instead of one frozen object.__setattr__ per field
        self.__dict__.update(alpha_star_deg=alpha_star_deg, beta_star_deg=beta_star_deg,
                             value=value, terms=terms, amplitudes_a=amplitudes_a,
                             amplitudes_b=amplitudes_b, verified=verified,
                             max_violation=max_violation, residual_deg=residual_deg)


def _report(alpha_deg: float, beta_deg: float, params: GameParams,
            tol: Optional[float] = None, residual_deg: float = math.nan) -> EquilibriumReport:
    """The report of the profile (alpha, beta), each angle reduced to
    [0, 180) as QuantumStrategy reduces it, with its ValueError for a
    non-finite one: both players' squared amplitudes
    (quantum._amplitude_squares), the two diagonal terms, value as their
    sum, and the verdict of verify_equilibrium with tol.  It holds what
    amplitudes and payoff_terms give for QuantumStrategy(alpha), bit for
    bit, without building one.
    """
    if not (math.isfinite(alpha_deg) and math.isfinite(beta_deg)):
        angle = beta_deg if math.isfinite(alpha_deg) else alpha_deg
        raise ValueError(f"angle must be finite, got {angle!r}")
    alpha, beta = wrap_half_turn(alpha_deg), wrap_half_turn(beta_deg)
    amplitudes_a = _amplitude_squares(alpha, params.theta_a_deg)
    amplitudes_b = _amplitude_squares(beta, params.theta_b_deg)
    terms = _diagonal_terms(amplitudes_a, amplitudes_b, params.a, params.b, params.c, params.d)
    verdict = verify_equilibrium(alpha, beta, params, tol=tol)
    return EquilibriumReport(alpha, beta, float(terms[0] + terms[1]), terms, amplitudes_a,
                             amplitudes_b, verdict.verified, verdict.max_violation, residual_deg)


@dataclass(frozen=True, init=False)
class SearchResult:
    """The reports and degeneracy regions of find_equilibria, which
    defines both.  Iterates over the reports."""

    equilibria: tuple[EquilibriumReport, ...]
    degeneracy_regions: tuple[tuple[float, float], ...]

    def __init__(self, equilibria: tuple[EquilibriumReport, ...],
                 degeneracy_regions: tuple[tuple[float, float], ...]) -> None:
        # as EquilibriumReport.__init__
        self.__dict__.update(equilibria=equilibria, degeneracy_regions=degeneracy_regions)

    def __iter__(self):
        return iter(self.equilibria)

    def __len__(self) -> int:
        return len(self.equilibria)

    def __getitem__(self, idx):
        return self.equilibria[idx]

    @property
    def verified(self) -> tuple[EquilibriumReport, ...]:
        return tuple(e for e in self.equilibria if e.verified)


def find_equilibria(params: GameParams, scan_step_deg: float = 0.25,
                    refine_tol_deg: float = 0.005, n_probe: int = 720,
                    tol: Optional[float] = None) -> SearchResult:
    """Locate and verify all equilibria of the game (fixedpoint.solve).

    Each candidate is kept for what it is, whatever its residual;
    refine_tol_deg is only the radius within which two count as one: of
    candidate (alpha, beta) pairs within it of each other modulo 180 the
    one with the least |residual| is kept, ties to the first in sorted
    order.  The reports come in sorted order, each with the verdict of
    verify_equilibrium with tol (n_probe is validated and no longer
    affects it).  The degeneracy regions are the cells of width
    scan_step_deg that hold an alpha at which a best response along the
    composed map is non-unique, neighbouring cells merged, and the whole
    half turn when a player's harmonic is flat at every angle.
    """
    if not (0.0 < scan_step_deg <= 1.0):
        raise ValueError(f"region cell width must be in (0, 1] degrees, got {scan_step_deg!r}")
    if not (0.0 < refine_tol_deg <= 0.01):
        raise ValueError(f"refine tolerance must be in (0, 0.01] degrees, got {refine_tol_deg!r}")
    _check_probe_count(n_probe)

    candidates, regions = fixedpoint.solve(params, scan_step_deg)

    unique: list[tuple[float, float, float]] = []
    for cand in sorted(candidates, key=lambda c: (abs(c[2]), c)):
        if any(wrapped_distance(cand[0], u[0]) <= refine_tol_deg
               and wrapped_distance(cand[1], u[1]) <= refine_tol_deg for u in unique):
            continue
        unique.append(cand)

    reports = [_report(alpha_star, beta_star, params, tol, abs(residual))
               for alpha_star, beta_star, residual in sorted(unique)]
    return SearchResult(tuple(reports), regions)
