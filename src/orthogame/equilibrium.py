"""The public layer of the equilibrium search on the two-angle payoff
surface: games, best responses, reaction curves, verification and
find_equilibria's reports.

The search itself, from the disk certificate to the closed-form
indifference rows and degeneracy regions, is fixedpoint.solve, and the
closed-form deviation gains are fixedpoint.gains; this module validates
input, deduplicates candidates, builds the reports and gives each its
verdict.  Candidates that fail verification are reported with
verified=False rather than dropped.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from . import fixedpoint
from .angles import wrapped_distance
from .fixedpoint import ALICE, BOB, DEGENERACY_SQ, best_responses
from .quantum import (AmplitudeSquares, LogicRepresentation, QuantumStrategy,
                      _diagonal_terms, amplitudes, payoff_grid)

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
        self.rep_a, self.rep_b

    @cached_property
    def rep_a(self) -> LogicRepresentation:
        return LogicRepresentation(self.theta_a_deg)

    @cached_property
    def rep_b(self) -> LogicRepresentation:
        return LogicRepresentation(self.theta_b_deg)

    @cached_property
    def kernel(self) -> fixedpoint.HarmonicKernel:
        """Both players' harmonics and the flatness scale, built once."""
        return fixedpoint.harmonic_kernel(self)

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

    The harmonic K1 cos 2a + K2 sin 2a peaks at 2a = atan2(K2, K1).
    When it is flat relative to the stakes every angle is optimal and
    the response is reported degenerate (angle NaN) instead of picking
    one arbitrarily.  An array of betas gives arrays of angles and
    flags.
    """
    return _response(best_responses(beta_deg, params, ALICE))


def best_response_bob(alpha_deg: float, params: GameParams) -> BestResponse:
    """Bob's payoff-minimizing angle against alpha.

    Same harmonic reduction as for Alice, with the minimum a quarter
    turn away from the peak of the 2b harmonic; broadcasts likewise.
    """
    return _response(best_responses(alpha_deg, params, BOB))


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


def reaction_curves(params: GameParams, step_deg: float) -> tuple[ReactionCurve, ReactionCurve]:
    """Sample both best-response maps over [0, 180) at the given step.

    Degenerate inputs get NaN entries and are listed separately.
    """
    if not (0.0 < step_deg <= 5.0):
        raise ValueError(f"step must be in (0, 5] degrees, got {step_deg!r}")
    inputs = np.arange(0.0, 180.0, step_deg)

    curves = []
    for owner in (ALICE, BOB):
        responses = best_responses(inputs, params, owner)
        if owner == ALICE:
            pay = params.payoff(responses, inputs)
        else:
            pay = params.payoff(inputs, responses)
        samples = tuple(map(CurveSample, inputs.tolist(), responses.tolist(), pay.tolist()))
        degenerate = tuple(inputs[np.isnan(responses)].tolist())
        curves.append(ReactionCurve(owner, samples, degenerate))
    return curves[0], curves[1]


class VerificationResult(NamedTuple):
    verified: bool
    max_violation: float


def _check_probe_count(n_probe) -> None:
    if not isinstance(n_probe, numbers.Integral):
        raise ValueError(f"n_probe must be an integer, got {n_probe!r}")
    if n_probe < 360:
        raise ValueError(f"n_probe must be at least 360, got {n_probe!r}")


def verify_equilibrium(alpha_star_deg: float, beta_star_deg: float, params: GameParams,
                       n_probe: int = 720, tol: Optional[float] = None) -> VerificationResult:
    """Two-sided deviation check of a candidate profile, in closed form.

    max_violation is the larger of the two players' largest gains from a
    unilateral deviation (fixedpoint.gains), and the profile is verified
    when it is at most tol.  A profile with a non-finite angle is not
    verified, and its max_violation is NaN.

    This is the one verdict: each report of find_equilibria gets it from
    this function, with the search's tol and the default n_probe.

    n_probe no longer affects the result: the gains are exact, so no
    grid of deviations is probed.  It is still accepted, so that existing
    callers keep working, and still validated as an integer of at least
    360.

    The default tolerance, 1e-6 * max|stake|, scales with the largest
    stake but is absolute and the same for both players: a player whose
    stakes are far below the largest one gains little from any
    deviation, so that player is checked loosely, and a profile a
    fraction of a degree from a fixed point can pass.  Nor is a verdict
    in doubles a proof at any tolerance: the certificate tests' game
    NEAR_BOUNDARY, whose |d| is 1 - 1e-14, has no pure equilibrium, yet
    its one report leaves gains of 0 and 2.2e-15 at stakes up to 15, a
    rounding-level epsilon-equilibrium that no verdict in doubles can
    reject.
    """
    _check_probe_count(n_probe)
    if not (math.isfinite(alpha_star_deg) and math.isfinite(beta_star_deg)):
        return VerificationResult(verified=False, max_violation=math.nan)
    if tol is None:
        tol = 1e-6 * params.kernel.scale
    worst = max(fixedpoint.gains(alpha_star_deg, beta_star_deg, params))
    return VerificationResult(verified=bool(worst <= tol), max_violation=worst)


@dataclass(frozen=True)
class EquilibriumReport:
    """A located fixed point of the best-response maps, with its verdict.

    residual_deg is the residual of the composed map at alpha_star_deg as
    double precision evaluates it, not a bound on the error of alpha*:
    where the harmonics cancel, at stake ratios near 5e5, rounding in the
    map itself can leave alpha* off by about 1e-9 degrees while the
    residual reads about 1e-15.
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


def _report(alpha_deg: float, beta_deg: float, params: GameParams,
            tol: Optional[float] = None, residual_deg: float = math.nan) -> EquilibriumReport:
    """The report of the profile (alpha, beta), each angle reduced to
    [0, 180): both players' squared amplitudes, the two diagonal terms,
    value as their sum, and the verdict of verify_equilibrium with tol."""
    alpha, beta = QuantumStrategy(alpha_deg), QuantumStrategy(beta_deg)
    amplitudes_a = amplitudes(alpha, params.rep_a)
    amplitudes_b = amplitudes(beta, params.rep_b)
    terms = _diagonal_terms(amplitudes_a, amplitudes_b, *params.stakes)
    verdict = verify_equilibrium(alpha.angle_deg, beta.angle_deg, params, tol=tol)
    return EquilibriumReport(
        alpha_star_deg=alpha.angle_deg,
        beta_star_deg=beta.angle_deg,
        value=float(terms[0] + terms[1]),
        terms=terms,
        amplitudes_a=amplitudes_a,
        amplitudes_b=amplitudes_b,
        verified=verdict.verified,
        max_violation=verdict.max_violation,
        residual_deg=residual_deg,
    )


@dataclass(frozen=True)
class SearchResult:
    """Equilibrium candidates plus the degeneracy regions: the cells of
    width scan_step_deg that hold an alpha at which a best response
    along the composed map is non-unique.  Iterates over the reports."""

    equilibria: tuple[EquilibriumReport, ...]
    degeneracy_regions: tuple[tuple[float, float], ...]

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

    Candidates come from the exact enumeration of fixedpoint, each kept
    for what it is, whatever its residual; refine_tol_deg is only the
    radius within which they count as one.  Of candidate (alpha, beta)
    pairs within refine_tol_deg of each other modulo 180 the one with
    the least |residual| is kept, and those kept are reported in sorted
    order, each verified by verify_equilibrium with tol (n_probe is
    validated and no longer affects the verdict).  A report's value is
    the sum of its two diagonal terms.  The degeneracy regions are the
    cells of width scan_step_deg that hold an alpha at which a
    best response along the composed map is non-unique, neighbouring cells
    merged, and the whole half turn when a player's harmonic is flat at
    every angle.  A game whose absence of pure equilibria the disk
    certificate proves reports nothing and no region; one that it places
    off the boundary reports its one equilibrium, at the maximum of
    Alice's security level, and no region.

    The game is zero-sum, so its equilibria are interchangeable: they
    form a product of Alice's equilibrium angles and Bob's.  A best
    reply is unique unless the player's harmonic is flat, so more than
    one equilibrium needs an indifference.
    """
    if not (0.0 < scan_step_deg <= 1.0):
        raise ValueError(f"region cell width must be in (0, 1] degrees, got {scan_step_deg!r}")
    if not (0.0 < refine_tol_deg <= 0.01):
        raise ValueError(f"refine tolerance must be in (0, 0.01] degrees, got {refine_tol_deg!r}")
    _check_probe_count(n_probe)

    candidates, regions = fixedpoint.solve(params, scan_step_deg)

    # deduplicate (alpha, beta) pairs modulo 180, keeping the least
    # |residual| of each cluster (ties in sorted order), in sorted order
    unique: list[tuple[float, float, float]] = []
    for cand in sorted(candidates, key=lambda c: (abs(c[2]), c)):
        if any(wrapped_distance(cand[0], u[0]) <= refine_tol_deg
               and wrapped_distance(cand[1], u[1]) <= refine_tol_deg for u in unique):
            continue
        unique.append(cand)

    reports = [_report(alpha_star, beta_star, params, tol, abs(residual))
               for alpha_star, beta_star, residual in sorted(unique)]
    return SearchResult(equilibria=tuple(reports), degeneracy_regions=regions)
