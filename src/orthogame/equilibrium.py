"""Equilibrium search on the two-angle payoff surface.

For a fixed opponent angle x the payoff F is a single harmonic in twice
the player's own angle, K0 + K1 cos 2t + K2 sin 2t, and (K1, K2) is an
affine function of (cos 2x, sin 2x); each best response has a closed
form.  Equilibria are fixed points of the composed best-response map on
the half-turn circle, and they are enumerated exactly: they are roots of
a degree-8 polynomial (see `fixedpoint`), polished by Newton steps on
the unsquared fixed-point residual and kept where that residual
vanishes, steep crossings and tangencies included.

The residual is also scanned on a fixed grid.  The scan yields the
degeneracy regions, where a best response is non-unique, and serves as
a cross-check: a sign change of the scanned residual that no enumerated
root explains becomes a candidate of its own.  Verification is
mandatory: every candidate is probed with dense two-sided deviations,
and those that fail are reported with verified=False rather than
dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from . import fixedpoint
from .angles import wrapped_distance
from .fixedpoint import ALICE, BOB, DEGENERACY_SQ, best_responses, compose, stake_scale
from .quantum import (AmplitudeSquares, LogicRepresentation, QuantumStrategy,
                      amplitudes, payoff_grid, payoff_terms)

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


def _check_probe_count(n_probe: int) -> None:
    if n_probe < 360:
        raise ValueError(f"n_probe must be at least 360, got {n_probe!r}")


def verify_equilibrium(alpha_star_deg: float, beta_star_deg: float, params: GameParams,
                       n_probe: int = 720, tol: Optional[float] = None) -> VerificationResult:
    """Two-sided deviation check of a candidate profile.

    Probes F over an n_probe grid of unilateral deviations for each
    player, plus the analytic best responses; max_violation is the
    largest payoff improvement any deviation achieves.  The default
    tolerance scales with the largest stake.
    """
    _check_probe_count(n_probe)
    if tol is None:
        tol = 1e-6 * stake_scale(params)
    value = float(params.payoff(alpha_star_deg, beta_star_deg))
    grid = np.arange(n_probe) * (180.0 / n_probe)

    gains = [
        float(np.max(params.payoff(grid, beta_star_deg))) - value,
        value - float(np.min(params.payoff(alpha_star_deg, grid))),
    ]
    ba = best_response_alice(beta_star_deg, params)
    if not ba.degenerate:
        gains.append(float(params.payoff(ba.angle_deg, beta_star_deg)) - value)
    bb = best_response_bob(alpha_star_deg, params)
    if not bb.degenerate:
        gains.append(value - float(params.payoff(alpha_star_deg, bb.angle_deg)))

    worst = max(gains)
    return VerificationResult(verified=bool(worst <= tol), max_violation=worst)


@dataclass(frozen=True)
class EquilibriumReport:
    """A located fixed point of the best-response maps, with its verdict."""

    alpha_star_deg: float
    beta_star_deg: float
    value: float
    terms: tuple[float, float]
    amplitudes_a: AmplitudeSquares
    amplitudes_b: AmplitudeSquares
    verified: bool
    max_violation: float
    residual_deg: float


@dataclass(frozen=True)
class SearchResult:
    """Equilibrium candidates plus the scan intervals where a best
    response was non-unique.  Iterates over the reports."""

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


def _degeneracy_regions(alphas: np.ndarray,
                        degenerate: np.ndarray) -> tuple[tuple[float, float], ...]:
    """Group consecutive degenerate scan samples into intervals."""
    if not degenerate.any():
        return ()
    edges = np.flatnonzero(np.diff(np.concatenate(([False], degenerate, [False]))))
    bounds = np.append(alphas, 180.0)[edges].tolist()
    return tuple(zip(bounds[::2], bounds[1::2]))


def find_equilibria(params: GameParams, scan_step_deg: float = 0.25,
                    refine_tol_deg: float = 0.005, n_probe: int = 720,
                    tol: Optional[float] = None) -> SearchResult:
    """Locate and verify all fixed points of the composed best-response map.

    Enumerates the fixed points as the unit-circle roots of the degree-8
    fixed-point polynomial, polished by Newton steps and kept where the
    residual is within refine_tol_deg of zero.  The residual is also
    scanned over [0, 180) at scan_step_deg: the scan gives the
    degeneracy regions, and each of its sign-change brackets (residual
    moving by less than 90 degrees) that holds no enumerated root adds
    its crossing as a candidate.  Candidates are deduplicated modulo 180
    within refine_tol_deg and each is verified with two-sided deviation
    probes (n_probe, tol); unverified candidates stay in the result with
    verified=False.
    """
    if not (0.0 < scan_step_deg <= 1.0):
        raise ValueError(f"scan step must be in (0, 1] degrees, got {scan_step_deg!r}")
    if not (0.0 < refine_tol_deg <= 0.01):
        raise ValueError(f"refine tolerance must be in (0, 0.01] degrees, got {refine_tol_deg!r}")
    _check_probe_count(n_probe)

    alphas = np.arange(0.0, 180.0, scan_step_deg)
    _, residuals = compose(alphas, params)
    regions = _degeneracy_regions(alphas, np.isnan(residuals))
    roots = fixedpoint.fixed_points(params, refine_tol_deg)
    candidates = np.concatenate(
        (roots, fixedpoint.unexplained_crossings(alphas, residuals, roots, params, refine_tol_deg)))

    # deduplicate modulo 180
    unique: list[float] = []
    for cand in sorted(candidates.tolist()):
        if any(wrapped_distance(cand, u) <= refine_tol_deg for u in unique):
            continue
        unique.append(cand)

    if not unique:
        return SearchResult(equilibria=(), degeneracy_regions=regions)
    betas, defects = compose(np.array(unique), params)
    reports = []
    for alpha_star, beta_star, residual in zip(unique, betas.tolist(), defects.tolist()):
        if math.isnan(beta_star) or math.isnan(residual):
            continue
        strat_a = QuantumStrategy(alpha_star)
        strat_b = QuantumStrategy(beta_star)
        verdict = verify_equilibrium(alpha_star, beta_star, params,
                                     n_probe=n_probe, tol=tol)
        reports.append(EquilibriumReport(
            alpha_star_deg=alpha_star,
            beta_star_deg=beta_star,
            value=float(params.payoff(alpha_star, beta_star)),
            terms=payoff_terms(strat_a, strat_b, params.rep_a, params.rep_b,
                               *params.stakes),
            amplitudes_a=amplitudes(strat_a, params.rep_a),
            amplitudes_b=amplitudes(strat_b, params.rep_b),
            verified=verdict.verified,
            max_violation=verdict.max_violation,
            residual_deg=abs(residual),
        ))
    reports.sort(key=lambda r: r.alpha_star_deg)
    return SearchResult(equilibria=tuple(reports), degeneracy_regions=regions)
