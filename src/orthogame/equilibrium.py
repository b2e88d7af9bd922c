"""Equilibrium search on the two-angle payoff surface.

For a fixed opponent angle x the payoff F is a single harmonic in twice
the player's own angle, K0 + K1 cos 2t + K2 sin 2t, and (K1, K2) is an
affine function of (cos 2x, sin 2x); each best response has a closed
form.  Equilibria are fixed points of the composed best-response map on
the half-turn circle, and they are enumerated exactly: they are roots of
a degree-8 polynomial (see `fixedpoint`), polished by Newton's
iteration on the unsquared fixed-point residual and kept where that
residual vanishes, steep crossings and tangencies included.  Where one
player is indifferent the composed map is undefined, and the equilibria
there come from closed forms instead.

The residual is also scanned on a fixed grid.  The scan yields the
degeneracy regions, where a best response is non-unique, and serves as
a cross-check: a sign change of the scanned residual that no enumerated
root explains becomes a candidate of its own.  Verification is
mandatory: each player's largest gain from a unilateral deviation
follows in closed form from the same harmonics, and candidates that
fail are reported with verified=False rather than dropped.
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
from .fixedpoint import ALICE, BOB, DEGENERACY_SQ, _harmonic, best_responses, phase
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

    Against beta* Alice's payoff is K0 + Re(K_A conj(e(t))) in her own
    angle t, where e(t) = exp(2it) and K_A is her harmonic from the
    game's kernel, so her largest gain from a deviation is
    |K_A| - Re(K_A conj(e(alpha*))); Bob minimises, and his is
    Re(K_B conj(e(beta*))) + |K_B|.  Neither needs K0 or a payoff value.
    max_violation is the larger of the two gains, and the profile is
    verified when it is at most tol.  A profile with a non-finite angle
    is not verified, and its max_violation is NaN.

    n_probe no longer affects the result: the gains are exact, so no
    grid of deviations is probed.  It is still validated (an integer of
    at least 360) so that existing callers keep working.

    The default tolerance, 1e-6 * max|stake|, scales with the largest
    stake but is absolute and the same for both players: a player whose
    stakes are far below the largest one gains little from any
    deviation, so that player is checked loosely, and a profile a
    fraction of a degree from a fixed point can pass.
    """
    _check_probe_count(n_probe)
    if not (math.isfinite(alpha_star_deg) and math.isfinite(beta_star_deg)):
        return VerificationResult(verified=False, max_violation=math.nan)
    kernel = params.kernel
    if tol is None:
        tol = 1e-6 * kernel.scale
    e_a, e_b = phase([alpha_star_deg, beta_star_deg]).tolist()
    k_a, k_b = _harmonic(e_b, *kernel.alice), _harmonic(e_a, *kernel.bob)
    gain_a = abs(k_a) - (k_a * e_a.conjugate()).real
    gain_b = (k_b * e_b.conjugate()).real + abs(k_b)
    worst = float(max(gain_a, gain_b))
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


def _degeneracy_regions(alphas: np.ndarray, degenerate: np.ndarray,
                        undefined: np.ndarray) -> tuple[tuple[float, float], ...]:
    """Group consecutive degenerate scan samples into intervals.

    Each alpha in undefined, where the composed map is undefined, whose
    nearest sample the scan did not find degenerate marks the scan cell
    [k step, (k+1) step] that holds it.
    """
    if len(undefined):
        nearest = np.rint(undefined / (alphas[1] - alphas[0])).astype(int) % len(alphas)
        missed = undefined[~degenerate[nearest]]
        degenerate[np.searchsorted(alphas, missed, side="right") - 1] = True
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
    fixed-point polynomial, polished by Newton's iteration on the
    residual and kept where it is within refine_tol_deg of zero.  The
    residual alone, without Bob's answers, is also scanned over [0, 180) at
    scan_step_deg, on a grid whose phases are computed once per step
    and cached: the scan gives the degeneracy regions, and each of its
    sign-change brackets (residual moving by less than 90 degrees) that
    holds neither an enumerated root nor an alpha at which the composed
    map is undefined adds its crossing as a candidate.  So is each
    profile, from closed forms, at which one player is indifferent
    against the other's angle x0 and the other's best reply to the first
    player's angle is x0.  The composed map is undefined at the alphas
    where Bob is indifferent, and at those Bob answers with a beta where
    Alice is; the scan cell holding each is a degeneracy region too, on
    the grid or off it.
    Of candidate (alpha, beta) pairs within refine_tol_deg of each other
    modulo 180 the one with the least |residual| is kept; candidates
    whose beta or residual is undefined are dropped, and the rest are
    reported in sorted order, each verified by verify_equilibrium
    with tol (n_probe is passed on, validated, and
    no longer affects the verdict); unverified candidates stay in the
    result with verified=False.  A report's value is the sum of its two
    diagonal terms.

    The game is zero-sum, so its equilibria are interchangeable: they
    form a product of Alice's equilibrium angles and Bob's.  A best
    reply is unique unless the player's harmonic is flat, so more than
    one equilibrium needs an indifference.  When only one player is
    indifferent, every equilibrium puts the other player at the angle
    that makes the first indifferent.
    """
    if not (0.0 < scan_step_deg <= 1.0):
        raise ValueError(f"scan step must be in (0, 1] degrees, got {scan_step_deg!r}")
    if not (0.0 < refine_tol_deg <= 0.01):
        raise ValueError(f"refine tolerance must be in (0, 0.01] degrees, got {refine_tol_deg!r}")
    _check_probe_count(n_probe)

    alphas, residuals = fixedpoint.scan(params, scan_step_deg)
    indifferent, undefined = fixedpoint.indifference_points(params, refine_tol_deg)
    regions = _degeneracy_regions(alphas, np.isnan(residuals), undefined)
    roots = fixedpoint.fixed_points(params, refine_tol_deg)
    # the composed map jumps where it is undefined, so such an alpha
    # explains a sign change as a root does
    explained = np.concatenate((roots[:, 0], undefined))
    candidates = np.concatenate((
        roots,
        fixedpoint.unexplained_crossings(alphas, residuals, explained, params, refine_tol_deg),
        indifferent))

    # deduplicate (alpha, beta) pairs modulo 180, keeping the least
    # |residual| of each cluster (ties in sorted order), in sorted order
    unique: list[list[float]] = []
    defined = [c for c in candidates.tolist() if not math.isnan(c[1] + c[2])]
    for cand in sorted(defined, key=lambda c: (abs(c[2]), c)):
        if any(wrapped_distance(cand[0], u[0]) <= refine_tol_deg
               and wrapped_distance(cand[1], u[1]) <= refine_tol_deg for u in unique):
            continue
        unique.append(cand)

    reports = []
    for alpha_star, beta_star, residual in sorted(unique):
        amplitudes_a = amplitudes(QuantumStrategy(alpha_star), params.rep_a)
        amplitudes_b = amplitudes(QuantumStrategy(beta_star), params.rep_b)
        terms = _diagonal_terms(amplitudes_a, amplitudes_b, *params.stakes)
        verdict = verify_equilibrium(alpha_star, beta_star, params,
                                     n_probe=n_probe, tol=tol)
        reports.append(EquilibriumReport(
            alpha_star_deg=alpha_star,
            beta_star_deg=beta_star,
            value=float(terms[0] + terms[1]),
            terms=terms,
            amplitudes_a=amplitudes_a,
            amplitudes_b=amplitudes_b,
            verified=verdict.verified,
            max_violation=verdict.max_violation,
            residual_deg=abs(residual),
        ))
    return SearchResult(equilibria=tuple(reports), degeneracy_regions=regions)
