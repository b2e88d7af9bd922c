"""Best responses and the fixed points of their composition.

For a fixed opponent angle x a player's payoff is a single harmonic in
twice the player's own angle, K0 + K1 cos 2t + K2 sin 2t, and (K1, K2) is
an affine function of (cos 2x, sin 2x): each best response has a closed
form, and one array kernel evaluates either player's.  The kernel keeps
the harmonic as one complex amplitude K = K1 + i K2 = kappa0 + mu e +
nu conj(e) of the opponent's phase e = exp(2ix); the payoff peaks where
exp(2it) points along K.  So the composed map needs no angle between the
two best responses: Bob's answer to Alice's phase e is the unit vector
w = -K_B/|K_B|, Alice's harmonic against it is K_A = kappa0_A + mu_A w +
nu_A conj(w), and the fixed-point residual is arg(K_A conj(e))/2.

Each game has one harmonic kernel (HarmonicKernel), built on first use
and cached on the game as params.kernel: both players' harmonics as
complex coefficients, the largest stake and the flatness radius.  Every
stage of a solve reads it, so no stage rebuilds a harmonic map or
rescans the stakes.

Write z = e = exp(i phi), phi = 2a, for Alice's angle a.  On the unit
circle conj(z) = 1/z, so Bob's harmonic is the Laurent polynomial
K_B = nu_B/z + kappa0_B + mu_B z, and conj(K_B) is its coefficient list
reversed and conjugated.  Alice's angle is a fixed point of the composed
map when K_A points along e: Im(K_A conj(e)) = 0 and Re(K_A conj(e)) > 0.
Multiplied by |K_B| the first condition reads Im(kappa0_A conj(e)) |K_B|
= Im(L conj(e)), L = mu_A K_B + nu_A conj(K_B), where Im(f conj(e)) =
(f/z - conj(f) z)/2i.  Squared, with |K_B|^2 = K_B conj(K_B), it is z^-4
times a degree-8 polynomial in z (spectral rootfinding for Fourier
series: J. P. Boyd, J. Eng. Math. 56 (2006) 203-219).  Its unit-circle
roots are the eigenvalues of the companion matrix that lie near the
circle; the matrix is built directly, as numpy.roots builds it, without
the zero roots numpy.roots appends.  The roots hold every fixed point,
and also the roots of the other square-root branch, where Alice answers
-w, and the zeros of K_B.  Each root's angle seeds one Newton iteration
on the unsquared residual, whose slope has a closed form in the same
harmonics; the first step and the residual it ends at tell the roots
apart.  Where K_A or K_B nearly vanishes the residual sweeps most of a
quarter turn within a small fraction of a degree, and a full step from
an eigenvalue's angle can overshoot it, so a step that does not lower
the residual is halved instead.

Bob's answer angles are computed only where they are returned: the
Newton iteration takes residuals and slopes one angle at a time in
plain complex arithmetic, the scan takes the residuals alone from the
composition kernel, and compose, which adds Bob's angles, runs once at
the polished angles.  The scan is a cross-check on a fixed grid whose
phases are computed once per step and cached read-only.

Where a player's harmonic vanishes that player is indifferent and the
composed map is undefined.  Such a zero, and the opponent angles that
it pairs with in an equilibrium, each solve one linear equation in
(cos 2y, sin 2y), so they have closed forms too.
"""

from __future__ import annotations

import cmath
import functools
import math
from typing import NamedTuple

import numpy as np

from .angles import signed_delta, wrap_half_turn

# a harmonic whose squared amplitude is at most this times the square of
# the largest stake is treated as flat
DEGENERACY_SQ = 1e-18

ALICE, BOB = "alice", "bob"
# an eigenvalue of the companion matrix whose modulus is this close to 1
# is taken for a root on the unit circle: the eigenvalues of a k-fold
# root scatter by about eps^(1/k), 1e-5 for a triple root; an eigenvalue
# this close that is no fixed point gives a seed that fixed_points drops
_ON_CIRCLE = 1e-3
# relative size below which the polynomial counts as identically zero
_ZERO_POLYNOMIAL = 1e-12
# a Newton iteration moves at most this far from its start, and
# fixed_points polishes only the seeds whose first step is this short: an
# eigenvalue's angle is orders of magnitude closer to its fixed point,
# and a seed on the other square-root branch (residual +-90) mostly
# much farther
_REACH_DEG = 1.0
# residual evaluations per Newton iteration; a halved step costs one
_NEWTON_STEPS = 12
# the last step is applied before the iteration stops, since Bob's best
# response can be thousands of times steeper than the residual
_NEWTON_TOL_DEG = 1e-12


class HarmonicKernel(NamedTuple):
    """One game's harmonics, built once per game.

    alice and bob are the players' harmonics (kappa0, m_1, m_2) from
    harmonic_map; scale is the largest |stake| and radius,
    sqrt(DEGENERACY_SQ) * scale, the largest |K| that is flat.
    """

    alice: tuple[complex, complex, complex]
    bob: tuple[complex, complex, complex]
    scale: float
    radius: float


def harmonic_kernel(params) -> HarmonicKernel:
    """The kernel of a game; GameParams caches it as params.kernel."""
    scale = max(map(abs, params.stakes))
    return HarmonicKernel(harmonic_map(params, ALICE), harmonic_map(params, BOB),
                          scale, math.sqrt(DEGENERACY_SQ) * scale)


def harmonic_map(params, player: str) -> tuple[complex, complex, complex]:
    """A player's harmonic K = K1 + i K2 as the complex coefficients
    (kappa0, m_1, m_2) of K = kappa0 + m_1 cos 2x + m_2 sin 2x in the
    opponent angle x.

    With (p, q) the stakes the player meets on the axis diagonal, (r, s)
    those on the rotated one, n = exp(2i t_own) and o = exp(2i t_opp) for
    the two mixing angles, K = h/2 + g n/2, where h = p sin^2 x -
    q cos^2 x = (p - q)/2 - (p + q)/2 cos 2x and g = r sin^2(x - t_opp) -
    s cos^2(x - t_opp) = (r - s)/2 - (r + s)/2 (Re o cos 2x + Im o sin 2x).
    """
    if player == ALICE:
        p, q, r, s = params.a, params.c, params.b, params.d
        t_own, t_opp = params.theta_a_deg, params.theta_b_deg
    else:
        p, q, r, s = params.c, params.a, params.d, params.b
        t_own, t_opp = params.theta_b_deg, params.theta_a_deg
    n = cmath.exp(1j * math.radians(2.0 * t_own))
    o = cmath.exp(1j * math.radians(2.0 * t_opp))
    g = (r + s) / 4.0
    return (p - q) / 4.0 + (r - s) / 4.0 * n, -(p + q) / 4.0 - g * o.real * n, -g * o.imag * n


def phase(angle_deg):
    """e = exp(2ix) of each angle x in degrees; broadcasts over arrays."""
    return np.exp((1j * math.pi / 90.0) * np.asarray(angle_deg, dtype=float))


def _harmonic(e, kappa0, m_1, m_2):
    """K = kappa0 + m_1 Re e + m_2 Im e against each opponent phase
    e = exp(2ix), which is kappa0 + mu e + nu conj(e) with
    mu = (m_1 - i m_2)/2 and nu = (m_1 + i m_2)/2; broadcasts over arrays.
    """
    return kappa0 + m_1 * e.real + m_2 * e.imag


def _flat(size, kernel: HarmonicKernel):
    """Whether each harmonic of modulus size = |K| is flat: K1^2 + K2^2 <=
    DEGENERACY_SQ * max|stake|^2, tested as |K| <= kernel.radius so that
    no square overflows or underflows at extreme stakes."""
    return size <= kernel.radius


def _peak(k, flat):
    """arg K in radians, where the harmonic K1 cos 2t + K2 sin 2t =
    Re(K conj(exp(2it))) peaks, for each K = k; NaN where the mask flat,
    from _flat, holds."""
    return np.where(flat, np.nan, np.arctan2(k.imag, k.real))


def _answer(peak, player: str):
    """The best-response angle in [0, 180) at the harmonic's peak 2t = peak;
    Bob minimises, so his answer lies a quarter turn from it."""
    return wrap_half_turn(peak * (90.0 / math.pi) + (0.0 if player == ALICE else 90.0))


def best_responses(opponent_deg, params, player: str):
    """A player's best-response angles in [0, 180) against each opponent
    angle, NaN where the harmonic is flat; broadcasts over angle arrays."""
    kernel = params.kernel
    k = _harmonic(phase(opponent_deg), *(kernel.alice if player == ALICE else kernel.bob))
    return _answer(_peak(k, _flat(abs(k), kernel)), player)


def _compose_phases(e, params):
    """Bob's harmonic K_B against each of Alice's phases e = exp(2i alpha),
    the mask of where it is flat, and the residual arg(K_A conj(e))/2 of
    the composed map in degrees, NaN where K_B or Alice's harmonic K_A
    against Bob's answer w = -K_B/|K_B| is flat."""
    kernel = params.kernel
    k_b = _harmonic(e, *kernel.bob)
    size_b = abs(k_b)
    flat_b = _flat(size_b, kernel)
    # w is NaN where K_B vanishes and finite but unused where it is flat
    with np.errstate(divide="ignore", invalid="ignore"):
        k_a = _harmonic(-k_b / size_b, *kernel.alice) * np.conj(e)
    return k_b, flat_b, _peak(k_a, flat_b | _flat(abs(k_a), kernel)) * (90.0 / math.pi)


def compose(alpha_deg, params):
    """Bob's response to each alpha, and the signed angular defect of alpha
    under the composed best-response map (the residual, in [-90, 90]);
    NaN where a response along the composition is degenerate."""
    k_b, flat_b, residuals = _compose_phases(phase(alpha_deg), params)
    return _answer(_peak(k_b, flat_b), BOB), residuals


@functools.lru_cache(maxsize=8)
def _scan_grid(step_deg: float) -> tuple[np.ndarray, np.ndarray]:
    """The scan angles arange(0, 180, step_deg) and their phases, as
    read-only arrays computed once per step."""
    alphas = np.arange(0.0, 180.0, step_deg)
    phases = phase(alphas)
    alphas.flags.writeable = phases.flags.writeable = False
    return alphas, phases


def scan(params, step_deg: float) -> tuple[np.ndarray, np.ndarray]:
    """The scan angles over [0, 180) at step_deg and the residual at each;
    Bob's answers, which the scan does not use, are not computed."""
    alphas, phases = _scan_grid(step_deg)
    return alphas, _compose_phases(phases, params)[2]


def _step(alpha: float, kernel: HarmonicKernel) -> tuple[float, float]:
    """The residual r of compose at alpha and the Newton step r / r', in
    degrees; the step is NaN where r or its slope r' is undefined or the
    slope is 0, and r is NaN where r is undefined.

    With e = exp(2i alpha), per radian of alpha dK_B = 2(m_2 Re e -
    m_1 Im e) from Bob's harmonic, Bob's answer w = -K_B/|K_B| turns by
    dw = i w Im(dK_B/K_B), Alice's harmonic against it moves by dK_A =
    m_1 Re dw + m_2 Im dw from hers, and r = arg(K_A conj(e))/2 has the
    slope r' = Im(dK_A/K_A)/2 - 1 in degrees per degree.  Plain Python
    complex arithmetic: one angle at a time, numpy would cost more than
    the arithmetic.
    """
    (_, m1_a, m2_a), (_, m1_b, m2_b) = kernel.alice, kernel.bob
    e = cmath.exp(1j * math.radians(2.0 * alpha))
    k_b = _harmonic(e, *kernel.bob)
    size_b = abs(k_b)
    if _flat(size_b, kernel):
        return math.nan, math.nan
    w = -k_b / size_b
    k_a = _harmonic(w, *kernel.alice)
    if _flat(abs(k_a), kernel):
        return math.nan, math.nan
    dw = 1j * w * (2.0 * (m2_b * e.real - m1_b * e.imag) / k_b).imag
    slope = ((m1_a * dw.real + m2_a * dw.imag) / k_a).imag / 2.0 - 1.0
    residual = math.degrees(cmath.phase(k_a * e.conjugate())) / 2.0
    return residual, residual / slope if slope else math.nan


def _newton(alpha: float, residual: float, step: float, kernel: HarmonicKernel) -> float:
    """Newton's iteration on the residual from alpha, given the residual
    and the first step there from _step; the angle is not wrapped.

    A step that does not lower |residual| is halved instead of taken.  The
    iteration stops where the step is undefined or would leave
    _REACH_DEG of the start, after _NEWTON_STEPS evaluations, or once a
    step of at most _NEWTON_TOL_DEG is due, which it applies unevaluated.
    """
    start = alpha
    for _ in range(_NEWTON_STEPS):
        if math.isnan(step) or abs(alpha - step - start) > _REACH_DEG:
            break
        if abs(step) <= _NEWTON_TOL_DEG:
            return alpha - step
        trial, trial_step = _step(alpha - step, kernel)
        if abs(trial) < abs(residual):
            alpha, residual, step = alpha - step, trial, trial_step
        else:
            step /= 2.0
    return alpha


def polish(alphas: np.ndarray, params) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Newton's iteration on the residual from each angle, as _newton runs
    it with the closed-form slope of _step, and Bob's answers and the
    residuals at the polished angles, from one compose call.  An angle
    whose residual or slope is undefined stays where it is.
    """
    kernel = params.kernel
    alphas = wrap_half_turn(np.array([_newton(a, *_step(a, kernel), kernel)
                                      for a in alphas.tolist()]))
    return (alphas, *compose(alphas, params))


def _times(f, g) -> list[complex]:
    """Product of two Laurent polynomials given as coefficient sequences.

    Plain Python rather than numpy.convolve, which is slower on factors
    of at most five terms.
    """
    out = [0j] * (len(f) + len(g) - 1)
    for i, fi in enumerate(f):
        for j, gj in enumerate(g):
            out[i + j] += fi * gj
    return out


def _conj(f) -> list[complex]:
    """conj(f) of a Laurent polynomial f in z on the unit circle."""
    return [c.conjugate() for c in reversed(f)]


def _im_along_e(f) -> list[complex]:
    """Im(f conj(e)) = (f/z - conj(f) z)/2i on the unit circle z = e."""
    return [(x - y) / 2j for x, y in zip([*f, 0j, 0j], [0j, 0j, *_conj(f)])]


def polynomial(alice, bob) -> list[complex]:
    """Coefficients of z^-4 ... z^4 of Im(kappa0_A conj(e))^2 K_B conj(K_B)
    - Im(L conj(e))^2, where L = mu_A K_B + nu_A conj(K_B).

    alice and bob are the harmonics (kappa0, m_1, m_2) of harmonic_map,
    with mu = (m_1 - i m_2)/2 and nu = (m_1 + i m_2)/2.  The coefficients
    are scaled so that the largest |coefficient| of the two is 1.
    """
    scale = max(map(abs, (*alice, *bob)))
    if scale == 0.0:
        return [0j] * 9
    (kappa0, m_1, m_2), (b0, b1, b2) = ([c / scale for c in h] for h in (alice, bob))
    k_b = [(b1 + 1j * b2) / 2.0, b0, (b1 - 1j * b2) / 2.0]
    k_b_conj = _conj(k_b)
    mu, nu = (m_1 - 1j * m_2) / 2.0, (m_1 + 1j * m_2) / 2.0
    a0_im = _im_along_e([kappa0])
    l_im = _im_along_e([mu * x + nu * y for x, y in zip(k_b, k_b_conj)])
    return [x - y for x, y in zip(_times(_times(a0_im, a0_im), _times(k_b, k_b_conj)),
                                  _times(l_im, l_im))]


def _companion_roots(coeffs) -> np.ndarray:
    """The nonzero roots of z^4 sum coeffs[k] z^(k-4), as numpy.roots
    finds them: the eigenvalues of the companion matrix of the
    coefficients from the leading nonzero one c_lead to the last nonzero
    one, whose first row is -c[k]/c_lead and whose subdiagonal is ones.
    """
    p = np.asarray(coeffs[::-1])
    nonzero = np.flatnonzero(p)
    if len(nonzero) < 2:
        return np.empty(0, dtype=complex)
    p = p[nonzero[0]:nonzero[-1] + 1]
    companion = np.eye(len(p) - 1, k=-1, dtype=p.dtype)
    companion[0] = -p[1:] / p[0]
    return np.linalg.eigvals(companion)


def circle_angles(coeffs) -> np.ndarray:
    """Angle phi of each root on the unit circle of z^4 sum coeffs[k] z^(k-4).

    The roots are the eigenvalues of the companion matrix (those
    numpy.roots finds) whose modulus is within _ON_CIRCLE of 1, and the
    angles are theirs, unfinished: fixed_points finishes them on the
    unsquared residual.  A multiple root keeps one angle per eigenvalue,
    all close together.  A polynomial that vanishes identically (K_A
    parallel to e for every phi) has no isolated roots and yields none.
    """
    if max(map(abs, coeffs)) <= _ZERO_POLYNOMIAL:
        return np.empty(0)
    z = _companion_roots(coeffs)
    return np.angle(z[np.abs(np.abs(z) - 1.0) <= _ON_CIRCLE])


def fixed_points(params, tol_deg: float) -> np.ndarray:
    """(alpha, beta, residual) rows of the fixed points of the composed
    best-response map, one row per seed that finds one.

    The polynomial's input is the game's kernel.  Each unit-circle root
    of the fixed-point polynomial whose first Newton step on the
    unsquared residual is at most _REACH_DEG seeds Newton's iteration,
    as polish runs it, and a polished angle is kept where its residual
    is within tol_deg of zero.  This drops the roots of the other
    square-root branch, those where K_A points against e (residual
    +-90), and the zeros of K_B (step undefined).  When no root seeds an
    iteration, nothing is polished.  Bob's answers and the residuals
    come from one compose call at the polished angles.
    """
    kernel = params.kernel
    coeffs = polynomial(kernel.alice, kernel.bob)
    seeds = wrap_half_turn(0.5 * np.degrees(circle_angles(coeffs))).tolist()
    firsts = [(a, *_step(a, kernel)) for a in seeds]
    seeded = [seed for seed in firsts if abs(seed[2]) <= _REACH_DEG]
    if not seeded:
        return np.empty((0, 3))
    alphas = wrap_half_turn(np.array([_newton(*seed, kernel) for seed in seeded]))
    rows = np.column_stack((alphas, *compose(alphas, params)))
    return rows[np.abs(rows[:, 2]) <= tol_deg]


def _harmonic_angles(u1: float, u2: float, k: float) -> list[float]:
    """The at most two angles y in [0, 180) with u1 cos 2y + u2 sin 2y = k."""
    amplitude = math.hypot(u1, u2)
    if amplitude == 0.0 or abs(k) > amplitude:
        return []
    peak, half = math.atan2(u2, u1), math.acos(k / amplitude)
    return [wrap_half_turn(math.degrees(peak + sign * half) / 2.0) for sign in (-1.0, 1.0)]


def indifference_points(params, tol_deg: float) -> tuple[np.ndarray, np.ndarray]:
    """(alpha, beta, residual) rows of the equilibria at which one player
    is indifferent, that is, where the composed map is undefined, and the
    alphas at which it is undefined: those at which Bob is indifferent,
    and those Bob answers with a beta at which Alice is.

    A player's harmonic K = kappa0 + m_1 cos 2x + m_2 sin 2x vanishes only
    where its real or imaginary part does, at one of at most two
    closed-form opponent angles x0, taken from the part whose m-terms
    are larger and kept where the flatness test of best_responses holds
    there.  The player's partner angles y are those against which the
    opponent's harmonic K' is parallel to e(x0): Im(conj(K') e(x0)) = 0
    is one linear equation in (cos 2y, sin 2y).  At one sign of K' the
    opponent's best reply is x0, at the other x0 + 90.  The residual is
    the opponent's best-reply defect from x0, 0 where that reply is flat
    too, and the rows within tol_deg of zero are kept; the alphas of the
    rows kept where Alice is indifferent are the alphas Bob answers with
    x0.
    """
    kernel = params.kernel
    rows, undefined = [], []
    for player, opponent, own, other in ((BOB, ALICE, kernel.bob, kernel.alice),
                                         (ALICE, BOB, kernel.alice, kernel.bob)):
        parts = ([c.real for c in own], [c.imag for c in own])
        k, u1, u2 = max(parts, key=lambda part: math.hypot(part[1], part[2]))
        for x0 in _harmonic_angles(u1, u2, -k):
            e = cmath.exp(2j * math.radians(x0))
            if not _flat(abs(_harmonic(e, *own)), kernel):
                continue
            k, u1, u2 = ((c.conjugate() * e).imag for c in other)
            ys = np.array(_harmonic_angles(u1, u2, -k))
            reply = best_responses(ys, params, opponent)
            residual = np.where(np.isnan(reply), 0.0, signed_delta(reply, x0))
            kept = np.abs(residual) <= tol_deg
            xs = np.full_like(ys, x0)
            rows.append(np.column_stack((xs, ys, residual) if player == BOB
                                        else (ys, xs, residual))[kept])
            undefined.extend([x0] if player == BOB else ys[kept])
    if not rows:
        return np.empty((0, 3)), np.array(undefined)
    return np.concatenate(rows), np.array(undefined)


def unexplained_crossings(alphas: np.ndarray, residuals: np.ndarray, explained: np.ndarray,
                          params, tol_deg: float) -> np.ndarray:
    """Scan brackets with a sign change that no explaining angle (an
    enumerated root, or an alpha where the composed map jumps) lies in.

    A bracket is a zero sample, or a sign change between neighbouring
    samples whose residual moves by less than 90 degrees (larger moves
    are the wraps of the discontinuous composed map).  Each unexplained
    bracket yields its interpolated crossing, Newton-polished when that
    stays inside the bracket; the crossings come as (alpha, beta,
    residual) rows.
    """
    step = alphas[1] - alphas[0]
    r_next = np.concatenate((residuals[1:], residuals[:1]))
    bracket = (residuals == 0.0) | ((residuals * r_next < 0.0)
                                    & (np.abs(r_next - residuals) < 90.0))
    if not bracket.any():
        return np.empty((0, 3))
    lo, r_lo, r_hi = alphas[bracket], residuals[bracket], r_next[bracket]
    mid = lo + step / 2.0
    offsets = signed_delta(explained[None, :], mid[:, None])
    open_ = ~np.any(np.abs(offsets) <= step / 2.0 + tol_deg, axis=1)
    if not open_.any():
        return np.empty((0, 3))
    lo, r_lo, r_hi, mid = lo[open_], r_lo[open_], r_hi[open_], mid[open_]
    with np.errstate(invalid="ignore"):
        guess = wrap_half_turn(lo + step * np.where(r_lo == 0.0, 0.0, r_lo / (r_lo - r_hi)))
    polished = polish(guess, params)[0]
    inside = np.abs(signed_delta(polished, mid)) <= step / 2.0 + tol_deg
    crossings = np.where(inside, polished, guess)
    return np.column_stack((crossings, *compose(crossings, params)))
