"""Best responses and the fixed points of their composition.

For a fixed opponent angle x a player's payoff is a single harmonic in
twice the player's own angle, K0 + K1 cos 2t + K2 sin 2t, and (K1, K2) is
an affine function of (cos 2x, sin 2x): each best response has a closed
form, and one array kernel evaluates either player's.

Write e = (cos phi, sin phi), phi = 2a, for Alice's angle a.  Bob's
harmonic against a is K_B = b0 + B e; Alice's against Bob's answer
w = -K_B/|K_B| is K_A = a0 + A w.  Alice's angle is a fixed point of the
composed map when K_A points along e: K_A x e = 0, where
u x e = u1 sin phi - u2 cos phi, and K_A . e > 0.  Multiplied by |K_B|
the cross condition reads (a0 x e) |K_B| = (A K_B) x e.  Squared, it is
a trigonometric polynomial of degree at most 4 in phi, that is z^-4
times a degree-8 polynomial in z = exp(i phi) (spectral rootfinding for
Fourier series: J. P. Boyd, J. Eng. Math. 56 (2006) 203-219).  Its
unit-circle roots are found by one subdivision loop whose only
certificate is Taylor exclusion: cells that may hold a root are split
down to a fixed width, then Newton steps finish the root next to each
cell on which the polynomial is monotone, and the others are multiple
roots.  The roots hold every fixed point, and also the roots of the
other square-root branch, where Alice answers -w, and the zeros of K_B;
Newton steps on the unsquared residual and a residual test tell them
apart.
"""

from __future__ import annotations

import math

import numpy as np

from .angles import signed_delta, wrap_half_turn

# a harmonic whose squared amplitude is at most this times the square of
# the largest stake is treated as flat
DEGENERACY_SQ = 1e-18

ALICE, BOB = "alice", "bob"
# cos phi and sin phi as Laurent coefficients of z^-1, z^0, z^1
_COS = (0.5, 0.0, 0.5)
_SIN = (0.5j, 0.0, -0.5j)
# the unit-circle roots are searched on this many cells of [0, 2 pi) at
# first; a cell that does not exclude a root is split this many ways,
# down to a half-width of _MULTIPLE_ROOT_RAD
_ROOT_CELLS = 512
_ROOT_SPLIT = 8
_MULTIPLE_ROOT_RAD = 1e-6
# child cell centres, as fractions of the parent's half-width
_CHILDREN = (2.0 * np.arange(_ROOT_SPLIT) + 1.0 - _ROOT_SPLIT) / _ROOT_SPLIT
_HARMONICS = np.arange(1.0, 5.0)
# a monotone surviving cell's centre lies within about its half-width
# (under _MULTIPLE_ROOT_RAD) of a root, so quadratically convergent
# Newton steps on the polynomial finish that root in this many
_ROOT_NEWTON_STEPS = 2
# relative size below which the polynomial counts as identically zero
_ZERO_POLYNOMIAL = 1e-12
# a root's unpolished residual is orders of magnitude below this on the
# fixed-point branch; roots of the other branch are mostly far above
_RAW_ROOT_DEG = 1.0
_NEWTON_STEPS = 4
_NEWTON_H_DEG = 1e-6
_NEWTON_TOL_DEG = 1e-10


def stake_scale(params) -> float:
    """Largest |stake|, the unit of payoff tolerances and flatness."""
    return max(abs(s) for s in params.stakes)


def harmonic_map(params, player: str):
    """A player's harmonic (K1, K2) as an affine map k0 + m @ (cos 2x, sin 2x)
    of the opponent angle x.

    With (p, q) the stakes the player meets on the axis diagonal, (r, s)
    those on the rotated one, t_own and t_opp the two mixing angles,
    K = (h, 0)/2 + g (cos 2t_own, sin 2t_own)/2, where
    h = p sin^2 x - q cos^2 x and g = r sin^2(x - t_opp) - s cos^2(x - t_opp);
    both are affine in (cos 2x, sin 2x).
    """
    if player == ALICE:
        p, q, r, s = params.a, params.c, params.b, params.d
        t_own, t_opp = params.theta_a_deg, params.theta_b_deg
    else:
        p, q, r, s = params.c, params.a, params.d, params.b
        t_own, t_opp = params.theta_b_deg, params.theta_a_deg
    own, opp = math.radians(2.0 * t_own), math.radians(2.0 * t_opp)
    n1, n2 = math.cos(own) / 2.0, math.sin(own) / 2.0
    g0, g = (r - s) / 2.0, (r + s) / 2.0
    o1, o2 = g * math.cos(opp), g * math.sin(opp)
    k0 = ((p - q) / 4.0 + n1 * g0, n2 * g0)
    m = ((-(p + q) / 4.0 - n1 * o1, -n1 * o2), (-n2 * o1, -n2 * o2))
    return k0, m


def harmonic(opponent_deg, params, player: str):
    """(K1, K2) of a player's payoff harmonic against each opponent angle;
    broadcasts over angle arrays."""
    (k1, k2), ((m11, m12), (m21, m22)) = harmonic_map(params, player)
    x = np.asarray(opponent_deg, dtype=float) * (math.pi / 90.0)    # 2x in radians
    cos, sin = np.cos(x), np.sin(x)
    return k1 + m11 * cos + m12 * sin, k2 + m21 * cos + m22 * sin


def best_responses(opponent_deg, params, player: str):
    """A player's best-response angles in [0, 180) against each opponent
    angle, NaN where the harmonic is flat; broadcasts over angle arrays.

    The harmonic K1 cos 2t + K2 sin 2t peaks at 2t = atan2(K2, K1); Bob
    minimises, so his answer lies a quarter turn from the peak.  A
    harmonic is flat when K1^2 + K2^2 <= DEGENERACY_SQ * max|stake|^2,
    tested as hypot(K1, K2) <= sqrt(DEGENERACY_SQ) * max|stake| so that
    no square overflows or underflows at extreme stakes.
    """
    k1, k2 = harmonic(opponent_deg, params, player)
    peak = np.arctan2(k2, k1) * (90.0 / math.pi) + (0.0 if player == ALICE else 90.0)
    flat = np.hypot(k1, k2) <= math.sqrt(DEGENERACY_SQ) * stake_scale(params)
    return np.where(flat, np.nan, wrap_half_turn(peak))


def compose(alpha_deg, params):
    """Bob's response to each alpha, and the signed angular defect of alpha
    under the composed best-response map (the residual); NaN where a
    response along the composition is degenerate."""
    beta = best_responses(alpha_deg, params, BOB)
    return beta, signed_delta(best_responses(beta, params, ALICE), alpha_deg)


def polish(alphas: np.ndarray, params) -> tuple[np.ndarray, np.ndarray]:
    """Newton steps on the residual, with a forward-difference slope.

    Stops after applying a step in which no angle moves by more than
    _NEWTON_TOL_DEG, and returns the angles with their residuals
    recomputed there; a step left unapplied stays as an error in alpha,
    which a steep best response of Bob multiplies into beta.  A
    candidate whose residual or slope is undefined stays where it is.
    """
    n = len(alphas)
    for _ in range(_NEWTON_STEPS):
        _, r = compose(np.concatenate((alphas, alphas + _NEWTON_H_DEG)), params)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = r[:n] * _NEWTON_H_DEG / (r[n:] - r[:n])
        step = np.where(np.isfinite(step), step, 0.0)
        alphas = wrap_half_turn(alphas - step)
        if not np.any(np.abs(step) > _NEWTON_TOL_DEG):
            break
    return alphas, compose(alphas, params)[1]


def _times(f, g) -> list[complex]:
    """Product of two Laurent polynomials given as coefficient sequences.

    Plain Python rather than NumPy: the factors have at most five terms,
    and NumPy's complex kernels would add about half a megabyte to the
    resident set of every process that solves a game.
    """
    out = [0j] * (len(f) + len(g) - 1)
    for i, fi in enumerate(f):
        for j, gj in enumerate(g):
            out[i + j] += fi * gj
    return out


def _cross_e(u1, u2) -> list[complex]:
    """u x e = u1 sin phi - u2 cos phi for Laurent polynomials u1, u2."""
    return [x - y for x, y in zip(_times(u1, _SIN), _times(u2, _COS))]


def polynomial(alice, bob) -> list[complex]:
    """Coefficients of z^-4 ... z^4 of (a0 x e)^2 |K_B|^2 - ((A K_B) x e)^2.

    alice = (a0, A) and bob = (b0, B) are the affine maps of the two
    harmonics, as a pair of 2-vectors and a 2x2 nested sequence.  The
    coefficients are scaled so that the largest map entry is 1.
    """
    (a0, am), (b0, bm) = alice, bob
    scale = max(abs(x) for x in (*a0, *am[0], *am[1], *b0, *bm[0], *bm[1]))
    if scale == 0.0:
        return [0j] * 9
    a0, am = [x / scale for x in a0], [[x / scale for x in row] for row in am]
    kb = [[(b1 + 1j * b2) / (2.0 * scale), c / scale, (b1 - 1j * b2) / (2.0 * scale)]
          for c, (b1, b2) in zip(b0, bm)]
    akb = [[row[0] * x + row[1] * y for x, y in zip(*kb)] for row in am]
    a0_cross = _cross_e([a0[0]], [a0[1]])
    akb_cross = _cross_e(*akb)
    kb_sq = [x + y for x, y in zip(_times(kb[0], kb[0]), _times(kb[1], kb[1]))]
    return [x - y for x, y in zip(_times(_times(a0_cross, a0_cross), kb_sq),
                                  _times(akb_cross, akb_cross))]


def _tables(phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """cos k phi and sin k phi for k = 1 ... 4, one row per phi."""
    k_phi = phi[:, None] * _HARMONICS
    return np.cos(k_phi), np.sin(k_phi)


def _values(tables, a0: float, a: np.ndarray, b: np.ndarray):
    """T and T' from the tables of cos k phi and sin k phi."""
    cos, sin = tables
    return a0 + cos @ a + sin @ b, cos @ (_HARMONICS * b) - sin @ (_HARMONICS * a)


def circle_angles(coeffs) -> np.ndarray:
    """Angle phi of each root on the unit circle of z^4 sum coeffs[k] z^(k-4).

    On the circle the polynomial is the real trigonometric polynomial
    T(phi) = a0 + sum_k (a_k cos k phi + b_k sin k phi), k = 1 ... 4, and
    its real roots are found by subdividing [0, 2 pi) rather than with a
    companion-matrix eigensolver, whose LAPACK code adds about a megabyte
    to the resident set of every process that solves a game.  The one
    certificate is Taylor exclusion: with M = sum_k k^2 hypot(a_k, b_k),
    a bound on |T''|, the cell of half-width h around phi holds no root
    when |T(phi)| > |T'(phi)| h + M h^2 / 2.  Every cell not excluded is
    split until h < _MULTIPLE_ROOT_RAD.  A surviving cell on which
    |T'(phi)| > M h is monotone, and Newton steps on T from its centre
    finish the root it lies next to; several neighbouring cells may
    finish on the same root.  Any other surviving cell holds a multiple
    (tangent) root, reported at its centre.  A polynomial that vanishes
    identically (K_A parallel to e for every phi) has no isolated roots
    and yields none.
    """
    if max(map(abs, coeffs)) <= _ZERO_POLYNOMIAL:
        return np.empty(0)
    a0 = coeffs[4].real
    a = np.array([2.0 * c.real for c in coeffs[5:]])
    b = np.array([-2.0 * c.imag for c in coeffs[5:]])
    bound = float(_HARMONICS ** 2 @ np.hypot(a, b))
    half = math.pi / _ROOT_CELLS
    mid = (2.0 * np.arange(_ROOT_CELLS) + 1.0) * half
    while True:
        t, dt = _values(_tables(mid), a0, a, b)
        kept = np.abs(t) <= np.abs(dt) * half + 0.5 * bound * half * half
        mid, dt = mid[kept], dt[kept]
        if half < _MULTIPLE_ROOT_RAD:
            break
        mid = (mid[:, None] + _CHILDREN * half).ravel()
        half /= _ROOT_SPLIT
    monotone = np.abs(dt) > bound * half
    roots = mid[monotone]
    for _ in range(_ROOT_NEWTON_STEPS):
        t, dt = _values(_tables(roots), a0, a, b)
        roots = roots - t / dt
    return np.concatenate((roots, mid[~monotone]))


def fixed_points(params, tol_deg: float) -> np.ndarray:
    """Alice's angle at every fixed point of the composed best-response map.

    The unit-circle roots of the fixed-point polynomial whose residual
    is within _RAW_ROOT_DEG of zero are polished on the unsquared
    residual and kept where that is within tol_deg of zero.  This drops
    the roots of the other square-root branch, those where K_A points
    against e (residual -90) and the zeros of K_B (residual NaN).
    """
    coeffs = polynomial(harmonic_map(params, ALICE), harmonic_map(params, BOB))
    alphas = wrap_half_turn(0.5 * np.degrees(circle_angles(coeffs)))
    if len(alphas):
        alphas = alphas[np.abs(compose(alphas, params)[1]) < _RAW_ROOT_DEG]
    if len(alphas):
        alphas, residuals = polish(alphas, params)
        alphas = alphas[np.abs(residuals) <= tol_deg]
    return alphas


def unexplained_crossings(alphas: np.ndarray, residuals: np.ndarray, roots: np.ndarray,
                          params, tol_deg: float) -> np.ndarray:
    """Scan brackets with a sign change that no enumerated root lies in.

    A bracket is a zero sample, or a sign change between neighbouring
    samples whose residual moves by less than 90 degrees (larger moves
    are the wraps of the discontinuous composed map).  Each unexplained
    bracket yields its interpolated crossing, Newton-polished when that
    stays inside the bracket.
    """
    step = alphas[1] - alphas[0]
    r_next = np.append(residuals[1:], residuals[0])
    bracket = (residuals == 0.0) | ((residuals * r_next < 0.0)
                                    & (np.abs(r_next - residuals) < 90.0))
    if not bracket.any():
        return np.empty(0)
    lo, r_lo, r_hi = alphas[bracket], residuals[bracket], r_next[bracket]
    mid = lo + step / 2.0
    offsets = signed_delta(roots[None, :], mid[:, None])
    open_ = ~np.any(np.abs(offsets) <= step / 2.0 + tol_deg, axis=1)
    if not open_.any():
        return np.empty(0)
    lo, r_lo, r_hi, mid = lo[open_], r_lo[open_], r_hi[open_], mid[open_]
    with np.errstate(invalid="ignore"):
        guess = wrap_half_turn(lo + step * np.where(r_lo == 0.0, 0.0, r_lo / (r_lo - r_hi)))
    polished, _ = polish(guess, params)
    inside = np.abs(signed_delta(polished, mid)) <= step / 2.0 + tol_deg
    return np.where(inside, polished, guess)
