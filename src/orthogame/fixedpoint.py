"""Best responses, the fixed points of their composition, and the one
search that equilibrium.find_equilibria calls (solve).

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
stage of a solve reads it, so no stage rebuilds a harmonic or rescans
the stakes.

solve first sorts the game by the disk certificate (_certificate), two
2x2 solves from the kernel: the mixed game is bilinear on two unit disks,
and c = M^-1 a and d = M^-T b of its coefficients place its saddle.  An
absent game, both inside the disk by a rounding margin, has no pure
equilibrium, and nothing more is computed.  An off-boundary game, both
off the circle by the margin, has no indifference anywhere on it and
exactly one pure equilibrium, whose alpha is the unique maximum on the
circle of Alice's security level g(alpha) = K0 + Re(kappa0_A conj(e)) -
|K_B(e)|, Alice's payoff against Bob's best reply.  Every other game is
on the boundary, the only place where equilibria can form a discrete
set.

The maximum of g is a critical point, and the critical points are
enumerated exactly.  Write z = e = exp(i phi), phi = 2a, for Alice's
angle a.  g' has the sign of h = Im(K_A conj(e)), with K_A Alice's
harmonic against Bob's answer w, so g is critical where K_A is parallel
to e: a fixed point of the composed map, where K_A points along e
(Re(K_A conj(e)) > 0), or a root of the other square-root branch, where
Alice answers -w.  Multiplied by |K_B| the condition Im(K_A conj(e)) =
0 reads Im(kappa0_A conj(e)) |K_B| = Im(L conj(e)), L = mu_A K_B + nu_A
conj(K_B).  Squared, it is T(phi) = 0, where T is a trigonometric
polynomial of degree 4 in phi, since K_B is one of degree 1 (spectral
rootfinding for Fourier series: J. P. Boyd, J. Eng. Math. 56 (2006)
203-219).  So T's values at nine phases determine it (polynomial).  The
half-angle substitution z = (1 + it)/(1 - it), t = tan(phi/2), makes
(1 + t^2)^4 T(phi) a real polynomial in t whose real roots are the roots
on the circle, so one real eigenvalue problem, that of its companion
matrix, finds them all, and the zeros of K_B besides.  g is evaluated
at every distinct eigenvalue angle, real or not: rounding can push those
of a clustered root a hundredth off the real line, and a conjugate pair,
whose two angles agree to the bit, is one seed.  g has two local maxima
in most games, so no local ascent from an arbitrary start replaces the
roots.

The angles seed Newton's iteration on the unsquared residual, whose
slope has a closed form in the same harmonics, in descending order of g,
the next wherever a seed yields no row, except in a game with an
indifference row, which tries only the first (fixed_points).  The
iteration takes a step only where it strictly lowers |residual|, and
stops, unconverged, at the first step that does not: |residual| falls
strictly at every step taken, so the iteration ends.  Where K_A or K_B
nearly vanishes the residual sweeps most of a quarter turn within a
small fraction of a degree, and a full step from an eigenvalue's angle
can overshoot it, so the iteration stops short.  Where the iteration
does not converge, the first sign change of the residual uphill of the
seed, where g rises, is bisected down to neighbouring doubles, in every
class of game; where the iteration stopped plays no part.  The roots
bracket that change (_climb): every sign change of h is a root of T, so
between consecutive roots the residual keeps its sign, and the climb
samples it once at the midpoint of each pair of consecutive root angles,
walking uphill from the seed, until a sample's sign differs from the
last one's.  That is at most one sample per root angle, and each seed
gets one bisection, of that one cell.  Where the eigenvalue angles
separate the true roots, so that no cell between consecutive midpoints
holds two of them, the cell holds exactly the first sign change uphill.
That change need not be a crossing.  Off the boundary the residual's
sign is that of h, which is continuous there, but h also changes sign
where K_A points against e, and there the residual wraps from +90 to -90
degrees; on the boundary the change can also be the edge of a flat
harmonic.  The bisection tells a wrap or an edge from a crossing by the
jump between its ends, and keeps no row, so where it lands on one that
seed yields none.  On the boundary the closed-form indifference rows
below join the row.  A row is kept for what it is, never for the size of
its residual, so no tolerance enters the search: the caller's refine
tolerance only merges duplicates.  No residual is scanned: a scan of it
is the tests' oracle for the enumeration.

Everything after the eigenvalue call is scalar arithmetic, one angle at
a time in plain Python floats and complex numbers, which on a handful
of angles costs less than numpy calls do: the values of g, the Newton
iteration and the bisection, and the finished row, whose residual and
Bob's harmonic come from one more evaluation of the same step (_step,
the one implementation of the residual), and the indifference rows
below.  A scalar best reply (_reply) gives the row's beta and each
indifference row's reply; best_responses is its array form, which
reaction curves and the public best-response functions evaluate on
grids.  Every angle a caller gives enters the trigonometry through
phase, which reduces it modulo 180 first.

polynomial samples T at the nine phases exp(2 pi i j/9) straight from
the harmonics, and one constant 9x9 matrix takes the samples to the
coefficients of (1 + t^2)^4 T.  Where g has two maxima within a few
parts in 1e9 of each other, the last bits of those coefficients and of
the eigenvalues decide which root is the first seed.  That decides
nothing in a game without an indifference row, in whichever class the
certificate puts it, since a seed that yields no row is followed by the
next: such a game's equilibria are fixed points of the composed map at
the maximum of g.  A game with an indifference row tries only the first
seed, whose row can still hang on those bits: its equilibria lie among
the indifference rows, which have closed forms, and every later seed
would cost a climb that yields nothing.  The eigenvalues come from
LAPACK's geev through numpy's gufunc (numpy.linalg._umath_linalg.eigvals),
which np.linalg.eigvals wraps; circle_angles keeps the wrapper's two
guarantees by hand, and the tests hold its eigenvalues to the wrapper's
bit for bit.  Those bits depend on the OpenBLAS core type
(OPENBLAS_CORETYPE): on the sweep recipe's first 1,000 games and 4,000
heterogeneous-stake draws, Prescott's kernel changes the angles of
3,732 games and the reports of 1,135, alpha by at most 9e-12 degrees,
and no verified count.

Where a player's harmonic vanishes that player is indifferent and the
composed map is undefined.  Such a zero, and the opponent angles that
it pairs with in an equilibrium, each solve one linear equation in
(cos 2y, sin 2y), so they have closed forms too, and the alphas at
which the map is undefined mark the degeneracy regions by cell index.
A candidate's verification needs each player's largest gain from a
deviation, which is closed-form in the same harmonics (gains).
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

import numpy as np
from numpy.linalg._umath_linalg import eigvals as _eigvals

from .angles import signed_delta, wrap_half_turn, wrap_input

# a harmonic whose squared amplitude is at most this times the square of
# the largest stake is treated as flat
DEGENERACY_SQ = 1e-18

ALICE, BOB = "alice", "bob"
# relative size below which the polynomial counts as identically zero
_ZERO_POLYNOMIAL = 1e-12
# the last step is applied before the iteration stops, since Bob's best
# response can be thousands of times steeper than the residual
_NEWTON_TOL_DEG = 1e-12
# first-order rounding bound of _certificate, in units of the largest
# stake: 256 unit roundoffs
_ROUNDING = 2.0 ** -45
# the classes of _certificate
ABSENT, OFF_BOUNDARY, BOUNDARY = "absent", "off-boundary", "boundary"
# column k holds the coefficients of t^8 ... t^0 of (1 + it)^k (1 - it)^(8 - k),
# which is (1 + t^2)^4 z^(k - 4) at z = (1 + it)/(1 - it)
_HALF_ANGLE = np.array([[(1, 1j, -1, -1j)[j % 4]
                         * sum((-1) ** (j - a) * math.comb(k, a) * math.comb(8 - k, j - a)
                               for a in range(j + 1))
                         for k in range(9)] for j in range(8, -1, -1)])
# the nine phases exp(2 pi i j/9) as (cos, sin), and the matrix that takes
# the values there of a degree-4 trigonometric polynomial T to the
# coefficients of t^8 ... t^0 of (1 + t^2)^4 T: the inverse DFT gives T's
# coefficients of z^-4 ... z^4
_PHASES = [(math.cos(x), math.sin(x)) for x in (2.0 * math.pi * j / 9.0 for j in range(9))]
_SAMPLES_TO_Q = np.array([[sum(h * complex(*e) ** (4 - k) for k, h in enumerate(row)).real / 9.0
                           for e in _PHASES] for row in _HALF_ANGLE.tolist()])


class HarmonicKernel(NamedTuple):
    """One game's harmonics, built once per game.

    alice and bob are the players' harmonics (kappa0, m_1, m_2), as
    harmonic_kernel builds them; scale is the largest |stake| and radius,
    sqrt(DEGENERACY_SQ) * scale, the largest |K| that is flat.  Flatness
    is tested as |K| <= radius rather than on K1^2 + K2^2, so that no
    square overflows or underflows at extreme stakes.
    """

    alice: tuple[complex, complex, complex]
    bob: tuple[complex, complex, complex]
    scale: float
    radius: float


def harmonic_kernel(params) -> HarmonicKernel:
    """The kernel of a game; GameParams caches it as params.kernel.

    Each player's harmonic K = K1 + i K2 is kept as the complex
    coefficients (kappa0, m_1, m_2) of K = kappa0 + m_1 cos 2x + m_2 sin 2x
    in the opponent angle x.  With (p, q) the stakes the player meets on
    the axis diagonal, (r, s) those on the rotated one, n = exp(2i t_own)
    and o = exp(2i t_opp) for the two mixing angles, K = h/2 + g n/2,
    where h = p sin^2 x - q cos^2 x = (p - q)/2 - (p + q)/2 cos 2x and g =
    r sin^2(x - t_opp) - s cos^2(x - t_opp) = (r - s)/2 - (r + s)/2 (Re o
    cos 2x + Im o sin 2x).  Alice meets (a, c) and (b, d), Bob (c, a) and
    (d, b), and each mixing angle's phase is n for its owner and o for
    the opponent, so one formula gives both (_coefficients).

    Its numbers are Python complex and float whatever the stakes' type:
    each stake enters as a Python float, so np.float64 and int stakes
    solve bit for bit as float ones do.  The one formula is written out,
    one Python operation at a time in the order of the formulas above.
    """
    a, b, c, d = params.stakes
    scale = float(max(abs(a), abs(b), abs(c), abs(d)))
    # quarter each stake before adding, exactly, so that no sum of two
    # finite stakes overflows
    a, b, c, d = float(a) / 4.0, float(b) / 4.0, float(c) / 4.0, float(d) / 4.0
    # a mixing angle matters modulo 180; phase reduces it first
    n_a, n_b = phase(params.theta_a_deg), phase(params.theta_b_deg)
    return HarmonicKernel(_coefficients(a, c, b, d, n_a, n_b), _coefficients(c, a, d, b, n_b, n_a),
                          scale, math.sqrt(DEGENERACY_SQ) * scale)


def _coefficients(p, q, r, s, own, opp) -> tuple[complex, complex, complex]:
    """A player's (kappa0, m_1, m_2) from the quartered stakes (p, q) on
    the axis diagonal and (r, s) on the rotated one, and the phases own
    and opp of the player's and the opponent's mixing angles."""
    return p - q + (r - s) * own, -(p + q) - (r + s) * opp.real * own, -(r + s) * opp.imag * own


def phase(angle_deg):
    """e = exp(2ix) of an angle x in degrees, or of each angle of an array,
    with x reduced first (wrap_input).  A scalar gives a Python complex
    from cmath, which agrees with numpy bit for bit and, on the one angle
    at a time that the solver and its verdict pass, costs less."""
    x = wrap_input(angle_deg)
    if isinstance(x, float):
        return cmath.exp(2j * math.radians(x))
    return np.exp((1j * math.pi / 90.0) * x)


def _harmonic(e, kappa0, m_1, m_2):
    """K = kappa0 + m_1 Re e + m_2 Im e against each opponent phase
    e = exp(2ix), which is kappa0 + mu e + nu conj(e) with
    mu = (m_1 - i m_2)/2 and nu = (m_1 + i m_2)/2; broadcasts over arrays.
    """
    return kappa0 + m_1 * e.real + m_2 * e.imag


def _answer(peak, player: str):
    """The best-response angle in [0, 180) at the harmonic's peak 2t = peak;
    Bob minimises, so his answer lies a quarter turn from it."""
    return wrap_half_turn(peak * (90.0 / math.pi) + (0.0 if player == ALICE else 90.0))


def best_responses(opponent_deg, params, player: str):
    """A player's best-response angles in [0, 180) against each opponent
    angle, NaN where the harmonic is flat; broadcasts over angle arrays.

    The harmonic K1 cos 2t + K2 sin 2t = Re(K conj(exp(2it))) peaks at
    2t = arg K.
    """
    kernel = params.kernel
    k = _harmonic(phase(opponent_deg), *(kernel.alice if player == ALICE else kernel.bob))
    return _answer(np.where(abs(k) <= kernel.radius, np.nan, np.arctan2(k.imag, k.real)), player)


def _reply(k: complex, player: str, kernel: HarmonicKernel) -> float:
    """The player's best-response angle to the harmonic k, one scalar at a
    time, as best_responses gives it for arrays; NaN where k is flat."""
    if abs(k) <= kernel.radius:
        return math.nan
    return _answer(math.atan2(k.imag, k.real), player)


def gains(alpha: float, beta: float, params) -> tuple[float, float]:
    """Alice's and Bob's largest gains from a unilateral deviation at the
    profile (alpha, beta), in closed form.

    Against beta Alice's payoff is K0 + Re(K_A conj(e(t))) in her own angle
    t, where e(t) = exp(2it), so her largest gain is |K_A| -
    Re(K_A conj(e(alpha))); Bob minimises, and his is Re(K_B conj(e(beta)))
    + |K_B|.  Neither needs K0 or a payoff value.
    """
    kernel = params.kernel
    e_a, e_b = phase(alpha), phase(beta)
    k_a, k_b = _harmonic(e_b, *kernel.alice), _harmonic(e_a, *kernel.bob)
    return abs(k_a) - (k_a * e_a.conjugate()).real, (k_b * e_b.conjugate()).real + abs(k_b)


def _step(alpha: float, kernel: HarmonicKernel) -> tuple[float, float, complex]:
    """The residual r = arg(K_A conj(e))/2 of the composed map at alpha,
    in [-90, 90], the Newton step r / r', in degrees, and Bob's harmonic
    K_B there; r and the step are NaN where K_B or K_A is flat, and the
    step is NaN where the slope r' is 0.

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
    if size_b <= kernel.radius:
        return math.nan, math.nan, k_b
    w = -k_b / size_b
    k_a = _harmonic(w, *kernel.alice)
    if abs(k_a) <= kernel.radius:
        return math.nan, math.nan, k_b
    dw = 1j * w * (2.0 * (m2_b * e.real - m1_b * e.imag) / k_b).imag
    slope = ((m1_a * dw.real + m2_a * dw.imag) / k_a).imag / 2.0 - 1.0
    along = k_a * e.conjugate()
    residual = math.degrees(math.atan2(along.imag, along.real)) / 2.0
    return residual, residual / slope if slope else math.nan, k_b


def _newton(alpha: float, residual: float, step: float,
            kernel: HarmonicKernel) -> tuple[float, bool]:
    """Newton's iteration on the residual from alpha, given the residual
    and the first step there from _step: the angle it ends at, not
    wrapped, and whether it converged.

    The iteration converges once a step of at most _NEWTON_TOL_DEG is due,
    which it applies unevaluated.  A larger step is taken only where it
    strictly lowers |residual|, and the iteration stops short at the first
    step that does not, or where the step is undefined.  So |residual|
    falls strictly at every step taken, and the iteration ends.
    """
    while abs(step) > _NEWTON_TOL_DEG:
        trial, trial_step, _ = _step(alpha - step, kernel)
        if not abs(trial) < abs(residual):
            return alpha, False
        alpha, residual, step = alpha - step, trial, trial_step
    return (alpha, False) if math.isnan(step) else (alpha - step, True)


def _climb(alpha: float, residual: float, angles: list[float],
           kernel: HarmonicKernel) -> tuple[float, bool]:
    """The first sign change of the residual uphill of alpha, given the
    residual there and the angles phi of circle_angles, bisected down to
    neighbouring doubles: the end with the smaller |residual|, and
    whether the ends' residuals differ by less than 90 degrees, which
    makes the change a crossing of the composed map rather than a wrap or
    the edge of a flat harmonic, where the residual is NaN; (NaN, False)
    if no sample within the half turn changes sign.

    Uphill is the direction in which Alice's security level g rises: the
    residual has the sign of h = Im(K_A conj(e)), which has the sign of g',
    wherever both harmonics are far from flat, so a change from + to - is
    a maximum of g, and off the boundary (_certificate) no harmonic comes
    near flat anywhere on the circle.  Even there the change need not be a
    crossing: h also changes sign where K_A points against e, and there
    the residual wraps from +90 to -90 degrees.  Every sign change of h is
    a root of T, so the residual keeps its sign between consecutive roots.
    The walk samples it once at the midpoint of each pair of consecutive
    root angles, alpha = phi/2 on the half turn, in order uphill from
    alpha, until a sample's sign differs from the last one's, and bisects
    that one cell: at most one sample per root angle and one bisection.
    Where the angles separate the true roots, so that no cell between
    consecutive midpoints holds two of them, that cell holds exactly the
    first sign change uphill.  fixed_points starts the walk at a seed,
    itself a root angle, so that the first cell holds the seed's own root.
    """
    roots = sorted(wrap_half_turn(0.5 * math.degrees(phi)) for phi in angles)
    lo, r_lo, uphill = alpha, residual, math.copysign(1.0, residual)
    for offset in sorted((uphill * ((a + b) / 2.0 - alpha)) % 180.0
                         for a, b in zip(roots, roots[1:] + [roots[0] + 180.0])):
        if not (r_hi := _step(hi := alpha + uphill * offset, kernel)[0]) * r_lo > 0.0:
            break
        lo, r_lo = hi, r_hi
    else:
        return math.nan, False
    while lo != (mid := (lo + hi) / 2.0) != hi:
        r_mid = _step(mid, kernel)[0]
        if r_mid * r_lo > 0.0:
            lo, r_lo = mid, r_mid
        else:
            hi, r_hi = mid, r_mid
    return hi if abs(r_hi) < abs(r_lo) else lo, abs(r_hi - r_lo) < 90.0


def polynomial(alice, bob) -> list[float]:
    """Coefficients of t^8 ... t^0 of Q(t) = (1 + t^2)^4 T(phi), t =
    tan(phi/2), where T(phi) = Im(kappa0_A conj(e))^2 |K_B|^2 - Im(L
    conj(e))^2 at e = exp(i phi) and L = m_1 Re K_B + m_2 Im K_B, which is
    mu_A K_B + nu_A conj(K_B).

    alice and bob are the harmonics (kappa0, m_1, m_2) of harmonic_kernel,
    scaled first so that the largest |coefficient| of the two is 1.  T is
    a degree-4 trigonometric polynomial, so its values at the nine phases
    exp(2 pi i j/9) determine it: Q is the constant matrix _SAMPLES_TO_Q
    times those values.
    """
    scale = max(map(abs, (*alice, *bob)))
    if scale == 0.0:
        return [0.0] * 9
    k0r, k0i, m1r, m1i, m2r, m2i, b0r, b0i, b1r, b1i, b2r, b2i = (
        x / scale for c in (*alice, *bob) for x in (c.real, c.imag))
    samples = []
    for c, s in _PHASES:
        # K_B = kr + i ki, Im(kappa0_A conj(e)) and Im(L conj(e)) at e = c + is
        kr, ki = b0r + b1r * c + b2r * s, b0i + b1i * c + b2i * s
        im_k0 = k0i * c - k0r * s
        im_l = (m1i * kr + m2i * ki) * c - (m1r * kr + m2r * ki) * s
        samples.append(im_k0 * im_k0 * (kr * kr + ki * ki) - im_l * im_l)
    return (_SAMPLES_TO_Q @ samples).tolist()


def circle_angles(q) -> list[float]:
    """Angle phi of each root of T(phi), a polynomial of degree 4 in
    cos phi and sin phi, given the coefficients q of t^8 ... t^0 of Q(t)
    = (1 + t^2)^4 T(phi), t = tan(phi/2), as polynomial returns them: a
    list of distinct floats, one per root t of Q whose angle no earlier
    root has, where a real t is a root on the circle and a complex one a
    root off it.

    The roots t = x + iy of Q are the eigenvalues of its companion
    matrix, whose first row is -q[k]/q_lead and whose subdiagonal is ones.
    A root's angle is arg z = atan2(x, 1 - y) + atan2(x, 1 + y), z =
    exp(i phi) = (1 + it)/(1 - it), finite for every t and the same to
    the bit for both roots of a conjugate pair; each vanishing leading
    coefficient of Q is a root at t = infinity, phi = pi.  Such exact
    repeats are listed once, so each distinct angle seeds the search once
    and no cell between consecutive angles has zero width (_climb).  The
    angles are unfinished: fixed_points finishes them on the unsquared
    residual.  A multiple root keeps one angle per eigenvalue that
    rounding splits from the others, all close together.  A polynomial
    that vanishes identically (K_A parallel to e for every phi) has no
    isolated roots and yields none.

    The eigenvalues come from LAPACK's geev through numpy's gufunc, the
    call np.linalg.eigvals makes, bit for bit as that wrapper returns
    them (cast to complex), without its cost: the direct call raised the
    sweep benchmark's operations per second by about a fifth, well past
    its run-to-run spread.  The wrapper's two
    guarantees are kept by hand: a companion row that is not finite, as
    where the leading coefficient is subnormal next to the others,
    raises np.linalg.LinAlgError before the call, and so does an
    eigenvalue that is NaN, as where geev did not converge, rather than
    seed the search.  A geev that does not converge also sets the
    floating-point invalid flag, so numpy warns before the raise.  The
    bits depend on the OpenBLAS core type (module docstring).
    """
    if max(map(abs, q)) <= _ZERO_POLYNOMIAL:
        return []
    lead = next((k for k, x in enumerate(q) if x), len(q))
    angles = [math.pi] * lead
    if lead < len(q) - 1:
        row = [-x / q[lead] for x in q[lead + 1:]]
        if not all(map(math.isfinite, row)):
            raise np.linalg.LinAlgError("Array must not contain infs or NaNs")
        companion = np.eye(len(row), k=-1)
        companion[0] = row
        roots = [math.atan2(t.real, 1.0 - t.imag) + math.atan2(t.real, 1.0 + t.imag)
                 for t in _eigvals(companion, signature="d->D").tolist()]
        if math.isnan(sum(roots)):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        angles += roots
    return list(dict.fromkeys(angles))


def _certificate(kernel: HarmonicKernel) -> str:
    """The game's class under the disk certificate: ABSENT where it proves
    that there is no pure equilibrium, OFF_BOUNDARY where it proves that
    there is exactly one and that neither player is ever indifferent, and
    BOUNDARY otherwise.

    With p = e(alpha) and q = e(beta) as vectors, the payoff is f0 + a.p +
    b.q + p.Mq, where M = [[Re m_1, Re m_2], [Im m_1, Im m_2]] and a =
    (Re kappa0, Im kappa0) come from Alice's harmonic, which is the vector
    a + Mq, and b from Bob's, which is b + M^T p.  A mixed strategy acts
    only through its mean of p or q, a point of the unit disk, so the
    mixed game is bilinear on two disks and has a saddle point (von
    Neumann 1928; Sion, Pacific J. Math. 8 (1958) 171-176), and a pure
    equilibrium is one of its saddles, since a payoff linear in a
    player's own mean peaks on the circle.  Zero-sum saddles are
    interchangeable (Osborne and Rubinstein 1994, Prop. 22.2).

    As adj(M)(a + Mq) = adj(M) a + det(M) q and |adj(M)|_2 = |M|_2 <=
    |M|_F, Alice's harmonic obeys |a + Mq| |M|_F >= ||adj(M) a| - |det M||
    at every unit q, whatever M, and Bob's likewise with adj(M)^T b.  The
    test compares both gaps ||adj(M) a| - |det M|| and ||adj(M)^T b| -
    |det M|| with the margin |M|_F (r + rho), where r = sqrt(DEGENERACY_SQ)
    and everything is divided by kernel.scale S first, much as polynomial
    scales its coefficients, so that no product overflows or underflows.
    Where both gaps exceed it, no harmonic of the game comes within the
    flatness radius anywhere on the circle, by rho to spare for rounding:
    neither player is ever indifferent, so there is no indifference row
    and no degeneracy region, and there is at most one pure equilibrium.
    For invertible M, with c = M^-1 a and d = M^-T b, the gaps are
    |det M| ||c| - 1| and |det M| ||d| - 1|.

    ABSENT: both gaps exceed the margin with |c| < 1 and |d| < 1, and
    (-d, -c) is an interior saddle, at which each player's harmonic
    vanishes.  A pure equilibrium (p, q) would make (p, -c) a saddle too,
    at which Bob minimises over the disk at the interior point -c: b +
    M^T p = 0, so p = -d, which is not on the circle.  There is no pure
    equilibrium.

    OFF_BOUNDARY: both gaps exceed the margin, and one of |adj(M) a| and
    |adj(M)^T b| exceeds |det M|, say Alice's.  Then Alice's harmonic
    vanishes nowhere on the whole disk, so at a saddle (p, q) Alice's best
    reply p to the mean q lies on the circle, and Bob's unique best reply
    to p is pure, which makes a pure equilibrium; Bob's case is the mirror
    image.  It is the only one, and p is a maximin strategy: alpha* is the
    unique global maximum on the circle of Alice's security level
    g(alpha), the least payoff over beta.

    The all-zero game and a coefficient that is not finite are BOUNDARY,
    and singular M (det 0) is never ABSENT.

    rho bounds rounding to first order, in units of S, with u = 2^-53.
    Each coefficient of harmonic_kernel is within 21u of its exact value:
    the phases n and o carry at most 14u, mostly from 2t in radians, each
    multiplies at most 1/2, and the quartered sums, products and the
    division by S add a few u.  So |a| <= 1, |M|_F <= 1.12 and |b| <= 1,
    and each harmonic on the circle moves by at most (1 + sqrt 2) 21u,
    twice that for Bob's, whose block is taken as Alice's M^T.  Computing
    a gap G costs at most u(|M|_F^2 + 3 |M|_F max(|a|, |b|) + G), and as
    G <= |M|_F^2/2 + |M|_F max(|a|, |b|), at most 6u once divided by
    |M|_F; the solver's own evaluation of a harmonic costs at most 25u.
    These sum to under 140u; rho is 256u.
    """
    scale = kernel.scale
    if scale == 0.0:
        return BOUNDARY
    (a, m_1, m_2), b = [x / scale for x in kernel.alice], kernel.bob[0] / scale
    det = abs(m_1.real * m_2.imag - m_2.real * m_1.imag)
    adj_a = math.hypot(m_2.imag * a.real - m_2.real * a.imag,
                       m_1.real * a.imag - m_1.imag * a.real)
    adj_b = math.hypot(m_2.imag * b.real - m_1.imag * b.imag,
                       m_1.real * b.imag - m_2.real * b.real)
    margin = math.hypot(m_1.real, m_1.imag, m_2.real, m_2.imag) * (
        math.sqrt(DEGENERACY_SQ) + _ROUNDING)
    if not math.isfinite(det + adj_a + adj_b + margin):
        return BOUNDARY
    if adj_a < det - margin and adj_b < det - margin:
        return ABSENT
    if abs(adj_a - det) > margin and abs(adj_b - det) > margin:
        return OFF_BOUNDARY
    return BOUNDARY


def _security(phi: float, kernel: HarmonicKernel) -> float:
    """Alice's security level g at the phase angle phi = 2 alpha, in
    radians, less the payoff's constant: against Bob's best reply Alice's
    payoff is Re(kappa0_A conj(e)) - |K_B(e)| with e = exp(i phi)."""
    e = cmath.rect(1.0, phi)
    return (kernel.alice[0] * e.conjugate()).real - abs(_harmonic(e, *kernel.bob))


def fixed_points(params, indifferent: bool = False) -> list[tuple[float, float, float]]:
    """The (alpha, beta, residual) row of the fixed point at the maximum
    of Alice's security level g, as a list of at most one row;
    indifferent is whether the game has an indifference row
    (indifference_points), as solve tells it.

    The angles of circle_angles, roots of the polynomial of the game's
    kernel on the unit circle or off it, are seeds in descending order of
    g (_security).  A seed's residual and first step start Newton's
    iteration (_newton), whose end is the row where it converges.  Where
    it does not and the seed has a residual, the first sign change of the
    residual uphill of the seed, not of where the iteration stopped, is
    bracketed between the midpoints of the seeds' own angles and bisected
    (_climb), and a crossing it closes between neighbouring doubles is the
    row.  Neither row is held to a tolerance: at a crossing steeper than
    about 1e11 degrees per degree the nearest double can leave a residual
    of 1e-3 degrees.  The residual wraps where K_A points against e, and
    where the bisection closes such a wrap the seed yields no row.

    The seeds are tried in that order until one yields a row, so the
    answer does not hang on which of two near-equal maxima of g the
    rounding of the roots puts first.  A converged end or a closed
    crossing is a fixed point of the composed map, where each player plays
    the one best reply to the other: an equilibrium, up to rounding.  In a
    game without an indifference row no equilibrium has a flat harmonic,
    so there is at most one, since equilibria are interchangeable
    (_certificate) and a unique best reply admits no second partner;
    whichever seed yields a row yields that one.  Off the boundary the
    disk certificate proves that it exists.  Where indifferent is true
    only the first seed runs: the equilibria lie among the indifference
    rows, and each later seed would cost a climb that yields nothing;
    trying every seed until one yields a row changes no report of the
    test families but multiplies their _step calls about sixteenfold.
    The first still runs, since an indifference row can be an
    epsilon-equilibrium beside an exact fixed point, as in draw 677 of the
    k = 4 heterogeneous-stake family.  Each seed costs at most one Newton
    iteration, which ends since |residual| falls strictly at every step,
    and one climb, at most one sample per root angle and one bisection.
    Only a row that is kept costs one more _step, at its angle, for its
    residual and Bob's harmonic, and beta is Bob's _reply to that
    harmonic.
    """
    kernel = params.kernel
    seeds = sorted(circle_angles(polynomial(kernel.alice, kernel.bob)),
                   key=lambda phi: _security(phi, kernel), reverse=True)
    for phi in seeds[:1] if indifferent else seeds:
        seed = wrap_half_turn(0.5 * math.degrees(phi))
        residual, step, _ = _step(seed, kernel)
        end, found = _newton(seed, residual, step, kernel)
        if not (found or math.isnan(residual)):
            end, found = _climb(seed, residual, seeds, kernel)
        if found:
            alpha = wrap_half_turn(end)
            residual, _, k_b = _step(alpha, kernel)
            return [(alpha, _reply(k_b, BOB, kernel), residual)]
    return []


def _harmonic_angles(u1: float, u2: float, k: float) -> list[float]:
    """The at most two angles y in [0, 180) with u1 cos 2y + u2 sin 2y = k."""
    amplitude = math.hypot(u1, u2)
    if amplitude == 0.0 or abs(k) > amplitude:
        return []
    peak, half = math.atan2(u2, u1), math.acos(k / amplitude)
    return [wrap_half_turn(math.degrees(peak + sign * half) / 2.0) for sign in (-1.0, 1.0)]


def indifference_points(params) -> tuple[list[tuple[float, float, float]], list[float]]:
    """(alpha, beta, residual) rows of the equilibria at which one player
    is indifferent, that is, where the composed map is undefined, and the
    alphas at which it is undefined: those at which Bob is indifferent,
    and those Bob answers with a beta at which Alice is.

    A player's harmonic K = kappa0 + m_1 cos 2x + m_2 sin 2x vanishes only
    where its real or imaginary part does, at one of at most two
    closed-form opponent angles x0, taken from the part whose m-terms
    are larger and kept where the flatness test of _reply holds there.
    The player's partner angles y are those against which the
    opponent's harmonic K' is parallel to e(x0): Im(conj(K') e(x0)) = 0
    is one linear equation in (cos 2y, sin 2y).  At one sign of K' the
    opponent's best reply (_reply) is x0, at the other x0 + 90.  The
    residual is the opponent's best-reply defect from x0, 0 where that
    reply is flat too, so up to rounding its size is 0 or 90 degrees, and
    the rows below 45 are kept.  The alphas of the rows kept where Alice
    is indifferent are the alphas Bob answers with x0, but not those
    where Bob's reply is flat: such an alpha is one of Bob's own zeros,
    listed already, with other rounding, and listing it twice would split
    one indifference into two cells of a narrow enough width.
    """
    kernel = params.kernel
    rows, undefined = [], []
    for player, opponent, own, other in ((BOB, ALICE, kernel.bob, kernel.alice),
                                         (ALICE, BOB, kernel.alice, kernel.bob)):
        parts = ([c.real for c in own], [c.imag for c in own])
        k, u1, u2 = max(parts, key=lambda part: math.hypot(part[1], part[2]))
        for x0 in _harmonic_angles(u1, u2, -k):
            e = phase(x0)
            if not abs(_harmonic(e, *own)) <= kernel.radius:
                continue
            k, u1, u2 = ((c.conjugate() * e).imag for c in other)
            answered = []
            for y in _harmonic_angles(u1, u2, -k):
                reply = _reply(_harmonic(phase(y), *other), opponent, kernel)
                residual = 0.0 if math.isnan(reply) else signed_delta(reply, x0)
                if abs(residual) < 45.0:
                    rows.append((x0, y, residual) if player == BOB else (y, x0, residual))
                    if not math.isnan(reply):
                        answered.append(y)
            undefined.extend([x0] if player == BOB else answered)
    return rows, undefined


def _degeneracy_regions(undefined: list[float], step_deg: float,
                        kernel: HarmonicKernel) -> tuple[tuple[float, float], ...]:
    """The cells [k step, (k+1) step], k < ceil(180/step), that hold an
    alpha in undefined, where the composed map is undefined, merged where
    they touch; the last ends at 180.

    An alpha on its nearest grid angle up to rounding, where the map is
    undefined too, marks that angle's cell, any other the largest k with
    k step <= alpha, so the cost does not depend on step; a step below
    about 1e-306, where 180/step is not finite, raises ValueError.  Where
    a player's harmonic K = kappa0 + mu e + nu conj(e) is flat at every
    angle, as when every stake is 0, the region is the whole half turn:
    mu e + nu conj(e) traces an ellipse of semi-major axis |mu| + |nu|,
    so |K| <= |kappa0| + |mu| + |nu| there.
    """
    if any(abs(k0) + (abs(m_1 - 1j * m_2) + abs(m_1 + 1j * m_2)) / 2.0 <= kernel.radius
           for k0, m_1, m_2 in (kernel.alice, kernel.bob)):
        return ((0.0, 180.0),)
    if not undefined:
        return ()
    if not math.isfinite(180.0 / step_deg):
        raise ValueError(f"region cell width {step_deg!r} leaves too many cells to count")
    count, cells = math.ceil(180.0 / step_deg), set()
    for alpha in undefined:
        k = round(alpha / step_deg) % count
        if not math.isnan(_step(k * step_deg, kernel)[0]):
            k = math.floor(alpha / step_deg)
            k += ((k + 1) * step_deg <= alpha) - (k * step_deg > alpha)
        cells.add(min(k, count - 1))
    starts = sorted(k for k in cells if k - 1 not in cells)
    ends = sorted(k + 1 for k in cells if k + 1 not in cells)
    return tuple((a * step_deg, b * step_deg if b < count else 180.0) for a, b in zip(starts, ends))


def solve(params, step_deg: float) -> tuple[list[tuple[float, float, float]],
                                           tuple[tuple[float, float], ...]]:
    """A game's candidate rows (alpha, beta, residual), that of
    fixed_points and then those of indifference_points, and its
    degeneracy regions: the cells of width step_deg that hold an alpha at
    which the composed map is undefined (_degeneracy_regions).

    The disk certificate (_certificate) decides what is computed, not
    what is found: nothing it skips could find anything, and the seeds
    fixed_points tries depend only on whether the game has an
    indifference row.  An ABSENT game returns ([], ())
    at once, with no candidate, not even an unverified near fixed point.
    In an ABSENT or OFF_BOUNDARY game |K| stays above kernel.radius, by
    the certificate's rounding margin, at every angle of the circle for
    both players.  indifference_points keeps only the zeros x0 at which a
    harmonic is flat, so it would find no row and no undefined alpha; and
    the whole-half-turn test of _degeneracy_regions, |kappa0| + |mu| + |nu|
    <= radius, cannot hold either, since that sum is at least every |K| on
    the circle.  So an OFF_BOUNDARY game gets fixed_points' one row and no
    region, as it would with the certificate bypassed, and only a
    BOUNDARY game, where equilibria can form a discrete set, gets the
    indifference rows and the regions as well; the rows come before
    fixed_points runs, since they decide how many seeds it tries.  The
    OFF_BOUNDARY skip is kept for its cost: indifference_points alone is
    about an eighth of an off-boundary find_equilibria, and more than half
    of the sweep benchmark's games are off the boundary, the rest absent.
    """
    kernel = params.kernel
    shape = _certificate(kernel)
    if shape == ABSENT:
        return [], ()
    if shape == OFF_BOUNDARY:
        return fixed_points(params), ()
    indifferent, undefined = indifference_points(params)
    return (fixed_points(params, bool(indifferent)) + indifferent,
            _degeneracy_regions(undefined, step_deg, kernel))
