"""Best responses, the fixed points of their composition, and the one
search that equilibrium.find_equilibria calls (solve).

For a fixed opponent angle x a player's payoff is K0 + Re(K conj(exp(2it)))
in the player's own angle t: a single harmonic whose complex amplitude K =
K1 + i K2 = kappa0 + mu e + nu conj(e) is affine in the opponent's phase e
= exp(2ix) (harmonic_kernel builds both players' once per game).  The
payoff peaks where exp(2it) points along K, so each best response has a
closed form, and the composed map needs no angle between the two: Bob's
answer to Alice's phase e is the unit vector w = -K_B/|K_B|, Alice's
harmonic against it is K_A = kappa0_A + mu_A w + nu_A conj(w), and the
fixed-point residual is arg(K_A conj(e))/2.

solve first sorts the game by the disk certificate (_certificate): an
absent game has no pure equilibrium, an off-boundary game exactly one, at
the unique maximum on the circle of Alice's security level g(alpha) = K0 +
Re(kappa0_A conj(e)) - |K_B(e)|, her payoff against Bob's best reply, and
only a boundary game can have a discrete set of equilibria.

The maximum of g is a critical point, and the critical points are
enumerated exactly.  Write z = e = exp(i phi), phi = 2a, for Alice's angle
a.  g' has the sign of h = Im(K_A conj(e)), so g is critical where K_A is
parallel to e: a fixed point of the composed map, where K_A points along e
(Re(K_A conj(e)) > 0), or a root of the other square-root branch, where
Alice answers -w.  Multiplied by |K_B| the condition h = 0 reads
Im(kappa0_A conj(e)) |K_B| = Im(L conj(e)), L = mu_A K_B + nu_A conj(K_B).
Squared, it is T(phi) = 0, where T is a trigonometric polynomial of degree
4 in phi, since K_B is one of degree 1 (spectral rootfinding for Fourier
series: J. P. Boyd, J. Eng. Math. 56 (2006) 203-219).  The half-angle
substitution z = (1 + it)/(1 - it), t = tan(phi/2), makes Q(t) = (1 +
t^2)^4 T(phi) a real polynomial in t whose real roots are the roots
on the circle (polynomial), so one real eigenvalue problem, that of its
companion matrix, finds them all, and the zeros of K_B besides
(circle_angles).  g can have two local maxima, so no local ascent from an
arbitrary start replaces the roots.

The root angles seed Newton's iteration on the unsquared residual in
descending order of g (fixed_points); where it does not converge a
bisection between consecutive roots finishes the seed (_climb).  A row is
kept for what it is, never for the size of its residual, so the caller's
refine tolerance only merges duplicates; a scan of the residual is the
tests' oracle.  Where a player's harmonic vanishes the composed map is
undefined; such zeros and their partner angles have closed forms
(indifference_points) and mark the degeneracy regions.  Each player's
largest gain from a deviation is closed-form too (gains).  After the
eigenvalue call everything is scalar arithmetic in Python floats and
complex numbers.

_harmonic and _best_value are the one form of their formulas, for a
scalar phase and for arrays alike.  On the search's hot path two
functions spell them out instead, with the same operations in the same
order, so as to pay for the arithmetic and not for the calls: _step
writes K_B and K_A, and _security Alice's security level g.
test_scalar_spellings_are_the_array_forms_bit_for_bit pins each spelling
to its form, bit for bit.  polynomial evaluates K_B as well, scaled and
in real arithmetic, and is held to no bits of _harmonic's.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

import numpy as np
from numpy.linalg._umath_linalg import eigvals as _eigvals

from .angles import signed_delta, wrap_half_turn, wrap_input

# a harmonic whose squared amplitude is at most this times the square of
# the largest stake, both in stake units, is treated as flat
DEGENERACY_SQ = 1e-18

ALICE, BOB = "alice", "bob"
# relative size below which the polynomial counts as identically zero
_ZERO_POLYNOMIAL = 1e-12
# the last step is applied before the iteration stops, since Bob's best
# response can be far steeper than the residual
_NEWTON_TOL_DEG = 1e-12
# first-order rounding bound of _certificate, in the kernel's units of
# 2^k (harmonic_kernel): 256 unit roundoffs
_ROUNDING = 2.0 ** -45
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
# the companion matrix's subdiagonal of ones at each size n, copied per call
_SHIFTS = [np.eye(n, k=-1) for n in range(9)]


class HarmonicKernel(NamedTuple):
    """One game's harmonics (kappa0, m_1, m_2) per player, in units of
    2^exponent (harmonic_kernel); scale is the largest |stake| and radius
    the largest |K| that is flat, sqrt(DEGENERACY_SQ) * scale in those units."""

    alice: tuple[complex, complex, complex]
    bob: tuple[complex, complex, complex]
    scale: float
    exponent: int
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
    the opponent, so one formula gives both (_coefficients).  Each stake
    enters as a Python float, so np.float64 and int stakes solve bit for
    bit as float ones do.

    It alone chooses the unit 2^k, where frexp(max|stake|) = (max|stake| /
    2^k, k), and scales each stake by 2^(-2-k) exactly with ldexp, one at
    a time, as that one factor overflows at subnormal stakes.  Every coefficient is a
    few units at most, and scaling normal stakes by 2^j changes none.
    """
    stakes = params.stakes
    scale = float(max(map(abs, stakes)))
    mantissa, exponent = math.frexp(scale)
    a, b, c, d = map(math.ldexp, stakes, [-2 - exponent] * 4)
    n_a, n_b = phase(params.theta_a_deg), phase(params.theta_b_deg)
    return HarmonicKernel(_coefficients(a, c, b, d, n_a, n_b), _coefficients(c, a, d, b, n_b, n_a),
                          scale, exponent, math.sqrt(DEGENERACY_SQ) * mantissa)


def _coefficients(p, q, r, s, own, opp) -> tuple[complex, complex, complex]:
    """A player's (kappa0, m_1, m_2) from the scaled stakes (p, q) on the
    axis diagonal and (r, s) on the rotated one, and the phases own and
    opp of the player's and the opponent's mixing angles."""
    return p - q + (r - s) * own, -(p + q) - (r + s) * opp.real * own, -(r + s) * opp.imag * own


def phase(angle_deg):
    """e = exp(2ix) of an angle x in degrees, or of each angle of an array,
    with x reduced first (wrap_input).  A scalar gives a Python complex
    from cmath, which agrees with numpy bit for bit."""
    x = wrap_input(angle_deg)
    if isinstance(x, float):
        return cmath.exp(2j * math.radians(x))
    return np.exp((1j * math.pi / 90.0) * x)


def _harmonic(e, kappa0, m_1, m_2):
    """K = kappa0 + m_1 Re e + m_2 Im e against each opponent phase
    e = exp(2ix), which is kappa0 + mu e + nu conj(e) with
    mu = (m_1 - i m_2)/2 and nu = (m_1 + i m_2)/2; broadcasts over arrays."""
    return kappa0 + m_1 * e.real + m_2 * e.imag


def _answer(peak, player: str):
    """The best-response angle in [0, 180) at the harmonic's peak 2t = peak;
    Bob minimises, so his answer lies a quarter turn from it."""
    return wrap_half_turn(peak * (90.0 / math.pi) + (0.0 if player == ALICE else 90.0))


def best_responses(e, kernel: HarmonicKernel, player: str):
    """A player's best-response angles in [0, 180) against each opponent
    phase e = exp(2ix) (phase), NaN where the harmonic is flat;
    broadcasts over arrays."""
    k = _harmonic(e, *(kernel.alice if player == ALICE else kernel.bob))
    return _answer(np.where(abs(k) <= kernel.radius, np.nan, np.arctan2(k.imag, k.real)), player)


def _best_value(e, own, kappa0_opp: complex, player: str):
    """A player's payoff at the best reply to the opponent phase e, less the
    payoff's constant K0 = (a + b + c + d)/4: Re(kappa0_opp conj(e)) +-
    |K_own(e)|, + for Alice, who maximises, - for Bob, who minimises, where
    own is the player's harmonic and kappa0_opp the opponent's kappa0; for
    Bob it is Alice's security level g.  Broadcasts over arrays.

    The payoff is K0 + Re(kappa0_A conj(e(alpha))) + Re(kappa0_B
    conj(e(beta))) + p.Mq (_certificate), and the player's own angle
    enters only through Re(K_own conj(e(t))), whose extreme is +-|K_own|.
    """
    base = (kappa0_opp * e.conjugate()).real
    size = abs(_harmonic(e, *own))
    return base + size if player == ALICE else base - size


def best_values(e, params, player: str):
    """The player's payoff at the best reply to each opponent phase e, in
    closed form (_best_value), computed in the kernel's units and scaled
    back to stake units exactly, infinite, with no warning, where it
    overflows there; broadcasts over arrays."""
    kernel = params.kernel
    own, opp = (kernel.alice, kernel.bob) if player == ALICE else (kernel.bob, kernel.alice)
    k0 = sum(math.ldexp(float(stake), -2 - kernel.exponent) for stake in params.stakes)
    with np.errstate(over="ignore"):
        return np.ldexp(k0 + _best_value(e, own, opp[0], player), kernel.exponent)


def _reply(k: complex, player: str, kernel: HarmonicKernel) -> float:
    """The player's best-response angle to the harmonic k, one scalar at a
    time, as best_responses gives it for arrays; NaN where k is flat."""
    if abs(k) <= kernel.radius:
        return math.nan
    return _answer(math.atan2(k.imag, k.real), player)


def gains(alpha: float, beta: float, params) -> tuple[float, float]:
    """Alice's and Bob's largest gains from a unilateral deviation at the
    profile (alpha, beta), in closed form.

    Alice's payoff in her own angle t is K0 + Re(K_A conj(e(t))), so her
    largest gain is |K_A| - Re(K_A conj(e(alpha))); Bob minimises, and his
    is Re(K_B conj(e(beta))) + |K_B|.  Neither needs K0 or a payoff value.
    Both are scaled back from the kernel's units exactly (_in_stakes).
    """
    kernel = params.kernel
    e_a, e_b = phase(alpha), phase(beta)
    k_a, k_b = _harmonic(e_b, *kernel.alice), _harmonic(e_a, *kernel.bob)
    return (_in_stakes(abs(k_a) - (k_a * e_a.conjugate()).real, kernel.exponent),
            _in_stakes((k_b * e_b.conjugate()).real + abs(k_b), kernel.exponent))


def _in_stakes(x: float, exponent: int) -> float:
    """x times 2^exponent exactly, or +-inf where math.ldexp would raise."""
    overflows = math.frexp(x)[1] + exponent > 1024
    return math.copysign(math.inf, x) if overflows else math.ldexp(x, exponent)


def _step(alpha: float, kernel: HarmonicKernel) -> tuple[float, float, complex]:
    """The residual r = arg(K_A conj(e))/2 of the composed map at alpha,
    in [-90, 90], the Newton step r / r', in degrees, and Bob's harmonic
    K_B there; r and the step are NaN where K_B or K_A is flat, and the
    step is NaN where the slope r' is 0.

    With e = exp(2i alpha), per radian of alpha dK_B = 2(m_2 Re e -
    m_1 Im e) from Bob's harmonic, Bob's answer w = -K_B/|K_B| turns by
    dw = i w Im(dK_B/K_B), Alice's harmonic against it moves by dK_A =
    m_1 Re dw + m_2 Im dw from hers, and r = arg(K_A conj(e))/2 has the
    slope r' = Im(dK_A/K_A)/2 - 1 in degrees per degree.  K_B and K_A are
    spelled out as _harmonic computes them.
    """
    (k0_a, m1_a, m2_a), (k0_b, m1_b, m2_b) = kernel.alice, kernel.bob
    e = cmath.exp(1j * math.radians(2.0 * alpha))
    k_b = k0_b + m1_b * e.real + m2_b * e.imag
    size_b = abs(k_b)
    if size_b <= kernel.radius:
        return math.nan, math.nan, k_b
    w = -k_b / size_b
    k_a = k0_a + m1_a * w.real + m2_a * w.imag
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

    It converges once a step of at most _NEWTON_TOL_DEG is due, which it
    applies unevaluated.  A larger step is taken only where it strictly
    lowers |residual|; at the first that does not, or an undefined step,
    it stops short.  So |residual| falls strictly at every step taken, and
    the iteration ends.
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
    neighbouring doubles: the end with the smaller |residual|, and whether
    the ends' residuals differ by less than 90 degrees, which makes the
    change a crossing of the composed map rather than a wrap or the edge
    of a flat harmonic, where the residual is NaN; (NaN, False) if no
    sample within the half turn changes sign.

    Uphill is where Alice's security level g rises: wherever both
    harmonics are far from flat, as on the whole circle off the boundary
    (_certificate), the residual has the sign of h = Im(K_A conj(e)) and
    so of g'.  A sign change of h need not be a crossing: where K_A points
    against e the residual wraps from +90 to -90 degrees.  Every sign
    change of h is a root of T, so the residual keeps its sign between
    consecutive roots.  The walk samples it once at the midpoint of each
    pair of consecutive root angles, alpha = phi/2, uphill from alpha,
    until a sample's sign differs from the last one's, and bisects that
    one cell: at most one sample per root angle and one bisection.  Where
    the angles separate the true roots, so that no cell holds two, that
    cell holds exactly the first sign change uphill; fixed_points starts
    at a seed, itself a root angle, so the first cell holds its own root.
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
    tan(phi/2), T(phi) = Im(kappa0_A conj(e))^2 |K_B|^2 - Im(L conj(e))^2
    at e = exp(i phi), with L = m_1 Re K_B + m_2 Im K_B.

    alice and bob are the harmonics (kappa0, m_1, m_2) of harmonic_kernel,
    scaled first so that the largest |coefficient| of the two is 1.  T is
    a degree-4 trigonometric polynomial, so its values at the nine phases
    exp(2 pi i j/9) determine it: Q is the constant matrix _SAMPLES_TO_Q
    times those values.
    """
    (k0, m1, m2), (b0, b1, b2) = alice, bob
    scale = max(abs(k0), abs(m1), abs(m2), abs(b0), abs(b1), abs(b2))
    if scale == 0.0:
        return [0.0] * 9
    k0r, k0i, m1r, m1i, m2r, m2i = (k0.real / scale, k0.imag / scale, m1.real / scale,
                                    m1.imag / scale, m2.real / scale, m2.imag / scale)
    b0r, b0i, b1r, b1i, b2r, b2i = (b0.real / scale, b0.imag / scale, b1.real / scale,
                                    b1.imag / scale, b2.real / scale, b2.imag / scale)
    samples = []
    for c, s in _PHASES:
        # K_B = kr + i ki, Im(kappa0_A conj(e)) and Im(L conj(e)) at e = c + is
        kr, ki = b0r + b1r * c + b2r * s, b0i + b1i * c + b2i * s
        im_k0 = k0i * c - k0r * s
        im_l = (m1i * kr + m2i * ki) * c - (m1r * kr + m2r * ki) * s
        samples.append(im_k0 * im_k0 * (kr * kr + ki * ki) - im_l * im_l)
    return (_SAMPLES_TO_Q @ samples).tolist()


def circle_angles(q) -> list[float]:
    """Angle phi of each root of T(phi), given the coefficients q of t^8
    ... t^0 of Q(t) = (1 + t^2)^4 T(phi), t = tan(phi/2), as polynomial
    returns them: distinct floats, one per root t of Q whose angle no
    earlier root has.  A real t is a root on the circle, and complex ones
    are kept, since rounding can push a clustered root off the real line.
    A Q that vanishes identically (K_A parallel to e for every phi) has no
    isolated roots and yields none.

    The roots are t = infinity, phi = pi, once per vanishing leading
    coefficient, and the eigenvalues of Q's companion matrix.  The angle
    of t = x + iy is arg z = atan2(x, 1 - y) + atan2(x, 1 + y), z = exp(i
    phi) = (1 + it)/(1 - it), finite for every t.  For a conjugate pair x
    +- iy the two terms trade places, and a sum of two doubles does not
    depend on their order, so the pair gives one angle to the bit.  Such
    exact repeats are listed once, so each distinct angle seeds the search
    once and no cell between consecutive angles has zero width (_climb).

    The eigenvalues are np.linalg.eigvals's, cast to complex, bit for bit:
    the same LAPACK geev gufunc, called directly, with the wrapper's two
    guarantees kept by hand.  A companion row that is not finite, as where
    the leading coefficient is subnormal next to the others, raises
    np.linalg.LinAlgError before the call, and so does a NaN eigenvalue,
    where geev did not converge, rather than seed the search; geev's
    invalid flag then makes numpy warn first.  The last bits depend on the
    OpenBLAS core type (OPENBLAS_CORETYPE); the tests marked
    kernel_sensitive rerun under a second one.
    """
    if max(map(abs, q)) <= _ZERO_POLYNOMIAL:
        return []
    lead = next((k for k, x in enumerate(q) if x), len(q))
    angles = [math.pi] * lead
    if lead < len(q) - 1:
        row = [-x / q[lead] for x in q[lead + 1:]]
        if not all(map(math.isfinite, row)):
            raise np.linalg.LinAlgError("Array must not contain infs or NaNs")
        companion = _SHIFTS[len(row)].copy()
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
    BOUNDARY otherwise, as for the all-zero game and a coefficient that is
    not finite.

    With p = e(alpha) and q = e(beta) as vectors, the payoff is f0 + a.p +
    b.q + p.Mq, where M = [[Re m_1, Re m_2], [Im m_1, Im m_2]] and a =
    (Re kappa0, Im kappa0) come from Alice's harmonic, the vector a + Mq,
    and b from Bob's, b + M^T p.  A mixed strategy acts only through its
    mean of p or q, a point of the unit disk, so the mixed game is
    bilinear on two disks and has a saddle point (von Neumann 1928; Sion,
    Pacific J. Math. 8 (1958) 171-176), and a pure equilibrium is one of
    its saddles, since a payoff linear in a player's own mean peaks on the
    circle.  Zero-sum saddles are interchangeable (Osborne and Rubinstein
    1994, Prop. 22.2).

    As adj(M)(a + Mq) = adj(M) a + det(M) q and |adj(M)|_2 = |M|_2 <=
    |M|_F, |a + Mq| |M|_F >= ||adj(M) a| - |det M|| at every unit q, and
    |b + M^T p| |M|_F >= ||adj(M)^T b| - |det M||.  Where both gaps exceed
    the margin |M|_F (r + rho), r = kernel.radius, all in the kernel's
    units of 2^k (harmonic_kernel), in which no product overflows or
    underflows, no harmonic comes within the flatness radius anywhere on
    the circle, by rho to spare for rounding: neither player is ever
    indifferent, and there is at most one pure equilibrium.  For
    invertible M, with c = M^-1 a and d = M^-T b, the gaps are |det M|
    ||c| - 1| and |det M| ||d| - 1|.

    ABSENT: both gaps exceed the margin with |c| < 1 and |d| < 1, and
    (-d, -c) is an interior saddle, at which each player's harmonic
    vanishes.  A pure equilibrium (p, q) would make (p, -c) a saddle too,
    at which Bob minimises over the disk at the interior point -c: b +
    M^T p = 0, so p = -d, which is not on the circle.  Singular M (det 0)
    is never ABSENT.

    OFF_BOUNDARY: both gaps exceed the margin, and one of |adj(M) a| and
    |adj(M)^T b| exceeds |det M|, say Alice's.  Then Alice's harmonic
    vanishes nowhere on the whole disk, so at a saddle (p, q) Alice's best
    reply p to the mean q lies on the circle, and Bob's unique best reply
    to p is pure, which makes a pure equilibrium; Bob's case is the mirror
    image.  It is the only one, and p is a maximin strategy: alpha* is the
    unique global maximum on the circle of Alice's security level
    g(alpha), the least payoff over beta.

    rho = 256u bounds rounding to first order, with u = 2^-53, in units of
    S = max|stake| and so in the kernel's units of 2^k >= S, in which |a|,
    |M|_F and |b| only shrink.  Each coefficient of harmonic_kernel is
    within 21u of its exact value: the phases n and o carry at most 14u,
    mostly from 2t in radians, each multiplies at most 1/2, and the sums
    and products of the scaled stakes add a few u, the scaling itself
    none.  So |a| <= 1, |M|_F <= 1.12 and |b| <= 1, and each harmonic on
    the circle moves by at most (1 + sqrt 2) 21u, twice that for Bob's,
    whose block is taken as Alice's M^T.
    Computing a gap G costs at most u(|M|_F^2 + 3 |M|_F max(|a|, |b|) +
    G), and as G <= |M|_F^2/2 + |M|_F max(|a|, |b|), at most 6u once
    divided by |M|_F; the solver's own evaluation of a harmonic costs at
    most 25u.  These sum to under 140u.
    """
    (a, m_1, m_2), b = kernel.alice, kernel.bob[0]
    det = abs(m_1.real * m_2.imag - m_2.real * m_1.imag)
    adj_a = math.hypot(m_2.imag * a.real - m_2.real * a.imag,
                       m_1.real * a.imag - m_1.imag * a.real)
    adj_b = math.hypot(m_2.imag * b.real - m_1.imag * b.imag,
                       m_1.real * b.imag - m_2.real * b.real)
    margin = math.hypot(m_1.real, m_1.imag, m_2.real, m_2.imag) * (kernel.radius + _ROUNDING)
    if not math.isfinite(det + adj_a + adj_b + margin):
        return BOUNDARY
    if adj_a < det - margin and adj_b < det - margin:
        return ABSENT
    if abs(adj_a - det) > margin and abs(adj_b - det) > margin:
        return OFF_BOUNDARY
    return BOUNDARY


def _security(phi: float, kernel: HarmonicKernel) -> float:
    """Alice's security level g at the phase angle phi = 2 alpha, in
    radians, less the payoff's constant K0: Re(kappa0_A conj(e)) - |K_B(e)|
    at e = exp(i phi), Bob's payoff at his best reply, spelled out as
    _best_value(e, kernel.bob, kappa0_A, BOB) computes it."""
    (k0_b, m1_b, m2_b), k0_a = kernel.bob, kernel.alice[0]
    e = cmath.rect(1.0, phi)
    return (k0_a * e.conjugate()).real - abs(k0_b + m1_b * e.real + m2_b * e.imag)


def fixed_points(params, indifferent: bool = False) -> list[tuple[float, float, float]]:
    """The (alpha, beta, residual) row of the fixed point at the maximum
    of Alice's security level g, as a list of at most one row;
    indifferent is whether the game has an indifference row
    (indifference_points), as solve tells it.

    The angles of circle_angles are seeds in descending order of g
    (_security).  The row is where Newton's iteration (_newton) from a
    seed converges, or else, where the seed's residual is a number, a
    crossing that _climb closes uphill of the seed, not of where the
    iteration stopped; beta is Bob's _reply at its alpha.  Neither row is
    held to a tolerance: at a steep crossing the nearest double can leave
    a residual above the refine tolerance
    (test_crossing_between_neighbouring_doubles_is_kept).

    Either row is a fixed point of the composed map, where each player
    plays the one best reply to the other: an equilibrium, up to rounding.
    Without an indifference row no equilibrium has a flat harmonic, so
    there is at most one, since equilibria are interchangeable
    (_certificate) and a unique best reply admits no second partner, and
    whichever seed yields a row yields it.  So the seeds are tried until
    one does, and the last bits of the polynomial and its eigenvalues,
    which order near-tied maxima of g, decide nothing
    (test_seed_order_decides_nothing_without_an_indifference_row).  With
    an indifference row the equilibria lie among the indifference rows,
    which have closed forms, and a later seed would cost a climb that
    yields nothing, so only the first runs.  It still runs, since an
    indifference row can be an epsilon-equilibrium beside an exact fixed
    point (test_first_seed_runs_beside_an_indifference_row).
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
    closed-form opponent angles x0, taken from the part whose m-terms are
    larger and kept where the flatness test of _reply holds there.  The
    player's partner angles y are those against which the opponent's
    harmonic K' is parallel to e(x0): Im(conj(K') e(x0)) = 0, one linear
    equation in (cos 2y, sin 2y).  The opponent's best reply is then x0 or
    x0 + 90, so the residual, its defect from x0 (0 where that reply is
    flat too), is 0 or 90 degrees up to rounding; rows below 45 are kept.
    Where Alice is indifferent, the alphas Bob answers with x0 are
    undefined, but not those where Bob's reply is flat: each is one of
    Bob's own zeros, listed already with other rounding, and listing it
    twice would split one indifference into two cells of a narrow width.
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
    what is found.  An ABSENT game returns ([], ()) at once, with no
    candidate, not even an unverified near fixed point.  Off the boundary
    every |K| stays above kernel.radius on the whole circle, by the
    certificate's rounding margin, so indifference_points, which keeps
    only zeros x0 at which a harmonic is flat, would find nothing, and nor
    would the whole-half-turn test of _degeneracy_regions, whose bound is
    at least every |K| on the circle.  So an OFF_BOUNDARY game gets
    fixed_points' one row and no region, as with the certificate bypassed,
    and only a BOUNDARY game computes the indifference rows, first, since
    they decide how many seeds fixed_points tries, and the regions.
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
