"""Exact fixed-point enumeration checked against independent oracles.

The enumerator's polynomial is compared with a symbolic expansion built
from the payoff formula alone, its unit-circle roots with those mpmath
finds at 30 digits, and its equilibria with a residual scan built from
the public best responses, whose sign changes are narrowed to a
billionth of the scan step: exact enumeration against scan.
"""

import cmath
import math
import warnings

import mpmath
import numpy as np
import pytest
import sympy as sp
from click.testing import CliRunner

from orthogame import fixedpoint
from orthogame.angles import signed_delta, wrapped_distance
from orthogame.cli import main
from orthogame.equilibrium import (GameParams, best_response_alice,
                                   best_response_bob, find_equilibria,
                                   verify_equilibrium)
from test_corpus import _corpus_games, _heterogeneous_games, _swapped, _sweep_games

EX1 = GameParams(3, 3, 5, 1, 10.0, 70.0)
EX2 = GameParams(1, 1, 1, 1, 45.0, 45.0)
EX3 = GameParams(3, 3, 5, 1, 30.0, 20.0)
FIG7 = GameParams(3, 3, 5, 1, 15.0, 35.0)
STEEP = GameParams(4.0215, 9.0215, 0.2523, 3.0968, 134.8434, 29.7447)
# Game 590 of the benchmark's sweep reference set.  Bob's best response
# falls steeply through its fixed point (d beta / d alpha is about -6,409
# there), so an error left in alpha* is multiplied into beta*.  The fixed
# point was computed with mpmath at 50 digits from the stakes and angles
# as exact binary doubles: each best response is the peak of the harmonic
# read off the payoff formula of `payoff_grid` at the player's angles 0,
# 45 and 90 degrees (Bob taking the peak of -F), and mpmath.findroot
# solves BR_A(BR_B(alpha)) = alpha.
STEEP_BOB = GameParams(9.96619230971892, 4.147195379985186, 3.7964574020539477,
                       0.895754578130782, 6.726662415119358, 17.471849482076767)
STEEP_BOB_ALPHA = 121.678252408444470
STEEP_BOB_BETA = 33.658557969366914
# Game 830 of 5,000 drawn with the sweep recipe from seed 5151.  Bob is
# steeper still: the residual changes sign between neighbouring doubles
# of alpha, so the best alpha* leaves about 1e-10 degrees in beta*.  The
# fixed point was computed as for STEEP_BOB, at 60 digits.
STEEPER_BOB = GameParams(8.34818857605159, 4.617549890979543, 7.64429062687259,
                         5.068944704998965, 67.87722996329703, 90.01478535857665)
STEEPER_BOB_ALPHA = 125.404247325966573
STEEPER_BOB_BETA = 43.716855995407071
# A game whose only equilibrium sits where the residual rises by about
# 1.4e8 degrees per degree of alpha, and the angle of the fixed-point
# polynomial's root there, to about 4e-12 degrees.
STEEP_RESIDUAL = GameParams(4.088702178087739, 2.5629831542334123, 5.164779186923289,
                            1.7908755701264256, 89.93972978061063, 87.78688468208976)
STEEP_RESIDUAL_ROOT = 138.87948114637666
# Draw 789 of the Bob-indifferent family from seed 77.  Its equilibrium
# at alpha 69.558563 is a crossing so steep (about 1e12 degrees per
# degree) that the residual changes sign between neighbouring doubles
# of alpha and the nearer one leaves 4.2e-3 degrees, and a 0.005 degree
# scan sees the residual move by 90.005 degrees between two samples.
STEEPEST = GameParams(36.3785024847954, 0.31850828536729037, 5.063843859586553,
                      2.32699456190945, 90.15742324078172, 89.84812326575941)
STEEPEST_ALPHA = 69.558563
# Draw 599 of _heterogeneous_games(4, 1000) and draw 6637 of
# _heterogeneous_games(3, 10000), whose security levels g have two local
# maxima within 3.5e-9 and 2.4e-7 of each other, relative.  In the first
# the last bits of the fixed-point polynomial and of its eigenvalues
# decide which root is the first seed, and a form of the polynomial that
# rounds otherwise can put the other maximum first; in the second they
# decide whether Newton's iteration converges next to a crossing so steep
# that the nearest double leaves more than 0.001 degrees or stops short
# of it, where the bisection closes it, and either end is kept.  Draw 855
# of _heterogeneous_games(4, 1000), with the players exchanged, is
# another off-boundary near tie, whose first seed climbs to a wrap: that
# seed is not flat, so the search goes on to the next, which yields the
# row.
NEAR_TIE_K4 = GameParams(17.31152997818888, 0.00010325729679629929, 2704.1184164102415,
                         0.0002346079959924686, 2.0385989601416767, 68.31163993536565)
NEAR_TIE_K4_ALPHA = 175.425352
NEAR_TIE_K4_SWAPPED = _swapped(GameParams(20.20629223968029, 0.0009732245148897918,
                                          7049.352946643685, 0.002387255666463306,
                                          171.30496474893283, 169.1156394414746))
NEAR_TIE_K4_SWAPPED_ALPHA = 93.064514
NEAR_TIE_K3 = GameParams(0.014144715404939967, 162.18528480166708, 0.0011715978168120756,
                         58.010720897382036, 168.9012943860014, 47.000277145176696)
NEAR_TIE_K3_ALPHA = 48.018110
# Draw 2177 of _heterogeneous_games(3, 10000), whose Newton iteration
# converges where the nearest double leaves a residual of 1.15e-4 degrees
# under OpenBLAS's SkylakeX and Haswell kernels and 6.55e-5 under its
# SandyBridge, Nehalem and Prescott kernels, above 5e-5 under all five,
# and draw 164 of _sweep_games(1, 1000), which converges at 1.7e-9
# degrees: each is kept for converging, at any refine tolerance.
CONVERGED_K3 = GameParams(0.0054545102225696555, 66.97256478417673, 0.0033651398984705367,
                          565.1031684918328, 14.058720769424296, 30.464968547004645)
CONVERGED_K3_ALPHA = 175.060991
CONVERGED_SWEEP = GameParams(1.2873660892703438, 0.43570751249300455, 0.5587669263269904,
                             2.3944483592556343, 100.26751688073834, 76.4150864863589)
CONVERGED_SWEEP_ALPHA = 123.373740


def _random_game(rng):
    return GameParams(*rng.uniform(0.1, 10.0, 4), *rng.uniform(1.0, 179.0, 2))


def _symbolic_polynomial(p: GameParams) -> list[complex]:
    """Coefficients of z^4 ... z^-4 of the squared fixed-point condition,
    expanded by sympy from the payoff formula of `payoff_grid`, up to a
    positive factor."""
    al, be, n, z = sp.symbols("alpha beta N z")
    ta, tb = sp.Float(math.radians(p.theta_a_deg), 30), sp.Float(math.radians(p.theta_b_deg), 30)
    a, b, c, d = (sp.Float(x, 30) for x in p.stakes)
    f = (a * sp.cos(al) ** 2 * sp.sin(be) ** 2 + c * sp.sin(al) ** 2 * sp.cos(be) ** 2
         + b * sp.cos(al - ta) ** 2 * sp.sin(be - tb) ** 2
         + d * sp.sin(al - ta) ** 2 * sp.cos(be - tb) ** 2)
    deg45, deg90 = sp.pi / 4, sp.pi / 2

    def harmonic(own):
        # F is K0 + K1 cos 2t + K2 sin 2t in the player's own angle t
        at = lambda t: f.subs(own, t)
        return sp.Matrix([(at(0) - at(deg90)) / 2, at(deg45) - (at(0) + at(deg90)) / 2])

    def affine(k, other):
        # (K1, K2) = k0 + m (cos 2x, sin 2x) in the opponent angle x
        at = lambda x: k.subs(other, x).evalf(30)
        k0 = (at(0) + at(deg90)) / 2
        m = sp.Matrix.hstack((at(0) - at(deg90)) / 2, at(deg45) - k0)
        probe = {other: sp.Float(0.3717, 30)}
        e = sp.Matrix([sp.cos(2 * probe[other]), sp.sin(2 * probe[other])])
        assert max(abs(v) for v in (k.subs(probe) - k0 - m * e).evalf(30)) < 1e-20
        return k0, m

    a0, am = affine(harmonic(al), be)
    b0, bm = affine(harmonic(be), al)
    cos, sin = (z + 1 / z) / 2, (z - 1 / z) / (2 * sp.I)
    e = sp.Matrix([cos, sin])
    k_b = b0 + bm * e
    k_a = a0 + am * (-k_b / n)           # Bob answers with w = -K_B / |K_B|
    cross = sp.expand(n * (k_a[0] * sin - k_a[1] * cos))
    lhs, rhs = cross.coeff(n, 1), cross.coeff(n, 0)
    squared = lhs ** 2 * (k_b[0] ** 2 + k_b[1] ** 2) - rhs ** 2
    return [complex(co) for co in sp.Poly(sp.expand(squared * z ** 4), z).all_coeffs()]


@pytest.mark.parametrize("params", [EX1, EX3, STEEP, GameParams(2.5, 0.7, 9.1, 4.4, 163.0, 3.5)])
def test_polynomial_matches_symbolic_expansion(params):
    expected = np.array(_q(_symbolic_polynomial(params)[::-1]))
    actual = np.array(fixedpoint.polynomial(params.kernel.alice, params.kernel.bob))
    assert len(actual) == len(expected) == 9
    # compare up to the positive scale each side chose
    expected, actual = (v / np.max(np.abs(v)) for v in (expected, actual))
    np.testing.assert_allclose(actual, expected, rtol=0, atol=1e-12)


def _q(laurent) -> list[float]:
    """The coefficients of t^8 ... t^0 of Q(t) = (1 + t^2)^4 T(phi), the
    polynomial circle_angles takes, of the coefficients of z^-4 ... z^4 of
    T(phi), z = exp(i phi)."""
    return (fixedpoint._HALF_ANGLE @ laurent).real.tolist()


def _laurent_polynomial(alice, bob) -> list[complex]:
    """The coefficients of z^-4 ... z^4 of the polynomial T(phi) that
    fixedpoint.polynomial samples, as plain convolutions of its Laurent
    factors' coefficient lists, with the same scaling."""
    def times(f, g):
        out = [0j] * (len(f) + len(g) - 1)
        for i, fi in enumerate(f):
            for j, gj in enumerate(g):
                out[i + j] += fi * gj
        return out

    def conj(f):
        return [c.conjugate() for c in reversed(f)]

    def im_along_e(f):
        # Im(f conj(e)) = (f/z - conj(f) z)/2i on the unit circle z = e
        return [(x - y) / 2j for x, y in zip([*f, 0j, 0j], [0j, 0j, *conj(f)])]

    scale = max(map(abs, (*alice, *bob)))
    if scale == 0.0:
        return [0j] * 9
    (kappa0, m_1, m_2), (b0, b1, b2) = ([c / scale for c in h] for h in (alice, bob))
    k_b = [(b1 + 1j * b2) / 2.0, b0, (b1 - 1j * b2) / 2.0]
    k_b_conj = conj(k_b)
    mu, nu = (m_1 - 1j * m_2) / 2.0, (m_1 + 1j * m_2) / 2.0
    a0_im = im_along_e([kappa0])
    l_im = im_along_e([mu * x + nu * y for x, y in zip(k_b, k_b_conj)])
    return [x - y for x, y in zip(times(times(a0_im, a0_im), times(k_b, k_b_conj)),
                                  times(l_im, l_im))]


def _generator_kernel(params) -> fixedpoint.HarmonicKernel:
    """fixedpoint.harmonic_kernel as one generator over both players,
    computed in the stakes' own type, each stake times the one factor
    2^(-2-k) with k = frexp(max|stake|)[1], finite for the stakes here,
    and converted to complex at the end: the reference it reproduces bit
    for bit."""
    scale = float(max(map(abs, params.stakes)))
    exponent = math.frexp(scale)[1]
    a, b, c, d = (x * 2.0 ** (-2 - exponent) for x in params.stakes)
    n_a, n_b = fixedpoint.phase(params.theta_a_deg), fixedpoint.phase(params.theta_b_deg)
    alice, bob = (tuple(map(complex, (p - q + (r - s) * n, -(p + q) - (r + s) * o.real * n,
                                      -(r + s) * o.imag * n)))
                  for p, q, r, s, n, o in ((a, c, b, d, n_a, n_b), (c, a, d, b, n_b, n_a)))
    return fixedpoint.HarmonicKernel(alice, bob, scale, exponent,
                                     math.sqrt(fixedpoint.DEGENERACY_SQ)
                                     * (scale * 2.0 ** -exponent))


def _bit_identity_games() -> list[GameParams]:
    """The solve corpus, the sweep recipe's first 1,000 draws, the
    heterogeneous, mixed-sign and indifference families, 200 games each
    with stakes U(0.1, 10) times 1e-300 and times 1e300, and games of
    stakes 0, -0.0, 1 and -1 at 45 and 135 degrees, whose harmonics hold
    exact zeros."""
    from test_certificate import _mixed_sign_games
    from test_corpus import _corpus_games, _heterogeneous_games, _sweep_games
    from test_equilibrium import _indifference_game

    games = (_corpus_games() + _sweep_games(1, 1000) + _heterogeneous_games(3, 2000)
             + _heterogeneous_games(4, 1000) + _mixed_sign_games(2000))
    for mirror in (False, True):
        rng = np.random.default_rng(77 + mirror)
        games += [_indifference_game(rng, mirror)[1] for _ in range(1000)]
    rng = np.random.default_rng(23)
    games += [GameParams(*(rng.uniform(0.1, 10.0, 4) * 10.0 ** exponent).tolist(),
                         *rng.uniform(1.0, 179.0, 2).tolist())
              for exponent in (-300, 300) for _ in range(200)]
    games += [GameParams(*rng.choice([0.0, -0.0, 1.0, -1.0], 4).tolist(),
                         *rng.choice([45.0, 135.0], 2).tolist()) for _ in range(400)]
    return games


def test_polynomial_matches_the_laurent_products():
    # the nine samples round otherwise than the Laurent products, by at
    # most 4.4e-9 of the largest coefficient, and by 1.4e-14 where T
    # vanishes identically; the two forms agree on which polynomials
    # vanish, the samples judged by their Q and the products by their own
    # coefficients
    for params in _bit_identity_games():
        kernel = params.kernel
        laurent = _laurent_polynomial(kernel.alice, kernel.bob)
        expected = np.array(_q(laurent))
        actual = np.array(fixedpoint.polynomial(kernel.alice, kernel.bob))
        assert np.max(np.abs(actual - expected)) <= max(1e-8 * np.max(np.abs(expected)),
                                                       fixedpoint._ZERO_POLYNOMIAL), params
        assert ((np.max(np.abs(actual)) <= fixedpoint._ZERO_POLYNOMIAL)
                == (max(map(abs, laurent)) <= fixedpoint._ZERO_POLYNOMIAL)), params


@pytest.mark.parametrize("stake_type", [float, np.float64, int])
def test_harmonic_kernel_is_the_generator_form_bit_for_bit(stake_type):
    if stake_type is int:
        rng = np.random.default_rng(31)
        games = [GameParams(*rng.integers(-20, 21, 4).tolist(), *rng.uniform(1.0, 179.0, 2))
                 for _ in range(1000)]
    else:
        games = [GameParams(*map(stake_type, params.stakes), params.theta_a_deg,
                            params.theta_b_deg) for params in _bit_identity_games()[::7]]
    for params in games:
        assert repr(fixedpoint.harmonic_kernel(params)) == repr(_generator_kernel(params)), params


def test_scalar_spellings_are_the_array_forms_bit_for_bit():
    # _step spells K_B and K_A out, and _security Alice's security level
    # g, on the search's hot path; each must round as _harmonic and
    # _best_value, the one array form of each formula, do.  K_A is read
    # through the residual, its argument against e
    grid = (np.arange(36) * 5.0 + 1.25).tolist()
    for params in _sweep_games(1, 1000) + _corpus_games() + _heterogeneous_games(4, 1000):
        kernel = params.kernel
        seeds = fixedpoint.circle_angles(fixedpoint.polynomial(kernel.alice, kernel.bob))
        for phi in seeds + [math.radians(2.0 * alpha) for alpha in grid]:
            expected = fixedpoint._best_value(cmath.rect(1.0, phi), kernel.bob, kernel.alice[0],
                                              fixedpoint.BOB)
            assert repr(fixedpoint._security(phi, kernel)) == repr(expected), (params, phi)
        for alpha in grid + [0.5 * math.degrees(phi) for phi in seeds]:
            residual, _, k_b = fixedpoint._step(alpha, kernel)
            e = cmath.exp(1j * math.radians(2.0 * alpha))
            expected_b = fixedpoint._harmonic(e, *kernel.bob)
            assert repr(k_b) == repr(expected_b), (params, alpha)
            if abs(expected_b) <= kernel.radius:
                assert math.isnan(residual), (params, alpha)
                continue
            k_a = fixedpoint._harmonic(-expected_b / abs(expected_b), *kernel.alice)
            along = k_a * e.conjugate()
            expected = (math.nan if abs(k_a) <= kernel.radius
                        else math.degrees(math.atan2(along.imag, along.real)) / 2.0)
            assert repr(residual) == repr(expected), (params, alpha)


def _reference_angles(coeffs):
    """Angles of the unit-circle roots found by mpmath at 30 digits."""
    with mpmath.workdps(30):
        roots = mpmath.polyroots([mpmath.mpc(c) for c in reversed(coeffs)],
                                 maxsteps=200, extraprec=60)
        return np.array([float(mpmath.arg(z)) for z in roots
                         if abs(abs(z) - 1) <= 1e-6])


def _circular_gap(x, y):
    return np.abs((x - y + np.pi) % (2 * np.pi) - np.pi)


def _on_circle_angles(coeffs):
    """Angles of the roots numpy.roots finds within 1e-3 of the unit
    circle: the roots of a k-fold root scatter by about eps^(1/k), 1e-5
    for a triple root."""
    z = np.roots(coeffs[::-1])
    return np.angle(z[np.abs(np.abs(z) - 1.0) <= 1e-3])


@pytest.mark.kernel_sensitive
def test_circle_angles_match_companion_matrix():
    rng = np.random.default_rng(808)
    matched = 0
    for _ in range(60):
        params = _random_game(rng)
        kernel = params.kernel
        coeffs = _laurent_polynomial(kernel.alice, kernel.bob)
        # every root on the circle seeds, and every root numpy.roots finds
        # near it is one
        found = np.array(fixedpoint.circle_angles(fixedpoint.polynomial(kernel.alice, kernel.bob)))
        near = _on_circle_angles(coeffs)
        expected = _reference_angles(coeffs)
        for phi in expected:
            assert np.min(_circular_gap(found, phi)) <= 1e-6, (params, phi, found)
            matched += 1
        for phi in near:
            assert np.min(_circular_gap(expected, phi)) <= 1e-6, (params, phi, expected)
    assert matched >= 400


def _laurent_product(*factors):
    product = [1.0]
    for factor in factors:
        product = np.convolve(product, factor)
    return list(product.astype(complex))


def _close_roots(split, multiplicity):
    """(cos phi - c)^(m - 1) (cos phi - c') times a factor with no real
    roots, c = cos 1.1 and c' = c + split, as Laurent coefficients."""
    c, c2 = math.cos(1.1), math.cos(1.1) + split
    rootless = [0.5, 0, 2.0, 0, 0.5] if multiplicity == 2 else [0.5, 2.0, 0.5]
    return _laurent_product(*[[0.5, -c, 0.5]] * (multiplicity - 1), [0.5, -c2, 0.5], rootless)


CLOSE_ROOTS = {"0.0": (0.0, 2), "1e-09": (1e-9, 2), "0.001": (1e-3, 2), "triple": (0.0, 3)}


@pytest.mark.kernel_sensitive
@pytest.mark.parametrize("split, multiplicity",
                         [pytest.param(*case, id=name) for name, case in CLOSE_ROOTS.items()])
def test_circle_angles_double_and_close_roots(split, multiplicity):
    # the polynomial has the roots +-acos c and +-acos c' and no others;
    # c' = c is a pair of tangencies (m = 2) or of triple roots (m = 3),
    # whose companion-matrix eigenvalues lie about 1e-5 off the unit circle
    c2 = math.cos(1.1) + split
    coeffs = _close_roots(split, multiplicity)
    found = np.array(fixedpoint.circle_angles(_q(coeffs)))
    near = _on_circle_angles(coeffs)
    roots = np.array([1.1, -1.1, math.acos(c2), -math.acos(c2)])
    tol = 1e-9 if split > 1e-6 else 1e-5
    assert all(np.min(_circular_gap(found, r)) <= tol for r in roots)
    assert all(np.min(_circular_gap(roots, phi)) <= tol for phi in near)


# sin phi, 1 + cos phi and 1 - cos phi as Laurent coefficients of z^-1, 1, z
SIN, ONE_PLUS_COS, ONE_MINUS_COS = [0.5j, 0, -0.5j], [0.5, 1.0, 0.5], [0.5, -1.0, 0.5]


def _half_angle_edge(factor):
    """(cos phi - 1/2)(2 + cos 2 phi) times the factor, padded to the nine
    coefficients of z^-4 ... z^4: every coefficient is exact."""
    coeffs = _laurent_product(factor, [0.5, -0.5, 0.5], [0.5, 0, 2.0, 0, 0.5])
    pad = (9 - len(coeffs)) // 2
    return [0j] * pad + coeffs + [0j] * pad


@pytest.mark.kernel_sensitive
@pytest.mark.parametrize("factor, roots", [
    # a simple root at phi = pi is a vanishing leading coefficient of the
    # half-angle polynomial Q(t), and one at phi = 0 its root t = 0
    pytest.param(SIN, [0.0, math.pi], id="0-and-pi"),
    pytest.param(ONE_PLUS_COS, [math.pi], id="double-pi"),
    pytest.param(ONE_MINUS_COS, [0.0], id="double-0"),
    # c_-4 = c_4 = 0: z^4 T(z) has a root at z = 0 and one at infinity,
    # so Q(t) has the roots t = +-i
    pytest.param([1.0], [], id="t=+-i")])
def test_circle_angles_at_half_angle_edges(factor, roots):
    # the edge roots are exact.  The suite turns every warning into an
    # error, so a division by a vanishing coefficient would fail here.
    coeffs = _half_angle_edge(factor)
    assert len(coeffs) == 9
    found = np.array(fixedpoint.circle_angles(_q(coeffs)))
    assert np.all(np.isfinite(found))
    for phi in [*roots, math.pi / 3.0, -math.pi / 3.0]:
        assert np.min(_circular_gap(found, phi)) <= 1e-6, (phi, found)


@pytest.mark.kernel_sensitive
def test_circle_angles_of_vanishing_polynomial():
    assert len(fixedpoint.circle_angles([0j] * 9)) == 0


# circle_angles calls LAPACK's geev through numpy's private gufunc
# numpy.linalg._umath_linalg.eigvals, not through the public wrapper
# np.linalg.eigvals.  The tests below are what catches a numpy release
# that changes that module: they hold the direct call to the wrapper bit
# for bit, and check the wrapper's two guarantees that circle_angles
# keeps by hand.


def _eigenvalue_coefficients():
    """The polynomials of the sweep recipe's first 1,000 draws and of the
    k = 3 and k = 4 heterogeneous families, and the close-root and
    half-angle edge sets above."""
    from test_corpus import _heterogeneous_games, _sweep_games

    games = _sweep_games(1, 1000) + _heterogeneous_games(3, 2000) + _heterogeneous_games(4, 1000)
    return ([fixedpoint.polynomial(g.kernel.alice, g.kernel.bob) for g in games]
            + [_q(_close_roots(*case)) for case in CLOSE_ROOTS.values()]
            + [_q(_half_angle_edge(f)) for f in (SIN, ONE_PLUS_COS, ONE_MINUS_COS, [1.0])])


def _public_eigvals(companion, signature):
    return np.linalg.eigvals(companion).astype(complex)


@pytest.mark.kernel_sensitive
def test_direct_eigenvalue_call_is_the_public_wrapper_bit_for_bit(monkeypatch):
    # repr tells -0.0 from 0.0, which == does not
    calls, direct = [], fixedpoint._eigvals

    def recorded(companion, signature):
        calls.append((companion.copy(), eigenvalues := direct(companion, signature=signature)))
        return eigenvalues

    coefficients = _eigenvalue_coefficients()
    monkeypatch.setattr(fixedpoint, "_eigvals", recorded)
    angles = [fixedpoint.circle_angles(coeffs) for coeffs in coefficients]
    # the 50 equal-stake draws at 45/45 have no polynomial and make no call
    assert len(calls) == len(coefficients) - 50
    for companion, eigenvalues in calls:
        expected = np.linalg.eigvals(companion).astype(complex)
        assert eigenvalues.dtype == expected.dtype
        assert repr(eigenvalues.tolist()) == repr(expected.tolist()), companion
    # and the angles are those the wrapper's eigenvalues give
    monkeypatch.setattr(fixedpoint, "_eigvals", _public_eigvals)
    for coeffs, found in zip(coefficients, angles):
        assert repr(fixedpoint.circle_angles(coeffs)) == repr(found), coeffs


def _never_called(companion, signature):
    raise AssertionError("eigenvalues of a companion matrix that is not finite")


@pytest.mark.kernel_sensitive
def test_non_finite_companion_raises_before_the_eigenvalue_call(monkeypatch):
    # T(pi), the leading coefficient of the half-angle polynomial, 1e-323
    # next to coefficients of 9 overflows the companion's first row to
    # inf; a NaN coefficient makes the row NaN.  The wrapper raised on
    # both, and geev itself returns NaN for an inf and writes to stderr
    # for a NaN, so the row is checked before the call.
    subnormal = _half_angle_edge(SIN)
    subnormal[0] += 5e-324
    subnormal[8] += 5e-324
    nan = _half_angle_edge(SIN)
    nan[4] = complex(math.nan, 0.0)
    monkeypatch.setattr(fixedpoint, "_eigvals", _never_called)
    for coeffs in (subnormal, nan):
        q = _q(coeffs)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(np.linalg.LinAlgError, match="infs or NaNs"):
                fixedpoint.circle_angles(q)


@pytest.mark.kernel_sensitive
def test_eigenvalues_that_did_not_converge_raise(monkeypatch):
    # geev that does not converge leaves NaN eigenvalues; one is enough
    # to raise rather than seed the search with a NaN angle, and the CLI
    # exits 2 on it as on any invalid input
    direct = fixedpoint._eigvals

    def unconverged(companion, signature):
        eigenvalues = direct(companion, signature=signature)
        eigenvalues[-1] = complex(math.nan, math.nan)
        return eigenvalues

    monkeypatch.setattr(fixedpoint, "_eigvals", unconverged)
    with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
        fixedpoint.circle_angles(fixedpoint.polynomial(EX3.kernel.alice, EX3.kernel.bob))
    with pytest.raises(np.linalg.LinAlgError):
        find_equilibria(EX3)
    result = CliRunner().invoke(main, ["quantum", "solve", "-p", "3,3,5,1",
                                       "--theta-a", "30", "--theta-b", "20"])
    assert result.exit_code == 2, result.output


def _scan_equilibria(params, step=0.01):
    """Verified fixed points of a residual scan of the public best responses.

    Each sign change between neighbouring samples that moves the residual
    by less than 90 degrees is narrowed three times to the first change
    of sign among 1,000 even subdivisions of its bracket.  One that moves
    it by 90 degrees or more is a wrap of the composed map or a crossing
    that sweeps a quarter turn between two samples: it is bisected down
    to neighbouring doubles, and it is a crossing where the residual
    there jumps by less than 90 degrees.  A crossing is a fixed point
    where the end of its bracket with the smaller |residual| is within
    0.005 degrees, the search's default refine tolerance, and verifies; a
    bracket that closes on a jump of the composed map, where it is
    undefined, ends farther off.
    """
    def residual(alpha):
        beta = best_response_bob(alpha, params).angle_deg
        return signed_delta(best_response_alice(beta, params).angle_deg, alpha)

    alphas = np.arange(0.0, 180.0, step)
    r = residual(alphas)
    following = np.roll(r, -1)
    sign_change = r * following < 0.0
    crossing = sign_change & (np.abs(following - r) < 90.0)
    lo, r_lo = alphas[crossing], r[crossing]
    hi, r_hi = lo + step, following[crossing]
    rows = np.arange(len(lo))
    for _ in range(3):
        ts = lo[:, None] + (hi - lo)[:, None] * np.linspace(0.0, 1.0, 1001)
        ts[:, -1] = hi
        rs = residual(ts)
        rs[:, 0], rs[:, -1] = r_lo, r_hi
        k = np.argmax(~(rs * r_lo[:, None] > 0.0), axis=1)
        lo, r_lo, hi, r_hi = ts[rows, k - 1], rs[rows, k - 1], ts[rows, k], rs[rows, k]
    jump = sign_change & ~crossing
    j_lo, j_r_lo, j_r_hi = alphas[jump], r[jump], following[jump]
    j_hi = j_lo + step
    while np.any(narrowing := (j_lo != (mid := (j_lo + j_hi) / 2.0)) & (mid != j_hi)):
        r_mid = residual(mid)
        low = narrowing & (r_mid * j_r_lo > 0.0)
        high = narrowing & ~low
        j_lo[low], j_r_lo[low] = mid[low], r_mid[low]
        j_hi[high], j_r_hi[high] = mid[high], r_mid[high]
    steep = np.abs(j_r_hi - j_r_lo) < 90.0
    lo, r_lo, hi, r_hi = (np.concatenate((x, y[steep])) for x, y in
                          ((lo, j_lo), (r_lo, j_r_lo), (hi, j_hi), (r_hi, j_r_hi)))
    found = []
    for alpha in np.where(np.abs(r_lo) <= np.abs(r_hi), lo, hi)[
            np.minimum(np.abs(r_lo), np.abs(r_hi)) <= 0.005].tolist():
        response = best_response_bob(alpha, params)
        if (not response.degenerate
                and verify_equilibrium(alpha, response.angle_deg, params).verified):
            found.append(alpha)
    return found


def test_fine_scan_equilibria_are_all_reported():
    # every verified crossing of the scan is a verified report: 300 random
    # games at 0.01 degrees, and at 0.05 the pinned corpus and the first
    # draws of the heterogeneous-stake and both indifference families
    from test_corpus import _corpus_games, _heterogeneous_games
    from test_equilibrium import _indifference_game

    rng = np.random.default_rng(20260)
    games = [(_random_game(rng), 0.01) for _ in range(300)]
    families = _corpus_games() + _heterogeneous_games(2, 60) + _heterogeneous_games(3, 60)
    for mirror in (False, True):
        rng = np.random.default_rng(77 + mirror)
        families += [_indifference_game(rng, mirror)[1] for _ in range(40)]
    games += [(params, 0.05) for params in families + [STEEPEST]]
    scanned = 0
    for params, step in games:
        reported = [e.alpha_star_deg for e in find_equilibria(params).verified]
        for alpha in _scan_equilibria(params, step):
            scanned += 1
            assert any(wrapped_distance(alpha, r) <= 1e-6 for r in reported), (params, alpha)
    assert scanned >= 450


def test_steep_crossing_found_by_fine_scan():
    assert len(_scan_equilibria(STEEP)) == 1
    # a quarter turn between two samples at either scan step
    for step in (0.005, 0.05):
        (alpha,) = _scan_equilibria(STEEPEST, step)
        assert abs(alpha - STEEPEST_ALPHA) <= 1e-6


@pytest.mark.parametrize("refine_tol", [0.001, 0.005])
def test_crossing_between_neighbouring_doubles_is_kept(refine_tol):
    # the nearest double leaves a residual of 4.2e-3 degrees, above the
    # tighter tolerance, but the residual changes sign at the next double
    (report,) = find_equilibria(STEEPEST, refine_tol_deg=refine_tol).equilibria
    assert report.verified
    assert abs(report.alpha_star_deg - STEEPEST_ALPHA) <= 1e-6
    assert 1e-3 < report.residual_deg < 5e-3


@pytest.mark.kernel_sensitive
@pytest.mark.parametrize("params, alpha, refine_tol", [
    pytest.param(NEAR_TIE_K4, NEAR_TIE_K4_ALPHA, 0.005, id="k4-draw-599-0.005"),
    pytest.param(NEAR_TIE_K4, NEAR_TIE_K4_ALPHA, 0.001, id="k4-draw-599-0.001"),
    pytest.param(NEAR_TIE_K3, NEAR_TIE_K3_ALPHA, 0.001, id="k3-draw-6637-0.001"),
    pytest.param(NEAR_TIE_K4_SWAPPED, NEAR_TIE_K4_SWAPPED_ALPHA, 0.005,
                 id="k4-draw-855-swapped-0.005")])
def test_near_tie_equilibrium_is_found(params, alpha, refine_tol):
    # where two maxima of g nearly tie, the rounding of the polynomial and
    # of the eigenvalues can put either root first; a seed that yields no
    # row and is not flat, as a climb to a wrap, is followed by the next
    (report,) = find_equilibria(params, refine_tol_deg=refine_tol).equilibria
    assert report.verified
    assert abs(report.alpha_star_deg - alpha) <= 1e-6


@pytest.mark.kernel_sensitive
@pytest.mark.parametrize("params, alpha, refine_tol", [
    pytest.param(CONVERGED_K3, CONVERGED_K3_ALPHA, 5e-5, id="k3-draw-2177-5e-5"),
    pytest.param(CONVERGED_SWEEP, CONVERGED_SWEEP_ALPHA, 1e-9, id="sweep-draw-164-1e-9"),
    pytest.param(EX3, 53.507396, 1e-15, id="criterion-3-1e-15")])
def test_converged_end_is_kept_whatever_its_residual(params, alpha, refine_tol):
    # the refine tolerance only merges duplicates, so a converged Newton
    # end whose residual is larger than it is still reported
    (report,) = find_equilibria(params, refine_tol_deg=refine_tol).equilibria
    assert report.verified
    assert abs(report.alpha_star_deg - alpha) <= 1e-6
    assert report.residual_deg > refine_tol


@pytest.mark.parametrize("family, count", [("sweep", 515), ("indifference-77", 212)])
def test_refine_tolerance_loses_no_equilibrium(family, count):
    # every verified report at the default tolerance is reported at a
    # far smaller one too: the sweep recipe's games exercise the
    # fixed-point row, and the Bob-indifferent draws the indifference rows
    from test_corpus import _sweep_games
    from test_equilibrium import _indifference_game

    if family == "sweep":
        games = _sweep_games(1, 1000)
    else:
        rng = np.random.default_rng(77)
        games = [_indifference_game(rng, False)[1] for _ in range(200)]
    verified = 0
    for params in games:
        tight = [(e.alpha_star_deg, e.beta_star_deg)
                 for e in find_equilibria(params, refine_tol_deg=1e-12)]
        for report in find_equilibria(params).verified:
            verified += 1
            assert (report.alpha_star_deg, report.beta_star_deg) in tight, (params, report)
    assert verified == count


def test_polished_root_accurate_where_bob_is_steep():
    for params, alpha, beta in ((STEEP_BOB, STEEP_BOB_ALPHA, STEEP_BOB_BETA),
                                (STEEPER_BOB, STEEPER_BOB_ALPHA, STEEPER_BOB_BETA)):
        (report,) = find_equilibria(params).equilibria
        assert report.verified
        assert abs(report.alpha_star_deg - alpha) <= 1e-11
        assert abs(report.beta_star_deg - beta) <= 1e-9


def test_polished_root_accurate_where_the_residual_is_steep():
    # the eigenvalue's angle alone is up to 4e-12 radians off the 30-digit
    # root here; Newton's iteration on the residual finishes it
    coeffs = _laurent_polynomial(STEEP_RESIDUAL.kernel.alice, STEEP_RESIDUAL.kernel.bob)
    (report,) = find_equilibria(STEEP_RESIDUAL).equilibria
    assert report.verified
    assert np.min(_circular_gap(2.0 * math.radians(report.alpha_star_deg),
                                _reference_angles(coeffs))) <= 1e-12
    assert report.residual_deg <= 1e-5


def test_polish_never_raises_the_residual():
    # the residual rises by about 1.4e8 degrees per degree of alpha here,
    # and Newton's iteration with the closed-form slope must leave no
    # start farther from zero than it was
    kernel = STEEP_RESIDUAL.kernel
    starts = STEEP_RESIDUAL_ROOT + np.arange(-5, 6) * 1e-12
    alphas = np.array([fixedpoint._newton(a, *fixedpoint._step(a, kernel)[:2], kernel)[0]
                       for a in starts.tolist()])
    before = np.array([fixedpoint._step(a, kernel)[0] for a in starts.tolist()])
    after = np.array([fixedpoint._step(a, kernel)[0] for a in alphas.tolist()])
    assert np.all(np.abs(before) <= 0.005)
    assert np.all(np.abs(after) <= np.abs(before))


def test_duplicates_keep_the_least_residual(monkeypatch):
    # a poorer row 1e-5 degrees below the root, as an indifference row
    # might lie, is within the refine tolerance of the root's row and
    # sorts first; the row with the smaller residual is the one reported
    kernel = EX3.kernel
    (good,) = fixedpoint.fixed_points(EX3)
    alpha = good[0] - 1e-5
    residual, _, k_b = fixedpoint._step(alpha, kernel)
    poorer = (alpha, fixedpoint._reply(k_b, fixedpoint.BOB, kernel), residual)
    assert abs(good[2]) < abs(poorer[2]) <= 0.005 and wrapped_distance(good[1], poorer[1]) <= 0.005
    monkeypatch.setattr(fixedpoint, "fixed_points", lambda params: [poorer, good])
    (report,) = find_equilibria(EX3).equilibria
    assert (report.alpha_star_deg, report.beta_star_deg) == (good[0], good[1])
    assert report.residual_deg == abs(good[2])


def test_no_polish_without_a_root(monkeypatch):
    def newton(*args):
        raise AssertionError("polished without a root")

    monkeypatch.setattr(fixedpoint, "_newton", newton)
    assert fixedpoint.fixed_points(EX2) == []
    assert len(find_equilibria(EX2)) == 0
    # criterion 3's game has a root, so its solve does polish
    with pytest.raises(AssertionError, match="polished without a root"):
        find_equilibria(EX3)


def _indifference_families(count: int) -> list[GameParams]:
    """The first count draws of each indifference family: seeds 77 and
    78, plain and mirrored (test_equilibrium._indifference_game)."""
    from test_equilibrium import _indifference_game

    games = []
    for seed in (77, 78):
        for mirror in (False, True):
            rng = np.random.default_rng(seed)
            games += [_indifference_game(rng, mirror)[1] for _ in range(count)]
    return games


def test_one_newton_run_per_game(monkeypatch):
    # Newton's iteration starts from the root at which Alice's security
    # level is largest, and a later seed runs only where that top seed
    # yields no row and is not flat, which no game here needs.  In the
    # indifference families, plain and swapped, most games have an
    # indifference row, and their top seed yields a row or is flat, which
    # ends the search.  Where the iteration does not converge the climb
    # starts from that root too, not from where the iteration stopped; on
    # the sweep recipe's games it converges every time, so the benchmark's
    # sweep traffic never reaches the bisection, and off the disk
    # certificate's boundary no seed is flat
    from test_corpus import _corpus_games, _heterogeneous_games, _sweep_games

    indifference = _indifference_families(1000)
    indifference += [_swapped(params) for params in indifference]
    starts, climbs = [], []
    newton, climb = fixedpoint._newton, fixedpoint._climb

    def counted(alpha, *args):
        starts.append(alpha)
        return newton(alpha, *args)

    def counted_climb(alpha, *args):
        climbs.append(alpha)
        return climb(alpha, *args)

    monkeypatch.setattr(fixedpoint, "_newton", counted)
    monkeypatch.setattr(fixedpoint, "_climb", counted_climb)
    polished = climbed = 0
    for params in _corpus_games() + _heterogeneous_games(4, 200) + indifference:
        starts.clear()
        climbs.clear()
        find_equilibria(params)
        assert len(starts) <= 1, params
        assert climbs in ([], starts), params
        polished += len(starts)
        climbed += len(climbs)
    assert polished >= 300 and climbed >= 10
    assert sum(bool(fixedpoint.indifference_points(params)[0]) for params in indifference) == 4754
    climbs.clear()
    for params in _sweep_games(1, 1000):
        find_equilibria(params)
        kernel = params.kernel
        if fixedpoint._certificate(kernel) == fixedpoint.OFF_BOUNDARY:
            for phi in fixedpoint.circle_angles(fixedpoint.polynomial(kernel.alice, kernel.bob)):
                alpha = fixedpoint.wrap_half_turn(0.5 * math.degrees(phi))
                assert not math.isnan(fixedpoint._step(alpha, kernel)[0]), params
    assert climbs == []


@pytest.mark.kernel_sensitive
def test_seed_order_decides_nothing_without_an_indifference_row(monkeypatch):
    # the top seed, at the maximum of Alice's security level, ends the
    # search where it is flat, and there every equilibrium is an
    # indifference row; elsewhere the game's equilibria are fixed points
    # of the composed map at that maximum, on the disk certificate's
    # boundary or off it, and the seeds are tried until one yields a row.
    # So with the top seed first and the rest tried from the least
    # security level up, the worst order, every game of the families,
    # plain and with the players exchanged, solves as with the seeds
    # tried from the greatest down.  Swapped draws 238 and 909 of the k =
    # 4 family are among the boundary games without an indifference row
    from test_corpus import _heterogeneous_games, _sweep_games

    k4 = _heterogeneous_games(4, 1000)
    plain = (_sweep_games(1, 1000) + _heterogeneous_games(3, 2000) + k4
             + _indifference_families(100))
    games = plain + [_swapped(params) for params in plain]
    boundary = [params for params in games
                if fixedpoint._certificate(params.kernel) == fixedpoint.BOUNDARY
                and not fixedpoint.indifference_points(params)[0]]
    assert _swapped(k4[238]) in boundary and _swapped(k4[909]) in boundary
    expected = [find_equilibria(params) for params in games]
    security = fixedpoint._security

    def top_then_least(phi, kernel):
        seeds = fixedpoint.circle_angles(fixedpoint.polynomial(kernel.alice, kernel.bob))
        top = max(seeds, key=lambda seed: security(seed, kernel))
        return math.inf if phi == top else -security(phi, kernel)

    monkeypatch.setattr(fixedpoint, "_security", top_then_least)
    for params, result in zip(games, expected):
        assert find_equilibria(params) == result, params
    verified = sum(len(result.verified) for result in expected)
    assert len(boundary) == 362 and verified >= 7000


@pytest.mark.kernel_sensitive
def test_first_seed_runs_beside_an_indifference_row():
    # draw 677 of the k = 4 family has two indifference rows, each an
    # epsilon-equilibrium that passes the verdict, and an exact fixed
    # point at its first seed, which the search must still report
    from test_corpus import _heterogeneous_games

    params = _heterogeneous_games(4, 1000)[677]
    assert fixedpoint.indifference_points(params)[0]
    ((alpha, beta, _),) = fixedpoint.fixed_points(params)
    assert abs(alpha - 90.229785) <= 1e-6 and abs(beta - 0.048946) <= 1e-6
    exact = [e for e in find_equilibria(params)
             if e.max_violation <= 1e-12 * params.kernel.scale]
    assert [round(e.alpha_star_deg, 6) for e in exact] == [90.229785]


def test_residual_underflow_is_not_an_error():
    # Alice's harmonic against Bob's answer points along e so nearly that
    # the atan2 of the residual underflows to 0, where cmath.phase raised
    # a math range error
    params = GameParams(1e308, 1e-320, -1e308, 0.0, -188.58806543810803, -143.1508119745767)
    (report,) = find_equilibria(params).equilibria
    assert report.verified
    assert (report.alpha_star_deg, report.beta_star_deg) == (0.0, 0.0)


@pytest.mark.kernel_sensitive
def test_climb_closes_a_crossing_but_not_a_wrap(monkeypatch):
    # STEEPEST is a boundary game whose Newton iteration stops short of
    # its crossing: the bisection uphill of its seed closes the crossing
    # at alpha*, where the residual changes sign between neighbouring
    # doubles
    from test_equilibrium import _indifference_game

    ends = []
    climb = fixedpoint._climb

    def recorded(*args):
        ends.append(args)
        return climb(*args)

    monkeypatch.setattr(fixedpoint, "_climb", recorded)
    fixedpoint.fixed_points(STEEPEST)
    ((alpha, residual, angles, kernel),) = ends
    assert fixedpoint._certificate(kernel) == fixedpoint.BOUNDARY
    end, closed = climb(alpha, residual, angles, kernel)
    assert closed and abs(end - STEEPEST_ALPHA) <= 1e-6
    # in draw 0 of the Bob-indifferent family Newton's iteration cannot
    # move from its seed, where the residual is +44.6 degrees; the sign
    # change 3.4e-7 degrees uphill is the flat band at x0, where Bob is
    # indifferent, across which the residual jumps from +44.6 to -47.5
    # degrees: the bisection ends at its edge, where the residual is NaN,
    # and reports nothing to close
    x0, params = _indifference_game(np.random.default_rng(77), False)
    kernel = params.kernel
    start = 141.46781514565333
    residual = fixedpoint._step(start, kernel)[0]
    assert 44.6 < residual < 44.7
    assert -47.6 < fixedpoint._step(x0 + 1e-7, kernel)[0] < -47.5
    angles = fixedpoint.circle_angles(fixedpoint.polynomial(kernel.alice, kernel.bob))
    end, closed = climb(start, residual, angles, kernel)
    assert closed is None
    assert 3.4e-7 < end - start < 3.5e-7 and abs(end - x0) <= 1e-7
    # the top seed of NEAR_TIE_K4_SWAPPED, an off-boundary game, climbs to
    # a wrap at 86.93550, where the residual jumps by about 180 degrees:
    # not flat, so its next seed runs and closes the crossing at alpha*
    ends.clear()
    ((alpha, _, _),) = fixedpoint.fixed_points(NEAR_TIE_K4_SWAPPED)
    assert abs(alpha - NEAR_TIE_K4_SWAPPED_ALPHA) <= 1e-6
    (start, residual, angles, kernel), _ = ends
    end, closed = climb(start, residual, angles, kernel)
    assert closed is False and abs(end - 86.93550) <= 1e-5


def test_climb_without_a_sign_change_closes_nothing(monkeypatch):
    # a residual of one sign on the whole half turn changes sign in no
    # cell: the walk samples each midpoint once and returns no end, and no
    # seed yields a row, where a walk that fell through to the bisection
    # would report a crossing at its last sample
    kernel = EX3.kernel
    angles = fixedpoint.circle_angles(fixedpoint.polynomial(kernel.alice, kernel.bob))
    samples = []

    def one_sign(alpha, kernel):
        samples.append(alpha)
        return 45.0, 1.0, kernel.bob[0]

    monkeypatch.setattr(fixedpoint, "_step", one_sign)
    end, closed = fixedpoint._climb(10.0, 45.0, angles, kernel)
    assert math.isnan(end) and not closed
    assert len(samples) == len(angles) > 1
    assert fixedpoint.fixed_points(EX3) == []


def _grid_regions(undefined, step_deg, kernel):
    """The degeneracy regions read off the whole grid arange(0, 180,
    step_deg): each alpha in undefined marks the cell of its nearest grid
    angle where the composed map is undefined there too, and otherwise
    the cell searchsorted finds; the runs of marked cells are the
    regions, the last ending at 180."""
    if not undefined:
        return ()
    grid = np.arange(0.0, 180.0, step_deg)
    alphas = np.array(undefined)
    nearest = np.rint(alphas / step_deg).astype(int) % len(grid)
    on_grid = [math.isnan(fixedpoint._step(x, kernel)[0]) for x in grid[nearest].tolist()]
    cells = np.zeros(len(grid), dtype=bool)
    cells[np.where(on_grid, nearest, np.searchsorted(grid, alphas, side="right") - 1)] = True
    edges = np.flatnonzero(np.diff(np.concatenate(([False], cells, [False]))))
    bounds = np.append(grid, 180.0)[edges].tolist()
    return tuple(zip(bounds[::2], bounds[1::2]))


@pytest.mark.parametrize("width", [1.0, 0.7, 1.0 / 3.0, 0.25, 0.1, 0.07, 0.001])
def test_regions_are_the_cells_of_the_grid(width):
    # the cells come from index arithmetic; on the boundary draws of the
    # indifference families they are the grid's cells bit for bit
    from test_equilibrium import _indifference_game

    regions = 0
    for seed in (77, 78):
        for mirror in (False, True):
            rng = np.random.default_rng(seed)
            for _ in range(200):
                params = _indifference_game(rng, mirror)[1]
                kernel = params.kernel
                if fixedpoint._certificate(kernel) != fixedpoint.BOUNDARY:
                    continue
                undefined = fixedpoint.indifference_points(params)[1]
                expected = _grid_regions(undefined, width, kernel)
                actual = fixedpoint._degeneracy_regions(undefined, width, kernel)
                assert repr(actual) == repr(expected), (params, width)
                regions += len(actual)
    assert regions >= 800


@pytest.mark.parametrize("width, regions", [
    (1e-9, ((60.00000000000001, 60.000000001000004),)),
    # a cell narrower than the spacing of doubles near 60, 7.1e-15, holds
    # one double, and the one undefined alpha, Bob's zero at 60 up to
    # rounding, falls in one cell
    (1e-300, ((59.99999999999999, 59.99999999999999),))])
def test_regions_at_a_tiny_cell_width(width, regions):
    # no grid of 180/width angles is built, so a cell width of 1e-9 or
    # 1e-300 costs what 0.25 does and finds the same equilibria
    params = GameParams(3, 1, 1, 1, 15.0, 75.0)
    result = find_equilibria(params, scan_step_deg=width)
    assert result.equilibria == find_equilibria(params).equilibria
    assert len(result.verified) == 2
    assert result.degeneracy_regions == regions


def test_regions_need_a_countable_cell_width():
    # below about 1e-306 the cell count 180/width overflows: a game with a
    # region raises, and one without still solves
    with pytest.raises(ValueError, match="too many cells"):
        find_equilibria(GameParams(3, 1, 1, 1, 15.0, 75.0), scan_step_deg=1e-310)
    (report,) = find_equilibria(EX3, scan_step_deg=1e-310).equilibria
    assert report.verified and abs(report.alpha_star_deg - 53.507396) <= 1e-6


def test_each_game_builds_its_kernel_once(monkeypatch):
    # a solve reads the kernel its game caches; a second solve of the same
    # game rebuilds no kernel
    def harmonic_kernel(*args):
        raise AssertionError("harmonic kernel rebuilt")

    for stakes, theta_a, theta_b in ((EX3.stakes, 30.0, 20.0), ((3, 1, 1, 1), 15.0, 70.0),
                                     ((3, 1, 1, 1), 30.0, 165.0), ((1, 1, 1, 1), 45.0, 45.0)):
        params = GameParams(*stakes, theta_a, theta_b)
        first = find_equilibria(params, scan_step_deg=0.7)
        with monkeypatch.context() as patched:
            patched.setattr(fixedpoint, "harmonic_kernel", harmonic_kernel)
            assert find_equilibria(params, scan_step_deg=0.7) == first
