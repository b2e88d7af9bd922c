"""Exact fixed-point enumeration checked against independent oracles.

The enumerator's polynomial is compared with a symbolic expansion built
from the payoff formula alone, its unit-circle roots with those mpmath
finds at 30 digits, its equilibria with a fine residual scan built from
the public best responses, and the scan cross-check inside the search is
shown to recover a root the enumerator drops.
"""

import math

import mpmath
import numpy as np
import pytest
import sympy as sp

from orthogame import fixedpoint
from orthogame.angles import signed_delta, wrapped_distance
from orthogame.equilibrium import (GameParams, best_response_alice,
                                   best_response_bob, find_equilibria,
                                   verify_equilibrium)

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
# A game whose only equilibrium sits where the residual rises by about
# 1.4e8 degrees per degree of alpha, and the angle of the fixed-point
# polynomial's root there, to about 4e-12 degrees.
STEEP_RESIDUAL = GameParams(4.088702178087739, 2.5629831542334123, 5.164779186923289,
                            1.7908755701264256, 89.93972978061063, 87.78688468208976)
STEEP_RESIDUAL_ROOT = 138.87948114637666


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
    expected = np.array(_symbolic_polynomial(params))
    actual = np.array(fixedpoint.polynomial(fixedpoint.harmonic_map(params, fixedpoint.ALICE),
                                            fixedpoint.harmonic_map(params, fixedpoint.BOB)))[::-1]
    assert len(actual) == len(expected) == 9
    # compare up to the positive scale each side chose
    expected, actual = (v / np.max(np.abs(v)) for v in (expected, actual))
    np.testing.assert_allclose(actual, expected, rtol=0, atol=1e-12)


def _reference_angles(coeffs):
    """Angles of the unit-circle roots found by mpmath at 30 digits."""
    with mpmath.workdps(30):
        roots = mpmath.polyroots([mpmath.mpc(c) for c in reversed(coeffs)],
                                 maxsteps=200, extraprec=60)
        return np.array([float(mpmath.arg(z)) for z in roots
                         if abs(abs(z) - 1) <= 1e-6])


def _circular_gap(x, y):
    return np.abs((x - y + np.pi) % (2 * np.pi) - np.pi)


def test_circle_angles_match_companion_matrix():
    rng = np.random.default_rng(808)
    matched = 0
    for _ in range(60):
        params = _random_game(rng)
        coeffs = fixedpoint.polynomial(fixedpoint.harmonic_map(params, fixedpoint.ALICE),
                                       fixedpoint.harmonic_map(params, fixedpoint.BOB))
        found = fixedpoint.circle_angles(coeffs)
        expected = _reference_angles(coeffs)
        for phi in expected:
            assert np.min(_circular_gap(found, phi)) <= 1e-6, (params, phi, found)
            matched += 1
        for phi in found:
            assert np.min(_circular_gap(expected, phi)) <= 1e-6, (params, phi, expected)
    assert matched >= 400


def test_circle_angles_finish_roots_on_the_polynomial():
    # the companion matrix's eigenvalues put this game's roots up to 4e-12
    # radians from the 30-digit roots; the Newton steps on T finish them
    coeffs = fixedpoint.polynomial(STEEP_RESIDUAL.kernel.alice, STEEP_RESIDUAL.kernel.bob)
    found = fixedpoint.circle_angles(coeffs)
    expected = _reference_angles(coeffs)
    assert len(found) == len(expected)
    assert all(np.min(_circular_gap(found, phi)) <= 1e-12 for phi in expected)


def _laurent_product(*factors):
    product = [1.0]
    for factor in factors:
        product = np.convolve(product, factor)
    return list(product.astype(complex))


@pytest.mark.parametrize("split, multiplicity", [
    pytest.param(0.0, 2, id="0.0"), pytest.param(1e-9, 2, id="1e-09"),
    pytest.param(1e-3, 2, id="0.001"), pytest.param(0.0, 3, id="triple")])
def test_circle_angles_double_and_close_roots(split, multiplicity):
    # (cos phi - c)^(m - 1) (cos phi - c') times a factor with no real
    # roots has the roots +-acos c and +-acos c' and no others; c' = c is
    # a pair of tangencies (m = 2) or of triple roots (m = 3), whose
    # companion-matrix eigenvalues lie about 1e-5 off the unit circle
    c, c2 = math.cos(1.1), math.cos(1.1) + split
    rootless = [0.5, 0, 2.0, 0, 0.5] if multiplicity == 2 else [0.5, 2.0, 0.5]
    coeffs = _laurent_product(*[[0.5, -c, 0.5]] * (multiplicity - 1), [0.5, -c2, 0.5], rootless)
    found = fixedpoint.circle_angles(coeffs)
    roots = np.array([1.1, -1.1, math.acos(c2), -math.acos(c2)])
    tol = 1e-9 if split > 1e-6 else 1e-5
    assert all(np.min(_circular_gap(found, r)) <= tol for r in roots)
    assert all(np.min(_circular_gap(roots, phi)) <= tol for phi in found)


def test_circle_angles_of_vanishing_polynomial():
    assert len(fixedpoint.circle_angles([0j] * 9)) == 0


def _scan_equilibria(params, step=0.01):
    """Verified fixed points of a fine residual scan of the public best responses."""
    alphas = np.arange(0.0, 180.0, step)
    beta = best_response_bob(alphas, params).angle_deg
    residual = signed_delta(best_response_alice(beta, params).angle_deg, alphas)
    following = np.roll(residual, -1)
    crossing = (residual * following < 0.0) & (np.abs(following - residual) < 90.0)
    found = []
    for i in np.flatnonzero(crossing):
        alpha = float(alphas[i] + step * residual[i] / (residual[i] - following[i]))
        response = best_response_bob(alpha, params)
        if (not response.degenerate
                and verify_equilibrium(alpha, response.angle_deg, params).verified):
            found.append(alpha)
    return found


def test_fine_scan_equilibria_are_all_reported():
    rng = np.random.default_rng(20260)
    scanned = 0
    for _ in range(300):
        params = _random_game(rng)
        reported = [e.alpha_star_deg for e in find_equilibria(params).verified]
        for alpha in _scan_equilibria(params):
            scanned += 1
            assert any(wrapped_distance(alpha, r) <= 0.01 for r in reported), (params, alpha)
    assert scanned >= 100


def test_steep_crossing_found_by_fine_scan():
    assert len(_scan_equilibria(STEEP)) == 1


def test_polished_root_accurate_where_bob_is_steep():
    (report,) = find_equilibria(STEEP_BOB).equilibria
    assert report.verified
    assert abs(report.alpha_star_deg - STEEP_BOB_ALPHA) <= 1e-11
    assert abs(report.beta_star_deg - STEEP_BOB_BETA) <= 1e-9


def test_polish_never_raises_the_residual():
    # a forward difference of 1e-6 degrees spans the residual's whole jump
    # here, so Newton steps overshoot; polish keeps the better of its start
    # and their end, so a start within the refine tolerance stays within it
    starts = STEEP_RESIDUAL_ROOT + np.arange(-5, 6) * 1e-12
    before = fixedpoint.compose(starts, STEEP_RESIDUAL)[1]
    alphas, betas, residuals = fixedpoint.polish(starts, STEEP_RESIDUAL)
    assert np.all(np.abs(before) <= 0.005)
    assert np.all(np.abs(residuals) <= np.abs(before))
    np.testing.assert_array_equal(fixedpoint.compose(alphas, STEEP_RESIDUAL),
                                  (betas, residuals))


def test_scan_cross_check_recovers_dropped_root(monkeypatch):
    expected = {params: [(e.alpha_star_deg, e.beta_star_deg) for e in find_equilibria(params)]
                for params in (EX1, EX3, FIG7)}
    enumerate_roots = fixedpoint.fixed_points
    monkeypatch.setattr(fixedpoint, "fixed_points",
                        lambda params, tol_deg: enumerate_roots(params, tol_deg)[1:])
    for params, points in expected.items():
        assert len(points) == 1
        result = find_equilibria(params)
        assert len(result) == 1 and len(result.verified) == 1
        eq = result.verified[0]
        assert wrapped_distance(eq.alpha_star_deg, points[0][0]) <= 1e-6
        assert wrapped_distance(eq.beta_star_deg, points[0][1]) <= 1e-6
        assert eq.residual_deg <= 1e-6


def test_scan_grid_is_cached_and_read_only():
    for step in (0.25, 0.125, 1.0, 0.7):
        alphas, phases = fixedpoint._scan_grid(step)
        assert fixedpoint._scan_grid(step)[0] is alphas
        np.testing.assert_array_equal(alphas, np.arange(0.0, 180.0, step))
        np.testing.assert_array_equal(phases, fixedpoint.phase(np.arange(0.0, 180.0, step)))
        for cached in (alphas, phases):
            with pytest.raises(ValueError):
                cached[0] = 1.0


def test_no_polish_without_a_root(monkeypatch):
    def newton(*args):
        raise AssertionError("polished without a root")

    monkeypatch.setattr(fixedpoint, "_newton", newton)
    rows = fixedpoint.fixed_points(EX2, 0.005)
    assert rows.shape == (0, 3) and rows.dtype == float
    assert len(find_equilibria(EX2)) == 0
    # criterion 3's game has a root, so its solve does polish
    with pytest.raises(AssertionError, match="polished without a root"):
        find_equilibria(EX3)


def test_each_game_builds_its_kernel_once(monkeypatch):
    # a solve reads the kernel its game caches; a second solve of the same
    # game rebuilds no harmonic map
    def harmonic_map(*args):
        raise AssertionError("harmonic map rebuilt")

    for stakes, theta_a, theta_b in ((EX3.stakes, 30.0, 20.0), ((3, 1, 1, 1), 15.0, 70.0),
                                     ((3, 1, 1, 1), 30.0, 165.0), ((1, 1, 1, 1), 45.0, 45.0)):
        params = GameParams(*stakes, theta_a, theta_b)
        first = find_equilibria(params, scan_step_deg=0.7)
        with monkeypatch.context() as patched:
            patched.setattr(fixedpoint, "harmonic_map", harmonic_map)
            assert find_equilibria(params, scan_step_deg=0.7) == first
