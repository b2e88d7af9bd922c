"""Invariances of the quantized game, checked as properties.

Derandomized and without an example database, so every run draws the
same examples.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from orthogame.angles import signed_delta, wrapped_distance
from orthogame.classical import PayoffMatrix
from orthogame.equilibrium import (DEGENERACY_SQ, GameParams, best_response_alice,
                                   best_response_bob, find_equilibria, verify_equilibrium)
from orthogame.fixedpoint import BOB, _harmonic, _reply, _step, circle_angles, phase
from orthogame.quantum import (LogicRepresentation, QuantumStrategy,
                               expectation, payoff_closed_form, payoff_operator)
from test_enumeration import _laurent_polynomial, _q

deterministic = settings(derandomize=True, deadline=None, database=None, max_examples=60)

stakes = st.tuples(*[st.floats(0.1, 10.0)] * 4)
mixing_angle = st.floats(1.0, 179.0).filter(lambda t: t != 90.0)
# decades of a stake scale, the extremes included
decades = st.sampled_from(range(-12, 13))
# the same, or a decade near the ends of the float range
wide_decades = st.one_of(decades, st.sampled_from([-300, -200, 200, 300]))
angle = st.floats(0.0, 180.0, exclude_max=True)


def _points(result):
    return [(e.alpha_star_deg, e.beta_star_deg, e.verified) for e in result]


def _same_points(first, second, tol_deg=1e-6):
    assert len(first) == len(second)
    for alpha, beta, verified in first:
        assert any(wrapped_distance(alpha, a) <= tol_deg and wrapped_distance(beta, b) <= tol_deg
                   and verified == v for a, b, v in second)


@deterministic
@given(stakes, mixing_angle, mixing_angle, wide_decades)
# Alice's stakes a + c sum past the largest double
@example((9.0, 9.0, 10.0, 3.0), 30.0, 20.0, 307)
def test_stake_scaling_keeps_equilibrium_angles(s, theta_a, theta_b, exponent):
    factor = 10.0 ** exponent
    base = find_equilibria(GameParams(*s, theta_a, theta_b))
    scaled = find_equilibria(GameParams(*(x * factor for x in s), theta_a, theta_b))
    _same_points(_points(base), _points(scaled))
    assert base.degeneracy_regions == scaled.degeneracy_regions


# a game whose stakes, near 5.5e303, once overflowed the Newton slope, so
# the search stopped at once and reported one unverified point
_LARGE = (5.55423676648651e+303, 1.1744664142033376e+299, 4.962261638258984e+303,
          1.8056864150678775e+298)


@deterministic
@given(stakes, mixing_angle, mixing_angle, st.integers(-1000, 1020))
@example(tuple(math.ldexp(x, -1000) for x in _LARGE), 8.534295027956205, 64.53218093940967, 1000)
def test_power_of_two_scaling_is_exact(s, theta_a, theta_b, power):
    # every stake stays normal, so the kernel, in units of a power of two,
    # is the same to the bit: so are the angles, verdicts and regions, and
    # value, terms and gains scale exactly
    factor = 2.0 ** power
    base = find_equilibria(GameParams(*s, theta_a, theta_b))
    scaled = find_equilibria(GameParams(*(x * factor for x in s), theta_a, theta_b))
    assert scaled.degeneracy_regions == base.degeneracy_regions
    assert ([(e.alpha_star_deg, e.beta_star_deg, e.verified, e.residual_deg) for e in scaled]
            == [(e.alpha_star_deg, e.beta_star_deg, e.verified, e.residual_deg) for e in base])
    assert ([(e.value, e.terms, e.max_violation) for e in scaled]
            == [(e.value * factor, (e.terms[0] * factor, e.terms[1] * factor),
                 e.max_violation * factor) for e in base])


@deterministic
@given(stakes, mixing_angle, mixing_angle, st.sampled_from([(180.0, 0.0), (-180.0, 0.0),
                                                            (0.0, 180.0), (0.0, -180.0)]))
def test_half_turn_shift_of_mixing_angle(s, theta_a, theta_b, shift):
    base = find_equilibria(GameParams(*s, theta_a, theta_b))
    shifted = find_equilibria(GameParams(*s, theta_a + shift[0], theta_b + shift[1]))
    _same_points(_points(base), _points(shifted))


@deterministic
@given(stakes, decades, mixing_angle, mixing_angle,
       st.floats(-360.0, 360.0), st.floats(-360.0, 360.0))
def test_payoff_paths_agree(s, exponent, theta_a, theta_b, alpha, beta):
    s = tuple(x * 10.0 ** exponent for x in s)
    rep_a, rep_b = LogicRepresentation(theta_a), LogicRepresentation(theta_b)
    sa, sb = QuantumStrategy(alpha), QuantumStrategy(beta)
    closed = payoff_closed_form(sa, sb, rep_a, rep_b, *s)
    operator = expectation(sa, sb, payoff_operator(rep_a, rep_b, PayoffMatrix.diagonal_game(*s)))
    assert abs(closed - operator) <= 1e-12 * max(s)
    assert np.isfinite(closed)


@deterministic
@given(stakes, decades, mixing_angle, mixing_angle, angle, angle,
       st.sampled_from([360, 720, 2880]))
def test_grid_gain_within_discretisation_of_analytic_gain(s, exponent, theta_a, theta_b,
                                                          alpha, beta, n_probe):
    # a player's payoff is K0 + |K| cos(2t - 2t*) in their own angle t; the
    # grid's nearest point is at most pi / n_probe away in 2t, so the grid
    # reaches the analytic best response's gain up to |K| (pi / n_probe)^2 / 2,
    # |K| in stake units
    params = GameParams(*(x * 10.0 ** exponent for x in s), theta_a, theta_b)
    unit = 2.0 ** params.kernel.exponent
    rounding = 1e-12 * max(params.stakes)
    response_a, response_b = best_response_alice(beta, params), best_response_bob(alpha, params)
    assume(not (response_a.degenerate or response_b.degenerate))
    value = float(params.payoff(alpha, beta))
    grid = np.arange(n_probe) * (180.0 / n_probe)
    gains = [
        (float(np.max(params.payoff(grid, beta))) - value,
         float(params.payoff(response_a.angle_deg, beta)) - value,
         abs(_harmonic(phase(beta), *params.kernel.alice)) * unit),
        (value - float(np.min(params.payoff(alpha, grid))),
         value - float(params.payoff(alpha, response_b.angle_deg)),
         abs(_harmonic(phase(alpha), *params.kernel.bob)) * unit),
    ]
    for grid_gain, analytic_gain, amplitude in gains:
        assert grid_gain <= analytic_gain + rounding
        assert analytic_gain - grid_gain <= amplitude * (math.pi / n_probe) ** 2 / 2 + rounding
    verdict = verify_equilibrium(alpha, beta, params, n_probe=n_probe)
    assert verdict.max_violation == pytest.approx(max(g[1] for g in gains), abs=rounding)


@deterministic
@given(stakes, wide_decades, mixing_angle, mixing_angle)
@example((0.0, 0.0, 0.0, 0.0), 0, 45.0, 45.0)
@example((1.0, 1.0, 1.0, 1.0), 0, 45.0, 45.0)
# Bob's harmonic vanishes exactly at alpha 60
@example((3.0, 1.0, 1.0, 1.0), 0, 15.0, 70.0)
# Alice's vanishes exactly at beta 30, Bob's answer to alpha 135
@example((3.0, 1.0, 1.0, 1.0), 0, 30.0, 165.0)
def test_step_matches_angle_form_composition(s, exponent, theta_a, theta_b):
    # the solver's residual never takes Bob's angle; composing the two
    # public best responses through it must give the same map, NaN
    # wherever a response is flat
    params = GameParams(*(x * 10.0 ** exponent for x in s), theta_a, theta_b)
    kernel = params.kernel
    alphas = np.arange(0.0, 180.0, 0.25)
    steps = [_step(alpha, kernel) for alpha in alphas.tolist()]
    beta = np.array([_reply(k_b, BOB, kernel) for _, _, k_b in steps])
    residual = np.array([r for r, _, _ in steps])
    expected_beta = best_response_bob(alphas, params).angle_deg
    expected = signed_delta(best_response_alice(expected_beta, params).angle_deg, alphas)
    assert np.array_equal(np.isnan(beta), np.isnan(expected_beta))
    assert np.array_equal(np.isnan(residual), np.isnan(expected))
    defined, composed = ~np.isnan(beta), ~np.isnan(expected)
    # the residual lies in [-90, 90], so a quarter turn may read as +90 or -90
    assert np.all(np.abs(signed_delta(beta[defined], expected_beta[defined])) <= 1e-9)
    assert np.all(np.abs(signed_delta(residual[composed], expected[composed])) <= 1e-9)


@deterministic
@given(stakes, decades, mixing_angle, mixing_angle, angle)
@example((0.0, 0.0, 0.0, 0.0), 0, 45.0, 45.0, 0.0)
@example((3.0, 1.0, 1.0, 1.0), 0, 15.0, 70.0, 60.0)
def test_kernel_harmonic_matches_payoff(s, exponent, theta_a, theta_b, x):
    # the payoff is F0 + K1 cos 2t + K2 sin 2t in a player's own angle t, so
    # the payoff at t = 0, 45 and 90 gives K = K1 + i K2 without the kernel;
    # the kernel holds K in units of 2^exponent
    params = GameParams(*(v * 10.0 ** exponent for v in s), theta_a, theta_b)
    kernel = params.kernel
    assert params.kernel is kernel
    unit = 2.0 ** kernel.exponent
    own = np.array([0.0, 45.0, 90.0])
    for harmonic, (f0, f45, f90) in ((kernel.alice, params.payoff(own, x)),
                                     (kernel.bob, params.payoff(x, own))):
        expected = (f0 - f90) / 2.0 + 1j * (f45 - (f0 + f90) / 2.0)
        assert abs(_harmonic(phase(x), *harmonic) * unit - expected) <= 1e-12 * max(params.stakes)
    scale = max(map(abs, params.stakes))
    assert kernel.scale == scale
    assert kernel.exponent == math.frexp(scale)[1]
    assert kernel.radius * unit == math.sqrt(DEGENERACY_SQ) * scale


@deterministic
@given(stakes, wide_decades, mixing_angle, mixing_angle)
# every coefficient zero
@example((0.0, 0.0, 0.0, 0.0), 0, 45.0, 45.0)
@example((1.0, 1.0, 1.0, 1.0), 0, 45.0, 45.0)
def test_circle_angles_hold_numpy_roots_on_the_circle(s, exponent, theta_a, theta_b):
    # every root numpy.roots finds on the unit circle is within 1e-6 of an
    # angle of the half-angle companion matrix, and no angle is NaN
    params = GameParams(*(x * 10.0 ** exponent for x in s), theta_a, theta_b)
    coeffs = _laurent_polynomial(params.kernel.alice, params.kernel.bob)
    # the terms in z^-4, z^4 and z^-3, z^3 are coeffs[0], coeffs[8], coeffs[1], coeffs[7];
    # circle_angles takes Q of a polynomial real on the circle, so a zeroed term
    # zeroes its conjugate too: zeroing coeffs[0] or coeffs[8] alone is (0, 8)
    for zeroed in ((), (0, 8), (0, 1, 7, 8)):
        zeroed_coeffs = [0j if k in zeroed else c for k, c in enumerate(coeffs)]
        q = _q(zeroed_coeffs)
        found = np.array(circle_angles(q))
        assert not np.any(np.isnan(found))
        if max(map(abs, q)) <= 1e-12:
            # a vanishing polynomial has no isolated roots to seed
            assert len(found) == 0
            continue
        roots = np.roots(zeroed_coeffs[::-1])
        for phi in np.angle(roots[np.abs(np.abs(roots) - 1.0) <= 1e-6]):
            assert np.min(np.abs((found - phi + np.pi) % (2 * np.pi) - np.pi)) <= 1e-6
