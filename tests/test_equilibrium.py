"""Best responses, reaction curves, and the fixed-point equilibrium search."""

import math
import pickle

import numpy as np
import pytest

from orthogame import equilibrium, quantum
from orthogame.angles import wrap_half_turn, wrapped_distance
from orthogame.equilibrium import (GameParams, best_response_alice,
                                   best_response_bob, find_equilibria,
                                   reaction_curves, verify_equilibrium)

EX1 = GameParams(3, 3, 5, 1, 10.0, 70.0)
EX2 = GameParams(1, 1, 1, 1, 45.0, 45.0)
EX3 = GameParams(3, 3, 5, 1, 30.0, 20.0)
FIG7 = GameParams(3, 3, 5, 1, 15.0, 35.0)

# independently refined fixed points (bisection on the composed map at 1e-12)
EX1_STAR = (145.4422305099, 59.3824150044, 2.4515210215)
EX3_STAR = (53.5073962816, 51.6622967369, 2.7065459849)
FIG7_STAR = (140.4312309346, 55.8243721293, 2.5677976097)


def _random_params(rng):
    stakes = rng.uniform(0.1, 10.0, size=4)
    while True:
        ta, tb = rng.uniform(-180.0, 180.0, size=2)
        if ta % 90.0 != 0.0 and tb % 90.0 != 0.0:
            return GameParams(*stakes, ta, tb)


def test_game_params_validation():
    with pytest.raises(ValueError):
        GameParams(1, 1, 1, 1, 90.0, 45.0)
    with pytest.raises(ValueError):
        GameParams(1, 1, 1, 1, 45.0, 180.0)
    with pytest.raises(ValueError):
        GameParams(math.inf, 1, 1, 1, 45.0, 45.0)
    # the flat game is a legitimate degenerate instance
    GameParams(0, 0, 0, 0, 45.0, 45.0)


def test_best_response_shift_rule_for_unit_45():
    # F reduces to 1 - cos(2a - 2b)/2: Alice peaks a half-period from Bob,
    # Bob matches Alice
    for beta in (0.0, 10.0, 45.0, 90.0, 133.7, 179.5):
        br = best_response_alice(beta, EX2)
        assert not br.degenerate
        assert wrapped_distance(br.angle_deg, wrap_half_turn(beta + 90.0)) <= 1e-9
    for alpha in (0.0, 20.0, 90.0, 145.0):
        br = best_response_bob(alpha, EX2)
        assert not br.degenerate
        assert wrapped_distance(br.angle_deg, alpha) <= 1e-9


def test_best_response_frozen_points():
    assert best_response_alice(59.5, EX1).angle_deg == pytest.approx(146.3753938046, abs=1e-6)
    assert best_response_bob(145.5, EX1).angle_deg == pytest.approx(59.1875347196, abs=1e-6)
    assert best_response_alice(33.5, EX1).angle_deg == pytest.approx(88.1300006183, abs=1e-6)


def test_best_response_degenerate_cases():
    flat = GameParams(0, 0, 0, 0, 45.0, 45.0)
    br = best_response_alice(77.0, flat)
    assert br.degenerate
    assert math.isnan(br.angle_deg)
    assert best_response_bob(12.0, flat).degenerate

    # with b = d = 0 and a = c the harmonic cancels exactly at beta = 45
    partial = GameParams(1, 0, 1, 0, 45.0, 45.0)
    assert best_response_alice(45.0, partial).degenerate
    assert not best_response_alice(44.0, partial).degenerate


def test_best_response_matches_dense_grid():
    rng = np.random.default_rng(67)
    grid = np.arange(0.0, 180.0, 0.01)
    for _ in range(60):
        p = _random_params(rng)
        beta = rng.uniform(0.0, 180.0)
        br = best_response_alice(beta, p)
        if not br.degenerate:
            best = grid[int(np.argmax(p.payoff(grid, beta)))]
            assert wrapped_distance(br.angle_deg, best) <= 0.01 + 1e-9
        alpha = rng.uniform(0.0, 180.0)
        br = best_response_bob(alpha, p)
        if not br.degenerate:
            best = grid[int(np.argmin(p.payoff(alpha, grid)))]
            assert wrapped_distance(br.angle_deg, best) <= 0.01 + 1e-9


def test_reaction_curves_sampling():
    with pytest.raises(ValueError):
        reaction_curves(EX1, 0.0)
    with pytest.raises(ValueError):
        reaction_curves(EX1, 6.0)
    curve_a, curve_b = reaction_curves(EX1, 1.0)
    assert len(curve_a.samples) == 180
    assert len(curve_b.samples) == 180
    assert curve_a.owner == "alice" and curve_b.owner == "bob"
    for s in curve_a.samples:
        assert 0.0 <= s.input_deg < 180.0
        assert 0.0 <= s.best_response_deg < 180.0


def test_reaction_curves_payoff_consistency():
    curve_a, curve_b = reaction_curves(EX1, 2.5)
    for s in curve_a.samples:
        assert s.payoff == pytest.approx(float(EX1.payoff(s.best_response_deg, s.input_deg)),
                                         abs=1e-12)
    for s in curve_b.samples:
        assert s.payoff == pytest.approx(float(EX1.payoff(s.input_deg, s.best_response_deg)),
                                         abs=1e-12)


def test_reaction_curves_unit_45_structure():
    curve_a, curve_b = reaction_curves(EX2, 1.0)
    for s in curve_a.samples:
        assert wrapped_distance(s.best_response_deg, wrap_half_turn(s.input_deg + 90.0)) <= 1e-9
    for s in curve_b.samples:
        assert wrapped_distance(s.best_response_deg, s.input_deg) <= 1e-9
    # the plotted Alice curve wraps where the input crosses 90
    values = [s.best_response_deg for s in curve_a.samples]
    assert abs(values[90] - values[89]) > 45.0
    assert not curve_a.degenerate_inputs
    assert not curve_b.degenerate_inputs


def test_reaction_curves_ex1_chart_jumps():
    curve_a, curve_b = reaction_curves(EX1, 0.5)
    values = [s.best_response_deg for s in curve_a.samples]
    jumps = [abs(b - a) for a, b in zip(values, values[1:])]
    # Alice's response crosses the 0/180 chart seam near beta = 100
    assert max(jumps) > 45.0
    # Bob's response stays inside the chart for this game
    values = [s.best_response_deg for s in curve_b.samples]
    jumps = [abs(b - a) for a, b in zip(values, values[1:])]
    assert max(jumps) < 5.0


def test_reaction_curves_report_degenerate_inputs():
    partial = GameParams(1, 0, 1, 0, 45.0, 45.0)
    curve_a, _ = reaction_curves(partial, 1.0)
    assert 45.0 in curve_a.degenerate_inputs
    assert 135.0 in curve_a.degenerate_inputs
    sample = next(s for s in curve_a.samples if s.input_deg == 45.0)
    assert math.isnan(sample.best_response_deg)
    assert math.isnan(sample.payoff)


def test_verify_equilibrium_accepts_ex1_fixed_point():
    verified, violation = verify_equilibrium(EX1_STAR[0], EX1_STAR[1], EX1)
    assert verified
    assert violation <= 1e-6 * 5


def test_verify_equilibrium_rejects_claimed_corner():
    verified, violation = verify_equilibrium(180.0, 180.0, EX2)
    assert not verified
    # moving to alpha = 90 raises Alice's payoff from 0.5 to 1.5
    assert violation == pytest.approx(1.0, abs=1e-9)


def test_verify_equilibrium_flat_game():
    flat = GameParams(0, 0, 0, 0, 45.0, 45.0)
    verified, violation = verify_equilibrium(12.0, 155.0, flat)
    assert verified
    assert violation == 0.0


def test_verify_equilibrium_probe_validation():
    with pytest.raises(ValueError):
        verify_equilibrium(0.0, 0.0, EX1, n_probe=100)


@pytest.mark.parametrize("n_probe", [720.5, 720.0, "720"])
def test_probe_count_must_be_an_integer(n_probe):
    with pytest.raises(ValueError, match="n_probe must be an integer"):
        verify_equilibrium(EX1_STAR[0], EX1_STAR[1], EX1, n_probe=n_probe)
    with pytest.raises(ValueError, match="n_probe must be an integer"):
        find_equilibria(EX1, n_probe=n_probe)


def test_probe_count_accepts_numpy_integers():
    want = verify_equilibrium(EX1_STAR[0], EX1_STAR[1], EX1, n_probe=2880)
    assert verify_equilibrium(EX1_STAR[0], EX1_STAR[1], EX1, n_probe=np.int64(2880)) == want
    assert len(find_equilibria(EX1, n_probe=np.int32(720)).verified) == 1


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("position", [0, 1])
def test_verify_equilibrium_non_finite_angle_is_not_verified(bad, position):
    # max() over gains would skip a NaN, so the guard comes first; warnings
    # are errors in this suite, so none may be raised on the way
    profile = [EX1_STAR[0], EX1_STAR[1]]
    profile[position] = bad
    for n_probe in (720, 2880):
        verified, violation = verify_equilibrium(*profile, EX1, n_probe=n_probe)
        assert verified is False
        assert math.isnan(violation)


def test_verification_evaluates_no_payoff_and_no_best_response(monkeypatch):
    # the deviation gains come from the kernel in closed form and a report's
    # value from its terms, so a solve evaluates no payoff at all
    calls = []

    def counting(*args):
        calls.append(args)
        return quantum.payoff_grid(*args)

    def forbidden(*args):
        raise AssertionError("best response called")

    monkeypatch.setattr(equilibrium, "payoff_grid", counting)
    monkeypatch.setattr(equilibrium, "best_response_alice", forbidden)
    monkeypatch.setattr(equilibrium, "best_response_bob", forbidden)
    result = find_equilibria(EX1)
    assert len(result) == 1 and result[0].verified
    assert verify_equilibrium(EX1_STAR[0], EX1_STAR[1], EX1, n_probe=2880).verified
    assert calls == []
    # the counter is live: the payoff itself still goes through it
    assert EX1.payoff(EX1_STAR[0], EX1_STAR[1]) == pytest.approx(result[0].value, abs=1e-12)
    assert len(calls) == 1


def test_report_numbers_are_python_floats_for_numpy_stakes():
    params = GameParams(*np.array([3.0, 3.0, 5.0, 1.0]), np.float64(10.0), np.float64(70.0))
    result = find_equilibria(params)
    assert len(result) == 1
    for e in result:
        assert type(e.value) is float and type(e.max_violation) is float
    verdict = verify_equilibrium(result[0].alpha_star_deg, result[0].beta_star_deg, params)
    assert type(verdict.max_violation) is float


def test_find_equilibria_parameter_validation():
    with pytest.raises(ValueError):
        find_equilibria(EX1, scan_step_deg=2.0)
    with pytest.raises(ValueError):
        find_equilibria(EX1, refine_tol_deg=0.02)
    with pytest.raises(ValueError, match="n_probe must be at least 360"):
        find_equilibria(GameParams(1, 1, 1, 1, 45.0, 45.0), n_probe=10)


def test_find_equilibria_ex1():
    result = find_equilibria(EX1)
    assert len(result.verified) == 1
    eq = result.verified[0]
    assert eq.alpha_star_deg == pytest.approx(EX1_STAR[0], abs=0.005)
    assert eq.beta_star_deg == pytest.approx(EX1_STAR[1], abs=0.005)
    assert eq.value == pytest.approx(EX1_STAR[2], abs=1e-4)
    assert eq.residual_deg <= 0.005
    assert eq.max_violation <= 1e-6 * 5
    assert eq.terms[0] + eq.terms[1] == pytest.approx(eq.value, abs=1e-12)
    np.testing.assert_allclose(eq.amplitudes_a.as_tuple(),
                               (0.6782, 0.5077, 0.3218, 0.4923), atol=1e-3)
    np.testing.assert_allclose(eq.amplitudes_b.as_tuple(),
                               (0.2594, 0.9661, 0.7406, 0.0339), atol=1e-3)
    assert not result.degeneracy_regions


def test_find_equilibria_ex2_empty():
    # the composed map shifts every angle by a constant quarter turn, so
    # there is no fixed point at any resolution
    for step in (0.25, 0.125):
        result = find_equilibria(EX2, scan_step_deg=step)
        assert len(result) == 0
        assert not result.degeneracy_regions


def test_find_equilibria_ex3_finds_verified_point():
    # the bundled reference tables claim absence here; recomputation
    # disagrees and `reproduce 3` audits the difference
    result = find_equilibria(EX3)
    assert len(result.verified) == 1
    eq = result.verified[0]
    assert eq.alpha_star_deg == pytest.approx(EX3_STAR[0], abs=0.005)
    assert eq.beta_star_deg == pytest.approx(EX3_STAR[1], abs=0.005)
    assert eq.value == pytest.approx(EX3_STAR[2], abs=1e-4)


def test_find_equilibria_fig7_unique_and_stable():
    first = find_equilibria(FIG7, scan_step_deg=0.25)
    second = find_equilibria(FIG7, scan_step_deg=0.125)
    assert len(first.verified) == 1
    assert len(second.verified) == 1
    eq1, eq2 = first.verified[0], second.verified[0]
    assert wrapped_distance(eq1.alpha_star_deg, eq2.alpha_star_deg) <= 0.005
    assert wrapped_distance(eq1.beta_star_deg, eq2.beta_star_deg) <= 0.005
    assert eq1.alpha_star_deg == pytest.approx(FIG7_STAR[0], abs=0.005)
    assert eq1.beta_star_deg == pytest.approx(FIG7_STAR[1], abs=0.005)
    assert eq1.value == pytest.approx(FIG7_STAR[2], abs=1e-4)


def test_find_equilibria_reverified_at_higher_probe_density():
    for params in (EX1, EX3, FIG7):
        for eq in find_equilibria(params).verified:
            verified, _ = verify_equilibrium(eq.alpha_star_deg, eq.beta_star_deg,
                                             params, n_probe=2880)
            assert verified


def test_find_equilibria_degeneracy_regions():
    flat = GameParams(0, 0, 0, 0, 45.0, 45.0)
    result = find_equilibria(flat)
    assert len(result) == 0
    assert result.degeneracy_regions == ((0.0, 180.0),)

    partial = GameParams(1, 0, 1, 0, 45.0, 45.0)
    regions = find_equilibria(partial).degeneracy_regions
    assert any(lo <= 45.0 < hi for lo, hi in regions)
    assert any(lo <= 135.0 < hi for lo, hi in regions)


def test_solved_game_keeps_equality_hash_repr_and_pickles():
    # the kernel cached by a solve is no field: it changes neither ==,
    # hash nor repr, and it survives a pickle round trip
    params, fresh = GameParams(3, 3, 5, 1, 30.0, 20.0), GameParams(3, 3, 5, 1, 30.0, 20.0)
    result = find_equilibria(params)
    assert params == fresh
    assert (hash(params), repr(params)) == (hash(fresh), repr(fresh))
    restored = pickle.loads(pickle.dumps(params))
    assert restored == params
    assert (hash(restored), repr(restored)) == (hash(params), repr(params))
    assert restored.kernel == params.kernel
    assert find_equilibria(restored) == find_equilibria(fresh) == result


def test_find_equilibria_where_both_players_are_indifferent():
    # Bob's harmonic vanishes at alpha 45 and 135 and Alice's at beta 45
    # and 135, so each of the four profiles is an equilibrium at which
    # neither player has a unique best reply
    partial = GameParams(1, 0, 1, 0, 45.0, 45.0)
    result = find_equilibria(partial)
    assert len(result) == len(result.verified) == 4
    assert [(e.alpha_star_deg, e.beta_star_deg) for e in result] == pytest.approx(
        [(45.0, 45.0), (45.0, 135.0), (135.0, 45.0), (135.0, 135.0)], abs=1e-9)
    assert all(e.residual_deg == 0.0 for e in result)


def _indifference_game(rng, mirror):
    """x0 and a game in which Bob is indifferent against alpha = x0
    (a = c tan^2 x0, b = d tan^2 (x0 - theta_a)) or, mirrored, Alice
    against beta = x0 (a = c cot^2 x0, b = d cot^2 (x0 - theta_b))."""
    x0, theta_a, theta_b = rng.uniform(0.0, 180.0), *rng.uniform(1.0, 179.0, 2)
    c, d = rng.uniform(0.1, 10.0, 2)
    shift = theta_b if mirror else theta_a
    t, u = math.tan(math.radians(x0)) ** 2, math.tan(math.radians(x0 - shift)) ** 2
    a, b = (c / t, d / u) if mirror else (c * t, d * u)
    return x0, GameParams(a, b, c, d, theta_a, theta_b)


def _indifference_partners(x0, params, mirror, step=0.01):
    """Verified profiles pairing x0 with each angle whose best reply by the
    other player is x0, from a fine scan of the public best responses
    whose sign changes are bisected."""
    respond = best_response_bob if mirror else best_response_alice

    def defect(y):
        return (respond(y, params).angle_deg - x0 + 90.0) % 180.0 - 90.0

    ys = np.arange(0.0, 180.0, step)
    scanned = defect(ys)
    following = np.roll(scanned, -1)
    found = []
    for i in np.flatnonzero((scanned * following < 0.0) & (np.abs(following - scanned) < 90.0)):
        lo, hi = float(ys[i]), float(ys[i]) + step
        for _ in range(50):
            mid = (lo + hi) / 2.0
            lo, hi = (mid, hi) if defect(mid) * scanned[i] > 0.0 else (lo, mid)
        profile = ((lo + hi) / 2.0, x0) if mirror else (x0, (lo + hi) / 2.0)
        if verify_equilibrium(*profile, params, n_probe=2880).verified:
            found.append(profile)
    return found


@pytest.mark.parametrize("mirror", [False, True])
def test_find_equilibria_reports_indifference_equilibria(mirror):
    # one player's harmonic vanishes at x0, so the composed map is
    # undefined there; every equilibrium pairs x0 with a partner angle
    rng = np.random.default_rng(6061 + mirror)
    with_partner = with_two = 0
    for _ in range(40):
        x0, params = _indifference_game(rng, mirror)
        expected = _indifference_partners(x0, params, mirror)
        result = find_equilibria(params)
        reported = [(e.alpha_star_deg, e.beta_star_deg) for e in result.verified]
        # equilibria of a zero-sum game are interchangeable, so with x0 in
        # one of them every other pairs x0 with a partner as well
        assert not expected or len(reported) == len(expected), (params, expected, reported)
        for alpha, beta in expected:
            assert any(wrapped_distance(alpha, a) <= 1e-6 and wrapped_distance(beta, b) <= 1e-6
                       for a, b in reported), (params, alpha, beta, reported)
        # the composed map is undefined at the alpha of each such profile
        # (x0 where Bob is indifferent, or the alpha Bob answers with x0),
        # so the scan cell holding it is a degeneracy region even where
        # that alpha is off the grid
        for alpha, _ in expected:
            assert any(lo <= alpha <= hi for lo, hi in result.degeneracy_regions), (params, alpha)
        # the composed map jumps at that alpha, so a scan bracket across it
        # is no unexplained crossing and adds no unverified candidate
        assert len(result) == len(result.verified), (params, x0, list(result))
        with_partner += bool(expected)
        with_two += len(expected) == 2
    assert with_partner >= 10 and with_two >= 2


def test_find_equilibria_two_equilibria_share_the_indifferent_coordinate():
    # a = 3c = c tan^2 60 and b = d = d tan^2 (60 - 15): Bob is indifferent
    # at alpha 60, and Alice answers both beta 0 and beta 30 with alpha 60
    params = GameParams(3, 1, 1, 1, 15.0, 75.0)
    result = find_equilibria(params)
    assert len(result) == len(result.verified) == 2
    for eq, beta in zip(result, (0.0, 30.0)):
        assert wrapped_distance(eq.alpha_star_deg, 60.0) <= 1e-9
        assert wrapped_distance(eq.beta_star_deg, beta) <= 1e-9
        assert eq.value == pytest.approx(1.25, abs=1e-12)
        assert verify_equilibrium(eq.alpha_star_deg, eq.beta_star_deg, params,
                                  n_probe=2880).verified
    assert result.degeneracy_regions == ((60.0, 60.25),)


def test_find_equilibria_bob_indifference_inside_a_coarse_scan_bracket():
    # Bob is indifferent at alpha 60, which lies inside the scan cell
    # [59.5, 60.2) at step 0.7; the residual changes sign across that
    # jump, and the cell explains it instead of adding a candidate
    params = GameParams(3, 1, 1, 1, 15.0, 70.0)
    result = find_equilibria(params, scan_step_deg=0.7)
    assert len(result) == len(result.verified) == 1
    assert wrapped_distance(result[0].alpha_star_deg, 60.0) <= 1e-9
    assert result[0].beta_star_deg == pytest.approx(175.958, abs=1e-3)
    (region,) = result.degeneracy_regions
    assert region == pytest.approx((59.5, 60.2))


def test_find_equilibria_alice_indifference_inside_a_scan_bracket():
    # Alice is indifferent at beta 172.512, Bob's answer to alpha 98.232;
    # the residual changes sign across the jump of the composed map there,
    # and that alpha explains the bracket instead of adding a crossing
    # whose residual, 5.8 degrees, the absolute tolerance of
    # verify_equilibrium passes
    params = GameParams(167.00504877064787, 1.0707185339242116, 2.88508741956004,
                        4.303956504759381, 122.06087752912387, 109.0210108951516)
    result = find_equilibria(params)
    assert len(result) == len(result.verified) == 1
    assert result[0].alpha_star_deg == pytest.approx(98.232333, abs=1e-6)
    assert result[0].residual_deg <= 1e-9
    assert result.degeneracy_regions == ((98.0, 98.25),)


def test_search_result_container_protocol():
    result = find_equilibria(EX1)
    assert len(result) == len(list(result))
    assert result[0] is result.equilibria[0]


def test_find_equilibria_keeps_steep_crossing():
    # the composed residual jumps from +64.3 at 75.0 to -25.7 at 75.25: a
    # true crossing steeper than a quarter turn per scan step
    steep = GameParams(4.0215, 9.0215, 0.2523, 3.0968, 134.8434, 29.7447)
    for step in (0.25, 0.125):
        result = find_equilibria(steep, scan_step_deg=step)
        assert len(result.verified) == 1
        assert wrapped_distance(result.verified[0].alpha_star_deg, 75.21) <= 0.01


def test_find_equilibria_keeps_root_finished_on_the_polynomial():
    # Bob is steep here: the residual is 3.0e-3 degrees at the
    # eigenvalue's angle and rises by about 1.4e8 degrees per degree of
    # alpha, and Newton's iteration on the residual must still finish it
    params = GameParams(4.088702178087739, 2.5629831542334123, 5.164779186923289,
                        1.7908755701264256, 89.93972978061063, 87.78688468208976)
    for step in (0.25, 0.125):
        result = find_equilibria(params, scan_step_deg=step)
        assert len(result) == len(result.verified) == 1
        eq = result.verified[0]
        assert eq.alpha_star_deg == pytest.approx(138.879481, abs=1e-5)
        assert eq.beta_star_deg == pytest.approx(48.197730, abs=1e-5)
        assert eq.value == pytest.approx(3.335652, abs=1e-5)
        assert verify_equilibrium(eq.alpha_star_deg, eq.beta_star_deg, params,
                                  n_probe=2880).verified


def test_find_equilibria_tiny_stakes_not_degenerate():
    # degeneracy is judged relative to the largest stake, so EX1 in
    # nano-units, or at the ends of the float range, has the same single
    # equilibrium and no flat regions
    for factor in (1e-9, 1e-12, 1e-200, 1e200):
        tiny = GameParams(3 * factor, 3 * factor, 5 * factor, 1 * factor, 10.0, 70.0)
        for step in (0.25, 0.125):
            result = find_equilibria(tiny, scan_step_deg=step)
            assert len(result) == 1 and len(result.verified) == 1
            assert result.verified[0].alpha_star_deg == pytest.approx(145.442, abs=0.005)
            assert not result.degeneracy_regions
            assert not best_response_alice(59.5, tiny).degenerate


def test_reaction_curves_match_scalar_loop():
    # the per-sample loop over the public scalar best responses is the reference
    for params in (EX1, GameParams(1, 0, 1, 0, 45.0, 45.0)):
        for owner, curve in zip(("alice", "bob"), reaction_curves(params, 0.5)):
            respond = best_response_alice if owner == "alice" else best_response_bob
            degenerate = []
            for s in curve.samples:
                br = respond(s.input_deg, params)
                if br.degenerate:
                    degenerate.append(s.input_deg)
                    assert math.isnan(s.best_response_deg) and math.isnan(s.payoff)
                    continue
                pay = (params.payoff(br.angle_deg, s.input_deg) if owner == "alice"
                       else params.payoff(s.input_deg, br.angle_deg))
                assert s.best_response_deg == pytest.approx(br.angle_deg, abs=1e-12)
                assert s.payoff == pytest.approx(float(pay), abs=1e-12)
            assert curve.degenerate_inputs == tuple(degenerate)
            assert len(curve.samples) == 360
