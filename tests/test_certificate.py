"""The disk certificate that decides how much of the search
fixedpoint.solve runs.

The mixed extension of the game is bilinear on two disks, so c = M^-1 a
and d = M^-T b decide whether a pure equilibrium exists (see
fixedpoint._certificate): an absent game is skipped whole, an
off-boundary game has exactly one equilibrium and no indifference, and
only a boundary game gets the indifference rows and regions.  Here the
certificate is checked against the whole solve with the skips bypassed,
against the number of verified reports as a count oracle whose norms
come from numpy's solver, for the consistency of the two players'
harmonics, for scaling, and on the games it must never skip.
"""

import collections
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from orthogame import fixedpoint
from orthogame.angles import signed_delta
from orthogame.equilibrium import GameParams, find_equilibria, verify_equilibrium
from orthogame.fixedpoint import ABSENT, BOUNDARY, OFF_BOUNDARY
from test_corpus import _heterogeneous_games, _oracle_gain, _swapped, _sweep_games
from test_equilibrium import _indifference_game
from test_properties import deterministic, mixing_angle, stakes, wide_decades

# a Bob-indifferent game (test_equilibrium._indifference_game) with stake a
# moved so that |d| = 1 - 1e-14 by numpy's solver, and |c| about 0.475:
# no pure equilibrium exists, but Bob's harmonic dips to about 1e-14
# times the stakes, and the solve reports a verified near-equilibrium
NEAR_BOUNDARY = GameParams(15.101032261931065, 0.7937925009565598, 6.445307400664978,
                           1.160186011759136, 83.56073609483937, 40.49616353127294)


def _block(harmonic) -> np.ndarray:
    """[[Re m_1, Re m_2], [Im m_1, Im m_2]] of a harmonic (kappa0, m_1, m_2)."""
    _, m_1, m_2 = harmonic
    return np.array([[m_1.real, m_2.real], [m_1.imag, m_2.imag]])


def _norms(params: GameParams) -> tuple[float, float]:
    """|c| and |d| from numpy's solver on the kernel, inf where M is singular."""
    kernel = params.kernel
    m = _block(kernel.alice)
    a, b = kernel.alice[0], kernel.bob[0]
    try:
        c = np.linalg.solve(m, [a.real, a.imag])
        d = np.linalg.solve(m.T, [b.real, b.imag])
    except np.linalg.LinAlgError:
        return math.inf, math.inf
    return float(np.linalg.norm(c)), float(np.linalg.norm(d))


def _mixed_sign_games(count: int) -> list[GameParams]:
    """Stakes U(-10, 10) each, angles U(1, 179), from default_rng(99)."""
    rng = np.random.default_rng(99)
    return [GameParams(*rng.uniform(-10.0, 10.0, 4), *rng.uniform(1.0, 179.0, 2))
            for _ in range(count)]


def _certify_nothing(kernel):
    return BOUNDARY


def test_skipped_games_hold_no_verified_fixed_point(monkeypatch):
    # the oracle is the whole solve with the skip bypassed, so a
    # certificate that skipped a game with an equilibrium, or with a
    # degeneracy region, fails here
    games = (_sweep_games(1, 1000) + _sweep_games(5151, 3000) + _heterogeneous_games(2, 2000)
             + _heterogeneous_games(3, 2000) + _heterogeneous_games(4, 1000)
             + _mixed_sign_games(2000))
    skipped = [g for g in games if fixedpoint._certificate(g.kernel) == ABSENT]
    assert len(skipped) == 485 + 1391 + 176 + 95 + 20 + 206
    monkeypatch.setattr(fixedpoint, "_certificate", _certify_nothing)
    for params in skipped:
        rows, regions = fixedpoint.solve(params, 0.25)
        assert regions == (), params
        for alpha, beta, _ in rows:
            assert not verify_equilibrium(alpha, beta, params).verified, (params, alpha)


def _absent_sweep_games() -> list[GameParams]:
    """The 485 games of _sweep_games(1, 1000) that the certificate proves
    to have no pure equilibrium."""
    return [g for g in _sweep_games(1, 1000) if fixedpoint._certificate(g.kernel) == ABSENT]


@pytest.mark.kernel_sensitive
def test_a_game_whose_seeds_yield_no_row_costs_a_bounded_search(monkeypatch):
    # solved as boundary games, the sweep recipe's absent games have no
    # indifference row, so every seed runs Newton's iteration and its
    # climb, and none yields a row: each climb takes at most one sample
    # per root angle and one bisection, about 50 evaluations per seed.
    # They average 382.6 evaluations (382.5 under OpenBLAS's Prescott
    # kernel); seeding a repeated eigenvalue angle twice would take 400
    skipped = _absent_sweep_games()
    calls, step = [], fixedpoint._step

    def counted(*args):
        calls.append(args)
        return step(*args)

    monkeypatch.setattr(fixedpoint, "_certificate", _certify_nothing)
    monkeypatch.setattr(fixedpoint, "_step", counted)
    for params in skipped:
        assert fixedpoint.solve(params, 0.25) == ([], ()), params
    assert len(skipped) == 485 and len(calls) <= 385 * len(skipped)


@pytest.mark.kernel_sensitive
def test_each_distinct_root_seeds_once(monkeypatch):
    # both eigenvalues of a conjugate pair give the same angle to the bit,
    # and so does each vanishing leading coefficient (phi = pi); the
    # sweep recipe's absent games, solved as boundary games, try every
    # seed, and 134 of them have such a repeat
    skipped = _absent_sweep_games()
    starts, newton = [], fixedpoint._newton

    def recorded(alpha, *args):
        starts[-1].append(alpha)
        return newton(alpha, *args)

    monkeypatch.setattr(fixedpoint, "_certificate", _certify_nothing)
    monkeypatch.setattr(fixedpoint, "_newton", recorded)
    for params in skipped:
        starts.append([])
        assert fixedpoint.solve(params, 0.25) == ([], ()), params
    assert len(starts) == 485 and sum(map(len, starts)) > 3000
    assert all(len(set(alphas)) == len(alphas) for alphas in starts)


def test_proven_absence_skips_the_whole_solve(monkeypatch):
    # no enumeration, closed-form zero or region is computed for a game
    # whose absence is proven; the unit-stake game at 30/20 is not
    # certified, so it shows that the patches are live
    (certified, *_) = _absent_sweep_games()

    def forbidden(*args):
        raise AssertionError("searched a game whose absence is proven")

    for name in ("fixed_points", "indifference_points", "_degeneracy_regions"):
        monkeypatch.setattr(fixedpoint, name, forbidden)
    result = find_equilibria(certified)
    assert result.equilibria == () and result.degeneracy_regions == ()
    with pytest.raises(AssertionError, match="searched"):
        find_equilibria(GameParams(3, 3, 5, 1, 30.0, 20.0))


def test_sweep_skip_count_is_pinned():
    # a later edit that makes every game fall through to the search, by
    # an overflow or a NaN, fails here instead of only slowing the sweep
    games = _sweep_games(1, 1000)
    classes = collections.Counter(fixedpoint._certificate(g.kernel) for g in games)
    assert classes == {ABSENT: 485, OFF_BOUNDARY: 515}


@pytest.mark.parametrize("k, pinned", [
    (2, {}),
    # the solver reports two equilibria at draw 8476, a boundary game:
    # |c| = 1.005 and |d| = 12,089, but M is so near singular that the
    # gap |det M| (|c| - 1) lies within the certificate's margin
    (3, {8476: (2, 1)}),
])
def test_certificate_counts_the_verified_reports(k, pinned):
    # both norms below 1: no pure equilibrium; either above 1 and neither
    # equal to 1: exactly one.  Games within 1e-6 of the boundary are left
    # out, where more than one equilibrium can exist.
    disagree = {}
    for index, params in enumerate(_heterogeneous_games(k, 10_000)):
        norms = _norms(params)
        if any(abs(x - 1.0) <= 1e-6 for x in norms):
            continue
        want = 0 if max(norms) < 1.0 else 1
        got = len(find_equilibria(params).verified)
        if got != want:
            disagree[index] = (got, want)
    assert disagree == pinned


@deterministic
@given(stakes, wide_decades, mixing_angle, mixing_angle)
@example((3.0, 3.0, 5.0, 1.0), 0, 30.0, 20.0)
def test_bob_block_is_the_transpose_of_alices(s, exponent, theta_a, theta_b):
    # F = f0 + a.p + b.q + p.Mq, so Bob's harmonic is b + M^T p
    kernel = GameParams(*(x * 10.0 ** exponent for x in s), theta_a, theta_b).kernel
    alice, bob = _block(kernel.alice), _block(kernel.bob)
    assert np.max(np.abs(bob - alice.T)) <= 1e-12 * np.max(np.abs(alice))


@deterministic
@given(stakes, st.sampled_from([-300, 300]), mixing_angle, mixing_angle)
def test_skip_decision_survives_extreme_stake_decades(s, exponent, theta_a, theta_b):
    # the certificate divides by the largest stake, so no product of two
    # coefficients overflows near 1e308 or underflows near 1e-300
    base = GameParams(*s, theta_a, theta_b)
    scaled = GameParams(*(x * 10.0 ** exponent for x in s), theta_a, theta_b)
    assert fixedpoint._certificate(scaled.kernel) == fixedpoint._certificate(base.kernel)


def test_skip_decision_at_stakes_near_the_float_limit():
    # criterion 3's game times 3e307 keeps its equilibrium (see
    # test_equilibrium), so neither it nor the unit-stake game skips
    near_limit = GameParams(9e307, 9e307, 1.5e308, 3e307, 30.0, 20.0)
    assert fixedpoint._certificate(near_limit.kernel) == OFF_BOUNDARY
    assert fixedpoint._certificate(GameParams(3, 3, 5, 1, 30.0, 20.0).kernel) == OFF_BOUNDARY


@pytest.mark.parametrize("seed, mirror", [(77, False), (77, True), (78, False), (78, True)])
def test_indifference_families_are_never_skipped(seed, mirror):
    # each draw has one player indifferent on the circle, so a norm is 1
    rng = np.random.default_rng(seed)
    for _ in range(2000):
        params = _indifference_game(rng, mirror)[1]
        assert fixedpoint._certificate(params.kernel) == BOUNDARY, params


@pytest.mark.parametrize("params", [
    NEAR_BOUNDARY,
    # a + c = 0, so m_1 and m_2 are parallel and M has rank 1
    GameParams(1.0, 2.0, -1.0, 3.0, 30.0, 20.0),
    GameParams(0.0, 0.0, 0.0, 0.0, 45.0, 45.0),
])
def test_games_on_the_boundary_are_never_skipped(params, monkeypatch):
    # the rank-1 game is off the boundary: |K| >= |adj(M) a|/|M|_F holds
    # for singular M too, so nothing is pruned that could be found
    assert fixedpoint._certificate(params.kernel) != ABSENT
    result = find_equilibria(params)
    monkeypatch.setattr(fixedpoint, "_certificate", _certify_nothing)
    assert find_equilibria(params) == result


def test_the_certificate_prunes_work_and_decides_no_answer(monkeypatch):
    # solved as a boundary game, an off-boundary game also reaches the
    # indifference search and the regions, which find nothing there, and
    # it tries its seeds by the same rule, so the certificate changes what
    # is computed, never what is found.  Swapped draw 855 of the k = 4
    # family is found at its second seed
    plain = _sweep_games(1, 1000) + _heterogeneous_games(4, 1000) + _mixed_sign_games(500)
    games = [params for params in plain + [_swapped(params) for params in plain]
             if fixedpoint._certificate(params.kernel) == OFF_BOUNDARY]
    assert len(games) == 2 * (515 + 963) + 898
    assert _swapped(_heterogeneous_games(4, 1000)[855]) in games
    expected = [find_equilibria(params) for params in games]
    monkeypatch.setattr(fixedpoint, "_certificate", _certify_nothing)
    for params, result in zip(games, expected):
        assert find_equilibria(params) == result, params


@pytest.mark.parametrize("bad", [complex(math.inf, 0.0), complex(-math.inf, 0.0),
                                 complex(math.nan, 0.0), complex(0.0, math.inf)])
@pytest.mark.parametrize("position", range(4))
def test_non_finite_coefficients_never_pass(bad, position):
    # GameParams keeps every stake and so every coefficient finite; a
    # hand-built kernel reaches the case.  As given, M is the identity and
    # |c|, |d| are 0.22 and 0.14, so the certificate holds.
    def kernel(a, m_1, m_2, b):
        return fixedpoint.HarmonicKernel((a, m_1, m_2), (b, 0j, 0j), 1.0, 1e-9)

    coefficients = [0.1 + 0.2j, 1.0 + 0.0j, 1.0j, 0.1 - 0.1j]
    assert fixedpoint._certificate(kernel(*coefficients)) == ABSENT
    coefficients[position] += bad
    assert fixedpoint._certificate(kernel(*coefficients)) == BOUNDARY


def test_near_boundary_game_is_built_as_stated():
    norm_c, norm_d = _norms(NEAR_BOUNDARY)
    assert abs(norm_d - (1.0 - 1e-14)) <= 2e-16 and norm_c < 0.5
    assert len(find_equilibria(NEAR_BOUNDARY).verified) == 1


# draws of _heterogeneous_games(3, 10_000) off the boundary whose one
# equilibrium Newton's iteration from the maximum of Alice's security
# level does not converge on: the residual climbs so steeply through the
# fixed point that it still reads 33 to 90 degrees at the seed, 2e-6 to
# 0.015 degrees away, where its slope is so shallow that a step runs
# degrees off and does not lower the residual, which stops the
# iteration, and the nearest double of alpha leaves up to 0.12 degrees.  Bisecting the sign
# change of the residual uphill closes each.
STEEP_OFF_BOUNDARY = {745: 133.38664989692762, 1403: 32.52531151451362,
                      3286: 136.26489882209376, 4979: 88.88096426232303,
                      9114: 89.12965515637829}


def test_steep_off_boundary_equilibria_are_closed_by_bisection():
    games = _heterogeneous_games(3, max(STEEP_OFF_BOUNDARY) + 1)
    for index, alpha in STEEP_OFF_BOUNDARY.items():
        params = games[index]
        assert fixedpoint._certificate(params.kernel) == OFF_BOUNDARY
        (report,) = find_equilibria(params).equilibria
        assert report.verified and report.max_violation <= 1.1e-10, (index, report)
        assert abs(report.alpha_star_deg - alpha) <= 1e-6, (index, report)
        # the largest gain from the payoff formula alone agrees
        gain = _oracle_gain(params, report.alpha_star_deg, report.beta_star_deg)
        assert gain <= 1.1e-10, (index, gain)


def test_off_boundary_games_skip_the_indifference_search(monkeypatch):
    # an off-boundary game reports its one equilibrium without the
    # closed-form indifference zeros or the regions; a boundary game,
    # NEAR_BOUNDARY or an indifference draw, still reaches them
    def forbidden(*args):
        raise AssertionError("searched for an indifference")

    for name in ("indifference_points", "_degeneracy_regions"):
        monkeypatch.setattr(fixedpoint, name, forbidden)
    games = _sweep_games(1, 1000) + _heterogeneous_games(3, 500)
    off = [g for g in games if fixedpoint._certificate(g.kernel) == OFF_BOUNDARY]
    assert len(off) >= 900
    for params in off:
        result = find_equilibria(params)
        assert len(result.equilibria) == len(result.verified) == 1, params
        assert result.degeneracy_regions == ()
    indifferent = _indifference_game(np.random.default_rng(77), False)[1]
    for params in (NEAR_BOUNDARY, indifferent):
        with pytest.raises(AssertionError, match="indifference"):
            find_equilibria(params)


def _mesh_maximin(params: GameParams, step: float = 0.1) -> tuple[np.ndarray, float, float]:
    """Alice's maximin on a mesh of step degrees, from GameParams.payoff
    alone: the mesh alphas whose row minimum, standing for g, is within
    the mesh's resolution of the largest, that largest minimum, and the
    resolution, the most a row minimum can exceed g there: |K_B|(1 - cos
    2d) for the half-step d, with |K_B| at most half the payoff's range."""
    grid = np.arange(0.0, 180.0, step)
    # a column against a row is one (n, 4) @ (4, n) product: rank 4
    mesh = params.payoff(grid[:, None], grid[None, :])
    rows = mesh.min(axis=1)
    resolution = float(mesh.max() - mesh.min()) / 2.0 * (1.0 - math.cos(math.radians(step)))
    return grid[rows >= rows.max() - resolution], float(rows.max()), resolution


def _security_level(params: GameParams, alpha: float) -> float:
    """g(alpha) = K0 - |K_B| from the payoff at Bob's angles 0, 45 and 90."""
    f0, f45, f90 = params.payoff(alpha, np.array([0.0, 45.0, 90.0])).tolist()
    return (f0 + f90) / 2.0 - abs(complex(f0 - f90, 2.0 * f45 - f0 - f90)) / 2.0


def test_off_boundary_equilibrium_is_the_mesh_maximin():
    # off the boundary alpha* is the unique maximum of Alice's security
    # level g; a 0.1 degree mesh of the payoff, its row minima standing
    # for g, cannot do better, and must place alpha* near its best
    # alphas.  Where g is flat at its top the row minima's own error
    # decides the mesh's argmax, so every alpha within that error of it
    # counts; where g peaks too sharply for the mesh, as where |K_B| is
    # small at alpha*, g(alpha*) lies above every row minimum instead.
    games = [g for g in _sweep_games(1, 300) + _heterogeneous_games(3, 120)
             if fixedpoint._certificate(g.kernel) == OFF_BOUNDARY]
    assert len(games) >= 200
    unresolved = 0
    for params in games:
        (report,) = find_equilibria(params).equilibria
        best, maximin, resolution = _mesh_maximin(params)
        level = _security_level(params, report.alpha_star_deg)
        rounding = 1e-12 * max(map(abs, params.stakes))
        assert level >= maximin - resolution - rounding, params
        if np.min(np.abs(signed_delta(best, report.alpha_star_deg))) > 0.2:
            assert level > maximin, (params, best)
            unresolved += 1
    assert unresolved <= len(games) // 20
