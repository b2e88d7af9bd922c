"""Closed-form solution and conditional split of the diagonal guessing game."""

import numpy as np
import pytest

from orthogame.classical import (MixedStrategy, PayoffMatrix,
                                 decompose_conditional, payoff,
                                 solve_closed_form, verify_nash)


def test_diagonal_game_layout():
    h = PayoffMatrix.diagonal_game(3, 3, 5, 1).h
    expected = np.zeros((4, 4))
    expected[0, 2], expected[1, 3], expected[2, 0], expected[3, 1] = 3, 3, 5, 1
    np.testing.assert_array_equal(h, expected)


def test_diagonal_game_rejects_nonpositive():
    with pytest.raises(ValueError):
        PayoffMatrix.diagonal_game(0, 1, 1, 1)
    with pytest.raises(ValueError):
        PayoffMatrix.diagonal_game(1, 1, -2, 1)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_payoff_matrix_rejects_non_finite_entries(bad):
    h = PayoffMatrix.diagonal_game(3, 3, 5, 1).h.copy()
    h[1, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        PayoffMatrix(h)


def test_payoff_pure_pairs():
    h = PayoffMatrix.diagonal_game(3, 3, 5, 1)
    assert payoff(MixedStrategy.pure(1), MixedStrategy.pure(3), h) == 3.0
    assert payoff(MixedStrategy.pure(3), MixedStrategy.pure(1), h) == 5.0
    assert payoff(MixedStrategy.pure(1), MixedStrategy.pure(1), h) == 0.0
    u = MixedStrategy.uniform()
    assert payoff(u, u, PayoffMatrix.diagonal_game(1, 1, 1, 1)) == pytest.approx(0.25)


def test_strategy_validation():
    with pytest.raises(ValueError):
        MixedStrategy([0.5, 0.5, 0.5, -0.5])
    with pytest.raises(ValueError):
        MixedStrategy([0.3, 0.3, 0.3, 0.3])
    with pytest.raises(ValueError):
        MixedStrategy([1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        MixedStrategy.pure(5)


def test_closed_form_3351_exact():
    x, y, value = solve_closed_form(3, 3, 5, 1)
    assert value == pytest.approx(15 / 28, abs=1e-12)
    np.testing.assert_allclose(x.weights, [5 / 28, 5 / 28, 3 / 28, 15 / 28], atol=1e-12)
    np.testing.assert_allclose(y.weights, [3 / 28, 15 / 28, 5 / 28, 5 / 28], atol=1e-12)


def test_closed_form_equal_stakes():
    x, y, value = solve_closed_form(1, 1, 1, 1)
    assert value == pytest.approx(0.25, abs=1e-15)
    np.testing.assert_allclose(x.weights, 0.25, atol=1e-15)
    np.testing.assert_allclose(y.weights, 0.25, atol=1e-15)
    _, _, doubled = solve_closed_form(2, 2, 2, 2)
    assert doubled == pytest.approx(0.5, abs=1e-15)


def test_closed_form_rejects_nonpositive():
    with pytest.raises(ValueError):
        solve_closed_form(1, 0, 1, 1)


_NON_FINITE = [(position, value) for position in range(4)
               for value in (np.inf, -np.inf, np.nan)]


@pytest.mark.parametrize("position,value", _NON_FINITE)
def test_non_finite_stakes_are_rejected(position, value):
    # an infinite stake once gave solve_closed_form(inf, 1, 1, 1) a value of
    # 1/3 and weights (0, 1/3, 1/3, 1/3), and decompose_conditional an E13
    # of NaN; a NaN stake failed as "weights entries must be finite"
    stakes = [3.0, 3.0, 5.0, 1.0]
    stakes[position] = value
    u = MixedStrategy.uniform()
    for build in (solve_closed_form, PayoffMatrix.diagonal_game,
                  lambda *s: decompose_conditional(u, u, *s)):
        with pytest.raises(ValueError, match=r"stakes must be finite, got \("):
            build(*stakes)


def test_closed_form_scaling_property():
    rng = np.random.default_rng(7)
    for _ in range(50):
        a, b, c, d = rng.uniform(0.1, 10.0, size=4)
        lam = rng.uniform(0.5, 5.0)
        x1, y1, v1 = solve_closed_form(a, b, c, d)
        x2, y2, v2 = solve_closed_form(lam * a, lam * b, lam * c, lam * d)
        # scaling every stake scales the value and leaves the mixes alone
        assert v2 == pytest.approx(lam * v1, rel=1e-12)
        np.testing.assert_allclose(x2.weights, x1.weights, atol=1e-12)
        np.testing.assert_allclose(y2.weights, y1.weights, atol=1e-12)


def test_closed_form_is_nash_by_pure_deviations():
    # independent oracle: enumerate all pure deviations by hand
    rng = np.random.default_rng(11)
    for _ in range(50):
        a, b, c, d = rng.uniform(0.1, 10.0, size=4)
        x, y, value = solve_closed_form(a, b, c, d)
        h = PayoffMatrix.diagonal_game(a, b, c, d).h
        for j in range(4):
            row_dev = sum(h[j, k] * y.weights[k] for k in range(4))
            assert row_dev <= value + 1e-12
        for k in range(4):
            col_dev = sum(x.weights[j] * h[j, k] for j in range(4))
            assert col_dev >= value - 1e-12


def test_verify_nash_accepts_solution_and_rejects_pure():
    h = PayoffMatrix.diagonal_game(3, 3, 5, 1)
    x, y, _ = solve_closed_form(3, 3, 5, 1)
    verdict = verify_nash(x, y, h)
    assert verdict.passed
    assert verdict.max_violation <= 1e-12

    bad = verify_nash(MixedStrategy.pure(1), MixedStrategy.pure(1), h)
    assert not bad.passed
    # the column player sits on vertex 1, so calling corner 3 wins stake c
    assert bad.max_violation == pytest.approx(5.0)


def test_verify_nash_scales_with_the_stakes():
    # the rounding of x'Hy grows with the stakes, so the default tolerance
    # is 1e-12 * max|h|: at every decade the exact solution passes, as at
    # (3, 3, 5, 1) x 10^k for k = 5, 7, 9, 10, 12 and 13, where it rounds
    # above 1e-12, and the pure corner profile fails, below 10^-12 too
    for k in (5, 7, 9, 10, 12, 13):
        stakes = [s * 10.0 ** k for s in (3, 3, 5, 1)]
        verdict = verify_nash(*solve_closed_form(*stakes)[:2], PayoffMatrix.diagonal_game(*stakes))
        assert verdict.passed, (k, verdict)
    rng = np.random.default_rng(0)
    for k in range(-300, 301, 3):
        for _ in range(20):
            stakes = [float(s) for s in rng.uniform(0.1, 10.0, 4) * 10.0 ** k]
            h = PayoffMatrix.diagonal_game(*stakes)
            verdict = verify_nash(*solve_closed_form(*stakes)[:2], h)
            assert verdict.passed and verdict.max_violation <= 1e-15 * max(stakes), (stakes, verdict)
            assert not verify_nash(MixedStrategy.pure(1), MixedStrategy.pure(1), h).passed, stakes
    # an explicit tolerance keeps its absolute meaning
    stakes = (3e5, 3e5, 5e5, 1e5)
    assert not verify_nash(*solve_closed_form(*stakes)[:2], PayoffMatrix.diagonal_game(*stakes),
                           tol=1e-12).passed


def test_no_pure_saddle_in_diagonal_games():
    rng = np.random.default_rng(13)
    for _ in range(50):
        stakes = rng.uniform(0.1, 10.0, size=4)
        h = PayoffMatrix.diagonal_game(*stakes).h
        lower = np.max(np.min(h, axis=1))
        upper = np.min(np.max(h, axis=0))
        assert lower == 0.0
        assert upper > lower


def test_decompose_at_3351_equilibrium():
    x, y, value = solve_closed_form(3, 3, 5, 1)
    dec = decompose_conditional(x, y, 3, 3, 5, 1)
    assert dec.p13_1 == pytest.approx(5 / 8, abs=1e-12)
    assert dec.p13_3 == pytest.approx(3 / 8, abs=1e-12)
    assert dec.p24_2 == pytest.approx(1 / 4, abs=1e-12)
    assert dec.p24_4 == pytest.approx(3 / 4, abs=1e-12)
    assert dec.q13_1 == pytest.approx(3 / 8, abs=1e-12)
    assert dec.q13_3 == pytest.approx(5 / 8, abs=1e-12)
    assert dec.q24_2 == pytest.approx(3 / 4, abs=1e-12)
    assert dec.q24_4 == pytest.approx(1 / 4, abs=1e-12)
    assert dec.E13 == pytest.approx(1.875, abs=1e-12)
    assert dec.E24 == pytest.approx(0.75, abs=1e-12)
    assert dec.P13 == pytest.approx(4 / 49, abs=1e-12)
    assert dec.P24 == pytest.approx(25 / 49, abs=1e-12)
    assert dec.mixture() == pytest.approx(value, abs=1e-12)


def test_decompose_uniform():
    u = MixedStrategy.uniform()
    dec = decompose_conditional(u, u, 1, 1, 1, 1)
    assert dec.P13 == pytest.approx(0.25, abs=1e-15)
    assert dec.P24 == pytest.approx(0.25, abs=1e-15)
    assert dec.E13 == pytest.approx(0.5, abs=1e-15)
    assert dec.E24 == pytest.approx(0.5, abs=1e-15)
    assert dec.mixture() == pytest.approx(0.25, abs=1e-15)


def test_decompose_empty_diagonal():
    s = MixedStrategy([0.5, 0.0, 0.5, 0.0])
    dec = decompose_conditional(s, s, 3, 3, 5, 1)
    assert dec.P13 == 1.0
    assert dec.P24 == 0.0
    assert dec.p24_2 is None and dec.p24_4 is None
    assert dec.q24_2 is None and dec.q24_4 is None
    assert dec.E24 is None
    h = PayoffMatrix.diagonal_game(3, 3, 5, 1)
    assert dec.mixture() == pytest.approx(payoff(s, s, h), abs=1e-12)


def test_decompose_mixture_identity_random():
    rng = np.random.default_rng(17)
    h_args_draws = 500
    for _ in range(h_args_draws):
        stakes = rng.uniform(0.1, 10.0, size=4)
        wx = rng.random(4)
        wy = rng.random(4)
        x = MixedStrategy(wx / wx.sum())
        y = MixedStrategy(wy / wy.sum())
        dec = decompose_conditional(x, y, *stakes)
        h = PayoffMatrix.diagonal_game(*stakes)
        assert dec.mixture() == pytest.approx(payoff(x, y, h), abs=1e-12)


def test_decompose_rejects_nonpositive_stakes():
    u = MixedStrategy.uniform()
    with pytest.raises(ValueError):
        decompose_conditional(u, u, 1, 1, 0, 1)
