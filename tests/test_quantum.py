"""Projector families, amplitudes, and the two payoff evaluation routes."""

import math

import numpy as np
import pytest

from orthogame.classical import MixedStrategy, PayoffMatrix, solve_closed_form
from orthogame.quantum import (AmplitudeSquares, LogicRepresentation,
                               PayoffOperator, QuantumStrategy, amplitudes,
                               build_family, commutator, compare_with_classical,
                               expectation, payoff_closed_form, payoff_grid,
                               payoff_operator, payoff_terms,
                               projector_pair_commutator)

J = np.array([[0.0, 1.0], [-1.0, 0.0]])


def _random_theta(rng):
    while True:
        theta = rng.uniform(-360.0, 360.0)
        if theta % 90.0 != 0.0:
            return theta


def test_representation_rejects_multiples_of_90():
    for bad in (0.0, 90.0, 180.0, -90.0, 270.0, 360.0):
        with pytest.raises(ValueError):
            LogicRepresentation(bad)
    for ok in (45.0, 10.0, -15.0, 89.9, 135.0):
        LogicRepresentation(ok)


def test_build_family_theta_45():
    fam = build_family(LogicRepresentation(45.0))
    np.testing.assert_allclose(fam.p2, [[0.5, 0.5], [0.5, 0.5]], atol=1e-12)
    np.testing.assert_array_equal(fam.p1, [[1.0, 0.0], [0.0, 0.0]])
    np.testing.assert_array_equal(fam.p3, [[0.0, 0.0], [0.0, 1.0]])


def test_build_family_theta_10():
    fam = build_family(LogicRepresentation(10.0))
    np.testing.assert_allclose(fam.p2, [[0.9698, 0.1710], [0.1710, 0.0302]], atol=5e-5)


def test_family_invariants_random():
    rng = np.random.default_rng(23)
    eye = np.eye(2)
    for _ in range(50):
        theta = _random_theta(rng)
        fam = build_family(LogicRepresentation(theta))
        for p in fam.as_tuple():
            np.testing.assert_allclose(p @ p, p, atol=1e-12)
            assert np.trace(p) == pytest.approx(1.0, abs=1e-12)
            np.testing.assert_allclose(p, p.T, atol=1e-15)
        np.testing.assert_allclose(fam.p1 + fam.p3, eye, atol=1e-15)
        np.testing.assert_allclose(fam.p2 + fam.p4, eye, atol=1e-15)
        np.testing.assert_allclose(fam.p1 @ fam.p3, 0.0, atol=1e-15)
        np.testing.assert_allclose(fam.p2 @ fam.p4, 0.0, atol=1e-12)
        # the rotated pair really is the axis pair conjugated by the rotation
        t = math.radians(theta)
        rot = np.array([[math.cos(t), math.sin(t)], [-math.sin(t), math.cos(t)]])
        np.testing.assert_allclose(fam.p2, rot.T @ fam.p1 @ rot, atol=1e-12)
        np.testing.assert_allclose(fam.p4, rot.T @ fam.p3 @ rot, atol=1e-12)


def test_commutator_theta_45():
    c = commutator(LogicRepresentation(45.0))
    np.testing.assert_allclose(c, [[0.0, 0.5], [-0.5, 0.0]], atol=1e-12)


def test_commutator_theta_30_against_explicit_product():
    c = commutator(LogicRepresentation(30.0))
    np.testing.assert_allclose(c, math.sin(math.radians(60.0)) / 2 * J, atol=1e-12)
    assert c[0, 1] == pytest.approx(0.4330127018922193, abs=1e-12)
    # independent route: multiply the family matrices directly
    fam = build_family(LogicRepresentation(30.0))
    np.testing.assert_allclose(c, fam.p1 @ fam.p2 - fam.p2 @ fam.p1, atol=1e-15)


def test_commutator_closed_form_random():
    rng = np.random.default_rng(29)
    for _ in range(100):
        theta = rng.uniform(-360.0, 360.0)
        c = projector_pair_commutator(theta)
        expected = math.sin(math.radians(2.0 * theta)) / 2.0 * J
        np.testing.assert_allclose(c, expected, atol=1e-12)
        assert c[0, 0] == 0.0 and c[1, 1] == 0.0
        assert c[0, 1] == pytest.approx(-c[1, 0], abs=1e-15)


def test_commutator_vanishes_at_degenerate_angles():
    for theta in (0.0, 90.0, 180.0, -90.0):
        np.testing.assert_allclose(projector_pair_commutator(theta), 0.0, atol=1e-15)


def test_strategy_angle_canonical():
    assert QuantumStrategy(200.0).angle_deg == pytest.approx(20.0)
    assert QuantumStrategy(-30.0).angle_deg == pytest.approx(150.0)
    assert QuantumStrategy(180.0).angle_deg == 0.0
    v = QuantumStrategy(60.0).vector()
    assert v @ v == pytest.approx(1.0, abs=1e-15)


def test_amplitudes_frozen_examples():
    p = amplitudes(QuantumStrategy(145.5), LogicRepresentation(10.0))
    np.testing.assert_allclose(p.as_tuple(), (0.679, 0.509, 0.321, 0.491), atol=5e-4)
    q = amplitudes(QuantumStrategy(59.5), LogicRepresentation(70.0))
    np.testing.assert_allclose(q.as_tuple(), (0.258, 0.967, 0.742, 0.033), atol=5e-4)
    edge = amplitudes(QuantumStrategy(0.0), LogicRepresentation(37.0))
    assert edge.p1 == 1.0
    assert edge.p3 == 0.0


def test_amplitudes_match_projector_quadratic_forms():
    rng = np.random.default_rng(31)
    for _ in range(200):
        theta = _random_theta(rng)
        s = QuantumStrategy(rng.uniform(0.0, 360.0))
        rep = LogicRepresentation(theta)
        fam = build_family(rep)
        v = s.vector()
        closed = amplitudes(s, rep).as_tuple()
        for p_matrix, p_value in zip(fam.as_tuple(), closed):
            assert float(v @ p_matrix @ v) == pytest.approx(p_value, abs=1e-12)


def test_amplitude_pair_sums():
    rng = np.random.default_rng(37)
    for _ in range(500):
        theta = _random_theta(rng)
        amp = amplitudes(QuantumStrategy(rng.uniform(0.0, 360.0)),
                         LogicRepresentation(theta))
        assert abs(amp.p1 + amp.p3 - 1.0) <= 1e-15
        assert abs(amp.p2 + amp.p4 - 1.0) <= 1e-15
        assert abs(amp.p1 + amp.p2 + amp.p3 + amp.p4 - 2.0) <= 1e-14
        for v in amp.as_tuple():
            assert 0.0 <= v <= 1.0


def test_payoff_closed_form_frozen_points():
    rep_a, rep_b = LogicRepresentation(10.0), LogicRepresentation(70.0)
    value = payoff_closed_form(QuantumStrategy(145.5), QuantumStrategy(59.5),
                               rep_a, rep_b, 3, 3, 5, 1)
    assert value == pytest.approx(2.452, abs=0.002)

    rep45 = LogicRepresentation(45.0)
    corner = payoff_closed_form(QuantumStrategy(180.0), QuantumStrategy(180.0),
                                rep45, rep45, 1, 1, 1, 1)
    assert corner == pytest.approx(0.5, abs=1e-12)


def test_payoff_at_origin_reduces_to_cross_terms():
    rng = np.random.default_rng(41)
    for _ in range(20):
        a, b, c, d = rng.uniform(0.1, 10.0, size=4)
        ta, tb = _random_theta(rng), _random_theta(rng)
        got = float(payoff_grid(0.0, 0.0, a, b, c, d, ta, tb))
        expected = (b * math.cos(math.radians(ta)) ** 2 * math.sin(math.radians(tb)) ** 2
                    + d * math.sin(math.radians(ta)) ** 2 * math.cos(math.radians(tb)) ** 2)
        assert got == pytest.approx(expected, abs=1e-12)


def test_payoff_periodicity():
    rng = np.random.default_rng(43)
    for _ in range(50):
        a, b, c, d = rng.uniform(0.1, 10.0, size=4)
        ta, tb = _random_theta(rng), _random_theta(rng)
        al, be = rng.uniform(0.0, 180.0, size=2)
        base = payoff_grid(al, be, a, b, c, d, ta, tb)
        assert payoff_grid(al + 180.0, be, a, b, c, d, ta, tb) == pytest.approx(base, abs=1e-9)
        assert payoff_grid(al, be + 180.0, a, b, c, d, ta, tb) == pytest.approx(base, abs=1e-9)


def _elementwise(al, be, a, b, c, d, ta, tb):
    """The payoff formula as one broadcast expression, term by term; the
    bit-exact reference for every shape but a column against a row."""
    al, be = np.radians(al), np.radians(be)
    ta, tb = math.radians(ta), math.radians(tb)
    return (a * np.cos(al) ** 2 * np.sin(be) ** 2
            + c * np.sin(al) ** 2 * np.cos(be) ** 2
            + b * np.cos(al - ta) ** 2 * np.sin(be - tb) ** 2
            + d * np.sin(al - ta) ** 2 * np.cos(be - tb) ** 2)


def _mesh(alphas, betas, game, alpha_is_column):
    """payoff_grid on a column against a row, indexed [alpha, beta]."""
    if alpha_is_column:
        return payoff_grid(alphas[:, None], betas[None, :], *game)
    return payoff_grid(alphas[None, :], betas[:, None], *game).T


@pytest.mark.parametrize("scale", [1.0, 1e300, 1e-300])
@pytest.mark.parametrize("alpha_is_column", [True, False])
def test_payoff_mesh_matches_elementwise_formula_and_operator(scale, alpha_is_column):
    rng = np.random.default_rng(61)
    alphas, betas = rng.uniform(0.0, 180.0, 23), rng.uniform(0.0, 180.0, 29)
    for _ in range(4):
        a, b, c, d = rng.uniform(0.1, 10.0, size=4) * scale
        game = (a, b, c, d, _random_theta(rng), _random_theta(rng))
        tol = 1e-12 * max(a, b, c, d)
        mesh = _mesh(alphas, betas, game, alpha_is_column)
        assert mesh.shape == (23, 29)
        elementwise = _elementwise(alphas[:, None], betas[None, :], *game)
        assert np.max(np.abs(mesh - elementwise)) <= tol
        op = payoff_operator(LogicRepresentation(game[4]), LogicRepresentation(game[5]),
                             PayoffMatrix.diagonal_game(a, b, c, d))
        for i, j in zip(rng.integers(0, 23, 12), rng.integers(0, 29, 12)):
            via_operator = expectation(QuantumStrategy(alphas[i]), QuantumStrategy(betas[j]), op)
            assert abs(mesh[i, j] - via_operator) <= tol


@pytest.mark.parametrize("alpha_is_column", [True, False])
def test_payoff_mesh_nan_cells(alpha_is_column):
    game = (3.0, 1.5, 2.0, 0.7, 33.0, 71.0)
    alphas, betas = np.linspace(0.0, 180.0, 13), np.linspace(0.0, 180.0, 17)
    alphas[[2, 9]] = np.nan
    betas[4] = np.nan
    mesh = _mesh(alphas, betas, game, alpha_is_column)
    expected = np.isnan(_elementwise(alphas[:, None], betas[None, :], *game))
    np.testing.assert_array_equal(np.isnan(mesh), expected)
    assert expected.sum() == 2 * 17 + 13 - 2


def test_payoff_grid_other_shapes_bit_identical_to_formula():
    rng = np.random.default_rng(67)
    game = (3.0, 1.5, 2.0, 0.7, 33.0, 71.0)
    cases = [
        (12.0, 155.0),
        (rng.uniform(0.0, 180.0, 40), rng.uniform(0.0, 180.0, 40)),
        (rng.uniform(0.0, 180.0, 40), 17.0),
        (31.0, rng.uniform(0.0, 180.0, 40)),
        (rng.uniform(0.0, 180.0, (3, 1, 4)), rng.uniform(0.0, 180.0, (1, 5, 1))),
        (rng.uniform(0.0, 180.0, (6, 1)), rng.uniform(0.0, 180.0, 7)),
        (rng.uniform(0.0, 180.0, (4, 5)), rng.uniform(0.0, 180.0, (4, 5))),
    ]
    for al, be in cases:
        got, want = payoff_grid(al, be, *game), _elementwise(al, be, *game)
        assert type(got) is type(want)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got, want)


def test_payoff_terms_sum_to_value():
    rng = np.random.default_rng(47)
    for _ in range(50):
        a, b, c, d = rng.uniform(0.1, 10.0, size=4)
        rep_a = LogicRepresentation(_random_theta(rng))
        rep_b = LogicRepresentation(_random_theta(rng))
        alpha = QuantumStrategy(rng.uniform(0.0, 180.0))
        beta = QuantumStrategy(rng.uniform(0.0, 180.0))
        t13, t24 = payoff_terms(alpha, beta, rep_a, rep_b, a, b, c, d)
        total = payoff_closed_form(alpha, beta, rep_a, rep_b, a, b, c, d)
        assert t13 + t24 == pytest.approx(total, abs=1e-12)


def test_payoff_operator_zero_and_shape():
    rep45 = LogicRepresentation(45.0)
    zero = payoff_operator(rep45, rep45, PayoffMatrix(np.zeros((4, 4))))
    np.testing.assert_array_equal(zero.matrix, np.zeros((4, 4)))
    with pytest.raises(ValueError):
        PayoffOperator(np.zeros((3, 3)))


def test_payoff_operator_symmetry_and_trace():
    rep45 = LogicRepresentation(45.0)
    h = PayoffMatrix.diagonal_game(1, 1, 1, 1)
    op = payoff_operator(rep45, rep45, h)
    np.testing.assert_allclose(op.matrix, op.matrix.T, atol=1e-12)
    # each projector has unit trace, so the trace is the sum of the stakes
    assert np.trace(op.matrix) == pytest.approx(4.0, abs=1e-12)

    rng = np.random.default_rng(53)
    for _ in range(20):
        stakes = rng.uniform(0.1, 10.0, size=4)
        op = payoff_operator(LogicRepresentation(_random_theta(rng)),
                             LogicRepresentation(_random_theta(rng)),
                             PayoffMatrix.diagonal_game(*stakes))
        np.testing.assert_allclose(op.matrix, op.matrix.T, atol=1e-12)
        assert np.trace(op.matrix) == pytest.approx(stakes.sum(), abs=1e-12)


def test_expectation_zero_operator():
    op = PayoffOperator(np.zeros((4, 4)))
    assert expectation(QuantumStrategy(33.0), QuantumStrategy(71.0), op) == 0.0


def test_expectation_frozen_example_via_operator():
    op = payoff_operator(LogicRepresentation(10.0), LogicRepresentation(70.0),
                         PayoffMatrix.diagonal_game(3, 3, 5, 1))
    value = expectation(QuantumStrategy(145.5), QuantumStrategy(59.5), op)
    assert value == pytest.approx(2.452, abs=0.002)


def test_dual_path_equality_random():
    rng = np.random.default_rng(59)
    for _ in range(1000):
        a, b, c, d = rng.uniform(0.1, 10.0, size=4)
        rep_a = LogicRepresentation(_random_theta(rng))
        rep_b = LogicRepresentation(_random_theta(rng))
        alpha = QuantumStrategy(rng.uniform(0.0, 360.0))
        beta = QuantumStrategy(rng.uniform(0.0, 360.0))
        op = payoff_operator(rep_a, rep_b, PayoffMatrix.diagonal_game(a, b, c, d))
        via_operator = expectation(alpha, beta, op)
        via_closed = payoff_closed_form(alpha, beta, rep_a, rep_b, a, b, c, d)
        assert via_operator == pytest.approx(via_closed, abs=1e-12)


def test_compare_with_classical_at_3351_equilibrium():
    x, y, value = solve_closed_form(3, 3, 5, 1)
    result = compare_with_classical(x, y, 3, 3, 5, 1)
    assert result.quantum == pytest.approx(2.625, abs=1e-12)
    assert result.classical == pytest.approx(15 / 28, abs=1e-12)
    assert result.classical == pytest.approx(value, abs=1e-12)


def test_compare_with_classical_uniform_unit_stakes():
    u = MixedStrategy.uniform()
    result = compare_with_classical(u, u, 1, 1, 1, 1)
    # both conditional terms are 1/2; their plain sum is 1, while the
    # classical mixture weights each by its quarter diagonal probability
    assert result.quantum == pytest.approx(1.0, abs=1e-12)
    assert result.classical == pytest.approx(0.25, abs=1e-12)


def test_compare_with_classical_rejects_empty_diagonal():
    s = MixedStrategy([0.5, 0.0, 0.5, 0.0])
    with pytest.raises(ValueError):
        compare_with_classical(s, s, 1, 1, 1, 1)


def test_compare_gap_identity_random():
    from orthogame.classical import decompose_conditional
    rng = np.random.default_rng(61)
    for _ in range(200):
        stakes = rng.uniform(0.1, 10.0, size=4)
        wx = rng.uniform(0.05, 1.0, size=4)
        wy = rng.uniform(0.05, 1.0, size=4)
        x = MixedStrategy(wx / wx.sum())
        y = MixedStrategy(wy / wy.sum())
        result = compare_with_classical(x, y, *stakes)
        dec = decompose_conditional(x, y, *stakes)
        gap = dec.E13 * (1.0 - dec.P13) + dec.E24 * (1.0 - dec.P24)
        assert result.quantum - result.classical == pytest.approx(gap, abs=1e-12)
        assert result.quantum >= result.classical - 1e-12


def test_amplitude_squares_tuple_round_trip():
    amp = AmplitudeSquares(0.1, 0.2, 0.9, 0.8)
    assert amp.as_tuple() == (0.1, 0.2, 0.9, 0.8)
