"""A pinned corpus of solves, re-solved and compared.

tests/data/solve_corpus.json holds, for each game, the stakes and mixing
angles and what find_equilibria reported: each report's alpha*, beta*,
value, verified flag and residual, and the degeneracy regions.  The
games are 300 seeded games drawn as the benchmark's sweep draws them
(plain; one in 10 with its stakes scaled by 10^k; one in 20 with four
equal stakes at 45/45), 20 games from each indifference family of
test_equilibrium, and the named games of test_enumeration.  A change
that keeps the solver's answers keeps every count, verified flag and
region, and moves angles by at most 1e-9 degrees and values by at most
1e-12 times the largest stake.

Regenerate the corpus, after a change meant to alter the answers, with

    PYTHONPATH=src python tests/test_corpus.py

The corpus reports, with those of a heterogeneous-stake family and of
more sweep-recipe games, also feed the verification oracle, which
judges each report from GameParams.payoff alone.  The report oracle
checks every report's amplitudes, terms, value and verdict against the
public functions, bit for bit.

tests/data/heterogeneous_roots.json holds heterogeneous-stake games
whose fixed points are hard to finish, each with the alpha of one fixed
point found without the solver: the residual of the composed
best-response map scanned at 0.005 degrees, each sign change bisected
to 1e-12 degrees and kept where verify_equilibrium passes it at n_probe
2880.  The two indifference draws pinned last have clustered
eigenvalue seeds, so that rounding in the polynomial's coefficients
decides whether Newton's iteration reaches the root; their alpha is the
60-digit bisection of that sign change, which the scan matches to 2e-12
degrees.  Family 2 or 3 is a draw of _heterogeneous_games(k, 2000);
indifference-77 is a draw of
test_equilibrium._indifference_game(default_rng(77), False), and
indifference-78-mirrored one of
test_equilibrium._indifference_game(default_rng(78), True).  An entry
with max_residual bounds the residual of that report too.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from orthogame.angles import wrapped_distance
from orthogame.equilibrium import GameParams, find_equilibria, verify_equilibrium
from orthogame.quantum import QuantumStrategy, amplitudes, payoff_terms

CORPUS = Path(__file__).resolve().parent / "data" / "solve_corpus.json"
HETEROGENEOUS_ROOTS = CORPUS.with_name("heterogeneous_roots.json")
ANGLE_TOL_DEG = 1e-9
VALUE_TOL = 1e-12               # times the largest stake
ORACLE_PROBES = np.arange(2880) * (180.0 / 2880)


def _record(params: GameParams) -> dict:
    result = find_equilibria(params)
    return {"params": [*params.stakes, params.theta_a_deg, params.theta_b_deg],
            "equilibria": [[e.alpha_star_deg, e.beta_star_deg, e.value, e.verified,
                            e.residual_deg] for e in result],
            "regions": [list(r) for r in result.degeneracy_regions]}


def _sweep_games(seed: int, count: int) -> list[GameParams]:
    """Games drawn with the sweep workload's recipe."""
    rng = np.random.default_rng(seed)
    games = []
    for index in range(count):
        stakes, angles = rng.uniform(0.1, 10.0, 4), rng.uniform(1.0, 179.0, 2)
        factor = 10.0 ** int(rng.choice([-9, -6, -3, 3, 6, 9]))
        if index % 20 == 3:
            stakes, angles = [stakes[0]] * 4, (45.0, 45.0)
        elif index % 10 == 7:
            stakes = stakes * factor
        games.append(GameParams(*map(float, stakes), *map(float, angles)))
    return games


def _corpus_games() -> list[GameParams]:
    from test_enumeration import EX1, EX2, EX3, FIG7, STEEP, STEEP_BOB
    from test_equilibrium import _indifference_game

    games = _sweep_games(2027, 300)
    for mirror in (False, True):
        rng = np.random.default_rng(4049 + mirror)
        games += [_indifference_game(rng, mirror)[1] for _ in range(20)]
    return games + [EX1, EX2, EX3, FIG7, STEEP, STEEP_BOB]


def test_solve_corpus_is_reproduced():
    corpus = json.loads(CORPUS.read_text())["games"]
    assert len(corpus) == 346
    for entry in corpus:
        params = GameParams(*entry["params"])
        actual = _record(params)
        value_tol = VALUE_TOL * max(map(abs, params.stakes))
        assert len(actual["equilibria"]) == len(entry["equilibria"]), entry
        for got, want in zip(actual["equilibria"], entry["equilibria"]):
            assert got[3] == want[3], (entry, got)
            assert wrapped_distance(got[0], want[0]) <= ANGLE_TOL_DEG, (entry, got)
            assert wrapped_distance(got[1], want[1]) <= ANGLE_TOL_DEG, (entry, got)
            assert abs(got[2] - want[2]) <= value_tol, (entry, got)
            assert abs(got[4] - want[4]) <= ANGLE_TOL_DEG, (entry, got)
        assert len(actual["regions"]) == len(entry["regions"]), entry
        for got, want in zip(actual["regions"], entry["regions"]):
            assert np.allclose(got, want, rtol=0.0, atol=ANGLE_TOL_DEG), (entry, got)



def _heterogeneous_games(k: int, count: int) -> list[GameParams]:
    """Stakes 10^U(-k, k) each, angles U(1, 179), from default_rng(k)."""
    rng = np.random.default_rng(k)
    return [GameParams(*10.0 ** rng.uniform(-k, k, 4), *rng.uniform(1.0, 179.0, 2))
            for _ in range(count)]


@pytest.mark.kernel_sensitive
def test_heterogeneous_stake_roots_are_found():
    # draws in which Alice's or Bob's harmonic nearly vanishes at the fixed
    # point, so the residual sweeps about 90 degrees within 0.001 degrees
    # of it: the eigenvalue's angle can be 1e-4 degrees off, the first
    # Newton step can cross the root, and rounding can move the
    # eigenvalues of a clustered root 0.01 off the unit circle.  Each game
    # has that one equilibrium, and no unverified report besides.
    games = json.loads(HETEROGENEOUS_ROOTS.read_text())["games"]
    assert len(games) == 20
    for entry in games:
        result = find_equilibria(GameParams(*entry["params"]))
        assert all(e.verified for e in result), entry
        assert any(wrapped_distance(e.alpha_star_deg, entry["alpha"]) <= 1e-6
                   and e.residual_deg <= entry.get("max_residual", 0.005)
                   for e in result), entry


def test_stake_type_does_not_change_the_answers():
    # the kernel holds Python complex and float numbers whatever the type
    # of the stakes, so np.float64 stakes give the reports float ones do
    pinned = [GameParams(*entry["params"])
              for entry in json.loads(HETEROGENEOUS_ROOTS.read_text())["games"]]
    for params in pinned + _heterogeneous_games(3, 200):
        angles = (params.theta_a_deg, params.theta_b_deg)
        as_float = GameParams(*map(float, params.stakes), *angles)
        as_numpy = GameParams(*map(np.float64, params.stakes), *angles)
        assert find_equilibria(as_numpy) == find_equilibria(as_float), params


def _oracle_gain(params: GameParams, alpha: float, beta: float) -> float:
    """The largest gain from a unilateral deviation, from params.payoff
    alone: the better of the 2880-point grid and the analytic best
    response, whose harmonic is read off the payoff at the player's own
    angles 0, 45 and 90."""
    value = float(params.payoff(alpha, beta))
    f_a = params.payoff(np.array([0.0, 45.0, 90.0]), beta)
    f_b = params.payoff(alpha, np.array([0.0, 45.0, 90.0]))
    peaks = [np.angle(complex(f[0] - f[2], 2.0 * f[1] - f[0] - f[2]), deg=True) / 2.0
             for f in (f_a, f_b)]
    return max(float(np.max(params.payoff(ORACLE_PROBES, beta))) - value,
               float(params.payoff(peaks[0], beta)) - value,
               value - float(np.min(params.payoff(alpha, ORACLE_PROBES))),
               value - float(params.payoff(alpha, peaks[1] + 90.0)))


def _swapped(params: GameParams) -> GameParams:
    """The game with the players' roles exchanged, whose payoff at (beta,
    alpha) is minus that of params at (alpha, beta): its equilibria are
    those of params with the two angles swapped."""
    a, b, c, d = params.stakes
    return GameParams(-c, -d, -a, -b, params.theta_b_deg, params.theta_a_deg)


# Draws of _heterogeneous_games(4, 1000), and the one verified equilibrium
# (alpha, beta) the game itself reports, whose swapped game reported
# nothing while _climb started where Newton's iteration stopped.  In draw
# 621 the swapped game is off the disk certificate's boundary: Newton's
# iteration does not converge from the seed, 121.8975, and stops at
# 124.356; the bracket doubled from there held two wraps of the composed
# map, where K_A points against e, besides the crossing at 121.9832, and
# the bisection closed the wrap at 121.452.  In draw 909 the swapped game
# is on the boundary, has no indifference row, and lost its equilibrium
# the same way.  Climbing from the seed, where Alice's security level is
# largest, closes the crossing in both.
SWAP_MISSES = [pytest.param(621, 55.775521, 121.983203, id="k4-draw-621"),
               pytest.param(909, 0.771154, 88.256946, id="k4-draw-909")]


@pytest.mark.kernel_sensitive
@pytest.mark.parametrize("draw, alpha, beta", SWAP_MISSES)
def test_swapped_profile_is_an_equilibrium(draw, alpha, beta):
    # the game's report, swapped, is an equilibrium of the swapped game by
    # the payoff-only oracle and by the verdict
    params = _heterogeneous_games(4, 1000)[draw]
    (report,) = find_equilibria(params).verified
    assert wrapped_distance(report.alpha_star_deg, alpha) <= 1e-6
    assert wrapped_distance(report.beta_star_deg, beta) <= 1e-6
    swapped = _swapped(params)
    profile = (report.beta_star_deg, report.alpha_star_deg)
    assert _oracle_gain(swapped, *profile) <= 1e-12 * max(map(abs, params.stakes))
    assert verify_equilibrium(*profile, swapped).verified


@pytest.mark.kernel_sensitive
@pytest.mark.parametrize("draw, alpha, beta", SWAP_MISSES)
def test_swapped_game_reports_the_swapped_equilibrium(draw, alpha, beta):
    reports = find_equilibria(_swapped(_heterogeneous_games(4, 1000)[draw])).verified
    assert any(wrapped_distance(e.alpha_star_deg, beta) <= 1e-6
               and wrapped_distance(e.beta_star_deg, alpha) <= 1e-6 for e in reports), reports


def _swap_oracle_games() -> list[GameParams]:
    from test_certificate import _mixed_sign_games
    from test_equilibrium import _indifference_game

    games = (_heterogeneous_games(4, 1000) + _corpus_games()[:200] + _sweep_games(1, 200)
             + _heterogeneous_games(2, 200) + _heterogeneous_games(3, 200) + _mixed_sign_games(200))
    for seed in (77, 78):
        for mirror in (False, True):
            rng = np.random.default_rng(seed)
            games += [_indifference_game(rng, mirror)[1] for _ in range(50)]
    return games


@pytest.mark.kernel_sensitive
def test_swapped_games_report_the_swapped_equilibria():
    # solving the swapped game runs the whole search from Bob's side, with
    # another polynomial, seed and Newton run, so it is an oracle for the
    # search: each verified equilibrium of either game is one of the other
    # with the angles exchanged
    disagree = []
    for params in _swap_oracle_games():
        plain = [(e.alpha_star_deg, e.beta_star_deg) for e in find_equilibria(params).verified]
        swapped = [(e.beta_star_deg, e.alpha_star_deg)
                   for e in find_equilibria(_swapped(params)).verified]
        if not all(any(wrapped_distance(alpha, a) <= 1e-6 and wrapped_distance(beta, b) <= 1e-6
                       for a, b in those)
                   for these, those in ((plain, swapped), (swapped, plain)) for alpha, beta in these):
            disagree.append((params, plain, swapped))
    assert disagree == []


@pytest.mark.kernel_sensitive
def test_verified_reports_form_a_product_set():
    # zero-sum equilibria are interchangeable (Osborne and Rubinstein
    # 1994, Prop. 22.2), so wherever a game reports several verified
    # equilibria each cross profile (alpha_i, beta_j) of them must pass
    # the verdict too.  The families with such games: the corpus, k = 4,
    # and the indifference families, plain and swapped
    from test_equilibrium import _indifference_game

    plain = _corpus_games() + _heterogeneous_games(4, 1000)
    for seed in (77, 78):
        for mirror in (False, True):
            rng = np.random.default_rng(seed)
            plain += [_indifference_game(rng, mirror)[1] for _ in range(500)]
    several, failed = 0, []
    for params in plain + [_swapped(params) for params in plain]:
        reports = find_equilibria(params).verified
        if len(reports) < 2:
            continue
        several += 1
        failed += [(params, a.alpha_star_deg, b.beta_star_deg) for a in reports for b in reports
                   if not verify_equilibrium(a.alpha_star_deg, b.beta_star_deg, params).verified]
    assert failed == []
    assert several == 1054


def test_verification_agrees_with_payoff_oracle():
    # the verdict comes from the kernel's harmonics; the oracle shares
    # nothing with it but the payoff formula.  At a report both players'
    # gains are near zero, so each report is also moved 1 degree along
    # each player's angle, where that player's gain is mostly the larger.
    corpus = json.loads(CORPUS.read_text())["games"]
    reports = [(GameParams(*entry["params"]), eq[0], eq[1], eq[3], None)
               for entry in corpus for eq in entry["equilibria"]]
    for params in _heterogeneous_games(3, 200) + _sweep_games(1001, 200):
        reports += [(params, e.alpha_star_deg, e.beta_star_deg, e.verified, e.max_violation)
                    for e in find_equilibria(params)]
    assert len(reports) > 450
    for params, alpha, beta, verified, violation in reports:
        scale = max(map(abs, params.stakes))
        gain = _oracle_gain(params, alpha, beta)
        verdict = verify_equilibrium(alpha, beta, params, n_probe=2880)
        assert abs(verdict.max_violation - gain) <= 1e-12 * scale, (params, alpha, beta)
        assert verdict.verified == verified == (gain <= 1e-6 * scale), (params, alpha, beta)
        if violation is not None:
            assert abs(violation - gain) <= 1e-12 * scale, (params, alpha, beta)
        for moved in ((alpha + 1.0, beta), (alpha, beta + 1.0)):
            gain = _oracle_gain(params, *moved)
            verdict = verify_equilibrium(*moved, params)
            assert abs(verdict.max_violation - gain) <= 1e-12 * scale, (params, moved)
            assert verdict.verified == (gain <= 1e-6 * scale), (params, moved)


def _report_oracle_games() -> list[GameParams]:
    """The sweep games of seed 1, the corpus games, and 200 games with
    stakes U(0.1, 10) times 1e-300, 1e-200, 1e200 and 1e300 in turn and
    angles U(1, 179), from default_rng(35)."""
    games = _sweep_games(1, 1000) + _corpus_games()
    rng = np.random.default_rng(35)
    for index in range(200):
        stakes = rng.uniform(0.1, 10.0, 4) * (1e-300, 1e-200, 1e200, 1e300)[index % 4]
        games.append(GameParams(*stakes.tolist(), *rng.uniform(1.0, 179.0, 2).tolist()))
    return games


def test_reports_equal_the_public_functions_bit_for_bit():
    # a report reduces its angles and evaluates the amplitudes' formula
    # on them without building a QuantumStrategy; it must hold exactly
    # what the public functions give at that profile, and the verdict of
    # verify_equilibrium, the one verdict path
    checked = 0
    for params in _report_oracle_games():
        for e in find_equilibria(params):
            alpha, beta = QuantumStrategy(e.alpha_star_deg), QuantumStrategy(e.beta_star_deg)
            assert (alpha.angle_deg, beta.angle_deg) == (e.alpha_star_deg, e.beta_star_deg)
            assert e.amplitudes_a == amplitudes(alpha, params.rep_a), (params, e)
            assert e.amplitudes_b == amplitudes(beta, params.rep_b), (params, e)
            terms = payoff_terms(alpha, beta, params.rep_a, params.rep_b, *params.stakes)
            assert e.terms == terms and e.value == terms[0] + terms[1], (params, e)
            verdict = verify_equilibrium(e.alpha_star_deg, e.beta_star_deg, params)
            assert verdict == (e.verified, e.max_violation), (params, e)
            checked += 1
    assert checked == 833


if __name__ == "__main__":
    records = [_record(params) for params in _corpus_games()]
    CORPUS.write_text('{"games": [\n' + ",\n".join(map(json.dumps, records)) + "\n]}\n")
    print(f"wrote {len(records)} games to {CORPUS}")
