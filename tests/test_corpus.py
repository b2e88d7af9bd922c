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
judges each report from GameParams.payoff alone.

tests/data/heterogeneous_roots.json holds heterogeneous-stake games
whose fixed points are hard to finish, each with the alpha of one fixed
point found without the solver: the residual of compose scanned at
0.005 degrees, each sign change bisected to 1e-12 degrees and kept
where verify_equilibrium passes it at n_probe 2880.
"""

import json
from pathlib import Path

import numpy as np

from orthogame.angles import wrapped_distance
from orthogame.equilibrium import GameParams, find_equilibria, verify_equilibrium

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


def test_heterogeneous_stake_roots_are_found():
    # draws of _heterogeneous_games(2 and 3, 2000) in which Alice's
    # harmonic nearly vanishes at the fixed point, so the residual sweeps
    # about 90 degrees within 0.001 degrees of it and the eigenvalue's
    # angle can be 1e-4 degrees off
    games = json.loads(HETEROGENEOUS_ROOTS.read_text())["games"]
    assert len(games) == 15
    for entry in games:
        result = find_equilibria(GameParams(*entry["params"]))
        assert any(e.verified and wrapped_distance(e.alpha_star_deg, entry["alpha"]) <= 1e-6
                   for e in result), entry


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


if __name__ == "__main__":
    records = [_record(params) for params in _corpus_games()]
    CORPUS.write_text('{"games": [\n' + ",\n".join(map(json.dumps, records)) + "\n]}\n")
    print(f"wrote {len(records)} games to {CORPUS}")
