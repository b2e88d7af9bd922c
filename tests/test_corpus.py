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
"""

import json
from pathlib import Path

import numpy as np

from orthogame.angles import wrapped_distance
from orthogame.equilibrium import GameParams, find_equilibria

CORPUS = Path(__file__).resolve().parent / "data" / "solve_corpus.json"
ANGLE_TOL_DEG = 1e-9
VALUE_TOL = 1e-12               # times the largest stake


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


if __name__ == "__main__":
    records = [_record(params) for params in _corpus_games()]
    CORPUS.write_text('{"games": [\n' + ",\n".join(map(json.dumps, records)) + "\n]}\n")
    print(f"wrote {len(records)} games to {CORPUS}")
