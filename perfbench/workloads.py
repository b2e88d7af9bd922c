"""The three workloads: seeded inputs, the timed operation, and its checks.

Every workload has a fixed reference input set, drawn from
REFERENCE_SEED whatever --seed is, and a stream of inputs drawn from
--seed.  The reference set is solved once per run, untimed; the counts
that must repeat exactly (`eq_verified`, the sweep fingerprint) come
from it.  The timed closed loop runs on the seeded stream.  The k-th
seeded input depends only on the seed and k, never on how fast the
program runs.

Checks are applied to every operation, reference or timed, and each
failed check is counted.  Only public functions and the CLI of
orthogame are called, always through module attributes, so that
`spans.Tracer` sees the calls.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from orthogame import classical, equilibrium, quantum

REFERENCE_SEED = 1
N_PROBE = 2880          # independent verification, 4x the solver's default
REL_TOL = 1e-12         # payoff-path agreement, relative to the largest stake

SCALE_EXPONENTS = (-9, -6, -3, 3, 6, 9)

CURVE_STEP_DEG = 0.1
MESH_DEG = np.arange(0.0, 180.0, 0.2)       # 900 x 900 payoff mesh
MESH_TOL_FACTOR = 4.0 * math.radians(0.2) ** 2
CURVE_CHECK_STRIDE = 10
SURFACE_PROFILES = 4

CLI_BLOCK = (["quantum-solve"] * 13 + ["quantum-payoff", "classical-solve", "lattice-audit"]
             + [f"reproduce-{x}" for x in ("classical", "1", "2", "3")])

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCHEMAS = ROOT / "docs" / "schemas"


def _rng(seed: int, stream: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream, tag])


def _scale(stakes) -> float:
    return max(abs(s) for s in stakes)


def _random_game(rng) -> equilibrium.GameParams:
    stakes = rng.uniform(0.1, 10.0, 4)
    angles = rng.uniform(1.0, 179.0, 2)
    return equilibrium.GameParams(*map(float, stakes), *map(float, angles))


def _paths_disagree(stakes, theta_a, theta_b, alpha, beta) -> str | None:
    """Compare the closed form with the operator expectation at one profile."""
    rep_a = quantum.LogicRepresentation(theta_a)
    rep_b = quantum.LogicRepresentation(theta_b)
    sa, sb = quantum.QuantumStrategy(alpha), quantum.QuantumStrategy(beta)
    closed = quantum.payoff_closed_form(sa, sb, rep_a, rep_b, *stakes)
    op = quantum.payoff_operator(rep_a, rep_b, classical.PayoffMatrix.diagonal_game(*stakes))
    oper = quantum.expectation(sa, sb, op)
    if not abs(closed - oper) <= REL_TOL * _scale(stakes):
        return f"payoff paths differ at ({alpha!r}, {beta!r}): {closed!r} vs {oper!r}"
    return None


class Sweep:
    """`find_equilibria` at default settings on seeded random games.

    Games are plain (stakes U(0.1, 10), angles U(1, 179)) except for two
    fixed shares set by position: one game in 20 has four equal stakes at
    mixing angles 45/45, and one in 10 has its stakes scaled by 10**k,
    k drawn from SCALE_EXPONENTS.
    """

    name = "sweep"
    EQUAL_SHARE = (20, 3)     # index % 20 == 3
    SCALED_SHARE = (10, 7)    # index % 10 == 7

    def __init__(self, seed: int, tiny: bool):
        self.reference_size = 20 if tiny else 1000
        self._rng = _rng(seed, 1, 1)
        self._next = 0
        ref_rng = _rng(REFERENCE_SEED, 0, 1)
        self.reference = [self._game(ref_rng, i) for i in range(self.reference_size)]

    def sizes(self) -> dict:
        return {"reference_games": self.reference_size,
                "equal_stake_share": 1 / self.EQUAL_SHARE[0],
                "scaled_stake_share": 1 / self.SCALED_SHARE[0]}

    def _game(self, rng, index):
        game = _random_game(rng)
        exponent = SCALE_EXPONENTS[int(rng.integers(len(SCALE_EXPONENTS)))]
        if index % self.EQUAL_SHARE[0] == self.EQUAL_SHARE[1]:
            return equilibrium.GameParams(game.a, game.a, game.a, game.a, 45.0, 45.0)
        if index % self.SCALED_SHARE[0] == self.SCALED_SHARE[1]:
            f = 10.0 ** exponent
            return equilibrium.GameParams(game.a * f, game.b * f, game.c * f, game.d * f,
                                          game.theta_a_deg, game.theta_b_deg)
        return game

    def next_input(self):
        game = self._game(self._rng, self._next)
        self._next += 1
        return game

    def run(self, game):
        return equilibrium.find_equilibria(game)

    def check(self, game, result) -> tuple[list[str], int]:
        failures = []
        for e in result:
            bad = _paths_disagree(game.stakes, game.theta_a_deg, game.theta_b_deg,
                                  e.alpha_star_deg, e.beta_star_deg)
            if bad:
                failures.append(bad)
            if e.verified and not equilibrium.verify_equilibrium(
                    e.alpha_star_deg, e.beta_star_deg, game, n_probe=N_PROBE).verified:
                failures.append(f"equilibrium ({e.alpha_star_deg!r}, {e.beta_star_deg!r}) "
                                f"fails verification at n_probe={N_PROBE}")
        return failures, len(result.verified)

    @staticmethod
    def fingerprint(results) -> str:
        """Hash of every verified equilibrium of the reference set, to 0.01 degree."""
        h = hashlib.sha256()
        for i, result in enumerate(results):
            for e in result.verified:
                h.update(f"{i}:{e.alpha_star_deg:.2f}:{e.beta_star_deg:.2f}\n".encode())
        return h.hexdigest()[:16]


class Surface:
    """Evaluation of seeded games without any fixed-point search.

    Per game: both reaction curves at CURVE_STEP_DEG, `payoff_grid` on
    the MESH_DEG x MESH_DEG mesh, the two payoff paths at seeded profiles
    and at the mesh profile nearest to a saddle (the one minimising the
    larger of both players' mesh deviation gains), and
    `verify_equilibrium` at that profile with n_probe=N_PROBE and a
    tolerance of the most a deviation of one mesh step can gain
    (4 * max|stake| * step**2).  `eq_verified` counts the games whose
    mesh profile passes.
    """

    name = "surface"

    def __init__(self, seed: int, tiny: bool):
        self.reference_size = 4 if tiny else 40
        self._rng = _rng(seed, 1, 2)
        ref_rng = _rng(REFERENCE_SEED, 0, 2)
        self.reference = [self._input(ref_rng) for _ in range(self.reference_size)]

    def sizes(self) -> dict:
        return {"reference_games": self.reference_size, "curve_step_deg": CURVE_STEP_DEG,
                "mesh_points": MESH_DEG.size ** 2, "profiles_per_game": SURFACE_PROFILES + 1,
                "n_probe": N_PROBE}

    @staticmethod
    def _input(rng):
        game = _random_game(rng)
        profiles = rng.uniform(0.0, 180.0, (SURFACE_PROFILES, 2))
        return game, [tuple(map(float, p)) for p in profiles]

    def next_input(self):
        return self._input(self._rng)

    def run(self, inp):
        game, profiles = inp
        alice, bob = equilibrium.reaction_curves(game, CURVE_STEP_DEG)
        mesh = quantum.payoff_grid(MESH_DEG[:, None], MESH_DEG[None, :], *game.stakes,
                                   game.theta_a_deg, game.theta_b_deg)
        col_max = mesh.max(axis=0)
        row_min = mesh.min(axis=1)
        gap = np.maximum(col_max[None, :] - mesh, mesh - row_min[:, None])
        i, j = np.unravel_index(np.argmin(gap), gap.shape)
        profile = (float(MESH_DEG[i]), float(MESH_DEG[j]))
        verdict = equilibrium.verify_equilibrium(
            *profile, game, n_probe=N_PROBE, tol=MESH_TOL_FACTOR * _scale(game.stakes))
        rep_a, rep_b = game.rep_a, game.rep_b
        op = quantum.payoff_operator(rep_a, rep_b,
                                     classical.PayoffMatrix.diagonal_game(*game.stakes))
        pairs = []
        for al, be in profiles + [profile]:
            sa, sb = quantum.QuantumStrategy(al), quantum.QuantumStrategy(be)
            pairs.append((al, be, quantum.payoff_closed_form(sa, sb, rep_a, rep_b, *game.stakes),
                          quantum.expectation(sa, sb, op)))
        return alice, bob, verdict, pairs

    def check(self, inp, out) -> tuple[list[str], int]:
        game, _ = inp
        alice, bob, verdict, pairs = out
        scale = _scale(game.stakes)
        failures = []
        for al, be, closed, oper in pairs:
            if not abs(closed - oper) <= REL_TOL * scale:
                failures.append(f"payoff paths differ at ({al!r}, {be!r}): {closed!r} vs {oper!r}")
        # a best response must do at least as well as every mesh deviation
        for curve, sign in ((alice, 1.0), (bob, -1.0)):
            samples = [s for s in curve.samples[::CURVE_CHECK_STRIDE]
                       if not math.isnan(s.best_response_deg)]
            if not samples:
                continue
            inputs = np.array([s.input_deg for s in samples])
            if sign > 0:
                grid = quantum.payoff_grid(MESH_DEG[:, None], inputs[None, :], *game.stakes,
                                           game.theta_a_deg, game.theta_b_deg)
            else:
                grid = quantum.payoff_grid(inputs[None, :], MESH_DEG[:, None], *game.stakes,
                                           game.theta_a_deg, game.theta_b_deg)
            best = sign * np.max(sign * grid, axis=0)
            got = np.array([s.payoff for s in samples])
            if np.any(sign * (best - got) > REL_TOL * scale):
                failures.append(f"{curve.owner} reaction curve beaten by a mesh deviation")
        return failures, int(verdict.verified)


class Cli:
    """A fixed mix of `python -m orthogame.cli` subprocesses, one at a time.

    Inputs come in shuffled blocks of CLI_BLOCK: 13 `quantum solve` on
    random games, one each of `quantum payoff`, `classical solve` and
    `lattice audit`, and `reproduce classical|1|2|3 --json`.  Every
    command is expected to exit 0 and print JSON that matches its schema
    in docs/schemas/.
    """

    name = "cli"
    SCHEMA = {"quantum-solve": "quantum_solve", "quantum-payoff": "quantum_payoff",
              "classical-solve": "classical_solve", "lattice-audit": "lattice_audit"}

    def __init__(self, seed: int, tiny: bool):
        self._rng = _rng(seed, 1, 3)
        self._queue: list = []
        self.reference = self._block(_rng(REFERENCE_SEED, 0, 3))
        if tiny:
            self.reference = [c for c in self.reference if c[0] == "quantum-solve"][:2]
        self.reference_size = len(self.reference)
        self._validators = None

    def sizes(self) -> dict:
        return {"reference_commands": self.reference_size, "block": len(CLI_BLOCK)}

    @staticmethod
    def _block(rng):
        block = []
        for kind in CLI_BLOCK:
            game = _random_game(rng)
            stakes = ",".join(repr(s) for s in game.stakes)
            angles = ["--theta-a", repr(game.theta_a_deg), "--theta-b", repr(game.theta_b_deg)]
            al, be = (float(x) for x in rng.uniform(0.0, 180.0, 2))
            if kind == "quantum-solve":
                args = ["quantum", "solve", "-p", stakes, *angles]
            elif kind == "quantum-payoff":
                args = ["quantum", "payoff", "-p", stakes, *angles,
                        "--alpha", repr(al), "--beta", repr(be)]
            elif kind == "classical-solve":
                args = ["classical", "solve", "-p", stakes]
            elif kind == "lattice-audit":
                args = ["lattice", "audit"]
            else:
                args = ["reproduce", kind.split("-", 1)[1], "--json"]
            block.append((kind, args))
        order = rng.permutation(len(block))
        return [block[k] for k in order]

    def next_input(self):
        if not self._queue:
            self._queue = self._block(self._rng)
        return self._queue.pop(0)

    def run(self, cmd):
        """Run one command in a fresh interpreter: (exit code, stdout, peak RSS in KiB)."""
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.Popen([sys.executable, "-m", "orthogame.cli", *cmd[1]], cwd=ROOT,
                                env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        with proc.stdout:
            out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, out.decode(), usage.ru_maxrss

    @staticmethod
    def run_in_process(cmd):
        """The same command through click's test runner, with no process start."""
        from click.testing import CliRunner
        from orthogame import cli
        result = CliRunner().invoke(cli.main, cmd[1])
        return result.exit_code, result.stdout, 0

    def _validator(self, kind):
        if self._validators is None:
            import jsonschema
            self._validators = {}
            for name in set(self.SCHEMA.values()) | {"reproduce"}:
                schema = json.loads((SCHEMAS / f"{name}.schema.json").read_text())
                self._validators[name] = jsonschema.Draft202012Validator(schema)
        return self._validators[self.SCHEMA.get(kind, "reproduce")]

    def check(self, cmd, out) -> tuple[list[str], int]:
        kind, args = cmd
        code, stdout, _ = out
        if code != 0:
            return [f"{' '.join(args)}: exit code {code}, expected 0"], 0
        try:
            payload = json.loads(stdout)
        except json.JSONDecodeError as exc:
            return [f"{' '.join(args)}: output is not JSON ({exc})"], 0
        errors = list(self._validator(kind).iter_errors(payload))
        if errors:
            return [f"{' '.join(args)}: schema: {errors[0].message}"], 0
        failures = []
        verified = 0
        if kind == "quantum-solve":
            stakes = tuple(payload["stakes"])
            game = equilibrium.GameParams(*stakes, payload["theta_a_deg"], payload["theta_b_deg"])
            for e in payload["equilibria"]:
                bad = _paths_disagree(stakes, game.theta_a_deg, game.theta_b_deg,
                                      e["alpha_deg"], e["beta_deg"])
                if bad:
                    failures.append(bad)
                if e["verified"]:
                    verified += 1
                    if not equilibrium.verify_equilibrium(e["alpha_deg"], e["beta_deg"], game,
                                                          n_probe=N_PROBE).verified:
                        failures.append(f"{' '.join(args)}: equilibrium fails verification "
                                        f"at n_probe={N_PROBE}")
        elif kind == "quantum-payoff":
            stakes = tuple(payload["stakes"])
            bad = _paths_disagree(stakes, payload["theta_a_deg"], payload["theta_b_deg"],
                                  payload["alpha_deg"], payload["beta_deg"])
            if bad:
                failures.append(bad)
            if not abs(sum(payload["terms"]) - payload["value"]) <= REL_TOL * _scale(stakes):
                failures.append(f"{' '.join(args)}: term split does not sum to the value")
        elif kind == "classical-solve" and not payload["nash_verified"]:
            failures.append(f"{' '.join(args)}: classical equilibrium not verified")
        elif kind.startswith("reproduce") and not payload["passed"]:
            failures.append(f"{' '.join(args)}: audit did not pass")
        return failures, verified


WORKLOADS = {cls.name: cls for cls in (Sweep, Surface, Cli)}


def setup_probe(workload: str, seed: int, tiny: bool) -> None:
    """What a fresh process does before its first operation: import and build inputs."""
    if workload == "cli":
        import orthogame.cli  # noqa: F401  (the command's own import)
    wl = WORKLOADS[workload](seed, tiny)
    wl.next_input()

