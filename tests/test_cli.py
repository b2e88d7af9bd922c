"""Command-line interface: JSON payloads, CSV export, exit codes."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator

import orthogame
from orthogame import golden
from orthogame.cli import main
from orthogame.equilibrium import GameParams, find_equilibria

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "docs" / "schemas"


def _check_schema(payload, name):
    schema = json.loads((SCHEMA_DIR / f"{name}.schema.json").read_text())
    Draft202012Validator.check_schema(schema)
    Draft202012Validator(schema).validate(payload)


@pytest.fixture
def runner():
    return CliRunner()


def _run_json(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    return json.loads(result.output)


def test_classical_solve_payload(runner):
    payload = _run_json(runner, ["classical", "solve", "-p", "3,3,5,1"])
    _check_schema(payload, "classical_solve")
    assert payload["value"] == pytest.approx(15 / 28, abs=1e-12)
    assert payload["x"] == pytest.approx([5 / 28, 5 / 28, 3 / 28, 15 / 28], abs=1e-12)
    assert payload["y"] == pytest.approx([3 / 28, 15 / 28, 5 / 28, 5 / 28], abs=1e-12)
    cond = payload["conditional"]
    assert cond["P13"] == pytest.approx(4 / 49, abs=1e-12)
    assert cond["P24"] == pytest.approx(25 / 49, abs=1e-12)
    assert cond["E13"] == pytest.approx(1.875, abs=1e-12)
    assert cond["E24"] == pytest.approx(0.75, abs=1e-12)
    assert payload["nash_verified"] is True
    assert payload["max_violation"] <= 1e-12


def test_classical_solve_verifies_at_large_stakes(runner):
    # x'Hy rounds to 1.46e-11 here, above 1e-12 but well within the
    # default tolerance of 1e-12 * max|h|
    payload = _run_json(runner, ["classical", "solve", "-p", "3e5,3e5,5e5,1e5"])
    _check_schema(payload, "classical_solve")
    assert payload["nash_verified"] is True
    assert 0.0 < payload["max_violation"] <= 1e-12 * 5e5


@pytest.mark.parametrize("stakes", ["0,1,1,1", "-1,1,1,1", "1,2,3", "a,b,c,d", "1,2,3,4,5",
                                    # 1/a + 1/b + 1/c + 1/d overflows
                                    "1e-320,1,1,1", "5e-324,5e-324,5e-324,5e-324",
                                    "1e-308,1e-308,1e-308,1e-308",
                                    # the closed form has no game at a non-finite stake
                                    "inf,1,1,1", "1,-inf,1,1", "1,1,nan,1", "1,1,1,inf"])
def test_classical_solve_rejects_bad_stakes(runner, stakes):
    result = runner.invoke(main, ["classical", "solve", "-p", stakes])
    assert result.exit_code == 2


def test_quantum_solve_reference_config(runner):
    payload = _run_json(runner, ["quantum", "solve", "-p", "3,3,5,1",
                                 "--theta-a", "10", "--theta-b", "70"])
    _check_schema(payload, "quantum_solve")
    assert payload["scan_step_deg"] == 0.25
    assert payload["degeneracy_regions"] == []
    assert len(payload["equilibria"]) == 1
    eq = payload["equilibria"][0]
    assert eq["verified"] is True
    assert eq["alpha_deg"] == pytest.approx(145.4422, abs=0.01)
    assert eq["beta_deg"] == pytest.approx(59.3824, abs=0.01)
    assert eq["value"] == pytest.approx(2.45152, abs=1e-4)
    assert eq["p"] == pytest.approx([0.6782, 0.5077, 0.3218, 0.4923], abs=1e-3)
    assert eq["q"] == pytest.approx([0.2594, 0.9661, 0.7406, 0.0339], abs=1e-3)
    assert sum(eq["terms"]) == pytest.approx(eq["value"], abs=1e-12)
    assert payload["notes"] and "reference tables" in payload["notes"][0]


@pytest.mark.parametrize("theta_b, beta", [("70", 175.958), ("20", 152.024),
                                           ("40", 160.570), ("150", 23.794)])
def test_quantum_solve_reports_equilibrium_where_bob_is_indifferent(runner, theta_b, beta):
    # a = 3c = c tan^2 60 and b = d = d tan^2 (60 - 15): Bob's harmonic
    # vanishes at alpha 60, where the composed best-response map is undefined
    payload = _run_json(runner, ["quantum", "solve", "-p", "3,1,1,1",
                                 "--theta-a", "15", "--theta-b", theta_b])
    _check_schema(payload, "quantum_solve")
    assert payload["degeneracy_regions"] == [[60.0, 60.25]]
    (eq,) = payload["equilibria"]
    assert eq["verified"] is True
    assert eq["alpha_deg"] == pytest.approx(60.0, abs=1e-9)
    assert eq["beta_deg"] == pytest.approx(beta, abs=1e-3)
    assert eq["value"] == pytest.approx(1.25, abs=1e-12)
    assert eq["residual_deg"] <= 1e-9


def test_quantum_solve_at_a_tiny_region_cell_width(runner):
    # a region's cells are found by index arithmetic, not on a grid of
    # 180/step angles, so a cell width of 1e-9 solves as 0.25 does; below
    # about 1e-306, where 180/step overflows, a game with a region is
    # rejected
    args = ["quantum", "solve", "-p", "3,1,1,1", "--theta-a", "15", "--theta-b", "75"]
    coarse = _run_json(runner, args)
    fine = _run_json(runner, args + ["--step", "1e-9"])
    _check_schema(fine, "quantum_solve")
    assert fine["equilibria"] == coarse["equilibria"]
    assert [e["verified"] for e in fine["equilibria"]] == [True, True]
    assert fine["degeneracy_regions"] == [[60.00000000000001, 60.000000001000004]]
    assert runner.invoke(main, args + ["--step", "1e-310"]).exit_code == 2


def test_quantum_solve_at_stakes_near_the_float_limit(runner):
    # the sum of two stakes overflows; the solve matches the unit-stake one
    huge = _run_json(runner, ["quantum", "solve", "-p", "1e308,1e308,1e308,1e308",
                              "--theta-a", "30", "--theta-b", "20"])
    _check_schema(huge, "quantum_solve")
    unit = _run_json(runner, ["quantum", "solve", "-p", "1,1,1,1",
                              "--theta-a", "30", "--theta-b", "20"])
    assert (huge["equilibria"], huge["degeneracy_regions"]) == (unit["equilibria"],
                                                               unit["degeneracy_regions"])


def test_quantum_solve_at_a_huge_mixing_angle(runner):
    # 1e308 is a valid mixing angle, and it plays as 1e308 % 180 = 116
    huge = _run_json(runner, ["quantum", "solve", "-p", "3,3,5,1",
                              "--theta-a", "1e308", "--theta-b", "20"])
    rest = _run_json(runner, ["quantum", "solve", "-p", "3,3,5,1",
                              "--theta-a", "116", "--theta-b", "20"])
    assert len(huge["equilibria"]) == 1
    assert (huge["equilibria"], huge["degeneracy_regions"]) == (rest["equilibria"],
                                                               rest["degeneracy_regions"])


def test_quantum_solve_input_errors(runner):
    base = ["quantum", "solve", "-p", "3,3,5,1"]
    assert runner.invoke(main, base + ["--theta-a", "180", "--theta-b", "70"]).exit_code == 2
    assert runner.invoke(main, base + ["--theta-a", "10", "--theta-b", "70",
                                       "--step", "2.0"]).exit_code == 2
    assert runner.invoke(main, base + ["--theta-a", "10", "--theta-b", "70",
                                       "--refine-tol", "0.02"]).exit_code == 2


def test_quantum_payoff_values(runner):
    payload = _run_json(runner, ["quantum", "payoff", "-p", "3,3,5,1",
                                 "--theta-a", "10", "--theta-b", "70",
                                 "--alpha", "145.5", "--beta", "59.5"])
    _check_schema(payload, "quantum_payoff")
    assert payload["value"] == pytest.approx(2.452, abs=2e-3)
    assert payload["value"] == sum(payload["terms"])
    assert payload["p"][0] + payload["p"][2] == pytest.approx(1.0, abs=1e-15)
    assert payload["q"][1] + payload["q"][3] == pytest.approx(1.0, abs=1e-15)


def test_quantum_payoff_matches_the_solver_report_at_its_profile(runner):
    # one assembly of a profile: the payoff at each reported equilibrium is
    # the report's value, terms and amplitudes, bit for bit
    rng = np.random.default_rng(19)
    checked = 0
    while checked < 30:
        stakes, angles = rng.uniform(0.1, 10.0, 4).tolist(), rng.uniform(1.0, 179.0, 2).tolist()
        for eq in find_equilibria(GameParams(*stakes, *angles)):
            payload = _run_json(runner, ["quantum", "payoff", "-p", ",".join(map(repr, stakes)),
                                         "--theta-a", repr(angles[0]), "--theta-b", repr(angles[1]),
                                         "--alpha", repr(eq.alpha_star_deg),
                                         "--beta", repr(eq.beta_star_deg)])
            assert payload["value"] == eq.value == sum(payload["terms"])
            assert payload["terms"] == list(eq.terms)
            assert payload["p"] == list(eq.amplitudes_a.as_tuple())
            assert payload["q"] == list(eq.amplitudes_b.as_tuple())
            checked += 1


def test_quantum_payoff_wraps_angles(runner):
    payload = _run_json(runner, ["quantum", "payoff", "-p", "3,3,5,1",
                                 "--theta-a", "10", "--theta-b", "70",
                                 "--alpha", "325.5", "--beta", "-120.5"])
    assert payload["alpha_deg"] == 145.5
    assert payload["beta_deg"] == 59.5


def _strict_json(text):
    """The JSON document in text, rejecting the Infinity and NaN that
    Python's json module reads but JSON (RFC 8259) does not have."""
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=reject)


_PAYOFF_AT = ["--theta-a", "1", "--theta-b", "1", "--alpha", "0", "--beta", "90"]


@pytest.mark.parametrize("args, value", [
    (["quantum", "payoff", "-p", "1e307,1e307,1e307,1e307", *_PAYOFF_AT], 1.9994e307),
    (["quantum", "payoff", "-p", "1e308,1e308,1e308,1e308", *_PAYOFF_AT], None),
    (["classical", "solve", "-p", "1e308,1e308,1e308,1e308"], 2.5e307),
    (["classical", "solve", "-p", "1e-308,1e-308,1e-308,1e-308"], None)])
def test_output_near_the_float_limit_is_strict_json_or_exit_2(runner, args, value):
    # at stakes 1e308 the payoff's terms, 1e308 and 9.99e307, are finite
    # but their sum is not, and 1/a + 1/b + 1/c + 1/d overflows at stakes
    # 1e-308: each is an input error, not a payload with Infinity in it
    result = runner.invoke(main, args)
    if value is None:
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit), result.exception
        assert "Error:" in result.output and "Infinity" not in result.output
    else:
        assert result.exit_code == 0, result.output
        assert _strict_json(result.output)["value"] == pytest.approx(value, rel=1e-4)


def test_curves_export(runner, tmp_path):
    out = tmp_path / "curves"
    result = runner.invoke(main, ["quantum", "curves", "-p", "1,1,1,1",
                                  "--theta-a", "45", "--theta-b", "45",
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert result.output.count("wrote ") == 3

    alice = (out / "alice.csv").read_text().splitlines()
    bob = (out / "bob.csv").read_text().splitlines()
    assert len(alice) == 181 and len(bob) == 181
    assert alice[0] == "input_deg,best_response_deg,payoff"
    assert alice[1] == "0,90,1.5"
    assert bob[1] == "0,0,0.5"

    sidecar = json.loads((out / "degeneracies.json").read_text())
    _check_schema(sidecar, "curves_sidecar")
    assert sidecar["degenerate_inputs"] == {"alice": [], "bob": []}


def test_curves_degenerate_rows(runner, tmp_path):
    out = tmp_path / "curves"
    result = runner.invoke(main, ["quantum", "curves", "-p", "1,1,1,3",
                                  "--theta-a", "20", "--theta-b", "-15",
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output
    alice = (out / "alice.csv").read_text().splitlines()
    assert "45,NaN,NaN" in alice
    sidecar = json.loads((out / "degeneracies.json").read_text())
    _check_schema(sidecar, "curves_sidecar")
    assert sidecar["degenerate_inputs"]["alice"] == [45.0]
    assert sidecar["degenerate_inputs"]["bob"] == []


def test_curves_chart_jump_in_export(runner, tmp_path):
    out = tmp_path / "curves"
    result = runner.invoke(main, ["quantum", "curves", "-p", "3,3,5,1",
                                  "--theta-a", "10", "--theta-b", "70",
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output
    rows = (out / "alice.csv").read_text().splitlines()[1:]
    values = [float(r.split(",")[1]) for r in rows]
    assert max(abs(b - a) for a, b in zip(values, values[1:])) > 45.0


@pytest.mark.parametrize("stakes, theta_a, theta_b, flat", [
    ("1e308,1e308,1e308,1e308", "30", "20", None),
    ("1e307,1e307,1e307,1e307", "30", "20", []),
    # 2^1000 times the game of test_curves_degenerate_rows
    ("1.0715086071862673e301,1.0715086071862673e301,1.0715086071862673e301,"
     "3.214525821558802e301", "20", "-15", ["45"])])
def test_curves_payoff_overflow_exits_2_before_writing(runner, tmp_path, stakes, theta_a,
                                                       theta_b, flat):
    # at stakes 1e308 some best-reply payoffs overflow and would be written
    # as inf: an input error, raised before any file is written and with no
    # warning, which this suite turns into an error.  A NaN payoff marks a
    # flat input, not an overflow, and stays
    out = tmp_path / "curves"
    result = runner.invoke(main, ["quantum", "curves", "-p", stakes, "--theta-a", theta_a,
                                  "--theta-b", theta_b, "--step", "1", "--out", str(out)])
    if flat is None:
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit), result.exception
        assert "overflows" in result.stderr and not out.exists()
        return
    assert result.exit_code == 0, result.output
    rows = [line.split(",") for line in (out / "alice.csv").read_text().splitlines()[1:]]
    assert all(row[2] != "inf" for row in rows)
    assert [row[0] for row in rows if row[2] == "NaN"] == flat


def test_curves_io_error(runner, tmp_path):
    blocker = tmp_path / "taken"
    blocker.write_text("a plain file where the directory should go\n")
    result = runner.invoke(main, ["quantum", "curves", "-p", "1,1,1,1",
                                  "--theta-a", "45", "--theta-b", "45",
                                  "--out", str(blocker)])
    assert result.exit_code == 3
    assert "cannot write" in result.stderr


_STDOUT_COMMANDS = [
    ["classical", "solve", "-p", "3,3,5,1"],
    ["quantum", "solve", "-p", "3,3,5,1", "--theta-a", "30", "--theta-b", "20"],
    ["quantum", "payoff", "-p", "3,3,5,1", "--theta-a", "30", "--theta-b", "20",
     "--alpha", "10", "--beta", "20"],
    ["quantum", "curves", "-p", "3,3,5,1", "--theta-a", "30", "--theta-b", "20"],
    ["lattice", "audit"],
    ["reproduce", "1"],
    ["reproduce", "2", "--json"],
]


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
@pytest.mark.parametrize("args", _STDOUT_COMMANDS, ids=" ".join)
def test_unwritable_stdout_exits_3_without_traceback(tmp_path, args):
    if args[1] == "curves":
        args = [*args, "--out", str(tmp_path)]
    # a real process with buffered stdout: a failed write must not fail
    # again in the interpreter's exit-time flush, which exits 120
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    src = str(Path(orthogame.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "orthogame.cli", *args], stdout=full,
                              stderr=subprocess.PIPE, text=True, env=env, timeout=120)
    assert proc.returncode == 3, proc.stderr
    assert "error: cannot write" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_curves_step_validation(runner, tmp_path):
    result = runner.invoke(main, ["quantum", "curves", "-p", "1,1,1,1",
                                  "--theta-a", "45", "--theta-b", "45",
                                  "--step", "9", "--out", str(tmp_path / "x")])
    assert result.exit_code == 2


def test_curves_too_fine_to_fit_in_memory(runner, tmp_path, monkeypatch):
    # a step of 1e-9 asks for curves of 1.8e11 samples each; the allocation
    # fails with a MemoryError, stubbed here so that nothing is allocated,
    # and that is bad input, not a traceback
    def reaction_curves(params, step):
        raise MemoryError("Unable to allocate 1.31 TiB for an array")

    monkeypatch.setattr("orthogame.cli.reaction_curves", reaction_curves)
    result = runner.invoke(main, ["quantum", "curves", "-p", "3,3,5,1",
                                  "--theta-a", "30", "--theta-b", "20",
                                  "--step", "1e-9", "--out", str(tmp_path / "x")])
    assert result.exit_code == 2
    assert "Unable to allocate" in result.stderr
    assert not (tmp_path / "x").exists()


def test_lattice_audit_payload(runner):
    payload = _run_json(runner, ["lattice", "audit"])
    _check_schema(payload, "lattice_audit")
    assert payload["de_morgan"] is True
    assert payload["double_negation"] is True
    assert payload["excluded_middle"] is True
    assert payload["non_contradiction"] is True
    assert payload["distributive"] is False
    assert payload["counterexample_count"] == 24
    assert len(payload["counterexamples"]) == 24
    assert payload["predicate_sums"] == [3, 3, 3, 3]


@pytest.mark.parametrize("example", ["classical", "1", "2", "3"])
def test_reproduce_exits_zero(runner, example):
    result = runner.invoke(main, ["reproduce", example])
    assert result.exit_code == 0, result.output
    assert "result: PASS" in result.output


def test_reproduce_human_report(runner):
    result = runner.invoke(main, ["reproduce", "1"])
    assert result.exit_code == 0
    assert "reference audit: example 1" in result.output
    assert "MATCH" in result.output
    assert "KNOWN-DISCREPANCY" in result.output
    assert "MISMATCH " not in result.output
    assert "result: PASS (8 matched, 4 known discrepancies)" in result.output


@pytest.mark.parametrize("example", ["classical", "1", "2", "3"])
def test_reproduce_json_schema(runner, example):
    payload = _run_json(runner, ["reproduce", example, "--json"])
    _check_schema(payload, "reproduce")
    assert payload["passed"] is True
    assert payload["example_id"] == example


def test_reproduce_mismatch_exits_one(runner, monkeypatch):
    # an expected-match item that recomputation does not meet fails the
    # audit with exit code 1, in both output forms
    record = golden.RECORDS["classical"]
    wrong = dataclasses.replace(record.items[0], expected=1.0)
    monkeypatch.setitem(golden.RECORDS, "classical",
                        dataclasses.replace(record, items=(wrong, *record.items[1:])))
    result = runner.invoke(main, ["reproduce", "classical"])
    assert result.exit_code == 1
    assert "MISMATCH           game_value: expected 1, computed 0.535714" in result.output
    assert "result: FAIL (9 matched, 0 known discrepancies)" in result.output
    result = runner.invoke(main, ["reproduce", "classical", "--json"])
    assert result.exit_code == 1
    assert json.loads(result.output)["passed"] is False


def test_reproduce_unknown_example(runner):
    assert runner.invoke(main, ["reproduce", "4"]).exit_code == 2


def test_reproduce_deterministic(runner):
    first = runner.invoke(main, ["reproduce", "1", "--json"]).output
    second = runner.invoke(main, ["reproduce", "1", "--json"]).output
    assert first == second


def _is_number(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


_VALID = {
    "classical solve": {"--payoff": "3,3,5,1"},
    "quantum solve": {"--payoff": "3,3,5,1", "--theta-a": "10", "--theta-b": "70",
                      "--step": "0.25", "--refine-tol": "0.005"},
    "quantum payoff": {"--payoff": "3,3,5,1", "--theta-a": "10", "--theta-b": "70",
                       "--alpha": "145.5", "--beta": "59.5"},
    "quantum curves": {"--payoff": "3,3,5,1", "--theta-a": "10", "--theta-b": "70", "--step": "1"},
}
# a float option, with the stake list's entries as four options of their own
_FLOAT_OPTIONS = [(command, option, index) for command, options in _VALID.items()
                  for option in options
                  for index in (range(4) if option == "--payoff" else [None])]
_THETA_OPTIONS = [(command, option, None) for command, options in _VALID.items()
                  for option in options if option.startswith("--theta")]
_not_finite = st.sampled_from(["nan", "NaN", "inf", "-inf", "Infinity", "-Infinity", "1e999"])
_not_a_number = st.text(min_size=1).filter(lambda t: not _is_number(t) and "\x00" not in t)
_multiple_of_90 = st.builds(lambda k, fmt: fmt.format(90 * k), st.integers(-8, 8),
                            st.sampled_from(["{}", "{}.0", "{:e}"]))


def _args(command, options, out_dir):
    args = command.split() + [f"{name}={value}" for name, value in options.items()]
    return args + [f"--out={out_dir}"] if command == "quantum curves" else args


@pytest.mark.parametrize("command", sorted(_VALID))
def test_valid_float_input_exits_0(runner, tmp_path, command):
    result = runner.invoke(main, _args(command, _VALID[command], tmp_path))
    assert result.exit_code == 0, result.output


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(st.one_of(st.tuples(st.sampled_from(_FLOAT_OPTIONS), st.one_of(_not_finite, _not_a_number)),
                 st.tuples(st.sampled_from(_THETA_OPTIONS), _multiple_of_90)))
def test_bad_float_input_exits_2_without_traceback(tmp_path_factory, case):
    (command, option, index), bad = case
    options = dict(_VALID[command])
    if index is None:
        options[option] = bad
    else:
        stakes = options[option].split(",")
        stakes[index] = bad
        options[option] = ",".join(stakes)
    args = _args(command, options, tmp_path_factory.mktemp("curves"))
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 2, (args, result.output)
    assert isinstance(result.exception, SystemExit), (args, result.exception)
    assert "Traceback" not in result.output
    assert "Usage:" in result.output and "Error:" in result.output, (args, result.output)
