"""Command-line front end.

Solves the classical and quantized corner-guessing games, exports
reaction-curve samples as CSV, audits the corner lattice, and re-solves
the bundled reference scenarios with explicit match or discrepancy
verdicts.  Solver commands print JSON; `reproduce` prints a human
report unless --json is given.

Exit codes: 0 success, 1 reproduction failure on an expected-match
item, 2 input error, 3 output I/O error.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import sys
from pathlib import Path

import click

from . import golden
from .classical import (PayoffMatrix, decompose_conditional, solve_closed_form,
                        verify_nash)
from .equilibrium import GameParams, _report, find_equilibria, reaction_curves
from .lattice import audit_laws
from .quantum import LogicRepresentation, QuantumStrategy

CSV_HEADER = "input_deg,best_response_deg,payoff"


def _parse_stakes(ctx, param, value):
    parts = value.split(",")
    if len(parts) != 4:
        raise click.BadParameter("expected four comma-separated stakes, e.g. 3,3,5,1")
    try:
        stakes = tuple(float(p) for p in parts)
    except ValueError:
        raise click.BadParameter(f"stakes must be numbers, got {value!r}")
    if not all(math.isfinite(s) and s > 0 for s in stakes):
        raise click.BadParameter(f"stakes must be positive, got {value!r}")
    return stakes


def _checked_by(cls):
    """An option callback that accepts a value only if cls accepts it."""
    def check(ctx, param, value):
        try:
            cls(value)
        except ValueError as exc:
            raise click.BadParameter(str(exc))
        return value
    return check


_stakes_option = click.option(
    "-p", "--payoff", "stakes", required=True, callback=_parse_stakes,
    help="the four positive stakes a,b,c,d as a comma-separated list")
_theta_a_option = click.option(
    "--theta-a", type=float, required=True, callback=_checked_by(LogicRepresentation),
    help="Alice's mixing angle in degrees (not a multiple of 90)")
_theta_b_option = click.option(
    "--theta-b", type=float, required=True, callback=_checked_by(LogicRepresentation),
    help="Bob's mixing angle in degrees (not a multiple of 90)")


def _emit(payload: dict) -> None:
    click.echo(json.dumps(payload, indent=2, sort_keys=True))


def _profile(report) -> dict:
    """The fields of one strategy profile that quantum solve prints for each
    equilibrium and quantum payoff for its one pair: the angles, the value,
    its two diagonal terms and both players' squared amplitudes."""
    return {
        "alpha_deg": report.alpha_star_deg,
        "beta_deg": report.beta_star_deg,
        "value": report.value,
        "terms": list(report.terms),
        "p": list(report.amplitudes_a.as_tuple()),
        "q": list(report.amplitudes_b.as_tuple()),
    }


def _csv_num(v: float) -> str:
    return "NaN" if math.isnan(v) else format(v, ".10g")


class _Main(click.Group):
    """The command group: an I/O error in any command's output exits 3."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except OSError as exc:
            click.echo(f"error: cannot write output: {exc}", err=True)
            # what stdout could not take must not fail again in the exit-time
            # flush, which would turn exit 3 into 120
            with contextlib.suppress(OSError):
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            ctx.exit(3)


@click.group(cls=_Main)
def main():
    """Corner-guessing game on a square, classical and quantized.

    Two players pick corners of a square; the guesser wins a stake when
    her call lands opposite the hider's corner.  This tool solves the
    classical mixed-strategy game in closed form, searches the quantized
    game for equilibria of the two-angle payoff surface, exports
    reaction curves, audits the non-distributive corner logic, and
    reproduces the bundled reference tables.
    """


@main.group("classical")
def classical_group():
    """Classical mixed-strategy game."""


@classical_group.command("solve")
@_stakes_option
def classical_solve(stakes):
    """Closed-form equilibrium, value, and conditional split."""
    a, b, c, d = stakes
    try:
        x, y, value = solve_closed_form(a, b, c, d)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    dec = decompose_conditional(x, y, a, b, c, d)
    verdict = verify_nash(x, y, PayoffMatrix.diagonal_game(a, b, c, d))
    _emit({
        "stakes": list(stakes),
        "x": [float(v) for v in x.weights],
        "y": [float(v) for v in y.weights],
        "value": value,
        "conditional": {
            "P13": dec.P13,
            "P24": dec.P24,
            "E13": dec.E13,
            "E24": dec.E24,
            "p13": [dec.p13_1, dec.p13_3],
            "p24": [dec.p24_2, dec.p24_4],
            "q13": [dec.q13_1, dec.q13_3],
            "q24": [dec.q24_2, dec.q24_4],
        },
        "nash_verified": verdict.passed,
        "max_violation": verdict.max_violation,
    })


@main.group("quantum")
def quantum_group():
    """Quantized game on strategy angles."""


@quantum_group.command("solve")
@_stakes_option
@_theta_a_option
@_theta_b_option
@click.option("--step", "scan_step", type=float, default=0.25, show_default=True,
              help="width in degrees of the cells that report degeneracy regions")
@click.option("--refine-tol", type=float, default=0.005, show_default=True,
              help="radius in degrees within which two equilibria count as one")
def quantum_solve(stakes, theta_a, theta_b, scan_step, refine_tol):
    """Find and verify equilibria of the two-angle payoff surface."""
    a, b, c, d = stakes
    try:
        params = GameParams(a, b, c, d, theta_a, theta_b)
        result = find_equilibria(params, scan_step_deg=scan_step,
                                 refine_tol_deg=refine_tol)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    record = golden.record_for_config(a, b, c, d, theta_a, theta_b)
    _emit({
        "stakes": list(stakes),
        "theta_a_deg": theta_a,
        "theta_b_deg": theta_b,
        "scan_step_deg": scan_step,
        "refine_tol_deg": refine_tol,
        "equilibria": [
            {
                **_profile(e),
                "verified": e.verified,
                "max_violation": e.max_violation,
                "residual_deg": e.residual_deg,
            }
            for e in result
        ],
        "degeneracy_regions": [[lo, hi] for lo, hi in result.degeneracy_regions],
        "notes": [record.solver_note] if record and record.solver_note else [],
    })


@quantum_group.command("payoff")
@_stakes_option
@_theta_a_option
@_theta_b_option
@click.option("--alpha", type=float, required=True, callback=_checked_by(QuantumStrategy),
              help="Alice's angle in degrees")
@click.option("--beta", type=float, required=True, callback=_checked_by(QuantumStrategy),
              help="Bob's angle in degrees")
def quantum_payoff(stakes, theta_a, theta_b, alpha, beta):
    """Payoff, term split, and squared amplitudes at one strategy pair."""
    report = _report(alpha, beta, GameParams(*stakes, theta_a, theta_b))
    if not all(map(math.isfinite, (report.value, *report.terms))):
        # JSON has no Infinity: finite terms can still overflow in their sum
        raise click.UsageError(f"the payoff overflows: terms {report.terms}, value {report.value}")
    _emit({
        "stakes": list(stakes),
        "theta_a_deg": theta_a,
        "theta_b_deg": theta_b,
        **_profile(report),
    })


@quantum_group.command("curves")
@_stakes_option
@_theta_a_option
@_theta_b_option
@click.option("--step", type=float, default=1.0, show_default=True,
              help="sampling step in degrees")
@click.option("--out", "out_dir", required=True, type=click.Path(),
              help="directory for alice.csv, bob.csv and degeneracies.json")
def quantum_curves(stakes, theta_a, theta_b, step, out_dir):
    """Export both reaction curves as CSV plus a degeneracy sidecar."""
    try:
        curve_a, curve_b = reaction_curves(GameParams(*stakes, theta_a, theta_b), step)
    except (ValueError, MemoryError) as exc:
        # a step so small that the curves do not fit in memory is bad input
        raise click.UsageError(str(exc))
    if any(math.isinf(s.payoff) for curve in (curve_a, curve_b) for s in curve.samples):
        # a NaN payoff marks a flat input; an infinite one is an overflow
        raise click.UsageError("a best-reply payoff overflows at these stakes")

    base = Path(out_dir)
    base.mkdir(parents=True, exist_ok=True)
    for curve, name in ((curve_a, "alice"), (curve_b, "bob")):
        lines = [CSV_HEADER]
        lines += [f"{_csv_num(s.input_deg)},{_csv_num(s.best_response_deg)},"
                  f"{_csv_num(s.payoff)}" for s in curve.samples]
        (base / f"{name}.csv").write_text("\n".join(lines) + "\n")
    sidecar = {
        "stakes": list(stakes),
        "theta_a_deg": theta_a,
        "theta_b_deg": theta_b,
        "step_deg": step,
        "degenerate_inputs": {
            "alice": list(curve_a.degenerate_inputs),
            "bob": list(curve_b.degenerate_inputs),
        },
    }
    (base / "degeneracies.json").write_text(
        json.dumps(sidecar, indent=2, sort_keys=True) + "\n")
    for name in ("alice.csv", "bob.csv", "degeneracies.json"):
        click.echo(f"wrote {base / name}")


@main.group("lattice")
def lattice_group():
    """Corner proposition logic."""


@lattice_group.command("audit")
def lattice_audit():
    """Exhaustive law audit with all distributivity counterexamples."""
    _emit(audit_laws().as_dict())


def _fmt_value(v) -> str:
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, float):
        return format(v, ".6g")
    if isinstance(v, (tuple, list)):
        return "(" + ", ".join(_fmt_value(x) for x in v) + ")"
    return str(v)


@main.command("reproduce")
@click.argument("example", type=click.Choice(["1", "2", "3", "classical"]))
@click.option("--json", "as_json", is_flag=True, help="emit the full report as JSON")
def reproduce(example, as_json):
    """Re-solve a bundled reference scenario and audit its tabulated values.

    Items tagged expected-match must reproduce within their tolerance or
    the command exits 1; known-discrepancy items report both numbers and
    never fail the run.
    """
    report = golden.run_example(example)
    if as_json:
        _emit(report.as_dict())
    else:
        click.echo(f"reference audit: example {report.example_id}")
        click.echo(f"  {report.description}")
        for out in report.outcomes:
            if out.status == golden.KNOWN_DISCREPANCY:
                verdict = "KNOWN-DISCREPANCY"
            elif out.agrees:
                verdict = "MATCH"
            else:
                verdict = "MISMATCH"
            tol = f" (tol {_fmt_value(out.tolerance)})" if out.tolerance is not None else ""
            click.echo(f"  {verdict:<18} {out.name}: expected {_fmt_value(out.expected)}, "
                       f"computed {_fmt_value(out.actual)}{tol}")
            if out.note:
                click.echo(f"{'':<21}note: {out.note}")
        matches = sum(o.status == golden.EXPECTED_MATCH and o.agrees for o in report.outcomes)
        disc = sum(o.status == golden.KNOWN_DISCREPANCY for o in report.outcomes)
        word = "PASS" if report.passed else "FAIL"
        click.echo(f"result: {word} ({matches} matched, {disc} known discrepancies)")
    if not report.passed:
        sys.exit(1)


if __name__ == "__main__":
    main()
