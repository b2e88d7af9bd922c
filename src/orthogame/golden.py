"""Bundled reference scenarios and the audit that re-solves them.

Four scenarios ship with the package: the classical game with stakes
(3,3,5,1) and three quantized configurations.  Each record carries the
values the original reference tables give for it, tagged either
``expected-match`` (must reproduce within the stated tolerance, a
mismatch fails the audit) or ``known-discrepancy`` (the tabulated value
does not survive literal recomputation; the audit reports both numbers
and never fails on it).  All values are embedded here so the audit is
hermetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .classical import PayoffMatrix, decompose_conditional, solve_closed_form, verify_nash
from .equilibrium import GameParams, _report, find_equilibria

__all__ = [
    "EXPECTED_MATCH",
    "KNOWN_DISCREPANCY",
    "GoldenItem",
    "GoldenRecord",
    "RECORDS",
    "record_for_config",
    "ItemOutcome",
    "AuditReport",
    "run_example",
]

EXPECTED_MATCH = "expected-match"
KNOWN_DISCREPANCY = "known-discrepancy"


@dataclass(frozen=True)
class GoldenItem:
    """One tabulated value and how strictly recomputation must meet it.

    tolerance None means exact comparison (booleans, counts).
    """

    name: str
    status: str
    expected: object
    tolerance: Optional[float] = None
    note: str = ""


@dataclass(frozen=True)
class GoldenRecord:
    """All tabulated values of one reference scenario."""

    example_id: str
    description: str
    stakes: tuple[float, float, float, float]
    theta_a_deg: Optional[float]
    theta_b_deg: Optional[float]
    items: tuple[GoldenItem, ...]
    solver_note: Optional[str] = None
    # (prefix, (alpha, beta)) of each tabulated profile that the audit
    # evaluates literally: its items are named prefix_alice_amplitudes,
    # prefix_bob_amplitudes, prefix_term_split, prefix_value and
    # prefix_deviation_check
    points: tuple[tuple[str, tuple[float, float]], ...] = ()


RECORDS: dict[str, GoldenRecord] = {
    "classical": GoldenRecord(
        example_id="classical",
        description="classical game, stakes (3,3,5,1): closed-form equilibrium and conditional split",
        stakes=(3.0, 3.0, 5.0, 1.0),
        theta_a_deg=None,
        theta_b_deg=None,
        items=(
            GoldenItem("game_value", EXPECTED_MATCH, 15.0 / 28.0, 1e-12),
            GoldenItem("alice_mix", EXPECTED_MATCH,
                       (5 / 28, 5 / 28, 3 / 28, 15 / 28), 1e-12),
            GoldenItem("bob_mix", EXPECTED_MATCH,
                       (3 / 28, 15 / 28, 5 / 28, 5 / 28), 1e-12),
            GoldenItem("alice_conditionals_13", EXPECTED_MATCH, (5 / 8, 3 / 8), 1e-12),
            GoldenItem("alice_conditionals_24", EXPECTED_MATCH, (1 / 4, 3 / 4), 1e-12),
            GoldenItem("bob_conditionals_13", EXPECTED_MATCH, (3 / 8, 5 / 8), 1e-12),
            GoldenItem("bob_conditionals_24", EXPECTED_MATCH, (3 / 4, 1 / 4), 1e-12),
            GoldenItem("conditional_payoff_13", EXPECTED_MATCH, 1.875, 1e-12),
            GoldenItem("conditional_payoff_24", EXPECTED_MATCH, 0.75, 1e-12),
            GoldenItem("deviation_check_passed", EXPECTED_MATCH, True),
        ),
    ),
    "1": GoldenRecord(
        example_id="1",
        description="quantized game, stakes (3,3,5,1), mixing angles 10 and 70 degrees: two tabulated equilibrium points",
        stakes=(3.0, 3.0, 5.0, 1.0),
        theta_a_deg=10.0,
        theta_b_deg=70.0,
        items=(
            GoldenItem("equilibrium_value", EXPECTED_MATCH, 2.452, 0.005),
            GoldenItem("alice_angle_deg", EXPECTED_MATCH, 145.5, 0.5),
            GoldenItem("alice_amplitudes", EXPECTED_MATCH,
                       (0.679, 0.509, 0.321, 0.491), 0.005),
            GoldenItem("bob_amplitudes", EXPECTED_MATCH,
                       (0.258, 0.967, 0.742, 0.033), 0.005),
            GoldenItem("term_split", EXPECTED_MATCH, (1.927, 0.525), 0.01),
            GoldenItem("bob_reported_angle_deg", KNOWN_DISCREPANCY, 149.5, 0.5,
                       note="tabulated a half-period off: 149.5 - 90 = 59.5 agrees with the "
                            "located equilibrium, and the tabulated amplitude list (see "
                            "bob_amplitudes) matches only at the shifted angle"),
            GoldenItem("second_point_alice_amplitudes", EXPECTED_MATCH,
                       (1.000, 0.967, 0.000, 0.033), 0.005,
                       note="evaluated literally at the tabulated alpha = 180"),
            GoldenItem("second_point_bob_amplitudes", EXPECTED_MATCH,
                       (0.695, 0.646, 0.305, 0.354), 0.005,
                       note="evaluated at beta = 123.5 - 90 = 33.5; agreement at the shifted "
                            "angle pins down the same half-period offset as "
                            "bob_reported_angle_deg"),
            GoldenItem("second_point_term_split", EXPECTED_MATCH, (0.915, 1.048), 0.005,
                       note="evaluated at (180, 33.5)"),
            GoldenItem("second_point_value", KNOWN_DISCREPANCY, 1.926, 0.01,
                       note="recomputation at (180, 33.5) gives 1.963, which equals the "
                            "tabulated term split 0.915 + 1.048, not the quoted 1.926"),
            GoldenItem("second_point_deviation_check", KNOWN_DISCREPANCY, True,
                       note="the tabulated second point is not an equilibrium: Alice's best "
                            "reply to beta = 33.5 is about 88.1 degrees and pays 4.138 "
                            "against the point's 1.963"),
            GoldenItem("verified_equilibrium_count", KNOWN_DISCREPANCY, 2,
                       note="two equilibrium points are tabulated but only the first "
                            "survives the two-sided deviation check"),
        ),
        solver_note="the reference tables for this configuration list a second equilibrium "
                    "point at alpha 180, beta 123.5; it fails the deviation check and is "
                    "audited as a known discrepancy by `reproduce 1`",
        # the second tabulated point, with Bob's angle shifted by the
        # documented half-period: beta = 123.5 - 90
        points=(("second_point", (180.0, 33.5)),),
    ),
    "2": GoldenRecord(
        example_id="2",
        description="quantized game, unit stakes, both mixing angles 45 degrees: tabulated unique corner equilibrium",
        stakes=(1.0, 1.0, 1.0, 1.0),
        theta_a_deg=45.0,
        theta_b_deg=45.0,
        items=(
            GoldenItem("claimed_point_value", EXPECTED_MATCH, 0.5, 1e-9,
                       note="payoff evaluated literally at the tabulated corner (180, 180)"),
            GoldenItem("claimed_point_alice_amplitudes", EXPECTED_MATCH,
                       (1.0, 0.5, 0.0, 0.5), 1e-9),
            GoldenItem("claimed_point_bob_amplitudes", EXPECTED_MATCH,
                       (1.0, 0.5, 0.0, 0.5), 1e-9),
            GoldenItem("claimed_point_deviation_check", KNOWN_DISCREPANCY, True,
                       note="the corner is not an equilibrium: Alice's deviation to alpha = 90 "
                            "pays 1.5 against beta = 180, three times the claimed value"),
            GoldenItem("verified_equilibrium_count", KNOWN_DISCREPANCY, 1,
                       note="the game reduces to 1 - cos(2 alpha - 2 beta) / 2, whose "
                            "reaction lines alpha = beta + 90 and beta = alpha have no "
                            "common fixed point on the half-turn circle"),
            GoldenItem("classical_value", KNOWN_DISCREPANCY, 0.125, 1e-9,
                       note="the closed form gives 1/4 for unit stakes; the tabulated 0.125 "
                            "is half of that"),
        ),
        solver_note="the reference tables claim a unique equilibrium with value 0.5 at the "
                    "corner alpha 180, beta 180; that point fails Alice's deviation check "
                    "(alpha 90 pays 1.5 against beta 180) and the two reaction lines have "
                    "no common fixed point; audited by `reproduce 2`",
        points=(("claimed_point", (180.0, 180.0)),),
    ),
    "3": GoldenRecord(
        example_id="3",
        description="quantized game, stakes (3,3,5,1), mixing angles 30 and 20 degrees: tabulated absence of equilibrium",
        stakes=(3.0, 3.0, 5.0, 1.0),
        theta_a_deg=30.0,
        theta_b_deg=20.0,
        items=(
            GoldenItem("verified_equilibrium_count", KNOWN_DISCREPANCY, 0,
                       note="the tables claim no equilibrium, but the search locates one "
                            "near alpha 53.51, beta 51.66 with value 2.707 at which neither "
                            "player gains by deviating (closed-form largest deviation gain)"),
        ),
        solver_note="the reference tables claim no equilibrium for this configuration; "
                    "direct search locates a verified one, audited as a known discrepancy "
                    "by `reproduce 3`",
    ),
}


def record_for_config(a: float, b: float, c: float, d: float,
                      theta_a_deg: float, theta_b_deg: float) -> Optional[GoldenRecord]:
    """The quantized reference record matching these parameters, if any:
    every stake and angle within 1e-9."""
    config = (a, b, c, d, theta_a_deg, theta_b_deg)
    for record in RECORDS.values():
        key = (*record.stakes, record.theta_a_deg, record.theta_b_deg)
        if (record.theta_a_deg is not None
                and max(abs(x - y) for x, y in zip(key, config)) < 1e-9):
            return record
    return None


@dataclass(frozen=True)
class ItemOutcome:
    """One audited item: its GoldenItem's fields, the recomputed value
    and the two verdicts."""

    name: str
    status: str
    expected: object
    actual: object
    tolerance: Optional[float]
    agrees: bool
    passed: bool
    note: str

    def as_dict(self) -> dict:
        return {name: list(v) if isinstance(v, tuple) else v for name, v in vars(self).items()}


@dataclass(frozen=True)
class AuditReport:
    """Audit of one scenario: every tabulated item with its verdict."""

    example_id: str
    description: str
    parameters: dict
    outcomes: tuple[ItemOutcome, ...]

    @property
    def passed(self) -> bool:
        return all(o.passed for o in self.outcomes)

    def as_dict(self) -> dict:
        return {
            "example_id": self.example_id,
            "description": self.description,
            "parameters": self.parameters,
            "items": [o.as_dict() for o in self.outcomes],
            "match_count": sum(o.status == EXPECTED_MATCH for o in self.outcomes),
            "discrepancy_count": sum(o.status == KNOWN_DISCREPANCY for o in self.outcomes),
            "passed": self.passed,
        }


def _agrees(expected, actual, tolerance) -> bool:
    if actual is None:
        return False
    if isinstance(expected, bool) or tolerance is None:
        return expected == actual
    if isinstance(expected, (tuple, list)):
        if len(actual) != len(expected):
            return False
        return max(abs(e - x) for e, x in zip(expected, actual)) <= tolerance
    return abs(expected - actual) <= tolerance


def _classical_actuals(record: GoldenRecord) -> dict:
    a, b, c, d = record.stakes
    x, y, value = solve_closed_form(a, b, c, d)
    dec = decompose_conditional(x, y, a, b, c, d)
    verdict = verify_nash(x, y, PayoffMatrix.diagonal_game(a, b, c, d))
    return {
        "game_value": value,
        "alice_mix": tuple(x.weights),
        "bob_mix": tuple(y.weights),
        "alice_conditionals_13": (dec.p13_1, dec.p13_3),
        "alice_conditionals_24": (dec.p24_2, dec.p24_4),
        "bob_conditionals_13": (dec.q13_1, dec.q13_3),
        "bob_conditionals_24": (dec.q24_2, dec.q24_4),
        "conditional_payoff_13": dec.E13,
        "conditional_payoff_24": dec.E24,
        "deviation_check_passed": verdict.passed,
    }


def _quantum_actuals(record: GoldenRecord) -> dict:
    params = GameParams(*record.stakes, record.theta_a_deg, record.theta_b_deg)
    verified = find_equilibria(params).verified
    actuals: dict = {"verified_equilibrium_count": len(verified),
                     "classical_value": solve_closed_form(*record.stakes)[2]}
    if verified:
        eq = verified[0]
        actuals.update({
            "equilibrium_value": eq.value,
            "alice_angle_deg": eq.alpha_star_deg,
            "alice_amplitudes": eq.amplitudes_a.as_tuple(),
            "bob_amplitudes": eq.amplitudes_b.as_tuple(),
            "term_split": eq.terms,
            "bob_reported_angle_deg": eq.beta_star_deg,
        })
    for prefix, (alpha, beta) in record.points:
        point = _report(alpha, beta, params)
        actuals.update({
            f"{prefix}_alice_amplitudes": point.amplitudes_a.as_tuple(),
            f"{prefix}_bob_amplitudes": point.amplitudes_b.as_tuple(),
            f"{prefix}_term_split": point.terms,
            f"{prefix}_value": point.value,
            f"{prefix}_deviation_check": point.verified,
        })
    return actuals


def run_example(example_id: str) -> AuditReport:
    """Re-solve one bundled scenario and compare against its record."""
    if example_id not in RECORDS:
        raise KeyError(f"unknown example id {example_id!r}; "
                       f"choose from {sorted(RECORDS)}")
    record = RECORDS[example_id]
    evaluate = _classical_actuals if record.theta_a_deg is None else _quantum_actuals
    actuals = evaluate(record)

    outcomes = []
    for item in record.items:
        actual = actuals.get(item.name)
        # numpy bools are not JSON serializable, so force the plain kind
        agrees = bool(_agrees(item.expected, actual, item.tolerance))
        passed = agrees or item.status == KNOWN_DISCREPANCY
        outcomes.append(ItemOutcome(**vars(item), actual=actual, agrees=agrees,
                                    passed=passed))

    parameters: dict = {"stakes": list(record.stakes)}
    if record.theta_a_deg is not None:
        parameters["theta_a_deg"] = record.theta_a_deg
        parameters["theta_b_deg"] = record.theta_b_deg
    return AuditReport(
        example_id=record.example_id,
        description=record.description,
        parameters=parameters,
        outcomes=tuple(outcomes),
    )
