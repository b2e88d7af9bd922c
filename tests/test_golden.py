"""Audits of the bundled reference tables."""

import pytest

from orthogame.golden import (EXPECTED_MATCH, KNOWN_DISCREPANCY, RECORDS, _agrees,
                              record_for_config, run_example)


def test_record_inventory():
    assert set(RECORDS) == {"classical", "1", "2", "3"}
    for record in RECORDS.values():
        for item in record.items:
            assert item.status in (EXPECTED_MATCH, KNOWN_DISCREPANCY)


def test_classical_record_all_match():
    report = run_example("classical")
    assert report.passed
    assert all(o.agrees for o in report.outcomes)
    d = report.as_dict()
    assert d["match_count"] == 10
    assert d["discrepancy_count"] == 0
    assert d["passed"] is True


def test_example1_known_discrepancies():
    report = run_example("1")
    assert report.passed
    d = report.as_dict()
    assert d["match_count"] == 8
    assert d["discrepancy_count"] == 4
    by_name = {o.name: o for o in report.outcomes}
    # the tabulated Bob angle sits a quarter turn from the recomputed one
    bob = by_name["bob_reported_angle_deg"]
    assert bob.status == KNOWN_DISCREPANCY
    assert not bob.agrees
    assert by_name["equilibrium_value"].agrees
    assert by_name["alice_angle_deg"].agrees
    # the tabulated second point matches only after the same quarter-turn shift
    assert by_name["second_point_alice_amplitudes"].agrees
    assert by_name["second_point_bob_amplitudes"].agrees
    assert not by_name["second_point_value"].agrees
    assert not by_name["second_point_deviation_check"].agrees
    assert not by_name["verified_equilibrium_count"].agrees


def test_example2_known_discrepancies():
    report = run_example("2")
    assert report.passed
    d = report.as_dict()
    assert d["match_count"] == 3
    assert d["discrepancy_count"] == 3
    by_name = {o.name: o for o in report.outcomes}
    assert by_name["claimed_point_value"].agrees
    assert not by_name["claimed_point_deviation_check"].agrees
    assert not by_name["verified_equilibrium_count"].agrees
    assert not by_name["classical_value"].agrees
    # recomputation: a profitable deviation exists at the claimed corner
    assert by_name["claimed_point_deviation_check"].actual is False
    # recomputation: no fixed point of the composed response map exists
    assert by_name["verified_equilibrium_count"].actual == 0
    assert by_name["classical_value"].actual == pytest.approx(0.25, abs=1e-12)


def test_example3_known_discrepancy():
    report = run_example("3")
    assert report.passed
    d = report.as_dict()
    assert d["match_count"] == 0
    assert d["discrepancy_count"] == 1
    outcome = report.outcomes[0]
    assert outcome.name == "verified_equilibrium_count"
    # the tables claim no equilibrium; the search verifies exactly one
    assert outcome.expected == 0
    assert outcome.actual == 1
    assert not outcome.agrees


def test_report_as_dict_shape():
    d = run_example("2").as_dict()
    assert d["example_id"] == "2"
    assert set(d["parameters"]) == {"stakes", "theta_a_deg", "theta_b_deg"}
    for entry in d["items"]:
        assert set(entry) >= {"name", "status", "expected", "actual", "agrees"}


def test_agreement_needs_a_value_of_the_tabulated_shape():
    # an item with no recomputed value, or a tuple of another length,
    # never agrees, whatever the tolerance
    assert not _agrees(0.5, None, 1.0)
    assert not _agrees((1.0, 0.5), (1.0,), 1.0)
    assert not _agrees((1.0,), (1.0, 0.5), 1.0)
    assert _agrees((1.0, 0.5), (1.0, 0.6), 0.2)


def test_unknown_example_id():
    with pytest.raises(KeyError):
        run_example("4")


def test_record_for_config_lookup():
    rec = record_for_config(3, 3, 5, 1, 10.0, 70.0)
    assert rec is not None and rec.example_id == "1"
    assert record_for_config(3, 3, 5, 1, 10.0 + 1e-10, 70.0) is not None
    assert record_for_config(3, 3, 5, 1, 10.0, 71.0) is None
    assert record_for_config(2, 3, 5, 1, 10.0, 70.0) is None
