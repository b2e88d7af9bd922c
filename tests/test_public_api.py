"""The public names the package promises.

Deleting or renaming a name that `orthogame` or a public module's
`__all__` exports fails here; `fixedpoint` is private and not pinned.
So does changing the signature of `verify_equilibrium` or the fields of
the `VerificationResult` it returns.
"""

import importlib
import inspect
import types

import pytest

import orthogame

PACKAGE = {
    "ATOMS", "AmplitudeSquares", "BestResponse", "ComparisonResult",
    "ConditionalDecomposition", "ELEMENTS", "EquilibriumReport", "GameParams",
    "LatticeElement", "LawReport", "LogicRepresentation", "MixedStrategy",
    "NashVerdict", "PayoffMatrix", "PayoffOperator", "ProjectorFamily",
    "QuantumStrategy", "ReactionCurve", "SearchResult", "VerificationResult",
    "amplitudes", "audit_laws", "best_response_alice", "best_response_bob",
    "build_family", "commutator", "compare_with_classical", "decompose_conditional",
    "expectation", "find_equilibria", "join", "leq", "meet", "ortho", "payoff",
    "payoff_closed_form", "payoff_grid", "payoff_operator", "payoff_terms",
    "projector_pair_commutator", "reaction_curves", "signed_delta",
    "solve_closed_form", "valuate", "verify_equilibrium", "verify_nash",
    "wrap_half_turn", "wrapped_distance",
}

MODULE_ALL = {
    "classical": {"PROB_ATOL", "PayoffMatrix", "MixedStrategy", "payoff", "solve_closed_form",
                  "NashVerdict", "verify_nash", "ConditionalDecomposition",
                  "decompose_conditional"},
    "equilibrium": {"DEGENERACY_SQ", "GameParams", "BestResponse", "best_response_alice",
                    "best_response_bob", "CurveSample", "ReactionCurve", "reaction_curves",
                    "VerificationResult", "verify_equilibrium", "EquilibriumReport",
                    "SearchResult", "find_equilibria"},
    "golden": {"EXPECTED_MATCH", "KNOWN_DISCREPANCY", "GoldenItem", "GoldenRecord", "RECORDS",
               "record_for_config", "ItemOutcome", "AuditReport", "run_example"},
    "lattice": {"LatticeElement", "ELEMENTS", "ATOMS", "OPPOSITE", "leq", "join", "meet",
                "ortho", "valuate", "DistributivityCounterexample", "LawReport", "audit_laws"},
    "quantum": {"LogicRepresentation", "ProjectorFamily", "build_family", "rotation_projector",
                "projector_pair_commutator", "commutator", "QuantumStrategy",
                "AmplitudeSquares", "amplitudes", "payoff_grid", "payoff_closed_form",
                "payoff_terms", "PayoffOperator", "payoff_operator", "expectation",
                "ComparisonResult", "compare_with_classical"},
}


def test_package_exports_exactly_the_public_names():
    # submodules become attributes as they are imported, so they are left out
    exported = {name for name, value in vars(orthogame).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert exported == PACKAGE


@pytest.mark.parametrize("name", sorted(MODULE_ALL))
def test_public_module_all(name):
    module = importlib.import_module(f"orthogame.{name}")
    assert len(module.__all__) == len(set(module.__all__))
    assert set(module.__all__) == MODULE_ALL[name]
    assert all(hasattr(module, attr) for attr in module.__all__)


def test_verify_equilibrium_contract():
    from orthogame.equilibrium import VerificationResult, verify_equilibrium
    parameters = inspect.signature(verify_equilibrium).parameters
    assert [(p.name, p.default) for p in parameters.values()] == [
        ("alpha_star_deg", inspect.Parameter.empty), ("beta_star_deg", inspect.Parameter.empty),
        ("params", inspect.Parameter.empty), ("n_probe", 720), ("tol", None)]
    assert all(p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD for p in parameters.values())
    assert VerificationResult._fields == ("verified", "max_violation")
