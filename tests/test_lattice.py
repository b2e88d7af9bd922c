"""Order, complement, and law checks for the corner proposition lattice."""

import itertools

import numpy as np
import pytest

from orthogame.classical import MixedStrategy
from orthogame.lattice import (ATOMS, ELEMENTS, OPPOSITE, LatticeElement,
                               audit_laws, join, leq, meet, ortho, valuate)

B = LatticeElement.BOTTOM
T = LatticeElement.TOP
A1, A2, A3, A4 = (LatticeElement.atom(k) for k in range(1, 5))


def test_element_inventory():
    assert len(ELEMENTS) == 6
    assert len(ATOMS) == 4
    assert all(e.is_atom for e in ATOMS)
    assert not B.is_atom and not T.is_atom


def test_order_bounds_and_atom_incomparability():
    for e in ELEMENTS:
        assert leq(B, e)
        assert leq(e, T)
        assert leq(e, e)
    for x, y in itertools.permutations(ATOMS, 2):
        assert not leq(x, y)


def test_join_meet_examples():
    assert join(A1, A2) is T
    assert join(A1, A3) is T
    assert meet(A1, A2) is B
    assert meet(A1, A3) is B
    for e in ELEMENTS:
        assert join(e, B) is e
        assert meet(e, T) is e
        assert join(e, T) is T
        assert meet(e, B) is B


def test_lattice_axioms_exhaustive():
    for x, y in itertools.product(ELEMENTS, repeat=2):
        assert join(x, y) is join(y, x)
        assert meet(x, y) is meet(y, x)
        # absorption ties the two operations to the order
        assert join(x, meet(x, y)) is x
        assert meet(x, join(x, y)) is x
    for x in ELEMENTS:
        assert join(x, x) is x
        assert meet(x, x) is x
    for x, y, z in itertools.product(ELEMENTS, repeat=3):
        assert join(join(x, y), z) is join(x, join(y, z))
        assert meet(meet(x, y), z) is meet(x, meet(y, z))


def test_ortho_table_and_involution():
    assert ortho(B) is T
    assert ortho(T) is B
    assert ortho(A1) is A3
    assert ortho(A2) is A4
    assert ortho(A3) is A1
    assert ortho(A4) is A2
    for x in ELEMENTS:
        assert ortho(ortho(x)) is x
    # order reversal
    for x, y in itertools.product(ELEMENTS, repeat=2):
        if leq(x, y):
            assert leq(ortho(y), ortho(x))


def test_complement_laws():
    for x in ELEMENTS:
        assert join(x, ortho(x)) is T
        assert meet(x, ortho(x)) is B


def test_de_morgan_exhaustive():
    for x, y in itertools.product(ELEMENTS, repeat=2):
        assert ortho(meet(x, y)) is join(ortho(x), ortho(y))
        assert ortho(join(x, y)) is meet(ortho(x), ortho(y))


def test_distributivity_fails_exactly_on_distinct_atom_triples():
    # independent derivation: for pairwise distinct atoms x, y, z the join
    # x v y is already the top, so the left side is z while the right side
    # collapses to bottom; every other triple distributes
    expected = set(itertools.permutations(ATOMS, 3))
    assert len(expected) == 24

    report = audit_laws()
    found = {(ce.x, ce.y, ce.z) for ce in report.counterexamples}
    assert found == expected
    for ce in report.counterexamples:
        assert ce.left is ce.z
        assert ce.right is B
    assert not report.distributive
    assert len(report.counterexamples) == 24


def test_audit_law_flags():
    report = audit_laws()
    assert report.de_morgan
    assert report.double_negation
    assert report.excluded_middle
    assert report.non_contradiction
    assert report.predicate_sums == (3, 3, 3, 3)


def test_audit_as_dict():
    d = audit_laws().as_dict()
    assert d["counterexample_count"] == 24
    assert len(d["counterexamples"]) == 24
    assert d["predicate_sums"] == [3, 3, 3, 3]
    assert d["distributive"] is False
    assert d["de_morgan"] is True
    assert len(d["elements"]) == 6


def test_valuate_table():
    for q in range(1, 5):
        for v in range(1, 5):
            expected = 0 if v == OPPOSITE[q] else 1
            assert valuate(q, v) == expected
    for v in range(1, 5):
        assert sum(valuate(q, v) for q in range(1, 5)) == 3


def test_valuate_opposite_pair_rule():
    # of a question and its opposite, at most one can be refuted
    for q in range(1, 5):
        for v in range(1, 5):
            s = valuate(q, v) + valuate(OPPOSITE[q], v)
            if v in (q, OPPOSITE[q]):
                assert s == 1
            else:
                assert s == 2


def test_input_validation():
    with pytest.raises(ValueError):
        LatticeElement.atom(0)
    with pytest.raises(ValueError):
        LatticeElement.atom(5)
    with pytest.raises(ValueError):
        _ = B.atom_index
    with pytest.raises(ValueError):
        valuate(0, 1)
    with pytest.raises(ValueError):
        valuate(1, 5)


# one rule for a corner index: an integer in 1..4, NumPy integers included;
# a float or a bool is no corner, even where it equals one
_CORNER_USES = {
    "atom": LatticeElement.atom,
    "pure": MixedStrategy.pure,
    "valuate_question": lambda k: valuate(k, 1),
    "valuate_vertex": lambda k: valuate(1, k),
}


@pytest.mark.parametrize("use", sorted(_CORNER_USES))
@pytest.mark.parametrize("k", [1.0, 2.0, np.float64(3.0), True, False, np.bool_(True), 0, 5,
                               -1, np.int64(0), "1", None, 1 + 0j],
                         ids=repr)
def test_corner_index_must_be_an_integer_in_1_to_4(use, k):
    with pytest.raises(ValueError, match=r"must be an integer in 1\.\.4"):
        _CORNER_USES[use](k)


@pytest.mark.parametrize("use", sorted(_CORNER_USES))
@pytest.mark.parametrize("k", [np.int64(2), np.int8(4), np.uint32(3)], ids=repr)
def test_numpy_integer_corner_is_the_int_corner(use, k):
    left, right = _CORNER_USES[use](k), _CORNER_USES[use](int(k))
    if use == "pure":
        left, right = left.weights.tolist(), right.weights.tolist()
    assert left == right
