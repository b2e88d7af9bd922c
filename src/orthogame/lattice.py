"""Six-element orthocomplemented lattice of corner propositions.

The game is played on the corners 1..4 of a square, numbered so that 1-3
and 2-4 are the diagonals.  The proposition "the token can reach corner k
in one step" is false only when the token sits on the corner opposite k,
which collapses the sixteen subsets of corners to six distinguishable
propositions: an impossible bottom O, one atom per corner, and a trivial
top I.  Every pair of distinct atoms already joins to I and meets at O,
so the lattice is orthocomplemented but not distributive.

``audit_laws`` checks the classical laws exhaustively and returns the
complete list of distributivity counterexamples.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "LatticeElement",
    "ELEMENTS",
    "ATOMS",
    "OPPOSITE",
    "leq",
    "join",
    "meet",
    "ortho",
    "valuate",
    "DistributivityCounterexample",
    "LawReport",
    "audit_laws",
]


class LatticeElement(Enum):
    BOTTOM = "O"
    ATOM1 = "P1"
    ATOM2 = "P2"
    ATOM3 = "P3"
    ATOM4 = "P4"
    TOP = "I"

    @classmethod
    def atom(cls, k: int) -> "LatticeElement":
        return cls[f"ATOM{_corner_index(k, 'atom index')}"]

    @property
    def is_atom(self) -> bool:
        return self.name.startswith("ATOM")

    @property
    def atom_index(self) -> int:
        if not self.is_atom:
            raise ValueError(f"{self.value} is not an atom")
        return int(self.name[-1])

    def __str__(self) -> str:
        return self.value


ELEMENTS: tuple[LatticeElement, ...] = tuple(LatticeElement)
ATOMS: tuple[LatticeElement, ...] = tuple(e for e in ELEMENTS if e.is_atom)

# Corners across a diagonal refute each other.
OPPOSITE = {1: 3, 2: 4, 3: 1, 4: 2}


def _corner_index(k, name: str) -> int:
    """k as a corner 1..4, as an int; the one rule for LatticeElement.atom,
    valuate and classical.MixedStrategy.pure.  Only integers are corners,
    NumPy integers included: a float or a bool, even one equal to a
    corner, such as 1.0 or True, raises ValueError, as does an integer
    outside 1..4; name heads the message."""
    if isinstance(k, (int, np.integer)) and not isinstance(k, bool) and 1 <= k <= 4:
        return int(k)
    raise ValueError(f"{name} must be an integer in 1..4, got {k!r}")


def leq(x: LatticeElement, y: LatticeElement) -> bool:
    """Partial order: O below everything, I above everything, atoms incomparable."""
    return x == y or x is LatticeElement.BOTTOM or y is LatticeElement.TOP


def join(x: LatticeElement, y: LatticeElement) -> LatticeElement:
    """Least upper bound.  Two distinct atoms already exhaust the square."""
    if leq(x, y):
        return y
    if leq(y, x):
        return x
    return LatticeElement.TOP


def meet(x: LatticeElement, y: LatticeElement) -> LatticeElement:
    """Greatest lower bound, dual to :func:`join`."""
    if leq(x, y):
        return x
    if leq(y, x):
        return y
    return LatticeElement.BOTTOM


def ortho(x: LatticeElement) -> LatticeElement:
    """Orthocomplement: swaps O with I and each atom with its opposite."""
    if x is LatticeElement.BOTTOM:
        return LatticeElement.TOP
    if x is LatticeElement.TOP:
        return LatticeElement.BOTTOM
    return LatticeElement.atom(OPPOSITE[x.atom_index])


def valuate(question: int, vertex: int) -> int:
    """Truth value of "corner ``question`` is reachable" for a token at ``vertex``.

    The token may stay put or move along an edge, so the answer is 0 only
    when ``vertex`` is the corner opposite ``question``.
    """
    question = _corner_index(question, "question")
    return 0 if _corner_index(vertex, "vertex") == OPPOSITE[question] else 1


@dataclass(frozen=True)
class DistributivityCounterexample:
    """Ordered triple where (x v y) ^ z differs from (x ^ z) v (y ^ z)."""

    x: LatticeElement
    y: LatticeElement
    z: LatticeElement
    left: LatticeElement
    right: LatticeElement


@dataclass(frozen=True)
class LawReport:
    """Outcome of the exhaustive law audit."""

    de_morgan: bool
    double_negation: bool
    excluded_middle: bool
    non_contradiction: bool
    distributive: bool
    counterexamples: tuple[DistributivityCounterexample, ...]
    predicate_sums: tuple[int, int, int, int]

    def as_dict(self) -> dict:
        return {
            "elements": [str(e) for e in ELEMENTS],
            "de_morgan": self.de_morgan,
            "double_negation": self.double_negation,
            "excluded_middle": self.excluded_middle,
            "non_contradiction": self.non_contradiction,
            "distributive": self.distributive,
            "counterexample_count": len(self.counterexamples),
            "counterexamples": [
                {
                    "x": str(ce.x),
                    "y": str(ce.y),
                    "z": str(ce.z),
                    "left": str(ce.left),
                    "right": str(ce.right),
                }
                for ce in self.counterexamples
            ],
            "predicate_sums": list(self.predicate_sums),
        }


def audit_laws() -> LawReport:
    """Check every lattice law over all elements and all 216 ordered triples."""
    de_morgan = all(
        ortho(meet(x, y)) == join(ortho(x), ortho(y))
        and ortho(join(x, y)) == meet(ortho(x), ortho(y))
        for x, y in itertools.product(ELEMENTS, repeat=2)
    )
    double_negation = all(ortho(ortho(x)) == x for x in ELEMENTS)
    excluded_middle = all(join(x, ortho(x)) is LatticeElement.TOP for x in ELEMENTS)
    non_contradiction = all(meet(x, ortho(x)) is LatticeElement.BOTTOM for x in ELEMENTS)

    counterexamples = []
    for x, y, z in itertools.product(ELEMENTS, repeat=3):
        left = meet(join(x, y), z)
        right = join(meet(x, z), meet(y, z))
        if left != right:
            counterexamples.append(DistributivityCounterexample(x, y, z, left, right))

    sums = tuple(sum(valuate(q, v) for q in range(1, 5)) for v in range(1, 5))
    return LawReport(
        de_morgan=de_morgan,
        double_negation=double_negation,
        excluded_middle=excluded_middle,
        non_contradiction=non_contradiction,
        distributive=not counterexamples,
        counterexamples=tuple(counterexamples),
        predicate_sums=sums,
    )
