"""Elements of group semirings N[G].

Invariant values are finite multisets of group elements, i.e. elements of the
group semiring with natural-number coefficients.  They are stored as sparse
{element index: count} dicts over a fixed FiniteGroup and compared exactly.
"""

from __future__ import annotations

from collections import Counter

from .errors import GroupMismatchError
from .groups import FiniteGroup


class GroupAlgebraElement:
    """A formal N-linear combination of group elements."""

    def __init__(self, group: FiniteGroup, terms=None):
        self.group = group
        counts = Counter()
        if terms:
            for elt, count in (terms.items() if isinstance(terms, dict) else terms):
                if not 0 <= elt < group.order:
                    raise GroupMismatchError(f"index {elt} outside {group.name}")
                if count < 0:
                    raise ValueError("coefficients must be natural numbers")
                if count:
                    counts[int(elt)] += int(count)
        self.terms = dict(counts)

    @classmethod
    def single(cls, group: FiniteGroup, elt: int, count: int = 1) -> "GroupAlgebraElement":
        return cls(group, {elt: count})

    @classmethod
    def zero(cls, group: FiniteGroup) -> "GroupAlgebraElement":
        return cls(group)

    def _check(self, other: "GroupAlgebraElement") -> None:
        if self.group is not other.group:
            raise GroupMismatchError(
                f"cannot mix algebras over {self.group.name} and {other.group.name}")

    def __add__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        self._check(other)
        out = Counter(self.terms)
        out.update(other.terms)
        return GroupAlgebraElement(self.group, out)

    def __mul__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        """Convolution product induced by the group law."""
        self._check(other)
        out = Counter()
        for a, ca in self.terms.items():
            for b, cb in other.terms.items():
                out[self.group.mul(a, b)] += ca * cb
        return GroupAlgebraElement(self.group, out)

    def map_elements(self, fn, target: FiniteGroup) -> "GroupAlgebraElement":
        """Push forward along an element map, e.g. a boundary morphism.

        Tests read it to project invariants, from GL(2, p) onto PGL(2, p)
        and from G x V onto V, before comparing them with other values.
        """
        out = Counter()
        for e, c in self.terms.items():
            out[fn(e)] += c
        return GroupAlgebraElement(target, out)

    @property
    def total(self) -> int:
        return sum(self.terms.values())

    def __eq__(self, other) -> bool:
        return (isinstance(other, GroupAlgebraElement)
                and self.group is other.group and self.terms == other.terms)

    def __hash__(self) -> int:
        return hash((id(self.group), tuple(sorted(self.terms.items()))))

    def _sorted_terms(self) -> list[tuple[int, int]]:
        # identity first, then by element index: "id + 5*(1 2 3 4 5)"
        ident = self.group.identity
        return sorted(self.terms.items(),
                      key=lambda ec: (ec[0] != ident, ec[0]))

    def display(self) -> str:
        """"id + 5*(1 2 3 4 5)"; the zero is "0".  A term whose element is
        labelled "0", as the identity of cyclic_group(n) is, keeps its
        coefficient ("1*0"), so no nonzero element displays as the zero."""
        if not self.terms:
            return "0"
        parts = []
        for elt, count in self._sorted_terms():
            label = self.group.labels[elt]
            parts.append(label if count == 1 and label != "0"
                         else f"{count}*{label}")
        return " + ".join(parts)

    __str__ = display

    def __repr__(self) -> str:
        return f"GroupAlgebraElement({self.group.name}: {self.display()})"

    def to_json(self) -> dict:
        return {
            "group": self.group.name,
            "terms": [{"element": self.group.labels[e], "count": c}
                      for e, c in self._sorted_terms()],
        }


def parse_algebra(group: FiniteGroup, text: str) -> GroupAlgebraElement:
    """Inverse of display(): "id + 5*(1 2 3 4 5)" -> element of N[G]."""
    text = text.strip()
    if text == "0":
        return GroupAlgebraElement.zero(group)
    terms = Counter()
    for part in text.split(" + "):
        part = part.strip()
        if "*" in part:
            coeff, label = part.split("*", 1)
            terms[group.element_by_label(label.strip())] += int(coeff)
        else:
            terms[group.element_by_label(part)] += 1
    return GroupAlgebraElement(group, terms)
