"""The union-find arc builder that the level sweep in diagrams replaced.

Test-only reference: tests/test_arc_equivalence.py requires
SlicedTangleDiagram's arcs, arc_of, crossings, component count, boundary
arcs and compiled event program to equal what this builder gives.  The
builder merges (level, pos) ports in two union-finds, one for arcs and one
that also joins under-passages into whole strands; compile_program is the
engine's compiler as it was when it still read arc_of.
"""

from __future__ import annotations

from tanglesum.diagrams import (
    _BOT_ARITY,
    _CAP_WANTS,
    _CUP_MAKES,
    _TOP_ARITY,
    DOWN,
    Arc,
    Crossing,
    SlicedTangleDiagram,
)
from tanglesum.engine import CrossingEvent, EventProgram


class _UnionFind:
    def __init__(self) -> None:
        self.parent: dict = {}

    def find(self, x):
        p = self.parent.setdefault(x, x)
        while p != x:
            self.parent[x] = p = self.parent[p]
            x, p = p, self.parent[p]
        return x

    def union(self, x, y) -> None:
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[ry] = rx


class ReferenceArcs:
    """The arc structure of d, built port by port."""

    def __init__(self, d: SlicedTangleDiagram) -> None:
        self.top = d.top
        self.bottom = d.bottom
        self.slices = d.slices
        self.words = d.words
        self._build_arcs()

    def _build_arcs(self) -> None:
        uf = _UnionFind()
        full = _UnionFind()  # also merges under-passages: whole strands
        crossings = []
        for r, s in enumerate(self.slices):
            w = self.words[r]
            g, p = s.gen, s.pos
            a, b = _TOP_ARITY[g], _BOT_ARITY[g]
            for i in range(len(w)):
                if i < p:
                    uf.union((r, i), (r + 1, i))
                    full.union((r, i), (r + 1, i))
                elif i >= p + a:
                    uf.union((r, i), (r + 1, i - a + b))
                    full.union((r, i), (r + 1, i - a + b))
            if g == "X+":
                uf.union((r, p + 1), (r + 1, p))
                full.union((r, p + 1), (r + 1, p))
                full.union((r, p), (r + 1, p + 1))
                crossings.append(
                    Crossing(r, p, +1, (r, p + 1), (r, p), (r + 1, p + 1))
                )
            elif g == "X-":
                uf.union((r, p), (r + 1, p + 1))
                full.union((r, p), (r + 1, p + 1))
                full.union((r, p + 1), (r + 1, p))
                crossings.append(
                    Crossing(r, p, -1, (r, p), (r, p + 1), (r + 1, p))
                )
            elif g in _CUP_MAKES:
                uf.union((r + 1, p), (r + 1, p + 1))
                full.union((r + 1, p), (r + 1, p + 1))
            elif g in _CAP_WANTS:
                uf.union((r, p), (r, p + 1))
                full.union((r, p), (r, p + 1))

        ports = [
            (r, i) for r, w in enumerate(self.words) for i in range(len(w))
        ]
        roots: dict = {}
        arcs: list[list[tuple[int, int]]] = []
        for port in ports:
            root = uf.find(port)
            if root not in roots:
                roots[root] = len(arcs)
                arcs.append([])
            arcs[roots[root]].append(port)
        self.arcs = tuple(
            Arc(k, tuple(sorted(ps))) for k, ps in enumerate(arcs)
        )
        self.arc_of = {p: roots[uf.find(p)] for p in ports}
        self.crossings = tuple(
            Crossing(
                c.row,
                c.pos,
                c.sign,
                c.over_port,
                c.under_in_port,
                c.under_out_port,
                self.arc_of[c.over_port],
                self.arc_of[c.under_in_port],
                self.arc_of[c.under_out_port],
            )
            for c in crossings
        )
        comp_roots = {full.find(p) for p in ports}
        self._component_count = len(comp_roots)

    def component_count(self) -> int:
        return self._component_count

    def boundary_arcs(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Arc indices met along the top and the bottom boundary."""
        last = len(self.words) - 1
        top = tuple(self.arc_of[(0, i)] for i in range(len(self.top)))
        bot = tuple(self.arc_of[(last, i)] for i in range(len(self.bottom)))
        return top, bot


def compile_program(d: ReferenceArcs, coloured=()) -> EventProgram:
    """Compile d, given colours on its top arcs and on the arcs in coloured.

    Every arc a crossing reads (over, incoming under, prefix) or a cup
    creates gets a branch event the first time it is met uncoloured.
    """
    top_arcs, bottom_arcs = d.boundary_arcs()
    known = set(top_arcs) | set(coloured)
    events: list = []

    def read(a: int) -> None:
        if a not in known:
            known.add(a)
            events.append(a)

    crossings = iter(d.crossings)
    for r, s in enumerate(d.slices):
        if s.gen in ("cupR", "cupL"):
            read(d.arc_of[(r + 1, s.pos)])
        elif s.gen in ("X+", "X-"):
            c = next(crossings)
            w = d.words[r]
            prefix = tuple((d.arc_of[(r, q)], w[q] != DOWN)
                           for q in range(s.pos))
            for a in (c.over_arc, c.under_in_arc, *(a for a, _ in prefix)):
                read(a)
            events.append(CrossingEvent(c.sign, c.over_arc, c.under_in_arc,
                                        c.under_out_arc,
                                        c.under_out_arc in known, prefix))
            known.add(c.under_out_arc)
    return EventProgram(len(d.arcs), top_arcs, bottom_arcs, tuple(events))
