"""Arc properties checked against what a diagram's top and slices imply.

Arc numbering is load-bearing: the engine, the rack oracle and every frozen
fingerprint index colourings by arc.  From `top` and `slices` alone, the
test lists the (level, position) ports that must share an arc: pass-through
ports, cup legs, cap legs and each crossing's overstrand.  The diagram's
`levels` must join exactly those ports, number the arcs by first port, and
agree with its crossings' arc fields, its boundary arcs and its component
count.  This runs on every catalog diagram, all of their move neighbours
under both move sets, random braid closures with short move chains and a
few degenerate diagrams.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tanglesum.diagrams import (
    Slice,
    SlicedTangleDiagram,
    braid_word_to_tangle,
    catalog_names,
    load_catalog,
    move_neighbours,
    trace_closure,
)

# strand ends at the top and at the bottom edge of each generator
ARITY = {"X+": (2, 2), "X-": (2, 2), "cupR": (0, 2), "cupL": (0, 2),
         "capR": (2, 0), "capL": (2, 0), "id": (0, 0)}


class PortClasses:
    """A union-find over ports, counting its classes."""

    def __init__(self, ports) -> None:
        self.parent = {p: p for p in ports}
        self.count = len(self.parent)

    def find(self, x):
        while self.parent[x] != x:
            x = self.parent[x]
        return x

    def union(self, x, y) -> None:
        x, y = self.find(x), self.find(y)
        if x != y:
            self.parent[x] = y
            self.count -= 1


def slice_structure(d: SlicedTangleDiagram):
    """(level widths, port pairs on one arc, crossings) from top and slices.

    A crossing is (row, pos, sign, over port, under-in port, under-out
    port); in X+ the overstrand enters at the right, in X- at the left.
    """
    widths = [len(d.top)]
    joins, crossings = [], []
    for r, s in enumerate(d.slices):
        p, (a, b), w = s.pos, ARITY[s.gen], widths[-1]
        joins += [((r, i), (r + 1, i)) for i in range(p)]
        joins += [((r, i), (r + 1, i - a + b)) for i in range(p + a, w)]
        if s.gen == "X+":
            joins.append(((r, p + 1), (r + 1, p)))
            crossings.append((r, p, 1, (r, p + 1), (r, p), (r + 1, p + 1)))
        elif s.gen == "X-":
            joins.append(((r, p), (r + 1, p + 1)))
            crossings.append((r, p, -1, (r, p), (r, p + 1), (r + 1, p)))
        elif s.gen in ("cupR", "cupL"):
            joins.append(((r + 1, p), (r + 1, p + 1)))
        elif s.gen in ("capR", "capL"):
            joins.append(((r, p), (r, p + 1)))
        widths.append(w - a + b)
    return widths, joins, crossings


def assert_arc_properties(d: SlicedTangleDiagram) -> None:
    widths, joins, crossings = slice_structure(d)
    levels = d.levels
    assert [len(row) for row in levels] == widths, d
    ports = [(r, i) for r, w in enumerate(widths) for i in range(w)]

    def arc(port):
        return levels[port[0]][port[1]]

    assert all(arc(x) == arc(y) for x, y in joins), d
    classes = PortClasses(ports)
    for x, y in joins:
        classes.union(x, y)
    # as many arcs as classes: levels joins no ports beyond the listed ones
    assert d.n_arcs == classes.count, d
    assert list(dict.fromkeys(map(arc, ports))) == list(range(d.n_arcs)), d
    assert [(c.row, c.pos, c.sign, c.over_arc, c.under_in_arc,
             c.under_out_arc) for c in d.crossings] == [
        (r, p, sign, arc(over), arc(under_in), arc(under_out))
        for r, p, sign, over, under_in, under_out in crossings], d
    assert d.boundary_arcs() == (levels[0], levels[-1]), d
    # whole strands: arcs joined through their under-passages
    for *_, under_in, under_out in crossings:
        classes.union(under_in, under_out)
    assert d.component_count() == classes.count, d


@pytest.mark.parametrize("name", catalog_names())
def test_catalog_diagram_arcs_follow_the_slices(name):
    assert_arc_properties(load_catalog(name))


@pytest.mark.parametrize("moves", ["unframed", "framed"])
def test_catalog_move_neighbour_arcs_follow_the_slices(moves):
    checked = 0
    for name in catalog_names():
        for mp in move_neighbours(load_catalog(name), moves):
            assert_arc_properties(mp.after)
            checked += 1
    assert checked > 1000


@pytest.mark.parametrize("d", [
    SlicedTangleDiagram(()),
    SlicedTangleDiagram((), [Slice("id", 0)] * 3),
    SlicedTangleDiagram(("v", "^", "v"), [Slice("id", 0), Slice("id", 0)]),
    SlicedTangleDiagram((), [Slice("cupR", 0), Slice("capR", 0)]),
    SlicedTangleDiagram((), [Slice("cupL", 0), Slice("cupR", 0),
                             Slice("capR", 0), Slice("capL", 0)]),
], ids=["empty", "id-only closed", "id-only open", "circle", "two circles"])
def test_degenerate_diagram_arcs_follow_the_slices(d):
    assert_arc_properties(d)


def test_component_counts_of_degenerate_diagrams():
    assert SlicedTangleDiagram(()).component_count() == 0
    assert SlicedTangleDiagram(()).n_arcs == 0
    assert SlicedTangleDiagram(("v", "^", "v")).component_count() == 3
    two = SlicedTangleDiagram((), [Slice("cupL", 0), Slice("cupR", 0),
                                   Slice("capR", 0), Slice("capL", 0)])
    assert two.component_count() == 2


@st.composite
def braid_closures(draw):
    strands = draw(st.integers(2, 3))
    letters = [i for i in range(1 - strands, strands) if i]
    word = draw(st.lists(st.sampled_from(letters), max_size=6))
    d = braid_word_to_tangle(word, strands)
    keep = draw(st.sampled_from([None, 0, 1]))
    return d if keep is None else trace_closure(d, keep=keep)


@settings(max_examples=60)
@given(d=braid_closures(), moves=st.sampled_from(["unframed", "framed"]),
       data=st.data())
def test_random_braid_closure_arcs_follow_the_slices(d, moves, data):
    assert_arc_properties(d)
    for _ in range(data.draw(st.integers(0, 2), label="moves")):
        d = data.draw(st.sampled_from(
            [mp.after for mp in move_neighbours(d, moves)]), label="neighbour")
        assert_arc_properties(d)
