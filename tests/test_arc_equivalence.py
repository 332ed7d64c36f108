"""The level sweep that builds arcs against the union-find reference.

Arc numbering is load-bearing: the engine, the rack oracle and every frozen
fingerprint index colourings by arc.  On every catalog diagram, on all of
their move neighbours under both move sets, and on random braid closures
with short move chains, the diagram's arcs (with ports), arc_of,
crossings (with arc fields), component count, boundary arcs and compiled
event program must equal those of tests/reference_arcs.py exactly.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_arcs
from tanglesum.diagrams import (
    Slice,
    SlicedTangleDiagram,
    braid_word_to_tangle,
    catalog_names,
    load_catalog,
    move_neighbours,
    trace_closure,
)
from tanglesum.engine import compile_program


def _crossing_fields(crossings):
    # Crossing equality skips the arc fields, so compare them explicitly
    return [(c.row, c.pos, c.sign, c.over_port, c.under_in_port,
             c.under_out_port, c.over_arc, c.under_in_arc, c.under_out_arc)
            for c in crossings]


def assert_matches_reference(d: SlicedTangleDiagram) -> None:
    ref = reference_arcs.ReferenceArcs(d)
    assert d.arcs == ref.arcs, d
    assert d.arc_of == ref.arc_of, d
    assert d.n_arcs == len(ref.arcs), d
    assert _crossing_fields(d.crossings) == _crossing_fields(ref.crossings), d
    assert d.component_count() == ref.component_count(), d
    assert d.boundary_arcs() == ref.boundary_arcs(), d
    assert compile_program(d) == reference_arcs.compile_program(ref), d
    everything = range(d.n_arcs)
    assert (compile_program(d, coloured=everything)
            == reference_arcs.compile_program(ref, coloured=everything)), d


@pytest.mark.parametrize("name", catalog_names())
def test_catalog_diagram_matches_reference(name):
    assert_matches_reference(load_catalog(name))


@pytest.mark.parametrize("moves", ["unframed", "framed"])
def test_catalog_move_neighbours_match_reference(moves):
    checked = 0
    for name in catalog_names():
        for mp in move_neighbours(load_catalog(name), moves):
            assert_matches_reference(mp.after)
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
def test_degenerate_diagrams_match_reference(d):
    assert_matches_reference(d)


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
def test_random_braid_closures_match_reference(d, moves, data):
    assert_matches_reference(d)
    for _ in range(data.draw(st.integers(0, 2), label="moves")):
        d = data.draw(st.sampled_from(
            [mp.after for mp in move_neighbours(d, moves)]), label="neighbour")
        assert_matches_reference(d)
