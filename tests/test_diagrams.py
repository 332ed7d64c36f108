"""Sliced tangle diagrams: parsing, arcs, composition, moves, traversal."""

from __future__ import annotations

import json

import pytest

from tanglesum.diagrams import (
    braid_word_to_tangle,
    catalog_names,
    diagram_from_json,
    Enhancement,
    evaluate_word,
    load_catalog,
    move_neighbours,
    parse_tangle,
    serialize_tangle,
    single_strand,
    Slice,
    SlicedTangleDiagram,
    trace_closure,
    trefoil_minus_string,
    trefoil_plus_string,
)
from tanglesum.errors import (
    DiagramError,
    NonClosableError,
    OrientationMismatchError,
    ParseError,
    WidthMismatchError,
)
from tanglesum.groups import symmetric_group

CATALOG = [
    "braid_sigma1_sigma2_sigma1",
    "crossing_rotated_minus",
    "crossing_rotated_plus",
    "figure_eight_closed",
    "hopf_link_closed",
    "sigma1_sigma1inv_closed",
    "trefoil_minus_closed",
    "trefoil_minus_string",
    "trefoil_plus_closed",
    "trefoil_plus_string",
    "unknot_closed",
    "unknot_string",
]


# ---------------------------------------------------------------------------
# construction and basic statistics
# ---------------------------------------------------------------------------


def test_catalog_contents():
    assert catalog_names() == CATALOG


def test_catalog_statistics():
    stats = {}
    for name in CATALOG:
        d = load_catalog(name)
        stats[name] = (len(d.crossings), d.writhe, d.component_count(), d.is_closed)
    assert stats["trefoil_plus_closed"] == (3, 3, 1, True)
    assert stats["trefoil_minus_closed"] == (3, -3, 1, True)
    assert stats["figure_eight_closed"] == (4, 0, 1, True)
    assert stats["hopf_link_closed"] == (2, 2, 2, True)
    assert stats["unknot_closed"] == (0, 0, 1, True)
    assert stats["sigma1_sigma1inv_closed"] == (2, 0, 1, True)
    assert stats["trefoil_plus_string"] == (3, 3, 1, False)
    assert stats["unknot_string"] == (0, 0, 1, False)
    assert stats["braid_sigma1_sigma2_sigma1"][3] is False


def test_string_trefoils_match_builders():
    assert load_catalog("trefoil_plus_string").slices == trefoil_plus_string().slices
    assert load_catalog("trefoil_minus_string").slices == trefoil_minus_string().slices


def test_orientation_checking():
    with pytest.raises(OrientationMismatchError):
        SlicedTangleDiagram(("v", "^"), [("X+", 0)])
    with pytest.raises(OrientationMismatchError):
        SlicedTangleDiagram(("v", "v"), [("capR", 0)])
    with pytest.raises(WidthMismatchError):
        SlicedTangleDiagram(("v",), [("X+", 0)])
    with pytest.raises(OrientationMismatchError):
        SlicedTangleDiagram(("x",))


def test_arc_structure_of_string_trefoil():
    d = load_catalog("trefoil_plus_string")
    # one arc per undercrossing passage plus the unbroken boundary runs
    tops, bots = d.boundary_arcs()
    assert len(tops) == 1 and len(bots) == 1
    assert tops != bots
    assert len(d.arcs) == 4


def test_parse_serialize_round_trip():
    for name in CATALOG:
        d = load_catalog(name)
        again = parse_tangle(serialize_tangle(d))
        assert again.top == d.top and again.slices == d.slices


def test_json_round_trip():
    for name in CATALOG:
        d = load_catalog(name)
        again = diagram_from_json(json.loads(json.dumps(d.to_json())))
        assert again == d
        assert again.top == d.top and again.slices == d.slices
        assert again.levels == d.levels
    empty = SlicedTangleDiagram(())
    assert diagram_from_json(empty.to_json()) == empty


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_tangle("X+ @0")  # missing header
    with pytest.raises(ParseError):
        parse_tangle("top: v\nX? @0")
    with pytest.raises(ParseError):
        parse_tangle("top: v\nX+ zero")
    with pytest.raises(ParseError):
        parse_tangle("top: north")


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------


def test_braid_word_to_tangle():
    d = braid_word_to_tangle([1, -2, 1], 3)
    assert d.top == ("v", "v", "v") and d.bottom == d.top
    assert d.writhe == 1
    assert [s.gen for s in d.slices] == ["X+", "X-", "X+"]
    assert [s.pos for s in d.slices] == [0, 1, 0]


def test_trace_closure():
    braid = braid_word_to_tangle([1, 1, 1], 2)
    closed = trace_closure(braid)
    assert closed.is_closed
    assert closed.writhe == 3 and closed.component_count() == 1
    kept = trace_closure(braid, keep=1)
    assert kept.top == ("v",) and kept.bottom == ("v",)
    with pytest.raises(NonClosableError):
        trace_closure(braid, keep=5)


def test_then_and_split():
    a = braid_word_to_tangle([1], 2)
    b = braid_word_to_tangle([-1], 2)
    d = a.then(b)
    assert [s.gen for s in d.slices] == ["X+", "X-"]
    upper, lower = d.split(1)
    assert upper.slices == a.slices and lower.slices == b.slices
    assert upper.bottom == lower.top
    with pytest.raises(NonClosableError):
        a.then(single_strand())
    with pytest.raises(DiagramError):
        d.split(9)


def test_traverse_strand_lists_under_passages():
    d = load_catalog("trefoil_plus_string")
    events = d.traverse_strand((0, 0, "v"))
    # one under-passage per crossing, met in strand order
    assert len(events) == 3
    assert [c.sign for c, _, _ in events] == [1, 1, 1]
    # a closed diagram traverses to the same events from its own seed
    closed = load_catalog("trefoil_plus_closed")
    first = closed.slices[0]
    assert len(closed.traverse_strand((1, first.pos, "v"))) == 3


# ---------------------------------------------------------------------------
# boundary enhancements
# ---------------------------------------------------------------------------


def test_enhancement_evaluation_stars_up_strands():
    s3 = symmetric_group(3)
    t = s3.element_by_label("(1 2)")
    c = s3.element_by_label("(1 2 3)")
    assert evaluate_word(s3, ("v", "v"), (t, c)) == s3.mul(t, c)
    assert evaluate_word(s3, ("v", "^"), (t, c)) == s3.mul(t, s3.inv(c))
    with pytest.raises(DiagramError):
        Enhancement(("v",), (t, c))


# ---------------------------------------------------------------------------
# local relations
# ---------------------------------------------------------------------------


def expected_tags(moves: str) -> set[str]:
    base = {"R0A", "R0B", "R0C", "R0D", "R2A", "R2B", "R2C", "R3",
            "identity-move", "interchange-move"}
    return base | ({"R1"} if moves == "unframed" else {"R1'"})


def test_move_tags_cover_both_movesets():
    for moves in ("unframed", "framed"):
        seen = set()
        for name in CATALOG:
            for mp in move_neighbours(load_catalog(name), moves):
                seen.add(mp.tag)
        assert seen == expected_tags(moves)


def test_moves_preserve_boundary_words():
    for name in CATALOG:
        d = load_catalog(name)
        for mp in move_neighbours(d):
            assert mp.after.top == d.top
            assert mp.after.bottom == d.bottom
            assert mp.before is d


def test_kink_deletion_reaches_the_unknot():
    d = load_catalog("sigma1_sigma1inv_closed")
    unknot = load_catalog("unknot_closed")
    reachable = [mp.after for mp in move_neighbours(d)]
    assert any(a.slices == unknot.slices for a in reachable)


def test_framed_moveset_excludes_single_kinks():
    d = load_catalog("unknot_closed")
    tags_unframed = {mp.tag for mp in move_neighbours(d, "unframed")}
    tags_framed = {mp.tag for mp in move_neighbours(d, "framed")}
    assert "R1" in tags_unframed and "R1" not in tags_framed
    assert "R1'" in tags_framed and "R1'" not in tags_unframed
    with pytest.raises(DiagramError):
        move_neighbours(d, "virtual")


def test_writhe_changes_only_under_r1():
    for name in ("trefoil_plus_closed", "figure_eight_closed"):
        d = load_catalog(name)
        for mp in move_neighbours(d, "unframed"):
            if mp.tag == "R1":
                assert abs(mp.after.writhe - d.writhe) == 1
            else:
                assert mp.after.writhe == d.writhe
        for mp in move_neighbours(d, "framed"):
            assert mp.after.writhe == d.writhe
