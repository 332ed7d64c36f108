"""Sliced tangle diagrams: parsing, arcs, composition, moves, enhancements."""

from __future__ import annotations

import hashlib
import random

import pytest

from tanglesum.diagrams import (
    _relation_images,
    braid_word_to_tangle,
    catalog_names,
    DOWN,
    Enhancement,
    load_catalog,
    move_neighbours,
    parse_tangle,
    serialize_tangle,
    Slice,
    SlicedTangleDiagram,
    trace_closure,
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


def test_catalog_diagrams_are_parsed_once():
    from importlib import resources

    root = resources.files("tanglesum") / "catalog"
    for name in CATALOG:
        d = load_catalog(name)
        assert load_catalog(name) is d
        assert d == parse_tangle((root / f"{name}.tng").read_text())


def test_orientation_checking():
    with pytest.raises(OrientationMismatchError):
        SlicedTangleDiagram(("v", "^"), [("X+", 0)])
    with pytest.raises(OrientationMismatchError):
        SlicedTangleDiagram(("v", "v"), [("capR", 0)])
    with pytest.raises(WidthMismatchError):
        SlicedTangleDiagram(("v",), [("X+", 0)])
    with pytest.raises(OrientationMismatchError):
        SlicedTangleDiagram(("x",))


SLICE_ERRORS = [
    (("v",), [("cupR", 2)], WidthMismatchError,
     "slice 0: cup at 2 beyond width 1"),
    (("v",), [("X+", 0)], WidthMismatchError,
     "slice 0: X+ at 0 beyond width 1"),
    (("v", "^"), [("capL", 1)], WidthMismatchError,
     "slice 0: capL at 1 beyond width 2"),
    (("v", "^"), [("X+", 0)], OrientationMismatchError,
     "slice 0: X+ needs two downward strands at 0, found ('v', '^')"),
    (("v", "v"), [("capR", 0)], OrientationMismatchError,
     "slice 0: capR expects ('v', '^') at 0, found ('v', 'v')"),
    (("v", "^"), [("id", 0), ("capR", 0), ("X-", 0)], WidthMismatchError,
     "slice 2: X- at 0 beyond width 0"),
    (("v", "v"), [("cupL", 1), ("capL", 0), ("X+", 5)],
     OrientationMismatchError,
     "slice 1: capL expects ('^', 'v') at 0, found ('v', '^')"),
]


@pytest.mark.parametrize("top, slices, error, message", SLICE_ERRORS)
def test_slice_errors_name_the_first_bad_slice(top, slices, error, message):
    with pytest.raises(error) as info:
        SlicedTangleDiagram(top, slices)
    assert str(info.value) == message


@pytest.mark.parametrize("top, slices, error, message", SLICE_ERRORS)
def test_parse_tangle_raises_the_constructors_slice_error(top, slices, error,
                                                          message):
    text = "\n".join([f"top: {' '.join(top)}"]
                     + [f"{gen} @{pos}" for gen, pos in slices])
    with pytest.raises(error) as info:
        parse_tangle(text)
    assert str(info.value) == message


def test_slice_is_a_validated_tuple():
    s = Slice("X+", 1)
    assert (s.gen, s.pos) == ("X+", 1)
    assert s == ("X+", 1) and hash(s) == hash(("X+", 1))
    with pytest.raises(DiagramError, match="unknown generator 'Y'"):
        Slice("Y", 0)
    with pytest.raises(DiagramError, match="negative position -1"):
        Slice("cupR", -1)


def propagate_words(d: SlicedTangleDiagram) -> tuple:
    """The orientation word of every level, slice by slice."""
    words = [d.top]
    for s in d.slices:
        w = words[-1]
        if s.gen in ("cupR", "cupL"):
            made = ("v", "^") if s.gen == "cupR" else ("^", "v")
            w = w[:s.pos] + made + w[s.pos:]
        elif s.gen in ("capR", "capL"):
            w = w[:s.pos] + w[s.pos + 2:]
        words.append(w)
    return tuple(words)


def test_words_match_a_slice_by_slice_propagation():
    for name in catalog_names():
        base = load_catalog(name)
        for moves in ("unframed", "framed"):
            for d in [base] + [mp.after for mp in move_neighbours(base, moves)]:
                assert d.words == propagate_words(d), (name, d.slices)
                assert d.bottom == d.words[-1]
                assert len(d.levels) == len(d.words)
                assert [len(r) for r in d.levels] == [len(w) for w in d.words]


def test_arc_structure_of_string_trefoil():
    d = load_catalog("trefoil_plus_string")
    # one arc per undercrossing passage plus the unbroken boundary runs
    tops, bots = d.boundary_arcs()
    assert len(tops) == 1 and len(bots) == 1
    assert tops != bots
    assert d.n_arcs == 4


def test_parse_serialize_round_trip():
    for name in CATALOG:
        d = load_catalog(name)
        again = parse_tangle(serialize_tangle(d))
        assert again.top == d.top and again.slices == d.slices


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
        a.then(SlicedTangleDiagram((DOWN,)))
    with pytest.raises(DiagramError):
        d.split(9)


# ---------------------------------------------------------------------------
# boundary enhancements
# ---------------------------------------------------------------------------


def test_enhancement_evaluation_stars_up_strands():
    s3 = symmetric_group(3)
    t = s3.element_by_label("(1 2)")
    c = s3.element_by_label("(1 2 3)")
    assert Enhancement(("v", "v"), (t, c)).evaluation(s3) == s3.mul(t, c)
    assert Enhancement(("v", "^"), (t, c)).evaluation(s3) == s3.mul(t, s3.inv(c))
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


def seeded_braid_closures(count: int = 60, seed: int = 9):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        strands = rng.choice([2, 3])
        word = [rng.choice([1, -1]) * rng.randint(1, strands - 1)
                for _ in range(rng.randint(1, 3))]
        out.append(trace_closure(braid_word_to_tangle(word, strands),
                                 keep=rng.randint(0, 1)))
    return out


def test_every_move_is_undone_by_a_move_of_the_same_tag():
    # every relation is listed both ways, so d is a neighbour of each of
    # its neighbours under the same tag.  Within a relation group the
    # inserts come first, so the first and the last neighbour under a tag
    # are an insertion and, where d has one, a deletion or replacement;
    # back-checking all 15,244 neighbours takes about 16 s on 2 CPUs
    diagrams = [load_catalog(n) for n in catalog_names()]
    for d in diagrams + seeded_braid_closures():
        for moves in ("unframed", "framed"):
            first, last = {}, {}
            for mp in move_neighbours(d, moves):
                first.setdefault(mp.tag, mp)
                last[mp.tag] = mp
            for mp in [*first.values(), *last.values()]:
                assert (mp.tag, d.slices) in _relation_images(mp.after, moves), (
                    mp.tag, d.slices, mp.after.slices)


# per catalog diagram and move set: the number of neighbours and the SHA-256
# of repr(sorted((tag, serialize_tangle(after)))), frozen from the
# hand-coded generator the relation table replaced
NEIGHBOURS_FROZEN = [
    ("braid_sigma1_sigma2_sigma1", "unframed", 90,
     "8357958b3d1f8db6fe96ddee33a52b77be575f35d9b5ff90222d0a38b1737842"),
    ("braid_sigma1_sigma2_sigma1", "framed", 90,
     "629b7a6c3c615b7b9ff9f088df7df5c03a692c31be8276078b30fdf47e4a3712"),
    ("crossing_rotated_minus", "unframed", 98,
     "0fddf70acec890a2a2c2a3504b2d3d7034b732730226abd470bf5c9416434b7d"),
    ("crossing_rotated_minus", "framed", 98,
     "6ac9694d25a06a4589e8fce6db8687acfc15313a084338c3c9b26193a1c64e29"),
    ("crossing_rotated_plus", "unframed", 98,
     "a5acf0c17dcbfe0434d6e3fa4ac9b8d57644da5d78cc7d4349ac84fbe0807d64"),
    ("crossing_rotated_plus", "framed", 98,
     "db06a0ef8522495ee87ce26c318b250bc54a2c1d8889a2e6b89f187049e2e5a3"),
    ("figure_eight_closed", "unframed", 218,
     "5f32dee31001753a0b388ccda03236a6950c8c31f82b33bfc45ed017f4823da1"),
    ("figure_eight_closed", "framed", 218,
     "4de7b6a9dc7b54b9d0605e4ea79c558189a392808166a640ee819e0ec3bc3832"),
    ("hopf_link_closed", "unframed", 85,
     "b50aebac0a1e383150d505d1b48e4d82a8cfa74ee5c92c4b77417c70b7ee5941"),
    ("hopf_link_closed", "framed", 85,
     "0a3b63fa9a177797cac181bfd71a59f0429468f82d620ab95162233cd8ed323d"),
    ("sigma1_sigma1inv_closed", "unframed", 128,
     "271dcb3ec30e4fde51b3f6cddfcc0fa96cc72b4d53acafc899686f97f176839f"),
    ("sigma1_sigma1inv_closed", "framed", 128,
     "22dbb25073b629f80cc03e10b619955c806a3287570ec2f2b8373992afcd1724"),
    ("trefoil_minus_closed", "unframed", 105,
     "bbea6a94695fb3d212c2582f93fe98fc18a36a1f2d934d6355a8f22ae303ccff"),
    ("trefoil_minus_closed", "framed", 105,
     "699ba0ae41c6fae8a13ec59cb150bafe7b8407e86df085887e79edb1b6dc4884"),
    ("trefoil_minus_string", "unframed", 87,
     "813d20782909db483b120581ac444cd01af97b9c4d4c4290d75685ea51353a70"),
    ("trefoil_minus_string", "framed", 87,
     "c47b81d528ea867530e535e19024103840cacef469b8da5e6633064f336369a8"),
    ("trefoil_plus_closed", "unframed", 105,
     "4d050f3134b796129d898a4178e4d251f7ffcd6e2752f9ecf96cc2a95db3de5c"),
    ("trefoil_plus_closed", "framed", 105,
     "4a380a4ce11c72c509d2b3fa0cdaad8dacb36d219124407949fd130ea6650dee"),
    ("trefoil_plus_string", "unframed", 87,
     "3d152f6210bcca8c975b4fffb1c9673bab50795c8554cd3a345593233820a76d"),
    ("trefoil_plus_string", "framed", 87,
     "ea6a380694bd84827ee7ccb9a49b1d88bc71e40a4b33a5d78bd0f4f20c42615b"),
    ("unknot_closed", "unframed", 13,
     "8feaecc546017ba73d18fa81113b58b2bbc11dc7c89c3370c19e6f039745585b"),
    ("unknot_closed", "framed", 13,
     "4e3ed61a4a95205d39e7bdb604ffe881edae8db95c107505f13608eca30b5001"),
    ("unknot_string", "unframed", 7,
     "1ce13f39b448b31f7e721e4e9d9d369d9c04d22145bc9757b438144f2c3b5db8"),
    ("unknot_string", "framed", 7,
     "806d595cc9e6c2a09e5cbaed6b2931e4df4f3d567d6efee49ffb0a942f063a97"),
]


def test_catalog_neighbours_are_frozen():
    assert sorted({name for name, *_ in NEIGHBOURS_FROZEN}) == catalog_names()
    for name, moves, count, digest in NEIGHBOURS_FROZEN:
        found = sorted((mp.tag, serialize_tangle(mp.after))
                       for mp in move_neighbours(load_catalog(name), moves))
        assert len(found) == count, (name, moves)
        assert hashlib.sha256(repr(found).encode()).hexdigest() == digest, (
            name, moves)
