"""The numpy sweep against the slice-level oracle on random diagrams.

Diagrams are braid words on 2-3 strands, open or closed by trace_closure,
followed by a short chain of move neighbours.  For every pair family the
sweep's invariant_matrix must equal the oracle's matrix exactly, and each
move must leave it unchanged; the bra reading, one sum seeded on a fixed
bottom, must equal the oracle's matrix at that bottom.  A catalog sweep
over S4 covers what those small groups cannot, and the colourings that
enumerate_colourings streams, counted as a multiset of (top, bottom,
element), must equal the oracle's matrix too.  The fixed diagrams of
these tests compile to derive and check steps on either table, and to a
crossing of either sign with no step of its own, and one of their check
steps drops rows, so the E-fold after the colour pass is compared with
the oracle on each kind.  Every compiled program of the catalog and its
move neighbours has one fold per crossing, applies each crossing's
relation in exactly one step, and writes each arc once before any step
reads it.
"""

from __future__ import annotations

import functools
import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from named_examples import move_families
from slice_oracle import oracle_matrix
from tanglesum import engine
from tanglesum.diagrams import (
    SlicedTangleDiagram,
    braid_word_to_tangle,
    catalog_names,
    load_catalog,
    move_neighbours,
    trace_closure,
)
from tanglesum.diagrams import UP
from tanglesum.engine import (
    compile_program,
    enumerate_colourings,
    evaluate,
    invariant,
    invariant_matrix,
)
from tanglesum.groups import symmetric_group
from tanglesum.pairs import pair_eisermann

# keeps the oracle's work per example small: cups, crossings
MAX_CUPS = 3
MAX_CROSSINGS = 8
# top colourings sampled per two-strand catalog diagram over S4
S4_TOPS = 24


@functools.cache
def pairs() -> dict:
    """The moves families, plus Eisermann S3 at a transposition."""
    s3 = symmetric_group(3)
    return {**move_families(), "eisermann S3 (1 2)": pair_eisermann(
        s3, s3.element_by_label("(1 2)"), carrier="group")}


def _small(d) -> bool:
    cups = sum(1 for s in d.slices if s.gen in ("cupR", "cupL"))
    return cups <= MAX_CUPS and len(d.crossings) <= MAX_CROSSINGS


@st.composite
def braid_closures(draw):
    strands = draw(st.integers(2, 3))
    letters = [i for i in range(1 - strands, strands) if i]
    word = draw(st.lists(st.sampled_from(letters), max_size=6))
    d = braid_word_to_tangle(word, strands)
    keep = draw(st.sampled_from([None, 0, 1]))
    return d if keep is None else trace_closure(d, keep=keep)


def _check_bra_readings(d, pair, oracle: dict) -> None:
    """The bottom-seeded sum at each bottom the oracle reaches equals the
    oracle's matrix at that bottom, and at one bottom it never reaches,
    if there is one, it is empty."""
    by_bottom: dict = {}
    for (top, bottom), terms in oracle.items():
        by_bottom.setdefault(bottom, {})[top] = terms
    for bottom, column in by_bottom.items():
        bra = invariant(d, pair, bottom=bottom)
        assert {top: iv.terms for top, iv in bra.items()} == column, bottom
    unreached = next((b for b in itertools.product(range(pair.g.order),
                                                   repeat=len(d.bottom))
                      if b not in by_bottom), None)
    if unreached is not None:
        assert invariant(d, pair, bottom=unreached) == {}


@pytest.mark.parametrize("tag", sorted(pairs()))
@settings(max_examples=30)
@given(d=braid_closures(), data=st.data())
def test_sweep_equals_reference_along_move_chains(tag, d, data):
    pair = pairs()[tag]
    expected = oracle_matrix(d, pair)
    assert invariant_matrix(d, pair) == expected
    _check_bra_readings(d, pair, expected)
    for _ in range(data.draw(st.integers(0, 2), label="moves")):
        nexts = [mp.after for mp in move_neighbours(d, pair.mode)
                 if _small(mp.after)]
        if not nexts:
            break
        d = data.draw(st.sampled_from(nexts), label="neighbour")
        matrix = invariant_matrix(d, pair)
        oracle = oracle_matrix(d, pair)
        assert matrix == oracle
        assert matrix == expected
        _check_bra_readings(d, pair, oracle)


def test_sweep_equals_reference_on_the_catalog_over_s4():
    # over S3 and the D4 quotient, g and g^-1 act alike on every psi/phi
    # value, so only a larger group checks that upward strands left of a
    # crossing enter its prefix inverted; a fixed sample of S4_TOPS tops
    # per two-strand diagram keeps the oracle's share small
    s4 = symmetric_group(4)
    pair = pair_eisermann(s4, s4.element_by_label("(1 2 3 4)"), carrier="group")
    rng = random.Random(4)
    for name in catalog_names():
        d = load_catalog(name)
        if len(d.top) > 2:
            continue
        tops = list(itertools.product(range(s4.order), repeat=len(d.top)))
        if len(tops) > S4_TOPS:
            tops = sorted(rng.sample(tops, S4_TOPS))
        matrix = {key: terms for key, terms in invariant_matrix(d, pair).items()
                  if key[0] in tops}
        assert matrix == oracle_matrix(d, pair, tops), name


# open diagrams whose top edge meets one arc more than once, some with a
# crossing whose outgoing under-arc is that top arc
REPEATED_TOP_ARCS = [
    (("v", "^"), [("capR", 0)]),
    (("v", "^", "v"), [("capR", 0)]),
    (("^", "v", "v", "v"), [("capL", 0), ("X+", 0)]),
    (("v", "v", "^", "^"), [("X+", 0), ("capR", 1), ("capR", 0)]),
    (("v", "v", "^", "^"), [("X-", 0), ("capR", 1), ("capR", 0)]),
    (("v", "^", "v", "^"), [("capR", 2), ("capR", 0)]),
]


@pytest.mark.parametrize("tag", ["rack quandle R3", "eisermann S3",
                                 "lift unframed D4", "lift framed D4"])
@pytest.mark.parametrize("top, slices", REPEATED_TOP_ARCS)
def test_sweep_drops_tops_that_split_a_repeated_top_arc(tag, top, slices):
    pair = pairs()[tag]
    d = SlicedTangleDiagram(top, slices)
    tops = d.levels[0]
    assert len(set(tops)) < len(tops)
    matrix = invariant_matrix(d, pair)
    assert matrix == oracle_matrix(d, pair)
    assert matrix
    for top_cols, _ in matrix:
        seen = {}
        for a, c in zip(tops, top_cols):
            assert seen.setdefault(a, c) == c


# open diagrams whose bottom edge meets one arc more than once, some with a
# crossing whose over-arc is that bottom arc
REPEATED_BOTTOM_ARCS = [
    ((), [("cupR", 0)]),
    (("v",), [("cupR", 0)]),
    (("v", "v"), [("cupR", 1), ("X+", 0)]),
    (("v", "v"), [("cupL", 2), ("X-", 0)]),
    (("v", "v"), [("X+", 0), ("cupR", 2), ("X+", 1)]),
]


@pytest.mark.parametrize("tag", ["rack quandle R3", "eisermann S3",
                                 "lift unframed D4", "lift framed D4"])
@pytest.mark.parametrize("top, slices", REPEATED_BOTTOM_ARCS)
def test_bra_reading_drops_bottoms_that_split_a_repeated_bottom_arc(
        tag, top, slices):
    pair = pairs()[tag]
    d = SlicedTangleDiagram(top, slices)
    bottoms = d.levels[-1]
    assert len(set(bottoms)) < len(bottoms)
    oracle = oracle_matrix(d, pair)
    split = 0
    for bottom in itertools.product(range(pair.g.order), repeat=len(bottoms)):
        bra = invariant(d, pair, bottom=bottom)
        assert {t: iv.terms for t, iv in bra.items()} == {
            t: terms for (t, b), terms in oracle.items() if b == bottom}
        if len({(a, c) for a, c in zip(bottoms, bottom)}) > len(set(bottoms)):
            assert bra == {}
            split += 1
    assert split


@pytest.mark.parametrize("tag", ["cocycle R3/Z3", "eisermann S3",
                                 "lift framed D4"])
def test_single_colourings_equal_the_oracle(tag):
    # the (top, bottom, element) of each colouring that enumerate_colourings
    # streams, over every top, counted as a multiset
    pair = move_families()[tag]
    transfer = pair.transfer()
    for name in catalog_names():
        d = load_catalog(name)
        got: dict = {}
        for top in itertools.product(range(pair.g.order), repeat=len(d.top)):
            for col in enumerate_colourings(d, transfer, top=top):
                key = tuple(tuple(col.arc_colours[a] for a in level)
                            for level in (d.levels[0], d.levels[-1]))
                terms = got.setdefault(key, {})
                elt = evaluate(col).elt
                terms[elt] = terms.get(elt, 0) + 1
        assert got == oracle_matrix(d, pair), (tag, name)


def _fixed_programs():
    """(diagram, program) for the fixed diagrams above: the catalog seeded
    on the top, the repeated top arcs on the top and the repeated bottom
    arcs on the bottom, as their tests read them."""
    for name in catalog_names():
        d = load_catalog(name)
        yield d, compile_program(d)
    for top, slices in REPEATED_TOP_ARCS:
        d = SlicedTangleDiagram(top, slices)
        yield d, compile_program(d)
    for top, slices in REPEATED_BOTTOM_ARCS:
        d = SlicedTangleDiagram(top, slices)
        yield d, compile_program(d, from_bottom=True)


def test_the_fixed_diagrams_cover_every_step_kind():
    # kinds: (check, plus) of every step; a crossing has no step of its own
    # when a step ahead of it derives its incoming under-arc from the
    # outgoing one; a check drops rows when the sweep cut just after it
    # finishes fewer rows than the sweep cut just before it, over every top
    # of a catalog diagram
    pair = move_families()["eisermann S3"]
    kinds = set()
    trusted = set()
    drops = 0
    for d, prog in _fixed_programs():
        steps = {ev for ev in prog.events if type(ev) is not int}
        for c in d.crossings:
            if engine.Step(c.sign > 0, False, c.over_arc, c.under_out_arc,
                           c.under_in_arc) in steps:
                trusted.add(c.sign)
        for k, ev in enumerate(prog.events):
            if type(ev) is int:
                continue
            kinds.add((ev.check, ev.plus))
            if not ev.check or prog.seed_arcs != prog.top_arcs:
                continue
            tops = engine._all_tops(pair.g.order, len(d.top))
            before, after = (
                sum(map(len, engine._sweep(
                    prog._replace(events=prog.events[:j], folds=()),
                    pair, tops)))
                for j in (k, k + 1))
            drops += after < before
    assert kinds == {(check, plus) for check in (False, True)
                     for plus in (False, True)}
    assert trusted == {1, -1}
    assert drops


# a crossing relation b = fminus[over, a], i.e. a = fplus[over, b], keyed
# (over, a, b) however a step or a crossing applies it


def _step_relation(step) -> tuple:
    plus, _, o, src, dst = step
    return (o, dst, src) if plus else (o, src, dst)


def _crossing_relation(c) -> tuple:
    # X+: out = fminus[over, in]; X-: out = fplus[over, in]
    _, _, sign, o, i, u = c
    return (o, i, u) if sign > 0 else (o, u, i)


@pytest.mark.parametrize("moves", ["unframed", "framed"])
@pytest.mark.parametrize("name", catalog_names())
def test_programs_fold_every_crossing_and_write_each_arc_once(name, moves):
    d = load_catalog(name)
    for e in [d] + [mp.after for mp in move_neighbours(d, moves)]:
        for from_bottom in (False, True):
            prog = compile_program(e, from_bottom=from_bottom)
            where = (name, moves, from_bottom, e.slices)
            # one fold per crossing, top down
            assert prog.folds == tuple(
                (c.sign, c.over_arc, c.under_out_arc,
                 tuple((a, w == UP) for a, w in zip(e.levels[c.row][:c.pos],
                                                    e.words[c.row])))
                for c in e.crossings), where
            # each crossing's relation is applied by exactly one step, so a
            # crossing whose relation a derive step used has no step
            steps = [ev for ev in prog.events if type(ev) is not int]
            assert Counter(map(_step_relation, steps)) == Counter(
                map(_crossing_relation, e.crossings)), where
            # every arc off the seeded boundary is written once, by a branch
            # or a derive step, before a step reads it
            written = set(prog.seed_arcs)
            for ev in prog.events:
                if type(ev) is int:
                    assert ev not in written, where
                    written.add(ev)
                    continue
                assert {ev.over, ev.src} <= written, where
                assert (ev.dst in written) == ev.check, where
                written.add(ev.dst)
            assert written == set(range(e.n_arcs)), where
