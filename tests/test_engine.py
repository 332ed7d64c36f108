"""The state-sum engine: colourings, evaluation, invariants, and the
classical reductions (rack counting, cocycle state sums, abelianisation)."""

from __future__ import annotations

import gc
import hashlib
import itertools
import sys
import threading
import time
import tracemalloc
import weakref
from fractions import Fraction
from functools import cached_property

import numpy as np
import pytest

from named_examples import GF4_COCYCLE, GF4_RIGHT, R3_COCYCLE
from oracles import (
    abelianisation_framed_invariant,
    cjkls_state_sum,
    longitude_value,
    longitude_word,
    MultiComponentError,
    rack_colouring_count,
    wirtinger_count,
)
from tanglesum import engine
from tanglesum.algebra import GroupAlgebraElement
from tanglesum.crossed_modules import (
    abelianisation_tensor_2xmod,
    xm_identity,
    xm_trivial_boundary,
)
from tanglesum.diagrams import (
    braid_word_to_tangle,
    catalog_names,
    Enhancement,
    load_catalog,
    move_neighbours,
    SlicedTangleDiagram,
    trace_closure,
)
from tanglesum.engine import (
    PROGRAM_CACHE_SIZE,
    compile_program,
    enumerate_colourings,
    evaluate,
    invariant,
    invariant_matrix,
    tqft_compose_check,
)
from tanglesum.errors import (
    EnhancementMismatchError,
    NonComposableError,
    NotClosedError,
    SizeLimitError,
    TangleSumError,
)
from tanglesum.groups import cyclic_group, symmetric_group, trivial_group
from tanglesum.pairs import (
    pair_eisermann,
    pair_from_2xmod,
    pair_from_rack,
    pair_from_rack_cocycle,
)
from tanglesum.racks import (
    cocycle_from_json,
    conjugation_quandle,
    dihedral_quandle,
)


def rack_pair(n: int = 3):
    return pair_from_rack(dihedral_quandle(n), cyclic_group(n))


def eisermann_s3():
    s3 = symmetric_group(3)
    return pair_eisermann(s3, s3.element_by_label("(1 2)"), carrier="group")


# ---------------------------------------------------------------------------
# colourings and evaluation
# ---------------------------------------------------------------------------


def test_unknot_string_propagates_each_colour():
    p = rack_pair()
    d = load_catalog("unknot_string")
    for c in range(3):
        cols = list(enumerate_colourings(d, p.transfer(), top=(c,)))
        assert len(cols) == 1
        assert tuple(cols[0].arc_colours[a] for a in d.levels[-1]) == (c,)
        m = evaluate(cols[0])
        assert m.elt == p.e.identity  # no crossings, trivial morphism
        assert m.src == c


def test_single_positive_crossing_morphism():
    p = eisermann_s3()
    g = p.g
    d = SlicedTangleDiagram(("v", "v"), [("X+", 0)])
    t = p.transfer()
    bnd = p.xmod.boundary.mapping
    for under_in in range(6):
        for over in range(6):
            # the over strand enters top right and leaves bottom left
            cols = list(enumerate_colourings(d, t, top=(under_in, over)))
            assert len(cols) == 1
            col = cols[0]
            # the y with under_in = bd(psi(over, y))^-1 over y over^-1
            [under_out] = [
                y for y in range(6)
                if g.mul(g.mul(g.inv(int(bnd[p.psi[over, y]])),
                               g.mul(over, y)), g.inv(over)) == under_in]
            bottom = tuple(col.arc_colours[a] for a in d.levels[-1])
            assert bottom == (over, under_out)
            m = evaluate(col)
            assert m.elt == p.psi[over, under_out]
            assert m.src == g.mul(under_in, over)
            # boundary identity: d(elt) e(top) = e(bottom)
            assert m.tgt == g.mul(over, under_out)


def test_closed_colourings_land_in_the_boundary_kernel():
    d = load_catalog("trefoil_plus_closed")
    for p in (rack_pair(), eisermann_s3()):
        ker = set(p.xmod.kernel())
        cols = list(enumerate_colourings(d, p.transfer()))
        assert cols
        for col in cols:
            assert evaluate(col).elt in ker or p.xmod.boundary(
                evaluate(col).elt
            ) == p.g.identity


def test_invariant_buckets_satisfy_boundary_identity():
    p = eisermann_s3()
    d = load_catalog("trefoil_plus_string")
    for top in range(6):
        buckets = invariant(d, p, top=(top,))
        assert buckets
        for iv in buckets.values():
            assert iv.check_boundary()


# ---------------------------------------------------------------------------
# rack-pair reduction: the invariant is the colouring count
# ---------------------------------------------------------------------------


def test_rack_pair_invariant_counts_colourings_closed():
    cases = [
        ("trefoil_plus_closed", 3, 9),
        ("figure_eight_closed", 3, 3),
        ("figure_eight_closed", 5, 25),
        ("unknot_closed", 3, 3),
    ]
    for name, n, count in cases:
        p = rack_pair(n)
        v = invariant(load_catalog(name), p)
        assert v.terms == {p.e.identity: count}
        assert v.total == rack_colouring_count(load_catalog(name), p.meta["rack"])


def test_rack_pair_invariant_matrix_matches_counts_open():
    p = rack_pair(3)
    r3 = p.meta["rack"]
    d = load_catalog("trefoil_plus_string")
    mat = invariant_matrix(d, p)
    for (top, bot), terms in mat.items():
        expected = rack_colouring_count(d, r3, top=top, bottom=bot)
        assert sum(terms.values()) == expected


# ---------------------------------------------------------------------------
# cocycle reduction: the kernel part carries the cocycle state sum
# ---------------------------------------------------------------------------


def cocycle_invariant_as_v_sum(d, cocycle, group):
    """Engine invariant of the cocycle pair, pushed into N[V]."""
    p = pair_from_rack_cocycle(cocycle, group)
    v = invariant(d, p)
    m = cocycle.v.order
    # E = G x V; closed diagrams land in {id} x V
    return v.algebra().map_elements(lambda e: e % m, cocycle.v)


def test_cocycle_pair_reduces_to_cjkls_state_sum():
    r3 = dihedral_quandle(3)
    c3 = cocycle_from_json(r3, R3_COCYCLE)
    from tanglesum.racks import Rack

    gf4 = Rack(right=np.array(GF4_RIGHT), name="GF4")
    c4 = cocycle_from_json(gf4, {"v_moduli": [2], "table": GF4_COCYCLE})
    for name in ("trefoil_plus_closed", "figure_eight_closed", "unknot_closed"):
        d = load_catalog(name)
        got3 = cocycle_invariant_as_v_sum(d, c3, cyclic_group(3))
        assert got3 == cjkls_state_sum(d, c3)
        got4 = cocycle_invariant_as_v_sum(d, c4, cyclic_group(4))
        assert got4 == cjkls_state_sum(d, c4)


# ---------------------------------------------------------------------------
# commutator-pair values on the trefoils
# ---------------------------------------------------------------------------


def test_eisermann_s5_trefoil_string_values():
    s5 = symmetric_group(5)
    x = s5.element_by_label("(1 2 3 4 5)")
    p = pair_eisermann(s5, x, carrier="group")
    expect = {
        "trefoil_plus_string": "id + 5*(1 5 4 3 2)",
        "trefoil_minus_string": "id + 5*(1 2 3 4 5)",
    }
    for name, display in expect.items():
        buckets = invariant(load_catalog(name), p, top=(s5.identity,))
        total = GroupAlgebraElement.zero(p.e)
        for iv in buckets.values():
            total = total + iv.algebra()
        assert total.display() == display


def test_eisermann_s5_trefoil_closed_value():
    s5 = symmetric_group(5)
    x = s5.element_by_label("(1 2 3 4 5)")
    p = pair_eisermann(s5, x, carrier="group")
    v = invariant(load_catalog("trefoil_plus_closed"), p)
    assert v.terms == {s5.identity: 120}


# ---------------------------------------------------------------------------
# counting homomorphisms
# ---------------------------------------------------------------------------


def test_wirtinger_count_identity_module_is_one():
    s3 = symmetric_group(3)
    xm = xm_identity(s3)
    for name in ("trefoil_plus_closed", "figure_eight_closed", "unknot_closed",
                 "hopf_link_closed", "sigma1_sigma1inv_closed"):
        assert wirtinger_count(load_catalog(name), xm) == 1


def test_wirtinger_count_unknot_normalisation():
    s3 = symmetric_group(3)
    xm = xm_trivial_boundary(s3, trivial_group())
    assert wirtinger_count(load_catalog("unknot_closed"), xm) == 1


def test_wirtinger_count_trefoil_counts_conjugation_colourings():
    # with the one-point module the count is #Hom / |G|^(number of arcs),
    # and the homs of the knot group correspond to conjugation colourings
    s3 = symmetric_group(3)
    xm = xm_trivial_boundary(s3, trivial_group())
    d = load_catalog("trefoil_plus_closed")
    homs = rack_colouring_count(d, conjugation_quandle(s3))
    assert homs == 12
    assert wirtinger_count(d, xm) == Fraction(int(homs), 6 ** d.n_arcs)


def test_wirtinger_count_requires_closed_diagram():
    s3 = symmetric_group(3)
    with pytest.raises(NotClosedError):
        wirtinger_count(load_catalog("unknot_string"), xm_identity(s3))


# ---------------------------------------------------------------------------
# longitudes
# ---------------------------------------------------------------------------


def test_longitude_word_of_string_trefoil():
    d = load_catalog("trefoil_plus_string")
    word = longitude_word(d)
    assert len(word) == 6  # one over and one under letter per crossing
    assert sum(sign for _, sign in word) == 0  # writhe-corrected exponent


def test_longitude_word_of_crossingless_strand():
    d = load_catalog("unknot_string")
    assert longitude_word(d) == ()


def test_longitude_value_in_abelian_quotient_is_trivial():
    z5 = cyclic_group(5)
    d = load_catalog("trefoil_plus_string")
    # any colouring by a single abelian element kills the longitude
    for c in range(5):
        colours = {arc: c for arc in range(d.n_arcs)}
        assert longitude_value(d, colours, z5) == z5.identity


def test_longitude_matches_bottom_colour_under_eisermann_propagation():
    # an identity-top colouring writes the longitude of the projected
    # meridians h^-1 x h into the bottom arc
    s5 = symmetric_group(5)
    x = s5.element_by_label("(1 2 3 4 5)")
    p = pair_eisermann(s5, x, carrier="group")
    d = load_catalog("trefoil_plus_string")
    _, bots = d.boundary_arcs()
    seen = 0
    for col in enumerate_colourings(d, p.transfer(), top=(s5.identity,)):
        mer = {a: s5.word([s5.inv(h), x, h])
               for a, h in enumerate(col.arc_colours)}
        lam = longitude_value(d, mer, s5)
        assert lam == col.arc_colours[bots[0]]
        seen += 1
    assert seen == 6


def _string_knots():
    """One-component string diagrams: the catalog's, their move neighbours
    in both modes, and the keep=1 closures of 4-letter 3-strand braids."""
    catalog = [load_catalog(name) for name in catalog_names()]
    out = list(catalog)
    for d in catalog:
        for moves in ("unframed", "framed"):
            out += [mp.after for mp in move_neighbours(d, moves=moves)]
    out += [trace_closure(braid_word_to_tangle(w, 3), keep=1)
            for w in itertools.product((1, -1, 2, -2), repeat=4)]
    return [d for d in out
            if d.top == d.bottom == ("v",) and d.component_count() == 1]


def test_longitude_words_are_frozen():
    # order and sign of every under-passage along the strand, as the
    # port-by-port strand walk found them
    words = [longitude_word(d) for d in _string_knots()]
    assert len(words) == 525
    assert sum(map(len, words)) == 4092
    assert hashlib.sha256(repr(words).encode()).hexdigest() == (
        "f02bfdb5b40c18b131f9abb4e843a9f5cb246b5bf38483faa50a8572c84c6719")


def test_longitude_requires_one_component_string():
    from tanglesum.errors import DiagramError

    with pytest.raises(DiagramError):
        longitude_word(load_catalog("trefoil_plus_closed"))
    # one open strand plus a split circle: right shape, two components
    two = SlicedTangleDiagram(("v",), [("cupR", 1), ("capR", 1)])
    with pytest.raises(MultiComponentError):
        longitude_word(two)


# ---------------------------------------------------------------------------
# composition along boundaries
# ---------------------------------------------------------------------------


def test_tqft_composition_on_stacked_braids():
    p = eisermann_s3()
    a = braid_word_to_tangle([1, 1], 2)
    b = braid_word_to_tangle([-1, 1], 2)
    assert tqft_compose_check(a, b, p)
    assert tqft_compose_check(b, a, p)


def test_tqft_composition_on_split_trefoil():
    p = rack_pair(3)
    d = load_catalog("trefoil_plus_string")
    for row in range(1, len(d.slices)):
        upper, lower = d.split(row)
        assert tqft_compose_check(upper, lower, p)


@pytest.mark.parametrize("degree, tops", [(3, 36), (5, 12)])
def test_tqft_composition_takes_three_state_sums(monkeypatch, degree, tops):
    # S3 checks all 36 two-strand tops, S5 a sample of 12 of its 14,400
    g = symmetric_group(degree)
    p = pair_eisermann(g, g.element_by_label("(1 2 3)"), carrier="group")
    calls = []
    state_sum = engine._state_sum

    def counted(d, pair, rows):
        calls.append(len(rows))
        return state_sum(d, pair, rows)

    monkeypatch.setattr(engine, "_state_sum", counted)
    a = braid_word_to_tangle([1, 1], 2)
    assert tqft_compose_check(a, braid_word_to_tangle([-1], 2), p)
    assert len(calls) == 3
    assert calls[0] == calls[2] == tops


def test_tqft_composition_rejects_mismatched_boundaries():
    p = rack_pair(3)
    a = braid_word_to_tangle([1], 2)
    with pytest.raises(NonComposableError):
        tqft_compose_check(a, load_catalog("unknot_string"), p)


# ---------------------------------------------------------------------------
# abelianisation invariant of framed knots
# ---------------------------------------------------------------------------


def abelianisation_sums(name, group):
    """Terms of the tensor-square pair's state sum of a catalog knot and of
    the direct sum, each in its own tensor square of G^ab, whose name and
    labels must agree."""
    d = load_catalog(name)
    pair = pair_from_2xmod(abelianisation_tensor_2xmod(group))
    sums = invariant(d, pair).algebra(), abelianisation_framed_invariant(d, group)
    assert len({(s.group.name, s.group.labels) for s in sums}) == 1
    return [s.terms for s in sums]


def test_abelianisation_invariant_values_s3():
    s3 = symmetric_group(3)
    engine_t, direct_t = abelianisation_sums("trefoil_plus_closed", s3)
    assert engine_t == direct_t
    assert engine_t == {0: 3, 1: 9}
    engine_u, direct_u = abelianisation_sums("unknot_closed", s3)
    assert engine_u == direct_u
    assert engine_u == {0: 6}


def test_abelianisation_invariant_even_writhe_concentrates():
    # figure eight has writhe 0, so every colouring contributes t^0
    s3 = symmetric_group(3)
    engine_f, direct_f = abelianisation_sums("figure_eight_closed", s3)
    assert engine_f == direct_f
    assert set(engine_f) == {0}


def test_abelianisation_invariant_rejects_links():
    s3 = symmetric_group(3)
    with pytest.raises(MultiComponentError):
        abelianisation_framed_invariant(load_catalog("hopf_link_closed"), s3)


# ---------------------------------------------------------------------------
# guards
# ---------------------------------------------------------------------------


def test_enhancement_mismatch_raises():
    p = rack_pair(3)
    d = load_catalog("trefoil_plus_string")
    with pytest.raises(EnhancementMismatchError):
        invariant(d, p, top=(0, 1))
    with pytest.raises(EnhancementMismatchError):
        invariant(d, p, top=(17,))
    with pytest.raises(EnhancementMismatchError):
        invariant(d, p)  # an open diagram needs a fixed boundary
    with pytest.raises(EnhancementMismatchError):
        invariant(d, p, bottom=(0, 1))


def test_a_closed_diagram_refuses_a_bottom_it_does_not_have():
    # a closed diagram's bottom is empty, in the ket reading as in the bra
    p = rack_pair(3)
    d = load_catalog("trefoil_plus_closed")
    assert invariant(d, p, top=(), bottom=()).total == 9
    for top in ((), None):
        with pytest.raises(EnhancementMismatchError,
                           match="bottom enhancement has 2 colours for 0"):
            invariant(d, p, top=top, bottom=(7, 8))


@pytest.mark.parametrize("top, bottom", [
    ("all", (0,)), ("all", "all"), ("all", None), ((0,), "all")])
def test_the_all_sentinel_is_refused(top, bottom):
    # the bra reading is spelled by giving the bottom alone; the old "all"
    # spelling must fail rather than compute something
    with pytest.raises(TangleSumError):
        invariant(load_catalog("trefoil_plus_string"), rack_pair(3),
                  top=top, bottom=bottom)


def test_bra_reading_buckets_the_bottom_seeded_sum_by_top():
    p = eisermann_s3()
    d = load_catalog("braid_sigma1_sigma2_sigma1")
    n = p.g.order
    matrix = invariant_matrix(d, p)
    for bottom in itertools.product(range(n), repeat=3):
        bra = invariant(d, p, bottom=bottom)
        assert {top: iv.terms for top, iv in bra.items()} == {
            top: terms for (top, bot), terms in matrix.items()
            if bot == bottom}
        for top, iv in bra.items():
            assert iv.source == Enhancement(d.top, top)
            assert iv.target == Enhancement(d.bottom, bottom)
            assert iv.check_boundary()
    # a closed diagram has one empty top
    closed = load_catalog("trefoil_plus_closed")
    bra = invariant(closed, p, bottom=())
    assert list(bra) == [()]
    assert bra[()].terms == invariant(closed, p).terms


def test_branch_cap_raises_size_limit():
    # branching happens at cups, so a split union of many circles hits the cap
    p = rack_pair(3)
    circles = SlicedTangleDiagram((), [("cupR", 0), ("capR", 0)] * 15)
    with pytest.raises(SizeLimitError):
        invariant(circles, p)


def test_branch_cap_error_names_the_branch_arcs():
    circles = SlicedTangleDiagram((), [("cupR", 0), ("capR", 0)] * 15)
    with pytest.raises(SizeLimitError,
                       match=r"3\^15 branches \(on arcs \[0, 1, 2, "):
        invariant(circles, rack_pair(3))


def test_branch_cap_counts_branch_events_not_cups():
    # one seed colours every arc: the second cup's arc is coloured through
    # the X+ below it and the third's through a closure, so 200^1 branches
    # run where 200^3 would not pass the cap
    d = load_catalog("sigma1_sigma1inv_closed")
    assert sum(1 for s in d.slices if s.gen in ("cupR", "cupL")) == 3
    assert len(compile_program(d).branch_arcs) == 1
    r = dihedral_quandle(200)
    p = pair_from_rack(r, cyclic_group(200))
    assert invariant(d, p).total == rack_colouring_count(d, r)


def test_branch_cap_counts_seeded_rows_times_branches():
    # 120 top colours seed 120 rows, and each row branches 120^3 ways: two
    # seeds for the figure eight and one for the split circle below it,
    # 207M colourings to try, though each factor alone is in bounds
    s5 = symmetric_group(5)
    p = pair_eisermann(s5, s5.element_by_label("(1 2 3 4 5)"), carrier="group")
    p.transfer()
    d = load_catalog("figure_eight_closed")
    beside = SlicedTangleDiagram(
        ("v",), [(s.gen, s.pos + 1) for s in d.slices]
        + [("cupR", 0), ("capR", 0)])
    start = time.perf_counter()
    with pytest.raises(SizeLimitError,
                       match=r"120 seeded rows x 120\^3 branches \(on arcs \["):
        invariant_matrix(beside, p)
    assert time.perf_counter() - start < 1.0


def test_frontier_memory_stays_bounded():
    # three cups, but the figure eight plans two seeds: the X- below the
    # first two cups fixes the third cup's arc.  Over the whole of S6 that
    # is 720^2 rows; unchunked, the intp frontier and its gathers peak at
    # 40 MiB against 5.1 MiB chunked
    s6 = symmetric_group(6)
    p = pair_eisermann(s6, s6.element_by_label("(1 2 3 4 5 6)"), carrier="group")
    p.transfer()
    d = load_catalog("figure_eight_closed")
    assert len(compile_program(d).branch_arcs) == 2
    tracemalloc.start()
    try:
        value = invariant(d, p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert value.total == 2880
    assert peak < 8 * 2**20


def test_sweep_chunks_are_intp(monkeypatch):
    # the colours and the E-element column index the tables with no cast:
    # the seeded frontier of a matrix, the one-top frontier of invariant
    # and the frontier that enumerate_colourings streams
    chunks = []
    real = engine._sweep

    def recording(*args):
        for rows in real(*args):
            chunks.append(rows)
            yield rows

    monkeypatch.setattr(engine, "_sweep", recording)
    monkeypatch.setattr(engine, "_last_matrix", None)
    p = eisermann_s3()
    assert invariant_matrix(load_catalog("trefoil_plus_string"), p)
    d = load_catalog("trefoil_plus_closed")
    assert invariant(d, p).total
    assert next(enumerate_colourings(d, p.transfer()))
    assert len(chunks) == 3
    assert all(rows.dtype == np.intp for rows in chunks)


def test_all_tops_are_built_once_and_read_only():
    tops = engine._all_tops(3, 2)
    assert engine._all_tops(3, 2) is tops
    assert tops.tolist() == [list(t) for t in itertools.product(range(3),
                                                                repeat=2)]
    with pytest.raises(ValueError):
        tops[0, 0] = 1
    assert engine._all_tops(3, 0).shape == (1, 0)


# ---------------------------------------------------------------------------
# seed planning
# ---------------------------------------------------------------------------


def _minimal_seed_count(d, known) -> int:
    """Fewest arcs that colour every arc together with the known arcs.

    Brute force over arc subsets.  A crossing whose over-arc is coloured
    colours either under-arc from the other.
    """
    def closure(arcs: set) -> set:
        grew = True
        while grew:
            grew = False
            for c in d.crossings:
                ends = {c.under_in_arc, c.under_out_arc}
                if c.over_arc in arcs and ends & arcs and ends - arcs:
                    arcs |= ends
                    grew = True
        return arcs

    known = set(known)
    free = [a for a in range(d.n_arcs) if a not in known]
    for k in range(len(free) + 1):
        for extra in itertools.combinations(free, k):
            if len(closure(known | set(extra))) == d.n_arcs:
                return k
    raise AssertionError("every arc together colours every arc")


@pytest.mark.parametrize("moves", ["unframed", "framed"])
@pytest.mark.parametrize("name", catalog_names())
def test_planned_seeds_are_minimal(name, moves):
    d = load_catalog(name)
    for e in [d] + [mp.after for mp in move_neighbours(d, moves)]:
        for from_bottom, known in enumerate(e.boundary_arcs()):
            prog = compile_program(e, from_bottom=bool(from_bottom))
            assert len(prog.branch_arcs) == _minimal_seed_count(e, known), (
                name, moves, from_bottom, e.slices)


def test_eisermann_a6_figure_eight_is_move_invariant():
    # the commutator carrier of S6 is A6 (order 360): two seeds plan 360^2
    # rows, where the three cup branches would exceed the cap
    s6 = symmetric_group(6)
    p = pair_eisermann(s6, s6.element_by_label("(1 2 3 4 5 6)"))
    assert p.g.order == 360
    d = load_catalog("figure_eight_closed")
    value = invariant(d, p)
    assert value.check_boundary()
    assert value.total > 0
    first: dict = {}
    for mp in move_neighbours(d, p.mode):
        if (mp.tag not in first
                and len(compile_program(mp.after).branch_arcs) <= 2):
            first[mp.tag] = mp.after
    assert {"R0A", "R0B", "R1", "R2A", "R2C"} <= set(first)
    for tag, after in first.items():
        assert invariant(after, p).total == value.total, tag


def _plain(x):
    """x with every tuple in it, NamedTuples included, a plain tuple."""
    return tuple(map(_plain, x)) if isinstance(x, tuple) else x


def test_compiled_programs_are_frozen():
    # every program of the catalog diagrams and all their neighbours in
    # both move sets, seeded on the top and on the bottom: a change to the
    # planner or the compiler that moves, adds or drops one step, branch or
    # fold shows here.  The digest was frozen when steps and folds replaced
    # crossing events, after each of these programs was checked equal to
    # its crossing-event program re-encoded, with nothing left over
    digest = hashlib.sha256()
    count = 0
    for name in catalog_names():
        d = load_catalog(name)
        for e in [d] + [mp.after for moves in ("unframed", "framed")
                        for mp in move_neighbours(d, moves)]:
            for from_bottom in (False, True):
                prog = _plain(engine._compile(e, from_bottom))
                digest.update(repr(prog).encode())
                count += 1
    assert count == 4508
    assert digest.hexdigest() == (
        "92f7cb8f57e645bc0b9bf56a9eab64dfb567c6999cd3fef1c1d03a2848eea3ab")


# ---------------------------------------------------------------------------
# the program cache
# ---------------------------------------------------------------------------


def test_equal_diagrams_share_one_program():
    a = braid_word_to_tangle([1, -2, 1], 3)
    b = SlicedTangleDiagram(("v",) * 3, [("X+", 0), ("X-", 1), ("X+", 0)])
    assert a is not b
    assert compile_program(a) is compile_program(b)
    # the seeded boundary is part of the key
    bra = compile_program(a, from_bottom=True)
    assert bra is compile_program(b, from_bottom=True)
    assert bra is not compile_program(a)
    assert bra.seed_arcs == a.levels[-1] != compile_program(a).seed_arcs
    # the cache keys on content, so it keeps no diagram alive
    ref = weakref.ref(a)
    del a
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("moves", ["unframed", "framed"])
@pytest.mark.parametrize("name", catalog_names())
def test_cached_program_equals_a_fresh_compile(name, moves):
    d = load_catalog(name)
    for e in [d] + [mp.after for mp in move_neighbours(d, moves)]:
        for from_bottom in (False, True):
            cached = compile_program(e, from_bottom)
            again = SlicedTangleDiagram(e.top, e.slices)
            assert compile_program(again, from_bottom) is cached
            assert cached == engine._compile(e, from_bottom), (
                name, from_bottom, e.slices)
        assert (compile_program(e, from_bottom=True)
                is not compile_program(e))


def test_program_cache_stays_within_its_bound():
    compile_program.cache_clear()
    words = itertools.islice(itertools.product((1, -1, 2, -2), repeat=7),
                             PROGRAM_CACHE_SIZE + 1)
    diagrams = [braid_word_to_tangle(w, 3) for w in words]
    for d in diagrams:
        compile_program(d)
    assert len(engine._PROGRAMS) == PROGRAM_CACHE_SIZE
    # the least recently used program went first
    first = diagrams[0]
    last = diagrams[-1]
    assert (first.top, first.slices, False) not in engine._PROGRAMS
    assert (last.top, last.slices, False) in engine._PROGRAMS
    compile_program.cache_clear()


def test_cache_clear_waits_for_the_cache_lock():
    # a clear between a hit's get and its move_to_end would make the
    # move_to_end raise KeyError, so clearing takes the lock too
    with engine._PROGRAMS_LOCK:
        clearing = threading.Thread(target=compile_program.cache_clear)
        clearing.start()
        clearing.join(timeout=0.2)
        assert clearing.is_alive()
    clearing.join(timeout=5)
    assert not clearing.is_alive()
    assert not engine._PROGRAMS


def test_a_cache_hit_builds_no_arc_table(monkeypatch):
    sweeps = []
    arcs = SlicedTangleDiagram.__dict__["_arcs"]

    def counting(d):
        sweeps.append(id(d))
        return arcs.func(d)

    counted = cached_property(counting)
    counted.__set_name__(SlicedTangleDiagram, "_arcs")
    monkeypatch.setattr(SlicedTangleDiagram, "_arcs", counted)
    compile_program.cache_clear()
    load_catalog.cache_clear()  # a fresh d, whose arc table is not built
    d = load_catalog("figure_eight_closed")
    prog = compile_program(d)
    assert sweeps == [id(d)]
    e = SlicedTangleDiagram(d.top, d.slices)
    assert compile_program(e) is prog
    assert invariant(e, eisermann_s3()).check_boundary()
    assert sweeps == [id(d)]


# ---------------------------------------------------------------------------
# the last-matrix slot
# ---------------------------------------------------------------------------


def _count_state_sums(monkeypatch) -> list:
    calls = []
    real = engine._state_sum

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(engine, "_state_sum", counting)
    monkeypatch.setattr(engine, "_last_matrix", None)
    return calls


def test_neighbours_with_the_base_program_run_no_new_sum(monkeypatch):
    calls = _count_state_sums(monkeypatch)
    p = eisermann_s3()
    d = load_catalog("trefoil_plus_string")
    base = invariant_matrix(d, p)
    same = [mp.after for mp in move_neighbours(d, p.mode)
            if mp.tag in ("identity-move", "R0A", "R0B")]
    assert len(same) == 34
    for e in same:
        assert invariant_matrix(e, p) == base
    assert len(calls) == 1
    r1 = next(mp.after for mp in move_neighbours(d, p.mode) if mp.tag == "R1")
    assert invariant_matrix(r1, p) == base
    assert len(calls) == 2
    # the same diagram under a second pair sums again, and differs
    assert invariant_matrix(r1, rack_pair(3)) != base
    assert len(calls) == 3


def test_a_matrix_call_compiles_once_on_a_hit_and_on_a_miss(monkeypatch):
    calls = _count_state_sums(monkeypatch)
    compiles = []
    real = engine.compile_program

    def counting(*args, **kwargs):
        compiles.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(engine, "compile_program", counting)
    p = eisermann_s3()
    d = load_catalog("trefoil_plus_string")
    invariant_matrix(d, p)
    assert (len(calls), len(compiles)) == (1, 1)
    invariant_matrix(d, p)
    assert (len(calls), len(compiles)) == (1, 2)
    invariant_matrix(d, rack_pair(3))
    assert (len(calls), len(compiles)) == (2, 3)


def test_mutating_a_returned_matrix_leaves_the_next_hit_unchanged(monkeypatch):
    calls = _count_state_sums(monkeypatch)
    p = eisermann_s3()
    d = load_catalog("trefoil_plus_string")
    first = invariant_matrix(d, p)
    want = {key: dict(terms) for key, terms in first.items()}
    for got in (first, invariant_matrix(d, p)):
        key = next(iter(got))
        got[key][0] = -1
        got[(), ()] = {}
        assert invariant_matrix(d, p) == want
    assert len(calls) == 1


def test_top_cap_is_checked_before_the_slot(monkeypatch):
    calls = _count_state_sums(monkeypatch)
    s5 = symmetric_group(5)
    p = pair_eisermann(s5, s5.element_by_label("(1 2 3)"), carrier="group")
    d = braid_word_to_tangle([1], 2)
    cap = engine.MATRIX_TOP_CAP
    monkeypatch.setattr(engine, "MATRIX_TOP_CAP", 100_000)
    assert invariant_matrix(d, p)
    monkeypatch.setattr(engine, "MATRIX_TOP_CAP", cap)
    with pytest.raises(SizeLimitError):
        invariant_matrix(d, p)
    assert len(calls) == 1


def test_the_slot_keeps_no_pair_alive(no_gc):
    # with the cycle collector off, only a reference cycle through the
    # pair, or the slot itself, could keep it alive after del
    pair = rack_pair(3)
    invariant_matrix(load_catalog("trefoil_plus_string"), pair)
    ref = weakref.ref(pair)
    del pair
    assert ref() is None


def test_threads_sharing_the_slot_get_their_own_matrices():
    # each thread alternates a diagram and a neighbour with its program, so
    # its hits race the other threads' misses for the one slot
    cases = []
    for name, pair in [("trefoil_plus_string", eisermann_s3()),
                       ("trefoil_minus_string", eisermann_s3()),
                       ("trefoil_plus_string", rack_pair(3)),
                       ("unknot_string", rack_pair(3))]:
        d = load_catalog(name)
        r0 = next(mp.after for mp in move_neighbours(d, pair.mode)
                  if mp.tag == "R0A")
        cases.append((d, r0, pair, invariant_matrix(d, pair)))
    wrong = []

    def work(d, r0, pair, want):
        for _ in range(2000):
            for e in (d, r0):
                if invariant_matrix(e, pair) != want:
                    wrong.append(e)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=case) for case in cases]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not wrong


@pytest.mark.parametrize("moves", ["unframed", "framed"])
def test_the_slot_changes_no_matrix(monkeypatch, moves):
    # a call that ran a sum returned it; each hit is summed again with the
    # slot cleared, as every call would be without the slot
    from test_engine_equivalence import pairs

    calls = _count_state_sums(monkeypatch)
    hits = 0
    for tag, pair in sorted(pairs().items()):
        for name in catalog_names():
            d = load_catalog(name)
            for e in [d] + [mp.after for mp in move_neighbours(d, moves)]:
                before = len(calls)
                got = invariant_matrix(e, pair)
                if len(calls) == before:
                    hits += 1
                    engine._last_matrix = None
                    assert invariant_matrix(e, pair) == got, (tag, e.slices)
    # each step ran one sum, a miss or the hit's re-sum: 44% are hits
    assert hits > len(calls) / 3
