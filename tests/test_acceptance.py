"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single [PASS] line with its headline numbers; a failed
assertion leaves the standard pytest failure instead.  The checks are
independent of run order: timed ones clear the relevant caches first.
"""

from __future__ import annotations

import itertools
import time
from fractions import Fraction

import numpy as np

from named_examples import (
    R3_COCYCLE,
    d4_extension,
    move_families,
    shift_rack,
)
from tanglesum.abelian import TensorSquare
from tanglesum.algebra import GroupAlgebraElement
from tanglesum.crossed_modules import (
    abelianisation_tensor_2xmod,
    CGMorphism,
    xm_identity,
    xm_pair_with_module,
)
from tanglesum.diagrams import (
    braid_word_to_tangle,
    catalog_names,
    load_catalog,
    move_neighbours,
)
from tanglesum.engine import (
    abelianisation_framed_invariant,
    enumerate_colourings,
    invariant,
    invariant_matrix,
    longitude_value,
    longitude_word,
    tqft_compose_check,
    wirtinger_count,
)
from tanglesum.groups import abelianization, cyclic_group, symmetric_group
from tanglesum.pairs import (
    boundary_shadow,
    lifting_shadow_check,
    pair_eisermann,
    pair_eisermann_lift_framed,
    pair_eisermann_lift_unframed,
    pair_from_2xmod,
    pair_from_rack,
    pair_from_rack_cocycle,
    validate_pair,
)
from tanglesum.racks import (
    cjkls_state_sum,
    cocycle_from_json,
    dihedral_quandle,
    Rack,
    rack_colouring_count,
)
from tanglesum import tables

GF4_RIGHT = [[0, 3, 1, 2], [2, 1, 3, 0], [3, 0, 2, 1], [1, 2, 0, 3]]
GF4_COCYCLE = [[0, 0, 0, 0], [0, 0, 1, 1], [0, 1, 0, 1], [0, 1, 1, 0]]


def _clear_table_caches():
    for fn in (tables._pair, tables._braided, tables._gl_pgl, tables._s5):
        fn.cache_clear()


# ---------------------------------------------------------------------------
# 1. the seven-column S5 table
# ---------------------------------------------------------------------------


def test_criterion_1_s5_table_reproduced_exactly():
    _clear_table_caches()
    t0 = time.time()
    diff = tables.diff_table("table1")
    elapsed = time.time() - t0
    assert len(diff.cells) == 14
    assert all(c.status == "ok" for c in diff.cells)
    assert all(c.directions_agree for c in diff.cells)
    assert elapsed < 10.0, f"table1 took {elapsed:.1f}s"
    print(f"\n[PASS] criterion 1: table1 matches 14/14 cells "
          f"(bra and ket) in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. the lifted GL(2,5) table, its projection, and chirality
# ---------------------------------------------------------------------------


def test_criterion_2_lifted_tables_and_projection():
    """table2/table3 reproduction with two documented transcription errata.

    26 of 28 frozen cells match the recomputation exactly.  The three
    remaining cells (one in table2, the swapped final column of table3)
    disagree with every internal consistency pattern of the tables
    themselves (mirror cells inverse, projection onto table3, the x/x^-1
    split of table1) and are recorded as errata with the corrected values;
    the corrected values are asserted here instead.
    """
    _clear_table_caches()
    t0 = time.time()
    diff2 = tables.diff_table("table2")
    diff3 = tables.diff_table("table3")

    # cell-for-cell, with exactly the documented errata
    for diff, expected_errata in ((diff2, {("K-", 6)}),
                                  (diff3, {("K+", 6), ("K-", 6)})):
        assert diff.ok
        assert all(c.directions_agree for c in diff.cells)
        errata = {(c.knot, c.column) for c in diff.cells if c.status != "ok"}
        assert errata == expected_errata
        for c in diff.cells:
            if c.status != "ok":
                assert c.status == "erratum"

    # the boundary projection carries table2 onto table3, termwise
    gl, pgl, proj = tables._gl_pgl()
    for knot in tables.KNOTS:
        for col in range(7):
            lifted = tables.compute_cell("table2", knot, col)
            projected = lifted.map_elements(lambda e: int(proj.mapping[e]), pgl)
            assert projected == tables.compute_cell("table3", knot, col)

    # chirality: the lift separates the trefoils where the shadow cannot
    col = tables.PGL_COLUMNS.index("(2 0; 0 1)")
    assert tables.compute_cell("table2", "K+", col) != tables.compute_cell(
        "table2", "K-", col)
    assert tables.compute_cell("table3", "K+", col) == tables.compute_cell(
        "table3", "K-", col)

    elapsed = time.time() - t0
    assert elapsed < 60.0, f"tables 2+3 took {elapsed:.1f}s"
    print(f"\n[PASS] criterion 2: table2 13/14 + table3 12/14 transcribed "
          f"cells match, 3 documented errata match their corrections, "
          f"projection and chirality verified in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. axiom sweeps for every pair family
# ---------------------------------------------------------------------------


def test_criterion_3_pair_axiom_suites():
    reports = {}

    s5 = symmetric_group(5)
    x5 = s5.element_by_label("(1 2 3 4 5)")
    eis_a5 = pair_eisermann(s5, x5)  # carrier: the commutator subgroup A5
    assert eis_a5.g.order == 60
    rep = validate_pair(eis_a5, thorough=True)
    assert all(c.mode == "exhaustive" for c in rep.checks)
    assert any(c.domain_size == 60 ** 3 for c in rep.checks)
    reports["eisermann A5 (60^3 exhaustive)"] = rep

    for n in range(3, 8):
        p = pair_from_rack(dihedral_quandle(n), cyclic_group(n))
        reports[f"rack dihedral {n}"] = validate_pair(p, thorough=True)

    c3 = cocycle_from_json(dihedral_quandle(3), R3_COCYCLE)
    reports["cocycle R3/Z3"] = validate_pair(
        pair_from_rack_cocycle(c3, cyclic_group(3)), thorough=True)

    peiffer = pair_from_2xmod(abelianisation_tensor_2xmod(symmetric_group(3)))
    reports["peiffer S3"] = validate_pair(peiffer, thorough=True)

    b = tables._braided()  # the GL(2,5) -> PGL(2,5) extension
    x = int(tables._gl_pgl()[2].mapping[
        tables._gl_pgl()[0].element_by_label("(2 0; 0 1)")])
    lift_u = pair_eisermann_lift_unframed(b, x)
    lift_f = pair_eisermann_lift_framed(b, x)
    for tag, lift in (("unframed", lift_u), ("framed", lift_f)):
        rep = validate_pair(lift)  # 120^3 exceeds the exhaustive budget
        assert any(c.mode == "sampled" and c.checked == 100_000
                   for c in rep.checks)
        reports[f"lift {tag} GL(2,5) (sampled)"] = rep

    total = 0
    for tag, rep in reports.items():
        assert rep.ok, f"{tag}: {rep.summary()}"
        assert not rep.violations
        total += sum(c.checked for c in rep.checks)
    print(f"\n[PASS] criterion 3: {len(reports)} pair suites clean, "
          f"{total:,} axiom tuples checked, zero witnesses")


# ---------------------------------------------------------------------------
# 4. move invariance, one instance per pair family
# ---------------------------------------------------------------------------


def test_criterion_4_move_invariance_across_families():
    instances = list(move_families().items())
    assert all(p.g.order <= 6 for _, p in instances)

    checked = 0
    tags_seen = {"unframed": set(), "framed": set()}
    for tag, pair in instances:
        moves = pair.mode
        for name in catalog_names():
            d = load_catalog(name)
            base = invariant_matrix(d, pair)
            for mp in move_neighbours(d, moves):
                after = invariant_matrix(mp.after, pair)
                assert after == base, f"{tag}: {mp.tag} changed {name}"
                checked += 1
                tags_seen[moves].add(mp.tag)

    assert tags_seen["unframed"] >= {"R0A", "R0B", "R0C", "R0D", "R1", "R2A",
                                     "R2B", "R2C", "R3", "identity-move",
                                     "interchange-move"}
    assert tags_seen["framed"] >= {"R1'", "R2A", "R3"}
    print(f"\n[PASS] criterion 4: {checked:,} move-related diagram pairs "
          f"agree across {len(instances)} pair families, "
          f"all boundary buckets compared")


# ---------------------------------------------------------------------------
# 5. oracle equivalences
# ---------------------------------------------------------------------------


def test_criterion_5_oracle_equivalences():
    closed = ("trefoil_plus_closed", "figure_eight_closed", "unknot_closed")

    # (a) rack pairs reduce to the colouring count
    for n in (3, 5):
        p = pair_from_rack(dihedral_quandle(n), cyclic_group(n))
        for name in closed:
            d = load_catalog(name)
            v = invariant(d, p)
            count = rack_colouring_count(d, dihedral_quandle(n))
            assert v.terms == {p.e.identity: count}

    # (b) cocycle pairs reduce to the cocycle state sum
    c3 = cocycle_from_json(dihedral_quandle(3), R3_COCYCLE)
    gf4 = Rack(right=np.array(GF4_RIGHT), name="GF4")
    c4 = cocycle_from_json(gf4, {"v_moduli": [2], "table": GF4_COCYCLE})
    for cocycle, group in ((c3, cyclic_group(3)), (c4, cyclic_group(4))):
        p = pair_from_rack_cocycle(cocycle, group)
        m = cocycle.v.order
        for name in closed:
            d = load_catalog(name)
            pushed = invariant(d, p).algebra().map_elements(
                lambda e: e % m, cocycle.v)
            assert pushed == cjkls_state_sum(d, cocycle)

    # (c) a cancelling kink pair evaluates like the unknot for unframed pairs
    s3 = symmetric_group(3)
    unframed_pairs = [
        pair_from_rack(dihedral_quandle(3), cyclic_group(3)),
        pair_from_rack_cocycle(c3, cyclic_group(3)),
        pair_eisermann(s3, s3.element_by_label("(1 2)"), carrier="group"),
    ]
    kinked = load_catalog("sigma1_sigma1inv_closed")
    unknot = load_catalog("unknot_closed")
    for p in unframed_pairs:
        assert invariant(kinked, p).terms == invariant(unknot, p).terms

    # (d) the abelianisation pair against a literal Wirtinger enumeration
    d = load_catalog("trefoil_plus_closed")
    cmp_ = abelianisation_framed_invariant(d, s3)
    assert cmp_.engine == cmp_.direct

    ab, proj = abelianization(s3)
    ts = TensorSquare(ab)
    direct = GroupAlgebraElement.zero(ts.group)
    n_arcs = d.n_arcs
    for colours in itertools.product(range(6), repeat=n_arcs):
        ok = True
        for c in d.crossings:
            over = colours[c.over_arc]
            under_in = colours[c.under_in_arc]
            under_out = colours[c.under_out_arc]
            if c.sign > 0:  # under_out = over^-1 under_in over
                want = s3.mul(s3.inv(over), s3.mul(under_in, over))
            else:
                want = s3.mul(over, s3.mul(under_in, s3.inv(over)))
            if under_out != want:
                ok = False
                break
        if ok:
            m = int(proj.mapping[colours[0]])
            t = ts.group.power(int(ts.pure[m, m]), d.writhe)
            direct = direct + GroupAlgebraElement.single(ts.group, t)
    assert direct.terms == cmp_.engine.terms
    assert direct.terms == {0: 3, 1: 9}

    print("\n[PASS] criterion 5: rack counting, cocycle state sum, kink "
          "cancellation, and the abelianisation invariant all agree with "
          "their independent computations")


# ---------------------------------------------------------------------------
# 6. structural facts
# ---------------------------------------------------------------------------


def test_criterion_6_structural_checks():
    # (a) interchange law, exhaustive over two small crossed modules
    s3 = symmetric_group(3)
    interchange_checked = 0
    for xm in (xm_identity(s3), xm_pair_with_module(cyclic_group(3),
                                                    cyclic_group(2))):
        ng, ne = xm.g.order, xm.e.order
        chains = []
        for u, e1, e3 in itertools.product(range(ng), range(ne), range(ne)):
            m1 = CGMorphism(xm, u, e1)
            m3 = CGMorphism(xm, m1.tgt, e3)
            chains.append((m1, m3, m1.then(m3)))
        for m1, m3, left in chains:
            for m2, m4, right in chains:
                lhs = m1.tensor(m2).then(m3.tensor(m4))
                assert lhs == left.tensor(right)
                interchange_checked += 1

    # (b) the two transfers are mutually inverse for every shipped family
    b_small = d4_extension()
    b_gl = tables._braided()
    gl, pgl, proj = tables._gl_pgl()
    x_gl = int(proj.mapping[gl.element_by_label("(2 0; 0 1)")])
    s5 = symmetric_group(5)
    shipped = [
        pair_from_rack(dihedral_quandle(4), cyclic_group(4)),
        pair_from_rack(shift_rack(5), cyclic_group(5)),
        pair_from_rack_cocycle(
            cocycle_from_json(dihedral_quandle(3), R3_COCYCLE), cyclic_group(3)),
        pair_eisermann(s5, s5.element_by_label("(1 2 3 4 5)")),
        pair_from_2xmod(abelianisation_tensor_2xmod(s3)),
        pair_eisermann_lift_unframed(b_gl, x_gl),
        pair_eisermann_lift_framed(b_gl, x_gl),
        pair_eisermann_lift_unframed(b_small, 1),
    ]
    for p in shipped:
        t = p.transfer()  # raises if the transfers fail to invert
        n = p.g.order
        idx = np.arange(n)
        for xx in range(n):
            assert np.array_equal(t.fminus[xx, t.fplus[xx]], idx)

    # (c) boundary shadows of the liftings are the plain commutator pairs
    for b, base in ((b_gl, pgl), (b_small, b_small.e)):
        for x in ([x_gl] if base is pgl else range(base.order)):
            eis = pair_eisermann(base, x, carrier="group")
            for lift in (pair_eisermann_lift_unframed(b, x),
                         pair_eisermann_lift_framed(b, x)):
                assert lifting_shadow_check(lift).ok
                sp, sf = boundary_shadow(lift)
                assert np.array_equal(sp, eis.psi)
                assert np.array_equal(sf, eis.phi)

    # (d) longitudes: abelian quotients kill them; the group-carrier
    # propagation writes the longitude of the projected meridians h^-1 x h
    # into the bottom arc
    d = load_catalog("trefoil_plus_string")
    word = longitude_word(d)
    assert sum(s for _, s in word) == 0
    for c in range(5):
        flat = {arc: c for arc in range(d.n_arcs)}
        assert longitude_value(d, flat, cyclic_group(5)) == 0
    _, bots = d.boundary_arcs()
    matched = 0
    for g, xl in ((s3, "(1 2 3)"), (s5, "(1 2 3 4 5)")):
        x = g.element_by_label(xl)
        p = pair_eisermann(g, x, carrier="group")
        for col in enumerate_colourings(d, p.transfer(), top=(g.identity,)):
            mer = {a: g.word([g.inv(h), x, h])
                   for a, h in enumerate(col.arc_colours)}
            lam = longitude_value(d, mer, g)
            assert lam == col.arc_colours[bots[0]]
            matched += 1
    assert matched == 1 + 6

    # (e) the state sum composes along shared boundaries
    rp = pair_from_rack(dihedral_quandle(3), cyclic_group(3))
    split_checked = 0
    for name in catalog_names():
        dd = load_catalog(name)
        if len(dd.slices) < 2:
            continue
        upper, lower = dd.split(len(dd.slices) // 2)
        assert tqft_compose_check(upper, lower, rp)
        split_checked += 1
    a = braid_word_to_tangle([1, 1], 2)
    c = braid_word_to_tangle([-1, 1], 2)
    eis = pair_eisermann(s3, s3.element_by_label("(1 2)"), carrier="group")
    assert tqft_compose_check(a, c, eis)

    print(f"\n[PASS] criterion 6: interchange ({interchange_checked:,} "
          f"quadruples), transfer inverses ({len(shipped)} pairs), lifting "
          f"shadows, longitude identities ({matched} colourings), and "
          f"{split_checked + 1} boundary compositions all hold")


# ---------------------------------------------------------------------------
# 7. the counting invariant is homotopy blind, the state sum is not
# ---------------------------------------------------------------------------


def test_criterion_7_wirtinger_normalisation():
    s3 = symmetric_group(3)
    xm = xm_identity(s3)
    closed = [n for n in catalog_names() if load_catalog(n).is_closed]
    assert len(closed) == 6
    for name in closed:
        assert wirtinger_count(load_catalog(name), xm) == Fraction(1), name

    # while the identity-module count collapses, the state sum does not
    p = pair_from_rack(dihedral_quandle(3), cyclic_group(3))
    trefoil = invariant(load_catalog("trefoil_plus_closed"), p)
    unknot = invariant(load_catalog("unknot_closed"), p)
    assert trefoil.terms != unknot.terms

    print(f"\n[PASS] criterion 7: identity-module count is 1 on all "
          f"{len(closed)} closed catalog diagrams; the state sum still "
          f"separates the trefoil from the unknot")
