"""The frozen trefoil tables: recomputation, diffing, and the two
documented transcription errata with their consistency evidence."""

from __future__ import annotations

import weakref

import pytest

from tanglesum import engine
from tanglesum.algebra import GroupAlgebraElement
from tanglesum.engine import invariant
from tanglesum.errors import TangleSumError
from tanglesum.tables import (
    compute_cell,
    diff_table,
    ERRATA,
    expected_cell,
    KNOTS,
    PGL_COLUMNS,
    S5_COLUMNS,
    TABLE_NAMES,
)


def test_table1_all_cells_match():
    diff = diff_table("table1")
    assert diff.ok
    assert len(diff.cells) == 14
    assert all(c.status == "ok" for c in diff.cells)
    assert all(c.directions_agree for c in diff.cells)


def test_table2_matches_with_one_erratum():
    diff = diff_table("table2")
    assert diff.ok
    statuses = {(c.knot, c.column): c.status for c in diff.cells}
    assert statuses[("K-", 6)] == "erratum"
    assert sum(1 for s in statuses.values() if s == "ok") == 13
    assert all(c.directions_agree for c in diff.cells)


def test_table3_matches_with_swapped_final_column():
    diff = diff_table("table3")
    assert diff.ok
    statuses = {(c.knot, c.column): c.status for c in diff.cells}
    assert statuses[("K+", 6)] == "erratum"
    assert statuses[("K-", 6)] == "erratum"
    assert sum(1 for s in statuses.values() if s == "ok") == 12


def test_bra_and_ket_directions_agree_spot_check():
    assert compute_cell("table1", "K+", 6, "ket") == compute_cell(
        "table1", "K+", 6, "bra"
    )
    assert compute_cell("table3", "K-", 5, "ket") == compute_cell(
        "table3", "K-", 5, "bra"
    )


@pytest.mark.parametrize("name, column", [("table1", 6), ("table3", 5)])
@pytest.mark.parametrize("knot", KNOTS)
def test_bra_reading_equals_the_per_top_sum(name, column, knot):
    # the bra reading is one sum seeded on the identity bottom; the oracle
    # runs one ket sum per top colour with the identity bottom fixed
    from tanglesum.tables import _diagram, _pair

    pair = _pair(name, column)
    d = _diagram(knot)
    oracle = GroupAlgebraElement(pair.e)
    for a in range(pair.g.order):
        iv = invariant(d, pair, top=(a,), bottom=(pair.g.identity,))
        oracle = oracle + iv.algebra()
    assert compute_cell(name, knot, column, "bra") == oracle


def test_table_diff_runs_one_state_sum_per_reading(monkeypatch):
    calls = []
    real = engine._state_sum

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(engine, "_state_sum", counting)
    # an earlier test's last matrix must not stand in for a first reading
    monkeypatch.setattr(engine, "_last_matrix", None)
    diff = diff_table("table1")
    assert diff.ok
    assert len(calls) == 14 * 2


def test_a_table_builds_each_pair_once_and_keeps_one_alive(monkeypatch,
                                                          no_gc):
    # with the cycle collector off, every pair dropped from _pair's slot
    # is freed at once, before the next column's pair is built
    from tanglesum import tables

    built, alive_before = [], []
    real = tables.pair_eisermann

    def tracking(*args, **kwargs):
        alive_before.append(sum(ref() is not None for ref in built))
        pair = real(*args, **kwargs)
        built.append(weakref.ref(pair))
        return pair

    monkeypatch.setattr(tables, "pair_eisermann", tracking)
    tables._pair.cache_clear()
    diff = diff_table("table1")
    assert diff.ok
    assert len(built) == 7
    assert alive_before == [0] + [1] * 6
    assert sum(ref() is not None for ref in built) == 1
    # the cells are still listed knot by knot
    assert [(c.knot, c.column) for c in diff.cells] == [
        (knot, col) for knot in KNOTS for col in range(7)]


def test_mirror_cells_are_inverses_in_table2():
    # the K- value at x is obtained from the K+ value by inverting terms;
    # this is the pattern the transcribed final K- cell breaks
    from tanglesum.tables import _gl_pgl

    gl, _, _ = _gl_pgl()
    for col in range(7):
        plus = compute_cell("table2", "K+", col)
        minus = compute_cell("table2", "K-", col)
        inverted = GroupAlgebraElement(
            gl, {gl.inv(e): c for e, c in plus.terms.items()}
        )
        assert minus == inverted


def test_documented_errata_are_the_computed_values():
    for (name, knot, col), (corrected_text, note) in ERRATA.items():
        computed = compute_cell(name, knot, col)
        assert computed == expected_cell(name, knot, col, corrected=True)
        assert computed != expected_cell(name, knot, col)
        assert note


def test_table2_projects_onto_table3():
    # termwise projection along GL(2,5) -> PGL(2,5), all fourteen cells
    from tanglesum.tables import _gl_pgl

    _, pgl, proj = _gl_pgl()
    for knot in KNOTS:
        for col in range(7):
            lifted = compute_cell("table2", knot, col)
            projected = lifted.map_elements(lambda e: int(proj.mapping[e]), pgl)
            assert projected == compute_cell("table3", knot, col)


def test_chirality_seen_only_by_the_lift():
    # at x = (2 0; 0 1) the lifted pair separates the trefoil from its
    # mirror while the projected pair does not
    col = PGL_COLUMNS.index("(2 0; 0 1)")
    assert compute_cell("table2", "K+", col) != compute_cell("table2", "K-", col)
    assert compute_cell("table3", "K+", col) == compute_cell("table3", "K-", col)


def test_table1_final_column_exhibits_the_x_split():
    s5_col = S5_COLUMNS.index("(1 2 3 4 5)")
    plus = compute_cell("table1", "K+", s5_col)
    minus = compute_cell("table1", "K-", s5_col)
    from tanglesum.tables import _s5

    s5 = _s5()
    x = s5.element_by_label("(1 2 3 4 5)")
    assert plus.terms == {s5.identity: 1, s5.inv(x): 5}
    assert minus.terms == {s5.identity: 1, x: 5}


def test_summary_counts_statuses():
    text = diff_table("table1").summary()
    assert text.startswith("table1: 14 ok, 0 erratum, 0 mismatch")


def test_unknown_table_rejected():
    with pytest.raises(TangleSumError):
        diff_table("table9")
    with pytest.raises(TangleSumError):
        compute_cell("table1", "K+", 0, direction="sideways")


def test_constants_shape():
    assert KNOTS == ("K+", "K-")
    assert TABLE_NAMES == ("table1", "table2", "table3")
    assert len(S5_COLUMNS) == 7 and len(PGL_COLUMNS) == 7
