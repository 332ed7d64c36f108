"""Racks, quandles, 2-cocycles, colouring counts, and the cocycle state sum."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from named_examples import R3_COCYCLE, shift_rack
from tanglesum.diagrams import load_catalog
from tanglesum.errors import (
    EnhancementMismatchError,
    NotClosedError,
    SizeLimitError,
)
from tanglesum.groups import (
    commutator_subgroup,
    cyclic_group,
    symmetric_group,
    TABLE_LIMIT,
)
from tanglesum.pairs import pair_from_rack_cocycle, validate_pair
from tanglesum.racks import (
    cjkls_state_sum,
    cocycle_from_json,
    conjugation_quandle,
    dihedral_quandle,
    eisermann_quandle,
    Rack,
    RackCocycle,
    rack_colouring_count,
    rack_from_csv,
    validate_cocycle,
    validate_rack,
)

# the Alexander quandle on the field with four elements, x <| y = tx + (1+t)y
GF4_RIGHT = [[0, 3, 1, 2], [2, 1, 3, 0], [3, 0, 2, 1], [1, 2, 0, 3]]

# a 2-cocycle on it over Z2 whose state sum separates the trefoil from the unknot
GF4_COCYCLE = [[0, 0, 0, 0], [0, 0, 1, 1], [0, 1, 0, 1], [0, 1, 1, 0]]


# ---------------------------------------------------------------------------
# rack structure
# ---------------------------------------------------------------------------


def test_dihedral_quandles_validate():
    for n in range(2, 8):
        r = dihedral_quandle(n)
        report = validate_rack(r, thorough=True)
        assert report.ok, report.summary()
        assert r.is_quandle


def test_dihedral_quandle_above_the_table_limit_is_refused_before_allocating():
    # two n x n int64 tables at n = TABLE_LIMIT + 1 take 16 MB
    tracemalloc.start()
    try:
        with pytest.raises(SizeLimitError, match="above TABLE_LIMIT"):
            dihedral_quandle(TABLE_LIMIT + 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_left_and_right_actions_are_mutually_inverse():
    r = dihedral_quandle(5)
    for a in range(5):
        for y in range(5):
            assert r.lop(a, r.rop(y, a)) == y
            assert r.rop(r.lop(a, y), a) == y


def test_conjugation_quandle():
    s3 = symmetric_group(3)
    r = conjugation_quandle(s3)
    assert r.size == 6
    assert validate_rack(r).ok and r.is_quandle
    # restricting to a conjugacy class works, arbitrary subsets may not
    transpositions = [s3.element_by_label(l) for l in ("(1 2)", "(1 3)", "(2 3)")]
    assert conjugation_quandle(s3, transpositions).size == 3
    with pytest.raises(NotClosedError):
        conjugation_quandle(s3, transpositions[:2])


def test_eisermann_quandle_s5():
    s5 = symmetric_group(5)
    x = s5.element_by_label("(1 2 3 4 5)")
    r = eisermann_quandle(s5, x)
    assert r.size == 60  # carrier defaults to the commutator subgroup A5
    assert validate_rack(r).ok and r.is_quandle
    whole = eisermann_quandle(s5, x, carrier="group")
    assert whole.size == 120
    assert validate_rack(whole).ok


def test_eisermann_quandle_trivial_twist():
    # with x = id the operation degenerates to the trivial quandle
    s3 = symmetric_group(3)
    r = eisermann_quandle(s3, s3.identity, carrier="group")
    assert all(r.rop(a, b) == a for a in range(6) for b in range(6))


def test_permutation_rack_is_not_a_quandle():
    # x <| y = x + 1 on Z3: a rack whose translations ignore y
    shift = shift_rack(3)
    assert validate_rack(shift).ok
    assert not shift.is_quandle


def test_validate_rack_catches_broken_distributivity():
    bad = Rack(right=np.array([[0, 1, 0], [1, 0, 2], [2, 2, 1]]))
    assert not validate_rack(bad).ok


def test_rack_csv_round_trip(tmp_path):
    r = dihedral_quandle(4)
    path = tmp_path / "r4.csv"
    with open(path, "w") as fh:
        fh.write("\n".join(",".join(str(v) for v in row) for row in r.left))
    back = rack_from_csv(path)
    assert np.array_equal(back.left, r.left)
    assert np.array_equal(back.right, r.right)


# ---------------------------------------------------------------------------
# cocycles
# ---------------------------------------------------------------------------


def test_r3_cocycle_fixture_is_valid():
    r3 = dihedral_quandle(3)
    c = cocycle_from_json(r3, R3_COCYCLE)
    assert validate_cocycle(c, thorough=True).ok


def test_r3_cocycle_is_a_coboundary():
    # H^2_Q(R3; Z3) = 0: the table is delta f(x, y) = f(x) - f(x <| y)
    r3 = dihedral_quandle(3)
    f = (0, 2, 0)
    assert R3_COCYCLE["table"] == [[(f[x] - f[r3.rop(x, y)]) % 3
                                    for y in range(3)] for x in range(3)]


def test_perturbed_cocycle_is_rejected_with_witness():
    r3 = dihedral_quandle(3)
    bad = cocycle_from_json(
        r3, {"v_moduli": [3], "table": [[0, 0, 1], [2, 0, 2], [1, 1, 0]]}
    )
    report = validate_cocycle(bad)
    assert not report.ok
    assert any("w(x,y)" in v.axiom for v in report.violations)
    assert "fails at" in str(report.violations[0])


COCYCLE_IDENTITY = "w(x,y) + w(x<|y, z) = w(x,z) + w(x<|z, y<|z)"


def test_quandle_cocycle_diagonal_vanishes():
    # w(x, x) = 0 is what makes a cocycle on a quandle a quandle cocycle;
    # this table's diagonal does not vanish, so it is read as a rack
    # cocycle, and it fails the cocycle identity itself
    r3 = dihedral_quandle(3)
    z3 = cyclic_group(3)
    c = RackCocycle(r3, z3, [[(x * y) % 3 for y in range(3)] for x in range(3)])
    assert not c.is_quandle_cocycle
    report = validate_cocycle(c)
    assert report.subject == "rack cocycle w"
    assert [ch.axiom for ch in report.checks if not ch.ok] == [COCYCLE_IDENTITY]


def test_rack_cocycle_on_a_quandle_validates_and_gives_a_framed_pair():
    r3 = dihedral_quandle(3)
    c = cocycle_from_json(r3, {"v_moduli": [3], "table": [[1] * 3] * 3})
    assert not c.is_quandle_cocycle
    report = validate_cocycle(c, thorough=True)
    assert report.ok and report.subject == "rack cocycle w"
    assert [ch.axiom for ch in report.checks] == ["V abelian", COCYCLE_IDENTITY]
    pair = pair_from_rack_cocycle(c, cyclic_group(3))
    assert pair.mode == "framed"
    assert validate_pair(pair, thorough=True).ok


def test_cocycle_values_in_a_nonabelian_group_are_rejected():
    s3 = symmetric_group(3)
    c = RackCocycle(dihedral_quandle(3), s3, np.zeros((3, 3), dtype=int))
    check = validate_cocycle(c).checks[0]
    assert (check.axiom, check.checked, check.mode) == (
        "V abelian", 36, "exhaustive")
    assert not check.ok
    for v in check.violations:
        a, b = v.witness
        assert s3.mul(a, b) != s3.mul(b, a)


def test_gf4_fixture_and_state_sums():
    gf4 = Rack(right=np.array(GF4_RIGHT), name="GF4")
    assert validate_rack(gf4, thorough=True).ok and gf4.is_quandle
    c = cocycle_from_json(gf4, {"v_moduli": [2], "table": GF4_COCYCLE})
    assert c.is_quandle_cocycle
    report = validate_cocycle(c)
    assert report.ok and report.subject == "quandle cocycle w"
    for name in ("trefoil_plus_closed", "figure_eight_closed"):
        v = cjkls_state_sum(load_catalog(name), c)
        assert v.terms == {0: 4, 1: 12}
    unknot = cjkls_state_sum(load_catalog("unknot_closed"), c)
    assert unknot.terms == {0: 4}


def test_coboundary_state_sum_is_concentrated_at_zero():
    r3 = dihedral_quandle(3)
    c = cocycle_from_json(r3, R3_COCYCLE)
    v = cjkls_state_sum(load_catalog("trefoil_plus_closed"), c)
    assert v.terms == {0: 9}


# ---------------------------------------------------------------------------
# colouring counts
# ---------------------------------------------------------------------------


def test_colouring_counts_match_known_values():
    r3 = dihedral_quandle(3)
    cases = [
        ("trefoil_plus_closed", r3, 9),
        ("trefoil_minus_closed", r3, 9),
        ("unknot_closed", r3, 3),
        ("figure_eight_closed", r3, 3),
        ("figure_eight_closed", dihedral_quandle(5), 25),
        ("trefoil_plus_closed", dihedral_quandle(2), 2),
    ]
    for name, rack, count in cases:
        assert rack_colouring_count(load_catalog(name), rack) == count


def test_colouring_count_with_boundary():
    r3 = dihedral_quandle(3)
    d = load_catalog("trefoil_plus_string")
    # a string knot propagates each boundary colour straight through
    for c in range(3):
        assert rack_colouring_count(d, r3, top=(c,), bottom=(c,)) == 3
        assert rack_colouring_count(d, r3, top=(c,), bottom=((c + 1) % 3,)) == 0


def test_colouring_count_sums_over_a_boundary_left_open():
    r3 = dihedral_quandle(3)
    d = load_catalog("trefoil_plus_string")
    assert rack_colouring_count(d, r3) == 9
    for c in range(3):
        assert rack_colouring_count(d, r3, top=(c,)) == 3
        assert rack_colouring_count(d, r3, bottom=(c,)) == 3
    closed = load_catalog("trefoil_plus_closed")
    assert rack_colouring_count(closed, r3, top=(), bottom=()) == 9


@pytest.mark.parametrize("top, bottom, message", [
    ((0, 0), None, "top enhancement has 2 colours for 1 strands"),
    (None, (3,), "bottom colour 3 out of range"),
])
def test_colouring_count_checks_the_boundary(top, bottom, message):
    d = load_catalog("trefoil_plus_string")
    with pytest.raises(EnhancementMismatchError, match=message):
        rack_colouring_count(d, dihedral_quandle(3), top=top, bottom=bottom)


def test_colouring_count_size_limit():
    from tanglesum.diagrams import braid_word_to_tangle, trace_closure

    wide = trace_closure(braid_word_to_tangle([1] * 16, 2))
    with pytest.raises(SizeLimitError):
        rack_colouring_count(wide, dihedral_quandle(3))


# ---------------------------------------------------------------------------
# the scalar quandle oracles
# ---------------------------------------------------------------------------


def conjugation_oracle(g, subset=None):
    """(left, right) of conjugation_quandle, one cell at a time."""
    if subset is None:
        carrier = tuple(range(g.order))
    else:
        carrier = tuple(dict.fromkeys(int(i) for i in subset))
    pos = {gi: k for k, gi in enumerate(carrier)}
    m = len(carrier)
    left = np.empty((m, m), dtype=np.int64)
    right = np.empty((m, m), dtype=np.int64)
    for i, a in enumerate(carrier):
        for j, b in enumerate(carrier):
            aba = g.mul(g.mul(a, b), g.inv(a))          # a |> b = a b a^-1
            bab = g.mul(g.mul(g.inv(b), a), b)          # a <| b = b^-1 a b
            if aba not in pos or bab not in pos:
                raise NotClosedError(
                    f"subset not closed under conjugation: "
                    f"{g.label(a)} , {g.label(b)}"
                )
            left[i, j] = pos[aba]
            right[i, j] = pos[bab]
    return left, right


def eisermann_oracle(g, xi, carrier):
    """(left, right) of eisermann_quandle, one cell at a time."""
    if carrier == "commutator":
        elems = commutator_subgroup(g)[1].mapping.tolist()
    else:
        elems = tuple(range(g.order))
    pos = {gi: k for k, gi in enumerate(elems)}
    m = len(elems)
    xinv = g.inv(xi)
    left = np.empty((m, m), dtype=np.int64)
    right = np.empty((m, m), dtype=np.int64)
    for i, h in enumerate(elems):
        for j, a in enumerate(elems):
            lo = g.word([xi, h, g.inv(a), xinv, a])     # h' -> x h' a^-1 x^-1 a
            ro = g.word([xinv, h, g.inv(a), xi, a])     # h  -> x^-1 h a^-1 x a
            if lo not in pos or ro not in pos:
                raise NotClosedError(
                    f"carrier not closed: {g.label(h)} , {g.label(a)}")
            left[j, i] = pos[lo]                        # left[a, h'] = a |> h'
            right[i, j] = pos[ro]                       # right[h, a] = h <| a
    return left, right


def _assert_rack_is(r, oracle):
    left, right = oracle
    assert np.array_equal(r.left, left)
    assert np.array_equal(r.right, right)


def test_conjugation_quandle_matches_scalar_oracle():
    s3 = symmetric_group(3)
    _assert_rack_is(conjugation_quandle(s3), conjugation_oracle(s3))
    transpositions = [s3.element_by_label(l) for l in ("(1 2)", "(1 3)", "(2 3)")]
    _assert_rack_is(conjugation_quandle(s3, transpositions),
                    conjugation_oracle(s3, transpositions))
    s4 = symmetric_group(4)
    _assert_rack_is(conjugation_quandle(s4), conjugation_oracle(s4))


@pytest.mark.parametrize("subset", [("(1 2)", "(1 3)"), ("(1 2 3)", "(1 2)")])
def test_conjugation_quandle_names_the_same_failing_pair(subset):
    s3 = symmetric_group(3)
    idx = [s3.element_by_label(l) for l in subset]
    with pytest.raises(NotClosedError) as expected:
        conjugation_oracle(s3, idx)
    with pytest.raises(NotClosedError) as got:
        conjugation_quandle(s3, idx)
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("degree", [3, 4])
@pytest.mark.parametrize("carrier", ["group", "commutator"])
def test_eisermann_quandle_matches_scalar_oracle_small(degree, carrier):
    g = symmetric_group(degree)
    for x in range(g.order):
        _assert_rack_is(eisermann_quandle(g, x, carrier),
                        eisermann_oracle(g, x, carrier))


def test_eisermann_quandle_matches_scalar_oracle_on_table_columns():
    from tanglesum.tables import PGL_COLUMNS, S5_COLUMNS, _gl_pgl

    s5 = symmetric_group(5)
    gl, pgl, proj = _gl_pgl()
    s5_columns = [s5.element_by_label(l) for l in S5_COLUMNS]
    pgl_columns = [int(proj.mapping[gl.element_by_label(l)])
                   for l in PGL_COLUMNS]
    for g, columns in ((s5, s5_columns), (pgl, pgl_columns)):
        for x in columns:
            for carrier in ("group", "commutator"):
                _assert_rack_is(eisermann_quandle(g, x, carrier),
                                eisermann_oracle(g, x, carrier))
