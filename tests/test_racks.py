"""Racks, quandles, 2-cocycles, colouring counts, and the cocycle state sum."""

from __future__ import annotations

import itertools
from collections import Counter

import numpy as np
import pytest

from named_examples import GF4_COCYCLE, GF4_RIGHT, R3_COCYCLE, shift_rack
from oracles import cjkls_state_sum, rack_axioms_hold, rack_colouring_count
from tanglesum.diagrams import load_catalog
from tanglesum.errors import (
    EnhancementMismatchError,
    NotBijectiveError,
    NotClosedError,
    SizeLimitError,
    TangleSumError,
)
from tanglesum.groups import (
    commutator_subgroup,
    cyclic_group,
    symmetric_group,
)
from tanglesum.pairs import pair_from_rack_cocycle, validate_pair
from tanglesum.racks import (
    cocycle_from_json,
    conjugation_quandle,
    dihedral_quandle,
    eisermann_quandle,
    Rack,
    RackCocycle,
    rack_from_csv,
    validate_cocycle,
    validate_rack,
)


# ---------------------------------------------------------------------------
# rack structure
# ---------------------------------------------------------------------------


def test_dihedral_quandles_validate():
    for n in range(2, 8):
        r = dihedral_quandle(n)
        report = validate_rack(r, thorough=True)
        assert report.ok, report.summary()
        assert r.is_quandle


def test_left_and_right_actions_are_mutually_inverse():
    r = dihedral_quandle(5)
    for a in range(5):
        for y in range(5):
            assert r.left[a, r.right[y, a]] == y
            assert r.right[r.left[a, y], a] == y


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
    assert all(r.right[a, b] == a for a in range(6) for b in range(6))


def test_permutation_rack_is_not_a_quandle():
    # x <| y = x + 1 on Z3: a rack whose translations ignore y
    shift = shift_rack(3)
    assert validate_rack(shift).ok
    assert not shift.is_quandle


def test_validate_rack_catches_broken_distributivity():
    bad = Rack(right=np.array([[0, 1, 0], [1, 0, 2], [2, 2, 1]]))
    assert not validate_rack(bad).ok


def _rack_suite():
    """Racks given by one table, most of them broken: 500 seeded tables of
    random permutation rows per size 1-5, each given as left= and as
    right=, and every swap of two entries of one translation of R3-R7 and
    Conj(S3), in the left table and in the right one."""
    rng = np.random.default_rng(31)
    for n in range(1, 6):
        for _ in range(500):
            t = np.array([rng.permutation(n) for _ in range(n)])
            yield Rack(left=t)
            yield Rack(right=t.T)
    for base in [*map(dihedral_quandle, range(3, 8)),
                 conjugation_quandle(symmetric_group(3))]:
        for a in range(base.size):
            for i, j in itertools.combinations(range(base.size), 2):
                left, right = base.left.copy(), base.right.copy()
                left[a, [i, j]] = left[a, [j, i]]
                right[[i, j], a] = right[[j, i], a]
                yield Rack(left=left)
                yield Rack(right=right)


def test_the_left_law_alone_decides_the_five_rack_laws():
    verdicts = []
    for r in _rack_suite():
        report = validate_rack(r, thorough=True)
        assert [c.axiom for c in report.checks] == [
            "x |> (y |> z) = (x |> y) |> (x |> z)"]
        assert report.ok == rack_axioms_hold(r), r.left.tolist()
        assert report.subject == (
            f"{'quandle' if r.is_quandle else 'rack'} {r.name}")
        verdicts.append((report.ok, r.is_quandle))
    assert len(verdicts) == 5820
    # racks and quandles, each both valid and broken, all occur often
    counts = Counter(verdicts)
    assert min(counts[ok, q] for ok in (True, False)
               for q in (True, False)) >= 300


def test_a_rack_is_given_by_exactly_one_table():
    r = dihedral_quandle(3)
    with pytest.raises(TangleSumError, match="exactly one operation table"):
        Rack(left=r.left, right=r.right)
    with pytest.raises(TangleSumError, match="exactly one operation table"):
        Rack()


def test_non_bijective_translations_are_named(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0,0,0\n1,1,1\n2,2,2\n")
    with pytest.raises(NotBijectiveError) as exc:
        rack_from_csv(path)
    assert str(exc.value) == (
        "translation by element 0 of the left table is not a bijection")
    # column 1 of the right table, y -> y <| 1, repeats 0
    with pytest.raises(NotBijectiveError) as exc:
        Rack(right=np.array([[0, 0, 2], [1, 0, 0], [2, 2, 1]]))
    assert str(exc.value) == (
        "translation by element 1 of the right table is not a bijection")


def test_rack_csv_round_trip(tmp_path):
    r = dihedral_quandle(4)
    path = tmp_path / "r4.csv"
    with open(path, "w") as fh:
        fh.write("\n".join(",".join(str(v) for v in row) for row in r.left))
    back = rack_from_csv(path)
    assert np.array_equal(back.left, r.left)
    assert np.array_equal(back.right, r.right)
    assert back.name == "r4.csv"


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
    assert R3_COCYCLE["table"] == [[(f[x] - f[r3.right[x, y]]) % 3
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


def test_a_quandle_cocycle_report_does_not_sweep_the_diagonal():
    # w(x, x) = 0 defines a quandle cocycle, so it cannot fail on one
    c = cocycle_from_json(dihedral_quandle(3), R3_COCYCLE)
    assert c.is_quandle_cocycle
    report = validate_cocycle(c, thorough=True)
    assert report.ok and report.subject == "quandle cocycle w"
    assert [ch.axiom for ch in report.checks] == ["V abelian", COCYCLE_IDENTITY]


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
    """(left, right) of conjugation_quandle, one cell at a time.

    The first pair in row-major order whose a |> b leaves the carrier is
    named; the right table is read only once the left one closes, as a
    left-closed carrier is right-closed.
    """
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
            if aba not in pos:
                raise NotClosedError(
                    f"subset not closed under conjugation: "
                    f"{g.label(a)} , {g.label(b)}"
                )
            left[i, j] = pos[aba]
    for i, a in enumerate(carrier):
        for j, b in enumerate(carrier):
            right[i, j] = pos[g.mul(g.mul(g.inv(b), a), b)]  # a <| b = b^-1 a b
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


def _conjugation_subsets(degree):
    """On S3 every ordered 2- and 3-element subset; on S4 two subsets whose
    first pair by a |> b alone is not the first by a |> b or b <| a."""
    g = symmetric_group(degree)
    if degree == 3:
        return g, [sub for k in (2, 3)
                   for sub in itertools.permutations(range(g.order), k)]
    return g, [[g.element_by_label(l) for l in labels]
               for labels in (("(3 4)", "(2 3 4)", "(2 4 3)"),
                              ("(3 4)", "(1 2 3)", "(1 2 4)"))]


@pytest.mark.parametrize("degree", [3, 4])
def test_conjugation_quandle_names_the_same_failing_pair(degree):
    g, subsets = _conjugation_subsets(degree)
    failures = 0
    for subset in subsets:
        try:
            expected = conjugation_oracle(g, subset)
        except NotClosedError as e:
            failures += 1
            with pytest.raises(NotClosedError) as got:
                conjugation_quandle(g, subset)
            assert str(got.value) == str(e), [g.label(i) for i in subset]
        else:
            _assert_rack_is(conjugation_quandle(g, subset), expected)
    assert failures > 0


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
