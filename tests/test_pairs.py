"""Crossing-assignment pairs: constructors, axioms, transfers, shadows."""

from __future__ import annotations

import functools

import numpy as np
import pytest

from named_examples import (
    R3_COCYCLE,
    d4_extension,
    move_families,
    shift_rack,
)
from tanglesum import validation
from tanglesum.crossed_modules import (
    abelianisation_tensor_2xmod,
    braided_crossed_module,
    xm_identity,
)
from tanglesum.errors import (
    NotBijectiveError,
    NotSurjectiveError,
    XmodMismatchError,
)
from tanglesum.groups import (
    commutator_subgroup,
    cyclic_group,
    GroupHom,
    symmetric_group,
    trivial_group,
)
from tanglesum.pairs import (
    boundary_shadow,
    framed_maps,
    lifting_shadow_check,
    pair_eisermann,
    pair_eisermann_lift_framed,
    pair_eisermann_lift_unframed,
    pair_from_2xmod,
    pair_from_rack,
    pair_from_rack_cocycle,
    ReidemeisterPair,
    validate_pair,
)
from tanglesum.racks import (
    cocycle_from_json,
    conjugation_quandle,
    dihedral_quandle,
)


# ---------------------------------------------------------------------------
# rack pairs
# ---------------------------------------------------------------------------


def test_rack_pair_over_quandle_is_unframed_and_valid():
    p = pair_from_rack(dihedral_quandle(3), cyclic_group(3))
    assert p.mode == "unframed"
    report = validate_pair(p, thorough=True)
    assert report.ok, report.summary()


def test_rack_pair_over_proper_rack_is_framed():
    p = pair_from_rack(shift_rack(3), cyclic_group(3))
    assert p.mode == "framed"
    assert validate_pair(p).ok
    # it genuinely fails the unframed kink axiom
    assert not validate_pair(p, mode="unframed").ok


def test_rack_pair_transfer_reproduces_rack_propagation():
    r = dihedral_quandle(5)
    p = pair_from_rack(r, cyclic_group(5))
    t = p.transfer()
    # downwards through a crossing over X: fminus[X, Z] at a positive one,
    # fplus[X, Z] at a negative one
    for over in range(5):
        for under_in in range(5):
            assert t.fminus[over, under_in] == r.rop(under_in, over)
            assert t.fplus[over, under_in] == r.lop(over, under_in)


def test_rack_pair_rejects_size_mismatch():
    with pytest.raises(XmodMismatchError):
        pair_from_rack(dihedral_quandle(3), cyclic_group(4))


def test_conjugation_quandle_pair_has_trivial_psi():
    s3 = symmetric_group(3)
    p = pair_from_rack(conjugation_quandle(s3), s3)
    assert np.all(p.psi == s3.identity)
    assert np.all(p.phi == s3.identity)
    assert validate_pair(p).ok


# ---------------------------------------------------------------------------
# cocycle pairs
# ---------------------------------------------------------------------------


def test_cocycle_pair_validates():
    r3 = dihedral_quandle(3)
    c = cocycle_from_json(r3, R3_COCYCLE)
    p = pair_from_rack_cocycle(c, cyclic_group(3))
    assert p.mode == "unframed"
    assert p.e.order == 9  # G x V
    assert validate_pair(p, thorough=True).ok
    assert p.meta["cocycle"] is c


# ---------------------------------------------------------------------------
# commutator pairs
# ---------------------------------------------------------------------------


def test_eisermann_pair_small_cases():
    s3 = symmetric_group(3)
    x = s3.element_by_label("(1 2)")
    over_group = pair_eisermann(s3, x, carrier="group")
    assert over_group.g.order == 6
    assert validate_pair(over_group, thorough=True).ok
    over_comm = pair_eisermann(s3, x)
    assert over_comm.g.order == 3  # the commutator subgroup A3
    assert validate_pair(over_comm, thorough=True).ok


def test_eisermann_pair_with_trivial_twist_is_conjugation():
    s3 = symmetric_group(3)
    p = pair_eisermann(s3, s3.identity, carrier="group")
    # x = id kills the twist: phi(L,M) = [M,L], psi(L,M) = [L,M]
    for l in range(6):
        for m in range(6):
            assert p.phi[l, m] == s3.comm(m, l)
            assert p.psi[l, m] == s3.comm(l, m)


# ---------------------------------------------------------------------------
# Peiffer lifting pairs
# ---------------------------------------------------------------------------


def test_peiffer_pair_is_framed_with_identity_kink_maps():
    t = abelianisation_tensor_2xmod(symmetric_group(3))
    p = pair_from_2xmod(t)
    assert p.mode == "framed"
    assert validate_pair(p, thorough=True).ok
    f, gmap, violations = framed_maps(p)
    assert not violations
    assert f.tolist() == list(range(6))
    assert gmap.tolist() == list(range(6))


# ---------------------------------------------------------------------------
# braided lifting pairs
# ---------------------------------------------------------------------------


def test_lift_pairs_validate_on_small_extension():
    b = d4_extension()
    for x in range(b.e.order):
        unframed = pair_eisermann_lift_unframed(b, x)
        framed = pair_eisermann_lift_framed(b, x)
        assert validate_pair(unframed, thorough=True).ok
        assert validate_pair(framed, thorough=True).ok


def test_lift_shadow_is_the_commutator_pair():
    b = d4_extension()
    base = b.e
    for x in range(base.order):
        lifted = pair_eisermann_lift_unframed(b, x)
        assert lifting_shadow_check(lifted, thorough=True).ok
        eis = pair_eisermann(base, x, carrier="group")
        shadow_psi, shadow_phi = boundary_shadow(lifted)
        assert np.array_equal(shadow_psi, eis.psi)
        assert np.array_equal(shadow_phi, eis.phi)


def test_unframed_lift_requires_surjective_boundary():
    z2 = cyclic_group(2)
    one = trivial_group()
    delta = GroupHom(one, z2, [0])
    b = braided_crossed_module(delta, np.zeros((2, 2), dtype=np.int64))
    with pytest.raises(NotSurjectiveError):
        pair_eisermann_lift_unframed(b, 0)
    # the framed lifting has no such constraint
    assert pair_eisermann_lift_framed(b, 0).mode == "framed"


# ---------------------------------------------------------------------------
# transfers and direct validation failures
# ---------------------------------------------------------------------------


def test_transfer_tables_are_mutually_inverse_for_all_families():
    s3 = symmetric_group(3)
    pairs = [
        *move_families().values(),
        pair_from_rack(shift_rack(4), cyclic_group(4)),
        pair_eisermann(s3, s3.element_by_label("(1 2)"), carrier="group"),
    ]
    for p in pairs:
        t = p.transfer()
        n = p.g.order
        for x in range(n):
            assert sorted(t.fplus[x]) == list(range(n))
            assert np.array_equal(t.fminus[x, t.fplus[x]], np.arange(n))
            assert np.array_equal(t.fplus[x, t.fminus[x]], np.arange(n))


@functools.cache
def moves_set_pairs() -> dict:
    """The pair families of the move-invariance sweep, plus Eisermann S5."""
    s5 = symmetric_group(5)
    return {**move_families(), "eisermann S5": pair_eisermann(
        s5, s5.element_by_label("(1 2 3 4 5)"), carrier="group")}


@pytest.mark.parametrize("tag", sorted(moves_set_pairs()))
def test_packed_crossing_tables_match_the_scalar_lookups(tag):
    # packed_plus[x, z] = y | psi(x, y) << 32 with y the under-out colour at
    # a positive crossing; packed_minus[x, z] likewise with phi at a
    # negative one.  y is found by search over G with the scalar group
    # operations: the y with z = bd(psi(x,y))^-1 x y x^-1, resp.
    # z = x^-1 bd(phi(x,y))^-1 y x, which must be unique
    p = moves_set_pairs()[tag]
    t = p.transfer()
    g = p.g
    n = g.order
    for packed in (t.packed_plus, t.packed_minus):
        assert packed.dtype == np.int64
        assert packed.shape == (n, n)

    def decode(v):
        v = int(v)
        return [v & 0xFFFFFFFF, v >> 32]

    def bd(e):
        return int(p.xmod.boundary.mapping[e])

    for x in range(n):
        plus: dict = {}
        minus: dict = {}
        for y in range(n):
            z = g.mul(g.mul(g.inv(bd(p.psi[x, y])), g.mul(x, y)), g.inv(x))
            plus.setdefault(z, []).append(y)
            z = g.mul(g.mul(g.inv(x), g.inv(bd(p.phi[x, y]))), g.mul(y, x))
            minus.setdefault(z, []).append(y)
        for z in range(n):
            [y] = plus[z]
            assert decode(t.packed_plus[x, z]) == [y, p.psi[x, y]]
            [y] = minus[z]
            assert decode(t.packed_minus[x, z]) == [y, p.phi[x, y]]


def _one_pair_per_family() -> dict:
    s4 = symmetric_group(4)
    return {
        **{tag: move_families()[tag] for tag in (
            "rack quandle R3", "cocycle R3/Z3", "lift unframed D4",
            "lift framed D4", "peiffer S3")},
        "eisermann S4": pair_eisermann(s4, s4.element_by_label("(1 2 3 4)")),
    }


@pytest.mark.parametrize("tag", sorted(_one_pair_per_family()))
def test_transfer_arrays_equal_a_2d_indexed_recomputation(tag):
    # the transfer formulas with numpy's 2-D fancy indexing t[a, b] on
    # open grids, where the library reads raveled tables
    p = _one_pair_per_family()[tag]
    t, inv = p.g.table, p.g.inv_table
    bnd = p.xmod.boundary.mapping
    X, Y = np.ogrid[:p.g.order, :p.g.order]
    fplus = t[inv[bnd[p.psi]], t[t[X, Y], inv[X]]]
    fminus = t[t[inv[X], inv[bnd[p.phi]]], t[Y, X]]
    packed_plus = (fminus.astype(np.int64)
                   | p.psi[X, fminus].astype(np.int64) << 32)
    packed_minus = (fplus.astype(np.int64)
                    | p.phi[X, fplus].astype(np.int64) << 32)
    tr = p.transfer()
    for got, want in ((tr.fplus, fplus), (tr.fminus, fminus),
                      (tr.packed_plus, packed_plus),
                      (tr.packed_minus, packed_minus)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)


def test_pair_constructors_equal_a_2d_indexed_recomputation():
    # the constructor formulas, each cell read by 2-D fancy indexing
    fam = move_families()
    r3 = dihedral_quandle(3)
    z3 = cyclic_group(3)
    B, A = np.ogrid[:3, :3]
    t, inv = z3.table, z3.inv_table
    rack_psi = t[t[B, A], t[inv[B], inv[r3.left[B, A]]]]
    rack_phi = t[t[A, B], t[inv[r3.right[A, B]], inv[B]]]
    p = fam["rack quandle R3"]
    assert np.array_equal(p.psi, rack_psi) and np.array_equal(p.phi, rack_phi)
    c = cocycle_from_json(r3, R3_COCYCLE)
    m = c.v.order
    p = fam["cocycle R3/Z3"]
    assert np.array_equal(p.psi, rack_psi * m + c.w[r3.left[B, A], B])
    assert np.array_equal(p.phi, rack_phi * m + c.v.inv_table[c.w[A, B]])

    peiffer = abelianisation_tensor_2xmod(symmetric_group(3))
    A, B = np.ogrid[:6, :6]
    p = fam["peiffer S3"]
    assert np.array_equal(p.psi, peiffer.lifting[A, B])
    assert np.array_equal(p.phi, peiffer.derived_action_table[
        A, peiffer.lifting[peiffer.e.inv_table[A], B]])

    b = d4_extension()
    mid, top, lifting = b.e, b.l, b.lifting
    L, M = np.ogrid[:mid.order, :mid.order]
    t, inv, x = mid.table, mid.inv_table, 1
    xinv = mid.inv(x)
    lx = t[L, xinv]
    phi = lifting[t[M, xinv], lx]
    p = fam["lift unframed D4"]
    assert np.array_equal(p.phi, phi)
    assert np.array_equal(p.psi, top.table[lifting[L, M],
                                           lifting[t[M, inv[L]], x]])
    p = fam["lift framed D4"]
    assert np.array_equal(p.phi, phi)
    first = t[t[x, t[M, inv[L]]], t[xinv, lx]]
    assert np.array_equal(p.psi, top.inv_table[lifting[first, lx]])


def test_pair_tables_are_narrowed_only_after_the_range_check():
    z3 = cyclic_group(3)
    zero = np.zeros((3, 3), dtype=np.int64)
    p = ReidemeisterPair(xm_identity(z3), zero, zero, "unframed")
    for tbl in (p.psi, p.phi):
        assert tbl.dtype == np.int32 and not tbl.flags.writeable
    wraps = zero.copy()
    wraps[1, 2] = 2 ** 32  # 0 once cast to int32
    for psi, phi, which in ((wraps, zero, "psi"), (zero, wraps, "phi")):
        with pytest.raises(XmodMismatchError,
                           match=f"^{which} table entries out of E's range"):
            ReidemeisterPair(xm_identity(z3), psi, phi, "unframed")


def test_broken_pair_fails_r2_via_transfer():
    z2 = cyclic_group(2)
    psi = np.array([[0, 1], [0, 0]])  # collapses Fplus_0
    phi = np.zeros((2, 2), dtype=np.int64)
    p = ReidemeisterPair(xm_identity(z2), psi, phi, "unframed")
    with pytest.raises(NotBijectiveError, match=r"^Fplus_0 is not a bijection"):
        p.transfer()
    assert not validate_pair(p).ok


def test_validation_reports_witnesses_on_perturbed_pair():
    base = pair_from_rack(dihedral_quandle(3), cyclic_group(3))
    psi = base.psi.copy()
    psi[1, 0] = (psi[1, 0] + 1) % 3
    p = ReidemeisterPair(base.xmod, psi, base.phi, "unframed")
    report = validate_pair(p)
    assert not report.ok
    assert any("fails at" in str(v) for v in report.violations)


def test_transfer_error_names_the_first_failing_overstrand():
    z3 = cyclic_group(3)
    zero = np.zeros((3, 3), dtype=np.int64)
    psi = zero.copy()
    psi[2, 1] = 2  # collapses Fplus_2 only
    p = ReidemeisterPair(xm_identity(z3), psi, zero, "unframed")
    with pytest.raises(NotBijectiveError, match=r"^Fplus_2 is not a bijection"):
        p.transfer()
    phi = zero.copy()
    phi[1, 0] = 2  # collapses Fminus_1 only
    p = ReidemeisterPair(xm_identity(z3), zero, phi, "unframed")
    with pytest.raises(NotBijectiveError, match=r"^Fminus_1 is not a bijection"):
        p.transfer()


def test_transfer_rejects_bijective_but_not_inverse_tables():
    # over Z3, psi = 0 makes Fplus_X the identity and a constant phi = 1
    # makes Fminus_X the shift Y -> Y - 1: both bijective, never inverse
    z3 = cyclic_group(3)
    psi = np.zeros((3, 3), dtype=np.int64)
    phi = np.ones((3, 3), dtype=np.int64)
    p = ReidemeisterPair(xm_identity(z3), psi, phi, "unframed")
    with pytest.raises(
        NotBijectiveError, match=r"^Fminus_0 is not the inverse of Fplus_0"
    ):
        p.transfer()
    report = validate_pair(p)
    assert not report.ok


# ---------------------------------------------------------------------------
# frozen validation reports: every CheckResult field (axiom, domain, count,
# mode, witnesses, details), computed with each axiom's own under-colour formula
# ---------------------------------------------------------------------------


def _as_tuples(report):
    return [
        (c.axiom, c.domain_size, c.checked, c.mode,
         tuple((v.witness, v.detail) for v in c.violations))
        for c in report.checks
    ]


PERTURBED_PHI_01 = [
    ("R1: psi(X,X) = 1", 3, 3, "exhaustive", ()),
    ("R2: phi(X,Y) psi(X,Z) = 1", 9, 9, "exhaustive", (
        ((0, 1), "lhs=2 rhs=0"),
    )),
    ("R3 (phi form)", 27, 27, "exhaustive", (
        ((0, 1, 0), "lhs=2 rhs=1"),
        ((0, 1, 2), "lhs=2 rhs=0"),
        ((0, 2, 0), "lhs=0 rhs=2"),
        ((1, 0, 1), "lhs=1 rhs=2"),
        ((1, 0, 2), "lhs=0 rhs=1"),
    )),
    ("R3 (psi form)", 27, 27, "exhaustive", ()),
]

PERTURBED_PSI_10 = [
    ("R1: psi(X,X) = 1", 3, 3, "exhaustive", ()),
    ("R2: phi(X,Y) psi(X,Z) = 1", 9, 9, "exhaustive", (
        ((1, 2), "lhs=1 rhs=0"),
    )),
    ("R3 (phi form)", 27, 27, "exhaustive", ()),
    ("R3 (psi form)", 27, 27, "exhaustive", (
        ((0, 1, 0), "lhs=1 rhs=0"),
        ((0, 2, 0), "lhs=0 rhs=2"),
        ((1, 0, 1), "lhs=2 rhs=0"),
        ((1, 2, 0), "lhs=0 rhs=1"),
        ((1, 2, 1), "lhs=1 rhs=2"),
    )),
]

# Eisermann S5, x = (1 2 3), phi[3, 7] shifted by one index: the triple
# sweeps run sampled, so this pins the sampled path too
PERTURBED_S5_PHI_37 = [
    ("R1: psi(X,X) = 1", 120, 120, "exhaustive", ()),
    ("R2: phi(X,Y) psi(X,Z) = 1", 14400, 14400, "exhaustive", (
        ((3, 7), "lhs=74 rhs=0"),
    )),
    ("R3 (phi form)", 1728000, 100000, "sampled", (
        ((108, 59, 3), "lhs=15 rhs=0"),
        ((7, 93, 3), "lhs=111 rhs=99"),
        ((7, 3, 21), "lhs=89 rhs=34"),
        ((60, 90, 116), "lhs=116 rhs=12"),
        ((46, 7, 3), "lhs=115 rhs=93"),
    )),
    ("R3 (psi form)", 1728000, 100000, "sampled", ()),
]


@pytest.mark.parametrize(
    "which, cell, expected",
    [("phi", (0, 1), PERTURBED_PHI_01), ("psi", (1, 0), PERTURBED_PSI_10)],
)
def test_validation_report_of_perturbed_rack_pair_is_frozen(which, cell, expected):
    base = pair_from_rack(dihedral_quandle(3), cyclic_group(3))
    tables = {"psi": base.psi.copy(), "phi": base.phi.copy()}
    tables[which][cell] = (tables[which][cell] + 1) % 3
    p = ReidemeisterPair(base.xmod, tables["psi"], tables["phi"], "unframed")
    assert _as_tuples(validate_pair(p)) == expected


def test_validation_report_of_perturbed_eisermann_pair_is_frozen():
    s5 = symmetric_group(5)
    base = pair_eisermann(s5, s5.element_by_label("(1 2 3)"), carrier="group")
    phi = base.phi.copy()
    phi[3, 7] = (phi[3, 7] + 1) % 120
    p = ReidemeisterPair(base.xmod, base.psi, phi, "unframed")
    assert _as_tuples(validate_pair(p)) == PERTURBED_S5_PHI_37


# the same pair swept exhaustively: the R3 witnesses lie in rows X = 0..3, so
# blocks of fewer rows put them in different blocks of the sweep
PERTURBED_S5_PHI_37_THOROUGH = [
    ("R1: psi(X,X) = 1", 120, 120, "exhaustive", ()),
    ("R2: phi(X,Y) psi(X,Z) = 1", 14400, 14400, "exhaustive", (
        ((3, 7), "lhs=74 rhs=0"),
    )),
    ("R3 (phi form)", 1728000, 1728000, "exhaustive", (
        ((0, 7, 3), "lhs=8 rhs=19"),
        ((1, 7, 3), "lhs=112 rhs=96"),
        ((2, 7, 3), "lhs=48 rhs=71"),
        ((3, 7, 3), "lhs=68 rhs=51"),
        ((3, 8, 3), "lhs=74 rhs=73"),
    )),
    ("R3 (psi form)", 1728000, 1728000, "exhaustive", ()),
]


@pytest.mark.parametrize("rows_per_block", [None, 1, 3])
def test_thorough_report_of_perturbed_eisermann_pair_is_frozen(monkeypatch,
                                                               rows_per_block):
    if rows_per_block is not None:
        monkeypatch.setattr(validation, "GRID_CHUNK", rows_per_block * 120 * 120)
    s5 = symmetric_group(5)
    base = pair_eisermann(s5, s5.element_by_label("(1 2 3)"), carrier="group")
    phi = base.phi.copy()
    phi[3, 7] = (phi[3, 7] + 1) % 120
    p = ReidemeisterPair(base.xmod, base.psi, phi, "unframed")
    assert _as_tuples(validate_pair(p, thorough=True)) == PERTURBED_S5_PHI_37_THOROUGH


# ---------------------------------------------------------------------------
# the scalar commutator-pair oracle
# ---------------------------------------------------------------------------


def eisermann_oracle(g, xi, carrier):
    """psi/phi of pair_eisermann, one cell at a time with scalar group ops."""
    if carrier == "commutator":
        elems = commutator_subgroup(g)[1].mapping.tolist()
    else:
        elems = tuple(range(g.order))
    pos = {gi: k for k, gi in enumerate(elems)}
    n = len(elems)
    xinv = g.inv(xi)
    psi = np.empty((n, n), dtype=np.int64)
    phi = np.empty((n, n), dtype=np.int64)
    for i, l in enumerate(elems):
        for j, m in enumerate(elems):
            phi[i, j] = pos[g.comm(g.mul(m, xinv), g.mul(l, xinv))]
            psi[i, j] = pos[g.mul(g.comm(l, m), g.comm(g.mul(m, g.inv(l)), xi))]
    return psi, phi


def _assert_matches_oracle(g, x, carrier):
    p = pair_eisermann(g, x, carrier=carrier)
    psi, phi = eisermann_oracle(g, x, carrier)
    assert np.array_equal(p.psi, psi), (g.name, x, carrier)
    assert np.array_equal(p.phi, phi), (g.name, x, carrier)


@pytest.mark.parametrize("degree", [3, 4])
@pytest.mark.parametrize("carrier", ["group", "commutator"])
def test_eisermann_tables_match_scalar_oracle_small(degree, carrier):
    g = symmetric_group(degree)
    for x in range(g.order):
        _assert_matches_oracle(g, x, carrier)


def test_eisermann_tables_match_scalar_oracle_on_table_columns():
    from tanglesum.tables import PGL_COLUMNS, S5_COLUMNS, _gl_pgl

    s5 = symmetric_group(5)
    for label in S5_COLUMNS:
        x = s5.element_by_label(label)
        _assert_matches_oracle(s5, x, "group")
        _assert_matches_oracle(s5, x, "commutator")
    gl, pgl, proj = _gl_pgl()
    for label in PGL_COLUMNS:
        x = int(proj.mapping[gl.element_by_label(label)])
        _assert_matches_oracle(pgl, x, "group")
