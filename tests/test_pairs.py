"""Crossing-assignment pairs: constructors, axioms, transfers, shadows."""

from __future__ import annotations

import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    xm_trivial_boundary,
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


def _lift_tables(b, x):
    """(phi, unframed psi, framed psi) of the two lifting pairs at x, the
    paper's formulas with each cell read by 2-D fancy indexing."""
    mid, top, lifting = b.e, b.l, b.lifting
    L, M = np.ogrid[:mid.order, :mid.order]
    t, inv = mid.table, mid.inv_table
    xinv = mid.inv(x)
    lx = t[L, xinv]
    phi = lifting[t[M, xinv], lx]
    unframed_psi = top.table[lifting[L, M], lifting[t[M, inv[L]], x]]
    first = t[t[x, t[M, inv[L]]], t[xinv, lx]]
    framed_psi = top.inv_table[lifting[first, lx]]
    return phi, unframed_psi, framed_psi


def test_pair_constructors_equal_a_2d_indexed_recomputation():
    # the constructor formulas, each cell read by 2-D fancy indexing; the
    # constructors write psi only, so each phi formula here checks the phi
    # the pair derives from psi by R2
    fam = move_families()
    z3 = cyclic_group(3)
    B, A = np.ogrid[:3, :3]
    t, inv = z3.table, z3.inv_table

    def rack_tables(r):
        return (t[t[B, A], t[inv[B], inv[r.left[B, A]]]],
                t[t[A, B], t[inv[r.right[A, B]], inv[B]]])

    r3 = dihedral_quandle(3)
    rack_psi, rack_phi = rack_tables(r3)
    p = fam["rack quandle R3"]
    assert np.array_equal(p.psi, rack_psi) and np.array_equal(p.phi, rack_phi)
    # a framed rack, whose phi formula reads the right table, which the
    # derived phi reproduces from psi, i.e. from the left table alone
    shift_psi, shift_phi = rack_tables(shift_rack(3))
    p = fam["rack shift3"]
    assert np.array_equal(p.psi, shift_psi) and np.array_equal(p.phi, shift_phi)
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

    phi, unframed_psi, framed_psi = _lift_tables(d4_extension(), 1)
    p = fam["lift unframed D4"]
    assert np.array_equal(p.phi, phi) and np.array_equal(p.psi, unframed_psi)
    p = fam["lift framed D4"]
    assert np.array_equal(p.phi, phi) and np.array_equal(p.psi, framed_psi)

    # both GL(2,5) lifts at every column of the paper's tables
    from tanglesum.tables import PGL_COLUMNS, _braided, _gl_pgl

    gl, _, proj = _gl_pgl()
    b = _braided()
    for label in PGL_COLUMNS:
        x = int(proj.mapping[gl.element_by_label(label)])
        phi, unframed_psi, framed_psi = _lift_tables(b, x)
        for p, psi in ((pair_eisermann_lift_unframed(b, x), unframed_psi),
                       (pair_eisermann_lift_framed(b, x), framed_psi)):
            assert np.array_equal(p.psi, psi), (p.name, label)
            assert np.array_equal(p.phi, phi), (p.name, label)


def test_pair_tables_are_narrowed_only_after_the_range_check():
    z3 = cyclic_group(3)
    zero = np.zeros((3, 3), dtype=np.int64)
    p = ReidemeisterPair(xm_identity(z3), zero, "unframed")
    for tbl in (p.psi, p.phi, p.fplus, p.fminus):
        assert tbl.dtype == np.int32 and not tbl.flags.writeable
    # a table already int32 is copied, not frozen in the caller's hands
    mine = np.zeros((3, 3), dtype=np.int32)
    ReidemeisterPair(xm_identity(z3), mine, "unframed")
    assert mine.flags.writeable
    wraps = zero.copy()
    wraps[1, 2] = 2 ** 32  # 0 once cast to int32
    with pytest.raises(XmodMismatchError,
                       match="^psi table entries out of E's range"):
        ReidemeisterPair(xm_identity(z3), wraps, "unframed")


def test_broken_pair_fails_r2_at_construction():
    z2 = cyclic_group(2)
    psi = np.array([[0, 1], [0, 0]])  # collapses Fplus_0
    with pytest.raises(NotBijectiveError,
                       match=r"^Fplus_0 is not a bijection of G; "
                             r"the pair cannot satisfy R2$"):
        ReidemeisterPair(xm_identity(z2), psi, "unframed")


def test_validation_reports_witnesses_on_perturbed_pair():
    base = pair_from_rack(dihedral_quandle(3), cyclic_group(3))
    p = ReidemeisterPair(base.xmod, _psi_swapping_fplus(base, 1, 0, 2),
                         "unframed")
    report = validate_pair(p)
    assert not report.ok
    assert any("fails at" in str(v) for v in report.violations)


def test_transfer_error_names_the_first_failing_overstrand():
    z3 = cyclic_group(3)
    psi = np.zeros((3, 3), dtype=np.int64)
    psi[2, 1] = 2  # collapses Fplus_2 only
    with pytest.raises(NotBijectiveError, match=r"^Fplus_2 is not a bijection"):
        ReidemeisterPair(xm_identity(z3), psi, "unframed")


# ---------------------------------------------------------------------------
# the constructor on random psi tables
# ---------------------------------------------------------------------------


@settings(max_examples=100)
@given(st.lists(st.integers(0, 2), min_size=36, max_size=36))
def test_any_psi_over_a_trivial_boundary_builds_a_pair(cells):
    # with d = 1, Fplus_X is conjugation by X, a permutation for every psi
    xmod = xm_trivial_boundary(symmetric_group(3), cyclic_group(3))
    p = ReidemeisterPair(xmod, np.reshape(cells, (6, 6)), "framed")
    idx = np.arange(6)
    for x in range(6):
        assert np.array_equal(p.fminus[x, p.fplus[x]], idx)
    [r2] = [c for c in validate_pair(p).checks if c.axiom.startswith("R2")]
    assert r2.ok and r2.checked == 36


@settings(max_examples=200)
@given(st.lists(st.integers(0, 2), min_size=9, max_size=9))
def test_psi_over_z3_builds_exactly_when_every_fplus_row_is_a_permutation(
        cells):
    z3 = cyclic_group(3)
    psi = np.reshape(cells, (3, 3))
    # Fplus_X(Y) = psi(X,Y)^-1 X Y X^-1, by scalar group operations
    bad = [x for x in range(3)
           if len({z3.mul(z3.inv(int(psi[x, y])), z3.conj(x, y))
                   for y in range(3)}) < 3]
    if bad:
        with pytest.raises(NotBijectiveError,
                           match=rf"^Fplus_{z3.label(bad[0])} is not a bijection"):
            ReidemeisterPair(xm_identity(z3), psi, "unframed")
    else:
        p = ReidemeisterPair(xm_identity(z3), psi, "unframed")
        assert np.array_equal(p.psi, psi)


# ---------------------------------------------------------------------------
# frozen validation reports of psi perturbations: every CheckResult field
# (axiom, domain, count, mode, witnesses, details), each frozen from
# scalar_pair_report, an oracle that shares no code with validate_pair
# ---------------------------------------------------------------------------


def _psi_swapping_fplus(p, x, y1, y2):
    """psi of the identity-boundary pair p, changed at (x, y1) and (x, y2)
    so that Fplus_x swaps its values there.  Fplus_x stays a permutation,
    so the pair builds; any single-cell change would break it."""
    g = p.g
    psi = p.psi.copy()
    # Fplus_x(y) = psi(x,y)^-1 x y x^-1 over the identity boundary
    for y, target in ((y1, p.fplus[x, y2]), (y2, p.fplus[x, y1])):
        psi[x, y] = g.mul(g.conj(x, y), g.inv(int(target)))
    return psi


def _psi_shifting_v(p, cell):
    """psi of a cocycle pair with the V slot of one cell moved; the boundary
    reads only the G slot, so Fplus is unchanged."""
    m = p.meta["cocycle"].v.order
    psi = p.psi.copy()
    h, v = divmod(int(psi[cell]), m)
    psi[cell] = h * m + (v + 1) % m
    return psi


def scalar_pair_report(xmod, psi, thorough=False):
    """The report validate_pair gives the unframed pair with this psi,
    recomputed one axiom at a time with scalar group operations.

    phi is derived here by inverting each Fplus_X through a dict, and each
    under-colour comes from its own crossing's formula.  Each axiom runs on
    the tuples grid_check visits, in the same order: all of them row-major,
    or the fixed-seed sample above EXHAUSTIVE_BUDGET unless thorough.  It
    stops at the WITNESS_CAP-th violation, since a report keeps no more.
    """
    g, e, d, act = xmod.g, xmod.e, xmod.boundary, xmod.act
    n, one = g.order, e.identity
    psi = psi.tolist()

    def plus(x, y):   # incoming under-colour at a positive crossing
        return g.mul(g.inv(d(psi[x][y])), g.conj(x, y))

    phi = []
    for x in range(n):
        under = {plus(x, z): z for z in range(n)}
        phi.append([e.inv(psi[x][under[y]]) for y in range(n)])

    def minus(x, y):  # incoming under-colour at a negative crossing
        return g.mul(g.mul(g.inv(x), g.inv(d(phi[x][y]))), g.mul(y, x))

    def prod(*factors):
        return functools.reduce(e.mul, factors)

    def r1(x):
        return psi[x][x], one

    def r2(x, y):
        return e.mul(phi[x][y], psi[x][minus(x, y)]), one

    def r3(x, y, t):
        z, v, w = minus(y, x), minus(t, y), minus(t, x)
        return (prod(phi[y][x], act(y, phi[t][z]), phi[t][y]),
                prod(act(x, phi[t][y]), phi[t][x], act(t, phi[v][w])))

    def r3p(x, y, z):
        a, b, c = plus(x, y), plus(x, z), plus(y, z)
        return (prod(psi[x][y], act(a, psi[x][z]), psi[a][b]),
                prod(act(x, psi[y][z]), psi[x][c], act(plus(x, c), psi[x][y])))

    def sweep(axiom, arity, fn):
        total = n ** arity
        if thorough or total <= validation.EXHAUSTIVE_BUDGET:
            mode, checked = "exhaustive", total
            tuples = itertools.product(range(n), repeat=arity)
        else:
            mode, checked = "sampled", validation.SAMPLE_SIZE
            rng = np.random.default_rng(validation.SAMPLE_SEED)
            tuples = zip(*(rng.integers(0, n, size=checked, dtype=np.int64)
                           .tolist() for _ in range(arity)))
        witnesses = []
        for point in tuples:
            lhs, rhs = fn(*point)
            if lhs != rhs:
                witnesses.append((point, f"lhs={lhs} rhs={rhs}"))
                if len(witnesses) == validation.WITNESS_CAP:
                    break
        return axiom, total, checked, mode, tuple(witnesses)

    return [sweep("R1: psi(X,X) = 1", 1, r1),
            sweep("R2: phi(X,Y) psi(X,Z) = 1", 2, r2),
            sweep("R3 (phi form)", 3, r3),
            sweep("R3 (psi form)", 3, r3p)]


def _as_tuples(report):
    return [
        (c.axiom, c.domain_size, c.checked, c.mode,
         tuple((v.witness, v.detail) for v in c.violations))
        for c in report.checks
    ]


@functools.cache
def perturbed_pair(case: str):
    """An unframed pair whose psi breaks R3, built without touching phi."""
    if case == "rack R3":
        # Fplus_1 swapped at 0 and 2
        base = pair_from_rack(dihedral_quandle(3), cyclic_group(3))
        psi = _psi_swapping_fplus(base, 1, 0, 2)
    elif case == "cocycle R3/Z3":
        base = move_families()["cocycle R3/Z3"]
        psi = _psi_shifting_v(base, (1, 0))
    else:
        # Eisermann S5, x = (1 2 3), Fplus_(1 3 2) swapped at (1 3 2) and
        # (1 3 2)(4 5): this also breaks R1 at (1 3 2)
        assert case == "eisermann S5"
        s5 = symmetric_group(5)
        base = pair_eisermann(s5, s5.element_by_label("(1 2 3)"),
                              carrier="group")
        x = s5.element_by_label("(1 3 2)")
        psi = _psi_swapping_fplus(base, x, x,
                                  s5.element_by_label("(1 3 2)(4 5)"))
    return ReidemeisterPair(base.xmod, psi, "unframed")


PERTURBED_R3 = [
    ("R1: psi(X,X) = 1", 3, 3, "exhaustive", ()),
    ("R2: phi(X,Y) psi(X,Z) = 1", 9, 9, "exhaustive", ()),
    ("R3 (phi form)", 27, 27, "exhaustive", (
        ((0, 1, 0), "lhs=2 rhs=1"),
        ((0, 1, 2), "lhs=0 rhs=2"),
        ((0, 2, 0), "lhs=2 rhs=1"),
        ((1, 0, 2), "lhs=1 rhs=0"),
        ((1, 2, 0), "lhs=2 rhs=0"),
    )),
    ("R3 (psi form)", 27, 27, "exhaustive", (
        ((0, 1, 0), "lhs=1 rhs=2"),
        ((0, 1, 2), "lhs=1 rhs=0"),
        ((0, 2, 0), "lhs=1 rhs=2"),
        ((0, 2, 1), "lhs=0 rhs=2"),
        ((2, 0, 1), "lhs=0 rhs=1"),
    )),
]

PERTURBED_COCYCLE = [
    ("R1: psi(X,X) = 1", 3, 3, "exhaustive", ()),
    ("R2: phi(X,Y) psi(X,Z) = 1", 9, 9, "exhaustive", ()),
    ("R3 (phi form)", 27, 27, "exhaustive", (
        ((1, 0, 1), "lhs=6 rhs=7"),
        ((1, 2, 0), "lhs=6 rhs=8"),
        ((2, 0, 1), "lhs=8 rhs=7"),
        ((2, 0, 2), "lhs=5 rhs=4"),
        ((2, 1, 0), "lhs=3 rhs=4"),
    )),
    ("R3 (psi form)", 27, 27, "exhaustive", (
        ((0, 1, 0), "lhs=3 rhs=4"),
        ((0, 2, 0), "lhs=6 rhs=8"),
        ((1, 2, 0), "lhs=3 rhs=5"),
        ((1, 2, 1), "lhs=4 rhs=5"),
        ((2, 0, 1), "lhs=4 rhs=3"),
    )),
]

# the triple sweeps of S5 run sampled, so this pins the sampled path too
PERTURBED_S5 = [
    ("R1: psi(X,X) = 1", 120, 120, "exhaustive", (
        ((48,), "lhs=1 rhs=0"),
    )),
    ("R2: phi(X,Y) psi(X,Z) = 1", 14400, 14400, "exhaustive", ()),
    ("R3 (phi form)", 1728000, 100000, "sampled", (
        ((48, 48, 93), "lhs=22 rhs=100"),
        ((74, 74, 72), "lhs=86 rhs=87"),
        ((49, 48, 54), "lhs=31 rhs=30"),
        ((49, 24, 48), "lhs=0 rhs=1"),
        ((48, 48, 5), "lhs=32 rhs=30"),
    )),
    ("R3 (psi form)", 1728000, 100000, "sampled", (
        ((26, 48, 49), "lhs=3 rhs=5"),
        ((48, 91, 49), "lhs=50 rhs=52"),
        ((101, 48, 48), "lhs=119 rhs=95"),
        ((48, 58, 102), "lhs=77 rhs=101"),
        ((42, 111, 111), "lhs=49 rhs=48"),
    )),
]

# the same pair swept exhaustively: the psi-form witnesses lie in rows
# X = 2 and 3, so blocks of 1 or 3 rows put them in different blocks
PERTURBED_S5_THOROUGH = [
    ("R1: psi(X,X) = 1", 120, 120, "exhaustive", (
        ((48,), "lhs=1 rhs=0"),
    )),
    ("R2: phi(X,Y) psi(X,Z) = 1", 14400, 14400, "exhaustive", ()),
    ("R3 (phi form)", 1728000, 1728000, "exhaustive", (
        ((2, 3, 70), "lhs=112 rhs=106"),
        ((2, 3, 71), "lhs=85 rhs=79"),
        ((2, 3, 88), "lhs=71 rhs=22"),
        ((2, 3, 89), "lhs=63 rhs=13"),
        ((2, 3, 118), "lhs=26 rhs=2"),
    )),
    ("R3 (psi form)", 1728000, 1728000, "exhaustive", (
        ((2, 48, 48), "lhs=0 rhs=1"),
        ((2, 48, 49), "lhs=3 rhs=5"),
        ((2, 86, 86), "lhs=49 rhs=48"),
        ((2, 86, 87), "lhs=97 rhs=73"),
        ((3, 48, 48), "lhs=20 rhs=14"),
    )),
]

FROZEN = {("rack R3", False): PERTURBED_R3,
          ("cocycle R3/Z3", False): PERTURBED_COCYCLE,
          ("eisermann S5", False): PERTURBED_S5,
          ("eisermann S5", True): PERTURBED_S5_THOROUGH}


@pytest.mark.parametrize("case, thorough", sorted(FROZEN))
def test_frozen_reports_are_the_scalar_oracle_reports(case, thorough):
    p = perturbed_pair(case)
    assert scalar_pair_report(p.xmod, p.psi, thorough) == FROZEN[case, thorough]


@pytest.mark.parametrize("case, expected", [
    ("rack R3", PERTURBED_R3), ("cocycle R3/Z3", PERTURBED_COCYCLE)])
def test_validation_report_of_perturbed_rack_pair_is_frozen(case, expected):
    assert _as_tuples(validate_pair(perturbed_pair(case))) == expected


def test_validation_report_of_perturbed_eisermann_pair_is_frozen():
    p = perturbed_pair("eisermann S5")
    assert _as_tuples(validate_pair(p)) == PERTURBED_S5


@pytest.mark.parametrize("rows_per_block", [None, 1, 3])
def test_thorough_report_of_perturbed_eisermann_pair_is_frozen(monkeypatch,
                                                               rows_per_block):
    if rows_per_block is not None:
        monkeypatch.setattr(validation, "GRID_CHUNK", rows_per_block * 120 * 120)
    p = perturbed_pair("eisermann S5")
    assert _as_tuples(validate_pair(p, thorough=True)) == PERTURBED_S5_THOROUGH


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
