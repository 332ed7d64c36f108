"""Finite groups: factories, homs, subgroup and quotient machinery."""

from __future__ import annotations

import csv
import itertools

import numpy as np
import pytest

from oracles import perm_compose
from tanglesum import groups
from tanglesum.abelian import TensorSquare, product_of_cyclics
from tanglesum.crossed_modules import xm_identity
from tanglesum.errors import (
    GroupMismatchError,
    NotAGroupError,
    NotClosedError,
    SizeLimitError,
)
from tanglesum.groups import (
    abelianization,
    central_quotient,
    commutator_subgroup,
    cyclic_group,
    cycle_label,
    direct_product,
    from_cayley_csv,
    FiniteGroup,
    from_cayley_table,
    gl2,
    GroupHom,
    identity_hom,
    pgl2,
    quotient_by_normal,
    subgroup,
    subgroup_closure,
    symmetric_group,
    trivial_group,
)


# ---------------------------------------------------------------------------
# permutations and the symmetric group
# ---------------------------------------------------------------------------


def test_perm_compose_is_left_factor_first():
    # (1 2) then (2 3) sends 1 -> 2 -> 3, so the product is (1 3 2)
    p, q = (1, 0, 2), (0, 2, 1)
    assert (cycle_label(p), cycle_label(q)) == ("(1 2)", "(2 3)")
    assert cycle_label(perm_compose(p, q)) == "(1 3 2)"
    assert perm_compose(p, p) == (0, 1, 2)


def test_symmetric_group_basics():
    s5 = symmetric_group(5)
    assert s5.order == 120
    assert s5.label(s5.identity) == "id"
    a = s5.element_by_label("(1 2)")
    b = s5.element_by_label("(2 3)")
    assert s5.label(s5.mul(a, b)) == "(1 3 2)"
    assert s5.mul(a, s5.inv(a)) == s5.identity
    c = s5.element_by_label("(1 2 3 4 5)")
    assert [s5.power(c, k) == s5.identity for k in range(1, 6)] \
        == [False] * 4 + [True]
    # label round trip for every element
    for i in range(s5.order):
        assert s5.element_by_label(s5.label(i)) == i


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_symmetric_group_table_equals_the_scalar_fill(n):
    elems = tuple(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(elems)}
    scalar = np.empty((len(elems), len(elems)), dtype=np.int32)
    for i, p in enumerate(elems):
        for j, q in enumerate(elems):
            scalar[i, j] = index[perm_compose(p, q)]
    g = symmetric_group(n)
    assert g.labels == tuple(map(cycle_label, elems))
    assert g.table.dtype == scalar.dtype and g.table.shape == scalar.shape
    assert g.table.tobytes() == scalar.tobytes()


@pytest.mark.parametrize("p", [2, 3, 5])
def test_gl2_table_equals_the_scalar_fill(p):
    mats = [(a, b, c, d) for a, b, c, d in itertools.product(range(p), repeat=4)
            if (a * d - b * c) % p]
    index = {m: i for i, m in enumerate(mats)}
    scalar = np.empty((len(mats), len(mats)), dtype=np.int32)
    for i, (a, b, c, d) in enumerate(mats):
        for j, (e, f, g, h) in enumerate(mats):
            scalar[i, j] = index[((a * e + b * g) % p, (a * f + b * h) % p,
                                  (c * e + d * g) % p, (c * f + d * h) % p)]
    g = gl2(p)
    assert g.labels == tuple(map(groups.mat_label, mats))
    assert g.identity == index[(1, 0, 0, 1)]
    assert g.table.dtype == scalar.dtype and g.table.shape == scalar.shape
    assert g.table.tobytes() == scalar.tobytes()


def test_gl2_allocates_no_array_of_all_matrix_entries():
    # an (n, n, 4) int64 array of every product's four entries takes
    # 7.4 MB at p = 5, and an (n, n) intp index array 1.8 MB; the build
    # works on (n, n) int32 arrays in place and must peak below three of
    # them, 2.76 MB
    import tracemalloc

    n = gl2(5).order
    tracemalloc.start()
    try:
        gl2(5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * n * n * 4


def test_symmetric_group_table_of_s6_composes_left_factor_first():
    s6 = symmetric_group(6)
    perms = tuple(itertools.permutations(range(6)))
    assert s6.labels == tuple(map(cycle_label, perms))
    index = {p: i for i, p in enumerate(perms)}
    rng = np.random.default_rng(6)
    for i, j in rng.integers(0, s6.order, size=(500, 2)):
        assert s6.table[i, j] == index[perm_compose(perms[i], perms[j])]


def test_conjugation_and_commutator_conventions():
    s3 = symmetric_group(3)
    g = s3.element_by_label("(1 2)")
    h = s3.element_by_label("(1 2 3)")
    # conj(g, h) = g h g^{-1}
    assert s3.conj(g, h) == s3.mul(g, s3.mul(h, s3.inv(g)))
    # comm(g, h) = g h g^{-1} h^{-1}
    assert s3.comm(g, h) == s3.mul(g, s3.mul(h, s3.mul(s3.inv(g), s3.inv(h))))


def test_power_and_word():
    z6 = cyclic_group(6)
    assert z6.power(1, 4) == 4
    assert z6.power(1, -1) == 5
    assert z6.power(1, 0) == z6.identity
    s3 = symmetric_group(3)
    t = s3.element_by_label("(1 2)")
    c = s3.element_by_label("(1 2 3)")
    assert s3.word([t, c, s3.inv(t)]) == s3.conj(t, c)
    assert s3.word([]) == s3.identity


# ---------------------------------------------------------------------------
# other factories
# ---------------------------------------------------------------------------


def test_cyclic_and_trivial_groups():
    assert trivial_group().order == 1
    z5 = cyclic_group(5)
    assert z5.order == 5
    assert z5.is_abelian
    assert z5.mul(3, 4) == 2
    assert z5.label(2) == "2"


def test_direct_product():
    g = direct_product(cyclic_group(2), cyclic_group(3))
    assert g.order == 6
    assert g.is_abelian
    labels = {g.label(i) for i in range(6)}
    assert all("," in l for l in labels)


def test_gl2_and_pgl2():
    g = gl2(5)
    assert g.order == 480
    assert g.label(g.identity) == "I"
    m = g.element_by_label("(2 0; 0 1)")
    assert g.label(g.mul(m, m)) == "(4 0; 0 1)"
    pgl, proj = pgl2(5)
    assert pgl.order == 120
    assert proj.source.order == 480
    assert proj.is_surjective
    # scalar matrices collapse: [diag(2, 1)] is represented least-index
    assert pgl.label(proj(m)) == "[(1 0; 0 3)]"


@pytest.mark.parametrize("build, label", [
    (lambda: symmetric_group(7), "cycle_label"),
    (lambda: symmetric_group(8), "cycle_label"),
    (lambda: gl2(7), "mat_label"),
    (lambda: from_cayley_table([[0]] * 1001), "FiniteGroup"),
])
def test_groups_above_the_table_limit_fail_before_building_elements(
        monkeypatch, build, label):
    def no_elements(*args):
        raise AssertionError("an element was built")

    monkeypatch.setattr(groups, label, no_elements)
    with pytest.raises(SizeLimitError, match="TABLE_LIMIT = 1000"):
        build()


def test_center():
    s3 = symmetric_group(3)
    assert s3.center() == (s3.identity,)
    z4 = cyclic_group(4)
    assert len(z4.center()) == 4
    g = gl2(5)
    assert len(g.center()) == 4  # the nonzero scalars


def test_from_cayley_table_rejects_non_groups():
    with pytest.raises(NotAGroupError):
        from_cayley_table([[0, 1], [1, 1]])  # not a latin square
    with pytest.raises(NotAGroupError):
        # smallest non-associative latin square with an identity
        from_cayley_table(
            [
                [0, 1, 2, 3, 4],
                [1, 0, 3, 4, 2],
                [2, 3, 4, 0, 1],
                [3, 4, 1, 2, 0],
                [4, 2, 0, 1, 3],
            ]
        )


@pytest.mark.parametrize("table, message", [
    # row 1 and column 1 both repeat 1: the row is named
    ([[0, 1, 2], [1, 1, 0], [2, 0, 1]], "row 1 (a) is not a bijection"),
    # every row is a permutation, columns 1 and 2 are not
    ([[0, 1, 2], [1, 2, 0], [2, 1, 0]], "column 1 (a) is not a bijection"),
])
def test_latin_square_check_names_the_first_bad_row_or_column(table, message):
    t = FiniteGroup("T", ("e", "a", "b"), table, identity=0)
    with pytest.raises(NotAGroupError) as exc:
        t.validate_axioms()
    assert str(exc.value) == message


# a Latin square with identity 0 (a loop) that is not associative
NOT_ASSOCIATIVE_LOOP = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3],
                        [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]


def reduced_latin_squares(n: int):
    """Every n x n Latin square whose first row and column are 0..n-1, as
    int32 arrays: the tables of the loops on 0..n-1 with identity 0."""
    square = [list(range(n))] + [[i] + [-1] * (n - 1) for i in range(1, n)]
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]

    def fill(k):
        if k == len(cells):
            yield np.array(square, dtype=np.int32)
            return
        i, j = cells[k]
        used = {*square[i][:j], *(square[r][j] for r in range(i))}
        for v in range(n):
            if v not in used:
                square[i][j] = v
                yield from fill(k + 1)
        square[i][j] = -1

    yield from fill(0)


def _passes_light(table) -> bool:
    """validate_axioms' verdict on a Latin square with identity 0."""
    loop = FiniteGroup("L", tuple(f"g{i}" for i in range(len(table))), table,
                       identity=0)
    try:
        loop.validate_axioms()
    except NotAGroupError as exc:
        assert str(exc).startswith("associativity fails at")
        return False
    return True


def _associative_by_cube(t) -> bool:
    """The brute-force oracle: (ab)c = a(bc) on all n^3 triples."""
    return bool(np.array_equal(t[t, :], t[:, t]))


# every loop of order 4 is a group; of order 5, only the 6 labellings of Z5
@pytest.mark.parametrize("n, count, n_groups", [(4, 4, 4), (5, 56, 6)])
def test_light_test_agrees_with_the_cube_on_every_reduced_latin_square(
        n, count, n_groups):
    squares = list(reduced_latin_squares(n))
    assert len(squares) == count
    verdicts = [_passes_light(t) for t in squares]
    assert verdicts == [_associative_by_cube(t) for t in squares]
    assert sum(verdicts) == n_groups


def test_light_test_agrees_with_the_cube_on_order_6():
    # every group table of order 6 (the 80 labellings of Z6 and S3 with
    # identity 0), and a fixed-seed sample of the non-associative loops
    squares = list(reduced_latin_squares(6))
    assert len(squares) == 9408
    groups_ = [t for t in squares if _associative_by_cube(t)]
    assert len(groups_) == 80
    assert all(_passes_light(t) for t in groups_)
    loops = [t for t in squares if not _associative_by_cube(t)]
    rng = np.random.default_rng(6)
    for k in rng.choice(len(loops), size=1000, replace=False):
        assert not _passes_light(loops[k])


def test_a_non_associative_loop_of_order_240_is_rejected():
    loop = FiniteGroup("loop5", tuple(f"g{i}" for i in range(5)),
                       NOT_ASSOCIATIVE_LOOP, identity=0)
    big = direct_product(loop, cyclic_group(48))
    with pytest.raises(NotAGroupError, match="associativity fails at"):
        big.validate_axioms()


GROUP_CONSTRUCTORS = {
    "trivial": trivial_group,
    "Z1": lambda: cyclic_group(1),
    "Z12": lambda: cyclic_group(12),
    **{f"S{n}": (lambda n=n: symmetric_group(n)) for n in range(1, 7)},
    "GL(2,2)": lambda: gl2(2),
    "GL(2,3)": lambda: gl2(3),
    "GL(2,5)": lambda: gl2(5),
    "PGL(2,3)": lambda: pgl2(3)[0],
    "PGL(2,5)": lambda: pgl2(5)[0],
    "S3xZ4": lambda: direct_product(symmetric_group(3), cyclic_group(4)),
    "S5'": lambda: commutator_subgroup(symmetric_group(5))[0],
    "S4^ab": lambda: abelianization(symmetric_group(4))[0],
    "GL(2,3)/Z": lambda: central_quotient(gl2(3))[0],
    "Z2xZ4xZ3": lambda: product_of_cyclics((2, 4, 3)),
    "tensor square": lambda: TensorSquare(product_of_cyclics((2, 4))).group,
}


@pytest.mark.parametrize("name", sorted(GROUP_CONSTRUCTORS))
def test_every_group_constructor_builds_a_group(name):
    GROUP_CONSTRUCTORS[name]().validate_axioms()


def _center_by_rows_and_columns(g):
    """The per-element loop center() replaced, kept as its oracle."""
    t = g.table
    return tuple(int(x) for x in range(g.order)
                 if np.array_equal(t[x], t[:, x]))


@pytest.mark.parametrize("name", sorted(GROUP_CONSTRUCTORS))
def test_flat_kernels_match_the_scalar_operations(name):
    g = GROUP_CONSTRUCTORS[name]()
    n = g.order
    rng = np.random.default_rng(n)
    for dtype in (np.int32, np.int64):
        for k, m in ((1, 1), (3, 5), (7, 1), (1, 6)):
            a = rng.integers(0, n, size=(k, 1)).astype(dtype)
            b = rng.integers(0, n, size=(1, m)).astype(dtype)
            for arr, scalar in ((g.mul_arr, g.mul), (g.conj_arr, g.conj),
                                (g.comm_arr, g.comm)):
                got = arr(a, b)
                assert got.shape == (k, m) and got.dtype == np.int32
                assert got.tolist() == [[scalar(int(x), int(y)) for y in b[0]]
                                        for x in a[:, 0]]
    x = int(rng.integers(0, n))
    b = np.arange(n)
    for arr, scalar in ((g.mul_arr, g.mul), (g.conj_arr, g.conj),
                        (g.comm_arr, g.comm)):
        assert arr(x, b).tolist() == [scalar(x, y) for y in range(n)]
        assert arr(b, x).tolist() == [scalar(y, x) for y in range(n)]
        assert int(arr(x, x)) == scalar(x, x)
    conj = g.conjugation
    assert conj.dtype == np.int32 and not conj.flags.writeable
    assert conj is g.conjugation
    assert conj.tolist() == [[g.conj(x, y) for y in range(n)]
                             for x in range(n)]
    assert g.center() == _center_by_rows_and_columns(g)


@pytest.mark.parametrize("name", ["S3", "Z12", "GL(2,3)", "PGL(2,5)"])
def test_identity_crossed_module_shares_the_conjugation_table(name):
    g = GROUP_CONSTRUCTORS[name]()
    action = xm_identity(g).action
    assert action is g.conjugation
    assert xm_identity(g).action is action
    with pytest.raises(ValueError, match="read-only"):
        action[0, 0] = 0


def test_cayley_csv_round_trip(tmp_path):
    s3 = symmetric_group(3)
    path = tmp_path / "s3.csv"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(s3.table.tolist())
    g = from_cayley_csv(path)
    assert g.order == 6
    assert g.labels == ("g0", "g1", "g2", "g3", "g4", "g5")
    assert g.element_by_label("g3") == 3
    assert np.array_equal(g.table, s3.table)


# ---------------------------------------------------------------------------
# homomorphisms
# ---------------------------------------------------------------------------


def test_hom_validation_kernel_image():
    s3 = symmetric_group(3)
    ab, proj = abelianization(s3)
    assert ab.order == 2
    assert len(proj.kernel()) == 3  # the 3-cycles and the identity
    assert len(proj.image()) == 2
    assert proj.is_surjective
    proj.assert_valid()


def test_hom_rejects_non_homomorphism():
    z4 = cyclic_group(4)
    bad = GroupHom(z4, z4, [0, 2, 1, 3])
    check = bad.homomorphism_check("bad is a homomorphism")
    assert (check.axiom, check.checked, check.mode) == (
        "bad is a homomorphism", 16, "exhaustive")
    assert not check.ok
    with pytest.raises(GroupMismatchError):
        bad.assert_valid()


@pytest.mark.parametrize("mapping", [[0, 3, 0, 3], [0, -1, 0, 1]])
def test_hom_refuses_a_mapping_outside_the_target(mapping):
    # image() and is_surjective would count an entry outside Z2
    with pytest.raises(GroupMismatchError,
                       match=r"^mapping entries out of Z2's range$"):
        GroupHom(cyclic_group(4), cyclic_group(2), mapping)


def test_hom_composition_and_identity():
    s3 = symmetric_group(3)
    ab, proj = abelianization(s3)
    comp = identity_hom(s3).then(proj)
    assert np.array_equal(comp.mapping, proj.mapping)
    with pytest.raises(GroupMismatchError):
        proj.then(proj)  # targets do not line up


# ---------------------------------------------------------------------------
# subgroups and quotients
# ---------------------------------------------------------------------------


def test_subgroup_closure_and_embedding():
    s4 = symmetric_group(4)
    gens = [s4.element_by_label("(1 2)"), s4.element_by_label("(3 4)")]
    idx = subgroup_closure(s4, gens)
    assert len(idx) == 4
    sub, emb = subgroup(s4, idx)
    assert sub.order == 4 and sub.is_abelian
    assert emb.kernel() == (sub.identity,)
    emb.assert_valid()


def test_commutator_subgroup_of_s5_is_a5():
    a5, emb = commutator_subgroup(symmetric_group(5))
    assert a5.order == 60
    emb.assert_valid()
    # A5 is perfect: its commutator subgroup is everything
    a5d, _ = commutator_subgroup(a5)
    assert a5d.order == 60


def test_quotient_by_normal():
    s3 = symmetric_group(3)
    a3 = subgroup_closure(s3, [s3.element_by_label("(1 2 3)")])
    q, proj = quotient_by_normal(s3, a3)
    assert q.order == 2
    assert proj.is_surjective
    assert proj(s3.element_by_label("(1 2)")) != q.identity


def test_central_quotient_of_gl25():
    q, proj = central_quotient(gl2(5))
    assert q.order == 120
    assert proj.is_surjective
    proj.assert_valid()


# ---------------------------------------------------------------------------
# the scalar subgroup and quotient loops, kept as oracles for the array code
# ---------------------------------------------------------------------------


def oracle_subgroup_closure(g, generators):
    closed = {g.identity}
    frontier = list(set(generators) | {g.identity})
    closed.update(frontier)
    while frontier:
        nxt = []
        for a in frontier:
            for b in list(closed):
                for c in (g.mul(a, b), g.mul(b, a)):
                    if c not in closed:
                        closed.add(c)
                        nxt.append(c)
        frontier = nxt
    return tuple(sorted(closed))


def oracle_verify_subgroup(g, indices):
    idx = tuple(sorted(set(int(i) for i in indices)))
    inside = set(idx)
    if g.identity not in inside:
        raise NotClosedError("subset does not contain the identity")
    for a in idx:
        if g.inv(a) not in inside:
            raise NotClosedError(f"subset not closed under inverse at {g.labels[a]}")
        for b in idx:
            if g.mul(a, b) not in inside:
                raise NotClosedError(
                    f"subset not closed: {g.labels[a]} * {g.labels[b]} escapes")
    return idx


def oracle_subgroup(g, indices, name=""):
    idx = oracle_verify_subgroup(g, indices)
    pos = {e: i for i, e in enumerate(idx)}
    n = len(idx)
    table = np.empty((n, n), dtype=np.int32)
    for i, a in enumerate(idx):
        for j, b in enumerate(idx):
            table[i, j] = pos[g.mul(a, b)]
    h = groups.FiniteGroup(name or f"{g.name}_sub{n}",
                           tuple(g.labels[e] for e in idx), table=table,
                           identity=pos[g.identity])
    embed = GroupHom(h, g, np.array(idx, dtype=np.int32), name=f"{h.name} into {g.name}")
    return h, embed


def oracle_quotient_by_normal(g, normal_indices, name=""):
    nset = oracle_verify_subgroup(g, normal_indices)
    inside = set(nset)
    for h in nset:
        for x in range(g.order):
            if g.conj(x, h) not in inside:
                raise NotClosedError(
                    f"subgroup is not normal: {g.labels[x]} conjugates "
                    f"{g.labels[h]} outside")
    narr = np.array(nset, dtype=np.int32)
    rep = g.table[:, narr].min(axis=1)
    reps = np.unique(rep)
    relabel = -np.ones(g.order, dtype=np.int32)
    relabel[reps] = np.arange(len(reps))
    proj_map = relabel[rep]
    table = proj_map[g.table[reps[:, None], reps[None, :]]]
    labels = tuple(f"[{g.labels[int(r)]}]" for r in reps)
    q = groups.FiniteGroup(name or f"{g.name}/N{len(nset)}", labels, table=table,
                           identity=int(relabel[rep[g.identity]]))
    proj = GroupHom(g, q, proj_map, name=f"{g.name} onto {q.name}")
    return q, proj


def oracle_commutator_subgroup(g):
    a = np.repeat(np.arange(g.order), g.order)
    b = np.tile(np.arange(g.order), g.order)
    gens = np.unique(g.comm_arr(a, b))
    idx = oracle_subgroup_closure(g, (int(x) for x in gens))
    return oracle_subgroup(g, idx, name=f"{g.name}'")


def _assert_same(got, want):
    (h, hom), (h0, hom0) = got, want
    assert (h.name, h.labels, h.identity) == (h0.name, h0.labels, h0.identity)
    assert np.array_equal(h.table, h0.table)
    assert hom.name == hom0.name and np.array_equal(hom.mapping, hom0.mapping)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_commutator_subgroup_matches_the_scalar_loops(n):
    g = symmetric_group(n)
    _assert_same(commutator_subgroup(g), oracle_commutator_subgroup(g))


def test_abelianization_and_pgl2_match_the_scalar_loops():
    s4 = symmetric_group(4)
    _, embed = oracle_commutator_subgroup(s4)
    _assert_same(abelianization(s4),
                 oracle_quotient_by_normal(s4, embed.mapping, name="S4^ab"))
    gl = gl2(5)
    _assert_same(pgl2(5), oracle_quotient_by_normal(gl, gl.center(),
                                                    name="PGL(2,5)"))


def test_subgroup_closure_matches_the_scalar_loop():
    s4 = symmetric_group(4)
    for gens in itertools.combinations(range(s4.order), 2):
        assert subgroup_closure(s4, gens) == oracle_subgroup_closure(s4, gens)
    assert subgroup_closure(s4, []) == (s4.identity,)


# each subset, with the message of its first failure in row-major order
NOT_SUBGROUPS_OF_S4 = [
    (["(1 2)", "(3 4)"], "subset not closed: (3 4) * (1 2) escapes"),
    (["(1 2 3)"], "subset not closed under inverse at (1 2 3)"),
    (["(1 2)", "(1 2 3)", "(1 3 2)"], "subset not closed: (1 2) * (1 2 3) escapes"),
]

NOT_NORMAL_IN_S4 = [
    (["(1 2)"], "subgroup is not normal: (2 3) conjugates (1 2) outside"),
    (["(1 2 3 4)"], "subgroup is not normal: (3 4) conjugates (1 2 3 4) outside"),
    # scanned conjugate by conjugate instead, (1 2) would move (2 3) out first
    (["(3 4)", "(2 3)"], "subgroup is not normal: (1 3 2) conjugates (3 4) outside"),
]


def _message(fn, *args):
    with pytest.raises(NotClosedError) as info:
        fn(*args)
    return str(info.value)


@pytest.mark.parametrize("labels, message", NOT_SUBGROUPS_OF_S4)
def test_verify_subgroup_names_the_first_failure(labels, message):
    s4 = symmetric_group(4)
    idx = [s4.identity] + [s4.element_by_label(x) for x in labels]
    assert _message(groups.verify_subgroup, s4, idx) == message
    assert _message(oracle_verify_subgroup, s4, idx) == message
    assert _message(subgroup, s4, idx) == message


def test_verify_subgroup_needs_the_identity():
    s4 = symmetric_group(4)
    message = "subset does not contain the identity"
    assert _message(groups.verify_subgroup, s4, [1, 2]) == message
    assert _message(oracle_verify_subgroup, s4, [1, 2]) == message


@pytest.mark.parametrize("labels, message", NOT_NORMAL_IN_S4)
def test_quotient_by_normal_names_the_first_conjugate_outside(labels, message):
    s4 = symmetric_group(4)
    idx = subgroup_closure(s4, [s4.element_by_label(x) for x in labels])
    assert _message(quotient_by_normal, s4, idx) == message
    assert _message(oracle_quotient_by_normal, s4, idx) == message
