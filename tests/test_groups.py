"""Finite groups: factories, homs, subgroup and quotient machinery."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from tanglesum.errors import GroupMismatchError, NotAGroupError
from tanglesum.groups import (
    abelianization,
    cayley_to_csv,
    central_quotient,
    commutator_subgroup,
    cyclic_group,
    cycle_label,
    direct_product,
    from_cayley_csv,
    from_cayley_table,
    gl2,
    GroupHom,
    identity_hom,
    parse_cycles,
    perm_compose,
    perm_inverse,
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
    p = parse_cycles("(1 2)", 3)
    q = parse_cycles("(2 3)", 3)
    assert cycle_label(perm_compose(p, q)) == "(1 3 2)"
    assert perm_compose(p, perm_inverse(p)) == (0, 1, 2)


def test_symmetric_group_basics():
    s5 = symmetric_group(5)
    assert s5.order == 120
    assert s5.label(s5.identity) == "id"
    a = s5.element_by_label("(1 2)")
    b = s5.element_by_label("(2 3)")
    assert s5.label(s5.mul(a, b)) == "(1 3 2)"
    assert s5.mul(a, s5.inv(a)) == s5.identity
    assert s5.element_order(s5.element_by_label("(1 2 3 4 5)")) == 5
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
    assert g.permutations == elems
    assert g.table.dtype == scalar.dtype and g.table.shape == scalar.shape
    assert g.table.tobytes() == scalar.tobytes()


def test_symmetric_group_table_of_s6_composes_left_factor_first():
    s6 = symmetric_group(6)
    perms = s6.permutations
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


def test_cayley_csv_round_trip(tmp_path):
    s3 = symmetric_group(3)
    path = tmp_path / "s3.csv"
    cayley_to_csv(s3, path)
    g = from_cayley_csv(path, labels=[s3.label(i) for i in range(6)])
    assert g.order == 6
    assert g.element_by_label("(1 2)") == s3.element_by_label("(1 2)")
    assert np.array_equal(g.table, s3.table)


# ---------------------------------------------------------------------------
# homomorphisms
# ---------------------------------------------------------------------------


def test_hom_validation_kernel_image():
    s3 = symmetric_group(3)
    ab, proj = abelianization(s3)
    assert ab.order == 2
    assert proj.is_homomorphism
    assert len(proj.kernel()) == 3  # the 3-cycles and the identity
    assert len(proj.image()) == 2
    assert proj.is_surjective and not proj.is_injective
    proj.assert_valid()


def test_hom_rejects_non_homomorphism():
    z4 = cyclic_group(4)
    bad = GroupHom(z4, z4, [0, 2, 1, 3])
    assert not bad.is_homomorphism
    assert bad.first_violation() is not None
    with pytest.raises(GroupMismatchError):
        bad.assert_valid()


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
    assert emb.is_injective and emb.is_homomorphism


def test_commutator_subgroup_of_s5_is_a5():
    a5, emb = commutator_subgroup(symmetric_group(5))
    assert a5.order == 60
    assert emb.is_homomorphism
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
    assert proj.is_homomorphism and proj.is_surjective
