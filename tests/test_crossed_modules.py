"""Crossed modules, their categorical groups, and 2-crossed modules."""

from __future__ import annotations

import numpy as np
import pytest

from named_examples import d4_extension, d4_projection
from oracles import lifting_identities
from tanglesum.crossed_modules import (
    abelianisation_tensor_2xmod,
    braided_crossed_module,
    braided_from_central_extension,
    CGMorphism,
    CrossedModule,
    least_index_section,
    TwoCrossedModule,
    validate_2xmod,
    validate_crossed_module,
    xm_identity,
    xm_pair_with_module,
    xm_trivial_boundary,
)
from tanglesum.abelian import product_of_cyclics
from tanglesum.errors import (
    KernelNotCentralError,
    NonComposableError,
    NotSurjectiveError,
    XmodMismatchError,
)
from tanglesum.groups import (
    abelianization,
    central_quotient,
    commutator_subgroup,
    cyclic_group,
    gl2,
    GroupHom,
    identity_hom,
    pgl2,
    symmetric_group,
)


# ---------------------------------------------------------------------------
# crossed-module constructors and validation
# ---------------------------------------------------------------------------


def test_identity_crossed_module():
    s3 = symmetric_group(3)
    xm = xm_identity(s3)
    assert validate_crossed_module(xm).ok
    g = s3.element_by_label("(1 2)")
    h = s3.element_by_label("(1 2 3)")
    assert xm.act(g, h) == s3.conj(g, h)
    assert xm.kernel() == (s3.identity,)


def test_trivial_boundary_module():
    z3 = cyclic_group(3)
    s3 = symmetric_group(3)
    xm = xm_trivial_boundary(s3, z3)
    assert validate_crossed_module(xm).ok
    assert len(xm.kernel()) == 3


def test_pair_with_module():
    s3 = symmetric_group(3)
    z2 = cyclic_group(2)
    xm = xm_pair_with_module(s3, z2)
    assert xm.e.order == 12
    assert validate_crossed_module(xm).ok


def test_constructors_without_a_sweep_build_crossed_modules():
    # the formulas guarantee every axiom once V (or E) is abelian
    groups = [symmetric_group(3), cyclic_group(4), d4_projection().source]
    modules = [cyclic_group(2), cyclic_group(3), product_of_cyclics((2, 2))]
    for g in groups:
        for v in modules:
            for xm in (xm_pair_with_module(g, v), xm_trivial_boundary(g, v)):
                report = validate_crossed_module(xm, thorough=True)
                assert report.ok, report.summary()


def test_both_constructors_refuse_a_non_abelian_module_alike():
    # V and E abelian are the same crossed-module condition, one error class
    s3 = symmetric_group(3)
    with pytest.raises(XmodMismatchError,
                       match=r"^\(proj: S3xS3 -> S3\) is not a crossed module: "
                             r"S3 is not abelian$"):
        xm_pair_with_module(s3, s3)
    with pytest.raises(XmodMismatchError,
                       match=r"^\(1: S3 -> S3\) is not a crossed module: "
                             r"S3 is not abelian$"):
        xm_trivial_boundary(s3, s3)


def test_trivial_boundary_needs_an_abelian_module():
    s3 = symmetric_group(3)
    with pytest.raises(XmodMismatchError, match="S3 is not abelian"):
        xm_trivial_boundary(s3, s3)
    # the one axiom the abelian check stands for fails on the table
    failed = [c.axiom for c in validate_crossed_module(CrossedModule(
        GroupHom(s3, s3, np.zeros(6, dtype=np.int32)),
        np.broadcast_to(np.arange(6, dtype=np.int32), (6, 6)))).checks
        if not c.ok]
    assert failed == ["second Peiffer equation"]


@pytest.mark.parametrize("entry", [6, -1])
def test_a_crossed_module_refuses_an_action_entry_outside_e(entry):
    s3 = symmetric_group(3)
    action = s3.conjugation.copy()
    action[1, 2] = entry
    with pytest.raises(XmodMismatchError,
                       match=r"^action table entries out of E's range$"):
        CrossedModule(identity_hom(s3), action)


def test_validation_catches_equivariance_failure():
    # identity boundary with the trivial action: d(g > e) = d(e) != g d(e) g^{-1}
    s3 = symmetric_group(3)
    xm = CrossedModule(
        identity_hom(s3),
        np.broadcast_to(np.arange(6, dtype=np.int32), (6, 6)),
    )
    report = validate_crossed_module(xm)
    assert not report.ok
    assert report.violations


def test_validation_catches_peiffer_failure():
    # conjugation boundary composed with squaring breaks the Peiffer identity
    z4 = cyclic_group(4)
    bad = CrossedModule(
        GroupHom(z4, z4, [0, 2, 0, 2]),
        np.stack([np.array([0, 2, 1, 3], dtype=np.int32)] * 4),
    )
    report = validate_crossed_module(bad)
    assert not report.ok


# ---------------------------------------------------------------------------
# the categorical group
# ---------------------------------------------------------------------------


def test_morphism_target_and_composition():
    s3 = symmetric_group(3)
    xm = xm_identity(s3)
    t = s3.element_by_label("(1 2)")
    c = s3.element_by_label("(1 2 3)")
    m = CGMorphism(xm, src=t, elt=c)
    assert m.tgt == s3.mul(c, t)
    follow = CGMorphism(xm, src=m.tgt, elt=t)
    comp = m.then(follow)
    assert comp.src == t
    assert comp.elt == s3.mul(t, c)  # later letters multiply on the left
    assert comp.tgt == follow.tgt


def test_composition_requires_matching_ends():
    s3 = symmetric_group(3)
    xm = xm_identity(s3)
    m = CGMorphism(xm, 0, 1)
    with pytest.raises(NonComposableError):
        m.then(CGMorphism(xm, src=s3.mul(m.tgt, 1), elt=0))


def test_identity_morphisms_are_units():
    s3 = symmetric_group(3)
    xm = xm_identity(s3)
    m = CGMorphism(xm, 2, 3)
    assert CGMorphism.identity(xm, m.src).then(m) == m
    assert m.then(CGMorphism.identity(xm, m.tgt)) == m


def test_interchange_law_exhaustive_s3():
    s3 = symmetric_group(3)
    xm = xm_identity(s3)
    n = s3.order
    for u1 in range(n):
        for e1 in range(n):
            m1 = CGMorphism(xm, u1, e1)
            for u2 in range(n):
                for e2 in range(n):
                    m2 = CGMorphism(xm, u2, e2)
                    for e3 in range(n):
                        m3 = CGMorphism(xm, m1.tgt, e3)
                        e4 = (e3 * 7 + e1) % n  # one follower per slot
                        m4 = CGMorphism(xm, m2.tgt, e4)
                        lhs = m1.tensor(m2).then(m3.tensor(m4))
                        rhs = m1.then(m3).tensor(m2.then(m4))
                        assert lhs == rhs


# ---------------------------------------------------------------------------
# 2-crossed modules and braidings
# ---------------------------------------------------------------------------


def test_abelianisation_tensor_2xmod():
    s3 = symmetric_group(3)
    t = abelianisation_tensor_2xmod(s3)
    assert validate_2xmod(t).ok
    assert not t.is_braided  # bottom group is S3 itself
    assert validate_crossed_module(t.derived_xmod()).ok
    a = s3.element_by_label("(1 2)")
    b = s3.element_by_label("(1 3)")
    c = s3.element_by_label("(1 2 3)")
    assert t.lift(a, b) != t.l.identity  # odd (x) odd is the generator
    assert t.lift(a, c) == t.l.identity  # anything (x) even dies


def test_braided_from_central_extension():
    b = braided_from_central_extension(d4_projection())
    assert b.is_braided
    assert b.e.order == 4 and b.l.order == 8
    assert validate_2xmod(b, thorough=True).ok
    # the lifting is the commutator of the chosen lifts, so it is nontrivial
    vals = {b.lift(x, y) for x in range(4) for y in range(4)}
    assert len(vals) == 2


# the 2-crossed modules the package builds, by name
SHIPPED = {
    "D4": d4_extension,
    "S3-tensor": lambda: abelianisation_tensor_2xmod(symmetric_group(3)),
    "GL(2,3)": lambda: braided_from_central_extension(pgl2(3)[1]),
    "GL(2,5)": lambda: braided_from_central_extension(pgl2(5)[1]),
    "SL(2,5)": lambda: braided_from_central_extension(_sl2_5_projection()),
    "Z4->Z2": lambda: braided_from_central_extension(
        GroupHom(cyclic_group(4), cyclic_group(2), [0, 1, 0, 1])),
}


AXIOMS = [
    "delta is a homomorphism", "boundary is a homomorphism", "chain condition",
    "identity acts trivially on E", "identity acts trivially on L",
    "G-action on E distributes over products",
    "G-action on L distributes over products",
    "G-action on E composes", "G-action on L composes",
    "delta is G-equivariant", "boundary is G-equivariant",
    "lifting hits the Peiffer commutator",
    "lifting of boundaries is the commutator", "mixed lifting pairs cancel",
    "lifting splits left products", "lifting splits right products",
    "lifting is G-equivariant",
]


def test_validate_2xmod_sweeps_exactly_the_axioms():
    # braided or not, the report is the 17 axioms and nothing they imply
    for name in ("D4", "S3-tensor", "GL(2,5)"):
        report = validate_2xmod(SHIPPED[name](), thorough=True)
        assert [c.axiom for c in report.checks] == AXIOMS
        assert report.ok
    assert sum(c.checked for c in report.checks) == 4_264_680


def test_a_braided_object_built_by_hand_gets_the_same_report():
    # braided means a trivial bottom group, however the object was built
    b = d4_extension()
    plain = TwoCrossedModule(b.delta, b.boundary, b.act_g_e, b.act_g_l,
                             b.lifting)
    checks = [(c.axiom, c.checked, c.ok) for c in validate_2xmod(plain).checks]
    assert checks == [(c.axiom, c.checked, c.ok)
                      for c in validate_2xmod(b).checks]
    assert [axiom for axiom, _, _ in checks] == AXIOMS


def test_validate_2xmod_catches_a_perturbed_lifting_entry():
    b = d4_extension()
    lifting = b.lifting.copy()
    assert lifting[1, 2] != 1
    lifting[1, 2] = 1
    bad = braided_crossed_module(b.delta, lifting)
    report = validate_2xmod(bad, thorough=True)
    failed = [c.axiom for c in report.checks if not c.ok]
    assert failed == ["lifting hits the Peiffer commutator",
                      "lifting of boundaries is the commutator",
                      "mixed lifting pairs cancel",
                      "lifting splits left products",
                      "lifting splits right products"]
    # the identities the axioms imply fail too, so the oracle agrees
    assert not lifting_identities(bad, thorough=True).ok


def _verdicts(t) -> tuple[bool, bool]:
    """validate_2xmod's verdict, and that of the axioms, the identities
    they imply and the derived crossed module swept together."""
    report = validate_2xmod(t, thorough=True)
    derived = validate_crossed_module(t.derived_xmod(), thorough=True)
    return report.ok, (report.ok and lifting_identities(t, thorough=True).ok
                       and derived.ok)


TABLES = ("act_g_e", "act_g_l", "lifting")


def _perturbations(t):
    """Every single-entry change (table, cell, value) of t's two G-action
    tables and its lifting."""
    for name in TABLES:
        table = getattr(t, name)
        n = t.e.order if name == "act_g_e" else t.l.order
        for cell in np.ndindex(table.shape):
            yield from ((name, cell, v) for v in range(n) if v != table[cell])


def _perturbed(t, name, cell, value) -> TwoCrossedModule:
    tables = {k: getattr(t, k).copy() for k in TABLES}
    tables[name][cell] = value
    return TwoCrossedModule(t.delta, t.boundary, **tables)


@pytest.mark.parametrize("name, sample", [
    ("D4", None), ("S3-tensor", None), ("GL(2,3)", 200)])
def test_no_perturbation_fails_only_an_implied_check(name, sample):
    # the axioms decide: no single-entry change of a shipped 2-crossed
    # module passes them yet breaks the derived crossed module or an
    # identity they imply; in fact every such change fails them
    t = SHIPPED[name]()
    changes = list(_perturbations(t))
    if sample:
        rng = np.random.default_rng(33)
        changes = [changes[i] for i in
                   rng.choice(len(changes), size=sample, replace=False)]
    for change in changes:
        kept, full = _verdicts(_perturbed(t, *change))
        assert kept == full, change
        assert not kept, change


@pytest.mark.parametrize("name", SHIPPED)
def test_shipped_2xmods_pass_the_implied_checks_too(name):
    assert _verdicts(SHIPPED[name]()) == (True, True)


def test_braided_extension_abelian_case_is_trivial():
    z4, z2 = cyclic_group(4), cyclic_group(2)
    proj = GroupHom(z4, z2, [0, 1, 0, 1])
    b = braided_from_central_extension(proj)
    assert validate_2xmod(b).ok
    assert np.all(b.lifting == z4.identity)


@pytest.mark.parametrize("table, cell, entry, message", [
    ("act_g_e", (0, 1), 2, "G-on-E action table entries out of E's range"),
    ("act_g_l", (0, 3), 4, "G-on-L action table entries out of L's range"),
    ("lifting", (1, 1), -4, "lifting table entries out of L's range"),
])
def test_a_2xmod_refuses_a_table_entry_outside_its_group(table, cell, entry,
                                                        message):
    # a flat gather would read a negative entry as an element of L
    b = SHIPPED["Z4->Z2"]()
    tables = {k: getattr(b, k).copy() for k in TABLES}
    tables[table][cell] = entry
    with pytest.raises(XmodMismatchError, match=f"^{message}$"):
        TwoCrossedModule(b.delta, b.boundary, **tables)


def test_least_index_section():
    z4, z2 = cyclic_group(4), cyclic_group(2)
    proj = GroupHom(z4, z2, [0, 1, 0, 1])
    assert least_index_section(proj).tolist() == [0, 1]
    # the smallest of several preimages, and -1 where there is none
    z6 = cyclic_group(6)
    assert least_index_section(GroupHom(z6, z4, [0, 2] * 3)).tolist() == [
        0, -1, 1, -1]
    assert least_index_section(GroupHom(z2, z6, [0, 3])).tolist() == [
        0, -1, -1, 1, -1, -1]


def _sl2_5_projection():
    """SL(2,5), the commutator subgroup of GL(2,5), onto PSL(2,5)."""
    sl, _ = commutator_subgroup(gl2(5))
    return central_quotient(sl)[1]


@pytest.mark.parametrize("projection", [
    d4_projection, lambda: pgl2(3)[1], lambda: pgl2(5)[1], _sl2_5_projection,
], ids=["D4", "GL(2,3)", "GL(2,5)", "SL(2,5)"])
def test_lifting_does_not_depend_on_the_section(projection):
    # any section is the least-index one twisted by kernel elements, and a
    # central twist cancels in the commutator
    proj = projection()
    ext = proj.source
    b = braided_from_central_extension(proj)
    kernel = np.array(proj.kernel(), dtype=np.int32)
    assert len(kernel) > 1
    sec = least_index_section(proj)
    rng = np.random.default_rng(31)
    for _ in range(20):
        twisted = ext.mul_arr(sec, kernel[rng.integers(0, len(kernel),
                                                       len(sec))])
        assert np.array_equal(
            ext.comm_arr(twisted[:, None], twisted[None, :]), b.lifting)


def test_central_extension_rejects_bad_input():
    s3 = symmetric_group(3)
    _, proj = abelianization(s3)  # kernel A3 is not central in S3
    with pytest.raises(KernelNotCentralError):
        braided_from_central_extension(proj)

    z2, z4 = cyclic_group(2), cyclic_group(4)
    with pytest.raises(NotSurjectiveError):
        braided_from_central_extension(GroupHom(z2, z4, [0, 2]))
