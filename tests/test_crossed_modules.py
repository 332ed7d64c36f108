"""Crossed modules, their categorical groups, and 2-crossed modules."""

from __future__ import annotations

import numpy as np
import pytest

from named_examples import d4_extension, d4_projection
from tanglesum.crossed_modules import (
    abelianisation_tensor_2xmod,
    braided_crossed_module,
    braided_from_central_extension,
    braided_identity_checks,
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
from tanglesum.errors import (
    KernelNotCentralError,
    NonComposableError,
    NotSurjectiveError,
)
from tanglesum.groups import (
    abelianization,
    cyclic_group,
    GroupHom,
    identity_hom,
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


DERIVED_IDENTITIES = {"lifting inversion identity (left)",
                      "lifting inversion identity (right)",
                      "three-variable lifting identity"}
BRAIDED_IDENTITIES = {"lifting boundary is the plain commutator",
                      "derived action conjugates the lifting"}


def test_validate_2xmod_sweeps_the_identities():
    b = d4_extension()
    report = validate_2xmod(b, thorough=True)
    axioms = {c.axiom for c in report.checks}
    assert DERIVED_IDENTITIES | BRAIDED_IDENTITIES <= axioms
    assert report.ok
    # the tensor square is not braided: it gets the derived identities only,
    # and the plain-commutator identity indeed fails on it
    t = abelianisation_tensor_2xmod(symmetric_group(3))
    report = validate_2xmod(t, thorough=True)
    axioms = {c.axiom for c in report.checks}
    assert DERIVED_IDENTITIES <= axioms
    assert not BRAIDED_IDENTITIES & axioms
    assert report.ok
    failed = {c.axiom for c in braided_identity_checks(t) if not c.ok}
    assert failed == {"lifting boundary is the plain commutator"}


def test_a_braided_object_built_by_hand_gets_the_braided_checks():
    # braided means a trivial bottom group, however the object was built
    b = d4_extension()
    plain = TwoCrossedModule(b.delta, b.boundary, b.act_g_e, b.act_g_l,
                             b.lifting)
    checks = [c.axiom for c in validate_2xmod(plain).checks]
    assert checks == [c.axiom for c in validate_2xmod(b).checks]
    assert BRAIDED_IDENTITIES <= set(checks)


def test_validate_2xmod_catches_a_perturbed_lifting_entry():
    b = d4_extension()
    lifting = b.lifting.copy()
    assert lifting[1, 2] != 1
    lifting[1, 2] = 1
    bad = braided_crossed_module(b.delta, lifting)
    report = validate_2xmod(bad, thorough=True)
    assert not report.ok
    failed = {c.axiom for c in report.checks if not c.ok}
    assert "three-variable lifting identity" in failed
    assert BRAIDED_IDENTITIES <= failed


def test_braided_extension_abelian_case_is_trivial():
    z4, z2 = cyclic_group(4), cyclic_group(2)
    proj = GroupHom(z4, z2, [0, 1, 0, 1])
    b = braided_from_central_extension(proj)
    assert validate_2xmod(b).ok
    assert np.all(b.lifting == z4.identity)


def test_least_index_section():
    z4, z2 = cyclic_group(4), cyclic_group(2)
    proj = GroupHom(z4, z2, [0, 1, 0, 1])
    assert least_index_section(proj).tolist() == [0, 1]


def test_central_extension_rejects_bad_input():
    s3 = symmetric_group(3)
    _, proj = abelianization(s3)  # kernel A3 is not central in S3
    with pytest.raises(KernelNotCentralError):
        braided_from_central_extension(proj)

    z2, z4 = cyclic_group(2), cyclic_group(4)
    with pytest.raises(NotSurjectiveError):
        braided_from_central_extension(GroupHom(z2, z4, [0, 2]))
