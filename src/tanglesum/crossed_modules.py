"""Crossed modules, 2-crossed modules, and categorical-group arithmetic.

A crossed module (d: E -> G, >) is a group morphism d together with a left
action of G on E by automorphisms satisfying the two Peiffer equations

    d(g > e) = g d(e) g^{-1},        d(e) > f = e f e^{-1}.

It determines a categorical group C: objects are the elements of G, and the
morphisms U -> d(e)U are the pairs (U, e).  Composition stacks morphisms,
(U, e) then (d(e)U, f) = (U, f e); the tensor (horizontal juxtaposition) is
(U, e) (x) (W, f) = (U W, (V > f) e) with V = d(e) U.

A 2-crossed module (L -> E -> G, >, {,}) is a chain complex of groups with
G-actions and a Peiffer lifting {,}: E x E -> L measuring the failure of the
second Peiffer equation in E.  With the derived action e >' l = l {d(l)^-1, e}
the map delta: L -> E becomes a crossed module, and that derived crossed
module is the one Reidemeister pairs live over.  The braided case is G = 1,
where delta{e,f} = [e,f] and >' behaves like conjugation by a lift.

All actions and liftings are dense integer tables; validators sweep the
axioms with the budgeted grid checker from the validation module.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .abelian import TensorSquare
from .errors import (
    KernelNotCentralError,
    NonComposableError,
    NotAGroupError,
    NotSurjectiveError,
    XmodMismatchError,
)
from .groups import (
    FiniteGroup,
    GroupHom,
    abelianization,
    direct_product,
    identity_hom,
    trivial_group,
)
from .validation import SAMPLE_SEED, CheckResult, ValidationReport, grid_check


# ---------------------------------------------------------------------------
# crossed modules
# ---------------------------------------------------------------------------

class CrossedModule:
    """A boundary morphism d: E -> G with a G-action table on E.

    The constructor only checks shapes; axioms are swept by
    validate_crossed_module, which reports witnesses instead of raising, so
    deliberately broken inputs can be inspected.
    """

    def __init__(self, boundary: GroupHom, action, name: str | None = None):
        self.boundary = boundary
        self.e = boundary.source
        self.g = boundary.target
        action = np.ascontiguousarray(np.asarray(action, dtype=np.int32))
        if action.shape != (self.g.order, self.e.order):
            raise XmodMismatchError(
                f"action table shape {action.shape} != "
                f"({self.g.order}, {self.e.order})")
        action.setflags(write=False)
        self.action = action
        self.name = name or f"({self.e.name} -> {self.g.name})"

    def act(self, g: int, e: int) -> int:
        return int(self.action[g, e])

    def kernel(self) -> tuple[int, ...]:
        return self.boundary.kernel()

    def __repr__(self) -> str:
        return f"CrossedModule({self.name})"


def action_checks(g: FiniteGroup, x: FiniteGroup, act, thorough: bool,
                  on: str = "") -> list[CheckResult]:
    """Sweep the axioms of a left action act[a, e] of g on x by
    automorphisms; `on` ("E") names x in the check names."""
    tg, tx = g.table, x.table
    who, where = (f"G-action on {on}", f" on {on}") if on else ("action", "")
    return [
        grid_check(f"identity acts trivially{where}", (x.order,),
                   lambda e: (act[g.identity, e], e), thorough),
        grid_check(f"{who} distributes over products",
                   (g.order, x.order, x.order),
                   lambda a, e, f: (act[a, tx[e, f]],
                                    tx[act[a, e], act[a, f]]), thorough),
        grid_check(f"{who} composes", (g.order, g.order, x.order),
                   lambda a, b, e: (act[tg[a, b], e], act[a, act[b, e]]),
                   thorough),
    ]


def equivariance_check(axiom: str, hom: GroupHom, source_act, target_act,
                       thorough: bool) -> CheckResult:
    """Sweep hom(a > e) = a > hom(e) over (a, e), where source_act[a, e] and
    target_act[a, h] are actions of one group on hom's source and target."""
    m = hom.mapping
    return grid_check(axiom, source_act.shape,
                      lambda a, e: (m[source_act[a, e]], target_act[a, m[e]]),
                      thorough)


def validate_crossed_module(c: CrossedModule, thorough: bool = False) \
        -> ValidationReport:
    """Sweep the crossed-module axioms; witnesses instead of exceptions."""
    report = ValidationReport(c.name)
    te, bm, act = c.e.table, c.boundary.mapping, c.action
    report.add(c.boundary.homomorphism_check("boundary is a homomorphism",
                                             thorough))
    report.checks += action_checks(c.g, c.e, act, thorough)
    report.add(equivariance_check("first Peiffer equation", c.boundary, act,
                                  c.g.conjugation, thorough))
    report.add(grid_check(
        "second Peiffer equation", (c.e.order, c.e.order),
        lambda e, f: (act[bm[e], f], te[te[e, f], c.e.inv_table[e]]), thorough))
    return report


# ---------------------------------------------------------------------------
# categorical-group morphisms
# ---------------------------------------------------------------------------

class CGMorphism:
    """A morphism (U, e): U -> d(e)U of the categorical group of a crossed module."""

    __slots__ = ("xmod", "src", "elt")

    def __init__(self, xmod: CrossedModule, src: int, elt: int):
        self.xmod = xmod
        self.src = src
        self.elt = elt

    @property
    def tgt(self) -> int:
        return self.xmod.g.mul(self.xmod.boundary(self.elt), self.src)

    @classmethod
    def identity(cls, xmod: CrossedModule, u: int) -> "CGMorphism":
        return cls(xmod, u, xmod.e.identity)

    def then(self, other: "CGMorphism") -> "CGMorphism":
        """Sequential composite; other must start where self ends."""
        if other.xmod is not self.xmod:
            raise XmodMismatchError("morphisms live over different crossed modules")
        if other.src != self.tgt:
            raise NonComposableError(
                f"cannot compose: target {self.xmod.g.labels[self.tgt]} != "
                f"source {self.xmod.g.labels[other.src]}")
        return CGMorphism(self.xmod, self.src,
                          self.xmod.e.mul(other.elt, self.elt))

    def tensor(self, other: "CGMorphism") -> "CGMorphism":
        """(U,e) (x) (W,f) = (UW, (V > f) e), V = d(e) U."""
        if other.xmod is not self.xmod:
            raise XmodMismatchError("morphisms live over different crossed modules")
        x = self.xmod
        v = self.tgt
        return CGMorphism(x, x.g.mul(self.src, other.src),
                          x.e.mul(x.act(v, other.elt), self.elt))

    def __eq__(self, other) -> bool:
        return (isinstance(other, CGMorphism) and self.xmod is other.xmod
                and self.src == other.src and self.elt == other.elt)

    def __hash__(self) -> int:
        return hash((id(self.xmod), self.src, self.elt))

    def __repr__(self) -> str:
        x = self.xmod
        return (f"({x.g.labels[self.src]}, {x.e.labels[self.elt]}): "
                f"{x.g.labels[self.src]} -> {x.g.labels[self.tgt]}")


# ---------------------------------------------------------------------------
# crossed-module constructors
# ---------------------------------------------------------------------------

def _raise_on_failure(c: CrossedModule) -> CrossedModule:
    report = validate_crossed_module(c)
    if not report.ok:
        raise XmodMismatchError(
            f"{c.name} is not a crossed module: {report.violations[0]}")
    return c


def xm_identity(g: FiniteGroup) -> CrossedModule:
    """(id: G -> G) with G acting on itself by conjugation."""
    return CrossedModule(identity_hom(g), g.conjugation,
                         name=f"(id: {g.name} -> {g.name})")


def xm_trivial_boundary(g: FiniteGroup, e: FiniteGroup) -> CrossedModule:
    """Trivial boundary E -> G with G acting trivially; needs E abelian
    (validated, raising on failure)."""
    action = np.broadcast_to(np.arange(e.order, dtype=np.int32),
                             (g.order, e.order))
    boundary = GroupHom(e, g, np.full(e.order, g.identity, dtype=np.int32),
                        name=f"1: {e.name} -> {g.name}")
    c = CrossedModule(boundary, action, name=f"(1: {e.name} -> {g.name})")
    return _raise_on_failure(c)


def xm_pair_with_module(g: FiniteGroup, v: FiniteGroup) -> CrossedModule:
    """E = G x V with d(h, v) = h and g • (h, v) = (g h g^{-1}, v); V abelian."""
    if not v.is_abelian:
        raise NotAGroupError(f"{v.name} must be abelian")
    e = direct_product(g, v)
    m = v.order
    eidx = np.arange(e.order)
    h_part, v_part = eidx // m, eidx % m
    boundary = GroupHom(e, g, h_part.astype(np.int32),
                        name=f"proj: {e.name} -> {g.name}")
    action = g.conj_arr(np.arange(g.order)[:, None], h_part[None, :]) * m \
        + v_part[None, :]
    return _raise_on_failure(
        CrossedModule(boundary, action, name=f"(proj: {e.name} -> {g.name})"))


# ---------------------------------------------------------------------------
# 2-crossed modules
# ---------------------------------------------------------------------------

class TwoCrossedModule:
    """A complex L -> E -> G with G-actions and a Peiffer lifting E x E -> L."""

    def __init__(self, delta: GroupHom, boundary: GroupHom,
                 act_g_e, act_g_l, lifting, name: str | None = None):
        if delta.target is not boundary.source:
            raise XmodMismatchError("delta target must be the boundary source")
        self.delta = delta
        self.boundary = boundary
        self.l = delta.source
        self.e = delta.target
        self.g = boundary.target
        self.act_g_e = np.ascontiguousarray(np.asarray(act_g_e, dtype=np.int32))
        self.act_g_l = np.ascontiguousarray(np.asarray(act_g_l, dtype=np.int32))
        self.lifting = np.ascontiguousarray(np.asarray(lifting, dtype=np.int32))
        if self.act_g_e.shape != (self.g.order, self.e.order):
            raise XmodMismatchError("G-on-E action table has wrong shape")
        if self.act_g_l.shape != (self.g.order, self.l.order):
            raise XmodMismatchError("G-on-L action table has wrong shape")
        if self.lifting.shape != (self.e.order, self.e.order):
            raise XmodMismatchError("lifting table has wrong shape")
        for t in (self.act_g_e, self.act_g_l, self.lifting):
            t.setflags(write=False)
        self.name = name or f"({self.l.name} -> {self.e.name} -> {self.g.name})"
        self._derived_action: np.ndarray | None = None

    def lift(self, e: int, f: int) -> int:
        return int(self.lifting[e, f])

    @property
    def is_braided(self) -> bool:
        return self.g.order == 1

    @property
    def derived_action_table(self) -> np.ndarray:
        """e >' l = l {delta(l)^{-1}, e}, as an |E| x |L| table."""
        if self._derived_action is None:
            dinv = self.e.inv_table[self.delta.mapping]
            # lifting[dinv].T[e, l] = {delta(l)^{-1}, e}
            table = np.ascontiguousarray(self.l.mul_arr(
                np.arange(self.l.order), self.lifting[dinv].T))
            table.setflags(write=False)
            self._derived_action = table
        return self._derived_action

    def derived_xmod(self) -> CrossedModule:
        return CrossedModule(self.delta, self.derived_action_table,
                             name=f"derived ({self.l.name} -> {self.e.name})")

    def __repr__(self) -> str:
        return f"TwoCrossedModule({self.name})"


def validate_2xmod(t: TwoCrossedModule, thorough: bool = False) -> ValidationReport:
    """Sweep all 2-crossed-module axioms plus the derived crossed module.

    The identities that follow from the axioms are swept too, and the
    braided-case identities when t is braided (G trivial), so a table
    that breaks one of them is reported even where the axiom sweep samples.
    """
    report = ValidationReport(t.name)
    tl, te = t.l.table, t.e.table
    inv_l, inv_e = t.l.inv_table, t.e.inv_table
    dm, bm = t.delta.mapping, t.boundary.mapping
    ae, al, lift = t.act_g_e, t.act_g_l, t.lifting
    nl, ne, ng = t.l.order, t.e.order, t.g.order
    dact = t.derived_action_table

    report.add(t.delta.homomorphism_check("delta is a homomorphism",
                                          thorough))
    report.add(t.boundary.homomorphism_check("boundary is a homomorphism",
                                             thorough))
    report.add(grid_check(
        "chain condition", (nl,),
        lambda l: (bm[dm[l]], t.g.identity), thorough))
    # both identities, then both distributivities, then both compositions
    for on_e, on_l in zip(action_checks(t.g, t.e, ae, thorough, on="E"),
                          action_checks(t.g, t.l, al, thorough, on="L")):
        report.checks += [on_e, on_l]
    report.add(equivariance_check("delta is G-equivariant", t.delta, al, ae,
                                  thorough))
    report.add(equivariance_check("boundary is G-equivariant", t.boundary, ae,
                                  t.g.conjugation, thorough))
    report.add(grid_check(
        "lifting hits the Peiffer commutator", (ne, ne),
        lambda e, f: (dm[lift[e, f]],
                      te[te[te[e, f], inv_e[e]], inv_e[ae[bm[e], f]]]),
        thorough))
    report.add(grid_check(
        "lifting of boundaries is the commutator", (nl, nl),
        lambda l, k: (lift[dm[l], dm[k]],
                      tl[tl[tl[l, k], inv_l[l]], inv_l[k]]),
        thorough))
    report.add(grid_check(
        "mixed lifting pairs cancel", (nl, ne),
        lambda l, e: (tl[lift[dm[l], e], lift[e, dm[l]]],
                      tl[l, inv_l[al[bm[e], l]]]),
        thorough))
    report.add(grid_check(
        "lifting splits left products", (ne, ne, ne),
        lambda e, f, g: (
            lift[te[e, f], g],
            tl[lift[e, te[te[f, g], inv_e[f]]], al[bm[e], lift[f, g]]]),
        thorough))
    report.add(grid_check(
        "lifting splits right products", (ne, ne, ne),
        lambda e, f, g: (
            lift[e, te[f, g]],
            tl[lift[e, f], dact[ae[bm[e], f], lift[e, g]]]),
        thorough))
    report.add(grid_check(
        "lifting is G-equivariant", (ng, ne, ne),
        lambda a, e, f: (al[a, lift[e, f]], lift[ae[a, e], ae[a, f]]),
        thorough))

    derived = validate_crossed_module(t.derived_xmod(), thorough=thorough)
    report.checks += [
        replace(check, axiom="derived crossed module: " + check.axiom)
        for check in derived.checks]
    report.checks += derived_identity_checks(t, thorough)
    if t.is_braided:
        report.checks += braided_identity_checks(t, thorough)
    return report


def derived_identity_checks(t: TwoCrossedModule, thorough: bool = False) \
        -> list[CheckResult]:
    """Consequences of the axioms, swept independently as property checks.

    Two two-variable inversion identities and one three-variable identity;
    all must hold in any valid 2-crossed module.
    """
    te = t.e.table
    tl = t.l.table
    inv_e, inv_l = t.e.inv_table, t.l.inv_table
    bm, lift = t.boundary.mapping, t.lifting
    ae, dact = t.act_g_e, t.derived_action_table
    ne = t.e.order
    inv_g = t.g.inv_table

    def inv_left(x, y):
        lhs = tl[dact[x, lift[inv_e[x], y]], lift[x, ae[inv_g[bm[x]], y]]]
        return lhs, t.l.identity

    def inv_right(x, y):
        lhs = tl[lift[x, y], dact[ae[bm[x], y], lift[x, inv_e[y]]]]
        return lhs, t.l.identity

    def three_var(x, y, z):
        by = ae[bm[x], y]
        bz = ae[bm[x], z]
        lhs = tl[tl[lift[x, y], dact[by, lift[x, z]]], lift[by, bz]]
        rhs = tl[tl[dact[x, lift[y, z]], lift[x, ae[bm[y], z]]],
                 dact[ae[bm[te[x, y]], z], lift[x, y]]]
        return lhs, rhs

    return [
        grid_check("lifting inversion identity (left)", (ne, ne), inv_left,
                   thorough),
        grid_check("lifting inversion identity (right)", (ne, ne), inv_right,
                   thorough),
        grid_check("three-variable lifting identity", (ne, ne, ne), three_var,
                   thorough),
    ]


def braided_identity_checks(t: TwoCrossedModule, thorough: bool = False) \
        -> list[CheckResult]:
    """Braided-case consequences: delta{e,f} = [e,f] and conjugation form of >'."""
    te = t.e.table
    inv_e = t.e.inv_table
    dm, lift, dact = t.delta.mapping, t.lifting, t.derived_action_table
    ne = t.e.order

    def commutator(e, f):
        return dm[lift[e, f]], te[te[te[e, f], inv_e[e]], inv_e[f]]

    def action_form(g, e, f):
        conj = lambda a, b: te[te[a, b], inv_e[a]]
        return dact[g, lift[e, f]], lift[conj(g, e), conj(g, f)]

    return [
        grid_check("lifting boundary is the plain commutator", (ne, ne),
                   commutator, thorough),
        grid_check("derived action conjugates the lifting", (ne, ne, ne),
                   action_form, thorough),
    ]


# ---------------------------------------------------------------------------
# 2-crossed-module constructors
# ---------------------------------------------------------------------------

def braided_crossed_module(delta: GroupHom, lifting,
                           name: str | None = None) -> TwoCrossedModule:
    """Wrap (L -> E -> 1, {,}) with trivial bottom group and actions."""
    one = trivial_group()
    l, e = delta.source, delta.target
    boundary = GroupHom(e, one, np.zeros(e.order, dtype=np.int32),
                        name=f"1: {e.name} -> 1")
    act_g_e = np.arange(e.order, dtype=np.int32)[None, :]
    act_g_l = np.arange(l.order, dtype=np.int32)[None, :]
    return TwoCrossedModule(delta, boundary, act_g_e, act_g_l, lifting,
                            name=name or f"({l.name} -> {e.name} -> 1)")


def least_index_section(projection: GroupHom) -> np.ndarray:
    """Section picking, for every target element, its smallest preimage index."""
    sec = np.full(projection.target.order, -1, dtype=np.int32)
    for e in range(projection.source.order - 1, -1, -1):
        sec[projection.mapping[e]] = e
    return sec


def braided_from_central_extension(projection: GroupHom) -> TwoCrossedModule:
    """The braided crossed module of a central extension, {g,h} = [s(g), s(h)].

    `projection` must be surjective with central kernel; s is its
    least-index section.  The lifting is checked against one alternate
    kernel-twisted section, turning the claimed section-independence into a
    verified fact.
    """
    ext, base = projection.source, projection.target
    if not projection.is_surjective:
        raise NotSurjectiveError(
            f"{projection.name or 'projection'} is not onto {base.name}")
    kernel = projection.kernel()
    t = ext.table
    for k in kernel:
        if not np.array_equal(t[k], t[:, k]):
            bad = int(np.nonzero(t[k] != t[:, k])[0][0])
            raise KernelNotCentralError(
                f"kernel element {ext.labels[k]} does not commute with "
                f"{ext.labels[bad]}")

    sec = least_index_section(projection)
    gi = np.arange(base.order)
    lifting = ext.comm_arr(sec[gi[:, None]], sec[gi[None, :]])

    if len(kernel) > 1:
        rng = np.random.default_rng(SAMPLE_SEED)
        twist = np.array(kernel, dtype=np.int32)[
            rng.integers(0, len(kernel), base.order)]
        sec2 = ext.mul_arr(sec, twist)
        lifting2 = ext.comm_arr(sec2[gi[:, None]], sec2[gi[None, :]])
        if not np.array_equal(lifting, lifting2):
            raise KernelNotCentralError(
                "lifting depends on the section; kernel cannot be central")

    return braided_crossed_module(
        projection, lifting,
        name=f"({ext.name} -> {base.name} -> 1, central extension)")


def abelianisation_tensor_2xmod(g: FiniteGroup) -> TwoCrossedModule:
    """(G^ab (x) G^ab -> G -> G) with trivial delta and lifting a (x) b.

    The middle group acts on itself by conjugation via the identity boundary,
    and trivially on the tensor square; the lifting sends (a, b) to the
    tensor of the abelianised images.
    """
    gab, proj = abelianization(g)
    ts = TensorSquare(gab)
    lgrp = ts.group
    delta = GroupHom(lgrp, g, np.full(lgrp.order, g.identity, dtype=np.int32),
                     name=f"1: {lgrp.name} -> {g.name}")
    act_g_l = np.broadcast_to(np.arange(lgrp.order, dtype=np.int32),
                              (g.order, lgrp.order))
    pm = proj.mapping
    lifting = ts.pure.ravel()[pm[:, None] * gab.order + pm]
    return TwoCrossedModule(delta, identity_hom(g), g.conjugation,
                            act_g_l, lifting,
                            name=f"({lgrp.name} -> {g.name} -> {g.name})")
