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

All actions and liftings are dense integer tables, and the constructors
refuse an entry outside its group.  Validators sweep the axioms with the
budgeted grid checker from the validation module, and only the axioms:
validate_2xmod sweeps the 17 that define a 2-crossed module, and its
docstring proves that the derived crossed module and the usual identities
of the lifting follow.  Constructors sweep no axiom: they check only what
their formulas need, an abelian group or a central kernel.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .abelian import TensorSquare
from .errors import (
    KernelNotCentralError,
    NonComposableError,
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
from .validation import CheckResult, ValidationReport, grid_check


# ---------------------------------------------------------------------------
# crossed modules
# ---------------------------------------------------------------------------

class CrossedModule:
    """A boundary morphism d: E -> G with a G-action table on E.

    The constructor only checks the table's shape and that its entries are
    elements of E; axioms are swept by validate_crossed_module, which
    reports witnesses instead of raising, so deliberately broken inputs can
    be inspected.
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
        if action.min() < 0 or action.max() >= self.e.order:
            raise XmodMismatchError("action table entries out of E's range")
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

def xm_identity(g: FiniteGroup) -> CrossedModule:
    """(id: G -> G) with G acting on itself by conjugation.

    A crossed module by the formula, so nothing is checked: the identity
    is a homomorphism, conjugation is an action by automorphisms, and both
    Peiffer equations read g e g^-1 = g e g^-1.
    """
    return CrossedModule(identity_hom(g), g.conjugation,
                         name=f"(id: {g.name} -> {g.name})")


def xm_trivial_boundary(g: FiniteGroup, e: FiniteGroup) -> CrossedModule:
    """Trivial boundary E -> G with G acting trivially; needs E abelian.

    Every axiom but one holds by the formula: the trivial map is a
    homomorphism, the trivial action is one by automorphisms, and d(g > e)
    = 1 = g d(e) g^-1.  The second Peiffer equation d(e) > f = f = e f e^-1
    says E is abelian, which is checked, raising XmodMismatchError.
    """
    name = f"(1: {e.name} -> {g.name})"
    if not e.is_abelian:
        raise XmodMismatchError(
            f"{name} is not a crossed module: {e.name} is not abelian")
    action = np.broadcast_to(np.arange(e.order, dtype=np.int32),
                             (g.order, e.order))
    boundary = GroupHom(e, g, np.full(e.order, g.identity, dtype=np.int32),
                        name=f"1: {e.name} -> {g.name}")
    return CrossedModule(boundary, action, name=name)


def xm_pair_with_module(g: FiniteGroup, v: FiniteGroup) -> CrossedModule:
    """E = G x V with d(h, v) = h and g • (h, v) = (g h g^{-1}, v); V abelian.

    The formula is a crossed module once V is abelian, which is checked,
    raising XmodMismatchError as xm_trivial_boundary does: d is the
    projection, g • acts by conjugation on the first factor and trivially
    on the second, d(g • (h, v)) = g h g^-1, and d(h, v) • (k, w)
    = (h k h^-1, w) = (h, v)(k, w)(h, v)^-1 since v w v^-1 = w.
    """
    name = f"(proj: {g.name}x{v.name} -> {g.name})"
    if not v.is_abelian:
        raise XmodMismatchError(
            f"{name} is not a crossed module: {v.name} is not abelian")
    e = direct_product(g, v)
    m = v.order
    eidx = np.arange(e.order)
    h_part, v_part = eidx // m, eidx % m
    boundary = GroupHom(e, g, h_part.astype(np.int32),
                        name=f"proj: {e.name} -> {g.name}")
    action = g.conj_arr(np.arange(g.order)[:, None], h_part[None, :]) * m \
        + v_part[None, :]
    return CrossedModule(boundary, action, name=name)


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
        ne, nl, ng = self.e.order, self.l.order, self.g.order
        tables = []
        for what, table, shape, into, n in (
                ("G-on-E action", act_g_e, (ng, ne), "E", ne),
                ("G-on-L action", act_g_l, (ng, nl), "L", nl),
                ("lifting", lifting, (ne, ne), "L", nl)):
            table = np.ascontiguousarray(np.asarray(table, dtype=np.int32))
            if table.shape != shape:
                raise XmodMismatchError(f"{what} table has wrong shape")
            if table.min() < 0 or table.max() >= n:
                raise XmodMismatchError(
                    f"{what} table entries out of {into}'s range")
            table.setflags(write=False)
            tables.append(table)
        self.act_g_e, self.act_g_l, self.lifting = tables
        self.name = name or f"({self.l.name} -> {self.e.name} -> {self.g.name})"

    def lift(self, e: int, f: int) -> int:
        return int(self.lifting[e, f])

    @property
    def is_braided(self) -> bool:
        return self.g.order == 1

    @cached_property
    def derived_action_table(self) -> np.ndarray:
        """e >' l = l {delta(l)^{-1}, e}, as an |E| x |L| table."""
        dinv = self.e.inv_table[self.delta.mapping]
        # lifting[dinv].T[e, l] = {delta(l)^{-1}, e}
        table = np.ascontiguousarray(self.l.mul_arr(
            np.arange(self.l.order), self.lifting[dinv].T))
        table.setflags(write=False)
        return table

    def derived_xmod(self) -> CrossedModule:
        return CrossedModule(self.delta, self.derived_action_table,
                             name=f"derived ({self.l.name} -> {self.e.name})")

    def __repr__(self) -> str:
        return f"TwoCrossedModule({self.name})"


def validate_2xmod(t: TwoCrossedModule, thorough: bool = False) -> ValidationReport:
    """Sweep the 17 axioms that define a 2-crossed module, and nothing else.

    Everything else follows from them, so no table fails it while they
    hold.  Write d = delta, b = boundary, {e,f} for the lifting, a > x for
    the G-actions and e >' l = l {d(l)^-1, e} for the derived action, and
    [P], [C], [M], [SL], [SR] for the axioms "lifting hits the Peiffer
    commutator", "lifting of boundaries is the commutator", "mixed lifting
    pairs cancel" and "lifting splits left/right products".  b d = 1 is the
    chain condition, so [P] gives d{d(l), e} = d(l) e d(l)^-1 e^-1.

    - Units: [SL] at e = f = 1 reads {1,g} = {1,g}^2.  d{e,1} = 1 by [P],
      so 1 >' {e,1} = {e,1} and [SR] at f = g = 1 reads {e,1} = {e,1}^2.
    - Conduché's lemma: (d: L -> E, >') is a crossed module.  d is a
      homomorphism by axiom; 1 >' l = l {d(l)^-1, 1} = l; d(l) >' k =
      k {d(k^-1), d(l)} = l k l^-1 by [C]; d(e >' l) = d(l) d{d(l)^-1, e}
      = e d(l) e^-1 by [P].  Put m = {d(l)^-1, e}, so d(m) e = d(l)^-1 e
      d(l): [SL] on {d(k)^-1 d(l)^-1, e} gives e >' (lk) = l ((d(m) e) >'
      k) m, and [SR] on {d(k)^-1, d(m) e} with [C] gives (d(m) e) >' k =
      m (e >' k) m^-1, so e >' (lk) = (e >' l)(e >' k).  [SR] on {d(l)^-1,
      ef} gives (ef) >' l = (e >' l)(e >' {d(l)^-1, f}) = e >' (f >' l).
    - (L) e >' l = {e, d(l)} (b(e) > l): [M] at l^-1 gives e >' l =
      (b(e) > l) {e, d(l)^-1}^-1, and [SR] on {e, d(l) d(l)^-1} = 1 with
      "delta is G-equivariant" gives {e, d(l)^-1}^-1 = (b(e) > l)^-1
      {e, d(l)} (b(e) > l).
    - Lifting inversion identity (right), {x,y} ((b(x) > y) >' {x,y^-1})
      = 1: [SR] on {x, y y^-1}.
    - Lifting inversion identity (left), (x >' m) {x, b(x)^-1 > y} = 1 with
      m = {x^-1, y}: [SL] on {x x^-1, y} gives b(x) > m = n^-1 with n =
      {x, x^-1 y x}; [P] gives x^-1 y x = d(m) (b(x)^-1 > y), and [SR] on
      that product gives n = {x, d(m)} n^-1 {x, b(x)^-1 > y} n.  Cancel n
      and use (L).
    - Three-variable lifting identity: put l = {y,z} and w = (b(y) > z) y,
      so yz = d(l) w by [P].  [SR] and "lifting is G-equivariant" make the
      left side {x, d(l)} (b(x) > l) {x, w} and the right side (x >' l)
      {x, w}, equal by (L).
    - Braided (G = 1).  "Lifting boundary is the plain commutator" sweeps
      the tuples of [P], since "identity acts trivially on E".  "Derived
      action conjugates the lifting", g >' {e,h} = {geg^-1, ghg^-1}: [SL]
      on {ge, h} = {(geg^-1) g, h} gives {geg^-1, ghg^-1} = {g, ehe^-1}
      {e,h} {g,h}^-1, and [SR] on {g, [e,h] h} gives {g, ehe^-1} =
      {g, d{e,h}} {e,h} {g,h} {e,h}^-1, so {geg^-1, ghg^-1} =
      {g, d{e,h}} {e,h}, which is g >' {e,h} by (L).

    tests/oracles.py sweeps the derived identities as an oracle.
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
    return report


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
    """Section picking, for every target element, its smallest preimage
    index, or -1 for a target element that nothing maps to."""
    sec = np.full(projection.target.order, -1, dtype=np.int32)
    hit, first = np.unique(projection.mapping, return_index=True)
    sec[hit] = first
    return sec


def braided_from_central_extension(projection: GroupHom) -> TwoCrossedModule:
    """The braided crossed module of a central extension, {g,h} = [s(g), s(h)].

    `projection` must be surjective with central kernel, and both are
    checked; s is its least-index section.  The lifting does not depend on
    the section: any other is g -> s(g) k_g with k_g in the kernel, and
    [s(g) k, s(h) k'] = [s(g), s(h)] since k and k' are central.
    """
    ext, base = projection.source, projection.target
    if not projection.is_surjective:
        raise NotSurjectiveError(
            f"{projection.name or 'projection'} is not onto {base.name}")
    t = ext.table
    for k in projection.kernel():
        if not np.array_equal(t[k], t[:, k]):
            bad = int(np.nonzero(t[k] != t[:, k])[0][0])
            raise KernelNotCentralError(
                f"kernel element {ext.labels[k]} does not commute with "
                f"{ext.labels[bad]}")

    sec = least_index_section(projection)
    gi = np.arange(base.order)
    lifting = ext.comm_arr(sec[gi[:, None]], sec[gi[None, :]])
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
