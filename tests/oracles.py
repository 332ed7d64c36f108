"""Naive oracles for the classical invariants that the state sum contains.

Test-only, and importing nothing from tanglesum.engine, so the engine
cannot share their mistakes.  Each computes its invariant from the
definition: rack colouring counts and the Carter-Jelsovsky-Kamada-
Langford-Saito cocycle state sum (Trans. AMS 355, 2003), the Wirtinger
count of crossed-module colourings, longitudes of string knots, the framed
abelianisation invariant summed over homomorphisms out of the knot group,
and the boundary shadow and framed kink maps of a pair.  Every sum over
colourings runs through colourings(), one itertools.product over the
n^arcs colourings of a diagram's arcs under one cap.  lifting_identities
sweeps the identities of a 2-crossed module's lifting that follow from its
axioms, which validate_2xmod proves rather than sweeps.  Two scalar checks of
structures sit beside them: perm_compose, the permutation product that
symmetric_group's table is checked against, and rack_axioms_hold, all five
rack laws read cell by cell.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction

from tanglesum.abelian import TensorSquare
from tanglesum.algebra import GroupAlgebraElement
from tanglesum.diagrams import DOWN
from tanglesum.errors import (
    DiagramError,
    EnhancementMismatchError,
    NotClosedError,
    SizeLimitError,
    TangleSumError,
)
from tanglesum.groups import abelianization
from tanglesum.racks import conjugation_quandle
from tanglesum.validation import ValidationReport, grid_check

ENUMERATION_CAP = 5_000_000


class MultiComponentError(TangleSumError):
    """A diagram operation that needs a single strand saw several components."""


def perm_compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """Left factor first: (p*q)(i) = q(p(i))."""
    return tuple(q[p[i]] for i in range(len(p)))


def rack_axioms_hold(r) -> bool:
    """Whether both inverse laws, both self-distributive laws and, on a
    quandle, x <| x = x = x |> x hold in r, cell by cell."""
    L, R = r.left.tolist(), r.right.tolist()
    elems = range(r.size)
    return (all(L[x][R[y][x]] == y and R[L[x][y]][x] == y
                for x, y in itertools.product(elems, repeat=2))
            and all(L[x][L[y][z]] == L[L[x][y]][L[x][z]]
                    and R[R[x][y]][z] == R[R[x][z]][R[y][z]]
                    for x, y, z in itertools.product(elems, repeat=3))
            and (not r.is_quandle
                 or all(R[x][x] == x == L[x][x] for x in elems)))


def colourings(d, n: int, ok):
    """Yield every colouring of d's arcs by 0..n-1 whose crossings all pass
    ok(sign, over, in, out), called with the colours of the crossing's arcs.

    More than ENUMERATION_CAP colourings raise SizeLimitError before any is
    tried.
    """
    if n ** d.n_arcs > ENUMERATION_CAP:
        raise SizeLimitError(f"{n}^{d.n_arcs} arc colourings exceed the "
                             f"enumeration cap of {ENUMERATION_CAP}")
    crossings = [(c.sign, c.over_arc, c.under_in_arc, c.under_out_arc)
                 for c in d.crossings]
    for colour in itertools.product(range(n), repeat=d.n_arcs):
        if all(ok(s, colour[o], colour[i], colour[u])
               for s, o, i, u in crossings):
            yield colour


def rack_colourings(d, r):
    """Rack colourings of d: the outgoing under-colour is (in <| over) at a
    positive crossing and (over |> in) at a negative one."""
    L, R = r.left, r.right
    return colourings(d, r.size, lambda s, o, i, u:
                      u == (R[i, o] if s > 0 else L[o, i]))


def rack_colouring_count(d, r, top=None, bottom=None) -> int:
    """Number of rack colourings of d whose top and bottom colours equal
    the given tuples of element indices; a boundary left as None is summed
    over."""
    fixed = []
    for arcs, cols, which in zip(d.boundary_arcs(), (top, bottom),
                                 ("top", "bottom")):
        if cols is None:
            continue
        cols = tuple(int(c) for c in cols)
        if len(cols) != len(arcs):
            raise EnhancementMismatchError(
                f"{which} enhancement has {len(cols)} colours for "
                f"{len(arcs)} strands")
        for c in cols:
            if not 0 <= c < r.size:
                raise EnhancementMismatchError(
                    f"{which} colour {c} out of range")
        fixed.append((arcs, cols))
    return sum(all(tuple(colour[a] for a in arcs) == cols
                   for arcs, cols in fixed)
               for colour in rack_colourings(d, r))


def cjkls_state_sum(d, c) -> GroupAlgebraElement:
    """The cocycle state sum of a closed diagram over rack colourings.

    Each colouring contributes one formal generator of Z[V]: the sum over
    crossings of +w(under_in, over) at positive and -w(under_out, over) at
    negative crossings.
    """
    if not d.is_closed:
        raise NotClosedError("the cocycle state sum is defined for closed diagrams")
    v, w = c.v, c.w
    terms: Counter = Counter()
    for colour in rack_colourings(d, c.rack):
        terms[v.word(
            int(w[colour[x.under_in_arc], colour[x.over_arc]]) if x.sign > 0
            else v.inv(int(w[colour[x.under_out_arc], colour[x.over_arc]]))
            for x in d.crossings)] += 1
    return GroupAlgebraElement(v, dict(terms))


def wirtinger_count(d, xmod) -> Fraction:
    """Normalised count of crossed-module colourings of a closed diagram.

    Arc colours range over all of G unconstrained; each crossing asks for an
    E-element whose boundary equals the Wirtinger relator (over * out *
    over^-1 * in^-1 at positive crossings, out * over * in^-1 * over^-1 at
    negative ones), contributing the number of such elements.  The total is
    divided by #G^#arcs.  Boundary-identity crossed modules always give 1.
    """
    if not d.is_closed:
        raise NotClosedError("the counting invariant needs a closed diagram")
    g = xmod.g
    image = frozenset(xmod.boundary.image())

    def relator_in_image(s, o, i, u):
        return g.word((o, u, g.inv(o), g.inv(i)) if s > 0
                      else (u, o, g.inv(i), g.inv(o))) in image

    found = sum(1 for _ in colourings(d, g.order, relator_in_image))
    return Fraction(found * len(xmod.boundary.kernel()) ** len(d.crossings),
                    g.order ** d.n_arcs)


def longitude_word(d) -> tuple[tuple[int, int], ...]:
    """Longitude of a string knot as (arc, exponent) letters.

    Walking the strand from the top, the i-th undercrossing with sign s,
    incoming under-arc a and over-arc b appends a^-s b^s.  The word lives in
    the free group on the arcs and has zero total exponent at each crossing.
    Every crossing joins two downward strands, so an arc ends in at most one
    under-passage: the walk goes from arc to arc through the crossing table.
    """
    if d.is_closed or d.top != (DOWN,) or d.bottom != (DOWN,):
        raise DiagramError(
            "longitudes are defined for string diagrams with one downward "
            "strand at top and bottom")
    if d.component_count() != 1:
        raise MultiComponentError(
            f"string diagram has {d.component_count()} components")
    under = {c.under_in_arc: c for c in d.crossings}
    word: list[tuple[int, int]] = []
    arc = d.levels[0][0]
    while arc in under:
        c = under.pop(arc)
        word += [(c.under_in_arc, -c.sign), (c.over_arc, c.sign)]
        arc = c.under_out_arc
    return tuple(word)


def longitude_value(d, colours, group) -> int:
    """Evaluate the longitude word under an arc colouring in a group."""
    return group.word(group.power(colours[arc], exp)
                      for arc, exp in longitude_word(d))


def abelianisation_framed_invariant(d, group) -> GroupAlgebraElement:
    """The framed abelianisation invariant of a closed knot diagram.

    The sum over conjugation colourings (equivalently, homomorphisms f from
    the knot group to G) of (f(m) (x) f(m))^writhe in the tensor square of
    G^ab, with m any meridian.  The tensor square is built here, so the
    tensor-square pair's state sum, which must equal this one, lives in
    another group object with the same name and labels.
    """
    if not d.is_closed:
        raise NotClosedError("the framed comparison needs a closed diagram")
    if d.component_count() != 1:
        raise MultiComponentError(
            "the meridian-based sum needs a single component")
    gab, proj = abelianization(group)
    ts = TensorSquare(gab)
    counts: Counter = Counter()
    for colour in rack_colourings(d, conjugation_quandle(group)):
        ab = proj.mapping[colour[0]]
        counts[ts.group.power(int(ts.pure[ab, ab]), d.writhe)] += 1
    return GroupAlgebraElement(ts.group, dict(counts))


def boundary_shadow(p):
    """The G-valued tables (d o psi, d o phi)."""
    bnd = p.xmod.boundary.mapping
    return bnd[p.psi], bnd[p.phi]


def lifting_shadow_check(p, thorough: bool = False) -> ValidationReport:
    """Check d(phi(L,M)) = [Mx^{-1},Lx^{-1}] and d(psi(L,M)) = [L,M][ML^{-1},x].

    This is the defining property of a lifting of the commutator pair, with
    the x stored at construction.
    """
    g, x = p.g, p.meta["x"]
    xinv = g.inv(x)
    shadow_psi, shadow_phi = boundary_shadow(p)
    report = ValidationReport(f"lifting shadow of {p.name}")
    report.add(grid_check(
        "d(phi(L,M)) = [Mx^-1, Lx^-1]", (g.order, g.order),
        lambda L, M: (shadow_phi[L, M],
                      g.comm_arr(g.mul_arr(M, xinv), g.mul_arr(L, xinv))),
        thorough))
    report.add(grid_check(
        "d(psi(L,M)) = [L,M][ML^-1,x]", (g.order, g.order),
        lambda L, M: (shadow_psi[L, M],
                      g.mul_arr(g.comm_arr(L, M),
                                g.comm_arr(g.mul_arr(M, g.inv_arr(L)), x))),
        thorough))
    return report


def framed_kink_maps(p):
    """The kink maps of a pair, solved from their definition, one column
    at a time: f(Z) is the unique A with d(phi(A,Z)) A = Z, or -1 where
    there is none or more than one, and g(A) = d(psi(A,A))^{-1} A.

    Returns (f, g, ok); ok is the framed kink conditions' verdict, that f
    is defined everywhere and f and g are mutually inverse.
    """
    g, d = p.g, p.xmod.boundary
    n = g.order
    f = []
    for z in range(n):
        sols = [a for a in range(n) if g.mul(d(int(p.phi[a, z])), a) == z]
        f.append(sols[0] if len(sols) == 1 else -1)
    gmap = [g.mul(g.inv(d(int(p.psi[a, a]))), a) for a in range(n)]
    ok = -1 not in f and all(f[gmap[a]] == a and gmap[f[a]] == a
                             for a in range(n))
    return f, gmap, ok


def lifting_identities(t, thorough: bool = False) -> ValidationReport:
    """Sweep the lifting identities that follow from the 2-crossed-module
    axioms: two inversion identities and a three-variable one, and when t
    is braided (G trivial) the plain commutator d{e,f} = [e,f] and the
    conjugation form of the derived action >'."""
    te, tl = t.e.table, t.l.table
    inv_e, inv_g = t.e.inv_table, t.g.inv_table
    dm, bm, lift = t.delta.mapping, t.boundary.mapping, t.lifting
    ae, dact = t.act_g_e, t.derived_action_table
    ne = t.e.order

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

    def commutator(e, f):
        return dm[lift[e, f]], te[te[te[e, f], inv_e[e]], inv_e[f]]

    def action_form(g, e, f):
        conj = lambda a, b: te[te[a, b], inv_e[a]]
        return dact[g, lift[e, f]], lift[conj(g, e), conj(g, f)]

    report = ValidationReport(f"lifting identities of {t.name}")
    report.add(grid_check("lifting inversion identity (left)", (ne, ne),
                          inv_left, thorough))
    report.add(grid_check("lifting inversion identity (right)", (ne, ne),
                          inv_right, thorough))
    report.add(grid_check("three-variable lifting identity", (ne, ne, ne),
                          three_var, thorough))
    if t.is_braided:
        report.add(grid_check("lifting boundary is the plain commutator",
                              (ne, ne), commutator, thorough))
        report.add(grid_check("derived action conjugates the lifting",
                              (ne, ne, ne), action_form, thorough))
    return report
