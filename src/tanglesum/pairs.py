"""Crossing-assignment pairs over a crossed module.

A pair Phi = (psi, phi) of functions G x G -> E over a crossed module
(d: E -> G, |>) assigns an E-element to every crossing of a coloured tangle
diagram: psi feeds positive crossings and phi negative ones, with arguments
(overstrand colour, outgoing understrand colour).  The boundary relations

    Z = d(psi(X,Y))^{-1} X Y X^{-1}      (positive crossing)
    Z = X^{-1} d(phi(X,Y))^{-1} Y X      (negative crossing)

determine the incoming understrand colour Z from the outgoing one, so each
overstrand colour X induces transfer maps Fplus_X and Fminus_X of G.  The
second Reidemeister move makes them mutually inverse permutations and fixes
phi by psi:

    R2:  phi(X,Y) psi(X,Z) = 1              with Z = Fminus_X(Y)

A pair is therefore its psi.  ReidemeisterPair takes psi alone, tabulates
Fplus from it, inverts each row to get Fminus and derives
phi(X,Y) = psi(X, Fminus_X(Y))^{-1}, so every pair that can be built
satisfies R2, and a psi whose Fplus_X is not a permutation of G is refused.
The constructors below write psi only.

The other move axioms on the pair are, for all X, Y, T in G:

    R1:  psi(X,X) = 1
    R3:  phi(Y,X) . Y|>phi(T,Z) . phi(T,Y)
           = X|>phi(T,Y) . phi(T,X) . T|>phi(V,W)
         with Z = Y^{-1} d(phi(Y,X))^{-1} X Y,
              V = T^{-1} d(phi(T,Y))^{-1} Y T,
              W = T^{-1} d(phi(T,X))^{-1} X T.

Given R2, R3 is equivalent to a psi-only form (checked here as a
cross-validation): for all X, Y, Z,

    psi(X,Y) . A|>psi(X,Z) . psi(A,B) = X|>psi(Y,Z) . psi(X,C) . D|>psi(X,Y)
    A = d(psi(X,Y))^{-1} XYX^{-1},  B = d(psi(X,Z))^{-1} XZX^{-1},
    C = d(psi(Y,Z))^{-1} YZY^{-1},  D = d(psi(X,C))^{-1} XCX^{-1}.

An unframed pair satisfies R1, R2, R3; a framed pair satisfies R2, R3 and
instead of R1 the kink conditions: (i) for each Z the equation
d(phi(A,Z)) A = Z has a unique solution A = f(Z), and (ii) with
g(A) = d(psi(A,A))^{-1} A the maps f and g are mutually inverse.  With phi
derived, both are one bijection check on the diagonal of Fplus:

    d(phi(A,Z)) A = Z  <=>  Fminus_A(Z) = A   (negative crossing relation)
                       <=>  Z = Fplus_A(A)    (Fplus_A, Fminus_A inverse)
    and Fplus_A(A) = d(psi(A,A))^{-1} A A A^{-1} = g(A),

so the solutions of (i) are the A with g(A) = Z: (i) holds iff g is a
bijection, and then f = g^{-1} gives (ii).

Constructors cover the example families: racks and quandles over any group
structure on the same carrier, rack 2-cocycles, the Eisermann commutator
pairs (the rack pair of the twisted-conjugation quandle over its carrier),
Peiffer liftings of 2-crossed modules, and the braided liftings of the
commutator pairs (framed and unframed).
"""

from __future__ import annotations

import numpy as np

from .crossed_modules import (
    CrossedModule,
    TwoCrossedModule,
    xm_identity,
    xm_pair_with_module,
)
from .errors import (
    NotBijectiveError,
    NotSurjectiveError,
    TangleSumError,
    XmodMismatchError,
)
from .groups import FiniteGroup, row_inverse
from .racks import Rack, RackCocycle, _eisermann
from .validation import ValidationReport, grid_check

# ---------------------------------------------------------------------------
# the pair object
# ---------------------------------------------------------------------------


class ReidemeisterPair:
    """A pair given by its psi table over a crossed module, with a mode tag.

    The constructor is the one place that derives the other three tables:
    fplus[X, Y] = d(psi(X,Y))^{-1} X Y X^{-1}, its row inverse fminus (one
    scatter), and phi(X, Y) = psi(X, fminus[X, Y])^{-1}, so the pair
    satisfies R2 by construction.  A row of fplus that is not a permutation
    of G raises NotBijectiveError naming the first such X.  All four tables
    are read-only int32 n x n arrays, as narrow as the group tables; psi's
    entries are checked against E's range before they are narrowed, so no
    out-of-range entry can wrap into range.

    transfer() builds a fresh CrossingTransfer on every call and the pair
    keeps none: a transfer only gathers three references, and a cached one
    would refer back to its pair, so a dropped pair would wait for the
    cycle collector instead of being freed at once.
    """

    def __init__(self, xmod: CrossedModule, psi, mode: str,
                 name: str = "pair", **meta):
        if mode not in ("framed", "unframed"):
            raise TangleSumError(f"mode must be 'framed' or 'unframed', got {mode!r}")
        self.xmod = xmod
        self.g = g = xmod.g
        self.e = xmod.e
        n = g.order
        psi = np.asarray(psi)
        if psi.shape != (n, n):
            raise XmodMismatchError(f"psi table shape {psi.shape} != ({n}, {n})")
        if psi.min() < 0 or psi.max() >= self.e.order:
            raise XmodMismatchError("psi table entries out of E's range")
        psi = np.array(psi, dtype=np.int32, order="C")  # a copy, frozen below
        fplus = g.mul_arr(g.inv_table[xmod.boundary.mapping][psi], g.conjugation)
        fminus, bad = row_inverse(fplus)  # fminus[X, fplus[X, Y]] = Y
        if len(bad):
            raise NotBijectiveError(
                f"Fplus_{g.label(int(bad[0]))} is not a bijection of G; "
                "the pair cannot satisfy R2")
        phi = self.e.inv_table[_gather(psi, np.arange(n)[:, None], fminus)]
        for tbl in (psi, phi, fplus, fminus):
            tbl.setflags(write=False)
        self.psi, self.phi, self.fplus, self.fminus = psi, phi, fplus, fminus
        self.mode = mode
        self.name = name
        self.meta = meta

    def transfer(self) -> "CrossingTransfer":
        return build_transfer(self)

    def __repr__(self) -> str:
        return f"<{self.mode} pair {self.name} over {self.xmod.name}>"


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def validate_pair(p: ReidemeisterPair, mode: str | None = None,
                  thorough: bool = False) -> ValidationReport:
    """Check the pair axioms in the pair's mode (or an explicit one).

    Every incoming under-colour the axioms need is a lookup into the pair's
    fplus/fminus tables, shared by R2 and both R3 forms.  R2 holds by
    construction, since phi is derived from psi by it; its check still
    runs, as a guard on that derivation, so every report keeps the R2
    check and both R3 forms, after R1 (unframed) or the kink check
    (framed): that each g(A) = Fplus_A(A) is hit once.
    """
    mode = mode or p.mode
    if mode not in ("framed", "unframed"):
        raise TangleSumError(f"mode must be 'framed' or 'unframed', got {mode!r}")
    report = ValidationReport(f"{mode} pair {p.name}")
    g, e = p.g, p.e
    n, ne = g.order, e.order
    one = e.identity
    # every table raveled once to intp and read as t[a * m + b]
    psi, phi, fplus, fminus, act, emul = (
        np.ascontiguousarray(t, dtype=np.intp).ravel()
        for t in (p.psi, p.phi, p.fplus, p.fminus, p.xmod.action, e.table))

    def mul(a, b):
        return emul[a * ne + b]

    def acts(x, a):
        return act[x * ne + a]

    if mode == "unframed":
        report.add(grid_check(
            "R1: psi(X,X) = 1", (n,), lambda X: (psi[X * n + X], one),
            thorough))
    else:
        # the kink conditions hold iff g(A) = Fplus_A(A) is a bijection
        kink = fplus[::n + 1]
        hits = np.bincount(kink, minlength=n)
        report.add(grid_check(
            "kink maps: g(A) = d(psi(A,A))^-1 A is hit once", (n,),
            lambda A: (hits[kink[A]], 1), thorough))

    def r2(X, Y):
        xy = X * n + Y
        return mul(phi[xy], psi[X * n + fminus[xy]]), one

    report.add(grid_check("R2: phi(X,Y) psi(X,Z) = 1", (n, n), r2, thorough))

    def r3(X, Y, T):
        ty = T * n + Y
        phi_ty = phi[ty]
        z = fminus[Y * n + X]
        v = fminus[ty]
        w = fminus[T * n + X]
        lhs = mul(mul(phi[Y * n + X], acts(Y, phi[T * n + z])), phi_ty)
        rhs = mul(mul(acts(X, phi_ty), phi[T * n + X]), acts(T, phi[v * n + w]))
        return lhs, rhs

    report.add(grid_check("R3 (phi form)", (n, n, n), r3, thorough))

    def r3p(X, Y, Z):
        xy = X * n + Y
        psi_xy = psi[xy]
        a = fplus[xy]
        b = fplus[X * n + Z]
        c = fplus[Y * n + Z]
        d_ = fplus[X * n + c]
        lhs = mul(mul(psi_xy, acts(a, psi[X * n + Z])), psi[a * n + b])
        rhs = mul(mul(acts(X, psi[Y * n + Z]), psi[X * n + c]), acts(d_, psi_xy))
        return lhs, rhs

    report.add(grid_check("R3 (psi form)", (n, n, n), r3p, thorough))

    return report


# ---------------------------------------------------------------------------
# crossing transfers
# ---------------------------------------------------------------------------


class CrossingTransfer:
    """A pair's transfer tables, for callers that step colours by hand.

    fplus[X, Y] and fminus[X, Y] (the pair's tables) map the outgoing
    under-colour Y to the incoming one at positive resp. negative crossings
    with overstrand X, so a colour steps down a crossing with fminus[X, Z]
    (positive) or fplus[X, Z] (negative), Z the incoming under-colour.
    The state-sum sweep reads none of this: it takes the pair itself and
    reads its tables by name, fplus and fminus for the colours, and psi,
    phi, the group tables and the action for the E-colours.  A transfer
    allocates no table, and holds its pair strongly while the pair holds
    no transfer, so the two form no reference cycle.
    """

    def __init__(self, pair: ReidemeisterPair):
        self.pair = pair
        self.fplus = pair.fplus
        self.fminus = pair.fminus

    def __repr__(self) -> str:
        return f"<crossing transfer for {self.pair.name}>"


def _gather(t: np.ndarray, rows, cols) -> np.ndarray:
    """t[rows, cols] for index arrays that broadcast, as one flat gather,
    which costs about half of the 2-D fancy index; every index must lie
    inside t's shape, since a flat read checks only the raveled bound."""
    return t.ravel()[rows * t.shape[1] + cols]


def build_transfer(p: ReidemeisterPair) -> CrossingTransfer:
    """The transfer of a pair, built afresh on each ReidemeisterPair.transfer
    call.  It only gathers references: the pair's constructor has already
    derived fplus, fminus and phi and refused a psi whose Fplus_X is not a
    bijection."""
    return CrossingTransfer(p)


# ---------------------------------------------------------------------------
# constructors: racks and cocycles
# ---------------------------------------------------------------------------


def _rack_psi(left: np.ndarray, g: FiniteGroup) -> np.ndarray:
    """The G-valued psi(B,A) = B A B^{-1} (B|>A)^{-1} of the rack pair, from
    the rack's left table alone: one product of G's cached conjugation
    table, which the pair's Fplus reads too, and the inverted left table."""
    return g.mul_arr(g.conjugation, g.inv_table[left])


def pair_from_rack(r: Rack, group: FiniteGroup) -> ReidemeisterPair:
    """psi(B,A) = B A B^{-1} (B|>A)^{-1}; phi(B,A) = A B (A<|B)^{-1} B^{-1}.

    The group structure on the rack carrier is arbitrary; the crossed module
    is the identity map with the adjoint action.  Framed for racks, unframed
    for quandles.
    """
    if group.order != r.size:
        raise XmodMismatchError(
            f"group order {group.order} != rack size {r.size}")
    mode = "unframed" if r.is_quandle else "framed"
    return ReidemeisterPair(xm_identity(group), _rack_psi(r.left, group), mode,
                            name=f"rack({r.name}; {group.name})",
                            rack=r)


def pair_from_rack_cocycle(c: RackCocycle,
                           group: FiniteGroup) -> ReidemeisterPair:
    """The rack pair decorated with cocycle weights in the module component.

    Over the crossed module G x V -> G: psi(B,A) carries +w(B|>A, B) in the
    V slot, so phi(B,A) carries -w(A,B).
    """
    r = c.rack
    if group.order != r.size:
        raise XmodMismatchError(
            f"group order {group.order} != rack size {r.size}")
    xmod = xm_pair_with_module(group, c.v)
    psi = (_rack_psi(r.left, group) * c.v.order
           + _gather(c.w, r.left, np.arange(r.size)[:, None]))
    mode = "unframed" if c.is_quandle_cocycle else "framed"
    return ReidemeisterPair(xmod, psi, mode,
                            name=f"cocycle({c.name}; {group.name})",
                            cocycle=c)


# ---------------------------------------------------------------------------
# constructors: twisted conjugation (commutator) pairs
# ---------------------------------------------------------------------------


def pair_eisermann(g: FiniteGroup, x: int,
                   carrier: str = "commutator") -> ReidemeisterPair:
    """The commutator pair psi(L,M) = [L,M][ML^{-1},x] over conjugation.

    phi(L,M) = [Mx^{-1}, Lx^{-1}].  It is the rack pair of the twisted
    conjugation quandle of x over its carrier, the commutator subgroup
    (where both tables land even when x does not) or the whole group; the
    crossed module is the identity with the adjoint action.  Unframed.
    `x` is an element index of g.  The pair reads the quandle's left table
    from racks._eisermann and builds no Rack; ReidemeisterPair still
    inverts its rows, as Fplus, and refuses one that is not a bijection.
    """
    left, base = _eisermann(g, x, carrier)
    return ReidemeisterPair(xm_identity(base), _rack_psi(left, base),
                            "unframed",
                            name=f"eisermann({g.name}, {g.label(x)}, "
                            f"{carrier})", x=x)


# ---------------------------------------------------------------------------
# constructors: Peiffer liftings and their twisted versions
# ---------------------------------------------------------------------------


def pair_from_2xmod(t: TwoCrossedModule) -> ReidemeisterPair:
    """psi(A,B) = {A,B}; phi(A,B) = A |>' {A^{-1},B}; a framed pair.

    The pair lives over the derived crossed module (delta: L -> E, |>') of
    the 2-crossed module; A and B run over the middle group E.
    """
    return ReidemeisterPair(t.derived_xmod(), t.lifting, "framed",
                            name=f"peiffer({t.name})", source=t)


def _braided_tables(b: TwoCrossedModule):
    if not b.is_braided:
        raise XmodMismatchError(
            "lifting pairs need a braided object (trivial bottom group)")
    return b.e, b.l, b.lifting


def pair_eisermann_lift_unframed(b: TwoCrossedModule,
                                 x: int) -> ReidemeisterPair:
    """psi(L,M) = {L,M}{ML^{-1},x}; phi(L,M) = {Mx^{-1}, Lx^{-1}}; unframed.

    Needs the braiding's boundary to be surjective (this is what makes
    psi(L,L) = 1).  Its boundary shadow is the commutator pair for the same x.
    """
    mid, top, lifting = _braided_tables(b)
    if not b.delta.is_surjective:
        raise NotSurjectiveError(
            f"{b.delta.name or 'delta'} is not surjective; "
            "the unframed lifting needs every colour to lift")
    M = np.arange(mid.order)
    psi = top.mul_arr(lifting,
                      lifting[:, x][mid.mul_arr(M, mid.inv_table[:, None])])
    return ReidemeisterPair(b.derived_xmod(), psi, "unframed",
                            name=f"lift_unframed({b.name}, {mid.label(x)})",
                            source=b, x=x)


def pair_eisermann_lift_framed(b: TwoCrossedModule,
                               x: int) -> ReidemeisterPair:
    """psi(L,M) = {xML^{-1}x^{-1}Lx^{-1}, Lx^{-1}}^{-1}; phi(L,M) = {Mx^{-1}, Lx^{-1}}.

    A framed pair whose kink maps are both the identity of G.
    """
    mid, top, lifting = _braided_tables(b)
    xinv = mid.inv(x)
    lx = mid.table[:, xinv, None]
    M = np.arange(mid.order)
    first = mid.mul_arr(mid.mul_arr(x, mid.mul_arr(M, mid.inv_table[:, None])),
                        mid.mul_arr(xinv, lx))
    psi = top.inv_arr(_gather(lifting, first, lx))
    return ReidemeisterPair(b.derived_xmod(), psi, "framed",
                            name=f"lift_framed({b.name}, {mid.label(x)})",
                            source=b, x=x)

