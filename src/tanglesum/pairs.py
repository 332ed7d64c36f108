"""Crossing-assignment pairs over a crossed module.

A pair Phi = (psi, phi) of functions G x G -> E over a crossed module
(d: E -> G, |>) assigns an E-element to every crossing of a coloured tangle
diagram: psi feeds positive crossings and phi negative ones, with arguments
(overstrand colour, outgoing understrand colour).  The boundary relations

    Z = d(psi(X,Y))^{-1} X Y X^{-1}      (positive crossing)
    Z = X^{-1} d(phi(X,Y))^{-1} Y X      (negative crossing)

determine the incoming understrand colour Z from the outgoing one, so each
overstrand colour X induces transfer permutations Fplus_X and Fminus_X of G;
the second Reidemeister move forces them to be mutually inverse.

The move axioms on the pair are, for all X, Y, T in G:

    R1:  psi(X,X) = 1
    R2:  phi(X,Y) psi(X,Z) = 1              with Z = X^{-1} d(phi(X,Y))^{-1} Y X
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
g(A) = d(psi(A,A))^{-1} A the maps f and g are mutually inverse.

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
from .groups import FiniteGroup
from .racks import Rack, RackCocycle, _eisermann
from .validation import (
    CheckResult,
    ValidationReport,
    Violation,
    WITNESS_CAP,
    grid_check,
)

# ---------------------------------------------------------------------------
# the pair object
# ---------------------------------------------------------------------------


class ReidemeisterPair:
    """Dense psi/phi tables over a crossed module, with a mode tag.

    psi and phi are read-only int32 n x n arrays of E-indices, as narrow as
    the group tables; entries are checked against E's range before they are
    narrowed, so no out-of-range entry can wrap into range.
    """

    def __init__(self, xmod: CrossedModule, psi, phi, mode: str,
                 name: str = "pair", **meta):
        if mode not in ("framed", "unframed"):
            raise TangleSumError(f"mode must be 'framed' or 'unframed', got {mode!r}")
        self.xmod = xmod
        self.g = xmod.g
        self.e = xmod.e
        n = self.g.order
        tables = []
        for tbl, which in ((psi, "psi"), (phi, "phi")):
            tbl = np.asarray(tbl)
            if tbl.shape != (n, n):
                raise XmodMismatchError(
                    f"{which} table shape {tbl.shape} != ({n}, {n})")
            if tbl.min() < 0 or tbl.max() >= self.e.order:
                raise XmodMismatchError(f"{which} table entries out of E's range")
            tbl = np.ascontiguousarray(tbl, dtype=np.int32)
            tbl.setflags(write=False)
            tables.append(tbl)
        self.psi, self.phi = tables
        self.mode = mode
        self.name = name
        self.meta = meta
        self._transfer: CrossingTransfer | None = None

    def transfer(self) -> "CrossingTransfer":
        if self._transfer is None:
            self._transfer = build_transfer(self)
        return self._transfer

    def __repr__(self) -> str:
        return f"<{self.mode} pair {self.name} over {self.xmod.name}>"


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def framed_maps(p: ReidemeisterPair):
    """The kink maps (f, g) with d(phi(f(Z),Z)) f(Z) = Z and g = f^{-1}.

    Returns (f, g, violations): f may contain -1 where no unique solution
    exists; violations lists NoSolution/NonUnique witnesses.
    """
    g = p.g
    n = g.order
    bnd = p.xmod.boundary.mapping
    idx = np.arange(n, dtype=np.int64)
    # vals[a, z] = d(phi(a, z)) a
    vals = g.mul_arr(bnd[p.phi], idx[:, None])
    f = np.full(n, -1, dtype=np.int64)
    violations = []
    for z in range(n):
        sols = np.nonzero(vals[:, z] == z)[0]
        if len(sols) == 1:
            f[z] = sols[0]
        elif len(sols) == 0:
            violations.append(Violation(
                "framed kink map", (z,),
                f"no solution A of d(phi(A,{g.label(z)})) A = {g.label(z)}"))
        else:
            violations.append(Violation(
                "framed kink map", (z,),
                f"solutions {[g.label(int(s)) for s in sols[:3]]} are not unique"))
    gmap = g.mul_arr(g.inv_arr(bnd[np.diagonal(p.psi)]), idx)
    return f, gmap, violations


def validate_pair(p: ReidemeisterPair, mode: str | None = None,
                  thorough: bool = False) -> ValidationReport:
    """Check the pair axioms in the pair's mode (or an explicit one).

    Every incoming under-colour the axioms need is a lookup into the
    Fplus/Fminus tables, tabulated once by the same helper build_transfer
    uses and shared by R2 and both R3 forms; they are not checked for
    bijectivity here, so a pair that breaks R2 still gets a report.
    """
    mode = mode or p.mode
    report = ValidationReport(f"{mode} pair {p.name}")
    g, e = p.g, p.e
    n, ne = g.order, e.order
    one = e.identity
    # every table raveled once to intp and read as t[a * m + b]
    psi, phi, fplus, fminus, act, emul = (
        np.ascontiguousarray(t, dtype=np.intp).ravel()
        for t in (p.psi, p.phi, *_transfer_tables(p), p.xmod.action, e.table))

    def mul(a, b):
        return emul[a * ne + b]

    def acts(x, a):
        return act[x * ne + a]

    if mode == "unframed":
        report.add(grid_check(
            "R1: psi(X,X) = 1", (n,), lambda X: (psi[X * n + X], one),
            thorough))

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

    if mode == "framed":
        f, gmap, violations = framed_maps(p)
        report.add(CheckResult("framed kink map f is well defined",
                               n, n, "exhaustive",
                               tuple(violations[:WITNESS_CAP])))
        if not violations:
            idx = np.arange(n, dtype=np.int64)
            bad = np.nonzero((f[gmap] != idx) | (gmap[f] != idx))[0]
            report.add(CheckResult(
                "f and g are mutually inverse", n, n, "exhaustive",
                tuple(Violation("f and g are mutually inverse", (int(i),),
                                f"f(g({g.label(int(i))})) = "
                                f"{g.label(int(f[gmap[i]]))}")
                      for i in bad[:WITNESS_CAP])))
    return report


# ---------------------------------------------------------------------------
# crossing transfers
# ---------------------------------------------------------------------------


class CrossingTransfer:
    """Per-overstrand permutations linking under-arc colours at crossings.

    fplus[X, Y] and fminus[X, Y] map the outgoing under-colour Y to the
    incoming one at positive resp. negative crossings with overstrand X.

    packed_plus[X, Z] and packed_minus[X, Z] are the downward steps the
    state-sum sweep takes, packed so one gather reads both the outgoing
    under-colour Y and the crossing's E-colour: Y = fminus[X, Z] with
    psi(X, Y) at positive crossings, Y = fplus[X, Z] with phi(X, Y) at
    negative ones.  Each entry is one int64, Y | (E-colour << 32), so an n
    x n table takes the bytes of an int32 n x n x 2 one, and the sweep
    decodes Y = v & 0xFFFFFFFF and the E-colour v >> 32 straight into
    index arrays.  The packs read psi and phi by one flat gather each,
    psi.ravel()[X * n + Y], which is exact because every Y in fplus and
    fminus is an element, 0 <= Y < n.  Every crossing of a sweep reads its
    E-colour there, even one whose outgoing under-colour is already known.  sweep_tables
    holds the eight tables the sweep reads, in the order engine._run
    unpacks them: the multiplication and inversion tables of G, the
    multiplication table of E, the action, the two packed tables, fplus
    and fminus.  They are built once here rather than on every state sum.
    There are no scalar lookups: a caller indexes these tables.
    """

    def __init__(self, pair: ReidemeisterPair, fplus: np.ndarray,
                 fminus: np.ndarray):
        self.pair = pair
        self.fplus = fplus
        self.fminus = fminus
        x = np.arange(pair.g.order)[:, None]
        self.packed_plus = _pack(fminus, _gather(pair.psi, x, fminus))
        self.packed_minus = _pack(fplus, _gather(pair.phi, x, fplus))
        self.sweep_tables = (
            pair.g.table, pair.g.inv_table, pair.e.table, pair.xmod.action,
            self.packed_plus, self.packed_minus, fplus, fminus)

    def __repr__(self) -> str:
        return f"<crossing transfer for {self.pair.name}>"


def _gather(t: np.ndarray, rows, cols) -> np.ndarray:
    """t[rows, cols] for index arrays that broadcast, as one flat gather,
    which costs about half of the 2-D fancy index; every index must lie
    inside t's shape, since a flat read checks only the raveled bound."""
    return t.ravel()[rows * t.shape[1] + cols]


def _pack(y: np.ndarray, e: np.ndarray) -> np.ndarray:
    """One int64 per entry: the colour y in the low 32 bits, e above."""
    return y.astype(np.int64) | e.astype(np.int64) << 32


def _transfer_tables(p: ReidemeisterPair) -> tuple[np.ndarray, np.ndarray]:
    """(Fplus, Fminus) as n x n tables, unchecked.

    fplus[X, Y] = A with d(psi(X,Y)) = X Y X^{-1} A^{-1};
    fminus[X, Y] = Z with d(phi(X,Y)) = Y X Z^{-1} X^{-1}.
    """
    g = p.g
    dinv = g.inv_table[p.xmod.boundary.mapping]     # dinv[e] = d(e)^{-1}
    fplus = g.mul_arr(dinv[p.psi], g.conjugation)
    fminus = g.mul_arr(g.mul_arr(g.inv_table[:, None], dinv[p.phi]), g.table.T)
    return fplus, fminus


def build_transfer(p: ReidemeisterPair) -> CrossingTransfer:
    """Fplus/Fminus, verified to be mutually inverse bijections.

    The tables are tabulated once by _transfer_tables, the helper that
    validate_pair shares, and ReidemeisterPair.transfer caches the result.
    The error names the first overstrand X whose Fplus_X or Fminus_X is not
    a bijection, or whose Fminus_X is not the inverse of Fplus_X.  Fminus_X
    o Fplus_X = id makes both maps bijections, so one sweep over the whole
    table finds the rows that fail any of the three checks, and only the
    first of them is sorted to name the check that fails there.
    """
    g = p.g
    fplus, fminus = _transfer_tables(p)
    idx = np.arange(g.order)
    inverse = _gather(fminus, idx[:, None], fplus)
    bad = np.flatnonzero((inverse != idx).any(axis=1))
    if len(bad):
        x = int(bad[0])
        label = g.label(x)
        if not np.array_equal(np.sort(fplus[x]), idx):
            reason = f"Fplus_{label} is not a bijection of G"
        elif not np.array_equal(np.sort(fminus[x]), idx):
            reason = f"Fminus_{label} is not a bijection of G"
        else:
            reason = f"Fminus_{label} is not the inverse of Fplus_{label}"
        raise NotBijectiveError(f"{reason}; the pair cannot satisfy R2")
    return CrossingTransfer(p, fplus, fminus)


# ---------------------------------------------------------------------------
# constructors: racks and cocycles
# ---------------------------------------------------------------------------


def _rack_tables(r: Rack, g: FiniteGroup) -> tuple[np.ndarray, np.ndarray]:
    """The G-valued psi(B,A) = B A B^{-1} (B|>A)^{-1} and
    phi(B,A) = A B (A<|B)^{-1} B^{-1} of the rack pair."""
    inv_b = g.inv_table[:, None]
    psi = g.mul_arr(g.table, g.mul_arr(inv_b, g.inv_arr(r.left)))
    phi = g.mul_arr(g.table.T, g.mul_arr(g.inv_arr(r.right.T), inv_b))
    return psi, phi


def pair_from_rack(r: Rack, group: FiniteGroup) -> ReidemeisterPair:
    """psi(B,A) = B A B^{-1} (B|>A)^{-1}, phi(B,A) = A B (A<|B)^{-1} B^{-1}.

    The group structure on the rack carrier is arbitrary; the crossed module
    is the identity map with the adjoint action.  Framed for racks, unframed
    for quandles.
    """
    if group.order != r.size:
        raise XmodMismatchError(
            f"group order {group.order} != rack size {r.size}")
    psi, phi = _rack_tables(r, group)
    mode = "unframed" if r.is_quandle else "framed"
    return ReidemeisterPair(xm_identity(group), psi, phi, mode,
                            name=f"rack({r.name}; {group.name})",
                            rack=r)


def pair_from_rack_cocycle(c: RackCocycle,
                           group: FiniteGroup) -> ReidemeisterPair:
    """The rack pair decorated with cocycle weights in the module component.

    Over the crossed module G x V -> G: psi(B,A) carries +w(B|>A, B) and
    phi(B,A) carries -w(A,B) in the V slot.
    """
    r = c.rack
    if group.order != r.size:
        raise XmodMismatchError(
            f"group order {group.order} != rack size {r.size}")
    xmod = xm_pair_with_module(group, c.v)
    m = c.v.order
    psi_g, phi_g = _rack_tables(r, group)
    psi = psi_g * m + _gather(c.w, r.left, np.arange(r.size)[:, None])
    phi = phi_g * m + c.v.inv_arr(c.w.T)
    mode = "unframed" if c.is_quandle_cocycle else "framed"
    return ReidemeisterPair(xmod, psi, phi, mode,
                            name=f"cocycle({c.name}; {group.name})",
                            cocycle=c)


# ---------------------------------------------------------------------------
# constructors: twisted conjugation (commutator) pairs
# ---------------------------------------------------------------------------


def pair_eisermann(g: FiniteGroup, x: int,
                   carrier: str = "commutator") -> ReidemeisterPair:
    """The commutator pair phi(L,M) = [Mx^{-1}, Lx^{-1}] over conjugation.

    psi(L,M) = [L,M][ML^{-1},x].  It is the rack pair of the twisted
    conjugation quandle of x over its carrier, the commutator subgroup
    (where both tables land even when x does not) or the whole group; the
    crossed module is the identity with the adjoint action.  Unframed.
    `x` is an element index of g.
    """
    quandle, base = _eisermann(g, x, carrier)
    psi, phi = _rack_tables(quandle, base)
    return ReidemeisterPair(xm_identity(base), psi, phi, "unframed",
                            name=f"eisermann({g.name}, {g.label(x)}, "
                            f"{carrier})", x=x)


# ---------------------------------------------------------------------------
# constructors: Peiffer liftings and their twisted versions
# ---------------------------------------------------------------------------


def pair_from_2xmod(t: TwoCrossedModule) -> ReidemeisterPair:
    """psi(A,B) = {A,B} and phi(A,B) = A |>' {A^{-1},B}, a framed pair.

    The pair lives over the derived crossed module (delta: L -> E, |>') of
    the 2-crossed module; A and B run over the middle group E.
    """
    psi = t.lifting
    phi = _gather(t.derived_action_table, np.arange(t.e.order)[:, None],
                  t.lifting[t.e.inv_table])
    return ReidemeisterPair(t.derived_xmod(), psi, phi, "framed",
                            name=f"peiffer({t.name})", source=t)


def _braided_tables(b: TwoCrossedModule):
    if not b.is_braided:
        raise XmodMismatchError(
            "lifting pairs need a braided object (trivial bottom group)")
    return b.e, b.l, b.lifting


def _lift_phi(mid: FiniteGroup, lifting: np.ndarray, x: int) -> np.ndarray:
    """phi(L,M) = {Mx^{-1}, Lx^{-1}}, shared by both lifting pairs."""
    rx = mid.table[:, mid.inv(x)]                   # rx[a] = a x^{-1}
    return _gather(lifting, rx, rx[:, None])


def pair_eisermann_lift_unframed(b: TwoCrossedModule,
                                 x: int) -> ReidemeisterPair:
    """phi(L,M) = {Mx^{-1}, Lx^{-1}}, psi(L,M) = {L,M}{ML^{-1},x}; unframed.

    Needs the braiding's boundary to be surjective (this is what makes
    psi(L,L) = 1).  Its boundary shadow is the commutator pair for the same x.
    """
    mid, top, lifting = _braided_tables(b)
    if not b.delta.is_surjective:
        raise NotSurjectiveError(
            f"{b.delta.name or 'delta'} is not surjective; "
            "the unframed lifting needs every colour to lift")
    phi = _lift_phi(mid, lifting, x)
    M = np.arange(mid.order)
    psi = top.mul_arr(lifting,
                      lifting[:, x][mid.mul_arr(M, mid.inv_table[:, None])])
    return ReidemeisterPair(b.derived_xmod(), psi, phi, "unframed",
                            name=f"lift_unframed({b.name}, {mid.label(x)})",
                            source=b, x=x)


def pair_eisermann_lift_framed(b: TwoCrossedModule,
                               x: int) -> ReidemeisterPair:
    """phi(L,M) = {Mx^{-1}, Lx^{-1}}, psi(L,M) = {xML^{-1}x^{-1}Lx^{-1}, Lx^{-1}}^{-1}.

    A framed pair whose kink maps are both the identity of G.
    """
    mid, top, lifting = _braided_tables(b)
    xinv = mid.inv(x)
    lx = mid.table[:, xinv, None]
    phi = _lift_phi(mid, lifting, x)
    M = np.arange(mid.order)
    first = mid.mul_arr(mid.mul_arr(x, mid.mul_arr(M, mid.inv_table[:, None])),
                        mid.mul_arr(xinv, lx))
    psi = top.inv_arr(_gather(lifting, first, lx))
    return ReidemeisterPair(b.derived_xmod(), psi, phi, "framed",
                            name=f"lift_framed({b.name}, {mid.label(x)})",
                            source=b, x=x)


# ---------------------------------------------------------------------------
# boundary shadows
# ---------------------------------------------------------------------------


def boundary_shadow(p: ReidemeisterPair) -> tuple[np.ndarray, np.ndarray]:
    """The G-valued tables (d o psi, d o phi)."""
    bnd = p.xmod.boundary.mapping
    return bnd[p.psi], bnd[p.phi]


def lifting_shadow_check(p: ReidemeisterPair,
                         thorough: bool = False) -> ValidationReport:
    """Check d(phi(L,M)) = [Mx^{-1},Lx^{-1}] and d(psi(L,M)) = [L,M][ML^{-1},x].

    This is the defining property of a lifting of the commutator pair, with
    the x stored at construction.
    """
    g = p.g
    xi = p.meta.get("x")
    if xi is None:
        raise TangleSumError("no x stored on the pair")
    n = g.order
    shadow_psi, shadow_phi = boundary_shadow(p)
    report = ValidationReport(f"lifting shadow of {p.name}")
    xinv = g.inv(xi)

    def phi_check(L, M):
        expect = g.comm_arr(g.mul_arr(M, xinv), g.mul_arr(L, xinv))
        return shadow_phi[L, M], expect

    def psi_check(L, M):
        expect = g.mul_arr(g.comm_arr(L, M),
                           g.comm_arr(g.mul_arr(M, g.inv_arr(L)), xi))
        return shadow_psi[L, M], expect

    report.add(grid_check("d(phi(L,M)) = [Mx^-1, Lx^-1]", (n, n),
                          phi_check, thorough))
    report.add(grid_check("d(psi(L,M)) = [L,M][ML^-1,x]", (n, n),
                          psi_check, thorough))
    return report
