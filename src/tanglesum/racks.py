"""Finite racks, quandles, 2-cocycles, and classical colouring invariants.

A rack is a set with two mutually inverse binary operations, written x |> y
(left action) and x <| y (right action), each self-distributive over itself:

    x |> (y <| x) = y,   (x |> y) <| x = y,
    x |> (y |> z) = (x |> y) |> (x |> z),
    (x <| y) <| z = (x <| z) <| (y <| z).

A quandle additionally has x |> x = x = x <| x.  Only one table is needed:
for a fixed acting element a the translations y -> a |> y and y -> y <| a
are mutually inverse bijections, so either determines the other.  The
Eisermann pair (pairs.pair_eisermann) is the rack pair of the
twisted-conjugation quandle h <| a = x^-1 h a^-1 x a over its carrier.

Colours live on arcs of a sliced diagram; an arc runs through cups, caps and
over-strands and breaks only where it passes under a crossing.  At a positive
crossing the outgoing under-arc is (incoming <| over); at a negative one it
is (over |> incoming).  Counting colourings, with or without prescribed
boundary colours, is invariant under the framed Reidemeister moves, and under
the first move too when the rack is a quandle.

A 2-cocycle with values in an abelian group V assigns a weight w(x, y) to
each pair subject to

    w(x,y) + w(x<|y, z) = w(x,z) + w(x<|z, y<|z),

and the state sum collects, per colouring, the signed sum of crossing weights
(+w(under_in, over) at positive crossings, -w(under_out, over) at negative
ones) as a formal sum over V.
"""

from __future__ import annotations

import itertools

import numpy as np

from .algebra import GroupAlgebraElement
from .diagrams import SlicedTangleDiagram
from .errors import (
    EnhancementMismatchError,
    NotBijectiveError,
    NotClosedError,
    SizeLimitError,
    TangleSumError,
)
from .groups import TABLE_LIMIT, FiniteGroup, commutator_subgroup, read_int_table
from .validation import ValidationReport, grid_check

# ---------------------------------------------------------------------------
# racks and quandles
# ---------------------------------------------------------------------------


def _invert_translations(table: np.ndarray, side: str) -> np.ndarray:
    """Invert all translations of one operation table to get the other.

    For the left table L[a, y] = a |> y the returned R satisfies
    R[y, a] = (the z with a |> z = y); for the right table the roles swap.
    """
    n = table.shape[0]
    out = np.empty_like(table)
    for a in range(n):
        col = table[a, :] if side == "left" else table[:, a]
        seen = np.zeros(n, dtype=bool)
        seen[col] = True
        if not seen.all():
            raise NotBijectiveError(
                f"translation by element {a} of the {side} table is not a bijection"
            )
        inverse = np.empty(n, dtype=np.int64)
        inverse[col] = np.arange(n, dtype=np.int64)
        if side == "left":
            out[:, a] = inverse
        else:
            out[a, :] = inverse
    return out


class Rack:
    """A finite rack given by dense operation tables.

    `left[a, y] = a |> y` and `right[x, b] = x <| b`; either may be omitted
    and is then derived by inverting the translations of the other.
    """

    def __init__(self, left=None, right=None, name: str = "R"):
        if left is None and right is None:
            raise TangleSumError("a rack needs at least one operation table")
        if left is not None:
            left = np.asarray(left, dtype=np.int64)
        if right is not None:
            right = np.asarray(right, dtype=np.int64)
        base = left if left is not None else right
        if base.ndim != 2 or base.shape[0] != base.shape[1]:
            raise TangleSumError(f"operation table must be square, got {base.shape}")
        n = base.shape[0]
        if n == 0:
            raise TangleSumError("empty rack")
        for tbl, which in ((left, "left"), (right, "right")):
            if tbl is not None:
                if tbl.shape != (n, n):
                    raise TangleSumError("left and right tables disagree in size")
                if tbl.min() < 0 or tbl.max() >= n:
                    raise TangleSumError(f"{which} table entries out of range 0..{n - 1}")
        if right is None:
            right = _invert_translations(left, "left")
        if left is None:
            left = _invert_translations(right, "right")
        self.name = name
        self.size = n
        self.left = left
        self.right = right
        diag = np.arange(n, dtype=np.int64)
        self.is_quandle = bool(
            (self.left[diag, diag] == diag).all() and (self.right[diag, diag] == diag).all()
        )

    def lop(self, a: int, y: int) -> int:
        """a |> y, a scalar oracle: tests check the rack pair's transfer
        against it."""
        return int(self.left[a, y])

    def rop(self, x: int, b: int) -> int:
        """x <| b, a scalar oracle: tests check the rack pair's transfer
        against it."""
        return int(self.right[x, b])

    def __repr__(self) -> str:
        kind = "quandle" if self.is_quandle else "rack"
        return f"<{kind} {self.name} of size {self.size}>"

    def __eq__(self, other) -> bool:
        return (isinstance(other, Rack)
                and np.array_equal(self.left, other.left)
                and np.array_equal(self.right, other.right))

    def __hash__(self) -> int:
        return hash((self.size, self.left.tobytes()))


def validate_rack(r: Rack, thorough: bool = False) -> ValidationReport:
    """Check the rack axioms, with witnesses on failure."""
    report = ValidationReport(f"rack {r.name}")
    L, R = r.left, r.right
    n = r.size

    report.add(grid_check(
        "x |> (y <| x) = y", (n, n),
        lambda X, Y: (L[X, R[Y, X]], Y), thorough))
    report.add(grid_check(
        "(x |> y) <| x = y", (n, n),
        lambda X, Y: (R[L[X, Y], X], Y), thorough))
    report.add(grid_check(
        "x |> (y |> z) = (x |> y) |> (x |> z)", (n, n, n),
        lambda X, Y, Z: (L[X, L[Y, Z]], L[L[X, Y], L[X, Z]]), thorough))
    report.add(grid_check(
        "(x <| y) <| z = (x <| z) <| (y <| z)", (n, n, n),
        lambda X, Y, Z: (R[R[X, Y], Z], R[R[X, Z], R[Y, Z]]), thorough))
    if r.is_quandle:
        report.add(grid_check(
            "x <| x = x = x |> x", (n,),
            lambda X: (R[X, X] * n + L[X, X], X * n + X), thorough))
    return report


# ---------------------------------------------------------------------------
# standard constructions
# ---------------------------------------------------------------------------


def _on_carrier(g: FiniteGroup, elems: np.ndarray, tables, what: str):
    """Map tables of parent indices, cell (i, j) computed from the carrier
    pair (elems[i], elems[j]), to carrier indices.

    The first pair in row-major order whose value in any table leaves the
    carrier raises NotClosedError naming it.
    """
    pos = np.full(g.order, -1, dtype=np.int64)
    pos[elems] = np.arange(len(elems))
    mapped = [pos[t] for t in tables]
    off = np.logical_or.reduce([t < 0 for t in mapped])
    if off.any():
        i, j = divmod(int(np.argmax(off)), len(elems))
        raise NotClosedError(
            f"{what}: {g.label(int(elems[i]))} , {g.label(int(elems[j]))}")
    return mapped


def conjugation_quandle(g: FiniteGroup, subset=None) -> Rack:
    """The quandle h <| g = g^-1 h g on a conjugation-closed subset.

    `subset` is an iterable of element indices (default: the whole group).
    """
    if subset is None:
        elems = np.arange(g.order)
    else:
        elems = np.array(list(dict.fromkeys(int(i) for i in subset)),
                         dtype=np.int64)
    a, b = elems[:, None], elems[None, :]
    left, right = _on_carrier(
        g, elems, (g.conj_arr(a, b),                  # a |> b = a b a^-1
                   g.conj_arr(g.inv_arr(b), a)),      # a <| b = b^-1 a b
        "subset not closed under conjugation")
    return Rack(left=left, right=right, name=f"Conj({g.name})")


def _eisermann(g: FiniteGroup, xi: int,
               carrier: str) -> tuple[Rack, FiniteGroup]:
    """The twisted conjugation quandle of eisermann_quandle, together with
    its carrier as a group (the commutator subgroup or g itself)."""
    if carrier == "commutator":
        base, embed = commutator_subgroup(g)
        elems = embed.mapping.astype(np.int64)
    elif carrier == "group":
        base = g
        elems = np.arange(g.order)
    else:
        raise TangleSumError(f"carrier must be 'commutator' or 'group', got {carrier!r}")
    # each cell is a row factor x^+-1 h times a column factor a^-1 x^-+1 a
    ainv = g.inv_arr(elems)
    xinv = g.inv(xi)
    lo, ro = _on_carrier(
        g, elems,
        (g.mul_arr(g.mul_arr(xi, elems)[:, None],     # x h a^-1 x^-1 a
                   g.conj_arr(ainv, xinv)[None, :]),
         g.mul_arr(g.mul_arr(xinv, elems)[:, None],   # x^-1 h a^-1 x a
                   g.conj_arr(ainv, xi)[None, :])),
        "carrier not closed")
    # lo[h, a] = a |> h and ro[h, a] = h <| a
    quandle = Rack(left=lo.T, right=ro, name=f"Eis({g.name}, {g.label(xi)})")
    return quandle, base


def eisermann_quandle(g: FiniteGroup, x: int,
                      carrier: str = "commutator") -> Rack:
    """The twisted conjugation quandle h <| g = x^-1 h g^-1 x g.

    The left action is g |> h = x h g^-1 x^-1 g.  `carrier` selects the
    commutator subgroup (closed since x^-1 h g^-1 x g = (x^-1 h x)[x, g])
    or the whole group.  `x` is an element index of g.
    """
    return _eisermann(g, x, carrier)[0]


def dihedral_quandle(n: int) -> Rack:
    """Z_n with i <| j = 2j - i, the reflection quandle."""
    if n < 2:
        raise TangleSumError(f"dihedral quandle needs n >= 2, got {n}")
    if n > TABLE_LIMIT:
        raise SizeLimitError(
            f"dihedral quandle R_{n} has {n} elements, above "
            f"TABLE_LIMIT = {TABLE_LIMIT}")
    idx = np.arange(n, dtype=np.int64)
    right = (2 * idx[None, :] - idx[:, None]) % n       # right[i, j] = i <| j
    return Rack(right=right, name=f"R_{n}")


def rack_from_csv(path) -> Rack:
    """Read the left table a |> y (rows of comma-separated indices)."""
    return Rack(left=read_int_table(path))


# ---------------------------------------------------------------------------
# 2-cocycles
# ---------------------------------------------------------------------------


class RackCocycle:
    """A rack 2-cocycle: weights w[x, y] in an abelian group V.

    Reports and pair names call every cocycle by its weights' name, w.
    A quandle cocycle is a cocycle on a quandle with w(x, x) = 0; any
    other is a rack cocycle, whose pair is framed.
    """

    name = "w"

    def __init__(self, rack: Rack, v: FiniteGroup, w):
        self.rack = rack
        self.v = v
        self.w = np.asarray(w, dtype=np.int64)
        n = rack.size
        if self.w.shape != (n, n):
            raise TangleSumError(
                f"weight table shape {self.w.shape} does not match rack size {n}")
        if self.w.min() < 0 or self.w.max() >= v.order:
            raise TangleSumError("weight table entries out of range for V")

    @property
    def is_quandle_cocycle(self) -> bool:
        diag = np.arange(self.rack.size)
        return bool(self.rack.is_quandle
                    and (self.w[diag, diag] == self.v.identity).all())

    def __repr__(self) -> str:
        return f"<cocycle {self.name} on {self.rack.name} with values in {self.v.name}>"


def _json_ints(data: dict, key: str, ndim: int) -> np.ndarray:
    """data[key], lists of integers nested ndim deep, as an int64 array; a
    TangleSumError names the key when it is missing or holds anything
    else."""
    if key not in data:
        raise TangleSumError(f"cocycle JSON needs {key!r}")
    try:
        value = np.array(data[key])
    except ValueError:  # ragged nesting
        value = np.array(None)
    if value.ndim != ndim or value.size and value.dtype.kind not in "iu":
        raise TangleSumError(f"cocycle JSON {key!r} must be lists of integers "
                             f"nested {ndim} deep, got {data[key]!r}")
    return value.astype(np.int64)


def cocycle_from_json(rack: Rack, data: dict) -> RackCocycle:
    """Build a cocycle from its JSON object.

    Keys: "v_moduli", the moduli of the cyclic factors of V, and "table",
    the dense rack-size square of V indices; any other key is ignored.  A
    missing key or a non-integer value raises TangleSumError naming the
    key.
    """
    from .abelian import product_of_cyclics
    v = product_of_cyclics(_json_ints(data, "v_moduli", 1).tolist())
    return RackCocycle(rack, v, _json_ints(data, "table", 2))


def validate_cocycle(c: RackCocycle, thorough: bool = False) -> ValidationReport:
    """Check V abelian and the 2-cocycle identity, and w(x,x) = 0 on a
    quandle cocycle; the subject names the kind, quandle or rack."""
    quandle = c.is_quandle_cocycle
    report = ValidationReport(
        f"{'quandle' if quandle else 'rack'} cocycle {c.name}")
    n = c.rack.size
    R = c.rack.right
    w = c.w
    v = c.v

    report.add(grid_check(
        "V abelian", (v.order, v.order),
        lambda a, b: (v.table[a, b], v.table[b, a]), thorough))
    report.add(grid_check(
        "w(x,y) + w(x<|y, z) = w(x,z) + w(x<|z, y<|z)", (n, n, n),
        lambda X, Y, Z: (v.mul_arr(w[X, Y], w[R[X, Y], Z]),
                         v.mul_arr(w[X, Z], w[R[X, Z], R[Y, Z]])),
        thorough))
    if quandle:
        report.add(grid_check(
            "w(x,x) = 0", (n,),
            lambda X: (w[X, X], v.identity),
            thorough))
    return report


# ---------------------------------------------------------------------------
# colouring counts and the cocycle state sum
# ---------------------------------------------------------------------------

COLOURING_ENUMERATION_CAP = 5_000_000


def _colouring_constraints(d: SlicedTangleDiagram):
    """Per-crossing constraint tuples (sign, over_arc, in_arc, out_arc)."""
    return [(c.sign, c.over_arc, c.under_in_arc, c.under_out_arc)
            for c in d.crossings]


def _enumerate_colourings(d: SlicedTangleDiagram, r: Rack):
    """Yield every map arcs -> rack satisfying the crossing rules.

    Plain product enumeration over all arcs; this is deliberately naive so it
    can serve as an oracle for the state-sum engine.
    """
    n_arcs = d.n_arcs
    total = r.size ** n_arcs
    if total > COLOURING_ENUMERATION_CAP:
        raise SizeLimitError(
            f"{r.size}^{n_arcs} = {total} colourings exceed the enumeration cap; "
            "use the state-sum engine for large racks")
    cons = _colouring_constraints(d)
    L, R = r.left, r.right
    for colour in itertools.product(range(r.size), repeat=n_arcs):
        ok = True
        for sign, over, c_in, c_out in cons:
            if sign > 0:
                if colour[c_out] != R[colour[c_in], colour[over]]:
                    ok = False
                    break
            else:
                if colour[c_out] != L[colour[over], colour[c_in]]:
                    ok = False
                    break
        if ok:
            yield colour


def rack_colouring_count(d: SlicedTangleDiagram, r: Rack, top=None,
                         bottom=None) -> int:
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
               for colour in _enumerate_colourings(d, r))


def cjkls_state_sum(d: SlicedTangleDiagram, c: RackCocycle) -> GroupAlgebraElement:
    """Direct Boltzmann-weight state sum over rack colourings of a closed diagram.

    Each colouring contributes one formal generator of Z[V]: the sum over
    crossings of +w(under_in, over) at positive and -w(under_out, over) at
    negative crossings.
    """
    if not d.is_closed:
        raise NotClosedError("the cocycle state sum is defined for closed diagrams")
    v = c.v
    w = c.w
    cons = _colouring_constraints(d)
    terms: dict[int, int] = {}
    for colour in _enumerate_colourings(d, c.rack):
        weight = v.identity
        for sign, over, c_in, c_out in cons:
            if sign > 0:
                weight = v.mul(weight, int(w[colour[c_in], colour[over]]))
            else:
                weight = v.mul(weight, v.inv(int(w[colour[c_out], colour[over]])))
        terms[weight] = terms.get(weight, 0) + 1
    return GroupAlgebraElement(v, terms)
