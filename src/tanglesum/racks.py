"""Finite racks, quandles and 2-cocycles.

A rack is a set with two mutually inverse binary operations, written x |> y
(left action) and x <| y (right action), each self-distributive over itself:

    x |> (y <| x) = y,   (x |> y) <| x = y,
    x |> (y |> z) = (x |> y) |> (x |> z),
    (x <| y) <| z = (x <| z) <| (y <| z).

A quandle additionally has x |> x = x = x <| x.  For a fixed acting
element a the translations L_a: y -> a |> y and R_a: y -> y <| a are
mutually inverse bijections, so a rack is given by exactly one table; the
other is derived by inverting its translations.  Of the laws above only
left self-distributivity can then fail: the inverse laws are L_a R_a = 1 =
R_a L_a, and validate_rack proves that the rest follow.  The Eisermann pair
(pairs.pair_eisermann) is the rack pair of the twisted-conjugation quandle
h <| a = x^-1 h a^-1 x a over its carrier; it reads the quandle's left
table and builds no Rack.

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
ones) as a formal sum over V.  The rack and cocycle pairs carry the count
and this sum into the engine; tests/oracles.py computes both naively.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import (
    NotBijectiveError,
    NotClosedError,
    SizeLimitError,
    TangleSumError,
)
from .groups import (
    TABLE_LIMIT,
    FiniteGroup,
    commutator_subgroup,
    read_int_table,
    row_inverse,
)
from .validation import ValidationReport, grid_check

# ---------------------------------------------------------------------------
# racks and quandles
# ---------------------------------------------------------------------------


class Rack:
    """A finite rack given by exactly one operation table; the other is
    derived.

    left[a, y] = a |> y and right[x, b] = x <| b, both int64.  Pass one, as
    left= or right=; the constructor inverts its translations (the rows of
    the left table, the columns of the right one) to get the other, and
    raises NotBijectiveError naming the first that is not a bijection.
    """

    def __init__(self, left=None, right=None, name: str = "R"):
        if (left is None) == (right is None):
            raise TangleSumError(
                "a rack is given by exactly one operation table, left= or right=")
        which = "left" if right is None else "right"
        table = np.asarray(left if right is None else right, dtype=np.int64)
        if table.ndim != 2 or table.shape[0] != table.shape[1]:
            raise TangleSumError(f"operation table must be square, got {table.shape}")
        n = table.shape[0]
        if n == 0:
            raise TangleSumError("empty rack")
        if table.min() < 0 or table.max() >= n:
            raise TangleSumError(f"{which} table entries out of range 0..{n - 1}")
        # row a of inv is the translation by a of the other table
        inv, bad = row_inverse(table if right is None else table.T)
        if len(bad):
            raise NotBijectiveError(
                f"translation by element {bad[0]} of the {which} table is not a bijection")
        self.name = name
        self.size = n
        self.left, self.right = (table, inv.T.copy()) if right is None else (inv, table)
        self.is_quandle = bool((np.diagonal(self.left) == np.arange(n)).all())

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
    """Check left self-distributivity, the one rack law a Rack can break,
    with witnesses on failure; the subject names the kind, quandle or rack.

    The constructor makes R_a = L_a^-1 for every a, so the other laws hold
    by construction:

    - the inverse laws x |> (y <| x) = y = (x |> y) <| x are L_x R_x = 1
      = R_x L_x;
    - the left law says L_x L_y L_x^-1 = L_{x |> y}.  Inverting both sides
      gives L_x R_y L_x^-1 = R_{x |> y}; put y = w <| x, so that x |> y =
      w, and conjugate by R_x = L_x^-1 to get R_x R_w R_x^-1 = R_{w <| x},
      which is the right law (u <| w) <| x = (u <| x) <| (w <| x);
    - x <| x = x follows from x |> x = x, which is what is_quandle reads,
      by applying R_x to both sides.
    """
    report = ValidationReport(
        f"{'quandle' if r.is_quandle else 'rack'} {r.name}")
    L, n = r.left, r.size
    report.add(grid_check(
        "x |> (y |> z) = (x |> y) |> (x |> z)", (n, n, n),
        lambda X, Y, Z: (L[X, L[Y, Z]], L[L[X, Y], L[X, Z]]), thorough))
    return report


# ---------------------------------------------------------------------------
# standard constructions
# ---------------------------------------------------------------------------


def _on_carrier(g: FiniteGroup, elems: np.ndarray, left, what: str):
    """Map the left table of parent indices, cell (i, j) computed from the
    carrier pair (elems[i], elems[j]), to carrier indices.

    The first pair in row-major order whose value leaves the carrier raises
    NotClosedError naming it.  A left-closed carrier is also right-closed,
    since each left translation is injective on a finite set.
    """
    pos = np.full(g.order, -1, dtype=np.int64)
    pos[elems] = np.arange(len(elems))
    mapped = pos[left]
    if (mapped < 0).any():
        i, j = divmod(int(np.argmax(mapped < 0)), len(elems))
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
    left = _on_carrier(g, elems, g.conj_arr(elems[:, None], elems[None, :]),
                       "subset not closed under conjugation")  # a b a^-1
    return Rack(left=left, name=f"Conj({g.name})")


def _eisermann(g: FiniteGroup, xi: int,
               carrier: str) -> tuple[np.ndarray, FiniteGroup]:
    """The left table of eisermann_quandle's twisted conjugation quandle in
    carrier indices, together with its carrier as a group (the commutator
    subgroup or g itself).

    pairs.pair_eisermann reads this table as it is and builds no Rack.  On
    the whole group the parent indices are the carrier indices, so the
    carrier remap, which could not fail there, is skipped.
    """
    if carrier == "commutator":
        base, embed = commutator_subgroup(g)
        elems = embed.mapping.astype(np.int64)
    elif carrier == "group":
        base = g
        elems = np.arange(g.order)
    else:
        raise TangleSumError(f"carrier must be 'commutator' or 'group', got {carrier!r}")
    # a |> h = (x h) (a^-1 x^-1 a), a column factor times a row factor
    left = g.mul_arr(g.mul_arr(xi, elems)[None, :],
                     g.conj_arr(g.inv_arr(elems), g.inv(xi))[:, None])
    if base is not g:
        left = _on_carrier(g, elems, left, "carrier not closed")
    return left, base


def eisermann_quandle(g: FiniteGroup, x: int,
                      carrier: str = "commutator") -> Rack:
    """The twisted conjugation quandle h <| g = x^-1 h g^-1 x g.

    The left action is g |> h = x h g^-1 x^-1 g.  `carrier` selects the
    commutator subgroup (closed since x^-1 h g^-1 x g = (x^-1 h x)[x, g])
    or the whole group.  `x` is an element index of g.  The Rack wraps the
    left table of _eisermann, which pairs.pair_eisermann reads without one.
    """
    left, _ = _eisermann(g, x, carrier)
    return Rack(left=left, name=f"Eis({g.name}, {g.label(x)})")


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
    """Read the left table a |> y (rows of comma-separated indices); a
    table above TABLE_LIMIT is refused as it is read.  The rack is named
    after its file."""
    return Rack(left=read_int_table(path), name=Path(path).name)


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
    """Check V abelian and the 2-cocycle identity; the subject names the
    kind, quandle or rack.  w(x,x) = 0 is not swept: a quandle cocycle is
    defined by it (is_quandle_cocycle), so it cannot fail on one."""
    report = ValidationReport(
        f"{'quandle' if c.is_quandle_cocycle else 'rack'} cocycle {c.name}")
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
    return report
