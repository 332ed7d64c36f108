"""Finite racks, quandles, 2-cocycles, and classical colouring invariants.

A rack is a set with two mutually inverse binary operations, written x |> y
(left action) and x <| y (right action), each self-distributive over itself:

    x |> (y <| x) = y,   (x |> y) <| x = y,
    x |> (y |> z) = (x |> y) |> (x |> z),
    (x <| y) <| z = (x <| z) <| (y <| z).

A quandle additionally has x |> x = x = x <| x.  Only one table is needed:
for a fixed acting element a the translations y -> a |> y and y -> y <| a
are mutually inverse bijections, so either determines the other.

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
import json

import numpy as np

from .algebra import GroupAlgebraElement
from .diagrams import SlicedTangleDiagram
from .errors import (
    DiagramError,
    EnhancementMismatchError,
    NotBijectiveError,
    NotClosedError,
    SizeLimitError,
    TangleSumError,
)
from .groups import FiniteGroup, commutator_subgroup
from .validation import CheckResult, ValidationReport, grid_check

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

    def __init__(self, left=None, right=None, labels=None, name: str = "R",
                 group: FiniteGroup | None = None, carrier=None,
                 x: int | None = None):
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
        self.labels = tuple(labels) if labels is not None else tuple(str(i) for i in range(n))
        if len(self.labels) != n:
            raise TangleSumError("label count does not match rack size")
        # optional provenance for racks built from a group
        self.group = group
        self.carrier = tuple(carrier) if carrier is not None else None
        self.x = x
        diag = np.arange(n, dtype=np.int64)
        self.is_quandle = bool(
            (self.left[diag, diag] == diag).all() and (self.right[diag, diag] == diag).all()
        )

    def lop(self, a: int, y: int) -> int:
        """a |> y."""
        return int(self.left[a, y])

    def rop(self, x: int, b: int) -> int:
        """x <| b."""
        return int(self.right[x, b])

    def label(self, i: int) -> str:
        return self.labels[i]

    def element_by_label(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise TangleSumError(f"no rack element labelled {label!r}") from None

    def __repr__(self) -> str:
        kind = "quandle" if self.is_quandle else "rack"
        return f"<{kind} {self.name} of size {self.size}>"

    def __eq__(self, other) -> bool:
        return (isinstance(other, Rack)
                and np.array_equal(self.left, other.left)
                and np.array_equal(self.right, other.right))

    def __hash__(self) -> int:
        return hash((self.size, self.left.tobytes()))

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "size": self.size,
            "left": self.left.tolist(),
            "labels": list(self.labels),
        }


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
        diag = np.arange(n, dtype=np.int64)
        report.add(grid_check(
            "x <| x = x = x |> x", (n,),
            lambda X: (R[X, X] * n + L[X, X], X * n + X), thorough))
    return report


def nelson_check(r: Rack) -> bool:
    """Both squaring maps x -> x |> x and x -> x <| x are bijections."""
    diag = np.arange(r.size, dtype=np.int64)
    for squares in (r.left[diag, diag], r.right[diag, diag]):
        if len(np.unique(squares)) != r.size:
            return False
    return True


# ---------------------------------------------------------------------------
# standard constructions
# ---------------------------------------------------------------------------


def conjugation_quandle(g: FiniteGroup, subset=None, name: str | None = None) -> Rack:
    """The quandle h <| g = g^-1 h g on a conjugation-closed subset.

    `subset` is an iterable of element indices (default: the whole group).
    """
    if subset is None:
        carrier = tuple(range(g.order))
    else:
        carrier = tuple(dict.fromkeys(int(i) for i in subset))
    pos = {gi: k for k, gi in enumerate(carrier)}
    m = len(carrier)
    left = np.empty((m, m), dtype=np.int64)
    right = np.empty((m, m), dtype=np.int64)
    for i, a in enumerate(carrier):
        for j, b in enumerate(carrier):
            aba = g.mul(g.mul(a, b), g.inv(a))          # a |> b = a b a^-1
            bab = g.mul(g.mul(g.inv(b), a), b)          # a <| b = b^-1 a b
            if aba not in pos or bab not in pos:
                raise NotClosedError(
                    f"subset not closed under conjugation: "
                    f"{g.label(a)} , {g.label(b)}"
                )
            left[i, j] = pos[aba]
            right[i, j] = pos[bab]
    labels = tuple(g.label(i) for i in carrier)
    return Rack(left=left, right=right, labels=labels,
                name=name or f"Conj({g.name})", group=g, carrier=carrier)


def eisermann_quandle(g: FiniteGroup, x, carrier: str = "commutator",
                      name: str | None = None) -> Rack:
    """The twisted conjugation quandle h <| g = x^-1 h g^-1 x g.

    The left action is g |> h = x h g^-1 x^-1 g.  `carrier` selects the
    commutator subgroup (closed since x^-1 h g^-1 x g = (x^-1 h x)[x, g])
    or the whole group.  `x` is an element index or label of g.
    """
    xi = g.element_by_label(x) if isinstance(x, str) else int(x)
    if carrier == "commutator":
        elems = commutator_subgroup(g)[0].parent_indices
    elif carrier == "group":
        elems = tuple(range(g.order))
    else:
        raise TangleSumError(f"carrier must be 'commutator' or 'group', got {carrier!r}")
    pos = {gi: k for k, gi in enumerate(elems)}
    m = len(elems)
    xinv = g.inv(xi)
    left = np.empty((m, m), dtype=np.int64)
    right = np.empty((m, m), dtype=np.int64)
    for i, h in enumerate(elems):
        for j, a in enumerate(elems):
            lo = g.word([xi, h, g.inv(a), xinv, a])     # h' -> x h' a^-1 x^-1 a
            ro = g.word([xinv, h, g.inv(a), xi, a])     # h  -> x^-1 h a^-1 x a
            if lo not in pos or ro not in pos:
                raise NotClosedError(
                    f"carrier not closed: {g.label(h)} , {g.label(a)}")
            left[j, i] = pos[lo]                        # left[a, h'] = a |> h'
            right[i, j] = pos[ro]                       # right[h, a] = h <| a
    labels = tuple(g.label(i) for i in elems)
    return Rack(left=left, right=right, labels=labels,
                name=name or f"Eis({g.name}, {g.label(xi)})",
                group=g, carrier=elems, x=xi)


def dihedral_quandle(n: int) -> Rack:
    """Z_n with i <| j = 2j - i, the reflection quandle."""
    if n < 2:
        raise TangleSumError(f"dihedral quandle needs n >= 2, got {n}")
    idx = np.arange(n, dtype=np.int64)
    right = (2 * idx[None, :] - idx[:, None]) % n       # right[i, j] = i <| j
    return Rack(right=right, name=f"R_{n}")


def rack_from_csv(path, side: str = "left", labels=None, name: str = "R") -> Rack:
    """Read one dense operation table (rows of comma-separated indices)."""
    rows = []
    with open(path, newline="") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            rows.append([int(part) for part in line.split(",")])
    if side == "left":
        return Rack(left=rows, labels=labels, name=name)
    if side == "right":
        return Rack(right=rows, labels=labels, name=name)
    raise TangleSumError(f"side must be 'left' or 'right', got {side!r}")


# ---------------------------------------------------------------------------
# 2-cocycles
# ---------------------------------------------------------------------------


class RackCocycle:
    """A rack 2-cocycle: weights w[x, y] in an abelian group V."""

    def __init__(self, rack: Rack, v: FiniteGroup, w, name: str = "w"):
        self.rack = rack
        self.v = v
        self.w = np.asarray(w, dtype=np.int64)
        self.name = name
        n = rack.size
        if self.w.shape != (n, n):
            raise TangleSumError(
                f"weight table shape {self.w.shape} does not match rack size {n}")
        if self.w.min() < 0 or self.w.max() >= v.order:
            raise TangleSumError("weight table entries out of range for V")

    def __repr__(self) -> str:
        return f"<cocycle {self.name} on {self.rack.name} with values in {self.v.name}>"

    def to_json(self) -> dict:
        return {"name": self.name, "rack": self.rack.to_json(),
                "v": self.v.to_json(), "table": self.w.tolist()}


def cocycle_from_function(rack: Rack, v: FiniteGroup, fn, name: str = "w") -> RackCocycle:
    """Tabulate w(x, y) = fn(x, y) (returning V indices)."""
    n = rack.size
    w = np.fromiter((fn(x, y) for x in range(n) for y in range(n)),
                    dtype=np.int64, count=n * n).reshape(n, n)
    return RackCocycle(rack, v, w, name=name)


def cocycle_from_json(rack: Rack, source, name: str | None = None) -> RackCocycle:
    """Load a cocycle from a JSON file or dict.

    Expected keys: "table" (dense rack-size square of V indices) and either
    "v_modulus" (single cyclic factor) or "v_moduli" (product of cyclics).
    """
    if isinstance(source, (str, bytes)) or hasattr(source, "read"):
        if hasattr(source, "read"):
            data = json.load(source)
        else:
            with open(source) as fh:
                data = json.load(fh)
    else:
        data = dict(source)
    from .abelian import product_of_cyclics
    from .groups import cyclic_group
    if "v_modulus" in data:
        v = cyclic_group(int(data["v_modulus"]))
    elif "v_moduli" in data:
        v = product_of_cyclics([int(m) for m in data["v_moduli"]])
    else:
        raise TangleSumError("cocycle JSON needs 'v_modulus' or 'v_moduli'")
    return RackCocycle(rack, v, data["table"], name=name or data.get("name", "w"))


def validate_cocycle(c: RackCocycle, thorough: bool = False) -> ValidationReport:
    """Check the 2-cocycle identity, V abelian, and w(x,x)=0 on quandles."""
    report = ValidationReport(f"cocycle {c.name}")
    n = c.rack.size
    R = c.rack.right
    w = c.w
    v = c.v

    abelian_violations = () if v.is_abelian else (v_abelian_witness(v),)
    report.add(CheckResult("V abelian", v.order * v.order, v.order * v.order,
                           "exhaustive", abelian_violations))
    report.add(grid_check(
        "w(x,y) + w(x<|y, z) = w(x,z) + w(x<|z, y<|z)", (n, n, n),
        lambda X, Y, Z: (v.mul_arr(w[X, Y], w[R[X, Y], Z]),
                         v.mul_arr(w[X, Z], w[R[X, Z], R[Y, Z]])),
        thorough))
    if c.rack.is_quandle:
        diag = np.arange(n, dtype=np.int64)
        report.add(grid_check(
            "w(x,x) = 0", (n,),
            lambda X: (w[X, X], np.full(len(X), v.identity, dtype=np.int64)),
            thorough))
    return report


def v_abelian_witness(v: FiniteGroup):
    """A Violation naming one non-commuting pair of V."""
    from .validation import Violation
    for a in range(v.order):
        for b in range(v.order):
            if v.mul(a, b) != v.mul(b, a):
                return Violation("V abelian", (a, b),
                                 f"{v.label(a)} and {v.label(b)} do not commute")
    raise AssertionError("no witness in an abelian group")


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


def _check_enhancement(r: Rack, enh, width: int, which: str):
    if enh is None:
        return None
    out = tuple(r.element_by_label(e) if isinstance(e, str) else int(e) for e in enh)
    if len(out) != width:
        raise EnhancementMismatchError(
            f"{which} enhancement has {len(out)} colours for {width} strands")
    for e in out:
        if not 0 <= e < r.size:
            raise EnhancementMismatchError(f"{which} colour {e} out of range")
    return out


def rack_colouring_count(d: SlicedTangleDiagram, r: Rack, top=None, bottom=None):
    """Count rack colourings of d, optionally with fixed boundary colours.

    Closed diagram: a single count.  Open diagram: an integer when both
    boundary enhancements are given, otherwise a dict keyed by the missing
    enhancement(s) containing only nonzero counts.
    """
    top = _check_enhancement(r, top, len(d.top), "top")
    bottom = _check_enhancement(r, bottom, len(d.bottom), "bottom")
    if d.is_closed:
        if top is not None or bottom is not None:
            raise EnhancementMismatchError("closed diagram takes no boundary colours")
        return sum(1 for _ in _enumerate_colourings(d, r))

    top_arcs, bottom_arcs = d.boundary_arcs()
    counts: dict = {}
    for colour in _enumerate_colourings(d, r):
        t = tuple(colour[a] for a in top_arcs)
        b = tuple(colour[a] for a in bottom_arcs)
        if top is not None and t != top:
            continue
        if bottom is not None and b != bottom:
            continue
        if top is None and bottom is None:
            key = (t, b)
        elif top is None:
            key = t
        elif bottom is None:
            key = b
        else:
            key = None
        counts[key] = counts.get(key, 0) + 1
    if top is not None and bottom is not None:
        return counts.get(None, 0)
    return counts


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
