"""State sums of sliced tangle diagrams over a Reidemeister pair.

A Reidemeister pair (psi, phi) over a crossed module (bd: E -> G, |>)
colours diagrams: arcs carry elements of G, crossings carry elements of E.
At a positive crossing with overstrand X, under-colours Z (in) and Y (out)
are linked by Z = bd(psi(X, Y))^-1 X Y X^-1, and the crossing carries
psi(X, Y); at a negative crossing Z = X^-1 bd(phi(X, Y))^-1 Y X and the
crossing carries phi(X, Y).  Cups and caps force equal colours on their two
legs.

Going downwards both constraints solve uniquely for Y, so a diagram
compiles once into an integer event program: a branch event for each arc
whose first read finds it uncoloured (the arc born at a cup), and a
crossing event that computes the outgoing under-colour, or checks it when
a closure coloured that arc earlier.  The program runs as one numpy sweep
over a frontier of partial colourings, one row each: a branch repeats
every row once per colour of G, a crossing indexes the pair's tables with
whole columns and drops the rows it contradicts.  The frontier is
processed depth-first in slices of at most SWEEP_CHUNK_ROWS rows, so
memory stays bounded however many branches the program has.

A coloured diagram evaluates to a morphism of the categorical group of the
crossed module: a slice whose crossing sits at position p with colour e
contributes u |> e, where u is the product of the colours left of p on the
level above (upward strands inverted), and slices compose downwards, the
composite of (U, e) with a following (V, f) being (U, f e).  The sweep
folds this E-element at each crossing event.  The source is the evaluation
of the top enhancement; the boundary identity

    bd(elt) * e(top colours) = e(bottom colours)

holds for every colouring and makes the bottom evaluation redundant.

The invariant of a diagram with a fixed top enhancement is the bag of
morphism elements, bucketed by the bottom enhancement.  No normalisation is
applied and values are compared as exact multisets.

The module also provides three independent cross-checks: a Wirtinger-style
counting invariant of closed diagrams that needs no pair at all, longitude
words of string knots, and the framed abelianisation invariant, which the
tensor-square pair must reproduce as a sum of (f(m) (x) f(m))^writhe over
homomorphisms f out of the knot group.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, NamedTuple

import numpy as np

from .algebra import GroupAlgebraElement
from .crossed_modules import (
    CGMorphism,
    CrossedModule,
    abelianisation_tensor_2xmod,
)
from .diagrams import DOWN, Enhancement, SlicedTangleDiagram
from .errors import (
    DiagramError,
    EnhancementMismatchError,
    MultiComponentError,
    NonComposableError,
    NotClosedError,
    SizeLimitError,
    TangleSumError,
)
from .pairs import CrossingTransfer, ReidemeisterPair, pair_from_2xmod
from .racks import conjugation_quandle, _enumerate_colourings as _rack_colourings
from .validation import SAMPLE_SEED

STATE_SUM_BRANCH_CAP = 5_000_000
SWEEP_CHUNK_ROWS = 2 ** 16


# ----------------------------------------------------------------------
# compiled event programs
# ----------------------------------------------------------------------


class CrossingEvent(NamedTuple):
    """One crossing of a compiled program, in arc indices.

    out_known: the outgoing under-arc was coloured by an earlier event, so
    the crossing checks its colour instead of assigning it.  prefix: the
    arcs left of the crossing on the level above, each with True where the
    strand runs upwards.
    """

    sign: int
    over: int
    under_in: int
    under_out: int
    out_known: bool
    prefix: tuple[tuple[int, bool], ...]


class EventProgram(NamedTuple):
    """A diagram compiled for the sweep.

    events holds, in top-down order, an arc index for each branch event and
    a CrossingEvent for each crossing.
    """

    n_arcs: int
    top_arcs: tuple[int, ...]
    bottom_arcs: tuple[int, ...]
    events: tuple

    @property
    def branch_arcs(self) -> tuple[int, ...]:
        return tuple(ev for ev in self.events if isinstance(ev, int))


def compile_program(d: SlicedTangleDiagram, coloured=()) -> EventProgram:
    """Compile d, given colours on its top arcs and on the arcs in coloured.

    Every arc a crossing reads (over, incoming under, prefix) or a cup
    creates gets a branch event the first time it is met uncoloured.
    """
    top_arcs, bottom_arcs = d.boundary_arcs()
    known = set(top_arcs) | set(coloured)
    events: list = []

    def read(a: int) -> None:
        if a not in known:
            known.add(a)
            events.append(a)

    crossings = iter(d.crossings)
    for r, s in enumerate(d.slices):
        if s.gen in ("cupR", "cupL"):
            read(d.levels[r + 1][s.pos])
        elif s.gen in ("X+", "X-"):
            c = next(crossings)
            prefix = tuple(zip(d.levels[r][:s.pos],
                               (o != DOWN for o in d.words[r])))
            for a in (c.over_arc, c.under_in_arc, *(a for a, _ in prefix)):
                read(a)
            events.append(CrossingEvent(c.sign, c.over_arc, c.under_in_arc,
                                        c.under_out_arc,
                                        c.under_out_arc in known, prefix))
            known.add(c.under_out_arc)
    return EventProgram(d.n_arcs, top_arcs, bottom_arcs, tuple(events))


def _seed(prog: EventProgram, tops: np.ndarray) -> np.ndarray:
    """Frontier rows for the top colour tuples in tops (one per row).

    A row whose colours differ on an arc met twice along the top violates
    the arc identification and is dropped.
    """
    rows = np.zeros((len(tops), prog.n_arcs), dtype=np.int32)
    keep = np.ones(len(tops), dtype=bool)
    first: dict[int, int] = {}
    for i, a in enumerate(prog.top_arcs):
        if a in first:
            keep &= tops[:, i] == tops[:, first[a]]
        else:
            first[a] = i
            rows[:, a] = tops[:, i]
    return rows[keep]


def _sweep(prog: EventProgram, transfer: CrossingTransfer,
           rows: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Run prog over the frontier rows; return the finished chunks.

    Each chunk is (colours, elt): an int32 array of complete arc colourings,
    one per row, and the E-element each one folds to.  The branch cap and
    the dense tables are checked here, before any work.
    """
    pair = transfer.pair
    n = pair.g.order
    branches = prog.branch_arcs
    if n ** len(branches) > STATE_SUM_BRANCH_CAP:
        raise SizeLimitError(
            f"{n}^{len(branches)} branches (on arcs {list(branches)}) exceed "
            f"the state-sum cap of {STATE_SUM_BRANCH_CAP}")
    tables = (pair.g.table, pair.g.inv_table, pair.e.table, pair.xmod.action,
              transfer.fplus, transfer.fminus, pair.psi, pair.phi)
    elt = np.full(len(rows), pair.e.identity, dtype=np.int32)
    return _run(prog.events, tables, n, rows, elt)


def _run(events, tables, n: int, rows, elt):
    # depth-first over tasks (event, rows, elt, colours): colours, if set,
    # are the values that the branch event k gives each row
    g_mul, g_inv, e_mul, act, fplus, fminus, psi, phi = tables
    colours = np.arange(n, dtype=np.int32)
    step = SWEEP_CHUNK_ROWS
    stack = [(0, rows[lo:lo + step], elt[lo:lo + step], None)
             for lo in reversed(range(0, len(elt), step))]
    while stack:
        k, rows, elt, branch = stack.pop()
        if branch is not None:
            # rows are shared with sibling tasks: repeat copies them
            rows = np.repeat(rows, len(branch), axis=0)
            rows[:, events[k]] = np.tile(branch, len(elt))
            elt = np.repeat(elt, len(branch))
            k += 1
        while k < len(events) and len(elt) and not isinstance(events[k], int):
            ev = events[k]
            x, z = rows[:, ev.over], rows[:, ev.under_in]
            if ev.sign > 0:
                y = fminus[x, z]
                e = psi[x, y]
            else:
                y = fplus[x, z]
                e = phi[x, y]
            if ev.out_known:
                keep = rows[:, ev.under_out] == y
                rows, elt, e = rows[keep], elt[keep], e[keep]
            else:
                rows[:, ev.under_out] = y
            prefix = None
            for a, up in ev.prefix:
                c = g_inv[rows[:, a]] if up else rows[:, a]
                prefix = c if prefix is None else g_mul[prefix, c]
            if prefix is not None:
                e = act[prefix, e]
            elt = e_mul[e, elt]
            k += 1
        if not len(elt):
            continue
        if k == len(events):
            yield rows, elt
            continue
        # a branch event: split the colours so no chunk exceeds step rows
        per = max(1, step // len(elt))
        for lo in reversed(range(0, n, per)):
            stack.append((k, rows, elt, colours[lo:lo + per]))


def _state_sum(d: SlicedTangleDiagram, pair: ReidemeisterPair,
               tops: np.ndarray) -> dict:
    """{(top, bottom): {E element: count}} over the colourings of d whose
    top colours are a row of tops, sorted by key."""
    prog = compile_program(d)
    k = len(prog.top_arcs)
    keys = list(prog.top_arcs + prog.bottom_arcs)
    out: dict[tuple, dict[int, int]] = {}
    for rows, elt in _sweep(prog, pair.transfer(), _seed(prog, tops)):
        key = np.ascontiguousarray(np.column_stack([rows[:, keys], elt]))
        # one opaque scalar per row: far faster than np.unique(axis=0)
        flat = key.view(np.dtype((np.void, key.strides[0]))).ravel()
        _, first, counts = np.unique(flat, return_index=True,
                                     return_counts=True)
        for row, count in zip(key[first].tolist(), counts.tolist()):
            terms = out.setdefault((tuple(row[:k]), tuple(row[k:-1])), {})
            terms[row[-1]] = terms.get(row[-1], 0) + count
    return dict(sorted(out.items()))


# ----------------------------------------------------------------------
# single colourings
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Colouring:
    """One solution of the crossing constraints on a sliced diagram.

    arc_colours[i] is the G-colour of arc i; crossing_colours[k] is the
    E-colour of d.crossings[k].
    """

    diagram: SlicedTangleDiagram = field(compare=False)
    pair: ReidemeisterPair = field(compare=False)
    arc_colours: tuple[int, ...] = ()
    crossing_colours: tuple[int, ...] = ()

    def top_colours(self) -> tuple[int, ...]:
        tops, _ = self.diagram.boundary_arcs()
        return tuple(self.arc_colours[a] for a in tops)

    def bottom_colours(self) -> tuple[int, ...]:
        _, bots = self.diagram.boundary_arcs()
        return tuple(self.arc_colours[a] for a in bots)

    def __repr__(self) -> str:
        g = self.pair.g
        cols = ", ".join(g.label(c) for c in self.arc_colours)
        return f"<colouring [{cols}]>"


def _normalise_enhancement(group, orientations, value, which: str):
    """Accept an Enhancement, a tuple of indices or labels, or None."""
    if value is None:
        if orientations:
            raise EnhancementMismatchError(
                f"{which} enhancement required for a boundary of width "
                f"{len(orientations)}")
        return ()
    if isinstance(value, Enhancement):
        if value.orientations != tuple(orientations):
            raise EnhancementMismatchError(
                f"{which} orientations {value.orientations} do not match the "
                f"diagram's {tuple(orientations)}")
        value = value.elements
    out = tuple(group.element_by_label(v) if isinstance(v, str) else int(v)
                for v in value)
    if len(out) != len(orientations):
        raise EnhancementMismatchError(
            f"{which} enhancement has {len(out)} colours for "
            f"{len(orientations)} strands")
    for v in out:
        if not 0 <= v < group.order:
            raise EnhancementMismatchError(f"{which} colour {v} out of range")
    return out


def _one_top(top_cols) -> np.ndarray:
    return np.array([top_cols], dtype=np.int32).reshape(1, len(top_cols))


def enumerate_colourings(d: SlicedTangleDiagram, transfer: CrossingTransfer,
                         top=None) -> Iterator[Colouring]:
    """Stream every colouring of d whose top arcs match the given colours.

    A view of the sweep for callers that inspect single colourings; the
    crossing colours are read back off the arc colours.
    """
    pair = transfer.pair
    top_cols = _normalise_enhancement(pair.g, d.top, top, "top")
    prog = compile_program(d)
    for rows, _ in _sweep(prog, transfer, _seed(prog, _one_top(top_cols))):
        for arcs in rows.tolist():
            xs = ((pair.psi_at if c.sign > 0 else pair.phi_at)(
                      arcs[c.over_arc], arcs[c.under_out_arc])
                  for c in d.crossings)
            yield Colouring(d, pair, tuple(arcs), tuple(xs))


def evaluate(col: Colouring) -> CGMorphism:
    """Composite categorical-group morphism of a coloured diagram."""
    d, pair = col.diagram, col.pair
    prog = compile_program(d, coloured=range(d.n_arcs))
    rows = np.array([col.arc_colours], dtype=np.int32)
    chunks = list(_sweep(prog, pair.transfer(), rows))
    if not chunks:
        raise TangleSumError(f"{col!r} violates a crossing constraint")
    src = Enhancement(d.top, col.top_colours()).evaluation(pair.g)
    return CGMorphism(pair.xmod, src, int(chunks[0][1][0]))


# ----------------------------------------------------------------------
# the invariant
# ----------------------------------------------------------------------


@dataclass
class InvariantValue:
    """Unnormalised state sum for one (top, bottom) enhancement pair.

    terms maps E-element indices to multiplicities; every term satisfies
    bd(element) * e(source) = e(target).
    """

    pair: ReidemeisterPair = field(compare=False)
    source: Enhancement = Enhancement((), ())
    target: Enhancement = Enhancement((), ())
    terms: dict = field(default_factory=dict)

    def algebra(self) -> GroupAlgebraElement:
        return GroupAlgebraElement(self.pair.e, self.terms)

    @property
    def total(self) -> int:
        return sum(self.terms.values())

    def check_boundary(self) -> bool:
        xmod = self.pair.xmod
        group = xmod.g
        lhs_base = self.source.evaluation(group)
        rhs = self.target.evaluation(group)
        bnd = xmod.boundary.mapping
        return all(group.mul(int(bnd[e]), lhs_base) == rhs for e in self.terms)

    def display(self) -> str:
        return self.algebra().display()

    __str__ = display

    def to_json(self) -> dict:
        egrp = self.pair.e
        group = self.pair.g
        return {
            "source": {
                "orientations": list(self.source.orientations),
                "elements": [group.label(c) for c in self.source.elements],
            },
            "target": {
                "orientations": list(self.target.orientations),
                "elements": [group.label(c) for c in self.target.elements],
            },
            "terms": [{"element_label": egrp.label(e), "count": self.terms[e]}
                      for e in sorted(self.terms)],
        }

    def __repr__(self) -> str:
        return f"InvariantValue({self.display()})"



def _bucketed(d: SlicedTangleDiagram, pair: ReidemeisterPair,
              top_cols) -> dict:
    """Bottom colour tuple -> {E element: count} over all colourings."""
    return {bot: terms for (_, bot), terms
            in _state_sum(d, pair, _one_top(top_cols)).items()}


def invariant(d: SlicedTangleDiagram, pair: ReidemeisterPair, top=None,
              bottom="all"):
    """State sum of d with the given top enhancement.

    Closed diagram: a single InvariantValue with empty boundary words.
    Open diagram: a map {bottom colour tuple: InvariantValue} when bottom
    is "all" (or None), else the single InvariantValue at that bottom,
    possibly with no terms.
    """
    group = pair.g
    top_cols = _normalise_enhancement(group, d.top, top, "top")
    src = Enhancement(d.top, top_cols)
    buckets = _bucketed(d, pair, top_cols)

    if d.is_closed:
        terms = buckets.get((), {})
        return InvariantValue(pair, src, Enhancement((), ()), terms)

    if bottom is None or (isinstance(bottom, str) and bottom == "all"):
        return {
            bot: InvariantValue(pair, src, Enhancement(d.bottom, bot), terms)
            for bot, terms in sorted(buckets.items())
        }
    bot_cols = _normalise_enhancement(group, d.bottom, bottom, "bottom")
    return InvariantValue(pair, src, Enhancement(d.bottom, bot_cols),
                          buckets.get(bot_cols, {}))


def invariant_matrix(d: SlicedTangleDiagram, pair: ReidemeisterPair,
                     top_cap: int = 4096) -> dict:
    """Full matrix {(top, bottom): terms} over every top enhancement.

    Intended for small boundaries, e.g. to compare diagrams related by a
    move; keys with no colourings are omitted.  Every top enhancement
    seeds one row of a single sweep.
    """
    k = len(d.top)
    n = pair.g.order
    if n ** k > top_cap:
        raise SizeLimitError(f"{n}^{k} top enhancements exceed {top_cap}")
    tops = np.array(list(itertools.product(range(n), repeat=k)),
                    dtype=np.int32).reshape(n ** k, k)
    return _state_sum(d, pair, tops)



# ----------------------------------------------------------------------
# Wirtinger counting invariant
# ----------------------------------------------------------------------


def wirtinger_count(d: SlicedTangleDiagram, xmod: CrossedModule) -> Fraction:
    """Normalised count of crossed-module colourings of a closed diagram.

    Arc colours range over all of G unconstrained; each crossing asks for an
    E-element whose boundary equals the Wirtinger relator (over * out *
    over^-1 * in^-1 at positive crossings, out * over * in^-1 * over^-1 at
    negative ones), contributing the number of such elements.  The total is
    divided by #G^#arcs.  Boundary-identity crossed modules always give 1.
    """
    if not d.is_closed:
        raise NotClosedError("the counting invariant needs a closed diagram")
    group = xmod.g
    n = group.order
    n_arcs = d.n_arcs
    if n ** n_arcs > STATE_SUM_BRANCH_CAP:
        raise SizeLimitError(
            f"{n}^{n_arcs} arc colourings exceed the state-sum cap")
    image = frozenset(xmod.boundary.image())
    ker = len(xmod.boundary.kernel())
    cons = [(c.sign, c.over_arc, c.under_in_arc, c.under_out_arc)
            for c in d.crossings]
    total = 0
    for colour in itertools.product(range(n), repeat=n_arcs):
        weight = 1
        for sign, ov, ui, uo in cons:
            o, i, u = colour[ov], colour[ui], colour[uo]
            if sign > 0:
                rel = group.word((o, u, group.inv(o), group.inv(i)))
            else:
                rel = group.word((u, o, group.inv(i), group.inv(o)))
            if rel in image:
                weight *= ker
            else:
                weight = 0
                break
        total += weight
    return Fraction(total, n ** n_arcs)


# ----------------------------------------------------------------------
# longitudes
# ----------------------------------------------------------------------


def _check_string(d: SlicedTangleDiagram) -> None:
    if d.is_closed or d.top != (DOWN,) or d.bottom != (DOWN,):
        raise DiagramError(
            "longitudes are defined for string diagrams with one downward "
            "strand at top and bottom")
    if d.component_count() != 1:
        raise MultiComponentError(
            f"string diagram has {d.component_count()} components")


def longitude_word(d: SlicedTangleDiagram) -> tuple[tuple[int, int], ...]:
    """Longitude of a string knot as (arc, exponent) letters.

    Walking the strand from the top, the i-th undercrossing with sign s,
    incoming under-arc a and over-arc b appends a^-s b^s.  The word lives in
    the free group on the arcs and has zero total exponent at each crossing.
    """
    _check_string(d)
    word: list[tuple[int, int]] = []
    for c, _, _ in d.traverse_strand((0, 0, DOWN)):
        word.append((c.under_in_arc, -c.sign))
        word.append((c.over_arc, c.sign))
    return tuple(word)


def longitude_value(d: SlicedTangleDiagram, colours, group) -> int:
    """Evaluate the longitude word under an arc colouring in a group."""
    out = group.identity
    for arc, exp in longitude_word(d):
        out = group.mul(out, group.power(colours[arc], exp))
    return out


# ----------------------------------------------------------------------
# functoriality check
# ----------------------------------------------------------------------


def tqft_compose_check(d1: SlicedTangleDiagram, d2: SlicedTangleDiagram,
                       pair: ReidemeisterPair, tops=None,
                       sample: int = 12) -> bool:
    """Does the invariant of d1 stacked on d2 factor through the middle?

    Compares, for each top enhancement of d1, the bucketed state sum of the
    composite with the convolution of the two factors over all middle
    enhancements.  Checks every top when the boundary is small, otherwise a
    fixed-seed sample.
    """
    if d1.bottom != d2.top:
        raise NonComposableError(
            f"cannot compose: bottom {d1.bottom} != top {d2.top}")
    d = d1.then(d2)
    group = pair.g
    egrp = pair.e
    k = len(d1.top)
    if tops is None:
        if group.order ** k <= 2048:
            tops = list(itertools.product(range(group.order), repeat=k))
        else:
            rng = random.Random(SAMPLE_SEED)
            tops = [tuple(rng.randrange(group.order) for _ in range(k))
                    for _ in range(sample)]
    for top in tops:
        lhs = {b: t for b, t in _bucketed(d, pair, top).items() if t}
        rhs: dict[tuple[int, ...], dict[int, int]] = {}
        for mid, upper in _bucketed(d1, pair, top).items():
            for bot, lower in _bucketed(d2, pair, mid).items():
                acc = rhs.setdefault(bot, {})
                for e1, c1 in upper.items():
                    for e2, c2 in lower.items():
                        key = egrp.mul(e2, e1)
                        acc[key] = acc.get(key, 0) + c1 * c2
        rhs = {b: t for b, t in rhs.items() if t}
        if lhs != rhs:
            return False
    return True


# ----------------------------------------------------------------------
# framed abelianisation invariant
# ----------------------------------------------------------------------


class AbelianisationComparison(NamedTuple):
    engine: GroupAlgebraElement
    direct: GroupAlgebraElement


def abelianisation_framed_invariant(d: SlicedTangleDiagram,
                                    group) -> AbelianisationComparison:
    """Tensor-square state sum of a closed knot diagram, both ways.

    engine: the state sum over the pair of the abelianisation 2-crossed
    module.  direct: the sum over conjugation colourings (equivalently,
    homomorphisms f from the knot group to G) of (f(m) (x) f(m))^writhe in
    the tensor square of G^ab, with m any meridian.  The two must agree.
    """
    if not d.is_closed:
        raise NotClosedError("the framed comparison needs a closed diagram")
    if d.component_count() != 1:
        raise MultiComponentError(
            "the meridian-based sum needs a single component")
    t2 = abelianisation_tensor_2xmod(group)
    p = pair_from_2xmod(t2)
    engine = invariant(d, p).algebra()

    ts = t2.tensor_square
    proj = t2.abelianisation
    tgrp = ts.group
    tw = d.writhe
    counts: dict[int, int] = {}
    for colour in _rack_colourings(d, conjugation_quandle(group)):
        ab = int(proj.mapping[colour[0]])
        elt = tgrp.power(ts.pure(ab, ab), tw)
        counts[elt] = counts.get(elt, 0) + 1
    direct = GroupAlgebraElement(tgrp, counts)
    if engine.group is not direct.group:
        raise TangleSumError("tensor-square groups diverged")  # pragma: no cover
    return AbelianisationComparison(engine, direct)
