"""The depth-first state-sum engine that the numpy sweep replaced.

Test-only reference: tests/test_engine_equivalence.py requires the sweep in
tanglesum.engine to agree with it exactly, as multisets, on random
diagrams.  Delete it once that suite has run green across one re-anchor.
"""

from __future__ import annotations

import itertools
from typing import Iterator

from tanglesum.crossed_modules import CGMorphism
from tanglesum.diagrams import DOWN, SlicedTangleDiagram
from tanglesum.engine import (
    STATE_SUM_BRANCH_CAP,
    Colouring,
    _normalise_enhancement,
)
from tanglesum.errors import SizeLimitError
from tanglesum.pairs import CrossingTransfer, ReidemeisterPair


def enumerate_colourings(d: SlicedTangleDiagram, transfer: CrossingTransfer,
                         top=None) -> Iterator[Colouring]:
    """Stream every colouring of d whose top arcs match the given colours.

    Depth-first over the slices: a cup whose arc is still blank branches
    over all of G, a crossing propagates deterministically downwards and
    prunes when it meets an arc that was already coloured through a closure.
    An arc read before its birth event (possible when a strand winds back
    upwards) is branched over as well, so the stream is always complete.
    """
    pair = transfer.pair
    group = pair.g
    n = group.order
    top_cols = _normalise_enhancement(group, d.top, top, "top")

    n_cups = sum(1 for s in d.slices if s.gen in ("cupR", "cupL"))
    if n ** n_cups > STATE_SUM_BRANCH_CAP:
        raise SizeLimitError(
            f"{n}^{n_cups} cup branches exceed the state-sum cap")

    arc_col = [-1] * len(d.arcs)
    for i, c in enumerate(top_cols):
        a = d.arc_of[(0, i)]
        if arc_col[a] >= 0 and arc_col[a] != c:
            return  # the top word itself violates an arc identification
        arc_col[a] = c

    # one event per slice that can touch colours, in top-down order
    events: list[tuple[str, object]] = []
    xrows = {c.row: k for k, c in enumerate(d.crossings)}
    for r, s in enumerate(d.slices):
        if s.gen in ("X+", "X-"):
            events.append(("x", d.crossings[xrows[r]]))
        elif s.gen in ("cupR", "cupL"):
            events.append(("cup", d.arc_of[(r + 1, s.pos)]))

    xcols = [0] * len(d.crossings)

    def descend(k: int) -> Iterator[Colouring]:
        if k == len(events):
            yield Colouring(d, pair, tuple(arc_col), tuple(xcols))
            return
        kind, data = events[k]
        if kind == "cup":
            a = data
            if arc_col[a] >= 0:
                yield from descend(k + 1)
            else:
                for c in range(n):
                    arc_col[a] = c
                    yield from descend(k + 1)
                arc_col[a] = -1
            return
        c = data
        over_free = arc_col[c.over_arc] < 0
        for x in (range(n) if over_free else (arc_col[c.over_arc],)):
            if over_free:
                arc_col[c.over_arc] = x
            in_free = arc_col[c.under_in_arc] < 0
            for z in (range(n) if in_free else (arc_col[c.under_in_arc],)):
                if in_free:
                    arc_col[c.under_in_arc] = z
                if c.sign > 0:
                    y = transfer.under_out_plus(x, z)
                    e = pair.psi_at(x, y)
                else:
                    y = transfer.under_out_minus(x, z)
                    e = pair.phi_at(x, y)
                out_free = arc_col[c.under_out_arc] < 0
                if out_free:
                    arc_col[c.under_out_arc] = y
                if arc_col[c.under_out_arc] == y:
                    xcols[xrows[c.row]] = e
                    yield from descend(k + 1)
                if out_free:
                    arc_col[c.under_out_arc] = -1
                if in_free:
                    arc_col[c.under_in_arc] = -1
            if over_free:
                arc_col[c.over_arc] = -1

    yield from descend(0)


# ----------------------------------------------------------------------
# evaluation
# ----------------------------------------------------------------------


def evaluate(col: Colouring) -> CGMorphism:
    """Composite categorical-group morphism of a coloured diagram."""
    d, pair = col.diagram, col.pair
    xmod = pair.xmod
    group, egrp = xmod.g, xmod.e
    arc = col.arc_colours

    src = group.identity
    for i, o in enumerate(d.top):
        c = arc[d.arc_of[(0, i)]]
        src = group.mul(src, c if o == DOWN else group.inv(c))

    xrows = {c.row: k for k, c in enumerate(d.crossings)}
    elt = egrp.identity
    for r, s in enumerate(d.slices):
        if s.gen not in ("X+", "X-"):
            continue
        w = d.words[r]
        prefix = group.identity
        for q in range(s.pos):
            cq = arc[d.arc_of[(r, q)]]
            prefix = group.mul(prefix, cq if w[q] == DOWN else group.inv(cq))
        e = xmod.act(prefix, col.crossing_colours[xrows[r]])
        elt = egrp.mul(e, elt)
    return CGMorphism(xmod, src, elt)


def reference_matrix(d: SlicedTangleDiagram, pair: ReidemeisterPair) -> dict:
    """{(top, bottom): {E element: count}} over every top enhancement."""
    _, bot_arcs = d.boundary_arcs()
    out: dict[tuple, dict[int, int]] = {}
    for top in itertools.product(range(pair.g.order), repeat=len(d.top)):
        for col in enumerate_colourings(d, pair.transfer(), top):
            key = (top, tuple(col.arc_colours[a] for a in bot_arcs))
            terms = out.setdefault(key, {})
            elt = evaluate(col).elt
            terms[elt] = terms.get(elt, 0) + 1
    return out
