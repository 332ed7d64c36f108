"""State sums of sliced tangle diagrams over a Reidemeister pair.

A Reidemeister pair (psi, phi) over a crossed module (bd: E -> G, |>)
colours diagrams: arcs carry elements of G, crossings carry elements of E.
At a positive crossing with overstrand X, under-colours Z (in) and Y (out)
are linked by Z = bd(psi(X, Y))^-1 X Y X^-1, and the crossing carries
psi(X, Y); at a negative crossing Z = X^-1 bd(phi(X, Y))^-1 Y X and the
crossing carries phi(X, Y).  Cups and caps force equal colours on their two
legs.

Given the over-colour, both constraints solve uniquely for either
under-colour from the other (the transfer tables fplus and fminus are
mutually inverse bijections), so colours propagate down and up through
crossings, and a sum can be seeded on either boundary: the ket reading
fixes the top colours, the bra reading the bottom ones.  A diagram
compiles once per seeded boundary into an integer event program, cached
on the diagram's content (top word, slices, seeded boundary) in an LRU of
PROGRAM_CACHE_SIZE programs: sweeps that hold a diagram fixed and vary the
pair compile it once, and a cache hit never builds its arc table.  A
planner picks a small set of seed arcs from which the two rules colour
every arc not on the seeded boundary; each seed is a branch event, placed
where it is first needed.  The planner returns the seeds alone, and the
compiler replays their closure once to learn how every other arc is
derived.  The program runs as one numpy sweep over an intp frontier of
partial colourings, one row each, in two passes, reading the pair's own
tables by name: fplus and fminus in the colour pass; psi, phi, the
tables of G and E and the action in the E-pass.  The colour pass carries
G-colours alone and has two kinds of event: a branch repeats every row
once per colour of G, and a step gathers one colour at (over, src) from
fplus or fminus and either writes it to arc dst or drops the rows where
dst holds another.  A step applies one crossing's relation, ahead of the
crossing (deriving either under-colour from the other) or at it
(deriving or checking the outgoing one), and a crossing whose relation a
step already applied gets no step of its own.  A colouring is fixed by
its G-colours, so the E-pass runs on each finished chunk alone: it walks
the program's folds, one per crossing, top down, reads each E-colour
from psi (X+) or phi (X-) at (over, under_out), and folds the product
into the frontier's last column, so no E-element is computed for a row a
later check drops.  The frontier is processed depth-first in slices of at
most SWEEP_CHUNK_ROWS rows, so memory stays bounded however many branches
the program has.  Finished rows are bucketed by their boundary colours and
E-element in one collections.Counter, which costs far less than numpy
set-up on the few rows a small diagram yields.

A coloured diagram evaluates to a morphism of the categorical group of the
crossed module: a slice whose crossing sits at position p with colour e
contributes u |> e, where u is the product of the colours left of p on the
level above (upward strands inverted), and slices compose downwards, the
composite of (U, e) with a following (V, f) being (U, f e).  The E-pass
folds this E-element, crossing by crossing.  The source is the evaluation
of the top enhancement; the boundary identity

    bd(elt) * e(top colours) = e(bottom colours)

holds for every colouring and makes the bottom evaluation redundant.

The invariant of a diagram with a fixed top enhancement is the bag of
morphism elements, bucketed by the bottom enhancement; with a fixed bottom
enhancement it is bucketed by the top one, from one sum seeded on the
bottom.  No normalisation is applied and values are compared as exact
multisets.  invariant_matrix keeps its last matrix in one slot keyed on
the program and the pair, which the slot holds weakly, so a move neighbour
that compiles to its base's program, as nearly half of them do, is not
summed again, and a pair its caller drops is freed at once.

tqft_compose_check checks that a stack of two diagrams sums to the
convolution of its factors; the naive oracles the sums must agree with
live in tests/oracles.py, apart from this module.
"""

from __future__ import annotations

import functools
import random
import threading
import weakref
from collections import Counter, OrderedDict
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

import numpy as np

from .algebra import GroupAlgebraElement
from .crossed_modules import CGMorphism
from .diagrams import UP, Enhancement, SlicedTangleDiagram
from .errors import (
    EnhancementMismatchError,
    NonComposableError,
    SizeLimitError,
)
from .pairs import CrossingTransfer, ReidemeisterPair
from .validation import SAMPLE_SEED

STATE_SUM_BRANCH_CAP = 5_000_000
MATRIX_TOP_CAP = 4096
SWEEP_CHUNK_ROWS = 2 ** 16
PROGRAM_CACHE_SIZE = 4096
COMPOSE_TOP_CAP = 2048
COMPOSE_SAMPLE = 12


# ----------------------------------------------------------------------
# compiled event programs
# ----------------------------------------------------------------------


class Step(NamedTuple):
    """Colour arc dst as f[over colour, src colour], f = fplus if plus else
    fminus, or, with check set, drop the rows where an earlier event
    coloured dst otherwise.  A step applies one crossing's relation: it
    derives a crossing's outgoing under-colour from the incoming one
    (fminus at X+, fplus at X-), or the incoming one from the outgoing one
    (the inverse table), or checks the outgoing one."""

    plus: bool
    check: bool
    over: int
    src: int
    dst: int


class Fold(NamedTuple):
    """One crossing of the E-pass, in arc indices: its E-colour is read at
    (over, under_out) from psi (X+) or phi (X-).  prefix: the arcs left of
    the crossing on the level above, each with True where the strand runs
    upwards."""

    sign: int
    over: int
    under_out: int
    prefix: tuple[tuple[int, bool], ...]


class EventProgram(NamedTuple):
    """A diagram compiled for the sweep.

    events holds an arc index for each branch event and a Step for every
    other colour-pass action; folds holds one Fold per crossing, in
    top-down order.  seed_arcs are the boundary arcs that _sweep colours
    first, top_arcs or bottom_arcs; seed_repeats is True when some arc is
    met twice along that boundary.  branch_arcs are the planned seed arcs,
    in the order the program branches on them.
    """

    n_arcs: int
    top_arcs: tuple[int, ...]
    bottom_arcs: tuple[int, ...]
    events: tuple
    folds: tuple[Fold, ...]
    branch_arcs: tuple[int, ...]
    seed_arcs: tuple[int, ...]
    seed_repeats: bool


def _closure(known: int, new, touching, how=None) -> int:
    """known | new closed under the crossing relations, as an arc bitmask.

    known must be closed already.  touching[a] lists (crossing, over, in,
    out) for each crossing that arc a takes part in.  With its over-colour
    known, a crossing's relation colours its outgoing under-arc from the
    incoming one and back.  how, if given, records (crossing, upwards) for
    each arc derived here.
    """
    stack = list(new)
    for a in stack:
        known |= 1 << a
    while stack:
        for k, o, i, u in touching[stack.pop()]:
            if not known >> o & 1:
                continue
            if not known >> i & 1:
                if not known >> u & 1:
                    continue
                a, up = i, True
            elif not known >> u & 1:
                a, up = u, False
            else:
                continue
            known |= 1 << a
            stack.append(a)
            if how is not None:
                how[a] = (k, up)
    return known


def _plan_seeds(n_arcs: int, known, rules, touching) -> list[int]:
    """Seed arcs whose closure with known is every arc.

    rules lists (crossing, over, in, out), and touching[a] the rules arc a
    takes part in.  A max-gain greedy pass picks the seeds, then a prune
    drops each seed the others still cover; the count is the least
    possible on every catalog diagram and its move neighbours.  Only the
    seeds are returned: _compile replays the closure to learn how each
    other arc is derived.
    """
    full = (1 << n_arcs) - 1
    base = mask = _closure(0, known, touching)
    seeds = []
    while mask != full:
        # only an arc that lets some crossing fire gains more than itself:
        # the under-arcs of a crossing whose over-colour is known, or an
        # over-arc that would make one of its under-arcs follow the other
        fire = set()
        for _, o, i, u in rules:
            if mask >> o & 1:
                if i != u and not mask >> i & 1:
                    fire.add(i)
                    fire.add(u)
            elif (o == i or mask >> i & 1) != (o == u or mask >> u & 1):
                fire.add(o)
        if fire:
            # a candidate inside the closure of one already tried gains no
            # more than it, so it is skipped
            best = tried = mask
            for a in sorted(fire):
                if not tried >> a & 1:
                    m = _closure(mask, (a,), touching)
                    tried |= m
                    if m.bit_count() > best.bit_count():
                        seed, best = a, m
                        if m == full:
                            break
            mask = best
        else:
            free = full & ~mask
            seed = (free & -free).bit_length() - 1
            mask |= 1 << seed
        seeds.append(seed)
    # the last seed is never redundant: the others close to the mask
    # before it
    for s in seeds[:-1]:
        rest = [t for t in seeds if t != s]
        if _closure(base, rest, touching) == full:
            seeds = rest
    return seeds


_PROGRAMS: OrderedDict = OrderedDict()  # content key -> program, LRU first
_PROGRAMS_LOCK = threading.Lock()


def compile_program(d: SlicedTangleDiagram,
                    from_bottom: bool = False) -> EventProgram:
    """Compile d, given colours on its top arcs, or on its bottom arcs when
    from_bottom is set.

    Programs are cached on the diagram's content, (top, slices,
    from_bottom), never on the diagram object, so equal diagrams built
    separately share one program and a hit never builds the arc table.
    The cache keeps the PROGRAM_CACHE_SIZE most recently used programs;
    compile_program.cache_clear() empties it.
    """
    key = (d.top, d.slices, bool(from_bottom))
    with _PROGRAMS_LOCK:
        prog = _PROGRAMS.get(key)
        if prog is not None:
            _PROGRAMS.move_to_end(key)
            return prog
    prog = _compile(d, key[2])
    with _PROGRAMS_LOCK:
        _PROGRAMS[key] = prog
        if len(_PROGRAMS) > PROGRAM_CACHE_SIZE:
            _PROGRAMS.popitem(last=False)
    return prog


def _clear_programs() -> None:
    # under the lock, so no clear falls between a hit's get and move_to_end
    with _PROGRAMS_LOCK:
        _PROGRAMS.clear()


compile_program.cache_clear = _clear_programs


def _compile(d: SlicedTangleDiagram, from_bottom: bool) -> EventProgram:
    """The uncached compile behind compile_program.

    The seeded boundary, top or bottom, is known.  _plan_seeds picks the
    seed arcs: with them every arc follows from the crossing relations,
    each of which, given the over-colour, fixes the outgoing under-colour
    from the incoming one and the incoming one from the outgoing one.
    Seeds are the only branch events.  Replaying the closure of the
    seeded boundary seed by seed, in the planner's order, records the
    crossing and direction that derive every other arc, once.
    Crossings are walked top down, and each appends its Fold, so the folds
    keep the order the E-pass needs.  Before a crossing, every arc it
    reads is made ready, a seed by branching and any other arc by a
    derive step, as late as possible.  The crossing then gets a step that
    derives its outgoing under-colour if that is still uncoloured, or
    checks it otherwise, unless a derive step already applied its
    relation.  Seeded on the bottom, a crossing above the bottom arcs is
    reached by the same derivations upwards, and checks its outgoing
    under-colour where the bottom fixed it.
    """
    top_arcs, bottom_arcs = d.boundary_arcs()
    seed_arcs = bottom_arcs if from_bottom else top_arcs
    known = set(seed_arcs)
    n_arcs = d.n_arcs
    crossings = d.crossings
    rules = []
    touching: list[list] = [[] for _ in range(n_arcs)]
    for k, (_, _, _, o, i, u) in enumerate(crossings):
        r = (k, o, i, u)
        rules.append(r)
        touching[r[1]].append(r)
        touching[r[2]].append(r)
        touching[r[3]].append(r)
    plan = _plan_seeds(n_arcs, known, rules, touching)
    how: dict[int, tuple[int, bool]] = {}
    mask = _closure(0, known, touching, how)
    for a in plan:
        mask = _closure(mask, (a,), touching, how)
    seeds = set(plan)
    events: list = []
    used: set[int] = set()

    def need(a: int) -> None:
        # colour arc a and, first, every arc its derivation reads (a seed
        # by branching, any other arc through the crossing how names, which
        # joins used), with a stack: chains can be as long as the diagram
        stack = [a]
        while stack:
            a = stack[-1]
            if a in known:
                stack.pop()
                continue
            if a in seeds:
                events.append(a)
            else:
                k, up = how[a]
                _, o, i, u = rules[k]
                src = u if up else i
                if o not in known or src not in known:
                    stack += (src, o)
                    continue
                plus = up == (crossings[k].sign > 0)
                events.append(Step(plus, False, o, src, a))
                used.add(k)
            known.add(a)
            stack.pop()

    levels, words = d.levels, d.words
    folds = []
    for k, (row, pos, sign, o, i, u) in enumerate(crossings):
        left = levels[row][:pos]
        if not (o in known and i in known and known.issuperset(left)):
            for a in (o, *left, i):
                need(a)
        if k not in used:
            events.append(Step(sign < 0, u in known, o, i, u))
            known.add(u)
        folds.append(Fold(sign, o, u,
                          tuple(zip(left, map(UP.__eq__, words[row])))))
    if len(known) < n_arcs:
        for a in range(n_arcs):
            need(a)
    return EventProgram(n_arcs, top_arcs, bottom_arcs, tuple(events),
                        tuple(folds),
                        tuple(ev for ev in events if type(ev) is int),
                        seed_arcs, len(set(seed_arcs)) < len(seed_arcs))


def _sweep(prog: EventProgram, pair: ReidemeisterPair,
           cols: np.ndarray) -> Iterator[np.ndarray]:
    """Run prog from the colour tuples in cols, one per row, on its seeded
    boundary; return the finished chunks.

    The frontier is an intp array with one column per arc and a last one,
    set to the identity of E, into which the E-pass writes each finished
    row's E-element; a row whose colours differ on an arc met twice along
    the seeded boundary is dropped.  Each chunk is such an array of
    complete colourings.  With intp colours, no colour gather pays numpy's
    cast of a non-intp index array, which costs more than the gather on a
    small frontier.  The cap
    bounds the real work, every seeded row times every branch, and is
    checked last here, still before any work.
    """
    n = pair.g.order
    rows = np.zeros((len(cols), prog.n_arcs + 1), dtype=np.intp)
    rows[:, prog.seed_arcs] = cols
    rows[:, -1] = pair.e.identity
    if prog.seed_repeats:
        rows = rows[(rows[:, prog.seed_arcs] == cols).all(axis=1)]
    branches = prog.branch_arcs
    if len(rows) * n ** len(branches) > STATE_SUM_BRANCH_CAP:
        raise SizeLimitError(
            f"{len(rows)} seeded rows x {n}^{len(branches)} branches (on arcs "
            f"{list(branches)}) exceed the state-sum cap of "
            f"{STATE_SUM_BRANCH_CAP}")
    return _run(prog, pair, rows)


def _run(prog: EventProgram, pair: ReidemeisterPair, rows):
    # depth-first over tasks (event, rows, colours): colours, if set, are
    # the values that the branch event k gives each row
    events = prog.events
    fplus, fminus = pair.fplus, pair.fminus
    n = pair.g.order
    colours = np.arange(n, dtype=np.intp)
    step = SWEEP_CHUNK_ROWS
    width = rows.shape[1]
    end = len(events)
    stack = [(0, rows[lo:lo + step], None)
             for lo in reversed(range(0, len(rows), step))]
    while stack:
        k, rows, branch = stack.pop()
        if branch is not None:
            # rows are shared with sibling tasks: repeat copies them, and
            # the colours broadcast over the (rows, colours, arcs) view
            m, b = len(rows), len(branch)
            rows = np.repeat(rows, b, axis=0)
            rows.reshape(m, b, width)[:, :, events[k]] = branch
            k += 1
        while k < end and len(rows):
            ev = events[k]
            if type(ev) is int:
                break
            k += 1
            plus, check, o, src, dst = ev
            y = (fplus if plus else fminus)[rows[:, o], rows[:, src]]
            if check:
                rows = rows[rows[:, dst] == y]
            else:
                rows[:, dst] = y
        if not len(rows):
            continue
        if k == end:
            _fold(prog, pair, rows)
            yield rows
            continue
        # a branch event: split the colours so no chunk exceeds step rows
        per = max(1, step // len(rows))
        for lo in reversed(range(0, n, per)):
            stack.append((k, rows, colours[lo:lo + per]))


def _fold(prog: EventProgram, pair: ReidemeisterPair, rows) -> None:
    """Fold the E-colours of finished colourings into their last column.

    Top down, each crossing contributes u |> e, e = psi(over, out) at a
    positive crossing and phi(over, out) at a negative one, u the product
    of the prefix colours; the first crossing's term starts the product,
    so a diagram with no crossing keeps the identity put there.
    """
    g_mul, g_inv = pair.g.table, pair.g.inv_table
    e_mul, act, psi, phi = pair.e.table, pair.xmod.action, pair.psi, pair.phi
    acc = None
    for sign, o, u, prefix in prog.folds:
        e = (psi if sign > 0 else phi)[rows[:, o], rows[:, u]]
        if prefix:
            p = None
            for a, up in prefix:
                c = g_inv[rows[:, a]] if up else rows[:, a]
                p = c if p is None else g_mul[p, c]
            e = act[p, e]
        acc = e if acc is None else e_mul[e, acc]
    if acc is not None:
        rows[:, -1] = acc


def _state_sum(prog: EventProgram, pair: ReidemeisterPair,
               seeds: np.ndarray) -> dict:
    """{(top, bottom): {E element: count}} over the colourings of the
    compiled diagram prog whose colours on its seeded boundary are a row of
    seeds, sorted by key."""
    k = len(prog.top_arcs)
    keys = list(prog.top_arcs + prog.bottom_arcs + (prog.n_arcs,))
    counts: Counter = Counter()
    for rows in _sweep(prog, pair, seeds):
        counts.update(map(tuple, rows.take(keys, axis=1).tolist()))
    # sorting (boundary colours, elt) sorts the keys and each key's terms
    out: dict[tuple, dict[int, int]] = {}
    for cols, count in sorted(counts.items()):
        out.setdefault((cols[:k], cols[k:-1]), {})[cols[-1]] = count
    return out


# ----------------------------------------------------------------------
# single colourings
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Colouring:
    """One solution of the crossing constraints on a sliced diagram.

    arc_colours[i] is the G-colour of arc i, and these fix the rest; elt
    is the E-element that the sweep's E-pass folded over every crossing,
    top to bottom, from psi or phi at (over colour, outgoing under-colour).
    """

    diagram: SlicedTangleDiagram = field(compare=False)
    pair: ReidemeisterPair = field(compare=False)
    arc_colours: tuple[int, ...]
    elt: int

    def __repr__(self) -> str:
        g = self.pair.g
        cols = ", ".join(g.label(c) for c in self.arc_colours)
        return f"<colouring [{cols}]>"


def _normalise_enhancement(group, orientations, value, which: str):
    """Accept a tuple of element indices, or None for an empty boundary."""
    if value is None:
        if orientations:
            raise EnhancementMismatchError(
                f"{which} enhancement required for a boundary of width "
                f"{len(orientations)}")
        return ()
    if isinstance(value, str):
        raise EnhancementMismatchError(
            f"{which} enhancement must be a tuple of colours, not {value!r}")
    out = tuple(int(v) for v in value)
    if len(out) != len(orientations):
        raise EnhancementMismatchError(
            f"{which} enhancement has {len(out)} colours for "
            f"{len(orientations)} strands")
    for v in out:
        if not 0 <= v < group.order:
            raise EnhancementMismatchError(f"{which} colour {v} out of range")
    return out


def enumerate_colourings(d: SlicedTangleDiagram, transfer: CrossingTransfer,
                         top=None) -> Iterator[Colouring]:
    """Stream every colouring of d whose top arcs match the given colours.

    A view of the sweep for callers that inspect single colourings: each
    finished row of the top-seeded sweep is one Colouring, its arc colours
    and its folded E-element, the row's last column.
    """
    pair = transfer.pair
    top_cols = _normalise_enhancement(pair.g, d.top, top, "top")
    prog = compile_program(d)
    tops = np.array([top_cols], dtype=np.intp)
    for rows in _sweep(prog, pair, tops):
        for *arcs, elt in rows.tolist():
            yield Colouring(d, pair, tuple(arcs), elt)


def evaluate(col: Colouring) -> CGMorphism:
    """Composite categorical-group morphism of a coloured diagram: the
    evaluation of its top colours, and the E-element its sweep folded."""
    d, pair = col.diagram, col.pair
    top_cols = tuple(col.arc_colours[a] for a in d.levels[0])
    src = Enhancement(d.top, top_cols).evaluation(pair.g)
    return CGMorphism(pair.xmod, src, col.elt)


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


def invariant(d: SlicedTangleDiagram, pair: ReidemeisterPair, top=None,
              bottom=None):
    """State sum of d with the boundary the caller fixes.

    Top given, or d closed: the ket reading, one sum seeded on the top.  A
    closed diagram gives a single InvariantValue with empty boundary words;
    an open one a map {bottom colour tuple: InvariantValue}, or, when the
    bottom is given too, the single InvariantValue at that bottom, possibly
    with no terms.

    Only the bottom given: the bra reading, a map {top colour tuple:
    InvariantValue} over the tops that some colouring reaches, from one
    sum seeded on the bottom.  An open diagram with neither boundary given
    raises EnhancementMismatchError.
    """
    group = pair.g
    bra = top is None and bottom is not None
    if not bra:
        top_cols = _normalise_enhancement(group, d.top, top, "top")
    if bottom is not None:
        bot_cols = _normalise_enhancement(group, d.bottom, bottom, "bottom")
    seed = np.array([bot_cols if bra else top_cols], dtype=np.intp)
    sums = _state_sum(compile_program(d, from_bottom=bra), pair, seed)

    def value(key) -> InvariantValue:
        return InvariantValue(pair, Enhancement(d.top, key[0]),
                              Enhancement(d.bottom, key[1]),
                              sums.get(key, {}))

    if bra:
        return {t: value((t, b)) for t, b in sums}
    if d.is_closed:
        return value(((), ()))
    if bottom is None:
        return {b: value((t, b)) for t, b in sums}
    return value((top_cols, bot_cols))


@functools.cache
def _all_tops(n: int, k: int) -> np.ndarray:
    """Every top colour tuple of k strands over n colours, one per row.

    Row j is the j-th tuple of itertools.product(range(n), repeat=k); no -1
    in the reshape, so k = 0 gives the one empty top.  Built once per (n,
    k) and shared by every caller, so the array is read-only.
    """
    tops = np.indices((n,) * k, dtype=np.intp).reshape(k, n ** k).T
    tops.flags.writeable = False
    return tops


# the last matrix summed: (program, weakref to its pair, matrix), read
# and replaced as one tuple, so no thread sees a key with another's matrix
_last_matrix: tuple | None = None


def invariant_matrix(d: SlicedTangleDiagram, pair: ReidemeisterPair) -> dict:
    """Full matrix {(top, bottom): terms} over every top enhancement.

    Intended for small boundaries, e.g. to compare diagrams related by a
    move; keys with no colourings are omitted.  Every top enhancement
    seeds one row of a single sweep, and more than MATRIX_TOP_CAP of them
    raise SizeLimitError.

    The sum reads nothing of d but its program, so a call whose program
    equals the last call's, under the same pair, returns a copy of the
    last matrix without summing.  Identity moves, R0 snakes and many
    interchanges compile to their base's program, so a move sweep hits
    this one slot on nearly half its calls.  One slot needs no size knob,
    holds one matrix, and keeps no pair alive: it holds the pair weakly,
    and the pair refers to no transfer, so a dropped pair is freed at once,
    without the cycle collector.  Every hit of a move sweep is on the call
    just before.
    """
    global _last_matrix
    k = len(d.top)
    n = pair.g.order
    if n ** k > MATRIX_TOP_CAP:
        raise SizeLimitError(f"{n}^{k} top enhancements exceed {MATRIX_TOP_CAP}")
    prog = compile_program(d)
    last = _last_matrix
    # equal, not identical: distinct diagrams compile to equal programs
    if last is not None and last[1]() is pair and last[0] == prog:
        matrix = last[2]
    else:
        matrix = _state_sum(prog, pair, _all_tops(n, k))
        _last_matrix = (prog, weakref.ref(pair), matrix)
    # the slot's matrix is never handed out, so callers may mutate theirs
    return {key: dict(terms) for key, terms in matrix.items()}


# ----------------------------------------------------------------------
# functoriality check
# ----------------------------------------------------------------------


def tqft_compose_check(d1: SlicedTangleDiagram, d2: SlicedTangleDiagram,
                       pair: ReidemeisterPair) -> bool:
    """Does the invariant of d1 stacked on d2 factor through the middle?

    Compares, for each top enhancement of d1, the bucketed state sum of the
    composite with the convolution of the two factors over all middle
    enhancements.  Checks every top when there are at most
    COMPOSE_TOP_CAP of them, otherwise a fixed-seed sample of
    COMPOSE_SAMPLE.  Three state sums do the work: the composite and d1
    over the chosen tops, and d2 over the middles that d1 reaches.
    """
    if d1.bottom != d2.top:
        raise NonComposableError(
            f"cannot compose: bottom {d1.bottom} != top {d2.top}")
    egrp = pair.e
    n, k = pair.g.order, len(d1.top)
    if n ** k <= COMPOSE_TOP_CAP:
        tops = _all_tops(n, k)
    else:
        rng = random.Random(SAMPLE_SEED)
        tops = np.array([[rng.randrange(n) for _ in range(k)]
                         for _ in range(COMPOSE_SAMPLE)], dtype=np.intp)
    upper = _state_sum(compile_program(d1), pair, tops)
    mids = sorted({mid for _, mid in upper})
    below: dict[tuple, list] = {}
    for (mid, bot), lower in _state_sum(
            compile_program(d2), pair, np.array(mids, dtype=np.intp).reshape(
                len(mids), len(d2.top))).items():
        below.setdefault(mid, []).append((bot, lower))
    rhs: dict[tuple, dict[int, int]] = {}
    for (top, mid), terms in upper.items():
        for bot, lower in below.get(mid, ()):
            acc = rhs.setdefault((top, bot), {})
            for e1, c1 in terms.items():
                for e2, c2 in lower.items():
                    key = egrp.mul(e2, e1)
                    acc[key] = acc.get(key, 0) + c1 * c2
    return _state_sum(compile_program(d1.then(d2)), pair, tops) == rhs

