"""Sliced oriented tangle diagrams.

A tangle diagram is cut into horizontal strips, each containing straight
vertical strands and at most one elementary piece: a crossing between two
adjacent downward strands (X+ or X-), a cup (local maximum, adding two
strand ends below it), or a cap (local minimum, removing two strand ends).
A diagram is therefore a boundary orientation word together with an ordered
list of (generator, position) slices, read top to bottom.

Orientation bookkeeping.  Each strand position carries "v" (running down the
page) or "^" (running up).  Crossings act on two adjacent "v" strands; the
other crossing orientations are obtained from these by composing with cups
and caps, so they are not independent generators.  Cup and cap generators
come in two chiralities fixed by the flow direction:

    cupR  creates (v, ^)   flow enters up the right leg, leaves down the left
    cupL  creates (^, v)   flow enters up the left leg, leaves down the right
    capR  consumes (v, ^)  flow comes down the left leg, leaves up the right
    capL  consumes (^, v)  flow comes down the right leg, leaves up the left

Crossing convention: in X+ the strand entering at top-right passes over and
exits bottom-left; in X- the strand entering at top-left passes over and
exits bottom-right.  Every routine in the state-sum engine trusts this one
convention.

Arcs are maximal strand segments that never pass under a crossing: the over
strand of a crossing keeps its arc, the under strand is broken into two arcs.
Construction checks each slice against the orientation word above it and
records the words.  The arc table is built on first use, by one sweep down
the levels that carries an integer label per strand position and merges
labels only at caps, so a diagram whose compiled program is already cached
never builds it.  The result is `levels`, the per-port arc table:
levels[r][i] is the arc at position i of level r (level 0 is the top
edge), arcs are numbered in order of their first port, and `n_arcs` counts
them.  Each crossing records its row, position, sign and the arcs of its
overstrand and of its under strand coming in and going out.

Two sliced diagrams present the same (framed) oriented tangle exactly when
they are related by the local moves generated here: trivial-slice insertion
(identity move), far-away slice commutation (interchange move), the cup/cap
plane moves R0A-R0D, the Reidemeister moves R2A-R2C and R3, and R1 for
unframed tangles or the kink-pair cancellation R1' for framed ones.  Every
move but the first two is a row of one table of relations: a tag, the
orientation word that an insertion needs, and two sides, each a run of
slices at positions relative to the leftmost strand it touches.  One
routine applies the table, inserting a side where the other is empty and
the strands read the word, and replacing each occurrence of a side by the
other.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from typing import Iterable, NamedTuple, Sequence

from .errors import (
    DiagramError,
    IndexOutOfRangeError,
    NonClosableError,
    OrientationMismatchError,
    ParseError,
    WidthMismatchError,
)

DOWN = "v"
UP = "^"

GENERATORS = ("X+", "X-", "cupR", "cupL", "capR", "capL", "id")

# arity of a generator at its top and bottom edge
_TOP_ARITY = {"X+": 2, "X-": 2, "cupR": 0, "cupL": 0, "capR": 2, "capL": 2, "id": 0}
_BOT_ARITY = {"X+": 2, "X-": 2, "cupR": 2, "cupL": 2, "capR": 0, "capL": 0, "id": 0}

_CUP_MAKES = {"cupR": (DOWN, UP), "cupL": (UP, DOWN)}
_CAP_WANTS = {"capR": (DOWN, UP), "capL": (UP, DOWN)}


class _SliceFields(NamedTuple):
    gen: str
    pos: int


class Slice(_SliceFields):
    """One horizontal strip: a single generator at a given position.

    A tuple, so slices and slice runs hash and compare in C.
    """

    __slots__ = ()

    def __new__(cls, gen: str, pos: int) -> "Slice":
        if gen not in GENERATORS:
            raise DiagramError(f"unknown generator {gen!r}")
        if pos < 0:
            raise DiagramError(f"negative position {pos}")
        return tuple.__new__(cls, (gen, pos))


class Crossing(NamedTuple):
    """A crossing site: its slice row and position, sign and arcs.

    under_in_arc is the broken strand's arc on the top edge, under_out_arc
    its continuation on the bottom edge.  A tuple, like Slice, so the
    crossings of a diagram are built and unpacked in C.
    """

    row: int
    pos: int
    sign: int
    over_arc: int
    under_in_arc: int
    under_out_arc: int


def _find(parent: list[int], x: int) -> int:
    while parent[x] != x:
        parent[x] = x = parent[parent[x]]
    return x


# ----------------------------------------------------------------------
# the diagram type
# ----------------------------------------------------------------------


class _ArcTable(NamedTuple):
    n_arcs: int
    levels: tuple[tuple[int, ...], ...]
    crossings: tuple[Crossing, ...]


class SlicedTangleDiagram:
    """An oriented tangle diagram as a vertical stack of slices.

    Construction checks every slice and records the orientation words; the
    arc table (`levels`, `n_arcs`, `crossings`) is built on first use.
    """

    def __init__(self, top: Sequence[str], slices: Iterable[Slice | tuple] = ()):
        top = tuple(top)
        for o in top:
            if o not in (DOWN, UP):
                raise OrientationMismatchError(f"bad orientation token {o!r}")
        norm = []
        for s in slices:
            if not isinstance(s, Slice):
                s = Slice(*s)
            if s.gen == "id" and s.pos != 0:
                s = Slice("id", 0)
            norm.append(s)
        self.top = top
        self.slices = tuple(norm)
        self._check_words()

    # -- words and arcs ----------------------------------------------------

    def _check_words(self) -> None:
        # one sweep down the levels checks each slice against the word
        # above it
        w = self.top
        words = [w]
        for r, s in enumerate(self.slices):
            g, p = s.gen, s.pos
            if g in _CUP_MAKES:
                if p > len(w):
                    raise WidthMismatchError(
                        f"slice {r}: cup at {p} beyond width {len(w)}")
                w = w[:p] + _CUP_MAKES[g] + w[p:]
            elif g != "id":
                if p + 2 > len(w):
                    raise WidthMismatchError(
                        f"slice {r}: {g} at {p} beyond width {len(w)}")
                pair = (w[p], w[p + 1])
                if g in _CAP_WANTS:
                    if pair != _CAP_WANTS[g]:
                        raise OrientationMismatchError(
                            f"slice {r}: {g} expects {_CAP_WANTS[g]} at {p}, "
                            f"found {pair}")
                    w = w[:p] + w[p + 2:]
                elif pair != (DOWN, DOWN):
                    raise OrientationMismatchError(
                        f"slice {r}: {g} needs two downward strands at {p}, "
                        f"found {pair}")
            words.append(w)
        self.words = tuple(words)
        self.bottom = w

    @cached_property
    def _arcs(self) -> _ArcTable:
        # The label sweep carries an integer label per strand position.
        # Labels are born fresh on the top edge, at a cup (both legs) and at
        # a crossing's under-out port; a cap merges its two labels, keeping
        # the smaller.  Labels are born in port order, so numbering the
        # merged classes by their least label numbers the arcs by their
        # first port.  The slices were checked on construction.
        labels = list(range(len(self.top)))
        parent = list(labels)
        rows = [labels]
        raw = []  # per crossing: row, pos, sign, over, under-in, under-out
        for r, (g, p) in enumerate(self.slices):
            if g in _CUP_MAKES:
                fresh = len(parent)
                parent.append(fresh)
                labels = labels[:p] + [fresh, fresh] + labels[p:]
            elif g in _CAP_WANTS:
                x = _find(parent, labels[p])
                y = _find(parent, labels[p + 1])
                parent[max(x, y)] = min(x, y)
                labels = labels[:p] + labels[p + 2:]
            elif g != "id":
                fresh = len(parent)
                parent.append(fresh)
                if g == "X+":
                    over, under = labels[p + 1], labels[p]
                    labels = labels[:p] + [over, fresh] + labels[p + 2:]
                    raw.append((r, p, +1, over, under, fresh))
                else:
                    over, under = labels[p], labels[p + 1]
                    labels = labels[:p] + [fresh, over] + labels[p + 2:]
                    raw.append((r, p, -1, over, under, fresh))
            rows.append(labels)
        arc: list[int] = []  # label -> arc; a parent precedes its children
        n = 0
        for label, up in enumerate(parent):
            if up == label:
                arc.append(n)
                n += 1
            else:
                arc.append(arc[up])
        return _ArcTable(
            n,
            tuple(tuple(map(arc.__getitem__, row)) for row in rows),
            tuple(Crossing(r, p, sign, arc[over], arc[under], arc[fresh])
                  for r, p, sign, over, under, fresh in raw))

    @property
    def n_arcs(self) -> int:
        return self._arcs.n_arcs

    @property
    def levels(self) -> tuple[tuple[int, ...], ...]:
        """levels[r][i] is the arc at position i of level r (0 is the top)."""
        return self._arcs.levels

    @property
    def crossings(self) -> tuple[Crossing, ...]:
        return self._arcs.crossings

    @cached_property
    def _component_count(self) -> int:
        # whole strands: arcs joined through their under-passages
        parent = list(range(self.n_arcs))
        count = self.n_arcs
        for c in self.crossings:
            x = _find(parent, c.under_in_arc)
            y = _find(parent, c.under_out_arc)
            if x != y:
                parent[max(x, y)] = min(x, y)
                count -= 1
        return count

    # -- basic queries ---------------------------------------------------

    @property
    def is_closed(self) -> bool:
        return self.top == () and self.bottom == ()

    @property
    def writhe(self) -> int:
        return sum(c.sign for c in self.crossings)

    def component_count(self) -> int:
        return self._component_count

    def boundary_arcs(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Arc indices met along the top and the bottom boundary."""
        return self.levels[0], self.levels[-1]

    # -- structural edits -------------------------------------------------

    def then(self, other: "SlicedTangleDiagram") -> "SlicedTangleDiagram":
        """Stack other below self; boundary words must agree."""
        if self.bottom != other.top:
            raise NonClosableError(
                f"cannot stack: bottom {self.bottom} != top {other.top}"
            )
        return SlicedTangleDiagram(self.top, self.slices + other.slices)

    def split(self, row: int) -> tuple["SlicedTangleDiagram", "SlicedTangleDiagram"]:
        """Cut into an upper and a lower diagram between slices row-1 and row."""
        if not 0 <= row <= len(self.slices):
            raise DiagramError(f"split row {row} out of range")
        upper = SlicedTangleDiagram(self.top, self.slices[:row])
        lower = SlicedTangleDiagram(self.words[row], self.slices[row:])
        return upper, lower

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SlicedTangleDiagram)
            and self.top == other.top
            and self.slices == other.slices
        )

    def __hash__(self) -> int:
        return hash((self.top, self.slices))

    def __repr__(self) -> str:
        return f"SlicedTangleDiagram(top={''.join(self.top) or '()'}, {len(self.slices)} slices)"


# ----------------------------------------------------------------------
# textual format
# ----------------------------------------------------------------------

_GEN_ALIASES = {
    "X+": "X+",
    "X-": "X-",
    "X−": "X-",  # unicode minus
    "cupR": "cupR",
    "cupL": "cupL",
    "capR": "capR",
    "capL": "capL",
    "id": "id",
}


def parse_tangle(text: str) -> SlicedTangleDiagram:
    """Parse the line format: a "top:" header then one slice per line.

    Example::

        top: v v
        X+ @0
        capR @0

    '#' starts a comment; blank lines are ignored.
    """
    top = None
    slices = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if top is None:
            if not line.startswith("top:"):
                raise ParseError(f"line {lineno}: expected 'top:' header")
            top = tuple(line[4:].split())
            for o in top:
                if o not in (DOWN, UP):
                    raise ParseError(f"line {lineno}: bad orientation {o!r}")
            continue
        parts = line.split()
        if len(parts) != 2 or not parts[1].startswith("@"):
            raise ParseError(f"line {lineno}: expected '<gen> @<pos>'")
        gen = _GEN_ALIASES.get(parts[0])
        if gen is None:
            raise ParseError(f"line {lineno}: unknown generator {parts[0]!r}")
        try:
            pos = int(parts[1][1:])
        except ValueError:
            raise ParseError(f"line {lineno}: bad position {parts[1]!r}") from None
        slices.append(Slice(gen, pos))
    if top is None:
        raise ParseError("missing 'top:' header")
    return SlicedTangleDiagram(top, slices)


def serialize_tangle(d: SlicedTangleDiagram) -> str:
    """The line format parse_tangle reads.  Tests read it: the catalog
    round trip, and the frozen move-neighbour fingerprints."""
    lines = ["top: " + " ".join(d.top) if d.top else "top:"]
    lines += [f"{s.gen} @{s.pos}" for s in d.slices]
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# boundary enhancements
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Enhancement:
    """Group elements attached to one boundary of a diagram.

    The evaluation of an enhanced boundary word multiplies the attached
    elements left to right, inverting the ones on upward strands.
    """

    orientations: tuple[str, ...]
    elements: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.orientations) != len(self.elements):
            raise DiagramError(
                f"enhancement length {len(self.elements)} != word length "
                f"{len(self.orientations)}"
            )

    def evaluation(self, group) -> int:
        out = group.identity
        for o, g in zip(self.orientations, self.elements):
            out = group.mul(out, g if o == DOWN else group.inv(g))
        return out


# ----------------------------------------------------------------------
# catalog builders
# ----------------------------------------------------------------------


def braid_word_to_tangle(word: Sequence[int], strands: int) -> SlicedTangleDiagram:
    """Braid word to diagram: i > 0 puts X+ at position i-1, i < 0 puts X-."""
    if strands < 1:
        raise IndexOutOfRangeError(f"need at least one strand, got {strands}")
    slices = []
    for letter in word:
        if letter == 0 or abs(letter) > strands - 1:
            raise IndexOutOfRangeError(
                f"braid letter {letter} out of range for {strands} strands"
            )
        slices.append(Slice("X+" if letter > 0 else "X-", abs(letter) - 1))
    return SlicedTangleDiagram((DOWN,) * strands, slices)


def trace_closure(d: SlicedTangleDiagram, keep: int = 0) -> SlicedTangleDiagram:
    """Close a diagram by joining bottom endpoints around to the top.

    Return strands run on the right, nested: the cup for strand i is
    inserted at position i above the diagram and the matching cap at
    position i below it, innermost strand first for the caps.  With
    keep > 0 the leftmost strands stay open, which turns a braid into a
    string knot the way the worked trefoil diagrams are drawn.
    """
    if d.top != d.bottom:
        raise NonClosableError(
            f"boundary words differ: top {d.top}, bottom {d.bottom}"
        )
    n = len(d.top)
    if not 0 <= keep <= n:
        raise NonClosableError(f"cannot keep {keep} of {n} strands open")
    cups = [
        Slice("cupR" if d.top[i] == DOWN else "cupL", i) for i in range(keep, n)
    ]
    caps = [
        Slice("capR" if d.top[i] == DOWN else "capL", i)
        for i in reversed(range(keep, n))
    ]
    return SlicedTangleDiagram(d.top[:keep], cups + list(d.slices) + caps)


def catalog_names() -> list[str]:
    """Names of the diagrams shipped with the package."""
    from importlib import resources

    root = resources.files(__package__) / "catalog"
    return sorted(p.name[:-4] for p in root.iterdir() if p.name.endswith(".tng"))


@cache
def load_catalog(name: str) -> SlicedTangleDiagram:
    """Load a shipped diagram by name (see catalog_names).

    Each name is parsed once per process and every later call returns the
    same object, which is safe because diagrams are immutable.
    """
    from importlib import resources

    path = resources.files(__package__) / "catalog" / f"{name}.tng"
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise DiagramError(
            f"no catalog diagram {name!r}; available: {', '.join(catalog_names())}"
        ) from None
    return parse_tangle(text)


# ----------------------------------------------------------------------
# Reidemeister move neighbours
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class MovePair:
    """Two diagrams differing by one named local relation."""

    tag: str
    before: SlicedTangleDiagram
    after: SlicedTangleDiagram


# a kink of sign +/- looping to the right (R) or left (L) of a down strand
_KINKS = {
    "+R": (("cupR", 1), ("X+", 0), ("capR", 1)),
    "+L": (("cupL", 0), ("X+", 1), ("capL", 0)),
    "-R": (("cupR", 1), ("X-", 0), ("capR", 1)),
    "-L": (("cupL", 0), ("X-", 1), ("capL", 0)),
}

# (tag, word, side A, side B) per local relation, in groups that run in
# this order.  Sides are runs of (generator, relative position) slices; an
# empty side A marks a relation that inserts side B where the strands read
# word.
_RELATIONS = (
    # snakes: a strand straightened past a cup-cap excursion left (R0A) or
    # right (R0B)
    (("R0A", (DOWN,), (), (("cupR", 0), ("capL", 1))),
     ("R0B", (DOWN,), (), (("cupL", 1), ("capR", 0))),
     ("R0A", (UP,), (), (("cupL", 0), ("capR", 1))),
     ("R0B", (UP,), (), (("cupR", 1), ("capL", 0)))),
    # crossing rotations: a crossing turned round by cups above and caps below
    tuple((tag, (), (("cupL", 0), ("cupL", 1), (x, 2), ("capR", 3), ("capR", 2)),
           (("cupR", 2), ("cupR", 3), (x, 2), ("capL", 1), ("capL", 0)))
          for tag, x in (("R0C", "X+"), ("R0D", "X-"))),
    # kinks: single ones (R1) for unframed tangles, cancelling pairs (R1')
    # for framed ones
    tuple(("R1", (DOWN,), (), _KINKS[k]) for k in ("+R", "+L", "-R", "-L"))
    + tuple(("R1'", (DOWN,), (), _KINKS[a] + _KINKS[b])
            for a, b in (("+R", "-R"), ("-R", "+R"), ("+L", "-L"), ("-L", "+L"))),
    # R2A: opposite crossings on two downward strands
    (("R2A", (DOWN, DOWN), (), (("X+", 0), ("X-", 0))),
     ("R2A", (DOWN, DOWN), (), (("X-", 0), ("X+", 0)))),
    # R2B / R2C: the antiparallel second Reidemeister moves
    tuple(("R2B", (UP, DOWN), (),
           (("cupR", 2), (x, 1), ("capL", 0), ("cupL", 0), (y, 1), ("capR", 2)))
          for x, y in (("X+", "X-"), ("X-", "X+")))
    + tuple(("R2C", (DOWN, UP), (),
             (("cupL", 0), (x, 1), ("capR", 2), ("cupR", 2), (y, 1), ("capL", 0)))
            for x, y in (("X-", "X+"), ("X+", "X-"))),
    # R3: the braid relation on three strands
    (("R3", (), (("X+", 0), ("X+", 1), ("X+", 0)),
      (("X+", 1), ("X+", 0), ("X+", 1))),),
)


@cache
def _place(side, base: int) -> tuple[Slice, ...]:
    # slices are immutable, so one placed side serves every diagram
    return tuple(Slice(g, p + base) for g, p in side)


def _scan_template(d: SlicedTangleDiagram, template):
    """Rows where the template occurs, matching relative positions."""
    tp0, n = template[0][1], len(template)
    hits = []
    for row in range(len(d.slices) - n + 1):
        base = d.slices[row].pos - tp0
        if base >= 0 and d.slices[row:row + n] == _place(template, base):
            hits.append((row, base))
    return hits


def _relation_images(d: SlicedTangleDiagram, moves: str) \
        -> list[tuple[str, tuple[Slice, ...]]]:
    """(tag, slices) of each diagram one listed relation away from d, once.

    After the identity and interchange moves, each group of _RELATIONS
    inserts its insertable sides level by level, then replaces every
    occurrence of a side by the other side, row by row.
    """
    if moves not in ("unframed", "framed"):
        raise DiagramError(f"unknown move set {moves!r}")
    skip = "R1'" if moves == "unframed" else "R1"
    slices = d.slices
    found: dict = {}  # (tag, slices) -> None, in order of first finding

    # identity move: insert a trivial slice anywhere, delete existing ones
    for level in range(len(slices) + 1):
        found["identity-move", slices[:level] + (Slice("id", 0),)
              + slices[level:]] = None
    for row, s in enumerate(slices):
        if s.gen == "id":
            found["identity-move", slices[:row] + slices[row + 1:]] = None

    # interchange move: swap adjacent slices with disjoint support
    for row in range(len(slices) - 1):
        s1, s2 = slices[row], slices[row + 1]
        a1, b1 = _TOP_ARITY[s1.gen], _BOT_ARITY[s1.gen]
        a2, b2 = _TOP_ARITY[s2.gen], _BOT_ARITY[s2.gen]
        if s1.gen == "id" or s2.gen == "id":
            swapped = (s2, s1)
        elif s2.pos + a2 <= s1.pos:
            swapped = (s2, Slice(s1.gen, s1.pos + b2 - a2))
        elif s2.pos >= s1.pos + b1:
            swapped = (Slice(s2.gen, s2.pos - b1 + a1), s1)
        else:
            continue
        found["interchange-move", slices[:row] + swapped + slices[row + 2:]] = None

    for group in _RELATIONS:
        rows = [r for r in group if r[0] != skip]
        for level, w in enumerate(d.words):
            for i in range(len(w)):
                for tag, word, a, b in rows:
                    if not a and w[i:i + len(word)] == word:
                        found[tag, slices[:level] + _place(b, i)
                              + slices[level:]] = None
        for tag, _, a, b in rows:
            for side, other in ((a, b), (b, a)):
                if side:
                    for row, base in _scan_template(d, side):
                        found[tag, slices[:row] + _place(other, base)
                              + slices[row + len(side):]] = None
    return [key for key in found if key[1] != slices]


def move_neighbours(d: SlicedTangleDiagram, moves: str = "unframed") -> list[MovePair]:
    """All diagrams one listed relation away from d.

    moves is "unframed" (R1 allowed) or "framed" (R1' instead of R1).
    """
    return [MovePair(tag, d, SlicedTangleDiagram(d.top, new))
            for tag, new in _relation_images(d, moves)]
