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
A diagram finds them in one sweep down its levels, carrying an integer label
per strand position and merging labels only at caps.  The result is
`levels`, the per-port arc table: levels[r][i] is the arc at position i of
level r (level 0 is the top edge), arcs are numbered in order of their
first port, and `n_arcs` counts them.  The state-sum engine reads only this
table; the port dictionary `arc_of` and the `arcs` list are built on first
use.

Two sliced diagrams present the same (framed) oriented tangle exactly when
they are related by the local moves generated here: trivial-slice insertion
(identity move), far-away slice commutation (interchange move), the cup/cap
plane moves R0A-R0D, the Reidemeister moves R2A-R2C and R3, and R1 for
unframed tangles or the kink-pair cancellation R1' for framed ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

from .errors import (
    DiagramError,
    IndexOutOfRangeError,
    MultiComponentError,
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


@dataclass(frozen=True)
class Slice:
    """One horizontal strip: a single generator at a given position."""

    gen: str
    pos: int

    def __post_init__(self) -> None:
        if self.gen not in GENERATORS:
            raise DiagramError(f"unknown generator {self.gen!r}")
        if self.pos < 0:
            raise DiagramError(f"negative position {self.pos}")


@dataclass(frozen=True)
class Crossing:
    """A crossing site with its arc and port bookkeeping.

    Ports are (level, position) pairs; under_in is the broken strand's port
    on the top edge, under_out its continuation on the bottom edge.
    """

    row: int
    pos: int
    sign: int
    over_port: tuple[int, int]
    under_in_port: tuple[int, int]
    under_out_port: tuple[int, int]
    over_arc: int = field(default=-1, compare=False)
    under_in_arc: int = field(default=-1, compare=False)
    under_out_arc: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class Arc:
    """A maximal strand segment between under-passages and boundary."""

    index: int
    ports: tuple[tuple[int, int], ...]


def _find(parent: list[int], x: int) -> int:
    while parent[x] != x:
        parent[x] = x = parent[parent[x]]
    return x


# ----------------------------------------------------------------------
# the diagram type
# ----------------------------------------------------------------------


class SlicedTangleDiagram:
    """An oriented tangle diagram as a vertical stack of slices."""

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
        self.words = self._compute_words()
        self.bottom = self.words[-1]
        self._build_arcs()

    # -- word propagation ------------------------------------------------

    def _compute_words(self) -> tuple[tuple[str, ...], ...]:
        words = [self.top]
        w = self.top
        for r, s in enumerate(self.slices):
            w = self._apply_slice(w, s, r)
            words.append(w)
        return tuple(words)

    @staticmethod
    def _apply_slice(w: tuple[str, ...], s: Slice, r: int) -> tuple[str, ...]:
        g, p = s.gen, s.pos
        if g == "id":
            return w
        if g in _CUP_MAKES:
            if p > len(w):
                raise WidthMismatchError(f"slice {r}: cup at {p} beyond width {len(w)}")
            return w[:p] + _CUP_MAKES[g] + w[p:]
        if p + 2 > len(w):
            raise WidthMismatchError(f"slice {r}: {g} at {p} beyond width {len(w)}")
        pair = (w[p], w[p + 1])
        if g in ("X+", "X-"):
            if pair != (DOWN, DOWN):
                raise OrientationMismatchError(
                    f"slice {r}: {g} needs two downward strands at {p}, found {pair}"
                )
            return w
        want = _CAP_WANTS[g]
        if pair != want:
            raise OrientationMismatchError(
                f"slice {r}: {g} expects {want} at {p}, found {pair}"
            )
        return w[:p] + w[p + 2 :]

    # -- arc structure ---------------------------------------------------

    def _build_arcs(self) -> None:
        # One sweep down the levels.  Each port holds an integer label, born
        # fresh on the top edge, at a cup (both legs) and at a crossing's
        # under-out port; a cap merges its two labels, keeping the smaller.
        # Labels are born in port order, so numbering the merged classes by
        # their least label numbers the arcs by their first port.
        labels = list(range(len(self.top)))
        parent = list(labels)
        rows = [labels]
        raw = []  # per crossing: row, pos, sign, its three ports, their labels
        for r, s in enumerate(self.slices):
            g, p = s.gen, s.pos
            if g == "X+" or g == "X-":
                fresh = len(parent)
                parent.append(fresh)
                if g == "X+":
                    over, under = labels[p + 1], labels[p]
                    labels = labels[:p] + [over, fresh] + labels[p + 2:]
                    raw.append((r, p, +1, (r, p + 1), (r, p), (r + 1, p + 1),
                                over, under, fresh))
                else:
                    over, under = labels[p], labels[p + 1]
                    labels = labels[:p] + [fresh, over] + labels[p + 2:]
                    raw.append((r, p, -1, (r, p), (r, p + 1), (r + 1, p),
                                over, under, fresh))
            elif g in _CUP_MAKES:
                fresh = len(parent)
                parent.append(fresh)
                labels = labels[:p] + [fresh, fresh] + labels[p:]
            elif g in _CAP_WANTS:
                x, y = _find(parent, labels[p]), _find(parent, labels[p + 1])
                parent[max(x, y)] = min(x, y)
                labels = labels[:p] + labels[p + 2:]
            rows.append(labels)
        arc: list[int] = []  # label -> arc; a parent precedes its children
        n = 0
        for label, up in enumerate(parent):
            if up == label:
                arc.append(n)
                n += 1
            else:
                arc.append(arc[up])
        self.n_arcs = n
        self.levels = tuple(tuple(map(arc.__getitem__, row)) for row in rows)
        self.crossings = tuple(
            Crossing(*c[:6], arc[c[6]], arc[c[7]], arc[c[8]]) for c in raw)

    @cached_property
    def arc_of(self) -> dict[tuple[int, int], int]:
        """Arc index of each (level, position) port."""
        return {(r, i): a for r, row in enumerate(self.levels)
                for i, a in enumerate(row)}

    @cached_property
    def arcs(self) -> tuple[Arc, ...]:
        ports: list[list[tuple[int, int]]] = [[] for _ in range(self.n_arcs)]
        for r, row in enumerate(self.levels):
            for i, a in enumerate(row):
                ports[a].append((r, i))
        return tuple(Arc(k, tuple(ps)) for k, ps in enumerate(ports))

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

    def with_slices(self, slices: Sequence[Slice]) -> "SlicedTangleDiagram":
        return SlicedTangleDiagram(self.top, slices)

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

    # -- strand traversal -------------------------------------------------

    def traverse_strand(self, start: tuple[int, int, str]):
        """Walk along one strand from a (level, pos, direction) seed.

        Yields undercrossing events (crossing, entering_arc, leaving_arc) in
        the order met.  Stops at a boundary or when the walk closes up.
        Direction is "v" (downwards) or "^" (upwards).
        """
        seed = start
        level, pos, d = start
        events = []
        visited = set()
        nlast = len(self.words) - 1
        while True:
            state = (level, pos, d)
            if state in visited:
                break  # closed component
            visited.add(state)
            if d == DOWN:
                if level == nlast:
                    break
                s = self.slices[level]
                g, p = s.gen, s.pos
                a, b = _TOP_ARITY[g], _BOT_ARITY[g]
                if g == "id" or pos < p:
                    level, pos = level + 1, pos
                elif pos >= p + a:
                    level, pos = level + 1, pos - a + b
                elif g == "X+":
                    if pos == p:  # under passage
                        events.append((self._crossing_at(level), level, pos))
                        level, pos = level + 1, p + 1
                    else:
                        level, pos = level + 1, p
                elif g == "X-":
                    if pos == p + 1:
                        events.append((self._crossing_at(level), level, pos))
                        level, pos = level + 1, p
                    else:
                        level, pos = level + 1, p + 1
                elif g == "capR":
                    pos, d = p + 1, UP  # down the left leg, up the right
                elif g == "capL":
                    pos, d = p, UP
                else:
                    raise DiagramError("downward flow into a cup leg")
            else:
                if level == 0:
                    break
                s = self.slices[level - 1]
                g, p = s.gen, s.pos
                a, b = _TOP_ARITY[g], _BOT_ARITY[g]
                if g == "id" or pos < p:
                    level -= 1
                elif pos >= p + b:
                    level, pos = level - 1, pos - b + a
                elif g == "cupR":
                    pos, d = p, DOWN  # up the right leg, down the left
                elif g == "cupL":
                    pos, d = p + 1, DOWN
                else:
                    raise DiagramError("upward flow into a crossing or cap")
            if (level, pos, d) == seed:
                break
        return events

    def _crossing_at(self, row: int) -> Crossing:
        for c in self.crossings:
            if c.row == row:
                return c
        raise DiagramError(f"no crossing at row {row}")

    # -- serialization ----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "top": list(self.top),
            "slices": [{"gen": s.gen, "pos": s.pos} for s in self.slices],
        }

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


def diagram_from_json(obj: dict) -> SlicedTangleDiagram:
    return SlicedTangleDiagram(
        obj["top"], [Slice(s["gen"], s["pos"]) for s in obj["slices"]]
    )


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
    try:
        return SlicedTangleDiagram(top, slices)
    except (WidthMismatchError, OrientationMismatchError) as exc:
        raise type(exc)(f"{exc}") from None


def serialize_tangle(d: SlicedTangleDiagram) -> str:
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


def evaluate_word(group, orientations: Sequence[str], elements: Sequence[int]) -> int:
    """e(w): multiply boundary colours left to right, starring up strands."""
    return Enhancement(tuple(orientations), tuple(elements)).evaluation(group)


# ----------------------------------------------------------------------
# catalog builders
# ----------------------------------------------------------------------


def single_strand(orientation: str = DOWN) -> SlicedTangleDiagram:
    return SlicedTangleDiagram((orientation,))


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


def trefoil_plus_string() -> SlicedTangleDiagram:
    """String trefoil with three positive crossings (writhe +3)."""
    slices = [Slice("cupR", 1), Slice("X+", 0), Slice("X+", 0), Slice("X+", 0), Slice("capR", 1)]
    return SlicedTangleDiagram((DOWN,), slices)


def trefoil_minus_string() -> SlicedTangleDiagram:
    """Mirror string trefoil with three negative crossings (writhe -3)."""
    slices = [Slice("cupR", 1), Slice("X-", 0), Slice("X-", 0), Slice("X-", 0), Slice("capR", 1)]
    return SlicedTangleDiagram((DOWN,), slices)


def catalog_names() -> list[str]:
    """Names of the diagrams shipped with the package."""
    from importlib import resources

    root = resources.files(__package__) / "catalog"
    return sorted(p.name[:-4] for p in root.iterdir() if p.name.endswith(".tng"))


def load_catalog(name: str) -> SlicedTangleDiagram:
    """Load a shipped diagram by name (see catalog_names)."""
    from importlib import resources

    path = resources.files(__package__) / "catalog" / f"{name}.tng"
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise DiagramError(
            f"no catalog diagram {name!r}; available: {', '.join(catalog_names())}"
        ) from None
    return parse_tangle(text)


def writhe(d: SlicedTangleDiagram) -> int:
    return d.writhe


def arcs(d: SlicedTangleDiagram) -> tuple[Arc, ...]:
    return d.arcs


# ----------------------------------------------------------------------
# Reidemeister move neighbours
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class MovePair:
    """Two diagrams differing by one named local relation."""

    tag: str
    before: SlicedTangleDiagram
    after: SlicedTangleDiagram


def _snake_templates(orient: str, i: int) -> list[tuple[str, list[tuple[str, int]]]]:
    if orient == DOWN:
        return [
            ("R0A", [("cupR", i), ("capL", i + 1)]),  # excursion to the left
            ("R0B", [("cupL", i + 1), ("capR", i)]),  # excursion to the right
        ]
    return [
        ("R0A", [("cupL", i), ("capR", i + 1)]),
        ("R0B", [("cupR", i + 1), ("capL", i)]),
    ]


def _kink_templates(i: int) -> dict[str, list[tuple[str, int]]]:
    return {
        "+R": [("cupR", i + 1), ("X+", i), ("capR", i + 1)],
        "+L": [("cupL", i), ("X+", i + 1), ("capL", i)],
        "-R": [("cupR", i + 1), ("X-", i), ("capR", i + 1)],
        "-L": [("cupL", i), ("X-", i + 1), ("capL", i)],
    }


def _r2b_templates(i: int) -> list[list[tuple[str, int]]]:
    # up strand at i, down strand at i+1
    return [
        [("cupR", i + 2), ("X+", i + 1), ("capL", i),
         ("cupL", i), ("X-", i + 1), ("capR", i + 2)],
        [("cupR", i + 2), ("X-", i + 1), ("capL", i),
         ("cupL", i), ("X+", i + 1), ("capR", i + 2)],
    ]


def _r2c_templates(i: int) -> list[list[tuple[str, int]]]:
    # down strand at i, up strand at i+1
    return [
        [("cupL", i), ("X-", i + 1), ("capR", i + 2),
         ("cupR", i + 2), ("X+", i + 1), ("capL", i)],
        [("cupL", i), ("X+", i + 1), ("capR", i + 2),
         ("cupR", i + 2), ("X-", i + 1), ("capL", i)],
    ]


def _rotation_forms(sign: str, p: int) -> tuple[list[tuple[str, int]], list[tuple[str, int]]]:
    x = "X+" if sign == "+" else "X-"
    left = [("cupL", p), ("cupL", p + 1), (x, p + 2), ("capR", p + 3), ("capR", p + 2)]
    right = [("cupR", p + 2), ("cupR", p + 3), (x, p + 2), ("capL", p + 1), ("capL", p)]
    return left, right


def _insert(d: SlicedTangleDiagram, level: int, template: list[tuple[str, int]]):
    new = list(d.slices[:level]) + [Slice(g, p) for g, p in template] + list(
        d.slices[level:]
    )
    return d.with_slices(new)


def _delete(d: SlicedTangleDiagram, row: int, count: int):
    new = list(d.slices[:row]) + list(d.slices[row + count :])
    return d.with_slices(new)


def _scan_template(d: SlicedTangleDiagram, template: list[tuple[str, int]]):
    """Rows where the template occurs, matching relative positions."""
    hits = []
    tp0 = template[0][1]
    for row in range(len(d.slices) - len(template) + 1):
        base = d.slices[row].pos - tp0
        if base < 0:
            continue
        ok = True
        for k, (g, p) in enumerate(template):
            s = d.slices[row + k]
            if s.gen != g or s.pos != p + base:
                ok = False
                break
        if ok:
            hits.append((row, base))
    return hits


def move_neighbours(d: SlicedTangleDiagram, moves: str = "unframed") -> list[MovePair]:
    """All diagrams one listed relation away from d.

    moves is "unframed" (R1 allowed) or "framed" (R1' instead of R1).
    """
    if moves not in ("unframed", "framed"):
        raise DiagramError(f"unknown move set {moves!r}")
    out: list[MovePair] = []
    seen: set = set()

    def emit(tag: str, after: SlicedTangleDiagram) -> None:
        key = (tag, after.top, after.slices)
        if key not in seen and after.slices != d.slices:
            seen.add(key)
            out.append(MovePair(tag, d, after))

    nrows = len(d.slices)

    # identity move: insert a trivial slice anywhere, delete existing ones
    for level in range(nrows + 1):
        emit("identity-move", _insert(d, level, [("id", 0)]))
    for row, s in enumerate(d.slices):
        if s.gen == "id":
            emit("identity-move", _delete(d, row, 1))

    # interchange move: swap adjacent slices with disjoint support
    for row in range(nrows - 1):
        s1, s2 = d.slices[row], d.slices[row + 1]
        a1, b1 = _TOP_ARITY[s1.gen], _BOT_ARITY[s1.gen]
        a2 = _TOP_ARITY[s2.gen]
        b2 = _BOT_ARITY[s2.gen]
        if s1.gen == "id" or s2.gen == "id":
            swapped = [s2, s1]
        elif s2.pos + a2 <= s1.pos:
            swapped = [s2, Slice(s1.gen, s1.pos + b2 - a2)]
        elif s2.pos >= s1.pos + b1:
            swapped = [Slice(s2.gen, s2.pos - b1 + a1), s1]
        else:
            continue
        new = list(d.slices)
        new[row : row + 2] = swapped
        emit("interchange-move", d.with_slices(new))

    # snakes R0A / R0B
    for level, w in enumerate(d.words):
        for i, o in enumerate(w):
            for tag, tpl in _snake_templates(o, i):
                emit(tag, _insert(d, level, tpl))
    for tag_orient in (DOWN, UP):
        for tag, tpl in _snake_templates(tag_orient, 0):
            for row, base in _scan_template(d, tpl):
                emit(tag, _delete(d, row, 2))

    # crossing rotations R0C / R0D
    for sign, tag in (("+", "R0C"), ("-", "R0D")):
        left, right = _rotation_forms(sign, 0)
        for row, base in _scan_template(d, left):
            repl = [Slice(g, p + base) for g, p in _rotation_forms(sign, 0)[1]]
            new = list(d.slices)
            new[row : row + 5] = repl
            emit(tag, d.with_slices(new))
        for row, base in _scan_template(d, right):
            repl = [Slice(g, p + base) for g, p in _rotation_forms(sign, 0)[0]]
            new = list(d.slices)
            new[row : row + 5] = repl
            emit(tag, d.with_slices(new))

    # kinks: R1 for unframed, cancelling kink pairs R1' for framed
    kink_keys = ("+R", "+L", "-R", "-L")
    if moves == "unframed":
        for level, w in enumerate(d.words):
            for i, o in enumerate(w):
                if o != DOWN:
                    continue
                for tpl in _kink_templates(i).values():
                    emit("R1", _insert(d, level, tpl))
        for key in kink_keys:
            tpl = _kink_templates(0)[key]
            for row, base in _scan_template(d, tpl):
                emit("R1", _delete(d, row, 3))
    else:
        pairs = [("+R", "-R"), ("-R", "+R"), ("+L", "-L"), ("-L", "+L")]
        for level, w in enumerate(d.words):
            for i, o in enumerate(w):
                if o != DOWN:
                    continue
                tpls = _kink_templates(i)
                for k1, k2 in pairs:
                    emit("R1'", _insert(d, level, tpls[k1] + tpls[k2]))
        for k1, k2 in pairs:
            tpl = _kink_templates(0)[k1] + _kink_templates(0)[k2]
            for row, base in _scan_template(d, tpl):
                emit("R1'", _delete(d, row, 6))

    # R2A: opposite crossings on the same pair of strands
    for level, w in enumerate(d.words):
        for i in range(len(w) - 1):
            if w[i] == DOWN and w[i + 1] == DOWN:
                emit("R2A", _insert(d, level, [("X+", i), ("X-", i)]))
                emit("R2A", _insert(d, level, [("X-", i), ("X+", i)]))
    for row in range(nrows - 1):
        s1, s2 = d.slices[row], d.slices[row + 1]
        if (
            s1.pos == s2.pos
            and {s1.gen, s2.gen} == {"X+", "X-"}
        ):
            emit("R2A", _delete(d, row, 2))

    # R2B / R2C: antiparallel second Reidemeister moves
    for level, w in enumerate(d.words):
        for i in range(len(w) - 1):
            if w[i] == UP and w[i + 1] == DOWN:
                for tpl in _r2b_templates(i):
                    emit("R2B", _insert(d, level, tpl))
            if w[i] == DOWN and w[i + 1] == UP:
                for tpl in _r2c_templates(i):
                    emit("R2C", _insert(d, level, tpl))
    for tag, tpls in (("R2B", _r2b_templates(0)), ("R2C", _r2c_templates(0))):
        for tpl in tpls:
            shift = -min(p for _, p in tpl)
            tpl0 = [(g, p + shift) for g, p in tpl]
            for row, base in _scan_template(d, tpl0):
                emit(tag, _delete(d, row, 6))

    # R3: braid relation on three strands
    for row in range(nrows - 2):
        s1, s2, s3 = d.slices[row : row + 3]
        if not (s1.gen == s2.gen == s3.gen == "X+"):
            continue
        p = s1.pos
        if s2.pos == p + 1 and s3.pos == p:
            new = list(d.slices)
            new[row : row + 3] = [Slice("X+", p + 1), Slice("X+", p), Slice("X+", p + 1)]
            emit("R3", d.with_slices(new))
        elif p >= 1 and s2.pos == p - 1 and s3.pos == p:
            new = list(d.slices)
            new[row : row + 3] = [Slice("X+", p - 1), Slice("X+", p), Slice("X+", p - 1)]
            emit("R3", d.with_slices(new))

    return out
