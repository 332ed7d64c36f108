"""A state-sum oracle that walks a diagram's slices one level at a time.

Test-only.  It reads a diagram's `top` and `slices` and a pair's psi, phi,
boundary, action and group tables, and nothing else: no arcs, no transfer
tables and nothing from tanglesum.engine, so the engine cannot share its
mistakes.  Each row of the walk is (top colours, colours on the current
level, E-element), and rows that agree are counted together:

- a cup gives both of its legs one colour, for each colour of G;
- a cap keeps the rows whose two legs carry the same colour;
- a crossing with overstrand X and incoming under-colour Z takes each Y
  with Z = bd(psi(X, Y))^-1 X Y X^-1 at X+ (Z = X^-1 bd(phi(X, Y))^-1 Y X
  at X-), and folds elt <- (u |> e) elt, where e is psi(X, Y) (phi(X, Y))
  and u is the product of the colours left of the crossing on the level
  above, upward strands inverted.

In X+ the overstrand enters at the right and leaves at the left; in X- it
enters at the left and leaves at the right.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter

CUPS = {"cupR": ("v", "^"), "cupL": ("^", "v")}


@functools.cache
def solutions(pair) -> dict:
    """{(sign, X, Z): [(Y, E-colour), ...]}, by scanning G for Y."""
    g, bd = pair.g, pair.xmod.boundary.mapping
    out: dict = {}
    for x, y in itertools.product(range(g.order), repeat=2):
        e = int(pair.psi[x, y])
        z = g.word((g.inv(int(bd[e])), x, y, g.inv(x)))
        out.setdefault((+1, x, z), []).append((y, e))
        e = int(pair.phi[x, y])
        z = g.word((g.inv(x), g.inv(int(bd[e])), y, x))
        out.setdefault((-1, x, z), []).append((y, e))
    return out


def oracle_matrix(d, pair, tops=None) -> dict:
    """{(top, bottom): {E element: count}} over the given top colourings
    (every top by default), keeping only keys with colourings."""
    g, e_grp, n = pair.g, pair.e, pair.g.order
    if tops is None:
        tops = itertools.product(range(n), repeat=len(d.top))
    rows = Counter((tuple(t), tuple(t), e_grp.identity) for t in tops)
    word = d.top
    table = solutions(pair)
    for s in d.slices:
        p, nxt = s.pos, Counter()
        if s.gen in CUPS:
            word = word[:p] + CUPS[s.gen] + word[p:]
            for (top, cols, elt), k in rows.items():
                for c in range(n):
                    nxt[top, cols[:p] + (c, c) + cols[p:], elt] += k
        elif s.gen in ("capR", "capL"):
            word = word[:p] + word[p + 2:]
            for (top, cols, elt), k in rows.items():
                if cols[p] == cols[p + 1]:
                    nxt[top, cols[:p] + cols[p + 2:], elt] += k
        elif s.gen in ("X+", "X-"):
            sign = 1 if s.gen == "X+" else -1
            for (top, cols, elt), k in rows.items():
                x, z = (cols[p + 1], cols[p]) if sign > 0 else cols[p:p + 2]
                u = g.word(c if o == "v" else g.inv(c)
                           for c, o in zip(cols[:p], word))
                for y, e in table.get((sign, x, z), ()):
                    out = (x, y) if sign > 0 else (y, x)
                    elt2 = e_grp.mul(pair.xmod.act(u, e), elt)
                    nxt[top, cols[:p] + out + cols[p + 2:], elt2] += k
        else:
            continue
        rows = nxt
    matrix: dict = {}
    for (top, cols, elt), k in sorted(rows.items()):
        matrix.setdefault((top, cols), {})[elt] = k
    return matrix
