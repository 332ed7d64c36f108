"""Finite groups as dense index tables.

Elements of a finite group are plain integers 0..n-1 indexing a tuple of
display labels; multiplication is a dense n x n Cayley table (numpy int32)
for order <= TABLE_LIMIT and an on-the-fly callable with memoized inverses
above that.  Every higher layer (crossed modules, racks, Reidemeister pairs,
the state-sum engine) speaks this index language only, so all exact
arithmetic reduces to integer table lookups.

Composition convention for permutations: apply the LEFT factor first,
(p * q)(i) = q(p(i)).  Cycle labels are 1-based, e.g. "(1 2 3)(4 5)".
Matrices over Z/p are written row-major as "(a b; c d)"; the identity
matrix is labelled "I" and the permutation identity "id".
"""

from __future__ import annotations

import csv
import itertools
import re

import numpy as np

from .errors import (
    GroupMismatchError,
    InvalidModulusError,
    NotAGroupError,
    NotCentralError,
    NotClosedError,
    SizeLimitError,
)

TABLE_LIMIT = 1000
ASSOC_EXHAUSTIVE_LIMIT = 200


# ---------------------------------------------------------------------------
# permutation and matrix helpers
# ---------------------------------------------------------------------------

def perm_compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """Left factor first: (p*q)(i) = q(p(i))."""
    return tuple(q[p[i]] for i in range(len(p)))


def perm_inverse(p: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def cycle_label(p: tuple[int, ...]) -> str:
    """Cycle notation, 1-based; identity is "id"."""
    seen = [False] * len(p)
    parts = []
    for start in range(len(p)):
        if seen[start] or p[start] == start:
            seen[start] = True
            continue
        cyc = [start]
        seen[start] = True
        j = p[start]
        while j != start:
            cyc.append(j)
            seen[j] = True
            j = p[j]
        parts.append("(" + " ".join(str(k + 1) for k in cyc) + ")")
    return "".join(parts) if parts else "id"


def parse_cycles(text: str, n: int) -> tuple[int, ...]:
    """Parse cycle notation like "(1 2 3)(4 5)" into a permutation of 0..n-1.

    Cycles may also be comma-separated.  "id", "e" and "()" denote the
    identity.  Several cycles are composed left factor first (irrelevant for
    the usual disjoint case).
    """
    text = text.strip()
    if text in {"id", "e", "()", "1"}:
        return tuple(range(n))
    if not re.fullmatch(r"(\(\s*\d+(?:[\s,]+\d+)*\s*\))+", text):
        raise NotAGroupError(f"cannot parse permutation {text!r}")
    perm = tuple(range(n))
    for group in re.findall(r"\(([^)]*)\)", text):
        entries = [int(t) - 1 for t in re.split(r"[\s,]+", group.strip()) if t]
        if len(set(entries)) != len(entries) or any(not 0 <= i < n for i in entries):
            raise NotAGroupError(f"bad cycle {group!r} for degree {n}")
        cyc = list(range(n))
        for a, b in zip(entries, entries[1:] + entries[:1]):
            cyc[a] = b
        perm = perm_compose(perm, tuple(cyc))
    return perm


def mat_label(m: tuple[int, int, int, int]) -> str:
    if m == (1, 0, 0, 1):
        return "I"
    a, b, c, d = m
    return f"({a} {b}; {c} {d})"


# ---------------------------------------------------------------------------
# FiniteGroup
# ---------------------------------------------------------------------------

class FiniteGroup:
    """A finite group on indices 0..order-1.

    Either table-backed (order <= TABLE_LIMIT) or lazy with a multiplication
    callable on opaque element objects.  Instances are immutable.
    """

    def __init__(self, name: str, labels: tuple[str, ...],
                 table: np.ndarray | None = None,
                 elems: tuple | None = None, mul_fn=None, inv_fn=None,
                 identity: int | None = None, validate: bool = False):
        self.name = name
        self.labels = tuple(labels)
        self.order = len(self.labels)
        if table is not None:
            table = np.ascontiguousarray(np.asarray(table, dtype=np.int32))
            if table.shape != (self.order, self.order):
                raise NotAGroupError(
                    f"table shape {table.shape} does not match {self.order} labels")
            table.setflags(write=False)
        self._table = table
        self._elems = elems
        self._mul_fn = mul_fn
        self._inv_fn = inv_fn
        self._elem_index = {e: i for i, e in enumerate(elems)} if elems else None
        self._inv_memo: dict[int, int] = {}
        self._order_memo: dict[int, int] = {}
        if identity is None:
            identity = self._find_identity()
        self.identity = identity
        self._inv_table: np.ndarray | None = None
        if table is not None:
            inv = np.empty(self.order, dtype=np.int32)
            rows, cols = np.nonzero(table == self.identity)
            inv[rows] = cols
            inv.setflags(write=False)
            self._inv_table = inv
        if validate:
            self._validate_axioms()

    # -- construction helpers ------------------------------------------------

    def _find_identity(self) -> int:
        if self._table is not None:
            idx = np.arange(self.order)
            for e in range(self.order):
                if np.array_equal(self._table[e], idx) and np.array_equal(self._table[:, e], idx):
                    return e
            raise NotAGroupError("no two-sided identity in table")
        for e in range(self.order):
            if all(self.mul(e, x) == x and self.mul(x, e) == x
                   for x in range(min(self.order, 50))):
                return e
        raise NotAGroupError("no identity found")

    def _validate_axioms(self) -> None:
        if self._table is None:
            return
        t = self._table
        n = self.order
        if t.min() < 0 or t.max() >= n:
            raise NotAGroupError("table entries out of range")
        # Latin square: every row/column a bijection (gives inverses).
        idx = np.arange(n)
        for g in range(n):
            if not np.array_equal(np.sort(t[g]), idx):
                raise NotAGroupError(f"row {g} ({self.labels[g]}) is not a bijection")
            if not np.array_equal(np.sort(t[:, g]), idx):
                raise NotAGroupError(f"column {g} ({self.labels[g]}) is not a bijection")
        # Associativity: exhaustive up to a budget, sampled above.
        if n <= ASSOC_EXHAUSTIVE_LIMIT:
            lhs = t[t, :]          # lhs[a,b,c] = (ab)c
            rhs = t[:, t]          # rhs[a,b,c] = a(bc)
            bad = np.argwhere(lhs != rhs)
            if len(bad):
                a, b, c = (int(x) for x in bad[0])
                raise NotAGroupError(
                    f"associativity fails at ({self.labels[a]}, {self.labels[b]}, "
                    f"{self.labels[c]}): ({a}{b}){c} != {a}({b}{c})")
        else:
            rng = np.random.default_rng(0)
            a, b, c = (rng.integers(0, n, 100_000) for _ in range(3))
            bad = np.nonzero(t[t[a, b], c] != t[a, t[b, c]])[0]
            if len(bad):
                i = int(bad[0])
                raise NotAGroupError(
                    f"associativity fails at indices ({a[i]}, {b[i]}, {c[i]})")

    # -- basic operations ----------------------------------------------------

    @property
    def table(self) -> np.ndarray:
        if self._table is None:
            raise SizeLimitError(f"{self.name} (order {self.order}) has no dense table")
        return self._table

    @property
    def inv_table(self) -> np.ndarray:
        if self._inv_table is None:
            raise SizeLimitError(f"{self.name} (order {self.order}) has no dense table")
        return self._inv_table

    def mul(self, a: int, b: int) -> int:
        if self._table is not None:
            return int(self._table[a, b])
        return self._elem_index[self._mul_fn(self._elems[a], self._elems[b])]

    def inv(self, a: int) -> int:
        if self._inv_table is not None:
            return int(self._inv_table[a])
        if a in self._inv_memo:
            return self._inv_memo[a]
        if self._inv_fn is not None:
            res = self._elem_index[self._inv_fn(self._elems[a])]
        else:
            res = next(b for b in range(self.order) if self.mul(a, b) == self.identity)
        self._inv_memo[a] = res
        return res

    def conj(self, g: int, h: int) -> int:
        """g h g^{-1}."""
        return self.mul(self.mul(g, h), self.inv(g))

    def comm(self, g: int, h: int) -> int:
        """[g, h] = g h g^{-1} h^{-1}."""
        return self.mul(self.conj(g, h), self.inv(h))

    def power(self, g: int, k: int) -> int:
        if k < 0:
            return self.power(self.inv(g), -k)
        res = self.identity
        while k:
            res = self.mul(res, g)
            k -= 1
        return res

    def element_order(self, g: int) -> int:
        if g in self._order_memo:
            return self._order_memo[g]
        k, x = 1, g
        while x != self.identity:
            x = self.mul(x, g)
            k += 1
        self._order_memo[g] = k
        return k

    def word(self, letters) -> int:
        """Product of an iterable of element indices, left to right."""
        res = self.identity
        for g in letters:
            res = self.mul(res, g)
        return res

    # vectorized forms (table-backed groups only)

    def mul_arr(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self.table[a, b]

    def inv_arr(self, a: np.ndarray) -> np.ndarray:
        return self.inv_table[a]

    def conj_arr(self, g: np.ndarray, h: np.ndarray) -> np.ndarray:
        t = self.table
        return t[t[g, h], self.inv_table[g]]

    def comm_arr(self, g: np.ndarray, h: np.ndarray) -> np.ndarray:
        t = self.table
        return t[t[t[g, h], self.inv_table[g]], self.inv_table[h]]

    # -- structure -----------------------------------------------------------

    @property
    def is_abelian(self) -> bool:
        if self._table is not None:
            return bool(np.array_equal(self._table, self._table.T))
        return all(self.mul(a, b) == self.mul(b, a)
                   for a in range(self.order) for b in range(self.order))

    def center(self) -> tuple[int, ...]:
        t = self.table
        return tuple(int(g) for g in range(self.order)
                     if np.array_equal(t[g], t[:, g]))

    def label(self, i: int) -> str:
        return self.labels[i]

    def element_by_label(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise GroupMismatchError(f"{label!r} is not an element of {self.name}") from None

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name}, order {self.order})"

    def __eq__(self, other) -> bool:
        return self is other

    def __hash__(self) -> int:
        return id(self)

    def to_json(self) -> dict:
        return {"name": self.name, "order": self.order, "labels": list(self.labels)}


# ---------------------------------------------------------------------------
# standard groups
# ---------------------------------------------------------------------------

def trivial_group(name: str = "1") -> FiniteGroup:
    return FiniteGroup(name, ("1",), table=np.zeros((1, 1), dtype=np.int32))


def cyclic_group(n: int, name: str | None = None) -> FiniteGroup:
    if n < 1:
        raise SizeLimitError("cyclic_group needs n >= 1")
    if n > TABLE_LIMIT:
        raise SizeLimitError(f"cyclic_group(n={n}) exceeds the dense-table limit")
    table = (np.arange(n)[:, None] + np.arange(n)[None, :]) % n
    return FiniteGroup(name or f"Z{n}", tuple(str(i) for i in range(n)), table=table)


def symmetric_group(n: int) -> FiniteGroup:
    if not 1 <= n <= 8:
        raise SizeLimitError(f"symmetric_group supports 1 <= n <= 8, got {n}")
    elems = tuple(itertools.permutations(range(n)))
    labels = tuple(cycle_label(p) for p in elems)
    name = f"S{n}"
    if len(elems) > TABLE_LIMIT:
        return FiniteGroup(name, labels, elems=elems,
                           mul_fn=perm_compose, inv_fn=perm_inverse,
                           identity=0)
    # all products at once: (p*q)(k) = q(p(k)), i.e. row i, column j holds
    # E[j][E[i]]; read each product back in base n, where the lexicographic
    # order of permutations is numeric order, so searchsorted finds its index
    perms = np.array(elems, dtype=np.int32).reshape(len(elems), n)
    products = perms[np.arange(len(elems))[None, :, None], perms[:, None, :]]
    digits = n ** np.arange(n - 1, -1, -1)
    table = np.searchsorted(perms @ digits, products @ digits).astype(np.int32)
    g = FiniteGroup(name, labels, table=table, identity=0)
    g.permutations = elems
    return g


def _is_prime(p: int) -> bool:
    return p >= 2 and all(p % d for d in range(2, int(p ** 0.5) + 1))


def gl2(p: int) -> FiniteGroup:
    """GL(2, p) for prime p <= 7, elements in row-major scan order."""
    if not _is_prime(p) or p > 7:
        raise InvalidModulusError(f"gl2 needs a prime p <= 7, got {p}")
    mats = [(a, b, c, d)
            for a in range(p) for b in range(p) for c in range(p) for d in range(p)
            if (a * d - b * c) % p != 0]
    labels = tuple(mat_label(m) for m in mats)
    n = len(mats)
    name = f"GL(2,{p})"

    def mmul(m1, m2):
        a, b, c, d = m1
        e, f, g, h = m2
        return ((a * e + b * g) % p, (a * f + b * h) % p,
                (c * e + d * g) % p, (c * f + d * h) % p)

    def minv(m):
        a, b, c, d = m
        det = (a * d - b * c) % p
        di = pow(det, -1, p)
        return ((d * di) % p, (-b * di) % p, (-c * di) % p, (a * di) % p)

    if n > TABLE_LIMIT:
        g = FiniteGroup(name, labels, elems=tuple(mats), mul_fn=mmul, inv_fn=minv,
                        identity=mats.index((1, 0, 0, 1)))
        g.matrices = tuple(mats)
        g.modulus = p
        return g
    arr = np.array(mats, dtype=np.int64)            # (n, 4)
    a, b, c, d = arr.T
    # all pairwise products in one broadcast round, then index lookup
    prod = np.empty((n, n, 4), dtype=np.int64)
    prod[:, :, 0] = (np.outer(a, a) + np.outer(b, c)) % p
    prod[:, :, 1] = (np.outer(a, b) + np.outer(b, d)) % p
    prod[:, :, 2] = (np.outer(c, a) + np.outer(d, c)) % p
    prod[:, :, 3] = (np.outer(c, b) + np.outer(d, d)) % p
    enc = ((prod[:, :, 0] * p + prod[:, :, 1]) * p + prod[:, :, 2]) * p + prod[:, :, 3]
    code_to_idx = -np.ones(p ** 4, dtype=np.int32)
    codes = ((a * p + b) * p + c) * p + d
    code_to_idx[codes] = np.arange(n)
    table = code_to_idx[enc]
    g = FiniteGroup(name, labels, table=table,
                    identity=mats.index((1, 0, 0, 1)))
    g.matrices = tuple(mats)
    g.modulus = p
    return g


def direct_product(g: FiniteGroup, h: FiniteGroup, name: str | None = None) -> FiniteGroup:
    n, m = g.order, h.order
    if n * m > TABLE_LIMIT:
        raise SizeLimitError("direct product exceeds the dense-table limit")
    labels = tuple(f"({g.labels[i]},{h.labels[j]})" for i in range(n) for j in range(m))
    gi = np.repeat(np.arange(n), m)
    hj = np.tile(np.arange(m), n)
    table = (g.table[gi[:, None], gi[None, :]] * m + h.table[hj[:, None], hj[None, :]])
    prod = FiniteGroup(name or f"{g.name}x{h.name}", labels, table=table,
                       identity=g.identity * m + h.identity)
    prod.factors = (g, h)
    prod.pair_index = lambda i, j: i * m + j
    prod.split_index = lambda k: (k // m, k % m)
    return prod


def from_cayley_table(table, labels=None, name: str = "G") -> FiniteGroup:
    """Build and validate a group from an explicit Cayley table.

    Raises NotAGroupError with the first failing triple if the table is not
    a group.
    """
    table = np.asarray(table, dtype=np.int32)
    n = table.shape[0]
    if labels is None:
        labels = tuple(f"g{i}" for i in range(n))
    return FiniteGroup(name, tuple(labels), table=table, validate=True)


def from_cayley_csv(path, labels=None, name: str = "G") -> FiniteGroup:
    with open(path, newline="") as fh:
        rows = [[int(x) for x in row] for row in csv.reader(fh) if row]
    return from_cayley_table(rows, labels=labels, name=name)


def cayley_to_csv(g: FiniteGroup, path) -> None:
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(g.table.tolist())


# ---------------------------------------------------------------------------
# homomorphisms
# ---------------------------------------------------------------------------

class GroupHom:
    """A map between table-backed finite groups, stored as an index array."""

    def __init__(self, source: FiniteGroup, target: FiniteGroup, mapping,
                 name: str = ""):
        self.source = source
        self.target = target
        self.mapping = np.ascontiguousarray(np.asarray(mapping, dtype=np.int32))
        self.mapping.setflags(write=False)
        self.name = name
        if len(self.mapping) != source.order:
            raise GroupMismatchError("mapping length does not match source order")

    def __call__(self, i: int) -> int:
        return int(self.mapping[i])

    def arr(self, a: np.ndarray) -> np.ndarray:
        return self.mapping[a]

    def first_violation(self) -> tuple[int, int] | None:
        m = self.mapping
        lhs = m[self.source.table]
        rhs = self.target.table[m[:, None], m[None, :]]
        bad = np.argwhere(lhs != rhs)
        if len(bad):
            return int(bad[0][0]), int(bad[0][1])
        return None

    @property
    def is_homomorphism(self) -> bool:
        return (int(self.mapping[self.source.identity]) == self.target.identity
                and self.first_violation() is None)

    def assert_valid(self) -> None:
        if int(self.mapping[self.source.identity]) != self.target.identity:
            raise GroupMismatchError(f"{self.name or 'hom'} does not fix the identity")
        bad = self.first_violation()
        if bad is not None:
            a, b = bad
            raise GroupMismatchError(
                f"{self.name or 'hom'} fails multiplicativity at "
                f"({self.source.labels[a]}, {self.source.labels[b]})")

    def then(self, other: "GroupHom") -> "GroupHom":
        if other.source is not self.target:
            raise GroupMismatchError("homs are not composable")
        return GroupHom(self.source, other.target, other.mapping[self.mapping])

    def kernel(self) -> tuple[int, ...]:
        return tuple(int(i) for i in
                     np.nonzero(self.mapping == self.target.identity)[0])

    def image(self) -> tuple[int, ...]:
        return tuple(int(i) for i in np.unique(self.mapping))

    @property
    def is_surjective(self) -> bool:
        return len(np.unique(self.mapping)) == self.target.order

    @property
    def is_injective(self) -> bool:
        return len(np.unique(self.mapping)) == self.source.order


def identity_hom(g: FiniteGroup) -> GroupHom:
    return GroupHom(g, g, np.arange(g.order), name=f"id_{g.name}")


# ---------------------------------------------------------------------------
# subgroups and quotients
# ---------------------------------------------------------------------------

def subgroup_closure(g: FiniteGroup, generators) -> tuple[int, ...]:
    """Indices of the subgroup generated by `generators`, sorted."""
    closed = {g.identity}
    frontier = list(set(generators) | {g.identity})
    closed.update(frontier)
    while frontier:
        nxt = []
        for a in frontier:
            for b in list(closed):
                for c in (g.mul(a, b), g.mul(b, a)):
                    if c not in closed:
                        closed.add(c)
                        nxt.append(c)
        frontier = nxt
    return tuple(sorted(closed))


def verify_subgroup(g: FiniteGroup, indices) -> tuple[int, ...]:
    idx = tuple(sorted(set(int(i) for i in indices)))
    inside = set(idx)
    if g.identity not in inside:
        raise NotClosedError("subset does not contain the identity")
    for a in idx:
        if g.inv(a) not in inside:
            raise NotClosedError(f"subset not closed under inverse at {g.labels[a]}")
        for b in idx:
            if g.mul(a, b) not in inside:
                raise NotClosedError(
                    f"subset not closed: {g.labels[a]} * {g.labels[b]} escapes")
    return idx


def subgroup(g: FiniteGroup, indices, name: str = "") -> tuple[FiniteGroup, GroupHom]:
    """The subgroup on the given (verified) indices, with its embedding."""
    idx = verify_subgroup(g, indices)
    pos = {e: i for i, e in enumerate(idx)}
    n = len(idx)
    table = np.empty((n, n), dtype=np.int32)
    for i, a in enumerate(idx):
        for j, b in enumerate(idx):
            table[i, j] = pos[g.mul(a, b)]
    h = FiniteGroup(name or f"{g.name}_sub{n}",
                    tuple(g.labels[e] for e in idx), table=table,
                    identity=pos[g.identity])
    h.parent_indices = idx
    embed = GroupHom(h, g, np.array(idx, dtype=np.int32), name=f"{h.name} into {g.name}")
    return h, embed


def quotient_by_normal(g: FiniteGroup, normal_indices, name: str = "") \
        -> tuple[FiniteGroup, GroupHom]:
    """Quotient by a verified normal subgroup; canonical rep = least index."""
    nset = verify_subgroup(g, normal_indices)
    inside = set(nset)
    for h in nset:
        for x in range(g.order):
            if g.conj(x, h) not in inside:
                raise NotClosedError(
                    f"subgroup is not normal: {g.labels[x]} conjugates "
                    f"{g.labels[h]} outside")
    narr = np.array(nset, dtype=np.int32)
    rep = g.table[:, narr].min(axis=1)           # rep[x] = min of coset xN
    reps = np.unique(rep)
    relabel = -np.ones(g.order, dtype=np.int32)
    relabel[reps] = np.arange(len(reps))
    proj_map = relabel[rep]
    table = proj_map[g.table[reps[:, None], reps[None, :]]]
    labels = tuple(f"[{g.labels[int(r)]}]" for r in reps)
    q = FiniteGroup(name or f"{g.name}/N{len(nset)}", labels, table=table,
                    identity=int(relabel[rep[g.identity]]))
    q.coset_reps = tuple(int(r) for r in reps)
    proj = GroupHom(g, q, proj_map, name=f"{g.name} onto {q.name}")
    return q, proj


def central_quotient(g: FiniteGroup, subset=None, name: str = "") \
        -> tuple[FiniteGroup, GroupHom]:
    """Quotient by a central subgroup (the full center when subset is None)."""
    idx = g.center() if subset is None else verify_subgroup(g, subset)
    t = g.table
    for z in idx:
        if not np.array_equal(t[z], t[:, z]):
            bad = int(np.nonzero(t[z] != t[:, z])[0][0])
            raise NotCentralError(
                f"{g.labels[z]} does not commute with {g.labels[bad]}")
    return quotient_by_normal(g, idx, name=name)


def pgl2(p: int) -> tuple[FiniteGroup, GroupHom]:
    """PGL(2, p) as the central quotient of gl2(p), with the projection."""
    return central_quotient(gl2(p), name=f"PGL(2,{p})")


def commutator_subgroup(g: FiniteGroup) -> tuple[FiniteGroup, GroupHom]:
    """The derived subgroup [G, G] with its embedding into G."""
    t = g.table
    a = np.repeat(np.arange(g.order), g.order)
    b = np.tile(np.arange(g.order), g.order)
    gens = np.unique(g.comm_arr(a, b))
    idx = subgroup_closure(g, (int(x) for x in gens))
    return subgroup(g, idx, name=f"{g.name}'")


def abelianization(g: FiniteGroup) -> tuple[FiniteGroup, GroupHom]:
    """G / [G, G] with the projection."""
    derived, _ = commutator_subgroup(g)
    q, proj = quotient_by_normal(g, derived.parent_indices, name=f"{g.name}^ab")
    return q, proj
