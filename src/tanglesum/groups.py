"""Finite groups as dense index tables.

Elements of a finite group are plain integers 0..n-1 indexing a tuple of
display labels; multiplication is a dense n x n Cayley table (numpy int32).
The vectorised operations (mul_arr, conj_arr, comm_arr) and the n x n
gathers that build subgroups, quotients and products read the raveled
table, t.ravel()[a * n + b], one flat gather that costs about half of the
2-D fancy index t[a, b].  Their operands must be elements: a flat read
checks only that a * n + b < n * n, so an index outside 0..n-1 reads a
wrong entry instead of raising IndexError.
Factories refuse groups of order above TABLE_LIMIT before they build any
elements.  Every higher layer (crossed modules, racks, Reidemeister pairs,
the state-sum engine) speaks this index language only, so all exact
arithmetic reduces to integer table lookups.  validate_axioms sweeps the
group axioms through validation.grid_check, like every axiom sweep of the
package, and decides associativity exactly at every order (Light's test).

Composition convention for permutations: apply the LEFT factor first,
(p * q)(i) = q(p(i)).  Cycle labels are 1-based, e.g. "(1 2 3)(4 5)".
Matrices over Z/p are written row-major as "(a b; c d)"; the identity
matrix is labelled "I" and the permutation identity "id".
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property

import numpy as np

from .errors import (
    GroupMismatchError,
    InvalidModulusError,
    NotAGroupError,
    NotClosedError,
    SizeLimitError,
    TangleSumError,
)
from .validation import CheckResult, grid_check

TABLE_LIMIT = 1000


# ---------------------------------------------------------------------------
# permutation and matrix helpers
# ---------------------------------------------------------------------------

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


def row_inverse(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(inv, bad_rows) for a square table t with entries in 0..n-1.

    inv[a, t[a, b]] = b, by one flat scatter, in t's dtype: each row of inv
    inverts the permutation that row of t is.  A row of t that repeats a
    value leaves a -1 slot in its inverse; bad_rows lists those rows in
    increasing order.  Invert the columns of t by passing t.T.
    """
    n = t.shape[0]
    idx = np.arange(n, dtype=t.dtype)
    inv = np.full(n * n, -1, dtype=t.dtype)
    inv[idx[:, None] * n + t] = idx
    inv = inv.reshape(n, n)
    return inv, np.flatnonzero((inv < 0).any(axis=1))


def mat_label(m: tuple[int, int, int, int]) -> str:
    if m == (1, 0, 0, 1):
        return "I"
    a, b, c, d = m
    return f"({a} {b}; {c} {d})"


# ---------------------------------------------------------------------------
# FiniteGroup
# ---------------------------------------------------------------------------

class FiniteGroup:
    """A finite group on indices 0..order-1, given by its Cayley table.

    table[a, b] is the index of a*b and inv_table[a] that of a^-1; both are
    read-only int32 arrays.  Instances are immutable; the conjugation table
    is computed on first use and then shared by every caller.
    """

    def __init__(self, name: str, labels: tuple[str, ...], table,
                 identity: int | None = None):
        self.name = name
        self.labels = tuple(labels)
        self.order = len(self.labels)
        table = np.ascontiguousarray(np.asarray(table, dtype=np.int32))
        if table.shape != (self.order, self.order):
            raise NotAGroupError(
                f"table shape {table.shape} does not match {self.order} labels")
        table.setflags(write=False)
        self.table = table
        self._flat = table.ravel()  # a read-only view for the flat gathers
        if identity is None:
            identity = self._find_identity()
        self.identity = identity
        inv = np.argmax(table == self.identity, axis=1).astype(np.int32)
        inv.setflags(write=False)
        self.inv_table = inv

    # -- construction helpers ------------------------------------------------

    def _find_identity(self) -> int:
        idx = np.arange(self.order)
        for e in range(self.order):
            if np.array_equal(self.table[e], idx) and np.array_equal(self.table[:, e], idx):
                return e
        raise NotAGroupError("no two-sided identity in table")

    def validate_axioms(self) -> None:
        """Raise NotAGroupError unless the table is a Latin square and
        associative.

        Associativity is exact by Light's test: the middles s with
        (x s) y = x (s y) for all x, y are closed under the product, so one
        sweep per generator suffices.  Each generator is the least element
        outside the closure of those before it, so a group has at most
        log2(order) of them.
        """
        t, lab = self.table, self.labels
        n = self.order
        if t.min() < 0 or t.max() >= n:
            raise NotAGroupError("table entries out of range")
        # Latin square: every row/column a bijection (gives inverses);
        # the least such g is named, its row before its column
        bad = [(int(rows[0]), which) for which, rows in
               (("row", row_inverse(t)[1]), ("column", row_inverse(t.T)[1]))
               if len(rows)]
        if bad:
            g, which = min(bad, key=lambda b: b[0])
            raise NotAGroupError(f"{which} {g} ({lab[g]}) is not a bijection")
        idx = np.arange(n)
        closure = (self.identity,)
        while len(closure) < n:
            s = int(np.setdiff1d(idx, closure)[0])
            closure = subgroup_closure(self, closure + (s,))
            check = grid_check(
                "associativity", (n, n),
                lambda x, y: (t[t[x, s], y], t[x, t[s, y]]), thorough=True)
            if not check.ok:
                x, y = check.violations[0].witness
                a, b, c = lab[x], lab[s], lab[y]
                raise NotAGroupError(
                    f"associativity fails at ({a}, {b}, {c}): "
                    f"({a}*{b})*{c} = {lab[t[t[x, s], y]]} but "
                    f"{a}*({b}*{c}) = {lab[t[x, t[s, y]]]}")

    # -- basic operations ----------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def inv(self, a: int) -> int:
        return int(self.inv_table[a])

    def conj(self, g: int, h: int) -> int:
        """g h g^{-1}."""
        return self.mul(self.mul(g, h), self.inv(g))

    def comm(self, g: int, h: int) -> int:
        """[g, h] = g h g^{-1} h^{-1}.

        A scalar oracle: tests check the commutator-pair tables against it.
        """
        return self.mul(self.conj(g, h), self.inv(h))

    def power(self, g: int, k: int) -> int:
        if k < 0:
            return self.power(self.inv(g), -k)
        res = self.identity
        while k:
            res = self.mul(res, g)
            k -= 1
        return res

    def word(self, letters) -> int:
        """Product of an iterable of element indices, left to right."""
        res = self.identity
        for g in letters:
            res = self.mul(res, g)
        return res

    # vectorised forms

    def mul_arr(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """a*b over operands that broadcast, as an int32 array.

        a and b are Python ints or integer arrays of at least 32 bits, and
        must be elements, in 0..order-1: the flat read t.ravel()[a * n + b]
        raises IndexError only at or past n * n, where t[a, b] raised at a
        value >= n.  conj_arr and comm_arr have the same precondition.
        """
        return self._flat[a * self.order + b]

    def inv_arr(self, a: np.ndarray) -> np.ndarray:
        return self.inv_table[a]

    def conj_arr(self, g: np.ndarray, h: np.ndarray) -> np.ndarray:
        f, n = self._flat, self.order
        return f[f[g * n + h] * n + self.inv_table[g]]

    def comm_arr(self, g: np.ndarray, h: np.ndarray) -> np.ndarray:
        f, n, inv = self._flat, self.order, self.inv_table
        return f[f[f[g * n + h] * n + inv[g]] * n + inv[h]]

    @cached_property
    def conjugation(self) -> np.ndarray:
        """conjugation[a, b] = a b a^{-1}: G acting on itself, read-only."""
        conj = self._flat[self.table * self.order + self.inv_table[:, None]]
        conj.setflags(write=False)
        return conj

    # -- structure -----------------------------------------------------------

    @property
    def is_abelian(self) -> bool:
        return bool(np.array_equal(self.table, self.table.T))

    def center(self) -> tuple[int, ...]:
        t = self.table
        return tuple(int(g) for g in np.flatnonzero((t == t.T).all(axis=1)))

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


# ---------------------------------------------------------------------------
# standard groups
# ---------------------------------------------------------------------------

def trivial_group() -> FiniteGroup:
    return FiniteGroup("1", ("1",), table=np.zeros((1, 1), dtype=np.int32))


def cyclic_group(n: int) -> FiniteGroup:
    if n < 1:
        raise SizeLimitError("cyclic_group needs n >= 1")
    if n > TABLE_LIMIT:
        raise SizeLimitError(f"Z{n} has order {n}, above TABLE_LIMIT = {TABLE_LIMIT}")
    table = (np.arange(n)[:, None] + np.arange(n)[None, :]) % n
    return FiniteGroup(f"Z{n}", tuple(str(i) for i in range(n)), table=table)


def symmetric_group(n: int) -> FiniteGroup:
    if n < 1:
        raise SizeLimitError(f"symmetric_group needs n >= 1, got {n}")
    name = f"S{n}"
    # exceeds the limit exactly when n! does, and stays cheap for a huge n
    if math.factorial(min(n, TABLE_LIMIT)) > TABLE_LIMIT:
        raise SizeLimitError(
            f"{name} has order {n}!, above TABLE_LIMIT = {TABLE_LIMIT}")
    elems = tuple(itertools.permutations(range(n)))
    labels = tuple(cycle_label(p) for p in elems)
    # all products at once: (p*q)(k) = q(p(k)), i.e. row i, column j holds
    # E[j][E[i]]; read each product back in base n and look its index up
    perms = np.array(elems, dtype=np.int32).reshape(len(elems), n)
    products = perms[np.arange(len(elems))[None, :, None], perms[:, None, :]]
    digits = n ** np.arange(n - 1, -1, -1)
    index = np.empty(n ** n, dtype=np.int32)
    index[perms @ digits] = np.arange(len(elems))
    table = index[products @ digits]
    return FiniteGroup(name, labels, table=table, identity=0)


def _is_prime(p: int) -> bool:
    return p >= 2 and all(p % d for d in range(2, int(p ** 0.5) + 1))


def gl2(p: int) -> FiniteGroup:
    """GL(2, p) for prime p <= 5, elements in row-major scan order."""
    name = f"GL(2,{p})"
    order = (p * p - 1) * (p * p - p)
    if order > TABLE_LIMIT:
        raise SizeLimitError(
            f"{name} has order {order}, above TABLE_LIMIT = {TABLE_LIMIT}")
    if not _is_prime(p):
        raise InvalidModulusError(f"gl2 needs a prime p, got {p}")
    mats = [(a, b, c, d)
            for a in range(p) for b in range(p) for c in range(p) for d in range(p)
            if (a * d - b * c) % p != 0]
    labels = tuple(mat_label(m) for m in mats)
    n = len(mats)
    a, b, c, d = np.array(mats, dtype=np.int32).T
    # a row (x, y) has code x p + y and a matrix (a b; c d) the code
    # (a p + b) p^2 + (c p + d) of its two rows.  rows[x p + y, j] is the
    # code of the row (x, y) times matrix j, so row i of the product codes
    # is rows[top[i]] p^2 + rows[bottom[i]]: two row gathers, combined in
    # place, with no (n, n) index array
    x, y = np.divmod(np.arange(p * p, dtype=np.int32)[:, None], p)
    rows = (x * a + y * c) % p * p + (x * b + y * d) % p
    top, bottom = a * p + b, c * p + d
    enc = rows[top]
    enc *= p * p
    enc += rows[bottom]
    code_to_idx = np.full(p ** 4, -1, dtype=np.int32)
    code_to_idx[top * (p * p) + bottom] = np.arange(n)
    table = code_to_idx[enc]
    return FiniteGroup(name, labels, table=table,
                       identity=mats.index((1, 0, 0, 1)))


def direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    n, m = g.order, h.order
    if n * m > TABLE_LIMIT:
        raise SizeLimitError(f"{g.name}x{h.name} has order {n * m}, above "
                             f"TABLE_LIMIT = {TABLE_LIMIT}")
    labels = tuple(f"({g.labels[i]},{h.labels[j]})" for i in range(n) for j in range(m))
    gi = np.repeat(np.arange(n), m)
    hj = np.tile(np.arange(m), n)
    table = g.mul_arr(gi[:, None], gi) * m + h.mul_arr(hj[:, None], hj)
    return FiniteGroup(f"{g.name}x{h.name}", labels, table=table,
                       identity=g.identity * m + h.identity)


def from_cayley_table(table) -> FiniteGroup:
    """Build and validate a group from an explicit Cayley table, its
    elements labelled g0, g1, ...

    Raises NotAGroupError naming a failing row, column or triple if the
    table is not a group, and SizeLimitError, before any check, if it has
    more than TABLE_LIMIT rows.
    """
    if len(table) > TABLE_LIMIT:
        raise SizeLimitError(
            f"Cayley table has {len(table)} rows, above "
            f"TABLE_LIMIT = {TABLE_LIMIT}")
    table = np.asarray(table, dtype=np.int32)
    labels = tuple(f"g{i}" for i in range(table.shape[0]))
    g = FiniteGroup("G", labels, table=table)
    g.validate_axioms()
    return g


def read_int_table(path) -> list[list[int]]:
    """Rows of comma-separated integers from a text file; blank lines and
    lines starting with # are skipped.  A TangleSumError names the line of
    a non-integer cell or of a row whose length differs from the first,
    and a SizeLimitError the first row or cell above TABLE_LIMIT, so the
    rest of the file is never read."""
    rows: list[list[int]] = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                row = [int(cell) for cell in line.split(",")]
            except ValueError:
                raise TangleSumError(
                    f"{path}, line {lineno}: cells must be integers, "
                    f"got {line!r}") from None
            if rows and len(row) != len(rows[0]):
                raise TangleSumError(
                    f"{path}, line {lineno}: {len(row)} cells where the "
                    f"first row has {len(rows[0])}")
            if max(len(row), len(rows) + 1) > TABLE_LIMIT:
                raise SizeLimitError(
                    f"{path}, line {lineno}: a table above TABLE_LIMIT = "
                    f"{TABLE_LIMIT} rows or columns")
            rows.append(row)
    return rows


def from_cayley_csv(path) -> FiniteGroup:
    return from_cayley_table(read_int_table(path))


# ---------------------------------------------------------------------------
# homomorphisms
# ---------------------------------------------------------------------------

class GroupHom:
    """A map between table-backed finite groups, stored as an index array;
    an entry outside the target is refused."""

    def __init__(self, source: FiniteGroup, target: FiniteGroup, mapping,
                 name: str = ""):
        self.source = source
        self.target = target
        self.mapping = np.ascontiguousarray(np.asarray(mapping, dtype=np.int32))
        self.mapping.setflags(write=False)
        self.name = name
        if len(self.mapping) != source.order:
            raise GroupMismatchError("mapping length does not match source order")
        if self.mapping.min() < 0 or self.mapping.max() >= target.order:
            raise GroupMismatchError(
                f"mapping entries out of {target.name}'s range")

    def __call__(self, i: int) -> int:
        return int(self.mapping[i])

    def homomorphism_check(self, axiom: str,
                           thorough: bool = False) -> CheckResult:
        """Sweep m(a b) = m(a) m(b) over pairs (a, b) of the source, as the
        check named `axiom`."""
        m, ts, tt = self.mapping, self.source.table, self.target.table
        n = self.source.order
        return grid_check(axiom, (n, n),
                          lambda a, b: (m[ts[a, b]], tt[m[a], m[b]]), thorough)

    def assert_valid(self) -> None:
        name = self.name or "hom"
        if int(self.mapping[self.source.identity]) != self.target.identity:
            raise GroupMismatchError(f"{name} does not fix the identity")
        check = self.homomorphism_check(f"{name} is a homomorphism",
                                        thorough=True)
        if not check.ok:
            a, b = check.violations[0].witness
            raise GroupMismatchError(
                f"{name} fails multiplicativity at "
                f"({self.source.labels[a]}, {self.source.labels[b]})")

    def then(self, other: "GroupHom") -> "GroupHom":
        if other.source is not self.target:
            raise GroupMismatchError("homs are not composable")
        return GroupHom(self.source, other.target, other.mapping[self.mapping])

    def kernel(self) -> tuple[int, ...]:
        return tuple(int(i) for i in
                     np.nonzero(self.mapping == self.target.identity)[0])

    def _hits(self) -> np.ndarray:
        """How often each target element is hit; a bincount, not np.unique,
        which loads numpy.ma when it returns no indices."""
        return np.bincount(self.mapping, minlength=self.target.order)

    def image(self) -> tuple[int, ...]:
        return tuple(int(i) for i in np.flatnonzero(self._hits()))

    @property
    def is_surjective(self) -> bool:
        return np.count_nonzero(self._hits()) == self.target.order


def identity_hom(g: FiniteGroup) -> GroupHom:
    return GroupHom(g, g, np.arange(g.order), name=f"id_{g.name}")


# ---------------------------------------------------------------------------
# subgroups and quotients
# ---------------------------------------------------------------------------

def subgroup_closure(g: FiniteGroup, generators) -> tuple[int, ...]:
    """Indices of the subgroup generated by `generators`, sorted."""
    closed = np.zeros(g.order, dtype=bool)
    closed[g.identity] = True
    closed[np.array(list(generators), dtype=np.intp)] = True
    while True:
        idx = np.flatnonzero(closed)
        grown = closed.copy()
        grown[g.mul_arr(idx[:, None], idx)] = True
        if np.array_equal(grown, closed):
            return tuple(int(i) for i in idx)
        closed = grown


def verify_subgroup(g: FiniteGroup, indices) -> tuple[int, ...]:
    idx = tuple(sorted(set(int(i) for i in indices)))
    arr = np.array(idx, dtype=np.intp)
    inside = np.zeros(g.order, dtype=bool)
    inside[arr] = True
    if not inside[g.identity]:
        raise NotClosedError("subset does not contain the identity")
    # column 0 is a's inverse, column 1 + j the product a * idx[j]: scanning
    # row by row names the first failure of the element-by-element loop
    bad = np.argwhere(~inside[np.column_stack(
        [g.inv_table[arr], g.mul_arr(arr[:, None], arr)])])
    if len(bad):
        a, j = idx[bad[0][0]], int(bad[0][1])
        if j == 0:
            raise NotClosedError(f"subset not closed under inverse at {g.labels[a]}")
        raise NotClosedError(
            f"subset not closed: {g.labels[a]} * {g.labels[idx[j - 1]]} escapes")
    return idx


def subgroup(g: FiniteGroup, indices, name: str = "") -> tuple[FiniteGroup, GroupHom]:
    """The subgroup on the given (verified) indices, with its embedding."""
    idx = verify_subgroup(g, indices)
    arr = np.array(idx, dtype=np.intp)
    n = len(idx)
    pos = np.full(g.order, -1, dtype=np.int32)
    pos[arr] = np.arange(n)
    h = FiniteGroup(name or f"{g.name}_sub{n}",
                    tuple(g.labels[e] for e in idx),
                    table=pos[g.mul_arr(arr[:, None], arr)],
                    identity=int(pos[g.identity]))
    embed = GroupHom(h, g, arr, name=f"{h.name} into {g.name}")
    return h, embed


def quotient_by_normal(g: FiniteGroup, normal_indices, name: str = "") \
        -> tuple[FiniteGroup, GroupHom]:
    """Quotient by a verified normal subgroup; canonical rep = least index."""
    nset = verify_subgroup(g, normal_indices)
    narr = np.array(nset, dtype=np.int32)
    inside = np.zeros(g.order, dtype=bool)
    inside[narr] = True
    # conj[i, x] = x nset[i] x^-1, scanned row by row as nset[i] runs
    conj = g.conj_arr(np.arange(g.order), narr[:, None])
    bad = np.argwhere(~inside[conj])
    if len(bad):
        h, x = nset[bad[0][0]], int(bad[0][1])
        raise NotClosedError(
            f"subgroup is not normal: {g.labels[x]} conjugates "
            f"{g.labels[h]} outside")
    rep = g.table[:, narr].min(axis=1)           # rep[x] = min of coset xN
    reps = np.flatnonzero(np.bincount(rep, minlength=g.order))
    relabel = -np.ones(g.order, dtype=np.int32)
    relabel[reps] = np.arange(len(reps))
    proj_map = relabel[rep]
    table = proj_map[g.mul_arr(reps[:, None], reps)]
    labels = tuple(f"[{g.labels[int(r)]}]" for r in reps)
    q = FiniteGroup(name or f"{g.name}/N{len(nset)}", labels, table=table,
                    identity=int(relabel[rep[g.identity]]))
    proj = GroupHom(g, q, proj_map, name=f"{g.name} onto {q.name}")
    return q, proj


def central_quotient(g: FiniteGroup, name: str = "") \
        -> tuple[FiniteGroup, GroupHom]:
    """The quotient by the center."""
    return quotient_by_normal(g, g.center(), name=name)


def pgl2(p: int) -> tuple[FiniteGroup, GroupHom]:
    """PGL(2, p) as the central quotient of gl2(p), with the projection."""
    return central_quotient(gl2(p), name=f"PGL(2,{p})")


def commutator_subgroup(g: FiniteGroup) -> tuple[FiniteGroup, GroupHom]:
    """The derived subgroup [G, G] with its embedding into G."""
    commutators = np.zeros(g.order, dtype=bool)
    commutators[g.comm_arr(*np.ogrid[:g.order, :g.order])] = True
    idx = subgroup_closure(g, np.flatnonzero(commutators))
    return subgroup(g, idx, name=f"{g.name}'")


def abelianization(g: FiniteGroup) -> tuple[FiniteGroup, GroupHom]:
    """G / [G, G] with the projection."""
    _, embed = commutator_subgroup(g)
    return quotient_by_normal(g, embed.mapping, name=f"{g.name}^ab")
