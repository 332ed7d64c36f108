"""Structure of small finite abelian groups.

Provides a cyclic-basis decomposition A = <g_1> + ... + <g_k> (direct), the
coordinate map it induces, and the tensor square A (x) A built from the
classical formula Z_m (x) Z_n = Z_gcd(m,n).  Everything is verified on the
nose (the coordinate map is checked to be a bijection), so a wrong greedy
choice can never slip through silently.
"""

from __future__ import annotations

from math import gcd

import numpy as np

from .errors import NotAGroupError, SizeLimitError
from .groups import FiniteGroup

DECOMPOSITION_LIMIT = 1000


def _prime_factors(n: int) -> list[int]:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def cyclic_decomposition(a: FiniteGroup) -> list[tuple[int, int]]:
    """A list of (generator index, order) with A the direct sum of the <g_i>.

    Works prime by prime: inside each p-component, repeatedly pick an element
    of maximal order in the quotient by the span so far and replace it by an
    order-preserving representative of its coset.  Verified afterwards via
    the coordinate bijection, so correctness does not rest on the greedy
    argument alone.
    """
    if a.order > DECOMPOSITION_LIMIT:
        raise SizeLimitError("cyclic_decomposition limited to small groups")
    if not a.is_abelian:
        raise NotAGroupError(f"{a.name} is not abelian")
    basis: list[tuple[int, int]] = []
    for p in _prime_factors(a.order):
        component = [g for g in range(a.order)
                     if _is_prime_power_order(a.element_order(g), p)]
        span = {a.identity}
        target = len(component) + 1  # the p-torsion subgroup includes 1
        while len(span) < target:
            # order of g modulo the current span
            def qorder(g: int) -> int:
                k, x = 1, g
                while x not in span:
                    x = a.mul(x, g)
                    k += 1
                return k
            best = max(component, key=qorder)
            q = qorder(best)
            # order-preserving coset representative: some best*s with s in span
            rep = next(g for s in span
                       if a.element_order(g := a.mul(best, s)) == q)
            basis.append((rep, q))
            span = {a.mul(s, x) for s in span
                    for x in _cyclic_span(a, rep)}
    # verify directness: coordinates must enumerate A exactly once
    coords_of(a, basis)
    return basis


def _is_prime_power_order(order: int, p: int) -> bool:
    if order == 1:
        return False
    while order % p == 0:
        order //= p
    return order == 1


def _cyclic_span(a: FiniteGroup, g: int) -> list[int]:
    out, x = [a.identity], g
    while x != a.identity:
        out.append(x)
        x = a.mul(x, g)
    return out


def coords_of(a: FiniteGroup, basis: list[tuple[int, int]]) -> dict[int, tuple[int, ...]]:
    """Element index -> coordinate tuple relative to the basis; verified bijective."""
    coords = {a.identity: (0,) * len(basis)}
    elems = [a.identity]
    for pos, (g, order) in enumerate(basis):
        new_elems = []
        for e in elems:
            x = e
            for k in range(1, order):
                x = a.mul(x, g)
                c = list(coords[e])
                c[pos] = k
                if x in coords:
                    raise NotAGroupError("claimed basis is not direct")
                coords[x] = tuple(c)
                new_elems.append(x)
        elems.extend(new_elems)
    if len(coords) != a.order:
        raise NotAGroupError("claimed basis does not span")
    return coords


def product_of_cyclics(moduli: tuple[int, ...], name: str | None = None) -> FiniteGroup:
    """Z_{m_1} + ... + Z_{m_k} with mixed-radix element encoding."""
    if name is None:
        name = "x".join(f"Z{m}" for m in moduli) or "Z1"
    n = 1
    for m in moduli:
        n *= m
    if n > DECOMPOSITION_LIMIT:
        raise SizeLimitError("cyclic product exceeds size limit")
    digits = np.zeros((n, len(moduli)), dtype=np.int64)
    rest = np.arange(n)
    for pos in range(len(moduli) - 1, -1, -1):
        digits[:, pos] = rest % moduli[pos]
        rest //= moduli[pos]
    summed = (digits[:, None, :] + digits[None, :, :]) % np.array(moduli, dtype=np.int64)
    enc = np.zeros((n, n), dtype=np.int64)
    for pos in range(len(moduli)):
        enc = enc * moduli[pos] + summed[:, :, pos]
    labels = tuple("(" + ",".join(str(d) for d in row) + ")" for row in digits) \
        if moduli else ("0",)
    return FiniteGroup(name, labels, table=enc.astype(np.int32), identity=0)


class TensorSquare:
    """A (x) A for a finite abelian A, with the defining bilinear map."""

    def __init__(self, a: FiniteGroup):
        self.base = a
        self.basis = cyclic_decomposition(a)
        self.coords = coords_of(a, self.basis)
        orders = [d for _, d in self.basis]
        pairs = [(i, j) for i in range(len(orders)) for j in range(len(orders))]
        moduli = [gcd(orders[i], orders[j]) for i, j in pairs]
        keep = [k for k, m in enumerate(moduli) if m > 1]
        self.pairs = [pairs[k] for k in keep]
        self.moduli = tuple(moduli[k] for k in keep)
        self.group = product_of_cyclics(self.moduli, f"{a.name}(x){a.name}")

    def pure(self, x: int, y: int) -> int:
        """Index of x (x) y in the tensor-square group."""
        cx, cy = self.coords[x], self.coords[y]
        idx = 0
        for (i, j), m in zip(self.pairs, self.moduli):
            idx = idx * m + (cx[i] * cy[j]) % m
        return idx
