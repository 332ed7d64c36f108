"""Structure of small finite abelian groups, on index arrays.

Provides a cyclic-basis decomposition A = <g_1> + ... + <g_k> (direct), the
coordinate array it induces, and the tensor square A (x) A built from the
classical formula Z_m (x) Z_n = Z_gcd(m,n).  All work is whole-array: one
pass computes every element's powers (and so its order), the coordinate
array comes from multiplying out the basis powers, and the pure-tensor
table is one broadcast.  The coordinate map is checked to be a bijection by
one np.unique, so a wrong greedy choice can never slip through silently.
"""

from __future__ import annotations

import math

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


def _digits(moduli: tuple[int, ...]) -> np.ndarray:
    """Every coordinate row of Z_{m_1} + ... + Z_{m_k}, in mixed-radix
    order (last coordinate fastest), as a (prod m_i, k) array."""
    digits = np.zeros((math.prod(moduli), len(moduli)), dtype=np.int64)
    rest = np.arange(len(digits))
    for pos in range(len(moduli) - 1, -1, -1):
        digits[:, pos] = rest % moduli[pos]
        rest //= moduli[pos]
    return digits


def _place_values(moduli: tuple[int, ...]) -> np.ndarray:
    """Weights w with digits @ w the mixed-radix index of a coordinate row."""
    return np.array([math.prod(moduli[i + 1:]) for i in range(len(moduli))],
                    dtype=np.int64)


def _powers(a: FiniteGroup) -> np.ndarray:
    """powers[k, g] = g^k for k from 0 up to the exponent of A, whose row is
    all identity; g's order is the least k >= 1 with powers[k, g] = 1."""
    rows = [np.full(a.order, a.identity, dtype=np.intp)]
    every = np.arange(a.order)
    while True:
        rows.append(a.table[rows[-1], every])
        if np.all(rows[-1] == a.identity):
            return np.stack(rows)


def _multiply_out(a: FiniteGroup, powers: np.ndarray,
                  basis: list[tuple[int, int]]) -> tuple[np.ndarray, np.ndarray]:
    """(digits, elems): every coordinate row c of the basis, and the index
    of g_1^c_1 ... g_k^c_k for each."""
    digits = _digits(tuple(d for _, d in basis))
    elems = np.full(len(digits), a.identity, dtype=np.intp)
    for pos, (g, _) in enumerate(basis):
        elems = a.table[elems, powers[digits[:, pos], g]]
    return digits, elems


def _decompose(a: FiniteGroup) -> tuple[list[tuple[int, int]], np.ndarray]:
    """The cyclic basis of cyclic_decomposition and its coordinate array:
    coords[x] is the coordinate row of element x."""
    if a.order > DECOMPOSITION_LIMIT:
        raise SizeLimitError("cyclic_decomposition limited to small groups")
    if not a.is_abelian:
        raise NotAGroupError(f"{a.name} is not abelian")
    powers = _powers(a)
    orders = (powers[1:] == a.identity).argmax(axis=0) + 1
    basis: list[tuple[int, int]] = []
    for p in _prime_factors(a.order):
        # the p-component has order p_part; its non-identity elements are
        # those whose order divides p_part
        p_part = math.gcd(a.order, p ** a.order.bit_length())
        component = np.flatnonzero((orders > 1) & (p_part % orders == 0))
        chosen: list[tuple[int, int]] = []
        while True:
            in_span = np.zeros(a.order, dtype=bool)
            in_span[_multiply_out(a, powers, chosen)[1]] = True
            if in_span.sum() == p_part:
                break
            # order of each element modulo the span; take the first maximal
            qorders = in_span[powers[1:, component]].argmax(axis=0) + 1
            best, q = component[qorders.argmax()], int(qorders.max())
            # order-preserving coset representative best*s, least s first
            reps = a.table[best, np.flatnonzero(in_span)]
            chosen.append((int(reps[(orders[reps] == q).argmax()]), q))
        basis += chosen
    digits, elems = _multiply_out(a, powers, basis)
    if len(elems) != a.order or len(np.unique(elems)) != a.order:
        raise NotAGroupError(
            f"claimed cyclic basis of {a.name} is not a direct decomposition")
    coords = np.empty_like(digits)
    coords[elems] = digits
    return basis, coords


def cyclic_decomposition(a: FiniteGroup) -> list[tuple[int, int]]:
    """A list of (generator index, order) with A the direct sum of the <g_i>.

    Works prime by prime: inside each p-component, repeatedly pick an element
    of maximal order in the quotient by the span so far and replace it by an
    order-preserving representative of its coset.  Verified afterwards via
    the coordinate bijection, so correctness does not rest on the greedy
    argument alone.
    """
    return _decompose(a)[0]


def product_of_cyclics(moduli: tuple[int, ...], name: str | None = None) -> FiniteGroup:
    """Z_{m_1} + ... + Z_{m_k} with mixed-radix element encoding."""
    bad = [m for m in moduli if m < 1]
    if bad:
        raise SizeLimitError(f"cyclic factor modulus {bad[0]} is below 1")
    if name is None:
        name = "x".join(f"Z{m}" for m in moduli) or "Z1"
    if math.prod(moduli) > DECOMPOSITION_LIMIT:
        raise SizeLimitError("cyclic product exceeds size limit")
    digits = _digits(moduli)
    summed = (digits[:, None, :] + digits[None, :, :]) % np.array(moduli, dtype=np.int64)
    labels = tuple("(" + ",".join(str(d) for d in row) + ")" for row in digits) \
        if moduli else ("0",)
    return FiniteGroup(name, labels, table=summed @ _place_values(moduli),
                       identity=0)


class TensorSquare:
    """A (x) A for a finite abelian A, with the defining bilinear map as
    the table pure[x, y], the index of x (x) y in the tensor-square group."""

    def __init__(self, a: FiniteGroup):
        self.base = a
        self.basis, self.coords = _decompose(a)
        orders = [d for _, d in self.basis]
        pairs = [(i, j) for i in range(len(orders)) for j in range(len(orders))
                 if math.gcd(orders[i], orders[j]) > 1]
        self.moduli = tuple(math.gcd(orders[i], orders[j]) for i, j in pairs)
        self.group = product_of_cyclics(self.moduli, f"{a.name}(x){a.name}")
        i, j = np.array(pairs, dtype=np.intp).reshape(len(pairs), 2).T
        digits = self.coords[:, None, i] * self.coords[None, :, j] \
            % np.array(self.moduli, dtype=np.int64)
        pure = (digits @ _place_values(self.moduli)).astype(np.int32)
        pure.setflags(write=False)
        self.pure = pure
