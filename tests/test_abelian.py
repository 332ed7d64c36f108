"""Abelian structure theory: decompositions, coordinates, tensor squares."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from tanglesum.abelian import (
    cyclic_decomposition,
    product_of_cyclics,
    TensorSquare,
)
from tanglesum.errors import NotAGroupError, SizeLimitError
from tanglesum.groups import (
    abelianization,
    cyclic_group,
    direct_product,
    gl2,
    pgl2,
    symmetric_group,
)


def test_product_of_cyclics():
    g = product_of_cyclics((2, 3))
    assert g.order == 6
    assert g.is_abelian
    assert g.name == "Z2xZ3"
    assert g.label(0) == "(0,0)"
    # mixed radix encoding: (1, 2) has index 1*3 + 2
    a = g.element_by_label("(1,2)")
    assert a == 5
    assert g.mul(a, a) == g.element_by_label("(0,1)")
    assert product_of_cyclics(()).order == 1


@pytest.mark.parametrize("moduli", [(-3,), (0,), (2, 0, 3)])
def test_product_of_cyclics_rejects_a_modulus_below_one(moduli):
    bad = min(moduli)
    with pytest.raises(SizeLimitError, match=f"modulus {bad} "):
        product_of_cyclics(moduli)


def test_cyclic_decomposition_orders():
    z6 = cyclic_group(6)
    orders = sorted(o for _, o in cyclic_decomposition(z6))
    assert orders in ([2, 3], [6])
    klein = direct_product(cyclic_group(2), cyclic_group(2))
    assert sorted(o for _, o in cyclic_decomposition(klein)) == [2, 2]


def test_cyclic_decomposition_rejects_nonabelian():
    with pytest.raises(NotAGroupError):
        cyclic_decomposition(symmetric_group(3))


def test_coords_are_a_bijection():
    g = product_of_cyclics((2, 2, 3))
    ts = TensorSquare(g)
    orders = np.array([o for _, o in ts.basis])
    assert len(np.unique(ts.coords, axis=0)) == g.order
    # coordinates are additive
    assert np.array_equal(ts.coords[g.table],
                          (ts.coords[:, None] + ts.coords[None, :]) % orders)


def test_tensor_square_of_cyclic():
    z6 = cyclic_group(6)
    ts = TensorSquare(z6)
    assert ts.group.order == 6  # Z6 (x) Z6 = Z6
    # bilinearity in the first slot
    g = ts.base
    for x in range(6):
        for y in range(6):
            for z in range(6):
                lhs = ts.pure[g.mul(x, y), z]
                rhs = ts.group.mul(ts.pure[x, z], ts.pure[y, z])
                assert lhs == rhs


def test_tensor_square_of_klein_four():
    klein = direct_product(cyclic_group(2), cyclic_group(2))
    ts = TensorSquare(klein)
    assert ts.group.order == 16  # (Z2)^2 (x) (Z2)^2 = (Z2)^4
    # pure tensors on a basis are independent
    basis = [g for g, _ in ts.basis]
    vals = {int(ts.pure[x, y]) for x in basis for y in basis}
    assert len(vals) == 4


def test_tensor_square_of_s3_abelianisation():
    ab, _ = abelianization(symmetric_group(3))
    ts = TensorSquare(ab)
    assert ts.group.order == 2
    t = int(ts.pure[1, 1])
    assert t != ts.group.identity
    assert ts.group.mul(t, t) == ts.group.identity


def test_tensor_square_of_trivial_quotient():
    one = cyclic_group(1)
    ts = TensorSquare(one)
    assert ts.group.order == 1
    assert ts.pure[0, 0] == 0


# Frozen from the scalar implementation of cyclic_decomposition and
# TensorSquare: the basis, the tensor-square moduli and the SHA-256 of the
# pure table as C-ordered int64.
FROZEN_TENSOR_SQUARES = {
    "Z1": (lambda: cyclic_group(1), [], (),
           "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc"),
    "Z6": (lambda: cyclic_group(6), [(3, 2), (2, 3)], (2, 3),
           "9ec91c6882266b3a9cb08263f4e2b4b996addb7730a1ef1c64723f31b97d7912"),
    "Z12": (lambda: cyclic_group(12), [(3, 4), (4, 3)], (4, 3),
            "52df6aa677f1dcc5d3e5f6e5cec82e9845034b63bea794879ac9de46c24a3592"),
    "Z2^2": (lambda: direct_product(cyclic_group(2), cyclic_group(2)),
             [(1, 2), (2, 2)], (2, 2, 2, 2),
             "9ad2aabba19a59c7cd63fa98ddbd71a870e6454060796f9f7921227a9b90f1b1"),
    "Z2^2xZ3": (lambda: product_of_cyclics((2, 2, 3)),
                [(3, 2), (6, 2), (1, 3)], (2, 2, 2, 2, 3),
                "e903786977371b135850c65e201854de18c6bef0642cb52f07a69e98a1241cd1"),
    "Z6xZ10": (lambda: product_of_cyclics((6, 10)),
               [(5, 2), (30, 2), (20, 3), (2, 5)], (2, 2, 2, 2, 3, 5),
               "fa73cc5acb09256a478f1479928efb1b8e0b3ec09d3f09c5f1d63ef5de2dd0e6"),
    "S3^ab": (lambda: abelianization(symmetric_group(3))[0], [(1, 2)], (2,),
              "013f21dd7052786e2c338b57f23ec2c7feb0c12f7b3b28fbb5affaca27103f51"),
    "S4^ab": (lambda: abelianization(symmetric_group(4))[0], [(1, 2)], (2,),
              "013f21dd7052786e2c338b57f23ec2c7feb0c12f7b3b28fbb5affaca27103f51"),
    "GL(2,3)^ab": (lambda: abelianization(gl2(3))[0], [(0, 2)], (2,),
                   "01d0fabd251fcbbe2b93b4b927b26ad2a1a99077152e45ded1e678afa45dbec5"),
    "GL(2,5)^ab": (lambda: abelianization(gl2(5))[0], [(1, 4)], (4,),
                   "8374d42eb742d7db155f8cd26bdba6c51f471fbdfd248822e92f85875700f82e"),
    "PGL(2,5)^ab": (lambda: abelianization(pgl2(5)[0])[0], [(1, 2)], (2,),
                    "013f21dd7052786e2c338b57f23ec2c7feb0c12f7b3b28fbb5affaca27103f51"),
}


def _pure_table(ts) -> np.ndarray:
    """The pure tensors as an (n, n) array, whether `pure` is that table
    or the scalar method pure(x, y) it replaced."""
    if isinstance(ts.pure, np.ndarray):
        return ts.pure
    r = range(ts.base.order)
    return np.array([[ts.pure(x, y) for y in r] for x in r])


@pytest.mark.parametrize("name", sorted(FROZEN_TENSOR_SQUARES))
def test_tensor_square_is_frozen(name):
    make, basis, moduli, digest = FROZEN_TENSOR_SQUARES[name]
    ts = TensorSquare(make())
    assert ts.basis == basis and ts.moduli == moduli
    pure = _pure_table(ts)
    assert hashlib.sha256(np.ascontiguousarray(
        pure, dtype=np.int64).tobytes()).hexdigest() == digest
    # bilinear in both slots
    a, m = ts.base.table, ts.group.table
    assert np.array_equal(pure[a[:, :, None], np.arange(a.shape[0])],
                          m[pure[:, None, :], pure[None, :, :]])
    assert np.array_equal(pure[:, a],
                          m[pure[:, :, None], pure[:, None, :]])


@pytest.mark.parametrize("moduli, basis", [
    ((4, 2, 6), [(12, 4), (3, 2), (6, 2), (2, 3)]),
    ((8, 4, 2), [(8, 8), (2, 4), (1, 2)]),
    ((9, 3, 5), [(15, 9), (5, 3), (1, 5)]),
])
def test_decomposition_is_frozen_past_the_tensor_size_limit(moduli, basis):
    g = product_of_cyclics(moduli)
    assert cyclic_decomposition(g) == basis
    with pytest.raises(SizeLimitError):
        TensorSquare(g)
