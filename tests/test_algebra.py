"""Formal sums over a group: arithmetic, display, parsing."""

from __future__ import annotations

import pytest

from tanglesum.algebra import GroupAlgebraElement, parse_algebra
from tanglesum.errors import GroupMismatchError
from tanglesum.groups import cyclic_group, symmetric_group


def test_addition_merges_counts():
    s5 = symmetric_group(5)
    e = s5.identity
    one = GroupAlgebraElement.single(s5, e)
    four = GroupAlgebraElement.single(s5, e, 4)
    assert (one + four).terms == {e: 5}
    assert (one + four).display() == "5*id"


def test_display_identity_first_and_singleton_counts():
    s5 = symmetric_group(5)
    x = s5.element_by_label("(1 2 3 4 5)")
    v = GroupAlgebraElement(s5, {x: 5, s5.identity: 1})
    assert v.display() == "id + 5*(1 2 3 4 5)"
    assert GroupAlgebraElement.zero(s5).display() == "0"


def test_parse_round_trip():
    s5 = symmetric_group(5)
    for text in ("0", "id", "7*id", "id + 5*(1 2 3 4 5)", "3*(1 2) + 2*(1 3)"):
        v = parse_algebra(s5, text)
        assert parse_algebra(s5, v.display()) == v


def test_convolution_product():
    z4 = cyclic_group(4)
    a = GroupAlgebraElement(z4, {1: 2})
    b = GroupAlgebraElement(z4, {1: 1, 2: 3})
    assert (a * b).terms == {2: 2, 3: 6}
    # the identity is a unit
    one = GroupAlgebraElement.single(z4, z4.identity)
    assert one * b == b and b * one == b


def test_scale_and_total():
    z4 = cyclic_group(4)
    v = GroupAlgebraElement(z4, {0: 1, 3: 2})
    assert v.total == 3
    assert v.scale(3).terms == {0: 3, 3: 6}
    assert v.scale(0) == GroupAlgebraElement.zero(z4)
    with pytest.raises(ValueError):
        v.scale(-1)


def test_natural_coefficients_only():
    z4 = cyclic_group(4)
    with pytest.raises(ValueError):
        GroupAlgebraElement(z4, {0: -2})
    with pytest.raises(GroupMismatchError):
        GroupAlgebraElement(z4, {7: 1})


def test_group_instances_do_not_mix():
    a = GroupAlgebraElement.single(cyclic_group(4), 0)
    b = GroupAlgebraElement.single(cyclic_group(4), 0)
    # equal content over distinct instances is still a mismatch
    assert a != b
    with pytest.raises(GroupMismatchError):
        a + b


def test_map_elements_pushforward():
    s3 = symmetric_group(3)
    z1 = cyclic_group(1)
    v = GroupAlgebraElement(s3, {0: 1, 1: 2, 3: 4})
    w = v.map_elements(lambda e: 0, z1)
    assert w.group is z1 and w.terms == {0: 7}


def test_json_shape():
    s5 = symmetric_group(5)
    v = parse_algebra(s5, "id + 5*(1 2 3 4 5)")
    obj = v.to_json()
    assert obj["group"] == s5.name
    assert obj["terms"][0] == {"element": "id", "count": 1}
    assert obj["terms"][1] == {"element": "(1 2 3 4 5)", "count": 5}
