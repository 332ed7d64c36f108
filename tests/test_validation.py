"""grid_check against a point-by-point itertools.product oracle.

Each axiom below is written with plain arithmetic, so the same function
runs on Python ints (the oracle, one tuple at a time) and on the index
axes grid_check passes (open broadcast axes when exhaustive, flat arrays
when sampled).  The sides may be scalars or depend on only some of the
variables.
"""

from __future__ import annotations

import itertools
import sys
import threading
import time

import numpy as np
import pytest

from tanglesum import validation
from tanglesum.validation import grid_check

# (shape, fn): the sides of each axiom as functions of the index variables
AXIOMS = {
    "empty": ((0,), lambda X: (X, X + 1)),
    "1-d, scalar rhs": ((7,), lambda X: (X % 3, 0)),
    "2-d, lhs of Y only": ((5, 6), lambda X, Y: ((Y * Y) % 4, (X + Y) % 4)),
    "2-d, empty second axis": ((4, 0), lambda X, Y: (X, Y)),
    "3-d, planes of two variables": (
        (4, 5, 3), lambda X, Y, Z: ((X * Y) % 5, (Y + 2 * Z) % 5)),
    "3-d, scalar lhs": ((3, 4, 5), lambda X, Y, Z: (1, (X * Y * Z) % 3)),
    "3-d, sparse failures": (
        (6, 5, 4), lambda X, Y, Z: (((X + 2 * Y + 3 * Z) % 11 == 0) * 1, 0)),
    "3-d, lhs of X only": ((5, 3, 4), lambda X, Y, Z: (X % 2, (Y + Z) % 2)),
    "3-d, holds": ((3, 3, 3), lambda X, Y, Z: (X + Y * Z, Z * Y + X)),
}


def _oracle(axiom, shape, fn, points, mode):
    """The CheckResult fields, tuple by tuple in the given order."""
    witnesses = []
    checked = 0
    for point in points:
        lhs, rhs = (int(v) for v in fn(*point))
        checked += 1
        if lhs != rhs and len(witnesses) < validation.WITNESS_CAP:
            witnesses.append((point, f"lhs={lhs} rhs={rhs}"))
    total = int(np.prod(shape))
    return (axiom, total, checked, mode, tuple(witnesses))


def _fields(result):
    return (result.axiom, result.domain_size, result.checked, result.mode,
            tuple((v.witness, v.detail) for v in result.violations))


@pytest.mark.parametrize("chunk", [validation.GRID_CHUNK, 1, 7, 50])
@pytest.mark.parametrize("axiom", sorted(AXIOMS))
def test_exhaustive_grid_check_matches_the_product_oracle(monkeypatch, axiom,
                                                          chunk):
    monkeypatch.setattr(validation, "GRID_CHUNK", chunk)
    shape, fn = AXIOMS[axiom]
    points = itertools.product(*(range(n) for n in shape))
    expected = _oracle(axiom, shape, fn, points, "exhaustive")
    assert _fields(grid_check(axiom, shape, fn)) == expected
    assert _fields(grid_check(axiom, shape, fn, thorough=True)) == expected


@pytest.mark.parametrize("axiom", sorted(a for a in AXIOMS if 0 not in AXIOMS[a][0]))
def test_sampled_grid_check_matches_the_sample_oracle(monkeypatch, axiom):
    monkeypatch.setattr(validation, "EXHAUSTIVE_BUDGET", 1)
    monkeypatch.setattr(validation, "SAMPLE_SIZE", 300)
    shape, fn = AXIOMS[axiom]
    rng = np.random.default_rng(validation.SAMPLE_SEED)
    axes = [rng.integers(0, n, size=300, dtype=np.int64) for n in shape]
    points = [tuple(int(a[i]) for a in axes) for i in range(300)]
    assert _fields(grid_check(axiom, shape, fn)) == _oracle(
        axiom, shape, fn, points, "sampled")
    points = itertools.product(*(range(n) for n in shape))
    assert _fields(grid_check(axiom, shape, fn, thorough=True)) == _oracle(
        axiom, shape, fn, points, "exhaustive")


def test_exhaustive_axes_are_open_and_cover_each_block():
    seen = []

    def fn(X, Y, Z):
        seen.append((X.shape, Y.shape, Z.shape, int(X.min()), int(X.max())))
        return 0, 0

    shape = (10, 300, 300)
    result = grid_check("shapes", shape, fn)
    block = validation.GRID_CHUNK // (300 * 300) or 1
    assert result.checked == 10 * 300 * 300 and result.ok
    # blocks run concurrently, so the calls are compared in block order
    seen.sort(key=lambda s: s[3])
    assert [s[:3] for s in seen] == [
        ((min(block, 10 - start), 1, 1), (1, 300, 1), (1, 1, 300))
        for start in range(0, 10, block)]
    assert [s[3:] for s in seen] == [
        (start, min(start + block, 10) - 1) for start in range(0, 10, block)]


def _product_oracle(axiom):
    shape, fn = AXIOMS[axiom]
    points = itertools.product(*(range(n) for n in shape))
    return _oracle(axiom, shape, fn, points, "exhaustive")


@pytest.mark.parametrize("axiom", sorted(AXIOMS))
def test_a_slow_first_block_is_still_merged_first(monkeypatch, axiom):
    # one row per block, and block 0 sleeps, so the other worker finishes
    # the later blocks first; the merge must still be in row-major order
    monkeypatch.setattr(validation, "_cpus", lambda: 2)
    monkeypatch.setattr(validation, "GRID_CHUNK", 1)
    shape, fn = AXIOMS[axiom]
    finished = []

    def slow_first(X, *rest):
        if X.min() == 0:
            time.sleep(0.1)
        finished.append(int(X.min()))
        return fn(X, *rest)

    result = grid_check(axiom, shape, slow_first, thorough=True)
    assert _fields(result) == _product_oracle(axiom)
    assert sorted(finished) == list(range(shape[0]))
    if shape[0] > 1:
        assert finished[0] != 0


def test_the_earliest_failing_block_raises(monkeypatch):
    # block 4 raises first, block 2 raises later; 2 is what a serial
    # sweep would have raised
    monkeypatch.setattr(validation, "_cpus", lambda: 2)
    monkeypatch.setattr(validation, "GRID_CHUNK", 1)

    def fn(X):
        start = int(X.min())
        if start == 2:
            time.sleep(0.1)
        if start in (2, 4):
            raise ValueError(f"block {start}")
        return X, X

    with pytest.raises(ValueError, match="block 2"):
        grid_check("raises", (8,), fn, thorough=True)


@pytest.mark.parametrize("failing", [False, True])
def test_no_thread_outlives_the_call(monkeypatch, failing):
    monkeypatch.setattr(validation, "_cpus", lambda: 4)
    monkeypatch.setattr(validation, "GRID_CHUNK", 1)
    workers = set()
    before = threading.active_count()

    def fn(X, Y):
        workers.add(threading.get_ident())
        time.sleep(0.01)
        if failing and X.min() == 3:
            raise ValueError("block 3")
        return X, X

    if failing:
        with pytest.raises(ValueError):
            grid_check("threads", (12, 2), fn, thorough=True)
    else:
        assert grid_check("threads", (12, 2), fn, thorough=True).ok
    assert len(workers) > 1
    assert threading.active_count() == before


@pytest.mark.parametrize("chunk", [validation.GRID_CHUNK, 1, 7])
@pytest.mark.parametrize("axiom", sorted(AXIOMS))
def test_the_result_does_not_depend_on_the_cpu_count(monkeypatch, axiom, chunk):
    monkeypatch.setattr(validation, "GRID_CHUNK", chunk)
    shape, fn = AXIOMS[axiom]
    results = []
    for cpus in (1, 4):
        monkeypatch.setattr(validation, "_cpus", lambda: cpus)
        results.append(_fields(grid_check(axiom, shape, fn, thorough=True)))
    assert results == [_product_oracle(axiom)] * 2


def test_every_block_runs_once_under_frequent_thread_switches(monkeypatch):
    # more workers than cores and a short switch interval, so a block taken
    # twice or lost would show in the calls or in `checked`
    monkeypatch.setattr(validation, "_cpus", lambda: 8)
    monkeypatch.setattr(validation, "GRID_CHUNK", 3)
    calls = []

    def sides(X, Y):
        return (X * Y) % 7, 0

    def fn(X, Y):
        calls.append(int(X.min()))
        return sides(X, Y)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        result = grid_check("stress", (300, 3), fn, thorough=True)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(calls) == list(range(300))
    points = itertools.product(range(300), range(3))
    assert _fields(result) == _oracle("stress", (300, 3), sides, points,
                                      "exhaustive")


def test_a_one_block_sweep_starts_no_thread(monkeypatch):
    monkeypatch.setattr(validation, "_cpus", lambda: 4)
    workers = set()

    def fn(X, Y, Z):
        workers.add(threading.get_ident())
        return X, X

    assert grid_check("one block", (3, 4, 5), fn).ok
    assert workers == {threading.get_ident()}
