"""Validation reports for axiom sweeps.

Every axiom sweep of the package runs through grid_check (only constructor
preconditions that raise at once do not): exhaustively or, above a budget,
on a fixed-seed pseudo-random sample.  A report records, per axiom, the mode that ran, how
many tuples were checked, and up to a handful of violation witnesses, so a
failed validation is always reproducible and explainable.

An exhaustive sweep runs its blocks on the CPUs this process may use, one
block per worker at a time, so at most workers x GRID_CHUNK points are in
flight; the block results are merged in row-major order, so a report does
not depend on the number of workers.  Check functions therefore run
concurrently and must only read shared tables, never write shared state.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, field

import numpy as np

# Sweeps over more tuples than this switch to sampling; --thorough (or
# thorough=True) forces the exhaustive sweep regardless.
EXHAUSTIVE_BUDGET = 1_000_000
SAMPLE_SIZE = 100_000
SAMPLE_SEED = 20_240_501
WITNESS_CAP = 5


@dataclass(frozen=True)
class Violation:
    axiom: str
    witness: tuple
    detail: str = ""

    def __str__(self) -> str:
        msg = f"{self.axiom} fails at {self.witness}"
        return f"{msg}: {self.detail}" if self.detail else msg


@dataclass(frozen=True)
class CheckResult:
    axiom: str
    domain_size: int
    checked: int
    mode: str  # "exhaustive" | "sampled"
    violations: tuple[Violation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        status = "ok" if self.ok else f"FAIL ({len(self.violations)} witness(es))"
        return f"{self.axiom}: {status} [{self.mode}, {self.checked}/{self.domain_size}]"


@dataclass
class ValidationReport:
    subject: str
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def violations(self) -> list[Violation]:
        return [v for c in self.checks for v in c.violations]

    def add(self, check: CheckResult) -> None:
        self.checks.append(check)

    def summary(self) -> str:
        lines = [f"validation of {self.subject}: {'OK' if self.ok else 'FAILED'}"]
        lines += [f"  {c}" for c in self.checks]
        for v in self.violations[:WITNESS_CAP]:
            lines.append(f"    {v}")
        return "\n".join(lines)


def check_equal(axiom: str, lhs, rhs, axes: list[np.ndarray], mode: str,
                domain_size: int) -> CheckResult:
    """Package an elementwise comparison into a CheckResult with witnesses.

    `lhs`, `rhs` and the index `axes` are broadcast against each other
    (either side may be a scalar or depend on only some of the axes); the
    tuples are the broadcast points in C order, and the first WITNESS_CAP
    mismatches become witnesses that read each coordinate off its axis.
    """
    lhs, rhs, *axes = np.broadcast_arrays(lhs, rhs, *axes)
    violations = tuple(
        Violation(axiom, tuple(int(ax[i]) for ax in axes),
                  f"lhs={int(lhs[i])} rhs={int(rhs[i])}")
        for i in zip(*np.unravel_index(
            np.flatnonzero(lhs != rhs)[:WITNESS_CAP], lhs.shape)))
    return CheckResult(axiom, domain_size, lhs.size, mode, violations)


# exhaustive sweeps evaluate about this many points per call of `fn`; each
# worker holds one block at a time
GRID_CHUNK = 32_768


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def grid_check(axiom: str, shape: tuple[int, ...], fn,
               thorough: bool = False) -> CheckResult:
    """Check fn(axes...) == (lhs, rhs) over a product domain.

    Exhaustive sweeps pass `fn` open index axes, as np.ix_ does: the first
    is a block of rows of shape (b, 1, ..., 1) and axis i has shape
    (1, ..., n_i, ..., 1).  `fn` returns the two sides of the axiom as
    anything that broadcasts to the block, so a scalar side or a term of
    only some of the variables is computed once per plane.  Blocks hold
    about GRID_CHUNK points and run on min(usable CPUs, blocks) workers:
    the calling thread plus threads started and joined within the call,
    none for a one-block sweep.  So at most workers x GRID_CHUNK points are
    in flight, and `fn` must be safe to call from several threads at once:
    it may read shared tables but must not write shared state.  Block
    results are merged in row-major order, and if blocks raise, the
    earliest one's exception is raised, as a serial sweep would.  Above
    EXHAUSTIVE_BUDGET tuples a fixed-seed sample of SAMPLE_SIZE tuples runs
    instead (unless thorough), and `fn` receives one flat index array per
    factor.  Either way the tuples are checked in row-major order and the
    first WITNESS_CAP mismatches are reported.
    """
    total = math.prod(shape)
    if not thorough and total > EXHAUSTIVE_BUDGET:
        rng = np.random.default_rng(SAMPLE_SEED)
        axes = [rng.integers(0, n, size=SAMPLE_SIZE, dtype=np.int64) for n in shape]
        lhs, rhs = fn(*axes)
        return check_equal(axiom, lhs, rhs, axes, "sampled", total)

    block = max(1, GRID_CHUNK // max(1, math.prod(shape[1:])))
    starts = range(0, shape[0], block)
    # parts[i] is block i's CheckResult or exception; blocks are taken in
    # order, so once one fails every block not yet taken comes after it
    parts: list = [None] * len(starts)
    todo = iter(range(len(starts)))
    lock = threading.Lock()
    failed = False

    def work():
        nonlocal failed
        while not failed:
            with lock:
                i = next(todo, None)
            if i is None:
                return
            axes = np.ix_(np.arange(starts[i], min(starts[i] + block, shape[0])),
                          *map(np.arange, shape[1:]))
            try:
                lhs, rhs = fn(*axes)
                parts[i] = check_equal(axiom, lhs, rhs, axes, "exhaustive", total)
            except Exception as exc:  # raised below, in block order
                parts[i] = exc
                failed = True

    threads = []
    try:
        for _ in range(min(_cpus(), len(starts)) - 1):
            thread = threading.Thread(target=work)
            thread.start()
            threads.append(thread)
        work()
    finally:
        # every block is taken by now, unless an interrupt cut work() short
        failed = True
        for thread in threads:
            thread.join()

    violations: list[Violation] = []
    checked = 0
    for part in parts:
        if isinstance(part, Exception):
            raise part
        checked += part.checked
        violations += part.violations
    return CheckResult(axiom, total, checked, "exhaustive",
                       tuple(violations[:WITNESS_CAP]))
