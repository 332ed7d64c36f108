"""Validation reports for axiom sweeps.

Axiom checks over finite domains run either exhaustively or, above a budget,
on a fixed-seed pseudo-random sample.  A report records, per axiom, the mode
that ran, how many tuples were checked, and up to a handful of violation
witnesses, so a failed validation is always reproducible and explainable.
"""

from __future__ import annotations

import math
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


# exhaustive sweeps evaluate about this many points per call of `fn`
GRID_CHUNK = 65_536


def grid_check(axiom: str, shape: tuple[int, ...], fn,
               thorough: bool = False) -> CheckResult:
    """Check fn(axes...) == (lhs, rhs) over a product domain.

    Exhaustive sweeps pass `fn` open index axes, as np.ix_ does: the first
    is a block of rows of shape (b, 1, ..., 1) and axis i has shape
    (1, ..., n_i, ..., 1).  `fn` returns the two sides of the axiom as
    anything that broadcasts to the block, so a scalar side or a term of
    only some of the variables is computed once per plane.  Blocks hold
    about GRID_CHUNK points, so memory stays bounded.  Above
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
    violations: list[Violation] = []
    checked = 0
    for start in range(0, shape[0], block):
        axes = np.ix_(np.arange(start, min(start + block, shape[0])),
                      *map(np.arange, shape[1:]))
        lhs, rhs = fn(*axes)
        part = check_equal(axiom, lhs, rhs, axes, "exhaustive", total)
        checked += part.checked
        violations += part.violations
    return CheckResult(axiom, total, checked, "exhaustive",
                       tuple(violations[:WITNESS_CAP]))
