"""Validation reports for axiom sweeps.

Axiom checks over finite domains run either exhaustively or, above a budget,
on a fixed-seed pseudo-random sample.  A report records, per axiom, the mode
that ran, how many tuples were checked, and up to a handful of violation
witnesses, so a failed validation is always reproducible and explainable.
"""

from __future__ import annotations

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


def check_equal(axiom: str, lhs: np.ndarray, rhs: np.ndarray,
                axes: list[np.ndarray], mode: str, domain_size: int) -> CheckResult:
    """Package an elementwise comparison into a CheckResult with witnesses."""
    bad = np.nonzero(lhs != rhs)[0]
    violations = tuple(
        Violation(axiom, tuple(int(ax[i]) for ax in axes),
                  f"lhs={int(lhs[i])} rhs={int(rhs[i])}")
        for i in bad[:WITNESS_CAP]
    )
    return CheckResult(axiom, domain_size, len(lhs), mode, violations)


GRID_CHUNK = 2_000_000


def grid_check(axiom: str, shape: tuple[int, ...], fn,
               thorough: bool = False) -> CheckResult:
    """Check fn(axes...) == (lhs, rhs) over a product domain.

    `fn` receives one flat int64 index array per factor and returns the two
    sides of the axiom as equal-length arrays.  Exhaustive sweeps are chunked
    along the first axis so memory stays bounded; above EXHAUSTIVE_BUDGET
    tuples a fixed-seed sample of SAMPLE_SIZE tuples runs instead (unless
    thorough).
    """
    total = 1
    for n in shape:
        total *= n
    if not thorough and total > EXHAUSTIVE_BUDGET:
        rng = np.random.default_rng(SAMPLE_SEED)
        axes = [rng.integers(0, n, size=SAMPLE_SIZE, dtype=np.int64) for n in shape]
        lhs, rhs = fn(*axes)
        return check_equal(axiom, lhs, rhs, axes, "sampled", total)

    rest = total // shape[0] if shape[0] else 0
    block = max(1, GRID_CHUNK // max(1, rest))
    violations: list[Violation] = []
    checked = 0
    tail = [np.arange(n, dtype=np.int64) for n in shape[1:]]
    for start in range(0, shape[0], block):
        head = np.arange(start, min(start + block, shape[0]), dtype=np.int64)
        grids = np.meshgrid(head, *tail, indexing="ij", copy=False)
        axes = [g.reshape(-1) for g in grids]
        lhs, rhs = fn(*axes)
        checked += len(lhs)
        if len(violations) < WITNESS_CAP:
            bad = np.nonzero(lhs != rhs)[0]
            for i in bad[:WITNESS_CAP - len(violations)]:
                violations.append(
                    Violation(axiom, tuple(int(ax[i]) for ax in axes),
                              f"lhs={int(lhs[i])} rhs={int(rhs[i])}"))
    return CheckResult(axiom, total, checked, "exhaustive", tuple(violations))
