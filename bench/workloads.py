"""The benchmark's three workloads over the tanglesum library.

Each workload has a set-up that builds its fixed inputs from a freshly
imported library, a timed pass and a check of the pass's outputs against
their references.  Passes call the library through module attributes
(``ts.engine.invariant_matrix``), so the tracer's wrappers see every call.  See README.md for why each workload
exists and which layer it loads.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

MODULES = ("groups", "crossed_modules", "racks", "diagrams", "pairs",
           "engine", "tables")

# acceptance criterion 4's rack 2-cocycle on the dihedral quandle R3
R3_COCYCLE = {"v_moduli": [3], "table": [[0, 0, 1], [2, 0, 2], [1, 0, 0]]}

BRAID_WORDS = 3        # extra moves diagrams drawn from the seed
BRAID_LENGTH = 3       # letters per word, on two strands
BRAID_KEEP = (1, 0, 1)  # strands left open by trace_closure, per word

# base-matrix fingerprints of every moves diagram, frozen by freeze_moves.py
MOVES_REFERENCE = Path(__file__).with_name("moves_reference.json")


def import_library() -> SimpleNamespace:
    """Import tanglesum afresh, so module-level caches start empty."""
    for name in [m for m in sys.modules
                 if m == "tanglesum" or m.startswith("tanglesum.")]:
        del sys.modules[name]
    importlib.import_module("tanglesum")
    return SimpleNamespace(**{m: sys.modules[f"tanglesum.{m}"]
                              for m in MODULES})


@dataclass
class PassCheck:
    """Outcome of one pass: results checked, mismatches, exact counts."""

    results: int
    failed: int
    counts: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)


# ----------------------------------------------------------------------
# tables: the three frozen trefoil tables, cold, both readings
# ----------------------------------------------------------------------


class Tables:
    name = "tables"

    def setup(self, ts, seed: int):
        return None  # a fresh import leaves the tables caches cold, as the CLI

    def run(self, ts, state):
        return [ts.tables.diff_table(name) for name in ts.tables.TABLE_NAMES]

    def check(self, ts, state, diffs) -> PassCheck:
        errata = ts.tables.ERRATA
        cells = [c for diff in diffs for c in diff.cells]
        problems = []
        for c in cells:
            key = (c.table, c.knot, c.column)
            if key in errata:
                want = ts.tables.expected_cell(*key, corrected=True).display()
                ok = c.status == "erratum" and c.computed == want
            else:
                ok = c.status == "ok" and c.computed == c.transcribed
            if not (ok and c.directions_agree):
                problems.append(f"{key}: {c.status}, computed {c.computed}, "
                                f"bra/ket agree {c.directions_agree}")
        return PassCheck(len(cells), len(problems),
                         {"tables": len(diffs), "cells": len(cells)}, problems)


# ----------------------------------------------------------------------
# bigsum: the README flow on figure_eight_closed under Eisermann S5
# ----------------------------------------------------------------------


class Bigsum:
    name = "bigsum"
    basepoint = "(1 2 3 4 5)"
    diagram = "figure_eight_closed"

    def setup(self, ts, seed: int):
        s5 = ts.groups.symmetric_group(5)
        return SimpleNamespace(group=s5, x=s5.element_by_label(self.basepoint),
                               diagram=ts.diagrams.load_catalog(self.diagram))

    def run(self, ts, state):
        pair = ts.pairs.pair_eisermann(state.group, state.x, carrier="group")
        report = ts.pairs.validate_pair(pair, thorough=True)
        value = ts.engine.invariant(state.diagram, pair)
        return pair, report, value

    def check(self, ts, state, out) -> PassCheck:
        pair, report, value = out
        n = state.group.order
        tuples = sum(c.checked for c in report.checks)
        problems = []
        if dict(value.terms) != {pair.e.identity: n}:
            problems.append(f"invariant is {value.display()}, not {n}*id")
        if not value.check_boundary():
            problems.append("boundary identity fails")
        exhaustive = all(c.mode == "exhaustive" for c in report.checks)
        if not (report.ok and exhaustive and tuples == n + n**2 + 2 * n**3):
            problems.append("validation:\n" + report.summary())
        return PassCheck(3, len(problems),
                         {"validation_tuples": tuples,
                          "colourings": value.total}, problems)


# ----------------------------------------------------------------------
# moves: acceptance criterion 4 over the catalog and seeded braids
# ----------------------------------------------------------------------


def braid_words(seed: int) -> list[list[int]]:
    """Short two-strand braid words, a function of the seed alone."""
    rng = random.Random(seed)
    return [[rng.choice((1, -1)) for _ in range(BRAID_LENGTH)]
            for _ in range(BRAID_WORDS)]


def braid_label(word, keep: int) -> str:
    return f"braid {list(word)} keep {keep}"


def matrix_fingerprint(matrix: dict) -> dict:
    """Colouring total and SHA-256 of an invariant_matrix, in canonical form."""
    rows = sorted([[int(x) for x in top], [int(x) for x in bot],
                   sorted([int(e), int(c)] for e, c in terms.items())]
                  for (top, bot), terms in matrix.items())
    return {"colourings": sum(c for _, _, terms in rows for _, c in terms),
            "sha256": hashlib.sha256(json.dumps(rows).encode()).hexdigest()}


@functools.cache
def moves_reference() -> dict:
    """{pair tag: {diagram label: fingerprint}} as frozen from the seed commit."""
    return json.loads(MOVES_REFERENCE.read_text())


def _d4_extension(ts):
    g = ts.groups
    s4 = g.symmetric_group(4)
    gens = [s4.element_by_label("(1 2 3 4)"), s4.element_by_label("(1 3)")]
    d4, _ = g.subgroup(s4, g.subgroup_closure(s4, gens), name="D4")
    _, proj = g.central_quotient(d4)
    return ts.crossed_modules.braided_from_central_extension(proj)


def _shift_rack(ts, n: int):
    return ts.racks.Rack(right=np.array([[(x + 1) % n] * n for x in range(n)]),
                         name=f"shift{n}")


class Moves:
    name = "moves"

    def setup(self, ts, seed: int):
        g, p, r = ts.groups, ts.pairs, ts.racks
        s3, z3 = g.symmetric_group(3), g.cyclic_group(3)
        d4 = _d4_extension(ts)
        r3 = r.dihedral_quandle(3)
        pairs = [
            ("rack quandle R3", p.pair_from_rack(r3, z3)),
            ("rack shift3", p.pair_from_rack(_shift_rack(ts, 3), z3)),
            ("cocycle R3/Z3", p.pair_from_rack_cocycle(
                r.cocycle_from_json(r3, R3_COCYCLE), z3)),
            ("eisermann S3", p.pair_eisermann(
                s3, s3.element_by_label("(1 2 3)"), carrier="group")),
            ("peiffer S3", p.pair_from_2xmod(
                ts.crossed_modules.abelianisation_tensor_2xmod(s3))),
            ("lift unframed D4", p.pair_eisermann_lift_unframed(d4, 1)),
            ("lift framed D4", p.pair_eisermann_lift_framed(d4, 1)),
        ]
        for _, pair in pairs:
            pair.transfer()
        words = braid_words(seed)
        return SimpleNamespace(pairs=pairs, words=words,
                               braids=list(zip(words, BRAID_KEEP)),
                               catalog=ts.diagrams.catalog_names())

    def diagrams(self, ts, state):
        d = ts.diagrams
        for name in state.catalog:
            yield name, d.load_catalog(name)
        for word, keep in state.braids:
            yield (braid_label(word, keep),
                   d.trace_closure(d.braid_word_to_tangle(word, 2), keep=keep))

    def run(self, ts, state):
        matrix = ts.engine.invariant_matrix
        bases = []
        neighbours = 0
        mismatches = []
        for tag, pair in state.pairs:
            for label, d in self.diagrams(ts, state):
                base = matrix(d, pair)
                bases.append((tag, label, base))
                for mp in ts.diagrams.move_neighbours(d, pair.mode):
                    neighbours += 1
                    if matrix(mp.after, pair) != base:
                        mismatches.append(f"{tag}: {mp.tag} changed {label}")
        return bases, neighbours, mismatches

    def check(self, ts, state, out) -> PassCheck:
        """Neighbours against their base; each base against its frozen value."""
        bases, neighbours, mismatches = out
        reference = moves_reference()
        problems = list(mismatches)
        colourings = 0
        for tag, label, base in bases:
            got = matrix_fingerprint(base)
            colourings += got["colourings"]
            want = reference.get(tag, {}).get(label)
            if got != want:
                problems.append(f"{tag}: {label} is {got}, frozen {want}")
        return PassCheck(len(bases) + neighbours, len(problems),
                         {"diagrams": len(bases), "neighbours": neighbours,
                          "matrix_calls": len(bases) + neighbours,
                          "colourings": colourings}, problems)


WORKLOADS = {w.name: w for w in (Tables(), Bigsum(), Moves())}


# ----------------------------------------------------------------------
# trace points: where each layer's callers look its functions up
# ----------------------------------------------------------------------


def _colouring_bound(args, kwargs) -> dict:
    """n^cups, the branches a cup-by-cup enumeration may visit."""
    d, transfer = args[0], args[1]
    cups = sum(1 for s in d.slices if s.gen in ("cupR", "cupL"))
    return {"engine.colouring_bound": transfer.pair.g.order ** cups}


def trace_points(ts) -> list[tuple]:
    """(module, attribute, span name, wrapper options) for the tracer."""
    t, e, p, d = ts.tables, ts.engine, ts.pairs, ts.diagrams
    return [
        (t, "diff_table", "tables.diff",
         {"counter": lambda r: {"tables.cells": len(r.cells)}}),
        (t, "compute_cell", "tables.cell", {}),
        (t, "expected_cell", "tables.expected", {}),
        (t, "symmetric_group", "groups.build", {}),
        (t, "pgl2", "groups.build", {}),
        (t, "braided_from_central_extension", "crossed_modules.build", {}),
        (t, "pair_eisermann", "pairs.construct", {}),
        (t, "pair_eisermann_lift_unframed", "pairs.construct", {}),
        (p, "pair_eisermann", "pairs.construct", {}),
        (p, "build_transfer", "pairs.transfer", {}),
        (p, "validate_pair", "pairs.validate",
         {"counter": lambda r: {"validation.tuples":
                                sum(c.checked for c in r.checks)}}),
        (t, "load_catalog", "diagrams.load", {}),
        (d, "load_catalog", "diagrams.load", {}),
        (d, "braid_word_to_tangle", "diagrams.load", {}),
        (d, "trace_closure", "diagrams.load", {}),
        (d, "move_neighbours", "diagrams.neighbours",
         {"counter": lambda r: {"diagrams.neighbours": len(r)}}),
        (t, "invariant", "engine.invariant", {}),
        (e, "invariant", "engine.invariant", {}),
        (e, "invariant_matrix", "engine.matrix", {}),
        (e, "enumerate_colourings", "engine.enumerate",
         {"on_call": _colouring_bound}),
        (e, "evaluate", "engine.evaluate", {"leaf": True}),
    ]
