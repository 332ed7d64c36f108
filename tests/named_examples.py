"""The small named examples that the tests share, each defined once.

Test-only, like slice_oracle.  The paper builds its Reidemeister pairs from
racks, quandle cocycles and braided crossed modules, and these are the
smallest instances the tests use:

- R3_COCYCLE, a quandle 2-cocycle of the dihedral quandle R3 with values
  in Z3.  It is a coboundary, the table of delta f(x, y) = f(x) - f(x <| y)
  mod 3 with f = (0, 2, 0), because H^2_Q(R3; Z3) = 0.  So on a closed
  diagram its state sum is the bare colouring count; only open tangles
  see its boundary terms.
- shift_rack(n), x <| y = x + 1 on Z_n: a rack that is not a quandle, so
  its rack pair is the only framed rack pair.
- d4_projection(), the dihedral group D4 (order 8, inside S4) onto its
  central quotient, and d4_extension(), the braided crossed module of that
  central extension: the smallest braided lift.
- move_families(), the seven pairs of the benchmark's moves workload under
  its tags.  A test that needs more pairs extends this dict rather than
  copying it.

bench/workloads.py keeps its own copy of these, since the benchmark
imports nothing of the repository but src/.
"""

from __future__ import annotations

import functools

import numpy as np

from tanglesum.crossed_modules import (
    abelianisation_tensor_2xmod,
    braided_from_central_extension,
)
from tanglesum.groups import (
    central_quotient,
    cyclic_group,
    subgroup,
    subgroup_closure,
    symmetric_group,
)
from tanglesum.pairs import (
    pair_eisermann,
    pair_eisermann_lift_framed,
    pair_eisermann_lift_unframed,
    pair_from_2xmod,
    pair_from_rack,
    pair_from_rack_cocycle,
)
from tanglesum.racks import Rack, cocycle_from_json, dihedral_quandle

R3_COCYCLE = {"v_moduli": [3], "table": [[0, 0, 1], [2, 0, 2], [1, 0, 0]]}


def shift_rack(n: int) -> Rack:
    """The permutation rack x <| y = x + 1 on Z_n; a rack, not a quandle."""
    return Rack(
        right=np.array([[(x + 1) % n] * n for x in range(n)]), name=f"shift{n}"
    )


@functools.cache
def d4_projection():
    """D4 = <(1 2 3 4), (1 3)> in S4 onto D4 / Z(D4), of order 4."""
    s4 = symmetric_group(4)
    gens = [s4.element_by_label("(1 2 3 4)"), s4.element_by_label("(1 3)")]
    d4, _ = subgroup(s4, subgroup_closure(s4, gens), name="D4")
    _, proj = central_quotient(d4)
    return proj


@functools.cache
def d4_extension():
    """The braided crossed module of the central extension d4_projection()."""
    return braided_from_central_extension(d4_projection())


@functools.cache
def move_families() -> dict:
    """{tag: pair} for the seven pairs of the moves workload."""
    s3, z3, r3 = symmetric_group(3), cyclic_group(3), dihedral_quandle(3)
    d4 = d4_extension()
    return {
        "rack quandle R3": pair_from_rack(r3, z3),
        "rack shift3": pair_from_rack(shift_rack(3), z3),
        "cocycle R3/Z3": pair_from_rack_cocycle(
            cocycle_from_json(r3, R3_COCYCLE), z3),
        "eisermann S3": pair_eisermann(
            s3, s3.element_by_label("(1 2 3)"), carrier="group"),
        "peiffer S3": pair_from_2xmod(abelianisation_tensor_2xmod(s3)),
        "lift unframed D4": pair_eisermann_lift_unframed(d4, 1),
        "lift framed D4": pair_eisermann_lift_framed(d4, 1),
    }
