"""Freeze the moves workload's base matrices into moves_reference.json.

Run from the root of a checkout, on the commit whose values are frozen:

    python3 bench/freeze_moves.py

For each of the moves pairs it stores the colouring total and SHA-256
(``workloads.matrix_fingerprint``) of the invariant_matrix of every catalog
diagram and of every two-strand braid word that ``braid_words`` can draw,
closed with each ``BRAID_KEEP`` value, so the reference holds for any seed.
"""

from __future__ import annotations

import itertools
import json
import sys

import workloads
from run import SRC


def main() -> None:
    sys.path.insert(0, str(SRC))
    ts = workloads.import_library()
    wl = workloads.WORKLOADS["moves"]
    state = wl.setup(ts, 0)
    words = itertools.product((1, -1), repeat=workloads.BRAID_LENGTH)
    state.braids = [(list(w), keep) for w in words
                    for keep in sorted(set(workloads.BRAID_KEEP))]
    reference = {tag: {label: workloads.matrix_fingerprint(
                           ts.engine.invariant_matrix(d, pair))
                       for label, d in wl.diagrams(ts, state)}
                 for tag, pair in state.pairs}
    workloads.MOVES_REFERENCE.write_text(
        json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {sum(map(len, reference.values()))} fingerprints "
          f"to {workloads.MOVES_REFERENCE.name}")


if __name__ == "__main__":
    main()
