"""Invariance of the state sum under the diagrammatic relations.

The enhanced invariant is compared as the full matrix of boundary buckets,
so these tests exercise the open-diagram behaviour as well as the closed
values.  The framed/unframed split is confirmed in both directions: quandle
pairs survive R1, a genuinely framed pair does not.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

from named_examples import move_families
from tanglesum.diagrams import catalog_names, load_catalog, move_neighbours
from tanglesum.engine import invariant_matrix


def _bench_workloads():
    """bench/workloads.py, loaded read-only for its frozen moves values.

    Registered in sys.modules before it runs, as its dataclasses need.
    """
    name = "bench_workloads"
    if name not in sys.modules:
        path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
        spec = importlib.util.spec_from_file_location(name, path)
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


def assert_invariant_under_moves(pair, names, moves):
    for name in names:
        d = load_catalog(name)
        base = invariant_matrix(d, pair)
        for mp in move_neighbours(d, moves):
            after = invariant_matrix(mp.after, pair)
            assert after == base, f"{pair.name} changed under {mp.tag} on {name}"


def test_rack_pair_invariant_on_whole_catalog():
    p = move_families()["rack quandle R3"]
    assert_invariant_under_moves(p, catalog_names(), "unframed")


def test_cocycle_pair_invariant_on_knots():
    p = move_families()["cocycle R3/Z3"]
    names = ["trefoil_plus_closed", "figure_eight_closed",
             "sigma1_sigma1inv_closed", "trefoil_plus_string"]
    assert_invariant_under_moves(p, names, "unframed")


def test_eisermann_pair_invariant_on_selected_diagrams():
    p = move_families()["eisermann S3"]
    names = ["trefoil_plus_closed", "sigma1_sigma1inv_closed",
             "crossing_rotated_plus", "unknot_string"]
    assert_invariant_under_moves(p, names, "unframed")


def test_framed_pairs_invariant_under_framed_moves():
    shift = move_families()["rack shift3"]
    peiffer = move_families()["peiffer S3"]
    names = ["trefoil_plus_closed", "figure_eight_closed", "unknot_closed",
             "crossing_rotated_minus"]
    assert_invariant_under_moves(shift, names, "framed")
    assert_invariant_under_moves(peiffer, ["trefoil_plus_closed",
                                           "unknot_closed"], "framed")


def test_framed_pair_detects_kinks():
    # the negative control: a proper rack is sensitive to R1
    p = move_families()["rack shift3"]
    d = load_catalog("unknot_closed")
    base = invariant_matrix(d, p)
    kinked = [mp for mp in move_neighbours(d, "unframed") if mp.tag == "R1"]
    assert kinked
    changed = [mp for mp in kinked if invariant_matrix(mp.after, p) != base]
    assert changed, "a proper rack pair should notice a kink"


def test_peiffer_pair_tracks_writhe():
    # the abelianisation pair separates diagrams of different framing
    p = move_families()["peiffer S3"]
    plus = invariant_matrix(load_catalog("trefoil_plus_closed"), p)
    minus = invariant_matrix(load_catalog("trefoil_minus_closed"), p)
    assert plus == minus  # writhe +3 and -3 agree over tensor square of Z2
    unknot = invariant_matrix(load_catalog("unknot_closed"), p)
    assert plus != unknot


def test_move_families_are_the_frozen_moves_pairs():
    # the bench's moves workload freezes each family's matrix on the
    # catalog; fingerprinting with its own code keeps the two copies of
    # the families from drifting apart
    workloads = _bench_workloads()
    reference = workloads.moves_reference()
    assert set(move_families()) == set(reference)
    for tag, pair in move_families().items():
        for name in catalog_names():
            got = workloads.matrix_fingerprint(
                invariant_matrix(load_catalog(name), pair))
            assert got == reference[tag][name], (tag, name)
