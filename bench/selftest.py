"""Checks of the benchmark itself; run with ``python3 -m pytest bench/selftest.py``.

They take about a minute, so the name keeps them out of the tier-1 suite.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads
from tracer import Tracer

sys.path.insert(0, str(run.SRC))


def test_braid_words_are_a_function_of_the_seed():
    assert workloads.braid_words(7) == workloads.braid_words(7)
    words = {str(workloads.braid_words(s)) for s in range(20)}
    assert len(words) > 1
    for word in workloads.braid_words(7):
        assert len(word) == workloads.BRAID_LENGTH
        assert set(word) <= {1, -1}


def test_moves_setup_draws_the_same_words_on_a_fresh_import():
    wl = workloads.WORKLOADS["moves"]
    first = wl.setup(workloads.import_library(), 5).words
    again = wl.setup(workloads.import_library(), 5).words
    assert first == again == workloads.braid_words(5)


def test_moves_reference_covers_every_braid_a_seed_can_draw():
    labels = {workloads.braid_label(w, k)
              for seed in range(200)
              for w, k in zip(workloads.braid_words(seed), workloads.BRAID_KEEP)}
    for tag, frozen in workloads.moves_reference().items():
        assert labels <= set(frozen), tag


def test_moves_check_rejects_matrices_that_agree_but_are_wrong():
    wl = workloads.WORKLOADS["moves"]
    ts = workloads.import_library()
    state = wl.setup(ts, 4)
    labels = [label for label, _ in wl.diagrams(ts, state)]
    # an engine that returns {} for every diagram agrees with every
    # neighbour, so only the frozen reference can catch it
    empty = [(tag, label, {}) for tag, _ in state.pairs for label in labels]
    check = wl.check(ts, state, (empty, 0, []))
    frozen = workloads.moves_reference()
    coloured = [1 for tag, label, _ in empty
                if frozen[tag][label]["colourings"] > 0]
    assert check.failed == len(coloured) > len(empty) // 2


def test_missing_trace_point_is_an_error():
    tracer = Tracer()
    with pytest.raises(AttributeError):
        tracer.patch(workloads, "no_such_function", "x")


def _traced_pass(wl, seed):
    ts = workloads.import_library()
    state = wl.setup(ts, seed)
    tracer = Tracer()
    for module, attr, name, opts in workloads.trace_points(ts):
        tracer.patch(module, attr, name, **opts)
    root = tracer.open("pass")
    out = wl.run(ts, state)
    tracer.close(root)
    tracer.unpatch()
    return tracer, root, wl.check(ts, state, out)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_work_counts_repeat_and_self_times_add_up(name):
    wl = workloads.WORKLOADS[name]
    seen = []
    for _ in range(2):
        tracer, root, check = _traced_pass(wl, seed=3)
        assert check.failed == 0, check.problems
        layers = run.layer_metrics(tracer, root)
        _, _, opened, closed, _ = tracer.spans[root]
        self_total = sum(layers[k][0] for k in run.SELF_LAYERS)
        assert self_total == pytest.approx(closed - opened, rel=1e-9)
        seen.append((check.counts, tracer.breakdown(root)["counts"]))
    assert seen[0] == seen[1]


def test_exits_nonzero_without_the_library():
    alone = run.OUT / "standalone"
    shutil.rmtree(alone, ignore_errors=True)
    (alone / "bench").mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", alone)
    for path in run.HERE.glob("*.py"):
        shutil.copy(path, alone / "bench")
    command = json.loads((run.ROOT / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        command + ["--workload", "tables", "--seed", "1", "--seconds", "1",
                   "--trace", "0"],
        cwd=alone, capture_output=True, text=True, timeout=180)
    shutil.rmtree(alone)
    assert proc.returncode != 0
    assert proc.stdout == ""
