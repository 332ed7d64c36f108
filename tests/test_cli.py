"""Command line entry points, exercised through main(argv) return codes."""

from __future__ import annotations

import json

import pytest

from named_examples import R3_COCYCLE
from tanglesum.cli import build_pair, main
from tanglesum.diagrams import load_catalog
from tanglesum.engine import compile_program, invariant

GOOD_COCYCLE = json.dumps({"kind": "cocycle", "rack": "dihedral:3",
                           "group": "z3", "values": R3_COCYCLE})
BAD_COCYCLE = (
    '{"kind": "cocycle", "rack": "dihedral:3", "group": "z3",'
    ' "values": {"v_moduli": [3], "table": [[0,0,1],[2,0,2],[1,1,0]]}}'
)
RACK_PAIR = '{"kind": "rack", "rack": "dihedral:3"}'
EISERMANN_S3 = '{"kind": "eisermann", "group": "s3", "x": "(1 2 3)", "carrier": "group"}'
EISERMANN_S5 = '{"kind": "eisermann", "group": "s5", "x": "(1 2 3 4 5)"}'


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def test_validate_group_only(capsys):
    assert main(["validate", "--group", "s5"]) == 0
    out = capsys.readouterr().out
    assert "order 120" in out


BROKEN_TABLES = {
    # row 2 repeats an entry: not a Latin square
    "not latin": [[0, 1, 2], [1, 0, 2], [2, 2, 0]],
    # a Latin square (a loop of order 5) that is not associative
    "not associative": [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3],
                        [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]],
}


@pytest.mark.parametrize("which", sorted(BROKEN_TABLES))
def test_validate_group_checks_built_in_groups(monkeypatch, capsys, which):
    from tanglesum import cli
    from tanglesum.groups import FiniteGroup

    table = BROKEN_TABLES[which]
    broken = FiniteGroup("broken", tuple(f"g{i}" for i in range(len(table))),
                         table, identity=0)
    monkeypatch.setattr(cli, "symmetric_group", lambda n: broken)
    assert main(["validate", "--group", "s5"]) != 0
    captured = capsys.readouterr()
    assert "axioms checked" not in captured.out
    assert "error:" in captured.err


def test_validate_group_names_the_associativity_failure(monkeypatch, capsys):
    from tanglesum import cli, groups

    table = BROKEN_TABLES["not associative"]
    loop = groups.FiniteGroup("loop", tuple(f"g{i}" for i in range(5)), table,
                              identity=0)
    monkeypatch.setattr(cli, "symmetric_group", lambda n: loop)
    assert main(["validate", "--group", "s5"]) != 0
    assert capsys.readouterr().err == (
        "error: associativity fails at (g1, g1, g2): "
        "(g1*g1)*g2 = g2 but g1*(g1*g2) = g4\n")


def test_validate_rack(capsys):
    assert main(["validate", "--rack", "dihedral:5"]) == 0
    out = capsys.readouterr().out
    assert "validation of rack R_5: OK" in out
    assert "x <| x = x = x |> x" in out


def test_validate_good_cocycle_pair(capsys):
    assert main(["validate", "--pair", GOOD_COCYCLE]) == 0
    out = capsys.readouterr().out
    assert "ok" in out


def test_validate_perturbed_cocycle_fails_with_witness(capsys):
    assert main(["validate", "--pair", BAD_COCYCLE]) == 1
    err = capsys.readouterr().err
    assert "fails at" in err


def test_validate_rack_cocycle_on_a_quandle(capsys):
    pair = ('{"kind": "cocycle", "rack": "dihedral:3", "values": '
            '{"v_moduli": [3], "table": [[1,1,1],[1,1,1],[1,1,1]]}}')
    assert main(["validate", "--pair", pair, "--thorough"]) == 0
    out = capsys.readouterr().out
    assert "validation of rack cocycle w: OK" in out
    assert "w(x,x) = 0" not in out
    assert "validation of framed pair" in out


@pytest.mark.parametrize("pair", [
    '{"kind": "2xmod", "group": "s3"}',
    '{"kind": "lift_framed", "modulus": 3, "x": "(2 0; 0 1)"}',
])
def test_validate_sweeps_the_derived_crossed_module_once(capsys, pair):
    assert main(["validate", "--pair", pair]) == 0
    out = capsys.readouterr().out
    names = [line.strip().split(": ok [")[0] for line in out.splitlines()
             if ": ok [" in line]
    assert "derived crossed module: second Peiffer equation" in names
    assert "second Peiffer equation" not in names
    assert len(names) == len(set(names))


def test_validate_eisermann_pair(capsys):
    assert main(["validate", "--pair", EISERMANN_S3]) == 0


def test_validate_checks_the_group_beside_a_pair(capsys):
    assert main(["validate", "--group", "s4", "--pair", EISERMANN_S3]) == 0
    out = capsys.readouterr().out
    assert "group S4: order 24" in out
    assert "validation of unframed pair" in out


def test_validate_nothing_given_is_a_usage_error(capsys):
    assert main(["validate"]) == 2


@pytest.mark.parametrize("argv", [
    ["--group", "s7"], ["--group", "gl2_7"], ["--group", "pgl2_7"],
    ["--rack", "conj:s7"],
])
def test_validate_group_above_the_table_limit_is_a_usage_error(capsys, argv):
    assert main(["validate", *argv]) == 2
    assert "TABLE_LIMIT" in capsys.readouterr().err


def test_validate_unknown_group_spec(capsys):
    assert main(["validate", "--group", "e8"]) == 2


@pytest.mark.parametrize("text, message", [
    pytest.param("top: v\nX+ @0\n", "slice 0: X+ at 0 beyond width 1",
                 id="out-of-width"),
    pytest.param("top: v v\ncapR @0\n",
                 "slice 0: capR expects ('v', '^') at 0, found ('v', 'v')",
                 id="wrong-orientation"),
])
def test_validate_a_diagram_file_with_a_bad_slice_is_a_usage_error(
        capsys, tmp_path, text, message):
    path = tmp_path / "bad.tng"
    path.write_text(text)
    assert main(["validate", "--diagram", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("flag", ["--group", "--rack"])
@pytest.mark.parametrize("text, message", [
    pytest.param("0,1\n1,x\n", "line 2: cells must be integers",
                 id="non-integer"),
    pytest.param("# Z2\n0,1\n\n1\n", "line 4: 1 cells where the first row has 2",
                 id="ragged"),
])
def test_validate_a_malformed_csv_is_a_usage_error(capsys, tmp_path, flag,
                                                   text, message):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    assert main(["validate", flag, str(path)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert message in lines[0]


def test_validate_csv_skips_comments_and_blank_lines(capsys, tmp_path):
    path = tmp_path / "z2.csv"
    path.write_text("# Z2, identity first\n\n0,1\n1,0\n")
    assert main(["validate", "--group", str(path)]) == 0
    assert "order 2" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# invariant
# ---------------------------------------------------------------------------


def test_invariant_closed_diagram(capsys):
    rc = main(["invariant", "--diagram", "trefoil_plus_closed",
               "--pair", RACK_PAIR])
    assert rc == 0
    assert "9*0" in capsys.readouterr().out.replace(" ", "")


def test_invariant_string_diagram_default_top(capsys):
    rc = main(["invariant", "--diagram", "trefoil_plus_string",
               "--pair", EISERMANN_S3])
    assert rc == 0
    out = capsys.readouterr().out
    assert "sum" in out or "id" in out


def test_invariant_json_output(capsys):
    rc = main(["invariant", "--diagram", "trefoil_plus_string",
               "--pair", EISERMANN_S3, "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["direction"] == "ket"
    assert payload["buckets"]


def test_invariant_with_explicit_boundaries(capsys):
    rc = main(["invariant", "--diagram", "trefoil_plus_string",
               "--pair", RACK_PAIR, "--top", "1", "--bottom", "1"])
    assert rc == 0
    assert main(["invariant", "--diagram", "trefoil_plus_string",
                 "--pair", RACK_PAIR, "--top", "1", "--bottom", "2"]) == 0


def test_invariant_bra_direction(capsys):
    rc = main(["invariant", "--diagram", "trefoil_plus_string",
               "--pair", EISERMANN_S3, "--direction", "bra"])
    assert rc == 0


def _bra_bucket(top, bottom):
    return {"source": {"orientations": ["v"] * len(top), "elements": top},
            "target": {"orientations": ["v"] * len(bottom),
                       "elements": bottom},
            "terms": [{"element_label": "id", "count": 1}]}


@pytest.mark.parametrize("diagram, bottom, buckets", [
    ("trefoil_plus_string", [], [_bra_bucket(["id"], ["id"])]),
    ("braid_sigma1_sigma2_sigma1", ["--bottom", "(1 2),(1 2 3),id"],
     [_bra_bucket(["(1 3 2)", "id", "(1 2)"], ["(1 2)", "(1 2 3)", "id"])]),
])
def test_invariant_bra_direction_output_is_pinned(capsys, diagram, bottom,
                                                  buckets):
    argv = ["invariant", "--diagram", diagram, "--pair", EISERMANN_S3,
            "--direction", "bra", *bottom]
    assert main(argv) == 0
    assert capsys.readouterr().out == "id\n"
    assert main(argv + ["--json"]) == 0
    expected = {"pair": "eisermann(S3, (1 2 3), group)", "direction": "bra",
                "buckets": buckets,
                "sum": {"group": "S3",
                        "terms": [{"element": "id", "count": 1}]}}
    assert capsys.readouterr().out == json.dumps(expected, indent=2) + "\n"


def test_invariant_bra_direction_is_seeded_on_the_bottom(capsys):
    # 60^3 tops: too many to seed every top, but seeded on the bottom the
    # sum plans no branches
    argv = ["invariant", "--diagram", "braid_sigma1_sigma2_sigma1",
            "--pair", EISERMANN_S5, "--direction", "bra",
            "--bottom", "id,id,id"]
    assert main(argv) == 0
    assert capsys.readouterr().out == "id\n"
    assert main(argv + ["--json"]) == 0
    bucket = _bra_bucket(["id", "id", "id"], ["id", "id", "id"])
    expected = {"pair": "eisermann(S5, (1 2 3 4 5), commutator)",
                "direction": "bra", "buckets": [bucket],
                "sum": {"group": "S5'",
                        "terms": [{"element": "id", "count": 1}]}}
    assert capsys.readouterr().out == json.dumps(expected, indent=2) + "\n"
    # the buckets against one ket sum per top, on a few tops
    pair = build_pair(json.loads(EISERMANN_S5))
    d = load_catalog("braid_sigma1_sigma2_sigma1")
    assert compile_program(d, from_bottom=True).branch_arcs == ()
    g = pair.g
    ident = (g.identity,) * 3
    for labels in [("id", "id", "id"), ("(1 2 3)", "id", "id"),
                   ("id", "(1 2)(3 4)", "(1 2 3 4 5)")]:
        top = tuple(g.element_by_label(x) for x in labels)
        terms = invariant(d, pair, top=top, bottom=ident).terms
        assert terms == ({g.identity: 1} if top == ident else {})


@pytest.mark.parametrize("command, flag", [
    ("validate", "--json"), ("invariant", "--framed"),
    ("invariant", "--thorough"), ("moves", "--json"), ("moves", "--thorough"),
    ("validate", "--x"), ("invariant", "--x"), ("invariant", "--group"),
    ("moves", "--x"), ("moves", "--group"),
])
def test_a_flag_the_subcommand_does_not_read_is_a_usage_error(capsys, command,
                                                               flag):
    # a subcommand takes only the flags it reads, so none is silently ignored
    with pytest.raises(SystemExit) as exc:
        main([command, "--pair", RACK_PAIR, "--diagram", "unknot_closed", flag])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_invariant_missing_diagram(capsys):
    assert main(["invariant", "--diagram", "no_such_knot",
                 "--pair", RACK_PAIR]) == 2


def test_invariant_requires_pair(capsys):
    assert main(["invariant", "--diagram", "unknot_closed"]) == 2


def test_invariant_bad_pair_json(capsys):
    assert main(["invariant", "--diagram", "unknot_closed",
                 "--pair", '{"kind": "sparkle"}']) == 2


@pytest.mark.parametrize("argv, names", [
    pytest.param(["invariant", "--pair", '{"kind": "eisermann"}'],
                 '"group"', id="no-group"),
    pytest.param(["invariant", "--pair", '{"kind": "eisermann", "group": "s3"}'],
                 '"x"', id="no-x"),
    pytest.param(["invariant", "--pair", '{"kind": "rack", "rack": 3}'],
                 '"rack"', id="rack-not-a-string"),
    pytest.param(["invariant", "--pair",
                  '{"kind": "lift_framed", "modulus": "x", "x": "I"}'],
                 '"modulus"', id="bad-modulus"),
    pytest.param(["invariant", "--pair",
                  '{"kind": "cocycle", "rack": "dihedral:3"}'],
                 '"values"', id="no-values"),
    pytest.param(["invariant", "--pair",
                  '{"kind": "cocycle", "rack": "dihedral:3", '
                  '"values": {"v_moduli": [3]}}'],
                 "'table'", id="no-table"),
    pytest.param(["invariant", "--pair",
                  '{"kind": "cocycle", "rack": "dihedral:3", '
                  '"values": {"v_moduli": ["a"], '
                  '"table": [[0,0,0],[0,0,0],[0,0,0]]}}'],
                 "'v_moduli'", id="non-integer-modulus"),
    pytest.param(["invariant", "--pair",
                  '{"kind": "cocycle", "rack": "dihedral:3", '
                  '"values": {"v_moduli": [3], '
                  '"table": [[0,0,0],[0,"a",0],[0,0,0]]}}'],
                 "'table'", id="non-integer-table-entry"),
    pytest.param(["validate", "--pair",
                  '{"kind":"cocycle","rack":"dihedral:3","values":'
                  '{"v_moduli":[-3],"table":[[0,0,0],[0,0,0],[0,0,0]]}}'],
                 "modulus -3", id="negative-modulus"),
    pytest.param(["validate", "--pair",
                  '{"kind":"cocycle","rack":"dihedral:3","values":'
                  '{"v_moduli":[0],"table":[[0,0,0],[0,0,0],[0,0,0]]}}'],
                 "modulus 0", id="zero-modulus"),
    pytest.param(["validate", "--rack", "dihedral:abc"],
                 "'dihedral:abc'", id="bad-rack-order"),
])
def test_malformed_descriptor_is_a_usage_error(capsys, argv, names):
    # exit code 1 means a failed check, so a typo must not read as one
    assert main([*argv, "--diagram", "unknot_closed"]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert names in lines[0]


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------


def test_tables_table1(capsys):
    assert main(["tables", "table1"]) == 0
    out = capsys.readouterr().out
    assert "table1: 14 ok, 0 erratum, 0 mismatch" in out


def test_tables_rejects_unknown_choice(capsys):
    with pytest.raises(SystemExit):
        main(["tables", "table7"])


# ---------------------------------------------------------------------------
# moves
# ---------------------------------------------------------------------------


def test_moves_default_pair_single_diagram(capsys):
    rc = main(["moves", "--diagram", "sigma1_sigma1inv_closed"])
    assert rc == 0
    assert "move neighbours ok" in capsys.readouterr().out


def test_moves_with_eisermann_pair(capsys):
    rc = main(["moves", "--diagram", "unknot_string",
               "--pair", EISERMANN_S3])
    assert rc == 0


EISERMANN_S4 = ('{"kind": "eisermann", "group": "s4", "x": "(1 2 3 4)", '
                '"carrier": "group"}')


def test_moves_on_one_diagram_over_the_cap_is_an_error(capsys):
    # 24^3 top enhancements exceed the matrix cap: the one diagram asked for
    # is not checked, so the command must not report success
    assert main(["moves", "--pair", EISERMANN_S4,
                 "--diagram", "braid_sigma1_sigma2_sigma1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    lines = captured.err.splitlines()
    assert lines == ["error: 24^3 top enhancements exceed 4096"]


def test_moves_over_the_catalog_skips_a_diagram_over_the_cap(capsys):
    assert main(["moves", "--pair", EISERMANN_S4]) == 0
    captured = capsys.readouterr()
    assert ("braid_sigma1_sigma2_sigma1: skipped (24^3 top enhancements "
            "exceed 4096)") in captured.err.splitlines()
    assert "unknot_closed: " in captured.out
