"""Batch front end: validate inputs, compute invariants, diff the tables.

Subcommands, each with only the flags it reads:
  validate   axiom sweeps for groups, racks, cocycles, crossed modules and
             Reidemeister pairs built from a descriptor (--group, --rack,
             --pair, --diagram, --framed, --thorough)
  invariant  state sum of a diagram under a pair, text or JSON (--pair,
             --diagram, --top, --bottom, --direction, --json)
  tables     recompute the bundled trefoil tables and diff them (--json)
  moves      invariance of the state sum under the listed diagram moves
             (--pair, --diagram, --framed); with --diagram, a diagram over
             the size cap is an error, and over the whole catalog it is
             skipped

Group specs: s<n> (symmetric), z<n> (cyclic), gl2_<p>, pgl2_<p>, trivial,
or a path to a Cayley-table CSV.  Rack specs: dihedral:<n>, conj:<group>,
eisermann:<group>:<x>, or a path to a left-table CSV.  Pair descriptors are
JSON, inline or in a file:

  {"kind": "rack", "rack": "dihedral:3", "group": "z3"}
  {"kind": "cocycle", "rack": "dihedral:3", "group": "z3",
   "values": {"v_moduli": [3], "table": [[0,0,1],[2,0,2],[1,0,0]]}}
  {"kind": "eisermann", "group": "s5", "x": "(1 2 3 4 5)",
   "carrier": "group"}
  {"kind": "2xmod", "group": "s3"}
  {"kind": "lift_unframed", "modulus": 5, "x": "(2 0; 0 1)"}
  {"kind": "lift_framed",   "modulus": 5, "x": "(2 0; 0 1)"}

A cocycle's "values" is an object inside the descriptor with the two keys
cocycle_from_json reads, "v_moduli" and "table"; a long table goes in a
descriptor file.  "group" defaults to the cyclic group on the rack's
carrier, "carrier" to "commutator" and "modulus" to 5.  Every pair input,
the group and the basepoint "x" included, is read from the descriptor;
--group is validate's own group, checked whether or not --pair is given.

Exit codes: 0 success, 1 validation failure or value mismatch, 2 bad usage
or configuration.  Results go to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .algebra import GroupAlgebraElement
from .crossed_modules import (
    abelianisation_tensor_2xmod,
    braided_from_central_extension,
    validate_2xmod,
    validate_crossed_module,
)
from .diagrams import (
    catalog_names,
    load_catalog,
    move_neighbours,
    parse_tangle,
)
from .engine import invariant, invariant_matrix
from .errors import SizeLimitError, TangleSumError
from .groups import (
    FiniteGroup,
    cyclic_group,
    from_cayley_csv,
    gl2,
    pgl2,
    symmetric_group,
    trivial_group,
)
from .pairs import (
    ReidemeisterPair,
    pair_eisermann,
    pair_eisermann_lift_framed,
    pair_eisermann_lift_unframed,
    pair_from_2xmod,
    pair_from_rack,
    pair_from_rack_cocycle,
    validate_pair,
)
from .racks import (
    cocycle_from_json,
    conjugation_quandle,
    dihedral_quandle,
    eisermann_quandle,
    rack_from_csv,
    validate_cocycle,
    validate_rack,
)
from .tables import TABLE_NAMES, diff_table


class UsageError(Exception):
    pass


# ----------------------------------------------------------------------
# descriptor loading
# ----------------------------------------------------------------------


def load_group(spec: str) -> FiniteGroup:
    s = spec.strip().lower()
    if s == "trivial":
        return trivial_group()
    if s.startswith("s") and s[1:].isdigit():
        return symmetric_group(int(s[1:]))
    if s.startswith("z") and s[1:].isdigit():
        return cyclic_group(int(s[1:]))
    if s.startswith("gl2_") and s[4:].isdigit():
        return gl2(int(s[4:]))
    if s.startswith("pgl2_") and s[5:].isdigit():
        return pgl2(int(s[5:]))[0]
    if Path(spec).is_file():
        return from_cayley_csv(spec)
    raise UsageError(f"unknown group spec {spec!r}")


def load_rack(spec: str):
    parts = spec.split(":")
    if parts[0] == "dihedral" and len(parts) == 2 and parts[1].isdigit():
        return dihedral_quandle(int(parts[1]))
    if parts[0] == "conj" and len(parts) == 2:
        return conjugation_quandle(load_group(parts[1]))
    if parts[0] == "eisermann" and len(parts) == 3:
        g = load_group(parts[1])
        return eisermann_quandle(g, g.element_by_label(parts[2]),
                                 carrier="group")
    if Path(spec).is_file():
        return rack_from_csv(spec)
    raise UsageError(f"unknown rack spec {spec!r}")


def load_diagram(spec: str):
    if spec in catalog_names():
        return load_catalog(spec)
    path = Path(spec)
    if path.is_file():
        return parse_tangle(path.read_text())
    raise UsageError(
        f"{spec!r} is neither a catalog name ({', '.join(catalog_names())}) "
        "nor a file")


def _pair_descriptor(args) -> dict:
    text = args.pair
    if text is None:
        raise UsageError("this command needs --pair")
    text = text.strip()
    if not text.startswith("{"):
        path = Path(text)
        if not path.is_file():
            raise UsageError(f"pair descriptor file {text!r} not found")
        text = path.read_text()
    try:
        desc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"pair descriptor is not valid JSON: {exc}") from exc
    if not isinstance(desc, dict) or "kind" not in desc:
        raise UsageError('pair descriptor must be an object with a "kind"')
    return desc


def _text(desc: dict, key: str) -> str:
    """desc[key], which must be a string; a UsageError names the key and
    the pair kind otherwise."""
    value = desc.get(key)
    if not isinstance(value, str):
        got = f", got {value!r}" if key in desc else ""
        raise UsageError(f'{desc["kind"]} pair needs a string "{key}"{got}')
    return value


def build_pair(desc: dict) -> ReidemeisterPair:
    kind = desc["kind"]
    if kind == "rack":
        r = load_rack(_text(desc, "rack"))
        grp = load_group(_text(desc, "group")) if "group" in desc \
            else cyclic_group(r.size)
        return pair_from_rack(r, grp)
    if kind == "cocycle":
        r = load_rack(_text(desc, "rack"))
        grp = load_group(_text(desc, "group")) if "group" in desc \
            else cyclic_group(r.size)
        values = desc.get("values")
        if not isinstance(values, dict):
            raise UsageError('cocycle pair needs a "values" object')
        c = cocycle_from_json(r, values)
        return pair_from_rack_cocycle(c, grp)
    if kind == "eisermann":
        g = load_group(_text(desc, "group"))
        return pair_eisermann(g, g.element_by_label(_text(desc, "x")),
                              carrier=desc.get("carrier", "commutator"))
    if kind == "2xmod":
        g = load_group(_text(desc, "group"))
        return pair_from_2xmod(abelianisation_tensor_2xmod(g))
    if kind in ("lift_unframed", "lift_framed"):
        p = desc.get("modulus", 5)
        if not str(p).isdigit():
            raise UsageError(f'{kind} pair needs an integer "modulus", '
                             f"got {p!r}")
        _, proj = pgl2(int(p))
        b = braided_from_central_extension(proj)
        gl = proj.source
        x = int(proj.mapping[gl.element_by_label(_text(desc, "x"))])
        builder = (pair_eisermann_lift_unframed if kind == "lift_unframed"
                   else pair_eisermann_lift_framed)
        return builder(b, x)
    raise UsageError(f"unknown pair kind {kind!r}")


def _parse_enhancement(group: FiniteGroup, text: str | None, width: int,
                       default_identity: bool):
    if text is None:
        return tuple([group.identity] * width) if default_identity else None
    labels = [t.strip() for t in text.split(",")] if text else []
    try:
        return tuple(group.element_by_label(t) for t in labels)
    except TangleSumError as exc:
        raise UsageError(str(exc)) from exc


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------


def cmd_validate(args) -> int:
    reports = []
    if args.group:
        g = load_group(args.group)
        g.validate_axioms()
        print(f"group {g.name}: order {g.order}, "
              f"{'abelian' if g.is_abelian else 'nonabelian'} "
              "(axioms checked)")
    if args.rack:
        r = load_rack(args.rack)
        reports.append(validate_rack(r, thorough=args.thorough))
    if args.pair:
        pair = build_pair(_pair_descriptor(args))
        meta = pair.meta
        if "source" not in meta:  # else validate_2xmod sweeps pair.xmod
            reports.append(validate_crossed_module(pair.xmod,
                                                   thorough=args.thorough))
        if "rack" in meta:
            reports.append(validate_rack(meta["rack"], thorough=args.thorough))
        if "cocycle" in meta:
            reports.append(validate_cocycle(meta["cocycle"],
                                            thorough=args.thorough))
        if "source" in meta:
            reports.append(validate_2xmod(meta["source"],
                                          thorough=args.thorough))
        mode = "framed" if args.framed else None
        reports.append(validate_pair(pair, mode=mode, thorough=args.thorough))
    if args.diagram:
        d = load_diagram(args.diagram)
        print(f"diagram {args.diagram}: {len(d.top)}->{len(d.bottom)} "
              f"strands, {len(d.crossings)} crossings, writhe {d.writhe}, "
              f"{d.n_arcs} arcs, {d.component_count()} component(s)")
    if not reports and not (args.group or args.diagram):
        raise UsageError("nothing to validate: give --group, --rack, "
                         "--pair and/or --diagram")
    ok = True
    for rep in reports:
        print(rep.summary())
        ok = ok and rep.ok
        for v in rep.violations:
            print(f"  witness: {v.axiom} fails at {v.witness}: {v.detail}",
                  file=sys.stderr)
    return 0 if ok else 1


def cmd_invariant(args) -> int:
    pair = build_pair(_pair_descriptor(args))
    d = load_diagram(args.diagram)
    g = pair.g
    if args.direction == "ket":
        top = _parse_enhancement(g, args.top, len(d.top), True)
        bottom = _parse_enhancement(g, args.bottom, len(d.bottom), False)
        result = invariant(d, pair, top=top, bottom=bottom)
    else:  # bra: fix the bottom, sum over tops
        bottom = _parse_enhancement(g, args.bottom, len(d.bottom), True)
        if args.top is None:
            result = invariant(d, pair, bottom=bottom)
        else:
            top = _parse_enhancement(g, args.top, len(d.top), False)
            iv = invariant(d, pair, top=top, bottom=bottom)
            result = {top: iv} if iv.terms else {}

    if isinstance(result, dict):
        total = GroupAlgebraElement(pair.e)
        for iv in result.values():
            total = total + iv.algebra()
        if args.json:
            print(json.dumps({
                "pair": pair.name,
                "direction": args.direction,
                "buckets": [iv.to_json() for iv in result.values()],
                "sum": total.to_json(),
            }, indent=2))
        else:
            print(total.display())
    else:
        if args.json:
            print(json.dumps(result.to_json(), indent=2))
        else:
            print(result.display())
    return 0


def cmd_tables(args) -> int:
    names = TABLE_NAMES if args.which == "all" else (args.which,)
    ok = True
    out = {}
    for name in names:
        diff = diff_table(name)
        ok = ok and diff.ok
        out[name] = diff
        if not args.json:
            print(diff.summary())
    if args.json:
        print(json.dumps({
            name: [{
                "knot": c.knot, "x": c.x_label, "computed": c.computed,
                "transcribed": c.transcribed, "status": c.status,
                "note": c.note, "directions_agree": c.directions_agree,
            } for c in diff.cells]
            for name, diff in out.items()
        }, indent=2))
    return 0 if ok else 1


def cmd_moves(args) -> int:
    if args.pair:
        pair = build_pair(_pair_descriptor(args))
    else:
        pair = pair_from_rack(dihedral_quandle(3), cyclic_group(3))
    moveset = "framed" if (args.framed or pair.mode == "framed") \
        else "unframed"
    diagrams = [args.diagram] if args.diagram else list(catalog_names())
    failures = 0
    for name in diagrams:
        d = load_diagram(name)
        try:
            base = invariant_matrix(d, pair)
        except SizeLimitError as exc:
            if args.diagram:  # the one diagram asked for: main reports it
                raise
            print(f"{name}: skipped ({exc})", file=sys.stderr)
            continue
        counts: dict[str, int] = {}
        for mp in move_neighbours(d, moves=moveset):
            after = invariant_matrix(mp.after, pair)
            counts[mp.tag] = counts.get(mp.tag, 0) + 1
            if after != base:
                failures += 1
                print(f"{name}: {mp.tag} changed the invariant",
                      file=sys.stderr)
        summary = ", ".join(f"{t}:{n}" for t, n in sorted(counts.items()))
        print(f"{name}: {sum(counts.values())} move neighbours ok "
              f"({summary})")
    return 0 if failures == 0 else 1


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="tanglesum",
        description="state-sum tangle invariants from crossed modules")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, diagram_required=False):
        sp.add_argument("--pair", help="pair descriptor JSON (inline or file)")
        sp.add_argument("--diagram", required=diagram_required,
                        help="catalog name or .tng file")

    sp = sub.add_parser("validate", help="axiom sweeps for the given inputs")
    sp.add_argument("--group", help="group spec, e.g. s5, z6, gl2_5")
    common(sp)
    sp.add_argument("--rack", help="rack spec, e.g. dihedral:3")
    sp.add_argument("--framed", action="store_true",
                    help="check the pair's framed axioms")
    sp.add_argument("--thorough", action="store_true",
                    help="exhaustive validation sweeps")
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("invariant", help="state sum of a diagram")
    common(sp, diagram_required=True)
    sp.add_argument("--json", action="store_true",
                    help="machine-readable output")
    sp.add_argument("--top", help="comma-separated colour labels")
    sp.add_argument("--bottom", help="comma-separated colour labels")
    sp.add_argument("--direction", choices=("ket", "bra"), default="ket",
                    help="ket: fix top, sum bottoms; bra: the reverse")
    sp.set_defaults(func=cmd_invariant)

    sp = sub.add_parser("tables", help="recompute and diff the bundled tables")
    sp.add_argument("which", nargs="?", default="all",
                    choices=TABLE_NAMES + ("all",))
    sp.add_argument("--json", action="store_true",
                    help="machine-readable output")
    sp.set_defaults(func=cmd_tables)

    sp = sub.add_parser("moves", help="move invariance of the state sum")
    common(sp)
    sp.add_argument("--framed", action="store_true",
                    help="use the framed move set")
    sp.set_defaults(func=cmd_moves)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, OSError, TangleSumError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
