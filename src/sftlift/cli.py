"""Command-line front end.

Exit codes: 0 success, 2 refusal (a malformed input file, an out-of-range
flag or a failed precondition), 1 internal error.  All randomized
subcommands record their seed in the output, and identical configuration
plus inputs produce byte-identical JSON (keys sorted, orderings canonical).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import cache
from json.encoder import encode_basestring_ascii

import numpy as np

from . import ca as ca_mod
from .codes import _lift_cycles, compute_degree, is_finite_to_one
from .errors import InfiniteToOne, PreconditionError
from .fibers import MonteCarloParams, classify_lifts_monte_carlo
from .graphs import (_dot, analyze_graph, determinize, entropy, load_graph_or_code, load_json,
                     render_symbol)
from .joinings import degree_joining_graph
from .measures import measure_from_json_dict

# The most row texts, joined from fragment lists, that ``periodic-lifts`` holds unwritten.
ROW_BATCH = 2**12


def _emit(payload):
    """Write a payload to stdout as ``json.dumps(payload, sort_keys=True, indent=2)``
    and a newline; ``joining`` and ``periodic-lifts`` write their JSON from arrays."""
    sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _mc_params(args):
    return MonteCarloParams(args.length, args.cyl_depth, args.tolerance, args.seed)


def cmd_analyze(args):
    report = analyze_graph(load_graph_or_code(args.input)[0].graph)
    out = {
        "is_essential": report.is_essential,
        "trimmed_symbols": [render_symbol(s) for s in report.trimmed_symbols],
        "components": [[render_symbol(s) for s in comp] for comp in report.components],
        "is_irreducible": report.is_irreducible,
        "periods": list(report.periods),
        "entropy_x": None,
        "entropy_y": None,
        "finite_to_one": None,
    }
    if report.is_irreducible:
        out["entropy_x"] = entropy(report.essential)
        out["entropy_y"] = determinize(report.essential).entropy()
        out["finite_to_one"] = is_finite_to_one(report.essential)
    _emit(out)
    return 0


def cmd_degree(args):
    g = load_graph_or_code(args.input)[0].graph
    try:
        report = compute_degree(g)
    except InfiniteToOne as exc:
        if exc.report is not None:
            _emit(exc.report.to_json_dict())
        raise
    _emit(report.to_json_dict())
    return 0


def cmd_joining(args):
    """Write the degree joining graph from its arrays, each base symbol rendered
    once and each row named once, its symbols joined by '|': the dot text of
    ``to_dot`` or the JSON that ``json.dumps(..., sort_keys=True, indent=2)``
    writes of its tuple graph's ``to_json_dict``, the degree and the components,
    with the transitions and label keys ordered by the rank of the raw names."""
    g = load_graph_or_code(args.input)[0].graph
    lam = degree_joining_graph(g)
    parts = np.fromiter(map(render_symbol, g.x_symbols), object, len(g.x_symbols))
    raw = ["|".join(u) for u in parts[lam.ids].tolist()]
    labels = [str(y) for y in g.y_symbols]
    label = [labels[j] for j in g.label_ids[lam.ids[:, 0]].tolist()]
    if args.format == "dot":
        sys.stdout.write(_dot(raw, label, lam.src, lam.dst))
        return 0
    src, dst = lam.src.tolist(), lam.dst.tolist()
    rank = np.unique(np.array(raw, dtype=object), return_inverse=True)[1]     # by str order
    name, label = (list(map(encode_basestring_ascii, strs)) for strs in (raw, label))

    def block(items, depth, brackets="[]"):     # one json.dumps container, indented
        inner = "\n" + "  " * depth
        return brackets[0] + inner + ("," + inner).join(items) + inner[:-2] + brackets[1]

    fields = {
        "components": block([block([name[r] for r in c], 3) for c in lam.components], 2),
        "degree": str(lam.degree),
        "label": block([f"{name[r]}: {label[r]}" for r in np.argsort(rank).tolist()],
                       2, "{}"),
        "transitions": block([block([name[src[e]], name[dst[e]]], 3) for e in
                              np.lexsort((rank[lam.dst], rank[lam.src])).tolist()], 2),
        "x_symbols": block(name, 2),
        "y_symbols": block(map(encode_basestring_ascii, labels), 2)}
    sys.stdout.write(block([f'"{k}": {v}' for k, v in fields.items()], 1, "{}") + "\n")
    return 0


def cmd_periodic_lifts(args):
    """Write the lifts of each orbit of period <= ``--max-period`` once the sweep's
    checksum has passed, ROW_BATCH rows at a time: a row's names fill the empty
    slots of the ``_row_parts`` of its shape (period, windings), built once a call."""
    rec = load_graph_or_code(args.input)[0]
    if not is_finite_to_one(rec.graph):
        raise InfiniteToOne("periodic lift analysis requires a finite-to-one code")
    g = analyze_graph(rec.graph).essential
    names = [str(a) for a, alive in zip(rec.letters, rec.graph.essential_mask.tolist()) if alive]
    labels, offset = [str(y) for y in g.y_symbols], rec.offset
    table, shapes, n = args.format == "table", {}, 0
    if not table:       # each name escaped once, as _emit would
        names, labels = ([encode_basestring_ascii(s) for s in strs] for strs in (names, labels))
    rows = [] if table else [f'{{\n  "max_period": {args.max_period},\n  "orbits": [']
    for n, (word, lifts) in enumerate(_lift_cycles(g, args.max_period, names, labels, offset), 1):
        shape, points = (len(word),), []
        for w, u in lifts:
            if len(u) != w * len(word):
                raise RuntimeError("fiber points are not equidistributed over the base orbit")
            shape += (w,)
            points += u
        if len(rows) >= ROW_BATCH:
            sys.stdout.write("".join(rows))
            rows.clear()
        parts = shapes.get(shape) or shapes.setdefault(shape, _row_parts(*shape, table=table))
        parts[1::2] = word + points if table else points + points + word
        text = "".join(parts)
        rows.append(text if table or n > 1 else text[1:])
    rows.append(("" if n else "\n") if table else "\n  ]\n}\n" if n else "]\n}\n")
    sys.stdout.write("".join(rows))
    return 0


def _row_parts(p, *windings, table):
    """A ``periodic-lifts`` row over an orbit of period p with lifts of windings
    ``windings``, laid out with a mark for each name and split at the marks, an
    empty slot between pieces: the slots take the letters, then each lift's points
    (a table row), or each lift's points twice, then the letters (a JSON row, laid
    out by json.dumps and opened with the comma after the row before)."""
    d, mark = sum(windings), "\0"
    if table:
        lifts = ", ".join(",".join([mark] * (w * p)) + f" (mult {w})" for w in windings)
        glue = f"orbit {','.join([mark] * p)} (period {p}): fiber {d}; lifts: {lifts}\n".split(mark)
    else:
        co = [({"orbit": [mark] * (w * p), "type": "co"}, w) for w in windings]
        row = {"canonical_lift": {"is_ergodic": not windings[1:], "components": [
                   {"measure": m, "weight": str(Fraction(w, d))} for m, w in co]},
               "lifts": [{"measure": m, "multiplicity": w} for m, w in co],
               "fiber_size": d, "orbit": [mark] * p, "period": p}
        glue = (",\n" + json.dumps(row, sort_keys=True, indent=2)).replace("\n", "\n    ").split(
            json.dumps(mark))
    return [s for piece in glue for s in (piece, "")][:-1]


def cmd_lift_mc(args):
    params = _mc_params(args)
    rec, code = load_graph_or_code(args.input)
    nu = load_json(args.measure, lambda data: measure_from_json_dict(data, code=code))
    report = classify_lifts_monte_carlo(rec, nu, params, constant_to_one=args.constant_to_one)
    _emit(report.to_json_dict())
    return 0


def cmd_ca(args):
    params = _mc_params(args)
    family = {"diff": "difference", "difference": "difference", "sum": "sum"}[args.family]
    code = ca_mod.LinearCACode(args.modulus, family)
    alpha = [a.strip() for a in args.vector.split(",")]
    validation = None if args.skip_mc else ca_mod.cross_validate(code, alpha, params)
    exact = ca_mod.exact_lift_analysis(code, alpha) if validation is None else validation.exact
    out = {"code": code.describe(), "exact": exact.to_json_dict()}
    if validation is not None:
        out["cross_validation"] = validation.to_json_dict()
    _emit(out)
    return 0


@cache      # built on the first ``main`` call, once a process: the parse leaves it as it was
def build_parser():
    parser = argparse.ArgumentParser(
        prog="sftlift",
        description="finite-to-one factor codes on SFTs: degrees, joinings, measure fibers")
    sub = parser.add_subparsers(dest="command", required=True)

    code = argparse.ArgumentParser(add_help=False)
    code.add_argument("input", help="graph or sliding-block-code JSON file")
    mc_flags = argparse.ArgumentParser(add_help=False)
    mc_flags.add_argument("--seed", type=int, default=0)
    mc_flags.add_argument("--length", type=int, default=10**6,
                          help="Monte-Carlo sample length T")
    mc_flags.add_argument("--cyl-depth", type=int, default=3,
                          help="cylinder depth L for empirical statistics")
    mc_flags.add_argument("--tolerance", type=float, default=None,
                          help="clustering tolerance (default 5/sqrt(T))")

    sub.add_parser("analyze", parents=[code], help="structure report and entropies")
    sub.add_parser("degree", parents=[code], help="finite-to-one verdict and degree")
    sub.add_parser("joining", parents=[code], help="export the degree joining graph").add_argument(
        "--format", choices=["json", "dot"], default="json")
    periodic = sub.add_parser("periodic-lifts", parents=[code],
                              help="exact lifts of all short periodic orbits")
    periodic.add_argument("--format", choices=["json", "table"], default="json")
    periodic.add_argument("--max-period", type=int, default=6)

    mc = sub.add_parser("lift-mc", parents=[code, mc_flags], help="Monte-Carlo lift classification")
    mc.add_argument("--measure", required=True, help="image-measure JSON file")
    mc.add_argument("--constant-to-one", action="store_true",
                    help="assert the code is constant-to-one, allowing "
                         "non-fully-supported image measures")

    ca_p = sub.add_parser("ca", parents=[mc_flags],
                          help="exact linear-CA analyzers plus cross-validation")
    ca_p.add_argument("--family", required=True, choices=["diff", "difference", "sum"])
    ca_p.add_argument("--modulus", type=int, required=True)
    ca_p.add_argument("--vector", required=True,
                      help="comma-separated exact rationals, e.g. 1/8,3/8,1/8,3/8")
    ca_p.add_argument("--skip-mc", action="store_true")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    commands = {"analyze": cmd_analyze, "degree": cmd_degree, "joining": cmd_joining,
                "periodic-lifts": cmd_periodic_lifts, "lift-mc": cmd_lift_mc, "ca": cmd_ca}
    try:
        return commands[args.command](args)
    except PreconditionError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports and exits
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
