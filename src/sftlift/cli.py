"""Command-line front end.

Exit codes: 0 success, 2 refusal (a malformed input file, an out-of-range
flag or a failed precondition), 1 internal error.  All randomized
subcommands record their seed in the output, and identical configuration
plus inputs produce byte-identical JSON (keys sorted, orderings canonical).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from . import ca as ca_mod
from .codes import _lift_cycles, compute_degree, is_finite_to_one
from .errors import InfiniteToOne, PreconditionError
from .fibers import MonteCarloParams, classify_lifts_monte_carlo
from .graphs import (OneBlockRecoding, analyze_graph, determinize, entropy,
                     load_graph_or_code, load_json, render_symbol, to_dot)
from .joinings import degree_joining_graph
from .measures import measure_from_json_dict


def _emit(payload, fmt="json"):
    """Write a payload to stdout as text, or as JSON byte-identical to
    ``json.dumps(payload, sort_keys=True, indent=2)`` and a newline.  Each
    distinct string is escaped once by the C escaper, each depth shares one
    whitespace triple, constants and finite numbers are written as json
    writes them, and json.dumps takes over on a key or type left out."""
    if fmt == "json":
        parts, layouts, strings, keys = [], [], {}, {}

        def encode(o, depth):
            if isinstance(o, str):
                parts.append(strings.get(o) or strings.setdefault(o, encode_basestring_ascii(o)))
            elif isinstance(o, (dict, list, tuple)):
                if len(layouts) == depth:
                    inner = "\n" + "  " * (depth + 1)
                    layouts.append((inner, "," + inner, inner[:-2]))
                sep, comma, close = layouts[depth] if o else ("", "", "")
                is_dict = isinstance(o, dict)
                parts.append("{" if is_dict else "[")
                for item in sorted(o.items()) if is_dict else o:
                    parts.append(sep)
                    sep = comma
                    if is_dict:     # the escaper raises TypeError on a non-str key
                        key, item = item
                        parts.append(keys.get(key) or keys.setdefault(
                            key, encode_basestring_ascii(key) + ": "))
                    encode(item, depth + 1)
                parts.append(close)
                parts.append("}" if is_dict else "]")
            elif o is None or o is True or o is False:     # identity: 1 == True
                parts.append("null" if o is None else "true" if o else "false")
            elif isinstance(o, int):
                parts.append(int.__repr__(o))
            elif isinstance(o, float) and math.isfinite(o):
                parts.append(float.__repr__(o))
            else:           # nan and inf; a TypeError on any other type
                parts.append(json.dumps(o))

        try:
            encode(payload, 0)
            parts.append("\n")
        except TypeError:
            parts = [json.dumps(payload, sort_keys=True, indent=2), "\n"]
        sys.stdout.write("".join(parts))     # one write: a captured stdout keeps one string
    else:
        sys.stdout.write(payload if isinstance(payload, str) else str(payload))
        if not str(payload).endswith("\n"):
            sys.stdout.write("\n")


def _load_code(path):
    code, block_code = load_graph_or_code(path)
    if isinstance(code, OneBlockRecoding):
        return code.graph, code, block_code
    return code, None, None


def _mc_params(args):
    return MonteCarloParams(args.length, args.cyl_depth, args.tolerance, args.seed)


def cmd_analyze(args):
    g, _rec, _block = _load_code(args.input)
    report = analyze_graph(g)
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
    g, _rec, _block = _load_code(args.input)
    try:
        report = compute_degree(g)
    except InfiniteToOne as exc:
        if exc.report is not None:
            _emit(exc.report.to_json_dict())
        raise
    _emit(report.to_json_dict())
    return 0


def cmd_joining(args):
    g, _rec, _block = _load_code(args.input)
    lam = degree_joining_graph(g)
    if args.format == "dot":
        _emit(to_dot(lam.graph), fmt="dot")
        return 0
    out = lam.graph.to_json_dict()
    out["degree"] = lam.degree
    out["components"] = [[render_symbol(s) for s in comp] for comp in lam.components]
    _emit(out)
    return 0


def cmd_periodic_lifts(args):
    g, rec, _block = _load_code(args.input)
    if not is_finite_to_one(g):
        raise InfiniteToOne("periodic lift analysis requires a finite-to-one code")
    g = analyze_graph(g).essential
    names = [str(rec.base_letter(s)) if rec is not None else str(s) for s in g.x_symbols]
    labels, offset = [str(y) for y in g.y_symbols], rec.offset if rec is not None else 0
    # lift words rotate as in OneBlockRecoding.base_orbit; rows wait for the checksum
    weights, rows = {}, []
    for word, lifts in _lift_cycles(g, args.max_period):
        p, d = len(word), sum(w for w, _ids in lifts)
        lift_rows, components = [], []
        for w, ids in lifts:
            if len(ids) != w * p:
                raise RuntimeError("fiber points are not equidistributed over the base orbit")
            k = -offset % len(ids)
            measure = {"type": "co", "orbit": [names[i] for i in ids[k:] + ids[:k]]}
            weight = weights.get((w, d)) or weights.setdefault((w, d), str(Fraction(w, d)))
            lift_rows.append({"measure": measure, "multiplicity": w})
            components.append({"measure": measure, "weight": weight})
        rows.append({"orbit": [labels[a] for a in word], "period": p, "fiber_size": d,
                     "lifts": lift_rows, "canonical_lift": {"components": components,
                                                            "is_ergodic": len(lifts) == 1}})
    rows.sort(key=lambda row: row["period"])
    if args.format == "table":
        lines = []
        for row in rows:
            lifts = ", ".join(
                f"{','.join(e['measure']['orbit'])} (mult {e['multiplicity']})"
                for e in row["lifts"])
            lines.append(f"orbit {','.join(row['orbit'])} (period {row['period']}): "
                         f"fiber {row['fiber_size']}; lifts: {lifts}")
        _emit("\n".join(lines), fmt="table")
        return 0
    _emit({"max_period": args.max_period, "orbits": rows})
    return 0


def cmd_lift_mc(args):
    params = _mc_params(args)
    g, rec, block = _load_code(args.input)
    push_code = block if block is not None else g
    nu = load_json(args.measure, lambda data: measure_from_json_dict(data, code=push_code))
    code = rec if rec is not None else g
    report = classify_lifts_monte_carlo(code, nu, params,
                                        constant_to_one=args.constant_to_one)
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
    parser = build_parser()
    args = parser.parse_args(argv)
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
