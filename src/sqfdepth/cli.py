"""Command line front end: stable JSON on stdout, diagnostics on stderr.

Exit codes: 0 success, 1 computational error (e.g. zero ideal where one is
not allowed, a failed family check), 2 usage error (bad flags, malformed
input files).
"""

from __future__ import annotations

import argparse
import json
import sys

from .betti import MAX_HOCHSTER_AMBIENT, depth, depth_report, g_profile
from .errors import ParseError, SqfdepthError
from .family import build_family, verify_theorem
from .graphs import Graph, edge_ideal, independence_domination, is_tree, tree_depth_via_lemma
from .homology import FieldSpec
from .ideals import Ideal
from .search import SearchConfig, scan


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _emit(obj) -> None:
    print(json.dumps(obj))


def _add_char(sub):
    sub.add_argument("--char", type=int, default=2, help="field characteristic")


def cmd_depth(args) -> int:
    ideal = Ideal.parse(_read(args.ideal))
    report = depth_report(ideal, FieldSpec(args.char), both_primes=args.both_primes)
    _emit(report.to_json_dict())
    return 0


def cmd_betti(args) -> int:
    ideal = Ideal.parse(_read(args.ideal))
    report = depth_report(ideal, FieldSpec(args.char))
    _emit(report.to_json_dict())
    return 0


def cmd_power(args) -> int:
    ideal = Ideal.parse(_read(args.ideal))
    sys.stdout.write(ideal.squarefree_power(args.k).to_text())
    return 0


def cmd_gprofile(args) -> int:
    ideal = Ideal.parse(_read(args.ideal))
    profile = g_profile(ideal, FieldSpec(args.char))
    _emit(profile.to_json_dict())
    return 0


def cmd_minimal_primes(args) -> int:
    ideal = Ideal.parse(_read(args.ideal))
    primes = [sorted(c) for c in ideal.minimal_primes()]
    primes.sort()
    _emit({"n": ideal.ambient_n, "primes": primes, "krull_dim": ideal.krull_dim()})
    return 0


def cmd_family(args) -> int:
    sys.stdout.write(build_family(args.n).to_text())
    return 0


def cmd_verify_family(args) -> int:
    if args.n_min < 6 or args.n_min > args.n_max:
        print("verify-family: need 6 <= n-min <= n-max", file=sys.stderr)
        return 2
    if args.n_max > MAX_HOCHSTER_AMBIENT:
        print(
            f"verify-family: n-max {args.n_max} exceeds {MAX_HOCHSTER_AMBIENT}, "
            "the largest ambient the Hochster enumeration takes",
            file=sys.stderr,
        )
        return 2
    reports = [
        verify_theorem(n, FieldSpec(args.char))
        for n in range(args.n_min, args.n_max + 1)
    ]
    _emit([r.to_json_dict() for r in reports])
    return 0 if all(r.all_passed for r in reports) else 1


def cmd_graph_depth(args) -> int:
    graph = Graph.parse(_read(args.graph))
    engine = depth(edge_ideal(graph), FieldSpec(args.char))
    domination = independence_domination(graph)
    tree = is_tree(graph)
    lemma = tree_depth_via_lemma(graph) if tree else None
    _emit(
        {
            "n_vertices": graph.n_vertices,
            "field_char": args.char,
            "is_tree": tree,
            "engine_depth": engine,
            "independence_domination": domination,
            "lemma_depth": lemma,
            "agree": (lemma == engine) if tree else None,
        }
    )
    return 0


def _parse_span(text: str, name: str):
    parts = text.split("-")
    try:
        if len(parts) == 1:
            return int(parts[0])
        if len(parts) == 2:
            return (int(parts[0]), int(parts[1]))
    except ValueError:
        pass
    raise ParseError(f"bad {name} value {text!r}, expected N or LO-HI")


_CONFIG_KEYS = {
    "ambient_n": int,
    "seed": int,
    "sample_count": int,
    "gen_degree": "span",
    "gen_count": "span",
    "density": float,
    "primes": "intlist",
    "edge_ideals_only": "bool",
    "exhaustive": "bool",
    "exhaustive_cap": int,
}


def _parse_config_file(path: str) -> dict:
    out = {}
    for lineno, raw in enumerate(_read(path).splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(f"{path}:{lineno}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        kind = _CONFIG_KEYS.get(key)
        if kind is None:
            raise ParseError(f"{path}:{lineno}: unknown key {key!r}")
        if kind == "span":
            out[key] = _parse_span(value, key)
        elif kind == "intlist":
            try:
                out[key] = tuple(int(t) for t in value.replace(",", " ").split())
            except ValueError:
                raise ParseError(f"{path}:{lineno}: bad value for {key}") from None
        elif kind == "bool":
            if value.lower() not in ("true", "false"):
                raise ParseError(f"{path}:{lineno}: expected true/false for {key}")
            out[key] = value.lower() == "true"
        else:
            try:
                out[key] = kind(value)
            except ValueError:
                raise ParseError(f"{path}:{lineno}: bad value for {key}") from None
    return out


def cmd_search(args) -> int:
    fields: dict = {}
    if args.config:
        fields.update(_parse_config_file(args.config))
    if args.ambient_n is not None:
        fields["ambient_n"] = args.ambient_n
    if args.seed is not None:
        fields["seed"] = args.seed
    if args.samples is not None:
        fields["sample_count"] = args.samples
    if args.gen_degree is not None:
        fields["gen_degree"] = _parse_span(args.gen_degree, "gen-degree")
    if args.gen_count is not None:
        fields["gen_count"] = _parse_span(args.gen_count, "gen-count")
    if args.density is not None:
        fields["density"] = args.density
    if args.char:
        fields["primes"] = tuple(args.char)
    if args.edge_ideals_only:
        fields["edge_ideals_only"] = True
    if args.exhaustive:
        fields["exhaustive"] = True
    if args.exhaustive_cap is not None:
        fields["exhaustive_cap"] = args.exhaustive_cap
    if "ambient_n" not in fields:
        print("search: --ambient-n (or a config file) is required", file=sys.stderr)
        return 2
    if args.inject:
        fields["inject"] = tuple(Ideal.parse(_read(path)) for path in args.inject)
    cfg = SearchConfig(**fields)
    result = scan(cfg, log_path=args.log)
    _emit(
        {
            "summary": result.summary,
            "findings": [f.to_json_dict() for f in result.findings],
        }
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sqfd",
        description="Squarefree powers of monomial ideals and the normalized depth function",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("depth", help="depth/Betti report of S/I from an ideal file")
    p.add_argument("ideal")
    _add_char(p)
    p.add_argument(
        "--both-primes",
        action="store_true",
        help="recompute at p=3 (at p=2 when --char is not 2) and flag a difference",
    )
    p.set_defaults(func=cmd_depth)

    p = subs.add_parser("betti", help="Betti table report of S/I")
    p.add_argument("ideal")
    _add_char(p)
    p.set_defaults(func=cmd_betti)

    p = subs.add_parser("power", help="k-th squarefree power, in ideal text format")
    p.add_argument("ideal")
    p.add_argument("-k", type=int, required=True)
    p.set_defaults(func=cmd_power)

    p = subs.add_parser("gprofile", help="normalized depth function g(1..nu)")
    p.add_argument("ideal")
    _add_char(p)
    p.set_defaults(func=cmd_gprofile)

    p = subs.add_parser("minimal-primes", help="minimal primes / vertex covers")
    p.add_argument("ideal")
    p.set_defaults(func=cmd_minimal_primes)

    p = subs.add_parser("family", help="emit the counterexample family ideal")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_family)

    p = subs.add_parser("verify-family", help="verify the theorem for a range of n")
    p.add_argument("--n-min", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    _add_char(p)
    p.set_defaults(func=cmd_verify_family)

    p = subs.add_parser("graph-depth", help="tree depth formula vs homology engine")
    p.add_argument("graph")
    _add_char(p)
    p.set_defaults(func=cmd_graph_depth)

    p = subs.add_parser("search", help="scan for increasing normalized depth functions")
    p.add_argument("--config", help="key = value config file")
    p.add_argument("--ambient-n", type=int, dest="ambient_n")
    p.add_argument("--seed", type=int)
    p.add_argument("--samples", type=int)
    p.add_argument("--gen-degree", dest="gen_degree", help="degree d or range lo-hi")
    p.add_argument("--gen-count", dest="gen_count", help="count c or range lo-hi")
    p.add_argument("--density", type=float)
    p.add_argument("--char", type=int, action="append", help="field characteristic (repeatable)")
    p.add_argument("--edge-ideals-only", action="store_true")
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("--exhaustive-cap", type=int, dest="exhaustive_cap")
    p.add_argument("--inject", action="append", help="ideal file to inject (repeatable)")
    p.add_argument("--log", help="append findings to this JSONL file")
    p.set_defaults(func=cmd_search)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SqfdepthError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
