"""Command line front end: stable JSON on stdout, diagnostics on stderr.

Exit codes: 0 success; 2 any ``ValueError`` or ``OSError``: bad flags or
arguments, unreadable or malformed files, and the package errors that
subclass ``ValueError`` (see :mod:`sqfdepth.errors`); 1 any other package
error (zero ideal where one is not allowed, degenerate sample) and a failed
family check.  Commands raise, and ``main`` alone writes the ``error:`` line.
"""

from __future__ import annotations

import argparse
import json
import sys

from .betti import depth, depth_report, g_profile
from .errors import ParseError, SqfdepthError
from .family import build_family, verify_theorem
from .graphs import Graph, edge_ideal, independence_domination, is_tree, tree_depth_via_lemma
from .homology import FieldSpec
from .ideals import MAX_AMBIENT, Ideal, _indices_from_mask, _records
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
    covers = ideal.minimal_prime_masks()
    primes = sorted(list(_indices_from_mask(c)) for c in covers)
    # from the same covers: ideal.krull_dim() would search again
    krull_dim = ideal.ambient_n - min(c.bit_count() for c in covers)
    _emit({"n": ideal.ambient_n, "primes": primes, "krull_dim": krull_dim})
    return 0


def cmd_family(args) -> int:
    sys.stdout.write(build_family(args.n).to_text())
    return 0


def cmd_verify_family(args) -> int:
    if args.n_min < 6 or args.n_min > args.n_max:
        raise ValueError("verify-family: need 6 <= n-min <= n-max")
    if args.n_max > MAX_AMBIENT:
        raise ValueError(
            f"verify-family: n-max {args.n_max} exceeds {MAX_AMBIENT}, "
            "the most variables an ideal takes"
        )
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


def _span(text: str):
    """``N`` or ``LO-HI``."""
    bounds = tuple(int(part) for part in text.split("-"))
    if len(bounds) > 2:
        raise ValueError(text)
    return bounds if len(bounds) == 2 else bounds[0]


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(t) for t in text.replace(",", " ").split())


def _true_or_false(text: str) -> bool:
    if text.lower() not in ("true", "false"):
        raise ValueError(text)
    return text.lower() == "true"


# Every SearchConfig field but ``inject``: its flag, the converter that both the
# flag and the config key of the same name go through, and the flag's help.
_SEARCH_FIELDS = {
    "ambient_n": ("--ambient-n", int, None),
    "seed": ("--seed", int, None),
    "sample_count": ("--samples", int, None),
    "gen_degree": ("--gen-degree", _span, "degree d or range lo-hi"),
    "gen_count": ("--gen-count", _span, "count c or range lo-hi"),
    "density": ("--density", float, None),
    "primes": ("--char", _int_list, "field characteristic (repeatable)"),
    "edge_ideals_only": ("--edge-ideals-only", _true_or_false, None),
    "exhaustive": ("--exhaustive", _true_or_false, None),
    "exhaustive_cap": ("--exhaustive-cap", int, None),
}


def _parse_config_file(path: str) -> dict:
    out = {}
    for lineno, line in _records(_read(path)):
        if "=" not in line:
            raise ParseError(f"{path}:{lineno}: expected key = value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _SEARCH_FIELDS:
            raise ParseError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            out[key] = _SEARCH_FIELDS[key][1](value)
        except ValueError:
            raise ParseError(f"{path}:{lineno}: bad value for {key}") from None
    return out


def cmd_search(args) -> int:
    fields = _parse_config_file(args.config) if args.config else {}
    for name in _SEARCH_FIELDS:
        value = getattr(args, name)
        if value is not None:  # a flag that was given wins over the config file
            fields[name] = tuple(value) if isinstance(value, list) else value
    # a flag for one sampling mode drops the file's other mode; both flags are refused
    for flag, other in (("density", "gen_count"), ("gen_count", "density")):
        if getattr(args, flag) is not None and getattr(args, other) is None:
            fields.pop(other, None)
    if "ambient_n" not in fields:
        raise ValueError("search: --ambient-n (or a config file) is required")
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


def _ideal_and_char(func, **defaults):
    """Arguments of a command on an ideal file over one field."""

    def add(p):
        p.add_argument("ideal")
        _add_char(p)
        p.set_defaults(func=func, **defaults)

    return add


def _depth_args(p):
    _ideal_and_char(cmd_depth)(p)
    p.add_argument(
        "--both-primes",
        action="store_true",
        help="recompute at p=3 (at p=2 when --char is not 2) and flag a difference",
    )


def _power_args(p):
    p.add_argument("ideal")
    p.add_argument("-k", type=int, required=True)
    p.set_defaults(func=cmd_power)


def _minimal_primes_args(p):
    p.add_argument("ideal")
    p.set_defaults(func=cmd_minimal_primes)


def _family_args(p):
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_family)


def _verify_family_args(p):
    p.add_argument("--n-min", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    _add_char(p)
    p.set_defaults(func=cmd_verify_family)


def _graph_depth_args(p):
    p.add_argument("graph")
    _add_char(p)
    p.set_defaults(func=cmd_graph_depth)


def _search_args(p):
    p.add_argument("--config", help="key = value config file")
    for name, (flag, convert, help_text) in _SEARCH_FIELDS.items():
        if convert is _true_or_false:
            p.add_argument(flag, dest=name, action="store_true", default=None)
        else:
            # --char repeats: extend collects each use's tuple into one list
            action = "extend" if convert is _int_list else "store"
            p.add_argument(flag, dest=name, type=convert, action=action, help=help_text)
    p.add_argument("--inject", action="append", help="ideal file to inject (repeatable)")
    p.add_argument("--log", help="append findings to this JSONL file")
    p.set_defaults(func=cmd_search)


# Every command: its help line and the function that adds its arguments.
_COMMANDS = {
    "depth": ("depth/Betti report of S/I from an ideal file", _depth_args),
    "betti": ("Betti table report of S/I", _ideal_and_char(cmd_depth, both_primes=False)),
    "power": ("k-th squarefree power, in ideal text format", _power_args),
    "gprofile": ("normalized depth function g(1..nu)", _ideal_and_char(cmd_gprofile)),
    "minimal-primes": ("minimal primes / vertex covers", _minimal_primes_args),
    "family": ("emit the counterexample family ideal", _family_args),
    "verify-family": ("verify the theorem for a range of n", _verify_family_args),
    "graph-depth": ("tree depth formula vs homology engine", _graph_depth_args),
    "search": ("scan for increasing normalized depth functions", _search_args),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or of ``command`` alone when it names one.

    Both print the same usage: the one-command parser shows the full list
    of commands as its metavar, so its messages match byte for byte.
    """
    parser = argparse.ArgumentParser(
        prog="sqfd",
        description="Squarefree powers of monomial ideals and the normalized depth function",
    )
    if command in _COMMANDS:
        names = [command]
        subs = parser.add_subparsers(
            dest="command", required=True, metavar="{" + ",".join(_COMMANDS) + "}"
        )
    else:
        names = list(_COMMANDS)
        subs = parser.add_subparsers(dest="command", required=True)
    for name in names:
        help_text, add_arguments = _COMMANDS[name]
        add_arguments(subs.add_parser(name, help=help_text))
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # only the invoked command's parser: building all of them costs milliseconds
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SqfdepthError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
