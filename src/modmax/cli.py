"""Command line interface.

Subcommands: classify, lattice, census, verify, catalog.  Group sources
are either ``catalog:NAME`` or a path to a group JSON file.  Exit codes:
0 success, 1 usage error, 2 load or validation error, 3 soundness gate
violation (a verification report failed).

Identical invocations print byte-identical output; JSON mode pins report
timings to zero for that reason.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import catalog
from .classify import classify, residual_strongly_supersoluble, residual_supersoluble
from .groups import DEFAULT_MAX_ORDER, Group, GroupError, LoadError, load_group, prime_spectrum
from .lattice import BadDepth, lattice_of
from .verify import UnknownSelector, census, run_suite

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_LOAD = 2
EXIT_SOUNDNESS = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _resolve_group(source: str, max_order: int) -> Group:
    if max_order < 1:
        raise _UsageError(f"--max-order must be >= 1, got {max_order}")
    if source.startswith("catalog:"):
        name = source[len("catalog:"):]
        try:
            return catalog.construct(name, max_order_cap=max_order)
        except (catalog.UnknownName, catalog.BadParameters, GroupError) as exc:
            raise LoadError(str(exc)) from exc
    path = Path(source)
    if path.exists():
        return load_group(path, max_order_cap=max_order)
    raise LoadError(
        f"{source!r} is neither a catalog:NAME source nor an existing file")


def _emit(obj, fmt: str, text_fn) -> None:
    if fmt == "json":
        print(json.dumps(obj, sort_keys=True, indent=2))
    else:
        print(text_fn(obj), end="")


def cmd_classify(args) -> int:
    G = _resolve_group(args.source, args.max_order)
    profile = classify(G)
    obj = {
        "group": G.name,
        "order": G.order,
        "primes": list(prime_spectrum(G)),
        "profile": profile.to_json_obj(),
        "supersoluble_residual_order": residual_supersoluble(G).order,
        "strongly_supersoluble_residual_order":
            residual_strongly_supersoluble(G).order,
    }

    def text(o):
        lines = [f"{o['group']} (order {o['order']}, primes {o['primes']})"]
        for key, val in o["profile"].items():
            if key == "dispersive_orderings":
                pretty = ", ".join(str(tuple(t)) for t in val) or "none"
                lines.append(f"  {key}: {pretty}")
            else:
                lines.append(f"  {key}: {val}")
        lines.append(f"  |supersoluble residual| = "
                     f"{o['supersoluble_residual_order']}")
        lines.append(f"  |strongly supersoluble residual| = "
                     f"{o['strongly_supersoluble_residual_order']}")
        return "\n".join(lines) + "\n"

    _emit(obj, args.format, text)
    return EXIT_OK


def cmd_lattice(args) -> int:
    G = _resolve_group(args.source, args.max_order)
    lat = lattice_of(G)
    if args.format == "dot":
        print(lat.to_dot(), end="")
        return EXIT_OK
    normal, modular, squasi = lat.normal, lat.modular, lat.s_quasinormal
    rows = []
    for i, s in enumerate(lat.subgroups):
        rows.append({
            "index": i,
            "order": s.order,
            "members": list(s.members()),
            "normal": bool(normal >> i & 1),
            "modular": bool(modular >> i & 1),
            "s_quasinormal": bool(squasi >> i & 1),
            "maximal_in": list(lat.covers_up[i]),
        })
    obj = {"group": G.name, "order": G.order, "subgroups": rows}

    def text(o):
        lines = [f"{o['group']}: {len(o['subgroups'])} subgroups"]
        for r in o["subgroups"]:
            flags = "".join((
                "N" if r["normal"] else "-",
                "M" if r["modular"] else "-",
                "S" if r["s_quasinormal"] else "-",
            ))
            lines.append(f"  [{r['index']:>3}] order {r['order']:>4}  {flags}  "
                         f"covers up: {r['maximal_in']}")
        return "\n".join(lines) + "\n"

    _emit(obj, args.format, text)
    return EXIT_OK


def cmd_census(args) -> int:
    G = _resolve_group(args.source, args.max_order)
    result = census(G)
    obj = result.to_json_obj()

    def text(o):
        lines = [f"{o['group']}: modularity census"]
        for r in o["rows"]:
            lines.append(
                f"  n={r['n']}: total={r['total']} modular={r['modular']} "
                f"s_quasinormal={r['s_quasinormal']} neither={r['neither']}")
        lines.append(f"  min n with all n-maximal modular: "
                     f"{o['min_n_all_modular']}")
        return "\n".join(lines) + "\n"

    _emit(obj, args.format, text)
    return EXIT_OK


def cmd_verify(args) -> int:
    result = run_suite(groups=args.groups, theorems=args.suite,
                       jobs=args.jobs, fast=args.fast, depth=args.n)
    _emit(result.to_json_obj(), args.format, lambda _: result.to_text())
    return EXIT_SOUNDNESS if result.has_failures() else EXIT_OK


def cmd_catalog(args) -> int:
    def text(rows):
        return "".join(f"{row['name']:<10} order {row['order']:>4}  "
                       f"primes {row['primes']}  {row['description']}\n"
                       for row in rows)

    _emit(catalog.catalog_listing(), args.format, text)
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="modmax",
                     description="finite group subgroup-lattice analysis")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, formats=("text", "json")):
        p.add_argument("--format", choices=formats, default="text")
        p.add_argument("--max-order", type=int, default=DEFAULT_MAX_ORDER,
                       help="construction-time order cap")

    p = sub.add_parser("classify", help="class profile and residual orders")
    p.add_argument("source", help="catalog:NAME or path to group JSON")
    add_common(p)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("lattice", help="subgroup list with embedding flags")
    p.add_argument("source")
    add_common(p, formats=("text", "json", "dot"))
    p.set_defaults(fn=cmd_lattice)

    p = sub.add_parser("census", help="modularity census across depths")
    p.add_argument("source")
    add_common(p)
    p.set_defaults(fn=cmd_census)

    p = sub.add_parser("verify", help="run the verification suite")
    p.add_argument("--suite", default="all",
                   choices=("all", "sharpness", "lemmas", "theorems"))
    p.add_argument("--n", type=int, default=None,
                   help="pin depth-parameterised checks to one depth")
    p.add_argument("--groups", default="all",
                   help='"all" or comma-separated catalog names')
    p.add_argument("--jobs", type=int, default=1,
                   help="analyse groups in up to min(JOBS, groups, CPUs) "
                        "processes, this one included; each takes the "
                        "largest group not yet started")
    p.add_argument("--fast", action="store_true",
                   help="skip conclusions under failed hypotheses")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("catalog", help="list the built-in groups")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=cmd_catalog)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.fn(args)
    except (_UsageError, UnknownSelector, BadDepth) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (LoadError, GroupError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LOAD


if __name__ == "__main__":
    sys.exit(main())
