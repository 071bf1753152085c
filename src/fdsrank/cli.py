"""Command-line surface.

Commands: analyze, enum, canonical, bounds, witness, verify. JSON is the
machine contract (sorted keys, stable across runs); the table format is a
human courtesy. Exit codes: 0 success, 1 failed verification, 2 unreadable
input, 3 guard refusal (message carries the projected size).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import lru_cache

from . import fixtures
from .bounds import entropy_report, fix_bounds_report
from .canonical import (
    absolute_minrank_bounds,
    canonicalize,
    chain_bound,
    format_canonical,
    independent_set_bound,
    minrank_classify,
    product_bound,
    tightness_classify,
)
from .constructions import (
    canonical_upper_witness,
    conjunctive,
    conjunctive_rank,
    maxper_witness,
    maxrank_witness,
    modular_complete,
    nilpotent_class_two,
    packing_plus_one_witness,
    star_witness,
)
from .digraph import format_digraph, read_digraph, structure_stats
from .enumeration import enumerate_stats
from .errors import FdsrankError, GraphFormatError, IntegrityError, SizeLimitExceeded
from .fds import DEFAULT_MAX_STATES, format_fds
from .invariants import cycle_cover_certificate, max_cycle_cover, max_independent_arcs
from .verify import run_battery

EXIT_OK = 0
EXIT_FAILED_CHECKS = 1
EXIT_PARSE = 2
EXIT_GUARD = 3


def _entry(fn, *args):
    """One answer; a guard refusal becomes a skipped marker with the projected size."""
    try:
        return fn(*args)
    except SizeLimitExceeded as exc:
        return {"status": "skipped(size)", "projected": exc.projected, "reason": str(exc)}


def _section(fn):
    """Run one report section; guard refusals become a skipped marker."""
    data = _entry(fn)
    data.setdefault("status", "ok")
    return data


def _emit(doc, fmt):
    if fmt == "table":
        for line in _flatten(doc):
            print(line)
    else:
        print(json.dumps(doc, indent=2, sort_keys=True))


def _flatten(doc, prefix=""):
    lines = []
    for key in sorted(doc):
        val = doc[key]
        name = f"{prefix}{key}"
        if isinstance(val, dict):
            lines.extend(_flatten(val, prefix=f"{name}."))
        else:
            lines.append(f"{name}: {val}")
    return lines


def cmd_analyze(args) -> int:
    d = read_digraph(args.file)
    q = args.q
    doc = {"input": str(args.file), "q": q, "strict": bool(args.strict), "n": d.n, "m": d.m}

    def structure():
        st = structure_stats(d)
        return {
            "girth": "inf" if math.isinf(st.girth) else int(st.girth),
            "min_in_degree": st.min_in_degree,
            "acyclic": st.acyclic,
            "loop_count": st.loop_count,
            "sources": list(st.source_list),
            "sinks": list(st.sink_list),
        }

    def canonical_summary():
        # each bound answers or is skipped on its own; tight needs L and U
        c = canonicalize(d)
        lower, upper = _entry(chain_bound, c), _entry(independent_set_bound, c)
        refused = [b for b in (lower, upper) if isinstance(b, dict)]
        return {
            "A_size": len(c.sources),
            "B_size": len(c.sinks),
            "L": lower,
            "Lp": _entry(product_bound, c),
            "U": upper,
            "tight": refused[0] if refused else tightness_classify(c).tight,
        }

    def minrank_section():
        b = absolute_minrank_bounds(d)
        return {
            "classification": minrank_classify(d),
            "lower": b.lower,
            "upper": b.upper,
            "stabilization_q": b.stabilization_q,
            "exact": b.exact,
        }

    def extremes():
        a1 = max_independent_arcs(d)
        an = max_cycle_cover(d)
        return {
            "independent_arcs": a1,
            "cycle_cover": an,
            "max_rank_family": q ** a1,
            "max_periodic_rank_family": q ** an,
        }

    def enumeration():
        report = enumerate_stats(
            d, q, strict=args.strict, max_funcs=args.max_funcs, max_states=args.max_states
        )
        return report.to_json_dict()

    doc["structure"] = _section(structure)
    doc["canonical"] = _section(canonical_summary)
    doc["conjunctive_rank"] = _section(lambda: {"value": conjunctive_rank(d, args.max_states)})
    doc["minrank"] = _section(minrank_section)
    doc["fixed_point_bounds"] = _section(
        lambda: fix_bounds_report(d, q, strict=args.strict).to_json_dict()
    )
    doc["extremes"] = _section(extremes)
    doc["enumeration"] = _section(enumeration)
    _emit(doc, args.format)
    return EXIT_OK


def cmd_enum(args) -> int:
    d = read_digraph(args.file)
    report = enumerate_stats(
        d, args.q, strict=args.strict, max_funcs=args.max_funcs, max_states=args.max_states
    )
    if args.format == "table":
        print(report.to_text_table(), end="")
    else:
        print(json.dumps(report.to_json_dict(), indent=2, sort_keys=True))
    return EXIT_OK


def cmd_canonical(args) -> int:
    d = read_digraph(args.file)
    sys.stdout.write(format_canonical(canonicalize(d)))
    return EXIT_OK


def cmd_bounds(args) -> int:
    d = read_digraph(args.file)
    report = fix_bounds_report(d, args.q, strict=args.strict)
    doc = report.to_json_dict()

    def entropy_detail():
        rep = entropy_report(d)  # memoized, refusal included
        return {
            "value": str(rep.value),
            "exact": True,
            "peeled_sources": list(rep.peeled),
            "method": rep.method,
        }

    doc["entropy_detail"] = _entry(entropy_detail)
    print(json.dumps(doc, indent=2, sort_keys=True))
    return EXIT_OK


def _parse_packing(text):
    return [tuple(int(v) for v in part.split(",")) for part in text.split(";") if part]


def cmd_witness(args) -> int:
    name = args.name
    if name in ("star", "modular"):
        want = 1 if name == "star" else 2
        try:
            nums = [int(a) for a in args.args[:want]]
        except ValueError:
            nums = []
        if len(nums) < want:
            print(f"error: witness {name} needs {want} integer argument(s), got {args.args}",
                  file=sys.stderr)
            return EXIT_PARSE
        f = star_witness(*nums) if name == "star" else modular_complete(*nums)
    else:
        if not args.args:
            print(f"error: witness {name} needs a graph file argument", file=sys.stderr)
            return EXIT_PARSE
        d = read_digraph(args.args[0])
        if name == "conjunctive":
            f = conjunctive(d)
        elif name == "class-two":
            f = nilpotent_class_two(d, args.q if args.q >= 3 else 3)
        elif name == "canonical-upper":
            f = canonical_upper_witness(canonicalize(d))
        elif name == "maxper":
            f = maxper_witness(d, args.q)
        elif name == "maxrank":
            f = maxrank_witness(d, args.q)
        elif name == "packing-plus-one":
            if args.packing:
                packing = _parse_packing(args.packing)
            else:
                packing = cycle_cover_certificate(d)
            f = packing_plus_one_witness(d, packing)
        else:
            print(f"error: unknown witness {name!r}", file=sys.stderr)
            return EXIT_PARSE
    text = format_fds(f)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_verify(args) -> int:
    results = run_battery(quick=args.quick)
    failed = [r for r in results if not r.passed]
    for r in results:
        print(r.line())
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    if failed:
        for r in failed:
            print(f"failed: {r.name}", file=sys.stderr)
        return EXIT_FAILED_CHECKS
    return EXIT_OK


def cmd_fixtures(args) -> int:
    if args.name not in fixtures.CATALOG:
        print(f"error: unknown fixture {args.name!r}; have {sorted(fixtures.CATALOG)}",
              file=sys.stderr)
        return EXIT_PARSE
    sys.stdout.write(format_digraph(fixtures.CATALOG[args.name], comments=[args.name]))
    return EXIT_OK


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The command parser, built once per process; parse_args keeps no state."""
    p = argparse.ArgumentParser(
        prog="fdsrank",
        description="Rank, periodic rank and fixed points of finite dynamical "
        "systems with a prescribed interaction graph.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--q", type=int, default=2, help="alphabet size (>= 2)")
        sp.add_argument("--max-funcs", type=int, default=None,
                        help="override the enumeration guard (default 1e8 systems)")
        sp.add_argument("--max-states", type=int, default=DEFAULT_MAX_STATES,
                        help="override the state-space guard")

    sp = sub.add_parser("analyze", help="one document with every report section")
    sp.add_argument("file")
    sp.add_argument("--strict", action="store_true")
    sp.add_argument("--format", choices=("json", "table"), default="json")
    common(sp)
    sp.set_defaults(fn=cmd_analyze)

    sp = sub.add_parser("enum", help="exhaustive family statistics")
    sp.add_argument("file")
    sp.add_argument("--strict", action="store_true")
    sp.add_argument("--format", choices=("json", "table"), default="json")
    common(sp)
    sp.set_defaults(fn=cmd_enum)

    sp = sub.add_parser("canonical", help="canonical reduction with provenance")
    sp.add_argument("file")
    sp.set_defaults(fn=cmd_canonical)

    sp = sub.add_parser("bounds", help="fixed-point bound report")
    sp.add_argument("file")
    sp.add_argument("--strict", action="store_true")
    sp.add_argument("--q", type=int, default=2, help="alphabet size (>= 2)")
    sp.set_defaults(fn=cmd_bounds)

    sp = sub.add_parser("witness", help="emit a witness system in the fds text format")
    sp.add_argument("name", help="conjunctive | class-two | canonical-upper | star | "
                    "modular | maxper | maxrank | packing-plus-one")
    sp.add_argument("args", nargs="*", help="graph file, or numbers for star/modular")
    sp.add_argument("--q", type=int, default=2)
    sp.add_argument("--packing", default=None,
                    help="cycles as '1,2,3;4,5' for packing-plus-one")
    sp.add_argument("-o", "--output", default=None)
    sp.set_defaults(fn=cmd_witness)

    sp = sub.add_parser("verify", help="run the built-in verification battery")
    sp.add_argument("--quick", action="store_true", help="small sweeps, seconds not minutes")
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("fixture", help="print a named example graph")
    sp.add_argument("name")
    sp.set_defaults(fn=cmd_fixtures)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "q", 2) < 2:
        print("error: --q must be at least 2", file=sys.stderr)
        return EXIT_PARSE
    try:
        return args.fn(args)
    except OSError as exc:
        print(f"error: cannot read input: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except GraphFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except SizeLimitExceeded as exc:
        print(f"error: refused by guard: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except IntegrityError as exc:
        print(f"error: internal check failed: {exc}", file=sys.stderr)
        return EXIT_FAILED_CHECKS
    except FdsrankError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
