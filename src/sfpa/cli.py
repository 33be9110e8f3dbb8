"""Command-line front end.

Subcommands:
    solve   compute unreliability of one file, JSON report on stdout
    check   cross-validate solver against the brute-force oracle
    gen     generate random fault trees / corpora
    bench   time solver runs over a corpus manifest, CSV output
    mcs     extract one minimal cut set via the exact-probability trick
    dom     dump the immediate-dominator map

Exit codes: 0 success, 1 input error (parse/validation/I-O), 2 algorithm
precondition error (tree shape, enumeration caps), 3 internal error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import statistics
import sys
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

from .dominators import immediate_dominators
from .errors import (
    CapExceededError,
    InfeasibleConfigError,
    NoCutSetError,
    NotATreeError,
    SfpaError,
)
from .galileo import parse_ft, serialize_ft
from .generator import GenConfig, generate, generate_corpus
from .solver import (
    SolveReport,
    minimal_cut_set_via_reduction,
    solve_sfpa,
    solve_sfpa2,
    solve_treelike,
    variable_budget,
)
from .tree import DEFAULT_ENUM_CAP, oracle_unreliability

_PRECONDITION_ERRORS = (
    NotATreeError,
    CapExceededError,
    NoCutSetError,
    InfeasibleConfigError,
)


def _load(path, exact=False):
    return parse_ft(Path(path).read_text(encoding="utf-8"), exact=exact)


def _json_value(x):
    if isinstance(x, (Fraction, Decimal)):
        # a Decimal writes an int's digits in full: str(int) refuses more
        # than sys.get_int_max_str_digits() of them
        return "%s/%s" % tuple(map(Decimal, x.as_integer_ratio()))
    return float(format(x, ".17g"))


def _timed(algorithm, solve, t, max_terms):
    """Run a solver that returns a bare number and wrap it in a report."""
    start = time.perf_counter()
    value = solve(t)
    return SolveReport(value, algorithm, max_terms=max_terms,
                       wall_time=time.perf_counter() - start)


#: algorithm name -> function (tree, idom map or None) -> SolveReport.
#: The lambdas look the solvers up in this module at call time, so a
#: solver replaced here (for instance by a tracing wrapper) is the one run.
#: The oracle keeps no terms: its ``max_terms`` is None, an empty CSV cell.
_ALGORITHMS = {
    "sfpa": lambda t, idom: solve_sfpa(t, idom),
    "sfpa2": lambda t, idom: solve_sfpa2(t, idom),
    "treelike": lambda t, idom: _timed("treelike", solve_treelike, t, 1),
    "oracle": lambda t, idom: _timed("oracle", oracle_unreliability, t, None),
}


def cmd_solve(args):
    t = _load(args.file, exact=args.exact)
    rep = _ALGORITHMS[args.algo](t, None)
    raw = _json_value(rep.unreliability)
    clamped = rep.clamped()
    report = {
        "unreliability": raw if clamped is rep.unreliability else _json_value(clamped),
        "raw_unreliability": raw,
        "max_live_vars": rep.max_live_vars,
        "max_terms": rep.max_terms,
        "substitutions": rep.substitutions,
        "multiplications": rep.multiplications,
        "wall_time_s": rep.wall_time,
        "file": str(args.file),
        "algo": args.algo,
        "exact": args.exact,
    }
    print(json.dumps(report))
    return 0


def cmd_check(args):
    target = Path(args.path)
    files = sorted(target.glob("*.dft")) if target.is_dir() else [target]
    if not files:
        print("no .dft files under %s" % target, file=sys.stderr)
        return 1
    failed = False
    for path in files:
        try:
            t = _load(path)
            if len(t.basic_events()) > args.cap:
                print("%s: SKIP (%d basic events)" % (path, len(t.basic_events())))
                continue
            reference = oracle_unreliability(t, cap=args.cap)
            a = solve_sfpa(t).unreliability
            b = solve_sfpa2(t).unreliability
            delta = max(abs(a - reference), abs(b - reference), abs(a - b))
            if delta <= 1e-9:
                print("%s: PASS (delta %.3e)" % (path, delta))
            else:
                print("%s: FAIL (delta %.3e)" % (path, delta))
                failed = True
        except SfpaError as exc:
            print("%s: ERROR (%s)" % (path, exc))
            failed = True
    return 1 if failed else 0


def cmd_gen(args):
    configs = [
        GenConfig(
            seed=args.seed + i,
            n_be=args.bes,
            n_gates=args.gates,
            n_multiparent=args.multiparent,
        )
        for i in range(args.count)
    ]
    if args.out:
        entries = generate_corpus(configs, args.out)
        print("wrote %d trees and manifest.csv to %s" % (len(entries), args.out))
    else:
        for cfg in configs:
            sys.stdout.write(serialize_ft(generate(cfg)))
    return 0


def _read_manifest(path):
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    for row in csv.DictReader(lines):
        rows.append(row)
    return rows


def cmd_bench(args):
    manifest = Path(args.manifest)
    base = manifest.parent
    algos = args.algos.split(",")
    records = []
    for row in _read_manifest(manifest):
        path = base / row["file"]
        record_base = {"file": row["file"], "nodes": "", "multiparent": "", "c": ""}
        try:
            t = _load(path)
            idom = immediate_dominators(t)
            record_base.update(
                nodes=len(t),
                multiparent=len(t.multiparent_nodes()),
                c=variable_budget(t, idom),
            )
        except (OSError, SfpaError) as exc:
            for algo in algos:
                records.append(dict(record_base, algo=algo, value="",
                                    wall_time="", max_terms="", error=str(exc)))
            continue
        for algo in algos:
            times = []
            value = ""
            max_terms = ""
            error = ""
            try:
                if algo not in _ALGORITHMS:
                    raise SfpaError("unknown algorithm %r" % algo)
                for _ in range(args.repeats):
                    rep = _ALGORITHMS[algo](t, idom)
                    value, max_terms = rep.unreliability, rep.max_terms
                    times.append(rep.wall_time)
            except SfpaError as exc:
                error = str(exc)
            records.append(
                dict(
                    record_base,
                    algo=algo,
                    value=value,
                    wall_time=statistics.median(times) if times else "",
                    max_terms=max_terms,
                    error=error,
                )
            )
    records.sort(key=lambda r: (r["c"] == "", r["c"], r["nodes"]))
    fields = ["file", "nodes", "multiparent", "c", "algo", "value",
              "wall_time", "max_terms", "error"]
    out = open(args.out, "w", newline="", encoding="utf-8") if args.out else sys.stdout
    try:
        writer = csv.DictWriter(out, fieldnames=fields)
        writer.writeheader()
        for record in records:
            writer.writerow(record)
    finally:
        if args.out:
            out.close()
    return 0


def cmd_mcs(args):
    t = _load(args.file, exact=True)
    event = minimal_cut_set_via_reduction(t)
    print(" ".join(sorted(t.names[v] for v in event)))
    return 0


def cmd_dom(args):
    t = _load(args.file)
    idom = immediate_dominators(t)
    for v in t.order[1:]:
        print("%s -> %s" % (t.names[v], t.names[idom[v]]))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sfpa", description="Fault-tree unreliability via squarefree polynomials"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="compute unreliability of one file")
    p.add_argument("file")
    p.add_argument("--algo", choices=["sfpa", "sfpa2", "treelike"], default="sfpa2")
    p.add_argument("--exact", action="store_true",
                   help="exact arithmetic: decimals as Decimal, n/d as Fraction")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("check", help="cross-validate solvers against the oracle")
    p.add_argument("path", help="a .dft file or a directory of them")
    p.add_argument("--cap", type=int, default=DEFAULT_ENUM_CAP)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("gen", help="generate random fault trees")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bes", type=int, default=8)
    p.add_argument("--gates", type=int, default=6)
    p.add_argument("--multiparent", type=int, default=0)
    p.add_argument("--out", help="directory for a corpus with manifest")
    p.add_argument("--count", type=int, default=1)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("bench", help="time solver runs over a corpus")
    p.add_argument("manifest")
    p.add_argument("--out", help="output CSV (default stdout)")
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--algos", default="sfpa2",
                   help="comma-separated: sfpa,sfpa2,treelike,oracle")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("mcs", help="extract one minimal cut set")
    p.add_argument("file")
    p.set_defaults(func=cmd_mcs)

    p = sub.add_parser("dom", help="dump the immediate-dominator map")
    p.add_argument("file")
    p.set_defaults(func=cmd_dom)
    return parser


@functools.cache
def _parser():
    """The parser ``main`` uses, built on first use: building it costs
    about a millisecond, and parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (SfpaError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2 if isinstance(exc, _PRECONDITION_ERRORS) else 1
    except AssertionError as exc:  # pragma: no cover
        print("internal error: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
