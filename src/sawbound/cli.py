"""Command line front end: build, solve, ablate, verify.

Exit codes: 0 success, 2 usage, 3 unreadable or corrupt graph file,
4 verification failure.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from dataclasses import asdict, fields
from decimal import ROUND_CEILING, Decimal

import numpy as np

from . import oracle
from .automaton import (
    GraphClosureError,
    GraphFileError,
    _child_arrays,
    build,
    graph_ctx,
    load_graph,
    save_graph,
)
from .simplify import Options, check_budget
from .spectral import optimize

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_VERIFY = 4

# (line_like, lacking_simpl, two_pass) rows, everything else on.
ABLATE_COMBOS = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 1, 1), (1, 1, 1))


def _add_feature_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--no-line-like", dest="line_like", action="store_false",
                   help="disable the extra allowance for nearly straight walks")
    p.add_argument("--no-lacking-simpl", dest="lacking_simpl", action="store_false",
                   help="disable the extra allowance for unsimplifiable walks")
    p.add_argument("--no-two-pass", dest="two_pass", action="store_false",
                   help="record children during discovery instead of a second pass")
    p.add_argument("--no-small-bridges", dest="small_bridges", action="store_false",
                   help="disable U-detour rewrites")
    p.add_argument("--no-large-bridges", dest="large_bridges", action="store_false",
                   help="disable S-detour rewrites")
    p.add_argument("--no-small-loops", dest="small_loops", action="store_false",
                   help="disable loop-shift rewrites")
    p.add_argument("--no-planar-a", dest="planar_a", action="store_false",
                   help="disable move pruning from walk windings around A")
    p.add_argument("--no-planar-b", dest="planar_b", action="store_false",
                   help="disable move pruning when B gets sealed in")


def _add_report_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--report", metavar="PATH", help="write a JSON run report to PATH")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sawbound",
        description="Certified upper bounds on the square-lattice "
                    "self-avoiding-walk growth constant.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build a state graph and save it")
    p.add_argument("--k", type=int, required=True, help="size budget (even, 4..40)")
    p.add_argument("--out", help="output path (default saw-k<k>.graph)")
    _add_feature_flags(p)
    _add_report_flag(p)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("solve", help="compute a certified bound from a graph file")
    p.add_argument("--graph", required=True, help="graph file from build")
    _add_report_flag(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("ablate", help="bound/state table over feature combinations")
    p.add_argument("--k", type=int, required=True, help="size budget (even, 4..40)")
    _add_report_flag(p)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("verify", help="exhaustive cross-checks of a graph file")
    p.add_argument("--graph", required=True, help="graph file from build")
    p.add_argument("--n-max", type=int, default=8,
                   help="continuation length for the coverage check and, for "
                        "k <= 8, the exact counts (default 8, capped at 12)")
    p.set_defaults(func=cmd_verify)

    return parser


def format_bound(x: float) -> str:
    """`x` to nine decimals, rounded up so the printed bound stays an upper bound."""
    return f"{Decimal(x).quantize(Decimal('1e-9'), rounding=ROUND_CEILING):f}"


def _peak_rss_mb() -> float:
    """This process's peak resident set size in MB; Linux reports it in KiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _options(args) -> Options:
    return Options(**{f.name: getattr(args, f.name) for f in fields(Options)})


def _write_report(report: dict | list, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")


def cmd_build(args) -> int:
    opts = _options(args)
    stats = {}
    t0 = time.perf_counter()
    g = build(args.k, opts, stats=stats)
    out = args.out or f"saw-k{args.k}.graph"
    nbytes = save_graph(g, out)
    wall = time.perf_counter() - t0
    print(f"states: {len(g)}")
    print(f"wrote {out}: {nbytes} bytes in {wall:.1f}s")
    if args.report:
        report = {
            "config": {"k": args.k, "options": asdict(opts)},
            "states": len(g),
            "file_bytes": nbytes,
            "wall_time_s": wall,
            "peak_rss_mb": _peak_rss_mb(),
            **stats,
        }
        _write_report(report, args.report)
    return EXIT_OK


def cmd_solve(args) -> int:
    t0 = time.perf_counter()
    g = load_graph(args.graph)
    res = optimize(g)
    wall = time.perf_counter() - t0
    print(f"bound: {format_bound(res.lambda_hi)}")
    if args.report:
        report = {
            "config": {"k": g.k, "options": asdict(g.options)},
            "states": len(g),
            "file_bytes": os.path.getsize(args.graph),
            "bound": res.lambda_hi,
            "lambda_lo": res.lambda_lo,
            "rounds_used": res.rounds_used,
            "wall_time_s": wall,
            "peak_rss_mb": _peak_rss_mb(),
            "round_bounds": res.round_bounds,
            "round_iterations": res.round_iterations,
            "round_gaps": res.round_gaps,
            "round_changes": res.round_changes,
            "fixed_point": res.fixed_point,
            "converged": res.converged,
        }
        _write_report(report, args.report)
    return EXIT_OK


def cmd_ablate(args) -> int:
    check_budget(args.k)
    rows = []
    print("line_like,lacking_simpl,two_pass,bound,states", flush=True)
    for line_like, lacking, two_pass in ABLATE_COMBOS:
        opts = Options(
            line_like=bool(line_like),
            lacking_simpl=bool(lacking),
            two_pass=bool(two_pass),
        )
        g = build(args.k, opts)
        res = optimize(g)
        print(f"{line_like},{lacking},{two_pass},{format_bound(res.lambda_hi)},{len(g)}",
              flush=True)
        rows.append({
            "line_like": line_like,
            "lacking_simpl": lacking,
            "two_pass": two_pass,
            "bound": res.lambda_hi,
            "states": len(g),
        })
    if args.report:
        _write_report(rows, args.report)
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.n_max < 0:
        raise ValueError(f"--n-max must be non-negative, got {args.n_max}")
    g = load_graph(args.graph)
    if g.k > 10:
        raise ValueError("verify needs a graph with k <= 10")
    n_max = min(args.n_max, 12)
    failed = False

    def outcome(ok: bool, name: str, detail: str = "") -> None:
        nonlocal failed
        failed = failed or not ok
        tail = f": {detail}" if detail else ""
        print(f"{'PASS' if ok else 'FAIL'} {name}{tail}")

    # A rebuild runs the same incremental pass 2 as the build under test, so
    # a two-pass graph is also recomputed in full against its own states.
    detail = "" if build(g.k, g.options) == g else "stored graph differs from a rebuild"
    if not detail and g.options.two_pass:
        try:
            offsets, ids = _child_arrays(graph_ctx(g))
        except GraphClosureError as exc:
            detail = str(exc)
        else:
            if not (np.array_equal(offsets, g.offsets) and np.array_equal(ids, g.ids)):
                detail = "stored graph differs from a full recomputation over its states"
    outcome(not detail, "children-recomputation", detail or f"{len(g)} states")

    try:
        bad = oracle.soundness_check(g)
    except GraphClosureError as exc:
        outcome(False, "soundness", str(exc))
    else:
        outcome(not bad, "soundness",
                "no rewrite forbids a live continuation" if not bad
                else f"{len(bad)} violations, first {bad[0]!r}")

    try:
        checked, witnesses = oracle.never_undercount_check(g, n_max)
    except GraphClosureError as exc:
        outcome(False, "coverage", str(exc))
    else:
        expected = oracle.count_line_continuations(g.k, n_max)
        cover_ok = not witnesses and checked == expected
        outcome(cover_ok, "coverage",
                f"{checked} continuations tracked" if cover_ok
                else (f"lost walk {witnesses[0].hex()}" if witnesses
                      else f"followed {checked} of {expected} continuations"))

    if g.k <= 8:
        erasure = build(g.k, Options(
            line_like=False, lacking_simpl=False, small_bridges=False,
            large_bridges=False, small_loops=False, planar_a=False, planar_b=False,
        ))
        mismatches = [
            n for n in range(n_max + 1)
            if oracle.unroll(erasure, n) != oracle.count_line_extensions(g.k, n)
        ]
        outcome(not mismatches, "erasure-exactness",
                f"exact through n={n_max}" if not mismatches
                else f"first mismatch at n={mismatches[0]}")
    else:
        print("SKIP erasure-exactness (needs k <= 8)")

    return EXIT_VERIFY if failed else EXIT_OK


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (GraphFileError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
