"""Command line front end.

Subcommands:
  support    build a named support family and emit it as canonical text,
             an ASCII grid, or SVG
  verify     run verification sweeps and write a line-delimited report file
  roundtrip  parse a support document and re-emit it canonically

Exit codes: 0 success, 1 a verified identity failed, 2 bad parameters
(sizes too large to allocate included) or unreadable input.  The default
output directory for verify comes from QUIVERDIAS_OUT when set.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

from . import families
from .render import render_ascii, render_svg
from .reports import write_report_file
from .serialize import dumps_support, loads_support
from .supports import Support
from .sweeps import SUITES, SweepConfig, run_sweep

OUT_ENV = "QUIVERDIAS_OUT"

FAMILIES = ("s", "n", "projective", "injective", "simple")
FORMATS = ("text", "ascii", "svg")


def _build_family(args) -> Support:
    def need(name: str) -> int:
        value = getattr(args, name)
        if value is None:
            raise ValueError(f"family '{args.family}' needs --{name}")
        return value

    if args.family == "s":
        return families.s_support(need("m"), need("i"), need("n"))
    if args.family == "n":
        return families.n_support(need("n"))
    return families.interval_support(need("n"), args.family, need("j"))


def cmd_support(args) -> int:
    support = _build_family(args)
    if args.format == "text":
        out = dumps_support(support)
    elif args.format == "ascii":
        out = render_ascii(support)
    else:
        out = render_svg(support)
    if args.out:
        Path(args.out).write_text(out)
    else:
        sys.stdout.write(out)
    return 0


def cmd_verify(args) -> int:
    config = SweepConfig(
        suite=args.suite,
        max_m=args.max,
        max_n=args.max_n,
        max_p=args.max_p,
        oracle_max=args.oracle_max,
        field_kind=args.field,
        prime=args.prime,
        workers=args.workers,
    )
    # an unusable --out is refused before the sweep, not after it
    out_dir = Path(args.out or os.environ.get(OUT_ENV, "."))
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"verify-{args.suite}.jsonl"
    start = time.perf_counter()
    total, failed = write_report_file(config.echo(), run_sweep(config), path)
    status = f"{len(failed)} FAILED" if failed else "all passed"
    print(f"{total} checks, {status}; report: {path}")
    print(f"elapsed: {time.perf_counter() - start:.2f}s", file=sys.stderr)
    for r in failed:
        print(f"FAIL {r.verifier} {r.params} ({len(r.witnesses)} witnesses)")
    return 1 if failed else 0


def cmd_roundtrip(args) -> int:
    text = Path(args.path).read_text()
    support = loads_support(text)
    sys.stdout.write(dumps_support(support))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quiverdias",
        description="support calculus and identity verification for the "
        "diassociative cooperad of type-A quiver categories",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("support", help="build and emit a support family")
    sp.add_argument("--family", required=True, choices=FAMILIES)
    sp.add_argument("--m", type=int)
    sp.add_argument("--i", type=int)
    sp.add_argument("--n", type=int)
    sp.add_argument("--j", type=int)
    sp.add_argument("--format", default="text", choices=FORMATS)
    sp.add_argument("--out", help="write to this file instead of stdout")
    sp.set_defaults(func=cmd_support)

    vp = sub.add_parser("verify", help="run verification sweeps")
    vp.add_argument("--suite", default="all", choices=SUITES)
    vp.add_argument("--max", type=int, default=4, help="bound on m (and n, p unless overridden)")
    vp.add_argument("--max-n", dest="max_n", type=int, default=0)
    vp.add_argument("--max-p", dest="max_p", type=int, default=0)
    vp.add_argument("--oracle-max", dest="oracle_max", type=int, default=0)
    vp.add_argument("--field", default="prime", choices=("prime", "rational"))
    vp.add_argument("--prime", type=int, default=32003)
    vp.add_argument("--workers", type=int, default=1)
    vp.add_argument("--out", help=f"output directory (default: ${OUT_ENV} or .)")
    vp.set_defaults(func=cmd_verify)

    rp = sub.add_parser("roundtrip", help="canonicalize a support document")
    rp.add_argument("path")
    rp.set_defaults(func=cmd_roundtrip)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # parameters too large to allocate are bad parameters, not a failed identity
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
