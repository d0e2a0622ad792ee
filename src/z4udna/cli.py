"""Command-line front end.

Subcommands: factor, build, enumerate, check, distance, crossval.
Polynomials are passed as comma-separated ascending coefficients in ring
element text form (``3,1,2,1`` is x^3+2x^2+x+3).  Exit codes: 0 success or
affirmative verdict, 1 negative verdict, 2 usage or validation error
(a file that cannot be read or written included), 3 enumeration cap
exceeded.
"""

from __future__ import annotations

import argparse
import sys

from . import conditions, dna
from .cyclic import (
    DEFAULT_CAP,
    EXPORT_FORMATS,
    GeneratorSet,
    enumerate_code,
    render_code_export,
)
from .errors import CapExceeded, InvalidGenerators, UnsupportedLength, Z4uError
from .poly import Poly, factor_xn_minus_1_f2, factor_xn_minus_1_z4

# Caught after CapExceeded, the one Z4uError that exits 3 instead.
_USAGE_ERRORS = (Z4uError, ValueError, OSError)

CHECK_PROPERTIES = ("reversible", "rc", "dna", "thm31", "thm32", "thm41", "thm42")


def _add_gen_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--f1", help="coefficients of f1, ascending")
    p.add_argument("--f2", help="coefficients of f2, ascending")
    p.add_argument("--f14", default="0")
    p.add_argument("--f3")
    p.add_argument("--f4")
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)


def _gens_from_args(args) -> GeneratorSet:
    if not args.f1 or not args.f2:
        raise InvalidGenerators("--f1 and --f2 are required")
    f3 = Poly.parse(args.f3) if args.f3 else None
    f4 = Poly.parse(args.f4) if args.f4 else None
    return GeneratorSet(args.n, Poly.parse(args.f1), Poly.parse(args.f2),
                        Poly.parse(args.f14), f3, f4)


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_factor(args) -> int:
    f2_factors = factor_xn_minus_1_f2(args.n)
    z4_factors = factor_xn_minus_1_z4(args.n)
    print("F2: " + " ".join(str(f) for f in f2_factors))
    print("Z4: " + " ".join(str(f) for f in z4_factors))
    return 0


def cmd_build(args) -> int:
    code = enumerate_code(_gens_from_args(args), args.cap)
    _emit(render_code_export(code, args.format), args.out)
    if args.codebook_out:
        book = dna.render_codebook(code.dna_words(), comment=f"n={code.n} size={len(code)}")
        with open(args.codebook_out, "w", encoding="ascii") as fh:
            fh.write(book)
    return 0


def cmd_check(args) -> int:
    gens = _gens_from_args(args)
    prop = args.property
    lines = [f"property={prop}"]
    if prop in ("reversible", "rc", "dna"):
        code = enumerate_code(gens, args.cap)
        verdict = {"reversible": code.is_reversible,
                   "rc": code.is_rc_closed,
                   "dna": code.is_dna_code}[prop]()
        lines += [f"n={code.n}", f"size={len(code)}"]
    else:
        checker = {"thm31": conditions.check_reversible_single,
                   "thm32": conditions.check_reversible_double,
                   "thm41": conditions.check_rc_single,
                   "thm42": conditions.check_rc_double}[prop]
        report = checker(gens)
        verdict = report.satisfied
        lines += [
            f"theorem={report.theorem}",
            f"i_shift={report.i_shift}",
            f"j_shift={report.j_shift if report.j_shift is not None else '-'}",
            f"branch={report.branch if report.branch else '-'}",
            "failures=" + ("; ".join(report.failures) if report.failures else "-"),
            "notes=" + ("; ".join(report.notes) if report.notes else "-"),
        ]
    lines.append(f"result={str(verdict).lower()}")
    print("\n".join(lines))
    return 0 if verdict else 1


def cmd_distance(args) -> int:
    if args.codebook:
        words = dna.read_codebook(args.codebook)
        print(dna.min_letterwise_distance(words) if args.metric == "dna"
              else dna.min_ring_distance(words, args.metric))
        return 0
    code = enumerate_code(_gens_from_args(args), args.cap)
    if args.metric == "hamming":
        print(code.min_hamming_distance())
    elif args.metric == "lee":
        print(code.min_lee_distance())
    else:
        print(dna.min_letterwise_distance(code.dna_words()))
    return 0


def cmd_crossval(args) -> int:
    if args.samples is None and args.n > 5:
        raise UnsupportedLength(
            f"exhaustive sweep is limited to n <= 5; pass --samples for n={args.n}")
    if args.samples is not None and args.samples < 1:
        raise ValueError(f"--samples must be >= 1, got {args.samples}")
    reports = conditions.sweep(args.n, max_f14_degree=2, seed=args.seed,
                               samples=args.samples, cap=args.cap)
    _emit(conditions.format_sweep_report(reports), args.out)
    return 0 if all(r.agree for r in reports) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="z4udna",
        description="Cyclic DNA codes of odd length over Z4 + uZ4.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("factor", help="factor x^n-1 over F2 and over Z4")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_factor)

    for name in ("build", "enumerate"):
        p = sub.add_parser(name, help="enumerate a code and export it")
        _add_gen_flags(p)
        p.add_argument("--format", choices=EXPORT_FORMATS, default="ring")
        p.add_argument("--out")
        p.add_argument("--codebook-out", dest="codebook_out",
                       help="also write the DNA words as a plain codebook file")
        p.set_defaults(func=cmd_build)

    p = sub.add_parser("check", help="check a closure property or condition set")
    _add_gen_flags(p)
    p.add_argument("--property", choices=CHECK_PROPERTIES, required=True)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("distance", help="minimum distance of a code or codebook")
    _add_gen_flags(p)
    p.add_argument("--metric", choices=("hamming", "lee", "dna"), default="hamming")
    p.add_argument("--codebook", help="read words from a codebook file instead")
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("crossval", help="sweep the divisor lattice, compare "
                                        "predictions with brute force")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)
    p.add_argument("--out")
    p.set_defaults(func=cmd_crossval)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
