"""Command-line front end.

Machine-readable output (JSON, DOT, member lists) goes to stdout;
diagnostics and timing go to stderr.  Exit status: 0 success, 1 domain
error or failed verification suite, 2 usage error.

Every integer argument is read by `_integer`: a non-integer, and a decimal
longer than Python converts (4300 digits by default), is a usage error
with a short message.  `dispatch` prints every domain error and every usage
error that argparse does not print itself.

`cmp E1 [E2 ...] -- F1 [F2 ...]` is split at `--` outside argparse; its
parser row serves the top-level `--help` and `cmp -h` (or `--help`) alone.
`realize`'s `--primes` and `--alpha` (or their prefixes) are joined to the
token after each outside argparse too, which would take a list led by a
minus sign, such as `--alpha -1,1`, for an option.
"""
from __future__ import annotations

import json
import re
import sys
from argparse import ArgumentParser, ArgumentTypeError

from .numtheory import classify_prime
from .progressions import closure
from .filters import classify, descriptor, filter_le, realize, upset_in_Fprime
from .gamma import export_dot, gamma_graph
from .verify import knobs, run_suite, suite_names

# a base-10 literal as int() reads it; int() refuses one past
# sys.get_int_max_str_digits() digits (0: no limit; absent before 3.10.7)
_DECIMAL = re.compile(r"\s*[+-]?(\d+(?:_\d+)*)\s*")
_CMP_ARGS = "E1 [E2 ...] -- F1 [F2 ...]"


def _integer(text: str, positive: bool = False) -> int:
    """text as an integer, at least 1 if positive, or an ArgumentTypeError."""
    decimal = _DECIMAL.fullmatch(text)
    if decimal:
        digits = len(decimal[1].replace("_", ""))
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if 0 < limit < digits:
            raise ArgumentTypeError(f"an integer of {digits} digits; at most {limit} are read")
        v = int(text)
        if v >= 1 or not positive:
            return v
    shown = repr(text) if len(text) <= 40 else f"{text[:40]!r}..."
    raise ArgumentTypeError(f"need {'a positive' if positive else 'an'} integer, got {shown}")


def _positive(text: str) -> int:
    return _integer(text, positive=True)


def _integers(text: str) -> tuple:
    return tuple(_integer(part) for part in text.split(","))


def _emit(obj) -> None:
    print(json.dumps(obj))


def _cmd_closure(args) -> int:
    cs = closure(args.a, args.b)
    if args.window is None:
        _emit(cs.to_json_dict())
    else:
        lo, hi = args.window
        print(" ".join(str(z) for z in cs.members(lo, hi)))
    return 0


def _cmd_filter(args) -> int:
    _emit(descriptor(args.elements).to_json_dict())
    return 0


def _cmd_classify(args) -> int:
    _emit(classify(args.elements).to_json_dict())
    return 0


def _cmd_upset(args) -> int:
    _emit([d.to_json_dict() for d in upset_in_Fprime(args.elements)])
    return 0


def _cmd_realize(args) -> int:
    if len(args.primes) != len(args.alpha):
        raise ArgumentTypeError("--primes and --alpha must have the same length")
    if len(set(args.primes)) != len(args.primes):
        raise ArgumentTypeError("--primes must not repeat a prime")
    alpha = dict(zip(args.primes, args.alpha))
    E = realize(args.primes, alpha)
    _emit(descriptor(E).to_json_dict())
    return 0


def _cmd_gamma(args) -> int:
    g = gamma_graph(args.p, args.bound)
    if args.format == "dot":
        sys.stdout.write(export_dot(g))
    else:
        _emit(g.to_json_dict())
    return 0


def _cmd_verify(args) -> int:
    bounds = None
    if args.bound:
        names = knobs(args.suite)
        if len(args.bound) > len(names):
            raise ArgumentTypeError(
                f"suite {args.suite!r} takes at most {len(names)} --bound values "
                f"({', '.join(names) or 'none'})"
            )
        bounds = dict(zip(names, args.bound))
    report = run_suite(args.suite, bounds=bounds, seed=args.seed)
    _emit(report.to_json_dict())
    print(
        f"suite {report.suite_name}: {report.instances_checked} instances, "
        f"{report.failure_count} failures, {report.elapsed:.2f}s",
        file=sys.stderr,
    )
    return 0 if report.passed else 1


def _cmd_primes(args) -> int:
    pt = classify_prime(args.p)
    _emit({"p": args.p, "tag": pt.tag, "m": pt.witness_exponent})
    return 0


def _cmd_cmp(rest) -> int:
    cut = rest.index("--") if "--" in rest else len(rest)
    E, F = tuple(map(_positive, rest[:cut])), tuple(map(_positive, rest[cut + 1 :]))
    if not E or not F:
        raise ArgumentTypeError(f"expected kirchlab cmp {_CMP_ARGS}")
    le = filter_le(E, F)
    ge = filter_le(F, E)
    _emit(
        {
            "E": sorted(set(E)),
            "F": sorted(set(F)),
            "E_le_F": le,
            "F_le_E": ge,
            "equal": le and ge,
        }
    )
    return 0


def _build_parser() -> ArgumentParser:
    parser = ArgumentParser(
        prog="kirchlab",
        description="laboratory for the arithmetic-progression topology on the positive integers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("closure", help="closure of a + b*N0 in normal form")
    p.add_argument("a", type=_positive)
    p.add_argument("b", type=_positive)
    p.add_argument("--window", nargs=2, type=_positive, metavar=("LO", "HI"))
    p.set_defaults(func=_cmd_closure)

    p = sub.add_parser("filter", help="filter descriptor of a finite set")
    p.add_argument("elements", nargs="+", type=_positive)
    p.set_defaults(func=_cmd_filter)

    p = sub.add_parser("classify", help="coarse classification of a filter")
    p.add_argument("elements", nargs="+", type=_positive)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("upset", help="FPrime filters above a FDoublePrime filter")
    p.add_argument("elements", nargs="+", type=_positive)
    p.set_defaults(func=_cmd_upset)

    sub.add_parser(
        "cmp", usage=f"kirchlab cmp {_CMP_ARGS}", help=f"compare two filters: cmp {_CMP_ARGS}"
    )

    p = sub.add_parser("realize", help="witness set for prescribed signature data")
    p.add_argument("--primes", type=_integers, required=True, metavar="P1,P2,...")
    p.add_argument("--alpha", type=_integers, required=True, metavar="K1,K2,...")
    p.set_defaults(func=_cmd_realize)

    p = sub.add_parser("gamma", help="bounded slice of the graph Gamma_p")
    p.add_argument("p", type=_positive)
    p.add_argument("--bound", type=_positive, required=True)
    p.add_argument("--format", choices=("dot", "json"), default="dot")
    p.set_defaults(func=_cmd_gamma)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=suite_names())
    p.add_argument("--seed", type=_integer, default=0)
    p.add_argument("--bound", nargs="+", type=_integer, metavar="N")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("primes", help="prime utilities")
    psub = p.add_subparsers(dest="primes_command", required=True)
    pc = psub.add_parser("classify", help="shape of a prime relative to powers of two")
    pc.add_argument("p", type=_positive)
    pc.set_defaults(func=_cmd_primes)

    return parser


def _joined(argv: list) -> list:
    """argv with each --primes and --alpha, or a prefix of either that argparse
    accepts for it, joined to the token after it."""
    out = []
    for arg in argv:
        last = out[-1] if out else ""
        if len(last) > 2 and ("--primes".startswith(last) or "--alpha".startswith(last)):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def dispatch(argv) -> int:
    try:
        if argv and argv[0] == "cmp" and argv[1:2] not in (["-h"], ["--help"]):
            return _cmd_cmp(list(argv[1:]))
        if argv and argv[0] == "realize":
            argv = _joined(argv)
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as err:  # argparse has printed its usage error, or --help
        return err.code or 0
    except ArgumentTypeError as err:  # a usage error that argparse cannot see
        print(f"error: {err}", file=sys.stderr)
        return 2
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))
