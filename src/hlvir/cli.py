"""Command-line interface: exact polynomial construction, straightening,
coefficient lookup, operator application, identity verification, and the
desk self-test suite.  Output is deterministic text or JSON.

Exit codes: 0 success/equal; 1 verification inequality or failed self-test;
2 usage or parse error; 3 singular coefficient; 4 degenerate pairing;
5 internal error (an unexpected exception).
"""

from __future__ import annotations

import argparse
import json
import sys

from .exactnum import RhoSpec
from .structure import SingularCoefficientError, c_coeff, multiply_p, straighten
from .tring import DegeneratePairingError, apply
from .vertex import hl_q, read_cache_max, set_cache_enabled
from .virasoro import IDENTITIES, TheoremCase, build_operator, verify_case

EXIT_OK = 0
EXIT_UNEQUAL = 1
EXIT_USAGE = 2
EXIT_SINGULAR = 3
EXIT_DEGENERATE = 4
EXIT_INTERNAL = 5

_OP_FAMILIES = {"L": "Lmn", "Lhat": "Lhat", "Ltilde": "Ltilde",
                "W": "Wmn", "V": "Vmn", "LS": "LS", "WS": "WS"}

_CASE_NAMES = {row.name: row.id for row in IDENTITIES}


def _parse_vector(text: str) -> tuple:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"expected a comma-separated integer list, got {text!r}")


def _check_order(order: int, max_order: int) -> None:
    if order > max_order:
        raise ValueError(
            f"root order {order} exceeds the cap {max_order}"
            " (raise it with --max-xi-order)")


def _parse_rho(text: str, max_order: int) -> RhoSpec:
    rho = RhoSpec.parse(text)
    if rho.kind == "root":
        _check_order(rho.order, max_order)
    return rho


def _parse_op(text: str) -> tuple:
    """FAMILY:k=v,... as (family, m, n), n None when not given."""
    head, sep, tail = text.partition(":")
    family = _OP_FAMILIES.get(head.strip())
    if family is None or not sep:
        raise ValueError(
            f"operator spec {text!r}: expected FAMILY:k=v,... with FAMILY in "
            + "/".join(sorted(_OP_FAMILIES)))
    params = {}
    for piece in tail.split(","):
        key, eq, value = piece.partition("=")
        key = key.strip()
        if not eq or key not in ("n", "m"):
            raise ValueError(f"operator spec {text!r}: bad parameter {piece!r}")
        if key in params:
            raise ValueError(f"operator spec {text!r}: repeated parameter {key!r}")
        try:
            params[key] = int(value)
        except ValueError:
            raise ValueError(f"operator spec {text!r}: {value!r} is not an integer")
    if "m" not in params:
        raise ValueError(f"operator spec {text!r}: missing m")
    return family, params["m"], params.get("n")


def _emit(args, text_value: str, json_payload: dict) -> None:
    if args.format == "json":
        print(json.dumps(json_payload, sort_keys=True))
    else:
        print(text_value)


def _cmd_q(args) -> int:
    rho = _parse_rho(args.rho, args.max_xi_order)
    lam = _parse_vector(args.lam)
    poly = hl_q(lam, rho)
    _emit(args, poly.to_text(),
          {"rho": rho.to_text(), "lambda": list(lam), "poly": poly.to_json()})
    return EXIT_OK


def _cmd_straighten(args) -> int:
    rho = _parse_rho(args.rho, args.max_xi_order)
    lam = _parse_vector(args.lam)
    comb = straighten(lam, rho)
    _emit(args, comb.to_text(),
          {"rho": rho.to_text(), "lambda": list(lam),
           "combination": comb.to_json()})
    return EXIT_OK


def _cmd_coeff(args) -> int:
    rho = _parse_rho(args.rho, args.max_xi_order)
    mu = _parse_vector(args.mu)
    value = c_coeff(mu, rho)
    text = rho.field.value_text(value)
    _emit(args, text,
          {"rho": rho.to_text(), "mu": list(mu), "coeff": text})
    return EXIT_OK


def _cmd_mulp(args) -> int:
    rho = _parse_rho(args.rho, args.max_xi_order)
    lam = _parse_vector(args.lam)
    comb = multiply_p(args.r, lam, rho)
    _emit(args, comb.to_text(),
          {"rho": rho.to_text(), "lambda": list(lam), "r": args.r,
           "combination": comb.to_json()})
    return EXIT_OK


def _cmd_apply(args) -> int:
    rho = _parse_rho(args.rho, args.max_xi_order)
    lam = _parse_vector(args.lam)
    family, m, n = _parse_op(args.op)
    if n is not None:  # the operator's n is a root order
        _check_order(n, args.max_xi_order)
    result = apply(build_operator(family, m, n), hl_q(lam, rho))
    _emit(args, result.to_text(),
          {"rho": rho.to_text(), "lambda": list(lam), "op": args.op,
           "poly": result.to_json()})
    return EXIT_OK


def _cmd_verify(args) -> int:
    case_id = _CASE_NAMES.get(args.case)
    if case_id is None:
        raise ValueError(f"unknown case {args.case!r}; choose from "
                         + ", ".join(sorted(_CASE_NAMES)))
    if args.n is not None:  # every identity's n is a root order
        _check_order(args.n, args.max_xi_order)
    params = {name: getattr(args, name) for name in ("n", "m", "i", "j", "r", "degree")}
    if args.rho is not None:
        params["rho"] = _parse_rho(args.rho, args.max_xi_order)
    if args.lam is not None:
        params["lam"] = _parse_vector(args.lam)
    verdict = verify_case(TheoremCase(case_id, **params))
    if args.format == "json":
        print(json.dumps(verdict.to_json(), sort_keys=True))
    else:
        print("equal" if verdict.equal else "not equal")
        print("lhs:", verdict.lhs.to_text())
        print("rhs:", verdict.rhs.to_text())
        if not verdict.equal:
            print("diff:", verdict.diff.to_text())
        if verdict.detail:
            print(verdict.detail)
    return EXIT_OK if verdict.equal else EXIT_UNEQUAL


def _cmd_selftest(args) -> int:
    from .selftest import run_desk
    results = run_desk(echo=print if args.format == "text" else None)
    failed = sum(1 for res in results if not res.passed)
    if args.format == "json":
        print(json.dumps({"criteria": [res.to_json() for res in results],
                          "failed": failed}, sort_keys=True))
    else:
        total_time = sum(res.seconds for res in results)
        print(f"desk suite: {len(results)} criteria, {failed} failed,"
              f" {total_time:.1f}s")
    return EXIT_OK if failed == 0 else EXIT_UNEQUAL


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text",
                        help="output format (default: text)")
    common.add_argument("--no-cache", action="store_true",
                        help="disable polynomial memoization")
    common.add_argument("--max-xi-order", type=int, default=64, metavar="N",
                        help="largest accepted root-of-unity order (default 64)")

    parser = argparse.ArgumentParser(
        prog="hlvir",
        description="Exact Hall-Littlewood vertex-operator computations and"
                    " identity verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("q", parents=[common],
                       help="print the polynomial for a label")
    p.add_argument("--rho", required=True,
                   help='specialization: "generic", "xi:<n>", or a rational like "0", "-1", "1/2"')
    p.add_argument("--lambda", dest="lam", required=True, metavar="LIST",
                   help='comma-separated integers; "" is the empty label')
    p.set_defaults(handler=_cmd_q)

    p = sub.add_parser("straighten", parents=[common],
                       help="rewrite a label as a combination over partitions")
    p.add_argument("--rho", required=True)
    p.add_argument("--lambda", dest="lam", required=True, metavar="LIST")
    p.set_defaults(handler=_cmd_straighten)

    p = sub.add_parser("coeff", parents=[common],
                       help="print the power-sum expansion coefficient of a partition")
    p.add_argument("--rho", required=True)
    p.add_argument("--mu", required=True, metavar="LIST")
    p.set_defaults(handler=_cmd_coeff)

    p = sub.add_parser("mulp", parents=[common],
                       help="multiply a label by a power sum, as a combination")
    p.add_argument("--rho", required=True)
    p.add_argument("--lambda", dest="lam", required=True, metavar="LIST")
    p.add_argument("--r", type=int, required=True, help="power-sum index, >= 1")
    p.set_defaults(handler=_cmd_mulp)

    p = sub.add_parser("apply", parents=[common],
                       help="apply an operator to the polynomial of a label")
    p.add_argument("--op", required=True, metavar="SPEC",
                   help='operator spec, e.g. "L:n=2,m=-1" or "LS:m=3"')
    p.add_argument("--rho", required=True)
    p.add_argument("--lambda", dest="lam", required=True, metavar="LIST")
    p.set_defaults(handler=_cmd_apply)

    p = sub.add_parser("verify", parents=[common],
                       help="check one identity instance exactly")
    p.add_argument("--case", required=True,
                   help="one of " + ", ".join(sorted(_CASE_NAMES)))
    p.add_argument("--rho", help="for rho-parametrized cases")
    p.add_argument("--lambda", dest="lam", metavar="LIST")
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--i", type=int)
    p.add_argument("--j", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--degree", type=int,
                   help="monomial degree bound for sweep cases")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("selftest", parents=[common],
                       help="run the verification suite")
    p.add_argument("--suite", choices=("desk",), default="desk")
    p.set_defaults(handler=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.no_cache:
        set_cache_enabled(False)
    try:
        read_cache_max()
        return args.handler(args)
    except SingularCoefficientError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SINGULAR
    except DegeneratePairingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
