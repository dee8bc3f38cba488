"""Command-line interface.

Subcommands:

* h1      --input group.json [--module V|V[p]]   first cohomology report
* h1loc   --input group.json [--module V|V[p]]   first local cohomology report
* verify  [--primes 5 7 11]                      run every construction report
* scan    --p 5                                  classify GL_2(F_p) candidates
* power-identity [--primes ...] [--seed 0]       randomized power identity runs

All reports are JSON with sorted keys and no timestamps, so identical
invocations produce byte-identical output.  Exit codes: 0 success, 1 usage,
2 bad input, 3 resource cap, 4 verification failure.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from typing import Optional, Sequence

from .cohomology import h1, h1_loc, parse_module
from .constructions import verify_all
from .classify import scan_prime_to_p_subgroups
from .errors import ContractError, InputError, ResourceLimitError
from .groups import DEFAULT_GROUP_CAP, group_from_json, power_identity_check
from .zmod import ModulusContext, is_prime

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3
EXIT_VERIFICATION = 4

POWER_IDENTITY_PRIMES = (5, 7, 11, 13)
POWER_IDENTITY_EXPONENTS = (2, 3)
POWER_IDENTITY_TRIALS = 200


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="h1loc", description="exact group cohomology over Z/p^n")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (("h1", "first cohomology of a group definition"),
                            ("h1loc", "first local cohomology of a group definition")):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--input", required=True, help="group definition JSON file")
        cmd.add_argument("--module", default="V", help="coefficient module: V or V[p]")
        cmd.add_argument("--cap", type=int, default=DEFAULT_GROUP_CAP, help="group size cap")
        cmd.add_argument("--output", default=None, help="write the report here instead of stdout")

    cmd = sub.add_parser("verify", help="run the construction verification suite")
    cmd.add_argument("--primes", type=int, nargs="+", default=[5, 7, 11])
    cmd.add_argument("--cap", type=int, default=DEFAULT_GROUP_CAP)
    cmd.add_argument("--output", default=None)

    cmd = sub.add_parser("scan", help="classify candidate subgroups of GL_2(F_p)")
    cmd.add_argument("--p", type=int, required=True)
    cmd.add_argument("--output", default=None)

    cmd = sub.add_parser("power-identity", help="randomized unipotent power identity runs")
    cmd.add_argument("--primes", type=int, nargs="+", default=list(POWER_IDENTITY_PRIMES))
    cmd.add_argument("--seed", type=int, default=0)
    cmd.add_argument("--output", default=None)
    return parser


def _emit(payload, path: Optional[str]) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if path is None:
        print(text)
    else:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise InputError(f"cannot write {path}: {exc}") from exc


def _check_cap(cap: int) -> None:
    if cap < 1:
        raise InputError(f"--cap must be a positive element count, got {cap}")


def _load_group(path: str, cap: int):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(
            f"malformed JSON in {path} at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text: {exc}") from exc
    except RecursionError:
        raise InputError(f"JSON in {path} nests too deeply to parse") from None
    return group_from_json(data, cap=cap)


def _cmd_cohomology(args, local: bool) -> int:
    _check_cap(args.cap)
    group = _load_group(args.input, args.cap)
    module = parse_module(group.ctx, args.module)
    report = h1_loc(group, module) if local else h1(group, module)
    _emit(report.to_json(), args.output)
    return EXIT_OK


def _cmd_verify(args) -> int:
    for p in args.primes:
        if not is_prime(p) or p < 5:
            raise InputError(f"--primes entries must be primes >= 5, got {p}")
    _check_cap(args.cap)
    reports = verify_all(args.primes, cap=args.cap)
    _emit([r.to_json() for r in reports], args.output)
    failed = [r for r in reports if r.status == "failed"]
    for r in failed:
        print(f"verification failed: {r.label} p={r.p}: {r.failing_checks()}", file=sys.stderr)
    return EXIT_VERIFICATION if failed else EXIT_OK


def _cmd_scan(args) -> int:
    if not is_prime(args.p):
        raise InputError(f"--p must be prime, got {args.p}")
    entries = scan_prime_to_p_subgroups(args.p)
    _emit([e.to_json() for e in entries], args.output)
    return EXIT_OK


def _cmd_power_identity(args) -> int:
    rng = random.Random(args.seed)
    results = []
    any_failed = False
    for p in sorted(args.primes):
        if not is_prime(p) or p < 5:
            raise InputError(f"--primes entries must be primes >= 5, got {p}")
        for n in POWER_IDENTITY_EXPONENTS:
            ctx = ModulusContext(p, n)
            q = ctx.modulus
            passed = 0
            for _ in range(POWER_IDENTITY_TRIALS):
                tup = (rng.randrange(q), rng.randrange(q), rng.randrange(q), rng.randrange(q))
                if power_identity_check(*tup, ctx):
                    passed += 1
            any_failed = any_failed or passed != POWER_IDENTITY_TRIALS
            results.append(
                {"p": p, "n": n, "trials": POWER_IDENTITY_TRIALS, "passed": passed, "seed": args.seed}
            )
    _emit(results, args.output)
    return EXIT_VERIFICATION if any_failed else EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        if args.command == "h1":
            return _cmd_cohomology(args, local=False)
        if args.command == "h1loc":
            return _cmd_cohomology(args, local=True)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "scan":
            return _cmd_scan(args)
        if args.command == "power-identity":
            return _cmd_power_identity(args)
        raise AssertionError(f"unhandled command {args.command}")
    except (InputError, ContractError) as exc:
        print(f"h1loc: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ResourceLimitError as exc:
        print(f"h1loc: resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    raise SystemExit(main())
