"""Command-line interface.

Subcommands:

* h1      --input group.json [--module V|V[p]|V/V[p]]   first cohomology report
* h1loc   --input group.json [--module V|V[p]|V/V[p]]   first local cohomology report
* verify  [--primes 5 7 11]                             run every construction report
* scan    --p 5                                         classify GL_2(F_p) candidates
* power-identity [--primes ...] [--seed 0]              randomized power identity runs

All reports are JSON with sorted keys and no timestamps, so identical
invocations produce byte-identical output.  Exit codes: 0 success, 1 usage,
2 bad input (including a report that cannot be written, to an ``--output``
path or to a closed stdout), 3 resource cap, 4 verification failure.

Each subcommand loads only the modules it runs, and with no bytecode cache
written a process compiles each one it loads.  Besides the package, this
module, errors, ring and groups, ``scan`` loads classify; ``h1`` and
``h1loc`` load zmod and cohomology; ``verify`` loads those and
constructions; ``power-identity`` loads nothing more.  The handlers import
the layers they alone use, and ``power-identity`` the stdlib ``random``.

``main()`` is the in-process API: it returns the exit code.  ``run()`` is
the process entry point (``python -m h1loc.cli`` and the ``h1loc`` script):
it calls ``main()``, flushes stdout and stderr, and ends with ``os._exit``.
That skips interpreter finalization, which frees every module, closure key
and cocycle table one object at a time after the answer is printed: with
Python 3.11 on a 2-CPU Xeon it took 6-10 ms of an h1loc invocation (``h1``
on borel-shared p=17: 66.9 vs 60.6 ms, where the group's closure takes
9.2 ms) and 4.5 ms even of ``python -c pass``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import NoReturn, Optional, Sequence

from .errors import ContractError, InputError, ResourceLimitError
from .groups import DEFAULT_GROUP_CAP, group_from_json, power_identity_trials
from .ring import ModulusContext, is_prime

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3
EXIT_VERIFICATION = 4

POWER_IDENTITY_PRIMES = (5, 7, 11, 13)
POWER_IDENTITY_EXPONENTS = (2, 3)
POWER_IDENTITY_TRIALS = 200


class _Parser(argparse.ArgumentParser):
    def _print_message(self, message, file=None):
        # argparse swallows an OSError here, so help into a closed stdout
        # would exit 0 with nothing written; _write_stdout raises instead.
        if file is sys.stdout:
            _write_stdout(message)
        else:
            super()._print_message(message, file)

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
        cmd.set_defaults(run=_cmd_cohomology, local=name == "h1loc")
        cmd.add_argument("--input", required=True, help="group definition JSON file")
        cmd.add_argument("--module", default="V", help="coefficient module: V, V[p] or V/V[p]")
        cmd.add_argument("--cap", type=int, default=DEFAULT_GROUP_CAP, help="group size cap")
        cmd.add_argument("--output", default=None, help="write the report here instead of stdout")

    cmd = sub.add_parser("verify", help="run the construction verification suite")
    cmd.set_defaults(run=_cmd_verify)
    cmd.add_argument("--primes", type=int, nargs="+", default=[5, 7, 11])
    cmd.add_argument("--cap", type=int, default=DEFAULT_GROUP_CAP)
    cmd.add_argument("--output", default=None)

    cmd = sub.add_parser("scan", help="classify candidate subgroups of GL_2(F_p)")
    cmd.set_defaults(run=_cmd_scan)
    cmd.add_argument("--p", type=int, required=True)
    cmd.add_argument("--output", default=None)

    cmd = sub.add_parser("power-identity", help="randomized unipotent power identity runs")
    cmd.set_defaults(run=_cmd_power_identity)
    cmd.add_argument("--primes", type=int, nargs="+", default=list(POWER_IDENTITY_PRIMES))
    cmd.add_argument("--seed", type=int, default=0)
    cmd.add_argument("--output", default=None)
    return parser


def _write_stdout(text: str) -> None:
    """Write and flush text to stdout; InputError when that fails."""
    if sys.stdout is None:  # the process started with file descriptor 1 closed
        raise InputError("cannot write stdout: it is closed")
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        raise InputError(f"cannot write stdout: {exc}") from exc


def _emit(payload, path: Optional[str]) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if path is None:
        _write_stdout(text + "\n")
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


def _cmd_cohomology(args) -> int:
    from .cohomology import h1, h1_loc, parse_module

    _check_cap(args.cap)
    group = _load_group(args.input, args.cap)
    module = parse_module(group.ctx, args.module)
    report = h1_loc(group, module) if args.local else h1(group, module)
    _emit(report.to_json(), args.output)
    return EXIT_OK


def _cmd_verify(args) -> int:
    from .constructions import verify_all

    _check_cap(args.cap)
    reports = verify_all(args.primes, cap=args.cap)
    _emit([r.to_json() for r in reports], args.output)
    failed = [r for r in reports if r.status == "failed"]
    for r in failed:
        print(f"verification failed: {r.label} p={r.p}: {r.failing_checks()}", file=sys.stderr)
    return EXIT_VERIFICATION if failed else EXIT_OK


def _cmd_scan(args) -> int:
    from .classify import scan_prime_to_p_subgroups

    if not is_prime(args.p):
        raise InputError(f"--p must be prime, got {args.p}")
    entries = scan_prime_to_p_subgroups(args.p)
    _emit([e.to_json() for e in entries], args.output)
    return EXIT_OK


def _cmd_power_identity(args) -> int:
    import random

    # Every prime and modulus is checked before the first trial runs.
    contexts = []
    for p in sorted(args.primes):
        if not is_prime(p) or p < 5:
            raise InputError(f"--primes entries must be primes >= 5, got {p}")
        contexts += [ModulusContext(p, n) for n in POWER_IDENTITY_EXPONENTS]
    rng = random.Random(args.seed)
    results = [
        {"p": ctx.p, "n": ctx.n, "trials": POWER_IDENTITY_TRIALS,
         "passed": power_identity_trials(ctx, rng, POWER_IDENTITY_TRIALS), "seed": args.seed}
        for ctx in contexts
    ]
    _emit(results, args.output)
    failed = any(r["passed"] != POWER_IDENTITY_TRIALS for r in results)
    return EXIT_VERIFICATION if failed else EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else EXIT_USAGE
        return args.run(args)
    except (InputError, ContractError) as exc:
        print(f"h1loc: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ResourceLimitError as exc:
        print(f"h1loc: resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE


def run() -> NoReturn:
    """The process entry point: ``main()`` on ``sys.argv``, then ``os._exit``.

    Flushing stdout and stderr first is what makes the skipped interpreter
    teardown safe: h1loc registers no ``atexit`` handler, starts no thread,
    and closes an ``--output`` file in its ``with`` block.  A report that
    could not be written has already failed in ``_emit`` with exit 2, so a
    flush that fails here again is not raised.  An exception that escapes
    ``main()`` takes the normal exit, traceback and all.
    """
    code = main()
    for stream in (sys.stdout, sys.stderr):
        try:
            if stream is not None:
                stream.flush()
        except OSError:
            code = code or EXIT_INPUT  # output was lost, so the run did not succeed
    os._exit(code)


if __name__ == "__main__":
    run()
