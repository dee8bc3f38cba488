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

Nor does a valid run load argparse.  One table, ``_commands()``, lists each
subcommand's handler, help, fixed namespace values and options, and both
parsers read it.  ``_parse_fast`` takes the plain grammar: a known
subcommand, then exact ``--flag value`` pairs (one or more values for
``--primes``), no value starting with "-", every int value accepted by
``int()``, every required flag present, a repeated flag keeping its last
value.  For such argv it returns the namespace argparse would.  Anything
else, from ``--help`` and a usage error to an abbreviation,
``--flag=value``, ``--`` or a negative number, goes to ``build_parser()``,
which imports argparse (with gettext and locale) only then, so help text,
error messages and exit codes stay argparse's own.  With Python 3.11 on a
2-CPU Xeon that import and parse took 5-8 ms of a 57-66 ms ``scan``
process.  Reports are written by ``_json_text``, which gives the text of
``json.dumps(payload, indent=2, sort_keys=True)`` without the pure-Python
encoder that ``indent`` selects, and without importing json: only ``h1``
and ``h1loc``, which read a group file, load it.  On the same host, with
``re`` already loaded at start-up, ``import json`` took 2.9 ms and
``import argparse`` 3.3 ms over a 46 ms ``python -c pass``.

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

import os
import sys
from types import SimpleNamespace
from typing import NamedTuple, NoReturn, Optional, Sequence

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


def _write_stdout(text: str) -> None:
    """Write and flush text to stdout; InputError when that fails."""
    if sys.stdout is None:  # the process started with file descriptor 1 closed
        raise InputError("cannot write stdout: it is closed")
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        raise InputError(f"cannot write stdout: {exc}") from exc


try:  # json.encoder's own string encoder, without importing json
    from _json import encode_basestring_ascii as _quote
except ImportError:  # an interpreter without the C accelerator
    from json.encoder import encode_basestring_ascii as _quote


def _json_text(value, newline: str = "\n") -> str:
    """json.dumps(value, indent=2, sort_keys=True), byte for byte.

    indent makes json fall back from its C encoder to the pure-Python one,
    which takes 5.2 ms on the report of h1loc on borel-shared p=11, where
    this takes 3.6 ms (Python 3.11, 2-CPU Xeon; verify --primes 7: 3.2 and
    2.1 ms).  This writes dicts with str keys, lists, tuples, str, int, bool
    and None itself, a list of plain ints in one join, and hands anything
    else (a float, a dict with other keys, an unknown type) to json.dumps,
    re-indented: JSON text holds no raw newline outside its layout.
    newline is a newline followed by the indent of the line value starts on.
    """
    inner = newline + "  "
    if isinstance(value, (list, tuple)):  # first: most values are short lists
        if not value:
            return "[]"
        if all(type(item) is int for item in value):
            return "[" + inner + ("," + inner).join(map(int.__repr__, value)) + newline + "]"
        return "[" + inner + ("," + inner).join([_json_text(item, inner) for item in value]) + newline + "]"
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, dict) and all(isinstance(key, str) for key in value):
        if not value:
            return "{}"
        items = [_quote(key) + ": " + _json_text(value[key], inner) for key in sorted(value)]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    import json

    return json.dumps(value, indent=2, sort_keys=True).replace("\n", newline)


def _emit(payload, path: Optional[str]) -> None:
    text = _json_text(payload)
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
    import json

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


class _Option(NamedTuple):
    """One option of a subcommand, as argparse's add_argument takes it."""

    flag: str
    type: object = None
    nargs: Optional[str] = None
    default: object = None
    required: bool = False
    help: Optional[str] = None


def _commands() -> dict:
    """The one table both parsers read: each subcommand's handler, help,
    the values set_defaults gives its namespace, and its options.

    It is built on each call, so each namespace gets its own default lists
    and runs the handler the module holds now, even one replaced on the
    module after import (as a tracer or a test may do)."""
    cohomology = (
        _Option("--input", required=True, help="group definition JSON file"),
        _Option("--module", default="V", help="coefficient module: V, V[p] or V/V[p]"),
        _Option("--cap", int, default=DEFAULT_GROUP_CAP, help="group size cap"),
        _Option("--output", help="write the report here instead of stdout"),
    )
    return {
        "h1": (_cmd_cohomology, "first cohomology of a group definition", {"local": False}, cohomology),
        "h1loc": (_cmd_cohomology, "first local cohomology of a group definition", {"local": True},
                  cohomology),
        "verify": (_cmd_verify, "run the construction verification suite", {}, (
            _Option("--primes", int, "+", default=[5, 7, 11]),
            _Option("--cap", int, default=DEFAULT_GROUP_CAP),
            _Option("--output"),
        )),
        "scan": (_cmd_scan, "classify candidate subgroups of GL_2(F_p)", {}, (
            _Option("--p", int, required=True),
            _Option("--output"),
        )),
        "power-identity": (_cmd_power_identity, "randomized unipotent power identity runs", {}, (
            _Option("--primes", int, "+", default=list(POWER_IDENTITY_PRIMES)),
            _Option("--seed", int, default=0),
            _Option("--output"),
        )),
    }


def _parse_fast(argv: Sequence[str]) -> Optional[SimpleNamespace]:
    """The namespace argparse returns for argv, or None when argv is not in
    the plain grammar: a known subcommand, then exact ``--flag value``
    pairs, with one or more values for a ``nargs="+"`` flag, no value
    starting with "-", every int value accepted by int(), every required
    flag present and a repeated flag keeping its last value.  On None
    argparse parses argv, so help, usage errors and every unusual form
    (an abbreviation, ``--flag=value``, ``-h``, ``--``, a negative number)
    are argparse's own."""
    command = _commands().get(argv[0]) if argv else None
    if command is None:
        return None
    run, _, fixed, options = command
    by_flag = {opt.flag: opt for opt in options}
    values = {"command": argv[0], "run": run, **fixed}
    values.update((opt.flag[2:], opt.default) for opt in options)
    given = set()
    i = 1
    while i < len(argv):
        opt = by_flag.get(argv[i])
        if opt is None:
            return None
        end = i + 1
        while end < len(argv) and not argv[end].startswith("-") and (end == i + 1 or opt.nargs == "+"):
            end += 1
        if end == i + 1:
            return None
        try:
            parsed = [text if opt.type is None else opt.type(text) for text in argv[i + 1:end]]
        except ValueError:
            return None
        values[opt.flag[2:]] = parsed if opt.nargs == "+" else parsed[0]
        given.add(opt.flag)
        i = end
    if any(opt.required and opt.flag not in given for opt in options):
        return None
    return SimpleNamespace(**values)


def build_parser():
    """The argparse parser for the table.  argparse (with gettext and
    locale) is imported here, so a process loads it only when _parse_fast
    leaves argv to it: for help, a usage error or an unusual form."""
    import argparse

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

    parser = _Parser(prog="h1loc", description="exact group cohomology over Z/p^n")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (run, help_text, fixed, options) in _commands().items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.set_defaults(run=run, **fixed)
        for opt in options:
            cmd.add_argument(opt.flag, type=opt.type, nargs=opt.nargs, default=opt.default,
                             required=opt.required, help=opt.help)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        try:
            args = _parse_fast(argv) or build_parser().parse_args(argv)
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
