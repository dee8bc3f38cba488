"""End-to-end command line behavior and exit codes."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import h1loc
from h1loc import cli, group_from_json
from h1loc.groups import _rows
from h1loc.cli import (
    EXIT_INPUT,
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_USAGE,
    EXIT_VERIFICATION,
    main,
)


def write_group(tmp_path, name="group.json", **overrides):
    data = {
        "p": 5,
        "n": 2,
        "generators": [[[7, 0], [0, 1]], [[1, 5], [0, 1]], [[6, 0], [0, 21]]],
        "label": "cyclic-sample",
    }
    data.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_h1loc_reports_nontrivial_order(tmp_path, capsys):
    path = write_group(tmp_path)
    assert main(["h1loc", "--input", path]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["group_label"] == "cyclic-sample"
    assert report["module"] == "V"
    assert report["order"] == 5
    assert report["witness"] is not None


def test_h1_command_and_torsion_module(tmp_path, capsys):
    path = write_group(tmp_path)
    assert main(["h1", "--input", path, "--module", "V[p]"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["module"] == "V[p]"
    assert report["witness"] is None


def test_output_file_and_determinism(tmp_path, capsys):
    path = write_group(tmp_path)
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["h1loc", "--input", path, "--output", str(out1)]) == EXIT_OK
    assert main(["h1loc", "--input", path, "--output", str(out2)]) == EXIT_OK
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def test_malformed_json_reports_position(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"p": 5,\n  "n": }')
    assert main(["h1loc", "--input", str(path)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "line 2" in err and "column" in err


def test_missing_file_is_input_error(tmp_path, capsys):
    assert main(["h1loc", "--input", str(tmp_path / "absent.json")]) == EXIT_INPUT


def test_non_prime_p_is_input_error(tmp_path, capsys):
    path = write_group(tmp_path, p=6)
    assert main(["h1loc", "--input", path]) == EXIT_INPUT
    assert main(["scan", "--p", "9"]) == EXIT_INPUT
    assert main(["verify", "--primes", "6"]) == EXIT_INPUT


@pytest.mark.parametrize("p", ["2", "3"])
def test_scan_below_5_is_input_error(p, capsys):
    # The classification needs p >= 5, as verify and power-identity do, so
    # p = 2 and 3 are refused as input, not capped as a resource.
    assert main(["scan", "--p", p]) == EXIT_INPUT
    assert capsys.readouterr() == ("", f"h1loc: input error: --p must be a prime >= 5, got {p}\n")


def test_cap_exceeded_is_resource_error(tmp_path, capsys):
    path = write_group(tmp_path)
    assert main(["h1loc", "--input", path, "--cap", "10"]) == EXIT_RESOURCE
    assert main(["scan", "--p", "17"]) == EXIT_RESOURCE


def test_verify_p29_still_stops_at_the_cocycle_system_cap(capsys):
    # cyclic-quotient decides its solution-set checks from a basis and has
    # no cap of its own; verify stops at p = 29 where it did, on the
    # borel-disjoint group's cocycle system.
    assert main(["verify", "--primes", "29"]) == EXIT_RESOURCE
    assert capsys.readouterr() == (
        "",
        "h1loc: resource limit: cocycle system: work |G|*dim = 48778*6 = 292668 exceeds the cap of 200000\n",
    )


def test_closure_edge_budget_is_resource_error(tmp_path, capsys):
    # Borel-shared p=5 (250 elements) given by all 249 of its non-identity
    # elements: the closure stays within the element cap of 250 but its
    # edge table would hold 250 * 249 entries, past the budget of
    # 32 * 250 = 8000 that it reaches after 33 elements.
    g = h1loc.build_borel_shared_group(5)
    gens = [_rows(k) for k in g._keys[1:]]
    path = write_group(tmp_path, generators=gens, label="borel-shared")
    assert main(["h1", "--input", path, "--cap", "250"]) == EXIT_RESOURCE
    assert capsys.readouterr().err == (
        "h1loc: resource limit: group closure reached 8217 edges for 249 generators, "
        "the budget of 32 per element of the cap of 250\n"
    )
    assert main(["h1", "--input", write_group(tmp_path, generators=gens[:3]), "--cap", "250"]) == EXIT_OK


def test_usage_errors(capsys):
    assert main([]) == EXIT_USAGE
    assert main(["h1loc"]) == EXIT_USAGE
    assert main(["unknown-command"]) == EXIT_USAGE


def test_scan_p7_empty_s3_inventory(capsys):
    assert main(["scan", "--p", "7"]) == EXIT_OK
    entries = json.loads(capsys.readouterr().out)
    assert entries
    assert all(e["case"] != "s3-type" for e in entries)


def test_scan_p5_inventory_shape(capsys):
    assert main(["scan", "--p", "5"]) == EXIT_OK
    entries = json.loads(capsys.readouterr().out)
    s3_orders = sorted({e["order"] for e in entries if e["case"] == "s3-type"})
    assert s3_orders == [3, 6]
    for e in entries:
        assert set(e) == {"case", "order", "generators", "evidence", "shape_filter"}


def test_verify_p5_passes_and_is_deterministic(capsys):
    assert main(["verify", "--primes", "5"]) == EXIT_OK
    first = capsys.readouterr().out
    reports = json.loads(first)
    assert len(reports) == 5
    assert all(r["status"] == "passed" for r in reports)
    assert main(["verify", "--primes", "5"]) == EXIT_OK
    assert capsys.readouterr().out == first


def test_verify_p7_skips_s3(capsys):
    assert main(["verify", "--primes", "7"]) == EXIT_OK
    reports = json.loads(capsys.readouterr().out)
    by_label = {r["label"]: r for r in reports}
    assert by_label["s3-quotient"]["status"] == "skipped"


def test_verify_failure_exit_code(monkeypatch, capsys):
    from h1loc import constructions
    from h1loc.constructions import Check, ConstructionReport

    failing = ConstructionReport(
        label="s3-quotient",
        p=5,
        expected_nontrivial=True,
        checks=(Check("doomed", False),),
    )
    # The verify handler imports verify_all when it runs, so it reads the patch.
    monkeypatch.setattr(constructions, "verify_all", lambda primes, cap: [failing])
    assert main(["verify", "--primes", "5"]) == EXIT_VERIFICATION
    assert "doomed" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["scan", "h1loc"])
@pytest.mark.parametrize("target", ["missing-dir", "directory"])
def test_unwritable_output_is_input_error(tmp_path, capsys, command, target):
    out = tmp_path / "absent" / "x.json" if target == "missing-dir" else tmp_path
    argv = ["scan", "--p", "5"] if command == "scan" else ["h1loc", "--input", write_group(tmp_path)]
    assert main([*argv, "--output", str(out)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert str(out) in captured.err
    assert "Traceback" not in captured.err


def test_power_identity_command(tmp_path, capsys):
    out = tmp_path / "power.json"
    assert main(["power-identity", "--primes", "5", "--seed", "3", "--output", str(out)]) == EXIT_OK
    results = json.loads(out.read_text())
    assert {(r["p"], r["n"]) for r in results} == {(5, 2), (5, 3)}
    assert all(r["passed"] == r["trials"] == 200 for r in results)


def test_power_identity_runs_each_distinct_prime_once(capsys):
    assert main(["power-identity", "--primes", "5", "--seed", "0"]) == EXIT_OK
    once = capsys.readouterr()
    assert main(["power-identity", "--primes", "5", "5", "--seed", "0"]) == EXIT_OK
    assert capsys.readouterr() == once
    assert [(r["p"], r["n"]) for r in json.loads(once.out)] == [(5, 2), (5, 3)]


@pytest.mark.parametrize("primes, message", [
    (["5", "9"], "--primes entries must be primes >= 5, got 9"),
    (["1000000007"], "modulus p^n = 1000000007^3 does not fit a 63-bit word"),
], ids=["not-a-prime", "modulus-too-large"])
def test_power_identity_validates_before_any_trial(primes, message, monkeypatch, capsys):
    # Every prime and its moduli are checked before the first trial: no
    # trial runs for an invocation that exits 2.
    calls = []
    monkeypatch.setattr(cli, "power_identity_trials", lambda *args: calls.append(args))
    assert main(["power-identity", "--primes", *primes]) == EXIT_INPUT
    assert calls == []
    assert capsys.readouterr() == ("", f"h1loc: input error: {message}\n")


GROUP = {"p": 5, "n": 2, "generators": [[[1, 1], [0, 1]]], "label": None}


@pytest.mark.parametrize(
    "raw",
    [
        *(json.dumps(data).encode() for data in (
            dict(GROUP, generators=[[["a", 0], [0, 1]]]),
            dict(GROUP, generators=[[[1.5, 0], [0, 1]]]),
            dict(GROUP, generators=[[[True, 0], [0, 1]]]),
            dict(GROUP, p=5.0),
            dict(GROUP, n="2"),
            dict(GROUP, label=7),
            [GROUP],
            dict(GROUP, n=10**8),
        )),
        b"\xff\xfe",
        b"[" * 200_000 + b"]" * 200_000,
    ],
    ids=["string-entry", "float-entry", "bool-entry", "float-p", "string-n", "int-label", "not-an-object",
         "huge-n", "not-utf8", "deep-nesting"],
)
def test_malformed_group_is_input_error(tmp_path, capsys, raw):
    path = tmp_path / "group.json"
    path.write_bytes(raw)
    start = time.perf_counter()
    assert main(["h1loc", "--input", str(path)]) == EXIT_INPUT
    assert time.perf_counter() - start < 1.0
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["h1", "--cap", "-5"],
        ["h1loc", "--cap", "0"],
        ["verify", "--primes", "5", "--cap", "0"],
        ["verify", "--cap", "-5"],
    ],
    ids=["h1-negative", "h1loc-zero", "verify-zero", "verify-negative"],
)
def test_non_positive_cap_is_input_error(tmp_path, capsys, argv):
    if argv[0] != "verify":
        argv = [argv[0], "--input", write_group(tmp_path), *argv[1:]]
    start = time.perf_counter()
    assert main(argv) == EXIT_INPUT
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "input error: --cap" in captured.err and "Traceback" not in captured.err


SCAN_DIGESTS = {
    5: "c89c806f862ca13a5bc51ccfd92d56c9bcb2f93815fc2b5653460558ccc95871",
    7: "00b671a9584318443d45d047da72af8a34263e2f7c69fcda6a4bc807cd45e613",
    11: "3b3c7e5c8fa6c4c76566009c23d28a4d66a8dcbce401d0193633ab66b69f9b4e",
    13: "571cebbbca3a37b2d308171d269a4c83d1af980dba354100471ddd41c739af06",
}


@pytest.mark.parametrize("p, digest", sorted(SCAN_DIGESTS.items()))
def test_scan_stdout_is_pinned(capsys, p, digest):
    # sha256 of the stdout of `h1loc scan --p 5` and `--p 7` as first recorded,
    # before the scanner shared the groups closure and power walk; `--p 11`
    # as recorded while the scanner still walked every element's full span;
    # `--p 13` is the benchmark's expected digest, recorded while the scanner
    # still walked the whole group.
    assert main(["scan", "--p", str(p)]) == EXIT_OK
    assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == digest


VERIFY_DIGESTS = {
    5: "237c6b7e6701b852155ad19edc3e18a8bbc7e06c6f244d72ad40482fbd88f7a7",
    7: "bc4f773e163d7d8ee74aedbc85dc9f54ad419a3e37f0fc99f78dbb326b423aa6",
    11: "bd9d665b55cd88565611dd10a765c587e8c2e4472547e73b7eb58d115eeae08c",
}


@pytest.mark.parametrize("primes, p", [(["5"], 5), (["7"], 7), (["11"], 11), (["5", "5"], 5)],
                         ids=["5", "7", "11", "5-5"])
def test_verify_stdout_is_pinned(capsys, primes, p):
    # sha256 of `h1loc verify --primes p` stdout as recorded while every
    # report still built its own groups and cocycle systems; p = 5 and 7
    # are the benchmark's expected digests.  A repeated prime runs once.
    assert main(["verify", "--primes", *primes]) == EXIT_OK
    assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == VERIFY_DIGESTS[p]


BOREL_SHARED_5 = {"p": 5, "n": 2, "label": "borel-shared",
                  "generators": [[[1, 0], [0, -1]], [[6, 1], [10, 6]], [[6, 0], [0, -4]]]}
BOREL_SHARED_5_H1LOC_DIGEST = "aaf0588f9686cedf5322ce94230bcff0a971ee56ead7ffdfc113e63370250281"
Z125_GROUP = {"p": 5, "n": 3, "label": "z125", "generators": [[[1, 0], [0, -1]], [[6, 1], [10, 6]]]}


@pytest.mark.parametrize(
    "group, module, digest",
    [
        (BOREL_SHARED_5, "V", BOREL_SHARED_5_H1LOC_DIGEST),
        (Z125_GROUP, "V", "29720bdc7c0be3a28fe9b87fe602725b6ca84dc6a3c84719737bee58bef496fd"),
        (Z125_GROUP, "V[p]", "cb8e30eaded3482b7116cce48ae1c654d1e7e7700a87ed442a156ff207dc60af"),
        (Z125_GROUP, "V/V[p]", "34f4918a95c0b1c5cbb8a7cd36bc5bb8dc95b00cc61360cb31cfb2f4dc22f4bb"),
    ],
    ids=["borel-shared-5-V", "z125-V", "z125-V[p]", "z125-V/V[p]"],
)
def test_h1loc_stdout_is_pinned(tmp_path, capsys, group, module, digest):
    # sha256 of `h1loc h1loc` stdout as recorded while the local conditions
    # were still imposed at every group element.
    path = tmp_path / "group.json"
    path.write_text(json.dumps(group))
    assert main(["h1loc", "--input", str(path), "--module", module]) == EXIT_OK
    assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == digest


def test_repeated_and_identity_generators_change_nothing(tmp_path, capsys):
    # BOREL_SHARED_5 with the identity and its three generators listed 400
    # times: the closure keeps the three, so its edge table holds three
    # targets per element, and every report is the plain group's.
    repeated = dict(BOREL_SHARED_5, generators=([[[1, 0], [0, 1]]] + BOREL_SHARED_5["generators"]) * 400)
    g, plain = group_from_json(repeated), group_from_json(BOREL_SHARED_5)
    assert g.generators == plain.generators and len(plain.generators) == 3
    assert len(g._right) == len(g) * 3 == len(plain._right)
    for argv in (["h1"], ["h1loc"], ["h1loc", "--module", "V[p]"]):
        outs = []
        for name, data in (("plain.json", BOREL_SHARED_5), ("repeated.json", repeated)):
            path = tmp_path / name
            path.write_text(json.dumps(data))
            assert main([*argv, "--input", str(path)]) == EXIT_OK
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1], argv
        if argv == ["h1loc"]:
            assert hashlib.sha256(outs[1].encode("utf-8")).hexdigest() == BOREL_SHARED_5_H1LOC_DIGEST


def test_cocycle_system_work_cap_is_resource_error(tmp_path, capsys):
    # The cyclic group of order 10006 generated by 5 mod 10007, listed with
    # 11 distinct generators: |G| * dim = 10006 * 22 passes the cap.
    p = 10007
    gens = [[[pow(5, j, p), 0], [0, 1]] for j in range(1, 12)]
    path = tmp_path / "group.json"
    path.write_text(json.dumps({"p": p, "n": 1, "generators": gens, "label": None}))
    start = time.perf_counter()
    assert main(["h1loc", "--input", str(path)]) == EXIT_RESOURCE
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cocycle system" in captured.err and "220132" in captured.err and "200000" in captured.err
    assert "Traceback" not in captured.err


def test_large_prime_modulus_is_fast(tmp_path, capsys):
    # 2^61 - 1 passes MAX_MODULUS; deciding that it is prime must not take
    # trial division up to its square root.
    p = 2**61 - 1
    path = tmp_path / "group.json"
    path.write_text(json.dumps({"p": p, "n": 1, "generators": [[[-1, 0], [0, 1]]], "label": None}))
    start = time.perf_counter()
    assert main(["h1loc", "--input", str(path)]) == EXIT_OK
    assert time.perf_counter() - start < 1.0
    assert json.loads(capsys.readouterr().out)["order"] == 1


# Runs h1loc.cli.main on its arguments in a fresh interpreter, then prints
# the exit code and every module that the run loaded.
SCOPE_PROBE = """
import contextlib, io, sys
import h1loc.cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = h1loc.cli.main(sys.argv[1:])
print(code, *sorted(sys.modules))
"""


def loaded_modules(*args):
    """The h1loc modules loaded by a fresh interpreter that runs ``python
    -c`` on the args, with the package under test first on the path."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(h1loc.__file__).parent.parent), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", *args], env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    return proc.stdout.split()


# The h1loc modules each subcommand loads: the package, cli and errors, the
# coefficient ring and the groups, and beyond them only what it runs.
BASE = {"h1loc", "h1loc.cli", "h1loc.errors", "h1loc.ring", "h1loc.groups"}
COHOMOLOGY = BASE | {"h1loc.zmod", "h1loc.cohomology"}


# The stdlib modules that argparse brings, none of them loaded by an
# interpreter that starts and exits, nor is json.
ARGPARSE = {"argparse", "gettext", "locale"}


@pytest.fixture(scope="module")
def start_up_modules():
    """The modules that `python -c pass` loads."""
    return set(loaded_modules("import sys; print(*sys.modules)"))


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["h1loc", "--input", "GROUP", "--module", "V[p]"], COHOMOLOGY),
        (["h1", "--input", "GROUP"], COHOMOLOGY),
        (["scan", "--p", "5"], BASE | {"h1loc.classify"}),
        (["power-identity", "--primes", "5", "--seed", "0"], BASE),
        (["verify", "--primes", "5"], COHOMOLOGY | {"h1loc.constructions"}),
    ],
    ids=["h1loc", "h1", "scan", "power-identity", "verify"],
)
def test_subcommand_loads_only_the_layers_it_runs(tmp_path, start_up_modules, argv, expected):
    # A valid run is parsed without argparse, so it loads none of the
    # modules argparse brings, and only h1 and h1loc, which read a group
    # file, load json.
    group = tmp_path / "group.json"
    group.write_text(json.dumps(BOREL_SHARED_5))
    reads_group = "GROUP" in argv
    argv = [str(group) if a == "GROUP" else a for a in argv]
    code, *modules = loaded_modules(SCOPE_PROBE, *argv)
    assert code == str(EXIT_OK)
    assert {name for name in modules if name.startswith("h1loc")} == expected
    assert start_up_modules.isdisjoint(ARGPARSE | {"json"})
    assert ARGPARSE.isdisjoint(modules)
    assert ("json" in modules) == reads_group


@pytest.mark.parametrize(
    "argv, code",
    [(["--help"], EXIT_OK), (["scan", "--help"], EXIT_OK), (["scan", "--p", "x"], EXIT_USAGE),
     (["scan", "--p=5"], EXIT_OK)],
    ids=["help", "scan-help", "usage-error", "unusual-form"],
)
def test_argparse_loads_for_help_usage_errors_and_unusual_forms(start_up_modules, argv, code):
    loaded_code, *modules = loaded_modules(SCOPE_PROBE, *argv)
    assert loaded_code == str(code)
    assert ARGPARSE <= set(modules) - start_up_modules


def test_import_h1loc_loads_no_submodule():
    probe = "import sys, h1loc; print(*sorted(m for m in sys.modules if m.startswith('h1loc')))"
    assert loaded_modules(probe) == ["h1loc"]


# ---------------------------------------------------------------------------
# The process entry point, `python -m h1loc.cli`, which ends with os._exit.


def run_process(argv, stdout=subprocess.PIPE, unbuffered=False, columns=None, optimize=False):
    """``python -m h1loc.cli`` on argv, with the package under test first on
    the path.  PYTHONUNBUFFERED is removed, so the child's stdout is
    block-buffered and a byte that the process entry leaves unflushed is
    lost; unbuffered=True sets it to 1 instead.  columns sets COLUMNS, the
    width argparse wraps help to.  optimize=True runs ``python -O``, which
    strips assert statements."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    if columns is not None:
        env["COLUMNS"] = str(columns)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(h1loc.__file__).parent.parent), os.environ.get("PYTHONPATH", "")])
    flags = ["-O"] if optimize else []
    return subprocess.run([sys.executable, *flags, "-m", "h1loc.cli", *argv], env=env, stdout=stdout,
                          stderr=subprocess.PIPE, timeout=120)


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["h1", "--input", "GROUP"], None),
        (["h1loc", "--input", "GROUP"], BOREL_SHARED_5_H1LOC_DIGEST),
        (["scan", "--p", "5"], SCAN_DIGESTS[5]),
        (["power-identity", "--primes", "5", "7"], None),
        (["verify", "--primes", "5"], VERIFY_DIGESTS[5]),
    ],
    ids=["h1", "h1loc", "scan", "power-identity", "verify"],
)
def test_process_stdout_matches_main(tmp_path, capsys, argv, digest):
    group = tmp_path / "group.json"
    group.write_text(json.dumps(BOREL_SHARED_5))
    argv = [str(group) if a == "GROUP" else a for a in argv]
    assert main(argv) == EXIT_OK
    expected = capsys.readouterr().out.encode("utf-8")
    proc = run_process(argv)
    assert (proc.returncode, proc.stderr) == (EXIT_OK, b"")
    assert proc.stdout == expected
    if digest is not None:
        assert hashlib.sha256(proc.stdout).hexdigest() == digest


@pytest.mark.parametrize("argv", [["verify", "--primes", "5"], ["scan", "--p", "5"]], ids=["verify", "scan"])
def test_process_output_is_the_same_under_python_O(argv):
    # python -O strips assert statements, so an output that rested on one
    # would change; no guarantee may.
    plain, optimized = run_process(argv), run_process(argv, optimize=True)
    assert plain.returncode == EXIT_OK and plain.stdout
    assert (optimized.returncode, optimized.stdout, optimized.stderr) == (EXIT_OK, plain.stdout, plain.stderr)


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["h1loc"], EXIT_USAGE, b"h1loc: error: the following arguments are required: --input"),
        (["scan", "--p", "6"], EXIT_INPUT, b"h1loc: input error: --p must be prime, got 6"),
        (["h1loc", "--input", "GROUP", "--cap", "10"], EXIT_RESOURCE, b"h1loc: resource limit: "),
    ],
    ids=["usage", "input", "cap"],
)
def test_process_exit_codes_and_messages(tmp_path, argv, code, message):
    group = tmp_path / "group.json"
    group.write_text(json.dumps(BOREL_SHARED_5))
    proc = run_process([str(group) if a == "GROUP" else a for a in argv])
    assert proc.returncode == code
    assert proc.stdout == b""
    assert message in proc.stderr and b"Traceback" not in proc.stderr


def test_process_output_file_is_complete(tmp_path, capsys):
    assert main(["verify", "--primes", "5"]) == EXIT_OK
    expected = capsys.readouterr().out.encode("utf-8")
    out = tmp_path / "report.json"
    proc = run_process(["verify", "--primes", "5", "--output", str(out)])
    assert (proc.returncode, proc.stdout, proc.stderr) == (EXIT_OK, b"", b"")
    assert out.read_bytes() == expected


def test_closed_stdout_is_input_error():
    # The read end of the pipe is closed before the child starts, so its
    # first write to stdout fails with EPIPE: at the write when stdout is
    # unbuffered, at the flush when it is block-buffered.  Help goes to
    # stdout through the same write and flush as a report.
    for argv in (["scan", "--p", "5"], ["--help"], ["scan", "--help"]):
        for unbuffered in (False, True):
            read_end, write_end = os.pipe()
            os.close(read_end)
            try:
                proc = run_process(argv, stdout=write_end, unbuffered=unbuffered)
            finally:
                os.close(write_end)
            assert proc.returncode == EXIT_INPUT, (argv, unbuffered)
            assert proc.stderr.decode().startswith("h1loc: input error: cannot write stdout: "), (argv, unbuffered)
            assert proc.stderr.count(b"\n") == 1 and b"Traceback" not in proc.stderr


def test_closed_stdout_is_input_error_in_process(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdout", None)
    assert main(["scan", "--p", "5"]) == EXIT_INPUT
    assert capsys.readouterr().err == "h1loc: input error: cannot write stdout: it is closed\n"
    assert main(["--help"]) == EXIT_INPUT
    assert capsys.readouterr().err == "h1loc: input error: cannot write stdout: it is closed\n"


# ---------------------------------------------------------------------------
# Arbitrary JSON input never escapes as an exception.

_INTEGERS = st.one_of(
    st.integers(-10, 30),
    st.sampled_from([2, 3, 5, 7, 11, 101, 2**61 - 1, 2**63 + 1, 10**30, -(10**30)]),
    st.integers(),
)
_SCALARS = st.one_of(
    _INTEGERS,
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.none(),
    st.text(max_size=4),
)
_ANY_JSON = st.recursive(_SCALARS, lambda inner: st.lists(inner, max_size=3)
                         | st.dictionaries(st.text(max_size=3), inner, max_size=3), max_leaves=8)
_MATRICES = st.one_of(
    st.lists(st.lists(_INTEGERS, min_size=2, max_size=2), min_size=2, max_size=2),
    st.lists(st.lists(_INTEGERS, min_size=3, max_size=3), min_size=2, max_size=2),  # 2x3
    st.lists(st.lists(_INTEGERS, max_size=3), max_size=3),  # ragged
    st.lists(st.lists(_SCALARS, min_size=2, max_size=2), min_size=2, max_size=2),
    _ANY_JSON,
)
_SMALL_MATRICES = st.lists(st.lists(st.integers(-30, 30), min_size=2, max_size=2), min_size=2, max_size=2)
_GROUPS = st.one_of(
    st.fixed_dictionaries(
        {"p": st.sampled_from([3, 5, 7]), "n": st.integers(1, 3),
         "generators": st.lists(_SMALL_MATRICES, min_size=1, max_size=3)},
        optional={"label": st.text(max_size=4)},
    ),
    st.fixed_dictionaries(
        {"p": st.one_of(st.sampled_from([2, 3, 5, 7]), _SCALARS),
         "n": st.one_of(st.integers(0, 4), _SCALARS),
         "generators": st.one_of(st.lists(_MATRICES, max_size=3), _ANY_JSON)},
        optional={"label": st.one_of(st.text(max_size=4), _SCALARS)},
    ),
    st.dictionaries(st.sampled_from(["p", "n", "generators", "label"]), _ANY_JSON),
    _ANY_JSON,
)


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(group=_GROUPS, command=st.sampled_from(["h1", "h1loc"]),
       module=st.sampled_from(["V", "V[p]", "V/V[p]", "W"]))
@example(group=dict(BOREL_SHARED_5, generators=([[[1, 0], [0, 1]]] + BOREL_SHARED_5["generators"]) * 400),
         command="h1loc", module="V[p]")
def test_arbitrary_json_input_exits_cleanly(group, command, module):
    """h1 and h1loc on arbitrary JSON: well-formed small groups beside wrong
    types, huge and negative integers, NaN, ragged and 2x3 matrices, bad p
    and n.  Each run answers, or exits with an input or resource error;
    none raises."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "group.json"
        path.write_text(json.dumps(group), encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main([command, "--input", str(path), "--module", module, "--cap", "200"])
    assert code in (EXIT_OK, EXIT_INPUT, EXIT_RESOURCE)


# ---------------------------------------------------------------------------
# Help and usage errors: argparse's own text, as the parser printed it
# before the fast argv parse took over the plain forms (Python 3.11).

TOP_USAGE = "usage: h1loc [-h] {h1,h1loc,verify,scan,power-identity} ...\n"
H1_USAGE = """\
usage: h1loc h1 [-h] --input INPUT [--module MODULE] [--cap CAP]
                [--output OUTPUT]
"""
H1LOC_USAGE = """\
usage: h1loc h1loc [-h] --input INPUT [--module MODULE] [--cap CAP]
                   [--output OUTPUT]
"""
COHOMOLOGY_OPTIONS = """
options:
  -h, --help       show this help message and exit
  --input INPUT    group definition JSON file
  --module MODULE  coefficient module: V, V[p] or V/V[p]
  --cap CAP        group size cap
  --output OUTPUT  write the report here instead of stdout
"""
VERIFY_USAGE = """\
usage: h1loc verify [-h] [--primes PRIMES [PRIMES ...]] [--cap CAP]
                    [--output OUTPUT]
"""
SCAN_USAGE = "usage: h1loc scan [-h] --p P [--output OUTPUT]\n"

HELP = {
    (): TOP_USAGE + """
exact group cohomology over Z/p^n

positional arguments:
  {h1,h1loc,verify,scan,power-identity}
    h1                  first cohomology of a group definition
    h1loc               first local cohomology of a group definition
    verify              run the construction verification suite
    scan                classify candidate subgroups of GL_2(F_p)
    power-identity      randomized unipotent power identity runs

options:
  -h, --help            show this help message and exit
""",
    ("h1",): H1_USAGE + COHOMOLOGY_OPTIONS,
    ("h1loc",): H1LOC_USAGE + COHOMOLOGY_OPTIONS,
    ("verify",): VERIFY_USAGE + """
options:
  -h, --help            show this help message and exit
  --primes PRIMES [PRIMES ...]
  --cap CAP
  --output OUTPUT
""",
    ("scan",): SCAN_USAGE + """
options:
  -h, --help       show this help message and exit
  --p P
  --output OUTPUT
""",
    ("power-identity",): """\
usage: h1loc power-identity [-h] [--primes PRIMES [PRIMES ...]] [--seed SEED]
                            [--output OUTPUT]

options:
  -h, --help            show this help message and exit
  --primes PRIMES [PRIMES ...]
  --seed SEED
  --output OUTPUT
""",
}

USAGE_ERRORS = {
    (): TOP_USAGE + "h1loc: error: the following arguments are required: command\n",
    ("h1loc",): H1LOC_USAGE
    + "h1loc h1loc: error: the following arguments are required: --input\n",
    ("bogus",): TOP_USAGE + "h1loc: error: argument command: invalid choice: 'bogus' "
    "(choose from 'h1', 'h1loc', 'verify', 'scan', 'power-identity')\n",
    ("scan", "--p", "x"): SCAN_USAGE + "h1loc scan: error: argument --p: invalid int value: 'x'\n",
    ("verify", "--primes"): VERIFY_USAGE
    + "h1loc verify: error: argument --primes: expected at least one argument\n",
}


@pytest.mark.parametrize("command", sorted(HELP), ids=lambda c: " ".join(c) or "top")
def test_help_text_is_pinned(command):
    proc = run_process([*command, "--help"], columns=80)
    assert (proc.returncode, proc.stdout.decode(), proc.stderr) == (EXIT_OK, HELP[command], b"")


@pytest.mark.parametrize("argv", sorted(USAGE_ERRORS), ids=lambda a: " ".join(a) or "empty")
def test_usage_errors_are_pinned(argv):
    proc = run_process(list(argv), columns=80)
    assert (proc.returncode, proc.stdout, proc.stderr.decode()) == (EXIT_USAGE, b"", USAGE_ERRORS[argv])


# ---------------------------------------------------------------------------
# The report writer is json.dumps(indent=2, sort_keys=True), byte for byte.

_TEXT = st.one_of(st.text(max_size=6), st.text(st.characters(codec="utf-8", max_codepoint=0x9F), max_size=6),
                  st.sampled_from(["", "\x00", "\n\t\"\\", "é中", "\U0001f600", "\ud800"]))
_PAYLOAD_SCALARS = st.one_of(_TEXT, st.integers(), st.sampled_from([0, -1, 2**70]), st.booleans(), st.none(),
                             st.floats(allow_nan=True, allow_infinity=True))
_PAYLOADS = st.recursive(
    _PAYLOAD_SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.lists(st.integers(), max_size=4),
        st.dictionaries(_TEXT, inner, max_size=4),
        st.dictionaries(st.integers(-3, 3), inner, max_size=3),
    ),
    max_leaves=16,
)


@settings(derandomize=True, deadline=None, database=None, max_examples=500)
@given(payload=_PAYLOADS)
@example(payload={"a": [], "b": {}, "c": [[]], "d": [{}], "e": ()})
@example(payload=[True, 1, False, 0])
@example(payload={"x": {1: [1.5, None], 2: "y"}})
def test_report_writer_is_json_dumps(payload):
    assert cli._json_text(payload) == json.dumps(payload, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# The fast argv parse agrees with argparse wherever it answers.

_JUNK = ["-h", "--help", "--", "-", "-5", "-x", "x", "1.5", "", " 7", "+3", "٣", "07", "bogus",
         "--bogus", "--p", "--primes", "--input", "--cap", "5", "h1", "scan"]


@st.composite
def _argvs(draw):
    """A subcommand's argv in the plain grammar, with required flags most
    of the time, then up to three perturbations: an inserted, replaced or
    deleted token, a ``--flag=value`` join or an abbreviated flag."""
    commands = cli._commands()
    name = draw(st.sampled_from(sorted(commands)))
    options = commands[name][3]
    chosen = draw(st.lists(st.sampled_from(options), max_size=4))
    if draw(st.integers(0, 4)):
        chosen += [opt for opt in options if opt.required]
    argv = [name]
    for opt in draw(st.permutations(chosen)):
        count = draw(st.integers(1, 3)) if opt.nargs == "+" else 1
        value = st.integers(0, 30).map(str) if opt.type is int else st.sampled_from(["g.json", "V[p]", "a b"])
        argv += [opt.flag, *draw(st.lists(value, min_size=count, max_size=count))]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(argv)))
        edit = draw(st.sampled_from(["insert", "replace", "delete", "join", "abbreviate"]))
        if edit == "insert":
            argv.insert(i, draw(st.sampled_from(_JUNK)))
        elif i == len(argv):
            continue
        elif edit == "replace":
            argv[i] = draw(st.sampled_from(_JUNK))
        elif edit == "delete":
            del argv[i]
        elif edit == "join" and i + 1 < len(argv):
            argv[i:i + 2] = [f"{argv[i]}={argv[i + 1]}"]
        elif edit == "abbreviate" and len(argv[i]) > 3:
            argv[i] = argv[i][:-1]
    return argv


def _argparse_vars(argv):
    """vars() of argparse's namespace for argv, or None when it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli.build_parser().parse_args(argv))
        except SystemExit:
            return None


@settings(derandomize=True, deadline=None, database=None, max_examples=400)
@given(argv=_argvs())
@example(argv=["verify", "--primes", "5", "7", "--primes", "11", "--cap", "9"])
@example(argv=["power-identity", "--p", "5"])
@example(argv=["h1", "--cap", "-5", "--input", "g.json"])
def test_fast_parse_agrees_with_argparse(argv):
    fast = cli._parse_fast(argv)
    expected = _argparse_vars(argv)
    if fast is not None:
        assert vars(fast) == expected
    if expected is None:
        assert fast is None


@pytest.mark.parametrize("argv", [
    ["h1loc", "--input", "g.json", "--module", "V[p]", "--cap", "9", "--output", "o.json"],
    ["verify"],
    ["verify", "--primes", "5", "7", "--primes", "11"],
    ["scan", "--output", "", "--p", "+13"],
    ["power-identity", "--seed", "3", "--primes", "5", "7"],
], ids=["h1loc", "defaults", "repeat", "empty-and-signed", "power-identity"])
def test_fast_parse_takes_the_plain_grammar(argv):
    assert vars(cli._parse_fast(argv)) == _argparse_vars(argv)


@pytest.mark.parametrize("argv", [
    [], ["bogus"], ["h1loc"], ["scan", "--p", "x"], ["verify", "--primes"],
    ["h1", "--inp", "g.json"], ["power-identity", "--p", "5"], ["scan", "--p=5"], ["scan", "-h"],
    ["scan", "--", "--p", "5"], ["verify", "--cap", "-5"], ["verify", "--primes", "5", "-7"],
    ["scan", "--p", "5", "7"], ["--help"],
], ids=lambda argv: " ".join(argv) or "empty")
def test_fast_parse_leaves_the_rest_to_argparse(argv):
    assert cli._parse_fast(argv) is None
