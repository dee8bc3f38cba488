"""End-to-end command line behavior and exit codes."""

import hashlib
import json
import time

import pytest

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


def test_cap_exceeded_is_resource_error(tmp_path, capsys):
    path = write_group(tmp_path)
    assert main(["h1loc", "--input", path, "--cap", "10"]) == EXIT_RESOURCE
    assert main(["scan", "--p", "17"]) == EXIT_RESOURCE


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
    from h1loc import cli
    from h1loc.constructions import Check, ConstructionReport

    failing = ConstructionReport(
        label="s3-quotient",
        p=5,
        expected_nontrivial=True,
        checks=(Check("doomed", False),),
    )
    monkeypatch.setattr(cli, "verify_all", lambda primes, cap: [failing])
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


@pytest.mark.parametrize(
    "p, digest",
    [
        (5, "c89c806f862ca13a5bc51ccfd92d56c9bcb2f93815fc2b5653460558ccc95871"),
        (7, "00b671a9584318443d45d047da72af8a34263e2f7c69fcda6a4bc807cd45e613"),
        (11, "3b3c7e5c8fa6c4c76566009c23d28a4d66a8dcbce401d0193633ab66b69f9b4e"),
    ],
)
def test_scan_stdout_is_pinned(capsys, p, digest):
    # sha256 of the stdout of `h1loc scan --p 5` and `--p 7` as first recorded,
    # before the scanner shared the groups closure and power walk; `--p 11`
    # as recorded while the scanner still walked every element's full span.
    assert main(["scan", "--p", str(p)]) == EXIT_OK
    assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == digest


BOREL_SHARED_5 = {"p": 5, "n": 2, "label": "borel-shared",
                  "generators": [[[1, 0], [0, -1]], [[6, 1], [10, 6]], [[6, 0], [0, -4]]]}
Z125_GROUP = {"p": 5, "n": 3, "label": "z125", "generators": [[[1, 0], [0, -1]], [[6, 1], [10, 6]]]}


@pytest.mark.parametrize(
    "group, module, digest",
    [
        (BOREL_SHARED_5, "V", "aaf0588f9686cedf5322ce94230bcff0a971ee56ead7ffdfc113e63370250281"),
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
