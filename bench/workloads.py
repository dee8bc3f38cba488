"""The benchmark's three workloads: `h1loc` CLI invocations built from a seed,
each paired with the check of its output against ``expected.json``.

* ``verify-suite``: ``verify --primes 5`` and ``verify --primes 7``, the
  paper's re-derivation end to end.  The inputs are fixed by the paper; the
  seed only orders the invocations.
* ``h1loc-input``: ``h1loc`` and ``h1`` on group definition files, each group
  conjugated by a random matrix of ``GL_2(Z/p^n)`` drawn from the seed.
  Conjugation keeps the group order and every invariant factor.
* ``scan-classify``: ``scan --p 11``, ``scan --p 13`` and ``power-identity``
  with the run's seed; no cohomology is computed.

Every invocation takes at most about 3 s, so that a run repeats each one
several times (see ``run.py`` for why).
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
EXPECTED_PATH = BENCH_DIR / "expected.json"

WORKLOADS = ("verify-suite", "h1loc-input", "scan-classify")

# (id, subcommand, module, p, n, generators, label).  Ids key expected.json.
# borel-shared p=11 (|G|=2662) is where the h1_loc cross-check dominates;
# h1 on borel-shared p=17 (|G|=9826) harvests 39,164 rows; the Z/125 groups
# cover n=3 valuations and the torsion and quotient modules.
INPUTS = (
    ("borel-shared-11", "h1loc", "V", 11, 2,
     [[[1, 0], [0, -1]], [[12, 1], [22, 12]], [[12, 0], [0, -10]]], "borel-shared"),
    ("borel-shared-17-h1", "h1", "V", 17, 2,
     [[[1, 0], [0, -1]], [[18, 1], [34, 18]], [[18, 0], [0, -16]]], "borel-shared"),
    ("z125", "h1loc", "V", 5, 3, [[[1, 0], [0, -1]], [[6, 1], [10, 6]]], "z125"),
    ("z125-torsion", "h1loc", "V[p]", 5, 3, [[[1, 0], [0, -1]], [[6, 1], [10, 6]]], "z125"),
    ("z125-quotient", "h1loc", "V/V[p]", 5, 3, [[[1, 0], [0, -1]], [[6, 1], [10, 6]]], "z125"),
    ("z125-unipotent", "h1loc", "V", 5, 3, [[[1, 1], [0, 1]], [[6, 0], [0, -4]]], "z125-unipotent"),
)
# The cheap invocations of each workload, which the benchmark's tests run.
TINY = {"verify-suite": ("verify-5",), "h1loc-input": ("z125-torsion",),
        "scan-classify": ("scan-11", "power-identity")}

Check = Callable[[str], Optional[str]]


@dataclass(frozen=True)
class Invocation:
    name: str
    argv: tuple[str, ...]  # the arguments after `h1loc`
    check: Check  # stdout -> a description of what is wrong, or None


def load_expected(path: Path = EXPECTED_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def build(workload: str, seed: int, expected: dict, out_dir: Path,
          tiny: bool = False) -> list[Invocation]:
    """The workload's invocations in the order a pass runs them.

    Writes any input files the invocations read into ``out_dir``.
    """
    rng = random.Random(seed)
    if workload == "verify-suite":
        invs = [Invocation(f"verify-{p}", ("verify", "--primes", str(p)),
                           _verify_check(p, expected["verify-suite"][str(p)]))
                for p in (5, 7)]
    elif workload == "h1loc-input":
        out_dir.mkdir(parents=True, exist_ok=True)
        invs = []
        for name, cmd, module, p, n, gens, label in INPUTS:
            path = out_dir / f"{name}.json"
            group = {"p": p, "n": n, "generators": conjugate(gens, p**n, rng), "label": label}
            path.write_text(json.dumps(group), encoding="utf-8")
            invs.append(Invocation(name, (cmd, "--input", str(path), "--module", module),
                                   _cohomology_check(cmd, module, label,
                                                     expected["h1loc-input"][name])))
    elif workload == "scan-classify":
        primes = (5, 7, 11, 13)
        invs = [Invocation(f"scan-{p}", ("scan", "--p", str(p)),
                           _digest_check(expected["scan-classify"][f"scan-{p}"]))
                for p in (11, 13)]
        if tiny:
            primes = (5,)
        invs.append(Invocation(
            "power-identity",
            ("power-identity", "--primes", *map(str, primes), "--seed", str(seed)),
            _power_identity_check(primes, seed)))
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(WORKLOADS)}")
    if tiny:
        invs = [inv for inv in invs if inv.name in TINY[workload]]
    rng.shuffle(invs)
    return invs


def conjugate(gens: list, q: int, rng: random.Random) -> list:
    """P g P^-1 for each generator g, with P uniform in GL_2(Z/q)."""
    while True:
        a, b, c, d = (rng.randrange(q) for _ in range(4))
        try:
            det_inv = pow((a * d - b * c) % q, -1, q)
        except ValueError:  # det is not a unit
            continue
        break
    pinv = ((d * det_inv) % q, (-b * det_inv) % q, (-c * det_inv) % q, (a * det_inv) % q)
    out = []
    for (g00, g01), (g10, g11) in gens:
        # (P g) then (P g) P^-1
        m = (a * g00 + b * g10, a * g01 + b * g11, c * g00 + d * g10, c * g01 + d * g11)
        r = (m[0] * pinv[0] + m[1] * pinv[2], m[0] * pinv[1] + m[1] * pinv[3],
             m[2] * pinv[0] + m[3] * pinv[2], m[2] * pinv[1] + m[3] * pinv[3])
        out.append([[r[0] % q, r[1] % q], [r[2] % q, r[3] % q]])
    return out


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _parse(stdout: str):
    try:
        return json.loads(stdout), None
    except json.JSONDecodeError as exc:
        return None, f"stdout is not JSON: {exc}"


def _verify_check(p: int, exp: dict) -> Check:
    def check(stdout: str) -> Optional[str]:
        reports, err = _parse(stdout)
        if err:
            return err
        got = {r["label"]: r for r in reports}
        if sorted(got) != sorted(exp["reports"]):
            return f"report labels {sorted(got)} != {sorted(exp['reports'])}"
        for label, want in exp["reports"].items():
            r = got[label]
            order = r["h1loc"]["order"] if r["h1loc"] else None
            have = {"status": r["status"], "group_order": r["group_order"], "h1loc_order": order}
            if have != want:
                return f"{label} p={p}: {have} != expected {want}"
            failing = [c["name"] for c in r["checks"] if not c["passed"]]
            if failing:
                return f"{label} p={p}: failing checks {failing}"
        if sha256(stdout) != exp["stdout_sha256"]:
            return f"verify p={p}: stdout digest differs from the one pinned at the seed commit"
        return None
    return check


def _cohomology_check(cmd: str, module: str, label: str, exp: dict) -> Check:
    def check(stdout: str) -> Optional[str]:
        report, err = _parse(stdout)
        if err:
            return err
        have = {"order": report["order"], "invariant_factors": report["invariant_factors"]}
        if have != exp or report["module"] != module or report["group_label"] != label:
            return (f"{cmd} {label} {module}: order {have}, module {report['module']!r}, "
                    f"label {report['group_label']!r} != expected {exp}")
        if cmd == "h1loc" and (report["witness"] is None) != (exp["order"] == 1):
            return f"{cmd} {label} {module}: witness presence does not match the order"
        return None
    return check


def _digest_check(digest: str) -> Check:
    def check(stdout: str) -> Optional[str]:
        _, err = _parse(stdout)
        if err:
            return err
        if sha256(stdout) != digest:
            return "stdout digest differs from the one pinned at the seed commit"
        return None
    return check


def _power_identity_check(primes: tuple[int, ...], seed: int) -> Check:
    def check(stdout: str) -> Optional[str]:
        rows, err = _parse(stdout)
        if err:
            return err
        want = [{"p": p, "n": n, "trials": 200, "passed": 200, "seed": seed}
                for p in primes for n in (2, 3)]
        if rows != want:
            return f"power-identity rows {rows} != expected {want}"
        return None
    return check
