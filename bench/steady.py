"""Steadiness check: run each workload repeatedly, one seed per run, and report
each end-to-end metric's median and quartiles against the bounds in
BENCHMARK.json.

Run from the repository root:

    python3 bench/steady.py --out steady.json
    python3 bench/steady.py --against bench/baseline/seed-b064766.json

A metric's spread is (q3 - q1) / median over the runs, with the quartiles of
``statistics.quantiles(values, n=4)``.  It is marked ``ok`` below a third of
the metric's bound, ``wide`` up to the bound and ``FAIL`` beyond it.  With
``--against``, each median is compared with the same metric's median in an
earlier steadiness file: worse by more than the bound is a regression.  One
traced run per workload records the per-layer metrics.

Each workload runs RUNS times, seeds ``--first-seed`` onwards.  Runs go
round-robin over the workloads, so a slow spell of the machine falls on all
of them.  Exit code 0 when every run was correct, no spread is beyond
its bound and nothing regressed; 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import stamp
from workloads import ROOT, WORKLOADS

RUN_TIMEOUT_S = 200
RUNS = 10


def load_config() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def bench_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(lines[-1])


def is_regression(better: str, new: float, old: float, bound: float) -> bool:
    if better == "lower":
        return new > old * (1 + bound)
    return new < old * (1 - bound)


def summarise(values: list[float], bound: float) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median
    if spread < bound / 3:
        verdict = "ok"
    elif spread <= bound:
        verdict = "wide"
    else:
        verdict = "FAIL"
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "spread": spread,
            "bound": bound, "verdict": verdict, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", type=Path, default=None, help="write the summary JSON here")
    parser.add_argument("--against", type=Path, default=None,
                        help="an earlier steadiness file to compare medians with")
    args = parser.parse_args(argv)
    config = load_config()
    metrics = {m["name"]: m for m in config["end_to_end"]}
    info = stamp()
    runs = {w: [] for w in WORKLOADS}
    ok = True
    for i in range(RUNS):
        for w in WORKLOADS:
            seed = args.first_seed + i
            result = bench_run(w, seed, config["run_seconds"], 0)
            runs[w].append({"seed": seed, **result})
            ok = ok and result["correct"]
            shown = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
            print(f"{w} seed={seed} correct={result['correct']} {shown}", flush=True)
    previous = json.loads(args.against.read_text(encoding="utf-8")) if args.against else None
    summary = {}
    for w in WORKLOADS:
        traced = bench_run(w, args.first_seed, config["run_seconds"], 1)
        ok = ok and traced["correct"]
        rows = {}
        for name, m in metrics.items():
            values = [r["metrics"][name]["value"] for r in runs[w]]
            row = summarise(values, m["bound"])
            row["unit"] = m["unit"]
            ok = ok and row["verdict"] != "FAIL"
            if previous is not None:
                old = previous["workloads"][w]["end_to_end"][name]["median"]
                row["against_median"] = old
                row["regressed"] = is_regression(m["better"], row["median"], old, m["bound"])
                ok = ok and not row["regressed"]
            rows[name] = row
            extra = (f" against {row['against_median']:.4g}"
                     f"{' REGRESSED' if row['regressed'] else ''}") if previous else ""
            print(f"{w:14s} {name:12s} median {row['median']:.4g} {m['unit']} "
                  f"q1 {row['q1']:.4g} q3 {row['q3']:.4g} spread {row['spread']:.3f} "
                  f"bound {m['bound']} {row['verdict']}{extra}")
        summary[w] = {"runs": runs[w], "end_to_end": rows,
                      "per_layer": {k: v["value"] for k, v in traced["metrics"].items()}}
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({"stamp": info, "run_seconds": config["run_seconds"],
                                        "workloads": summary}, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
