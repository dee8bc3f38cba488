"""The h1loc benchmark: drive the `h1loc` CLI over one workload, check every
output, and print the metrics as the last line of stdout.

Run from the repository root:

    python3 bench/run.py --workload verify-suite --seed 1 --seconds 36 --trace 0

With ``--trace 0`` each invocation is a fresh ``python -m h1loc.cli`` child,
run one at a time (a closed loop with a single client), and the end-to-end
metrics are reported over the passes that fit in ``--seconds``, scaled by a
probe of the host's speed (see ``measure``).
With ``--trace 1`` the same invocations run in this process through
``h1loc.cli.main``, alternating an untraced pass and a traced one (see
``tracer.py``), and the per-layer metrics are reported.

Every run writes a result file, stamped with the Python version, git SHA,
CPU count and load average, to ``.bench_out/`` under the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import selectors
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict, dataclass
from time import perf_counter
from typing import Optional

import workloads
from workloads import ROOT

OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 21
# Run in a fresh process, times an import alone: the interpreter's own
# start-up, and the site packages it loads, are not the program's.
IMPORT_TIMER = "import time; t = time.perf_counter(); import {}; print(time.perf_counter() - t)"
# setup_s is measured against the import of the standard library's
# pure-Python decimal module, timed in its own process before and after each
# `import h1loc`; YARDSTICK_REF_S is that import's time at the host's full
# speed.  See ``setup``.
YARDSTICK = "_pydecimal"
YARDSTICK_REF_S = 0.006
# A fixed pure-Python job with a footprint like an h1loc invocation's (about
# 45 MiB of tuples and a dict, read in a random order), run as a fresh
# process once per pass.  See ``measure`` for why time metrics are scaled by
# it; PROBE_REF_S is its time when the host runs at full speed.
PROBE = """
import random
n = 120_000
rng = random.Random(1)
perm = list(range(n))
rng.shuffle(perm)
table = {(i, i + 1, i + 2, i + 3): perm[i] for i in range(n)}
keys = list(table)
j = 0
for _ in range(n):
    j = table[keys[j]]
"""
PROBE_REF_S = 0.35
# Every run, builds and a timed-out child included, ends within 180 s.
RUN_LIMIT_S = 165.0
END_TO_END = {"wall_s": "s", "max_op_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB", "setup_s": "s"}


class SetupError(RuntimeError):
    pass


@dataclass
class Outcome:
    name: str
    wall_s: float
    cpu_s: Optional[float]  # children only
    rss_mb: Optional[float]
    problem: Optional[str]


def stamp() -> dict:
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        sha = git.stdout.strip() if git.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        sha = "unknown"
    return {"python": sys.version.split()[0], "git_sha": sha,
            "nproc": len(os.sched_getaffinity(0)), "loadavg": list(os.getloadavg()),
            "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def _problem(code: Optional[int], stdout: str, stderr: str, inv: workloads.Invocation) -> Optional[str]:
    if code != 0:
        tail = stderr.strip().splitlines()[-1:] or [""]
        return f"exit code {code}: {tail[0]}"
    if "Traceback" in stderr:
        return "traceback on stderr"
    try:
        return inv.check(stdout)
    except (KeyError, TypeError, IndexError, AttributeError) as exc:
        return f"output does not have the expected shape: {exc!r}"


def run_child(inv: workloads.Invocation, deadline: float) -> Outcome:
    """One `h1loc` process; reads both pipes until EOF, then reaps it with wait4."""
    start = perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "h1loc.cli", *inv.argv], cwd=ROOT,
                            env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    chunks = {proc.stdout: [], proc.stderr: []}
    timed_out = False
    with selectors.DefaultSelector() as sel:
        for pipe in chunks:
            sel.register(pipe, selectors.EVENT_READ)
        while sel.get_map():
            left = deadline - perf_counter()
            if left <= 0:
                timed_out = True
                proc.kill()
                break
            for key, _ in sel.select(left):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    stdout = b"".join(chunks[proc.stdout]).decode("utf-8", "replace")
    stderr = b"".join(chunks[proc.stderr]).decode("utf-8", "replace")
    problem = "timed out" if timed_out else _problem(proc.returncode, stdout, stderr, inv)
    return Outcome(inv.name, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, problem)


def run_inprocess(inv: workloads.Invocation) -> Outcome:
    import h1loc.cli

    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = h1loc.cli.main(list(inv.argv))
    except Exception:  # the run goes on; the invocation counts as failed
        traceback.print_exc()
        return Outcome(inv.name, perf_counter() - start, None, None, "uncaught exception")
    wall = perf_counter() - start
    return Outcome(inv.name, wall, None, None, _problem(code, out.getvalue(), err.getvalue(), inv))


def run_probe() -> float:
    start = perf_counter()
    subprocess.run([sys.executable, "-c", PROBE], check=True, timeout=60)
    return perf_counter() - start


def time_import(module: str) -> float:
    proc = subprocess.run([sys.executable, "-c", IMPORT_TIMER.format(module)], cwd=ROOT,
                          env=child_env(), capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise SetupError(f"`import {module}` failed: {proc.stderr.strip()}")
    return float(proc.stdout)


def setup(workload: str, seed: int, expected: dict, tiny: bool, repeats: int):
    """Generate the inputs and time a bare `import h1loc`, `repeats` times.

    Returns the invocations and, for each repeat, the time to generate the
    inputs plus the time of the import in a fresh process, scaled by
    YARDSTICK_REF_S over the mean of the yardstick imports just before and
    just after it.  The host's speed changes within seconds, and the import
    takes about 30 ms: a yardstick taken next to it, of the same kind of
    work, tracks those changes far better than the per-pass probe.  On the
    2-core Xeon host, the spread over runs of the median fell from 0.25
    unscaled to 0.04-0.08.
    """
    times = []
    before = time_import(YARDSTICK)
    for _ in range(repeats):
        start = perf_counter()
        invs = workloads.build(workload, seed, expected, OUT_DIR / "inputs" / workload, tiny)
        generate_s = perf_counter() - start
        setup_s = generate_s + time_import("h1loc")
        after = time_import(YARDSTICK)
        times.append(setup_s * YARDSTICK_REF_S / ((before + after) / 2))
        before = after
    return invs, times


def _report(outcomes: list[Outcome]) -> None:
    for o in outcomes:
        if o.problem:
            print(f"FAIL {o.name}: {o.problem}", file=sys.stderr)


def _timed_pass(invs, runner) -> tuple[float, list[Outcome]]:
    start = perf_counter()
    outcomes = [runner(inv) for inv in invs]
    wall = perf_counter() - start
    _report(outcomes)
    return wall, outcomes


def measure(workload: str, seed: int, seconds: float, trace: bool,
            expected: Optional[dict] = None, tiny: bool = False) -> dict:
    """Set up, then make passes while the next one fits in ``seconds``.

    Each time metric but setup_s (see ``setup``) takes, for every
    invocation, the mean of its repetitions in the run, and is scaled by
    PROBE_REF_S over the run's mean probe time: seconds at the host's full
    speed.  On the 2-core Xeon host this benchmark was built on, process
    times come in steps of about 50 ms and grow by up to 2.2x in phases
    lasting seconds to minutes; unscaled, run-to-run spreads of the time
    metrics reached 0.16-0.5.  The probe, run in the
    same passes, slows with the program.  The unscaled values are kept in the
    result file.
    """
    run_start = perf_counter()
    deadline = run_start + RUN_LIMIT_S
    expected = workloads.load_expected() if expected is None else expected
    invs, setup_times = setup(workload, seed, expected, tiny, 1 if trace else SETUP_REPEATS)
    outcomes: list[Outcome] = []
    passes: list[dict] = []

    if not trace:
        def one_pass():
            probe = run_probe()
            wall, done = _timed_pass(invs, lambda inv: run_child(inv, deadline))
            outcomes.extend(done)
            return {"wall_s": wall, "probe_s": probe}
    else:
        from tracer import METRICS, Tracer, metric_unit

        tracer = None

        def traced_run(inv):
            tracer.invocation_id += 1
            return run_inprocess(inv)

        def one_pass():
            nonlocal tracer
            untraced, done = _timed_pass(invs, run_inprocess)
            outcomes.extend(done)
            tracer = Tracer()
            tracer.install()
            try:
                traced, done = _timed_pass(invs, traced_run)
            finally:
                tracer.remove()
            outcomes.extend(done)
            return {"untraced_s": untraced, "traced_s": traced, **tracer.metrics()}

    measure_start = perf_counter()
    while True:
        passes.append(one_pass())
        elapsed = perf_counter() - measure_start
        per_pass = elapsed / len(passes)
        timed_out = any(o.problem == "timed out" for o in outcomes)
        if timed_out or elapsed + per_pass > seconds or perf_counter() + per_pass > deadline:
            break

    failed = sum(1 for o in outcomes if o.problem)
    problems = []
    raw = None
    if trace:
        tracer.write_spans(OUT_DIR / f"spans-{workload}-seed{seed}.tsv.gz")
        metrics = {}
        for name in METRICS[:-1]:  # all but trace.overhead_s
            values = [p[name] for p in passes]
            if metric_unit(name) == "count" and len(set(values)) > 1:
                problems.append(f"count {name} differs between traced passes: {values}")
            metrics[name] = min(values)
        # Each traced pass directly follows its untraced one, so the host's
        # speed changes little between the two.
        metrics["trace.overhead_s"] = statistics.median(p["traced_s"] - p["untraced_s"]
                                                        for p in passes)
        units = {name: metric_unit(name) for name in metrics}
    else:
        by_name: dict[str, list[Outcome]] = {}
        for o in outcomes:
            by_name.setdefault(o.name, []).append(o)
        mean_wall = [statistics.fmean(o.wall_s for o in runs) for runs in by_name.values()]
        raw = {
            "wall_s": sum(mean_wall),
            "max_op_s": max(mean_wall),
            "cpu_s": sum(statistics.fmean(o.cpu_s for o in runs) for runs in by_name.values()),
        }
        scale = PROBE_REF_S / statistics.fmean(p["probe_s"] for p in passes)
        metrics = {name: value * scale for name, value in raw.items()}
        metrics["peak_rss_mb"] = max(o.rss_mb for o in outcomes)
        metrics["setup_s"] = statistics.median(setup_times)
        units = END_TO_END
    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    return {
        "correct": failed == 0 and not problems,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        "raw_metrics": raw,
        "passes": passes,
        "setup_times_s": setup_times,
        "outcomes": [asdict(o) for o in outcomes],
        "run_s": perf_counter() - run_start,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "h1loc" / "cli.py").is_file():
        print(f"h1loc sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    info = stamp()
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"setup failed: {exc}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({"stamp": info, "args": vars(args), **result}, indent=1),
                    encoding="utf-8")
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {len(result['passes'])} passes, "
          f"{result['attempted']} invocations, {result['failed']} failed "
          f"(fail_ratio {result['failed'] / result['attempted']:.3f}); details in {path}")
    for name, m in result["metrics"].items():
        print(f"  {name:44s} {m['value']:14.6f} {m['unit']}")
    if result["raw_metrics"]:
        print("  unscaled: " + ", ".join(f"{k} {v:.4f}" for k, v in result["raw_metrics"].items()))
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
