"""pamlab benchmark: cold-start passes of one workload, measured and checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Every pass and every set-up probe is a fresh interpreter running child.py, so
the module caches of pamlab start cold, as they do for each ``pam`` command.
With ``--trace 0`` the run starts SETUP_PROBES set-up-only interpreters, then
one pass after another while the next is expected to end within S seconds of
the start (at least one pass), and reports the medians of the end-to-end
metrics declared in BENCHMARK.json.  With ``--trace 1`` it runs one untraced
and one traced pass and reports the per-layer metrics.
The last line of standard output is one JSON object: correct, attempted,
failed and metrics.  The full record (machine facts, every pass, every
failed check) and the spans of a traced pass are written to ``.perfbench/``
at the repository root; outputs of the workloads go to a temporary directory
there, removed at the end.  Exit code 0: all checks passed; 1: a check
failed; 2: nothing could be measured (no result line is printed).
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import uuid

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("spectral-box", "phase-certify", "mc-crosscheck")
SETUP_PROBES = 2       # set-up-only interpreters per run, besides one per pass
RUN_DEADLINE_S = 170   # every interpreter of a run has ended by then


def _spawn(workload: str, seed: int, work: str, deadline: float, *,
           setup_only: bool = False, spans: str | None = None):
    """Run child.py in a fresh interpreter: (record, None) or (None, reason)."""
    name = uuid.uuid4().hex[:12]
    out_dir = os.path.join(work, name)
    os.mkdir(out_dir)
    record = os.path.join(work, name + ".json")
    log = os.path.join(work, name + ".log")
    src = os.path.join(ROOT, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload,
           "--seed", str(seed), "--work", out_dir, "--record", record]
    if setup_only:
        cmd.append("--setup-only")
    if spans:
        cmd += ["--spans", spans]
    with open(log, "w") as fh:
        proc = subprocess.Popen(cmd + ["--spawned", repr(time.monotonic())], cwd=ROOT,
                                env=env, stdout=fh, stderr=subprocess.STDOUT,
                                start_new_session=True)
        try:
            code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            code = None
        finally:
            try:  # the pass and any pool workers it left behind
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
    with open(log) as fh:
        tail = fh.read()[-2000:]
    if code != 0 or not os.path.exists(record):
        return None, f"{workload} interpreter {'timed out' if code is None else f'exited {code}'}: {tail}"
    with open(record) as fh:
        rec = json.load(fh)
    if os.path.realpath(rec["pamlab"]) != os.path.realpath(os.path.join(src, "pamlab")):
        return None, f"imported pamlab from {rec['pamlab']}, not from {src}"
    return rec, None


def _git_facts() -> dict:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))

    def git(*args):
        try:
            r = subprocess.run(["git", *args], cwd=ROOT, env=env, capture_output=True,
                               text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return r.stdout.strip() if r.returncode == 0 else None

    commit = git("rev-parse", "HEAD")
    status = git("status", "--porcelain") if commit else None
    return {"git_commit": commit, "git_dirty": None if status is None else bool(status)}


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 declared: dict, work: str) -> dict | None:
    """Measure one workload; the full record, or None if nothing could be measured."""
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    setups, passes, crashes = [], [], []
    machine = None
    for _ in range(SETUP_PROBES):
        rec, why = _spawn(workload, seed, work, deadline, setup_only=True)
        if rec is None:
            print(why, file=sys.stderr)
            return None
        setups.append(rec["setup_s"])
        machine = rec["machine"]
    durations = []
    while True:
        began = time.monotonic()
        rec, why = _spawn(workload, seed, work, deadline)
        if rec is None:
            crashes.append(why)
            break
        passes.append(rec)
        durations.append(time.monotonic() - began)
        if trace or time.monotonic() - start + statistics.median(durations) > seconds:
            break
    traced = None
    spans = os.path.join(OUT, f"{workload}-seed{seed}.spans.jsonl")
    if trace and passes:
        traced, why = _spawn(workload, seed, work, deadline, spans=spans)
        if traced is None:
            crashes.append(why)
    if not passes or (trace and traced is None):
        print(*crashes, sep="\n", file=sys.stderr)
        return None

    done = passes + ([traced] if traced else [])
    failures = [f"{op}: {'; '.join(problems)}"
                for rec in done for op, problems in rec["ops"] if problems]
    attempted = sum(len(rec["ops"]) for rec in done) + len(crashes)
    failed = sum(1 for rec in done for _, problems in rec["ops"] if problems) + len(crashes)

    wall = statistics.median(p["wall_s"] for p in passes)
    if trace:
        values = dict(traced["layers"])
        values["trace.overhead_frac"] = traced["wall_s"] / wall - 1.0
        kind = "per_layer"
    else:
        values = {"wall_s": wall,
                  "cpu_s": statistics.median(p["cpu_s"] for p in passes),
                  "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
                  "setup_s": statistics.median(setups + [p["setup_s"] for p in passes])}
        kind = "end_to_end"
    # a layer the workload never enters reports 0
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in declared[kind]}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return {"result": result, "workload": workload, "seed": seed, "trace": trace,
            "seconds": seconds, "machine": dict(machine, **_git_facts()),
            "fail_frac": failed / attempted, "failures": failures + crashes,
            "setup_probes_s": setups,
            "passes": [{k: p[k] for k in ("setup_s", "wall_s", "cpu_s", "peak_rss_mb")}
                       for p in done],
            "spans_file": spans if traced else None}


def _report(full: dict) -> None:
    name = full["workload"]
    for metric, m in full["result"]["metrics"].items():
        print(f"{name:14s} {metric:44s} {m['value']:14.6g} {m['unit']}")
    print(f"{name:14s} {'fail_frac':44s} {full['fail_frac']:14.6g} "
          f"({full['result']['failed']}/{full['result']['attempted']} operations)")
    for failure in full["failures"]:
        print(f"{name:14s} FAILED {failure}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "pamlab", "__init__.py")):
        print(f"no pamlab sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)

    os.makedirs(OUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix="work-", dir=OUT)
    results = {}
    try:
        for workload in WORKLOADS if args.workload == "all" else (args.workload,):
            full = run_workload(workload, args.seed, args.seconds, bool(args.trace),
                                declared, work)
            if full is None:
                return 2
            with open(os.path.join(OUT, f"{workload}-seed{args.seed}-trace{args.trace}.json"),
                      "w") as fh:
                json.dump(full, fh, indent=1)
            _report(full)
            results[workload] = full["result"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.workload == "all":
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
