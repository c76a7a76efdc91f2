"""The mmjones benchmark: seeded CLI jobs, checked outputs, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each job is one ``mmjones`` CLI call in a fresh interpreter.  One client
runs the workload's job list in a closed loop (``--jobs 1``), one pass after
another, and starts a new pass only while one as long as the longest so far
still fits in ``--seconds``.  Every report is checked after the timed region (see
``checks.py``).  With ``--trace 0`` the last line of stdout holds the
end-to-end metrics; with ``--trace 1`` one untraced and one traced pass run
and the last line holds the per-layer metrics.  The line before it is a
record of the run: environment, jobs with their seeded rotation or order,
latencies and failures.  Workloads and metrics are described in NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import time
from importlib.util import find_spec
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional, Tuple

from inputs import CATALOG_JOB, WORKLOADS, write_inputs
from runner import JOB_TIMEOUT_S, ROOT, SRC, JobRun, run_cli

WORK = ROOT / ".perfbench_work"
# Jobs still running this long after the start are killed, so that a run
# of a broken program still ends within three minutes.
DEADLINE_S = 140.0
# setup_s is the median wall time of fresh interpreters that run
# ``mmjones catalog``: start, imports, the Conway-gated default catalog.
SETUP_PROBES_FIRST = 1
SETUP_PROBES_PER_PASS = 2


def cpu_times() -> List[int]:
    """Aggregate CPU tick counters from /proc/stat (empty where unavailable)."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            return [int(x) for x in fh.readline().split()[1:9]]
    except OSError:
        return []


def steal_share(before: List[int], after: List[int]) -> Optional[float]:
    if len(before) < 8 or len(after) < 8:
        return None
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / sum(delta) if sum(delta) else 0.0


def src_lines() -> int:
    return sum(len(p.read_bytes().splitlines()) for p in sorted(SRC.rglob("*.py")))


def run_pass(jobs: List[Dict], directory: Path, traced: bool,
             deadline: float) -> Tuple[float, List[JobRun]]:
    """Run the job list once; a job still running at ``deadline`` is killed."""
    directory.mkdir(parents=True)
    runs = []
    t0 = time.perf_counter()
    for job in jobs:
        span_file = directory / f"{job['id']}.spans.json" if traced else None
        timeout = min(JOB_TIMEOUT_S, max(1.0, deadline - time.perf_counter()))
        runs.append(run_cli(job["argv"], directory / f"{job['id']}.out", span_file, timeout))
    return time.perf_counter() - t0, runs


def metric(value: float, unit: str) -> Dict:
    return {"value": value, "unit": unit}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=27.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.perf_counter() + DEADLINE_S
    if not (SRC / "mmjones" / "cli.py").is_file():
        sys.stderr.write(f"perfbench: no program source under {SRC}; run from a checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    from checks import Checker, load_reference
    from tracer import layer_metrics

    shutil.rmtree(WORK, ignore_errors=True)
    work = WORK / f"{args.workload}-{args.seed}-{args.trace}"
    jobs = write_inputs(args.workload, args.seed, work / "inputs", ROOT)

    setup_runs: List[JobRun] = []

    def probe_setup(count: int) -> None:
        for _ in range(count):
            setup_runs.append(run_cli(["catalog"], work / f"setup-{len(setup_runs)}.out"))

    # Untimed: fills the bytecode cache, as an installed package has it.
    warmup = run_cli(["catalog"], work / "warmup.out")
    stat0 = cpu_times()
    passes: List[Tuple[float, List[JobRun]]] = []
    if args.trace:
        passes.append(run_pass(jobs, work / "pass-0", False, deadline))
        traced = run_pass(jobs, work / "pass-traced", True, deadline)
    else:
        # Set-up probes before and between passes, so that their median
        # spans the run rather than one moment of it.
        t0 = time.perf_counter()
        probe_setup(SETUP_PROBES_FIRST)
        while True:
            passes.append(run_pass(jobs, work / f"pass-{len(passes)}", False, deadline))
            probe_setup(SETUP_PROBES_PER_PASS)
            longest = max(wall for wall, _ in passes)
            if time.perf_counter() - t0 + longest > args.seconds:
                break
    steal = steal_share(stat0, cpu_times())

    checker = Checker(load_reference())
    checked = [("setup", CATALOG_JOB, run) for run in [warmup] + setup_runs]
    for p, (_, runs) in enumerate(passes + ([traced] if args.trace else [])):
        checked += [(p, job, run) for job, run in zip(jobs, runs)]
    failures = []
    for p, job, run in checked:
        if run.returncode != 0:
            fails = [f"exit code {run.returncode}"]
        else:
            fails = checker.check(job, run.out.read_bytes())
        if fails:
            failures.append({"pass": p, "job": job["id"], "ref": job["ref"],
                             "failures": fails[:5]})

    per_job = [[runs[i] for _, runs in passes] for i in range(len(jobs))]
    job_medians = [median(r.wall_s for r in runs) for runs in per_job]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "gmpy2": find_spec("gmpy2") is not None,
            "steal_share": steal,
        },
        "src_lines": src_lines(),
        "passes": len(passes),
        "jobs_per_pass": len(jobs),
        "pass_wall_s": [wall for wall, _ in passes],
        "job_max_s": max(job_medians),
        "jobs": [
            {key: job.get(key) for key in ("id", "ref", "rotation", "p", "q")}
            | {"wall_s": [r.wall_s for r in runs], "cpu_s": [r.cpu_s for r in runs],
               "rss_mb": [r.rss_mb for r in runs]}
            for job, runs in zip(jobs, per_job)
        ],
        "failures": failures,
    }

    if args.trace:
        wall, runs = traced
        span_jobs = []
        for job, run in zip(jobs, runs):
            span_file = run.out.with_name(f"{job['id']}.spans.json")
            spans = json.loads(span_file.read_text()) if span_file.exists() else []
            span_jobs.append((run.wall_s, spans, run.out.stat().st_size))
        layers = layer_metrics(span_jobs)
        layers["trace.overhead_share"] = (wall / passes[0][0] - 1.0, "share")
        layers["src.lines"] = (record["src_lines"], "count")
        metrics = {name: metric(v, u) for name, (v, u) in sorted(layers.items())}
    else:
        metrics = {
            "setup_s": metric(median(run.wall_s for run in setup_runs), "s"),
            "wall_s": metric(median(wall for wall, _ in passes), "s"),
            "cpu_s": metric(median(sum(r.cpu_s for r in runs) for _, runs in passes), "s"),
            "job_p50_s": metric(median(job_medians), "s"),
            "peak_rss_mb": metric(max(r.rss_mb or 0.0 for _, runs in passes for r in runs), "MB"),
        }
    record["metrics"] = metrics
    (work / "record.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(checked),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
