"""Run one mmjones CLI job in a fresh interpreter and measure it.

Every job is a new process, because every CLI user pays interpreter start,
imports, the catalog gate and the lazy operator-table build again in each
process.  The program runs from the checkout's ``src`` directory, exactly
as the installed ``mmjones`` console script would call it.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACER = Path(__file__).resolve().parent / "tracer.py"
# The console script's call, plus one step: at exit the job writes its own
# peak resident set size (VmHWM, in kB) to the file named by its first
# argument.  The rusage of a child cannot give it, because it also counts
# the memory of the process that started the child.
CLI = """import sys
from mmjones.cli import main
try:
    code = main(sys.argv[2:])
finally:
    with open("/proc/self/status") as status, open(sys.argv[1], "w") as out:
        out.write(next(line for line in status if line.startswith("VmHWM:")).split()[1])
sys.exit(code)
"""
# A job that runs longer than its timeout is killed and counted as failed.
JOB_TIMEOUT_S = 60.0


def job_env() -> dict:
    """The caller's environment, less settings that change what a job does.

    Jobs read and write the bytecode cache, as an installed package's
    commands do, whatever the caller's interpreter settings.
    """
    env = dict(os.environ)
    for name in ("MMJONES_CATALOG", "PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX",
                 "PYTHONUNBUFFERED"):
        env.pop(name, None)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")
    return env


@dataclass
class JobRun:
    wall_s: float
    cpu_s: float  # user + sys of the job process
    rss_mb: Optional[float]  # peak resident set size of an untraced job process
    returncode: int
    out: Path


def run_cli(argv: List[str], out: Path, span_file: Optional[Path] = None,
            timeout: float = JOB_TIMEOUT_S) -> JobRun:
    """Run ``mmjones <argv>``, stdout to ``out``.

    With ``span_file`` the job runs under the tracer, with job id ``out.stem``.
    """
    rss_file = out.with_suffix(".rss")
    if span_file is None:
        cmd = [sys.executable, "-c", CLI, str(rss_file), *argv]
    else:
        cmd = [sys.executable, str(TRACER), str(span_file), out.stem, "--", *argv]
    env = job_env()
    with open(out, "wb") as fout, open(out.with_suffix(".err"), "wb") as ferr:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=fout, stderr=ferr, cwd=ROOT, env=env)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    rss_mb = int(rss_file.read_text()) / 1024.0 if rss_file.exists() else None
    return JobRun(wall, usage.ru_utime + usage.ru_stime, rss_mb, proc.returncode, out)
