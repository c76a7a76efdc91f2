"""Write reference.json: the sha256 digest of every report a benchmark job can produce.

    python3 perfbench/make_reference.py

Runs every job any seed can draw through the CLI: every rotation of the
braid workloads, and the torus and small-requests job lists, which a seed
only reorders.  Records the digests only after each report passes the
golden checks, every rotation of a word gave the same bytes and both
orders of a torus knot gave the same numerators.  Exits nonzero, writing
nothing, if any of that fails.
"""

from __future__ import annotations

import json
import shutil
import sys
from typing import Dict, List

from inputs import (
    CATALOG_BY_NAME, CATALOG_JOB, NARROW, WIDE,
    expand_job, make_jobs, rotated_catalog,
)
from runner import ROOT, SRC, run_cli

WORK = ROOT / ".perfbench_work" / "reference"


def all_jobs() -> List[Dict]:
    jobs = [CATALOG_JOB]
    for knot, order, parameter in [(k, n, "h") for k, n in WIDE] + NARROW:
        for rot in range(len(CATALOG_BY_NAME[knot]["braid"])):
            jobs.append(expand_job(knot, order, parameter, "json", rot))
    return jobs + make_jobs("torus-closed-form", 0) + make_jobs("small-requests", 0)


def main() -> int:
    sys.path.insert(0, str(SRC))
    from checks import Checker, digest, numerators_digest, torus_pair_key

    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    checker = Checker({"reports": {}, "torus_numerators": {}})
    reports: Dict[str, Dict] = {}
    numerators: Dict[str, str] = checker.reference["torus_numerators"]
    errors = []
    for i, job in enumerate(all_jobs()):
        argv = job["argv"]
        if job.get("rotation") is not None:
            catalog = WORK / f"catalog-{i:03d}.json"
            catalog.write_text(json.dumps(rotated_catalog(job["knot"], job["rotation"])))
            argv = argv + ["--catalog", str(catalog.relative_to(ROOT))]
        run = run_cli(argv, WORK / f"{i:03d}.out")
        data = run.out.read_bytes()
        print(f"{job['ref']} rotation={job.get('rotation')} {run.wall_s:.2f}s", flush=True)
        if run.returncode != 0:
            errors.append(f"{job['ref']}: exit code {run.returncode}")
            continue
        if job["kind"] == "torus":
            key = torus_pair_key(job["p"], job["q"], job["lines"])
            nums = numerators_digest(json.loads(data))
            if numerators.setdefault(key, nums) != nums:
                errors.append(f"{job['ref']}: numerators differ between (p, q) orders")
        errors += [f"{job['ref']}: {f}" for f in checker.golden_failures(job, data)]
        entry = {"sha256": digest(data), "bytes": len(data)}
        if reports.setdefault(job["ref"], entry) != entry:
            errors.append(f"{job['ref']}: rotation {job.get('rotation')} changed the report")
    if errors:
        sys.stderr.write("\n".join(errors) + "\n")
        return 1
    reference = {"reports": dict(sorted(reports.items())),
                 "torus_numerators": dict(sorted(numerators.items()))}
    (ROOT / "perfbench" / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")
    shutil.rmtree(WORK)
    return 0


if __name__ == "__main__":
    sys.exit(main())
