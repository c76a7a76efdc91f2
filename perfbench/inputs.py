"""Seeded job lists for the mmjones benchmark.

A job is one ``mmjones`` CLI invocation.  ``write_inputs`` turns a workload
name and a seed into a job list and the catalog files the jobs read, and
writes them under a directory; the same seed gives byte-identical files.

Each job records what the seed chose for it: the cyclic rotation of its
braid word (a rotation is a conjugate, so the knot, the D-table and the
report bytes stay the same) or the (p, q) order of a torus job.
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import Dict, List, Optional

# The default catalog as shipped in src/mmjones/knots.py.  The benchmark
# keeps its own copy so that its inputs stay fixed when the program's
# catalog changes; the program's Conway gate validates every catalog a job
# loads.
CATALOG = [
    {"name": "unknot", "strands": 1, "braid": [], "amphicheiral": True, "conway": [1]},
    {"name": "3_1", "strands": 2, "braid": [1, 1, 1], "amphicheiral": False, "conway": [1, 1]},
    {"name": "4_1", "strands": 3, "braid": [1, -2, 1, -2], "amphicheiral": True, "conway": [1, -1]},
    {"name": "5_2", "strands": 3, "braid": [-1, -1, -1, -2, 1, -2], "amphicheiral": False, "conway": [1, 2]},
    {"name": "6_1", "strands": 4, "braid": [-1, -1, -2, 1, 3, -2, 3], "amphicheiral": False, "conway": [1, -2]},
    {"name": "8_3", "strands": 5, "braid": [1, 1, 2, -1, -3, 2, -3, -4, 3, -4], "amphicheiral": True, "conway": [1, -4]},
]
CATALOG_BY_NAME = {rec["name"]: rec for rec in CATALOG}

# wide-braid: (knot, N), parameter h.  Every rotation of each word runs
# once per pass, in seeded order: the state-sum cost of one rotation
# differs by up to 10x from another, so a seeded draw of single rotations
# would make the run-to-run spread follow the draw, not the program.
WIDE = [("6_1", 5)]
# narrow-braid: (knot, N, parameter), one seeded rotation per job.  The
# state sum is a small share here, so the rotation barely moves the cost.
NARROW = [("3_1", 12, "h"), ("4_1", 10, "ht")]
# torus-closed-form: ((p, q), lines).  Each pass runs every knot in both
# orders, in seeded sequence, so both orders are checked in every run.
TORUS = [((2, 7), 4), ((3, 4), 4), ((3, 5), 4)]
# small-requests: every catalog entry at each of these orders, against the
# default catalog.  Entry i at order index j asks for SMALL_KINDS[(i + j) % 4],
# so every entry and every order gets both parameters and both formats.  The
# seed sets the sequence only, so the counts of the traced run do not depend
# on it.
SMALL_ORDERS = (2, 3, 4, 5)
SMALL_KINDS = (("h", "json"), ("ht", "json"), ("h", "tsv"), ("ht", "tsv"))

# The set-up probe: list the default catalog.
CATALOG_JOB = {"kind": "catalog", "id": "catalog", "argv": ["catalog"], "ref": "catalog"}

WORKLOADS = ("wide-braid", "narrow-braid", "torus-closed-form", "small-requests")
# The CLI's default ceiling on N; larger orders pass --max-order.
DEFAULT_CEILING = 6


def expand_job(knot: str, order: int, parameter: str, fmt: str,
               rotation: Optional[int]) -> Dict:
    """An expand job; ``ref``, its reference key, is shared by all rotations."""
    argv = ["expand", "--knot", knot, "--order", str(order),
            "--parameter", parameter, "--format", fmt]
    if order > DEFAULT_CEILING:
        argv += ["--max-order", str(order)]
    return {
        "kind": "expand", "knot": knot, "order": order, "parameter": parameter,
        "format": fmt, "rotation": rotation, "argv": argv,
        "ref": f"expand/{knot}/N={order}/{parameter}/{fmt}",
    }


def torus_job(p: int, q: int, lines: int) -> Dict:
    return {
        "kind": "torus", "p": p, "q": q, "lines": lines,
        "argv": ["torus", "--p", str(p), "--q", str(q), "--lines", str(lines)],
        "ref": f"torus/{p},{q}/L={lines}",
    }


def make_jobs(workload: str, seed: int) -> List[Dict]:
    """The job list of one pass, without catalog paths."""
    rng = random.Random(f"{workload}:{seed}")
    jobs: List[Dict] = []
    if workload == "wide-braid":
        for knot, order in WIDE:
            for k in range(len(CATALOG_BY_NAME[knot]["braid"])):
                jobs.append(expand_job(knot, order, "h", "json", k))
        rng.shuffle(jobs)
    elif workload == "narrow-braid":
        for knot, order, parameter in NARROW:
            k = rng.randrange(len(CATALOG_BY_NAME[knot]["braid"]))
            jobs.append(expand_job(knot, order, parameter, "json", k))
    elif workload == "torus-closed-form":
        for (p, q), lines in TORUS:
            jobs += [torus_job(p, q, lines), torus_job(q, p, lines)]
        rng.shuffle(jobs)
    elif workload == "small-requests":
        for i, rec in enumerate(CATALOG):
            for j, order in enumerate(SMALL_ORDERS):
                parameter, fmt = SMALL_KINDS[(i + j) % len(SMALL_KINDS)]
                jobs.append(expand_job(rec["name"], order, parameter, fmt, None))
        rng.shuffle(jobs)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    for i, job in enumerate(jobs):
        job["id"] = f"{i:03d}"
    return jobs


def rotated_catalog(knot: str, rotation: int) -> List[Dict]:
    """The default catalog with one knot's braid word rotated."""
    out = []
    for rec in CATALOG:
        rec = dict(rec)
        if rec["name"] == knot:
            rec["braid"] = rec["braid"][rotation:] + rec["braid"][:rotation]
        out.append(rec)
    return out


def _dump(obj) -> str:
    return json.dumps(obj, indent=1, sort_keys=True) + "\n"


def write_inputs(workload: str, seed: int, directory: Path, rel_to: Path) -> List[Dict]:
    """Write the job list and its catalogs under ``directory``.

    Catalog paths in each job's argv are relative to ``rel_to``, the
    directory the jobs run in.
    """
    directory.mkdir(parents=True, exist_ok=True)
    jobs = make_jobs(workload, seed)
    for job in jobs:
        if job.get("rotation") is None:
            continue
        path = directory / f"catalog-{job['id']}.json"
        path.write_text(_dump(rotated_catalog(job["knot"], job["rotation"])), encoding="utf-8")
        job["argv"] = job["argv"] + ["--catalog", str(path.relative_to(rel_to))]
    manifest = {"workload": workload, "seed": seed, "jobs": jobs}
    (directory / "jobs.json").write_text(_dump(manifest), encoding="utf-8")
    return jobs
