"""Tests of the benchmark itself: seeded inputs and output checks.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

from checks import Checker, load_reference  # noqa: E402
from inputs import CATALOG_BY_NAME, WORKLOADS, make_jobs, torus_job, write_inputs  # noqa: E402
from mmjones import cli, reports  # noqa: E402


def _files(root: Path) -> dict:
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_identical_inputs(tmp_path, workload):
    for name in ("a", "b"):
        write_inputs(workload, 11, tmp_path / name / "inputs", tmp_path / name)
    first, second = _files(tmp_path / "a"), _files(tmp_path / "b")
    assert first and first == second


@pytest.mark.parametrize("workload", ["wide-braid", "torus-closed-form", "small-requests"])
def test_other_seed_gives_other_order(workload):
    assert make_jobs(workload, 1) != make_jobs(workload, 2)


def test_wide_braid_covers_every_rotation_once():
    jobs = make_jobs("wide-braid", 5)
    for knot in {job["knot"] for job in jobs}:
        rotations = sorted(job["rotation"] for job in jobs if job["knot"] == knot)
        assert rotations == list(range(len(CATALOG_BY_NAME[knot]["braid"])))


def test_jobs_record_what_the_seed_chose():
    assert all(job["rotation"] is not None for job in make_jobs("narrow-braid", 3))
    torus = {(job["p"], job["q"]) for job in make_jobs("torus-closed-form", 3)}
    assert torus == {(2, 7), (7, 2), (3, 4), (4, 3), (3, 5), (5, 3)}
    small = make_jobs("small-requests", 3)
    assert len(small) >= 24
    assert {job["knot"] for job in small} == set(CATALOG_BY_NAME)
    assert {job["parameter"] for job in small} == {"h", "ht"}
    assert {job["format"] for job in small} == {"json", "tsv"}


def _report(job: dict) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(job["argv"]) == 0
    return out.getvalue().encode()


def _alter_line(doc: dict, n: int, m: int) -> None:
    row = doc["lines"]["lines"][n]["values"]
    row[m] = reports.frac_str(reports.parse_frac(row[m]) + 1)


def _alter_numerator(doc: dict, n: int, m: int) -> None:
    row = doc["lines"][n]["numerator"]
    row[m] = reports.frac_str(reports.parse_frac(row[m]) + 1)


def _small_json_job(knot: str) -> dict:
    return next(job for job in make_jobs("small-requests", 0)
                if job["knot"] == knot and job["parameter"] == "h" and job["format"] == "json")


@pytest.mark.parametrize("job, alter", [
    # a golden.LINE_TABLES entry
    (_small_json_job("5_2"), lambda doc: _alter_line(doc, 1, 1)),
    # a 3_1 entry, held only by the torus generator
    (_small_json_job("3_1"), lambda doc: _alter_line(doc, 2, 1)),
    # a golden.TORUS_NUMERATORS coefficient
    (torus_job(7, 2, 4), lambda doc: _alter_numerator(doc, 1, 1)),
])
def test_checker_rejects_an_altered_entry(job, alter):
    checker = Checker(load_reference())
    data = _report(job)
    assert checker.check(job, data) == []
    doc = json.loads(data)
    alter(doc)
    altered = (reports.dump_json(doc) + "\n").encode()
    assert checker.golden_failures(job, altered)
    assert checker.check(job, altered)
