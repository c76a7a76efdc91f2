"""The benchmark's tracer wraps functions by name; every name must exist,
and a traced job must still yield the counts its metrics read."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_are_callable(tracer):
    for layer, names in tracer.TARGETS.items():
        module = importlib.import_module(f"mmjones.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"mmjones.{layer}.{name}"


def test_traced_jobs_report_layer_counts(tracer, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    jobs = []
    for job_id, cli_args in (("expand", ["expand", "--knot", "3_1", "--order", "3"]),
                             ("torus", ["torus", "--p", "2", "--q", "3", "--lines", "2"])):
        span_file = tmp_path / f"{job_id}.json"
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(TRACER), str(span_file), job_id, "--", *cli_args],
            cwd=ROOT, env=env, capture_output=True, check=True,
        )
        wall = time.perf_counter() - start
        jobs.append((wall, json.loads(span_file.read_text()), len(done.stdout)))
    metrics = tracer.layer_metrics(jobs)
    assert metrics["cjones.colors"][0] == 4
    # colors 2..4, both signs, as at the unfactored tables
    assert metrics["cjones.operator_entries"][0] == 98
    assert metrics["toruslines.apply_D_calls"][0] == 2
