"""Every report the benchmark checks keeps its bytes.

``perfbench/reference.json`` records the sha256 digest of each benchmark
report.  Its ``expand/...`` keys name the request (knot, order, parameter,
format), its ``torus/P,Q/L=4`` keys a torus request and ``catalog`` the
default catalog listing; each runs here in-process through ``cli.main``, so
a change that alters a report byte fails the test suite, not only the
benchmark.  The report of ``verify --suite all --format json`` is pinned
here too, by its own digest: it reads both line routes (``mm/route-agreement``),
both bottom-line routes (``mm/bottom-line``) and the approximants
(``mm/approx-head``).  So is its ``--scope full`` report, which checks every
tabulated golden entry at the per-knot budget.
"""

import hashlib
import json
from pathlib import Path

import pytest

from mmjones.cli import MAX_ORDER_CEILING, main

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
DIGESTS = {
    key: ref["sha256"]
    for key, ref in json.loads(REFERENCE.read_text(encoding="utf-8"))["reports"].items()
}
VERIFY_ALL_DIGEST = "28738e25faecc789dac4607a4c723dd552b1c9095b435fcd18c5b381701f5718"
VERIFY_FULL_DIGEST = "3116966fc5135a530c38c34379166a533e44fe28fdafa65055172de36c5d620b"
EXPAND_DIGESTS = {key: d for key, d in DIGESTS.items() if key.startswith("expand/")}
TORUS_DIGESTS = {key: d for key, d in DIGESTS.items() if key.startswith("torus/")}


def test_every_expand_key_is_covered():
    assert len(EXPAND_DIGESTS) == 27


def test_every_torus_and_catalog_key_is_covered():
    assert len(TORUS_DIGESTS) == 6
    assert set(DIGESTS) == set(EXPAND_DIGESTS) | set(TORUS_DIGESTS) | {"catalog"}


def _digest(argv, capsysbinary) -> str:
    assert main(argv) == 0
    return hashlib.sha256(capsysbinary.readouterr().out).hexdigest()


@pytest.mark.parametrize("key", sorted(EXPAND_DIGESTS))
def test_expand_report_digest(key, capsysbinary):
    _, knot, order, parameter, fmt = key.split("/")
    argv = ["expand", "--knot", knot, "--order", order.removeprefix("N="),
            "--parameter", parameter, "--format", fmt,
            "--max-order", str(MAX_ORDER_CEILING)]
    assert _digest(argv, capsysbinary) == EXPAND_DIGESTS[key]


@pytest.mark.parametrize("key", sorted(TORUS_DIGESTS))
def test_torus_report_digest(key, capsysbinary):
    _, pair, lines = key.split("/")
    p, q = pair.split(",")
    argv = ["torus", "--p", p, "--q", q, "--lines", lines.removeprefix("L=")]
    assert _digest(argv, capsysbinary) == TORUS_DIGESTS[key]


def test_catalog_report_digest(capsysbinary):
    assert _digest(["catalog"], capsysbinary) == DIGESTS["catalog"]


def test_verify_report_digest(capsysbinary):
    argv = ["verify", "--suite", "all", "--format", "json"]
    assert _digest(argv, capsysbinary) == VERIFY_ALL_DIGEST


def test_verify_full_report_digest(capsysbinary):
    argv = ["verify", "--suite", "all", "--scope", "full", "--format", "json"]
    assert _digest(argv, capsysbinary) == VERIFY_FULL_DIGEST
