"""Every expand report the benchmark checks keeps its bytes.

``perfbench/reference.json`` records the sha256 digest of each benchmark
report.  Its ``expand/...`` keys name the request (knot, order, parameter,
format); each runs here in-process through ``cli.main`` on the default
catalog, so a change to a line route that alters a report byte fails the
test suite, not only the benchmark.
"""

import hashlib
import json
from pathlib import Path

import pytest

from mmjones.cli import MAX_ORDER_CEILING, main

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
EXPAND_DIGESTS = {
    key: ref["sha256"]
    for key, ref in json.loads(REFERENCE.read_text(encoding="utf-8"))["reports"].items()
    if key.startswith("expand/")
}


def test_every_expand_key_is_covered():
    assert len(EXPAND_DIGESTS) == 27


@pytest.mark.parametrize("key", sorted(EXPAND_DIGESTS))
def test_expand_report_digest(key, capsysbinary):
    _, knot, order, parameter, fmt = key.split("/")
    code = main(["expand", "--knot", knot, "--order", order.removeprefix("N="),
                 "--parameter", parameter, "--format", fmt,
                 "--max-order", str(MAX_ORDER_CEILING)])
    assert code == 0
    out = capsysbinary.readouterr().out
    assert hashlib.sha256(out).hexdigest() == EXPAND_DIGESTS[key]
