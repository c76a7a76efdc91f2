"""Traced CLI jobs and the per-layer metrics computed from their spans.

As a script, runs one ``mmjones`` CLI job with a span recorded around each
call of the functions listed in ``TARGETS``:

    python3 perfbench/tracer.py SPAN_FILE JOB_ID -- CLI_ARGS...

The wrappers are installed from here, not inside the program: every module
attribute of the ``mmjones`` package that holds a listed function is
replaced, so a copy bound by ``from .x import f`` is traced as well (for
example ``mmexpand.jones_h_series`` and the names ``cli`` imports).  Spans
(name, start, end, parent, job id, counts) stay in memory and are written
to SPAN_FILE when the job ends.

``layer_metrics`` turns the span files of a traced pass into the per-layer
metrics.  A span's self time is its duration minus that of its child
spans; work in an unlisted function counts toward the nearest listed
caller.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

# module -> functions wrapped.  ``_operator_pair`` builds and checks the
# exact operator tables of a color (cached per process), ``_markov_data``
# the charge weights, ``_gseries_entry_tables`` converts the tables to
# g-series and ``_gseries_to_hseries`` maps a g-series to h, so that the
# self time left in ``jones_h_series`` is the state sum itself.
TARGETS = {
    "cli": ("main", "cmd_expand", "cmd_torus"),
    "knots": ("load_catalog", "conway_poly"),
    "cjones": ("jones_h_series", "_operator_pair", "_markov_data",
               "_gseries_entry_tables", "_gseries_to_hseries"),
    "exactalg": ("series_compose", "solve_linear_system"),
    "mmexpand": ("build_dtable", "to_z_lines", "to_htilde_lines",
                 "bottom_line_check", "integrality_report", "approx_poly"),
    "toruslines": ("torus_lines", "apply_D", "certify_numerator"),
    "reports": ("qpoly_doc", "dtable_doc", "linetable_doc", "bottom_line_doc",
                "integrality_doc", "approx_doc", "linetable_tsv", "dump_json"),
}
LAYERS = tuple(TARGETS)


class Recorder:
    """In-memory spans of one job: [name, start, end, parent, counts]."""

    def __init__(self):
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.tables_built: set = set()

    def wrap(self, name: str, fn: Callable, note: Optional[Callable]) -> Callable:
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if note is not None:
                span[4] = note(args, result)
            return result

        return traced

    def notes(self) -> Dict[str, Callable]:
        """Counts recorded on the spans of some functions."""
        built = self.tables_built

        def h_series(args, result):
            alpha = getattr(args[1], "alpha", args[1])
            return {"alpha": alpha, "strands": args[0].strands}

        def operator_pair(args, result):
            if args[0] in built:
                return None
            built.add(args[0])
            return {"entries": sum(len(e) for op in result for e in op.table.values())}

        def dtable(args, result):
            return {"den_bits": max(c.denominator.bit_length()
                                    for row in result.entries for c in row)}

        return {"cjones.jones_h_series": h_series,
                "cjones._operator_pair": operator_pair,
                "mmexpand.build_dtable": dtable}

    def install(self) -> None:
        import importlib

        modules = [importlib.import_module(f"mmjones.{m}") for m in LAYERS]
        package = [mod for name, mod in sorted(sys.modules.items())
                   if name.startswith("mmjones.") and mod is not None]
        notes = self.notes()
        for module in modules:
            layer = module.__name__.split(".")[-1]
            for attr in TARGETS[layer]:
                original = getattr(module, attr)
                name = f"{layer}.{attr}"
                traced = self.wrap(name, original, notes.get(name))
                for mod in package:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, traced)

    def dump(self, path: str, job_id: str) -> None:
        records = [{"job": job_id, "name": n, "start": s, "end": e, "parent": p,
                    "counts": c} for (n, s, e, p, c) in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(records, fh)


def main(argv: Sequence[str]) -> int:
    span_file, job_id, sep, *cli_args = argv
    if sep != "--":
        sys.stderr.write("usage: tracer.py SPAN_FILE JOB_ID -- CLI_ARGS...\n")
        return 2
    recorder = Recorder()
    recorder.install()
    from mmjones import cli

    try:
        return cli.main(cli_args)
    finally:
        recorder.dump(span_file, job_id)


# ---------------------------------------------------------------------------
# Per-layer metrics of a traced pass
# ---------------------------------------------------------------------------

# metric -> span whose summed self time it is, in seconds
SELF_TIMES = {
    "cjones.h_series_s": "cjones.jones_h_series",
    "cjones.operator_build_s": "cjones._operator_pair",
    "cjones.markov_s": "cjones._markov_data",
    "cjones.gseries_tables_s": "cjones._gseries_entry_tables",
    "cjones.to_hseries_s": "cjones._gseries_to_hseries",
    "exactalg.series_compose_s": "exactalg.series_compose",
    "exactalg.solve_s": "exactalg.solve_linear_system",
    "mmexpand.build_dtable_s": "mmexpand.build_dtable",
    "mmexpand.z_lines_s": "mmexpand.to_z_lines",
    "mmexpand.ht_lines_s": "mmexpand.to_htilde_lines",
    "mmexpand.bottom_line_s": "mmexpand.bottom_line_check",
    "mmexpand.approx_s": "mmexpand.approx_poly",
    "toruslines.lines_s": "toruslines.torus_lines",
    "toruslines.apply_D_s": "toruslines.apply_D",
    "toruslines.certify_s": "toruslines.certify_numerator",
    "knots.catalog_s": "knots.load_catalog",
    "knots.conway_s": "knots.conway_poly",
}


def self_times(spans: List[dict]) -> List[float]:
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] >= 0:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_metrics(jobs: List[Tuple[float, List[dict], int]]) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics of a traced pass.

    ``jobs`` holds, per job, its wall time, its spans and its report bytes.
    """
    by_name: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    by_layer: Dict[str, float] = defaultdict(float)
    wall_total = startup = 0.0
    job_color_max: List[float] = []  # per job, the self time of its slowest color
    start_vectors = operator_entries = den_bits = out_bytes = 0
    for wall, spans, nbytes in jobs:
        wall_total += wall
        out_bytes += nbytes
        startup += wall - sum(s["end"] - s["start"] for s in spans if s["parent"] < 0)
        job_color_max.append(0.0)
        for s, t in zip(spans, self_times(spans)):
            name, counts = s["name"], s["counts"] or {}
            by_name[name] += t
            calls[name] += 1
            by_layer[name.split(".")[0]] += t
            if name == "cjones.jones_h_series":
                job_color_max[-1] = max(job_color_max[-1], t)
                start_vectors += counts["alpha"] ** (counts["strands"] - 1)
            operator_entries += counts.get("entries", 0)
            den_bits = max(den_bits, counts.get("den_bits", 0))
    h_total = by_name["cjones.jones_h_series"]
    dtables = calls["mmexpand.build_dtable"]
    collections = calls["mmexpand.to_z_lines"] + calls["mmexpand.to_htilde_lines"]
    out: Dict[str, Tuple[float, str]] = {
        metric: (by_name[span], "s") for metric, span in SELF_TIMES.items()
    }
    out.update({
        "cjones.color_max_s": (max(job_color_max, default=0.0), "s"),
        "cjones.color_max_share": (sum(job_color_max) / h_total if h_total else 0.0, "share"),
        "cjones.colors": (calls["cjones.jones_h_series"], "count"),
        "cjones.start_vectors": (start_vectors, "count"),
        "cjones.operator_entries": (operator_entries, "count"),
        "exactalg.series_compose_calls": (calls["exactalg.series_compose"], "count"),
        "mmexpand.line_collections_per_dtable": (collections / dtables if dtables else 0.0, "count"),
        "mmexpand.dtable_max_den_bits": (den_bits, "bits"),
        "toruslines.apply_D_calls": (calls["toruslines.apply_D"], "count"),
        "reports.serialize_s": (by_layer["reports"], "s"),
        "reports.bytes": (out_bytes, "bytes"),
        "trace.job_wall_s": (wall_total, "s"),
    })
    for layer in LAYERS:
        out[f"{layer}.share"] = (by_layer[layer] / wall_total, "share")
    out["startup.share"] = (startup / wall_total, "share")
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
