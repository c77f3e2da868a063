"""Export experiment results to CSV/JSON for external plotting.

The drivers return dict-rows; these helpers write them in the two
formats plotting pipelines expect, keeping the benchmark harness
self-contained (no pandas/matplotlib dependencies).
"""

from __future__ import annotations

import csv
import json
import os
import platform
from pathlib import Path
from typing import Any, Sequence

from ..obs.rss import current_rss_bytes, peak_rss_bytes

__all__ = [
    "rows_to_csv",
    "result_to_json",
    "merge_bench_reports",
    "host_info",
    "current_rss_bytes",
    "peak_rss_bytes",
]


def host_info() -> dict[str, Any]:
    """Host topology snapshot stamped into every ``BENCH_*.json``.

    Benchmark numbers are meaningless without knowing what they ran on:
    a "speedup plateau at 8 ranks" reads very differently on a 4-core
    box than a 64-core one.  Returns ``cpus`` (``os.cpu_count()``),
    ``platform`` (kernel/arch string), ``load_avg`` (1/5/15-minute
    averages where the OS provides them, else ``None``) and
    ``peak_rss_bytes`` (the exporting process's high-water resident set
    at stamp time — for out-of-core benchmarks the interesting number).
    """
    try:
        load: "list[float] | None" = [round(x, 3) for x in os.getloadavg()]
    except (AttributeError, OSError):  # pragma: no cover - non-POSIX
        load = None
    return {
        "cpus": os.cpu_count(),
        "platform": platform.platform(),
        "load_avg": load,
        "peak_rss_bytes": peak_rss_bytes(),
    }


def rows_to_csv(rows: Sequence[dict[str, Any]], path: "str | Path") -> None:
    """Write dict-rows as CSV; the header is the union of keys in
    first-appearance order (missing cells stay empty)."""
    if not rows:
        raise ValueError("no rows to export")
    cols: list[str] = []
    for r in rows:
        for k in r:
            if k not in cols:
                cols.append(k)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=cols)
        writer.writeheader()
        writer.writerows(rows)


def result_to_json(result: dict[str, Any], path: "str | Path") -> None:
    """Write a driver's full result (rows + series, not the rendered
    text) as JSON for downstream tooling.

    The payload is stamped with a ``host`` block (:func:`host_info`)
    unless the driver already provided one, so every exported report
    records the topology it was measured on.
    """
    payload = {k: v for k, v in result.items() if k != "text"}
    payload.setdefault("host", host_info())
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, default=_coerce)


def merge_bench_reports(
    directory: "str | Path", out_path: "str | Path | None" = None
) -> dict[str, Any]:
    """Merge every ``BENCH_*.json`` in *directory* into one report.

    The benchmark suites each drop a standalone ``BENCH_<name>.json``
    at the repo root (``result_to_json`` payloads); this collects them
    into a single trajectory report keyed by ``<name>`` so progress
    across PRs can be tracked from one file.  Files are read in sorted
    name order for a deterministic result; *out_path*, when given,
    receives the merged JSON.
    """
    directory = Path(directory)
    merged: dict[str, Any] = {}
    for p in sorted(directory.glob("BENCH_*.json")):
        name = p.stem[len("BENCH_"):]
        with open(p, encoding="utf-8") as fh:
            merged[name] = json.load(fh)
    report = {"benchmarks": merged, "count": len(merged)}
    if out_path is not None:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
    return report


def _coerce(obj: Any) -> Any:
    """JSON fallback for numpy scalars/arrays."""
    import numpy as np

    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    raise TypeError(f"not JSON serializable: {type(obj)}")
