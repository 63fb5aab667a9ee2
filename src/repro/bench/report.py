"""Formatting helpers for benchmark output.

Benchmarks print the same rows/series the paper reports, as aligned
ASCII tables, so ``pytest benchmarks/ --benchmark-only -s`` regenerates
a readable version of every table and figure.
"""

from __future__ import annotations

import json
from typing import Iterable, Mapping, Sequence

__all__ = [
    "format_table",
    "format_series",
    "format_counters",
    "format_span_breakdown",
    "dump_counters_json",
    "improvement_pct",
    "banner",
]

def banner(title: str) -> str:
    rule = "=" * max(64, len(title) + 4)
    return f"\n{rule}\n  {title}\n{rule}"


def format_table(
    headers: Sequence[str], rows: Iterable[Sequence[object]]
) -> str:
    """Align columns; floats get 2 decimals, everything else str()."""
    rendered = [[_cell(value) for value in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    for row in rendered:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def format_series(name: str, series: Sequence[tuple[float, float]]) -> str:
    """A compact sparkline-ish rendering of a time series."""
    if not series:
        return f"{name}: (empty)"
    peak = max(value for _, value in series) or 1.0
    blocks = " ▁▂▃▄▅▆▇█"
    chars = "".join(
        blocks[min(8, int(9 * value / peak))] if peak else " "
        for _, value in series
    )
    return (
        f"{name}: [{chars}] peak={peak / 1e3:.0f}K-QPS "
        f"span={series[0][0]:.2f}s..{series[-1][0]:.2f}s"
    )


def format_counters(
    snapshots: Mapping[str, Mapping[str, float]], title: str = "mechanism counters"
) -> str:
    """Render per-run counter snapshots side by side, grouped by prefix.

    ``snapshots`` maps a run label (e.g. ``"cxl"``/``"rdma"``) to the
    dict returned by :func:`repro.bench.harness.counter_snapshot`. The
    union of counter names becomes the rows; a blank group line is
    inserted whenever the dotted prefix changes, so ``mem.*``, ``pool.*``
    and ``bytes_moved.*`` read as blocks.
    """
    labels = list(snapshots)
    names = sorted({name for snap in snapshots.values() for name in snap})
    rows: list[list[object]] = []
    previous_group = None
    for name in names:
        group = name.split(".", 1)[0]
        if previous_group is not None and group != previous_group:
            rows.append([""] * (1 + len(labels)))
        previous_group = group
        rows.append(
            [name] + [_count_cell(snapshots[label].get(name)) for label in labels]
        )
    return banner(title) + "\n" + format_table(["counter"] + labels, rows)


def format_span_breakdown(breakdown, title: str = "span latency breakdown") -> str:
    """Render a :class:`~repro.obs.critical_path.MechanismBreakdown`.

    One row per mechanism bucket, largest share first (``unattributed``
    last), with per-transaction percentile latencies from the span
    recorders. The footer states the coverage the ≥95 % acceptance
    criterion is judged on.
    """
    rows: list[list[object]] = []
    for kind in breakdown.kinds():
        recorder = breakdown.per_txn.get(kind)
        rows.append(
            [
                kind,
                f"{100 * breakdown.fraction(kind):.1f}%",
                _ns_cell(breakdown.buckets[kind] / max(1, breakdown.txns)),
                _ns_cell(recorder.percentile_ns(50) if recorder else 0.0),
                _ns_cell(recorder.percentile_ns(95) if recorder else 0.0),
                _ns_cell(recorder.percentile_ns(99) if recorder else 0.0),
            ]
        )
    table = format_table(
        ["mechanism", "share", "avg/txn", "p50/txn", "p95/txn", "p99/txn"], rows
    )
    footer = (
        f"txns={breakdown.txns}  total={breakdown.total_ns / 1e6:.2f} ms  "
        f"coverage={100 * breakdown.coverage:.2f}%"
    )
    return banner(title) + "\n" + table + "\n" + footer


def _ns_cell(ns: float) -> str:
    if ns >= 1e6:
        return f"{ns / 1e6:.2f} ms"
    if ns >= 1e3:
        return f"{ns / 1e3:.1f} us"
    return f"{ns:.0f} ns"


def dump_counters_json(path, snapshots: Mapping[str, Mapping[str, float]]) -> None:
    """Write counter snapshots as JSON (ints stay ints for diffability)."""
    payload = {
        label: {name: _json_number(value) for name, value in snap.items()}
        for label, snap in snapshots.items()
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _json_number(value: float):
    return int(value) if float(value).is_integer() else value


def _count_cell(value) -> str:
    if value is None:
        return "-"
    if float(value).is_integer():
        return f"{int(value):,}"
    return f"{value:.3f}"


def improvement_pct(baseline: float, improved: float) -> float:
    """Relative improvement of ``improved`` over ``baseline`` in percent."""
    if baseline <= 0:
        return 0.0
    return (improved / baseline - 1.0) * 100.0


def _cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)
