"""Span export: Chrome-trace JSON (loadable in Perfetto).

The Chrome trace event format is the least-common-denominator input
Perfetto, ``chrome://tracing`` and ``speedscope`` all accept: a JSON
object with a ``traceEvents`` list of complete ("ph": "X") events whose
``ts``/``dur`` are in microseconds. We map:

* ``cat``   ← the span's mechanism kind,
* ``tid``   ← the span's root ancestor id, so every transaction renders
  as its own track with children nested by time containment,
* ``args``  ← the span's fields plus span/parent ids and status.

Charged-only spans (no simulated wall width — they execute inside one
synchronous segment and their latency materialises at the next settle)
are exported with ``dur`` equal to their charged ns, starting at their
record timestamp; the ``charged`` arg marks them.

Output is deterministic: spans are serialised in begin order with
sorted keys and fixed separators, so a seeded workload exports
byte-identical JSON (the golden-snapshot test pins one).
"""

from __future__ import annotations

import json
import os
from typing import Iterable, Union

from .spans import Span, SpanTracer

__all__ = [
    "to_chrome_trace",
    "write_chrome_trace",
]


def _spans_of(source: Union[SpanTracer, Iterable[Span]]) -> list[Span]:
    return list(source.spans() if isinstance(source, SpanTracer) else source)


def _root_index(spans: list[Span]) -> dict[int, int]:
    """span_id → root ancestor span_id (parents precede children)."""
    roots: dict[int, int] = {}
    for span in spans:
        parent = span.parent_id
        roots[span.span_id] = (
            roots.get(parent, parent) if parent is not None else span.span_id
        )
    return roots


def to_chrome_trace(
    source: Union[SpanTracer, Iterable[Span]], process_name: str = "repro"
) -> dict:
    """Build the Chrome-trace dict for ``json.dump``."""
    spans = _spans_of(source)
    roots = _root_index(spans)
    events: list[dict] = [
        {
            "ph": "M",
            "name": "process_name",
            "pid": 0,
            "tid": 0,
            "args": {"name": process_name},
        }
    ]
    for span in spans:
        wall = span.t1 - span.t0
        charged = wall <= 0.0 and span.ns > 0.0
        args = dict(span.fields)
        args["span_id"] = span.span_id
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        if span.status != "closed":
            args["status"] = span.status
        if charged:
            args["charged"] = True
        events.append(
            {
                "name": span.name,
                "cat": span.kind,
                "ph": "X",
                "ts": span.t0 / 1e3,
                "dur": (span.ns if charged else wall) / 1e3,
                "pid": 0,
                "tid": roots.get(span.span_id, span.span_id),
                "args": args,
            }
        )
    return {"displayTimeUnit": "ns", "traceEvents": events}


def write_chrome_trace(
    path: Union[str, "os.PathLike[str]"],
    source: Union[SpanTracer, Iterable[Span]],
    process_name: str = "repro",
) -> None:
    """Serialise deterministically (sorted keys, fixed separators)."""
    payload = to_chrome_trace(source, process_name=process_name)
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
        handle.write("\n")
