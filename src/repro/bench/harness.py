"""Experiment harness: the counters a finished run exports.

The worlds themselves are built by :mod:`repro.obs.world`; this module
reads them: :func:`counter_snapshot` merges every mechanism counter of
a run into one dict, and :func:`register_metric_sources` wires the same
counters into an installed metrics pipeline.
"""

from __future__ import annotations

from ..obs.probes import PROBES

# The end-to-end benchmark imports its builders from here.
from ..obs.world import build_pooling_setup, build_sharing_setup, reset_meters  # noqa: F401

__all__ = ["counter_snapshot", "register_metric_sources"]

_POOL_STAT_ATTRS = (
    "hits",
    "misses",
    "evictions",
    "remote_fetches",
    "storage_fetches",
    "refetches",
    "invalidations_observed",
    "removals_observed",
    "rpc_retries",
)

_BYTES_MOVED_PIPES = ("cxl", "rdma", "storage", "wal")


def _named_engines(setup) -> list:
    """``(name, engine)`` per instance (``inst{i}``) or node (its id)."""
    contexts = getattr(setup, "instances", None)
    if contexts is not None:
        return [(f"inst{i}", ictx.engine) for i, ictx in enumerate(contexts)]
    return [(node.node_id, node.engine) for node in getattr(setup, "nodes", [])]


def counter_snapshot(setup, tracer=None) -> dict[str, float]:
    """Merge every mechanism counter of a finished run into one dict.

    Works on both :class:`~repro.obs.world.PoolingSetup` and
    :class:`~repro.obs.world.SharingSetup`.
    Sources, in order:

    * each engine's :class:`AccessMeter` counters (``meter.`` prefix),
    * per-pool stats attributes (``pool_stats.`` prefix, summed over
      instances/nodes),
    * fusion / DBP server stats when the setup has them,
    * ``bytes_moved.{pipe}`` roll-ups derived from the meters' per-pipe
      byte counts — the amplification numbers (rdma vs cxl traffic),
    * the tracer's :class:`~repro.obs.counters.CounterRegistry` snapshot
      (names used verbatim) when a tracer is passed or installed.
    """
    if tracer is None:
        tracer = PROBES.tracer
    snap: dict[str, float] = {}

    def add(key: str, amount: float) -> None:
        snap[key] = snap.get(key, 0.0) + amount

    for _, engine in _named_engines(setup):
        for key, value in engine.meter.counters.items():
            add(f"meter.{key}", value)
        pool = engine.buffer_pool
        for attr in _POOL_STAT_ATTRS:
            value = getattr(pool, attr, None)
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                add(f"pool_stats.{attr}", value)

    fusion = getattr(setup, "fusion", None)
    if fusion is not None:
        add("fusion_stats.rpcs", fusion.rpcs)
        add("fusion_stats.pages_loaded", fusion.pages_loaded)
        add("fusion_stats.pages_recycled", fusion.pages_recycled)
        add("fusion_stats.invalidations_pushed", fusion.invalidations_pushed)
        add("fusion_stats.reshares", getattr(fusion, "reshares", 0))
    dbp_server = getattr(setup, "dbp_server", None)
    if dbp_server is not None:
        add("dbp_stats.rpcs", dbp_server.rpcs)
        add("dbp_stats.invalidation_messages", dbp_server.invalidation_messages)

    for pipe in _BYTES_MOVED_PIPES:
        moved = snap.get(f"meter.{pipe}_bytes")
        if moved is not None:
            add(f"bytes_moved.{pipe}", moved)
    add(
        "bytes_moved.interconnect",
        snap.get("bytes_moved.cxl", 0.0) + snap.get("bytes_moved.rdma", 0.0),
    )

    if tracer is not None:
        for name, value in tracer.counters.snapshot().items():
            add(name, value)
    return dict(sorted(snap.items()))


def register_metric_sources(setup) -> int:
    """Wire a setup's cumulative mechanism counters into the metrics
    pipeline as windowed-rate counter sources.

    Covers the same surfaces as :func:`counter_snapshot`, but live: each
    scrape turns the cumulative totals into per-window deltas, labeled
    by node (engine meters) or shard (fusion servers, including their
    sharer-directory churn). No-op (returns 0) when no pipeline is
    installed; returns the number of sources registered otherwise.
    """
    pipeline = PROBES.metrics
    if pipeline is None:
        return 0
    registered = 0
    for name, engine in _named_engines(setup):
        pipeline.add_counter_source(
            "meter.", lambda m=engine.meter: m.counters, node=name
        )
        registered += 1

    fusion = getattr(setup, "fusion", None)
    if fusion is not None:
        shards = list(getattr(setup, "fusion_shards", [])) or [fusion]
        for index, shard in enumerate(shards):

            def snap(s=shard) -> dict[str, float]:
                stats = {
                    "rpcs": float(s.rpcs),
                    "pages_loaded": float(s.pages_loaded),
                    "pages_recycled": float(s.pages_recycled),
                    "invalidations_pushed": float(s.invalidations_pushed),
                    "reshares": float(getattr(s, "reshares", 0)),
                }
                directory = getattr(s, "directory", None)
                if directory is not None:
                    for key, value in directory.stats().items():
                        stats[f"directory_{key}"] = value
                return stats

            pipeline.add_counter_source("fusion.", snap, shard=str(index))
            registered += 1

    dbp_server = getattr(setup, "dbp_server", None)
    if dbp_server is not None:
        pipeline.add_counter_source(
            "dbp.",
            lambda d=dbp_server: {
                "rpcs": float(d.rpcs),
                "invalidation_messages": float(d.invalidation_messages),
            },
        )
        registered += 1
    return registered
